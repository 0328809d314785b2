// Stress tests for the concurrency support pieces that everything else
// rests on: the lock-free bump allocator and the big-stack runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/concurrent_arena.hpp"
#include "support/bigstack.hpp"

namespace pwf {
namespace {

TEST(ConcurrentArena, SingleThreadBasics) {
  rt::ConcurrentArena arena(1 << 12);
  auto* a = arena.create<std::uint64_t>(7);
  auto* b = arena.create<std::uint64_t>(9);
  EXPECT_NE(a, b);
  EXPECT_EQ(*a, 7u);
  EXPECT_EQ(*b, 9u);
}

TEST(ConcurrentArena, GrowsAcrossChunks) {
  rt::ConcurrentArena arena(256);
  std::vector<char*> blocks;
  for (int i = 0; i < 2000; ++i) {
    char* p = static_cast<char*>(arena.allocate(64, 8));
    std::memset(p, i & 0xff, 64);
    blocks.push_back(p);
  }
  for (int i = 0; i < 2000; ++i)
    for (int j = 0; j < 64; ++j)
      ASSERT_EQ(static_cast<unsigned char>(blocks[i][j]), i & 0xff);
}

TEST(ConcurrentArena, ParallelAllocationsDoNotOverlap) {
  rt::ConcurrentArena arena(1 << 12);  // small chunks force growth races
  constexpr int kThreads = 4;
  constexpr int kAllocs = 30000;
  std::vector<std::vector<std::uint32_t*>> owned(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      owned[t].reserve(kAllocs);
      for (int i = 0; i < kAllocs; ++i) {
        auto* p = static_cast<std::uint32_t*>(
            arena.allocate(sizeof(std::uint32_t), alignof(std::uint32_t)));
        *p = static_cast<std::uint32_t>(t * kAllocs + i);
        owned[t].push_back(p);
      }
    });
  for (auto& th : threads) th.join();
  // Every slot still holds its writer's value: no overlap, no tearing.
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kAllocs; ++i)
      ASSERT_EQ(*owned[t][i], static_cast<std::uint32_t>(t * kAllocs + i));
}

TEST(ConcurrentArena, AlignmentRespected) {
  rt::ConcurrentArena arena;
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void* p = arena.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
}

TEST(ConcurrentArena, ReleasedChunkIsReusedBySameSize) {
  // A chunk size no other arena in this process asks for. A fresh arena's
  // first allocation starts its first chunk.
  constexpr std::size_t kChunk = (1 << 16) + 4096;
  std::uintptr_t first = 0;
  {
    rt::ConcurrentArena arena(kChunk);
    first = reinterpret_cast<std::uintptr_t>(arena.allocate(64, 64));
  }
  // The chunk did not go back to malloc: a block of the same size taken
  // meanwhile does not get it, the next arena of that size does.
  void* block = ::operator new(kChunk, std::align_val_t{64});
  EXPECT_NE(reinterpret_cast<std::uintptr_t>(block), first);
  {
    rt::ConcurrentArena arena(kChunk);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.allocate(64, 64)),
              first);
  }
  rt::ConcurrentArena other(kChunk + 4096);
  EXPECT_NE(reinterpret_cast<std::uintptr_t>(other.allocate(64, 64)), first);
  ::operator delete(block, std::align_val_t{64});
}

TEST(BigStack, RunsAndReturns) {
  int x = 0;
  run_with_stack(1 << 20, [&] { x = 42; });
  EXPECT_EQ(x, 42);
}

TEST(BigStack, SurvivesDeepRecursion) {
  // ~1M frames of a small recursive function would overflow a default
  // stack; must succeed on the big one.
  struct Rec {
    static std::int64_t down(std::int64_t n) {
      if (n == 0) return 0;
      return 1 + down(n - 1);
    }
  };
  std::int64_t depth = 0;
  run_big([&] { depth = Rec::down(1000000); });
  EXPECT_EQ(depth, 1000000);
}

TEST(BigStack, PropagatesExceptions) {
  EXPECT_THROW(
      run_with_stack(1 << 20,
                     [] { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

}  // namespace
}  // namespace pwf
