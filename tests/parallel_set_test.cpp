// Tests for the ParallelSet facade: batch set semantics against std::set,
// across thread counts, batch shapes, and long randomized sessions; plus
// the pipelined-batch contract (stats, flush, compact), concurrent readers
// racing in-flight batches, and sharded-vs-unsharded equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "runtime/parallel_set.hpp"
#include "runtime/sharded_set.hpp"
#include "support/random.hpp"

namespace pwf::rt {
namespace {

std::vector<std::int64_t> draw(Rng& rng, std::size_t n,
                               std::int64_t universe = 1 << 20) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.range(0, universe));
  return out;  // duplicates allowed — the facade must handle them
}

TEST(ParallelSet, StartsEmpty) {
  Scheduler sched(2);
  ParallelSet s(sched);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.keys().empty());
  EXPECT_FALSE(s.contains(0));
}

TEST(ParallelSet, InitialContents) {
  Scheduler sched(2);
  std::vector<std::int64_t> keys{5, 1, 3, 5, 1};  // dups collapse
  ParallelSet s(sched, keys);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.keys(), (std::vector<std::int64_t>{1, 3, 5}));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(2));
}

TEST(ParallelSet, InsertBatchUnions) {
  Scheduler sched(2);
  ParallelSet s(sched, std::vector<std::int64_t>{1, 2, 3});
  s.insert_batch(std::vector<std::int64_t>{3, 4, 5});
  EXPECT_EQ(s.keys(), (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s.size(), 5u);
}

TEST(ParallelSet, EraseBatchSubtracts) {
  Scheduler sched(2);
  ParallelSet s(sched, std::vector<std::int64_t>{1, 2, 3, 4, 5});
  s.erase_batch(std::vector<std::int64_t>{2, 4, 9});
  EXPECT_EQ(s.keys(), (std::vector<std::int64_t>{1, 3, 5}));
}

TEST(ParallelSet, RetainBatchIntersects) {
  Scheduler sched(2);
  ParallelSet s(sched, std::vector<std::int64_t>{1, 2, 3, 4, 5});
  s.retain_batch(std::vector<std::int64_t>{2, 4, 6});
  EXPECT_EQ(s.keys(), (std::vector<std::int64_t>{2, 4}));
  s.retain_batch({});
  EXPECT_TRUE(s.empty());
}

TEST(ParallelSet, EmptyBatchesAreNoOps) {
  Scheduler sched(2);
  ParallelSet s(sched, std::vector<std::int64_t>{7});
  s.insert_batch({});
  s.erase_batch({});
  EXPECT_EQ(s.keys(), (std::vector<std::int64_t>{7}));
}

class ParallelSetSession : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSetSession, LongRandomSessionMatchesStdSet) {
  const unsigned threads = static_cast<unsigned>(GetParam());
  Scheduler sched(threads);
  Rng rng(1000 + threads);
  ParallelSet s(sched);
  std::set<std::int64_t> ref;
  for (int round = 0; round < 30; ++round) {
    const auto op = rng.below(3);
    const auto batch = draw(rng, 1 + rng.below(400));
    if (op == 0) {
      s.insert_batch(batch);
      ref.insert(batch.begin(), batch.end());
    } else if (op == 1) {
      s.erase_batch(batch);
      for (auto k : batch) ref.erase(k);
    } else {
      // retain: keep only batch ∩ ref — use a superset of ref occasionally
      // to avoid draining the set too fast.
      std::vector<std::int64_t> keep = batch;
      keep.insert(keep.end(), ref.begin(), ref.end());
      if (rng.coin()) keep.resize(keep.size() / 2);
      s.retain_batch(keep);
      std::set<std::int64_t> keep_set(keep.begin(), keep.end());
      std::set<std::int64_t> next;
      for (auto k : ref)
        if (keep_set.count(k)) next.insert(k);
      ref = std::move(next);
    }
    ASSERT_EQ(s.size(), ref.size()) << "round " << round;
    ASSERT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelSetSession,
                         ::testing::Values(1, 2, 4));

TEST(ParallelSet, HeightStaysLogarithmic) {
  Scheduler sched(2);
  Rng rng(9);
  ParallelSet s(sched);
  for (int i = 0; i < 8; ++i) s.insert_batch(draw(rng, 2000, 1 << 26));
  EXPECT_GT(s.size(), 10000u);
  EXPECT_LT(s.height(), 6 * 15);  // ~ c lg n, reject linear height
}

TEST(ParallelSet, LargeBatches) {
  Scheduler sched(4);
  Rng rng(11);
  const auto a = draw(rng, 50000, 1 << 26);
  const auto b = draw(rng, 50000, 1 << 26);
  ParallelSet s(sched, a);
  s.insert_batch(b);
  std::set<std::int64_t> ref(a.begin(), a.end());
  ref.insert(b.begin(), b.end());
  EXPECT_EQ(s.size(), ref.size());
  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// ---- pipelined batch contract ----------------------------------------------

TEST(ParallelSetPipeline, StatsCountBatchesAndPending) {
  Scheduler sched(2);
  Rng rng(21);
  ParallelSet s(sched);
  for (int i = 0; i < 6; ++i) s.insert_batch(draw(rng, 3000));
  ParallelSet::Stats st = s.stats();
  EXPECT_EQ(st.batches, 6u);
  EXPECT_EQ(st.max_pending, 6u);  // no flush between batches
  EXPECT_EQ(st.flushes, 0u);
  s.flush();
  st = s.stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.max_pending, 6u);  // high-water mark survives the flush
  // After quiescence, size() is served from the cache: no extra flush.
  (void)s.size();
  EXPECT_EQ(s.stats().flushes, 1u);
}

TEST(ParallelSetPipeline, BackToBackBatchesOverlap) {
  // Each union below processes 20k keys; the next insert_batch is issued
  // microseconds later, long before that union materializes its root — so
  // the overlap counter must fire.
  Scheduler sched(2);
  Rng rng(22);
  ParallelSet s(sched);
  for (int i = 0; i < 10; ++i) s.insert_batch(draw(rng, 20000, 1 << 26));
  EXPECT_GT(s.stats().overlapped, 0u);
  s.flush();
  EXPECT_GT(s.size(), 0u);
}

TEST(ParallelSetPipeline, CompactStartsFreshEpoch) {
  Scheduler sched(2);
  Rng rng(23);
  ParallelSet s(sched);
  std::set<std::int64_t> ref;
  for (int i = 0; i < 8; ++i) {
    const auto ins = draw(rng, 4000);
    s.insert_batch(ins);
    ref.insert(ins.begin(), ins.end());
    const auto del = draw(rng, 2000);
    s.erase_batch(del);
    for (auto k : del) ref.erase(k);
  }
  const ParallelSet::Stats before = s.stats();
  s.compact();
  const ParallelSet::Stats after = s.stats();
  EXPECT_EQ(after.epochs, before.epochs + 1);
  // The fresh store holds one clean build; the old one held 16 batches of
  // superseded nodes on a monotonic arena.
  EXPECT_LT(after.arena_bytes, before.arena_bytes);
  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
  // The set keeps working across the epoch swap.
  const auto more = draw(rng, 1000);
  s.insert_batch(more);
  ref.insert(more.begin(), more.end());
  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// ---- concurrent readers vs pipelined writers (tsan-covered) ----------------

TEST(ParallelSetConcurrent, ReadersRacePipelinedWriters) {
  Scheduler sched(2);
  Rng rng(31);
  const auto initial = draw(rng, 2000);
  ParallelSet s(sched, initial);
  std::set<std::int64_t> ref(initial.begin(), initial.end());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sink{0};  // keeps the reader loops un-elidable
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&s, &stop, &sink, r] {
      Rng mine(100 + r);
      std::size_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        acc += s.contains(mine.range(0, 1 << 20)) ? 1 : 0;
        if (mine.below(64) == 0) acc += s.keys().size();
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }

  for (int round = 0; round < 12; ++round) {
    const auto batch = draw(rng, 1 + rng.below(2000));
    if (rng.coin()) {
      s.insert_batch(batch);
      ref.insert(batch.begin(), batch.end());
    } else {
      s.erase_batch(batch);
      for (auto k : batch) ref.erase(k);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  s.flush();
  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

TEST(ParallelSetConcurrent, ReadersRaceChunkedCompaction) {
  // compact() rebuilds the set into fresh chunked-leaf storage and frees the
  // old store once no reader pins it (docs/service.md). Point reads and
  // whole-tree walks race repeated compactions here — under tsan this pins
  // the epoch publish against every read's pin.
  Scheduler sched(2);
  Rng rng(37);
  const auto initial = draw(rng, 3000);
  ParallelSet s(sched, initial);
  std::set<std::int64_t> ref(initial.begin(), initial.end());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sink{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&s, &stop, &sink, r] {
      Rng mine(200 + r);
      std::size_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        acc += s.contains(mine.range(0, 1 << 20)) ? 1 : 0;
        if (mine.below(32) == 0) acc += s.keys().size();
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }

  for (int round = 0; round < 8; ++round) {
    const auto ins = draw(rng, 1 + rng.below(1500));
    s.insert_batch(ins);
    ref.insert(ins.begin(), ins.end());
    const auto del = draw(rng, 1 + rng.below(700));
    s.erase_batch(del);
    for (auto k : del) ref.erase(k);
    s.compact();  // rebuild into chunked leaves while readers are live
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  s.flush();
  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// ---- snapshots -------------------------------------------------------------

TEST(ParallelSetSnapshot, PinsContentsAcrossBatchesAndCompaction) {
  Scheduler sched(2);
  Rng rng(41);
  const auto initial = draw(rng, 3000);
  ParallelSet s(sched, initial);
  const std::set<std::int64_t> pinned_ref(initial.begin(), initial.end());
  const std::vector<std::int64_t> pinned(pinned_ref.begin(),
                                         pinned_ref.end());

  // Take the snapshot while a fresh batch is still materializing: the
  // snapshot pins the keys as of its own epoch, not the in-flight union.
  SetSnapshot snap = s.snapshot();
  EXPECT_EQ(snap.size(), pinned.size());
  EXPECT_EQ(snap.keys(), pinned);

  std::set<std::int64_t> ref = pinned_ref;
  for (int round = 0; round < 4; ++round) {
    const auto ins = draw(rng, 2000);
    s.insert_batch(ins);
    ref.insert(ins.begin(), ins.end());
    const auto del = draw(rng, 1000);
    s.erase_batch(del);
    for (auto k : del) ref.erase(k);
    s.compact();  // retires the snapshot's store epoch from the facade
  }
  s.flush();

  // The pinned snapshot still answers from its own epoch.
  EXPECT_EQ(snap.size(), pinned.size());
  EXPECT_EQ(snap.keys(), pinned);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t k = rng.range(0, 1 << 20);
    EXPECT_EQ(snap.contains(k), pinned_ref.count(k) != 0) << "key " << k;
  }

  // A fresh snapshot sees the post-compaction state.
  EXPECT_EQ(s.snapshot().keys(),
            std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// ---- path-bounded serial cutoff --------------------------------------------
// A batch of at most serial_threshold() keys is applied by one plain
// recursion along its search paths (docs/runtime.md, "Granularity
// control"): against a flushed set, one fiber carries the whole batch.

TEST(ParallelSetPathCutoff, SmallBatchesResumeAtMostEightFibers) {
  Scheduler sched(2);
  Rng rng(67);
  std::vector<std::int64_t> base;
  for (std::int64_t k = 0; k < (1 << 16); ++k) base.push_back(2 * k);
  ParallelSet s(sched, base);
  std::set<std::int64_t> ref(base.begin(), base.end());
  s.flush();

  const auto batch = draw(rng, 16, 1 << 17);  // about half already present
  const std::uint64_t before_insert = sched.stats().resumed;
  s.insert_batch(batch);
  s.flush();
  const std::uint64_t after_insert = sched.stats().resumed;
  EXPECT_LE(after_insert - before_insert, 8u);
  ref.insert(batch.begin(), batch.end());

  const auto gone = draw(rng, 16, 1 << 17);
  s.erase_batch(gone);
  s.flush();
  EXPECT_LE(sched.stats().resumed - after_insert, 8u);
  for (auto k : gone) ref.erase(k);

  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// Small batches chained without flushing behind larger ones that are still
// materializing: the serial path bodies meet unwritten cells and fork the
// pipelined bodies there while a reader races them (tsan-covered).
TEST(ParallelSetConcurrent, SmallBatchesChainOverUnwrittenCells) {
  Scheduler sched(2);
  Rng rng(71);
  constexpr std::int64_t kUniverse = 1 << 16;
  ParallelSet s(sched);
  std::set<std::int64_t> ref;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sink{0};  // keeps the reader loop un-elidable
  std::thread reader([&s, &stop, &sink] {
    Rng mine(401);
    std::size_t acc = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      acc += s.contains(mine.range(0, kUniverse)) ? 1 : 0;
      acc += s.snapshot().contains(mine.range(0, kUniverse)) ? 1 : 0;
    }
    sink.fetch_add(acc, std::memory_order_relaxed);
  });

  for (int i = 0; i < 512; ++i) {
    if (i % 64 == 0) {
      // A large batch takes the pipelined path and leaves cells unwritten
      // for the small batches chained right behind it.
      const auto big = draw(rng, 2048, kUniverse);
      s.insert_batch(big);
      ref.insert(big.begin(), big.end());
    }
    const auto batch = draw(rng, 16, kUniverse);
    if (rng.coin()) {
      s.insert_batch(batch);
      ref.insert(batch.begin(), batch.end());
    } else {
      s.erase_batch(batch);
      for (auto k : batch) ref.erase(k);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(s.stats().overlapped, 0u);

  s.flush();
  EXPECT_EQ(s.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// ---- sharded vs unsharded equivalence --------------------------------------

class ShardedSetSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardedSetSweep, MatchesUnshardedAndStdSet) {
  const unsigned shards = static_cast<unsigned>(GetParam());
  Scheduler sched(2);
  Rng rng(500 + shards);
  ShardedParallelSet sh(sched, shards);
  ParallelSet flat(sched);
  std::set<std::int64_t> ref;
  EXPECT_EQ(sh.shard_count(), shards);

  auto draw_signed = [&rng](std::size_t n) {
    // Negative keys exercise the shard-boundary sign-bit mapping.
    std::vector<std::int64_t> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(rng.range(-(1 << 20), 1 << 20));
    return out;
  };

  for (int round = 0; round < 20; ++round) {
    const auto op = rng.below(3);
    const auto batch = draw_signed(1 + rng.below(400));
    if (op == 0) {
      sh.insert_batch(batch);
      flat.insert_batch(batch);
      ref.insert(batch.begin(), batch.end());
    } else if (op == 1) {
      sh.erase_batch(batch);
      flat.erase_batch(batch);
      for (auto k : batch) ref.erase(k);
    } else {
      std::vector<std::int64_t> keep = batch;
      keep.insert(keep.end(), ref.begin(), ref.end());
      if (rng.coin()) keep.resize(keep.size() / 2);
      sh.retain_batch(keep);
      flat.retain_batch(keep);
      const std::set<std::int64_t> keep_set(keep.begin(), keep.end());
      std::set<std::int64_t> next;
      for (auto k : ref)
        if (keep_set.count(k)) next.insert(k);
      ref = std::move(next);
    }
    ASSERT_EQ(sh.size(), ref.size()) << "round " << round;
    ASSERT_EQ(sh.keys(), flat.keys()) << "round " << round;
    ASSERT_EQ(sh.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()))
        << "round " << round;
  }

  // Point reads route through the boundary binary search.
  for (int i = 0; i < 200; ++i) {
    const std::int64_t k = rng.range(-(1 << 20), 1 << 20);
    ASSERT_EQ(sh.contains(k), ref.count(k) != 0);
  }

  // Compacting every shard preserves contents and bumps per-shard epochs.
  sh.compact();
  EXPECT_EQ(sh.stats().epochs, shards);
  EXPECT_EQ(sh.keys(), std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// Pins the routing behavior at the extremes of the key space: INT64_MIN and
// INT64_MAX must route to the first/last shard (the initial equal-width
// partition maps int64 to uint64 by flipping the sign bit, and the S=1
// partition has no boundaries at all), and every published split point must
// keep the boundary key itself in the right-hand shard.
TEST_P(ShardedSetSweep, ExtremeAndBoundaryKeysRouteCorrectly) {
  const unsigned shards = static_cast<unsigned>(GetParam());
  Scheduler sched(2);
  ShardedParallelSet sh(sched, shards);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  const std::vector<std::int64_t> lowers = sh.boundaries();
  EXPECT_EQ(lowers.size(), shards - 1u);
  std::vector<std::int64_t> edges{kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (const std::int64_t b : lowers) {
    edges.push_back(b - 1);  // last key of the left shard
    edges.push_back(b);      // first key of the right shard
    edges.push_back(b + 1);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  sh.insert_batch(edges);
  EXPECT_EQ(sh.keys(), edges);
  EXPECT_EQ(sh.size(), edges.size());
  for (const std::int64_t k : edges) EXPECT_TRUE(sh.contains(k));
  EXPECT_FALSE(sh.contains(2));
  EXPECT_FALSE(sh.contains(kMin + 2));

  // Per-shard sizes must agree with the boundary contract: shard i owns
  // [lowers[i-1], lowers[i]).
  std::size_t across = 0;
  for (unsigned i = 0; i < shards; ++i) {
    const std::int64_t lo = i == 0 ? kMin : lowers[i - 1];
    const bool last = i + 1 == shards;
    std::size_t expect = 0;
    for (const std::int64_t k : edges)
      if (k >= lo && (last || k < lowers[i])) ++expect;
    across += expect;
  }
  EXPECT_EQ(across, edges.size());

  sh.erase_batch(std::vector<std::int64_t>{kMin, kMax});
  EXPECT_FALSE(sh.contains(kMin));
  EXPECT_FALSE(sh.contains(kMax));
  EXPECT_EQ(sh.size(), edges.size() - 2);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedSetSweep, ::testing::Values(1, 3, 8));

}  // namespace
}  // namespace pwf::rt
