// Tests for the key-value treap maps (rt_map.hpp) and the ParallelMap
// facade: merge semantics, operand ordering, batch aggregation against a
// std::map reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/future.hpp"
#include "runtime/parallel_map.hpp"
#include "runtime/rt_async.hpp"
#include "runtime/rt_map.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sharded_map.hpp"
#include "support/random.hpp"

namespace pwf::rt {
namespace {

using Item = std::pair<map::Key, std::int64_t>;

std::vector<Item> items_of(std::initializer_list<Item> xs) { return xs; }

TEST(RtMap, BuildAndLookup) {
  Scheduler sched(2);
  map::Store<std::int64_t> st;
  std::vector<Item> data{{1, 10}, {3, 30}, {5, 50}};
  auto* root = st.input(st.build(data));
  EXPECT_EQ(map::lookup(root, 3), 30);
  EXPECT_EQ(map::lookup(root, 4), std::nullopt);
  EXPECT_EQ(map::wait_items(root), data);
}

TEST(RtMap, UnionMergesSharedKeysWithSum) {
  Scheduler sched(2);
  map::Store<std::int64_t> st;
  std::vector<Item> a{{1, 10}, {2, 20}, {3, 30}};
  std::vector<Item> b{{2, 200}, {3, 300}, {4, 400}};
  auto* out = map::union_maps(
      st, st.input(st.build(a)), st.input(st.build(b)),
      [](std::int64_t x, std::int64_t y) { return x + y; });
  EXPECT_EQ(map::wait_items(out),
            items_of({{1, 10}, {2, 220}, {3, 330}, {4, 400}}));
}

TEST(RtMap, UnionMergeOperandOrderIsByMapNotPriority) {
  // "b wins" overwrite semantics must hold for every key, whichever root
  // had the higher priority.
  Scheduler sched(2);
  map::Store<std::int64_t> st;
  Rng rng(3);
  std::vector<Item> a, b;
  for (map::Key k = 0; k < 500; ++k) {
    if (rng.coin()) a.emplace_back(k, 1000 + k);
    if (rng.coin()) b.emplace_back(k, 2000 + k);
  }
  auto* out = map::union_maps(
      st, st.input(st.build(a)), st.input(st.build(b)),
      [](std::int64_t, std::int64_t bval) { return bval; });
  std::map<map::Key, std::int64_t> ref;
  for (const auto& [k, v] : a) ref[k] = v;
  for (const auto& [k, v] : b) ref[k] = v;  // b overwrites
  EXPECT_EQ(map::wait_items(out),
            std::vector<Item>(ref.begin(), ref.end()));
}

TEST(RtMap, DiffRemovesKeys) {
  Scheduler sched(2);
  map::Store<std::int64_t> st;
  std::vector<Item> a{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  std::vector<Item> b{{2, 0}, {4, 0}, {9, 0}};
  auto* out = map::diff_maps(st, st.input(st.build(a)),
                             st.input(st.build(b)));
  EXPECT_EQ(map::wait_items(out), items_of({{1, 10}, {3, 30}}));
}

TEST(ParallelMap, CounterAggregation) {
  Scheduler sched(2);
  ParallelMap<std::int64_t> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  m.insert_batch(items_of({{1, 1}, {2, 1}, {1, 1}}), add);  // in-batch dup
  EXPECT_EQ(m.get(1), 2);
  EXPECT_EQ(m.get(2), 1);
  m.insert_batch(items_of({{1, 5}, {3, 7}}), add);
  EXPECT_EQ(m.get(1), 7);
  EXPECT_EQ(m.get(3), 7);
  EXPECT_EQ(m.size(), 3u);
}

TEST(ParallelMap, AssignOverwrites) {
  Scheduler sched(2);
  ParallelMap<std::int64_t> m(sched);
  m.assign_batch(items_of({{1, 10}, {2, 20}}));
  m.assign_batch(items_of({{2, 99}, {3, 30}}));
  EXPECT_EQ(m.get(1), 10);
  EXPECT_EQ(m.get(2), 99);
  EXPECT_EQ(m.get(3), 30);
}

TEST(ParallelMap, EraseBatch) {
  Scheduler sched(2);
  ParallelMap<std::int64_t> m(sched);
  m.assign_batch(items_of({{1, 1}, {2, 2}, {3, 3}}));
  std::vector<map::Key> gone{2, 7};
  m.erase_batch(gone);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.contains(2));
  EXPECT_TRUE(m.contains(3));
}

class ParallelMapSession : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMapSession, RandomSessionMatchesStdMap) {
  const unsigned threads = static_cast<unsigned>(GetParam());
  Scheduler sched(threads);
  Rng rng(77 + threads);
  ParallelMap<std::int64_t> m(sched);
  std::map<map::Key, std::int64_t> ref;
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  for (int round = 0; round < 25; ++round) {
    if (rng.below(4) != 0) {
      std::vector<Item> batch;
      const std::size_t sz = 1 + rng.below(300);
      for (std::size_t i = 0; i < sz; ++i)
        batch.emplace_back(rng.range(0, 2000),
                           static_cast<std::int64_t>(rng.below(100)));
      m.insert_batch(batch, add);
      for (const auto& [k, v] : batch) ref[k] += v;
    } else {
      std::vector<map::Key> keys;
      const std::size_t sz = 1 + rng.below(200);
      for (std::size_t i = 0; i < sz; ++i) keys.push_back(rng.range(0, 2000));
      m.erase_batch(keys);
      for (map::Key k : keys) ref.erase(k);
    }
    ASSERT_EQ(m.size(), ref.size()) << "round " << round;
    ASSERT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelMapSession,
                         ::testing::Values(1, 2, 4));

TEST(ParallelMap, LargeShardAggregation) {
  // Word-count style: several shards of (key, count), merged by sum.
  Scheduler sched(4);
  Rng rng(5);
  ParallelMap<std::int64_t> m(sched);
  std::map<map::Key, std::int64_t> ref;
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  for (int shard = 0; shard < 6; ++shard) {
    std::vector<Item> batch;
    for (int i = 0; i < 20000; ++i)
      batch.emplace_back(rng.range(0, 5000), 1);
    m.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
  }
  ASSERT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  // Total count preserved.
  std::int64_t total = 0;
  for (const auto& [k, v] : m.items()) total += v;
  EXPECT_EQ(total, 6 * 20000);
}

TEST(ParallelMapPipeline, StatsAndCompact) {
  Scheduler sched(2);
  Rng rng(41);
  ParallelMap<std::int64_t> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  std::map<map::Key, std::int64_t> ref;
  for (int round = 0; round < 5; ++round) {
    std::vector<Item> batch;
    for (int i = 0; i < 3000; ++i)
      batch.emplace_back(rng.range(0, 4000),
                         static_cast<std::int64_t>(rng.below(10)));
    m.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
  }
  ParallelMap<std::int64_t>::Stats st = m.stats();
  EXPECT_EQ(st.batches, 5u);
  EXPECT_EQ(st.max_pending, 5u);
  EXPECT_EQ(st.flushes, 0u);
  m.flush();
  EXPECT_EQ(m.stats().flushes, 1u);

  const auto before = m.stats();
  m.compact();
  const auto after = m.stats();
  EXPECT_EQ(after.epochs, before.epochs + 1);
  EXPECT_LT(after.arena_bytes, before.arena_bytes);
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
}

class ShardedMapSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardedMapSweep, MatchesUnshardedAndStdMap) {
  const unsigned shards = static_cast<unsigned>(GetParam());
  Scheduler sched(2);
  Rng rng(700 + shards);
  ShardedParallelMap<std::int64_t> sh(sched, shards);
  ParallelMap<std::int64_t> flat(sched);
  std::map<map::Key, std::int64_t> ref;
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  EXPECT_EQ(sh.shard_count(), shards);

  for (int round = 0; round < 15; ++round) {
    if (rng.below(4) != 0) {
      std::vector<Item> batch;
      const std::size_t sz = 1 + rng.below(300);
      for (std::size_t i = 0; i < sz; ++i)
        batch.emplace_back(rng.range(-2000, 2000),  // negative keys too
                           static_cast<std::int64_t>(rng.below(100)));
      sh.insert_batch(batch, add);
      flat.insert_batch(batch, add);
      for (const auto& [k, v] : batch) ref[k] += v;
    } else {
      std::vector<map::Key> keys;
      const std::size_t sz = 1 + rng.below(200);
      for (std::size_t i = 0; i < sz; ++i) keys.push_back(rng.range(-2000, 2000));
      sh.erase_batch(keys);
      flat.erase_batch(keys);
      for (map::Key k : keys) ref.erase(k);
    }
    ASSERT_EQ(sh.size(), ref.size()) << "round " << round;
    ASSERT_EQ(sh.items(), flat.items()) << "round " << round;
    ASSERT_EQ(sh.items(), std::vector<Item>(ref.begin(), ref.end()))
        << "round " << round;
  }

  for (int i = 0; i < 200; ++i) {
    const map::Key k = rng.range(-2000, 2000);
    const auto it = ref.find(k);
    ASSERT_EQ(sh.get(k),
              it == ref.end() ? std::nullopt
                              : std::optional<std::int64_t>(it->second));
  }

  sh.compact();
  EXPECT_EQ(sh.stats().epochs, shards);
  EXPECT_EQ(sh.items(), std::vector<Item>(ref.begin(), ref.end()));
}

// Routing at the extremes of the key space (see the set-facade twin): the
// sign-bit partition must keep INT64_MIN/INT64_MAX in the first/last shard,
// boundary keys in the right-hand shard, and S=1 must accept everything.
TEST_P(ShardedMapSweep, ExtremeAndBoundaryKeysRouteCorrectly) {
  const unsigned shards = static_cast<unsigned>(GetParam());
  Scheduler sched(2);
  ShardedParallelMap<std::int64_t> sh(sched, shards);
  constexpr map::Key kMin = std::numeric_limits<map::Key>::min();
  constexpr map::Key kMax = std::numeric_limits<map::Key>::max();
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };

  const std::vector<map::Key> lowers = sh.boundaries();
  EXPECT_EQ(lowers.size(), shards - 1u);
  std::vector<map::Key> edges{kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (const map::Key b : lowers) {
    edges.push_back(b - 1);
    edges.push_back(b);
    edges.push_back(b + 1);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<Item> batch;
  for (const map::Key k : edges) batch.emplace_back(k, k < 0 ? -7 : 7);
  sh.insert_batch(batch, add);
  EXPECT_EQ(sh.size(), edges.size());
  for (const map::Key k : edges)
    ASSERT_EQ(sh.get(k), std::optional<std::int64_t>(k < 0 ? -7 : 7)) << k;
  EXPECT_EQ(sh.get(2), std::nullopt);

  // Merging a second batch at the extremes must hit the stored entries, not
  // insert fresh ones in a mis-routed shard.
  const std::vector<Item> extremes{{kMin, -7}, {kMax, 7}};
  sh.insert_batch(extremes, add);
  EXPECT_EQ(sh.get(kMin), std::optional<std::int64_t>(-14));
  EXPECT_EQ(sh.get(kMax), std::optional<std::int64_t>(14));
  EXPECT_EQ(sh.size(), edges.size());

  sh.erase_batch(std::vector<map::Key>{kMin, kMax});
  EXPECT_EQ(sh.get(kMin), std::nullopt);
  EXPECT_EQ(sh.get(kMax), std::nullopt);
  EXPECT_EQ(sh.size(), edges.size() - 2);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedMapSweep, ::testing::Values(1, 4));

// ---- augmented maps: O(lg n) range aggregates -------------------------------

using SumAug = pipelined::treap::SumAug<std::int64_t>;

std::int64_t fold_range(const std::map<map::Key, std::int64_t>& ref,
                        map::Key lo, map::Key hi) {
  std::int64_t s = 0;
  for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi; ++it)
    s += it->second;
  return s;
}

TEST(ParallelMapAug, RangeAggregateMatchesFold) {
  Scheduler sched(2);
  Rng rng(53);
  ParallelMap<std::int64_t, SumAug> m(sched);
  ShardedParallelMap<std::int64_t, SumAug> sh(sched, 4);
  std::map<map::Key, std::int64_t> ref;
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  for (int round = 0; round < 6; ++round) {
    std::vector<Item> batch;
    const std::size_t sz = 1 + rng.below(2000);
    for (std::size_t i = 0; i < sz; ++i)
      batch.emplace_back(rng.range(-3000, 3000),
                         static_cast<std::int64_t>(rng.below(100)));
    m.insert_batch(batch, add);
    sh.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
    // Aggregates force only their O(lg n) search paths, so they pipeline
    // with the still-materializing batches (no flush here).
    for (int probe = 0; probe < 20; ++probe) {
      map::Key lo = rng.range(-3500, 3500), hi = rng.range(-3500, 3500);
      if (lo > hi) std::swap(lo, hi);
      ASSERT_EQ(m.aggregate(lo, hi), fold_range(ref, lo, hi))
          << "round " << round << " [" << lo << ", " << hi << "]";
      ASSERT_EQ(sh.aggregate(lo, hi), fold_range(ref, lo, hi))
          << "sharded, round " << round << " [" << lo << ", " << hi << "]";
    }
  }
  // Aggregation survives erase_batch and the compaction rebuild.
  std::vector<map::Key> gone;
  for (int i = 0; i < 800; ++i) gone.push_back(rng.range(-3000, 3000));
  m.erase_batch(gone);
  sh.erase_batch(gone);
  for (map::Key k : gone) ref.erase(k);
  m.compact();
  sh.compact();
  for (int probe = 0; probe < 20; ++probe) {
    map::Key lo = rng.range(-3500, 3500), hi = rng.range(-3500, 3500);
    if (lo > hi) std::swap(lo, hi);
    ASSERT_EQ(m.aggregate(lo, hi), fold_range(ref, lo, hi));
    ASSERT_EQ(sh.aggregate(lo, hi), fold_range(ref, lo, hi));
  }
}

// ---- snapshots: epoch-pinned lock-free views --------------------------------

TEST(ParallelMapSnapshot, PinsContentsAcrossBatchesAndCompaction) {
  Scheduler sched(2);
  Rng rng(59);
  ParallelMap<std::int64_t, SumAug> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  std::map<map::Key, std::int64_t> ref;
  std::vector<Item> batch;
  for (int i = 0; i < 4000; ++i)
    batch.emplace_back(rng.range(0, 5000),
                       static_cast<std::int64_t>(rng.below(100)));
  m.insert_batch(batch, add);
  for (const auto& [k, v] : batch) ref[k] += v;

  // Taken while the batch may still be materializing: readers pipeline.
  MapSnapshot<std::int64_t, SumAug> snap = m.snapshot();
  const std::vector<Item> pinned(ref.begin(), ref.end());
  EXPECT_EQ(snap.items(), pinned);

  // Later batches and a full storage-epoch swap must not move the snapshot.
  std::vector<Item> more;
  for (int i = 0; i < 3000; ++i)
    more.emplace_back(rng.range(0, 5000),
                      static_cast<std::int64_t>(rng.below(100)));
  m.insert_batch(more, add);
  m.compact();  // retires the snapshot's epoch from the map's side
  m.erase_batch(std::vector<map::Key>{pinned.front().first});
  m.flush();

  EXPECT_EQ(snap.items(), pinned);
  EXPECT_EQ(snap.size(), pinned.size());
  EXPECT_EQ(snap.get(pinned.front().first), pinned.front().second);
  EXPECT_FALSE(snap.contains(6001));
  EXPECT_EQ(snap.aggregate(0, 5000), fold_range(ref, 0, 5000));
  // A fresh snapshot sees the post-compaction state.
  for (const auto& [k, v] : more) ref[k] += v;
  ref.erase(pinned.front().first);
  EXPECT_EQ(m.snapshot().items(),
            std::vector<Item>(ref.begin(), ref.end()));
}

// The ISSUE's tsan pin: readers aggregate over pinned snapshots while the
// mutator runs write + compact rounds. A snapshot's contents are immutable,
// so two aggregates of the same snapshot must agree no matter how many
// epochs retired in between; the pinned arena stays alive (and race-free)
// until the last snapshot drops.
TEST(ParallelMapConcurrent, SnapshotReadersRaceWritersAndCompaction) {
  Scheduler sched(2);
  Rng rng(61);
  ParallelMap<std::int64_t, SumAug> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  std::map<map::Key, std::int64_t> ref;
  {
    std::vector<Item> init;
    for (int i = 0; i < 3000; ++i)
      init.emplace_back(rng.range(0, 1 << 20),
                        static_cast<std::int64_t>(rng.below(100)));
    m.insert_batch(init, add);
    for (const auto& [k, v] : init) ref[k] += v;
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> moved{false};     // set if a pinned snapshot ever changes
  std::atomic<std::int64_t> sink{0};  // keeps the reader loops un-elidable
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&m, &stop, &moved, &sink, r] {
      Rng mine(300 + r);
      std::int64_t acc = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        MapSnapshot<std::int64_t, SumAug> snap = m.snapshot();
        map::Key lo = mine.range(0, 1 << 20), hi = mine.range(0, 1 << 20);
        if (lo > hi) std::swap(lo, hi);
        const std::int64_t first = snap.aggregate(lo, hi);
        acc += first;
        acc += snap.contains(mine.range(0, 1 << 20)) ? 1 : 0;
        // Immutability: the same pinned snapshot re-aggregated later (after
        // any number of epochs retired under it) answers identically.
        if (mine.below(8) == 0 && snap.aggregate(lo, hi) != first)
          moved.store(true, std::memory_order_relaxed);
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }

  for (int round = 0; round < 8; ++round) {
    std::vector<Item> batch;
    const std::size_t sz = 1 + rng.below(1500);
    for (std::size_t i = 0; i < sz; ++i)
      batch.emplace_back(rng.range(0, 1 << 20),
                         static_cast<std::int64_t>(rng.below(100)));
    m.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
    std::vector<map::Key> gone;
    for (std::size_t i = 0; i < 1 + rng.below(500); ++i)
      gone.push_back(rng.range(0, 1 << 20));
    m.erase_batch(gone);
    for (map::Key k : gone) ref.erase(k);
    m.compact();  // epoch swap while snapshot readers are live
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(sink.load(std::memory_order_relaxed), 0) << "snapshot moved";

  m.flush();
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.aggregate(0, 1 << 20),
            fold_range(ref, 0, 1 << 20));
}

// cache_economy() walks the tree that a concurrent compact() replaces, and
// reads the arena counters of the store that tree lives in: it must take
// both from one epoch pin, not from the live fields compact() swaps under
// its lock (the tsan preset runs this).
TEST(ParallelMapConcurrent, CacheEconomyRacesCompaction) {
  constexpr map::Key kUniverse = 4096;
  Scheduler sched(2);
  Rng rng(71);
  ParallelMap<std::int64_t> m(sched);
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};  // a walk saw more keys than exist
  std::thread reader([&m, &stop, &bad] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto ce = m.cache_economy();
      // Every internal node and every chunk entry holds one distinct key.
      if (ce.internal_nodes + ce.leaf_keys > kUniverse)
        bad.store(true, std::memory_order_relaxed);
    }
  });
  std::map<map::Key, std::int64_t> ref;
  for (int round = 0; round < 24; ++round) {
    std::vector<Item> batch;
    for (int i = 0; i < 256; ++i)
      batch.emplace_back(rng.range(0, kUniverse - 1), round);
    m.assign_batch(batch);
    for (const auto& [k, v] : batch) ref[k] = v;
    m.compact();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_FALSE(bad.load(std::memory_order_relaxed));
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.cache_economy().arena_bytes, m.stats().arena_bytes);
}

// ---- path-bounded serial cutoff ----------------------------------------------
// A batch of at most serial_threshold() keys is applied to the index by one
// plain recursion along its search paths (docs/runtime.md, "Granularity
// control"), not by forking splitm and two unions at every level: against a
// flushed index, one fiber carries the whole batch.

TEST(ParallelMapPathCutoff, SmallBatchesResumeAtMostEightFibers) {
  Scheduler sched(2);
  Rng rng(67);
  ParallelMap<std::int64_t, SumAug> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  std::map<map::Key, std::int64_t> ref;
  std::vector<Item> base;
  for (map::Key k = 0; k < (1 << 16); ++k) base.emplace_back(2 * k, k % 97);
  m.insert_batch(base, add);
  ref.insert(base.begin(), base.end());
  m.flush();

  std::vector<Item> batch;  // half hit existing keys, half are new
  for (int i = 0; i < 16; ++i)
    batch.emplace_back(rng.range(0, 1 << 17),
                       static_cast<std::int64_t>(rng.below(100)));
  const std::uint64_t before_insert = sched.stats().resumed;
  m.insert_batch(batch, add);
  m.flush();
  const std::uint64_t after_insert = sched.stats().resumed;
  EXPECT_LE(after_insert - before_insert, 8u);
  for (const auto& [k, v] : batch) ref[k] += v;

  std::vector<map::Key> gone;
  for (int i = 0; i < 16; ++i) gone.push_back(rng.range(0, 1 << 17));
  m.erase_batch(gone);
  m.flush();
  EXPECT_LE(sched.stats().resumed - after_insert, 8u);
  for (map::Key k : gone) ref.erase(k);

  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  for (int probe = 0; probe < 50; ++probe) {
    map::Key lo = rng.range(-10, (1 << 17) + 10);
    map::Key hi = rng.range(-10, (1 << 17) + 10);
    if (lo > hi) std::swap(lo, hi);
    ASSERT_EQ(m.aggregate(lo, hi), fold_range(ref, lo, hi))
        << "[" << lo << ", " << hi << "]";
  }
}

// The path bodies count their work in the scheduler stats as the pipelined
// bodies do: a small batch applied to a flushed index merges into at least
// one leaf chunk and combines at least one rebuilt node's aggregate inline.
TEST(ParallelMapPathCutoff, SmallBatchesCountLeafAndAugOps) {
  Scheduler sched(2);
  Rng rng(73);
  ParallelMap<std::int64_t, SumAug> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  std::map<map::Key, std::int64_t> ref;
  std::vector<Item> base;
  for (map::Key k = 0; k < (1 << 16); ++k) base.emplace_back(2 * k, k % 97);
  m.insert_batch(base, add);
  ref.insert(base.begin(), base.end());
  m.flush();

  for (int round = 0; round < 4; ++round) {
    std::vector<Item> batch;  // half hit existing keys, half are new
    for (int i = 0; i < 16; ++i)
      batch.emplace_back(rng.range(0, 1 << 17),
                         static_cast<std::int64_t>(rng.below(100)));
    const Scheduler::Stats before_insert = sched.stats();
    m.insert_batch(batch, add);
    m.flush();
    const Scheduler::Stats after_insert = sched.stats();
    EXPECT_GE(after_insert.leaf_ops - before_insert.leaf_ops, 1u) << round;
    EXPECT_GE(after_insert.aug_ops - before_insert.aug_ops, 1u) << round;
    for (const auto& [k, v] : batch) ref[k] += v;

    std::vector<map::Key> gone;
    for (int i = 0; i < 16; ++i) gone.push_back(rng.range(0, 1 << 17));
    m.erase_batch(gone);
    m.flush();
    const Scheduler::Stats after_erase = sched.stats();
    EXPECT_GE(after_erase.leaf_ops - after_insert.leaf_ops, 1u) << round;
    EXPECT_GE(after_erase.aug_ops - after_insert.aug_ops, 1u) << round;
    for (map::Key k : gone) ref.erase(k);
  }
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.aggregate(0, 1 << 17), fold_range(ref, 0, 1 << 17));
}

// Small batches chained without flushing behind larger ones that are still
// materializing: the serial path bodies meet unwritten structure and
// aggregate cells and fork the pipelined bodies there, while a reader races
// them with point reads, snapshot aggregates and async probes (tsan-covered).
TEST(ParallelMapConcurrent, SmallBatchesChainOverUnwrittenCells) {
  // Probe result cells outlive the scheduler: a worker may still be inside
  // a cell's write when the reader's wait_blocking returns.
  std::deque<FutCell<rtasync::Probe<std::int64_t>>> probes;
  Scheduler sched(2);
  Rng rng(71);
  ParallelMap<std::int64_t, SumAug> m(sched);
  auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  constexpr map::Key kUniverse = 1 << 16;
  std::map<map::Key, std::int64_t> ref;
  const auto draw_items = [&](std::size_t n) {
    std::vector<Item> out;
    for (std::size_t i = 0; i < n; ++i)
      out.emplace_back(rng.range(0, kUniverse),
                       static_cast<std::int64_t>(rng.below(100)));
    return out;
  };

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> sink{0};  // keeps the reader loop un-elidable
  std::thread reader([&m, &stop, &sink, &probes] {
    Rng mine(401);
    std::int64_t acc = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const map::Key k = mine.range(0, kUniverse);
      acc += m.get(k).value_or(0);
      map::Key lo = mine.range(0, kUniverse), hi = mine.range(0, kUniverse);
      if (lo > hi) std::swap(lo, hi);
      acc += m.snapshot().aggregate(lo, hi);
      FutCell<rtasync::Probe<std::int64_t>>& cell = probes.emplace_back();
      m.probe_into(k, cell);
      acc += cell.wait_blocking().found ? 1 : 0;
    }
    sink.fetch_add(acc, std::memory_order_relaxed);
  });

  for (int i = 0; i < 512; ++i) {
    if (i % 64 == 0) {
      // A large batch takes the pipelined path and leaves cells unwritten
      // for the small batches chained right behind it.
      const std::vector<Item> big = draw_items(2048);
      m.insert_batch(big, add);
      for (const auto& [k, v] : big) ref[k] += v;
    }
    if (rng.coin()) {
      const std::vector<Item> batch = draw_items(16);
      m.insert_batch(batch, add);
      for (const auto& [k, v] : batch) ref[k] += v;
    } else {
      std::vector<map::Key> gone;
      for (int j = 0; j < 16; ++j) gone.push_back(rng.range(0, kUniverse));
      m.erase_batch(gone);
      for (map::Key k : gone) ref.erase(k);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GE(sink.load(std::memory_order_relaxed), 0);
  EXPECT_GT(m.stats().overlapped, 0u);

  m.flush();
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.aggregate(0, kUniverse), fold_range(ref, 0, kUniverse));
}

// ---- duplicate keys within a batch ------------------------------------------
// A batch's equal keys pre-merge in input order, so assign_batch keeps the
// last occurrence of each key (the pre-merge must not reorder equal keys).

// Batches of 34–432 items over random keys, each key appearing twice: first
// with value 1, later with value 2.
std::vector<std::vector<Item>> duplicate_batches(Rng& rng, int n) {
  std::vector<std::vector<Item>> out;
  for (int b = 0; b < n; ++b) {
    const std::size_t keys = 17 + rng.below(200);
    std::vector<map::Key> slots;
    for (std::size_t i = 0; i < keys; ++i) {
      const map::Key k = rng.range(-(1 << 20), 1 << 20);
      slots.push_back(k);
      slots.push_back(k);
    }
    std::shuffle(slots.begin(), slots.end(), rng);
    std::map<map::Key, int> seen;
    std::vector<Item> batch;
    for (map::Key k : slots) batch.emplace_back(k, ++seen[k] == 1 ? 1 : 2);
    out.push_back(std::move(batch));
  }
  return out;
}

template <typename M>
void expect_last_duplicate_wins(M& m) {
  Rng rng(83);
  std::map<map::Key, std::int64_t> ref;
  for (const std::vector<Item>& batch : duplicate_batches(rng, 200)) {
    m.assign_batch(batch);
    for (const auto& [k, v] : batch) ref[k] = v;
  }
  m.flush();
  std::size_t wrong = 0;
  for (const auto& [k, v] : m.items()) wrong += v != ref[k] ? 1 : 0;
  EXPECT_EQ(wrong, 0u) << "keys left at an earlier duplicate's value";
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
}

TEST(ParallelMap, AssignBatchKeepsLastDuplicate) {
  Scheduler sched(2);
  ParallelMap<std::int64_t> m(sched);
  expect_last_duplicate_wins(m);
}

TEST(ShardedParallelMap, AssignBatchKeepsLastDuplicate) {
  Scheduler sched(2);
  ShardedParallelMap<std::int64_t> m(sched, 4);
  expect_last_duplicate_wins(m);
}

// The pre-merge's hash table places a key by the top bits of key * C
// (detail::sorted_items). Keys i * C^-1 for small i all land in one slot
// run, so the table exceeds its probe budget and the pre-merge takes the
// stable sort: the last duplicate must still win.
TEST(ParallelMap, AssignBatchKeepsLastDuplicateOfCollidingKeys) {
  constexpr std::uint64_t kC = 0x9E3779B97F4A7C15ull;
  std::uint64_t inv = kC;  // Newton's iteration for C^-1 mod 2^64
  for (int i = 0; i < 5; ++i) inv *= 2 - kC * inv;
  ASSERT_EQ(inv * kC, 1u);
  std::vector<Item> batch;
  for (std::int64_t value : {1, 2})
    for (std::uint64_t i = 1; i <= 2048; ++i)
      batch.emplace_back(static_cast<map::Key>(i * inv), value);
  Scheduler sched(2);
  ParallelMap<std::int64_t> m(sched);
  m.assign_batch(batch);
  std::map<map::Key, std::int64_t> ref;
  for (const auto& [k, v] : batch) ref[k] = v;
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
}

// ---- folded batches -----------------------------------------------------------
// A batch joins the queued group ahead of it while that group's fiber has not
// started and no read has pinned its root (docs/service.md). Each case holds
// the only worker of a Scheduler(1) with a spinning fiber, so every group
// stays queued until the release, then checks the result against a std::map.
// The first batch onto a flushed map starts a group whose fiber is posted at
// once; the batches behind it join that group while the fiber waits.

struct HoldFlags {
  std::atomic<bool> started{false}, release{false};
};

// The spinner shares its flags: it may still be reading them after the
// holder has returned.
Fiber spin_until(std::shared_ptr<HoldFlags> f) {
  f->started.store(true, std::memory_order_release);
  while (!f->release.load(std::memory_order_acquire)) std::this_thread::yield();
  co_return;
}

// Holds the scheduler's one worker for its lifetime; a watchdog releases
// it after 10 s, so a mutator call that wrongly waits on a cell fails the
// test instead of hanging it.
class HeldWorker {
 public:
  HeldWorker() : watchdog_([this] {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::seconds(10), [this] { return done_; });
    flags_->release.store(true, std::memory_order_release);
  }) {
    spawn(spin_until(flags_));
    while (!flags_->started.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  ~HeldWorker() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    watchdog_.join();
  }

 private:
  std::shared_ptr<HoldFlags> flags_ = std::make_shared<HoldFlags>();
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread watchdog_;
};

using SumMap = ParallelMap<std::int64_t, SumAug>;
const auto kAdd = [](std::int64_t x, std::int64_t y) { return x + y; };

// A flushed map over the even keys below 2^17, and its oracle.
void fill_base(SumMap& m, std::map<map::Key, std::int64_t>& ref) {
  std::vector<Item> base;
  for (map::Key k = 0; k < (1 << 16); ++k) base.emplace_back(2 * k, k % 97);
  m.insert_batch(base, kAdd);
  ref.insert(base.begin(), base.end());
  m.flush();
}

std::vector<Item> draw_batch(Rng& rng, std::size_t n) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i)
    out.emplace_back(rng.range(0, 1 << 17),
                     static_cast<std::int64_t>(rng.below(100)));
  return out;
}

TEST(ParallelMapFold, QueuedBatchesRunAsOneUnion) {
  Scheduler sched(1);
  SumMap m(sched);
  std::map<map::Key, std::int64_t> ref;
  fill_base(m, ref);
  Rng rng(89);
  const IndexStats before = m.stats();
  {
    HeldWorker held;
    for (int b = 0; b < 64; ++b) {
      const std::vector<Item> batch = draw_batch(rng, 16);
      m.insert_batch(batch, kAdd);
      for (const auto& [k, v] : batch) ref[k] += v;
    }
    const IndexStats queued = m.stats();  // reads no tree, closes nothing
    EXPECT_EQ(queued.batches - before.batches, 64u);
    EXPECT_EQ(queued.folded - before.folded, 63u);  // all 64: one union
  }
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.aggregate(0, 1 << 17), fold_range(ref, 0, 1 << 17));
  EXPECT_EQ(m.stats().folded - before.folded, 63u);
}

TEST(ParallelMapFold, SnapshotClosesTheGroup) {
  Scheduler sched(1);
  SumMap m(sched);
  std::map<map::Key, std::int64_t> ref;
  fill_base(m, ref);
  Rng rng(97);
  std::map<map::Key, std::int64_t> at10;
  std::optional<MapSnapshot<std::int64_t, SumAug>> snap;
  {
    HeldWorker held;
    for (int b = 1; b <= 64; ++b) {
      const std::vector<Item> batch = draw_batch(rng, 16);
      m.insert_batch(batch, kAdd);
      for (const auto& [k, v] : batch) ref[k] += v;
      if (b == 10) {
        snap = m.snapshot();
        at10 = ref;
      }
    }
    EXPECT_EQ(m.stats().folded, 62u);  // 9 before the snapshot, 53 after
  }
  EXPECT_EQ(snap->items(), std::vector<Item>(at10.begin(), at10.end()));
  EXPECT_EQ(snap->aggregate(0, 1 << 17), fold_range(at10, 0, 1 << 17));
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
}

TEST(ParallelMapFold, AssignedKeyEndsWithTheLastBatchValue) {
  Scheduler sched(1);
  SumMap m(sched);
  std::map<map::Key, std::int64_t> ref;
  fill_base(m, ref);
  Rng rng(101);
  constexpr map::Key kHot = 4242;
  {
    HeldWorker held;
    for (int b = 1; b <= 64; ++b) {
      std::vector<Item> batch = draw_batch(rng, 15);
      batch.emplace_back(kHot, b);
      std::shuffle(batch.begin(), batch.end(), rng);
      m.assign_batch(batch);
      for (const auto& [k, v] : batch) ref[k] = v;
    }
    EXPECT_EQ(m.stats().folded, 63u);
  }
  EXPECT_EQ(m.get(kHot), 64);
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
}

TEST(ParallelMapFold, EraseDoesNotFoldWithInserts) {
  Scheduler sched(1);
  SumMap m(sched);
  std::map<map::Key, std::int64_t> ref;
  fill_base(m, ref);
  Rng rng(103);
  {
    HeldWorker held;
    const auto insert = [&] {
      const std::vector<Item> batch = draw_batch(rng, 16);
      m.insert_batch(batch, kAdd);
      for (const auto& [k, v] : batch) ref[k] += v;
      return batch;
    };
    std::vector<map::Key> gone;
    for (int b = 0; b < 5; ++b)
      for (const auto& [k, v] : insert()) gone.push_back(k);
    for (int i = 0; i < 16; ++i) gone.push_back(rng.range(0, 1 << 17));
    m.erase_batch(gone);
    for (map::Key k : gone) ref.erase(k);
    for (int b = 0; b < 4; ++b) {
      const std::vector<Item> batch = insert();
      // Re-insert some erased keys: they must come back.
      std::vector<Item> again;
      for (int i = 0; i < 4; ++i) again.emplace_back(gone[rng.below(gone.size())], 7);
      m.insert_batch(again, kAdd);
      for (const auto& [k, v] : again) ref[k] += v;
    }
    // Three groups: five inserts, the erase, eight inserts.
    EXPECT_EQ(m.stats().folded, 4u + 7u);
  }
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.aggregate(0, 1 << 17), fold_range(ref, 0, 1 << 17));
}

// Rebalancing drops a shard's queued group: the split or merge consumes its
// root, and the next batch on either half starts a new group.
TEST(ParallelMapFold, ShardedRebalanceBetweenQueuedBatches) {
  Scheduler sched(1);
  adapt::Config cfg;  // eager: every batch may split or merge
  cfg.enabled = true;
  cfg.high_cont = 1.5;
  cfg.low_cont = 0.5;
  cfg.alpha = 1.0;
  cfg.min_shards = 2;
  cfg.max_shards = 16;
  cfg.sample_cap = 1024;
  cfg.cooldown = 0;
  ShardedParallelMap<std::int64_t, SumAug> m(
      sched, 4, pipelined::treap::kDefaultSalt, map::kDefaultLeafCapacity,
      cfg);
  std::map<map::Key, std::int64_t> ref;
  Rng rng(107);
  std::size_t shards_seen = m.shard_count();
  bool changed = false;
  {
    HeldWorker held;
    for (int b = 0; b < 96; ++b) {
      // Traffic moves between two windows, so shards split and merge.
      const map::Key lo = (b / 16) % 2 == 0 ? 0 : map::Key{1} << 40;
      std::vector<Item> batch;
      for (int i = 0; i < 16; ++i)
        batch.emplace_back(lo + rng.range(0, 1 << 12),
                           static_cast<std::int64_t>(rng.below(100)));
      m.insert_batch(batch, kAdd);
      for (const auto& [k, v] : batch) ref[k] += v;
      changed |= m.shard_count() != shards_seen;
      shards_seen = m.shard_count();
    }
  }
  EXPECT_TRUE(changed) << "no split or merge between queued batches";
  const ShardedStats st = m.stats();
  EXPECT_GT(st.splits + st.merges, 0u);
  EXPECT_GT(st.folded, 0u);
  EXPECT_EQ(m.items(), std::vector<Item>(ref.begin(), ref.end()));
  EXPECT_EQ(m.aggregate(std::numeric_limits<map::Key>::min(),
                        std::numeric_limits<map::Key>::max()),
            fold_range(ref, std::numeric_limits<map::Key>::min(),
                       std::numeric_limits<map::Key>::max()));
}

}  // namespace
}  // namespace pwf::rt
