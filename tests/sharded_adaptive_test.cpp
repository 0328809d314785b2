// Tests for contention-adaptive sharding: the split-point policy
// (adapt::split_point), deterministic facade-level split/merge behavior
// under skewed traffic, content preservation across rebalance cycles (set
// and map, including augmented range aggregates), and readers racing forced
// split/merge cycles (the tsan preset runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "runtime/parallel_map.hpp"
#include "runtime/parallel_set.hpp"
#include "runtime/shard_adapt.hpp"
#include "runtime/sharded_map.hpp"
#include "runtime/sharded_set.hpp"
#include "support/random.hpp"

namespace pwf::rt {
namespace {

using Key = std::int64_t;

// Aggressive adaptation for tests: every batch may rebalance, the EWMA has
// no memory (alpha = 1), and thresholds trip on any concentrated traffic.
adapt::Config eager_config(std::size_t max_shards = 16) {
  adapt::Config cfg;
  cfg.enabled = true;
  cfg.high_cont = 1.5;
  cfg.low_cont = 0.5;
  cfg.alpha = 1.0;
  cfg.min_shards = 2;
  cfg.max_shards = max_shards;
  cfg.sample_cap = 1024;
  cfg.cooldown = 0;
  return cfg;
}

std::vector<Key> window_batch(Rng& rng, std::size_t n, Key lo, Key span) {
  std::vector<Key> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(lo + rng.range(0, span));
  return out;
}

// Holds a worker until `release` is set.
Fiber spin_until(std::atomic<bool>* started, std::atomic<bool>* release) {
  started->store(true, std::memory_order_release);
  while (!release->load(std::memory_order_acquire)) std::this_thread::yield();
  co_return;
}

// ---- split-point policy ------------------------------------------------------

TEST(ShardedAdaptiveSplitPoint, MedianOfDistinctSample) {
  EXPECT_EQ(adapt::split_point({5, 1, 9, 3, 7}), std::optional<Key>(5));
  EXPECT_EQ(adapt::split_point({1, 2}), std::optional<Key>(2));
}

TEST(ShardedAdaptiveSplitPoint, PopularKeysWeightTheMedian) {
  // Key 10 carries most of the traffic: the median lands on it, keeping the
  // hot key's neighborhood on one side.
  EXPECT_EQ(adapt::split_point({10, 10, 10, 10, 10, 1, 2, 99}),
            std::optional<Key>(10));
}

TEST(ShardedAdaptiveSplitPoint, DominantMinimumAdvancesPastItsDuplicates) {
  // The median equals the smallest key — splitting there would route zero
  // traffic left. The policy advances to the next distinct key.
  EXPECT_EQ(adapt::split_point({1, 1, 1, 1, 1, 6, 8}), std::optional<Key>(6));
}

TEST(ShardedAdaptiveSplitPoint, RefusesUnsplittableSamples) {
  EXPECT_EQ(adapt::split_point({}), std::nullopt);
  EXPECT_EQ(adapt::split_point({42}), std::nullopt);
  EXPECT_EQ(adapt::split_point({7, 7, 7, 7}), std::nullopt);
}

// ---- deterministic facade behavior ------------------------------------------

// With S = 2 the initial boundary is 0 (sign-bit partition), so a batch of
// positive keys routes entirely to shard 1, trips high_cont on the first
// batch, and must split exactly at the weighted median of that batch.
TEST(ShardedAdaptiveSet, FirstSplitLandsOnTheSampledTrafficMedian) {
  Scheduler sched(2);
  ShardedParallelSet sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity,
                        eager_config());
  ASSERT_EQ(sh.boundaries(), std::vector<Key>{0});

  Rng rng(11);
  std::vector<Key> batch = window_batch(rng, 400, 1'000'000, 10'000);
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  // route() feeds the deduped slice into the shard's sample, so the facade
  // must pick exactly this pivot.
  const std::optional<Key> expected = adapt::split_point(batch);
  ASSERT_TRUE(expected.has_value());

  sh.insert_batch(batch);
  EXPECT_EQ(sh.shard_count(), 3u);
  EXPECT_EQ(sh.boundaries(), (std::vector<Key>{0, *expected}));
  EXPECT_EQ(sh.stats().splits, 1u);
  EXPECT_EQ(sh.keys(), batch);
  for (const Key k : {batch.front(), *expected, batch.back()})
    EXPECT_TRUE(sh.contains(k));
}

// Out-of-the-box thresholds must be reachable at the smallest partitions:
// heat is bounded by the shard count, so the raw high_cont (3.0) exceeds
// everything a 2-shard facade can measure. split_threshold caps at 3/4 of
// the ceiling — a stream concentrated on one of two shards still splits.
TEST(ShardedAdaptiveSet, DefaultThresholdsSplitTheSmallestPartition) {
  EXPECT_LT(adapt::split_threshold({}, 2), 2.0);
  EXPECT_DOUBLE_EQ(adapt::split_threshold({}, 8), adapt::Config{}.high_cont);

  Scheduler sched(2);
  adapt::Config cfg;
  cfg.enabled = true;
  ShardedParallelSet sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity, cfg);
  Rng rng(23);
  std::vector<Key> all;
  for (int b = 0; b < 32 && sh.stats().splits == 0; ++b) {
    const auto batch = window_batch(rng, 256, 1 << 20, 4096);
    all.insert(all.end(), batch.begin(), batch.end());
    sh.insert_batch(batch);
  }
  EXPECT_GT(sh.stats().splits, 0u);
  for (const Key k : all) EXPECT_TRUE(sh.contains(k));
}

TEST(ShardedAdaptiveSet, ColdNeighborsMergeAfterTrafficMovesOn) {
  Scheduler sched(2);
  ShardedParallelSet sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity,
                        eager_config(8));
  Rng rng(12);
  std::set<Key> ref;
  // Phase 1: hammer one window until the shard cap stops further splits.
  for (int b = 0; b < 12; ++b) {
    const auto batch = window_batch(rng, 200, 0, 4096);
    sh.insert_batch(batch);
    ref.insert(batch.begin(), batch.end());
  }
  const std::uint64_t splits_before = sh.stats().splits;
  EXPECT_GT(splits_before, 0u);
  const std::size_t shards_hot = sh.shard_count();

  // Phase 2: traffic jumps far away; the shards partitioning the old window
  // all go cold (alpha = 1 zeroes their heat immediately) and merge.
  for (int b = 0; b < 40; ++b) {
    const auto batch = window_batch(rng, 200, 1 << 24, 4096);
    sh.insert_batch(batch);
    ref.insert(batch.begin(), batch.end());
  }
  EXPECT_GT(sh.stats().merges, 0u);
  EXPECT_EQ(sh.keys(), std::vector<Key>(ref.begin(), ref.end()));
  (void)shards_hot;
}

TEST(ShardedAdaptiveSet, SplitMergeCyclesPreserveContents) {
  Scheduler sched(2);
  ShardedParallelSet sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity,
                        eager_config(8));
  Rng rng(13);
  std::set<Key> ref;
  for (int round = 0; round < 60; ++round) {
    // The hot window cycles through four locations; erases ride along.
    const Key lo = static_cast<Key>((round / 10) % 4) << 20;
    const auto batch = window_batch(rng, 150, lo, 2048);
    if (round % 5 == 4) {
      sh.erase_batch(batch);
      for (const Key k : batch) ref.erase(k);
    } else {
      sh.insert_batch(batch);
      ref.insert(batch.begin(), batch.end());
    }
    if (round % 10 == 9)
      sh.compact_shard(static_cast<std::size_t>(round / 10) %
                       sh.shard_count());
    ASSERT_EQ(sh.keys(), std::vector<Key>(ref.begin(), ref.end()))
        << "round " << round;
  }
  const ShardedParallelSet::Stats st = sh.stats();
  EXPECT_GT(st.splits, 0u);
  EXPECT_GT(st.merges, 0u);
  EXPECT_EQ(sh.size(), ref.size());

  // Full compaction after heavy rebalancing drops every retired arena.
  sh.compact();
  EXPECT_EQ(sh.keys(), std::vector<Key>(ref.begin(), ref.end()));
}

TEST(ShardedAdaptiveSet, DisabledConfigNeverRebalances) {
  Scheduler sched(2);
  ShardedParallelSet sh(sched, 4);  // default config: adaptation off
  Rng rng(14);
  for (int b = 0; b < 20; ++b)
    sh.insert_batch(window_batch(rng, 200, 0, 1024));
  const ShardedParallelSet::Stats st = sh.stats();
  EXPECT_EQ(st.splits, 0u);
  EXPECT_EQ(st.merges, 0u);
  EXPECT_EQ(st.shards, 4u);
  EXPECT_EQ(sh.shard_count(), 4u);
}

// An empty insert or erase routes no traffic: it must not record a
// zero-share batch into every shard's heat, which would make the whole
// partition look cold and merge it. (retain_batch({}) is not a no-op:
// set ∩ ∅ = ∅ empties every shard.)
TEST(ShardedAdaptiveSet, EmptyBatchesLeaveThePartitionAlone) {
  Scheduler sched(2);
  ShardedParallelSet sh(sched, 4, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity,
                        eager_config());
  const std::vector<Key> before = sh.boundaries();
  sh.insert_batch(std::vector<Key>{});
  sh.erase_batch(std::vector<Key>{});
  EXPECT_EQ(sh.shard_count(), 4u);
  EXPECT_EQ(sh.boundaries(), before);
  const ShardedParallelSet::Stats st = sh.stats();
  EXPECT_EQ(st.merges, 0u);
  EXPECT_EQ(st.batches, 0u);
  for (std::size_t i = 0; i < sh.shard_count(); ++i)
    EXPECT_DOUBLE_EQ(sh.shard_load(i).heat, 1.0) << "shard " << i;
}

// ---- map facade --------------------------------------------------------------

TEST(ShardedAdaptiveMap, RebalancingPreservesItemsAndMerges) {
  using Item = std::pair<Key, std::int64_t>;
  Scheduler sched(2);
  ShardedParallelMap<std::int64_t> sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                                      pipelined::treap::kDefaultLeafCapacity,
                                      eager_config(8));
  const auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  Rng rng(15);
  std::map<Key, std::int64_t> ref;
  for (int round = 0; round < 40; ++round) {
    const Key lo = static_cast<Key>((round / 8) % 3) << 20;
    std::vector<Item> batch;
    for (int i = 0; i < 150; ++i)
      batch.emplace_back(lo + rng.range(0, 2048),
                         static_cast<std::int64_t>(rng.below(100)));
    sh.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
    ASSERT_EQ(sh.items(), std::vector<Item>(ref.begin(), ref.end()))
        << "round " << round;
  }
  const auto st = sh.stats();
  EXPECT_GT(st.splits, 0u);
  EXPECT_GT(st.merges, 0u);
  for (int i = 0; i < 100; ++i) {
    const Key k = rng.range(0, Key{3} << 20);
    const auto it = ref.find(k);
    ASSERT_EQ(sh.get(k), it == ref.end()
                             ? std::nullopt
                             : std::optional<std::int64_t>(it->second));
  }
}

TEST(ShardedAdaptiveMap, AggregatesSpanRebalancedShards) {
  using SumAug = pipelined::treap::SumAug<std::int64_t>;
  using Item = std::pair<Key, std::int64_t>;
  Scheduler sched(2);
  ShardedParallelMap<std::int64_t, SumAug> sh(
      sched, 2, 0x9e3779b97f4a7c15ULL,
      pipelined::treap::kDefaultLeafCapacity, eager_config(8));
  const auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  Rng rng(16);
  std::map<Key, std::int64_t> ref;
  for (int round = 0; round < 20; ++round) {
    const Key lo = static_cast<Key>(round % 2) << 16;
    std::vector<Item> batch;
    for (int i = 0; i < 200; ++i)
      batch.emplace_back(lo + rng.range(0, 4096),
                         static_cast<std::int64_t>(rng.below(50)));
    sh.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
    // Range probes cross the (rebalanced) shard boundaries.
    for (int probe = 0; probe < 10; ++probe) {
      Key lo_p = rng.range(-100, Key{1} << 17);
      Key hi_p = rng.range(-100, Key{1} << 17);
      if (lo_p > hi_p) std::swap(lo_p, hi_p);
      std::int64_t fold = 0;
      for (auto it = ref.lower_bound(lo_p);
           it != ref.end() && it->first <= hi_p; ++it)
        fold += it->second;
      ASSERT_EQ(sh.aggregate(lo_p, hi_p), fold)
          << "round " << round << " [" << lo_p << ", " << hi_p << "]";
    }
  }
  EXPECT_GT(sh.stats().splits, 0u);
}

// ---- readers vs rebalancing (tsan target) -----------------------------------

// Concurrent readers resolve shards through the published routing table
// while the mutator forces split/merge cycles and rotating shard
// compactions. Under tsan this exercises the table publish and re-check
// protocol, the two-phase split, and husk retirement against every reader
// path.
TEST(ShardedAdaptiveSet, ReadersRaceRebalanceCycles) {
  Scheduler sched(2);
  ShardedParallelSet sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity,
                        eager_config(8));
  Rng seed_rng(17);
  const auto base = window_batch(seed_rng, 1024, 0, 1 << 22);
  sh.insert_batch(base);
  sh.flush();
  std::set<Key> ref(base.begin(), base.end());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&sh, &stop, r] {
      Rng rng(100 + r);
      std::size_t hits = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const Key k = rng.range(0, 1 << 22);
        hits += sh.contains(k) ? 1 : 0;
        if (rng.below(8) == 0) {
          const SetSnapshot snap = sh.snapshot(k);
          hits += snap.contains(k) ? 1 : 0;
        }
        if (rng.below(16) == 0) hits += sh.boundaries().size();
        if (rng.below(32) == 0) hits += sh.shard_load(0).routed > 0;
      }
      EXPECT_GE(hits, 0u);
    });
  }

  Rng rng(18);
  for (int round = 0; round < 80; ++round) {
    const Key lo = static_cast<Key>((round / 8) % 4) << 20;
    const auto batch = window_batch(rng, 100, lo, 2048);
    sh.insert_batch(batch);
    ref.insert(batch.begin(), batch.end());
    if (round % 16 == 15)
      sh.compact_shard(static_cast<std::size_t>(round) % sh.shard_count());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  const ShardedParallelSet::Stats st = sh.stats();
  EXPECT_GT(st.splits, 0u);
  EXPECT_EQ(sh.keys(), std::vector<Key>(ref.begin(), ref.end()));
}

// What a reader gets while shards split, merge and compact: base keys are
// never erased and values only grow, so every base key must stay visible
// through every routed read, and a range sum can never drop below the base
// keys' count. A read routed by a table that a split replaced may meet the
// left shard already shrunk to its < pivot root; only the re-check after
// the read keeps it from missing keys. Whole-index reads (items(), and
// aggregates over every shard) walk the hot shards last, so a split lands
// inside them often.
TEST(ShardedAdaptiveMap, ReadersNeverMissAKeyDuringRebalance) {
  using SumAug = pipelined::treap::SumAug<std::int64_t>;
  using Item = std::pair<Key, std::int64_t>;
  Scheduler sched(2);
  ShardedParallelMap<std::int64_t, SumAug> sh(
      sched, 2, 0x9e3779b97f4a7c15ULL,
      pipelined::treap::kDefaultLeafCapacity, eager_config(8));
  const auto add = [](std::int64_t x, std::int64_t y) { return x + y; };
  // Dense in the four windows the mutator's traffic visits, so every pivot
  // a split picks there has base keys on both sides.
  std::vector<Key> base;
  for (Key w = 0; w < 4; ++w)
    for (Key i = 0; i < 512; ++i) base.push_back((w << 20) + 4 * i);
  std::vector<Item> base_items;
  for (const Key k : base) base_items.emplace_back(k, 1);
  sh.insert_batch(base_items, add);
  sh.flush();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0}, misses{0}, low_sums{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(200 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const Key k = base[rng.below(base.size())];
        const std::optional<std::int64_t> v = sh.get(k);
        if (!v || *v < 1) misses.fetch_add(1);
        if (!sh.contains(k)) misses.fetch_add(1);
        if (!sh.snapshot(k).contains(k)) misses.fetch_add(1);
        const bool wide = rng.below(2) == 0;
        const Key lo = wide ? -1 : (rng.range(0, 3) << 20) + rng.range(0, 2048);
        const Key hi = wide ? Key{4} << 20 : lo + rng.range(0, 1 << 21);
        const auto n = static_cast<std::int64_t>(
            std::upper_bound(base.begin(), base.end(), hi) -
            std::lower_bound(base.begin(), base.end(), lo));
        if (sh.aggregate(lo, hi) < n) low_sums.fetch_add(1);
        if (rng.below(4) == 0) {
          std::vector<Key> keys;
          for (const Item& it : sh.items()) keys.push_back(it.first);
          if (!std::includes(keys.begin(), keys.end(), base.begin(),
                             base.end()))
            misses.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  Rng rng(32);
  std::map<Key, std::int64_t> ref;
  for (const Key k : base) ref[k] = 1;
  for (int round = 0; round < 120; ++round) {
    const Key lo = static_cast<Key>((round / 6) % 4) << 20;
    std::vector<Item> batch;
    for (const Key k : window_batch(rng, 100, lo, 2048))
      batch.emplace_back(k, static_cast<std::int64_t>(rng.range(1, 9)));
    sh.insert_batch(batch, add);
    for (const auto& [k, v] : batch) ref[k] += v;
    if (round % 12 == 11)
      sh.compact_shard(static_cast<std::size_t>(round / 12) %
                       sh.shard_count());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(low_sums.load(), 0u);
  const auto st = sh.stats();
  EXPECT_GT(st.splits, 0u);
  EXPECT_GT(st.merges, 0u);
  EXPECT_EQ(sh.items(), std::vector<Item>(ref.begin(), ref.end()));
  // A shard index from a stale count reads as an empty shard.
  const IndexStats past = sh.shard_stats(sh.shard_count());
  EXPECT_EQ(past.batches, 0u);
  EXPECT_EQ(past.arena_bytes, 0u);
}

// A rebalance publishes a new routing table without waiting for readers:
// a reader parked on a shard's unwritten root must not hold up the
// mutator's split (the producer never waits on a consumer). The lone
// worker is held by a spinning fiber so the root stays unwritten; a
// watchdog releases it after 2 s, so a mutator that waits fails the test
// instead of hanging it.
TEST(ShardedAdaptiveSet, RebalanceDoesNotWaitForParkedReader) {
  Scheduler sched(1);
  ShardedParallelSet sh(sched, 2, 0x9e3779b97f4a7c15ULL,
                        pipelined::treap::kDefaultLeafCapacity,
                        eager_config());
  std::set<Key> ref;
  std::vector<Key> base;
  for (Key i = 0; i < 4096; ++i) base.push_back(16 * i);
  sh.insert_batch(base);
  sh.flush();
  ref.insert(base.begin(), base.end());

  std::atomic<bool> started{false}, release{false}, mutator_done{false};
  spawn(spin_until(&started, &release));
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  const std::vector<Key> first{1, 3, 5, 7, 9, 11};
  sh.insert_batch(first);  // its root stays unwritten: the worker is held
  ref.insert(first.begin(), first.end());
  std::atomic<bool> found{false};
  std::thread reader([&] { found.store(sh.contains(5)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // parks

  bool fired = false;
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!mutator_done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fired = !mutator_done.load(std::memory_order_acquire);
    release.store(true, std::memory_order_release);
  });
  const std::size_t shards_before = sh.shard_count();
  const std::vector<Key> more{13, 15, 17, 19, 21, 23, 25, 27};
  sh.insert_batch(more);  // same shard as 5: splits it
  const std::size_t shards_after = sh.shard_count();
  mutator_done.store(true, std::memory_order_release);
  watchdog.join();
  reader.join();
  ref.insert(more.begin(), more.end());

  EXPECT_FALSE(fired) << "the split waited for the parked reader";
  EXPECT_GT(shards_after, shards_before);
  EXPECT_TRUE(found.load());
  EXPECT_EQ(sh.keys(), std::vector<Key>(ref.begin(), ref.end()));
}

}  // namespace
}  // namespace pwf::rt
