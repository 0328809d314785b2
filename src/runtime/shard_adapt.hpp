// Contention-adaptive sharding support (docs/service.md): the per-shard
// traffic statistics, split/merge thresholds, and routing table of
// rt::Sharded (sharded.hpp).
//
// The adaptation idea follows the lock-free contention-adapting search
// tree (ROADMAP): every shard keeps per-batch contention/occupancy stats;
// crossing a high threshold splits the shard at its weighted traffic
// median, and adjacent shards falling below a low threshold merge. The
// rebalance primitives themselves are the pipelined treap split/join
// bodies (Index::split_off / absorb), so a rebalance overlaps in-flight
// batches instead of stopping the world.
//
// Routing: readers resolve their shard through an immutable Table (sorted
// split points + the shards, which it owns), held by shared_ptr. A
// structural change publishes a fresh Table; an absorbed shard husk dies
// with the last Table that names it — the same refcounted retirement the
// index's pins give its stores.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace pwf::rt::adapt {

using Key = std::int64_t;

// Thresholds and knobs of the adaptive rebalancer. `heat` below is a
// shard's share of a batch's routed keys times the shard count, smoothed
// by an EWMA — 1.0 is a perfectly fair share regardless of shard count, so
// the thresholds don't need retuning as the partition grows.
struct Config {
  bool enabled = false;   // false: static partition (the legacy behavior)
  double high_cont = 3.0; // split a shard whose heat exceeds this
  double low_cont = 0.5;  // merge neighbors whose summed heat is below this
  double alpha = 0.25;    // per-batch EWMA smoothing factor
  std::size_t min_shards = 1;
  std::size_t max_shards = 64;
  std::size_t sample_cap = 256;  // per-shard routed-key ring sample
  std::uint64_t cooldown = 4;    // batches between structural changes
};

// Effective split threshold at the current shard count. Heat can never
// exceed S (share <= 1), so a raw `high_cont` above S is unreachable — at
// S=2 the default 3.0 would wedge a fully concentrated stream forever.
// Capping at 3/4 of the ceiling keeps the configured threshold where it is
// reachable and still demands a sustained >= 75% traffic share before the
// smallest partitions split.
inline double split_threshold(const Config& cfg, std::size_t shards) {
  return std::min(cfg.high_cont, 0.75 * static_cast<double>(shards));
}

// A batch element's key: the key itself, or the key of a (key, value) item.
inline Key key_of(Key k) { return k; }
template <typename V>
Key key_of(const std::pair<Key, V>& item) {
  return item.first;
}

// Per-shard traffic record. Written only by the facade's single mutator
// thread; the facade serializes reads (stats accessors) with a mutex.
struct Heat {
  double heat = 1.0;         // EWMA of share-of-batch x shard count
  std::uint64_t routed = 0;  // cumulative keys routed here
  std::vector<Key> sample;   // ring of recently routed keys
  std::size_t sample_pos = 0;

  template <typename T>
  void record(std::span<const T> slice, std::size_t batch_total,
              std::size_t shard_count, const Config& cfg) {
    const double share =
        batch_total == 0
            ? 0.0
            : static_cast<double>(slice.size()) /
                  static_cast<double>(batch_total);
    heat = (1.0 - cfg.alpha) * heat +
           cfg.alpha * share * static_cast<double>(shard_count);
    routed += slice.size();
    for (const T& x : slice) keep(key_of(x), cfg.sample_cap);
  }

  // Adds k to the ring sample of at most `cap` keys.
  void keep(Key k, std::size_t cap) {
    if (sample.size() < cap) {
      sample.push_back(k);
    } else if (!sample.empty()) {
      sample[sample_pos] = k;
      sample_pos = (sample_pos + 1) % sample.size();
    }
  }
};

// Weighted median of a shard's sampled traffic: the ring holds one entry
// per routed key, so popular keys weight the median toward themselves.
// Returns nullopt when the sample can't produce a pivot that puts traffic
// on both sides (fewer than two distinct keys). Deterministic for a given
// sample — the unit tests pin the selected pivot for a known skew.
inline std::optional<Key> split_point(std::vector<Key> s) {
  if (s.size() < 2) return std::nullopt;
  std::sort(s.begin(), s.end());
  std::size_t mid = s.size() / 2;
  if (s[mid] == s.front()) {
    // The median equals the minimum (one key dominates the traffic): the
    // < side would get nothing. Take the next distinct key, if any.
    while (mid < s.size() && s[mid] == s.front()) ++mid;
    if (mid == s.size()) return std::nullopt;
  }
  return s[mid];
}

// Immutable routing epoch: shard i owns [lowers[i-1], lowers[i]) with the
// open ends at INT64_MIN/INT64_MAX. upper_bound keeps the boundary key
// itself in the right (higher) shard, matching the facades' lower_bound
// batch slicing.
template <typename Shard>
struct Table {
  std::vector<Key> lowers;                     // lower bound of shards[i + 1]
  std::vector<std::shared_ptr<Shard>> shards;  // lowers.size() + 1 of them

  std::size_t index(Key k) const {
    return static_cast<std::size_t>(
        std::upper_bound(lowers.begin(), lowers.end(), k) - lowers.begin());
  }
};

}  // namespace pwf::rt::adapt
