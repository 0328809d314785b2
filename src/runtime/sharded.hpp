// rt::Sharded<I> — a range-partitioned service over S independent Index
// shards (ShardedParallelSet = Sharded<ParallelSet>, ShardedParallelMap<V,
// A> = Sharded<ParallelMap<V, A>>), each with its own store and its own
// pending-batch pipeline.
//
// Why shard a structure whose batches are already parallel? Two reasons,
// both service-shaped rather than algorithmic:
//   1. *Independent pipelines.* An Index chains every batch through a
//      single root cell, so one slow batch delays the materialization of
//      everything behind it. With S shards a batch splits into S slices
//      that chain onto S independent roots — stragglers only stall their
//      own key range.
//   2. *Independent epochs.* compact() (the arena-epoch rebuild) can be
//      rotated across shards, bounding the pause and the peak footprint to
//      1/S of the whole index.
//
// Partitioning is by key range. The initial partition cuts the signed
// 64-bit key space into S equal-width contiguous ranges (computed in
// order-preserving unsigned space); with an adapt::Config{.enabled = true}
// the partition then *follows the traffic*: every shard keeps per-batch
// contention stats (share of routed keys, routed count, a key sample), a
// shard whose heat crosses `high_cont` splits at the weighted median of its
// sampled traffic, and adjacent shards whose summed heat falls below
// `low_cont` merge. The rebalance primitives are the pipelined treap
// split/join bodies (Index::split_off / absorb), so a rebalance chains onto
// the shard pipelines and overlaps in-flight batches instead of stopping
// the world.
//
// Routing is an immutable sorted split-point table (adapt::Table) that owns
// its shards, published as a shared_ptr under a mutex. A reader copies the
// current table, reads the shard it names, and retries if a split or merge
// published a new table meanwhile; a structural change publishes a fresh
// table and waits for nobody — a merged-away husk dies with the last table
// that names it. All shards share one priority salt so nodes can migrate
// between shards through split/join.
//
// An incoming batch is sorted and deduplicated once (map items pre-merged,
// so cross-slice behavior matches the unsharded index exactly) and sliced
// per shard by binary search — O(S lg m) to route a batch of m keys; each
// shard builds its sorted slice as is, or copies it into the queued batch
// group it joins (Index::chain_batch). An empty insert or erase is a no-op.
// Augmented shards' `aggregate(lo, hi)` results are combined in shard (key)
// order, so non-commutative combines behave as on the unsharded index.
//
// Thread contract is inherited from Index: one mutator thread at a time
// (rebalancing happens inside mutator calls; analyze builds abort on a
// second one), any number of concurrent readers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "runtime/index.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/shard_adapt.hpp"

namespace pwf::rt {

// Aggregated service observability: the IndexStats fields summed over
// shards (max_pending is the max — per-pipeline depth is the meaningful
// quantity), plus the partition shape and adaptation history. keys_min /
// keys_max and the imbalance ratios come from per-shard size(), so reading
// stats() may force pending batches like any whole-tree read.
struct ShardedStats {
  std::uint64_t batches = 0;
  std::uint64_t overlapped = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t flushes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t folded = 0;
  std::uint64_t shards = 0;        // current shard count
  std::uint64_t keys_min = 0;      // stored keys in the emptiest shard
  std::uint64_t keys_max = 0;      // stored keys in the fullest shard
  double imbalance_min = 0.0;      // keys_min / (total / shards)
  double imbalance_max = 0.0;      // keys_max / (total / shards)
  std::uint64_t routed_min = 0;    // cumulative traffic extremes
  std::uint64_t routed_max = 0;
  std::uint64_t splits = 0;        // adaptive rebalances executed
  std::uint64_t merges = 0;
};

template <typename I>
class Sharded {
 public:
  using Key = typename I::Key;
  using Item = typename I::Item;
  using Stats = ShardedStats;
  using CacheEconomy = IndexCacheEconomy;

  // A shard's live heat record (approximate — the partition may change
  // between indexing and reading; monitoring only).
  struct ShardLoad {
    double heat = 0.0;
    std::uint64_t routed = 0;
    std::uint64_t pending = 0;
  };

  Sharded(Scheduler& sched, unsigned shards,
          std::uint64_t salt = pipelined::treap::kDefaultSalt,
          std::size_t leaf_cap = map::kDefaultLeafCapacity,
          adapt::Config cfg = {})
      : cfg_(cfg) {
    std::size_t n = std::max(1u, shards);
    if (cfg_.enabled)
      n = std::clamp(n, std::max<std::size_t>(1, cfg_.min_shards),
                     std::max<std::size_t>(1, cfg_.max_shards));
    // Shard i owns [lowers[i-1], lowers[i]) with implicit -inf/+inf ends.
    // The uniform cut is taken in unsigned space; flipping the sign bit maps
    // it back order-preservingly, so the signed ranges are contiguous.
    Table t;
    const std::uint64_t step =
        std::numeric_limits<std::uint64_t>::max() / n + 1;
    for (std::size_t i = 1; i < n; ++i)
      t.lowers.push_back(
          static_cast<Key>((step * i) ^ (std::uint64_t{1} << 63)));
    for (std::size_t i = 0; i < n; ++i)
      t.shards.push_back(std::make_shared<I>(sched, salt, leaf_cap));
    heats_.resize(n);
    table_ = std::make_shared<const Table>(std::move(t));
  }

  Sharded(const Sharded&) = delete;
  Sharded& operator=(const Sharded&) = delete;

  std::size_t shard_count() const { return table()->shards.size(); }

  // Current split points (lower bounds of shards 1..S-1), for tests and
  // monitoring.
  std::vector<Key> boundaries() const { return table()->lowers; }

  // Batch mutators: each nonempty slice is chained onto its shard's
  // pipeline (Index semantics per slice). With adaptation enabled, each
  // batch also feeds the heat EWMAs and may trigger at most one split or
  // merge.
  void insert_batch(std::span<const Key> keys)
    requires(!I::kMap)
  {
    if (keys.empty()) return;
    route(detail::sorted_keys(keys), false,
          [](I& s, auto slice) { s.union_batch([=] { return slice; }); });
  }
  template <typename Merge>
  void insert_batch(std::span<const Item> items, Merge merge)
    requires(I::kMap)
  {
    if (items.empty()) return;
    route(detail::sorted_items(items, merge), false,
          [&](I& s, auto slice) {
            s.union_batch([=] { return slice; }, merge);
          });
  }
  void assign_batch(std::span<const Item> items)
    requires(I::kMap)
  {
    insert_batch(items, LastWins{});
  }
  void erase_batch(std::span<const Key> keys) {
    if (keys.empty()) return;
    route(detail::sorted_keys(keys), false,
          [](I& s, auto slice) { s.diff_batch([=] { return slice; }); });
  }
  // retain must visit *every* shard: a shard whose slice is empty keeps no
  // keys (set ∩ ∅ = ∅).
  void retain_batch(std::span<const Key> keys)
    requires(!I::kMap)
  {
    route(detail::sorted_keys(keys), true,
          [](I& s, auto slice) {
            s.intersect_batch([=] { return slice; });
          });
  }

  void flush() const {
    const std::shared_ptr<const Table> t = table();
    for (const auto& s : t->shards) s->flush();
  }

  // Async quiescence across every shard: one fiber awaits all shards'
  // epoch-pinned trees, then writes `done` (see Index::on_flush).
  void on_flush(FutCell<int>& done) const {
    auto pins = routed([](const Table& t) {
      std::vector<typename I::Pin> out;
      for (const auto& s : t.shards) out.push_back(s->pinned());
      return out;
    });
    spawn(rtasync::quiesce_fiber(std::move(pins), &done));
  }

  // Compact every shard. Long-lived services should instead rotate:
  // `compact_shard(epoch % shard_count())` once per maintenance tick.
  void compact() {
    const auto hold = owner_.hold();
    for (const auto& s : table_->shards) s->compact();
  }
  void compact_shard(std::size_t i) {
    const auto hold = owner_.hold();
    table_->shards[i]->compact();
  }

  // Point reads are routed to the shard owning the key.
  bool contains(Key k) const {
    return routed(
        [k](const Table& t) { return t.shards[t.index(k)]->contains(k); });
  }
  auto get(Key k) const
    requires(I::kMap)
  {
    return routed([k](const Table& t) { return t.shards[t.index(k)]->get(k); });
  }

  // Async point read, routed like get(): the owning shard's pin is taken
  // before this returns, so a concurrent rebalance cannot strand the walk.
  void probe_into(Key k, FutCell<rtasync::Probe<typename I::Value>>& out) const
    requires(I::kMap)
  {
    spawn(rtasync::probe_fiber(
        routed([k](const Table& t) { return t.shards[t.index(k)]->pinned(); }),
        k, &out));
  }

  // Epoch-pinned snapshot of the shard currently owning key k (there is no
  // cross-shard snapshot; ranges are independent pipelines).
  auto snapshot(Key k) const {
    return routed(
        [k](const Table& t) { return t.shards[t.index(k)]->snapshot(); });
  }

  // Range aggregate over keys in [lo, hi]: only the shards whose key range
  // intersects [lo, hi] are queried, and their aggregates are combined in
  // shard (key) order — associativity suffices, like the unsharded index.
  auto aggregate(Key lo, Key hi) const
    requires(I::kAug)
  {
    using Ops = typename I::Entry::AugOps;
    return routed([lo, hi](const Table& t) {
      auto acc = Ops::identity();
      if (lo > hi) return acc;
      const std::size_t last = t.index(hi);
      for (std::size_t i = t.index(lo); i <= last; ++i)
        acc = Ops::combine(acc, t.shards[i]->aggregate(lo, hi));
      return acc;
    });
  }

  std::size_t size() const {
    return routed([](const Table& t) {
      std::size_t n = 0;
      for (const auto& s : t.shards) n += s->size();
      return n;
    });
  }
  bool empty() const { return size() == 0; }

  // Sorted: shards are contiguous ranges.
  std::vector<Key> keys() const
    requires(!I::kMap)
  {
    return entries();
  }
  std::vector<Item> items() const
    requires(I::kMap)
  {
    return entries();
  }

  Stats stats() const {
    const std::shared_ptr<const Table> t = table();
    Stats agg;
    agg.shards = t->shards.size();
    std::size_t total = 0;
    std::size_t kmin = std::numeric_limits<std::size_t>::max();
    std::size_t kmax = 0;
    for (const auto& s : t->shards) {
      const IndexStats st = s->stats();
      agg.batches += st.batches;
      agg.overlapped += st.overlapped;
      agg.max_pending = std::max(agg.max_pending, st.max_pending);
      agg.flushes += st.flushes;
      agg.epochs += st.epochs;
      agg.arena_bytes += st.arena_bytes;
      agg.folded += st.folded;
      const std::size_t n = s->size();
      total += n;
      kmin = std::min(kmin, n);
      kmax = std::max(kmax, n);
    }
    agg.keys_min = kmin == std::numeric_limits<std::size_t>::max() ? 0 : kmin;
    agg.keys_max = kmax;
    if (total > 0 && agg.shards > 0) {
      const double ideal =
          static_cast<double>(total) / static_cast<double>(agg.shards);
      agg.imbalance_min = static_cast<double>(agg.keys_min) / ideal;
      agg.imbalance_max = static_cast<double>(agg.keys_max) / ideal;
    }
    std::lock_guard<std::mutex> lk(stats_mu_);
    agg.splits = splits_;
    agg.merges = merges_;
    std::uint64_t rmin = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t rmax = 0;
    for (const adapt::Heat& h : heats_) {
      rmin = std::min(rmin, h.routed);
      rmax = std::max(rmax, h.routed);
    }
    agg.routed_min = heats_.empty() ? 0 : rmin;
    agg.routed_max = rmax;
    return agg;
  }

  // Empty for an index past the current shard count (a caller may hold a
  // count from before a merge).
  IndexStats shard_stats(std::size_t i) const {
    const std::shared_ptr<const Table> t = table();
    return i < t->shards.size() ? t->shards[i]->stats() : IndexStats{};
  }

  ShardLoad shard_load(std::size_t i) const {
    ShardLoad out;
    if (const std::shared_ptr<const Table> t = table(); i < t->shards.size())
      out.pending = t->shards[i]->pending();
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (i < heats_.size()) {
      out.heat = heats_[i].heat;
      out.routed = heats_[i].routed;
    }
    return out;
  }

  // Storage composition summed over every shard (forces all trees).
  CacheEconomy cache_economy() const {
    const std::shared_ptr<const Table> t = table();
    CacheEconomy agg;
    for (const auto& s : t->shards) {
      const CacheEconomy ce = s->cache_economy();
      agg.internal_nodes += ce.internal_nodes;
      agg.leaf_chunks += ce.leaf_chunks;
      agg.leaf_keys += ce.leaf_keys;
      agg.leaf_ops += ce.leaf_ops;
      agg.arena_bytes += ce.arena_bytes;
      agg.wasted_padding += ce.wasted_padding;
    }
    return agg;
  }

 private:
  using Table = adapt::Table<I>;

  std::shared_ptr<const Table> table() const {
    std::lock_guard<std::mutex> lk(table_mu_);
    return table_;
  }

  // Runs `read` on the current table and retries if a split or merge
  // published a new one meanwhile. A read routed by the old table may have
  // found the left shard already holding its new root, or a husk that no
  // longer takes batches; the table it finds afterwards is then new. The
  // new root is installed under the lock that publishes its table
  // (publish()), so that reload cannot miss it.
  template <typename Read>
  auto routed(Read read) const {
    for (;;) {
      const std::shared_ptr<const Table> t = table();
      auto out = read(*t);
      if (t == table()) return out;
    }
  }

  std::vector<Item> entries() const {
    return routed([](const Table& t) {
      std::vector<Item> out;
      for (const auto& s : t.shards) {
        const std::vector<Item> part = s->entries();
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    });
  }

  // Installs the mutator's next partition and, in the same critical
  // section, the new root that moves keys between shards: the one the
  // rebalanced shard staged in split_off() or absorb()
  // (Index::complete_rebalance, which copies nothing). A read routed by the
  // new table then never finds a shard still holding keys the table gives
  // another, and one routed by the old table sees the table change and
  // re-reads; otherwise a range aggregate, size or item walk could count
  // those keys twice, once in each shard. The old table — and a husk only
  // it names — and the shard's replaced epoch are freed unless a reader
  // still holds them: they leave with `fresh` and `replaced`, after the
  // lock is released.
  void publish(Table next, I& rebalanced) {
    auto fresh = std::make_shared<const Table>(std::move(next));
    std::shared_ptr<const typename I::Epoch> replaced;
    std::lock_guard<std::mutex> lk(table_mu_);
    replaced = rebalanced.complete_rebalance();
    table_.swap(fresh);
  }

  // Mutator-side batch routing: slice the sorted batch against the current
  // partition, feed the heat EWMAs, then consider one structural change.
  template <typename T, typename Visit>
  void route(const std::vector<T>& batch, bool visit_empty, Visit visit) {
    const auto hold = owner_.hold();
    const Table& t = *table_;
    auto lo = batch.begin();
    for (std::size_t i = 0; i < t.shards.size(); ++i) {
      const auto hi = i < t.lowers.size()
                          ? std::lower_bound(lo, batch.end(), t.lowers[i],
                                             [](const T& x, Key b) {
                                               return adapt::key_of(x) < b;
                                             })
                          : batch.end();
      const std::span<const T> slice(lo, hi);
      if (!slice.empty() || visit_empty) visit(*t.shards[i], slice);
      if (cfg_.enabled) {
        std::lock_guard<std::mutex> lk(stats_mu_);
        heats_[i].record(slice, batch.size(), t.shards.size(), cfg_);
      }
      lo = hi;
    }
    if (cfg_.enabled) maybe_rebalance();
  }

  // At most one structural change per batch, rate-limited by the cooldown.
  // Split beats merge when both trigger (heat is the thing hurting now).
  void maybe_rebalance() {
    if (++since_change_ <= cfg_.cooldown) return;
    const std::size_t n = heats_.size();  // one per shard
    std::size_t hot = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (heats_[i].heat > heats_[hot].heat) hot = i;
    if (heats_[hot].heat > adapt::split_threshold(cfg_, n) &&
        n < std::max<std::size_t>(1, cfg_.max_shards) && try_split(hot)) {
      since_change_ = 0;
      return;
    }
    if (n <= std::max<std::size_t>(1, cfg_.min_shards)) return;
    std::size_t best = heats_.size();
    double best_sum = cfg_.low_cont;
    for (std::size_t i = 0; i + 1 < heats_.size(); ++i) {
      const double sum = heats_[i].heat + heats_[i + 1].heat;
      if (sum < best_sum) {
        best_sum = sum;
        best = i;
      }
    }
    if (best == heats_.size()) return;
    do_merge(best);
    since_change_ = 0;
  }

  bool try_split(std::size_t i) {
    const std::optional<Key> pivot = adapt::split_point(heats_[i].sample);
    if (!pivot) return false;  // traffic can't be cut (e.g. one hot key)
    // Phase 1: fork the pipelined split; shard i keeps answering for its
    // full range from the old tree.
    Table next = *table_;
    std::shared_ptr<I> right = next.shards[i]->split_off(*pivot);
    next.shards.insert(next.shards.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       std::move(right));
    next.lowers.insert(next.lowers.begin() + static_cast<std::ptrdiff_t>(i),
                       *pivot);
    {
      // Split the traffic record between the halves.
      std::lock_guard<std::mutex> lk(stats_mu_);
      adapt::Heat parent = std::move(heats_[i]);
      adapt::Heat l, r;
      l.heat = r.heat = parent.heat / 2.0;
      l.routed = r.routed = parent.routed / 2;
      for (Key k : parent.sample)
        (k < *pivot ? l : r).sample.push_back(k);
      heats_[i] = std::move(l);
      heats_.insert(heats_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    std::move(r));
      ++splits_;
    }
    // New readers now route >= pivot keys to the new shard (which answers
    // from the shared split output); a reader still on the old table
    // retries once it sees this one (routed()). Phase 2, the left shard
    // shrinking to its < pivot root, happens inside the publication.
    I& left = *next.shards[i];
    publish(std::move(next), left);
    return true;
  }

  void do_merge(std::size_t i) {
    Table next = *table_;
    // Chain the pipelined join onto shard i; the husk's pending work and
    // stores now belong to the survivor, which installs the joined root as
    // the table is published. The husk dies with the last table that names
    // it: the old one, or one a reader still holds (its stores live on in
    // the survivor's epoch).
    I& left = *next.shards[i];
    left.absorb(*next.shards[i + 1]);
    next.shards.erase(next.shards.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    next.lowers.erase(next.lowers.begin() + static_cast<std::ptrdiff_t>(i));
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      heats_[i].heat += heats_[i + 1].heat;
      heats_[i].routed += heats_[i + 1].routed;
      for (Key k : heats_[i + 1].sample) heats_[i].keep(k, cfg_.sample_cap);
      heats_.erase(heats_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      ++merges_;
    }
    publish(std::move(next), left);
  }

  adapt::Config cfg_;

  // The current partition. Only the mutator replaces it, under table_mu_;
  // readers copy it under table_mu_, the mutator reads it without.
  std::shared_ptr<const Table> table_;
  mutable std::mutex table_mu_;

  std::vector<adapt::Heat> heats_;  // one per shard; guarded by stats_mu_
  std::uint64_t since_change_ = 0;
  std::uint64_t splits_ = 0;  // guarded by stats_mu_
  std::uint64_t merges_ = 0;  // guarded by stats_mu_

  // Serializes the mutator's heat updates against stats()/shard_load().
  mutable std::mutex stats_mu_;
  detail::MutatorToken owner_;
};

}  // namespace pwf::rt
