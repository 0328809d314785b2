// rt::Index<E> — the pipelined batch service over one runtime treap, for
// any entry policy E of pipelined/treap_entry.hpp. ParallelSet (SetEntry)
// and ParallelMap<V, A> (MapEntry<V>, optionally augmented) are aliases of
// it; docs/service.md has the full contract.
//
// Each batch is one parallel treap union / difference / intersection
// (Sections 3.2–3.3 of the paper) executed on the coroutine futures
// runtime, rather than m sequential updates. Batches are asynchronous and
// pipelined across operations: a mutator chains its treap op onto the
// current root cell — which may still be materializing — and returns
// immediately. Successive batches overlap exactly as `union(union(t, b1),
// b2)` does inside the paper's algorithms; a small batch queued behind one
// that has not started, and whose root no read pinned, folds into it
// instead (`union(t, b1 ∪ b2)`, detail::GroupBase). Quiescence is explicit
// (`flush()`) or implied by the whole-tree reads (`size()` when stale,
// `keys()`/`items()`, `height()`); point reads (`contains`, `get`) force
// only the cells along their search path, so they run concurrently with
// in-flight batches and see the newest root published before they started.
//
// Map entries resolve a key collision with a value-merge function (sum for
// counters, last-writer-wins for stores, ...). An augmented entry (an
// AugOps policy like pipelined::treap::SumAug<V>) maintains A::combine over
// every subtree, so `aggregate(lo, hi)` forces only O(lg n) cells
// (docs/augmentation.md). Members whose signature depends on the entry are
// `requires`-constrained; every other member is one body for all entries.
//
// Thread contract: one mutator thread at a time (batches chain through a
// single root, like any sequential API; analyze builds abort on a second
// one); any number of concurrent reader threads. Every read walks a pin: a
// shared_ptr to the immutable storage epoch plus a root, taken together
// under a mutex that is never held while a read waits on a cell. compact()
// and absorb() publish a new epoch instead of changing the old one, so
// compact() may run beside readers without waiting for them: the old
// stores are freed when the last pin on them drops.
//
// The index borrows a Scheduler (one scheduler per process may be alive;
// see runtime/scheduler.hpp) and owns its node storage. Values must be
// trivially copyable and default constructible: they travel through future
// cells and arena nodes, like every value in the paper's model.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/rt_async.hpp"
#include "runtime/rt_map.hpp"
#include "runtime/scheduler.hpp"
#include "support/check.hpp"

#if PWF_ANALYZE
#include <thread>

#include "analyze/rt_recorder.hpp"
#endif

namespace pwf::rt {

// Service-layer observability (relaxed counters, like Scheduler::Stats).
struct IndexStats {
  std::uint64_t batches = 0;      // batch mutators issued
  std::uint64_t overlapped = 0;   // issued while the root was still materializing
  std::uint64_t max_pending = 0;  // high-water mark of unflushed batches
  std::uint64_t flushes = 0;      // quiescence points (explicit + implied)
  std::uint64_t epochs = 0;       // compactions (store replacements)
  std::uint64_t arena_bytes = 0;  // store + absorbed stores
  std::uint64_t folded = 0;       // batches appended to a queued group
};

// Software cache-economy of the current tree (docs/storage.md): storage
// composition plus arena footprint, for the E19/E24 columns.
struct IndexCacheEconomy {
  std::uint64_t internal_nodes = 0;  // one cache line each
  std::uint64_t leaf_chunks = 0;     // flat sorted runs
  std::uint64_t leaf_keys = 0;       // keys living inside chunks
  std::uint64_t leaf_ops = 0;        // chunk merges/splits on this store
  std::uint64_t arena_bytes = 0;     // store footprint
  std::uint64_t wasted_padding = 0;  // arena alignment + dead-tail waste
};

// Overwrite merge: the incoming value wins (assign_batch).
struct LastWins {
  template <typename V>
  V operator()(const V&, const V& incoming) const {
    return incoming;
  }
};

namespace detail {

// Sorted, duplicate-free copy of a key batch.
inline std::vector<map::Key> sorted_keys(std::span<const map::Key> keys) {
  std::vector<map::Key> out(keys.begin(), keys.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Key-sorted copy of an item batch, each set of equal keys pre-merged with
// `merge` in input order: merge(earlier, later), as separate batches would.
// An unsorted batch merges its equal keys through a hash table first and
// sorts only the distinct items: on a skewed 256-item batch that takes about
// half the time of a stable sort, and on distinct keys about as long. Keys
// that collide in the table past a probe budget take the stable sort
// instead, so crafted keys cannot make the pre-merge quadratic.
template <typename Item, typename Merge>
std::vector<Item> sorted_items(std::span<const Item> items, Merge merge) {
  const auto by_key = [](const Item& x, const Item& y) {
    return x.first < y.first;
  };
  std::vector<Item> out;
  // Open addressing, at most half full; a slot holds 1 + the index in `out`
  // of the key it took. False once the linear probes exceed the budget.
  const auto merge_by_hash = [&] {
    int bits = 1;
    while ((std::size_t{1} << bits) < 2 * items.size()) ++bits;
    std::vector<std::size_t> slot(std::size_t{1} << bits);
    std::size_t budget = 8 * items.size();
    out.reserve(items.size());
    for (const Item& it : items) {
      std::size_t h = (static_cast<std::uint64_t>(it.first) *
                       0x9E3779B97F4A7C15ull) >> (64 - bits);
      while (slot[h] != 0 && out[slot[h] - 1].first != it.first) {
        if (budget-- == 0) return false;
        h = (h + 1) & (slot.size() - 1);
      }
      if (slot[h] != 0) {
        out[slot[h] - 1].second = merge(out[slot[h] - 1].second, it.second);
      } else {
        out.push_back(it);
        slot[h] = out.size();
      }
    }
    return true;
  };
  if (std::is_sorted(items.begin(), items.end(), by_key)) {
    out.assign(items.begin(), items.end());
  } else if (merge_by_hash()) {
    std::sort(out.begin(), out.end(), by_key);
    return out;
  } else {
    out.assign(items.begin(), items.end());
    std::stable_sort(out.begin(), out.end(), by_key);
  }
  // Equal keys are adjacent, in input order.
  std::size_t n = 0;
  for (const Item& it : out) {
    if (n > 0 && out[n - 1].first == it.first)
      out[n - 1].second = merge(out[n - 1].second, it.second);
    else
      out[n++] = it;
  }
  out.resize(n);
  return out;
}

// The storage an index's tree lives in: the store its batches allocate in,
// plus the stores of shards it absorbed since the last compact() (the tree
// links their nodes). Immutable once published — compact() and absorb()
// publish a new one — so pinning it is one shared_ptr copy.
template <typename Store>
struct Epoch {
  std::shared_ptr<Store> store;
  std::vector<std::shared_ptr<const Store>> absorbed;
};

template <typename E>
using PinOf = rtasync::Pinned<Epoch<map::StoreOf<E>>, map::CellOf<E>>;

// The single-mutator rule, enforced in analyze builds: a mutator call holds
// its service's token while it runs, and a call from another thread
// meanwhile aborts. Release builds compile it to nothing.
struct MutatorToken {
#if PWF_ANALYZE
  std::atomic<std::thread::id> owner{};
  struct Hold {
    std::atomic<std::thread::id>& owner;
    ~Hold() { owner.store(std::thread::id{}); }
  };
  Hold hold() {
    std::thread::id none;
    const bool mine =
        owner.compare_exchange_strong(none, std::this_thread::get_id());
    PWF_CHECK_MSG(mine, "concurrent mutator calls on one service (one "
                        "mutator thread at a time)");
    return {owner};
  }
#else
  struct Hold {
    ~Hold() {}  // user-provided: no unused-variable warning at call sites
  };
  Hold hold() { return {}; }
#endif
};

// ---- batch groups -----------------------------------------------------------
//
// Every batch goes through a group: the runs of consecutive batches of one
// operation, applied by one fiber as one treap op into the one root cell
// the group publishes. The fiber is parked on the root it extends (posted,
// if that root is written); until it starts and claims the group, later
// batches of the same kind join it instead of starting their own —
// union(union(t, b1), b2) is union(t, b1 ∪ b2) — so an intermediate root no
// read pinned is never built. Any pin of the group's root closes it
// (docs/service.md).

// One group, type-erased for the index: `kind` names the operation and
// merge type (kind_of), so a batch joins only an open group of its own kind.
struct GroupBase {
  GroupBase(const void* k, bool takes_joiners)
      : kind(k), open(takes_joiners) {}
  const void* const kind;
  std::mutex mu;  // orders appends against the close; never held on a cell
  std::atomic<bool> open;  // takes batches; falls once, under mu

  void close() {
    if (!open.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lk(mu);
    open.store(false, std::memory_order_relaxed);
  }
};

// T is the run element: a key, or a (key, value) item.
template <typename T, typename Cell>
struct Group : GroupBase {
  using GroupBase::GroupBase;
  // The first batch's treap, built at issue as the chain always built it: a
  // group that stays one batch adds no work but the claim.
  Cell* first = nullptr;
  std::vector<T> joined;  // the later batches' runs, concatenated in order
};

template <typename Op>
inline constexpr char kKindTag = 0;
template <typename Op>
inline constexpr const void* kind_of = &kKindTag<Op>;

// Which batch ops fold: unions with a stateless merge (every batch's functor
// is then the same one) and differences. Folding intersections would
// intersect the runs; not worth a second rule.
template <typename Op>
inline constexpr bool kFolds = false;
template <typename Merge>
inline constexpr bool kFolds<map::Union<Merge>> = std::is_empty_v<Merge>;
template <>
inline constexpr bool kFolds<map::Diff> = true;

// The run a batch treap was built from, read back in key order: every cell
// of a treap built at issue is written.
template <typename T, typename Cell>
std::vector<T> run_of(Cell* c) {
  std::vector<T> out;
  pipelined::treap::visit_items(c, map::kPeek, [&](map::Key k, const auto& v) {
    if constexpr (std::is_same_v<T, map::Key>)
      out.push_back(k);
    else
      out.emplace_back(k, v);
  });
  return out;
}

// A group's fiber, run once `cur` is written (RtExec::fork_after): claims
// the group, which closes it, and applies its runs to `cur` into `out` —
// the first batch's treap as is, or one treap over every run, duplicates
// merged in call order (Store::build drops duplicate keys; item runs are
// pre-merged with the union's merge). It holds the group and the store,
// never the index: an absorbed husk may be destroyed while it runs.
template <typename Store, typename Cell, typename T, typename Op>
pipelined::Fiber apply_group(Store& st, Cell* cur,
                             std::shared_ptr<Group<T, Cell>> g, Cell* out,
                             Op op) {
  Cell* b = g->first;
  std::vector<T> joined;
  {
    std::lock_guard<std::mutex> lk(g->mu);
    g->open.store(false, std::memory_order_relaxed);
    joined = std::move(g->joined);
  }
  g.reset();
  if (!joined.empty()) {
    std::vector<T> runs = run_of<T>(b);
    runs.insert(runs.end(), joined.begin(), joined.end());
    joined = {};
    if constexpr (std::is_same_v<T, map::Key>)
      b = st.input(st.build(std::span<const T>(runs)));
    else
      b = st.input(
          st.build(std::span<const T>(sorted_items<T>(runs, op.merge))));
  }
  co_await op.body(st, cur, b, out);
}

}  // namespace detail

template <typename E>
class Index;
template <typename I>
class Sharded;

// Snapshot<E> — an immutable, epoch-pinned view of an Index (SetSnapshot,
// MapSnapshot<V, A>). It holds a pin on the epoch it was taken in, so its
// nodes stay alive across any number of later compact() calls. Reads are
// lock-free: the root cell is fixed and every reachable cell is written
// exactly once, so traversal waits on cells at most (a batch chained before
// the snapshot may still be materializing) and is plain loads afterwards.
template <typename E>
class Snapshot {
 public:
  using Key = map::Key;
  using Item = map::Item<E>;

  // Point reads force only the search path; the rest force the whole tree.
  bool contains(Key k) const {
    return map::lookup_wait(pin_.root, k).has_value();
  }
  std::optional<typename E::Value> get(Key k) const
    requires(E::kHasValue)
  {
    return map::lookup_wait(pin_.root, k);
  }
  std::size_t size() const { return map::wait_count(pin_.root); }
  std::vector<Key> keys() const
    requires(!E::kHasValue)
  {
    return map::wait_items(pin_.root);
  }
  std::vector<Item> items() const
    requires(E::kHasValue)
  {
    return map::wait_items(pin_.root);
  }
  // Range aggregate over keys in [lo, hi]: O(lg n) forced cells, combined
  // in key order.
  auto aggregate(Key lo, Key hi) const
    requires(E::kHasAug)
  {
    return map::aggregate_wait(pin_.root, lo, hi);
  }

 private:
  friend class Index<E>;
  explicit Snapshot(detail::PinOf<E> pin) : pin_(std::move(pin)) {}

  detail::PinOf<E> pin_;
};

template <typename E>
class Index {
 public:
  using Entry = E;
  using Key = map::Key;
  using Value = typename E::Value;
  using Item = map::Item<E>;  // a key for key-only entries, else (key, value)
  using Store = map::StoreOf<E>;
  using Cell = map::CellOf<E>;
  using Epoch = detail::Epoch<Store>;
  using Pin = detail::PinOf<E>;
  using Stats = IndexStats;
  using CacheEconomy = IndexCacheEconomy;
  static constexpr bool kMap = E::kHasValue;
  static constexpr bool kAug = E::kHasAug;

  explicit Index(Scheduler& sched,
                 std::uint64_t salt = pipelined::treap::kDefaultSalt,
                 std::size_t leaf_cap = map::kDefaultLeafCapacity)
      : sched_(sched),
        salt_(salt),
        leaf_cap_(leaf_cap),
        epoch_(fresh_epoch()),
        root_(store().input(nullptr)) {}

  // Initial contents (cheaper than insert_batch on an empty set).
  Index(Scheduler& sched, std::span<const Key> keys,
        std::uint64_t salt = pipelined::treap::kDefaultSalt,
        std::size_t leaf_cap = map::kDefaultLeafCapacity)
    requires(!kMap)
      : sched_(sched),
        salt_(salt),
        leaf_cap_(leaf_cap),
        epoch_(fresh_epoch()),
        root_(nullptr) {
    const std::vector<Key> sorted = detail::sorted_keys(keys);
    size_.store(sorted.size(), std::memory_order_relaxed);
    root_.store(store().input(store().build(sorted)),
                std::memory_order_release);
  }

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  // Fibers of a chained batch may still run (or park) after every cell of
  // the result tree is written — their outputs just aren't part of it — and
  // they read this index's arena until they finish, so the store may only
  // be freed at frame-pool quiescence. After ~Scheduler no worker can drain
  // them (fibers still queued at shutdown were dropped), so waiting would
  // hang: the index is torn down as-is. An absorbed husk skips the wait
  // too — the surviving shard owns its in-flight work now.
  ~Index() {
    if (released_) return;
    if (Scheduler::current() != nullptr) FramePool::wait_quiescent();
    drop_pending();
  }

  // ---- batch mutators -------------------------------------------------------
  //
  // One pipelined treap op each, chained onto the (possibly still
  // materializing) root; they return without joining. A batch may fold
  // into the queued batch ahead of it (detail::GroupBase): merges then run
  // in call order, so they must be associative. Input need not be sorted.
  // Duplicate keys within a batch are dropped (sets) or pre-merged with the
  // same function in input order (maps); a key already present gets
  // merge(old, new).

  void insert_batch(std::span<const Key> keys)  // set = set ∪ keys
    requires(!kMap)
  {
    if (!keys.empty()) union_batch([=] { return detail::sorted_keys(keys); });
  }
  template <typename Merge>
  void insert_batch(std::span<const Item> items, Merge merge)
    requires(kMap)
  {
    if (items.empty()) return;
    union_batch([=] { return detail::sorted_items(items, merge); }, merge);
  }
  void assign_batch(std::span<const Item> items)
    requires(kMap)
  {
    insert_batch(items, LastWins{});
  }
  void erase_batch(std::span<const Key> keys) {  // index \ keys
    if (!keys.empty()) diff_batch([=] { return detail::sorted_keys(keys); });
  }
  void retain_batch(std::span<const Key> keys)  // set = set ∩ keys
    requires(!kMap)
  {
    intersect_batch([=] { return detail::sorted_keys(keys); });
  }

  // ---- quiescence, epochs, snapshots ----------------------------------------

  // Blocks until every pending batch has fully materialized, and refreshes
  // the cached size. const: logically a read (all mutable state is
  // cache/accounting).
  void flush() const {
    const std::size_t n = read(map::wait_count<E>);
    size_.store(n, std::memory_order_relaxed);
    size_valid_.store(true, std::memory_order_relaxed);
    drop_pending();
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Async quiescence — the server-side flush (docs/service.md): spawns a
  // fiber that co_awaits every cell of the current epoch-pinned tree and
  // then writes `done`, so a server fiber can await quiescence without
  // blocking its worker thread. Observational only: counts a flush but
  // leaves pending/size accounting to the blocking paths — `done` covers
  // every batch chained before this call, none chained after it.
  void on_flush(FutCell<int>& done) const {
    spawn(rtasync::quiesce_fiber(std::vector<Pin>{pinned()}, &done));
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  // The epoch pin every read walks; O(1). It closes the queued group, so
  // the pinned root holds exactly the batches called before the pin.
  Pin pinned() const {
    std::lock_guard<std::mutex> lk(snap_mu_);
    if (queued_ != nullptr) queued_->close();
    return Pin{epoch_, root_.load(std::memory_order_acquire)};
  }

  // Pins the current epoch and root into an immutable lock-free view. May
  // be called from any reader thread; the snapshot stays valid (and its
  // reads race-free) across later batches and compactions — the pinned
  // stores retire only when the last snapshot holding them drops.
  Snapshot<E> snapshot() const { return Snapshot<E>(pinned()); }

  // Quiescence + storage epoch: rebuilds the index into a fresh chunked
  // store and frees every node superseded by past batches (the arena is
  // monotonic, so a long-lived service must compact periodically). Safe
  // against concurrent readers, and does not wait for them: the old epoch
  // — with the stores of absorbed shards — is freed when the last pin on
  // it drops. Still a mutator: one at a time, not concurrent with batches.
  void compact() {
    const auto hold = owner_.hold();
    const std::vector<Item> contents = entries();  // forces pending batches
    // Forcing the result tree is not fiber quiescence: stragglers whose
    // outputs aren't in the final tree still read the old arena.
    FramePool::wait_quiescent();
    std::shared_ptr<const Epoch> fresh = fresh_epoch();
    Cell* next = fresh->store->input(fresh->store->build(contents));
    publish(std::move(fresh), next);
    size_.store(contents.size(), std::memory_order_relaxed);
    size_valid_.store(true, std::memory_order_relaxed);
    drop_pending();
    epochs_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- reads ----------------------------------------------------------------

  // Point reads force only the search path (paper-style: a consumer
  // descends into a tree whose producer may still be writing it).
  bool contains(Key k) const {
    return read([k](Cell* r) { return map::lookup_wait(r, k).has_value(); });
  }
  std::optional<Value> get(Key k) const
    requires(kMap)
  {
    return read([k](Cell* r) { return map::lookup_wait(r, k); });
  }

  // Async point read: forces only the O(lg n) search-path cells with a
  // parked fiber and writes the Probe into `out` (E27's pipelined reply
  // path). Pipelines with in-flight batches like get(), without blocking.
  void probe_into(Key k, FutCell<rtasync::Probe<Value>>& out) const
    requires(kMap)
  {
    spawn(rtasync::probe_fiber(pinned(), k, &out));
  }

  // Range aggregate over keys in [lo, hi] on the live root: O(lg n) forced
  // cells, combine applied in key order.
  auto aggregate(Key lo, Key hi) const
    requires(kAug)
  {
    return read([=](Cell* r) { return map::aggregate_wait(r, lo, hi); });
  }

  std::size_t size() const {  // lazily maintained; recounts only when stale
    if (!size_valid_.load(std::memory_order_acquire)) flush();
    return size_.load(std::memory_order_relaxed);
  }
  bool empty() const { return size() == 0; }

  // In key order; these force the whole tree.
  std::vector<Key> keys() const
    requires(!kMap)
  {
    return entries();
  }
  std::vector<Item> items() const
    requires(kMap)
  {
    return entries();
  }
  int height() const {
    return read(
        [](Cell* r) { return pipelined::treap::height_of(r, map::kWait); });
  }

  Stats stats() const {
    Stats s;
    s.batches = batches_.load(std::memory_order_relaxed);
    s.overlapped = overlapped_.load(std::memory_order_relaxed);
    s.max_pending = max_pending_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    s.epochs = epochs_.load(std::memory_order_relaxed);
    s.folded = folded_.load(std::memory_order_relaxed);
    std::shared_ptr<const Epoch> e;  // no pin: reads no tree, closes nothing
    {
      std::lock_guard<std::mutex> lk(snap_mu_);
      e = epoch_;
    }
    s.arena_bytes = e->store->bytes_used();
    for (const auto& a : e->absorbed) s.arena_bytes += a->bytes_used();
    return s;
  }

  // Forces the whole tree. Walks a pin, so the store it reports on is the
  // one the walked root lives in, even across a concurrent compact().
  CacheEconomy cache_economy() const {
    const Pin p = pinned();
    const map::CacheEconomy ce = map::cache_economy(p.root);
    CacheEconomy out;
    out.internal_nodes = ce.internal_nodes;
    out.leaf_chunks = ce.leaf_chunks;
    out.leaf_keys = ce.leaf_keys;
    out.leaf_ops = p.epoch->store->leaf_ops();
    out.arena_bytes = p.epoch->store->bytes_used();
    out.wasted_padding = p.epoch->store->wasted_padding();
    return out;
  }

  // ---- adaptive-sharding rebalance protocol (docs/service.md) --------------
  //
  // Mutator-class calls used by the contention-adaptive rebalancer of
  // rt::Sharded. Both halves of a split and a merge are pipelined treap ops
  // chained like any batch: they return immediately and materialize on the
  // scheduler, overlapping in-flight batches.

  // Phase 1 of a split: forks a pipelined split at `pivot` and returns a new
  // index owning the keys >= pivot (sharing this index's epoch and salt, so
  // node priorities stay consistent across future joins). This index keeps
  // answering from the *full* pre-split tree until complete_rebalance()
  // installs the < pivot root — the caller does that while it publishes its
  // routing table, and a reader that routed by the old table re-reads.
  std::unique_ptr<Index> split_off(Key pivot) {
    const auto hold = owner_.hold();
    PWF_CHECK_MSG(staged_root_ == nullptr,
                  "split_off before the previous rebalance completed");
    Cell* cur = root_.load(std::memory_order_acquire);
    Cell* less = store().cell();
    Cell* geq = store().cell();
    map::split_maps(store(), cur, pivot, less, geq);
    // The >= half can link nodes from every store of this epoch (past
    // merges), so the new shard shares the epoch.
    auto right = std::unique_ptr<Index>(
        new Index(sched_, epoch_, geq, salt_, leaf_cap_));
    right->account_chain();
    staged_epoch_ = epoch_;
    staged_root_ = less;
    return right;
  }

  // Phase 1 of a merge: concatenates `right` — every key of which must be
  // >= every key of this index (adjacent shard ranges) — onto this pipeline
  // with a pipelined join. Like split_off(), it only stages the joined root,
  // with an epoch that adds right's stores (they stay until the next
  // compact()), and complete_rebalance() installs both. `right` becomes an
  // absorbed husk: its counters fold into this index's, and its destructor
  // skips quiescence (this pipeline owns the in-flight work now). A reader
  // that pinned the husk keeps its stores alive itself.
  void absorb(Index& right) {
    const auto hold = owner_.hold();
    PWF_CHECK_MSG(&right != this && !right.released_, "bad absorb operand");
    PWF_CHECK_MSG(staged_root_ == nullptr && right.staged_root_ == nullptr,
                  "absorb during an incomplete rebalance");
    Cell* a = root_.load(std::memory_order_acquire);
    Cell* b = right.root_.load(std::memory_order_acquire);
    // The join allocates in *this* store and links right's nodes, so right's
    // stores stay in this index's epoch until compact() rebuilds.
    staged_root_ = map::join_maps(store(), a, b);
    Epoch next = *epoch_;
    next.absorbed.push_back(right.epoch_->store);
    next.absorbed.insert(next.absorbed.end(), right.epoch_->absorbed.begin(),
                         right.epoch_->absorbed.end());
    staged_epoch_ = std::make_shared<const Epoch>(std::move(next));
    // Fold the husk's counters into the surviving pipeline: transferring
    // pending keeps the analyze-mode chained/flushed ledger balanced.
    const auto fold = [](auto& into, const auto& from) {
      into.fetch_add(from.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    };
    fold(batches_, right.batches_);
    fold(overlapped_, right.overlapped_);
    fold(flushes_, right.flushes_);
    fold(epochs_, right.epochs_);
    fold(folded_, right.folded_);
    raise_max_pending(right.max_pending_.load(std::memory_order_relaxed));
    pending_.fetch_add(right.pending_.exchange(0, std::memory_order_relaxed),
                       std::memory_order_relaxed);
    right.released_ = true;
  }

  // Phase 2 of a split or a merge: installs the root and epoch that
  // split_off() or absorb() staged. It copies nothing, so the caller may run
  // it inside the critical section that publishes its routing table; it
  // returns the replaced epoch, for the caller to free after that section.
  [[nodiscard]] std::shared_ptr<const Epoch> complete_rebalance() {
    const auto hold = owner_.hold();
    PWF_CHECK_MSG(staged_root_ != nullptr,
                  "complete_rebalance without a split_off or absorb");
    account_chain();
    return publish(std::move(staged_epoch_),
                   std::exchange(staged_root_, nullptr));
  }

  // Unflushed batch depth of this pipeline (adaptive heat stats).
  std::uint64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  template <typename>
  friend class Sharded;

  // Shares an existing epoch: the >= pivot half made by split_off().
  Index(Scheduler& sched, std::shared_ptr<const Epoch> epoch, Cell* root,
        std::uint64_t salt, std::size_t leaf_cap)
      : sched_(sched),
        salt_(salt),
        leaf_cap_(leaf_cap),
        epoch_(std::move(epoch)),
        root_(root) {
    size_valid_.store(false, std::memory_order_relaxed);
  }

  std::shared_ptr<const Epoch> fresh_epoch() const {
    return std::make_shared<const Epoch>(
        Epoch{std::make_shared<Store>(salt_, leaf_cap_), {}});
  }

  // The store batches allocate in. Mutator side: only the mutator replaces
  // epoch_, so it reads it without snap_mu_.
  Store& store() const { return *epoch_->store; }

  // Installs a new epoch and its root together, so pinned() never pairs a
  // root with the wrong epoch, and drops the queued group, whose root the
  // step that built `root` consumed. Returns the replaced epoch: it is freed
  // when the caller drops it, unless a reader still pins it.
  std::shared_ptr<const Epoch> publish(std::shared_ptr<const Epoch> epoch,
                                       Cell* root) {
    std::lock_guard<std::mutex> lk(snap_mu_);
    epoch_.swap(epoch);
    root_.store(root, std::memory_order_release);
    queued_.reset();
    return epoch;
  }

  // The batch ops, shared with the router. `sorted()` yields the batch
  // key-sorted and duplicate-free (keys, or items for a union on a map).
  template <typename Sorted, typename Merge = pipelined::treap::FirstWins>
  void union_batch(Sorted sorted, Merge merge = {}) {
    chain_batch(sorted, map::Union<Merge>{merge});
  }
  template <typename Sorted>
  void diff_batch(Sorted sorted) {
    chain_batch(sorted, map::Diff{});
  }
  template <typename Sorted>
  void intersect_batch(Sorted sorted) {
    chain_batch(sorted, map::Intersect{});
  }

  // Appends the batch's run to the queued group if that group is of the
  // same kind and still open; otherwise starts a new group parked on the
  // root and publishes the group's root. A group that cannot fold starts
  // closed: an intersection, a stateful merge, or a batch above the serial
  // threshold, whose pipelined bodies publish their root first, so the
  // batches behind it overlap it already — only the path bodies of small
  // batches write the root last and run a chain one batch at a time. The
  // overlap check precedes sorting: a batch overlaps when its call finds
  // the previous one still materializing.
  template <typename Sorted, typename Op>
  void chain_batch(Sorted sorted, Op op) {
    const auto hold = owner_.hold();
    Cell* cur = root_.load(std::memory_order_acquire);
    if (!cur->written()) overlapped_.fetch_add(1, std::memory_order_relaxed);
    auto run = sorted();
    using T = typename decltype(run)::value_type;
    batches_.fetch_add(1, std::memory_order_relaxed);
    // Account before the run becomes visible, so a reader that sees it also
    // sees size_valid_ == false.
    account_chain();
    const bool folds = detail::kFolds<Op> &&
                       run.size() <= pipelined::RtExec::kDefaultSerialThreshold;
    if (folds && queued_ != nullptr && queued_->kind == detail::kind_of<Op> &&
        queued_->open.load(std::memory_order_acquire)) {
      auto& g = static_cast<detail::Group<T, Cell>&>(*queued_);
      std::lock_guard<std::mutex> lk(g.mu);
      if (g.open.load(std::memory_order_relaxed)) {
        g.joined.insert(g.joined.end(), run.begin(), run.end());
        folded_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    auto g =
        std::make_shared<detail::Group<T, Cell>>(detail::kind_of<Op>, folds);
    g->first = store().input(store().build(std::span<const T>(run)));
    Cell* next = store().cell();
    pipelined::RtExec{}.fork_after(
        cur, detail::apply_group(store(), cur, g, next, op));
    std::lock_guard<std::mutex> lk(snap_mu_);
    root_.store(next, std::memory_order_release);
    queued_ = std::move(g);
  }

  // The pending/size bookkeeping of a chained op (rebalance ops account
  // here too: they are pipeline work, not batches).
  void account_chain() {
#if PWF_ANALYZE
    analyze::note_pipeline_chained();
#endif
    raise_max_pending(pending_.fetch_add(1, std::memory_order_relaxed) + 1);
    size_valid_.store(false, std::memory_order_relaxed);
  }

  void raise_max_pending(std::uint64_t depth) {
    std::uint64_t hw = max_pending_.load(std::memory_order_relaxed);
    while (depth > hw && !max_pending_.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
  }

  // Every chained op has materialized: clear the pending depth (and balance
  // the analyze-mode chained/flushed ledger).
  void drop_pending() const {
#if PWF_ANALYZE
    analyze::note_pipeline_flushed(
        pending_.exchange(0, std::memory_order_relaxed));
#else
    pending_.store(0, std::memory_order_relaxed);
#endif
  }

  // Runs `walk(root)` on a pin, which keeps the walked epoch alive however
  // many compactions publish meanwhile.
  template <typename Walk>
  auto read(Walk walk) const {
    const Pin p = pinned();
    return walk(p.root);
  }

  // Every entry in key order, in the form Store::build takes back.
  std::vector<Item> entries() const { return read(map::wait_items<E>); }

  Scheduler& sched_;
  std::uint64_t salt_;
  std::size_t leaf_cap_;
  // Replaced, never changed, by compact() and absorb(); readers copy it
  // under snap_mu_.
  std::shared_ptr<const Epoch> epoch_;
  // The root and epoch split_off() or absorb() staged for
  // complete_rebalance().
  Cell* staged_root_ = nullptr;
  std::shared_ptr<const Epoch> staged_epoch_;
  // Set by absorb() on the absorbed husk: its in-flight work now belongs to
  // the surviving pipeline, so the destructor must not wait for it.
  bool released_ = false;
  std::atomic<Cell*> root_;
  // The newest group, whose root is root_, while batches may join it.
  // Replaced by the mutator under snap_mu_; pinned() closes it.
  std::shared_ptr<detail::GroupBase> queued_;

  // Pairs (epoch_, root_, queued_) for pinned() against the mutator. Never
  // held while waiting on cells or merging, so pinned() is O(1).
  mutable std::mutex snap_mu_;
  detail::MutatorToken owner_;

  mutable std::atomic<std::size_t> size_{0};
  mutable std::atomic<bool> size_valid_{true};
  mutable std::atomic<std::uint64_t> pending_{0};
  mutable std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> overlapped_{0};
  std::atomic<std::uint64_t> max_pending_{0};
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> folded_{0};
};

}  // namespace pwf::rt
