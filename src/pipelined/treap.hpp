// Single-source treaps (the paper's Sections 3.2–3.3) — splitm, union,
// join, difference, intersection, plus the strict fork-join baselines —
// written once against the substrate concept (docs/substrates.md) and
// instantiated by src/treap (cost model), src/runtime/rt_treap (coroutine
// runtime sets) and src/runtime/rt_map (coroutine runtime maps).
//
// Every body is parameterized on an Entry policy E (treap_entry.hpp):
//   * SetEntry keeps the paper's key-only semantics — all payload and
//     augmentation statements are `if constexpr`-dead, so the recorded
//     cost-model counts are bit-identical to the key-only formulation;
//   * MapEntry<V> carries a value; union takes a Merge functor applied in
//     *operand* order (merge(value_in_a, value_in_b), tracked by `flip`
//     across the priority swaps), difference drops b's values;
//   * AugEntry adds a PAM-style augmentation: each node owns one extra
//     future cell holding combine() over its subtree, recomputed by a
//     forked aug_into fiber per rebuilt node — the aggregate flows through
//     the same pipelined DAG as the structure itself (docs/augmentation.md).
//
// Priorities are derived from keys by hashing (splitmix64 with a store-wide
// salt), so a key has the same priority in every treap of a store; this
// preserves the paper's randomness assumption because the hash is a PRF of
// the key. The hash is computed once per key at build time and cached in the
// node / leaf-entry record; the hot bodies below only ever compare cached
// priorities.
//
// Storage is B-treap-style (docs/storage.md): internal nodes keep the
// key/priority/child layout in one cache line, while subtrees below the
// store's leaf capacity collapse into sorted flat chunks of LeafEntryT that
// the serial fast paths process branch-free. Substrates opt in through
// P::kMaxLeafCapacity — the cost model pins it to 0, so every leaf branch is
// `if constexpr`-dead there and the recorded DAG counts stay bit-identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "pipelined/exec.hpp"
#include "pipelined/treap_entry.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace pwf::pipelined::treap {

template <typename P, typename E = SetEntry>
struct Node;

template <typename P, typename E = SetEntry>
using Cell = typename P::template Cell<Node<P, E>*>;

// One key of a flat leaf chunk. The priority is cached alongside the key so
// re-chunking (slices, merges, joins) never rehashes; the value column
// vanishes for key-only entries.
template <typename E>
struct LeafEntryT {
  Key key = 0;
  Pri pri = 0;
  [[no_unique_address]] typename E::Value value{};
};

// Key-only alias, kept for the set-facade code that scans chunks directly.
using LeafEntry = LeafEntryT<SetEntry>;

// A key-sorted, duplicate-free range of an immutable entry array: a leaf
// chunk's entries, or the small operand of a path body (docs/runtime.md).
// Narrowing a run is index arithmetic and allocates nothing.
template <typename E>
using Run = std::span<const LeafEntryT<E>>;

// Index of a non-empty run's max-priority entry: the root its treap has.
template <typename E>
std::size_t top_of(Run<E> r) {
  std::size_t top = 0;
  for (std::size_t i = 1; i < r.size(); ++i)
    if (r[i].pri > r[top].pri) top = i;
  return top;
}

namespace detail {

// Augmented nodes own one extra future cell: the subtree aggregate, written
// by the aug_into fiber (or preset by the chunk builders). Empty base for
// unaugmented entries so the node layout doesn't move.
template <typename P, typename E, bool = E::kHasAug>
struct AugBase {};

template <typename P, typename E>
struct AugBase<P, E, true> {
  typename P::template Cell<typename E::AugOps::Aug>* aug = nullptr;
};

}  // namespace detail

// A node is either *internal* (items == nullptr; left/right are cells) or a
// *leaf view* (items != nullptr; left/right unused): a window [items,
// items+count) into an immutable, key-sorted, arena-backed entry array. A
// leaf's key/pri/value mirror its maximum-priority entry (items[root_pos]) —
// the root the subtree would have had — so every priority comparison in the
// bodies below works on leaves unchanged.
template <typename P, typename E>
struct Node : detail::AugBase<P, E> {
  using Policy = P;
  using Entry = E;

  Key key = 0;
  Pri pri = 0;
  [[no_unique_address]] typename E::Value value{};
  typename P::Time created{};  // t(v) (cost model only)
  Cell<P, E>* left = nullptr;
  Cell<P, E>* right = nullptr;
  const LeafEntryT<E>* items = nullptr;  // leaf view into a sorted chunk
  std::uint32_t count = 0;               // number of entries in the view
  std::uint32_t root_pos = 0;            // index of the max-priority entry
};

template <typename P, typename E>
bool is_leaf(const Node<P, E>* n) {
  return n != nullptr && n->items != nullptr;
}

inline constexpr std::uint64_t kDefaultSalt = 0x9e3779b97f4a7c15ULL;

// Default flat-chunk capacity: picked by the bench_e19 --leaf-cap sweep
// (BENCH_e19.json); tunable per Store.
inline constexpr std::size_t kDefaultLeafCapacity = 32;

template <typename P, typename E = SetEntry>
class Store {
 public:
  using Context = typename P::Context;
  using Entry = E;
  using Value = typename E::Value;
  using AugValue = typename AugTraits<E>::Aug;

  // Internal nodes must stay within one cache line — the point of caching
  // the priority and packing the leaf view into the node record. Augmented
  // nodes spend one extra pointer on the aggregate cell; payloads beyond a
  // word trade the line for locality of the payload itself.
  static_assert(E::kHasAug || sizeof(Value) > 8 || sizeof(Node<P, E>) <= 64,
                "treap::Node must fit in a 64-byte cache line");

  explicit Store(Context ctx, std::uint64_t salt = kDefaultSalt,
                 std::size_t leaf_cap = kDefaultLeafCapacity)
      : ctx_(std::move(ctx)), salt_(salt), leaf_cap_(clamp_cap(leaf_cap)) {}
  explicit Store(std::uint64_t salt = kDefaultSalt,
                 std::size_t leaf_cap = kDefaultLeafCapacity)
    requires std::default_initializable<Context>
      : salt_(salt), leaf_cap_(clamp_cap(leaf_cap)) {}

  decltype(auto) engine() { return ctx_.engine(); }

  Pri priority(Key k) const {
    std::uint64_t x = static_cast<std::uint64_t>(k) ^ salt_;
    return splitmix64(x);
  }

  // Effective flat-chunk capacity: 1 means "no chunking" (every key is its
  // own node); the substrate's kMaxLeafCapacity bounds it from above.
  std::size_t leaf_capacity() const { return leaf_cap_; }

  Cell<P, E>* cell() { return arena_.template create<Cell<P, E>>(); }

  Cell<P, E>* input(Node<P, E>* root) {
    Cell<P, E>* c = cell();
    P::preset(*c, root);
    return c;
  }

  Node<P, E>* make(Key key, Pri pri, Cell<P, E>* l, Cell<P, E>* r) {
    Node<P, E>* n = create_node();
    n->key = key;
    n->pri = pri;
    n->left = l;
    n->right = r;
    return n;
  }

  Node<P, E>* make(Key key, Pri pri) { return make(key, pri, cell(), cell()); }

  Node<P, E>* make_ready(Key key, Pri pri, Node<P, E>* l, Node<P, E>* r) {
    return make(key, pri, input(l), input(r));
  }

  // 64-byte-aligned chunk storage for leaf entries.
  LeafEntryT<E>* alloc_entries(std::size_t n) {
    return static_cast<LeafEntryT<E>*>(
        arena_.allocate(n * sizeof(LeafEntryT<E>), 64));
  }

  // Leaf view over a non-empty run, mirroring its max-priority entry. The
  // chunk is fully materialized data, so an augmented leaf's aggregate is
  // preset here — leaf aug cells are *always* readable.
  Node<P, E>* make_leaf(Run<E> r) {
    const std::size_t rp = top_of(r);
    Node<P, E>* n = create_node();
    n->key = r[rp].key;
    n->pri = r[rp].pri;
    n->value = r[rp].value;
    n->items = r.data();
    n->count = static_cast<std::uint32_t>(r.size());
    n->root_pos = static_cast<std::uint32_t>(rp);
    if constexpr (E::kHasAug) {
      using Ops = typename E::AugOps;
      AugValue acc = Ops::identity();
      for (const LeafEntryT<E>& e : r)
        acc = Ops::combine(acc, Ops::from_entry(e.key, e.value));
      P::preset(*n->aug, acc);
    }
    return n;
  }

  // Treap over a run: runs at or below the leaf capacity become flat
  // chunks, larger ones get an internal node at the max-priority entry.
  // Equivalent (same keys, same heap/BST shape above the chunks) to the
  // node-per-key treap over the same keys. Aggregates are preset bottom-up
  // (children are complete when the parent is made).
  Node<P, E>* chunked(Run<E> r) {
    if (r.empty()) return nullptr;
    if (r.size() <= leaf_cap_) return make_leaf(r);
    const std::size_t rp = top_of(r);
    Node<P, E>* l = chunked(r.first(rp));
    Node<P, E>* rt = chunked(r.subspan(rp + 1));
    Node<P, E>* n = make(r[rp].key, r[rp].pri, input(l), input(rt));
    n->value = r[rp].value;
    if constexpr (E::kHasAug) {
      using Ops = typename E::AugOps;
      AugValue acc = Ops::identity();
      if (l != nullptr) acc = Ops::combine(acc, P::peek(l->aug));
      acc = Ops::combine(acc, Ops::from_entry(n->key, n->value));
      if (rt != nullptr) acc = Ops::combine(acc, P::peek(rt->aug));
      P::preset(*n->aug, acc);
    }
    return n;
  }

  // Treap over a run in this store's layout: chunked, or node-per-key by
  // the right-spine method when chunking is off (leaf capacity 1).
  Node<P, E>* treap_of(Run<E> r) {
    if (leaf_cap_ > 1) return chunked(r);
    return spine(r.size(), [&](std::size_t i) { return r[i]; });
  }

  // Builds a treap over the given keys (input data; costs nothing in the
  // model). Keys are sorted and deduplicated. With chunking enabled the tree
  // is built over a flat entry array (hashing each priority exactly once);
  // otherwise construction is the O(n) right-spine (Cartesian tree) method.
  Node<P, E>* build(std::span<const Key> keys) {
    std::vector<Key> sorted(keys.begin(), keys.end());
    // Service batches arrive sorted already; checking is O(n).
    if (!std::is_sorted(sorted.begin(), sorted.end()))
      std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

    if constexpr (P::kMaxLeafCapacity > 0) {
      if (leaf_cap_ > 1 && !sorted.empty()) {
        LeafEntryT<E>* e = alloc_entries(sorted.size());
        for (std::size_t i = 0; i < sorted.size(); ++i)
          e[i] = {sorted[i], priority(sorted[i])};
        return chunked(Run<E>(e, sorted.size()));
      }
    }
    return spine(sorted.size(), [&](std::size_t i) {
      return LeafEntryT<E>{sorted[i], priority(sorted[i])};
    });
  }

  // Construction over key-sorted, duplicate-free (key, value) items (input
  // data): hashes each priority once into a flat item array, then chunks it.
  // With leaf_cap == 1 falls back to the O(n) right-spine method.
  Node<P, E>* build(std::span<const std::pair<Key, Value>> sorted)
    requires(E::kHasValue)
  {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (leaf_cap_ > 1 && !sorted.empty()) {
        LeafEntryT<E>* e = alloc_entries(sorted.size());
        for (std::size_t i = 0; i < sorted.size(); ++i)
          e[i] = {sorted[i].first, priority(sorted[i].first),
                  sorted[i].second};
        return chunked(Run<E>(e, sorted.size()));
      }
    }
    return spine(sorted.size(), [&](std::size_t i) {
      return LeafEntryT<E>{sorted[i].first, priority(sorted[i].first),
                           sorted[i].second};
    });
  }

  std::size_t bytes_used() const { return arena_.bytes_used(); }

  // Arena monitoring passthrough; only instantiated for arenas that track
  // padding (the runtime's ConcurrentArena).
  std::size_t wasted_padding() const { return arena_.wasted_padding(); }

  // Leaf-chunk operations (merge/split/concat of flat runs) performed
  // against this store, across all substrates and both the serial and
  // pipelined paths. Relaxed: a monitoring counter, like arena bytes.
  void note_leaf_op() const {
    leaf_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t leaf_ops() const {
    return leaf_ops_.load(std::memory_order_relaxed);
  }

 private:
  Node<P, E>* create_node() {
    Node<P, E>* n = arena_.template create<Node<P, E>>();
    if constexpr (E::kHasAug)
      n->aug = arena_.template create<
          typename P::template Cell<typename E::AugOps::Aug>>();
    return n;
  }

  // O(n) right-spine (Cartesian tree) construction over `n` key-sorted,
  // duplicate-free entries, the i-th given by at(i). Each new (larger) key
  // pops smaller-priority spine nodes and adopts the popped chain as its
  // left subtree. Adopted links get fresh preset cells (runtime cells are
  // write-once, so the placeholder can't be rewritten).
  template <typename At>
  Node<P, E>* spine(std::size_t n, At at) {
    std::vector<Node<P, E>*> stack;
    stack.reserve(64);
    for (std::size_t i = 0; i < n; ++i) {
      const LeafEntryT<E> e = at(i);
      Node<P, E>* node = make_ready(e.key, e.pri, nullptr, nullptr);
      node->value = e.value;
      Node<P, E>* last_popped = nullptr;
      while (!stack.empty() && stack.back()->pri < node->pri) {
        last_popped = stack.back();
        stack.pop_back();
      }
      if (last_popped != nullptr) node->left = input(last_popped);
      if (!stack.empty()) stack.back()->right = input(node);
      stack.push_back(node);
    }
    Node<P, E>* root = stack.empty() ? nullptr : stack.front();
    if constexpr (E::kHasAug) preset_augs(root);
    return root;
  }

  // Bottom-up aggregate preset for spine-built trees (every cell of the
  // tree is already preset, so peeking children is safe).
  AugValue preset_augs(Node<P, E>* n)
    requires(E::kHasAug)
  {
    using Ops = typename E::AugOps;
    if (n == nullptr) return Ops::identity();
    if (is_leaf(n)) return P::peek(n->aug);
    AugValue acc = preset_augs(P::peek(n->left));
    acc = Ops::combine(acc, Ops::from_entry(n->key, n->value));
    acc = Ops::combine(acc, preset_augs(P::peek(n->right)));
    P::preset(*n->aug, acc);
    return acc;
  }

  static std::size_t clamp_cap(std::size_t req) {
    if constexpr (P::kMaxLeafCapacity == 0) {
      return 1;
    } else {
      return std::min(std::max<std::size_t>(req, 1), P::kMaxLeafCapacity);
    }
  }

  Context ctx_;
  std::uint64_t salt_ = kDefaultSalt;
  std::size_t leaf_cap_ = 1;
  mutable std::atomic<std::uint64_t> leaf_ops_{0};
  typename P::Arena arena_;
};

// Publishes a node into its destination cell, stamping t(v) where the
// substrate keeps timestamps.
template <typename Ex, typename P, typename E>
void publish(Ex ex, Cell<P, E>* out, Node<P, E>* n) {
  ex.write(out, n);
  if constexpr (P::kHasTimestamps) {
    if (n) n->created = out->ts;
  }
}

template <typename P, typename C>
auto peek(const C* c) {
  return P::peek(c);
}

// ---- augmentation -----------------------------------------------------------

// Recomputes one rebuilt internal node's aggregate from its children. This
// is itself a pipelined consumer: it touches the child cells and the child
// aggregate cells, so the aggregate flows bottom-up through the same future
// DAG as the structure (the paper's pipelining argument, applied to PAM-style
// augmentation). Leaf chunks never get here — their aggregates are preset by
// make_leaf. Note the deliberate CREW reads: an aug fiber re-reads cells the
// structural fibers also read, so augmented traces are verified with the
// EREW/linearity checks relaxed (docs/augmentation.md).
template <typename Ex, typename P, typename E>
Fiber aug_into(Ex ex, Node<P, E>* n) {
  using Ops = typename E::AugOps;
  typename E::AugOps::Aug acc = Ops::identity();
  Node<P, E>* l = co_await ex.touch(n->left);
  if (l != nullptr) acc = Ops::combine(acc, co_await ex.touch(l->aug));
  acc = Ops::combine(acc, Ops::from_entry(n->key, n->value));
  Node<P, E>* r = co_await ex.touch(n->right);
  if (r != nullptr) acc = Ops::combine(acc, co_await ex.touch(r->aug));
  ex.on_aug_op();
  ex.write(n->aug, acc);
}

namespace detail {

// Deferred aug_into forks for the progressive bodies (splitm, join): their
// nodes are published *before* the child cells are written, so the aug
// fibers can only be forked at the body's exits — in reverse creation order,
// because later nodes are descendants of earlier ones and the eager
// substrates require a valid topological fork order. Empty (and free) for
// unaugmented entries.
template <typename P, typename E, bool = E::kHasAug>
struct AugPending {
  void add(Node<P, E>*) {}
  template <typename Ex>
  void flush(Ex) {}
};

template <typename P, typename E>
struct AugPending<P, E, true> {
  std::vector<Node<P, E>*> nodes;
  void add(Node<P, E>* n) { nodes.push_back(n); }
  template <typename Ex>
  void flush(Ex ex) {
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it)
      ex.fork(aug_into(ex, *it));
    nodes.clear();
  }
};

// Forks the aggregate recomputation for one freshly built node whose child
// cells are already linked (the non-progressive creation sites).
template <typename Ex, typename P, typename E>
void fork_aug(Ex ex, Node<P, E>* n) {
  if constexpr (E::kHasAug) ex.fork(aug_into(ex, n));
}

}  // namespace detail

// The pipelined bodies (defined below) are forked from the path-bounded
// serial bodies wherever those meet a cell that is not yet written.
template <typename Ex, typename P, typename E, typename Merge = FirstWins>
Fiber union_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                 Cell<P, E>* out, Merge merge = {}, bool flip = false);
template <typename Ex, typename P, typename E>
Fiber diff_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                Cell<P, E>* out);
template <typename Ex, typename P, typename E>
Fiber intersect_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                     Cell<P, E>* out);
template <typename Ex, typename P, typename E>
Fiber join_entry(Ex ex, Store<P, E>& st, Cell<P, E>* l, Cell<P, E>* r,
                 Cell<P, E>* out);

// ---- path-bounded serial bodies (granularity control) -----------------------
//
// When the lower-priority operand of a union, difference or intersection is
// fully written and holds at most Ex::serial_threshold() keys (a leaf chunk
// counts its keys), a plain recursion applies that small operand to the
// large one instead of forking the pipelined body. The small operand enters
// the recursion as a run (docs/runtime.md): a leaf chunk's entries as they
// stand, any other small tree copied once in key order into one arena
// array. Splitting a run is a binary search and finding its root a scan, so
// the small side allocates nothing on the way down, and at a large-side
// leaf chunk one merge over the two entry ranges absorbs the whole run. The
// recursion touches the large operand only along the run's search paths and
// links every large-side cell it never reaches into the result as the same
// cell — no touch, copy or fiber — so the work is the paper's O(m lg(n/m))
// in the small size m. It only peeks cells that are already written: at a
// large-side cell that is not, or where a run's root outranks a large
// subtree whose search path is not yet written, it builds that piece of the
// run into a treap, forks the pipelined body for it and links the fork's
// output cell. When every cell is written (always, on the eager recording
// substrate) nothing is forked. The bodies mirror the pipelined semantics —
// value merge order, aggregates, and which side's value an intersection
// keeps — except that a run meets a large-side chunk the way one chunk meets
// another, whatever the run's length. Dead on the cost-model substrates
// (threshold 0), as is every leaf branch (kMaxLeafCapacity 0).

namespace detail {

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

template <typename P, typename E>
struct SerialSplit {
  Node<P, E>* less = nullptr;
  Node<P, E>* greater = nullptr;
  Node<P, E>* equal = nullptr;
};

// ---- leaf-chunk primitives --------------------------------------------------
//
// Only instantiated when P::kMaxLeafCapacity > 0. All of them operate on
// runs of the immutable entry arrays, so slices share storage with their
// source and only merges/joins allocate new chunks. Each one is a leaf op,
// counted on the executor (with the keys it covers) and on the store.

template <typename Ex, typename P, typename E>
void count_leaf_op(Ex ex, const Store<P, E>& st, std::size_t keys) {
  ex.on_leaf_op(keys);
  st.note_leaf_op();
}

// A leaf chunk's entries.
template <typename P, typename E>
Run<E> run_of(const Node<P, E>* leaf) {
  return {leaf->items, leaf->count};
}

// Leaf view over a run; nullptr for an empty one.
template <typename P, typename E>
Node<P, E>* leaf_slice(Store<P, E>& st, Run<E> r) {
  return r.empty() ? nullptr : st.make_leaf(r);
}

// Rewrites a leaf as an internal node (same key/pri/value, preset side
// slices) so the pipelined bodies can hand out child cells. The opened node
// is only ever consumed as an operand (never published), but its aggregate
// is preset anyway — copied from the leaf — so every node keeps the "aug
// cell readable or in flight" invariant.
template <typename P, typename E>
Node<P, E>* open_leaf(Store<P, E>& st, Node<P, E>* t) {
  const Run<E> r = run_of(t);
  Node<P, E>* n =
      st.make(t->key, t->pri, st.input(leaf_slice(st, r.first(t->root_pos))),
              st.input(leaf_slice(st, r.subspan(t->root_pos + 1))));
  n->value = t->value;
  if constexpr (E::kHasAug) P::preset(*n->aug, P::peek(t->aug));
  return n;
}

// A run split by key s: the entries below and above s, and the entry with
// key s if there is one. One binary search; allocates nothing.
template <typename E>
struct RunSplit {
  Run<E> less;
  Run<E> greater;
  const LeafEntryT<E>* equal = nullptr;
};

template <typename E>
RunSplit<E> split_run(Run<E> r, Key s) {
  const auto it = std::partition_point(
      r.begin(), r.end(), [s](const LeafEntryT<E>& e) { return e.key < s; });
  const auto lo = static_cast<std::size_t>(it - r.begin());
  if (lo < r.size() && r[lo].key == s)
    return {r.first(lo), r.subspan(lo + 1), &r[lo]};
  return {r.first(lo), r.subspan(lo), nullptr};
}

// splitm on a flat chunk: one binary search, two zero-copy slices. The equal
// verdict is a one-entry leaf view carrying the value (the set path only
// null-checks it).
template <typename Ex, typename P, typename E>
SerialSplit<P, E> split_leaf(Ex ex, Store<P, E>& st, Key s,
                             const Node<P, E>* t) {
  count_leaf_op(ex, st, t->count);
  const RunSplit<E> sp = split_run(run_of(t), s);
  return {leaf_slice(st, sp.less), leaf_slice(st, sp.greater),
          sp.equal != nullptr ? st.make_leaf(Run<E>(sp.equal, 1)) : nullptr};
}

// Sorted-array union of two runs; a shared key keeps
// merge(value_in_a, value_in_b) (`flip` says (a, b) arrived swapped relative
// to the caller's operand order). Re-chunks the merged array (an internal
// spine appears only above the capacity).
template <typename Ex, typename P, typename E, typename Merge>
Node<P, E>* leaf_union(Ex ex, Store<P, E>& st, Run<E> a, Run<E> b,
                       Merge merge, bool flip) {
  count_leaf_op(ex, st, a.size() + b.size());
  LeafEntryT<E>* out = st.alloc_entries(a.size() + b.size());
  const LeafEntryT<E>* x = a.data();
  const LeafEntryT<E>* xe = x + a.size();
  const LeafEntryT<E>* y = b.data();
  const LeafEntryT<E>* ye = y + b.size();
  LeafEntryT<E>* w = out;
  while (x != xe && y != ye) {
    prefetch(x + 4);
    prefetch(y + 4);
    if (x->key < y->key) {
      *w++ = *x++;
    } else if (y->key < x->key) {
      *w++ = *y++;
    } else {
      *w = *x;
      w->value = flip ? merge(y->value, x->value) : merge(x->value, y->value);
      ++w;
      ++x;
      ++y;
    }
  }
  while (x != xe) *w++ = *x++;
  while (y != ye) *w++ = *y++;
  return st.chunked(Run<E>(out, static_cast<std::size_t>(w - out)));
}

// Sorted-array difference a \ b (b's values are irrelevant).
template <typename Ex, typename P, typename E>
Node<P, E>* leaf_diff(Ex ex, Store<P, E>& st, Run<E> a, Run<E> b) {
  count_leaf_op(ex, st, a.size() + b.size());
  LeafEntryT<E>* out = st.alloc_entries(a.size());
  const LeafEntryT<E>* x = a.data();
  const LeafEntryT<E>* xe = x + a.size();
  const LeafEntryT<E>* y = b.data();
  const LeafEntryT<E>* ye = y + b.size();
  LeafEntryT<E>* w = out;
  while (x != xe && y != ye) {
    prefetch(x + 4);
    prefetch(y + 4);
    if (x->key < y->key) {
      *w++ = *x++;
    } else if (y->key < x->key) {
      ++y;
    } else {
      ++x;
      ++y;
    }
  }
  while (x != xe) *w++ = *x++;
  return st.chunked(Run<E>(out, static_cast<std::size_t>(w - out)));
}

// Sorted-array intersection (a's values survive). The output is allocated
// at the first shared key, so an empty intersection allocates nothing.
template <typename Ex, typename P, typename E>
Node<P, E>* leaf_intersect(Ex ex, Store<P, E>& st, Run<E> a, Run<E> b) {
  count_leaf_op(ex, st, a.size() + b.size());
  const LeafEntryT<E>* x = a.data();
  const LeafEntryT<E>* xe = x + a.size();
  const LeafEntryT<E>* y = b.data();
  const LeafEntryT<E>* ye = y + b.size();
  LeafEntryT<E>* out = nullptr;
  LeafEntryT<E>* w = nullptr;
  while (x != xe && y != ye) {
    prefetch(x + 4);
    prefetch(y + 4);
    if (x->key < y->key) {
      ++x;
    } else if (y->key < x->key) {
      ++y;
    } else {
      if (out == nullptr)
        w = out = st.alloc_entries(
            static_cast<std::size_t>(std::min(xe - x, ye - y)));
      *w++ = *x++;
      ++y;
    }
  }
  return st.chunked(Run<E>(out, static_cast<std::size_t>(w - out)));
}

// join of two runs (all of a's keys < all of b's): flat concatenation.
template <typename Ex, typename P, typename E>
Node<P, E>* leaf_concat(Ex ex, Store<P, E>& st, Run<E> a, Run<E> b) {
  count_leaf_op(ex, st, a.size() + b.size());
  LeafEntryT<E>* out = st.alloc_entries(a.size() + b.size());
  std::memcpy(out, a.data(), a.size_bytes());
  std::memcpy(out + a.size(), b.data(), b.size_bytes());
  return st.chunked(Run<E>(out, a.size() + b.size()));
}

// ---- path bodies ------------------------------------------------------------

// True if every cell below `n` is written and the subtree holds at most
// `budget` keys (a leaf chunk counts all its keys). Gives up at the first
// unwritten cell or as soon as the keys exceed the budget, so the walk
// stays within the budget however large the subtree is.
template <typename P, typename E>
bool small_written(const Node<P, E>* n, std::size_t& budget) {
  if (n == nullptr) return true;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) {
      if (n->count > budget) return false;
      budget -= n->count;
      return true;
    }
  }
  if (budget == 0) return false;
  --budget;
  if (!P::ready(n->left) || !P::ready(n->right)) return false;
  return small_written(P::peek(n->left), budget) &&
         small_written(P::peek(n->right), budget);
}

// Appends the entries of a written subtree to `w` in key order.
template <typename P, typename E>
void copy_entries(const Node<P, E>* n, LeafEntryT<E>*& w) {
  if (n == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) {
      std::memcpy(w, n->items, n->count * sizeof(LeafEntryT<E>));
      w += n->count;
      return;
    }
  }
  copy_entries(P::peek(n->left), w);
  *w++ = {n->key, n->pri, n->value};
  copy_entries(P::peek(n->right), w);
}

// The small operand of a cutoff as one run: a leaf chunk is one already,
// and any other written subtree of `keys` keys (small_written's count) is
// copied in key order into one arena array.
template <typename P, typename E>
Run<E> small_run(Store<P, E>& st, const Node<P, E>* n, std::size_t keys) {
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) return run_of(n);
  }
  LeafEntryT<E>* out = st.alloc_entries(keys);
  LeafEntryT<E>* w = out;
  copy_entries(n, w);
  return {out, keys};
}

// True if every cell on the search path for `s` below `t` is written. The
// path ends at a nil, a leaf chunk, or the node with key s (whose children
// a split links without reading).
template <typename P, typename E>
bool path_written(const Node<P, E>* t, Key s) {
  while (t != nullptr && !is_leaf(t) && t->key != s) {
    const Cell<P, E>* c = s < t->key ? t->left : t->right;
    if (!P::ready(c)) return false;
    t = P::peek(c);
  }
  return true;
}

// Gives a serially built node its aggregate: combined inline (one aug op)
// when both children's aggregates are already written, otherwise left to a
// forked aug_into fiber (a linked large-side child or a forked piece may
// still be materializing). Children are built before their parents, so the
// forks come in a valid topological order for the eager substrates.
template <typename Ex, typename P, typename E>
void finish_aug(Ex ex, Node<P, E>* n) {
  if constexpr (E::kHasAug) {
    using Ops = typename E::AugOps;
    const auto aug_written = [](const Cell<P, E>* c) {
      if (!P::ready(c)) return false;
      const Node<P, E>* k = P::peek(c);
      return k == nullptr || P::ready(k->aug);
    };
    if (!aug_written(n->left) || !aug_written(n->right)) {
      ex.fork(aug_into(ex, n));
      return;
    }
    typename Ops::Aug acc = Ops::identity();
    if (const Node<P, E>* l = P::peek(n->left))
      acc = Ops::combine(acc, P::peek(l->aug));
    acc = Ops::combine(acc, Ops::from_entry(n->key, n->value));
    if (const Node<P, E>* r = P::peek(n->right))
      acc = Ops::combine(acc, P::peek(r->aug));
    ex.on_aug_op();
    P::preset(*n->aug, acc);
  }
}

// A serially rebuilt node: the key and priority of a large-side node or of
// a run's root, over new child cells.
template <typename Ex, typename P, typename E>
Node<P, E>* rebuilt(Ex ex, Store<P, E>& st, Key key, Pri pri,
                    typename E::Value value, Cell<P, E>* l, Cell<P, E>* r) {
  Node<P, E>* n = st.make(key, pri, l, r);
  n->value = value;
  finish_aug(ex, n);
  return n;
}

// A split of a subtree whose search path for the splitter is written.
// `less`/`greater` are cells: off-path subtrees stay linked as their own
// (possibly unwritten) cells, and only the path nodes are copied.
template <typename P, typename E>
struct PathSplit {
  Cell<P, E>* less = nullptr;
  Cell<P, E>* greater = nullptr;
  Node<P, E>* equal = nullptr;  // the node with key s, if present
};

// splitm along one search path of the large side (path_written(t, s) must
// hold).
template <typename Ex, typename P, typename E>
PathSplit<P, E> split_path(Ex ex, Store<P, E>& st, Key s, Node<P, E>* t) {
  if (t == nullptr) return {st.input(nullptr), st.input(nullptr), nullptr};
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) {
      const SerialSplit<P, E> sp = split_leaf(ex, st, s, t);
      return {st.input(sp.less), st.input(sp.greater), sp.equal};
    }
  }
  if (s < t->key) {
    PathSplit<P, E> sub = split_path(ex, st, s, peek<P>(t->left));
    sub.greater = st.input(
        rebuilt(ex, st, t->key, t->pri, t->value, sub.greater, t->right));
    return sub;
  }
  if (s > t->key) {
    PathSplit<P, E> sub = split_path(ex, st, s, peek<P>(t->right));
    sub.less = st.input(
        rebuilt(ex, st, t->key, t->pri, t->value, t->left, sub.less));
    return sub;
  }
  return {t->left, t->right, t};
}

// join of two result cells (every key of l below every key of r): serial
// down the written spines, forking join_entry where a spine cell is not. A
// null cell is an empty side (see nil_if_empty).
template <typename Ex, typename P, typename E>
Cell<P, E>* join_path(Ex ex, Store<P, E>& st, Cell<P, E>* l, Cell<P, E>* r) {
  if (l == nullptr) return r;
  if (r == nullptr) return l;
  if (P::ready(l) && P::ready(r)) {
    Node<P, E>* tl = P::peek(l);
    Node<P, E>* tr = P::peek(r);
    if (tl == nullptr) return r;
    if (tr == nullptr) return l;
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(tl) && is_leaf(tr))
        return st.input(leaf_concat(ex, st, run_of(tl), run_of(tr)));
    }
    if (tl->pri >= tr->pri) {
      if constexpr (P::kMaxLeafCapacity > 0) {
        if (is_leaf(tl)) tl = open_leaf(st, tl);
      }
      Cell<P, E>* j = join_path(ex, st, tl->right, r);
      return st.input(
          rebuilt(ex, st, tl->key, tl->pri, tl->value, tl->left, j));
    }
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(tr)) tr = open_leaf(st, tr);
    }
    Cell<P, E>* j = join_path(ex, st, l, tr->left);
    return st.input(rebuilt(ex, st, tr->key, tr->pri, tr->value, j, tr->right));
  }
  Cell<P, E>* out = st.cell();
  ex.fork(join_entry(ex, st, l, r, out));
  return out;
}

// Union of the large-side cell `c` with the run `s`; returns the result's
// cell (`c` itself when s is empty). `flip` says the large side is the
// union's second operand, so shared keys keep merge(value_in_a,
// value_in_b).
template <typename Ex, typename P, typename E, typename Merge>
Cell<P, E>* union_path(Ex ex, Store<P, E>& st, Cell<P, E>* c, Run<E> s,
                       Merge merge, bool flip) {
  if (s.empty()) return c;
  if (P::ready(c)) {
    Node<P, E>* t = P::peek(c);
    if (t == nullptr) return st.input(st.treap_of(s));
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t))
        return st.input(leaf_union(ex, st, run_of(t), s, merge, flip));
    }
    const std::size_t top = top_of(s);
    const LeafEntryT<E>& r = s[top];
    if (t->pri >= r.pri) {  // the large root stays on top
      const RunSplit<E> sp = split_run(s, t->key);
      Cell<P, E>* lc = union_path(ex, st, t->left, sp.less, merge, flip);
      Cell<P, E>* rc = union_path(ex, st, t->right, sp.greater, merge, flip);
      typename E::Value v = t->value;
      if constexpr (E::kHasValue) {
        if (sp.equal != nullptr)
          v = flip ? merge(sp.equal->value, t->value)
                   : merge(t->value, sp.equal->value);
      }
      return st.input(rebuilt(ex, st, t->key, t->pri, v, lc, rc));
    }
    if (path_written(t, r.key)) {  // the run's root outranks this subtree
      const PathSplit<P, E> sp = split_path(ex, st, r.key, t);
      Cell<P, E>* lc = union_path(ex, st, sp.less, s.first(top), merge, flip);
      Cell<P, E>* rc =
          union_path(ex, st, sp.greater, s.subspan(top + 1), merge, flip);
      typename E::Value v = r.value;
      if constexpr (E::kHasValue) {
        if (sp.equal != nullptr)
          v = flip ? merge(r.value, sp.equal->value)
                   : merge(sp.equal->value, r.value);
      }
      return st.input(rebuilt(ex, st, r.key, r.pri, v, lc, rc));
    }
  }
  Cell<P, E>* out = st.cell();
  ex.fork(union_into(ex, st, c, st.input(st.treap_of(s)), out, merge, flip));
  return out;
}

// a \ b with a large (cell `c`) and b the run `s`: the result keeps a's
// shape, so only a's search paths for b's keys are read.
template <typename Ex, typename P, typename E>
Cell<P, E>* diff_path(Ex ex, Store<P, E>& st, Cell<P, E>* c, Run<E> s) {
  if (s.empty()) return c;
  if (!P::ready(c)) {
    Cell<P, E>* out = st.cell();
    ex.fork(diff_into(ex, st, c, st.input(st.treap_of(s)), out));
    return out;
  }
  Node<P, E>* t = P::peek(c);
  if (t == nullptr) return c;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) return st.input(leaf_diff(ex, st, run_of(t), s));
  }
  const RunSplit<E> sp = split_run(s, t->key);
  Cell<P, E>* l = diff_path(ex, st, t->left, sp.less);
  Cell<P, E>* r = diff_path(ex, st, t->right, sp.greater);
  if (sp.equal != nullptr) return join_path(ex, st, l, r);
  return st.input(rebuilt(ex, st, t->key, t->pri, t->value, l, r));
}

// The two filtering path bodies below (intersection, and a small run minus
// a large side) return null for an empty result instead of a nil cell:
// join_path drops an empty side, and a rebuilt node takes a fresh nil cell
// for it here, one per consumer.
template <typename P, typename E>
Cell<P, E>* nil_if_empty(Store<P, E>& st, Cell<P, E>* c) {
  return c != nullptr ? c : st.input(nullptr);
}

// A result cell over a leaf body's output; null (empty) for no node.
template <typename P, typename E>
Cell<P, E>* leaf_cell(Store<P, E>& st, Node<P, E>* n) {
  return n != nullptr ? st.input(n) : nullptr;
}

// a \ b with a the run `s` and b large (cell `c`): the result is a subset of
// a, found along b's search paths for a's keys; null if empty. Where the
// path for the run's root is not written, the forked diff_into skips the
// cutoff (its path check fails) and takes one pipelined step on that root,
// so each such fork shrinks s.
template <typename Ex, typename P, typename E>
Cell<P, E>* diff_path_small(Ex ex, Store<P, E>& st, Run<E> s, Cell<P, E>* c) {
  if (s.empty()) return nullptr;
  if (P::ready(c)) {
    Node<P, E>* t = P::peek(c);
    if (t == nullptr) return st.input(st.treap_of(s));
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t)) return leaf_cell(st, leaf_diff(ex, st, s, run_of(t)));
    }
    const std::size_t top = top_of(s);
    const LeafEntryT<E>& r = s[top];
    if (path_written(t, r.key)) {
      const PathSplit<P, E> sp = split_path(ex, st, r.key, t);
      Cell<P, E>* lc = diff_path_small(ex, st, s.first(top), sp.less);
      Cell<P, E>* rc = diff_path_small(ex, st, s.subspan(top + 1), sp.greater);
      if (sp.equal != nullptr) return join_path(ex, st, lc, rc);
      return st.input(rebuilt(ex, st, r.key, r.pri, r.value,
                              nil_if_empty(st, lc), nil_if_empty(st, rc)));
    }
  }
  Cell<P, E>* out = st.cell();
  ex.fork(diff_into(ex, st, st.input(st.treap_of(s)), c, out));
  return out;
}

// Intersection of the large-side cell `c` with the run `s`; null if empty.
// `large_first` says the large side is the pipelined body's first operand
// at this depth: it keeps the root (and so the value) when both roots hold
// the same key, and its chunk's values survive a leaf intersection.
template <typename Ex, typename P, typename E>
Cell<P, E>* intersect_path(Ex ex, Store<P, E>& st, Cell<P, E>* c, Run<E> s,
                           bool large_first) {
  if (s.empty()) return nullptr;
  if (P::ready(c)) {
    Node<P, E>* t = P::peek(c);
    if (t == nullptr) return c;
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t))
        return leaf_cell(st, large_first
                                 ? leaf_intersect(ex, st, run_of(t), s)
                                 : leaf_intersect(ex, st, s, run_of(t)));
    }
    const std::size_t top = top_of(s);
    const LeafEntryT<E>& r = s[top];
    if (t->pri > r.pri || (t->pri == r.pri && large_first)) {
      const RunSplit<E> sp = split_run(s, t->key);
      Cell<P, E>* lc = intersect_path(ex, st, t->left, sp.less, true);
      Cell<P, E>* rc = intersect_path(ex, st, t->right, sp.greater, true);
      if (sp.equal == nullptr) return join_path(ex, st, lc, rc);
      return st.input(rebuilt(ex, st, t->key, t->pri, t->value,
                              nil_if_empty(st, lc), nil_if_empty(st, rc)));
    }
    if (path_written(t, r.key)) {
      const PathSplit<P, E> sp = split_path(ex, st, r.key, t);
      Cell<P, E>* lc = intersect_path(ex, st, sp.less, s.first(top), false);
      Cell<P, E>* rc =
          intersect_path(ex, st, sp.greater, s.subspan(top + 1), false);
      if (sp.equal == nullptr) return join_path(ex, st, lc, rc);
      return st.input(rebuilt(ex, st, r.key, r.pri, r.value,
                              nil_if_empty(st, lc), nil_if_empty(st, rc)));
    }
  }
  Cell<P, E>* out = st.cell();
  Cell<P, E>* sc = st.input(st.treap_of(s));
  ex.fork(large_first ? intersect_into(ex, st, c, sc, out)
                      : intersect_into(ex, st, sc, c, out));
  return out;
}

}  // namespace detail

// ---- pipelined versions (Figures 4 and 7) -----------------------------------

// splitm (Figure 4): splits the available treap rooted at `t` by key `s`.
// Keys < s are published progressively under *outL, keys > s under *outR; a
// node with key == s is excluded from both and, when outEq != nullptr,
// delivered through it (nullptr if s was absent). outEq is written only when
// the traversal terminates — the "splitm completes as soon as it finds the
// splitter" behaviour diff depends on.
template <typename Ex, typename P, typename E>
Fiber splitm_from(Ex ex, Store<P, E>& st, Key s, Node<P, E>* t,
                  Cell<P, E>* outL, Cell<P, E>* outR, Cell<P, E>* outEq) {
  detail::AugPending<P, E> augs;
  for (;;) {
    if (t == nullptr) {
      ex.write(outL, static_cast<Node<P, E>*>(nullptr));
      ex.write(outR, static_cast<Node<P, E>*>(nullptr));
      if (outEq) ex.write(outEq, static_cast<Node<P, E>*>(nullptr));
      augs.flush(ex);
      co_return;
    }
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t)) {
        detail::SerialSplit<P, E> sp = detail::split_leaf(ex, st, s, t);
        publish(ex, outL, sp.less);
        publish(ex, outR, sp.greater);
        if (outEq) ex.write(outEq, sp.equal);
        augs.flush(ex);
        co_return;
      }
    }
    ex.step();  // key comparison
    if (s < t->key) {
      Node<P, E>* keep = st.make(t->key, t->pri, st.cell(), t->right);
      keep->value = t->value;
      publish(ex, outR, keep);
      augs.add(keep);
      outR = keep->left;
      t = co_await ex.touch(t->left);
    } else if (s > t->key) {
      Node<P, E>* keep = st.make(t->key, t->pri, t->left, st.cell());
      keep->value = t->value;
      publish(ex, outL, keep);
      augs.add(keep);
      outL = keep->right;
      t = co_await ex.touch(t->right);
    } else {
      // Splitter found: its subtrees are the two sides; the node itself is
      // excluded (and reported through outEq for difference and the map
      // union's value merge).
      ex.write(outL, co_await ex.touch(t->left));
      ex.write(outR, co_await ex.touch(t->right));
      if (outEq) ex.write(outEq, t);
      augs.flush(ex);
      co_return;
    }
  }
}

// Pipelined union (Figure 4): keys of both treaps, duplicates removed, heap
// and BST order restored. Consumes both inputs. For value-carrying entries a
// shared key keeps merge(value_in_a, value_in_b) — operand order, tracked by
// `flip` across priority swaps — which requires waiting for splitm's equal
// verdict before publishing each root (the set path keeps the original
// publish-before-verdict pipeline, so its recorded counts don't move).
template <typename Ex, typename P, typename E, typename Merge>
Fiber union_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                 Cell<P, E>* out, Merge merge, bool flip) {
  Node<P, E>* ta = co_await ex.touch(a);
  Node<P, E>* tb = co_await ex.touch(b);
  if (ta == nullptr) {
    publish(ex, out, tb);
    co_return;
  }
  if (tb == nullptr) {
    publish(ex, out, ta);
    co_return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta) && is_leaf(tb)) {
      publish(ex, out,
              detail::leaf_union(ex, st, detail::run_of(ta),
                                 detail::run_of(tb), merge, flip));
      co_return;
    }
  }
  if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
    // Path-bounded cutoff: the lower-priority operand is small and written,
    // so apply it to the other one serially (the higher root stays on top).
    const bool a_low = ta->pri < tb->pri;
    std::size_t budget = thr;
    if (detail::small_written(a_low ? ta : tb, budget)) {
      ex.on_serial_cutoff();
      const Run<E> s = detail::small_run(st, a_low ? ta : tb, thr - budget);
      Cell<P, E>* res = a_low ? detail::union_path(ex, st, b, s, merge, !flip)
                              : detail::union_path(ex, st, a, s, merge, flip);
      publish(ex, out, co_await ex.touch(res));
      co_return;
    }
  }
  ex.step();  // priority comparison
  if (ta->pri < tb->pri) {  // higher priority becomes root
    std::swap(ta, tb);
    flip = !flip;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta)) ta = detail::open_leaf(st, ta);
  }
  Node<P, E>* res = st.make(ta->key, ta->pri);
  res->value = ta->value;
  Cell<P, E>* l2 = st.cell();
  Cell<P, E>* r2 = st.cell();
  Cell<P, E>* eq = nullptr;
  if constexpr (E::kHasValue) eq = st.cell();
  const Key v = ta->key;
  ex.fork(splitm_from(ex, st, v, tb, l2, r2, eq));
  ex.fork(union_into(ex, st, ta->left, l2, res->left, merge, flip));
  ex.fork(union_into(ex, st, ta->right, r2, res->right, merge, flip));
  if constexpr (E::kHasValue) {
    // The root's final value depends on whether the key is shared; unlike
    // the pure-set union we must wait for splitm's verdict before
    // publishing.
    Node<P, E>* dup = co_await ex.touch(eq);
    if (dup != nullptr)
      res->value = flip ? merge(dup->value, ta->value)
                        : merge(ta->value, dup->value);
  }
  publish(ex, out, res);
  detail::fork_aug(ex, res);
}

// join (Figure 7 helper): every key of `t1` less than every key of `t2`;
// interleaves the right spine of t1 with the left spine of t2 by priority,
// publishing progressively.
template <typename Ex, typename P, typename E>
Fiber join_from(Ex ex, Store<P, E>& st, Node<P, E>* t1, Node<P, E>* t2,
                Cell<P, E>* out) {
  detail::AugPending<P, E> augs;
  for (;;) {
    if (t1 == nullptr) {
      publish(ex, out, t2);
      augs.flush(ex);
      co_return;
    }
    if (t2 == nullptr) {
      publish(ex, out, t1);
      augs.flush(ex);
      co_return;
    }
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t1) && is_leaf(t2)) {
        publish(ex, out,
                detail::leaf_concat(ex, st, detail::run_of(t1),
                                    detail::run_of(t2)));
        augs.flush(ex);
        co_return;
      }
    }
    ex.step();  // priority comparison
    if (t1->pri >= t2->pri) {
      if constexpr (P::kMaxLeafCapacity > 0) {
        if (is_leaf(t1)) t1 = detail::open_leaf(st, t1);
      }
      Node<P, E>* res = st.make(t1->key, t1->pri, t1->left, st.cell());
      res->value = t1->value;
      publish(ex, out, res);
      augs.add(res);
      out = res->right;
      t1 = co_await ex.touch(t1->right);
    } else {
      if constexpr (P::kMaxLeafCapacity > 0) {
        if (is_leaf(t2)) t2 = detail::open_leaf(st, t2);
      }
      Node<P, E>* res = st.make(t2->key, t2->pri, st.cell(), t2->right);
      res->value = t2->value;
      publish(ex, out, res);
      augs.add(res);
      out = res->left;
      t2 = co_await ex.touch(t2->left);
    }
  }
}

// Forked wrapper: wait for both diff/intersect sides, then join them.
template <typename Ex, typename P, typename E>
Fiber join_entry(Ex ex, Store<P, E>& st, Cell<P, E>* l, Cell<P, E>* r,
                 Cell<P, E>* out) {
  Node<P, E>* jl = co_await ex.touch(l);
  Node<P, E>* jr = co_await ex.touch(r);
  co_await join_from(ex, st, jl, jr, out);
}

// Pipelined two-way split: keys < pivot published progressively under
// *outL, keys >= pivot under *outR. This is the rebalance primitive of the
// contention-adaptive sharded facades (a hot shard splits at its traffic
// median); the complement is join_entry. Built on splitm_from, which
// excludes a node with key == pivot from both sides — that node's priority
// need not dominate the >= side, so it is reattached as a singleton union
// (an O(lg n) pipelined fix-up that only runs when the pivot is present).
template <typename Ex, typename P, typename E>
Fiber split_at(Ex ex, Store<P, E>& st, Key pivot, Cell<P, E>* in,
               Cell<P, E>* outL, Cell<P, E>* outR) {
  Node<P, E>* t = co_await ex.touch(in);
  Cell<P, E>* greater = st.cell();
  Cell<P, E>* eq = st.cell();
  ex.fork(splitm_from(ex, st, pivot, t, outL, greater, eq));
  Node<P, E>* dup = co_await ex.touch(eq);
  if (dup == nullptr) {
    publish(ex, outR, co_await ex.touch(greater));
  } else {
    Node<P, E>* single = st.make_ready(dup->key, dup->pri, nullptr, nullptr);
    single->value = dup->value;
    if constexpr (E::kHasAug) {
      using Ops = typename E::AugOps;
      P::preset(*single->aug, Ops::from_entry(single->key, single->value));
    }
    ex.fork(union_into(ex, st, st.input(single), greater, outR));
  }
}

// Pipelined difference (Figure 7): keys of `a` not present in `b` (b's
// values are irrelevant).
template <typename Ex, typename P, typename E>
Fiber diff_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                Cell<P, E>* out) {
  Node<P, E>* t1 = co_await ex.touch(a);
  Node<P, E>* t2 = co_await ex.touch(b);
  if (t1 == nullptr) {
    ex.write(out, static_cast<Node<P, E>*>(nullptr));
    co_return;
  }
  if (t2 == nullptr) {
    publish(ex, out, t1);
    co_return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1) && is_leaf(t2)) {
      publish(ex, out,
              detail::leaf_diff(ex, st, detail::run_of(t1),
                                detail::run_of(t2)));
      co_return;
    }
  }
  if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
    // Path-bounded cutoff on the lower-priority operand (see union_into).
    // The result has a's shape either way; a small b is applied along a's
    // search paths, a small a is filtered along b's. A small a also needs
    // b's path for its root written: otherwise the pipelined step below
    // splits b by that root, which is the progress diff_path_small's fork
    // at an unwritten path relies on. The result cell may be a linked or
    // forked one, so it is touched before it is forwarded.
    const bool a_low = t1->pri < t2->pri;
    std::size_t budget = thr;
    if (a_low ? detail::small_written(t1, budget) &&
                    detail::path_written(t2, t1->key)
              : detail::small_written(t2, budget)) {
      ex.on_serial_cutoff();
      const Run<E> s = detail::small_run(st, a_low ? t1 : t2, thr - budget);
      Cell<P, E>* res = a_low ? detail::diff_path_small(ex, st, s, b)
                              : detail::diff_path(ex, st, a, s);
      Node<P, E>* n = nullptr;  // a null result cell is an empty result
      if (res != nullptr) n = co_await ex.touch(res);
      publish(ex, out, n);
      co_return;
    }
  }
  ex.step();
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1)) t1 = detail::open_leaf(st, t1);
  }
  Cell<P, E>* l2 = st.cell();
  Cell<P, E>* r2 = st.cell();
  Cell<P, E>* eq = st.cell();
  const Key v = t1->key;
  ex.fork(splitm_from(ex, st, v, t2, l2, r2, eq));
  Cell<P, E>* dl = st.cell();
  Cell<P, E>* dr = st.cell();
  ex.fork(diff_into(ex, st, t1->left, l2, dl));
  ex.fork(diff_into(ex, st, t1->right, r2, dr));
  // Whether the root survives depends on whether splitm found it in b — the
  // "work after the recursive calls" that makes diff's pipeline notable.
  Node<P, E>* found = co_await ex.touch(eq);
  if (found != nullptr) {
    ex.fork(join_entry(ex, st, dl, dr, out));
  } else {
    Node<P, E>* res = st.make(t1->key, t1->pri, dl, dr);
    res->value = t1->value;
    publish(ex, out, res);
    detail::fork_aug(ex, res);
  }
}

// Pipelined intersection (the third set operation from the authors'
// companion paper "Fast set operations using treaps"): keys present in both
// treaps (a's values survive where the surviving root came from a).
// Structurally the dual of difference — the root survives exactly when
// splitm *finds* it.
template <typename Ex, typename P, typename E>
Fiber intersect_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                     Cell<P, E>* out) {
  Node<P, E>* ta = co_await ex.touch(a);
  Node<P, E>* tb = co_await ex.touch(b);
  if (ta == nullptr || tb == nullptr) {
    ex.write(out, static_cast<Node<P, E>*>(nullptr));
    co_return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta) && is_leaf(tb)) {
      publish(ex, out,
              detail::leaf_intersect(ex, st, detail::run_of(ta),
                                     detail::run_of(tb)));
      co_return;
    }
  }
  if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
    // Path-bounded cutoff on the lower-priority operand (see union_into).
    const bool a_low = ta->pri < tb->pri;
    std::size_t budget = thr;
    if (detail::small_written(a_low ? ta : tb, budget)) {
      ex.on_serial_cutoff();
      const Run<E> s = detail::small_run(st, a_low ? ta : tb, thr - budget);
      Cell<P, E>* res = a_low ? detail::intersect_path(ex, st, b, s, false)
                              : detail::intersect_path(ex, st, a, s, true);
      Node<P, E>* n = nullptr;  // a null result cell is an empty result
      if (res != nullptr) n = co_await ex.touch(res);
      publish(ex, out, n);
      co_return;
    }
  }
  ex.step();  // priority comparison
  if (ta->pri < tb->pri) std::swap(ta, tb);  // recurse on the higher root
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta)) ta = detail::open_leaf(st, ta);
  }
  Cell<P, E>* l2 = st.cell();
  Cell<P, E>* r2 = st.cell();
  Cell<P, E>* eq = st.cell();
  const Key v = ta->key;
  ex.fork(splitm_from(ex, st, v, tb, l2, r2, eq));
  Cell<P, E>* il = st.cell();
  Cell<P, E>* ir = st.cell();
  ex.fork(intersect_into(ex, st, ta->left, l2, il));
  ex.fork(intersect_into(ex, st, ta->right, r2, ir));
  // Dual of diff: the root survives exactly when splitm found it in b.
  Node<P, E>* found = co_await ex.touch(eq);
  if (found != nullptr) {
    Node<P, E>* res = st.make(ta->key, ta->pri, il, ir);
    res->value = ta->value;
    publish(ex, out, res);
    detail::fork_aug(ex, res);
  } else {
    ex.fork(join_entry(ex, st, il, ir, out));
  }
}

// ---- strict (non-pipelined) baselines ---------------------------------------

// Sequential splitm returning complete trees (+ the equal node if present).
template <typename P, typename E>
struct StrictSplit {
  Node<P, E>* less = nullptr;
  Node<P, E>* greater = nullptr;
  Node<P, E>* equal = nullptr;
};

template <typename Ex, typename P, typename E>
Task<StrictSplit<P, E>> splitm_strict(Ex ex, Store<P, E>& st, Key s,
                                      Node<P, E>* t) {
  ex.step();
  if (t == nullptr) co_return {};
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) {
      detail::SerialSplit<P, E> sp = detail::split_leaf(ex, st, s, t);
      co_return {sp.less, sp.greater, sp.equal};
    }
  }
  if (s < t->key) {
    StrictSplit<P, E> sub = co_await splitm_strict(ex, st, s, peek<P>(t->left));
    sub.greater = st.make(t->key, t->pri, st.input(sub.greater), t->right);
    sub.greater->value = t->value;
    detail::fork_aug(ex, sub.greater);
    co_return sub;
  }
  if (s > t->key) {
    StrictSplit<P, E> sub =
        co_await splitm_strict(ex, st, s, peek<P>(t->right));
    sub.less = st.make(t->key, t->pri, t->left, st.input(sub.less));
    sub.less->value = t->value;
    detail::fork_aug(ex, sub.less);
    co_return sub;
  }
  co_return {peek<P>(t->left), peek<P>(t->right), t};
}

template <typename Ex, typename P, typename E>
Task<Node<P, E>*> join_strict(Ex ex, Store<P, E>& st, Node<P, E>* t1,
                              Node<P, E>* t2) {
  ex.step();
  if (t1 == nullptr) co_return t2;
  if (t2 == nullptr) co_return t1;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1) && is_leaf(t2)) {
      co_return detail::leaf_concat(ex, st, detail::run_of(t1),
                                    detail::run_of(t2));
    }
  }
  Node<P, E>* res;
  if (t1->pri >= t2->pri) {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t1)) t1 = detail::open_leaf(st, t1);
    }
    Node<P, E>* j = co_await join_strict(ex, st, peek<P>(t1->right), t2);
    res = st.make(t1->key, t1->pri, t1->left, st.input(j));
    res->value = t1->value;
  } else {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t2)) t2 = detail::open_leaf(st, t2);
    }
    Node<P, E>* j = co_await join_strict(ex, st, t1, peek<P>(t2->left));
    res = st.make(t2->key, t2->pri, st.input(j), t2->right);
    res->value = t2->value;
  }
  detail::fork_aug(ex, res);
  co_return res;
}

// Fork-join union/difference/intersection: splitm runs to completion, then
// the two recursive calls run in parallel.
template <typename Ex, typename P, typename E, typename Merge = FirstWins>
Task<Node<P, E>*> union_strict(Ex ex, Store<P, E>& st, Node<P, E>* a,
                               Node<P, E>* b, Merge merge = {},
                               bool flip = false) {
  ex.step();
  if (a == nullptr) co_return b;
  if (b == nullptr) co_return a;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a) && is_leaf(b)) {
      co_return detail::leaf_union(ex, st, detail::run_of(a),
                                   detail::run_of(b), merge, flip);
    }
  }
  if (a->pri < b->pri) {
    std::swap(a, b);
    flip = !flip;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a)) a = detail::open_leaf(st, a);
  }
  StrictSplit<P, E> s = co_await splitm_strict(ex, st, a->key, b);
  auto [l, r] = co_await ex.fork_join2(
      union_strict(ex, st, peek<P>(a->left), s.less, merge, flip),
      union_strict(ex, st, peek<P>(a->right), s.greater, merge, flip));
  Node<P, E>* res = st.make_ready(a->key, a->pri, l, r);
  res->value = a->value;
  if constexpr (E::kHasValue) {
    if (s.equal != nullptr)
      res->value = flip ? merge(s.equal->value, a->value)
                        : merge(a->value, s.equal->value);
  }
  detail::fork_aug(ex, res);
  co_return res;
}

template <typename Ex, typename P, typename E>
Task<Node<P, E>*> intersect_strict(Ex ex, Store<P, E>& st, Node<P, E>* a,
                                   Node<P, E>* b) {
  ex.step();
  if (a == nullptr || b == nullptr) co_return nullptr;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a) && is_leaf(b)) {
      co_return detail::leaf_intersect(ex, st, detail::run_of(a),
                                       detail::run_of(b));
    }
  }
  if (a->pri < b->pri) std::swap(a, b);
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a)) a = detail::open_leaf(st, a);
  }
  StrictSplit<P, E> s = co_await splitm_strict(ex, st, a->key, b);
  auto [l, r] = co_await ex.fork_join2(
      intersect_strict(ex, st, peek<P>(a->left), s.less),
      intersect_strict(ex, st, peek<P>(a->right), s.greater));
  if (s.equal != nullptr) {
    Node<P, E>* res = st.make_ready(a->key, a->pri, l, r);
    res->value = a->value;
    detail::fork_aug(ex, res);
    co_return res;
  }
  co_return co_await join_strict(ex, st, l, r);
}

template <typename Ex, typename P, typename E>
Task<Node<P, E>*> diff_strict(Ex ex, Store<P, E>& st, Node<P, E>* a,
                              Node<P, E>* b) {
  ex.step();
  if (a == nullptr) co_return nullptr;
  if (b == nullptr) co_return a;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a) && is_leaf(b)) {
      co_return detail::leaf_diff(ex, st, detail::run_of(a),
                                  detail::run_of(b));
    }
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a)) a = detail::open_leaf(st, a);
  }
  StrictSplit<P, E> s = co_await splitm_strict(ex, st, a->key, b);
  auto [l, r] =
      co_await ex.fork_join2(diff_strict(ex, st, peek<P>(a->left), s.less),
                             diff_strict(ex, st, peek<P>(a->right), s.greater));
  if (s.equal != nullptr) co_return co_await join_strict(ex, st, l, r);
  Node<P, E>* res = st.make_ready(a->key, a->pri, l, r);
  res->value = a->value;
  detail::fork_aug(ex, res);
  co_return res;
}

// ---- analysis helpers (no substrate actions) --------------------------------

template <typename P, typename E>
void collect_inorder(const Node<P, E>* root, std::vector<Key>& out) {
  if (root == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) {
      for (std::uint32_t i = 0; i < root->count; ++i)
        out.push_back(root->items[i].key);
      return;
    }
  }
  collect_inorder(peek<P>(root->left), out);
  out.push_back(root->key);
  collect_inorder(peek<P>(root->right), out);
}

// In-order (key, value) collection for value-carrying entries.
template <typename P, typename E>
void collect_items(const Node<P, E>* root,
                   std::vector<std::pair<Key, typename E::Value>>& out) {
  if (root == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) {
      for (std::uint32_t i = 0; i < root->count; ++i)
        out.emplace_back(root->items[i].key, root->items[i].value);
      return;
    }
  }
  collect_items(peek<P>(root->left), out);
  out.emplace_back(root->key, root->value);
  collect_items(peek<P>(root->right), out);
}

template <typename P, typename E>
int height(const Node<P, E>* root) {
  if (root == nullptr) return 0;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) return 1;
  }
  return 1 +
         std::max(height(peek<P>(root->left)), height(peek<P>(root->right)));
}

// Number of *keys* (a leaf chunk contributes all its entries), so the size
// semantics match the node-per-key layout.
template <typename P, typename E>
std::uint64_t count_nodes(const Node<P, E>* root) {
  if (root == nullptr) return 0;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) return root->count;
  }
  return 1 + count_nodes(peek<P>(root->left)) +
         count_nodes(peek<P>(root->right));
}

template <typename P, typename E>
typename P::Time max_created(const Node<P, E>* root) {
  if (root == nullptr) return 0;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) return root->created;
  }
  return std::max({root->created, max_created(peek<P>(root->left)),
                   max_created(peek<P>(root->right))});
}

// Software cache-economy of a finished tree: how many cache lines an
// operation has to touch, and how they are spent.
struct CacheEconomy {
  std::uint64_t internal_nodes = 0;
  std::uint64_t leaf_chunks = 0;
  std::uint64_t leaf_keys = 0;  // keys stored inside chunks
};

template <typename P, typename E>
void cache_economy_of(const Node<P, E>* root, CacheEconomy& ce) {
  if (root == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) {
      ++ce.leaf_chunks;
      ce.leaf_keys += root->count;
      return;
    }
  }
  ++ce.internal_nodes;
  cache_economy_of(peek<P>(root->left), ce);
  cache_economy_of(peek<P>(root->right), ce);
}

namespace detail {
template <typename P, typename E>
bool valid_in_range(const Store<P, E>& st, const Node<P, E>* n, const Key* lo,
                    const Key* hi, Pri max_pri) {
  if (n == nullptr) return true;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) {
      if (n->count == 0 || n->root_pos >= n->count) return false;
      if (n->pri > max_pri) return false;
      Pri best = 0;
      for (std::uint32_t i = 0; i < n->count; ++i) {
        const LeafEntryT<E>& e = n->items[i];
        if (lo && e.key <= *lo) return false;
        if (hi && e.key >= *hi) return false;
        if (i > 0 && n->items[i - 1].key >= e.key) return false;
        if (e.pri > best) best = e.pri;
      }
      // The node record mirrors the max-priority entry.
      return n->items[n->root_pos].pri == best &&
             n->key == n->items[n->root_pos].key &&
             n->pri == n->items[n->root_pos].pri;
    }
  }
  if (lo && n->key <= *lo) return false;
  if (hi && n->key >= *hi) return false;
  if (n->pri > max_pri) return false;
  return valid_in_range(st, peek<P>(n->left), lo, &n->key, n->pri) &&
         valid_in_range(st, peek<P>(n->right), &n->key, hi, n->pri);
}

// Bottom-up recomputation of every cached aggregate — the same discipline as
// the cached-priority check: the cache is only trusted after it has been
// re-derived from the entries it summarizes. Returns false (and stops) on
// the first node whose aggregate cell disagrees.
template <typename P, typename E>
bool augs_valid(const Node<P, E>* n, typename E::AugOps::Aug& out) {
  using Ops = typename E::AugOps;
  out = Ops::identity();
  if (n == nullptr) return true;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) {
      for (std::uint32_t i = 0; i < n->count; ++i)
        out = Ops::combine(out,
                           Ops::from_entry(n->items[i].key, n->items[i].value));
      return P::peek(n->aug) == out;
    }
  }
  typename Ops::Aug l, r;
  if (!augs_valid<P, E>(peek<P>(n->left), l)) return false;
  if (!augs_valid<P, E>(peek<P>(n->right), r)) return false;
  out = Ops::combine(Ops::combine(l, Ops::from_entry(n->key, n->value)), r);
  return P::peek(n->aug) == out;
}
}  // namespace detail

// Full treap invariant: BST order on keys, heap order on priorities, and —
// for augmented entries — every cached aggregate equal to the bottom-up
// recomputation over its subtree. The recursion checks order against the
// *cached* priorities (they are copied, never recomputed, by every
// operation); consistency with the store's hash is spot-checked once at the
// root instead of rehashing every node.
template <typename P, typename E>
bool validate(const Store<P, E>& st, const Node<P, E>* root) {
  if (root == nullptr) return true;
  if (root->pri != st.priority(root->key)) return false;
  if (!detail::valid_in_range(st, root, nullptr, nullptr,
                              std::numeric_limits<Pri>::max()))
    return false;
  if constexpr (E::kHasAug) {
    typename E::AugOps::Aug total;
    if (!detail::augs_valid<P, E>(root, total)) return false;
  }
  return true;
}

}  // namespace pwf::pipelined::treap
