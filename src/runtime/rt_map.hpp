// Runtime drivers for the treap bodies, one per operation and generic over
// the entry policy: sets, maps and augmented maps all go through them
// (rt::Index in index.hpp, and the rt_treap.hpp set shims forward here).
//
// The algorithm bodies live in src/pipelined/treap.hpp, parameterized on an
// Entry policy (treap_entry.hpp): SetEntry is the paper's key-only treap,
// MapEntry<V> adds a value (union takes a Merge functor for shared keys,
// difference ignores the second operand's values), and AugEntry adds a
// PAM-style aggregation policy A (every node and leaf chunk maintains
// A::combine over its subtree; see docs/augmentation.md). This header only
// names the runtime instantiations and provides the drivers and blocking
// walks; E is always deduced from the store or cell.
//
// Storage is chunked (docs/storage.md): subtrees at or below the store's
// leaf capacity are sorted flat (key, pri[, value]) arrays processed by
// branch-free merge loops, and the fibers pipeline only the internal top of
// the tree. Values are trivially copyable, like all cell-carried values in
// this runtime.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "pipelined/rt_exec.hpp"
#include "pipelined/treap.hpp"
#include "pipelined/treap_walk.hpp"
#include "runtime/future.hpp"
#include "runtime/scheduler.hpp"

namespace pwf::rt::map {

namespace pt = pipelined::treap;

using Key = pt::Key;
using Pri = pt::Pri;

// Default flat-chunk capacity (same policy for every entry).
inline constexpr std::size_t kDefaultLeafCapacity = pt::kDefaultLeafCapacity;

template <typename E>
using StoreOf = pt::Store<pipelined::RtPolicy, E>;
template <typename E>
using CellOf = pt::Cell<pipelined::RtPolicy, E>;

// One element of a batch or of a whole-tree walk: the key alone for
// key-only entries, a (key, value) pair otherwise — the two forms
// StoreOf<E>::build takes.
template <typename E>
using Item = std::conditional_t<E::kHasValue,
                                std::pair<Key, typename E::Value>, Key>;

// Map entry over value type V, optionally augmented with policy A (an
// AugOps type like pt::SumAug<V>; void = unaugmented).
template <typename V, typename A = void>
using Entry =
    std::conditional_t<std::is_void_v<A>, pt::MapEntry<V>,
                       pt::AugEntry<pt::MapEntry<V>, A>>;

template <typename V, typename A = void>
using Node = pt::Node<pipelined::RtPolicy, Entry<V, A>>;

template <typename V, typename A = void>
using Cell = CellOf<Entry<V, A>>;

template <typename V, typename A = void>
using Store = StoreOf<Entry<V, A>>;

// Word-sized unaugmented payloads keep the node inside one cache line
// (checked generically by Store; this spelling is the one CI's layout job
// compiles).
static_assert(sizeof(Node<std::int64_t>) <= 64,
              "map node with a word-sized payload must fit a cache line");

// ---- drivers ---------------------------------------------------------------
//
// Each forks its body and returns at once; the result materializes on the
// scheduler. The batch ops park behind an unwritten left operand instead of
// being posted (RtExec::fork_after).
//
// The batch ops are values too: `op.body(st, a, b, out)` is the fiber its
// driver forks, which rt::Index's batch groups run inside their own fiber.

// Union: a key in both operands gets merge(value_in_a, value_in_b) — the
// operand order is by *map*, not by priority (the shared body's `flip`
// tracks priority swaps), so asymmetric merges (e.g. "b overwrites a")
// behave as documented. Sets take the default.
template <typename Merge = pt::FirstWins>
struct Union {
  Merge merge;
  template <typename E>
  pipelined::Fiber body(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b,
                        CellOf<E>* out) const {
    return pt::union_into(pipelined::RtExec{}, st, a, b, out, merge);
  }
};

// Difference: drop the keys of `b` from `a` (b's values are irrelevant).
struct Diff {
  template <typename E>
  pipelined::Fiber body(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b,
                        CellOf<E>* out) const {
    return pt::diff_into(pipelined::RtExec{}, st, a, b, out);
  }
};

// Intersection: the keys of `a` that are also in `b`, with a's values.
struct Intersect {
  template <typename E>
  pipelined::Fiber body(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b,
                        CellOf<E>* out) const {
    return pt::intersect_into(pipelined::RtExec{}, st, a, b, out);
  }
};

// Forks `op` on (a, b) into a fresh cell, parked behind an unwritten `a`.
template <typename E, typename Op>
CellOf<E>* chain(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b, Op op) {
  CellOf<E>* out = st.cell();
  pipelined::RtExec{}.fork_after(a, op.body(st, a, b, out));
  return out;
}

template <typename E, typename Merge = pt::FirstWins>
CellOf<E>* union_maps(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b,
                      Merge merge = {}) {
  return chain(st, a, b, Union<Merge>{merge});
}

template <typename E>
CellOf<E>* diff_maps(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b) {
  return chain(st, a, b, Diff{});
}

template <typename E>
CellOf<E>* intersect_maps(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b) {
  return chain(st, a, b, Intersect{});
}

// Rebalance primitives of the contention-adaptive shards (docs/service.md);
// both bump Scheduler::Stats rebalances.

// Pipelined range split: keys < pivot into *outL, keys >= pivot into *outR.
template <typename E>
void split_maps(StoreOf<E>& st, CellOf<E>* in, Key pivot, CellOf<E>* outL,
                CellOf<E>* outR) {
  pipelined::RtExec ex;
  ex.fork(pt::split_at(ex, st, pivot, in, outL, outR));
  if (Scheduler* s = Scheduler::current()) s->note_rebalance();
}

// Pipelined range-disjoint join: every key of `a` < every key of `b`.
template <typename E>
CellOf<E>* join_maps(StoreOf<E>& st, CellOf<E>* a, CellOf<E>* b) {
  pipelined::RtExec ex;
  CellOf<E>* out = st.cell();
  ex.fork(pt::join_entry(ex, st, a, b, out));
  if (Scheduler* s = Scheduler::current()) s->note_rebalance();
  return out;
}

// ---- joins / analysis ------------------------------------------------------
//
// All walks are the shared explicit-stack visitors of
// pipelined/treap_walk.hpp with a wait_blocking (pipelining) or peek
// (post-completion) force. They run on the caller's stack and must not
// recurse: a service-layer treap is arbitrarily chain-shaped while a
// pipeline is mid-flight, and each forced cell parks the caller until its
// producer publishes — the consumer pipelines with in-flight construction.

inline constexpr auto kWait = [](auto* c) { return c->wait_blocking(); };
inline constexpr auto kPeek = [](auto* c) { return c->peek(); };

// Waits for every reachable cell; returns the items (keys, for key-only
// entries) in key order.
template <typename E>
std::vector<Item<E>> wait_items(CellOf<E>* root_cell) {
  std::vector<Item<E>> out;
  pt::visit_items(root_cell, kWait, [&](Key k, const typename E::Value& v) {
    if constexpr (E::kHasValue)
      out.emplace_back(k, v);
    else
      out.push_back(k);
  });
  return out;
}

// Waits for every reachable cell; returns the key count (a leaf chunk
// contributes all its items).
template <typename E>
std::size_t wait_count(CellOf<E>* root_cell) {
  return pt::count_keys(root_cell, kWait);
}

// Storage composition (forces every reachable cell): how many cache lines
// the structure spends on internal nodes vs flat leaf chunks.
using CacheEconomy = pt::CacheEconomy;

template <typename E>
CacheEconomy cache_economy(CellOf<E>* root_cell) {
  CacheEconomy ce;
  pt::visit_nodes(root_cell, kWait, [&](auto* n) {
    if (pt::is_leaf(n)) {
      ++ce.leaf_chunks;
      ce.leaf_keys += n->count;
    } else {
      ++ce.internal_nodes;
    }
  });
  return ce;
}

// Post-completion point lookup.
template <typename E>
std::optional<typename E::Value> lookup(CellOf<E>* root_cell, Key k) {
  return pt::lookup(root_cell, k, kPeek);
}

// Pipelined point lookup: forces only the cells along the search path, so it
// runs concurrently with in-flight batch unions (the paper's consumer
// descending into a producer's half-built tree).
template <typename E>
std::optional<typename E::Value> lookup_wait(CellOf<E>* root_cell, Key k) {
  return pt::lookup(root_cell, k, kWait);
}

// Range aggregate over a (finished or in-flight) augmented map: O(lg n)
// forced cells, combine applied in key order (treap_walk.hpp).
template <typename E>
  requires(E::kHasAug)
auto aggregate_wait(CellOf<E>* root_cell, Key lo, Key hi) {
  return pt::aggregate(root_cell, lo, hi, kWait);
}

}  // namespace pwf::rt::map
