// Key-value treap maps on the coroutine futures runtime — a thin
// instantiation shim, exactly like rt_treap.hpp is for sets.
//
// The algorithm bodies live in src/pipelined/treap.hpp, parameterized on an
// Entry policy: maps are the same coroutines as the paper's set treaps
// instantiated with MapEntry<V> (key + value, union takes a Merge functor
// for shared keys, difference ignores the second operand's values), and
// augmented maps add a PAM-style aggregation policy A (AugEntry — every
// node and leaf chunk maintains A::combine over its subtree; see
// docs/augmentation.md). This header only names the runtime instantiations
// and provides the drivers and blocking walks.
//
// Storage is chunked like the set treaps (docs/storage.md): the shared
// LeafEntryT grows a value column for maps; subtrees at or below the
// store's leaf capacity are sorted flat (key, pri, value) arrays processed
// by branch-free merge loops, and the fibers pipeline only the internal top
// of the tree.
//
// Everything is templated on the value type V (trivially copyable, like all
// cell-carried values in this runtime) and lives header-only.
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

// Default flat-chunk capacity (same policy as the set treaps).
inline constexpr std::size_t kDefaultLeafCapacity = pt::kDefaultLeafCapacity;

// Map entry over value type V, optionally augmented with policy A (an
// AugOps type like pt::SumAug<V>; void = unaugmented).
template <typename V, typename A = void>
using Entry =
    std::conditional_t<std::is_void_v<A>, pt::MapEntry<V>,
                       pt::AugEntry<pt::MapEntry<V>, A>>;

template <typename V, typename A = void>
using Node = pt::Node<pipelined::RtPolicy, Entry<V, A>>;

template <typename V, typename A = void>
using Cell = FutCell<Node<V, A>*>;

template <typename V, typename A = void>
using LeafItem = pt::LeafEntryT<Entry<V, A>>;

template <typename V, typename A = void>
using Store = pt::Store<pipelined::RtPolicy, Entry<V, A>>;

// Word-sized unaugmented payloads keep the node inside one cache line
// (checked generically by Store; this spelling is the one CI's layout job
// compiles).
static_assert(sizeof(Node<std::int64_t>) <= 64,
              "map node with a word-sized payload must fit a cache line");

using pt::is_leaf;

// ---- drivers ---------------------------------------------------------------
//
// Generic over the Entry policy E so one driver serves plain and augmented
// maps; E is deduced from the store.

// Union with value merge: result value for a shared key k is
// merge(value_in_a, value_in_b) — note the operand order is by *map*, not
// by priority (the shared body's `flip` tracks priority swaps), so
// asymmetric merges (e.g. "b overwrites a") behave as documented.
template <typename E, typename Merge>
pt::Cell<pipelined::RtPolicy, E>* union_maps(
    pt::Store<pipelined::RtPolicy, E>& st,
    pt::Cell<pipelined::RtPolicy, E>* a, pt::Cell<pipelined::RtPolicy, E>* b,
    Merge merge) {
  pipelined::RtExec ex;
  auto* out = st.cell();
  ex.fork_after(a, pt::union_into(ex, st, a, b, out, merge));
  return out;
}

// Difference: drop the keys of `b` from `a` (b's values are irrelevant).
template <typename E>
pt::Cell<pipelined::RtPolicy, E>* diff_maps(
    pt::Store<pipelined::RtPolicy, E>& st,
    pt::Cell<pipelined::RtPolicy, E>* a, pt::Cell<pipelined::RtPolicy, E>* b) {
  pipelined::RtExec ex;
  auto* out = st.cell();
  ex.fork_after(a, pt::diff_into(ex, st, a, b, out));
  return out;
}

// Rebalance primitives for the contention-adaptive sharded map facade,
// mirroring rt::treap::split_treaps/join_treaps (docs/service.md).

// Pipelined range split: keys < pivot into *outL, keys >= pivot into *outR.
template <typename E>
void split_maps(pt::Store<pipelined::RtPolicy, E>& st,
                pt::Cell<pipelined::RtPolicy, E>* in, Key pivot,
                pt::Cell<pipelined::RtPolicy, E>* outL,
                pt::Cell<pipelined::RtPolicy, E>* outR) {
  pipelined::RtExec ex;
  ex.fork(pt::split_at(ex, st, pivot, in, outL, outR));
  if (Scheduler* s = Scheduler::current()) s->note_rebalance();
}

// Pipelined range-disjoint join: every key of `a` < every key of `b`.
template <typename E>
pt::Cell<pipelined::RtPolicy, E>* join_maps(
    pt::Store<pipelined::RtPolicy, E>& st,
    pt::Cell<pipelined::RtPolicy, E>* a, pt::Cell<pipelined::RtPolicy, E>* b) {
  pipelined::RtExec ex;
  auto* out = st.cell();
  ex.fork(pt::join_entry(ex, st, a, b, out));
  if (Scheduler* s = Scheduler::current()) s->note_rebalance();
  return out;
}

// ---- joins / analysis ------------------------------------------------------
//
// All walks are the shared explicit-stack visitors of
// pipelined/treap_walk.hpp with a wait_blocking (pipelining) or peek
// (post-completion) force.

namespace detail {
inline constexpr auto kWait = [](auto* c) { return c->wait_blocking(); };
inline constexpr auto kPeek = [](auto* c) { return c->peek(); };
}  // namespace detail

// Waits for every reachable cell; returns items in key order.
template <typename E>
auto wait_items(pt::Cell<pipelined::RtPolicy, E>* root_cell) {
  std::vector<std::pair<Key, typename E::Value>> out;
  pt::visit_items(root_cell, detail::kWait,
                  [&](Key k, const typename E::Value& v) {
                    out.emplace_back(k, v);
                  });
  return out;
}

// Waits for every reachable cell; returns the key count (flush-time
// recount for the facades; a leaf chunk contributes all its items).
template <typename E>
std::size_t wait_count(pt::Cell<pipelined::RtPolicy, E>* root_cell) {
  return pt::count_keys(root_cell, detail::kWait);
}

// Storage composition of a finished map (forces every reachable cell).
using CacheEconomy = pt::CacheEconomy;

template <typename E>
CacheEconomy cache_economy(pt::Cell<pipelined::RtPolicy, E>* root_cell) {
  CacheEconomy ce;
  pt::visit_nodes(root_cell, detail::kWait, [&](auto* n) {
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
std::optional<typename E::Value> lookup(
    pt::Cell<pipelined::RtPolicy, E>* root_cell, Key k) {
  return pt::lookup(root_cell, k, detail::kPeek);
}

// Pipelined point lookup: forces only the cells along the search path, so it
// runs concurrently with in-flight batch unions (the paper's consumer
// descending into a producer's half-built tree).
template <typename E>
std::optional<typename E::Value> lookup_wait(
    pt::Cell<pipelined::RtPolicy, E>* root_cell, Key k) {
  return pt::lookup(root_cell, k, detail::kWait);
}

// Range aggregate over a (finished or in-flight) augmented map: O(lg n)
// forced cells, combine applied in key order (treap_walk.hpp).
template <typename E>
  requires(E::kHasAug)
auto aggregate_wait(pt::Cell<pipelined::RtPolicy, E>* root_cell, Key lo,
                    Key hi) {
  return pt::aggregate(root_cell, lo, hi, detail::kWait);
}

}  // namespace pwf::rt::map
