// Async (fiber-parking) walks over pipelined treap cells — the server-side
// counterparts of the blocking walks in treap_walk.hpp / rt_map.hpp.
//
// The facades' flush()/get() force cells with wait_blocking(), which is
// right for an external joiner thread but wrong inside a fiber: a fiber
// that blocks its worker thread stalls the very pipeline it is waiting on
// (fatal at one worker, a latency cliff at few). These walks are coroutine
// Fibers instead — `co_await *cell` parks the fiber *in the cell* (O(1),
// no allocation, no occupied worker) and the cell's writer reposts it.
//
// They cannot reuse treap_walk.hpp's force-callable visitors (co_await is
// not legal inside a lambda passed down a call stack), so the two walks the
// service layer needs are hand-rolled here, single-source for every facade:
//
//   * quiesce_fiber  — co_awaits every reachable cell (including internal
//     aug cells of augmented trees), then writes a done-cell: the async
//     quiescence behind ParallelSet/ParallelMap::on_flush.
//   * probe_fiber    — forces only the O(lg n) search-path cells and writes
//     a Probe<V> result-cell: the async point read behind
//     ParallelMap::probe_into (E27's pipelined reply path).
//
// Both carry an Index pin (a shared_ptr to its storage epoch) in the
// coroutine frame, so the walk stays valid across concurrent compact()
// epochs and adaptive merges.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "pipelined/treap.hpp"
#include "runtime/future.hpp"
#include "runtime/scheduler.hpp"

namespace pwf::rt::rtasync {

// Result of an async point probe (trivially copyable: it travels through a
// FutCell).
template <typename V>
struct Probe {
  V value{};
  bool found = false;
};

// One pinned tree: a root and the epoch its nodes live in, read together
// under the index's snap_mu_. The walks hold `epoch`, never dereference it.
template <typename EpochT, typename CellT>
struct Pinned {
  std::shared_ptr<const EpochT> epoch;
  CellT* root = nullptr;
};

// Await every cell reachable from every pinned root (structure cells, and
// aug cells when the entry is augmented), then write *done = 1. Spawn it;
// the caller co_awaits (or wait_blocking()s) the done cell.
template <typename EpochT, typename CellT>
Fiber quiesce_fiber(std::vector<Pinned<EpochT, CellT>> pins,
                    FutCell<int>* done) {
  using NodeT = std::remove_pointer_t<typename CellT::value_type>;
  std::vector<CellT*> stack;
  for (const Pinned<EpochT, CellT>& p : pins) stack.push_back(p.root);
  while (!stack.empty()) {
    CellT* c = stack.back();
    stack.pop_back();
    NodeT* n = co_await *c;
    if (n == nullptr) continue;
    if constexpr (NodeT::Entry::kHasAug) co_await *n->aug;
    if (!pipelined::treap::is_leaf(n)) {
      stack.push_back(n->left);
      stack.push_back(n->right);
    }
  }
  done->write(1);
}

// Point lookup forcing only the search path (the same descent as
// treap_walk.hpp's lookup, awaiting instead of blocking); writes the
// Probe into *out. Pipelines with in-flight batches chained before the pin
// was taken — the paper's consumer descending into a producer's half-built
// tree, now without holding a worker hostage.
template <typename EpochT, typename CellT, typename V>
Fiber probe_fiber(Pinned<EpochT, CellT> pin, pipelined::treap::Key k,
                  FutCell<Probe<V>>* out) {
  using NodeT = std::remove_pointer_t<typename CellT::value_type>;
  CellT* c = pin.root;
  for (;;) {
    NodeT* n = co_await *c;
    if (n == nullptr) {
      out->write(Probe<V>{});
      co_return;
    }
    if (pipelined::treap::is_leaf(n)) {
      const auto* e = n->items;
      std::uint32_t lo = 0, hi = n->count;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (e[mid].key < k)
          lo = mid + 1;
        else
          hi = mid;
      }
      Probe<V> r{};
      if (lo < n->count && e[lo].key == k) {
        r.value = e[lo].value;
        r.found = true;
      }
      out->write(r);
      co_return;
    }
    if (k < n->key) {
      c = n->left;
    } else if (k > n->key) {
      c = n->right;
    } else {
      out->write(Probe<V>{n->value, true});
      co_return;
    }
  }
}

}  // namespace pwf::rt::rtasync
