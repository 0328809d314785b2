// Parallel (real-execution) treap union and difference — Sections 3.2–3.3
// on the coroutine futures runtime, for the paper's key-only treaps. The
// algorithm bodies are the templated coroutines in src/pipelined/treap.hpp,
// instantiated on the RtExec substrate; the drivers and walks below are
// the entry-generic ones of rt_map.hpp at SetEntry, plus the strict
// fork-join baselines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pipelined/rt_exec.hpp"
#include "pipelined/treap.hpp"
#include "runtime/future.hpp"
#include "runtime/scheduler.hpp"

namespace pwf::rt::treap {

using Key = pipelined::treap::Key;
using Pri = pipelined::treap::Pri;

using Node = pipelined::treap::Node<pipelined::RtPolicy>;
using Cell = FutCell<Node*>;
using Store = pipelined::treap::Store<pipelined::RtPolicy>;

// The packed node record (key/priority/children + the leaf view) is the
// cache-line contract the chunked storage relies on (docs/storage.md).
static_assert(sizeof(Node) <= 64,
              "runtime treap node must fit in one cache line");

Cell* union_treaps(Store& st, Cell* a, Cell* b);
Cell* diff_treaps(Store& st, Cell* a, Cell* b);
Cell* intersect_treaps(Store& st, Cell* a, Cell* b);

// Rebalance primitives of the contention-adaptive shards (docs/service.md):
// pipelined range split (keys < pivot into *outL, keys >= pivot into *outR)
// and range-disjoint join (every key of `a` < every key of `b`). Both return
// immediately — the result materializes on the scheduler, overlapping
// in-flight batches — and bump Scheduler::Stats rebalances.
void split_treaps(Store& st, Cell* in, Key pivot, Cell* outL, Cell* outR);
Cell* join_treaps(Store& st, Cell* a, Cell* b);

// Strict fork-join baselines on the runtime (same bodies as the cost
// model's union_strict/diff_strict). Block the calling thread until the
// result treap is complete.
Node* union_strict_blocking(Store& st, Node* a, Node* b);
Node* diff_strict_blocking(Store& st, Node* a, Node* b);

// Joins the computation: waits for every reachable cell, returns in-order
// keys.
std::vector<Key> wait_inorder(Cell* root_cell);

// Post-completion validation (BST + heap order + deterministic priorities).
bool validate(const Store& st, Cell* root_cell);

// Storage composition of a finished tree (forces every reachable cell):
// how many cache lines the structure spends on internal nodes vs flat leaf
// chunks — the cache-economy column of E19/E24.
pipelined::treap::CacheEconomy cache_economy(Cell* root_cell);

}  // namespace pwf::rt::treap
