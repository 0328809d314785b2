// ParallelSet — a sorted set of int64 keys with pipelined batch mutation:
// rt::Index over the paper's key-only treap entries. index.hpp has the
// service contract (batches, quiescence, epochs, snapshots, threads).
#pragma once

#include "pipelined/treap_entry.hpp"
#include "runtime/index.hpp"
#include "runtime/rt_treap.hpp"

namespace pwf::rt {

using ParallelSet = Index<pipelined::treap::SetEntry>;
using SetSnapshot = Snapshot<pipelined::treap::SetEntry>;

}  // namespace pwf::rt
