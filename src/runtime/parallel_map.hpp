// ParallelMap<V, A> — a batch-updatable key→value map: rt::Index over map
// entries with value type V and optional augmentation policy A (an AugOps
// type like pipelined::treap::SumAug<V>; void = unaugmented). index.hpp has
// the service contract.
#pragma once

#include "runtime/index.hpp"
#include "runtime/rt_map.hpp"

namespace pwf::rt {

template <typename V, typename A = void>
using ParallelMap = Index<map::Entry<V, A>>;
template <typename V, typename A = void>
using MapSnapshot = Snapshot<map::Entry<V, A>>;

}  // namespace pwf::rt
