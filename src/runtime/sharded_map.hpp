// ShardedParallelMap<V, A> — S range-partitioned ParallelMap<V, A> shards:
// rt::Sharded over ParallelMap. `aggregate(lo, hi)` combines the per-shard
// range aggregates in shard (key) order (sharded.hpp).
#pragma once

#include "runtime/parallel_map.hpp"
#include "runtime/sharded.hpp"
#include "runtime/sharded_set.hpp"

namespace pwf::rt {

template <typename V, typename A = void>
using ShardedParallelMap = Sharded<ParallelMap<V, A>>;

}  // namespace pwf::rt
