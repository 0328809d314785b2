// ShardedParallelSet — S range-partitioned ParallelSet shards with
// independent pipelines and epochs: rt::Sharded over ParallelSet. sharded.hpp
// has the partitioning and adaptive rebalancing story.
#pragma once

#include "runtime/parallel_set.hpp"
#include "runtime/sharded.hpp"

namespace pwf::rt {

using ShardedParallelSet = Sharded<ParallelSet>;

}  // namespace pwf::rt
