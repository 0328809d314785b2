// ingest_skew — routing, split/merge and compaction do most of the work.
//
// E26's adaptive configuration of ShardedParallelMap ingests zipf(1.0)
// batches drawn from a hot window that moves every 32 batches across four
// locations, so the partition must split where the traffic goes and merge
// where it left. Every 16 batches a maintenance step compacts each shard
// holding more than twice its fair share of arena (E26's bounded-footprint
// rule). The reactor and probes are absent; the hot window (4096 slots)
// fits in L2.
//
// The base is 2^16 uniform keys. With 2^18 the cost of a run swung up to
// fourfold between seeds: maintenance then mostly rebuilds whichever cold
// base keys share a shard with a hot slice, and where the adaptive cuts
// leave them is chaotic in the stream.
#include <cmath>

#include "bench.hpp"
#include "bench/bench_util.hpp"
#include "runtime/shard_adapt.hpp"
#include "runtime/sharded_map.hpp"

namespace pwfb {

namespace {

using Map = rt::ShardedParallelMap<std::int64_t>;

constexpr std::size_t kBatchKeys = 256;
constexpr std::size_t kHotRanks = 512;  // zipf ranks over 8x as many slots
constexpr std::size_t kShiftEvery = 32;
constexpr std::size_t kWindows = 4;
constexpr std::size_t kTick = 16;  // batches between maintenance steps
constexpr std::size_t kPool = 4096;
constexpr unsigned kInitialShards = 8;
constexpr std::uint64_t kSampleEvery = 64;  // materialize samples, traced
// The run is split into rounds that replay the same batches on a fresh
// index: E26's rule bounds the worst shard's arena, not the sum, so one
// long round would grow without bound. Timed batches per --seconds are
// sized on the reference host.
constexpr std::size_t kRounds = 10;
constexpr double kBatchesPerSecond = 15000.0;

rt::adapt::Config adaptive() {
  rt::adapt::Config cfg;
  cfg.enabled = true;
  cfg.min_shards = 2;
  cfg.max_shards = 64;
  cfg.low_cont = 0.1;  // E26: merge reluctantly, keep the cold base spread
  return cfg;
}

// Arena bytes summed over shards, as the facade's stats() counts them (a
// store two shards still share after a split counts for both).
std::uint64_t arena_total(const Map& s) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < s.shard_count(); ++i)
    total += s.shard_stats(i).arena_bytes;
  return total;
}

// Compacts every shard holding more than twice its fair share of the total
// arena. Returns the total arena after the step.
std::uint64_t maintain(Map& s, std::uint64_t op) {
  const std::size_t n = s.shard_count();
  std::vector<std::uint64_t> bytes(n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = s.shard_stats(i).arena_bytes;
    total += bytes[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] * n <= 2 * total) continue;
    const std::int64_t t0 = now_ns();
    s.compact_shard(i);
    trace::record(trace::kCompact, trace::kMaintain, op, t0, now_ns());
  }
  return arena_total(s);
}

}  // namespace

void run_ingest_skew(const Options& o, const ProcessCounters& pc, Result& r) {
  const std::size_t base_n = o.smoke ? 1 << 12 : 1 << 16;
  const std::size_t pool_n = o.smoke ? 64 : kPool;
  const std::size_t rounds = o.smoke ? 1 : kRounds;
  const auto nbatches = static_cast<std::size_t>(
      o.smoke ? 128 : std::llround(o.seconds * kBatchesPerSecond / kRounds));
  r.param("base_keys", static_cast<double>(base_n));
  r.param("batch_keys", static_cast<double>(kBatchKeys));
  r.param("zipf_s", 1.0);
  r.param("hot_window_slots", static_cast<double>(kHotRanks * 8));
  r.param("shift_every", static_cast<double>(kShiftEvery));
  r.param("windows", static_cast<double>(kWindows));
  r.param("maintain_every", static_cast<double>(kTick));
  r.param("pool_batches", static_cast<double>(pool_n));
  r.param("rounds", static_cast<double>(rounds));
  r.param("batches_per_round", static_cast<double>(nbatches));
  r.param("initial_shards", kInitialShards);
  r.param("workers", kWorkers);

  const Keys base = pwf::bench::random_keys(base_n, o.seed * 7919 + 2);
  std::vector<Item> base_items;
  for (Key k : base) base_items.emplace_back(k, 1);
  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };

  PhaseMeter meter(pc);
  RoundStats stats;
  std::vector<double> lat_ms;
  std::uint64_t arena_growth = 0, batches = 0, overlapped = 0;
  Map::Stats st;
  Map::CacheEconomy ce;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Each round draws its own stream: the partition's trajectory depends
    // on the stream, and averaging several keeps the run's cost steady.
    const std::vector<Keys> pool_keys = pwf::bench::skewed_batches(
        pool_n, kBatchKeys, kHotRanks, 1.0, kShiftEvery, kWindows,
        o.seed * 104729 + 5 + round);
    std::vector<std::vector<Item>> pool(pool_n);
    std::vector<Item> deltas;
    for (std::size_t i = 0; i < pool_n; ++i) {
      const auto times = static_cast<std::int64_t>(
          nbatches / pool_n + (i < nbatches % pool_n ? 1 : 0));
      for (Key k : pool_keys[i]) {
        pool[i].emplace_back(k, 1);
        if (times > 0) deltas.emplace_back(k, times);
      }
    }
    const std::vector<Item> expect = additive_fold(base, std::move(deltas));

    const auto t_setup = Clock::now();
    rt::Scheduler sched(kWorkers);
    Map s(sched, kInitialShards, 0x9e3779b97f4a7c15ULL,
          rt::map::kDefaultLeafCapacity, adaptive());
    s.insert_batch(base_items, add);
    s.flush();
    s.compact();
    rt::FramePool::wait_quiescent();
    stats.setup(seconds_since(t_setup));
    stats.probe_host();
    const Map::Stats st0 = s.stats();

    std::vector<double> round_ms;
    round_ms.reserve(nbatches);
    std::uint64_t arena_after = arena_total(s);
    meter.begin(sched);
    for (std::size_t b = 0; b < nbatches; ++b) {
      const std::uint64_t op = round * nbatches + b;
      const std::int64_t t0 = now_ns();
      const std::uint64_t reb0 = o.traced ? sched.stats().rebalances : 0;
      s.insert_batch(pool[b % pool_n], add);
      const std::int64_t t1 = now_ns();
      trace::record(trace::kRoute, trace::kBatch, op, t0, t1);
      if (o.traced && sched.stats().rebalances != reb0)
        trace::record(trace::kRebalance, trace::kRoute, op, t0, t1);
      if ((b + 1) % kTick == 0) {
        arena_growth += arena_total(s) - arena_after;
        arena_after = maintain(s, op);
        trace::record(trace::kMaintain, trace::kBatch, op, t1, now_ns());
      }
      if (o.traced && b % kSampleEvery == 0) sample_materialize(s, op, t0);
      const std::int64_t t2 = now_ns();
      trace::record(trace::kBatch, trace::kNone, op, t0, t2);
      round_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    }
    s.flush();
    const PhaseMeter::Phase phase = meter.end(sched);
    const auto round_keys = static_cast<double>(nbatches * kBatchKeys);
    stats.throughput(round_keys, phase.wall_s);
    stats.cpu(phase.cpu_s, round_keys);
    stats.latency(round_ms);
    lat_ms.insert(lat_ms.end(), round_ms.begin(), round_ms.end());
    arena_growth += arena_total(s) - arena_after;

    r.attempted += nbatches;
    r.check("round " + std::to_string(round) +
                ": final index equals the oracle fold of base and every batch",
            s.items() == expect);
    st = s.stats();
    r.check("round " + std::to_string(round) +
                ": skewed traffic split the partition (splits > 0)",
            st.splits > 0);
    batches += st.batches - st0.batches;
    overlapped += st.overlapped - st0.overlapped;
    if (o.traced) ce = s.cache_economy();
  }

  const double keys = static_cast<double>(rounds * nbatches * kBatchKeys);
  stats.report(r);
  r.counter("sharded.splits", static_cast<double>(st.splits));
  r.counter("sharded.merges", static_cast<double>(st.merges));
  r.counter("sharded.shards_final", static_cast<double>(st.shards));
  report_phase(r, meter, keys, static_cast<double>(rounds * nbatches),
               static_cast<double>(rounds * nbatches), o.traced);
  if (!o.traced) return;

  r.spans = trace::collect();
  double batch_s = 0.0;
  for (double v : lat_ms) batch_s += v / 1e3;
  // The facade's mutator call is the sharded one here: issuing a batch is
  // routing it.
  report_span(r, "parallel_map.issue_us", trace::kRoute);
  report_span(r, "sharded_map.route_us", trace::kRoute);
  report_span(r, "sharded_map.rebalance_us", trace::kRebalance);
  report_span(r, "sharded_map.maintain_ms", trace::kMaintain);
  report_span(r, "parallel_map.compact_ms", trace::kCompact, true);
  report_span(r, "parallel_map.materialize_us", trace::kMaterialize);
  report_self(r, "batch.self_us", trace::kBatch);
  r.layer("parallel_map.compact_share",
          span_share(r, trace::kCompact, batch_s), "fraction");
  r.layer("sharded_map.route_share", span_share(r, trace::kRoute, batch_s),
          "fraction");
  r.layer("sharded_map.maintain_share",
          span_share(r, trace::kMaintain, batch_s), "fraction");
  r.layer("sharded_map.splits", static_cast<double>(st.splits), "count");
  r.layer("sharded_map.merges", static_cast<double>(st.merges), "count");
  r.layer("sharded_map.shards_final", static_cast<double>(st.shards), "count");
  r.layer("sharded_map.imbalance_max", st.imbalance_max, "ratio");
  r.layer("parallel_map.overlapped_frac",
          static_cast<double>(overlapped) / static_cast<double>(batches),
          "fraction");
  r.layer("treap.internal_node_frac",
          static_cast<double>(ce.internal_nodes) /
              static_cast<double>(ce.internal_nodes + ce.leaf_keys),
          "fraction");
  r.layer("treap.arena_bytes_per_key",
          static_cast<double>(arena_growth) / keys, "B/key");
}

}  // namespace pwfb
