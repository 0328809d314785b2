// bulk_union — the paper's kernel: large pipelined unions and differences.
//
// A ParallelMap over 2^18 even keys takes op after op from a ring of 16
// pairwise-disjoint batches of 2^13 odd keys: op i chains insert_batch(b_i),
// with no flush, onto erase_batch(b_{i-1}), so consecutive operations
// overlap along the tree as in union(union(t, b1), b2). flush() and
// compact() run every 8 ops. The forks at internal nodes drive steals and
// frame allocation; the reactor, routing and the small-batch leaf path are
// absent.
//
// Eight chained ops keep every fiber of their unions alive until the flush,
// so memory grows with the batch: 2^17-key batches over 2^20 keys peaked
// near 1 GiB and allowed only a few hundred ops a run. These sizes keep the
// peak near 500 MiB and give each round over a hundred ops.
#include <cmath>

#include "bench.hpp"
#include "bench/bench_util.hpp"
#include "runtime/parallel_map.hpp"
#include "support/random.hpp"

namespace pwfb {

namespace {

using Map = rt::ParallelMap<std::int64_t>;

constexpr std::size_t kRing = 16;   // disjoint batches, reused cyclically
constexpr std::size_t kGroup = 8;   // ops between flush() + compact()
constexpr std::uint64_t kSampleEvery = 8;  // materialize samples, traced
// Rounds replay the same ops on a fresh index; timed ops per --seconds are
// sized on the reference host.
constexpr std::size_t kRounds = 10;
constexpr double kOpsPerSecond = 90.0;

}  // namespace

void run_bulk_union(const Options& o, const ProcessCounters& pc, Result& r) {
  const std::size_t base_n = o.smoke ? 1 << 12 : 1 << 18;
  const std::size_t m = o.smoke ? 1 << 9 : 1 << 13;
  const std::size_t rounds = o.smoke ? 1 : kRounds;
  const std::size_t groups = std::max<std::size_t>(
      1, o.smoke ? 2
                 : std::llround(o.seconds * kOpsPerSecond / kGroup / kRounds));
  const std::size_t nops = groups * kGroup;
  r.param("base_keys", static_cast<double>(base_n));
  r.param("batch_keys", static_cast<double>(m));
  r.param("ring_batches", static_cast<double>(kRing));
  r.param("flush_compact_every", static_cast<double>(kGroup));
  r.param("rounds", static_cast<double>(rounds));
  r.param("ops_per_round", static_cast<double>(nops));
  r.param("workers", kWorkers);

  // Even base keys; odd batch keys, so batches never touch the base and
  // every op really inserts (and later erases) m keys.
  Keys base =
      pwf::bench::random_keys(base_n, o.seed * 7919 + 4, std::int64_t{1} << 27);
  for (Key& k : base) k *= 2;
  Keys odd = pwf::bench::random_keys(kRing * m, o.seed * 104729 + 9,
                                     std::int64_t{1} << 27);
  pwf::Rng rng(o.seed * 15485863 + 13);
  std::shuffle(odd.begin(), odd.end(), rng);
  std::vector<Keys> ring(kRing);
  std::vector<std::vector<Item>> ring_items(kRing);
  for (std::size_t j = 0; j < kRing; ++j) {
    ring[j].assign(odd.begin() + static_cast<std::ptrdiff_t>(j * m),
                   odd.begin() + static_cast<std::ptrdiff_t>((j + 1) * m));
    for (Key& k : ring[j]) k = 2 * k + 1;
    std::sort(ring[j].begin(), ring[j].end());
    for (Key k : ring[j]) ring_items[j].emplace_back(k, 1);
  }
  std::vector<Item> base_items;
  for (Key k : base) base_items.emplace_back(k, 1);
  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };

  // The last op of a round leaves base ∪ b_last, every value 1.
  std::vector<Item> expect;
  std::merge(base_items.begin(), base_items.end(),
             ring_items[(nops - 1) % kRing].begin(),
             ring_items[(nops - 1) % kRing].end(), std::back_inserter(expect));

  PhaseMeter meter(pc);
  RoundStats stats;
  std::vector<double> lat_ms;
  std::uint64_t arena_growth = 0, batches = 0, overlapped = 0, bad_sizes = 0;
  double keys = 0.0;
  Map::CacheEconomy ce;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto t_setup = Clock::now();
    rt::Scheduler sched(kWorkers);
    Map map(sched);
    map.insert_batch(base_items, add);
    map.flush();
    rt::FramePool::wait_quiescent();
    stats.setup(seconds_since(t_setup));
    stats.probe_host();
    const Map::Stats st0 = map.stats();

    std::vector<double> round_ms;
    round_ms.reserve(nops);
    std::uint64_t arena_after = st0.arena_bytes;
    double round_keys = 0.0;
    meter.begin(sched);
    for (std::size_t i = 0; i < nops; ++i) {
      const std::uint64_t op = round * nops + i;
      const std::int64_t t0 = now_ns();
      if (i > 0) {
        map.erase_batch(ring[(i - 1) % kRing]);
        round_keys += static_cast<double>(m);
      }
      map.insert_batch(ring_items[i % kRing], add);
      round_keys += static_cast<double>(m);
      const std::int64_t t1 = now_ns();
      trace::record(trace::kIssue, trace::kBatch, op, t0, t1);
      if (o.traced && i % kSampleEvery == 0) sample_materialize(map, op, t0);
      if ((i + 1) % kGroup == 0) {
        map.flush();
        const std::int64_t t2 = now_ns();
        trace::record(trace::kFlush, trace::kBatch, op, t1, t2);
        arena_growth += map.stats().arena_bytes - arena_after;
        map.compact();
        arena_after = map.stats().arena_bytes;
        trace::record(trace::kCompact, trace::kBatch, op, t2, now_ns());
        if (map.size() != base_n + m) ++bad_sizes;
      }
      const std::int64_t t3 = now_ns();
      trace::record(trace::kBatch, trace::kNone, op, t0, t3);
      round_ms.push_back(static_cast<double>(t3 - t0) / 1e6);
    }
    const PhaseMeter::Phase phase = meter.end(sched);
    stats.throughput(round_keys, phase.wall_s);
    stats.cpu(phase.cpu_s, round_keys);
    stats.latency(round_ms);
    lat_ms.insert(lat_ms.end(), round_ms.begin(), round_ms.end());
    keys += round_keys;

    r.attempted += nops;
    r.check("round " + std::to_string(round) +
                ": final index equals base plus the last batch",
            map.items() == expect);
    const Map::Stats st = map.stats();
    batches += st.batches - st0.batches;
    overlapped += st.overlapped - st0.overlapped;
    if (o.traced) ce = map.cache_economy();
  }
  r.failed += bad_sizes;
  r.check("every compaction saw base plus one batch", bad_sizes == 0);

  stats.report(r);
  report_phase(r, meter, keys, static_cast<double>(rounds * nops),
               static_cast<double>(rounds * (2 * nops - 1)), o.traced);
  if (!o.traced) return;

  r.spans = trace::collect();
  double op_s = 0.0;
  for (double v : lat_ms) op_s += v / 1e3;
  report_span(r, "parallel_map.issue_us", trace::kIssue);
  report_span(r, "parallel_map.flush_ms", trace::kFlush);
  report_span(r, "parallel_map.compact_ms", trace::kCompact, true);
  report_span(r, "parallel_map.materialize_us", trace::kMaterialize);
  report_self(r, "batch.self_us", trace::kBatch);
  r.layer("parallel_map.compact_share",
          span_share(r, trace::kCompact, op_s), "fraction");
  r.layer("parallel_map.flush_share", span_share(r, trace::kFlush, op_s),
          "fraction");
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
