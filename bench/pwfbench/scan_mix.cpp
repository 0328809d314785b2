// scan_mix — reads beside writes on one facade.
//
// The main thread writes 64-key uniform batches into a sum-augmented
// ParallelMap and compacts it every 256 batches; one reader thread
// alternates snapshot().aggregate(lo, hi), over ranges whose widths are
// log-uniform from 2^8 to 2^28, with get(k) of a base key, until the writer
// finishes. That exercises augmentation upkeep, snapshot pinning and the
// reader-count drain in compact(): a change that speeds writes by slowing
// reads, or the reverse, shows here.
//
// A read cannot know exactly which batches it saw, only that it saw a
// prefix of them no shorter than the writer's count before the read and no
// longer than one past its count after. Sampled answers are checked to lie
// between the oracle folds of those two prefixes (values only grow).
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "bench/bench_util.hpp"
#include "runtime/parallel_map.hpp"
#include "support/random.hpp"

namespace pwfb {

namespace {

using SumAug = pwf::pipelined::treap::SumAug<std::int64_t>;
using Map = rt::ParallelMap<std::int64_t, SumAug>;

constexpr std::size_t kBatchKeys = 64;
constexpr std::size_t kCompactEvery = 256;
constexpr std::size_t kPool = 4096;
constexpr std::uint64_t kCheckEvery = 64;   // reads kept for the check
// The reader makes ~10^5 reads a second; spans of one pair in 16 keep the
// trace small and the percentiles unbiased.
constexpr std::uint64_t kTraceReadEvery = 16;
constexpr std::uint64_t kSampleEvery = 64;  // materialize samples, traced
constexpr std::int64_t kUniverse = std::int64_t{1} << 28;
// Rounds replay the same batches on a fresh index; timed batches per
// --seconds are sized on the reference host.
constexpr std::size_t kRounds = 10;
constexpr double kBatchesPerSecond = 1500.0;

struct Read {
  bool range = false;
  Key lo = 0, hi = 0;
  std::uint64_t before = 0, after = 0;  // writer's batch count around it
  std::int64_t answer = 0;
};

// Sum the map must hold over [lo, hi] after the first p batches.
class PrefixOracle {
 public:
  PrefixOracle(const Keys& base, const std::vector<Keys>& pool)
      : base_(base), pool_(pool) {
    for (Keys& k : pool_) std::sort(k.begin(), k.end());
  }

  // Folds for prefixes p0 <= p1 in one pass over the pool.
  std::pair<std::int64_t, std::int64_t> fold(Key lo, Key hi, std::uint64_t p0,
                                             std::uint64_t p1) const {
    const auto count = [lo, hi](const Keys& v) {
      return std::upper_bound(v.begin(), v.end(), hi) -
             std::lower_bound(v.begin(), v.end(), lo);
    };
    const std::int64_t base = count(base_);
    std::vector<std::int64_t> prefix(pool_.size() + 1, 0);
    for (std::size_t j = 0; j < pool_.size(); ++j)
      prefix[j + 1] = prefix[j] + count(pool_[j]);
    const auto at = [&](std::uint64_t p) {
      const std::uint64_t n = pool_.size();
      return base + static_cast<std::int64_t>(p / n) * prefix[n] +
             prefix[p % n];
    };
    return {at(p0), at(p1)};
  }

 private:
  const Keys& base_;
  std::vector<Keys> pool_;
};

}  // namespace

void run_scan_mix(const Options& o, const ProcessCounters& pc, Result& r) {
  const std::size_t base_n = o.smoke ? 1 << 12 : 1 << 18;
  const std::size_t pool_n = o.smoke ? 64 : kPool;
  const std::size_t rounds = o.smoke ? 1 : kRounds;
  const auto nbatches = static_cast<std::size_t>(
      o.smoke ? 512 : std::llround(o.seconds * kBatchesPerSecond / kRounds));
  r.param("base_keys", static_cast<double>(base_n));
  r.param("batch_keys", static_cast<double>(kBatchKeys));
  r.param("compact_every", static_cast<double>(kCompactEvery));
  r.param("pool_batches", static_cast<double>(pool_n));
  r.param("rounds", static_cast<double>(rounds));
  r.param("batches_per_round", static_cast<double>(nbatches));
  r.param("range_width_log2", std::string("8..28"));
  r.param("workers", kWorkers);

  const Keys base = pwf::bench::random_keys(base_n, o.seed * 7919 + 3);
  std::vector<Item> base_items;
  for (Key k : base) base_items.emplace_back(k, 1);
  pwf::Rng rng(o.seed * 104729 + 7);
  std::vector<Keys> pool_keys(pool_n);
  std::vector<std::vector<Item>> pool(pool_n);
  for (std::size_t i = 0; i < pool_n; ++i)
    for (std::size_t j = 0; j < kBatchKeys; ++j) {
      pool_keys[i].push_back(rng.range(0, kUniverse - 1));
      pool[i].emplace_back(pool_keys[i].back(), 1);
    }
  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
  // Every round replays the same batches on a fresh index.
  std::vector<Item> deltas;
  deltas.reserve(nbatches * kBatchKeys);
  for (std::size_t b = 0; b < nbatches; ++b)
    deltas.insert(deltas.end(), pool[b % pool_n].begin(),
                  pool[b % pool_n].end());
  const std::vector<Item> expect = additive_fold(base, std::move(deltas));
  const PrefixOracle oracle(base, pool_keys);

  PhaseMeter meter(pc);
  RoundStats stats;
  std::vector<double> lat_ms;
  std::uint64_t nreads = 0, arena_growth = 0, batches = 0, overlapped = 0;
  Map::CacheEconomy ce;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto t_setup = Clock::now();
    rt::Scheduler sched(kWorkers);
    Map m(sched);
    m.insert_batch(base_items, add);
    m.flush();
    rt::FramePool::wait_quiescent();
    stats.setup(seconds_since(t_setup));
    stats.probe_host();
    const Map::Stats st0 = m.stats();

    std::atomic<std::uint64_t> issued{0};
    std::atomic<bool> writer_done{false};
    std::vector<Read> reads;
    const std::uint64_t read_op0 = nreads;
    meter.begin(sched);
    std::thread reader([&] {
      trace::label_thread("reader");
      pwf::Rng rrng(o.seed * 15485863 + 11 + round);
      for (std::uint64_t i = 0; !writer_done.load(std::memory_order_acquire);
           ++i, ++nreads) {
        Read rd;
        rd.range = i % 2 == 0;
        if (rd.range) {
          const auto width = static_cast<std::int64_t>(
              std::exp2(8.0 + 20.0 * rrng.uniform01()));
          rd.lo = rrng.range(0, kUniverse - width);
          rd.hi = rd.lo + width - 1;
        } else {
          rd.lo = rd.hi = base[rrng.below(base.size())];
        }
        const std::uint64_t op = read_op0 + i;
        const bool traced = i % kTraceReadEvery < 2;  // one query, one get
        rd.before = issued.load(std::memory_order_acquire);
        const std::int64_t t0 = now_ns();
        if (rd.range) {
          const rt::MapSnapshot<std::int64_t, SumAug> snap = m.snapshot();
          const std::int64_t t1 = now_ns();
          rd.answer = snap.aggregate(rd.lo, rd.hi);
          const std::int64_t t2 = now_ns();
          if (traced) {
            trace::record(trace::kPin, trace::kQuery, op, t0, t1);
            trace::record(trace::kAggregate, trace::kQuery, op, t1, t2);
            trace::record(trace::kQuery, trace::kNone, op, t0, t2);
          }
        } else {
          rd.answer = m.get(rd.lo).value_or(0);
          if (traced)
            trace::record(trace::kGet, trace::kNone, op, t0, now_ns());
        }
        rd.after = issued.load(std::memory_order_acquire);
        if (i % kCheckEvery == 0) reads.push_back(rd);
      }
    });

    std::vector<double> round_ms;
    round_ms.reserve(nbatches);
    std::uint64_t arena_after = st0.arena_bytes;
    const auto writer_t0 = Clock::now();
    for (std::size_t b = 0; b < nbatches; ++b) {
      const std::uint64_t op = round * nbatches + b;
      const std::int64_t t0 = now_ns();
      m.insert_batch(pool[b % pool_n], add);
      const std::int64_t t1 = now_ns();
      issued.store(b + 1, std::memory_order_release);
      trace::record(trace::kIssue, trace::kBatch, op, t0, t1);
      if ((b + 1) % kCompactEvery == 0) {
        arena_growth += m.stats().arena_bytes - arena_after;
        m.compact();
        arena_after = m.stats().arena_bytes;
        trace::record(trace::kCompact, trace::kBatch, op, t1, now_ns());
      }
      if (o.traced && b % kSampleEvery == 0) sample_materialize(m, op, t0);
      const std::int64_t t2 = now_ns();
      trace::record(trace::kBatch, trace::kNone, op, t0, t2);
      round_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    }
    m.flush();
    const double writer_s = seconds_since(writer_t0);
    writer_done.store(true, std::memory_order_release);
    reader.join();
    const PhaseMeter::Phase phase = meter.end(sched);
    arena_growth += m.stats().arena_bytes - arena_after;
    const auto round_keys = static_cast<double>(nbatches * kBatchKeys);
    stats.throughput(round_keys, writer_s);
    stats.cpu(phase.cpu_s, round_keys);
    stats.latency(round_ms);
    lat_ms.insert(lat_ms.end(), round_ms.begin(), round_ms.end());

    // Checks, off the clock.
    const std::string name = "round " + std::to_string(round);
    r.attempted += nbatches + (nreads - read_op0);
    r.check(name + ": final index equals the oracle fold of base and every "
                   "batch",
            m.items() == expect);
    std::uint64_t outside = 0;
    for (const Read& rd : reads) {
      const auto [lo, hi] =
          oracle.fold(rd.lo, rd.hi, rd.before,
                      std::min<std::uint64_t>(rd.after + 1, nbatches));
      if (rd.answer < lo || rd.answer > hi) ++outside;
    }
    r.failed += outside;
    r.check(name + ": " + std::to_string(reads.size()) +
                " sampled reads lie between the folds of their bracketing "
                "prefixes",
            outside == 0);
    const Map::Stats st = m.stats();
    batches += st.batches - st0.batches;
    overlapped += st.overlapped - st0.overlapped;
    if (o.traced) ce = m.cache_economy();
  }

  const double keys = static_cast<double>(rounds * nbatches * kBatchKeys);
  stats.report(r);
  r.counter("reads", static_cast<double>(nreads));
  report_phase(r, meter, keys, static_cast<double>(rounds * nbatches + nreads),
               static_cast<double>(rounds * nbatches), o.traced);
  if (!o.traced) return;

  r.spans = trace::collect();
  double batch_s = 0.0;
  for (double v : lat_ms) batch_s += v / 1e3;
  const double query_s = trace::total_s(r.spans, trace::kQuery);
  report_span(r, "parallel_map.issue_us", trace::kIssue);
  report_span(r, "parallel_map.compact_ms", trace::kCompact, true);
  report_span(r, "parallel_map.materialize_us", trace::kMaterialize);
  report_span(r, "parallel_map.get_us", trace::kGet);
  report_span(r, "snapshot.pin_us", trace::kPin);
  report_span(r, "snapshot.aggregate_us", trace::kAggregate);
  report_span(r, "reader.query_us", trace::kQuery);
  report_self(r, "batch.self_us", trace::kBatch);
  r.layer("parallel_map.compact_share",
          span_share(r, trace::kCompact, batch_s), "fraction");
  r.layer("snapshot.pin_share", span_share(r, trace::kPin, query_s),
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
