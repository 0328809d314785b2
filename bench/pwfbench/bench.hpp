// Shared pieces of the pwf service benchmark (README.md): run options, the
// result every workload fills, percentiles, the resource meter of the timed
// phases, and the oracle fold every workload checks its index against.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "counters.hpp"
#include "runtime/future.hpp"
#include "runtime/scheduler.hpp"
#include "trace.hpp"

namespace pwfb {

namespace rt = pwf::rt;

using Clock = std::chrono::steady_clock;
using Key = std::int64_t;
using Item = std::pair<Key, std::int64_t>;
using Keys = std::vector<Key>;

// Every workload runs on this many scheduler workers; the benchmark adds at
// most two load threads of its own (nproc = 4 on the reference host).
constexpr unsigned kWorkers = 2;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::uint64_t seed = 1;
  // The timed work is a fixed amount derived from this, sized so that it
  // takes about this long on the reference host. Both sides of a comparison
  // therefore do identical work; a faster build just finishes sooner.
  double seconds = 15.0;
  bool smoke = false;   // tiny sizes, every oracle check kept
  bool traced = false;  // this pass records spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// A JSON number with every digit the record keeps.
std::string json_number(double v);

// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// What one pass of one workload reports.
struct Result {
  std::vector<std::pair<std::string, std::string>> params;  // JSON literals
  std::vector<Metric> metrics;  // end-to-end
  std::vector<Metric> layers;   // per-layer; filled on the traced pass
  std::vector<std::pair<std::string, double>> counters;  // timed-phase deltas
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<trace::Span> spans;  // traced pass only

  void param(const std::string& k, double v);
  void param(const std::string& k, const std::string& v);
  void metric(const std::string& k, double v, const std::string& unit) {
    metrics.push_back({k, v, unit});
  }
  void layer(const std::string& k, double v, const std::string& unit) {
    layers.push_back({k, v, unit});
  }
  void counter(const std::string& k, double v) { counters.emplace_back(k, v); }
  // Records a check; a failed check counts as one failed operation.
  void check(const std::string& claim, bool pass) {
    checks.emplace_back(claim, pass);
    if (!pass) ++failed;
  }
  double metric_value(const std::string& k) const;
};

// Resource use of the timed phases, summed over every begin()/end() pair:
// wall time, process CPU and faults, and scheduler counter deltas (the
// scheduler may be a fresh one in every phase).
class PhaseMeter {
 public:
  struct Phase {
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };

  explicit PhaseMeter(const ProcessCounters& pc) : pc_(pc) {}
  void begin(const rt::Scheduler& s);
  Phase end(const rt::Scheduler& s);  // this phase alone

  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t faults = 0;
  std::uint64_t ctx_switches = 0;
  std::vector<std::pair<std::string, double>> perf;  // present events only
  rt::Scheduler::Stats sched{};

 private:
  const ProcessCounters& pc_;
  Clock::time_point t0_{};
  ProcessCounters::Sample p0_{};
  rt::Scheduler::Stats s0_{};
};

// End-to-end samples of the rounds of a run (segments, for serve_point).
// Set-up time, throughput and CPU per key are the median over rounds.
// Operation latencies are pooled over every timed round, so a stall in any
// round moves the tail as a user would see it; op_p99_ms is a counter, not
// an end-to-end metric (README.md: host stalls make it unrepeatable).
//
// Each round also times two fixed probes that run no repository code (a
// sort, and a pointer chase over a 16 MiB ring). Their medians go into the
// run record's counters as host.sort_ms and host.chase_ms, so a reader can
// see how fast the host ran; nothing is scaled by them.
class RoundStats {
 public:
  void setup(double seconds) { setup_s_.push_back(seconds); }
  void probe_host();  // once per timed round, before it starts
  void throughput(double keys, double wall_s) {
    keys_per_s_.push_back(keys / wall_s);
  }
  void latency(const std::vector<double>& ms) {
    op_ms_.insert(op_ms_.end(), ms.begin(), ms.end());
  }
  void cpu(double cpu_s, double keys) {
    cpu_us_per_key_.push_back(1e6 * cpu_s / keys);
  }
  // setup_s, keys_per_s, op_p50_ms and cpu_us_per_key as metrics; the
  // latency sample count, op_p99_ms, op_p999_ms and the probes as counters.
  void report(Result& r) const;

 private:
  std::vector<double> setup_s_, keys_per_s_, op_ms_, cpu_us_per_key_,
      sort_ms_, chase_ms_;
};

// Adds the timed-phase counters to `r` (every pass), and on the traced pass
// the per-layer metrics every workload shares: scheduler, frame pool,
// reactor and process counters per key, per op and per batch.
void report_phase(Result& r, const PhaseMeter& m, double keys, double ops,
                  double batches, bool traced);

// Adds `<prefix>_p50` and `<prefix>_p99` (and `<prefix>_max` if asked) of
// the durations of the traced spans named `n`, in microseconds, or in
// milliseconds when `prefix` ends in "_ms".
void report_span(Result& r, const std::string& prefix, trace::Name n,
                 bool with_max = false);
// Adds `<prefix>_p50` and `<prefix>_p99` of the self times of the traced
// spans named `n` (duration minus what their child spans cover), in
// microseconds: the part of an op no instrumented layer accounts for.
void report_self(Result& r, const std::string& prefix, trace::Name n);
// Share of `whole_s` seconds covered by the traced spans named `n`.
double span_share(const Result& r, trace::Name n, double whole_s);

// Traced pass: records a parallel_map.materialize span for `op` from `t0`
// until every batch chained onto `facade` so far has materialized. The
// facade's on_flush does the waiting in a fiber, so the caller never blocks.
struct MaterializeSample {
  rt::FutCell<int> done;
  std::uint64_t op = 0;
  std::int64_t t0 = 0;
};
rt::Fiber record_materialized(MaterializeSample* s);

template <typename Facade>
void sample_materialize(const Facade& facade, std::uint64_t op,
                        std::int64_t t0) {
  auto* s = new MaterializeSample;
  s->op = op;
  s->t0 = t0;
  facade.on_flush(s->done);
  rt::spawn(record_materialized(s));
}

// Sorted (key, value) fold of `base` (each key once, value 1) and the
// (key, delta) pairs of `deltas`, merged by +: the contents a map must hold
// after upserting them with an additive merge.
std::vector<Item> additive_fold(const Keys& base, std::vector<Item> deltas);

// Workload entry points: run one pass and fill `r`.
void run_serve_point(const Options& o, const ProcessCounters& pc, Result& r);
void run_ingest_skew(const Options& o, const ProcessCounters& pc, Result& r);
void run_scan_mix(const Options& o, const ProcessCounters& pc, Result& r);
void run_bulk_union(const Options& o, const ProcessCounters& pc, Result& r);

}  // namespace pwfb
