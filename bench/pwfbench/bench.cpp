#include "bench.hpp"

#include <cstdio>

#include "support/random.hpp"

namespace pwfb {

namespace {

rt::Scheduler::Stats minus(const rt::Scheduler::Stats& a,
                           const rt::Scheduler::Stats& b) {
  rt::Scheduler::Stats d;
  d.resumed = a.resumed - b.resumed;
  d.steals = a.steals - b.steals;
  d.injected = a.injected - b.injected;
  d.inject_overflows = a.inject_overflows - b.inject_overflows;
  d.inject_overflow_batches =
      a.inject_overflow_batches - b.inject_overflow_batches;
  d.serial_cutoffs = a.serial_cutoffs - b.serial_cutoffs;
  d.leaf_ops = a.leaf_ops - b.leaf_ops;
  d.aug_ops = a.aug_ops - b.aug_ops;
  d.rebalances = a.rebalances - b.rebalances;
  d.wakeups = a.wakeups - b.wakeups;
  d.io_parks = a.io_parks - b.io_parks;
  d.io_wakeups = a.io_wakeups - b.io_wakeups;
  d.timer_fires = a.timer_fires - b.timer_fires;
  d.timer_cancels = a.timer_cancels - b.timer_cancels;
  d.frame_pool_hits = a.frame_pool_hits - b.frame_pool_hits;
  d.frame_pool_misses = a.frame_pool_misses - b.frame_pool_misses;
  return d;
}

void add(rt::Scheduler::Stats& acc, const rt::Scheduler::Stats& d) {
  acc.resumed += d.resumed;
  acc.steals += d.steals;
  acc.injected += d.injected;
  acc.inject_overflows += d.inject_overflows;
  acc.inject_overflow_batches += d.inject_overflow_batches;
  acc.serial_cutoffs += d.serial_cutoffs;
  acc.leaf_ops += d.leaf_ops;
  acc.aug_ops += d.aug_ops;
  acc.rebalances += d.rebalances;
  acc.wakeups += d.wakeups;
  acc.io_parks += d.io_parks;
  acc.io_wakeups += d.io_wakeups;
  acc.timer_fires += d.timer_fires;
  acc.timer_cancels += d.timer_cancels;
  acc.frame_pool_hits += d.frame_pool_hits;
  acc.frame_pool_misses += d.frame_pool_misses;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host-speed probes (see RoundStats).
double probe_sort_ms() {
  static const std::vector<std::uint64_t> input = [] {
    std::vector<std::uint64_t> v(std::size_t{1} << 18);
    std::uint64_t state = 1;
    for (std::uint64_t& x : v) x = pwf::splitmix64(state);
    return v;
  }();
  std::vector<std::uint64_t> v = input;
  const auto t0 = Clock::now();
  std::sort(v.begin(), v.end());
  return seconds_since(t0) * 1e3;
}

double probe_chase_ms() {
  // One random cycle over 16 MiB (Sattolo's shuffle): each step misses the
  // private caches, so the probe tracks memory latency under contention.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> p(std::size_t{1} << 22);
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = static_cast<std::uint32_t>(i);
    pwf::Rng rng(5);
    for (std::size_t i = p.size() - 1; i > 0; --i)
      std::swap(p[i], p[rng.below(i)]);
    return p;
  }();
  const auto t0 = Clock::now();
  std::uint32_t j = 0;
  for (int i = 0; i < 200000; ++i) j = next[j];
  const double ms = seconds_since(t0) * 1e3;
  return j == next.size() ? 0.0 : ms;  // j keeps the chase from being elided
}

}  // namespace

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void Result::param(const std::string& k, double v) {
  params.emplace_back(k, json_number(v));
}

void Result::param(const std::string& k, const std::string& v) {
  params.emplace_back(k, "\"" + v + "\"");
}

double Result::metric_value(const std::string& k) const {
  for (const Metric& m : metrics)
    if (m.name == k) return m.value;
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(idx, v.size() - 1));
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void PhaseMeter::begin(const rt::Scheduler& s) {
  s0_ = s.stats();
  p0_ = pc_.read();
  t0_ = Clock::now();
}

PhaseMeter::Phase PhaseMeter::end(const rt::Scheduler& s) {
  const double wall = seconds_since(t0_);
  const ProcessCounters::Sample p1 = pc_.read();
  add(sched, minus(s.stats(), s0_));
  const Phase out{wall, p1.cpu_s - p0_.cpu_s};
  wall_s += out.wall_s;
  cpu_s += out.cpu_s;
  faults += p1.faults - p0_.faults;
  ctx_switches += p1.ctx_switches - p0_.ctx_switches;
  for (std::size_t e = 0; e < ProcessCounters::kEvents; ++e) {
    if (!p1.perf[e] || !p0_.perf[e]) continue;
    const double d = static_cast<double>(*p1.perf[e] - *p0_.perf[e]);
    const std::string name = ProcessCounters::kNames[e];
    auto it = std::find_if(perf.begin(), perf.end(),
                           [&](const auto& kv) { return kv.first == name; });
    if (it == perf.end())
      perf.emplace_back(name, d);
    else
      it->second += d;
  }
  return out;
}

void RoundStats::probe_host() {
  sort_ms_.push_back(probe_sort_ms());
  chase_ms_.push_back(probe_chase_ms());
}

void RoundStats::report(Result& r) const {
  r.metric("setup_s", median(setup_s_), "s");
  r.metric("keys_per_s", median(keys_per_s_), "keys/s");
  r.metric("op_p50_ms", quantile(op_ms_, 0.50), "ms");
  r.metric("cpu_us_per_key", median(cpu_us_per_key_), "us/key");
  r.counter("op_samples", static_cast<double>(op_ms_.size()));
  r.counter("op_p99_ms", quantile(op_ms_, 0.99));
  r.counter("op_p999_ms", quantile(op_ms_, 0.999));
  r.counter("host.sort_ms", median(sort_ms_));
  r.counter("host.chase_ms", median(chase_ms_));
}

void report_phase(Result& r, const PhaseMeter& m, double keys, double ops,
                  double batches, bool traced) {
  const rt::Scheduler::Stats& s = m.sched;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  r.counter("timed_wall_s", m.wall_s);
  r.counter("cpu_s", m.cpu_s);
  r.counter("keys", keys);
  r.counter("ops", ops);
  r.counter("batches", batches);
  r.counter("rusage.faults", u(m.faults));
  r.counter("rusage.ctx_switches", u(m.ctx_switches));
  for (const auto& [name, v] : m.perf) r.counter("perf." + name, v);
  r.counter("sched.resumed", u(s.resumed));
  r.counter("sched.steals", u(s.steals));
  r.counter("sched.injected", u(s.injected));
  r.counter("sched.inject_overflows", u(s.inject_overflows));
  r.counter("sched.serial_cutoffs", u(s.serial_cutoffs));
  r.counter("sched.leaf_ops", u(s.leaf_ops));
  r.counter("sched.aug_ops", u(s.aug_ops));
  r.counter("sched.rebalances", u(s.rebalances));
  r.counter("sched.wakeups", u(s.wakeups));
  r.counter("sched.io_parks", u(s.io_parks));
  r.counter("sched.io_wakeups", u(s.io_wakeups));
  r.counter("sched.timer_fires", u(s.timer_fires));
  r.counter("sched.frame_pool_hits", u(s.frame_pool_hits));
  r.counter("sched.frame_pool_misses", u(s.frame_pool_misses));
  if (!traced) return;

  const double frames = u(s.frame_pool_hits + s.frame_pool_misses);
  r.layer("scheduler.resumed_per_key", ratio(u(s.resumed), keys), "1/key");
  r.layer("scheduler.steals_per_kresume",
          1000.0 * ratio(u(s.steals), u(s.resumed)), "1/1000");
  r.layer("scheduler.serial_cutoffs_per_batch",
          ratio(u(s.serial_cutoffs), batches), "1/batch");
  r.layer("scheduler.wakeups_per_op", ratio(u(s.wakeups), ops), "1/op");
  r.layer("scheduler.injected_per_op", ratio(u(s.injected), ops), "1/op");
  r.layer("scheduler.inject_overflows", u(s.inject_overflows), "count");
  r.layer("frame_pool.miss_ratio", ratio(u(s.frame_pool_misses), frames),
          "fraction");
  r.layer("frame_pool.frames_per_key", ratio(frames, keys), "1/key");
  r.layer("treap.leaf_ops_per_batch", ratio(u(s.leaf_ops), batches),
          "1/batch");
  r.layer("treap.aug_ops_per_key", ratio(u(s.aug_ops), keys), "1/key");
  r.layer("io_reactor.parks_per_op", ratio(u(s.io_parks), ops), "1/op");
  r.layer("io_reactor.timer_fires", u(s.timer_fires), "count");
  r.layer("process.page_faults_per_key", ratio(u(m.faults), keys), "1/key");
  r.layer("process.ctx_switches_per_op", ratio(u(m.ctx_switches), ops),
          "1/op");
  // Hardware counters exist only where the PMU does; absent, not zero.
  for (const auto& [name, v] : m.perf)
    if (name == "cycles" || name == "instructions" || name == "llc_misses")
      r.layer("process." + name + "_per_key", ratio(v, keys), "1/key");
}

void report_span(Result& r, const std::string& prefix, trace::Name n,
                 bool with_max) {
  const bool ms = prefix.size() > 3 &&
                  prefix.compare(prefix.size() - 3, 3, "_ms") == 0;
  std::vector<double> d = trace::durations_us(r.spans, n);
  if (ms)
    for (double& x : d) x /= 1e3;
  const char* unit = ms ? "ms" : "us";
  r.layer(prefix + "_p50", quantile(d, 0.50), unit);
  r.layer(prefix + "_p99", quantile(d, 0.99), unit);
  if (with_max)
    r.layer(prefix + "_max",
            d.empty() ? 0.0 : *std::max_element(d.begin(), d.end()), unit);
}

void report_self(Result& r, const std::string& prefix, trace::Name n) {
  const std::vector<double> d = trace::self_us(r.spans, n);
  r.layer(prefix + "_p50", quantile(d, 0.50), "us");
  r.layer(prefix + "_p99", quantile(d, 0.99), "us");
}

double span_share(const Result& r, trace::Name n, double whole_s) {
  return ratio(trace::total_s(r.spans, n), whole_s);
}

rt::Fiber record_materialized(MaterializeSample* s) {
  co_await s->done;
  trace::record(trace::kMaterialize, trace::kNone, s->op, s->t0, now_ns(),
                true);
  delete s;
}

std::vector<Item> additive_fold(const Keys& base, std::vector<Item> deltas) {
  for (Key k : base) deltas.emplace_back(k, 1);
  std::sort(deltas.begin(), deltas.end());
  std::vector<Item> out;
  for (const Item& it : deltas) {
    if (!out.empty() && out.back().first == it.first)
      out.back().second += it.second;
    else
      out.push_back(it);
  }
  return out;
}

}  // namespace pwfb
