// pwf_bench — the service benchmark every performance claim in this repo is
// measured with (README.md).
//
//   pwf_bench --workload=all|serve_point|ingest_skew|scan_mix|bulk_union
//             --seed=N --seconds=S [--smoke] [--trace=FILE] --out=run.json
//
// Drives the public service API through four workloads and writes one run
// record (host, build, parameters, metrics, counters, checks). Each workload
// of `--workload=all` runs in a forked child, so peak RSS and set-up time
// belong to that workload alone. `--trace=FILE` runs each workload twice,
// untraced and then traced, for half of --seconds each: end-to-end metrics
// come from the untraced pass, per-layer metrics and the Chrome trace from
// the traced one, and their difference is trace.overhead_frac.
//
// Exits nonzero if any check fails.
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "support/cli.hpp"

#ifndef PWFB_COMMIT
#define PWFB_COMMIT "unknown"
#endif
#ifndef PWFB_BUILD_TYPE
#define PWFB_BUILD_TYPE "unknown"
#endif
#ifndef PWFB_CXX_FLAGS
#define PWFB_CXX_FLAGS ""
#endif
#ifndef PWFB_COMPILER
#define PWFB_COMPILER "unknown"
#endif

namespace {

using namespace pwfb;

struct Workload {
  const char* name;
  void (*run)(const Options&, const ProcessCounters&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"serve_point", run_serve_point},
    {"ingest_skew", run_ingest_skew},
    {"scan_mix", run_scan_mix},
    {"bulk_union", run_bulk_union},
};

// Per-layer metrics of layers a workload bypasses read 0, so every workload
// prints the same set (README.md lists which workload loads which layer).
constexpr std::pair<const char*, const char*> kBypassedReadZero[] = {
    {"parallel_map.compact_share", "fraction"},
    {"sharded_map.splits", "count"},
    {"sharded_map.merges", "count"},
    {"sharded_map.shards_final", "count"},
    {"sharded_map.imbalance_max", "ratio"},
    {"sharded_map.route_share", "fraction"},
    {"sharded_map.maintain_share", "fraction"},
    {"io_reactor.wake_share", "fraction"},
    {"io_reactor.reply_share", "fraction"},
    {"service.queue_share", "fraction"},
    {"parallel_map.probe_share", "fraction"},
    {"snapshot.pin_share", "fraction"},
};

// Spans one thread may hold; later spans are dropped and counted.
constexpr std::size_t kSpansPerThread = std::size_t{1} << 19;

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    s += (i ? ", " : "") + ("\"" + ms[i].name + "\": {\"value\": " +
                            json_number(ms[i].value) + ", \"unit\": \"" +
                            ms[i].unit + "\"}");
  return s + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

// One workload: its untraced pass, and with a trace path its traced pass.
// Returns the workload's JSON object; `ok` is false if any check failed.
std::string run_workload(const Workload& w, const Options& opts,
                         const std::string& trace_path, bool& ok) {
  const ProcessCounters pc;  // before any thread: inherited by all of them
  const bool tracing = !trace_path.empty();
  Options o = opts;
  if (tracing) o.seconds = opts.seconds / 2;
  std::fprintf(stderr, "pwf_bench: %s seed=%llu seconds=%g%s%s\n", w.name,
               static_cast<unsigned long long>(o.seed), o.seconds,
               o.smoke ? " smoke" : "", tracing ? " (untraced pass)" : "");
  trace::label_thread("main");
  Result r;
  w.run(o, pc, r);
  r.metric("peak_rss_mb", ProcessCounters::peak_rss_mb(), "MiB");
  r.counter("perf.user_only", pc.user_only() ? 1.0 : 0.0);

  Result t;
  if (tracing) {
    std::fprintf(stderr, "pwf_bench: %s traced pass\n", w.name);
    o.traced = true;
    trace::start(kSpansPerThread);
    w.run(o, pc, t);
    trace::stop();
    for (const auto& [name, unit] : kBypassedReadZero) {
      bool present = false;
      for (const Metric& m : t.layers) present |= m.name == name;
      if (!present) t.layer(name, 0.0, unit);
    }
    // The pooled latency tail is a per-layer metric (README.md), taken from
    // the untraced pass like the end-to-end metrics.
    for (const auto& [name, v] : r.counters)
      if (name == "op_p99_ms") t.layer(name, v, "ms");
    const double untraced = r.metric_value("keys_per_s");
    const double traced = t.metric_value("keys_per_s");
    t.layer("trace.overhead_frac", untraced / traced - 1.0, "fraction");
    t.layer("trace.dropped_spans", static_cast<double>(trace::dropped()),
            "count");
    if (!trace::write_chrome(trace_path, t.spans))
      t.check("trace written to " + trace_path, false);
  }

  ok = true;
  std::string checks = "[";
  std::size_t i = 0;
  for (const Result* p : {&r, &t})
    for (const auto& [claim, pass] : p->checks) {
      ok &= pass;
      checks += (i++ ? ", " : "") + ("{\"claim\": \"" + escape(claim) +
                                     "\", \"pass\": " +
                                     (pass ? "true" : "false") + "}");
    }
  checks += "]";
  std::string params = "{";
  for (std::size_t j = 0; j < r.params.size(); ++j)
    params += (j ? ", \"" : "\"") + r.params[j].first +
              "\": " + r.params[j].second;
  params += "}";
  std::string counters = "{";
  for (std::size_t j = 0; j < r.counters.size(); ++j)
    counters += (j ? ", \"" : "\"") + r.counters[j].first +
                "\": " + json_number(r.counters[j].second);
  counters += "}";

  std::ostringstream js;
  js << "{\"workload\": \"" << w.name << "\", \"ok\": "
     << (ok ? "true" : "false") << ", \"traced\": "
     << (tracing ? "true" : "false") << ", \"attempted\": "
     << r.attempted + t.attempted << ", \"failed\": " << r.failed + t.failed
     << ",\n  \"params\": " << params
     << ",\n  \"metrics\": " << metrics_json(r.metrics)
     << ",\n  \"layers\": " << metrics_json(t.layers)
     << ",\n  \"counters\": " << counters << ",\n  \"checks\": " << checks;
  if (tracing) js << ",\n  \"trace\": \"" << escape(trace_path) << "\"";
  js << "}";
  return js.str();
}

bool write_record(const std::string& path, const Options& o,
                  const std::vector<std::string>& workloads) {
  utsname u{};
  ::uname(&u);
  std::ofstream out(path);
  out << "{\"schema\": \"pwfbench-run/1\",\n"
      << " \"host\": {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu\": \"" << escape(cpu_model()) << "\", \"kernel\": \""
      << escape(u.release) << "\"},\n"
      << " \"build\": {\"commit\": \"" << PWFB_COMMIT << "\", \"type\": \""
      << PWFB_BUILD_TYPE << "\", \"flags\": \"" << escape(PWFB_CXX_FLAGS)
      << "\", \"compiler\": \"" << escape(PWFB_COMPILER) << "\"},\n"
      << " \"seed\": " << o.seed
      << ", \"seconds\": " << json_number(o.seconds)
      << ", \"smoke\": " << (o.smoke ? "true" : "false")
      << ",\n \"workloads\": [\n";
  for (std::size_t i = 0; i < workloads.size(); ++i)
    out << (i ? ",\n " : " ") << workloads[i];
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// "run.trace.json" + "serve_point" -> "run.trace.serve_point.json".
std::string per_workload(const std::string& path, const char* name) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + name;
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  const pwf::Cli cli(argc, argv, {{"workload", "all"},
                                  {"seed", "1"},
                                  {"seconds", "15"},
                                  {"smoke", "false"},
                                  {"trace", ""},
                                  {"out", "pwfbench-run.json"}});
  Options o;
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  o.seconds = cli.get_double("seconds");
  o.smoke = cli.get_bool("smoke");
  const std::string name = cli.get_str("workload");
  const std::string trace_path = cli.get_str("trace");
  const std::string out = cli.get_str("out");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    std::fprintf(stderr, "--seconds must be in (0, 600]\n");
    return 2;
  }

  std::vector<const Workload*> chosen;
  for (const Workload& w : kWorkloads)
    if (name == "all" || name == w.name) chosen.push_back(&w);
  if (chosen.empty()) {
    std::fprintf(stderr, "unknown --workload=%s; known: all", name.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::vector<std::string> objects;
  bool ok = true;
  if (chosen.size() == 1) {
    objects.push_back(run_workload(*chosen[0], o, trace_path, ok));
  } else {
    for (const Workload* w : chosen) {
      const std::string part = out + "." + w->name + ".part";
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (pid == 0) {
        bool child_ok = false;
        const std::string obj = run_workload(
            *w, o, trace_path.empty() ? "" : per_workload(trace_path, w->name),
            child_ok);
        std::ofstream(part) << obj;
        std::fflush(nullptr);
        ::_exit(child_ok ? 0 : 1);
      }
      int status = 0;
      ::waitpid(pid, &status, 0);
      const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      std::ifstream in(part);
      std::stringstream text;
      text << in.rdbuf();
      ::unlink(part.c_str());
      objects.push_back(!text.str().empty()
                            ? text.str()
                            : "{\"workload\": \"" + std::string(w->name) +
                                  "\", \"ok\": false, \"status\": " +
                                  std::to_string(status) + "}");
      ok &= child_ok;
    }
  }
  if (!write_record(out, o, objects)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(stderr, "pwf_bench: wrote %s (%s)\n", out.c_str(),
               ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
