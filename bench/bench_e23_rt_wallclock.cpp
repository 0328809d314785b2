// E23 — fast-path runtime wall-clock: the E1/E3/E5/E6-shaped workloads on the
// coroutine futures runtime with pooled frames and granularity control, swept
// over 1..hardware threads, against the strict fork-join baselines and tight
// sequential oracles.
//
// Unlike the retired E13 (which constructed a Scheduler inside the timed
// loop and so paid a fixed thread-spawn floor per iteration), this harness
// keeps the Scheduler alive across repetitions, builds the input trees once
// per configuration (cells are write-once and inputs are only read, so they
// are safely reused), and times only algorithm + join. Results go to a JSON
// file (--out) for the CI smoke job and offline plotting; verdict lines
// cover result correctness and the headline ≥1.5× merge-throughput claim
// against the pinned E13 baseline.
//
// Flags: --smoke (tiny sizes, 2 reps), --out=FILE, --reps=N, --max_threads=N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "runtime/rt_treap.hpp"
#include "runtime/rt_trees.hpp"
#include "runtime/rt_ttree.hpp"
#include "runtime/scheduler.hpp"
#include "support/cli.hpp"
#include "treap/seq_treap.hpp"

using namespace pwf;

namespace {

// The last E13 single-thread merge(4096) measurement (1-core host), kept as
// a recorded reference now that E13 is retired.
constexpr double kE13MergeBaselineMs = 2.52;
constexpr double kTargetSpeedup = 1.5;

struct Sample {
  std::string workload;
  std::int64_t n = 0;
  std::int64_t threads = 0;  // 0 = sequential oracle (no scheduler)
  std::string variant;       // pipelined | strict | sequential
  std::int64_t items = 0;
  double ms = 0.0;
};

struct Check {
  std::string claim;
  bool pass = false;
};

std::vector<Sample> g_samples;
std::vector<Check> g_checks;

void record(std::string workload, std::int64_t n, std::int64_t threads,
            std::string variant, std::int64_t items, double ms) {
  std::printf("  %-10s n=%-6lld t=%lld %-10s %9.3f ms  %8.2f Melem/s\n",
              workload.c_str(), static_cast<long long>(n),
              static_cast<long long>(threads), variant.c_str(), ms,
              static_cast<double>(items) / (ms * 1e3));
  g_samples.push_back({std::move(workload), n, threads, std::move(variant),
                       items, ms});
}

void check(std::string claim, bool pass) {
  bench::verdict(claim.c_str(), pass);
  g_checks.push_back({std::move(claim), pass});
}

template <typename F>
double median_ms(int reps, F&& body) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// ---- workloads ---------------------------------------------------------------
// Each runs pipelined + strict under an already-live Scheduler; the
// sequential oracle needs none. `verify` (threads==1 only) checks all
// variants against the oracle's answer.

using Keys = std::vector<std::int64_t>;

void run_merge(std::size_t n, unsigned threads, int reps, bool verify) {
  const Keys a = bench::random_keys(n, 1);
  const Keys b = bench::random_keys(n, 2);
  Keys oracle(2 * n);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), oracle.begin());
  const auto items = static_cast<std::int64_t>(2 * n);
  const auto ni = static_cast<std::int64_t>(n);

  rt::trees::Store st;
  rt::trees::Node* na = st.build_balanced(a);
  rt::trees::Node* nb = st.build_balanced(b);
  rt::trees::Cell* ca = st.input(na);
  rt::trees::Cell* cb = st.input(nb);

  Keys got;
  record("merge", ni, threads, "pipelined", items, median_ms(reps, [&] {
           got = rt::trees::wait_inorder(rt::trees::merge(st, ca, cb));
         }));
  if (verify) check("E1 merge: pipelined inorder == std::merge", got == oracle);

  record("merge", ni, threads, "strict", items, median_ms(reps, [&] {
           rt::trees::Node* r = rt::trees::merge_strict_blocking(st, na, nb);
           got = rt::trees::wait_inorder(st.input(r));
         }));
  if (verify) check("E1 merge: strict inorder == std::merge", got == oracle);

  if (verify)
    record("merge", ni, 0, "sequential", items, median_ms(reps, [&] {
             Keys out(a.size() + b.size());
             std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
             got.swap(out);
           }));
}

void run_treap_union(std::size_t n, unsigned threads, int reps, bool verify) {
  const Keys a = bench::random_keys(n, 3);
  const Keys b = bench::overlapping_keys(a, n, 0.3, 4);
  Keys oracle;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(oracle));
  const auto items = static_cast<std::int64_t>(2 * n);
  const auto ni = static_cast<std::int64_t>(n);

  rt::treap::Store st;
  rt::treap::Node* na = st.build(a);
  rt::treap::Node* nb = st.build(b);
  rt::treap::Cell* ca = st.input(na);
  rt::treap::Cell* cb = st.input(nb);

  Keys got;
  record("union", ni, threads, "pipelined", items, median_ms(reps, [&] {
           got = rt::treap::wait_inorder(rt::treap::union_treaps(st, ca, cb));
         }));
  if (verify)
    check("E3 union: pipelined inorder == std::set_union", got == oracle);

  record("union", ni, threads, "strict", items, median_ms(reps, [&] {
           rt::treap::Node* r = rt::treap::union_strict_blocking(st, na, nb);
           got = rt::treap::wait_inorder(st.input(r));
         }));
  if (verify)
    check("E3 union: strict inorder == std::set_union", got == oracle);

  if (verify)
    record("union", ni, 0, "sequential", items, median_ms(reps, [&] {
             treap::SeqTreap ta = treap::SeqTreap::from_keys(a);
             treap::SeqTreap tb = treap::SeqTreap::from_keys(b);
             ta.unite(std::move(tb));
             got.assign(1, static_cast<std::int64_t>(ta.size()));
           }));
}

void run_treap_diff(std::size_t n, unsigned threads, int reps, bool verify) {
  const Keys a = bench::random_keys(n, 8);
  const Keys b = bench::overlapping_keys(a, n / 2, 0.5, 9);
  Keys oracle;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(oracle));
  const auto items = static_cast<std::int64_t>(n + n / 2);
  const auto ni = static_cast<std::int64_t>(n);

  rt::treap::Store st;
  rt::treap::Node* na = st.build(a);
  rt::treap::Node* nb = st.build(b);
  rt::treap::Cell* ca = st.input(na);
  rt::treap::Cell* cb = st.input(nb);

  Keys got;
  record("diff", ni, threads, "pipelined", items, median_ms(reps, [&] {
           got = rt::treap::wait_inorder(rt::treap::diff_treaps(st, ca, cb));
         }));
  if (verify)
    check("E5 diff: pipelined inorder == std::set_difference", got == oracle);

  record("diff", ni, threads, "strict", items, median_ms(reps, [&] {
           rt::treap::Node* r = rt::treap::diff_strict_blocking(st, na, nb);
           got = rt::treap::wait_inorder(st.input(r));
         }));
  if (verify)
    check("E5 diff: strict inorder == std::set_difference", got == oracle);

  if (verify)
    record("diff", ni, 0, "sequential", items, median_ms(reps, [&] {
             Keys out;
             out.reserve(a.size());
             std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                                 std::back_inserter(out));
             got.swap(out);
           }));
}

void run_ttree(std::size_t n, unsigned threads, int reps, bool verify) {
  const Keys tree_keys = bench::random_keys(n, 5);
  Keys new_keys;
  // Keep the insert batch disjoint from the tree (bulk insert expects fresh
  // keys).
  {
    const Keys raw = bench::random_keys(n / 4 + 64, 6);
    const std::set<std::int64_t> present(tree_keys.begin(), tree_keys.end());
    for (std::int64_t k : raw)
      if (!present.count(k) && new_keys.size() < n / 4) new_keys.push_back(k);
  }
  Keys oracle;
  std::merge(tree_keys.begin(), tree_keys.end(), new_keys.begin(),
             new_keys.end(), std::back_inserter(oracle));
  const auto items = static_cast<std::int64_t>(tree_keys.size() +
                                               new_keys.size());
  const auto ni = static_cast<std::int64_t>(n);

  rt::ttree::Store st;
  rt::ttree::TNode* base = st.build(tree_keys, 3);
  rt::ttree::Cell* base_cell = st.input(base);

  Keys got;
  record("ttree", ni, threads, "pipelined", items, median_ms(reps, [&] {
           got = rt::ttree::wait_keys(
               rt::ttree::bulk_insert(st, base_cell, new_keys));
         }));
  if (verify)
    check("E6 ttree: pipelined keys == sorted union", got == oracle);

  record("ttree", ni, threads, "strict", items, median_ms(reps, [&] {
           rt::ttree::TNode* r =
               rt::ttree::bulk_insert_strict_blocking(st, base, new_keys);
           got = rt::ttree::wait_keys(st.input(r));
         }));
  if (verify) check("E6 ttree: strict keys == sorted union", got == oracle);

  if (verify)
    record("ttree", ni, 0, "sequential", items, median_ms(reps, [&] {
             Keys out;
             out.reserve(oracle.size());
             std::merge(tree_keys.begin(), tree_keys.end(), new_keys.begin(),
                        new_keys.end(), std::back_inserter(out));
             got.swap(out);
           }));
}

void run_mergesort(std::size_t n, unsigned threads, int reps, bool verify) {
  Rng rng(7);
  Keys v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(rng.range(-(1 << 28), 1 << 28));
  Keys oracle = v;
  std::sort(oracle.begin(), oracle.end());
  const auto items = static_cast<std::int64_t>(n);
  const auto ni = static_cast<std::int64_t>(n);

  rt::trees::Store st;

  Keys got;
  record("mergesort", ni, threads, "pipelined", items, median_ms(reps, [&] {
           got = rt::trees::wait_inorder(rt::trees::mergesort(st, v));
         }));
  if (verify)
    check("mergesort: pipelined inorder == std::sort", got == oracle);

  record("mergesort", ni, threads, "strict", items, median_ms(reps, [&] {
           rt::trees::Node* r = rt::trees::mergesort_strict_blocking(st, v);
           got = rt::trees::wait_inorder(st.input(r));
         }));
  if (verify) check("mergesort: strict inorder == std::sort", got == oracle);

  if (verify)
    record("mergesort", ni, 0, "sequential", items, median_ms(reps, [&] {
             Keys w = v;
             std::sort(w.begin(), w.end());
             got.swap(w);
           }));
}

void write_json(const std::string& path, bool smoke, unsigned max_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  bench::JsonWriter w(f);
  w.begin_object();
  w.field("bench", "e23_rt_wallclock");
  w.field("smoke", smoke);
  w.field("max_threads", static_cast<std::int64_t>(max_threads));
  w.field("serial_threshold",
          static_cast<std::int64_t>(
              pipelined::RtExec::kDefaultSerialThreshold));
  w.field("e13_merge_baseline_ms", kE13MergeBaselineMs);
  w.key("results");
  w.begin_array();
  for (const Sample& s : g_samples) {
    w.begin_object();
    w.field("workload", s.workload);
    w.field("n", s.n);
    w.field("threads", s.threads);
    w.field("variant", s.variant);
    w.field("items", s.items);
    w.field("ms", s.ms);
    w.field("melems_per_s", static_cast<double>(s.items) / (s.ms * 1e3));
    w.end_object();
  }
  w.end_array();
  w.key("checks");
  w.begin_array();
  for (const Check& c : g_checks) {
    w.begin_object();
    w.field("claim", c.claim);
    w.field("pass", c.pass);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s (%zu samples, %zu checks)\n", path.c_str(),
              g_samples.size(), g_checks.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {{"smoke", "false"},
                 {"out", "BENCH_rt_wallclock.json"},
                 {"reps", "0"},
                 {"max_threads", "0"}});
  const bool smoke = cli.get_bool("smoke");
  const int reps = cli.get_int("reps") > 0 ? static_cast<int>(cli.get_int("reps"))
                                           : (smoke ? 2 : 15);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  unsigned max_threads = cli.get_int("max_threads") > 0
                             ? static_cast<unsigned>(cli.get_int("max_threads"))
                             : hw;

  std::printf("E23: runtime wall-clock, pooled frames + serial cutoff %zu, "
              "threads 1..%u, %d reps (median)\n",
              pipelined::RtExec::kDefaultSerialThreshold, max_threads, reps);

  const std::size_t n_merge = smoke ? 256 : 4096;
  const std::size_t n_big = smoke ? 512 : 16384;
  const std::size_t n_ttree = smoke ? 256 : 4096;
  const std::size_t n_sort = smoke ? 256 : 8192;

  for (unsigned t = 1; t <= max_threads; ++t) {
    std::printf("-- threads=%u\n", t);
    rt::Scheduler sched(t);
    const bool verify = (t == 1);
    run_merge(n_merge, t, reps, verify);
    if (!smoke) run_merge(n_big, t, reps, false);
    run_treap_union(n_merge, t, reps, verify);
    if (!smoke) run_treap_union(n_big, t, reps, false);
    run_treap_diff(n_merge, t, reps, verify);
    run_ttree(n_ttree, t, reps, verify);
    run_mergesort(n_sort, t, reps, verify);
    const rt::Scheduler::Stats st = sched.stats();
    std::printf("  stats: resumed=%llu steals=%llu injected=%llu "
                "overflows=%llu cutoffs=%llu pool_hits=%llu "
                "pool_misses=%llu\n",
                static_cast<unsigned long long>(st.resumed),
                static_cast<unsigned long long>(st.steals),
                static_cast<unsigned long long>(st.injected),
                static_cast<unsigned long long>(st.inject_overflows),
                static_cast<unsigned long long>(st.serial_cutoffs),
                static_cast<unsigned long long>(st.frame_pool_hits),
                static_cast<unsigned long long>(st.frame_pool_misses));
  }

  if (!smoke) {
    // Headline claim: single-thread pipelined merge at 4096 beats the PR-3
    // E13 measurement by >= 1.5x.
    double merge_ms = 0.0;
    for (const Sample& s : g_samples)
      if (s.workload == "merge" && s.n == 4096 && s.threads == 1 &&
          s.variant == "pipelined")
        merge_ms = s.ms;
    check("merge 4096 1T >= 1.5x over E13 runtime baseline (2.52 ms)",
          merge_ms > 0.0 && merge_ms * kTargetSpeedup <= kE13MergeBaselineMs);
  }

  write_json(cli.get_str("out"), smoke, max_threads);

  int failures = 0;
  for (const Check& c : g_checks)
    if (!c.pass) ++failures;
  return failures == 0 ? 0 : 1;
}
