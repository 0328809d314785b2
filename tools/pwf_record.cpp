// pwf-record — DAG-record the runtime's real code paths and verify them.
//
// Runs every algorithm family on the RecExec recording substrate
// (src/analyze/rec_exec.hpp) across a substrate-parameter grid — leaf-chunk
// capacity x serial threshold — and, for each run:
//
//   1. checks the computed result against a sequential oracle,
//   2. verifies the recorded cm::Trace with pwf::analyze::verify()
//      (write-once, race-freedom, EREW, epoch closure; linearity as a
//      statistic, matching the engine-destructor hook),
//   3. replays the trace through the Section-4 greedy-schedule simulator
//      (sim::Dag + sim::schedule) and checks the Brent bound
//      steps <= w/p + d for several processor counts.
//
// The treap family additionally exercises storage epochs: it compacts into
// a fresh store mid-run (RecExec::new_epoch), so leaf operations, serial
// cutoffs AND epoch boundaries all appear in the verified traces.
//
// Exit status is nonzero on any oracle mismatch, verifier violation, or
// simulator bound breach — CI runs `pwf-record --grid smoke`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/rec_exec.hpp"
#include "analyze/verifier.hpp"
#include "costmodel/engine.hpp"
#include "pipelined/treap_walk.hpp"
#include "sim/dag.hpp"
#include "sim/scheduler.hpp"
#include "support/random.hpp"

namespace {

using pwf::analyze::RecExec;
namespace rec = pwf::analyze::rec;
using rec::Key;

struct Config {
  std::vector<std::size_t> leaf_caps{0, 1, 32};
  std::vector<std::size_t> thresholds{0, 1, 128};
  std::size_t n = 1500;  // keys per input in each family run
  bool verbose = false;
};

struct Tally {
  int runs = 0;
  int failures = 0;
};

std::vector<Key> random_keys(std::size_t n, std::uint64_t seed) {
  pwf::Rng rng(seed);
  std::set<Key> s;
  while (s.size() < n) s.insert(rng.range(0, 1 << 22));
  return {s.begin(), s.end()};
}

// Steps 2 + 3 above, shared by every family runner. `what` names the run in
// diagnostics; returns false on any violation or bound breach.
bool verify_trace(const pwf::cm::Engine& eng, const std::string& what,
                  const Config& cfg, std::uint32_t expected_epochs = 1,
                  bool crew = false) {
  const pwf::cm::Trace* trace = eng.trace();
  if (trace == nullptr) {
    std::fprintf(stderr, "FAIL %s: engine recorded no trace\n", what.c_str());
    return false;
  }
  pwf::analyze::Options opts;
  opts.check_linearity = false;  // Section-4 property, reported as a stat
  opts.check_erew = !crew;       // aug fibers re-read node cells (CREW)
  const pwf::analyze::Report rep = pwf::analyze::verify(*trace, opts);
  bool ok = rep.ok();
  if (!ok)
    std::fprintf(stderr, "FAIL %s: verifier violations:\n%s\n", what.c_str(),
                 rep.to_string().c_str());
  if (rep.num_epochs != expected_epochs) {
    std::fprintf(stderr, "FAIL %s: expected %u storage epochs, trace has %u\n",
                 what.c_str(), expected_epochs, rep.num_epochs);
    ok = false;
  }

  // Replay on the greedy-schedule simulator (the recording substrate is the
  // simulator's input path: same Dag ctor the cm-engine traces use).
  const pwf::sim::Dag dag(*trace);
  for (const std::uint64_t p : {1ull, 4ull, 16ull}) {
    const pwf::sim::ScheduleResult sr =
        pwf::sim::schedule(dag, p, pwf::sim::Discipline::kStack);
    if (!sr.within_bound(p)) {
      std::fprintf(stderr,
                   "FAIL %s: greedy schedule at p=%llu broke the Brent bound "
                   "(steps %llu, work %llu, depth %llu)\n",
                   what.c_str(), static_cast<unsigned long long>(p),
                   static_cast<unsigned long long>(sr.steps),
                   static_cast<unsigned long long>(sr.work),
                   static_cast<unsigned long long>(sr.depth));
      ok = false;
    }
  }
  if (cfg.verbose && ok)
    std::printf("ok   %s: %s\n", what.c_str(), rep.to_string().c_str());
  return ok;
}

std::string run_name(const char* family, std::size_t cap, std::size_t thr) {
  return std::string(family) + " (leaf-cap " + std::to_string(cap) +
         ", threshold " + std::to_string(thr) + ")";
}

// ---- family runners ---------------------------------------------------------
// Each records one engine-lifetime of work at the given substrate parameters
// and self-checks against a sequential oracle before the trace is verified.

bool run_treap(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("treap-setops", cap, thr);
  const auto a = random_keys(cfg.n, 101);
  const auto b = random_keys(cfg.n * 2 / 3, 102);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  pwf::cm::Engine eng(/*trace_enabled=*/true);
  RecExec ex(eng, thr);
  bool ok = true;
  std::vector<Key> got_u;
  {
    rec::TreapStore st(eng, pwf::pipelined::treap::kDefaultSalt, cap);
    rec::TreapCell* uc = rec::union_treaps(
        ex, st, st.input(st.build(a)), st.input(st.build(b)));
    got_u = rec::treap_inorder(uc);
    ok &= got_u == u;
    rec::TreapCell* dc = rec::diff_treaps(ex, st, st.input(st.build(a)),
                                          st.input(st.build(b)));
    ok &= rec::treap_inorder(dc) == d;
    ok &= rec::treap_inorder(rec::intersect_treaps(
              ex, st, st.input(st.build(a)), st.input(st.build(b)))) == i;
    // Strict baseline on the same substrate parameters.
    std::vector<Key> got_strict;
    pwf::pipelined::treap::collect_inorder<pwf::analyze::RecPolicy>(
        rec::union_strict(ex, st, st.build(a), st.build(b)), got_strict);
    ok &= got_strict == u;

    // Small operands (at most the threshold's keys) chained onto the
    // computed results: the path-bounded cutoff links every large-side
    // cell it never reaches into its result, so the next operation reads
    // cells written by an earlier one through a result that shares them.
    const std::size_t m = thr > 0 ? thr : 64;
    const auto small = [&](std::uint64_t seed) {
      std::set<Key> s;
      pwf::Rng rng(seed);
      while (s.size() < m)  // half of them already present
        s.insert(s.size() % 2 == 0 ? u[rng.below(u.size())]
                                   : rng.range(0, 1 << 22));
      return std::vector<Key>(s.begin(), s.end());
    };
    const auto s1 = small(104), s2 = small(105), s3 = small(106),
               s4 = small(107);
    std::set<Key> ref(u.begin(), u.end());
    ref.insert(s1.begin(), s1.end());
    for (Key k : s2) ref.erase(k);
    rec::TreapCell* r2 = rec::diff_treaps(
        ex, st, rec::union_treaps(ex, st, uc, st.input(st.build(s1))),
        st.input(st.build(s2)));
    ok &= rec::treap_inorder(r2) == std::vector<Key>(ref.begin(), ref.end());
    std::vector<Key> s3_minus, d_and_s4;
    std::set_difference(s3.begin(), s3.end(), ref.begin(), ref.end(),
                        std::back_inserter(s3_minus));
    std::set_intersection(d.begin(), d.end(), s4.begin(), s4.end(),
                          std::back_inserter(d_and_s4));
    ok &= rec::treap_inorder(rec::diff_treaps(
              ex, st, st.input(st.build(s3)), r2)) == s3_minus;
    ok &= rec::treap_inorder(rec::intersect_treaps(
              ex, st, dc, st.input(st.build(s4)))) == d_and_s4;
  }
  // Storage epoch: compact the union result into a fresh store, then keep
  // operating on it. The old store's trace actions stay in epoch 0, the new
  // store's in epoch 1; no data edge may cross (the old arena is freed at a
  // real compaction point — ParallelSet::compact does exactly this).
  ex.new_epoch();
  {
    rec::TreapStore st2(eng, pwf::pipelined::treap::kDefaultSalt, cap);
    const auto batch = random_keys(cfg.n / 2, 103);
    std::vector<Key> after;
    std::set_difference(u.begin(), u.end(), batch.begin(), batch.end(),
                        std::back_inserter(after));
    ok &= rec::treap_inorder(rec::diff_treaps(
              ex, st2, st2.input(st2.build(got_u)),
              st2.input(st2.build(batch)))) == after;
  }
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg, /*expected_epochs=*/2) && ok;
}

// The adaptive sharded facades rebalance with pipelined split/join while
// batches are still in flight (docs/service.md). This family records that
// exact shape: union a batch into a base treap, split the still-resolving
// result at a pivot (an existing key, so split_at's singleton-reattach path
// runs), keep batching into both halves, then join them back — one engine
// lifetime, verified as a single DAG.
bool run_shard_rebalance(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("shard-rebalance", cap, thr);
  const auto base = random_keys(cfg.n, 701);
  const auto batch1 = random_keys(cfg.n / 2, 702);
  const auto batch2 = random_keys(cfg.n / 2, 703);
  std::vector<Key> u;
  std::set_union(base.begin(), base.end(), batch1.begin(), batch1.end(),
                 std::back_inserter(u));
  const Key pivot = u[u.size() / 2];  // existing key: exercises key == pivot
  std::vector<Key> ins_l, del_r;
  for (Key k : batch2) (k < pivot ? ins_l : del_r).push_back(k);
  std::set<Key> lref, rref;
  for (Key k : u) (k < pivot ? lref : rref).insert(k);
  lref.insert(ins_l.begin(), ins_l.end());
  for (Key k : del_r) rref.erase(k);
  std::vector<Key> joined(lref.begin(), lref.end());
  joined.insert(joined.end(), rref.begin(), rref.end());

  pwf::cm::Engine eng(/*trace_enabled=*/true);
  RecExec ex(eng, thr);
  bool ok = true;
  {
    rec::TreapStore st(eng, pwf::pipelined::treap::kDefaultSalt, cap);
    rec::TreapCell* uc = rec::union_treaps(
        ex, st, st.input(st.build(base)), st.input(st.build(batch1)));
    // Split while the union is (logically) still resolving: the rebalance
    // overlaps the in-flight batch, exactly like ParallelSet::split_off.
    rec::TreapCell* less = st.cell();
    rec::TreapCell* geq = st.cell();
    rec::split_treap(ex, st, pivot, uc, less, geq);
    rec::TreapCell* l2 =
        rec::union_treaps(ex, st, less, st.input(st.build(ins_l)));
    rec::TreapCell* r2 =
        rec::diff_treaps(ex, st, geq, st.input(st.build(del_r)));
    rec::TreapCell* back = rec::join_treaps(ex, st, l2, r2);
    ok &= rec::treap_inorder(less) ==
          std::vector<Key>(u.begin(), u.begin() + (u.size() / 2));
    ok &= rec::treap_inorder(back) == joined;
  }
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg) && ok;
}

bool run_aug_map(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("aug-map-setops", cap, thr);
  const auto make_items = [](std::size_t n, std::uint64_t seed) {
    const auto keys = random_keys(n, seed);
    pwf::Rng rng(seed * 131 + 7);
    std::vector<std::pair<Key, std::int64_t>> out;
    out.reserve(keys.size());
    for (Key k : keys) out.emplace_back(k, rng.range(1, 1000));
    return out;
  };
  const auto a = make_items(cfg.n, 601);
  const auto b = make_items(cfg.n * 2 / 3, 602);

  // Oracles: value-merging union (shared keys sum) and difference (a minus
  // b's keys, a's values survive).
  std::map<Key, std::int64_t> u_ref(a.begin(), a.end());
  for (const auto& [k, v] : b) {
    auto [it, fresh] = u_ref.emplace(k, v);
    if (!fresh) it->second += v;
  }
  std::map<Key, std::int64_t> d_ref(a.begin(), a.end());
  for (const auto& [k, v] : b) d_ref.erase(k);

  pwf::cm::Engine eng(/*trace_enabled=*/true);
  eng.set_crew(true);  // aug fibers re-read node cells
  RecExec ex(eng, thr);
  bool ok = true;
  {
    rec::AugMapStore st(eng, pwf::pipelined::treap::kDefaultSalt, cap);
    const auto rpeek = [](const auto* c) {
      return pwf::analyze::RecPolicy::peek(c);
    };
    const auto items_of = [&](rec::AugMapCell* c) {
      std::vector<std::pair<Key, std::int64_t>> got;
      pwf::pipelined::treap::visit_items(
          c, rpeek,
          [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
      return got;
    };
    rec::AugMapCell* uc = rec::union_aug_maps(
        ex, st, st.input(st.build(a)), st.input(st.build(b)));
    ok &= items_of(uc) ==
          std::vector<std::pair<Key, std::int64_t>>(u_ref.begin(), u_ref.end());
    ok &= items_of(rec::diff_aug_maps(ex, st, st.input(st.build(a)),
                                      st.input(st.build(b)))) ==
          std::vector<std::pair<Key, std::int64_t>>(d_ref.begin(), d_ref.end());
    // Range aggregates against a sequential fold.
    const auto check_ranges = [&](rec::AugMapCell* c,
                                  const std::map<Key, std::int64_t>& ref) {
      const Key first = ref.begin()->first;
      const Key last = ref.rbegin()->first;
      const Key mid = std::next(ref.begin(), ref.size() / 2)->first;
      for (const auto& [lo, hi] : {std::pair<Key, Key>{first, last},
                                   {first, mid},
                                   {mid, last},
                                   {last + 1, last + 100}}) {
        std::int64_t fold = 0;
        for (const auto& [k, v] : ref)
          if (k >= lo && k <= hi) fold += v;
        ok &= pwf::pipelined::treap::aggregate(c, lo, hi, rpeek) == fold;
      }
    };
    check_ranges(uc, u_ref);

    // A small batch (at most the threshold's keys) upserted into the
    // computed union, then a small batch erased: the results share the
    // union's untouched cells and compute their aggregates inline.
    const std::size_t m = thr > 0 ? thr : 64;
    const auto s1 = make_items(m, 603);
    std::vector<std::pair<Key, std::int64_t>> s2;  // m keys of the union
    std::size_t idx = 0;
    for (const auto& [k, v] : u_ref)
      if (idx++ % (u_ref.size() / m + 1) == 0) s2.emplace_back(k, 0);
    std::map<Key, std::int64_t> ref = u_ref;
    for (const auto& [k, v] : s1) ref[k] += v;
    for (const auto& [k, v] : s2) ref.erase(k);
    rec::AugMapCell* r2 = rec::diff_aug_maps(
        ex, st, rec::union_aug_maps(ex, st, uc, st.input(st.build(s1))),
        st.input(st.build(s2)));
    ok &= items_of(r2) ==
          std::vector<std::pair<Key, std::int64_t>>(ref.begin(), ref.end());
    check_ranges(r2, ref);
  }
  ok &= eng.aug_ops() > 0;  // aug maintenance must appear in the trace
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg, /*expected_epochs=*/1, /*crew=*/true) &&
         ok;
}

bool run_trees(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("tree-merge-rebalance", cap, thr);
  const auto a = random_keys(cfg.n, 201);
  const auto b = random_keys(cfg.n / 2, 202);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  pwf::cm::Engine eng(true);
  RecExec ex(eng, thr);
  rec::TreeStore st(eng);
  rec::TreeCell* merged = rec::merge(ex, st, st.input(st.build_balanced(a)),
                                     st.input(st.build_balanced(b)));
  bool ok = rec::tree_inorder(merged) == oracle;
  ok &= rec::tree_inorder(rec::rebalance(ex, st, merged)) == oracle;
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg) && ok;
}

bool run_ttree(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("ttree-bulk-insert", cap, thr);
  const auto base = random_keys(cfg.n, 301);
  const auto extra = random_keys(cfg.n / 2, 302);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  pwf::cm::Engine eng(true);
  RecExec ex(eng, thr);
  rec::TtreeStore st(eng);
  rec::TtreeCell* out =
      rec::bulk_insert(ex, st, st.input(st.build(base, 3)), extra);
  const bool ok = rec::ttree_keys(out) == oracle;
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg) && ok;
}

bool run_mergesort(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("mergesort", cap, thr);
  auto values = random_keys(cfg.n, 401);
  pwf::Rng rng(402);
  for (std::size_t k = values.size(); k > 1; --k)
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  pwf::cm::Engine eng(true);
  RecExec ex(eng, thr);
  rec::TreeStore st(eng);
  const bool ok = rec::tree_inorder(rec::mergesort(ex, st, values)) == oracle;
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg) && ok;
}

bool run_quicksort(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("quicksort", cap, thr);
  pwf::Rng rng(501);  // duplicates allowed: exercises pivot-equal paths
  std::vector<rec::Value> values(cfg.n);
  for (auto& x : values) x = rng.range(0, 1 << 10);
  std::vector<rec::Value> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  pwf::cm::Engine eng(true);
  RecExec ex(eng, thr);
  rec::ListStore st(eng);
  const bool ok = rec::list_values(rec::quicksort(ex, st, values)) == oracle;
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg) && ok;
}

bool run_produce_consume(std::size_t cap, std::size_t thr, const Config& cfg) {
  const std::string what = run_name("produce-consume", cap, thr);
  const auto n = static_cast<std::int64_t>(cfg.n);
  pwf::cm::Engine eng(true);
  RecExec ex(eng, thr);
  rec::ListStore st(eng);
  const bool ok = rec::produce_consume(ex, st, n) == n * (n + 1) / 2;
  if (!ok) std::fprintf(stderr, "FAIL %s: result mismatch\n", what.c_str());
  return verify_trace(eng, what, cfg) && ok;
}

struct Family {
  const char* name;
  bool (*run)(std::size_t cap, std::size_t thr, const Config& cfg);
};

constexpr Family kFamilies[] = {
    {"treap", run_treap},
    {"shard-rebalance", run_shard_rebalance},
    {"aug-map", run_aug_map},
    {"trees", run_trees},
    {"ttree", run_ttree},
    {"mergesort", run_mergesort},
    {"quicksort", run_quicksort},
    {"produce-consume", run_produce_consume},
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--grid smoke|full] [--family NAME|all] [--leaf-cap N]\n"
      "          [--threshold N] [--n N] [--verbose]\n"
      "families: treap shard-rebalance aug-map trees ttree mergesort "
      "quicksort produce-consume\n"
      "Defaults run the full grid: leaf cap {0,1,32} x threshold {0,1,128}.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string family = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--grid") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "full") == 0) {
        cfg.n = 6000;
      } else if (std::strcmp(v, "smoke") != 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--family") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      family = v;
    } else if (arg == "--leaf-cap") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.leaf_caps = {static_cast<std::size_t>(std::stoul(v))};
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.thresholds = {static_cast<std::size_t>(std::stoul(v))};
    } else if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.n = std::stoul(v);
    } else if (arg == "--verbose") {
      cfg.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  Tally tally;
  for (const Family& f : kFamilies) {
    if (family != "all" && family != f.name) continue;
    for (const std::size_t cap : cfg.leaf_caps) {
      for (const std::size_t thr : cfg.thresholds) {
        ++tally.runs;
        if (!f.run(cap, thr, cfg)) ++tally.failures;
      }
    }
  }
  if (tally.runs == 0) return usage(argv[0]);
  std::printf("pwf-record: %d run(s), %d failure(s)\n", tally.runs,
              tally.failures);
  return tally.failures == 0 ? 0 : 1;
}
