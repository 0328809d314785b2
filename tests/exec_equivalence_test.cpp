// Cross-substrate equivalence: every algorithm body in src/pipelined/ is a
// single templated coroutine, instantiated on four execution substrates —
// CmExec (pipelined cost model), CmStrictExec (fork-join baseline), RtExec
// (coroutine runtime) and RecExec (recording substrate). This test feeds
// random inputs through all available instantiations of each ported
// algorithm and checks every result against a sequential oracle, so a
// substrate-specific divergence in any shared body fails here regardless of
// which substrate introduced it. The RecExec column additionally requires
// every recorded trace to pass the pwf-analyze verifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algos/mergesort.hpp"
#include "algos/producer_consumer.hpp"
#include "algos/quicksort.hpp"
#include "analyze/rec_exec.hpp"
#include "analyze/verifier.hpp"
#include "costmodel/engine.hpp"
#include "pipelined/treap_walk.hpp"
#include "runtime/rt_algos.hpp"
#include "runtime/rt_map.hpp"
#include "runtime/rt_treap.hpp"
#include "runtime/rt_trees.hpp"
#include "runtime/rt_ttree.hpp"
#include "runtime/scheduler.hpp"
#include "support/random.hpp"
#include "treap/setops.hpp"
#include "treap/treap.hpp"
#include "trees/merge.hpp"
#include "trees/rebalance.hpp"
#include "trees/tree.hpp"
#include "ttree/insert.hpp"
#include "ttree/ttree.hpp"

namespace pwf {
namespace {

using Key = std::int64_t;

std::vector<Key> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::set<Key> s;
  while (s.size() < n) s.insert(rng.range(0, 1 << 22));
  return {s.begin(), s.end()};
}

std::vector<Key> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);  // duplicates allowed: exercises pivot-equal paths
  std::vector<Key> v(n);
  for (auto& x : v) x = rng.range(0, 1 << 10);
  return v;
}

class ExecEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecEquivalence, TreeMerge) {
  const std::uint64_t seed = GetParam();
  const auto a = random_keys(500 + 37 * seed, seed * 2 + 1);
  const auto b = random_keys(300 + 11 * seed, seed * 2 + 2);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  {
    cm::Engine eng;  // CmExec: pipelined cost model
    trees::Store st(eng);
    trees::TreeCell* out = trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(out), got);
    EXPECT_EQ(got, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec: fork-join baseline
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(
        trees::merge_strict(st, st.build_balanced(a), st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec: pipelined + strict on real threads
    rt::trees::Store st;
    EXPECT_EQ(rt::trees::wait_inorder(rt::trees::merge(
                  st, st.input(st.build_balanced(a)),
                  st.input(st.build_balanced(b)))),
              oracle);
    std::vector<Key> got;
    rt::trees::collect_inorder(
        rt::trees::merge_strict_blocking(st, st.build_balanced(a),
                                         st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
  }
}

TEST_P(ExecEquivalence, TreeRebalance) {
  const std::uint64_t seed = GetParam();
  const auto a = random_keys(800 + 53 * seed, seed * 3 + 1);
  const auto b = random_keys(200, seed * 3 + 2);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  std::vector<Key> cm_keys;
  int cm_height = 0;
  {
    cm::Engine eng;
    trees::Store st(eng);
    trees::TreeCell* merged = trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    trees::TreeCell* out = trees::rebalance(st, merged);
    trees::collect_inorder(trees::peek(out), cm_keys);
    cm_height = trees::height(trees::peek(out));
    EXPECT_EQ(cm_keys, oracle);
  }
  {
    rt::Scheduler sched(2);
    rt::trees::Store st;
    rt::trees::Cell* merged = rt::trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    rt::trees::Cell* out = rt::trees::rebalance(st, merged);
    EXPECT_EQ(rt::trees::wait_inorder(out), oracle);
    // Rank-split rebalance is deterministic: both substrates build the same
    // shape, not just the same key sequence.
    EXPECT_EQ(rt::trees::height(rt::trees::peek(out)), cm_height);
  }
}

TEST_P(ExecEquivalence, TreapSetOps) {
  const std::uint64_t seed = GetParam();
  const auto a = random_keys(400 + 29 * seed, seed * 5 + 1);
  const auto b = random_keys(300 + 17 * seed, seed * 5 + 2);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  {
    cm::Engine eng;  // CmExec
    treap::Store st(eng);
    const auto run = [&](treap::TreapCell* (*op)(treap::Store&,
                                                 treap::TreapCell*,
                                                 treap::TreapCell*),
                         const std::vector<Key>& expected) {
      treap::TreapCell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      std::vector<Key> got;
      treap::collect_inorder(treap::peek(out), got);
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(treap::validate(st, treap::peek(out)));
    };
    run(treap::union_treaps, u);
    run(treap::diff_treaps, d);
    run(treap::intersect_treaps, i);
  }
  {
    cm::Engine eng;  // CmStrictExec
    treap::Store st(eng);
    const auto collect = [](treap::Node* n) {
      std::vector<Key> got;
      treap::collect_inorder(n, got);
      return got;
    };
    EXPECT_EQ(collect(treap::union_strict(st, st.build(a), st.build(b))), u);
    EXPECT_EQ(collect(treap::diff_strict(st, st.build(a), st.build(b))), d);
    EXPECT_EQ(collect(treap::intersect_strict(st, st.build(a), st.build(b))),
              i);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::treap::Store st;
    const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                rt::treap::Cell*,
                                                rt::treap::Cell*),
                         const std::vector<Key>& expected) {
      rt::treap::Cell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      EXPECT_EQ(rt::treap::wait_inorder(out), expected);
      EXPECT_TRUE(rt::treap::validate(st, out));
    };
    run(rt::treap::union_treaps, u);
    run(rt::treap::diff_treaps, d);
    run(rt::treap::intersect_treaps, i);
    std::vector<Key> got;
    rt::treap::Node* s =
        rt::treap::union_strict_blocking(st, st.build(a), st.build(b));
    EXPECT_EQ(rt::treap::wait_inorder(st.input(s)), u);
  }
}

TEST_P(ExecEquivalence, TtreeBulkInsert) {
  const std::uint64_t seed = GetParam();
  const auto base = random_keys(600 + 41 * seed, seed * 7 + 1);
  const auto extra = random_keys(250 + 13 * seed, seed * 7 + 2);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  {
    cm::Engine eng;  // CmExec
    ttree::Store st(eng);
    ttree::TCell* out =
        ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    std::vector<Key> got;
    ttree::collect_keys(ttree::peek(out), got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(ttree::validate(ttree::peek(out)));
  }
  {
    cm::Engine eng;  // CmStrictExec
    ttree::Store st(eng);
    ttree::TNode* out = ttree::bulk_insert_strict(st, st.build(base, 3), extra);
    std::vector<Key> got;
    ttree::collect_keys(out, got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(ttree::validate(out));
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::ttree::Store st;
    rt::ttree::Cell* out =
        rt::ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    EXPECT_EQ(rt::ttree::wait_keys(out), oracle);
    EXPECT_TRUE(rt::ttree::validate(out));
  }
}

TEST_P(ExecEquivalence, Mergesort) {
  const std::uint64_t seed = GetParam();
  auto values = random_keys(700 + 61 * seed, seed * 11 + 1);
  Rng rng(seed * 11 + 2);
  for (std::size_t k = values.size(); k > 1; --k) {
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  }
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  {
    cm::Engine eng;  // CmExec (plain + balanced)
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(algos::mergesort(st, values)), got);
    EXPECT_EQ(got, oracle);
    got.clear();
    trees::collect_inorder(trees::peek(algos::mergesort_balanced(st, values)),
                           got);
    EXPECT_EQ(got, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(algos::mergesort_strict(st, values), got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec (plain + balanced)
    rt::trees::Store st;
    EXPECT_EQ(rt::trees::wait_inorder(rt::trees::mergesort(st, values)),
              oracle);
    EXPECT_EQ(
        rt::trees::wait_inorder(rt::trees::mergesort_balanced(st, values)),
        oracle);
  }
}

TEST_P(ExecEquivalence, Quicksort) {
  const std::uint64_t seed = GetParam();
  const auto values = random_values(500 + 43 * seed, seed * 13 + 1);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  {
    cm::Engine eng;  // CmExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::peek_list(algos::quicksort(st, values)), oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::peek_list(algos::quicksort_strict(st, values)), oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::list::Store st;
    EXPECT_EQ(rt::list::wait_list(rt::list::quicksort(st, values)), oracle);
  }
}

TEST_P(ExecEquivalence, ProducerConsumer) {
  const std::int64_t n = 64 + 32 * static_cast<std::int64_t>(GetParam());
  const std::int64_t oracle = n * (n + 1) / 2;

  {
    cm::Engine eng;  // CmExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::produce_consume(st, n).sum, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec-style baseline
    algos::ListStore st(eng);
    EXPECT_EQ(algos::produce_consume_strict(st, n).sum, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::list::Store st;
    EXPECT_EQ(rt::list::produce_consume_sum(st, n), oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecEquivalence, ::testing::Values(0, 1, 2));

// ---- RecExec column ---------------------------------------------------------
// The recording substrate runs the same bodies with the granularity knobs
// live (chunked leaves, runtime serial threshold) while recording a DAG.
// Every family must match the sequential oracle at leaf cap 0 (node-per-key,
// the cost-model shape) and at the runtime's default cap of 32 — and every
// recorded trace must be verifier-clean (linearity demoted to a statistic,
// as in the engine-destructor hook: the Section-2 model allows multi-reads).

namespace rec = analyze::rec;

void expect_trace_clean(const cm::Engine& eng, const char* what) {
  ASSERT_NE(eng.trace(), nullptr);
  analyze::Options opts;
  opts.check_linearity = false;
  const analyze::Report rep = analyze::verify(*eng.trace(), opts);
  EXPECT_TRUE(rep.ok()) << what << ": " << rep.to_string();
}

class ExecEquivalenceRec : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceRec, TreapSetOps) {
  const std::size_t cap = GetParam();
  const auto a = random_keys(400, 17);
  const auto b = random_keys(300, 18);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TreapStore st(eng, pipelined::treap::kDefaultSalt, cap);
  EXPECT_EQ(rec::treap_inorder(rec::union_treaps(
                ex, st, st.input(st.build(a)), st.input(st.build(b)))),
            u);
  EXPECT_EQ(rec::treap_inorder(rec::diff_treaps(
                ex, st, st.input(st.build(a)), st.input(st.build(b)))),
            d);
  EXPECT_EQ(rec::treap_inorder(rec::intersect_treaps(
                ex, st, st.input(st.build(a)), st.input(st.build(b)))),
            i);
  std::vector<Key> got;
  pipelined::treap::collect_inorder<analyze::RecPolicy>(
      rec::union_strict(ex, st, st.build(a), st.build(b)), got);
  EXPECT_EQ(got, u);
  expect_trace_clean(eng, "treap");
}

TEST_P(ExecEquivalenceRec, TreeMergeAndRebalance) {
  const std::size_t cap = GetParam();
  (void)cap;  // binary trees have no chunked leaves; both points still record
  const auto a = random_keys(500, 19);
  const auto b = random_keys(300, 20);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TreeStore st(eng);
  rec::TreeCell* merged = rec::merge(ex, st, st.input(st.build_balanced(a)),
                                     st.input(st.build_balanced(b)));
  EXPECT_EQ(rec::tree_inorder(merged), oracle);
  EXPECT_EQ(rec::tree_inorder(rec::rebalance(ex, st, merged)), oracle);
  expect_trace_clean(eng, "trees");
}

TEST_P(ExecEquivalenceRec, TtreeBulkInsert) {
  const std::size_t cap = GetParam();
  (void)cap;
  const auto base = random_keys(600, 21);
  const auto extra = random_keys(250, 22);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TtreeStore st(eng);
  EXPECT_EQ(rec::ttree_keys(rec::bulk_insert(
                ex, st, st.input(st.build(base, 3)), extra)),
            oracle);
  expect_trace_clean(eng, "ttree");
}

TEST_P(ExecEquivalenceRec, Mergesort) {
  const std::size_t cap = GetParam();
  (void)cap;
  auto values = random_keys(700, 23);
  Rng rng(24);
  for (std::size_t k = values.size(); k > 1; --k) {
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  }
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TreeStore st(eng);
  EXPECT_EQ(rec::tree_inorder(rec::mergesort(ex, st, values)), oracle);
  expect_trace_clean(eng, "mergesort");
}

TEST_P(ExecEquivalenceRec, QuicksortAndProducerConsumer) {
  const std::size_t cap = GetParam();
  (void)cap;
  const auto values = random_values(500, 25);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::ListStore st(eng);
  EXPECT_EQ(rec::list_values(rec::quicksort(ex, st, values)), oracle);
  EXPECT_EQ(rec::produce_consume(ex, st, 256), 256 * 257 / 2);
  expect_trace_clean(eng, "list");
}

INSTANTIATE_TEST_SUITE_P(
    LeafCaps, ExecEquivalenceRec,
    ::testing::Values(std::size_t{0}, pipelined::treap::kDefaultLeafCapacity));

// ---- serial-threshold straddle ----------------------------------------------
// RtExec bottoms out in tight sequential loops below kDefaultSerialThreshold;
// these sizes pin the handoff between the serial fast path and the forking
// path: threshold-1, threshold, threshold+1 and 2*threshold must agree with
// the sequential oracle on every substrate. The Cm substrates have threshold
// 0 (the cutoff branches are dead there) and run as the control group.

class ExecEquivalenceThreshold : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(ExecEquivalenceThreshold, TreeMergeAndRebalance) {
  const std::size_t n = GetParam();
  const auto a = random_keys(n, 2 * n + 1);
  const auto b = random_keys(n, 2 * n + 2);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  {
    cm::Engine eng;  // CmExec
    trees::Store st(eng);
    trees::TreeCell* out = trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(out), got);
    EXPECT_EQ(got, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(
        trees::merge_strict(st, st.build_balanced(a), st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec: merge, strict merge, and rebalance
    rt::trees::Store st;
    rt::trees::Cell* merged = rt::trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    EXPECT_EQ(rt::trees::wait_inorder(merged), oracle);
    std::vector<Key> got;
    rt::trees::collect_inorder(
        rt::trees::merge_strict_blocking(st, st.build_balanced(a),
                                         st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
    rt::trees::Cell* balanced = rt::trees::rebalance(
        st, rt::trees::merge(st, st.input(st.build_balanced(a)),
                             st.input(st.build_balanced(b))));
    EXPECT_EQ(rt::trees::wait_inorder(balanced), oracle);
  }
}

TEST_P(ExecEquivalenceThreshold, TreapSetOps) {
  const std::size_t n = GetParam();
  const auto a = random_keys(n, 3 * n + 1);
  const auto b = random_keys(n, 3 * n + 2);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  {
    cm::Engine eng;  // CmExec
    treap::Store st(eng);
    const auto run = [&](treap::TreapCell* (*op)(treap::Store&,
                                                 treap::TreapCell*,
                                                 treap::TreapCell*),
                         const std::vector<Key>& expected) {
      treap::TreapCell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      std::vector<Key> got;
      treap::collect_inorder(treap::peek(out), got);
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(treap::validate(st, treap::peek(out)));
    };
    run(treap::union_treaps, u);
    run(treap::diff_treaps, d);
    run(treap::intersect_treaps, i);
  }
  {
    rt::Scheduler sched(2);  // RtExec, pipelined + strict
    rt::treap::Store st;
    const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                rt::treap::Cell*,
                                                rt::treap::Cell*),
                         const std::vector<Key>& expected) {
      rt::treap::Cell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      EXPECT_EQ(rt::treap::wait_inorder(out), expected);
      EXPECT_TRUE(rt::treap::validate(st, out));
    };
    run(rt::treap::union_treaps, u);
    run(rt::treap::diff_treaps, d);
    run(rt::treap::intersect_treaps, i);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::union_strict_blocking(
                  st, st.build(a), st.build(b)))),
              u);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::diff_strict_blocking(
                  st, st.build(a), st.build(b)))),
              d);
  }
}

TEST_P(ExecEquivalenceThreshold, TtreeBulkInsert) {
  const std::size_t n = GetParam();
  const auto base = random_keys(n, 5 * n + 1);
  const auto extra = random_keys(n, 5 * n + 2);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  {
    cm::Engine eng;  // CmExec
    ttree::Store st(eng);
    ttree::TCell* out =
        ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    std::vector<Key> got;
    ttree::collect_keys(ttree::peek(out), got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(ttree::validate(ttree::peek(out)));
  }
  {
    rt::Scheduler sched(2);  // RtExec, pipelined + strict
    rt::ttree::Store st;
    rt::ttree::Cell* out =
        rt::ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    EXPECT_EQ(rt::ttree::wait_keys(out), oracle);
    EXPECT_TRUE(rt::ttree::validate(out));
    rt::ttree::TNode* s = rt::ttree::bulk_insert_strict_blocking(
        st, st.build(base, 3), extra);
    EXPECT_EQ(rt::ttree::wait_keys(st.input(s)), oracle);
  }
}

TEST_P(ExecEquivalenceThreshold, Mergesort) {
  const std::size_t n = GetParam();
  auto values = random_keys(n, 7 * n + 1);
  Rng rng(7 * n + 2);
  for (std::size_t k = values.size(); k > 1; --k) {
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  }
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  {
    cm::Engine eng;  // CmExec, plain + balanced
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(algos::mergesort(st, values)), got);
    EXPECT_EQ(got, oracle);
    got.clear();
    trees::collect_inorder(trees::peek(algos::mergesort_balanced(st, values)),
                           got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec, plain + balanced + strict
    rt::trees::Store st;
    EXPECT_EQ(rt::trees::wait_inorder(rt::trees::mergesort(st, values)),
              oracle);
    EXPECT_EQ(
        rt::trees::wait_inorder(rt::trees::mergesort_balanced(st, values)),
        oracle);
    std::vector<Key> got;
    rt::trees::collect_inorder(
        rt::trees::mergesort_strict_blocking(st, values), got);
    EXPECT_EQ(got, oracle);
  }
}

TEST_P(ExecEquivalenceThreshold, QuicksortAndProducerConsumer) {
  const std::size_t n = GetParam();
  const auto values = random_values(n, 11 * n + 1);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());
  const auto ni = static_cast<std::int64_t>(n);
  const std::int64_t sum_oracle = ni * (ni + 1) / 2;

  {
    cm::Engine eng;  // CmExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::peek_list(algos::quicksort(st, values)), oracle);
    EXPECT_EQ(algos::produce_consume(st, ni).sum, sum_oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::list::Store st;
    EXPECT_EQ(rt::list::wait_list(rt::list::quicksort(st, values)), oracle);
    EXPECT_EQ(rt::list::produce_consume_sum(st, ni), sum_oracle);
  }
}

// ---- small operand against a large one --------------------------------------
// The path-bounded cutoff applies an operand of at most serial_threshold()
// keys along the other operand's search paths, linking every side it never
// reaches into the result as the same cell. Here the small operand has the
// parameter's size (threshold-1 ... 2*threshold) against 64*threshold keys,
// on either side of union, difference and intersection, for sets, maps and
// sum-augmented maps, on every substrate. Union merges with an
// order-sensitive function, so operand order is checked through every
// priority swap. Intersection keeps the root side's value, which depends
// on the storage layout, so its inputs agree on every shared key's value.

namespace pt = pipelined::treap;

using KeyValue = std::pair<Key, std::int64_t>;
using SumAugEntry =
    pt::AugEntry<pt::MapEntry<std::int64_t>, pt::SumAug<std::int64_t>>;

enum class SetOp { kUnion, kDiff, kIntersect };

// Order-sensitive merge for maps; keep-first for sets (Value is Unit).
struct MergeTwiceAMinusB {
  template <typename V>
  V operator()(const V& x, const V& y) const {
    if constexpr (std::is_same_v<V, std::int64_t>) {
      return 2 * x - y;
    } else {
      return x;
    }
  }
};

template <typename Ex, typename St, typename C>
pipelined::Fiber set_op_body(SetOp op, Ex ex, St& st, C* a, C* b, C* out) {
  switch (op) {
    case SetOp::kUnion:
      return pt::union_into(ex, st, a, b, out, MergeTwiceAMinusB{});
    case SetOp::kDiff:
      return pt::diff_into(ex, st, a, b, out);
    default:
      return pt::intersect_into(ex, st, a, b, out);
  }
}

template <typename Ex, typename St, typename N>
N* set_op_strict(SetOp op, Ex ex, St& st, N* a, N* b) {
  switch (op) {
    case SetOp::kUnion:
      return pipelined::run_inline(
          pt::union_strict(ex, st, a, b, MergeTwiceAMinusB{}));
    case SetOp::kDiff:
      return pipelined::run_inline(pt::diff_strict(ex, st, a, b));
    default:
      return pipelined::run_inline(pt::intersect_strict(ex, st, a, b));
  }
}

std::vector<KeyValue> set_op_oracle(SetOp op, const std::vector<KeyValue>& a,
                                   const std::vector<KeyValue>& b) {
  std::map<Key, std::int64_t> out(a.begin(), a.end());
  const std::map<Key, std::int64_t> mb(b.begin(), b.end());
  if (op == SetOp::kUnion) {
    for (const auto& [k, v] : mb) {
      auto [it, fresh] = out.emplace(k, v);
      if (!fresh) it->second = MergeTwiceAMinusB{}(it->second, v);
    }
  } else if (op == SetOp::kDiff) {
    for (const auto& [k, v] : mb) out.erase(k);
  } else {
    std::erase_if(out, [&](const auto& kv) { return !mb.contains(kv.first); });
  }
  return {out.begin(), out.end()};
}

template <typename St>
auto build_items(St& st, const std::vector<KeyValue>& items) {
  if constexpr (St::Entry::kHasValue) {
    return st.build(std::span<const KeyValue>(items));
  } else {
    std::vector<Key> keys;
    for (const auto& [k, v] : items) keys.push_back(k);
    return st.build(keys);
  }
}

// Items of a result tree (value 0 for sets), plus its range aggregates
// checked against the expected items' fold when the entry is augmented.
template <typename E, typename C, typename Force>
void expect_items(C* out, Force force, const std::vector<KeyValue>& expected,
                  const std::string& what) {
  std::vector<KeyValue> got;
  pt::visit_items(out, force, [&](Key k, const auto& v) {
    if constexpr (E::kHasValue) {
      got.emplace_back(k, v);
    } else {
      got.emplace_back(k, 0);
    }
  });
  std::vector<KeyValue> want = expected;
  if constexpr (!E::kHasValue)
    for (auto& kv : want) kv.second = 0;
  EXPECT_EQ(got, want) << what;
  if constexpr (E::kHasAug) {
    for (std::size_t i = 0; i + 1 < want.size(); i += want.size() / 7 + 1) {
      const Key lo = want[i].first;
      const Key hi = want[std::min(want.size() - 1, i + want.size() / 3)].first;
      std::int64_t fold = 0;
      for (const auto& [k, v] : want)
        if (k >= lo && k <= hi) fold += v;
      EXPECT_EQ(pt::aggregate(out, lo, hi, force), fold)
          << what << " [" << lo << ", " << hi << "]";
    }
  }
}

template <typename E>
void check_small_into_large(std::size_t small_n) {
  const std::size_t thr = pipelined::RtExec::kDefaultSerialThreshold;
  const auto large_keys = random_keys(64 * thr, 17 * small_n + 1);
  std::set<Key> small_set;  // half shared with the large operand
  Rng rng(17 * small_n + 2);
  while (small_set.size() < small_n)
    small_set.insert(small_set.size() % 2 == 0
                         ? large_keys[rng.below(large_keys.size())]
                         : rng.range(0, 1 << 22));
  const auto values = [](Key k, std::int64_t salt) {
    return static_cast<std::int64_t>((k * 2654435761u + salt) % 1000) + 1;
  };
  // Union and difference see distinct values per operand; intersection
  // sees one value per key (see above).
  const auto items = [&](const auto& keys, std::int64_t salt) {
    std::vector<KeyValue> out;
    for (Key k : keys) out.emplace_back(k, values(k, salt));
    return out;
  };
  struct Shape {
    SetOp op;
    std::vector<KeyValue> a, b;
    std::string what;
  };
  std::vector<Shape> shapes;
  for (const SetOp op : {SetOp::kUnion, SetOp::kDiff, SetOp::kIntersect}) {
    const std::int64_t sb = op == SetOp::kIntersect ? 0 : 7;
    const std::string name = op == SetOp::kUnion  ? "union"
                             : op == SetOp::kDiff ? "difference"
                                                  : "intersection";
    shapes.push_back({op, items(large_keys, 0), items(small_set, sb),
                      name + " large-small"});
    shapes.push_back({op, items(small_set, sb), items(large_keys, 0),
                      name + " small-large"});
  }

  {
    cm::Engine eng;  // CmExec: threshold 0, the control group
    eng.set_crew(E::kHasAug);
    pt::Store<pipelined::CmPolicy, E> st(eng);
    const auto peekf = [](const auto* c) { return pipelined::CmPolicy::peek(c); };
    for (const Shape& s : shapes) {
      auto* out = st.cell();
      auto* a = st.input(build_items(st, s.a));
      auto* b = st.input(build_items(st, s.b));
      eng.fork([&] {
        pipelined::run_inline(
            set_op_body(s.op, pipelined::CmExec(eng), st, a, b, out));
      });
      expect_items<E>(out, peekf, set_op_oracle(s.op, s.a, s.b),
                      "CmExec " + s.what);
    }
  }
  {
    cm::Engine eng;  // CmStrictExec
    eng.set_crew(E::kHasAug);
    pt::Store<pipelined::CmPolicy, E> st(eng);
    const auto peekf = [](const auto* c) { return pipelined::CmPolicy::peek(c); };
    for (const Shape& s : shapes) {
      auto* n = set_op_strict(s.op, pipelined::CmStrictExec(eng), st,
                              build_items(st, s.a), build_items(st, s.b));
      expect_items<E>(st.input(n), peekf, set_op_oracle(s.op, s.a, s.b),
                      "CmStrictExec " + s.what);
    }
  }
  {
    rt::Scheduler sched(2);  // RtExec: chunked leaves, default threshold
    pt::Store<pipelined::RtPolicy, E> st;
    const auto waitf = [](auto* c) { return c->wait_blocking(); };
    for (const Shape& s : shapes) {
      auto* out = st.cell();
      pipelined::RtExec ex;
      ex.fork(set_op_body(s.op, ex, st, st.input(build_items(st, s.a)),
                          st.input(build_items(st, s.b)), out));
      expect_items<E>(out, waitf, set_op_oracle(s.op, s.a, s.b),
                      "RtExec " + s.what);
    }
  }
  {
    cm::Engine eng(/*trace=*/true);  // RecExec: the runtime's code paths
    eng.set_crew(E::kHasAug);        // aug fibers re-read node cells
    analyze::RecExec ex(eng, thr);
    pt::Store<analyze::RecPolicy, E> st(eng, pt::kDefaultSalt,
                                        pt::kDefaultLeafCapacity);
    const auto rpeek = [](const auto* c) { return analyze::RecPolicy::peek(c); };
    for (const Shape& s : shapes) {
      auto* out = st.cell();
      auto* a = st.input(build_items(st, s.a));
      auto* b = st.input(build_items(st, s.b));
      eng.fork([&] {
        pipelined::run_inline(set_op_body(s.op, ex, st, a, b, out));
      });
      expect_items<E>(out, rpeek, set_op_oracle(s.op, s.a, s.b),
                      "RecExec " + s.what);
    }
    EXPECT_GT(eng.serial_cutoffs(), 0u);
    ASSERT_NE(eng.trace(), nullptr);
    analyze::Options opts;
    opts.check_linearity = false;
    opts.check_erew = !E::kHasAug;
    const analyze::Report rep = analyze::verify(*eng.trace(), opts);
    EXPECT_TRUE(rep.ok()) << "small-into-large: " << rep.to_string();
  }
  if constexpr (E::kHasValue) {
    // On one storage layout the path bodies keep the same side's value in
    // an intersection as the pipelined body does, operands disagreeing.
    // Which side survives is decided where both roots hold the same key.
    // To reach such ties below a small root that outranks a large subtree
    // inside the serial recursion, the small operand holds the large one's
    // highest-priority keys except its root, plus one new key ranked just
    // below that root.
    const auto intersect_rec = [](std::size_t threshold,
                                  const std::vector<KeyValue>& a,
                                  const std::vector<KeyValue>& b) {
      cm::Engine eng(/*trace=*/true);
      eng.set_crew(E::kHasAug);
      analyze::RecExec ex(eng, threshold);
      pt::Store<analyze::RecPolicy, E> st(eng, pt::kDefaultSalt,
                                          pt::kDefaultLeafCapacity);
      auto* out = st.cell();
      auto* ca = st.input(build_items(st, a));
      auto* cb = st.input(build_items(st, b));
      eng.fork([&] {
        pipelined::run_inline(
            set_op_body(SetOp::kIntersect, ex, st, ca, cb, out));
      });
      std::vector<KeyValue> got;
      pt::visit_items(
          out, [](const auto* c) { return analyze::RecPolicy::peek(c); },
          [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
      return got;
    };
    const pt::Store<pipelined::RtPolicy, E> hash;  // priorities only
    std::vector<Key> by_pri = large_keys;
    std::sort(by_pri.begin(), by_pri.end(), [&](Key x, Key y) {
      return hash.priority(x) > hash.priority(y);
    });
    std::set<Key> tied(by_pri.begin() + 1,
                       by_pri.begin() + std::min<std::size_t>(small_n, 64));
    for (Key k = 1;; k += 2) {
      const auto p = hash.priority(k);
      if (p > hash.priority(by_pri[1]) && p < hash.priority(by_pri[0]) &&
          !std::binary_search(large_keys.begin(), large_keys.end(), k)) {
        tied.insert(k);
        break;
      }
    }
    const auto large = items(large_keys, 0), small = items(tied, 7);
    EXPECT_EQ(intersect_rec(thr, large, small), intersect_rec(0, large, small));
    EXPECT_EQ(intersect_rec(thr, small, large), intersect_rec(0, small, large));
  }
}

TEST_P(ExecEquivalenceThreshold, SmallIntoLargeSet) {
  check_small_into_large<pt::SetEntry>(GetParam());
}

TEST_P(ExecEquivalenceThreshold, SmallIntoLargeMap) {
  check_small_into_large<pt::MapEntry<std::int64_t>>(GetParam());
}

TEST_P(ExecEquivalenceThreshold, SmallIntoLargeSumAug) {
  check_small_into_large<SumAugEntry>(GetParam());
}

// ---- computed small operand against a large one -----------------------------
// A cutoff hands its small operand to the path bodies as one sorted run: a
// leaf chunk is one already, and any other small tree is first copied in key
// order into one array. Here the small operand is a computed result, the
// union of two small built treaps, so its entries sit in several arrays and
// internal nodes. It is applied as either operand of union, difference and
// intersection against a large treap. The RecExec leg also runs at leaf
// capacity 1, where a run becomes a treap through the spine build.

// Waits until every node cell and aggregate cell of a runtime treap is
// written, so that validate() may peek them.
template <typename C>
void settle(C* root) {
  pt::visit_nodes(
      root, [](auto* c) { return c->wait_blocking(); },
      [](auto* n) {
        if constexpr (std::remove_pointer_t<decltype(n)>::Entry::kHasAug)
          n->aug->wait_blocking();
      });
}

template <typename E>
void check_computed_small_into_large(std::size_t small_n) {
  const std::size_t thr = pipelined::RtExec::kDefaultSerialThreshold;
  const auto large_keys = random_keys(64 * thr, 23 * small_n + 1);
  std::set<Key> small_set;  // half shared with the large operand
  Rng rng(23 * small_n + 2);
  while (small_set.size() < small_n)
    small_set.insert(small_set.size() % 2 == 0
                         ? large_keys[rng.below(large_keys.size())]
                         : rng.range(0, 1 << 22));
  const auto items = [](const auto& keys, std::int64_t salt) {
    std::vector<KeyValue> out;
    for (Key k : keys)
      out.emplace_back(k, static_cast<std::int64_t>(
                              (k * 2654435761u + salt) % 1000) + 1);
    return out;
  };
  struct Shape {
    SetOp op;
    bool small_first;
    std::vector<KeyValue> large, half1, half2, expected;
    std::string what;
  };
  std::vector<Shape> shapes;
  for (const SetOp op : {SetOp::kUnion, SetOp::kDiff, SetOp::kIntersect}) {
    // Intersection sees one value per key (see check_small_into_large).
    const auto large = items(large_keys, 0);
    const auto small = items(small_set, op == SetOp::kIntersect ? 0 : 7);
    std::vector<KeyValue> half1, half2;  // disjoint, interleaved keys
    for (std::size_t i = 0; i < small.size(); ++i)
      (i % 2 == 0 ? half1 : half2).push_back(small[i]);
    const std::string name = op == SetOp::kUnion  ? "union"
                             : op == SetOp::kDiff ? "difference"
                                                  : "intersection";
    shapes.push_back({op, false, large, half1, half2,
                      set_op_oracle(op, large, small),
                      name + " large-computed"});
    shapes.push_back({op, true, large, half1, half2,
                      set_op_oracle(op, small, large),
                      name + " computed-large"});
  }

  {
    cm::Engine eng;  // CmExec: threshold 0, the control group
    eng.set_crew(E::kHasAug);
    pt::Store<pipelined::CmPolicy, E> st(eng);
    const auto peekf = [](const auto* c) { return pipelined::CmPolicy::peek(c); };
    const auto run = [&](SetOp op, auto* a, auto* b) {
      auto* out = st.cell();
      eng.fork([&] {
        pipelined::run_inline(
            set_op_body(op, pipelined::CmExec(eng), st, a, b, out));
      });
      return out;
    };
    for (const Shape& s : shapes) {
      auto* small = run(SetOp::kUnion, st.input(build_items(st, s.half1)),
                        st.input(build_items(st, s.half2)));
      auto* large = st.input(build_items(st, s.large));
      auto* out = s.small_first ? run(s.op, small, large)
                                : run(s.op, large, small);
      expect_items<E>(out, peekf, s.expected, "CmExec " + s.what);
      EXPECT_TRUE(pt::validate(st, peekf(out))) << "CmExec " << s.what;
    }
  }
  {
    cm::Engine eng;  // CmStrictExec
    eng.set_crew(E::kHasAug);
    pt::Store<pipelined::CmPolicy, E> st(eng);
    const auto peekf = [](const auto* c) { return pipelined::CmPolicy::peek(c); };
    const pipelined::CmStrictExec ex(eng);
    for (const Shape& s : shapes) {
      auto* small = set_op_strict(SetOp::kUnion, ex, st,
                                  build_items(st, s.half1),
                                  build_items(st, s.half2));
      auto* large = build_items(st, s.large);
      auto* n = s.small_first ? set_op_strict(s.op, ex, st, small, large)
                              : set_op_strict(s.op, ex, st, large, small);
      expect_items<E>(st.input(n), peekf, s.expected,
                      "CmStrictExec " + s.what);
      EXPECT_TRUE(pt::validate(st, n)) << "CmStrictExec " << s.what;
    }
  }
  {
    rt::Scheduler sched(2);  // RtExec: chunked leaves, default threshold
    pt::Store<pipelined::RtPolicy, E> st;
    const auto waitf = [](auto* c) { return c->wait_blocking(); };
    const auto run = [&](SetOp op, auto* a, auto* b) {
      auto* out = st.cell();
      pipelined::RtExec ex;
      ex.fork(set_op_body(op, ex, st, a, b, out));
      return out;
    };
    for (const Shape& s : shapes) {
      auto* small = run(SetOp::kUnion, st.input(build_items(st, s.half1)),
                        st.input(build_items(st, s.half2)));
      settle(small);  // written, so the cutoff copies it into one run
      auto* large = st.input(build_items(st, s.large));
      auto* out = s.small_first ? run(s.op, small, large)
                                : run(s.op, large, small);
      expect_items<E>(out, waitf, s.expected, "RtExec " + s.what);
      settle(out);
      EXPECT_TRUE(pt::validate(st, out->peek())) << "RtExec " << s.what;
    }
  }
  for (const std::size_t cap : {pt::kDefaultLeafCapacity, std::size_t{1}}) {
    cm::Engine eng(/*trace=*/true);  // RecExec: the runtime's code paths
    eng.set_crew(E::kHasAug);        // aug fibers re-read node cells
    analyze::RecExec ex(eng, thr);
    pt::Store<analyze::RecPolicy, E> st(eng, pt::kDefaultSalt, cap);
    const auto rpeek = [](const auto* c) { return analyze::RecPolicy::peek(c); };
    const auto run = [&](SetOp op, auto* a, auto* b) {
      auto* out = st.cell();
      eng.fork([&] {
        pipelined::run_inline(set_op_body(op, ex, st, a, b, out));
      });
      return out;
    };
    const std::string leg = "RecExec (leaf-cap " + std::to_string(cap) + ") ";
    for (const Shape& s : shapes) {
      auto* small = run(SetOp::kUnion, st.input(build_items(st, s.half1)),
                        st.input(build_items(st, s.half2)));
      auto* large = st.input(build_items(st, s.large));
      auto* out = s.small_first ? run(s.op, small, large)
                                : run(s.op, large, small);
      expect_items<E>(out, rpeek, s.expected, leg + s.what);
      EXPECT_TRUE(pt::validate(st, rpeek(out))) << leg << s.what;
    }
    EXPECT_GT(eng.serial_cutoffs(), 0u) << leg;
    ASSERT_NE(eng.trace(), nullptr);
    analyze::Options opts;
    opts.check_linearity = false;
    opts.check_erew = !E::kHasAug;
    const analyze::Report rep = analyze::verify(*eng.trace(), opts);
    EXPECT_TRUE(rep.ok()) << leg << rep.to_string();
  }
}

TEST_P(ExecEquivalenceThreshold, ComputedSmallIntoLargeSet) {
  check_computed_small_into_large<pt::SetEntry>(GetParam());
}

TEST_P(ExecEquivalenceThreshold, ComputedSmallIntoLargeMap) {
  check_computed_small_into_large<pt::MapEntry<std::int64_t>>(GetParam());
}

TEST_P(ExecEquivalenceThreshold, ComputedSmallIntoLargeSumAug) {
  check_computed_small_into_large<SumAugEntry>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExecEquivalenceThreshold,
    ::testing::Values(pipelined::RtExec::kDefaultSerialThreshold - 1,
                      pipelined::RtExec::kDefaultSerialThreshold,
                      pipelined::RtExec::kDefaultSerialThreshold + 1,
                      2 * pipelined::RtExec::kDefaultSerialThreshold));

// ---- bytes allocated per small-batch key ------------------------------------
// The recording substrate's arena counts every byte it hands out, so what the
// path bodies allocate per key of a small batch is deterministic. Shape:
// 16-key batches against a 2^16-key map at the default leaf capacity and
// serial threshold. A union or difference copies the search paths it
// rebuilds and re-chunks the leaf chunks it merges into; splitting the batch
// itself, a sorted run, allocates nothing. An intersection with the batch
// first keeps at most the batch's keys, so its result is far smaller.

TEST(RecPathAllocation, SixteenKeyBatchesStayWithinBudget) {
  using E = pt::MapEntry<std::int64_t>;
  cm::Engine eng(/*trace=*/true);
  const analyze::RecExec ex(eng, pipelined::RtExec::kDefaultSerialThreshold);
  pt::Store<analyze::RecPolicy, E> st(eng, pt::kDefaultSalt,
                                      pt::kDefaultLeafCapacity);
  std::vector<KeyValue> base;
  for (Key k = 0; k < (1 << 16); ++k) base.emplace_back(2 * k, k);
  auto* const large = st.input(build_items(st, base));

  Rng rng(29);
  std::vector<std::vector<KeyValue>> batches(64);
  for (auto& batch : batches) {
    std::map<Key, std::int64_t> m;
    for (int i = 0; i < 16; ++i)
      m.emplace(rng.range(0, 1 << 17), rng.range(1, 100));
    batch.assign(m.begin(), m.end());
  }
  const auto run = [&](SetOp op, auto* a, auto* b) {
    auto* out = st.cell();
    eng.fork([&] {
      pipelined::run_inline(set_op_body(op, ex, st, a, b, out));
    });
    return out;
  };
  // Arena bytes per batch key that `op(batch cell)` allocates, the batch's
  // own build excluded.
  const auto bytes_per_key = [&](auto op) {
    std::size_t bytes = 0, keys = 0;
    for (const auto& batch : batches) {
      auto* small = st.input(build_items(st, batch));
      const std::size_t before = st.bytes_used();
      op(small);
      bytes += st.bytes_used() - before;
      keys += batch.size();
    }
    return static_cast<double>(bytes) / static_cast<double>(keys);
  };
  const auto items_of = [](auto* c) {
    std::vector<KeyValue> got;
    pt::visit_items(
        c, [](const auto* x) { return analyze::RecPolicy::peek(x); },
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    return got;
  };

  auto* cur = large;
  const double union_bpk = bytes_per_key([&](auto* s) {
    cur = run(SetOp::kUnion, cur, s);
  });
  const std::map<Key, std::int64_t> base_map(base.begin(), base.end());
  std::map<Key, std::int64_t> want = base_map;
  for (const auto& batch : batches) {
    for (const auto& [k, v] : batch) {
      auto [it, fresh] = want.emplace(k, v);
      if (!fresh) it->second = MergeTwiceAMinusB{}(it->second, v);
    }
  }
  EXPECT_EQ(items_of(cur), std::vector<KeyValue>(want.begin(), want.end()));

  cur = large;
  const double diff_bpk = bytes_per_key([&](auto* s) {
    cur = run(SetOp::kDiff, cur, s);
  });
  want = base_map;
  for (const auto& batch : batches)
    for (const auto& [k, v] : batch) want.erase(k);
  EXPECT_EQ(items_of(cur), std::vector<KeyValue>(want.begin(), want.end()));

  std::size_t kept = 0;
  const double intersect_bpk = bytes_per_key([&](auto* s) {
    kept += items_of(run(SetOp::kIntersect, s, large)).size();
  });
  std::size_t want_kept = 0;
  for (const auto& batch : batches)
    for (const auto& [k, v] : batch) want_kept += base_map.count(k);
  EXPECT_EQ(kept, want_kept);

  EXPECT_LE(union_bpk, 1800.0);
  EXPECT_LE(diff_bpk, 1800.0);
  EXPECT_LE(intersect_bpk, 700.0);
}

// The filtering path bodies allocate only what survives. Same shape, with
// the batch as the first operand: an intersection keeps a few batch keys,
// and the batch minus the map keeps most of them. An empty side takes a
// nil cell only under a rebuilt node, and a leaf chunk scanned without a
// shared key allocates no output.
TEST(RecPathAllocation, FilteringBatchesAllocateOnlyWhatSurvives) {
  using E = pt::MapEntry<std::int64_t>;
  cm::Engine eng(/*trace=*/true);
  const analyze::RecExec ex(eng, pipelined::RtExec::kDefaultSerialThreshold);
  pt::Store<analyze::RecPolicy, E> st(eng, pt::kDefaultSalt,
                                      pt::kDefaultLeafCapacity);
  std::vector<KeyValue> base;
  for (Key k = 0; k < (1 << 16); ++k) base.emplace_back(2 * k, k);
  auto* const large = st.input(build_items(st, base));
  const std::set<Key> base_keys = [&] {
    std::set<Key> out;
    for (const auto& kv : base) out.insert(kv.first);
    return out;
  }();

  Rng rng(29);
  std::vector<std::vector<KeyValue>> batches(64);
  for (auto& batch : batches) {
    std::map<Key, std::int64_t> m;
    for (int i = 0; i < 16; ++i)
      m.emplace(rng.range(0, 1 << 17), rng.range(1, 100));
    batch.assign(m.begin(), m.end());
  }
  // Arena bytes per batch key of `batch op large`, the batch's own build
  // excluded; every result's keys are checked against the oracle.
  const auto bytes_per_key = [&](SetOp op) {
    std::size_t bytes = 0, keys = 0;
    for (const auto& batch : batches) {
      auto* small = st.input(build_items(st, batch));
      const std::size_t before = st.bytes_used();
      auto* out = st.cell();
      eng.fork([&] {
        pipelined::run_inline(set_op_body(op, ex, st, small, large, out));
      });
      bytes += st.bytes_used() - before;
      keys += batch.size();
      std::vector<Key> want, got;
      for (const auto& kv : batch)
        if ((base_keys.count(kv.first) != 0) == (op == SetOp::kIntersect))
          want.push_back(kv.first);
      pt::visit_items(
          out, [](const auto* x) { return analyze::RecPolicy::peek(x); },
          [&](Key k, const std::int64_t&) { got.push_back(k); });
      EXPECT_EQ(got, want);
    }
    return static_cast<double>(bytes) / static_cast<double>(keys);
  };
  EXPECT_LE(bytes_per_key(SetOp::kIntersect), 300.0);
  EXPECT_LE(bytes_per_key(SetOp::kDiff), 1800.0);
}

// ---- leaf-chunk boundary straddle -------------------------------------------
// Runtime treaps store subtrees at or below Store::leaf_capacity() as flat
// sorted chunks (docs/storage.md). These sizes pin the handoff between
// chunked leaves and internal nodes: capacity-1, capacity and capacity+1
// inputs, plus a few chunks' worth, must agree with the sequential oracle on
// every substrate. The Cm substrates have kMaxLeafCapacity == 0 (the leaf
// branches are compiled out there) and run as the control group.

class ExecEquivalenceLeaf : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceLeaf, TreapSetOps) {
  const std::size_t n = GetParam();
  const auto a = random_keys(n, 13 * n + 1);
  const auto b = random_keys(n, 13 * n + 2);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  {
    cm::Engine eng;  // CmExec + CmStrictExec: node-per-key control group
    treap::Store st(eng);
    const auto run = [&](treap::TreapCell* (*op)(treap::Store&,
                                                 treap::TreapCell*,
                                                 treap::TreapCell*),
                         const std::vector<Key>& expected) {
      treap::TreapCell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      std::vector<Key> got;
      treap::collect_inorder(treap::peek(out), got);
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(treap::validate(st, treap::peek(out)));
    };
    run(treap::union_treaps, u);
    run(treap::diff_treaps, d);
    run(treap::intersect_treaps, i);
    std::vector<Key> got;
    treap::collect_inorder(treap::union_strict(st, st.build(a), st.build(b)),
                           got);
    EXPECT_EQ(got, u);
  }
  {
    rt::Scheduler sched(2);  // RtExec with chunked leaves, pipelined + strict
    rt::treap::Store st;
    const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                rt::treap::Cell*,
                                                rt::treap::Cell*),
                         const std::vector<Key>& expected) {
      rt::treap::Cell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      EXPECT_EQ(rt::treap::wait_inorder(out), expected);
      EXPECT_TRUE(rt::treap::validate(st, out));
    };
    run(rt::treap::union_treaps, u);
    run(rt::treap::diff_treaps, d);
    run(rt::treap::intersect_treaps, i);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::union_strict_blocking(
                  st, st.build(a), st.build(b)))),
              u);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::diff_strict_blocking(
                  st, st.build(a), st.build(b)))),
              d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExecEquivalenceLeaf,
    ::testing::Values(pipelined::treap::kDefaultLeafCapacity - 1,
                      pipelined::treap::kDefaultLeafCapacity,
                      pipelined::treap::kDefaultLeafCapacity + 1,
                      5 * pipelined::treap::kDefaultLeafCapacity + 3));

// ---- augmented maps across substrates ---------------------------------------
// One sum-augmented int64 map entry, the same union body on all four
// substrates, and every range aggregate checked against a sequential fold
// oracle over the merged items. Parameterized on the requested leaf capacity
// {0, 1, 32}: the Cm substrates clamp every request to 0 (node-per-key, the
// control group), Rt/Rec clamp 0 up to 1 — both handoffs are exercised.

using AugSum = pipelined::treap::SumAug<std::int64_t>;
using AugMapEntry =
    pipelined::treap::AugEntry<pipelined::treap::MapEntry<std::int64_t>,
                               AugSum>;
using AugItem = std::pair<Key, std::int64_t>;

std::vector<AugItem> aug_items(std::size_t n, std::uint64_t seed) {
  const auto keys = random_keys(n, seed);
  Rng rng(seed * 131 + 7);
  std::vector<AugItem> out;
  out.reserve(keys.size());
  for (Key k : keys) out.emplace_back(k, rng.range(1, 1000));
  return out;
}

class ExecEquivalenceAug : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceAug, SumAggregatesMatchFoldOracle) {
  const std::size_t cap = GetParam();
  const auto a = aug_items(300 + 3 * cap, 41 + cap);
  const auto b = aug_items(220 + 5 * cap, 142 + cap);
  const auto plus = [](std::int64_t x, std::int64_t y) { return x + y; };

  std::map<Key, std::int64_t> merged(a.begin(), a.end());
  for (const auto& [k, v] : b) {
    auto [it, fresh] = merged.emplace(k, v);
    if (!fresh) it->second += v;
  }
  const std::vector<AugItem> oracle(merged.begin(), merged.end());

  // Probe ranges: everything, prefixes/infixes straddling subtrees, a single
  // key, and an empty range past the right end.
  const Key first = oracle.front().first, last = oracle.back().first;
  const std::vector<std::pair<Key, Key>> ranges = {
      {std::numeric_limits<Key>::min(), std::numeric_limits<Key>::max()},
      {first, oracle[oracle.size() / 2].first},
      {oracle[oracle.size() / 3].first, oracle[2 * oracle.size() / 3].first},
      {oracle[7].first, oracle[7].first},
      {last + 1, last + 100},
      {first - 100, first - 1},
  };
  const auto fold = [&](Key lo, Key hi) {
    std::int64_t s = 0;
    for (const auto& [k, v] : merged)
      if (k >= lo && k <= hi) s += v;
    return s;
  };
  const auto check_ranges = [&](auto&& aggregate, const char* what) {
    for (const auto& [lo, hi] : ranges)
      EXPECT_EQ(aggregate(lo, hi), fold(lo, hi)) << what << " [" << lo << ", "
                                                 << hi << "]";
  };

  const auto peekf = [](const auto* c) { return pipelined::CmPolicy::peek(c); };

  {
    cm::Engine eng;  // CmExec: pipelined, node-per-key
    eng.set_crew(true);  // aug fibers re-read node cells (CREW)
    pipelined::treap::Store<pipelined::CmPolicy, AugMapEntry> st(
        eng, pipelined::treap::kDefaultSalt, cap);
    auto* out = st.cell();
    pipelined::run_inline(pipelined::treap::union_into(
        pipelined::CmExec(eng), st, st.input(st.build(a)),
        st.input(st.build(b)), out, plus));
    std::vector<AugItem> got;
    pipelined::treap::visit_items(
        out, peekf,
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(pipelined::treap::validate(
        st, pipelined::treap::peek<pipelined::CmPolicy>(out)));
    check_ranges(
        [&](Key lo, Key hi) {
          return pipelined::treap::aggregate(out, lo, hi, peekf);
        },
        "CmExec");
  }
  {
    cm::Engine eng;  // CmStrictExec: fork-join baseline
    eng.set_crew(true);
    pipelined::treap::Store<pipelined::CmPolicy, AugMapEntry> st(
        eng, pipelined::treap::kDefaultSalt, cap);
    auto* n = pipelined::run_inline(pipelined::treap::union_strict(
        pipelined::CmStrictExec(eng), st, st.build(a), st.build(b), plus));
    auto* out = st.input(n);
    std::vector<AugItem> got;
    pipelined::treap::visit_items(
        out, peekf,
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    EXPECT_EQ(got, oracle);
    check_ranges(
        [&](Key lo, Key hi) {
          return pipelined::treap::aggregate(out, lo, hi, peekf);
        },
        "CmStrictExec");
  }
  {
    rt::Scheduler sched(2);  // RtExec: chunked leaves, real threads
    rt::map::Store<std::int64_t, AugSum> st(pipelined::treap::kDefaultSalt,
                                            cap);
    auto* out = rt::map::union_maps(st, st.input(st.build(a)),
                                    st.input(st.build(b)), plus);
    EXPECT_EQ(rt::map::wait_items(out), oracle);
    check_ranges(
        [&](Key lo, Key hi) { return rt::map::aggregate_wait(out, lo, hi); },
        "RtExec");
  }
  {
    cm::Engine eng(/*trace=*/true);  // RecExec: recording substrate
    eng.set_crew(true);
    analyze::RecExec ex(eng);
    rec::AugMapStore st(eng, pipelined::treap::kDefaultSalt, cap);
    rec::AugMapCell* out = rec::union_aug_maps(
        ex, st, st.input(st.build(a)), st.input(st.build(b)));
    const auto rpeek = [](const auto* c) {
      return analyze::RecPolicy::peek(c);
    };
    std::vector<AugItem> got;
    pipelined::treap::visit_items(
        out, rpeek,
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    EXPECT_EQ(got, oracle);
    check_ranges(
        [&](Key lo, Key hi) {
          return pipelined::treap::aggregate(out, lo, hi, rpeek);
        },
        "RecExec");
    EXPECT_GT(eng.aug_ops(), 0u);
    // Aug fibers re-read node cells, so EREW (like linearity) is demoted;
    // write-once and race-freedom still hold on the recorded trace.
    ASSERT_NE(eng.trace(), nullptr);
    analyze::Options opts;
    opts.check_linearity = false;
    opts.check_erew = false;
    const analyze::Report rep = analyze::verify(*eng.trace(), opts);
    EXPECT_TRUE(rep.ok()) << "aug map: " << rep.to_string();
    EXPECT_GT(rep.aug_ops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafCaps, ExecEquivalenceAug,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{32}));

// Structural contract of the chunked storage itself, on the runtime
// substrate: builds at/above capacity chunk as expected, ops that descend
// into a chunk promote it to an internal node without losing keys, and
// small results collapse back into a single flat chunk.
TEST(ExecEquivalenceLeafStructure, BuildPromoteCollapse) {
  rt::Scheduler sched(2);
  rt::treap::Store st;
  const std::size_t cap = st.leaf_capacity();
  ASSERT_GT(cap, 1u);

  // Build at capacity: one flat chunk, no internal nodes.
  {
    const auto keys = random_keys(cap, 901);
    rt::treap::Cell* c = st.input(st.build(keys));
    const rt::treap::Node* root = c->wait_blocking();
    ASSERT_NE(root, nullptr);
    EXPECT_TRUE(pipelined::treap::is_leaf(root));
    const auto ce = rt::treap::cache_economy(c);
    EXPECT_EQ(ce.internal_nodes, 0u);
    EXPECT_EQ(ce.leaf_chunks, 1u);
    EXPECT_EQ(ce.leaf_keys, cap);
  }
  // Build just above capacity: the root must be a real node.
  {
    const auto keys = random_keys(cap + 1, 902);
    const rt::treap::Node* root = st.input(st.build(keys))->wait_blocking();
    ASSERT_NE(root, nullptr);
    EXPECT_FALSE(pipelined::treap::is_leaf(root));
  }
  // Promotion: union a single chunk into a much larger treap. The op
  // descends into the chunk (leaf -> internal rewrite on the winner path)
  // and every key of both inputs must survive.
  {
    const auto big = random_keys(20 * cap, 903);
    const auto small = random_keys(cap, 904);
    std::vector<Key> expected;
    std::set_union(big.begin(), big.end(), small.begin(), small.end(),
                   std::back_inserter(expected));
    rt::treap::Cell* out = rt::treap::union_treaps(
        st, st.input(st.build(big)), st.input(st.build(small)));
    EXPECT_EQ(rt::treap::wait_inorder(out), expected);
    EXPECT_TRUE(rt::treap::validate(st, out));
  }
  // Collapse: an intersection far below capacity re-chunks into one leaf.
  {
    auto a = random_keys(10 * cap, 905);
    auto b = random_keys(10 * cap, 906);
    std::vector<Key> shared;
    for (std::size_t k = 0; k < cap / 2; ++k)
      shared.push_back(static_cast<Key>(1) << 40 | static_cast<Key>(k));
    a.insert(a.end(), shared.begin(), shared.end());
    b.insert(b.end(), shared.begin(), shared.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<Key> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    ASSERT_GE(expected.size(), cap / 2);
    rt::treap::Cell* out = rt::treap::intersect_treaps(
        st, st.input(st.build(a)), st.input(st.build(b)));
    EXPECT_EQ(rt::treap::wait_inorder(out), expected);
    // Every key is either a chunk entry or an internal node, and the result
    // re-chunks into far fewer structural units than one node per key. (The
    // pipelined join path may keep a few internal nodes above the chunks, so
    // this is not always a single flat leaf.)
    const auto ce = rt::treap::cache_economy(out);
    EXPECT_EQ(ce.leaf_keys + ce.internal_nodes, expected.size());
    EXPECT_GE(ce.leaf_chunks, 1u);
    EXPECT_LE(ce.internal_nodes + ce.leaf_chunks, expected.size() / 2);
  }
}

}  // namespace
}  // namespace pwf
