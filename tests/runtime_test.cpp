// Tests for the coroutine futures runtime: cell semantics, the scheduler,
// and the parallel algorithm ports against sequential references.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "costmodel/engine.hpp"
#include "runtime/future.hpp"
#include "runtime/rt_treap.hpp"
#include "runtime/rt_trees.hpp"
#include "runtime/rt_ttree.hpp"
#include "runtime/scheduler.hpp"
#include "support/random.hpp"
#include "trees/merge.hpp"
#include "trees/rebalance.hpp"
#include "trees/tree.hpp"

namespace pwf::rt {
namespace {

std::vector<std::int64_t> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::int64_t> s;
  while (s.size() < n) s.insert(rng.range(0, 1 << 24));
  return {s.begin(), s.end()};
}

TEST(FutCell, PresetIsImmediatelyReadable) {
  FutCell<int> c;
  c.preset(42);
  EXPECT_TRUE(c.written());
  EXPECT_EQ(c.peek(), 42);
  EXPECT_EQ(c.wait_blocking(), 42);
}

TEST(FutCell, WriteThenAwaitInFiber) {
  Scheduler sched(2);
  FutCell<int> cell;
  FutCell<int> result;
  struct Maker {
    static Fiber reader(FutCell<int>& in, FutCell<int>& out) {
      const int v = co_await in;
      out.write(v * 2);
    }
    static Fiber writer(FutCell<int>& c) {
      c.write(21);
      co_return;
    }
  };
  spawn(Maker::reader(cell, result));  // reader first: forces a suspension
  spawn(Maker::writer(cell));
  EXPECT_EQ(result.wait_blocking(), 42);
}

TEST(FutCell, ManyWaitersAllResumed) {
  Scheduler sched(2);
  FutCell<int> cell;
  std::atomic<int> sum{0};
  FutCell<int> dones[8];
  struct Maker {
    static Fiber reader(FutCell<int>& in, std::atomic<int>& sum,
                        FutCell<int>& done) {
      sum.fetch_add(co_await in);
      done.write(1);
    }
  };
  for (auto& d : dones) spawn(Maker::reader(cell, sum, d));
  cell.write(5);
  for (auto& d : dones) d.wait_blocking();
  EXPECT_EQ(sum.load(), 40);
}

TEST(Scheduler, RunsManyIndependentFibers) {
  Scheduler sched(3);
  constexpr int kFibers = 20000;
  std::atomic<int> count{0};
  FutCell<int> done;
  struct Maker {
    static Fiber tick(std::atomic<int>& count, FutCell<int>& done,
                      int total) {
      if (count.fetch_add(1) + 1 == total) done.write(1);
      co_return;
    }
  };
  for (int i = 0; i < kFibers; ++i) spawn(Maker::tick(count, done, kFibers));
  done.wait_blocking();
  EXPECT_EQ(count.load(), kFibers);
}

TEST(Scheduler, RecursiveSpawnTree) {
  Scheduler sched(4);
  std::atomic<int> leaves{0};
  FutCell<int> done;
  struct Maker {
    static Fiber node(int depth, std::atomic<int>& leaves,
                      FutCell<int>& done) {
      if (depth == 0) {
        if (leaves.fetch_add(1) + 1 == 1 << 12) done.write(1);
        co_return;
      }
      spawn(node(depth - 1, leaves, done));
      spawn(node(depth - 1, leaves, done));
    }
  };
  spawn(Maker::node(12, leaves, done));
  done.wait_blocking();
  EXPECT_EQ(leaves.load(), 1 << 12);
}

TEST(FutCellDeath, DoubleWriteAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1);
        FutCell<int> c;
        c.write(1);
        c.write(2);
      },
      "written twice");
}

TEST(FutCellDeath, PresetAfterWriteAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FutCell<int> c;
        c.write(1);
        c.preset(2);
      },
      "preset of a non-empty cell");
}

TEST(FutCellDeath, DoublePresetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FutCell<int> c;
        c.preset(1);
        c.preset(2);
      },
      "preset of a non-empty cell");
}

TEST(SchedulerDeath, TwoLiveSchedulersAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler a(1);
        Scheduler b(1);
      },
      "only one Scheduler");
}

TEST(Scheduler, CreateDestroyCycles) {
  // Schedulers must start and stop cleanly back to back, including with
  // completed work in their deques.
  for (int cycle = 0; cycle < 8; ++cycle) {
    Scheduler sched(1 + cycle % 3);
    FutCell<int> done;
    struct Maker {
      static Fiber one(FutCell<int>& d) {
        d.write(1);
        co_return;
      }
    };
    spawn(Maker::one(done));
    EXPECT_EQ(done.wait_blocking(), 1);
  }
  EXPECT_EQ(Scheduler::current(), nullptr);
}

TEST(Scheduler, StatsCountResumptions) {
  Scheduler sched(2);
  constexpr int kFibers = 5000;
  std::atomic<int> count{0};
  FutCell<int> done;
  struct Maker {
    static Fiber tick(std::atomic<int>& c, FutCell<int>& d, int total) {
      if (c.fetch_add(1) + 1 == total) d.write(1);
      co_return;
    }
  };
  for (int i = 0; i < kFibers; ++i) spawn(Maker::tick(count, done, kFibers));
  done.wait_blocking();
  const auto s = sched.stats();
  EXPECT_GE(s.resumed, static_cast<std::uint64_t>(kFibers));
  EXPECT_GE(s.injected, static_cast<std::uint64_t>(kFibers));  // posted from main
}

// Pins the lock-free wake path: posts from the worker's own fast path (a
// running worker forking locally) find parked_ == 0 — with one worker busy
// running the tree there is nobody to wake — so they must not signal.
// Signals may only come from the external spawn(s) that seed the run.
TEST(Scheduler, WorkerLocalPostsDoNotSignal) {
  Scheduler sched(1);
  std::atomic<int> leaves{0};
  FutCell<int> done;
  struct Maker {
    static Fiber node(int depth, std::atomic<int>& leaves,
                      FutCell<int>& done) {
      if (depth == 0) {
        if (leaves.fetch_add(1) + 1 == 1 << 9) done.write(1);
        co_return;
      }
      spawn(node(depth - 1, leaves, done));
      spawn(node(depth - 1, leaves, done));
    }
  };
  spawn(Maker::node(9, leaves, done));  // 1 external post, 2^10-2 local ones
  done.wait_blocking();
  const auto s = sched.stats();
  EXPECT_GE(s.resumed, (1u << 10) - 1);
  // Every local post saw the lone worker running (parked_ == 0). Only the
  // external seed post — and stray posts racing a 1 ms park timeout — may
  // signal; anywhere near the fiber count means the fast path signals.
  EXPECT_LE(s.wakeups, 16u);
}

// The other half of the handshake: a post aimed at genuinely parked workers
// must signal (and count the signal). Workers park in 1 ms slices, so after
// a few quiet milliseconds a post lands on a parked worker with high
// probability; retry a bounded number of times to make it deterministic.
TEST(Scheduler, ExternalPostWakesParkedWorker) {
  Scheduler sched(2);
  struct Maker {
    static Fiber touch(FutCell<int>& d) {
      d.write(1);
      co_return;
    }
  };
  const std::uint64_t before = sched.stats().wakeups;
  bool signalled = false;
  for (int attempt = 0; attempt < 200 && !signalled; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    FutCell<int> done;
    spawn(Maker::touch(done));
    done.wait_blocking();
    signalled = sched.stats().wakeups > before;
  }
  EXPECT_TRUE(signalled);
}

// ---- parallel tree merge ----------------------------------------------------------

class RtMerge : public ::testing::TestWithParam<int> {};

TEST_P(RtMerge, MatchesStdMerge) {
  const unsigned nthreads = static_cast<unsigned>(GetParam());
  const auto a = random_keys(3000, 100 + nthreads);
  const auto b = random_keys(2000, 200 + nthreads);
  Scheduler sched(nthreads);
  trees::Store st;
  trees::Cell* out = trees::merge(st, st.input(st.build_balanced(a)),
                                  st.input(st.build_balanced(b)));
  const auto got = trees::wait_inorder(out);
  std::vector<std::int64_t> expected;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(expected));
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, RtMerge, ::testing::Values(1, 2, 4));

TEST(RtMerge, RepeatedRunsAreDeterministicInValue) {
  const auto a = random_keys(500, 1);
  const auto b = random_keys(500, 2);
  std::vector<std::int64_t> first;
  for (int run = 0; run < 5; ++run) {
    Scheduler sched(4);
    trees::Store st;
    trees::Cell* out = trees::merge(st, st.input(st.build_balanced(a)),
                                    st.input(st.build_balanced(b)));
    const auto got = trees::wait_inorder(out);
    if (run == 0)
      first = got;
    else
      EXPECT_EQ(got, first);
  }
}

TEST(RtMergesort, SortsRandomInput) {
  Rng rng(7);
  std::vector<std::int64_t> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.range(-1 << 24, 1 << 24));
  std::vector<std::int64_t> expected = v;
  std::sort(expected.begin(), expected.end());
  Scheduler sched(4);
  trees::Store st;
  trees::Cell* out = trees::mergesort(st, v);
  EXPECT_EQ(trees::wait_inorder(out), expected);
}

// ---- parallel treap ops ------------------------------------------------------------

class RtTreap : public ::testing::TestWithParam<int> {};

TEST_P(RtTreap, UnionMatchesSetUnion) {
  const unsigned nthreads = static_cast<unsigned>(GetParam());
  const auto a = random_keys(4000, 300 + nthreads);
  auto b = random_keys(3000, 400 + nthreads);
  for (std::size_t i = 0; i < 500; ++i) b[i] = a[i * 3];  // force overlap
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  Scheduler sched(nthreads);
  treap::Store st;
  treap::Cell* out = treap::union_treaps(st, st.input(st.build(a)),
                                         st.input(st.build(b)));
  std::vector<std::int64_t> expected;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(expected));
  EXPECT_EQ(treap::wait_inorder(out), expected);
  EXPECT_TRUE(treap::validate(st, out));
}

TEST_P(RtTreap, DiffMatchesSetDifference) {
  const unsigned nthreads = static_cast<unsigned>(GetParam());
  const auto a = random_keys(4000, 500 + nthreads);
  auto b = random_keys(2000, 600 + nthreads);
  for (std::size_t i = 0; i < 800; ++i) b[i] = a[i * 2];
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  Scheduler sched(nthreads);
  treap::Store st;
  treap::Cell* out = treap::diff_treaps(st, st.input(st.build(a)),
                                        st.input(st.build(b)));
  std::vector<std::int64_t> expected;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(expected));
  EXPECT_EQ(treap::wait_inorder(out), expected);
  EXPECT_TRUE(treap::validate(st, out));
}

TEST_P(RtTreap, IntersectMatchesSetIntersection) {
  const unsigned nthreads = static_cast<unsigned>(GetParam());
  const auto a = random_keys(4000, 900 + nthreads);
  auto b = random_keys(2000, 950 + nthreads);
  for (std::size_t i = 0; i < 800; ++i) b[i] = a[i * 2];
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  Scheduler sched(nthreads);
  treap::Store st;
  treap::Cell* out = treap::intersect_treaps(st, st.input(st.build(a)),
                                             st.input(st.build(b)));
  std::vector<std::int64_t> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  EXPECT_EQ(treap::wait_inorder(out), expected);
  EXPECT_TRUE(treap::validate(st, out));
}

INSTANTIATE_TEST_SUITE_P(Threads, RtTreap, ::testing::Values(1, 2, 4));

TEST(RtTreap, StressManySeeds) {
  Scheduler sched(4);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto a = random_keys(300, 1000 + seed);
    const auto b = random_keys(300, 2000 + seed);
    treap::Store st;
    treap::Cell* out = treap::union_treaps(st, st.input(st.build(a)),
                                           st.input(st.build(b)));
    std::vector<std::int64_t> expected;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    ASSERT_EQ(treap::wait_inorder(out), expected) << "seed " << seed;
  }
}

// The path-bounded cutoff only peeks cells that are already written. Here
// the large operand's left subtree arrives late through an unwritten cell:
// each operation must publish its result root without waiting for it,
// serially apply the small batch on the written right side, fork the
// pipelined body at the late cell, and complete once that cell is written.
TEST(RtTreapPathCutoff, ForksPipelinedBodyAtUnwrittenCell) {
  Scheduler sched(2);
  std::vector<std::int64_t> base;
  for (std::int64_t k = 0; k < 4096; ++k) base.push_back(2 * k);
  using Op = treap::Cell* (*)(treap::Store&, treap::Cell*, treap::Cell*);
  // The root key is left out of the batch for union and difference and put
  // in for intersection, so that the root survives and is published early.
  const auto check = [&](Op op, bool with_root, const char* what) {
    treap::Store st;
    treap::Node* full = st.build(base);
    ASSERT_FALSE(pipelined::treap::is_leaf(full));
    // Batch keys on both sides of the root, half already present, none
    // outranking the root (so the root stays on top without a split).
    std::vector<std::int64_t> small;
    if (with_root) small.push_back(full->key);
    for (std::int64_t k = 1; small.size() < 24; k += 331)
      if (st.priority(k) < full->pri) small.push_back(k);
    std::sort(small.begin(), small.end());
    ASSERT_LT(small.front(), full->key);
    ASSERT_GT(small.back(), full->key);

    treap::Cell* late = st.cell();
    treap::Node* root = st.make(full->key, full->pri, late, full->right);
    treap::Cell* out = op(st, st.input(root), st.input(st.build(small)));
    // Published while `late` is still unwritten; its side is a forked fiber
    // parked on it.
    treap::Node* res = out->wait_blocking();
    ASSERT_NE(res, nullptr) << what;
    EXPECT_FALSE(res->left->written()) << what;
    late->write(full->left->peek());

    std::vector<std::int64_t> expected;
    if (op == treap::union_treaps)
      std::set_union(base.begin(), base.end(), small.begin(), small.end(),
                     std::back_inserter(expected));
    else if (op == treap::diff_treaps)
      std::set_difference(base.begin(), base.end(), small.begin(),
                          small.end(), std::back_inserter(expected));
    else
      std::set_intersection(base.begin(), base.end(), small.begin(),
                            small.end(), std::back_inserter(expected));
    EXPECT_EQ(treap::wait_inorder(out), expected) << what;
    EXPECT_TRUE(treap::validate(st, out)) << what;
  };
  check(treap::union_treaps, false, "union");
  check(treap::diff_treaps, false, "difference");
  check(treap::intersect_treaps, true, "intersection");
}

// A small first operand of a difference is filtered along the large one's
// search paths. When such a path crosses an unwritten cell, the fork there
// must make progress (one pipelined step on the small root) and then park,
// not re-enter the cutoff on the same operands over and over while the cell
// stays empty.
TEST(RtTreapPathCutoff, SmallMinusLargeParksAtUnwrittenCell) {
  Scheduler sched(2);
  treap::Store st;
  std::vector<std::int64_t> base;
  for (std::int64_t k = 0; k < 4096; ++k) base.push_back(2 * k);
  treap::Node* full = st.build(base);
  ASSERT_FALSE(pipelined::treap::is_leaf(full));
  // Keys on both sides of the large root, half of them present there, all
  // ranking below it: the small root ranks below the large root, and every
  // key under the large root's key searches through `late`.
  std::vector<std::int64_t> small;
  for (std::int64_t k = 1; small.size() < 24; k += 331)
    if (st.priority(k) < full->pri) small.push_back(k);
  std::sort(small.begin(), small.end());
  ASSERT_LT(small.front(), full->key);
  ASSERT_GT(small.back(), full->key);

  treap::Cell* late = st.cell();
  treap::Node* root = st.make(full->key, full->pri, late, full->right);
  const std::uint64_t before = sched.stats().resumed;
  treap::Cell* out =
      treap::diff_treaps(st, st.input(st.build(small)), st.input(root));
  // Everything that does not wait for `late` finishes quickly; a fiber
  // that keeps re-forking itself would resume thousands of times here.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t while_unwritten = sched.stats().resumed - before;
  EXPECT_LE(while_unwritten, 4 * small.size());
  late->write(full->left->peek());

  std::vector<std::int64_t> expected;
  std::set_difference(small.begin(), small.end(), base.begin(), base.end(),
                      std::back_inserter(expected));
  EXPECT_EQ(treap::wait_inorder(out), expected);
  EXPECT_TRUE(treap::validate(st, out));
}

TEST(RtMergesortBalanced, SortsAndIsHeightOptimal) {
  Rng rng(23);
  std::vector<std::int64_t> v;
  const std::size_t n = 1 << 12;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.range(-1 << 24, 1 << 24));
  std::vector<std::int64_t> expected = v;
  std::sort(expected.begin(), expected.end());
  Scheduler sched(4);
  trees::Store st;
  trees::Cell* out = trees::mergesort_balanced(st, v);
  EXPECT_EQ(trees::wait_inorder(out), expected);
  struct H {
    static int of(trees::Node* node) {
      if (!node) return 0;
      return 1 + std::max(of(node->left->peek()), of(node->right->peek()));
    }
  };
  EXPECT_LE(H::of(out->peek()),
            static_cast<int>(std::ceil(std::log2(static_cast<double>(n) + 1))) + 1);
}

// ---- parallel rebalance -------------------------------------------------------------

TEST(RtRebalance, BalancesMergeOutput) {
  const auto a = random_keys(3000, 40);
  const auto b = random_keys(1000, 41);
  Scheduler sched(4);
  trees::Store st;
  trees::Cell* merged = trees::merge(st, st.input(st.build_balanced(a)),
                                     st.input(st.build_balanced(b)));
  trees::Cell* balanced = trees::rebalance(st, merged);
  const auto got = trees::wait_inorder(balanced);
  std::vector<std::int64_t> expected;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(expected));
  EXPECT_EQ(got, expected);
  // Height is near-optimal after the completed pipeline.
  struct H {
    static int of(trees::Node* n) {
      if (!n) return 0;
      return 1 + std::max(of(n->left->peek()), of(n->right->peek()));
    }
  };
  const double total = static_cast<double>(got.size());
  EXPECT_LE(H::of(balanced->peek()),
            static_cast<int>(std::ceil(std::log2(total + 1))) + 1);
}

TEST(RtRebalance, EmptyAndTiny) {
  Scheduler sched(2);
  trees::Store st;
  {
    trees::Cell* out = trees::rebalance(st, st.input(nullptr));
    EXPECT_EQ(out->wait_blocking(), nullptr);
  }
  {
    std::vector<std::int64_t> one{7};
    trees::Cell* out =
        trees::rebalance(st, st.input(st.build_balanced(one)));
    EXPECT_EQ(trees::wait_inorder(out), one);
  }
}

TEST(RtRebalance, MatchesCostModelResult) {
  // The runtime and the cost model instantiate the *same* algorithm bodies
  // (src/pipelined/trees.hpp), so merge + rebalance must produce the same
  // tree on both substrates — same in-order keys and same shape.
  const auto a = random_keys(2000, 50);
  const auto b = random_keys(700, 51);

  cm::Engine eng;
  pwf::trees::Store cst(eng);
  pwf::trees::TreeCell* cm_merged =
      pwf::trees::merge(cst, cst.input(cst.build_balanced(a)),
                        cst.input(cst.build_balanced(b)));
  pwf::trees::TreeCell* cm_out = pwf::trees::rebalance(cst, cm_merged);
  std::vector<std::int64_t> cm_keys;
  pwf::trees::collect_inorder(pwf::trees::peek(cm_out), cm_keys);
  const int cm_height = pwf::trees::height(pwf::trees::peek(cm_out));

  Scheduler sched(4);
  trees::Store st;
  trees::Cell* merged = trees::merge(st, st.input(st.build_balanced(a)),
                                     st.input(st.build_balanced(b)));
  trees::Cell* balanced = trees::rebalance(st, merged);
  EXPECT_EQ(trees::wait_inorder(balanced), cm_keys);
  EXPECT_EQ(trees::height(trees::peek(balanced)), cm_height);
}

// ---- strict fork-join baselines on the runtime ---------------------------------------

TEST(RtMerge, StrictBaselineMatchesPipelined) {
  const auto a = random_keys(1500, 60);
  const auto b = random_keys(900, 61);
  Scheduler sched(4);
  trees::Store st;
  trees::Node* strict = trees::merge_strict_blocking(
      st, st.build_balanced(a), st.build_balanced(b));
  std::vector<std::int64_t> got;
  trees::collect_inorder(strict, got);
  std::vector<std::int64_t> expected;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(expected));
  EXPECT_EQ(got, expected);
}

TEST(RtTreap, StrictUnionBaselineMatchesPipelined) {
  const auto a = random_keys(1200, 62);
  const auto b = random_keys(800, 63);
  Scheduler sched(4);
  treap::Store st;
  treap::Node* strict =
      treap::union_strict_blocking(st, st.build(a), st.build(b));
  const auto got = treap::wait_inorder(st.input(strict));
  std::set<std::int64_t> ref(a.begin(), a.end());
  ref.insert(b.begin(), b.end());
  EXPECT_EQ(got, std::vector<std::int64_t>(ref.begin(), ref.end()));
}

// ---- parallel 2-6 tree -------------------------------------------------------------

class RtTtree : public ::testing::TestWithParam<int> {};

TEST_P(RtTtree, BulkInsertMatchesSet) {
  const unsigned nthreads = static_cast<unsigned>(GetParam());
  const auto tree_keys = random_keys(3000, 700 + nthreads);
  const auto new_keys = random_keys(1000, 800 + nthreads);
  Scheduler sched(nthreads);
  ttree::Store st;
  ttree::Cell* root = st.input(st.build(tree_keys, 3));
  ttree::Cell* out = ttree::bulk_insert(st, root, new_keys);
  EXPECT_TRUE(ttree::validate(out));
  std::set<std::int64_t> ref(tree_keys.begin(), tree_keys.end());
  ref.insert(new_keys.begin(), new_keys.end());
  EXPECT_EQ(ttree::wait_keys(out),
            std::vector<std::int64_t>(ref.begin(), ref.end()));
}

INSTANTIATE_TEST_SUITE_P(Threads, RtTtree, ::testing::Values(1, 2, 4));

TEST(RtTtree, ManyWavesDeepPipeline) {
  // m > n: many waves chase each other down a shallow tree.
  const auto tree_keys = random_keys(64, 900);
  const auto new_keys = random_keys(4096, 901);
  Scheduler sched(4);
  ttree::Store st;
  ttree::Cell* out =
      ttree::bulk_insert(st, st.input(st.build(tree_keys, 3)), new_keys);
  EXPECT_TRUE(ttree::validate(out));
  std::set<std::int64_t> ref(tree_keys.begin(), tree_keys.end());
  ref.insert(new_keys.begin(), new_keys.end());
  EXPECT_EQ(ttree::wait_keys(out),
            std::vector<std::int64_t>(ref.begin(), ref.end()));
}

}  // namespace
}  // namespace pwf::rt
