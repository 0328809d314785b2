// Tests for the pwf-analyze runtime checker (src/analyze/rt_recorder.hpp).
// Only built when the runtime is instrumented (-DPWF_ANALYZE=ON): FutCell
// and the Scheduler log preset/write/touch/park events, and the Scheduler
// destructor audits them — double writes, waiters parked forever on cells
// nobody will write (otherwise a silent hang), and non-linear reads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "analyze/rt_recorder.hpp"
#include "runtime/future.hpp"
#include "runtime/parallel_map.hpp"
#include "runtime/parallel_set.hpp"
#include "runtime/scheduler.hpp"

#if !PWF_ANALYZE
#error "rt_analyze_test requires -DPWF_ANALYZE=ON"
#endif

namespace pwf::rt {
namespace {

// Each test audits its own window of events.
class RtAnalyze : public ::testing::Test {
 protected:
  void SetUp() override { analyze::reset(); }
  void TearDown() override { analyze::reset(); }
};

TEST_F(RtAnalyze, RecordsWriteAndTouch) {
  {
    Scheduler sched(2);
    FutCell<int> cell;
    FutCell<int> done;
    struct Maker {
      static Fiber reader(FutCell<int>& in, FutCell<int>& out) {
        const int v = co_await in;
        out.write(v + 1);
      }
    };
    spawn(Maker::reader(cell, done));
    cell.write(1);
    EXPECT_EQ(done.wait_blocking(), 2);

    const analyze::RtReport rep = analyze::audit();
    EXPECT_TRUE(rep.ok());
    EXPECT_GE(rep.events, 3u);  // >= 2 writes + 1 touch (park is racy)
    EXPECT_EQ(rep.cells, 2u);
    EXPECT_TRUE(rep.nonlinear.empty());
  }  // scheduler shutdown audit must be clean too
}

TEST_F(RtAnalyze, LinearRunHasCleanShutdownAudit) {
  {
    Scheduler sched(2);
    FutCell<int> a, b, c;
    struct Maker {
      static Fiber stage(FutCell<int>& in, FutCell<int>& out) {
        out.write(co_await in * 2);
      }
    };
    spawn(Maker::stage(a, b));
    spawn(Maker::stage(b, c));
    a.write(5);
    EXPECT_EQ(c.wait_blocking(), 20);
  }
  // The destructor audited and reset; a fresh audit sees nothing.
  EXPECT_EQ(analyze::audit().events, 0u);
}

TEST_F(RtAnalyze, DetectsNonLinearReads) {
  Scheduler sched(2);
  FutCell<int> cell;
  std::atomic<int> sum{0};
  FutCell<int> dones[3];
  struct Maker {
    static Fiber reader(FutCell<int>& in, std::atomic<int>& s,
                        FutCell<int>& done) {
      s.fetch_add(co_await in);
      done.write(1);
    }
  };
  for (auto& d : dones) spawn(Maker::reader(cell, sum, d));
  cell.write(3);
  for (auto& d : dones) d.wait_blocking();
  EXPECT_EQ(sum.load(), 9);

  const analyze::RtReport rep = analyze::audit();
  // Non-linear reads are reported but not fatal: the waiter list supports
  // the general multi-reader model of Section 2.
  EXPECT_TRUE(rep.ok());
  ASSERT_EQ(rep.nonlinear.size(), 1u);
  EXPECT_EQ(rep.nonlinear[0].cell, &cell);
  EXPECT_EQ(rep.nonlinear[0].touches, 3u);
  analyze::reset();  // keep the shutdown audit's nonlinear report quiet
}

TEST_F(RtAnalyze, EventLogCarriesWorkerAndFiber) {
  Scheduler sched(1);
  FutCell<int> cell, done;
  struct Maker {
    static Fiber reader(FutCell<int>& in, FutCell<int>& out) {
      out.write(co_await in);
    }
  };
  spawn(Maker::reader(cell, done));
  cell.write(7);
  done.wait_blocking();
  bool saw_worker_event = false;
  for (const auto& e : analyze::recent_events(64))
    if (e.worker >= 0 && e.fiber != nullptr) saw_worker_event = true;
  EXPECT_TRUE(saw_worker_event);
}

TEST_F(RtAnalyze, ShutdownAbortsOnParkedForeverWaiter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1);
        FutCell<int> never_written;
        FutCell<int> reached;
        struct Maker {
          static Fiber reader(FutCell<int>& nw, FutCell<int>& r) {
            r.write(1);             // prove the fiber ran this far...
            co_await nw;            // ...then park forever
          }
        };
        spawn(Maker::reader(never_written, reached));
        reached.wait_blocking();
        // Destroying the scheduler quiesces the workers; the shutdown audit
        // finds the parked waiter and aborts instead of hanging silently.
      },
      "never-written|parked forever|runtime audit failed");
}

// Constructing, writing, flushing, and destroying a service under the
// instrumented build must leave a clean audit — and while batches are
// unflushed, any parked-but-unwritten cells are classified as pending on the
// pipeline, not as deadlocks.
TEST_F(RtAnalyze, ServiceLifecycleAuditsClean) {
  {
    Scheduler sched(2);
    {
      ParallelSet set(sched);
      std::vector<std::int64_t> keys(4096);
      std::iota(keys.begin(), keys.end(), 0);
      set.insert_batch(keys);
      set.erase_batch(std::vector<std::int64_t>{0, 1, 2, 3});
      EXPECT_GE(analyze::pipeline_unflushed(), 2u);
      const analyze::RtReport mid = analyze::audit();
      EXPECT_TRUE(mid.ok()) << "in-flight service batches misread as "
                               "parked-forever";
      EXPECT_TRUE(mid.never_written.empty());
      set.flush();
      EXPECT_EQ(analyze::pipeline_unflushed(), 0u);
      EXPECT_EQ(set.size(), 4092u);
    }  // ~ParallelSet drains frames (scheduler alive)
  }    // shutdown audit must pass
  EXPECT_EQ(analyze::audit().events, 0u);
}

// The destruction order the ISSUE names: the Scheduler dies while service
// pipelines are still unflushed. The shutdown audit must treat cells chained
// on the unflushed roots as pending (no abort), and the service destructors
// must not spin on frame-pool quiescence nobody can produce (no hang). Runs
// in a death-test child because fibers dropped at scheduler shutdown leak
// pool frames process-wide, which would poison later wait_quiescent calls.
void shutdown_with_unflushed_pipeline() {
  auto sched = std::make_unique<Scheduler>(2);
  auto set = std::make_unique<ParallelSet>(*sched);
  auto map = std::make_unique<ParallelMap<std::int64_t>>(*sched);
  std::vector<std::int64_t> keys(40000);
  std::iota(keys.begin(), keys.end(), 0);
  set->insert_batch(keys);
  set->erase_batch(keys);
  set->insert_batch(keys);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(keys.size());
  for (std::int64_t k : keys) items.emplace_back(k, k);
  map->insert_batch(items, [](std::int64_t, std::int64_t b) { return b; });
  sched.reset();  // audit runs with unflushed batches: must not abort
  map.reset();    // must not hang: no scheduler can drain frames
  set.reset();
  std::_Exit(0);
}

TEST_F(RtAnalyze, SchedulerShutdownWithUnflushedPipelineNeitherAbortsNorHangs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(shutdown_with_unflushed_pipeline(),
              ::testing::ExitedWithCode(0), "");
}

// The single-mutator rule, enforced: thread A sits in compact(), held up
// behind a batch the lone worker cannot run (a spinning fiber holds it),
// when the main thread submits a batch on the same index. The batch call
// must abort with the owner token's message. If it does not, the child
// exits 0 and the death test fails instead of hanging.
Fiber spin_until(std::atomic<bool>* started, std::atomic<bool>* release) {
  started->store(true, std::memory_order_release);
  while (!release->load(std::memory_order_acquire)) std::this_thread::yield();
  co_return;
}

void batch_during_compaction() {
  Scheduler sched(1);
  ParallelSet set(sched);
  std::vector<std::int64_t> keys(4096);
  std::iota(keys.begin(), keys.end(), 0);
  set.insert_batch(keys);
  set.flush();
  std::atomic<bool> started{false}, release{false}, compacting{false};
  spawn(spin_until(&started, &release));
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  set.insert_batch(std::vector<std::int64_t>{1 << 20});  // stays pending
  std::thread a([&] {
    compacting.store(true, std::memory_order_release);
    set.compact();  // waits for the pending batch
  });
  while (!compacting.load(std::memory_order_acquire))
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  set.insert_batch(std::vector<std::int64_t>{1 << 21});  // must abort
  release.store(true, std::memory_order_release);
  a.join();
  std::_Exit(0);
}

TEST_F(RtAnalyze, SecondMutatorThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(batch_during_compaction(), "one mutator thread at a time");
}

TEST_F(RtAnalyze, DoubleWriteStillAbortsEagerly) {
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

}  // namespace
}  // namespace pwf::rt
