// Coroutine-runtime substrate: RtExec executes the same templated algorithm
// bodies on the work-stealing scheduler (src/runtime). See
// docs/substrates.md.
//
// touch() hands back the FutCell itself — its awaiter parks the coroutine in
// the cell when the value is not there yet (the paper's constant-time
// suspend/reactivate). fork() posts a detached fiber; fork_join2/fork_join_all
// count children in with an atomic join counter. Cost-model bookkeeping
// (step/array_op/now_stamp) compiles to nothing.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pipelined/exec.hpp"
#include "runtime/concurrent_arena.hpp"
#include "runtime/future.hpp"
#include "runtime/scheduler.hpp"
#include "support/check.hpp"

namespace pwf::pipelined {

// The runtime needs no per-store context: cells repost waiters through the
// process-wide Scheduler::current().
struct RtContext {};

struct RtPolicy {
  template <typename T>
  using Cell = rt::FutCell<T>;
  using Time = std::uint64_t;  // vestigial: the runtime has no DAG clock
  using Context = RtContext;
  using Arena = rt::ConcurrentArena;
  static constexpr bool kHasTimestamps = false;
  // Upper bound on the flat leaf-chunk capacity a Store may request
  // (docs/storage.md). The per-store default is treap::kDefaultLeafCapacity;
  // this cap just keeps a misconfigured store from building kilobyte-scans.
  static constexpr std::size_t kMaxLeafCapacity = 1024;

  template <typename T>
  static void preset(rt::FutCell<T>& c, T v) {
    c.preset(std::move(v));
  }
  template <typename T>
  static T peek(const rt::FutCell<T>* c) {
    return c->peek();
  }
  // Non-consuming availability probe: serial fast paths walk only through
  // cells that are already written and fall back to the pipelined path the
  // moment one is not (no parking, no blocking).
  template <typename T>
  static bool ready(const rt::FutCell<T>* c) {
    return c->written();
  }
};

namespace detail {

// Join counter for fork_join2/fork_join_all: children + the parent each hold
// one token; whoever releases the last token resumes the parent. The parent
// holds its own token so the awaiter can't be resumed before await_suspend
// has finished publishing `parent`.
struct JoinCounter {
  std::atomic<int> pending;
  std::coroutine_handle<> parent;

  explicit JoinCounter(int tokens) : pending(tokens) {}

  // Returns true when this call released the last token (the caller that
  // sees it on the parent path continues inline; a child posts the parent).
  bool release() { return pending.fetch_sub(1, std::memory_order_acq_rel) == 1; }

  void arrive() {
    if (release()) {
      rt::Scheduler* s = rt::Scheduler::current();
      PWF_CHECK_MSG(s != nullptr, "fork_join outside a Scheduler's lifetime");
      s->post(parent);
    }
  }
};

// Runs `body` once `c` is written (RtExec::fork_after): the first await
// parks this frame in the cell, or posts it if the cell is already written.
template <typename T>
Fiber after_written(rt::FutCell<T>* c, Fiber body) {
  co_await c->park_or_post();
  co_await std::move(body);
}

// Watcher fiber: drive one child task to completion, then arrive at the
// join. The task object lives in the parent's awaiter, which outlives every
// watcher (the parent resumes only after all arrivals).
template <typename TaskT>
Fiber join_watch(TaskT& t, JoinCounter& jc) {
  co_await t.when_done();
  jc.arrive();
}

}  // namespace detail

class RtExec {
 public:
  using Policy = RtPolicy;

  // Below this many elements (or available nodes) the shared bodies stop
  // forking and run tight sequential loops instead. 128 sits in the middle
  // of the 64–256 band where per-frame overhead (~µs) dwarfs per-element
  // work (~ns) but the lost parallelism is still negligible against total
  // work; E23 sweeps the alternatives.
  static constexpr std::size_t kDefaultSerialThreshold = 128;

  RtExec() = default;
  explicit RtExec(RtContext) {}
  explicit RtExec(std::size_t threshold) : serial_threshold_(threshold) {}

  // ---- pipelined operations ------------------------------------------------

  // The cell is its own awaiter: ready if written, parks the frame if not.
  template <typename T>
  rt::FutCell<T>& touch(rt::FutCell<T>* c) const {
    return *c;
  }

  template <typename T>
  void write(rt::FutCell<T>* c, T v) const {
    c->write(std::move(v));
  }

  void fork(Fiber f) const {
    rt::Scheduler* s = rt::Scheduler::current();
    PWF_CHECK_MSG(s != nullptr, "fork outside a Scheduler's lifetime");
    s->post(f.handle);
  }

  // Forks `f`, whose first action is to touch `c`, to run once `c` is
  // written. While `c` is empty the forking thread parks the fiber in it
  // directly, instead of posting a fiber that a worker — woken for it if
  // all were idle — would resume only to park it there. Chained batches
  // have exactly this shape: each one's first touch is its predecessor's
  // result, usually still materializing.
  template <typename T>
  void fork_after(rt::FutCell<T>* c, Fiber f) const {
    if (c->written()) {
      fork(std::move(f));
    } else {
      detail::after_written(c, std::move(f)).handle.resume();
    }
  }

  // ---- local work (cost-model bookkeeping only — free at runtime) ----------

  void step() const {}
  void steps(std::uint64_t) const {}
  void array_op(std::uint64_t) const {}
  std::uint64_t now_stamp() const { return 0; }

  // ---- granularity control -------------------------------------------------

  std::size_t serial_threshold() const { return serial_threshold_; }

  void on_serial_cutoff() const {
    if (rt::Scheduler* s = rt::Scheduler::current()) s->note_serial_cutoff();
  }

  void on_leaf_op(std::size_t /*keys*/) const {
    if (rt::Scheduler* s = rt::Scheduler::current()) s->note_leaf_op();
  }

  void on_aug_op() const {
    if (rt::Scheduler* s = rt::Scheduler::current()) s->note_aug_op();
  }

  // Run a would-be fork inline on this worker (symmetric transfer, no
  // scheduler round trip). Anything the inline chain suspends on is produced
  // by independently forked fibers, so chaining cannot deadlock.
  static Fiber::InlineAwaiter run_serial(Fiber f) {
    return Fiber::InlineAwaiter{f.handle};
  }

  // ---- fork-join -----------------------------------------------------------

  template <typename A, typename B>
  struct Join2 {
    Task<A> a;
    Task<B> b;
    detail::JoinCounter jc{3};

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> parent) {
      jc.parent = parent;
      rt::Scheduler* s = rt::Scheduler::current();
      PWF_CHECK_MSG(s != nullptr, "fork_join outside a Scheduler's lifetime");
      s->post(detail::join_watch(a, jc).handle);
      s->post(detail::join_watch(b, jc).handle);
      return !jc.release();  // both children already done -> resume inline
    }
    std::pair<A, B> await_resume() {
      return {std::move(a.handle.promise().value),
              std::move(b.handle.promise().value)};
    }
  };

  template <typename A, typename B>
  Join2<A, B> fork_join2(Task<A> a, Task<B> b) const {
    return Join2<A, B>{std::move(a), std::move(b)};
  }

  struct JoinAll {
    std::vector<Task<void>> ts;
    detail::JoinCounter jc;

    explicit JoinAll(std::vector<Task<void>> tasks)
        : ts(std::move(tasks)), jc(static_cast<int>(ts.size()) + 1) {}

    bool await_ready() const noexcept { return ts.empty(); }
    bool await_suspend(std::coroutine_handle<> parent) {
      jc.parent = parent;
      rt::Scheduler* s = rt::Scheduler::current();
      PWF_CHECK_MSG(s != nullptr, "fork_join outside a Scheduler's lifetime");
      for (Task<void>& t : ts) s->post(detail::join_watch(t, jc).handle);
      return !jc.release();
    }
    void await_resume() const noexcept {}
  };

  JoinAll fork_join_all(std::vector<Task<void>> ts) const {
    return JoinAll{std::move(ts)};
  }

 private:
  std::size_t serial_threshold_ = kDefaultSerialThreshold;
};

// Bridge to a blocking caller: runs the task on the scheduler and writes its
// value into `result` (wait_blocking on the far side). This is how the
// strict baselines — whose roots are plain values, not cells — are joined
// from an external thread.
template <typename T>
Fiber deliver(Task<T> t, rt::FutCell<T>* result) {
  result->write(co_await std::move(t));
}

}  // namespace pwf::pipelined
