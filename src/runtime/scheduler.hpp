// Work-stealing scheduler for the coroutine futures runtime.
//
// This is the "real" counterpart of the paper's Section-4 runtime: the
// simulator (src/sim) replays the provable greedy schedule; this scheduler
// actually executes the same programs on OS threads. Each worker owns a
// Chase–Lev deque of ready coroutine handles; suspended coroutines live in
// the future cells they are waiting on (src/runtime/future.hpp) and are
// reposted by the write — the paper's constant-time suspend/reactivate,
// which it calls critical for the depth bounds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/deque.hpp"
#include "runtime/frame_pool.hpp"
#include "runtime/inject_ring.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace pwf::rt {

class IoReactor;

class Scheduler {
 public:
  // nthreads = 0 picks hardware_concurrency (>= 1).
  explicit Scheduler(unsigned nthreads = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Enqueue a ready coroutine. On a worker thread it goes to the worker's
  // own deque (LIFO end — the stack discipline the paper prefers for
  // space); from outside it goes to the injection queue.
  void post(std::coroutine_handle<> h);

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  // The process-wide live scheduler (future-cell writes repost waiters
  // through it). Exactly one Scheduler may be alive at a time.
  static Scheduler* current();

  // The scheduler's I/O reactor (src/runtime/io_reactor.hpp): an epoll +
  // timerfd thread that fibers park on via the io_awaiter.hpp awaitables.
  // Started lazily on first use — programs that never touch I/O pay
  // nothing. The reactor is torn down *before* the workers in ~Scheduler
  // (in-flight parks are resumed with a cancelled result; see the header).
  IoReactor& reactor();

  // Observability: aggregate counters since construction (approximate —
  // relaxed atomics, intended for monitoring and tests, not invariants).
  // The frame-pool counters are process-wide (the pool outlives schedulers
  // and is shared with cost-model runs), not per-Scheduler.
  struct Stats {
    std::uint64_t resumed = 0;           // coroutine resumptions executed
    std::uint64_t steals = 0;            // successful steals
    std::uint64_t injected = 0;          // posts from non-worker threads
    std::uint64_t inject_overflows = 0;  // posts that missed the ring
    std::uint64_t inject_overflow_batches = 0;  // one-lock overflow drains
    std::uint64_t serial_cutoffs = 0;    // substrate serial-path activations
    std::uint64_t leaf_ops = 0;          // leaf-chunk merges, splits, joins
    std::uint64_t aug_ops = 0;           // aggregate recomputations
    std::uint64_t rebalances = 0;        // shard split/join ops launched
    std::uint64_t wakeups = 0;           // park_cv_ signals issued by post()
    std::uint64_t io_parks = 0;          // fibers parked on an fd or timer
    std::uint64_t io_wakeups = 0;        // fibers reposted by the reactor
    std::uint64_t timer_fires = 0;       // deadlines that elapsed
    std::uint64_t timer_cancels = 0;     // timers cancelled before firing
    std::uint64_t frame_pool_hits = 0;   // frames served from a freelist
    std::uint64_t frame_pool_misses = 0; // frames that hit the heap
  };
  Stats stats() const;

  // Called by RtExec when a body takes its serial fast path instead of
  // forking (see docs/substrates.md on serial_threshold()).
  void note_serial_cutoff() {
    serial_cutoffs_.fetch_add(1, std::memory_order_relaxed);
  }

  // Called by RtExec for each merge, split, difference, intersection or
  // concatenation of flat leaf chunks (docs/storage.md), in the pipelined
  // and the path bodies alike — the cache-economy column of E19/E24.
  void note_leaf_op() {
    leaf_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  // Called by RtExec when an aug_into fiber recomputes a node's aggregate,
  // or a path body combines a rebuilt node's aggregate inline
  // (docs/augmentation.md) — the augmentation-overhead column of E25.
  void note_aug_op() {
    aug_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  // Called by the rt split/join drivers when the adaptive sharded facades
  // launch a rebalance op (docs/service.md).
  void note_rebalance() {
    rebalances_.fetch_add(1, std::memory_order_relaxed);
  }

  // Called by the IoReactor (docs/runtime.md, "I/O awaiters and the
  // reactor"): park when a fiber registers on an fd/deadline, wakeup when
  // the reactor reposts it, fire/cancel for timer outcomes.
  void note_io_park() { io_parks_.fetch_add(1, std::memory_order_relaxed); }
  void note_io_wakeup() {
    io_wakeups_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_timer_fire() {
    timer_fires_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_timer_cancel() {
    timer_cancels_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Worker {
    WorkStealingDeque deque;
    Rng rng;
  };

  void worker_loop(unsigned index);
  std::coroutine_handle<> find_work(unsigned index);
  void wake_one();
  bool work_queued() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Injection queue for posts from non-worker threads: a bounded lock-free
  // ring on the fast path, with a mutex-guarded overflow vector when the
  // ring fills (overflow_count_ lets workers skip the mutex when empty).
  static constexpr std::size_t kInjectCapacity = 1024;
  InjectRing inject_ring_{kInjectCapacity};
  std::mutex inject_mutex_;
  std::vector<std::coroutine_handle<>> inject_overflow_;
  std::atomic<std::size_t> overflow_count_{0};

  // Parking lot. `parked_` is the Dekker bit of the lock-free wake path
  // (same pattern as FutCell's kBlocked announcement): a worker announces
  // itself *before* its final work recheck, a poster enqueues *before*
  // loading the counter, so one side always observes the other. A post
  // that finds a parked worker wakes one unless `wake_pending_` says an
  // earlier wake has not yet been taken up; the next worker to leave the
  // parking lot clears it and goes looking for work, so a burst of posts
  // costs one futex wake, not one per post. The mutex serializes the final
  // recheck, the cv wait, leaving the lot, the waker's decision and the
  // stop_ flag.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  bool stop_ = false;  // guarded by park_mutex_
  std::atomic<unsigned> parked_{0};
  std::atomic<bool> wake_pending_{false};

  // Lazily started I/O reactor. reactor_ptr_ is the lock-free fast path;
  // reactor_mu_ serializes the one-time start. Torn down first in
  // ~Scheduler so no fiber is still parked on an fd when workers stop.
  std::mutex reactor_mu_;
  std::atomic<IoReactor*> reactor_ptr_{nullptr};
  std::unique_ptr<IoReactor> reactor_;

  // Monitoring counters (relaxed).
  std::atomic<std::uint64_t> resumed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> inject_overflows_{0};
  std::atomic<std::uint64_t> inject_overflow_batches_{0};
  std::atomic<std::uint64_t> serial_cutoffs_{0};
  std::atomic<std::uint64_t> leaf_ops_{0};
  std::atomic<std::uint64_t> aug_ops_{0};
  std::atomic<std::uint64_t> rebalances_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> io_parks_{0};
  std::atomic<std::uint64_t> io_wakeups_{0};
  std::atomic<std::uint64_t> timer_fires_{0};
  std::atomic<std::uint64_t> timer_cancels_{0};
};

// Spawned computation: a detached coroutine. It starts suspended (the spawn
// call posts it — the fork action), runs on whatever worker picks it up,
// and destroys its own frame when it finishes. Results are communicated
// exclusively through future cells, as in the paper's model.
struct Fiber {
  struct promise_type {
    // Frames are pooled like the substrate-templated bodies' (see
    // pipelined::PooledFrame): only the sized delete, so the pool can
    // find the size class.
    static void* operator new(std::size_t bytes) {
      return FramePool::allocate(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) {
      FramePool::release(p, bytes);
    }

    Fiber get_return_object() {
      return Fiber{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  std::coroutine_handle<promise_type> handle;
};

// The future/fork: schedule the fiber and return immediately.
inline void spawn(Fiber f) {
  Scheduler* s = Scheduler::current();
  PWF_CHECK_MSG(s != nullptr, "spawn outside a Scheduler's lifetime");
  s->post(f.handle);
}

}  // namespace pwf::rt
