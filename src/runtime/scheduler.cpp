#include "runtime/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "runtime/io_reactor.hpp"

#if PWF_ANALYZE
#include "analyze/rt_recorder.hpp"
#endif

namespace pwf::rt {

namespace {
std::atomic<Scheduler*> g_current{nullptr};
thread_local int t_worker_index = -1;
thread_local Scheduler* t_worker_scheduler = nullptr;
}  // namespace

Scheduler* Scheduler::current() {
  return g_current.load(std::memory_order_acquire);
}

Scheduler::Stats Scheduler::stats() const {
  Stats s;
  s.resumed = resumed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.injected = injected_.load(std::memory_order_relaxed);
  s.inject_overflows = inject_overflows_.load(std::memory_order_relaxed);
  s.inject_overflow_batches =
      inject_overflow_batches_.load(std::memory_order_relaxed);
  s.serial_cutoffs = serial_cutoffs_.load(std::memory_order_relaxed);
  s.leaf_ops = leaf_ops_.load(std::memory_order_relaxed);
  s.aug_ops = aug_ops_.load(std::memory_order_relaxed);
  s.rebalances = rebalances_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.io_parks = io_parks_.load(std::memory_order_relaxed);
  s.io_wakeups = io_wakeups_.load(std::memory_order_relaxed);
  s.timer_fires = timer_fires_.load(std::memory_order_relaxed);
  s.timer_cancels = timer_cancels_.load(std::memory_order_relaxed);
  const FramePool::Stats pool = FramePool::stats();
  s.frame_pool_hits = pool.hits;
  s.frame_pool_misses = pool.misses;
  return s;
}

Scheduler::Scheduler(unsigned nthreads) {
  if (nthreads == 0) nthreads = std::max(1u, std::thread::hardware_concurrency());
  Scheduler* expected = nullptr;
  PWF_CHECK_MSG(
      g_current.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel),
      "only one Scheduler may be alive at a time");
  workers_.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rng.reseed(0xC0FFEE + i);
  }
  threads_.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

IoReactor& Scheduler::reactor() {
  if (IoReactor* r = reactor_ptr_.load(std::memory_order_acquire)) return *r;
  std::lock_guard<std::mutex> lk(reactor_mu_);
  if (!reactor_) {
    reactor_ = std::make_unique<IoReactor>(*this);
    reactor_ptr_.store(reactor_.get(), std::memory_order_release);
  }
  return *reactor_;
}

Scheduler::~Scheduler() {
  // Reactor first: its destructor cancels every in-flight fd/timer park and
  // runs those fibers to completion on the reactor thread, so by the time
  // the workers stop no fiber can still be waiting on I/O (a worker-queued
  // fiber dropped at stop is the pre-existing shutdown semantics; a fiber
  // parked in a dead reactor would be a leak).
  reactor_ptr_.store(nullptr, std::memory_order_release);
  reactor_.reset();
  {
    std::lock_guard<std::mutex> lk(park_mutex_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (auto& t : threads_) t.join();
#if PWF_ANALYZE
  // All workers have quiesced: any waiter still parked in a cell now sleeps
  // forever (a touch of a never-written cell). Audit and report before the
  // scheduler disappears — without this the bug is a silent hang.
  rt::analyze::audit_at_shutdown();
#endif
  g_current.store(nullptr, std::memory_order_release);
}

void Scheduler::post(std::coroutine_handle<> h) {
  if (t_worker_scheduler == this && t_worker_index >= 0) {
    workers_[t_worker_index]->deque.push(h.address());
  } else {
    injected_.fetch_add(1, std::memory_order_relaxed);
    if (!inject_ring_.push(h.address())) {
      // Ring full: spill to the mutex path so posts never block or drop.
      inject_overflows_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(inject_mutex_);
      inject_overflow_.push_back(h);
      overflow_count_.store(inject_overflow_.size(),
                            std::memory_order_release);
    }
  }
  // Lock-free wake — poster half of the Dekker handshake. Audit (both
  // fences are load-bearing; the reactor thread reposting readied I/O
  // fibers takes exactly this path):
  //
  //   poster:  enqueue item            worker:  parked_.fetch_add (announce)
  //            fence(seq_cst)  [P]              fence(seq_cst)        [W]
  //            load parked_                     recheck queues
  //
  // The enqueue is release-at-best (ring CAS / deque store) and the recheck
  // loads are acquire-at-best, so without *both* fences the store-buffering
  // outcome "poster misses the announcement AND worker misses the item" is
  // allowed — the announce being a seq_cst RMW does not by itself order the
  // worker's later queue loads against it. With [P] and [W] in the single
  // total order of seq_cst fences, one side must observe the other: either
  // the worker's recheck sees the item, or this load sees parked_ != 0 and
  // wakes it (wake_one closes the gap between that recheck and the wait).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_relaxed) != 0) wake_one();
}

// One wake per burst (see wake_pending_): while a woken worker is still on
// its way out of the parking lot, a post needs no futex of its own. The
// decision is taken under park_mutex_, where workers also recheck for work
// and leave the lot, so a wake is never issued for nobody and never lost
// between a worker's recheck and its wait. The 1 ms park timeout stays as
// a backstop only.
void Scheduler::wake_one() {
  if (wake_pending_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lk(park_mutex_);
    if (parked_.load(std::memory_order_relaxed) == 0 ||
        wake_pending_.load(std::memory_order_relaxed))
      return;
    wake_pending_.store(true, std::memory_order_relaxed);
  }
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  park_cv_.notify_one();
}

// Whether any queue visibly holds work (approximate, relaxed): a worker
// leaving the parking lot uses it to pass the wake on to a parked peer.
bool Scheduler::work_queued() const {
  if (!inject_ring_.empty() ||
      overflow_count_.load(std::memory_order_relaxed) != 0)
    return true;
  for (const auto& w : workers_)
    if (w->deque.size_estimate() > 0) return true;
  return false;
}

std::coroutine_handle<> Scheduler::find_work(unsigned index) {
  Worker& me = *workers_[index];
  if (void* p = me.deque.pop())
    return std::coroutine_handle<>::from_address(p);
  if (void* p = inject_ring_.pop())
    return std::coroutine_handle<>::from_address(p);
  // The overflow vector is only populated when the ring filled up; the
  // atomic count lets the common case skip the mutex entirely. When it is
  // populated, drain the whole backlog on ONE lock acquisition: the first
  // handle is returned and the rest go to this worker's own deque (where
  // idle peers can steal them) instead of paying a mutex round-trip per
  // item.
  if (overflow_count_.load(std::memory_order_acquire) != 0) {
    std::vector<std::coroutine_handle<>> batch;
    {
      std::lock_guard<std::mutex> lk(inject_mutex_);
      batch.swap(inject_overflow_);
      overflow_count_.store(0, std::memory_order_release);
    }
    if (!batch.empty()) {
      inject_overflow_batches_.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = batch.size(); i > 1; --i)
        me.deque.push(batch[i - 1].address());
      return batch.front();
    }
  }
  // Randomized stealing: a few rounds over the other workers.
  const unsigned n = static_cast<unsigned>(workers_.size());
  if (n > 1) {
    for (unsigned attempt = 0; attempt < 2 * n; ++attempt) {
      const unsigned victim =
          static_cast<unsigned>(me.rng.below(n));
      if (victim == index) continue;
      if (void* p = workers_[victim]->deque.steal()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return std::coroutine_handle<>::from_address(p);
      }
    }
  }
  return nullptr;
}

void Scheduler::worker_loop(unsigned index) {
  t_worker_index = static_cast<int>(index);
  t_worker_scheduler = this;
  FramePool::warm();
#if PWF_ANALYZE
  rt::analyze::set_worker(static_cast<int>(index));
#endif
  const auto run = [this](std::coroutine_handle<> h) {
    resumed_.fetch_add(1, std::memory_order_relaxed);
#if PWF_ANALYZE
    rt::analyze::set_current_fiber(h.address());
#endif
    h.resume();
#if PWF_ANALYZE
    rt::analyze::set_current_fiber(nullptr);
#endif
  };
  for (;;) {
    if (std::coroutine_handle<> h = find_work(index)) {
      run(h);
      continue;
    }
    // Park — worker half of the Dekker handshake (see the audit comment in
    // post()). Announce first, fence, then recheck: the explicit fence pairs
    // with post()'s fence so a poster that misses this announcement is
    // guaranteed its item is visible to the recheck. The announce alone
    // (even as a seq_cst RMW) would not order the recheck's queue loads
    // after it. The recheck runs under park_mutex_, which wake_one() takes
    // before notifying.
    parked_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::coroutine_handle<> h;
    bool stopping;
    {
      std::unique_lock<std::mutex> lk(park_mutex_);
      h = find_work(index);
      if (!h && !stop_) park_cv_.wait_for(lk, std::chrono::milliseconds(1));
      stopping = stop_;
      // Out of the parking lot: a later post must wake someone again.
      parked_.fetch_sub(1, std::memory_order_relaxed);
      wake_pending_.store(false, std::memory_order_relaxed);
    }
    if (!h) h = find_work(index);
    if (!h) {
      if (stopping) break;
      continue;
    }
    // Pass the wake on while work is still queued and peers sleep, so a
    // burst that woke one worker does not leave the others parked.
    if (parked_.load(std::memory_order_relaxed) != 0 && work_queued())
      wake_one();
    run(h);
  }
  t_worker_index = -1;
  t_worker_scheduler = nullptr;
}

}  // namespace pwf::rt
