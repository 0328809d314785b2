// Write-once future cells with coroutine suspension — the runtime's
// counterpart of the paper's future cells.
//
//   * `co_await cell` is the touch operation: if the value is present it
//     continues immediately; otherwise the coroutine parks itself *in the
//     cell* (an intrusive waiter node living in the awaiter, which sits in
//     the suspended frame) — O(1), no allocation.
//   * `cell.write(v)` is the write: publishes the value and reposts every
//     parked waiter to the scheduler — the paper's immediate reactivation.
//   * Cells are written at most once (checked); linear programs also read
//     them at most once, but the waiter list supports any number of readers
//     (the general, non-linear model of Section 2).
//
// The cell is a single atomic word: kEmpty, a pointer to the waiter list, or
// kWritten. External (non-worker) threads can block on a cell with
// wait_blocking(), used by benches to join a whole computation.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <type_traits>

#include "runtime/scheduler.hpp"
#include "support/check.hpp"

// Opt-in runtime checker (-DPWF_ANALYZE=ON): every preset/write/touch/park
// is logged and audited at Scheduler shutdown (see src/analyze and
// docs/analysis.md). Compiles to nothing when the option is off.
#if PWF_ANALYZE
#include "analyze/rt_recorder.hpp"
#define PWF_RT_RECORD(kind, cell) \
  ::pwf::rt::analyze::record(::pwf::rt::analyze::Ev::kind, (cell))
#else
#define PWF_RT_RECORD(kind, cell) ((void)0)
#endif

namespace pwf::rt {

template <typename T>
class FutCell {
  static_assert(std::is_trivially_copyable_v<T>,
                "cells carry pointer-like values, as in the paper");

  static constexpr std::uintptr_t kEmpty = 0;
  static constexpr std::uintptr_t kWritten = 1;
  // Set by wait_blocking() to announce a blocked external thread; travels in
  // the same atomic word as the waiter-list pointer (frames are ≥8-aligned,
  // so the low bits of a Waiter* are free). The writer learns about blocked
  // threads from the value its publishing exchange returns — no separate
  // flag read after publication, when the joined cell may already be freed.
  static constexpr std::uintptr_t kBlocked = 2;

  struct Waiter {
    std::coroutine_handle<> handle;
    Waiter* next = nullptr;
  };

 public:
  // The carried value type (generic walks — rt_async.hpp — recover the
  // node type from a cell pointer through this).
  using value_type = T;

#if PWF_ANALYZE
  // Cells are arena/stack allocated, so one address can host several cell
  // incarnations; the recorder uses creates to keep them apart.
  FutCell() { PWF_RT_RECORD(kCreate, this); }
#else
  FutCell() = default;
#endif
  FutCell(const FutCell&) = delete;
  FutCell& operator=(const FutCell&) = delete;

  // Input data: mark written before any concurrent access. A cell that is
  // already written (double preset / preset-after-write) or already has a
  // parked reader would be silently corrupted, so both abort.
  void preset(T v) {
    PWF_RT_RECORD(kPreset, this);
    value_ = v;
    const std::uintptr_t old =
        state_.exchange(kWritten, std::memory_order_release);
    PWF_CHECK_MSG(old == kEmpty,
                  "preset of a non-empty cell (already written or a reader "
                  "is already waiting)");
  }

  bool written() const {
    return state_.load(std::memory_order_acquire) == kWritten;
  }

  // The write action. Publishes the value, then reactivates all waiters.
  void write(T v) {
    PWF_RT_RECORD(kWrite, this);
    value_ = v;
    const std::uintptr_t old =
        state_.exchange(kWritten, std::memory_order_acq_rel);
    PWF_CHECK_MSG(old != kWritten, "future cell written twice");
    // The exchange that published the value also collected the kBlocked
    // announcement, so the futex wake is issued only when some thread is
    // (or was) inside wait_blocking(). Almost every cell is consumed by
    // parked fibers, not blocked threads — skipping the syscall on those
    // keeps the hot write path cheap.
    if (old & kBlocked) state_.notify_all();
    Waiter* w = reinterpret_cast<Waiter*>(old & ~kBlocked);
    if (w != nullptr) {
      // Resolve the scheduler once for the whole repost loop — this is the
      // hot write path, and a long waiter list should not pay one atomic
      // load of the global per waiter. Writes may come from worker fibers,
      // external threads, or fibers running on the reactor thread during
      // its shutdown drain (io_reactor.cpp) — all of them repost through
      // post(), whose fence-audited Dekker handshake covers the non-worker
      // cases.
      Scheduler* s = Scheduler::current();
      PWF_CHECK(s != nullptr);
      do {
        Waiter* next = w->next;  // w may die the instant its coroutine runs
        s->post(w->handle);
        w = next;
      } while (w != nullptr);
    }
  }

  struct Awaiter {
    FutCell& cell;
    Waiter node;

    bool await_ready() const {
      return cell.state_.load(std::memory_order_acquire) == kWritten;
    }
    bool await_suspend(std::coroutine_handle<> h) {
      node.handle = h;
      // The successful CAS publishes the waiter: from that instant another
      // worker may resume and destroy this coroutine frame — and the
      // awaiter (with its `cell` reference) lives in the frame. Anything
      // needed after publication must be copied out first.
      FutCell* const c = &cell;
      std::uintptr_t s = c->state_.load(std::memory_order_acquire);
      for (;;) {
        if (s == kWritten) return false;  // written meanwhile: keep running
        node.next = reinterpret_cast<Waiter*>(s & ~kBlocked);
        if (c->state_.compare_exchange_weak(
                s, reinterpret_cast<std::uintptr_t>(&node) | (s & kBlocked),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          PWF_RT_RECORD(kPark, c);
          return true;  // parked; the writer will repost us
        }
      }
    }
    T await_resume() const {
      PWF_RT_RECORD(kTouch, &cell);
      return cell.value_;
    }
  };

  Awaiter operator co_await() { return Awaiter{*this, {}}; }

  // A touch that always suspends: it parks the coroutine in the cell, or
  // posts it to the scheduler if the cell is already written. A thread can
  // therefore start a coroutine whose first step is this touch without
  // running any of the rest of it (RtExec::fork_after).
  struct ParkOrPost : Awaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      // Awaiter::await_suspend uses nothing of the frame once it has
      // published the waiter; only its verdict is read here.
      if (!Awaiter::await_suspend(h)) {
        Scheduler* s = Scheduler::current();
        PWF_CHECK(s != nullptr);
        s->post(h);
      }
    }
  };

  ParkOrPost park_or_post() { return ParkOrPost{{*this, {}}}; }

  // Blocking read for external threads (joins a computation from main).
  T wait_blocking() const {
    // Announce the blocked thread by folding kBlocked into the state word
    // (kept across waiter-list pushes by await_suspend). The CAS and the
    // writer's exchange hit the same word, so either the writer's exchange
    // returns the bit and it notifies, or our CAS fails against kWritten and
    // we never sleep — no separate flag, no fences.
    std::uintptr_t s = state_.load(std::memory_order_acquire);
    while (s != kWritten && !(s & kBlocked)) {
      if (state_.compare_exchange_weak(s, s | kBlocked,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        s |= kBlocked;
      }
    }
    for (;;) {
      if (s == kWritten) return value_;
      state_.wait(s, std::memory_order_acquire);
      s = state_.load(std::memory_order_acquire);
    }
  }

  // Post-completion access (analysis/validation, mirrors cm peek).
  T peek() const {
    PWF_CHECK_MSG(written(), "peek of unwritten cell");
    return value_;
  }

 private:
  // mutable: wait_blocking() is a const read, but announces itself by
  // setting kBlocked in the word.
  mutable std::atomic<std::uintptr_t> state_{kEmpty};
  T value_{};
};

}  // namespace pwf::rt
