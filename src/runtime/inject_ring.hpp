// Bounded lock-free ring for the scheduler's injection queue (posts from
// non-worker threads: test mains, facades, blocking joins that repost, and
// the I/O reactor thread reposting fibers whose fd/timer became ready —
// io_reactor.cpp pushes here on every wakeup, so the ring is on the
// latency path of the E27 server harness).
//
// Producers are any external threads, consumers are all workers, so this is
// Vyukov's bounded MPMC queue: each slot carries a sequence number that
// encodes whose turn the slot is — a producer may fill slot i when
// `seq == i`, a consumer may drain it when `seq == i + 1`, and each party
// bumps the sequence past the other when done. One CAS per operation,
// no locks, and full/empty are detected without sweeping the ring.
//
// `push` returns false when the ring is full; the Scheduler falls back to
// its mutex+vector overflow path and counts the event in Stats — the ring
// bounds memory, the fallback preserves the unbounded-queue semantics the
// tests rely on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "support/check.hpp"

namespace pwf::rt {

class InjectRing {
 public:
  explicit InjectRing(std::size_t capacity) : mask_(capacity - 1) {
    PWF_CHECK_MSG(capacity >= 2 && (capacity & mask_) == 0,
                  "ring capacity must be a power of two");
    slots_ = std::make_unique<Slot[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  InjectRing(const InjectRing&) = delete;
  InjectRing& operator=(const InjectRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // False when the ring is full (caller takes the overflow path).
  bool push(void* value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = value;
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        // The slot one lap back has not been drained: full.
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Approximate: a slot claimed but not yet filled counts as queued.
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // Nullptr when empty.
  void* pop() {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          void* value = slot.value;
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return value;
        }
      } else if (diff < 0) {
        return nullptr;  // next slot not yet produced: empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::size_t> seq;
    void* value;
  };

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producers claim here
  alignas(64) std::atomic<std::size_t> head_{0};  // consumers claim here
};

}  // namespace pwf::rt
