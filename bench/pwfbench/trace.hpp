// Span recorder for the traced pass (`--trace=FILE`).
//
// Spans are recorded only by the benchmark's own code, around its calls into
// the runtime's public API. Each thread appends to its own buffer, reserved
// when the thread records its first span; a full buffer drops further spans
// and counts them, so recording never allocates per span and never blocks.
// With tracing off, record() is one relaxed load and a branch.
//
// A span is identified by (op, name): `op` is the request or batch id the
// span belongs to, and its parent is the span of the same op named `parent`.
// Spans whose interval crosses threads (a request travelling through
// sockets, fibers and the reactor) are marked async and written as nestable
// async slices keyed by op; same-thread spans are complete ("X") events.
// write_chrome() emits Chrome trace-event JSON, which Perfetto opens.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pwfb::trace {

enum Name : std::uint8_t {
  kNone,
  // serve_point: one async tree per request.
  kRequest,
  kGenLag,
  kIoWake,
  kServiceQueue,
  kIssue,
  kProbe,
  kIoReply,
  kMaterialize,
  // closed-loop writers: one tree per batch.
  kBatch,
  kRoute,
  kRebalance,
  kMaintain,
  kCompact,
  kFlush,
  // scan_mix reader: one tree per query.
  kQuery,
  kPin,
  kAggregate,
  kGet,
  kNames
};

const char* name_of(Name n);

struct Span {
  std::int64_t t0 = 0;  // steady_clock ns
  std::int64_t t1 = 0;
  std::uint64_t op = 0;
  Name name = kNone;
  Name parent = kNone;
  bool async = false;
  std::uint32_t thread = 0;  // recorder-buffer index
};

namespace detail {
extern std::atomic<bool> g_on;
void append(const Span& s);
}  // namespace detail

inline bool on() { return detail::g_on.load(std::memory_order_relaxed); }

inline void record(Name name, Name parent, std::uint64_t op, std::int64_t t0,
                   std::int64_t t1, bool async = false) {
  if (!on()) return;
  detail::append(Span{t0, t1, op, name, parent, async, 0});
}

// Labels the calling thread's track in the written trace.
void label_thread(const char* label);

// Start recording (per-thread capacity in spans) / stop recording.
void start(std::size_t per_thread_capacity);
void stop();

// Every span recorded since start(), and the number dropped on full buffers.
// Call only after every recording thread has stopped or been joined.
std::vector<Span> collect();
std::uint64_t dropped();

// Durations of spans named `n`, in microseconds.
std::vector<double> durations_us(const std::vector<Span>& spans, Name n);
// Self times of spans named `n`: duration minus the union of the intervals
// its child spans cover, in microseconds.
std::vector<double> self_us(const std::vector<Span>& spans, Name n);
// Sum of the durations of spans named `n`, in seconds.
double total_s(const std::vector<Span>& spans, Name n);

// Chrome trace-event JSON. Returns false if the file cannot be written.
bool write_chrome(const std::string& path, const std::vector<Span>& spans);

}  // namespace pwfb::trace
