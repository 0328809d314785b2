#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace pwfb::trace {

namespace {

constexpr const char* kNameTable[] = {
    "none",
    "request",
    "gen.lag",
    "io_reactor.wake",
    "service.queue",
    "parallel_map.issue",
    "parallel_map.probe",
    "io_reactor.reply",
    "parallel_map.materialize",
    "batch",
    "sharded_map.route",
    "sharded_map.rebalance",
    "sharded_map.maintain",
    "parallel_map.compact",
    "parallel_map.flush",
    "query",
    "snapshot.pin",
    "snapshot.aggregate",
    "parallel_map.get",
};
static_assert(std::size(kNameTable) == kNames, "one name per trace::Name");

struct Buffer {
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  std::string label;
};

// Buffers outlive their threads (scheduler workers exit at every segment),
// so the registry owns them; a thread only caches a pointer to its own.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mu
  std::size_t capacity = 0;                      // guarded by mu
  // Bumped by start(): a thread that outlived an earlier start() drops its
  // cached pointer into the cleared registry.
  std::atomic<std::uint64_t> generation{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

struct Local {
  Buffer* buf = nullptr;
  std::uint32_t index = 0;
  std::uint64_t generation = ~std::uint64_t{0};
  const char* label = nullptr;
};
thread_local Local t_local;

Buffer* local_buffer() {
  Registry& r = registry();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (t_local.buf != nullptr && t_local.generation == gen) return t_local.buf;
  std::lock_guard<std::mutex> lk(r.mu);
  auto b = std::make_unique<Buffer>();
  b->spans.reserve(r.capacity);
  if (t_local.label != nullptr) b->label = t_local.label;
  t_local.buf = b.get();
  t_local.index = static_cast<std::uint32_t>(r.buffers.size());
  t_local.generation = gen;
  r.buffers.push_back(std::move(b));
  return t_local.buf;
}

}  // namespace

namespace detail {
std::atomic<bool> g_on{false};

void append(const Span& s) {
  Buffer* b = local_buffer();
  if (b->spans.size() == b->spans.capacity()) {
    ++b->dropped;
    return;
  }
  Span rec = s;
  rec.thread = t_local.index;
  b->spans.push_back(rec);
}
}  // namespace detail

const char* name_of(Name n) { return kNameTable[n]; }

void label_thread(const char* label) { t_local.label = label; }

void start(std::size_t per_thread_capacity) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    r.buffers.clear();
    r.capacity = per_thread_capacity;
    r.generation.fetch_add(1, std::memory_order_acq_rel);
  }
  detail::g_on.store(true, std::memory_order_release);
}

void stop() { detail::g_on.store(false, std::memory_order_release); }

std::vector<Span> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<Span> out;
  for (const auto& b : r.buffers)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::uint64_t dropped() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.buffers) n += b->dropped;
  return n;
}

std::vector<double> durations_us(const std::vector<Span>& spans, Name n) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == n) out.push_back(static_cast<double>(s.t1 - s.t0) / 1e3);
  return out;
}

double total_s(const std::vector<Span>& spans, Name n) {
  double sum = 0.0;
  for (const Span& s : spans)
    if (s.name == n) sum += static_cast<double>(s.t1 - s.t0) / 1e9;
  return sum;
}

std::vector<double> self_us(const std::vector<Span>& spans, Name n) {
  // Child intervals of every (op, parent-name) pair whose parent is `n`.
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      kids;
  for (const Span& s : spans)
    if (s.parent == n) kids[s.op].emplace_back(s.t0, s.t1);
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != n) continue;
    std::int64_t covered = 0;
    auto it = kids.find(s.op);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = s.t0, hi = s.t0;  // merged run, clipped to the parent
      for (auto [a, b] : iv) {
        a = std::clamp(a, s.t0, s.t1);
        b = std::clamp(b, s.t0, s.t1);
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    out.push_back(static_cast<double>(s.t1 - s.t0 - covered) / 1e3);
  }
  return out;
}

bool write_chrome(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans) base = std::min(base, s.t0);
  const auto us = [base](std::int64_t t) {
    return static_cast<double>(t - base) / 1e3;
  };
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (std::size_t i = 0; i < r.buffers.size(); ++i) {
      const std::string& label = r.buffers[i]->label;
      sep();
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                   "\"tid\":%zu,\"args\":{\"name\":\"%s-%zu\"}}",
                   i, label.empty() ? "worker" : label.c_str(), i);
    }
  }
  for (const Span& s : spans) {
    const char* parent = s.parent == kNone ? "" : name_of(s.parent);
    if (s.async) {
      // Nestable async slices keyed by (category, op): a root and its
      // children share the root's name as category, so they nest on one
      // track by time.
      const char* cat = name_of(s.parent == kNone ? s.name : s.parent);
      for (int end = 0; end < 2; ++end) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"%s\",\"cat\":\"%s\",\"name\":\"%s\","
                     "\"id\":\"0x%" PRIx64 "\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"args\":{\"op\":%" PRIu64
                     ",\"parent\":\"%s\"}}",
                     end ? "e" : "b", cat, name_of(s.name), s.op, s.thread,
                     us(end ? s.t1 : s.t0), s.op, parent);
      }
    } else {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                   ",\"parent\":\"%s\"}}",
                   name_of(s.name), s.thread, us(s.t0),
                   static_cast<double>(s.t1 - s.t0) / 1e3, s.op, parent);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pwfb::trace
