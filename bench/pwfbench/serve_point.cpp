// serve_point — the user-facing request path end to end: reactor park and
// wake, batch chaining, probe and reply. E27's pipelined backend:
//
//   generator ──SOCK_SEQPACKET──▶ per-conn reader fibers (wait_readable)
//                                     │ FutCell-chained request queue
//                                     ▼
//                                 service fiber: insert_batch + probe_into
//                                     │
//   collector ◀─SOCK_SEQPACKET── reply fibers (co_await the probe cell)
//
// The index is an unsharded ParallelMap over a uniform base; every request
// upserts 16 uniform keys and probes its first key. The latency phase is an
// open loop at a fixed rate, timed from each request's scheduled send; the
// capacity phase is a closed loop with a fixed window per connection.
//
// The arena grows tens of KB per request and compact() cannot run while
// fibers are parked on it (FramePool::wait_quiescent waits for zero live
// frames), so the server runs in bounded segments, each with a fresh
// Scheduler and index. Every segment is checked against an oracle fold.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "bench/bench_util.hpp"
#include "runtime/future.hpp"
#include "runtime/io_awaiter.hpp"
#include "runtime/io_reactor.hpp"
#include "runtime/parallel_map.hpp"
#include "runtime/rt_async.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace pwfb {

namespace {

using namespace std::chrono_literals;
using Map = rt::ParallelMap<std::int64_t>;

constexpr unsigned kConns = 4;
constexpr std::uint32_t kBatchKeys = 16;
constexpr std::int64_t kRate = 2000;        // latency phase, requests/s
constexpr unsigned kWindow = 8;             // capacity phase, per connection
constexpr std::uint64_t kSampleEvery = 64;  // materialize samples, traced
constexpr double kMaxLagP99Us = 1000.0;     // open-loop validity limit
// Segment sizes bound the arena (and so peak RSS) of one index.
constexpr std::size_t kLatencySegmentReq = 3000;
constexpr std::size_t kCapacitySegmentReq = 3000;
// Capacity-phase requests per --seconds, sized on the reference host.
constexpr double kCapacityReqPerSecond = 2400.0;

// SOCK_SEQPACKET keeps record boundaries: one struct per send/recv.
struct WireReq {
  std::uint64_t seq = 0;
  std::uint32_t conn = 0;
  std::uint32_t pad = 0;
  std::int64_t sched_ns = 0;  // when the request was due
  std::int64_t sent_ns = 0;   // when the client sent it
  std::int64_t keys[kBatchKeys] = {};
};

// The reply echoes the request's timeline, so the collector alone computes
// every latency and records every span of the request.
struct WireRep {
  std::uint64_t seq = 0;
  std::int64_t sched_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;     // reader fiber's recv after wait_readable
  std::int64_t append_ns = 0;   // appended to the request queue
  std::int64_t dequeue_ns = 0;  // service fiber took it
  std::int64_t issue_ns = 0;    // insert_batch called
  std::int64_t issued_ns = 0;   // insert_batch returned; probe_into called
  std::int64_t probed_ns = 0;   // reply fiber resumed with the probe
  std::int64_t reply_ns = 0;    // reply sent
  std::uint32_t found = 0;
  std::uint32_t pad = 0;
};

struct QueueNode {
  WireReq req;
  std::int64_t recv_ns = 0;
  std::int64_t append_ns = 0;
  bool stop = false;
  rt::FutCell<QueueNode*> next;
};

struct Ctx {
  rt::IoReactor* reactor = nullptr;
  Map* map = nullptr;
  bool traced = false;
  std::vector<int> server_fds;

  // MPSC request queue: reader fibers append, the service fiber consumes.
  rt::FutCell<QueueNode*> head;
  std::mutex mu;
  rt::FutCell<QueueNode*>* tail = &head;  // guarded by mu

  std::atomic<int> readers_left{0};
  std::atomic<std::int64_t> outstanding{0};  // reply fibers in flight
  std::atomic<bool> service_done{false};

  void append(QueueNode* n) {
    std::lock_guard<std::mutex> lk(mu);
    n->append_ns = now_ns();
    tail->write(n);
    tail = &n->next;
  }
};

// Reader: parks on its connection, drains every queued record into the
// request queue, parks again. The last reader to see EOF appends the stop
// node; by then every record of every connection is queued.
rt::Fiber conn_reader(Ctx* ctx, int fd) {
  for (;;) {
    if (co_await rt::wait_readable(*ctx->reactor, fd) == 0) break;
    bool eof = false;
    for (;;) {
      auto* n = new QueueNode;
      const ssize_t got = ::recv(fd, &n->req, sizeof n->req, 0);
      if (got == static_cast<ssize_t>(sizeof n->req)) {
        n->recv_ns = now_ns();
        ctx->append(n);
        continue;
      }
      delete n;
      eof = !(got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      break;
    }
    if (eof) break;
  }
  if (ctx->readers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    auto* stop = new QueueNode;
    stop->stop = true;
    ctx->append(stop);
  }
}

struct ReplyCtx {
  Ctx* ctx = nullptr;
  int fd = -1;
  WireRep rep;
  rt::FutCell<rt::rtasync::Probe<std::int64_t>> cell;
};

// Awaits the probe the facade writes, then replies. A full socket buffer
// parks the fiber on a reactor timer: several reply fibers may share a
// connection, and fd parks allow one waiter per fd.
rt::Fiber reply_when_probed(ReplyCtx* c) {
  const rt::rtasync::Probe<std::int64_t> p = co_await c->cell;
  Ctx* ctx = c->ctx;
  const int fd = c->fd;
  WireRep rep = c->rep;
  delete c;
  rep.probed_ns = now_ns();
  rep.found = p.found && p.value >= 1 ? 1u : 0u;
  rep.reply_ns = now_ns();
  for (;;) {
    const ssize_t n = ::send(fd, &rep, sizeof rep, 0);
    if (n == static_cast<ssize_t>(sizeof rep)) break;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (!co_await rt::sleep_for(*ctx->reactor, 100us)) break;
      continue;
    }
    break;  // peer gone: the collector's stall check reports it
  }
  ctx->outstanding.fetch_sub(1, std::memory_order_acq_rel);
}

// The single mutator (the facade's one-mutator contract): chains each
// request's batch onto the still-materializing root and hands the probe to
// a reply fiber, then moves straight on to the next request.
rt::Fiber service_loop(Ctx* ctx) {
  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
  rt::FutCell<QueueNode*>* head = &ctx->head;
  QueueNode* prev = nullptr;
  std::vector<Item> items;
  for (;;) {
    QueueNode* n = co_await *head;
    const std::int64_t dequeue_ns = now_ns();
    delete prev;  // its next cell has been consumed
    prev = nullptr;
    if (n->stop) {
      delete n;
      break;
    }
    const WireReq& q = n->req;
    items.clear();
    for (std::int64_t k : q.keys) items.emplace_back(k, 1);
    auto* c = new ReplyCtx;
    c->ctx = ctx;
    c->fd = ctx->server_fds[q.conn];
    WireRep& rep = c->rep;
    rep.seq = q.seq;
    rep.sched_ns = q.sched_ns;
    rep.sent_ns = q.sent_ns;
    rep.recv_ns = n->recv_ns;
    rep.append_ns = n->append_ns;
    rep.dequeue_ns = dequeue_ns;
    rep.issue_ns = now_ns();
    ctx->map->insert_batch(items, add);
    rep.issued_ns = now_ns();
    if (ctx->traced && q.seq % kSampleEvery == 0)
      sample_materialize(*ctx->map, q.seq, rep.issue_ns);
    ctx->outstanding.fetch_add(1, std::memory_order_acq_rel);
    ctx->map->probe_into(q.keys[0], c->cell);
    rt::spawn(reply_when_probed(c));
    prev = n;
    head = &prev->next;
  }
  ctx->service_done.store(true, std::memory_order_release);
}

struct Segment {
  std::size_t first = 0;  // slice of the request pool
  std::size_t count = 0;
  bool open_loop = true;  // paced at kRate; else a closed loop of kWindow
  bool timed = true;
};

struct SegmentOut {
  double setup_s = 0.0;
  double wall_s = 0.0;          // first send to last reply
  double cpu_s = 0.0;           // process CPU over the timed part
  std::vector<double> lat_ms;   // by request; open: from scheduled send,
                                // closed: from actual send
  std::vector<double> lag_us;   // open loop: actual send - scheduled send
  std::uint64_t replies = 0;
  std::uint64_t not_found = 0;
  bool drained = false;
  bool oracle_ok = false;
  std::uint64_t arena_growth = 0;  // bytes, over the segment's requests
  std::uint64_t batches = 0;       // batches chained during the segment
  std::uint64_t overlapped = 0;
  double internal_frac = 0.0;
};

// The generator and the collector stand for clients on other machines. At
// the highest nice priority the server's own threads cannot delay a send or
// a receipt: on a 4-vCPU host, a default-priority thread that sleeps until
// a deadline every 500 us beside three busy threads woke up to 1 ms late at
// p99, against 21 us at nice -20. Without the privilege to raise it, the
// thread keeps its priority. The CPU time a client thread spends is added
// to `cpu_ns` when it ends, so the run can leave it out of the server's.
class ClientThread {
 public:
  explicit ClientThread(std::atomic<std::int64_t>& cpu_ns) : cpu_ns_(cpu_ns) {
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -20);
  }
  ~ClientThread() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    cpu_ns_ += std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
  }
  ClientThread(const ClientThread&) = delete;
  ClientThread& operator=(const ClientThread&) = delete;

 private:
  std::atomic<std::int64_t>& cpu_ns_;
};

// Busy-waits until `due_ns`. A sleeping generator lets its vCPU halt, and a
// halted vCPU of a virtual machine runs again only when the hypervisor
// schedules it: on a loaded 4-vCPU KVM guest, a sleeping generator at nice
// -20 sent 1% of requests 1 to 11 ms late in 5 of 8 runs, a spinning one in
// 2 of 8.
void spin_until(std::int64_t due_ns) {
  while (now_ns() < due_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
}

void record_request_spans(const WireRep& rep, std::int64_t done_ns) {
  using namespace trace;
  const std::uint64_t op = rep.seq;
  record(kRequest, kNone, op, rep.sched_ns, done_ns, true);
  record(kGenLag, kRequest, op, rep.sched_ns, rep.sent_ns, true);
  record(kIoWake, kRequest, op, rep.sent_ns, rep.recv_ns, true);
  record(kServiceQueue, kRequest, op, rep.append_ns, rep.dequeue_ns, true);
  record(kIssue, kRequest, op, rep.issue_ns, rep.issued_ns, true);
  record(kProbe, kRequest, op, rep.issued_ns, rep.probed_ns, true);
  record(kIoReply, kRequest, op, rep.reply_ns, done_ns, true);
}

SegmentOut run_segment(const Segment& seg, const std::vector<WireReq>& pool,
                       const std::vector<Item>& base_items,
                       const Keys& base_keys, bool traced, PhaseMeter* meter) {
  // ctx and the fds outlive the scheduler scope: every fiber that uses them
  // is drained (or cancelled by the reactor's shutdown) before they go.
  Ctx ctx;
  ctx.traced = traced;
  std::vector<int> client_fds;
  for (unsigned c = 0; c < kConns; ++c) {
    int sv[2];
    PWF_CHECK(::socketpair(AF_UNIX,
                           SOCK_SEQPACKET | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                           sv) == 0);
    ctx.server_fds.push_back(sv[0]);
    client_fds.push_back(sv[1]);
  }
  ctx.readers_left.store(static_cast<int>(kConns));
  const auto first = pool.begin() + static_cast<std::ptrdiff_t>(seg.first);
  std::vector<WireReq> reqs(first,
                            first + static_cast<std::ptrdiff_t>(seg.count));
  SegmentOut out;
  out.lat_ms.assign(reqs.size(), 0.0);
  if (seg.open_loop) out.lag_us.reserve(reqs.size());
  {
    const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
    const auto t_setup = Clock::now();
    rt::Scheduler sched(kWorkers);
    auto map = std::make_unique<Map>(sched);
    map->insert_batch(base_items, add);
    map->flush();
    rt::FramePool::wait_quiescent();
    ctx.map = map.get();
    ctx.reactor = &sched.reactor();
    for (int fd : ctx.server_fds) rt::spawn(conn_reader(&ctx, fd));
    rt::spawn(service_loop(&ctx));
    out.setup_s = seconds_since(t_setup);
    const Map::Stats st0 = map->stats();

    if (meter != nullptr) meter->begin(sched);
    const std::int64_t t0 = now_ns();
    const std::int64_t interval_ns = 1000000000 / kRate;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      reqs[i].sched_ns = t0 + static_cast<std::int64_t>(i) * interval_ns;
    std::int64_t last_done = t0;
    bool stalled = false;
    std::atomic<std::int64_t> client_cpu_ns{0};

    const auto send_req = [&](WireReq& q) {
      const int fd = client_fds[q.conn];
      for (;;) {
        q.sent_ns = now_ns();
        if (!seg.open_loop) q.sched_ns = q.sent_ns;
        const ssize_t n = ::send(fd, &q, sizeof q, 0);
        if (n == static_cast<ssize_t>(sizeof q)) return;
        if (n < 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
          std::this_thread::sleep_for(50us);
          continue;
        }
        return;  // server gone: the stall check reports it
      }
    };

    // Closed loop: the collector is the client. Each connection keeps
    // kWindow requests outstanding and sends its next one per reply.
    std::vector<std::vector<std::size_t>> per_conn(kConns);
    std::vector<std::size_t> next_of(kConns, 0);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      per_conn[reqs[i].conn].push_back(i);
    const auto send_next = [&](unsigned c) {
      if (next_of[c] == per_conn[c].size()) return;
      send_req(reqs[per_conn[c][next_of[c]++]]);
      if (next_of[c] == per_conn[c].size()) ::shutdown(client_fds[c], SHUT_WR);
    };

    std::thread collector([&] {
      const ClientThread client(client_cpu_ns);
      trace::label_thread("collector");
      if (!seg.open_loop)
        for (unsigned c = 0; c < kConns; ++c)
          for (unsigned w = 0; w < kWindow; ++w) send_next(c);
      std::vector<pollfd> pfds;
      for (int fd : client_fds) pfds.push_back({fd, POLLIN, 0});
      auto last_progress = Clock::now();
      while (out.replies < reqs.size()) {
        if (Clock::now() - last_progress > 30s) {
          stalled = true;
          return;
        }
        ::poll(pfds.data(), pfds.size(), 100);
        for (unsigned c = 0; c < kConns; ++c) {
          if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          for (;;) {
            WireRep rep;
            const ssize_t n = ::recv(pfds[c].fd, &rep, sizeof rep, 0);
            if (n != static_cast<ssize_t>(sizeof rep)) break;
            const std::int64_t done = now_ns();
            last_done = std::max(last_done, done);
            ++out.replies;
            if (rep.found == 0) ++out.not_found;
            out.lat_ms[rep.seq - seg.first] =
                static_cast<double>(done - rep.sched_ns) / 1e6;
            if (seg.open_loop)
              out.lag_us.push_back(
                  static_cast<double>(rep.sent_ns - rep.sched_ns) / 1e3);
            if (traced) record_request_spans(rep, done);
            if (!seg.open_loop) send_next(c);
            last_progress = Clock::now();
          }
        }
      }
    });

    if (seg.open_loop) {
      std::thread generator([&] {
        const ClientThread client(client_cpu_ns);
        for (WireReq& q : reqs) {
          spin_until(q.sched_ns);
          send_req(q);
        }
        for (int fd : client_fds) ::shutdown(fd, SHUT_WR);
      });
      generator.join();
    }
    collector.join();

    // Drain: the service fiber sees the stop node, reply fibers finish.
    const auto deadline = Clock::now() + 30s;
    while ((!ctx.service_done.load(std::memory_order_acquire) ||
            ctx.outstanding.load(std::memory_order_acquire) != 0 ||
            ctx.readers_left.load(std::memory_order_acquire) != 0) &&
           Clock::now() < deadline)
      std::this_thread::yield();
    out.wall_s = static_cast<double>(last_done - t0) / 1e9;
    // Server CPU: the process's, less what the client threads spent.
    if (meter != nullptr)
      out.cpu_s = meter->end(sched).cpu_s -
                  static_cast<double>(client_cpu_ns.load()) / 1e9;
    out.drained = !stalled && out.replies == reqs.size() &&
                  ctx.service_done.load() && ctx.outstanding.load() == 0;

    const Map::Stats st1 = map->stats();
    out.arena_growth = st1.arena_bytes - st0.arena_bytes;
    out.batches = st1.batches - st0.batches;
    out.overlapped = st1.overlapped - st0.overlapped;
    if (out.drained) {
      if (traced) {
        const Map::CacheEconomy ce = map->cache_economy();
        out.internal_frac =
            static_cast<double>(ce.internal_nodes) /
            static_cast<double>(ce.internal_nodes + ce.leaf_keys);
      }
      std::vector<Item> deltas;
      deltas.reserve(reqs.size() * kBatchKeys);
      for (const WireReq& q : reqs)
        for (std::int64_t k : q.keys) deltas.emplace_back(k, 1);
      out.oracle_ok =
          map->items() == additive_fold(base_keys, std::move(deltas));
    }
    map.reset();  // the facade dies before its scheduler
  }
  for (int fd : ctx.server_fds) ::close(fd);
  for (int fd : client_fds) ::close(fd);
  return out;
}

}  // namespace

void run_serve_point(const Options& o, const ProcessCounters& pc, Result& r) {
  const std::size_t base_n = o.smoke ? 1 << 12 : 1 << 18;
  // Latency phase: open loop at kRate for 0.6 of the run, in segments.
  const auto lat_req = static_cast<std::size_t>(
      o.smoke ? 400 : std::llround(0.6 * o.seconds * kRate));
  const std::size_t lat_segments =
      std::max<std::size_t>(1, (lat_req + kLatencySegmentReq - 1) /
                                   kLatencySegmentReq);
  // Capacity phase: a fixed number of requests in a closed loop.
  const auto cap_req = static_cast<std::size_t>(
      o.smoke ? 400 : std::llround(o.seconds * kCapacityReqPerSecond));
  const std::size_t cap_segments =
      std::max<std::size_t>(1, (cap_req + kCapacitySegmentReq - 1) /
                                   kCapacitySegmentReq);
  const std::size_t lat_seg = lat_req / lat_segments;
  const std::size_t cap_seg = cap_req / cap_segments;
  const std::size_t warm = o.smoke ? 100 : 1000;

  r.param("base_keys", static_cast<double>(base_n));
  r.param("batch_keys", kBatchKeys);
  r.param("connections", kConns);
  r.param("workers", kWorkers);
  r.param("rate_rps", static_cast<double>(kRate));
  r.param("latency_segments", static_cast<double>(lat_segments));
  r.param("latency_segment_requests", static_cast<double>(lat_seg));
  r.param("capacity_window_per_conn", kWindow);
  r.param("capacity_segments", static_cast<double>(cap_segments));
  r.param("capacity_segment_requests", static_cast<double>(cap_seg));
  r.param("warmup_requests", static_cast<double>(warm));

  // Inputs, generated off the clock.
  const Keys base_keys =
      pwf::bench::random_keys(base_n, o.seed * 7919 + 1);
  std::vector<Item> base_items;
  for (Key k : base_keys) base_items.emplace_back(k, 1);
  std::vector<Segment> plan;
  std::size_t next = 0;
  const auto add_segment = [&](std::size_t n, bool open, bool timed) {
    plan.push_back({next, n, open, timed});
    next += n;
  };
  add_segment(warm, true, false);
  for (std::size_t i = 0; i < lat_segments; ++i)
    add_segment(lat_seg, true, true);
  add_segment(warm, false, false);
  for (std::size_t i = 0; i < cap_segments; ++i)
    add_segment(cap_seg, false, true);
  std::vector<WireReq> pool(next);
  pwf::Rng rng(o.seed * 104729 + 3);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].seq = i;
    pool[i].conn = static_cast<std::uint32_t>(i % kConns);
    for (std::int64_t& k : pool[i].keys) k = rng.range(0, (1 << 28) - 1);
  }

  PhaseMeter meter(pc);
  RoundStats stats;
  std::vector<double> lat_ms, lag_us;
  std::uint64_t timed_req = 0, arena_growth = 0, batches = 0, overlapped = 0;
  double internal_frac = 0.0, cpu_s = 0.0;
  // Timed open-loop requests: after the first warm-up segment, before the
  // capacity phase's.
  const std::size_t first_latency_op = plan[1].first;
  const std::size_t first_capacity_op = plan[lat_segments + 1].first;
  for (const Segment& seg : plan) {
    if (seg.timed) stats.probe_host();
    const SegmentOut s = run_segment(seg, pool, base_items, base_keys,
                                     o.traced, seg.timed ? &meter : nullptr);
    stats.setup(s.setup_s);
    r.attempted += seg.count;
    r.failed += (seg.count - s.replies) + s.not_found;
    const std::string name = std::string(seg.open_loop ? "open" : "closed") +
                             "-loop segment " + std::to_string(seg.first);
    r.check(name + ": every reply arrived and found its probe key",
            s.drained && s.not_found == 0);
    r.check(name + ": final index equals the oracle fold", s.oracle_ok);
    if (!seg.timed) continue;
    timed_req += seg.count;
    arena_growth += s.arena_growth;
    batches += s.batches;
    overlapped += s.overlapped;
    if (s.internal_frac > 0.0) internal_frac = s.internal_frac;
    cpu_s += s.cpu_s;
    if (seg.open_loop) {
      stats.latency(s.lat_ms);
      lat_ms.insert(lat_ms.end(), s.lat_ms.begin(), s.lat_ms.end());
      lag_us.insert(lag_us.end(), s.lag_us.begin(), s.lag_us.end());
    } else {
      stats.throughput(static_cast<double>(s.replies * kBatchKeys), s.wall_s);
    }
  }

  // A generator that ran late did not offer the load on schedule: a stalled
  // host quietly turns an open loop into a closed one. Such a run is invalid.
  const double lag_p99 = quantile(lag_us, 0.99);
  r.check("open loop: generator lag p99 " + std::to_string(lag_p99) +
              " us <= 1000 us",
          lag_p99 <= kMaxLagP99Us);
  const double keys = static_cast<double>(timed_req * kBatchKeys);
  stats.cpu(cpu_s, keys);
  r.counter("gen.lag_us_p50", quantile(lag_us, 0.50));
  r.counter("gen.lag_us_p99", lag_p99);
  stats.report(r);
  r.counter("max_rps", r.metric_value("keys_per_s") / kBatchKeys);
  report_phase(r, meter, keys, static_cast<double>(timed_req),
               static_cast<double>(timed_req), o.traced);
  if (!o.traced) return;

  // Per-layer numbers come from the latency phase, whose requests arrive on
  // schedule; the capacity phase's spans stay in the trace file.
  r.spans = trace::collect();
  Result lat;
  for (const trace::Span& s : r.spans)
    if (s.op >= first_latency_op && s.op < first_capacity_op)
      lat.spans.push_back(s);
  double total_latency_s = 0.0;
  for (double v : lat_ms) total_latency_s += v / 1e3;
  report_span(lat, "parallel_map.issue_us", trace::kIssue);
  report_span(lat, "parallel_map.probe_us", trace::kProbe);
  report_span(lat, "io_reactor.wake_us", trace::kIoWake);
  report_span(lat, "io_reactor.reply_us", trace::kIoReply);
  report_span(lat, "service.queue_us", trace::kServiceQueue);
  report_self(lat, "request.self_us", trace::kRequest);
  report_span(r, "parallel_map.materialize_us", trace::kMaterialize);
  for (Metric& m : lat.layers) r.layers.push_back(m);
  r.layer("gen.lag_us_p99", lag_p99, "us");
  r.layer("parallel_map.issue_share",
          span_share(lat, trace::kIssue, total_latency_s), "fraction");
  r.layer("parallel_map.probe_share",
          span_share(lat, trace::kProbe, total_latency_s), "fraction");
  r.layer("io_reactor.wake_share",
          span_share(lat, trace::kIoWake, total_latency_s), "fraction");
  r.layer("io_reactor.reply_share",
          span_share(lat, trace::kIoReply, total_latency_s), "fraction");
  r.layer("service.queue_share",
          span_share(lat, trace::kServiceQueue, total_latency_s), "fraction");
  r.layer("parallel_map.overlapped_frac",
          static_cast<double>(overlapped) / static_cast<double>(batches),
          "fraction");
  r.layer("treap.internal_node_frac", internal_frac, "fraction");
  r.layer("treap.arena_bytes_per_key",
          static_cast<double>(arena_growth) / keys, "B/key");
}

}  // namespace pwfb
