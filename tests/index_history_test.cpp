// Seeded history checker for the batch service: one mutator runs a seeded
// stream of batches and compactions while two reader threads read, and every
// read is checked against a sequential std::map spec of the same stream.
//
//   * A snapshot's items and aggregate equal the spec after exactly one batch
//     prefix p, with before <= p <= after: `before` counts the batch calls
//     that had returned when the read began, `after` the calls that had begun
//     when its pin was taken (for snapshot() and probe_into() the pin is taken
//     before the call returns; get() and aggregate() pin and wait inside).
//   * A point read (get, probe_into) equals the spec's value at such a prefix;
//     a live aggregate equals the spec's range sum at one.
//   * A reader's prefixes never go backwards. The unsharded index has one
//     root, so this holds across all of a reader's reads; a sharded batch
//     reaches its shards one after another, so there it holds per key.
//
// This is the service-level form of the paper's determinacy argument: however
// the scheduler interleaves the pipelined unions, every pinned root holds
// exactly one prefix of the batch sequence. ParallelMapFold.* pins the same
// rules deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/future.hpp"
#include "runtime/parallel_map.hpp"
#include "runtime/rt_async.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sharded_map.hpp"
#include "support/random.hpp"

namespace pwf::rt {
namespace {

using Key = std::int64_t;
using Value = std::int64_t;
using Item = std::pair<Key, Value>;
using SumAug = pipelined::treap::SumAug<Value>;
using Opt = std::optional<Value>;

constexpr Key kKeys = 1 << 12;
constexpr std::size_t kOps = 2000;

const auto kAdd = [](Value a, Value b) { return a + b; };

// One mutator call of the stream. Compactions are not batches: they leave
// the prefix where it is.
struct Op {
  enum Kind { kInsert, kErase, kAssign, kCompact } kind = kInsert;
  std::vector<Item> items;  // insert, assign
  std::vector<Key> keys;    // erase
  std::uint64_t shard = 0;  // compact: which shard, modulo the shard count
};

std::vector<Op> make_stream(std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  std::vector<Op> ops(kOps);
  for (Op& op : ops) {
    const std::uint64_t r = rng.below(100);
    if (r < 45) {  // 1–300 keys: groups cross the 128-key serial threshold
      op.kind = Op::kInsert;
      const std::size_t n = 1 + rng.below(300);
      for (std::size_t i = 0; i < n; ++i)
        op.items.emplace_back(rng.range(0, kKeys - 1),
                              static_cast<Value>(1 + rng.below(100)));
    } else if (r < 65) {
      op.kind = Op::kErase;
      const std::size_t n = 1 + rng.below(64);
      for (std::size_t i = 0; i < n; ++i)
        op.keys.push_back(rng.range(0, kKeys - 1));
    } else if (r < 97) {  // few distinct keys: most repeat within the batch
      op.kind = Op::kAssign;
      const std::size_t n = 2 + rng.below(96);
      std::vector<Key> pool;
      for (std::size_t i = 0; i < 1 + n / 3; ++i)
        pool.push_back(rng.range(0, kKeys - 1));
      for (std::size_t i = 0; i < n; ++i)
        op.items.emplace_back(pool[rng.below(pool.size())],
                              static_cast<Value>(rng.below(1000)));
    } else {
      op.kind = Op::kCompact;
      op.shard = rng.next();
    }
  }
  return ops;
}

std::uint64_t mix(Key k, Value v) {
  std::uint64_t x = static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL ^
                    static_cast<std::uint64_t>(v);
  return splitmix64(x) | 1;  // never 0: a present key always counts
}

// The sequential spec: every key's value after each batch prefix, each
// prefix's changes, and an order-free hash of each prefix's contents.
class Spec {
 public:
  Spec(const std::vector<Item>& base, const std::vector<Op>& ops)
      : hist_(kKeys) {
    std::vector<Opt> cur(kKeys);
    for (const auto& [k, v] : base) cur[k] = v;
    std::uint64_t h = 0;
    for (Key k = 0; k < kKeys; ++k) {
      hist_[k].push_back({0, cur[k]});
      if (cur[k]) h += mix(k, *cur[k]);
    }
    hash_.push_back(h);
    delta_.emplace_back();
    for (const Op& op : ops) {
      if (op.kind == Op::kCompact) continue;
      const std::size_t p = hash_.size();
      std::map<Key, Opt> next;  // this batch's effect, merged in input order
      if (op.kind == Op::kErase) {
        for (Key k : op.keys) next[k] = std::nullopt;
      } else {
        for (const auto& [k, v] : op.items) {
          auto it = next.find(k);
          const Opt old = it != next.end() ? it->second : cur[k];
          next[k] = op.kind == Op::kAssign || !old ? v : *old + v;
        }
      }
      std::vector<Change> changes;
      for (const auto& [k, v] : next) {
        if (cur[k] == v) continue;
        changes.push_back({k, cur[k], v});
        if (cur[k]) h -= mix(k, *cur[k]);
        if (v) h += mix(k, *v);
        cur[k] = v;
        hist_[k].push_back({p, v});
      }
      delta_.push_back(std::move(changes));
      hash_.push_back(h);
    }
  }

  std::size_t batches() const { return hash_.size() - 1; }

  Opt at(Key k, std::size_t p) const {
    const auto& h = hist_[k];
    auto it = std::upper_bound(
        h.begin(), h.end(), p,
        [](std::size_t q, const Point& e) { return q < e.p; });
    return std::prev(it)->v;
  }

  std::vector<Item> items_at(std::size_t p) const {
    std::vector<Item> out;
    for (Key k = 0; k < kKeys; ++k)
      if (const Opt v = at(k, p)) out.emplace_back(k, *v);
    return out;
  }

  Value sum_at(Key lo, Key hi, std::size_t p) const {
    Value s = 0;
    for (Key k = std::max<Key>(lo, 0); k <= std::min(hi, kKeys - 1); ++k)
      s += at(k, p).value_or(0);
    return s;
  }

  // First prefix in [lo, hi] at which key k held `seen`.
  std::optional<std::size_t> find_value(Key k, const Opt& seen,
                                        std::size_t lo,
                                        std::size_t hi) const {
    for (std::size_t p = lo; p <= hi;) {
      if (at(k, p) == seen) return p;
      const auto& h = hist_[k];
      auto it = std::upper_bound(
          h.begin(), h.end(), p,
          [](std::size_t q, const Point& e) { return q < e.p; });
      if (it == h.end()) break;
      p = it->p;  // the key's next change
    }
    return std::nullopt;
  }

  // First prefix in [lo, hi] whose range sum over [a, b] is `seen`.
  std::optional<std::size_t> find_sum(Key a, Key b, Value seen,
                                      std::size_t lo, std::size_t hi) const {
    if (lo > hi) return std::nullopt;
    Value s = sum_at(a, b, lo);
    for (std::size_t p = lo;; ++p) {
      if (s == seen) return p;
      if (p == hi) return std::nullopt;
      for (const Change& c : delta_[p + 1])
        if (c.k >= a && c.k <= b)
          s += c.after.value_or(0) - c.before.value_or(0);
    }
  }

  // First prefix in [lo, hi] whose contents are `items` (and whose range sum
  // over [a, b] is `agg`).
  std::optional<std::size_t> find_items(const std::vector<Item>& items,
                                        Key a, Key b, Value agg,
                                        std::size_t lo,
                                        std::size_t hi) const {
    std::uint64_t h = 0;
    for (const auto& [k, v] : items) h += mix(k, v);
    for (std::size_t p = lo; p <= hi; ++p)
      if (hash_[p] == h && items == items_at(p) && sum_at(a, b, p) == agg)
        return p;
    return std::nullopt;
  }

  // Bounds on a range sum whose keys may each sit at any prefix in [lo, hi]
  // (a sharded aggregate combines shards pinned one after another).
  std::pair<Value, Value> sum_bounds(Key a, Key b, std::size_t lo,
                                     std::size_t hi) const {
    Value mn = 0, mx = 0;
    for (Key k = std::max<Key>(a, 0); k <= std::min(b, kKeys - 1); ++k) {
      Value kmin = at(k, lo).value_or(0), kmax = kmin;
      for (const Point& e : hist_[k])
        if (e.p > lo && e.p <= hi) {
          kmin = std::min(kmin, e.v.value_or(0));
          kmax = std::max(kmax, e.v.value_or(0));
        }
      mn += kmin;
      mx += kmax;
    }
    return {mn, mx};
  }

 private:
  struct Point {
    std::size_t p;
    Opt v;
  };
  struct Change {
    Key k;
    Opt before, after;
  };
  std::vector<std::vector<Point>> hist_;   // per key: (prefix, value) changes
  std::vector<std::vector<Change>> delta_;  // per prefix: what it changed
  std::vector<std::uint64_t> hash_;         // per prefix: contents hash
};

std::vector<Item> make_base(std::uint64_t seed) {
  Rng rng(seed * 104729 + 3);
  std::vector<Item> base;
  for (Key k = 0; k < kKeys; ++k)
    if (rng.coin()) base.emplace_back(k, static_cast<Value>(rng.below(100)));
  return base;
}

// The mutator's progress: `begun` batch calls have started, `done` have
// returned. A read that starts at done = d and takes its pin at begun = b
// sees one prefix in [d, b].
struct Progress {
  std::atomic<std::size_t> begun{0}, done{0};
  std::atomic<bool> finished{false};
  std::atomic<int> readers{0};  // started; the stream waits for both
};

// `maintain(p)` runs after the p-th batch call.
template <typename M, typename Maintain>
void run_stream(M& m, const std::vector<Op>& ops, Progress& pr,
                Maintain maintain) {
  while (pr.readers.load(std::memory_order_acquire) < 2)
    std::this_thread::yield();
  std::size_t p = 0;
  for (const Op& op : ops) {
    if (op.kind == Op::kCompact) {
      if constexpr (requires { m.compact_shard(0); })
        m.compact_shard(op.shard % m.shard_count());
      else
        m.compact();
      continue;
    }
    pr.begun.store(p + 1, std::memory_order_release);
    if (op.kind == Op::kInsert)
      m.insert_batch(op.items, kAdd);
    else if (op.kind == Op::kErase)
      m.erase_batch(op.keys);
    else
      m.assign_batch(op.items);
    pr.done.store(++p, std::memory_order_release);
    maintain(p);
  }
  pr.finished.store(true, std::memory_order_release);
}

// A reader's log of the reads that failed, reported by the main thread.
struct Verdict {
  std::size_t reads = 0;
  std::vector<std::string> failures;
  void fail(const std::ostringstream& what, std::size_t lo, std::size_t hi) {
    if (failures.size() >= 8) return;
    std::ostringstream os;
    os << what.str() << " over prefixes [" << lo << ", " << hi << "]";
    failures.push_back(os.str());
  }
};

void report(const std::vector<Verdict>& vs) {
  for (std::size_t r = 0; r < vs.size(); ++r) {
    EXPECT_GT(vs[r].reads, 0u) << "reader " << r;
    for (const std::string& f : vs[r].failures)
      ADD_FAILURE() << "reader " << r << ": " << f;
  }
}

// Probe result cells outlive the scheduler: a worker may still be inside a
// cell's write when the reader's wait_blocking returns.
using ProbeCells = std::deque<FutCell<rtasync::Probe<Value>>>;

void read_index(const ParallelMap<Value, SumAug>& m, const Spec& spec,
                Progress& pr, std::uint64_t seed, ProbeCells& cells,
                Verdict& out) {
  Rng rng(seed);
  std::size_t floor = 0;
  pr.readers.fetch_add(1, std::memory_order_release);
  while (!pr.finished.load(std::memory_order_acquire)) {
    const Key k = rng.range(0, kKeys - 1);
    Key a = rng.range(-4, kKeys + 4), b = rng.range(-4, kKeys + 4);
    if (a > b) std::swap(a, b);
    const std::size_t before =
        std::max(floor, pr.done.load(std::memory_order_acquire));
    std::optional<std::size_t> p;
    std::size_t after = 0;
    std::ostringstream what;
    switch (rng.below(4)) {
      case 0: {
        const MapSnapshot<Value, SumAug> snap = m.snapshot();
        after = pr.begun.load(std::memory_order_acquire);
        const std::vector<Item> items = snap.items();
        const Value agg = snap.aggregate(a, b);
        p = spec.find_items(items, a, b, agg, before, after);
        what << "snapshot of " << items.size() << " items, aggregate [" << a
             << ", " << b << "] = " << agg << ", matches none";
        break;
      }
      case 1: {
        const Opt v = m.get(k);
        after = pr.begun.load(std::memory_order_acquire);
        p = spec.find_value(k, v, before, after);
        what << "get(" << k << ") = " << v.value_or(-1) << " matches none";
        break;
      }
      case 2: {
        const Value agg = m.aggregate(a, b);
        after = pr.begun.load(std::memory_order_acquire);
        p = spec.find_sum(a, b, agg, before, after);
        what << "aggregate(" << a << ", " << b << ") = " << agg
             << " matches none";
        break;
      }
      default: {
        FutCell<rtasync::Probe<Value>>& cell = cells.emplace_back();
        m.probe_into(k, cell);
        after = pr.begun.load(std::memory_order_acquire);
        const rtasync::Probe<Value> r = cell.wait_blocking();
        p = spec.find_value(k, r.found ? Opt(r.value) : std::nullopt, before,
                            after);
        what << "probe_into(" << k << ") = " << (r.found ? r.value : -1)
             << " matches none";
      }
    }
    ++out.reads;
    if (p)
      floor = *p;
    else
      out.fail(what, before, after);
  }
}

// Point reads and aggregates of the sharded map; prefixes are monotone per
// key, and an aggregate that overlaps a batch is bounded, not matched.
void read_sharded(const ShardedParallelMap<Value, SumAug>& m, const Spec& spec,
                  Progress& pr, std::uint64_t seed, ProbeCells& cells,
                  Verdict& out) {
  Rng rng(seed);
  std::vector<std::size_t> floor(kKeys, 0);
  pr.readers.fetch_add(1, std::memory_order_release);
  while (!pr.finished.load(std::memory_order_acquire)) {
    const Key k = rng.range(0, kKeys - 1);
    Key a = rng.range(-4, kKeys + 4), b = rng.range(-4, kKeys + 4);
    if (a > b) std::swap(a, b);
    const std::size_t done = pr.done.load(std::memory_order_acquire);
    const std::size_t before = std::max(floor[k], done);
    std::ostringstream what;
    std::optional<std::size_t> p;
    std::size_t after = 0;
    switch (rng.below(3)) {
      case 0: {
        const Opt v = m.get(k);
        after = pr.begun.load(std::memory_order_acquire);
        p = spec.find_value(k, v, before, after);
        what << "get(" << k << ") = " << v.value_or(-1) << " matches none";
        break;
      }
      case 1: {
        FutCell<rtasync::Probe<Value>>& cell = cells.emplace_back();
        m.probe_into(k, cell);
        after = pr.begun.load(std::memory_order_acquire);
        const rtasync::Probe<Value> r = cell.wait_blocking();
        p = spec.find_value(k, r.found ? Opt(r.value) : std::nullopt, before,
                            after);
        what << "probe_into(" << k << ") = " << (r.found ? r.value : -1)
             << " matches none";
        break;
      }
      default: {
        const Value agg = m.aggregate(a, b);
        after = pr.begun.load(std::memory_order_acquire);
        ++out.reads;
        if (after == done) {  // no batch call overlapped: one exact prefix
          if (spec.sum_at(a, b, done) != agg) {
            what << "aggregate(" << a << ", " << b << ") = " << agg
                 << " is not the sum";
            out.fail(what, done, done);
          }
        } else {
          const auto [mn, mx] = spec.sum_bounds(a, b, done, after);
          if (agg < mn || agg > mx) {
            what << "aggregate(" << a << ", " << b << ") = " << agg
                 << " outside [" << mn << ", " << mx << "]";
            out.fail(what, done, after);
          }
        }
        continue;
      }
    }
    ++out.reads;
    if (p)
      floor[k] = *p;
    else
      out.fail(what, before, after);
  }
}

class ParallelMapHistory : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelMapHistory, EveryReadSeesOneBatchPrefix) {
  const std::uint64_t seed = GetParam();
  const std::vector<Item> base = make_base(seed);
  const std::vector<Op> ops = make_stream(seed);
  const Spec spec(base, ops);
  ProbeCells cells[2];
  Scheduler sched(2);
  ParallelMap<Value, SumAug> m(sched);
  m.insert_batch(base, kAdd);
  m.flush();
  Progress pr;
  std::vector<Verdict> verdicts(2);
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&, r] {
      read_index(m, spec, pr, seed * 31 + r, cells[r], verdicts[r]);
    });
  run_stream(m, ops, pr, [](std::size_t) {});
  for (std::thread& t : readers) t.join();
  report(verdicts);
  EXPECT_EQ(m.items(), spec.items_at(spec.batches()));
  EXPECT_EQ(m.aggregate(0, kKeys), spec.sum_at(0, kKeys, spec.batches()));
}

TEST_P(ParallelMapHistory, ShardedPointReadsAndAggregatesSeePrefixes) {
  const std::uint64_t seed = GetParam();
  const std::vector<Item> base = make_base(seed);
  const std::vector<Op> ops = make_stream(seed);
  const Spec spec(base, ops);
  ProbeCells cells[2];
  Scheduler sched(2);
  adapt::Config cfg;  // eager: every batch may split or merge
  cfg.enabled = true;
  cfg.high_cont = 1.5;
  cfg.low_cont = 0.5;
  cfg.alpha = 1.0;
  cfg.min_shards = 2;
  cfg.max_shards = 16;
  cfg.sample_cap = 1024;
  cfg.cooldown = 0;
  ShardedParallelMap<Value, SumAug> m(sched, 4, pipelined::treap::kDefaultSalt,
                                      map::kDefaultLeafCapacity, cfg);
  m.insert_batch(base, kAdd);
  m.flush();
  Progress pr;
  std::vector<Verdict> verdicts(2);
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&, r] {
      read_sharded(m, spec, pr, seed * 37 + r, cells[r], verdicts[r]);
    });
  // Besides the stream's own compact_shard calls, every 8 batches compact
  // each shard holding more than twice its fair share of arena, as a
  // service's maintenance tick would. Under this config a shard may split
  // and re-merge with its sibling after every batch, which doubles its
  // absorbed-store list each time until it is compacted.
  const auto maintain = [&m](std::size_t p) {
    if (p % 8 != 0) return;
    const std::size_t n = m.shard_count();
    std::vector<std::uint64_t> bytes(n);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += bytes[i] = m.shard_stats(i).arena_bytes;
    for (std::size_t i = 0; i < n; ++i)
      if (bytes[i] * n > 2 * total) m.compact_shard(i);
  };
  run_stream(m, ops, pr, maintain);
  for (std::thread& t : readers) t.join();
  report(verdicts);
  const ShardedStats st = m.stats();
  EXPECT_GT(st.splits + st.merges, 0u);
  EXPECT_EQ(m.items(), spec.items_at(spec.batches()));
  EXPECT_EQ(m.aggregate(0, kKeys), spec.sum_at(0, kKeys, spec.batches()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelMapHistory,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace pwf::rt
