// Process-wide resource counters for the timed phases of a workload.
//
// One perf_event_open group is opened with `inherit` set, so it must be
// constructed before the Scheduler (or any other thread) starts: threads
// created afterwards inherit the counters, and reading an inherited counter
// sums every live and exited thread of the process.
//
// Hardware events (cycles, instructions, LLC misses, branch misses) are
// absent, not zero, where the PMU is missing (KVM guests commonly return
// ENOENT). Software events (task-clock, context switches, page faults) count
// kernel time when the caller may (root or perf_event_paranoid <= 1) and fall
// back to user-only counting otherwise. getrusage() always supplies CPU time,
// faults, context switches and peak RSS, so every per-layer metric derived
// here exists on any Linux host.
#pragma once

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <optional>

namespace pwfb {

class ProcessCounters {
 public:
  enum Event : std::size_t {
    kTaskClock,  // group leader: a software event exists whenever perf does
    kContextSwitches,
    kPageFaults,
    kCycles,
    kInstructions,
    kLlcMisses,
    kBranchMisses,
    kEvents
  };
  static constexpr std::array<const char*, kEvents> kNames = {
      "task_clock_ns", "context_switches", "page_faults", "cycles",
      "instructions",  "llc_misses",       "branch_misses"};

  struct Sample {
    double cpu_s = 0.0;             // getrusage user + sys
    std::uint64_t faults = 0;       // getrusage minor + major faults
    std::uint64_t ctx_switches = 0; // getrusage voluntary + involuntary
    std::array<std::optional<std::uint64_t>, kEvents> perf{};
  };

  ProcessCounters() {
    fds_.fill(-1);
    open_group(/*exclude_kernel=*/false);
    if (fds_[kTaskClock] < 0) open_group(/*exclude_kernel=*/true);
  }
  ~ProcessCounters() {
    for (int fd : fds_)
      if (fd >= 0) ::close(fd);
  }
  ProcessCounters(const ProcessCounters&) = delete;
  ProcessCounters& operator=(const ProcessCounters&) = delete;

  // True when the software events exclude kernel time (context switches
  // then read 0).
  bool user_only() const { return user_only_; }

  Sample read() const {
    Sample s;
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    s.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    s.faults = static_cast<std::uint64_t>(ru.ru_minflt + ru.ru_majflt);
    s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    for (std::size_t e = 0; e < kEvents; ++e) {
      std::uint64_t v = 0;
      if (fds_[e] >= 0 && ::read(fds_[e], &v, sizeof v) == sizeof v)
        s.perf[e] = v;
    }
    return s;
  }

  // Peak resident set of this process so far, in MiB.
  static double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  static double seconds(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  }

  void open_group(bool exclude_kernel) {
    static constexpr std::array<std::pair<std::uint32_t, std::uint64_t>,
                                kEvents>
        kSpec = {{{PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
                  {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES},
                  {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
                  {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
                  {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
                  {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
                  {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES}}};
    for (std::size_t e = 0; e < kEvents; ++e) {
      perf_event_attr a{};
      a.size = sizeof a;
      a.type = kSpec[e].first;
      a.config = kSpec[e].second;
      a.inherit = 1;
      a.exclude_kernel = exclude_kernel ? 1 : 0;
      a.exclude_hv = 1;
      const int leader = e == kTaskClock ? -1 : fds_[kTaskClock];
      if (e != kTaskClock && leader < 0) return;
      fds_[e] = static_cast<int>(
          ::syscall(SYS_perf_event_open, &a, 0, -1, leader, 0));
    }
    user_only_ = exclude_kernel;
  }

  std::array<int, kEvents> fds_{};
  bool user_only_ = false;
};

}  // namespace pwfb
