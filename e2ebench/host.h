// Host and process probes the benchmark records around each timed phase:
// hypervisor steal from /proc/stat, process CPU time, peak RSS and thread
// count from /proc/self/status; the host speed probe run between rounds;
// and the idle spinners that keep the host from descheduling idle vCPUs
// while the benchmark runs.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

namespace e2ebench {

/// Aggregate CPU jiffies of the host ("cpu" line of /proc/stat).
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};

inline CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[10] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                  &v[8], &v[9]) >= 8) {
    // guest and guest_nice (v[8], v[9]) are already counted in user/nice.
    for (int i = 0; i < 8; ++i) out.total += v[i];
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

/// Share of all vCPU time stolen by the hypervisor between two samples.
inline double StealShare(const CpuJiffies& a, const CpuJiffies& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : double(b.steal - a.steal) / double(total);
}

/// User + system CPU seconds of this process (all threads).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// A numeric field of /proc/self/status ("VmHWM", "Threads"); VmHWM-style
/// kB values are returned in bytes.
inline uint64_t ProcStatusField(const char* name) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t out = 0;
  const size_t n = std::strlen(name);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, name, n) != 0 || line[n] != ':') continue;
    unsigned long long v = 0;
    char unit[8] = {};
    const int got = std::sscanf(line + n + 1, "%llu %7s", &v, unit);
    out = (got == 2 && std::strcmp(unit, "kB") == 0) ? v * 1024 : v;
    break;
  }
  std::fclose(f);
  return out;
}

inline uint64_t PeakRssBytes() { return ProcStatusField("VmHWM"); }

inline uint64_t ThreadCount() { return ProcStatusField("Threads"); }

/// Host speed, timed on fixed work that uses none of the code under test.
struct HostSpeed {
  double cpu_ms = 0;  // one pass of the compute loop
  double rtt_us = 0;  // one 64-byte round trip between two threads
};

namespace host_detail {

inline int64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double MedianOf3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// Dependent integer work over a 256 KiB table: the ALU, branch and cache
/// mix of user-space code, ~10 ms per pass.
inline double CpuPassNs() {
  static std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(64 * 1024);
    for (size_t i = 0; i < t.size(); ++i) t[i] = uint32_t(i * 2654435761u);
    return t;
  }();
  const int64_t t0 = MonoNs();
  uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  for (int i = 0; i < 1000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t v = table[x & (table.size() - 1)];
    acc += (v & 1) ? v >> 3 : v * 3;
  }
  asm volatile("" : : "r"(acc));
  return double(MonoNs() - t0);
}

inline bool SendAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t k = send(fd, p, n, 0);
    if (k <= 0) return false;
    p += k;
    n -= size_t(k);
  }
  return true;
}

inline bool RecvAll(int fd, char* p, size_t n) {
  while (n > 0) {
    const ssize_t k = recv(fd, p, n, 0);
    if (k <= 0) return false;
    p += k;
    n -= size_t(k);
  }
  return true;
}

/// Mean round trip of `n` 64-byte messages between two threads over a Unix
/// stream socket pair: syscalls and thread wake-ups, which the cluster's
/// transport spends most of its time in. A socket pair holds no port or
/// TCP state that the cluster's own connections could meet. 0 on error.
inline double RttUs(int n) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return 0;
  std::thread echo([&] {
    char buf[64];
    for (int i = 0; i < n; ++i) {
      if (!RecvAll(fds[1], buf, sizeof(buf)) ||
          !SendAll(fds[1], buf, sizeof(buf))) {
        break;
      }
    }
  });
  bool ok = true;
  char buf[64] = {};
  const int64_t t0 = MonoNs();
  for (int i = 0; i < n && ok; ++i) {
    ok = SendAll(fds[0], buf, sizeof(buf)) && RecvAll(fds[0], buf, sizeof(buf));
  }
  const int64_t t1 = MonoNs();
  shutdown(fds[0], SHUT_RDWR);
  echo.join();
  close(fds[0]);
  close(fds[1]);
  return ok ? double(t1 - t0) / 1e3 / n : 0;
}

}  // namespace host_detail

/// Times the host on work independent of the benchmarked code: the median
/// of three compute passes and of three batches of 200 round trips between
/// two threads (~40 ms in all). Run between rounds, with no cluster alive.
inline HostSpeed ProbeHostSpeed() {
  using namespace host_detail;
  HostSpeed s;
  s.cpu_ms = MedianOf3(CpuPassNs(), CpuPassNs(), CpuPassNs()) / 1e6;
  s.rtt_us = MedianOf3(RttUs(200), RttUs(200), RttUs(200));
  return s;
}

/// Keeps every CPU this process may run on busy with a lowest-priority
/// (SCHED_IDLE) spinner, so the guest kernel never halts a vCPU. On a
/// shared host a halted vCPU loses its physical CPU, and waking it again
/// waits for the hypervisor: the cluster's many short thread hand-offs
/// then measured 20-35% steal and 2-4x slower rounds, varying from minute
/// to minute with the neighbours' load. With the spinners steal stays near
/// 1-3%. A spinner yields to any normal thread at once, and its CPU time is
/// reported separately so it can be left out of the process CPU figures.
class IdleSpinners {
 public:
  IdleSpinners() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      threads_.emplace_back([this, cpu] { Spin(cpu); });
      clockid_t clock{};
      if (pthread_getcpuclockid(threads_.back().native_handle(), &clock) ==
          0) {
        clocks_.push_back(clock);
      }
    }
    // Wait until each spinner has either started or given up, so the
    // active count is final.
    while (settled_.load() < threads_.size()) std::this_thread::yield();
  }

  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// Spinners running (0 when SCHED_IDLE is not permitted here).
  [[nodiscard]] size_t active() const { return active_.load(); }

  /// CPU seconds the spinners have used so far.
  [[nodiscard]] double CpuSeconds() const {
    double total = 0;
    for (clockid_t clock : clocks_) {
      timespec ts{};
      if (clock_gettime(clock, &ts) == 0) {
        total += double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }

 private:
  void Spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_param param{};
    // Never spin at normal priority: that would take CPU from the cluster.
    const bool ok =
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0 &&
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
    if (ok) active_.fetch_add(1);
    settled_.fetch_add(1);
    if (!ok) return;
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<size_t> active_{0};
  std::atomic<size_t> settled_{0};
  std::vector<clockid_t> clocks_;
  // Declared last: the threads use the members above.
  std::vector<std::thread> threads_;
};

}  // namespace e2ebench
