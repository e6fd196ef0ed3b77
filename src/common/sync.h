// Small synchronization helpers: spin lock for short critical sections and
// the relaxed counter that lock-free Stats structs are declared with.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace kera {

/// A report-only statistics counter: bumped with `+=`/`++` from any
/// thread as a relaxed fetch_add, read as a uint64_t, and copied as a
/// snapshot of its value. A module declares each counter once, as a
/// Counter field of its public Stats, and keeps that Stats as its live
/// member, so GetStats() is a copy plus whatever is derived at read time.
/// Relaxed order publishes nothing else: a count whose reader must also
/// see the writes made before the increment is a std::atomic with
/// release/acquire, not a Counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : v_(uint64_t(other)) {}
  Counter& operator=(const Counter& other) {
    v_.store(uint64_t(other), std::memory_order_relaxed);
    return *this;
  }

  Counter& operator+=(uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator++() { return *this += 1; }

  operator uint64_t() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Test-and-test-and-set spin lock. Use only around short, non-blocking
/// critical sections (segment head bumps, vlog reference appends).
class SpinLock {
 public:
  void lock() {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) {
        // spin; on a real deployment this would PAUSE
      }
    }
  }
  bool try_lock() { return !flag_.exchange(true, std::memory_order_acquire); }
  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace kera
