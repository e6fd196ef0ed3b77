// Test watchdog: aborts the test binary when the guarded scope outlives
// its time limit, so a deadlock fails the suite instead of hanging it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

namespace kera {

class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, std::string what)
      : what_(std::move(what)), thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %lld s\n",
                         what_.c_str(), (long long)limit.count());
            std::abort();
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  const std::string what_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace kera
