// BlockingQueue: mutex+condvar MPMC queue with shutdown; the socket
// transport's worker dispatch.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace kera {

/// Unbounded MPMC blocking queue with shutdown. Pop returns nullopt only
/// after Shutdown() once the queue drains.
template <typename T>
class BlockingQueue {
 public:
  void Push(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;  // dropped; receivers are going away
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
  }

  [[nodiscard]] std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || shutdown_; });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool shutdown_ = false;
};

}  // namespace kera
