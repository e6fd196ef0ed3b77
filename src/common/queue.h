// Queues used between client/broker threads.
//
// - MpscQueue: lock-free multi-producer single-consumer linked queue
//   (Vyukov's non-intrusive design); the transport layer of the broker's
//   per-shard cross-core mailboxes.
// - BlockingQueue: mutex+condvar MPMC queue with shutdown; the socket
//   transport's worker dispatch and the producer's chunk hand-off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace kera {

/// Unbounded lock-free multi-producer single-consumer queue (Vyukov's
/// non-intrusive MPSC). Push is wait-free apart from the allocation;
/// TryPop must be called from one consumer at a time (the shard mailbox
/// enforces this with its drain token). A Push is visible to the consumer
/// by the time a subsequent EmptyApprox() on the consumer thread returns
/// false; the brief "pushed but next-pointer not yet linked" window makes
/// TryPop return nullopt, and callers that need exactness (mailbox drain
/// with a waiting poster) retry off the poster's own completion flag.
template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  ~MpscQueue() {
    Node* n = tail_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  void Push(T value) {
    Node* node = new Node(std::move(value));
    // Swing head to the new node, then link the previous head to it. A
    // consumer that observes the unlinked gap simply sees "empty" until
    // the store below lands.
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Consumer side only.
  [[nodiscard]] std::optional<T> TryPop() {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    T value = std::move(next->value);
    tail_ = next;
    delete tail;
    return value;
  }

  /// True when no push has been published. Cheap (one relaxed load of the
  /// consumer-owned tail plus one acquire load); the hot-path "is there
  /// mailbox work" probe.
  [[nodiscard]] bool EmptyApprox() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  alignas(64) std::atomic<Node*> head_;  // producers push here
  alignas(64) Node* tail_;               // consumer pops here
};

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

  [[nodiscard]] std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
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

  [[nodiscard]] size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool shutdown_ = false;
};

}  // namespace kera
