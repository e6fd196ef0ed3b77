// Per-shard cross-core mailbox: the shared-nothing broker's only channel
// for mutating another shard's state. Operations are posted onto a
// lock-free MPSC queue and executed by whichever thread holds the shard's
// drain token — normally the shard's own handler thread, which calls
// Drain() at the top of every routed frame, so admin mutations (leadership
// moves, recovery re-ingest) are serialized *between* frames of the owning
// shard instead of interleaving mid-request under a broker-wide lock.
//
// Execute() is the synchronous flavor (flat combining): the caller posts
// its op, then either acquires the token and drains the queue itself
// (running every earlier op first, preserving post order) or spins until
// the shard's active handler drains it on the caller's behalf. Either way
// the op has run exactly once when Execute returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "common/queue.h"
#include "common/sync.h"

namespace kera {

class ShardMailbox {
 public:
  using Op = std::function<void()>;

  /// Enqueues `op` to run at the shard's next drain point. Lock-free.
  void Post(Op op) {
    queue_.Push(std::move(op));
    ++enqueues_;
  }

  /// Runs queued ops if any are pending and the token is free. Called at
  /// the top of every frame routed to this shard; the empty probe is one
  /// acquire load, so an idle mailbox costs nothing on the hot path.
  void Drain() {
    if (queue_.EmptyApprox()) return;
    if (token_.exchange(true, std::memory_order_acquire)) return;
    DrainLocked();
    token_.store(false, std::memory_order_release);
  }

  /// Posts `op` and blocks until it has executed — by this thread if the
  /// token is free, by the shard's active handler otherwise.
  void Execute(Op op) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    Post([op = std::move(op), done] {
      op();
      done->store(true, std::memory_order_release);
    });
    while (!done->load(std::memory_order_acquire)) {
      if (!token_.exchange(true, std::memory_order_acquire)) {
        DrainLocked();
        token_.store(false, std::memory_order_release);
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Total ops ever posted (contention telemetry).
  [[nodiscard]] uint64_t enqueues() const { return enqueues_; }

 private:
  void DrainLocked() {
    while (auto op = queue_.TryPop()) (*op)();
  }

  MpscQueue<Op> queue_;
  std::atomic<bool> token_{false};
  Counter enqueues_;
};

}  // namespace kera
