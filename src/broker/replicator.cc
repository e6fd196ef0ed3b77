#include "broker/replicator.h"

#include "broker/broker.h"
#include "vlog/virtual_log.h"

namespace kera {

Replicator::Replicator(Broker& broker, uint32_t workers) : broker_(broker) {
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Replicator::~Replicator() { Stop(); }

void Replicator::Notify(VirtualLog* vlog) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_acquire) ||
        !queued_.insert(vlog).second) {
      return;
    }
    queue_.push_back(vlog);
  }
  cv_.notify_one();
}

void Replicator::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void Replicator::WorkerLoop() {
  while (true) {
    VirtualLog* vlog = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      vlog = queue_.front();
      queue_.pop_front();
      queued_.erase(vlog);
      ++stats_.wakeups;
    }
    auto batch = vlog->Poll();
    if (!batch.has_value()) continue;
    // More unissued work (or free window slots) on this vlog: requeue it
    // before shipping so a peer worker pipelines the next batch while
    // this one's round-trip is in flight.
    if (vlog->HasWork()) Notify(vlog);
    Status s = broker_.ShipBatch(*vlog, *batch);
    if (s.ok()) {
      ++stats_.batches_shipped;
      if (vlog->HasWork()) Notify(vlog);
    } else {
      ++stats_.batch_failures;
      if (vlog->NoteReplicationFailure(s)) {
        // Retry budget left: the failed range was requeued (and possibly
        // evacuated onto live backups); try again.
        Notify(vlog);
      }
      // Budget exhausted: the vlog latched the error and woke its waiters;
      // the next append re-notifies, giving fresh appends a fresh budget.
    }
  }
}

}  // namespace kera
