// Background replication worker pool: moves batch shipping off the
// produce path. Produce handlers append chunks, Notify() the vlogs they
// touched, and park on the vlog's group-commit waiters; workers wake on
// notification (condition variable, no spin), Poll() batches — up to the
// vlog's replication window concurrently — ship them over the network,
// and Complete/Abort them. Many produce RPCs thus share one large
// replicated I/O, and replication round-trips overlap with ingestion.
// All workers pull from one queue, and a vlog with more work is requeued
// before shipping so a peer worker pipelines the next batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/sync.h"

namespace kera {

class Broker;
class VirtualLog;

class Replicator {
 public:
  /// Spawns `workers` shipping threads serving `broker`'s virtual logs.
  Replicator(Broker& broker, uint32_t workers);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Marks a vlog as (possibly) having replication work and wakes a
  /// worker. Cheap and idempotent: a vlog is queued at most once.
  void Notify(VirtualLog* vlog);

  /// Stops and joins the workers. Must be called before the network the
  /// broker ships through is shut down. Idempotent.
  void Stop();

  struct Stats {
    Counter batches_shipped;
    Counter batch_failures;
    Counter wakeups;
  };
  [[nodiscard]] Stats GetStats() const { return stats_; }

 private:
  void WorkerLoop();

  Broker& broker_;
  std::atomic<bool> stop_{false};
  Stats stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<VirtualLog*> queue_;           // guarded by mu_
  std::unordered_set<VirtualLog*> queued_;  // dedup for queue_
  std::vector<std::thread> workers_;
};

}  // namespace kera
