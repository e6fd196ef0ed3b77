// Background replication worker pool: moves batch shipping off the
// produce path. Produce handlers append chunks, Notify() the vlogs they
// touched, and park on the vlog's group-commit waiters; workers wake on
// notification (condition variable, no spin), Poll() batches — up to the
// vlog's replication window concurrently — ship them over the network,
// and Complete/Abort them. Many produce RPCs thus share one large
// replicated I/O, and replication round-trips overlap with ingestion.
//
// Two notification topologies, chosen at construction:
//  - shared (single-shard broker, the original behavior): one queue, all
//    workers pull from it, and a vlog with window slots free is requeued
//    before shipping so a peer worker pipelines the next batch.
//  - shard-affine (shared-nothing broker, shards > 1): one lane (queue +
//    worker) per worker thread, and a vlog is always routed to lane
//    owner_shard % lanes — a log's shipping work stays on one core and
//    never contends with another shard's logs on a queue lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
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
  /// `shard_affine` selects the per-lane topology (see file comment).
  Replicator(Broker& broker, uint32_t workers, bool shard_affine = false);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Marks a vlog as (possibly) having replication work and wakes a
  /// worker. Cheap and idempotent: a vlog is queued at most once per lane.
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
  /// One notification queue plus the workers draining it. The shared
  /// topology has one lane with N workers; the affine topology has N
  /// lanes with one worker each.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<VirtualLog*> queue;
    std::unordered_set<VirtualLog*> queued;  // dedup for queue
    std::vector<std::thread> workers;
  };

  void WorkerLoop(Lane& lane);
  Lane& LaneFor(VirtualLog* vlog);

  Broker& broker_;
  const bool shard_affine_;
  std::atomic<bool> stop_{false};
  Stats stats_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace kera
