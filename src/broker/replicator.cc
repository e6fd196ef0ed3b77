#include "broker/replicator.h"

#include "broker/broker.h"
#include "vlog/virtual_log.h"

namespace kera {

Replicator::Replicator(Broker& broker, uint32_t workers, bool shard_affine)
    : broker_(broker), shard_affine_(shard_affine && workers > 1) {
  const uint32_t nlanes = shard_affine_ ? workers : 1;
  lanes_.reserve(nlanes);
  for (uint32_t i = 0; i < nlanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  const uint32_t per_lane = shard_affine_ ? 1 : workers;
  for (auto& lane : lanes_) {
    for (uint32_t i = 0; i < per_lane; ++i) {
      lane->workers.emplace_back([this, l = lane.get()] { WorkerLoop(*l); });
    }
  }
}

Replicator::~Replicator() { Stop(); }

Replicator::Lane& Replicator::LaneFor(VirtualLog* vlog) {
  if (lanes_.size() == 1) return *lanes_[0];
  return *lanes_[vlog->owner_shard() % lanes_.size()];
}

void Replicator::Notify(VirtualLog* vlog) {
  Lane& lane = LaneFor(vlog);
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (stop_.load(std::memory_order_acquire) ||
        !lane.queued.insert(vlog).second) {
      return;
    }
    lane.queue.push_back(vlog);
  }
  lane.cv.notify_one();
}

void Replicator::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& lane : lanes_) lane->cv.notify_all();
  for (auto& lane : lanes_) {
    for (auto& w : lane->workers) {
      if (w.joinable()) w.join();
    }
  }
}

void Replicator::WorkerLoop(Lane& lane) {
  while (true) {
    VirtualLog* vlog = nullptr;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      lane.cv.wait(lock, [this, &lane] {
        return stop_.load(std::memory_order_acquire) || !lane.queue.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      vlog = lane.queue.front();
      lane.queue.pop_front();
      lane.queued.erase(vlog);
      ++stats_.wakeups;
    }
    auto batch = vlog->Poll();
    if (!batch.has_value()) continue;
    // More unissued work (or free window slots) on this vlog: requeue it
    // before shipping so a peer worker pipelines the next batch while
    // this one's round-trip is in flight. (In the shard-affine topology
    // the lane has one worker, so the requeue just keeps the lane hot —
    // window overlap within one log comes from the shard's own cadence.)
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
