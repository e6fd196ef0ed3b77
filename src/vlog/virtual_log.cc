#include "vlog/virtual_log.h"

#include <algorithm>
#include <cassert>

#include "storage/group.h"

namespace kera {

VirtualLog::VirtualLog(VlogId id, VirtualLogConfig config,
                       BackupSelector selector)
    : id_(id), config_(config), selector_(std::move(selector)) {
  assert(config_.replication_factor >= 1);
  assert(config_.replication_window >= 1);
  next_segment_id_ = config_.first_segment_id;
}

VirtualSegment* VirtualLog::OpenSegmentLocked() {
  VirtualSegmentId vseg_id = next_segment_id_++;
  std::vector<NodeId> backups;
  if (config_.replication_factor > 1) {
    backups = selector_(vseg_id);
    assert(backups.size() == config_.replication_factor - 1 &&
           "selector must return R-1 backups");
  }
  segments_.push_back(std::make_unique<VirtualSegment>(
      vseg_id, config_.virtual_segment_capacity, std::move(backups)));
  ++stats_.segments_opened;
  return segments_.back().get();
}

VirtualSegment* VirtualLog::FindSegmentLocked(VirtualSegmentId vseg) const {
  // Segment ids are assigned sequentially and segments are only removed
  // from the front (trim), so ids in segments_ are contiguous: resolve by
  // arithmetic instead of scanning (the window keeps several live).
  if (segments_.empty()) return nullptr;
  VirtualSegmentId front = segments_.front()->id();
  if (vseg < front || vseg - front >= segments_.size()) return nullptr;
  VirtualSegment* seg = segments_[size_t(vseg - front)].get();
  assert(seg->id() == vseg && "segment ids must be contiguous");
  return seg;
}

VirtualLog::AppendPosition VirtualLog::Append(const ChunkRef& ref) {
  std::unique_lock<std::mutex> lock(mu_);
  VirtualSegment* seg =
      segments_.empty() ? OpenSegmentLocked() : segments_.back().get();
  if (!seg->TryAppend(ref)) {
    seg->Close();
    if (config_.replication_factor == 1) seg->set_seal_replicated();
    seg = OpenSegmentLocked();
    bool ok = seg->TryAppend(ref);
    assert(ok && "chunk larger than virtual segment capacity");
    (void)ok;
  }
  ++stats_.chunks_appended;
  stats_.bytes_appended += ref.loc.length;
  AppendPosition pos{seg->id(), seg->ref_count() - 1};
  if (config_.replication_factor == 1) {
    // No backups: the broker's copy is the only copy; expose immediately.
    seg->MarkReplicatedUpTo(seg->ref_count());
    // Group chunk indices are taken before the vlog append, so appends
    // can reach the log out of index order: this one may complete the
    // durable prefix a waiter on a later chunk of its group sleeps on.
    lock.unlock();
    durable_cv_.notify_all();
  }
  return pos;
}

std::optional<ReplicationBatch> VirtualLog::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.replication_factor == 1 ||
      inflight_.size() >= config_.replication_window) {
    return std::nullopt;
  }
  // Replication is issued in order: always the oldest incompletely issued
  // virtual segment first. Each segment's issue point is its durable
  // prefix plus everything already in flight for it.
  for (auto& seg_ptr : segments_) {
    VirtualSegment& seg = *seg_ptr;
    size_t issued = seg.durable_ref_count();
    uint64_t issued_offset = seg.durable_header();
    for (const Outstanding& o : inflight_) {
      if (o.vseg != seg.id()) continue;
      issued += o.ref_count;
      issued_offset += o.bytes;
    }
    if (issued >= seg.ref_count()) continue;

    ReplicationBatch batch;
    batch.id = next_batch_id_++;
    batch.vlog = id_;
    batch.vseg = seg.id();
    batch.backups = seg.backups();
    batch.start_ref = issued;
    batch.start_offset = issued_offset;
    size_t end = issued;
    while (end < seg.ref_count() &&
           (end == issued ||
            batch.bytes + seg.ref(end).loc.length <= config_.max_batch_bytes)) {
      batch.bytes += seg.ref(end).loc.length;
      batch.refs.push_back(seg.ref(end));
      ++end;
    }
    batch.seals_segment = seg.closed() && end == seg.ref_count();
    batch.checksum_after = seg.ChecksumFromDurable(end);
    inflight_.push_back(Outstanding{batch.id, batch.vseg, batch.start_ref,
                                    batch.refs.size(), batch.bytes,
                                    batch.seals_segment, false});
    ++stats_.batches_issued;
    stats_.bytes_replicated += batch.bytes;
    stats_.max_inflight_batches =
        std::max<uint64_t>(stats_.max_inflight_batches, inflight_.size());
    return batch;
  }
  // No data pending: a segment that closed after its last data batch
  // completed still owes the backups an (empty) seal notification, so
  // they can flush and the segment can be trimmed. Issued only once the
  // segment has nothing outstanding (the seal must be the final word).
  for (auto& seg_ptr : segments_) {
    VirtualSegment& seg = *seg_ptr;
    if (!seg.closed() || seg.seal_replicated() ||
        seg.durable_ref_count() < seg.ref_count()) {
      continue;
    }
    bool busy = std::any_of(
        inflight_.begin(), inflight_.end(),
        [&](const Outstanding& o) { return o.vseg == seg.id(); });
    if (busy) continue;
    ReplicationBatch batch;
    batch.id = next_batch_id_++;
    batch.vlog = id_;
    batch.vseg = seg.id();
    batch.backups = seg.backups();
    batch.start_ref = seg.durable_ref_count();
    batch.start_offset = seg.durable_header();
    batch.seals_segment = true;
    batch.checksum_after = seg.running_checksum();
    inflight_.push_back(Outstanding{batch.id, batch.vseg, batch.start_ref, 0,
                                    0, true, false});
    ++stats_.batches_issued;
    stats_.max_inflight_batches =
        std::max<uint64_t>(stats_.max_inflight_batches, inflight_.size());
    return batch;
  }
  return std::nullopt;
}

void VirtualLog::ApplyCompletedPrefixLocked() {
  while (!inflight_.empty() && inflight_.front().done) {
    const Outstanding& o = inflight_.front();
    if (VirtualSegment* seg = FindSegmentLocked(o.vseg)) {
      seg->MarkReplicatedUpTo(size_t(o.start_ref) + o.ref_count);
      if (o.seals) seg->set_seal_replicated();
    }
    inflight_.pop_front();
  }
}

void VirtualLog::Complete(const ReplicationBatch& batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(
        inflight_.begin(), inflight_.end(),
        [&](const Outstanding& o) { return o.id == batch.id; });
    if (it == inflight_.end()) {
      // Stale: the batch was dropped by Abort/Evacuate and its range
      // requeued; the re-shipped copy carries a fresh id.
      return;
    }
    it->done = true;
    ApplyCompletedPrefixLocked();
  }
  durable_cv_.notify_all();
}

void VirtualLog::Abort(const ReplicationBatch& batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(
        inflight_.begin(), inflight_.end(),
        [&](const Outstanding& o) { return o.id == batch.id; });
    if (it == inflight_.end()) return;  // already dropped (evacuation)
    // Requeue the aborted range and everything issued after it: a later
    // batch must never be applied over the hole. Later batches that were
    // already acked will be re-shipped; backups treat the overlap as an
    // idempotent retry.
    inflight_.erase(it, inflight_.end());
    // Stats: the batch counted as issued but its bytes were not durably
    // replicated; the retry will count again, reflecting the extra I/O.
  }
  durable_cv_.notify_all();
}

bool VirtualLog::DurableLocked(AppendPosition pos) const {
  const VirtualSegment* seg = FindSegmentLocked(pos.vseg);
  // Trimmed (or never within range) => it was fully replicated.
  if (seg == nullptr) return true;
  return seg->durable_ref_count() > pos.ref_index;
}

bool VirtualLog::ChunkDurableLocked(const ChunkRef& ref) const {
  return ref.group == nullptr ||
         ref.group->durable_chunk_count() > ref.loc.group_chunk_index;
}

bool VirtualLog::HasUnissuedWorkLocked() const {
  if (config_.replication_factor == 1) return false;
  for (const auto& seg_ptr : segments_) {
    const VirtualSegment& seg = *seg_ptr;
    size_t issued = seg.durable_ref_count();
    bool busy = false;
    for (const Outstanding& o : inflight_) {
      if (o.vseg != seg.id()) continue;
      issued += o.ref_count;
      busy = true;
    }
    if (issued < seg.ref_count()) return true;
    if (seg.closed() && !seg.seal_replicated() && !busy &&
        seg.durable_ref_count() == seg.ref_count()) {
      return true;
    }
  }
  return false;
}

bool VirtualLog::IsDurable(AppendPosition pos) const {
  std::lock_guard<std::mutex> lock(mu_);
  return DurableLocked(pos);
}

bool VirtualLog::WaitChunkDurableOrIdle(const ChunkRef& ref) {
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [&] {
    return ChunkDurableLocked(ref) ||
           (inflight_.size() < config_.replication_window &&
            HasUnissuedWorkLocked());
  });
  return ChunkDurableLocked(ref);
}

size_t VirtualLog::EvacuateSegment(VirtualSegmentId vseg) {
  std::vector<ChunkRef> moved;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Collect unreplicated refs from the victim AND every later segment,
    // in order, so the vlog's global append order is preserved in the
    // rebuilt tail (per-group replay order at recovery depends on it).
    bool found = false;
    for (auto& seg : segments_) {
      if (seg->id() == vseg) found = true;
      if (!found) continue;
      seg->Close();
      auto refs = seg->TruncateUnreplicated();
      moved.insert(moved.end(), refs.begin(), refs.end());
    }
    if (!found) return 0;
    // Outstanding batches covering the truncated ranges are void: their
    // refs move to the fresh segments below. Late completions/aborts for
    // them become stale no-ops (the id is gone).
    inflight_.erase(std::remove_if(inflight_.begin(), inflight_.end(),
                                   [&](const Outstanding& o) {
                                     return o.vseg >= vseg;
                                   }),
                    inflight_.end());
    if (!moved.empty()) {
      VirtualSegment* fresh = OpenSegmentLocked();
      for (const ChunkRef& ref : moved) {
        bool ok = fresh->TryAppend(ref);
        if (!ok) {
          fresh->Close();
          fresh = OpenSegmentLocked();
          ok = fresh->TryAppend(ref);
        }
        assert(ok && "evacuated chunk larger than virtual segment");
        (void)ok;
      }
    }
  }
  durable_cv_.notify_all();
  return moved.size();
}

bool VirtualLog::HasWork() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HasUnissuedWorkLocked();
}

VirtualLog::Stats VirtualLog::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<const VirtualSegment*> VirtualLog::Segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const VirtualSegment*> out;
  out.reserve(segments_.size());
  for (const auto& seg : segments_) out.push_back(seg.get());
  return out;
}

size_t VirtualLog::TrimReplicatedSegments() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t trimmed = 0;
  while (segments_.size() > 1 && segments_.front()->fully_replicated()) {
    segments_.pop_front();
    ++trimmed;
  }
  return trimmed;
}

}  // namespace kera
