#include "backup/backup.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/logging.h"
#include "rpc/call.h"
#include "wire/chunk.h"

namespace kera {

namespace {
/// Out-of-order batches buffered per replicated segment before the
/// contiguous prefix catches up. Primaries keep replication windows far
/// smaller than this; hitting the cap means a runaway sender.
constexpr size_t kMaxPendingBatches = 64;
}  // namespace

Backup::Backup(BackupConfig config) : config_(std::move(config)) {
  if (config_.storage_dir.empty()) return;
  log_ = std::make_unique<SegmentLog>(config_.storage_dir, config_.log);
  // Cold start: adopt the copy map the log scan rebuilt. Sealed copies
  // stay on disk (evicted); unsealed copies reload their payload into
  // memory — their size is the append point replication continues from.
  for (const SegmentLog::RecoveredCopy& rc : log_->RecoveredCopies()) {
    Key key{NodeId(rc.key.primary), rc.key.vlog, rc.key.vseg};
    ReplicatedSegment seg;
    seg.primary = NodeId(rc.key.primary);
    seg.vlog = rc.key.vlog;
    seg.vseg = rc.key.vseg;
    seg.chunk_count = rc.chunk_count;
    seg.running_checksum = rc.running_checksum;
    seg.sealed = rc.sealed;
    seg.open_logged = true;
    seg.seal_ticket = 0;  // whatever the scan saw is durable by definition
    if (rc.sealed) {
      seg.evicted = true;
      seg.durable_size = rc.size;
      largest_sealed_ = std::max(largest_sealed_, size_t(rc.size));
      ++stats_.segments_sealed;
    } else if (rc.size > 0) {
      seg.data.Resize(rc.size);
      uint64_t size = 0;
      Status s = log_->ReadSegmentInto(
          rc.key, {seg.data.data(), seg.data.size()}, size);
      if (!s.ok()) {
        KERA_ERROR("backup %u: dropping copy p%u/v%u/s%llu at restart: %s",
                   unsigned(config_.node), unsigned(rc.key.primary),
                   unsigned(rc.key.vlog),
                   (unsigned long long)rc.key.vseg, s.message().c_str());
        continue;
      }
      seg.data.Resize(size);
    }
    segments_.emplace(key, std::move(seg));
  }
}

Backup::~Backup() = default;

rpc::ReplicateResponse Backup::HandleReplicate(
    const rpc::ReplicateRequest& req) {
  rpc::ReplicateResponse resp;

  // Validate every chunk before mutating state: replication is atomic at
  // chunk granularity and a torn batch must not be partially applied.
  uint32_t parsed = 0;
  std::span<const std::byte> rest = req.payload;
  while (!rest.empty()) {
    auto chunk = ChunkView::Parse(rest);
    if (!chunk.ok() || !chunk->VerifyChecksum()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.checksum_failures;
      resp.status = StatusCode::kCorruption;
      return resp;
    }
    rest = rest.subspan(chunk->total_size());
    ++parsed;
  }
  if (parsed != req.chunk_count) {
    resp.status = StatusCode::kCorruption;
    return resp;
  }

  std::lock_guard<std::mutex> lock(mu_);
  Key key{req.primary, req.vlog, req.vseg};
  auto [slot, opened] = segments_.try_emplace(key);
  ReplicatedSegment& seg = slot->second;
  if (opened) seg.data.Reserve(largest_sealed_);
  seg.primary = req.primary;
  seg.vlog = req.vlog;
  seg.vseg = req.vseg;
  if (log_ != nullptr && !seg.open_logged) {
    log_->EnqueueOpen(LogKey(key));
    seg.open_logged = true;
  }

  auto apply_seal = [&](bool seals) {
    if (seals && !seg.sealed) {
      seg.sealed = true;
      largest_sealed_ = std::max(largest_sealed_, seg.data.size());
      // Holes still buffered at seal time are stale: the seal is the
      // primary's final word, so their bytes either were re-shipped and
      // applied already or were disowned by an abort.
      seg.pending.clear();
      ++stats_.segments_sealed;
      if (log_ != nullptr) {
        seg.seal_ticket = log_->EnqueueSeal(LogKey(key), seg.data.size(),
                                            seg.chunk_count,
                                            seg.running_checksum);
      }
    }
  };

  // Extends the virtual segment header checksum over the new chunks'
  // checksums, verifies against the primary's value, appends, and logs
  // the applied batch (group-committed by the segment log's flusher).
  auto apply_payload = [&](std::span<const std::byte> payload,
                           uint32_t chunk_count, uint32_t checksum_after,
                           bool seals) -> bool {
    uint32_t crc = seg.running_checksum;
    std::span<const std::byte> scan = payload;
    while (!scan.empty()) {
      auto chunk = ChunkView::Parse(scan);
      uint32_t chunk_crc = chunk->payload_checksum();
      crc = Crc32c(&chunk_crc, sizeof(chunk_crc), crc);
      scan = scan.subspan(chunk->total_size());
    }
    if (crc != checksum_after) {
      ++stats_.checksum_failures;
      return false;
    }
    uint64_t offset_before = seg.data.size();
    seg.data.Append(payload);
    seg.chunk_count += chunk_count;
    seg.running_checksum = crc;
    if (log_ != nullptr && !payload.empty()) {
      log_->EnqueueAppend(LogKey(key), offset_before, payload, chunk_count,
                          crc);
    }
    apply_seal(seals);
    return true;
  };

  // Applies buffered batches that have become contiguous. Entries the data
  // already covers are stale requeues (the primary aborted the window
  // suffix and re-shipped with different boundaries); drop them — the live
  // reissue carries their bytes.
  auto drain_pending = [&] {
    while (!seg.pending.empty()) {
      auto it = seg.pending.begin();
      if (it->first < seg.data.size()) {
        seg.pending.erase(it);
        continue;
      }
      if (it->first > seg.data.size()) break;
      PendingBatch b = std::move(it->second);
      seg.pending.erase(it);
      if (!apply_payload(b.payload, b.chunk_count, b.checksum_after,
                         b.seals)) {
        break;
      }
    }
  };

  if (req.start_offset > seg.data.size()) {
    // Hole: an earlier batch of the primary's replication window is still
    // in flight (the network may reorder concurrent batches). Buffer and
    // ack — the bytes are in backup memory, and the primary advances its
    // durable prefix in issue order, so data it acks to producers is
    // always contiguous here.
    if (seg.sealed) {
      // Only a stale duplicated frame can address bytes past a sealed
      // copy's final length; never buffer it.
      resp.status = StatusCode::kOutOfRange;
      return resp;
    }
    if (seg.pending.size() >= kMaxPendingBatches) {
      resp.status = StatusCode::kOutOfRange;
      return resp;
    }
    PendingBatch b;
    b.payload.assign(req.payload.begin(), req.payload.end());
    b.chunk_count = req.chunk_count;
    b.checksum_after = req.checksum_after;
    b.seals = req.seals;
    seg.pending[req.start_offset] = std::move(b);
    ++stats_.replicate_rpcs;
    stats_.bytes_received += req.payload.size();
    stats_.chunks_received += req.chunk_count;
    resp.status = StatusCode::kOk;
    return resp;
  }
  if (req.start_offset < seg.data.size() ||
      (req.payload.empty() && req.start_offset == seg.data.size())) {
    if (req.payload.empty() && req.seals &&
        req.start_offset < seg.data.size()) {
      // Seal below our size: the primary aborted a batch we had already
      // applied and evacuated its refs to a fresh segment, then sealed
      // this one at its retained length. The surplus suffix is disowned
      // (its chunks live in the evacuation target now) — truncate to the
      // sealed length and re-derive the prefix checksum, or this copy
      // would diverge forever and reject the seal on every retry. This
      // holds even when the aborted batch was the sealing one and we
      // sealed at its end: only the primary's last seal is final.
      uint32_t crc = 0;
      uint32_t chunks = 0;
      std::span<const std::byte> scan{seg.data.data(),
                                      size_t(req.start_offset)};
      while (!scan.empty()) {
        auto chunk = ChunkView::Parse(scan);
        if (!chunk.ok() || chunk->total_size() > scan.size()) break;
        uint32_t chunk_crc = chunk->payload_checksum();
        crc = Crc32c(&chunk_crc, sizeof(chunk_crc), crc);
        scan = scan.subspan(chunk->total_size());
        ++chunks;
      }
      if (!scan.empty() || crc != req.checksum_after) {
        ++stats_.checksum_failures;  // seal point not a clean chunk prefix
        resp.status = StatusCode::kCorruption;
        return resp;
      }
      seg.data.Resize(size_t(req.start_offset));
      seg.chunk_count = chunks;
      seg.running_checksum = crc;
      seg.pending.clear();  // buffered suffixes are part of the disowned tail
      seg.sealed = false;   // re-sealed (and logged) at the retained length
      if (log_ != nullptr) {
        log_->EnqueueTruncate(LogKey(key), req.start_offset, chunks, crc);
      }
      ++stats_.replicate_rpcs;
      apply_seal(true);
      resp.status = StatusCode::kOk;
      return resp;
    }
    // Already-applied batch (broker retry) or an empty seal-only batch:
    // idempotent ack, but still honor the seal flag.
    if (req.start_offset + req.payload.size() > seg.data.size()) {
      // Partial overlap: the primary aborted a window whose ack we sent
      // but it never saw (lost response), then re-coalesced the requeued
      // refs into a batch with shifted boundaries. The overlap prefix is
      // already applied; split on the chunk boundary at our append point
      // and apply only the new tail. A stale frame extending a SEALED
      // copy is rejected instead — the sealed length is final.
      if (seg.sealed) {
        resp.status = StatusCode::kOutOfRange;
        return resp;
      }
      size_t skip = seg.data.size() - size_t(req.start_offset);
      std::span<const std::byte> tail = req.payload;
      uint32_t tail_chunks = req.chunk_count;
      while (skip > 0) {
        auto chunk = ChunkView::Parse(tail);
        if (!chunk.ok() || chunk->total_size() > skip) break;
        skip -= chunk->total_size();
        tail = tail.subspan(chunk->total_size());
        --tail_chunks;
      }
      if (skip != 0) {
        // Our append point is not a chunk boundary of this batch: not a
        // re-ship of the stream we hold.
        resp.status = StatusCode::kOutOfRange;
        return resp;
      }
      if (!apply_payload(tail, tail_chunks, req.checksum_after,
                         req.seals)) {
        resp.status = StatusCode::kCorruption;
        return resp;
      }
      ++stats_.replicate_rpcs;
      stats_.bytes_received += tail.size();
      stats_.chunks_received += tail_chunks;
      drain_pending();
      resp.status = StatusCode::kOk;
      return resp;
    }
    if (req.payload.empty() && req.checksum_after != seg.running_checksum) {
      ++stats_.checksum_failures;
      resp.status = StatusCode::kCorruption;
      return resp;
    }
    apply_seal(req.seals);
    resp.status = StatusCode::kOk;
    return resp;
  }

  if (seg.sealed) {
    // A non-empty append landing exactly at a sealed copy's length is a
    // stale frame from before the seal; the sealed length is final.
    resp.status = StatusCode::kOutOfRange;
    return resp;
  }
  if (!apply_payload(req.payload, req.chunk_count, req.checksum_after,
                     req.seals)) {
    resp.status = StatusCode::kCorruption;
    return resp;
  }
  ++stats_.replicate_rpcs;
  stats_.bytes_received += req.payload.size();
  stats_.chunks_received += req.chunk_count;
  drain_pending();
  resp.status = StatusCode::kOk;
  return resp;
}

rpc::ListRecoverySegmentsResponse Backup::HandleList(
    const rpc::ListRecoverySegmentsRequest& req) {
  rpc::ListRecoverySegmentsResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, seg] : segments_) {
    if (seg.primary != req.crashed) continue;
    rpc::RecoverySegmentDescriptor d;
    d.primary = seg.primary;
    d.vlog = seg.vlog;
    d.vseg = seg.vseg;
    d.chunk_count = seg.chunk_count;
    d.sealed = seg.sealed;
    resp.segments.push_back(d);
  }
  return resp;
}

rpc::ReadRecoverySegmentBatchResponse Backup::HandleReadBatch(
    const rpc::ReadRecoverySegmentBatchRequest& req,
    std::vector<std::vector<std::byte>>& payload_storage) {
  rpc::ReadRecoverySegmentBatchResponse resp;
  resp.items.resize(req.items.size());
  // One buffer per item, allocated up front: the response spans reference
  // this storage, so the vector must never reallocate underneath them.
  payload_storage.clear();
  payload_storage.resize(req.items.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < req.items.size(); ++i) {
    auto& item = resp.items[i];
    item.vlog = req.items[i].vlog;
    item.vseg = req.items[i].vseg;
    Key key{req.crashed, item.vlog, item.vseg};
    auto it = segments_.find(key);
    if (it == segments_.end()) {
      item.status = StatusCode::kNotFound;
      continue;
    }
    ReplicatedSegment& seg = it->second;
    if (seg.evicted) {
      Status s = log_->ReadSegment(LogKey(key), payload_storage[i]);
      if (!s.ok()) {
        item.status = s.code();
        continue;
      }
      if (payload_storage[i].size() != seg.durable_size) {
        payload_storage[i].clear();
        item.status = StatusCode::kCorruption;
        continue;
      }
    } else {
      payload_storage[i].assign(seg.data.data(),
                                seg.data.data() + seg.data.size());
    }
    item.chunk_count = seg.chunk_count;
    item.payload = payload_storage[i];
  }
  return resp;
}

size_t Backup::DropSegmentsForPrimary(NodeId primary) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = segments_.begin(); it != segments_.end();) {
    if (it->second.primary == primary) {
      if (log_ != nullptr) log_->EnqueueEvacuate(LogKey(it->first));
      it = segments_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::vector<std::byte> Backup::HandleRpc(std::span<const std::byte> request) {
  // Outlives the dispatch: read replies reference this storage until
  // Dispatch materializes them.
  std::vector<std::vector<std::byte>> read_storage;
  return rpc::Dispatch(
      request,
      rpc::Serve<rpc::ReplicateRequest>(
          [this](const auto& req) { return HandleReplicate(req); }),
      rpc::Serve<rpc::ListRecoverySegmentsRequest>(
          [this](const auto& req) { return HandleList(req); }),
      rpc::Serve<rpc::ReadRecoverySegmentBatchRequest>(
          [&](const auto& req) { return HandleReadBatch(req, read_storage); }),
      rpc::Serve<rpc::EvacuateBackupSegmentsRequest>([this](const auto& req) {
        rpc::EvacuateBackupSegmentsResponse resp;
        resp.dropped = uint32_t(DropSegmentsForPrimary(req.primary));
        return resp;
      }));
}

void Backup::WaitForFlushes() {
  if (log_ != nullptr) (void)log_->Sync();
}

Backup::Stats Backup::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  if (log_ != nullptr) {
    SegmentLog::Stats ls = log_->GetStats();
    s.segments_flushed = ls.seals_durable;
    s.flush_groups = ls.flush_groups;
    s.fsyncs = ls.fsyncs;
    s.bytes_flushed = ls.bytes_flushed;
    s.gc_bytes_reclaimed = ls.gc_bytes_reclaimed;
    s.restart_scan_ms = ls.restart_scan_ms;
    s.io_errors = log_->status().ok() ? 0 : 1;
  }
  return s;
}

Backup::Stats& Backup::Stats::operator+=(const Stats& other) {
  replicate_rpcs += other.replicate_rpcs;
  bytes_received += other.bytes_received;
  chunks_received += other.chunks_received;
  checksum_failures += other.checksum_failures;
  segments_sealed += other.segments_sealed;
  segments_flushed += other.segments_flushed;
  flush_groups += other.flush_groups;
  fsyncs += other.fsyncs;
  bytes_flushed += other.bytes_flushed;
  gc_bytes_reclaimed += other.gc_bytes_reclaimed;
  restart_scan_ms += other.restart_scan_ms;
  io_errors += other.io_errors;
  return *this;
}

size_t Backup::SegmentCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

size_t Backup::EvictFlushed() {
  if (log_ == nullptr) return 0;
  uint64_t durable = log_->DurableTicket();
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto& [_, seg] : segments_) {
    if (!seg.sealed || seg.evicted) continue;
    if (seg.seal_ticket != 0 && durable < seg.seal_ticket) continue;
    seg.durable_size = seg.data.size();
    seg.data.Release();
    seg.evicted = true;
    ++evicted;
  }
  return evicted;
}

std::vector<Backup::DebugCopy> Backup::DebugCopies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DebugCopy> out;
  out.reserve(segments_.size());
  for (const auto& [key, seg] : segments_) {
    DebugCopy d;
    d.primary = seg.primary;
    d.vlog = seg.vlog;
    d.vseg = seg.vseg;
    d.size = seg.evicted ? seg.durable_size : seg.data.size();
    d.chunk_count = seg.chunk_count;
    d.running_checksum = seg.running_checksum;
    d.sealed = seg.sealed;
    d.evicted = seg.evicted;
    out.push_back(d);
  }
  return out;
}

}  // namespace kera
