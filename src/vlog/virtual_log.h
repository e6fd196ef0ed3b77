// Virtual log: a shared replicated log of chunk *references*, decoupling
// replication (durability) from stream partitioning (ordering). Multiple
// streams'/streamlets' partitions are associated with one virtual log; the
// log replicates their chunks to backups in larger aggregated I/Os,
// replacing one-replicated-log-per-partition (Kafka) with a consolidated
// shared log (the paper's core contribution, §III-IV).
//
// Replication is *pipelined*: up to config.replication_window batches may
// be outstanding per log. Issue order is the log order (oldest unissued
// refs first); completions may arrive out of order, but the durable prefix
// only advances over the contiguous prefix of completed batches, so
// durability (and everything derived from it: group durable counts,
// checksum chain, consumer visibility) stays ordered. Aborting a batch
// requeues its range and every batch issued after it.
//
// Threading: appends and replication-state transitions are internally
// synchronized. A broker's produce handlers are the only live driver of
// replication: each polls batches on every vlog its request touched,
// ships them concurrently, and sleeps in WaitChunkDurableOrIdle while
// other handlers fill the window. Every path that advances a durable
// prefix (Append at R=1, Complete, EvacuateSegment) wakes the waiters.
// The DES harness drives Poll/Complete with simulated time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/types.h"
#include "vlog/virtual_segment.h"

namespace kera {

/// Picks the backup set for a newly opened virtual segment. Called with
/// the virtual segment id; returns R-1 distinct backup nodes. Rotating the
/// set per segment scatters replicas for parallel crash recovery.
using BackupSelector =
    std::function<std::vector<NodeId>(VirtualSegmentId)>;

struct VirtualLogConfig {
  /// Virtual capacity of one virtual segment (sum of referenced chunk
  /// lengths before rolling over).
  size_t virtual_segment_capacity = 8u << 20;
  /// Total copies of the data (1 = broker only, no backups).
  uint32_t replication_factor = 3;
  /// Max bytes of chunk data replicated by one RPC batch.
  size_t max_batch_bytes = 1u << 20;
  /// Max replication batches outstanding at once (1 = classic synchronous
  /// stop-and-wait replication; >1 pipelines batches so replication
  /// round-trips overlap and the backup links stay full).
  uint32_t replication_window = 1;
  /// First virtual segment id this log hands out. Backups key copies by
  /// (primary, vlog, vseg), so segment ids must never repeat across a
  /// primary's process incarnations — a restarted broker would otherwise
  /// collide with stale copies of its previous life still held by
  /// backups. Callers bake the incarnation into the high bits.
  VirtualSegmentId first_segment_id = 0;
};

/// A unit of replication work: a contiguous run of unreplicated chunk refs
/// of one virtual segment, to be pushed to that segment's backup set.
struct ReplicationBatch {
  uint64_t id = 0;                  // issue ticket; matches Complete/Abort
  VlogId vlog = 0;
  VirtualSegmentId vseg = 0;
  std::vector<NodeId> backups;
  uint64_t start_ref = 0;           // index of the first ref in the batch
  std::vector<ChunkRef> refs;       // the refs to ship
  size_t bytes = 0;                 // sum of chunk lengths
  uint64_t start_offset = 0;        // virtual byte offset of the batch start
  bool seals_segment = false;       // segment is closed and batch reaches end
  uint32_t checksum_after = 0;      // vseg header checksum after this batch
};

class VirtualLog {
 public:
  VirtualLog(VlogId id, VirtualLogConfig config, BackupSelector selector);

  VirtualLog(const VirtualLog&) = delete;
  VirtualLog& operator=(const VirtualLog&) = delete;

  /// Appends a chunk reference to the open virtual segment, rolling to a
  /// new virtual segment (with a fresh backup set) when full. With
  /// replication_factor == 1 the chunk is immediately durable.
  /// Returns the (virtual segment id, ref index) position.
  struct AppendPosition {
    VirtualSegmentId vseg;
    uint64_t ref_index;
  };
  AppendPosition Append(const ChunkRef& ref);

  /// Returns the next replication batch if unissued data is pending and
  /// the replication window has a free slot. Batches are issued in log
  /// order, each starting where the previous one (durable or in flight)
  /// ended. The caller ships the chunks to every backup in batch.backups
  /// and then calls Complete (or Abort on failure).
  [[nodiscard]] std::optional<ReplicationBatch> Poll();

  /// Acknowledges an outstanding batch. Completions may arrive out of
  /// order; the durable prefix (headers, group durability, waiter wakeup)
  /// advances only over the contiguous prefix of completed batches, in
  /// issue order. Completing a batch that was dropped by Abort/Evacuate is
  /// a no-op (the range was requeued and will be re-shipped).
  void Complete(const ReplicationBatch& batch);

  /// Returns an outstanding batch to the pending state (backup failure).
  /// The aborted batch AND every batch issued after it are requeued — a
  /// later batch must never become durable over a hole — and will be
  /// re-polled, possibly after the selector re-targets backups.
  void Abort(const ReplicationBatch& batch);

  /// Blocks until the chunk is durable OR the caller could usefully drive
  /// replication itself (unissued work pending and a window slot free).
  /// Durability is tracked through the chunk's group (robust to segment
  /// evacuation, which renumbers positions). Returns whether the chunk is
  /// durable. This is the building block of the synchronous produce
  /// handler's replicate-or-wait loop: whichever worker thread finds the
  /// vlog pollable ships the next batch, and the others sleep.
  [[nodiscard]] bool WaitChunkDurableOrIdle(const ChunkRef& ref);

  /// Backup-failure handling: closes the segment, moves its unreplicated
  /// refs (in order) to a fresh segment with a newly selected backup set,
  /// and wakes waiters. The already-durable prefix stays where it is.
  /// Outstanding batches covering the victim or any later segment are
  /// dropped from the window (their refs move, so late completions for
  /// them are ignored). Returns the number of refs moved.
  size_t EvacuateSegment(VirtualSegmentId vseg);
  [[nodiscard]] bool IsDurable(AppendPosition pos) const;

  [[nodiscard]] VlogId id() const { return id_; }
  [[nodiscard]] uint32_t replication_factor() const {
    return config_.replication_factor;
  }

  /// True if unissued replication work is pending (regardless of window
  /// occupancy — Poll may still return nullopt when the window is full).
  [[nodiscard]] bool HasWork() const;

  struct Stats {
    uint64_t chunks_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t batches_issued = 0;     // replication batches (per-vlog, not
                                     // per-backup; multiply by R-1 for RPCs)
    uint64_t bytes_replicated = 0;   // per-vlog (one copy)
    uint64_t segments_opened = 0;
    uint64_t max_inflight_batches = 0;  // high-water mark of the window
  };
  [[nodiscard]] Stats GetStats() const;

  /// Virtual segments, oldest first (recovery and tests).
  [[nodiscard]] std::vector<const VirtualSegment*> Segments() const;

  /// Drops fully replicated virtual segments older than the open one whose
  /// references are no longer needed (their chunk data durability has been
  /// propagated). Keeps memory bounded in long runs.
  size_t TrimReplicatedSegments();

 private:
  /// One issued-but-not-yet-applied replication batch.
  struct Outstanding {
    uint64_t id = 0;
    VirtualSegmentId vseg = 0;
    uint64_t start_ref = 0;
    size_t ref_count = 0;
    size_t bytes = 0;
    bool seals = false;
    bool done = false;  // acked by all backups, awaiting in-order apply
  };

  VirtualSegment* OpenSegmentLocked();
  /// O(1) lookup: segment ids are contiguous in segments_ (assigned
  /// sequentially, trimmed only from the front). nullptr if trimmed away
  /// (== fully replicated) or not yet opened.
  [[nodiscard]] VirtualSegment* FindSegmentLocked(VirtualSegmentId vseg) const;
  [[nodiscard]] bool DurableLocked(AppendPosition pos) const;
  [[nodiscard]] bool ChunkDurableLocked(const ChunkRef& ref) const;
  /// Unissued work exists (data refs or a seal past every outstanding
  /// batch of its segment).
  [[nodiscard]] bool HasUnissuedWorkLocked() const;
  /// Applies the contiguous prefix of completed outstanding batches, in
  /// issue order, advancing durable headers and group durability.
  void ApplyCompletedPrefixLocked();

  const VlogId id_;
  const VirtualLogConfig config_;
  const BackupSelector selector_;

  mutable std::mutex mu_;
  std::condition_variable durable_cv_;
  std::deque<std::unique_ptr<VirtualSegment>> segments_;
  VirtualSegmentId next_segment_id_ = 0;

  std::deque<Outstanding> inflight_;  // issue order
  uint64_t next_batch_id_ = 1;

  Stats stats_;
};

}  // namespace kera
