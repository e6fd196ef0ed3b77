// Backup service: holds passive replicas of virtual segments, acknowledges
// replication once data is buffered in memory (the producer path is never
// gated on secondary storage), and persists every applied batch through a
// log-structured store (SegmentLog) with group-commit flushing. Sealed
// copies whose seal record is durable can drop their payload memory
// (EvictFlushed); recovery reads reload them from the log. A cold-started
// Backup rebuilds its entire copy map by scanning the log directory —
// there is no sidecar state. At recovery time it lists and serves the
// segments belonging to a crashed broker, and drops ("evacuates") them
// once the coordinator has replayed the crashed primary elsewhere, which
// turns their log records into GC-collectable garbage.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "storage/segment_log.h"
#include "common/mapped_buffer.h"
#include "common/status.h"
#include "common/types.h"
#include "rpc/messages.h"
#include "rpc/transport.h"

namespace kera {

struct BackupConfig {
  NodeId node = 0;
  /// When non-empty, every applied batch is persisted into the segment
  /// log under this directory; empty keeps the backup memory-only.
  std::string storage_dir;
  /// Segment-log knobs (log file size, group-commit pacing, GC threshold).
  SegmentLogOptions log;
};

class Backup final : public rpc::RpcHandler {
 public:
  explicit Backup(BackupConfig config);
  ~Backup() override;

  Backup(const Backup&) = delete;
  Backup& operator=(const Backup&) = delete;

  std::vector<std::byte> HandleRpc(std::span<const std::byte> request) override;

  // Direct handlers (the DES calls these without framing).
  rpc::ReplicateResponse HandleReplicate(const rpc::ReplicateRequest& req);
  rpc::ListRecoverySegmentsResponse HandleList(
      const rpc::ListRecoverySegmentsRequest& req);
  /// Batched recovery read: serves several virtual segments in one round
  /// trip (parallel recovery pulls `recovery_read_batch` segments per
  /// RPC). `payload_storage` receives one buffer per requested segment;
  /// the response spans point into it. Per-segment failures (unknown
  /// copy, log read error) are reported in the matching item's status —
  /// the RPC itself still succeeds.
  rpc::ReadRecoverySegmentBatchResponse HandleReadBatch(
      const rpc::ReadRecoverySegmentBatchRequest& req,
      std::vector<std::vector<std::byte>>& payload_storage);

  /// Drops every copy whose primary is `primary` (the coordinator calls
  /// this after recovery replay re-produced the crashed broker's data at
  /// its new leaders): the copies leave the in-memory map immediately and
  /// an evacuate record makes the drop durable, turning their log records
  /// into garbage the collector can reclaim. Returns copies dropped.
  size_t DropSegmentsForPrimary(NodeId primary);

  struct Stats {
    uint64_t replicate_rpcs = 0;
    uint64_t bytes_received = 0;
    uint64_t chunks_received = 0;
    uint64_t checksum_failures = 0;
    uint64_t segments_sealed = 0;
    /// Sealed copies whose seal record is durable in the segment log
    /// (including seals recovered by the restart scan).
    uint64_t segments_flushed = 0;
    // Segment-log flush path (zero when storage_dir is empty):
    uint64_t flush_groups = 0;
    uint64_t fsyncs = 0;
    uint64_t bytes_flushed = 0;
    uint64_t gc_bytes_reclaimed = 0;
    uint64_t restart_scan_ms = 0;
    uint64_t io_errors = 0;  // sticky segment-log IO failure (0 or 1)

    /// Adds every field of `other`: the one merge of per-backup stats
    /// into a cluster total.
    Stats& operator+=(const Stats& other);
  };
  [[nodiscard]] Stats GetStats() const;

  /// Blocks until everything enqueued to the segment log so far is
  /// durable (one forced flush group); no-op without a storage_dir.
  void WaitForFlushes();

  /// Number of replicated segments currently held (memory + disk).
  [[nodiscard]] size_t SegmentCount() const;

  /// Drops the in-memory payload of every sealed copy whose seal record
  /// is durable; recovery reads reload them from the segment log.
  size_t EvictFlushed();

  /// Copy descriptors for test/chaos oracles (the power-loss invariant
  /// re-reads and re-validates every recovered copy through
  /// HandleReadBatch).
  struct DebugCopy {
    NodeId primary = 0;
    VlogId vlog = 0;
    VirtualSegmentId vseg = 0;
    uint64_t size = 0;
    uint32_t chunk_count = 0;
    uint32_t running_checksum = 0;
    bool sealed = false;
    bool evicted = false;
  };
  [[nodiscard]] std::vector<DebugCopy> DebugCopies() const;

 private:
  /// A batch that arrived ahead of a gap (the primary pipelines several
  /// batches per virtual log; the network may reorder them). Buffered,
  /// validated, and applied once the contiguous prefix catches up.
  struct PendingBatch {
    std::vector<std::byte> payload;
    uint32_t chunk_count = 0;
    uint32_t checksum_after = 0;
    bool seals = false;
  };

  struct ReplicatedSegment {
    NodeId primary = 0;
    VlogId vlog = 0;
    VirtualSegmentId vseg = 0;
    /// Concatenated chunk frames. A new copy reserves the largest copy
    /// sealed here so far, so in steady state appends under mu_ never
    /// grow it; reserved room that stays unwritten costs no memory.
    MappedBuffer data;
    uint32_t chunk_count = 0;
    uint32_t running_checksum = 0;  // over chunk payload checksums, in order
    std::map<uint64_t, PendingBatch> pending;  // keyed by start_offset
    bool sealed = false;
    bool evicted = false;
    /// For evicted copies: the durable payload size served from the log.
    uint64_t durable_size = 0;
    /// Segment-log ticket of the seal record; 0 means "already durable"
    /// (copies recovered from the restart scan).
    uint64_t seal_ticket = 0;
    bool open_logged = false;
  };
  using Key = std::tuple<NodeId, VlogId, VirtualSegmentId>;

  [[nodiscard]] static SegmentLog::CopyKey LogKey(const Key& key) {
    return {std::get<0>(key), std::get<1>(key), std::get<2>(key)};
  }

  const BackupConfig config_;
  mutable std::mutex mu_;
  std::map<Key, ReplicatedSegment> segments_;
  /// Size of the largest copy sealed here (guarded by mu_): the virtual
  /// segment size the primaries ship, learned from their traffic.
  size_t largest_sealed_ = 0;
  Stats stats_;
  std::unique_ptr<SegmentLog> log_;  // null when storage_dir is empty
};

}  // namespace kera
