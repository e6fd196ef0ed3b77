// TieredStore: the broker's tiered segment memory (RAMCloud lineage —
// DRAM is the primary store, disk the durable tier; Kafka tiered-storage
// pattern for catch-up consumers).
//
// Spill: once a physical segment is sealed, its payload is appended to a
// broker-local SegmentLog (the same crash-safe on-disk format backups
// use; the log's group-commit flusher is the per-broker spill worker
// doing the actual disk IO). Eviction: when a shard's sealed resident
// bytes exceed its slice of `memory_budget_bytes`, sealed segments whose
// chunks are covered by the vlog durable head are evicted in clock order
// (FIFO over seal order with second-chance skips for still-replicating
// or reader-pinned segments): the spill record is forced durable, the
// DRAM buffer is detached and returned to the MemoryManager. Spill and
// eviction decisions are made only at the broker's deterministic pump
// points — a pure function of seal order, durability order and budget,
// never wall-clock — so Direct/chaos transports stay byte-deterministic.
//
// Cold reads: a consume request hitting an evicted segment goes through
// a read-through cold-read cache — a bounded pool of segment buffers
// (its own MemoryManager partition, so a lagging full-history scan can
// never evict the hot tail path), populated from the spill log (every
// extent CRC32C-verified on load) with sequential readahead of the next
// N segments of the group (catch-up consumers scan forward). Consume
// responses keep the zero-copy encode: chunk spans alias cache memory,
// pinned by a shared_ptr hold for the life of the response.
//
// The spill log is broker-local scratch: a broker crash deletes it, and
// recovery rebuilds from backups — the spill tier never participates in
// the durability protocol.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "storage/memory_manager.h"
#include "storage/segment_log.h"
#include "storage/streamlet.h"

namespace kera {

struct TieredStoreOptions {
  /// Per-broker budget for sealed resident segment bytes; split evenly
  /// across shards (per-shard accounting, shards never contend).
  size_t memory_budget_bytes = 0;
  /// Broker-local spill log directory (created on demand).
  std::string spill_dir;
  size_t segment_size = 0;
  /// Cold-read cache pool; 0 defaults to 4 segment buffers.
  size_t cold_cache_bytes = 0;
  /// Segments of the group prefetched past a cold-cache miss.
  uint32_t readahead_segments = 2;
  uint32_t shards = 1;
  /// Run readahead on a background thread. Only for transports that are
  /// already non-deterministic (socket); the deterministic paths
  /// prefetch inline so the cache state is a function of the schedule.
  bool async_readahead = false;
  /// Spill-log flush pacing (group-commit knobs shared with backups).
  SegmentLogOptions log;
};

class TieredStore {
 public:
  /// A cold-cache entry: one spilled segment's payload [0, size), loaded
  /// from the spill log and CRC-verified. Consume responses hold it via
  /// shared_ptr; the pooled buffer returns to the cache pool when the
  /// last holder drops.
  struct ColdSegment {
    Buffer buf;
    uint64_t size = 0;
    MemoryManager* pool = nullptr;  // nullptr: transient overflow buffer
    // Mutated under the cache lock only.
    uint64_t last_use = 0;
    bool from_readahead = false;

    ~ColdSegment() {
      if (pool != nullptr) pool->Release(std::move(buf));
    }
    [[nodiscard]] std::span<const std::byte> bytes(uint32_t offset,
                                                   uint32_t length) const {
      return {buf.data() + offset, length};
    }
  };

  /// `memory` is the broker's hot segment pool (evicted buffers return
  /// there); the cold cache allocates its own separate pool.
  TieredStore(TieredStoreOptions options, MemoryManager& memory);
  ~TieredStore();

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  /// Registers a streamlet led (or recovered) by this broker; its groups
  /// and segments are discovered incrementally by Pump.
  void TrackStreamlet(StreamId stream, Streamlet* streamlet);

  /// Deterministic pump point: discovers newly sealed segments of the
  /// shard's streamlets (enqueuing their spill records), then evicts in
  /// clock order while the shard is over budget. Thread-safe per shard.
  void Pump(uint32_t shard);
  void PumpAll();

  /// Pre-trim hook (runs while the group's segments are still alive):
  /// drops the group's spill candidates and cache entries and enqueues
  /// evacuate records so the spill log's GC can reclaim the copies.
  void OnGroupTrim(StreamId stream, StreamletId streamlet, Group* group);

  /// Read-through cold read of an evicted segment: cache hit or a spill
  /// log load (CRC-verified) plus readahead of the following segments.
  [[nodiscard]] Result<std::shared_ptr<const ColdSegment>> ReadCold(
      StreamId stream, StreamletId streamlet, GroupId group,
      SegmentId segment);

  struct Stats {
    Counter segments_spilled;
    Counter segments_evicted;
    Counter spill_bytes;
    Counter cold_reads;         // consume chunks served from cold tier
    Counter cold_cache_hits;    // segment lookups resolved in cache
    Counter cold_cache_misses;  // segment lookups that hit the disk
    Counter readahead_hits;     // misses avoided by an earlier prefetch
    Counter readahead_loads;    // segments loaded speculatively
    uint64_t resident_sealed_bytes = 0;  // unevicted sealed bytes (tracked)
    SegmentLog::Stats log;
  };
  [[nodiscard]] Stats GetStats() const;

  /// Counts one chunk served from cold memory (the broker's consume path
  /// calls it; kept here so the counter rides the tier's stats).
  void NoteColdChunksServed(uint64_t n) {
    stats_.cold_reads += n;
  }

  [[nodiscard]] uint32_t ShardOf(StreamletId streamlet) const {
    return shards_n_ <= 1 ? 0 : streamlet % shards_n_;
  }

 private:
  struct Candidate {
    StreamId stream = 0;
    StreamletId streamlet = 0;
    GroupId group_id = 0;
    SegmentId segment_id = 0;
    Segment* segment = nullptr;
    uint64_t ticket = 0;  // spill-log ticket of the seal record
    uint64_t bytes = 0;   // payload size at seal (header + chunks)
  };
  struct GroupTrack {
    Group* group = nullptr;
    SegmentId next_spill = 0;  // segments [0, next_spill) are enqueued
  };
  struct StreamletTrack {
    Streamlet* streamlet = nullptr;
    GroupId next_new_group = 0;
    std::map<GroupId, GroupTrack> open;  // groups not yet fully spilled
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::map<std::pair<StreamId, StreamletId>, StreamletTrack> streamlets;
    /// Clock queue: candidates in spill (seal-discovery) order; the hand
    /// scans from the front, skipping non-durable or pinned segments.
    std::deque<Candidate> candidates;
    /// Spilled segments per group (= [0, count)), kept until trim so the
    /// evacuate records cover evicted candidates too.
    std::map<std::tuple<StreamId, StreamletId, GroupId>, uint32_t> spilled;
    uint64_t resident_sealed = 0;
  };

  [[nodiscard]] static SegmentLog::CopyKey KeyFor(StreamId stream,
                                                 StreamletId streamlet,
                                                 GroupId group,
                                                 SegmentId segment) {
    return {uint64_t(stream), VlogId(streamlet),
            (uint64_t(group) << 32) | uint64_t(segment)};
  }

  void SpillSegmentLocked(Shard& sh, StreamId stream, StreamletId streamlet,
                          GroupId group, SegmentId segment_id, Segment* seg);
  void EvictLocked(Shard& sh);
  /// Loads one segment from the spill log into the cache. Caller holds
  /// cache_mu_. kNotFound when the copy is not (yet) in the log.
  Result<std::shared_ptr<ColdSegment>> LoadLocked(
      const SegmentLog::CopyKey& key, bool from_readahead);
  void ReadaheadWorker();

  const TieredStoreOptions options_;
  const uint32_t shards_n_;
  const size_t budget_per_shard_;
  MemoryManager& memory_;      // hot pool (evicted buffers go back here)
  MemoryManager cold_pool_;    // cold-cache partition, never the hot tail
  std::unique_ptr<SegmentLog> log_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex cache_mu_;
  std::map<SegmentLog::CopyKey, std::shared_ptr<ColdSegment>> cache_;
  uint64_t cache_clock_ = 0;

  Stats stats_;  // live counters; GetStats fills the derived fields

  // Async readahead (socket transport only).
  std::mutex ra_mu_;
  std::condition_variable ra_cv_;
  std::deque<SegmentLog::CopyKey> ra_queue_;
  bool ra_shutdown_ = false;
  std::thread ra_worker_;
};

}  // namespace kera
