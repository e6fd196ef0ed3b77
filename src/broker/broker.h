// Broker service: leads stream partitions (streamlets), ingests producer
// chunks into group segments, associates partitions with shared replicated
// virtual logs (transparently to clients), drives replication to backups,
// and serves consumers with durably replicated chunks only.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "broker/tiered_store.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "rpc/messages.h"
#include "rpc/transport.h"
#include "storage/memory_manager.h"
#include "storage/stream.h"
#include "vlog/virtual_log.h"
#include "wire/chunk.h"

namespace kera {

struct BrokerConfig {
  NodeId node = 0;
  /// Process incarnation of this broker (0 for the first life, bumped on
  /// every restart). Baked into the high bits of virtual segment ids so a
  /// restarted broker never reuses (vlog, vseg) keys that backups may
  /// still hold from its previous life.
  uint64_t incarnation = 0;
  /// Broker memory budget for segment buffers.
  size_t memory_bytes = size_t(1) << 30;
  /// Segment geometry (stream Q comes from StreamOptions at creation).
  size_t segment_size = 8u << 20;
  uint32_t segments_per_group = 4;
  /// Virtual log geometry.
  size_t virtual_segment_capacity = 8u << 20;
  size_t replication_max_batch_bytes = 1u << 20;
  /// Size of the shared vlog pool for VlogPolicy::kSharedPerBroker (the
  /// paper's "replication capacity" knob: 1, 2, 4, ... vlogs per broker).
  uint32_t vlogs_per_broker = 4;
  /// Nodes hosting backup services (usually all cluster nodes; self is
  /// excluded when picking a virtual segment's backup set).
  std::vector<NodeId> backup_nodes;
  /// Verify chunk payload checksums on ingest.
  bool verify_chunk_checksums = true;
  /// Replication RPC retries before failing the producer request.
  int replication_retries = 3;
  /// Max replication batches in flight per virtual log (1 = the classic
  /// synchronous stop-and-wait pipeline; >1 overlaps round-trips).
  uint32_t replication_window = 1;
  /// Always 0 (produce handlers drive replication); e2ebench reports it.
  static constexpr uint32_t replication_workers = 0;
  /// Server-side cap on ConsumeRequest::max_wait_us (long-poll): a parked
  /// consume request never outlives this, no matter what the client asks
  /// for, so handler threads are reclaimed on a bounded schedule.
  uint64_t max_consume_wait_us = 1'000'000;
  /// Shared-nothing shard count: the broker's hot-path state (leadership
  /// sets, dedup tables, long-poll parking, vlog caches) is partitioned
  /// into this many per-core shards by streamlet id (streamlet % shards),
  /// and the shared vlog pool is sliced so a streamlet only ever resolves
  /// to a vlog owned by its shard. 1 (the default) reproduces the
  /// single-shard behavior exactly. Correctness never depends on the
  /// transport routing frames to the right shard — any thread may handle
  /// any frame — but a shard-affine transport (SocketNetwork with a
  /// router) makes the per-shard locks effectively uncontended.
  uint32_t shards = 1;
  /// Tiered broker memory. 0 (the default) keeps every segment resident —
  /// exactly the pre-tiering behavior. A non-zero budget caps the bytes of
  /// SEALED segments kept in DRAM: once a sealed segment's chunks are all
  /// covered by the vlog durable head, its payload is spilled to the
  /// broker-local spill log and the buffer is evicted (returned to the
  /// MemoryManager) whenever the per-shard budget is exceeded, oldest
  /// seal first. Open segments are never evicted, so the true resident
  /// ceiling is budget + (active groups * segment_size) of open-segment
  /// slack. Requires `spill_dir`.
  size_t memory_budget_bytes = 0;
  /// Directory for the broker-local spill log (scratch: deleted on crash,
  /// recovery comes from backups). Tiering is off while empty.
  std::string spill_dir;
  /// Cold-read cache pool for catch-up consumers hitting evicted
  /// segments; its buffers are a partition separate from the hot segment
  /// pool, so a lagging scan can never evict the hot tail. 0 defaults to
  /// 4 segment buffers.
  size_t cold_cache_bytes = 0;
  /// Segments of a group prefetched sequentially past a cold-cache miss.
  uint32_t readahead_segments = 2;
  /// Prefetch on a background thread (only sensible on transports that
  /// are already nondeterministic; the chaos/DES paths keep it inline).
  bool async_readahead = false;
};

class Broker final : public rpc::RpcHandler {
 public:
  Broker(BrokerConfig config, rpc::Network& network);
  ~Broker() override;

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // ----- control plane (invoked by the coordinator, in-process) -----

  /// Registers a stream this broker participates in.
  Status AddStream(const std::string& name, const rpc::StreamInfo& info);

  /// Declares this broker the leader of `streamlet` (storage is created).
  /// With `awaits_replay` (recovery or migration moved the streamlet here)
  /// it refuses live appends to the streamlet with kUnavailable until
  /// FinishRecovery: a live chunk landing first would make the dedup drop
  /// every replayed chunk of its producer with a lower sequence.
  Status AddStreamlet(StreamId stream, StreamletId streamlet,
                      bool awaits_replay = false);

  /// Seals a stream on this broker (bounded stream / object): closes the
  /// active groups and rejects further non-recovery produces.
  Status SealStream(StreamId stream);

  /// Marks a recovery/migration replay complete on this broker: closes
  /// every streamlet's recovery groups so consumers advance past them, and
  /// lifts the stream's replay refusals (see AddStreamlet).
  Status FinishRecovery(StreamId stream);

  /// Relinquishes leadership of a streamlet after migration: produces are
  /// rejected with kNotLeader, but the storage (and the virtual-log
  /// references into it) stays until trimmed; stale consumers can still
  /// read the durable prefix. Returns once every chunk that passed
  /// HandleProduce's leadership check before is durable or failed, so a
  /// replay from the backups right after it sees every chunk HandleProduce
  /// acked. HandleProduceNoSync chunks are not waited for: that path acks
  /// before replication, which its caller drives.
  Status DropStreamletLeadership(StreamId stream, StreamletId streamlet);

  /// Membership update from the coordinator: the set of backup services
  /// currently alive. Newly opened virtual segments only target live
  /// backups; open segments bound to a dead backup are evacuated lazily
  /// when their replication fails.
  void SetLiveBackups(std::vector<NodeId> live_backup_services);

  // ----- data plane -----

  std::vector<std::byte> HandleRpc(std::span<const std::byte> request) override;

  /// Direct produce entry point (DES and tests). Appends every chunk to
  /// its streamlet's active group and to the mapped virtual log, then
  /// drives replication until all appended chunks are durable.
  rpc::ProduceResponse HandleProduce(const rpc::ProduceRequest& req);

  /// Like HandleProduce but stops after the physical + vlog appends,
  /// returning each appended chunk's (vlog, ref) without driving
  /// replication. The DES uses this to schedule replication RPCs on
  /// simulated time and to track per-chunk durability for acks.
  rpc::ProduceResponse HandleProduceNoSync(
      const rpc::ProduceRequest& req,
      std::vector<std::pair<VirtualLog*, ChunkRef>>* appended);

  rpc::ConsumeResponse HandleConsume(const rpc::ConsumeRequest& req);

  /// Durably commits a consumer's cursor positions: each entry is encoded
  /// into a kChunkFlagOffsetCommit system chunk for its streamlet (under
  /// the consumer's system producer id, 0x80000000 | consumer) and driven
  /// through the ordinary produce path — so commits replicate, dedup,
  /// spill under tiered memory and rebuild on crash recovery exactly like
  /// data chunks.
  rpc::CommitOffsetsResponse HandleCommitOffsets(
      const rpc::CommitOffsetsRequest& req);

  /// Reads back the last committed cursor per requested streamlet (the
  /// in-memory table maintained by AppendOneChunk from offset chunks,
  /// including recovery replays).
  rpc::FetchOffsetsResponse HandleFetchOffsets(
      const rpc::FetchOffsetsRequest& req);

  // ----- replication plumbing -----

  /// Ships one batch to its backup set (parallel RPCs) and completes or
  /// aborts it on the vlog: IssueBatch followed by FinishBatch. Returns
  /// the replication status.
  Status ShipBatch(VirtualLog& vlog, const ReplicationBatch& batch);

  // ----- introspection / maintenance -----

  /// Counter fields are counted live (the broker's stats_ is this
  /// struct); plain fields are filled by GetStats from the shard
  /// runtimes, the segment pool and the tiered store.
  struct Stats {
    Counter produce_rpcs;
    Counter chunks_appended;
    Counter chunks_duplicate;
    /// Chunks rejected because their producer epoch is older than the
    /// broker's known epoch for that (streamlet, producer) — a fenced
    /// zombie from before a coordinator re-allocation.
    Counter chunks_fenced;
    /// Consumer offset-commit system chunks appended (dedup hits on commit
    /// retries count under chunks_duplicate like any other chunk).
    Counter offset_commits;
    Counter bytes_appended;
    Counter consume_rpcs;
    Counter chunks_served;
    Counter consume_long_polls;  // consume RPCs that parked at least once
    Counter replication_batches;
    Counter replication_rpcs;
    Counter replication_bytes;  // bytes * (R-1), i.e. network cost
    Counter checksum_failures;
    /// Crash-recovery re-ingest (ProduceRequest::recovery): requests,
    /// chunks and frame bytes applied through the recovery-produce path.
    Counter recovery_produce_rpcs;
    Counter recovery_chunks_appended;
    Counter recovery_bytes_appended;
    /// Shared-nothing contention telemetry: data-plane items (chunks and
    /// consume entries) handled under a different shard's frame, and
    /// data-plane frames per shard (produce + consume; size ==
    /// config().shards). Mis-routing shows up as cross_shard_ops > 0 or a
    /// lopsided shard_frames.
    Counter cross_shard_ops;
    std::vector<uint64_t> shard_frames;
    /// Tiered broker memory: spill/eviction activity and the cold-read
    /// path (all zero while memory_budget_bytes == 0).
    uint64_t segments_spilled = 0;
    uint64_t segments_evicted = 0;
    uint64_t spill_bytes = 0;
    uint64_t cold_reads = 0;
    uint64_t cold_cache_hits = 0;
    uint64_t cold_cache_misses = 0;
    uint64_t readahead_hits = 0;
    /// Segment-pool observability (from MemoryManager::GetStats).
    uint64_t memory_buffers_outstanding = 0;
    uint64_t memory_peak_buffers = 0;
    uint64_t memory_bytes_resident = 0;

    /// Adds every field of `other` (shard_frames element-wise): the one
    /// merge of per-broker stats into a cluster total.
    Stats& operator+=(const Stats& other);
  };
  [[nodiscard]] Stats GetStats() const;

  /// Per-(streamlet, producer) dedup-hit counts for a stream, merged
  /// across shards. The chaos harness checks the duplication bound per
  /// key with this (a global sum would smear one producer's dedup bug
  /// across every key in the schedule).
  [[nodiscard]] std::map<std::pair<StreamletId, ProducerId>, uint64_t>
  DedupHitsByKey(StreamId stream) const;

  /// Shard of a streamlet in the shared-nothing runtime (identity map to
  /// 0 when shards == 1). The transport's frame router must agree.
  [[nodiscard]] uint32_t ShardOf(StreamletId streamlet) const {
    return shards_ <= 1 ? 0 : streamlet % shards_;
  }
  [[nodiscard]] uint32_t shards() const { return shards_; }

  [[nodiscard]] Stream* GetStream(StreamId id) const;
  [[nodiscard]] MemoryManager& memory() { return memory_; }
  [[nodiscard]] NodeId node() const { return config_.node; }
  [[nodiscard]] const BrokerConfig& config() const { return config_; }

  /// All virtual logs currently instantiated on this broker.
  [[nodiscard]] std::vector<VirtualLog*> VirtualLogs() const;

  /// Human-readable snapshot of this broker's streams, groups and virtual
  /// logs (operator introspection; not a stable format).
  [[nodiscard]] std::string DebugString() const;

  /// Trims fully durable closed groups older than each streamlet's newest
  /// group and fully replicated virtual segments. Returns groups trimmed.
  size_t TrimDurable();

  /// Quiescence helper (deterministic tests): drives every virtual log's
  /// pending replication work to completion on the calling thread.
  /// Batches a concurrent produce handler has in flight are left to it; a
  /// vlog whose full window holds back unissued work counts as not
  /// drained. Gives up after `max_failed_batches` failed ship attempts (a
  /// dead backup would otherwise mean an endless abort/evacuate/retry
  /// loop); returns true when every vlog drained.
  bool DrainReplication(int max_failed_batches = 8);

  /// No-op (no replication thread exists); e2ebench's teardown calls it.
  void StopReplicator() {}

  /// Wakes every parked long-poll consume request and makes subsequent
  /// ones return immediately. Call before shutting down the transport that
  /// delivers consume RPCs so its handler threads are not held until the
  /// poll deadline; the destructor also calls it.
  void StopConsumeWaits();

  /// The tiered segment store, or nullptr when memory_budget_bytes == 0
  /// (unbounded: every segment stays resident).
  [[nodiscard]] TieredStore* tiered() const { return tiered_.get(); }

 private:
  struct StreamEntry {
    std::unique_ptr<Stream> storage;
    std::string name;
    /// Immutable after AddStream (the mutable seal bit lives in `sealed`).
    rpc::StreamInfo info;
    /// Bounded-stream seal: checked on every append/gather, flipped once
    /// by SealStream. Atomic so no shard lock covers a stream-wide bit.
    std::atomic<bool> sealed{false};
    /// Count of long-pollers parked on a shard other than (some of) the
    /// shards their entries live on (a consume request may span shards).
    /// While > 0, every wake-worthy event broadcasts to all shards; the
    /// hot single-shard path never pays for this.
    std::atomic<uint32_t> cross_parked{0};
    /// Exactly-once dedup state per (streamlet, producer): the last
    /// accepted chunk sequence plus where that chunk landed, so a
    /// duplicate retry can WAIT for the original's durability instead of
    /// being acked immediately (a retry usually means the producer never
    /// saw an ack; acking before the original replicates would fabricate
    /// durability — the chunk can still be lost to a crash). `vlog` is
    /// broker-owned and outlives the entry; it stays nullptr while the
    /// original append is still in flight, and a retry in that window is
    /// answered kUnavailable (nothing is stored yet to wait for, and the
    /// append may still fail). The group is re-resolved by id at wait
    /// time because trimming destroys Group objects (a trimmed group was
    /// fully durable).
    struct DedupEntry {
      ChunkSeq seq = 0;
      VirtualLog* vlog = nullptr;
      GroupId group = 0;
      uint64_t group_chunk_index = 0;
      /// Producer session epoch of the last accepted chunk (0 for
      /// classic epoch-less producers). A chunk with a LOWER epoch is a
      /// fenced zombie (kFenced); a HIGHER epoch starts a new session and
      /// resets the sequence window. Epoch bytes ride in the chunk header
      /// itself, so replication and recovery replay rebuild this field
      /// with no separate dedup record type.
      uint32_t epoch = 0;
    };
    /// Committed consumer cursor per (streamlet, consumer id), applied
    /// monotonically from kChunkFlagOffsetCommit chunks at append time
    /// (including recovery replays — the table rebuilds from the log).
    struct OffsetEntry {
      GroupId group = 0;
      uint64_t next_chunk = 0;
    };
    /// The shared-nothing unit: every mutable hot-path field is owned by
    /// one shard (streamlet % shards) and guarded by that shard's `mu`
    /// only — produce/consume/replication on different shards of the same
    /// stream never serialize on one lock or bounce one cache line. With
    /// shards == 1 this collapses to the old per-stream lock.
    struct alignas(64) ShardState {
      mutable std::mutex mu;
      std::set<StreamletId> led;  // streamlets led here, owned by shard
      /// Led streamlets awaiting a replay: live appends are refused.
      std::set<StreamletId> replaying;
      /// Chunks per streamlet, indexed by streamlet id, that passed
      /// HandleProduce's leadership check and that their request is not
      /// done with yet (durable or failed). AddStreamlet sizes it, so
      /// every led streamlet has a counter. DropStreamletLeadership waits
      /// on `gated_cv` until its streamlet's count is 0.
      std::vector<uint32_t> gated;
      std::condition_variable gated_cv;
      /// Long-poll waiter list: consume handlers with nothing to return
      /// park on `consume_cv` until the durability gate advances for this
      /// shard's streamlets (replication completes), a group rolls/seals,
      /// or the poll deadline passes. `consume_epoch` is bumped on every
      /// wake-worthy event so a gather racing a wakeup re-checks instead
      /// of sleeping through it.
      std::condition_variable consume_cv;
      uint64_t consume_epoch = 0;
      std::map<std::pair<StreamletId, ProducerId>, DedupEntry> dedup;
      /// Dedup hits per key, kept OUTSIDE DedupEntry: the append path's
      /// sequence reservation rolls DedupEntry back on failure, which
      /// must not erase observed hit counts.
      std::map<std::pair<StreamletId, ProducerId>, uint64_t> dedup_hits;
      /// Committed consumer offsets for this shard's streamlets.
      std::map<std::pair<StreamletId, uint32_t>, OffsetEntry> offsets;
      /// Resolved vlog per (streamlet, active-group slot; 0 under the
      /// shared pool). Ownership stays in the broker-level maps; this
      /// avoids taking mu_ per chunk once a mapping is established.
      std::map<std::pair<StreamletId, uint32_t>, VirtualLog*> vlogs;
    };
    uint32_t nshards = 1;
    std::unique_ptr<ShardState[]> shard;

    [[nodiscard]] ShardState& ShardFor(StreamletId streamlet) {
      return shard[nshards <= 1 ? 0 : streamlet % nshards];
    }
  };

  /// One pass of the consume gather (durability-gated chunk collection for
  /// every entry). `payload_bytes` receives the total chunk bytes served;
  /// `all_terminal` is true when no requested entry can ever yield more
  /// data (sealed stream, groups drained) so waiting would be pointless;
  /// `rotated` is true when some entry hit group_closed with its cursor at
  /// the end — actionable for the consumer even without data.
  rpc::ConsumeResponse GatherConsume(StreamEntry& entry,
                                     const rpc::ConsumeRequest& req,
                                     size_t* payload_bytes,
                                     bool* all_terminal, bool* rotated);

  /// Bumps `shard`'s consume epoch and wakes its parked long-pollers;
  /// broadcasts to every shard while cross-shard pollers are parked.
  void NotifyConsumeWaiters(StreamEntry& entry, uint32_t shard);
  /// Stream-wide events (seal, leadership changes, shutdown): wakes the
  /// parked long-pollers of every shard.
  void NotifyConsumeWaitersAllShards(StreamEntry& entry);
  /// Notifies every (stream, shard) whose data advanced in `batch`.
  void NotifyConsumeWaitersForBatch(const ReplicationBatch& batch);

  /// Lock-free on the hot path: stream ids below kStreamSlots resolve
  /// through an append-only atomic slot array (streams are never removed
  /// from a live broker), everything else falls back to the mu_-guarded
  /// map.
  StreamEntry* FindStream(StreamId id) const;
  VirtualLog* ResolveVlog(StreamEntry& entry, StreamletId streamlet,
                          uint32_t slot);
  std::unique_ptr<VirtualLog> MakeVlog(VlogId id, uint32_t replication_factor);

  /// Shard a data-plane request frame is accounted to (must mirror
  /// rpc::RouteFrameToShard): the first chunk/entry's streamlet.
  [[nodiscard]] uint32_t HomeShardOf(const rpc::ProduceRequest& req) const;
  [[nodiscard]] uint32_t HomeShardOf(const rpc::ConsumeRequest& req) const;

  /// A duplicate produce chunk whose original copy may not be durable
  /// yet: the produce paths wait on this position before acking, so the
  /// retry's ack carries the same durability guarantee as the original's
  /// would have.
  struct DuplicateWait {
    VirtualLog* vlog = nullptr;
    StreamletId streamlet = 0;
    GroupId group = 0;
    uint64_t group_chunk_index = 0;
  };

  /// Folds an offset-commit chunk's records into `ss.offsets` (caller
  /// holds ss.mu). Application is monotonic per (streamlet, consumer) —
  /// (group, next_chunk) only ever advances — so replays and recovery
  /// re-ingest are idempotent in any order.
  static void ApplyOffsetChunk(StreamEntry::ShardState& ss,
                               StreamletId streamlet, const ChunkView& chunk);

  /// The chunks one produce request passed through the leadership check
  /// (one streamlet entry per chunk, of the request's stream `entry`).
  /// Destroyed when the request is done with them, it releases their
  /// ShardState::gated counts.
  struct GateHolds {
    explicit GateHolds(const Broker& broker) : broker(broker) {}
    GateHolds(const GateHolds&) = delete;
    GateHolds& operator=(const GateHolds&) = delete;
    ~GateHolds();

    const Broker& broker;
    StreamEntry* entry = nullptr;
    std::vector<StreamletId> streamlets;
  };

  /// The append phase both produce entry points share: counts the request,
  /// finds its stream and appends its chunks in order, stopping at the
  /// first one refused (see rpc::ProduceResponse). With `holds`, the
  /// chunks that pass the leadership check are held as AppendOneChunk
  /// says. Returns the stream, or nullptr once `resp.status` is final.
  StreamEntry* AppendChunks(
      const rpc::ProduceRequest& req, GateHolds* holds,
      std::vector<std::pair<VirtualLog*, ChunkRef>>& positions,
      std::vector<DuplicateWait>& dup_waits, rpc::ProduceResponse& resp);

  /// Appends one chunk of a produce request. With `holds`, a chunk that
  /// passes the leadership check is counted in ShardState::gated and in
  /// `holds`.
  Status AppendOneChunk(StreamEntry& entry, const rpc::ProduceRequest& req,
                        std::span<const std::byte> frame, uint32_t home_shard,
                        std::vector<std::pair<VirtualLog*, ChunkRef>>&
                            appended,
                        std::vector<DuplicateWait>& duplicate_waits,
                        GateHolds* holds, rpc::ProduceResponse& resp);

  /// The wire side of one issued replication batch: the encoder's inline
  /// runs, the opcode, the parts list referencing both, and the current
  /// attempt's futures. CallAsyncParts needs the referenced memory to
  /// stay put until every future is collected, so a ReplicaSend never
  /// moves between IssueBatch and FinishBatch.
  struct ReplicaSend {
    ReplicaSend() = default;
    ReplicaSend(const ReplicaSend&) = delete;
    ReplicaSend& operator=(const ReplicaSend&) = delete;

    rpc::Writer body{64};
    std::array<std::byte, 2> opcode{};
    rpc::BytesRefParts parts;
    std::vector<std::future<Result<std::vector<std::byte>>>> futures;
  };

  /// First half of ShipBatch: encodes `batch` into `send` and starts the
  /// first attempt on every backup without waiting for any of them.
  void IssueBatch(const ReplicationBatch& batch, ReplicaSend& send);
  /// Sends one attempt of an encoded batch to every backup.
  void SendReplicateAttempt(const ReplicationBatch& batch, ReplicaSend& send);
  /// Second half of ShipBatch: collects the responses, retries the whole
  /// batch up to replication_retries times, then either completes it
  /// (waking consume waiters and pumping tiered memory) or aborts it,
  /// evacuating its segment on kUnavailable.
  Status FinishBatch(VirtualLog& vlog, const ReplicationBatch& batch,
                     ReplicaSend& send);

  /// One touched virtual log of a synchronous produce request. The
  /// request's lanes are built once, in first-appearance order, and never
  /// move, so `send` keeps a stable address while its batch is in flight.
  struct FanOutLane {
    VirtualLog* vlog = nullptr;
    /// Set by the caller: poll this lane in the next pass.
    bool wants = false;
    /// Filled by the pass: the batch issued on this lane (if any) and its
    /// outcome.
    std::optional<ReplicationBatch> batch;
    Status status = OkStatus();
    std::optional<ReplicaSend> send;
    /// Segment evacuations this request has retried on this lane.
    int evacuations = 0;
  };

  /// One fan-out pass: polls one batch from every lane that wants one
  /// (a lane whose window is full or whose work is already issued yields
  /// nothing), issues them all, then finishes them in issue order, so
  /// the lanes' replication round trips overlap. Returns the number of
  /// batches issued.
  size_t FanOutPass(std::vector<FanOutLane>& lanes);

  /// Synchronous-replication drive loop of one produce request: runs
  /// fan-out passes over the lanes of every target that is not durable
  /// yet until all `targets` are durable (only ref.group and
  /// ref.loc.group_chunk_index are consulted). When no lane can issue,
  /// blocks on the oldest pending target's vlog. Tolerates a bounded
  /// number of segment evacuations per lane after backup failures before
  /// giving up.
  Status DriveUntilDurable(
      const std::vector<std::pair<VirtualLog*, ChunkRef>>& targets,
      std::vector<FanOutLane>& lanes);

  const BrokerConfig config_;
  const uint32_t shards_;
  rpc::Network& network_;
  MemoryManager memory_;

  /// Data-plane frames handled per shard. One cache line each: different
  /// shards' threads bump their counters on every frame.
  struct alignas(64) ShardFrames {
    Counter frames;
  };
  std::vector<ShardFrames> shard_frames_;

  // Guards the structural maps (streams_, vlog ownership). Hot-path state
  // lives behind per-shard StreamEntry locks and atomic stats counters;
  // lock order is mu_ before ShardState::mu, never the reverse.
  mutable std::mutex mu_;
  std::map<StreamId, std::unique_ptr<StreamEntry>> streams_;

  /// Lock-free stream lookup: slot `id` publishes the entry for stream id
  /// `id` once AddStream completes. Append-only (streams are never erased
  /// while the broker lives), so readers need no lock and no reclamation.
  static constexpr size_t kStreamSlots = 1024;
  mutable std::array<std::atomic<StreamEntry*>, kStreamSlots> stream_slots_{};

  // Shared pool (policy kSharedPerBroker), keyed by replication factor so
  // streams with different R never share a log.
  std::map<uint32_t, std::vector<std::unique_ptr<VirtualLog>>> shared_pools_;
  // Dedicated logs (policy kPerSubPartition), keyed by sub-partition.
  std::map<std::tuple<StreamId, StreamletId, uint32_t>,
           std::unique_ptr<VirtualLog>>
      subpartition_vlogs_;
  VlogId next_vlog_id_ = 0;

  // Live backup services (defaults to config_.backup_nodes). Guarded by
  // live_backups_mu_ (not mu_): the vlog backup selectors read it while
  // holding the vlog lock, and must not take mu_.
  mutable std::mutex live_backups_mu_;
  std::vector<NodeId> live_backups_;

  /// Live counters (relaxed, so the produce/consume/replication hot paths
  /// never serialize on a stats mutex); GetStats fills the derived fields.
  Stats stats_;

  /// Set by StopConsumeWaits: long-poll parking is disabled and parked
  /// handlers return on their next wake.
  std::atomic<bool> consume_waits_stopped_{false};

  /// Tiered segment store (nullptr when memory_budget_bytes == 0).
  /// Declared after streams_ so it is destroyed first — it references
  /// Streamlet/Group/Segment objects the streams own.
  std::unique_ptr<TieredStore> tiered_;
};

}  // namespace kera
