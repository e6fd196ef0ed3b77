// Coordinator: cluster metadata and control plane. Creates streams
// (placing streamlets across brokers round-robin), serves stream lookups,
// and orchestrates crash recovery RAMCloud-style: after a broker failure
// its streamlets are SCATTERED across all survivors (balancing
// post-recovery load), and its backup copies are re-ingested by a
// parallel scatter-gather engine — one recovery task per virtual segment,
// pulled from the backups with batched reads and replayed into the new
// leaders as recovery producer requests, fanned out across per-vlog lanes
// bounded by `recovery_parallelism`.
//
// Membership changes and recovery use direct in-process calls to brokers
// (control plane); stream metadata lookups and all data-path traffic go
// through the RPC network.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "backup/backup.h"
#include "broker/broker.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "rpc/messages.h"
#include "rpc/transport.h"

namespace kera {

struct CoordinatorConfig {
  /// Max concurrent recovery lanes (a lane is all virtual segments of one
  /// vlog, replayed in order) and concurrent batched backup reads. 1
  /// reproduces the serial replay exactly.
  uint32_t recovery_parallelism = 4;
  /// Virtual segments pulled per batched backup-read RPC (kReadRecovery-
  /// SegmentBatch): one round trip covers a whole batch instead of one
  /// RPC per segment.
  uint32_t recovery_read_batch = 8;
  /// Fan recovery lanes out over real threads. Only safe when the Network
  /// tolerates concurrent callers end to end (the socket
  /// transport). When false — DirectNetwork, the DES, the chaos
  /// harness's single-threaded ChaosNetwork — execution stays serial and
  /// deterministic, and the parallel makespan is MODELED from measured
  /// per-task costs instead (RecoveryStats::modeled_mttr_us).
  bool recovery_use_threads = false;
};

class Coordinator final : public rpc::RpcHandler {
 public:
  explicit Coordinator(rpc::Network& network, CoordinatorConfig config = {});

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Registers a cluster node hosting a broker and a backup service.
  void RegisterNode(NodeId node, Broker* broker, Backup* backup);

  /// Creates a stream: assigns a StreamId, places its streamlets over the
  /// live brokers round-robin, and announces leadership to the brokers.
  Result<rpc::StreamInfo> CreateStream(const std::string& name,
                                       const rpc::StreamOptions& options);

  Result<rpc::StreamInfo> GetStreamInfo(const std::string& name) const;

  /// Seals a stream cluster-wide (bounded stream / object §IV.A): every
  /// leader closes its active groups and rejects further appends.
  Status SealStream(const std::string& name);

  /// Allocates (or re-allocates) an idempotent-producer session: every
  /// call for the same producer id bumps its epoch, fencing any previous
  /// instance that still stamps chunks with the old epoch (brokers reject
  /// those with kFenced). Epochs start at 1 — 0 is the "no epoch"
  /// sentinel of the classic chunk format. Consumers use the same
  /// allocator under their system producer id (0x80000000 | consumer) so
  /// a restarted consumer's offset commits fence its predecessor's.
  [[nodiscard]] std::pair<ProducerId, uint32_t> AllocateProducer(
      ProducerId producer);

  /// Marks `crashed` dead, scatters its streamlets across ALL surviving
  /// brokers (balancing each survivor's post-recovery streamlet count,
  /// with ingested bytes as the tiebreak), and replays all of its data
  /// from the backups into the new leaders through the parallel recovery
  /// engine. Returns the number of chunks replayed.
  Result<uint64_t> RecoverNode(NodeId crashed);

  /// Re-admits a node that was marked dead by RecoverNode, with fresh
  /// broker/backup instances (restart-after-crash: the old in-memory state
  /// is gone). The node must not lead any streamlet — RecoverNode moved
  /// its leaderships away — and rejoins as an empty member: new streams
  /// may place streamlets on it and new virtual segments may target its
  /// backup service. Pushes the refreshed backup membership to every live
  /// broker. Errors if the node is unknown, still alive, or still leads.
  Status RejoinNode(NodeId node, Broker* broker, Backup* backup);

  /// A node's backup service crashed (in-memory replicas lost) while its
  /// broker stays up. Newly opened virtual segments stop targeting it.
  void NoteBackupDown(NodeId node);

  /// The node's backup service is serving again (a fresh, empty instance).
  void NoteBackupUp(NodeId node, Backup* backup);

  /// Migrates one streamlet to `target` (the paper's horizontal
  /// scalability: streamlets move to new brokers). The acknowledged data
  /// is replayed from the backups into the target — the same machinery as
  /// crash recovery, without a crash — and the old leader relinquishes
  /// leadership. Producers follow on their own (a refused round makes
  /// them look the leaders up again); consumers must reconnect. Returns
  /// chunks replayed.
  Result<uint64_t> MigrateStreamlet(const std::string& name,
                                    StreamletId streamlet, NodeId target);

  std::vector<std::byte> HandleRpc(std::span<const std::byte> request) override;

  /// Recovery-engine telemetry. Counts (tasks, segments, chunks, bytes,
  /// RPCs, fan-out) are deterministic for a deterministic workload; the
  /// *_us timing fields are wall-clock measurements — report them, never
  /// compare them across runs.
  struct RecoveryStats {
    uint64_t recoveries = 0;             // RecoverNode calls that replayed
    uint64_t streamlets_scattered = 0;   // leaderships moved by recovery
    uint64_t tasks_issued = 0;           // one per (vlog, vseg) replayed
    uint64_t chunks_replayed = 0;
    uint64_t bytes_replayed = 0;         // chunk-frame bytes re-ingested
    uint64_t read_rpcs = 0;              // batched read RPCs issued
    uint64_t read_rpcs_saved = 0;        // vs one read RPC per segment
    uint64_t peak_fanout = 0;            // max concurrent recovery lanes
    /// Measured wall time of the last RecoverNode (time-to-full-service:
    /// placement + re-point + replay + recovery-group close).
    uint64_t last_mttr_us = 0;
    /// Modeled makespan of the last replay at recovery_parallelism
    /// workers (LPT over per-vlog lane costs + per-backup read costs),
    /// and the same tasks on one worker. On the serial/deterministic
    /// path these are the headline MTTR numbers; with
    /// recovery_use_threads the wall clock is authoritative.
    uint64_t modeled_mttr_us = 0;
    uint64_t modeled_serial_us = 0;
    Histogram task_replay_us;            // per-task replay wall time
  };
  [[nodiscard]] RecoveryStats GetRecoveryStats() const;

  [[nodiscard]] const CoordinatorConfig& config() const { return config_; }

 private:
  struct StreamState {
    std::string name;
    rpc::StreamInfo info;
  };

  /// Announces (stream, streamlet) leadership to the broker, creating the
  /// storage objects there. The `moved` streamlets await a replay from the
  /// backups: their leaders refuse live appends until it ends.
  Status AnnounceLeadership(const StreamState& state,
                            const std::set<StreamletId>& moved = {});

  /// Replays every chunk of `primary`'s virtual segments (held by the
  /// surviving backups) that matches `filter` into the current leaders,
  /// as recovery produce requests — the parallel scatter-gather engine.
  /// Shared by RecoverNode and MigrateStreamlet.
  Result<uint64_t> ReplayFromBackups(
      NodeId primary,
      const std::function<bool(StreamId, StreamletId)>& filter);

  /// Pushes the current live backup-service membership (alive nodes whose
  /// backup is not independently down) to every live broker.
  void PushLiveBackups();

  /// Tells every live backup service to drop the copies it holds for
  /// `primary`. Called after RecoverNode's replay: the data now lives at
  /// the new leaders (re-replicated synchronously on the produce path),
  /// so the old copies are garbage — evacuating them frees backup memory
  /// and lets the segment-log GC reclaim their on-disk records. Returns
  /// copies dropped.
  uint64_t EvacuateBackups(NodeId primary);

  /// One (vlog, vseg) of the crashed primary: where to read it from and,
  /// after the read phase, its payload.
  struct RecoveryTask;
  /// Replays one task's chunk frames into the current leaders. Recovery
  /// produce requests are partitioned per (target, stream, streamlet) so
  /// each lands shard-pure on a sharded broker.
  Status ReplayTask(NodeId primary, RecoveryTask& task,
                    const std::function<bool(StreamId, StreamletId)>& filter,
                    uint64_t* chunks, uint64_t* bytes);

  rpc::Network& network_;
  const CoordinatorConfig config_;
  mutable std::mutex mu_;
  std::map<NodeId, Broker*> brokers_;
  std::map<NodeId, Backup*> backups_;
  std::map<NodeId, bool> alive_;
  /// Nodes whose backup service is down while the broker is alive.
  std::set<NodeId> backup_down_;
  std::map<std::string, std::unique_ptr<StreamState>> streams_by_name_;
  std::map<StreamId, StreamState*> streams_by_id_;
  StreamId next_stream_id_ = 1;
  size_t placement_cursor_ = 0;  // rotates streamlet placement
  /// Last allocated epoch per producer id (0 = never allocated).
  std::map<ProducerId, uint32_t> producer_epochs_;

  mutable std::mutex recovery_stats_mu_;
  RecoveryStats recovery_stats_;
};

}  // namespace kera
