// MiniCluster: an in-process KerA cluster — one coordinator plus N nodes,
// each hosting a broker and a backup service — wired over a SocketNetwork
// (loopback TCP, dispatch IO thread + worker pool per node; the default)
// or a DirectNetwork (deterministic, handlers run inline on the caller).
// Used by integration tests, benches and the examples.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backup/backup.h"
#include "broker/broker.h"
#include "coordinator/coordinator.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"

namespace kera {

/// Which Network implementation carries the cluster's RPCs.
enum class MiniClusterTransport {
  /// DirectNetwork: handler runs inline on the caller thread.
  kDirect,
  /// SocketNetwork: real TCP over loopback, multiplexed framing, with
  /// SocketNetwork::Options' default worker pool per node.
  kSocket,
};

struct MiniClusterConfig {
  uint32_t nodes = 4;
  MiniClusterTransport transport = MiniClusterTransport::kSocket;
  size_t broker_memory_bytes = size_t(512) << 20;
  size_t segment_size = 1u << 20;
  uint32_t segments_per_group = 4;
  size_t virtual_segment_capacity = 1u << 20;
  size_t replication_max_batch_bytes = 1u << 20;
  uint32_t vlogs_per_broker = 4;
  /// Replication batches in flight per vlog (see BrokerConfig).
  uint32_t replication_window = 1;
  /// Broker-side cap on consume long-poll waits (see BrokerConfig).
  uint64_t max_consume_wait_us = 1'000'000;
  /// Shared-nothing broker shards (see BrokerConfig::shards). 0 = auto:
  /// read KERA_BROKER_SHARDS from the environment, defaulting to 1. With
  /// the socket transport, brokers and backups also register shards
  /// server reactors with rpc::RouteFrameToShard as the frame router, so
  /// produce/consume/replicate frames land on the shard that owns their
  /// streamlet/vlog. The Direct transport ignores routing (the caller's
  /// thread handles any frame; the broker's per-shard locks keep it
  /// correct) — with shards == 1 it reproduces the original behavior
  /// exactly.
  uint32_t broker_shards = 0;
  /// Parallel crash recovery (see CoordinatorConfig). recovery_parallelism
  /// 0 = auto: read KERA_RECOVERY_PARALLELISM from the environment,
  /// defaulting to 4. On the Socket transport the coordinator fans
  /// recovery lanes out over real threads; on Direct (and external
  /// networks — the chaos harness) execution stays serial/deterministic
  /// and the parallel makespan is modeled from measured per-task costs.
  uint32_t recovery_parallelism = 0;
  uint32_t recovery_read_batch = 8;
  /// Backup flush directory template; empty disables disk flushing. A
  /// "%u" is replaced by the node id.
  std::string backup_dir;
  /// Backup segment-log knobs (meaningful only with a backup_dir),
  /// copied whole into every backup's BackupConfig::log.
  SegmentLogOptions backup_log;

  /// Tiered broker memory (see BrokerConfig::memory_budget_bytes): 0
  /// keeps every segment resident (the pre-tiering behavior, exactly).
  /// With a budget, `broker_spill_dir` must be set — a directory template
  /// with "%u" for the node id; each broker incarnation spills under its
  /// own subdirectory and CrashNode deletes the node's spill tree (the
  /// spill log is process-local scratch; recovery uses the backups).
  size_t broker_memory_budget_bytes = 0;
  std::string broker_spill_dir;
  size_t broker_cold_cache_bytes = 0;
  uint32_t broker_readahead_segments = 2;

  /// External network injection (e.g. the chaos harness's ChaosNetwork
  /// over a DirectNetwork): when `external_network` is set the cluster
  /// uses it instead of constructing a transport, and the three
  /// callbacks implement registration and crash/restore against it. The
  /// network must outlive the cluster. `transport` is ignored.
  rpc::Network* external_network = nullptr;
  std::function<void(NodeId, rpc::RpcHandler*)> external_register;
  std::function<void(NodeId)> external_crash;
  std::function<void(NodeId, rpc::RpcHandler*)> external_restore;
};

class MiniCluster {
 public:
  explicit MiniCluster(MiniClusterConfig config);
  ~MiniCluster();

  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

  [[nodiscard]] rpc::Network& network() { return *network_; }
  [[nodiscard]] Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] Broker& broker(NodeId node) { return *brokers_[node - 1]; }
  [[nodiscard]] Backup& backup(NodeId node) { return *backups_[node - 1]; }
  [[nodiscard]] uint32_t node_count() const { return config_.nodes; }

  /// Broker node ids: 1..nodes.
  [[nodiscard]] std::vector<NodeId> BrokerNodes() const;

  /// Kills a node (both broker and backup stop answering). Parked consume
  /// long-polls on the crashed broker are failed immediately rather than
  /// leaking until their poll deadline. Use coordinator().RecoverNode(node)
  /// afterwards, then optionally RestartNode to bring the node back.
  void CrashNode(NodeId node);

  /// Restarts a crashed-and-recovered node with a FRESH broker and backup
  /// (all previous in-memory state is gone, as after a real process
  /// restart): re-registers both services on the transport and rejoins the
  /// coordinator (Coordinator::RejoinNode), so new streams can place
  /// streamlets on it and new virtual segments can target its backup.
  Status RestartNode(NodeId node);

  /// Kills only the node's backup service (mid-flush memory loss); the
  /// broker keeps serving. Pair with coordinator().NoteBackupDown(node).
  void CrashBackup(NodeId node);

  /// Brings a crashed backup service back as a fresh, empty instance.
  /// Pair with coordinator().NoteBackupUp(node, &backup(node)).
  void RestartBackup(NodeId node);

  /// Power-loss variant of CrashBackup: unregisters AND destroys the
  /// backup instance (its segment-log flusher thread stops and all file
  /// handles close), so the caller may truncate the on-disk log before
  /// RestartBackup rescans it. backup(node) is invalid until then.
  void DestroyBackup(NodeId node);

  /// Aggregated broker stats across the cluster.
  [[nodiscard]] Broker::Stats TotalBrokerStats() const;

  /// Aggregated backup stats across the cluster.
  [[nodiscard]] Backup::Stats TotalBackupStats() const;

  /// Resolved backup storage directory for `node` (empty when disk
  /// flushing is disabled). The chaos power-loss fault truncates the log
  /// files under this directory between CrashBackup and RestartBackup.
  [[nodiscard]] std::string BackupDirFor(NodeId node) const;

  /// Resolved spill-log directory for `node`'s CURRENT broker incarnation
  /// (empty when tiering is off). CrashNode removes the node's whole
  /// spill tree — a crashed process's spill log is garbage by definition.
  [[nodiscard]] std::string SpillDirFor(NodeId node) const;

  /// Resolved shared-nothing shard count per broker (after the
  /// KERA_BROKER_SHARDS auto default).
  [[nodiscard]] uint32_t broker_shards() const {
    return config_.broker_shards;
  }

  /// Resolved recovery fan-out (after the KERA_RECOVERY_PARALLELISM auto
  /// default).
  [[nodiscard]] uint32_t recovery_parallelism() const {
    return config_.recovery_parallelism;
  }

 private:
  [[nodiscard]] BrokerConfig BrokerConfigFor(NodeId node) const;
  [[nodiscard]] BackupConfig BackupConfigFor(NodeId node) const;
  void RegisterOnNetwork(NodeId service, rpc::RpcHandler* handler);
  void CrashOnNetwork(NodeId service);
  void RestoreOnNetwork(NodeId service, rpc::RpcHandler* handler);

  MiniClusterConfig config_;
  std::unique_ptr<rpc::DirectNetwork> direct_;
  std::unique_ptr<rpc::SocketNetwork> socket_;
  rpc::Network* network_ = nullptr;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<Backup>> backups_;
  /// Per-node broker restart count; fed into BrokerConfig::incarnation so
  /// a restarted broker's virtual segment ids never collide with stale
  /// backup copies from its previous life.
  std::vector<uint64_t> incarnations_;
};

}  // namespace kera
