#include "cluster/mini_cluster.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "rpc/messages.h"

namespace kera {

BrokerConfig MiniCluster::BrokerConfigFor(NodeId node) const {
  BrokerConfig bc;
  bc.node = node;
  if (node <= incarnations_.size()) {
    bc.incarnation = incarnations_[node - 1];
  }
  bc.memory_bytes = config_.broker_memory_bytes;
  bc.segment_size = config_.segment_size;
  bc.segments_per_group = config_.segments_per_group;
  bc.virtual_segment_capacity = config_.virtual_segment_capacity;
  bc.replication_max_batch_bytes = config_.replication_max_batch_bytes;
  bc.vlogs_per_broker = config_.vlogs_per_broker;
  bc.replication_window = config_.replication_window;
  bc.max_consume_wait_us = config_.max_consume_wait_us;
  bc.shards = config_.broker_shards;
  bc.memory_budget_bytes = config_.broker_memory_budget_bytes;
  bc.spill_dir = SpillDirFor(node);
  bc.cold_cache_bytes = config_.broker_cold_cache_bytes;
  bc.readahead_segments = config_.broker_readahead_segments;
  // Prefetch threads only where the transport is already nondeterministic;
  // Direct and external (DES/chaos) networks keep readahead inline so the
  // cold-cache state is a pure function of the schedule.
  bc.async_readahead = socket_ != nullptr;
  for (NodeId n = 1; n <= config_.nodes; ++n) {
    bc.backup_nodes.push_back(BackupServiceId(n));
  }
  return bc;
}

BackupConfig MiniCluster::BackupConfigFor(NodeId node) const {
  BackupConfig bkc;
  bkc.node = node;
  bkc.storage_dir = BackupDirFor(node);
  bkc.log = config_.backup_log;
  return bkc;
}

std::string MiniCluster::BackupDirFor(NodeId node) const {
  if (config_.backup_dir.empty()) return {};
  char dir[256];
  std::snprintf(dir, sizeof(dir), config_.backup_dir.c_str(), unsigned(node));
  return dir;
}

std::string MiniCluster::SpillDirFor(NodeId node) const {
  if (config_.broker_spill_dir.empty() ||
      config_.broker_memory_budget_bytes == 0) {
    return {};
  }
  char dir[256];
  std::snprintf(dir, sizeof(dir), config_.broker_spill_dir.c_str(),
                unsigned(node));
  // Per-incarnation subdirectory: a restarted broker never scans (or
  // collides with) its previous life's spill records.
  uint64_t inc = node <= incarnations_.size() ? incarnations_[node - 1] : 0;
  char sub[320];
  std::snprintf(sub, sizeof(sub), "%s/inc%llu", dir,
                (unsigned long long)inc);
  return sub;
}

void MiniCluster::RegisterOnNetwork(NodeId service, rpc::RpcHandler* handler) {
  if (config_.external_network != nullptr) {
    config_.external_register(service, handler);
  } else if (socket_ != nullptr) {
    // Brokers and backups get the shared-nothing reactor shape: one
    // server shard per broker shard, with data-plane frames routed to the
    // shard owning their streamlet (produce/consume) or vlog (replicate).
    // The coordinator is control-plane only and stays single-reactor.
    rpc::SocketNetwork::NodeOptions opts;
    if (config_.broker_shards > 1 && service != kCoordinatorNode) {
      opts.shards = int(config_.broker_shards);
      opts.router = rpc::RouteFrameToShard;
    }
    auto port = socket_->Register(service, handler, std::move(opts));
    if (!port.ok()) {
      KERA_ERROR("socket register failed for node %u: %s", unsigned(service),
                 port.status().message().c_str());
    }
  } else {
    direct_->Register(service, handler);
  }
}

void MiniCluster::CrashOnNetwork(NodeId service) {
  if (config_.external_network != nullptr) {
    config_.external_crash(service);
  } else if (socket_ != nullptr) {
    socket_->Crash(service);
  } else {
    direct_->Crash(service);
  }
}

void MiniCluster::RestoreOnNetwork(NodeId service, rpc::RpcHandler* handler) {
  if (config_.external_network != nullptr) {
    config_.external_restore(service, handler);
  } else if (socket_ != nullptr) {
    auto port = socket_->Restore(service, handler);
    if (!port.ok()) {
      KERA_ERROR("socket restore failed for node %u: %s", unsigned(service),
                 port.status().message().c_str());
    }
  } else {
    direct_->Restore(service, handler);
  }
}

MiniCluster::MiniCluster(MiniClusterConfig config)
    : config_(std::move(config)) {
  if (config_.broker_shards == 0) {
    config_.broker_shards = 1;
    if (const char* env = std::getenv("KERA_BROKER_SHARDS")) {
      int v = std::atoi(env);
      if (v > 0) config_.broker_shards = uint32_t(v);
    }
  }
  if (config_.recovery_parallelism == 0) {
    config_.recovery_parallelism = 4;
    if (const char* env = std::getenv("KERA_RECOVERY_PARALLELISM")) {
      int v = std::atoi(env);
      if (v > 0) config_.recovery_parallelism = uint32_t(v);
    }
  }
  if (config_.external_network != nullptr) {
    network_ = config_.external_network;
  } else if (config_.transport == MiniClusterTransport::kSocket) {
    socket_ = std::make_unique<rpc::SocketNetwork>();
    network_ = socket_.get();
  } else {
    direct_ = std::make_unique<rpc::DirectNetwork>();
    network_ = direct_.get();
  }
  CoordinatorConfig cc;
  cc.recovery_parallelism = config_.recovery_parallelism;
  cc.recovery_read_batch = config_.recovery_read_batch;
  // Real recovery threads only on the socket transport, whose RPC path
  // tolerates concurrent callers. Direct and external networks (the chaos
  // harness decorates a DirectNetwork with single-threaded virtual-clock
  // machinery) stay serial — recovery models the parallel makespan there
  // instead.
  cc.recovery_use_threads = socket_ != nullptr;
  coordinator_ = std::make_unique<Coordinator>(*network_, cc);

  incarnations_.assign(config_.nodes, 0);
  for (NodeId node = 1; node <= config_.nodes; ++node) {
    brokers_.push_back(
        std::make_unique<Broker>(BrokerConfigFor(node), *network_));
    backups_.push_back(std::make_unique<Backup>(BackupConfigFor(node)));
  }

  RegisterOnNetwork(kCoordinatorNode, coordinator_.get());
  for (NodeId node = 1; node <= config_.nodes; ++node) {
    RegisterOnNetwork(node, brokers_[node - 1].get());
    RegisterOnNetwork(BackupServiceId(node), backups_[node - 1].get());
    coordinator_->RegisterNode(node, brokers_[node - 1].get(),
                               backups_[node - 1].get());
  }
}

MiniCluster::~MiniCluster() {
  // Wake the consume long-pollers before the network shuts down, so the
  // shutdown does not block on a handler thread parked until its poll
  // deadline.
  for (auto& b : brokers_) b->StopConsumeWaits();
  if (socket_ != nullptr) socket_->Shutdown();
}

std::vector<NodeId> MiniCluster::BrokerNodes() const {
  std::vector<NodeId> out;
  for (NodeId node = 1; node <= config_.nodes; ++node) out.push_back(node);
  return out;
}

void MiniCluster::CrashNode(NodeId node) {
  // Fail parked long-polls first: handler threads inside HandleConsume
  // would otherwise sleep until their poll deadline, and the socket
  // transport's Crash waits for the node's running handlers (a later
  // restart swaps in a fresh broker whose parking works again).
  brokers_[node - 1]->StopConsumeWaits();
  CrashOnNetwork(node);
  CrashOnNetwork(BackupServiceId(node));
  // A real crash loses the process-local spill log with the process; the
  // broker's durable data lives on the backups. Delete the node's whole
  // spill tree (all incarnations) so recovery provably never reads it.
  // The dead broker object may still hold open fds — unlinking is safe,
  // and its per-incarnation subdirectory is never reused (RestartNode
  // bumps the incarnation).
  if (!config_.broker_spill_dir.empty() &&
      config_.broker_memory_budget_bytes != 0) {
    char dir[256];
    std::snprintf(dir, sizeof(dir), config_.broker_spill_dir.c_str(),
                  unsigned(node));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

Status MiniCluster::RestartNode(NodeId node) {
  if (node == 0 || node > config_.nodes) {
    return Status(StatusCode::kInvalidArgument, "no such node");
  }
  // Fresh instances: a restarted process has lost all in-memory state.
  // The bumped incarnation keeps the new broker's virtual segment ids
  // disjoint from any stale copies of its previous life that backups
  // still hold (backups key copies by (primary, vlog, vseg)).
  ++incarnations_[node - 1];
  auto broker = std::make_unique<Broker>(BrokerConfigFor(node), *network_);
  auto backup = std::make_unique<Backup>(BackupConfigFor(node));
  // Transport first, so the node is reachable the moment the coordinator
  // re-admits it (recovery replay and fresh placements dial it directly).
  RestoreOnNetwork(node, broker.get());
  RestoreOnNetwork(BackupServiceId(node), backup.get());
  Status s = coordinator_->RejoinNode(node, broker.get(), backup.get());
  if (!s.ok()) {
    CrashOnNetwork(node);
    CrashOnNetwork(BackupServiceId(node));
    return s;
  }
  brokers_[node - 1] = std::move(broker);
  backups_[node - 1] = std::move(backup);
  return OkStatus();
}

void MiniCluster::CrashBackup(NodeId node) {
  CrashOnNetwork(BackupServiceId(node));
}

void MiniCluster::DestroyBackup(NodeId node) {
  CrashOnNetwork(BackupServiceId(node));
  backups_[node - 1].reset();
}

void MiniCluster::RestartBackup(NodeId node) {
  auto backup = std::make_unique<Backup>(BackupConfigFor(node));
  RestoreOnNetwork(BackupServiceId(node), backup.get());
  backups_[node - 1] = std::move(backup);
}

Broker::Stats MiniCluster::TotalBrokerStats() const {
  Broker::Stats total;
  for (const auto& b : brokers_) total += b->GetStats();
  return total;
}

Backup::Stats MiniCluster::TotalBackupStats() const {
  Backup::Stats total;
  for (const auto& b : backups_) {
    if (b != nullptr) total += b->GetStats();  // null mid power cut
  }
  return total;
}

}  // namespace kera
