#include "kafka/kafka_cluster.h"

#include <chrono>

namespace kera::kafka {

KafkaCluster::KafkaCluster(KafkaClusterConfig config) : config_(config) {
  for (NodeId node = 1; node <= config_.nodes; ++node) {
    brokers_.push_back(std::make_unique<KafkaBroker>(node));
  }
}

KafkaCluster::~KafkaCluster() { StopReplication(); }

Result<TopicInfo> KafkaCluster::CreateTopic(const std::string& name,
                                            uint32_t partitions,
                                            uint32_t replication_factor) {
  if (partitions == 0 || replication_factor == 0 ||
      replication_factor > config_.nodes) {
    return Status(StatusCode::kInvalidArgument, "bad topic options");
  }
  TopicInfo* info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (topics_by_name_.count(name) != 0) {
      return Status(StatusCode::kAlreadyExists, "topic exists: " + name);
    }
    TopicInfo t;
    t.id = next_topic_id_++;
    t.name = name;
    t.partitions = partitions;
    t.replication_factor = replication_factor;
    t.leaders.resize(partitions);
    // Rotate the starting broker across topic creations so many small
    // topics still spread over the cluster.
    for (uint32_t p = 0; p < partitions; ++p) {
      t.leaders[p] = NodeId((placement_cursor_ + p) % config_.nodes) + 1;
    }
    placement_cursor_ = (placement_cursor_ + partitions) % config_.nodes;
    auto [it, _] = topics_by_name_.emplace(name, std::move(t));
    info = &it->second;
    topics_by_id_[info->id] = info;
  }
  // Wire leader logs and follower replicas: followers are the next R-1
  // nodes after the leader (Kafka's default rack-unaware assignment).
  for (uint32_t p = 0; p < partitions; ++p) {
    NodeId leader = info->leaders[p];
    PartitionKey key{info->id, p};
    std::vector<NodeId> followers;
    for (uint32_t r = 1; r < replication_factor; ++r) {
      followers.push_back(NodeId((leader - 1 + r) % config_.nodes) + 1);
    }
    brokers_[leader - 1]->AddLeaderPartition(key, followers);
    for (NodeId f : followers) {
      brokers_[f - 1]->AddFollowerPartition(key, leader);
    }
  }
  return *info;
}

PartitionLog* KafkaCluster::leader_log(uint64_t topic,
                                       uint32_t partition) const {
  NodeId leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = topics_by_id_.find(topic);
    if (it == topics_by_id_.end() || partition >= it->second->partitions) {
      return nullptr;
    }
    leader = it->second->leaders[partition];
  }
  return brokers_[leader - 1]->leader_log(PartitionKey{topic, partition});
}

Result<uint64_t> KafkaCluster::ProduceAsync(uint64_t topic,
                                            uint32_t partition,
                                            std::span<const std::byte> bytes,
                                            uint32_t records) {
  PartitionLog* log = leader_log(topic, partition);
  if (log == nullptr) {
    return Status(StatusCode::kNotFound, "unknown partition");
  }
  uint64_t offset = log->Append(bytes, records);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.produce_batches;
    stats_.produce_bytes += bytes.size();
  }
  return offset;
}

Status KafkaCluster::Produce(uint64_t topic, uint32_t partition,
                             std::span<const std::byte> bytes,
                             uint32_t records) {
  auto offset = ProduceAsync(topic, partition, bytes, records);
  if (!offset.ok()) return offset.status();
  PartitionLog* log = leader_log(topic, partition);
  // acks=all: wait for the high watermark to pass the batch.
  while (log->high_watermark() <= *offset) {
    std::this_thread::yield();
  }
  return OkStatus();
}

std::vector<Batch> KafkaCluster::Consume(uint64_t topic, uint32_t partition,
                                         uint64_t offset,
                                         size_t max_bytes) const {
  PartitionLog* log = leader_log(topic, partition);
  if (log == nullptr) return {};
  uint64_t hw = log->high_watermark();
  std::vector<Batch> batches = log->Fetch(offset, max_bytes);
  // Consumers may only read durably replicated data.
  while (!batches.empty() && batches.back().offset >= hw) {
    batches.pop_back();
  }
  return batches;
}

uint64_t KafkaCluster::HighWatermark(uint64_t topic,
                                     uint32_t partition) const {
  PartitionLog* log = leader_log(topic, partition);
  return log == nullptr ? 0 : log->high_watermark();
}

void KafkaCluster::FetcherLoop(KafkaBroker* broker) {
  while (replicating_.load(std::memory_order_acquire)) {
    size_t fetched = 0;
    for (const PartitionKey& key : broker->FollowedPartitions()) {
      PartitionLog* log = leader_log(key.topic, key.partition);
      if (log == nullptr) continue;
      fetched += broker->FetchOnce(key, *log, config_.tuning);
    }
    if (fetched == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.tuning.fetch_backoff_us));
    }
  }
}

void KafkaCluster::StartReplication() {
  if (replicating_.exchange(true)) return;
  for (auto& broker : brokers_) {
    fetchers_.emplace_back([this, b = broker.get()] { FetcherLoop(b); });
  }
}

void KafkaCluster::StopReplication() {
  if (!replicating_.exchange(false)) return;
  for (auto& t : fetchers_) t.join();
  fetchers_.clear();
}

KafkaCluster::Stats KafkaCluster::GetStats() const {
  Stats total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = stats_;
  }
  for (const auto& broker : brokers_) {
    auto s = broker->GetStats();
    total.fetch_rpcs += s.fetch_rpcs;
    total.fetch_bytes += s.fetch_bytes;
    total.empty_fetches += s.empty_fetches;
  }
  return total;
}

}  // namespace kera::kafka
