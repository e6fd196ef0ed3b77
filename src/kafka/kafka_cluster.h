// Kafka-model cluster: topics partitioned over brokers, one replicated
// log per partition, passive pull replication driven by per-broker fetcher
// threads. This is the functional baseline the evaluation compares KerA
// against; the DES harness drives the same broker/log objects on
// simulated time instead of threads.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "kafka/kafka_broker.h"

namespace kera::kafka {

struct KafkaClusterConfig {
  uint32_t nodes = 4;
  KafkaTuning tuning;
};

struct TopicInfo {
  uint64_t id = 0;
  std::string name;
  uint32_t partitions = 0;
  uint32_t replication_factor = 1;
  /// Leader node per partition.
  std::vector<NodeId> leaders;
};

class KafkaCluster {
 public:
  explicit KafkaCluster(KafkaClusterConfig config);
  ~KafkaCluster();

  KafkaCluster(const KafkaCluster&) = delete;
  KafkaCluster& operator=(const KafkaCluster&) = delete;

  Result<TopicInfo> CreateTopic(const std::string& name, uint32_t partitions,
                                uint32_t replication_factor);

  /// Leader append with acks=all semantics: blocks until every follower
  /// has fetched past the batch (requires StartReplication() when R > 1).
  Status Produce(uint64_t topic, uint32_t partition,
                 std::span<const std::byte> bytes, uint32_t records);

  /// Async append: returns the batch offset without waiting for the high
  /// watermark (used by tests that drive fetchers manually).
  Result<uint64_t> ProduceAsync(uint64_t topic, uint32_t partition,
                                std::span<const std::byte> bytes,
                                uint32_t records);

  /// Consumer fetch: batches below the high watermark only.
  [[nodiscard]] std::vector<Batch> Consume(uint64_t topic, uint32_t partition,
                                           uint64_t offset,
                                           size_t max_bytes) const;

  [[nodiscard]] uint64_t HighWatermark(uint64_t topic,
                                       uint32_t partition) const;

  /// Starts one replica-fetcher thread per broker.
  void StartReplication();
  void StopReplication();

  [[nodiscard]] KafkaBroker& broker(NodeId node) {
    return *brokers_[node - 1];
  }
  [[nodiscard]] PartitionLog* leader_log(uint64_t topic,
                                         uint32_t partition) const;

  struct Stats {
    uint64_t produce_batches = 0;
    uint64_t produce_bytes = 0;
    uint64_t fetch_rpcs = 0;
    uint64_t fetch_bytes = 0;
    uint64_t empty_fetches = 0;
  };
  [[nodiscard]] Stats GetStats() const;

 private:
  void FetcherLoop(KafkaBroker* broker);

  const KafkaClusterConfig config_;
  std::vector<std::unique_ptr<KafkaBroker>> brokers_;

  mutable std::mutex mu_;
  std::map<std::string, TopicInfo> topics_by_name_;
  std::map<uint64_t, TopicInfo*> topics_by_id_;
  uint64_t next_topic_id_ = 1;
  size_t placement_cursor_ = 0;  // rotates partition placement
  Stats stats_;

  std::atomic<bool> replicating_{false};
  std::vector<std::thread> fetchers_;
};

}  // namespace kera::kafka
