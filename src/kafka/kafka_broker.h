// Kafka-model broker: leads some partitions (each an independent
// PartitionLog) and runs follower replicas of partitions led elsewhere.
// Follower replication is pull-based: ReplicaFetcher polls the leader on a
// static schedule (replica fetch tuning), appends locally, and reports its
// offset so the leader can advance the high watermark.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kafka/partition_log.h"

namespace kera::kafka {

/// Global partition identity: (topic id, partition index).
struct PartitionKey {
  uint64_t topic = 0;
  uint32_t partition = 0;
  auto operator<=>(const PartitionKey&) const = default;
};

struct KafkaTuning {
  /// replica.fetch.max.bytes analogue: max bytes per follower fetch.
  size_t fetch_max_bytes = 1u << 20;
  /// Poll cadence when a fetch returns nothing (replica.fetch.wait.max.ms
  /// analogue). Static — the paper's point is that this needs tuning.
  uint64_t fetch_backoff_us = 500;
};

class KafkaBroker {
 public:
  explicit KafkaBroker(NodeId node) : node_(node) {}

  KafkaBroker(const KafkaBroker&) = delete;
  KafkaBroker& operator=(const KafkaBroker&) = delete;

  /// Declares this broker the leader of `key` with the given followers.
  PartitionLog* AddLeaderPartition(PartitionKey key,
                                   std::vector<NodeId> followers);

  /// Declares this broker a follower of `key` (led by `leader`).
  void AddFollowerPartition(PartitionKey key, NodeId leader);

  [[nodiscard]] PartitionLog* leader_log(PartitionKey key) const;

  struct FollowerState {
    NodeId leader = kInvalidNode;
    uint64_t fetched_offset = 0;   // next offset to fetch
    uint64_t bytes_replicated = 0;
    std::deque<Batch> replica;     // local passive copy
  };
  [[nodiscard]] FollowerState* follower_state(PartitionKey key);

  /// All partitions this broker follows (fetcher iteration order).
  [[nodiscard]] std::vector<PartitionKey> FollowedPartitions() const;

  /// Performs one follower fetch round for `key` against the leader's
  /// log: pulls up to tuning.fetch_max_bytes, appends to the local
  /// replica, and reports the new offset to the leader. Returns bytes
  /// fetched (0 = caught up; the fetcher then backs off).
  size_t FetchOnce(PartitionKey key, PartitionLog& leader_log,
                   const KafkaTuning& tuning);

  [[nodiscard]] NodeId node() const { return node_; }

  struct Stats {
    uint64_t fetch_rpcs = 0;        // follower fetches issued
    uint64_t fetch_bytes = 0;
    uint64_t empty_fetches = 0;     // fetches that returned no data
  };
  [[nodiscard]] Stats GetStats() const;

 private:
  const NodeId node_;
  mutable std::mutex mu_;
  std::map<PartitionKey, std::unique_ptr<PartitionLog>> led_;
  std::map<PartitionKey, std::unique_ptr<FollowerState>> followed_;
  Stats stats_;
};

}  // namespace kera::kafka
