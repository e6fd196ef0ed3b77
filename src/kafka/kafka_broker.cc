#include "kafka/kafka_broker.h"

namespace kera::kafka {

PartitionLog* KafkaBroker::AddLeaderPartition(PartitionKey key,
                                              std::vector<NodeId> followers) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = led_.find(key);
  if (it != led_.end()) return it->second.get();
  auto log = std::make_unique<PartitionLog>(std::move(followers));
  PartitionLog* raw = log.get();
  led_.emplace(key, std::move(log));
  return raw;
}

void KafkaBroker::AddFollowerPartition(PartitionKey key, NodeId leader) {
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_unique<FollowerState>();
  state->leader = leader;
  followed_.emplace(key, std::move(state));
}

PartitionLog* KafkaBroker::leader_log(PartitionKey key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = led_.find(key);
  return it == led_.end() ? nullptr : it->second.get();
}

KafkaBroker::FollowerState* KafkaBroker::follower_state(PartitionKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = followed_.find(key);
  return it == followed_.end() ? nullptr : it->second.get();
}

std::vector<PartitionKey> KafkaBroker::FollowedPartitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PartitionKey> out;
  out.reserve(followed_.size());
  for (const auto& [key, _] : followed_) out.push_back(key);
  return out;
}

size_t KafkaBroker::FetchOnce(PartitionKey key, PartitionLog& leader_log,
                              const KafkaTuning& tuning) {
  FollowerState* state = follower_state(key);
  if (state == nullptr) return 0;
  std::vector<Batch> batches =
      leader_log.Fetch(state->fetched_offset, tuning.fetch_max_bytes);
  size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : batches) {
      bytes += b.bytes.size();
      state->fetched_offset = b.offset + 1;
      state->bytes_replicated += b.bytes.size();
      state->replica.push_back(std::move(b));
    }
    ++stats_.fetch_rpcs;
    stats_.fetch_bytes += bytes;
    if (batches.empty()) ++stats_.empty_fetches;
  }
  if (!batches.empty()) {
    leader_log.UpdateFollower(node_, state->fetched_offset);
  }
  return bytes;
}

KafkaBroker::Stats KafkaBroker::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace kera::kafka
