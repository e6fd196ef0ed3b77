// Crash recovery: produce durably replicated data, kill a broker, let the
// coordinator replay the virtual segments from the surviving backups into
// new leaders, and verify every acknowledged record survives.
//
//   $ ./example_crash_recovery
#include <cstdio>
#include <set>
#include <string>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"

using namespace kera;

int main() {
  MiniClusterConfig cluster_config;
  cluster_config.nodes = 4;
  MiniCluster cluster(cluster_config);

  rpc::StreamOptions options;
  options.num_streamlets = 4;
  options.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("ledger", options);
  if (!info.ok()) return 1;

  constexpr int kRecords = 5000;
  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "ledger";
  pc.chunk_size = 1024;
  Producer producer(pc, cluster.network());
  if (!producer.Connect().ok()) return 1;
  for (int i = 0; i < kRecords; ++i) {
    std::string v = "txn-" + std::to_string(i);
    if (!producer
             .Send({reinterpret_cast<const std::byte*>(v.data()), v.size()})
             .ok()) {
      return 1;
    }
  }
  if (!producer.Close().ok()) return 1;
  std::printf("produced %d records (every ack means 3 copies exist)\n",
              kRecords);

  // Kill the broker leading streamlet 0.
  NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  std::printf("crashed node %u (broker + backup)\n", victim);

  auto replayed = cluster.coordinator().RecoverNode(victim);
  if (!replayed.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  auto fresh = cluster.coordinator().GetStreamInfo("ledger");
  std::printf("recovered: %llu chunks replayed from backups; streamlet 0 "
              "moved to node %u\n",
              (unsigned long long)*replayed, fresh->streamlet_brokers[0]);

  // Verify all records are intact, exactly once.
  ConsumerConfig cc;
  cc.stream = "ledger";
  Consumer consumer(cc, cluster.network());
  if (!consumer.Connect().ok()) return 1;
  std::set<std::string> seen;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(256)) {
      seen.emplace(reinterpret_cast<const char*>(rec.value.data()),
                   rec.value.size());
    }
  }
  consumer.Close();
  std::printf("verified %zu/%d distinct records after recovery\n",
              seen.size(), kRecords);
  return seen.size() == kRecords ? 0 : 1;
}
