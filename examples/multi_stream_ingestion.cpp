// Multi-stream ingestion: the paper's headline scenario. Hundreds of
// small streams are ingested concurrently; their partitions share a small
// pool of replicated virtual logs per broker, so replication happens in
// few, large RPCs instead of one small RPC per partition. The example
// prints the consolidation ratio (chunks replicated per replication RPC).
//
//   $ ./example_multi_stream_ingestion [streams] [vlogs_per_broker]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "client/producer.h"
#include "cluster/mini_cluster.h"

using namespace kera;

int main(int argc, char** argv) {
  uint32_t streams = argc > 1 ? uint32_t(std::atoi(argv[1])) : 64;
  uint32_t vlogs = argc > 2 ? uint32_t(std::atoi(argv[2])) : 4;

  MiniClusterConfig cluster_config;
  cluster_config.nodes = 4;
  cluster_config.vlogs_per_broker = vlogs;
  MiniCluster cluster(cluster_config);

  // Create many small streams (one partition each), all replicated 3x.
  rpc::StreamOptions options;
  options.num_streamlets = 1;
  options.replication_factor = 3;
  options.vlog_policy = rpc::VlogPolicy::kSharedPerBroker;
  for (uint32_t s = 0; s < streams; ++s) {
    auto info = cluster.coordinator().CreateStream(
        "sensor-" + std::to_string(s), options);
    if (!info.ok()) {
      std::fprintf(stderr, "create: %s\n", info.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("created %u streams over 4 brokers, %u shared vlogs/broker\n",
              streams, vlogs);

  // One producer per 16 streams, each writing 200 records to each of its
  // streams (round-robin across its streams via separate producers).
  std::string value(100, 'v');
  uint64_t total_records = 0;
  for (uint32_t s = 0; s < streams; ++s) {
    ProducerConfig pc;
    pc.producer_id = ProducerId(s + 1);
    pc.stream = "sensor-" + std::to_string(s);
    pc.chunk_size = 1024;
    Producer producer(pc, cluster.network());
    if (!producer.Connect().ok()) return 1;
    for (int i = 0; i < 200; ++i) {
      (void)producer.Send(
          {reinterpret_cast<const std::byte*>(value.data()), value.size()});
    }
    if (!producer.Close().ok()) return 1;
    total_records += producer.GetStats().records_sent;
  }

  auto totals = cluster.TotalBrokerStats();
  double chunks_per_batch =
      totals.replication_batches == 0
          ? 0
          : double(totals.chunks_appended) /
                double(totals.replication_batches);
  std::printf("ingested %llu records (%llu chunks) across %u streams\n",
              (unsigned long long)total_records,
              (unsigned long long)totals.chunks_appended, streams);
  std::printf("replication: %llu batches, %llu RPCs to backups\n",
              (unsigned long long)totals.replication_batches,
              (unsigned long long)totals.replication_rpcs);
  std::printf("consolidation: %.1f chunks per replication batch "
              "(vs 1.0 with one replicated log per partition)\n",
              chunks_per_batch);

  // Per-vlog accounting: how the shared logs divided the work.
  for (NodeId node = 1; node <= 4; ++node) {
    for (VirtualLog* vlog : cluster.broker(node).VirtualLogs()) {
      auto s = vlog->GetStats();
      if (s.chunks_appended == 0) continue;
      std::printf("  broker %u vlog %u: %llu chunks, %llu batches, "
                  "%llu virtual segments\n",
                  node, vlog->id(), (unsigned long long)s.chunks_appended,
                  (unsigned long long)s.batches_issued,
                  (unsigned long long)s.segments_opened);
    }
  }
  return 0;
}
