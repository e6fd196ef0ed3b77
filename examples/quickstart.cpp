// Quickstart: bring up an in-process KerA cluster, create a stream,
// produce a batch of records, and consume them back — the minimal
// end-to-end use of the public API.
//
//   $ ./example_quickstart
#include <cstdio>
#include <string>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"

using namespace kera;

int main() {
  // A 3-node cluster: each node hosts a broker and a backup service.
  MiniClusterConfig cluster_config;
  cluster_config.nodes = 3;
  MiniCluster cluster(cluster_config);

  // A stream with 2 partitions (streamlets), replicated 3 times. The
  // virtual logs that implement replication are transparent to clients.
  rpc::StreamOptions options;
  options.num_streamlets = 2;
  options.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("greetings", options);
  if (!info.ok()) {
    std::fprintf(stderr, "create stream: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("created stream 'greetings' (id %llu) with %zu streamlets\n",
              (unsigned long long)info->stream,
              info->streamlet_brokers.size());

  // Produce 1000 records.
  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "greetings";
  pc.chunk_size = 1024;
  Producer producer(pc, cluster.network());
  if (!producer.Connect().ok()) return 1;
  for (int i = 0; i < 1000; ++i) {
    std::string value = "hello-" + std::to_string(i);
    auto s = producer.Send(
        {reinterpret_cast<const std::byte*>(value.data()), value.size()});
    if (!s.ok()) {
      std::fprintf(stderr, "send: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!producer.Close().ok()) return 1;
  auto pstats = producer.GetStats();
  std::printf("produced %llu records in %llu chunks (%llu requests), "
              "p50 request latency %llu us\n",
              (unsigned long long)pstats.records_sent,
              (unsigned long long)pstats.chunks_sent,
              (unsigned long long)pstats.requests_sent,
              (unsigned long long)pstats.request_latency_us.Quantile(0.5));

  // Consume everything back. Consumers only ever see durably replicated
  // records (acknowledged by all backups).
  ConsumerConfig cc;
  cc.stream = "greetings";
  Consumer consumer(cc, cluster.network());
  if (!consumer.Connect().ok()) return 1;
  size_t received = 0;
  while (received < 1000) {
    auto records = consumer.PollBlocking(128);
    if (records.empty()) break;
    received += records.size();
  }
  consumer.Close();
  std::printf("consumed %zu records back\n", received);

  auto totals = cluster.TotalBrokerStats();
  std::printf("cluster: %llu chunks appended, %llu replication RPCs "
              "(%llu batches), %llu bytes replicated\n",
              (unsigned long long)totals.chunks_appended,
              (unsigned long long)totals.replication_rpcs,
              (unsigned long long)totals.replication_batches,
              (unsigned long long)totals.replication_bytes);
  return received == 1000 ? 0 : 1;
}
