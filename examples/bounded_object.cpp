// Bounded stream as an object (§IV.A: "An object is simply represented as
// a bounded stream"): write a finite dataset, seal it, and let a consumer
// read it to a definite end-of-stream — the unified ingestion/storage API
// KerA puts over both streaming and batch data.
//
//   $ ./example_bounded_object
#include <cstdio>
#include <string>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"

using namespace kera;

int main() {
  MiniClusterConfig cluster_config;
  cluster_config.nodes = 3;
  MiniCluster cluster(cluster_config);

  rpc::StreamOptions options;
  options.num_streamlets = 2;
  options.replication_factor = 3;
  if (!cluster.coordinator().CreateStream("dataset-v1", options).ok()) {
    return 1;
  }

  // Write the object's content.
  constexpr int kRecords = 2000;
  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "dataset-v1";
  pc.chunk_size = 1024;
  Producer producer(pc, cluster.network());
  if (!producer.Connect().ok()) return 1;
  for (int i = 0; i < kRecords; ++i) {
    std::string row = "row," + std::to_string(i) + "," +
                      std::to_string(i * i);
    if (!producer
             .Send({reinterpret_cast<const std::byte*>(row.data()),
                    row.size()})
             .ok()) {
      return 1;
    }
  }
  if (!producer.Close().ok()) return 1;

  // Seal: the stream becomes an immutable, durably replicated object.
  if (!cluster.coordinator().SealStream("dataset-v1").ok()) return 1;
  std::printf("wrote and sealed object 'dataset-v1' (%d rows, 3 copies)\n",
              kRecords);

  // Appends are now rejected.
  Producer late(pc, cluster.network());
  if (late.Connect().ok()) {
    std::string row = "too late";
    (void)late.Send(
        {reinterpret_cast<const std::byte*>(row.data()), row.size()});
    bool rejected = !late.Flush().ok();
    std::printf("append after seal: %s\n",
                rejected ? "rejected (as expected)" : "ACCEPTED (bug!)");
    (void)late.Close();
  }

  // A batch-style reader consumes the whole object and terminates at
  // end-of-stream — no tail polling.
  ConsumerConfig cc;
  cc.stream = "dataset-v1";
  Consumer consumer(cc, cluster.network());
  if (!consumer.Connect().ok()) return 1;
  size_t rows = 0;
  while (!consumer.Finished()) {
    rows += consumer.PollBlocking(256).size();
  }
  rows += consumer.Poll(100000).size();  // drain the buffer
  consumer.Close();
  std::printf("batch reader consumed %zu rows and saw end-of-stream\n",
              rows);
  return rows == kRecords ? 0 : 1;
}
