// KerA vs the Kafka model on the REAL substrates (the broker, virtual
// log and Kafka-model code, in process) — not the simulation. Runs the
// same workload through both systems and prints the replication RPC
// accounting: the virtual log consolidates many small per-partition
// replication RPCs into few large ones; the Kafka model issues pull-based
// fetches per partition. (Wall-clock throughput on a laptop is not
// meaningful — the interesting output is the I/O shape.)
//
//   $ ./example_kera_vs_kafka [streams]
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "kafka/kafka_cluster.h"
#include "wire/chunk.h"

using namespace kera;

namespace {

constexpr int kChunksPerStream = 50;
constexpr size_t kChunkSize = 1024;
constexpr uint32_t kReplication = 3;

std::vector<std::byte> MakeChunk(StreamId stream, StreamletId streamlet,
                                 ChunkSeq seq) {
  ChunkBuilder b(kChunkSize);
  b.Start(stream, streamlet, 1);
  std::vector<std::byte> value(100, std::byte{0x42});
  while (b.AppendValue(value)) {
  }
  auto bytes = b.Seal(seq);
  return {bytes.begin(), bytes.end()};
}

struct Shape {
  uint64_t replication_rpcs;
  uint64_t replication_bytes;
  double avg_kb() const {
    return replication_rpcs == 0
               ? 0
               : double(replication_bytes) / double(replication_rpcs) / 1024;
  }
};

Shape RunKerA(uint32_t streams) {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.vlogs_per_broker = 4;
  cfg.replication_max_batch_bytes = 64 << 10;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = kReplication;
  std::vector<rpc::StreamInfo> infos;
  for (uint32_t s = 0; s < streams; ++s) {
    auto info = cluster.coordinator().CreateStream(
        "s" + std::to_string(s), opts);
    if (!info.ok()) std::abort();
    infos.push_back(*info);
  }
  // Proxy-producer pattern (§V.A): one request per broker per round, with
  // a chunk for every stream that broker leads. The broker appends all
  // chunks first and then synchronizes the touched vlogs — that is where
  // the aggregation happens. (The ProduceRequest RPC spans one stream, so
  // we send per-stream requests but drive replication per round via the
  // NoSync + ShipBatch path. The broker's own request loop issues a batch
  // on every touched vlog before collecting any; shipping them one vlog
  // after another here sends the same batches, and this example counts
  // RPCs and bytes, not time.)
  for (int i = 1; i <= kChunksPerStream; ++i) {
    std::map<NodeId, std::vector<VirtualLog*>> touched;
    std::vector<std::vector<std::byte>> frames;  // keep alive until shipped
    for (uint32_t s = 0; s < streams; ++s) {
      frames.push_back(MakeChunk(infos[s].stream, 0, ChunkSeq(i)));
      rpc::ProduceRequest req;
      req.producer = 1;
      req.stream = infos[s].stream;
      req.chunks = {frames.back()};
      NodeId leader = infos[s].streamlet_brokers[0];
      std::vector<std::pair<VirtualLog*, ChunkRef>> appended;
      auto resp = cluster.broker(leader).HandleProduceNoSync(req, &appended);
      if (resp.status != StatusCode::kOk) std::abort();
      for (auto& [vlog, _] : appended) {
        auto& list = touched[leader];
        if (std::find(list.begin(), list.end(), vlog) == list.end()) {
          list.push_back(vlog);
        }
      }
    }
    // One sync per touched vlog per round — the whole round's chunks ship
    // in aggregated batches.
    for (auto& [leader, vlogs] : touched) {
      for (VirtualLog* vlog : vlogs) {
        while (auto batch = vlog->Poll()) {
          if (!cluster.broker(leader).ShipBatch(*vlog, *batch).ok()) {
            std::abort();
          }
        }
      }
    }
  }
  auto totals = cluster.TotalBrokerStats();
  return {totals.replication_rpcs, totals.replication_bytes};
}

Shape RunKafka(uint32_t streams) {
  kafka::KafkaClusterConfig cfg;
  cfg.nodes = 4;
  kafka::KafkaCluster cluster(cfg);
  std::vector<kafka::TopicInfo> topics;
  for (uint32_t s = 0; s < streams; ++s) {
    auto t = cluster.CreateTopic("t" + std::to_string(s), 1, kReplication);
    if (!t.ok()) std::abort();
    topics.push_back(*t);
  }
  cluster.StartReplication();
  for (int i = 1; i <= kChunksPerStream; ++i) {
    for (uint32_t s = 0; s < streams; ++s) {
      auto chunk = MakeChunk(1, 0, ChunkSeq(i));
      if (!cluster.Produce(topics[s].id, 0, chunk, 9).ok()) std::abort();
    }
  }
  cluster.StopReplication();
  auto stats = cluster.GetStats();
  return {stats.fetch_rpcs - stats.empty_fetches, stats.fetch_bytes};
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t streams = argc > 1 ? uint32_t(std::atoi(argv[1])) : 32;
  uint64_t chunks = uint64_t(streams) * kChunksPerStream;
  std::printf("workload: %u streams x %d chunks of %zu B, replication %u\n\n",
              streams, kChunksPerStream, kChunkSize, kReplication);

  Shape kera_shape = RunKerA(streams);
  Shape kafka_shape = RunKafka(streams);

  std::printf("%-22s %14s %16s %10s\n", "system", "repl RPCs", "repl bytes",
              "avg KB/RPC");
  std::printf("%-22s %14llu %16llu %10.1f\n", "KerA (4 vlogs/broker)",
              (unsigned long long)kera_shape.replication_rpcs,
              (unsigned long long)kera_shape.replication_bytes,
              kera_shape.avg_kb());
  std::printf("%-22s %14llu %16llu %10.1f\n", "Kafka model (pull)",
              (unsigned long long)kafka_shape.replication_rpcs,
              (unsigned long long)kafka_shape.replication_bytes,
              kafka_shape.avg_kb());
  std::printf("\n%llu chunks ingested; KerA used %.1fx fewer replication "
              "RPCs with %.1fx larger payloads\n",
              (unsigned long long)chunks,
              double(kafka_shape.replication_rpcs) /
                  double(kera_shape.replication_rpcs),
              kera_shape.avg_kb() / (kafka_shape.avg_kb() + 1e-9));
  return 0;
}
