// End-to-end integration tests over the socket MiniCluster: multiple
// producers and consumers in parallel, exactly-once under retransmission,
// the durability gate across the full RPC stack, crash recovery over real
// sockets and threads, and memory bounding via trimming.
#include <gtest/gtest.h>

#include <filesystem>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "watchdog.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

MiniClusterConfig FourNodeConfig() {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.segment_size = 64 << 10;
  cfg.segments_per_group = 2;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = 128 << 20;
  return cfg;
}

// A shape of the multi-producer test: R=3 scattered over 4 nodes, or
// several producers whose produce handlers race on one R=1 node.
struct MultiProducerShape {
  uint32_t nodes;
  uint32_t replication;
  int producers;
};

void MultiProducerMultiConsumer(const MultiProducerShape& shape) {
  const std::string name = std::to_string(shape.producers) + " producers, " +
                           std::to_string(shape.nodes) + " nodes, R=" +
                           std::to_string(shape.replication);
  SCOPED_TRACE(name);
  Watchdog watchdog(std::chrono::seconds(120), name);
  MiniClusterConfig cfg = FourNodeConfig();
  cfg.nodes = shape.nodes;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 8;
  opts.replication_factor = shape.replication;
  ASSERT_TRUE(cluster.coordinator().CreateStream("events", opts).ok());

  constexpr int kRecordsEach = 1500;

  std::vector<std::thread> producer_threads;
  for (int p = 0; p < shape.producers; ++p) {
    producer_threads.emplace_back([&, p] {
      ProducerConfig pc;
      pc.producer_id = ProducerId(p + 1);
      pc.stream = "events";
      pc.chunk_size = 1024;
      Producer producer(pc, cluster.network());
      ASSERT_TRUE(producer.Connect().ok());
      for (int i = 0; i < kRecordsEach; ++i) {
        std::string v = "p" + std::to_string(p) + "-" + std::to_string(i);
        ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
      }
      ASSERT_TRUE(producer.Close().ok());
    });
  }
  for (auto& t : producer_threads) t.join();

  // Two consumers split the streamlets.
  std::multiset<std::string> received;
  std::mutex received_mu;
  std::vector<std::thread> consumer_threads;
  std::atomic<int> total{0};
  for (int c = 0; c < 2; ++c) {
    consumer_threads.emplace_back([&, c] {
      ConsumerConfig cc;
      cc.stream = "events";
      for (StreamletId sl = 0; sl < 8; ++sl) {
        if (int(sl % 2) == c) cc.streamlets.push_back(sl);
      }
      Consumer consumer(cc, cluster.network());
      ASSERT_TRUE(consumer.Connect().ok());
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (total.load() < shape.producers * kRecordsEach &&
             std::chrono::steady_clock::now() < deadline) {
        auto records = consumer.Poll(256);
        if (records.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        std::lock_guard<std::mutex> lock(received_mu);
        for (auto& rec : records) {
          received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                           rec.value.size());
          total.fetch_add(1);
        }
      }
      consumer.Close();
    });
  }
  for (auto& t : consumer_threads) t.join();

  ASSERT_EQ(received.size(), size_t(shape.producers * kRecordsEach));
  for (int p = 0; p < shape.producers; ++p) {
    for (int i = 0; i < kRecordsEach; ++i) {
      std::string v = "p" + std::to_string(p) + "-" + std::to_string(i);
      ASSERT_EQ(received.count(v), 1u) << v;
    }
  }
  // Backups hold R-1 copies of every chunk (R=3 scatters them over the
  // cluster).
  uint64_t backup_chunks = 0;
  for (NodeId n = 1; n <= shape.nodes; ++n) {
    backup_chunks += cluster.backup(n).GetStats().chunks_received;
  }
  auto totals = cluster.TotalBrokerStats();
  EXPECT_EQ(backup_chunks, (shape.replication - 1) * totals.chunks_appended);
}

TEST(IntegrationTest, MultiProducerMultiConsumerNoLossNoDuplication) {
  MultiProducerMultiConsumer({.nodes = 4, .replication = 3, .producers = 3});
  MultiProducerMultiConsumer({.nodes = 1, .replication = 1, .producers = 4});
}

TEST(IntegrationTest, RetransmittedRequestsAreDeduplicated) {
  MiniCluster cluster(FourNodeConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("dedup", opts);
  ASSERT_TRUE(info.ok());
  NodeId leader = info->streamlet_brokers[0];

  // Build one chunk and send the same produce request three times, as a
  // producer would after ack timeouts.
  ChunkBuilder builder(1024);
  builder.Start(info->stream, 0, /*producer=*/7);
  ASSERT_TRUE(builder.AppendValue(AsBytes(std::string("exactly-once"))));
  auto chunk = builder.Seal(/*seq=*/1);

  for (int attempt = 0; attempt < 3; ++attempt) {
    rpc::ProduceRequest req;
    req.producer = 7;
    req.stream = info->stream;
    req.chunks = {chunk};
    rpc::Writer body;
    req.Encode(body);
    auto raw = cluster.network().Call(
        leader, rpc::Frame(rpc::Opcode::kProduce, body));
    ASSERT_TRUE(raw.ok());
    rpc::Reader r(*raw);
    auto resp = rpc::ProduceResponse::Decode(r);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, StatusCode::kOk);
    if (attempt == 0) {
      EXPECT_EQ(resp->appended, 1u);
    } else {
      EXPECT_EQ(resp->appended, 0u);
      EXPECT_EQ(resp->duplicates, 1u);
    }
  }
  EXPECT_EQ(cluster.broker(leader).GetStats().chunks_appended, 1u);
}

TEST(IntegrationTest, ThreadedCrashRecoveryPreservesData) {
  MiniCluster cluster(FourNodeConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  opts.replication_factor = 3;
  ASSERT_TRUE(cluster.coordinator().CreateStream("durable", opts).ok());

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "durable";
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 2000;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("r" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  // Kill a broker and recover.
  auto info = cluster.coordinator().GetStreamInfo("durable");
  ASSERT_TRUE(info.ok());
  NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  auto replayed = cluster.coordinator().RecoverNode(victim);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

  // Every acknowledged record is still consumable.
  ConsumerConfig cc;
  cc.stream = "durable";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(256)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  consumer.Close();
  ASSERT_EQ(received.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(received.count("r" + std::to_string(i)), 1u) << i;
  }
}

// A producer that sends while a recovery replays its streamlet: the new
// leader refuses live chunks until the replay ends, so its dedup never
// drops a replayed chunk behind a newer one. 20000 records of 200 B ride
// in 1 KiB chunks; the next record is sent once the coordinator names the
// new leader, while the replay runs. Every record acked before the crash
// is consumed once, and the new one exactly when its Flush succeeded.
TEST(IntegrationTest, SendDuringRecoveryReplayLosesNothing) {
  Watchdog watchdog(std::chrono::seconds(120), "send during recovery");
  MiniCluster cluster(FourNodeConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("race", opts);
  ASSERT_TRUE(info.ok());
  ProducerConfig pc;
  pc.stream = "race";
  pc.chunk_size = 1 << 10;
  // The refused chunk is retried every 100 ms until the replay ends. The
  // default 3 retries span an optimized build's replay of these 4 MiB,
  // not a sanitizer build's, which is several times slower.
  pc.request_retries = 20;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 20000;
  auto value = [](int i) {
    std::string v = "r" + std::to_string(i);
    v.resize(200, '.');
    return v;
  };
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes(value(i))).ok());
  }
  ASSERT_TRUE(producer.Flush().ok());

  const NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  std::thread recovery(
      [&] { EXPECT_TRUE(cluster.coordinator().RecoverNode(victim).ok()); });
  while (cluster.coordinator().GetStreamInfo("race")->streamlet_brokers[0] ==
         victim) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(producer.Send(AsBytes(value(kRecords))).ok());
  const bool flushed = producer.Flush().ok();
  recovery.join();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(producer.Close().ok(), flushed);

  ConsumerConfig cc;
  cc.stream = "race";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  const size_t expected = kRecords + (flushed ? 1 : 0);
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.size() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    auto recs = consumer.Poll(1024);
    if (recs.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (auto& rec : recs) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  consumer.Close();
  EXPECT_EQ(received.size(), expected);
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_EQ(received.count(value(i)), 1u) << i;
  }
  EXPECT_EQ(received.count(value(kRecords)), flushed ? 1u : 0u);
}

TEST(IntegrationTest, TrimmingBoundsMemoryUnderSustainedLoad) {
  MiniClusterConfig cfg = FourNodeConfig();
  cfg.nodes = 2;
  cfg.segment_size = 16 << 10;
  cfg.segments_per_group = 2;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("firehose", opts).ok());

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "firehose";
  pc.chunk_size = 2048;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  std::string value(256, 'x');
  size_t trimmed_total = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(producer.Send(AsBytes(value)).ok());
    }
    ASSERT_TRUE(producer.Flush().ok());
    for (NodeId n = 1; n <= cfg.nodes; ++n) {
      trimmed_total += cluster.broker(n).TrimDurable();
    }
  }
  ASSERT_TRUE(producer.Close().ok());
  EXPECT_GT(trimmed_total, 0u);
  // Memory in use stays well below what was written: data was recycled.
  size_t in_use = 0;
  for (NodeId n = 1; n <= cfg.nodes; ++n) {
    in_use += cluster.broker(n).memory().in_use() * cfg.segment_size;
  }
  size_t written = 20u * 500u * (256 + kRecordFixedHeader);
  EXPECT_LT(in_use, written);
}

TEST(IntegrationTest, DiskBackedBackupsServeRecovery) {
  // Backups flush sealed virtual segments to disk and can evict the
  // in-memory copies; recovery then reloads from the files. This drives
  // the full disk path end-to-end through a broker crash.
  std::string dir = ::testing::TempDir() + "/kera_disk_recovery_n%u";
  // Fresh directories: a backup cold-starts by scanning its segment log,
  // so copies left by a previous run would otherwise be resurrected and
  // collide with this run's virtual segment ids.
  for (int n = 1; n <= 4; ++n) {
    std::filesystem::remove_all(::testing::TempDir() +
                                "/kera_disk_recovery_n" + std::to_string(n));
  }
  MiniClusterConfig cfg = FourNodeConfig();
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.backup_dir = dir;
  cfg.segment_size = 8 << 10;            // small segments: many seals
  cfg.virtual_segment_capacity = 8 << 10;
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("disk", opts);
  ASSERT_TRUE(info.ok());

  constexpr int kChunks = 60;
  std::string value(3000, 'd');  // ~2 chunks per virtual segment
  for (int i = 1; i <= kChunks; ++i) {
    StreamletId sl = StreamletId(i % 2);
    ChunkBuilder b(4096);
    b.Start(info->stream, sl, 1);
    ASSERT_TRUE(b.AppendValue(AsBytes(value)));
    auto chunk = b.Seal(ChunkSeq(i));
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info->stream;
    req.chunks = {chunk};
    ASSERT_EQ(cluster.broker(info->streamlet_brokers[sl])
                  .HandleProduce(req)
                  .status,
              StatusCode::kOk);
  }

  // Flush everything sealed so far and evict it from backup memory.
  size_t evicted = 0;
  for (NodeId n = 1; n <= 4; ++n) {
    cluster.backup(n).WaitForFlushes();
    evicted += cluster.backup(n).EvictFlushed();
  }
  ASSERT_GT(evicted, 0u);

  NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  auto replayed = cluster.coordinator().RecoverNode(victim);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(*replayed, 0u);

  // Every chunk of the streamlet led by the victim is intact.
  auto fresh = cluster.coordinator().GetStreamInfo("disk");
  ASSERT_TRUE(fresh.ok());
  for (StreamletId sl = 0; sl < 2; ++sl) {
    if (info->streamlet_brokers[sl] != victim) continue;
    Stream* stream =
        cluster.broker(fresh->streamlet_brokers[sl]).GetStream(info->stream);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->GetStreamlet(sl)->total_chunks(), uint64_t(kChunks / 2));
  }
}

TEST(IntegrationTest, ConsumersNeverReadUnreplicatedData) {
  // With all backups crashed, R3 appends cannot become durable; a consume
  // via the full RPC stack must return nothing, then everything after the
  // backups "recover".
  MiniClusterConfig cfg = FourNodeConfig();
  cfg.transport = MiniClusterTransport::kDirect;  // precise control
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("gated", opts);
  ASSERT_TRUE(info.ok());
  NodeId leader = info->streamlet_brokers[0];

  ChunkBuilder builder(512);
  builder.Start(info->stream, 0, 1);
  ASSERT_TRUE(builder.AppendValue(AsBytes(std::string("gated-record"))));
  auto chunk = builder.Seal(1);

  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info->stream;
  req.chunks = {chunk};
  std::vector<std::pair<VirtualLog*, ChunkRef>> appended;
  auto presp = cluster.broker(leader).HandleProduceNoSync(req, &appended);
  ASSERT_EQ(presp.status, StatusCode::kOk);

  rpc::ConsumeRequest creq;
  creq.stream = info->stream;
  creq.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                   .max_chunks = 10}};
  rpc::Writer body;
  creq.Encode(body);
  auto raw = cluster.network().Call(leader,
                                    rpc::Frame(rpc::Opcode::kConsume, body));
  ASSERT_TRUE(raw.ok());
  rpc::Reader r(*raw);
  auto cresp = rpc::ConsumeResponse::Decode(r);
  ASSERT_TRUE(cresp.ok());
  EXPECT_TRUE(cresp->entries[0].chunks.empty());  // durability gate holds

  // Drive replication; data becomes visible.
  ASSERT_EQ(appended.size(), 1u);
  VirtualLog* vlog = appended[0].first;
  while (auto batch = vlog->Poll()) {
    ASSERT_TRUE(cluster.broker(leader).ShipBatch(*vlog, *batch).ok());
  }
  raw = cluster.network().Call(leader, rpc::Frame(rpc::Opcode::kConsume,
                                                  body));
  ASSERT_TRUE(raw.ok());
  rpc::Reader r2(*raw);
  auto cresp2 = rpc::ConsumeResponse::Decode(r2);
  ASSERT_TRUE(cresp2.ok());
  EXPECT_EQ(cresp2->entries[0].chunks.size(), 1u);
}

}  // namespace
}  // namespace kera
