// Tests for bounded streams ("an object is simply represented as a
// bounded stream", §IV.A): sealing, producer rejection, consumer
// end-of-stream, interaction with recovery.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

MiniClusterConfig Config(MiniClusterTransport transport) {
  MiniClusterConfig cfg;
  cfg.nodes = 3;
  cfg.transport = transport;
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  return cfg;
}

TEST(BoundedStreamTest, SealRejectsFurtherProduces) {
  MiniCluster cluster(Config(MiniClusterTransport::kDirect));
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("obj", opts);
  ASSERT_TRUE(info.ok());

  ChunkBuilder b(512);
  b.Start(info->stream, 0, 1);
  ASSERT_TRUE(b.AppendValue(AsBytes("before seal")));
  auto chunk = b.Seal(1);
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info->stream;
  req.chunks = {chunk};
  NodeId leader = info->streamlet_brokers[0];
  ASSERT_EQ(cluster.broker(leader).HandleProduce(req).status,
            StatusCode::kOk);

  ASSERT_TRUE(cluster.coordinator().SealStream("obj").ok());
  // Info reflects the seal.
  auto fresh = cluster.coordinator().GetStreamInfo("obj");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->sealed);

  // Further appends rejected.
  b.Start(info->stream, 0, 1);
  ASSERT_TRUE(b.AppendValue(AsBytes("after seal")));
  auto chunk2 = b.Seal(2);
  req.chunks = {chunk2};
  EXPECT_EQ(cluster.broker(leader).HandleProduce(req).status,
            StatusCode::kSegmentClosed);
}

TEST(BoundedStreamTest, SealViaRpc) {
  MiniCluster cluster(Config(MiniClusterTransport::kDirect));
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("obj", opts).ok());

  rpc::SealStreamRequest req;
  req.name = "obj";
  rpc::Writer body;
  req.Encode(body);
  auto raw = cluster.network().Call(
      kCoordinatorNode, rpc::Frame(rpc::Opcode::kSealStream, body));
  ASSERT_TRUE(raw.ok());
  rpc::Reader r(*raw);
  auto resp = rpc::SealStreamResponse::Decode(r);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);

  // Sealing a missing stream fails.
  req.name = "missing";
  rpc::Writer body2;
  req.Encode(body2);
  raw = cluster.network().Call(kCoordinatorNode,
                               rpc::Frame(rpc::Opcode::kSealStream, body2));
  rpc::Reader r2(*raw);
  EXPECT_EQ(rpc::SealStreamResponse::Decode(r2)->status,
            StatusCode::kNotFound);
}

TEST(BoundedStreamTest, ConsumerReachesEndOfStream) {
  MiniCluster cluster(Config(MiniClusterTransport::kSocket));
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("obj", opts).ok());

  constexpr int kRecords = 800;
  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "obj";
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("rec-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());
  ASSERT_TRUE(cluster.coordinator().SealStream("obj").ok());

  // Consumer connects AFTER the seal and must drain and terminate.
  ConsumerConfig cc;
  cc.stream = "obj";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::set<std::string> seen;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!consumer.Finished() &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(128)) {
      seen.emplace(reinterpret_cast<const char*>(rec.value.data()),
                   rec.value.size());
    }
  }
  // Drain anything still buffered.
  for (auto& rec : consumer.Poll(100000)) {
    seen.emplace(reinterpret_cast<const char*>(rec.value.data()),
                 rec.value.size());
  }
  EXPECT_TRUE(consumer.Finished());
  EXPECT_EQ(seen.size(), size_t(kRecords));
  consumer.Close();
}

TEST(BoundedStreamTest, EmptySealedStreamFinishesImmediately) {
  MiniCluster cluster(Config(MiniClusterTransport::kSocket));
  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  ASSERT_TRUE(cluster.coordinator().CreateStream("empty", opts).ok());
  ASSERT_TRUE(cluster.coordinator().SealStream("empty").ok());

  ConsumerConfig cc;
  cc.stream = "empty";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!consumer.Finished() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(consumer.Finished());
  EXPECT_TRUE(consumer.Poll(10).empty());
  consumer.Close();
}

TEST(BoundedStreamTest, RecoveryReplaysIntoSealedStream) {
  MiniClusterConfig cfg = Config(MiniClusterTransport::kDirect);
  cfg.nodes = 4;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("obj", opts);
  ASSERT_TRUE(info.ok());

  // Produce to both streamlets, then seal.
  for (StreamletId sl = 0; sl < 2; ++sl) {
    for (int i = 1; i <= 10; ++i) {
      ChunkBuilder b(512);
      b.Start(info->stream, sl, 1);
      ASSERT_TRUE(b.AppendValue(AsBytes("x" + std::to_string(i))));
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
  }
  ASSERT_TRUE(cluster.coordinator().SealStream("obj").ok());

  // Crash a leader; recovery must replay into the sealed stream (the
  // recovery flag bypasses the seal check) without reopening it to
  // producers.
  NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  auto replayed = cluster.coordinator().RecoverNode(victim);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(*replayed, 0u);

  auto fresh = cluster.coordinator().GetStreamInfo("obj");
  EXPECT_TRUE(fresh->sealed);
  NodeId new_leader = fresh->streamlet_brokers[0];
  ChunkBuilder b(512);
  b.Start(info->stream, 0, 2);
  ASSERT_TRUE(b.AppendValue(AsBytes("rejected")));
  auto chunk = b.Seal(1);
  rpc::ProduceRequest req;
  req.producer = 2;
  req.stream = info->stream;
  req.chunks = {chunk};
  EXPECT_EQ(cluster.broker(new_leader).HandleProduce(req).status,
            StatusCode::kSegmentClosed);
}

}  // namespace
}  // namespace kera
