// Tests for streamlet migration (§IV.A: "M represents the maximum number
// of nodes that can ingest and store a stream's records, ensuring
// horizontal scalability through migration of streamlets to new
// brokers"). Migration replays acknowledged data from the backups into
// the target — crash recovery without the crash.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "watchdog.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() {
    MiniClusterConfig cfg;
    cfg.nodes = 4;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.segment_size = 32 << 10;
    cfg.virtual_segment_capacity = 32 << 10;
    cluster_ = std::make_unique<MiniCluster>(cfg);
  }

  rpc::StreamInfo MakeStream(uint32_t streamlets, uint32_t r) {
    rpc::StreamOptions opts;
    opts.num_streamlets = streamlets;
    opts.replication_factor = r;
    auto info = cluster_->coordinator().CreateStream("m", opts);
    EXPECT_TRUE(info.ok());
    return *info;
  }

  void Produce(const rpc::StreamInfo& info, StreamletId sl, ProducerId p,
               ChunkSeq seq, const std::string& value,
               StatusCode expect = StatusCode::kOk,
               NodeId to = kInvalidNode) {
    ChunkBuilder b(1024);
    b.Start(info.stream, sl, p);
    ASSERT_TRUE(b.AppendValue(AsBytes(value)));
    auto chunk = b.Seal(seq);
    rpc::ProduceRequest req;
    req.producer = p;
    req.stream = info.stream;
    req.chunks = {chunk};
    NodeId leader = to != kInvalidNode ? to : info.streamlet_brokers[sl];
    EXPECT_EQ(cluster_->broker(leader).HandleProduce(req).status, expect);
  }

  std::vector<std::string> ReadAll(StreamId stream, StreamletId sl,
                                   NodeId leader) {
    std::vector<std::string> values;
    GroupId group = 0;
    uint64_t cursor = 0;
    int idle = 0;
    while (idle < 3) {
      rpc::ConsumeRequest req;
      req.stream = stream;
      req.entries = {{.streamlet = sl, .group = group, .start_chunk = cursor,
                      .max_chunks = 100}};
      auto resp = cluster_->broker(leader).HandleConsume(req);
      EXPECT_EQ(resp.status, StatusCode::kOk);
      const auto& e = resp.entries[0];
      for (const auto& cb : e.chunks) {
        auto view = ChunkView::Parse(cb);
        EXPECT_TRUE(view.ok());
        for (auto it = view->records(); !it.Done(); it.Next()) {
          auto v = it.record().value();
          values.emplace_back(reinterpret_cast<const char*>(v.data()),
                              v.size());
        }
      }
      cursor = e.next_chunk;
      if (e.group_closed) {
        ++group;
        cursor = 0;
        idle = 0;
      } else if (e.chunks.empty()) {
        ++idle;
      }
    }
    return values;
  }

  std::unique_ptr<MiniCluster> cluster_;
};

TEST_F(MigrationTest, DataSurvivesMigrationAndAppendsContinue) {
  auto info = MakeStream(2, 3);
  for (int i = 1; i <= 12; ++i) {
    Produce(info, 0, 1, ChunkSeq(i), "pre-" + std::to_string(i));
  }
  NodeId old_leader = info.streamlet_brokers[0];
  NodeId target = old_leader % 4 + 1;  // some other node
  auto replayed =
      cluster_->coordinator().MigrateStreamlet("m", 0, target);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, 12u);

  auto fresh = cluster_->coordinator().GetStreamInfo("m");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->streamlet_brokers[0], target);
  // Streamlet 1 is untouched.
  EXPECT_EQ(fresh->streamlet_brokers[1], info.streamlet_brokers[1]);

  // All pre-migration records live on the target, in producer order.
  auto values = ReadAll(info.stream, 0, target);
  ASSERT_EQ(values.size(), 12u);
  for (int i = 1; i <= 12; ++i) {
    EXPECT_EQ(values[i - 1], "pre-" + std::to_string(i));
  }

  // New appends continue on the target with the next sequence (dedup
  // state was rebuilt by the replay).
  for (int i = 13; i <= 15; ++i) {
    Produce(*fresh, 0, 1, ChunkSeq(i), "post-" + std::to_string(i));
  }
  values = ReadAll(info.stream, 0, target);
  EXPECT_EQ(values.size(), 15u);
  EXPECT_EQ(values.back(), "post-15");
}

TEST_F(MigrationTest, OldLeaderRejectsAppendsAfterMigration) {
  auto info = MakeStream(1, 2);
  Produce(info, 0, 1, 1, "x");
  NodeId old_leader = info.streamlet_brokers[0];
  NodeId target = old_leader % 4 + 1;
  ASSERT_TRUE(
      cluster_->coordinator().MigrateStreamlet("m", 0, target).ok());
  // A stale producer hitting the old leader gets kNotLeader.
  Produce(info, 0, 1, 2, "stale", StatusCode::kNotLeader, old_leader);
  // Stale consumers can still read the durable prefix from the old copy.
  auto old_values = ReadAll(info.stream, 0, old_leader);
  EXPECT_EQ(old_values.size(), 1u);
}

TEST_F(MigrationTest, MigrationToSelfIsNoOp) {
  auto info = MakeStream(1, 2);
  Produce(info, 0, 1, 1, "x");
  auto replayed = cluster_->coordinator().MigrateStreamlet(
      "m", 0, info.streamlet_brokers[0]);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 0u);
}

TEST_F(MigrationTest, RejectsUnreplicatedStreams) {
  auto info = MakeStream(1, 1);
  Produce(info, 0, 1, 1, "x");
  NodeId target = info.streamlet_brokers[0] % 4 + 1;
  auto r = cluster_->coordinator().MigrateStreamlet("m", 0, target);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MigrationTest, RejectsBadArguments) {
  auto info = MakeStream(1, 2);
  EXPECT_FALSE(
      cluster_->coordinator().MigrateStreamlet("missing", 0, 2).ok());
  EXPECT_FALSE(cluster_->coordinator().MigrateStreamlet("m", 9, 2).ok());
  EXPECT_FALSE(cluster_->coordinator().MigrateStreamlet("m", 0, 99).ok());
}

TEST_F(MigrationTest, ChainedMigrationsPreserveData) {
  auto info = MakeStream(1, 3);
  for (int i = 1; i <= 8; ++i) {
    Produce(info, 0, 1, ChunkSeq(i), "v" + std::to_string(i));
  }
  // Hop the streamlet across every other node.
  NodeId current = info.streamlet_brokers[0];
  for (NodeId target = 1; target <= 4; ++target) {
    if (target == current) continue;
    auto r = cluster_->coordinator().MigrateStreamlet("m", 0, target);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    current = target;
  }
  auto fresh = cluster_->coordinator().GetStreamInfo("m");
  auto values = ReadAll(info.stream, 0, fresh->streamlet_brokers[0]);
  ASSERT_EQ(values.size(), 8u);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_EQ(values[i - 1], "v" + std::to_string(i));
  }
}

// A producer that sends while a migration replays its streamlet into the
// target, over sockets: the target refuses live chunks until the replay
// ends, so its dedup never drops a replayed chunk behind a newer one.
// 20000 records of 200 B ride in 1 KiB chunks; the next record is sent
// once the coordinator names the target, while the replay runs. Every
// record acked before the move is consumed once, and the new one exactly
// when its Flush succeeded.
TEST(MigrationRaceTest, SendDuringMigrationReplayLosesNothing) {
  Watchdog watchdog(std::chrono::seconds(120), "send during migration");
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.segment_size = 64 << 10;
  cfg.segments_per_group = 2;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = 128 << 20;
  MiniCluster cluster(cfg);
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

  const NodeId old_leader = info->streamlet_brokers[0];
  const NodeId target = old_leader % 4 + 1;
  std::thread migration([&] {
    EXPECT_TRUE(
        cluster.coordinator().MigrateStreamlet("race", 0, target).ok());
  });
  while (cluster.coordinator().GetStreamInfo("race")->streamlet_brokers[0] !=
         target) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(producer.Send(AsBytes(value(kRecords))).ok());
  const bool flushed = producer.Flush().ok();
  migration.join();
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

}  // namespace
}  // namespace kera
