// Tests for the producer/consumer clients against a socket MiniCluster.
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

MiniClusterConfig SocketConfig() {
  MiniClusterConfig cfg;
  cfg.nodes = 2;
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = 64 << 20;
  return cfg;
}

rpc::StreamInfo MakeStream(MiniCluster& cluster, const std::string& name,
                           uint32_t streamlets, uint32_t r) {
  rpc::StreamOptions opts;
  opts.num_streamlets = streamlets;
  opts.replication_factor = r;
  auto info = cluster.coordinator().CreateStream(name, opts);
  EXPECT_TRUE(info.ok());
  return *info;
}

TEST(ProducerTest, ConnectFailsForUnknownStream) {
  MiniCluster cluster(SocketConfig());
  ProducerConfig pc;
  pc.stream = "missing";
  Producer producer(pc, cluster.network());
  auto s = producer.Connect();
  EXPECT_FALSE(s.ok());
}

TEST(ProducerTest, SendFlushDeliversAllRecords) {
  MiniCluster cluster(SocketConfig());
  auto info = MakeStream(cluster, "s", 2, 2);

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "s";
  pc.chunk_size = 1024;
  pc.linger_us = 100000;  // rely on chunk fill + flush, not linger
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());

  constexpr int kRecords = 5000;
  for (int i = 0; i < kRecords; ++i) {
    std::string v = "record-" + std::to_string(i);
    ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
  }
  ASSERT_TRUE(producer.Flush().ok());
  auto stats = producer.GetStats();
  EXPECT_EQ(stats.records_sent, uint64_t(kRecords));
  EXPECT_EQ(stats.chunks_acked, stats.chunks_sent);
  EXPECT_EQ(stats.request_failures, 0u);
  EXPECT_GT(stats.requests_sent, 0u);
  // Chunks landed on brokers, durably.
  auto totals = cluster.TotalBrokerStats();
  EXPECT_EQ(totals.chunks_appended, stats.chunks_sent);
  ASSERT_TRUE(producer.Close().ok());
}

TEST(ProducerTest, LingerPushesPartialChunks) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 1, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 64 << 10;  // never fills from one record
  pc.linger_us = 500;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  ASSERT_TRUE(producer.Send(AsBytes(std::string("lonely"))).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // The next Send triggers the linger check and seals the first chunk.
  ASSERT_TRUE(producer.Send(AsBytes(std::string("second"))).ok());
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_GE(producer.GetStats().chunks_sent, 2u);
  ASSERT_TRUE(producer.Close().ok());
}

TEST(ClientRoundTripTest, ProduceThenConsumeEverything) {
  MiniCluster cluster(SocketConfig());
  auto info = MakeStream(cluster, "s", 2, 2);

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "s";
  pc.chunk_size = 1024;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());

  constexpr int kRecords = 2000;
  for (int i = 0; i < kRecords; ++i) {
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());

  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(256)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  consumer.Close();
  ASSERT_EQ(received.size(), size_t(kRecords));
  // No duplicates, no losses: every distinct value exactly once.
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(received.count("v" + std::to_string(i)), 1u) << i;
  }
  EXPECT_EQ(consumer.GetStats().checksum_failures, 0u);
}

TEST(ClientRoundTripTest, KeyedRecordsLandOnOneStreamlet) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 4, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.partitioner = Partitioner::kKeyHash;
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(producer
                    .SendKeyed(AsBytes(std::string("same-key")),
                               AsBytes(std::string("v") + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::set<StreamletId> seen;
  size_t total = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (total < 200 && std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(64)) {
      seen.insert(rec.streamlet);
      ++total;
    }
  }
  consumer.Close();
  EXPECT_EQ(total, 200u);
  EXPECT_EQ(seen.size(), 1u);  // one key -> one streamlet
}

TEST(ClientRoundTripTest, GroupSharingConsumersPartitionTheStream) {
  // Vertical scalability: two consumers share ONE streamlet at group
  // granularity (group_id mod 2). Together they must see every record
  // exactly once; individually they only see their own groups.
  MiniClusterConfig cfg = SocketConfig();
  cfg.segment_size = 4 << 10;  // tiny segments => many groups
  cfg.segments_per_group = 2;
  MiniCluster cluster(cfg);
  MakeStream(cluster, "s", 1, 2);

  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 1024;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 3000;
  for (int i = 0; i < kRecords; ++i) {
    std::string v(100, 'g');
    v += std::to_string(i);
    ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  // The stream must have rolled several groups for sharing to matter.
  auto info = cluster.coordinator().GetStreamInfo("s");
  ASSERT_TRUE(info.ok());
  Stream* stream =
      cluster.broker(info->streamlet_brokers[0]).GetStream(info->stream);
  ASSERT_GT(stream->GetStreamlet(0)->next_group_id(), 3u);

  std::multiset<std::string> received;
  std::mutex mu;
  std::vector<std::set<GroupId>> member_groups(2);
  std::atomic<int> total{0};
  std::vector<std::thread> members;
  for (uint32_t m = 0; m < 2; ++m) {
    members.emplace_back([&, m] {
      ConsumerConfig cc;
      cc.stream = "s";
      cc.share_count = 2;
      cc.share_index = m;
      Consumer consumer(cc, cluster.network());
      ASSERT_TRUE(consumer.Connect().ok());
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (total.load() < kRecords &&
             std::chrono::steady_clock::now() < deadline) {
        auto records = consumer.Poll(256);
        if (records.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        for (auto& rec : records) {
          EXPECT_EQ(rec.group % 2, m);  // only its own groups
          member_groups[m].insert(rec.group);
          received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                           rec.value.size());
          total.fetch_add(1);
        }
      }
      consumer.Close();
    });
  }
  for (auto& t : members) t.join();
  ASSERT_EQ(received.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    std::string v(100, 'g');
    v += std::to_string(i);
    ASSERT_EQ(received.count(v), 1u) << i;
  }
  // Both members actually worked (several groups each).
  EXPECT_GE(member_groups[0].size(), 1u);
  EXPECT_GE(member_groups[1].size(), 1u);
}

TEST(ClientRoundTripTest, BadGroupShareConfigRejected) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 1, 1);
  ConsumerConfig cc;
  cc.stream = "s";
  cc.share_count = 2;
  cc.share_index = 5;  // out of range
  Consumer consumer(cc, cluster.network());
  EXPECT_FALSE(consumer.Connect().ok());
}

TEST(ClientRoundTripTest, ConsumerSeesRecordsInOrderPerGroup) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 1, 2);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 1000;
  for (int i = 0; i < kRecords; ++i) {
    std::string v = std::to_string(i);
    ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  // Single producer, single streamlet, Q=1: total order must hold within
  // each group and group ids advance monotonically.
  long expected = 0;
  std::pair<GroupId, uint64_t> last_pos{0, 0};
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (expected < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(128)) {
      std::string v(reinterpret_cast<const char*>(rec.value.data()),
                    rec.value.size());
      ASSERT_EQ(std::stol(v), expected);
      std::pair<GroupId, uint64_t> pos{rec.group, rec.chunk_index};
      ASSERT_GE(pos, last_pos);
      last_pos = pos;
      ++expected;
    }
  }
  consumer.Close();
  EXPECT_EQ(expected, kRecords);
}

}  // namespace
}  // namespace kera
