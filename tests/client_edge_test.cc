// Edge-case tests for the client library: producer backpressure when the
// chunk pool drains, request retries over a flaky network, oversized
// records, Flush/Close idempotence, and consumer behavior against dead
// brokers.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "chaos/chaos_net.h"
#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

MiniClusterConfig SmallConfig() {
  MiniClusterConfig cfg;
  cfg.nodes = 2;
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  return cfg;
}

TEST(ProducerEdgeTest, RecordLargerThanChunkRejected) {
  MiniCluster cluster(SmallConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 256;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  std::string huge(1000, 'x');
  auto s = producer.Send(AsBytes(huge));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The producer stays usable for fitting records.
  EXPECT_TRUE(producer.Send(AsBytes(std::string("small"))).ok());
  EXPECT_TRUE(producer.Close().ok());
}

TEST(ProducerEdgeTest, TinyChunkPoolStillDeliversEverything) {
  // A 4-builder pool forces constant recycling through the SPSC path; no
  // record may be lost or duplicated under that backpressure.
  MiniCluster cluster(SmallConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 512;
  pc.chunk_pool_size = 4;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 2000;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("r" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());
  auto stats = producer.GetStats();
  EXPECT_EQ(stats.records_sent, uint64_t(kRecords));
  EXPECT_EQ(stats.chunks_acked, stats.chunks_sent);
  EXPECT_EQ(cluster.TotalBrokerStats().chunks_appended, stats.chunks_sent);
}

TEST(ProducerEdgeTest, FlushTwiceAndCloseTwiceAreIdempotent) {
  MiniCluster cluster(SmallConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  ProducerConfig pc;
  pc.stream = "s";
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  ASSERT_TRUE(producer.Send(AsBytes(std::string("once"))).ok());
  EXPECT_TRUE(producer.Flush().ok());
  EXPECT_TRUE(producer.Flush().ok());
  EXPECT_TRUE(producer.Close().ok());
  EXPECT_TRUE(producer.Close().ok());
  EXPECT_EQ(cluster.TotalBrokerStats().chunks_appended, 1u);
}

TEST(ProducerEdgeTest, RetriesAbsorbFlakyTransport) {
  // Drop 20% of requests AND 20% of responses on every edge the clients
  // call (coordinator and brokers): retries + broker dedup must still
  // deliver exactly once.
  MiniClusterConfig cfg = SmallConfig();
  cfg.transport = MiniClusterTransport::kDirect;  // under the fault decorator
  MiniCluster cluster(cfg);
  chaos::ChaosNetwork flaky(cluster.network(), 11);
  chaos::ChaosNetwork::EdgePolicy lossy;
  lossy.drop_request = 0.2;
  lossy.drop_response = 0.2;
  flaky.SetEdgePolicy(kCoordinatorNode, lossy);
  for (NodeId n : cluster.BrokerNodes()) flaky.SetEdgePolicy(n, lossy);
  // Connect makes one unretried metadata call; retry it like an
  // application would.
  auto connect = [](auto& client) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (client.Connect().ok()) return true;
    }
    return false;
  };
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());

  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 512;
  pc.request_retries = 50;
  Producer producer(pc, flaky);
  ASSERT_TRUE(connect(producer));
  constexpr int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("f" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());
  auto pstats = producer.GetStats();
  EXPECT_EQ(pstats.request_failures, 0u);

  // Consume through the same flaky network; the consumer retries rounds.
  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, flaky);
  ASSERT_TRUE(connect(consumer));
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(128)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  consumer.Close();
  ASSERT_EQ(received.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(received.count("f" + std::to_string(i)), 1u) << i;
  }
  EXPECT_GT(flaky.GetStats().dropped_requests +
                flaky.GetStats().dropped_responses,
            0u);
}

TEST(ConsumerEdgeTest, SurvivesBrokerOutageAndResumes) {
  // Crash a node mid-consumption (after all data is durable elsewhere is
  // NOT guaranteed — so use R2 and crash, then recover; the consumer's
  // fetch loop retries through the outage and finishes after recovery,
  // reading from whatever leader currently serves the streamlet).
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 4;  // 3 survivors after the crash can still hold R3
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("s", opts);
  ASSERT_TRUE(info.ok());

  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 800;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("o" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  // A consumer that resolved metadata BEFORE the crash keeps polling the
  // dead leader; after recovery a fresh consumer sees everything. (Stale
  // consumers re-resolving metadata is future work, documented.)
  NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(victim).ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(128)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  consumer.Close();
  EXPECT_EQ(received.size(), size_t(kRecords));
}

TEST(ConsumerEdgeTest, FlowControlPausesAndResumesUnderSlowPoller) {
  // A tiny prefetch budget against a slow Poll-er: the fetch workers must
  // pause (bounding buffered bytes) and resume as the application drains,
  // still delivering every record exactly once.
  MiniClusterConfig cfg = SmallConfig();
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 400;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(
        producer.Send(AsBytes("v" + std::to_string(i) + std::string(90, 'p')))
            .ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  cc.fetch_pipeline_depth = 4;
  cc.fetch_buffer_bytes = 2 << 10;      // ~4 chunks of prefetch
  cc.max_bytes_per_request = 2 << 10;   // keep responses small too
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(10)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // slow app
  }
  auto stats = consumer.GetStats();
  consumer.Close();
  ASSERT_EQ(received.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(received.count("v" + std::to_string(i) + std::string(90, 'p')),
              1u)
        << i;
  }
  EXPECT_GT(stats.flow_control_pauses, 0u);
}

TEST(ConsumerEdgeTest, PipelinedFetchPreservesPerGroupChunkOrder) {
  // Pipelining at depths 1 and 8 with small per-entry fetches: chunks of
  // one group must still be delivered in order (one outstanding request
  // per group), across group rollovers.
  MiniClusterConfig cfg = SmallConfig();
  cfg.segment_size = 4 << 10;  // groups roll quickly
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.active_groups_per_streamlet = 2;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  constexpr int kPerProducer = 1000;
  for (ProducerId p = 1; p <= 2; ++p) {
    ProducerConfig pc;
    pc.producer_id = p;
    pc.stream = "s";
    pc.chunk_size = 512;
    Producer producer(pc, cluster.network());
    ASSERT_TRUE(producer.Connect().ok());
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_TRUE(producer
                      .Send(AsBytes("p" + std::to_string(p) + "-" +
                                    std::to_string(i) + std::string(80, 'q')))
                      .ok());
    }
    ASSERT_TRUE(producer.Close().ok());
  }

  // Depth 1 is the same engine with one request per broker in flight.
  for (uint32_t depth : {1u, 8u}) {
    SCOPED_TRACE("fetch_pipeline_depth=" + std::to_string(depth));
    ConsumerConfig cc;
    cc.stream = "s";
    cc.fetch_pipeline_depth = depth;
    cc.max_chunks_per_entry = 2;  // many small interleaved fetches
    Consumer consumer(cc, cluster.network());
    ASSERT_TRUE(consumer.Connect().ok());
    std::multiset<std::string> received;
    std::map<std::pair<StreamletId, GroupId>, uint64_t> last_chunk;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (received.size() < 2 * kPerProducer &&
           std::chrono::steady_clock::now() < deadline) {
      for (auto& rec : consumer.PollBlocking(128)) {
        auto key = std::make_pair(rec.streamlet, rec.group);
        auto it = last_chunk.find(key);
        if (it != last_chunk.end()) {
          EXPECT_GE(rec.chunk_index, it->second)
              << "chunk order violated in streamlet " << rec.streamlet
              << " group " << rec.group;
        }
        last_chunk[key] = rec.chunk_index;
        received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                         rec.value.size());
      }
    }
    consumer.Close();
    ASSERT_EQ(received.size(), size_t(2 * kPerProducer));
    for (ProducerId p = 1; p <= 2; ++p) {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(received.count("p" + std::to_string(p) + "-" +
                                 std::to_string(i) + std::string(80, 'q')),
                  1u);
      }
    }
    EXPECT_GT(last_chunk.size(), 2u);  // several groups were actually read
  }
}

TEST(ConsumerEdgeTest, LongPollEliminatesIdleEmptyResponses) {
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 1;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());

  // Baseline: long-poll disabled, the consumer spins empty rounds.
  uint64_t polled_empties = 0;
  {
    ConsumerConfig cc;
    cc.stream = "s";
    cc.fetch_max_wait_us = 0;
    Consumer consumer(cc, cluster.network());
    ASSERT_TRUE(consumer.Connect().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    polled_empties = consumer.GetStats().empty_responses;
    consumer.Close();
  }

  // Long-poll: idle fetches park at the broker instead.
  ConsumerConfig cc;
  cc.stream = "s";
  cc.fetch_max_wait_us = 100'000;
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  uint64_t parked_empties = consumer.GetStats().empty_responses;

  EXPECT_GT(polled_empties, 50u);
  EXPECT_LE(parked_empties, 8u);
  EXPECT_GE(cluster.TotalBrokerStats().consume_long_polls, 1u);

  // The parked fetch wakes through the whole client path when data lands.
  ProducerConfig pc;
  pc.stream = "s";
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  ASSERT_TRUE(producer.Send(AsBytes(std::string("wake"))).ok());
  ASSERT_TRUE(producer.Close().ok());
  auto recs = consumer.PollBlocking(10);
  ASSERT_EQ(recs.size(), 1u);
  consumer.Close();
}

TEST(ConsumerEdgeTest, CloseUnblocksParkedLongPoll) {
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 1;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  ConsumerConfig cc;
  cc.stream = "s";
  cc.fetch_max_wait_us = 2'000'000;  // worker parks a 2 s long-poll
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto start = std::chrono::steady_clock::now();
  consumer.Close();  // must not wait out the poll deadline
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1500));
}

TEST(ConsumerEdgeTest, CrashMidFetchRetriesCleanlyAndCloseStaysPrompt) {
  // Kill the leader while the pipelined workers are actively fetching:
  // in-flight RPCs fail, the workers back off and retry without crashing
  // or duplicating data, and Close() stays prompt. After recovery a fresh
  // consumer (leadership moved) reads everything exactly once.
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 4;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("s", opts);
  ASSERT_TRUE(info.ok());
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 512;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 800;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  cc.max_bytes_per_request = 4 << 10;  // keep the fetch mid-stream longer
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> before;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (before.size() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(32)) {
      before.emplace(reinterpret_cast<const char*>(rec.value.data()),
                     rec.value.size());
    }
  }
  ASSERT_GE(before.size(), 100u);

  NodeId victim = info->streamlet_brokers[0];
  cluster.CrashNode(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& rec : consumer.Poll(100000)) {  // drain; no crash, no garbage
    before.emplace(reinterpret_cast<const char*>(rec.value.data()),
                   rec.value.size());
  }
  for (const auto& v : before) EXPECT_EQ(before.count(v), 1u);
  auto start = std::chrono::steady_clock::now();
  consumer.Close();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1500));

  ASSERT_TRUE(cluster.coordinator().RecoverNode(victim).ok());
  ConsumerConfig cc2;
  cc2.stream = "s";
  Consumer fresh(cc2, cluster.network());
  ASSERT_TRUE(fresh.Connect().ok());
  std::multiset<std::string> all;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (all.size() < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : fresh.PollBlocking(128)) {
      all.emplace(reinterpret_cast<const char*>(rec.value.data()),
                  rec.value.size());
    }
  }
  fresh.Close();
  ASSERT_EQ(all.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(all.count("c" + std::to_string(i)), 1u) << i;
  }
}

TEST(ConsumerEdgeTest, PollOnUnconnectedConsumerIsEmpty) {
  MiniCluster cluster(SmallConfig());
  ConsumerConfig cc;
  cc.stream = "nope";
  Consumer consumer(cc, cluster.network());
  EXPECT_FALSE(consumer.Connect().ok());
  EXPECT_TRUE(consumer.Poll(10).empty());
  EXPECT_FALSE(consumer.Finished());
  consumer.Close();  // must not hang or crash
}

}  // namespace
}  // namespace kera
