// Edge-case tests for the client library: producer backpressure when the
// chunk pool drains, request retries over a flaky network, oversized
// records, Flush/Close idempotence, and consumer behavior against dead
// brokers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "chaos/chaos_net.h"
#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "rpc/messages.h"
#include "watchdog.h"

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

/// Forwards every call to another network, but while holding it parks
/// each consume request's reply: the returned future stays pending until
/// Release, which forwards the parked requests and completes them.
class ConsumeHoldingNetwork final : public rpc::Network {
 public:
  explicit ConsumeHoldingNetwork(rpc::Network& inner) : inner_(inner) {}
  ~ConsumeHoldingNetwork() override { Release(); }

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override {
    return inner_.Call(to, request);
  }
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override {
    rpc::Opcode op{};
    std::span<const std::byte> body;
    std::lock_guard<std::mutex> lock(mu_);
    if (!holding_ || !rpc::ParseFrame(request, op, body).ok() ||
        op != rpc::Opcode::kConsume) {
      return inner_.CallAsync(to, request);
    }
    held_.push_back({to, {request.begin(), request.end()}, {}});
    cv_.notify_all();
    return held_.back().reply.get_future();
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    holding_ = true;
  }
  /// Stops holding and completes every parked request.
  void Release() {
    std::vector<Held> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      holding_ = false;
      held.swap(held_);
    }
    for (Held& h : held) h.reply.set_value(inner_.Call(h.to, h.request));
  }
  /// Waits until `n` consume requests are parked.
  void WaitHeld(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_.size() >= n; });
  }

 private:
  struct Held {
    NodeId to = 0;
    std::vector<std::byte> request;
    std::promise<Result<std::vector<std::byte>>> reply;
  };
  rpc::Network& inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool holding_ = false;
  std::vector<Held> held_;
};

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

TEST(ConsumerEdgeTest, FetchPreservesPerGroupChunkOrder) {
  // Small per-entry fetches over several groups: chunks of one group must
  // still be delivered in order (a cursor is in one request at a time),
  // across group rollovers.
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

  ConsumerConfig cc;
  cc.stream = "s";
  cc.max_chunks_per_entry = 2;  // many small interleaved fetches
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::multiset<std::string> received;
  std::map<std::pair<StreamletId, GroupId>, uint64_t> last_chunk;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
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

TEST(ConsumerEdgeTest, LongPollEliminatesIdleEmptyResponses) {
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 1;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());

  // Idle fetches park at the broker instead of spinning empty rounds: the
  // first fetch returns at once, and every later empty response is a
  // long-poll that waited out its full 50 ms.
  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(consumer.Connect().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t parked_empties = consumer.GetStats().empty_responses;
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LE(parked_empties,
            1 + uint64_t(elapsed / std::chrono::milliseconds(50)));
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

// A tailing consumer keeps one long-poll parked per broker: each record
// wakes it with data, and a fetch comes back empty only after waiting out
// its 50 ms, never as a wait-0 fetch racing ahead of the producer.
TEST(ConsumerEdgeTest, TailingConsumerSendsNoEmptyFetches) {
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 1;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  opts.replication_factor = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  Watchdog watchdog(std::chrono::seconds(60), "tailing consumer");

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(consumer.Connect().ok());
  ProducerConfig pc;
  pc.stream = "s";
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 200;
  std::thread feeder([&] {
    for (int i = 0; i < kRecords; ++i) {
      EXPECT_TRUE(producer.Send(AsBytes("t" + std::to_string(i))).ok());
      EXPECT_TRUE(producer.Flush().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::multiset<std::string> received;
  while (received.size() < kRecords) {
    for (auto& rec : consumer.PollBlocking(64)) {
      received.emplace(reinterpret_cast<const char*>(rec.value.data()),
                       rec.value.size());
    }
  }
  feeder.join();
  const auto stats = consumer.GetStats();
  const uint64_t waits = uint64_t((std::chrono::steady_clock::now() - start) /
                                  std::chrono::milliseconds(50));
  consumer.Close();
  EXPECT_TRUE(producer.Close().ok());

  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(received.count("t" + std::to_string(i)), 1u) << i;
  }
  EXPECT_LE(stats.empty_responses, waits + 1);
  EXPECT_LE(stats.requests_sent, stats.chunks_received + waits + 2);
}

TEST(ConsumerEdgeTest, CloseUnblocksParkedLongPoll) {
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 1;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  ConsumeHoldingNetwork net(cluster.network());
  Watchdog watchdog(std::chrono::seconds(60), "close over a held fetch");
  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, net);
  net.Hold();
  ASSERT_TRUE(consumer.Connect().ok());
  net.WaitHeld(1);  // the fetch worker waits on a reply that never comes
  auto start = std::chrono::steady_clock::now();
  consumer.Close();  // must not wait for the held reply
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1500));
}

// A sealed stream with two active groups per streamlet, read by two
// group-sharing members: each member ends once every group it owns is
// drained, including the one that waits for a group the seal means will
// never be created. Producer 1 writes every streamlet; producer 2 only
// streamlets 0 and 1, so streamlet 2 holds group 0 alone and member 1's
// cursor for its group 1 ends on the seal.
TEST(ConsumerEdgeTest, SharedSealedStreamFinishesEveryMember) {
  MiniCluster cluster(SmallConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 3;
  opts.active_groups_per_streamlet = 2;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("s", opts).ok());
  auto value = [](ProducerId p, int i) {
    return "p" + std::to_string(p) + "-" + std::to_string(i);
  };
  const std::map<ProducerId, int> records = {{1, 300}, {2, 2}};
  for (const auto& [p, n] : records) {
    ProducerConfig pc;
    pc.producer_id = p;
    pc.stream = "s";
    Producer producer(pc, cluster.network());
    ASSERT_TRUE(producer.Connect().ok());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(producer.Send(AsBytes(value(p, i))).ok());
    }
    ASSERT_TRUE(producer.Close().ok());
  }
  ASSERT_TRUE(cluster.coordinator().SealStream("s").ok());

  Watchdog watchdog(std::chrono::seconds(60), "shared sealed stream drain");
  std::multiset<std::string> received[2];
  std::thread members[2];
  for (uint32_t m = 0; m < 2; ++m) {
    members[m] = std::thread([&, m] {
      ConsumerConfig cc;
      cc.stream = "s";
      cc.share_count = 2;
      cc.share_index = m;
      Consumer consumer(cc, cluster.network());
      ASSERT_TRUE(consumer.Connect().ok());
      for (;;) {
        auto recs = consumer.PollBlocking(64);
        for (const auto& rec : recs) {
          EXPECT_EQ(rec.group % 2, m);
          received[m].emplace(
              reinterpret_cast<const char*>(rec.value.data()),
              rec.value.size());
        }
        if (recs.empty() && consumer.Finished()) break;
      }
      consumer.Close();
    });
  }
  for (auto& t : members) t.join();
  EXPECT_FALSE(received[0].empty());
  EXPECT_FALSE(received[1].empty());
  for (const auto& [p, n] : records) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(received[0].count(value(p, i)) + received[1].count(value(p, i)),
                1u)
          << value(p, i);
    }
  }
  EXPECT_EQ(received[0].size() + received[1].size(), 302u);
}

TEST(ConsumerEdgeTest, CrashMidFetchRetriesCleanlyAndCloseStaysPrompt) {
  // Kill the leader while the fetch workers are actively fetching: the
  // in-flight RPC fails, the workers back off and retry without crashing
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

// A broker that restarted no longer hosts the stream and refuses every
// fetch with kNotFound at once. The consumer still fetches from the
// leaders it resolved at Connect, so it must back a refused fetch off as
// it does an unreachable broker instead of re-sending it in a tight loop.
TEST(ConsumerEdgeTest, RefusedFetchBacksOff) {
  MiniClusterConfig cfg = SmallConfig();
  cfg.nodes = 3;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 3;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("s", opts);
  ASSERT_TRUE(info.ok());
  constexpr NodeId kVictim = 2;
  ASSERT_EQ(std::count(info->streamlet_brokers.begin(),
                       info->streamlet_brokers.end(), kVictim),
            1);
  Watchdog watchdog(std::chrono::seconds(60), "refused fetch backoff");

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  cluster.CrashNode(kVictim);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(kVictim).ok());
  ASSERT_TRUE(cluster.RestartNode(kVictim).ok());
  const uint64_t before = cluster.broker(kVictim).GetStats().consume_rpcs;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t refused =
      cluster.broker(kVictim).GetStats().consume_rpcs - before;
  consumer.Close();
  EXPECT_LE(refused, 20u);
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
