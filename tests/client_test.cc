// Tests for the producer/consumer clients against a socket MiniCluster.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "watchdog.h"

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

/// Forwards every call to another network, but can hold the producer's
/// requests (the only parts calls that pass through it): while held, a
/// request is forwarded only once Release() is called, so its produce
/// round stays in flight for as long as the test wants.
class HoldingNetwork final : public rpc::Network {
 public:
  explicit HoldingNetwork(rpc::Network& inner) : inner_(inner) {}

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override {
    return inner_.Call(to, request);
  }
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override {
    return inner_.CallAsync(to, request);
  }
  std::future<Result<std::vector<std::byte>>> CallAsyncParts(
      NodeId to, const rpc::BytesRefParts& parts) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!holding_) return inner_.CallAsyncParts(to, parts);
    ++held_;
    cv_.notify_all();
    // The caller keeps the pieces alive until this future resolves.
    return std::async(std::launch::async, [this, to, parts] {
      {
        std::unique_lock<std::mutex> wait(mu_);
        cv_.wait(wait, [&] { return !holding_; });
      }
      return inner_.CallAsyncParts(to, parts).get();
    });
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    holding_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      holding_ = false;
    }
    cv_.notify_all();
  }
  /// Waits until `n` requests have been held.
  void WaitHeld(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_ >= n; });
  }

 private:
  rpc::Network& inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool holding_ = false;
  int held_ = 0;
};

/// Forwards every call to another network, but flips the last byte (a
/// payload byte) of the first chunk that any consume response carries.
class CorruptingNetwork final : public rpc::Network {
 public:
  explicit CorruptingNetwork(rpc::Network& inner) : inner_(inner) {}

  Result<std::vector<std::byte>> Call(
      NodeId to, std::span<const std::byte> request) override {
    return inner_.Call(to, request);
  }
  std::future<Result<std::vector<std::byte>>> CallAsync(
      NodeId to, std::span<const std::byte> request) override {
    rpc::Opcode op;
    std::span<const std::byte> body;
    if (!rpc::ParseFrame(request, op, body).ok() ||
        op != rpc::Opcode::kConsume) {
      return inner_.CallAsync(to, request);
    }
    return std::async(std::launch::async,
                      [this, reply = inner_.CallAsync(to, request)]() mutable {
                        auto raw = reply.get();
                        if (raw.ok()) CorruptFirstChunk(*raw);
                        return raw;
                      });
  }
  std::future<Result<std::vector<std::byte>>> CallAsyncParts(
      NodeId to, const rpc::BytesRefParts& parts) override {
    return inner_.CallAsyncParts(to, parts);
  }

 private:
  void CorruptFirstChunk(std::vector<std::byte>& raw) {
    rpc::Reader r(raw);
    auto resp = rpc::ConsumeResponse::Decode(r);
    if (!resp.ok()) return;
    for (const auto& entry : resp->entries) {
      if (entry.chunks.empty()) continue;
      if (done_.exchange(true)) return;
      std::span<const std::byte> chunk = entry.chunks.front();
      raw[size_t(chunk.data() - raw.data()) + chunk.size() - 1] ^=
          std::byte{0xFF};
      return;
    }
  }

  rpc::Network& inner_;
  std::atomic<bool> done_{false};
};

/// Consumes `expected` records of `stream` and maps each (distinct) value
/// to the streamlet it was read from; every value must arrive exactly once.
std::map<std::string, StreamletId> ConsumeAll(MiniCluster& cluster,
                                              const std::string& stream,
                                              size_t expected) {
  ConsumerConfig cc;
  cc.stream = stream;
  Consumer consumer(cc, cluster.network());
  EXPECT_TRUE(consumer.Connect().ok());
  std::map<std::string, StreamletId> streamlet_of;
  size_t total = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (total < expected && std::chrono::steady_clock::now() < deadline) {
    auto records = consumer.Poll(256);
    if (records.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    for (auto& rec : records) {
      streamlet_of.emplace(
          std::string(reinterpret_cast<const char*>(rec.value.data()),
                      rec.value.size()),
          rec.streamlet);
      ++total;
    }
  }
  consumer.Close();
  EXPECT_EQ(total, expected);
  EXPECT_EQ(streamlet_of.size(), expected);
  return streamlet_of;
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
  // The requests thread seals the first chunk at its deadline, so this
  // record starts a second one. The sleep leaves the timer's wake-up
  // ample slack on a loaded host.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(producer.Send(AsBytes(std::string("second"))).ok());
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_GE(producer.GetStats().chunks_sent, 2u);
  ASSERT_TRUE(producer.Close().ok());
}

// Keys "a" and "b" hash to different streamlets of a 2-streamlet stream;
// ConsumeAll checks that at the end.
TEST(ProducerTest, LingerSealsAnIdleStreamletsChunkOnSendToAnother) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 2, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 64 << 10;  // never fills here
  pc.linger_us = 100'000;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  const std::string a = "a", b = "b";
  ASSERT_TRUE(producer.SendKeyed(AsBytes(a), AsBytes(std::string("a0"))).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // a's streamlet gets no more records: the requests thread sealed its
  // chunk at the deadline, without waiting for a Send to another one.
  ASSERT_TRUE(producer.SendKeyed(AsBytes(b), AsBytes(std::string("b0"))).ok());
  EXPECT_EQ(producer.GetStats().chunks_sent, 1u);
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_EQ(producer.GetStats().chunks_sent, 2u);
  ASSERT_TRUE(producer.Close().ok());
  auto streamlet_of = ConsumeAll(cluster, "s", 2);
  EXPECT_NE(streamlet_of["a0"], streamlet_of["b0"]);
}

TEST(ProducerTest, FullChunkDoesNotPassItsDeadlineToItsSuccessor) {
  // Steps are 0.6 linger apart, so every check has 0.4 linger of margin.
  constexpr auto kStep = std::chrono::milliseconds(600);
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 2, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 1024;
  pc.linger_us = 1'000'000;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  const std::string a = "a", b = "b";
  int sent = 0;
  auto send = [&](const std::string& key) {
    return producer.SendKeyed(AsBytes(key),
                              AsBytes(key + std::to_string(sent++)));
  };
  ASSERT_TRUE(send(a).ok());
  std::this_thread::sleep_for(kStep);
  // Fill a's first chunk: the record that does not fit starts its
  // successor, whose deadline is one linger from now.
  while (producer.GetStats().chunks_sent == 0) ASSERT_TRUE(send(a).ok());
  std::this_thread::sleep_for(kStep);
  // Past the first chunk's deadline, not past the successor's.
  ASSERT_TRUE(send(b).ok());
  EXPECT_EQ(producer.GetStats().chunks_sent, 1u);
  std::this_thread::sleep_for(kStep);
  // Past the successor's deadline; b's chunk is 0.6 linger old.
  ASSERT_TRUE(send(b).ok());
  EXPECT_EQ(producer.GetStats().chunks_sent, 2u);
  ASSERT_TRUE(producer.Close().ok());
  EXPECT_EQ(producer.GetStats().chunks_sent, 3u);
  auto streamlet_of = ConsumeAll(cluster, "s", size_t(sent));
  EXPECT_NE(streamlet_of["a0"], streamlet_of["b" + std::to_string(sent - 1)]);
}

// The requests thread times linger expiry itself: a lone record ships
// once its chunk's linger passes, with no later Send and no Flush.
TEST(ProducerTest, LingeredChunkShipsWithoutALaterSend) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 1, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 64 << 10;  // never fills here
  pc.linger_us = 1000;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  ASSERT_TRUE(producer.Send(AsBytes(std::string("lonely"))).ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::vector<ConsumedRecord> got;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.empty() && std::chrono::steady_clock::now() < deadline) {
    got = consumer.Poll(16);
    if (got.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  consumer.Close();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(got[0].value.data()),
                        got[0].value.size()),
            "lonely");
  EXPECT_EQ(producer.GetStats().chunks_sent, 1u);
  ASSERT_TRUE(producer.Close().ok());
}

// While a produce round is in flight, a chunk past its linger deadline is
// not sealed: it keeps taking records, and the requests thread seals it
// once the round completes, so everything sent meanwhile ships in it.
TEST(ProducerTest, LingeredChunkKeepsFillingWhileARoundIsInFlight) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 1, 1);
  HoldingNetwork net(cluster.network());
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 64 << 10;  // never fills here
  pc.linger_us = 1000;
  Watchdog watchdog(std::chrono::seconds(60), "held produce round");
  Producer producer(pc, net);
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kRecords = 10;
  auto value = [](int i) { return "r" + std::to_string(i); };
  net.Hold();
  ASSERT_TRUE(producer.Send(AsBytes(value(0))).ok());
  // The requests thread seals r0's chunk at its deadline, and that chunk
  // is the held round; r1 opens the next chunk.
  net.WaitHeld(1);
  ASSERT_TRUE(producer.Send(AsBytes(value(1))).ok());
  for (int i = 2; i < kRecords; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ASSERT_TRUE(producer.Send(AsBytes(value(i))).ok());
  }
  EXPECT_EQ(producer.GetStats().chunks_sent, 1u);
  net.Release();
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_EQ(producer.GetStats().chunks_sent, 2u);
  ASSERT_TRUE(producer.Close().ok());

  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  std::vector<ConsumedRecord> got;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (got.size() < size_t(kRecords) &&
         std::chrono::steady_clock::now() < deadline) {
    for (auto& rec : consumer.PollBlocking(64)) got.push_back(std::move(rec));
  }
  consumer.Close();
  ASSERT_EQ(got.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(got[i].value.data()),
                          got[i].value.size()),
              value(i));
    if (i > 1) {
      EXPECT_EQ(got[i].group, got[1].group) << i;
      EXPECT_EQ(got[i].chunk_index, got[1].chunk_index) << i;
    }
  }
  EXPECT_NE(got[0].chunk_index, got[1].chunk_index);
}

// With the pool's builders split over open, sealed and in-flight chunks,
// the source waits for the held round's ack and then carries on.
TEST(ProducerTest, PoolRunningDryDuringAHeldRoundDoesNotDeadlock) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 8, 1);
  HoldingNetwork net(cluster.network());
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_pool_size = 4;
  pc.linger_us = 1000;
  Watchdog watchdog(std::chrono::seconds(60), "pool dry during held round");
  Producer producer(pc, net);
  ASSERT_TRUE(producer.Connect().ok());
  constexpr size_t kRecords = 64;
  std::atomic<size_t> sent{0};
  net.Hold();
  std::thread source([&] {
    for (size_t i = 0; i < kRecords; ++i) {
      if (!producer.Send(AsBytes("r" + std::to_string(i))).ok()) break;
      sent.fetch_add(1);
    }
    EXPECT_TRUE(producer.Flush().ok());
  });
  net.WaitHeld(1);
  // Round-robin over 8 streamlets runs the 4 builders dry: the source
  // waits for the held round.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(sent.load(), kRecords);
  net.Release();
  source.join();
  EXPECT_EQ(sent.load(), kRecords);
  auto stats = producer.GetStats();
  EXPECT_EQ(stats.chunks_acked, stats.chunks_sent);
  EXPECT_EQ(stats.request_failures, 0u);
  ASSERT_TRUE(producer.Close().ok());
  ConsumeAll(cluster, "s", kRecords);
}

// An open chunk holds a pooled builder. Round-robin over more streamlets
// than the pool has builders must still deliver every record: the oldest
// open chunk is sealed when no builder is left to wait for.
TEST(ProducerTest, MoreStreamletsThanPooledBuildersDeliversEverything) {
  for (uint32_t streamlets : {257u, 512u}) {
    SCOPED_TRACE(streamlets);
    MiniCluster cluster(SocketConfig());
    MakeStream(cluster, "s", streamlets, 1);
    ProducerConfig pc;
    pc.stream = "s";
    ASSERT_LT(pc.chunk_pool_size, streamlets);
    Watchdog watchdog(std::chrono::seconds(60),
                      "producer over " + std::to_string(streamlets) +
                          " streamlets");
    Producer producer(pc, cluster.network());
    ASSERT_TRUE(producer.Connect().ok());
    const size_t records = 3 * size_t(streamlets);
    for (size_t i = 0; i < records; ++i) {
      ASSERT_TRUE(producer.Send(AsBytes("r" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(producer.Flush().ok());
    auto stats = producer.GetStats();
    EXPECT_EQ(stats.records_sent, records);
    EXPECT_EQ(stats.chunks_acked, stats.chunks_sent);
    EXPECT_EQ(stats.request_failures, 0u);
    ASSERT_TRUE(producer.Close().ok());
    ConsumeAll(cluster, "s", records);
  }
}

// Flush must hand every builder back to the pool: a streamlet whose chunk
// lingered out earlier holds no builder that Flush could drop.
TEST(ProducerTest, FlushKeepsEveryPooledBuilder) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 2, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_pool_size = 4;
  pc.linger_us = 1000;
  Watchdog watchdog(std::chrono::seconds(60), "Send/Flush cycles");
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  constexpr int kCycles = 8;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ASSERT_TRUE(producer.Send(AsBytes("x" + std::to_string(cycle))).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    // Round-robin: this one goes to the other streamlet while the first
    // record's chunk lingers out.
    ASSERT_TRUE(producer.Send(AsBytes("y" + std::to_string(cycle))).ok());
    ASSERT_TRUE(producer.Flush().ok());
  }
  EXPECT_EQ(producer.GetStats().chunks_acked, uint64_t(2 * kCycles));
  ASSERT_TRUE(producer.Close().ok());
  ConsumeAll(cluster, "s", 2 * kCycles);
}

// The broker refuses a chunk longer than its segment with kInvalidArgument,
// which no retry can change: that chunk fails at once, and the chunk it
// was batched with retries and lands.
TEST(ProducerTest, ChunkLongerThanASegmentFailsAloneAtOnce) {
  MiniClusterConfig cfg = SocketConfig();
  cfg.nodes = 1;
  MiniCluster cluster(cfg);
  MakeStream(cluster, "s", 2, 1);
  ProducerConfig pc;
  pc.stream = "s";
  pc.chunk_size = 128 << 10;  // longer than the 64 KiB segment
  pc.chunk_pool_size = 4;      // of 128 KiB builders each
  pc.linger_us = 10'000'000;  // Flush seals both chunks into one round
  Watchdog watchdog(std::chrono::seconds(60), "chunk longer than a segment");
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  const std::string big(70 << 10, 'x'), small(100, 's');
  ASSERT_TRUE(producer.Send(AsBytes(big)).ok());    // streamlet 0
  ASSERT_TRUE(producer.Send(AsBytes(small)).ok());  // streamlet 1
  EXPECT_FALSE(producer.Flush().ok());
  EXPECT_EQ(producer.GetStats().request_failures, 1u);
  auto broker = cluster.TotalBrokerStats();
  EXPECT_LE(broker.produce_rpcs, 2u);
  EXPECT_EQ(broker.chunks_appended, 1u);
  EXPECT_FALSE(producer.Close().ok());
  EXPECT_EQ(ConsumeAll(cluster, "s", 1).count(small), 1u);
}

// After a migration the first round reaches the old leader, which refuses
// it with kNotLeader; one leader lookup then points every later round at
// the new leader.
TEST(ProducerTest, RoundsFollowAMovedLeader) {
  MiniClusterConfig cfg = SocketConfig();
  cfg.nodes = 3;
  MiniCluster cluster(cfg);
  auto info = MakeStream(cluster, "s", 1, 2);
  ProducerConfig pc;
  pc.stream = "s";
  Watchdog watchdog(std::chrono::seconds(60), "rounds after a migration");
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  int sent = 0;
  auto send = [&] {
    return producer.Send(AsBytes("r" + std::to_string(sent++)));
  };
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(send().ok());
  ASSERT_TRUE(producer.Flush().ok());

  const NodeId old_leader = info.streamlet_brokers[0];
  const NodeId target = old_leader % 3 + 1;
  ASSERT_TRUE(cluster.coordinator().MigrateStreamlet("s", 0, target).ok());
  const uint64_t old_rpcs = cluster.broker(old_leader).GetStats().produce_rpcs;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(send().ok());
    ASSERT_TRUE(producer.Flush().ok());
  }
  EXPECT_LE(cluster.broker(old_leader).GetStats().produce_rpcs - old_rpcs, 1u);
  auto stats = producer.GetStats();
  EXPECT_EQ(stats.retry_repartitions, 1u);
  EXPECT_EQ(stats.request_failures, 0u);
  ASSERT_TRUE(producer.Close().ok());
  ConsumeAll(cluster, "s", size_t(sent));
}

// A crash recovery moves the dead leader's streamlets while the producer
// stays connected: the round that fails at the dead node costs one lookup,
// and every later round goes to the recovered leaders.
TEST(ProducerTest, RoundsFollowARecoveredLeader) {
  MiniClusterConfig cfg = SocketConfig();
  cfg.nodes = 4;
  MiniCluster cluster(cfg);
  auto info = MakeStream(cluster, "s", 4, 3);
  ProducerConfig pc;
  pc.stream = "s";
  Watchdog watchdog(std::chrono::seconds(60), "rounds after a recovery");
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  int sent = 0;
  auto send = [&] {
    return producer.Send(AsBytes("r" + std::to_string(sent++)));
  };
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(send().ok());
  ASSERT_TRUE(producer.Flush().ok());

  const NodeId victim = info.streamlet_brokers[0];
  cluster.CrashNode(victim);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(victim).ok());
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(send().ok());
    ASSERT_TRUE(producer.Flush().ok());
  }
  auto stats = producer.GetStats();
  EXPECT_EQ(stats.retry_repartitions, 1u);
  EXPECT_EQ(stats.request_failures, 0u);
  ASSERT_TRUE(producer.Close().ok());
  ConsumeAll(cluster, "s", size_t(sent));
}

// kFenced (a newer instance of this producer id) and kSegmentClosed (the
// stream is sealed) fail the whole request on its first reply.
TEST(ProducerTest, FinalStatusEndsTheRequestAtOnce) {
  for (const bool fence : {true, false}) {
    SCOPED_TRACE(fence ? "fenced" : "sealed");
    MiniClusterConfig cfg = SocketConfig();
    cfg.nodes = 1;
    MiniCluster cluster(cfg);
    MakeStream(cluster, "s", 1, 1);
    ProducerConfig pc;
    pc.producer_id = 7;
    pc.stream = "s";
    pc.exactly_once = true;
    Watchdog watchdog(std::chrono::seconds(60), "final produce status");
    Producer producer(pc, cluster.network());
    ASSERT_TRUE(producer.Connect().ok());
    ASSERT_TRUE(producer.Send(AsBytes(std::string("first"))).ok());
    ASSERT_TRUE(producer.Flush().ok());
    if (fence) {
      // The successor's first chunk raises the broker's epoch for the id.
      Producer successor(pc, cluster.network());
      ASSERT_TRUE(successor.Connect().ok());
      ASSERT_TRUE(successor.Send(AsBytes(std::string("successor"))).ok());
      ASSERT_TRUE(successor.Close().ok());
    } else {
      ASSERT_TRUE(cluster.coordinator().SealStream("s").ok());
    }
    const uint64_t rpcs = cluster.TotalBrokerStats().produce_rpcs;
    ASSERT_TRUE(producer.Send(AsBytes(std::string("refused"))).ok());
    EXPECT_FALSE(producer.Flush().ok());
    EXPECT_EQ(cluster.TotalBrokerStats().produce_rpcs - rpcs, 1u);
    auto stats = producer.GetStats();
    EXPECT_EQ(stats.request_failures, 1u);
    EXPECT_EQ(stats.fenced_rejections, fence ? 1u : 0u);
    EXPECT_FALSE(producer.Close().ok());
  }
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

// Poll and PollBlocking ingest through one path: a chunk that fails its
// checksum while PollBlocking waits for data is dropped and counted.
TEST(ClientRoundTripTest, PollBlockingCountsACorruptChunk) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 1, 1);
  CorruptingNetwork net(cluster.network());
  ConsumerConfig cc;
  cc.stream = "s";
  Consumer consumer(cc, net);
  ASSERT_TRUE(consumer.Connect().ok());
  Watchdog watchdog(std::chrono::seconds(60), "PollBlocking over a bad chunk");
  std::thread source([&] {
    // PollBlocking finds nothing buffered and blocks before any chunk
    // exists, so the corrupted one reaches it in its blocking wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ProducerConfig pc;
    pc.stream = "s";
    Producer producer(pc, cluster.network());
    ASSERT_TRUE(producer.Connect().ok());
    for (std::string v : {"corrupted", "intact"}) {
      EXPECT_TRUE(producer.Send(AsBytes(v)).ok());
      EXPECT_TRUE(producer.Flush().ok());
    }
    EXPECT_TRUE(producer.Close().ok());
  });
  auto got = consumer.PollBlocking(16);
  source.join();
  consumer.Close();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(got[0].value.data()),
                        got[0].value.size()),
            "intact");
  EXPECT_EQ(consumer.GetStats().checksum_failures, 1u);
}

TEST(ClientRoundTripTest, KeyedRecordsLandOnOneStreamlet) {
  MiniCluster cluster(SocketConfig());
  MakeStream(cluster, "s", 4, 1);
  ProducerConfig pc;
  pc.stream = "s";
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
