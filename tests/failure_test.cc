// Failure-injection tests: a lossy network between clients, brokers and
// backups must never break exactly-once semantics or the durability gate.
// Producer retries + broker-side dedup + idempotent backup batches absorb
// both lost requests and lost responses. Faults come from
// chaos::ChaosNetwork edge policies, over DirectNetwork and SocketNetwork.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>

#include "backup/backup.h"
#include "broker/broker.h"
#include "chaos/chaos_net.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(StreamId stream, StreamletId streamlet,
                                 ProducerId producer, ChunkSeq seq) {
  ChunkBuilder b(512);
  b.Start(stream, streamlet, producer);
  EXPECT_TRUE(b.AppendValue(AsBytes("flaky-payload")));
  auto bytes = b.Seal(seq);
  return {bytes.begin(), bytes.end()};
}

class Echo final : public rpc::RpcHandler {
 public:
  std::vector<std::byte> HandleRpc(std::span<const std::byte> r) override {
    calls.fetch_add(1);
    return {r.begin(), r.end()};
  }
  std::atomic<int> calls{0};
};

TEST(ChaosNetworkTest, DropsConfiguredFraction) {
  rpc::DirectNetwork inner;
  Echo echo;
  inner.Register(1, &echo);
  chaos::ChaosNetwork net(inner, 7);
  chaos::ChaosNetwork::EdgePolicy policy;
  policy.drop_request = 0.3;
  net.SetEdgePolicy(1, policy);
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!net.Call(1, AsBytes("x")).ok()) ++failures;
  }
  EXPECT_NEAR(failures, 300, 60);
  EXPECT_EQ(echo.calls.load(), 1000 - failures);  // dropped before handler
  EXPECT_EQ(net.GetStats().dropped_requests, uint64_t(failures));
}

TEST(ChaosNetworkTest, ResponseDropRunsHandlerButFailsCaller) {
  rpc::DirectNetwork inner;
  Echo echo;
  inner.Register(1, &echo);
  chaos::ChaosNetwork net(inner, 3);
  chaos::ChaosNetwork::EdgePolicy policy;
  policy.drop_response = 1.0;
  net.SetEdgePolicy(1, policy);
  auto r = net.Call(1, AsBytes("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(echo.calls.load(), 1);  // side effect happened; response lost
  EXPECT_EQ(net.GetStats().dropped_responses, 1u);
}

/// Waits inside the handler until both handlers of a pair have entered
/// (or 5 s pass), so it can tell whether the two calls overlapped.
class RendezvousHandler final : public rpc::RpcHandler {
 public:
  explicit RendezvousHandler(std::atomic<int>& entered) : entered_(entered) {}
  std::vector<std::byte> HandleRpc(std::span<const std::byte> r) override {
    calls.fetch_add(1);
    entered_.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (entered_.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    overlapped = entered_.load() >= 2;
    return {r.begin(), r.end()};
  }
  std::atomic<int> calls{0};
  std::atomic<bool> overlapped{false};

 private:
  std::atomic<int>& entered_;
};

// Over a real transport the decorator forwards to the inner CallAsync:
// two calls to different nodes are in their handlers at the same time,
// and a dropped response still runs its handler before the caller sees
// the loss.
TEST(ChaosNetworkTest, OverSocketCallsOverlapAndDropAfterHandler) {
  std::atomic<int> entered{0};
  RendezvousHandler a(entered);
  RendezvousHandler b(entered);
  rpc::SocketNetwork inner;  // destroyed first: joins before the handlers
  ASSERT_TRUE(inner.Register(1, &a).ok());
  ASSERT_TRUE(inner.Register(2, &b).ok());
  chaos::ChaosNetwork net(inner, 5);
  chaos::ChaosNetwork::EdgePolicy drop;
  drop.drop_response = 1.0;
  net.SetEdgePolicy(2, drop);

  auto fa = net.CallAsync(1, AsBytes("a"));
  auto fb = net.CallAsync(2, AsBytes("b"));
  auto ra = fa.get();
  auto rb = fb.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->size(), 1u);
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(b.calls.load(), 1);  // the dropped response's handler ran
  EXPECT_TRUE(a.overlapped.load());
  EXPECT_TRUE(b.overlapped.load());
  EXPECT_EQ(net.GetStats().dropped_responses, 1u);
}

/// Broker + 2 backups over a flaky network (15% of requests and 15% of
/// responses lost on each backup edge); a client loop retries every
/// produce request until acknowledged. Exactly-once must hold.
class FlakyProduceTest : public ::testing::Test {
 protected:
  FlakyProduceTest()
      : flaky_(inner_, 42),
        backup2_(BackupConfig{.node = 2, .storage_dir = "", .log = {}}),
        backup3_(BackupConfig{.node = 3, .storage_dir = "", .log = {}}) {
    BrokerConfig bc;
    bc.node = 1;
    bc.memory_bytes = 16 << 20;
    bc.segment_size = 64 << 10;
    bc.virtual_segment_capacity = 64 << 10;
    bc.backup_nodes = {BackupServiceId(2), BackupServiceId(3)};
    bc.replication_retries = 50;  // ride out the injected failures
    chaos::ChaosNetwork::EdgePolicy lossy;
    lossy.drop_request = 0.15;
    lossy.drop_response = 0.15;
    flaky_.SetEdgePolicy(BackupServiceId(2), lossy);
    flaky_.SetEdgePolicy(BackupServiceId(3), lossy);
    broker_ = std::make_unique<Broker>(bc, flaky_);
    inner_.Register(BackupServiceId(2), &backup2_);
    inner_.Register(BackupServiceId(3), &backup3_);

    rpc::StreamInfo info;
    info.stream = 1;
    info.options.num_streamlets = 1;
    info.options.replication_factor = 3;
    info.streamlet_brokers = {1};
    EXPECT_TRUE(broker_->AddStream("s", info).ok());
    EXPECT_TRUE(broker_->AddStreamlet(1, 0).ok());
  }

  rpc::DirectNetwork inner_;
  chaos::ChaosNetwork flaky_;
  Backup backup2_;
  Backup backup3_;
  std::unique_ptr<Broker> broker_;
};

TEST_F(FlakyProduceTest, RetriedProducesStayExactlyOnce) {
  constexpr int kChunks = 200;
  for (int i = 1; i <= kChunks; ++i) {
    auto chunk = MakeChunk(1, 0, /*producer=*/9, ChunkSeq(i));
    rpc::ProduceRequest req;
    req.producer = 9;
    req.stream = 1;
    req.chunks = {chunk};
    // Client retry loop: the broker call itself is direct (we inject
    // flakiness between broker and backups), so each HandleProduce retries
    // replication internally; a failed request is retried wholesale.
    int attempts = 0;
    while (true) {
      ++attempts;
      ASSERT_LT(attempts, 100);
      auto resp = broker_->HandleProduce(req);
      if (resp.status == StatusCode::kOk) break;
    }
  }
  auto stats = broker_->GetStats();
  EXPECT_EQ(stats.chunks_appended, uint64_t(kChunks));
  // Backups saw failures but hold exactly one copy of each chunk.
  EXPECT_EQ(backup2_.GetStats().chunks_received, uint64_t(kChunks));
  EXPECT_EQ(backup3_.GetStats().chunks_received, uint64_t(kChunks));
  EXPECT_GT(flaky_.GetStats().dropped_requests +
                flaky_.GetStats().dropped_responses,
            0u);

  // All chunks durable and consumable, in order.
  rpc::ConsumeRequest creq;
  creq.stream = 1;
  creq.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                   .max_chunks = 1000}};
  auto cresp = broker_->HandleConsume(creq);
  uint64_t total = 0;
  GroupId group = 0;
  uint64_t cursor = 0;
  for (int rounds = 0; rounds < 100; ++rounds) {
    creq.entries[0].group = group;
    creq.entries[0].start_chunk = cursor;
    auto resp = broker_->HandleConsume(creq);
    if (resp.entries[0].chunks.empty() && !resp.entries[0].group_closed) {
      break;
    }
    total += resp.entries[0].chunks.size();
    cursor = resp.entries[0].next_chunk;
    if (resp.entries[0].group_closed) {
      ++group;
      cursor = 0;
      if (!resp.entries[0].group_exists && resp.entries[0].chunks.empty()) {
        break;
      }
    }
  }
  (void)cresp;
  EXPECT_EQ(total, uint64_t(kChunks));
}

TEST_F(FlakyProduceTest, DuplicateRequestRetransmissionsAreAbsorbed) {
  auto chunk = MakeChunk(1, 0, 5, 1);
  rpc::ProduceRequest req;
  req.producer = 5;
  req.stream = 1;
  req.chunks = {chunk};
  int appended = 0;
  int duplicates = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto resp = broker_->HandleProduce(req);
    if (resp.status != StatusCode::kOk) continue;
    appended += int(resp.appended);
    duplicates += int(resp.duplicates);
  }
  EXPECT_EQ(appended, 1);
  EXPECT_GE(duplicates, 1);
  EXPECT_EQ(broker_->GetStats().chunks_appended, 1u);
  EXPECT_EQ(backup2_.GetStats().chunks_received, 1u);
}

}  // namespace
}  // namespace kera
