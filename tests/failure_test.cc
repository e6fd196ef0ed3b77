// Failure-injection tests: a lossy network between clients, brokers and
// backups must never break exactly-once semantics or the durability gate.
// Producer retries + broker-side dedup + idempotent backup batches absorb
// both lost requests and lost responses. Faults come from
// chaos::ChaosNetwork edge policies, over DirectNetwork and SocketNetwork.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>

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

/// Counts replicate requests per (vlog, vseg, start offset) as they reach
/// a backup, then lets the backup handle them.
class ReplicateCounter final : public rpc::RpcHandler {
 public:
  explicit ReplicateCounter(Backup& backup) : backup_(backup) {}

  std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) override {
    rpc::Opcode op;
    std::span<const std::byte> body;
    if (rpc::ParseFrame(request, op, body).ok() &&
        op == rpc::Opcode::kReplicate) {
      rpc::Reader r(body);
      auto req = rpc::ReplicateRequest::Decode(r);
      if (req.ok()) ++arrivals[{req->vlog, req->vseg, req->start_offset}];
    }
    return backup_.HandleRpc(request);
  }

  std::map<std::tuple<VlogId, VirtualSegmentId, uint64_t>, int> arrivals;

 private:
  Backup& backup_;
};

/// (streamlet, seq) of every chunk `backup` holds for primary `primary`.
std::set<std::pair<StreamletId, ChunkSeq>> HeldChunks(Backup& backup,
                                                      NodeId primary) {
  std::set<std::pair<StreamletId, ChunkSeq>> held;
  for (const auto& seg : backup.HandleList({.crashed = primary}).segments) {
    std::vector<std::vector<std::byte>> storage;
    auto read = backup
                    .HandleReadBatch({.crashed = primary,
                                      .items = {{seg.vlog, seg.vseg}}},
                                     storage)
                    .items.at(0);
    std::span<const std::byte> rest = read.payload;
    while (!rest.empty()) {
      auto chunk = ChunkView::Parse(rest);
      if (!chunk.ok()) break;
      held.emplace(chunk->streamlet_id(), chunk->chunk_seq());
      rest = rest.subspan(chunk->total_size());
    }
  }
  return held;
}

/// One produce request fans out over both vlogs of the pool while one
/// vlog's backup set includes a partitioned backup: the failing batch
/// evacuates onto live backups and ships again, the healthy vlog's batch
/// completes once, and the request still acks with every chunk on R-1
/// live backups.
TEST(FanOutFailureTest, OneFailingVlogDoesNotReshipTheOthers) {
  constexpr StreamletId kStreamlets = 8;
  rpc::DirectNetwork inner;
  chaos::ChaosNetwork net(inner, 7);
  std::vector<std::unique_ptr<Backup>> backups;
  std::vector<std::unique_ptr<ReplicateCounter>> counters;
  std::vector<NodeId> backup_ids;
  for (NodeId n = 2; n <= 4; ++n) {
    backups.push_back(std::make_unique<Backup>(
        BackupConfig{.node = n, .storage_dir = "", .log = {}}));
    counters.push_back(std::make_unique<ReplicateCounter>(*backups.back()));
    inner.Register(BackupServiceId(n), counters.back().get());
    backup_ids.push_back(BackupServiceId(n));
  }
  BrokerConfig bc;
  bc.node = 1;
  bc.memory_bytes = 16 << 20;
  bc.segment_size = 64 << 10;
  bc.virtual_segment_capacity = 64 << 10;
  bc.vlogs_per_broker = 2;
  bc.backup_nodes = backup_ids;
  Broker broker(bc, net);
  rpc::StreamInfo info;
  info.stream = 1;
  info.options.num_streamlets = kStreamlets;
  info.options.replication_factor = 3;
  info.streamlet_brokers.assign(kStreamlets, 1);
  ASSERT_TRUE(broker.AddStream("s", info).ok());
  for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
    ASSERT_TRUE(broker.AddStreamlet(1, sl).ok());
  }
  auto produce = [&](ChunkSeq seq) {
    std::vector<std::vector<std::byte>> chunks;
    rpc::ProduceRequest req;
    req.producer = 3;
    req.stream = 1;
    for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
      chunks.push_back(MakeChunk(1, sl, 3, seq));
    }
    req.chunks.assign(chunks.begin(), chunks.end());
    return broker.HandleProduce(req);
  };

  // Healthy round: opens a virtual segment on both vlogs.
  ASSERT_EQ(produce(1).status, StatusCode::kOk);
  std::vector<VirtualLog*> vlogs = broker.VirtualLogs();
  ASSERT_EQ(vlogs.size(), 2u);
  ASSERT_FALSE(vlogs[0]->Segments().empty());
  ASSERT_FALSE(vlogs[1]->Segments().empty());
  // Partition a backup only the first vlog's open segment targets.
  const std::vector<NodeId> failing_set =
      vlogs[0]->Segments().back()->backups();
  const std::vector<NodeId> healthy_set =
      vlogs[1]->Segments().back()->backups();
  NodeId victim = 0;
  for (NodeId b : failing_set) {
    if (std::find(healthy_set.begin(), healthy_set.end(), b) ==
        healthy_set.end()) {
      victim = b;
    }
  }
  ASSERT_NE(victim, 0u) << "the two vlogs must not share a backup set";
  net.SetPartitioned(victim, true);
  std::vector<NodeId> live;
  for (NodeId b : backup_ids) {
    if (b != victim) live.push_back(b);
  }
  broker.SetLiveBackups(live);
  for (auto& c : counters) c->arrivals.clear();
  const uint64_t failing_issued = vlogs[0]->GetStats().batches_issued;
  const uint64_t healthy_issued = vlogs[1]->GetStats().batches_issued;

  auto resp = produce(2);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.appended, kStreamlets);

  // The failing vlog aborted, evacuated onto live backups and re-shipped.
  EXPECT_GT(net.GetStats().partitioned_calls, 0u);
  EXPECT_GE(vlogs[0]->GetStats().batches_issued, failing_issued + 2);
  for (NodeId b : vlogs[0]->Segments().back()->backups()) {
    EXPECT_NE(b, victim);
  }
  // The healthy vlog's one batch completed on the first fan-out: each of
  // its backups saw it exactly once.
  EXPECT_EQ(vlogs[1]->GetStats().batches_issued, healthy_issued + 1);
  for (size_t i = 0; i < backup_ids.size(); ++i) {
    int healthy_batches = 0;
    for (const auto& [key, count] : counters[i]->arrivals) {
      if (std::get<0>(key) != vlogs[1]->id()) continue;
      ++healthy_batches;
      EXPECT_EQ(count, 1) << "healthy batch re-shipped to backup "
                          << backup_ids[i];
    }
    const bool targeted = std::find(healthy_set.begin(), healthy_set.end(),
                                    backup_ids[i]) != healthy_set.end();
    EXPECT_EQ(healthy_batches, targeted ? 1 : 0) << backup_ids[i];
  }
  // Every chunk of the request is held by both live backups (R-1 = 2).
  for (size_t i = 0; i < backup_ids.size(); ++i) {
    if (backup_ids[i] == victim) continue;
    auto held = HeldChunks(*backups[i], 1);
    for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
      EXPECT_EQ(held.count({sl, ChunkSeq(2)}), 1u)
          << "streamlet " << sl << " missing on backup " << backup_ids[i];
    }
  }
}

}  // namespace
}  // namespace kera
