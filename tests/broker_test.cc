// Unit tests for the broker: produce path (append + vlog + replication),
// exactly-once dedup, durability gate on consume, vlog policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>

#include "backup/backup.h"
#include "broker/broker.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"
#include "watchdog.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(StreamId stream, StreamletId streamlet,
                                 ProducerId producer, ChunkSeq seq,
                                 int records = 2) {
  ChunkBuilder b(1024);
  b.Start(stream, streamlet, producer);
  for (int i = 0; i < records; ++i) {
    EXPECT_TRUE(b.AppendValue(AsBytes("record-value")));
  }
  auto bytes = b.Seal(seq);
  return {bytes.begin(), bytes.end()};
}

/// Forwards every frame to a backup, reporting each replicate request's
/// vlog id before the backup handles it.
class ReplicateSpy final : public rpc::RpcHandler {
 public:
  ReplicateSpy(rpc::RpcHandler& backup, std::function<void(VlogId)> hook)
      : backup_(backup), hook_(std::move(hook)) {}

  std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) override {
    rpc::Opcode op;
    std::span<const std::byte> body;
    if (rpc::ParseFrame(request, op, body).ok() &&
        op == rpc::Opcode::kReplicate) {
      rpc::Reader r(body);
      auto req = rpc::ReplicateRequest::Decode(r);
      if (req.ok()) hook_(req->vlog);
    }
    return backup_.HandleRpc(request);
  }

 private:
  rpc::RpcHandler& backup_;
  std::function<void(VlogId)> hook_;
};

class BrokerTest : public ::testing::Test {
 protected:
  BrokerTest() {
    // One broker (node 1) with two backup services (nodes 2, 3).
    BrokerConfig bc;
    bc.node = 1;
    bc.memory_bytes = 16 << 20;
    bc.segment_size = 64 << 10;
    bc.segments_per_group = 2;
    bc.virtual_segment_capacity = 64 << 10;
    bc.vlogs_per_broker = 2;
    bc.backup_nodes = {BackupServiceId(1), BackupServiceId(2),
                       BackupServiceId(3)};
    broker_ = std::make_unique<Broker>(bc, net_);
    backup2_ = std::make_unique<Backup>(
        BackupConfig{.node = 2, .storage_dir = "", .log = {}});
    backup3_ = std::make_unique<Backup>(
        BackupConfig{.node = 3, .storage_dir = "", .log = {}});
    net_.Register(BackupServiceId(2), backup2_.get());
    net_.Register(BackupServiceId(3), backup3_.get());
  }

  rpc::StreamInfo MakeStream(const std::string& name, uint32_t streamlets,
                             uint32_t q, uint32_t r,
                             rpc::VlogPolicy policy) {
    rpc::StreamInfo info;
    info.stream = next_stream_++;
    info.options.num_streamlets = streamlets;
    info.options.active_groups_per_streamlet = q;
    info.options.replication_factor = r;
    info.options.vlog_policy = policy;
    info.streamlet_brokers.assign(streamlets, 1);
    EXPECT_TRUE(broker_->AddStream(name, info).ok());
    for (StreamletId sl = 0; sl < streamlets; ++sl) {
      EXPECT_TRUE(broker_->AddStreamlet(info.stream, sl).ok());
    }
    return info;
  }

  rpc::DirectNetwork net_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<Backup> backup2_;
  std::unique_ptr<Backup> backup3_;
  StreamId next_stream_ = 1;
};

TEST_F(BrokerTest, ProduceReplicatesAndExposes) {
  auto info = MakeStream("s", 1, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};

  auto resp = broker_->HandleProduce(req);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.appended, 1u);
  EXPECT_EQ(resp.duplicates, 0u);

  // Both backups hold one copy.
  EXPECT_EQ(backup2_->GetStats().chunks_received, 1u);
  EXPECT_EQ(backup3_->GetStats().chunks_received, 1u);

  // The chunk is durably consumable.
  rpc::ConsumeRequest creq;
  creq.stream = info.stream;
  creq.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                   .max_chunks = 10}};
  auto cresp = broker_->HandleConsume(creq);
  ASSERT_EQ(cresp.status, StatusCode::kOk);
  ASSERT_EQ(cresp.entries.size(), 1u);
  EXPECT_TRUE(cresp.entries[0].group_exists);
  ASSERT_EQ(cresp.entries[0].chunks.size(), 1u);
  auto view = ChunkView::Parse(cresp.entries[0].chunks[0]);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->VerifyChecksum());
  EXPECT_EQ(view->record_count(), 2u);
}

// A leader promised a replay of a streamlet (recovery or migration moved
// it here) refuses live appends to it until FinishRecovery: a live chunk
// landing first would make the dedup drop every replayed chunk of its
// producer with a lower sequence.
TEST_F(BrokerTest, LiveAppendsWaitForThePromisedReplay) {
  Watchdog watchdog(std::chrono::seconds(60), "replay refusal");
  auto info = MakeStream("s", 1, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  ASSERT_TRUE(
      broker_->AddStreamlet(info.stream, 0, /*awaits_replay=*/true).ok());
  auto produce = [&](ChunkSeq seq, bool recovery) {
    auto chunk = MakeChunk(info.stream, 0, 1, seq);
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info.stream;
    req.recovery = recovery;
    req.chunks = {chunk};
    return broker_->HandleProduce(req);
  };

  auto live = produce(2, /*recovery=*/false);
  EXPECT_EQ(live.status, StatusCode::kUnavailable);
  EXPECT_EQ(live.appended, 0u);
  auto replayed = produce(1, /*recovery=*/true);
  EXPECT_EQ(replayed.status, StatusCode::kOk);
  EXPECT_EQ(replayed.appended, 1u);
  EXPECT_EQ(broker_->GetStats().recovery_chunks_appended, 1u);

  ASSERT_TRUE(broker_->FinishRecovery(info.stream).ok());
  live = produce(2, /*recovery=*/false);
  EXPECT_EQ(live.status, StatusCode::kOk);
  EXPECT_EQ(live.appended, 1u);
  EXPECT_EQ(broker_->GetStats().chunks_duplicate, 0u);
}
TEST_F(BrokerTest, ReplicationFactorOneSkipsBackups) {
  auto info = MakeStream("s", 1, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kOk);
  EXPECT_EQ(backup2_->GetStats().chunks_received, 0u);
  EXPECT_EQ(broker_->GetStats().replication_rpcs, 0u);

  rpc::ConsumeRequest creq;
  creq.stream = info.stream;
  creq.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                   .max_chunks = 10}};
  EXPECT_EQ(broker_->HandleConsume(creq).entries[0].chunks.size(), 1u);
}

TEST_F(BrokerTest, DuplicateChunksDropped) {
  auto info = MakeStream("s", 1, 1, 2, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  EXPECT_EQ(broker_->HandleProduce(req).appended, 1u);
  // Retransmission of the same chunk sequence.
  auto resp = broker_->HandleProduce(req);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.appended, 0u);
  EXPECT_EQ(resp.duplicates, 1u);
  EXPECT_EQ(broker_->GetStats().chunks_appended, 1u);

  // A new sequence is accepted.
  auto chunk2 = MakeChunk(info.stream, 0, 1, 2);
  req.chunks = {chunk2};
  EXPECT_EQ(broker_->HandleProduce(req).appended, 1u);
}

TEST_F(BrokerTest, DedupIsPerProducerAndStreamlet) {
  auto info = MakeStream("s", 2, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  // Same seq 1 from two producers and on two streamlets: all distinct.
  auto c_a = MakeChunk(info.stream, 0, 1, 1);
  auto c_b = MakeChunk(info.stream, 0, 2, 1);
  auto c_c = MakeChunk(info.stream, 1, 1, 1);
  req.chunks = {c_a, c_b, c_c};
  auto resp = broker_->HandleProduce(req);
  EXPECT_EQ(resp.appended, 3u);
  EXPECT_EQ(resp.duplicates, 0u);
}

// Two requests race one chunk under memory backpressure: the broker's
// only segment buffer is taken, so every append of the chunk fails with
// kNoSpace after reserving its sequence. A request that finds the other's
// reservation must not be acked as a duplicate: the original append is
// about to fail and roll back, and nothing would then hold the acked
// chunk.
TEST_F(BrokerTest, RetryOfAChunkStillAppendingIsNotAcked) {
  BrokerConfig bc = broker_->config();
  bc.memory_bytes = bc.segment_size;
  broker_ = std::make_unique<Broker>(bc, net_);
  auto info = MakeStream("s", 2, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest fill;
  fill.producer = 1;
  fill.stream = info.stream;
  auto first = MakeChunk(info.stream, 0, 1, 1);
  fill.chunks = {first};
  ASSERT_EQ(broker_->HandleProduce(fill).status, StatusCode::kOk);

  rpc::ProduceRequest req;
  req.producer = 2;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 1, 2, 1);
  req.chunks = {chunk};
  std::atomic<int> acked{0};
  auto send = [&] {
    for (int i = 0; i < 2000; ++i) {
      if (broker_->HandleProduce(req).status == StatusCode::kOk) ++acked;
    }
  };
  std::thread other(send);
  send();
  other.join();
  EXPECT_EQ(acked.load(), 0);
  auto stats = broker_->GetStats();
  EXPECT_EQ(stats.chunks_appended, 1u);
  EXPECT_EQ(stats.chunks_duplicate, 0u);
}

TEST_F(BrokerTest, CorruptChunkRejected) {
  auto info = MakeStream("s", 1, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  chunk[kChunkHeaderSize] ^= std::byte{0xFF};
  rpc::ProduceRequest req;
  req.stream = info.stream;
  req.chunks = {chunk};
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kCorruption);
  EXPECT_EQ(broker_->GetStats().checksum_failures, 1u);
}

// No segment can hold a chunk longer than a segment. Such a chunk must be
// refused before it takes a group, a segment buffer or a dedup sequence;
// otherwise its retries run the segment pool dry and starve the broker's
// other streamlets.
TEST_F(BrokerTest, ChunkLongerThanASegmentIsRejectedWithoutTakingMemory) {
  auto info = MakeStream("s", 2, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  ChunkBuilder big(80 << 10);
  big.Start(info.stream, 0, 1);
  ASSERT_TRUE(big.AppendValue(AsBytes(std::string(70 << 10, 'x'))));
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info.stream;
  req.chunks = {big.Seal(1)};
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    if (broker_->HandleProduce(req).status == StatusCode::kInvalidArgument) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 1000);
  EXPECT_EQ(broker_->memory().in_use(), 0u);
  // Nothing stayed reserved: the same sequence at a size that fits is a
  // new chunk, not a duplicate, and the other streamlet still appends.
  auto fits = MakeChunk(info.stream, 0, 1, 1);
  auto other = MakeChunk(info.stream, 1, 2, 1);
  req.chunks = {fits, other};
  auto resp = broker_->HandleProduce(req);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.appended, 2u);
  EXPECT_EQ(resp.duplicates, 0u);
}

TEST_F(BrokerTest, UnknownStreamRejected) {
  rpc::ProduceRequest req;
  req.stream = 999;
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kNotFound);
}

TEST_F(BrokerTest, NotLeaderForForeignStreamlet) {
  auto info = MakeStream("s", 1, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  // Chunk targets streamlet 5 which was never added to this broker.
  auto chunk = MakeChunk(info.stream, 5, 1, 1);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  req.chunks = {chunk};
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kNotLeader);
}

TEST_F(BrokerTest, SharedPolicyUsesConfiguredPoolSize) {
  auto info = MakeStream("s", 8, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  std::vector<std::vector<std::byte>> chunks;
  for (StreamletId sl = 0; sl < 8; ++sl) {
    chunks.push_back(MakeChunk(info.stream, sl, 1, 1));
  }
  for (auto& c : chunks) req.chunks.push_back(c);
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kOk);
  // 8 streamlets share the broker's pool of 2 vlogs.
  EXPECT_EQ(broker_->VirtualLogs().size(), 2u);
}

TEST_F(BrokerTest, PerSubPartitionPolicyCreatesOneVlogPerSlot) {
  auto info = MakeStream("s", 2, 2, 3, rpc::VlogPolicy::kPerSubPartition);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  // Producers 1 and 2 hit different slots (Q=2) on both streamlets.
  std::vector<std::vector<std::byte>> chunks;
  for (StreamletId sl = 0; sl < 2; ++sl) {
    chunks.push_back(MakeChunk(info.stream, sl, 1, 1));
    chunks.push_back(MakeChunk(info.stream, sl, 2, 1));
  }
  for (auto& c : chunks) req.chunks.push_back(c);
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kOk);
  EXPECT_EQ(broker_->VirtualLogs().size(), 4u);  // 2 streamlets x 2 slots
}

TEST_F(BrokerTest, ConsumeRespectsDurabilityGate) {
  auto info = MakeStream("s", 1, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  // Use the NoSync path so chunks are appended but NOT replicated.
  rpc::ProduceRequest req;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  std::vector<std::pair<VirtualLog*, ChunkRef>> appended;
  auto resp = broker_->HandleProduceNoSync(req, &appended);
  EXPECT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(appended.size(), 1u);
  std::vector<VirtualLog*> touched{appended[0].first};

  rpc::ConsumeRequest creq;
  creq.stream = info.stream;
  creq.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                   .max_chunks = 10}};
  // Unreplicated: consumers see nothing.
  EXPECT_TRUE(broker_->HandleConsume(creq).entries[0].chunks.empty());

  // Drive replication to completion; now it is visible.
  while (auto batch = touched[0]->Poll()) {
    ASSERT_TRUE(broker_->ShipBatch(*touched[0], *batch).ok());
  }
  EXPECT_EQ(broker_->HandleConsume(creq).entries[0].chunks.size(), 1u);
}

// The synchronous produce path fans replication out over the vlogs a
// request touched: every log's first batch is on the wire before any of
// them completes, so the request pays one replication round trip, not
// one per log.
TEST_F(BrokerTest, ProduceIssuesEveryVlogBeforeAnyCompletes) {
  constexpr StreamletId kStreamlets = 8;  // spread over the 2-vlog pool
  auto info = MakeStream("s", kStreamlets, 1, 3,
                         rpc::VlogPolicy::kSharedPerBroker);
  std::vector<std::vector<std::byte>> chunks;
  rpc::ProduceRequest req;
  req.stream = info.stream;
  for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
    chunks.push_back(MakeChunk(info.stream, sl, 1, 1));
  }
  req.chunks.assign(chunks.begin(), chunks.end());

  Stream* stream = broker_->GetStream(info.stream);
  auto durable_chunks = [&] {
    uint64_t n = 0;
    for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
      n += stream->GetStreamlet(sl)->GetGroup(0)->durable_chunk_count();
    }
    return n;
  };
  std::vector<VlogId> first_seen;  // vlogs in first-replicate order
  uint64_t durable_at_second_vlog = ~uint64_t(0);
  auto hook = [&](VlogId vlog) {
    if (std::find(first_seen.begin(), first_seen.end(), vlog) !=
        first_seen.end()) {
      return;
    }
    first_seen.push_back(vlog);
    if (first_seen.size() == 2) durable_at_second_vlog = durable_chunks();
  };
  ReplicateSpy spy2(*backup2_, hook);
  ReplicateSpy spy3(*backup3_, hook);
  net_.Register(BackupServiceId(2), &spy2);
  net_.Register(BackupServiceId(3), &spy3);

  auto resp = broker_->HandleProduce(req);
  net_.Register(BackupServiceId(2), backup2_.get());
  net_.Register(BackupServiceId(3), backup3_.get());
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.appended, kStreamlets);
  ASSERT_EQ(first_seen.size(), 2u) << "the request must touch both vlogs";
  // When the second log's first replicate arrived, no chunk of the
  // request was durable yet: the first log's batch was still in flight.
  EXPECT_EQ(durable_at_second_vlog, 0u);
  EXPECT_EQ(durable_chunks(), uint64_t(kStreamlets));
}

// A migration replays the streamlet from the backups right after the old
// leader drops it. So a chunk that passed the leadership check before the
// drop must be durable when the drop returns: acked afterwards, it could
// be missing from the replay on the new leader.
TEST_F(BrokerTest, DropLeadershipWaitsForChunksPastTheLeaderCheck) {
  auto info = MakeStream("s", 1, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info.stream;
  req.chunks = {chunk};

  // Holds the chunk's replication to backup 2 until released.
  std::mutex mu;
  std::condition_variable cv;
  bool arrived = false;
  bool released = false;
  ReplicateSpy spy2(*backup2_, [&](VlogId) {
    std::unique_lock<std::mutex> lock(mu);
    arrived = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  });
  net_.Register(BackupServiceId(2), &spy2);
  Watchdog watchdog(std::chrono::seconds(60), "leadership drop");

  rpc::ProduceResponse resp;
  std::thread produce([&] { resp = broker_->HandleProduce(req); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return arrived; });
  }
  std::atomic<bool> dropped{false};
  uint64_t backup_chunks_at_drop = ~uint64_t(0);
  std::thread drop([&] {
    EXPECT_TRUE(broker_->DropStreamletLeadership(info.stream, 0).ok());
    backup_chunks_at_drop = backup2_->GetStats().chunks_received;
    dropped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(dropped.load()) << "the drop returned before the chunk "
                                  "that passed the leader check was durable";
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  produce.join();
  drop.join();
  net_.Register(BackupServiceId(2), backup2_.get());
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(backup_chunks_at_drop, 1u);

  // The drop took effect: later chunks bounce.
  auto next = MakeChunk(info.stream, 0, 1, 2);
  req.chunks = {next};
  EXPECT_EQ(broker_->HandleProduce(req).status, StatusCode::kNotLeader);
}

TEST_F(BrokerTest, ConsumeFromBackupFailureReturnsError) {
  auto info = MakeStream("s", 1, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  net_.Crash(BackupServiceId(2));
  net_.Crash(BackupServiceId(3));
  rpc::ProduceRequest req;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  auto resp = broker_->HandleProduce(req);
  EXPECT_EQ(resp.status, StatusCode::kUnavailable);
}

TEST_F(BrokerTest, TrimDurableFreesClosedGroups) {
  BrokerConfig bc = broker_->config();
  auto info = MakeStream("s", 1, 1, 2, rpc::VlogPolicy::kSharedPerBroker);
  // Fill enough chunks to roll groups (segment 64 KB, 2 per group).
  rpc::ProduceRequest req;
  req.stream = info.stream;
  ChunkSeq seq = 1;
  for (int round = 0; round < 500; ++round) {
    auto chunk = MakeChunk(info.stream, 0, 1, seq++, /*records=*/20);
    req.chunks = {chunk};
    ASSERT_EQ(broker_->HandleProduce(req).status, StatusCode::kOk);
  }
  Stream* stream = broker_->GetStream(info.stream);
  Streamlet* sl = stream->GetStreamlet(0);
  ASSERT_GT(sl->GroupIds().size(), 1u);
  size_t trimmed = broker_->TrimDurable();
  EXPECT_GT(trimmed, 0u);
}

TEST_F(BrokerTest, DebugStringSummarizesState) {
  auto info = MakeStream("inspect", 2, 1, 3, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  ASSERT_EQ(broker_->HandleProduce(req).status, StatusCode::kOk);
  std::string s = broker_->DebugString();
  EXPECT_NE(s.find("stream 'inspect'"), std::string::npos);
  EXPECT_NE(s.find("streamlet 0"), std::string::npos);
  EXPECT_NE(s.find("vlog"), std::string::npos);
  EXPECT_EQ(s.find("[sealed]"), std::string::npos);
  ASSERT_TRUE(broker_->SealStream(info.stream).ok());
  EXPECT_NE(broker_->DebugString().find("[sealed]"), std::string::npos);
}

// Window 4 with concurrent produce handlers over the socket network: each
// handler drives its own vlogs' batches, so several handlers' batches
// share one vlog's window, and replication runs truly concurrently with
// produce and consume.
class ConcurrentReplicationTest : public ::testing::Test {
 protected:
  ConcurrentReplicationTest() {
    BrokerConfig bc;
    bc.node = 1;
    bc.memory_bytes = 64 << 20;
    bc.segment_size = 64 << 10;
    bc.segments_per_group = 2;
    bc.virtual_segment_capacity = 64 << 10;
    bc.vlogs_per_broker = 2;
    bc.replication_window = 4;
    bc.backup_nodes = {BackupServiceId(1), BackupServiceId(2),
                       BackupServiceId(3)};
    broker_ = std::make_unique<Broker>(bc, net_);
    backup2_ = std::make_unique<Backup>(
        BackupConfig{.node = 2, .storage_dir = "", .log = {}});
    backup3_ = std::make_unique<Backup>(
        BackupConfig{.node = 3, .storage_dir = "", .log = {}});
    EXPECT_TRUE(net_.Register(BackupServiceId(2), backup2_.get()).ok());
    EXPECT_TRUE(net_.Register(BackupServiceId(3), backup3_.get()).ok());
  }

  ~ConcurrentReplicationTest() override { net_.Shutdown(); }

  rpc::StreamInfo MakeStream(uint32_t streamlets) {
    rpc::StreamInfo info;
    info.stream = 1;
    info.options.num_streamlets = streamlets;
    info.options.active_groups_per_streamlet = 1;
    info.options.replication_factor = 3;
    info.options.vlog_policy = rpc::VlogPolicy::kSharedPerBroker;
    info.streamlet_brokers.assign(streamlets, 1);
    EXPECT_TRUE(broker_->AddStream("storm", info).ok());
    for (StreamletId sl = 0; sl < streamlets; ++sl) {
      EXPECT_TRUE(broker_->AddStreamlet(info.stream, sl).ok());
    }
    return info;
  }

  rpc::SocketNetwork net_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<Backup> backup2_;
  std::unique_ptr<Backup> backup3_;
};

TEST_F(ConcurrentReplicationTest, ProduceStormAcksImplyDurability) {
  const uint32_t kThreads = 4;
  const ChunkSeq kChunksEach = 50;
  auto info = MakeStream(kThreads);
  Watchdog watchdog(std::chrono::seconds(120), "produce storm");

  // Each thread produces to its own streamlet; after every ack the chunk
  // must already be durable, i.e. visible through the consume gate.
  std::vector<std::thread> producers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (ChunkSeq seq = 1; seq <= kChunksEach; ++seq) {
        rpc::ProduceRequest req;
        req.producer = ProducerId(t + 1);
        req.stream = info.stream;
        auto chunk = MakeChunk(info.stream, StreamletId(t),
                               ProducerId(t + 1), seq);
        req.chunks = {chunk};
        auto resp = broker_->HandleProduce(req);
        ASSERT_EQ(resp.status, StatusCode::kOk);
        ASSERT_EQ(resp.appended, 1u);

        rpc::ConsumeRequest creq;
        creq.stream = info.stream;
        creq.entries = {{.streamlet = StreamletId(t), .group = 0,
                         .start_chunk = 0, .max_chunks = 1000}};
        auto cresp = broker_->HandleConsume(creq);
        ASSERT_EQ(cresp.status, StatusCode::kOk);
        ASSERT_GE(cresp.entries[0].chunks.size(), size_t(seq));
      }
    });
  }
  for (auto& th : producers) th.join();

  auto stats = broker_->GetStats();
  EXPECT_EQ(stats.chunks_appended, uint64_t(kThreads) * kChunksEach);
  EXPECT_GT(stats.replication_rpcs, 0u);
  for (VirtualLog* vlog : broker_->VirtualLogs()) {
    EXPECT_LE(vlog->GetStats().max_inflight_batches, 4u);
  }
}

TEST_F(ConcurrentReplicationTest, BackupFailureSurfacesToProducer) {
  auto info = MakeStream(1);
  Watchdog watchdog(std::chrono::seconds(120), "produce to dead backups");
  net_.Crash(BackupServiceId(2));
  net_.Crash(BackupServiceId(3));
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  // The handler's batch fails on every backup, is evacuated to a fresh
  // segment a bounded number of times, and the error reaches the
  // producer instead of the request hanging.
  auto resp = broker_->HandleProduce(req);
  EXPECT_EQ(resp.status, StatusCode::kUnavailable);
  EXPECT_GT(broker_->GetStats().replication_batches, 0u);
  for (VirtualLog* vlog : broker_->VirtualLogs()) {
    EXPECT_LE(vlog->GetStats().max_inflight_batches, 4u);
  }
}

// ----- shared-nothing sharding: routing, counters, migration -----

// A broker with two shards over a DirectNetwork: single-threaded unless a
// test starts threads, so every counter is exactly predictable.
class ShardedBrokerTest : public ::testing::Test {
 protected:
  ShardedBrokerTest() {
    BrokerConfig bc;
    bc.node = 1;
    bc.memory_bytes = 16 << 20;
    bc.segment_size = 64 << 10;
    bc.segments_per_group = 2;
    bc.virtual_segment_capacity = 64 << 10;
    bc.vlogs_per_broker = 4;
    bc.shards = 2;
    broker_ = std::make_unique<Broker>(bc, net_);
  }

  rpc::StreamInfo MakeStream(const std::string& name, uint32_t streamlets) {
    rpc::StreamInfo info;
    info.stream = next_stream_++;
    info.options.num_streamlets = streamlets;
    info.options.active_groups_per_streamlet = 1;
    info.options.replication_factor = 1;
    info.options.vlog_policy = rpc::VlogPolicy::kSharedPerBroker;
    info.streamlet_brokers.assign(streamlets, 1);
    EXPECT_TRUE(broker_->AddStream(name, info).ok());
    for (StreamletId sl = 0; sl < streamlets; ++sl) {
      EXPECT_TRUE(broker_->AddStreamlet(info.stream, sl).ok());
    }
    return info;
  }

  rpc::ProduceResponse ProduceOne(const rpc::StreamInfo& info,
                                  StreamletId streamlet, ChunkSeq seq) {
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info.stream;
    auto chunk = MakeChunk(info.stream, streamlet, 1, seq);
    req.chunks = {chunk};
    return broker_->HandleProduce(req);
  }

  rpc::ConsumeResponse ConsumeOne(const rpc::StreamInfo& info,
                                  StreamletId streamlet) {
    rpc::ConsumeRequest req;
    req.stream = info.stream;
    req.entries = {{.streamlet = streamlet, .group = 0, .start_chunk = 0,
                    .max_chunks = 10}};
    return broker_->HandleConsume(req);
  }

  rpc::DirectNetwork net_;
  std::unique_ptr<Broker> broker_;
  StreamId next_stream_ = 1;
};

// Single-streamlet produce and consume requests for streamlet S are
// accounted to shard(S) = S % shards and never touch the other shard:
// the per-shard frame counters split exactly by streamlet parity and no
// cross-shard chunk or op is counted beyond the setup baseline.
TEST_F(ShardedBrokerTest, FramesForStreamletLandOnItsShard) {
  auto info = MakeStream("s", 4);
  const auto base = broker_->GetStats();
  ASSERT_EQ(base.shard_frames.size(), 2u);

  // 3 produces per streamlet, then one consume per streamlet. Streamlets
  // 0,2 -> shard 0; 1,3 -> shard 1.
  for (StreamletId sl = 0; sl < 4; ++sl) {
    for (ChunkSeq seq = 1; seq <= 3; ++seq) {
      ASSERT_EQ(ProduceOne(info, sl, seq).status, StatusCode::kOk);
    }
  }
  for (StreamletId sl = 0; sl < 4; ++sl) {
    auto resp = ConsumeOne(info, sl);
    ASSERT_EQ(resp.status, StatusCode::kOk);
    ASSERT_EQ(resp.entries.size(), 1u);
    EXPECT_EQ(resp.entries[0].chunks.size(), 3u);
  }

  const auto stats = broker_->GetStats();
  ASSERT_EQ(stats.shard_frames.size(), 2u);
  // (3 produces + 1 consume) x 2 streamlets per shard.
  EXPECT_EQ(stats.shard_frames[0] - base.shard_frames[0], 8u);
  EXPECT_EQ(stats.shard_frames[1] - base.shard_frames[1], 8u);
  // Single-streamlet traffic is entirely shard-local.
  EXPECT_EQ(stats.cross_shard_ops, base.cross_shard_ops);
}

// A produce batching chunks for streamlets on different shards is homed
// on the first chunk's shard; every chunk for the other shard is counted
// as one cross-shard op (the append itself stays correct — per-shard
// locks protect it regardless of which shard's frame carries it).
TEST_F(ShardedBrokerTest, MixedBatchCountsCrossShardChunks) {
  auto info = MakeStream("s", 2);
  const auto base = broker_->GetStats();

  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = info.stream;
  auto c0 = MakeChunk(info.stream, 0, 1, 1);
  auto c1 = MakeChunk(info.stream, 1, 1, 1);
  req.chunks = {c0, c1};
  auto resp = broker_->HandleProduce(req);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.appended, 2u);

  const auto stats = broker_->GetStats();
  // Home shard is streamlet 0's shard; the streamlet-1 chunk crossed.
  EXPECT_EQ(stats.shard_frames[0] - base.shard_frames[0], 1u);
  EXPECT_EQ(stats.shard_frames[1] - base.shard_frames[1], 0u);
  EXPECT_EQ(stats.cross_shard_ops - base.cross_shard_ops, 1u);

  // Both chunks are consumable from their own shards.
  for (StreamletId sl = 0; sl < 2; ++sl) {
    auto cresp = ConsumeOne(info, sl);
    ASSERT_EQ(cresp.status, StatusCode::kOk);
    ASSERT_EQ(cresp.entries.size(), 1u);
    EXPECT_EQ(cresp.entries[0].chunks.size(), 1u);
  }
}

// Leadership changes edit the owning shard's state under its lock and
// are not data-plane traffic: a fresh stream and each drop or re-add
// leave cross_shard_ops at 0. The change itself is observable (produce
// rejected while dropped, accepted after re-add, dedup intact).
TEST_F(ShardedBrokerTest, LeadershipMigrationRehomesExactlyOnce) {
  auto info = MakeStream("s", 2);
  EXPECT_EQ(broker_->GetStats().cross_shard_ops, 0u);
  ASSERT_EQ(ProduceOne(info, 1, 1).status, StatusCode::kOk);

  ASSERT_TRUE(broker_->DropStreamletLeadership(info.stream, 1).ok());
  EXPECT_EQ(broker_->GetStats().cross_shard_ops, 0u);
  EXPECT_EQ(ProduceOne(info, 1, 2).status, StatusCode::kNotLeader);

  ASSERT_TRUE(broker_->AddStreamlet(info.stream, 1).ok());
  EXPECT_EQ(broker_->GetStats().cross_shard_ops, 0u);
  ASSERT_EQ(ProduceOne(info, 1, 2).status, StatusCode::kOk);
  // The dedup record survived the migration: the old seq is a duplicate.
  auto dup = ProduceOne(info, 1, 1);
  EXPECT_EQ(dup.status, StatusCode::kOk);
  EXPECT_EQ(dup.duplicates, 1u);
}

// Leadership edits race produce on both shards: four threads produce to
// streamlets 0-3 (two per shard), retrying kNotLeader, while a fifth
// drops and re-adds streamlets 1 and 2 (one per shard). The shard lock is
// the one guard of `led`, so every sequence lands exactly once and reads
// back.
TEST_F(ShardedBrokerTest, LeadershipChangesRaceProduceOnBothShards) {
  Watchdog watchdog(std::chrono::seconds(120), "leadership/produce race");
  constexpr StreamletId kStreamlets = 4;
  constexpr ChunkSeq kSeqs = 2000;
  constexpr uint64_t kToggles = 50;
  auto info = MakeStream("race", kStreamlets);
  auto is_toggled = [](StreamletId sl) { return sl == 1 || sl == 2; };
  auto set_leadership = [&](bool lead) {
    for (StreamletId sl : {1u, 2u}) {
      EXPECT_TRUE((lead ? broker_->AddStreamlet(info.stream, sl)
                        : broker_->DropStreamletLeadership(info.stream, sl))
                      .ok());
    }
  };

  std::atomic<uint64_t> not_leader{0};
  std::atomic<uint64_t> toggled_acks{0};
  std::atomic<uint32_t> toggled_done{0};
  // The producers start against a dropped leadership, so the first
  // round's bounce is certain.
  set_leadership(false);
  std::vector<std::thread> threads;
  for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
    threads.emplace_back([&, sl] {
      const ProducerId producer = sl + 1;
      for (ChunkSeq seq = 1; seq <= kSeqs; ++seq) {
        auto chunk = MakeChunk(info.stream, sl, producer, seq);
        rpc::ProduceRequest req;
        req.producer = producer;
        req.stream = info.stream;
        req.chunks = {chunk};
        rpc::ProduceResponse resp = broker_->HandleProduce(req);
        while (resp.status == StatusCode::kNotLeader) {
          ++not_leader;
          std::this_thread::yield();
          resp = broker_->HandleProduce(req);
        }
        EXPECT_EQ(resp.status, StatusCode::kOk);
        EXPECT_EQ(resp.appended, 1u);
        EXPECT_EQ(resp.duplicates, 0u);
        if (is_toggled(sl)) ++toggled_acks;
      }
      if (is_toggled(sl)) ++toggled_done;
    });
  }
  // Each round holds the drop until a producer bounced off it (one that
  // has not finished must), re-adds, and drops again once the toggled
  // streamlets acked the next 1/kToggles of their sequences.
  threads.emplace_back([&] {
    uint64_t bounced = 0;
    for (uint64_t round = 1;; ++round) {
      while (not_leader == bounced && toggled_done < 2) {
        std::this_thread::yield();
      }
      set_leadership(true);
      if (round == kToggles) break;
      while (toggled_acks < round * 2 * kSeqs / kToggles &&
             toggled_done < 2) {
        std::this_thread::yield();
      }
      bounced = not_leader;
      set_leadership(false);
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_GT(not_leader.load(), 0u);
  RecordProperty("not_leader_retries", std::to_string(not_leader.load()));
  const auto stats = broker_->GetStats();
  EXPECT_EQ(stats.chunks_appended, uint64_t(kStreamlets) * kSeqs);
  EXPECT_EQ(stats.chunks_duplicate, 0u);
  // Read every group of every streamlet back: each sequence exactly once.
  for (StreamletId sl = 0; sl < kStreamlets; ++sl) {
    std::vector<ChunkSeq> seqs;
    uint32_t groups = 1;
    for (GroupId g = 0; g < groups; ++g) {
      uint64_t next = 0;
      for (;;) {
        rpc::ConsumeRequest req;
        req.stream = info.stream;
        req.entries = {{.streamlet = sl, .group = g, .start_chunk = next,
                        .max_chunks = 1000}};
        auto resp = broker_->HandleConsume(req);
        ASSERT_EQ(resp.status, StatusCode::kOk);
        ASSERT_EQ(resp.entries.size(), 1u);
        const auto& e = resp.entries[0];
        groups = std::max(groups, e.groups_created);
        if (e.chunks.empty()) break;
        for (auto bytes : e.chunks) {
          auto chunk = ChunkView::Parse(bytes);
          ASSERT_TRUE(chunk.ok());
          seqs.push_back(chunk->chunk_seq());
        }
        next = e.next_chunk;
      }
    }
    std::sort(seqs.begin(), seqs.end());
    std::vector<ChunkSeq> want(kSeqs);
    for (ChunkSeq seq = 1; seq <= kSeqs; ++seq) want[seq - 1] = seq;
    EXPECT_EQ(seqs, want) << "streamlet " << sl;
  }
}

// With shards == 1 the shared-nothing machinery must be invisible: one
// frame counter, no cross-shard ops — the exact pre-sharding behavior.
TEST_F(BrokerTest, SingleShardKeepsLegacyCountersSilent) {
  auto info = MakeStream("s", 4, 1, 1, rpc::VlogPolicy::kSharedPerBroker);
  for (StreamletId sl = 0; sl < 4; ++sl) {
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info.stream;
    auto chunk = MakeChunk(info.stream, sl, 1, 1);
    req.chunks = {chunk};
    ASSERT_EQ(broker_->HandleProduce(req).status, StatusCode::kOk);
  }
  auto stats = broker_->GetStats();
  ASSERT_EQ(stats.shard_frames.size(), 1u);
  EXPECT_EQ(stats.shard_frames[0], 4u);
  EXPECT_EQ(stats.cross_shard_ops, 0u);
}

TEST_F(BrokerTest, FramedProduceConsumeDispatch) {
  auto info = MakeStream("s", 1, 1, 2, rpc::VlogPolicy::kSharedPerBroker);
  rpc::ProduceRequest req;
  req.stream = info.stream;
  auto chunk = MakeChunk(info.stream, 0, 1, 1);
  req.chunks = {chunk};
  rpc::Writer body;
  req.Encode(body);
  auto raw = broker_->HandleRpc(rpc::Frame(rpc::Opcode::kProduce, body));
  rpc::Reader r(raw);
  auto resp = rpc::ProduceResponse::Decode(r);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_EQ(resp->appended, 1u);
}

}  // namespace
}  // namespace kera
