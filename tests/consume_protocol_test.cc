// Protocol-level tests of the consume path: multi-entry requests spanning
// several groups of one streamlet, group discovery via groups_created,
// durability gating per entry, byte budgets across entries, and the
// sealed-stream signalling consumers rely on for end-of-stream.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

class ConsumeProtocolTest : public ::testing::Test {
 protected:
  ConsumeProtocolTest() {
    MiniClusterConfig cfg;
    cfg.nodes = 2;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.segment_size = 4 << 10;  // tiny: groups roll quickly
    cfg.segments_per_group = 1;
    cfg.virtual_segment_capacity = 16 << 10;
    cluster_ = std::make_unique<MiniCluster>(cfg);
    rpc::StreamOptions opts;
    opts.num_streamlets = 1;
    opts.active_groups_per_streamlet = 2;  // Q=2: interleaved groups
    opts.replication_factor = 2;
    auto info = cluster_->coordinator().CreateStream("cp", opts);
    EXPECT_TRUE(info.ok());
    info_ = *info;
    leader_ = info_.streamlet_brokers[0];
  }

  void Produce(ProducerId p, ChunkSeq seq, const std::string& value) {
    ChunkBuilder b(1024);
    b.Start(info_.stream, 0, p);
    ASSERT_TRUE(b.AppendValue(AsBytes(value)));
    auto chunk = b.Seal(seq);
    rpc::ProduceRequest req;
    req.producer = p;
    req.stream = info_.stream;
    req.chunks = {chunk};
    ASSERT_EQ(cluster_->broker(leader_).HandleProduce(req).status,
              StatusCode::kOk);
  }

  rpc::ConsumeResponse Consume(std::vector<rpc::ConsumeEntryRequest> entries,
                               uint32_t max_bytes = 1 << 20) {
    rpc::ConsumeRequest req;
    req.stream = info_.stream;
    req.max_bytes = max_bytes;
    req.entries = std::move(entries);
    return cluster_->broker(leader_).HandleConsume(req);
  }

  std::unique_ptr<MiniCluster> cluster_;
  rpc::StreamInfo info_;
  NodeId leader_ = 0;
};

TEST_F(ConsumeProtocolTest, GroupsCreatedAnnouncesBothActiveSlots) {
  // Producers 1 and 2 hit slots 1 and 0, creating two groups.
  Produce(1, 1, "a");
  Produce(2, 1, "b");
  auto resp = Consume({{.streamlet = 0, .group = 0, .start_chunk = 0,
                        .max_chunks = 10}});
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_EQ(resp.entries[0].groups_created, 2u);
  EXPECT_TRUE(resp.entries[0].group_exists);
}

TEST_F(ConsumeProtocolTest, MultiEntryRequestReadsGroupsInParallel) {
  // Fill both slots with several chunks; a tiny 4 KB segment (one per
  // group) forces group rollover on each slot.
  for (int i = 1; i <= 12; ++i) {
    Produce(1, ChunkSeq(i), "slot1-" + std::to_string(i) +
                                std::string(500, 'a'));
    Produce(2, ChunkSeq(i), "slot0-" + std::to_string(i) +
                                std::string(500, 'b'));
  }
  auto probe = Consume({{.streamlet = 0, .group = 0, .start_chunk = 0,
                         .max_chunks = 1}});
  uint32_t groups = probe.entries[0].groups_created;
  ASSERT_GT(groups, 2u);

  // One request covering every group; entries return independently.
  std::vector<rpc::ConsumeEntryRequest> entries;
  for (GroupId g = 0; g < groups; ++g) {
    entries.push_back({.streamlet = 0, .group = g, .start_chunk = 0,
                       .max_chunks = 100});
  }
  auto resp = Consume(std::move(entries));
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.entries.size(), size_t(groups));
  uint64_t total = 0;
  int closed = 0;
  for (const auto& e : resp.entries) {
    EXPECT_TRUE(e.group_exists);
    total += e.chunks.size();
    if (e.group_closed) ++closed;
  }
  EXPECT_EQ(total, 24u);
  EXPECT_GE(closed, int(groups) - 2);  // only the two active groups open
}

TEST_F(ConsumeProtocolTest, ByteBudgetSharedAcrossEntries) {
  for (int i = 1; i <= 4; ++i) {
    Produce(1, ChunkSeq(i), std::string(500, 'x'));
    Produce(2, ChunkSeq(i), std::string(500, 'y'));
  }
  auto probe = Consume({{.streamlet = 0, .group = 0, .start_chunk = 0,
                         .max_chunks = 1}});
  uint32_t groups = probe.entries[0].groups_created;
  std::vector<rpc::ConsumeEntryRequest> entries;
  for (GroupId g = 0; g < groups; ++g) {
    entries.push_back({.streamlet = 0, .group = g, .start_chunk = 0,
                       .max_chunks = 100});
  }
  // Budget for roughly two chunks total (each ~570 B).
  auto resp = Consume(std::move(entries), /*max_bytes=*/1200);
  uint64_t total = 0;
  for (const auto& e : resp.entries) total += e.chunks.size();
  EXPECT_GE(total, 2u);   // at least one chunk per non-empty entry
  EXPECT_LE(total, uint64_t(groups) + 1);  // budget curbed the fan-out
}

TEST_F(ConsumeProtocolTest, SealedFlagPropagatesOnEveryEntry) {
  Produce(1, 1, "pre");
  ASSERT_TRUE(cluster_->coordinator().SealStream("cp").ok());
  auto resp = Consume({{.streamlet = 0, .group = 0, .start_chunk = 0,
                        .max_chunks = 10},
                       {.streamlet = 0, .group = 7, .start_chunk = 0,
                        .max_chunks = 10}});
  ASSERT_EQ(resp.entries.size(), 2u);
  EXPECT_TRUE(resp.entries[0].stream_sealed);
  EXPECT_TRUE(resp.entries[1].stream_sealed);
  EXPECT_FALSE(resp.entries[1].group_exists);  // group 7 will never exist
  // After the seal, the active groups are closed: drained entries say so.
  EXPECT_TRUE(resp.entries[0].group_closed);
}

TEST_F(ConsumeProtocolTest, UnknownStreamletYieldsEmptyEntry) {
  auto resp = Consume({{.streamlet = 9, .group = 0, .start_chunk = 0,
                        .max_chunks = 10}});
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_FALSE(resp.entries[0].group_exists);
  EXPECT_TRUE(resp.entries[0].chunks.empty());
}

TEST_F(ConsumeProtocolTest, StartBeyondDurableReturnsNothing) {
  Produce(1, 1, "only");
  auto resp = Consume({{.streamlet = 0, .group = 1, .start_chunk = 5,
                        .max_chunks = 10}});
  // Producer 1 maps to slot 1 -> group 0 or 1 depending on slot order;
  // whichever group it is, a cursor past the durable head returns nothing
  // and next_chunk echoes the request cursor.
  EXPECT_TRUE(resp.entries[0].chunks.empty());
  EXPECT_EQ(resp.entries[0].next_chunk, 5u);
}

TEST(ConsumeWireCompatTest, OldFormatRequestDecodesWithImmediateReturn) {
  // A pre-long-poll sender stops after the entries; the decoder must
  // accept the short frame and default to "return immediately".
  rpc::Writer w;
  w.U64(/*stream=*/7);
  w.U32(/*max_bytes=*/4096);
  w.U32(/*entries=*/1);
  w.U32(/*streamlet=*/0);
  w.U32(/*group=*/3);
  w.U64(/*start_chunk=*/5);
  w.U32(/*max_chunks=*/2);
  auto bytes = std::move(w).Take();
  rpc::Reader r(bytes);
  auto req = rpc::ConsumeRequest::Decode(r);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->stream, 7u);
  ASSERT_EQ(req->entries.size(), 1u);
  EXPECT_EQ(req->entries[0].group, 3u);
  EXPECT_EQ(req->max_wait_us, 0u);
  EXPECT_EQ(req->min_bytes, 0u);
}

TEST(ConsumeWireCompatTest, LongPollFieldsRoundTrip) {
  rpc::ConsumeRequest req;
  req.stream = 9;
  req.max_bytes = 1 << 20;
  req.entries.push_back({.streamlet = 1, .group = 2, .start_chunk = 3,
                         .max_chunks = 4});
  req.max_wait_us = 250'000;
  req.min_bytes = 64 << 10;
  rpc::Writer w;
  req.Encode(w);
  auto bytes = std::move(w).Take();
  rpc::Reader r(bytes);
  auto back = rpc::ConsumeRequest::Decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->max_wait_us, 250'000u);
  EXPECT_EQ(back->min_bytes, 64u << 10);
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0].start_chunk, 3u);
}

TEST_F(ConsumeProtocolTest, LongPollWakesWhenDataTurnsDurable) {
  // Park a consume request on an empty stream, then produce: the
  // durability-gate advance must complete the parked request long before
  // its 5 s deadline.
  rpc::ConsumeRequest req;
  req.stream = info_.stream;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 10}};
  req.max_wait_us = 5'000'000;
  rpc::ConsumeResponse resp;
  auto start = std::chrono::steady_clock::now();
  std::thread waiter(
      [&] { resp = cluster_->broker(leader_).HandleConsume(req); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Produce(2, 1, "wakes the long-poller");
  waiter.join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(resp.status, StatusCode::kOk);
  uint64_t total = 0;
  for (const auto& e : resp.entries) total += e.chunks.size();
  EXPECT_EQ(total, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(4));
  EXPECT_GE(cluster_->broker(leader_).GetStats().consume_long_polls, 1u);
}

TEST(ConsumeLongPollUnreplicatedTest, ProduceWakesParkedLongPollWithR1) {
  // Regression: with replication_factor=1 chunks are durable at append
  // time and no replication batch ever ships, so the batch-completion
  // wakeup never fires — HandleProduce itself must notify the parked
  // long-polls, or they sit until timeout.
  MiniClusterConfig cfg;
  cfg.nodes = 1;
  cfg.transport = MiniClusterTransport::kDirect;
  auto cluster = std::make_unique<MiniCluster>(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 1;
  auto info = cluster->coordinator().CreateStream("r1", opts);
  ASSERT_TRUE(info.ok());
  const NodeId leader = info->streamlet_brokers[0];

  rpc::ConsumeRequest req;
  req.stream = info->stream;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 10}};
  req.max_wait_us = 5'000'000;
  rpc::ConsumeResponse resp;
  auto start = std::chrono::steady_clock::now();
  std::thread waiter(
      [&] { resp = cluster->broker(leader).HandleConsume(req); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ChunkBuilder b(1024);
  b.Start(info->stream, 0, /*producer=*/1);
  ASSERT_TRUE(b.AppendValue(AsBytes("wakes the unreplicated poller")));
  rpc::ProduceRequest preq;
  preq.producer = 1;
  preq.stream = info->stream;
  preq.chunks = {b.Seal(1)};
  ASSERT_EQ(cluster->broker(leader).HandleProduce(preq).status,
            StatusCode::kOk);

  waiter.join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(resp.status, StatusCode::kOk);
  uint64_t total = 0;
  for (const auto& e : resp.entries) total += e.chunks.size();
  EXPECT_EQ(total, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(4));
  EXPECT_GE(cluster->broker(leader).GetStats().consume_long_polls, 1u);
}

TEST_F(ConsumeProtocolTest, LongPollTimesOutEmptyOnIdleStream) {
  rpc::ConsumeRequest req;
  req.stream = info_.stream;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 10}};
  req.max_wait_us = 100'000;
  auto start = std::chrono::steady_clock::now();
  auto resp = cluster_->broker(leader_).HandleConsume(req);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(resp.status, StatusCode::kOk);
  for (const auto& e : resp.entries) EXPECT_TRUE(e.chunks.empty());
  EXPECT_GE(elapsed, std::chrono::milliseconds(80));
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST_F(ConsumeProtocolTest, MinBytesHoldsRequestUntilTimeoutThenReturnsData) {
  // One small chunk is durable but below min_bytes: the request parks and
  // the timeout response still carries the data it gathered.
  Produce(2, 1, "small");
  rpc::ConsumeRequest req;
  req.stream = info_.stream;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 10},
                 {.streamlet = 0, .group = 1, .start_chunk = 0,
                  .max_chunks = 10}};
  req.max_wait_us = 100'000;
  req.min_bytes = 1 << 20;  // far more than one small chunk
  auto start = std::chrono::steady_clock::now();
  auto resp = cluster_->broker(leader_).HandleConsume(req);
  auto elapsed = std::chrono::steady_clock::now() - start;
  uint64_t total = 0;
  for (const auto& e : resp.entries) total += e.chunks.size();
  EXPECT_EQ(total, 1u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(80));
}

TEST_F(ConsumeProtocolTest, SealWakesParkedLongPoll) {
  rpc::ConsumeRequest req;
  req.stream = info_.stream;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 10}};
  req.max_wait_us = 5'000'000;
  rpc::ConsumeResponse resp;
  auto start = std::chrono::steady_clock::now();
  std::thread waiter(
      [&] { resp = cluster_->broker(leader_).HandleConsume(req); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(cluster_->coordinator().SealStream("cp").ok());
  waiter.join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_TRUE(resp.entries[0].stream_sealed);
  EXPECT_LT(elapsed, std::chrono::seconds(4));
}

TEST(ConsumeLongPollCapTest, ServerCapsClientWait) {
  // A client asking for a 10 s park is clamped to the broker-side cap.
  MiniClusterConfig cfg;
  cfg.nodes = 1;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.max_consume_wait_us = 50'000;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 1;
  auto info = cluster.coordinator().CreateStream("cap", opts);
  ASSERT_TRUE(info.ok());
  rpc::ConsumeRequest req;
  req.stream = info->stream;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 10}};
  req.max_wait_us = 10'000'000;
  auto start = std::chrono::steady_clock::now();
  auto resp = cluster.broker(info->streamlet_brokers[0]).HandleConsume(req);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(resp.status, StatusCode::kOk);
  EXPECT_GE(elapsed, std::chrono::milliseconds(40));
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

}  // namespace
}  // namespace kera
