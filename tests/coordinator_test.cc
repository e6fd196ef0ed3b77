// Unit tests for the coordinator: stream creation/placement, metadata
// lookups, and end-to-end crash recovery over the MiniCluster.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(StreamId stream, StreamletId streamlet,
                                 ProducerId producer, ChunkSeq seq,
                                 std::string_view value) {
  ChunkBuilder b(1024);
  b.Start(stream, streamlet, producer);
  EXPECT_TRUE(b.AppendValue(AsBytes(value)));
  auto bytes = b.Seal(seq);
  return {bytes.begin(), bytes.end()};
}

MiniClusterConfig SmallClusterConfig() {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.transport = MiniClusterTransport::kDirect;  // deterministic
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = 64 << 20;
  return cfg;
}

TEST(CoordinatorTest, CreateStreamPlacesRoundRobin) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 8;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("s", opts);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->streamlet_brokers.size(), 8u);
  // Round-robin over 4 brokers: each leads exactly 2 streamlets.
  std::map<NodeId, int> counts;
  for (NodeId n : info->streamlet_brokers) ++counts[n];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [_, c] : counts) EXPECT_EQ(c, 2);
  // Brokers know their streamlets.
  for (StreamletId sl = 0; sl < 8; ++sl) {
    Broker& b = cluster.broker(info->streamlet_brokers[sl]);
    ASSERT_NE(b.GetStream(info->stream), nullptr);
    EXPECT_NE(b.GetStream(info->stream)->GetStreamlet(sl), nullptr);
  }
}

TEST(CoordinatorTest, DuplicateStreamRejected) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("dup", opts).ok());
  auto again = cluster.coordinator().CreateStream("dup", opts);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(CoordinatorTest, InvalidOptionsRejected) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 0;
  EXPECT_FALSE(cluster.coordinator().CreateStream("bad", opts).ok());
  opts.num_streamlets = 1;
  opts.replication_factor = 9;  // exceeds cluster size
  EXPECT_FALSE(cluster.coordinator().CreateStream("bad", opts).ok());
}

TEST(CoordinatorTest, GetStreamInfoViaRpc) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("lookup", opts).ok());

  rpc::GetStreamInfoRequest req;
  req.name = "lookup";
  rpc::Writer body;
  req.Encode(body);
  auto raw = cluster.network().Call(
      kCoordinatorNode, rpc::Frame(rpc::Opcode::kGetStreamInfo, body));
  ASSERT_TRUE(raw.ok());
  rpc::Reader r(*raw);
  auto resp = rpc::GetStreamInfoResponse::Decode(r);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_EQ(resp->info.options.num_streamlets, 2u);

  req.name = "missing";
  rpc::Writer body2;
  req.Encode(body2);
  raw = cluster.network().Call(
      kCoordinatorNode, rpc::Frame(rpc::Opcode::kGetStreamInfo, body2));
  ASSERT_TRUE(raw.ok());
  rpc::Reader r2(*raw);
  auto resp2 = rpc::GetStreamInfoResponse::Decode(r2);
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(resp2->status, StatusCode::kNotFound);
}

TEST(CoordinatorTest, CreateStreamViaRpc) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::CreateStreamRequest req;
  req.name = "via-rpc";
  req.options.num_streamlets = 4;
  req.options.replication_factor = 3;
  rpc::Writer body;
  req.Encode(body);
  auto raw = cluster.network().Call(
      kCoordinatorNode, rpc::Frame(rpc::Opcode::kCreateStream, body));
  ASSERT_TRUE(raw.ok());
  rpc::Reader r(*raw);
  auto resp = rpc::CreateStreamResponse::Decode(r);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  EXPECT_EQ(resp->info.streamlet_brokers.size(), 4u);
}

// --------------------------------------------------------------- recovery

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : cluster_(SmallClusterConfig()) {}

  /// Produces `count` chunks to `streamlet` via the leader's RPC endpoint.
  void ProduceChunks(const rpc::StreamInfo& info, StreamletId streamlet,
                     ProducerId producer, int count) {
    NodeId leader = info.streamlet_brokers[streamlet];
    for (int i = 1; i <= count; ++i) {
      rpc::ProduceRequest req;
      req.producer = producer;
      req.stream = info.stream;
      char value[64];
      std::snprintf(value, sizeof(value), "sl%u-p%u-seq%d", streamlet,
                    producer, i);
      auto chunk = MakeChunk(info.stream, streamlet, producer,
                             ChunkSeq(i), value);
      req.chunks = {chunk};
      rpc::Writer body;
      req.Encode(body);
      auto raw = cluster_.network().Call(
          leader, rpc::Frame(rpc::Opcode::kProduce, body));
      ASSERT_TRUE(raw.ok());
      rpc::Reader r(*raw);
      auto resp = rpc::ProduceResponse::Decode(r);
      ASSERT_TRUE(resp.ok());
      ASSERT_EQ(resp->status, StatusCode::kOk);
    }
  }

  /// Reads every durable record value of a streamlet from its leader.
  std::vector<std::string> ReadAll(const rpc::StreamInfo& info,
                                   StreamletId streamlet) {
    // Refresh leadership (it changes after recovery).
    auto fresh = cluster_.coordinator().GetStreamInfo("r");
    EXPECT_TRUE(fresh.ok());
    NodeId leader = fresh->streamlet_brokers[streamlet];
    std::vector<std::string> values;
    GroupId group = 0;
    uint64_t next_chunk = 0;
    int idle_rounds = 0;
    while (idle_rounds < 3) {
      rpc::ConsumeRequest req;
      req.stream = info.stream;
      req.entries = {{.streamlet = streamlet, .group = group,
                      .start_chunk = next_chunk, .max_chunks = 100}};
      rpc::Writer body;
      req.Encode(body);
      auto raw = cluster_.network().Call(
          leader, rpc::Frame(rpc::Opcode::kConsume, body));
      EXPECT_TRUE(raw.ok());
      rpc::Reader r(*raw);
      auto resp = rpc::ConsumeResponse::Decode(r);
      EXPECT_TRUE(resp.ok());
      const auto& e = resp->entries[0];
      for (const auto& cb : e.chunks) {
        auto view = ChunkView::Parse(cb);
        EXPECT_TRUE(view.ok());
        for (auto it = view->records(); !it.Done(); it.Next()) {
          auto v = it.record().value();
          values.emplace_back(reinterpret_cast<const char*>(v.data()),
                              v.size());
        }
      }
      next_chunk = e.next_chunk;
      if (e.group_closed) {
        ++group;
        next_chunk = 0;
        idle_rounds = 0;
      } else if (e.chunks.empty()) {
        ++idle_rounds;
      }
    }
    return values;
  }

  MiniCluster cluster_;
};

TEST_F(RecoveryTest, ReplaysAllAcknowledgedChunks) {
  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  opts.replication_factor = 3;
  opts.vlog_policy = rpc::VlogPolicy::kSharedPerBroker;
  auto info = cluster_.coordinator().CreateStream("r", opts);
  ASSERT_TRUE(info.ok());

  // Write 20 chunks to each streamlet from two producers.
  for (StreamletId sl = 0; sl < 4; ++sl) {
    ProduceChunks(*info, sl, /*producer=*/1, 10);
    ProduceChunks(*info, sl, /*producer=*/2, 10);
  }

  // Pick a victim broker and remember which streamlets it led.
  NodeId victim = info->streamlet_brokers[0];
  std::vector<StreamletId> lost;
  for (StreamletId sl = 0; sl < 4; ++sl) {
    if (info->streamlet_brokers[sl] == victim) lost.push_back(sl);
  }
  ASSERT_FALSE(lost.empty());

  cluster_.CrashNode(victim);
  auto replayed = cluster_.coordinator().RecoverNode(victim);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(*replayed, 0u);

  // The lost streamlets live on new leaders with every acknowledged chunk.
  auto fresh = cluster_.coordinator().GetStreamInfo("r");
  ASSERT_TRUE(fresh.ok());
  for (StreamletId sl : lost) {
    EXPECT_NE(fresh->streamlet_brokers[sl], victim);
    auto values = ReadAll(*info, sl);
    EXPECT_EQ(values.size(), 20u) << "streamlet " << sl;
    // Per-producer order is preserved.
    int last_p1 = 0, last_p2 = 0;
    for (const auto& v : values) {
      unsigned got_sl, p;
      int seq;
      ASSERT_EQ(std::sscanf(v.c_str(), "sl%u-p%u-seq%d", &got_sl, &p, &seq),
                3);
      EXPECT_EQ(got_sl, sl);
      if (p == 1) {
        EXPECT_EQ(seq, last_p1 + 1);
        last_p1 = seq;
      } else {
        EXPECT_EQ(seq, last_p2 + 1);
        last_p2 = seq;
      }
    }
    EXPECT_EQ(last_p1, 10);
    EXPECT_EQ(last_p2, 10);
  }

  // Streamlets led by survivors are untouched.
  for (StreamletId sl = 0; sl < 4; ++sl) {
    if (info->streamlet_brokers[sl] == victim) continue;
    EXPECT_EQ(ReadAll(*info, sl).size(), 20u);
  }
}

TEST_F(RecoveryTest, RecoveredDataIsReReplicated) {
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 3;
  auto info = cluster_.coordinator().CreateStream("r", opts);
  ASSERT_TRUE(info.ok());
  ProduceChunks(*info, 0, 1, 5);

  NodeId victim = info->streamlet_brokers[0];
  cluster_.CrashNode(victim);
  ASSERT_TRUE(cluster_.coordinator().RecoverNode(victim).ok());

  // The new leader re-replicated the recovered chunks: its vlog stats show
  // replication traffic, and the data is durably consumable.
  auto fresh = cluster_.coordinator().GetStreamInfo("r");
  NodeId new_leader = fresh->streamlet_brokers[0];
  EXPECT_GT(cluster_.broker(new_leader).GetStats().replication_rpcs, 0u);
  EXPECT_EQ(ReadAll(*info, 0).size(), 5u);
}

// Scatter placement: a dead broker's streamlets spread across ALL
// survivors (balancing per-survivor streamlet counts), not onto a single
// round-robin successor. With 6 streamlets lost and 5 survivors, every
// survivor must pick up at least one.
TEST(RecoveryScatterTest, LostStreamletsSpreadAcrossAllSurvivors) {
  MiniClusterConfig cfg;
  cfg.nodes = 6;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  MiniCluster cluster(cfg);

  // 36 streamlets -> round-robin gives every broker exactly 6.
  rpc::StreamOptions opts;
  opts.num_streamlets = 36;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("sc", opts);
  ASSERT_TRUE(info.ok());

  NodeId victim = 3;
  std::vector<StreamletId> lost;
  for (StreamletId sl = 0; sl < 36; ++sl) {
    if (info->streamlet_brokers[sl] == victim) lost.push_back(sl);
  }
  ASSERT_EQ(lost.size(), 6u);

  cluster.CrashNode(victim);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(victim).ok());

  auto fresh = cluster.coordinator().GetStreamInfo("sc");
  ASSERT_TRUE(fresh.ok());
  std::map<NodeId, int> gained;
  for (StreamletId sl : lost) {
    NodeId now = fresh->streamlet_brokers[sl];
    EXPECT_NE(now, victim);
    ++gained[now];
  }
  // All 5 survivors participate, and the load is balanced: with 6 lost
  // streamlets over 5 survivors nobody picks up more than 2.
  EXPECT_EQ(gained.size(), 5u) << "recovery load not scattered";
  for (const auto& [node, n] : gained) {
    EXPECT_LE(n, 2) << "survivor " << node << " took " << n;
  }
  // Overall leadership stays balanced post-recovery: 36 streamlets over
  // 5 survivors -> 7 or 8 each.
  std::map<NodeId, int> leads;
  for (NodeId n : fresh->streamlet_brokers) ++leads[n];
  for (const auto& [node, n] : leads) {
    EXPECT_GE(n, 7) << "survivor " << node;
    EXPECT_LE(n, 8) << "survivor " << node;
  }
}

// Recovery counters: the engine reports its task fan-out, batched-read
// savings and modeled makespan, and the brokers count recovery-path
// produce traffic separately from client traffic.
TEST(RecoveryScatterTest, RecoveryStatsExposed) {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.segment_size = 32 << 10;
  cfg.virtual_segment_capacity = 8 << 10;  // several vsegs per vlog
  cfg.vlogs_per_broker = 4;
  cfg.recovery_parallelism = 4;
  cfg.recovery_read_batch = 4;
  MiniCluster cluster(cfg);
  EXPECT_EQ(cluster.recovery_parallelism(), 4u);

  rpc::StreamOptions opts;
  opts.num_streamlets = 8;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("st", opts);
  ASSERT_TRUE(info.ok());
  for (StreamletId sl = 0; sl < 8; ++sl) {
    NodeId leader = info->streamlet_brokers[sl];
    for (int i = 1; i <= 12; ++i) {
      rpc::ProduceRequest req;
      req.producer = 1;
      req.stream = info->stream;
      std::string v(500, char('a' + int(sl)));
      auto chunk = MakeChunk(info->stream, sl, 1, ChunkSeq(i), v);
      req.chunks = {chunk};
      ASSERT_EQ(cluster.broker(leader).HandleProduce(req).status,
                StatusCode::kOk);
    }
  }

  auto before = cluster.coordinator().GetRecoveryStats();
  EXPECT_EQ(before.recoveries, 0u);
  EXPECT_EQ(before.tasks_issued, 0u);

  cluster.CrashNode(1);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(1).ok());

  auto rs = cluster.coordinator().GetRecoveryStats();
  EXPECT_EQ(rs.recoveries, 1u);
  EXPECT_GT(rs.streamlets_scattered, 0u);
  EXPECT_GT(rs.tasks_issued, 1u);
  EXPECT_GT(rs.chunks_replayed, 0u);
  EXPECT_GT(rs.bytes_replayed, 0u);
  // Batched reads: strictly fewer read RPCs than segments read.
  EXPECT_GE(rs.tasks_issued, rs.read_rpcs);
  EXPECT_GT(rs.read_rpcs, 0u);
  EXPECT_EQ(rs.read_rpcs_saved, rs.tasks_issued - rs.read_rpcs);
  EXPECT_GE(rs.peak_fanout, 1u);
  EXPECT_LE(rs.peak_fanout, 4u);
  // Serial/Direct path: the engine models the parallel makespan; the
  // modeled serial time can never beat the modeled parallel time.
  EXPECT_GT(rs.modeled_serial_us, 0u);
  EXPECT_GE(rs.modeled_serial_us, rs.modeled_mttr_us);
  EXPECT_GT(rs.last_mttr_us, 0u);
  EXPECT_EQ(rs.task_replay_us.count(), rs.tasks_issued);

  // Broker-side recovery counters surface in the cluster totals.
  auto totals = cluster.TotalBrokerStats();
  EXPECT_GT(totals.recovery_produce_rpcs, 0u);
  EXPECT_EQ(totals.recovery_chunks_appended, rs.chunks_replayed);
  EXPECT_GT(totals.recovery_bytes_appended, 0u);
}

TEST_F(RecoveryTest, UnknownNodeRejected) {
  auto r = cluster_.coordinator().RecoverNode(77);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace kera
