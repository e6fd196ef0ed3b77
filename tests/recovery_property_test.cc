// Property-based crash-recovery tests: for swept (replication factor,
// stream count, vlog policy, victim) configurations, every acknowledged
// chunk must survive a broker crash with per-producer order intact, and
// recovered data must be re-replicated on the new leaders.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

struct RecoverySweep {
  uint32_t replication;
  uint32_t streams;
  uint32_t streamlets_per_stream;
  rpc::VlogPolicy policy;
  uint32_t vlogs_per_broker;
  NodeId victim;
};

class RecoveryProperty : public ::testing::TestWithParam<RecoverySweep> {};

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST_P(RecoveryProperty, AcknowledgedDataSurvivesCrash) {
  const RecoverySweep sweep = GetParam();
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.transport = MiniClusterTransport::kDirect;  // deterministic
  cfg.segment_size = 32 << 10;
  cfg.segments_per_group = 2;
  cfg.virtual_segment_capacity = 32 << 10;
  cfg.vlogs_per_broker = sweep.vlogs_per_broker;
  MiniCluster cluster(cfg);

  // Create the streams and remember what we acknowledge.
  std::vector<rpc::StreamInfo> infos;
  for (uint32_t s = 0; s < sweep.streams; ++s) {
    rpc::StreamOptions opts;
    opts.num_streamlets = sweep.streamlets_per_stream;
    opts.replication_factor = sweep.replication;
    opts.vlog_policy = sweep.policy;
    auto info = cluster.coordinator().CreateStream(
        "s" + std::to_string(s), opts);
    ASSERT_TRUE(info.ok());
    infos.push_back(*info);
  }

  // Two producers write interleaved chunks to every (stream, streamlet).
  std::map<std::tuple<uint32_t, StreamletId, ProducerId>, int> acked;
  constexpr int kChunksEach = 6;
  for (int round = 1; round <= kChunksEach; ++round) {
    for (uint32_t s = 0; s < sweep.streams; ++s) {
      for (StreamletId sl = 0; sl < sweep.streamlets_per_stream; ++sl) {
        for (ProducerId p = 1; p <= 2; ++p) {
          ChunkBuilder b(1024);
          b.Start(infos[s].stream, sl, p);
          std::string v = "s" + std::to_string(s) + "/" +
                          std::to_string(sl) + "/p" + std::to_string(p) +
                          "/#" + std::to_string(round);
          ASSERT_TRUE(b.AppendValue(AsBytes(v)));
          auto chunk = b.Seal(ChunkSeq(round));
          rpc::ProduceRequest req;
          req.producer = p;
          req.stream = infos[s].stream;
          req.chunks = {chunk};
          NodeId leader = infos[s].streamlet_brokers[sl];
          auto resp = cluster.broker(leader).HandleProduce(req);
          ASSERT_EQ(resp.status, StatusCode::kOk);
          ++acked[{s, sl, p}];
        }
      }
    }
  }

  cluster.CrashNode(sweep.victim);
  auto replayed = cluster.coordinator().RecoverNode(sweep.victim);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

  // Read everything back from the (possibly new) leaders and verify
  // counts and per-producer order for every partition.
  auto fresh_all = [&](uint32_t s) {
    auto fresh =
        cluster.coordinator().GetStreamInfo("s" + std::to_string(s));
    EXPECT_TRUE(fresh.ok());
    return *fresh;
  };
  for (uint32_t s = 0; s < sweep.streams; ++s) {
    rpc::StreamInfo fresh = fresh_all(s);
    for (StreamletId sl = 0; sl < sweep.streamlets_per_stream; ++sl) {
      EXPECT_NE(fresh.streamlet_brokers[sl], sweep.victim);
      std::map<ProducerId, int> last_round;
      std::map<ProducerId, int> count;
      GroupId group = 0;
      uint64_t cursor = 0;
      int idle = 0;
      while (idle < 3) {
        rpc::ConsumeRequest creq;
        creq.stream = fresh.stream;
        creq.entries = {{.streamlet = sl, .group = group,
                         .start_chunk = cursor, .max_chunks = 64}};
        auto resp = cluster.broker(fresh.streamlet_brokers[sl])
                        .HandleConsume(creq);
        ASSERT_EQ(resp.status, StatusCode::kOk);
        const auto& e = resp.entries[0];
        for (const auto& cb : e.chunks) {
          auto view = ChunkView::Parse(cb);
          ASSERT_TRUE(view.ok());
          ASSERT_TRUE(view->VerifyChecksum());
          ProducerId p = view->producer_id();
          // Per-producer chunk sequences are strictly increasing.
          EXPECT_GT(int(view->chunk_seq()), last_round[p]);
          last_round[p] = int(view->chunk_seq());
          ++count[p];
        }
        cursor = e.next_chunk;
        if (e.group_closed) {
          ++group;
          cursor = 0;
          idle = 0;
        } else if (e.chunks.empty()) {
          ++idle;
        }
      }
      for (ProducerId p = 1; p <= 2; ++p) {
        int expected = acked[std::make_tuple(s, sl, p)];
        EXPECT_EQ(count[p], expected)
            << "s" << s << " sl" << sl << " p" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RecoveryProperty,
    ::testing::Values(
        RecoverySweep{3, 4, 2, rpc::VlogPolicy::kSharedPerBroker, 1, 1},
        RecoverySweep{3, 4, 2, rpc::VlogPolicy::kSharedPerBroker, 4, 2},
        RecoverySweep{2, 6, 1, rpc::VlogPolicy::kSharedPerBroker, 2, 3},
        RecoverySweep{3, 2, 4, rpc::VlogPolicy::kPerSubPartition, 1, 4},
        RecoverySweep{2, 3, 3, rpc::VlogPolicy::kPerSubPartition, 1, 1},
        RecoverySweep{3, 8, 1, rpc::VlogPolicy::kSharedPerBroker, 8, 2}),
    [](const ::testing::TestParamInfo<RecoverySweep>& info) {
      char name[96];
      std::snprintf(name, sizeof(name), "R%u_s%u_sl%u_%s_v%u_victim%u",
                    info.param.replication, info.param.streams,
                    info.param.streamlets_per_stream,
                    info.param.policy == rpc::VlogPolicy::kSharedPerBroker
                        ? "shared"
                        : "subpart",
                    info.param.vlogs_per_broker, info.param.victim);
      return std::string(name);
    });

// Scattered-equals-serial oracle: the recovered state must be a pure
// function of the workload — never of the recovery fan-out. Runs one
// fixed workload per parallelism setting on the deterministic
// DirectNetwork, crashes the same victim, and compares a canonical dump
// of the full post-recovery cluster state (leader placement AND every
// recovered chunk's bytes, in consume order). Any ordering bug in the
// scatter/lane engine (e.g. replaying a producer's chunks out of seq
// order into the dedup filter) shows up as a dump mismatch.
TEST(RecoveryScatterOracleTest, ScatteredEqualsSerial) {
  auto run_and_dump = [](uint32_t parallelism) {
    MiniClusterConfig cfg;
    cfg.nodes = 5;
    cfg.transport = MiniClusterTransport::kDirect;  // deterministic
    cfg.segment_size = 32 << 10;
    cfg.virtual_segment_capacity = 4 << 10;  // many segments -> many tasks
    cfg.vlogs_per_broker = 4;
    cfg.recovery_parallelism = parallelism;
    cfg.recovery_read_batch = 3;  // exercise multi-wave batching
    MiniCluster cluster(cfg);

    std::vector<rpc::StreamInfo> infos;
    for (uint32_t s = 0; s < 3; ++s) {
      rpc::StreamOptions opts;
      opts.num_streamlets = 4;
      opts.replication_factor = 3;
      auto info = cluster.coordinator().CreateStream(
          "o" + std::to_string(s), opts);
      EXPECT_TRUE(info.ok());
      infos.push_back(*info);
    }
    for (int round = 1; round <= 12; ++round) {
      for (uint32_t s = 0; s < 3; ++s) {
        for (StreamletId sl = 0; sl < 4; ++sl) {
          for (ProducerId p = 1; p <= 2; ++p) {
            ChunkBuilder b(2048);
            b.Start(infos[s].stream, sl, p);
            std::string v(600, char('a' + int(s)));
            v += "/" + std::to_string(sl) + "/" + std::to_string(p) +
                 "/" + std::to_string(round);
            EXPECT_TRUE(b.AppendValue(AsBytes(v)));
            auto chunk = b.Seal(ChunkSeq(round));
            rpc::ProduceRequest req;
            req.producer = p;
            req.stream = infos[s].stream;
            req.chunks = {chunk};
            NodeId leader = infos[s].streamlet_brokers[sl];
            EXPECT_EQ(cluster.broker(leader).HandleProduce(req).status,
                      StatusCode::kOk);
          }
        }
      }
    }

    cluster.CrashNode(2);
    auto replayed = cluster.coordinator().RecoverNode(2);
    EXPECT_TRUE(replayed.ok());

    // Canonical dump: placement, then every chunk's payload in consume
    // order per (stream, streamlet, group).
    std::string dump;
    for (uint32_t s = 0; s < 3; ++s) {
      auto fresh =
          cluster.coordinator().GetStreamInfo("o" + std::to_string(s));
      EXPECT_TRUE(fresh.ok());
      for (StreamletId sl = 0; sl < 4; ++sl) {
        dump += "lead " + std::to_string(s) + "." + std::to_string(sl) +
                "=" + std::to_string(fresh->streamlet_brokers[sl]) + "\n";
        GroupId group = 0;
        uint64_t cursor = 0;
        int idle = 0;
        while (idle < 3) {
          rpc::ConsumeRequest creq;
          creq.stream = fresh->stream;
          creq.entries = {{.streamlet = sl, .group = group,
                           .start_chunk = cursor, .max_chunks = 64}};
          auto resp = cluster.broker(fresh->streamlet_brokers[sl])
                          .HandleConsume(creq);
          EXPECT_EQ(resp.status, StatusCode::kOk);
          const auto& e = resp.entries[0];
          for (const auto& cb : e.chunks) {
            auto view = ChunkView::Parse(cb);
            EXPECT_TRUE(view.ok());
            dump += std::to_string(view->producer_id()) + ":" +
                    std::to_string(view->chunk_seq()) + ":";
            dump.append(reinterpret_cast<const char*>(cb.data()),
                        cb.size());
            dump += "\n";
          }
          cursor = e.next_chunk;
          if (e.group_closed) {
            ++group;
            cursor = 0;
            idle = 0;
          } else if (e.chunks.empty()) {
            ++idle;
          }
        }
      }
    }
    // The oracle only holds if the engine actually split the recovery
    // into many tasks (multi-wave, multi-lane).
    auto rs = cluster.coordinator().GetRecoveryStats();
    EXPECT_GT(rs.tasks_issued, 8u);
    EXPECT_GT(rs.read_rpcs_saved, 0u);
    return dump;
  };

  const std::string serial = run_and_dump(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_and_dump(3));
  EXPECT_EQ(serial, run_and_dump(8));
}

// Readmission after a scattered recovery: the restarted broker must come
// back leading NOTHING (its old streamlets now live scattered across the
// survivors), with a bumped incarnation so its new virtual segment ids
// never collide with stale backup copies from its previous life. New
// placements may then use it, and a second crash of the same node must
// recover cleanly — the end-to-end pin against segment-id reuse.
TEST(RecoveryScatterOracleTest, ReadmitAfterScatterStartsEmpty) {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.segment_size = 32 << 10;
  cfg.virtual_segment_capacity = 8 << 10;
  cfg.recovery_parallelism = 4;
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 6;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("r", opts);
  ASSERT_TRUE(info.ok());
  for (StreamletId sl = 0; sl < 6; ++sl) {
    for (int i = 1; i <= 6; ++i) {
      ChunkBuilder b(512);
      b.Start(info->stream, sl, 1);
      ASSERT_TRUE(b.AppendValue(AsBytes("r" + std::to_string(i))));
      auto chunk = b.Seal(ChunkSeq(i));
      rpc::ProduceRequest req;
      req.producer = 1;
      req.stream = info->stream;
      req.chunks = {chunk};
      ASSERT_EQ(cluster.broker(info->streamlet_brokers[sl])
                    .HandleProduce(req)
                    .status,
                StatusCode::kOk);
    }
  }

  cluster.CrashNode(1);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(1).ok());
  ASSERT_TRUE(cluster.RestartNode(1).ok());

  // The readmitted broker leads no streamlet of the pre-crash stream.
  auto fresh = cluster.coordinator().GetStreamInfo("r");
  ASSERT_TRUE(fresh.ok());
  for (StreamletId sl = 0; sl < 6; ++sl) {
    EXPECT_NE(fresh->streamlet_brokers[sl], 1u) << "sl" << sl;
  }

  // New streams may place on it again, and writes through it succeed —
  // proving its fresh incarnation's segment ids coexist with whatever
  // stale copies of its first life still sit on the backups.
  rpc::StreamOptions opts2;
  opts2.num_streamlets = 8;
  opts2.replication_factor = 2;
  auto info2 = cluster.coordinator().CreateStream("r2", opts2);
  ASSERT_TRUE(info2.ok());
  bool leads_any = false;
  for (StreamletId sl = 0; sl < 8; ++sl) {
    leads_any = leads_any || info2->streamlet_brokers[sl] == 1u;
  }
  EXPECT_TRUE(leads_any);
  for (StreamletId sl = 0; sl < 8; ++sl) {
    ChunkBuilder b(512);
    b.Start(info2->stream, sl, 7);
    ASSERT_TRUE(b.AppendValue(AsBytes("second-life")));
    auto chunk = b.Seal(1);
    rpc::ProduceRequest req;
    req.producer = 7;
    req.stream = info2->stream;
    req.chunks = {chunk};
    ASSERT_EQ(cluster.broker(info2->streamlet_brokers[sl])
                  .HandleProduce(req)
                  .status,
              StatusCode::kOk);
  }

  // Crash the readmitted node again: both generations of backup state
  // are in play, and recovery must still restore exactly the acked data.
  cluster.CrashNode(1);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(1).ok());
  auto fresh2 = cluster.coordinator().GetStreamInfo("r2");
  ASSERT_TRUE(fresh2.ok());
  uint64_t total = 0;
  for (StreamletId sl = 0; sl < 8; ++sl) {
    NodeId leader = fresh2->streamlet_brokers[sl];
    ASSERT_NE(leader, 1u);
    Stream* stream = cluster.broker(leader).GetStream(info2->stream);
    ASSERT_NE(stream, nullptr);
    Streamlet* streamlet = stream->GetStreamlet(sl);
    ASSERT_NE(streamlet, nullptr);
    total += streamlet->total_chunks();
  }
  EXPECT_EQ(total, 8u);
}

// Double failure: crash a second node after recovering the first. A
// 5-node cluster keeps >= 3 live nodes, so R3 placement remains possible
// and both recoveries must succeed. (On a 4-node cluster the second
// recovery correctly FAILS: two survivors cannot hold three copies — see
// the companion test below.)
TEST(RecoveryDoubleFailureTest, SequentialCrashesRecoverable) {
  MiniClusterConfig cfg;
  cfg.nodes = 5;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.segment_size = 32 << 10;
  cfg.virtual_segment_capacity = 32 << 10;
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("d", opts);
  ASSERT_TRUE(info.ok());

  for (StreamletId sl = 0; sl < 4; ++sl) {
    for (int i = 1; i <= 5; ++i) {
      ChunkBuilder b(512);
      b.Start(info->stream, sl, 1);
      ASSERT_TRUE(b.AppendValue(AsBytes("d" + std::to_string(i))));
      auto chunk = b.Seal(ChunkSeq(i));
      rpc::ProduceRequest req;
      req.producer = 1;
      req.stream = info->stream;
      req.chunks = {chunk};
      ASSERT_EQ(cluster.broker(info->streamlet_brokers[sl])
                    .HandleProduce(req)
                    .status,
                StatusCode::kOk);
    }
  }

  cluster.CrashNode(1);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(1).ok());
  cluster.CrashNode(2);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(2).ok());

  auto fresh = cluster.coordinator().GetStreamInfo("d");
  ASSERT_TRUE(fresh.ok());
  uint64_t total = 0;
  for (StreamletId sl = 0; sl < 4; ++sl) {
    NodeId leader = fresh->streamlet_brokers[sl];
    EXPECT_GT(leader, 2u);
    Stream* stream = cluster.broker(leader).GetStream(fresh->stream);
    ASSERT_NE(stream, nullptr);
    Streamlet* streamlet = stream->GetStreamlet(sl);
    ASSERT_NE(streamlet, nullptr);
    total += streamlet->total_chunks();
  }
  EXPECT_EQ(total, 20u);
}

// On a 4-node cluster, a second failure leaves two survivors — R3 data
// can no longer be re-replicated to three distinct nodes and recovery
// must refuse rather than silently downgrade durability.
TEST(RecoveryDoubleFailureTest, RefusesWhenClusterTooSmallForR) {
  MiniClusterConfig cfg;
  cfg.nodes = 4;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.segment_size = 32 << 10;
  cfg.virtual_segment_capacity = 32 << 10;
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("d", opts);
  ASSERT_TRUE(info.ok());
  for (StreamletId sl = 0; sl < 4; ++sl) {
    ChunkBuilder b(512);
    b.Start(info->stream, sl, 1);
    ASSERT_TRUE(b.AppendValue(AsBytes("x")));
    auto chunk = b.Seal(1);
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info->stream;
    req.chunks = {chunk};
    ASSERT_EQ(cluster.broker(info->streamlet_brokers[sl])
                  .HandleProduce(req)
                  .status,
              StatusCode::kOk);
  }
  cluster.CrashNode(1);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(1).ok());
  cluster.CrashNode(2);
  auto second = cluster.coordinator().RecoverNode(2);
  EXPECT_FALSE(second.ok());  // no silent durability downgrade
}

}  // namespace
}  // namespace kera
