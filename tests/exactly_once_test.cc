// End-to-end exactly-once property suite: the broker's per-(streamlet,
// producer) dedup window across epoch changes, zombie fencing after a
// leadership move (the epoch travels in the chunk bytes, so replication
// and recovery replay rebuild the fence at the new leader), dedup-state
// survival through parallel crash recovery, durable offset-commit resume
// through the real client library, and a small exactly-once chaos band.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos_harness.h"
#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(StreamId stream, StreamletId streamlet,
                                 ProducerId producer, uint32_t epoch,
                                 ChunkSeq seq, std::string_view value) {
  ChunkBuilder b(1024);
  b.Start(stream, streamlet, producer, epoch);
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

/// One produce RPC carrying one epoch-stamped chunk; returns the decoded
/// response so callers can distinguish appended / duplicate / fenced.
rpc::ProduceResponse ProduceOne(MiniCluster& cluster, NodeId leader,
                                const rpc::StreamInfo& info,
                                StreamletId streamlet, ProducerId producer,
                                uint32_t epoch, ChunkSeq seq,
                                std::string_view value) {
  auto chunk = MakeChunk(info.stream, streamlet, producer, epoch, seq, value);
  rpc::ProduceRequest req;
  req.producer = producer;
  req.stream = info.stream;
  req.chunks = {chunk};
  rpc::Writer body;
  req.Encode(body);
  auto raw = cluster.network().Call(
      leader, rpc::Frame(rpc::Opcode::kProduce, body));
  EXPECT_TRUE(raw.ok());
  rpc::Reader r(*raw);
  auto resp = rpc::ProduceResponse::Decode(r);
  EXPECT_TRUE(resp.ok());
  return resp.ok() ? *resp : rpc::ProduceResponse{};
}

/// Reads every durable user-record value of a streamlet from its current
/// leader (skipping offset-commit system chunks).
std::vector<std::string> ReadAllValues(MiniCluster& cluster,
                                       const std::string& name,
                                       StreamletId streamlet) {
  auto info = cluster.coordinator().GetStreamInfo(name);
  EXPECT_TRUE(info.ok());
  NodeId leader = info->streamlet_brokers[streamlet];
  std::vector<std::string> values;
  GroupId group = 0;
  uint64_t next_chunk = 0;
  int idle_rounds = 0;
  while (idle_rounds < 3) {
    rpc::ConsumeRequest req;
    req.stream = info->stream;
    req.entries = {{.streamlet = streamlet, .group = group,
                    .start_chunk = next_chunk, .max_chunks = 100}};
    rpc::Writer body;
    req.Encode(body);
    auto raw = cluster.network().Call(
        leader, rpc::Frame(rpc::Opcode::kConsume, body));
    EXPECT_TRUE(raw.ok());
    rpc::Reader r(*raw);
    auto resp = rpc::ConsumeResponse::Decode(r);
    EXPECT_TRUE(resp.ok());
    const auto& e = resp->entries[0];
    for (const auto& cb : e.chunks) {
      auto view = ChunkView::Parse(cb);
      EXPECT_TRUE(view.ok());
      if ((view->flags() & kChunkFlagOffsetCommit) != 0) continue;
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
    } else {
      idle_rounds = 0;
    }
  }
  return values;
}

// ------------------------------------------------- dedup window property

// The dedup window is (last accepted seq) per (streamlet, producer,
// epoch): any retry at or below it is swallowed, a fresh seq above it
// appends, and a HIGHER epoch resets the window (a new session restarts
// its numbering from 1 without tripping the duplicate filter). Randomized
// interleavings of fresh sends and stale retries across several epoch
// bumps must leave exactly the unique sends durable.
TEST(DedupWindowProperty, RandomRetriesAcrossEpochBumpsAppendOnce) {
  for (uint64_t seed : {1u, 7u, 23u, 51u}) {
    MiniCluster cluster(SmallClusterConfig());
    rpc::StreamOptions opts;
    opts.num_streamlets = 1;
    opts.replication_factor = 2;
    auto info = cluster.coordinator().CreateStream("w", opts);
    ASSERT_TRUE(info.ok());
    NodeId leader = info->streamlet_brokers[0];
    const ProducerId pid = 9;

    std::mt19937_64 rng(seed);
    std::vector<std::string> expected;
    uint32_t epoch = cluster.coordinator().AllocateProducer(pid).second;
    ASSERT_GE(epoch, 1u);
    ChunkSeq next_seq = 1;
    uint64_t duplicates_seen = 0;
    for (int op = 0; op < 120; ++op) {
      const uint32_t kind = uint32_t(rng() % 10);
      if (kind < 6 || next_seq == 1) {
        // Fresh send: appends exactly once.
        std::string value = "e" + std::to_string(epoch) + "-s" +
                            std::to_string(next_seq);
        auto resp = ProduceOne(cluster, leader, *info, 0, pid, epoch,
                               next_seq, value);
        ASSERT_EQ(resp.status, StatusCode::kOk);
        EXPECT_EQ(resp.appended, 1u);
        EXPECT_EQ(resp.duplicates, 0u);
        expected.push_back(std::move(value));
        ++next_seq;
      } else if (kind < 9) {
        // Stale retry of any already-accepted seq of the CURRENT session:
        // swallowed by the window, never re-appended.
        ChunkSeq stale = 1 + ChunkSeq(rng() % uint64_t(next_seq - 1));
        auto resp = ProduceOne(cluster, leader, *info, 0, pid, epoch, stale,
                               "retry-ignored");
        ASSERT_EQ(resp.status, StatusCode::kOk);
        EXPECT_EQ(resp.appended, 0u);
        EXPECT_EQ(resp.duplicates, 1u);
        ++duplicates_seen;
      } else {
        // Session restart: the coordinator bumps the epoch and the
        // sequence window resets — seq 1 of the new session is fresh
        // even though the old session got far past it.
        epoch = cluster.coordinator().AllocateProducer(pid).second;
        next_seq = 1;
      }
    }
    EXPECT_EQ(cluster.TotalBrokerStats().chunks_duplicate, duplicates_seen);
    std::vector<std::string> durable = ReadAllValues(cluster, "w", 0);
    EXPECT_EQ(durable, expected) << "seed " << seed;
  }
}

// A duplicate retry of a seq from an OLDER epoch is fenced, not deduped:
// once the window advanced to a newer session, the old instance must not
// be silently acked (its ack would claim durability under a dead session).
TEST(DedupWindowTest, OldEpochRetryIsFencedNotAcked) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("f", opts);
  ASSERT_TRUE(info.ok());
  NodeId leader = info->streamlet_brokers[0];
  const ProducerId pid = 3;
  uint32_t e1 = cluster.coordinator().AllocateProducer(pid).second;
  ASSERT_EQ(ProduceOne(cluster, leader, *info, 0, pid, e1, 1, "a").status,
            StatusCode::kOk);
  uint32_t e2 = cluster.coordinator().AllocateProducer(pid).second;
  ASSERT_GT(e2, e1);
  ASSERT_EQ(ProduceOne(cluster, leader, *info, 0, pid, e2, 1, "b").status,
            StatusCode::kOk);
  // The zombie retries its seq 1 — fenced, and nothing new appends.
  auto resp = ProduceOne(cluster, leader, *info, 0, pid, e1, 1, "a");
  EXPECT_EQ(resp.status, StatusCode::kFenced);
  EXPECT_EQ(cluster.broker(leader).GetStats().chunks_fenced, 1u);
  EXPECT_EQ(ReadAllValues(cluster, "f", 0),
            (std::vector<std::string>{"a", "b"}));
}

// ----------------------------------------------- fencing across recovery

// The fence must survive a leadership move: epochs ride inside the chunk
// bytes, so the backups' copies carry them and the recovery replay
// rebuilds the dedup window — including the newest epoch — at whichever
// broker inherits the streamlet. A zombie that never heard about its
// replacement gets kFenced at the NEW leader too.
TEST(EpochFencingTest, ZombieProducerFencedAtPostRecoveryLeader) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("z", opts);
  ASSERT_TRUE(info.ok());
  const ProducerId pid = 5;
  uint32_t e1 = cluster.coordinator().AllocateProducer(pid).second;
  NodeId old_leader = info->streamlet_brokers[0];
  for (ChunkSeq s = 1; s <= 4; ++s) {
    ASSERT_EQ(ProduceOne(cluster, old_leader, *info, 0, pid, e1, s,
                         "old-" + std::to_string(s))
                  .status,
              StatusCode::kOk);
  }
  // The producer restarts (new session) and writes under the new epoch.
  uint32_t e2 = cluster.coordinator().AllocateProducer(pid).second;
  ASSERT_EQ(ProduceOne(cluster, old_leader, *info, 0, pid, e2, 1, "new-1")
                .status,
            StatusCode::kOk);

  // Leadership moves: crash the leader and recover its streamlets.
  cluster.CrashNode(old_leader);
  auto replayed = cluster.coordinator().RecoverNode(old_leader);
  ASSERT_TRUE(replayed.ok());
  EXPECT_GT(*replayed, 0u);
  auto fresh = cluster.coordinator().GetStreamInfo("z");
  ASSERT_TRUE(fresh.ok());
  NodeId new_leader = fresh->streamlet_brokers[0];
  ASSERT_NE(new_leader, old_leader);

  // The zombie instance still stamping e1 is fenced at the new leader —
  // the epoch came back out of the replayed chunk bytes, not from any
  // side-channel the new leader was told.
  auto fenced = ProduceOne(cluster, new_leader, *fresh, 0, pid, e1, 5,
                           "zombie");
  EXPECT_EQ(fenced.status, StatusCode::kFenced);
  EXPECT_GE(cluster.broker(new_leader).GetStats().chunks_fenced, 1u);
  // The live session continues where it left off.
  auto cont = ProduceOne(cluster, new_leader, *fresh, 0, pid, e2, 2, "new-2");
  EXPECT_EQ(cont.status, StatusCode::kOk);
  EXPECT_EQ(cont.appended, 1u);
  EXPECT_EQ(ReadAllValues(cluster, "z", 0),
            (std::vector<std::string>{"old-1", "old-2", "old-3", "old-4",
                                      "new-1", "new-2"}));
}

// ------------------------------------- dedup survival through recovery

// Parallel crash recovery (fan-out 8) must rebuild the dedup window at
// every inheriting leader: retries of chunks acked BEFORE the crash are
// still classified as duplicates AFTER it, across every streamlet the
// dead node led, so a producer resequencing its in-flight window to the
// new leaders never double-appends.
TEST(DedupRecoveryTest, WindowSurvivesRecoverNodeAtParallelism8) {
  MiniClusterConfig cfg = SmallClusterConfig();
  cfg.recovery_parallelism = 8;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = 4;
  opts.replication_factor = 3;
  auto info = cluster.coordinator().CreateStream("r", opts);
  ASSERT_TRUE(info.ok());
  const ProducerId pid = 2;
  uint32_t epoch = cluster.coordinator().AllocateProducer(pid).second;
  constexpr ChunkSeq kPerStreamlet = 6;
  // seq space shared across streamlets per the wire contract: make each
  // (streamlet, seq) unique by striding.
  auto seq_of = [](StreamletId sl, ChunkSeq i) {
    return ChunkSeq(sl) * 100 + i;
  };
  for (StreamletId sl = 0; sl < 4; ++sl) {
    NodeId leader = info->streamlet_brokers[sl];
    for (ChunkSeq i = 1; i <= kPerStreamlet; ++i) {
      ASSERT_EQ(ProduceOne(cluster, leader, *info, sl, pid, epoch,
                           seq_of(sl, i),
                           "sl" + std::to_string(sl) + "-" +
                               std::to_string(i))
                    .status,
                StatusCode::kOk);
    }
  }
  const NodeId crashed = info->streamlet_brokers[0];
  cluster.CrashNode(crashed);
  ASSERT_TRUE(cluster.coordinator().RecoverNode(crashed).ok());
  EXPECT_GE(cluster.coordinator().GetRecoveryStats().peak_fanout, 1u);
  auto fresh = cluster.coordinator().GetStreamInfo("r");
  ASSERT_TRUE(fresh.ok());

  // Replay the whole acked window at the current leaders, as a producer
  // with every ack lost would: nothing may append twice anywhere.
  uint64_t dup = 0;
  for (StreamletId sl = 0; sl < 4; ++sl) {
    NodeId leader = fresh->streamlet_brokers[sl];
    for (ChunkSeq i = 1; i <= kPerStreamlet; ++i) {
      auto resp = ProduceOne(cluster, leader, *fresh, sl, pid, epoch,
                             seq_of(sl, i), "retry");
      ASSERT_EQ(resp.status, StatusCode::kOk);
      EXPECT_EQ(resp.appended, 0u);
      EXPECT_EQ(resp.duplicates, 1u);
      ++dup;
    }
  }
  EXPECT_EQ(dup, uint64_t(4 * kPerStreamlet));
  for (StreamletId sl = 0; sl < 4; ++sl) {
    std::vector<std::string> values = ReadAllValues(cluster, "r", sl);
    ASSERT_EQ(values.size(), size_t(kPerStreamlet)) << "streamlet " << sl;
    std::set<std::string> unique(values.begin(), values.end());
    EXPECT_EQ(unique.size(), values.size()) << "streamlet " << sl;
  }
}

// --------------------------------------------- client resume vs oracle

// The real client pair: an exactly-once producer writes a bounded stream;
// an exactly-once consumer polls part of it, commits, and dies; its
// replacement (same consumer_id) resumes from the durable offsets. The
// oracle is the produced record set itself — the two consumer incarnations
// must partition it: nothing redelivered, nothing lost.
TEST(OffsetResumeTest, RestartedConsumerResumesWithoutRedelivery) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 2;
  opts.replication_factor = 2;
  ASSERT_TRUE(cluster.coordinator().CreateStream("eo", opts).ok());

  ProducerConfig pc;
  pc.stream = "eo";
  pc.producer_id = 1;
  pc.chunk_size = 256;  // many chunks, so the split lands mid-stream
  pc.exactly_once = true;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  EXPECT_GE(producer.session_epoch(), 1u);
  constexpr int kRecords = 400;
  std::multiset<std::string> produced;
  for (int i = 0; i < kRecords; ++i) {
    std::string value = "rec-" + std::to_string(i);
    ASSERT_TRUE(producer.Send(AsBytes(value)).ok());
    produced.insert(std::move(value));
  }
  ASSERT_TRUE(producer.Close().ok());
  ASSERT_TRUE(cluster.coordinator().SealStream("eo").ok());

  ConsumerConfig cc;
  cc.stream = "eo";
  cc.consumer_id = 7;
  cc.exactly_once = true;

  // First incarnation: poll roughly half, durably commit, die.
  std::multiset<std::string> first_half;
  uint32_t first_epoch = 0;
  {
    Consumer consumer(cc, cluster.network());
    ASSERT_TRUE(consumer.Connect().ok());
    first_epoch = consumer.session_epoch();
    EXPECT_GE(first_epoch, 1u);
    while (first_half.size() < kRecords / 2) {
      for (auto& rec : consumer.PollBlocking(32)) {
        first_half.emplace(reinterpret_cast<const char*>(rec.value.data()),
                          rec.value.size());
      }
    }
    ASSERT_TRUE(consumer.Commit().ok());
    EXPECT_EQ(consumer.GetStats().offset_commits, 1u);
    consumer.Close();
  }

  // Second incarnation, same id: resumes from the committed offsets.
  std::multiset<std::string> second_half;
  {
    Consumer consumer(cc, cluster.network());
    ASSERT_TRUE(consumer.Connect().ok());
    EXPECT_GT(consumer.session_epoch(), first_epoch);
    while (!consumer.Finished()) {
      for (auto& rec : consumer.PollBlocking(32)) {
        second_half.emplace(reinterpret_cast<const char*>(rec.value.data()),
                           rec.value.size());
      }
    }
    for (auto& rec : consumer.Poll(size_t(-1))) {
      second_half.emplace(reinterpret_cast<const char*>(rec.value.data()),
                         rec.value.size());
    }
    ASSERT_TRUE(consumer.Commit().ok());
    consumer.Close();
  }

  // Partition oracle: the incarnations split the produced set exactly.
  std::multiset<std::string> all(first_half);
  all.insert(second_half.begin(), second_half.end());
  EXPECT_EQ(all, produced);
  for (const std::string& v : first_half) {
    EXPECT_EQ(second_half.count(v), 0u) << "redelivered: " << v;
  }
}

// Without a prior commit the same consumer id starts from the beginning —
// found=false offsets must not be misread as position zero commits.
TEST(OffsetResumeTest, NoCommitMeansStartFromBeginning) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("nb", opts).ok());
  ProducerConfig pc;
  pc.stream = "nb";
  pc.exactly_once = true;
  Producer producer(pc, cluster.network());
  ASSERT_TRUE(producer.Connect().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send(AsBytes("v" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(producer.Close().ok());
  ASSERT_TRUE(cluster.coordinator().SealStream("nb").ok());
  ConsumerConfig cc;
  cc.stream = "nb";
  cc.consumer_id = 3;
  cc.exactly_once = true;
  Consumer consumer(cc, cluster.network());
  ASSERT_TRUE(consumer.Connect().ok());
  size_t got = 0;
  while (!consumer.Finished()) got += consumer.PollBlocking(64).size();
  got += consumer.Poll(size_t(-1)).size();
  EXPECT_EQ(got, 10u);
  consumer.Close();
}

// Exactly-once preconditions are rejected at Connect, not discovered as
// silent redelivery later.
TEST(OffsetResumeTest, ExactlyOnceConfigPreconditionsEnforced) {
  MiniCluster cluster(SmallClusterConfig());
  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  ASSERT_TRUE(cluster.coordinator().CreateStream("pre", opts).ok());
  ConsumerConfig cc;
  cc.stream = "pre";
  cc.exactly_once = true;
  cc.share_count = 2;  // shared groups have no single committed cursor
  Consumer consumer(cc, cluster.network());
  auto s = consumer.Connect();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  ConsumerConfig ok = cc;
  ok.share_count = 1;
  Consumer consumer2(ok, cluster.network());
  EXPECT_TRUE(consumer2.Connect().ok());
  consumer2.Close();
}

// ----------------------------------------------------- small chaos band

// A focused exactly-once chaos band across the fault axes (crashes,
// partitions, power loss ride in the generated schedules) and the
// orthogonal cluster shapes: zero user-record redelivery everywhere.
TEST(ExactlyOnceChaosBand, ZeroRedeliveryAcrossShapes) {
  const chaos::RunOptions shapes[] = {
      {.broker_shards = 1, .recovery_parallelism = 1, .exactly_once = true},
      {.broker_shards = 4, .recovery_parallelism = 8, .exactly_once = true},
  };
  uint64_t total_commits = 0;
  for (const auto& options : shapes) {
    for (uint64_t seed = 900; seed < 910; ++seed) {
      chaos::RunResult r = chaos::RunSeed(seed, 40, options);
      ASSERT_TRUE(r.ok) << "seed " << seed << " shards "
                        << options.broker_shards << ": " << r.failure;
      EXPECT_EQ(r.redelivered_chunks, 0u) << "seed " << seed;
      total_commits += r.broker.offset_commits;
    }
  }
  EXPECT_GT(total_commits, 0u);
}

}  // namespace
}  // namespace kera
