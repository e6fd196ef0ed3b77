// Tiered broker memory: durable-segment eviction, the cold-read cache and
// sequential readahead for catch-up consumers.
//
// Covered here:
//   - catch-up from offset 0 over the socket transport with a budget far
//     below the ingested volume is bit-perfect against an unbounded
//     (no-eviction) oracle cluster fed the same records;
//   - scan resistance: a full cold scan is served from the cold cache's
//     own pool — the hot tail stays resident, the broker's segment pool
//     is untouched, and tail consumes never take the cold path;
//   - Buffer lifetime under eviction: a consume response holding
//     zero-copy spans pins its segments, eviction skips them (second
//     chance) until the response is destroyed, and the spans stay valid
//     the whole time (ASan would flag any use-after-free here);
//   - a broker crash deletes its spill tree; recovery rebuilds from the
//     backups as if tiering never existed;
//   - counters: spill/evict/cold-read/readahead stats surface through
//     Broker::Stats and MiniCluster::TotalBrokerStats, and the sealed
//     resident footprint respects the budget;
//   - default config (budget 0) builds no TieredStore at all.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "broker/tiered_store.h"
#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Per-test scratch root for spill logs, removed on teardown.
class SpillDir {
 public:
  explicit SpillDir(const std::string& tag) {
    root_ = "/tmp/kera_coldread_" + tag + "_" + std::to_string(getpid());
    std::filesystem::remove_all(root_);
  }
  ~SpillDir() { std::filesystem::remove_all(root_); }
  [[nodiscard]] std::string NodeTemplate() const { return root_ + "/n%u"; }

 private:
  std::string root_;
};

// A small deterministic single-node-leader cluster: 4 KiB segments, two
// segments per group, synchronous R=2 replication over the Direct
// transport, so after HandleProduce returns the chunk is durable and the
// spill pump has already run.
struct TieredCluster {
  explicit TieredCluster(size_t budget, const std::string& tag,
                         uint32_t readahead = 2)
      : spill(tag) {
    MiniClusterConfig cfg;
    cfg.nodes = 3;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.segment_size = 4 << 10;
    cfg.segments_per_group = 2;
    cfg.virtual_segment_capacity = 64 << 10;
    cfg.broker_memory_budget_bytes = budget;
    if (budget > 0) cfg.broker_spill_dir = spill.NodeTemplate();
    cfg.broker_readahead_segments = readahead;
    cluster = std::make_unique<MiniCluster>(cfg);
    rpc::StreamOptions opts;
    opts.num_streamlets = 1;
    opts.replication_factor = 2;
    auto info = cluster->coordinator().CreateStream("cold", opts);
    EXPECT_TRUE(info.ok());
    this->info = *info;
    leader = this->info.streamlet_brokers[0];
  }

  void Produce(ProducerId p, ChunkSeq seq, const std::string& value) {
    ChunkBuilder b(2048);
    b.Start(info.stream, 0, p);
    ASSERT_TRUE(b.AppendValue(AsBytes(value)));
    auto chunk = b.Seal(seq);
    rpc::ProduceRequest req;
    req.producer = p;
    req.stream = info.stream;
    req.chunks = {chunk};
    ASSERT_EQ(cluster->broker(leader).HandleProduce(req).status,
              StatusCode::kOk);
  }

  // Drains every group front to back, CRC-checking each chunk frame, and
  // returns the record values in (group, chunk) order.
  std::vector<std::string> ScanAll() {
    std::vector<std::string> values;
    Broker& b = cluster->broker(leader);
    rpc::ConsumeRequest probe;
    probe.stream = info.stream;
    probe.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                      .max_chunks = 1}};
    auto presp = b.HandleConsume(probe);
    EXPECT_EQ(presp.status, StatusCode::kOk);
    const uint32_t groups = presp.entries[0].groups_created;
    for (GroupId g = 0; g < groups; ++g) {
      uint64_t cursor = 0;
      for (;;) {
        rpc::ConsumeRequest req;
        req.stream = info.stream;
        req.entries = {{.streamlet = 0, .group = g, .start_chunk = cursor,
                        .max_chunks = 8}};
        auto resp = b.HandleConsume(req);
        EXPECT_EQ(resp.status, StatusCode::kOk);
        const auto& e = resp.entries[0];
        if (e.chunks.empty()) break;
        for (const auto& frame : e.chunks) {
          auto view = ChunkView::Parse(frame);
          EXPECT_TRUE(view.ok());
          if (!view.ok()) return values;
          EXPECT_TRUE(view->VerifyChecksum());
          for (auto it = view->records(); !it.Done(); it.Next()) {
            auto value = it.record().value();
            values.emplace_back(reinterpret_cast<const char*>(value.data()),
                                value.size());
          }
        }
        cursor = e.next_chunk;
        if (e.group_closed && e.chunks.empty()) break;
      }
    }
    return values;
  }

  SpillDir spill;
  std::unique_ptr<MiniCluster> cluster;
  rpc::StreamInfo info;
  NodeId leader = 0;
};

// Roughly 1 KiB per record so four records fill a 4 KiB segment.
std::string RecordValue(int i) {
  return "rec-" + std::to_string(i) + "-" + std::string(1000, char('a' + i % 26));
}

// ------------------------------------------------------------- catch-up

// The tentpole acceptance test: ingest ~4x the memory budget, then read
// the full history from offset 0 through real Producer/Consumer clients
// over TCP. Every record must come back bit-perfect and exactly once —
// identical to an unbounded oracle cluster fed the same inputs — while
// the tiered broker held its sealed footprint under budget and actually
// served part of the scan from the spill tier.
TEST(ColdReadCatchUp, SocketCatchUpFromZeroMatchesUnboundedOracle) {
  constexpr int kRecords = 400;
  SpillDir spill("sock");
  auto build = [&](size_t budget) {
    MiniClusterConfig cfg;
    cfg.nodes = 2;
    cfg.transport = MiniClusterTransport::kSocket;
    cfg.segment_size = 4 << 10;
    cfg.segments_per_group = 2;
    cfg.virtual_segment_capacity = 64 << 10;
    cfg.broker_memory_budget_bytes = budget;
    if (budget > 0) cfg.broker_spill_dir = spill.NodeTemplate();
    return std::make_unique<MiniCluster>(cfg);
  };

  auto run = [&](MiniCluster& cluster,
                 const std::string& stream) -> std::vector<std::string> {
    rpc::StreamOptions opts;
    opts.num_streamlets = 1;
    opts.replication_factor = 2;
    auto info = cluster.coordinator().CreateStream(stream, opts);
    EXPECT_TRUE(info.ok());

    ProducerConfig pc;
    pc.producer_id = 1;
    pc.stream = stream;
    pc.chunk_size = 2048;
    Producer producer(pc, cluster.network());
    EXPECT_TRUE(producer.Connect().ok());
    for (int i = 0; i < kRecords; ++i) {
      EXPECT_TRUE(producer.Send(AsBytes(RecordValue(i))).ok());
    }
    EXPECT_TRUE(producer.Close().ok());

    // Catch-up: a consumer born after the fact reads from offset 0.
    ConsumerConfig cc;
    cc.stream = stream;
    Consumer consumer(cc, cluster.network());
    EXPECT_TRUE(consumer.Connect().ok());
    std::vector<std::string> got;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (got.size() < kRecords &&
           std::chrono::steady_clock::now() < deadline) {
      auto recs = consumer.Poll(64);
      if (recs.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      for (auto& rec : recs) {
        got.emplace_back(reinterpret_cast<const char*>(rec.value.data()),
                         rec.value.size());
      }
    }
    consumer.Close();
    return got;
  };

  // Budget ~25% of the ~400 KiB ingested.
  constexpr size_t kBudget = 100 << 10;
  auto tiered_cluster = build(kBudget);
  auto oracle_cluster = build(0);
  auto tiered = run(*tiered_cluster, "t");
  auto oracle = run(*oracle_cluster, "t");

  ASSERT_EQ(oracle.size(), size_t(kRecords));
  ASSERT_EQ(tiered.size(), size_t(kRecords));
  // Single streamlet, single producer: order is total; compare directly.
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_EQ(tiered[i], oracle[i]) << "record " << i << " diverged";
  }

  auto stats = tiered_cluster->TotalBrokerStats();
  EXPECT_GT(stats.segments_spilled, 0u);
  EXPECT_GT(stats.segments_evicted, 0u);
  EXPECT_GT(stats.cold_reads, 0u);
  auto oracle_stats = oracle_cluster->TotalBrokerStats();
  EXPECT_EQ(oracle_stats.segments_evicted, 0u);
  EXPECT_EQ(oracle_stats.cold_reads, 0u);

  // The sealed resident footprint respects the budget on every broker.
  for (NodeId n : tiered_cluster->BrokerNodes()) {
    TieredStore* t = tiered_cluster->broker(n).tiered();
    ASSERT_NE(t, nullptr);
    EXPECT_LE(t->GetStats().resident_sealed_bytes, kBudget)
        << "node " << n;
  }
}

// --------------------------------------------------------- scan resistance

TEST(ColdReadScan, ColdScanLeavesHotTailResident) {
  constexpr size_t kBudget = 16 << 10;  // four 4 KiB segments
  TieredCluster tc(kBudget, "scan");
  for (int i = 0; i < 120; ++i) tc.Produce(1, ChunkSeq(i + 1), RecordValue(i));

  Broker& broker = tc.cluster->broker(tc.leader);
  auto before = broker.GetStats();
  ASSERT_GT(before.segments_evicted, 0u)
      << "workload did not overflow the budget";
  TieredStore* tiered = broker.tiered();
  ASSERT_NE(tiered, nullptr);
  const uint64_t resident_before = tiered->GetStats().resident_sealed_bytes;
  const uint64_t hot_pool_before = before.memory_bytes_resident;

  // Full catch-up scan from group 0: most of it reads the spill tier.
  auto values = tc.ScanAll();
  ASSERT_EQ(values.size(), 120u);
  for (int i = 0; i < 120; ++i) EXPECT_EQ(values[i], RecordValue(i));

  auto after = broker.GetStats();
  EXPECT_GT(after.cold_reads, before.cold_reads);
  // Scan resistance: the cold scan ran entirely out of the cold cache's
  // own pool. The broker's hot segment pool and the resident sealed set
  // are exactly as the scan found them.
  EXPECT_EQ(after.memory_bytes_resident, hot_pool_before);
  EXPECT_EQ(tiered->GetStats().resident_sealed_bytes, resident_before);
  EXPECT_EQ(after.segments_evicted, before.segments_evicted)
      << "cold scan must not force hot-tail evictions";

  // Readahead: scanning groups front to back prefetches the next segment
  // of each group, so some demand reads were already loaded.
  EXPECT_GT(after.readahead_hits, 0u);

  // The tail (newest group) is still hot: consuming it takes no cold read.
  rpc::ConsumeRequest probe;
  probe.stream = tc.info.stream;
  probe.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                    .max_chunks = 1}};
  auto presp = broker.HandleConsume(probe);
  ASSERT_EQ(presp.status, StatusCode::kOk);
  const GroupId tail = GroupId(presp.entries[0].groups_created - 1);
  const uint64_t cold_before_tail = broker.GetStats().cold_reads;
  rpc::ConsumeRequest req;
  req.stream = tc.info.stream;
  req.entries = {{.streamlet = 0, .group = tail, .start_chunk = 0,
                  .max_chunks = 8}};
  auto resp = broker.HandleConsume(req);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_FALSE(resp.entries[0].chunks.empty());
  EXPECT_EQ(broker.GetStats().cold_reads, cold_before_tail)
      << "tail consume took the cold path";
}

// ------------------------------------------------------- buffer lifetime

// The latent-lifetime regression (satellite 2): a consume response's
// zero-copy spans alias segment memory. With tiering on, the gather pins
// each segment; eviction must skip pinned segments and the spans must
// stay valid (and CRC-clean) while the response is alive, however much
// eviction pressure builds. Run under ASan, a use-after-free here is
// fatal rather than flaky.
TEST(ColdReadLifetime, InFlightResponsePinsSegmentAgainstEviction) {
  TieredCluster tc(/*budget=*/8 << 10, "pin");
  for (int i = 0; i < 8; ++i) tc.Produce(1, ChunkSeq(i + 1), RecordValue(i));
  Broker& broker = tc.cluster->broker(tc.leader);
  TieredStore* tiered = broker.tiered();
  ASSERT_NE(tiered, nullptr);

  // Grab a response over the oldest group while its segments are still
  // hot (freshly produced data overflows the budget in FIFO order, so
  // group 0 is the first eviction candidate).
  rpc::ConsumeRequest req;
  req.stream = tc.info.stream;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 8}};
  auto resp = broker.HandleConsume(req);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ASSERT_FALSE(resp.entries[0].chunks.empty());
  ASSERT_FALSE(resp.holds.empty()) << "tiered gather must pin its segments";
  const uint64_t evicted_at_pin = broker.GetStats().segments_evicted;

  // Pile on eviction pressure while the response is in flight.
  for (int i = 8; i < 48; ++i) {
    tc.Produce(1, ChunkSeq(i + 1), RecordValue(i));
  }
  tiered->PumpAll();

  // The spans still parse and checksum — the pin kept the buffer alive.
  for (const auto& frame : resp.entries[0].chunks) {
    auto view = ChunkView::Parse(frame);
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(view->VerifyChecksum());
  }

  // Drop the response: the pins release, and the next pump may evict the
  // previously pinned segments (second chance, not a leak).
  const uint64_t evicted_before_release = broker.GetStats().segments_evicted;
  resp = rpc::ConsumeResponse{};
  tiered->PumpAll();
  EXPECT_GE(broker.GetStats().segments_evicted, evicted_before_release);
  EXPECT_GT(broker.GetStats().segments_evicted, evicted_at_pin);

  // Everything still reads back intact end to end.
  auto values = tc.ScanAll();
  ASSERT_EQ(values.size(), 48u);
  for (int i = 0; i < 48; ++i) EXPECT_EQ(values[i], RecordValue(i));
}

// ------------------------------------------------------------ crash path

TEST(ColdReadCrash, CrashDeletesSpillLogAndRecoversFromBackups) {
  TieredCluster tc(/*budget=*/8 << 10, "crash");
  constexpr int kRecords = 60;
  for (int i = 0; i < kRecords; ++i) {
    tc.Produce(1, ChunkSeq(i + 1), RecordValue(i));
  }
  Broker& broker = tc.cluster->broker(tc.leader);
  ASSERT_GT(broker.GetStats().segments_evicted, 0u);
  const std::string spill_dir = tc.cluster->SpillDirFor(tc.leader);
  ASSERT_FALSE(spill_dir.empty());
  ASSERT_TRUE(std::filesystem::exists(spill_dir));

  // Crash the leader: its spill tree is deleted on the spot — a dead
  // process's spill log is garbage, never a recovery dependency.
  tc.cluster->CrashNode(tc.leader);
  EXPECT_FALSE(std::filesystem::exists(spill_dir));

  ASSERT_TRUE(tc.cluster->coordinator().RecoverNode(tc.leader).ok());
  auto info = tc.cluster->coordinator().GetStreamInfo("cold");
  ASSERT_TRUE(info.ok());
  const NodeId new_leader = info->streamlet_brokers[0];
  ASSERT_NE(new_leader, tc.leader);

  // The full history reads back from the new leader, rebuilt from the
  // backup copies alone.
  Broker& nb = tc.cluster->broker(new_leader);
  rpc::ConsumeRequest probe;
  probe.stream = info->stream;
  probe.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                    .max_chunks = 1}};
  auto presp = nb.HandleConsume(probe);
  ASSERT_EQ(presp.status, StatusCode::kOk);
  const uint32_t groups = presp.entries[0].groups_created;
  std::vector<std::string> values;
  for (GroupId g = 0; g < groups; ++g) {
    uint64_t cursor = 0;
    for (;;) {
      rpc::ConsumeRequest req;
      req.stream = info->stream;
      req.entries = {{.streamlet = 0, .group = g, .start_chunk = cursor,
                      .max_chunks = 8}};
      auto resp = nb.HandleConsume(req);
      ASSERT_EQ(resp.status, StatusCode::kOk);
      if (resp.entries[0].chunks.empty()) break;
      for (const auto& frame : resp.entries[0].chunks) {
        auto view = ChunkView::Parse(frame);
        ASSERT_TRUE(view.ok());
        EXPECT_TRUE(view->VerifyChecksum());
        for (auto it = view->records(); !it.Done(); it.Next()) {
          auto value = it.record().value();
          values.emplace_back(reinterpret_cast<const char*>(value.data()),
                              value.size());
        }
      }
      cursor = resp.entries[0].next_chunk;
    }
  }
  ASSERT_EQ(values.size(), size_t(kRecords));
  for (int i = 0; i < kRecords; ++i) EXPECT_EQ(values[i], RecordValue(i));
}

// --------------------------------------------------------------- counters

TEST(ColdReadStats, CountersFlowThroughBrokerAndClusterStats) {
  TieredCluster tc(/*budget=*/8 << 10, "stats");
  for (int i = 0; i < 60; ++i) tc.Produce(1, ChunkSeq(i + 1), RecordValue(i));
  auto values = tc.ScanAll();
  ASSERT_EQ(values.size(), 60u);

  Broker& broker = tc.cluster->broker(tc.leader);
  auto s = broker.GetStats();
  EXPECT_GT(s.segments_spilled, 0u);
  EXPECT_GT(s.segments_evicted, 0u);
  EXPECT_LE(s.segments_evicted, s.segments_spilled);
  EXPECT_GT(s.spill_bytes, 0u);
  // cold_reads counts chunks served from the cold tier; hits/misses are
  // segment-granular cache lookups.
  EXPECT_GT(s.cold_reads, 0u);
  EXPECT_GT(s.cold_cache_hits + s.cold_cache_misses, 0u);
  EXPECT_GT(s.memory_bytes_resident, 0u);
  EXPECT_LE(s.memory_buffers_outstanding, s.memory_peak_buffers);

  // Cluster totals include this broker's counters.
  auto total = tc.cluster->TotalBrokerStats();
  EXPECT_GE(total.segments_spilled, s.segments_spilled);
  EXPECT_GE(total.segments_evicted, s.segments_evicted);
  EXPECT_GE(total.cold_reads, s.cold_reads);
  EXPECT_GE(total.readahead_hits, s.readahead_hits);

  // TieredStore's own view agrees and stays under budget.
  TieredStore* tiered = broker.tiered();
  ASSERT_NE(tiered, nullptr);
  auto ts = tiered->GetStats();
  EXPECT_EQ(ts.segments_spilled, s.segments_spilled);
  EXPECT_EQ(ts.segments_evicted, s.segments_evicted);
  EXPECT_LE(ts.resident_sealed_bytes, uint64_t(8 << 10));
  EXPECT_GE(ts.readahead_loads, ts.readahead_hits);
}

TEST(ColdReadStats, UnboundedConfigBuildsNoTieredStore) {
  TieredCluster tc(/*budget=*/0, "off");
  for (int i = 0; i < 30; ++i) tc.Produce(1, ChunkSeq(i + 1), RecordValue(i));
  Broker& broker = tc.cluster->broker(tc.leader);
  EXPECT_EQ(broker.tiered(), nullptr);
  auto s = broker.GetStats();
  EXPECT_EQ(s.segments_spilled, 0u);
  EXPECT_EQ(s.segments_evicted, 0u);
  EXPECT_EQ(s.cold_reads, 0u);
  // Responses carry no holds on the untiered path (byte-for-byte the
  // pre-tiering gather).
  rpc::ConsumeRequest req;
  req.stream = tc.info.stream;
  req.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                  .max_chunks = 4}};
  auto resp = broker.HandleConsume(req);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_TRUE(resp.holds.empty());
  auto values = tc.ScanAll();
  ASSERT_EQ(values.size(), 30u);
}

}  // namespace
}  // namespace kera
