// Tiered broker memory benchmark: what a sealed-segment DRAM budget costs
// and buys.
//
//   - BM_ColdCatchUp: ingest ~4x the budget, then scan the full history
//     from offset 0. Reports catch-up throughput plus the tier counters
//     (resident vs ingested bytes, spill/evict/cold-read/readahead). The
//     budget=0 rows are the unbounded baseline: same scan, all hot.
//   - BM_HotTailLatency: steady-state produce latency percentiles with
//     and without a concurrent full-history cold scanner. The cold cache
//     is a separate bounded pool (scan resistance), so the scanner should
//     not move the hot path's p99 by much — the acceptance bar is ~10%.
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "broker/tiered_store.h"
#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Scratch root for spill logs, one per process run.
std::string SpillTemplate(const char* tag) {
  std::string root = "/tmp/kera_bench_coldread_" + std::string(tag) + "_" +
                     std::to_string(getpid());
  std::filesystem::remove_all(root);
  return root + "/n%u";
}

struct BenchCluster {
  explicit BenchCluster(size_t budget, const char* tag) {
    MiniClusterConfig cfg;
    cfg.nodes = 3;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.segment_size = 16 << 10;
    cfg.segments_per_group = 2;
    cfg.virtual_segment_capacity = 256 << 10;
    cfg.broker_memory_budget_bytes = budget;
    if (budget > 0) cfg.broker_spill_dir = SpillTemplate(tag);
    cluster = std::make_unique<MiniCluster>(cfg);
    rpc::StreamOptions opts;
    opts.num_streamlets = 1;
    opts.replication_factor = 2;
    auto info = cluster->coordinator().CreateStream("bench", opts);
    if (info.ok()) {
      this->info = *info;
      leader = this->info.streamlet_brokers[0];
      ok = true;
    }
  }

  bool Produce(ChunkSeq seq, const std::string& value) {
    ChunkBuilder b(4096);
    b.Start(info.stream, 0, 1);
    if (!b.AppendValue(AsBytes(value))) return false;
    auto chunk = b.Seal(seq);
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info.stream;
    req.chunks = {chunk};
    return cluster->broker(leader).HandleProduce(req).status ==
           StatusCode::kOk;
  }

  // Full catch-up scan of every group front to back; returns payload
  // bytes served (0 on a consume error).
  uint64_t ScanAll() {
    uint64_t bytes = 0;
    Broker& b = cluster->broker(leader);
    rpc::ConsumeRequest probe;
    probe.stream = info.stream;
    probe.entries = {{.streamlet = 0, .group = 0, .start_chunk = 0,
                      .max_chunks = 1}};
    auto presp = b.HandleConsume(probe);
    if (presp.status != StatusCode::kOk) return 0;
    const uint32_t groups = presp.entries[0].groups_created;
    for (GroupId g = 0; g < groups; ++g) {
      uint64_t cursor = 0;
      for (;;) {
        rpc::ConsumeRequest req;
        req.stream = info.stream;
        req.entries = {{.streamlet = 0, .group = g, .start_chunk = cursor,
                        .max_chunks = 16}};
        auto resp = b.HandleConsume(req);
        if (resp.status != StatusCode::kOk) return 0;
        const auto& e = resp.entries[0];
        if (e.chunks.empty()) break;
        for (const auto& frame : e.chunks) bytes += frame.size();
        cursor = e.next_chunk;
      }
    }
    return bytes;
  }

  std::unique_ptr<MiniCluster> cluster;
  rpc::StreamInfo info;
  NodeId leader = 0;
  bool ok = false;
};

std::string Payload(int i) {
  return "rec-" + std::to_string(i) + "-" +
         std::string(3800, char('a' + i % 26));
}

// Catch-up throughput and the resident-vs-ingested ledger. budget_kib=0
// is the unbounded baseline (everything hot, no spill tier at all).
void BM_ColdCatchUp(benchmark::State& state) {
  const int chunks = int(state.range(0));
  const size_t budget = size_t(state.range(1)) << 10;

  uint64_t scanned = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchCluster bc(budget, "catchup");
    if (!bc.ok) {
      state.SkipWithError("cluster setup failed");
      break;
    }
    uint64_t ingested = 0;
    bool fed = true;
    for (int i = 0; i < chunks && fed; ++i) {
      std::string v = Payload(i);
      ingested += v.size();
      fed = bc.Produce(ChunkSeq(i + 1), v);
    }
    if (!fed) {
      state.SkipWithError("produce failed");
      break;
    }
    state.ResumeTiming();
    scanned = bc.ScanAll();
    state.PauseTiming();
    if (scanned == 0) {
      state.SkipWithError("scan failed");
      break;
    }
    auto s = bc.cluster->broker(bc.leader).GetStats();
    state.counters["ingested_bytes"] = double(ingested);
    state.counters["segments_spilled"] = double(s.segments_spilled);
    state.counters["segments_evicted"] = double(s.segments_evicted);
    state.counters["spill_bytes"] = double(s.spill_bytes);
    state.counters["cold_reads"] = double(s.cold_reads);
    state.counters["cold_cache_hits"] = double(s.cold_cache_hits);
    state.counters["cold_cache_misses"] = double(s.cold_cache_misses);
    state.counters["readahead_hits"] = double(s.readahead_hits);
    if (TieredStore* t = bc.cluster->broker(bc.leader).tiered()) {
      auto ts = t->GetStats();
      state.counters["resident_sealed_bytes"] =
          double(ts.resident_sealed_bytes);
      state.counters["resident_over_ingested"] =
          double(ts.resident_sealed_bytes) / double(ingested);
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(scanned));
}

BENCHMARK(BM_ColdCatchUp)
    ->ArgNames({"chunks", "budget_kib"})
    // 256 x ~4 KiB chunks ~= 1 MiB ingested; 256 KiB is the ~25% point.
    ->ArgsProduct({{256, 1024}, {0, 256}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Produce-side latency percentiles while a second thread either idles or
// loops full-history cold scans against the same broker.
void BM_HotTailLatency(benchmark::State& state) {
  const size_t budget = size_t(state.range(0)) << 10;
  const bool scan = state.range(1) != 0;
  constexpr int kWarm = 512;   // pre-load so the scanner has cold history
  constexpr int kProbe = 2000;

  using Clock = std::chrono::steady_clock;
  double p50 = 0;
  double p99 = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchCluster bc(budget, "hottail");
    if (!bc.ok) {
      state.SkipWithError("cluster setup failed");
      break;
    }
    bool fed = true;
    for (int i = 0; i < kWarm && fed; ++i) {
      fed = bc.Produce(ChunkSeq(i + 1), Payload(i));
    }
    if (!fed) {
      state.SkipWithError("warmup produce failed");
      break;
    }
    std::atomic<bool> stop{false};
    std::thread scanner;
    if (scan) {
      scanner = std::thread([&] {
        while (!stop.load(std::memory_order_relaxed)) bc.ScanAll();
      });
    }
    std::vector<double> us;
    us.reserve(kProbe);
    state.ResumeTiming();
    for (int i = 0; i < kProbe && fed; ++i) {
      auto t0 = Clock::now();
      fed = bc.Produce(ChunkSeq(kWarm + i + 1), Payload(kWarm + i));
      us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    state.PauseTiming();
    stop.store(true, std::memory_order_relaxed);
    if (scanner.joinable()) scanner.join();
    if (!fed) {
      state.SkipWithError("probe produce failed");
      break;
    }
    std::sort(us.begin(), us.end());
    p50 = us[us.size() / 2];
    p99 = us[size_t(double(us.size()) * 0.99)];
    state.counters["produce_p50_us"] = p50;
    state.counters["produce_p99_us"] = p99;
    auto s = bc.cluster->broker(bc.leader).GetStats();
    state.counters["segments_evicted"] = double(s.segments_evicted);
    state.counters["cold_reads"] = double(s.cold_reads);
    state.ResumeTiming();
  }
}

BENCHMARK(BM_HotTailLatency)
    ->ArgNames({"budget_kib", "scan"})
    // Unbounded vs 256 KiB budget, idle vs concurrent cold scanner. The
    // comparison that matters: (256, 1) p99 vs (0, 0) p99.
    ->ArgsProduct({{0, 256}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kera
