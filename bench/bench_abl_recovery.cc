// Ablation: crash-recovery replay time (wall clock, Direct MiniCluster,
// not the DES). Sweeps the amount of durably ingested data and the number
// of virtual logs; recovery replays the crashed broker's virtual segments
// from the surviving backups into new leaders. More vlogs scatter the
// data over more virtual segments and backups — the paper's parallel
// recovery argument (§III: "data can be read in parallel from many
// backups").
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <chrono>
#include <string>

#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

void BM_RecoveryReplay(benchmark::State& state) {
  const int chunks = int(state.range(0));
  const uint32_t vlogs = uint32_t(state.range(1));
  uint64_t replayed_total = 0;

  for (auto _ : state) {
    state.PauseTiming();
    MiniClusterConfig cfg;
    cfg.nodes = 4;
    cfg.transport = MiniClusterTransport::kDirect;  // deterministic
    cfg.segment_size = 128 << 10;
    cfg.virtual_segment_capacity = 128 << 10;
    cfg.vlogs_per_broker = vlogs;
    MiniCluster cluster(cfg);
    rpc::StreamOptions opts;
    opts.num_streamlets = 8;
    opts.replication_factor = 3;
    auto info = cluster.coordinator().CreateStream("r", opts);
    if (!info.ok()) {
      state.SkipWithError("create stream failed");
      break;
    }
    std::string value(900, 'r');
    for (int i = 1; i <= chunks; ++i) {
      StreamletId sl = StreamletId(i % 8);
      ChunkBuilder b(1024);
      b.Start(info->stream, sl, 1);
      if (!b.AppendValue(AsBytes(value))) {
        state.SkipWithError("chunk build failed");
        break;
      }
      auto chunk = b.Seal(ChunkSeq(i));
      rpc::ProduceRequest req;
      req.producer = 1;
      req.stream = info->stream;
      req.chunks = {chunk};
      auto resp = cluster.broker(info->streamlet_brokers[sl])
                      .HandleProduce(req);
      if (resp.status != StatusCode::kOk) {
        state.SkipWithError("produce failed");
        break;
      }
    }
    NodeId victim = info->streamlet_brokers[0];
    cluster.CrashNode(victim);
    state.ResumeTiming();

    auto start = std::chrono::steady_clock::now();
    auto replayed = cluster.coordinator().RecoverNode(victim);
    auto elapsed = std::chrono::steady_clock::now() - start;
    state.PauseTiming();
    if (!replayed.ok()) {
      state.SkipWithError("recovery failed");
      break;
    }
    replayed_total += *replayed;
    state.counters["recovery_ms"] =
        double(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                   .count()) /
        1000.0;
    state.ResumeTiming();
  }
  state.counters["chunks_replayed"] =
      benchmark::Counter(double(replayed_total), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_RecoveryReplay)
    ->ArgNames({"chunks", "vlogs"})
    ->ArgsProduct({{200, 1000, 4000}, {1, 4, 16}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kera
