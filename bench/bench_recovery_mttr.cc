// MTTR benchmark for the parallel crash-recovery engine: time from
// RecoverNode entry to full service (all lost streamlets re-led, all
// acked data replayed and re-replicated) as a function of data volume,
// broker count and recovery fan-out.
//
// Two modes:
//   - BM_MttrModeled / BM_Mttr512Segments run on the deterministic
//     DirectNetwork. The engine executes serially and MODELS the
//     parallel makespan from measured per-task costs (LPT assignment of
//     per-vlog replay lanes and per-backup read queues onto
//     `recovery_parallelism` workers). modeled_serial is the same model
//     at fan-out 1, so speedup = modeled_serial / modeled_mttr shares
//     one clock — parallelism=1 rows are the measured baseline
//     (speedup == 1.0 by construction there).
//   - BM_MttrSocket runs real TCP loopback with real recovery threads:
//     wall-clock MTTR plus the batched-read RPC reduction
//     (segments_read / read_rpcs) that scatter reads get from
//     kReadRecoverySegmentBatch.
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <string>

#include "cluster/mini_cluster.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Produces `chunks` 1KiB-ish chunks round-robin over the streamlets led
// by `victim` only (recovery cost depends on the victim's data, not the
// cluster's). Returns false on error.
bool LoadVictim(MiniCluster& cluster, const rpc::StreamInfo& info,
                NodeId victim, int chunks) {
  std::vector<StreamletId> owned;
  for (StreamletId sl = 0; sl < info.streamlet_brokers.size(); ++sl) {
    if (info.streamlet_brokers[sl] == victim) owned.push_back(sl);
  }
  if (owned.empty()) return false;
  std::string value(900, 'm');
  std::vector<int> seq(owned.size(), 0);
  for (int i = 0; i < chunks; ++i) {
    size_t k = size_t(i) % owned.size();
    ChunkBuilder b(1024);
    b.Start(info.stream, owned[k], 1);
    if (!b.AppendValue(AsBytes(value))) return false;
    auto chunk = b.Seal(ChunkSeq(++seq[k]));
    rpc::ProduceRequest req;
    req.producer = 1;
    req.stream = info.stream;
    req.chunks = {chunk};
    if (cluster.broker(victim).HandleProduce(req).status !=
        StatusCode::kOk) {
      return false;
    }
  }
  return true;
}

void ReportRecovery(benchmark::State& state, const MiniCluster& cluster,
                    const Coordinator::RecoveryStats& rs) {
  state.counters["mttr_ms"] = double(rs.last_mttr_us) / 1000.0;
  state.counters["modeled_mttr_ms"] = double(rs.modeled_mttr_us) / 1000.0;
  state.counters["modeled_serial_ms"] =
      double(rs.modeled_serial_us) / 1000.0;
  if (rs.modeled_mttr_us > 0 && rs.modeled_serial_us > 0) {
    state.counters["speedup"] =
        double(rs.modeled_serial_us) / double(rs.modeled_mttr_us);
  }
  state.counters["tasks"] = double(rs.tasks_issued);
  state.counters["read_rpcs"] = double(rs.read_rpcs);
  if (rs.read_rpcs > 0) {
    state.counters["rpc_reduction"] =
        double(rs.tasks_issued) / double(rs.read_rpcs);
  }
  state.counters["peak_fanout"] = double(rs.peak_fanout);
  state.counters["bytes_replayed"] = double(rs.bytes_replayed);
  state.counters["task_p50_us"] = double(rs.task_replay_us.Quantile(0.5));
  state.counters["task_p99_us"] = double(rs.task_replay_us.Quantile(0.99));
  (void)cluster;
}

// MTTR vs data volume x broker count x fan-out (Direct path, modeled).
void BM_MttrModeled(benchmark::State& state) {
  const int chunks = int(state.range(0));
  const uint32_t nodes = uint32_t(state.range(1));
  const uint32_t parallelism = uint32_t(state.range(2));

  for (auto _ : state) {
    state.PauseTiming();
    MiniClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.transport = MiniClusterTransport::kDirect;  // serial + modeled
    cfg.segment_size = 64 << 10;
    cfg.virtual_segment_capacity = 32 << 10;
    cfg.vlogs_per_broker = 8;
    cfg.recovery_parallelism = parallelism;
    cfg.recovery_read_batch = 8;
    MiniCluster cluster(cfg);
    rpc::StreamOptions opts;
    opts.num_streamlets = nodes * 2;
    opts.replication_factor = 3;
    auto info = cluster.coordinator().CreateStream("m", opts);
    if (!info.ok()) {
      state.SkipWithError("create stream failed");
      break;
    }
    NodeId victim = info->streamlet_brokers[0];
    if (!LoadVictim(cluster, *info, victim, chunks)) {
      state.SkipWithError("load failed");
      break;
    }
    cluster.CrashNode(victim);
    state.ResumeTiming();
    auto replayed = cluster.coordinator().RecoverNode(victim);
    state.PauseTiming();
    if (!replayed.ok()) {
      state.SkipWithError("recovery failed");
      break;
    }
    ReportRecovery(state, cluster, cluster.coordinator().GetRecoveryStats());
    state.ResumeTiming();
  }
}

BENCHMARK(BM_MttrModeled)
    ->ArgNames({"chunks", "nodes", "par"})
    ->ArgsProduct({{1000, 4000}, {4, 8}, {1, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The paper-scale point: a victim whose data spans ~512 virtual
// segments (16 vlogs x ~32 segments each), swept over the recovery
// fan-out. The acceptance bar is modeled speedup >= 2x at par=8 vs the
// par=1 baseline.
void BM_Mttr512Segments(benchmark::State& state) {
  const uint32_t parallelism = uint32_t(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    MiniClusterConfig cfg;
    cfg.nodes = 5;
    cfg.transport = MiniClusterTransport::kDirect;
    cfg.segment_size = 32 << 10;
    cfg.virtual_segment_capacity = 8 << 10;  // ~8 chunks per vseg
    cfg.vlogs_per_broker = 16;
    cfg.recovery_parallelism = parallelism;
    cfg.recovery_read_batch = 8;
    MiniCluster cluster(cfg);
    rpc::StreamOptions opts;
    // 40 streamlets -> the victim leads 8, hashing over most of its 16
    // shared-pool vlogs: recovery forms many independent lanes.
    opts.num_streamlets = 40;
    opts.replication_factor = 3;
    auto info = cluster.coordinator().CreateStream("m", opts);
    if (!info.ok()) {
      state.SkipWithError("create stream failed");
      break;
    }
    NodeId victim = info->streamlet_brokers[0];
    if (!LoadVictim(cluster, *info, victim, 4096)) {
      state.SkipWithError("load failed");
      break;
    }
    cluster.CrashNode(victim);
    state.ResumeTiming();
    auto replayed = cluster.coordinator().RecoverNode(victim);
    state.PauseTiming();
    if (!replayed.ok()) {
      state.SkipWithError("recovery failed");
      break;
    }
    ReportRecovery(state, cluster, cluster.coordinator().GetRecoveryStats());
    state.ResumeTiming();
  }
}

BENCHMARK(BM_Mttr512Segments)
    ->ArgNames({"par"})
    ->ArgsProduct({{1, 2, 4, 8, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Real transport: TCP loopback, real recovery threads. Wall-clock MTTR
// is honest but noisy (scheduler-dependent); the deterministic claim
// here is the batched-read RPC reduction (tasks / read_rpcs).
void BM_MttrSocket(benchmark::State& state) {
  const uint32_t parallelism = uint32_t(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    MiniClusterConfig cfg;
    cfg.nodes = 4;
    cfg.transport = MiniClusterTransport::kSocket;
    cfg.segment_size = 32 << 10;
    cfg.virtual_segment_capacity = 16 << 10;
    cfg.vlogs_per_broker = 8;
    cfg.recovery_parallelism = parallelism;
    cfg.recovery_read_batch = 8;
    MiniCluster cluster(cfg);
    rpc::StreamOptions opts;
    opts.num_streamlets = 16;  // victim leads 4 -> several replay lanes
    opts.replication_factor = 3;
    auto info = cluster.coordinator().CreateStream("m", opts);
    if (!info.ok()) {
      state.SkipWithError("create stream failed");
      break;
    }
    NodeId victim = info->streamlet_brokers[0];
    if (!LoadVictim(cluster, *info, victim, 1500)) {
      state.SkipWithError("load failed");
      break;
    }
    cluster.CrashNode(victim);
    state.ResumeTiming();
    auto replayed = cluster.coordinator().RecoverNode(victim);
    state.PauseTiming();
    if (!replayed.ok()) {
      state.SkipWithError("recovery failed");
      break;
    }
    ReportRecovery(state, cluster, cluster.coordinator().GetRecoveryStats());
    state.ResumeTiming();
  }
}

BENCHMARK(BM_MttrSocket)
    ->ArgNames({"par"})
    ->ArgsProduct({{1, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kera
