// Shared-nothing multicore scaling: produce throughput into one broker
// over the socket transport, sweeping BrokerConfig::shards from 1 up to
// the host's CPU count. Each shard is an independent reactor (epoll loop
// + workers) and produce frames are routed to the shard owning their
// streamlet at decode time (rpc::RouteFrameToShard), so on a multicore
// host throughput should scale until the memory bus or NIC loopback
// saturates. On a single-CPU host the sweep degenerates to shards=1 plus
// an oversubscribed shards=2 point that cannot show speedup but still
// validates routing: the per-shard frame counters and cross_shard_ops
// are reported so the JSON shows how frames spread over the reactors.
//
//   ./bench_multicore --benchmark_out=BENCH_multicore.json
//                     --benchmark_out_format=json
//
// The host context (nproc, cpu_model) is stamped into the JSON via
// bench_host_context.h — scaling numbers are meaningless without it.
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "common/host_info.h"

namespace kera {
namespace {

constexpr size_t kRecordBytes = 1024;
constexpr size_t kTotalBytes = 24u << 20;  // per benchmark iteration

// One broker, socket transport, S shards. Streamlets spread over all
// shards (num_streamlets a multiple of S) so round-robin producers load
// every shard evenly.
void BM_MulticoreProduce(benchmark::State& state) {
  const uint32_t shards = uint32_t(state.range(0));
  const uint32_t producers =
      std::min<uint32_t>(8, std::max<uint32_t>(4, shards));
  const uint32_t streamlets = 2 * std::max<uint32_t>(shards, producers);
  const size_t records_per_producer =
      kTotalBytes / kRecordBytes / producers;

  double secs = 0;
  Broker::Stats stats;
  for (auto _ : state) {
    MiniClusterConfig cfg;
    cfg.nodes = 1;
    cfg.transport = MiniClusterTransport::kSocket;
    cfg.broker_shards = shards;
    cfg.vlogs_per_broker = std::max<uint32_t>(4, shards);
    auto cluster = std::make_unique<MiniCluster>(cfg);

    rpc::StreamOptions opts;
    opts.num_streamlets = streamlets;
    opts.replication_factor = 1;
    if (!cluster->coordinator().CreateStream("bench", opts).ok()) {
      state.SkipWithError("stream creation failed");
      return;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (uint32_t p = 0; p < producers; ++p) {
      threads.emplace_back([&] {
        ProducerConfig pc;
        pc.stream = "bench";
        pc.chunk_size = 16 << 10;
        Producer producer(pc, cluster->network());
        if (!producer.Connect().ok()) {
          failed.store(true);
          return;
        }
        std::vector<std::byte> value(kRecordBytes, std::byte{0x6D});
        for (size_t i = 0; i < records_per_producer; ++i) {
          if (!producer.Send(value).ok()) {
            failed.store(true);
            return;
          }
        }
        if (!producer.Close().ok()) failed.store(true);
      });
    }
    for (auto& t : threads) t.join();
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count();
    stats = cluster->broker(1).GetStats();
    if (failed.load()) {
      state.SkipWithError("producer failed");
      return;
    }
  }

  const size_t total = producers * records_per_producer * kRecordBytes;
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(total));
  state.counters["produce_MBps"] = double(total) / secs / (1 << 20);
  state.counters["records_s"] =
      double(producers * records_per_producer) / secs;
  state.counters["producers"] = double(producers);
  state.counters["oversubscribed"] = shards > HostNproc() ? 1.0 : 0.0;
  // Routing evidence: shard<i>_frames shows the per-reactor spread of
  // handled frames (even when oversubscribed on 1 CPU). cross_shard_ops
  // is data-plane only: it counts chunks whose streamlet lives on a
  // different shard than the request's home shard (leadership edits are
  // not counted) — producers batch one chunk per streamlet into each
  // request, so multi-streamlet requests make this nonzero by design;
  // single-streamlet traffic (see broker_test) drives it to 0.
  state.counters["cross_shard_ops"] = double(stats.cross_shard_ops);
  for (size_t i = 0; i < stats.shard_frames.size(); ++i) {
    state.counters["shard" + std::to_string(i) + "_frames"] =
        double(stats.shard_frames[i]);
  }
}
BENCHMARK(BM_MulticoreProduce)
    ->Apply([](benchmark::internal::Benchmark* b) {
      const unsigned nproc = HostNproc();
      std::vector<int64_t> shard_counts;
      for (unsigned s = 1; s <= nproc; s *= 2) {
        shard_counts.push_back(int64_t(s));
      }
      if (shard_counts.back() != int64_t(nproc)) {
        shard_counts.push_back(int64_t(nproc));
      }
      if (nproc == 1) {
        // Single-CPU fallback: still run an oversubscribed 2-shard point
        // so the routing counters get exercised end to end.
        shard_counts.push_back(2);
      }
      for (int64_t s : shard_counts) b->Arg(s);
      b->ArgNames({"shards"});
      b->Iterations(1);
      b->Unit(benchmark::kMillisecond);
      b->MeasureProcessCPUTime();
      b->UseRealTime();
    });

}  // namespace
}  // namespace kera
