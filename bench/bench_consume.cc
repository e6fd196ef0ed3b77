// Consumer fetch-engine benchmarks: end-to-end consume throughput, the
// cost per record handed out and Poll latency against a real MiniCluster,
// varying the broker count and the record size, on both the Direct
// (inline) and Socket (loopback TCP) transports; plus the idle-stream RPC
// rate, where the fetch long-polls at the broker.
//
//   ./bench_consume --benchmark_out=BENCH_consume.json
//                   --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/consumer.h"
#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "common/histogram.h"

namespace kera {
namespace {

constexpr size_t kBytesPerBroker = 4u << 20;

std::unique_ptr<MiniCluster> MakeCluster(bool socket, uint32_t brokers) {
  MiniClusterConfig cfg;
  cfg.nodes = brokers;
  cfg.transport = socket ? MiniClusterTransport::kSocket
                         : MiniClusterTransport::kDirect;
  return std::make_unique<MiniCluster>(cfg);
}

/// Creates a sealed stream with one streamlet per broker holding
/// kBytesPerBroker of `record_bytes` records, ready to be consumed.
rpc::StreamInfo FillStream(MiniCluster& cluster, uint32_t brokers,
                           size_t record_bytes) {
  rpc::StreamOptions opts;
  opts.num_streamlets = brokers;
  opts.replication_factor = 1;
  auto info = cluster.coordinator().CreateStream("bench", opts);
  if (!info.ok()) std::abort();
  ProducerConfig pc;
  pc.stream = "bench";
  pc.chunk_size = 16 << 10;
  Producer producer(pc, cluster.network());
  if (!producer.Connect().ok()) std::abort();
  std::vector<std::byte> value(record_bytes, std::byte{0x6B});
  const size_t records = brokers * kBytesPerBroker / record_bytes;
  for (size_t i = 0; i < records; ++i) {
    if (!producer.Send(value).ok()) std::abort();
  }
  if (!producer.Close().ok()) std::abort();
  if (!cluster.coordinator().SealStream("bench").ok()) std::abort();
  return *info;
}

// Drains the whole sealed stream, timing each Poll call. Reported:
// consume throughput (bytes/s), wall time per record drained
// (ns_per_record: with 100 B records it tracks the cost of handing a
// record out), poll-latency quantiles, and the consume RPC/empty-response
// counts.
void BM_ConsumeThroughput(benchmark::State& state) {
  const bool socket = state.range(0) != 0;
  const uint32_t brokers = uint32_t(state.range(1));
  const size_t record_bytes = size_t(state.range(2));
  const uint64_t expect_records = brokers * kBytesPerBroker / record_bytes;
  const uint64_t user_bytes = expect_records * record_bytes;

  Histogram poll_us;
  uint64_t requests = 0, empties = 0, records = 0;
  double secs = 0;
  for (auto _ : state) {
    auto cluster = MakeCluster(socket, brokers);
    FillStream(*cluster, brokers, record_bytes);
    ConsumerConfig cc;
    cc.stream = "bench";
    // Bounded fetches (a prefetch window of many small requests) instead
    // of one giant transfer per broker: this is the shape the pipeline
    // exists for, and what gives its four requests in flight something
    // to overlap.
    cc.max_bytes_per_request = 64 << 10;
    cc.max_chunks_per_entry = 4;
    Consumer consumer(cc, cluster->network());
    if (!consumer.Connect().ok()) {
      state.SkipWithError("consumer connect failed");
      return;
    }
    records = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
      const auto p0 = std::chrono::steady_clock::now();
      auto recs = consumer.PollBlocking(1024);
      poll_us.Record(uint64_t(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - p0)
              .count()));
      records += recs.size();
      if (recs.empty() && consumer.Finished()) break;
    }
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count();
    auto stats = consumer.GetStats();
    requests = stats.requests_sent;
    empties = stats.empty_responses;
    consumer.Close();
    if (records != expect_records) {
      state.SkipWithError("record count mismatch");
      return;
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(user_bytes));
  state.counters["consume_MBps"] = double(user_bytes) / secs / (1 << 20);
  state.counters["ns_per_record"] = secs * 1e9 / double(records);
  state.counters["poll_p50_us"] = double(poll_us.Quantile(0.5));
  state.counters["poll_p99_us"] = double(poll_us.Quantile(0.99));
  state.counters["consume_rpcs"] = double(requests);
  state.counters["empty_responses"] = double(empties);
  state.counters["records"] = double(records);
}
BENCHMARK(BM_ConsumeThroughput)
    ->ArgsProduct({{0, 1}, {1, 2, 4}, {100, 1024}})
    ->ArgNames({"socket", "brokers", "record_bytes"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Tailing a live stream across 4 brokers: a producer emits one
// timestamped record every 2 ms round-robin over the streamlets while
// the consumer tails. Reported: end-to-end delivery latency quantiles
// (produce -> Poll) and the RPC counts. The consumer runs one fetch
// worker per broker, so an idle broker's parked long-poll never holds
// up another broker's data.
void BM_TailLatency(benchmark::State& state) {
  const bool socket = state.range(0) != 0;
  constexpr uint32_t kBrokers = 4;
  constexpr int kTailRecords = 250;

  Histogram lat_us;
  uint64_t requests = 0, empties = 0;
  for (auto _ : state) {
    auto cluster = MakeCluster(socket, kBrokers);
    rpc::StreamOptions opts;
    opts.num_streamlets = kBrokers;
    opts.replication_factor = 1;
    if (!cluster->coordinator().CreateStream("bench", opts).ok()) {
      std::abort();
    }
    ConsumerConfig cc;
    cc.stream = "bench";
    Consumer consumer(cc, cluster->network());
    if (!consumer.Connect().ok()) {
      state.SkipWithError("consumer connect failed");
      return;
    }
    ProducerConfig pc;
    pc.stream = "bench";
    pc.chunk_size = 4 << 10;
    Producer producer(pc, cluster->network());
    if (!producer.Connect().ok()) std::abort();

    std::thread feeder([&] {
      for (int i = 0; i < kTailRecords; ++i) {
        std::array<std::byte, 64> value{};
        const int64_t now_ns =
            std::chrono::steady_clock::now().time_since_epoch().count();
        std::memcpy(value.data(), &now_ns, sizeof(now_ns));
        if (!producer.Send(value).ok()) std::abort();
        if (!producer.Flush().ok()) std::abort();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    int received = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (received < kTailRecords &&
           std::chrono::steady_clock::now() < deadline) {
      for (const auto& rec : consumer.PollBlocking(64)) {
        int64_t sent_ns = 0;
        std::memcpy(&sent_ns, rec.value.data(), sizeof(sent_ns));
        const int64_t now_ns =
            std::chrono::steady_clock::now().time_since_epoch().count();
        lat_us.Record(uint64_t(std::max<int64_t>(now_ns - sent_ns, 0)) /
                      1000);
        ++received;
      }
    }
    feeder.join();
    if (!producer.Close().ok()) std::abort();
    auto stats = consumer.GetStats();
    requests = stats.requests_sent;
    empties = stats.empty_responses;
    consumer.Close();
    if (received != kTailRecords) {
      state.SkipWithError("tail records lost");
      return;
    }
  }
  state.counters["lat_p50_us"] = double(lat_us.Quantile(0.5));
  state.counters["lat_p99_us"] = double(lat_us.Quantile(0.99));
  state.counters["lat_max_us"] = double(lat_us.max());
  state.counters["consume_rpcs"] = double(requests);
  state.counters["empty_responses"] = double(empties);
}
BENCHMARK(BM_TailLatency)
    ->ArgsProduct({{0, 1}})
    ->ArgNames({"socket"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// An idle consumer for 300 ms: the fetch parks at the broker, so it
// costs a handful of RPCs instead of a spin of empty rounds.
void BM_IdleStreamRpcs(benchmark::State& state) {
  uint64_t requests = 0, empties = 0, parked = 0;
  for (auto _ : state) {
    auto cluster = MakeCluster(/*socket=*/false, /*brokers=*/1);
    rpc::StreamOptions opts;
    opts.num_streamlets = 1;
    opts.replication_factor = 1;
    if (!cluster->coordinator().CreateStream("bench", opts).ok()) {
      std::abort();
    }
    ConsumerConfig cc;
    cc.stream = "bench";
    Consumer consumer(cc, cluster->network());
    if (!consumer.Connect().ok()) {
      state.SkipWithError("consumer connect failed");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto stats = consumer.GetStats();
    requests = stats.requests_sent;
    empties = stats.empty_responses;
    parked = cluster->TotalBrokerStats().consume_long_polls;
    consumer.Close();
  }
  state.counters["consume_rpcs"] = double(requests);
  state.counters["empty_responses"] = double(empties);
  state.counters["long_polls"] = double(parked);
}
BENCHMARK(BM_IdleStreamRpcs)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kera
