// Transport round-trip benchmarks over loopback TCP (SocketNetwork), with
// a configurable multiplexing window (in-flight requests per connection)
// and payload size. The parts variants ship a real encoded kProduce
// frame through CallAsyncParts — the zero-materialization path the
// producer and the broker's replication use.
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "rpc/messages.h"
#include "rpc/serialize.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"
#include "wire/chunk.h"

namespace kera {
namespace {

class EchoHandler : public rpc::RpcHandler {
 public:
  std::vector<std::byte> HandleRpc(
      std::span<const std::byte> request) override {
    return {request.begin(), request.end()};
  }
};

/// One sealed chunk of `payload_bytes` worth of records, wrapped in a
/// ProduceRequest body — the frame shape the producer sends.
rpc::Writer MakeProduceBody(ChunkBuilder& builder, size_t payload_bytes) {
  builder.Start(1, 0, 1);
  std::vector<std::byte> value(117, std::byte{0x42});
  size_t appended = 0;
  while (appended < payload_bytes && builder.AppendValue(value)) {
    appended += value.size();
  }
  (void)builder.Seal(1);

  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = 1;
  req.chunks.push_back(builder.SealedView());
  rpc::Writer body(64);
  req.Encode(body);
  return body;
}

/// Round-trips with `window` requests multiplexed in flight: issue until
/// the window is full, then retire-oldest/issue-one per iteration.
template <typename Issue>
void RunWindowed(benchmark::State& state, int window, size_t frame_bytes,
                 Issue issue) {
  std::deque<std::future<Result<std::vector<std::byte>>>> inflight;
  for (auto _ : state) {
    while (int(inflight.size()) < window) inflight.push_back(issue());
    auto r = inflight.front().get();
    inflight.pop_front();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  while (!inflight.empty()) {
    (void)inflight.front().get();
    inflight.pop_front();
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(frame_bytes));
  state.counters["window"] = double(window);
}

void BM_SocketEcho(benchmark::State& state) {
  rpc::SocketNetwork net;
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  if (!port.ok()) {
    state.SkipWithError("register failed");
    return;
  }
  const int window = int(state.range(0));
  std::vector<std::byte> payload(size_t(state.range(1)), std::byte{0x5A});
  RunWindowed(state, window, payload.size(),
              [&] { return net.CallAsync(1, payload); });
}
BENCHMARK(BM_SocketEcho)
    ->ArgsProduct({{1, 8, 32}, {128, 4096}})
    ->ArgNames({"window", "bytes"});

// Produce-frame round trips through the scatter-gather parts path: the
// frame's pieces (opcode, body runs, chunk bytes) go straight to the
// vectored send without being materialized into one buffer.
void BM_SocketProduceParts(benchmark::State& state) {
  rpc::SocketNetwork net;
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  if (!port.ok()) {
    state.SkipWithError("register failed");
    return;
  }
  const int window = int(state.range(0));
  ChunkBuilder builder(size_t(state.range(1)) + 1024);
  rpc::Writer body = MakeProduceBody(builder, size_t(state.range(1)));
  std::array<std::byte, 2> opcode;
  const rpc::BytesRefParts parts =
      rpc::FrameAsParts(rpc::Opcode::kProduce, body, opcode);
  RunWindowed(state, window, parts.total_size(),
              [&] { return net.CallAsyncParts(1, parts); });
  auto stats = net.GetStats();
  state.counters["parts_copied_bytes"] = double(stats.parts_copied_bytes);
}
BENCHMARK(BM_SocketProduceParts)
    ->ArgsProduct({{1, 8, 32}, {4096, 65536}})
    ->ArgNames({"window", "bytes"});

// Same produce frame through the span path (one materialized copy), to
// price the copy the parts path avoids.
void BM_SocketProduceSpan(benchmark::State& state) {
  rpc::SocketNetwork net;
  EchoHandler echo;
  auto port = net.Register(1, &echo);
  if (!port.ok()) {
    state.SkipWithError("register failed");
    return;
  }
  const int window = int(state.range(0));
  ChunkBuilder builder(size_t(state.range(1)) + 1024);
  rpc::Writer body = MakeProduceBody(builder, size_t(state.range(1)));
  std::vector<std::byte> frame = rpc::Frame(rpc::Opcode::kProduce, body);
  RunWindowed(state, window, frame.size(),
              [&] { return net.CallAsync(1, frame); });
}
BENCHMARK(BM_SocketProduceSpan)
    ->ArgsProduct({{1, 8, 32}, {4096, 65536}})
    ->ArgNames({"window", "bytes"});

}  // namespace
}  // namespace kera
