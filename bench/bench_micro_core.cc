// Microbenchmarks of the core data structures on the hot paths: CRC32C,
// record/chunk building and parsing, segment and group appends, the
// produce/consume/replicate message codec, virtual log reference appends
// and batch polling, and the producer's Send. These
// are wall-clock measurements of the real code (not the DES).
#include <benchmark/benchmark.h>

#include "bench_host_context.h"

#include <chrono>
#include <string_view>
#include <vector>

#include "client/producer.h"
#include "cluster/mini_cluster.h"
#include "common/crc32c.h"
#include "rpc/messages.h"
#include "rpc/serialize.h"
#include "storage/group.h"
#include "storage/memory_manager.h"
#include "storage/segment.h"
#include "vlog/virtual_log.h"
#include "wire/chunk.h"
#include "wire/record.h"

namespace kera {
namespace {

std::vector<std::byte> MakeChunkFrame(size_t chunk_size, size_t record_size) {
  ChunkBuilder b(chunk_size);
  b.Start(1, 0, 1);
  std::vector<std::byte> value(record_size, std::byte{0x42});
  while (b.AppendValue(value)) {
  }
  auto bytes = b.Seal(1);
  return {bytes.begin(), bytes.end()};
}

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::byte> data(size_t(state.range(0)), std::byte{0xA5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(65536);

// Table-driven baseline, for comparison against the dispatched (hardware
// when available) BM_Crc32c above.
void BM_Crc32cSoftware(benchmark::State& state) {
  std::vector<std::byte> data(size_t(state.range(0)), std::byte{0xA5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cSoftware(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32cSoftware)->Arg(64)->Arg(1024)->Arg(65536);

// Combining two already-computed CRCs (the seal path: chunk checksum from
// per-record CRCs) vs. the length of the shifted suffix. O(1) work either
// way; the arg only selects the cached shift operator.
void BM_Crc32cCombine(benchmark::State& state) {
  std::vector<std::byte> a(123, std::byte{0x17});
  std::vector<std::byte> b(size_t(state.range(0)), std::byte{0x71});
  uint32_t ca = Crc32c(a);
  uint32_t cb = Crc32c(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cCombine(ca, cb, b.size()));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_Crc32cCombine)->Arg(104)->Arg(4096);

void BM_RecordWrite(benchmark::State& state) {
  std::vector<std::byte> buf(4096);
  std::vector<std::byte> value(size_t(state.range(0)), std::byte{0x42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(WriteRecord(buf, value));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RecordWrite)->Arg(100)->Arg(1024);

void BM_RecordParseAndVerify(benchmark::State& state) {
  std::vector<std::byte> buf(4096);
  std::vector<std::byte> value(100, std::byte{0x42});
  size_t n = WriteRecord(buf, value);
  auto span = std::span(buf).first(n);
  for (auto _ : state) {
    auto view = RecordView::Parse(span);
    benchmark::DoNotOptimize(view->VerifyChecksum());
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RecordParseAndVerify);

void BM_ChunkBuildSeal(benchmark::State& state) {
  size_t chunk_size = size_t(state.range(0));
  ChunkBuilder builder(chunk_size);
  std::vector<std::byte> value(100, std::byte{0x42});
  uint64_t records = 0;
  for (auto _ : state) {
    builder.Start(1, 0, 1);
    while (builder.AppendValue(value)) ++records;
    benchmark::DoNotOptimize(builder.Seal(1));
  }
  state.SetItemsProcessed(int64_t(records));
}
BENCHMARK(BM_ChunkBuildSeal)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_ChunkIterateRecords(benchmark::State& state) {
  auto frame = MakeChunkFrame(size_t(state.range(0)), 100);
  auto view = ChunkView::Parse(frame);
  uint64_t records = 0;
  for (auto _ : state) {
    for (auto it = view->records(); !it.Done(); it.Next()) {
      benchmark::DoNotOptimize(it.record().value());
      ++records;
    }
  }
  state.SetItemsProcessed(int64_t(records));
}
BENCHMARK(BM_ChunkIterateRecords)->Arg(1024)->Arg(65536);

void BM_SegmentAppend(benchmark::State& state) {
  auto frame = MakeChunkFrame(size_t(state.range(0)), 100);
  auto segment = std::make_unique<Segment>(Buffer(8u << 20), 1, 0, 0, 0);
  for (auto _ : state) {
    auto r = segment->AppendChunk(frame);
    if (!r.ok()) {
      state.PauseTiming();
      segment = std::make_unique<Segment>(Buffer(8u << 20), 1, 0, 0, 0);
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(frame.size()));
}
BENCHMARK(BM_SegmentAppend)->Arg(1024)->Arg(65536);

void BM_GroupAppend(benchmark::State& state) {
  auto frame = MakeChunkFrame(1024, 100);
  MemoryManager mm(size_t(2) << 30, 1u << 20);
  auto group = std::make_unique<Group>(mm, 1, 0, 0, 1024);
  for (auto _ : state) {
    auto r = group->AppendChunk(frame);
    if (!r.ok()) {
      state.PauseTiming();
      group->Close();
      for (uint64_t i = 0; i < group->chunk_count(); ++i) {
        group->MarkChunkDurable(i);
      }
      (void)group->Trim();
      group = std::make_unique<Group>(mm, 1, 0, 0, 1024);
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(frame.size()));
}
BENCHMARK(BM_GroupAppend);

// Produce-path frame encoding: one sealed chunk of 100-byte records into
// an on-wire Produce frame. The `copy` variant re-copies the chunk body
// into the Writer before framing (the pre-scatter-gather data path); the
// `sg` variant references it and copies once at frame materialization.
// Counters report records/s and bytes actually memcpy'd per record.
void ProduceFrameEncodeBench(benchmark::State& state, bool scatter_gather) {
  auto chunk = MakeChunkFrame(size_t(state.range(0)), 100);
  auto view = ChunkView::Parse(chunk);
  const uint64_t records = view->record_count();
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = 1;
  req.chunks = {chunk};
  size_t frame_size = 0;
  size_t memcpy_bytes = 0;
  for (auto _ : state) {
    rpc::Writer body(64);
    if (scatter_gather) {
      req.Encode(body);  // BytesRef: body references the chunk
    } else {
      body.U32(req.producer);
      body.U64(req.stream);
      body.Bool(req.recovery);
      body.U32(1);
      body.Bytes(chunk);  // copies the chunk body into the Writer
    }
    auto frame = rpc::Frame(rpc::Opcode::kProduce, body);
    frame_size = frame.size();
    // Copy path touches the chunk twice (into the Writer, then Writer ->
    // frame); the scatter-gather path once (piece -> frame).
    memcpy_bytes = scatter_gather ? frame_size : chunk.size() + frame_size;
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(records));
  state.counters["memcpy_B_per_rec"] =
      benchmark::Counter(double(memcpy_bytes) / double(records));
  state.counters["frame_B"] = benchmark::Counter(double(frame_size));
}
void BM_ProduceFrameEncodeCopy(benchmark::State& state) {
  ProduceFrameEncodeBench(state, false);
}
BENCHMARK(BM_ProduceFrameEncodeCopy)->Arg(16384)->Arg(65536);
void BM_ProduceFrameEncodeScatterGather(benchmark::State& state) {
  ProduceFrameEncodeBench(state, true);
}
BENCHMARK(BM_ProduceFrameEncodeScatterGather)->Arg(16384)->Arg(65536);

// Hot-path message codec: decoding a produce request of N chunk frames
// (each 1 KiB; decoding records spans, so the chunk size does not matter),
// encoding and decoding a consume response of 16 entries of 2 chunks, and
// decoding a replicate request. Bodies are materialized once, outside the
// timed loop.
template <typename M>
std::vector<std::byte> EncodeBody(const M& msg) {
  rpc::Writer w;
  msg.Encode(w);
  return std::move(w).Take();
}

template <typename M>
void DecodeBench(benchmark::State& state, const std::vector<std::byte>& body) {
  for (auto _ : state) {
    rpc::Reader r(body);
    auto decoded = M::Decode(r);
    if (!decoded.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}

void BM_ProduceRequestDecode(benchmark::State& state) {
  auto chunk = MakeChunkFrame(1024, 100);
  rpc::ProduceRequest req;
  req.producer = 1;
  req.stream = 1;
  req.chunks.assign(size_t(state.range(0)), chunk);
  DecodeBench<rpc::ProduceRequest>(state, EncodeBody(req));
}
BENCHMARK(BM_ProduceRequestDecode)
    ->ArgName("chunks")
    ->Arg(1)
    ->Arg(28)
    ->Arg(128);

rpc::ConsumeResponse SampleConsumeResponse(std::span<const std::byte> chunk) {
  rpc::ConsumeResponse resp;
  for (uint32_t i = 0; i < 16; ++i) {
    rpc::ConsumeEntryResponse e;
    e.streamlet = i;
    e.group = 1;
    e.next_chunk = 2;
    e.group_exists = true;
    e.groups_created = 1;
    e.chunks = {chunk, chunk};
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

void BM_ConsumeResponseEncode(benchmark::State& state) {
  auto chunk = MakeChunkFrame(1024, 100);
  auto resp = SampleConsumeResponse(chunk);
  for (auto _ : state) {
    rpc::Writer w;
    resp.Encode(w);
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_ConsumeResponseEncode);

void BM_ConsumeResponseDecode(benchmark::State& state) {
  auto chunk = MakeChunkFrame(1024, 100);
  DecodeBench<rpc::ConsumeResponse>(
      state, EncodeBody(SampleConsumeResponse(chunk)));
}
BENCHMARK(BM_ConsumeResponseDecode);

void BM_ReplicateRequestDecode(benchmark::State& state) {
  auto chunk = MakeChunkFrame(16384, 100);
  rpc::ReplicateRequest req;
  req.primary = 1;
  req.vlog = 2;
  req.vseg = 3;
  req.chunk_count = 1;
  req.payload = chunk;
  DecodeBench<rpc::ReplicateRequest>(state, EncodeBody(req));
}
BENCHMARK(BM_ReplicateRequestDecode);

void BM_VlogAppendPollComplete(benchmark::State& state) {
  auto frame = MakeChunkFrame(1024, 100);
  MemoryManager mm(size_t(2) << 30, 1u << 20);
  Group group(mm, 1, 0, 0, 4096);
  VirtualLogConfig vc;
  vc.replication_factor = 3;
  VirtualLog vlog(0, vc, [](VirtualSegmentId) {
    return std::vector<NodeId>{2, 3};
  });
  auto chunk_view = ChunkView::Parse(frame);
  for (auto _ : state) {
    auto appended = group.AppendChunk(frame);
    if (!appended.ok()) {
      state.SkipWithError("group full");
      break;
    }
    ChunkRef ref;
    ref.loc = *appended;
    ref.group = &group;
    ref.stream = 1;
    ref.payload_checksum = chunk_view->payload_checksum();
    vlog.Append(ref);
    auto batch = vlog.Poll();
    vlog.Complete(*batch);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_VlogAppendPollComplete)->Iterations(300000);

// Producer::Send on the source thread alone, over 1 node at R=1 on the
// Direct transport. The linger never expires, the pool has one builder
// more than there are streamlets, and a round gives each streamlet 16
// records of 100 B (under a 16 KiB chunk), so no record waits for a seal
// or a builder; the Flush between rounds is not timed. A round writes
// under 2 MiB even at 1024 streamlets, so the figure is the source path's
// work rather than cache misses on more chunk memory. ns_per_record must
// not grow with the streamlet count: a Send's work is O(1) in it.
void BM_ProducerSend(benchmark::State& state) {
  constexpr size_t kRecordsPerStreamlet = 16;
  constexpr size_t kRecords = size_t(1) << 18;
  const auto streamlets = uint32_t(state.range(0));
  MiniClusterConfig cfg;
  cfg.nodes = 1;
  cfg.transport = MiniClusterTransport::kDirect;
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = size_t(256) << 20;
  MiniCluster cluster(cfg);
  rpc::StreamOptions opts;
  opts.num_streamlets = streamlets;
  opts.replication_factor = 1;
  if (!cluster.coordinator().CreateStream("s", opts).ok()) {
    state.SkipWithError("CreateStream failed");
    return;
  }
  ProducerConfig pc;
  pc.stream = "s";
  pc.linger_us = uint64_t(3600) * 1'000'000;
  pc.chunk_pool_size = size_t(streamlets) + 1;
  Producer producer(pc, cluster.network());
  if (!producer.Connect().ok()) {
    state.SkipWithError("Connect failed");
    return;
  }
  const std::vector<std::byte> value(100, std::byte{0x42});
  const size_t per_round = kRecordsPerStreamlet * streamlets;
  double send_ns = 0;
  size_t sent = 0;
  for (auto _ : state) {
    for (size_t round = 0; round < kRecords / per_round; ++round) {
      bool ok = true;
      auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < per_round && ok; ++i) {
        ok = producer.Send(value).ok();
      }
      send_ns += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      sent += per_round;
      if (!ok || !producer.Flush().ok()) {
        state.SkipWithError("Send or Flush failed");
        break;
      }
    }
    state.SetIterationTime(send_ns * 1e-9);
  }
  state.counters["ns_per_record"] = send_ns / double(sent);
  state.SetItemsProcessed(int64_t(sent));
  (void)producer.Close();
}
BENCHMARK(BM_ProducerSend)
    ->ArgName("streamlets")
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kera
