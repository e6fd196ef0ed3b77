// Unit tests for RPC serialization, framing and transports.
#include <gtest/gtest.h>

#include <atomic>
#include <string_view>

#include "rpc/messages.h"
#include "rpc/serialize.h"
#include "rpc/transport.h"
#include "wire/chunk.h"

namespace kera::rpc {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(SerializeTest, PrimitivesRoundTrip) {
  Writer w;
  w.U8(7);
  w.U16(65535);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.Bool(true);
  w.Str("hello");
  w.Bytes(AsBytes(std::string_view("\x00\x01\x02", 3)));

  Reader r(w.View());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  bool b;
  std::string s;
  std::span<const std::byte> bytes;
  ASSERT_TRUE(r.U8(u8).ok());
  ASSERT_TRUE(r.U16(u16).ok());
  ASSERT_TRUE(r.U32(u32).ok());
  ASSERT_TRUE(r.U64(u64).ok());
  ASSERT_TRUE(r.Bool(b).ok());
  ASSERT_TRUE(r.Str(s).ok());
  ASSERT_TRUE(r.Bytes(bytes).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedReadFails) {
  Writer w;
  w.U32(1);
  Reader r(w.View());
  uint64_t v;
  EXPECT_EQ(r.U64(v).code(), StatusCode::kCorruption);
}

TEST(SerializeTest, TruncatedBytesLengthFails) {
  Writer w;
  w.U32(100);  // claims 100 bytes follow; none do
  Reader r(w.View());
  std::span<const std::byte> out;
  EXPECT_EQ(r.Bytes(out).code(), StatusCode::kCorruption);
}

TEST(FrameTest, RoundTrip) {
  Writer body;
  body.U32(42);
  auto frame = Frame(Opcode::kProduce, body);
  Opcode op;
  std::span<const std::byte> parsed_body;
  ASSERT_TRUE(ParseFrame(frame, op, parsed_body).ok());
  EXPECT_EQ(op, Opcode::kProduce);
  Reader r(parsed_body);
  uint32_t v;
  ASSERT_TRUE(r.U32(v).ok());
  EXPECT_EQ(v, 42u);
}

TEST(FrameTest, ShortFrameRejected) {
  std::vector<std::byte> tiny(1);
  Opcode op;
  std::span<const std::byte> body;
  EXPECT_FALSE(ParseFrame(tiny, op, body).ok());
}

template <typename Req>
std::vector<std::byte> FrameOf(Opcode op, const Req& req) {
  Writer body;
  req.Encode(body);
  return Frame(op, body);
}

TEST(FrameTest, RouteFrameToShardPeeksEachRoutingKey) {
  // Every field before the routing key is set, so a wrong offset reads a
  // different value; each key maps to a distinct shard of 4.
  constexpr int kShards = 4;
  ChunkBuilder builder(256);
  builder.Start(/*stream=*/0x22, /*streamlet=*/7, /*producer=*/0x11);
  ASSERT_TRUE(builder.AppendValue(AsBytes("v")));
  auto chunk = builder.Seal(1);
  ProduceRequest produce{.producer = 0x11, .stream = 0x22, .recovery = true,
                         .chunks = {chunk}};
  EXPECT_EQ(RouteFrameToShard(FrameOf(Opcode::kProduce, produce), kShards),
            7 % kShards);
  produce.chunks.clear();
  EXPECT_EQ(RouteFrameToShard(FrameOf(Opcode::kProduce, produce), kShards),
            0);

  ConsumeRequest consume;
  consume.stream = 0x21;
  consume.max_bytes = 0x31;
  consume.entries = {{.streamlet = 6, .group = 1, .start_chunk = 1,
                      .max_chunks = 1}};
  EXPECT_EQ(RouteFrameToShard(FrameOf(Opcode::kConsume, consume), kShards), 2);

  ReplicateRequest replicate;
  replicate.primary = 4;
  replicate.vlog = 5;
  replicate.vseg = 7;
  EXPECT_EQ(RouteFrameToShard(FrameOf(Opcode::kReplicate, replicate), kShards),
            1);

  CommitOffsetsRequest commit;
  commit.stream = 0x21;
  commit.consumer = 0x31;
  commit.commit_seq = 0x41;
  commit.epoch = 0x51;
  commit.entries = {{.streamlet = 3, .group = 1, .next_chunk = 1}};
  EXPECT_EQ(
      RouteFrameToShard(FrameOf(Opcode::kCommitOffsets, commit), kShards), 3);

  FetchOffsetsRequest fetch{.stream = 0x21, .consumer = 0x31,
                            .streamlets = {6, 7}};
  EXPECT_EQ(RouteFrameToShard(FrameOf(Opcode::kFetchOffsets, fetch), kShards),
            2);

  // Admin traffic and frames too short to hold the key go to shard 0.
  GetStreamInfoRequest info{.name = "s"};
  EXPECT_EQ(
      RouteFrameToShard(FrameOf(Opcode::kGetStreamInfo, info), kShards), 0);
  auto cut = FrameOf(Opcode::kConsume, consume);
  cut.resize(2 + 8 + 4 + 4 + 3);  // ends inside the first entry's streamlet
  EXPECT_EQ(RouteFrameToShard(cut, kShards), 0);
}

TEST(MessagesTest, ProduceRoundTrip) {
  ProduceRequest req;
  req.producer = 9;
  req.stream = 1234;
  req.recovery = true;
  std::vector<std::byte> c1(100, std::byte{0xAA});
  std::vector<std::byte> c2(50, std::byte{0xBB});
  req.chunks = {c1, c2};

  Writer w;
  req.Encode(w);
  auto encoded = std::move(w).Take();  // materializes the referenced chunks
  Reader r(encoded);
  auto got = ProduceRequest::Decode(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->producer, 9u);
  EXPECT_EQ(got->stream, 1234u);
  EXPECT_TRUE(got->recovery);
  ASSERT_EQ(got->chunks.size(), 2u);
  EXPECT_EQ(got->chunks[0].size(), 100u);
  EXPECT_EQ(got->chunks[1][0], std::byte{0xBB});
}

TEST(MessagesTest, ConsumeRoundTrip) {
  ConsumeRequest req;
  req.stream = 5;
  req.max_bytes = 4096;
  req.entries = {{.streamlet = 1, .group = 2, .start_chunk = 3,
                  .max_chunks = 4}};
  Writer w;
  req.Encode(w);
  Reader r(w.View());
  auto got = ConsumeRequest::Decode(r);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->entries.size(), 1u);
  EXPECT_EQ(got->entries[0].start_chunk, 3u);

  ConsumeResponse resp;
  resp.status = StatusCode::kOk;
  ConsumeEntryResponse e;
  e.streamlet = 1;
  e.group = 2;
  e.next_chunk = 7;
  e.group_exists = true;
  e.group_closed = true;
  std::vector<std::byte> chunk(64, std::byte{0xCC});
  e.chunks = {chunk};
  resp.entries.push_back(std::move(e));
  Writer w2;
  resp.Encode(w2);
  auto encoded = std::move(w2).Take();
  Reader r2(encoded);
  auto got2 = ConsumeResponse::Decode(r2);
  ASSERT_TRUE(got2.ok());
  EXPECT_TRUE(got2->entries[0].group_closed);
  EXPECT_EQ(got2->entries[0].next_chunk, 7u);
  EXPECT_EQ(got2->entries[0].chunks[0].size(), 64u);
}

TEST(MessagesTest, StreamInfoRoundTrip) {
  CreateStreamResponse resp;
  resp.status = StatusCode::kOk;
  resp.info.stream = 17;
  resp.info.options.num_streamlets = 8;
  resp.info.options.active_groups_per_streamlet = 4;
  resp.info.options.replication_factor = 3;
  resp.info.options.vlog_policy = VlogPolicy::kPerSubPartition;
  resp.info.streamlet_brokers = {1, 2, 3, 4, 1, 2, 3, 4};
  Writer w;
  resp.Encode(w);
  Reader r(w.View());
  auto got = CreateStreamResponse::Decode(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->info.stream, 17u);
  EXPECT_EQ(got->info.options.vlog_policy, VlogPolicy::kPerSubPartition);
  EXPECT_EQ(got->info.streamlet_brokers.size(), 8u);
}

TEST(MessagesTest, ReplicateRoundTrip) {
  ReplicateRequest req;
  req.primary = 2;
  req.vlog = 3;
  req.vseg = 4;
  req.start_offset = 1000;
  req.chunk_count = 2;
  req.checksum_after = 0xFEEDFACE;
  req.seals = true;
  std::vector<std::byte> payload(128, std::byte{0x11});
  req.payload = payload;
  Writer w;
  req.Encode(w);
  auto encoded = std::move(w).Take();
  Reader r(encoded);
  auto got = ReplicateRequest::Decode(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->start_offset, 1000u);
  EXPECT_EQ(got->checksum_after, 0xFEEDFACEu);
  EXPECT_TRUE(got->seals);
  EXPECT_EQ(got->payload.size(), 128u);
}

// The scatter-gather encoder must emit frames byte-identical to a plain
// copy-everything encoder: referencing payloads is a transport-side
// optimization, not a wire format change.
TEST(MessagesTest, ScatterGatherProduceFrameIsByteIdentical) {
  // Mixed sizes straddle the inline-copy cutoff (small runs are copied,
  // large ones referenced) so both materialization paths are exercised.
  std::vector<std::byte> small(17, std::byte{0x01});
  std::vector<std::byte> large(900, std::byte{0x02});
  std::vector<std::byte> medium(64, std::byte{0x03});
  ProduceRequest req;
  req.producer = 3;
  req.stream = 77;
  req.recovery = false;
  req.chunks = {small, large, medium};

  Writer sg;
  req.Encode(sg);

  // Reference encoding: identical field order, everything copied inline.
  Writer ref;
  ref.U32(req.producer);
  ref.U64(req.stream);
  ref.Bool(req.recovery);
  ref.U32(uint32_t(req.chunks.size()));
  for (const auto& c : req.chunks) ref.Bytes(c);
  ASSERT_TRUE(ref.contiguous());

  EXPECT_EQ(sg.size(), ref.size());
  auto ref_frame = Frame(Opcode::kProduce, ref);
  auto sg_frame = Frame(Opcode::kProduce, sg);
  EXPECT_EQ(sg_frame, ref_frame);
  auto sg_bytes = std::move(sg).Take();
  auto ref_bytes = std::move(ref).Take();
  EXPECT_EQ(sg_bytes, ref_bytes);
}

TEST(MessagesTest, ScatterGatherConsumeFrameIsByteIdentical) {
  std::vector<std::byte> c1(128, std::byte{0xAB});
  std::vector<std::byte> c2(1000, std::byte{0xCD});
  ConsumeResponse resp;
  ConsumeEntryResponse e;
  e.streamlet = 4;
  e.group = 9;
  e.next_chunk = 2;
  e.group_exists = true;
  e.groups_created = 3;
  e.chunks = {c1, c2};
  resp.entries.push_back(std::move(e));

  Writer sg;
  resp.Encode(sg);

  Writer ref;
  ref.U8(uint8_t(resp.status));
  ref.U32(1);
  const auto& re = resp.entries[0];
  ref.U32(re.streamlet);
  ref.U32(re.group);
  ref.U64(re.next_chunk);
  ref.Bool(re.group_exists);
  ref.Bool(re.group_closed);
  ref.Bool(re.stream_sealed);
  ref.U32(re.groups_created);
  ref.U32(uint32_t(re.chunks.size()));
  for (const auto& c : re.chunks) ref.Bytes(c);
  ASSERT_TRUE(ref.contiguous());

  EXPECT_EQ(Frame(Opcode::kConsume, sg), Frame(Opcode::kConsume, ref));
  EXPECT_EQ(std::move(sg).Take(), std::move(ref).Take());
}

// payload_parts must encode exactly like one flat payload span covering
// the same bytes (backups decode a single payload either way).
TEST(MessagesTest, ReplicatePayloadPartsMatchFlatPayload) {
  std::vector<std::byte> a(300, std::byte{0x11});
  std::vector<std::byte> b(45, std::byte{0x22});
  std::vector<std::byte> c(512, std::byte{0x33});
  std::vector<std::byte> flat;
  flat.insert(flat.end(), a.begin(), a.end());
  flat.insert(flat.end(), b.begin(), b.end());
  flat.insert(flat.end(), c.begin(), c.end());

  ReplicateRequest parts_req;
  parts_req.primary = 1;
  parts_req.vlog = 2;
  parts_req.vseg = 3;
  parts_req.start_offset = 4;
  parts_req.chunk_count = 3;
  parts_req.checksum_after = 0xABCD;
  parts_req.payload_parts = {a, b, c};

  ReplicateRequest flat_req = parts_req;
  flat_req.payload_parts.clear();
  flat_req.payload = flat;

  Writer wp, wf;
  parts_req.Encode(wp);
  flat_req.Encode(wf);
  auto encoded_parts = std::move(wp).Take();
  auto encoded_flat = std::move(wf).Take();
  EXPECT_EQ(encoded_parts, encoded_flat);

  Reader r(encoded_parts);
  auto got = ReplicateRequest::Decode(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload.size(), flat.size());
  EXPECT_TRUE(std::equal(got->payload.begin(), got->payload.end(),
                         flat.begin()));
}

TEST(SerializeTest, WriterPiecesReassembleInOrder) {
  std::vector<std::byte> big(200, std::byte{0x7E});
  Writer w;
  w.U32(1);
  w.BytesRef(big);
  w.U32(2);
  std::vector<std::byte> gathered;
  w.ForEachPiece([&](std::span<const std::byte> piece) {
    gathered.insert(gathered.end(), piece.begin(), piece.end());
  });
  EXPECT_EQ(gathered.size(), w.size());
  EXPECT_EQ(gathered, std::move(w).Take());
}

TEST(MessagesTest, RecoveryMessagesRoundTrip) {
  ListRecoverySegmentsResponse resp;
  resp.segments = {{.primary = 1, .vlog = 2, .vseg = 3, .chunk_count = 4,
                    .sealed = true}};
  Writer w;
  resp.Encode(w);
  Reader r(w.View());
  auto got = ListRecoverySegmentsResponse::Decode(r);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->segments.size(), 1u);
  EXPECT_EQ(got->segments[0].vseg, 3u);
  EXPECT_TRUE(got->segments[0].sealed);
}

// ------------------------------------------------------------- transports

class EchoHandler final : public RpcHandler {
 public:
  std::vector<std::byte> HandleRpc(std::span<const std::byte> req) override {
    ++calls;
    return {req.begin(), req.end()};
  }
  std::atomic<int> calls{0};
};

TEST(DirectNetworkTest, CallDispatchesToHandler) {
  DirectNetwork net;
  EchoHandler echo;
  net.Register(5, &echo);
  auto resp = net.Call(5, AsBytes("ping"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->size(), 4u);
  EXPECT_EQ(echo.calls, 1);
  EXPECT_EQ(net.GetStats().calls, 1u);
}

TEST(DirectNetworkTest, UnknownNodeUnavailable) {
  DirectNetwork net;
  auto resp = net.Call(99, AsBytes("x"));
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
}

TEST(DirectNetworkTest, CrashAndRestore) {
  DirectNetwork net;
  EchoHandler echo;
  net.Register(1, &echo);
  net.Crash(1);
  EXPECT_FALSE(net.Call(1, AsBytes("x")).ok());
  net.Restore(1, &echo);
  EXPECT_TRUE(net.Call(1, AsBytes("x")).ok());
}

}  // namespace
}  // namespace kera::rpc
