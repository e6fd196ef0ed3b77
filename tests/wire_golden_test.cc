// Golden tests freezing the wire formats byte-for-byte. The chunk and
// record layouts are shared between clients, brokers, backups and the
// on-disk flush format (paper: "clients and brokers share a binary data
// format", segments have "the same structure on both disk and memory"),
// so any layout change is a compatibility break and must fail here.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "message_samples.h"
#include "rpc/messages.h"
#include "wire/chunk.h"
#include "storage/segment.h"
#include "wire/record.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string Hex(std::span<const std::byte> bytes) {
  std::string out;
  char buf[4];
  for (std::byte b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", unsigned(b));
    out += buf;
  }
  return out;
}

TEST(WireGoldenTest, NonKeyedRecordLayout) {
  std::vector<std::byte> buf(64);
  size_t n = WriteRecord(buf, AsBytes("hi"));
  ASSERT_EQ(n, 14u);
  // checksum(4) | total_length=14 (4) | key_count=0 (2) | flags=0 (2) |
  // "hi"
  EXPECT_EQ(Hex(std::span(buf).first(n)),
            //  crc     len=0x0e   kc   flags 'h' 'i'
            "4941d611" "0e000000" "0000" "0000" "6869");
}

TEST(WireGoldenTest, KeyedRecordWithVersionAndTimestampLayout) {
  std::vector<std::byte> buf(128);
  RecordOptions opts;
  opts.version = 0x1122334455667788ull;
  opts.timestamp = 0x0102030405060708ull;
  std::span<const std::byte> keys[] = {AsBytes("k")};
  size_t n = WriteRecord(buf, keys, AsBytes("v"), opts);
  ASSERT_EQ(n, kRecordFixedHeader + 8 + 8 + 2 + 1 + 1);
  std::string hex = Hex(std::span(buf).first(n));
  // total_length = 32 = 0x20, key_count = 1, flags = 3 (version+ts)
  EXPECT_EQ(hex.substr(8, 8), "20000000");
  EXPECT_EQ(hex.substr(16, 4), "0100");
  EXPECT_EQ(hex.substr(20, 4), "0300");
  // little-endian version and timestamp
  EXPECT_EQ(hex.substr(24, 16), "8877665544332211");
  EXPECT_EQ(hex.substr(40, 16), "0807060504030201");
  // key length 1, key 'k', value 'v'
  EXPECT_EQ(hex.substr(56, 4), "0100");
  EXPECT_EQ(hex.substr(60, 2), "6b");
  EXPECT_EQ(hex.substr(62, 2), "76");
}

TEST(WireGoldenTest, ChunkHeaderLayout) {
  ChunkBuilder b(256);
  b.Start(/*stream=*/0x0102030405060708ull, /*streamlet=*/0x0A0B0C0D,
          /*producer=*/0x11223344);
  ASSERT_TRUE(b.AppendValue(AsBytes("x")));
  auto bytes = b.Seal(/*seq=*/0x5566778899AABBCCull);
  ASSERT_EQ(bytes.size(), kChunkHeaderSize + kRecordFixedHeader + 1);
  std::string hex = Hex(bytes);
  // payload_length = 13 at offset 4
  EXPECT_EQ(hex.substr(8, 8), "0d000000");
  // stream id little-endian at offset 8
  EXPECT_EQ(hex.substr(16, 16), "0807060504030201");
  // streamlet at offset 16, producer at offset 20
  EXPECT_EQ(hex.substr(32, 8), "0d0c0b0a");
  EXPECT_EQ(hex.substr(40, 8), "44332211");
  // chunk_seq at offset 24
  EXPECT_EQ(hex.substr(48, 16), "ccbbaa9988776655");
  // record_count = 1 at offset 32; group/segment/flags/index zero
  EXPECT_EQ(hex.substr(64, 8), "01000000");
  EXPECT_EQ(hex.substr(72, 24), std::string(24, '0'));
  EXPECT_EQ(hex.substr(96, 16), std::string(16, '0'));
}

TEST(WireGoldenTest, ChunkHeaderSizeIsFrozen) {
  // These constants are baked into every stored segment and every backup
  // file; changing them invalidates existing data.
  EXPECT_EQ(kChunkHeaderSize, 56u);
  EXPECT_EQ(kSegmentHeaderSize, 24u);
  EXPECT_EQ(kRecordFixedHeader, 12u);
  EXPECT_EQ(chunk_offsets::kChecksum, 0u);
  EXPECT_EQ(chunk_offsets::kPayloadLength, 4u);
  EXPECT_EQ(chunk_offsets::kStreamId, 8u);
  EXPECT_EQ(chunk_offsets::kStreamletId, 16u);
  EXPECT_EQ(chunk_offsets::kProducerId, 20u);
  EXPECT_EQ(chunk_offsets::kChunkSeq, 24u);
  EXPECT_EQ(chunk_offsets::kRecordCount, 32u);
  EXPECT_EQ(chunk_offsets::kGroupId, 36u);
  EXPECT_EQ(chunk_offsets::kSegmentId, 40u);
  EXPECT_EQ(chunk_offsets::kFlags, 44u);
  EXPECT_EQ(chunk_offsets::kGroupChunkIndex, 48u);
}

TEST(WireGoldenTest, RpcOpcodesAreFrozen) {
  EXPECT_EQ(uint16_t(rpc::Opcode::kProduce), 1);
  EXPECT_EQ(uint16_t(rpc::Opcode::kConsume), 2);
  EXPECT_EQ(uint16_t(rpc::Opcode::kCreateStream), 3);
  EXPECT_EQ(uint16_t(rpc::Opcode::kGetStreamInfo), 4);
  EXPECT_EQ(uint16_t(rpc::Opcode::kReplicate), 5);
  EXPECT_EQ(uint16_t(rpc::Opcode::kListRecoverySegments), 6);
  EXPECT_EQ(uint16_t(rpc::Opcode::kReadRecoverySegment), 7);
  EXPECT_EQ(uint16_t(rpc::Opcode::kSealStream), 8);
}

TEST(WireGoldenTest, ProduceRequestFrameLayout) {
  rpc::ProduceRequest req;
  req.producer = 0x0A;
  req.stream = 0x0B;
  req.recovery = false;
  std::vector<std::byte> chunk(4, std::byte{0xEE});
  req.chunks = {chunk};
  rpc::Writer body;
  req.Encode(body);
  auto frame = rpc::Frame(rpc::Opcode::kProduce, body);
  EXPECT_EQ(Hex(frame),
            // opcode=1 | producer=0x0a | stream=0x0b | recovery=0 |
            // nchunks=1 | len=4 | payload
            "0100" "0a000000" "0b00000000000000" "00" "01000000"
            "04000000" "eeeeeeee");
}

// Golden bytes of one instance of every message type (message_samples.h),
// captured before the codec was derived from field lists: any change to a
// field's order, width or encoding fails here.
TEST(WireGoldenTest, EveryMessageBodyLayout) {
  const std::map<std::string, std::string> golden = {
      {"ProduceRequest",
       "110000003322000000000000010200000003000000a0a1a202000000a3a4"},
      {"ProduceResponse",
       "070500000006000000"},
      {"ConsumeRequest",
       "4400000000000000665500000200000001000000020000000300000000000000"
       "0400000005000000060000000700000000000000080000009988770000000000"
       "ab000000"},
      {"ConsumeResponse",
       "0802000000210000002200000023000000000000000100012400000002000000"
       "02000000a5a601000000a7310000002200000023000000000000000001012400"
       "000000000000"},
      {"CreateStreamRequest",
       "060000006f726465727303000000020000000300000001"},
      {"CreateStreamResponse",
       "0308070605040302010300000002000000030000000101030000000700000008"
       "00000009000000"},
      {"GetStreamInfoRequest",
       "0100000071"},
      {"GetStreamInfoResponse",
       "0008070605040302010300000002000000030000000101030000000700000008"
       "00000009000000"},
      {"SealStreamRequest",
       "030000006f626a"},
      {"SealStreamResponse",
       "02"},
      {"ReplicateRequest",
       "4100000042000000430000000000000044000000000000004500000046000000"
       "0106000000a8a9aaabacad"},
      {"ReplicateRequest.payload_parts",
       "4100000042000000430000000000000044000000000000004500000046000000"
       "0106000000a8a9aaabacad"},
      {"ReplicateResponse",
       "0b"},
      {"ListRecoverySegmentsRequest",
       "51000000"},
      {"ListRecoverySegmentsResponse",
       "0002000000520000005300000054000000000000005500000001560000005700"
       "000058000000000000005900000000"},
      {"ReadRecoverySegmentBatchRequest",
       "6100000002000000620000006300000000000000640000006500000000000000"},
      {"ReadRecoverySegmentBatchResponse",
       "0002000000006600000067000000000000006800000003000000aeafb0026900"
       "00006a000000000000000000000000000000"},
      {"EvacuateBackupSegmentsRequest",
       "71000000"},
      {"EvacuateBackupSegmentsResponse",
       "0972000000"},
      {"AllocateProducerRequest",
       "81000000"},
      {"AllocateProducerResponse",
       "008200000083000000"},
      {"CommitOffsetsRequest",
       "9100000000000000920000009300000000000000940000000200000095000000"
       "96000000970000000000000098000000990000009a00000000000000"},
      {"CommitOffsetsResponse",
       "0d9b000000"},
      {"FetchOffsetsRequest",
       "a100000000000000a200000002000000a3000000a4000000"},
      {"FetchOffsetsResponse",
       "0002000000a500000001a6000000a700000000000000a8000000000000000000"
       "00000000000000"},
  };
  auto samples = testing::AllMessageSamples();
  EXPECT_EQ(samples.size(), golden.size());
  for (const auto& sample : samples) {
    auto it = golden.find(sample.name);
    ASSERT_NE(it, golden.end()) << sample.name << ": " << Hex(sample.body);
    EXPECT_EQ(Hex(sample.body), it->second) << sample.name;
    // Decoding and re-encoding reproduces the bytes: the decoder reads the
    // fields in the encoder's order.
    auto again = sample.round_trip(sample.body);
    ASSERT_TRUE(again.ok()) << sample.name;
    EXPECT_EQ(Hex(*again), it->second) << sample.name;
  }
}

}  // namespace
}  // namespace kera
