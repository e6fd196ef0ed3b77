// Randomized robustness tests of the wire formats: single-byte
// corruptions and truncations of records and chunks must never be
// silently accepted — they either fail to parse or fail checksum
// verification. Exercises the broker's and backup's first line of
// defence.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "message_samples.h"
#include "rpc/messages.h"
#include "wire/chunk.h"
#include "wire/record.h"

namespace kera {
namespace {

std::vector<std::byte> BuildChunk(uint64_t seed, size_t chunk_size) {
  Xoshiro256 rng(seed);
  ChunkBuilder b(chunk_size);
  b.Start(/*stream=*/rng.Next() % 100 + 1, /*streamlet=*/3, /*producer=*/7);
  do {
    std::vector<std::byte> value(rng.NextBounded(200) + 1);
    for (auto& byte : value) byte = std::byte(rng.Next());
    RecordOptions opts;
    if (rng.NextBounded(2)) opts.version = rng.Next();
    if (rng.NextBounded(2)) opts.timestamp = rng.Next();
    if (!b.AppendRecord({}, value, opts)) break;
  } while (rng.NextBounded(3) != 0);
  auto bytes = b.Seal(rng.Next());
  return {bytes.begin(), bytes.end()};
}

/// A chunk is "accepted" if it parses, its payload checksum matches, and
/// every record parses with a valid checksum.
bool ChunkFullyAccepted(std::span<const std::byte> bytes) {
  auto view = ChunkView::Parse(bytes);
  if (!view.ok()) return false;
  if (view->total_size() != bytes.size()) return false;
  if (!view->VerifyChecksum()) return false;
  uint32_t records = 0;
  for (auto it = view->records(); !it.Done(); it.Next()) {
    if (!it.record().VerifyChecksum()) return false;
    ++records;
  }
  return records == view->record_count();
}

TEST(WireFuzzTest, EveryPayloadByteFlipIsDetected) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto chunk = BuildChunk(seed, 2048);
    ASSERT_TRUE(ChunkFullyAccepted(chunk));
    // Flip every byte of the payload (records), one at a time, each bit.
    for (size_t pos = kChunkHeaderSize; pos < chunk.size(); ++pos) {
      for (int bit = 0; bit < 8; bit += 3) {
        auto corrupted = chunk;
        corrupted[pos] ^= std::byte(1 << bit);
        EXPECT_FALSE(ChunkFullyAccepted(corrupted))
            << "undetected flip at " << pos << " bit " << bit;
      }
    }
  }
}

TEST(WireFuzzTest, PayloadChecksumFieldFlipIsDetected) {
  auto chunk = BuildChunk(11, 1024);
  for (size_t pos = chunk_offsets::kChecksum;
       pos < chunk_offsets::kChecksum + 4; ++pos) {
    auto corrupted = chunk;
    corrupted[pos] ^= std::byte{0xFF};
    EXPECT_FALSE(ChunkFullyAccepted(corrupted));
  }
}

TEST(WireFuzzTest, LengthFieldCorruptionNeverCrashes) {
  auto chunk = BuildChunk(12, 1024);
  Xoshiro256 rng(99);
  // Randomize the payload_length field; Parse must fail or the resulting
  // view must fail validation — never read out of bounds (ASAN-checked in
  // sanitizer builds, logic-checked here).
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = chunk;
    uint32_t bogus = uint32_t(rng.Next());
    std::memcpy(corrupted.data() + chunk_offsets::kPayloadLength, &bogus, 4);
    (void)ChunkFullyAccepted(corrupted);  // must not crash
  }
  SUCCEED();
}

TEST(WireFuzzTest, TruncationsAreRejected) {
  auto chunk = BuildChunk(13, 2048);
  for (size_t keep = 0; keep < chunk.size(); keep += 7) {
    EXPECT_FALSE(ChunkFullyAccepted(std::span(chunk).first(keep)))
        << "accepted truncation to " << keep;
  }
}

TEST(WireFuzzTest, RecordHeaderCorruptionDetected) {
  Xoshiro256 rng(21);
  std::vector<std::byte> buf(512);
  std::vector<std::byte> value(100);
  for (auto& b : value) b = std::byte(rng.Next());
  RecordOptions opts;
  opts.version = 5;
  opts.timestamp = 1234;
  std::span<const std::byte> key = value;  // reuse bytes as a key
  std::span<const std::byte> keys[] = {key.first(10)};
  size_t n = WriteRecord(buf, keys, value, opts);

  for (size_t pos = 4; pos < n; ++pos) {  // skip the checksum field itself
    auto corrupted = buf;
    corrupted[pos] ^= std::byte{0x01};
    auto view = RecordView::Parse(std::span(corrupted).first(n));
    if (view.ok()) {
      EXPECT_FALSE(view->VerifyChecksum()) << "undetected flip at " << pos;
    }
  }
}

TEST(WireFuzzTest, RandomBytesNeverParseAsValidChunks) {
  Xoshiro256 rng(31);
  int accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::byte> garbage(kChunkHeaderSize + rng.NextBounded(512));
    for (auto& b : garbage) b = std::byte(rng.Next());
    if (ChunkFullyAccepted(garbage)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

// ------------------------------------------ exactly-once epoch tail

std::vector<std::byte> BuildEpochChunk(uint64_t seed, size_t chunk_size,
                                       uint32_t epoch) {
  Xoshiro256 rng(seed);
  ChunkBuilder b(chunk_size);
  b.Start(/*stream=*/rng.Next() % 100 + 1, /*streamlet=*/3, /*producer=*/7,
          epoch);
  std::vector<std::byte> value(rng.NextBounded(200) + 1);
  for (auto& byte : value) byte = std::byte(rng.Next());
  EXPECT_TRUE(b.AppendValue(value));
  auto bytes = b.Seal(rng.Next());
  return {bytes.begin(), bytes.end()};
}

TEST(WireFuzzTest, EpochTailRoundTripsAndClassicDefaultsToZero) {
  auto with = BuildEpochChunk(41, 1024, 9);
  ASSERT_TRUE(ChunkFullyAccepted(with));
  auto view = ChunkView::Parse(with);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->header_size(), kChunkHeaderSizeWithEpoch);
  EXPECT_NE(view->flags() & kChunkFlagHasEpoch, 0u);
  EXPECT_EQ(view->producer_epoch(), 9u);

  // Epoch 0 keeps the classic 56-byte format byte for byte, and a classic
  // chunk reads back as epoch 0 (the "no epoch" sentinel).
  auto classic = BuildEpochChunk(41, 1024, 0);
  ASSERT_TRUE(ChunkFullyAccepted(classic));
  auto cview = ChunkView::Parse(classic);
  ASSERT_TRUE(cview.ok());
  EXPECT_EQ(cview->header_size(), kChunkHeaderSize);
  EXPECT_EQ(cview->flags() & kChunkFlagHasEpoch, 0u);
  EXPECT_EQ(cview->producer_epoch(), 0u);
}

TEST(WireFuzzTest, EpochChunkTruncationSweepAcceptsOnlyFullLength) {
  // Every byte-prefix of old- and new-format chunks: the full frame is
  // the ONLY accepted length on either side of the format boundary.
  for (uint32_t epoch : {0u, 17u}) {
    auto chunk = BuildEpochChunk(43, 1024, epoch);
    for (size_t keep = 0; keep <= chunk.size(); ++keep) {
      bool accepted = ChunkFullyAccepted(std::span(chunk).first(keep));
      EXPECT_EQ(accepted, keep == chunk.size())
          << "epoch " << epoch << " truncated to " << keep;
    }
  }
}

TEST(WireFuzzTest, EpochFlagFlipIsRejected) {
  // Flipping kChunkFlagHasEpoch shifts where the payload starts (56 vs
  // 64), so a flipped frame must never be accepted in either direction.
  auto classic = BuildEpochChunk(47, 1024, 0);
  uint32_t flags;
  std::memcpy(&flags, classic.data() + chunk_offsets::kFlags, 4);
  flags |= kChunkFlagHasEpoch;
  std::memcpy(classic.data() + chunk_offsets::kFlags, &flags, 4);
  EXPECT_FALSE(ChunkFullyAccepted(classic));

  auto with = BuildEpochChunk(47, 1024, 23);
  std::memcpy(&flags, with.data() + chunk_offsets::kFlags, 4);
  flags &= ~kChunkFlagHasEpoch;
  std::memcpy(with.data() + chunk_offsets::kFlags, &flags, 4);
  EXPECT_FALSE(ChunkFullyAccepted(with));
}

TEST(WireFuzzTest, EpochChunkPayloadFlipsStillDetected) {
  // The payload CRC must cover the payload at its SHIFTED position: every
  // payload byte flip of a 64-byte-header chunk is still caught.
  auto chunk = BuildEpochChunk(53, 2048, 5);
  ASSERT_TRUE(ChunkFullyAccepted(chunk));
  for (size_t pos = kChunkHeaderSizeWithEpoch; pos < chunk.size(); ++pos) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto corrupted = chunk;
      corrupted[pos] ^= std::byte(1 << bit);
      EXPECT_FALSE(ChunkFullyAccepted(corrupted))
          << "undetected flip at " << pos << " bit " << bit;
    }
  }
}

TEST(RpcFuzzTest, TruncatedMessagesRejectedCleanly) {
  // Encode a representative message of every type, then feed every prefix
  // to the decoder: all must fail without crashing. The one exception is
  // ConsumeRequest's pre-long-poll length (its 12-byte tail omitted),
  // which ConsumeTailTruncationsDecodeOrRejectOnly pins below.
  rpc::ProduceRequest preq;
  preq.producer = 1;
  preq.stream = 2;
  std::vector<std::byte> chunk_bytes(80, std::byte{0x42});
  preq.chunks = {chunk_bytes};
  auto samples = testing::AllMessageSamples();
  samples.push_back(testing::Sample("ProduceRequest.80B", preq));
  for (const auto& sample : samples) {
    ASSERT_TRUE(sample.round_trip(sample.body).ok()) << sample.name;
    for (size_t keep = 0; keep < sample.body.size(); ++keep) {
      if (sample.name == "ConsumeRequest" && keep == sample.body.size() - 12) {
        continue;
      }
      auto decoded = sample.round_trip(std::span(sample.body).first(keep));
      EXPECT_FALSE(decoded.ok())
          << sample.name << " decoded from prefix " << keep;
    }
  }
}

// ----- ConsumeRequest tail fields (long-poll max_wait_us / min_bytes) --
//
// The long-poll fields ride at the end of the frame behind an AtEnd()
// version guard: old senders simply omit them. That guard is a classic
// fuzz target — every split point around it must decode-or-reject
// cleanly, and the only prefixes that may decode are the two genuine
// format versions.

rpc::ConsumeRequest SampleConsumeRequest() {
  rpc::ConsumeRequest req;
  req.stream = 9;
  req.max_bytes = 1 << 20;
  req.entries = {{.streamlet = 1, .group = 2, .start_chunk = 3,
                  .max_chunks = 4},
                 {.streamlet = 5, .group = 6, .start_chunk = 7,
                  .max_chunks = 8}};
  req.max_wait_us = 123456789;
  req.min_bytes = 4096;
  return req;
}

TEST(RpcFuzzTest, ConsumeTailFieldsRoundTripAndOldFramesDefault) {
  auto req = SampleConsumeRequest();
  rpc::Writer w;
  req.Encode(w);
  std::vector<std::byte> body(w.View().begin(), w.View().end());

  rpc::Reader r(body);
  auto decoded = rpc::ConsumeRequest::Decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->max_wait_us, req.max_wait_us);
  EXPECT_EQ(decoded->min_bytes, req.min_bytes);
  ASSERT_EQ(decoded->entries.size(), 2u);

  // A pre-long-poll sender's frame is exactly this one minus the 12-byte
  // tail; it must decode with the "return immediately" defaults.
  rpc::Reader old_r{std::span(body).first(body.size() - 12)};
  auto old_decoded = rpc::ConsumeRequest::Decode(old_r);
  ASSERT_TRUE(old_decoded.ok());
  EXPECT_EQ(old_decoded->max_wait_us, 0u);
  EXPECT_EQ(old_decoded->min_bytes, 0u);
  EXPECT_EQ(old_decoded->entries.size(), 2u);
}

TEST(RpcFuzzTest, ConsumeTailTruncationsDecodeOrRejectOnly) {
  auto req = SampleConsumeRequest();
  rpc::Writer w;
  req.Encode(w);
  std::vector<std::byte> body(w.View().begin(), w.View().end());

  // Feed every byte-prefix to the decoder. Exactly two lengths are valid
  // frames — the old format (no tail) and the new one (full tail). Every
  // other prefix, including each of the eleven cuts inside the tail, must
  // be rejected; none may crash or read out of bounds.
  for (size_t keep = 0; keep <= body.size(); ++keep) {
    rpc::Reader r{std::span(body).first(keep)};
    auto decoded = rpc::ConsumeRequest::Decode(r);
    if (keep == body.size() || keep == body.size() - 12) {
      EXPECT_TRUE(decoded.ok()) << "valid boundary rejected at " << keep;
    } else {
      EXPECT_FALSE(decoded.ok()) << "decoded from bad prefix " << keep;
    }
  }
}

TEST(RpcFuzzTest, ConsumeTailGarbageValuesDecodeCleanly) {
  auto req = SampleConsumeRequest();
  rpc::Writer w;
  req.Encode(w);
  std::vector<std::byte> body(w.View().begin(), w.View().end());

  // Any 12 bytes in the tail are a structurally valid (wait, min_bytes)
  // pair — extreme values are the broker's problem to clamp, not the
  // decoder's to crash on. Decode must succeed and round-trip.
  Xoshiro256 rng(97);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = body;
    for (size_t i = mutated.size() - 12; i < mutated.size(); ++i) {
      mutated[i] = std::byte(rng.Next());
    }
    rpc::Reader r(mutated);
    auto decoded = rpc::ConsumeRequest::Decode(r);
    ASSERT_TRUE(decoded.ok());
    rpc::Writer rw;
    decoded->Encode(rw);
    std::vector<std::byte> reencoded(rw.View().begin(), rw.View().end());
    ASSERT_EQ(reencoded.size(), mutated.size());
    EXPECT_TRUE(std::equal(mutated.begin(), mutated.end(),
                           reencoded.begin()));
  }
}

TEST(RpcFuzzTest, RandomFramesNeverCrashDecoders) {
  // Every decoder runs on every random body; each must decode or reject
  // without reading out of bounds (ASan-checked in sanitizer builds).
  const auto samples = testing::AllMessageSamples();
  Xoshiro256 rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::byte> garbage(2 + rng.NextBounded(256));
    for (auto& b : garbage) b = std::byte(rng.Next());
    rpc::Opcode op;
    std::span<const std::byte> body;
    if (!rpc::ParseFrame(garbage, op, body).ok()) continue;
    for (const auto& sample : samples) (void)sample.round_trip(body);
  }
  SUCCEED();
}

}  // namespace
}  // namespace kera
