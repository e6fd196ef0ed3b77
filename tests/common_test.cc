// Unit tests for src/common: status/result, CRC32C, buffer, queues,
// histogram, RNG, mapped buffer.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/mapped_buffer.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"

namespace kera {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(StatusCode::kNoSpace, "segment full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNoSpace);
  EXPECT_EQ(s.ToString(), "NoSpace: segment full");
}

TEST(StatusTest, CodeNamesAreDistinct) {
  EXPECT_NE(StatusCodeName(StatusCode::kCorruption),
            StatusCodeName(StatusCode::kDuplicate));
  EXPECT_EQ(StatusCodeName(StatusCode::kNotLeader), "NotLeader");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status(StatusCode::kNotFound, "nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// CRC32C known-answer tests (RFC 3720 vectors).
TEST(Crc32cTest, KnownVectors) {
  // 32 bytes of zeros -> 0x8A9136AA
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  // 32 bytes of 0xFF -> 0x62A8AB43
  std::vector<std::byte> ones(32, std::byte{0xFF});
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  // ascending 0..31 -> 0x46DD794E
  std::vector<std::byte> asc(32);
  for (int i = 0; i < 32; ++i) asc[i] = std::byte(i);
  EXPECT_EQ(Crc32c(asc), 0x46DD794Eu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  std::vector<std::byte> data(1000);
  SplitMix64 rng(7);
  for (auto& b : data) b = std::byte(rng.Next());
  uint32_t whole = Crc32c(data);
  for (size_t split : {1ul, 7ul, 64ul, 999ul}) {
    uint32_t part = Crc32c(std::span(data).first(split));
    part = Crc32c(std::span(data).subspan(split), part);
    EXPECT_EQ(part, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, EmptyInputWithSeedIsIdentity) {
  EXPECT_EQ(Crc32c(std::span<const std::byte>{}, 12345u), 12345u);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::vector<std::byte> data(256, std::byte{0x5A});
  uint32_t base = Crc32c(data);
  data[100] ^= std::byte{0x01};
  EXPECT_NE(Crc32c(data), base);
}

// RFC 3720 B.4 golden vectors asserted against BOTH the hardware and
// software paths (Crc32cHardware falls back to software when no
// accelerated path exists, in which case the two assertions coincide).
TEST(Crc32cTest, GoldenVectorsOnBothPaths) {
  struct Case {
    std::vector<std::byte> data;
    uint32_t want;
  };
  std::vector<Case> cases;
  cases.push_back({std::vector<std::byte>(32, std::byte{0}), 0x8A9136AAu});
  cases.push_back({std::vector<std::byte>(32, std::byte{0xFF}), 0x62A8AB43u});
  Case asc{std::vector<std::byte>(32), 0x46DD794Eu};
  Case desc{std::vector<std::byte>(32), 0x113FDB5Cu};
  for (int i = 0; i < 32; ++i) {
    asc.data[i] = std::byte(i);
    desc.data[i] = std::byte(31 - i);
  }
  cases.push_back(asc);
  cases.push_back(desc);
  for (const Case& c : cases) {
    EXPECT_EQ(Crc32cSoftware(c.data), c.want);
    EXPECT_EQ(Crc32cHardware(c.data), c.want);
    EXPECT_EQ(Crc32c(c.data), c.want);
  }
}

// The dispatched, software, and hardware paths must agree on arbitrary
// inputs — including lengths that exercise the 3-way folded stream (>3 KiB)
// and misaligned heads/tails — with arbitrary seeds.
TEST(Crc32cTest, HardwareMatchesSoftwareOnRandomInputs) {
  SplitMix64 rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = size_t(rng.Next() % 8000);
    std::vector<std::byte> data(n);
    for (auto& b : data) b = std::byte(rng.Next());
    uint32_t seed = uint32_t(rng.Next());
    uint32_t sw = Crc32cSoftware(data, seed);
    EXPECT_EQ(Crc32cHardware(data, seed), sw) << "n=" << n;
    EXPECT_EQ(Crc32c(data, seed), sw) << "n=" << n;
  }
}

// Combining the CRCs of two halves must equal the flat CRC of the whole,
// for random splits (including empty sides and sizes below the hardware
// shift threshold).
TEST(Crc32cTest, CombineMatchesFlatOverRandomSplits) {
  SplitMix64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = size_t(rng.Next() % 4096);
    std::vector<std::byte> data(n);
    for (auto& b : data) b = std::byte(rng.Next());
    size_t cut = n == 0 ? 0 : size_t(rng.Next() % (n + 1));
    uint32_t crc_a = Crc32c(std::span(data).first(cut));
    uint32_t crc_b = Crc32c(std::span(data).subspan(cut));
    EXPECT_EQ(Crc32cCombine(crc_a, crc_b, n - cut), Crc32c(data))
        << "n=" << n << " cut=" << cut;
  }
}

// Combine must also chain: stitching k pieces left to right equals the
// flat CRC (this is exactly how chunk seal assembles the payload checksum
// from per-record CRCs).
TEST(Crc32cTest, CombineChainsAcrossManyPieces) {
  SplitMix64 rng(17);
  std::vector<std::byte> data(2048);
  for (auto& b : data) b = std::byte(rng.Next());
  for (size_t pieces : {2ul, 3ul, 7ul, 32ul}) {
    uint32_t crc = 0;
    size_t off = 0;
    for (size_t i = 0; i < pieces; ++i) {
      size_t len = (i + 1 == pieces) ? data.size() - off
                                     : (data.size() / pieces);
      uint32_t piece = Crc32c(std::span(data).subspan(off, len));
      crc = Crc32cCombine(crc, piece, len);
      off += len;
    }
    EXPECT_EQ(crc, Crc32c(data)) << "pieces=" << pieces;
  }
}

TEST(BufferTest, AppendAndView) {
  Buffer buf(64);
  EXPECT_EQ(buf.capacity(), 64u);
  EXPECT_TRUE(buf.empty());
  std::byte data[10];
  std::memset(data, 0xAB, sizeof(data));
  EXPECT_EQ(buf.Append(data), 0u);
  EXPECT_EQ(buf.Append(data), 10u);
  EXPECT_EQ(buf.size(), 20u);
  EXPECT_EQ(buf.remaining(), 44u);
  EXPECT_EQ(buf.view()[15], std::byte{0xAB});
}

TEST(BufferTest, AppendBeyondCapacityFails) {
  Buffer buf(16);
  std::byte data[17];
  EXPECT_EQ(buf.Append(data), SIZE_MAX);
  EXPECT_EQ(buf.size(), 0u);  // unchanged
}

TEST(BufferTest, ReserveAndTruncate) {
  Buffer buf(32);
  EXPECT_EQ(buf.Reserve(8), 0u);
  EXPECT_EQ(buf.Reserve(8), 8u);
  buf.Truncate(8);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.Reserve(100), SIZE_MAX);
}

TEST(BufferTest, MoveTransfersOwnership) {
  Buffer a(32);
  std::byte data[4] = {};
  (void)a.Append(data);
  Buffer b = std::move(a);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a.capacity(), 0u);  // NOLINT: moved-from inspection intended
}

TEST(BlockingQueueTest, PushPop) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  q.Shutdown();
  EXPECT_FALSE(q.Pop().has_value());  // drained
}

TEST(BlockingQueueTest, ShutdownDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Shutdown();
  EXPECT_EQ(q.Pop().value(), 7);
  EXPECT_FALSE(q.Pop().has_value());
  q.Push(8);  // dropped after shutdown
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BlockingPopWakesOnPush) {
  BlockingQueue<int> q;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Push(5);
  });
  EXPECT_EQ(q.Pop().value(), 5);
  t.join();
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<SpinLock> g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        ++counter;
        counter += 2;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4u * 10000u * 3u);
}

TEST(CounterTest, CopyIsASnapshot) {
  Counter live;
  live += 5;
  Counter snapshot = live;
  ++live;
  EXPECT_EQ(snapshot, 5u);
  EXPECT_EQ(live, 6u);
  snapshot = live;
  live += 10;
  EXPECT_EQ(snapshot, 6u);
  EXPECT_EQ(live, 16u);
}

TEST(CounterTest, StatsStructCopiesAsSnapshot) {
  struct Stats {
    Counter requests;
    Counter bytes;
    uint64_t derived = 0;
  };
  Stats live;
  ++live.requests;
  live.bytes += 100;
  Stats snapshot = live;
  snapshot.derived = 7;
  ++live.requests;
  live.bytes += 50;
  EXPECT_EQ(snapshot.requests, 1u);
  EXPECT_EQ(snapshot.bytes, 100u);
  EXPECT_EQ(live.requests, 2u);
  EXPECT_EQ(live.bytes, 150u);
  EXPECT_EQ(live.derived, 0u);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  // Bucketed quantiles have ~25% resolution.
  EXPECT_GE(h.Quantile(0.5), 40u);
  EXPECT_LE(h.Quantile(0.5), 80u);
  EXPECT_GE(h.Quantile(1.0), 95u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(uint64_t(1) << 45);  // beyond kMaxPow: clamps to last bucket
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.Quantile(0.5), 0u);
}

TEST(RngTest, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Xoshiro256 rng(3);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.NextExponential(5.0);
  double mean = sum / kSamples;
  EXPECT_NEAR(mean, 5.0, 0.15);
}

// A large capacity is a mapping of its own: page-aligned, and resident
// only in the pages written, however much was reserved.
TEST(MappedBufferTest, LargeCapacityIsResidentOnlyWhereWritten) {
  const size_t page = size_t(sysconf(_SC_PAGESIZE));
  const size_t reserved = size_t(16) << 20;
  const std::vector<std::byte> written(size_t(1) << 20, std::byte{0x5a});
  MappedBuffer buf;
  buf.Reserve(reserved);
  ASSERT_EQ(buf.capacity(), reserved);
  ASSERT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % page, 0u);
  buf.Append(written);
  std::vector<unsigned char> pages(reserved / page);
  ASSERT_EQ(mincore(buf.data(), reserved, pages.data()), 0);
  size_t resident = 0;
  for (unsigned char p : pages) resident += p & 1;
  EXPECT_EQ(resident, written.size() / page);
}

// Appends grow the buffer from the heap into a mapping and on through
// mremap without losing a byte; Resize truncates, Release frees, and a
// move hands the storage over.
TEST(MappedBufferTest, GrowthTruncationAndMoveKeepTheBytes) {
  MappedBuffer buf;
  std::vector<std::byte> expected;
  for (size_t i = 0; expected.size() < 8 * MappedBuffer::kMapBytes; ++i) {
    std::vector<std::byte> piece(1000 + i * 37);
    for (size_t j = 0; j < piece.size(); ++j) {
      piece[j] = std::byte((i * 31 + j) & 0xff);
    }
    buf.Append(piece);
    expected.insert(expected.end(), piece.begin(), piece.end());
    ASSERT_EQ(buf.size(), expected.size());
    ASSERT_EQ(std::memcmp(buf.data(), expected.data(), buf.size()), 0);
  }
  EXPECT_GE(buf.capacity(), MappedBuffer::kMapBytes);
  buf.Resize(5000);
  EXPECT_EQ(buf.size(), 5000u);
  EXPECT_EQ(std::memcmp(buf.data(), expected.data(), 5000), 0);
  MappedBuffer moved = std::move(buf);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(moved.size(), 5000u);
  EXPECT_EQ(std::memcmp(moved.data(), expected.data(), 5000), 0);
  moved.Release();
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.capacity(), 0u);
}

}  // namespace
}  // namespace kera
