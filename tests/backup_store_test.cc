// Tests for the log-structured backup store (SegmentLog) and the
// Backup service's cold-restart path on top of it: round-trip and file
// rollover, the torn-write property (every record-boundary cut of the
// log recovers exactly the durable prefix), corrupt-record rejection,
// group-commit coalescing, hot-cold GC, and sticky IO errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "backup/backup.h"
#include "storage/segment_log.h"
#include "common/crc32c.h"
#include "wire/chunk.h"

namespace kera {
namespace {

namespace fs = std::filesystem;

using CopyKey = SegmentLog::CopyKey;
using RecordType = SegmentLog::RecordType;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::byte> Pattern(size_t len, uint32_t seed) {
  std::vector<std::byte> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = std::byte(uint8_t((seed * 131u + i * 7u) & 0xFF));
  }
  return out;
}

/// One scripted log record; the torn-write test replays prefixes of a
/// script into reference logs and compares against torn-scan recovery.
struct Rec {
  RecordType type = RecordType::kOpen;
  CopyKey key;
  uint64_t offset = 0;
  uint32_t chunks = 0;
  uint32_t crc = 0;
  std::vector<std::byte> payload = {};

  [[nodiscard]] uint64_t size() const {
    return SegmentLog::kRecordHeaderSize + payload.size();
  }
};

void EnqueueRec(SegmentLog& log, const Rec& r) {
  switch (r.type) {
    case RecordType::kOpen:
      log.EnqueueOpen(r.key);
      break;
    case RecordType::kAppend:
      log.EnqueueAppend(r.key, r.offset, r.payload, r.chunks, r.crc);
      break;
    case RecordType::kSeal:
      log.EnqueueSeal(r.key, r.offset, r.chunks, r.crc);
      break;
    case RecordType::kTruncate:
      log.EnqueueTruncate(r.key, r.offset, r.chunks, r.crc);
      break;
    case RecordType::kEvacuate:
      log.EnqueueEvacuate(r.key);
      break;
  }
}

/// Recovered copies sorted by key, for order-insensitive comparison.
std::vector<SegmentLog::RecoveredCopy> Snapshot(const SegmentLog& log) {
  auto copies = log.RecoveredCopies();
  std::sort(copies.begin(), copies.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return copies;
}

void ExpectSameCopies(const std::vector<SegmentLog::RecoveredCopy>& got,
                      const std::vector<SegmentLog::RecoveredCopy>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << context << " copy " << i;
    EXPECT_EQ(got[i].size, want[i].size) << context << " copy " << i;
    EXPECT_EQ(got[i].chunk_count, want[i].chunk_count)
        << context << " copy " << i;
    EXPECT_EQ(got[i].running_checksum, want[i].running_checksum)
        << context << " copy " << i;
    EXPECT_EQ(got[i].sealed, want[i].sealed) << context << " copy " << i;
  }
}

TEST(SegmentLogTest, RoundTripRolloverAndRestart) {
  std::string dir = FreshDir("kera_seglog_roundtrip");
  SegmentLogOptions opts;
  opts.log_file_bytes = 8 << 10;  // force rollover with ~1 KiB payloads
  opts.gc_live_ratio = 0;

  const int kCopies = 4;
  const int kAppendsPerCopy = 3;
  const size_t kLen = 1024;
  std::vector<std::vector<std::byte>> expect(kCopies);
  {
    SegmentLog log(dir, opts);
    for (int c = 0; c < kCopies; ++c) {
      CopyKey key{NodeId(1), VlogId(0), VirtualSegmentId(100 + c)};
      log.EnqueueOpen(key);
      uint64_t off = 0;
      for (int a = 0; a < kAppendsPerCopy; ++a) {
        auto payload = Pattern(kLen, uint32_t(c * 16 + a));
        log.EnqueueAppend(key, off, payload, 1, uint32_t(c * 100 + a));
        expect[c].insert(expect[c].end(), payload.begin(), payload.end());
        off += payload.size();
      }
      log.EnqueueSeal(key, off, kAppendsPerCopy, uint32_t(c * 100 + 99));
    }
    ASSERT_TRUE(log.Sync().ok());

    auto stats = log.GetStats();
    EXPECT_GT(stats.log_files, 1u) << "expected rollover across files";
    EXPECT_EQ(stats.records_flushed,
              uint64_t(kCopies * (kAppendsPerCopy + 2)));
    EXPECT_EQ(stats.seals_durable, uint64_t(kCopies));

    for (int c = 0; c < kCopies; ++c) {
      CopyKey key{NodeId(1), VlogId(0), VirtualSegmentId(100 + c)};
      std::vector<std::byte> out;
      ASSERT_TRUE(log.ReadSegment(key, out).ok());
      EXPECT_EQ(out, expect[c]) << "copy " << c;
    }
  }

  // Cold restart: the copy map comes back from the log alone, and every
  // payload still reads byte-exact.
  SegmentLog log(dir, opts);
  ASSERT_TRUE(log.status().ok());
  auto copies = Snapshot(log);
  ASSERT_EQ(copies.size(), size_t(kCopies));
  for (int c = 0; c < kCopies; ++c) {
    EXPECT_EQ(copies[c].key.vseg, VirtualSegmentId(100 + c));
    EXPECT_EQ(copies[c].size, uint64_t(kAppendsPerCopy * kLen));
    EXPECT_EQ(copies[c].chunk_count, uint32_t(kAppendsPerCopy));
    EXPECT_EQ(copies[c].running_checksum, uint32_t(c * 100 + 99));
    EXPECT_TRUE(copies[c].sealed);
    std::vector<std::byte> out;
    ASSERT_TRUE(log.ReadSegment(copies[c].key, out).ok());
    EXPECT_EQ(out, expect[c]) << "copy " << c << " after restart";
  }
  EXPECT_EQ(log.GetStats().restart_torn_records, 0u);
  fs::remove_all(dir);
}

/// The script exercises every record type across three copies.
std::vector<Rec> TornWriteScript() {
  CopyKey a{1, 0, 100}, b{1, 1, 200}, c{2, 0, 300};
  std::vector<Rec> script;
  script.push_back({RecordType::kOpen, a});
  script.push_back({RecordType::kAppend, a, 0, 2, 11, Pattern(300, 1)});
  script.push_back({RecordType::kAppend, a, 300, 1, 12, Pattern(111, 2)});
  script.push_back({RecordType::kOpen, b});
  script.push_back({RecordType::kAppend, b, 0, 3, 21, Pattern(222, 3)});
  script.push_back({RecordType::kSeal, a, 411, 3, 12});
  script.push_back({RecordType::kTruncate, b, 100, 1, 22});
  script.push_back({RecordType::kOpen, c});
  script.push_back({RecordType::kAppend, c, 0, 1, 31, Pattern(50, 4)});
  script.push_back({RecordType::kEvacuate, b});
  script.push_back({RecordType::kSeal, c, 50, 1, 31});
  return script;
}

TEST(SegmentLogTest, TornWriteRecoversDurablePrefixAtEveryCut) {
  auto script = TornWriteScript();

  // Reference: the copy map after exactly k records, for every k.
  std::string ref_dir = FreshDir("kera_seglog_torn_ref");
  std::vector<std::vector<SegmentLog::RecoveredCopy>> ref;
  {
    SegmentLog log(ref_dir, {});
    ref.push_back(Snapshot(log));
    for (const Rec& r : script) {
      EnqueueRec(log, r);
      ASSERT_TRUE(log.Sync().ok());
      ref.push_back(Snapshot(log));
    }
  }

  // Master log: all records in one file (default 64 MiB file size), so
  // record boundaries are the cumulative record sizes.
  std::string master = FreshDir("kera_seglog_torn_master");
  {
    SegmentLog log(master, {});
    for (const Rec& r : script) EnqueueRec(log, r);
    ASSERT_TRUE(log.Sync().ok());
  }
  std::vector<uint64_t> boundary{0};
  for (const Rec& r : script) boundary.push_back(boundary.back() + r.size());
  ASSERT_EQ(SegmentLog::TotalLogBytes(master), boundary.back());

  std::string scratch = FreshDir("kera_seglog_torn_scratch");
  auto check_cut = [&](uint64_t cut, size_t want_k, bool mid_record) {
    std::string context =
        "cut=" + std::to_string(cut) + " k=" + std::to_string(want_k);
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    fs::copy(master, scratch, fs::copy_options::recursive);
    ASSERT_TRUE(SegmentLog::TruncateLogsAt(scratch, cut).ok()) << context;

    SegmentLog log(scratch, {});
    ASSERT_TRUE(log.status().ok()) << context;
    ExpectSameCopies(Snapshot(log), ref[want_k], context);
    if (mid_record) {
      EXPECT_GE(log.GetStats().restart_torn_records, 1u) << context;
    }
    // No-corruption: every recovered copy reads back in full.
    for (const auto& r : Snapshot(log)) {
      std::vector<std::byte> out;
      ASSERT_TRUE(log.ReadSegment(r.key, out).ok()) << context;
      EXPECT_EQ(out.size(), r.size) << context;
    }
  };

  for (size_t k = 0; k < boundary.size(); ++k) {
    check_cut(boundary[k], k, /*mid_record=*/false);
    // A cut a few bytes into record k tears it: recovery must land on
    // the same durable prefix as the clean cut before it.
    if (k < script.size()) check_cut(boundary[k] + 7, k, /*mid_record=*/true);
  }

  fs::remove_all(ref_dir);
  fs::remove_all(master);
  fs::remove_all(scratch);
}

TEST(SegmentLogTest, CorruptRecordEndsTheScanThere) {
  auto script = TornWriteScript();
  std::string ref_dir = FreshDir("kera_seglog_corrupt_ref");
  std::vector<std::vector<SegmentLog::RecoveredCopy>> ref;
  {
    SegmentLog log(ref_dir, {});
    ref.push_back(Snapshot(log));
    for (const Rec& r : script) {
      EnqueueRec(log, r);
      ASSERT_TRUE(log.Sync().ok());
      ref.push_back(Snapshot(log));
    }
  }
  std::string master = FreshDir("kera_seglog_corrupt_master");
  {
    SegmentLog log(master, {});
    for (const Rec& r : script) EnqueueRec(log, r);
    ASSERT_TRUE(log.Sync().ok());
  }
  std::vector<uint64_t> boundary{0};
  for (const Rec& r : script) boundary.push_back(boundary.back() + r.size());

  std::string file;
  for (const auto& e : fs::directory_iterator(master)) {
    file = e.path().string();
  }
  ASSERT_FALSE(file.empty());

  std::string scratch = FreshDir("kera_seglog_corrupt_scratch");
  auto flip_byte_and_check = [&](size_t rec_idx, uint64_t flip_at) {
    std::string context = "flip record " + std::to_string(rec_idx);
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    fs::copy(master, scratch, fs::copy_options::recursive);
    std::string target = scratch + "/" + fs::path(file).filename().string();
    FILE* f = std::fopen(target.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << context;
    std::fseek(f, long(flip_at), SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, long(flip_at), SEEK_SET);
    std::fputc(c ^ 0x5A, f);
    std::fclose(f);

    // The scan must stop at the damaged record: everything before it is
    // recovered, everything after it (unverifiable) is dropped.
    SegmentLog log(scratch, {});
    ASSERT_TRUE(log.status().ok()) << context;
    ExpectSameCopies(Snapshot(log), ref[rec_idx], context);
    EXPECT_GE(log.GetStats().restart_torn_records, 1u) << context;
  };

  // Payload corruption (a byte inside record 4's payload)...
  flip_byte_and_check(4, boundary[4] + SegmentLog::kRecordHeaderSize + 10);
  // ...and header corruption (a byte inside record 5's header).
  flip_byte_and_check(5, boundary[5] + 20);

  fs::remove_all(ref_dir);
  fs::remove_all(master);
  fs::remove_all(scratch);
}

TEST(SegmentLogTest, GroupCommitCoalescesIntoFewFsyncs) {
  std::string dir = FreshDir("kera_seglog_group");
  SegmentLogOptions opts;
  opts.flush_interval_us = 600'000'000;  // park the timer: Sync drives it
  opts.flush_batch_bytes = size_t(1) << 30;
  opts.gc_live_ratio = 0;
  SegmentLog log(dir, opts);

  const int kRecords = 32;
  CopyKey key{1, 0, 7};
  log.EnqueueOpen(key);
  uint64_t off = 0;
  for (int i = 0; i < kRecords; ++i) {
    auto payload = Pattern(4096, uint32_t(i));
    log.EnqueueAppend(key, off, payload, 1, uint32_t(i));
    off += payload.size();
  }
  ASSERT_TRUE(log.Sync().ok());

  // One wakeup drained the whole queue: one vectored write, one file
  // fsync (plus the directory fsync for the file's creation) — not one
  // fsync per record.
  auto stats = log.GetStats();
  EXPECT_EQ(stats.records_flushed, uint64_t(kRecords + 1));
  EXPECT_LE(stats.flush_groups, 2u);
  EXPECT_LE(stats.fsyncs, 4u);
  EXPECT_EQ(log.DurableTicket(), uint64_t(kRecords + 1));

  std::vector<std::byte> out;
  ASSERT_TRUE(log.ReadSegment(key, out).ok());
  EXPECT_EQ(out.size(), size_t(kRecords) * 4096);
  fs::remove_all(dir);
}

TEST(SegmentLogTest, GcReclaimsEvacuatedFilesAndKeepsSurvivors) {
  std::string dir = FreshDir("kera_seglog_gc");
  SegmentLogOptions opts;
  opts.log_file_bytes = 4 << 10;
  opts.gc_live_ratio = 0.5;

  const int kCopies = 6;
  const size_t kLen = 1500;
  std::vector<std::vector<std::byte>> payloads(kCopies);
  uint64_t bytes_before = 0;
  {
    SegmentLog log(dir, opts);
    for (int c = 0; c < kCopies; ++c) {
      CopyKey key{NodeId(1), VlogId(0), VirtualSegmentId(c)};
      log.EnqueueOpen(key);
      payloads[c] = Pattern(kLen, uint32_t(c));
      log.EnqueueAppend(key, 0, payloads[c], 1, uint32_t(c));
    }
    ASSERT_TRUE(log.Sync().ok());
    bytes_before = log.GetStats().log_bytes;

    // Evacuate most copies: their files drop below the live threshold.
    for (int c = 0; c < kCopies - 2; ++c) {
      log.EnqueueEvacuate(CopyKey{NodeId(1), VlogId(0), VirtualSegmentId(c)});
    }
    ASSERT_TRUE(log.Sync().ok());

    uint64_t reclaimed = 0;
    for (uint64_t got; (got = log.MaybeGc()) != 0;) reclaimed += got;
    auto stats = log.GetStats();
    EXPECT_GT(stats.gc_bytes_reclaimed, 0u);
    EXPECT_GE(stats.gc_bytes_reclaimed, reclaimed);
    EXPECT_GT(stats.gc_runs, 0u);
    EXPECT_LT(stats.log_bytes, bytes_before);

    // Survivors (possibly relocated to the cold file) still read exact.
    for (int c = kCopies - 2; c < kCopies; ++c) {
      CopyKey key{NodeId(1), VlogId(0), VirtualSegmentId(c)};
      std::vector<std::byte> out;
      ASSERT_TRUE(log.ReadSegment(key, out).ok()) << "copy " << c;
      EXPECT_EQ(out, payloads[c]) << "copy " << c;
    }
  }
  EXPECT_LT(SegmentLog::TotalLogBytes(dir), bytes_before);

  // Restart after GC: exactly the survivors come back.
  SegmentLog log(dir, opts);
  ASSERT_TRUE(log.status().ok());
  auto copies = Snapshot(log);
  ASSERT_EQ(copies.size(), 2u);
  for (size_t i = 0; i < copies.size(); ++i) {
    int c = kCopies - 2 + int(i);
    EXPECT_EQ(copies[i].key.vseg, VirtualSegmentId(c));
    EXPECT_EQ(copies[i].size, kLen);
    std::vector<std::byte> out;
    ASSERT_TRUE(log.ReadSegment(copies[i].key, out).ok());
    EXPECT_EQ(out, payloads[c]) << "copy " << c << " after restart";
  }
  fs::remove_all(dir);
}

TEST(SegmentLogTest, IoErrorIsStickyAndSurfacedBySync) {
  // A regular file where the store wants its directory: construction
  // fails, and the failure is sticky — Sync reports it instead of
  // pretending enqueued records became durable.
  std::string path = ::testing::TempDir() + "/kera_seglog_notadir";
  fs::remove_all(path);
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a directory", f);
    std::fclose(f);
  }
  SegmentLog log(path, {});
  EXPECT_FALSE(log.status().ok());
  auto payload = Pattern(64, 1);
  log.EnqueueAppend(CopyKey{1, 0, 1}, 0, payload, 1, 1);
  EXPECT_FALSE(log.Sync().ok());
  EXPECT_FALSE(log.status().ok());
  EXPECT_EQ(log.DurableTicket(), 0u);

  // And through the Backup facade: io_errors is visible in stats.
  Backup backup(BackupConfig{.node = 2, .storage_dir = path, .log = {}});
  EXPECT_EQ(backup.GetStats().io_errors, 1u);
  fs::remove_all(path);
}

// ---------------------------------------------------------------- Backup

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(ChunkSeq seq, std::string_view value) {
  ChunkBuilder b(1024);
  b.Start(/*stream=*/1, /*streamlet=*/0, /*producer=*/1);
  EXPECT_TRUE(b.AppendValue(AsBytes(value)));
  auto bytes = b.Seal(seq);
  return {bytes.begin(), bytes.end()};
}

uint32_t ChecksumOf(std::span<const std::byte> concatenated, uint32_t seed) {
  uint32_t crc = seed;
  std::span<const std::byte> rest = concatenated;
  while (!rest.empty()) {
    auto view = ChunkView::Parse(rest);
    uint32_t c = view->payload_checksum();
    crc = Crc32c(&c, 4, crc);
    rest = rest.subspan(view->total_size());
  }
  return crc;
}

rpc::ReplicateRequest MakeReplicate(VirtualSegmentId vseg,
                                    std::span<const std::byte> payload,
                                    uint32_t chunk_count,
                                    uint64_t start_offset, uint32_t crc_after,
                                    bool seals = false) {
  rpc::ReplicateRequest req;
  req.primary = 1;
  req.vlog = 0;
  req.vseg = vseg;
  req.start_offset = start_offset;
  req.chunk_count = chunk_count;
  req.checksum_after = crc_after;
  req.seals = seals;
  req.payload = payload;
  return req;
}

std::vector<std::byte> ReadCopy(Backup& backup, VirtualSegmentId vseg,
                                StatusCode want = StatusCode::kOk) {
  rpc::ReadRecoverySegmentBatchRequest req;
  req.crashed = 1;
  req.items = {{.vlog = 0, .vseg = vseg}};
  std::vector<std::vector<std::byte>> storage;
  auto read = backup.HandleReadBatch(req, storage).items.at(0);
  EXPECT_EQ(read.status, want);
  return {read.payload.begin(), read.payload.end()};
}

TEST(BackupStoreTest, ColdRestartRebuildsCopyMapFromLogAlone) {
  std::string dir = FreshDir("kera_backup_cold_restart");
  BackupConfig cfg{.node = 3, .storage_dir = dir, .log = {}};

  auto c1 = MakeChunk(1, "sealed-part-one");
  auto c2 = MakeChunk(2, "sealed-part-two");
  auto c3 = MakeChunk(3, "still-open");
  uint32_t crc1 = ChecksumOf(c1, 0);
  uint32_t crc2 = ChecksumOf(c2, crc1);
  uint32_t crc3 = ChecksumOf(c3, 0);

  std::vector<std::byte> sealed_bytes, open_bytes;
  {
    Backup backup(cfg);
    ASSERT_EQ(backup.HandleReplicate(MakeReplicate(0, c1, 1, 0, crc1)).status,
              StatusCode::kOk);
    ASSERT_EQ(backup
                  .HandleReplicate(MakeReplicate(0, c2, 1, c1.size(), crc2,
                                                 /*seals=*/true))
                  .status,
              StatusCode::kOk);
    ASSERT_EQ(backup.HandleReplicate(MakeReplicate(1, c3, 1, 0, crc3)).status,
              StatusCode::kOk);
    backup.WaitForFlushes();
    EXPECT_EQ(backup.GetStats().segments_flushed, 1u);
    EXPECT_EQ(backup.EvictFlushed(), 1u);
    sealed_bytes = ReadCopy(backup, 0);
    open_bytes = ReadCopy(backup, 1);
    ASSERT_EQ(sealed_bytes.size(), c1.size() + c2.size());
    ASSERT_EQ(open_bytes.size(), c3.size());
  }

  // Cold start on the same directory: no sidecar files, no handoff — the
  // log scan alone reproduces both copies, bit for bit.
  Backup backup(cfg);
  EXPECT_EQ(backup.SegmentCount(), 2u);
  auto copies = backup.DebugCopies();
  ASSERT_EQ(copies.size(), 2u);
  std::sort(copies.begin(), copies.end(),
            [](const auto& a, const auto& b) { return a.vseg < b.vseg; });
  EXPECT_TRUE(copies[0].sealed);
  EXPECT_TRUE(copies[0].evicted);  // recovered sealed copies stay on disk
  EXPECT_EQ(copies[0].size, sealed_bytes.size());
  EXPECT_EQ(copies[0].chunk_count, 2u);
  EXPECT_EQ(copies[0].running_checksum, crc2);
  EXPECT_FALSE(copies[1].sealed);
  EXPECT_FALSE(copies[1].evicted);  // unsealed copies reload into memory
  EXPECT_EQ(copies[1].size, open_bytes.size());
  EXPECT_EQ(copies[1].running_checksum, crc3);

  EXPECT_EQ(ReadCopy(backup, 0), sealed_bytes);
  EXPECT_EQ(ReadCopy(backup, 1), open_bytes);
  EXPECT_EQ(backup.GetStats().segments_flushed, 1u);
  EXPECT_EQ(backup.EvictFlushed(), 0u);  // already evicted by recovery

  // The reopened copy accepts the next batch where the old process left
  // off — recovery preserved the replication cursor (size + crc chain).
  auto c4 = MakeChunk(4, "appended-after-restart");
  uint32_t crc4 = ChecksumOf(c4, crc3);
  EXPECT_EQ(backup
                .HandleReplicate(
                    MakeReplicate(1, c4, 1, open_bytes.size(), crc4))
                .status,
            StatusCode::kOk);
  EXPECT_EQ(ReadCopy(backup, 1).size(), open_bytes.size() + c4.size());
  fs::remove_all(dir);
}

TEST(BackupStoreTest, TruncatingResealSurvivesRestart) {
  // The copy sealed at the end of a batch the primary then aborted; the
  // primary's lower seal truncates and re-seals it, and a cold restart
  // brings it back sealed at that lower length.
  std::string dir = FreshDir("kera_backup_reseal");
  BackupConfig cfg{.node = 3, .storage_dir = dir, .log = {}};
  auto c1 = MakeChunk(1, "kept");
  auto c2 = MakeChunk(2, "aborted");
  uint32_t crc1 = ChecksumOf(c1, 0);
  uint32_t crc2 = ChecksumOf(c2, crc1);
  {
    Backup backup(cfg);
    ASSERT_EQ(backup.HandleReplicate(MakeReplicate(0, c1, 1, 0, crc1)).status,
              StatusCode::kOk);
    ASSERT_EQ(backup
                  .HandleReplicate(MakeReplicate(0, c2, 1, c1.size(), crc2,
                                                 /*seals=*/true))
                  .status,
              StatusCode::kOk);
    ASSERT_EQ(backup
                  .HandleReplicate(MakeReplicate(0, {}, 0, c1.size(), crc1,
                                                 /*seals=*/true))
                  .status,
              StatusCode::kOk);
    backup.WaitForFlushes();
    EXPECT_EQ(backup.GetStats().checksum_failures, 0u);
  }
  Backup backup(cfg);
  auto copies = backup.DebugCopies();
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_TRUE(copies[0].sealed);
  EXPECT_EQ(copies[0].size, c1.size());
  EXPECT_EQ(copies[0].chunk_count, 1u);
  EXPECT_EQ(copies[0].running_checksum, crc1);
  EXPECT_EQ(ReadCopy(backup, 0), c1);
  fs::remove_all(dir);
}

TEST(BackupStoreTest, EvacuationDropsCopiesAndSurvivesRestart) {
  std::string dir = FreshDir("kera_backup_evacuate");
  BackupConfig cfg{.node = 3, .storage_dir = dir, .log = {}};

  auto c1 = MakeChunk(1, "to-be-evacuated");
  uint32_t crc1 = ChecksumOf(c1, 0);
  {
    Backup backup(cfg);
    ASSERT_EQ(backup
                  .HandleReplicate(
                      MakeReplicate(0, c1, 1, 0, crc1, /*seals=*/true))
                  .status,
              StatusCode::kOk);
    EXPECT_EQ(backup.SegmentCount(), 1u);
    EXPECT_EQ(backup.DropSegmentsForPrimary(1), 1u);
    EXPECT_EQ(backup.SegmentCount(), 0u);
    backup.WaitForFlushes();
  }
  // The evacuate record is durable: a cold restart must NOT resurrect
  // the dropped copy.
  Backup backup(cfg);
  EXPECT_EQ(backup.SegmentCount(), 0u);
  ReadCopy(backup, 0, StatusCode::kNotFound);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace kera
