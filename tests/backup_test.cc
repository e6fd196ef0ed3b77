// Unit tests for the backup service: replication application, idempotent
// retries, checksum verification, async flush, recovery reads.
#include <gtest/gtest.h>

#include <filesystem>
#include <string_view>

#include "backup/backup.h"
#include "common/crc32c.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> MakeChunk(ChunkSeq seq,
                                 std::string_view value = "backup-data") {
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

rpc::ReplicateRequest MakeReplicate(std::span<const std::byte> payload,
                                    uint32_t chunk_count,
                                    uint64_t start_offset, uint32_t crc_after,
                                    bool seals = false) {
  rpc::ReplicateRequest req;
  req.primary = 1;
  req.vlog = 0;
  req.vseg = 0;
  req.start_offset = start_offset;
  req.chunk_count = chunk_count;
  req.checksum_after = crc_after;
  req.seals = seals;
  req.payload = payload;
  return req;
}

class BackupTest : public ::testing::Test {
 protected:
  Backup backup_{BackupConfig{.node = 2, .storage_dir = "", .log = {}}};
};

TEST_F(BackupTest, AppliesBatchesInOrder) {
  auto c1 = MakeChunk(1);
  auto c2 = MakeChunk(2);
  uint32_t crc1 = ChecksumOf(c1, 0);

  auto resp = backup_.HandleReplicate(MakeReplicate(c1, 1, 0, crc1));
  EXPECT_EQ(resp.status, StatusCode::kOk);

  uint32_t crc2 = ChecksumOf(c2, crc1);
  resp = backup_.HandleReplicate(MakeReplicate(c2, 1, c1.size(), crc2));
  EXPECT_EQ(resp.status, StatusCode::kOk);

  auto stats = backup_.GetStats();
  EXPECT_EQ(stats.replicate_rpcs, 2u);
  EXPECT_EQ(stats.chunks_received, 2u);
  EXPECT_EQ(stats.bytes_received, c1.size() + c2.size());
}

TEST_F(BackupTest, DuplicateBatchIsIdempotent) {
  auto c1 = MakeChunk(1);
  uint32_t crc1 = ChecksumOf(c1, 0);
  auto req = MakeReplicate(c1, 1, 0, crc1);
  EXPECT_EQ(backup_.HandleReplicate(req).status, StatusCode::kOk);
  // Broker retry of the same batch: acked, not re-applied.
  EXPECT_EQ(backup_.HandleReplicate(req).status, StatusCode::kOk);
  EXPECT_EQ(backup_.GetStats().chunks_received, 1u);
}

TEST_F(BackupTest, OutOfOrderBatchBufferedUntilGapFills) {
  // The primary pipelines several batches per vlog; the network may
  // deliver them reordered. A batch past the contiguous prefix is
  // buffered and acked, then applied once the gap fills.
  auto c1 = MakeChunk(1);
  auto c2 = MakeChunk(2);
  uint32_t crc1 = ChecksumOf(c1, 0);
  uint32_t crc2 = ChecksumOf(c2, crc1);

  auto resp = backup_.HandleReplicate(MakeReplicate(c2, 1, c1.size(), crc2));
  EXPECT_EQ(resp.status, StatusCode::kOk);
  // Buffered, not yet part of the applied prefix.
  EXPECT_EQ(backup_.GetStats().chunks_received, 1u);

  resp = backup_.HandleReplicate(MakeReplicate(c1, 1, 0, crc1));
  EXPECT_EQ(resp.status, StatusCode::kOk);
  // The gap filled: both chunks applied, in order, checksum chain intact.
  auto list = backup_.HandleList({.crashed = 1});
  ASSERT_EQ(list.segments.size(), 1u);
  EXPECT_EQ(list.segments[0].chunk_count, 2u);
  EXPECT_EQ(backup_.GetStats().checksum_failures, 0u);
}

TEST_F(BackupTest, StaleRequeuedBatchDroppedFromBuffer) {
  // An aborted-and-requeued window suffix may resend the same range with
  // new boundaries; a buffered stale copy the applied data already covers
  // is dropped, not re-applied.
  auto c1 = MakeChunk(1);
  auto c2 = MakeChunk(2);
  uint32_t crc1 = ChecksumOf(c1, 0);
  uint32_t crc2 = ChecksumOf(c2, crc1);

  // Stale out-of-order copy of c2 arrives first and is buffered.
  EXPECT_EQ(
      backup_.HandleReplicate(MakeReplicate(c2, 1, c1.size(), crc2)).status,
      StatusCode::kOk);
  // Requeued batch covering [c1, c2) in one piece arrives and applies.
  std::vector<std::byte> both(c1.begin(), c1.end());
  both.insert(both.end(), c2.begin(), c2.end());
  EXPECT_EQ(backup_.HandleReplicate(MakeReplicate(both, 2, 0, crc2)).status,
            StatusCode::kOk);
  // The buffered copy is now stale; a further append still lines up.
  auto c3 = MakeChunk(3);
  uint32_t crc3 = ChecksumOf(c3, crc2);
  EXPECT_EQ(backup_
                .HandleReplicate(
                    MakeReplicate(c3, 1, c1.size() + c2.size(), crc3))
                .status,
            StatusCode::kOk);
  auto list = backup_.HandleList({.crashed = 1});
  ASSERT_EQ(list.segments.size(), 1u);
  EXPECT_EQ(list.segments[0].chunk_count, 3u);
  EXPECT_EQ(backup_.GetStats().checksum_failures, 0u);
}

TEST_F(BackupTest, TruncatingSealOverridesSealOfAbortedBatch) {
  // The primary shipped c2 with the seal flag and we sealed after it, but
  // another backup failed: the primary aborted the batch, moved c2 to a
  // fresh segment and sealed this one after c1. Its last seal is final,
  // so the copy truncates to c1 and re-seals without a checksum failure.
  auto c1 = MakeChunk(1);
  auto c2 = MakeChunk(2);
  uint32_t crc1 = ChecksumOf(c1, 0);
  uint32_t crc2 = ChecksumOf(c2, crc1);
  ASSERT_EQ(backup_.HandleReplicate(MakeReplicate(c1, 1, 0, crc1)).status,
            StatusCode::kOk);
  ASSERT_EQ(backup_
                .HandleReplicate(MakeReplicate(c2, 1, c1.size(), crc2,
                                               /*seals=*/true))
                .status,
            StatusCode::kOk);
  EXPECT_EQ(backup_
                .HandleReplicate(MakeReplicate({}, 0, c1.size(), crc1,
                                               /*seals=*/true))
                .status,
            StatusCode::kOk);
  rpc::ListRecoverySegmentsRequest list_req;
  list_req.crashed = 1;
  auto list = backup_.HandleList(list_req);
  ASSERT_EQ(list.segments.size(), 1u);
  EXPECT_EQ(list.segments[0].chunk_count, 1u);
  EXPECT_TRUE(list.segments[0].sealed);
  EXPECT_EQ(backup_.GetStats().checksum_failures, 0u);
  // A late duplicate of the aborted sealing batch cannot extend the copy.
  EXPECT_EQ(backup_
                .HandleReplicate(MakeReplicate(c2, 1, c1.size(), crc2,
                                               /*seals=*/true))
                .status,
            StatusCode::kOutOfRange);
}

TEST_F(BackupTest, CorruptChunkRejectedAtomically) {
  auto c1 = MakeChunk(1);
  auto good_crc = ChecksumOf(c1, 0);
  auto corrupted = c1;
  corrupted[kChunkHeaderSize + 2] ^= std::byte{0x01};
  auto resp = backup_.HandleReplicate(MakeReplicate(corrupted, 1, 0,
                                                    good_crc));
  EXPECT_EQ(resp.status, StatusCode::kCorruption);
  EXPECT_EQ(backup_.GetStats().chunks_received, 0u);
  EXPECT_EQ(backup_.GetStats().checksum_failures, 1u);
  // The segment state is untouched: the original batch still applies.
  EXPECT_EQ(backup_.HandleReplicate(MakeReplicate(c1, 1, 0, good_crc)).status,
            StatusCode::kOk);
}

TEST_F(BackupTest, VirtualSegmentChecksumMismatchRejected) {
  auto c1 = MakeChunk(1);
  auto resp = backup_.HandleReplicate(MakeReplicate(c1, 1, 0, 0xBAD));
  EXPECT_EQ(resp.status, StatusCode::kCorruption);
}

TEST_F(BackupTest, WrongChunkCountRejected) {
  auto c1 = MakeChunk(1);
  uint32_t crc1 = ChecksumOf(c1, 0);
  auto resp = backup_.HandleReplicate(MakeReplicate(c1, 3, 0, crc1));
  EXPECT_EQ(resp.status, StatusCode::kCorruption);
}

TEST_F(BackupTest, ListAndReadRecoverySegments) {
  auto c1 = MakeChunk(1);
  uint32_t crc1 = ChecksumOf(c1, 0);
  ASSERT_EQ(backup_.HandleReplicate(MakeReplicate(c1, 1, 0, crc1,
                                                  /*seals=*/true)).status,
            StatusCode::kOk);

  rpc::ListRecoverySegmentsRequest list_req;
  list_req.crashed = 1;
  auto list = backup_.HandleList(list_req);
  ASSERT_EQ(list.segments.size(), 1u);
  EXPECT_EQ(list.segments[0].chunk_count, 1u);
  EXPECT_TRUE(list.segments[0].sealed);

  // Unknown primary: nothing.
  list_req.crashed = 42;
  EXPECT_TRUE(backup_.HandleList(list_req).segments.empty());

  rpc::ReadRecoverySegmentBatchRequest read_req;
  read_req.crashed = 1;
  read_req.items = {{.vlog = 0, .vseg = 0}};
  std::vector<std::vector<std::byte>> storage;
  auto read = backup_.HandleReadBatch(read_req, storage).items.at(0);
  EXPECT_EQ(read.status, StatusCode::kOk);
  EXPECT_EQ(read.payload.size(), c1.size());
  auto view = ChunkView::Parse(read.payload);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->VerifyChecksum());
}

TEST_F(BackupTest, ReadUnknownSegmentNotFound) {
  rpc::ReadRecoverySegmentBatchRequest req;
  req.crashed = 9;
  req.items = {{.vlog = 0, .vseg = 0}};
  std::vector<std::vector<std::byte>> storage;
  EXPECT_EQ(backup_.HandleReadBatch(req, storage).items.at(0).status,
            StatusCode::kNotFound);
}

TEST(BackupFlushTest, FlushEvictReload) {
  std::string dir = ::testing::TempDir() + "/kera_backup_flush";
  std::filesystem::remove_all(dir);
  Backup backup(BackupConfig{.node = 3, .storage_dir = dir, .log = {}});

  auto c1 = MakeChunk(1, "must survive eviction");
  uint32_t crc1 = ChecksumOf(c1, 0);
  ASSERT_EQ(backup.HandleReplicate(MakeReplicate(c1, 1, 0, crc1,
                                                 /*seals=*/true)).status,
            StatusCode::kOk);
  backup.WaitForFlushes();
  EXPECT_EQ(backup.GetStats().segments_flushed, 1u);
  EXPECT_EQ(backup.EvictFlushed(), 1u);

  // Recovery read reloads the bytes from the flushed file.
  rpc::ReadRecoverySegmentBatchRequest req;
  req.crashed = 1;
  req.items = {{.vlog = 0, .vseg = 0}};
  std::vector<std::vector<std::byte>> storage;
  auto read = backup.HandleReadBatch(req, storage).items.at(0);
  ASSERT_EQ(read.status, StatusCode::kOk);
  ASSERT_EQ(read.payload.size(), c1.size());
  auto view = ChunkView::Parse(read.payload);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->VerifyChecksum());
  std::filesystem::remove_all(dir);
}

TEST(BackupFlushTest, TruncatedOrMissingFileIsReportedNotFatal) {
  // A flushed-then-evicted segment whose file was damaged behind the
  // backup's back must fail the read with a clean status — the old code
  // resized the buffer to size_t(ftell(-1)) and aborted the process.
  std::string dir = ::testing::TempDir() + "/kera_backup_damage";
  std::filesystem::remove_all(dir);
  Backup backup(BackupConfig{.node = 4, .storage_dir = dir, .log = {}});

  auto c1 = MakeChunk(1, "bytes that will be truncated away");
  uint32_t crc1 = ChecksumOf(c1, 0);
  ASSERT_EQ(backup.HandleReplicate(MakeReplicate(c1, 1, 0, crc1,
                                                 /*seals=*/true)).status,
            StatusCode::kOk);
  backup.WaitForFlushes();
  ASSERT_EQ(backup.EvictFlushed(), 1u);

  std::string path;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    path = e.path().string();
  }
  ASSERT_FALSE(path.empty());

  // Truncate the flushed file: the size check catches the mismatch.
  std::filesystem::resize_file(path, c1.size() / 2);
  rpc::ReadRecoverySegmentBatchRequest req;
  req.crashed = 1;
  req.items = {{.vlog = 0, .vseg = 0}};
  std::vector<std::vector<std::byte>> storage;
  EXPECT_EQ(backup.HandleReadBatch(req, storage).items.at(0).status,
            StatusCode::kCorruption);

  // Delete it outright: a clean kNotFound, not a crash.
  std::filesystem::remove(path);
  EXPECT_EQ(backup.HandleReadBatch(req, storage).items.at(0).status,
            StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(BackupRpcTest, FramedDispatch) {
  Backup backup(BackupConfig{.node = 2, .storage_dir = "", .log = {}});
  auto c1 = MakeChunk(1);
  uint32_t crc1 = ChecksumOf(c1, 0);
  auto req = MakeReplicate(c1, 1, 0, crc1);
  rpc::Writer body;
  req.Encode(body);
  auto resp_bytes = backup.HandleRpc(rpc::Frame(rpc::Opcode::kReplicate,
                                                body));
  rpc::Reader r(resp_bytes);
  auto resp = rpc::ReplicateResponse::Decode(r);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);
}

TEST(BackupRpcTest, DispatchRepliesToBadFrames) {
  Backup backup(BackupConfig{.node = 2, .storage_dir = "", .log = {}});
  // Shorter than an opcode: the parse status as a one-byte reply.
  std::vector<std::byte> tiny(1);
  EXPECT_EQ(backup.HandleRpc(tiny),
            std::vector<std::byte>{std::byte(StatusCode::kCorruption)});

  // The retired single-segment read (opcode 7) is an unserved opcode.
  rpc::Writer read_body;
  read_body.U32(1);  // crashed
  read_body.U32(0);  // vlog
  read_body.U64(0);  // vseg
  EXPECT_EQ(
      backup.HandleRpc(rpc::Frame(rpc::Opcode::kReadRecoverySegment,
                                  read_body)),
      std::vector<std::byte>{std::byte(StatusCode::kInvalidArgument)});

  // An undecodable body: the request type's reply, carrying the status.
  rpc::Writer truncated;
  truncated.U32(1);  // primary, then nothing
  auto raw = backup.HandleRpc(rpc::Frame(rpc::Opcode::kReplicate, truncated));
  rpc::Reader r(raw);
  auto resp = rpc::ReplicateResponse::Decode(r);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kCorruption);
}

}  // namespace
}  // namespace kera
