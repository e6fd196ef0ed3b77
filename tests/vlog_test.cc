// Unit tests for the virtual log: virtual segments, shared replication
// batching, durability propagation into physical storage, ordering.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string_view>
#include <thread>

#include "common/crc32c.h"
#include "storage/group.h"
#include "storage/memory_manager.h"
#include "vlog/virtual_log.h"
#include "vlog/virtual_segment.h"
#include "wire/chunk.h"

namespace kera {
namespace {

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Appends a chunk to `group` and returns its ChunkRef, mimicking the
/// broker's ingest path.
ChunkRef AppendAndRef(Group& group, StreamId stream, StreamletId streamlet,
                      ProducerId producer, ChunkSeq seq) {
  ChunkBuilder b(1024);
  b.Start(stream, streamlet, producer);
  EXPECT_TRUE(b.AppendValue(AsBytes("virtual-log-payload")));
  auto bytes = b.Seal(seq);
  auto r = group.AppendChunk(bytes);
  EXPECT_TRUE(r.ok());
  auto view = ChunkView::Parse(
      r->segment->Bytes(r->offset, r->length));
  ChunkRef ref;
  ref.loc = *r;
  ref.group = &group;
  ref.stream = stream;
  ref.streamlet = streamlet;
  ref.payload_checksum = view->payload_checksum();
  return ref;
}

class VirtualSegmentTest : public ::testing::Test {
 protected:
  MemoryManager mm_{1 << 20, 64 << 10};
  Group group_{mm_, 1, 0, 0, 4};
};

TEST_F(VirtualSegmentTest, VirtualSpaceAccounting) {
  ChunkRef ref = AppendAndRef(group_, 1, 0, 1, 1);
  // Virtual capacity of exactly two chunks.
  VirtualSegment vseg(0, /*capacity=*/size_t(ref.loc.length) * 2, {2, 3});
  EXPECT_TRUE(vseg.TryAppend(ref));
  EXPECT_EQ(vseg.header(), ref.loc.length);
  EXPECT_TRUE(vseg.TryAppend(ref));
  // Third append exceeds the virtual capacity.
  EXPECT_FALSE(vseg.TryAppend(ref));
  EXPECT_EQ(vseg.ref_count(), 2u);
}

TEST_F(VirtualSegmentTest, OversizeChunkAllowedWhenEmpty) {
  VirtualSegment vseg(0, /*capacity=*/10, {});
  ChunkRef ref = AppendAndRef(group_, 1, 0, 1, 1);
  // A chunk larger than the virtual capacity still lands in an empty
  // segment (mirrors physical log behavior for oversized entries).
  EXPECT_TRUE(vseg.TryAppend(ref));
  EXPECT_FALSE(vseg.TryAppend(ref));
}

TEST_F(VirtualSegmentTest, ChecksumCoversChunkChecksumsInOrder) {
  VirtualSegment vseg(0, 1 << 20, {});
  ChunkRef a = AppendAndRef(group_, 1, 0, 1, 1);
  ChunkRef b = AppendAndRef(group_, 1, 0, 1, 2);
  ASSERT_TRUE(vseg.TryAppend(a));
  uint32_t after_one = vseg.running_checksum();
  ASSERT_TRUE(vseg.TryAppend(b));
  uint32_t expected = Crc32c(&a.payload_checksum, 4);
  expected = Crc32c(&b.payload_checksum, 4, expected);
  EXPECT_EQ(vseg.running_checksum(), expected);
  EXPECT_EQ(vseg.ChecksumUpTo(1), after_one);
  EXPECT_EQ(vseg.ChecksumUpTo(2), expected);
  EXPECT_EQ(vseg.ChecksumUpTo(0), 0u);
}

TEST_F(VirtualSegmentTest, MarkReplicatedPropagatesDurability) {
  VirtualSegment vseg(0, 1 << 20, {});
  ChunkRef a = AppendAndRef(group_, 1, 0, 1, 1);
  ChunkRef b = AppendAndRef(group_, 1, 0, 1, 2);
  ASSERT_TRUE(vseg.TryAppend(a));
  ASSERT_TRUE(vseg.TryAppend(b));
  EXPECT_EQ(group_.durable_chunk_count(), 0u);
  EXPECT_EQ(a.loc.segment->durable_head(), kSegmentHeaderSize);

  vseg.MarkReplicatedUpTo(1);
  EXPECT_EQ(vseg.durable_header(), a.loc.length);
  EXPECT_EQ(group_.durable_chunk_count(), 1u);
  EXPECT_EQ(a.loc.segment->durable_head(), a.loc.offset + a.loc.length);

  vseg.MarkReplicatedUpTo(2);
  EXPECT_EQ(group_.durable_chunk_count(), 2u);
  EXPECT_TRUE(vseg.durable_header() == vseg.header());
}

TEST_F(VirtualSegmentTest, FullyReplicatedNeedsCloseAndSeal) {
  VirtualSegment vseg(0, 1 << 20, {});
  ChunkRef a = AppendAndRef(group_, 1, 0, 1, 1);
  ASSERT_TRUE(vseg.TryAppend(a));
  vseg.MarkReplicatedUpTo(1);
  EXPECT_FALSE(vseg.fully_replicated());  // still open
  vseg.Close();
  EXPECT_FALSE(vseg.fully_replicated());  // backups not yet told it sealed
  vseg.set_seal_replicated();
  EXPECT_TRUE(vseg.fully_replicated());
}


class VirtualLogTest : public ::testing::Test {
 protected:
  VirtualLogTest() {
    config_.virtual_segment_capacity = 1 << 20;
    config_.replication_factor = 3;
    config_.max_batch_bytes = 1 << 20;
  }
  VirtualLog MakeLog() {
    return VirtualLog(7, config_, [this](VirtualSegmentId vseg) {
      selector_calls_.push_back(vseg);
      // Rotate two backups out of {10, 11, 12}.
      std::vector<NodeId> all{10, 11, 12};
      std::vector<NodeId> picked;
      for (size_t i = 0; i < 2; ++i) {
        picked.push_back(all[(size_t(vseg) + i) % all.size()]);
      }
      return picked;
    });
  }

  MemoryManager mm_{4 << 20, 64 << 10};
  Group group_{mm_, 1, 0, 0, 8};
  VirtualLogConfig config_;
  std::vector<VirtualSegmentId> selector_calls_;
};

TEST_F(VirtualLogTest, AppendThenPollProducesOrderedBatch) {
  VirtualLog log = MakeLog();
  ChunkRef a = AppendAndRef(group_, 1, 0, 1, 1);
  ChunkRef b = AppendAndRef(group_, 1, 0, 1, 2);
  auto pa = log.Append(a);
  auto pb = log.Append(b);
  EXPECT_EQ(pa.vseg, pb.vseg);
  EXPECT_EQ(pa.ref_index, 0u);
  EXPECT_EQ(pb.ref_index, 1u);
  EXPECT_FALSE(log.IsDurable(pa));

  auto batch = log.Poll();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->refs.size(), 2u);
  EXPECT_EQ(batch->start_ref, 0u);
  EXPECT_EQ(batch->start_offset, 0u);
  EXPECT_EQ(batch->bytes, size_t(a.loc.length) + b.loc.length);
  EXPECT_EQ(batch->backups.size(), 2u);

  // Only one batch in flight at a time.
  EXPECT_FALSE(log.Poll().has_value());

  log.Complete(*batch);
  EXPECT_TRUE(log.IsDurable(pa));
  EXPECT_TRUE(log.IsDurable(pb));
  EXPECT_EQ(group_.durable_chunk_count(), 2u);
  EXPECT_FALSE(log.Poll().has_value());  // nothing left
}

TEST_F(VirtualLogTest, ReplicationFactorOneIsImmediatelyDurable) {
  config_.replication_factor = 1;
  VirtualLog log(0, config_, [](VirtualSegmentId) {
    return std::vector<NodeId>{};
  });
  ChunkRef a = AppendAndRef(group_, 1, 0, 1, 1);
  auto pos = log.Append(a);
  EXPECT_TRUE(log.IsDurable(pos));
  EXPECT_EQ(group_.durable_chunk_count(), 1u);
  EXPECT_FALSE(log.Poll().has_value());
  EXPECT_FALSE(log.HasWork());
}

TEST_F(VirtualLogTest, BatchBytesCapped) {
  config_.max_batch_bytes = 200;  // forces one chunk per batch (~103 B each)
  VirtualLog log = MakeLog();
  for (ChunkSeq s = 1; s <= 3; ++s) {
    log.Append(AppendAndRef(group_, 1, 0, 1, s));
  }
  auto b1 = log.Poll();
  ASSERT_TRUE(b1.has_value());
  EXPECT_LE(b1->bytes, 200u + b1->refs[0].loc.length);
  size_t total = b1->refs.size();
  log.Complete(*b1);
  while (auto b = log.Poll()) {
    EXPECT_EQ(b->start_offset, log.Segments()[0]->durable_header());
    total += b->refs.size();
    log.Complete(*b);
  }
  EXPECT_EQ(total, 3u);
}

TEST_F(VirtualLogTest, SegmentRolloverPicksFreshBackups) {
  config_.virtual_segment_capacity = 150;  // ~1 chunk per virtual segment
  VirtualLog log = MakeLog();
  auto p1 = log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  auto p2 = log.Append(AppendAndRef(group_, 1, 0, 1, 2));
  EXPECT_NE(p1.vseg, p2.vseg);
  EXPECT_EQ(selector_calls_.size(), 2u);
  auto segs = log.Segments();
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_TRUE(segs[0]->closed());
  EXPECT_FALSE(segs[1]->closed());
  EXPECT_NE(segs[0]->backups(), segs[1]->backups());
}

TEST_F(VirtualLogTest, EmptySealBatchEmittedForLateClosedSegment) {
  // A segment whose data is fully replicated BEFORE it closes still owes
  // the backups a seal notification; Poll must emit an empty seal batch.
  config_.virtual_segment_capacity = 150;  // ~1 chunk per virtual segment
  VirtualLog log = MakeLog();
  log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  auto b1 = log.Poll();  // replicate chunk 1 while its segment is open
  ASSERT_TRUE(b1.has_value());
  EXPECT_FALSE(b1->seals_segment);
  log.Complete(*b1);
  // Appending chunk 2 closes segment 0 (already fully replicated).
  log.Append(AppendAndRef(group_, 1, 0, 1, 2));
  auto b2 = log.Poll();  // data batch for segment 1 comes first
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->vseg, 1u);
  log.Complete(*b2);
  auto b3 = log.Poll();  // then the empty seal batch for segment 0
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(b3->vseg, 0u);
  EXPECT_TRUE(b3->seals_segment);
  EXPECT_TRUE(b3->refs.empty());
  EXPECT_EQ(b3->bytes, 0u);
  log.Complete(*b3);
  EXPECT_TRUE(log.Segments()[0]->fully_replicated());
  EXPECT_FALSE(log.Poll().has_value());
}

TEST_F(VirtualLogTest, SealsSegmentFlagOnFinalBatch) {
  config_.virtual_segment_capacity = 150;
  VirtualLog log = MakeLog();
  log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  log.Append(AppendAndRef(group_, 1, 0, 1, 2));  // rolls; seg0 closed
  auto b1 = log.Poll();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->vseg, 0u);
  EXPECT_TRUE(b1->seals_segment);
  log.Complete(*b1);
  auto b2 = log.Poll();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->vseg, 1u);
  EXPECT_FALSE(b2->seals_segment);  // open segment, more may come
  log.Complete(*b2);
}

TEST_F(VirtualLogTest, AbortAllowsRetry) {
  VirtualLog log = MakeLog();
  auto pos = log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  auto b1 = log.Poll();
  ASSERT_TRUE(b1.has_value());
  log.Abort(*b1);
  EXPECT_FALSE(log.IsDurable(pos));
  auto b2 = log.Poll();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->start_ref, b1->start_ref);
  EXPECT_EQ(b2->refs.size(), b1->refs.size());
  log.Complete(*b2);
  EXPECT_TRUE(log.IsDurable(pos));
}

TEST_F(VirtualLogTest, WindowedPollIssuesConcurrentBatches) {
  config_.replication_window = 3;
  config_.max_batch_bytes = 1;  // one chunk per batch
  VirtualLog log = MakeLog();
  auto p1 = log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  auto p2 = log.Append(AppendAndRef(group_, 1, 0, 1, 2));
  auto p3 = log.Append(AppendAndRef(group_, 1, 0, 1, 3));

  auto b1 = log.Poll();
  auto b2 = log.Poll();
  auto b3 = log.Poll();
  ASSERT_TRUE(b1 && b2 && b3);
  // Ordered issue: consecutive ranges, strictly increasing offsets.
  EXPECT_EQ(b1->start_ref, 0u);
  EXPECT_EQ(b2->start_ref, 1u);
  EXPECT_EQ(b3->start_ref, 2u);
  EXPECT_EQ(b2->start_offset, b1->start_offset + b1->bytes);
  EXPECT_EQ(b3->start_offset, b2->start_offset + b2->bytes);
  // Window full: nothing further issues.
  EXPECT_FALSE(log.Poll().has_value());
  EXPECT_FALSE(log.HasWork());

  // Out-of-order completion: the durable prefix never skips ahead.
  log.Complete(*b3);
  EXPECT_FALSE(log.IsDurable(p1));
  EXPECT_FALSE(log.IsDurable(p3));
  log.Complete(*b1);
  EXPECT_TRUE(log.IsDurable(p1));
  EXPECT_FALSE(log.IsDurable(p2));  // b2 still in flight
  EXPECT_FALSE(log.IsDurable(p3));  // b3 done but behind b2
  log.Complete(*b2);
  EXPECT_TRUE(log.IsDurable(p2));
  EXPECT_TRUE(log.IsDurable(p3));
  EXPECT_EQ(group_.durable_chunk_count(), 3u);
  EXPECT_EQ(log.GetStats().max_inflight_batches, 3u);
}

TEST_F(VirtualLogTest, WindowedAbortRequeuesSuffix) {
  config_.replication_window = 3;
  config_.max_batch_bytes = 1;
  VirtualLog log = MakeLog();
  auto p1 = log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  auto p2 = log.Append(AppendAndRef(group_, 1, 0, 1, 2));
  auto p3 = log.Append(AppendAndRef(group_, 1, 0, 1, 3));
  auto b1 = log.Poll();
  auto b2 = log.Poll();
  auto b3 = log.Poll();
  ASSERT_TRUE(b1 && b2 && b3);

  log.Complete(*b3);  // completes out of order, stays pending behind b2
  log.Abort(*b2);     // drops b2 AND the already-completed b3
  log.Complete(*b1);
  EXPECT_TRUE(log.IsDurable(p1));
  EXPECT_FALSE(log.IsDurable(p2));
  EXPECT_FALSE(log.IsDurable(p3));

  // The aborted suffix is re-issued from b2's position.
  auto r2 = log.Poll();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->start_ref, b2->start_ref);
  EXPECT_EQ(r2->start_offset, b2->start_offset);
  auto r3 = log.Poll();
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->start_ref, b3->start_ref);

  // A late ack for the aborted generation of b3 is a stale no-op.
  log.Complete(*b3);
  EXPECT_FALSE(log.IsDurable(p3));

  log.Complete(*r2);
  log.Complete(*r3);
  EXPECT_TRUE(log.IsDurable(p2));
  EXPECT_TRUE(log.IsDurable(p3));
  EXPECT_EQ(group_.durable_chunk_count(), 3u);
}

TEST_F(VirtualLogTest, WindowedSealWaitsForInflightData) {
  // The empty seal batch for a late-closed segment must not issue while
  // that segment still has a data batch in flight.
  config_.replication_window = 4;
  config_.virtual_segment_capacity = 150;  // ~1 chunk per virtual segment
  VirtualLog log = MakeLog();
  log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  auto b1 = log.Poll();  // seg0 data, segment still open
  ASSERT_TRUE(b1.has_value());
  EXPECT_FALSE(b1->seals_segment);
  log.Append(AppendAndRef(group_, 1, 0, 1, 2));  // rolls; seg0 closed
  auto b2 = log.Poll();  // seg1 data
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->vseg, 1u);
  // Window has room, but seg0's seal is gated on b1 completing.
  EXPECT_FALSE(log.Poll().has_value());
  log.Complete(*b1);
  auto b3 = log.Poll();
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(b3->vseg, 0u);
  EXPECT_TRUE(b3->seals_segment);
  EXPECT_TRUE(b3->refs.empty());
  log.Complete(*b3);
  log.Complete(*b2);
  EXPECT_TRUE(log.Segments()[0]->fully_replicated());
  EXPECT_FALSE(log.Poll().has_value());
}

TEST_F(VirtualLogTest, SharedAcrossGroupsPreservesPerGroupOrder) {
  // Two groups (different streamlets) share one vlog; replication must
  // advance each group's durable prefix in its own append order.
  Group group_b(mm_, 2, 1, 0, 8);
  VirtualLog log = MakeLog();
  log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  log.Append(AppendAndRef(group_b, 2, 1, 1, 1));
  log.Append(AppendAndRef(group_, 1, 0, 1, 2));
  log.Append(AppendAndRef(group_b, 2, 1, 1, 2));

  auto batch = log.Poll();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->refs.size(), 4u);
  // Interleaved ordering preserved in the batch.
  EXPECT_EQ(batch->refs[0].stream, 1u);
  EXPECT_EQ(batch->refs[1].stream, 2u);
  log.Complete(*batch);
  EXPECT_EQ(group_.durable_chunk_count(), 2u);
  EXPECT_EQ(group_b.durable_chunk_count(), 2u);
}

TEST_F(VirtualLogTest, StatsTrackAppendsAndBatches) {
  VirtualLog log = MakeLog();
  for (ChunkSeq s = 1; s <= 5; ++s) {
    log.Append(AppendAndRef(group_, 1, 0, 1, s));
  }
  auto batch = log.Poll();
  log.Complete(*batch);
  auto stats = log.GetStats();
  EXPECT_EQ(stats.chunks_appended, 5u);
  EXPECT_EQ(stats.batches_issued, 1u);
  EXPECT_GT(stats.bytes_appended, 0u);
  EXPECT_EQ(stats.bytes_replicated, stats.bytes_appended);
}

TEST_F(VirtualLogTest, TrimDropsFullyReplicatedSegments) {
  config_.virtual_segment_capacity = 150;
  VirtualLog log = MakeLog();
  for (ChunkSeq s = 1; s <= 4; ++s) {
    log.Append(AppendAndRef(group_, 1, 0, 1, s));
  }
  while (auto b = log.Poll()) log.Complete(*b);
  EXPECT_EQ(log.Segments().size(), 4u);
  size_t trimmed = log.TrimReplicatedSegments();
  EXPECT_EQ(trimmed, 3u);       // open segment is retained
  EXPECT_EQ(log.Segments().size(), 1u);
}

TEST_F(VirtualLogTest, TrimmedSegmentsReadAsDurable) {
  config_.virtual_segment_capacity = 150;
  VirtualLog log = MakeLog();
  auto pos = log.Append(AppendAndRef(group_, 1, 0, 1, 1));
  log.Append(AppendAndRef(group_, 1, 0, 1, 2));
  while (auto b = log.Poll()) log.Complete(*b);
  log.TrimReplicatedSegments();
  EXPECT_TRUE(log.IsDurable(pos));
}

// At R=1 Append itself advances the group's durable prefix. Two produce
// handlers on one streamlet take group chunk indices in one order and can
// reach the vlog in the other: the handler with the later index then
// sleeps until the earlier chunk's Append fills the gap, so that Append
// must wake it.
TEST_F(VirtualLogTest, ReplicationFactorOneAppendWakesOutOfOrderWaiter) {
  config_.replication_factor = 1;
  VirtualLog log = MakeLog();
  ChunkRef first = AppendAndRef(group_, 1, 0, 1, 1);
  ChunkRef second = AppendAndRef(group_, 1, 0, 1, 2);
  const auto pos = log.Append(second);
  ASSERT_EQ(group_.durable_chunk_count(), 0u);  // chunk 0 is not in yet

  std::promise<bool> durable;
  std::future<bool> waited = durable.get_future();
  std::thread waiter(
      [&] { durable.set_value(log.WaitChunkDurableOrIdle(second)); });
  // Let the waiter park on the unfilled prefix before the gap is filled.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  log.Append(first);
  const bool woke =
      waited.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  // A lost wakeup must fail the test, not hang it: evacuation notifies.
  if (!woke) log.EvacuateSegment(pos.vseg);
  waiter.join();
  EXPECT_TRUE(woke) << "Append completed the prefix but woke no waiter";
  EXPECT_TRUE(waited.get());
  EXPECT_EQ(group_.durable_chunk_count(), 2u);
}

}  // namespace
}  // namespace kera
