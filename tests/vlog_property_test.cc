// Property-based tests of the virtual log under randomized interleavings:
// chunks from many groups share one vlog while random replication
// schedules (including aborts and evacuations) drive durability.
// Invariants (DESIGN.md §6):
//   - atomic replication: the durable header always sits on a chunk
//     boundary; durable counts never regress;
//   - per-group order: each group's chunks become durable in index order;
//   - the checksum chain over chunk checksums matches an independent
//     recomputation for every batch;
//   - aborts and backup-failure evacuations never lose or duplicate a
//     chunk.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "storage/group.h"
#include "storage/memory_manager.h"
#include "vlog/virtual_log.h"
#include "wire/chunk.h"

namespace kera {
namespace {

struct VlogSweep {
  size_t virtual_capacity;
  size_t max_batch_bytes;
  uint32_t groups;
  int chunks;
  uint64_t seed;
};

class VlogProperty : public ::testing::TestWithParam<VlogSweep> {};

TEST_P(VlogProperty, RandomScheduleKeepsInvariants) {
  const VlogSweep sweep = GetParam();
  Xoshiro256 rng(sweep.seed);

  MemoryManager mm(size_t(64) << 20, 256 << 10);
  std::vector<std::unique_ptr<Group>> groups;
  for (uint32_t g = 0; g < sweep.groups; ++g) {
    groups.push_back(std::make_unique<Group>(mm, /*stream=*/g + 1,
                                             /*streamlet=*/0, /*id=*/0,
                                             /*max_segments=*/64));
  }

  VirtualLogConfig cfg;
  cfg.virtual_segment_capacity = sweep.virtual_capacity;
  cfg.replication_factor = 3;
  cfg.max_batch_bytes = sweep.max_batch_bytes;
  VirtualLog vlog(1, cfg, [&rng](VirtualSegmentId) {
    // Two random distinct backups out of 10..14.
    NodeId a = NodeId(10 + rng.NextBounded(5));
    NodeId b = a;
    while (b == a) b = NodeId(10 + rng.NextBounded(5));
    return std::vector<NodeId>{a, b};
  });

  ChunkBuilder builder(2048);
  std::map<uint32_t, int> appended_per_group;
  int appended = 0;
  int completed_chunks = 0;

  auto append_one = [&] {
    uint32_t g = uint32_t(rng.NextBounded(sweep.groups));
    builder.Start(g + 1, 0, /*producer=*/1);
    std::vector<std::byte> value(rng.NextBounded(900) + 10);
    for (auto& byte : value) byte = std::byte(rng.Next());
    ASSERT_TRUE(builder.AppendValue(value));
    auto bytes = builder.Seal(ChunkSeq(appended + 1));
    auto r = groups[g]->AppendChunk(bytes);
    ASSERT_TRUE(r.ok());
    auto view = ChunkView::Parse(
        r->segment->Bytes(r->offset, r->length));
    ChunkRef ref;
    ref.loc = *r;
    ref.group = groups[g].get();
    ref.stream = g + 1;
    ref.payload_checksum = view->payload_checksum();
    vlog.Append(ref);
    ++appended;
    ++appended_per_group[g];
  };

  // Randomly interleave appends and replication steps.
  while (appended < sweep.chunks || completed_chunks < appended) {
    bool can_append = appended < sweep.chunks;
    uint64_t dice = rng.NextBounded(10);
    if (can_append && dice < 5) {
      append_one();
      continue;
    }
    auto batch = vlog.Poll();
    if (!batch.has_value()) {
      if (can_append) append_one();
      continue;
    }
    // Verify the checksum chain independently for this batch.
    uint32_t crc = 0;
    bool found_segment = false;
    for (const VirtualSegment* seg : vlog.Segments()) {
      if (seg->id() != batch->vseg) continue;
      found_segment = true;
      for (size_t i = 0; i < batch->start_ref + batch->refs.size(); ++i) {
        uint32_t c = seg->ref(i).payload_checksum;
        crc = Crc32c(&c, sizeof(c), crc);
      }
    }
    ASSERT_TRUE(found_segment);
    EXPECT_EQ(crc, batch->checksum_after);

    if (dice == 9) {
      vlog.Abort(*batch);  // simulated backup failure; will retry
    } else {
      vlog.Complete(*batch);
      completed_chunks += int(batch->refs.size());
    }

    // Durable headers sit on chunk boundaries (atomicity).
    for (const VirtualSegment* seg : vlog.Segments()) {
      uint64_t boundary = 0;
      bool on_boundary = seg->durable_header() == 0;
      for (size_t i = 0; i < seg->ref_count(); ++i) {
        boundary += seg->ref(i).loc.length;
        if (boundary == seg->durable_header()) on_boundary = true;
      }
      EXPECT_TRUE(on_boundary);
      EXPECT_LE(seg->durable_header(), seg->header());
    }
  }

  // Every chunk durable; per-group durable counts match appends.
  for (uint32_t g = 0; g < sweep.groups; ++g) {
    EXPECT_EQ(groups[g]->durable_chunk_count(),
              uint64_t(appended_per_group[g]));
    EXPECT_EQ(groups[g]->chunk_count(), uint64_t(appended_per_group[g]));
  }
  auto stats = vlog.GetStats();
  EXPECT_EQ(stats.chunks_appended, uint64_t(sweep.chunks));
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, VlogProperty,
    ::testing::Values(VlogSweep{4 << 10, 64 << 10, 1, 100, 1},
                      VlogSweep{8 << 10, 2 << 10, 4, 200, 2},
                      VlogSweep{64 << 10, 8 << 10, 8, 300, 3},
                      VlogSweep{1 << 20, 1 << 20, 16, 400, 4},
                      VlogSweep{2 << 10, 1 << 10, 3, 150, 5}),
    [](const ::testing::TestParamInfo<VlogSweep>& info) {
      char name[80];
      std::snprintf(name, sizeof(name), "cap%zu_batch%zu_g%u_n%d",
                    info.param.virtual_capacity, info.param.max_batch_bytes,
                    info.param.groups, info.param.chunks);
      return std::string(name);
    });

// Windowed replication property: with several batches in flight, random
// out-of-order completions and aborts must keep the durable prefix
// contiguous (headers on chunk boundaries, never regressing) and
// eventually make every chunk durable exactly once.
TEST(VlogWindowedProperty, OutOfOrderCompletionKeepsInvariants) {
  for (uint32_t window : {2u, 4u, 8u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Xoshiro256 rng(seed * 977 + window);
      MemoryManager mm(size_t(64) << 20, 256 << 10);
      Group group(mm, 1, 0, 0, 64);
      VirtualLogConfig cfg;
      cfg.virtual_segment_capacity = 8 << 10;
      cfg.replication_factor = 3;
      cfg.max_batch_bytes = 1 << 10;
      cfg.replication_window = window;
      VirtualLog vlog(1, cfg, [](VirtualSegmentId v) {
        return std::vector<NodeId>{NodeId(10 + v % 3), NodeId(13)};
      });

      ChunkBuilder builder(2048);
      int appended = 0;
      const int kChunks = 200;
      auto append_one = [&] {
        builder.Start(1, 0, 1);
        std::vector<std::byte> value(rng.NextBounded(700) + 10);
        ASSERT_TRUE(builder.AppendValue(value));
        auto bytes = builder.Seal(ChunkSeq(appended + 1));
        auto r = group.AppendChunk(bytes);
        ASSERT_TRUE(r.ok());
        ChunkRef ref;
        ref.loc = *r;
        ref.group = &group;
        ref.stream = 1;
        auto view =
            ChunkView::Parse(r->segment->Bytes(r->offset, r->length));
        ref.payload_checksum = view->payload_checksum();
        vlog.Append(ref);
        ++appended;
      };

      std::vector<ReplicationBatch> inflight;  // issue order
      std::map<VirtualSegmentId, uint64_t> durable_seen;
      auto check_invariants = [&] {
        for (const VirtualSegment* seg : vlog.Segments()) {
          // Durable header sits on a chunk boundary and never regresses.
          uint64_t boundary = 0;
          bool on_boundary = seg->durable_header() == 0;
          for (size_t i = 0; i < seg->ref_count(); ++i) {
            boundary += seg->ref(i).loc.length;
            if (boundary == seg->durable_header()) on_boundary = true;
          }
          EXPECT_TRUE(on_boundary);
          EXPECT_LE(seg->durable_header(), seg->header());
          uint64_t& prev = durable_seen[seg->id()];
          EXPECT_GE(seg->durable_header(), prev);
          prev = seg->durable_header();
        }
      };

      while (appended < kChunks ||
             group.durable_chunk_count() < uint64_t(appended)) {
        uint64_t dice = rng.NextBounded(10);
        if (appended < kChunks && dice < 4) {
          append_one();
          continue;
        }
        if (dice < 7 || inflight.empty()) {
          auto batch = vlog.Poll();
          if (batch.has_value()) {
            inflight.push_back(std::move(*batch));
          } else if (inflight.empty() && appended < kChunks) {
            append_one();
          }
          continue;
        }
        // Complete or abort a RANDOM in-flight batch (out of order).
        size_t pick = rng.NextBounded(inflight.size());
        if (dice == 9) {
          // Aborting drops the picked batch and the whole issued suffix.
          vlog.Abort(inflight[pick]);
          inflight.erase(inflight.begin() + long(pick), inflight.end());
        } else {
          vlog.Complete(inflight[pick]);
          inflight.erase(inflight.begin() + long(pick));
        }
        check_invariants();
      }

      EXPECT_EQ(group.durable_chunk_count(), uint64_t(kChunks));
      EXPECT_EQ(group.chunk_count(), uint64_t(kChunks));
      auto stats = vlog.GetStats();
      EXPECT_EQ(stats.chunks_appended, uint64_t(kChunks));
      EXPECT_LE(stats.max_inflight_batches, uint64_t(window));
      if (window > 1) {
        EXPECT_GT(stats.max_inflight_batches, 1u);
      }
    }
  }
}

// Evacuation property: moving unreplicated refs to a fresh segment keeps
// the exact multiset of chunks and their per-group relative order.
TEST(VlogEvacuationProperty, PreservesChunksAndOrder) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    MemoryManager mm(size_t(16) << 20, 256 << 10);
    Group group(mm, 1, 0, 0, 64);
    VirtualLogConfig cfg;
    cfg.virtual_segment_capacity = 4 << 10;  // force several segments
    cfg.replication_factor = 2;
    VirtualLog vlog(0, cfg,
                    [](VirtualSegmentId v) {
                      return std::vector<NodeId>{NodeId(10 + v % 3)};
                    });

    ChunkBuilder builder(1024);
    const int kChunks = 60;
    for (int i = 0; i < kChunks; ++i) {
      builder.Start(1, 0, 1);
      std::vector<std::byte> value(rng.NextBounded(700) + 10);
      ASSERT_TRUE(builder.AppendValue(value));
      auto bytes = builder.Seal(ChunkSeq(i + 1));
      auto r = group.AppendChunk(bytes);
      ASSERT_TRUE(r.ok());
      ChunkRef ref;
      ref.loc = *r;
      ref.group = &group;
      ref.stream = 1;
      auto view = ChunkView::Parse(r->segment->Bytes(r->offset, r->length));
      ref.payload_checksum = view->payload_checksum();
      vlog.Append(ref);
    }

    // Replicate a random prefix, then evacuate a random segment.
    int to_complete = int(rng.NextBounded(3));
    for (int i = 0; i < to_complete; ++i) {
      auto batch = vlog.Poll();
      if (!batch) break;
      vlog.Complete(*batch);
    }
    auto segments = vlog.Segments();
    ASSERT_FALSE(segments.empty());
    VirtualSegmentId victim =
        segments[rng.NextBounded(segments.size())]->id();
    vlog.EvacuateSegment(victim);

    // Finish replication; everything must become durable, in order.
    while (auto batch = vlog.Poll()) vlog.Complete(*batch);
    EXPECT_EQ(group.durable_chunk_count(), uint64_t(kChunks)) << seed;

    // The union of refs across segments covers each chunk exactly once,
    // and within each segment per-group indices are increasing.
    std::map<uint64_t, int> seen;
    for (const VirtualSegment* seg : vlog.Segments()) {
      uint64_t last = 0;
      bool first = true;
      for (size_t i = 0; i < seg->ref_count(); ++i) {
        uint64_t idx = seg->ref(i).loc.group_chunk_index;
        ++seen[idx];
        if (!first) {
          EXPECT_GT(idx, last);
        }
        last = idx;
        first = false;
      }
    }
    EXPECT_EQ(seen.size(), size_t(kChunks)) << seed;
    for (const auto& [idx, count] : seen) {
      EXPECT_EQ(count, 1) << "chunk " << idx << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace kera
