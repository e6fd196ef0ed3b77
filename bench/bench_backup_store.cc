// Benchmarks for the log-structured backup store: group-commit flush
// throughput through the real Backup service at 1 MiB segments (counter
// fsyncs_per_mb is the headline — the group-commit flusher coalesces
// many segments into one fsync), an honest one-file-per-segment+fsync
// baseline (fsyncs_per_mb == 1 by construction), and cold-restart copy-map
// rebuild time as a function of segment count.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "backup/backup.h"
#include "storage/segment_log.h"
#include "bench_host_context.h"
#include "common/crc32c.h"
#include "common/file.h"
#include "wire/chunk.h"

namespace {

namespace fs = std::filesystem;
using namespace kera;

constexpr size_t kSegmentBytes = 1u << 20;
constexpr int kSegmentsPerIter = 16;

std::string BenchDir(const std::string& name) {
  return "/tmp/kera_bench_backup/" + name;
}

/// One ~1 MiB chunk frame plus its running-checksum contribution.
struct SegmentPayload {
  std::vector<std::byte> frame;
  uint32_t checksum_after = 0;
};

SegmentPayload MakeSegmentPayload() {
  SegmentPayload p;
  std::vector<std::byte> value(kSegmentBytes - 256);
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = std::byte(uint8_t(i * 31));
  }
  ChunkBuilder b(kSegmentBytes + 4096);
  b.Start(/*stream=*/1, /*streamlet=*/0, /*producer=*/1);
  if (!b.AppendValue(value)) std::abort();
  auto bytes = b.Seal(/*seq=*/1);
  p.frame.assign(bytes.begin(), bytes.end());
  auto view = ChunkView::Parse(p.frame);
  uint32_t c = view->payload_checksum();
  p.checksum_after = Crc32c(&c, 4, 0);
  return p;
}

/// Group-commit path: 1 MiB sealed segments through Backup::HandleReplicate
/// into the segment log, one WaitForFlushes per batch of segments.
void BM_BackupGroupCommitFlush(benchmark::State& state) {
  const SegmentPayload payload = MakeSegmentPayload();
  std::string dir = BenchDir("group_commit");
  uint64_t total_segments = 0;
  uint64_t fsyncs = 0, flush_groups = 0, bytes_flushed = 0;
  // Throughput-oriented pacing: a wider group window lets the flusher
  // coalesce the whole burst (the 2 ms default optimizes durability lag;
  // these are the knobs a backup-heavy deployment would turn).
  BackupConfig cfg{.node = 2, .storage_dir = dir, .log = {}};
  cfg.log.flush_interval_us = 50'000;
  cfg.log.flush_batch_bytes = 32u << 20;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    Backup backup(cfg);
    state.ResumeTiming();

    for (int s = 0; s < kSegmentsPerIter; ++s) {
      rpc::ReplicateRequest req;
      req.primary = 1;
      req.vlog = 0;
      req.vseg = VirtualSegmentId(s);
      req.start_offset = 0;
      req.chunk_count = 1;
      req.checksum_after = payload.checksum_after;
      req.seals = true;
      req.payload = payload.frame;
      if (backup.HandleReplicate(req).status != StatusCode::kOk) std::abort();
    }
    backup.WaitForFlushes();

    state.PauseTiming();
    auto stats = backup.GetStats();
    fsyncs += stats.fsyncs;
    flush_groups += stats.flush_groups;
    bytes_flushed += stats.bytes_flushed;
    total_segments += kSegmentsPerIter;
    state.ResumeTiming();
  }
  fs::remove_all(dir);
  double mb = double(total_segments) * double(payload.frame.size()) /
              double(1u << 20);
  state.SetBytesProcessed(int64_t(total_segments * payload.frame.size()));
  state.counters["fsyncs_per_mb"] = double(fsyncs) / mb;
  state.counters["fsyncs"] = double(fsyncs);
  state.counters["flush_groups"] = double(flush_groups);
  state.counters["segments_per_group"] =
      flush_groups ? double(total_segments) / double(flush_groups) : 0.0;
  state.counters["bytes_flushed"] = double(bytes_flushed);
}
BENCHMARK(BM_BackupGroupCommitFlush)->Unit(benchmark::kMillisecond);

/// Baseline the group commit is measured against: the classic layout of
/// one file per flushed segment with its own fsync — O(segments) fsyncs.
void BM_BaselineFilePerSegment(benchmark::State& state) {
  const SegmentPayload payload = MakeSegmentPayload();
  std::string dir = BenchDir("file_per_segment");
  uint64_t total_segments = 0;
  uint64_t fsyncs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    fs::create_directories(dir);
    state.ResumeTiming();

    for (int s = 0; s < kSegmentsPerIter; ++s) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s/seg-%04d", dir.c_str(), s);
      auto f = PosixFile::Open(name, O_RDWR | O_CREAT | O_TRUNC);
      if (!f.ok()) std::abort();
      if (!f->WriteAt(0, payload.frame).ok()) std::abort();
      if (!f->Sync().ok()) std::abort();
      ++fsyncs;
    }
    total_segments += kSegmentsPerIter;
  }
  fs::remove_all(dir);
  double mb = double(total_segments) * double(payload.frame.size()) /
              double(1u << 20);
  state.SetBytesProcessed(int64_t(total_segments * payload.frame.size()));
  state.counters["fsyncs_per_mb"] = double(fsyncs) / mb;
  state.counters["fsyncs"] = double(fsyncs);
}
BENCHMARK(BM_BaselineFilePerSegment)->Unit(benchmark::kMillisecond);

/// Cold-restart rebuild: scan time of a log directory holding N sealed
/// 64 KiB segment copies (the copy map comes from the log alone).
void BM_ColdRestartScan(benchmark::State& state) {
  const int segments = int(state.range(0));
  const size_t kLen = 64u << 10;
  std::string dir = BenchDir("restart_scan_" + std::to_string(segments));
  fs::remove_all(dir);
  {
    std::vector<std::byte> payload(kLen);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = std::byte(uint8_t(i));
    }
    SegmentLog log(dir, {});
    for (int s = 0; s < segments; ++s) {
      SegmentLog::CopyKey key{1, 0, VirtualSegmentId(s)};
      log.EnqueueOpen(key);
      log.EnqueueAppend(key, 0, payload, 1, uint32_t(s));
      log.EnqueueSeal(key, kLen, 1, uint32_t(s));
    }
    if (!log.Sync().ok()) std::abort();
  }
  uint64_t scan_ms = 0;
  for (auto _ : state) {
    SegmentLog log(dir, {});
    if (log.RecoveredCopies().size() != size_t(segments)) std::abort();
    scan_ms = log.GetStats().restart_scan_ms;
    benchmark::DoNotOptimize(scan_ms);
  }
  fs::remove_all(dir);
  state.counters["segments"] = double(segments);
  state.counters["restart_scan_ms"] = double(scan_ms);
  state.counters["log_mb"] =
      double(segments) * double(kLen) / double(1u << 20);
}
BENCHMARK(BM_ColdRestartScan)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
