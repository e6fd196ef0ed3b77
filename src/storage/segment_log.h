// SegmentLog: the backup service's log-structured on-disk store
// (ROADMAP item 1; logstor/LogBase-style). Replicated-segment payloads
// and their forward-mapping metadata live in the SAME append-only log:
// large log files (`log_file_bytes`) hold self-describing, CRC32C-framed
// records — segment open, append (with chunk payload), seal, truncate and
// evacuate — so a cold restart rebuilds the entire copy map by scanning
// the log alone; there are no sidecar index files to desynchronize.
//
// Write path: producers of records (the Backup RPC handlers) only enqueue;
// a group-commit flusher drains the WHOLE queue per wakeup, coalesces the
// pending records into one vectored write per target log file, and issues
// a single fsync per group — turning the flush path from O(segments)
// fsyncs into O(groups). Each enqueue returns a monotone ticket;
// `DurableTicket()` is the group-commit watermark (a ticket at or below it
// is on disk), and `Sync()` forces everything enqueued so far down.
//
// Restart: files are scanned in id order; a record whose magic, header
// CRC, payload length or payload CRC does not check out ends that file —
// the torn tail is physically truncated (power loss tears at most the
// last group) and scanning continues with the next file. Rebuild is
// order-independent: appends populate a sparse offset->extent map,
// truncates clip, one seal per copy wins, evacuates drop the copy.
//
// GC: sealed-then-evacuated copies leave dead records behind. A hot-cold
// collector picks the non-active log file with the lowest live ratio
// (below `gc_live_ratio`), copies the surviving copies' extents and
// metadata forward into a dedicated COLD file (relocated-once data is
// cold by definition and stays separate from the hot append head), then
// unlinks the victim. Crash-safe: the victim dies only after the cold
// file is fsynced; a crash in between leaves idempotent duplicates.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/status.h"
#include "common/types.h"

namespace kera {

struct SegmentLogOptions {
  /// Target size of one append-only log file; a record that would overflow
  /// the active file rolls over to a fresh one.
  size_t log_file_bytes = 64u << 20;
  /// Group-commit pacing: the flusher wakes when this much is queued...
  size_t flush_batch_bytes = 8u << 20;
  /// ...or when the oldest queued record has waited this long.
  uint64_t flush_interval_us = 2000;
  /// GC a non-active log file once its live ratio drops below this;
  /// 0 disables GC (the chaos power-loss mode needs byte-deterministic
  /// disk state, which background compaction would perturb).
  double gc_live_ratio = 0.45;
};

class SegmentLog {
 public:
  /// Identity of one stored segment copy. The log is shared by two tiers:
  /// backups key replicated virtual-segment copies as (primary NodeId,
  /// vlog, virtual segment id); brokers key spilled physical segments as
  /// (StreamId, streamlet, group<<32 | segment id). `primary` is 64-bit so
  /// both namespaces fit without truncation.
  struct CopyKey {
    uint64_t primary = 0;
    VlogId vlog = 0;
    VirtualSegmentId vseg = 0;
    auto operator<=>(const CopyKey&) const = default;
  };

  // ----- on-disk record framing (exposed for the torn-write tests) -------

  enum class RecordType : uint8_t {
    kOpen = 1,      // copy exists (first touch)
    kAppend = 2,    // payload bytes at `offset`
    kSeal = 3,      // copy final: size=`offset`, chunk_count, crc_after
    kTruncate = 4,  // copy clipped to `offset` (evacuation surplus disowned)
    kEvacuate = 5,  // copy dropped (primary recovered elsewhere)
  };

  static constexpr uint32_t kRecordMagic = 0x474F4C4Bu;  // "KLOG"
  static constexpr size_t kRecordHeaderSize = 56;

  struct RecordHeader {
    RecordType type = RecordType::kOpen;
    uint64_t primary = 0;
    VlogId vlog = 0;
    VirtualSegmentId vseg = 0;
    /// kAppend: segment offset of the payload; kSeal/kTruncate: the copy's
    /// resulting size. Unused otherwise.
    uint64_t offset = 0;
    /// kAppend: chunks in this payload; kSeal/kTruncate: the copy's total.
    uint32_t chunk_count = 0;
    /// Running virtual-segment checksum after this record applies.
    uint32_t crc_after = 0;
    uint32_t payload_len = 0;
    uint32_t payload_crc = 0;  // CRC32C of the payload bytes
  };

  static void EncodeRecordHeader(const RecordHeader& h,
                                 std::byte out[kRecordHeaderSize]);
  /// false: bad magic or header CRC (i.e. torn/corrupt framing).
  [[nodiscard]] static bool DecodeRecordHeader(std::span<const std::byte> in,
                                               RecordHeader& out);

  // ----- lifecycle -------------------------------------------------------

  /// Creates the directory if needed, scans existing log files (torn tails
  /// truncated), rebuilds the copy map, and starts the flusher thread.
  explicit SegmentLog(std::string dir, SegmentLogOptions options = {});
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  /// Sticky IO-error state: once a write/fsync fails, the durable ticket
  /// stops advancing and every Sync/WaitDurable reports the error.
  [[nodiscard]] Status status() const;

  // ----- write path (enqueue; returns the group-commit ticket) -----------

  uint64_t EnqueueOpen(const CopyKey& key);
  uint64_t EnqueueAppend(const CopyKey& key, uint64_t start_offset,
                         std::span<const std::byte> payload,
                         uint32_t chunk_count, uint32_t crc_after);
  uint64_t EnqueueSeal(const CopyKey& key, uint64_t final_size,
                       uint32_t chunk_count, uint32_t crc_after);
  uint64_t EnqueueTruncate(const CopyKey& key, uint64_t new_size,
                           uint32_t chunk_count, uint32_t crc_after);
  uint64_t EnqueueEvacuate(const CopyKey& key);

  [[nodiscard]] uint64_t DurableTicket() const;
  /// Flushes everything enqueued so far (one forced group).
  [[nodiscard]] Status Sync();
  [[nodiscard]] Status WaitDurable(uint64_t ticket);

  // ----- read path -------------------------------------------------------

  /// Assembles a copy's durable payload [0, size) from its extents,
  /// verifying each extent's CRC. kNotFound: unknown copy or a log file
  /// vanished; kCorruption: extent bytes fail their recorded CRC.
  [[nodiscard]] Status ReadSegment(const CopyKey& key,
                                   std::vector<std::byte>& out) const;

  /// Variant for callers with pooled buffers (the broker's cold-read
  /// cache): assembles the durable prefix into `out`, setting `size` to
  /// the bytes produced. kNoSpace if the copy exceeds out.size().
  [[nodiscard]] Status ReadSegmentInto(const CopyKey& key,
                                       std::span<std::byte> out,
                                       uint64_t& size) const;

  /// Copy map as rebuilt from the log (what a cold-started Backup adopts).
  struct RecoveredCopy {
    CopyKey key;
    uint64_t size = 0;  // contiguous durable prefix
    uint32_t chunk_count = 0;
    uint32_t running_checksum = 0;
    bool sealed = false;
  };
  [[nodiscard]] std::vector<RecoveredCopy> RecoveredCopies() const;

  // ----- GC --------------------------------------------------------------

  /// Runs one GC pass now (the flusher also runs this after each group
  /// when gc_live_ratio > 0). Returns bytes reclaimed.
  uint64_t MaybeGc();

  // ----- stats -----------------------------------------------------------

  struct Stats {
    uint64_t flush_groups = 0;
    uint64_t fsyncs = 0;
    uint64_t bytes_flushed = 0;
    uint64_t records_flushed = 0;
    uint64_t seals_durable = 0;  // incl. seals recovered by the scan
    uint64_t gc_runs = 0;
    uint64_t gc_bytes_reclaimed = 0;
    uint64_t restart_scan_ms = 0;
    uint64_t restart_torn_records = 0;  // records dropped by tail truncation
    uint64_t log_files = 0;             // current file count
    uint64_t log_bytes = 0;             // current physical bytes
  };
  [[nodiscard]] Stats GetStats() const;

  // ----- power-loss simulation (chaos harness) ---------------------------

  /// Total bytes across the directory's log files, in file-id order.
  [[nodiscard]] static uint64_t TotalLogBytes(const std::string& dir);
  /// Simulated power loss: truncates the directory's logs at cumulative
  /// byte `offset` (file-id order) — the containing file is ftruncated,
  /// every later file unlinked. Call only with no live SegmentLog on dir.
  [[nodiscard]] static Status TruncateLogsAt(const std::string& dir,
                                             uint64_t offset);

 private:
  struct Extent {
    uint32_t file = 0;       // log file id holding the payload
    uint64_t pos = 0;        // payload position within that file
    uint32_t len = 0;        // payload length
    uint32_t chunk_count = 0;
    uint32_t crc_after = 0;  // running checksum after this extent
    uint32_t payload_crc = 0;
  };

  struct Copy {
    std::map<uint64_t, Extent> extents;  // segment offset -> durable extent
    uint64_t truncate_size = UINT64_MAX;
    uint32_t truncate_chunks = 0;
    uint32_t truncate_crc = 0;
    bool sealed = false;
    uint64_t seal_size = 0;
    uint32_t seal_chunks = 0;
    uint32_t seal_crc = 0;
    /// Bytes of log records (headers + payloads) this copy occupies per
    /// log file — the unit of GC live accounting and relocation.
    std::map<uint32_t, uint64_t> record_bytes;
  };

  struct LogFile {
    uint64_t size = 0;        // bytes written (assigned) so far
    uint64_t dead_bytes = 0;  // records of evacuated copies
    /// Records assigned by the placement step but not yet written+synced;
    /// such a file must not be a GC victim.
    uint32_t pending_io = 0;
    std::set<CopyKey> keys;   // live copies with records in this file
  };

  struct PendingRecord {
    RecordHeader header;
    std::vector<std::byte> payload;  // owned: the source may mutate/evict
    uint64_t ticket = 0;
  };

  [[nodiscard]] std::string FilePathFor(uint32_t file_id) const;
  uint64_t Enqueue(const RecordHeader& h, std::span<const std::byte> payload);
  void FlusherLoop();
  /// Flushes one group (everything pending). Caller holds no lock.
  void FlushGroup();
  void ScanOnStartup();
  /// Applies one decoded record to the copy map (scan and flush share it).
  void ApplyRecord(const RecordHeader& h, uint32_t file_id,
                   uint64_t payload_pos);
  /// Contiguous durable prefix of a copy: size, chunks, crc. Locked.
  void ContiguousPrefix(const Copy& c, uint64_t& size, uint32_t& chunks,
                        uint32_t& crc) const;
  /// Assembles [0, size) of a copy into `out`, verifying extent CRCs.
  /// Caller holds mu_ and has bounded `size` via ContiguousPrefix.
  [[nodiscard]] Status ReadExtentsLocked(const Copy& c,
                                         std::span<std::byte> out,
                                         uint64_t size) const;
  void NoteIoError(const Status& s);
  uint64_t GcLocked(std::unique_lock<std::mutex>& lock);

  const std::string dir_;
  const SegmentLogOptions options_;

  mutable std::mutex mu_;
  std::condition_variable flusher_cv_;   // wakes the flusher
  std::condition_variable durable_cv_;   // wakes Sync/WaitDurable waiters
  std::map<CopyKey, Copy> copies_;
  std::map<uint32_t, LogFile> files_;
  uint32_t active_file_ = 0;   // hot append head (0 = none yet)
  uint32_t cold_file_ = 0;     // GC relocation target (0 = none yet)
  uint32_t next_file_id_ = 1;

  std::deque<PendingRecord> pending_;
  size_t pending_bytes_ = 0;
  uint64_t pending_oldest_us_ = 0;  // steady-clock stamp of oldest record
  uint64_t next_ticket_ = 1;
  uint64_t durable_ticket_ = 0;
  bool sync_requested_ = false;
  bool shutdown_ = false;
  Status error_;  // sticky

  Stats stats_;
  std::thread flusher_;
};

}  // namespace kera
