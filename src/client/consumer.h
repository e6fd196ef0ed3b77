// Consumer client (paper Fig. 7). One fetch worker per leader broker keeps
// one consume request in flight to it, carrying every (streamlet, group)
// cursor of that broker's streamlets, so a cursor is in at most one
// request and the chunks of a group always arrive in order. Every request
// long-polls: the broker answers at once when any chunk is durable and
// otherwise parks it for up to 50 ms, so a tailing consumer sends no empty
// fetches between records. Every streamlet not yet done holds at least one
// cursor: the group it waits for is an ordinary cursor at chunk 0 that the
// broker reports as not created until it is. Fetched chunks land in a
// bounded FetchBuffer: a per-broker byte budget (fetch_buffer_bytes)
// pauses a broker's prefetch when too much data sits unpolled and resumes
// it when Poll() drains.
//
// Groups are independently consumable units (paper §IV.A): within one
// streamlet, several groups are read in parallel (Q > 1 appends create
// interleaved groups), and group-level sharing splits a streamlet's
// groups across cooperating consumers. Consumers only ever receive
// durably replicated data (the broker enforces the durability gate).
//
// Poll hands records out in place, iterating the fetched chunk like the
// paper's source thread: a record is a view into the consume response
// its chunk arrived in, with no per-record copy. Holding a record pins
// its whole response, up to max_bytes_per_request (4 MiB by default);
// copy the bytes out to keep them for long.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "client/client_config.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/messages.h"
#include "rpc/transport.h"
#include "wire/chunk.h"

namespace kera {

/// One record handed to the application. `value` is a view into the
/// consume response the record's chunk arrived in, and `response` shares
/// ownership of that buffer, so the view stays valid for as long as the
/// record lives, also after its Consumer is gone. Holding a record pins
/// the whole response (up to max_bytes_per_request, 4 MiB by default):
/// copy `value` out to keep the bytes for long.
struct ConsumedRecord {
  StreamletId streamlet = 0;
  GroupId group = 0;
  uint64_t chunk_index = 0;  // group_chunk_index of the containing chunk
  ProducerId producer = 0;
  std::span<const std::byte> value;  // aliases *response
  std::shared_ptr<const std::vector<std::byte>> response;
};

class Consumer {
 public:
  Consumer(ConsumerConfig config, rpc::Network& network);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Fetches stream metadata and starts the fetch workers.
  Status Connect();

  /// Returns up to `max_records` records, in order per group, as views
  /// into their fetched chunks (see ConsumedRecord). Non-blocking:
  /// returns what is buffered (possibly nothing). In exactly_once mode
  /// the count rounds UP to a chunk boundary — the committed cursor is
  /// chunk-granular, so Poll never leaves a chunk half-delivered across a
  /// Commit().
  std::vector<ConsumedRecord> Poll(size_t max_records);

  /// Blocking variant: waits until at least one record arrives or the
  /// consumer is closed.
  std::vector<ConsumedRecord> PollBlocking(size_t max_records);

  /// Durably commits the position of everything Poll has handed out so
  /// far (exactly_once only): one CommitOffsets RPC per leader broker,
  /// persisted as a flagged system chunk in the virtual log. A consumer
  /// restarted with the same consumer_id resumes from here instead of
  /// redelivering. Call from the polling thread.
  Status Commit();

  void Close();

  /// True once every assigned streamlet of a sealed (bounded) stream has
  /// been fully fetched; Poll may still return buffered records.
  [[nodiscard]] bool Finished() const;

  struct Stats {
    Counter records_consumed;
    Counter chunks_received;
    Counter bytes_received;
    Counter requests_sent;
    Counter empty_responses;
    Counter checksum_failures;
    /// Times a broker's prefetch blocked on the fetch_buffer_bytes budget.
    uint64_t flow_control_pauses = 0;
    /// Successful Commit() rounds (exactly_once only).
    Counter offset_commits;
    /// Offset-commit system chunks skipped (their records are cursor
    /// metadata, never handed to the application).
    Counter system_chunks_skipped;
  };
  [[nodiscard]] Stats GetStats() const;

  [[nodiscard]] const rpc::StreamInfo& stream_info() const { return info_; }

  /// Coordinator-assigned session epoch (0 unless exactly_once).
  [[nodiscard]] uint32_t session_epoch() const { return epoch_; }

 private:
  /// Per-streamlet fetch state: the cursors of the groups being read
  /// (several in parallel; empty only once the sealed stream is fully
  /// drained) plus the next owned group not opened yet. Owned by exactly
  /// one fetch worker (streamlet -> leader broker is fixed at Connect), so
  /// no lock is needed.
  struct StreamletState {
    std::map<GroupId, uint64_t> active;  // group -> next chunk index
    GroupId next_unstarted = 0;          // next owned group to open
    uint32_t groups_created = 0;         // broker-announced group count
  };
  struct FetchedChunk {
    StreamletId streamlet = 0;
    NodeId broker = 0;  // leader it was fetched from (budget accounting)
    /// Full chunk frame, aliasing `response` (all chunks fetched by one
    /// consume RPC share its response buffer instead of being copied out
    /// one by one).
    std::span<const std::byte> bytes;
    std::shared_ptr<const std::vector<std::byte>> response;
  };

  /// Bounded hand-off queue between fetch workers and Poll(): the flow
  /// controller of the prefetch window. Tracks buffered-but-unpolled
  /// bytes per broker; a worker calls WaitBelowBudget before issuing and
  /// parks until Poll drains below budget (or shutdown). Shutdown wakes
  /// everything; Pop keeps draining queued chunks after shutdown.
  class FetchBuffer {
   public:
    void Push(FetchedChunk fc);
    /// The oldest chunk, or nullopt if none is queued. With `wait` it
    /// first blocks until a chunk is queued or the buffer shuts down.
    std::optional<FetchedChunk> Pop(bool wait);
    /// Returns false on shutdown, true once broker's bytes < budget.
    bool WaitBelowBudget(NodeId broker, size_t budget);
    void Shutdown();
    [[nodiscard]] uint64_t pauses() const;

   private:
    mutable std::mutex mu_;
    std::condition_variable pop_cv_;     // Pop waiters
    std::condition_variable budget_cv_;  // WaitBelowBudget waiters
    std::deque<FetchedChunk> items_;
    std::map<NodeId, size_t> buffered_;  // broker -> unpolled bytes
    uint64_t pauses_ = 0;
    bool shutdown_ = false;
  };

  /// Per-broker fetch worker: sends one long-polling request at a time,
  /// carrying every cursor of the broker's streamlets, until they are all
  /// done or the consumer closes.
  void BrokerFetchLoop(NodeId broker,
                       const std::vector<StreamletId>& streamlets);
  /// Decodes one consume response and applies it, counting it in
  /// empty_responses when it delivered no chunk; returns false when the
  /// broker refused the fetch (or the response does not decode).
  bool ProcessResponse(NodeId broker, std::vector<std::byte> raw);
  /// Hands the entry's chunks to the FetchBuffer and moves its cursor,
  /// ending the cursor once its group is closed and drained, or once the
  /// stream is sealed and the group was never created. Returns true when
  /// the entry delivered a chunk.
  bool HandleEntry(NodeId broker, StreamletState& state,
                   const rpc::ConsumeEntryResponse& entry,
                   const std::shared_ptr<const std::vector<std::byte>>& buf);
  /// Poll and PollBlocking: hands out up to `max_records` records from
  /// the hand-out cursor, opening the next fetched chunk whenever the
  /// cursor's is exhausted. With `block`, waits for a chunk while none
  /// has been handed out and the consumer runs.
  std::vector<ConsumedRecord> HandOut(size_t max_records, bool block);
  /// Points the hand-out cursor at one fetched chunk, on the polling
  /// thread: a chunk that fails to parse or verify is dropped and counted
  /// in checksum_failures, and an offset-commit system chunk (cursor
  /// metadata, not user data) is skipped; either leaves the cursor
  /// exhausted. Does NOT move the delivered frontier — Commit() persists
  /// what Poll handed out, not what was prefetched; HandOut advances the
  /// frontier as it hands out each chunk's last record.
  void OpenChunk(FetchedChunk fetched);
  /// Monotonically advances the delivered frontier past `rec`'s chunk.
  void AdvanceDelivered(const ConsumedRecord& rec);
  [[nodiscard]] GroupId FirstOwnedGroupAtOrAfter(GroupId g) const;
  /// Opens owned groups below groups_created into the active set, up to
  /// the parallelism cap. A streamlet left with no cursor is done if the
  /// stream is sealed, and otherwise awaits its next owned group.
  void OpenGroups(StreamletState& state, bool sealed);

  const ConsumerConfig config_;
  rpc::Network& network_;
  rpc::StreamInfo info_;
  std::vector<StreamletId> assigned_;

  // Fetch-worker state; each StreamletState is touched only by the worker
  // of its leader broker (the map itself is immutable after Connect).
  std::map<StreamletId, StreamletState> states_;

  FetchBuffer fetched_;
  std::atomic<bool> running_{false};
  std::atomic<bool> finished_{false};
  std::atomic<size_t> done_streamlets_{0};
  std::atomic<size_t> active_fetch_workers_{0};
  std::vector<std::thread> fetch_threads_;  // one per leader broker

  // Source-side state, touched only by the polling thread: the hand-out
  // cursor over the chunk Poll is reading. `chunk.response` keeps the
  // chunk's bytes alive until its last record, which takes it over.
  struct HandOutCursor {
    FetchedChunk chunk;
    GroupId group = 0;
    uint64_t chunk_index = 0;
    ProducerId producer = 0;
    ChunkView::RecordIterator next{std::span<const std::byte>{}};
  };
  HandOutCursor reading_;

  // Exactly-once state. epoch_ is immutable after Connect; the delivered
  // frontier and commit sequence are touched only by the application
  // thread (Poll/PollBlocking/Commit), so no locks.
  struct DeliveredPos {
    GroupId group = 0;
    uint64_t next_chunk = 0;
  };
  uint32_t epoch_ = 0;
  uint64_t commit_seq_ = 0;
  std::map<StreamletId, DeliveredPos> delivered_;

  // Hot-path counters are relaxed (touched per chunk / per poll).
  Stats stats_;
};

}  // namespace kera
