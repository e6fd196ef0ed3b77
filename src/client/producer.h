// Producer client (paper Fig. 6): two threads communicating through
// shared memory. The caller's thread acts as the Source — Send() appends
// records into per-streamlet chunk builders (recycled through a pool) and
// hands filled or lingered chunks over an internal queue, doing O(1) work
// per record whatever the streamlet count. The Requests thread batches
// one chunk per streamlet into a request per broker (up to request_size)
// and pushes them over the network, retrying on errors (exactly-once is
// guaranteed by broker-side dedup on chunk sequences).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "client/client_config.h"
#include "common/histogram.h"
#include "common/queue.h"
#include "common/status.h"
#include "common/sync.h"
#include "rpc/messages.h"
#include "rpc/transport.h"
#include "wire/chunk.h"

namespace kera {

class Producer {
 public:
  Producer(ProducerConfig config, rpc::Network& network);
  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Fetches stream metadata and starts the requests thread.
  Status Connect();

  /// Appends one non-keyed record (round-robin over streamlets). First
  /// seals every chunk whose first record is at least linger_us old.
  /// Blocks when the chunk pool is exhausted (backpressure); when every
  /// pooled builder is held by an open chunk, the oldest open chunk is
  /// sealed first, so no streamlet count can deadlock the pool.
  Status Send(std::span<const std::byte> value);

  /// Appends one keyed record (streamlet = hash(key) % M).
  Status SendKeyed(std::span<const std::byte> key,
                   std::span<const std::byte> value);

  /// Pushes all buffered chunks and waits until every chunk sent so far
  /// has been acknowledged.
  Status Flush();

  /// Flush + stop the requests thread.
  Status Close();

  struct Stats {
    Counter records_sent;
    Counter chunks_sent;
    uint64_t chunks_acked = 0;  // read from chunks_acked_ by GetStats
    Counter duplicates_reported;
    Counter requests_sent;
    Counter request_failures;
    /// Requests rejected with kFenced: a newer instance of this producer
    /// id was allocated, so this one stopped permanently (no retries).
    Counter fenced_rejections;
    Counter bytes_sent;
    /// Retry rounds that re-partitioned pending sealed chunks to moved
    /// streamlet leaders (crash recovery / migration while in flight).
    Counter retry_repartitions;
    Histogram request_latency_us;
  };
  [[nodiscard]] Stats GetStats() const;

  [[nodiscard]] const rpc::StreamInfo& stream_info() const { return info_; }

  /// Coordinator-assigned session epoch (0 unless exactly_once).
  [[nodiscard]] uint32_t session_epoch() const { return epoch_; }

 private:
  struct SealedChunk {
    std::unique_ptr<ChunkBuilder> builder;
    StreamletId streamlet = 0;
    NodeId broker = 0;
    size_t bytes = 0;
    uint32_t records = 0;
  };
  static constexpr StreamletId kNoStreamlet = ~StreamletId{0};
  /// Per-streamlet source state. A chunk holds a pooled builder only while
  /// it has records; those chunks form the linger list, an intrusive
  /// doubly linked list over the slots in first-record order, so the
  /// expired chunks are always a prefix of it.
  struct OpenChunk {
    std::unique_ptr<ChunkBuilder> builder;
    std::chrono::steady_clock::time_point first_record_at{};
    ChunkSeq last_seq = 0;  // sequences start at 1
    StreamletId prev = kNoStreamlet;
    StreamletId next = kNoStreamlet;
  };

  Status SendRecord(std::span<const std::byte> key,
                    std::span<const std::byte> value, StreamletId streamlet);
  /// Re-resolves the stream's current streamlet leaders from the
  /// coordinator into `leaders` (requests-thread only; info_ itself stays
  /// immutable after Connect so the source thread reads it without locks).
  bool FetchLeaders(std::vector<NodeId>* leaders);
  /// Gives the streamlet's empty slot a started builder and links it at
  /// the linger list's tail.
  Status StartChunk(StreamletId streamlet);
  /// Unlinks the streamlet's open chunk and hands over its builder.
  std::unique_ptr<ChunkBuilder> TakeChunk(StreamletId streamlet);
  /// Seals the streamlet's open (non-empty) chunk and queues it.
  void SealAndEnqueue(StreamletId streamlet);
  /// Seals the expired prefix of the linger list.
  void MaybeLingerFlush();
  void RequestsLoop();
  /// Recycles the chunks' builders into the pool, bumps chunks_acked_ and
  /// wakes any Flush() waiter.
  void AckChunks(std::vector<SealedChunk>& chunks);

  const ProducerConfig config_;
  rpc::Network& network_;
  rpc::StreamInfo info_;
  /// Session epoch from the Connect() handshake (0 = exactly_once off;
  /// chunks then keep the classic 56-byte header). Immutable after
  /// Connect, so both threads read it freely.
  uint32_t epoch_ = 0;

  // Source-thread state (single caller thread by contract). open_ is
  // indexed by streamlet id and sized at Connect.
  std::vector<OpenChunk> open_;
  StreamletId linger_head_ = kNoStreamlet;  // oldest first record
  StreamletId linger_tail_ = kNoStreamlet;
  size_t open_count_ = 0;  // chunks holding a builder (linger list length)
  size_t round_robin_ = 0;

  // Shared: sealed chunks flowing to the requests thread, empty builders
  // flowing back (the paper's shared-memory chunk recycling).
  BlockingQueue<SealedChunk> sealed_;
  BlockingQueue<std::unique_ptr<ChunkBuilder>> pool_;
  std::atomic<uint64_t> chunks_enqueued_{0};
  std::atomic<uint64_t> chunks_acked_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};

  // Flush() sleeps here until the requests thread has acked (or given up
  // on) every chunk enqueued before the flush.
  std::mutex ack_mu_;
  std::condition_variable ack_cv_;

  std::thread requests_thread_;

  // Hot-path counters are relaxed Counters (Send/Seal touch them per
  // record or per chunk); only the latency histogram — one Record per
  // request — stays behind a mutex.
  mutable std::mutex latency_mu_;
  Stats stats_;  // request_latency_us guarded by latency_mu_
};

}  // namespace kera
