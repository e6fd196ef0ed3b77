// Producer client (paper Fig. 6): two threads communicating through
// shared memory. The caller's thread acts as the Source — Send() appends
// records into per-streamlet chunk builders (recycled through a pool),
// doing O(1) work per record whatever the streamlet count. Sealed chunks
// wait in a ready queue for the Requests thread, whose rounds are the
// only send path: a round groups the ready chunks by their streamlet's
// current leader, ships one request per leader (up to kRequestBytes of
// chunks each) and settles every chunk from its reply. An acked chunk
// returns its builder to the pool. A chunk to retry goes back to the
// head of the ready queue, in order, and the next round carries it to
// the leaders one coordinator lookup has refreshed; the re-send is the
// same sealed bytes, so the broker's dedup on chunk sequences stores it
// once. A chunk fails for good after request_retries retries, or at once
// on a status no retry can change. One round of requests is in flight at
// a time, which also keeps each streamlet's chunks in sequence order
// across a retry.
//
// Linger (Kafka's linger.ms, as its accumulator applies it): a chunk is
// ready once linger_us has passed since its first record, and it is
// sealed when the Requests thread can take it. The Requests thread is the
// only linger timer: while idle it sleeps until the oldest open chunk's
// deadline and seals it then, whether or not more records arrive; while
// a round is in flight the chunk keeps taking records, and the Requests
// thread seals every ready chunk when the round completes. A full chunk
// and Flush() seal at once.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "client/client_config.h"
#include "common/histogram.h"
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

  /// Appends one non-keyed record (round-robin over streamlets); seals
  /// the chunk at once if the record does not fit. Lingered chunks are
  /// the requests thread's to seal, not Send's. Blocks when the chunk
  /// pool is exhausted (backpressure); when every pooled builder is held
  /// by an open chunk, the oldest open chunk is sealed first, so no
  /// streamlet count can deadlock the pool.
  Status Send(std::span<const std::byte> value);

  /// Appends one keyed record (streamlet = hash(key) % M).
  Status SendKeyed(std::span<const std::byte> key,
                   std::span<const std::byte> value);

  /// Pushes all buffered chunks and waits until every chunk sent so far
  /// has been acknowledged or has failed for good; fails once any chunk
  /// has.
  Status Flush();

  /// Flush + stop the requests thread.
  Status Close();

  struct Stats {
    Counter records_sent;
    Counter chunks_sent;
    uint64_t chunks_acked = 0;  // read from chunks_acked_ by GetStats
    Counter duplicates_reported;
    Counter requests_sent;
    /// Requests that ended one or more of their chunks for good.
    Counter request_failures;
    /// Requests rejected with kFenced: a newer instance of this producer
    /// id was allocated, so this one stopped permanently (no retries).
    Counter fenced_rejections;
    Counter bytes_sent;
    /// Leader lookups after a round with chunks to retry that found a
    /// streamlet's leader moved (crash recovery or migration): later
    /// rounds send that streamlet's chunks to its new leader.
    Counter retry_repartitions;
    Histogram request_latency_us;  // guarded by mu_
  };
  [[nodiscard]] Stats GetStats() const;

  [[nodiscard]] const rpc::StreamInfo& stream_info() const { return info_; }

  /// Coordinator-assigned session epoch (0 unless exactly_once).
  [[nodiscard]] uint32_t session_epoch() const { return epoch_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct SealedChunk {
    std::unique_ptr<ChunkBuilder> builder;
    StreamletId streamlet = 0;
    size_t bytes = 0;
    int failed_attempts = 0;
  };
  /// One request of a round: the chunks bound for one leader, the frame's
  /// inline runs and the reply. The frame is sent in scatter-gather form,
  /// its spans pointing into `body`, `opcode` and the chunks' builders, so
  /// a Request stays put until its reply is collected.
  struct Request {
    std::vector<SealedChunk> chunks;
    rpc::Writer body{64};
    std::array<std::byte, 2> opcode{};
    std::future<Result<std::vector<std::byte>>> reply;
  };
  /// Chunk bytes per leader per round: the chunk that crosses it still
  /// rides in the round, the rest wait for the next.
  static constexpr size_t kRequestBytes = size_t(1) << 20;
  static constexpr StreamletId kNoStreamlet = ~StreamletId{0};
  /// Per-streamlet source state. A chunk holds a pooled builder only while
  /// it has records; those chunks form the linger list, an intrusive
  /// doubly linked list over the slots in first-record order, so the
  /// chunks past their linger deadline are always a prefix of it.
  struct OpenChunk {
    std::unique_ptr<ChunkBuilder> builder;
    Clock::time_point ready_at{};  // first record's time + linger_us
    ChunkSeq last_seq = 0;  // sequences start at 1
    StreamletId prev = kNoStreamlet;
    StreamletId next = kNoStreamlet;
  };

  Status SendRecord(std::span<const std::byte> key,
                    std::span<const std::byte> value, StreamletId streamlet);
  /// Gives the streamlet's empty slot a started builder and links it at
  /// the linger list's tail (waking the requests thread if it is the
  /// head); waits on `lock` while the pool is empty.
  Status StartChunk(StreamletId streamlet, std::unique_lock<std::mutex>& lock);
  /// Unlinks the streamlet's open chunk and hands over its builder.
  std::unique_ptr<ChunkBuilder> TakeChunk(StreamletId streamlet);
  /// Seals the streamlet's open (non-empty) chunk and queues it as ready.
  void Seal(StreamletId streamlet);
  /// Seals the prefix of the linger list whose deadline has passed.
  void SealLingered(Clock::time_point now);
  /// Seals lingered chunks as their deadlines pass until chunks are
  /// ready, then moves the next round's chunks into `round`, one Request
  /// per current leader. Returns false once the producer is stopping and
  /// nothing is left to send.
  bool NextRound(std::map<NodeId, Request>& round);
  void RequestsLoop();
  /// Collects a request's reply and settles its chunks: acked and failed
  /// chunks recycle their builders, chunks to retry are appended to
  /// `retry` in request order with one more failed attempt counted.
  void Settle(Request& request, Clock::time_point start,
              std::vector<SealedChunk>& retry);
  /// Recycles the chunks' builders into the pool, counts them acked and
  /// wakes a Send waiting for a builder or a Flush waiting for acks.
  void AckChunks(std::vector<SealedChunk>& chunks);

  const ProducerConfig config_;
  rpc::Network& network_;
  rpc::StreamInfo info_;
  /// Session epoch from the Connect() handshake (0 = exactly_once off;
  /// chunks then keep the classic 56-byte header). Immutable after
  /// Connect, so both threads read it freely.
  uint32_t epoch_ = 0;
  size_t round_robin_ = 0;  // source thread only
  /// Each streamlet's current leader, as the last coordinator lookup saw
  /// it (requests thread only; info_ stays as Connect read it, so the
  /// source thread reads it without locks).
  std::vector<NodeId> leaders_;

  // The chunk hand-off between the two threads (the paper's shared-memory
  // chunk recycling): open chunks, sealed chunks waiting for a round and
  // free builders, plus the ack count Flush() waits on. open_ is indexed
  // by streamlet id and sized at Connect.
  mutable std::mutex mu_;
  std::vector<OpenChunk> open_;
  StreamletId linger_head_ = kNoStreamlet;  // oldest first record
  StreamletId linger_tail_ = kNoStreamlet;
  size_t open_count_ = 0;  // chunks holding a builder (linger list length)
  std::deque<SealedChunk> ready_;
  std::vector<std::unique_ptr<ChunkBuilder>> free_builders_;
  bool stopping_ = false;
  uint64_t chunks_enqueued_ = 0;
  uint64_t chunks_acked_ = 0;
  std::condition_variable ready_cv_;   // requests: ready_, linger head, stop
  std::condition_variable source_cv_;  // Send/Flush: builders, acks, stop

  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};

  std::thread requests_thread_;

  Stats stats_;
};

}  // namespace kera
