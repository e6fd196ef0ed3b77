#include "client/producer.h"

#include <array>
#include <map>

#include "common/logging.h"
#include "rpc/call.h"

namespace kera {
namespace {

uint64_t HashBytes(std::span<const std::byte> data) {
  // FNV-1a
  uint64_t h = 1469598103934665603ull;
  for (std::byte b : data) {
    h ^= uint64_t(b);
    h *= 1099511628211ull;
  }
  return h;
}

bool AppendTo(ChunkBuilder& builder, std::span<const std::byte> key,
              std::span<const std::byte> value) {
  if (key.empty()) return builder.AppendValue(value);
  std::span<const std::byte> keys[] = {key};
  return builder.AppendRecord(keys, value);
}

}  // namespace

Producer::Producer(ProducerConfig config, rpc::Network& network)
    : config_(std::move(config)), network_(network) {
  free_builders_.reserve(config_.chunk_pool_size);
  for (size_t i = 0; i < config_.chunk_pool_size; ++i) {
    free_builders_.push_back(std::make_unique<ChunkBuilder>(config_.chunk_size));
  }
}

Producer::~Producer() { (void)Close(); }

Status Producer::Connect() {
  auto resp = rpc::Call(network_, kCoordinatorNode,
                        rpc::GetStreamInfoRequest{config_.stream});
  if (!resp.ok()) return resp.status();
  info_ = resp->info;
  if (config_.exactly_once) {
    // Idempotent-producer handshake: the coordinator bumps this producer
    // id's epoch, fencing any prior instance still in flight.
    auto session = rpc::Call(network_, kCoordinatorNode,
                             rpc::AllocateProducerRequest{config_.producer_id});
    if (!session.ok()) return session.status();
    epoch_ = session->epoch;
  }
  open_ = std::vector<OpenChunk>(info_.streamlet_brokers.size());
  running_.store(true, std::memory_order_release);
  requests_thread_ = std::thread([this] { RequestsLoop(); });
  return OkStatus();
}

Status Producer::Send(std::span<const std::byte> value) {
  uint32_t m = uint32_t(info_.streamlet_brokers.size());
  StreamletId streamlet = StreamletId(round_robin_++ % m);
  return SendRecord({}, value, streamlet);
}

Status Producer::SendKeyed(std::span<const std::byte> key,
                           std::span<const std::byte> value) {
  uint32_t m = uint32_t(info_.streamlet_brokers.size());
  StreamletId streamlet = StreamletId(HashBytes(key) % m);
  return SendRecord(key, value, streamlet);
}

Status Producer::SendRecord(std::span<const std::byte> key,
                            std::span<const std::byte> value,
                            StreamletId streamlet) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "producer not connected");
  }
  if (failed_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "producer request loop failed");
  }
  std::unique_lock<std::mutex> lock(mu_);
  OpenChunk& open = open_[streamlet];
  if (open.builder == nullptr || !AppendTo(*open.builder, key, value)) {
    // No records yet, or the chunk is full: seal it and start a fresh one.
    if (open.builder != nullptr) Seal(streamlet);
    KERA_RETURN_IF_ERROR(StartChunk(streamlet, lock));
    if (!AppendTo(*open.builder, key, value)) {
      free_builders_.push_back(TakeChunk(streamlet));
      return Status(StatusCode::kInvalidArgument, "record exceeds chunk size");
    }
  }
  ++stats_.records_sent;
  return OkStatus();
}

Status Producer::StartChunk(StreamletId streamlet,
                            std::unique_lock<std::mutex>& lock) {
  // Waiting for a builder implements producer backpressure when the
  // broker falls behind (the pooled chunks are ready or in flight).
  while (free_builders_.empty()) {
    if (stopping_) {
      return Status(StatusCode::kUnavailable, "producer shut down");
    }
    if (open_count_ == config_.chunk_pool_size &&
        linger_head_ != kNoStreamlet) {
      // Every pooled builder sits in an open chunk, so no ack can return
      // one: seal the oldest (Kafka's accumulator likewise drains batches
      // once its buffer is exhausted).
      Seal(linger_head_);
      continue;
    }
    source_cv_.wait(lock);
  }
  OpenChunk& open = open_[streamlet];
  open.builder = std::move(free_builders_.back());
  free_builders_.pop_back();
  open.builder->Start(info_.stream, streamlet, config_.producer_id, epoch_);
  open.ready_at = Clock::now() + std::chrono::microseconds(config_.linger_us);
  open.prev = linger_tail_;
  (linger_tail_ == kNoStreamlet ? linger_head_ : open_[linger_tail_].next) =
      streamlet;
  linger_tail_ = streamlet;
  ++open_count_;
  // An idle requests thread with no open chunk waits with no deadline: the
  // new linger head wakes it to arm the timer.
  if (linger_head_ == streamlet) ready_cv_.notify_one();
  return OkStatus();
}

std::unique_ptr<ChunkBuilder> Producer::TakeChunk(StreamletId streamlet) {
  OpenChunk& open = open_[streamlet];
  (open.prev == kNoStreamlet ? linger_head_ : open_[open.prev].next) =
      open.next;
  (open.next == kNoStreamlet ? linger_tail_ : open_[open.next].prev) =
      open.prev;
  open.prev = open.next = kNoStreamlet;
  --open_count_;
  return std::move(open.builder);
}

void Producer::Seal(StreamletId streamlet) {
  ChunkSeq seq = ++open_[streamlet].last_seq;
  SealedChunk sealed;
  sealed.builder = TakeChunk(streamlet);
  sealed.bytes = sealed.builder->Seal(seq).size();
  sealed.streamlet = streamlet;
  sealed.broker = info_.streamlet_brokers[streamlet];
  ++chunks_enqueued_;
  ready_.push_back(std::move(sealed));
  ++stats_.chunks_sent;
  ready_cv_.notify_one();
}

void Producer::SealLingered(Clock::time_point now) {
  while (linger_head_ != kNoStreamlet && open_[linger_head_].ready_at <= now) {
    Seal(linger_head_);
  }
}

bool Producer::NextRound(std::vector<SealedChunk>& round) {
  std::unique_lock<std::mutex> lock(mu_);
  // The requests thread is the only linger timer. The chunks that lingered
  // out while the previous round was in flight go into this one; then it
  // sleeps until a chunk is ready, the linger list's head reaches its
  // deadline, or the producer stops.
  for (;;) {
    SealLingered(Clock::now());
    if (!ready_.empty() || stopping_) break;
    if (linger_head_ == kNoStreamlet) {
      ready_cv_.wait(lock);
    } else {
      ready_cv_.wait_until(lock, open_[linger_head_].ready_at);
    }
  }
  // Up to request_size per broker: the chunk that crosses a broker's cap
  // still rides in this round, the rest wait for the next.
  std::map<NodeId, size_t> broker_bytes;
  while (!ready_.empty()) {
    SealedChunk& c = ready_.front();
    const bool full =
        (broker_bytes[c.broker] += c.bytes) > config_.request_size;
    round.push_back(std::move(c));
    ready_.pop_front();
    if (full) break;
  }
  return !round.empty();
}

void Producer::RequestsLoop() {
  std::vector<SealedChunk> round;
  while (NextRound(round)) {
    std::map<NodeId, std::vector<SealedChunk>> per_broker;
    for (SealedChunk& c : round) per_broker[c.broker].push_back(std::move(c));
    round.clear();

    // One request per broker; issue them in parallel. The frame stays in
    // scatter-gather form: the Writer's inline runs plus spans into the
    // sealed chunk builders, both owned by the InFlight entry — alive
    // until every retry round's futures have resolved, as the parts send
    // path requires. Vectoring transports (SocketNetwork) put these
    // pieces on the wire without ever materializing the frame.
    struct InFlight {
      NodeId broker;
      rpc::Writer body;
      std::array<std::byte, 2> opcode;
      std::vector<SealedChunk> chunks;
    };
    std::vector<InFlight> requests;
    auto add_request = [&](NodeId broker, std::vector<SealedChunk> chunks) {
      rpc::ProduceRequest req;
      req.producer = config_.producer_id;
      req.stream = info_.stream;
      for (auto& c : chunks) req.chunks.push_back(c.builder->SealedView());
      InFlight& inflight = requests.emplace_back();
      inflight.broker = broker;
      inflight.body = rpc::Writer(64);
      req.Encode(inflight.body);
      inflight.chunks = std::move(chunks);
    };
    for (auto& [broker, chunks] : per_broker) {
      add_request(broker, std::move(chunks));
    }

    // Issue the whole round over CallAsync and collect; brokers that fail
    // are retried together in the next attempt round.
    auto start = std::chrono::steady_clock::now();
    std::vector<size_t> pending(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) pending[i] = i;
    for (int attempt = 0;
         attempt <= config_.request_retries && !pending.empty(); ++attempt) {
      if (attempt > 0) {
        // The broker a chunk was sealed against may no longer lead its
        // streamlet (crash recovery or migration mid-flight). Re-resolve
        // leaders and, if any moved, re-partition the pending sealed
        // chunks to the current leaders — the sealed frames are reused
        // byte for byte, so the retry carries the same (pid, seq, epoch)
        // and the new leader's dedup state (rebuilt from the backups)
        // recognizes anything the old leader already accepted.
        std::vector<NodeId> leaders;
        if (FetchLeaders(&leaders)) {
          bool moved = false;
          for (size_t i : pending) {
            for (const SealedChunk& c : requests[i].chunks) {
              if (c.streamlet < leaders.size() &&
                  leaders[c.streamlet] != requests[i].broker) {
                moved = true;
                break;
              }
            }
            if (moved) break;
          }
          if (moved) {
            ++stats_.retry_repartitions;
            std::map<NodeId, std::vector<SealedChunk>> regrouped;
            for (size_t i : pending) {
              for (auto& c : requests[i].chunks) {
                if (c.streamlet < leaders.size()) {
                  c.broker = leaders[c.streamlet];
                }
                regrouped[c.broker].push_back(std::move(c));
              }
              requests[i].chunks.clear();
            }
            std::vector<size_t> repointed;
            for (auto& [broker, chunks] : regrouped) {
              repointed.push_back(requests.size());
              add_request(broker, std::move(chunks));
            }
            pending = std::move(repointed);
          }
        }
      }
      std::vector<std::future<Result<std::vector<std::byte>>>> futures;
      futures.reserve(pending.size());
      for (size_t i : pending) {
        rpc::BytesRefParts parts = rpc::FrameAsParts(
            rpc::ProduceRequest::kOpcode, requests[i].body, requests[i].opcode);
        futures.push_back(
            network_.CallAsyncParts(requests[i].broker, parts));
      }
      std::vector<size_t> still_pending;
      for (size_t f = 0; f < futures.size(); ++f) {
        InFlight& inflight = requests[pending[f]];
        auto raw = [&]() -> Result<std::vector<std::byte>> {
          try {
            return futures[f].get();
          } catch (const std::future_error&) {
            // Network shut down with the call in flight.
            return Status(StatusCode::kUnavailable, "network stopped");
          }
        }();
        bool ok = false;
        bool fenced = false;
        if (raw.ok()) {
          rpc::Reader r(*raw);
          auto resp = rpc::ProduceResponse::Decode(r);
          if (resp.ok() && resp->status == StatusCode::kFenced) {
            // A newer instance of this producer id exists; no retry can
            // ever succeed. Fail permanently instead of burning retries.
            fenced = true;
          }
          if (resp.ok() && resp->status == StatusCode::kOk) {
            ++stats_.requests_sent;
            stats_.duplicates_reported += resp->duplicates;
            stats_.bytes_sent += inflight.opcode.size() + inflight.body.size();
            auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
            {
              std::lock_guard<std::mutex> lock(mu_);
              stats_.request_latency_us.Record(uint64_t(us));
            }
            ok = true;
          }
        }
        if (ok) {
          AckChunks(inflight.chunks);
        } else if (fenced) {
          ++stats_.fenced_rejections;
          ++stats_.request_failures;
          failed_.store(true, std::memory_order_release);
          AckChunks(inflight.chunks);
        } else {
          still_pending.push_back(pending[f]);
        }
      }
      pending = std::move(still_pending);
    }
    for (size_t i : pending) {
      ++stats_.request_failures;
      failed_.store(true, std::memory_order_release);
      // Recycle builders even on failure: the producer is now failed and
      // Send() will refuse further records.
      AckChunks(requests[i].chunks);
    }
  }
}

bool Producer::FetchLeaders(std::vector<NodeId>* leaders) {
  auto resp = rpc::Call(network_, kCoordinatorNode,
                        rpc::GetStreamInfoRequest{config_.stream});
  if (!resp.ok()) return false;
  *leaders = resp->info.streamlet_brokers;
  return true;
}

void Producer::AckChunks(std::vector<SealedChunk>& chunks) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& c : chunks) free_builders_.push_back(std::move(c.builder));
    chunks_acked_ += chunks.size();
  }
  source_cv_.notify_all();
}

Status Producer::Flush() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (linger_head_ != kNoStreamlet) Seal(linger_head_);
    const uint64_t target = chunks_enqueued_;
    source_cv_.wait(lock, [&] { return chunks_acked_ >= target; });
  }
  // Chunks are also recycled on permanent failure; only a clean run counts.
  if (failed_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kUnavailable, "produce requests failed");
  }
  return OkStatus();
}

Status Producer::Close() {
  if (!running_.exchange(false)) return OkStatus();
  Status s = Flush();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  source_cv_.notify_all();
  if (requests_thread_.joinable()) requests_thread_.join();
  return s;
}

Producer::Stats Producer::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.chunks_acked = chunks_acked_;
  return out;
}

}  // namespace kera
