#include "client/producer.h"

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
  leaders_ = info_.streamlet_brokers;
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

bool Producer::NextRound(std::map<NodeId, Request>& round) {
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
  std::map<NodeId, size_t> leader_bytes;
  while (!ready_.empty()) {
    SealedChunk& c = ready_.front();
    const NodeId leader = leaders_[c.streamlet];
    const bool full = (leader_bytes[leader] += c.bytes) > kRequestBytes;
    round[leader].chunks.push_back(std::move(c));
    ready_.pop_front();
    if (full) break;
  }
  return !round.empty();
}

void Producer::RequestsLoop() {
  std::map<NodeId, Request> round;
  while (NextRound(round)) {
    // One request per leader, all in flight together. Vectoring
    // transports (SocketNetwork) put the frame's pieces on the wire
    // without ever materializing it.
    const auto start = Clock::now();
    for (auto& [leader, request] : round) {
      rpc::ProduceRequest req;
      req.producer = config_.producer_id;
      req.stream = info_.stream;
      for (const SealedChunk& c : request.chunks) {
        req.chunks.push_back(c.builder->SealedView());
      }
      req.Encode(request.body);
      request.reply = network_.CallAsyncParts(
          leader, rpc::FrameAsParts(rpc::ProduceRequest::kOpcode,
                                    request.body, request.opcode));
    }
    std::vector<SealedChunk> retry;
    for (auto& [leader, request] : round) Settle(request, start, retry);
    round.clear();
    if (retry.empty()) continue;
    // A leader that refused its chunks may have lost their streamlets
    // (crash recovery or migration): one lookup refreshes every leader
    // before the next round carries the retries.
    auto fresh = rpc::Call(network_, kCoordinatorNode,
                           rpc::GetStreamInfoRequest{config_.stream});
    if (fresh.ok() && fresh->info.streamlet_brokers.size() == leaders_.size() &&
        fresh->info.streamlet_brokers != leaders_) {
      leaders_ = std::move(fresh->info.streamlet_brokers);
      ++stats_.retry_repartitions;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ready_.insert(ready_.begin(), std::make_move_iterator(retry.begin()),
                  std::make_move_iterator(retry.end()));
  }
}

void Producer::Settle(Request& request, Clock::time_point start,
                      std::vector<SealedChunk>& retry) {
  rpc::ProduceResponse resp;
  // A transport error or an undecodable reply is retried like kUnavailable.
  resp.status = StatusCode::kUnavailable;
  try {
    auto raw = request.reply.get();
    if (raw.ok()) {
      rpc::Reader r(*raw);
      if (auto decoded = rpc::ProduceResponse::Decode(r); decoded.ok()) {
        resp = *decoded;
      }
    }
  } catch (const std::future_error&) {
    // Network shut down with the call in flight.
  }
  if (resp.status == StatusCode::kOk) {
    ++stats_.requests_sent;
    stats_.duplicates_reported += resp.duplicates;
    stats_.bytes_sent += request.opcode.size() + request.body.size();
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - start)
                  .count();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.request_latency_us.Record(uint64_t(us));
    }
    AckChunks(request.chunks);
    return;
  }
  // Statuses no retry can change. kFenced: a newer instance of this
  // producer id exists. kSegmentClosed: the stream is sealed. Both end
  // every chunk of the request. kInvalidArgument is about the bytes of
  // the one chunk the broker stopped at (longer than a segment, or of
  // another stream): it alone ends, and the others retry.
  const bool final_for_all = resp.status == StatusCode::kFenced ||
                             resp.status == StatusCode::kSegmentClosed;
  const size_t rejected = resp.status == StatusCode::kInvalidArgument
                              ? size_t(resp.appended) + resp.duplicates
                              : request.chunks.size();
  if (resp.status == StatusCode::kFenced) ++stats_.fenced_rejections;
  std::vector<SealedChunk> failed;
  for (size_t i = 0; i < request.chunks.size(); ++i) {
    SealedChunk& c = request.chunks[i];
    if (final_for_all || i == rejected ||
        ++c.failed_attempts > config_.request_retries) {
      failed.push_back(std::move(c));
    } else {
      retry.push_back(std::move(c));
    }
  }
  if (failed.empty()) return;
  // Failed chunks are recycled too: the producer is now failed, and Send()
  // refuses further records.
  ++stats_.request_failures;
  failed_.store(true, std::memory_order_release);
  AckChunks(failed);
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
