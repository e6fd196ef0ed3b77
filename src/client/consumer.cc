#include "client/consumer.h"

#include <chrono>
#include <future>
#include <utility>

#include "common/logging.h"
#include "rpc/call.h"

namespace kera {
namespace {
/// How many groups of one streamlet a consumer reads in parallel. Bounds
/// per-request entry counts; discovery opens more as groups drain.
constexpr size_t kMaxActiveGroups = 8;

/// Slice for waiting on the fetch in flight: short enough that Close()
/// returns promptly even while a long-poll is parked at the broker.
constexpr auto kFutureSlice = std::chrono::milliseconds(2);

/// Every fetch parks at the broker for up to this long (Kafka's
/// fetch.max.wait.ms) and returns once any chunk data is durable; the
/// broker also returns on group rollover, seal or timeout.
constexpr uint64_t kFetchMaxWaitUs = 50'000;
constexpr uint32_t kFetchMinBytes = 1;

/// Pause before the next fetch when the broker is unreachable or refuses
/// the fetch: one long-poll's length, so a broker that answers at once
/// with a refusal sees no more fetches than one that parks them.
constexpr auto kRetryBackoff = std::chrono::microseconds(kFetchMaxWaitUs);
}  // namespace

// ----- FetchBuffer ---------------------------------------------------------

void Consumer::FetchBuffer::Push(FetchedChunk fc) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    buffered_[fc.broker] += fc.bytes.size();
    items_.push_back(std::move(fc));
  }
  pop_cv_.notify_one();
}

std::optional<Consumer::FetchedChunk> Consumer::FetchBuffer::Pop(bool wait) {
  std::optional<FetchedChunk> out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wait) {
      pop_cv_.wait(lock, [&] { return shutdown_ || !items_.empty(); });
    }
    if (items_.empty()) return std::nullopt;
    out = std::move(items_.front());
    items_.pop_front();
    buffered_[out->broker] -= out->bytes.size();
  }
  budget_cv_.notify_all();
  return out;
}

bool Consumer::FetchBuffer::WaitBelowBudget(NodeId broker, size_t budget) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!shutdown_ && buffered_[broker] >= budget) {
    ++pauses_;
    budget_cv_.wait(
        lock, [&] { return shutdown_ || buffered_[broker] < budget; });
  }
  return !shutdown_;
}

void Consumer::FetchBuffer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  pop_cv_.notify_all();
  budget_cv_.notify_all();
}

uint64_t Consumer::FetchBuffer::pauses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pauses_;
}

// ----- Consumer ------------------------------------------------------------

Consumer::Consumer(ConsumerConfig config, rpc::Network& network)
    : config_(std::move(config)), network_(network) {}

Consumer::~Consumer() { Close(); }

GroupId Consumer::FirstOwnedGroupAtOrAfter(GroupId g) const {
  if (config_.share_count <= 1) return g;
  while (g % config_.share_count != config_.share_index) ++g;
  return g;
}

Status Consumer::Connect() {
  if (config_.share_count == 0 ||
      config_.share_index >= config_.share_count) {
    return Status(StatusCode::kInvalidArgument, "bad group share config");
  }
  if (config_.exactly_once && config_.share_count > 1) {
    // The committed cursor is a single per-streamlet position; group
    // sharing would interleave multiple members' frontiers into it.
    return Status(StatusCode::kInvalidArgument,
                  "exactly_once requires share_count == 1");
  }
  auto resp = rpc::Call(network_, kCoordinatorNode,
                        rpc::GetStreamInfoRequest{config_.stream});
  if (!resp.ok()) return resp.status();
  info_ = resp->info;
  if (config_.exactly_once) {
    if (info_.options.active_groups_per_streamlet != 1) {
      // Q > 1 interleaves groups, so "everything before (group,
      // next_chunk)" is no longer a contiguous prefix of the streamlet.
      return Status(StatusCode::kInvalidArgument,
                    "exactly_once requires one active group per streamlet");
    }
    // Session-epoch handshake under the consumer's system producer id:
    // a restarted consumer's commits fence its predecessor's.
    auto session = rpc::Call(
        network_, kCoordinatorNode,
        rpc::AllocateProducerRequest{
            ProducerId(0x80000000u | config_.consumer_id)});
    if (!session.ok()) return session.status();
    epoch_ = session->epoch;
  }

  assigned_ = config_.streamlets;
  if (assigned_.empty()) {
    for (StreamletId sl = 0; sl < info_.streamlet_brokers.size(); ++sl) {
      assigned_.push_back(sl);
    }
  }
  if (assigned_.empty()) {
    // Degenerate stream with no streamlets: nothing to ever fetch.
    finished_.store(true, std::memory_order_release);
    fetched_.Shutdown();
    return OkStatus();
  }
  std::map<NodeId, std::vector<StreamletId>> by_broker;
  for (StreamletId sl : assigned_) {
    by_broker[info_.streamlet_brokers[sl]].push_back(sl);
    // Every streamlet starts out awaiting its first owned group.
    StreamletState& state = states_[sl];
    state.next_unstarted = FirstOwnedGroupAtOrAfter(0);
    OpenGroups(state, /*sealed=*/false);
  }

  if (config_.exactly_once) {
    // Resume each streamlet from its last durably committed cursor: open
    // the committed group at the committed chunk index instead of the
    // beginning. Streamlets with no commit on record start from scratch.
    for (auto& [broker, sls] : by_broker) {
      auto fetched = rpc::Call(network_, broker,
                               rpc::FetchOffsetsRequest{info_.stream,
                                                        config_.consumer_id,
                                                        sls});
      if (!fetched.ok()) return fetched.status();
      for (const auto& e : fetched->entries) {
        if (!e.found) continue;
        auto sit = states_.find(e.streamlet);
        if (sit == states_.end()) continue;
        StreamletState& st = sit->second;
        st.active.clear();
        st.active.emplace(e.group, e.next_chunk);
        st.next_unstarted = FirstOwnedGroupAtOrAfter(e.group + 1);
        delivered_[e.streamlet] = DeliveredPos{e.group, e.next_chunk};
      }
    }
  }

  running_.store(true, std::memory_order_release);
  // One fetch worker per leader broker, so brokers are fetched in
  // parallel even on transports whose CallAsync runs inline.
  active_fetch_workers_.store(by_broker.size(), std::memory_order_release);
  for (auto& [broker, streamlets] : by_broker) {
    fetch_threads_.emplace_back(
        [this, broker = broker, streamlets = streamlets] {
          BrokerFetchLoop(broker, streamlets);
          // Last worker out closes the hand-off queue when the stream is
          // fully drained, so PollBlocking sees end-of-data.
          if (active_fetch_workers_.fetch_sub(
                  1, std::memory_order_acq_rel) == 1 &&
              finished_.load(std::memory_order_acquire)) {
            fetched_.Shutdown();
          }
        });
  }
  return OkStatus();
}

void Consumer::OpenGroups(StreamletState& state, bool sealed) {
  auto open_next = [&] {
    state.active.emplace(state.next_unstarted, 0);
    state.next_unstarted =
        FirstOwnedGroupAtOrAfter(state.next_unstarted + 1);
  };
  while (state.active.size() < kMaxActiveGroups &&
         state.next_unstarted < state.groups_created) {
    open_next();
  }
  if (!state.active.empty()) return;
  if (!sealed) {
    // Await the next owned group: the broker reports it as not created
    // until an append (or a rollover) creates it.
    open_next();
    return;
  }
  // End of stream: the stream is sealed, every created group this member
  // owns has been drained, and no further groups will ever appear.
  if (done_streamlets_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      assigned_.size()) {
    finished_.store(true, std::memory_order_release);
  }
}

bool Consumer::HandleEntry(
    NodeId broker, StreamletState& state,
    const rpc::ConsumeEntryResponse& entry,
    const std::shared_ptr<const std::vector<std::byte>>& buf) {
  if (entry.groups_created > state.groups_created) {
    state.groups_created = entry.groups_created;
  }
  auto it = state.active.find(entry.group);
  if (it == state.active.end()) return false;  // every entry echoes a cursor
  for (const auto& chunk_bytes : entry.chunks) {
    FetchedChunk fc;
    fc.streamlet = entry.streamlet;
    fc.broker = broker;
    fc.bytes = chunk_bytes;  // aliases the shared response buffer
    fc.response = buf;
    ++stats_.chunks_received;
    stats_.bytes_received += fc.bytes.size();
    fetched_.Push(std::move(fc));
  }
  it->second = entry.next_chunk;
  if (entry.group_closed || (entry.stream_sealed && !entry.group_exists)) {
    state.active.erase(it);
  }
  OpenGroups(state, entry.stream_sealed);
  return !entry.chunks.empty();
}

bool Consumer::ProcessResponse(NodeId broker, std::vector<std::byte> raw) {
  // Keep the response alive for as long as any fetched chunk aliases it;
  // decoded chunk spans point straight into this buffer.
  auto shared =
      std::make_shared<const std::vector<std::byte>>(std::move(raw));
  rpc::Reader r(*shared);
  auto resp = rpc::ConsumeResponse::Decode(r);
  if (!resp.ok() || resp->status != StatusCode::kOk) return false;
  bool got_data = false;
  for (auto& entry : resp->entries) {
    auto sit = states_.find(entry.streamlet);
    if (sit == states_.end()) continue;
    got_data |= HandleEntry(broker, sit->second, entry, shared);
  }
  if (!got_data) ++stats_.empty_responses;
  return true;
}

void Consumer::BrokerFetchLoop(NodeId broker,
                               const std::vector<StreamletId>& streamlets) {
  while (running_.load(std::memory_order_acquire)) {
    // One request carries every cursor of the broker's streamlets, so a
    // cursor is never in two requests and a group's chunks arrive in
    // order. A done streamlet holds no cursor: no entry means all done.
    rpc::ConsumeRequest req;
    req.stream = info_.stream;
    req.max_bytes = config_.max_bytes_per_request;
    req.max_wait_us = kFetchMaxWaitUs;
    req.min_bytes = kFetchMinBytes;
    for (StreamletId sl : streamlets) {
      for (const auto& [group, cursor] : states_.find(sl)->second.active) {
        req.entries.push_back(
            {sl, group, cursor, config_.max_chunks_per_entry});
      }
    }
    if (req.entries.empty()) return;
    // Flow control: pause this broker's prefetch until Poll drains.
    if (!fetched_.WaitBelowBudget(broker, config_.fetch_buffer_bytes)) {
      return;
    }
    auto future = network_.CallAsync(broker, rpc::Frame(req));
    ++stats_.requests_sent;
    // Wait in short slices so Close() returns promptly even while the
    // fetch is parked at the broker (the abandoned future just outlives
    // us via its shared state).
    while (future.wait_for(kFutureSlice) == std::future_status::timeout) {
      if (!running_.load(std::memory_order_acquire)) return;
    }
    auto raw = future.get();
    if (!raw.ok() || !ProcessResponse(broker, std::move(*raw))) {
      // Broker unreachable (or response dropped), or the fetch refused (a
      // restarted broker that no longer hosts the stream): back off, then
      // re-send the same cursors.
      std::this_thread::sleep_for(kRetryBackoff);
    }
  }
}

void Consumer::OpenChunk(FetchedChunk fetched) {
  auto parsed = ChunkView::Parse(fetched.bytes);
  if (!parsed.ok() || !parsed->VerifyChecksum()) {
    ++stats_.checksum_failures;
    return;
  }
  const ChunkView& chunk = *parsed;
  // The delivered frontier does NOT move here: Commit() must persist the
  // position of what Poll HANDED OUT, and opening runs ahead of that.
  // HandOut advances the frontier as it completes each chunk. System
  // chunks carry no user records, so their positions are covered only
  // once a later data chunk is handed out; re-reading a trailing system
  // chunk after a restart is harmless (it is skipped again, never
  // delivered).
  if ((chunk.flags() & kChunkFlagOffsetCommit) != 0) {
    // Cursor metadata, not user data.
    ++stats_.system_chunks_skipped;
    return;
  }
  reading_.group = chunk.group_id();
  reading_.chunk_index = chunk.group_chunk_index();
  reading_.producer = chunk.producer_id();
  reading_.next = chunk.records();
  reading_.chunk = std::move(fetched);
  stats_.records_consumed += chunk.record_count();
}

void Consumer::AdvanceDelivered(const ConsumedRecord& rec) {
  DeliveredPos& pos = delivered_[rec.streamlet];
  const uint64_t next = rec.chunk_index + 1;
  if (rec.group > pos.group) {
    pos.group = rec.group;
    pos.next_chunk = next;
  } else if (rec.group == pos.group && next > pos.next_chunk) {
    pos.next_chunk = next;
  }
}

std::vector<ConsumedRecord> Consumer::HandOut(size_t max_records,
                                              bool block) {
  std::vector<ConsumedRecord> out;
  // Exactly-once: never leave a chunk half-delivered. The committed
  // cursor is chunk-granular, so splitting a chunk across Polls would
  // make a commit between them either redeliver or skip the chunk's
  // remainder after a restart; round up to the boundary. (A chunk is
  // only opened while `out` has room, so once `out` is full the records
  // left in the cursor belong to out.back()'s chunk.)
  while (out.size() < max_records ||
         (config_.exactly_once && !out.empty() && !reading_.next.Done())) {
    if (reading_.next.Done()) {
      auto fetched = fetched_.Pop(
          block && out.empty() && running_.load(std::memory_order_acquire));
      if (!fetched) break;  // nothing buffered, or shut down and drained
      OpenChunk(std::move(*fetched));
      continue;
    }
    ConsumedRecord& rec = out.emplace_back();
    rec.streamlet = reading_.chunk.streamlet;
    rec.group = reading_.group;
    rec.chunk_index = reading_.chunk_index;
    rec.producer = reading_.producer;
    rec.value = reading_.next.record().value();
    reading_.next.Next();
    if (!reading_.next.Done()) {
      rec.response = reading_.chunk.response;
      continue;
    }
    // The chunk's last record takes over the cursor's hold on the
    // response, so an exhausted cursor pins nothing.
    rec.response = std::move(reading_.chunk.response);
    // This is the frontier Commit() persists.
    if (config_.exactly_once) AdvanceDelivered(rec);
  }
  return out;
}

std::vector<ConsumedRecord> Consumer::Poll(size_t max_records) {
  return HandOut(max_records, /*block=*/false);
}

std::vector<ConsumedRecord> Consumer::PollBlocking(size_t max_records) {
  return HandOut(max_records, /*block=*/true);
}

Status Consumer::Commit() {
  if (!config_.exactly_once) {
    return Status(StatusCode::kInvalidArgument,
                  "Commit requires exactly_once");
  }
  if (delivered_.empty()) return OkStatus();
  ++commit_seq_;
  std::map<NodeId, rpc::CommitOffsetsRequest> per_broker;
  for (const auto& [sl, pos] : delivered_) {
    auto& req = per_broker[info_.streamlet_brokers[sl]];
    req.stream = info_.stream;
    req.consumer = config_.consumer_id;
    req.commit_seq = commit_seq_;
    req.epoch = epoch_;
    rpc::CommitOffsetsRequest::Entry e;
    e.streamlet = sl;
    e.group = pos.group;
    e.next_chunk = pos.next_chunk;
    req.entries.push_back(e);
  }
  // One attempt per leader; callers treat a failed Commit as "position
  // not saved" and simply retry the next round (re-committing the same
  // frontier is idempotent broker-side).
  Status first = OkStatus();
  for (auto& [broker, req] : per_broker) {
    auto resp = rpc::Call(network_, broker, req);
    if (!resp.ok() && first.ok()) first = resp.status();
  }
  if (first.ok()) {
    ++stats_.offset_commits;
  }
  return first;
}

bool Consumer::Finished() const {
  return finished_.load(std::memory_order_acquire);
}

void Consumer::Close() {
  if (!running_.exchange(false)) return;
  fetched_.Shutdown();
  for (auto& t : fetch_threads_) {
    if (t.joinable()) t.join();
  }
  fetch_threads_.clear();
}

Consumer::Stats Consumer::GetStats() const {
  Stats out = stats_;
  out.flow_control_pauses = fetched_.pauses();
  return out;
}

}  // namespace kera
