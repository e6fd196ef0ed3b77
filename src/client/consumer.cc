#include "client/consumer.h"

#include <chrono>
#include <deque>
#include <future>
#include <set>
#include <utility>

#include "common/logging.h"
#include "rpc/call.h"

namespace kera {
namespace {
/// How many groups of one streamlet a consumer reads in parallel. Bounds
/// per-request entry counts; discovery opens more as groups drain.
constexpr size_t kMaxActiveGroups = 8;

/// Sentinel group key marking a discovery probe (never a real cursor).
constexpr GroupId kProbeGroup = ~GroupId(0);

/// Slice for waiting on in-flight futures: short enough that Close()
/// returns promptly even while a long-poll is parked at the broker.
constexpr auto kFutureSlice = std::chrono::milliseconds(2);

/// Pause before the next fetch round when a broker is unreachable, when
/// every cursor is momentarily unavailable, or, with long-poll off
/// (fetch_max_wait_us == 0), after an empty response.
constexpr auto kIdleBackoff = std::chrono::microseconds(200);

/// A long-polled fetch returns once any chunk data is durable (the broker
/// also returns on group rollover, seal or timeout).
constexpr uint32_t kFetchMinBytes = 1;
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

std::optional<Consumer::FetchedChunk> Consumer::FetchBuffer::TryPop() {
  std::optional<FetchedChunk> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    out = std::move(items_.front());
    items_.pop_front();
    buffered_[out->broker] -= out->bytes.size();
  }
  budget_cv_.notify_all();
  return out;
}

std::optional<Consumer::FetchedChunk> Consumer::FetchBuffer::Pop() {
  std::optional<FetchedChunk> out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    pop_cv_.wait(lock, [&] { return shutdown_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // shut down and drained
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
  if (config_.fetch_pipeline_depth == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "fetch_pipeline_depth must be >= 1");
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
  for (StreamletId sl : assigned_) {
    StreamletState state;
    state.next_unstarted = FirstOwnedGroupAtOrAfter(0);
    states_[sl] = state;
  }

  if (config_.exactly_once) {
    // Resume each streamlet from its last durably committed cursor: open
    // the committed group at the committed chunk index instead of the
    // beginning. Streamlets with no commit on record start from scratch.
    std::map<NodeId, std::vector<StreamletId>> fetch_by_broker;
    for (StreamletId sl : assigned_) {
      fetch_by_broker[info_.streamlet_brokers[sl]].push_back(sl);
    }
    for (auto& [broker, sls] : fetch_by_broker) {
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
  std::map<NodeId, std::vector<StreamletId>> by_broker;
  for (StreamletId sl : assigned_) {
    by_broker[info_.streamlet_brokers[sl]].push_back(sl);
  }
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

void Consumer::OpenDiscoveredGroups(StreamletState& state) {
  while (state.active.size() < kMaxActiveGroups &&
         state.next_unstarted < state.groups_created) {
    state.active.emplace(state.next_unstarted, 0);
    state.next_unstarted =
        FirstOwnedGroupAtOrAfter(state.next_unstarted + 1);
  }
}

void Consumer::MarkStreamletDone(StreamletState& state) {
  if (state.done) return;
  state.done = true;
  if (done_streamlets_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      assigned_.size()) {
    finished_.store(true, std::memory_order_release);
  }
}

void Consumer::HandleEntry(
    NodeId broker, StreamletState& state,
    const rpc::ConsumeEntryResponse& entry,
    const std::shared_ptr<const std::vector<std::byte>>& buf,
    bool* got_data) {
  if (entry.groups_created > state.groups_created) {
    state.groups_created = entry.groups_created;
  }
  auto it = state.active.find(entry.group);
  if (it == state.active.end()) {
    OpenDiscoveredGroups(state);
    // A probe entry for a group that does not exist yet: end-of-stream if
    // the stream is sealed and nothing more can appear.
    if (entry.stream_sealed && state.active.empty() &&
        state.next_unstarted >= state.groups_created) {
      MarkStreamletDone(state);
    }
    return;
  }
  for (const auto& chunk_bytes : entry.chunks) {
    FetchedChunk fc;
    fc.streamlet = entry.streamlet;
    fc.broker = broker;
    fc.bytes = chunk_bytes;  // aliases the shared response buffer
    fc.response = buf;
    ++stats_.chunks_received;
    stats_.bytes_received += fc.bytes.size();
    fetched_.Push(std::move(fc));
    *got_data = true;
  }
  it->second = entry.next_chunk;
  if (entry.group_closed) {
    // This group is fully consumed; discovery opens the next one.
    state.active.erase(it);
  }
  OpenDiscoveredGroups(state);
  // End-of-stream: the stream is sealed, every created group this member
  // owns has been drained, and no further groups will ever appear.
  if (entry.stream_sealed && state.active.empty() &&
      state.next_unstarted >= state.groups_created) {
    MarkStreamletDone(state);
  }
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
    StreamletState& state = sit->second;
    // A probe that found its group: open it before handling.
    if (state.active.count(entry.group) == 0 &&
        entry.group == state.next_unstarted &&
        (entry.group_exists || !entry.chunks.empty())) {
      state.active.emplace(entry.group, 0);
      state.next_unstarted = FirstOwnedGroupAtOrAfter(entry.group + 1);
    }
    HandleEntry(broker, state, entry, shared, &got_data);
  }
  if (!got_data) ++stats_.empty_responses;
  return got_data;
}

void Consumer::BrokerFetchLoop(NodeId broker,
                               const std::vector<StreamletId>& streamlets) {
  struct InFlight {
    std::future<Result<std::vector<std::byte>>> future;
    // Cursors / probes covered, released when the response lands so the
    // next round can re-issue them (one outstanding request per group
    // keeps per-group chunk order).
    std::vector<std::pair<StreamletId, GroupId>> groups;
    std::vector<StreamletId> probes;
  };
  std::deque<InFlight> inflight;
  std::set<std::pair<StreamletId, GroupId>> outstanding;
  std::set<StreamletId> probing;
  bool idle = false;  // all-empty responses -> collapse to one long-poll

  while (running_.load(std::memory_order_acquire)) {
    // Collect the cursors that are free to fetch right now.
    size_t done_count = 0;
    std::vector<rpc::ConsumeEntryRequest> avail;
    std::vector<std::pair<StreamletId, GroupId>> keys;  // parallel to avail
    for (StreamletId sl : streamlets) {
      StreamletState& state = states_.find(sl)->second;
      if (state.done) {
        ++done_count;
        continue;
      }
      OpenDiscoveredGroups(state);
      if (state.active.empty()) {
        if (probing.count(sl) != 0) continue;
        rpc::ConsumeEntryRequest e;
        e.streamlet = sl;
        e.group = state.next_unstarted;
        e.start_chunk = 0;
        e.max_chunks = config_.max_chunks_per_entry;
        avail.push_back(e);
        keys.emplace_back(sl, kProbeGroup);
      } else {
        for (const auto& [group, cursor] : state.active) {
          if (outstanding.count({sl, group}) != 0) continue;
          rpc::ConsumeEntryRequest e;
          e.streamlet = sl;
          e.group = group;
          e.start_chunk = cursor;
          e.max_chunks = config_.max_chunks_per_entry;
          avail.push_back(e);
          keys.emplace_back(sl, group);
        }
      }
    }
    if (done_count == streamlets.size() && inflight.empty()) return;

    // Issue: stripe the available entries over the free pipeline slots.
    // Idle mode sends a single request that long-polls at the broker
    // (never more than one parked RPC per broker, so transport workers
    // are not hoarded); streaming mode fills the pipeline with wait-0
    // fetches.
    const size_t depth = config_.fetch_pipeline_depth;
    size_t slots = depth > inflight.size() ? depth - inflight.size() : 0;
    size_t nreq = 0;
    if (!avail.empty() && slots > 0) {
      nreq = idle && config_.fetch_max_wait_us > 0
                 ? (inflight.empty() ? 1 : 0)
                 : std::min(slots, avail.size());
    }
    for (size_t rq = 0; rq < nreq; ++rq) {
      // Flow control: pause this broker's prefetch until Poll drains.
      if (!fetched_.WaitBelowBudget(broker, config_.fetch_buffer_bytes)) {
        return;
      }
      rpc::ConsumeRequest req;
      req.stream = info_.stream;
      req.max_bytes = config_.max_bytes_per_request;
      if (idle) {
        req.max_wait_us = config_.fetch_max_wait_us;
        req.min_bytes = kFetchMinBytes;
      }
      InFlight inf;
      // Contiguous block per request (avail is ordered by streamlet):
      // each pipelined request covers a run of neighboring streamlets
      // instead of a stride across all of them, so on a sharded broker
      // the request's entries mostly share a home shard and the frame
      // router keeps it off the cross-shard slow path.
      const size_t begin = rq * avail.size() / nreq;
      const size_t end = (rq + 1) * avail.size() / nreq;
      for (size_t i = begin; i < end; ++i) {
        req.entries.push_back(avail[i]);
        if (keys[i].second == kProbeGroup) {
          probing.insert(keys[i].first);
          inf.probes.push_back(keys[i].first);
        } else {
          outstanding.insert(keys[i]);
          inf.groups.push_back(keys[i]);
        }
      }
      inf.future = network_.CallAsync(broker, rpc::Frame(req));
      ++stats_.requests_sent;
      inflight.push_back(std::move(inf));
    }

    if (inflight.empty()) {
      // Every cursor is done or momentarily unavailable; don't spin.
      std::this_thread::sleep_for(kIdleBackoff);
      continue;
    }

    // Wait for the oldest in-flight response, in short slices so Close()
    // returns promptly even while a long-poll is parked at the broker
    // (the abandoned future just outlives us via its shared state).
    InFlight front = std::move(inflight.front());
    inflight.pop_front();
    bool ready = false;
    for (;;) {
      auto st = front.future.wait_for(kFutureSlice);
      if (st != std::future_status::timeout) {  // ready (or deferred)
        ready = true;
        break;
      }
      if (!running_.load(std::memory_order_acquire)) break;
    }
    for (const auto& key : front.groups) outstanding.erase(key);
    for (StreamletId sl : front.probes) probing.erase(sl);
    if (!ready) return;

    auto raw = front.future.get();
    if (!raw.ok()) {
      // Broker unreachable (or response dropped): back off, then the next
      // round re-issues the released cursors.
      std::this_thread::sleep_for(kIdleBackoff);
      continue;
    }
    if (ProcessResponse(broker, std::move(*raw))) {
      idle = false;
    } else if (config_.fetch_max_wait_us > 0) {
      idle = true;
    } else {
      std::this_thread::sleep_for(kIdleBackoff);
    }
  }
}

void Consumer::IngestChunk(const FetchedChunk& fetched) {
  auto parsed = ChunkView::Parse(fetched.bytes);
  if (!parsed.ok() || !parsed->VerifyChecksum()) {
    ++stats_.checksum_failures;
    return;
  }
  const ChunkView& chunk = *parsed;
  // The delivered frontier does NOT move here: Commit() must persist the
  // position of what Poll HANDED OUT, and ingest runs ahead of that —
  // committing the ingest frontier would skip every buffered-but-unpolled
  // record after a restart. Poll advances the frontier as it completes
  // each chunk. System chunks carry no user records, so their positions
  // are covered only once a later data chunk is handed out; re-reading a
  // trailing system chunk after a restart is harmless (it is skipped
  // again, never delivered).
  if ((chunk.flags() & kChunkFlagOffsetCommit) != 0) {
    // Cursor metadata, not user data.
    ++stats_.system_chunks_skipped;
    return;
  }
  for (auto it = chunk.records(); !it.Done(); it.Next()) {
    const RecordView& rec = it.record();
    ConsumedRecord cr;
    cr.streamlet = fetched.streamlet;
    cr.group = chunk.group_id();
    cr.chunk_index = chunk.group_chunk_index();
    cr.producer = chunk.producer_id();
    cr.value.assign(rec.value().begin(), rec.value().end());
    buffered_.push_back(std::move(cr));
  }
  stats_.records_consumed += chunk.record_count();
}

namespace {
bool SameChunk(const ConsumedRecord& a, const ConsumedRecord& b) {
  return a.streamlet == b.streamlet && a.group == b.group &&
         a.chunk_index == b.chunk_index;
}
}  // namespace

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

std::vector<ConsumedRecord> Consumer::Poll(size_t max_records) {
  std::vector<ConsumedRecord> out;
  for (;;) {
    if (!buffered_.empty()) {
      if (out.size() >= max_records) {
        // Exactly-once: never leave a chunk half-delivered. The committed
        // cursor is chunk-granular, so splitting a chunk across Polls
        // would make a commit between them either redeliver or skip the
        // chunk's remainder after a restart; round up to the boundary.
        if (!config_.exactly_once || out.empty() ||
            !SameChunk(out.back(), buffered_.front())) {
          break;
        }
      }
      out.push_back(std::move(buffered_.front()));
      buffered_.pop_front();
      if (config_.exactly_once &&
          (buffered_.empty() || !SameChunk(out.back(), buffered_.front()))) {
        // Chunk fully handed out (ingest buffers whole chunks, so an
        // empty deque means no more of its records exist): this is the
        // frontier Commit() persists.
        AdvanceDelivered(out.back());
      }
      continue;
    }
    if (out.size() >= max_records) break;
    auto fetched = fetched_.TryPop();
    if (!fetched) break;
    IngestChunk(*fetched);
  }
  return out;
}

std::vector<ConsumedRecord> Consumer::PollBlocking(size_t max_records) {
  while (running_.load(std::memory_order_acquire)) {
    auto out = Poll(max_records);
    if (!out.empty()) return out;
    auto fetched = fetched_.Pop();  // blocks; returns nullopt on shutdown
    if (!fetched) break;
    IngestChunk(*fetched);
  }
  return Poll(max_records);
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
