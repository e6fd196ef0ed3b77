#include "broker/broker.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "rpc/call.h"
#include "wire/chunk.h"
#include "wire/layout.h"

namespace kera {

namespace {
/// Offset-commit record value: the persisted form of one consumer-cursor
/// entry, carried as an ordinary record inside a kChunkFlagOffsetCommit
/// chunk (fixed 28-byte little-endian layout):
///   u32 consumer, u64 commit_seq, u32 streamlet, u32 group, u64 next_chunk
constexpr size_t kOffsetRecordBytes = 28;

void EncodeOffsetValue(std::byte* p, uint32_t consumer, uint64_t commit_seq,
                       StreamletId streamlet, GroupId group,
                       uint64_t next_chunk) {
  wire::StoreU32(p + 0, consumer);
  wire::StoreU64(p + 4, commit_seq);
  wire::StoreU32(p + 12, streamlet);
  wire::StoreU32(p + 16, group);
  wire::StoreU64(p + 20, next_chunk);
}
}  // namespace

Broker::Broker(BrokerConfig config, rpc::Network& network)
    : config_(std::move(config)),
      shards_(std::max<uint32_t>(1, config_.shards)),
      network_(network),
      memory_(config_.memory_bytes, config_.segment_size),
      shard_frames_(shards_) {
  live_backups_ = config_.backup_nodes;
  if (config_.memory_budget_bytes > 0 && !config_.spill_dir.empty()) {
    TieredStoreOptions to;
    to.memory_budget_bytes = config_.memory_budget_bytes;
    to.spill_dir = config_.spill_dir;
    to.segment_size = config_.segment_size;
    to.cold_cache_bytes = config_.cold_cache_bytes;
    to.readahead_segments = config_.readahead_segments;
    to.shards = shards_;
    to.async_readahead = config_.async_readahead;
    tiered_ = std::make_unique<TieredStore>(to, memory_);
  }
}

Broker::~Broker() { StopConsumeWaits(); }

void Broker::StopConsumeWaits() {
  consume_waits_stopped_.store(true, std::memory_order_release);
  std::vector<StreamEntry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [_, entry] : streams_) entries.push_back(entry.get());
  }
  for (StreamEntry* entry : entries) NotifyConsumeWaitersAllShards(*entry);
}

uint32_t Broker::HomeShardOf(const rpc::ProduceRequest& req) const {
  if (shards_ <= 1 || req.chunks.empty()) return 0;
  const auto& first = req.chunks.front();
  if (first.size() < chunk_offsets::kStreamletId + 4) return 0;
  uint32_t streamlet;
  std::memcpy(&streamlet, first.data() + chunk_offsets::kStreamletId, 4);
  return streamlet % shards_;
}

uint32_t Broker::HomeShardOf(const rpc::ConsumeRequest& req) const {
  if (shards_ <= 1 || req.entries.empty()) return 0;
  return req.entries.front().streamlet % shards_;
}

void Broker::NotifyConsumeWaiters(StreamEntry& entry, uint32_t shard) {
  {
    StreamEntry::ShardState& ss = entry.shard[shard];
    std::lock_guard<std::mutex> lock(ss.mu);
    ++ss.consume_epoch;
    ss.consume_cv.notify_all();
  }
  // Pollers whose entries span shards park on one shard but wait for data
  // on others: while any are parked, every wake broadcasts. The epoch
  // bump must happen under each shard's lock or a poller between its
  // epoch check and cv wait would sleep through the wake.
  if (entry.cross_parked.load(std::memory_order_acquire) > 0) {
    for (uint32_t s = 0; s < entry.nshards; ++s) {
      if (s == shard) continue;
      StreamEntry::ShardState& ss = entry.shard[s];
      std::lock_guard<std::mutex> lock(ss.mu);
      ++ss.consume_epoch;
      ss.consume_cv.notify_all();
    }
  }
}

void Broker::NotifyConsumeWaitersAllShards(StreamEntry& entry) {
  for (uint32_t s = 0; s < entry.nshards; ++s) {
    StreamEntry::ShardState& ss = entry.shard[s];
    std::lock_guard<std::mutex> lock(ss.mu);
    ++ss.consume_epoch;
    ss.consume_cv.notify_all();
  }
}

void Broker::NotifyConsumeWaitersForBatch(const ReplicationBatch& batch) {
  StreamId last_stream = StreamId(-1);
  uint32_t last_shard = 0;
  for (const ChunkRef& ref : batch.refs) {
    uint32_t shard = ShardOf(ref.streamlet);
    if (ref.stream == last_stream && shard == last_shard) {
      continue;  // refs cluster by stream/streamlet in practice
    }
    last_stream = ref.stream;
    last_shard = shard;
    StreamEntry* entry = FindStream(ref.stream);
    if (entry != nullptr) NotifyConsumeWaiters(*entry, shard);
  }
}

void Broker::SetLiveBackups(std::vector<NodeId> live_backup_services) {
  std::lock_guard<std::mutex> lock(live_backups_mu_);
  live_backups_ = std::move(live_backup_services);
}

Status Broker::AddStream(const std::string& name,
                         const rpc::StreamInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  if (streams_.count(info.stream) != 0) {
    return OkStatus();  // idempotent (coordinator may re-announce)
  }
  StorageConfig sc;
  sc.segment_size = config_.segment_size;
  sc.segments_per_group = config_.segments_per_group;
  sc.active_groups_per_streamlet = info.options.active_groups_per_streamlet;
  auto entry = std::make_unique<StreamEntry>();
  entry->storage = std::make_unique<Stream>(memory_, sc, info.stream, name);
  entry->info = info;
  entry->name = name;
  entry->sealed.store(info.sealed, std::memory_order_release);
  entry->nshards = shards_;
  entry->shard = std::make_unique<StreamEntry::ShardState[]>(shards_);
  StreamEntry* raw = entry.get();
  streams_.emplace(info.stream, std::move(entry));
  // Publish into the lock-free slot last: a reader that wins the race
  // sees a fully constructed entry.
  if (info.stream < kStreamSlots) {
    stream_slots_[info.stream].store(raw, std::memory_order_release);
  }
  return OkStatus();
}

Status Broker::AddStreamlet(StreamId stream, StreamletId streamlet) {
  StreamEntry* entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
      return Status(StatusCode::kNotFound, "unknown stream");
    }
    entry = it->second.get();
    entry->storage->AddStreamlet(streamlet);
  }
  if (tiered_ != nullptr) {
    tiered_->TrackStreamlet(stream, entry->storage->GetStreamlet(streamlet));
  }
  {
    StreamEntry::ShardState& ss = entry->ShardFor(streamlet);
    std::lock_guard<std::mutex> entry_lock(ss.mu);
    ss.led.insert(streamlet);
    if (ss.gated.size() <= streamlet) ss.gated.resize(size_t(streamlet) + 1);
  }
  // A consumer may already be parked probing this streamlet (leadership
  // handed over mid-poll): let it re-gather.
  NotifyConsumeWaitersAllShards(*entry);
  return OkStatus();
}

Status Broker::FinishRecovery(StreamId stream) {
  StreamEntry* entry = FindStream(stream);
  if (entry == nullptr) {
    return Status(StatusCode::kNotFound, "unknown stream");
  }
  for (StreamletId sl : entry->storage->StreamletIds()) {
    entry->storage->GetStreamlet(sl)->CloseRecoveryGroups();
  }
  NotifyConsumeWaitersAllShards(*entry);
  return OkStatus();
}

Status Broker::DropStreamletLeadership(StreamId stream,
                                       StreamletId streamlet) {
  StreamEntry* entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
      return Status(StatusCode::kNotFound, "unknown stream");
    }
    entry = it->second.get();
  }
  {
    StreamEntry::ShardState& ss = entry->ShardFor(streamlet);
    std::unique_lock<std::mutex> entry_lock(ss.mu);
    ss.led.erase(streamlet);
    // Chunks that passed the leadership check before the erase may still
    // be appending or replicating; their requests ack them once durable,
    // so wait for that (or their failure) before the caller replays.
    ss.gated_cv.wait(entry_lock, [&] {
      return streamlet >= ss.gated.size() || ss.gated[streamlet] == 0;
    });
  }
  // Close the active groups so the remaining data can be trimmed once
  // consumed; new leadership lives elsewhere.
  Streamlet* sl = entry->storage->GetStreamlet(streamlet);
  if (sl != nullptr) sl->SealActiveGroups();
  NotifyConsumeWaitersAllShards(*entry);
  return OkStatus();
}

Status Broker::SealStream(StreamId stream) {
  StreamEntry* entry = FindStream(stream);
  if (entry == nullptr) {
    return Status(StatusCode::kNotFound, "unknown stream");
  }
  entry->sealed.store(true, std::memory_order_release);
  entry->storage->Seal();
  // Parked consumers must observe the seal (it is their end-of-stream).
  NotifyConsumeWaitersAllShards(*entry);
  return OkStatus();
}

Broker::StreamEntry* Broker::FindStream(StreamId id) const {
  if (id < kStreamSlots) {
    StreamEntry* entry = stream_slots_[id].load(std::memory_order_acquire);
    if (entry != nullptr) return entry;
    // A miss can mean "racing AddStream": fall through to the map, which
    // the writer updates under mu_ before publishing the slot.
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

std::unique_ptr<VirtualLog> Broker::MakeVlog(VlogId id,
                                             uint32_t replication_factor) {
  VirtualLogConfig vc;
  vc.virtual_segment_capacity = config_.virtual_segment_capacity;
  vc.replication_factor = replication_factor;
  vc.max_batch_bytes = config_.replication_max_batch_bytes;
  vc.replication_window = config_.replication_window;
  vc.first_segment_id = VirtualSegmentId(config_.incarnation) << 32;
  // Rotate the backup set per virtual segment so replicas scatter across
  // the cluster and recovery can read from many backups in parallel. A
  // broker never backs up its own data (replicas must survive the node).
  // The candidate set is re-read from the live membership on every
  // selection so new segments avoid dead backups.
  NodeId own_backup = BackupServiceId(config_.node);
  auto selector = [this, own_backup, id,
                   replication_factor](VirtualSegmentId vseg) {
    std::vector<NodeId> candidates;
    {
      std::lock_guard<std::mutex> lock(live_backups_mu_);
      for (NodeId n : live_backups_) {
        if (n != own_backup) candidates.push_back(n);
      }
    }
    std::vector<NodeId> picked;
    size_t need = replication_factor - 1;
    if (candidates.size() < need) {
      // Not enough live backups: fall back to the full configured set;
      // replication to the dead ones will fail and the produce request
      // surfaces kUnavailable (no silent durability downgrade).
      candidates.clear();
      for (NodeId n : config_.backup_nodes) {
        if (n != own_backup) candidates.push_back(n);
      }
    }
    assert(candidates.size() >= need && "not enough configured backups");
    size_t start = (size_t(id) * 7 + size_t(vseg)) % candidates.size();
    for (size_t i = 0; i < need; ++i) {
      picked.push_back(candidates[(start + i) % candidates.size()]);
    }
    return picked;
  };
  return std::make_unique<VirtualLog>(id, vc, selector);
}

VirtualLog* Broker::ResolveVlog(StreamEntry& entry, StreamletId streamlet,
                                uint32_t slot) {
  const auto& opts = entry.info.options;
  const bool dedicated =
      opts.vlog_policy == rpc::VlogPolicy::kPerSubPartition;
  const auto cache_key = std::make_pair(streamlet, dedicated ? slot : 0);
  const uint32_t shard = ShardOf(streamlet);
  StreamEntry::ShardState& ss = entry.shard[shard];
  {
    std::lock_guard<std::mutex> lock(ss.mu);
    auto it = ss.vlogs.find(cache_key);
    if (it != ss.vlogs.end()) return it->second;
  }
  VirtualLog* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dedicated) {
      auto& vlog = subpartition_vlogs_[std::make_tuple(entry.info.stream,
                                                       streamlet, slot)];
      if (vlog == nullptr) {
        vlog = MakeVlog(next_vlog_id_++, opts.replication_factor);
      }
      raw = vlog.get();
    } else {
      // Shared pool: a streamlet hashes onto one of the broker's N vlogs.
      // The pool (per replication factor) is built once; each shard picks
      // only from its slice (pool index i belongs to shard i % shards), so
      // a streamlet always resolves to a vlog owned by its shard and the
      // replication work for that log never leaves the shard's core. With
      // shards == 1 the slice is the whole pool and the selection
      // arithmetic is unchanged.
      auto& pool = shared_pools_[opts.replication_factor];
      while (pool.size() < config_.vlogs_per_broker) {
        pool.push_back(MakeVlog(next_vlog_id_++, opts.replication_factor));
      }
      std::vector<VirtualLog*> slice;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (uint32_t(i) % shards_ == shard) slice.push_back(pool[i].get());
      }
      if (slice.empty()) {
        // Fewer vlogs than shards: this shard has no slice of its own and
        // borrows one log (two shards then contend on that vlog's lock —
        // size the pool >= shards to avoid it).
        slice.push_back(pool[shard % pool.size()].get());
      }
      // splitmix64-style mix: consecutive stream ids placed round-robin
      // over brokers must still spread across the broker's vlog pool
      // (and, with shards > 1, across the shard's slice of it).
      uint64_t h = entry.info.stream * 0x9E3779B97F4A7C15ull + streamlet;
      h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
      h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
      h ^= h >> 31;
      raw = slice[size_t(h % slice.size())];
    }
  }
  std::lock_guard<std::mutex> lock(ss.mu);
  ss.vlogs.emplace(cache_key, raw);
  return raw;
}

Broker::GateHolds::~GateHolds() {
  // One critical section per shard the request touched (usually one).
  std::sort(streamlets.begin(), streamlets.end(),
            [this](StreamletId a, StreamletId b) {
              return broker.ShardOf(a) < broker.ShardOf(b);
            });
  for (auto first = streamlets.begin(); first != streamlets.end();) {
    StreamEntry::ShardState& ss = entry->ShardFor(*first);
    bool drained = false;
    std::lock_guard<std::mutex> lock(ss.mu);
    for (; first != streamlets.end() && &entry->ShardFor(*first) == &ss;
         ++first) {
      if (--ss.gated[*first] == 0) drained = true;
    }
    if (drained) ss.gated_cv.notify_all();
  }
}

Status Broker::AppendOneChunk(
    StreamEntry& entry, const rpc::ProduceRequest& req,
    std::span<const std::byte> frame, uint32_t home_shard,
    std::vector<std::pair<VirtualLog*, ChunkRef>>& appended_refs,
    std::vector<DuplicateWait>& duplicate_waits, GateHolds* holds,
    rpc::ProduceResponse& resp) {
  auto chunk = ChunkView::Parse(frame);
  if (!chunk.ok()) return chunk.status();
  if (frame.size() > config_.segment_size - kSegmentHeaderSize) {
    // No segment can ever hold it: refuse before it reserves a sequence
    // or takes a group or a segment buffer, which every retry would redo.
    return Status(StatusCode::kInvalidArgument, "chunk larger than a segment");
  }
  if (config_.verify_chunk_checksums && !chunk->VerifyChecksum()) {
    ++stats_.checksum_failures;
    return Status(StatusCode::kCorruption, "chunk checksum mismatch");
  }
  if (chunk->stream_id() != req.stream) {
    return Status(StatusCode::kInvalidArgument, "chunk/request stream mismatch");
  }
  StreamletId streamlet_id = chunk->streamlet_id();
  StreamEntry::ShardState& ss = entry.ShardFor(streamlet_id);
  if (shards_ > 1 && ShardOf(streamlet_id) != home_shard) {
    // A producer batched chunks of differently-homed streamlets into one
    // request: still correct (the shard lock protects from any thread),
    // just off the fast path.
    ++stats_.cross_shard_ops;
  }
  auto key = std::make_pair(streamlet_id, chunk->producer_id());
  const uint32_t epoch = chunk->producer_epoch();
  const bool shared_pool =
      entry.info.options.vlog_policy != rpc::VlogPolicy::kPerSubPartition;
  StreamEntry::DedupEntry prev;  // state before this chunk reserved its seq
  VirtualLog* vlog = nullptr;
  {
    // One per-shard critical section covers the seal/leadership gates,
    // the exactly-once dedup update (drop chunks at or below the last
    // accepted sequence of the same producer session) and, under the
    // shared pool, where the vlog does not depend on the active-group
    // slot, the vlog cache lookup.
    std::lock_guard<std::mutex> lock(ss.mu);
    // The seal bounds the stream's USER data. Offset-commit system chunks
    // stay appendable: a bounded stream's consumer drains it and then
    // durably records its final position — rejecting that would reopen a
    // redelivery window on restart. HandleCommitOffsets re-seals any
    // group such a post-seal append rolls open.
    if (entry.sealed.load(std::memory_order_acquire) && !req.recovery &&
        (chunk->flags() & kChunkFlagOffsetCommit) == 0) {
      return Status(StatusCode::kSegmentClosed, "stream is sealed");
    }
    if (ss.led.count(streamlet_id) == 0) {
      return Status(StatusCode::kNotLeader, "streamlet not led here");
    }
    auto [it, inserted] = ss.dedup.try_emplace(key);
    if (!inserted && epoch < it->second.epoch) {
      // Zombie fencing: the coordinator re-allocated this producer id
      // under a newer epoch (the epoch rides in every accepted chunk's
      // header, so replication and recovery carry it to any new leader).
      // An instance still stamping the old epoch must not append.
      ++stats_.chunks_fenced;
      return Status(StatusCode::kFenced, "producer epoch fenced");
    }
    if (!inserted && epoch == it->second.epoch &&
        chunk->chunk_seq() <= it->second.seq) {
      const bool latest = chunk->chunk_seq() == it->second.seq;
      if (latest && it->second.vlog == nullptr) {
        // The original is still being appended by another request:
        // nothing is stored yet, and that append may still fail and roll
        // back, so this retry must come back later.
        return Status(StatusCode::kUnavailable, "original append in flight");
      }
      ++resp.duplicates;
      ++ss.dedup_hits[key];
      ++stats_.chunks_duplicate;
      // A retry of the LATEST sequence must not be acked before the
      // original copy is durable (the producer is retrying because it
      // never saw an ack). Older sequences were below the latest when it
      // was accepted, i.e. already acknowledged once — ack immediately.
      if (latest) {
        duplicate_waits.push_back({it->second.vlog, streamlet_id,
                                   it->second.group,
                                   it->second.group_chunk_index});
      }
      return OkStatus();
    }
    // Reserve the sequence now (so a concurrent same-seq retry classifies
    // as a duplicate and waits); the landing position is recorded after
    // the appends, and the reservation is rolled back if they fail —
    // otherwise a retry of a never-appended chunk would be swallowed. A
    // HIGHER epoch lands here even with a low sequence: a new producer
    // session restarts its numbering, so the window resets with it.
    prev = it->second;
    it->second =
        StreamEntry::DedupEntry{chunk->chunk_seq(), nullptr, 0, 0, epoch};
    if (holds != nullptr) {
      ++ss.gated[streamlet_id];
      holds->entry = &entry;
      holds->streamlets.push_back(streamlet_id);
    }
    if (shared_pool) {
      auto cached = ss.vlogs.find({streamlet_id, 0});
      if (cached != ss.vlogs.end()) vlog = cached->second;
    }
  }
  auto rollback = [&] {
    std::lock_guard<std::mutex> lock(ss.mu);
    auto it = ss.dedup.find(key);
    if (it != ss.dedup.end() && it->second.seq == chunk->chunk_seq() &&
        it->second.epoch == epoch && it->second.vlog == nullptr) {
      it->second = prev;
    }
  };
  Streamlet* streamlet = entry.storage->GetStreamlet(streamlet_id);
  if (streamlet == nullptr) {
    rollback();
    return Status(StatusCode::kNotLeader, "streamlet not led here");
  }

  Result<StreamletAppendResult> appended =
      req.recovery
          ? streamlet->AppendRecoveryChunk(chunk->group_id(), frame)
          : streamlet->AppendChunk(chunk->producer_id(), frame);
  if (!appended.ok()) {
    rollback();
    return appended.status();
  }

  ChunkRef ref;
  ref.loc = appended->locator;
  ref.group = appended->group;
  ref.stream = req.stream;
  ref.streamlet = streamlet_id;
  ref.payload_checksum = chunk->payload_checksum();

  if (vlog == nullptr) {
    vlog = ResolveVlog(entry, streamlet_id, appended->active_slot);
  }
  vlog->Append(ref);
  appended_refs.emplace_back(vlog, ref);
  {
    std::lock_guard<std::mutex> lock(ss.mu);
    auto it = ss.dedup.find(key);
    if (it != ss.dedup.end() && it->second.seq == chunk->chunk_seq() &&
        it->second.epoch == epoch) {
      it->second.vlog = vlog;
      it->second.group = ref.loc.group;
      it->second.group_chunk_index = ref.loc.group_chunk_index;
    }
    if ((chunk->flags() & kChunkFlagOffsetCommit) != 0) {
      // Offset-commit system chunk: fold its records into the in-memory
      // cursor table. Appends include recovery replays, so the table
      // rebuilds from the log on the new leader with no extra machinery.
      ApplyOffsetChunk(ss, streamlet_id, *chunk);
      ++stats_.offset_commits;
    }
  }

  ++resp.appended;
  ++stats_.chunks_appended;
  stats_.bytes_appended += frame.size();
  if (req.recovery) {
    ++stats_.recovery_chunks_appended;
    stats_.recovery_bytes_appended += frame.size();
  }
  return OkStatus();
}

Broker::StreamEntry* Broker::AppendChunks(
    const rpc::ProduceRequest& req, GateHolds* holds,
    std::vector<std::pair<VirtualLog*, ChunkRef>>& positions,
    std::vector<DuplicateWait>& dup_waits, rpc::ProduceResponse& resp) {
  ++stats_.produce_rpcs;
  if (req.recovery) {
    ++stats_.recovery_produce_rpcs;
  }
  StreamEntry* entry = FindStream(req.stream);
  if (entry == nullptr) {
    resp.status = StatusCode::kNotFound;
    return nullptr;
  }
  const uint32_t home = HomeShardOf(req);
  ++shard_frames_[home].frames;
  positions.reserve(req.chunks.size());
  for (const auto& frame : req.chunks) {
    Status s = AppendOneChunk(*entry, req, frame, home, positions, dup_waits,
                              holds, resp);
    if (!s.ok()) {
      resp.status = s.code();
      return nullptr;
    }
  }
  return entry;
}

rpc::ProduceResponse Broker::HandleProduceNoSync(
    const rpc::ProduceRequest& req,
    std::vector<std::pair<VirtualLog*, ChunkRef>>* appended) {
  rpc::ProduceResponse resp;
  std::vector<std::pair<VirtualLog*, ChunkRef>> positions;
  // Duplicate-durability waits are not driven here: the DES schedules
  // replication on simulated time and gates acks itself.
  std::vector<DuplicateWait> dup_waits;
  if (AppendChunks(req, nullptr, positions, dup_waits, resp) == nullptr) {
    return resp;
  }
  if (appended != nullptr) {
    appended->insert(appended->end(), positions.begin(), positions.end());
  }
  // Deterministic tiered-memory pump point: sealed-segment discovery (and
  // any eviction the budget allows) happens at request boundaries, as a
  // pure function of the append/durability schedule.
  if (tiered_ != nullptr) {
    uint32_t last_shard = UINT32_MAX;
    for (auto& [vlog, ref] : positions) {
      (void)vlog;
      uint32_t s = ShardOf(ref.streamlet);
      if (s == last_shard) continue;
      last_shard = s;
      tiered_->Pump(s);
    }
  }
  return resp;
}

rpc::ProduceResponse Broker::HandleProduce(const rpc::ProduceRequest& req) {
  rpc::ProduceResponse resp;
  std::vector<std::pair<VirtualLog*, ChunkRef>> positions;
  std::vector<DuplicateWait> dup_waits;
  // Held until this request returns: its chunks are then durable or
  // failed.
  GateHolds holds(*this);
  StreamEntry* entry = AppendChunks(req, &holds, positions, dup_waits, resp);
  if (entry == nullptr) return resp;

  // Shards whose streamlets this request appended to (usually exactly
  // {home}); parked long-polls on those shards are notified at the end.
  std::vector<uint32_t> touched_shards;
  for (auto& [vlog, ref] : positions) {
    (void)vlog;
    uint32_t s = ShardOf(ref.streamlet);
    if (std::find(touched_shards.begin(), touched_shards.end(), s) ==
        touched_shards.end()) {
      touched_shards.push_back(s);
    }
  }

  // Resolve duplicate retries to (group, index) durability targets. A
  // group that no longer exists was trimmed, and only fully durable
  // groups trim — nothing to wait for.
  std::vector<std::pair<VirtualLog*, ChunkRef>> dup_refs;
  for (const DuplicateWait& d : dup_waits) {
    Streamlet* sl = entry->storage->GetStreamlet(d.streamlet);
    Group* group = sl == nullptr ? nullptr : sl->GetGroup(d.group);
    if (group == nullptr) continue;
    ChunkRef ref;
    ref.group = group;
    ref.loc.group = d.group;
    ref.loc.group_chunk_index = d.group_chunk_index;
    dup_refs.emplace_back(d.vlog, ref);
  }

  // Once all chunks of the request are appended, synchronize the touched
  // virtual logs on the backups (paper §IV.B). The logs replicate
  // independently, so each pass issues one batch on every touched log
  // before collecting any: the request waits about one replication round
  // trip, not one per log. Whichever handler finds a vlog idle ships its
  // next batch; others sleep until woken. Durability is tracked through
  // the chunk's group so it survives virtual segment evacuation after a
  // backup failure. Duplicate retries gate on the original copy's
  // durability the same way. Lanes follow first appearance, never pointer
  // order, so DirectNetwork runs replay identically.
  std::vector<VirtualLog*> touched;
  auto touch = [&touched](const std::pair<VirtualLog*, ChunkRef>& target) {
    if (std::find(touched.begin(), touched.end(), target.first) ==
        touched.end()) {
      touched.push_back(target.first);
    }
  };
  std::for_each(positions.begin(), positions.end(), touch);
  const size_t appended_lanes = touched.size();
  std::for_each(dup_refs.begin(), dup_refs.end(), touch);
  std::vector<std::pair<VirtualLog*, ChunkRef>> targets = std::move(positions);
  targets.insert(targets.end(), dup_refs.begin(), dup_refs.end());
  // Sized once and never resized: a lane's in-flight frame must not move
  // while its batch is outstanding.
  std::vector<FanOutLane> lanes(touched.size());
  for (size_t i = 0; i < touched.size(); ++i) lanes[i].vlog = touched[i];
  if (Status drive = DriveUntilDurable(targets, lanes); !drive.ok()) {
    resp.status = drive.code();
    return resp;
  }

  // Opportunistically drain remaining work on the vlogs the request
  // appended to — in particular empty seal batches for virtual segments
  // that closed after their data was already replicated (backups flush
  // only sealed segments) — with the same fan-out. A lane drops out once
  // it has nothing to issue or its batch fails; failures here don't fail
  // the request: the data is durable.
  for (size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].wants = i < appended_lanes;
  }
  while (FanOutPass(lanes) > 0) {
    for (FanOutLane& lane : lanes) {
      lane.wants = lane.batch.has_value() && lane.status.ok();
    }
  }
  for (uint32_t s : touched_shards) NotifyConsumeWaiters(*entry, s);
  // Tiered-memory pump: the request's chunks are durable by now, so this
  // point both discovers freshly sealed segments and can evict at once.
  if (tiered_ != nullptr) {
    for (uint32_t s : touched_shards) tiered_->Pump(s);
  }
  return resp;
}

Status Broker::DriveUntilDurable(
    const std::vector<std::pair<VirtualLog*, ChunkRef>>& targets,
    std::vector<FanOutLane>& lanes) {
  std::vector<size_t> lane_of(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    while (lanes[lane_of[i]].vlog != targets[i].first) ++lane_of[i];
  }
  while (true) {
    const std::pair<VirtualLog*, ChunkRef>* oldest_pending = nullptr;
    for (FanOutLane& lane : lanes) lane.wants = false;
    for (size_t i = 0; i < targets.size(); ++i) {
      const ChunkRef& ref = targets[i].second;
      if (ref.group->durable_chunk_count() > ref.loc.group_chunk_index) {
        continue;
      }
      if (oldest_pending == nullptr) oldest_pending = &targets[i];
      lanes[lane_of[i]].wants = true;
    }
    if (oldest_pending == nullptr) return OkStatus();
    if (FanOutPass(lanes) == 0) {
      // Every pending lane's window is full or its work is in flight on
      // another handler: sleep until the oldest pending chunk is durable
      // or its log can take another batch.
      (void)oldest_pending->first->WaitChunkDurableOrIdle(
          oldest_pending->second);
      continue;
    }
    Status failure = OkStatus();
    for (FanOutLane& lane : lanes) {
      // kUnavailable after an evacuation is retryable: the refs moved to
      // a fresh segment targeting live backups.
      if (lane.status.ok() ||
          (lane.status.code() == StatusCode::kUnavailable &&
           ++lane.evacuations <= 4)) {
        continue;
      }
      if (failure.ok()) failure = lane.status;
    }
    if (!failure.ok()) return failure;
  }
}

size_t Broker::FanOutPass(std::vector<FanOutLane>& lanes) {
  size_t issued = 0;
  for (FanOutLane& lane : lanes) {
    lane.status = OkStatus();
    lane.batch.reset();
    if (lane.wants) lane.batch = lane.vlog->Poll();
    if (!lane.batch.has_value()) continue;
    IssueBatch(*lane.batch, lane.send.emplace());
    ++issued;
  }
  // Every issued batch is finished before returning, even after a
  // failure: its frame memory must outlive its futures, and a batch left
  // in flight would hold its log's window slot forever.
  for (FanOutLane& lane : lanes) {
    if (!lane.batch.has_value()) continue;
    lane.status = FinishBatch(*lane.vlog, *lane.batch, *lane.send);
    lane.send.reset();
  }
  return issued;
}

bool Broker::DrainReplication(int max_failed_batches) {
  int failures = 0;
  bool all_drained = true;
  for (VirtualLog* vlog : VirtualLogs()) {
    while (vlog->HasWork()) {
      auto batch = vlog->Poll();
      if (!batch.has_value()) break;  // window full; nothing to drive here
      if (!ShipBatch(*vlog, *batch).ok() && ++failures >= max_failed_batches) {
        return false;
      }
    }
    if (vlog->HasWork()) all_drained = false;
  }
  return all_drained;
}

void Broker::IssueBatch(const ReplicationBatch& batch, ReplicaSend& send) {
  rpc::ReplicateRequest req;
  req.primary = config_.node;
  req.vlog = batch.vlog;
  req.vseg = batch.vseg;
  req.start_offset = batch.start_offset;
  req.chunk_count = uint32_t(batch.refs.size());
  req.checksum_after = batch.checksum_after;
  req.seals = batch.seals_segment;

  // Reference the chunk bytes straight from the physical segments; the
  // encoder records them without copying, and the transport either sends
  // them vectored (SocketNetwork) or splices them into the frame with one
  // copy total (no intermediate gather buffer). The frame stays in parts
  // form: the encoder's inline runs plus spans into segment memory
  // (pinned until Complete/Abort). FinishBatch consumes every future
  // before `send` is released, satisfying CallAsyncParts' lifetime
  // contract across every retry round.
  req.payload_parts.reserve(batch.refs.size());
  for (const ChunkRef& ref : batch.refs) {
    req.payload_parts.push_back(
        ref.loc.segment->Bytes(ref.loc.offset, ref.loc.length));
  }
  req.Encode(send.body);
  send.parts = rpc::FrameAsParts(rpc::ReplicateRequest::kOpcode, send.body,
                                 send.opcode);
  SendReplicateAttempt(batch, send);
}

Status Broker::ShipBatch(VirtualLog& vlog, const ReplicationBatch& batch) {
  ReplicaSend send;
  IssueBatch(batch, send);
  return FinishBatch(vlog, batch, send);
}

void Broker::SendReplicateAttempt(const ReplicationBatch& batch,
                                  ReplicaSend& send) {
  send.futures.clear();
  send.futures.reserve(batch.backups.size());
  for (NodeId backup : batch.backups) {
    send.futures.push_back(network_.CallAsyncParts(backup, send.parts));
  }
}

Status Broker::FinishBatch(VirtualLog& vlog, const ReplicationBatch& batch,
                           ReplicaSend& send) {
  Status failure = OkStatus();
  for (int attempt = 0;; ++attempt) {
    bool all_ok = true;
    for (auto& f : send.futures) {
      auto result = [&]() -> Result<std::vector<std::byte>> {
        try {
          return f.get();
        } catch (const std::future_error&) {
          // A network torn down with the call in flight may break the
          // promise instead of failing it.
          return Status(StatusCode::kUnavailable, "network stopped");
        }
      }();
      if (!result.ok()) {
        all_ok = false;
        failure = result.status();
        continue;
      }
      rpc::Reader r(*result);
      auto resp = rpc::ReplicateResponse::Decode(r);
      if (!resp.ok() || resp->status != StatusCode::kOk) {
        all_ok = false;
        failure = resp.ok() ? Status(resp->status, "backup rejected batch")
                            : resp.status();
      }
    }
    ++stats_.replication_batches;
    stats_.replication_rpcs += batch.backups.size();
    stats_.replication_bytes += batch.bytes * batch.backups.size();
    if (all_ok) {
      vlog.Complete(batch);
      // The durable prefix of every group in the batch just advanced:
      // complete parked long-poll consume requests.
      NotifyConsumeWaitersForBatch(batch);
      // Durability advanced, so sealed segments of these shards may have
      // just become evictable (the DES drives replication through here,
      // making this the pump point that keeps chaos schedules and tiered
      // eviction on one deterministic clock).
      if (tiered_ != nullptr) {
        uint32_t last_shard = UINT32_MAX;
        for (const ChunkRef& ref : batch.refs) {
          uint32_t s = ShardOf(ref.streamlet);
          if (s == last_shard) continue;
          last_shard = s;
          tiered_->Pump(s);
        }
      }
      return OkStatus();
    }
    if (attempt >= config_.replication_retries) break;
    SendReplicateAttempt(batch, send);
  }
  vlog.Abort(batch);
  if (failure.code() == StatusCode::kUnavailable) {
    // A backup in this segment's set is gone: move the unreplicated refs
    // to a fresh virtual segment with a newly selected (live) backup set.
    vlog.EvacuateSegment(batch.vseg);
  }
  return failure;
}

rpc::ConsumeResponse Broker::GatherConsume(StreamEntry& entry,
                                           const rpc::ConsumeRequest& req,
                                           size_t* payload_bytes,
                                           bool* all_terminal,
                                           bool* rotated) {
  rpc::ConsumeResponse resp;
  *payload_bytes = 0;
  *all_terminal = !req.entries.empty();
  *rotated = false;
  size_t budget = req.max_bytes;
  for (const auto& e : req.entries) {
    rpc::ConsumeEntryResponse out;
    out.streamlet = e.streamlet;
    out.group = e.group;
    out.next_chunk = e.start_chunk;
    out.stream_sealed = entry.sealed.load(std::memory_order_acquire);

    Streamlet* streamlet = entry.storage->GetStreamlet(e.streamlet);
    if (streamlet == nullptr) {
      // Not hosted here (yet): a long-poller is paced by the wait instead
      // of spinning; AddStreamlet wakes it if leadership arrives.
      *all_terminal = false;
      resp.entries.push_back(std::move(out));
      continue;
    }
    out.groups_created = streamlet->next_group_id();
    Group* group = streamlet->GetGroup(e.group);
    if (group == nullptr) {
      // Not created yet: exists only if a later group already does.
      out.group_exists = e.group < streamlet->next_group_id();
      if (!out.stream_sealed || out.group_exists) *all_terminal = false;
      resp.entries.push_back(std::move(out));
      continue;
    }
    out.group_exists = true;
    auto locators = group->GetDurableChunks(e.start_chunk, e.max_chunks,
                                            budget);
    uint64_t served = 0;
    if (tiered_ == nullptr) {
      // Unbounded memory: every segment is resident, spans alias it
      // directly (the original zero-copy gather, byte for byte).
      for (const ChunkLocator& loc : locators) {
        out.chunks.push_back(loc.segment->Bytes(loc.offset, loc.length));
        budget = budget > loc.length ? budget - loc.length : 0;
        *payload_bytes += loc.length;
        ++served;
      }
    } else {
      // Tiered gather: pin each distinct hot segment for the life of the
      // response (so the evictor cannot pull the buffer out from under
      // the in-flight spans); chunks of an evicted segment are served
      // from the cold-read cache, still zero-copy into cache memory.
      struct SegSource {
        bool hot = false;
        bool failed = false;
        std::span<const std::byte> cold;  // whole spilled payload
      };
      std::map<Segment*, SegSource> sources;
      uint64_t cold_chunks = 0;
      for (const ChunkLocator& loc : locators) {
        Segment* seg = loc.segment;
        auto it = sources.find(seg);
        if (it == sources.end()) {
          SegSource src;
          if (seg->TryPinRead()) {
            src.hot = true;
            resp.holds.emplace_back(
                nullptr, [seg](const void*) { seg->UnpinRead(); });
          } else {
            auto cs = tiered_->ReadCold(entry.info.stream, e.streamlet,
                                        e.group, loc.segment_id);
            if (cs.ok()) {
              src.cold = {(*cs)->buf.data(), (*cs)->size};
              resp.holds.push_back(std::shared_ptr<const void>(std::move(*cs)));
            } else {
              // Raced a trim (the spilled copies were evacuated): stop
              // this entry's gather; the consumer re-requests and sees
              // the group's terminal state.
              src.failed = true;
            }
          }
          it = sources.emplace(seg, src).first;
        }
        if (it->second.failed) break;
        std::span<const std::byte> bytes;
        if (it->second.hot) {
          bytes = seg->Bytes(loc.offset, loc.length);
        } else {
          bytes = it->second.cold.subspan(loc.offset, loc.length);
          ++cold_chunks;
        }
        out.chunks.push_back(bytes);
        budget = budget > loc.length ? budget - loc.length : 0;
        *payload_bytes += loc.length;
        ++served;
      }
      if (cold_chunks > 0) tiered_->NoteColdChunksServed(cold_chunks);
    }
    out.next_chunk = e.start_chunk + served;
    // "No more data will ever appear at or beyond next_chunk."
    out.group_closed =
        group->closed() && out.next_chunk >= group->chunk_count();
    if (out.group_closed && served == 0) *rotated = true;
    if (!out.stream_sealed || !out.group_closed) *all_terminal = false;
    stats_.chunks_served += served;
    resp.entries.push_back(std::move(out));
  }
  return resp;
}

rpc::ConsumeResponse Broker::HandleConsume(const rpc::ConsumeRequest& req) {
  ++stats_.consume_rpcs;
  StreamEntry* entry = FindStream(req.stream);
  if (entry == nullptr) {
    rpc::ConsumeResponse resp;
    resp.status = StatusCode::kNotFound;
    return resp;
  }
  const uint64_t wait_us =
      std::min<uint64_t>(req.max_wait_us, config_.max_consume_wait_us);
  const size_t want = std::max<uint32_t>(req.min_bytes, 1);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(wait_us);
  const uint32_t home = HomeShardOf(req);
  ++shard_frames_[home].frames;
  StreamEntry::ShardState& home_ss = entry->shard[home];

  // A request whose entries span shards parks on its home shard but waits
  // for data owned by others. Register as cross-parked BEFORE the first
  // gather (and with seq_cst, so the registration orders against the
  // producer's post-notify check): a producer on another shard that lands
  // after our gather then sees cross_parked > 0 and broadcasts the wake to
  // every shard, including ours. The deadline bounds any residual race.
  bool spans = false;
  if (shards_ > 1) {
    for (const auto& e : req.entries) {
      if (ShardOf(e.streamlet) != home) {
        spans = true;
        break;
      }
    }
  }
  struct CrossParkGuard {
    std::atomic<uint32_t>* counter = nullptr;
    ~CrossParkGuard() {
      if (counter != nullptr) counter->fetch_sub(1);
    }
  } cross_guard;
  if (spans) {
    ++stats_.cross_shard_ops;
    if (wait_us > 0) {
      entry->cross_parked.fetch_add(1);
      cross_guard.counter = &entry->cross_parked;
    }
  }

  bool parked = false;
  for (;;) {
    // Epoch (of the home shard) before gather: an event that lands in
    // between bumps the epoch and the wait below falls through instead of
    // sleeping past it.
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(home_ss.mu);
      epoch = home_ss.consume_epoch;
    }
    size_t payload_bytes = 0;
    bool all_terminal = false;
    bool rotated = false;
    rpc::ConsumeResponse resp =
        GatherConsume(*entry, req, &payload_bytes, &all_terminal, &rotated);
    // Return when there is data (or enough data), when no requested entry
    // can ever produce more, or when a group rolled over — the consumer
    // must rotate its cursors, which takes a new request.
    if (wait_us == 0 || payload_bytes >= want || all_terminal || rotated ||
        consume_waits_stopped_.load(std::memory_order_acquire)) {
      return resp;
    }
    if (!parked) {
      parked = true;
      ++stats_.consume_long_polls;
    }
    std::unique_lock<std::mutex> lock(home_ss.mu);
    while (home_ss.consume_epoch == epoch &&
           !consume_waits_stopped_.load(std::memory_order_acquire)) {
      if (home_ss.consume_cv.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        return resp;  // long-poll expired: hand back the empty gather
      }
    }
  }
}

void Broker::ApplyOffsetChunk(StreamEntry::ShardState& ss,
                              StreamletId streamlet, const ChunkView& chunk) {
  for (auto it = chunk.records(); !it.Done(); it.Next()) {
    std::span<const std::byte> v = it.record().value();
    if (v.size() < kOffsetRecordBytes) continue;
    const std::byte* p = v.data();
    uint32_t consumer = wire::LoadU32(p + 0);
    StreamletId rec_streamlet = wire::LoadU32(p + 12);
    GroupId group = wire::LoadU32(p + 16);
    uint64_t next_chunk = wire::LoadU64(p + 20);
    // A commit chunk only ever carries entries for its own streamlet (the
    // broker builds them that way); anything else would need another
    // shard's lock, so it is dropped rather than applied unsafely.
    if (rec_streamlet != streamlet) continue;
    StreamEntry::OffsetEntry& slot = ss.offsets[{streamlet, consumer}];
    // Monotonic (group, next_chunk) advance: replays and out-of-order
    // recovery re-ingest can only push the cursor forward.
    if (group > slot.group ||
        (group == slot.group && next_chunk > slot.next_chunk)) {
      slot.group = group;
      slot.next_chunk = next_chunk;
    }
  }
}

rpc::CommitOffsetsResponse Broker::HandleCommitOffsets(
    const rpc::CommitOffsetsRequest& req) {
  rpc::CommitOffsetsResponse resp;
  if (req.entries.empty()) return resp;
  StreamEntry* entry = FindStream(req.stream);
  if (entry == nullptr) {
    resp.status = StatusCode::kNotFound;
    return resp;
  }
  // Commits persist as system chunks under the consumer's system producer
  // id, disjoint from data producers by the top bit. One chunk per entry
  // (entries already arrive one per streamlet), sequenced by the client's
  // commit_seq so retries of a lost ack dedup — and, like any duplicate of
  // the latest sequence, wait for the original's durability before acking.
  const ProducerId pid = 0x80000000u | req.consumer;
  std::vector<std::unique_ptr<ChunkBuilder>> builders;
  rpc::ProduceRequest preq;
  preq.stream = req.stream;
  preq.producer = pid;
  for (const auto& e : req.entries) {
    auto b = std::make_unique<ChunkBuilder>(kChunkHeaderSizeWithEpoch + 128);
    b->Start(req.stream, e.streamlet, pid, req.epoch, kChunkFlagOffsetCommit);
    std::byte value[kOffsetRecordBytes];
    EncodeOffsetValue(value, req.consumer, req.commit_seq, e.streamlet,
                      e.group, e.next_chunk);
    if (!b->AppendValue(value)) {
      resp.status = StatusCode::kInternal;
      return resp;
    }
    preq.chunks.push_back(b->Seal(req.commit_seq));
    builders.push_back(std::move(b));
  }
  rpc::ProduceResponse presp = HandleProduce(preq);
  resp.status = presp.status;
  if (presp.status == StatusCode::kOk) {
    resp.committed = presp.appended + presp.duplicates;
    if (entry->sealed.load(std::memory_order_acquire)) {
      // A post-seal commit chunk rolls a fresh group open (the seal had
      // closed the active ones). Re-seal so consumers still drain to a
      // definite end — all_terminal needs every group of a sealed stream
      // closed — and wake parked long-pollers to observe it.
      for (const auto& e : req.entries) {
        Streamlet* sl = entry->storage->GetStreamlet(e.streamlet);
        if (sl != nullptr) sl->SealActiveGroups();
      }
      NotifyConsumeWaitersAllShards(*entry);
    }
  }
  return resp;
}

rpc::FetchOffsetsResponse Broker::HandleFetchOffsets(
    const rpc::FetchOffsetsRequest& req) {
  rpc::FetchOffsetsResponse resp;
  StreamEntry* entry = FindStream(req.stream);
  if (entry == nullptr) {
    resp.status = StatusCode::kNotFound;
    return resp;
  }
  resp.entries.reserve(req.streamlets.size());
  for (StreamletId sl : req.streamlets) {
    rpc::FetchOffsetsResponse::Entry out;
    out.streamlet = sl;
    StreamEntry::ShardState& ss = entry->ShardFor(sl);
    std::lock_guard<std::mutex> lock(ss.mu);
    auto it = ss.offsets.find({sl, req.consumer});
    if (it != ss.offsets.end()) {
      out.found = true;
      out.group = it->second.group;
      out.next_chunk = it->second.next_chunk;
    }
    resp.entries.push_back(out);
  }
  return resp;
}

std::vector<std::byte> Broker::HandleRpc(std::span<const std::byte> request) {
  // Dispatch encodes each reply while the handler's response is alive: a
  // consume response's `holds` pin the hot segments and cold-cache entries
  // its chunk spans alias until the frame is materialized.
  return rpc::Dispatch(
      request,
      rpc::Serve<rpc::ProduceRequest>(
          [this](const auto& req) { return HandleProduce(req); }),
      rpc::Serve<rpc::ConsumeRequest>(
          [this](const auto& req) { return HandleConsume(req); }),
      rpc::Serve<rpc::CommitOffsetsRequest>(
          [this](const auto& req) { return HandleCommitOffsets(req); }),
      rpc::Serve<rpc::FetchOffsetsRequest>(
          [this](const auto& req) { return HandleFetchOffsets(req); }));
}

std::map<std::pair<StreamletId, ProducerId>, uint64_t> Broker::DedupHitsByKey(
    StreamId stream) const {
  std::map<std::pair<StreamletId, ProducerId>, uint64_t> out;
  StreamEntry* entry = FindStream(stream);
  if (entry == nullptr) return out;
  for (uint32_t s = 0; s < entry->nshards; ++s) {
    StreamEntry::ShardState& ss = entry->shard[s];
    std::lock_guard<std::mutex> lock(ss.mu);
    for (const auto& [key, hits] : ss.dedup_hits) out[key] += hits;
  }
  return out;
}

Broker::Stats Broker::GetStats() const {
  Stats out = stats_;
  out.shard_frames.reserve(shards_);
  for (const ShardFrames& s : shard_frames_) {
    out.shard_frames.push_back(s.frames);
  }
  MemoryManager::Stats ms = memory_.GetStats();
  out.memory_buffers_outstanding = ms.buffers_outstanding;
  out.memory_peak_buffers = ms.peak_outstanding;
  out.memory_bytes_resident = ms.bytes_resident;
  if (tiered_ != nullptr) {
    TieredStore::Stats ts = tiered_->GetStats();
    out.segments_spilled = ts.segments_spilled;
    out.segments_evicted = ts.segments_evicted;
    out.spill_bytes = ts.spill_bytes;
    out.cold_reads = ts.cold_reads;
    out.cold_cache_hits = ts.cold_cache_hits;
    out.cold_cache_misses = ts.cold_cache_misses;
    out.readahead_hits = ts.readahead_hits;
  }
  return out;
}

Broker::Stats& Broker::Stats::operator+=(const Stats& other) {
  produce_rpcs += other.produce_rpcs;
  chunks_appended += other.chunks_appended;
  chunks_duplicate += other.chunks_duplicate;
  chunks_fenced += other.chunks_fenced;
  offset_commits += other.offset_commits;
  bytes_appended += other.bytes_appended;
  consume_rpcs += other.consume_rpcs;
  chunks_served += other.chunks_served;
  consume_long_polls += other.consume_long_polls;
  replication_batches += other.replication_batches;
  replication_rpcs += other.replication_rpcs;
  replication_bytes += other.replication_bytes;
  checksum_failures += other.checksum_failures;
  recovery_produce_rpcs += other.recovery_produce_rpcs;
  recovery_chunks_appended += other.recovery_chunks_appended;
  recovery_bytes_appended += other.recovery_bytes_appended;
  cross_shard_ops += other.cross_shard_ops;
  if (shard_frames.size() < other.shard_frames.size()) {
    shard_frames.resize(other.shard_frames.size());
  }
  for (size_t i = 0; i < other.shard_frames.size(); ++i) {
    shard_frames[i] += other.shard_frames[i];
  }
  segments_spilled += other.segments_spilled;
  segments_evicted += other.segments_evicted;
  spill_bytes += other.spill_bytes;
  cold_reads += other.cold_reads;
  cold_cache_hits += other.cold_cache_hits;
  cold_cache_misses += other.cold_cache_misses;
  readahead_hits += other.readahead_hits;
  memory_buffers_outstanding += other.memory_buffers_outstanding;
  memory_peak_buffers += other.memory_peak_buffers;
  memory_bytes_resident += other.memory_bytes_resident;
  return *this;
}

Stream* Broker::GetStream(StreamId id) const {
  StreamEntry* entry = FindStream(id);
  return entry == nullptr ? nullptr : entry->storage.get();
}

std::vector<VirtualLog*> Broker::VirtualLogs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VirtualLog*> out;
  for (const auto& [_, pool] : shared_pools_) {
    for (const auto& v : pool) out.push_back(v.get());
  }
  for (const auto& [_, v] : subpartition_vlogs_) out.push_back(v.get());
  return out;
}

std::string Broker::DebugString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "broker %u: memory %zu/%zu segments\n",
                unsigned(config_.node), memory_.in_use(),
                memory_.max_segments());
  out += line;
  std::vector<std::pair<std::string, StreamEntry*>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [_, entry] : streams_) {
      entries.emplace_back(entry->name, entry.get());
    }
  }
  for (const auto& [name, entry] : entries) {
    bool sealed = entry->sealed.load(std::memory_order_acquire);
    size_t led = 0;
    for (uint32_t s = 0; s < entry->nshards; ++s) {
      std::lock_guard<std::mutex> lock(entry->shard[s].mu);
      led += entry->shard[s].led.size();
    }
    std::snprintf(line, sizeof(line),
                  "  stream '%s' (id %llu)%s: leads %zu streamlet(s)\n",
                  name.c_str(), (unsigned long long)entry->info.stream,
                  sealed ? " [sealed]" : "", led);
    out += line;
    for (StreamletId sl : entry->storage->StreamletIds()) {
      Streamlet* streamlet = entry->storage->GetStreamlet(sl);
      std::snprintf(line, sizeof(line),
                    "    streamlet %u: %u group(s), %llu chunk(s), "
                    "%zu B in use\n",
                    unsigned(sl), unsigned(streamlet->next_group_id()),
                    (unsigned long long)streamlet->total_chunks(),
                    streamlet->bytes_in_use());
      out += line;
    }
  }
  for (VirtualLog* vlog : VirtualLogs()) {
    auto s = vlog->GetStats();
    if (s.chunks_appended == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  vlog %u (R%u): %llu chunk(s) in %llu batch(es), "
                  "%llu virtual segment(s)\n",
                  unsigned(vlog->id()), unsigned(vlog->replication_factor()),
                  (unsigned long long)s.chunks_appended,
                  (unsigned long long)s.batches_issued,
                  (unsigned long long)s.segments_opened);
    out += line;
  }
  return out;
}

size_t Broker::TrimDurable() {
  std::vector<Stream*> streams;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [_, entry] : streams_) {
      streams.push_back(entry->storage.get());
    }
  }
  size_t trimmed = 0;
  for (Stream* stream : streams) {
    const StreamId stream_id = stream->id();
    for (StreamletId id : stream->StreamletIds()) {
      Streamlet* sl = stream->GetStreamlet(id);
      if (tiered_ != nullptr) {
        // The pre-trim hook runs while the group's Segment objects are
        // still alive: the tiered store drops its spill candidates and
        // evacuates the group's on-disk copies.
        trimmed += sl->TrimBefore(sl->next_group_id(), [&](Group* g) {
          tiered_->OnGroupTrim(stream_id, id, g);
        });
      } else {
        trimmed += sl->TrimBefore(sl->next_group_id());
      }
    }
  }
  for (VirtualLog* vlog : VirtualLogs()) {
    vlog->TrimReplicatedSegments();
  }
  // Trim is also a deterministic pump point: seals discovered here keep
  // maintenance-only workloads within budget too.
  if (tiered_ != nullptr) tiered_->PumpAll();
  return trimmed;
}

}  // namespace kera
