#include "broker/tiered_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/crc32c.h"

namespace kera {

TieredStore::TieredStore(TieredStoreOptions options, MemoryManager& memory)
    : options_(std::move(options)),
      shards_n_(std::max(1u, options_.shards)),
      budget_per_shard_(options_.memory_budget_bytes / shards_n_),
      memory_(memory),
      cold_pool_(options_.cold_cache_bytes > 0
                     ? options_.cold_cache_bytes
                     : 4 * options_.segment_size,
                 options_.segment_size),
      log_(std::make_unique<SegmentLog>(options_.spill_dir, options_.log)) {
  assert(options_.segment_size > 0);
  shards_.reserve(shards_n_);
  for (uint32_t i = 0; i < shards_n_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.async_readahead) {
    ra_worker_ = std::thread(&TieredStore::ReadaheadWorker, this);
  }
}

TieredStore::~TieredStore() {
  if (ra_worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ra_mu_);
      ra_shutdown_ = true;
    }
    ra_cv_.notify_all();
    ra_worker_.join();
  }
  // Cache entries must not outlive cold_pool_: any entry still alive here
  // has no external holders (consume responses are gone), so dropping the
  // map returns every pooled buffer before the pool destructs.
  cache_.clear();
}

void TieredStore::TrackStreamlet(StreamId stream, Streamlet* streamlet) {
  Shard& sh = *shards_[ShardOf(streamlet->id())];
  std::lock_guard<std::mutex> lock(sh.mu);
  StreamletTrack& t = sh.streamlets[{stream, streamlet->id()}];
  if (t.streamlet != streamlet) {
    // Fresh registration (or the broker rebuilt the streamlet): restart
    // discovery from group 0 of the new object.
    t = StreamletTrack{};
    t.streamlet = streamlet;
  }
}

// ------------------------------------------------------------- spill pump

void TieredStore::Pump(uint32_t shard) {
  Shard& sh = *shards_[shard % shards_n_];
  std::lock_guard<std::mutex> lock(sh.mu);

  for (auto& [id, track] : sh.streamlets) {
    const auto [stream, streamlet_id] = id;
    // Discover groups created since the last pump.
    GroupId next = track.streamlet->next_group_id();
    for (GroupId g = track.next_new_group; g < next; ++g) {
      if (Group* grp = track.streamlet->GetGroup(g); grp != nullptr) {
        track.open.emplace(g, GroupTrack{grp, 0});
      }
    }
    track.next_new_group = next;

    // Spill newly sealed segments, in seal order within each group.
    for (auto it = track.open.begin(); it != track.open.end();) {
      GroupTrack& gt = it->second;
      if (gt.group->trimmed()) {
        it = track.open.erase(it);
        continue;
      }
      size_t count = gt.group->segment_count();
      while (gt.next_spill < count) {
        Segment* seg = gt.group->GetSegment(SegmentId(gt.next_spill));
        if (seg == nullptr || !seg->closed()) break;
        SpillSegmentLocked(sh, stream, streamlet_id, it->first,
                           SegmentId(gt.next_spill), seg);
        ++gt.next_spill;
      }
      // A closed group with every segment enqueued needs no more visits.
      if (gt.group->closed() && gt.next_spill == count) {
        it = track.open.erase(it);
      } else {
        ++it;
      }
    }
  }

  EvictLocked(sh);
}

void TieredStore::PumpAll() {
  for (uint32_t i = 0; i < shards_n_; ++i) Pump(i);
}

void TieredStore::SpillSegmentLocked(Shard& sh, StreamId stream,
                                     StreamletId streamlet, GroupId group,
                                     SegmentId segment_id, Segment* seg) {
  const SegmentLog::CopyKey key = KeyFor(stream, streamlet, group, segment_id);
  const std::span<const std::byte> view = seg->View();
  const uint32_t crc = Crc32c(view);
  // One open + one whole-payload append + one seal; the log's group-commit
  // flusher owns the disk IO from here (Enqueue copies the payload, so the
  // segment buffer is free to be evicted once the seal ticket is durable).
  log_->EnqueueOpen(key);
  log_->EnqueueAppend(key, 0, view, /*chunk_count=*/0, crc);
  const uint64_t ticket =
      log_->EnqueueSeal(key, view.size(), /*chunk_count=*/0, crc);

  sh.candidates.push_back(Candidate{stream, streamlet, group, segment_id, seg,
                                    ticket, view.size()});
  sh.resident_sealed += view.size();
  sh.spilled[{stream, streamlet, group}] = uint32_t(segment_id) + 1;

  ++stats_.segments_spilled;
  stats_.spill_bytes += view.size();
}

void TieredStore::EvictLocked(Shard& sh) {
  if (sh.resident_sealed <= budget_per_shard_) return;
  // Clock hand: one pass over the candidates in spill order. A candidate
  // still replicating (durable head behind head) or pinned by an in-flight
  // zero-copy response gets a second chance — it keeps its place and is
  // reconsidered at the next pump.
  std::deque<Candidate> keep;
  bool synced = false;
  while (!sh.candidates.empty()) {
    Candidate c = sh.candidates.front();
    sh.candidates.pop_front();
    if (sh.resident_sealed <= budget_per_shard_) {
      keep.push_back(c);
      continue;
    }
    Segment* seg = c.segment;
    // Evict only fully replicated segments: the vlog never has to gather
    // from the spill tier, and consumers can already see every byte.
    if (seg->durable_head() != seg->head()) {
      keep.push_back(c);
      continue;
    }
    // The spill record must be on disk before the DRAM copy goes away.
    if (log_->DurableTicket() < c.ticket) {
      if (!synced) {
        synced = true;
        if (!log_->Sync().ok()) {
          keep.push_back(c);
          continue;
        }
      }
      if (log_->DurableTicket() < c.ticket) {
        keep.push_back(c);
        continue;
      }
    }
    if (!seg->TryEvict()) {  // reader pin won the race: second chance
      keep.push_back(c);
      continue;
    }
    Buffer buf = seg->DetachBuffer();
    if (buf.capacity() > 0) memory_.Release(std::move(buf));
    sh.resident_sealed -= c.bytes;
    ++stats_.segments_evicted;
  }
  sh.candidates = std::move(keep);
}

// ---------------------------------------------------------------- trimming

void TieredStore::OnGroupTrim(StreamId stream, StreamletId streamlet,
                              Group* group) {
  const GroupId gid = group->id();
  Shard& sh = *shards_[ShardOf(streamlet)];
  uint32_t spilled = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    std::deque<Candidate> keep;
    for (Candidate& c : sh.candidates) {
      if (c.stream == stream && c.streamlet == streamlet &&
          c.group_id == gid) {
        sh.resident_sealed -= c.bytes;  // buffer freed by Group::Trim
      } else {
        keep.push_back(c);
      }
    }
    sh.candidates = std::move(keep);
    if (auto it = sh.spilled.find({stream, streamlet, gid});
        it != sh.spilled.end()) {
      spilled = it->second;
      sh.spilled.erase(it);
    }
    if (auto st = sh.streamlets.find({stream, streamlet});
        st != sh.streamlets.end()) {
      st->second.open.erase(gid);
    }
  }
  // Drop the spilled copies so the spill log's hot-cold GC can reclaim
  // them, and purge the group's cold-cache entries (in-flight responses
  // keep theirs alive via shared_ptr).
  for (uint32_t s = 0; s < spilled; ++s) {
    log_->EnqueueEvacuate(KeyFor(stream, streamlet, gid, SegmentId(s)));
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.erase(cache_.lower_bound(KeyFor(stream, streamlet, gid, 0)),
               cache_.lower_bound(KeyFor(stream, streamlet, gid + 1, 0)));
}

// --------------------------------------------------------------- cold reads

Result<std::shared_ptr<const TieredStore::ColdSegment>> TieredStore::ReadCold(
    StreamId stream, StreamletId streamlet, GroupId group, SegmentId segment) {
  const SegmentLog::CopyKey key = KeyFor(stream, streamlet, group, segment);
  std::shared_ptr<ColdSegment> entry;
  std::vector<SegmentLog::CopyKey> prefetch;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto it = cache_.find(key); it != cache_.end()) {
      entry = it->second;
      entry->last_use = ++cache_clock_;
      if (entry->from_readahead) {
        // First demand touch of a speculatively loaded segment: the
        // readahead turned a would-be miss into a hit.
        entry->from_readahead = false;
        ++stats_.readahead_hits;
      }
      ++stats_.cold_cache_hits;
      return std::shared_ptr<const ColdSegment>(std::move(entry));
    }
    ++stats_.cold_cache_misses;
    auto loaded = LoadLocked(key, /*from_readahead=*/false);
    if (!loaded.ok()) return loaded.status();
    entry = std::move(*loaded);

    // Sequential readahead: catch-up consumers scan a group front to back,
    // so prefetch the next segments of the same group. kNotFound just
    // means the group has no more spilled segments.
    for (uint32_t i = 1; i <= options_.readahead_segments; ++i) {
      const SegmentLog::CopyKey next =
          KeyFor(stream, streamlet, group, SegmentId(uint32_t(segment) + i));
      if (cache_.count(next) != 0) continue;
      if (options_.async_readahead) {
        prefetch.push_back(next);
      } else {
        auto ra = LoadLocked(next, /*from_readahead=*/true);
        if (!ra.ok()) break;
        ++stats_.readahead_loads;
      }
    }
  }
  if (!prefetch.empty()) {
    {
      std::lock_guard<std::mutex> lock(ra_mu_);
      for (auto& k : prefetch) ra_queue_.push_back(k);
    }
    ra_cv_.notify_one();
  }
  return std::shared_ptr<const ColdSegment>(std::move(entry));
}

Result<std::shared_ptr<TieredStore::ColdSegment>> TieredStore::LoadLocked(
    const SegmentLog::CopyKey& key, bool from_readahead) {
  auto entry = std::make_shared<ColdSegment>();
  auto buf = cold_pool_.Acquire();
  while (!buf.ok() && !cache_.empty()) {
    // Pool exhausted: drop the least-recently-used cache entries. A
    // dropped entry's buffer comes back to the pool once its last holder
    // (possibly an in-flight response) releases it.
    auto victim = cache_.begin();
    for (auto it = std::next(cache_.begin()); it != cache_.end(); ++it) {
      if (it->second->last_use < victim->second->last_use) victim = it;
    }
    cache_.erase(victim);
    buf = cold_pool_.Acquire();
  }
  if (buf.ok()) {
    entry->buf = std::move(*buf);
    entry->pool = &cold_pool_;
  } else {
    // Every pooled buffer is pinned by an in-flight response: serve this
    // read from a transient buffer rather than stall or touch the hot pool.
    entry->buf = Buffer(options_.segment_size);
    entry->pool = nullptr;
  }
  uint64_t size = 0;
  Status s = log_->ReadSegmentInto(
      key, {entry->buf.data(), entry->buf.capacity()}, size);
  if (!s.ok()) return s;  // entry's dtor returns a pooled buffer
  entry->size = size;
  entry->from_readahead = from_readahead;
  entry->last_use = ++cache_clock_;
  cache_.emplace(key, entry);
  return entry;
}

void TieredStore::ReadaheadWorker() {
  std::unique_lock<std::mutex> lock(ra_mu_);
  for (;;) {
    ra_cv_.wait(lock, [&] { return ra_shutdown_ || !ra_queue_.empty(); });
    if (ra_shutdown_) return;
    const SegmentLog::CopyKey key = ra_queue_.front();
    ra_queue_.pop_front();
    lock.unlock();
    {
      std::lock_guard<std::mutex> cl(cache_mu_);
      if (cache_.count(key) == 0) {
        if (auto r = LoadLocked(key, /*from_readahead=*/true); r.ok()) {
          ++stats_.readahead_loads;
        }
      }
    }
    lock.lock();
  }
}

// -------------------------------------------------------------------- stats

TieredStore::Stats TieredStore::GetStats() const {
  Stats s = stats_;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    s.resident_sealed_bytes += sh->resident_sealed;
  }
  s.log = log_->GetStats();
  return s;
}

}  // namespace kera
