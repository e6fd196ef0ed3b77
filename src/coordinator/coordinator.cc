#include "coordinator/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "common/logging.h"
#include "rpc/call.h"
#include "wire/chunk.h"

namespace kera {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point since) {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - since)
                      .count());
}

/// Longest-processing-time-first makespan of `jobs` on `workers` identical
/// workers. Each job is an unbreakable chain (a vlog lane, or one backup's
/// read queue), so with one worker this is exactly the serial sum — which
/// makes modeled speedup = LptMakespan(jobs, 1) / LptMakespan(jobs, P).
uint64_t LptMakespan(std::vector<uint64_t> jobs, uint32_t workers) {
  if (jobs.empty()) return 0;
  if (workers <= 1) {
    return std::accumulate(jobs.begin(), jobs.end(), uint64_t{0});
  }
  std::sort(jobs.begin(), jobs.end(), std::greater<uint64_t>());
  std::vector<uint64_t> load(std::min<size_t>(workers, jobs.size()), 0);
  for (uint64_t j : jobs) {
    *std::min_element(load.begin(), load.end()) += j;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

/// One virtual segment of the crashed primary: the longest contiguous
/// copy's location, and (after the read phase) its payload.
struct Coordinator::RecoveryTask {
  VlogId vlog = 0;
  VirtualSegmentId vseg = 0;
  NodeId backup = 0;         // source holding the longest contiguous copy
  uint32_t chunk_count = 0;  // from the descriptor (diagnostics)
  std::vector<std::byte> payload;  // concatenated chunk frames
  uint64_t read_us = 0;    // attributed share of its batched read
  uint64_t replay_us = 0;  // measured replay wall time
};

Coordinator::Coordinator(rpc::Network& network, CoordinatorConfig config)
    : network_(network), config_(config) {}

void Coordinator::RegisterNode(NodeId node, Broker* broker, Backup* backup) {
  std::lock_guard<std::mutex> lock(mu_);
  brokers_[node] = broker;
  backups_[node] = backup;
  alive_[node] = true;
}

Coordinator::RecoveryStats Coordinator::GetRecoveryStats() const {
  std::lock_guard<std::mutex> lock(recovery_stats_mu_);
  return recovery_stats_;
}

Status Coordinator::AnnounceLeadership(const StreamState& state) {
  // Tell every broker that leads at least one streamlet about the stream,
  // then about each of its streamlets.
  std::map<NodeId, std::vector<StreamletId>> per_broker;
  for (StreamletId sl = 0; sl < state.info.streamlet_brokers.size(); ++sl) {
    NodeId leader = state.info.streamlet_brokers[sl];
    if (leader != kInvalidNode) per_broker[leader].push_back(sl);
  }
  for (const auto& [node, streamlets] : per_broker) {
    Broker* broker;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = brokers_.find(node);
      if (it == brokers_.end()) {
        return Status(StatusCode::kNotFound, "unknown broker node");
      }
      broker = it->second;
    }
    KERA_RETURN_IF_ERROR(broker->AddStream(state.name, state.info));
    for (StreamletId sl : streamlets) {
      KERA_RETURN_IF_ERROR(broker->AddStreamlet(state.info.stream, sl));
    }
  }
  return OkStatus();
}

Result<rpc::StreamInfo> Coordinator::CreateStream(
    const std::string& name, const rpc::StreamOptions& options) {
  if (options.num_streamlets == 0 ||
      options.active_groups_per_streamlet == 0 ||
      options.replication_factor == 0) {
    return Status(StatusCode::kInvalidArgument, "bad stream options");
  }
  StreamState* state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (streams_by_name_.count(name) != 0) {
      return Status(StatusCode::kAlreadyExists, "stream exists: " + name);
    }
    std::vector<NodeId> live;
    for (const auto& [node, alive] : alive_) {
      if (alive) live.push_back(node);
    }
    if (live.empty()) {
      return Status(StatusCode::kUnavailable, "no live brokers");
    }
    if (options.replication_factor > live.size()) {
      return Status(StatusCode::kInvalidArgument,
                    "replication factor exceeds cluster size");
    }
    auto owned = std::make_unique<StreamState>();
    owned->name = name;
    owned->info.stream = next_stream_id_++;
    owned->info.options = options;
    owned->info.streamlet_brokers.resize(options.num_streamlets);
    // Rotate the starting broker across stream creations so that many
    // small streams (1 streamlet each) still spread over the cluster.
    for (StreamletId sl = 0; sl < options.num_streamlets; ++sl) {
      owned->info.streamlet_brokers[sl] =
          live[(placement_cursor_ + sl) % live.size()];
    }
    placement_cursor_ =
        (placement_cursor_ + options.num_streamlets) % live.size();
    state = owned.get();
    streams_by_id_[owned->info.stream] = state;
    streams_by_name_.emplace(name, std::move(owned));
  }
  KERA_RETURN_IF_ERROR(AnnounceLeadership(*state));
  return state->info;
}

Result<rpc::StreamInfo> Coordinator::GetStreamInfo(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_by_name_.find(name);
  if (it == streams_by_name_.end()) {
    return Status(StatusCode::kNotFound, "no such stream: " + name);
  }
  return it->second->info;
}

Status Coordinator::SealStream(const std::string& name) {
  StreamState* state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_by_name_.find(name);
    if (it == streams_by_name_.end()) {
      return Status(StatusCode::kNotFound, "no such stream: " + name);
    }
    state = it->second.get();
    state->info.sealed = true;
  }
  std::set<NodeId> leaders(state->info.streamlet_brokers.begin(),
                           state->info.streamlet_brokers.end());
  for (NodeId node : leaders) {
    Broker* broker;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = brokers_.find(node);
      if (it == brokers_.end()) continue;
      broker = it->second;
    }
    KERA_RETURN_IF_ERROR(broker->SealStream(state->info.stream));
  }
  return OkStatus();
}

Result<uint64_t> Coordinator::RecoverNode(NodeId crashed) {
  const auto mttr_start = Clock::now();
  // 1. Mark dead and SCATTER the crashed broker's streamlets across all
  //    survivors: each lost streamlet goes to the survivor with the
  //    fewest projected streamlets (ingested bytes, then node id, break
  //    ties), so the recovered load — and the parallel replay below —
  //    spreads over the whole cluster instead of piling onto one
  //    successor. The pass is a pure function of coordinator metadata and
  //    broker counters, so deterministic workloads scatter destinations
  //    deterministically (the chaos harness depends on this).
  std::vector<NodeId> survivors;
  std::vector<StreamState*> affected;
  uint64_t scattered = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = alive_.find(crashed);
    if (it == alive_.end()) {
      return Status(StatusCode::kNotFound, "unknown node");
    }
    it->second = false;
    for (const auto& [node, live] : alive_) {
      if (live) survivors.push_back(node);
    }
    if (survivors.empty()) {
      return Status(StatusCode::kUnavailable, "no survivors");
    }
    struct Load {
      uint64_t streamlets = 0;
      uint64_t bytes = 0;
    };
    std::map<NodeId, Load> load;
    for (NodeId node : survivors) {
      load[node].bytes = brokers_[node]->GetStats().bytes_appended;
    }
    for (const auto& [_, state] : streams_by_name_) {
      for (NodeId leader : state->info.streamlet_brokers) {
        auto lit = load.find(leader);
        if (lit != load.end()) ++lit->second.streamlets;
      }
    }
    for (auto& [_, state] : streams_by_name_) {
      bool touched = false;
      for (auto& leader : state->info.streamlet_brokers) {
        if (leader != crashed) continue;
        NodeId best = survivors.front();
        for (NodeId candidate : survivors) {
          const Load& c = load[candidate];
          const Load& b = load[best];
          if (std::tie(c.streamlets, c.bytes, candidate) <
              std::tie(b.streamlets, b.bytes, best)) {
            best = candidate;
          }
        }
        leader = best;
        ++load[best].streamlets;
        ++scattered;
        touched = true;
      }
      if (touched) affected.push_back(state.get());
    }
  }
  // Tell survivors which backup services remain so their virtual logs
  // stop targeting the dead node for new virtual segments.
  PushLiveBackups();

  // 2. Fast re-point: announcing the new leaderships creates the storage
  //    objects on the survivors and wakes their parked consume long-polls
  //    (Broker::AddStreamlet -> NotifyConsumeWaitersAllShards), so
  //    clients re-resolve and reach the new leaders while the replay
  //    below is still streaming data in.
  for (StreamState* state : affected) {
    KERA_RETURN_IF_ERROR(AnnounceLeadership(*state));
  }

  // 3. Replay everything the crashed broker led from the surviving
  //    backups into the new leaders (parallel scatter-gather engine).
  auto replayed =
      ReplayFromBackups(crashed, [](StreamId, StreamletId) { return true; });
  if (!replayed.ok()) return replayed;

  // 4. The replay re-produced (and re-replicated, synchronously on the
  //    produce path) everything the crashed broker led, so the copies the
  //    backups still hold for it are garbage: evacuate them. Best-effort —
  //    a backup that is down keeps its stale copies until its next
  //    incarnation, which is merely unreclaimed space, never wrong data
  //    (replay is keyed by primary and the primary is gone for good).
  EvacuateBackups(crashed);
  {
    std::lock_guard<std::mutex> lock(recovery_stats_mu_);
    ++recovery_stats_.recoveries;
    recovery_stats_.streamlets_scattered += scattered;
    recovery_stats_.last_mttr_us = ElapsedUs(mttr_start);
  }
  return replayed;
}

uint64_t Coordinator::EvacuateBackups(NodeId primary) {
  std::vector<NodeId> backup_services;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [node, live] : alive_) {
      if (live && backup_down_.count(node) == 0) {
        backup_services.push_back(BackupServiceId(node));
      }
    }
  }
  uint64_t dropped = 0;
  for (NodeId backup : backup_services) {
    auto resp = rpc::Call(network_, backup,
                          rpc::EvacuateBackupSegmentsRequest{primary});
    if (resp.ok()) dropped += resp->dropped;
  }
  return dropped;
}

void Coordinator::PushLiveBackups() {
  std::vector<NodeId> live_backup_services;
  std::vector<Broker*> live_brokers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [node, live] : alive_) {
      if (!live) continue;
      if (backup_down_.count(node) == 0) {
        live_backup_services.push_back(BackupServiceId(node));
      }
      live_brokers.push_back(brokers_[node]);
    }
  }
  for (Broker* b : live_brokers) b->SetLiveBackups(live_backup_services);
}

Status Coordinator::RejoinNode(NodeId node, Broker* broker, Backup* backup) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = alive_.find(node);
    if (it == alive_.end()) {
      return Status(StatusCode::kNotFound, "unknown node");
    }
    if (it->second) {
      return Status(StatusCode::kAlreadyExists, "node is still alive");
    }
    // RecoverNode scattered every streamlet away from the dead node; a
    // leftover leadership would mean the caller skipped recovery and the
    // fresh (empty) broker would silently lead data it does not hold.
    for (const auto& [_, state] : streams_by_name_) {
      for (NodeId leader : state->info.streamlet_brokers) {
        if (leader == node) {
          return Status(StatusCode::kInvalidArgument,
                        "node still leads a streamlet; recover it first");
        }
      }
    }
    brokers_[node] = broker;
    backups_[node] = backup;
    backup_down_.erase(node);
    it->second = true;
  }
  PushLiveBackups();
  return OkStatus();
}

void Coordinator::NoteBackupDown(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    backup_down_.insert(node);
  }
  PushLiveBackups();
}

void Coordinator::NoteBackupUp(NodeId node, Backup* backup) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    backups_[node] = backup;
    backup_down_.erase(node);
  }
  PushLiveBackups();
}

Status Coordinator::ReplayTask(
    NodeId primary, RecoveryTask& task,
    const std::function<bool(StreamId, StreamletId)>& filter,
    uint64_t* chunks, uint64_t* bytes) {
  (void)primary;
  // Partition the segment's chunk frames per (target broker, stream,
  // streamlet): single-streamlet requests land shard-pure on a sharded
  // broker (HomeShardOf routes by the first chunk's streamlet, and every
  // chunk here shares it).
  std::map<std::tuple<NodeId, StreamId, StreamletId>, rpc::ProduceRequest>
      pending;
  std::span<const std::byte> rest = task.payload;
  while (!rest.empty()) {
    auto chunk = ChunkView::Parse(rest);
    if (!chunk.ok()) return chunk.status();
    StreamId stream = chunk->stream_id();
    StreamletId streamlet = chunk->streamlet_id();
    size_t advance = chunk->total_size();
    if (!filter(stream, streamlet)) {
      rest = rest.subspan(advance);
      continue;
    }
    NodeId target;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = streams_by_id_.find(stream);
      if (it == streams_by_id_.end()) {
        return Status(StatusCode::kCorruption,
                      "recovered chunk for unknown stream");
      }
      target = it->second->info.streamlet_brokers[streamlet];
    }
    auto& p = pending[{target, stream, streamlet}];
    p.stream = stream;
    p.recovery = true;
    p.producer = chunk->producer_id();
    p.chunks.push_back(chunk->raw());
    rest = rest.subspan(advance);
    *bytes += chunk->raw().size();
    ++*chunks;
  }
  for (auto& [key, p] : pending) {
    auto resp = rpc::Call(network_, std::get<0>(key), p);
    if (!resp.ok()) return resp.status();
  }
  return OkStatus();
}

Result<uint64_t> Coordinator::ReplayFromBackups(
    NodeId primary,
    const std::function<bool(StreamId, StreamletId)>& filter) {
  // Collect `primary`'s replicated virtual segments from every backup.
  // Several backups can hold the same virtual segment (R > 2) — keep one
  // source per segment; different segments spread over different backups
  // get read independently (the paper's parallel recovery).
  std::vector<NodeId> backup_services;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [node, live] : alive_) {
      if (live && backup_down_.count(node) == 0) {
        backup_services.push_back(BackupServiceId(node));
      }
    }
  }
  struct Source {
    NodeId backup;
    rpc::RecoverySegmentDescriptor desc;
  };
  std::map<std::pair<VlogId, VirtualSegmentId>, Source> sources;
  for (NodeId backup : backup_services) {
    auto resp = rpc::Call(network_, backup,
                          rpc::ListRecoverySegmentsRequest{primary});
    if (!resp.ok()) continue;  // that backup may be down too
    for (const auto& desc : resp->segments) {
      // Copies of one virtual segment can differ in length: a backup that
      // (re)started mid-stream holds only a suffix buffered as pending —
      // its contiguous chunk_count is short (possibly zero) while a
      // backup that followed from the start holds everything. Replay from
      // the longest contiguous copy; every chunk the primary acked is in
      // at least one backup's contiguous prefix.
      auto [it, inserted] =
          sources.try_emplace({desc.vlog, desc.vseg}, Source{backup, desc});
      if (!inserted && desc.chunk_count > it->second.desc.chunk_count) {
        it->second = Source{backup, desc};
      }
    }
  }

  // One recovery task per (vlog, virtual segment). Replay order matters
  // only WITHIN a vlog: all chunks of a group — and
  // all chunks of a (streamlet, producer) sequence — flow through exactly
  // one vlog in append order (a streamlet's shared-pool vlog is a pure
  // function of (stream, streamlet); a sub-partition slot is pinned by
  // producer % Q). So tasks of one vlog form a serial LANE in ascending
  // vseg order, and lanes replay concurrently, bounded by
  // recovery_parallelism.
  // Rank-major interleave: emit the i-th segment of EVERY vlog before any
  // vlog's (i+1)-th. A crashed broker's data often concentrates in few
  // vlogs (a shared-pool vlog is hashed per streamlet), and each wave
  // below only parallelizes across the lanes it contains — vlog-major
  // order would fill whole waves from a single lane. Per-vlog ascending
  // vseg order is preserved (sources is a (vlog, vseg)-ordered map), so
  // lanes stay serial chains across wave boundaries.
  std::vector<RecoveryTask> tasks;
  tasks.reserve(sources.size());
  {
    std::map<VlogId, std::vector<const Source*>> by_vlog;
    for (const auto& [key, source] : sources) {
      by_vlog[key.first].push_back(&source);
    }
    for (size_t rank = 0; tasks.size() < sources.size(); ++rank) {
      for (const auto& [vlog, group] : by_vlog) {
        if (rank >= group.size()) continue;
        const Source& source = *group[rank];
        RecoveryTask t;
        t.vlog = source.desc.vlog;
        t.vseg = source.desc.vseg;
        t.backup = source.backup;
        t.chunk_count = source.desc.chunk_count;
        tasks.push_back(std::move(t));
      }
    }
  }

  const uint32_t parallelism = std::max<uint32_t>(1, config_.recovery_parallelism);
  const uint32_t read_batch = std::max<uint32_t>(1, config_.recovery_read_batch);
  const bool use_threads = config_.recovery_use_threads && parallelism > 1;
  // Waves bound the payload memory held at once to roughly
  // parallelism * read_batch segments; the rank-major interleave above
  // keeps every lane's tasks in order across wave boundaries.
  const size_t wave_size = size_t(parallelism) * size_t(read_batch);

  const auto replay_start = Clock::now();
  uint64_t chunks_total = 0;
  uint64_t bytes_total = 0;
  uint64_t read_rpcs = 0;
  uint64_t modeled_mttr = 0;
  uint64_t modeled_serial = 0;
  uint64_t peak_fanout = 0;
  Histogram task_hist;

  for (size_t wave = 0; wave < tasks.size(); wave += wave_size) {
    const size_t wave_end = std::min(tasks.size(), wave + wave_size);

    // ---- read phase: batched reads, grouped per source backup ----------
    struct ReadBatch {
      NodeId backup = 0;
      std::vector<size_t> task_idx;
      uint64_t cost_us = 0;
    };
    std::vector<ReadBatch> batches;
    {
      std::map<NodeId, std::vector<size_t>> by_backup;
      for (size_t i = wave; i < wave_end; ++i) {
        by_backup[tasks[i].backup].push_back(i);
      }
      for (auto& [backup, idx] : by_backup) {
        for (size_t off = 0; off < idx.size(); off += read_batch) {
          ReadBatch b;
          b.backup = backup;
          b.task_idx.assign(
              idx.begin() + off,
              idx.begin() + std::min(idx.size(), off + read_batch));
          batches.push_back(std::move(b));
        }
      }
    }
    auto encode_batch = [&](const ReadBatch& b) {
      rpc::ReadRecoverySegmentBatchRequest req;
      req.crashed = primary;
      for (size_t i : b.task_idx) {
        req.items.push_back({tasks[i].vlog, tasks[i].vseg});
      }
      return rpc::Frame(req);
    };
    auto apply_batch = [&](const ReadBatch& b,
                           const std::vector<std::byte>& raw) -> Status {
      rpc::Reader r(raw);
      auto resp = rpc::ReadRecoverySegmentBatchResponse::Decode(r);
      if (!resp.ok()) return resp.status();
      if (resp->status != StatusCode::kOk || resp->items.size() != b.task_idx.size()) {
        return Status(resp->status == StatusCode::kOk ? StatusCode::kCorruption
                                                      : resp->status,
                      "recovery batch read failed");
      }
      for (size_t j = 0; j < b.task_idx.size(); ++j) {
        const auto& item = resp->items[j];
        if (item.status != StatusCode::kOk) {
          return Status(item.status, "recovery segment read failed");
        }
        RecoveryTask& t = tasks[b.task_idx[j]];
        t.payload.assign(item.payload.begin(), item.payload.end());
      }
      return OkStatus();
    };
    read_rpcs += batches.size();
    if (use_threads) {
      // All of a wave's batches in flight at once (they target distinct
      // round trips; the transport bounds per-node concurrency).
      std::vector<std::future<Result<std::vector<std::byte>>>> futures;
      futures.reserve(batches.size());
      for (const ReadBatch& b : batches) {
        futures.push_back(network_.CallAsync(b.backup, encode_batch(b)));
      }
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        auto raw = futures[bi].get();
        if (!raw.ok()) return raw.status();
        KERA_RETURN_IF_ERROR(apply_batch(batches[bi], *raw));
      }
    } else {
      for (ReadBatch& b : batches) {
        const auto start = Clock::now();
        auto raw = network_.Call(b.backup, encode_batch(b));
        if (!raw.ok()) return raw.status();
        KERA_RETURN_IF_ERROR(apply_batch(b, *raw));
        b.cost_us = ElapsedUs(start);
        for (size_t i : b.task_idx) {
          tasks[i].read_us = b.cost_us / b.task_idx.size();
        }
      }
    }

    // ---- replay phase: per-vlog lanes, parallel across lanes -----------
    // Wave order is rank-major, so grouping by vlog VALUE keeps each
    // lane's tasks in ascending vseg order.
    std::vector<std::vector<size_t>> lanes;
    {
      std::map<VlogId, size_t> lane_of;
      for (size_t i = wave; i < wave_end; ++i) {
        auto [it, inserted] = lane_of.try_emplace(tasks[i].vlog, lanes.size());
        if (inserted) lanes.emplace_back();
        lanes[it->second].push_back(i);
      }
    }
    peak_fanout = std::max<uint64_t>(
        peak_fanout, std::min<uint64_t>(parallelism, lanes.size()));

    Status replay_status = OkStatus();
    if (use_threads && lanes.size() > 1) {
      std::atomic<size_t> next_lane{0};
      std::atomic<bool> failed{false};
      std::mutex result_mu;
      auto worker = [&] {
        for (;;) {
          size_t li = next_lane.fetch_add(1, std::memory_order_relaxed);
          if (li >= lanes.size() || failed.load(std::memory_order_relaxed)) {
            return;
          }
          for (size_t i : lanes[li]) {
            uint64_t chunks = 0, bytes = 0;
            const auto start = Clock::now();
            Status s = ReplayTask(primary, tasks[i], filter, &chunks, &bytes);
            tasks[i].replay_us = ElapsedUs(start);
            std::lock_guard<std::mutex> lock(result_mu);
            chunks_total += chunks;
            bytes_total += bytes;
            if (!s.ok()) {
              if (replay_status.ok()) replay_status = s;
              failed.store(true, std::memory_order_relaxed);
              return;
            }
          }
        }
      };
      const size_t n_workers = std::min<size_t>(parallelism, lanes.size());
      std::vector<std::thread> threads;
      threads.reserve(n_workers);
      for (size_t w = 0; w < n_workers; ++w) threads.emplace_back(worker);
      for (auto& t : threads) t.join();
    } else {
      for (const auto& lane : lanes) {
        for (size_t i : lane) {
          uint64_t chunks = 0, bytes = 0;
          const auto start = Clock::now();
          Status s = ReplayTask(primary, tasks[i], filter, &chunks, &bytes);
          tasks[i].replay_us = ElapsedUs(start);
          chunks_total += chunks;
          bytes_total += bytes;
          if (!s.ok()) {
            replay_status = s;
            break;
          }
        }
        if (!replay_status.ok()) break;
      }
    }
    if (!replay_status.ok()) return replay_status;

    // ---- model the wave's parallel makespan (serial path only) ---------
    if (!use_threads) {
      // Reads: each backup serves its own batches serially; distinct
      // backups stream concurrently, bounded by parallelism. Replay:
      // lanes are unbreakable chains over `parallelism` workers. With
      // parallelism == 1 both terms collapse to the measured serial sum,
      // so the serial baseline and the model share one clock.
      std::map<NodeId, uint64_t> read_per_backup;
      for (const ReadBatch& b : batches) read_per_backup[b.backup] += b.cost_us;
      std::vector<uint64_t> read_jobs;
      for (const auto& [_, us] : read_per_backup) read_jobs.push_back(us);
      std::vector<uint64_t> lane_jobs;
      for (const auto& lane : lanes) {
        uint64_t us = 0;
        for (size_t i : lane) us += tasks[i].replay_us;
        lane_jobs.push_back(us);
      }
      modeled_mttr += LptMakespan(read_jobs, parallelism) +
                      LptMakespan(lane_jobs, parallelism);
      modeled_serial += LptMakespan(std::move(read_jobs), 1) +
                        LptMakespan(std::move(lane_jobs), 1);
    }
    for (size_t i = wave; i < wave_end; ++i) {
      task_hist.Record(tasks[i].replay_us);
      tasks[i].payload.clear();
      tasks[i].payload.shrink_to_fit();
    }
  }

  // Close the rebuilt recovery groups so consumers advance past them to
  // any groups created by post-replay appends (wakes parked long-polls:
  // the fast re-point's second edge).
  {
    std::vector<Broker*> live_brokers;
    std::vector<StreamId> stream_ids;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [node, live] : alive_) {
        if (live) live_brokers.push_back(brokers_[node]);
      }
      for (const auto& [id, _] : streams_by_id_) stream_ids.push_back(id);
    }
    for (Broker* b : live_brokers) {
      for (StreamId id : stream_ids) {
        (void)b->FinishRecovery(id);  // kNotFound is fine: not hosted there
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(recovery_stats_mu_);
    recovery_stats_.tasks_issued += tasks.size();
    recovery_stats_.chunks_replayed += chunks_total;
    recovery_stats_.bytes_replayed += bytes_total;
    recovery_stats_.read_rpcs += read_rpcs;
    recovery_stats_.read_rpcs_saved += tasks.size() - read_rpcs;
    recovery_stats_.peak_fanout =
        std::max(recovery_stats_.peak_fanout, peak_fanout);
    if (use_threads) {
      recovery_stats_.modeled_mttr_us = ElapsedUs(replay_start);
      recovery_stats_.modeled_serial_us = 0;  // wall clock is authoritative
    } else {
      recovery_stats_.modeled_mttr_us = modeled_mttr;
      recovery_stats_.modeled_serial_us = modeled_serial;
    }
    recovery_stats_.task_replay_us.Merge(task_hist);
  }
  return chunks_total;
}

Result<uint64_t> Coordinator::MigrateStreamlet(const std::string& name,
                                               StreamletId streamlet,
                                               NodeId target) {
  StreamState* state;
  NodeId old_leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_by_name_.find(name);
    if (it == streams_by_name_.end()) {
      return Status(StatusCode::kNotFound, "no such stream: " + name);
    }
    state = it->second.get();
    if (streamlet >= state->info.streamlet_brokers.size()) {
      return Status(StatusCode::kInvalidArgument, "no such streamlet");
    }
    if (state->info.options.replication_factor < 2) {
      // Migration replays from the backups; an unreplicated stream has no
      // backup copies to replay from.
      return Status(StatusCode::kInvalidArgument,
                    "cannot migrate a stream with replication factor 1");
    }
    auto live = alive_.find(target);
    if (live == alive_.end() || !live->second) {
      return Status(StatusCode::kUnavailable, "target broker not alive");
    }
    old_leader = state->info.streamlet_brokers[streamlet];
    if (old_leader == target) return uint64_t{0};
    // Flip leadership first so the replay below targets the new broker.
    state->info.streamlet_brokers[streamlet] = target;
  }
  KERA_RETURN_IF_ERROR(AnnounceLeadership(*state));

  // The old leader stops accepting appends; acknowledged data is already
  // on the backups (acks imply replication), so the replay below is
  // complete even for the freshest chunks.
  {
    Broker* old_broker = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = brokers_.find(old_leader);
      if (it != brokers_.end()) old_broker = it->second;
    }
    if (old_broker != nullptr) {
      KERA_RETURN_IF_ERROR(
          old_broker->DropStreamletLeadership(state->info.stream, streamlet));
    }
  }

  StreamId stream_id = state->info.stream;
  return ReplayFromBackups(
      old_leader, [stream_id, streamlet](StreamId s, StreamletId sl) {
        return s == stream_id && sl == streamlet;
      });
}


std::pair<ProducerId, uint32_t> Coordinator::AllocateProducer(
    ProducerId producer) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t& epoch = producer_epochs_[producer];
  ++epoch;
  return {producer, epoch};
}

std::vector<std::byte> Coordinator::HandleRpc(
    std::span<const std::byte> request) {
  // CreateStream and GetStreamInfo reply with the stream's info.
  auto info_reply = []<typename Resp>(Resp resp,
                                      const Result<rpc::StreamInfo>& info) {
    if (info.ok()) {
      resp.info = *info;
    } else {
      resp.status = info.status().code();
    }
    return resp;
  };
  return rpc::Dispatch(
      request,
      rpc::Serve<rpc::CreateStreamRequest>([&](const auto& req) {
        return info_reply(rpc::CreateStreamResponse{},
                          CreateStream(req.name, req.options));
      }),
      rpc::Serve<rpc::SealStreamRequest>([this](const auto& req) {
        return rpc::SealStreamResponse{SealStream(req.name).code()};
      }),
      rpc::Serve<rpc::GetStreamInfoRequest>([&](const auto& req) {
        return info_reply(rpc::GetStreamInfoResponse{},
                          GetStreamInfo(req.name));
      }),
      rpc::Serve<rpc::AllocateProducerRequest>([this](const auto& req) {
        auto [producer, epoch] = AllocateProducer(req.producer);
        return rpc::AllocateProducerResponse{.producer = producer,
                                             .epoch = epoch};
      }));
}

}  // namespace kera
