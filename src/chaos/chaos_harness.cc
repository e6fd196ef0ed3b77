#include "chaos/chaos_harness.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "storage/segment_log.h"
#include "chaos/invariant_checker.h"
#include "cluster/mini_cluster.h"
#include "common/rng.h"
#include "rpc/messages.h"
#include "wire/chunk.h"

namespace kera::chaos {

namespace {

constexpr char kStreamName[] = "chaos";
constexpr ProducerId kProducerBase = 100;
/// Resend attempts per chunk within one produce event. The chunk is NOT
/// given up across events: an unacked chunk keeps its sequence number and
/// the next produce event for the same (producer, streamlet) retries the
/// byte-identical frame, modeling a producer that never reorders.
constexpr int kMaxAttemptsPerEvent = 3;
/// A consumer commits its cursor snapshot every N of its consume events;
/// a consumer restart rewinds to the committed snapshot.
constexpr uint64_t kCommitEveryConsumeEvents = 2;

class Harness {
 public:
  Harness(const Schedule& s, const RunOptions& options)
      : sched_(s),
        options_(options),
        net_(direct_, s.seed ^ 0x9E3779B97F4A7C15ull) {}

  ~Harness() {
    // Backups close their log files before the scratch dir goes away.
    cluster_.reset();
    if (!pl_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(pl_dir_, ec);
    }
    if (!spill_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(spill_dir_, ec);
    }
  }

  RunResult Run() {
    trace_ += FormatTraceHeader(sched_);
    if (!Setup()) return FinishTrace(0);

    size_t i = 0;
    for (; i < sched_.events.size(); ++i) {
      event_index_ = i;
      trace_ += FormatEventLine(sched_.events[i]);
      bool ok = Dispatch(sched_.events[i]);
      ++result_.events_run;
      if (!ok) break;
      if (!CheckStructural()) break;
    }
    if (result_.ok) {
      event_index_ = size_t(-1);
      FinalPhase();
      i = sched_.events.size();
    } else {
      ++i;  // the failing event's line is already in the trace
    }
    return FinishTrace(i);
  }

 private:
  struct Cursor {
    GroupId group = 0;
    uint64_t next_chunk = 0;
  };
  struct Producer {
    /// Last acked sequence per streamlet; the next chunk is seq + 1.
    std::map<StreamletId, ChunkSeq> acked_seq;
    /// Send attempts already made for the current (unacked) sequence —
    /// every attempt beyond the first is a resend that may legitimately
    /// turn into a broker dedup hit, so it feeds the duplication budget.
    std::map<StreamletId, uint64_t> attempts;
    /// Coordinator-assigned session epoch (exactly-once mode only; 0
    /// keeps the classic epoch-less chunk format).
    uint32_t epoch = 0;
  };
  struct Consumer {
    std::map<StreamletId, Cursor> cur;
    std::map<StreamletId, Cursor> committed;
    std::set<std::tuple<StreamletId, ProducerId, ChunkSeq>> consumed;
    std::map<std::pair<StreamletId, ProducerId>, ChunkSeq> last_seq;
    /// Chunks consumed (fresh or redelivered) since the last commit: a
    /// restart may re-deliver at most this many, so it moves into
    /// `allowance` when the consumer restarts.
    uint64_t read_since_commit = 0;
    uint64_t redelivered = 0;
    uint64_t allowance = 0;
    uint64_t consume_events = 0;
    /// Exactly-once mode: session epoch under the consumer's system
    /// producer id, and the monotonic sequence its durable offset commits
    /// are deduplicated by.
    uint32_t epoch = 0;
    uint64_t commit_seq = 0;
  };

  // ----- plumbing ---------------------------------------------------------

  bool Setup() {
    MiniClusterConfig cfg;
    cfg.nodes = sched_.nodes;
    cfg.broker_memory_bytes = 64u << 20;
    // Tiny geometry: a handful of chunks rolls segments, groups and
    // virtual segments, so every schedule exercises rotation, sealing and
    // evacuation — not just the happy append path.
    cfg.segment_size = 2048;
    cfg.segments_per_group = 2;
    cfg.virtual_segment_capacity = 4096;
    cfg.replication_max_batch_bytes = 1536;
    cfg.vlogs_per_broker = 2;
    cfg.replication_window = 2;
    // One thread drives everything, so sharded runs stay deterministic
    // too.
    cfg.broker_shards = std::max<uint32_t>(1, options_.broker_shards);
    cfg.recovery_parallelism =
        std::max<uint32_t>(1, options_.recovery_parallelism);
    cfg.recovery_read_batch = 4;  // tiny geometry: small batches still batch
    if (sched_.power_loss) {
      // Power-loss runs give every backup a real on-disk segment log in a
      // per-run scratch dir. Tiny log files and eager flushing so a
      // handful of chunks spans several files and flush groups; GC OFF so
      // the byte layout on disk is a pure function of the schedule (the
      // collector's timing would perturb where the cut lands).
      char dir[128];
      std::snprintf(dir, sizeof(dir), "/tmp/kera_chaos_pl_%" PRIu64 "_%d",
                    sched_.seed, int(::getpid()));
      pl_dir_ = dir;
      std::error_code ec;
      std::filesystem::remove_all(pl_dir_, ec);
      cfg.backup_dir = pl_dir_ + "/n%u";
      cfg.backup_log.log_file_bytes = 32u << 10;
      cfg.backup_log.flush_interval_us = 500;
      cfg.backup_log.flush_batch_bytes = 16u << 10;
      cfg.backup_log.gc_live_ratio = 0.0;
    }
    if (options_.memory_budget_bytes > 0) {
      // Tiered broker memory under chaos: a per-run scratch tree holds
      // every broker's spill log. Budget small enough (callers pass a few
      // segments' worth) that schedules evict mid-run and catch-up
      // consumers exercise the cold-read path; readahead stays inline
      // (async_readahead is off for external networks), so the cache
      // state — like everything else here — is a function of the
      // schedule alone.
      char dir[128];
      std::snprintf(dir, sizeof(dir), "/tmp/kera_chaos_spill_%" PRIu64 "_%d",
                    sched_.seed, int(::getpid()));
      spill_dir_ = dir;
      std::error_code ec;
      std::filesystem::remove_all(spill_dir_, ec);
      cfg.broker_memory_budget_bytes = options_.memory_budget_bytes;
      cfg.broker_spill_dir = spill_dir_ + "/n%u";
      cfg.broker_cold_cache_bytes = 4 * cfg.segment_size;
      cfg.broker_readahead_segments = 2;
    }
    cfg.external_network = &net_;
    cfg.external_register = [this](NodeId n, rpc::RpcHandler* h) {
      direct_.Register(n, h);
    };
    cfg.external_crash = [this](NodeId n) { direct_.Crash(n); };
    cfg.external_restore = [this](NodeId n, rpc::RpcHandler* h) {
      direct_.Restore(n, h);
    };
    cluster_ = std::make_unique<MiniCluster>(cfg);

    producers_.resize(sched_.producers);
    consumers_.resize(sched_.consumers);

    rpc::StreamOptions opts;
    opts.num_streamlets = sched_.streamlets;
    opts.active_groups_per_streamlet = 1;
    opts.replication_factor = sched_.replication_factor;
    opts.vlog_policy = sched_.vlog_per_subpartition
                           ? rpc::VlogPolicy::kPerSubPartition
                           : rpc::VlogPolicy::kSharedPerBroker;
    auto created = cluster_->coordinator().CreateStream(kStreamName, opts);
    if (!created.ok()) {
      return Fail("setup: CreateStream failed: %s",
                  created.status().ToString().c_str());
    }
    info_ = *created;
    if (options_.exactly_once) {
      // Idempotent-producer sessions for every client (control-plane
      // direct calls, so setup stays off the faulty network). Consumers
      // allocate under their system producer id so restarted commits
      // would fence stale ones.
      for (uint32_t pidx = 0; pidx < sched_.producers; ++pidx) {
        producers_[pidx].epoch =
            cluster_->coordinator()
                .AllocateProducer(kProducerBase + pidx)
                .second;
      }
      for (uint32_t cidx = 0; cidx < sched_.consumers; ++cidx) {
        consumers_[cidx].epoch =
            cluster_->coordinator()
                .AllocateProducer(ProducerId(0x80000000u | cidx))
                .second;
      }
    }
    return true;
  }

  RunResult FinishTrace(size_t next_event) {
    if (next_event < sched_.events.size()) {
      Annotate("schedule aborted; remaining events were not executed");
      for (size_t i = next_event; i < sched_.events.size(); ++i) {
        trace_ += FormatEventLine(sched_.events[i]);
      }
    }
    trace_ += "end\n";
    result_.trace = std::move(trace_);
    result_.net = net_.GetStats();
    result_.dedup_hits = CurrentDedupHits();
    if (cluster_ != nullptr) {
      result_.broker = cluster_->TotalBrokerStats();
      result_.backup = cluster_->TotalBackupStats();
      result_.recovery = cluster_->coordinator().GetRecoveryStats();
    }
    return std::move(result_);
  }

  void Annotate(const char* fmt, ...) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    trace_ += "# ";
    trace_ += buf;
    trace_ += "\n";
  }

  bool Fail(const char* fmt, ...) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    result_.ok = false;
    result_.failure = buf;
    result_.failed_event = event_index_;
    Annotate("FAILURE: %s", buf);
    return false;
  }

  void RefreshInfo() {
    auto r = cluster_->coordinator().GetStreamInfo(kStreamName);
    if (r.ok()) info_ = *r;
  }

  bool DrainAll() {
    bool all = true;
    for (NodeId n : cluster_->BrokerNodes()) {
      all = cluster_->broker(n).DrainReplication() && all;
    }
    return all;
  }

  /// Quiescence: heal the network, drain pending replication, deliver the
  /// held (late, shuffled) retransmissions, and drain whatever they
  /// caused. Returns whether everything drained.
  bool Quiesce() {
    net_.ClearFaults();
    edge_policies_.clear();
    bool drained = DrainAll();
    size_t replayed = net_.ReleaseHeld();
    drained = DrainAll() && drained;
    if (replayed != 0 || !drained) {
      Annotate("quiesce: replayed=%zu drained=%d vclock=%" PRIu64, replayed,
               int(drained), net_.virtual_now_us());
    }
    return drained;
  }

  uint64_t CurrentDedupHits() const {
    uint64_t total = 0;
    for (NodeId n : cluster_->BrokerNodes()) {
      total += cluster_->broker(n).GetStats().chunks_duplicate;
    }
    return total;
  }

  std::map<std::pair<StreamletId, ProducerId>, uint64_t>
  CurrentDedupHitsByKey() const {
    std::map<std::pair<StreamletId, ProducerId>, uint64_t> hits;
    for (NodeId n : cluster_->BrokerNodes()) {
      for (const auto& [key, count] :
           cluster_->broker(n).DedupHitsByKey(info_.stream)) {
        hits[key] += count;
      }
    }
    return hits;
  }

  // ----- invariants -------------------------------------------------------

  bool CheckStructural() {
    std::string v = InvariantChecker::CheckVirtualLogs(*cluster_,
                                                       &result_.checks);
    if (!v.empty()) return Fail("invariant 1 (durable prefix): %s", v.c_str());
    v = InvariantChecker::CheckAckedDurable(*cluster_, kStreamName, acked_,
                                            &result_.checks);
    if (!v.empty()) return Fail("invariant 2 (no acked loss): %s", v.c_str());
    v = InvariantChecker::CheckChecksumCounters(*cluster_, &result_.checks);
    if (!v.empty()) return Fail("invariant 5 (checksums): %s", v.c_str());
    return true;
  }

  bool CheckDuplicateBound() {
    // Every broker dedup hit must be explained by a resend of that same
    // dedup key, an injected duplicate delivery (immediate or
    // late-replayed), or recovery/migration replay traffic. The bound is
    // charged PER (streamlet, producer) key — a key's own resends plus
    // the schedule-wide injected/replayed slack (each such event can
    // re-present at most one already-accepted chunk per key) — so a hot
    // key's unexplained duplicates cannot hide under another key's
    // unused budget.
    ChaosNetwork::Stats ns = net_.GetStats();
    uint64_t slack = ns.duplicated_requests + ns.replayed_frames +
                     result_.recovery_replayed;
    std::string v = InvariantChecker::CheckDuplicateBound(
        CurrentDedupHitsByKey(), retried_by_key_, slack, &result_.checks);
    if (!v.empty()) {
      return Fail("invariant 4 (bounded duplication): %s", v.c_str());
    }
    return true;
  }

  // ----- event execution --------------------------------------------------

  bool Dispatch(const FaultEvent& ev) {
    switch (ev.kind) {
      case FaultKind::kProduce:
        return ExecProduce(ev.a % sched_.producers,
                           StreamletId(ev.b % sched_.streamlets));
      case FaultKind::kConsume:
        return ExecConsume(ev.a % sched_.consumers, 1 + ev.b % 3);
      case FaultKind::kBrokerCrash:
        return ExecBrokerCrash(1 + (ev.a - 1) % sched_.nodes);
      case FaultKind::kMigrate:
        return ExecMigrate(StreamletId(ev.a % sched_.streamlets),
                           1 + (ev.b - 1) % sched_.nodes);
      case FaultKind::kBackupCrash:
        return ExecBackupCrash(1 + (ev.a - 1) % sched_.nodes);
      case FaultKind::kBackupRestart:
        return ExecBackupRestart(1 + (ev.a - 1) % sched_.nodes);
      case FaultKind::kNetFault:
        return ExecNetFault(ev);
      case FaultKind::kHealNetwork:
        return ExecHeal();
      case FaultKind::kConsumerRestart:
        return ExecConsumerRestart(ev.a % sched_.consumers);
      case FaultKind::kPowerLoss:
        return ExecPowerLoss(1 + (ev.a - 1) % sched_.nodes, ev.arg);
    }
    return Fail("unknown event kind %u", unsigned(ev.kind));
  }

  bool ExecProduce(uint32_t pidx, StreamletId sl) {
    Producer& p = producers_[pidx];
    ProducerId pid = kProducerBase + pidx;
    ChunkSeq seq = p.acked_seq[sl] + 1;

    // The chunk is a pure function of (schedule seed, producer, streamlet,
    // seq): a cross-event retry rebuilds the byte-identical frame, so the
    // broker's dedup sees a true retransmission.
    ChunkBuilder builder(768);
    builder.Start(info_.stream, sl, pid, p.epoch);
    Xoshiro256 payload_rng(sched_.seed ^ (uint64_t(pid) << 40) ^
                           (uint64_t(sl) << 32) ^ seq);
    int records = 1 + int(payload_rng.NextBounded(3));
    std::vector<std::byte> value;
    for (int rec = 0; rec < records; ++rec) {
      value.resize(8 + payload_rng.NextBounded(96));
      for (size_t i = 0; i < value.size(); i += 8) {
        uint64_t word = payload_rng.Next();
        for (size_t j = i; j < std::min(i + 8, value.size()); ++j) {
          value[j] = std::byte(word & 0xff);
          word >>= 8;
        }
      }
      if (!builder.AppendValue(value)) break;
    }
    auto chunk = builder.Seal(seq);

    rpc::ProduceRequest req;
    req.producer = pid;
    req.stream = info_.stream;
    req.chunks.push_back(chunk);
    auto frame = rpc::Frame(req);

    uint64_t& attempts = p.attempts[sl];
    bool acked = false;
    uint32_t duplicates = 0;
    for (int t = 0; t < kMaxAttemptsPerEvent && !acked; ++t) {
      if (attempts > 0) {
        ++result_.retried_sends;
        ++retried_by_key_[{sl, pid}];
      }
      ++attempts;
      RefreshInfo();
      NodeId leader = info_.streamlet_brokers[sl];
      auto raw = net_.Call(leader, frame);
      if (!raw.ok()) continue;
      rpc::Reader r(*raw);
      auto resp = rpc::ProduceResponse::Decode(r);
      if (!resp.ok()) return Fail("produce response did not decode");
      if (resp->status == StatusCode::kOk) {
        acked = true;
        duplicates = resp->duplicates;
      }
      // kNotLeader/kUnavailable/...: retry after re-resolving the leader.
    }
    if (acked) {
      p.acked_seq[sl] = seq;
      attempts = 0;
      acked_[{sl, pid}].insert(seq);
      ++result_.acked_chunks;
      Annotate("produce p=%u sl=%u seq=%" PRIu64 " acked dup=%u", unsigned(pid),
               unsigned(sl), seq, duplicates);
    } else {
      ++result_.abandoned_sends;
      Annotate("produce p=%u sl=%u seq=%" PRIu64 " unacked attempts=%" PRIu64,
               unsigned(pid), unsigned(sl), seq, attempts);
    }
    return true;
  }

  bool ConsumeOnce(Consumer& c, StreamletId sl, bool* progress) {
    RefreshInfo();
    NodeId leader = info_.streamlet_brokers[sl];
    Cursor& cur = c.cur[sl];

    rpc::ConsumeRequest req;
    req.stream = info_.stream;
    req.max_bytes = 1u << 20;
    rpc::ConsumeEntryRequest er;
    er.streamlet = sl;
    er.group = cur.group;
    er.start_chunk = cur.next_chunk;
    er.max_chunks = 16;
    req.entries.push_back(er);
    auto raw = net_.Call(leader, rpc::Frame(req));
    if (!raw.ok()) return true;  // injected fault; no progress this round
    rpc::Reader r(*raw);
    auto resp = rpc::ConsumeResponse::Decode(r);
    if (!resp.ok()) return Fail("consume response did not decode");
    if (resp->status != StatusCode::kOk) return true;

    for (const auto& entry : resp->entries) {
      if (!entry.group_exists) continue;
      uint64_t idx = cur.next_chunk;
      for (const auto& bytes : entry.chunks) {
        ++result_.checks;
        auto cv = ChunkView::Parse(bytes);
        if (!cv.ok()) {
          return Fail("invariant 5: consumed chunk does not parse "
                      "(sl %u group %u idx %" PRIu64 ")",
                      unsigned(sl), unsigned(cur.group), idx);
        }
        ++result_.checks;
        if (!cv->VerifyChecksum()) {
          return Fail("invariant 5: consumed chunk checksum mismatch "
                      "(sl %u group %u idx %" PRIu64 ")",
                      unsigned(sl), unsigned(cur.group), idx);
        }
        ++result_.checks;
        if (cv->stream_id() != info_.stream || cv->streamlet_id() != sl ||
            cv->group_id() != cur.group || cv->group_chunk_index() != idx) {
          return Fail("invariant 3: chunk out of place (sl %u group %u "
                      "idx %" PRIu64 ": header says sl %u group %u "
                      "idx %" PRIu64 ")",
                      unsigned(sl), unsigned(cur.group), idx,
                      unsigned(cv->streamlet_id()), unsigned(cv->group_id()),
                      cv->group_chunk_index());
        }
        if ((cv->flags() & kChunkFlagOffsetCommit) != 0) {
          // Offset-commit system chunk: cursor metadata the consumers'
          // own durable commits appended to the stream. It advances the
          // cursor like any chunk but never reaches the application, so
          // it stays out of the delivery oracle (re-reading one after a
          // restart is not a user-visible redelivery).
          ++idx;
          *progress = true;
          continue;
        }
        auto key = std::make_tuple(sl, cv->producer_id(), cv->chunk_seq());
        if (c.consumed.count(key) != 0) {
          ++c.redelivered;
          ++result_.redelivered_chunks;
          ++c.read_since_commit;
          ++result_.checks;
          if (c.redelivered > c.allowance) {
            return Fail("invariant 4: unexplained redelivery of (sl %u, "
                        "producer %u, seq %" PRIu64 "): %" PRIu64
                        " redelivered > %" PRIu64 " allowed",
                        unsigned(sl), unsigned(cv->producer_id()),
                        cv->chunk_seq(), c.redelivered, c.allowance);
          }
        } else {
          ChunkSeq& last = c.last_seq[{sl, cv->producer_id()}];
          ++result_.checks;
          if (cv->chunk_seq() <= last) {
            return Fail("invariant 3: per-producer order regressed (sl %u, "
                        "producer %u): seq %" PRIu64 " after %" PRIu64,
                        unsigned(sl), unsigned(cv->producer_id()),
                        cv->chunk_seq(), last);
          }
          last = cv->chunk_seq();
          c.consumed.insert(key);
          ++c.read_since_commit;
          ++result_.consumed_chunks;
        }
        ++idx;
        *progress = true;
      }
      cur.next_chunk = entry.next_chunk;
      if (entry.group_closed && entry.chunks.empty()) {
        // Drained a closed group: advance to the next one. If it does not
        // exist yet, the next poll reports group_exists=false and the
        // cursor simply waits there.
        ++cur.group;
        cur.next_chunk = 0;
        *progress = true;
      }
    }
    return true;
  }

  bool ExecConsume(uint32_t cidx, uint32_t rounds) {
    Consumer& c = consumers_[cidx];
    uint64_t before = result_.consumed_chunks + result_.redelivered_chunks;
    for (uint32_t round = 0; round < rounds; ++round) {
      bool progress = false;
      for (StreamletId sl = 0; sl < StreamletId(sched_.streamlets); ++sl) {
        if (!ConsumeOnce(c, sl, &progress)) return false;
      }
      if (!progress) break;
    }
    if (options_.exactly_once) {
      // Exactly-once: every consume event ends by durably committing the
      // consumer's cursors, so the delivered frontier and the committed
      // frontier never diverge across a restart.
      if (!CommitDurably(cidx)) return false;
      c.committed = c.cur;
      c.read_since_commit = 0;
    } else if (++c.consume_events % kCommitEveryConsumeEvents == 0) {
      c.committed = c.cur;
      c.read_since_commit = 0;
    }
    Annotate("consume c=%u got=%" PRIu64, cidx,
             result_.consumed_chunks + result_.redelivered_chunks - before);
    return true;
  }

  /// Durably persists consumer `cidx`'s cursors at the leaders (one
  /// CommitOffsets RPC per leader, deduplicated under (system pid,
  /// commit_seq)). A real exactly-once consumer BLOCKS until its commit
  /// lands, so after kMaxAttemptsPerEvent failed rounds the harness
  /// fast-forwards the healing (Quiesce) and keeps trying; a commit that
  /// still cannot land then is an infrastructure failure, not a skipped
  /// event — skipping would silently reintroduce a redelivery window.
  bool CommitDurably(uint32_t cidx) {
    Consumer& c = consumers_[cidx];
    if (c.cur.empty()) return true;
    const ProducerId syspid = ProducerId(0x80000000u | cidx);
    ++c.commit_seq;
    std::map<StreamletId, Cursor> pending(c.cur.begin(), c.cur.end());
    std::set<StreamletId> sent_once;
    for (int t = 0; t < 2 * kMaxAttemptsPerEvent && !pending.empty(); ++t) {
      if (t == kMaxAttemptsPerEvent) Quiesce();
      RefreshInfo();
      std::map<NodeId, rpc::CommitOffsetsRequest> per_broker;
      for (const auto& [sl, cur] : pending) {
        auto& req = per_broker[info_.streamlet_brokers[sl]];
        req.stream = info_.stream;
        req.consumer = cidx;
        req.commit_seq = c.commit_seq;
        req.epoch = c.epoch;
        rpc::CommitOffsetsRequest::Entry e;
        e.streamlet = sl;
        e.group = cur.group;
        e.next_chunk = cur.next_chunk;
        req.entries.push_back(e);
      }
      for (auto& [broker, req] : per_broker) {
        for (const auto& e : req.entries) {
          // A resent commit chunk may legitimately dedup at the broker
          // (the earlier attempt landed but its response was lost), so
          // resends feed the duplication budget like producer retries.
          if (!sent_once.insert(e.streamlet).second) {
            ++result_.retried_sends;
            ++retried_by_key_[{e.streamlet, syspid}];
          }
        }
        auto raw = net_.Call(broker, rpc::Frame(req));
        if (!raw.ok()) continue;
        rpc::Reader r(*raw);
        auto resp = rpc::CommitOffsetsResponse::Decode(r);
        if (!resp.ok()) return Fail("commit response did not decode");
        if (resp->status != StatusCode::kOk) continue;
        for (const auto& e : req.entries) pending.erase(e.streamlet);
      }
    }
    if (!pending.empty()) {
      return Fail("commit c=%u seq=%" PRIu64 " did not land after healing",
                  cidx, c.commit_seq);
    }
    Annotate("commit c=%u seq=%" PRIu64 " streamlets=%zu", cidx,
             c.commit_seq, c.cur.size());
    return true;
  }

  bool ExecConsumerRestart(uint32_t cidx) {
    Consumer& c = consumers_[cidx];
    if (options_.exactly_once) {
      // The restarted consumer has no local state: it resumes from the
      // offsets fetched back from the brokers. Every cursor was durably
      // committed at the end of its consume event, so the fetched
      // position must equal the delivered frontier — the tightened
      // invariant 4 (allowance stays 0) fails on ANY user-record
      // redelivery, proving commit persistence end to end through
      // replication, recovery and tiering.
      std::map<StreamletId, Cursor> fetched;
      std::set<StreamletId> pending;
      for (StreamletId sl = 0; sl < StreamletId(sched_.streamlets); ++sl) {
        pending.insert(sl);
      }
      for (int t = 0; t < 2 * kMaxAttemptsPerEvent && !pending.empty();
           ++t) {
        if (t == kMaxAttemptsPerEvent) Quiesce();
        RefreshInfo();
        std::map<NodeId, rpc::FetchOffsetsRequest> per_broker;
        for (StreamletId sl : pending) {
          auto& req = per_broker[info_.streamlet_brokers[sl]];
          req.stream = info_.stream;
          req.consumer = cidx;
          req.streamlets.push_back(sl);
        }
        for (auto& [broker, req] : per_broker) {
          auto raw = net_.Call(broker, rpc::Frame(req));
          if (!raw.ok()) continue;
          rpc::Reader r(*raw);
          auto resp = rpc::FetchOffsetsResponse::Decode(r);
          if (!resp.ok()) return Fail("fetch-offsets did not decode");
          if (resp->status != StatusCode::kOk) continue;
          for (const auto& e : resp->entries) {
            if (e.found) fetched[e.streamlet] = Cursor{e.group, e.next_chunk};
            pending.erase(e.streamlet);
          }
        }
      }
      if (!pending.empty()) {
        return Fail("consumer-restart c=%u: offsets did not fetch after "
                    "healing", cidx);
      }
      c.cur.clear();
      for (StreamletId sl = 0; sl < StreamletId(sched_.streamlets); ++sl) {
        auto it = fetched.find(sl);
        c.cur[sl] = it == fetched.end() ? Cursor{} : it->second;
      }
      c.committed = c.cur;
      c.read_since_commit = 0;
      Annotate("consumer-restart c=%u resumed from committed offsets "
               "(allowance stays %" PRIu64 ")", cidx, c.allowance);
      return true;
    }
    c.cur = c.committed;
    c.allowance += c.read_since_commit;
    Annotate("consumer-restart c=%u redelivery_allowance=%" PRIu64, cidx,
             c.allowance);
    c.read_since_commit = 0;
    return true;
  }

  bool ExecNetFault(const FaultEvent& ev) {
    NodeId service = NodeId(ev.a);
    bool valid = false;
    for (uint32_t n = 1; n <= sched_.nodes; ++n) {
      if (service == NodeId(n) || service == BackupServiceId(NodeId(n))) {
        valid = true;
        break;
      }
    }
    if (!valid) {
      ++result_.events_skipped;
      Annotate("net-fault skipped: unknown service %u", unsigned(service));
      return true;
    }
    auto type = NetFaultType(ev.b);
    if (type == NetFaultType::kPartition) {
      net_.SetPartitioned(service, true);
      Annotate("net-fault service=%u partition", unsigned(service));
      return true;
    }
    ChaosNetwork::EdgePolicy& p = edge_policies_[service];
    switch (type) {
      case NetFaultType::kDropRequest:
        p.drop_request = double(ev.arg) / 1000.0;
        break;
      case NetFaultType::kDropResponse:
        p.drop_response = double(ev.arg) / 1000.0;
        break;
      case NetFaultType::kDuplicate:
        p.duplicate_request = double(ev.arg) / 1000.0;
        break;
      case NetFaultType::kDelay:
        p.max_delay_us = ev.arg;
        break;
      case NetFaultType::kPartition:
        break;  // handled above
    }
    net_.SetEdgePolicy(service, p);
    Annotate("net-fault service=%u type=%u arg=%" PRIu64, unsigned(service),
             ev.b, ev.arg);
    return true;
  }

  bool ExecHeal() {
    bool drained = Quiesce();
    Annotate("heal drained=%d vclock=%" PRIu64, int(drained),
             net_.virtual_now_us());
    return CheckDuplicateBound();
  }

  bool ExecBrokerCrash(NodeId node) {
    // A survivor holding stale storage for a streamlet the victim leads
    // (it led that streamlet before a migration) could be handed the
    // leadership back by recovery's round-robin — recovery replay would
    // then double-store the replayed chunks next to the stale copies.
    // That is legitimate pending-trim behavior, but it would blind the
    // strict uniqueness and ordering oracles, so such crashes are skipped
    // deterministically.
    RefreshInfo();
    for (StreamletId sl = 0; sl < StreamletId(info_.streamlet_brokers.size());
         ++sl) {
      if (info_.streamlet_brokers[sl] != node) continue;
      auto it = stale_.find(sl);
      if (it == stale_.end()) continue;
      for (NodeId holder : it->second) {
        if (holder != node) {
          ++result_.events_skipped;
          Annotate("broker-crash node=%u skipped: node %u holds stale "
                   "storage for led streamlet %u",
                   unsigned(node), unsigned(holder), unsigned(sl));
          return true;
        }
      }
    }
    // A crash also wipes the victim's BACKUP service, silently removing
    // one replica of every other leader's durable prefix (the victim may
    // sit in any of their vseg backup sets, and evacuation re-replicates
    // only unreplicated suffixes). That is legitimate — the primaries
    // still hold their copies — but crash recovery rebuilds a victim's
    // streamlets from backup copies alone, so a victim whose streamlet
    // has already lost as many replicas as replication can spare must
    // not crash: the replay could come up short without any bug. Tracked
    // conservatively per streamlet in wipe_count_.
    for (StreamletId sl = 0; sl < StreamletId(info_.streamlet_brokers.size());
         ++sl) {
      if (info_.streamlet_brokers[sl] != node) continue;
      if (wipe_count_[sl] + 2 > sched_.replication_factor) {
        ++result_.events_skipped;
        Annotate("broker-crash node=%u skipped: streamlet %u backup "
                 "copies degraded by %u prior wipes",
                 unsigned(node), unsigned(sl), unsigned(wipe_count_[sl]));
        return true;
      }
    }
    // Crashes happen from a fully drained state: every appended chunk is
    // then durable, so recovery recreates every group and the group-id
    // numbering consumers hold cursors into survives the crash.
    if (!Quiesce()) {
      ++result_.events_skipped;
      Annotate("broker-crash node=%u skipped: replication did not drain",
               unsigned(node));
      return true;
    }
    net_.DiscardHeld();  // a held frame cannot survive the crash epoch

    cluster_->CrashNode(node);
    auto replayed = cluster_->coordinator().RecoverNode(node);
    if (!replayed.ok()) {
      return Fail("RecoverNode(%u) failed: %s", unsigned(node),
                  replayed.status().ToString().c_str());
    }
    result_.recovery_replayed += *replayed;
    Status s = cluster_->RestartNode(node);
    if (!s.ok()) {
      return Fail("RestartNode(%u) failed: %s", unsigned(node),
                  s.message().c_str());
    }
    for (auto& [sl, holders] : stale_) holders.erase(node);  // wiped
    // Replica accounting: the victim's streamlets were just re-produced
    // at their new leaders through the (synchronous) produce path, so
    // their whole prefix is freshly replicated to live backups; every
    // other streamlet conservatively lost one backup copy to the wipe.
    for (StreamletId sl = 0; sl < StreamletId(info_.streamlet_brokers.size());
         ++sl) {
      if (info_.streamlet_brokers[sl] == node) {
        wipe_count_[sl] = 0;
      } else {
        ++wipe_count_[sl];
      }
    }
    RefreshInfo();
    Annotate("broker-crash node=%u replayed=%" PRIu64, unsigned(node),
             *replayed);
    return true;
  }

  bool ExecMigrate(StreamletId sl, NodeId target) {
    RefreshInfo();
    NodeId old_leader = info_.streamlet_brokers[sl];
    if (old_leader == target) {
      ++result_.events_skipped;
      Annotate("migrate sl=%u skipped: node %u already leads", unsigned(sl),
               unsigned(target));
      return true;
    }
    if (stale_[sl].count(target) != 0) {
      // Re-leading a previous tenure would replay next to the stale
      // storage that tenure left behind (see ExecBrokerCrash).
      ++result_.events_skipped;
      Annotate("migrate sl=%u skipped: target %u holds stale storage",
               unsigned(sl), unsigned(target));
      return true;
    }
    if (wipe_count_[sl] + 2 > sched_.replication_factor) {
      // Migration rebuilds the new leader from backup copies alone; a
      // streamlet whose replicas were degraded by prior crash wipes could
      // legitimately replay short (the intact copy is the old primary's,
      // which migration does not consult). See ExecBrokerCrash.
      ++result_.events_skipped;
      Annotate("migrate sl=%u skipped: backup copies degraded by %u "
               "prior wipes",
               unsigned(sl), unsigned(wipe_count_[sl]));
      return true;
    }
    if (!Quiesce()) {
      ++result_.events_skipped;
      Annotate("migrate sl=%u skipped: replication did not drain",
               unsigned(sl));
      return true;
    }
    auto replayed =
        cluster_->coordinator().MigrateStreamlet(kStreamName, sl, target);
    if (!replayed.ok()) {
      return Fail("MigrateStreamlet(sl=%u -> %u) failed: %s", unsigned(sl),
                  unsigned(target), replayed.status().ToString().c_str());
    }
    result_.recovery_replayed += *replayed;
    stale_[sl].insert(old_leader);
    // The replay re-produced the whole streamlet at the target through
    // the synchronous produce path: its prefix is freshly replicated.
    wipe_count_[sl] = 0;
    RefreshInfo();
    Annotate("migrate sl=%u %u->%u replayed=%" PRIu64, unsigned(sl),
             unsigned(old_leader), unsigned(target), *replayed);
    return true;
  }

  bool ExecBackupCrash(NodeId node) {
    net_.DiscardHeld();  // held frames do not survive the backup epoch
    cluster_->CrashBackup(node);
    cluster_->coordinator().NoteBackupDown(node);
    Annotate("backup-crash node=%u", unsigned(node));
    return true;
  }

  bool ExecBackupRestart(NodeId node) {
    net_.DiscardHeld();
    cluster_->RestartBackup(node);
    cluster_->coordinator().NoteBackupUp(node, &cluster_->backup(node));
    bool drained = DrainAll();
    Annotate("backup-restart node=%u drained=%d", unsigned(node),
             int(drained));
    return true;
  }

  bool ExecPowerLoss(NodeId node, uint64_t arg) {
    // The cut offset must be a pure function of the schedule, so the disk
    // state it lands in has to be deterministic first: drain in-flight
    // replication (skip the event if faults keep it undrainable, like
    // broker crashes do) and force the backup's queued records down. The
    // byte LAYOUT of the log is deterministic — record placement depends
    // only on record sizes in ticket order, not on how the flusher grouped
    // them — even though fsync/group counts are not.
    if (!Quiesce()) {
      ++result_.events_skipped;
      Annotate("power-loss node=%u skipped: replication did not drain",
               unsigned(node));
      return true;
    }
    net_.DiscardHeld();  // held frames do not survive the backup epoch
    cluster_->backup(node).WaitForFlushes();
    std::string dir = cluster_->BackupDirFor(node);
    uint64_t total = SegmentLog::TotalLogBytes(dir);
    uint64_t cut = total == 0 ? 0 : arg % (total + 1);

    // Power cut: memory gone, flusher dead, and the log torn at `cut` —
    // mid-record, mid-group, wherever the selector landed.
    cluster_->DestroyBackup(node);
    cluster_->coordinator().NoteBackupDown(node);
    Status ts = SegmentLog::TruncateLogsAt(dir, cut);
    if (!ts.ok()) {
      return Fail("power-loss truncate at %" PRIu64 " failed: %s", cut,
                  ts.message().c_str());
    }
    // Restart scans the torn log and rebuilds the copy map from whatever
    // prefix survived.
    cluster_->RestartBackup(node);
    cluster_->coordinator().NoteBackupUp(node, &cluster_->backup(node));
    ++result_.power_loss_events;
    size_t recovered = cluster_->backup(node).SegmentCount();
    result_.power_loss_recovered += recovered;
    std::string v =
        InvariantChecker::CheckBackupDurableCopies(*cluster_, node,
                                                   &result_.checks);
    if (!v.empty()) {
      return Fail("invariant 6 (power-loss durability): %s", v.c_str());
    }
    bool drained = DrainAll();
    Annotate("power-loss node=%u cut=%" PRIu64 "/%" PRIu64
             " recovered=%zu drained=%d",
             unsigned(node), cut, total, recovered, int(drained));
    return true;
  }

  // ----- final phase ------------------------------------------------------

  void FinalPhase() {
    Quiesce();
    // Consume to exhaustion: every consumer keeps polling every streamlet
    // until a full pass makes no progress. Progress per pass is bounded by
    // the durable chunk and group counts, so this terminates.
    for (uint32_t cidx = 0; cidx < sched_.consumers; ++cidx) {
      Consumer& c = consumers_[cidx];
      for (int pass = 0; pass < 100000; ++pass) {
        bool progress = false;
        for (StreamletId sl = 0; sl < StreamletId(sched_.streamlets); ++sl) {
          if (!ConsumeOnce(c, sl, &progress)) return;
        }
        if (!progress) break;
      }
    }
    // Completeness (at-least-once end to end): every acked chunk reached
    // every consumer.
    for (uint32_t cidx = 0; cidx < sched_.consumers; ++cidx) {
      const Consumer& c = consumers_[cidx];
      for (const auto& [key, seqs] : acked_) {
        for (ChunkSeq seq : seqs) {
          ++result_.checks;
          if (c.consumed.count({key.first, key.second, seq}) == 0) {
            Fail("invariant 2/4: consumer %u never received acked "
                 "(sl %u, producer %u, seq %" PRIu64 ")",
                 cidx, unsigned(key.first), unsigned(key.second), seq);
            return;
          }
        }
      }
    }
    if (!CheckStructural()) return;
    if (!CheckDuplicateBound()) return;
    Annotate("final: acked=%" PRIu64 " consumed=%" PRIu64
             " redelivered=%" PRIu64 " retried=%" PRIu64 " replayed=%" PRIu64
             " checks=%" PRIu64 " vclock=%" PRIu64,
             result_.acked_chunks, result_.consumed_chunks,
             result_.redelivered_chunks, result_.retried_sends,
             result_.recovery_replayed, result_.checks,
             net_.virtual_now_us());
  }

  const Schedule& sched_;
  const RunOptions options_;
  rpc::DirectNetwork direct_;
  ChaosNetwork net_;
  std::unique_ptr<MiniCluster> cluster_;
  rpc::StreamInfo info_;

  std::vector<Producer> producers_;
  std::vector<Consumer> consumers_;
  AckedMap acked_;
  /// Resends per dedup key ((streamlet, producer) — system producer ids
  /// included): the per-key side of the invariant-4 duplication budget.
  std::map<std::pair<StreamletId, ProducerId>, uint64_t> retried_by_key_;
  /// Per streamlet: nodes holding stale storage from an earlier
  /// leadership tenure (set by migration; cleared when the node crashes,
  /// which wipes its memory).
  std::map<StreamletId, std::set<NodeId>> stale_;
  /// Conservative count, per streamlet, of backup-service wipes (crash
  /// victims) since the streamlet's prefix was last fully re-replicated;
  /// crash/migration replay needs at least one intact backup copy, so
  /// events are skipped once this reaches replication_factor - 1.
  std::map<StreamletId, uint32_t> wipe_count_;
  /// Harness-side mirror of the installed edge policies, so net-fault
  /// events compose on an edge instead of replacing each other.
  std::map<NodeId, ChaosNetwork::EdgePolicy> edge_policies_;

  /// Scratch directory holding the per-node backup segment logs of a
  /// power-loss run; removed by the destructor. Empty in modes A/B.
  std::string pl_dir_;
  /// Scratch tree for the brokers' spill logs when the run has a tiered
  /// memory budget; removed by the destructor. Empty otherwise.
  std::string spill_dir_;

  std::string trace_;
  size_t event_index_ = size_t(-1);
  RunResult result_;
};

}  // namespace

RunResult RunSchedule(const Schedule& schedule, RunOptions options) {
  Harness harness(schedule, options);
  return harness.Run();
}

RunResult RunSeed(uint64_t seed, uint32_t num_events, RunOptions options) {
  Schedule schedule = GenerateSchedule(seed, num_events);
  return RunSchedule(schedule, options);
}

}  // namespace kera::chaos
