// ChaosHarness: executes one seed-reproducible fault schedule against a
// full in-process MiniCluster (producers, brokers, virtual logs, backups,
// coordinator, consumers) wired through a ChaosNetwork, checking the
// global stream invariants after every event. Everything is
// single-threaded and the schedule is a pure function of the seed, so a
// run is deterministic: the same seed produces a byte-identical annotated
// trace and identical checker results, and any failure replays exactly
// from its dumped trace (ParseTrace + RunSchedule).
//
// Model kept by the harness while driving the cluster over RPC frames:
//   - every acknowledged (streamlet, producer, seq), for the lost-ack oracle;
//   - per-producer retry counts, for the bounded-duplication budget;
//   - per-consumer cursors, committed snapshots and consumed sets, for the
//     ordering / at-least-once / bounded-redelivery oracles.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "backup/backup.h"
#include "broker/broker.h"
#include "chaos/chaos_net.h"
#include "chaos/fault_schedule.h"
#include "coordinator/coordinator.h"

namespace kera::chaos {

struct RunResult {
  bool ok = true;
  /// Violation or infrastructure-error description when !ok.
  std::string failure;
  /// Index into Schedule::events of the failing event (size_t(-1): the
  /// failure happened in setup or in the final drain phase).
  size_t failed_event = size_t(-1);
  /// Annotated, replayable trace: FormatTrace interleaved with '#' outcome
  /// lines. ParseTrace(trace) recovers the exact schedule.
  std::string trace;

  uint64_t events_run = 0;
  uint64_t events_skipped = 0;  // deterministically skipped (see harness)
  uint64_t checks = 0;          // individual invariant checks performed
  uint64_t acked_chunks = 0;
  uint64_t consumed_chunks = 0;     // fresh chunks across all consumers
  uint64_t redelivered_chunks = 0;  // re-consumed after consumer restarts
  uint64_t retried_sends = 0;       // producer resends of a chunk frame
  uint64_t abandoned_sends = 0;     // chunks never acked within the event
  uint64_t dedup_hits = 0;          // broker exactly-once rejections
  uint64_t recovery_replayed = 0;   // chunks replayed by crash/migration
  uint64_t power_loss_events = 0;     // executed power-loss faults
  uint64_t power_loss_recovered = 0;  // copies rebuilt by post-cut scans
  // MiniCluster totals and recovery stats at run end: reported, never
  // traced, so traces stay byte-stable across modes. All are
  // deterministic except the backups' segment-log flush totals
  // (group-commit boundaries depend on flusher wakeups) and the recovery
  // times (task_replay_us and the MTTR fields are wall-clock): recovery
  // executes serially under the single-threaded chaos network and only
  // MODELS its fan-out, and eviction is a pure function of the schedule
  // (the evictor forces the spill record durable rather than racing the
  // flusher). A mode's counters stay zero with the mode off: fences and
  // offset commits without exactly_once, spill/evict/cold reads without
  // memory_budget_bytes, backup flushes without power loss.
  Broker::Stats broker;
  Backup::Stats backup;
  Coordinator::RecoveryStats recovery;
  ChaosNetwork::Stats net;
};

/// Harness knobs that are NOT part of the schedule (the trace format and
/// the seed->schedule mapping stay stable across them).
struct RunOptions {
  /// Shared-nothing broker shards for the cluster under test (see
  /// BrokerConfig::shards). 1 reproduces the original single-shard runs
  /// byte-for-byte; >1 drives the same deterministic schedules through
  /// the sharded broker (per-shard leadership/dedup/parking state),
  /// checking the same invariants.
  uint32_t broker_shards = 1;
  /// Recovery fan-out for the cluster under test (see CoordinatorConfig::
  /// recovery_parallelism). Under the single-threaded chaos network the
  /// engine executes serially at ANY setting and models the makespan, so
  /// the schedule outcome — and the byte-exact trace — is identical at
  /// every value; >1 still drives the scatter placement, batched reads
  /// and per-vlog lane partitioning through every crash schedule.
  uint32_t recovery_parallelism = 1;
  /// Tiered broker memory budget for the cluster under test (see
  /// BrokerConfig::memory_budget_bytes). 0 (default) keeps every segment
  /// resident — byte-identical to the pre-tiering runs. A small non-zero
  /// budget (e.g. a few segments' worth against the harness's 2 KiB
  /// segments) forces mid-schedule spill/eviction and routes lagging
  /// consumers through the cold-read cache, all under the same schedules
  /// and invariants; the spill logs live in a per-run scratch dir and a
  /// broker crash deletes its node's spill tree.
  size_t memory_budget_bytes = 0;
  /// End-to-end exactly-once for the cluster under test. Producers are
  /// allocated coordinator epochs at setup and stamp them into every
  /// chunk; each consume event durably commits the consumer's cursors as
  /// offset system chunks (retrying — and, as a last resort, healing the
  /// network — until the commit lands, like a real consumer blocking on
  /// Commit); a consumer restart resumes from the offsets fetched back
  /// from the brokers instead of the harness's local snapshot. Invariant
  /// 4 tightens from "bounded redelivery" to ZERO redelivery of user
  /// records across restarts. Off (default) leaves every schedule's
  /// trace byte-identical to the pre-exactly-once harness.
  bool exactly_once = false;
};

/// Runs one schedule to completion (or first violation). The cluster is
/// built fresh from the schedule's shape; nothing persists across runs.
[[nodiscard]] RunResult RunSchedule(const Schedule& schedule,
                                    RunOptions options = {});

/// GenerateSchedule + RunSchedule.
[[nodiscard]] RunResult RunSeed(uint64_t seed, uint32_t num_events,
                                RunOptions options = {});

}  // namespace kera::chaos
