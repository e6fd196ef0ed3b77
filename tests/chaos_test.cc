// chaos_test: seed-reproducible chaos schedules against a full in-process
// cluster with end-to-end invariant checking, plus the regression tests
// that grew out of building the harness (MiniCluster crash/restart
// lifecycle, duplicate-retry ack gating).
//
// Custom flags (after the gtest ones):
//   --chaos_seed=N       run exactly one schedule with this seed (replay)
//   --chaos_schedules=N  sweep size (default 200)
//   --chaos_events=N     events per schedule (default 50)
// Environment overrides (used by scripts/check.sh for bounded sanitizer
// runs): KERA_CHAOS_SCHEDULES, KERA_CHAOS_EVENTS. Flags win over env.
//
// A failing schedule prints its seed, dumps the annotated trace to
// chaos_failure_<seed>.trace in the working directory, and the run is
// reproducible with --chaos_seed=<seed> (same binary, same build).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_harness.h"
#include "chaos/chaos_net.h"
#include "chaos/fault_schedule.h"
#include "cluster/mini_cluster.h"
#include "rpc/messages.h"
#include "wire/chunk.h"

namespace kera::chaos {
namespace {

uint32_t g_schedules = 200;
uint32_t g_events = 50;
bool g_single_seed = false;
uint64_t g_seed = 0;
constexpr uint64_t kSweepSeedBase = 20260806;

std::string DumpFailureTrace(uint64_t seed, const RunResult& r) {
  std::string path = "chaos_failure_" + std::to_string(seed) + ".trace";
  std::ofstream f(path, std::ios::trunc);
  f << r.trace;
  return path;
}

// Every counter a run produces, flattened for equality assertions.
std::string CounterSummary(const RunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ok=%d failed_event=%zu events=%llu skipped=%llu checks=%llu "
      "acked=%llu consumed=%llu redelivered=%llu retried=%llu "
      "abandoned=%llu dedup=%llu replayed=%llu pl=%llu plrec=%llu "
      "net={calls=%llu dreq=%llu "
      "dresp=%llu dup=%llu late=%llu disc=%llu part=%llu delays=%llu}",
      int(r.ok), r.failed_event, (unsigned long long)r.events_run,
      (unsigned long long)r.events_skipped, (unsigned long long)r.checks,
      (unsigned long long)r.acked_chunks, (unsigned long long)r.consumed_chunks,
      (unsigned long long)r.redelivered_chunks,
      (unsigned long long)r.retried_sends,
      (unsigned long long)r.abandoned_sends, (unsigned long long)r.dedup_hits,
      (unsigned long long)r.recovery_replayed,
      (unsigned long long)r.power_loss_events,
      (unsigned long long)r.power_loss_recovered,
      (unsigned long long)r.net.calls,
      (unsigned long long)r.net.dropped_requests,
      (unsigned long long)r.net.dropped_responses,
      (unsigned long long)r.net.duplicated_requests,
      (unsigned long long)r.net.replayed_frames,
      (unsigned long long)r.net.discarded_frames,
      (unsigned long long)r.net.partitioned_calls,
      (unsigned long long)r.net.delays_injected);
  return buf;
}

// ------------------------------------------------------------ the sweep

TEST(ChaosSweep, RandomizedSchedulesHoldInvariants) {
  const uint32_t n = g_single_seed ? 1 : g_schedules;
  uint64_t total_events = 0;
  uint64_t total_checks = 0;
  uint64_t total_acked = 0;
  uint64_t total_consumed = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunResult r = RunSeed(seed, g_events);
    total_events += r.events_run;
    total_checks += r.checks;
    total_acked += r.acked_chunks;
    total_consumed += r.consumed_chunks;
    if (!r.ok) {
      std::string path = DumpFailureTrace(seed, r);
      FAIL() << "chaos schedule violated an invariant\n"
             << "  seed:   " << seed << "\n"
             << "  event:  " << (r.failed_event == size_t(-1)
                                     ? std::string("setup/final-phase")
                                     : std::to_string(r.failed_event))
             << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path << "\n"
             << "  replay: chaos_test --chaos_seed=" << seed
             << " --chaos_events=" << g_events;
    }
  }
  // The sweep must actually exercise the system, not vacuously pass.
  EXPECT_GT(total_acked, 0u);
  EXPECT_GT(total_consumed, 0u);
  EXPECT_GT(total_checks, 0u);
  std::fprintf(stderr,
               "[chaos] schedules=%u events=%llu checks=%llu acked=%llu "
               "consumed=%llu\n",
               n, (unsigned long long)total_events,
               (unsigned long long)total_checks,
               (unsigned long long)total_acked,
               (unsigned long long)total_consumed);
}

// ------------------------------------------------- sharded-broker sweep

// The same deterministic schedules driven through brokers with two
// shared-nothing shards (BrokerConfig::shards = 2): the seed->schedule
// mapping and the oracles are untouched, so sharding must be invisible
// to all five invariants (ordering, lost-ack, at-least-once, bounded
// duplication, bounded redelivery). This exercises the per-shard
// leadership/dedup/parking state that shards=1 never splits.
TEST(ChaosSweep, ShardedBrokersHoldInvariants) {
  RunOptions options;
  options.broker_shards = 2;
  const uint32_t n =
      g_single_seed ? 1 : std::max<uint32_t>(1, g_schedules / 4);
  uint64_t total_checks = 0;
  uint64_t total_acked = 0;
  uint64_t total_consumed = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunResult r = RunSeed(seed, g_events, options);
    total_checks += r.checks;
    total_acked += r.acked_chunks;
    total_consumed += r.consumed_chunks;
    if (!r.ok) {
      std::string path = DumpFailureTrace(seed, r);
      FAIL() << "chaos schedule violated an invariant with broker_shards=2\n"
             << "  seed:   " << seed << "\n"
             << "  event:  " << (r.failed_event == size_t(-1)
                                     ? std::string("setup/final-phase")
                                     : std::to_string(r.failed_event))
             << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path << "\n"
             << "  replay: chaos_soak --shards=2 --seed_base=" << seed
             << " --schedules=1 --events=" << g_events;
    }
  }
  EXPECT_GT(total_acked, 0u);
  EXPECT_GT(total_consumed, 0u);
  EXPECT_GT(total_checks, 0u);
}

// Same sweep with the parallel crash-recovery engine at full fan-out:
// scatter placement, batched backup reads and per-vlog lane partitioning
// run on every crash schedule. Under the single-threaded chaos network
// the engine executes serially (and models the fan-out), so all six
// invariants must hold exactly as at recovery_parallelism=1.
TEST(ChaosSweep, ParallelRecoverySchedulesHoldInvariants) {
  RunOptions options;
  options.recovery_parallelism = 8;
  const uint32_t n =
      g_single_seed ? 1 : std::max<uint32_t>(1, g_schedules / 4);
  uint64_t total_checks = 0;
  uint64_t total_acked = 0;
  uint64_t total_tasks = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunResult r = RunSeed(seed, g_events, options);
    total_checks += r.checks;
    total_acked += r.acked_chunks;
    total_tasks += r.recovery.tasks_issued;
    if (!r.ok) {
      std::string path = DumpFailureTrace(seed, r);
      FAIL() << "chaos schedule violated an invariant with "
                "recovery_parallelism=8\n"
             << "  seed:   " << seed << "\n"
             << "  event:  " << (r.failed_event == size_t(-1)
                                     ? std::string("setup/final-phase")
                                     : std::to_string(r.failed_event))
             << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path << "\n"
             << "  replay: chaos_soak --recovery_parallelism=8 --seed_base="
             << seed << " --schedules=1 --events=" << g_events;
    }
  }
  EXPECT_GT(total_checks, 0u);
  EXPECT_GT(total_acked, 0u);
}

// Determinism pin for the scatter engine: the recovery fan-out is a pure
// performance knob — the annotated trace (every RPC outcome, every
// checker verdict) must be byte-identical at parallelism 1 and 8, for
// the first schedules of the sweep band. This is what makes a failure
// found in the parallel sweep replayable with any setting.
TEST(ChaosSweep, TraceIdenticalAcrossRecoveryParallelism) {
  const uint32_t n = g_single_seed ? 1 : std::max<uint32_t>(1, g_schedules / 8);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunOptions serial;
    serial.recovery_parallelism = 1;
    RunOptions fanout;
    fanout.recovery_parallelism = 8;
    RunResult a = RunSeed(seed, g_events, serial);
    RunResult b = RunSeed(seed, g_events, fanout);
    ASSERT_EQ(a.ok, b.ok) << "seed " << seed;
    ASSERT_EQ(a.trace, b.trace)
        << "seed " << seed
        << ": trace diverged between recovery_parallelism 1 and 8";
    // The deterministic recovery counters must agree too (timing
    // percentiles are exempt — they are wall-clock, report-only).
    EXPECT_EQ(a.recovery.tasks_issued, b.recovery.tasks_issued)
        << "seed " << seed;
    EXPECT_EQ(a.recovery.bytes_replayed, b.recovery.bytes_replayed)
        << "seed " << seed;
    EXPECT_EQ(a.recovery.read_rpcs, b.recovery.read_rpcs)
        << "seed " << seed;
  }
}

// ------------------------------------------------- tiered-memory sweep

// The same deterministic schedules with a broker memory budget small
// enough (4 segments' worth against the harness's 2 KiB segments) that
// sealed groups are spilled to the per-run scratch spill log and evicted
// mid-schedule, so lagging consumers and recovery-era re-reads go
// through the cold-read cache. The seed->schedule mapping and the
// oracles are untouched: tiering must be invisible to all six
// invariants, and the band must actually evict (not vacuously pass).
TEST(ChaosSweep, TieredMemorySchedulesHoldInvariants) {
  RunOptions options;
  options.memory_budget_bytes = 1024;
  const uint32_t n =
      g_single_seed ? 1 : std::max<uint32_t>(1, g_schedules / 4);
  uint64_t total_checks = 0;
  uint64_t total_acked = 0;
  uint64_t total_consumed = 0;
  uint64_t total_spilled = 0;
  uint64_t total_evicted = 0;
  uint64_t total_cold_reads = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunResult r = RunSeed(seed, g_events, options);
    total_checks += r.checks;
    total_acked += r.acked_chunks;
    total_consumed += r.consumed_chunks;
    total_spilled += r.broker.segments_spilled;
    total_evicted += r.broker.segments_evicted;
    total_cold_reads += r.broker.cold_reads;
    if (!r.ok) {
      std::string path = DumpFailureTrace(seed, r);
      FAIL() << "chaos schedule violated an invariant with "
                "memory_budget_bytes=1024\n"
             << "  seed:   " << seed << "\n"
             << "  event:  " << (r.failed_event == size_t(-1)
                                     ? std::string("setup/final-phase")
                                     : std::to_string(r.failed_event))
             << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path << "\n"
             << "  replay: chaos_soak --memory_budget=1024 --seed_base="
             << seed << " --schedules=1 --events=" << g_events;
    }
  }
  EXPECT_GT(total_checks, 0u);
  EXPECT_GT(total_acked, 0u);
  EXPECT_GT(total_consumed, 0u);
  if (!g_single_seed) {
    // The band must force the tiered path, not leave every segment hot.
    EXPECT_GT(total_spilled, 0u);
    EXPECT_GT(total_evicted, 0u);
  }
  std::fprintf(stderr,
               "[chaos] tiered schedules=%u spilled=%llu evicted=%llu "
               "cold_reads=%llu\n",
               n, (unsigned long long)total_spilled,
               (unsigned long long)total_evicted,
               (unsigned long long)total_cold_reads);
}

// Determinism pin for the tiered path, in both directions. (a) The
// memory budget is a pure performance knob: spill/evict decisions are a
// function of seal order and budget (the evictor forces the spill
// record durable instead of racing the flusher), cold reads return the
// same bytes the segment held, and tiered counters live outside the
// trace — so the annotated trace at a tiny budget must be byte-identical
// to the unbounded run of the same seed. (b) The same tiered seed run
// twice agrees with itself, deterministic counters included.
TEST(ChaosDeterminism, TieredTraceIdenticalToUnbounded) {
  const uint32_t n =
      g_single_seed ? 1 : std::max<uint32_t>(1, g_schedules / 8);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunOptions tiered;
    tiered.memory_budget_bytes = 1024;
    RunResult unbounded = RunSeed(seed, g_events);
    RunResult a = RunSeed(seed, g_events, tiered);
    RunResult b = RunSeed(seed, g_events, tiered);
    ASSERT_EQ(unbounded.ok, a.ok) << "seed " << seed;
    ASSERT_EQ(unbounded.trace, a.trace)
        << "seed " << seed
        << ": trace diverged between unbounded and tiered memory";
    EXPECT_EQ(unbounded.broker.segments_evicted, 0u) << "seed " << seed;
    ASSERT_EQ(a.trace, b.trace)
        << "seed " << seed << ": tiered trace diverged across reruns";
    EXPECT_EQ(a.broker.segments_spilled, b.broker.segments_spilled)
        << "seed " << seed;
    EXPECT_EQ(a.broker.segments_evicted, b.broker.segments_evicted)
        << "seed " << seed;
    EXPECT_EQ(a.broker.cold_reads, b.broker.cold_reads) << "seed " << seed;
    EXPECT_EQ(a.broker.cold_cache_hits, b.broker.cold_cache_hits)
        << "seed " << seed;
    EXPECT_EQ(a.broker.cold_cache_misses, b.broker.cold_cache_misses)
        << "seed " << seed;
    EXPECT_EQ(CounterSummary(a), CounterSummary(b));
  }
}

// Broker crashes with tiering on: CrashNode deletes the node's whole
// spill tree (a dead process's spill log is garbage by definition), and
// recovery must still rebuild everything from the backups — the spill
// log is never a durability dependency. Scan seeds until the band has
// executed a few broker crashes under a tiny budget.
TEST(ChaosSweep, TieredBrokerCrashRecoversFromBackups) {
  RunOptions options;
  options.memory_budget_bytes = 1024;
  uint32_t crashes = 0;
  uint64_t replayed = 0;
  const uint32_t want = g_single_seed ? 1 : 3;
  uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase;
  for (uint32_t guard = 0; crashes < want && guard < 64; ++seed, ++guard) {
    Schedule s = GenerateSchedule(seed, g_events);
    bool has_crash = false;
    for (const FaultEvent& e : s.events) {
      if (e.kind == FaultKind::kBrokerCrash) has_crash = true;
    }
    if (!has_crash && !g_single_seed) continue;
    RunResult r = RunSchedule(s, options);
    replayed += r.recovery_replayed;
    if (r.recovery.tasks_issued > 0) ++crashes;
    if (!r.ok) {
      std::string path = DumpFailureTrace(s.seed, r);
      FAIL() << "tiered broker-crash schedule violated an invariant\n"
             << "  seed:   " << s.seed << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path;
    }
  }
  if (!g_single_seed) {
    EXPECT_GT(crashes, 0u)
        << "seed scan found no schedule that executed a broker crash";
  }
  std::fprintf(stderr,
               "[chaos] tiered crash schedules=%u replayed=%llu\n", crashes,
               (unsigned long long)replayed);
}

// ------------------------------------------------- power-loss sweep

// Mode-P schedules: every backup fault is a full power cut — the backup
// instance is destroyed, its on-disk segment log truncated at a
// schedule-chosen byte offset (mid-record, mid-group, anywhere), and the
// restarted backup rebuilds its copy map by scanning the torn log. On
// top of the five standing invariants, every recovered copy must re-read
// from disk bit-perfect (invariant 6): torn tails may shorten copies but
// never corrupt them, and no acknowledged chunk may be lost end to end
// (the primaries still hold everything they acked).
TEST(ChaosSweep, PowerLossSchedulesHoldInvariants) {
  const uint32_t want =
      g_single_seed ? 1 : std::max<uint32_t>(1, g_schedules / 8);
  uint32_t ran = 0;
  uint64_t pl_events = 0;
  uint64_t pl_recovered = 0;
  uint64_t total_acked = 0;
  uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase;
  for (; ran < want; ++seed) {
    Schedule s = GenerateSchedule(seed, g_events);
    if (!s.power_loss) {
      if (g_single_seed) GTEST_SKIP() << "seed is not a power-loss schedule";
      continue;
    }
    ++ran;
    RunResult r = RunSchedule(s);
    pl_events += r.power_loss_events;
    pl_recovered += r.power_loss_recovered;
    total_acked += r.acked_chunks;
    if (!r.ok) {
      std::string path = DumpFailureTrace(s.seed, r);
      FAIL() << "power-loss schedule violated an invariant\n"
             << "  seed:   " << s.seed << "\n"
             << "  event:  " << (r.failed_event == size_t(-1)
                                     ? std::string("setup/final-phase")
                                     : std::to_string(r.failed_event))
             << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path << "\n"
             << "  replay: chaos_test --chaos_seed=" << s.seed
             << " --chaos_events=" << g_events;
    }
  }
  if (!g_single_seed) {
    // The sweep must actually tear logs, not vacuously pass.
    EXPECT_GT(pl_events, 0u);
    EXPECT_GT(total_acked, 0u);
  }
  std::fprintf(stderr,
               "[chaos] power-loss schedules=%u cuts=%llu recovered=%llu "
               "acked=%llu\n",
               ran, (unsigned long long)pl_events,
               (unsigned long long)pl_recovered,
               (unsigned long long)total_acked);
}

// A power-loss run is deterministic end to end: the cut offset is a pure
// function of the schedule (record placement depends only on record
// sizes in ticket order — flush grouping and fsync timing never move
// bytes), so the same seed tears the same byte and recovers the same
// copies, byte-identical trace included.
TEST(ChaosDeterminism, PowerLossSameSeedTwiceIsByteIdentical) {
  uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase;
  if (!g_single_seed) {
    while (!GenerateSchedule(seed, g_events).power_loss) ++seed;
  }
  RunResult a = RunSeed(seed, g_events);
  RunResult b = RunSeed(seed, g_events);
  EXPECT_GT(a.power_loss_events + a.events_skipped, 0u);
  EXPECT_EQ(a.trace, b.trace)
      << "power-loss annotated traces diverged for seed " << seed;
  EXPECT_EQ(CounterSummary(a), CounterSummary(b));
  EXPECT_EQ(a.failure, b.failure);
}

// Determinism holds at any fixed shard count: the Direct transport path
// is single-threaded, so the annotated trace stays a pure function of
// (seed, shards).
TEST(ChaosDeterminism, ShardedSameSeedTwiceIsByteIdentical) {
  RunOptions options;
  options.broker_shards = 2;
  const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + 3;
  RunResult a = RunSeed(seed, g_events, options);
  RunResult b = RunSeed(seed, g_events, options);
  EXPECT_EQ(a.trace, b.trace)
      << "sharded annotated traces diverged for seed " << seed;
  EXPECT_EQ(CounterSummary(a), CounterSummary(b));
  EXPECT_EQ(a.failure, b.failure);
}

// ----------------------------------------------------------- determinism

TEST(ChaosDeterminism, SameSeedTwiceIsByteIdentical) {
  const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + 7;
  RunResult a = RunSeed(seed, g_events);
  RunResult b = RunSeed(seed, g_events);
  EXPECT_EQ(a.trace, b.trace) << "annotated traces diverged for seed "
                              << seed;
  EXPECT_EQ(CounterSummary(a), CounterSummary(b));
  EXPECT_EQ(a.failure, b.failure);
}

// Cross-commit trace pin: FNV-1a over the annotated traces of a fixed
// seed band in each deterministic mode. The band ignores --chaos_* flags
// and KERA_CHAOS_*, so the constants mean the same in every run and every
// build. A change that alters a trace on purpose re-pins them, with a
// one-line reason in its commit.
uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t PinnedDigest(const RunOptions& options, bool power_loss) {
  constexpr uint32_t kSchedules = 40;
  constexpr uint32_t kEvents = 40;
  uint64_t h = 0xcbf29ce484222325ull;
  uint32_t ran = 0;
  for (uint64_t seed = kSweepSeedBase; ran < kSchedules; ++seed) {
    Schedule s = GenerateSchedule(seed, kEvents);
    if (power_loss && !s.power_loss) continue;
    ++ran;
    h = Fnv1a(h, RunSchedule(s, options).trace);
  }
  return h;
}

TEST(ChaosDeterminism, TraceDigestPinned) {
  RunOptions sharded;
  sharded.broker_shards = 2;
  RunOptions exactly_once;
  exactly_once.exactly_once = true;
  EXPECT_EQ(PinnedDigest({}, false), 0x105ec67fa6b8120eull) << "default mode";
  EXPECT_EQ(PinnedDigest(sharded, false), 0x454ecc5b02a5a19aull)
      << "broker_shards=2";
  EXPECT_EQ(PinnedDigest(exactly_once, false), 0xfa79e66028e2cc0dull)
      << "exactly_once";
  EXPECT_EQ(PinnedDigest({}, true), 0xc372c936c129cd08ull)
      << "power-loss schedules";
}

TEST(ChaosDeterminism, TraceRoundTripsAndReplaysIdentically) {
  const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + 13;
  RunResult original = RunSeed(seed, g_events);
  // The annotated trace parses back to the exact schedule...
  auto parsed = ParseTrace(original.trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Schedule generated = GenerateSchedule(seed, g_events);
  ASSERT_EQ(parsed->events.size(), generated.events.size());
  EXPECT_EQ(parsed->seed, generated.seed);
  EXPECT_EQ(parsed->nodes, generated.nodes);
  EXPECT_EQ(parsed->replication_factor, generated.replication_factor);
  EXPECT_EQ(parsed->streamlets, generated.streamlets);
  EXPECT_EQ(parsed->producers, generated.producers);
  EXPECT_EQ(parsed->consumers, generated.consumers);
  EXPECT_EQ(parsed->backup_mode, generated.backup_mode);
  EXPECT_EQ(parsed->power_loss, generated.power_loss);
  EXPECT_EQ(parsed->vlog_per_subpartition, generated.vlog_per_subpartition);
  for (size_t i = 0; i < parsed->events.size(); ++i) {
    EXPECT_EQ(FormatEventLine(parsed->events[i]),
              FormatEventLine(generated.events[i]))
        << "event " << i;
  }
  // ...and replaying the parsed schedule reproduces the run byte for byte.
  RunResult replayed = RunSchedule(*parsed);
  EXPECT_EQ(replayed.trace, original.trace);
  EXPECT_EQ(CounterSummary(replayed), CounterSummary(original));
}

TEST(ChaosDeterminism, ParseTraceRejectsCorruptInput) {
  Schedule s = GenerateSchedule(42, 10);
  std::string good = FormatTrace(s);
  ASSERT_TRUE(ParseTrace(good).ok());

  EXPECT_FALSE(ParseTrace("not a trace\n").ok());
  // Truncation anywhere before "end" is rejected, never misparsed.
  EXPECT_FALSE(ParseTrace(good.substr(0, good.size() - 5)).ok());
  EXPECT_FALSE(ParseTrace(good.substr(0, good.find("ev "))).ok());
  // A dropped event line fails the declared-count check.
  size_t ev = good.find("ev ");
  std::string missing = good.substr(0, ev) + good.substr(good.find('\n', ev) + 1);
  EXPECT_FALSE(ParseTrace(missing).ok());
  // Garbage event names are rejected.
  std::string mangled = good;
  mangled.replace(ev, 3, "ex ");
  EXPECT_FALSE(ParseTrace(mangled).ok());
}

// ----------------------------------------------------------- exactly-once

// The headline exactly-once sweep: the same seed->schedule mapping —
// crashes, migrations, partitions, drops/dups/delays, consumer restarts,
// and (on the seeds that draw it) power-loss log tearing — driven with
// RunOptions::exactly_once. Producers stamp coordinator epochs, every
// consume event durably commits cursors as offset system chunks, and a
// consumer restart resumes from offsets fetched back from the brokers.
// Invariant 4 is tightened: ZERO user-record redelivery across restarts
// (the per-key duplication bound and the completeness oracle still run),
// so any lost, stale or misapplied offset — through replication,
// recovery replay or tiering — fails the sweep.
TEST(ChaosSweep, ExactlyOnceSchedulesHoldInvariants) {
  RunOptions options;
  options.exactly_once = true;
  const uint32_t n = g_single_seed ? 1 : g_schedules;
  uint64_t total_acked = 0;
  uint64_t total_consumed = 0;
  uint64_t total_redelivered = 0;
  uint64_t total_commits = 0;
  uint64_t total_fenced = 0;
  uint64_t pl_events = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunResult r = RunSeed(seed, g_events, options);
    total_acked += r.acked_chunks;
    total_consumed += r.consumed_chunks;
    total_redelivered += r.redelivered_chunks;
    total_commits += r.broker.offset_commits;
    total_fenced += r.broker.chunks_fenced;
    pl_events += r.power_loss_events;
    if (!r.ok) {
      std::string path = DumpFailureTrace(seed, r);
      FAIL() << "exactly-once schedule violated an invariant\n"
             << "  seed:   " << seed << "\n"
             << "  event:  " << (r.failed_event == size_t(-1)
                                     ? std::string("setup/final-phase")
                                     : std::to_string(r.failed_event))
             << "\n"
             << "  what:   " << r.failure << "\n"
             << "  trace:  " << path << "\n"
             << "  replay: chaos_test --chaos_seed=" << seed
             << " --chaos_events=" << g_events;
    }
    EXPECT_EQ(r.redelivered_chunks, 0u)
        << "user-record redelivery under exactly-once, seed " << seed;
  }
  // The sweep must exercise the exactly-once machinery, not vacuously
  // pass: data flowed, commits landed, and nothing was ever redelivered.
  EXPECT_GT(total_acked, 0u);
  EXPECT_GT(total_consumed, 0u);
  EXPECT_GT(total_commits, 0u);
  EXPECT_EQ(total_redelivered, 0u);
  std::fprintf(stderr,
               "[chaos] exactly-once schedules=%u acked=%llu consumed=%llu "
               "redelivered=%llu commits=%llu fenced=%llu power-loss=%llu\n",
               n, (unsigned long long)total_acked,
               (unsigned long long)total_consumed,
               (unsigned long long)total_redelivered,
               (unsigned long long)total_commits,
               (unsigned long long)total_fenced,
               (unsigned long long)pl_events);
}

// Exactly-once runs are as deterministic as every other mode: commits,
// offset fetches and the Quiesce-assisted retry ladder are all driven by
// the same single-threaded virtual-clock network.
TEST(ChaosDeterminism, ExactlyOnceSameSeedTwiceIsByteIdentical) {
  RunOptions options;
  options.exactly_once = true;
  const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + 5;
  RunResult a = RunSeed(seed, g_events, options);
  RunResult b = RunSeed(seed, g_events, options);
  EXPECT_EQ(a.trace, b.trace)
      << "exactly-once annotated traces diverged for seed " << seed;
  EXPECT_EQ(CounterSummary(a), CounterSummary(b));
  EXPECT_EQ(a.failure, b.failure);
}

// With the mode off (the default), the exactly-once machinery must be
// completely inert: no commit traffic, no offset chunks, no epoch
// stamping, no fence rejections — the schedules run exactly as before.
TEST(ChaosSweep, ExactlyOnceOffIsInert) {
  const uint32_t n = g_single_seed ? 1 : 4;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t seed = g_single_seed ? g_seed : kSweepSeedBase + i;
    RunResult r = RunSeed(seed, g_events);
    EXPECT_EQ(r.broker.offset_commits, 0u) << "seed " << seed;
    EXPECT_EQ(r.broker.chunks_fenced, 0u) << "seed " << seed;
    EXPECT_EQ(r.trace.find("# commit c="), std::string::npos)
        << "commit annotation in an exactly-once-off trace, seed " << seed;
  }
}

// ----------------------------------------------------------- regressions

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// The stale-ack dedup bug: a retried chunk whose first attempt appended
// but never became durable used to be acked immediately by the dedup
// path, fabricating durability for data that one crash could still lose.
// The fix makes the duplicate branch wait for (and propagate failures
// from) actual durability.
TEST(ChaosRegression, DuplicateRetryIsNotAckedBeforeDurability) {
  rpc::DirectNetwork direct;
  ChaosNetwork net(direct, 1);
  MiniClusterConfig cfg;
  cfg.nodes = 3;
  cfg.segment_size = 4 << 10;
  cfg.virtual_segment_capacity = 16 << 10;
  cfg.broker_memory_bytes = 32 << 20;
  cfg.external_network = &net;
  cfg.external_register = [&](NodeId n, rpc::RpcHandler* h) {
    direct.Register(n, h);
  };
  cfg.external_crash = [&](NodeId n) { direct.Crash(n); };
  cfg.external_restore = [&](NodeId n, rpc::RpcHandler* h) {
    direct.Restore(n, h);
  };
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 1;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("s", opts);
  ASSERT_TRUE(info.ok());
  const NodeId leader = info->streamlet_brokers[0];

  auto produce = [&](ChunkSeq seq) {
    ChunkBuilder b(512);
    b.Start(info->stream, 0, 7);
    EXPECT_TRUE(b.AppendValue(AsBytes("value-" + std::to_string(seq))));
    auto chunk = b.Seal(seq);
    rpc::ProduceRequest req;
    req.producer = 7;
    req.stream = info->stream;
    req.chunks = {chunk};
    return cluster.broker(leader).HandleProduce(req);
  };

  ASSERT_EQ(produce(1).status, StatusCode::kOk);

  // Partition every backup service: the next chunk appends locally but
  // cannot replicate, so the produce must fail without an ack.
  for (NodeId n = 1; n <= 3; ++n) net.SetPartitioned(BackupServiceId(n), true);
  ASSERT_NE(produce(2).status, StatusCode::kOk);

  // The producer retries: the broker sees a dedup duplicate whose chunk is
  // appended but NOT durable. Pre-fix this acked instantly; it must fail.
  ASSERT_NE(produce(2).status, StatusCode::kOk);

  // Heal. The same retry now waits out replication and acks as a dup.
  for (NodeId n = 1; n <= 3; ++n) {
    net.SetPartitioned(BackupServiceId(n), false);
  }
  auto acked = produce(2);
  ASSERT_EQ(acked.status, StatusCode::kOk);
  EXPECT_EQ(acked.duplicates, 1u);
  EXPECT_EQ(acked.appended, 0u);

  // The ack was real: the data survives the leader's crash and recovery,
  // exactly once.
  cluster.CrashNode(leader);
  auto recovered = cluster.coordinator().RecoverNode(leader);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto moved = cluster.coordinator().GetStreamInfo("s");
  ASSERT_TRUE(moved.ok());
  const NodeId successor = moved->streamlet_brokers[0];
  ASSERT_NE(successor, leader);

  rpc::ConsumeRequest creq;
  creq.stream = info->stream;
  creq.max_bytes = 1 << 20;
  std::vector<uint64_t> seqs;
  for (GroupId g = 0; g < 8; ++g) {
    creq.entries = {{.streamlet = 0, .group = g, .start_chunk = 0,
                     .max_chunks = 64}};
    auto resp = cluster.broker(successor).HandleConsume(creq);
    ASSERT_EQ(resp.status, StatusCode::kOk);
    for (const auto& e : resp.entries) {
      for (const auto& raw : e.chunks) {
        auto view = ChunkView::Parse(raw);
        ASSERT_TRUE(view.ok());
        ASSERT_TRUE(view->VerifyChecksum());
        seqs.push_back(view->chunk_seq());
      }
    }
  }
  EXPECT_EQ(std::count(seqs.begin(), seqs.end(), 1u), 1);
  EXPECT_EQ(std::count(seqs.begin(), seqs.end(), 2u), 1);
  EXPECT_EQ(seqs.size(), 2u);
}

// MiniCluster crash/restart lifecycle: a crash fails parked long-polls
// promptly (they used to leak until their poll deadline), and a restarted
// node rejoins the coordinator, takes new placements, serves produce and
// consume, and re-arms long-poll wakeups.
TEST(ChaosRegression, CrashFailsParkedLongPollsAndRestartRejoins) {
  MiniClusterConfig cfg;
  cfg.nodes = 3;
  cfg.transport = MiniClusterTransport::kSocket;  // long-polls really park
  cfg.segment_size = 64 << 10;
  cfg.virtual_segment_capacity = 64 << 10;
  cfg.broker_memory_bytes = 64 << 20;
  // Far beyond any test timeout: a waiter leaked until its deadline would
  // be unmistakable.
  cfg.max_consume_wait_us = 30'000'000;
  MiniCluster cluster(cfg);

  rpc::StreamOptions opts;
  opts.num_streamlets = 3;
  opts.replication_factor = 2;
  auto info = cluster.coordinator().CreateStream("a", opts);
  ASSERT_TRUE(info.ok());
  const NodeId victim = info->streamlet_brokers[0];

  auto long_poll = [&](StreamId stream, StreamletId sl, NodeId node) {
    rpc::ConsumeRequest req;
    req.stream = stream;
    req.max_bytes = 1 << 20;
    req.entries = {{.streamlet = sl, .group = 0, .start_chunk = 0,
                    .max_chunks = 8}};
    req.max_wait_us = 30'000'000;
    req.min_bytes = 1;
    rpc::Writer body;
    req.Encode(body);
    auto frame = rpc::Frame(rpc::Opcode::kConsume, body);
    return cluster.network().CallAsync(node, frame);
  };
  auto wait_parked = [&](NodeId node) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cluster.broker(node).GetStats().consume_long_polls == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "consume never parked on node " << node;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  auto parked = long_poll(info->stream, 0, victim);
  wait_parked(victim);

  // Crash: the parked waiter must complete promptly, not at its deadline.
  cluster.CrashNode(victim);
  ASSERT_EQ(parked.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "long-poll leaked across CrashNode";
  (void)parked.get();  // error or empty response; both are fine

  ASSERT_TRUE(cluster.coordinator().RecoverNode(victim).ok());
  ASSERT_TRUE(cluster.RestartNode(victim).ok());

  // New placements use the rejoined node: with 3 streamlets round-robined
  // over 3 live brokers, the restarted node leads at least one.
  auto info2 = cluster.coordinator().CreateStream("b", opts);
  ASSERT_TRUE(info2.ok());
  StreamletId sl2 = StreamletId(-1);
  for (size_t i = 0; i < info2->streamlet_brokers.size(); ++i) {
    if (info2->streamlet_brokers[i] == victim) sl2 = StreamletId(i);
  }
  ASSERT_NE(sl2, StreamletId(-1))
      << "restarted node received no placement in the new stream";

  // A fresh long-poll on the restarted broker parks...
  auto parked2 = long_poll(info2->stream, sl2, victim);
  wait_parked(victim);

  // ...and a produce through the network wakes it with data.
  ChunkBuilder b(1024);
  b.Start(info2->stream, sl2, 9);
  ASSERT_TRUE(b.AppendValue(AsBytes("wake")));
  auto chunk = b.Seal(1);
  rpc::ProduceRequest preq;
  preq.producer = 9;
  preq.stream = info2->stream;
  preq.chunks = {chunk};
  rpc::Writer body;
  preq.Encode(body);
  auto raw = cluster.network().Call(victim,
                                    rpc::Frame(rpc::Opcode::kProduce, body));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  rpc::Reader r(*raw);
  auto presp = rpc::ProduceResponse::Decode(r);
  ASSERT_TRUE(presp.ok());
  ASSERT_EQ(presp->status, StatusCode::kOk);

  ASSERT_EQ(parked2.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "restarted broker's long-poll was not re-armed";
  auto craw = parked2.get();
  ASSERT_TRUE(craw.ok()) << craw.status().ToString();
  rpc::Reader cr(*craw);
  auto cresp = rpc::ConsumeResponse::Decode(cr);
  ASSERT_TRUE(cresp.ok());
  ASSERT_EQ(cresp->status, StatusCode::kOk);
  ASSERT_EQ(cresp->entries.size(), 1u);
  EXPECT_GE(cresp->entries[0].chunks.size(), 1u);
}

}  // namespace
}  // namespace kera::chaos

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  using namespace kera::chaos;
  if (const char* env = std::getenv("KERA_CHAOS_SCHEDULES")) {
    g_schedules = uint32_t(std::strtoul(env, nullptr, 10));
  }
  if (const char* env = std::getenv("KERA_CHAOS_EVENTS")) {
    g_events = uint32_t(std::strtoul(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--chaos_seed=", 13) == 0) {
      g_seed = std::strtoull(arg + 13, nullptr, 10);
      g_single_seed = true;
    } else if (std::strncmp(arg, "--chaos_schedules=", 18) == 0) {
      g_schedules = uint32_t(std::strtoul(arg + 18, nullptr, 10));
    } else if (std::strncmp(arg, "--chaos_events=", 15) == 0) {
      g_events = uint32_t(std::strtoul(arg + 15, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  if (g_schedules == 0 || g_events == 0) {
    std::fprintf(stderr, "chaos_schedules and chaos_events must be > 0\n");
    return 2;
  }
  return RUN_ALL_TESTS();
}
