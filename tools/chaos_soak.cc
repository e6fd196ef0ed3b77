// chaos_soak: long-running chaos sweep for soak testing and CI stages.
// Runs a contiguous band of seeds through the deterministic chaos harness
// and emits a machine-readable JSON summary (schedules run, faults by
// kind, invariant checks performed, workload counters). Any failing seed
// dumps its replayable trace and fails the process.
//
//   chaos_soak [--schedules=N] [--events=N] [--seed_base=N] [--shards=N]
//              [--recovery_parallelism=N] [--memory_budget=BYTES]
//              [--exactly_once] [--out=PATH]
//
// --shards=N runs every schedule against brokers with N shared-nothing
// shards (see BrokerConfig::shards). The schedule generator is untouched:
// seed->schedule mapping and trace format are identical at any shard
// count, so a failure found at --shards=2 replays from the same trace.
// --recovery_parallelism=N sets the coordinator's recovery fan-out (see
// CoordinatorConfig): under the single-threaded chaos network the engine
// runs serially and models the fan-out, so traces stay identical at any
// value while the scatter/batched-read/lane machinery is exercised.
// --memory_budget=BYTES caps each broker's sealed-segment DRAM (see
// BrokerConfig::memory_budget_bytes), forcing mid-schedule spill/evict/
// cold-read cycles. Spill decisions are a pure function of seal order
// and budget, so traces stay byte-identical to --memory_budget=0.
// --exactly_once turns on end-to-end exactly-once (RunOptions::
// exactly_once): producers get coordinator epochs, every consume event
// durably commits consumer cursors, restarts resume from broker offsets,
// and the redelivery invariant tightens to zero. The soak JSON then
// carries the dedup-hit / fence / offset-commit counters.
//
// Environment overrides (flags win): KERA_CHAOS_SCHEDULES,
// KERA_CHAOS_EVENTS, KERA_BROKER_SHARDS — the same knobs
// scripts/check.sh uses to bound the sanitizer stages.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "chaos/chaos_harness.h"
#include "chaos/fault_schedule.h"
#include "common/host_info.h"

namespace {

uint64_t ParseU64(const char* s, const char* what) {
  char* end = nullptr;
  uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "chaos_soak: bad %s value: %s\n", what, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t schedules = 1000;
  uint32_t events = 60;
  uint64_t seed_base = 1;
  uint32_t shards = 1;
  uint32_t recovery_parallelism = 1;
  uint64_t memory_budget = 0;
  bool exactly_once = false;
  std::string out_path = "BENCH_chaos.json";

  if (const char* env = std::getenv("KERA_CHAOS_SCHEDULES")) {
    schedules = ParseU64(env, "KERA_CHAOS_SCHEDULES");
  }
  if (const char* env = std::getenv("KERA_CHAOS_EVENTS")) {
    events = uint32_t(ParseU64(env, "KERA_CHAOS_EVENTS"));
  }
  if (const char* env = std::getenv("KERA_BROKER_SHARDS")) {
    uint64_t v = ParseU64(env, "KERA_BROKER_SHARDS");
    if (v > 0) shards = uint32_t(v);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--schedules=", 12) == 0) {
      schedules = ParseU64(arg + 12, "--schedules");
    } else if (std::strncmp(arg, "--events=", 9) == 0) {
      events = uint32_t(ParseU64(arg + 9, "--events"));
    } else if (std::strncmp(arg, "--seed_base=", 12) == 0) {
      seed_base = ParseU64(arg + 12, "--seed_base");
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards = uint32_t(ParseU64(arg + 9, "--shards"));
      if (shards == 0) shards = 1;
    } else if (std::strncmp(arg, "--recovery_parallelism=", 23) == 0) {
      recovery_parallelism = uint32_t(ParseU64(arg + 23,
                                               "--recovery_parallelism"));
      if (recovery_parallelism == 0) recovery_parallelism = 1;
    } else if (std::strncmp(arg, "--memory_budget=", 16) == 0) {
      memory_budget = ParseU64(arg + 16, "--memory_budget");
    } else if (std::strcmp(arg, "--exactly_once") == 0) {
      exactly_once = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--schedules=N] [--events=N] "
                   "[--seed_base=N] [--shards=N] "
                   "[--recovery_parallelism=N] [--memory_budget=BYTES] "
                   "[--exactly_once] [--out=PATH]\n");
      return 2;
    }
  }
  kera::chaos::RunOptions run_options;
  run_options.broker_shards = shards;
  run_options.recovery_parallelism = recovery_parallelism;
  run_options.memory_budget_bytes = memory_budget;
  run_options.exactly_once = exactly_once;

  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();

  std::map<std::string, uint64_t> faults_by_kind;
  kera::chaos::RunResult total;
  // Per-run task replay percentiles are wall-clock; the JSON reports the
  // worst run's.
  uint64_t task_p50_us_max = 0;
  uint64_t task_p99_us_max = 0;
  uint64_t ran = 0;
  for (uint64_t i = 0; i < schedules; ++i) {
    uint64_t seed = seed_base + i;
    auto schedule = kera::chaos::GenerateSchedule(seed, events);
    for (const auto& ev : schedule.events) {
      ++faults_by_kind[kera::chaos::FaultKindName(ev.kind)];
    }
    auto r = kera::chaos::RunSchedule(schedule, run_options);
    if (!r.ok) {
      std::string trace_path = "chaos_failure_" + std::to_string(seed) +
                               ".trace";
      if (FILE* f = std::fopen(trace_path.c_str(), "w")) {
        std::fwrite(r.trace.data(), 1, r.trace.size(), f);
        std::fclose(f);
      }
      std::fprintf(stderr,
                   "chaos_soak: FAILED seed=%" PRIu64 " event=%zu shards=%u\n"
                   "  %s\n"
                   "  trace: %s\n  replay: chaos_test --chaos_seed=%" PRIu64
                   "\n",
                   seed, r.failed_event, shards, r.failure.c_str(),
                   trace_path.c_str(), seed);
      return 1;
    }
    ++ran;
    total.events_run += r.events_run;
    total.events_skipped += r.events_skipped;
    total.checks += r.checks;
    total.acked_chunks += r.acked_chunks;
    total.consumed_chunks += r.consumed_chunks;
    total.redelivered_chunks += r.redelivered_chunks;
    total.retried_sends += r.retried_sends;
    total.abandoned_sends += r.abandoned_sends;
    total.dedup_hits += r.dedup_hits;
    total.recovery_replayed += r.recovery_replayed;
    total.power_loss_events += r.power_loss_events;
    total.power_loss_recovered += r.power_loss_recovered;
    total.broker += r.broker;
    total.backup += r.backup;
    total.recovery.tasks_issued += r.recovery.tasks_issued;
    total.recovery.bytes_replayed += r.recovery.bytes_replayed;
    total.recovery.read_rpcs += r.recovery.read_rpcs;
    total.recovery.read_rpcs_saved += r.recovery.read_rpcs_saved;
    total.recovery.peak_fanout =
        std::max(total.recovery.peak_fanout, r.recovery.peak_fanout);
    task_p50_us_max = std::max(task_p50_us_max,
                               r.recovery.task_replay_us.Quantile(0.50));
    task_p99_us_max = std::max(task_p99_us_max,
                               r.recovery.task_replay_us.Quantile(0.99));
    total.net.calls += r.net.calls;
    total.net.dropped_requests += r.net.dropped_requests;
    total.net.dropped_responses += r.net.dropped_responses;
    total.net.duplicated_requests += r.net.duplicated_requests;
    total.net.partitioned_calls += r.net.partitioned_calls;
    total.net.delays_injected += r.net.delays_injected;
    if (ran % 100 == 0) {
      std::fprintf(stderr, "chaos_soak: %" PRIu64 "/%" PRIu64 " schedules\n",
                   ran, schedules);
    }
  }

  double secs = std::chrono::duration<double>(Clock::now() - start).count();

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "chaos_soak: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"nproc\": %u,\n", kera::HostNproc());
  std::fprintf(out, "  \"cpu_model\": \"%s\",\n",
               kera::HostCpuModel().c_str());
  std::fprintf(out, "  \"broker_shards\": %u,\n", shards);
  std::fprintf(out, "  \"recovery_parallelism\": %u,\n",
               recovery_parallelism);
  std::fprintf(out, "  \"memory_budget_bytes\": %" PRIu64 ",\n",
               memory_budget);
  std::fprintf(out, "  \"exactly_once\": %s,\n",
               exactly_once ? "true" : "false");
  std::fprintf(out, "  \"schedules\": %" PRIu64 ",\n", ran);
  std::fprintf(out, "  \"events_per_schedule\": %u,\n", events);
  std::fprintf(out, "  \"seed_base\": %" PRIu64 ",\n", seed_base);
  std::fprintf(out, "  \"seconds\": %.3f,\n", secs);
  std::fprintf(out, "  \"faults_by_kind\": {\n");
  size_t i = 0;
  for (const auto& [kind, count] : faults_by_kind) {
    std::fprintf(out, "    \"%s\": %" PRIu64 "%s\n", kind.c_str(), count,
                 ++i == faults_by_kind.size() ? "" : ",");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"events_run\": %" PRIu64 ",\n", total.events_run);
  std::fprintf(out, "  \"events_skipped\": %" PRIu64 ",\n",
               total.events_skipped);
  std::fprintf(out, "  \"invariant_checks\": %" PRIu64 ",\n", total.checks);
  std::fprintf(out, "  \"acked_chunks\": %" PRIu64 ",\n", total.acked_chunks);
  std::fprintf(out, "  \"consumed_chunks\": %" PRIu64 ",\n",
               total.consumed_chunks);
  std::fprintf(out, "  \"redelivered_chunks\": %" PRIu64 ",\n",
               total.redelivered_chunks);
  std::fprintf(out, "  \"retried_sends\": %" PRIu64 ",\n",
               total.retried_sends);
  std::fprintf(out, "  \"abandoned_sends\": %" PRIu64 ",\n",
               total.abandoned_sends);
  std::fprintf(out, "  \"dedup_hits\": %" PRIu64 ",\n", total.dedup_hits);
  std::fprintf(out, "  \"fenced_rejections\": %" PRIu64 ",\n",
               uint64_t(total.broker.chunks_fenced));
  std::fprintf(out, "  \"offset_commits\": %" PRIu64 ",\n",
               uint64_t(total.broker.offset_commits));
  std::fprintf(out, "  \"recovery_replayed\": %" PRIu64 ",\n",
               total.recovery_replayed);
  std::fprintf(out, "  \"recovery_tasks\": %" PRIu64 ",\n",
               total.recovery.tasks_issued);
  std::fprintf(out, "  \"recovery_bytes\": %" PRIu64 ",\n",
               total.recovery.bytes_replayed);
  std::fprintf(out, "  \"recovery_read_rpcs\": %" PRIu64 ",\n",
               total.recovery.read_rpcs);
  std::fprintf(out, "  \"recovery_read_rpcs_saved\": %" PRIu64 ",\n",
               total.recovery.read_rpcs_saved);
  std::fprintf(out, "  \"recovery_peak_fanout\": %" PRIu64 ",\n",
               total.recovery.peak_fanout);
  std::fprintf(out, "  \"recovery_task_p50_us_max\": %" PRIu64 ",\n",
               task_p50_us_max);
  std::fprintf(out, "  \"recovery_task_p99_us_max\": %" PRIu64 ",\n",
               task_p99_us_max);
  std::fprintf(out, "  \"power_loss_events\": %" PRIu64 ",\n",
               total.power_loss_events);
  std::fprintf(out, "  \"power_loss_recovered\": %" PRIu64 ",\n",
               total.power_loss_recovered);
  std::fprintf(out, "  \"backup_flush_groups\": %" PRIu64 ",\n",
               total.backup.flush_groups);
  std::fprintf(out, "  \"backup_fsyncs\": %" PRIu64 ",\n",
               total.backup.fsyncs);
  std::fprintf(out, "  \"backup_bytes_flushed\": %" PRIu64 ",\n",
               total.backup.bytes_flushed);
  std::fprintf(out, "  \"net_calls\": %" PRIu64 ",\n", total.net.calls);
  std::fprintf(out, "  \"net_dropped_requests\": %" PRIu64 ",\n",
               total.net.dropped_requests);
  std::fprintf(out, "  \"net_dropped_responses\": %" PRIu64 ",\n",
               total.net.dropped_responses);
  std::fprintf(out, "  \"net_duplicated_requests\": %" PRIu64 ",\n",
               total.net.duplicated_requests);
  std::fprintf(out, "  \"net_partitioned_calls\": %" PRIu64 ",\n",
               total.net.partitioned_calls);
  std::fprintf(out, "  \"net_delays_injected\": %" PRIu64 ",\n",
               total.net.delays_injected);
  std::fprintf(out, "  \"segments_spilled\": %" PRIu64 ",\n",
               total.broker.segments_spilled);
  std::fprintf(out, "  \"segments_evicted\": %" PRIu64 ",\n",
               total.broker.segments_evicted);
  std::fprintf(out, "  \"cold_reads\": %" PRIu64 ",\n",
               total.broker.cold_reads);
  std::fprintf(out, "  \"cold_cache_hits\": %" PRIu64 ",\n",
               total.broker.cold_cache_hits);
  std::fprintf(out, "  \"cold_cache_misses\": %" PRIu64 "\n",
               total.broker.cold_cache_misses);
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::fprintf(stderr,
               "chaos_soak: %" PRIu64 " schedules, %" PRIu64
               " events, %" PRIu64 " invariant checks in %.1fs -> %s\n",
               ran, total.events_run, total.checks, secs, out_path.c_str());
  return 0;
}
