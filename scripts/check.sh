#!/usr/bin/env bash
# Full local check: regular build + all tests, the producer's linger
# and retry tests, the consumer's end-of-stream tests and the replay race
# tests repeated, the end-to-end benchmark's selfcheck over
# real sockets, a ThreadSanitizer build running the concurrency-sensitive
# suites (virtual log windowed replication, concurrent produce handlers),
# an ASan+UBSan build running the wire/rpc/broker suites (the scatter-gather
# encode path references external buffers; sanitizers catch lifetime
# mistakes), and the benchmarks emitting machine-readable JSON, with gates
# on the producer's per-record cost and the tailing consumer's RPC count.
#
# Every stage that runs the socket cluster or a long sweep outside ctest
# (the producer repeats, the e2ebench selfcheck, the chaos soaks, every
# bench) runs under `timeout`, so a hang fails the script instead of
# wedging it.
#
#   ./scripts/check.sh [build_dir] [tsan_build_dir] [asan_build_dir]
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
tsan_build=${2:-"$repo/build-tsan"}
asan_build=${3:-"$repo/build-asan"}

echo "== regular build + full test suite =="
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

echo "== producer linger and retry tests, repeated (Release) =="
# The requests thread is the producer's only linger timer, and its rounds
# are its only send path, retries included. A lost wake in its timed wait
# or a lost requeue stalls a test instead of failing it, and TSan reports
# no stalls, so the linger, pool-dry, Flush, leader-following and
# final-status tests repeat under a timeout.
timeout 600 "$build/tests/client_test" \
  --gtest_filter='ProducerTest.*Linger*:ProducerTest.PoolRunningDry*:ProducerTest.FlushKeeps*:ProducerTest.RoundsFollow*:ProducerTest.*AtOnce' \
  --gtest_repeat=30

echo "== consumer end-of-stream and replay race tests, repeated (Release) =="
# A lost end of stream stalls PollBlocking, and a replay refusal that is
# never lifted stalls Flush; neither fails a test by itself, and TSan
# reports no stalls, so these repeat under a timeout too.
timeout 900 "$build/tests/client_edge_test" \
  --gtest_filter='ConsumerEdgeTest.*' --gtest_repeat=10
timeout 900 "$build/tests/bounded_stream_test" \
  --gtest_filter='BoundedStreamTest.*' --gtest_repeat=10
timeout 900 "$build/tests/integration_test" \
  --gtest_filter='IntegrationTest.SendDuringRecoveryReplayLosesNothing' \
  --gtest_repeat=10
timeout 900 "$build/tests/migration_test" \
  --gtest_filter='MigrationRaceTest.SendDuringMigrationReplayLosesNothing' \
  --gtest_repeat=10

echo "== end-to-end benchmark selfcheck (socket cluster, every record checked) =="
# Builds e2e_bench in Release under the regular build dir, then runs the
# record-checker test and all three workloads at tiny scale, untraced and
# traced, over real sockets; every record must arrive exactly once.
(cd "$repo" && CARGO_TARGET_DIR="$build/e2e" \
  timeout 1800 python3 e2ebench/run.py --selfcheck)

echo "== ThreadSanitizer build (common, vlog, broker, client, cluster suites) =="
# MiniCluster defaults to the socket transport, so the integration, soak
# and bounded-stream suites run real dispatch/worker threads too.
cmake -B "$tsan_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$tsan_build" -j --target \
  common_test vlog_test vlog_property_test broker_test client_test \
  client_edge_test consume_protocol_test transport_test exactly_once_test \
  integration_test soak_test bounded_stream_test failure_test
for t in common_test vlog_test vlog_property_test broker_test client_test \
         client_edge_test consume_protocol_test transport_test \
         exactly_once_test integration_test soak_test bounded_stream_test \
         failure_test; do
  echo "-- TSan: $t"
  "$tsan_build/tests/$t"
done

echo "== TSan: integration + transport suites with 2 broker shards =="
# KERA_BROKER_SHARDS=2 makes every MiniCluster in these suites build
# sharded brokers (per-shard reactors, routing, parking), so TSan sees
# the cross-shard paths under real thread interleavings; the integration
# suite's socket shapes include 4 producers on one node. (broker_test
# builds no MiniCluster: its sharded tests set BrokerConfig::shards and
# run in the TSan stage above.)
for t in integration_test transport_test; do
  echo "-- TSan (KERA_BROKER_SHARDS=2): $t"
  KERA_BROKER_SHARDS=2 "$tsan_build/tests/$t"
done

echo "== ASan+UBSan build (wire + rpc + crc + client + consume + backup + coordinator + broker + vlog suites) =="
# wire_fuzz_test runs every derived decoder on truncated and random
# bodies; coordinator_test drives rpc::Dispatch and the typed rpc::Call
# through crash recovery. client_test and integration_test hand chunk
# builders between the producer's two threads and move received frame
# buffers from the socket IO threads to workers and callers. A fan-out
# lane's ReplicaSend holds spans into segment memory until FinishBatch
# collects every future: broker_test and vlog_test drive the fan-out and
# the window, failure_test the abort/evacuate path.
cmake -B "$asan_build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$asan_build" -j --target \
  wire_test wire_golden_test wire_fuzz_test rpc_test common_test \
  transport_test consume_protocol_test client_test client_edge_test \
  integration_test backup_test backup_store_test coordinator_test \
  broker_test vlog_test failure_test migration_test
for t in wire_test wire_golden_test wire_fuzz_test rpc_test common_test \
         transport_test consume_protocol_test client_test client_edge_test \
         integration_test backup_test backup_store_test coordinator_test \
         broker_test vlog_test failure_test migration_test; do
  echo "-- ASan+UBSan: $t"
  "$asan_build/tests/$t"
done

echo "== chaos: bounded schedule sweeps under both sanitizers =="
# The full 200-schedule sweep runs in the regular suite above (ctest label
# "chaos"); under the sanitizers a bounded band keeps the stage fast while
# still driving crashes, partitions and recovery through the instrumented
# build. KERA_CHAOS_SCHEDULES/KERA_CHAOS_EVENTS bound the gtest sweep; the
# unfiltered runs also check ChaosDeterminism.TraceDigestPinned, whose
# fixed seed band ignores both, so the pinned trace digests must hold
# under each sanitizer too.
cmake --build "$tsan_build" -j --target chaos_test
echo "-- TSan: chaos_test (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$tsan_build/tests/chaos_test"
echo "-- TSan: chaos_test sharded sweep (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$tsan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.ShardedBrokersHoldInvariants'
echo "-- TSan: chaos_test power-loss sweep (bounded)"
# The power-loss schedules drive the segment log's group-commit flusher,
# torn-tail truncation and restart scan under real thread interleavings.
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$tsan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.PowerLossSchedulesHoldInvariants'
cmake --build "$asan_build" -j --target chaos_test
echo "-- ASan+UBSan: chaos_test (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$asan_build/tests/chaos_test"

echo "== exactly-once: tightened chaos band under both sanitizers =="
# Exactly-once mode commits consumer cursors as system chunks on every
# consume event and tightens the redelivery invariant to ZERO; the band
# runs the same crash/partition/power-loss schedules with that oracle
# under both instrumented builds. The TSan property suite above already
# covers the client Commit()/resume threading.
echo "-- TSan: chaos_test exactly-once sweep (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$tsan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.ExactlyOnceSchedulesHoldInvariants:ChaosSweep.ExactlyOnceOffIsInert'
echo "-- ASan+UBSan: chaos_test exactly-once sweep (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$asan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.ExactlyOnceSchedulesHoldInvariants:ChaosDeterminism.ExactlyOnceSameSeedTwiceIsByteIdentical'
echo "-- ASan+UBSan: exactly_once_test"
cmake --build "$asan_build" -j --target exactly_once_test
"$asan_build/tests/exactly_once_test"

echo "== recovery: parallel crash-recovery suites under TSan =="
# The recovery engine spawns real lane/read threads on the socket
# transport; the recovery + migration suites drive scatter
# placement, batched backup reads and lane replay under TSan.
cmake --build "$tsan_build" -j --target \
  recovery_property_test coordinator_test migration_test
for t in recovery_property_test coordinator_test migration_test; do
  echo "-- TSan: $t"
  "$tsan_build/tests/$t"
done

echo "== recovery: parallel-recovery chaos sweep under ASan+UBSan =="
# Bounded band of crash schedules with the recovery fan-out at 8: the
# scatter/batched-read/lane machinery runs on every crash while ASan
# watches the payload span lifetimes (spans into the batch response).
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$asan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.ParallelRecoverySchedulesHoldInvariants:ChaosSweep.TraceIdenticalAcrossRecoveryParallelism'

echo "== tiered memory: cold-read suite under both sanitizers =="
# The cold-read suite drives eviction against in-flight zero-copy
# consumes (segment pins, cold-cache holds, spill-log reload): ASan turns
# any buffer-lifetime slip into a hard fault, and TSan watches the
# evictor/reader pin handshake plus the async readahead worker. A bounded
# tiered chaos band runs under both as well (--memory_budget=1024 in
# chaos_soak replays any failure).
cmake --build "$tsan_build" -j --target coldread_test
echo "-- TSan: coldread_test"
"$tsan_build/tests/coldread_test"
cmake --build "$asan_build" -j --target coldread_test
echo "-- ASan+UBSan: coldread_test"
"$asan_build/tests/coldread_test"
echo "-- TSan: chaos_test tiered sweep (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$tsan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.TieredMemorySchedulesHoldInvariants'
echo "-- ASan+UBSan: chaos_test tiered sweep (bounded)"
KERA_CHAOS_SCHEDULES=40 KERA_CHAOS_EVENTS=40 "$asan_build/tests/chaos_test" \
  --gtest_filter='ChaosSweep.TieredMemorySchedulesHoldInvariants:ChaosDeterminism.TieredTraceIdenticalToUnbounded'

echo "== recovery MTTR benchmark (JSON to BENCH_recovery.json) =="
# Modeled MTTR vs data volume / broker count / fan-out on the
# deterministic path, the 512-segment paper-scale sweep, and a socket
# wall-clock run (honest numbers; batched-read RPC reduction is the
# deterministic claim there).
cmake --build "$build" -j --target bench_recovery_mttr
timeout 900 "$build/bench/bench_recovery_mttr" \
  --benchmark_out="$repo/BENCH_recovery.json" \
  --benchmark_out_format=json

echo "== chaos soak (JSON to BENCH_chaos.json) =="
cmake --build "$build" -j --target chaos_soak
timeout 1800 "$build/tools/chaos_soak" --schedules=400 --events=60 \
  --out="$repo/BENCH_chaos.json"

echo "== exactly-once chaos soak (JSON to BENCH_chaos_eo.json) =="
# Same seed band with end-to-end exactly-once on: the JSON adds the
# dedup-hit / fence / offset-commit counters and the redelivery total
# (which the tightened invariant holds at zero).
timeout 1800 "$build/tools/chaos_soak" --schedules=400 --events=60 \
  --exactly_once --out="$repo/BENCH_chaos_eo.json"

echo "== micro-benchmark (JSON to BENCH_micro_core.json) =="
cmake --build "$build" -j --target bench_micro_core
timeout 900 "$build/bench/bench_micro_core" \
  --benchmark_out="$repo/BENCH_micro_core.json" \
  --benchmark_out_format=json
# Producer::Send is O(1) in the streamlet count: its ns per record at 1024
# streamlets stays within 2x of 16 (a scan over open chunks made it ~30x).
python3 - "$repo/BENCH_micro_core.json" <<'EOF'
import json, sys
ns = {b["name"].split("/")[1]: b["ns_per_record"]
      for b in json.load(open(sys.argv[1]))["benchmarks"]
      if b["name"].startswith("BM_ProducerSend/")}
ratio = ns["streamlets:1024"] / ns["streamlets:16"]
print(f"BM_ProducerSend ns per record, 1024 vs 16 streamlets: {ratio:.2f}x")
sys.exit(0 if ratio < 2 else 1)
EOF

echo "== transport benchmark (JSON to BENCH_transport.json) =="
cmake --build "$build" -j --target bench_transport
timeout 900 "$build/bench/bench_transport" \
  --benchmark_out="$repo/BENCH_transport.json" \
  --benchmark_out_format=json

echo "== consume benchmark (JSON to BENCH_consume.json) =="
cmake --build "$build" -j --target bench_consume
timeout 900 "$build/bench/bench_consume" \
  --benchmark_out="$repo/BENCH_consume.json" \
  --benchmark_out_format=json
# A tailing consumer keeps one long-poll per broker parked until its next
# record, so BM_TailLatency's socket run sends about one consume RPC per
# record; a consumer that sends a wait-0 fetch after each response sends
# about two, half of them empty.
python3 - "$repo/BENCH_consume.json" <<'EOF'
import json, sys
tail = next(b for b in json.load(open(sys.argv[1]))["benchmarks"]
            if b["name"].startswith("BM_TailLatency/socket:1/"))
ratio = tail["consume_rpcs"] / tail["records"]
print(f"BM_TailLatency/socket:1 consume RPCs per record: {ratio:.2f}")
sys.exit(0 if ratio <= 1.25 else 1)
EOF

echo "== backup store benchmark (JSON to BENCH_backup.json) =="
# Group-commit flush vs one-file-per-segment baseline (fsyncs_per_mb is
# the headline counter) and cold-restart scan time vs segment count.
cmake --build "$build" -j --target bench_backup_store
timeout 900 "$build/bench/bench_backup_store" \
  --benchmark_out="$repo/BENCH_backup.json" \
  --benchmark_out_format=json

echo "== tiered memory benchmark (JSON to BENCH_coldread.json) =="
# Catch-up throughput + resident-vs-ingested ledger at a ~25% budget, and
# hot-tail produce percentiles with/without a concurrent cold scanner
# (scan resistance: the scanner runs out of the cold cache's own pool).
cmake --build "$build" -j --target bench_coldread
timeout 900 "$build/bench/bench_coldread" \
  --benchmark_out="$repo/BENCH_coldread.json" \
  --benchmark_out_format=json

echo "== multicore scaling benchmark (JSON to BENCH_multicore.json) =="
# Sweeps broker shard count 1..nproc over the socket transport; the JSON
# context records nproc and the CPU model, so single-CPU runs are
# self-documenting (no scaling is expected there, only routing counters).
cmake --build "$build" -j --target bench_multicore
timeout 900 "$build/bench/bench_multicore" \
  --benchmark_out="$repo/BENCH_multicore.json" \
  --benchmark_out_format=json

echo "check.sh: all green"
