#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the socket cluster.

    python3 e2ebench/run.py --workload ingest_r3 --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --selfcheck

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. The benchmark and the KerA library are built
from source (Release) under $CARGO_TARGET_DIR, or .bench_build when it is
unset; the first run builds, later runs reuse the build. The last line of
standard output is the result object; the line before it is the run record
(host, build, resolved cluster knobs, steal, host speed and per-round
figures). Traced runs also write their spans under <build dir>/spans. A
run that stalls (e2e_bench exit code 3) is started again while time allows.

--selfcheck builds, runs the record-checker test, then runs every workload
at tiny scale untraced and traced, and checks each result against
BENCHMARK.json. See NOTES.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest_r3", "tail_r3", "backlog_r1")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# e2e_bench's exit code when no round finished for 20 s (a lost RPC).
STALLED_EXIT = 3


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configures (once) and builds; returns the build directory."""
    out = build_dir() / "e2ebench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        raise RuntimeError("build failed")
    return out


def run_bench(out, workload, seed, seconds, trace, tiny=False):
    """Runs one benchmark process, starting it again after a stall while
    RUN_TIMEOUT_S allows another whole run; returns (stdout lines, result
    dict). The run record counts the stalled attempts."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    stalled = 0
    while True:
        left = deadline - time.monotonic()
        try:
            proc = run_once(out, workload, seed, seconds, trace, tiny, left)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"e2e_bench did not finish in {RUN_TIMEOUT_S} s")
        if proc.returncode != STALLED_EXIT:
            break
        stalled += 1
        # A stall is detected at most ~20 s after the last round; another
        # attempt needs the timed seconds plus set-up and probes.
        if deadline - time.monotonic() < 1.5 * seconds + 20:
            raise RuntimeError(f"e2e_bench stalled {stalled} times")
        log(f"e2e_bench stalled (attempt {stalled}); starting it again")
    if proc.returncode != 0:
        raise RuntimeError(f"e2e_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    record = json.loads(lines[-2])
    record["run_record"]["stalled_attempts"] = stalled
    lines[-2] = json.dumps(record)
    return lines, result


def run_once(out, workload, seed, seconds, trace, tiny, timeout):
    """One e2e_bench process; returns its CompletedProcess."""
    cmd = [str(out / "e2e_bench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-dir", str(spans)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("KERA_BROKER_SHARDS", "KERA_RECOVERY_PARALLELISM")}
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=env, timeout=max(1.0, timeout))


def spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}


def selfcheck(out):
    test = subprocess.run([str(out / "record_check_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    ok = test.returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_bench(out, workload, 1, 1, trace, tiny=True)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (result["correct"] and result["failed"] == 0 and
                    units == expected_metrics(trace))
            log(f"selfcheck {workload} trace={trace}: "
                f"{'ok' if good else 'FAILED'} "
                f"({result['attempted']} checked, {result['failed']} failed)")
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        out = build()
        if args.selfcheck:
            return 0 if selfcheck(out) else 1
        lines, _ = run_bench(out, args.workload, args.seed, args.seconds,
                             args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError,
            IndexError, KeyError) as e:
        log(str(e))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
