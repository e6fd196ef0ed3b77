#!/usr/bin/env python3
"""Runs alternated base/change pairs of the end-to-end benchmark and reports
each end-to-end metric by BENCHMARK.json's rules.

    python3 scripts/ab_pairs.py --base ../base --change . \\
        --workload ingest_r3 --pairs 10 --seed 101 --out ab.jsonl
    python3 scripts/ab_pairs.py --summarize ab.jsonl

Each side runs `e2ebench/run.py` from its own checkout with its own
CARGO_TARGET_DIR (<checkout>/.bench_build); both are built before the first
pair. Pair i runs every workload once per side with seed --seed + i, and
the side that runs first swaps every pair. Every run's result and run
record go to the JSONL file as one line, also when the run failed; the
report keys pairs by seed, so later invocations may append to the file.

The report gives, per workload and end-to-end metric, each side's median
and quartiles, scaled and as measured; the pairs the change won (ties
count for neither); and a verdict:
  gain         at least 10 pairs, the change won at least 9/10 of them and
               its median beats the base's by more than the base's
               interquartile range;
  worse        the change's median is worse than the base's by more than
               the metric's bound;
  unresolved   the base's own spread (IQR / median) exceeds the bound and
               not every change run beats every base run;
  within bound otherwise.
Traced runs (--trace 1) report the per-layer metrics with the ratio of the
medians instead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def log(msg):
    print(f"ab_pairs.py: {msg}", file=sys.stderr, flush=True)


def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def side_env(checkout):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(checkout / ".bench_build")
    return env


def build(checkout):
    """Builds one side's benchmark through run.py's own build step (-B:
    no bytecode cache is left under e2ebench/)."""
    code = ("import sys; sys.path.insert(0, 'e2ebench'); import run; "
            "run.build()")
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=checkout,
                          env=side_env(checkout), stdout=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"build failed in {checkout}")


def run_one(checkout, workload, seed, trace, seconds):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=side_env(checkout),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"ok": False, "error": f"run.py exited with {proc.returncode}"}
    return {"ok": True, "result": json.loads(lines[-1]),
            "run_record": json.loads(lines[-2])["run_record"]}


def run_pairs(args):
    checkouts = {"base": Path(args.base).resolve(),
                 "change": Path(args.change).resolve()}
    for side in SIDES:
        log(f"building {side} in {checkouts[side]}")
        build(checkouts[side])
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                for position, side in enumerate(order):
                    log(f"pair {pair} {workload} {side} seed {seed}")
                    row = {"pair": pair, "workload": workload, "side": side,
                           "seed": seed, "trace": args.trace,
                           "position": position}
                    row.update(run_one(checkouts[side], workload, seed,
                                       args.trace, args.seconds))
                    out.write(json.dumps(row) + "\n")
                    out.flush()


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(values):
    if not values:
        return "n/a"
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def paired(rows, value_of):
    """{seed: {side: value}} for the pairs where both sides have the value
    (a pair is keyed by its seed, so several invocations can share a file)."""
    by_pair = {}
    for row in rows:
        value = value_of(row)
        if value is not None:
            by_pair.setdefault(row["seed"], {})[row["side"]] = value
    return {p: v for p, v in by_pair.items() if len(v) == 2}


def won(pairs, better):
    sign = 1 if better == "higher" else -1
    return sum(sign * (v["change"] - v["base"]) > 0 for v in pairs.values())


def metric_value(name):
    def get(row):
        metric = row["result"]["metrics"].get(name)
        return None if metric is None else metric["value"]
    return get


def measured_value(name):
    return lambda row: row["run_record"].get("as_measured", {}).get(name)


def verdict(pairs, better, bound):
    base = [v["base"] for v in pairs.values()]
    change = [v["change"] for v in pairs.values()]
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    gain = sign * (statistics.median(change) - b_med)
    if (len(pairs) >= 10 and won(pairs, better) >= 0.9 * len(pairs) and
            gain > b_q3 - b_q1):
        return "gain"
    if b_med != 0 and -gain / abs(b_med) > bound:
        return "worse"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if b_med != 0 and (b_q3 - b_q1) / abs(b_med) > bound and not all_better:
        return "unresolved"
    return "within bound"


def clean_line(rows):
    parts = []
    for side in SIDES:
        mine = [r for r in rows if r["side"] == side]
        good = [r for r in mine if r["ok"]]
        failed = sum(r["result"]["failed"] for r in good)
        attempted = sum(r["result"]["attempted"] for r in good)
        stalled = sum(r["run_record"].get("stalled_attempts", 0)
                      for r in good)
        parts.append(f"{side}: {len(good)}/{len(mine)} runs ok, "
                     f"{failed}/{attempted} records failed, "
                     f"{stalled} stalled attempts")
    return "; ".join(parts)


def report(rows):
    bench = spec()
    groups = {}
    for row in rows:
        groups.setdefault((row["workload"], row["trace"]), []).append(row)
    for (workload, trace), group in sorted(groups.items()):
        ok = [r for r in group if r["ok"]]
        pairs_run = len({r["seed"] for r in group})
        print(f"== {workload} ({'traced' if trace else 'untraced'}), "
              f"{pairs_run} pairs")
        print(f"   {clean_line(group)}")
        print(f"   {'metric':<34}{'base median [q1, q3]':<32}"
              f"{'change median [q1, q3]':<32}{'ratio':>7}  won    verdict")
        metrics = bench["per_layer" if trace else "end_to_end"]
        for m in metrics:
            views = [(m["name"], metric_value(m["name"]))]
            if not trace:
                views.append(("  as_measured", measured_value(m["name"])))
            for label, value_of in views:
                pairs = paired(ok, value_of)
                if not pairs:
                    continue
                base = [v["base"] for v in pairs.values()]
                change = [v["change"] for v in pairs.values()]
                b_med = statistics.median(base)
                ratio = (statistics.median(change) / b_med
                         if b_med else float("nan"))
                call = "" if trace else verdict(pairs, m["better"], m["bound"])
                print(f"   {label:<34}{fmt(base):<32}{fmt(change):<32}"
                      f"{ratio:>7.3f}  {won(pairs, m['better']):>2}/"
                      f"{len(pairs):<2}  {call}")
        print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="checkout of the base commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec()["workloads"]],
                    help="repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=int,
                    help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSONL file the runs are appended to")
    ap.add_argument("--summarize", metavar="JSONL",
                    help="only print the report of saved runs")
    args = ap.parse_args()
    if not args.summarize:
        if not (args.base and args.change and args.out):
            ap.error("--base, --change and --out are required unless "
                     "--summarize")
        if not args.workload:
            args.workload = [w["name"] for w in spec()["workloads"]]
        try:
            run_pairs(args)
        except (RuntimeError, OSError) as e:
            log(str(e))
            return 1
    with open(args.summarize or args.out) as f:
        report([json.loads(line) for line in f if line.strip()])
    return 0


if __name__ == "__main__":
    sys.exit(main())
