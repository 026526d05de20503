"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads eval-ml100k --seeds 0-9
    python3 perfbench/spread.py --seeds 0-9 --trace-seed 0 \\
        --out perfbench/results/BENCH_baseline.json

For every end-to-end metric it prints the median, the quartiles and the
distance between the quartiles as a share of the median, next to the
bound from BENCHMARK.json. With --trace-seed it adds each workload's
per-layer split from a traced run, and the measured tracing overhead: the
traced minus the untraced time per operation, over alternating run pairs,
with its range and the run-to-run spread it has to stand out from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    out = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "wall_s": time.perf_counter() - t0,
           "metrics": {m: v["value"] for m, v in result["metrics"].items()}}
    for line in lines[:-1]:
        if line.startswith("# "):
            out["meta"] = dict(kv.split("=", 1) for kv in line[2:].split())
        else:
            name, value, unit = line.split()
            out.setdefault("report", {})[name] = [float(value), unit]
    return out


def summarize(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for metric, bound in bounds.items():
        values = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "rel_iqr": stats.relative_iqr(values), "bound": bound}
    return summary


def traced_split(workload: str, seed: int, seconds: int, pairs: int) -> dict:
    """Per-layer split of one traced run, and the measured tracing overhead:
    the traced minus the untraced time per operation over `pairs`
    alternating traced/untraced runs of one seed. It counts as resolved
    only when its median is larger than the spread of the untraced runs
    themselves; otherwise it is lost in run-to-run noise."""
    traced, untraced = [], []
    first = None
    for k in range(pairs):
        order = (1, 0) if k % 2 == 0 else (0, 1)
        got = {t: run_once(workload, seed, seconds, t) for t in order}
        first = first or got[1]
        traced.append(got[1]["metrics"]["trace.traced_ms_per_op"])
        untraced.append(got[0]["report"]["busy_ms_per_op"][0])
    diffs = [t - u for t, u in zip(traced, untraced)]
    median = statistics.median(diffs)
    noise = max(untraced) - min(untraced)
    overhead = {
        "measured_ms_per_op": median,
        "measured_min_ms_per_op": min(diffs),
        "measured_max_ms_per_op": max(diffs),
        "measured_share_of_op": median / statistics.median(untraced),
        "pairs_traced_ms_per_op": traced,
        "pairs_untraced_ms_per_op": untraced,
        "untraced_range_ms_per_op": noise,
        "resolved": abs(median) > noise,
        "estimated_ms_per_op": first["metrics"]["trace.overhead_ms_per_op_estimated"],
    }
    print(f"  traced seed {seed}: tracing overhead {median:.4g} ms/op measured "
          f"(median of {pairs} pairs, range {min(diffs):.4g} to {max(diffs):.4g}; "
          f"untraced runs span {noise:.4g} ms/op, so "
          f"{'resolved' if overhead['resolved'] else 'within noise'}); "
          f"estimated from span counts {overhead['estimated_ms_per_op']:.3g} ms/op")
    return {**first, "tracing_overhead": overhead}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--trace-pairs", type=int, default=5)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in parse_seeds(args.seeds)]
        entry = {"runs": runs, "summary": summarize(runs, bounds)}
        report["meta"] = {k: v for k, v in runs[0]["meta"].items()
                          if k not in ("workload", "seed", "trace")}
        print(f"{workload}: {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} attempted over {len(runs)} runs")
        for metric, s in entry["summary"].items():
            flag = "" if metric == "setup_s" or s["rel_iqr"] <= s["bound"] / 3 else "  WIDE"
            print(f"  {metric:14s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['rel_iqr']:.4f} (bound {s['bound']}){flag}")
        if args.trace_seed is not None:
            entry["traced"] = traced_split(workload, args.trace_seed, args.seconds,
                                           args.trace_pairs)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
