"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload eval-ml100k --seed 3 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Human-readable lines (run metadata, the named workload
metrics, failures) come first; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer split from a
separate traced run, whose spans are also written under `.perfbench_traces/`.

`--record` stores this commit's outputs for the seed under
`perfbench/reference/`; later runs with that seed must reproduce them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import logging
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*"))
    for lib in libs:
        if "openblas" not in os.path.basename(lib):
            continue
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run_metadata(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": args.shape,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')}/{blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-ml100k", "eval-ml100k", "predict-ml1m"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "toy"), default="full",
                        help="toy shapes exist for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="store this commit's outputs for the seed as the reference")
    args = parser.parse_args(argv)
    if args.record and args.shape != "full":
        parser.error("--record stores references for the full shapes only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cvrec" / "__init__.py").exists():
        print(f"perfbench: no cvrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    # Read by numpy at import. With huge-page advice on, the page-fault cost
    # of predict's 3 GB of scoring temporaries swings about 20% from run to
    # run (direct compaction on fault); with it off, calls are slower but
    # steadier. Every run and every commit gets the same setting.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    import stats
    import workloads as wl
    from tracer import Tracer, wrapper_cost_s

    shape = wl.SHAPES[args.shape][args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, ctx = [], None
        for i in range(SETUP_REPEATS):
            target = workdir / f"setup{i}"
            target.mkdir(parents=True)
            t0 = time.perf_counter()
            built = wl.SETUP[args.workload](shape, args.seed, target)
            setup_s.append(time.perf_counter() - t0)
            if ctx is None:
                ctx = built
            else:
                del built
                shutil.rmtree(target)

        ctx["reference"] = (wl.load_reference(args.workload, args.seed)
                            if args.shape == "full" else None)
        if args.record:
            entry = wl.RECORD[args.workload](ctx, args.seed)
            wl.save_reference(args.workload, args.seed, entry)
            print(f"recorded {args.workload} seed {args.seed}")
            return 0

        outcome = wl.Outcome()
        if args.workload in wl.WARM:
            wl.WARM[args.workload](ctx, args.seed, outcome)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            wl.install_tracing(tracer, ctx)
        try:
            wl.MEASURE[args.workload](ctx, args.seed, args.seconds, outcome)
        finally:
            if tracer is not None:
                tracer.restore()
        if args.workload in wl.CHECK:
            wl.CHECK[args.workload](ctx, args.seed, outcome)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if tracer is None:
            values = {"setup_s": stats.median(setup_s), "peak_rss_mb": peak_mb}
            if outcome.op_ms and outcome.busy_s > 0:
                values.update(outcome.end_to_end())
            metrics = {m: {"value": values[m], "unit": u}
                       for m, u in wl.END_TO_END.items() if m in values}
        else:
            layers = wl.layer_metrics(tracer, outcome, wrapper_cost_s())
            metrics = {m: {"value": v, "unit": u} for m, (v, u) in layers.items()}
            traces = ROOT / ".perfbench_traces"
            traces.mkdir(exist_ok=True)
            tracer.dump(traces / f"{args.workload}-seed{args.seed}.json",
                        {**run_metadata(args), "ops": outcome.ops})

        meta = run_metadata(args)
        print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
        for name, (value, unit) in outcome.report.items():
            print(f"{name} {value:.6g} {unit}")
        if outcome.ops:
            # wall time per operation, comparable with a traced run's
            # trace.traced_ms_per_op to measure the tracing overhead
            print(f"busy_ms_per_op {1000 * outcome.busy_s / outcome.ops:.6g} ms")
        error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
        print(f"error_rate {error_rate:.6g} share")
        for problem in outcome.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed if outcome.attempted else 1,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
