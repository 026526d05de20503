import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == wl.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_toy_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--shape", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = wl.END_TO_END if trace == "0" else wl.PER_LAYER
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert all(isinstance(v, float) for v in values.values())
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert values["trace.absent_layers"] == 0
        assert values["trace.traced_ms_per_op"] > 0
    assert "error_rate 0 share" in proc.stdout


def test_checks_catch_wrong_ranks(tmp_path):
    shape = wl.SHAPES["toy"]["eval-ml100k"]
    ctx = wl.setup_eval(shape, 3, tmp_path)
    ctx["reference"] = {"loo": [1] * len(ctx["loo"]), "cold": [1] * len(ctx["cold"])}
    outcome = wl.Outcome()
    wl.measure_eval(ctx, 3, 0.0, outcome)
    wl.check_eval(ctx, 3, outcome)
    assert outcome.failed > 0
    assert any("recorded" in p for p in outcome.problems)


def test_checks_catch_bad_top_lists():
    seen, n_items = {4}, 20
    good = [(j, 0.9 - 0.01 * j, r) for r, j in enumerate(range(5, 15), start=1)]
    outcome = wl.Outcome()
    wl._check_top(outcome, 0, good, seen, n_items, None)
    assert outcome.failed == 0
    unsorted = good[::-1]
    with_seen = [(4, 0.95, 1)] + good[1:]
    short = good[:9]
    for rows in (unsorted, with_seen, short):
        wl._check_top(outcome, 0, rows, seen, n_items, None)
    assert outcome.failed == 3
    wl._check_top(outcome, 0, good, seen, n_items, [[j + 1, s] for j, s, _ in good])
    assert outcome.failed == 4


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "eval-ml100k", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_train_fails_without_the_step_hook(tmp_path, monkeypatch):
    ctx = wl.setup_train(wl.SHAPES["toy"]["train-ml100k"], 2, tmp_path)
    ctx["reference"] = None
    monkeypatch.delattr(wl.train, "sample_minibatch")
    outcome = wl.Outcome()
    wl.measure_train(ctx, 2, 0.0, outcome)
    assert outcome.failed == outcome.attempted > 0
    assert outcome.op_ms == []
