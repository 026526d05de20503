"""The benchmark's three workloads, driven through cvrec's public API and CLI.

Every workload is a closed loop with one client: each operation starts
when the previous one has returned.

- train-ml100k: `train.fit` for one epoch with the default `TrainConfig`
  on a 943 x 1682 block dataset. The positive count is sized so that one
  epoch, validation included, fits a 25 s run at the seed commit.
  Operation: one training step.
- eval-ml100k: rounds of one `evaluate.evaluate` call (leave-one-out,
  99 negatives, S=128) over a fixed 48-case subset and one
  `evaluate.evaluate_cold(mode="user")` call over a fixed 24-case subset,
  each call scoring its whole subset as the CLI and validation do, on a
  943 x 1682 dataset with about 66k positives, scored by a seeded,
  untrained `build_model`. Operation: one evaluation case.
- predict-ml1m: in-process `cli.main(["predict", ...])` calls for a fixed
  user list on a 6040 x 3706 dataset with about 574k positives, each
  scoring every unseen item. Operation: one `cvrec predict` call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cvrec import autodiff, cli, data, evaluate, model, predict, synthetic, train

import stats
from tracer import Tracer

WORKLOADS = ("train-ml100k", "eval-ml100k", "predict-ml1m")
NETWORKS = ("prior_user", "prior_item", "inf_user", "inf_item",
            "dec_user", "dec_item", "interact")
EVAL_SAMPLES = 128
TOPK = 10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# name -> unit; every run reports all of them (0 for a layer that the
# workload does not exercise)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "pairs_per_s": "pairs/s",
}
PER_LAYER = {
    "train.step.p50_ms": "ms",
    "train.step.tail_ms": "ms",
    "data.sample_minibatch.ms": "ms",
    "train.assemble_batch.ms": "ms",
    **{f"model.forward.{n}.ms": "ms" for n in NETWORKS},
    "model.loss_terms.ms": "ms",
    "model.batch_objective.self_ms": "ms",
    "autodiff.backward.ms": "ms",
    "train.clip_gradients.ms": "ms",
    "train.adam_step.ms": "ms",
    "evaluate.validation_hr_ndcg.ms_per_epoch": "ms",
    "evaluate.validation_hr_ndcg.self_ms": "ms",
    "train.fit.self_ms_per_epoch": "ms",
    "autodiff.graph_nodes": "count",
    "autodiff.graph_mb": "MB",
    "train.adam_step.param_elems": "count",
    "train.adam_step.computed_mb_moved": "MB",
    "predict.item_posterior.ms_per_call": "ms",
    "predict.item_posterior.ms": "ms",
    "predict.user_posterior.ms": "ms",
    "predict.user_prior_params.ms": "ms",
    "predict.score_candidates.self_ms": "ms",
    **{f"model.forward_values.{n}.ms": "ms" for n in NETWORKS},
    "predict.rank_of_target.ms": "ms",
    "model.forward_values.interact.rows_per_case": "count",
    "evaluate.score_calls_per_case": "count",
    "evaluate.evaluate_cold.score_calls_per_case": "count",
    "evaluate.evaluate.self_ms": "ms",
    "evaluate.evaluate_cold.self_ms": "ms",
    "data.load_dataset.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "predict.rank.self_ms": "ms",
    "predict.order_by_score.ms": "ms",
    "cli.cmd_predict.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "model.forward_values.interact.rows_per_call": "count",
    "trace.traced_ms_per_op": "ms",
    "trace.spans_per_op": "count",
    "trace.overhead_ms_per_op_estimated": "ms",
    "trace.absent_layers": "count",
}


@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    n_blocks: int
    density: float
    noise: float
    feat_dim: int = 24
    n_negatives: int = 99
    loo_cases: int = 48
    cold_cases: int = 24
    users: int = 6

    def dataset(self, seed: int) -> data.Dataset:
        return synthetic.block_dataset(
            self.n_users, self.n_items, n_blocks=self.n_blocks,
            density=self.density, noise=self.noise, feat_dim=self.feat_dim,
            seed=seed, n_negatives=self.n_negatives,
        )


SHAPES = {
    "full": {
        "train-ml100k": Shape(943, 1682, 8, 0.011, 0.0002),
        "eval-ml100k": Shape(943, 1682, 8, 0.3, 0.005),
        "predict-ml1m": Shape(6040, 3706, 10, 0.22, 0.004),
    },
    # for the benchmark's own tests: every code path in seconds
    "toy": {
        "train-ml100k": Shape(40, 60, 2, 0.25, 0.02),
        "eval-ml100k": Shape(40, 60, 2, 0.5, 0.05, n_negatives=20,
                             loo_cases=8, cold_cases=6),
        "predict-ml1m": Shape(50, 80, 2, 0.5, 0.05, n_negatives=20, users=3),
    },
}


@dataclass
class Outcome:
    """What one measured run did: operations, failures and raw timings."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ops: int = 0
    epochs: int = 0
    op_ms: list[float] = field(default_factory=list)
    pairs: float = 0.0
    busy_s: float = 0.0
    step_ms: list[float] = field(default_factory=list)
    loo_cases: int = 0
    cold_cases: int = 0
    calls: int = 0
    report: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, n_ops: int, message: str) -> None:
        self.failed += n_ops
        self.problems.append(message)

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_ms_p50": stats.median(self.op_ms),
            "op_ms_tail": stats.tail(self.op_ms),
            "pairs_per_s": self.pairs / self.busy_s,
        }


def load_reference(workload: str, seed: int):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def save_reference(workload: str, seed: int, entry) -> None:
    path = REFERENCE_DIR / f"{workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[str(seed)] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")


def _guarded(outcome: Outcome, n_ops: int, label: str, fn, *args, **kwargs):
    """Run one operation; an exception counts its n_ops as failed."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the run keeps going and reports the failure
        outcome.fail(n_ops, f"{label} raised:\n{traceback.format_exc()}")
        return None


class StepClock:
    """Timestamps the start of every training step at `train.sample_minibatch`.

    A timestamp shim costs well under a microsecond against a step of about
    120 ms, so it is kept in untraced runs too. Without that name the steps
    cannot be timed, and `found` is False.
    """

    def __init__(self):
        self.passes: list[list[float]] = []
        self._fn = getattr(train, "sample_minibatch", None)
        self.found = callable(self._fn)

    def __enter__(self):
        if self.found:
            fn, stamps = self._fn, self.passes

            def stamped(*args, **kwargs):
                stamps[-1].append(time.perf_counter())
                return fn(*args, **kwargs)

            train.sample_minibatch = stamped
        return self

    def __exit__(self, *exc):
        if self.found:
            train.sample_minibatch = self._fn
        return False

    def new_pass(self) -> None:
        self.passes.append([])

    def step_ms(self) -> list[float]:
        """Start-to-start intervals; each pass's last step has no successor."""
        return [1000 * (b - a) for stamps in self.passes for a, b in zip(stamps, stamps[1:])]


# ---------------------------------------------------------------------------
# train-ml100k


def train_config(seed: int) -> train.TrainConfig:
    return train.TrainConfig(max_epochs=1, seed=seed)


def setup_train(shape: Shape, seed: int, workdir: Path) -> dict:
    dataset = shape.dataset(seed)
    data.save_dataset(dataset, workdir / "cache.npz")
    return {"dataset": dataset}


def measure_train(ctx: dict, seed: int, seconds: float, outcome: Outcome) -> None:
    dataset = ctx["dataset"]
    config = train_config(seed)
    expected = math.ceil(dataset.train.n_positives / config.batch_positives)
    pairs_per_step = config.batch_positives * (1 + config.neg_ratio)
    reference = ctx["reference"]
    epoch_s, losses = [], []
    start = time.perf_counter()
    with StepClock() as clock:
        if not clock.found:
            outcome.attempted += expected
            outcome.fail(expected, "train.sample_minibatch is gone: steps cannot be timed")
            return
        while True:
            clock.new_pass()
            t0 = time.perf_counter()
            result = _guarded(outcome, expected, "train.fit", train.fit, dataset, config)
            wall = time.perf_counter() - t0
            outcome.attempted += expected
            outcome.epochs += 1
            epoch_s.append(wall)
            if result is not None:
                outcome.ops += result.steps
                outcome.pairs += result.steps * pairs_per_step
                outcome.busy_s += wall
                losses.append(_check_train(result, expected, reference, outcome))
            elapsed = time.perf_counter() - start
            if elapsed + wall > seconds:
                break
    outcome.step_ms = outcome.op_ms = clock.step_ms()
    outcome.report["epoch_s"] = (stats.median(epoch_s), "s")
    if losses and losses[0] is not None:
        outcome.report["train_loss"] = (losses[0], "nats/pair")


def _check_train(result, expected: int, reference, outcome: Outcome):
    history = getattr(result, "history", None) or [{}]
    loss = history[0].get("loss")
    if loss is None or not math.isfinite(loss):
        outcome.fail(expected, f"epoch loss is not finite: {loss!r}")
        return None
    if result.steps != expected:
        outcome.fail(expected, f"epoch ran {result.steps} steps, expected {expected}")
    elif reference is not None and not math.isclose(loss, reference["loss"], rel_tol=1e-6):
        outcome.fail(expected, f"epoch loss {loss!r} != recorded {reference['loss']!r}")
    return loss


def record_train(ctx: dict, seed: int) -> dict:
    result = train.fit(ctx["dataset"], train_config(seed))
    return {"steps": result.steps, "loss": result.history[0]["loss"]}


# ---------------------------------------------------------------------------
# eval-ml100k


def setup_eval(shape: Shape, seed: int, workdir: Path) -> dict:
    dataset = shape.dataset(seed)
    split = data.make_cold_split(dataset.interactions, dataset.side, mode="user", seed=seed)
    dims = model.ModelDims(
        n_users=dataset.n_users, n_items=dataset.n_items,
        user_feat_dim=dataset.side.user_dim, item_feat_dim=dataset.side.item_dim,
        latent_dim=train.TrainConfig.latent_dim,
    )
    net = model.build_model(dims, np.random.default_rng(seed))
    data.save_dataset(dataset, workdir / "cache.npz")
    model.save_checkpoint(net, workdir / "model.npz", seed=seed)
    rng = np.random.default_rng([seed, 2])

    def subset(cases, n):
        return [cases[i] for i in sorted(rng.choice(len(cases), min(n, len(cases)),
                                                    replace=False))]

    return {
        "dataset": dataset, "split": split, "model": net, "shape": shape,
        "loo": subset(dataset.eval_cases, shape.loo_cases),
        "cold": subset(split.test_cases, shape.cold_cases),
        "cache": workdir / "cache.npz", "ckpt": workdir / "model.npz",
        "workdir": workdir,
    }


def _ks(cases) -> tuple[int, ...]:
    return tuple(range(1, 2 + max(len(c.negatives) for c in cases)))


def ranks_of(report, ks) -> list[int]:
    """Sorted per-case ranks, recovered from HR@k at every possible k."""
    n = report.n_cases
    ranks, below = [], 0
    for k in ks:
        hits = round(report.hr[k] * n)
        ranks += [k] * (hits - below)
        below = hits
    return ranks


def _eval_loo(ctx, cases, ks, seed):
    return evaluate.evaluate(ctx["model"], ctx["dataset"], ks=ks, n_samples=EVAL_SAMPLES,
                             seed=seed, cases=cases)


def _eval_cold(ctx, cases, ks, seed):
    split = dataclasses.replace(ctx["split"], test_cases=cases)
    return evaluate.evaluate_cold(ctx["model"], ctx["dataset"], split, mode="user", ks=ks,
                                  n_samples=EVAL_SAMPLES, seed=seed)


def measure_eval(ctx: dict, seed: int, seconds: float, outcome: Outcome) -> None:
    """Rounds of one `evaluate` call over the whole leave-one-out subset and
    one `evaluate_cold` call over the whole cold subset. Each round adds one
    time per case, over both calls, to `op_ms`."""
    loo, cold = ctx["loo"], ctx["cold"]
    ks = _ks(loo + cold)
    done = ctx.setdefault("done", {"loo": [], "cold": []})  # (case indices, report)
    pairs = sum(1 + len(c.negatives) for c in loo + cold)
    loo_s = cold_s = 0.0
    start = time.perf_counter()
    while not outcome.op_ms or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        report = _guarded(outcome, len(loo), "evaluate", _eval_loo, ctx, loo, ks, seed)
        t1 = time.perf_counter()
        done["loo"].append((range(len(loo)), report))
        report = _guarded(outcome, len(cold), "evaluate_cold", _eval_cold, ctx, cold, ks, seed)
        t2 = time.perf_counter()
        done["cold"].append((range(len(cold)), report))
        loo_s += t1 - t0
        cold_s += t2 - t1
        outcome.op_ms.append(1000 * (t2 - t0) / (len(loo) + len(cold)))
        outcome.loo_cases += len(loo)
        outcome.cold_cases += len(cold)
        outcome.pairs += pairs
    outcome.ops = outcome.loo_cases + outcome.cold_cases
    outcome.attempted += outcome.ops
    outcome.busy_s = loo_s + cold_s
    outcome.report["eval_cases_per_s"] = (outcome.loo_cases / loo_s, "cases/s")
    outcome.report["eval_cold_cases_per_s"] = (outcome.cold_cases / cold_s, "cases/s")


WARM_CASES = 4


def warm_eval(ctx: dict, seed: int, outcome: Outcome) -> None:
    """One untimed, untraced, checked call of each kind on a few cases: the
    lazily built CSR views of the training matrices and first-touch
    allocations land here."""
    loo, cold, ks = ctx["loo"], ctx["cold"], _ks(ctx["loo"] + ctx["cold"])
    done = ctx.setdefault("done", {"loo": [], "cold": []})
    for kind, run, pool in (("loo", _eval_loo, loo), ("cold", _eval_cold, cold)):
        idx = range(min(WARM_CASES, len(pool)))
        cases = [pool[j] for j in idx]
        done[kind].append((idx, _guarded(outcome, len(idx), kind, run, ctx, cases, ks, seed)))
        outcome.attempted += len(idx)


def check_eval(ctx: dict, seed: int, outcome: Outcome) -> None:
    """Ranks against the recorded reference, and a few cases evaluated alone."""
    loo, cold, ks = ctx["loo"], ctx["cold"], _ks(ctx["loo"] + ctx["cold"])
    reference = ctx["reference"]
    for kind in ("loo", "cold"):
        for idx, report in ctx["done"][kind]:
            if report is None:
                continue
            full = report.sections.get("all", report) if kind == "cold" else report
            want = sorted(reference[kind][j] for j in idx) if reference else None
            _check_ranks(outcome, f"{kind} call over {len(idx)} cases", ranks_of(full, ks),
                         want, len(idx))

    # evaluated alone, through the API and through `cvrec predict --items`,
    # against the same case in a call over the whole subset
    whole = next((r for idx, r in ctx["done"]["loo"] if len(idx) == len(loo)), None)
    rng = np.random.default_rng([seed, 4])
    for j in rng.choice(len(loo), size=min(3, len(loo)), replace=False):
        case = loo[j]
        alone = _guarded(outcome, 1, "evaluate alone", _eval_loo, ctx, [case], ks, seed)
        listed = _guarded(outcome, 1, "predict --items", _predict_items, ctx, case, seed)
        if alone is None or listed is None:
            continue
        rank_alone = ranks_of(alone, ks)[0]
        rank_cli, scores = listed
        if not all(0.0 < s < 1.0 for s in scores):
            outcome.fail(1, f"case {j}: a score lies outside (0, 1)")
        if rank_cli != rank_alone:
            outcome.fail(1, f"case {j}: predict ranks the target {rank_cli}, "
                            f"evaluate alone {rank_alone}")
        if reference is not None and reference["loo"][j] != rank_alone:
            outcome.fail(1, f"case {j}: rank alone {rank_alone} != recorded "
                            f"{reference['loo'][j]}")
        if whole is not None and rank_alone not in ranks_of(whole, ks):
            outcome.fail(1, f"case {j}: rank alone {rank_alone} missing from the whole call")


def _check_ranks(outcome, label, got, want, n_cases) -> None:
    if len(got) != n_cases:
        outcome.fail(n_cases, f"{label}: {len(got)} ranks for {n_cases} cases")
    elif want is not None and got != want:
        outcome.fail(n_cases, f"{label}: ranks {got} != recorded {want}")


def _predict_items(ctx: dict, case, seed: int):
    cands = np.concatenate([[case.target], case.negatives]).astype(int)
    rows = _cli_predict(ctx["cache"], ctx["ckpt"], case.user, ctx["workdir"] / "items.csv",
                        seed, ["--items", ",".join(map(str, cands)),
                               "--samples", str(EVAL_SAMPLES)])
    rank = next(r for item, _, r in rows if item == case.target)
    return rank, [s for _, s, _ in rows]


def record_eval(ctx: dict, seed: int) -> dict:
    ks = _ks(ctx["loo"] + ctx["cold"])
    return {
        "loo": [ranks_of(_eval_loo(ctx, [c], ks, seed), ks)[0] for c in ctx["loo"]],
        "cold": [ranks_of(_eval_cold(ctx, [c], ks, seed), ks)[0] for c in ctx["cold"]],
    }


# ---------------------------------------------------------------------------
# predict-ml1m


def setup_predict(shape: Shape, seed: int, workdir: Path) -> dict:
    dataset = shape.dataset(seed)
    dims = model.ModelDims(
        n_users=dataset.n_users, n_items=dataset.n_items,
        user_feat_dim=dataset.side.user_dim, item_feat_dim=dataset.side.item_dim,
        latent_dim=train.TrainConfig.latent_dim,
    )
    net = model.build_model(dims, np.random.default_rng(seed))
    data.save_dataset(dataset, workdir / "cache.npz")
    model.save_checkpoint(net, workdir / "model.npz", seed=seed)
    users = sorted(int(u) for u in np.random.default_rng([seed, 3]).choice(
        dataset.n_users, size=shape.users, replace=False))
    return {
        "users": users,
        "seen": {u: set(dataset.train.user_items[u].tolist()) for u in users},
        "n_items": dataset.n_items,
        "cache": workdir / "cache.npz", "ckpt": workdir / "model.npz",
        "workdir": workdir,
    }


def _cli_predict(cache, ckpt, user: int, out: Path, seed: int, extra=()):
    argv = ["predict", "--data", str(cache), "--ckpt", str(ckpt), "--user", str(user),
            "--seed", str(seed), "--out", str(out), *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cvrec predict exited with {code}")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(int(r["item"]), float(r["score"]), int(r["rank"])) for r in rows]


def measure_predict(ctx: dict, seed: int, seconds: float, outcome: Outcome) -> None:
    users = ctx["users"]
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        user = users[i % len(users)]
        dt = _predict_checked(ctx, user, seed, outcome)
        outcome.op_ms.append(1000 * dt)
        outcome.pairs += ctx["n_items"] - len(ctx["seen"][user])
        outcome.busy_s += dt
        outcome.calls += 1
        i += 1
    outcome.ops = outcome.calls
    outcome.report["predict_ms_p50"] = (stats.median(outcome.op_ms), "ms")
    outcome.report["predict_ms_max"] = (max(outcome.op_ms), "ms")
    outcome.report["predict_rows_per_s"] = (outcome.pairs / outcome.busy_s, "items/s")


def _predict_checked(ctx: dict, user: int, seed: int, outcome: Outcome) -> float:
    """One checked `cvrec predict --topk` call; returns its wall time."""
    t0 = time.perf_counter()
    rows = _guarded(outcome, 1, f"predict --user {user}", _cli_predict, ctx["cache"],
                    ctx["ckpt"], user, ctx["workdir"] / "top.csv", seed, ["--topk", str(TOPK)])
    dt = time.perf_counter() - t0
    outcome.attempted += 1
    if rows is not None:
        want = ctx["reference"].get(str(user)) if ctx["reference"] else None
        _check_top(outcome, user, rows, ctx["seen"][user], ctx["n_items"], want)
    return dt


def warm_predict(ctx: dict, seed: int, outcome: Outcome) -> None:
    """The first call in a process runs about a third slower; it is checked
    but neither timed nor traced."""
    _predict_checked(ctx, ctx["users"][-1], seed, outcome)


def _check_top(outcome, user, rows, seen, n_items, want) -> None:
    problems = []
    items = [item for item, _, _ in rows]
    scores = [score for _, score, _ in rows]
    if len(rows) != TOPK:
        problems.append(f"{len(rows)} rows, expected {TOPK}")
    if [r for _, _, r in rows] != list(range(1, len(rows) + 1)):
        problems.append("ranks are not 1..k")
    if any(j in seen or not 0 <= j < n_items for j in items):
        problems.append("a listed item is seen or out of range")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores are not in descending order")
    if want is not None and (
            items != [j for j, _ in want]
            or any(abs(s - w) > 1.5e-6 for s, (_, w) in zip(scores, want))):
        problems.append(f"top-{TOPK} {rows} != recorded {want}")
    if problems:
        outcome.fail(1, f"predict --user {user}: " + "; ".join(problems))


def record_predict(ctx: dict, seed: int) -> dict:
    out = ctx["workdir"] / "top.csv"
    return {
        str(u): [[j, s] for j, s, _ in _cli_predict(ctx["cache"], ctx["ckpt"], u, out, seed,
                                                     ["--topk", str(TOPK)])]
        for u in ctx["users"]
    }


SETUP = {"train-ml100k": setup_train, "eval-ml100k": setup_eval,
         "predict-ml1m": setup_predict}
MEASURE = {"train-ml100k": measure_train, "eval-ml100k": measure_eval,
           "predict-ml1m": measure_predict}
WARM = {"eval-ml100k": warm_eval, "predict-ml1m": warm_predict}
CHECK = {"eval-ml100k": check_eval}
RECORD = {"train-ml100k": record_train, "eval-ml100k": record_eval,
          "predict-ml1m": record_predict}


# ---------------------------------------------------------------------------
# traced run


def install_tracing(tracer: Tracer, ctx: dict) -> None:
    """Wrap every layer's public functions where their callers look them up."""
    def graph_count(args, kwargs):
        if "autodiff.graph_nodes" in tracer.counts:
            return
        with tracer.span("trace.bookkeeping"):
            seen, stack, nbytes = set(), [args[0]], 0
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                nbytes += node.value.nbytes
                stack.extend(node.parents)
            tracer.count("autodiff.graph_nodes", len(seen))
            tracer.count("autodiff.graph_mb", nbytes / 1e6)

    def adam_count(args, kwargs, result):
        if "train.adam_step.param_elems" in tracer.counts:
            return
        with tracer.span("trace.bookkeeping"):
            params, state = args[0], args[1]
            moments = [*getattr(state, "m", {}).values(), *getattr(state, "v", {}).values()]
            # read p, g, m, v and write p, m, v: the least traffic of one update
            moved = sum(2 * p.value.nbytes + (p.grad.nbytes if p.grad is not None else 0)
                        for p in params.values()) + 2 * sum(a.nbytes for a in moments)
            tracer.count("train.adam_step.param_elems",
                         sum(p.value.size for p in params.values()))
            tracer.count("train.adam_step.computed_mb_moved", moved / 1e6)

    def instrument(args, kwargs, built):
        instrument_model(tracer, built)

    w = tracer.wrap
    w(train, "fit", "train.fit")
    w(train, "sample_minibatch", "data.sample_minibatch")
    w(train, "assemble_batch", "train.assemble_batch")
    w(model, "batch_objective", "model.batch_objective")
    w(model, "bernoulli_loglik", "model.loss_terms")
    w(model, "kl_diag", "model.loss_terms")
    w(autodiff, "backward", "autodiff.backward", before=graph_count)
    w(train, "clip_gradients", "train.clip_gradients")
    w(train, "adam_step", "train.adam_step", after=adam_count)
    w(evaluate, "validation_hr_ndcg", "evaluate.validation_hr_ndcg")
    w(evaluate, "evaluate", "evaluate.evaluate")
    w(evaluate, "evaluate_cold", "evaluate.evaluate_cold")
    for name in ("item_posterior", "user_posterior", "user_prior_params",
                 "score_candidates", "rank_of_target", "rank", "order_by_score"):
        w(predict, name, f"predict.{name}")
    w(cli, "main", "cli.main")
    w(cli, "cmd_predict", "cli.cmd_predict")
    w(data, "load_dataset", "data.load_dataset")
    w(model, "load_checkpoint", "model.load_checkpoint")
    # models built inside fit and load_checkpoint get their networks wrapped
    w(model, "build_model", "model.build_model", after=instrument, span=False)
    if "model" in ctx:
        instrument_model(tracer, ctx["model"])


def instrument_model(tracer: Tracer, built) -> None:
    def count_rows(args, kwargs):
        tracer.count(f"interact_rows:{tracer.root_name()}", np.shape(args[0])[0])

    for name in NETWORKS:
        net = getattr(built, name, None)
        if net is None:
            tracer.mark_absent(f"model.{name}")
            continue
        tracer.wrap(net, "forward", f"model.forward.{name}")
        tracer.wrap(net, "forward_values", f"model.forward_values.{name}",
                    before=count_rows if name == "interact" else None)


def layer_metrics(tracer: Tracer, outcome: Outcome, overhead_per_span_s: float) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls()
    ops = max(outcome.ops, 1)

    def per_op(name):
        return 1000 * self_s.get(name, 0.0) / ops

    def per_call(name):
        return 1000 * self_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    under = tracer.calls_under_roots()
    epochs = max(outcome.epochs, 1)
    step = outcome.step_ms
    validation = sum(s.end - s.start for s in tracer.spans
                     if s.name == "evaluate.validation_hr_ndcg")
    bookkeeping = self_s.get("trace.bookkeeping", 0.0)
    values = {
        "train.step.p50_ms": stats.median(step) if step else 0.0,
        "train.step.tail_ms": stats.tail(step) if step else 0.0,
        "evaluate.validation_hr_ndcg.ms_per_epoch": 1000 * validation / epochs,
        "train.fit.self_ms_per_epoch": 1000 * self_s.get("train.fit", 0.0) / epochs,
        "autodiff.graph_nodes": tracer.counts.get("autodiff.graph_nodes", 0.0),
        "autodiff.graph_mb": tracer.counts.get("autodiff.graph_mb", 0.0),
        "train.adam_step.param_elems": tracer.counts.get("train.adam_step.param_elems", 0.0),
        "train.adam_step.computed_mb_moved":
            tracer.counts.get("train.adam_step.computed_mb_moved", 0.0),
        "predict.item_posterior.ms_per_call": per_call("predict.item_posterior"),
        "model.forward_values.interact.rows_per_case": ratio(
            tracer.counts.get("interact_rows:evaluate.evaluate", 0.0), outcome.loo_cases),
        "model.forward_values.interact.rows_per_call": ratio(
            tracer.counts.get("interact_rows:cli.main", 0.0), outcome.calls),
        "evaluate.score_calls_per_case": ratio(
            under.get(("evaluate.evaluate", "predict.score_candidates"), 0),
            outcome.loo_cases),
        "evaluate.evaluate_cold.score_calls_per_case": ratio(
            under.get(("evaluate.evaluate_cold", "predict.score_candidates"), 0),
            outcome.cold_cases),
        "trace.traced_ms_per_op": 1000 * tracer.root_time() / ops,
        "trace.spans_per_op": len(tracer.spans) / ops,
        "trace.overhead_ms_per_op_estimated":
            1000 * (len(tracer.spans) * overhead_per_span_s + bookkeeping) / ops,
        "trace.absent_layers": float(len(set(tracer.absent))),
    }
    for metric in PER_LAYER:
        if metric not in values:
            span = metric.rsplit(".", 1)[0]
            values[metric] = per_op(span)
    return {m: (values[m], PER_LAYER[m]) for m in PER_LAYER}
