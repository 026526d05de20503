"""Ranking metrics and evaluation protocols.

Each eval case ranks the held-out positive among itself plus its sampled
negatives. HR@k is a hit below rank k (inclusive); NDCG@k is the single-
relevant-item specialization 1/log2(rank + 1). Reports carry the seed and
a config fingerprint so numbers stay attributable to a run.

Leave-one-out (`evaluate`), cold-start (`evaluate_cold`) and the training
loop's validation score all their cases in one `predict.score_cases` call.
Each case has its user's posterior, from one pass over the users of all
warm-user cases (or, for a cold user, its side-information prior); the item
table is one all-items posterior pass, plus one row per cold target item
carrying its prior. That call works item-major in blocks bounded by
`predict.CASE_ROWS`, `ITEM_ROWS` and `SLOT_ROWS`: an item's samples and
first-layer half are computed once per block of cases, however many cases
share the item, by the worker threads that also score its slots. The
posterior and prior passes and that call run in one `blas.single_thread`
scope (see `blas` for why). Noise is keyed by (seed, side, entity id), so
given its Gaussians a case scores the same alone or in any batch (the batched
posterior passes may move the Gaussians themselves by rounding), and each
case is ranked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas, predict
from .data import ColdSplit, Dataset, EvalCase, InteractionMatrix, SideInfo
from .model import ModelParams

DEFAULT_KS = (5, 10)


def hr_at_k(rank: int, k: int) -> int:
    """1 if the target sits within the top k (rank k itself counts)."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return 1 if rank <= k else 0


def ndcg_at_k(rank: int, k: int) -> float:
    """1/log2(rank + 1) inside the top k, else 0 (ideal DCG is 1)."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return 1.0 / np.log2(rank + 1) if rank <= k else 0.0


@dataclass
class MetricReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_cases: int
    seed: int
    fingerprint: str = ""
    sections: dict[str, "MetricReport"] = field(default_factory=dict)

    def format_table(self) -> str:
        ks = sorted(self.hr)
        lines = [
            f"cases={self.n_cases} seed={self.seed} fingerprint={self.fingerprint or '-'}",
            "metric | " + " | ".join(f"k={k}" for k in ks),
            "HR     | " + " | ".join(f"{self.hr[k]:.4f}" for k in ks),
            "NDCG   | " + " | ".join(f"{self.ndcg[k]:.4f}" for k in ks),
        ]
        for name, sub in self.sections.items():
            lines.append(f"[{name}] cases={sub.n_cases} "
                         + " ".join(f"HR@{k}={sub.hr[k]:.4f} NDCG@{k}={sub.ndcg[k]:.4f}"
                                    for k in sorted(sub.hr)))
        return "\n".join(lines)

    def csv_rows(self, label: str = "all") -> list[dict]:
        rows = [
            {
                "section": label,
                "k": k,
                "hr": self.hr[k],
                "ndcg": self.ndcg[k],
                "cases": self.n_cases,
                "seed": self.seed,
                "fingerprint": self.fingerprint,
            }
            for k in sorted(self.hr)
        ]
        for name, sub in self.sections.items():
            rows.extend(sub.csv_rows(label=name))
        return rows

    def to_csv(self, path) -> None:
        rows = self.csv_rows()
        with open(path, "w") as fh:
            fh.write("section,k,hr,ndcg,cases,seed,fingerprint\n")
            for r in rows:
                fh.write(
                    f"{r['section']},{r['k']},{r['hr']:.6f},{r['ndcg']:.6f},"
                    f"{r['cases']},{r['seed']},{r['fingerprint']}\n"
                )


def _aggregate(ranks: list[int], ks, seed: int, fingerprint: str) -> MetricReport:
    if not ranks:
        raise ValueError("no evaluation cases")
    hr = {k: float(np.mean([hr_at_k(r, k) for r in ranks])) for k in ks}
    ndcg = {k: float(np.mean([ndcg_at_k(r, k) for r in ranks])) for k in ks}
    return MetricReport(hr, ndcg, len(ranks), seed, fingerprint)


def case_candidates(case: EvalCase) -> np.ndarray:
    return np.concatenate([[case.target], case.negatives]).astype(np.int64)


def _case_ranks(cases: list[EvalCase], scores) -> list[int]:
    """Rank of each case's target under its scores, in case order."""
    return [
        predict.rank_of_target(case_candidates(c), s, c.target)
        for c, s in zip(cases, scores)
    ]


def evaluate_ranker(cases: list[EvalCase], score_fn, ks=DEFAULT_KS, seed: int = 0,
                    fingerprint: str = "") -> MetricReport:
    """Generic protocol runner: score_fn(case) -> scores for target+negatives."""
    return _aggregate(_case_ranks(cases, map(score_fn, cases)), ks, seed, fingerprint)


def _score_cases(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                 cases: list[EvalCase], n_samples: int, seed: int,
                 split: ColdSplit | None = None) -> list[np.ndarray]:
    """Scores of every case's target and negatives, in one `score_cases` call.

    The item table holds one all-items posterior pass, and the users of the
    warm-user cases take one posterior pass between them. The cold side of a
    cold case of `split` takes its side-information prior instead: the
    user's, or the synthetic target item's, which is one more table row keyed
    by its id (the negatives stay on their warm posteriors).
    """
    if not cases:
        return []
    with blas.single_thread():
        item_mean, item_lv = predict.item_posterior(model, train, side,
                                                    np.arange(train.n_items))
        keys, means, lvs = list(range(train.n_items)), [item_mean], [item_lv]
        cold_mode = [split.mode if split is not None and c.cold else None
                     for c in cases]
        warm = [i for i, mode in enumerate(cold_mode) if mode != "user"]
        u_means = np.empty((len(cases), model.dims.latent_dim))
        u_lvs = np.empty_like(u_means)
        if warm:
            u_means[warm], u_lvs[warm] = predict.user_posterior(
                model, train, side, [cases[i].user for i in warm])
        case_rows = []
        for i, (case, cold) in enumerate(zip(cases, cold_mode)):
            if cold == "user":
                u_means[i], u_lvs[i] = predict.user_prior_params(
                    model, split.feature_row(side, case))
            rows = case_candidates(case)
            if cold == "item":
                t_mean, t_lv = predict.item_prior_params(
                    model, split.feature_row(side, case))
                rows[0] = len(keys)
                keys.append(case.target)
                means.append(t_mean)
                lvs.append(t_lv)
            case_rows.append(rows)
        return predict.score_cases(
            model, np.array(keys), np.vstack(means), np.vstack(lvs),
            u_means, u_lvs, [c.user for c in cases], case_rows,
            n_samples, seed,
        )


def evaluate(model: ModelParams, dataset: Dataset, ks=DEFAULT_KS,
             n_samples: int = predict.DEFAULT_SAMPLES, seed: int = 0,
             fingerprint: str = "",
             cases: list[EvalCase] | None = None,
             train: InteractionMatrix | None = None) -> MetricReport:
    """Leave-one-out evaluation of a trained model."""
    cases = dataset.eval_cases if cases is None else cases
    train = dataset.train if train is None else train
    scores = _score_cases(model, train, dataset.side, cases, n_samples, seed)
    return _aggregate(_case_ranks(cases, scores), ks, seed, fingerprint)


def validation_hr_ndcg(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                       cases: list[EvalCase], k: int = 5, n_samples: int = 32,
                       seed: int = 0) -> tuple[float, float]:
    """Lightweight HR@k/NDCG@k used by the training loop."""
    scores = _score_cases(model, train, side, cases, n_samples, seed)
    report = _aggregate(_case_ranks(cases, scores), (k,), seed, "")
    return report.hr[k], report.ndcg[k]


def evaluate_cold(model: ModelParams, dataset: Dataset, split: ColdSplit,
                  mode: str, ks=DEFAULT_KS, n_samples: int = predict.DEFAULT_SAMPLES,
                  seed: int = 0, fingerprint: str = "") -> MetricReport:
    """Cold-start evaluation over the split's test cases.

    Warm entities are scored through their posteriors on the split's
    training matrix; the cold side of a cold case is scored through its
    side-information prior. Each case is ranked once. The returned report
    covers the cold cases (matching how cold performance is quoted), or
    every case when none is cold, with `all` and `warm` sections attached.
    """
    if mode != split.mode:
        raise ValueError(f"split was built for mode={split.mode!r}, got {mode!r}")
    cases = split.test_cases
    scores = _score_cases(model, split.train, dataset.side, cases, n_samples, seed, split)
    ranks = _case_ranks(cases, scores)
    cold = [r for r, c in zip(ranks, cases) if c.cold]
    warm = [r for r, c in zip(ranks, cases) if not c.cold]
    report = _aggregate(cold or ranks, ks, seed, fingerprint)
    report.sections["all"] = _aggregate(ranks, ks, seed, fingerprint)
    if warm:
        report.sections["warm"] = _aggregate(warm, ks, seed, fingerprint)
    return report
