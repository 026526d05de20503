"""Ranking metrics and evaluation protocols.

Each eval case ranks the held-out positive among itself plus its sampled
negatives. HR@k is a hit below rank k (inclusive); NDCG@k is the single-
relevant-item specialization 1/log2(rank + 1). Reports carry the seed and
a config fingerprint so numbers stay attributable to a run.

Leave-one-out (`evaluate`), cold-start (`evaluate_cold`) and the training
loop's validation share one per-case score function: one
`predict.score_candidates` call per case over all its candidates, with the
user's posterior (or, for a cold user, its side-information prior) and rows
of one all-items posterior pass (a cold target item takes its prior). Noise
is keyed by (seed, side, entity id), so a case scores the same alone or in
any batch, and each case is ranked once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import predict
from .data import ColdSplit, Dataset, EvalCase, InteractionMatrix, SideInfo
from .model import ModelParams

log = logging.getLogger(__name__)

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


def _case_ranks(cases: list[EvalCase], score_fn) -> list[int]:
    """Rank of each case's target under score_fn(case), in case order."""
    return [
        predict.rank_of_target(case_candidates(c), score_fn(c), c.target) for c in cases
    ]


def evaluate_ranker(cases: list[EvalCase], score_fn, ks=DEFAULT_KS, seed: int = 0,
                    fingerprint: str = "") -> MetricReport:
    """Generic protocol runner: score_fn(case) -> scores for target+negatives."""
    return _aggregate(_case_ranks(cases, score_fn), ks, seed, fingerprint)


def _case_scorer(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                 n_samples: int, seed: int, split: ColdSplit | None = None):
    """score_fn(case) for leave-one-out and cold-start cases alike.

    Item Gaussians are rows of one all-items posterior pass shared across
    cases. The cold side of a cold case of `split` takes its
    side-information prior instead: the user's, or the synthetic target
    item's (its negatives stay on their warm posteriors).
    """
    all_items_mean, all_items_lv = predict.item_posterior(
        model, train, side, np.arange(train.n_items)
    )

    def score_fn(case: EvalCase) -> np.ndarray:
        cands = case_candidates(case)
        cold = split.mode if split is not None and case.cold else None
        if cold == "user":
            u_mean, u_lv = predict.user_prior_params(model, split.feature_row(side, case))
        else:
            u_mean, u_lv = predict.user_posterior(model, train, side, case.user)
        if cold == "item":
            t_mean, t_lv = predict.item_prior_params(model, split.feature_row(side, case))
            v_means = np.vstack([t_mean, all_items_mean[case.negatives]])
            v_lvs = np.vstack([t_lv, all_items_lv[case.negatives]])
        else:
            v_means, v_lvs = all_items_mean[cands], all_items_lv[cands]
        return predict.score_candidates(
            model, cands, u_mean, u_lv, v_means, v_lvs, n_samples, seed, case.user
        )

    return score_fn


def evaluate(model: ModelParams, dataset: Dataset, ks=DEFAULT_KS,
             n_samples: int = predict.DEFAULT_SAMPLES, seed: int = 0,
             fingerprint: str = "",
             cases: list[EvalCase] | None = None,
             train: InteractionMatrix | None = None) -> MetricReport:
    """Leave-one-out evaluation of a trained model."""
    cases = dataset.eval_cases if cases is None else cases
    train = dataset.train if train is None else train
    fn = _case_scorer(model, train, dataset.side, n_samples, seed)
    return evaluate_ranker(cases, fn, ks, seed, fingerprint)


def validation_hr_ndcg(model: ModelParams, train: InteractionMatrix, side: SideInfo,
                       cases: list[EvalCase], k: int = 5, n_samples: int = 32,
                       seed: int = 0) -> tuple[float, float]:
    """Lightweight HR@k/NDCG@k used by the training loop."""
    fn = _case_scorer(model, train, side, n_samples, seed)
    report = evaluate_ranker(cases, fn, ks=(k,), seed=seed)
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
    fn = _case_scorer(model, split.train, dataset.side, n_samples, seed, split)
    ranks = _case_ranks(cases, fn)
    cold = [r for r, c in zip(ranks, cases) if c.cold]
    warm = [r for r, c in zip(ranks, cases) if not c.cold]
    report = _aggregate(cold or ranks, ks, seed, fingerprint)
    report.sections["all"] = _aggregate(ranks, ks, seed, fingerprint)
    if warm:
        report.sections["warm"] = _aggregate(warm, ks, seed, fingerprint)
    return report


def compare_ablations(dataset: Dataset, base_config, seeds=None, ks=(10,),
                      n_samples: int = predict.DEFAULT_SAMPLES) -> list[dict]:
    """Train and evaluate every prior-ablation variant with shared splits."""
    import dataclasses

    from .model import VARIANT_FLAGS
    from .train import fit

    seeds = [base_config.seed] if seeds is None else list(seeds)
    rows = []
    for seed in seeds:
        for variant, (use_u, use_v) in VARIANT_FLAGS.items():
            config = dataclasses.replace(
                base_config, seed=seed, use_user_prior=use_u, use_item_prior=use_v
            )
            result = fit(dataset, config)
            report = evaluate(
                result.model, dataset, ks=ks, n_samples=n_samples, seed=seed,
                fingerprint=config.fingerprint(),
            )
            row = {"variant": variant, "seed": seed}
            for k in ks:
                row[f"hr@{k}"] = report.hr[k]
                row[f"ndcg@{k}"] = report.ndcg[k]
            rows.append(row)
            log.info("ablation %s seed %d: %s", variant, seed, row)
    return rows
