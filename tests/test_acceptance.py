"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria 1-3 are self-contained. Criterion 4 needs the MovieLens-100K raw
files (CVREC_DATA_DIR). Criteria 5-8 additionally train at full scale for
hours and only run with CVREC_RUN_FULL=1; CVREC_FULL_EPOCHS (default 18,
roughly a 2-hour budget per training run here) caps their epoch count.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from cvrec import autodiff as ad
from cvrec import evaluate as ev
from cvrec import model as mdl
from cvrec import predict
from cvrec import train as tr
from cvrec.data import make_cold_split, sample_minibatch
from cvrec.synthetic import block_dataset

from conftest import (finite_diff_check, needs_full_run, needs_ml100k, small_config,
                      structural_negatives)

FULL_EPOCHS = int(os.environ.get("CVREC_FULL_EPOCHS", "18"))
KL_CHUNK = 32_768  # rows of the KL oracle's Monte Carlo sample per pass


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def full_config(**overrides) -> tr.TrainConfig:
    """Reference defaults with the wall-clock epoch cap for this machine."""
    base = dict(max_epochs=FULL_EPOCHS, patience=10)
    base.update(overrides)
    return tr.TrainConfig(**base)


class TestCriterion1Gradients:
    def test_full_loss_gradient_check(self):
        t0 = time.time()
        dataset = block_dataset(n_users=20, n_items=30, feat_dim=6, seed=4,
                                n_negatives=10)
        config = small_config(
            batch_positives=6, neg_ratio=2, latent_dim=8, prior_hidden=10,
            inference_hidden=(14, 10), decoder_hidden=(10, 14),
        )
        dims = mdl.ModelDims(20, 30, dataset.side.user_dim, dataset.side.item_dim,
                             config.latent_dim, config.prior_hidden,
                             config.inference_hidden, config.decoder_hidden)
        model = mdl.build_model(dims, np.random.default_rng(6))
        users, items, labels = sample_minibatch(
            dataset.train, 6, 2, np.random.default_rng(7)
        )
        batch = tr.assemble_batch(dataset.train, dataset.side, users, items, labels,
                                  np.random.default_rng(8), k=1,
                                  latent_dim=config.latent_dim)
        err = finite_diff_check(
            lambda: mdl.batch_objective(model, batch), model.parameters()
        )
        elapsed = time.time() - t0
        _report(1, "gradient correctness", err < 1e-4 and elapsed < 60,
                f"max rel err {err:.2e} (< 1e-4), {elapsed:.0f}s (< 60s)")


class TestCriterion2KlOracle:
    def test_closed_form_vs_monte_carlo(self):
        t0 = time.time()
        rng = np.random.default_rng(12)
        d = 16
        n_samples = 1_000_000
        eps = rng.standard_normal((n_samples, d))  # shared across pairs
        diffs = np.empty(n_samples)

        def log_pdf(x, mu, lv):
            return (-0.5 * (np.log(2 * np.pi) + lv + (x - mu) ** 2 / np.exp(lv))).sum(1)

        worst_z = 0.0
        all_non_negative = True
        for _ in range(100):
            mu_q, mu_p = rng.normal(size=d) * 2, rng.normal(size=d) * 2
            lv_q, lv_p = rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)
            q = mdl.DiagGaussian(ad.constant([mu_q]), ad.constant([lv_q]))
            p = mdl.DiagGaussian(ad.constant([mu_p]), ad.constant([lv_p]))
            exact = mdl.kl_diag(q, p).item()
            all_non_negative &= exact >= 0.0
            # chunks of the shared eps keep the temporaries cache-sized; each
            # element's arithmetic is the same as over the whole array
            for start in range(0, n_samples, KL_CHUNK):
                x = mu_q + np.exp(0.5 * lv_q) * eps[start:start + KL_CHUNK]
                diffs[start:start + KL_CHUNK] = (log_pdf(x, mu_q, lv_q)
                                                 - log_pdf(x, mu_p, lv_p))
            se = diffs.std(ddof=1) / np.sqrt(n_samples)
            worst_z = max(worst_z, abs(exact - diffs.mean()) / se)
        elapsed = time.time() - t0
        _report(2, "KL oracle", worst_z < 3.0 and all_non_negative and elapsed < 60,
                f"worst |z| {worst_z:.2f} (< 3), non-negative={all_non_negative}, "
                f"{elapsed:.0f}s (< 60s)")


class TestCriterion3Overfit:
    def test_overfit_block_structure(self):
        t0 = time.time()
        dataset = block_dataset(n_users=20, n_items=30, density=1.0, noise=0.0,
                                seed=5)
        config = small_config(max_epochs=200)
        assert config.max_epochs <= 500
        result = tr.fit(dataset, config)
        model = result.model

        users, items = dataset.train.pairs()

        def pair_score(u, j):
            # a one-candidate ranking is the pair's score
            return predict.rank(model, dataset.train, dataset.side, int(u), [int(j)],
                                n_samples=64, seed=1)[0][1]

        pos_scores = [pair_score(u, j) for u, j in zip(users[:150], items[:150])]
        nu, ni = structural_negatives(dataset, max_pairs=150)
        neg_scores = [pair_score(u, j) for u, j in zip(nu, ni)]
        pos_mean, neg_mean = np.mean(pos_scores), np.mean(neg_scores)
        elapsed = time.time() - t0
        _report(3, "overfit oracle",
                pos_mean > 0.9 and neg_mean < 0.5 and elapsed < 120,
                f"train positives {pos_mean:.3f} (> 0.9), structural negatives "
                f"{neg_mean:.3f} (< 0.5), {elapsed:.0f}s (< 120s)")


@needs_ml100k
class TestCriterion4Calibration:
    def test_random_and_oracle_scorers(self, ml100k_dataset):
        t0 = time.time()
        cases = ml100k_dataset.eval_cases

        def random_scorer(case):
            rng = np.random.default_rng((17, case.user))
            return rng.uniform(size=len(case.negatives) + 1)

        def oracle_scorer(case):
            scores = np.full(len(case.negatives) + 1, 0.5)
            scores[0] = 1.0
            return scores

        rand = ev.evaluate_ranker(cases, random_scorer, ks=(5, 10))
        oracle = ev.evaluate_ranker(cases, oracle_scorer, ks=(5, 10))
        n = len(cases)
        ok = True
        details = []
        for k in (5, 10):
            p = k / 100
            se = np.sqrt(p * (1 - p) / n)
            ok &= abs(rand.hr[k] - p) < 3 * se
            details.append(f"random HR@{k}={rand.hr[k]:.4f} (exp {p:.2f}+-{3*se:.4f})")
        perfect = all(v == 1.0 for v in list(oracle.hr.values()) + list(oracle.ndcg.values()))
        ok &= perfect
        elapsed = time.time() - t0
        ok &= elapsed < 60
        _report(4, "metric calibration", ok,
                "; ".join(details) + f"; oracle all 1.0={perfect}; {elapsed:.0f}s (< 60s)")


@needs_ml100k
@needs_full_run
class TestCriterion5WarmReproduction:
    def test_ml100k_hr_ndcg(self, ml100k_dataset):
        t0 = time.time()
        config = full_config()  # defaults: D=128, neg_ratio=5, batch ~128
        result = tr.fit(ml100k_dataset, config)
        report = ev.evaluate(result.model, ml100k_dataset, ks=(5,), n_samples=128,
                             seed=config.seed, fingerprint=config.fingerprint())
        elapsed = (time.time() - t0) / 60
        _report(5, "ML-100K warm reproduction",
                report.hr[5] >= 0.46 and report.ndcg[5] >= 0.30,
                f"HR@5 {report.hr[5]:.4f} (>= 0.46), NDCG@5 {report.ndcg[5]:.4f} "
                f"(>= 0.30), {elapsed:.0f} min, {len(result.history)} epochs")


@needs_ml100k
@needs_full_run
class TestCriterion6AblationOrdering:
    def test_nvh_beats_nvh_n_majority(self, ml100k_dataset):
        wins = 0
        details = []
        for seed in (7, 8, 9):
            scores = {}
            for variant in ("nvh", "nvh-n"):
                use_u, use_v = mdl.VARIANT_FLAGS[variant]
                config = full_config(seed=seed, use_user_prior=use_u,
                                     use_item_prior=use_v)
                result = tr.fit(ml100k_dataset, config)
                report = ev.evaluate(result.model, ml100k_dataset, ks=(10,),
                                     n_samples=128, seed=seed)
                scores[variant] = report.hr[10]
            wins += scores["nvh"] > scores["nvh-n"]
            details.append(f"seed {seed}: nvh {scores['nvh']:.4f} vs "
                           f"nvh-n {scores['nvh-n']:.4f}")
        _report(6, "ablation ordering", wins >= 2,
                f"nvh wins {wins}/3; " + "; ".join(details))


@needs_ml100k
@needs_full_run
class TestCriterion7ColdStart:
    def test_cold_user_ndcg(self, ml100k_dataset):
        split = make_cold_split(ml100k_dataset.interactions, ml100k_dataset.side,
                                fraction=0.3, mode="user", seed=7)
        random_expectation = np.mean(
            [1.0 / np.log2(r + 1) for r in range(1, 6)]
        ) * (5 / 100)
        scores = {}
        for variant in ("nvh", "nvh-n"):
            use_u, use_v = mdl.VARIANT_FLAGS[variant]
            config = full_config(seed=7, use_user_prior=use_u, use_item_prior=use_v)
            result = tr.fit(ml100k_dataset, config, train_matrix=split.train,
                            eval_cases=split.val_cases)
            report = ev.evaluate_cold(result.model, ml100k_dataset, split,
                                      mode="user", ks=(5,), n_samples=128, seed=7)
            scores[variant] = report.ndcg[5]
        ok = (scores["nvh"] > scores["nvh-n"]
              and scores["nvh"] >= 2 * random_expectation)
        _report(7, "cold-start sanity", ok,
                f"cold-user NDCG@5: nvh {scores['nvh']:.4f} vs nvh-n "
                f"{scores['nvh-n']:.4f}; random expectation "
                f"{random_expectation:.4f} (need >= 2x)")


@needs_ml100k
@needs_full_run
class TestCriterion8NegRatioSweep:
    def test_higher_neg_ratio_helps(self, ml100k_dataset):
        wins = 0
        details = []
        for seed in (7, 8, 9):
            hr = {}
            for ratio in (2, 6):
                config = full_config(seed=seed, neg_ratio=ratio)
                result = tr.fit(ml100k_dataset, config)
                report = ev.evaluate(result.model, ml100k_dataset, ks=(5,),
                                     n_samples=128, seed=seed)
                hr[ratio] = report.hr[5]
            wins += hr[6] >= hr[2]
            details.append(f"seed {seed}: r6 {hr[6]:.4f} vs r2 {hr[2]:.4f}")
        _report(8, "negative-ratio sweep shape", wins >= 2,
                f"neg_ratio 6 >= 2 in {wins}/3; " + "; ".join(details))
