import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrec import evaluate as ev
from cvrec import predict
from cvrec.data import EvalCase, make_cold_split


class TestHr:
    def test_rank_one(self):
        assert ev.hr_at_k(1, 5) == 1

    def test_rank_past_k(self):
        assert ev.hr_at_k(6, 5) == 0

    def test_rank_at_boundary_counts(self):
        assert ev.hr_at_k(5, 5) == 1

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            ev.hr_at_k(0, 5)


class TestNdcg:
    def test_rank_one_is_full_gain(self):
        assert ev.ndcg_at_k(1, 5) == 1.0

    def test_rank_three_closed_form(self):
        # hand-derived: 1/log2(4) = 0.5
        assert ev.ndcg_at_k(3, 5) == pytest.approx(0.5, abs=1e-12)

    def test_rank_past_k_zero(self):
        assert ev.ndcg_at_k(7, 5) == 0.0

    @given(st.integers(1, 200), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_ndcg_never_exceeds_hr(self, rank, k):
        assert ev.ndcg_at_k(rank, k) <= ev.hr_at_k(rank, k)

    @given(st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_both_monotone_in_k(self, rank):
        hrs = [ev.hr_at_k(rank, k) for k in range(1, 30)]
        ndcgs = [ev.ndcg_at_k(rank, k) for k in range(1, 30)]
        assert hrs == sorted(hrs)
        assert ndcgs == sorted(ndcgs)


def synthetic_cases(n_cases=400, n_items=120, n_negatives=99, seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    for u in range(n_cases):
        items = rng.permutation(n_items)
        cases.append(EvalCase(u, int(items[0]), np.sort(items[1:1 + n_negatives])))
    return cases


def random_scorer(seed):
    def fn(case):
        rng = np.random.default_rng((seed, case.user))
        return rng.uniform(size=len(case.negatives) + 1)

    return fn


def oracle_scorer(case):
    scores = np.full(len(case.negatives) + 1, 0.1)
    scores[0] = 0.9
    return scores


class TestProtocol:
    def test_oracle_scorer_is_perfect(self):
        cases = synthetic_cases()
        report = ev.evaluate_ranker(cases, oracle_scorer, ks=(1, 5, 10))
        assert all(v == 1.0 for v in report.hr.values())
        assert all(v == 1.0 for v in report.ndcg.values())

    def test_random_scorer_calibration(self):
        # analytic oracle: uniform rank over 100 candidates gives
        # E[HR@k] = k/100 with binomial spread
        cases = synthetic_cases(n_cases=1000)
        report = ev.evaluate_ranker(cases, random_scorer(3), ks=(5, 10))
        n = len(cases)
        for k in (5, 10):
            p = k / 100
            se = np.sqrt(p * (1 - p) / n)
            assert abs(report.hr[k] - p) < 3 * se

    def test_repeat_runs_bit_identical(self):
        cases = synthetic_cases(n_cases=50)
        a = ev.evaluate_ranker(cases, random_scorer(5), ks=(5,))
        b = ev.evaluate_ranker(cases, random_scorer(5), ks=(5,))
        assert a.hr == b.hr and a.ndcg == b.ndcg

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError, match="cases"):
            ev.evaluate_ranker([], oracle_scorer)

    def test_aggregate_ndcg_le_hr(self):
        cases = synthetic_cases(n_cases=300, seed=2)
        report = ev.evaluate_ranker(cases, random_scorer(11), ks=(5, 10, 20))
        for k in report.hr:
            assert report.ndcg[k] <= report.hr[k]


class TestEvaluateModel:
    def test_trained_model_beats_random(self, trained_block):
        dataset, result = trained_block
        report = ev.evaluate(result.model, dataset, ks=(5,), n_samples=32, seed=1)
        # 1 positive among ~21 candidates: random HR@5 ~ 0.24; the overfit
        # model should do far better
        assert report.hr[5] > 0.6
        assert report.n_cases == len(dataset.eval_cases)

    def test_report_csv_round_trip(self, trained_block, tmp_path):
        dataset, result = trained_block
        report = ev.evaluate(result.model, dataset, ks=(5, 10), n_samples=16,
                             seed=2, fingerprint="abc123")
        path = tmp_path / "metrics.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "section,k,hr,ndcg,cases,seed,fingerprint"
        assert len(lines) == 3
        assert lines[1].startswith("all,5,") and lines[1].endswith(",2,abc123")

    def test_format_table_mentions_seed(self, trained_block):
        dataset, result = trained_block
        report = ev.evaluate(result.model, dataset, ks=(5,), n_samples=8, seed=42)
        assert "seed=42" in report.format_table()


class TestEvaluateCold:
    def test_mode_mismatch_rejected(self, trained_block):
        dataset, result = trained_block
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.3,
                                mode="user", seed=3)
        with pytest.raises(ValueError, match="mode"):
            ev.evaluate_cold(result.model, dataset, split, mode="item")

    def test_zero_fraction_reduces_to_warm_protocol(self, trained_block):
        dataset, result = trained_block
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.0,
                                mode="user", seed=4)
        report = ev.evaluate_cold(result.model, dataset, split, mode="user",
                                  ks=(5,), n_samples=16, seed=5)
        warm = ev.evaluate(result.model, dataset, ks=(5,), n_samples=16, seed=5,
                           cases=split.test_cases, train=split.train)
        assert report.hr == warm.hr and report.ndcg == warm.ndcg

    def test_cold_sections_present(self, trained_block):
        dataset, result = trained_block
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.3,
                                mode="user", seed=6)
        report = ev.evaluate_cold(result.model, dataset, split, mode="user",
                                  ks=(5,), n_samples=16, seed=7)
        assert "all" in report.sections and "warm" in report.sections
        n_cold = sum(c.cold for c in split.test_cases)
        assert report.n_cases == n_cold

    @pytest.mark.parametrize("mode", ["user", "item"])
    def test_each_case_scored_once(self, trained_block, monkeypatch, mode):
        # every case is ranked once, and the call draws each item's noise once
        dataset, result = trained_block
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.3,
                                mode=mode, seed=6)
        # worker threads draw item noise: list.append is atomic, += is not
        ranked, item_keys = [], []
        rank_of_target, noise = predict.rank_of_target, predict._noise

        def counting_rank(*args):
            ranked.append(1)
            return rank_of_target(*args)

        def counting_noise(seed, stream, key, n, dim):
            if stream == predict._ITEM_STREAM:
                item_keys.append(key)
            return noise(seed, stream, key, n, dim)

        monkeypatch.setattr(predict, "rank_of_target", counting_rank)
        monkeypatch.setattr(predict, "_noise", counting_noise)
        report = ev.evaluate_cold(result.model, dataset, split, mode=mode,
                                  ks=(5,), n_samples=8, seed=7)
        assert len(ranked) == len(split.test_cases)
        assert set(Counter(item_keys).values()) == {1}
        assert report.sections["all"].n_cases == len(split.test_cases)

    def test_zero_fraction_report_writes_csv(self, trained_block, tmp_path):
        # with no cold case the report covers every case; its `all` section
        # is a separate report, so the CSV writer terminates
        dataset, result = trained_block
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.0,
                                mode="user", seed=4)
        report = ev.evaluate_cold(result.model, dataset, split, mode="user",
                                  ks=(5,), n_samples=8, seed=5)
        report.to_csv(tmp_path / "cold.csv")
        lines = (tmp_path / "cold.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["all", "all", "warm"]

    def test_cold_item_mode_runs(self, trained_block):
        dataset, result = trained_block
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.3,
                                mode="item", seed=8)
        report = ev.evaluate_cold(result.model, dataset, split, mode="item",
                                  ks=(5, 10), n_samples=16, seed=9)
        assert 0.0 <= report.ndcg[5] <= report.hr[5] <= 1.0


def test_importing_evaluate_leaves_train_unloaded():
    """train.fit calls evaluate for validation, so evaluate must not import train."""
    src = str(Path(ev.__file__).resolve().parents[1])
    code = "import sys, cvrec.evaluate; sys.exit('cvrec.train' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
