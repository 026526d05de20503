import contextlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrec import blas
from cvrec import evaluate as ev
from cvrec import model as mdl
from cvrec import predict
from cvrec.data import make_cold_split
from cvrec.model import VARIANT_FLAGS


def warm_score(model, dataset, u, j, n_samples=predict.DEFAULT_SAMPLES, seed=0):
    """One (user, item) pair scored as a one-candidate call."""
    u_gauss = predict.user_posterior(model, dataset.train, dataset.side, u)
    v_gauss = predict.item_posterior(model, dataset.train, dataset.side, j)
    return float(predict.score_candidates(model, [j], *u_gauss, *v_gauss,
                                          n_samples, seed, user_key=u)[0])


def cold_user_score(model, dataset, features, j, n_samples, seed):
    """A new user, keyed like a cold split's synthetic id, against item j."""
    u_gauss = predict.user_prior_params(model, features)
    v_gauss = predict.item_posterior(model, dataset.train, dataset.side, j)
    return float(predict.score_candidates(model, [j], *u_gauss, *v_gauss, n_samples,
                                          seed, user_key=dataset.train.n_users)[0])


class TestScoreWarm:
    def test_scores_in_unit_interval(self, trained_block):
        dataset, result = trained_block
        for u, j in [(0, 0), (3, 7), (19, 29)]:
            s = warm_score(result.model, dataset, u, j, n_samples=32, seed=1)
            assert 0.0 < s < 1.0

    def test_out_of_range_ids(self, trained_block):
        dataset, result = trained_block
        with pytest.raises(IndexError, match="user"):
            predict.user_posterior(result.model, dataset.train, dataset.side, 99)
        with pytest.raises(IndexError, match="user"):
            predict.user_posterior(result.model, dataset.train, dataset.side, -1)
        with pytest.raises(IndexError, match="item"):
            predict.item_posterior(result.model, dataset.train, dataset.side, [0, 999])

    def test_fixed_seed_reproducible(self, trained_block):
        dataset, result = trained_block
        a = warm_score(result.model, dataset, 2, 4, 64, seed=9)
        b = warm_score(result.model, dataset, 2, 4, 64, seed=9)
        assert a == b

    def test_sample_size_consistency(self, trained_block):
        # S -> infinity self-consistency: S=128 within 0.03 of S=4096
        dataset, result = trained_block
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = int(rng.integers(dataset.train.n_users))
            j = int(rng.integers(dataset.train.n_items))
            small = warm_score(result.model, dataset, u, j, 128, seed=3)
            big = warm_score(result.model, dataset, u, j, 4096, seed=3)
            assert abs(small - big) < 0.03

    def test_collapsed_variance_equals_plugin_forward(self, trained_block):
        dataset, result = trained_block
        model = result.model
        u, j = 1, 5
        u_mean, u_lv = predict.user_posterior(model, dataset.train, dataset.side, u)
        v_mean, v_lv = predict.item_posterior(model, dataset.train, dataset.side, j)
        # pin both posteriors at log_var = -15 via direct sampling path
        probs = model.interact.forward_values(np.hstack([u_mean, v_mean]))[0, 0]
        s = predict.score_candidates(model, [j], u_mean, np.full_like(u_lv, -15.0),
                                     v_mean, np.full_like(v_lv, -15.0), 256, 0, u)[0]
        assert abs(s - probs) < 1e-3

    def test_monte_carlo_standard_error_small(self, trained_block):
        dataset, result = trained_block
        scores = [warm_score(result.model, dataset, 0, 3, 128, seed=s) for s in range(12)]
        assert np.std(scores, ddof=1) < 0.05

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_rejected(self, trained_block, n_samples):
        dataset, result = trained_block
        with pytest.raises(ValueError, match="n_samples"):
            warm_score(result.model, dataset, 0, 3, n_samples)


class TestScoreCold:
    def test_cold_user_feature_dim_checked(self, trained_block):
        _, result = trained_block
        with pytest.raises(ValueError, match="dim"):
            predict.user_prior_params(result.model, np.ones(99))
        with pytest.raises(ValueError, match="dim"):
            predict.item_prior_params(result.model, np.ones(99))

    def test_cold_user_in_unit_interval(self, trained_block):
        dataset, result = trained_block
        f = dataset.side.user_features[[4]]
        s = cold_user_score(result.model, dataset, f, 2, n_samples=64, seed=5)
        assert 0.0 < s < 1.0

    def test_cold_item_zero_side_info_finite(self, trained_block):
        dataset, result = trained_block
        model = result.model
        cold_item = dataset.train.n_items
        u_gauss = predict.user_posterior(model, dataset.train, dataset.side, 0)
        v_gauss = predict.item_prior_params(model, np.zeros(dataset.side.item_dim))
        s = predict.score_candidates(model, [cold_item], *u_gauss, *v_gauss, 64,
                                     seed=6, user_key=0)[0]
        assert 0.0 < s < 1.0 and np.isfinite(s)

    def test_disabled_prior_ignores_features(self, block_data):
        # under nvh-n the cold-user prior is N(0, I): different side info,
        # same noise stream, identical scores
        from conftest import small_config
        from cvrec.train import fit

        config = small_config(max_epochs=10, use_user_prior=False,
                              use_item_prior=False)
        result = fit(block_data, config)
        f1 = np.ones(block_data.side.user_dim)
        f2 = np.arange(block_data.side.user_dim, dtype=float)
        s1 = cold_user_score(result.model, block_data, f1, 3, 64, seed=7)
        s2 = cold_user_score(result.model, block_data, f2, 3, 64, seed=7)
        assert s1 == s2

    def test_cold_user_copying_warm_features_correlates(self, trained_block):
        # a cold user cloning a warm user's side info should rank items
        # similarly to that warm user (positive Spearman correlation)
        dataset, result = trained_block
        from scipy.stats import spearmanr

        model = result.model
        items = np.arange(dataset.train.n_items)
        v_gauss = predict.item_posterior(model, dataset.train, dataset.side, items)
        corrs = []
        for u in range(0, 8):
            warm = predict.rank(model, dataset.train, dataset.side, u, items,
                                n_samples=64, seed=8)
            warm_scores = dict(warm)
            f = dataset.side.user_features[[u]]
            cold_scores = predict.score_candidates(
                model, items, *predict.user_prior_params(model, f), *v_gauss, 64,
                seed=8, user_key=dataset.train.n_users + u,
            )
            corr = spearmanr([warm_scores[j] for j in items], cold_scores).statistic
            corrs.append(corr)
        assert np.mean(corrs) > 0

    def test_batch_scoring_equals_single_scores(self, trained_block):
        dataset, result = trained_block
        model = result.model
        candidates = np.array([2, 9, 17])
        u_mean, u_lv = predict.user_posterior(model, dataset.train, dataset.side, 6)
        v_means, v_lvs = predict.item_posterior(model, dataset.train, dataset.side,
                                                candidates)
        batch = predict.score_candidates(model, candidates, u_mean, u_lv,
                                         v_means, v_lvs, 64, seed=11, user_key=6)
        singles = [warm_score(model, dataset, 6, int(j), 64, seed=11) for j in candidates]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


def concatenated_forward(model, keys, v_means, v_lvs, u_mean, u_lv, user_key,
                         n_samples, seed):
    """Scoring without the first-layer split: the user's samples tiled beside
    every candidate's, one forward of the whole interaction net."""
    d = model.dims.latent_dim
    u = u_mean + np.exp(0.5 * u_lv) * predict._noise(
        seed, predict._USER_STREAM, user_key, n_samples, d)
    v = np.vstack([
        v_means[[c]] + np.exp(0.5 * v_lvs[[c]]) * predict._noise(
            seed, predict._ITEM_STREAM, int(key), n_samples, d)
        for c, key in enumerate(keys)
    ])
    pairs = np.hstack([np.tile(u, (len(keys), 1)), v])
    probs = model.interact.forward_values(pairs)[:, 0]
    return probs.reshape(len(keys), n_samples).mean(axis=1)


@pytest.fixture
def mixed_cases(trained_block):
    """Warm, cold-user and cold-item cases over one item table.

    The table is every item's posterior plus one cold item, a prior keyed by
    the id n_items; the last user is cold, a prior keyed by the id n_users.
    Every case has item 7 among its candidates.
    """
    dataset, result = trained_block
    model, train, side = result.model, dataset.train, dataset.side
    means, lvs = predict.item_posterior(model, train, side, np.arange(train.n_items))
    cold_mean, cold_lv = predict.item_prior_params(model, side.item_features[[3]])
    keys = np.arange(train.n_items + 1)
    means, lvs = np.vstack([means, cold_mean]), np.vstack([lvs, cold_lv])
    users = [predict.user_posterior(model, train, side, u) for u in (0, 1, 5, 9)]
    users.append(predict.user_prior_params(model, side.user_features[[4]]))
    user_keys = [0, 1, 5, 9, train.n_users]
    rng = np.random.default_rng(0)
    case_rows = [np.append(rng.choice(np.delete(keys, 7), size=11, replace=False), 7)
                 for _ in user_keys]
    case_rows[2][0] = train.n_items
    return (model, keys, means, lvs, np.vstack([u[0] for u in users]),
            np.vstack([u[1] for u in users]), user_keys, case_rows)


def small_blocks(monkeypatch):
    """Block bounds at S=16 that split the mixed cases into several case,
    item and slot blocks."""
    monkeypatch.setattr(predict, "CASE_ROWS", 2 * 16)
    monkeypatch.setattr(predict, "ITEM_ROWS", 4 * 16)
    monkeypatch.setattr(predict, "SLOT_ROWS", 3 * 16)


def set_workers(monkeypatch, n):
    """`score_cases` starts one worker per core it may run on."""
    monkeypatch.setattr(predict.os, "sched_getaffinity", lambda pid: set(range(n)))


class TestScoreCases:
    def test_case_alone_bit_equals_case_in_block(self, mixed_cases, monkeypatch):
        model, keys, means, lvs, u_means, u_lvs, user_keys, case_rows = mixed_cases
        alone = [
            predict.score_cases(model, keys, means, lvs, u_means[[c]], u_lvs[[c]],
                                [user_keys[c]], [rows], 16, 3)[0]
            for c, rows in enumerate(case_rows)
        ]
        single = [
            predict.score_candidates(model, keys[rows], u_means[[c]], u_lvs[[c]],
                                     means[rows], lvs[rows], 16, 3, user_keys[c])
            for c, rows in enumerate(case_rows)
        ]
        small_blocks(monkeypatch)
        together = predict.score_cases(model, keys, means, lvs, u_means, u_lvs,
                                       user_keys, case_rows, 16, 3)
        assert len(np.unique(np.concatenate(case_rows))) > 4
        for c in range(len(case_rows)):
            np.testing.assert_array_equal(alone[c], together[c])
            np.testing.assert_array_equal(single[c], together[c])

    def test_matches_concatenated_forward(self, mixed_cases):
        model, keys, means, lvs, u_means, u_lvs, user_keys, case_rows = mixed_cases
        together = predict.score_cases(model, keys, means, lvs, u_means, u_lvs,
                                       user_keys, case_rows, 16, 3)
        for c, rows in enumerate(case_rows):
            want = concatenated_forward(model, keys[rows], means[rows], lvs[rows],
                                        u_means[[c]], u_lvs[[c]], user_keys[c], 16, 3)
            np.testing.assert_allclose(together[c], want, rtol=0, atol=1e-12)

    def test_peak_memory_bounded_in_candidates(self):
        dims = mdl.ModelDims(2, 2, 2, 2, latent_dim=64, prior_hidden=2,
                             inference_hidden=(2, 2), decoder_hidden=(2, 2))
        model = mdl.build_model(dims, np.random.default_rng(0))
        n_samples, width = 64, model.interact.layers_list[0].out_dim
        rng = np.random.default_rng(1)
        u_mean, u_lv = rng.normal(size=(1, 64)), rng.normal(-2, 1, size=(1, 64))
        peaks = {}
        for n in (500, 4000):
            v_means, v_lvs = rng.normal(size=(n, 64)), rng.normal(-2, 1, size=(n, 64))
            tracemalloc.start()
            try:
                predict.score_candidates(model, np.arange(n), u_mean, u_lv, v_means,
                                         v_lvs, n_samples, 0, 0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one candidate's first hidden layer alone takes S x width floats
        grown_per_candidate = (peaks[4000] - peaks[500]) / 3500
        assert grown_per_candidate < 0.05 * n_samples * width * 8

    def test_blas_thread_count_leaves_scores_unchanged(self, monkeypatch):
        # products large enough for OpenBLAS to split them across threads
        dims = mdl.ModelDims(2, 2, 2, 2, latent_dim=64, prior_hidden=2,
                             inference_hidden=(2, 2), decoder_hidden=(2, 2))
        model = mdl.build_model(dims, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        u_mean, u_lv = rng.normal(size=(1, 64)), rng.normal(-2, 1, size=(1, 64))
        v_means, v_lvs = rng.normal(size=(300, 64)), rng.normal(-2, 1, size=(300, 64))
        args = (model, np.arange(300), u_mean, u_lv, v_means, v_lvs, 64, 0, 0)
        one_thread = predict.score_candidates(*args)
        monkeypatch.setattr(blas, "single_thread", contextlib.nullcontext)
        np.testing.assert_array_equal(predict.score_candidates(*args), one_thread)


class TestPipeline:
    def test_scores_equal_for_any_worker_count(self, mixed_cases, monkeypatch):
        # a lost or misordered item block would change some case's scores;
        # more workers than cores and frequent thread switches shake the order
        model, keys, means, lvs, u_means, u_lvs, user_keys, case_rows = mixed_cases
        small_blocks(monkeypatch)
        args = (model, keys, means, lvs, u_means, u_lvs, user_keys, case_rows, 16, 3)
        many = 4 * len(os.sched_getaffinity(0))
        set_workers(monkeypatch, 1)
        want = predict.score_cases(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (2, many, 2, many):
                set_workers(monkeypatch, n)
                for w, g in zip(want, predict.score_cases(*args)):
                    np.testing.assert_array_equal(w, g)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("stream", [predict._ITEM_STREAM, predict._USER_STREAM],
                             ids=["worker", "calling-thread"])
    def test_noise_error_propagates_and_pool_ends(self, mixed_cases, monkeypatch,
                                                  stream):
        model, keys, means, lvs, u_means, u_lvs, user_keys, case_rows = mixed_cases
        small_blocks(monkeypatch)
        set_workers(monkeypatch, 2)
        noise = predict._noise
        bad_key = int(case_rows[3][4]) if stream == predict._ITEM_STREAM else user_keys[3]

        def failing_noise(seed, s, key, n, dim):
            if s == stream and key == bad_key:
                raise RuntimeError("noise failed")
            return noise(seed, s, key, n, dim)

        monkeypatch.setattr(predict, "_noise", failing_noise)
        fns = blas._openblas()
        blas_before = fns[0]() if fns is not None else None
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="noise failed"):
            predict.score_cases(model, keys, means, lvs, u_means, u_lvs, user_keys,
                                case_rows, 16, 3)
        assert threading.active_count() == threads_before
        if fns is not None:
            assert fns[0]() == blas_before

    def test_interaction_net_runs_on_workers(self, trained_block, monkeypatch):
        # workers call the class's forward_values, never the instance attribute
        # that a tracer wraps
        dataset, result = trained_block
        net = result.model.interact
        set_workers(monkeypatch, 2)
        monkeypatch.setattr(predict, "ITEM_ROWS", 2 * 8)
        monkeypatch.setattr(predict, "SLOT_ROWS", 3 * 8)
        forward_values, callers, instance_calls = mdl.SigmoidNet.forward_values, [], []

        def class_shim(self, *args, **kwargs):
            if self is net:
                callers.append(threading.get_ident())
            return forward_values(self, *args, **kwargs)

        def instance_shim(*args, **kwargs):
            instance_calls.append(threading.get_ident())
            return forward_values(net, *args, **kwargs)

        monkeypatch.setattr(mdl.SigmoidNet, "forward_values", class_shim)
        monkeypatch.setattr(net, "forward_values", instance_shim)
        split = make_cold_split(dataset.interactions, dataset.side, fraction=0.3,
                                mode="user", seed=6)
        ev.evaluate(result.model, dataset, ks=(5,), n_samples=8, seed=1)
        ev.evaluate_cold(result.model, dataset, split, mode="user", ks=(5,),
                         n_samples=8, seed=1)
        assert callers and threading.get_ident() not in callers
        assert instance_calls == []


def posteriors(model, dataset, users, items):
    train, side = dataset.train, dataset.side
    return (*predict.user_posterior(model, train, side, users),
            *predict.item_posterior(model, train, side, items))


class TestPosterior:
    def test_equal_for_any_workers_and_chunk_rows(self, trained_block, monkeypatch):
        dataset, result = trained_block
        model, train = result.model, dataset.train
        users, items = np.arange(train.n_users), np.arange(train.n_items)
        with blas.single_thread():
            want = (*mdl.GaussianNet.forward_values(model.inf_user, mdl.inference_input(
                        dataset.side.user_features, train.to_csr(), model.use_user_prior)),
                    *mdl.GaussianNet.forward_values(model.inf_item, mdl.inference_input(
                        dataset.side.item_features, train.to_csr_t(),
                        model.use_item_prior)))
        many = 4 * len(os.sched_getaffinity(0))
        for rows in (7, max(train.n_users, train.n_items)):
            monkeypatch.setattr(predict, "POSTERIOR_ROWS", rows)
            for n in (1, 2, many):
                set_workers(monkeypatch, n)
                for w, g in zip(want, posteriors(model, dataset, users, items)):
                    np.testing.assert_array_equal(w, g)

    def test_rows_in_input_order(self, trained_block, monkeypatch):
        dataset, result = trained_block
        model, train = result.model, dataset.train
        want = posteriors(model, dataset, np.arange(train.n_users),
                          np.arange(train.n_items))
        monkeypatch.setattr(predict, "POSTERIOR_ROWS", 3)
        set_workers(monkeypatch, 2)
        users, items = [5, 0, 5, 17, 2, 2, 9], [29, 3, 3, 0, 11, 29, 8, 1]
        got = posteriors(model, dataset, users, items)
        for w, g, ids in zip(want, got, (users, users, items, items)):
            np.testing.assert_array_equal(w[ids], g)

    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "calling-thread"])
    def test_error_propagates_and_pool_ends(self, trained_block, monkeypatch,
                                            on_worker):
        dataset, result = trained_block
        monkeypatch.setattr(predict, "POSTERIOR_ROWS", 7)
        set_workers(monkeypatch, 2)
        forward_values, main = mdl.GaussianNet.forward_values, threading.main_thread()

        def failing(self, x):
            if (threading.current_thread() is not main) == on_worker:
                raise RuntimeError("posterior failed")
            return forward_values(self, x)

        monkeypatch.setattr(mdl.GaussianNet, "forward_values", failing)
        fns = blas._openblas()
        blas_before = fns[0]() if fns is not None else None
        with pytest.raises(RuntimeError, match="posterior failed"):
            predict.item_posterior(result.model, dataset.train, dataset.side,
                                   np.arange(dataset.train.n_items))
        assert not [t for t in threading.enumerate() if t.name.startswith("cvrec-")]
        if fns is not None:
            assert fns[0]() == blas_before

    def test_one_blas_thread_throughout_scoring_calls(self, trained_block, monkeypatch):
        fns = blas._openblas()
        if fns is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
        get, set_ = fns
        dataset, result = trained_block
        model = result.model
        forward, seen = mdl.GaussianNet.forward, []

        def spy(self, x):
            seen.append((self, get()))
            return forward(self, x)

        monkeypatch.setattr(mdl.GaussianNet, "forward", spy)
        counts = []
        monkeypatch.setattr(blas, "_openblas",
                            lambda: (get, lambda n: counts.append(n) or set_(n)))
        # each call, with the networks of its posterior and prior passes
        calls = {
            "rank": (lambda: predict.rank(model, dataset.train, dataset.side, 3,
                                          np.arange(dataset.train.n_items), 8, 1), []),
            "evaluate": (lambda: ev.evaluate(model, dataset, ks=(5,), n_samples=8), []),
        }
        for mode, prior in (("user", model.prior_user), ("item", model.prior_item)):
            split = make_cold_split(dataset.interactions, dataset.side, fraction=0.3,
                                    mode=mode, seed=6)
            calls[f"cold-{mode}"] = (lambda split=split: ev.evaluate_cold(
                model, dataset, split, mode=split.mode, ks=(5,), n_samples=8), [prior])
        before = get()
        set_(2)
        try:
            for name, (call, priors) in calls.items():
                seen.clear()
                counts.clear()
                call()
                nets = {id(net) for net, _ in seen}
                want = {id(net) for net in (model.inf_user, model.inf_item, *priors)}
                assert nets == want, name
                assert [n for _, n in seen] == [1] * len(seen), name
                # one scope per call: set to one thread once, restored once
                assert counts == [1, 2], name
                assert get() == 2, name
        finally:
            set_(before)


class TestSingleThread:
    @pytest.fixture
    def openblas(self):
        fns = blas._openblas()
        if fns is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
        return fns

    def test_one_thread_inside_and_count_restored(self, openblas):
        get, _ = openblas
        before = get()
        with blas.single_thread():
            assert get() == 1
        assert get() == before

    def test_count_restored_after_exception(self, openblas):
        get, _ = openblas
        before = get()
        with pytest.raises(RuntimeError):
            with blas.single_thread():
                raise RuntimeError
        assert get() == before


class TestRank:
    def test_single_candidate(self, trained_block):
        dataset, result = trained_block
        out = predict.rank(result.model, dataset.train, dataset.side, 0, [5],
                           n_samples=16, seed=0)
        assert len(out) == 1 and out[0][0] == 5

    def test_out_of_range_user_rejected(self, trained_block):
        # a negative id must not wrap around to the last user
        dataset, result = trained_block
        with pytest.raises(IndexError, match="user"):
            predict.rank(result.model, dataset.train, dataset.side, -1, [0, 1])

    def test_empty_candidates_rejected(self, trained_block):
        dataset, result = trained_block
        with pytest.raises(ValueError, match="empty"):
            predict.rank(result.model, dataset.train, dataset.side, 0, [])

    def test_tie_breaks_toward_lower_id(self):
        ordered = predict.order_by_score([7, 3, 9], [0.5, 0.5, 0.9])
        assert [item for item, _ in ordered] == [9, 3, 7]

    def test_rank_of_target_matches_order(self, trained_block):
        dataset, result = trained_block
        candidates = np.arange(12)
        out = predict.rank(result.model, dataset.train, dataset.side, 3, candidates,
                           n_samples=32, seed=2)
        scores = {item: s for item, s in out}
        for pos, (item, _) in enumerate(out, start=1):
            got = predict.rank_of_target(candidates,
                                         [scores[c] for c in candidates], item)
            assert got == pos

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_of_target_is_position_in_order(self, candidates, data):
        # few distinct scores, so ties are common
        scores = data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]),
                                    min_size=len(candidates), max_size=len(candidates)))
        target = data.draw(st.sampled_from(candidates))
        ordered = [item for item, _ in predict.order_by_score(candidates, scores)]
        assert predict.rank_of_target(candidates, scores, target) == (
            ordered.index(target) + 1
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        candidates = rng.permutation(50)[:10]
        scores = rng.uniform(0.01, 0.99, 10)
        base = [item for item, _ in predict.order_by_score(candidates, scores)]
        # strictly increasing maps preserve the ordering
        for f in (lambda s: 2 * s + 1, np.exp, lambda s: s ** 3 + 0.5 * s):
            mapped = [item for item, _ in predict.order_by_score(candidates, f(scores))]
            assert mapped == base

    def test_ranking_seed_stable(self, trained_block):
        dataset, result = trained_block
        a = predict.rank(result.model, dataset.train, dataset.side, 1,
                         np.arange(20), n_samples=64, seed=13)
        b = predict.rank(result.model, dataset.train, dataset.side, 1,
                         np.arange(20), n_samples=64, seed=13)
        assert a == b
