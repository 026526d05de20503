import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrec import predict
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
