import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import sparse
from scipy.special import expit, logit

from cvrec import autodiff as ad
from cvrec import model as m
from cvrec.data import DataError

from conftest import finite_diff_check

NETWORKS = ("prior_user", "prior_item", "inf_user", "inf_item",
            "dec_user", "dec_item", "interact")


def tiny_dims(n_users=6, n_items=9, p=4, q=5, d=3):
    return m.ModelDims(
        n_users=n_users,
        n_items=n_items,
        user_feat_dim=p,
        item_feat_dim=q,
        latent_dim=d,
        prior_hidden=8,
        inference_hidden=(12, 8),
        decoder_hidden=(8, 12),
    )


def tiny_model(seed=0, **flags):
    return m.build_model(tiny_dims(), np.random.default_rng(seed), **flags)


def gaussian(mean, log_var):
    return m.DiagGaussian(
        ad.constant(np.atleast_2d(mean)), ad.constant(np.atleast_2d(log_var))
    )


def kl_monte_carlo(mu_q, lv_q, mu_p, lv_p, n, seed=0):
    """Independent KL estimate: mean of log q(x) - log p(x) over x ~ q."""
    rng = np.random.default_rng(seed)
    x = mu_q + np.exp(0.5 * lv_q) * rng.standard_normal((n, len(mu_q)))

    def log_pdf(x, mu, lv):
        return (-0.5 * (np.log(2 * np.pi) + lv + (x - mu) ** 2 / np.exp(lv))).sum(axis=1)

    diffs = log_pdf(x, mu_q, lv_q) - log_pdf(x, mu_p, lv_p)
    return diffs.mean(), diffs.std(ddof=1) / np.sqrt(n)


def random_batch(model, rng, n_pairs=4, k=1):
    d = model.dims
    users = rng.integers(0, d.n_users, n_pairs)
    items = rng.integers(0, d.n_items, n_pairs)
    labels = rng.integers(0, 2, (n_pairs, 1)).astype(float)
    rows = (rng.random((n_pairs, d.n_items)) < 0.3).astype(float)
    cols = (rng.random((n_pairs, d.n_users)) < 0.3).astype(float)
    return m.PairBatch(
        users=users,
        items=items,
        labels=labels,
        user_feats=rng.normal(size=(n_pairs, d.user_feat_dim)),
        item_feats=rng.normal(size=(n_pairs, d.item_feat_dim)),
        user_rows=rows,
        item_cols=cols,
        user_targets=rows,
        item_targets=cols,
        eps_user=rng.standard_normal((n_pairs * k, d.latent_dim)),
        eps_item=rng.standard_normal((n_pairs * k, d.latent_dim)),
    )


class TestPrior:
    def test_disabled_prior_is_standard_normal(self):
        model = tiny_model(use_user_prior=False)
        feats = np.random.default_rng(1).normal(size=(3, 4))
        g = m.prior(model.prior_user, feats, enabled=False)
        np.testing.assert_array_equal(g.mean.value, np.zeros((3, 3)))
        np.testing.assert_array_equal(g.log_var.value, np.zeros((3, 3)))

    def test_zeroed_heads_return_bias(self):
        model = tiny_model()
        net = model.prior_user
        net.mean_head.weight.value[:] = 0.0
        net.mean_head.bias.value[:] = [[0.5, -0.5, 2.0]]
        g = m.prior(net, np.ones((2, 4)))
        np.testing.assert_allclose(g.mean.value, [[0.5, -0.5, 2.0]] * 2)

    def test_identical_features_identical_gaussian(self):
        model = tiny_model(seed=3)
        f = np.random.default_rng(2).normal(size=(1, 4))
        g1 = m.prior(model.prior_user, f)
        g2 = m.prior(model.prior_user, np.vstack([f, f]))
        np.testing.assert_array_equal(g2.mean.value[0], g2.mean.value[1])
        # across separate calls BLAS may batch differently; equal to rounding
        np.testing.assert_allclose(g1.mean.value[0], g2.mean.value[0], atol=1e-12)

    def test_dim_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="prior"):
            m.prior(model.prior_user, np.ones((1, 7)))


class TestInfer:
    def test_zero_collab_row_is_finite(self):
        model = tiny_model()
        g = m.infer(model.inf_user, np.ones(4), np.zeros(9))
        assert np.isfinite(g.mean.value).all()
        assert np.isfinite(g.log_var.value).all()
        assert (np.abs(g.log_var.value) <= m.LOG_VAR_CLAMP).all()

    def test_batched_equals_single(self):
        # batching-equivalence oracle: B rows at once match one-at-a-time calls
        model = tiny_model(seed=9)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(5, 4))
        rows = (rng.random((5, 9)) < 0.4).astype(float)
        batched = m.infer(model.inf_user, feats, rows)
        for i in range(5):
            single = m.infer(model.inf_user, feats[i], rows[i])
            np.testing.assert_allclose(batched.mean.value[i], single.mean.value[0], atol=1e-12)
            np.testing.assert_allclose(
                batched.log_var.value[i], single.log_var.value[0], atol=1e-12
            )

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("name", NETWORKS)
    def test_forward_values_matches_graph_forward(self, name, fmt):
        model = tiny_model(seed=10)
        net = getattr(model, name)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, net.in_dim)) * (rng.random((3, net.in_dim)) < 0.5)
        if fmt == "csr":
            x = sparse.csr_array(x)
        graph = net.forward(x)
        if isinstance(graph, m.DiagGaussian):
            want = graph.values()
        else:  # a sigmoid net's graph forward stops at the logits
            want = (expit(graph.value),)
        got = net.forward_values(x)
        got = got if isinstance(got, tuple) else (got,)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestReparameterize:
    def test_zero_eps_gives_mean(self):
        g = gaussian([1.0, -2.0, 3.0], [0.5, 0.0, -0.5])
        out = m.reparameterize(g, np.zeros((1, 3)))
        np.testing.assert_array_equal(out.value, [[1.0, -2.0, 3.0]])

    def test_standard_gaussian_returns_eps(self):
        g = gaussian(np.zeros(3), np.zeros(3))
        eps = np.array([[0.3, -1.2, 0.7]])
        np.testing.assert_array_equal(m.reparameterize(g, eps).value, eps)

    def test_monte_carlo_moments(self):
        # moment oracle over 10^5 draws
        mu, lv = np.array([0.4, -1.0]), np.array([-0.7, 0.9])
        g = m.DiagGaussian(
            ad.constant(np.tile(mu, (100_000, 1))), ad.constant(np.tile(lv, (100_000, 1)))
        )
        eps = np.random.default_rng(8).standard_normal((100_000, 2))
        draws = m.reparameterize(g, eps).value
        assert np.abs(draws.mean(axis=0) - mu).max() < 0.02
        assert np.abs(draws.var(axis=0) / np.exp(lv) - 1.0).max() < 0.05


class TestKl:
    def test_identical_distributions_zero(self):
        g = gaussian([0.3, -0.4], [0.2, -0.1])
        h = gaussian([0.3, -0.4], [0.2, -0.1])
        assert m.kl_diag(g, h).item() == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_half(self):
        # hand-derived closed form: KL(N(1,1) || N(0,1)) = 0.5
        assert m.kl_diag(gaussian([1.0], [0.0]), gaussian([0.0], [0.0])).item() == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        mu_q, mu_p = rng.normal(size=4), rng.normal(size=4)
        lv_q, lv_p = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        exact = m.kl_diag(gaussian(mu_q, lv_q), gaussian(mu_p, lv_p)).item()
        est, se = kl_monte_carlo(mu_q, lv_q, mu_p, lv_p, n=200_000, seed=3)
        assert abs(exact - est) < 3 * se

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        q = gaussian(rng.normal(size=3) * 3, rng.uniform(-5, 5, 3))
        p = gaussian(rng.normal(size=3) * 3, rng.uniform(-5, 5, 3))
        assert m.kl_diag(q, p).item() >= 0.0

    def test_differentiable_wrt_both(self):
        rng = np.random.default_rng(2)
        params = [ad.parameter(rng.normal(size=(1, 3))) for _ in range(4)]

        def f():
            q = m.DiagGaussian(params[0], ad.clip(params[1], -15, 15))
            p = m.DiagGaussian(params[2], ad.clip(params[3], -15, 15))
            return m.kl_diag(q, p)

        assert finite_diff_check(f, params) < 1e-6


class TestBernoulli:
    def test_half_probability(self):
        # logit 0 is probability 0.5
        ll = m.bernoulli_loglik([[1.0]], ad.constant([[0.0]]))
        assert ll.item() == pytest.approx(np.log(0.5), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        # a perfect prediction sits at the clamp: p = 1 - 1e-7 per entry
        t = np.array([[1.0, 0.0, 1.0]])
        for z in (2 * t - 1) * m.LOGIT_CLAMP, (2 * t - 1) * 100.0:
            ll = m.bernoulli_loglik(t, ad.constant(z))
            assert ll.item() == pytest.approx(3 * np.log1p(-m.PROB_EPS), rel=1e-6)
            assert abs(ll.item()) < 1e-6

    def test_vector_decomposes_into_scalars(self):
        rng = np.random.default_rng(14)
        t = rng.integers(0, 2, (1, 8)).astype(float)
        z = logit(rng.uniform(0.05, 0.95, (1, 8)))
        whole = m.bernoulli_loglik(t, ad.constant(z)).item()
        parts = sum(
            m.bernoulli_loglik([[t[0, i]]], ad.constant([[z[0, i]]])).item()
            for i in range(8)
        )
        assert whole == pytest.approx(parts, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="bernoulli"):
            m.bernoulli_loglik([[1.0, 0.0]], ad.constant([[0.0]]))

    @pytest.mark.parametrize("binary", [True, False])
    def test_matches_probability_form(self, binary):
        rng = np.random.default_rng(31)
        z = rng.uniform(-12.0, 12.0, (5, 7))
        t = (rng.integers(0, 2, z.shape).astype(float) if binary
             else rng.uniform(0.0, 1.0, z.shape))
        p = expit(z)
        want = (t * np.log(p) + (1 - t) * np.log1p(-p)).sum()
        got = m.bernoulli_loglik(t, ad.constant(z)).item()
        assert got == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        z = ad.parameter(rng.uniform(-6.0, 6.0, (3, 4)))
        t = rng.integers(0, 2, (3, 4)).astype(float)
        err = finite_diff_check(lambda: ad.scale(m.bernoulli_loglik(t, z), 1.5), [z])
        assert err < 1e-6

    def test_gradient_is_residual_inside_clamp_and_zero_beyond(self):
        t = np.array([[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
        c = m.LOGIT_CLAMP
        z = ad.parameter([[1.5, -0.5, c + 1e-9, -c - 1e-9, 40.0, -40.0]])
        ad.backward(m.bernoulli_loglik(t, z))
        np.testing.assert_array_equal(z.grad[0, 2:], 0.0)
        np.testing.assert_allclose(z.grad[0, :2], t[0, :2] - expit(z.value[0, :2]),
                                   rtol=1e-15)

    def test_nan_logits_give_nan_without_warning(self):
        t = np.array([[1.0, 0.0, 1.0]])
        z = ad.parameter([[0.3, np.nan, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll = m.bernoulli_loglik(t, z)
            ad.backward(ll)
        assert np.isnan(ll.item())


class TestObjective:
    def test_kl_terms_non_negative_in_loss(self):
        model = tiny_model(seed=5)
        batch = random_batch(model, np.random.default_rng(6))
        q_u = m.infer(model.inf_user, batch.user_feats, batch.user_rows)
        p_u = m.prior(model.prior_user, batch.user_feats)
        assert m.kl_diag(q_u, p_u).item() >= 0.0

    def test_untrained_model_finite_loss_and_grads(self):
        model = tiny_model(seed=7)
        loss = m.batch_objective(model, random_batch(model, np.random.default_rng(8)))
        assert np.isfinite(loss.item())
        ad.backward(loss)
        for name, p in model.named_parameters().items():
            if p.grad is not None:
                assert np.isfinite(p.grad).all(), name

    def test_k4_with_duplicated_noise_equals_k1(self):
        model = tiny_model(seed=11)
        k1 = random_batch(model, np.random.default_rng(12), n_pairs=3)
        k4 = m.PairBatch(**{**k1.__dict__,
                            "eps_user": np.repeat(k1.eps_user, 4, axis=0),
                            "eps_item": np.repeat(k1.eps_item, 4, axis=0)})
        assert k4.k == 4
        assert m.batch_objective(model, k4).item() == pytest.approx(
            m.batch_objective(model, k1).item(), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # seed chosen so no relu kink sits within the +-h probe window
        model = tiny_model(seed=0)
        batch = random_batch(model, np.random.default_rng(100), n_pairs=3, k=2)
        params = model.parameters()
        err = finite_diff_check(lambda: m.batch_objective(model, batch), params)
        assert err < 1e-4

    def test_disabled_priors_ignore_side_info(self):
        # with both priors off, permuting side-info rows leaves the loss
        # bit-identical
        model = tiny_model(seed=15, use_user_prior=False, use_item_prior=False)
        rng = np.random.default_rng(16)
        batch = random_batch(model, rng, n_pairs=5)
        base = m.batch_objective(model, batch).item()
        perm = np.random.default_rng(17).permutation(5)
        shuffled = m.PairBatch(
            users=batch.users,
            items=batch.items,
            labels=batch.labels,
            user_feats=batch.user_feats[perm],
            item_feats=batch.item_feats[perm],
            user_rows=batch.user_rows,
            item_cols=batch.item_cols,
            user_targets=batch.user_targets,
            item_targets=batch.item_targets,
            eps_user=batch.eps_user,
            eps_item=batch.eps_item,
        )
        assert m.batch_objective(model, shuffled).item() == base

    def test_variance_collapse_matches_plugin_mean(self):
        # log_var = -15 pins the std at exp(-7.5) ~ 5.5e-4, so draws sit on
        # the mean up to |eps| * 5.5e-4
        model = tiny_model(seed=21)
        rng = np.random.default_rng(22)
        g = m.DiagGaussian(
            ad.constant(rng.normal(size=(4, 3))), ad.constant(np.full((4, 3), -15.0))
        )
        eps = rng.standard_normal((4, 3))
        draws = m.reparameterize(g, eps).value
        np.testing.assert_allclose(
            draws, g.mean.value, atol=np.abs(eps).max() * np.exp(-7.5) * 1.001
        )


class TestElboBound:
    def test_bound_below_importance_sampled_evidence(self):
        # on a 4x4 instance the (negated) objective must stay below the
        # log-evidence of the joint, estimated by importance sampling from
        # the priors with 10^5 samples
        d = m.ModelDims(4, 4, 3, 3, 2, prior_hidden=6, inference_hidden=(8, 6),
                        decoder_hidden=(6, 8))
        rng = np.random.default_rng(33)
        model = m.build_model(d, rng)
        R = (rng.random((4, 4)) < 0.5).astype(float)
        F = rng.normal(size=(4, 3))
        G = rng.normal(size=(4, 3))

        users, items = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        users, items = users.ravel(), items.ravel()
        k = 256
        batch = m.PairBatch(
            users=users,
            items=items,
            labels=R[users, items].reshape(-1, 1),
            user_feats=F[users],
            item_feats=G[items],
            user_rows=R[users],
            item_cols=R.T[items],
            user_targets=R[users],
            item_targets=R.T[items],
            eps_user=rng.standard_normal((16 * k, 2)),
            eps_item=rng.standard_normal((16 * k, 2)),
        )
        elbo = -m.batch_objective(model, batch).item() * 16  # undo the 1/E mean

        # importance sampling with the priors as proposal: the integrand is
        # prod_ij p(u_i|f_i) p(R_i.|u_i) p(v_j|g_j) p(R_.j|v_j) p(R_ij|u_i,v_j),
        # so log w = sum_i (N-1) log p(u_i|f_i) + N log p(R_i.|u_i) + (item
        # side symmetric) + sum_ij log p(R_ij|..)
        n_samples = 100_000
        mu_u, lv_u = model.prior_user.forward_values(F)
        mu_v, lv_v = model.prior_item.forward_values(G)
        is_rng = np.random.default_rng(34)

        def log_normal(x, mu, lv):
            return (-0.5 * (np.log(2 * np.pi) + lv + (x - mu) ** 2 / np.exp(lv))).sum(-1)

        log_w = np.zeros(n_samples)
        u_all = mu_u + np.exp(0.5 * lv_u) * is_rng.standard_normal((n_samples, 4, 2))
        v_all = mu_v + np.exp(0.5 * lv_v) * is_rng.standard_normal((n_samples, 4, 2))
        for i in range(4):
            probs = model.dec_user.forward_values(u_all[:, i, :])
            ll = np.log(np.where(R[i] > 0, probs, 1 - probs).clip(m.PROB_EPS)).sum(-1)
            log_w += 3 * log_normal(u_all[:, i, :], mu_u[i], lv_u[i]) + 4 * ll
        for j in range(4):
            probs = model.dec_item.forward_values(v_all[:, j, :])
            ll = np.log(np.where(R.T[j] > 0, probs, 1 - probs).clip(m.PROB_EPS)).sum(-1)
            log_w += 3 * log_normal(v_all[:, j, :], mu_v[j], lv_v[j]) + 4 * ll
        for i in range(4):
            for j in range(4):
                probs = model.interact.forward_values(
                    np.hstack([u_all[:, i, :], v_all[:, j, :]])
                )[:, 0]
                log_w += np.log((probs if R[i, j] > 0 else 1 - probs).clip(m.PROB_EPS))

        shift = log_w.max()
        w = np.exp(log_w - shift)
        log_z = shift + np.log(w.mean())
        se_log_z = w.std(ddof=1) / np.sqrt(n_samples) / w.mean()
        assert elbo <= log_z + 2 * se_log_z


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=40, use_item_prior=False)
        path = tmp_path / "model.npz"
        m.save_checkpoint(model, path, seed=123, step=77)
        loaded, meta = m.load_checkpoint(path)
        assert meta["seed"] == 123 and meta["step"] == 77
        assert loaded.use_user_prior and not loaded.use_item_prior
        assert loaded.dims == model.dims
        for name, node in model.named_parameters().items():
            np.testing.assert_array_equal(loaded.named_parameters()[name].value, node.value)

    def test_load_keeps_arrays_and_layout_without_drawing(self, tmp_path, monkeypatch):
        model = tiny_model(seed=41)
        path = tmp_path / "model.npz"
        m.save_checkpoint(model, path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialisation")

        # Generator methods cannot be patched; every random weight comes from init
        monkeypatch.setattr(ad.LayerParams, "init", no_init)
        loaded, _ = m.load_checkpoint(path)
        saved = model.named_parameters()
        assert loaded.named_parameters().keys() == saved.keys()
        for name, node in loaded.named_parameters().items():
            np.testing.assert_array_equal(node.value, saved[name].value)
            assert node.value.dtype == np.float64
            flags = (node.value.flags.c_contiguous, node.value.flags.f_contiguous)
            assert flags == (saved[name].value.flags.c_contiguous,
                             saved[name].value.flags.f_contiguous), name
        assert not loaded.inf_user.trunk[0].weight.value.flags.c_contiguous

    def test_wrong_shape_is_malformed(self, tmp_path):
        path = tmp_path / "model.npz"
        m.save_checkpoint(tiny_model(seed=42), path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["interact.layer1.weight"] = arrays["interact.layer1.weight"][:, :-1]
        np.savez(path, **arrays)
        with pytest.raises(DataError, match="malformed model checkpoint.*interact.layer1"):
            m.load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(DataError, match="not a model checkpoint"):
            m.load_checkpoint(path)

    def test_variant_names(self):
        assert tiny_model().variant == "nvh"
        assert tiny_model(use_user_prior=False, use_item_prior=False).variant == "nvh-n"
        assert tiny_model(use_item_prior=False).variant == "nvh-u"
        assert tiny_model(use_user_prior=False).variant == "nvh-i"
