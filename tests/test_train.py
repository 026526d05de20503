import json

import numpy as np
import pytest

from cvrec import autodiff as ad
from cvrec import model as mdl
from cvrec import train as tr
from cvrec.data import sample_minibatch
from cvrec.synthetic import block_dataset, structural_negatives

from conftest import small_config


def make_batch(dataset, config, sample_seed=1, noise_seed=2):
    users, items, labels = sample_minibatch(
        dataset.train, config.batch_positives, config.neg_ratio,
        np.random.default_rng(sample_seed),
    )
    return tr.assemble_batch(
        dataset.train, dataset.side, users, items, labels,
        np.random.default_rng(noise_seed), k=config.mc_samples,
        latent_dim=config.latent_dim,
    )


def build_model_for(dataset, config, seed=0):
    dims = mdl.ModelDims(
        dataset.train.n_users, dataset.train.n_items,
        dataset.side.user_dim, dataset.side.item_dim,
        config.latent_dim, config.prior_hidden,
        config.inference_hidden, config.decoder_hidden,
    )
    return mdl.build_model(dims, np.random.default_rng(seed))


class TestConfig:
    def test_defaults_match_reference_setup(self):
        c = tr.TrainConfig()
        assert c.neg_ratio == 5
        assert c.latent_dim == 128
        assert c.batch_positives * (1 + c.neg_ratio) == 126  # minibatch ~ 128
        assert c.mc_samples == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(batch_positives=0)
        with pytest.raises(ValueError):
            tr.TrainConfig(neg_ratio=-1)
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("key", ["latent_dim", "mc_samples", "val_samples"])
    def test_zero_samples_or_dims_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            tr.TrainConfig(**{key: 0})
        with pytest.raises(ValueError, match=key):
            tr.TrainConfig.from_dict({key: -3})

    def test_partial_dict_falls_back_to_defaults(self, caplog):
        with caplog.at_level("INFO"):
            c = tr.TrainConfig.from_dict({"neg_ratio": 3})
        assert c.neg_ratio == 3 and c.latent_dim == 128
        assert any("missing" in r.message for r in caplog.records)

    def test_batch_size_alias(self):
        c = tr.TrainConfig.from_dict({"batch_size": 128, "neg_ratio": 5})
        assert c.batch_positives == 21

    def test_unknown_keys_warned(self, caplog):
        with caplog.at_level("WARNING"):
            tr.TrainConfig.from_dict({"negratio_typo": 3})
        assert any("unknown" in r.message for r in caplog.records)

    def test_json_round_trip(self, tmp_path):
        c = tr.TrainConfig(latent_dim=16, inference_hidden=(32, 8))
        p = tmp_path / "c.json"
        p.write_text(c.to_json())
        assert tr.TrainConfig.from_file(p) == c

    def test_fingerprint_sensitive_to_config(self):
        a = tr.TrainConfig(seed=1).fingerprint()
        b = tr.TrainConfig(seed=2).fingerprint()
        assert a != b and len(a) == 12


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = ad.parameter(np.ones((2, 2)))
        p.grad = np.zeros((2, 2))
        state = tr.AdamState()
        tr.adam_step({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.value, np.ones((2, 2)))

    def test_first_step_magnitude_is_lr(self):
        # closed form: with constant gradient g, bias-corrected step 1 moves
        # each coordinate by lr * g / (|g| + eps) ~ lr * sign(g)
        p = ad.parameter(np.zeros((1, 3)))
        p.grad = np.array([[0.5, -2.0, 10.0]])
        tr.adam_step({"p": p}, tr.AdamState(), lr=0.01)
        np.testing.assert_allclose(p.value, [[-0.01, 0.01, -0.01]], rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        # minimize sum((x - 1)^2): oracle minimum x = 1
        p = ad.parameter(np.zeros((1, 4)))
        state = tr.AdamState()
        for _ in range(500):
            diff = ad.add_scalar(p, -1.0)
            loss = ad.sum_all(ad.mul(diff, diff))
            ad.zero_grads([p])
            ad.backward(loss)
            tr.adam_step({"p": p}, state, lr=0.01)
        np.testing.assert_allclose(p.value, np.ones((1, 4)), atol=1e-2)

    def test_shape_mismatch(self):
        p = ad.parameter(np.ones((2, 2)))
        p.grad = np.zeros((2, 3))
        with pytest.raises(ValueError, match="adam_step"):
            tr.adam_step({"p": p}, tr.AdamState(), lr=0.1)

    def test_gradient_clipping(self):
        p = ad.parameter(np.zeros((1, 2)))
        p.grad = np.array([[3.0, 4.0]])  # norm 5
        norm = tr.clip_gradients([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [[0.6, 0.8]])


class TestMinibatchLoss:
    def test_duplicated_batch_same_loss(self):
        dataset = block_dataset(seed=6)
        config = small_config()
        model = build_model_for(dataset, config, seed=7)
        batch = make_batch(dataset, config)
        dup = mdl.PairBatch(
            users=np.tile(batch.users, 2),
            items=np.tile(batch.items, 2),
            labels=np.tile(batch.labels, (2, 1)),
            user_feats=np.vstack([batch.user_feats.toarray()] * 2),
            item_feats=np.vstack([batch.item_feats.toarray()] * 2),
            user_rows=np.vstack([batch.user_rows.toarray()] * 2),
            item_cols=np.vstack([batch.item_cols.toarray()] * 2),
            user_targets=np.vstack([batch.user_targets] * 2),
            item_targets=np.vstack([batch.item_targets] * 2),
            eps_user=np.vstack([batch.eps_user] * 2),
            eps_item=np.vstack([batch.eps_item] * 2),
        )
        a = mdl.batch_objective(model, batch).item()
        b = mdl.batch_objective(model, dup).item()
        assert b == pytest.approx(a, rel=1e-12)

    def test_order_invariant_with_frozen_noise(self):
        dataset = block_dataset(seed=8)
        config = small_config()
        model = build_model_for(dataset, config, seed=9)
        batch = make_batch(dataset, config)
        perm = np.random.default_rng(10).permutation(batch.size)
        shuffled = mdl.PairBatch(
            users=batch.users[perm],
            items=batch.items[perm],
            labels=batch.labels[perm],
            user_feats=batch.user_feats[perm],
            item_feats=batch.item_feats[perm],
            user_rows=batch.user_rows[perm],
            item_cols=batch.item_cols[perm],
            user_targets=batch.user_targets[perm],
            item_targets=batch.item_targets[perm],
            eps_user=batch.eps_user[perm],
            eps_item=batch.eps_item[perm],
        )
        a = mdl.batch_objective(model, batch).item()
        b = mdl.batch_objective(model, shuffled).item()
        assert b == pytest.approx(a, rel=1e-12)

    def test_empty_batch_rejected(self):
        dataset = block_dataset(seed=3)
        model = build_model_for(dataset, small_config(), seed=4)
        empty = mdl.PairBatch(
            users=np.empty(0, dtype=int), items=np.empty(0, dtype=int),
            labels=np.empty((0, 1)), user_feats=np.empty((0, 6)),
            item_feats=np.empty((0, 6)), user_rows=np.empty((0, 30)),
            item_cols=np.empty((0, 20)), user_targets=np.empty((0, 30)),
            item_targets=np.empty((0, 20)), eps_user=np.empty((0, 8)),
            eps_item=np.empty((0, 8)),
        )
        with pytest.raises(ValueError, match="empty"):
            mdl.batch_objective(model, empty)

    def test_gradient_matches_finite_differences(self):
        # frozen batch + frozen noise; hidden layers stay >= 10 wide so no
        # all-dead relu layer parks a downstream pre-activation exactly on
        # the kink (zero-init biases put it there otherwise)
        dataset = block_dataset(n_users=6, n_items=8, feat_dim=4, seed=12,
                                n_negatives=3)
        config = small_config(batch_positives=4, neg_ratio=2, latent_dim=4,
                              prior_hidden=10, inference_hidden=(12, 10),
                              decoder_hidden=(10, 12))
        model = build_model_for(dataset, config, seed=3)
        batch = make_batch(dataset, config, sample_seed=53, noise_seed=83)
        err = ad.finite_diff_check(
            lambda: mdl.batch_objective(model, batch), model.parameters()
        )
        assert err < 1e-4


class TestFit:
    def test_overfits_synthetic_blocks(self, trained_block):
        dataset, result = trained_block
        losses = [h["loss"] for h in result.history]
        assert losses[-1] < 0.5 * losses[0]  # >= 50% loss reduction

        # trained positives score high, cross-block negatives low
        from cvrec import predict

        users, items = dataset.train.pairs()
        u_mean, u_lv = predict.user_posterior(
            result.model, dataset.train, dataset.side, users
        )
        v_mean, v_lv = predict.item_posterior(
            result.model, dataset.train, dataset.side, items
        )
        probs = result.model.interact.forward_values(np.hstack([u_mean, v_mean]))
        assert probs.mean() > 0.9
        nu, ni = structural_negatives(dataset)
        nu_mean, _ = predict.user_posterior(result.model, dataset.train, dataset.side, nu)
        ni_mean, _ = predict.item_posterior(result.model, dataset.train, dataset.side, ni)
        neg_probs = result.model.interact.forward_values(np.hstack([nu_mean, ni_mean]))
        assert neg_probs.mean() < 0.5

    def test_loss_history_smoothed_non_increasing(self, trained_block):
        # non-increasing up to minibatch sampling noise at the converged floor
        _, result = trained_block
        losses = np.array([h["loss"] for h in result.history])
        window = 10
        smoothed = np.convolve(losses, np.ones(window) / window, mode="valid")
        noise = 4 * losses[-20:].std() / np.sqrt(window)
        assert (np.diff(smoothed) <= noise + 1e-9).all()

    def test_neg_ratio_zero_predicts_ones(self):
        dataset = block_dataset(seed=21)
        config = small_config(neg_ratio=0, max_epochs=30, seed=3)
        result = tr.fit(dataset, config)
        from cvrec import predict

        users, items = dataset.train.pairs()
        u_mean, _ = predict.user_posterior(result.model, dataset.train, dataset.side, users)
        v_mean, _ = predict.item_posterior(result.model, dataset.train, dataset.side, items)
        probs = result.model.interact.forward_values(np.hstack([u_mean, v_mean]))
        assert probs.mean() > 0.9

    def test_fixed_seed_bit_identical_history(self):
        dataset = block_dataset(seed=22)
        config = small_config(max_epochs=3, seed=19)
        h1 = tr.fit(dataset, config).history
        h2 = tr.fit(dataset, config).history
        assert h1 == h2

    def test_early_stop_returns_best_validation_epoch(self):
        dataset = block_dataset(seed=23)
        config = small_config(max_epochs=12, patience=3, val_users=10, seed=4)
        result = tr.fit(dataset, config)
        hrs = [h["val_hr5"] for h in result.history]
        assert result.best_val_hr == max(hrs)
        assert result.history[result.best_epoch - 1]["val_hr5"] == max(hrs)

    def test_divergence_raises_with_step(self):
        dataset = block_dataset(seed=24)
        config = small_config(max_epochs=2, seed=5)
        model = build_model_for(dataset, config, seed=6)
        # poison the output bias so the first loss is already non-finite
        # (a poisoned hidden weight can hide behind a dead relu for a step)
        model.interact.layers_list[-1].bias.value[0, 0] = np.nan
        with pytest.raises(tr.TrainingDiverged, match="step 1"):
            tr.fit(dataset, config, model=model)

    def test_history_csv_format(self, tmp_path):
        path = tmp_path / "history.csv"
        tr.write_history(
            [{"epoch": 1, "loss": 2.5, "val_hr5": 0.1, "val_ndcg5": 0.05}], path, seed=7
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "epoch,loss,val_hr5,val_ndcg5"
        assert lines[2].startswith("1,2.5")
