import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrec import autodiff as ad


def matmul_oracle(x, w, b):
    """Independent triple-loop affine: out[r, o] = sum_k w[o, k] x[r, k] + b[o]."""
    rows, in_dim = x.shape
    out_dim = w.shape[0]
    out = np.zeros((rows, out_dim))
    for r in range(rows):
        for o in range(out_dim):
            acc = b[0, o]
            for k in range(in_dim):
                acc += w[o, k] * x[r, k]
            out[r, o] = acc
    return out


def make_layer(rng, in_dim, out_dim, bias_init=0.0):
    return ad.LayerParams.init(in_dim, out_dim, rng, bias_init=bias_init)


class TestAffine:
    def test_identity_weight(self):
        layer = ad.LayerParams(ad.parameter(np.eye(2)), ad.parameter(np.zeros((1, 2))))
        out = ad.affine(ad.constant([[1.0, 2.0]]), layer)
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_forced_bias(self):
        layer = ad.LayerParams(ad.parameter([[1.0, 1.0]]), ad.parameter([[-2.0]]))
        out = ad.affine(ad.constant([[1.0, 1.0]]), layer)
        np.testing.assert_array_equal(out.value, [[0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(3, 4))
        layer = make_layer(rng, 4, 5, bias_init=0.3)
        got = ad.affine(ad.constant(x), layer).value
        want = matmul_oracle(x, layer.weight.value, layer.bias.value)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        rng = np.random.default_rng(0)
        layer = make_layer(rng, 4, 2)
        with pytest.raises(ValueError, match=r"\(1, 3\).*\(2, 4\)"):
            ad.affine(ad.constant(np.zeros((1, 3))), layer)

    def test_sparse_input_matches_dense(self):
        from scipy import sparse

        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 10)) * (rng.random((6, 10)) < 0.3)
        layer = make_layer(rng, 10, 4)
        dense = ad.affine(ad.constant(x), layer)
        sp = ad.affine(sparse.csr_array(x), layer)
        np.testing.assert_allclose(sp.value, dense.value, atol=1e-12)
        # gradients to the layer must agree too
        ad.backward(ad.sum_all(dense))
        gw_dense = layer.weight.grad.copy()
        ad.zero_grads(layer.parameters())
        ad.backward(ad.sum_all(sp))
        np.testing.assert_allclose(layer.weight.grad, gw_dense, atol=1e-12)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity_without_bias(self, a, b):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3))
        y = rng.normal(size=(2, 3))
        layer = make_layer(rng, 3, 4)  # bias zero by default
        lhs = ad.affine(ad.constant(a * x + b * y), layer).value
        rhs = a * ad.affine(ad.constant(x), layer).value + b * ad.affine(
            ad.constant(y), layer
        ).value
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestActivations:
    def test_relu_values(self):
        out = ad.relu(ad.constant([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_relu_gradient_mask(self):
        x = ad.parameter([[-1.0, 0.0, 2.0]])
        ad.backward(ad.sum_all(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant([[0.0]])).item() == 0.5

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_symmetry(self, x):
        s = ad.sigmoid(ad.constant([[x]])).item()
        s_neg = ad.sigmoid(ad.constant([[-x]])).item()
        assert s + s_neg == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < s < 1.0

    def test_exp_clamps_input(self):
        out = ad.exp(ad.constant([[100.0, -100.0, 1.0]]))
        np.testing.assert_allclose(
            out.value, [[np.exp(15.0), np.exp(-15.0), np.e]], rtol=1e-15
        )

    def test_exp_gradient_zero_in_clamped_region(self):
        x = ad.parameter([[100.0, 1.0]])
        ad.backward(ad.sum_all(ad.exp(x)))
        np.testing.assert_allclose(x.grad, [[0.0, np.e]], rtol=1e-15)

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_no_nan_for_bounded_inputs(self, x):
        v = ad.constant([[x]])
        for op in (ad.relu, ad.sigmoid, ad.exp):
            assert np.isfinite(op(v).value).all()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sigmoid_slope_quarter(self):
        # loss = sigmoid(w * x) at w=0, x=1: dloss/dw = sigma'(0) = 1/4
        w = ad.parameter([[0.0]])
        loss = ad.sigmoid(ad.mul(w, ad.constant([[1.0]])))
        ad.backward(loss)
        assert w.grad[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(x)

    def test_gradient_additivity(self):
        # backward on a sum of two losses == sum of separate backward passes
        rng = np.random.default_rng(11)
        w = ad.parameter(rng.normal(size=(3, 3)))

        def loss_a():
            return ad.sum_all(ad.relu(ad.mul(w, w)))

        def loss_b():
            return ad.sum_all(ad.sigmoid(w))

        ad.backward(ad.add(loss_a(), loss_b()))
        combined = w.grad.copy()
        ad.zero_grads([w])
        ad.backward(loss_a())
        ga = w.grad.copy()
        ad.zero_grads([w])
        ad.backward(loss_b())
        gb = w.grad.copy()
        np.testing.assert_allclose(combined, ga + gb, atol=1e-12)

    def test_reused_node_accumulates(self):
        # y = x + x  =>  dy/dx = 2
        x = ad.parameter([[3.0]])
        ad.backward(ad.sum_all(ad.add(x, x)))
        assert x.grad[0, 0] == 2.0

    def test_two_layer_net_against_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 3))
        l1 = make_layer(rng, 3, 5, bias_init=0.1)
        l2 = make_layer(rng, 5, 2, bias_init=-0.1)
        params = l1.parameters() + l2.parameters()

        def f():
            h = ad.relu(ad.affine(ad.constant(x), l1))
            return ad.sum_all(ad.sigmoid(ad.affine(h, l2)))

        assert ad.finite_diff_check(f, params) < 1e-4


class TestConcatRepeat:
    def test_concat_splits_gradient(self):
        a = ad.parameter(np.ones((2, 2)))
        b = ad.parameter(np.ones((2, 3)))
        cat = ad.concat_cols([a, b])
        assert cat.value.shape == (2, 5)
        weights = np.arange(10.0).reshape(2, 5)
        ad.backward(ad.sum_all(ad.mul(cat, ad.constant(weights))))
        np.testing.assert_array_equal(a.grad, weights[:, :2])
        np.testing.assert_array_equal(b.grad, weights[:, 2:])

    def test_repeat_rows_sums_adjoint(self):
        x = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
        rep = ad.repeat_rows(x, 3)
        assert rep.value.shape == (6, 2)
        ad.backward(ad.sum_all(rep))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))

    def test_clip_gradient_mask(self):
        x = ad.parameter([[-2.0, 0.5, 2.0]])
        ad.backward(ad.sum_all(ad.clip(x, -1.0, 1.0)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


class TestNoGrad:
    def test_node_built_inside_has_no_parents(self):
        layer = ad.LayerParams(ad.parameter(np.ones((2, 2))), ad.parameter(np.zeros((1, 2))))
        with ad.no_grad():
            out = ad.relu(ad.affine(np.ones((1, 2)), layer))
        assert out.parents == ()
        assert not out.needs_grad
        np.testing.assert_array_equal(out.value, [[2.0, 2.0]])

    def test_recording_resumes_after_block(self):
        x = ad.parameter([[1.0, -2.0]])
        with ad.no_grad():
            ad.relu(x)
        out = ad.relu(x)
        assert out.parents == (x,)
        ad.backward(ad.sum_all(out))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])

    def test_recording_resumes_after_exception(self):
        x = ad.parameter([[1.0]])
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.scale(x, 2.0).parents == (x,)

    def test_nested_blocks_restore_outer_state(self):
        x = ad.parameter([[1.0]])
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.scale(x, 2.0).parents == ()
        assert ad.scale(x, 2.0).parents == (x,)


class TestFiniteDiffCheck:
    def test_quadratic(self):
        w = ad.parameter([[3.0]])

        def f():
            return ad.mul(w, w)

        assert ad.finite_diff_check(f, [w]) < 1e-6

    def test_constant_function(self):
        w = ad.parameter([[2.0]])

        def f():
            return ad.constant([[7.0]])

        assert ad.finite_diff_check(f, [w]) == 0.0
