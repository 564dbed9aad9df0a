"""Kernel tests: forward oracles, gradient checks, edge cases."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import gru_weights_dict
from convmatch import nn
from convmatch.errors import ConfigError, NumericError
from convmatch.nn import GRUParams, MLPParams, Tensor


def _t(rng, *shape, grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=grad)


class TestPrimitives:
    def test_add_broadcast_grad(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 4)
        assert nn.grad_check(nn.add, [a, b], projection_rng=rng) < 1e-6

    def test_mul_matmul_grads(self, rng):
        a, b = _t(rng, 2, 3, 4), _t(rng, 4, 5)
        assert nn.grad_check(nn.matmul, [a, b], projection_rng=rng) < 1e-6
        c, d = _t(rng, 3, 4), _t(rng, 3, 4)
        assert nn.grad_check(nn.mul, [c, d], projection_rng=rng) < 1e-6

    def test_divide_sqrt_grads(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        assert nn.grad_check(nn.divide, [a, b], projection_rng=rng) < 1e-6
        assert nn.grad_check(nn.sqrt_op, [a], projection_rng=rng) < 1e-6

    def test_linear_op_near_exact(self, rng):
        a = _t(rng, 5)
        err = nn.grad_check(lambda x: nn.sum_op(nn.mul(x, 3.0)), [a])
        assert err <= 1e-9

    def test_concat_stack_index_grads(self, rng):
        a, b = _t(rng, 2, 3), _t(rng, 2, 5)
        assert nn.grad_check(lambda x, y: nn.concat([x, y], axis=1), [a, b],
                             projection_rng=rng) < 1e-6
        assert nn.grad_check(lambda x: nn.index(x, (slice(None), 1)), [a],
                             projection_rng=rng) < 1e-6
        c = _t(rng, 4)
        assert nn.grad_check(lambda x, y: nn.stack([x, y], axis=0), [c, _t(rng, 4)],
                             projection_rng=rng) < 1e-6

    def test_backward_needs_scalar_or_seed(self, rng):
        out = nn.mul(_t(rng, 3), 2.0)
        with pytest.raises(NumericError):
            out.backward()

    def test_gradient_accumulates_on_reuse(self, rng):
        a = _t(rng, 3)
        out = nn.sum_op(nn.add(a, a))
        out.backward()
        np.testing.assert_allclose(a.grad, 2.0 * np.ones(3))

    def test_no_grad_blocks_graph(self, rng):
        a = _t(rng, 3)
        with nn.no_grad():
            out = nn.sum_op(nn.mul(a, a))
        assert not out.requires_grad


class TestActivations:
    def test_sigmoid_matches_closed_form(self, rng):
        x = rng.standard_normal(100) * 10
        np.testing.assert_allclose(nn.sigmoid(Tensor(x)).values, 1 / (1 + np.exp(-x)),
                                   atol=1e-12)

    def test_activation_grads(self, rng):
        x = _t(rng, 4, 4)
        for op in (nn.sigmoid, nn.tanh_op, nn.square):
            assert nn.grad_check(op, [x], projection_rng=rng) < 1e-6

    def test_relu_grad_away_from_kink(self, rng):
        x = Tensor(np.where(np.abs(rng.standard_normal((4, 4))) < 0.01, 0.5,
                            rng.standard_normal((4, 4))), requires_grad=True)
        x.values[np.abs(x.values) < 1e-3] = 0.5  # kink exclusion
        assert nn.grad_check(nn.relu, [x], projection_rng=rng) < 1e-6


_UNARY = ("sigmoid", "tanh_op", "relu", "sqrt_op", "square")
_BINARY = ("add", "sub", "mul", "divide")
# a Python scalar stands for an operand that is not a Tensor
_BROADCASTS = [((3, 4), (4,)), ((4,), (3, 4)), ((3, 1), (1, 4)), (None, (3, 4)), ((3, 4), None)]


def _elementwise_input(rng, shape, positive: bool):
    """Values in +-[0.5, 2): away from relu's kink, and from zero where
    positive asks for a sqrt input or a denominator. None gives 1.5."""
    if shape is None:
        return 1.5
    magnitude = rng.uniform(0.5, 2.0, shape)
    sign = 1.0 if positive else rng.choice([-1.0, 1.0], shape)
    return Tensor(magnitude * sign, requires_grad=True)


def _elementwise_cases():
    cases = [pytest.param(name, ((3, 4),), id=name) for name in _UNARY]
    cases += [pytest.param(name, shapes, id=f"{name}-{shapes[0]}-{shapes[1]}")
              for name in _BINARY for shapes in _BROADCASTS]
    return cases


def _elementwise_inputs(name: str, shapes: tuple, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [_elementwise_input(rng, shape, positive=name == "sqrt_op" or
                               (name == "divide" and i == 1))
            for i, shape in enumerate(shapes)]


class TestElementwise:
    @pytest.mark.parametrize("name, shapes", _elementwise_cases())
    def test_grad_check(self, name, shapes):
        inputs = _elementwise_inputs(name, shapes, seed=5)
        err = nn.grad_check(getattr(nn, name), inputs,
                            projection_rng=np.random.default_rng(6))
        assert err < 1e-6

    # SHA-1 of the forward values, then of each input's gradient, on fixed
    # inputs that broadcast on both sides: gradients must keep every bit
    _DIGESTS = {
        "add": "133521998eb2a743af8fbb50aeb2222887da50a8",
        "sub": "a7796516b058b2b6417dfc42e181c170dd941d4d",
        "mul": "2e6e653219432a8fd65131b4514e1e25b873bb1d",
        "divide": "70505aa039a3bc1113047eb903df1e366790f5ab",
        "sigmoid": "5d3e614bc363c6ebea0295eed4687b96df641a7e",
        "tanh_op": "cf4f8b55989e5919258cf630ecc584f01b353794",
        "relu": "58db15967dc264ba309ed5302c804d418c802d2f",
        "sqrt_op": "c9542aa30bd6945c7118628a03f628e153dd5277",
        "square": "59e6188163b6d6cca498ce27ae7fcc304159b22a",
    }

    @staticmethod
    def _digest(name: str) -> str:
        shapes = ((2, 3, 1), (3, 4)) if name in _BINARY else ((2, 3, 4),)
        inputs = _elementwise_inputs(name, shapes, seed=11)
        out = getattr(nn, name)(*inputs)
        out.backward(np.random.default_rng(12).standard_normal(out.shape))
        h = hashlib.sha1(out.values.tobytes())
        for t in inputs:
            h.update(t.grad.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(_DIGESTS))
    def test_digest_pinned(self, name):
        assert self._digest(name) == self._DIGESTS[name]


class TestGruStep:
    def test_zero_weights_zero_state(self, rng):
        params = GRUParams(*[Tensor(np.zeros(s)) for s in
                             [(4, 3)] * 3 + [(4, 4)] * 3 + [(4,)] * 3])
        h = nn.gru_step(Tensor(rng.standard_normal(3)), Tensor(np.zeros(4)), params)
        np.testing.assert_array_equal(h.values, np.zeros(4))

    def test_saturated_update_gate_gives_candidate(self, rng):
        params = GRUParams.init(3, 4, rng, 0.3)
        params.b_z.values[...] = 50.0  # force z ~ 1
        x = Tensor(rng.standard_normal(3))
        h_prev = Tensor(rng.standard_normal(4))
        h = nn.gru_step(x, h_prev, params)
        cand = np.tanh(params.w_h.values @ x.values
                       + params.u_h.values @ (_sigmoid_np(
                           params.w_r.values @ x.values
                           + params.u_r.values @ h_prev.values
                           + params.b_r.values) * h_prev.values)
                       + params.b_h.values)
        np.testing.assert_allclose(h.values, cand, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = GRUParams.init(3, 3, rng, 0.8)
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(3)
        ours = nn.gru_step(Tensor(x), Tensor(h_prev), params).values
        ref = oracles.gru_step(x.tolist(), h_prev.tolist(), gru_weights_dict(params))
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_gradients(self, rng):
        params = GRUParams.init(3, 4, rng, 0.5)
        x, h = _t(rng, 3), _t(rng, 4)
        inputs = [x, h] + [getattr(params, n) for n in
                           ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")]
        err = nn.grad_check(lambda *args: nn.gru_step(args[0], args[1], params),
                            inputs, projection_rng=rng)
        assert err < 1e-6

    def test_batched_matches_loop(self, rng):
        params = GRUParams.init(3, 4, rng, 0.5)
        xs = rng.standard_normal((5, 3))
        hs = rng.standard_normal((5, 4))
        batched = nn.gru_step(Tensor(xs), Tensor(hs), params).values
        for i in range(5):
            single = nn.gru_step(Tensor(xs[i]), Tensor(hs[i]), params).values
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_gradients_batched_from_nonzero_state(self, rng):
        params = GRUParams.init(3, 4, rng, 0.5)
        x, h = _t(rng, 2, 5, 3), _t(rng, 2, 5, 4)
        assert np.abs(h.values).min() > 0.0
        err = nn.grad_check(lambda *args: nn.gru_step(args[0], args[1], params),
                            [x, h] + params.tensors(), projection_rng=rng)
        assert err < 1e-6

    def test_state_shape_must_match_input(self, rng):
        params = GRUParams.init(3, 4, rng, 0.5)
        with pytest.raises(ConfigError):
            nn.gru_step(Tensor(rng.standard_normal((5, 3))),
                        Tensor(rng.standard_normal(4)), params)


def _sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestBigru:
    def test_singleton_sequence(self, rng):
        fwd = GRUParams.init(3, 2, rng, 0.5)
        bwd = GRUParams.init(3, 2, rng, 0.5)
        seq = rng.standard_normal((1, 3))
        out = nn.bigru(Tensor(seq), fwd, bwd).values
        zero = Tensor(np.zeros(2))
        step_f = nn.gru_step(Tensor(seq[0]), zero, fwd).values
        step_b = nn.gru_step(Tensor(seq[0]), zero, bwd).values
        np.testing.assert_allclose(out[0], np.concatenate([step_f, step_b]), atol=1e-12)

    def test_palindrome_symmetry(self, rng):
        params = GRUParams.init(3, 2, rng, 0.5)
        row = rng.standard_normal(3)
        seq = np.stack([row, rng.standard_normal(3), row])
        seq[2] = seq[0]
        out = nn.bigru(Tensor(seq), params, params).values
        length, hidden2 = out.shape
        hidden = hidden2 // 2
        for t in range(length):
            mirrored = out[length - 1 - t]
            np.testing.assert_allclose(out[t][:hidden], mirrored[hidden:], atol=1e-12)
            np.testing.assert_allclose(out[t][hidden:], mirrored[:hidden], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_unrolled_oracle(self, seed):
        rng = np.random.default_rng(seed)
        fwd = GRUParams.init(2, 3, rng, 0.6)
        bwd = GRUParams.init(2, 3, rng, 0.6)
        seq = rng.standard_normal((4, 2))
        ours = nn.bigru(Tensor(seq), fwd, bwd).values
        ref = oracles.bigru_sequence(seq.tolist(), gru_weights_dict(fwd),
                                     gru_weights_dict(bwd), hidden=3)
        np.testing.assert_allclose(ours, np.array(ref), atol=1e-12)

    def test_gradients(self, rng):
        fwd = GRUParams.init(2, 2, rng, 0.5)
        bwd = GRUParams.init(2, 2, rng, 0.5)
        seq = _t(rng, 3, 2)
        err = nn.grad_check(lambda *args: nn.bigru(args[0], fwd, bwd),
                            [seq, fwd.w_z, fwd.u_h, bwd.b_r], projection_rng=rng)
        assert err < 1e-6

    def test_gradients_batched_3d(self, rng):
        fwd = GRUParams.init(3, 2, rng, 0.5)
        bwd = GRUParams.init(3, 2, rng, 0.5)
        seq = _t(rng, 2, 4, 3)
        err = nn.grad_check(lambda *args: nn.bigru(args[0], fwd, bwd),
                            [seq] + fwd.tensors() + bwd.tensors(), projection_rng=rng)
        assert err < 1e-6

    def test_batched_rows_match_single_rows(self, rng):
        fwd = GRUParams.init(3, 2, rng, 0.5)
        bwd = GRUParams.init(3, 2, rng, 0.5)
        seqs = rng.standard_normal((2, 3, 5, 3))
        batched = nn.bigru(Tensor(seqs), fwd, bwd).values
        assert batched.shape == (2, 3, 5, 4)
        for i in range(2):
            for j in range(3):
                single = nn.bigru(Tensor(seqs[i, j]), fwd, bwd).values
                np.testing.assert_allclose(batched[i, j], single, rtol=1e-12, atol=0)


class TestInteractionMatrix:
    def test_one_hot_dot(self):
        eye = np.eye(3)
        out = nn.interaction_matrix(Tensor(eye), Tensor(eye), "dot").values
        np.testing.assert_array_equal(out, eye)

    def test_cosine_scale_invariant(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        base = nn.interaction_matrix(Tensor(a), Tensor(b), "cosine").values
        scaled = nn.interaction_matrix(Tensor(3.0 * a), Tensor(b), "cosine").values
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_cosine_zero_row_is_zero(self, rng):
        a = rng.standard_normal((2, 3))
        a[0] = 0.0
        out = nn.interaction_matrix(Tensor(a), Tensor(rng.standard_normal((2, 3))),
                                    "cosine").values
        np.testing.assert_array_equal(out[0], np.zeros(2))

    def test_bilinear_identity_equals_dot(self, rng):
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        dot = nn.interaction_matrix(Tensor(a), Tensor(b), "dot").values
        bil = nn.interaction_matrix(Tensor(a), Tensor(b), "bilinear",
                                    bilinear=Tensor(np.eye(3))).values
        np.testing.assert_allclose(bil, dot, atol=1e-12)

    def test_bilinear_requires_matrix(self, rng):
        with pytest.raises(ConfigError):
            nn.interaction_matrix(_t(rng, 2, 3), _t(rng, 2, 3), "bilinear")

    def test_gradients_all_modes(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 2, 4)
        m = _t(rng, 4, 4)
        for mode in ("dot", "cosine"):
            err = nn.grad_check(lambda x, y: nn.interaction_matrix(x, y, mode),
                                [a, b], projection_rng=rng)
            assert err < 1e-6
        err = nn.grad_check(lambda x, y, z: nn.interaction_matrix(x, y, "bilinear", z),
                            [a, b, m], projection_rng=rng)
        assert err < 1e-6


class TestConv2d:
    def test_zero_kernel_constant_bias(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        kernels = Tensor(np.zeros((2, 3, 2, 2)))
        bias = Tensor(np.array([1.5, -2.0]))
        out = nn.conv2d(x, kernels, bias).values
        np.testing.assert_array_equal(out[:, 0], np.full((2, 4, 4), 1.5))
        np.testing.assert_array_equal(out[:, 1], np.zeros((2, 4, 4)))

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        out = nn.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))),
                        Tensor(np.zeros(1))).values
        np.testing.assert_allclose(out[0, 0], np.maximum(x[0, 0], 0.0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 1, 4, 4))
        kernels = rng.standard_normal((2, 1, 3, 3))
        bias = rng.standard_normal(2)
        ours = nn.conv2d(Tensor(x), Tensor(kernels), Tensor(bias)).values
        ref = oracles.conv2d(x[0].tolist(), kernels.tolist(), bias.tolist())
        np.testing.assert_allclose(ours[0], np.array(ref), atol=1e-12)

    def test_kernel_too_large(self, rng):
        with pytest.raises(ConfigError, match="larger than"):
            nn.conv2d(Tensor(rng.standard_normal((1, 1, 2, 2))),
                      Tensor(rng.standard_normal((1, 1, 3, 3))), Tensor(np.zeros(1)))

    def test_padding_changes_output_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3)))
        k = Tensor(rng.standard_normal((1, 1, 3, 3)))
        out = nn.conv2d(x, k, Tensor(np.zeros(1)), padding=1)
        assert out.values.shape == (1, 1, 3, 3)

    def test_gradients_kink_excluded(self, rng):
        x = _t(rng, 2, 2, 4, 4)
        kernels = _t(rng, 2, 2, 2, 2)
        bias = Tensor(rng.standard_normal(2) + 3.0, requires_grad=True)
        pre = nn.conv2d_linear(x, kernels, bias).values
        assert np.abs(pre).min() > 1e-3  # kink exclusion precondition
        err = nn.grad_check(nn.conv2d, [x, kernels, bias], projection_rng=rng)
        assert err < 1e-6

    @pytest.mark.parametrize("x_shape,k_shape,padding", [
        ((128, 2, 6, 6), (4, 2, 2, 2), 0), ((6, 3, 7, 5), (3, 3, 2, 3), 1),
        ((12, 2, 50, 50), (8, 2, 3, 3), 0)])
    def test_kernel_gradient_equals_einsum_contraction(self, rng, x_shape, k_shape, padding):
        x = Tensor(rng.standard_normal(x_shape))
        kernels = _t(rng, *k_shape)
        out = nn.conv2d_linear(x, kernels, _t(rng, k_shape[0]), padding=padding)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        xv = np.pad(x.values, [(0, 0), (0, 0)] + [(padding, padding)] * 2)
        cols = np.lib.stride_tricks.sliding_window_view(xv, k_shape[2:], axis=(2, 3))
        np.testing.assert_array_equal(
            kernels.grad, np.einsum("nchwst,nkhw->kcst", cols, g, optimize=True))

    def test_gradients_with_padding(self, rng):
        x = _t(rng, 2, 2, 4, 5)
        kernels = _t(rng, 2, 2, 3, 2)
        bias = Tensor(rng.standard_normal(2) + 3.0, requires_grad=True)
        pre = nn.conv2d_linear(x, kernels, bias, padding=1).values
        assert pre.shape == (2, 2, 4, 6)
        assert np.abs(pre).min() > 1e-3  # kink exclusion precondition
        err = nn.grad_check(lambda *args: nn.conv2d(*args, padding=1),
                            [x, kernels, bias], projection_rng=rng)
        assert err < 1e-6


class TestMaxPool:
    def test_constant_input(self):
        out = nn.max_pool(Tensor(np.full((1, 1, 4, 4), 2.5)), (2, 2)).values
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 2.5))

    def test_single_maximum_dominates(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = 7.0
        out = nn.max_pool(Tensor(x), (2, 2)).values
        assert out[0, 0, 0, 0] == 7.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_with_partial_windows(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 5, 5))
        ours = nn.max_pool(Tensor(x), (3, 3)).values
        ref = oracles.max_pool(x[0].tolist(), 3, 3)
        np.testing.assert_allclose(ours[0], np.array(ref), atol=1e-12)

    def test_outputs_are_input_values(self, rng):
        x = rng.standard_normal((2, 2, 5, 7))
        out = nn.max_pool(Tensor(x), (2, 3)).values
        values = set(x.reshape(-1).tolist())
        assert all(v in values for v in out.reshape(-1).tolist())

    def test_gradients_tie_excluded(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)) * 5.0, requires_grad=True)
        err = nn.grad_check(lambda t: nn.max_pool(t, (2, 2)), [x], projection_rng=rng)
        assert err < 1e-6

    def test_ties_route_to_first_maximum_in_window_order(self):
        x = np.zeros((1, 2, 4, 4))  # channel 0: all-zero windows, as after a ReLU
        x[0, 1, :2, :2] = [[1.0, 3.0], [3.0, 2.0]]
        x[0, 1, :2, 2:] = [[0.0, 0.0], [5.0, 5.0]]
        out, grad = _pool_and_grad(x, (2, 2), np.arange(1.0, 9.0).reshape(1, 2, 2, 2))
        expected = np.zeros_like(x)
        expected[0, 0, ::2, ::2] = [[1.0, 2.0], [3.0, 4.0]]
        expected[0, 1, 0, 1] = 5.0
        expected[0, 1, 1, 2] = 6.0
        expected[0, 1, 2, 0] = 7.0
        expected[0, 1, 2, 2] = 8.0
        np.testing.assert_array_equal(out[0, 1], [[3.0, 5.0], [0.0, 0.0]])
        np.testing.assert_array_equal(grad, expected)

    @pytest.mark.parametrize("shape,pool", [((5, 5), (2, 2)), ((5, 7), (2, 3))])
    def test_partial_windows_match_oracle_with_gradient(self, rng, shape, pool):
        x = rng.standard_normal((2, 3) + shape)
        out_shape = (2, 3, -(-shape[0] // pool[0]), -(-shape[1] // pool[1]))
        g = rng.standard_normal(out_shape)
        out, grad = _pool_and_grad(x, pool, g)
        for n in range(2):
            np.testing.assert_array_equal(out[n], oracles.max_pool(x[n].tolist(), *pool))
            np.testing.assert_array_equal(
                grad[n], oracles.max_pool_grad(x[n].tolist(), g[n].tolist(), *pool))

    def test_nan_routes_to_first_nan(self):
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, :2, :2] = [[9.0, np.nan], [np.nan, 1.0]]
        x[0, 0, 2, 2] = np.nan  # alone in a partial corner window
        out, grad = _pool_and_grad(x, (2, 2), np.full((1, 1, 2, 2), 2.0))
        assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[0, 0, 1, 1])
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[0, 2] = expected[2, 0] = expected[2, 2] = 2.0
        np.testing.assert_array_equal(grad[0, 0], expected)
        np.testing.assert_array_equal(
            grad[0], oracles.max_pool_grad(x[0].tolist(), [[[2.0] * 2] * 2], 2, 2))

    @pytest.mark.parametrize("shape", [(4, 6), (5, 7)])
    def test_gradient_keeps_input_memory_layout(self, rng, shape):
        values = rng.standard_normal(shape + (2, 3)).transpose(2, 3, 0, 1)
        assert not values.flags.c_contiguous
        x = Tensor(values, requires_grad=True)
        out = nn.max_pool(x, (2, 3))
        g = rng.standard_normal(out.shape)
        out.backward(g)
        assert x.grad.strides == values.strides
        _, grad = _pool_and_grad(np.ascontiguousarray(values), (2, 3), g)
        np.testing.assert_array_equal(x.grad, grad)

    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_tie_heavy_inputs(self, n, k, h, w, p_rows, p_cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(n, k, h, w)).astype(np.float64)
        g = rng.integers(1, 100, size=(n, k, -(-h // p_rows), -(-w // p_cols))) * 1.0
        out, grad = _pool_and_grad(x, (p_rows, p_cols), g)
        for i in range(n):
            np.testing.assert_array_equal(out[i], oracles.max_pool(x[i].tolist(),
                                                                   p_rows, p_cols))
            np.testing.assert_array_equal(
                grad[i], oracles.max_pool_grad(x[i].tolist(), g[i].tolist(),
                                               p_rows, p_cols))


def _pool_and_grad(x, pool, g):
    """max_pool output and the input gradient for output gradient g."""
    t = Tensor(x, requires_grad=True)
    out = nn.max_pool(t, pool)
    out.backward(g)
    return out.values, t.grad


class TestMlpScore:
    def test_all_zero_params(self):
        params = MLPParams(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)),
                           Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        assert nn.mlp_score(Tensor(np.zeros(4)), params).item() == 0.5

    def test_logit_gap_hand_value(self):
        # hidden tanh(0)=0, so only the biases reach the logits
        params = MLPParams(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)),
                           Tensor(np.zeros((2, 3))), Tensor(np.array([0.0, 10.0])))
        score = nn.mlp_score(Tensor(np.zeros(4)), params).item()
        assert score == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)

    def test_score_in_open_interval(self, rng):
        params = MLPParams.init(6, 4, rng, 2.0)
        for _ in range(20):
            value = nn.mlp_score(Tensor(rng.standard_normal(6) * 10), params).item()
            assert 0.0 < value < 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = MLPParams.init(5, 3, rng, 0.8)
        features = rng.standard_normal(5)
        ours = nn.mlp_score(Tensor(features), params).item()
        ref = oracles.mlp_score(features.tolist(), params.w1.values.tolist(),
                                params.b1.values.tolist(), params.w2.values.tolist(),
                                params.b2.values.tolist())
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_gradients(self, rng):
        params = MLPParams.init(5, 3, rng, 0.5)
        features = _t(rng, 2, 5)
        inputs = [features, params.w1, params.b1, params.w2, params.b2]
        err = nn.grad_check(lambda *args: nn.mlp_score(args[0], params), inputs,
                            projection_rng=rng)
        assert err < 1e-6


class TestDropout:
    def test_identity_at_eval(self, rng):
        x = Tensor(rng.standard_normal(50))
        out = nn.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.values, x.values)

    def test_identity_at_rate_zero(self, rng):
        x = Tensor(rng.standard_normal(50))
        out = nn.dropout(x, 0.0, training=True, rng=rng)
        np.testing.assert_array_equal(out.values, x.values)

    def test_mean_preserved_large_sample(self):
        x = Tensor(np.ones(100_000))
        out = nn.dropout(x, 0.5, training=True, rng=np.random.default_rng(7))
        assert abs(out.values.mean() - 1.0) < 0.02

    def test_rate_one_rejected(self, rng):
        with pytest.raises(ConfigError):
            nn.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=rng)

    def test_gradient_routes_through_mask(self, rng):
        x = _t(rng, 40)
        mask_rng = np.random.default_rng(3)
        out = nn.dropout(x, 0.25, training=True, rng=mask_rng)
        nn.sum_op(out).backward()
        surviving = out.values != 0.0
        np.testing.assert_allclose(x.grad[surviving], 1.0 / 0.75)
        np.testing.assert_allclose(x.grad[~surviving], 0.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        params = {"a": _t(rng, 3, 4), "b/c": _t(rng, 7)}
        path = tmp_path / "params.ckpt"
        nn.save_parameters(params, path, extra_meta={"note": "hello"})
        arrays, meta = nn.load_parameters(path)
        assert str(meta["note"]) == "hello"
        for name, tensor in params.items():
            assert arrays[name].tobytes() == tensor.values.tobytes()

    def test_grad_check_rejects_constants(self, rng):
        with pytest.raises(ConfigError):
            nn.grad_check(nn.relu, [Tensor(np.ones(3))])
