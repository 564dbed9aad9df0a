"""Dense-tensor kernels with reverse-mode gradients, all in float64 numpy.

A Tensor wraps an ndarray and remembers how it was produced; backward()
walks the graph once and accumulates gradients on every leaf that has
requires_grad set. Each building block here (gated recurrent step,
interaction matrices, 2-D convolution, max pooling, the scoring
perceptron, dropout) is either composed from the primitive ops below or is
itself a primitive with a hand-written backward, and grad_check() verifies
any of them against central finite differences.
"""

from __future__ import annotations

import inspect
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import atomic_write

__all__ = [
    "Tensor", "no_grad", "add", "sub", "mul", "divide", "matmul",
    "transpose", "reshape", "concat", "stack", "index", "sum_op", "mean_op",
    "sigmoid", "tanh_op", "relu", "sqrt_op", "square", "clamp_min",
    "embedding", "conv2d", "conv2d_linear", "max_pool", "dropout",
    "init_weight", "gru_shapes", "mlp_shapes", "GRUParams", "MLPParams",
    "gru_step", "bigru", "interaction_matrix", "mlp_score", "grad_check",
    "save_parameters", "load_parameters",
]

_CHECKPOINT_VERSION = 1


class Tensor:
    """A float64 array plus optional gradient bookkeeping.

    Attributes:
        values: the ndarray payload.
        requires_grad: whether backward() should accumulate into .grad.
        grad: accumulated gradient for leaves, same shape as values.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False, _parents=(), _backward_fn=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = grad (ones for scalars)."""
        if grad is None:
            if self.values.size != 1:
                raise NumericError("backward() on a non-scalar needs an explicit gradient")
            grad = np.ones_like(self.values)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_fn is not None:
                node._backward_fn(g, grads)
            elif node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(grads: dict, t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    key = id(t)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Skip graph construction inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _make(values, parents, backward_fn) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=tuple(parents),
                      _backward_fn=backward_fn)
    return Tensor(values)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; both branches share it
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _elementwise(forward: Callable, *partials: Callable) -> Callable[..., Tensor]:
    """The op forward(*values) on Tensors or plain values, with one partial per input.

    partial(g, *values, out) is that input's gradient at the output's shape;
    it is summed back over the axes numpy broadcast the input along. The op
    takes the forward's signature, returning a Tensor.
    """
    def op(*args) -> Tensor:
        inputs = [_tensor(x) for x in args]
        values = [t.values for t in inputs]
        out = forward(*values)

        def bw(g, grads):
            for t, partial in zip(inputs, partials):
                if t.requires_grad:
                    _accum(grads, t, _unbroadcast(partial(g, *values, out), t.values.shape))

        return _make(out, inputs, bw)

    op.__signature__ = inspect.signature(forward).replace(return_annotation="Tensor")
    return op


add = _elementwise(lambda a, b: a + b, lambda g, a, b, out: g, lambda g, a, b, out: g)
sub = _elementwise(lambda a, b: a - b, lambda g, a, b, out: g, lambda g, a, b, out: -g)
mul = _elementwise(lambda a, b: a * b, lambda g, a, b, out: g * b, lambda g, a, b, out: g * a)
divide = _elementwise(lambda a, b: a / b, lambda g, a, b, out: g / b,
                      lambda g, a, b, out: -g * a / (b ** 2))
sigmoid = _elementwise(lambda a: _sigmoid_values(a), lambda g, a, out: g * out * (1.0 - out))
tanh_op = _elementwise(lambda a: np.tanh(a), lambda g, a, out: g * (1.0 - out ** 2))
relu = _elementwise(lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0.0))
sqrt_op = _elementwise(lambda a: np.sqrt(a), lambda g, a, out: g / (2.0 * out))
square = _elementwise(lambda a: a ** 2, lambda g, a, out: g * 2.0 * a)


def matmul(a, b) -> Tensor:
    """Matrix product with stacked leading dimensions; operands must be >= 2-D."""
    a, b = _tensor(a), _tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ConfigError("matmul operands must have at least 2 dimensions")
    out = a.values @ b.values

    def bw(g, grads):
        _accum(grads, a, _unbroadcast(g @ b.values.swapaxes(-1, -2), a.values.shape))
        _accum(grads, b, _unbroadcast(a.values.swapaxes(-1, -2) @ g, b.values.shape))

    return _make(out, (a, b), bw)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _tensor(a)

    def bw(g, grads):
        _accum(grads, a, g.swapaxes(-1, -2))

    return _make(a.values.swapaxes(-1, -2), (a,), bw)


def reshape(a, shape) -> Tensor:
    a = _tensor(a)
    orig = a.values.shape

    def bw(g, grads):
        _accum(grads, a, g.reshape(orig))

    return _make(a.values.reshape(shape), (a,), bw)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    parts = [_tensor(t) for t in tensors]
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.values.shape[axis] for p in parts]

    def bw(g, grads):
        offset = 0
        for p, size in zip(parts, sizes):
            key = [slice(None)] * g.ndim
            key[axis] = slice(offset, offset + size)
            _accum(grads, p, g[tuple(key)])
            offset += size

    return _make(out, parts, bw)


def stack(tensors: Sequence, axis: int) -> Tensor:
    """Stack along a new axis (implemented as reshape + concat)."""
    parts = []
    for t in tensors:
        t = _tensor(t)
        shape = list(t.values.shape)
        insert_at = axis if axis >= 0 else len(shape) + 1 + axis
        shape.insert(insert_at, 1)
        parts.append(reshape(t, tuple(shape)))
    return concat(parts, axis=axis)


def index(a, key) -> Tensor:
    """Basic (non-fancy) indexing; backward scatters into the sliced region."""
    a = _tensor(a)
    out = a.values[key]
    shape = a.values.shape

    def bw(g, grads):
        buf = np.zeros(shape, dtype=np.float64)
        buf[key] = g
        _accum(grads, a, buf)

    return _make(out, (a,), bw)


def sum_op(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _tensor(a)
    out = a.values.sum(axis=axis, keepdims=keepdims)
    shape = a.values.shape

    def bw(g, grads):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(grads, a, np.broadcast_to(g, shape).copy())

    return _make(out, (a,), bw)


def mean_op(a) -> Tensor:
    a = _tensor(a)
    return mul(sum_op(a), 1.0 / a.values.size)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient is blocked below the floor."""
    return add(relu(sub(a, floor)), floor)


def embedding(table, ids) -> Tensor:
    """Row gather from a (vocab, dim) table; ids is any integer ndarray."""
    table = _tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.values[ids]
    dim = table.values.shape[1]

    def bw(g, grads):
        buf = np.zeros_like(table.values)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, dim))
        _accum(grads, table, buf)

    return _make(out, (table,), bw)


def conv2d_linear(x, kernels, bias, padding: int = 0) -> Tensor:
    """Valid cross-correlation over channels plus bias, no activation.

    x is (N, C, H, W); kernels is (K, C, r_h, r_w); bias is (K,). Output is
    (N, K, H - r_h + 1, W - r_w + 1) after optional zero padding. Kernels
    are never flipped: with learned kernels, true convolution would only
    reparameterise them.
    """
    x, kernels, bias = _tensor(x), _tensor(kernels), _tensor(bias)
    if x.values.ndim != 4 or kernels.values.ndim != 4:
        raise ConfigError("conv2d expects a 4-D input and 4-D kernels")
    xv = x.values
    if padding:
        xv = np.pad(xv, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = xv.shape
    k, kc, rh, rw = kernels.values.shape
    if kc != c:
        raise ConfigError(f"kernel channels {kc} != input channels {c}")
    if rh > h or rw > w:
        raise ConfigError(f"kernel ({rh}x{rw}) larger than padded input ({h}x{w})")
    cols = np.lib.stride_tricks.sliding_window_view(xv, (rh, rw), axis=(2, 3))
    out = np.einsum("nchwst,kcst->nkhw", cols, kernels.values, optimize=True)
    out = out + bias.values[None, :, None, None]
    out_h, out_w = out.shape[2], out.shape[3]

    def bw(g, grads):
        # one (K, N*H'*W') x (N*H'*W', C*r_h*r_w) product: the operands and
        # layout np.einsum("nchwst,nkhw->kcst") multiplies, without its planning
        rows = n * out_h * out_w
        g_rows = g.transpose(1, 0, 2, 3).reshape(k, rows)
        im2col = cols.transpose(0, 2, 3, 1, 4, 5).reshape(rows, c * rh * rw)
        _accum(grads, kernels, (g_rows @ im2col).reshape(k, c, rh, rw))
        _accum(grads, bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gx = np.zeros((n, c, h, w), dtype=np.float64)
            for s in range(rh):
                for t in range(rw):
                    gx[:, :, s:s + out_h, t:t + out_w] += np.einsum(
                        "nkhw,kc->nchw", g, kernels.values[:, :, s, t], optimize=True)
            if padding:
                gx = gx[:, :, padding:-padding, padding:-padding]
            _accum(grads, x, gx)

    return _make(out, (x, kernels, bias), bw)


def conv2d(x, kernels, bias, padding: int = 0) -> Tensor:
    """conv2d_linear followed by ReLU."""
    return relu(conv2d_linear(x, kernels, bias, padding=padding))


def max_pool(x, pool_shape: tuple) -> Tensor:
    """Non-overlapping max pooling with stride equal to the window.

    x is (N, K, H, W); pool_shape (p_rows, p_cols) gives an output of shape
    (N, K, ceil(H/p_rows), ceil(W/p_cols)). Partial edge windows are always
    kept: each takes the max over whatever cells it covers. A window holding
    a NaN pools to NaN. The gradient of each output goes to one cell of its
    window: the first NaN if there is one, else the first maximum, scanning
    the window row by row. Where +0.0 and -0.0 tie for the maximum the pooled
    zero may have either sign (a ReLU output holds no -0.0).
    """
    x = _tensor(x)
    if x.values.ndim != 4:
        raise ConfigError("max_pool expects a 4-D input")
    p_rows, p_cols = pool_shape
    if p_rows < 1 or p_cols < 1:
        raise ConfigError(f"pool window must be >= 1, got {pool_shape}")
    n, k, h, w = x.values.shape
    full_h, full_w = -(-h // p_rows) * p_rows, -(-w // p_cols) * p_cols
    xv = x.values
    if (full_h, full_w) != (h, w):
        # -inf never beats a covered cell, and the first tap of every window
        # is covered, so padding changes neither the output nor the routing
        xv = np.full((n, k, full_h, full_w), -np.inf)
        xv[:, :, :h, :w] = x.values
    # one strided view per window position, in row-major window order
    taps = [(s, t, xv[:, :, s::p_rows, t::p_cols])
            for s in range(p_rows) for t in range(p_cols)]
    out = taps[0][2].copy()
    for _, _, tap in taps[1:]:
        np.maximum(out, tap, out=out)

    def bw(g, grads):
        gx = np.zeros_like(x.values)  # keeps x's layout, and so later sum orders
        g_full = gx if xv is x.values else np.zeros(xv.shape)
        g = g + 0.0  # a -0.0 gradient lands as 0.0, as 0.0 + g always gave
        nan_windows = np.isnan(out).any()  # then a NaN tap is the match
        todo = np.ones(out.shape, dtype=bool)
        hit = np.empty(out.shape, dtype=bool)
        for s, t, tap in taps:
            np.equal(tap, out, out=hit)
            if nan_windows:
                hit |= np.isnan(tap)
            hit &= todo
            todo ^= hit
            np.copyto(g_full[:, :, s::p_rows, t::p_cols], g, where=hit)
        if g_full is not gx:
            gx[...] = g_full[:, :, :h, :w]
        _accum(grads, x, gx)

    return _make(out, (x,), bw)


def dropout(x, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate).

    Identity at evaluation time or when rate is 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = _tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode needs a random generator")
    scale = 1.0 / (1.0 - rate)
    mask = (rng.random(x.values.shape) >= rate) * scale

    def bw(g, grads):
        _accum(grads, x, g * mask)

    return _make(x.values * mask, (x,), bw)


# ---------------------------------------------------------------------------
# Recurrent and scoring blocks.
# ---------------------------------------------------------------------------


def init_weight(shape: tuple, rng: np.random.Generator,
                scale: float | None = None) -> np.ndarray:
    """Zeros for a bias (1-D); otherwise uniform in +-scale when given, else in
    the variance-preserving bound of shape (out, in, *receptive field)."""
    if len(shape) == 1:
        return np.zeros(shape)
    if scale is None:
        field = int(np.prod(shape[2:]))
        scale = float(np.sqrt(6.0 / (shape[1] * field + shape[0] * field)))
    return rng.uniform(-scale, scale, size=shape)


def gru_shapes(input_dim: int, hidden: int) -> dict:
    """GRUParams field -> shape, in field order."""
    return {**{f"w_{g}": (hidden, input_dim) for g in "zrh"},
            **{f"u_{g}": (hidden, hidden) for g in "zrh"},
            **{f"b_{g}": (hidden,) for g in "zrh"}}


def mlp_shapes(input_dim: int, hidden: int) -> dict:
    """MLPParams field -> shape, in field order."""
    return {"w1": (hidden, input_dim), "b1": (hidden,), "w2": (2, hidden), "b2": (2,)}


@dataclass
class GRUParams:
    """Gate parameters: each W is (hidden, input), each U (hidden, hidden)."""

    w_z: Tensor
    w_r: Tensor
    w_h: Tensor
    u_z: Tensor
    u_r: Tensor
    u_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng: np.random.Generator,
             scale: float | None = None) -> "GRUParams":
        """Variance-preserving uniform weights (or +-scale when given); zero biases."""
        return cls(**{name: Tensor(init_weight(shape, rng, scale), requires_grad=True)
                      for name, shape in gru_shapes(input_dim, hidden).items()})

    def tensors(self) -> list[Tensor]:
        """The nine tensors in field order."""
        return [getattr(self, f.name) for f in fields(self)]


def _gru_scan(x: np.ndarray, h0: np.ndarray, p: GRUParams, reverse: bool):
    """Run one GRU direction over axis 1 of x (N, L, d), starting from h0 (N, H).

    The input projections of all steps come from one (N*L, d) x (d, 3H)
    product, so only the recurrent products loop. Returns the states
    (N, L, H) and the tape _gru_scan_backward needs: the input, the stacked
    weights, h0, and each step's z and r gates and candidate state.
    """
    n, length, dim = x.shape
    hidden = h0.shape[1]
    w = np.concatenate([p.w_z.values, p.w_r.values, p.w_h.values])    # (3H, d)
    u_zr_t = np.concatenate([p.u_z.values, p.u_r.values]).T           # (H, 2H)
    b_zr = np.concatenate([p.b_z.values, p.b_r.values])
    u_h_t, b_h = p.u_h.values.T, p.b_h.values
    xw = (x.reshape(n * length, dim) @ w.T).reshape(n, length, 3 * hidden)
    states = np.empty((n, length, hidden))
    gates = np.empty((n, length, 2 * hidden))
    cand = np.empty((n, length, hidden))
    h = h0
    for t in (reversed(range(length)) if reverse else range(length)):
        zr = _sigmoid_values(xw[:, t, :2 * hidden] + h @ u_zr_t + b_zr)
        z, r = zr[:, :hidden], zr[:, hidden:]
        c = np.tanh(xw[:, t, 2 * hidden:] + (r * h) @ u_h_t + b_h)
        h = (1.0 - z) * h + z * c
        gates[:, t] = zr
        cand[:, t] = c
        states[:, t] = h
    return states, (x, w, u_zr_t, u_h_t, h0, gates, cand, states)


def _gru_scan_backward(g_states: np.ndarray, tape, p: GRUParams, reverse: bool,
                       grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagation through time for _gru_scan.

    g_states is the gradient of the states (N, L, H). Accumulates the nine
    parameter gradients into grads and returns the gradients of x and h0.
    The recurrence loops; the weight gradients are one product each over
    all steps.
    """
    x, w, u_zr_t, u_h_t, h0, gates, cand, states = tape
    n, length, hidden = states.shape
    if reverse:
        h_prev = np.concatenate([states[:, 1:], h0[:, None]], axis=1)
    else:
        h_prev = np.concatenate([h0[:, None], states[:, :-1]], axis=1)
    z, r = gates[..., :hidden], gates[..., hidden:]
    u_zr, u_h = u_zr_t.T, u_h_t.T
    g_pre = np.empty((n, length, 3 * hidden))  # at the z, r and candidate pre-activations
    carry = np.zeros((n, hidden))
    for t in (range(length) if reverse else reversed(range(length))):
        g_h = g_states[:, t] + carry
        z_t, r_t, c_t, hp = z[:, t], r[:, t], cand[:, t], h_prev[:, t]
        g_c = g_h * z_t * (1.0 - c_t ** 2)
        g_rh = g_c @ u_h
        g_pre[:, t, :hidden] = (g_h * c_t - g_h * hp) * z_t * (1.0 - z_t)
        g_pre[:, t, hidden:2 * hidden] = g_rh * hp * r_t * (1.0 - r_t)
        g_pre[:, t, 2 * hidden:] = g_c
        carry = g_h * (1.0 - z_t) + g_rh * r_t + g_pre[:, t, :2 * hidden] @ u_zr

    flat = g_pre.reshape(n * length, 3 * hidden)
    g_w = flat.T @ x.reshape(n * length, -1)
    g_u_zr = flat[:, :2 * hidden].T @ h_prev.reshape(n * length, hidden)
    g_u_h = flat[:, 2 * hidden:].T @ (r * h_prev).reshape(n * length, hidden)
    g_b = flat.sum(axis=0)
    g_params = (g_w[:hidden], g_w[hidden:2 * hidden], g_w[2 * hidden:],
                g_u_zr[:hidden], g_u_zr[hidden:], g_u_h,
                g_b[:hidden], g_b[hidden:2 * hidden], g_b[2 * hidden:])
    for tensor, g in zip(p.tensors(), g_params):
        _accum(grads, tensor, g)
    return (flat @ w).reshape(x.shape), carry


def gru_step(x, h_prev, p: GRUParams) -> Tensor:
    """One gated recurrent update.

    z = sig(Wz x + Uz h + bz), r = sig(Wr x + Ur h + br),
    cand = tanh(Wh x + Uh (r*h) + bh), new h = (1 - z)*h + z*cand.
    Accepts single vectors or any stack of them (..., input_dim), with
    h_prev of the matching shape (..., hidden). This is the bigru kernel
    run for one step from h_prev.
    """
    x, h_prev = _tensor(x), _tensor(h_prev)
    hidden = p.u_z.values.shape[0]
    out_shape = x.values.shape[:-1] + (hidden,)
    if h_prev.values.shape != out_shape:
        raise ConfigError(f"gru_step state shape {h_prev.values.shape} != {out_shape}")
    states, tape = _gru_scan(x.values.reshape(-1, 1, x.values.shape[-1]),
                             h_prev.values.reshape(-1, hidden), p, reverse=False)

    def bw(g, grads):
        g_x, g_h = _gru_scan_backward(g.reshape(-1, 1, hidden), tape, p, False, grads)
        _accum(grads, x, g_x.reshape(x.values.shape))
        _accum(grads, h_prev, g_h.reshape(out_shape))

    return _make(states.reshape(out_shape), (x, h_prev, *p.tensors()), bw)


def bigru(seq, fwd: GRUParams, bwd: GRUParams) -> Tensor:
    """Bidirectional GRU encoding of (..., length, input_dim).

    Both directions start from zero states; output position t is the
    concatenation [forward h_t ; backward h_t], shape (..., length, 2*hidden).
    """
    seq = _tensor(seq)
    if seq.values.ndim < 2:
        raise ConfigError("bigru expects at least (length, input_dim)")
    shape = seq.values.shape
    length = shape[-2]
    hidden = fwd.u_z.values.shape[0]
    x = seq.values.reshape(-1, length, shape[-1])
    h0 = np.zeros((x.shape[0], hidden))
    out_f, tape_f = _gru_scan(x, h0, fwd, reverse=False)
    out_b, tape_b = _gru_scan(x, h0, bwd, reverse=True)
    out = np.concatenate([out_f, out_b], axis=-1).reshape(shape[:-1] + (2 * hidden,))

    def bw(g, grads):
        g = g.reshape(x.shape[:2] + (2 * hidden,))
        g_xf, _ = _gru_scan_backward(g[..., :hidden], tape_f, fwd, False, grads)
        g_xb, _ = _gru_scan_backward(g[..., hidden:], tape_b, bwd, True, grads)
        _accum(grads, seq, (g_xf + g_xb).reshape(shape))

    return _make(out, (seq, *fwd.tensors(), *bwd.tensors()), bw)


def interaction_matrix(a, b, mode: str = "dot", bilinear=None) -> Tensor:
    """Pairwise similarity grid between row sets a (..., la, d) and b (..., lb, d).

    dot: a_i . b_j; cosine: the same normalized per row (0 where a row has
    zero norm); bilinear: a_i^T M b_j with a learned (d, d) matrix M.
    """
    a, b = _tensor(a), _tensor(b)
    if mode == "dot":
        return matmul(a, transpose(b))
    if mode == "cosine":
        return matmul(_unit_rows(a), transpose(_unit_rows(b)))
    if mode == "bilinear":
        if bilinear is None:
            raise ConfigError("bilinear interaction needs its matrix")
        return matmul(matmul(a, _tensor(bilinear)), transpose(b))
    raise ConfigError(f"unknown interaction mode {mode!r}")


def _unit_rows(a: Tensor) -> Tensor:
    # Clamping the squared norm keeps zero rows at exactly zero and blocks
    # the gradient instead of producing inf at the sqrt.
    norm2 = sum_op(square(a), axis=-1, keepdims=True)
    norm = sqrt_op(clamp_min(norm2, 1e-24))
    return divide(a, norm)


@dataclass
class MLPParams:
    """Two-layer scorer: w1 (hidden, input), b1 (hidden,), w2 (2, hidden), b2 (2,)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng: np.random.Generator,
             scale: float | None = None) -> "MLPParams":
        """Variance-preserving uniform weights (or +-scale when given); zero biases."""
        return cls(**{name: Tensor(init_weight(shape, rng, scale), requires_grad=True)
                      for name, shape in mlp_shapes(input_dim, hidden).items()})


def mlp_score(features, p: MLPParams) -> Tensor:
    """tanh hidden layer, 2-way output, probability of the positive class.

    softmax([l0, l1])[1] is computed as sigmoid(l1 - l0), so it always lands
    strictly inside (0, 1) for finite inputs.
    """
    features = _tensor(features)
    squeeze = features.values.ndim == 1
    if squeeze:
        features = reshape(features, (1,) + features.values.shape)
    hidden = tanh_op(add(matmul(features, transpose(p.w1)), p.b1))
    logits = add(matmul(hidden, transpose(p.w2)), p.b2)
    score = sigmoid(sub(index(logits, (..., 1)), index(logits, (..., 0))))
    if squeeze:
        score = reshape(score, ())
    return score


# ---------------------------------------------------------------------------
# Verification harness and checkpointing.
# ---------------------------------------------------------------------------


def grad_check(fn: Callable[..., Tensor], inputs: Sequence, h: float = 1e-5,
               projection_rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    fn maps the given inputs (Tensors and/or plain values) to a Tensor of
    any shape; a fixed projection reduces it to a scalar so vector outputs
    are covered. Every input Tensor with requires_grad is perturbed
    elementwise. The relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise ConfigError(f"step h must be positive, got {h}")
    tensors = [t for t in inputs if isinstance(t, Tensor) and t.requires_grad]
    if not tensors:
        raise ConfigError("grad_check needs at least one requires_grad input")

    out = fn(*inputs)
    if projection_rng is not None:
        proj = projection_rng.standard_normal(out.values.shape)
    else:
        proj = np.ones(out.values.shape)

    for t in tensors:
        t.zero_grad()
    sum_op(mul(out, Tensor(proj))).backward()
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy()
                for t in tensors]

    def objective() -> float:
        with no_grad():
            return float((fn(*inputs).values * proj).sum())

    max_err = 0.0
    for t, ana in zip(tensors, analytic):
        flat = t.values.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = objective()
            flat[i] = orig - h
            f_minus = objective()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ana_flat[i]), abs(numeric), 1e-8)
            max_err = max(max_err, abs(ana_flat[i] - numeric) / denom)
    return max_err


def save_parameters(named_params: dict, path, extra_meta: dict | None = None) -> None:
    """Write a versioned checkpoint mapping name -> array (bit-exact round trip)."""
    payload = {f"param/{name}": t.values for name, t in named_params.items()}
    payload["__checkpoint_version__"] = np.array(_CHECKPOINT_VERSION)
    for key, value in (extra_meta or {}).items():
        payload[f"meta/{key}"] = np.array(value)
    with atomic_write(path, binary=True) as fh:  # savez would append .npz to a bare path
        np.savez(fh, **payload)


def load_parameters(path) -> tuple[dict, dict]:
    """Inverse of save_parameters: returns (name -> array, meta name -> value).

    A file that is not a complete, versioned checkpoint archive is a
    ConfigError naming the path.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["__checkpoint_version__"])
            params = {key[len("param/"):]: data[key] for key in data.files
                      if key.startswith("param/")}
            meta = {key[len("meta/"):]: data[key][()] for key in data.files
                    if key.startswith("meta/")}
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a readable checkpoint: {exc}") from exc
    if version != _CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    return params, meta
