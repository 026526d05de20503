"""Dense-matrix reverse-mode automatic differentiation.

Every value is a 2-D float64 numpy array (scalars are 1x1); network inputs
that carry no gradient may additionally be scipy CSR matrices. Graphs are
built dynamically: each op returns a `Node` holding its value, its parents,
and a closure that routes the incoming adjoint to the parents. `backward`
walks the graph once in reverse topological order, accumulating gradients
additively so a node used twice receives both contributions.

Inside `no_grad()` no graph is recorded: each op still computes its value,
but the node it returns keeps no parents and no backward closure, so
intermediate values are freed as soon as the next op has consumed them.
Scoring runs the networks' training forward this way instead of keeping a
second, graph-free copy of each network. The switch is per thread, so
scoring workers that enter it leave every other thread recording.

Ops: `affine`, `relu`, `sigmoid`, `exp`, `clip`, `add`, `sub`, `mul`,
`scale`, `add_scalar`, `sum_all`, `concat_cols` and `repeat_rows`, plus one
fused loss, `sigmoid_loglik`: the summed Bernoulli log-likelihood of targets
under the sigmoid of a logits node, computed in logit space as one 1x1 node.

Not supported on purpose: broadcasting beyond the batch dimension (the bias
row in `affine` is the one exception), sparse gradients, and anything GPU.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

# exp() clamps its input to this range, keeping exp(x) within [3e-7, 3.3e6];
# unbounded log-variances otherwise let early training diverge.
EXP_CLAMP = 15.0


class _Recording(threading.local):
    on = True  # False inside no_grad(); every thread starts with True


_recording = _Recording()


@contextlib.contextmanager
def no_grad():
    """Build nodes without parents or backward closures inside the block.

    The switch is per thread and restored on exit, exceptions included;
    leaves made by `parameter` stay trainable.
    """
    previous, _recording.on = _recording.on, False
    try:
        yield
    finally:
        _recording.on = previous


class Node:
    """One vertex of the dynamic computation graph.

    `value` is a 2-D float64 array; `grad` has the same shape once backward
    has reached the node (None before that). Leaf nodes created through
    `parameter` receive gradients; ones from `constant` are skipped entirely.
    """

    __slots__ = ("value", "grad", "op", "parents", "needs_grad", "_backward")

    def __init__(self, value, parents=(), op="leaf", backward=None, needs_grad=None):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim == 1:
            value = value.reshape(1, -1)
        if value.ndim != 2:
            raise ValueError(f"nodes hold 2-D matrices, got shape {value.shape}")
        self.value = value
        self.grad = None
        self.op = op
        if not _recording.on:
            parents, backward = (), None
        self.parents = tuple(parents)
        self._backward = backward
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self.parents)
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() on non-scalar node of shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Node(op={self.op}, shape={self.value.shape})"


def parameter(value) -> Node:
    """Trainable leaf; participates in backward."""
    return Node(value, op="parameter", needs_grad=True)


def constant(value) -> Node:
    """Non-trainable leaf (inputs, targets, noise draws)."""
    return Node(value, op="constant", needs_grad=False)


def _accumulate(node: Node, grad: np.ndarray, own: bool = False) -> None:
    """Add `grad` into the node; `own` marks a freshly allocated array the
    caller will not reuse, letting the first accumulation skip its copy."""
    if not node.needs_grad:
        return
    if node.grad is None:
        node.grad = grad if own else np.array(grad, dtype=np.float64)
    else:
        node.grad += grad


def _lift(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


class LayerParams:
    """Weights of one affine layer: weight (out x in) and bias (1 x out)."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight: Node, bias: Node):
        if weight.value.shape[0] != bias.value.shape[1]:
            raise ValueError(
                f"layer weight {weight.value.shape} inconsistent with bias {bias.value.shape}"
            )
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator,
             bias_init: float = 0.0, sparse_input: bool = False) -> "LayerParams":
        # Glorot-style uniform fan scaling; biases constant. Layers fed by
        # sparse inputs keep their weight Fortran-ordered: the forward's
        # weight.T view is then C-contiguous (fast sparse matmul) and the
        # backward's (x.T @ g).T lands in matching layout without a copy.
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        if sparse_input:
            w = np.asfortranarray(w)
        b = np.full((1, out_dim), bias_init)
        return cls(parameter(w), parameter(b))

    @classmethod
    def stored(cls, name: str, weight, bias, in_dim: int, out_dim: int,
               sparse_input: bool = False) -> "LayerParams":
        """Layer holding stored arrays, in the memory order `init` gives;
        `name` labels a shape error."""
        w = np.asarray(weight, dtype=np.float64)
        b = np.asarray(bias, dtype=np.float64)
        if w.shape != (out_dim, in_dim) or b.shape != (1, out_dim):
            raise ValueError(f"layer {name} has arrays {w.shape} and {b.shape}, "
                             f"expected {(out_dim, in_dim)} and {(1, out_dim)}")
        if sparse_input:
            w = np.asfortranarray(w)
        return cls(parameter(w), parameter(b))

    @property
    def in_dim(self) -> int:
        return self.weight.value.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.value.shape[0]

    def parameters(self) -> list[Node]:
        return [self.weight, self.bias]


def affine(x, layer: LayerParams) -> Node:
    """Batch affine map: out[b] = weight @ x[b] + bias.

    `x` may be a Node, a dense array, or a scipy sparse matrix; sparse and
    plain-array inputs are treated as constants (no gradient flows to them).
    """
    w, b = layer.weight, layer.bias
    x_node = x if isinstance(x, Node) else None
    xv = x.value if x_node is not None else x
    if xv.shape[1] != w.value.shape[1]:
        raise ValueError(
            f"affine: input shape {xv.shape} does not match weight shape {w.value.shape}"
        )
    value = xv @ w.value.T + b.value
    if sparse.issparse(value):  # defensive; sparse @ dense should densify
        value = np.asarray(value.todense())
    parents = [w, b] + ([x_node] if x_node is not None else [])

    def _bw(g):
        if sparse.issparse(xv):
            # transposed view of a fresh array; F-ordered like the weight
            _accumulate(w, (xv.T @ g).T, own=True)
        else:
            _accumulate(w, g.T @ xv, own=True)
        _accumulate(b, g.sum(axis=0, keepdims=True), own=True)
        if x_node is not None:
            _accumulate(x_node, g @ w.value, own=True)

    return Node(value, parents, "affine", _bw)


def relu(x: Node) -> Node:
    x = _lift(x)

    # the mask is read from x.value in backward, so no node holds one
    def _bw(g):
        _accumulate(x, g * (x.value > 0.0))

    return Node(np.maximum(x.value, 0.0), (x,), "relu", _bw)


def sigmoid(x: Node) -> Node:
    x = _lift(x)
    v = expit(x.value)

    def _bw(g):
        _accumulate(x, g * v * (1.0 - v))

    return Node(v, (x,), "sigmoid", _bw)


def exp(x: Node) -> Node:
    """Elementwise exponential with inputs clamped to [-EXP_CLAMP, EXP_CLAMP]."""
    x = _lift(x)
    inside = np.abs(x.value) <= EXP_CLAMP
    v = np.exp(np.clip(x.value, -EXP_CLAMP, EXP_CLAMP))

    def _bw(g):
        _accumulate(x, g * v * inside)

    return Node(v, (x,), "exp", _bw)


def clip(x: Node, lo: float, hi: float) -> Node:
    """Clamp to [lo, hi]; gradient passes through only inside the range."""
    x = _lift(x)

    def _bw(g):
        _accumulate(x, g * ((x.value >= lo) & (x.value <= hi)))

    return Node(np.clip(x.value, lo, hi), (x,), "clip", _bw)


def sigmoid_loglik(z: Node, targets: np.ndarray, bound: float) -> Node:
    """Summed Bernoulli log-likelihood of `targets` under sigmoid(z), as one
    1x1 node over the logits z.

    With z clamped to [-bound, bound] it is sum(t * z - softplus(z)), and its
    adjoint is g * (t - sigmoid(z)) inside the clamp and 0 outside. Forming
    sigmoid, the clamped log-probabilities and their products as separate
    nodes would keep about eight temporaries the size of z. softplus(z) is
    max(z, 0) + log1p(exp(-|z|)): it does not overflow, and a NaN logit gives
    a NaN sum without a floating-point warning.
    """
    z = _lift(z)
    if targets.shape != z.value.shape:
        raise ValueError(
            f"sigmoid_loglik: targets {targets.shape} vs logits {z.value.shape}"
        )
    zc = np.clip(z.value, -bound, bound)
    tz = np.vdot(targets, zc)
    log_tail = np.abs(zc)  # becomes log1p(exp(-|zc|))
    np.negative(log_tail, out=log_tail)
    np.exp(log_tail, out=log_tail)
    np.log1p(log_tail, out=log_tail)
    np.maximum(zc, 0.0, out=zc)
    value = tz - zc.sum() - log_tail.sum()

    def _bw(g):
        x = z.value
        resid = expit(np.clip(x, -bound, bound))
        np.subtract(targets, resid, out=resid)
        resid *= g[0, 0]
        np.copyto(resid, 0.0, where=np.abs(x) > bound)
        _accumulate(z, resid, own=True)

    return Node(np.array([[value]]), (z,), "sigmoid_loglik", _bw)


def _check_same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Node, b) -> Node:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "add")

    def _bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Node(a.value + b.value, (a, b), "add", _bw)


def sub(a: Node, b) -> Node:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "sub")

    def _bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return Node(a.value - b.value, (a, b), "sub", _bw)


def mul(a: Node, b) -> Node:
    """Elementwise product; either side may be a constant array."""
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "mul")

    def _bw(g):
        _accumulate(a, g * b.value)
        _accumulate(b, g * a.value)

    return Node(a.value * b.value, (a, b), "mul", _bw)


def scale(x: Node, c: float) -> Node:
    x = _lift(x)

    def _bw(g):
        _accumulate(x, g * c)

    return Node(x.value * c, (x,), "scale", _bw)


def add_scalar(x: Node, c: float) -> Node:
    x = _lift(x)

    def _bw(g):
        _accumulate(x, g)

    return Node(x.value + c, (x,), "add_scalar", _bw)


def sum_all(x: Node) -> Node:
    """Sum of all entries, as a 1x1 node."""
    x = _lift(x)

    def _bw(g):
        _accumulate(x, np.full(x.value.shape, g[0, 0]))

    return Node(np.array([[x.value.sum()]]), (x,), "sum", _bw)


def concat_cols(parts: Sequence[Node]) -> Node:
    parts = [_lift(p) for p in parts]
    rows = parts[0].value.shape[0]
    for p in parts:
        if p.value.shape[0] != rows:
            raise ValueError(
                f"concat_cols: row mismatch {[q.value.shape for q in parts]}"
            )
    offsets = np.cumsum([0] + [p.value.shape[1] for p in parts])

    def _bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[:, lo:hi])

    return Node(np.hstack([p.value for p in parts]), tuple(parts), "concat", _bw)


def repeat_rows(x: Node, k: int) -> Node:
    """Repeat each row k times; the adjoint sums the k copies back."""
    x = _lift(x)
    if k == 1:
        return x
    rows, cols = x.value.shape

    def _bw(g):
        _accumulate(x, g.reshape(rows, k, cols).sum(axis=1))

    return Node(np.repeat(x.value, k, axis=0), (x,), "repeat", _bw)


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede children


def backward(loss: Node) -> None:
    """Populate `grad` on every reachable node that needs one.

    Gradients accumulate: call `zero_grads` on the parameters between
    independent backward passes.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None and node.needs_grad:
            node._backward(node.grad)


def zero_grads(params: Iterable[Node]) -> None:
    for p in params:
        p.grad = None
