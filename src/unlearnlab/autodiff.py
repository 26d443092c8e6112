"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Graphs are built define-by-run: every op eagerly computes its value and
records a forward closure (so the graph can be re-evaluated after leaf
mutation, which is what `finite_diff` does) and a backward closure.

A gradient is blocked by holding a value as a `constant`: it is never
re-evaluated and never receives a gradient, so `finite_diff` and the
reverse pass differentiate the same function.

Forward mode needs no graph: the `duals` op set carries a (value, tangent)
pair through a model forward, so one pass gives the directional derivative
of every output along the inputs' tangents.
"""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One vertex of the computation graph."""

    __slots__ = ("op", "inputs", "value", "needs_grad", "_forward",
                 "_backward")

    def __init__(self, op, inputs, value, forward=None, backward=None,
                 needs_grad=None):
        self.op = op
        self.inputs = tuple(inputs)
        self.value = value
        if needs_grad is None:
            needs_grad = any(i.needs_grad for i in self.inputs)
        self.needs_grad = needs_grad
        self._forward = forward
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def leaf(value) -> Node:
    """Differentiable leaf (a parameter)."""
    return Node("leaf", (), _as_array(value), needs_grad=True)


def constant(value) -> Node:
    """Non-differentiable leaf (data, masks, frozen references)."""
    return Node("const", (), _as_array(value), needs_grad=False)


def _node(op, inputs, forward, backward) -> Node:
    values = [i.value for i in inputs]
    return Node(op, inputs, forward(*values), forward=forward, backward=backward)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Topological traversal, evaluation, gradients
# ---------------------------------------------------------------------------


def _topo_order(root: Node):
    """Iterative post-order: inputs before consumers."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            if id(inp) not in seen:
                stack.append((inp, False))
    return order


def evaluate(root: Node) -> np.ndarray:
    """Re-evaluate the graph bottom-up and return the root value.

    Leaves contribute their current (possibly mutated) values.
    """
    for node in _topo_order(root):
        if node._forward is not None:
            node.value = node._forward(*[i.value for i in node.inputs])
    return root.value


def grad(root: Node, wrt) -> list[np.ndarray]:
    """Reverse accumulation of d(root)/d(node) for each node in `wrt`.

    The root must be scalar-valued. `wrt` entries may be differentiable
    leaves or interior nodes (e.g. a logits node). Nodes unreachable from
    the root get zero gradients.
    """
    if root.value.size != 1:
        raise ContractError(
            f"grad requires a scalar root, got shape {root.value.shape}")
    wrt = list(wrt)
    wanted = {id(n) for n in wrt}
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.value)}
    saved: dict[int, np.ndarray] = {}
    for node in reversed(_topo_order(root)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in wanted:
            saved[id(node)] = g
        if node._backward is None:
            continue
        for inp, gi in zip(node.inputs, node._backward(node, g)):
            if gi is None or not inp.needs_grad:
                continue
            acc = grads.get(id(inp))
            grads[id(inp)] = gi if acc is None else acc + gi
    out = []
    for n in wrt:
        g = saved.get(id(n))
        out.append(np.zeros_like(n.value) if g is None else np.asarray(g))
    return out


def finite_diff(root: Node, wrt: Node, epsilon: float) -> np.ndarray:
    """Central-difference estimate of d(root)/d(wrt), component by component."""
    if epsilon <= 0:
        raise ContractError("epsilon must be > 0")
    if root.value.size != 1:
        raise ContractError("finite_diff requires a scalar root")
    base = wrt.value.copy()
    est = np.zeros_like(base)
    flat = wrt.value.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + epsilon
        hi = float(evaluate(root))
        flat[j] = orig - epsilon
        lo = float(evaluate(root))
        flat[j] = orig
        est.reshape(-1)[j] = (hi - lo) / (2.0 * epsilon)
    wrt.value[...] = base
    evaluate(root)
    return est


# ---------------------------------------------------------------------------
# Array kernels: the forward formulas of the nonlinear ops, used by the graph
# ops below and by the `arrays` namespace
# ---------------------------------------------------------------------------


# The kernels below compute in place on their own temporaries, in the
# operation order of the plain expression each comment gives, so the bits
# are that expression's.


def _softmax(x, scale=1.0, mask=None):
    """softmax(x * scale + mask) over the last axis, in one temporary."""
    # z = x * scale + mask; e = exp(z - max); e / e.sum
    e = x * scale
    if mask is not None:
        e += mask
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_tangent(p, t):
    """The Jacobian of softmax at output `p`, applied to `t`. It is
    symmetric, so this is the forward (tangent) and reverse (cotangent)
    rule alike."""
    # p * (t - (t * p).sum)
    out = t * p
    np.subtract(t, out.sum(axis=-1, keepdims=True), out=out)
    out *= p
    return out


def _log_softmax(x):
    # z = x - max; z - log(exp(z).sum)
    z = x - x.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def _ln_stats(v, eps):
    """Normalized input xhat = (v - mean) * inv and the inverse standard
    deviation inv, over the last axis."""
    mu = v.mean(axis=-1, keepdims=True)
    xhat = v - mu
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    return xhat, inv


def _ln_tangent(xhat, inv, u):
    """The Jacobian of the normalization v -> xhat = (v - mean) * inv,
    applied to `u`. It is symmetric, so this is the forward and reverse
    rule alike."""
    # inv * (u - u.mean - xhat * (u * xhat).mean)
    c = u * xhat
    np.multiply(xhat, c.mean(axis=-1, keepdims=True), out=c)
    out = u - u.mean(axis=-1, keepdims=True)
    out -= c
    out *= inv
    return out


def _layer_norm(v, w, b, eps=1e-5):
    # xhat * w + b
    xhat, _ = _ln_stats(v, eps)
    xhat *= w
    xhat += b
    return xhat


def _gelu_tanh(x):
    # tanh(c * (x + a * (x * x * x)))
    u = x * x
    u *= x
    u *= _GELU_CUBIC
    u += x
    u *= _SQRT_2_OVER_PI
    return np.tanh(u, out=u)


def _gelu(x, t=None):
    """GELU of `x`; `t` is `_gelu_tanh(x)` when the caller has it."""
    if t is None:
        t = _gelu_tanh(x)
    # 0.5 * x * (1.0 + t)
    out = 0.5 * x
    out *= 1.0 + t
    return out


def _gelu_slope(x, t=None):
    """d gelu(x) / dx, elementwise; `t` is `_gelu_tanh(x)` when the caller
    has it."""
    if t is None:
        t = _gelu_tanh(x)
    # du = c * (1.0 + 3.0 * a * (x * x))
    # 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    du = x * x
    du *= 3.0 * _GELU_CUBIC
    du += 1.0
    du *= _SQRT_2_OVER_PI
    out = 0.5 * x
    s = t * t
    np.subtract(1.0, s, out=s)
    out *= s
    out *= du
    np.add(1.0, t, out=s)
    s *= 0.5
    out += s
    return out


def _matmul_bias(x, w, bias=None):
    # x @ w + bias
    out = x @ w
    if bias is not None:
        out += bias
    return out


def _gather_positions(x, pos):
    return x[np.arange(len(pos))[:, None], pos]


# The graph ops a model forward uses, on plain arrays: a function written
# over `ops` builds nodes with `ops=autodiff` and computes the same values
# without nodes with `ops=autodiff.arrays`.
arrays = SimpleNamespace(
    add=operator.add, matmul=_matmul_bias, reshape=np.reshape,
    transpose=np.transpose, take_rows=lambda table, ids: table[ids],
    gather_positions=_gather_positions, softmax=_softmax,
    log_softmax=_log_softmax, layer_norm=_layer_norm, gelu=_gelu)


class Dual(NamedTuple):
    """A value and its tangent: the derivative of the value along the
    direction that the tangents of the inputs set."""
    value: np.ndarray
    tangent: np.ndarray


def _dual_matmul(a, b, bias=None):
    tangent = a.tangent @ b.value + a.value @ b.tangent
    if bias is None:
        return Dual(a.value @ b.value, tangent)
    tangent += bias.tangent
    return Dual(_matmul_bias(a.value, b.value, bias.value), tangent)


def _dual_softmax(a, scale=1.0, mask=None):
    p = _softmax(a.value, scale, mask)
    return Dual(p, _softmax_tangent(p, a.tangent * scale))


def _dual_layer_norm(x, w, b, eps=1e-5):
    xhat, inv = _ln_stats(x.value, eps)
    return Dual(xhat * w.value + b.value,
                _ln_tangent(xhat, inv, x.tangent) * w.value
                + xhat * w.tangent + b.tangent)


# The same ops in forward mode, over `Dual`s: a function written over `ops`
# gives, run with `ops=autodiff.duals`, the values `arrays` gives, bit for
# bit, and with them their derivatives along the inputs' tangents.
duals = SimpleNamespace(
    add=lambda a, b: Dual(a.value + b.value, a.tangent + b.tangent),
    matmul=_dual_matmul,
    reshape=lambda a, shape: Dual(np.reshape(a.value, shape),
                                  np.reshape(a.tangent, shape)),
    transpose=lambda a, axes: Dual(np.transpose(a.value, axes),
                                   np.transpose(a.tangent, axes)),
    take_rows=lambda table, ids: Dual(table.value[ids], table.tangent[ids]),
    gather_positions=lambda a, pos: Dual(_gather_positions(a.value, pos),
                                         _gather_positions(a.tangent, pos)),
    softmax=_dual_softmax, layer_norm=_dual_layer_norm,
    gelu=lambda a: Dual(_gelu(a.value), a.tangent * _gelu_slope(a.value)))


# ---------------------------------------------------------------------------
# Op library
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    def fwd(x, y):
        return x + y

    def bwd(node, g):
        return (_unbroadcast(g, node.inputs[0].shape),
                _unbroadcast(g, node.inputs[1].shape))

    return _node("add", (a, b), fwd, bwd)


def sub(a: Node, b: Node) -> Node:
    def fwd(x, y):
        return x - y

    def bwd(node, g):
        return (_unbroadcast(g, node.inputs[0].shape),
                _unbroadcast(-g, node.inputs[1].shape))

    return _node("sub", (a, b), fwd, bwd)


def mul(a: Node, b: Node) -> Node:
    def fwd(x, y):
        return x * y

    def bwd(node, g):
        x, y = node.inputs[0].value, node.inputs[1].value
        ga = _unbroadcast(g * y, x.shape) if node.inputs[0].needs_grad else None
        gb = _unbroadcast(g * x, y.shape) if node.inputs[1].needs_grad else None
        return ga, gb

    return _node("mul", (a, b), fwd, bwd)



def scale(a: Node, c: float) -> Node:
    c = float(c)

    def fwd(x):
        return x * c

    def bwd(node, g):
        return (g * c,)

    return _node("scale", (a,), fwd, bwd)


def matmul(a: Node, b: Node, bias: Node | None = None) -> Node:
    """a @ b, plus `bias` [n] when given (a weight product only: b is
    [k, n]). The bias is added in place inside the product's node, so the
    graph keeps no copy of the product before the bias."""
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise DimensionError("matmul operands must have ndim >= 2")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise DimensionError(
            f"matmul inner dims differ: {a.value.shape} @ {b.value.shape}")
    if bias is not None and (b.value.ndim != 2
                             or bias.value.shape != b.value.shape[-1:]):
        raise DimensionError(f"matmul bias {bias.value.shape} needs a "
                             f"[k, n] weight and shape [n]: {b.value.shape}")

    if b.value.ndim == 2 and (a.value.ndim > 2 or bias is not None):
        return _matmul_weight(a, b, bias)

    def fwd(x, y):
        return x @ y

    def bwd(node, g):
        x, y = node.inputs[0].value, node.inputs[1].value
        ga = gb = None
        if node.inputs[0].needs_grad:
            ga = _unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape)
        if node.inputs[1].needs_grad:
            gb = _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape)
        return ga, gb

    return _node("matmul", (a, b), fwd, bwd)


def _matmul_weight(a: Node, w: Node, bias: Node | None) -> Node:
    """[..., k] @ [k, n] (+ bias) as one 2-D GEMM over the flattened
    leading axes. The forward gives numpy's batched product, and the bias
    `add` would give, bit for bit; the weight gradient is one
    [k, rows] @ [rows, n] product, where the batched rule makes one per
    leading index and then sums them."""
    k, n = w.value.shape

    def fwd(x, y, *b):
        return _matmul_bias(x.reshape(-1, k), y, *b).reshape(
            x.shape[:-1] + (n,))

    def bwd(node, g):
        x, y = node.inputs[0].value, node.inputs[1].value
        g2 = g.reshape(-1, n)
        ga = gb = None
        if node.inputs[0].needs_grad:
            ga = (g2 @ np.ascontiguousarray(y.T)).reshape(x.shape)
        if node.inputs[1].needs_grad:
            gb = x.reshape(-1, k).T @ g2
        if bias is None:
            return ga, gb
        # the bias `add`'s gradient: summed over the leading axes
        gbias = _unbroadcast(g, (n,)) if node.inputs[2].needs_grad else None
        return ga, gb, gbias

    return _node("matmul", (a, w) if bias is None else (a, w, bias), fwd,
                 bwd)


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)

    def fwd(x):
        return x.reshape(shape)

    def bwd(node, g):
        return (g.reshape(node.inputs[0].shape),)

    return _node("reshape", (a,), fwd, bwd)


def transpose(a: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def fwd(x):
        return np.transpose(x, axes)

    def bwd(node, g):
        return (np.transpose(g, inv),)

    return _node("transpose", (a,), fwd, bwd)


def take_rows(table: Node, ids: np.ndarray) -> Node:
    """Embedding lookup: out[...] = table[ids[...]]."""
    ids = np.asarray(ids)

    def fwd(t):
        return t[ids]

    def bwd(node, g):
        gt = np.zeros_like(node.inputs[0].value)
        np.add.at(gt, ids, g)
        return (gt,)

    return _node("take_rows", (table,), fwd, bwd)


def gather_positions(a: Node, pos: np.ndarray) -> Node:
    """Per-batch row gather: a [B, T, ...], pos [B, R] -> out [B, R, ...]."""
    pos = np.asarray(pos)
    bidx = np.arange(pos.shape[0])[:, None]

    def fwd(x):
        return x[bidx, pos]

    def bwd(node, g):
        gx = np.zeros_like(node.inputs[0].value)
        np.add.at(gx, (bidx, pos), g)
        return (gx,)

    return _node("gather_positions", (a,), fwd, bwd)


def take_last(a: Node, idx: np.ndarray) -> Node:
    """Gather one element per row along the last axis: out = a[..., idx]."""
    idx = np.asarray(idx)[..., None]

    def fwd(x):
        return np.take_along_axis(x, idx, axis=-1)[..., 0]

    def bwd(node, g):
        gx = np.zeros_like(node.inputs[0].value)
        np.put_along_axis(gx, idx, g[..., None], axis=-1)
        return (gx,)

    return _node("take_last", (a,), fwd, bwd)


def element(a: Node, index) -> Node:
    """Extract a single element as a scalar node."""
    index = tuple(index)

    def fwd(x):
        return np.asarray(x[index])

    def bwd(node, g):
        gx = np.zeros_like(node.inputs[0].value)
        gx[index] = g
        return (gx,)

    return _node("element", (a,), fwd, bwd)



def sum_axis(a: Node, axis: int) -> Node:
    def fwd(x):
        return x.sum(axis=axis)

    def bwd(node, g):
        x = node.inputs[0].value
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _node("sum_axis", (a,), fwd, bwd)


def mean_all(a: Node) -> Node:
    def fwd(x):
        return np.asarray(x.mean())

    def bwd(node, g):
        x = node.inputs[0].value
        return (np.broadcast_to(g / x.size, x.shape).copy(),)

    return _node("mean", (a,), fwd, bwd)


def softmax(a: Node, scale: float = 1.0, mask=None) -> Node:
    """Stable softmax(a * scale + mask) over the last axis, as one node:
    the graph keeps no scaled or masked copy of `a`. `mask` is a constant
    array that broadcasts against `a` (attention's causal mask)."""
    scale = float(scale)

    def fwd(x):
        return _softmax(x, scale, mask)

    def bwd(node, g):
        out = _softmax_tangent(node.value, g)
        out *= scale
        return (out,)

    return _node("softmax", (a,), fwd, bwd)


def log_softmax(a: Node) -> Node:
    """Stable log-softmax over the last axis (computed directly)."""

    def bwd(node, g):
        # g - p * g.sum
        p = np.exp(node.value)
        p *= g.sum(axis=-1, keepdims=True)
        np.subtract(g, p, out=p)
        return (p,)

    return _node("log_softmax", (a,), _log_softmax, bwd)


def layer_norm(x: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine.
    Like `gelu`, each forward keeps its normalized input and inverse
    standard deviation for the next backward, which frees them."""
    kept = {}

    def fwd(v, w, b):
        xhat, _ = kept["s"] = _ln_stats(v, eps)
        # xhat * w + b, in `_layer_norm`'s order
        out = xhat * w
        out += b
        return out

    def bwd(node, g):
        v, w, _ = (i.value for i in node.inputs)
        xhat, inv = kept.pop("s", None) or _ln_stats(v, eps)
        gx = _ln_tangent(xhat, inv, g * w)
        lead = tuple(range(g.ndim - 1))
        gw = (g * xhat).sum(axis=lead) if node.inputs[1].needs_grad else None
        gb = g.sum(axis=lead) if node.inputs[2].needs_grad else None
        return gx, gw, gb

    return _node("layer_norm", (x, gain, bias), fwd, bwd)


def gelu(a: Node) -> Node:
    """Tanh-approximation GELU. Each forward keeps its tanh for the next
    backward, which frees it: a graph whose backward has run holds no
    copy, and a second backward without a re-evaluation computes it
    again."""
    kept = {}

    def fwd(x):
        kept["t"] = t = _gelu_tanh(x)
        return _gelu(x, t)

    def bwd(node, g):
        s = _gelu_slope(node.inputs[0].value, kept.pop("t", None))
        s *= g
        return (s,)

    return _node("gelu", (a,), fwd, bwd)


def softplus(a: Node) -> Node:
    """log(1 + exp(x)), overflow-safe."""

    def fwd(x):
        return np.logaddexp(0.0, x)

    def bwd(node, g):
        x = node.inputs[0].value
        return (g * 0.5 * (1.0 + np.tanh(0.5 * x)),)

    return _node("softplus", (a,), fwd, bwd)


