import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab.errors import ContractError, DimensionError


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


def test_softmax_of_zeros_is_uniform():
    p = ad.softmax(ad.leaf([[0.0, 0.0]]))
    assert np.allclose(p.value, [[0.5, 0.5]], atol=1e-15)


def test_log_softmax_shift_invariant_no_overflow():
    lp = ad.log_softmax(ad.leaf([[1000.0, 1000.0]]))
    assert np.all(np.isfinite(lp.value))
    assert np.allclose(lp.value, -np.log(2.0), atol=1e-12)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    out = ad.matmul(ad.constant(np.eye(3)), ad.leaf(m))
    assert np.allclose(out.value, m, atol=1e-15)


def test_matmul_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        ad.matmul(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.leaf(np.zeros(3)), ad.leaf(np.zeros((3, 2))))


def test_softmax_cross_entropy_gradient_closed_form():
    z = ad.leaf([[0.0, 0.0]])
    root = ad.element(ad.log_softmax(z), (0, 0))
    g = ad.grad(root, [z])[0]
    assert np.allclose(g, [[0.5, -0.5]], atol=1e-15)


def test_grad_requires_scalar_root():
    x = ad.leaf([1.0, 2.0])
    with pytest.raises(ContractError):
        ad.grad(ad.mul(x, x), [x])


def test_finite_diff_requires_positive_epsilon():
    x = ad.leaf([1.0])
    root = ad.sum_axis(x, axis=0)
    with pytest.raises(ContractError):
        ad.finite_diff(root, x, 0.0)


def test_finite_diff_quadratic_exact():
    x = ad.leaf([3.0])
    f = ad.sum_axis(ad.mul(x, x), axis=0)
    est = ad.finite_diff(f, x, 1e-4)
    assert abs(est[0] - 6.0) < 1e-7


def test_finite_diff_error_shrinks_quadratically():
    # x^3 has third derivative 6; truncation error is eps^2.
    x = ad.leaf([0.7])
    f = ad.sum_axis(ad.mul(ad.mul(x, x), x), axis=0)
    exact = 3 * 0.7 ** 2
    err = {eps: abs(ad.finite_diff(f, x, eps)[0] - exact)
           for eps in (1e-3, 5e-4)}
    assert err[5e-4] / err[1e-3] < 0.5


def test_three_layer_graph_grad_matches_fd():
    rng = np.random.default_rng(7)
    x = ad.leaf(rng.uniform(-2, 2, (2, 3)))
    w1 = ad.leaf(rng.uniform(-1, 1, (3, 4)))
    w2 = ad.leaf(rng.uniform(-1, 1, (4, 2)))
    h = ad.gelu(ad.matmul(x, w1))
    root = ad.mean_all(ad.softplus(ad.matmul(h, w2)))
    for leafn in (x, w1, w2):
        g = ad.grad(root, [leafn])[0]
        fd = ad.finite_diff(root, leafn, 1e-5)
        assert rel_err(g, fd) <= 1e-5


def test_diamond_graph_counts_both_paths():
    x = ad.leaf([2.0])
    y = ad.mul(x, x)          # x^2
    root = ad.sum_axis(ad.add(y, y), axis=0)  # 2 x^2 -> d/dx = 4x = 8
    assert np.allclose(ad.grad(root, [x])[0], [8.0])
    x.value[...] = 3.0
    assert np.allclose(ad.evaluate(root), [18.0])


def test_grad_wrt_interior_node():
    z = ad.leaf([[0.3, -0.7, 1.1]])
    lp = ad.log_softmax(z)
    root = ad.element(lp, (0, 2))
    gz, glp = ad.grad(root, [z, lp])
    expect = -np.exp(lp.value)
    expect[0, 2] += 1.0
    assert np.allclose(gz, expect, atol=1e-12)
    want = np.zeros((1, 3))
    want[0, 2] = 1.0
    assert np.allclose(glp, want)


def test_softmax_normalization_property():
    # Strict (0, 1) components need the spread to stay float-representable:
    # beyond ~36 nats the dominant component rounds to exactly 1.0.
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.uniform(-15, 15, (4, 7))
        p = ad.softmax(ad.leaf(z)).value
        assert np.all(p > 0) and np.all(p < 1)
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12


def test_softmax_extreme_inputs_stay_normalized():
    z = np.array([[800.0, -800.0, 0.0], [1e4, 1e4, 1e4]])
    p = ad.softmax(ad.leaf(z)).value
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12


# Finite-difference sweep over every op with a registered derivative --------


def _fd_case(name):
    rng_shapes = {
        "add": [(2, 3), (2, 3)],
        "add_broadcast": [(2, 3), (3,)],
        "sub": [(2, 3), (2, 3)],
        "mul": [(2, 3), (2, 3)],
        "mul_broadcast": [(2, 3), (1, 3)],
        "scale": [(2, 3)],
        "matmul": [(2, 3), (3, 2)],
        "matmul_batched": [(2, 2, 3), (3, 2)],
        "matmul_weight_4d": [(2, 2, 2, 3), (3, 2)],
        "matmul_bias": [(2, 2, 3), (3, 2), (2,)],
        "reshape": [(2, 3)],
        "transpose": [(2, 3)],
        "take_rows": [(4, 3)],
        "take_last": [(2, 4)],
        "gather_positions": [(2, 3, 2)],
        "element": [(2, 3)],
        "sum_axis": [(2, 3)],
        "softmax": [(2, 4)],
        "softmax_scale_mask": [(2, 2, 3, 4)],
        "log_softmax": [(2, 4)],
        "layer_norm": [(2, 4), (4,), (4,)],
        "gelu": [(2, 3)],
        "softplus": [(2, 3)],
    }
    builders = {
        "add": lambda a, b: ad.add(a, b),
        "add_broadcast": lambda a, b: ad.add(a, b),
        "sub": lambda a, b: ad.sub(a, b),
        "mul": lambda a, b: ad.mul(a, b),
        "mul_broadcast": lambda a, b: ad.mul(a, b),
        "scale": lambda a: ad.scale(a, -1.7),
        "matmul": lambda a, b: ad.matmul(a, b),
        "matmul_batched": lambda a, b: ad.matmul(a, b),
        "matmul_weight_4d": lambda a, b: ad.matmul(a, b),
        "matmul_bias": lambda a, b, c: ad.matmul(a, b, c),
        "reshape": lambda a: ad.reshape(a, (3, 2)),
        "transpose": lambda a: ad.transpose(a, (1, 0)),
        "take_rows": lambda a: ad.take_rows(a, np.array([[0, 2], [3, 2]])),
        "take_last": lambda a: ad.take_last(a, np.array([1, 3])),
        "gather_positions": lambda a: ad.gather_positions(
            a, np.array([[0, 2], [1, 1]])),
        "element": lambda a: ad.element(a, (1, 2)),
        "sum_axis": lambda a: ad.sum_axis(a, axis=1),
        "softmax": lambda a: ad.softmax(a),
        "softmax_scale_mask": lambda a: ad.softmax(a, -0.7, _MASK),
        "log_softmax": lambda a: ad.log_softmax(a),
        "layer_norm": lambda a, g, b: ad.layer_norm(a, g, b),
        "gelu": lambda a: ad.gelu(a),
        "softplus": lambda a: ad.softplus(a),
    }
    return rng_shapes[name], builders[name]


# A causal mask for 3 queries at positions 1..3 over 4 keys.
_MASK = np.triu(np.full((3, 4), -1e30), k=2)[None, None]

ALL_OPS = ["add", "add_broadcast", "sub", "mul", "mul_broadcast", "scale",
           "matmul", "matmul_batched", "matmul_weight_4d", "matmul_bias",
           "reshape", "transpose", "take_rows", "take_last",
           "gather_positions", "element", "sum_axis", "softmax",
           "softmax_scale_mask", "log_softmax", "layer_norm", "gelu",
           "softplus"]


@pytest.mark.parametrize("op", ALL_OPS)
def test_every_op_gradient_matches_fd(op):
    shapes, builder = _fd_case(op)
    rng = np.random.default_rng(hash(op) % 2**32)
    for _ in range(100):
        leaves = [ad.leaf(rng.uniform(-2, 2, s)) for s in shapes]
        out = builder(*leaves)
        # random linear functional so the root is scalar
        w = ad.constant(rng.uniform(-1, 1, out.value.shape))
        root = ad.mean_all(ad.mul(out, w))
        for leafn in leaves:
            g = ad.grad(root, [leafn])[0]
            fd = ad.finite_diff(root, leafn, 1e-5)
            assert rel_err(g, fd) <= 1e-4, f"{op}: rel err {rel_err(g, fd)}"


def test_gelu_backward_reuses_the_latest_forward_tanh():
    rng = np.random.default_rng(7)
    x = ad.leaf(rng.uniform(-3, 3, (4, 5)))
    node = ad.gelu(x)
    g = rng.uniform(-1, 1, (4, 5))
    for _ in range(2):
        assert np.array_equal(node.value, ad.arrays.gelu(x.value))
        # The second backward finds the kept tanh freed by the first.
        for _ in range(2):
            (gx,) = node._backward(node, g)
            assert np.array_equal(gx, g * ad._gelu_slope(x.value))
        # Leaf mutations and re-evaluations with no backward between
        # them, as `finite_diff` makes them: the last one must count.
        for _ in range(2):
            x.value[...] = rng.uniform(-3, 3, x.shape)
            ad.evaluate(node)


def test_layer_norm_backward_reuses_the_latest_forward_stats():
    rng = np.random.default_rng(8)
    x = ad.leaf(rng.uniform(-3, 3, (4, 6)))
    w, b = ad.leaf(rng.uniform(-1, 1, 6)), ad.leaf(rng.uniform(-1, 1, 6))
    node = ad.layer_norm(x, w, b)
    g = rng.uniform(-1, 1, (4, 6))

    def want():
        # the backward computed from the current input alone
        mu = x.value.mean(axis=-1, keepdims=True)
        xc = x.value - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        u = g * w.value
        gx = inv * (u - u.mean(axis=-1, keepdims=True)
                    - xhat * (u * xhat).mean(axis=-1, keepdims=True))
        return gx, (g * xhat).sum(axis=0), g.sum(axis=0)

    for _ in range(2):
        assert np.array_equal(node.value, ad.arrays.layer_norm(
            x.value, w.value, b.value))
        # The second backward finds the kept statistics freed by the first.
        for _ in range(2):
            for got, ref in zip(node._backward(node, g), want()):
                assert np.array_equal(got, ref)
        # Leaf mutations and re-evaluations with no backward between
        # them, as `finite_diff` makes them: the last one must count.
        for _ in range(2):
            x.value[...] = rng.uniform(-3, 3, x.shape)
            ad.evaluate(node)


# The 2-D weight product: [..., k] @ [k, n] as one GEMM ---------------------


def test_weight_matmul_gradients_equal_the_batched_rule():
    """Against the per-leading-index products of numpy's batched matmul,
    summed over the batch: the forward bit for bit, the gradients to
    1e-12 (the one GEMM sums the rows in another order)."""
    rng = np.random.default_rng(11)
    x = ad.leaf(rng.normal(size=(32, 21, 64)))
    w = ad.leaf(rng.normal(size=(64, 48)))
    out = ad.matmul(x, w)
    assert np.array_equal(out.value, x.value @ w.value)
    g = rng.normal(size=out.shape)
    gx, gw = out._backward(out, g)
    assert rel_err(gw, (np.swapaxes(x.value, -1, -2) @ g).sum(0)) <= 1e-12
    assert rel_err(gx, g @ np.swapaxes(w.value, -1, -2)) <= 1e-12
    assert gx.shape == x.shape and gw.shape == w.shape


@pytest.mark.parametrize("frozen", ["input", "weight"])
def test_weight_matmul_with_a_constant_operand(frozen):
    """A frozen weight (npo's reference model) or a constant input gets no
    gradient; the other operand's gradient matches finite differences."""
    rng = np.random.default_rng(12)
    make_x = ad.constant if frozen == "input" else ad.leaf
    make_w = ad.constant if frozen == "weight" else ad.leaf
    x = make_x(rng.uniform(-2, 2, (2, 3, 4)))
    w = make_w(rng.uniform(-2, 2, (4, 5)))
    out = ad.matmul(x, w)
    gx, gw = out._backward(out, np.ones(out.shape))
    assert (gx is None) == (frozen == "input")
    assert (gw is None) == (frozen == "weight")
    live = w if frozen == "input" else x
    root = ad.mean_all(ad.mul(out, ad.constant(
        rng.uniform(-1, 1, out.shape))))
    g = ad.grad(root, [live])[0]
    assert rel_err(g, ad.finite_diff(root, live, 1e-5)) <= 1e-8


# Folded nodes: the bits of the composed ops they replace -------------------


def _forward_and_grads(build, values, seed):
    leaves = [ad.leaf(v) for v in values]
    out = build(*leaves)
    w = ad.constant(np.random.default_rng(seed).uniform(-1, 1, out.shape))
    return out.value, ad.grad(ad.mean_all(ad.mul(out, w)), leaves)


_SCALE = 1.0 / np.sqrt(6.0)
_DESK_MASK = np.triu(np.full((21, 21), -1e30), k=1)[None, None]
# fold -> (operand shapes, the folded op over `ops`, the composed graph
# ops it replaces, the composed dual ops it replaces)
_FOLDS = {
    "matmul_bias": (
        [(32, 21, 64), (64, 256), (256,)],
        lambda ops, a, w, b: ops.matmul(a, w, b),
        lambda a, w, b: ad.add(ad.matmul(a, w), b),
        lambda a, w, b: ad.duals.add(ad.duals.matmul(a, w), b)),
    "softmax_scale_mask": (
        [(32, 4, 21, 21)],
        lambda ops, a: ops.softmax(a, _SCALE, _DESK_MASK),
        lambda a: ad.softmax(ad.add(ad.scale(a, _SCALE),
                                    ad.constant(_DESK_MASK))),
        lambda a: ad.duals.softmax(ad.duals.add(
            ad.Dual(a.value * _SCALE, a.tangent * _SCALE),
            ad.Dual(_DESK_MASK, np.zeros_like(_DESK_MASK))))),
}


@pytest.mark.parametrize("fold", sorted(_FOLDS))
def test_folded_node_equals_the_composed_ops_bit_for_bit(fold):
    """`matmul(a, w, bias)` against `add(matmul(a, w), bias)`, and
    `softmax(a, scale, mask)` against `softmax(add(scale(a), mask))`, at
    desk sizes: the graph node's forward and every gradient, the plain-array
    value and the dual tangent, bit for bit."""
    shapes, folded, composed, composed_dual = _FOLDS[fold]
    rng = np.random.default_rng(14)
    values = [rng.normal(size=s) for s in shapes]
    got = _forward_and_grads(lambda *a: folded(ad, *a), values, 15)
    want = _forward_and_grads(composed, values, 15)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1], want[1]):
        assert np.array_equal(g, w)
    assert np.array_equal(folded(ad.arrays, *values), want[0])
    duals = [ad.Dual(v, rng.normal(size=v.shape)) for v in values]
    got_dual, want_dual = folded(ad.duals, *duals), composed_dual(*duals)
    assert np.array_equal(got_dual.value, want[0])
    assert np.array_equal(got_dual.tangent, want_dual.tangent)


def test_matmul_bias_needs_a_weight_and_an_n_vector():
    a, w = ad.leaf(np.ones((2, 3, 4))), ad.leaf(np.ones((4, 5)))
    with pytest.raises(DimensionError):
        ad.matmul(a, w, ad.leaf(np.ones(4)))
    with pytest.raises(DimensionError):
        ad.matmul(a, ad.leaf(np.ones((2, 4, 5))), ad.leaf(np.ones(5)))


# In-place kernels: the bits of the plain expressions they replace ----------
# (test_lm.py pins the forward kernels that `autodiff.arrays` exposes)


def _slope_np(x, t):
    du = ad._SQRT_2_OVER_PI * (1.0 + 3.0 * ad._GELU_CUBIC * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def test_in_place_derivative_kernels_keep_the_bits_of_the_plain_expressions():
    """Desk-sized arrays: the MLP activations [32, 21, 256], the logits
    [32, 21, 512] and the attention weights [32, 4, 21, 21]."""
    rng = np.random.default_rng(13)
    h = rng.normal(0, 2, (32, 21, 256))
    t = np.tanh(ad._SQRT_2_OVER_PI * (h + ad._GELU_CUBIC * (h * h * h)))
    assert np.array_equal(ad._gelu_tanh(h), t)
    assert np.array_equal(ad._gelu(h, t), 0.5 * h * (1.0 + t))
    assert np.array_equal(ad._gelu_slope(h), _slope_np(h, t))
    assert np.array_equal(ad._gelu_slope(h, t), _slope_np(h, t))
    act = ad.gelu(ad.leaf(h))
    gh = rng.normal(size=h.shape)
    assert np.array_equal(act._backward(act, gh)[0], gh * _slope_np(h, t))

    xhat, inv = ad._ln_stats(h, 1e-5)
    u = rng.normal(size=h.shape)
    assert np.array_equal(
        ad._ln_tangent(xhat, inv, u),
        inv * (u - u.mean(axis=-1, keepdims=True)
               - xhat * (u * xhat).mean(axis=-1, keepdims=True)))

    for shape in ((32, 21, 512), (32, 4, 21, 21)):
        z = rng.normal(0, 4, shape)
        g = rng.normal(size=shape)
        p = ad._softmax(z)
        assert np.array_equal(ad._softmax_tangent(p, g),
                              p * (g - (g * p).sum(axis=-1, keepdims=True)))
        lp = ad.log_softmax(ad.leaf(z))
        assert np.array_equal(
            lp._backward(lp, g)[0],
            g - np.exp(lp.value) * g.sum(axis=-1, keepdims=True))


# Forward mode: each dual op's tangent against a finite difference ----------


# Keyed by op name, or by "op:variant" for a further signature of an op.
DUAL_CASES = {
    "add": ([(2, 3), (3,)], lambda ops, a, b: ops.add(a, b)),
    "matmul": ([(2, 2, 3), (3, 4)], lambda ops, a, b: ops.matmul(a, b)),
    "matmul:bias": ([(2, 2, 3), (3, 4), (4,)],
                    lambda ops, a, b, c: ops.matmul(a, b, c)),
    "reshape": ([(2, 3)], lambda ops, a: ops.reshape(a, (3, 2))),
    "transpose": ([(2, 3, 4)], lambda ops, a: ops.transpose(a, (0, 2, 1))),
    "take_rows": ([(4, 3)],
                  lambda ops, a: ops.take_rows(a, np.array([[0, 2], [3, 2]]))),
    "gather_positions": ([(2, 4, 3)], lambda ops, a: ops.gather_positions(
        a, np.array([[3, 1, 1], [0, 2, 0]]))),
    "softmax": ([(2, 4)], lambda ops, a: ops.softmax(a)),
    "softmax:scale_mask": ([(2, 2, 3, 4)],
                           lambda ops, a: ops.softmax(a, -0.7, _MASK)),
    "layer_norm": ([(2, 4), (4,), (4,)],
                   lambda ops, a, g, b: ops.layer_norm(a, g, b)),
    "gelu": ([(2, 3)], lambda ops, a: ops.gelu(a)),
}


def test_dual_cases_cover_every_dual_op():
    assert {case.split(":")[0] for case in DUAL_CASES} == set(vars(ad.duals))


@pytest.mark.parametrize("op", sorted(DUAL_CASES))
def test_every_dual_op_tangent_matches_fd(op):
    shapes, fn = DUAL_CASES[op]
    rng = np.random.default_rng(sorted(DUAL_CASES).index(op))
    eps = 1e-5
    for _ in range(50):
        xs = [rng.uniform(-2, 2, s) for s in shapes]
        ts = [rng.uniform(-1, 1, s) for s in shapes]
        out = fn(ad.duals, *[ad.Dual(x, t) for x, t in zip(xs, ts)])
        assert np.array_equal(out.value, fn(ad.arrays, *xs))
        hi = fn(ad.arrays, *[x + eps * t for x, t in zip(xs, ts)])
        lo = fn(ad.arrays, *[x - eps * t for x, t in zip(xs, ts)])
        fd = (hi - lo) / (2 * eps)
        assert rel_err(out.tangent, fd) <= 1e-8, \
            f"{op}: rel err {rel_err(out.tangent, fd)}"
