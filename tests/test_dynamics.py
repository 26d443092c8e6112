import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, dynamics as dy, lm
from unlearnlab import objectives as ob
from unlearnlab.errors import (CapabilityError, ConfigError, ContractError,
                               DataError)


def _perturbed_model(arch, seed, noise_seed):
    store = lm.init_model(arch, seed)
    rng = np.random.default_rng(noise_seed)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.08, store.entries[k].shape)
    return store


@pytest.fixture(scope="module")
def dyn_store():
    arch = lm.ArchConfig(vocab_size=24, context_len=20, d_model=8,
                         n_layers=1, n_heads=2)
    return _perturbed_model(arch, 5, 2)


def test_softmax_jacobian_uniform_two():
    a = dy.softmax_jacobian(np.array([0.5, 0.5]))
    assert np.allclose(a, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_softmax_jacobian_rows_sum_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(9))
        a = dy.softmax_jacobian(pi)
        assert np.max(np.abs(a @ np.ones(9))) < 1e-10
        assert np.max(np.abs(a.sum(axis=1))) < 1e-10


def test_softmax_jacobian_matches_autodiff():
    rng = np.random.default_rng(1)
    z_val = rng.normal(size=7)
    pi = np.exp(ad.arrays.log_softmax(z_val[None, :]))[0]
    a = dy.softmax_jacobian(pi)
    z = ad.leaf(z_val[None, :])
    lp = ad.log_softmax(z)
    rows = [ad.grad(ad.element(lp, (0, v)), [z])[0][0] for v in range(7)]
    assert np.max(np.abs(a - np.stack(rows))) <= 1e-8


def test_residual_ga_example():
    g = dy.residual("ga", np.array([0.5, 0.3, 0.2]), 0)
    assert np.allclose(g, [0.5, -0.3, -0.2], atol=1e-15)
    assert abs(g.sum()) < 1e-10


def test_residual_bst_example_and_identity():
    pi = np.array([0.5, 0.3, 0.2])
    bel = beliefs.topk_belief(pi, 2)
    g_bst = dy.residual("bst", pi, 0, bel, 0.2)
    g_ga = dy.residual("ga", pi, 0)
    assert np.allclose(g_bst, [0.425, -0.225, -0.2], atol=1e-12)
    assert abs(g_bst[1] - g_ga[1] - 0.2 * bel[1]) <= 1e-10
    assert abs(g_bst.sum()) < 1e-10


def test_residual_requires_belief_for_bst():
    with pytest.raises(ContractError):
        dy.residual("bst", np.ones(3) / 3, 0)
    with pytest.raises(ConfigError):
        dy.residual("npo", np.ones(3) / 3, 0)


def test_theorem_residual_identity_many_draws():
    rng = np.random.default_rng(9)
    for _ in range(120):
        v = int(rng.integers(3, 16))
        pi = rng.dirichlet(np.ones(v) * rng.uniform(0.3, 3.0))
        k = int(rng.integers(1, v + 1))
        lam = float(rng.uniform())
        y = int(rng.integers(v))
        bel = beliefs.topk_belief(pi, k)
        g_ga = dy.residual("ga", pi, y)
        g_bst = dy.residual("bst", pi, y, bel, lam)
        diff = g_bst - g_ga
        off = [u for u in range(v) if u != y]
        assert np.max(np.abs(diff[off] - lam * bel[off])) <= 1e-10
        assert abs(diff[y] - lam * (bel[y] - 1.0)) <= 1e-10


def test_residuals_match_autodiff_logit_gradients():
    rng = np.random.default_rng(3)
    v = 9
    z_val = rng.normal(size=(1, 1, v))
    pi = np.exp(ad.arrays.log_softmax(z_val))[0, 0]
    y, k, lam = 4, 3, 0.35
    # ga: root = lp[y]
    z = ad.leaf(z_val)
    lp = ad.log_softmax(z)
    g = ad.grad(ad.element(lp, (0, 0, y)), [z])[0][0, 0]
    assert np.max(np.abs(g - dy.residual("ga", pi, y))) <= 1e-10
    # bst: root = (1-lam) lp[y] + lam <q, lp>
    z = ad.leaf(z_val)
    lp = ad.log_softmax(z)
    q = ad.constant(beliefs.topk_belief(np.exp(lp.value), k))
    root = ad.add(ad.scale(ad.element(lp, (0, 0, y)), 1 - lam),
                  ad.scale(ad.sum_axis(ad.mul(q, lp), axis=2), lam))
    g = ad.grad(root, [z])[0][0, 0]
    bel = beliefs.topk_belief(pi, k)
    assert np.max(np.abs(g - dy.residual("bst", pi, y, bel, lam))) <= 1e-10


def test_entk_block_structure(dyn_store):
    pair = ([1, 2, 3], [4, 5])
    k_aa = dy.entk_block(dyn_store, pair, pair, 3, 3)
    assert np.max(np.abs(k_aa - k_aa.T)) <= 1e-10
    assert np.linalg.eigvalsh(k_aa).min() >= -1e-8
    pair_b = ([2, 2], [7, 8])
    k_ab = dy.entk_block(dyn_store, pair, pair_b, 3, 2)
    k_ba = dy.entk_block(dyn_store, pair_b, pair, 2, 3)
    assert np.max(np.abs(k_ab - k_ba.T)) <= 1e-10


def test_entk_matches_finite_difference_jacobians(dyn_store):
    pair = ([1, 2], [3])
    pos = 1
    names = sorted(dyn_store.entries)
    eps = 1e-5

    def fd_jacobian(store, tokens, position):
        rows = []
        base = store.snapshot()
        flatsizes = [(n, base.entries[n].size) for n in names]
        total = sum(s for _, s in flatsizes)
        jac = np.zeros((store.arch.vocab_size, total))
        off = 0
        for n, size in flatsizes:
            flat = base.entries[n].reshape(-1)
            for j in range(size):
                orig = flat[j]
                flat[j] = orig + eps
                hi = lm.batch_logits(base, [tokens])[0][position]
                flat[j] = orig - eps
                lo = lm.batch_logits(base, [tokens])[0][position]
                flat[j] = orig
                jac[:, off + j] = (hi - lo) / (2 * eps)
            off += size
        return jac

    j_fd = fd_jacobian(dyn_store, [1, 2, 3], pos)
    k_fd = j_fd @ j_fd.T
    k = dy.entk_block(dyn_store, pair, pair, pos, pos)
    denom = max(np.max(np.abs(k)), 1e-12)
    assert np.max(np.abs(k - k_fd)) / denom <= 1e-5


def _dual_logits(store, tokens, direction):
    """Logits of one row and their derivative along `direction`."""
    return lm._logits(ad.duals, {k: ad.Dual(v, direction[k])
                                 for k, v in store.entries.items()},
                      store.arch, [tokens])


@pytest.mark.parametrize("n_layers,tied", [(1, False), (1, True),
                                           (2, False), (2, True)])
def test_dual_jg_matches_logit_jacobian(n_layers, tied):
    arch = lm.ArchConfig(vocab_size=24, context_len=20, d_model=8,
                         n_layers=n_layers, n_heads=2, tie_output_head=tied)
    store = _perturbed_model(arch, 5, 6)
    rng = np.random.default_rng(7)
    g = {k: rng.normal(size=v.shape) for k, v in store.entries.items()}
    g_flat = np.concatenate([g[k].ravel() for k in sorted(g)])
    tokens = [1, 2, 3, 4, 5, 6]
    dual = _dual_logits(store, tokens, g)
    assert np.array_equal(dual.value, lm.batch_logits(store, [tokens]))
    for pos in range(len(tokens)):
        want = dy.logit_jacobian(store, tokens, pos) @ g_flat
        assert np.max(np.abs(dual.tangent[0, pos] - want)) <= 1e-12


def test_dual_jg_above_cap_matches_finite_difference():
    arch = lm.ArchConfig(vocab_size=512, context_len=32, d_model=64,
                         n_layers=2, n_heads=4)
    store = _perturbed_model(arch, 3, 4)
    assert store.param_count() > dy.PARAM_CAP
    rng = np.random.default_rng(4)
    g = {k: rng.normal(size=v.shape) for k, v in store.entries.items()}
    tokens = list(range(1, 13))
    dual = _dual_logits(store, tokens, g)
    assert np.array_equal(dual.value, lm.batch_logits(store, [tokens]))
    # The truncation error of the central difference is about 2e-8 at this
    # step (it falls 100-fold per 10-fold smaller step down to 1e-6).
    eps = 1e-6
    hi, lo = (lm.batch_logits(lm.ParamStore(
        {k: w + step * g[k] for k, w in store.entries.items()}, arch,
        store.seed), [tokens]) for step in (eps, -eps))
    scale = np.max(np.abs(dual.tangent))
    assert scale > 1.0
    assert np.max(np.abs(dual.tangent - (hi - lo) / (2 * eps))) <= 1e-8 * scale


@pytest.mark.parametrize("d_model", [8, 12, 64])
@pytest.mark.parametrize("n_layers,tied", [(n, tied) for n in (0, 1, 2)
                                           for tied in (False, True)])
def test_dual_values_are_the_scorer_rows(n_layers, tied, d_model,
                                        monkeypatch):
    """akg_check takes pi and J_o @ g from one dual forward of pair_o at its
    response rows: the dual's values at those rows equal
    `lm.response_logits`' rows bit for bit, and its tangents equal the
    full-length dual forward's tangent rows bit for bit, one-token prompts
    and responses included."""
    arch = lm.ArchConfig(vocab_size=24, context_len=20, d_model=d_model,
                         n_layers=n_layers, n_heads=2, tie_output_head=tied)
    store = _perturbed_model(arch, 5, 6)
    rng = np.random.default_rng(7)
    g = {k: rng.normal(size=v.shape) for k, v in store.entries.items()}
    logits, forwards = lm._logits, []

    def recorded(ops, *args):
        out = logits(ops, *args)
        if ops is ad.duals:
            forwards.append((args, out))
        return out

    for pair in [([1], [2]), ([1], [2, 3, 4, 5]), ([1, 2, 3], [4]),
                 ([1, 2, 3, 4, 5], [6, 7, 8])]:
        prompt, response = pair
        start = len(prompt) - 1
        dual = _dual_logits(store, [*prompt, *response], g)
        [(_, want)] = lm.response_logits(store, [pair])
        assert np.array_equal(dual.value[0, start:start + len(response)],
                              want), pair
        forwards.clear()
        monkeypatch.setattr(lm, "_logits", recorded)
        pi, *_ = dy.akg_check(store, pair, pair, ob.LossConfig(kind="ga"),
                              (1e-3,))
        monkeypatch.undo()
        assert np.array_equal(pi, np.exp(ad.arrays.log_softmax(want))), pair
        [((along_g, _, tokens, _, rows), at_rows)] = forwards
        assert rows.tolist() == [list(range(start, start + len(response)))]
        full = logits(ad.duals, along_g, arch, tokens)
        assert np.array_equal(at_rows.tangent[0],
                              full.tangent[0, start:start + len(response)]
                              ), pair


def test_entk_refuses_above_cap(dyn_store, monkeypatch):
    pair = ([1], [2])
    monkeypatch.setattr(dy, "PARAM_CAP", 10)
    with pytest.raises(CapabilityError):
        dy.entk_block(dyn_store, pair, pair, 0, 0)


def _first_order_errors(predicted, actual):
    """Max |actual - predicted| per eta."""
    return np.abs(actual - predicted).max(axis=(1, 2))


def test_akg_error_halves_quadratically(dyn_store):
    pair = ([1, 2, 3, 4], [5, 6, 7])
    *_, predicted, actual = dy.akg_check(dyn_store, pair, pair,
                                         ob.LossConfig(kind="ga"),
                                         (1e-3, 5e-4))
    e1, e2 = _first_order_errors(predicted, actual)
    assert e2 / e1 <= 0.5


def test_akg_ga_pushes_label_down(dyn_store):
    pair = ([1, 2, 3], [4, 5])
    _, _, predicted, _ = dy.akg_check(dyn_store, pair, pair,
                                      ob.LossConfig(kind="ga"), (1e-3,))
    assert predicted.shape == (1, 2, dyn_store.arch.vocab_size)
    for row, y in zip(predicted[0], pair[1]):
        assert row[y] < 0


def test_akg_eta_scaling_slope(dyn_store):
    pair = ([1, 2, 3, 4], [5, 6, 7, 1])
    slope, _, _ = dy.eta_scaling_slope(dyn_store, pair, pair,
                                       ob.LossConfig(kind="ga"))
    assert slope >= 1.7


def test_eta_scaling_slope_computes_each_jacobian_once(dyn_store,
                                                       monkeypatch):
    pair = ([1, 2, 3], [5, 6, 7])
    cfg = ob.LossConfig(kind="ga")
    etas = (1e-3, 5e-4, 2.5e-4)
    jacobians, dual_forwards = [], []
    jacobian, logits = dy.logit_jacobian, lm._logits

    def counted_jacobian(store, tokens, position):
        jacobians.append(position)
        return jacobian(store, tokens, position)

    def counted_logits(ops, *args):
        if ops is ad.duals:
            dual_forwards.append(args[2])
        return logits(ops, *args)

    monkeypatch.setattr(dy, "logit_jacobian", counted_jacobian)
    monkeypatch.setattr(lm, "_logits", counted_logits)
    _, positions, per_eta = dy.eta_scaling_slope(dyn_store, pair, pair, cfg,
                                                 etas)
    assert jacobians == []
    assert dual_forwards == [[[1, 2, 3, 5, 6, 7]]]
    monkeypatch.undo()
    # Each eta's report equals that of a run at that eta alone, bit for bit.
    for eta, doc in zip(etas, per_eta):
        pi, G, [predicted], [actual] = dy.akg_check(dyn_store, pair, pair,
                                                    cfg, (eta,))
        assert doc["positions"] == [
            {"position": i, "predicted_delta_logpi": p.tolist(),
             "actual_delta_logpi": a.tolist(),
             "first_order_error": float(np.max(np.abs(a - p)))}
            for i, (p, a) in enumerate(zip(predicted, actual))]
        assert doc["max_first_order_error"] == max(
            r["first_order_error"] for r in doc["positions"])
        assert positions == [{"position": i, "pi": p.tolist(),
                              "G": g.tolist()}
                             for i, (p, g) in enumerate(zip(pi, G))]
    with pytest.raises(ConfigError):
        dy.eta_scaling_slope(dyn_store, pair, pair, cfg, (1e-3, 0.0))
    # pair_o's response has no position to predict.
    with pytest.raises(DataError):
        dy.akg_check(dyn_store, pair, (pair[0], []), cfg, etas)


def test_akg_bst_reports_carry_residuals(dyn_store):
    pair = ([1, 2], [3, 4])
    cfg = ob.LossConfig(kind="bst", lambda_bst=0.2, k=5)
    pi, G, [predicted], _ = dy.akg_check(dyn_store, pair, pair, cfg, (1e-3,))
    lp = ad.arrays.log_softmax(lm.batch_logits(dyn_store, [[1, 2, 3, 4]])[0])
    for i, (pos, y) in enumerate(zip((1, 2), pair[1])):
        want_pi = np.exp(lp[pos])
        bel = beliefs.topk_belief(want_pi, 5)
        want = dy.residual("bst", want_pi, y, bel, 0.2)
        assert np.max(np.abs(G[i] - want)) <= 1e-10
        assert abs(G[i].sum()) <= 1e-10
        assert np.array_equal(pi[i], want_pi)
        a = dy.softmax_jacobian(pi[i])
        assert np.max(np.abs(a @ np.ones(len(want_pi)))) <= 1e-10
        # predicted = A @ dz with A = I - 1 pi^T, so pi . predicted = 0
        assert abs(pi[i] @ predicted[i]) <= 1e-15


def _closed_form_residual(kind, cfg, store, ref_store, pair):
    """The loss residual of a one-pair batch in closed form, per scored
    position: e_y - pi (ga, graddiff), t - pi (bst),
    2 sigma(beta * margin) (e_y - pi) (npo), pi(y_i)^alpha (e_y - pi) (wga
    with its weight held constant), and (1 - lambda_bss) times the base
    kind's (bss, whose augmented pairs have logits of their own)."""
    if kind == "bss":
        return (1.0 - cfg.lambda_bss) * _closed_form_residual(
            cfg.base_loss, cfg, store, ref_store, pair)
    pi = _response_probs(store, pair)
    if kind == "bst":
        return np.stack([dy.residual("bst", p, y, beliefs.topk_belief(
            p, cfg.k, cfg.belief_smoothing_tau), cfg.lambda_bst)
            for p, y in zip(pi, pair[1])])
    ga = np.stack([dy.residual("ga", p, y) for p, y in zip(pi, pair[1])])
    if kind == "npo":
        margin = (np.log(_target_probs(store, pair)).sum()
                  - np.log(_target_probs(ref_store, pair)).sum())
        return 2.0 / (1.0 + np.exp(-cfg.beta * margin)) * ga
    if kind == "wga":
        return _target_probs(store, pair)[:, None] ** cfg.alpha * ga
    return ga


def _response_probs(store, pair):
    [(_, logits)] = lm.response_logits(store, [pair])
    return np.exp(ad.arrays.log_softmax(logits))


def _target_probs(store, pair):
    """pi(y_i) at each of the pair's response tokens."""
    return _response_probs(store, pair)[np.arange(len(pair[1])), pair[1]]


@pytest.mark.parametrize("kind", ob.LOSS_KINDS)
def test_akg_transports_a_step_on_one_pair_to_another(kind):
    """A step on u's loss moves o's log-probabilities as -eta * A K G
    predicts, for every loss kind: pi is o's distribution, G is u's
    residual read off the loss graph at each of u's own positions, and the
    error still falls like eta^2. u's response is one token longer than
    o's, so the last entry has `G` and no `pi`. G matches its closed form:
    bit for bit for ga and graddiff, and to 1e-14 for the rest, whose
    closed forms round differently from the log-softmax backward
    (g - pi * sum(g)). npo's reference is another model, and bss's two
    augmentations are fixed."""
    arch = lm.ArchConfig(vocab_size=48, context_len=24, d_model=12,
                         n_layers=1, n_heads=2)
    store = _perturbed_model(arch, 5, 2)
    ref_store = _perturbed_model(arch, 5, 3)
    u, o = ([1, 2, 3, 4], [5, 6, 7, 1]), ([2, 9, 3], [8, 6, 1])
    augmented = [[[5, 6, 1], [9, 2, 7, 4, 1]]]
    cfg = ob.LossConfig(kind=kind)
    slope, positions, _ = dy.eta_scaling_slope(store, u, o, cfg,
                                               ref_store=ref_store,
                                               augmented=augmented)
    assert abs(slope - 2) <= 0.1
    assert [p["position"] for p in positions] == [0, 1, 2, 3]
    assert np.array_equal([p["pi"] for p in positions[:3]],
                          _response_probs(store, o))
    assert set(positions[3]) == {"position", "G"}
    G = np.array([p["G"] for p in positions])
    want = _closed_form_residual(kind, cfg, store, ref_store, u)
    assert G.shape == want.shape == (4, arch.vocab_size)
    if kind in ("ga", "graddiff"):
        assert np.array_equal(G, want)
    else:
        assert np.max(np.abs(G - want)) <= 1e-14


# Squeeze bands ---------------------------------------------------------------


def test_band_assignment_quantiles():
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    bands = dy._assign_bands(scores)
    assert bands.tolist() == [0, 1, 1, 2, 2]
    assert [dy.BANDS[b] for b in bands] == ["high", "mid", "mid", "low",
                                            "low"]


def test_squeeze_trace_structure(mini_trained):
    from unlearnlab import corpus as cp
    corp, store = mini_trained
    vocab = corp.vocab
    recs = corp.split("forget")[:3]
    prompts, refs = [], []
    for r in recs:
        p, a = cp.qa_pair_tokens(vocab, r.question, r.answer)
        prompts.append((r.id, p))
        refs.append(a)
    # two fake checkpoints: original and a perturbed copy
    second = store.snapshot()
    rng = np.random.default_rng(0)
    for k in second.entries:
        second.entries[k] = second.entries[k] + rng.normal(
            0, 0.01, second.entries[k].shape)
    means, sizes = dy.squeeze_trace([store, second], prompts, 12,
                                    max_len=10, eos_id=vocab.eos,
                                    exclude_responses=refs)
    assert means.shape == (3, 2, 3)
    assert sizes.shape == (3, 3)
    for m, n in zip(means, sizes):
        hi, mid, lo = m[0]
        assert hi > mid > lo
        assert n[0] >= 1
    rows = dy.trace_rows(means.mean(0), sizes.sum(0))
    assert len(rows) == 2 * 3
    assert rows[0][:2] == (0, "high")
    assert rows[0][3] == sizes[:, 0].sum()


def test_squeeze_trace_scores_all_prompts_in_one_call_per_checkpoint(
        mini_trained, monkeypatch):
    """One scorer call per checkpoint over every prompt's candidates, and
    each prompt's trace equals its trace when traced alone, bit for bit."""
    from unlearnlab import corpus as cp
    corp, store = mini_trained
    recs = corp.split("forget")[:3]
    prompts, refs = [], []
    for r in recs:
        p, a = cp.qa_pair_tokens(corp.vocab, r.question, r.answer)
        prompts.append((r.id, p))
        refs.append(a)
    second = store.snapshot()
    rng = np.random.default_rng(1)
    for k in second.entries:
        second.entries[k] = second.entries[k] + rng.normal(
            0, 0.01, second.entries[k].shape)
    calls, scorer = [], lm.response_logits

    def counted(ck, pairs):
        calls.append(len(pairs))
        return scorer(ck, pairs)

    monkeypatch.setattr(lm, "response_logits", counted)
    kw = dict(beam_width=12, max_len=10, eos_id=corp.vocab.eos)
    means, sizes = dy.squeeze_trace([store, second], prompts,
                                    exclude_responses=refs, **kw)
    assert len(calls) == 2
    assert calls[0] == sizes.sum()
    for prompt, ref, m, n in zip(prompts, refs, means, sizes):
        [alone_m], [alone_n] = dy.squeeze_trace(
            [store, second], [prompt], exclude_responses=[ref], **kw)
        assert np.array_equal(alone_n, n)
        assert np.array_equal(alone_m, m)


def test_squeeze_trace_needs_five_candidates(mini_trained):
    corp, store = mini_trained
    with pytest.raises(DataError):
        dy.squeeze_trace([store], [("p0", [1, 2, 3])], beam_width=4,
                         exclude_responses=[[4, 5]])
