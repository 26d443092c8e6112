import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, dynamics as dy, lm
from unlearnlab import objectives as ob
from unlearnlab.errors import (CapabilityError, ConfigError, ContractError,
                               DataError)


@pytest.fixture(scope="module")
def dyn_store():
    arch = lm.ArchConfig(vocab_size=24, context_len=20, d_model=8,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 5)
    rng = np.random.default_rng(2)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.08, store.entries[k].shape)
    return store


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
    pi = np.exp(lm._log_softmax_np(z_val[None, :]))[0]
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
    assert abs(g_bst[1] - g_ga[1] - 0.2 * bel.probs[1]) <= 1e-10
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
        assert np.max(np.abs(diff[off] - lam * bel.probs[off])) <= 1e-10
        assert abs(diff[y] - lam * (bel.probs[y] - 1.0)) <= 1e-10


def test_residuals_match_autodiff_logit_gradients():
    rng = np.random.default_rng(3)
    v = 9
    z_val = rng.normal(size=(1, 1, v))
    pi = np.exp(lm._log_softmax_np(z_val))[0, 0]
    y, k, lam = 4, 3, 0.35
    # ga: root = lp[y]
    z = ad.leaf(z_val)
    lp = ad.log_softmax(z)
    g = ad.grad(ad.element(lp, (0, 0, y)), [z])[0][0, 0]
    assert np.max(np.abs(g - dy.residual("ga", pi, y))) <= 1e-10
    # bst: root = (1-lam) lp[y] + lam <q, lp>
    z = ad.leaf(z_val)
    lp = ad.log_softmax(z)
    q = beliefs.belief_node(ad.exp(lp), k)
    root = ad.add(ad.scale(ad.element(lp, (0, 0, y)), 1 - lam),
                  ad.scale(ad.sum_all(ad.mul(q, lp)), lam))
    g = ad.grad(root, [z])[0][0, 0]
    bel = beliefs.topk_belief(pi, k)
    assert np.max(np.abs(g - dy.residual("bst", pi, y, bel, lam))) <= 1e-10


def test_entk_block_structure(dyn_store):
    chi = dy.Chi(prompt=[1, 2, 3], response=[4, 5])
    k_aa = dy.entk_block(dyn_store, chi, chi, 3, 3)
    assert np.max(np.abs(k_aa - k_aa.T)) <= 1e-10
    assert np.linalg.eigvalsh(k_aa).min() >= -1e-8
    chi_b = dy.Chi(prompt=[2, 2], response=[7, 8])
    k_ab = dy.entk_block(dyn_store, chi, chi_b, 3, 2)
    k_ba = dy.entk_block(dyn_store, chi_b, chi, 2, 3)
    assert np.max(np.abs(k_ab - k_ba.T)) <= 1e-10


def test_entk_matches_finite_difference_jacobians(dyn_store):
    chi = dy.Chi(prompt=[1, 2], response=[3])
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
                hi = lm.forward_logits(base, tokens)[position]
                flat[j] = orig - eps
                lo = lm.forward_logits(base, tokens)[position]
                flat[j] = orig
                jac[:, off + j] = (hi - lo) / (2 * eps)
            off += size
        return jac

    j_fd = fd_jacobian(dyn_store, chi.tokens(), pos)
    k_fd = j_fd @ j_fd.T
    k = dy.entk_block(dyn_store, chi, chi, pos, pos)
    denom = max(np.max(np.abs(k)), 1e-12)
    assert np.max(np.abs(k - k_fd)) / denom <= 1e-5


def test_entk_refuses_above_cap(dyn_store):
    chi = dy.Chi(prompt=[1], response=[2])
    with pytest.raises(CapabilityError):
        dy.entk_block(dyn_store, chi, chi, 0, 0, param_cap=10)


def test_akg_zero_loss_gives_zero_deltas(dyn_store):
    chi = dy.Chi(prompt=[1, 2, 3], response=[4, 5])

    def zero_loss(store, batch):
        lv = ob.loss_ga(store, batch)
        return ob.LossValue(ad.scale(lv.scalar, 0.0), lv.diagnostics,
                            lv.param_tensors)

    reports = dy.akg_check(dyn_store, chi, chi, zero_loss, eta=1e-3)
    for r in reports:
        assert np.max(np.abs(r.predicted_delta_logpi)) <= 1e-12
        assert np.max(np.abs(r.actual_delta_logpi)) <= 1e-12


def test_akg_error_halves_quadratically(dyn_store):
    chi = dy.Chi(prompt=[1, 2, 3, 4], response=[5, 6, 7])
    cfg = ob.LossConfig(kind="ga")
    e1 = max(r.first_order_error
             for r in dy.akg_check(dyn_store, chi, chi, cfg, 1e-3))
    e2 = max(r.first_order_error
             for r in dy.akg_check(dyn_store, chi, chi, cfg, 5e-4))
    assert e2 / e1 <= 0.5


def test_akg_ga_pushes_label_down(dyn_store):
    chi = dy.Chi(prompt=[1, 2, 3], response=[4, 5])
    reports = dy.akg_check(dyn_store, chi, chi, ob.LossConfig(kind="ga"),
                           eta=1e-3)
    for r, y in zip(reports, chi.response):
        assert r.predicted_delta_logpi[y] < 0


def test_akg_eta_scaling_slope(dyn_store):
    chi = dy.Chi(prompt=[1, 2, 3, 4], response=[5, 6, 7, 1])
    slope, _ = dy.eta_scaling_slope(dyn_store, chi, chi,
                                    ob.LossConfig(kind="ga"))
    assert slope >= 1.7


def test_akg_bst_reports_carry_residuals(dyn_store):
    chi = dy.Chi(prompt=[1, 2], response=[3, 4])
    cfg = ob.LossConfig(kind="bst", lambda_bst=0.2, k=5)
    reports = dy.akg_check(dyn_store, chi, chi, cfg, 1e-3,
                           include_kernel=True)
    lp = lm._log_softmax_np(lm.forward_logits(dyn_store, chi.tokens()))
    for r, pos, y in zip(reports, chi.scored_positions(), chi.response):
        pi = np.exp(lp[pos])
        bel = beliefs.topk_belief(pi, 5)
        want = dy.residual("bst", pi, y, bel, 0.2)
        assert np.max(np.abs(r.G - want)) <= 1e-10
        assert abs(r.G.sum()) <= 1e-10
        assert r.K_block is not None
        assert np.max(np.abs(r.A @ np.ones(len(pi)))) <= 1e-10


# Squeeze bands ---------------------------------------------------------------


def test_band_assignment_quantiles():
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    bands = dy._assign_bands(scores)
    assert bands == ["high", "mid", "mid", "low", "low"]


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
    traces, agg = dy.squeeze_trace([store, second], prompts, ("beam", 12),
                                   max_len=10, eos_id=vocab.eos,
                                   exclude_responses=refs)
    for t in traces:
        hi, mid, lo = t.per_epoch_mean_logprob[0]
        assert hi > mid > lo
        assert t.band_sizes["high"] >= 1
        assert set(t.band_of.values()) <= {"high", "mid", "low"}
        assert t.per_epoch_mean_logprob.shape == (2, 3)
    rows = dy.trace_rows(agg)
    assert len(rows) == 2 * 3
    assert rows[0][:2] == (0, "high")


def test_squeeze_trace_needs_five_candidates(mini_trained):
    corp, store = mini_trained
    with pytest.raises(DataError):
        dy.squeeze_trace([store], [("p0", [1, 2, 3])],
                         ("file", [[[4, 5], [6, 7]]]))
