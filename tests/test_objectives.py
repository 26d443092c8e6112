from types import SimpleNamespace

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, lm, runner
from unlearnlab import objectives as ob
from unlearnlab.errors import ConfigError, DataError


@pytest.fixture()
def batch():
    return [([1, 2, 3], [4, 5, 1]), ([2, 7], [9, 1]), ([3, 4, 6], [5, 8, 2, 1])]


@pytest.fixture()
def retain_batch():
    return [([3, 4], [5, 1]), ([6, 1], [2, 3, 1])]


def grad_vs_fd(lv, tensors, names, n_components=6, seed=0):
    """Max relative error between reverse-mode and central differences on a
    random subset of parameter components."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    gs = dict(zip(sorted(tensors),
                  ad.grad(lv.scalar, [tensors[n] for n in sorted(tensors)])))
    for name in names:
        leafn = tensors[name]
        flat = leafn.value.reshape(-1)
        picks = rng.choice(flat.size, size=min(n_components, flat.size),
                           replace=False)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + 1e-5
            hi = float(ad.evaluate(lv.scalar))
            flat[j] = orig - 1e-5
            lo = float(ad.evaluate(lv.scalar))
            flat[j] = orig
            fd = (hi - lo) / 2e-5
            g = gs[name].reshape(-1)[j]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-6))
    ad.evaluate(lv.scalar)
    return worst


def test_ga_equals_mean_sequence_logprob(tiny_store, batch):
    lv = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, batch)
    manual = np.mean([lm.token_logprobs(tiny_store, p, r).sum()
                      for p, r in batch])
    assert abs(lv.value - manual) < 1e-12


def test_ga_uniform_single_token():
    arch = lm.ArchConfig(vocab_size=4, context_len=8, d_model=4,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    lv = ob.forget_loss(ob.LossConfig(kind="ga"), store, [([1], [2])])
    assert abs(lv.value - np.log(0.25)) < 1e-12
    assert abs(lv.value + 1.3863) < 1e-4


def test_ga_empty_batch_is_data_error(tiny_store):
    with pytest.raises(DataError):
        ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, [])


def test_graddiff_zero_lambda_equals_ga(tiny_store, batch, retain_batch):
    ga = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, batch)
    gd = ob.step_loss(ob.LossConfig(kind="graddiff", lambda_retain=0.0),
                      tiny_store, batch, retain_batch)
    assert abs(gd.value - ga.value) <= 1e-12


def test_graddiff_retain_term_nonnegative(tiny_store, batch, retain_batch):
    gd = ob.step_loss(ob.LossConfig(kind="graddiff", lambda_retain=2.0),
                      tiny_store, batch, retain_batch)
    assert gd.diagnostics["retain_term"] >= 0.0
    combo = (gd.diagnostics["forget_term"] + gd.diagnostics["retain_term"]
             + gd.diagnostics["aug_term"])
    assert abs(gd.value - combo) < 1e-10


def test_graddiff_negative_lambda_rejected(tiny_store, batch, retain_batch):
    with pytest.raises(ConfigError):
        ob.step_loss(ob.LossConfig(kind="graddiff", lambda_retain=-0.1),
                     tiny_store, batch, retain_batch)


def test_npo_at_reference_is_softplus_constant(tiny_store, batch):
    for beta in (0.05, 0.1, 0.5, 1.0):
        lv = ob.forget_loss(ob.LossConfig(kind="npo", beta=beta), tiny_store,
                            batch, tiny_store.snapshot())
        assert abs(lv.value - (2.0 / beta) * np.log(2.0)) <= 1e-9


def test_npo_increases_with_model_likelihood(tiny_store):
    batch = [([1, 2, 3], [4, 5, 1])]
    ref = tiny_store.snapshot()
    # one small ascent step on the sequence log-likelihood
    lv = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, batch)
    names = sorted(lv.param_tensors)
    gs = ad.grad(lv.scalar, [lv.param_tensors[n] for n in names])
    boosted = tiny_store.snapshot()
    for n, g in zip(names, gs):
        boosted.entries[n] += 0.05 * g
    lp0 = lm.token_logprobs(tiny_store, *batch[0]).sum()
    lp1 = lm.token_logprobs(boosted, *batch[0]).sum()
    assert lp1 > lp0
    npo = ob.LossConfig(kind="npo", beta=0.1)
    base = ob.forget_loss(npo, tiny_store, batch, ref).value
    up = ob.forget_loss(npo, boosted, batch, ref).value
    assert up > base


def test_npo_beta_validation(tiny_store, batch):
    with pytest.raises(ConfigError):
        ob.forget_loss(ob.LossConfig(kind="npo", beta=0.0), tiny_store,
                       batch, tiny_store.snapshot())


def test_wga_zero_alpha_equals_ga(tiny_store, batch):
    ga = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, batch)
    wga = ob.forget_loss(ob.LossConfig(kind="wga", alpha=0.0), tiny_store,
                         batch)
    assert abs(wga.value - ga.value) <= 1e-12


def test_wga_uniform_single_token_value():
    arch = lm.ArchConfig(vocab_size=4, context_len=8, d_model=4,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)  # pi(y) = 0.25 everywhere
    lv = ob.forget_loss(ob.LossConfig(kind="wga", alpha=1.0), store,
                        [([1], [2])])
    assert abs(lv.value - 0.25 * np.log(0.25)) < 1e-12
    assert abs(lv.value + 0.3466) < 1e-4


def test_wga_alpha_validation(tiny_store, batch):
    with pytest.raises(ConfigError):
        ob.forget_loss(ob.LossConfig(kind="wga", alpha=-1.0), tiny_store,
                       batch)


def test_bst_zero_lambda_equals_ga(tiny_store, batch):
    ga = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, batch)
    bst = ob.forget_loss(ob.LossConfig(kind="bst", lambda_bst=0.0, k=5),
                         tiny_store, batch)
    assert abs(bst.value - ga.value) <= 1e-12


def test_bst_matches_numpy_oracle(tiny_store, batch):
    """Independent recomputation: per position, t = lam*q + (1-lam)*e_y and
    the contribution is <t, log pi>."""
    lam, k = 0.3, 5
    lv = ob.forget_loss(ob.LossConfig(kind="bst", lambda_bst=lam, k=k),
                        tiny_store, batch)
    per_seq = []
    for prompt, resp in batch:
        logits = lm.batch_logits(tiny_store, [list(prompt) + list(resp)])[0]
        lp = ad.arrays.log_softmax(logits)
        total = 0.0
        for i, y in enumerate(resp):
            row = lp[len(prompt) - 1 + i]
            pi = np.exp(row)
            t = beliefs.soft_target(beliefs.topk_belief(pi, k), y, lam)
            total += float(t @ row)
        per_seq.append(total)
    assert abs(lv.value - np.mean(per_seq)) < 1e-10


def test_bst_soft_target_arithmetic_example():
    pi = np.array([0.5, 0.3, 0.2])
    t = beliefs.soft_target(beliefs.topk_belief(pi, 2), 0, 0.2)
    val = float(t @ np.log(pi))
    assert abs(val - (0.925 * np.log(0.5) + 0.075 * np.log(0.3))) < 1e-12
    assert abs(val + 0.7315) < 1e-4


def test_bst_logit_gradient_is_target_minus_pi():
    rng = np.random.default_rng(4)
    z = ad.leaf(rng.normal(size=(1, 1, 7)))
    lp = ad.log_softmax(z)
    pi = np.exp(lp.value)
    lam, k, y = 0.4, 3, 2
    q = ad.constant(beliefs.topk_belief(pi, k))
    label = ad.element(lp, (0, 0, y))
    belief_term = ad.sum_axis(ad.mul(q, lp), axis=2)
    root = ad.add(ad.scale(label, 1.0 - lam), ad.scale(belief_term, lam))
    g = ad.grad(root, [z])[0][0, 0]
    t = beliefs.soft_target(beliefs.topk_belief(pi[0, 0], k), y, lam)
    assert np.max(np.abs(g - (t - pi[0, 0]))) <= 1e-10


def test_bss_endpoints_and_mix(tiny_store, batch):
    augs = [[[5, 1], [6, 2, 1]] for _ in batch]
    def bss(lam):
        return ob.forget_loss(ob.LossConfig(kind="bss", base_loss="ga",
                                            lambda_bss=lam),
                              tiny_store, batch, augmented=augs)
    ga = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, batch)
    b0 = bss(0.0)
    assert abs(b0.value - ga.value) <= 1e-12
    aug_pairs = [(p, list(r)) for (p, _), a in zip(batch, augs) for r in a]
    ga_aug = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, aug_pairs)
    b1 = bss(1.0)
    assert abs(b1.value - ga_aug.value) <= 1e-12
    b = bss(0.4)
    assert abs(b.value - (0.6 * ga.value + 0.4 * ga_aug.value)) < 1e-10
    assert abs(b.diagnostics["forget_term"] - 0.6 * ga.value) < 1e-10
    assert abs(b.diagnostics["aug_term"] - 0.4 * ga_aug.value) < 1e-10


def test_bss_misaligned_augmentation_is_data_error(tiny_store, batch):
    augs = [[[5, 1]]]
    with pytest.raises(DataError, match="one list of sampled responses"):
        ob.forget_loss(ob.LossConfig(kind="bss", base_loss="ga",
                                     lambda_bss=0.5),
                       tiny_store, batch, augmented=augs)


def test_bss_npo_base_requires_reference(tiny_store, batch):
    augs = [[[5, 1]] for _ in batch]
    with pytest.raises(ConfigError):
        ob.forget_loss(ob.LossConfig(kind="bss", base_loss="npo",
                                     lambda_bss=0.5),
                       tiny_store, batch, augmented=augs)


def test_retain_is_negated_ga_and_nonnegative(tiny_store, retain_batch):
    ga = ob.forget_loss(ob.LossConfig(kind="ga"), tiny_store, retain_batch)
    ret = ob.loss_retain(tiny_store, retain_batch)
    assert abs(ret.value + ga.value) <= 1e-12
    assert ret.value >= 0.0


def test_all_losses_match_finite_differences(tiny_store, batch, retain_batch):
    """Every kind in the loss table, through `step_loss`, plus the retain
    NLL on its own."""
    ref = tiny_store.snapshot()
    for k in ref.entries:
        ref.entries[k] = ref.entries[k] + 0.01
    augs = [[[5, 1], [6, 2, 1]] for _ in batch]
    names = ["tok_emb", "layers.0.attn.wq", "layers.0.mlp.w1", "head"]
    for kind in ob.LOSS_KINDS + ("retain",):
        tensors = lm.param_tensors(tiny_store)
        if kind == "retain":
            lv = ob.loss_retain(tiny_store, retain_batch, tensors)
        else:
            cfg = ob.LossConfig(
                kind=kind, lambda_retain=1.5 if kind == "graddiff" else 0.0,
                beta=0.1, alpha=1.0, lambda_bst=0.3, k=5, lambda_bss=0.4,
                base_loss="bst")
            lv = ob.step_loss(cfg, tiny_store, batch, retain_batch, ref,
                              augs, tensors)
        worst = grad_vs_fd(lv, tensors, names)
        assert worst <= 1e-4, f"{kind}: rel err {worst}"


def test_step_loss_calls_the_builder_module_attribute(tiny_store, batch,
                                                      monkeypatch):
    """The table looks each builder up at call time, so a wrapper set on
    the module attribute is the one `step_loss` runs, also as bss's base."""
    calls = []
    real = ob.loss_bst

    def spy(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(ob, "loss_bst", spy)
    augs = [[[5, 1]] for _ in batch]
    ob.step_loss(ob.LossConfig(kind="bst", k=5), tiny_store, batch)
    ob.step_loss(ob.LossConfig(kind="bss", base_loss="bst", k=5), tiny_store,
                 batch, augmented=augs)
    assert calls == [len(batch), len(batch), len(batch)]


def test_bss_without_augmentations_is_data_error(tiny_store, batch):
    with pytest.raises(DataError, match="one list of sampled responses"):
        ob.forget_loss(ob.LossConfig(kind="bss", base_loss="ga"), tiny_store,
                       batch)
    augs = [[[5, 1]] for _ in batch]
    augs[1] = []
    with pytest.raises(DataError, match="no sampled responses"):
        ob.forget_loss(ob.LossConfig(kind="bss", base_loss="ga"), tiny_store,
                       batch, augmented=augs)


def test_loss_config_validation():
    ob.LossConfig(kind="bst")
    for bad in [dict(kind="rmu"), dict(beta=0.0), dict(alpha=-1.0),
                dict(lambda_bst=1.2), dict(k=0), dict(lambda_bss=-0.1),
                dict(n_aug=0), dict(tau=0.0), dict(base_loss="graddiff"),
                dict(lambda_retain=-1.0)]:
        with pytest.raises(ConfigError):
            ob.LossConfig(**bad)


# The answer-rows graph against the full-sequence graph ----------------------


def _batched_matmul(a, b, bias=None):
    """`ad.matmul` with numpy's batched product for every operand shape:
    one product per leading index, and the weight gradient summed over
    them; a bias is a separate `add` node."""
    if bias is not None:
        return ad.add(_batched_matmul(a, b), bias)

    def fwd(x, y):
        return x @ y

    def bwd(node, g):
        x, y = node.inputs[0].value, node.inputs[1].value
        ga = gb = None
        if node.inputs[0].needs_grad:
            ga = ad._unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape)
        if node.inputs[1].needs_grad:
            gb = ad._unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape)
        return ga, gb

    return ad._node("matmul", (a, b), fwd, bwd)


def _full_sequence_graph(store, pairs, tensors):
    """The sequence log-likelihood graph with the head and the log-softmax
    over all T positions, gathered to the response rows afterwards, and
    batched weight products: the reference the answer-rows path is checked
    against."""
    tokens, tgt_pos, tgt_ids, mask = ob._pad_batch(pairs)
    ops = SimpleNamespace(**vars(ad))
    ops.matmul = _batched_matmul
    logits = lm._logits(ops, tensors, store.arch, tokens)
    lp_rows = ad.gather_positions(ad.log_softmax(logits), tgt_pos)
    lp_y = ad.take_last(lp_rows, tgt_ids)
    seq_lp = ad.sum_axis(ad.mul(lp_y, ad.constant(mask)), axis=1)
    return seq_lp, lp_rows, lp_y, logits, mask


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / denom


def _desk_batch(seed, n, vocab):
    rng = np.random.default_rng(seed)
    return [(rng.integers(1, vocab, rng.integers(6, 12)).tolist(),
             rng.integers(1, vocab, rng.integers(1, 5)).tolist())
            for _ in range(n)]


@pytest.fixture()
def desk_store():
    store = lm.init_model(runner.desk_arch(), 5)
    rng = np.random.default_rng(5)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.05, store.entries[k].shape)
    return store


@pytest.mark.parametrize("kind", ["retain", "bst", "bss"])
def test_answer_rows_gradients_match_the_full_sequence_graph(
        desk_store, kind, monkeypatch):
    """Desk arch: the loss value and every parameter gradient agree with
    the full-sequence graph to 1e-12 relative; the one-GEMM weight
    gradients sum B*T rows in another order, so bits may differ."""
    vocab = desk_store.arch.vocab_size
    forget, retain = _desk_batch(1, 16, vocab), _desk_batch(2, 16, vocab)
    augs = [[r for _, r in _desk_batch(3 + i, 2, vocab)]
            for i in range(len(forget))]
    names = sorted(desk_store.entries)

    def run():
        tensors = lm.param_tensors(desk_store)
        if kind == "retain":
            lv = ob.loss_retain(desk_store, retain, tensors)
        else:
            cfg = ob.LossConfig(kind=kind, base_loss="bst", lambda_bst=0.3,
                                k=10, lambda_bss=0.4, lambda_retain=0.5)
            lv = ob.step_loss(cfg, desk_store, forget, retain, None, augs,
                              tensors)
        return lv.value, ad.grad(lv.scalar, [tensors[n] for n in names])

    value, grads = run()
    monkeypatch.setattr(ob, "_seq_logprob_graph", _full_sequence_graph)
    want_value, want_grads = run()
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    for name, g, want in zip(names, grads, want_grads):
        assert rel_err(g, want) <= 1e-12, f"{name}: {rel_err(g, want)}"


def test_no_node_holds_full_sequence_logits(desk_store):
    """The head and the log-softmax run on the R answer rows only: no node
    of the retain graph, or of a bst step with a retain term, holds a
    [..., T, V] value."""
    vocab = desk_store.arch.vocab_size
    forget = [([1, 2, 3, 4, 5, 6, 7, 8], [9, 10]),
              ([3, 4, 5, 6, 7, 8, 9, 10], [11, 12])]
    retain = [([2, 3, 4, 5, 6, 7, 8, 9], [5]),
              ([6, 1, 2, 3, 4, 5, 6, 7], [2, 3])]
    t = 10
    for lv in (ob.loss_retain(desk_store, retain),
               ob.step_loss(ob.LossConfig(kind="bst", k=10,
                                          lambda_retain=1.0),
                            desk_store, forget, retain)):
        shapes = [n.value.shape for n in ad._topo_order(lv.scalar)]
        assert (2, 2, vocab) in shapes
        assert not [s for s in shapes if s[-2:] == (t, vocab)]


def test_last_block_runs_at_the_scored_rows_only(desk_store):
    """The last block's query product, attention, output projection and
    MLP, and the final norm, hold the R = 2 scored rows, not T = 10: in the
    retain graph and in a bst step with a retain term. The first block's
    attention stays [B, H, T, T]."""
    forget = [([1, 2, 3, 4, 5, 6, 7, 8], [9, 10]),
              ([3, 4, 5, 6, 7, 8, 9, 10], [11, 12])]
    retain = [([2, 3, 4, 5, 6, 7, 8, 9], [5]),
              ([6, 1, 2, 3, 4, 5, 6, 7], [2, 3])]
    b, h, t, r = 2, desk_store.arch.n_heads, 10, 2
    for lv in (ob.loss_retain(desk_store, retain),
               ob.step_loss(ob.LossConfig(kind="bst", k=10,
                                          lambda_retain=1.0),
                            desk_store, forget, retain)):
        nodes = ad._topo_order(lv.scalar)
        tensors = lv.param_tensors
        last = {id(tensors[f"layers.1.{w}"])
                for w in ("attn.wq", "attn.wo", "mlp.w1", "mlp.w2")}
        products = [n for n in nodes if n.op == "matmul"
                    and any(id(i) in last for i in n.inputs)]
        assert products and {n.shape[:2] for n in products} == {(b, r)}
        attention = [n.shape for n in nodes if n.op == "softmax"]
        assert sorted(set(attention)) == [(b, h, r, t), (b, h, t, t)]
        for op in ("gelu", "layer_norm"):
            shapes = {n.shape for n in nodes if n.op == op}
            # ln1, ln2 and gelu of block 0 hold T rows; block 1's ln2 and
            # gelu and the final norm hold R rows
            assert {s[1] for s in shapes} == {t, r}, (op, shapes)

