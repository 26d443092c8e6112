import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, lm
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
    lv = ob.loss_ga(tiny_store, batch)
    manual = np.mean([lm.sequence_logprob(tiny_store, p, r)
                      for p, r in batch])
    assert abs(lv.value - manual) < 1e-12


def test_ga_uniform_single_token():
    arch = lm.ArchConfig(vocab_size=4, context_len=8, d_model=4,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    lv = ob.loss_ga(store, [([1], [2])])
    assert abs(lv.value - np.log(0.25)) < 1e-12
    assert abs(lv.value + 1.3863) < 1e-4


def test_ga_empty_batch_is_data_error(tiny_store):
    with pytest.raises(DataError):
        ob.loss_ga(tiny_store, [])


def test_graddiff_zero_lambda_equals_ga(tiny_store, batch, retain_batch):
    ga = ob.loss_ga(tiny_store, batch)
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
        lv = ob.loss_npo(tiny_store, tiny_store.snapshot(), batch, beta)
        assert abs(lv.value - (2.0 / beta) * np.log(2.0)) <= 1e-9


def test_npo_increases_with_model_likelihood(tiny_store):
    batch = [([1, 2, 3], [4, 5, 1])]
    ref = tiny_store.snapshot()
    # one small ascent step on the sequence log-likelihood
    lv = ob.loss_ga(tiny_store, batch)
    names = sorted(lv.param_tensors)
    gs = ad.grad(lv.scalar, [lv.param_tensors[n] for n in names])
    boosted = tiny_store.snapshot()
    for n, g in zip(names, gs):
        boosted.entries[n] += 0.05 * g
    lp0 = lm.sequence_logprob(tiny_store, *batch[0])
    lp1 = lm.sequence_logprob(boosted, *batch[0])
    assert lp1 > lp0
    base = ob.loss_npo(tiny_store, ref, batch, 0.1).value
    up = ob.loss_npo(boosted, ref, batch, 0.1).value
    assert up > base


def test_npo_beta_validation(tiny_store, batch):
    with pytest.raises(ConfigError):
        ob.loss_npo(tiny_store, tiny_store.snapshot(), batch, 0.0)


def test_wga_zero_alpha_equals_ga(tiny_store, batch):
    ga = ob.loss_ga(tiny_store, batch)
    wga = ob.loss_wga(tiny_store, batch, 0.0)
    assert abs(wga.value - ga.value) <= 1e-12


def test_wga_uniform_single_token_value():
    arch = lm.ArchConfig(vocab_size=4, context_len=8, d_model=4,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)  # pi(y) = 0.25 everywhere
    lv = ob.loss_wga(store, [([1], [2])], alpha=1.0)
    assert abs(lv.value - 0.25 * np.log(0.25)) < 1e-12
    assert abs(lv.value + 0.3466) < 1e-4


def test_wga_alpha_validation(tiny_store, batch):
    with pytest.raises(ConfigError):
        ob.loss_wga(tiny_store, batch, -1.0)


def test_bst_zero_lambda_equals_ga(tiny_store, batch):
    ga = ob.loss_ga(tiny_store, batch)
    bst = ob.loss_bst(tiny_store, batch, 0.0, k=5)
    assert abs(bst.value - ga.value) <= 1e-12


def test_bst_matches_numpy_oracle(tiny_store, batch):
    """Independent recomputation: per position, t = lam*q + (1-lam)*e_y and
    the contribution is <t, log pi>."""
    lam, k = 0.3, 5
    lv = ob.loss_bst(tiny_store, batch, lam, k)
    per_seq = []
    for prompt, resp in batch:
        logits = lm.forward_logits(tiny_store, list(prompt) + list(resp))
        lp = lm._log_softmax_np(logits)
        total = 0.0
        for i, y in enumerate(resp):
            row = lp[len(prompt) - 1 + i]
            pi = np.exp(row)
            t = beliefs.soft_target(beliefs.topk_belief(pi, k), y, lam).probs
            total += float(t @ row)
        per_seq.append(total)
    assert abs(lv.value - np.mean(per_seq)) < 1e-10


def test_bst_soft_target_arithmetic_example():
    pi = np.array([0.5, 0.3, 0.2])
    t = beliefs.soft_target(beliefs.topk_belief(pi, 2), 0, 0.2).probs
    val = float(t @ np.log(pi))
    assert abs(val - (0.925 * np.log(0.5) + 0.075 * np.log(0.3))) < 1e-12
    assert abs(val + 0.7315) < 1e-4


def test_bst_logit_gradient_is_target_minus_pi():
    rng = np.random.default_rng(4)
    z = ad.leaf(rng.normal(size=(1, 1, 7)))
    lp = ad.log_softmax(z)
    pi = ad.exp(lp)
    lam, k, y = 0.4, 3, 2
    q = beliefs.belief_node(pi, k)
    label = ad.element(lp, (0, 0, y))
    belief_term = ad.sum_all(ad.mul(q, lp))
    root = ad.add(ad.scale(label, 1.0 - lam), ad.scale(belief_term, lam))
    g = ad.grad(root, [z])[0][0, 0]
    t = beliefs.soft_target(
        beliefs.topk_belief(pi.value[0, 0], k), y, lam).probs
    assert np.max(np.abs(g - (t - pi.value[0, 0]))) <= 1e-10


def test_bss_endpoints_and_mix(tiny_store, batch):
    augs = [beliefs.AugmentedSet(prompt_id=f"p{i}",
                                 responses=[[5, 1], [6, 2, 1]],
                                 tau=1.0, seed=0)
            for i in range(len(batch))]
    base = ob.LossConfig(kind="bss", base_loss="ga")
    ga = ob.loss_ga(tiny_store, batch)
    b0 = ob.loss_bss(tiny_store, batch, augs, 0.0, base)
    assert abs(b0.value - ga.value) <= 1e-12
    aug_pairs = [(p, list(r)) for (p, _), a in zip(batch, augs)
                 for r in a.responses]
    ga_aug = ob.loss_ga(tiny_store, aug_pairs)
    b1 = ob.loss_bss(tiny_store, batch, augs, 1.0, base)
    assert abs(b1.value - ga_aug.value) <= 1e-12
    b = ob.loss_bss(tiny_store, batch, augs, 0.4, base)
    assert abs(b.value - (0.6 * ga.value + 0.4 * ga_aug.value)) < 1e-10
    assert abs(b.diagnostics["forget_term"] - 0.6 * ga.value) < 1e-10
    assert abs(b.diagnostics["aug_term"] - 0.4 * ga_aug.value) < 1e-10


def test_bss_misaligned_augmentation_is_data_error(tiny_store, batch):
    augs = [beliefs.AugmentedSet(prompt_id="p", responses=[[5, 1]],
                                 tau=1.0, seed=0)]
    with pytest.raises(DataError):
        ob.loss_bss(tiny_store, batch, augs, 0.5,
                    ob.LossConfig(kind="bss", base_loss="ga"))


def test_bss_npo_base_requires_reference(tiny_store, batch):
    augs = [beliefs.AugmentedSet(prompt_id=f"p{i}", responses=[[5, 1]],
                                 tau=1.0, seed=0) for i in range(len(batch))]
    with pytest.raises(ConfigError):
        ob.loss_bss(tiny_store, batch, augs, 0.5,
                    ob.LossConfig(kind="bss", base_loss="npo"))


def test_retain_is_negated_ga_and_nonnegative(tiny_store, retain_batch):
    ga = ob.loss_ga(tiny_store, retain_batch)
    ret = ob.loss_retain(tiny_store, retain_batch)
    assert abs(ret.value + ga.value) <= 1e-12
    assert ret.value >= 0.0


def test_all_losses_match_finite_differences(tiny_store, batch, retain_batch):
    ref = tiny_store.snapshot()
    for k in ref.entries:
        ref.entries[k] = ref.entries[k] + 0.01
    augs = [beliefs.AugmentedSet(prompt_id=f"p{i}",
                                 responses=[[5, 1], [6, 2, 1]],
                                 tau=1.0, seed=0)
            for i in range(len(batch))]
    cases = {
        "ga": lambda t: ob.loss_ga(tiny_store, batch, tensors=t),
        "graddiff": lambda t: ob.step_loss(
            ob.LossConfig(kind="graddiff", lambda_retain=1.5), tiny_store,
            batch, retain_batch, tensors=t),
        "npo": lambda t: ob.loss_npo(tiny_store, ref, batch, 0.1, tensors=t),
        "wga": lambda t: ob.loss_wga(tiny_store, batch, 1.0, tensors=t),
        "bst": lambda t: ob.loss_bst(tiny_store, batch, 0.3, 5, tensors=t),
        "bss": lambda t: ob.loss_bss(tiny_store, batch, augs, 0.4,
                                     ob.LossConfig(kind="bss",
                                                   base_loss="bst"),
                                     tensors=t),
        "retain": lambda t: ob.loss_retain(tiny_store, retain_batch,
                                           tensors=t),
    }
    names = ["tok_emb", "layers.0.attn.wq", "layers.0.mlp.w1", "head"]
    for kind, make in cases.items():
        tensors = lm.param_tensors(tiny_store)
        lv = make(tensors)
        worst = grad_vs_fd(lv, tensors, names)
        assert worst <= 1e-4, f"{kind}: rel err {worst}"


def test_loss_config_validation():
    ob.LossConfig(kind="bst").validate()
    for bad in [dict(kind="rmu"), dict(beta=0.0), dict(alpha=-1.0),
                dict(lambda_bst=1.2), dict(k=0), dict(lambda_bss=-0.1),
                dict(n_aug=0), dict(tau=0.0), dict(base_loss="graddiff"),
                dict(lambda_retain=-1.0)]:
        with pytest.raises(ConfigError):
            ob.LossConfig(**bad).validate()
