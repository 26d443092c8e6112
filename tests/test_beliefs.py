import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, corpus as cp, lm, objectives as ob
from unlearnlab.errors import ConfigError


def test_topk_belief_renormalizes():
    b = beliefs.topk_belief(np.array([0.5, 0.3, 0.2]), 2)
    assert np.allclose(b, [0.625, 0.375, 0.0], atol=1e-15)
    assert list(beliefs.topk_support(np.array([0.5, 0.3, 0.2]), 2)) == [0, 1]
    assert abs(b.sum() - 1.0) < 1e-12


def test_topk_full_support_is_identity():
    p = np.array([0.1, 0.4, 0.2, 0.3])
    b = beliefs.topk_belief(p, 4)
    assert np.allclose(b, p, atol=1e-15)


def test_topk_one_is_argmax_onehot():
    b = beliefs.topk_belief(np.array([0.2, 0.5, 0.3]), 1)
    assert np.allclose(b, [0.0, 1.0, 0.0])


def test_topk_tie_breaks_to_lowest_id():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    assert list(beliefs.topk_support(p, 2)) == [0, 1]
    assert np.array_equal(beliefs.topk_belief(p, 2), [0.5, 0.5, 0.0, 0.0])


def test_topk_preserves_relative_order():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = rng.dirichlet(np.ones(9))
        k = int(rng.integers(1, 10))
        b = beliefs.topk_belief(p, k)
        kept = [(p[i], b[i]) for i in beliefs.topk_support(p, k)]
        order_in = np.argsort([-x for x, _ in kept])
        order_out = np.argsort([-x for _, x in kept])
        assert list(order_in) == list(order_out)


def _lexsort_topk(probs, k):
    """The full-sort reference: ids by descending probability, ties to the
    lowest id."""
    ids = np.broadcast_to(np.arange(probs.shape[-1]), probs.shape)
    return np.lexsort((ids, -probs), axis=-1)[..., :k]


@pytest.mark.parametrize("shape", [(6, 12), (2, 3, 12)])
def test_topk_support_equals_full_lexsort(shape):
    rng = np.random.default_rng(0)
    smooth = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    # quarters: ties at the k-th value and exact zeros in most rows
    coarse = rng.integers(0, 4, size=shape) / 4.0
    for probs in (smooth, coarse):
        for k in range(1, shape[-1] + 1):
            np.testing.assert_array_equal(beliefs.topk_support(probs, k),
                                          _lexsort_topk(probs, k))


def test_topk_k_validation():
    with pytest.raises(ConfigError):
        beliefs.topk_belief(np.ones(3) / 3, 0)
    with pytest.raises(ConfigError):
        beliefs.topk_belief(np.ones(3) / 3, 4)


def test_soft_target_endpoints_and_mix():
    b = beliefs.topk_belief(np.array([0.5, 0.3, 0.2]), 2)
    t0 = beliefs.soft_target(b, 0, 0.0)
    assert np.allclose(t0, [1.0, 0.0, 0.0], atol=1e-15)
    t1 = beliefs.soft_target(b, 0, 1.0)
    assert np.allclose(t1, b, atol=1e-15)
    t = beliefs.soft_target(b, 0, 0.2)
    assert np.allclose(t, [0.925, 0.075, 0.0], atol=1e-15)
    assert np.allclose(b, [0.625, 0.375, 0.0], atol=1e-15)  # not written


def test_soft_target_is_distribution_for_any_lambda():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        b = beliefs.topk_belief(p, int(rng.integers(1, 7)))
        t = beliefs.soft_target(b, int(rng.integers(6)), rng.uniform())
        assert abs(t.sum() - 1.0) < 1e-12
        assert np.all(t >= 0)


def test_soft_target_lambda_validation():
    b = beliefs.topk_belief(np.ones(3) / 3, 2)
    with pytest.raises(ConfigError):
        beliefs.soft_target(b, 0, 1.5)


def test_topk_belief_batched_equals_per_row_calls():
    rng = np.random.default_rng(2)
    # [B, R, V] rows: random ones, a zero-head uniform row, and rows with
    # tied blocks
    ties = np.zeros((2, 3, 6))
    ties[1, :, :4] = [[1.0, 2.0, 2.0, 1.0], [0.5, 0.5, 0.5, 0.5],
                      [3.0, 0.0, 3.0, 0.0]]
    for z in (rng.normal(size=(2, 3, 6)), ties):
        pi = ad.arrays.softmax(z)
        for tau in (1.0, 0.5):
            q = beliefs.topk_belief(pi, 3, tau)
            for idx in np.ndindex(2, 3):
                want = beliefs.topk_belief(pi[idx], 3, tau)
                assert np.array_equal(q[idx], want)


def test_no_gradient_through_q_in_full_loss(tiny_store):
    batch = [([1, 2, 3], [4, 5, 1])]
    tensors = lm.param_tensors(tiny_store)
    lv = ob.forget_loss(ob.LossConfig(kind="bst", lambda_bst=0.3, k=5),
                        tiny_store, batch, tensors=tensors)
    names = sorted(tensors)
    g = ad.grad(lv.scalar, [tensors[n] for n in names])
    # rebuild with the belief injected as a plain constant
    t2 = lm.param_tensors(tiny_store)
    seq_lp, lp_rows, lp_y, logits, mask = ob._seq_logprob_graph(
        tiny_store, batch, t2)
    q_const = ad.constant(beliefs.topk_belief(np.exp(lp_rows.value), 5))
    label = ad.sum_axis(ad.mul(lp_y, ad.constant(mask)), axis=1)
    belief_term = ad.sum_axis(ad.mul(ad.sum_axis(ad.mul(q_const, lp_rows),
                                                 axis=2),
                                     ad.constant(mask)), axis=1)
    scalar = ad.add(ad.scale(ad.mean_all(label), 0.7),
                    ad.scale(ad.mean_all(belief_term), 0.3))
    g2 = ad.grad(scalar, [t2[n] for n in names])
    for a, b in zip(g, g2):
        assert np.allclose(a, b, atol=1e-14)


def test_sample_augmentations_contract(mini_trained):
    corp, store = mini_trained
    vocab = corp.vocab
    rec = corp.records[0]
    prompt, _ = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
    a1, = beliefs.sample_augmentations(store, [prompt], n=3, tau=0.8,
                                       seed=7, max_len=10, eos_id=vocab.eos,
                                       counters=[0])
    assert len(a1) == 3
    a2, = beliefs.sample_augmentations(store, [prompt], n=3, tau=0.8,
                                       seed=7, max_len=10, eos_id=vocab.eos,
                                       counters=[0])
    assert a1 == a2
    a3, = beliefs.sample_augmentations(store, [prompt], n=3, tau=0.8,
                                       seed=7, max_len=10, eos_id=vocab.eos,
                                       counters=[1])
    assert a3 != a1
    with pytest.raises(ConfigError):
        beliefs.sample_augmentations(store, [prompt], n=0, tau=0.8, seed=7,
                                     max_len=10, eos_id=None, counters=[0])
    with pytest.raises(ConfigError):
        beliefs.sample_augmentations(store, [prompt], n=2, tau=0.0, seed=7,
                                     max_len=10, eos_id=None, counters=[0])


def test_augmentation_batch_equals_per_response_decodes(mini_trained):
    corp, store = mini_trained
    vocab = corp.vocab
    recs = corp.records[:6]
    prompts = [cp.qa_pair_tokens(vocab, r.question, r.answer)[0]
               for r in recs]
    sets = beliefs.sample_augmentations(
        store, prompts, n=4, tau=1.5, seed=3, max_len=8, eos_id=vocab.eos,
        counters=[9, 2, 2, 5, 0, 7])
    assert len(sets) == len(prompts)
    for s, prompt, c in zip(sets, prompts, [9, 2, 2, 5, 0, 7]):
        want = [lm.decode_batch(store, [prompt], 8, eos_id=vocab.eos,
                                seeds=[beliefs._mix(3, c, j)], tau=1.5)[0][0]
                for j in range(4)]
        assert s == want
        assert [s] == beliefs.sample_augmentations(
            store, [prompt], n=4, tau=1.5, seed=3, max_len=8,
            eos_id=vocab.eos, counters=[c])


def test_low_temperature_concentrates_on_likely_sequences(mini_trained):
    corp, store = mini_trained
    vocab = corp.vocab
    means = {}
    for tau in (0.5, 2.0):
        lps = []
        for i, rec in enumerate(corp.records[:50]):
            prompt, _ = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
            aug, = beliefs.sample_augmentations(
                store, [prompt], n=2, tau=tau, seed=40 + i, max_len=10,
                eos_id=vocab.eos, counters=[0])
            lps.extend(lm.token_logprobs(store, prompt, r).sum()
                       for r in aug)
        means[tau] = np.mean(lps)
    assert means[0.5] >= means[2.0]


def test_belief_smoothing_temperature_flattens():
    p = np.array([0.7, 0.2, 0.06, 0.04])
    sharp = beliefs.topk_belief(p, 3, smoothing_tau=1.0)
    smooth = beliefs.topk_belief(p, 3, smoothing_tau=3.0)
    def entropy(q):
        nz = q[q > 0]
        return float(-(nz * np.log(nz)).sum())
    assert entropy(smooth) > entropy(sharp)
    assert abs(smooth.sum() - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        beliefs.topk_belief(p, 2, smoothing_tau=0.0)


def test_augmented_responses_terminate(mini_trained):
    corp, store = mini_trained
    vocab = corp.vocab
    rec = corp.records[3]
    prompt, _ = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
    aug, = beliefs.sample_augmentations(store, [prompt], n=4, tau=1.5,
                                        seed=3, max_len=7, eos_id=vocab.eos,
                                        counters=[0])
    for r in aug:
        assert r[-1] == vocab.eos or len(r) == 7
