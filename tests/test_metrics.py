from functools import lru_cache

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import corpus as cp
from unlearnlab import lm
from unlearnlab import metrics as mt
from unlearnlab.errors import ContractError, DataError, LengthError


def brute_lcs(a, b):
    """Independent oracle: top-down memoized recursion."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def brute_f1(ref, hyp):
    if not hyp:
        return 0.0
    l = brute_lcs(ref, hyp)
    if l == 0:
        return 0.0
    p, r = l / len(hyp), l / len(ref)
    return 2 * p * r / (p + r)


def test_rouge_examples():
    assert mt.rouge_l_f1([1, 2, 3], [1, 2, 3]) == 1.0
    assert mt.rouge_l_f1([1, 2, 3], [4, 5, 6]) == 0.0
    got = mt.rouge_l_f1("the cat sat".split(), "the cat ran".split())
    assert abs(got - 2 / 3) < 1e-12
    assert mt.rouge_l_f1([1, 2], []) == 0.0
    with pytest.raises(DataError):
        mt.rouge_l_f1([], [1])


def test_rouge_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        ref = list(rng.integers(0, 6, rng.integers(1, 21)))
        hyp = list(rng.integers(0, 6, rng.integers(0, 21)))
        assert mt.rouge_l_f1(ref, hyp) == brute_f1(ref, hyp)


def test_rouge_symmetric_under_swap():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = list(rng.integers(0, 5, rng.integers(1, 12)))
        b = list(rng.integers(0, 5, rng.integers(1, 12)))
        assert abs(mt.rouge_l_f1(a, b) - mt.rouge_l_f1(b, a)) < 1e-15


def test_normalized_probability_uniform():
    arch = lm.ArchConfig(vocab_size=64, context_len=16, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    [got] = mt.teacher_forced_scores(store, [([1, 2], [3, 4, 5])])
    got = got.norm_prob
    assert abs(got - 1 / 64) < 1e-12


def test_normalized_probability_single_token(tiny_store):
    p = ad.arrays.softmax(lm.batch_logits(tiny_store, [[1, 2]])[0][-1])
    got = mt.teacher_forced_scores(tiny_store, [([1, 2], [7])])[0].norm_prob
    assert abs(got - p[7]) < 1e-12


def test_normalized_probability_recompute(tiny_store):
    prompt, ans = [1, 2, 3], [4, 5, 6]
    toks = lm.token_logprobs(tiny_store, prompt, ans)
    [got] = mt.teacher_forced_scores(tiny_store, [(prompt, ans)])
    assert abs(got.norm_prob - np.exp(toks.mean())) < 1e-12
    with pytest.raises(DataError):
        mt.teacher_forced_scores(tiny_store, [(prompt, [])])


def test_exact_memorization_tie_break_zero_head():
    arch = lm.ArchConfig(vocab_size=8, context_len=12, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)  # all logits zero: argmax -> id 0
    hit, miss = mt.teacher_forced_scores(store, [([1, 2], [0, 0, 0]),
                                                 ([1, 2], [1, 1])])
    assert hit.exact_mem == 1.0
    assert miss.exact_mem == 0.0


def test_exact_memorization_half_constructed(tiny_store):
    prompt = [1, 2]
    ans = []
    for i in range(6):
        logits = lm.batch_logits(tiny_store, [prompt + ans])[0]
        top = int(np.argmax(ad.arrays.softmax(logits[-1])))
        ans.append(top if i % 2 == 0 else (top + 1) % 12)
    [got] = mt.teacher_forced_scores(tiny_store, [(prompt, ans)])
    assert got.exact_mem == 0.5


def test_extraction_strength_poles():
    arch = lm.ArchConfig(vocab_size=8, context_len=12, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)  # greedy always emits id 0
    hit, miss = mt.teacher_forced_scores(store, [([1, 2], [0, 0, 0]),
                                                 ([1, 2], [1, 2, 3])])
    assert hit.extraction_strength == 1.0
    assert miss.extraction_strength == 0.0


def test_extraction_strength_prefix_constructed(tiny_store):
    prompt = [1, 2, 3]
    n = 8
    # first two tokens deliberately non-greedy, rest greedy-chained
    ans = []
    for i in range(2):
        logits = lm.batch_logits(tiny_store, [prompt + ans])[0]
        ans.append((int(np.argmax(ad.arrays.softmax(logits[-1]))) + 1) % 12)
    while len(ans) < n:
        logits = lm.batch_logits(tiny_store, [prompt + ans])[0]
        ans.append(int(np.argmax(ad.arrays.softmax(logits[-1]))))
    [got] = mt.teacher_forced_scores(tiny_store, [(prompt, ans)])
    assert got.extraction_strength == 1.0 - 2 / n


def test_truth_ratio_uniform_and_equal():
    arch = lm.ArchConfig(vocab_size=16, context_len=16, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    scores = mt.teacher_forced_scores(
        store, [([1, 2], a) for a in [[3, 4], [5, 6], [7, 8], [9, 10]]])
    r, inv = mt.truth_ratio(scores[0].norm_prob,
                            [s.norm_prob for s in scores[1:]])
    assert r == 1.0 and inv == 0.0


def test_truth_ratio_correct_dominates():
    arch = lm.ArchConfig(vocab_size=16, context_len=16, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    # constant hidden into the head: all mass goes to token 3 at every step
    store.entries["ln_f.g"][:] = 0.0
    store.entries["ln_f.b"][:] = 0.0
    store.entries["ln_f.b"][0] = 1.0
    store.entries["head"][0, :] = -30.0
    store.entries["head"][0, 3] = 30.0
    scores = mt.teacher_forced_scores(
        store, [([1, 2], a) for a in [[3, 3], [5, 6], [7, 8]]])
    correct = scores[0].norm_prob
    r, inv = mt.truth_ratio(correct, [s.norm_prob for s in scores[1:]])
    assert r < 1e-6
    assert inv > 1.0 - 1e-6
    with pytest.raises(DataError):
        mt.truth_ratio(correct, [])


def test_degeneracy_examples():
    assert mt.degeneracy_score([7] * 10 ) == 1.0
    assert mt.degeneracy_score([1, 2, 3, 4, 5]) == 0.0
    got = mt.degeneracy_score([0, 0, 0, 1, 2, 3, 4, 5, 6, 0])
    assert abs(got - 2 / 9) < 1e-15
    assert mt.degeneracy_score([4]) == 0.0
    with pytest.raises(DataError):
        mt.degeneracy_score([])


def test_harmonic_mean_examples():
    got = mt.harmonic_mean([0.58, 0.71])
    assert round(got, 2) == 0.64
    assert mt.harmonic_mean([0.3, 0.3]) == pytest.approx(0.3, abs=1e-15)
    assert mt.harmonic_mean([0.0, 0.9]) == 0.0
    with pytest.raises(ContractError):
        mt.harmonic_mean([-0.1, 0.5])
    with pytest.raises(DataError):
        mt.harmonic_mean([])


def test_harmonic_mean_monotone_in_components():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0.01, 1.0, rng.integers(2, 6))
        base = mt.harmonic_mean(v)
        i = rng.integers(len(v))
        v2 = v.copy()
        v2[i] = min(1.0, v2[i] + rng.uniform(0.0, 0.5))
        assert mt.harmonic_mean(v2) >= base - 1e-12


def _tiny_eval_corpus():
    return cp.generate_corpus(
        cp.GenConfig(n_entities=12, forget_fraction=0.25,
                     holdout_fraction=0.25), seed=2)


def test_evaluate_model_ranges_and_identity():
    corp = _tiny_eval_corpus()
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 4)
    report, _ = mt.evaluate_model(store, corp)
    assert 0.0 <= report["memorization"] <= 1.0
    assert 0.0 <= report["utility"] <= 1.0
    assert abs(report["aggregate"]
               - mt.harmonic_mean([report["memorization"],
                                   report["utility"]])) <= 1e-9
    for split, vals in report["per_split"].items():
        for key, v in vals.items():
            assert 0.0 <= v <= 1.0, (split, key, v)


def test_evaluate_model_degenerate_checkpoint_kills_fluency():
    corp = _tiny_eval_corpus()
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 4)
    # constant hidden state into the head: the model emits token 37 forever
    store.entries["ln_f.g"][:] = 0.0
    store.entries["ln_f.b"][:] = 0.0
    store.entries["ln_f.b"][0] = 1.0
    store.entries["head"][:, :] = 0.0
    store.entries["head"][0, :] = -30.0
    store.entries["head"][0, 37] = 30.0
    report, _ = mt.evaluate_model(store, corp)
    fluency = 1.0 - report["per_split"]["forget"]["degeneracy"]
    assert fluency <= 0.1
    assert report["utility"] <= 0.1
    for split, vals in report["per_split"].items():
        for key, v in vals.items():
            assert 0.0 <= v <= 1.0


def test_evaluate_model_missing_split_is_data_error():
    corp = _tiny_eval_corpus()
    corp.records = [r for r in corp.records if r.split != "holdout"]
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)
    with pytest.raises(DataError):
        mt.evaluate_model(lm.init_model(arch, 0), corp)


def test_scalar_metrics_raise_length_error_past_context():
    arch = lm.ArchConfig(vocab_size=16, context_len=6, d_model=8,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 0)
    prompt, answer = [1, 2, 3], [4, 5, 6, 7]
    with pytest.raises(LengthError):
        mt.teacher_forced_scores(store, [(prompt, answer)])


# Per-record oracle -------------------------------------------------------------
# The evaluation loop as it ran before batching: one forward per metric per
# record, and extraction strength from up to |y| greedy decodes. The batched
# scorer must reproduce it: hit-based fields exactly, probabilities to 1e-12.

HIT_FIELDS = ("rouge_l", "exact_mem", "extraction_strength", "degeneracy")
PROB_FIELDS = ("norm_prob", "para_prob", "truth_ratio_inv")


def _norm_prob_oracle(store, prompt, answer):
    return float(np.exp(lm.token_logprobs(store, prompt, answer).sum()
                        / len(answer)))


def _exact_mem_oracle(store, prompt, answer):
    seq = list(prompt) + list(answer)
    logits = lm.batch_logits(store, [seq])[0]
    pos = np.arange(len(prompt) - 1, len(seq) - 1)
    return float((logits[pos].argmax(axis=-1) == np.asarray(answer)).mean())


def _extraction_strength_by_decode(store, prompt, answer):
    answer = list(answer)
    n = len(answer)
    for k in range(n):
        rest = answer[k:]
        [(out, _)] = lm.decode_batch(store, [list(prompt) + answer[:k]],
                                     max_len=len(rest))
        if out == rest:
            return 1.0 - k / n
    return 0.0


def _record_scores(store, vocab, rec, max_len):
    prompt, answer = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
    [(out, _)] = lm.decode_batch(store, [prompt], max_len, eos_id=vocab.eos)
    para_prompt, _ = cp.qa_pair_tokens(vocab, rec.paraphrases[0], rec.answer)
    correct = _norm_prob_oracle(store, para_prompt, answer)
    perturbed = [_norm_prob_oracle(store, para_prompt, cp.encode(vocab, a))
                 for a in rec.perturbed_answers]
    r = float(np.mean(perturbed) / correct)
    gen = mt._strip_specials(vocab, out)
    return {
        "rouge_l": mt.rouge_l_f1(mt._strip_specials(vocab, answer), gen),
        "norm_prob": _norm_prob_oracle(store, prompt, answer),
        "para_prob": correct,
        "exact_mem": _exact_mem_oracle(store, prompt, answer),
        "extraction_strength": _extraction_strength_by_decode(
            store, prompt, answer),
        "truth_ratio_inv": max(0.0, 1.0 - r),
        "degeneracy": mt.degeneracy_score(out),
    }, out


def _assert_matches_oracle(store, vocab, records):
    rows, gens = mt.score_records(store, vocab, records)
    assert len(rows) == len(gens) == len(records)
    for rec, row, gen in zip(records, rows, gens):
        want, want_gen = _record_scores(store, vocab, rec, 16)
        assert gen == want_gen, rec.id
        for k in HIT_FIELDS:
            assert row[k] == want[k], (rec.id, k)
        for k in PROB_FIELDS:
            assert row[k] == pytest.approx(want[k], rel=1e-12, abs=0.0), \
                (rec.id, k)


@pytest.mark.parametrize("fixture", ["theta_o", "bst_unlearned"])
def test_batched_scores_match_per_record_oracle(fixture, request,
                                                desk_corpus):
    _, store, *_ = request.getfixturevalue(fixture)
    _assert_matches_oracle(store, desk_corpus.vocab, desk_corpus.records)


def test_batched_scores_match_oracle_on_zero_head_ties():
    corp = _tiny_eval_corpus()
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 4)  # zero head: every logit ties at 0
    _assert_matches_oracle(store, corp.vocab, corp.records)
    # Answers with id 0 hit exactly where the lowest-id tie rule says.
    pairs = [([5, 6], [0, 0, 0]), ([5, 6], [7, 0, 0]), ([5], [0, 7, 0]),
             ([5, 6, 7], [7, 8])]
    got = mt.teacher_forced_scores(store, pairs)
    assert [s.extraction_strength for s in got] == [
        _extraction_strength_by_decode(store, p, a) for p, a in pairs]
    assert [s.extraction_strength for s in got] == [1.0, 1.0 - 1 / 3,
                                                    1.0 - 2 / 3, 0.0]
    assert [s.exact_mem for s in got] == [
        _exact_mem_oracle(store, p, a) for p, a in pairs]


def test_batched_scores_match_oracle_on_random_head():
    corp = _tiny_eval_corpus()
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 4)
    store.entries["head"] = np.random.default_rng(7).normal(
        0.0, 1.0, store.entries["head"].shape)
    _assert_matches_oracle(store, corp.vocab, corp.records)
