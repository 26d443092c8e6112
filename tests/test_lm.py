import base64
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import corpus as cp
from unlearnlab import lm, runner
from unlearnlab.errors import (ConfigError, ContractError, DataError,
                               LengthError, VocabError)
from conftest import save_v03_checkpoint


def test_init_is_deterministic(tiny_arch):
    a = lm.init_model(tiny_arch, 42)
    b = lm.init_model(tiny_arch, 42)
    assert a.entries.keys() == b.entries.keys()
    for k in a.entries:
        assert np.array_equal(a.entries[k], b.entries[k])


def test_zero_head_gives_uniform_distribution():
    arch = lm.ArchConfig(vocab_size=64, context_len=8, d_model=8,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 0)
    d = ad.arrays.softmax(lm.batch_logits(store, [[1, 2, 3]])[0][-1])
    assert np.allclose(d, 1.0 / 64, atol=1e-15)


def test_param_count_closed_form(tiny_arch):
    store = lm.init_model(tiny_arch, 0)
    v, c, d, layers = (tiny_arch.vocab_size, tiny_arch.context_len,
                       tiny_arch.d_model, tiny_arch.n_layers)
    per_layer = 2 * d + 4 * d * d + 2 * d + d * 4 * d + 4 * d + 4 * d * d + d
    expect = v * d + c * d + layers * per_layer + 2 * d + d * v
    assert store.param_count() == expect


def test_invalid_arch_raises():
    with pytest.raises(ConfigError):
        lm.init_model(lm.ArchConfig(vocab_size=8, context_len=4, d_model=6,
                                    n_layers=1, n_heads=4), 0)
    with pytest.raises(ConfigError):
        lm.init_model(lm.ArchConfig(vocab_size=0, context_len=4, d_model=4,
                                    n_layers=1, n_heads=1), 0)


@pytest.mark.parametrize("n_layers,tied", [(0, False), (1, True),
                                           (2, False), (2, True)])
def test_arch_parameter_cap_counts_what_init_builds(n_layers, tied,
                                                    monkeypatch):
    arch = dict(vocab_size=24, context_len=20, d_model=8, n_layers=n_layers,
                n_heads=2, tie_output_head=tied)
    n = lm.init_model(lm.ArchConfig(**arch), 0).param_count()
    monkeypatch.setattr(lm, "MAX_PARAMS", n)
    lm.ArchConfig(**arch)
    monkeypatch.setattr(lm, "MAX_PARAMS", n - 1)
    with pytest.raises(ConfigError, match=f"arch has {n} parameters, above "
                                          f"the cap {n - 1}"):
        lm.ArchConfig(**arch)


def test_arch_parameter_cap_refuses_huge_sizes_at_once():
    """No array is built and no loop runs over the blocks: 2**62 layers
    is refused as quickly as a huge vocabulary."""
    for arch in (dict(vocab_size=2 ** 40, context_len=32, d_model=64,
                      n_layers=2, n_heads=4),
                 dict(vocab_size=512, context_len=32, d_model=64,
                      n_layers=2 ** 62, n_heads=4)):
        with pytest.raises(ConfigError, match=f"the cap {lm.MAX_PARAMS}"):
            lm.ArchConfig(**arch)
    # The desk arch, the largest the lab runs, is far below the cap.
    assert 100 * lm.init_model(runner.desk_arch(), 0).param_count() \
        <= lm.MAX_PARAMS


def test_forward_is_causal(tiny_store):
    toks = [1, 2, 3, 4, 5, 6]
    base = lm.batch_logits(tiny_store, [toks])[0]
    bumped = list(toks)
    bumped[3] = 9
    out = lm.batch_logits(tiny_store, [bumped])[0]
    assert np.array_equal(base[:3], out[:3])
    assert not np.array_equal(base[3:], out[3:])


def test_forward_deterministic_and_rows_normalize(tiny_store):
    toks = [3, 1, 4, 1, 5]
    a = lm.batch_logits(tiny_store, [toks])[0]
    b = lm.batch_logits(tiny_store, [toks])[0]
    assert np.array_equal(a, b)
    p = ad.arrays.softmax(a)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-9
    assert np.all(p > 0)


def test_forward_input_validation(tiny_store):
    with pytest.raises(LengthError):
        lm.batch_logits(tiny_store, [list(range(17))])
    with pytest.raises(VocabError):
        lm.batch_logits(tiny_store, [[0, 99]])


# Reference: a separate plain-numpy forward and its helpers, written op for
# op; both forwards in lm must equal it bit for bit.
def _layer_norm_np(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv * g + b


def _gelu_np(x):
    u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(u))


def _softmax_np(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_np(x):
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _forward_np(entries: dict[str, np.ndarray], arch: lm.ArchConfig,
                tokens: np.ndarray) -> np.ndarray:
    """Plain-numpy forward, op-for-op identical to build_logits."""
    b, t = tokens.shape
    d, h = arch.d_model, arch.n_heads
    dh = d // h
    x = entries["tok_emb"][tokens] + entries["pos_emb"][:t]
    mask = lm._causal_mask(t)
    for i in range(arch.n_layers):
        p = f"layers.{i}."
        a = _layer_norm_np(x, entries[p + "ln1.g"], entries[p + "ln1.b"])
        q = (a @ entries[p + "attn.wq"]).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        k = (a @ entries[p + "attn.wk"]).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        v = (a @ entries[p + "attn.wv"]).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        att = _softmax_np(q @ k.transpose(0, 1, 3, 2) * (1.0 / math.sqrt(dh))
                          + mask)
        o = (att @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        x = x + o @ entries[p + "attn.wo"]
        m = _layer_norm_np(x, entries[p + "ln2.g"], entries[p + "ln2.b"])
        m = _gelu_np(m @ entries[p + "mlp.w1"] + entries[p + "mlp.b1"])
        x = x + (m @ entries[p + "mlp.w2"] + entries[p + "mlp.b2"])
    x = _layer_norm_np(x, entries["ln_f.g"], entries["ln_f.b"])
    if arch.tie_output_head:
        return x @ entries["tok_emb"].T
    return x @ entries["head"]


def _jittered(arch, seed):
    """A model with every parameter (the zero-init head too) jittered."""
    store = lm.init_model(arch, seed)
    rng = np.random.default_rng(seed)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.05, store.entries[k].shape)
    return store


def test_graph_and_numpy_forwards_agree(tiny_store):
    """batch_logits and build_logits both equal the numpy oracle, bit for
    bit: tiny, tied-head, zero-layer and desk arch (1 and 64 rows)."""
    small = dict(vocab_size=12, context_len=16, n_heads=2)
    # head width 6: the attention scale 1/sqrt(6) is not a power of two,
    # so moving it to another operand changes the rounding
    tied = _jittered(lm.ArchConfig(d_model=12, n_layers=2,
                                   tie_output_head=True, **small), 5)
    no_layers = _jittered(lm.ArchConfig(d_model=8, n_layers=0, **small), 6)
    desk = _jittered(runner.desk_arch(), 7)
    rng = np.random.default_rng(0)
    for store, rows, t in ((tiny_store, 3, 9), (tied, 3, 9),
                           (no_layers, 3, 9), (desk, 1, 21), (desk, 64, 21)):
        arch = store.arch
        toks = rng.integers(0, arch.vocab_size, (rows, t))
        want = _forward_np(store.entries, arch, toks)
        assert np.array_equal(lm.batch_logits(store, toks), want)
        g = lm.build_logits(lm.param_tensors(store), arch, toks)
        assert np.array_equal(g.value, want)


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_logits_at_rows_equal_the_full_logits_at_those_rows(n_layers, tied):
    """`build_logits(..., rows)` and `batch_logits(..., rows)` run the last
    block from its queries on, the final norm and the head on the picked
    positions only; each row equals the full forward's, bit for bit,
    repeated and out-of-order positions included, and so does a one-row
    request (R = 1), of one sequence or of several."""
    store = _jittered(lm.ArchConfig(vocab_size=12, context_len=16, d_model=12,
                                    n_layers=n_layers, n_heads=2,
                                    tie_output_head=tied), 3)
    rng = np.random.default_rng(n_layers)
    toks = rng.integers(0, 12, (4, 9))
    rows = np.array([[2, 3, 4], [8, 0, 0], [5, 5, 1], [6, 7, 8]])
    tensors = lm.param_tensors(store)
    full = lm.build_logits(tensors, store.arch, toks).value
    assert np.array_equal(full, lm.batch_logits(store, toks))
    for pick, b in ((rows, 4), (rows[:, 1:2], 4), (rows[:1, 2:], 1)):
        want = full[np.arange(b)[:, None], pick]
        got = lm.build_logits(tensors, store.arch, toks[:b], pick).value
        assert got.shape == (b, pick.shape[1], 12)
        assert np.array_equal(got, want)
        assert np.array_equal(lm.batch_logits(store, toks[:b], pick), want)


def test_array_kernels_equal_the_numpy_oracle():
    """Small arrays, and desk-sized MLP activations, logits and attention
    scores: the kernels compute in place, with the oracle's bits."""
    rng = np.random.default_rng(8)
    for shape in ((4, 5, 16), (32, 21, 256), (32, 21, 512), (32, 4, 21, 21)):
        x = rng.normal(0, 3, shape)
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        assert np.array_equal(ad.arrays.softmax(x), _softmax_np(x))
        assert np.array_equal(ad.arrays.log_softmax(x), _log_softmax_np(x))
        assert np.array_equal(ad.arrays.gelu(x), _gelu_np(x))
        assert np.array_equal(ad.arrays.layer_norm(x, g, b),
                              _layer_norm_np(x, g, b))


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_cached_steps_match_the_full_forward(n_layers, tied):
    """Prefill, then steps that reuse the key/value cache: at every position
    the logits agree with one forward of the whole sequence to 1e-12, and
    the prefill's logits are a forward of the prefix alone, bit for bit."""
    store = _jittered(lm.ArchConfig(vocab_size=12, context_len=10, d_model=12,
                                    n_layers=n_layers, n_heads=2,
                                    tie_output_head=tied), 4)
    arch = store.arch
    toks = np.random.default_rng(9).integers(0, 12, (3, 10))
    full = lm.batch_logits(store, toks)
    # one position per step, and steps of several positions
    for chunks in ((1,) * 10, (4,) + (1,) * 6, (4, 2, 1, 1, 2)):
        cache = lm._Cache()
        got, pos = [], 0
        for t in chunks:
            got.append(lm._logits(ad.arrays, store.entries, arch,
                                  toks[:, pos:pos + t], cache))
            pos += t
        assert cache.pos == 10
        assert np.array_equal(got[0],
                              lm.batch_logits(store, toks[:, :chunks[0]]))
        assert np.max(np.abs(np.concatenate(got, axis=1) - full)) <= 1e-12
        # a step past the context raises, as a full forward would
        with pytest.raises(LengthError):
            lm._logits(ad.arrays, store.entries, arch, toks[:, :1], cache)


def test_cache_rows_follow_their_sequences(tiny_store):
    """A cache gathered to some rows continues exactly those rows."""
    toks = np.random.default_rng(2).integers(0, 12, (4, 6))
    full = lm.batch_logits(tiny_store, toks)
    cache = lm._Cache()
    lm._logits(ad.arrays, tiny_store.entries, tiny_store.arch, toks[:, :5],
               cache)
    rows = [3, 1, 1]
    last = lm._logits(ad.arrays, tiny_store.entries, tiny_store.arch,
                      toks[rows, 5:], cache.take(rows))
    assert np.max(np.abs(last[:, 0] - full[rows, 5])) <= 1e-12


def test_sequence_logprob_empty_response(tiny_store):
    assert lm.token_logprobs(tiny_store, [1, 2], []).sum() == 0.0


def test_sequence_logprob_uniform_single_token():
    arch = lm.ArchConfig(vocab_size=64, context_len=8, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    lp = lm.token_logprobs(store, [1, 2], [7]).sum()
    assert abs(lp - np.log(1 / 64)) < 1e-12
    assert abs(lp + 4.1589) < 1e-3


def test_sequence_logprob_requires_prompt(tiny_store):
    with pytest.raises(ContractError):
        lm.token_logprobs(tiny_store, [], [1, 2])


def test_sequence_logprob_matches_per_token_sum(tiny_store):
    prompt, resp = [1, 2, 3], [4, 5, 6, 7]
    seq = prompt + resp
    logits = lm.batch_logits(tiny_store, [seq])[0]
    lp = ad.arrays.log_softmax(logits)
    manual = sum(lp[len(prompt) - 1 + i, resp[i]] for i in range(len(resp)))
    lp = lm.token_logprobs(tiny_store, prompt, resp).sum()
    assert abs(lp - manual) < 1e-12
    assert lp <= 0.0


def test_scored_span_invariant_to_trailing_padding(tiny_store):
    prompt, resp = [1, 2], [3, 4, 5]
    base = lm.token_logprobs(tiny_store, prompt, resp)
    padded = lm.batch_logits(tiny_store, [prompt + resp + [0, 0, 0]])[0]
    lp = ad.arrays.log_softmax(padded)
    pos = np.arange(len(prompt) - 1, len(prompt) + len(resp) - 1)
    again = lp[pos, np.asarray(resp)]
    assert np.array_equal(base, again)


def test_batch_logits_rows_equal_single_row_forwards(tiny_store):
    rng = np.random.default_rng(3)
    seqs = [list(rng.integers(0, 12, rng.integers(2, 9))) for _ in range(30)]
    groups = lm.length_groups(seqs)
    assert sorted(i for g in groups for i in g) == list(range(len(seqs)))
    for rows in groups:
        assert len({len(seqs[i]) for i in rows}) == 1
        batch = lm.batch_logits(tiny_store, [seqs[i] for i in rows])
        for r, i in enumerate(rows):
            assert np.array_equal(batch[r],
                                  lm.batch_logits(tiny_store, [seqs[i]])[0])


def test_length_groups_cap_rows():
    groups = lm.length_groups([[1, 2]] * (2 * lm.MAX_BATCH_ROWS + 1))
    assert [len(g) for g in groups] == [lm.MAX_BATCH_ROWS,
                                        lm.MAX_BATCH_ROWS, 1]


def _v01_pad_batch(pairs):
    """v0.1's `objectives._pad_batch`, verbatim: the padded scorer's input."""
    b = len(pairs)
    t = max(len(p) + len(r) for p, r in pairs)
    r_max = max(len(r) for _, r in pairs)
    tokens = np.zeros((b, t), dtype=np.int64)
    tgt_pos = np.zeros((b, max(r_max, 1)), dtype=np.int64)
    tgt_ids = np.zeros((b, max(r_max, 1)), dtype=np.int64)
    mask = np.zeros((b, max(r_max, 1)))
    for i, (p, r) in enumerate(pairs):
        if not p:
            raise DataError("prompt must be non-empty")
        seq = list(p) + list(r)
        tokens[i, :len(seq)] = seq
        for j, y in enumerate(r):
            tgt_pos[i, j] = len(p) - 1 + j
            tgt_ids[i, j] = y
            mask[i, j] = 1.0
    return tokens, tgt_pos, tgt_ids, mask


def _v01_batch_sequence_logprobs(store, pairs):
    """v0.1's right-padded plain scorer (`objectives.batch_sequence_logprobs`),
    verbatim: the drift oracle for `lm.response_logits`."""
    tokens, tgt_pos, tgt_ids, mask = _v01_pad_batch(pairs)
    lp = ad.arrays.log_softmax(lm.batch_logits(store, tokens))
    bidx = np.arange(len(pairs))[:, None]
    lp_y = lp[bidx, tgt_pos, tgt_ids]
    return (lp_y * mask).sum(axis=1)


def _mixed_pairs(seed, n=40):
    rng = np.random.default_rng(seed)
    return [(list(rng.integers(0, 12, rng.integers(1, 7))),
             list(rng.integers(0, 12, rng.integers(1, 9)))) for _ in range(n)]


def _scores(store, pairs):
    """Sequence log-likelihood of every pair, read through the scorer."""
    out = np.zeros(len(pairs))
    for i, logits in lm.response_logits(store, pairs):
        resp = pairs[i][1]
        out[i] = ad.arrays.log_softmax(logits)[np.arange(len(resp)),
                                               resp].sum()
    return out


def test_response_logits_agree_with_v01_padded_scorer(tiny_store):
    for seed in range(3):
        pairs = _mixed_pairs(seed)
        old = _v01_batch_sequence_logprobs(tiny_store, pairs)
        assert np.max(np.abs(_scores(tiny_store, pairs) - old)) <= 1e-12


def test_response_logits_are_batch_invariant(tiny_store):
    pairs = _mixed_pairs(7)
    seen = []
    for i, logits in lm.response_logits(tiny_store, pairs):
        prompt, resp = pairs[i]
        seen.append(i)
        assert logits.shape == (len(resp), tiny_store.arch.vocab_size)
        [(_, alone)] = lm.response_logits(tiny_store, [(prompt, resp)])
        assert np.array_equal(logits, alone)
        full = lm.batch_logits(tiny_store, [prompt + resp])[0]
        assert np.array_equal(logits, full[len(prompt) - 1:-1])
    assert sorted(seen) == list(range(len(pairs)))
    mixed = _scores(tiny_store, pairs)
    for (prompt, resp), score in zip(pairs, mixed):
        assert score == _scores(tiny_store, [(prompt, resp)])[0]
        assert score == lm.token_logprobs(tiny_store, prompt, resp).sum()


def test_response_rows_are_the_scored_rows_of_training_and_scoring(
        tiny_store, monkeypatch):
    """Row j of pair i is len(prompt_i) - 1 + j and a shorter response
    repeats its last position; `_pad_batch`'s tgt_pos and the rows
    `response_logits` passes per length group are that array."""
    from unlearnlab import objectives as ob
    pairs = [([1, 2, 3], [4, 5]), ([1], [2, 3, 4, 5]),
             ([1, 2, 3, 4, 5], [6]), ([7, 8], [9, 10, 11])]
    want = [[2, 3, 3, 3], [0, 1, 2, 3], [4, 4, 4, 4], [1, 2, 3, 3]]
    rows = lm.response_rows(pairs)
    assert rows.dtype == np.int64 and rows.tolist() == want
    assert lm.response_rows([([1, 2], [])]).tolist() == [[1]]
    assert ob._pad_batch(pairs)[1].tolist() == want

    batch_logits, passed = lm.batch_logits, []

    def recorded(store, tokens, rows=None):
        passed.append(np.asarray(rows).tolist())
        return batch_logits(store, tokens, rows)

    monkeypatch.setattr(lm, "batch_logits", recorded)
    list(lm.response_logits(tiny_store, pairs))
    # Length groups: pairs 0, 1 and 3 are five tokens long, pair 2 six.
    assert passed == [[want[0], want[1], want[3]], [[4]]]


def test_greedy_decode_batch_matches_per_prompt_decode(tiny_store):
    rng = np.random.default_rng(4)
    prompts = [list(rng.integers(0, 12, rng.integers(1, 6)))
               for _ in range(40)]
    prompts += [[1] * 14, [2] * 16]  # two steps of context left, then none
    for eos in (None, 0, 5):
        got = [t for t, _ in lm.decode_batch(tiny_store, prompts, 6,
                                             eos_id=eos)]
        want = [lm.decode_batch(tiny_store, [p], 6, eos_id=eos)[0][0]
                for p in prompts]
        assert got == want
    with pytest.raises(ContractError):
        lm.decode_batch(tiny_store, [[1], []], 4)
    with pytest.raises(ConfigError):
        lm.decode_batch(tiny_store, [[1]], 0)


def _decode_one_row(store, prompt, max_len, eos_id=None, tau=1.0,
                    seed=None):
    """The one-row decode loop that ran before lock-step batching, greedy
    when `seed` is None: the oracle for `lm.decode_batch`'s rows."""
    prompt = list(prompt)
    ctx = store.arch.context_len
    rng = None if seed is None else np.random.default_rng(seed)
    out, total = [], 0.0
    while len(out) < max_len and len(prompt) + len(out) < ctx:
        logits = lm.batch_logits(store, [prompt + out])[0][-1]
        lp = ad.arrays.log_softmax(logits)
        if rng is None:
            nxt = int(np.argmax(lp))
        else:
            p = ad.arrays.softmax(logits / tau)
            nxt = int(rng.choice(p.size, p=p))
        total += float(lp[nxt])
        out.append(nxt)
        if eos_id is not None and nxt == eos_id:
            break
    return [(out, total)]


def _beam_one_row(store, prompt, width, max_len, eos_id):
    """Beam search with one forward per beam and a Python loop over every
    id: the oracle for the batched lm.beam_search."""
    ctx = store.arch.context_len
    beams = [((), 0.0, False)]
    while not all(f for _, _, f in beams):
        nxt = []
        for toks, lp, fin in beams:
            if fin or len(toks) >= max_len or len(prompt) + len(toks) >= ctx:
                nxt.append((toks, lp, True))
                continue
            step = ad.arrays.log_softmax(
                lm.batch_logits(store, [list(prompt) + list(toks)])[0][-1])
            for v in range(step.size):
                nxt.append((toks + (v,), lp + float(step[v]),
                             eos_id is not None and v == eos_id))
        nxt.sort(key=lambda c: (-c[1], c[0]))
        best = {}
        for c in nxt:
            best.setdefault(c[0], c)
        beams = list(best.values())[:width]
    beams.sort(key=lambda c: (-c[1], c[0]))
    return [(list(t), lp) for t, lp, _ in beams]


def _mixed_prompts(seed):
    rng = np.random.default_rng(seed)
    prompts = [list(rng.integers(0, 12, rng.integers(1, 6)))
               for _ in range(30)]
    # 2, 1 and 0 positions of context left
    return prompts + [[3] * 14, [4] * 15, [2] * 16]


def _assert_decodes_agree(got, want):
    """The drift oracle for cached decoding: the same token sequences in the
    same order, and totals within 1e-12. A cached step sums the attention
    and the matmuls in another order than a re-forward of the prefix."""
    assert [t for t, _ in got] == [t for t, _ in want]
    assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got, want))


def test_decode_matches_one_row_oracle(tiny_store):
    for eos in (None, 0, 5):
        for i, p in enumerate(_mixed_prompts(6)):
            _assert_decodes_agree(
                lm.decode_batch(tiny_store, [p], 6, eos_id=eos),
                _decode_one_row(tiny_store, p, 6, eos))
            _assert_decodes_agree(
                lm.decode_batch(tiny_store, [p], 6, eos_id=eos,
                                seeds=[40 + i], tau=0.7),
                _decode_one_row(tiny_store, p, 6, eos, 0.7, 40 + i))


def test_temperature_batch_rows_equal_per_prompt_decode(tiny_store):
    prompts = _mixed_prompts(7)
    seeds = [100 + i for i in range(len(prompts))]
    for eos in (None, 0, 5):
        for tau in (0.5, 1.0, 3.0):
            got = lm.decode_batch(tiny_store, prompts, 7, eos_id=eos,
                                  seeds=seeds, tau=tau)
            _assert_decodes_agree(got, [
                _decode_one_row(tiny_store, p, 7, eos, tau, s)[0]
                for p, s in zip(prompts, seeds)])
            # a batch row is its one-prompt decode, bit for bit
            assert got == [lm.decode_batch(tiny_store, [p], 7, eos_id=eos,
                                           seeds=[s], tau=tau)[0]
                           for p, s in zip(prompts, seeds)]


# 1, 4, V and V + 3 for tiny_store's 12-token vocabulary, and a width
# whose steps forward more than MAX_BATCH_ROWS open beams at once
@pytest.mark.parametrize("width", [1, 4, 12, 15, 70])
def test_beam_matches_per_beam_oracle(tiny_store, width):
    for eos in (None, 0, 5):
        for prompt, max_len in (([2, 3], 4), ([7], 3), ([1] * 14, 5)):
            _assert_decodes_agree(
                lm.beam_search(tiny_store, prompt, width, max_len,
                               eos_id=eos),
                _beam_one_row(tiny_store, prompt, width, max_len, eos))


def test_beam_matches_per_beam_oracle_when_all_logits_tie():
    arch = lm.ArchConfig(vocab_size=16, context_len=8, d_model=8,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 0)  # zero head: every logit ties
    for width in (1, 4, 16, 19):
        for eos in (None, 0, 5):
            got = lm.beam_search(store, [5, 6], width, 3, eos_id=eos)
            assert got == _beam_one_row(store, [5, 6], width, 3, eos)


def test_greedy_decode_deterministic(tiny_store):
    a = lm.decode_batch(tiny_store, [[1, 2, 3]], 6, eos_id=0)
    b = lm.decode_batch(tiny_store, [[1, 2, 3]], 6, eos_id=0)
    assert a == b


def test_greedy_matches_next_token_argmax(tiny_store):
    [(out, _)] = lm.decode_batch(tiny_store, [[1, 2, 3]], 1)
    d = ad.arrays.softmax(lm.batch_logits(tiny_store, [[1, 2, 3]])[0][-1])
    assert out[0] == int(np.argmax(d))


def test_greedy_tie_break_lowest_id():
    arch = lm.ArchConfig(vocab_size=16, context_len=8, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)  # zero head: all logits tie
    [(out, _)] = lm.decode_batch(store, [[5]], 3)
    assert out[0] == 0


def test_beam_width_one_equals_greedy(tiny_store):
    [g] = lm.decode_batch(tiny_store, [[2, 3]], 5, eos_id=0)
    [b] = lm.beam_search(tiny_store, [2, 3], 1, 5, eos_id=0)
    assert abs(g[1] - b[1]) < 1e-12
    assert g[0] == b[0]


def test_beam_sorted_and_unique(tiny_store):
    outs = lm.beam_search(tiny_store, [2, 3], 4, 5, eos_id=0)
    lps = [lp for _, lp in outs]
    assert lps == sorted(lps, reverse=True)
    toks = [tuple(t) for t, _ in outs]
    assert len(set(toks)) == len(toks)
    for t, _ in outs:
        assert t[-1] == 0 or len(t) == 5


def test_decode_strategy_validation(tiny_store):
    """Each decoder's own argument checks: the sampling temperature, one
    seed per prompt, the beam width and max_len."""
    with pytest.raises(ConfigError):
        lm.decode_batch(tiny_store, [[1]], 4, seeds=[1], tau=0.0)
    with pytest.raises(ConfigError):
        lm.decode_batch(tiny_store, [[1]], 4, seeds=[1], tau=-1.0)
    # tau is read only when sampling
    assert (lm.decode_batch(tiny_store, [[1]], 4, tau=0.0)
            == lm.decode_batch(tiny_store, [[1]], 4))
    with pytest.raises(ContractError):
        lm.decode_batch(tiny_store, [[1], [2]], 4, seeds=[1])
    with pytest.raises(ContractError):
        lm.decode_batch(tiny_store, [[1]], 4, seeds=[1, 2])
    with pytest.raises(ConfigError):
        lm.decode_batch(tiny_store, [[1]], 0)
    with pytest.raises(ConfigError):
        lm.beam_search(tiny_store, [1], 0, 4)
    with pytest.raises(ConfigError):
        lm.beam_search(tiny_store, [1], 3, 0)
    with pytest.raises(ContractError):
        lm.beam_search(tiny_store, [], 3, 4)


# greedy, temperature and beam: decode_batch's keywords or beam_search's
# width
@pytest.mark.parametrize("strategy", [{}, {"seeds": [3]}, {"width": 3}])
def test_decode_checks_the_prompt_before_decoding(strategy):
    """A prompt longer than the context, or with an id outside the
    vocabulary, raises even though no step would run; a prompt that fills
    the context exactly decodes to an empty continuation."""
    store = lm.init_model(lm.ArchConfig(vocab_size=12, context_len=8,
                                        d_model=8, n_layers=1, n_heads=2), 0)

    def decode_one(prompt):
        if "width" in strategy:
            return lm.beam_search(store, prompt, strategy["width"], 4)
        return lm.decode_batch(store, [prompt], 4, **strategy)

    with pytest.raises(LengthError):
        decode_one([1] * 10)
    with pytest.raises(VocabError):
        decode_one([1] * 7 + [12])
    assert decode_one([1] * 8) == [([], 0.0)]
    if "width" not in strategy:
        seeds = [3, 4] if "seeds" in strategy else None
        with pytest.raises(LengthError):
            lm.decode_batch(store, [[1], [1] * 9], 4, seeds=seeds)


def test_temperature_deterministic_given_seed(tiny_store):
    a = lm.decode_batch(tiny_store, [[1, 2]], 6, eos_id=0, seeds=[9])
    b = lm.decode_batch(tiny_store, [[1, 2]], 6, eos_id=0, seeds=[9])
    assert a == b


def test_low_temperature_tracks_greedy(mini_trained):
    corp, store = mini_trained
    vocab = corp.vocab
    prompts = [cp.qa_pair_tokens(vocab, rec.question, rec.answer)[0]
               for rec in corp.records[:50]]
    greedy = lm.decode_batch(store, prompts, 12, eos_id=vocab.eos)
    sampled = lm.decode_batch(store, prompts, 12, eos_id=vocab.eos,
                              seeds=[100 + i for i in range(len(prompts))],
                              tau=0.01)
    agree = total = 0
    for (g, _), (t, _) in zip(greedy, sampled):
        n = min(len(g), len(t))
        agree += sum(1 for a, b in zip(g[:n], t[:n]) if a == b)
        total += max(len(g), len(t))
    assert agree / total >= 0.95


def test_checkpoint_roundtrip_and_byte_identity(tiny_store, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    lm.save_checkpoint(tiny_store, p1)
    loaded = lm.load_checkpoint(p1)
    toks = [1, 2, 3, 4]
    assert np.max(np.abs(lm.batch_logits(loaded, [toks])[0]
                         - lm.batch_logits(tiny_store, [toks])[0])) <= 1e-12
    lm.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def test_checkpoint_bytes_equal_streamed_json_dump(tiny_store, tmp_path):
    p = tmp_path / "a.json"
    lm.save_checkpoint(tiny_store, p)
    doc = {"arch": dataclasses.asdict(tiny_store.arch),
           "seed": tiny_store.seed,
           "params": {k: {"shape": list(v.shape),
                          "data": _b64(v.astype("<f8").tobytes())}
                      for k, v in tiny_store.entries.items()}}
    streamed = io.StringIO()
    json.dump(doc, streamed, sort_keys=True)
    streamed.write("\n")
    assert p.read_text() == streamed.getvalue()


# Values a decimal or a lossy encoding could change: the sign of zero, the
# smallest subnormal, the largest finite floats, and 17-digit values.
_EXACT_VALUES = [-0.0, 5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2 / 3e-300,
                 2.2250738585072014e-308]


def _exact_store(tied):
    arch = lm.ArchConfig(vocab_size=12, context_len=16, d_model=8,
                         n_layers=1, n_heads=2, tie_output_head=tied)
    store = lm.init_model(arch, 3)
    rng = np.random.default_rng(1)
    for v in store.entries.values():
        flat = v.reshape(-1)
        flat[:] = rng.normal(size=flat.size)
        flat[:len(_EXACT_VALUES)] = _EXACT_VALUES[:flat.size]
    return store


def _assert_same_bits(a, b):
    assert a.entries.keys() == b.entries.keys()
    for k in a.entries:
        assert a.entries[k].shape == b.entries[k].shape
        assert np.array_equal(a.entries[k].view(np.uint64),
                              b.entries[k].view(np.uint64)), k


@pytest.mark.parametrize("tied", [False, True])
def test_checkpoint_roundtrip_is_bit_exact(tied, tmp_path):
    store = _exact_store(tied)
    p = tmp_path / "a.json"
    lm.save_checkpoint(store, p)
    loaded = lm.load_checkpoint(p)
    _assert_same_bits(store, loaded)
    assert ("head" in loaded.entries) is not tied
    for v in loaded.entries.values():
        assert v.dtype == np.float64 and v.dtype.isnative
        assert v.flags.writeable and v.flags.c_contiguous
    loaded.entries["tok_emb"][0, 0] += 1.0  # AdamW updates in place


@pytest.mark.parametrize("tied", [False, True])
def test_list_form_checkpoint_loads_to_the_bits_of_its_rewrite(tied,
                                                               tmp_path):
    store = _exact_store(tied)
    save_v03_checkpoint(store, tmp_path / "v03.json")
    old = lm.load_checkpoint(tmp_path / "v03.json")
    lm.save_checkpoint(old, tmp_path / "v04.json")
    assert isinstance(json.loads((tmp_path / "v04.json").read_text())
                      ["params"]["pos_emb"]["data"], str)
    _assert_same_bits(store, old)
    _assert_same_bits(old, lm.load_checkpoint(tmp_path / "v04.json"))


_SHARED_LEAF = [0.1, 0.2, 0.3]
_JSON_DOCS = {
    "nested": {"b": {"y": [1.5, 2.5], "x": {"z": None}},
               "a": [{"k": 1, "j": "v"}, {"j": [1, 2]}], "c": 3},
    "list_of_dicts_top": [{"b": 1, "a": 2}, 3, [4.5]],
    "dict_after_leaf": {"x": [3, {"b": 1, "a": {"d": 0, "c": [1]}}],
                        "y": ([2.5], {"b": None, "a": 1})},
    "tuples": {"t": ({"b": 1, "a": 2}, 3.0), "u": (1, (2, 3))},
    "dict_below_leaf_list": {"x": [[{"b": 1, "a": 2}]]},
    "empty_dict_top": {},
    "empty_list_top": [],
    "empties": {"a": {}, "b": [], "c": [{}], "d": [[]], "e": ({},),
                "f": [{"g": {}, "h": [], "i": [{}]}]},
    "shared_leaf": {"a": _SHARED_LEAF,
                    "b": [{"c": _SHARED_LEAF}, _SHARED_LEAF]},
    "text": {"ключ": "naïve ☃ \U0001f600",
             "q\"k": "tab\t \"quote\" back\\slash \n \x00 \x1f \u2028"},
    "non_finite": {"x": [float("nan"), float("inf"), -float("inf")],
                   "y": float("nan"), "z": [{"w": -float("inf")}]},
    "scalars": {"i": 10 ** 30, "n": -3, "t": True, "f": False, "z": None,
                "l": [True, None, 0, -0.0, 1e-320, 1e300]},
    "non_str_keys": {"m": {2: "a", 1.5: "b", True: "c", -1: {"x": 1}},
                     "n": [{None: 1}], "o": {False: [{"b": 1, "a": 0}]}},
    "np_float64": {"v": np.float64(0.1), "w": [np.float64(1e-300)],
                   "x": [{"y": np.float64(-2.5)}]},
}


@pytest.mark.parametrize("case", sorted(_JSON_DOCS))
def test_write_json_bytes_equal_pure_python_encoder(case, tmp_path):
    doc = _JSON_DOCS[case]
    p = tmp_path / "doc.json"
    lm.write_json(doc, p)
    oracle = "".join(json.JSONEncoder(sort_keys=True).iterencode(doc)) + "\n"
    assert p.read_text() == oracle
    assert [q.name for q in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("case", ["arch", "params", "seed", "top_level"])
def test_checkpoint_missing_field_is_data_error(case, tiny_store, tmp_path):
    p = tmp_path / "bad.json"
    lm.save_checkpoint(tiny_store, p)
    doc = json.loads(p.read_text())
    if case == "top_level":
        doc = [doc]
    else:
        del doc[case]
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="object" if case == "top_level"
                       else repr(case)):
        lm.load_checkpoint(p)


def _assert_names_the_file_once(err, path):
    """A checkpoint error names its file, so `eval` over several
    checkpoints can say which one is bad."""
    assert str(err.value).count(str(path)) == 1


def test_non_finite_checkpoint_is_data_error(tiny_store, tmp_path):
    p = tmp_path / "bad.json"
    save_v03_checkpoint(tiny_store, p)
    doc = json.loads(p.read_text())
    doc["params"]["head"]["data"][3] = float("nan")
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="'head'") as err:
        lm.load_checkpoint(p)
    _assert_names_the_file_once(err, p)


def test_checkpoint_shape_mismatch_rejected(tiny_store, tmp_path):
    p = tmp_path / "bad.json"
    lm.save_checkpoint(tiny_store, p)
    doc = json.loads(p.read_text())
    doc["params"]["head"]["shape"] = [1, 1]
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="shape mismatch for 'head'") as err:
        lm.load_checkpoint(p)
    _assert_names_the_file_once(err, p)


def test_checkpoint_missing_parameter_is_data_error(tiny_store, tmp_path):
    p = tmp_path / "bad.json"
    lm.save_checkpoint(tiny_store, p)
    doc = json.loads(p.read_text())
    del doc["params"]["pos_emb"]
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="missing parameter 'pos_emb'") as err:
        lm.load_checkpoint(p)
    _assert_names_the_file_once(err, p)


def _head(doc):
    return doc["params"]["head"]


# case -> (edit of a list-form (v0.3) checkpoint document, what the error
# names)
_BAD_CHECKPOINTS = {
    "record_not_object": (lambda d: d["params"].update(head=[1, 2]),
                          "'head'"),
    "missing_data": (lambda d: _head(d).pop("data"), "'head'"),
    "missing_shape": (lambda d: _head(d).pop("shape"), "'head'"),
    "data_length": (lambda d: _head(d)["data"].pop(), "'head'"),
    "non_numeric_data": (lambda d: _head(d)["data"].insert(0, "x"),
                         "'head'"),
    "params_not_object": (lambda d: d.update(params=[1]), "'params'"),
    "seed_not_integer": (lambda d: d.update(seed="abc"), "'seed'"),
    "arch_type": (lambda d: d["arch"].update(vocab_size="8"),
                  "arch.vocab_size"),
    "arch_out_of_range": (lambda d: d["arch"].update(n_heads=3), "'arch'"),
}


def _edit_head_bytes(doc, edit):
    """Replace the head's base64 `data` with that of `edit(raw bytes)`."""
    raw = base64.b64decode(_head(doc)["data"])
    _head(doc)["data"] = _b64(edit(raw))


def _head_value_bytes(value):
    """Bytes of the head with entry 3 set to `value`."""
    def edit(raw):
        values = np.frombuffer(raw, "<f8").copy()
        values[3] = value
        return values.tobytes()
    return edit


# case -> (edit of a saved (base64) checkpoint document, what the error says)
_BAD_BASE64 = {
    "not_base64_char": (lambda d: _head(d).update(data="*" + _head(d)["data"]
                                                  [1:]), "'head'.*base64"),
    "non_ascii_char": (lambda d: _head(d).update(data="\u00e9" + _head(d)
                                                 ["data"][1:]),
                       "'head'.*base64"),
    "inner_newline": (lambda d: _head(d).update(data=_head(d)["data"][:8]
                                                + "\n" + _head(d)["data"][8:]),
                      "'head'.*base64"),
    "bad_padding": (lambda d: _head(d).update(data=_head(d)["data"][:-1]),
                    "'head'.*base64"),
    "short_by_one_value": (lambda d: _edit_head_bytes(d, lambda r: r[:-8]),
                           "'head' data holds 760 bytes, expected 768"),
    "long_by_one_value": (lambda d: _edit_head_bytes(d, lambda r: r + r[:8]),
                          "'head' data holds 776 bytes, expected 768"),
    "partial_value": (lambda d: _edit_head_bytes(d, lambda r: r[:-3]),
                      "'head' data holds 765 bytes"),
    "empty": (lambda d: _head(d).update(data=""), "'head' data holds 0 bytes"),
    "number": (lambda d: _head(d).update(data=1.5), "'head'.*got 1.5"),
    "null": (lambda d: _head(d).update(data=None), "'head'.*got None"),
    "object": (lambda d: _head(d).update(data={"b64": _head(d)["data"]}),
               "'head'.*got \\{"),
    "nan_bytes": (lambda d: _edit_head_bytes(d, _head_value_bytes(np.nan)),
                  "'head' is not finite"),
    "inf_bytes": (lambda d: _edit_head_bytes(d, _head_value_bytes(-np.inf)),
                  "'head' is not finite"),
    "stray_parameter": (lambda d: d["params"].update(
        {"layers.7.attn.wq": d["params"]["layers.0.attn.wq"]}),
        "'layers.7.attn.wq' is not a parameter of its arch"),
    "head_of_a_tied_arch": (lambda d: d["arch"].update(tie_output_head=True),
                            "'head' is not a parameter of its arch"),
}


@pytest.mark.parametrize("case", list(_BAD_CHECKPOINTS) + list(_BAD_BASE64))
def test_malformed_checkpoint_is_data_error(case, tiny_store, tmp_path):
    save, (edit, match) = ((save_v03_checkpoint, _BAD_CHECKPOINTS[case])
                           if case in _BAD_CHECKPOINTS
                           else (lm.save_checkpoint, _BAD_BASE64[case]))
    p = tmp_path / "bad.json"
    save(tiny_store, p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match) as err:
        lm.load_checkpoint(p)
    _assert_names_the_file_once(err, p)


def test_snapshot_is_value_independent(tiny_store):
    snap = tiny_store.snapshot()
    tiny_store.entries["head"][0, 0] += 123.0
    assert snap.entries["head"][0, 0] != tiny_store.entries["head"][0, 0]
