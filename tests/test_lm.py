import dataclasses
import io
import json

import numpy as np
import pytest

from unlearnlab import corpus as cp
from unlearnlab import lm
from unlearnlab.errors import (ConfigError, ContractError, DataError,
                               LengthError, VocabError)


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
    d = lm.next_token_dist(store, [1, 2, 3])
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


def test_forward_is_causal(tiny_store):
    toks = [1, 2, 3, 4, 5, 6]
    base = lm.forward_logits(tiny_store, toks)
    bumped = list(toks)
    bumped[3] = 9
    out = lm.forward_logits(tiny_store, bumped)
    assert np.array_equal(base[:3], out[:3])
    assert not np.array_equal(base[3:], out[3:])


def test_forward_deterministic_and_rows_normalize(tiny_store):
    toks = [3, 1, 4, 1, 5]
    a = lm.forward_logits(tiny_store, toks)
    b = lm.forward_logits(tiny_store, toks)
    assert np.array_equal(a, b)
    p = lm._softmax_np(a)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-9
    assert np.all(p > 0)


def test_forward_input_validation(tiny_store):
    with pytest.raises(LengthError):
        lm.forward_logits(tiny_store, list(range(17)))
    with pytest.raises(VocabError):
        lm.forward_logits(tiny_store, [0, 99])


def test_graph_and_numpy_forwards_agree(tiny_store):
    rng = np.random.default_rng(0)
    toks = rng.integers(0, 12, (3, 9))
    g = lm.build_logits(lm.param_tensors(tiny_store), tiny_store.arch, toks)
    n = lm._forward_np(tiny_store.entries, tiny_store.arch, toks)
    assert np.array_equal(g.value, n)


def test_sequence_logprob_empty_response(tiny_store):
    assert lm.sequence_logprob(tiny_store, [1, 2], []) == 0.0


def test_sequence_logprob_uniform_single_token():
    arch = lm.ArchConfig(vocab_size=64, context_len=8, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)
    lp = lm.sequence_logprob(store, [1, 2], [7])
    assert abs(lp - np.log(1 / 64)) < 1e-12
    assert abs(lp + 4.1589) < 1e-3


def test_sequence_logprob_requires_prompt(tiny_store):
    with pytest.raises(ContractError):
        lm.sequence_logprob(tiny_store, [], [1, 2])


def test_sequence_logprob_matches_per_token_sum(tiny_store):
    prompt, resp = [1, 2, 3], [4, 5, 6, 7]
    seq = prompt + resp
    logits = lm.forward_logits(tiny_store, seq)
    lp = lm._log_softmax_np(logits)
    manual = sum(lp[len(prompt) - 1 + i, resp[i]] for i in range(len(resp)))
    assert abs(lm.sequence_logprob(tiny_store, prompt, resp) - manual) < 1e-12
    assert lm.sequence_logprob(tiny_store, prompt, resp) <= 0.0


def test_scored_span_invariant_to_trailing_padding(tiny_store):
    prompt, resp = [1, 2], [3, 4, 5]
    base = lm.token_logprobs(tiny_store, prompt, resp)
    padded = lm.forward_logits(tiny_store, prompt + resp + [0, 0, 0])
    lp = lm._log_softmax_np(padded)
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
            assert np.array_equal(batch[r], lm.forward_logits(tiny_store,
                                                              seqs[i]))


def test_length_groups_cap_rows():
    groups = lm.length_groups([[1, 2]] * (2 * lm.MAX_BATCH_ROWS + 1))
    assert [len(g) for g in groups] == [lm.MAX_BATCH_ROWS,
                                        lm.MAX_BATCH_ROWS, 1]


def test_greedy_batch_matches_per_prompt_decode(tiny_store):
    rng = np.random.default_rng(4)
    prompts = [list(rng.integers(0, 12, rng.integers(1, 6)))
               for _ in range(40)]
    prompts += [[1] * 14, [2] * 16]  # two steps of context left, then none
    for eos in (None, 0, 5):
        got = lm.greedy_batch(tiny_store, prompts, 6, eos_id=eos)
        want = [lm.decode(tiny_store, p, lm.Greedy(), 6, eos_id=eos)[0][0]
                for p in prompts]
        assert got == want
    with pytest.raises(ContractError):
        lm.greedy_batch(tiny_store, [[1], []], 4)
    with pytest.raises(ConfigError):
        lm.greedy_batch(tiny_store, [[1]], 0)


def test_greedy_decode_deterministic(tiny_store):
    a = lm.decode(tiny_store, [1, 2, 3], lm.Greedy(), 6, eos_id=0)
    b = lm.decode(tiny_store, [1, 2, 3], lm.Greedy(), 6, eos_id=0)
    assert a == b


def test_greedy_matches_next_token_argmax(tiny_store):
    out, _ = lm.decode(tiny_store, [1, 2, 3], lm.Greedy(), 1)[0]
    d = lm.next_token_dist(tiny_store, [1, 2, 3])
    assert out[0] == int(np.argmax(d))


def test_greedy_tie_break_lowest_id():
    arch = lm.ArchConfig(vocab_size=16, context_len=8, d_model=8,
                         n_layers=0, n_heads=1)
    store = lm.init_model(arch, 0)  # zero head: all logits tie
    out, _ = lm.decode(store, [5], lm.Greedy(), 3)[0]
    assert out[0] == 0


def test_beam_width_one_equals_greedy(tiny_store):
    g = lm.decode(tiny_store, [2, 3], lm.Greedy(), 5, eos_id=0)[0]
    b = lm.decode(tiny_store, [2, 3], lm.Beam(1), 5, eos_id=0)[0]
    assert abs(g[1] - b[1]) < 1e-12
    assert g[0] == b[0]


def test_beam_sorted_and_unique(tiny_store):
    outs = lm.decode(tiny_store, [2, 3], lm.Beam(4), 5, eos_id=0)
    lps = [lp for _, lp in outs]
    assert lps == sorted(lps, reverse=True)
    toks = [tuple(t) for t, _ in outs]
    assert len(set(toks)) == len(toks)
    for t, _ in outs:
        assert t[-1] == 0 or len(t) == 5


def test_decode_strategy_validation(tiny_store):
    with pytest.raises(ConfigError):
        lm.decode(tiny_store, [1], lm.Temperature(0.0, 1), 4)
    with pytest.raises(ConfigError):
        lm.decode(tiny_store, [1], lm.Beam(0), 4)
    with pytest.raises(ConfigError):
        lm.decode(tiny_store, [1], lm.Greedy(), 0)


def test_temperature_deterministic_given_seed(tiny_store):
    a = lm.decode(tiny_store, [1, 2], lm.Temperature(1.0, 9), 6, eos_id=0)
    b = lm.decode(tiny_store, [1, 2], lm.Temperature(1.0, 9), 6, eos_id=0)
    assert a == b


def test_low_temperature_tracks_greedy(mini_trained):
    corp, store = mini_trained
    vocab = corp.vocab
    agree = total = 0
    for i, rec in enumerate(corp.records[:50]):
        prompt, _ = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
        g, _ = lm.decode(store, prompt, lm.Greedy(), 12, eos_id=vocab.eos)[0]
        t, _ = lm.decode(store, prompt, lm.Temperature(0.01, 100 + i), 12,
                         eos_id=vocab.eos)[0]
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
    assert np.max(np.abs(lm.forward_logits(loaded, toks)
                         - lm.forward_logits(tiny_store, toks))) <= 1e-12
    lm.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bytes_equal_streamed_json_dump(tiny_store, tmp_path):
    p = tmp_path / "a.json"
    lm.save_checkpoint(tiny_store, p)
    doc = {"arch": dataclasses.asdict(tiny_store.arch),
           "seed": tiny_store.seed,
           "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()}
                      for k, v in tiny_store.entries.items()}}
    streamed = io.StringIO()
    json.dump(doc, streamed, sort_keys=True)
    streamed.write("\n")
    assert p.read_text() == streamed.getvalue()


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


def test_non_finite_checkpoint_is_data_error(tiny_store, tmp_path):
    p = tmp_path / "bad.json"
    lm.save_checkpoint(tiny_store, p)
    doc = json.loads(p.read_text())
    doc["params"]["head"]["data"][3] = float("nan")
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="'head'"):
        lm.load_checkpoint(p)


def test_checkpoint_shape_mismatch_rejected(tiny_store, tmp_path):
    p = tmp_path / "bad.json"
    lm.save_checkpoint(tiny_store, p)
    doc = json.loads(p.read_text())
    doc["params"]["head"]["shape"] = [1, 1]
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        lm.load_checkpoint(p)


def test_snapshot_is_value_independent(tiny_store):
    snap = tiny_store.snapshot()
    tiny_store.entries["head"][0, 0] += 123.0
    assert snap.entries["head"][0, 0] != tiny_store.entries["head"][0, 0]
