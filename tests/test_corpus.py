import json

import pytest

from unlearnlab import corpus as cp, runner
from unlearnlab.errors import ConfigError, DataError, VocabError
from unlearnlab.objectives import loss_retain


@pytest.fixture(scope="module")
def corp():
    return cp.generate_corpus(cp.GenConfig(n_entities=200), seed=11)


def test_split_sizes_match_fractions(corp):
    assert len({r.id for r in corp.records}) == len(corp.records)
    assert len(corp.split("forget")) == 20
    assert len(corp.split("holdout")) == 20
    assert len(corp.split("retain")) == 160


def test_splits_partition_records(corp):
    total = sum(len(corp.split(s)) for s in ("forget", "retain", "holdout"))
    assert total == len(corp.records)
    assert all(r.split in ("forget", "retain", "holdout")
               for r in corp.records)


def test_entity_scoped_splits(corp):
    by_entity = {}
    for r in corp.records:
        by_entity.setdefault(r.id.split("_")[0], set()).add(r.split)
    assert all(len(v) == 1 for v in by_entity.values())


def test_record_structure(corp):
    for r in corp.records:
        assert len(r.paraphrases) >= 1
        assert len(r.perturbed_answers) >= 3


def test_generation_fills_are_in_normal_form(corp):
    """`generate_corpus` fills templates without `normalize`: every template,
    name and attribute value is in normal form already, and so is every
    text a fill makes (names are joined with one space)."""
    texts = [*cp.FIRST_NAMES, *cp.LAST_NAMES]
    texts += [v for values in cp.ATTRIBUTES.values() for v in values]
    texts += [t for tmpl in cp.TEMPLATES.values()
              for t in (tmpl["question"], tmpl["answer"],
                        *tmpl["paraphrases"])]
    assert [t for t in texts if t != cp.normalize(t)] == []
    for r in corp.records:
        for t in (r.question, r.answer, *r.paraphrases,
                  *r.perturbed_answers):
            assert t == cp.normalize(t), r.id


def test_generation_is_byte_deterministic(tmp_path, corp):
    again = cp.generate_corpus(cp.GenConfig(n_entities=200), seed=11)
    a1, v1 = tmp_path / "a.jsonl", tmp_path / "a.vocab"
    a2, v2 = tmp_path / "b.jsonl", tmp_path / "b.vocab"
    cp.save_corpus(corp, a1, v1)
    cp.save_corpus(again, a2, v2)
    assert a1.read_bytes() == a2.read_bytes()
    assert v1.read_bytes() == v2.read_bytes()


def test_corpus_file_roundtrip(tmp_path, corp):
    rec, voc = tmp_path / "c.jsonl", tmp_path / "v.json"
    cp.save_corpus(corp, rec, voc)
    loaded = cp.load_corpus(rec, voc)
    assert [r.__dict__ for r in loaded.records] == \
           [r.__dict__ for r in corp.records]
    assert loaded.vocab.token_of == corp.vocab.token_of
    # record lines carry exactly the six documented fields
    line = json.loads(rec.read_text().splitlines()[0])
    assert sorted(line) == ["answer", "id", "paraphrases",
                            "perturbed_answers", "question", "split"]


# case -> (vocab.json document built from the saved one, what the error names)
_BAD_VOCABS = {
    "not_object": (lambda d: [d], "object"),
    "missing_tokens": (lambda d: {"specials": d["specials"]}, "'tokens'"),
    "missing_specials": (lambda d: {"tokens": d["tokens"]}, "'specials'"),
    "tokens_not_list": (lambda d: dict(d, tokens=5), "'tokens'"),
    "specials_not_object": (lambda d: dict(d, specials=[1]), "'specials'"),
    "token_not_string": (lambda d: dict(d, tokens=[[1]] + d["tokens"][1:]),
                         "'tokens'"),
    "special_missing": (lambda d: dict(d, specials={"bos": 0}),
                        "'specials'"),
    "eos_is_a_word": (lambda d: dict(d, specials=dict(d["specials"], eos=10)),
                      "'specials.eos' is 10.*'<eos>'"),
    "bos_is_eos_id": (lambda d: dict(d, specials=dict(d["specials"], bos=1)),
                      "'specials.bos' is 1.*'<bos>'"),
    "pad_negative": (lambda d: dict(d, specials=dict(d["specials"], pad=-1)),
                     "'specials.pad' is -1"),
    "sep_out_of_range": (lambda d: dict(d, specials=dict(d["specials"],
                                                         sep=600)),
                         "'specials.sep' is 600"),
    "duplicate_token": (lambda d: dict(d, tokens=d["tokens"] + ["all"]),
                        r"'tokens'\[\d+\] repeats 'all', the token at \[\d+\]"),
}


@pytest.mark.parametrize("case", list(_BAD_VOCABS))
def test_malformed_vocab_file_is_data_error(case, tmp_path, corp):
    make, match = _BAD_VOCABS[case]
    rec, voc = tmp_path / "c.jsonl", tmp_path / "v.json"
    cp.save_corpus(corp, rec, voc)
    voc.write_text(json.dumps(make(json.loads(voc.read_text()))))
    with pytest.raises(DataError, match=match) as err:
        cp.load_corpus(rec, voc)
    assert str(voc) in str(err.value)


# case -> (second record line's document built from the saved one, what the
# error names)
_BAD_RECORDS = {
    "not_object": (lambda d: [d], "malformed"),
    "missing_field": (lambda d: {k: v for k, v in d.items() if k != "answer"},
                      "'answer'"),
    "unknown_field": (lambda d: dict(d, bogus=1), "'bogus'"),
    "question_not_string": (lambda d: dict(d, question=5), "'question'"),
    "id_not_string": (lambda d: dict(d, id=None), "'id'"),
    "paraphrases_empty": (lambda d: dict(d, paraphrases=[]), "'paraphrases'"),
    "paraphrase_not_string": (lambda d: dict(d, paraphrases=[1]),
                              "'paraphrases'"),
    "perturbed_not_list": (lambda d: dict(d, perturbed_answers="x"),
                           "'perturbed_answers'"),
    "unknown_split": (lambda d: dict(d, split="forgett"), "'split'"),
}


@pytest.mark.parametrize("case", list(_BAD_RECORDS))
def test_malformed_corpus_record_is_data_error(case, tmp_path, corp):
    make, match = _BAD_RECORDS[case]
    rec, voc = tmp_path / "c.jsonl", tmp_path / "v.json"
    cp.save_corpus(corp, rec, voc)
    lines = rec.read_text().splitlines()
    lines[1] = json.dumps(make(json.loads(lines[1])))
    rec.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=match) as err:
        cp.load_corpus(rec, voc)
    assert f"{rec} line 2" in str(err.value)


def test_encode_roundtrip_and_eos(corp):
    v = corp.vocab
    for r in corp.records[:25]:
        toks = cp.encode(v, r.question)
        assert toks[-1] == v.eos
        assert all(0 <= t < len(v) for t in toks)
        assert cp.decode_text(v, toks) == cp.normalize(r.question)


def test_encode_empty_is_eos(corp):
    assert cp.encode(corp.vocab, "") == [corp.vocab.eos]


def test_encode_unknown_word_names_it(corp):
    with pytest.raises(VocabError, match="zzzgibberish"):
        cp.encode(corp.vocab, "zzzgibberish")


def test_whole_corpus_tokenizes(corp):
    v = corp.vocab
    for r in corp.records:
        for text in [r.question, r.answer, *r.paraphrases,
                     *r.perturbed_answers]:
            cp.encode(v, text)


def test_perturbed_answers_differ_only_at_value_slot(corp):
    v = corp.vocab
    for r in corp.records[:50]:
        ans = cp.encode(v, r.answer)
        for pert in r.perturbed_answers:
            pt = cp.encode(v, pert)
            assert len(pt) == len(ans)
            diffs = [i for i, (a, b) in enumerate(zip(ans, pt)) if a != b]
            assert len(diffs) == 1


def test_batches_partition_and_determinism(corp):
    retain = corp.split("retain")
    b1 = list(runner._shuffled_batches(retain, 48, seed=3, epoch=2))
    b2 = list(runner._shuffled_batches(retain, 48, seed=3, epoch=2))
    assert [[r.id for r in b] for b in b1] == [[r.id for r in b] for b in b2]
    assert len(b1) == -(-160 // 48)
    seen = [r.id for b in b1 for r in b]
    assert sorted(seen) == sorted(r.id for r in retain)
    b3 = list(runner._shuffled_batches(retain, 48, seed=3, epoch=3))
    assert [r.id for b in b3 for r in b] != seen


def test_batches_validation(corp, tiny_store):
    with pytest.raises(ConfigError):
        runner.train(tiny_store, corp.split("retain"), corp.vocab,
                     loss_retain, runner.RunConfig(batch_size=0))
    with pytest.raises(DataError):
        runner.train(tiny_store, [], corp.vocab, loss_retain,
                     runner.RunConfig())


def test_gen_config_validation():
    with pytest.raises(ConfigError):
        cp.generate_corpus(cp.GenConfig(forget_fraction=0.0), 0)
    # fractions that are valid but round to an empty forget or retain split
    with pytest.raises(ConfigError, match="0 forget"):
        cp.generate_corpus(cp.GenConfig(n_entities=4, forget_fraction=0.1), 0)
    with pytest.raises(ConfigError, match="0 retain"):
        cp.generate_corpus(cp.GenConfig(n_entities=3, forget_fraction=0.5,
                                        holdout_fraction=0.45), 0)
    with pytest.raises(ConfigError):
        cp.generate_corpus(cp.GenConfig(n_perturbed=2), 0)


def test_qa_pair_tokens_framing(corp):
    v = corp.vocab
    r = corp.records[0]
    prompt, resp = cp.qa_pair_tokens(v, r.question, r.answer)
    assert prompt[0] == v.bos and prompt[-1] == v.sep
    assert resp[-1] == v.eos
    assert v.eos not in prompt
