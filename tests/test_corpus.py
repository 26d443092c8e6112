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
    with pytest.raises(ConfigError):
        cp.generate_corpus(cp.GenConfig(n_perturbed=2), 0)
    with pytest.raises(ConfigError):
        cp.generate_corpus(cp.GenConfig(template_set="nope"), 0)


def test_unknown_template_slot_is_config_error():
    cp.TEMPLATE_SETS["broken"] = {
        "color": {"question": "what {gizmo} ?", "paraphrases": ["x {name}"],
                  "answer": "{name} is {value}"}}
    try:
        with pytest.raises(ConfigError):
            cp.generate_corpus(cp.GenConfig(template_set="broken"), 0)
    finally:
        del cp.TEMPLATE_SETS["broken"]


def test_qa_pair_tokens_framing(corp):
    v = corp.vocab
    r = corp.records[0]
    prompt, resp = cp.qa_pair_tokens(v, r.question, r.answer)
    assert prompt[0] == v.bos and prompt[-1] == v.sep
    assert resp[-1] == v.eos
    assert v.eos not in prompt
