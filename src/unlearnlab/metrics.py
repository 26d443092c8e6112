"""Desk-scale evaluation suite.

Per-record scores (ROUGE-L F1, normalized probability, exact memorization,
extraction strength, truth ratio, degeneracy) are averaged per split and
folded into three harmonic-mean composites:

* memorization (forget split): HM(1-ES, 1-EM, 1-ParaProb, max(0, 1-r))
  with r the perturbed/correct normalized-probability ratio. Higher means
  the forget answers are less strongly parameterized; absolute values are
  a local contract, not comparable to published benchmark tables.
* utility: HM(retain composite, holdout composite, fluency proxy), each
  split composite being HM(norm_prob, rouge_l of the greedy answer,
  inverted truth ratio). Fluency is 1 - degeneracy of greedy generations
  on forget prompts: a heuristic stand-in for a gibberish classifier.
* aggregate: HM(memorization, utility).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import lm
from .errors import ContractError, DataError

PER_SPLIT_FIELDS = ("rouge_l", "norm_prob", "para_prob", "exact_mem",
                    "extraction_strength", "truth_ratio_inv", "degeneracy")
GEN_MAX_LEN = 16  # greedy tokens generated per record


def lcs_length(a, b) -> int:
    """Quadratic DP longest common subsequence length."""
    a, b = list(a), list(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_l_f1(ref, hyp) -> float:
    """F1 over the longest common subsequence; 0 when hyp is empty."""
    ref, hyp = list(ref), list(hyp)
    if not ref:
        raise DataError("reference must be non-empty")
    if not hyp:
        return 0.0
    l = lcs_length(ref, hyp)
    if l == 0:
        return 0.0
    p = l / len(hyp)
    r = l / len(ref)
    return 2 * p * r / (p + r)


class TeacherForced(NamedTuple):
    """Scores of one (prompt, answer) pair from its teacher-forced forward."""
    norm_prob: float
    exact_mem: float
    extraction_strength: float


def teacher_forced_scores(store: lm.ParamStore, pairs) -> list[TeacherForced]:
    """Normalized probability, exact memorization and extraction strength of
    each (prompt, answer) pair, from one forward of prompt + answer.

    The rows come from `lm.response_logits`, so every value equals the one
    a single-pair forward gives.

    Extraction strength needs no decoding. A greedy continuation of
    prompt + answer[:k] reproduces answer[k:] exactly when the teacher-forced
    greedy choice hits every answer position from k on, so k* is |y| minus
    the trailing run of hits. The greedy choice is the log-softmax argmax,
    lowest id on ties, as in `lm.decode_batch`; exact memorization keeps its
    logit argmax (subtracting the log-normalizer can round two logits to one
    value).
    """
    pairs = [(list(p), list(a)) for p, a in pairs]
    if not all(a for _, a in pairs):
        raise DataError("answer must be non-empty")
    out: list[TeacherForced | None] = [None] * len(pairs)
    for i, logits in lm.response_logits(store, pairs):
        ans = np.asarray(pairs[i][1])
        n = ans.size
        lp = ad.arrays.log_softmax(logits)
        logprob = float(lp[np.arange(n), ans].sum())
        hits = (lp.argmax(axis=-1) == ans).tolist()
        k = n
        while k > 0 and hits[k - 1]:
            k -= 1
        out[i] = TeacherForced(
            norm_prob=float(np.exp(logprob / n)),
            exact_mem=float((logits.argmax(axis=-1) == ans).mean()),
            # As the decode loop computed it: (n - k) / n can differ
            # from 1 - k / n in the last ulp.
            extraction_strength=1.0 - k / n)
    return out


def truth_ratio(correct: float, perturbed: list[float]) -> tuple[float, float]:
    """r = mean perturbed normalized prob / correct normalized prob.

    Returns (r, max(0, 1 - r)). The inverted form sits near 1 while the
    correct answer dominates its perturbations and falls toward 0 as they
    even out.
    """
    if not perturbed:
        raise DataError("need at least one perturbed answer")
    r = float(np.mean(perturbed) / correct)
    return r, max(0.0, 1.0 - r)


def degeneracy_score(tokens) -> float:
    """max(consecutive-run score, repeated-bigram score), both in [0, 1].

    Run score: (longest identical run - 1) / (n - 1).
    Bigram score: 1 - distinct bigrams / total bigrams.
    Single-token sequences score 0 (no repetition evidence).
    """
    tokens = list(tokens)
    if not tokens:
        raise DataError("tokens must be non-empty")
    n = len(tokens)
    if n == 1:
        return 0.0
    longest = run = 1
    for a, b in zip(tokens, tokens[1:]):
        run = run + 1 if a == b else 1
        longest = max(longest, run)
    run_score = (longest - 1) / (n - 1)
    bigrams = list(zip(tokens, tokens[1:]))
    bigram_score = 1.0 - len(set(bigrams)) / len(bigrams)
    return max(run_score, bigram_score)


def harmonic_mean(values) -> float:
    """n / sum(1/v); 0 when any value is 0; negatives are a contract error."""
    values = [float(v) for v in values]
    if not values:
        raise DataError("harmonic_mean needs at least one value")
    if any(v < 0 for v in values):
        raise ContractError("harmonic_mean inputs must be >= 0")
    if any(v == 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


# Whole-model evaluation ------------------------------------------------------


def _strip_specials(vocab: cp.Vocabulary, tokens):
    special = set(vocab.specials.values())
    return [t for t in tokens if t not in special]


def _split_records(corp: cp.Corpus, splits=cp.SPLITS):
    records = {split: corp.split(split) for split in splits}
    for split, recs in records.items():
        if not recs:
            raise DataError(f"corpus is missing split {split!r}")
    return records


def score_records(store: lm.ParamStore, vocab: cp.Vocabulary, records):
    """Per-record scores (a dict of PER_SPLIT_FIELDS each) and the raw greedy
    generations behind ROUGE-L and degeneracy.

    Every teacher-forced pair of every record goes through one
    `teacher_forced_scores` call: prompt + answer, paraphrase + answer (both
    the paraphrase probability and the truth-ratio denominator) and
    paraphrase + each perturbed answer. Generation is one greedy
    `lm.decode_batch`.
    """
    prompts, answers, pairs = [], [], []
    for rec in records:
        prompt, answer = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
        para_prompt, _ = cp.qa_pair_tokens(vocab, rec.paraphrases[0],
                                           rec.answer)
        prompts.append(prompt)
        answers.append(answer)
        pairs += [(prompt, answer), (para_prompt, answer)]
        pairs += [(para_prompt, cp.encode(vocab, a))
                  for a in rec.perturbed_answers]
    scores = teacher_forced_scores(store, pairs)
    gens = [toks for toks, _ in lm.decode_batch(
        store, prompts, GEN_MAX_LEN, eos_id=vocab.eos)]
    rows, at = [], 0
    for rec, answer, gen in zip(records, answers, gens):
        main, para = scores[at], scores[at + 1]
        end = at + 2 + len(rec.perturbed_answers)
        _, tr_inv = truth_ratio(para.norm_prob,
                                [s.norm_prob for s in scores[at + 2:end]])
        at = end
        rows.append({
            "rouge_l": rouge_l_f1(_strip_specials(vocab, answer),
                                  _strip_specials(vocab, gen)),
            "norm_prob": main.norm_prob,
            "para_prob": para.norm_prob,
            "exact_mem": main.exact_mem,
            "extraction_strength": main.extraction_strength,
            "truth_ratio_inv": tr_inv,
            "degeneracy": degeneracy_score(gen),
        })
    return rows, gens


def reference_norm_probs(ref_store: lm.ParamStore,
                         corp: cp.Corpus) -> dict[str, float]:
    """Mean retain and holdout normalized probability under the reference
    (pre-unlearning) store: the denominators `evaluate_model` divides by.
    Computed once, they serve every checkpoint of a run."""
    records = _split_records(corp, ("retain", "holdout"))
    pairs = [cp.qa_pair_tokens(corp.vocab, r.question, r.answer)
             for recs in records.values() for r in recs]
    probs = [s.norm_prob for s in teacher_forced_scores(ref_store, pairs)]
    out, at = {}, 0
    for split, recs in records.items():
        out[split] = float(np.mean(probs[at:at + len(recs)]))
        at += len(recs)
    return out


def evaluate_model(store: lm.ParamStore, corp: cp.Corpus,
                   ref_norm_probs: dict[str, float] | None = None
                   ) -> tuple[dict, list[list[int]]]:
    """Full metric sweep over all three splits plus the HM composites.

    Returns `(doc, forget_generations)`: `doc` is the metrics document
    (`per_split`, `memorization`, `utility`, `aggregate`), and the raw
    greedy tokens of each forget record are what the judge reads. With
    `ref_norm_probs` (from `reference_norm_probs` of the pre-unlearning
    checkpoint), `doc` also carries the retain/holdout normalized-
    probability ratios against it under `relative_to_ref`, which is what
    the degradation gates read.
    """
    vocab = corp.vocab
    by_split = _split_records(corp)
    rows, gens = score_records(
        store, vocab, [r for recs in by_split.values() for r in recs])
    per_split, at = {}, 0
    for split, recs in by_split.items():
        part = rows[at:at + len(recs)]
        at += len(recs)
        per_split[split] = {k: float(np.mean([row[k] for row in part]))
                            for k in PER_SPLIT_FIELDS}

    f = per_split["forget"]
    memorization = harmonic_mean([
        1.0 - f["extraction_strength"],
        1.0 - f["exact_mem"],
        1.0 - f["para_prob"],
        f["truth_ratio_inv"],
    ])
    fluency = 1.0 - f["degeneracy"]
    composites = {
        split: harmonic_mean([per_split[split]["norm_prob"],
                              per_split[split]["rouge_l"],
                              per_split[split]["truth_ratio_inv"]])
        for split in ("retain", "holdout")
    }
    utility = harmonic_mean([composites["retain"], composites["holdout"],
                             fluency])
    doc = {"per_split": per_split, "memorization": float(memorization),
           "utility": float(utility),
           "aggregate": float(harmonic_mean([memorization, utility]))}
    if ref_norm_probs is not None:
        doc["relative_to_ref"] = {
            f"{split}_norm_prob_ratio":
                (per_split[split]["norm_prob"] / ref_norm_probs[split]
                 if ref_norm_probs[split] > 0 else float("inf"))
            for split in ("retain", "holdout")
        }
    return doc, gens[:len(by_split["forget"])]
