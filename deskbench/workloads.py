"""The four desk-pipeline workloads: set-up, one measured unit, and checks.

Each workload drives the runner's public stage functions on inputs made
from the workload seed and writes under its own work directory. A unit is
one pass of the measured phase; `run.py` runs a fixed number of units and
keeps the best. Every stage call and every output check is an operation in the
`Ledger` (run.py adds the set-up, each unit and the input properties), so a
stage that raises or a check that fails is counted rather than ending the
run.

Why each workload exists is recorded in deskbench/README.md.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from unlearnlab import corpus as cp
from unlearnlab import lm, runner
from unlearnlab.metrics import PER_SPLIT_FIELDS, harmonic_mean
from unlearnlab.objectives import LossConfig
from unlearnlab.optim import OptimizerConfig, SchedulerConfig

from spans import dir_bytes

DEFAULT_SEED = 11
CORPUS_REPEATS = 5
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Tolerances for the stored reference values. Values decided by hits
# (argmax, greedy tokens, counts) must agree exactly; floats to FLOAT_RTOL.
# The dynamics first-order errors are differences of nearly equal
# log-probabilities (about 1e-9 against values near -6), so an ulp of drift
# in either moves them by about 1e-6 relative; they get ERROR_RTOL.
EXACT = None
FLOAT_RTOL = 1e-6
ERROR_RTOL = 1e-3
# Desk answers have 8 to 10 tokens; 9 is the commonest length.
ANSWER_TOKENS = 9


@dataclass(frozen=True)
class Sizes:
    gen: dict
    arch: dict
    dyn_arch: dict
    reference_epochs: int
    finetune_epochs: int
    unlearn_epochs: int
    eval_records: int | None
    squeeze_epochs: int
    squeeze_prompts: int
    n_aug: int
    beam_width: int
    etas: tuple
    batch_size: int = 32


DESK_GEN = dict(n_entities=200, attributes_per_entity=1, forget_fraction=0.1,
                holdout_fraction=0.1, n_paraphrases=2, n_perturbed=3)

SIZES = {
    # Desk corpus and desk arch (167k parameters); dynamics on the capped
    # arch (vocab 512, d_model 8, 1 layer, 2 heads: about 9.3k parameters).
    "full": Sizes(
        gen=DESK_GEN,
        arch=dict(vocab_size=512, context_len=32, d_model=64, n_layers=2,
                  n_heads=4),
        dyn_arch=dict(vocab_size=512, context_len=32, d_model=8,
                      n_layers=1, n_heads=2),
        reference_epochs=10, finetune_epochs=2, unlearn_epochs=6,
        eval_records=20, squeeze_epochs=2, squeeze_prompts=5, n_aug=4,
        beam_width=15,
        etas=(1e-3, 5e-4, 2.5e-4)),
    # Harness check only: every stage, check and trace path in seconds.
    "smoke": Sizes(
        gen=dict(DESK_GEN, n_entities=12, forget_fraction=0.25,
                 holdout_fraction=0.25),
        arch=dict(vocab_size=400, context_len=32, d_model=16, n_layers=1,
                  n_heads=2),
        dyn_arch=dict(vocab_size=400, context_len=32, d_model=4,
                      n_layers=1, n_heads=2),
        reference_epochs=6, finetune_epochs=6, unlearn_epochs=2,
        eval_records=None, squeeze_epochs=1,
        squeeze_prompts=2, n_aug=1, beam_width=8, etas=(1e-3, 5e-4),
        batch_size=8),
}


class Ledger:
    """Operations attempted and failed: stage calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, what, fn, *args, **kwargs):
        """Run one stage; returns (result or None, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sys.stderr):
                result = fn(*args, **kwargs)
        except Exception:
            self.fail(what, traceback.format_exc())
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def checks(self, what, fn):
        """Run a group of output checks; each (ok, detail) that `fn`
        returns is one operation. If `fn` raises, that is one failure."""
        try:
            results = fn()
        except Exception:
            results = [(False, traceback.format_exc())]
        for ok, detail in results:
            self.attempted += 1
            if not ok:
                self.fail(what, detail)

    def fail(self, what, detail):
        self.failed += 1
        self.failures.append(f"{what}: {detail}")
        print(f"deskbench: FAILED {what}: {detail}", file=sys.stderr)


def _read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def _numbers(doc):
    """Every int/float inside a JSON-like document."""
    if isinstance(doc, bool):
        return
    if isinstance(doc, (int, float)):
        yield doc
    elif isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, (list, tuple)):
        for v in doc:
            yield from _numbers(v)


def _all_finite(values):
    bad = [v for v in values if not math.isfinite(v)]
    return not bad, f"{len(bad)} non-finite values"


class Workload:
    """Base: corpus set-up, stage configs, and the reference-value check."""

    name = ""
    needs_reference_model = False
    # Typical unit time on a 2-vCPU host; it only turns --seconds into a
    # unit count, so the count does not depend on the code being measured.
    unit_s = 1.0

    def __init__(self, sizes_name, seed, work: Path, ledger: Ledger):
        self.sizes_name = sizes_name
        self.sizes = SIZES[sizes_name]
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.corpus_path = work / "corpus.jsonl"
        self.vocab_path = work / "vocab.json"
        self.stage_bytes = {}

    # Set-up ------------------------------------------------------------------

    def setup(self):
        """Corpus set-up, then the reference finetune where the workload
        needs one. Returns the set-up seconds."""
        secs = self.setup_corpus()
        if self.needs_reference_model:
            _, ref_s = self.stage("reference finetune", runner.run_finetune,
                                  self.finetune_config(
                                      "reference",
                                      self.sizes.reference_epochs))
            self.reference = self.work / "reference" / "ckpt_final.json"
            secs += ref_s
        return secs

    def setup_corpus(self):
        """Generate, write and load the corpus CORPUS_REPEATS times; returns
        the median time. The first pass in a process runs cold."""
        self.work.mkdir(parents=True, exist_ok=True)
        times = []
        for _ in range(CORPUS_REPEATS):
            t0 = time.perf_counter()
            corp = cp.generate_corpus(cp.GenConfig(**self.sizes.gen),
                                      self.seed)
            corp = self.prepare_corpus(corp)
            cp.save_corpus(corp, self.corpus_path, self.vocab_path)
            self.corpus = cp.load_corpus(self.corpus_path, self.vocab_path)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def prepare_corpus(self, corp):
        return corp

    def run_config(self, out, **kw):
        base = dict(corpus_path=str(self.corpus_path),
                    vocab_path=str(self.vocab_path),
                    arch=lm.ArchConfig(**self.sizes.arch),
                    batch_size=self.sizes.batch_size, seed=self.seed,
                    out_dir=str(self.work / out))
        base.update(kw)
        return runner.RunConfig(**base)

    def finetune_config(self, out, epochs):
        """Desk finetune (as the acceptance config), shortened."""
        return self.run_config(
            out, optimizer=OptimizerConfig(lr=1e-3, weight_decay=0.01),
            scheduler=SchedulerConfig(kind="linear", warmup_fraction=0.05),
            epochs=epochs, loss=LossConfig(kind="ga"),
            checkpoint_every=epochs)

    def stage(self, what, fn, config, *args, **kwargs):
        result, secs = self.ledger.call(what, fn, config, *args, **kwargs)
        self.stage_bytes[what] = dir_bytes(config.out_dir)
        return result, secs

    # Checks ------------------------------------------------------------------

    def check_all(self, record_reference=False):
        values = {}
        self.ledger.checks(f"{self.name} outputs",
                           lambda: self.checks(values))
        if record_reference:
            self._record_reference(values)
        elif self.seed == DEFAULT_SEED:
            self.ledger.checks(f"{self.name} reference values",
                               lambda: [self._compare_reference(values)])

    def checks(self, values):
        """Workload checks as a list of (ok, detail); fills `values` with
        name -> (value, relative tolerance or EXACT) for the reference
        comparison."""
        raise NotImplementedError

    def _ref_key(self):
        return f"{self.sizes_name}/{self.name}"

    def _record_reference(self, values):
        doc = (json.loads(REFERENCE_FILE.read_text())
               if REFERENCE_FILE.exists() else {})
        doc[self._ref_key()] = {
            "seed": self.seed,
            "values": {k: {"value": v, "rtol": tol}
                       for k, (v, tol) in sorted(values.items())}}
        REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")

    def _compare_reference(self, values):
        doc = json.loads(REFERENCE_FILE.read_text())[self._ref_key()]
        stored = doc["values"]
        bad = []
        for key, ref in stored.items():
            if key not in values:
                bad.append(f"{key}: missing")
                continue
            got = values[key][0]
            want = ref["value"]
            if ref["rtol"] is EXACT:
                same = got == want
            else:
                same = math.isclose(got, want, rel_tol=ref["rtol"],
                                    abs_tol=0.0)
            if not same:
                bad.append(f"{key}: got {got!r}, reference {want!r}")
        return not bad, "; ".join(bad) or f"{len(stored)} values match"

    def properties(self):
        return {"stage_out_bytes": dict(self.stage_bytes)}


def _answer_tokens(corp, record):
    return len(cp.encode(corp.vocab, record.answer))


def _loss_rows(path):
    rows = _read_csv(path)
    return [{k: float(v) for k, v in r.items()} for r in rows]


def _terms_sum(rows):
    worst = max(abs(r["forget_term"] + r["retain_term"] + r["aug_term"]
                    - r["total"]) / max(1.0, abs(r["total"])) for r in rows)
    return worst <= 1e-12, f"worst relative term-sum error {worst:.3g}"


class Train(Workload):
    """Finetune from the seeded init, then bst unlearning with retain."""

    name = "train"
    unit_s = 3.0

    def unlearn_config(self, out):
        """Acceptance unlearn config (bst, lambda_retain 3), shortened."""
        epochs = self.sizes.unlearn_epochs
        return self.run_config(
            out, optimizer=OptimizerConfig(lr=1e-4, weight_decay=0.01),
            scheduler=SchedulerConfig(kind="constant", warmup_fraction=0.0),
            epochs=epochs, checkpoint_every=epochs,
            loss=LossConfig(kind="bst", lambda_bst=0.2, k=10,
                            lambda_retain=3.0))

    def unit(self):
        ft_cfg = self.finetune_config("finetune", self.sizes.finetune_epochs)
        _, ft_s = self.stage("finetune", runner.run_finetune, ft_cfg)
        un_cfg = self.unlearn_config("unlearn")
        _, un_s = self.stage("unlearn", runner.run_unlearn, un_cfg,
                             Path(ft_cfg.out_dir) / "ckpt_final.json")
        self.ft_rows = _loss_rows(self.work / "finetune" / "losses.csv")
        self.un_rows = _loss_rows(self.work / "unlearn" / "losses.csv")
        return {"wall_s": ft_s + un_s, "finetune_s": ft_s,
                "unlearn_s": un_s,
                "finetune_steps_per_s": len(self.ft_rows) / ft_s,
                "unlearn_steps_per_s": len(self.un_rows) / un_s}

    def checks(self, values):
        ft, un = self.ft_rows, self.un_rows
        per_epoch = len(ft) // self.sizes.finetune_epochs
        first = statistics.fmean(r["retain_term"] for r in ft[:per_epoch])
        last = statistics.fmean(r["retain_term"] for r in ft[-per_epoch:])
        results = [
            _all_finite([v for r in ft + un for v in r.values()]),
            _terms_sum(ft), _terms_sum(un),
            (last < first, f"finetune NLL first epoch {first:.4f}, "
                           f"last {last:.4f}"),
        ]
        values.update({
            "finetune.steps": (len(ft), EXACT),
            "unlearn.steps": (len(un), EXACT),
            "finetune.last_epoch_nll": (last, FLOAT_RTOL),
            "unlearn.last_total": (un[-1]["total"], FLOAT_RTOL),
            "unlearn.last_forget_term": (un[-1]["forget_term"], FLOAT_RTOL),
            "unlearn.last_aug_term": (un[-1]["aug_term"], FLOAT_RTOL),
            "unlearn.last_retain_term": (un[-1]["retain_term"], FLOAT_RTOL),
        })
        return results

    def properties(self):
        return dict(super().properties(),
                    finetune_steps=len(self.ft_rows),
                    unlearn_steps=len(self.un_rows),
                    records={s: len(self.corpus.split(s))
                             for s in ("forget", "retain", "holdout")})


# Hit-based fields: decided by argmax hits or greedy tokens, so exact.
EXACT_FIELDS = {"exact_mem", "extraction_strength", "rouge_l", "degeneracy"}


class Eval(Workload):
    """run_eval over the seeded init and the reference finetune, on a
    seeded slice of the desk corpus."""

    name = "eval"
    unit_s = 1.8
    needs_reference_model = True

    def setup(self):
        secs = super().setup()
        self.init_ckpt = self.work / "init.json"
        self.eval_corpus_path = self.work / "eval_corpus.jsonl"
        t0 = time.perf_counter()
        lm.save_checkpoint(lm.init_model(lm.ArchConfig(**self.sizes.arch),
                                         self.seed), self.init_ckpt)
        self.eval_records = self.eval_slice()
        cp.save_corpus(cp.Corpus(self.eval_records, self.corpus.vocab,
                                 self.corpus.gen_config, self.corpus.seed),
                       self.eval_corpus_path, self.vocab_path)
        return secs + time.perf_counter() - t0

    def eval_slice(self):
        """`eval_records` records drawn from the seed, each split keeping
        its share of the corpus; the whole corpus when it is None.

        A full 200-record eval takes about 15 s, one unit per run, and that
        one figure moved with the host's slow phases; a 20-record slice
        lets a run keep the best of several units. The slice takes answers
        of ANSWER_TOKENS tokens where a split has enough of them: extraction
        strength decodes up to |y| prefixes per record, so a slice of mixed
        8- to 10-token answers would swing the work from seed to seed.
        """
        n = self.sizes.eval_records
        if n is None:
            return list(self.corpus.records)
        rng = random.Random(self.seed)
        share = n / len(self.corpus.records)
        picked = []
        for split in ("forget", "retain", "holdout"):
            records = self.corpus.split(split)
            k = max(1, round(len(records) * share))
            same = [r for r in records if _answer_tokens(self.corpus, r)
                    == ANSWER_TOKENS]
            picked += rng.sample(same if len(same) >= k else records, k)
        return picked

    def unit(self):
        cfg = self.run_config("eval", corpus_path=str(self.eval_corpus_path))
        self.reports, secs = self.stage(
            "eval", runner.run_eval, cfg, [self.init_ckpt, self.reference],
            ref_checkpoint=self.reference, judge_mode="mock")
        n = len(self.eval_records) * 2
        return {"wall_s": secs, "eval_records_per_s": n / secs}

    def checks(self, values):
        init, ref = self.reports
        results = [_all_finite(list(_numbers(self.reports)))]
        for stem, doc in (("init", init), ("reference", ref)):
            unit_vals = [v for split in doc["per_split"].values()
                         for v in split.values()]
            unit_vals += [doc["memorization"], doc["utility"],
                          doc["aggregate"]]
            results.append((all(0.0 <= v <= 1.0 for v in unit_vals),
                            f"{stem}: metric outside [0, 1]"))
            judge = [doc["judge"]["similarity"], doc["judge"]["naturalness"]]
            results.append((all(0.0 <= v <= 5.0 for v in judge)
                            and doc["judge"]["errors"] == 0,
                            f"{stem}: judge scores {judge}"))
            hm = harmonic_mean([doc["memorization"], doc["utility"]])
            results.append((abs(doc["aggregate"] - hm) <= 1e-9,
                            f"{stem}: aggregate {doc['aggregate']!r} vs "
                            f"HM {hm!r}"))
            for split, vals in doc["per_split"].items():
                for k in PER_SPLIT_FIELDS:
                    tol = EXACT if k in EXACT_FIELDS else FLOAT_RTOL
                    values[f"{stem}.{split}.{k}"] = (vals[k], tol)
            for k in ("memorization", "utility", "aggregate"):
                values[f"{stem}.{k}"] = (doc[k], FLOAT_RTOL)
            for k in ("similarity", "naturalness"):
                values[f"{stem}.judge.{k}"] = (doc["judge"][k], EXACT)
        ratios = ref["relative_to_ref"]
        results.append((all(v == 1.0 for v in ratios.values()),
                         f"reference against itself: {ratios}"))
        return results

    def properties(self):
        props = super().properties()
        if getattr(self, "reports", None):
            props["exact_mem"] = {
                stem: {s: doc["per_split"][s]["exact_mem"]
                       for s in ("forget", "retain")}
                for stem, doc in zip(("init", "reference"), self.reports)}
        props["records_per_checkpoint"] = len(self.eval_records)
        return props


class Squeeze(Workload):
    """bss unlearning with per-epoch snapshots, then beam candidate traces."""

    name = "squeeze"
    unit_s = 3.5
    needs_reference_model = True

    def squeeze_config(self):
        s = self.sizes
        return self.run_config(
            "squeeze", optimizer=OptimizerConfig(lr=1e-4, weight_decay=0.01),
            scheduler=SchedulerConfig(kind="constant", warmup_fraction=0.0),
            epochs=s.squeeze_epochs, checkpoint_every=s.squeeze_epochs,
            loss=LossConfig(kind="bss", base_loss="bst", lambda_bss=0.6,
                            n_aug=s.n_aug, tau=1.0, lambda_bst=0.2, k=10),
            squeeze_prompts=s.squeeze_prompts, beam_width=s.beam_width,
            squeeze_max_len=12)

    def unit(self):
        _, secs = self.stage("squeeze", runner.run_squeeze,
                             self.squeeze_config(), self.reference)
        return {"wall_s": secs, "squeeze_s": secs}

    def checks(self, values):
        out = self.work / "squeeze"
        bands = _read_csv(out / "bands.csv")
        per_prompt = _read_csv(out / "bands_per_prompt.csv")
        cands = {}
        for r in per_prompt:
            if r["epoch"] == "0":
                cands[r["prompt_id"]] = (cands.get(r["prompt_id"], 0)
                                         + int(r["n_candidates"]))
        self.candidates = cands
        total = sum(cands.values())
        epochs = self.sizes.squeeze_epochs
        sums = {}
        for r in bands:
            sums[r["epoch"]] = sums.get(r["epoch"], 0) + int(r["n_candidates"])
        losses = _loss_rows(out / "losses.csv")
        results = [
            _all_finite([float(r["mean_logprob"]) for r in bands + per_prompt]
                        + [v for r in losses for v in r.values()]),
            (len(bands) == (epochs + 1) * 3,
             f"bands.csv has {len(bands)} rows, want {(epochs + 1) * 3}"),
            (set(sums.values()) == {total},
             f"band sizes per epoch {sums} vs {total} candidates"),
            (len(cands) == self.sizes.squeeze_prompts,
             f"{len(cands)} prompts traced"),
        ]
        values["candidates_per_prompt"] = (sorted(cands.values()), EXACT)
        for r in bands:
            values[f"bands.{r['epoch']}.{r['band']}.n"] = (
                int(r["n_candidates"]), EXACT)
            values[f"bands.{r['epoch']}.{r['band']}.mean_logprob"] = (
                float(r["mean_logprob"]), FLOAT_RTOL)
        return results

    def properties(self):
        return dict(super().properties(),
                    beam_candidates_per_prompt=getattr(self, "candidates",
                                                       None))


class Dynamics(Workload):
    """run_dynamics from the seeded init on the parameter-capped arch."""

    name = "dynamics"
    unit_s = 18.0

    def prepare_corpus(self, corp):
        """Put a seeded pick among 9-token forget answers first.

        run_dynamics probes only the first forget record, and its answer
        length sets the work (one Jacobian row per vocab entry per answer
        position per eta). Desk answers have 8 to 10 tokens, so without
        this the work would swing by a tenth from seed to seed.
        """
        forget = [r for r in corp.records if r.split == "forget"
                  and _answer_tokens(corp, r) == ANSWER_TOKENS]
        if not forget:
            return corp
        pick = forget[self.seed % len(forget)]
        corp.records = [pick] + [r for r in corp.records if r is not pick]
        return corp

    def unit(self):
        cfg = self.run_config("dynamics",
                              arch=lm.ArchConfig(**self.sizes.dyn_arch),
                              loss=LossConfig(kind="ga"))
        doc, secs = self.stage("dynamics", runner.run_dynamics, cfg,
                               etas=self.sizes.etas)
        # Keep only what the checks read: holding the whole document (about
        # as large as the report) into the next unit would double peak RSS.
        self.doc = doc and {
            "slope": doc["slope"], "etas": doc["etas"],
            "errors": [r["max_first_order_error"] for r in doc["reports"]],
            "positions": len(doc["reports"][0]["positions"])}
        return {"wall_s": secs, "dynamics_s": secs}

    def checks(self, values):
        doc = self.doc
        # The report is about 100 MB; parsing it would dwarf the stage's
        # own memory, so only its tail (where sort_keys puts "slope") is read.
        path = self.work / "dynamics" / "dynamics_report.json"
        with open(path, "rb") as f:
            f.seek(max(0, path.stat().st_size - 200))
            tail = f.read().decode()
        errs = doc["errors"]
        results = [
            _all_finite([doc["slope"]] + errs),
            (doc["slope"] >= 1.7, f"eta slope {doc['slope']:.4f} (>= 1.7)"),
            (f'"slope": {doc["slope"]!r}}}' in tail,
             "report file does not end with the returned slope"),
        ]
        values["slope"] = (doc["slope"], FLOAT_RTOL)
        for eta, err in zip(doc["etas"], errs):
            values[f"max_first_order_error@{eta}"] = (err, ERROR_RTOL)
        values["positions"] = (doc["positions"], EXACT)
        return results

    def properties(self):
        props = super().properties()
        props["params"] = lm.init_model(
            lm.ArchConfig(**self.sizes.dyn_arch), 0).param_count()
        if getattr(self, "doc", None):
            props["answer_positions"] = self.doc["positions"]
            props["slope"] = self.doc["slope"]
        return props


WORKLOADS = {w.name: w for w in (Train, Eval, Squeeze, Dynamics)}
