"""Config-driven orchestration: finetune / retrain, unlearning with any
objective, checkpoint evaluation, dynamics checks, and squeeze traces.

One trainer mutates the live parameter store; everything else works on
snapshots. All outputs land under the run's out_dir and every run is
reproducible from its manifest (config + seed + corpus file): output files
carry no timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import beliefs, corpus as cp, dynamics, judge as jd, metrics as mt
from . import lm, objectives as ob, schema
from .errors import ConfigError, DataError, JudgeUnavailableError
from .optim import AdamW, OptimizerConfig, SchedulerConfig, lr_at

ARTIFACT_VERSION = "0.7.0"
# The most logits one decode step may hold: `beam_width` rows of a squeeze
# trace's beam, or `batch_size * loss.n_aug` rows of bss sampling, times the
# vocab. 80 MB; 122x the repo's largest (batch 32 x n_aug 5 x vocab 512).
MAX_DECODE_LOGITS = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    corpus_path: str = "corpus.jsonl"
    vocab_path: str = "vocab.json"
    arch: lm.ArchConfig = field(default_factory=lambda: desk_arch())
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    epochs: int = 200
    batch_size: int = 32
    loss: ob.LossConfig = field(default_factory=ob.LossConfig)
    seed: int = 0
    checkpoint_every: int = 50
    out_dir: str = "run"
    # squeeze-trace knobs
    squeeze_prompts: int = 10
    beam_width: int = 15
    squeeze_max_len: int = 12

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        for name in ("squeeze_prompts", "beam_width", "squeeze_max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        logits = (max(self.beam_width, self.batch_size * self.loss.n_aug)
                  * self.arch.vocab_size)
        if logits > MAX_DECODE_LOGITS:
            raise ConfigError(
                f"beam_width={self.beam_width}, batch_size={self.batch_size} "
                f"and loss.n_aug={self.loss.n_aug} at arch.vocab_size="
                f"{self.arch.vocab_size} make {logits} logits per decode "
                f"step, above the cap {MAX_DECODE_LOGITS}")

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return schema.read(cls, doc, "run config", ConfigError)


def desk_arch() -> lm.ArchConfig:
    """Desk-scale default: small enough to train on a CPU in minutes, big
    enough to memorize a 200-entity corpus."""
    return lm.ArchConfig(vocab_size=512, context_len=32, d_model=64,
                         n_layers=2, n_heads=4, tie_output_head=False)


# Sweep presets: grid ranges for each objective's knobs.
PRESET_GRIDS = {
    "graddiff": {"loss.lambda_retain": [0.5, 0.8, 1, 2, 5, 7, 10]},
    "npo": {"loss.beta": [0.05, 0.1, 0.5, 1], "loss.lambda_retain": [1, 2, 5]},
    "wga": {"loss.alpha": [0.05, 0.1, 0.5, 1, 5, 7],
            "loss.lambda_retain": [1, 2, 5]},
    "bst": {"loss.lambda_bst": [0.1, 0.2, 0.3, 0.5, 0.6],
            "loss.k": [5, 10, 20, 30, 50]},
    "bss": {"loss.lambda_bss": [0.2, 0.3, 0.4, 0.6, 0.8],
            "loss.n_aug": [1, 2, 3, 4, 5]},
}


# IO helpers ------------------------------------------------------------------


def make_out_dir(out_dir: str) -> Path:
    """`out_dir` as a Path, created with its parents when missing; a path
    that cannot be made a directory (a file, or under one) is a ConfigError."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_dir {out_dir}: {e.strerror}") from None
    return out


def _write_csv(path, header, rows):
    with lm.atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def load_run_corpus(config: RunConfig) -> cp.Corpus:
    corp = cp.load_corpus(config.corpus_path, config.vocab_path)
    _check_corpus_fits(corp, config.arch)
    return corp


def _check_corpus_fits(corp: cp.Corpus, arch: lm.ArchConfig):
    if len(corp.vocab) > arch.vocab_size:
        raise DataError(
            f"corpus vocabulary ({len(corp.vocab)}) exceeds model vocab "
            f"({arch.vocab_size})")
    longest = max((len(p) + len(a) for p, a in _pairs(corp.vocab,
                                                      corp.records)),
                  default=0)
    if longest > arch.context_len:
        raise DataError(
            f"longest prompt+answer ({longest}) exceeds context "
            f"({arch.context_len})")


def _pairs(vocab, records) -> list[ob.Pair]:
    return [cp.qa_pair_tokens(vocab, r.question, r.answer) for r in records]


def _shuffled_batches(items, batch_size, seed, epoch):
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(items))
    for start in range(0, len(items), batch_size):
        yield [items[i] for i in order[start:start + batch_size]]


def _endless_batches(items, batch_size, seed):
    for epoch in itertools.count():
        yield from _shuffled_batches(items, batch_size, seed, epoch)


# Training --------------------------------------------------------------------

# glibc's mallopt parameters (malloc.h) and the size below which a freed
# block stays in the process.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 256 << 20

# The most optimizer steps (epochs times batches) one run may take, 700x the
# desk finetune's 1400: a mistyped `epochs` is refused, not run for ever.
MAX_TRAIN_STEPS = 1_000_000


@functools.cache
def _keep_freed_blocks():
    """Keep the memory a training step frees inside the process, so that
    the next step reuses it instead of faulting fresh pages in.

    On glibc, blocks up to 256 MB come from the heap rather than from a
    mapping of their own (M_MMAP_THRESHOLD), and the heap's free top goes
    back to the kernel only beyond 256 MB (M_TRIM_THRESHOLD). The setting
    is process-wide and lasts for the life of the process. Where libc has
    no `mallopt`, nothing changes. Allocation moves addresses only, never
    values.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


def train(store: lm.ParamStore, records, vocab, loss_fn, config: RunConfig,
          on_epoch=None) -> list[tuple]:
    """The training loop of every run: AdamW on `loss_fn(store, pairs)`
    over shuffled batches of `records`, updating `store` in place.

    Each record is encoded once per call; the batches shuffle the encoded
    pairs. A step's loss graph and gradients are dropped before the next
    step builds its own, so one graph is alive at a time, and the first
    call keeps freed blocks in the process (`_keep_freed_blocks`, which
    sets glibc's thresholds for the whole process).

    Calls `on_epoch(epochs_done)` after each epoch and returns the losses.csv
    rows. A non-finite loss or gradient raises ConfigError naming the step,
    before that step changes the parameters; so does a run of more than
    MAX_TRAIN_STEPS steps, before the first.
    """
    if not records:
        raise DataError("no records to train on (empty split?)")
    total_steps = config.epochs * -(-len(records) // config.batch_size)
    if total_steps > MAX_TRAIN_STEPS:
        raise ConfigError(f"epochs={config.epochs} makes {total_steps} "
                          f"optimizer steps, above the cap {MAX_TRAIN_STEPS}")
    _keep_freed_blocks()
    pairs = _pairs(vocab, records)
    opt = AdamW(store.entries, config.optimizer)
    rows = []
    for epoch in range(config.epochs):
        for batch in _shuffled_batches(pairs, config.batch_size,
                                       config.seed, epoch):
            step = len(rows)
            lv = loss_fn(store, batch)
            names = sorted(lv.param_tensors)
            grads = ad.grad(lv.scalar, [lv.param_tensors[n] for n in names])
            if not (math.isfinite(lv.value)
                    and all(np.isfinite(g).all() for g in grads)):
                raise ConfigError(
                    f"loss or gradient is not finite at step {step}")
            opt.step(dict(zip(names, grads)),
                     lr_at(config.scheduler, config.optimizer.lr, step,
                           total_steps))
            d = lv.diagnostics
            rows.append((step, d["forget_term"], d["retain_term"],
                         d["aug_term"], lv.value))
            del lv, grads
        if on_epoch is not None:
            on_epoch(epoch + 1)
    return rows


def _train_and_write(config: RunConfig, store, records, vocab, loss_fn,
                     label: str, snapshots=None) -> dict:
    """Run `train`, writing periodic and final checkpoints, losses.csv and
    the manifest under `config.out_dir`, and return the manifest; appends a
    copy of `store` to `snapshots`, when given, after each epoch."""
    t0 = time.time()
    out = make_out_dir(config.out_dir)
    ckpts = []

    def epoch_end(done):
        if snapshots is not None:
            snapshots.append(store.snapshot())
        if done % config.checkpoint_every == 0:
            name = f"ckpt_{done:04d}.json"
            lm.save_checkpoint(store, out / name)
            ckpts.append(name)

    rows = train(store, records, vocab, loss_fn, config, epoch_end)
    lm.save_checkpoint(store, out / "ckpt_final.json")
    ckpts.append("ckpt_final.json")
    _write_csv(out / "losses.csv",
               ["step", "forget_term", "retain_term", "aug_term", "total"],
               rows)
    return _finish_manifest(config, out, label, t0, ckpts, "losses.csv")


def _finish_manifest(config: RunConfig, out: Path, label: str, t0: float,
                     checkpoints=(), loss_csv=None, metrics_reports=()
                     ) -> dict:
    """Write the run's manifest.json under `out` and return it. The wall
    clock since `t0` goes to stdout only: output files carry no
    timestamps."""
    doc = {"artifact_version": ARTIFACT_VERSION, "config": config.to_dict(),
           "checkpoints": list(checkpoints), "loss_csv": loss_csv,
           "metrics_reports": list(metrics_reports)}
    for rel in doc["checkpoints"] + doc["metrics_reports"]:
        if not (out / rel).exists():
            raise DataError(f"manifest references missing file {rel}")
    if loss_csv and not (out / loss_csv).exists():
        raise DataError("manifest references missing loss csv")
    lm.write_json(doc, out / "manifest.json")
    print(f"{label}: wrote {out / 'manifest.json'} "
          f"({time.time() - t0:.1f}s)")
    return doc


def _nll_run(config: RunConfig, splits, label: str) -> dict:
    corp = load_run_corpus(config)
    records = [r for split in splits for r in corp.split(split)]
    return _train_and_write(config, lm.init_model(config.arch, config.seed),
                            records, corp.vocab, ob.loss_retain, label)


def run_finetune(config: RunConfig) -> dict:
    """Standard NLL training; its final checkpoint is the unlearning
    reference. Holdout entities are included so they can play the
    world-facts role in the utility probe (unlearning never touches them)."""
    return _nll_run(config, ("forget", "retain", "holdout"), "finetune")


def run_retrain(config: RunConfig) -> dict:
    """Gold-standard comparator: identical training without the forget split."""
    return _nll_run(config, ("retain", "holdout"), "retrain")


def _augmentations(config: RunConfig, store, pairs, aug_ids):
    """bss's sampled responses for `pairs`, one list per pair, each drawn
    with the next counter of `aug_ids`; None for the other loss kinds."""
    if config.loss.kind != "bss":
        return None
    return beliefs.sample_augmentations(
        store, [prompt for prompt, _ in pairs], n=config.loss.n_aug,
        tau=config.loss.tau, seed=config.seed,
        max_len=config.squeeze_max_len, eos_id=None,
        counters=[next(aug_ids) for _ in pairs])


def run_unlearn(config: RunConfig, reference_checkpoint,
                corp: cp.Corpus | None = None, snapshots=None) -> dict:
    """AdamW steps on the configured unlearning loss, starting from the
    reference checkpoint (which also serves as the frozen NPO reference);
    returns the manifest.

    A list passed as `snapshots` gets a ParamStore copy at epoch 0 (the
    reference) and after each epoch; the squeeze tracer consumes these.
    Pass `corp` when it is loaded already.
    """
    if reference_checkpoint is None:
        raise ConfigError("unlearning requires a reference checkpoint")
    if corp is None:
        corp = load_run_corpus(config)
    ref_store = lm.load_checkpoint(reference_checkpoint)
    if ref_store.arch != config.arch:
        raise ConfigError("reference checkpoint arch differs from config")
    forget, retain = corp.split("forget"), corp.split("retain")
    if not retain:
        raise DataError("retain split is empty")
    cfg = config.loss
    # retain batches have their own endless shuffle stream
    retain_batches = (_endless_batches(_pairs(corp.vocab, retain),
                                       config.batch_size, config.seed + 1)
                      if cfg.lambda_retain > 0 else None)
    aug_ids = itertools.count()

    def loss_fn(store, forget_pairs):
        retain_pairs = (next(retain_batches)
                        if retain_batches is not None else None)
        augmented = _augmentations(config, store, forget_pairs, aug_ids)
        return ob.step_loss(cfg, store, forget_pairs, retain_pairs, ref_store,
                            augmented)

    store = ref_store.snapshot()
    if snapshots is not None:
        snapshots.append(store.snapshot())
    return _train_and_write(config, store, forget, corp.vocab, loss_fn,
                            "unlearn", snapshots)


# Evaluation ------------------------------------------------------------------


def _judge_scores(generations, corp, judge_mode, endpoint=None):
    """Mean judge scores over the forget split, judging the greedy
    generations evaluation already made (`metrics.evaluate_model`'s
    forget generations) through `judge.score_batch`. A record whose
    similarity or naturalness prompt fails is one error and enters neither
    mean; the means are left out when no record succeeded."""
    forget = corp.split("forget")
    prompts = []
    for rec, out in zip(forget, generations):
        gen_text = cp.decode_text(corp.vocab, out) or "<empty>"
        prompts += [jd.render_similarity_prompt(rec.question, rec.answer,
                                                gen_text),
                    jd.render_naturalness_prompt(gen_text)]
    scores = jd.score_batch(endpoint, prompts, mock=judge_mode == "mock")
    pairs = [(sim, nat) for sim, nat in zip(scores[0::2], scores[1::2])
             if not isinstance(sim, JudgeUnavailableError)
             and not isinstance(nat, JudgeUnavailableError)]
    doc = {"mode": judge_mode, "errors": len(scores) // 2 - len(pairs),
           "n": len(forget)}
    if pairs:
        doc["similarity"] = float(np.mean([sim.value for sim, _ in pairs]))
        doc["naturalness"] = float(np.mean([nat.value for _, nat in pairs]))
    return doc


def _flat_row(doc: dict) -> dict:
    """A metrics document as the metric columns of a sweep.csv row: the
    composites, each split's fields as `split.field`, then the reference
    ratios."""
    row = {k: doc[k] for k in ("memorization", "utility", "aggregate")}
    for split, vals in doc["per_split"].items():
        row.update({f"{split}.{k}": v for k, v in vals.items()})
    row.update(doc.get("relative_to_ref", {}))
    return row


def run_eval(config: RunConfig, checkpoint_paths, ref_checkpoint=None,
             judge_mode: str = "none", endpoint=None) -> list[dict]:
    """Writes each checkpoint's metrics document, plus a flat sweep CSV,
    and returns the documents."""
    t0 = time.time()
    checkpoint_of = {}  # report file name -> checkpoint path
    for ck in checkpoint_paths:
        fname = f"metrics_{Path(ck).stem}.json"
        if fname in checkpoint_of:
            raise DataError(f"checkpoints {checkpoint_of[fname]} and {ck} "
                            f"would both write {fname}")
        checkpoint_of[fname] = ck
    if not checkpoint_of:
        raise DataError("run_eval needs at least one checkpoint")
    corp = load_run_corpus(config)
    out = make_out_dir(config.out_dir)
    ref_store = lm.load_checkpoint(ref_checkpoint) if ref_checkpoint else None
    ref_norm_probs = (mt.reference_norm_probs(ref_store, corp)
                      if ref_store else None)
    docs, rows = [], []
    for fname, ck in checkpoint_of.items():
        store = (ref_store if ref_store is not None
                 and Path(ck).resolve() == Path(ref_checkpoint).resolve()
                 else lm.load_checkpoint(ck))
        doc, gens = mt.evaluate_model(store, corp, ref_norm_probs)
        if judge_mode != "none":
            doc["judge"] = _judge_scores(gens, corp, judge_mode, endpoint)
        lm.write_json(doc, out / fname)
        rows.append({"checkpoint": Path(ck).stem, **_flat_row(doc)})
        docs.append(doc)
    header = list(rows[0].keys())
    _write_csv(out / "sweep.csv", header,
               [[r[h] for h in header] for r in rows])
    _finish_manifest(config, out, "eval", t0,
                     metrics_reports=list(checkpoint_of))
    return docs


# Dynamics & squeeze CLI backends ---------------------------------------------


def run_dynamics(config: RunConfig, checkpoint=None,
                 etas=(1e-3, 5e-4, 2.5e-4)) -> dict:
    """Eta-scaling fit of the one-step prediction error of the config's
    loss, at any model size; the model is also npo's reference."""
    corp = load_run_corpus(config)
    forget = corp.split("forget")
    if not forget:
        raise DataError("forget split is empty")
    store = (lm.load_checkpoint(checkpoint) if checkpoint
             else lm.init_model(config.arch, config.seed))
    rec = forget[0]
    pair = cp.qa_pair_tokens(corp.vocab, rec.question, rec.answer)
    out = make_out_dir(config.out_dir)
    slope, positions, per_eta = dynamics.eta_scaling_slope(
        store, pair, pair, config.loss, etas, store,
        _augmentations(config, store, [pair], itertools.count()))
    doc = {"record_id": rec.id, "loss_kind": config.loss.kind,
           "etas": list(etas), "slope": slope, "positions": positions,
           "reports": per_eta}
    lm.write_json(doc, out / "dynamics_report.json")
    print(f"dynamics: loss kind {config.loss.kind}, slope={slope:.3f} -> "
          f"{out / 'dynamics_report.json'}")
    return doc


def run_squeeze(config: RunConfig, reference_checkpoint) -> dict:
    """Unlearn per config while capturing per-epoch snapshots, then trace
    band log-probabilities of beam candidates frozen at epoch 0."""
    corp = load_run_corpus(config)
    snapshots = []
    run_unlearn(config, reference_checkpoint, corp, snapshots)
    vocab = corp.vocab
    records = corp.split("forget")[:config.squeeze_prompts]
    prompts, refs = [], []
    for rec in records:
        prompt, answer = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
        prompts.append((rec.id, prompt))
        refs.append(answer)
    means, sizes = dynamics.squeeze_trace(
        snapshots, prompts, beam_width=config.beam_width,
        max_len=config.squeeze_max_len, eos_id=vocab.eos,
        exclude_responses=refs)
    agg = means.mean(0)
    out = Path(config.out_dir)
    _write_csv(out / "bands.csv",
               ["epoch", "band", "mean_logprob", "n_candidates"],
               dynamics.trace_rows(agg, sizes.sum(0)))
    per_rows = [(prompt_id, *row)
                for (prompt_id, _), m, n in zip(prompts, means, sizes)
                for row in dynamics.trace_rows(m, n)]
    _write_csv(out / "bands_per_prompt.csv",
               ["prompt_id", "epoch", "band", "mean_logprob", "n_candidates"],
               per_rows)
    print(f"squeeze: wrote {out / 'bands.csv'}")
    return {"aggregate": agg.tolist(),
            "bands_csv": str(out / "bands.csv")}


# Sweeps -----------------------------------------------------------------------


# Run fields a sweep cannot vary: the reference checkpoint fixes the arch and
# the corpus, and each combination gets its own directory under out_dir.
_FIXED_IN_SWEEP = ("arch", "corpus_path", "vocab_path", "out_dir")


def _combo_config(config: RunConfig, combo, out_dir: str) -> RunConfig:
    doc = config.to_dict()
    for dotted, value in combo:
        *path, last = dotted.split(".")
        if dotted.split(".")[0] in _FIXED_IN_SWEEP:
            raise ConfigError(f"sweep cannot vary {dotted!r}: "
                              f"{', '.join(_FIXED_IN_SWEEP)} are fixed")
        node = doc
        for p in path:
            node = node.get(p)
            if not isinstance(node, dict):
                raise ConfigError(f"unknown sweep parameter {dotted!r}")
        node[last] = value  # an unknown leaf is rejected by from_dict
    doc["out_dir"] = out_dir
    return RunConfig.from_dict(doc)


def run_sweep(config: RunConfig, reference_checkpoint, grid: dict) -> list[dict]:
    """Cartesian product over dotted config keys; one unlearn+eval each.

    Every combination's config is built and checked before the first run.
    Reports every checkpoint of every combination in sweep.csv, with its
    retain/holdout normalized-probability ratios against the reference, and
    leaves checkpoint selection to the reader.
    """
    if not grid or not all(grid.values()):
        raise ConfigError("sweep grid must map dotted keys to non-empty lists")
    keys = sorted(grid)
    combos = [list(zip(keys, values))
              for values in itertools.product(*(grid[k] for k in keys))]
    out = Path(config.out_dir)
    subs = [_combo_config(config, combo, str(out / f"combo_{i:03d}"))
            for i, combo in enumerate(combos)]
    corp = load_run_corpus(config)
    make_out_dir(config.out_dir)
    all_rows, ref_norm_probs = [], None
    for i, (combo, sub) in enumerate(zip(combos, subs)):
        manifest = run_unlearn(sub, reference_checkpoint, corp=corp)
        if ref_norm_probs is None:  # run_unlearn has checked the reference
            ref_norm_probs = mt.reference_norm_probs(
                lm.load_checkpoint(reference_checkpoint), corp)
        for ck in manifest["checkpoints"]:
            store = lm.load_checkpoint(Path(sub.out_dir) / ck)
            doc, _ = mt.evaluate_model(store, corp, ref_norm_probs)
            all_rows.append({"combo": i, "checkpoint": Path(ck).stem,
                             **dict(combo), **_flat_row(doc)})
    header = list(all_rows[0].keys())
    _write_csv(out / "sweep.csv", header,
               [[r.get(h, "") for h in header] for r in all_rows])
    print(f"sweep: wrote {out / 'sweep.csv'} ({len(all_rows)} rows)")
    return all_rows
