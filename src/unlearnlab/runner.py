"""Config-driven orchestration: finetune / retrain, unlearning with any
objective, checkpoint evaluation, dynamics checks, and squeeze traces.

One trainer mutates the live parameter store; everything else works on
snapshots. All outputs land under the run's out_dir and every run is
reproducible from its manifest (config + seed + corpus file): output files
carry no timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import beliefs, corpus as cp, dynamics, judge as jd, metrics as mt
from . import lm, objectives as ob
from .errors import ConfigError, DataError, JudgeUnavailableError
from .optim import AdamW, OptimizerConfig, SchedulerConfig, lr_at

ARTIFACT_VERSION = "0.1.0"


@dataclass
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

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        self.arch.validate()
        self.optimizer.validate()
        self.scheduler.validate()
        self.loss.validate()

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return config_section(cls, doc, "run")


@dataclass
class RunManifest:
    config: dict
    checkpoints: list[str]
    loss_csv: str | None
    metrics_reports: list[str]
    artifact_version: str = ARTIFACT_VERSION
    wall_clock_seconds: float = 0.0  # reported on stdout, never serialized

    def to_dict(self):
        # wall clock deliberately excluded: output files must be
        # byte-identical across reruns of the same config+seed.
        doc = dataclasses.asdict(self)
        del doc["wall_clock_seconds"]
        return doc


def desk_arch() -> lm.ArchConfig:
    """Desk-scale default: small enough to train on a CPU in minutes, big
    enough to memorize a 200-entity corpus."""
    return lm.ArchConfig(vocab_size=512, context_len=32, d_model=64,
                         n_layers=2, n_heads=4, tie_output_head=False)


def config_section(klass, doc, section: str):
    """Build the config dataclass `klass` from the JSON object `doc`.

    Nested dataclass fields are built the same way. A non-object, an unknown
    or missing key, or a value of the wrong JSON type raises ConfigError
    naming the section or dotted key, e.g. `run.loss.bogus`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object")
    hints = typing.get_type_hints(klass)
    kwargs = {}
    for name, value in doc.items():
        hint, key = hints.get(name), f"{section}.{name}"
        if hint is None:
            raise ConfigError(f"unknown config key {key}")
        if dataclasses.is_dataclass(hint):
            value = config_section(hint, value, key)
        elif not (isinstance(value, (int, float) if hint is float else hint)
                  and isinstance(value, bool) == (hint is bool)):
            raise ConfigError(f"{key} must be {hint.__name__}, got {value!r}")
        kwargs[name] = value
    try:
        return klass(**kwargs)
    except TypeError as e:  # a required key is missing
        raise ConfigError(f"{section}: {e}")


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


def _write_json(doc, path):
    with lm.atomic_write(path) as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


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
    longest = 0
    for r in corp.records:
        p, a = cp.qa_pair_tokens(corp.vocab, r.question, r.answer)
        longest = max(longest, len(p) + len(a))
    if longest > arch.context_len:
        raise DataError(
            f"longest prompt+answer ({longest}) exceeds context "
            f"({arch.context_len})")


def _pairs(vocab, records) -> list[ob.Pair]:
    return [cp.qa_pair_tokens(vocab, r.question, r.answer) for r in records]


def _shuffled_batches(records, batch_size, seed, epoch):
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(records))
    for start in range(0, len(records), batch_size):
        yield [records[i] for i in order[start:start + batch_size]]


def _endless_batches(records, batch_size, seed):
    for epoch in itertools.count():
        yield from _shuffled_batches(records, batch_size, seed, epoch)


# Training --------------------------------------------------------------------


def train(store: lm.ParamStore, records, vocab, loss_fn, config: RunConfig,
          on_epoch=None) -> list[tuple]:
    """The training loop of every run: AdamW on `loss_fn(store, pairs)`
    over shuffled batches of `records`, updating `store` in place.

    Calls `on_epoch(epochs_done)` after each epoch and returns the losses.csv
    rows. A non-finite loss or gradient raises ConfigError naming the step,
    before that step changes the parameters.
    """
    config.validate()
    if not records:
        raise DataError("no records to train on (empty split?)")
    opt = AdamW(store.entries, config.optimizer)
    total_steps = config.epochs * -(-len(records) // config.batch_size)
    rows = []
    for epoch in range(config.epochs):
        for batch in _shuffled_batches(records, config.batch_size,
                                       config.seed, epoch):
            step = len(rows)
            lv = loss_fn(store, _pairs(vocab, batch))
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
        if on_epoch is not None:
            on_epoch(epoch + 1)
    return rows


def _train_and_write(config: RunConfig, store, records, vocab, loss_fn,
                     label: str, snapshots=None) -> RunManifest:
    """Run `train`, writing periodic and final checkpoints, losses.csv and
    the manifest under `config.out_dir`; appends a copy of `store` to
    `snapshots`, when given, after each epoch."""
    t0 = time.time()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    manifest = RunManifest(config=config.to_dict(), checkpoints=ckpts,
                           loss_csv="losses.csv", metrics_reports=[],
                           wall_clock_seconds=time.time() - t0)
    _finish_manifest(manifest, out, label)
    return manifest


def _finish_manifest(manifest: RunManifest, out: Path, label: str):
    for rel in manifest.checkpoints + manifest.metrics_reports:
        if not (out / rel).exists():
            raise DataError(f"manifest references missing file {rel}")
    if manifest.loss_csv and not (out / manifest.loss_csv).exists():
        raise DataError("manifest references missing loss csv")
    _write_json(manifest.to_dict(), out / "manifest.json")
    print(f"{label}: wrote {out / 'manifest.json'} "
          f"({manifest.wall_clock_seconds:.1f}s)")


def _nll_run(config: RunConfig, splits, label: str) -> RunManifest:
    corp = load_run_corpus(config)
    config.validate()
    records = [r for split in splits for r in corp.split(split)]
    return _train_and_write(config, lm.init_model(config.arch, config.seed),
                            records, corp.vocab, ob.loss_retain, label)


def run_finetune(config: RunConfig) -> RunManifest:
    """Standard NLL training; its final checkpoint is the unlearning
    reference. Holdout entities are included so they can play the
    world-facts role in the utility probe (unlearning never touches them)."""
    return _nll_run(config, ("forget", "retain", "holdout"), "finetune")


def run_retrain(config: RunConfig) -> RunManifest:
    """Gold-standard comparator: identical training without the forget split."""
    return _nll_run(config, ("retain", "holdout"), "retrain")


def run_unlearn(config: RunConfig, reference_checkpoint,
                capture_epochs: bool = False, corp: cp.Corpus | None = None):
    """AdamW steps on the configured unlearning loss, starting from the
    reference checkpoint (which also serves as the frozen NPO reference).

    With capture_epochs=True, returns (manifest, snapshots) where snapshots
    holds a ParamStore copy at epoch 0 (the reference) and after each epoch;
    the squeeze tracer consumes these. Pass `corp` when it is loaded already.
    """
    config.validate()
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
    # retain batches have their own endless shuffle stream
    retain_batches = _endless_batches(retain, config.batch_size,
                                      config.seed + 1)
    aug_ids = itertools.count()
    cfg = config.loss

    def loss_fn(store, forget_pairs):
        retain_pairs = (_pairs(corp.vocab, next(retain_batches))
                        if cfg.lambda_retain > 0 else None)
        augmented = None
        if cfg.kind == "bss":
            augmented = []
            for prompt, _ in forget_pairs:
                c = next(aug_ids)
                augmented.append(beliefs.sample_augmentations(
                    store, prompt, prompt_id=f"b{c}", n=cfg.n_aug,
                    tau=cfg.tau, seed=config.seed,
                    max_len=config.squeeze_max_len, eos_id=None, counter=c))
        return ob.step_loss(cfg, store, forget_pairs, retain_pairs, ref_store,
                            augmented)

    store = ref_store.snapshot()
    snapshots = [store.snapshot()] if capture_epochs else None
    manifest = _train_and_write(config, store, forget, corp.vocab, loss_fn,
                                "unlearn", snapshots)
    return (manifest, snapshots) if capture_epochs else manifest


# Evaluation ------------------------------------------------------------------


def _judge_scores(generations, corp, judge_mode, endpoint=None):
    """Mean judge scores over the forget split, judging the greedy
    generations evaluation already made (`MetricsReport.forget_generations`)
    through `judge.score_batch`. A record whose similarity or naturalness
    prompt fails is one error and enters neither mean; the means are left
    out when no record succeeded."""
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


def run_eval(config: RunConfig, checkpoint_paths, ref_checkpoint=None,
             judge_mode: str = "none", endpoint=None) -> list[dict]:
    """Full MetricsReport per checkpoint plus a flat sweep CSV."""
    config.validate()
    checkpoint_paths = list(checkpoint_paths)
    if not checkpoint_paths:
        raise DataError("run_eval needs at least one checkpoint")
    corp = load_run_corpus(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ref_store = lm.load_checkpoint(ref_checkpoint) if ref_checkpoint else None
    ref_norm_probs = (mt.reference_norm_probs(ref_store, corp)
                      if ref_store else None)
    reports, rows, report_files = [], [], []
    for ck in checkpoint_paths:
        store = (ref_store if ref_store is not None
                 and Path(ck).resolve() == Path(ref_checkpoint).resolve()
                 else lm.load_checkpoint(ck))
        report = mt.evaluate_model(store, corp, ref_norm_probs)
        doc = report.to_dict()
        if judge_mode != "none":
            doc["judge"] = _judge_scores(report.forget_generations, corp,
                                         judge_mode, endpoint)
        stem = Path(ck).stem
        fname = f"metrics_{stem}.json"
        _write_json(doc, out / fname)
        report_files.append(fname)
        row = {"checkpoint": stem}
        row.update(report.flat_row())
        rows.append(row)
        reports.append(doc)
    header = list(rows[0].keys())
    _write_csv(out / "sweep.csv", header,
               [[r[h] for h in header] for r in rows])
    manifest = RunManifest(config=config.to_dict(), checkpoints=[],
                           loss_csv=None, metrics_reports=report_files)
    _finish_manifest(manifest, out, "eval")
    return reports


# Dynamics & squeeze CLI backends ---------------------------------------------


def run_dynamics(config: RunConfig, checkpoint=None,
                 etas=(1e-3, 5e-4, 2.5e-4)) -> dict:
    """Eta-scaling fit of the one-step prediction error on a capped model."""
    config.validate()
    corp = load_run_corpus(config)
    store = (lm.load_checkpoint(checkpoint) if checkpoint
             else lm.init_model(config.arch, config.seed))
    rec = corp.split("forget")[0]
    prompt, answer = cp.qa_pair_tokens(corp.vocab, rec.question, rec.answer)
    chi = dynamics.Chi(prompt=prompt, response=answer)
    loss_cfg = config.loss if config.loss.kind in ("ga", "bst") \
        else ob.LossConfig(kind="ga")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    slope, per_eta = dynamics.eta_scaling_slope(store, chi, chi, loss_cfg,
                                                etas)
    doc = {"record_id": rec.id, "loss_kind": loss_cfg.kind,
           "etas": list(etas), "slope": slope, "reports": per_eta}
    _write_json(doc, out / "dynamics_report.json")
    print(f"dynamics: slope={slope:.3f} -> {out / 'dynamics_report.json'}")
    return doc


def run_squeeze(config: RunConfig, reference_checkpoint) -> dict:
    """Unlearn per config while capturing per-epoch snapshots, then trace
    band log-probabilities of beam candidates frozen at epoch 0."""
    corp = load_run_corpus(config)
    _, snapshots = run_unlearn(config, reference_checkpoint,
                               capture_epochs=True, corp=corp)
    vocab = corp.vocab
    records = corp.split("forget")[:config.squeeze_prompts]
    prompts, refs = [], []
    for rec in records:
        prompt, answer = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
        prompts.append((rec.id, prompt))
        refs.append(answer)
    traces, agg = dynamics.squeeze_trace(
        snapshots, prompts, candidate_source=("beam", config.beam_width),
        max_len=config.squeeze_max_len, eos_id=vocab.eos,
        exclude_responses=refs)
    out = Path(config.out_dir)
    _write_csv(out / "bands.csv",
               ["epoch", "band", "mean_logprob", "n_candidates"],
               dynamics.trace_rows(agg))
    per_rows = []
    for t in traces:
        for row in dynamics.trace_rows(t):
            per_rows.append((t.prompt_id, *row))
    _write_csv(out / "bands_per_prompt.csv",
               ["prompt_id", "epoch", "band", "mean_logprob", "n_candidates"],
               per_rows)
    print(f"squeeze: wrote {out / 'bands.csv'}")
    return {"aggregate": agg.per_epoch_mean_logprob.tolist(),
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
    sub = RunConfig.from_dict(doc)
    sub.validate()
    return sub


def run_sweep(config: RunConfig, reference_checkpoint, grid: dict) -> list[dict]:
    """Cartesian product over dotted config keys; one unlearn+eval each.

    Every combination's config is built and checked before the first run.
    Reports every checkpoint of every combination in sweep.csv and leaves
    checkpoint selection to the reader.
    """
    if not isinstance(grid, dict) or not all(
            isinstance(v, (list, tuple)) and v for v in grid.values()):
        raise ConfigError("sweep grid must map dotted keys to non-empty lists")
    keys = sorted(grid)
    combos = [list(zip(keys, values))
              for values in itertools.product(*(grid[k] for k in keys))]
    out = Path(config.out_dir)
    subs = [_combo_config(config, combo, str(out / f"combo_{i:03d}"))
            for i, combo in enumerate(combos)]
    corp = load_run_corpus(config)
    out.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for i, (combo, sub) in enumerate(zip(combos, subs)):
        manifest = run_unlearn(sub, reference_checkpoint, corp=corp)
        for ck in manifest.checkpoints:
            store = lm.load_checkpoint(Path(sub.out_dir) / ck)
            report = mt.evaluate_model(store, corp)
            row = {"combo": i, "checkpoint": Path(ck).stem}
            row.update({k: v for k, v in combo})
            row.update(report.flat_row())
            all_rows.append(row)
    header = list(all_rows[0].keys())
    _write_csv(out / "sweep.csv", header,
               [[r.get(h, "") for h in header] for r in all_rows])
    print(f"sweep: wrote {out / 'sweep.csv'} ({len(all_rows)} rows)")
    return all_rows
