"""Config-driven orchestration: finetune / retrain, unlearning with any
objective, checkpoint evaluation, dynamics checks, and squeeze traces.

One trainer mutates the live parameter store; everything else works on
snapshots. All outputs land under the run's out_dir and every run is
reproducible from its manifest (config + seed + corpus file): output files
carry no timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
        doc = dict(doc)
        for key, klass in [("arch", lm.ArchConfig),
                           ("optimizer", OptimizerConfig),
                           ("scheduler", SchedulerConfig),
                           ("loss", ob.LossConfig)]:
            if key in doc and isinstance(doc[key], dict):
                doc[key] = klass(**doc[key])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


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
        return {
            "artifact_version": self.artifact_version,
            "config": self.config,
            "checkpoints": self.checkpoints,
            "loss_csv": self.loss_csv,
            "metrics_reports": self.metrics_reports,
        }


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


def _write_json(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as f:
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


class _RetainCycler:
    """Endless retain batches with their own per-epoch shuffle stream."""

    def __init__(self, records, batch_size, seed):
        if not records:
            raise DataError("retain split is empty")
        self.records = records
        self.batch_size = batch_size
        self.seed = seed
        self.epoch = 0
        self._iter = self._fresh()

    def _fresh(self):
        return _shuffled_batches(self.records, self.batch_size,
                                 self.seed + 1, self.epoch)

    def next(self):
        try:
            return next(self._iter)
        except StopIteration:
            self.epoch += 1
            self._iter = self._fresh()
            return next(self._iter)


# Training loops --------------------------------------------------------------


def _nll_training(config: RunConfig, records, corp, label: str) -> RunManifest:
    t0 = time.time()
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = lm.init_model(config.arch, config.seed)
    opt = AdamW(store.entries, config.optimizer)
    n_batches = -(-len(records) // config.batch_size)
    total_steps = config.epochs * n_batches
    rows, ckpts = [], []
    step = 0
    for epoch in range(config.epochs):
        for batch in _shuffled_batches(records, config.batch_size,
                                       config.seed, epoch):
            pairs = _pairs(corp.vocab, batch)
            lv = ob.loss_retain(store, pairs)
            grads = _named_grads(lv)
            opt.step(grads, lr_at(config.scheduler, config.optimizer.lr,
                                  step, total_steps))
            d = lv.diagnostics
            rows.append((step, d["forget_term"], d["retain_term"],
                         d["aug_term"], lv.value))
            step += 1
        if (epoch + 1) % config.checkpoint_every == 0:
            name = f"ckpt_{epoch + 1:04d}.json"
            lm.save_checkpoint(store, out / name)
            ckpts.append(name)
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


def _named_grads(lv: ob.LossValue) -> dict[str, np.ndarray]:
    names = sorted(lv.param_tensors)
    from . import autodiff as ad
    gs = ad.grad(lv.scalar, [lv.param_tensors[n] for n in names])
    return dict(zip(names, gs))


def _finish_manifest(manifest: RunManifest, out: Path, label: str):
    for rel in manifest.checkpoints + manifest.metrics_reports:
        if not (out / rel).exists():
            raise DataError(f"manifest references missing file {rel}")
    if manifest.loss_csv and not (out / manifest.loss_csv).exists():
        raise DataError("manifest references missing loss csv")
    _write_json(manifest.to_dict(), out / "manifest.json")
    print(f"{label}: wrote {out / 'manifest.json'} "
          f"({manifest.wall_clock_seconds:.1f}s)")


def run_finetune(config: RunConfig) -> RunManifest:
    """Standard NLL training; its final checkpoint is the unlearning
    reference. Holdout entities are included so they can play the
    world-facts role in the utility probe (unlearning never touches them)."""
    corp = load_run_corpus(config)
    records = (corp.split("forget") + corp.split("retain")
               + corp.split("holdout"))
    return _nll_training(config, records, corp, "finetune")


def run_retrain(config: RunConfig) -> RunManifest:
    """Gold-standard comparator: identical training without the forget split."""
    corp = load_run_corpus(config)
    records = corp.split("retain") + corp.split("holdout")
    return _nll_training(config, records, corp, "retrain")


def _step_loss(config: RunConfig, store, ref_store, forget_pairs,
               retain_pairs, aug_counter) -> tuple[ob.LossValue, int]:
    cfg = config.loss
    tensors = lm.param_tensors(store)
    if cfg.kind == "graddiff":
        return ob.loss_graddiff(store, forget_pairs, retain_pairs,
                                cfg.lambda_retain, tensors), aug_counter
    if cfg.kind == "ga":
        lv = ob.loss_ga(store, forget_pairs, tensors)
    elif cfg.kind == "npo":
        lv = ob.loss_npo(store, ref_store, forget_pairs, cfg.beta, tensors)
    elif cfg.kind == "wga":
        lv = ob.loss_wga(store, forget_pairs, cfg.alpha, tensors)
    elif cfg.kind == "bst":
        lv = ob.loss_bst(store, forget_pairs, cfg.lambda_bst, cfg.k,
                         cfg.belief_smoothing_tau, tensors)
    elif cfg.kind == "bss":
        augmented = []
        for prompt, _ in forget_pairs:
            augmented.append(beliefs.sample_augmentations(
                store, prompt, prompt_id=f"b{aug_counter}", n=cfg.n_aug,
                tau=cfg.tau, seed=config.seed, max_len=config.squeeze_max_len,
                eos_id=None, counter=aug_counter))
            aug_counter += 1
        lv = ob.loss_bss(store, forget_pairs, augmented, cfg.lambda_bss, cfg,
                         ref_store, tensors)
    else:
        raise ConfigError(f"unknown loss kind {cfg.kind!r}")
    if cfg.lambda_retain > 0:
        retain = ob.loss_retain(store, retain_pairs, tensors)
        from . import autodiff as ad
        scalar = ad.add(lv.scalar, ad.scale(retain.scalar, cfg.lambda_retain))
        diag = dict(lv.diagnostics)
        diag["retain_term"] = cfg.lambda_retain * retain.value
        lv = ob.LossValue(scalar, diag, tensors)
    return lv, aug_counter


def run_unlearn(config: RunConfig, reference_checkpoint,
                capture_epochs: bool = False):
    """AdamW steps on the configured unlearning loss, starting from the
    reference checkpoint (which also serves as the frozen NPO reference).

    With capture_epochs=True, returns (manifest, snapshots) where snapshots
    holds a ParamStore copy at epoch 0 (the reference) and after each epoch;
    the squeeze tracer consumes these.
    """
    t0 = time.time()
    config.validate()
    if reference_checkpoint is None:
        raise ConfigError("unlearning requires a reference checkpoint")
    corp = load_run_corpus(config)
    ref_store = lm.load_checkpoint(reference_checkpoint)
    if ref_store.arch != config.arch:
        raise ConfigError("reference checkpoint arch differs from config")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = ref_store.snapshot()
    opt = AdamW(store.entries, config.optimizer)
    forget = corp.split("forget")
    if not forget:
        raise DataError("forget split is empty")
    retain = _RetainCycler(corp.split("retain"), config.batch_size,
                           config.seed)
    vocab = corp.vocab
    n_batches = -(-len(forget) // config.batch_size)
    total_steps = config.epochs * n_batches
    rows, ckpts = [], []
    snapshots = [store.snapshot()] if capture_epochs else []
    step = 0
    aug_counter = 0
    for epoch in range(config.epochs):
        for batch in _shuffled_batches(forget, config.batch_size,
                                       config.seed, epoch):
            forget_pairs = _pairs(vocab, batch)
            retain_pairs = _pairs(vocab, retain.next())
            lv, aug_counter = _step_loss(config, store, ref_store,
                                         forget_pairs, retain_pairs,
                                         aug_counter)
            opt.step(_named_grads(lv),
                     lr_at(config.scheduler, config.optimizer.lr, step,
                           total_steps))
            d = lv.diagnostics
            rows.append((step, d["forget_term"], d["retain_term"],
                         d["aug_term"], lv.value))
            step += 1
        if capture_epochs:
            snapshots.append(store.snapshot())
        if (epoch + 1) % config.checkpoint_every == 0:
            name = f"ckpt_{epoch + 1:04d}.json"
            lm.save_checkpoint(store, out / name)
            ckpts.append(name)
    lm.save_checkpoint(store, out / "ckpt_final.json")
    ckpts.append("ckpt_final.json")
    _write_csv(out / "losses.csv",
               ["step", "forget_term", "retain_term", "aug_term", "total"],
               rows)
    manifest = RunManifest(config=config.to_dict(), checkpoints=ckpts,
                           loss_csv="losses.csv", metrics_reports=[],
                           wall_clock_seconds=time.time() - t0)
    _finish_manifest(manifest, out, "unlearn")
    if capture_epochs:
        return manifest, snapshots
    return manifest


# Evaluation ------------------------------------------------------------------


def _judge_scores(generations, corp, judge_mode, endpoint=None):
    """Mean judge scores over the forget split, judging the greedy
    generations evaluation already made (`MetricsReport.forget_generations`);
    transport failures are recorded per record and the run continues."""
    vocab = corp.vocab
    sims, nats, errors = [], [], 0
    for rec, out in zip(corp.split("forget"), generations):
        gen_text = cp.decode_text(vocab, out) or "<empty>"
        sim_p = jd.render_similarity_prompt(rec.question, rec.answer, gen_text)
        nat_p = jd.render_naturalness_prompt(gen_text)
        try:
            if judge_mode == "mock":
                sims.append(jd.mock_judge(sim_p).value)
                nats.append(jd.mock_judge(nat_p).value)
            else:
                sims.append(jd.query_judge(endpoint, sim_p).value)
                nats.append(jd.query_judge(endpoint, nat_p).value)
        except JudgeUnavailableError:
            errors += 1
    doc = {"mode": judge_mode, "errors": errors, "n": len(corp.split("forget"))}
    if sims:
        doc["similarity"] = float(np.mean(sims))
        doc["naturalness"] = float(np.mean(nats))
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
    ref_norm_probs = (mt.reference_norm_probs(
        lm.load_checkpoint(ref_checkpoint), corp) if ref_checkpoint else None)
    reports, rows, report_files = [], [], []
    for ck in checkpoint_paths:
        store = lm.load_checkpoint(ck)
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
    errs, per_eta = [], []
    for eta in etas:
        reports = dynamics.akg_check(store, chi, chi, loss_cfg, eta)
        err = max(r.first_order_error for r in reports)
        errs.append(err)
        per_eta.append({"eta": eta, "max_first_order_error": err,
                        "positions": [r.to_dict() for r in reports]})
    slope = float(np.polyfit(np.log(np.asarray(etas)),
                             np.log(np.asarray(errs)), 1)[0])
    doc = {"record_id": rec.id, "loss_kind": loss_cfg.kind,
           "etas": list(etas), "slope": slope, "reports": per_eta}
    _write_json(doc, out / "dynamics_report.json")
    print(f"dynamics: slope={slope:.3f} -> {out / 'dynamics_report.json'}")
    return doc


def run_squeeze(config: RunConfig, reference_checkpoint) -> dict:
    """Unlearn per config while capturing per-epoch snapshots, then trace
    band log-probabilities of beam candidates frozen at epoch 0."""
    _, snapshots = run_unlearn(config, reference_checkpoint,
                               capture_epochs=True)
    corp = load_run_corpus(config)
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


def _set_dotted(config: RunConfig, dotted: str, value):
    obj = config
    parts = dotted.split(".")
    for p in parts[:-1]:
        obj = getattr(obj, p)
    if not hasattr(obj, parts[-1]):
        raise ConfigError(f"unknown sweep parameter {dotted!r}")
    setattr(obj, parts[-1], value)


def run_sweep(config: RunConfig, reference_checkpoint, grid: dict) -> list[dict]:
    """Cartesian product over dotted config keys; one unlearn+eval each.

    Reports every checkpoint of every combination in sweep.csv and leaves
    checkpoint selection to the reader.
    """
    keys = sorted(grid)
    combos = [[]]
    for k in keys:
        combos = [c + [(k, v)] for c in combos for v in grid[k]]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for i, combo in enumerate(combos):
        sub = RunConfig.from_dict(config.to_dict())
        for k, v in combo:
            _set_dotted(sub, k, v)
        sub.out_dir = str(out / f"combo_{i:03d}")
        manifest = run_unlearn(sub, reference_checkpoint)
        corp = load_run_corpus(sub)
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
