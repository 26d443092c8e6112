import csv
import ctypes
import dataclasses
import gc
import itertools
import json
import math
import shutil
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, cli, corpus as cp, dynamics, lm, runner
from unlearnlab import judge as jd
from unlearnlab import objectives as ob
from unlearnlab.errors import ConfigError, DataError, VocabError
from unlearnlab.objectives import LossConfig
from unlearnlab.optim import AdamW, OptimizerConfig, SchedulerConfig, lr_at
from conftest import save_v03_checkpoint


def test_adamw_single_step_matches_scalar_oracle():
    theta0 = 0.7
    entries = {"w": np.array([theta0])}
    opt = AdamW(entries, OptimizerConfig(lr=0.1, weight_decay=0.01,
                                         beta1=0.9, beta2=0.999, eps=1e-8))
    opt.step({"w": np.array([1.0])}, lr=0.1)
    # independent single-step oracle
    g, lr, wd, b1, b2, eps = 1.0, 0.1, 0.01, 0.9, 0.999, 1e-8
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    want = theta0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta0)
    assert abs(entries["w"][0] - want) <= 1e-12


def test_adamw_two_steps_match_oracle():
    entries = {"w": np.array([0.3])}
    cfg = OptimizerConfig(lr=0.05, weight_decay=0.02)
    opt = AdamW(entries, cfg)
    grads = [0.8, -0.4]
    # oracle
    theta, m, v = 0.3, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        theta -= cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps)
                           + cfg.weight_decay * theta)
    for g in grads:
        opt.step({"w": np.array([g])}, lr=cfg.lr)
    assert abs(entries["w"][0] - theta) <= 1e-12


def test_linear_scheduler_pointwise():
    s = SchedulerConfig(kind="linear", warmup_fraction=0.1)
    total = 100
    lr = 2e-3
    for step in range(10):
        assert lr_at(s, lr, step, total) == pytest.approx(lr * step / 10)
    for step in (10, 40, 99, 100):
        want = lr * (total - step) / (total - 10)
        assert lr_at(s, lr, step, total) == pytest.approx(max(0.0, want))
    assert lr_at(s, lr, total, total) == 0.0
    const = SchedulerConfig(kind="constant", warmup_fraction=0.0)
    assert all(lr_at(const, lr, st, total) == lr for st in range(total))


def test_scheduler_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="cosine")
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="linear", warmup_fraction=1.0)


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    """A miniature corpus + config that trains in a couple of seconds."""
    root = tmp_path_factory.mktemp("small")
    corp = cp.generate_corpus(
        cp.GenConfig(n_entities=12, forget_fraction=0.25,
                     holdout_fraction=0.25), seed=3)
    cp.save_corpus(corp, root / "corpus.jsonl", root / "vocab.json")
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)

    def make(out, **kw):
        base = dict(corpus_path=str(root / "corpus.jsonl"),
                    vocab_path=str(root / "vocab.json"), arch=arch,
                    optimizer=OptimizerConfig(lr=1e-3),
                    scheduler=SchedulerConfig(kind="linear",
                                              warmup_fraction=0.1),
                    epochs=8, batch_size=8, loss=LossConfig(kind="ga"),
                    seed=0, checkpoint_every=4, out_dir=str(out))
        base.update(kw)
        return runner.RunConfig(**base)

    return root, corp, make


def test_finetune_outputs_and_manifest(small_setup):
    root, corp, make = small_setup
    cfg = make(root / "ft")
    manifest = runner.run_finetune(cfg)
    out = Path(cfg.out_dir)
    assert (out / "manifest.json").exists()
    assert (out / "losses.csv").exists()
    assert manifest["checkpoints"][-1] == "ckpt_final.json"
    for ck in manifest["checkpoints"]:
        assert (out / ck).exists()
    doc = json.loads((out / "manifest.json").read_text())
    assert doc == manifest
    assert "wall_clock" not in json.dumps(doc)
    assert doc["config"]["epochs"] == 8
    with open(out / "losses.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8 * 2  # 12 records / batch 8 -> 2 batches
    assert set(rows[0]) == {"step", "forget_term", "retain_term",
                            "aug_term", "total"}


def test_finetune_is_reproducible_bytewise(small_setup, tmp_path):
    root, corp, make = small_setup
    a = runner.run_finetune(make(tmp_path / "r1"))
    b = runner.run_finetune(make(tmp_path / "r2"))
    f1 = (tmp_path / "r1" / "ckpt_final.json").read_bytes()
    f2 = (tmp_path / "r2" / "ckpt_final.json").read_bytes()
    assert f1 == f2
    assert (tmp_path / "r1" / "losses.csv").read_bytes() == \
           (tmp_path / "r2" / "losses.csv").read_bytes()


def test_unlearn_requires_reference(small_setup, tmp_path):
    root, corp, make = small_setup
    with pytest.raises(ConfigError):
        runner.run_unlearn(make(tmp_path / "u"), None)


def test_unlearn_reference_arch_mismatch(small_setup, tmp_path):
    root, corp, make = small_setup
    other = lm.init_model(lm.ArchConfig(vocab_size=400, context_len=32,
                                        d_model=8, n_layers=1, n_heads=2), 0)
    lm.save_checkpoint(other, tmp_path / "other.json")
    with pytest.raises(ConfigError):
        runner.run_unlearn(make(tmp_path / "u2"), tmp_path / "other.json")


@pytest.fixture(scope="module")
def small_theta_o(small_setup, tmp_path_factory):
    root, corp, make = small_setup
    out = tmp_path_factory.mktemp("small_ft")
    runner.run_finetune(make(out, epochs=40, checkpoint_every=40))
    return out / "ckpt_final.json"


def test_ga_and_graddiff_zero_lambda_share_step0_loss(small_setup,
                                                      small_theta_o,
                                                      tmp_path):
    root, corp, make = small_setup
    cfg_ga = make(tmp_path / "ga", loss=LossConfig(kind="ga"), epochs=2)
    cfg_gd = make(tmp_path / "gd",
                  loss=LossConfig(kind="graddiff", lambda_retain=0.0),
                  epochs=2)
    runner.run_unlearn(cfg_ga, small_theta_o)
    runner.run_unlearn(cfg_gd, small_theta_o)

    def step0_total(out):
        with open(Path(out) / "losses.csv") as f:
            return float(next(csv.DictReader(f))["total"])

    assert step0_total(cfg_ga.out_dir) == step0_total(cfg_gd.out_dir)


def test_bst_run_logs_expected_diagnostics(small_setup, small_theta_o,
                                           tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "bst",
               loss=LossConfig(kind="bst", lambda_bst=0.2, k=5,
                               lambda_retain=0.0), epochs=2)
    runner.run_unlearn(cfg, small_theta_o)
    with open(Path(cfg.out_dir) / "losses.csv") as f:
        row = next(csv.DictReader(f))
    assert float(row["forget_term"]) != 0.0
    assert float(row["aug_term"]) != 0.0
    assert float(row["retain_term"]) == 0.0
    assert abs(float(row["total"]) - (float(row["forget_term"])
                                      + float(row["retain_term"])
                                      + float(row["aug_term"]))) < 1e-9


def test_bss_run_resamples_and_logs(small_setup, small_theta_o, tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "bss",
               loss=LossConfig(kind="bss", base_loss="ga", lambda_bss=0.5,
                               n_aug=2, tau=1.0, lambda_retain=1.0),
               epochs=2)
    runner.run_unlearn(cfg, small_theta_o)
    with open(Path(cfg.out_dir) / "losses.csv") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["aug_term"]) != 0.0
    assert float(rows[0]["retain_term"]) != 0.0


def test_bss_step_augmentations_equal_per_prompt_loop(small_setup,
                                                      small_theta_o, tmp_path,
                                                      monkeypatch):
    """Each step's batched draw equals the per-prompt, per-response decode
    loop the runner ran before, with counters in batch order."""
    root, corp, make = small_setup
    cfg = make(tmp_path / "bss",
               loss=LossConfig(kind="bss", base_loss="ga", n_aug=3, tau=1.3),
               epochs=3)
    counter = itertools.count()
    steps = []
    step_loss = runner.ob.step_loss

    def spy(loss_cfg, store, forget_pairs, retain_pairs, ref, augmented):
        want = []
        for prompt, _ in forget_pairs:
            c = next(counter)
            want.append([lm.decode_batch(
                store, [prompt], cfg.squeeze_max_len,
                seeds=[beliefs._mix(cfg.seed, c, j)], tau=loss_cfg.tau)[0][0]
                for j in range(loss_cfg.n_aug)])
        steps.append(augmented == want)
        return step_loss(loss_cfg, store, forget_pairs, retain_pairs, ref,
                         augmented)

    monkeypatch.setattr(runner.ob, "step_loss", spy)
    runner.run_unlearn(cfg, small_theta_o)
    assert steps == [True] * 3


def test_eval_reports_and_schema(small_setup, small_theta_o, tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "ev")
    reports = runner.run_eval(cfg, [small_theta_o],
                              ref_checkpoint=small_theta_o,
                              judge_mode="mock")
    out = Path(cfg.out_dir)
    files = list(out.glob("metrics_*.json"))
    assert len(files) == 1
    doc = json.loads(files[0].read_text())
    assert set(doc) >= {"per_split", "memorization", "utility", "aggregate"}
    hm = 0.0
    if doc["memorization"] > 0 and doc["utility"] > 0:
        hm = 2 / (1 / doc["memorization"] + 1 / doc["utility"])
    assert abs(doc["aggregate"] - hm) <= 1e-9
    assert set(doc["per_split"]) == {"forget", "retain", "holdout"}
    assert "judge" in doc and doc["judge"]["mode"] == "mock"
    assert doc["relative_to_ref"]["retain_norm_prob_ratio"] == \
        pytest.approx(1.0)
    assert (out / "sweep.csv").exists()


# The metric columns of sweep.csv, in the order the lab has always written
# them: the composites, each split's fields, then the reference ratios.
_METRIC_COLUMNS = [
    "memorization", "utility", "aggregate",
    *(f"{split}.{k}" for split in ("forget", "retain", "holdout")
      for k in ("rouge_l", "norm_prob", "para_prob", "exact_mem",
                "extraction_strength", "truth_ratio_inv", "degeneracy")),
    "retain_norm_prob_ratio", "holdout_norm_prob_ratio"]


def test_eval_returns_the_documents_it_writes(small_setup, small_theta_o,
                                             tmp_path):
    root, corp, make = small_setup
    init = tmp_path / "init.json"
    lm.save_checkpoint(lm.init_model(make(tmp_path).arch, 0), init)
    cfg = make(tmp_path / "ev")
    docs = runner.run_eval(cfg, [init, small_theta_o],
                           ref_checkpoint=small_theta_o, judge_mode="mock")
    out = Path(cfg.out_dir)
    assert docs == [json.loads((out / name).read_text())
                    for name in ("metrics_init.json",
                                 "metrics_ckpt_final.json")]
    with open(out / "sweep.csv") as f:
        header = f.readline().rstrip("\n").split(",")
    assert header == ["checkpoint", *_METRIC_COLUMNS]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metrics_reports"] == ["metrics_init.json",
                                           "metrics_ckpt_final.json"]


def test_eval_judge_reuses_generations_unchanged(small_setup, small_theta_o,
                                                tmp_path):
    root, corp, make = small_setup
    reports = runner.run_eval(make(tmp_path / "evg"), [small_theta_o],
                              judge_mode="mock")
    store = lm.load_checkpoint(small_theta_o)
    vocab = corp.vocab
    sims, nats = [], []
    for rec in corp.split("forget"):
        prompt, _ = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
        [(out, _)] = lm.decode_batch(store, [prompt], 16, eos_id=vocab.eos)
        text = cp.decode_text(vocab, out) or "<empty>"
        sims.append(jd.mock_judge(jd.render_similarity_prompt(
            rec.question, rec.answer, text)).value)
        nats.append(jd.mock_judge(jd.render_naturalness_prompt(text)).value)
    assert reports[0]["judge"] == {
        "mode": "mock", "errors": 0, "n": len(sims),
        "similarity": float(np.mean(sims)),
        "naturalness": float(np.mean(nats))}


def test_eval_with_unreachable_judge_continues(small_setup, small_theta_o,
                                               tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "evj")

    endpoint = jd.EndpointConfig(url="http://127.0.0.1:1/x", model_name="m",
                                 max_retries=0, timeout=0.01)
    reports = runner.run_eval(cfg, [small_theta_o], judge_mode="http",
                              endpoint=endpoint)
    j = reports[0]["judge"]
    assert j["errors"] == j["n"] > 0


def test_dynamics_runner_untrained_tiny_arch(small_setup, tmp_path):
    root, corp, make = small_setup
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=8,
                         n_layers=1, n_heads=2)
    cfg = make(tmp_path / "dyn", arch=arch)
    doc = runner.run_dynamics(cfg)
    assert doc["slope"] >= 1.7
    written = (tmp_path / "dyn" / "dynamics_report.json").read_text()
    oracle = "".join(json.JSONEncoder(sort_keys=True).iterencode(doc)) + "\n"
    assert written == oracle
    # The v0.3 report format: each position's eta-independent pi and G
    # once, at the top level, and only the eta-dependent fields under each
    # eta. "slope" still sorts last, so the file ends with it.
    report = json.loads(written)
    assert list(report) == ["etas", "loss_kind", "positions", "record_id",
                            "reports", "slope"]
    assert written.endswith(f'"slope": {doc["slope"]!r}}}\n')
    n = len(report["positions"])
    assert n and [p["position"] for p in report["positions"]] == list(range(n))
    for pos in report["positions"]:
        assert set(pos) == {"position", "pi", "G"}
    runs = report["reports"]
    assert [run["eta"] for run in runs] == report["etas"]
    for run in runs:
        assert set(run) == {"eta", "max_first_order_error", "positions"}
        assert [p["position"] for p in run["positions"]] == list(range(n))
        for pos in run["positions"]:
            assert set(pos) == {"position", "predicted_delta_logpi",
                                "actual_delta_logpi", "first_order_error"}
        assert run["max_first_order_error"] == max(
            p["first_order_error"] for p in run["positions"])


def test_dynamics_runner_names_the_loss_kind_it_probes(small_setup, tmp_path,
                                                      capsys):
    """Every loss kind is probed as itself: its report and its stdout line
    name the config's kind. The probed model is also npo's reference, where
    npo's residual is ga's, so the npo report is the ga report but for
    `loss_kind`."""
    root, corp, make = small_setup
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=8,
                         n_layers=1, n_heads=2)
    reports = {}
    for kind in ("ga", "npo", "wga", "bss"):
        cfg = make(tmp_path / kind, arch=arch, loss=LossConfig(kind=kind))
        doc = runner.run_dynamics(cfg)
        assert doc["loss_kind"] == kind
        assert doc["slope"] >= 1.7
        assert capsys.readouterr().out.startswith(
            f"dynamics: loss kind {kind}, slope=")
        reports[kind] = json.loads(
            (tmp_path / kind / "dynamics_report.json").read_text())
        assert reports[kind]["loss_kind"] == kind
    assert reports["npo"] == dict(reports["ga"], loss_kind="npo")
    assert reports["wga"]["positions"] != reports["ga"]["positions"]


def test_dynamics_runs_above_the_jacobian_cap(small_setup, tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "dyn", arch=runner.desk_arch())
    assert lm.init_model(cfg.arch, 0).param_count() > dynamics.PARAM_CAP
    doc = runner.run_dynamics(cfg)
    assert doc["slope"] >= 1.7
    report = json.loads(
        (tmp_path / "dyn" / "dynamics_report.json").read_text())
    assert report["slope"] == doc["slope"]
    assert all(len(p["pi"]) == cfg.arch.vocab_size
               for p in report["positions"])


def test_dynamics_without_forget_records_is_data_error(small_setup, tmp_path):
    root, corp, make = small_setup
    lines = (root / "corpus.jsonl").read_text().splitlines(keepends=True)
    no_forget = tmp_path / "no_forget.jsonl"
    no_forget.write_text("".join(line for line in lines
                                 if '"split": "forget"' not in line))
    cfg = make(tmp_path / "dyn", corpus_path=str(no_forget))
    with pytest.raises(DataError, match="forget split is empty"):
        runner.run_dynamics(cfg)


def test_squeeze_runner_outputs(small_setup, small_theta_o, tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "sq", loss=LossConfig(kind="ga"), epochs=5,
               batch_size=2, squeeze_prompts=3, beam_width=12)
    doc = runner.run_squeeze(cfg, small_theta_o)
    out = Path(cfg.out_dir)
    with open(out / "bands.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == (5 + 1) * 3
    assert {r["band"] for r in rows} == {"high", "mid", "low"}
    with open(out / "bands_per_prompt.csv") as f:
        per = list(csv.DictReader(f))
    assert len({r["prompt_id"] for r in per}) == 3


def test_sweep_over_small_grid(small_setup, small_theta_o, tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "sw", loss=LossConfig(kind="bst", lambda_retain=1.0),
               epochs=2)
    rows = runner.run_sweep(cfg, small_theta_o,
                            {"loss.lambda_bst": [0.1, 0.3]})
    assert len(rows) == 2  # one checkpoint per combo (final only)
    assert {r["loss.lambda_bst"] for r in rows} == {0.1, 0.3}
    with open(tmp_path / "sw" / "sweep.csv") as f:
        written = list(csv.DictReader(f))
    assert len(written) == 2
    assert list(written[0]) == ["combo", "checkpoint", "loss.lambda_bst",
                                *_METRIC_COLUMNS]
    for row in written:
        for col in ("retain_norm_prob_ratio", "holdout_norm_prob_ratio"):
            assert math.isfinite(float(row[col])), (col, row[col])


def test_train_frees_each_step_graph_before_the_next(small_setup, tmp_path):
    """With the cycle collector off, refcounting alone frees step t's graph
    (its activation-sized node values) before step t+1 builds its own."""
    root, corp, make = small_setup
    cfg = make(tmp_path, epochs=2)
    refs, alive = [], []

    def loss_fn(store, pairs):
        alive.append(sum(r() is not None for r in refs))
        lv = ob.loss_retain(store, pairs)
        refs[:] = [weakref.ref(n.value) for n in ad._topo_order(lv.scalar)
                   if n.value.ndim >= 3]
        assert refs
        return lv

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runner.train(lm.init_model(cfg.arch, 0), corp.records, corp.vocab,
                     loss_fn, cfg)
    finally:
        if was_enabled:
            gc.enable()
    assert len(alive) == 2 * 2  # 12 records / batch 8 -> 2 batches
    assert alive == [0] * len(alive)


def test_train_encodes_each_record_once(small_setup, tmp_path, monkeypatch):
    root, corp, make = small_setup
    cfg = make(tmp_path, epochs=2)
    calls = []
    real = cp.qa_pair_tokens
    monkeypatch.setattr(cp, "qa_pair_tokens",
                        lambda *a: calls.append(a) or real(*a))
    runner.train(lm.init_model(cfg.arch, 0), corp.records, corp.vocab,
                 ob.loss_retain, cfg)
    assert len(calls) == len(corp.records)


def test_keep_freed_blocks_sets_both_thresholds_or_nothing(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    runner._keep_freed_blocks.__wrapped__()
    assert calls == [(-3, 256 << 20), (-1, 256 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    # a libc without mallopt: nothing is called and nothing raises
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert runner._keep_freed_blocks.__wrapped__() is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_unlearn_stops_on_non_finite_loss(small_setup, small_theta_o,
                                          tmp_path):
    root, corp, make = small_setup
    cfg = make(tmp_path / "nan", optimizer=OptimizerConfig(lr=1e6),
               scheduler=SchedulerConfig(kind="constant",
                                         warmup_fraction=0.0),
               epochs=20, batch_size=2, checkpoint_every=5)
    with pytest.raises(ConfigError, match=r"not finite at step \d+"):
        runner.run_unlearn(cfg, small_theta_o)
    out = Path(cfg.out_dir)
    assert not (out / "ckpt_final.json").exists()
    for ck in out.glob("ckpt_*.json"):
        lm.load_checkpoint(ck)  # the checkpoints written before the stop


def test_judge_record_with_a_failed_prompt_is_one_error(small_setup,
                                                        monkeypatch):
    root, corp, make = small_setup
    vocab = corp.vocab
    forget = corp.split("forget")
    gens = [cp.qa_pair_tokens(vocab, r.question, r.answer)[1] for r in forget]
    first_q = forget[0].question
    first_gen = f'"{cp.decode_text(vocab, gens[0])}"'

    def judge(fail_naturalness):
        def transport(endpoint, payload):
            text = payload["messages"][0]["content"]
            if "Naturalness" in text:
                if fail_naturalness(text):
                    raise OSError("naturalness judge down")
                return "4.0000"
            return "1.0000" if first_q in text else "3.0000"
        return transport

    endpoint = jd.EndpointConfig(url="unused", model_name="m", max_retries=0)
    # the first record's similarity (1.0) stays out of the mean
    monkeypatch.setattr(jd, "_default_transport",
                        judge(lambda text: first_gen in text))
    doc = runner._judge_scores(gens, corp, "http", endpoint)
    assert doc == {"mode": "http", "errors": 1, "n": len(forget),
                   "similarity": 3.0, "naturalness": 4.0}
    # no record succeeded: both means are omitted, nothing reads NaN
    monkeypatch.setattr(jd, "_default_transport", judge(lambda text: True))
    doc = runner._judge_scores(gens, corp, "http", endpoint)
    assert doc == {"mode": "http", "errors": len(forget), "n": len(forget)}


def test_eval_loads_each_checkpoint_once(small_setup, small_theta_o, tmp_path,
                                         monkeypatch):
    root, corp, make = small_setup
    init = tmp_path / "init.json"
    lm.save_checkpoint(lm.init_model(make(tmp_path).arch, 0), init)
    loads = []
    real = lm.load_checkpoint
    monkeypatch.setattr(lm, "load_checkpoint",
                        lambda p: loads.append(p) or real(p))
    runner.run_eval(make(tmp_path / "ev1"), [init, small_theta_o],
                    ref_checkpoint=small_theta_o)
    assert len(loads) == 2


class _Unprintable:
    def __str__(self):
        raise RuntimeError("write failed part-way")


def _records_then_unserializable():
    corp = cp.generate_corpus(cp.GenConfig(n_entities=10), seed=0)
    corp.records[3] = dataclasses.replace(corp.records[3], answer={1, 2})
    return corp


@pytest.mark.parametrize("write", [
    lambda p: runner._write_csv(p, ["a"], [[1.5], [_Unprintable()]]),
    lambda p: lm.write_json({"a": 1, "b": {1, 2}}, p),
    lambda p: cp.save_corpus(_records_then_unserializable(), p,
                             p.with_name("vocab.json")),
], ids=["csv", "json", "corpus"])
def test_output_writes_are_atomic(write, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_squeeze_snapshots_go_to_the_list_passed_to_unlearn(
        small_setup, small_theta_o, tmp_path):
    """run_unlearn returns its manifest and, given a list, appends the
    reference and each epoch's parameters to it."""
    root, corp, make = small_setup
    cfg = make(tmp_path / "un", epochs=2, checkpoint_every=1)
    snapshots = []
    manifest = runner.run_unlearn(cfg, small_theta_o, snapshots=snapshots)
    assert manifest == json.loads(
        (tmp_path / "un" / "manifest.json").read_text())
    assert len(snapshots) == 3
    reference = lm.load_checkpoint(small_theta_o)
    for snap, want in zip(snapshots, [reference, *(
            lm.load_checkpoint(tmp_path / "un" / ck)
            for ck in manifest["checkpoints"][:2])]):
        for k, v in want.entries.items():
            assert np.array_equal(snap.entries[k], v), k


def test_cli_finetune_refuses_a_run_above_the_step_cap(small_setup, tmp_path,
                                                       capsys, monkeypatch):
    """epochs = 2**62 exits 2 before the first step, naming epochs and the
    cap, and writes no checkpoint."""
    root, corp, make = small_setup
    steps = []
    monkeypatch.setattr(runner, "AdamW", lambda *a: steps.append(a))
    cfgp = _write_config(tmp_path / "c.json", {
        "run": make(tmp_path / "out", epochs=2 ** 62).to_dict()})
    assert cli.main(["finetune", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"epochs={2 ** 62}" in err and str(runner.MAX_TRAIN_STEPS) in err
    assert not steps
    assert not list((tmp_path / "out").glob("ckpt_*"))


def test_run_config_refuses_decode_sizes_above_the_cap():
    """The largest decode step in the repo (desk batch 32 x sweep preset
    n_aug 5 x vocab 512) sits at least 100x below the cap; a beam or a bss
    sample batch above it is refused by name when the config is built."""
    vocab = runner.desk_arch().vocab_size
    largest = 32 * max(runner.PRESET_GRIDS["bss"]["loss.n_aug"]) * vocab
    assert 100 * largest <= runner.MAX_DECODE_LOGITS
    rows = runner.MAX_DECODE_LOGITS // vocab
    runner.RunConfig(beam_width=rows)
    runner.RunConfig(batch_size=rows // 4, loss=LossConfig(n_aug=4))
    for kw in (dict(beam_width=rows + 1), dict(beam_width=2 ** 62),
               dict(batch_size=rows // 4 + 1, loss=LossConfig(n_aug=4)),
               dict(loss=LossConfig(kind="bss", n_aug=2 ** 62))):
        with pytest.raises(ConfigError) as e:
            runner.RunConfig(**kw)
        msg = str(e.value)
        for name in ("beam_width=", "batch_size=", "loss.n_aug=",
                     "arch.vocab_size=", str(runner.MAX_DECODE_LOGITS)):
            assert name in msg, (kw, msg)


@pytest.mark.parametrize("command,run", [
    ("squeeze", {"beam_width": 2 ** 40}),
    ("unlearn", {"loss": {"kind": "bss", "n_aug": 2 ** 40}}),
])
def test_cli_refuses_decode_sizes_above_the_cap(command, run, small_setup,
                                                tmp_path, capsys):
    """Exit 2 with one stderr line naming the keys and the cap, and no
    output written."""
    root, corp, make = small_setup
    doc = dict(make(tmp_path / "out").to_dict(), **run)
    cfgp = _write_config(tmp_path / "c.json", {"run": doc})
    assert cli.main([command, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "beam_width=" in err and "loss.n_aug=" in err
    assert str(runner.MAX_DECODE_LOGITS) in err
    assert not (tmp_path / "out").exists()


def test_arch_above_the_parameter_cap_exits_2_in_a_config_and_3_in_a_checkpoint(
        small_setup, small_theta_o, tmp_path, capsys):
    root, corp, make = small_setup
    huge = {"vocab_size": 400, "context_len": 32, "d_model": 16,
            "n_layers": 2 ** 40, "n_heads": 2}
    run = make(tmp_path / "out").to_dict()
    cfgp = _write_config(tmp_path / "c.json", {"run": dict(run, arch=huge)})
    assert cli.main(["finetune", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(lm.MAX_PARAMS) in err and "'run.arch'" in err
    doc = json.loads(Path(small_theta_o).read_text())
    doc["arch"] = huge
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    cfgp = _write_config(tmp_path / "ev.json", {"run": run})
    assert cli.main(["eval", "--config", cfgp, "--checkpoint", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(lm.MAX_PARAMS) in err and str(bad) in err


def test_run_config_roundtrip_and_unknown_keys():
    cfg = runner.RunConfig()
    doc = cfg.to_dict()
    again = runner.RunConfig.from_dict(doc)
    assert again == cfg
    with pytest.raises(ConfigError):
        runner.RunConfig.from_dict({"no_such_key": 1})


@pytest.mark.parametrize("default,name,bad", [
    (runner.RunConfig(), "seed", -1),
    (LossConfig(), "k", 0),
    (OptimizerConfig(), "lr", 0.0),
    (SchedulerConfig(), "warmup_fraction", 1.0),
    (cp.GenConfig(), "n_perturbed", 2),
    (runner.desk_arch(), "n_heads", 3),
    (jd.EndpointConfig(url="u", model_name="m"), "max_retries", -1),
    (cli.ConfigFile(), "judge", "mokc"),
], ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else None)
def test_configs_are_valid_by_construction(default, name, bad):
    with pytest.raises(ConfigError):
        dataclasses.replace(default, **{name: bad})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(default, name, getattr(default, name))


# CLI ------------------------------------------------------------------------


def _write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_gen_corpus_and_exit_codes(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {
        "run": {"seed": 3, "out_dir": str(tmp_path / "corp")},
        "gen": {"n_entities": 10, "forget_fraction": 0.2,
                "holdout_fraction": 0.2},
    })
    assert cli.main(["gen-corpus", "--config", cfgp]) == 0
    assert (tmp_path / "corp" / "corpus.jsonl").exists()
    assert (tmp_path / "corp" / "vocab.json").exists()

    bad = _write_config(tmp_path / "bad.json", {
        "run": {"epochs": 0, "out_dir": str(tmp_path / "x")}})
    assert cli.main(["finetune", "--config", bad]) == 2

    missing = _write_config(tmp_path / "missing.json", {
        "run": {"corpus_path": str(tmp_path / "nope.jsonl"),
                "vocab_path": str(tmp_path / "nope.vocab"),
                "out_dir": str(tmp_path / "y")}})
    rc = cli.main(["finetune", "--config", missing])
    assert rc == 3


def test_cli_subcommand_rerun_byte_identical(tmp_path):
    corp_dir = tmp_path / "corp"
    cfgp = _write_config(tmp_path / "c.json", {
        "run": {"seed": 3, "out_dir": str(corp_dir)},
        "gen": {"n_entities": 10, "forget_fraction": 0.2,
                "holdout_fraction": 0.2},
    })
    assert cli.main(["gen-corpus", "--config", cfgp]) == 0
    snap = tmp_path / "corp_snapshot"
    shutil.copytree(corp_dir, snap)
    shutil.rmtree(corp_dir)
    assert cli.main(["gen-corpus", "--config", cfgp]) == 0
    for name in ("corpus.jsonl", "vocab.json"):
        assert (corp_dir / name).read_bytes() == (snap / name).read_bytes()


@pytest.mark.parametrize("command,doc,key", [
    ("finetune", {"run": {"loss": {"bogus": 1}}}, "run.loss"),
    ("finetune", {"run": {"arch": {"vocab_size": 10}}}, "run.arch"),
    ("finetune", {"run": {"epochs": "x"}}, "run.epochs"),
    ("gen-corpus", {"gen": {"bogus": 1}}, "gen"),
    ("eval", {"judge_endpoint": {"bogus": 1},
              "eval_checkpoints": ["ckpt.json"]}, "judge_endpoint"),
    ("eval", {"judge": "http", "eval_checkpoints": ["ckpt.json"]},
     "judge_endpoint"),
    ("sweep", {"sweep": {"arch.d_model": [8]}}, "arch.d_model"),
    ("sweep", {"sweep": {"loss.bogus.x": [1]}}, "loss.bogus.x"),
    ("eval", {"judge": "mokc", "eval_checkpoints": ["ckpt.json"]}, "judge"),
    ("squeeze", {"run": {"squeeze_prompts": 0}}, "squeeze_prompts"),
    ("squeeze", {"run": {"beam_width": 0}}, "beam_width"),
    ("squeeze", {"run": {"squeeze_max_len": 0}}, "squeeze_max_len"),
    ("finetune", {"gen": {"n_perturbed": 30}}, "n_perturbed"),
    ("finetune", {"gen": {"n_paraphrases": 4}}, "n_paraphrases"),
    ("finetune", {"gen": {"attributes_per_entity": 9}},
     "attributes_per_entity"),
    ("finetune", {"gen": {"n_entities": 4000}}, "n_entities"),
    ("finetune", {"gen": {"n_entities": 3, "forget_fraction": 0.1}},
     "n_entities"),
])
def test_cli_config_errors_exit_2(command, doc, key, tmp_path, capsys):
    doc.setdefault("run", {})["out_dir"] = str(tmp_path / "out")
    cfgp = _write_config(tmp_path / "c.json", doc)
    assert cli.main([command, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


# case -> (command, config document, what its one stderr line names)
_BAD_CONFIGS = {
    "unknown_top_level_key": ("finetune", {"runs": {"epochs": 1}},
                              ["'runs'"]),
    "reference_int": ("unlearn", {"reference_checkpoint": 0},
                      ["'reference_checkpoint'"]),
    "reference_bool": ("unlearn", {"reference_checkpoint": True},
                       ["'reference_checkpoint'"]),
    "eval_checkpoints_string": ("eval", {"eval_checkpoints": "ckpt.json"},
                                ["'eval_checkpoints'"]),
    "eval_checkpoints_float": ("eval", {"eval_checkpoints": [5.5]},
                               ["'eval_checkpoints'[0]"]),
    "judge_int": ("eval", {"judge": 5, "eval_checkpoints": ["c.json"]},
                  ["'judge'"]),
    "max_retries_negative": (
        "eval", {"judge_endpoint": {"url": "http://127.0.0.1:1/x",
                                    "model_name": "m", "max_retries": -1},
                 "eval_checkpoints": ["c.json"]},
        ["'judge_endpoint'", "max_retries"]),
    "gen_key_on_finetune": ("finetune", {"gen": {"bogus": 1}},
                            ["'gen.bogus'"]),
    "seed_negative": ("gen-corpus", {"run": {"seed": -1}}, ["'run'", "seed"]),
}


@pytest.mark.parametrize("case", list(_BAD_CONFIGS))
def test_cli_bad_config_exits_2_naming_key(case, tmp_path, capsys):
    command, doc, names = _BAD_CONFIGS[case]
    doc = dict(doc, run=dict(doc.get("run", {}),
                             out_dir=str(tmp_path / "out")))
    cfgp = _write_config(tmp_path / "c.json", doc)
    assert cli.main([command, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(name in err for name in names), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,field,code", [
    ("finetune", None, 2),
    ("finetune", "corpus_path", 3),
    ("finetune", "vocab_path", 3),
    ("unlearn", "checkpoint", 3),
])
def test_cli_unreadable_path_exits_with_one_line(command, field, code,
                                                 small_setup, tmp_path,
                                                 capsys):
    root, corp, make = small_setup
    folder = tmp_path / "a_directory"
    folder.mkdir()
    run = {"corpus_path": str(root / "corpus.jsonl"),
           "vocab_path": str(root / "vocab.json"),
           "arch": {"vocab_size": 400, "context_len": 32, "d_model": 16,
                    "n_layers": 1, "n_heads": 2},
           "epochs": 1, "out_dir": str(tmp_path / "out")}
    if field in run:
        run[field] = str(folder)
    cfgp = _write_config(tmp_path / "c.json", {"run": run})
    argv = [command, "--config", str(folder) if field is None else cfgp]
    if field == "checkpoint":
        argv += ["--checkpoint", str(folder)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(folder) in err
    assert "Is a directory" in err


@pytest.mark.parametrize("command,flags,name", [
    ("gen-corpus", ["--out", "afile"], "out_dir"),
    ("finetune", ["--out", "afile"], "out_dir"),
    ("eval", ["--out", "afile", "--checkpoint", "ckpt.json"], "out_dir"),
    ("dynamics", ["--out", "afile"], "out_dir"),
    ("gen-corpus", ["--seed", "-1"], "seed"),
])
def test_cli_bad_flag_exits_2_writing_nothing(command, flags, name,
                                              small_setup, tmp_path, capsys,
                                              monkeypatch):
    root, corp, make = small_setup
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep")
    cfgp = _write_config(tmp_path / "c.json", {
        "run": make(tmp_path / "out").to_dict(), "gen": {"n_entities": 10}})
    assert cli.main([command, "--config", cfgp, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert name in err, err
    assert (tmp_path / "afile").read_text() == "keep"
    assert not (tmp_path / "out").exists()


def test_run_eval_rejects_checkpoints_sharing_a_report_name(
        small_setup, small_theta_o, tmp_path):
    root, corp, make = small_setup
    paths = []
    for sub in ("ft", "un"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "ckpt_final.json")
        shutil.copy(small_theta_o, paths[-1])
    with pytest.raises(DataError, match="metrics_ckpt_final.json") as err:
        runner.run_eval(make(tmp_path / "ev"), paths)
    assert all(str(p) in str(err.value) for p in paths)
    assert not (tmp_path / "ev").exists()


def test_cli_eval_requires_checkpoint(tmp_path):
    cfgp = _write_config(tmp_path / "c.json", {"run": {}})
    assert cli.main(["eval", "--config", cfgp]) == 2


def test_cli_eval_exit_4_when_judge_unavailable(small_setup, small_theta_o,
                                                tmp_path):
    root, corp, make = small_setup
    cfgp = _write_config(tmp_path / "ev4.json", {
        "run": {"corpus_path": str(root / "corpus.jsonl"),
                "vocab_path": str(root / "vocab.json"),
                "arch": {"vocab_size": 400, "context_len": 32, "d_model": 16,
                         "n_layers": 1, "n_heads": 2,
                         "tie_output_head": False},
                "out_dir": str(tmp_path / "ev4")},
        "eval_checkpoints": [str(small_theta_o)],
        "judge_endpoint": {"url": "http://127.0.0.1:1/x", "model_name": "m",
                           "max_retries": 0, "timeout": 0.05},
    })
    assert cli.main(["eval", "--config", cfgp, "--judge", "http"]) == 4


def test_cli_eval_checkpoint_without_arch_exits_3(small_setup, small_theta_o,
                                                  tmp_path):
    root, corp, make = small_setup
    doc = json.loads(Path(small_theta_o).read_text())
    del doc["arch"]
    bad = tmp_path / "no_arch.json"
    bad.write_text(json.dumps(doc))
    cfgp = _write_config(tmp_path / "ev3.json", {
        "run": {"corpus_path": str(root / "corpus.jsonl"),
                "vocab_path": str(root / "vocab.json"),
                "arch": {"vocab_size": 400, "context_len": 32, "d_model": 16,
                         "n_layers": 1, "n_heads": 2,
                         "tie_output_head": False},
                "out_dir": str(tmp_path / "ev3")},
        "eval_checkpoints": [str(bad)],
    })
    assert cli.main(["eval", "--config", cfgp]) == 3


def test_cli_eval_checkpoint_with_malformed_record_exits_3(
        small_setup, small_theta_o, tmp_path, capsys):
    root, corp, make = small_setup
    doc = json.loads(Path(small_theta_o).read_text())
    del doc["params"]["head"]["data"]
    bad = tmp_path / "no_data.json"
    bad.write_text(json.dumps(doc))
    cfgp = _write_config(tmp_path / "ev3.json", {
        "run": {"corpus_path": str(root / "corpus.jsonl"),
                "vocab_path": str(root / "vocab.json"),
                "arch": {"vocab_size": 400, "context_len": 32, "d_model": 16,
                         "n_layers": 1, "n_heads": 2,
                         "tie_output_head": False},
                "out_dir": str(tmp_path / "ev3")},
        "eval_checkpoints": [str(bad)],
    })
    assert cli.main(["eval", "--config", cfgp]) == 3
    assert "'head'" in capsys.readouterr().err


def _eval_config(root, path, out_dir, checkpoints):
    return _write_config(path, {
        "run": {"corpus_path": str(root / "corpus.jsonl"),
                "vocab_path": str(root / "vocab.json"),
                "arch": {"vocab_size": 400, "context_len": 32, "d_model": 16,
                         "n_layers": 1, "n_heads": 2,
                         "tie_output_head": False},
                "out_dir": str(out_dir)},
        "eval_checkpoints": [str(c) for c in checkpoints],
    })


def test_cli_eval_checkpoint_with_wrong_byte_count_exits_3(
        small_setup, small_theta_o, tmp_path, capsys):
    root, corp, make = small_setup
    doc = json.loads(Path(small_theta_o).read_text())
    head = doc["params"]["head"]
    head["data"] = head["data"][:-12]  # one float64 short
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(doc))
    cfgp = _eval_config(root, tmp_path / "ev3.json", tmp_path / "ev3", [bad])
    assert cli.main(["eval", "--config", cfgp]) == 3
    assert "'head' data holds" in capsys.readouterr().err


def test_cli_eval_judge_renders_ids_past_the_corpus_vocabulary(
        small_setup, tmp_path, monkeypatch):
    """The model's vocabulary (400) is wider than the corpus's; a model
    whose head favours an id the corpus lacks is still judged."""
    root, corp, make = small_setup
    unused = 399
    assert unused >= len(corp.vocab)
    store = lm.init_model(make(tmp_path).arch, 0)
    # a constant hidden into the head: every step emits the unused id
    store.entries["ln_f.g"][:] = 0.0
    store.entries["ln_f.b"][:] = 0.0
    store.entries["ln_f.b"][0] = 1.0
    store.entries["head"][0, unused] = 30.0
    ck = tmp_path / "unk" / "ckpt_final.json"
    ck.parent.mkdir()
    lm.save_checkpoint(store, ck)
    prompts = []
    score_batch = jd.score_batch

    def recording(endpoint, batch, **kw):
        prompts.extend(batch)
        return score_batch(endpoint, batch, **kw)

    monkeypatch.setattr(jd, "score_batch", recording)
    cfgp = _eval_config(root, tmp_path / "unk.json", tmp_path / "ev", [ck])
    assert cli.main(["eval", "--config", cfgp, "--judge", "mock"]) == 0
    assert prompts and all(f"<unk:{unused}>" in p.text for p in prompts)
    assert cp.decode_text(corp.vocab, [unused]) == f"<unk:{unused}>"
    with pytest.raises(VocabError):
        cp.decode_text(corp.vocab, [-1])


def test_cli_eval_of_list_form_checkpoint_writes_the_same_metrics(
        small_setup, small_theta_o, tmp_path):
    root, corp, make = small_setup
    v03 = tmp_path / "v03" / "ckpt_final.json"
    v03.parent.mkdir()
    save_v03_checkpoint(lm.load_checkpoint(small_theta_o), v03)
    assert isinstance(json.loads(v03.read_text())["params"]["head"]["data"],
                      list)
    outs = []
    for name, ck in (("v03", v03), ("v04", small_theta_o)):
        outs.append(tmp_path / f"ev_{name}")
        cfgp = _eval_config(root, tmp_path / f"{name}.json", outs[-1], [ck])
        assert cli.main(["eval", "--config", cfgp]) == 0
    for fname in ("metrics_ckpt_final.json", "sweep.csv"):
        assert ((outs[0] / fname).read_bytes()
                == (outs[1] / fname).read_bytes())
