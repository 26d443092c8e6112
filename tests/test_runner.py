import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from unlearnlab import cli, corpus as cp, lm, runner
from unlearnlab import judge as jd
from unlearnlab.errors import ConfigError
from unlearnlab.objectives import LossConfig
from unlearnlab.optim import AdamW, OptimizerConfig, SchedulerConfig, lr_at


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
        SchedulerConfig(kind="cosine").validate()
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="linear", warmup_fraction=1.0).validate()


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
    assert manifest.checkpoints[-1] == "ckpt_final.json"
    for ck in manifest.checkpoints:
        assert (out / ck).exists()
    doc = json.loads((out / "manifest.json").read_text())
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
        out, _ = lm.decode(store, prompt, lm.Greedy(), 16,
                           eos_id=vocab.eos)[0]
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
    assert (tmp_path / "dyn" / "dynamics_report.json").exists()


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
    assert (tmp_path / "sw" / "sweep.csv").exists()
    assert {r["loss.lambda_bst"] for r in rows} == {0.1, 0.3}


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


@pytest.mark.parametrize("write", [
    lambda p: runner._write_csv(p, ["a"], [[1.5], [_Unprintable()]]),
    lambda p: runner._write_json({"a": 1, "b": {1, 2}}, p),
], ids=["csv", "json"])
def test_output_writes_are_atomic(write, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_run_config_roundtrip_and_unknown_keys():
    cfg = runner.RunConfig()
    doc = cfg.to_dict()
    again = runner.RunConfig.from_dict(doc)
    assert again == cfg
    with pytest.raises(ConfigError):
        runner.RunConfig.from_dict({"no_such_key": 1})


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
    assert rc in (1, 3)


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
])
def test_cli_config_errors_exit_2(command, doc, key, tmp_path, capsys):
    doc.setdefault("run", {})["out_dir"] = str(tmp_path / "out")
    cfgp = _write_config(tmp_path / "c.json", doc)
    assert cli.main([command, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


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
