"""Acceptance gate.

One test per criterion; each prints a single pass/fail line and asserts at
the stated tolerance. The desk-scale pipeline artifacts (memorizing model,
unlearned checkpoints, retrain comparator) come from session fixtures that
run the real runner entry points.
"""

import csv
import json
import shutil
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import beliefs, cli, corpus as cp, dynamics as dy
from unlearnlab import judge as jd
from unlearnlab import lm
from unlearnlab import metrics as mt
from unlearnlab import objectives as ob
from unlearnlab import runner

from conftest import unlearn_config


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# Criterion 1: gradient oracle suite
# --------------------------------------------------------------------------


def _rand_model(rng):
    arch = lm.ArchConfig(vocab_size=12, context_len=16, d_model=8,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, int(rng.integers(2 ** 31)))
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.06, store.entries[k].shape)
    return store


def _rand_batch(rng, v=12, max_pairs=3):
    pairs = []
    for _ in range(int(rng.integers(1, max_pairs + 1))):
        p = list(rng.integers(0, v, int(rng.integers(1, 4))))
        r = list(rng.integers(0, v, int(rng.integers(1, 5))))
        pairs.append((p, r))
    return pairs


def _fd_check(lv, tensors, rng, n_components=4):
    gs = dict(zip(sorted(tensors),
                  ad.grad(lv.scalar, [tensors[n] for n in sorted(tensors)])))
    worst = 0.0
    names = rng.choice(sorted(tensors), size=2, replace=False)
    for name in names:
        flat = tensors[name].value.reshape(-1)
        for j in rng.choice(flat.size, size=min(n_components, flat.size),
                            replace=False):
            orig = flat[j]
            flat[j] = orig + 1e-5
            hi = float(ad.evaluate(lv.scalar))
            flat[j] = orig - 1e-5
            lo = float(ad.evaluate(lv.scalar))
            flat[j] = orig
            fd = (hi - lo) / 2e-5
            g = gs[name].reshape(-1)[j]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-6))
    ad.evaluate(lv.scalar)
    return worst


def test_criterion_1_gradient_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = {k: 0.0 for k in
             ["ga", "graddiff", "npo", "wga", "bst", "bss", "retain"]}
    for draw in range(100):
        store = _rand_model(rng)
        batch = _rand_batch(rng)
        retain = _rand_batch(rng)
        ref = store.snapshot()
        for k in ref.entries:
            ref.entries[k] = ref.entries[k] + rng.normal(
                0, 0.01, ref.entries[k].shape)
        augs = [beliefs.AugmentedSet(
            prompt_id=f"d{draw}_{i}",
            responses=[list(rng.integers(0, 12, int(rng.integers(1, 4))))
                       for _ in range(2)], tau=1.0, seed=0)
            for i in range(len(batch))]
        cases = {
            "ga": lambda t: ob.loss_ga(store, batch, tensors=t),
            "graddiff": lambda t: ob.step_loss(
                ob.LossConfig(kind="graddiff", lambda_retain=1.5), store,
                batch, retain, tensors=t),
            "npo": lambda t: ob.loss_npo(store, ref, batch, 0.1, tensors=t),
            "wga": lambda t: ob.loss_wga(store, batch, 1.0, tensors=t),
            "bst": lambda t: ob.loss_bst(store, batch, 0.3, 5, tensors=t),
            "bss": lambda t: ob.loss_bss(
                store, batch, augs, 0.4,
                ob.LossConfig(kind="bss", base_loss="bst"), tensors=t),
            "retain": lambda t: ob.loss_retain(store, retain, tensors=t),
        }
        for kind, make in cases.items():
            tensors = lm.param_tensors(store)
            worst[kind] = max(worst[kind],
                              _fd_check(make(tensors), tensors, rng))
    elapsed = time.time() - t0
    ok = all(w <= 1e-4 for w in worst.values()) and elapsed <= 120
    report(1, ok,
           f"grad vs FD over 100 draws x 7 losses, worst rel err "
           f"{max(worst.values()):.2e} (<=1e-4), {elapsed:.0f}s (<=120s)")


# --------------------------------------------------------------------------
# Criterion 2: residual identity and autodiff match
# --------------------------------------------------------------------------


def test_criterion_2_residual_identities():
    rng = np.random.default_rng(7)
    worst_id = 0.0
    for _ in range(120):
        v = int(rng.integers(3, 20))
        pi = rng.dirichlet(np.ones(v) * rng.uniform(0.2, 4.0))
        k = int(rng.integers(1, v + 1))
        lam = float(rng.uniform())
        y = int(rng.integers(v))
        bel = beliefs.topk_belief(pi, k)
        diff = (dy.residual("bst", pi, y, bel, lam)
                - dy.residual("ga", pi, y))
        off = np.arange(v) != y
        worst_id = max(worst_id,
                       float(np.max(np.abs(diff[off] - lam * bel.probs[off]))))
    worst_ad = 0.0
    for _ in range(20):
        v = 9
        z_val = rng.normal(size=(1, 1, v))
        pi = np.exp(lm._log_softmax_np(z_val))[0, 0]
        y = int(rng.integers(v))
        k = int(rng.integers(1, v + 1))
        lam = float(rng.uniform())
        z = ad.leaf(z_val)
        lp = ad.log_softmax(z)
        g_ga = ad.grad(ad.element(lp, (0, 0, y)), [z])[0][0, 0]
        worst_ad = max(worst_ad, float(np.max(np.abs(
            g_ga - dy.residual("ga", pi, y)))))
        z = ad.leaf(z_val)
        lp = ad.log_softmax(z)
        q = beliefs.belief_node(ad.exp(lp), k)
        root = ad.add(ad.scale(ad.element(lp, (0, 0, y)), 1 - lam),
                      ad.scale(ad.sum_all(ad.mul(q, lp)), lam))
        g_bst = ad.grad(root, [z])[0][0, 0]
        bel = beliefs.topk_belief(pi, k)
        worst_ad = max(worst_ad, float(np.max(np.abs(
            g_bst - dy.residual("bst", pi, y, bel, lam)))))
    ok = worst_id <= 1e-10 and worst_ad <= 1e-10
    report(2, ok,
           f"off-target identity worst {worst_id:.2e} and autodiff-residual "
           f"worst {worst_ad:.2e} (both <=1e-10) over 120 draws")


# --------------------------------------------------------------------------
# Criterion 3: one-step prediction error scales like eta^2
# --------------------------------------------------------------------------


def test_criterion_3_akg_eta_scaling():
    t0 = time.time()
    arch = lm.ArchConfig(vocab_size=48, context_len=24, d_model=12,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 5)
    rng = np.random.default_rng(2)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.08, store.entries[k].shape)
    assert store.param_count() <= 20_000
    chi = dy.Chi(prompt=[1, 2, 3, 4], response=[5, 6, 7, 1])
    slope, _ = dy.eta_scaling_slope(store, chi, chi, ob.LossConfig(kind="ga"),
                                    etas=(1e-3, 5e-4, 2.5e-4))
    elapsed = time.time() - t0
    ok = slope >= 1.7 and elapsed <= 60
    report(3, ok, f"log-log error slope {slope:.3f} (>=1.7) on "
                  f"{store.param_count()}-param model, {elapsed:.0f}s (<=60s)")


# --------------------------------------------------------------------------
# Criterion 4: reduction identities
# --------------------------------------------------------------------------


def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(77)
    store = _rand_model(rng)
    batch = _rand_batch(rng)
    retain = _rand_batch(rng)
    augs = [beliefs.AugmentedSet(
        prompt_id=f"a{i}", responses=[[5, 1], [3, 2, 1]], tau=1.0, seed=0)
        for i in range(len(batch))]
    ga = ob.loss_ga(store, batch).value
    checks = {
        "graddiff(0)==ga": abs(
            ob.step_loss(ob.LossConfig(kind="graddiff", lambda_retain=0.0),
                         store, batch, retain).value - ga),
        "wga(0)==ga": abs(ob.loss_wga(store, batch, 0.0).value - ga),
        "bst(0)==ga": abs(ob.loss_bst(store, batch, 0.0, 5).value - ga),
        "bss(0)==base": abs(ob.loss_bss(
            store, batch, augs, 0.0,
            ob.LossConfig(kind="bss", base_loss="ga")).value - ga),
    }
    worst_red = max(checks.values())
    worst_npo = 0.0
    ref = store.snapshot()
    for beta in (0.05, 0.1, 0.5, 1.0):
        got = ob.loss_npo(store, ref, batch, beta).value
        worst_npo = max(worst_npo, abs(got - (2 / beta) * np.log(2.0)))
    ok = worst_red <= 1e-12 and worst_npo <= 1e-9
    report(4, ok, f"reductions worst {worst_red:.2e} (<=1e-12), "
                  f"npo-at-reference worst {worst_npo:.2e} (<=1e-9)")


# --------------------------------------------------------------------------
# Criterion 5: arithmetic spot-checks against published values
# --------------------------------------------------------------------------


def test_criterion_5_spot_checks():
    agg = mt.harmonic_mean([0.58, 0.71])
    parsed = jd.parse_score("2.5864")
    ok = round(agg, 2) == 0.64 and parsed == 2.5864
    report(5, ok, f"HM(0.58, 0.71)={agg:.4f} rounds to 0.64; "
                  f"parse('2.5864')={parsed}")


# --------------------------------------------------------------------------
# Criterion 6: metric oracles
# --------------------------------------------------------------------------


def brute_lcs(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(0)
    exact = True
    for _ in range(1000):
        ref = list(rng.integers(0, 6, rng.integers(1, 21)))
        hyp = list(rng.integers(0, 6, rng.integers(0, 21)))
        l = brute_lcs(ref, hyp)
        if not hyp or l == 0:
            want = 0.0
        else:
            p, r = l / len(hyp), l / len(ref)
            want = 2 * p * r / (p + r)
        if mt.rouge_l_f1(ref, hyp) != want:
            exact = False
            break

    corus = cp.generate_corpus(
        cp.GenConfig(n_entities=12, forget_fraction=0.25,
                     holdout_fraction=0.25), seed=2)
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=16,
                         n_layers=1, n_heads=2)
    in_range = True
    for variant in ("random", "constant"):
        store = lm.init_model(arch, 4)
        if variant == "constant":
            store.entries["ln_f.g"][:] = 0.0
            store.entries["ln_f.b"][:] = 0.0
            store.entries["ln_f.b"][0] = 1.0
            store.entries["head"][:, :] = 0.0
            store.entries["head"][0, :] = -30.0
            store.entries["head"][0, 37] = 30.0
        rep = mt.evaluate_model(store, corus)
        vals = [rep.memorization, rep.utility, rep.aggregate]
        vals += [v for s in rep.per_split.values() for v in s.values()]
        in_range &= all(0.0 <= v <= 1.0 for v in vals)
    ok = exact and in_range
    report(6, ok, "rouge_l_f1 == brute-force LCS on 1000 pairs exactly; "
                  "metrics in range on random and degenerate checkpoints")


# --------------------------------------------------------------------------
# Criterion 7: end-to-end desk-scale pipeline
# --------------------------------------------------------------------------


def test_criterion_7_end_to_end(desk_corpus, theta_o, bst_unlearned,
                                ga_unlearned):
    t_eval = time.time()
    _, theta_store, ft_manifest = theta_o
    _, bst_store, bst_manifest = bst_unlearned
    _, ga_store, ga_manifest = ga_unlearned
    vocab = desk_corpus.vocab
    forget = desk_corpus.split("forget")

    def forget_em(store):
        return float(np.mean([mt.exact_memorization(
            store, *cp.qa_pair_tokens(vocab, r.question, r.answer))
            for r in forget]))

    def retain_np(store):
        return float(np.mean([mt.normalized_probability(
            store, *cp.qa_pair_tokens(vocab, r.question, r.answer))
            for r in desk_corpus.split("retain")]))

    em_0 = forget_em(theta_store)
    em_bst = forget_em(bst_store)
    ratio = retain_np(bst_store) / retain_np(theta_store)
    em_ga = forget_em(ga_store)
    deg_ga = float(np.mean([mt.degeneracy_score(
        lm.decode(ga_store, cp.qa_pair_tokens(vocab, r.question, r.answer)[0],
                  lm.Greedy(), 16, eos_id=vocab.eos)[0][0])
        for r in forget]))
    eval_secs = time.time() - t_eval
    total = (ft_manifest.wall_clock_seconds + bst_manifest.wall_clock_seconds
             + ga_manifest.wall_clock_seconds + eval_secs)
    ga_ok = em_ga <= 0.3 or deg_ga >= 0.5
    ok = (em_0 >= 0.95 and em_bst <= 0.3 and ratio >= 0.7 and ga_ok
          and total <= 900)
    report(7, ok,
           f"finetune EM={em_0:.3f} (>=0.95); unlearned EM={em_bst:.3f} "
           f"(<=0.3) with retain ratio={ratio:.3f} (>=0.7); GA EM={em_ga:.3f}"
           f"/degeneracy={deg_ga:.2f} (either clause); "
           f"runtime {total:.0f}s (<=900s)")


def test_finetune_nll_non_increasing(theta_o, desk_corpus):
    path, _, manifest = theta_o
    out = Path(path).parent
    with open(out / "losses.csv") as f:
        rows = list(csv.DictReader(f))
    epochs = manifest.config["epochs"]
    # Record-weighted per-epoch NLL: the last partial batch carries its true
    # share, so this is the epoch's mean NLL over the training records.
    n_records = len(desk_corpus.records)
    bs = manifest.config["batch_size"]
    sizes = [bs] * (n_records // bs) + ([n_records % bs]
                                        if n_records % bs else [])
    w = np.array(sizes, float)
    w /= w.sum()
    spe = len(sizes)
    per_epoch = [float(np.dot(w, [float(r["total"]) for r in
                                  rows[e * spe:(e + 1) * spe]]))
                 for e in range(epochs)]
    drops = sum(1 for a, b in zip(per_epoch, per_epoch[1:]) if b <= a + 1e-9)
    frac = drops / (len(per_epoch) - 1)
    print(f"[INFO] finetune NLL non-increasing on {frac:.2%} of epoch pairs")
    assert frac >= 0.9


def test_original_vs_retrain_memorization_ordering(desk_corpus, theta_o,
                                                   retrain_model):
    _, theta_store, _ = theta_o
    _, retrain_store = retrain_model
    mem_o = mt.evaluate_model(theta_store, desk_corpus).memorization
    mem_r = mt.evaluate_model(retrain_store, desk_corpus).memorization
    print(f"[INFO] Mem(theta_o)={mem_o:.3f} < Mem(retrain)={mem_r:.3f}")
    assert mem_o < mem_r
    assert mem_o <= 0.1  # fully memorizing checkpoint


# --------------------------------------------------------------------------
# Criterion 8: squeezing-effect reproduction
# --------------------------------------------------------------------------


def test_criterion_8_squeezing(desk_corpus_paths, theta_o, tmp_path):
    records, vocab_path = desk_corpus_paths
    ref_path, _, _ = theta_o
    rises = 0
    epochs = 10
    bands_csv_found = True
    for seed in range(10):
        cfg = unlearn_config(records, vocab_path, tmp_path / f"sq{seed}",
                             kind="ga")
        cfg.loss.lambda_retain = 0.0
        cfg.epochs = epochs
        cfg.batch_size = 8
        cfg.seed = seed
        cfg.checkpoint_every = epochs
        cfg.squeeze_prompts = 10
        cfg.beam_width = 15
        runner.run_squeeze(cfg, ref_path)
        out = Path(cfg.out_dir)
        bands_csv_found &= (out / "bands.csv").exists()
        with open(out / "bands.csv") as f:
            rows = [r for r in csv.DictReader(f) if r["band"] == "high"]
        hi = [float(r["mean_logprob"]) for r in
              sorted(rows, key=lambda r: int(r["epoch"]))]
        t20 = max(1, int(round(0.2 * epochs)))
        rises += hi[t20] > hi[0]
    ok = rises >= 7 and bands_csv_found
    report(8, ok, f"high-band logprob rose in first 20% of steps in "
                  f"{rises}/10 seeded GA runs (>=7); bands.csv emitted")


# --------------------------------------------------------------------------
# Criterion 9: byte-identical determinism per subcommand
# --------------------------------------------------------------------------


def _rerun_and_compare(args, out_dir):
    out = Path(out_dir)
    assert cli.main(args) == 0
    snap = out.parent / (out.name + "_snapshot")
    shutil.copytree(out, snap)
    shutil.rmtree(out)
    assert cli.main(args) == 0
    mismatches = []
    for p in sorted(snap.rglob("*")):
        if p.is_file():
            q = out / p.relative_to(snap)
            if not q.exists() or q.read_bytes() != p.read_bytes():
                mismatches.append(str(p.relative_to(snap)))
    return mismatches


def test_criterion_9_determinism(tmp_path):
    corp_dir = tmp_path / "corpus"
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "run": {"seed": 3, "out_dir": str(corp_dir)},
        "gen": {"n_entities": 12, "forget_fraction": 0.25,
                "holdout_fraction": 0.25},
    }))
    arch = {"vocab_size": 400, "context_len": 32, "d_model": 16,
            "n_layers": 1, "n_heads": 2, "tie_output_head": False}
    base_run = {
        "corpus_path": str(corp_dir / "corpus.jsonl"),
        "vocab_path": str(corp_dir / "vocab.json"),
        "arch": arch, "epochs": 6, "batch_size": 8, "seed": 0,
        "checkpoint_every": 6,
        "optimizer": {"lr": 1e-3}, "scheduler": {"kind": "linear",
                                                 "warmup_fraction": 0.1},
        "loss": {"kind": "bst", "lambda_bst": 0.2, "k": 5,
                 "lambda_retain": 1.0},
        "squeeze_prompts": 3, "beam_width": 12,
    }
    mismatches = _rerun_and_compare(["gen-corpus", "--config", str(gen_cfg)],
                                    corp_dir)

    ft_dir = tmp_path / "ft"
    ft_cfg = tmp_path / "ft.json"
    ft_cfg.write_text(json.dumps(
        {"run": dict(base_run, out_dir=str(ft_dir), loss={"kind": "ga"})}))
    mismatches += _rerun_and_compare(["finetune", "--config", str(ft_cfg)],
                                     ft_dir)
    ref = str(ft_dir / "ckpt_final.json")

    rt_dir = tmp_path / "rt"
    rt_cfg = tmp_path / "rt.json"
    rt_cfg.write_text(json.dumps(
        {"run": dict(base_run, out_dir=str(rt_dir), loss={"kind": "ga"})}))
    mismatches += _rerun_and_compare(["retrain", "--config", str(rt_cfg)],
                                     rt_dir)

    un_dir = tmp_path / "un"
    un_cfg = tmp_path / "un.json"
    un_cfg.write_text(json.dumps({
        "run": dict(base_run, out_dir=str(un_dir)),
        "reference_checkpoint": ref}))
    mismatches += _rerun_and_compare(["unlearn", "--config", str(un_cfg)],
                                     un_dir)

    ev_dir = tmp_path / "ev"
    ev_cfg = tmp_path / "ev.json"
    ev_cfg.write_text(json.dumps({
        "run": dict(base_run, out_dir=str(ev_dir)),
        "reference_checkpoint": ref,
        "eval_checkpoints": [str(un_dir / "ckpt_final.json")],
        "judge": "mock"}))
    mismatches += _rerun_and_compare(["eval", "--config", str(ev_cfg)],
                                     ev_dir)

    dyn_dir = tmp_path / "dyn"
    dyn_cfg = tmp_path / "dyn.json"
    dyn_arch = dict(arch, d_model=8)
    dyn_cfg.write_text(json.dumps(
        {"run": dict(base_run, out_dir=str(dyn_dir), arch=dyn_arch,
                     loss={"kind": "ga"})}))
    mismatches += _rerun_and_compare(["dynamics", "--config", str(dyn_cfg)],
                                     dyn_dir)

    sq_dir = tmp_path / "sq"
    sq_cfg = tmp_path / "sq.json"
    sq_cfg.write_text(json.dumps({
        "run": dict(base_run, out_dir=str(sq_dir), epochs=3, batch_size=2,
                    loss={"kind": "ga"}),
        "reference_checkpoint": ref}))
    mismatches += _rerun_and_compare(["squeeze", "--config", str(sq_cfg)],
                                     sq_dir)

    ok = not mismatches
    report(9, ok, "rerun of gen-corpus/finetune/retrain/unlearn/eval/"
                  "dynamics/squeeze reproduced every output file "
                  f"byte-identically{'' if ok else ': ' + str(mismatches)}")
