"""Shared fixtures.

Heavy artifacts (the memorizing desk-scale model, its retrain comparator,
and the unlearned checkpoints) are trained once per session through the
real runner entry points and reused by the acceptance suite.
"""

import numpy as np
import pytest

from unlearnlab import corpus as cp
from unlearnlab import lm, runner
from unlearnlab.objectives import LossConfig
from unlearnlab.optim import OptimizerConfig, SchedulerConfig

DESK_SEED = 11


def desk_gen_config():
    return cp.GenConfig(n_entities=200, attributes_per_entity=1,
                        forget_fraction=0.1, holdout_fraction=0.1,
                        n_paraphrases=2, n_perturbed=3)


def finetune_config(corpus_path, vocab_path, out_dir):
    return runner.RunConfig(
        corpus_path=str(corpus_path), vocab_path=str(vocab_path),
        arch=runner.desk_arch(),
        optimizer=OptimizerConfig(lr=1e-3, weight_decay=0.01),
        scheduler=SchedulerConfig(kind="linear", warmup_fraction=0.05),
        epochs=200, batch_size=32, loss=LossConfig(kind="ga"),
        seed=0, checkpoint_every=200, out_dir=str(out_dir))


def unlearn_config(corpus_path, vocab_path, out_dir, kind="bst"):
    return runner.RunConfig(
        corpus_path=str(corpus_path), vocab_path=str(vocab_path),
        arch=runner.desk_arch(),
        optimizer=OptimizerConfig(lr=1e-4, weight_decay=0.01),
        scheduler=SchedulerConfig(kind="constant", warmup_fraction=0.0),
        epochs=500, batch_size=32,
        loss=LossConfig(kind=kind, lambda_bst=0.2, k=10, lambda_retain=3.0),
        seed=0, checkpoint_every=500, out_dir=str(out_dir))


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("desk")


@pytest.fixture(scope="session")
def desk_corpus_paths(workdir):
    corp = cp.generate_corpus(desk_gen_config(), seed=DESK_SEED)
    records = workdir / "corpus.jsonl"
    vocab = workdir / "vocab.json"
    cp.save_corpus(corp, records, vocab)
    return records, vocab


@pytest.fixture(scope="session")
def desk_corpus(desk_corpus_paths):
    return cp.load_corpus(*desk_corpus_paths)


@pytest.fixture(scope="session")
def theta_o(desk_corpus_paths, workdir):
    """Memorizing desk-scale checkpoint (the unlearning reference)."""
    records, vocab = desk_corpus_paths
    cfg = finetune_config(records, vocab, workdir / "finetune")
    manifest = runner.run_finetune(cfg)
    path = workdir / "finetune" / manifest.checkpoints[-1]
    return path, lm.load_checkpoint(path), manifest


@pytest.fixture(scope="session")
def retrain_model(desk_corpus_paths, workdir):
    records, vocab = desk_corpus_paths
    cfg = finetune_config(records, vocab, workdir / "retrain")
    manifest = runner.run_retrain(cfg)
    path = workdir / "retrain" / manifest.checkpoints[-1]
    return path, lm.load_checkpoint(path)


@pytest.fixture(scope="session")
def bst_unlearned(desk_corpus_paths, workdir, theta_o):
    records, vocab = desk_corpus_paths
    ref_path, _, _ = theta_o
    cfg = unlearn_config(records, vocab, workdir / "unlearn_bst", kind="bst")
    manifest = runner.run_unlearn(cfg, ref_path)
    path = workdir / "unlearn_bst" / manifest.checkpoints[-1]
    return path, lm.load_checkpoint(path), manifest


@pytest.fixture(scope="session")
def ga_unlearned(desk_corpus_paths, workdir, theta_o):
    records, vocab = desk_corpus_paths
    ref_path, _, _ = theta_o
    cfg = unlearn_config(records, vocab, workdir / "unlearn_ga", kind="ga")
    manifest = runner.run_unlearn(cfg, ref_path)
    path = workdir / "unlearn_ga" / manifest.checkpoints[-1]
    return path, lm.load_checkpoint(path), manifest


# Light fixtures ---------------------------------------------------------------


@pytest.fixture()
def tiny_arch():
    return lm.ArchConfig(vocab_size=12, context_len=16, d_model=8,
                         n_layers=1, n_heads=2)


@pytest.fixture()
def tiny_store(tiny_arch):
    """Small jittered model: peaked enough that losses are non-trivial."""
    store = lm.init_model(tiny_arch, 3)
    rng = np.random.default_rng(0)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.05, store.entries[k].shape)
    return store


@pytest.fixture(scope="session")
def mini_trained():
    """A quickly trained miniature model over a 30-entity corpus; peaked
    distributions for decode/augmentation behavior tests."""
    from unlearnlab.objectives import loss_retain

    corp = cp.generate_corpus(
        cp.GenConfig(n_entities=30, forget_fraction=0.2,
                     holdout_fraction=0.1), seed=5)
    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=32,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 1)
    runner.train(store, corp.records, corp.vocab, loss_retain,
                 runner.RunConfig(
                     arch=arch, optimizer=OptimizerConfig(lr=2e-3),
                     scheduler=SchedulerConfig(kind="linear",
                                               warmup_fraction=0.05),
                     epochs=80, batch_size=16, seed=0))
    return corp, store
