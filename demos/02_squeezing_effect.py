"""Watch plain ascent-style unlearning squeeze probability mass into the
model's own high-likelihood alternatives.

Beam-search candidates are drawn once from the memorizing model, banded by
their initial sequence log-probability (top 20% / next 40% / rest), and
re-scored after every unlearning epoch. The high band rises first: the mass
pushed off the target lands on the nearest high-confidence neighbors.
"""

from functools import partial

from unlearnlab import corpus as cp
from unlearnlab import dynamics as dy
from unlearnlab import lm, runner
from unlearnlab.objectives import LossConfig, forget_loss, loss_retain
from unlearnlab.optim import OptimizerConfig, SchedulerConfig

ARCH = lm.ArchConfig(vocab_size=400, context_len=32, d_model=32, n_layers=1,
                     n_heads=2)


def train_memorizer(corp, seed=1):
    store = lm.init_model(ARCH, seed)
    runner.train(store, corp.records, corp.vocab, loss_retain,
                 runner.RunConfig(
                     arch=ARCH, optimizer=OptimizerConfig(lr=2e-3),
                     scheduler=SchedulerConfig(kind="linear",
                                               warmup_fraction=0.05),
                     epochs=200, batch_size=16, seed=0))
    return store


def main():
    corp = cp.generate_corpus(
        cp.GenConfig(n_entities=30, forget_fraction=0.2,
                     holdout_fraction=0.1), seed=5)
    vocab = corp.vocab
    store = train_memorizer(corp)
    forget = corp.split("forget")

    prompts, refs = [], []
    for rec in forget[:5]:
        p, a = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
        prompts.append((rec.id, p))
        refs.append(a)

    # unlearn with plain ascent, snapshotting each epoch
    snaps = [store.snapshot()]
    runner.train(store, forget, vocab,
                 partial(forget_loss, LossConfig(kind="ga")),
                 runner.RunConfig(
                     arch=ARCH, optimizer=OptimizerConfig(lr=1e-4),
                     scheduler=SchedulerConfig(kind="constant",
                                               warmup_fraction=0.0),
                     epochs=10, batch_size=4, seed=0),
                 on_epoch=lambda _: snaps.append(store.snapshot()))

    means, _ = dy.squeeze_trace(snaps, prompts, 15, max_len=12,
                                eos_id=vocab.eos, exclude_responses=refs)
    print("epoch   high      mid       low")
    for e, row in enumerate(means.mean(0)):
        print(f"{e:5d}  {row[0]:8.3f}  {row[1]:8.3f}  {row[2]:8.3f}")
    print("\nhigh band first rises (mass squeezed into neighbors), then "
          "collapses as ascent keeps pushing.")


if __name__ == "__main__":
    main()
