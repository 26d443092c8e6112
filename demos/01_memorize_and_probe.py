"""Train a miniature model until it memorizes a synthetic QA corpus, then
probe it with the evaluation metrics.

Runs in well under a minute on a laptop CPU. For the full desk-scale
pipeline use the CLI (see README).
"""

from unlearnlab import corpus as cp
from unlearnlab import lm, metrics as mt, runner
from unlearnlab.objectives import loss_retain
from unlearnlab.optim import OptimizerConfig, SchedulerConfig


def main():
    corp = cp.generate_corpus(
        cp.GenConfig(n_entities=30, forget_fraction=0.2,
                     holdout_fraction=0.1), seed=5)
    print(f"corpus: {len(corp.records)} records, vocab {len(corp.vocab)}")
    rec = corp.split("forget")[0]
    print(f"  sample Q: {rec.question}")
    print(f"  sample A: {rec.answer}")

    arch = lm.ArchConfig(vocab_size=400, context_len=32, d_model=32,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 1)
    epochs = 150
    rows = runner.train(store, corp.records, corp.vocab, loss_retain,
                        runner.RunConfig(
                            arch=arch, optimizer=OptimizerConfig(lr=2e-3),
                            scheduler=SchedulerConfig(kind="linear",
                                                      warmup_fraction=0.05),
                            epochs=epochs, batch_size=16, seed=0))
    steps_per_epoch = len(rows) // epochs
    for epoch in range(50, epochs + 1, 50):
        # losses.csv row: (step, forget, retain, aug, total)
        print(f"epoch {epoch}: NLL {rows[epoch * steps_per_epoch - 1][4]:.3f}")

    vocab = corp.vocab
    prompt, answer = cp.qa_pair_tokens(vocab, rec.question, rec.answer)
    out, _ = lm.decode(store, prompt, lm.Greedy(), 16, eos_id=vocab.eos)[0]
    print(f"greedy answer: {cp.decode_text(vocab, out)}")
    print(f"exact memorization: "
          f"{mt.exact_memorization(store, prompt, answer):.3f}")
    print(f"extraction strength: "
          f"{mt.extraction_strength(store, prompt, answer):.3f}")
    report = mt.evaluate_model(store, corp)
    print(f"memorization={report.memorization:.3f} "
          f"utility={report.utility:.3f} aggregate={report.aggregate:.3f}")


if __name__ == "__main__":
    main()
