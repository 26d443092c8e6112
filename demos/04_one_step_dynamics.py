"""Numerically verify the one-SGD-step decomposition of log-probability
change: predicted = -eta * A K G (softmax Jacobian, empirical NTK, loss
residual) against an actual parameter step, and show that the error shrinks
like eta^2.
"""

import numpy as np

from unlearnlab import dynamics as dy
from unlearnlab import lm
from unlearnlab.objectives import LossConfig


def main():
    arch = lm.ArchConfig(vocab_size=48, context_len=24, d_model=12,
                         n_layers=1, n_heads=2)
    store = lm.init_model(arch, 5)
    rng = np.random.default_rng(2)
    for k in store.entries:
        store.entries[k] = store.entries[k] + rng.normal(
            0, 0.08, store.entries[k].shape)
    print(f"model: {store.param_count()} parameters")

    pair = ([1, 2, 3, 4], [5, 6, 7, 1])
    print("\n  eta        max |actual - predicted|")
    slope, _, per_eta = dy.eta_scaling_slope(store, pair, pair,
                                             LossConfig(kind="ga"))
    for run in per_eta:
        print(f"  {run['eta']:8.1e}  {run['max_first_order_error']:.3e}")
    print(f"\nlog-log slope = {slope:.3f}  (2.0 means a clean eta^2 "
          f"remainder)")

    predicted = per_eta[0]["positions"][0]["predicted_delta_logpi"]
    y = pair[1][0]
    print(f"predicted change of log pi at the labeled token: "
          f"{predicted[y]:+.5f} (ascent pushes it down)")


if __name__ == "__main__":
    main()
