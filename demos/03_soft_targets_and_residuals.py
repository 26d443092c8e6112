"""The token-level belief machinery, worked through in plain numpy:

* top-k belief extraction with renormalization,
* the soft target mixing a one-hot label with that belief,
* the per-position loss residuals (gradient w.r.t. logits) for plain
  ascent vs the belief-softened loss, and the off-target difference
  identity that separates them.
"""

import numpy as np

from unlearnlab import beliefs, dynamics as dy


def main():
    pi = np.array([0.5, 0.3, 0.2])
    y = 0
    print(f"model distribution pi = {pi}, label y = {y}")

    bel = beliefs.topk_belief(pi, k=2)
    support = beliefs.topk_support(pi, k=2)
    print(f"top-2 belief q = {bel}  (support {support.tolist()})")

    lam = 0.2
    t = beliefs.soft_target(bel, y, lam)
    print(f"soft target t = {t}  (lambda = {lam})")

    g_ga = dy.residual("ga", pi, y)
    g_bst = dy.residual("bst", pi, y, bel, lam)
    print(f"residual, plain ascent:      {g_ga}")
    print(f"residual, belief-softened:   {g_bst}")

    diff = g_bst - g_ga
    print(f"difference:                  {diff}")
    print(f"lambda * q off-target:       {lam * bel}")
    off = [v for v in range(3) if v != y]
    assert np.allclose(diff[off], lam * bel[off], atol=1e-12)
    print("off-target identity holds: the softened loss adds lambda*q[v] of "
          "extra push-down exactly on the model's own likely tokens.")


if __name__ == "__main__":
    main()
