"""Model-belief machinery: top-k belief extraction with renormalization,
soft-target construction, and temperature-sampled sequence augmentation.

A belief is a plain array, computed from the model's current probabilities.
A loss that uses it holds it as an `autodiff.constant`, so no loss can push
parameters through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lm, schema
from .errors import ConfigError, DataError


@dataclass
class BeliefDistribution:
    """Renormalized mass of the k most likely tokens; zero elsewhere. Both
    arrays keep the leading shape of the probabilities they came from."""
    probs: np.ndarray
    support: np.ndarray  # the k retained token ids, most likely first


@dataclass
class SoftTarget:
    """Convex mix of a one-hot label and a gradient-blocked belief."""
    probs: np.ndarray
    lambda_bst: float
    target_id: int


@dataclass
class AugmentedSet:
    """Temperature-sampled responses used as extra forgetting targets."""
    prompt_id: str
    responses: list[list[int]]
    tau: float
    seed: int


def topk_support(probs: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k largest probabilities along the last axis, most likely
    first; ties break toward the lowest id."""
    v = probs.shape[-1]
    if k < 1 or k > v:
        raise ConfigError(f"k must be in [1, {v}], got {k}")
    # Entries below the k-th largest cannot be kept: send them to the end,
    # so that the stable sort orders the candidates by value, then by id.
    neg = -probs
    if k < v:
        kth = np.partition(neg, k - 1, axis=-1)[..., k - 1:k]
        neg = np.where(neg <= kth, neg, np.inf)
    return np.argsort(neg, axis=-1, kind="stable")[..., :k]


def _smoothed(probs: np.ndarray, tau: float) -> np.ndarray:
    """p ** (1/tau), renormalized over the last axis; 1.0 returns `probs`."""
    if tau <= 0:
        raise ConfigError("smoothing_tau must be > 0")
    if tau == 1.0:
        return probs
    probs = probs ** (1.0 / tau)
    return probs / probs.sum(axis=-1, keepdims=True)


def topk_belief(probs: np.ndarray, k: int,
                smoothing_tau: float = 1.0) -> BeliefDistribution:
    """Keep the top-k mass along the last axis and renormalize it to 1.

    `probs` holds probability vectors on its last axis (any leading shape).
    `smoothing_tau` optionally tempers the distribution before truncation
    (p ** (1/tau), renormalized); 1.0 leaves it untouched.
    """
    probs = _smoothed(np.asarray(probs, dtype=np.float64), smoothing_tau)
    support = topk_support(probs, k)
    # The mask, the kept mass and its renormalization share one array, so
    # a [B, R, V] belief allocates one such array besides the top-k sort.
    kept = np.zeros_like(probs)
    np.put_along_axis(kept, support, 1.0, axis=-1)
    kept *= probs
    kept /= kept.sum(axis=-1, keepdims=True)
    return BeliefDistribution(probs=kept, support=support)


def soft_target(belief: BeliefDistribution, target_id: int,
                lambda_bst: float) -> SoftTarget:
    """t = lambda * q + (1 - lambda) * e_target."""
    if not 0.0 <= lambda_bst <= 1.0:
        raise ConfigError("lambda_bst must be in [0, 1]")
    t = lambda_bst * belief.probs.copy()
    t[target_id] += 1.0 - lambda_bst
    return SoftTarget(probs=t, lambda_bst=lambda_bst, target_id=int(target_id))



def sample_augmentations(store: lm.ParamStore, prompts, prompt_ids, n: int,
                         tau: float, seed: int, max_len: int,
                         eos_id: int | None, counters) -> list[AugmentedSet]:
    """Draw n independent temperature-decoded responses from the live model
    for each prompt, all in one lock-step decode.

    Response j of prompt i is drawn with seed `_mix(seed, counters[i], j)`,
    so a set is deterministic in (seed, counter) and independent of the
    other prompts: trainers bump the counter per prompt so augmentations
    track the current model while staying reproducible.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    strategies = [lm.Temperature(tau=tau, seed=_mix(seed, c, j))
                  for c in counters for j in range(n)]
    outs = lm.decode_batch(store, [p for p in prompts for _ in range(n)],
                           strategies, max_len, eos_id=eos_id)
    toks = [t for t, _ in outs]
    return [AugmentedSet(prompt_id=pid, responses=toks[i * n:(i + 1) * n],
                         tau=tau, seed=seed)
            for i, pid in enumerate(prompt_ids)]


def _mix(seed: int, counter: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, counter, j]).generate_state(1)[0])


def save_augmented_sets(sets, path):
    """Audit log: one JSON line per augmented set."""
    import json

    with lm.atomic_write(path) as f:
        for s in sets:
            f.write(json.dumps(
                {"prompt_id": s.prompt_id, "tau": s.tau, "seed": s.seed,
                 "responses": [list(map(int, r)) for r in s.responses]},
                sort_keys=True) + "\n")


def load_augmented_sets(path) -> list[AugmentedSet]:
    return schema.load_lines(AugmentedSet, path, "augmented-set file",
                             DataError)
