"""Model-belief machinery: top-k belief extraction with renormalization,
soft-target construction, and temperature-sampled sequence augmentation.

A belief is a plain array, computed from the model's current probabilities.
A loss that uses it holds it as an `autodiff.constant`, so no loss can push
parameters through it.
"""

from __future__ import annotations

import numpy as np

from . import lm
from .errors import ConfigError


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
                smoothing_tau: float = 1.0) -> np.ndarray:
    """Keep the top-k mass along the last axis and renormalize it to 1;
    zero elsewhere. The kept ids are `topk_support(probs, k)`.

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
    return kept


def soft_target(belief: np.ndarray, target_id: int,
                lambda_bst: float) -> np.ndarray:
    """t = lambda * q + (1 - lambda) * e_target, for one belief vector q."""
    if not 0.0 <= lambda_bst <= 1.0:
        raise ConfigError("lambda_bst must be in [0, 1]")
    t = lambda_bst * belief
    t[target_id] += 1.0 - lambda_bst
    return t


def sample_augmentations(store: lm.ParamStore, prompts, n: int, tau: float,
                         seed: int, max_len: int, eos_id: int | None,
                         counters) -> list[list[list[int]]]:
    """Draw n independent temperature-decoded responses from the live model
    for each prompt, all in one lock-step decode; returns each prompt's n
    responses as token lists.

    Response j of prompt i is drawn with seed `_mix(seed, counters[i], j)`,
    so a prompt's responses are deterministic in (seed, counter) and
    independent of the other prompts: trainers bump the counter per prompt
    so augmentations track the current model while staying reproducible.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    seeds = [_mix(seed, c, j) for c in counters for j in range(n)]
    outs = lm.decode_batch(store, [p for p in prompts for _ in range(n)],
                           max_len, eos_id=eos_id, seeds=seeds, tau=tau)
    toks = [t for t, _ in outs]
    return [toks[i * n:(i + 1) * n] for i in range(len(prompts))]


def _mix(seed: int, counter: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, counter, j]).generate_state(1)[0])

