"""Unlearning losses as differentiable graph builders.

All losses minimize the stated objective directly: the plain ascent loss is
the (positive) mean sequence log-likelihood, so gradient descent on it
performs ascent on the NLL. Sequence likelihoods are handled in log-space
throughout; the preference-ratio loss is computed as a softplus of
log-likelihood differences so nothing underflows.

Diagnostics are weighted contributions: for every kind,
scalar == forget_term + retain_term + aug_term (absent terms are zero).
For the belief-softened token loss, `forget_term` is the one-hot label part
and `aug_term` the gradient-blocked belief part.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import beliefs, lm
from .errors import ConfigError, DataError

Pair = tuple[list[int], list[int]]  # (prompt tokens, response tokens)


@dataclass
class LossConfig:
    kind: str = "ga"
    lambda_retain: float = 0.0
    beta: float = 0.1
    alpha: float = 1.0
    lambda_bst: float = 0.2
    k: int = 10
    lambda_bss: float = 0.6
    n_aug: int = 4
    tau: float = 1.0
    base_loss: str = "bst"
    belief_smoothing_tau: float = 1.0

    def validate(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.lambda_retain < 0:
            raise ConfigError("lambda_retain must be >= 0")
        if self.beta <= 0:
            raise ConfigError("beta must be > 0")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if not 0.0 <= self.lambda_bst <= 1.0:
            raise ConfigError("lambda_bst must be in [0, 1]")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 0.0 <= self.lambda_bss <= 1.0:
            raise ConfigError("lambda_bss must be in [0, 1]")
        if self.n_aug < 1:
            raise ConfigError("n_aug must be >= 1")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        if self.base_loss not in BASE_KINDS:
            raise ConfigError(f"base_loss must be one of {BASE_KINDS}")
        if self.belief_smoothing_tau <= 0:
            raise ConfigError("belief_smoothing_tau must be > 0")

    def to_dict(self):
        return asdict(self)


@dataclass
class LossValue:
    scalar: ad.Node
    diagnostics: dict[str, float]
    param_tensors: dict[str, ad.Node] = field(repr=False, default_factory=dict)

    @property
    def value(self) -> float:
        return float(self.scalar.value)


def _check_batch(batch):
    if not batch:
        raise DataError("batch must be non-empty")


def _pad_batch(pairs: list[Pair]):
    """Pad prompt+response sequences and index the response positions.

    Returns (tokens [B, T], tgt_pos [B, R], tgt_ids [B, R], mask [B, R]):
    row tgt_pos[b, i] is the logit row predicting response token i, which is
    tgt_ids[b, i]; mask flags real (unpadded) response slots.
    """
    b = len(pairs)
    t = max(len(p) + len(r) for p, r in pairs)
    r_max = max(len(r) for _, r in pairs)
    tokens = np.zeros((b, t), dtype=np.int64)
    tgt_pos = np.zeros((b, max(r_max, 1)), dtype=np.int64)
    tgt_ids = np.zeros((b, max(r_max, 1)), dtype=np.int64)
    mask = np.zeros((b, max(r_max, 1)))
    for i, (p, r) in enumerate(pairs):
        if not p:
            raise DataError("prompt must be non-empty")
        seq = list(p) + list(r)
        tokens[i, :len(seq)] = seq
        for j, y in enumerate(r):
            tgt_pos[i, j] = len(p) - 1 + j
            tgt_ids[i, j] = y
            mask[i, j] = 1.0
    return tokens, tgt_pos, tgt_ids, mask


def _tensors_or(store: lm.ParamStore, tensors):
    return tensors if tensors is not None else lm.param_tensors(store)


def _seq_logprob_graph(store, pairs, tensors):
    """Per-sequence log-likelihood node [B] plus reusable intermediates."""
    tokens, tgt_pos, tgt_ids, mask = _pad_batch(pairs)
    logits = lm.build_logits(tensors, store.arch, tokens)
    logprobs = ad.log_softmax(logits)
    lp_rows = ad.gather_positions(logprobs, tgt_pos)     # [B, R, V]
    lp_y = ad.take_last(lp_rows, tgt_ids)                # [B, R]
    masked = ad.mul(lp_y, ad.constant(mask))
    seq_lp = ad.sum_axis(masked, axis=1)                 # [B]
    return seq_lp, lp_rows, lp_y, tgt_ids, mask


def batch_sequence_logprobs(store: lm.ParamStore, pairs: list[Pair]) -> np.ndarray:
    """Plain-numpy per-sequence log-likelihoods (no graph)."""
    tokens, tgt_pos, tgt_ids, mask = _pad_batch(pairs)
    lp = lm._log_softmax_np(lm.batch_logits(store, tokens))
    bidx = np.arange(len(pairs))[:, None]
    lp_y = lp[bidx, tgt_pos, tgt_ids]
    return (lp_y * mask).sum(axis=1)


# Loss builders ---------------------------------------------------------------


def loss_ga(store: lm.ParamStore, forget_batch: list[Pair],
            tensors=None) -> LossValue:
    """Mean sequence log-likelihood; minimizing it is ascent on the NLL."""
    _check_batch(forget_batch)
    tensors = _tensors_or(store, tensors)
    seq_lp, *_ = _seq_logprob_graph(store, forget_batch, tensors)
    scalar = ad.mean_all(seq_lp)
    return LossValue(scalar,
                     {"forget_term": float(scalar.value),
                      "retain_term": 0.0, "aug_term": 0.0},
                     tensors)


def loss_retain(store: lm.ParamStore, retain_batch: list[Pair],
                tensors=None) -> LossValue:
    """Mean NLL on retain pairs; composed additively with any forget loss."""
    _check_batch(retain_batch)
    tensors = _tensors_or(store, tensors)
    seq_lp, *_ = _seq_logprob_graph(store, retain_batch, tensors)
    scalar = ad.scale(ad.mean_all(seq_lp), -1.0)
    return LossValue(scalar,
                     {"forget_term": 0.0,
                      "retain_term": float(scalar.value), "aug_term": 0.0},
                     tensors)


def loss_npo(store: lm.ParamStore, ref_store: lm.ParamStore,
             forget_batch: list[Pair], beta: float,
             tensors=None) -> LossValue:
    """(2/beta) * mean softplus(beta * (log pi - log pi_ref)).

    The reference store is a frozen snapshot; its log-likelihoods enter the
    graph as constants.
    """
    if beta <= 0:
        raise ConfigError("beta must be > 0")
    if ref_store is None:
        raise ConfigError("npo needs a reference store")
    _check_batch(forget_batch)
    tensors = _tensors_or(store, tensors)
    seq_lp, *_ = _seq_logprob_graph(store, forget_batch, tensors)
    ref_lp = batch_sequence_logprobs(ref_store, forget_batch)
    margin = ad.sub(seq_lp, ad.constant(ref_lp))
    per_ex = ad.scale(ad.softplus(ad.scale(margin, beta)), 2.0 / beta)
    scalar = ad.mean_all(per_ex)
    return LossValue(scalar,
                     {"forget_term": float(scalar.value),
                      "retain_term": 0.0, "aug_term": 0.0},
                     tensors)


def loss_wga(store: lm.ParamStore, forget_batch: list[Pair], alpha: float,
             tensors=None) -> LossValue:
    """Token-weighted ascent: sum_i w_i * log pi(y_i), w_i = pi(y_i)**alpha.

    The weights are gradient-blocked coefficients taken from the live
    forward pass.
    """
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    _check_batch(forget_batch)
    tensors = _tensors_or(store, tensors)
    seq_lp, lp_rows, lp_y, tgt_ids, mask = _seq_logprob_graph(
        store, forget_batch, tensors)
    weights = np.exp(alpha * lp_y.value) * mask
    weighted = ad.sum_axis(ad.mul(lp_y, ad.constant(weights)), axis=1)
    scalar = ad.mean_all(weighted)
    return LossValue(scalar,
                     {"forget_term": float(scalar.value),
                      "retain_term": 0.0, "aug_term": 0.0},
                     tensors)


def loss_bst(store: lm.ParamStore, forget_batch: list[Pair],
             lambda_bst: float, k: int, smoothing_tau: float = 1.0,
             tensors=None) -> LossValue:
    """Belief-softened token loss: mean of sum_i <t_i, log pi_i>.

    The soft target mixes the one-hot label with the gradient-blocked
    renormalized top-k belief, spreading the push-down across the model's
    own high-probability tokens.
    """
    if not 0.0 <= lambda_bst <= 1.0:
        raise ConfigError("lambda_bst must be in [0, 1]")
    _check_batch(forget_batch)
    if k < 1 or k > store.arch.vocab_size:
        raise ConfigError("k out of range")
    tensors = _tensors_or(store, tensors)
    seq_lp, lp_rows, lp_y, tgt_ids, mask = _seq_logprob_graph(
        store, forget_batch, tensors)
    # pi at the scored positions: exponentiate the log-softmax rows rather
    # than running a second softmax pass.
    pi_rows = ad.exp(lp_rows)
    q = beliefs.belief_node(pi_rows, k, smoothing_tau)   # [B, R, V], frozen
    label_term = ad.sum_axis(ad.mul(lp_y, ad.constant(mask)), axis=1)
    belief_inner = ad.sum_axis(ad.mul(q, lp_rows), axis=2)  # [B, R]
    belief_term = ad.sum_axis(ad.mul(belief_inner, ad.constant(mask)), axis=1)
    label_part = ad.scale(ad.mean_all(label_term), 1.0 - lambda_bst)
    belief_part = ad.scale(ad.mean_all(belief_term), lambda_bst)
    scalar = ad.add(label_part, belief_part)
    return LossValue(scalar,
                     {"forget_term": float(label_part.value),
                      "retain_term": 0.0,
                      "aug_term": float(belief_part.value)},
                     tensors)


def loss_bss(store: lm.ParamStore, forget_batch: list[Pair],
             augmented: list[beliefs.AugmentedSet], lambda_bss: float,
             base_loss: LossConfig, ref_store: lm.ParamStore | None = None,
             tensors=None) -> LossValue:
    """Sequence-level mix: (1-w) * base(original) + w * base(augmented).

    `augmented[i]` holds sampled responses for forget_batch[i]'s prompt; the
    augmented batch pairs each prompt with each of its sampled responses.
    """
    if not 0.0 <= lambda_bss <= 1.0:
        raise ConfigError("lambda_bss must be in [0, 1]")
    _check_batch(forget_batch)
    if len(augmented) != len(forget_batch):
        raise DataError("augmented sets misaligned with forget batch")
    aug_pairs = []
    for (prompt, _), aug in zip(forget_batch, augmented):
        if not aug.responses:
            raise DataError("augmented set has no responses")
        for resp in aug.responses:
            aug_pairs.append((prompt, list(resp)))
    if base_loss.base_loss not in BASE_KINDS:
        raise ConfigError(f"unsupported base loss {base_loss.base_loss!r}")
    base = _TABLE[base_loss.base_loss]
    tensors = _tensors_or(store, tensors)
    orig = base(store, forget_batch, base_loss, ref_store, None, tensors)
    aug = base(store, aug_pairs, base_loss, ref_store, None, tensors)
    orig_part = ad.scale(orig.scalar, 1.0 - lambda_bss)
    aug_part = ad.scale(aug.scalar, lambda_bss)
    scalar = ad.add(orig_part, aug_part)
    return LossValue(scalar,
                     {"forget_term": float(orig_part.value),
                      "retain_term": 0.0,
                      "aug_term": float(aug_part.value)},
                     tensors)


# Loss table ------------------------------------------------------------------

# kind -> builder(store, batch, cfg, ref_store, augmented, tensors). The
# entries look their loss function up in the module globals at call time, so
# a wrapper set on the module attribute (a tracer, a test double) sees it.
_TABLE = {
    "ga": lambda s, b, c, ref, aug, t: loss_ga(s, b, t),
    "bst": lambda s, b, c, ref, aug, t: loss_bst(
        s, b, c.lambda_bst, c.k, c.belief_smoothing_tau, t),
    "npo": lambda s, b, c, ref, aug, t: loss_npo(s, ref, b, c.beta, t),
    "wga": lambda s, b, c, ref, aug, t: loss_wga(s, b, c.alpha, t),
    "bss": lambda s, b, c, ref, aug, t: loss_bss(
        s, b, aug, c.lambda_bss, c, ref, t),
}
# graddiff is ga plus the lambda_retain term that step_loss adds to any kind.
_TABLE["graddiff"] = _TABLE["ga"]
LOSS_KINDS = tuple(_TABLE)
BASE_KINDS = tuple(k for k in _TABLE if k not in ("bss", "graddiff"))


def forget_loss(cfg: LossConfig, store: lm.ParamStore,
                forget_batch: list[Pair], ref_store=None, augmented=None,
                tensors=None) -> LossValue:
    """The forget-side loss of `cfg.kind`, built by its table entry.
    `ref_store` is the frozen npo reference; `augmented` holds bss's sampled
    sets, one per forget pair."""
    if cfg.kind not in _TABLE:
        raise ConfigError(f"unknown loss kind {cfg.kind!r}")
    return _TABLE[cfg.kind](store, forget_batch, cfg, ref_store, augmented,
                            _tensors_or(store, tensors))


def step_loss(cfg: LossConfig, store: lm.ParamStore,
              forget_batch: list[Pair], retain_batch: list[Pair] | None = None,
              ref_store=None, augmented=None, tensors=None) -> LossValue:
    """One unlearning step's loss: the forget loss of `cfg.kind` plus
    `lambda_retain` times the retain NLL. At lambda_retain 0 no retain graph
    is built and `retain_batch` is not read."""
    if cfg.lambda_retain < 0:
        raise ConfigError("lambda_retain must be >= 0")
    tensors = _tensors_or(store, tensors)
    lv = forget_loss(cfg, store, forget_batch, ref_store, augmented, tensors)
    if cfg.lambda_retain == 0:
        return lv
    retain = loss_retain(store, retain_batch, tensors)
    scalar = ad.add(lv.scalar, ad.scale(retain.scalar, cfg.lambda_retain))
    diag = dict(lv.diagnostics)
    diag["retain_term"] = cfg.lambda_retain * retain.value
    return LossValue(scalar, diag, tensors)
