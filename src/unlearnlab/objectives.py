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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import beliefs, lm
from .errors import ConfigError, DataError

Pair = tuple[list[int], list[int]]  # (prompt tokens, response tokens)


@dataclass(frozen=True)
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

    def __post_init__(self):
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


@dataclass
class LossValue:
    scalar: ad.Node
    diagnostics: dict[str, float]
    param_tensors: dict[str, ad.Node] = field(repr=False, default_factory=dict)
    # The forget pairs' logits node; the residual G is d scalar / d logits.
    logits: ad.Node | None = field(repr=False, default=None)

    @property
    def value(self) -> float:
        return float(self.scalar.value)


def _pad_batch(pairs: list[Pair]):
    """Pad prompt+response sequences and index the response positions.

    Returns (tokens [B, T], tgt_pos [B, R], tgt_ids [B, R], mask [B, R]):
    row tgt_pos[b, i] (`lm.response_rows`) predicts response token i, which
    is tgt_ids[b, i]; mask flags real (unpadded) response slots.
    """
    tgt_pos = lm.response_rows(pairs)
    tokens = np.zeros((len(pairs), max(len(p) + len(r) for p, r in pairs)),
                      dtype=np.int64)
    tgt_ids, mask = np.zeros_like(tgt_pos), np.zeros(tgt_pos.shape)
    for i, (p, r) in enumerate(pairs):
        if not p:
            raise DataError("prompt must be non-empty")
        tokens[i, :len(p) + len(r)] = [*p, *r]
        tgt_ids[i, :len(r)] = r
        mask[i, :len(r)] = 1.0
    return tokens, tgt_pos, tgt_ids, mask


def _seq_logprob_graph(store, pairs, tensors):
    """Nodes seq_lp [B], lp_rows, lp_y and logits [B, R, V], and the mask."""
    if not pairs:
        raise DataError("batch must be non-empty")
    tokens, tgt_pos, tgt_ids, mask = _pad_batch(pairs)
    # The head and the log-softmax run on the scored positions only.
    logits = lm.build_logits(tensors, store.arch, tokens, tgt_pos)
    lp_rows = ad.log_softmax(logits)                     # [B, R, V]
    lp_y = ad.take_last(lp_rows, tgt_ids)                # [B, R]
    masked = ad.mul(lp_y, ad.constant(mask))
    seq_lp = ad.sum_axis(masked, axis=1)                 # [B]
    return seq_lp, lp_rows, lp_y, logits, mask


# Loss builders ---------------------------------------------------------------

# Every forget builder has one signature,
#   loss_<kind>(store, batch, cfg, tensors, ref_store=None, augmented=None),
# reads its own hyperparameters from the LossConfig `cfg` (checked when it
# was built) and builds its graph on `tensors`.


def _value(tensors, logits: ad.Node, forget: ad.Node,
           aug: ad.Node | None = None) -> LossValue:
    """A forget-side loss: the weighted `forget` term plus, when given, the
    weighted `aug` term; `logits` is the forget pairs' logits node."""
    scalar = forget if aug is None else ad.add(forget, aug)
    return LossValue(scalar,
                     {"forget_term": float(forget.value), "retain_term": 0.0,
                      "aug_term": 0.0 if aug is None else float(aug.value)},
                     tensors, logits)


def loss_ga(store: lm.ParamStore, forget_batch: list[Pair], cfg: LossConfig,
            tensors, ref_store=None, augmented=None) -> LossValue:
    """Mean sequence log-likelihood; minimizing it is ascent on the NLL."""
    seq_lp, _, _, logits, _ = _seq_logprob_graph(store, forget_batch, tensors)
    return _value(tensors, logits, ad.mean_all(seq_lp))


def loss_retain(store: lm.ParamStore, retain_batch: list[Pair],
                tensors=None) -> LossValue:
    """Mean NLL on retain pairs; composed additively with any forget loss."""
    tensors = lm.param_tensors(store) if tensors is None else tensors
    seq_lp, *_ = _seq_logprob_graph(store, retain_batch, tensors)
    scalar = ad.scale(ad.mean_all(seq_lp), -1.0)
    return LossValue(scalar,
                     {"forget_term": 0.0,
                      "retain_term": float(scalar.value), "aug_term": 0.0},
                     tensors)


def loss_npo(store: lm.ParamStore, forget_batch: list[Pair], cfg: LossConfig,
             tensors, ref_store=None, augmented=None) -> LossValue:
    """(2/beta) * mean softplus(beta * (log pi - log pi_ref)).

    The reference store is a frozen snapshot; its log-likelihoods come from
    the same graph on its parameters as constants, so the margin is exactly
    0 at the reference.
    """
    if ref_store is None:
        raise ConfigError("npo needs a reference store")
    seq_lp, _, _, logits, _ = _seq_logprob_graph(store, forget_batch, tensors)
    ref_lp, *_ = _seq_logprob_graph(
        ref_store, forget_batch, lm.param_tensors(ref_store, trainable=False))
    margin = ad.sub(seq_lp, ref_lp)
    per_ex = ad.scale(ad.softplus(ad.scale(margin, cfg.beta)), 2.0 / cfg.beta)
    return _value(tensors, logits, ad.mean_all(per_ex))


def loss_wga(store: lm.ParamStore, forget_batch: list[Pair], cfg: LossConfig,
             tensors, ref_store=None, augmented=None) -> LossValue:
    """Token-weighted ascent: sum_i w_i * log pi(y_i), w_i = pi(y_i)**alpha.

    The weights are gradient-blocked coefficients taken from the live
    forward pass.
    """
    _, _, lp_y, logits, mask = _seq_logprob_graph(store, forget_batch, tensors)
    weights = np.exp(cfg.alpha * lp_y.value) * mask
    weighted = ad.sum_axis(ad.mul(lp_y, ad.constant(weights)), axis=1)
    return _value(tensors, logits, ad.mean_all(weighted))


def loss_bst(store: lm.ParamStore, forget_batch: list[Pair], cfg: LossConfig,
             tensors, ref_store=None, augmented=None) -> LossValue:
    """Belief-softened token loss: mean of sum_i <t_i, log pi_i>.

    The soft target mixes the one-hot label with the gradient-blocked
    renormalized top-k belief, spreading the push-down across the model's
    own high-probability tokens.
    """
    if cfg.k > store.arch.vocab_size:
        raise ConfigError("k out of range")
    _, lp_rows, lp_y, logits, mask = _seq_logprob_graph(store, forget_batch,
                                                        tensors)
    # pi at the scored positions: exponentiate the log-softmax rows rather
    # than running a second softmax pass.
    q = ad.constant(beliefs.topk_belief(np.exp(lp_rows.value), cfg.k,
                                        cfg.belief_smoothing_tau))
    label_term = ad.sum_axis(ad.mul(lp_y, ad.constant(mask)), axis=1)
    belief_inner = ad.sum_axis(ad.mul(q, lp_rows), axis=2)  # [B, R]
    belief_term = ad.sum_axis(ad.mul(belief_inner, ad.constant(mask)), axis=1)
    return _value(tensors, logits,
                  ad.scale(ad.mean_all(label_term), 1.0 - cfg.lambda_bst),
                  ad.scale(ad.mean_all(belief_term), cfg.lambda_bst))


def loss_bss(store: lm.ParamStore, forget_batch: list[Pair], cfg: LossConfig,
             tensors, ref_store=None, augmented=None) -> LossValue:
    """Sequence-level mix: (1-w) * base(original) + w * base(augmented).

    `augmented[i]` holds the sampled responses (token lists) for
    forget_batch[i]'s prompt; the augmented batch pairs each prompt with
    each of its sampled responses. The base is `cfg.base_loss`, built
    through the loss table. The value's `logits` are the original pairs'.
    """
    if augmented is None or len(augmented) != len(forget_batch):
        raise DataError("bss needs one list of sampled responses per "
                        "forget pair")
    aug_pairs = []
    for (prompt, _), responses in zip(forget_batch, augmented):
        if not responses:
            raise DataError("a forget pair has no sampled responses")
        for resp in responses:
            aug_pairs.append((prompt, list(resp)))
    base = globals()[_TABLE[cfg.base_loss]]
    orig = base(store, forget_batch, cfg, tensors, ref_store)
    aug = base(store, aug_pairs, cfg, tensors, ref_store)
    return _value(tensors, orig.logits,
                  ad.scale(orig.scalar, 1.0 - cfg.lambda_bss),
                  ad.scale(aug.scalar, cfg.lambda_bss))


# Loss table ------------------------------------------------------------------

# kind -> the name of its builder. Callers look the builder up in the module
# globals at call time, so a wrapper set on the module attribute (a tracer, a
# test double) is the one called. graddiff is ga plus the lambda_retain term
# that step_loss adds to any kind.
_TABLE = {"ga": "loss_ga", "bst": "loss_bst", "npo": "loss_npo",
          "wga": "loss_wga", "bss": "loss_bss", "graddiff": "loss_ga"}
LOSS_KINDS = tuple(_TABLE)
BASE_KINDS = tuple(k for k in _TABLE if k not in ("bss", "graddiff"))


def forget_loss(cfg: LossConfig, store: lm.ParamStore,
                forget_batch: list[Pair], ref_store=None, augmented=None,
                tensors=None) -> LossValue:
    """The forget-side loss of `cfg.kind`, built by its table entry.
    `ref_store` is the frozen npo reference; `augmented` holds bss's
    sampled responses, one list per forget pair."""
    tensors = lm.param_tensors(store) if tensors is None else tensors
    return globals()[_TABLE[cfg.kind]](store, forget_batch, cfg, tensors,
                                       ref_store, augmented)


def step_loss(cfg: LossConfig, store: lm.ParamStore,
              forget_batch: list[Pair], retain_batch: list[Pair] | None = None,
              ref_store=None, augmented=None, tensors=None) -> LossValue:
    """One unlearning step's loss: the forget loss of `cfg.kind` plus
    `lambda_retain` times the retain NLL. At lambda_retain 0 no retain graph
    is built and `retain_batch` is not read."""
    lv = forget_loss(cfg, store, forget_batch, ref_store, augmented, tensors)
    if cfg.lambda_retain == 0:
        return lv
    retain = loss_retain(store, retain_batch, lv.param_tensors)
    scalar = ad.add(lv.scalar, ad.scale(retain.scalar, cfg.lambda_retain))
    diag = dict(lv.diagnostics)
    diag["retain_term"] = cfg.lambda_retain * retain.value
    return LossValue(scalar, diag, lv.param_tensors, lv.logits)
