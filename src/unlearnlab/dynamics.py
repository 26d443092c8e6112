"""Executable learning-dynamics oracles on tiny models.

`akg_check` verifies the one-SGD-step decomposition of log-probability
change into softmax Jacobian (A), empirical NTK transport (K), and loss
residual (G): the predicted change is -eta * A K G per position, and the
measured deviation from an actual plain-SGD step should shrink like eta^2.

Residual convention: G is the gradient of the loss *actually minimized*
with respect to the logits. Under that convention G_ga = e_y - pi and
G_bst = t - pi, and the off-target difference identity
G_bst[v] - G_ga[v] = lambda * q[v] (v != y) holds exactly; at v = y the
difference is lambda * (q[y] - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import beliefs, lm, objectives
from .errors import CapabilityError, ConfigError, ContractError, DataError

PARAM_CAP_DEFAULT = 20_000


@dataclass
class Chi:
    """A teacher-forced prompt/response pair."""
    prompt: list[int]
    response: list[int]

    def tokens(self):
        return list(self.prompt) + list(self.response)

    def scored_positions(self):
        """Logit rows that predict each response token."""
        start = len(self.prompt) - 1
        return list(range(start, start + len(self.response)))


@dataclass
class DynamicsReport:
    position: int
    A: np.ndarray
    G: np.ndarray
    K_block: np.ndarray | None
    predicted_delta_logpi: np.ndarray
    actual_delta_logpi: np.ndarray
    first_order_error: float
    eta: float

    def to_dict(self):
        return {
            "position": self.position,
            "A": self.A.tolist(),
            "G": self.G.tolist(),
            "K_block": None if self.K_block is None else self.K_block.tolist(),
            "predicted_delta_logpi": self.predicted_delta_logpi.tolist(),
            "actual_delta_logpi": self.actual_delta_logpi.tolist(),
            "first_order_error": self.first_order_error,
            "eta": self.eta,
        }


def softmax_jacobian(probs: np.ndarray) -> np.ndarray:
    """A = I - 1 pi^T: the Jacobian of log-softmax at these probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    v = probs.shape[-1]
    return np.eye(v) - np.ones((v, 1)) @ probs[None, :]


def residual(loss_kind: str, probs: np.ndarray, target_id: int,
             belief: beliefs.BeliefDistribution | None = None,
             lambda_bst: float | None = None) -> np.ndarray:
    """Per-position loss gradient with respect to the logits."""
    probs = np.asarray(probs, dtype=np.float64)
    one_hot = np.zeros_like(probs)
    one_hot[target_id] = 1.0
    if loss_kind == "ga":
        return one_hot - probs
    if loss_kind == "bst":
        if belief is None or lambda_bst is None:
            raise ContractError("bst residual needs a belief and lambda_bst")
        t = beliefs.soft_target(belief, target_id, lambda_bst).probs
        return t - probs
    raise ConfigError(f"residual is defined for 'ga' and 'bst', not {loss_kind!r}")


def _check_cap(store: lm.ParamStore, cap: int):
    n = store.param_count()
    if n > cap:
        raise CapabilityError(
            f"model has {n} parameters, above the explicit-Jacobian cap {cap}")


def logit_jacobian(store: lm.ParamStore, tokens, position: int) -> np.ndarray:
    """J[v, :] = d z[position, v] / d theta (flattened, sorted-name order)."""
    tensors = lm.param_tensors(store)
    names = sorted(tensors)
    logits = lm.build_logits(tensors, store.arch, np.asarray(tokens)[None, :])
    v = store.arch.vocab_size
    rows = []
    for vi in range(v):
        root = ad.element(logits, (0, position, vi))
        gs = ad.grad(root, [tensors[n] for n in names])
        rows.append(np.concatenate([g.ravel() for g in gs]))
    return np.stack(rows)


def entk_block(store: lm.ParamStore, chi_a: Chi, chi_b: Chi,
               pos_a: int, pos_b: int,
               param_cap: int = PARAM_CAP_DEFAULT) -> np.ndarray:
    """Empirical NTK block K = J_a J_b^T between two logit rows.

    Positions index rows of the concatenated-token logit matrix. Refuses to
    run above the parameter cap rather than approximating.
    """
    _check_cap(store, param_cap)
    j_a = logit_jacobian(store, chi_a.tokens(), pos_a)
    j_b = logit_jacobian(store, chi_b.tokens(), pos_b)
    return j_a @ j_b.T


def _loss_for(store, chi_u: Chi, loss_cfg):
    batch = [(list(chi_u.prompt), list(chi_u.response))]
    if callable(loss_cfg):
        return loss_cfg(store, batch)
    if loss_cfg.kind not in ("ga", "bst"):
        raise ConfigError("akg_check supports loss kinds 'ga' and 'bst'")
    return objectives.forget_loss(loss_cfg, store, batch)


def _scored_logprob_rows(store, chi: Chi) -> np.ndarray:
    logits = lm.forward_logits(store, chi.tokens())
    return lm._log_softmax_np(logits)[chi.scored_positions()]


def akg_check(store: lm.ParamStore, chi_u: Chi, chi_o: Chi, loss_cfg,
              eta: float, param_cap: int = PARAM_CAP_DEFAULT,
              include_kernel: bool = False) -> list[DynamicsReport]:
    """Compare predicted vs actual log-probability change for one SGD step.

    The prediction contracts the transport sum K G into J_o @ grad_theta(L),
    which is algebraically identical and avoids materializing K; pass
    `include_kernel=True` to also store the aligned V x V kernel block per
    position (tiny models only).

    `loss_cfg` may be a LossConfig (kinds 'ga' / 'bst') or any callable
    (store, batch) -> LossValue.
    """
    if eta <= 0:
        raise ConfigError("eta must be > 0")
    _check_cap(store, param_cap)
    lv = _loss_for(store, chi_u, loss_cfg)
    names = sorted(lv.param_tensors)
    gs = ad.grad(lv.scalar, [lv.param_tensors[n] for n in names])
    g_flat = np.concatenate([g.ravel() for g in gs])

    lp_before = _scored_logprob_rows(store, chi_o)
    pi_before = np.exp(lp_before)

    residuals = _residual_rows(store, chi_u, loss_cfg)

    stepped = store.add_flat(-eta * g_flat)
    lp_after = _scored_logprob_rows(stepped, chi_o)

    j_u_cache: dict[int, np.ndarray] = {}
    reports = []
    positions = chi_o.scored_positions()
    for idx, pos in enumerate(positions):
        j_o = logit_jacobian(store, chi_o.tokens(), pos)
        delta_z = -eta * (j_o @ g_flat)
        a = softmax_jacobian(pi_before[idx])
        predicted = a @ delta_z
        actual = lp_after[idx] - lp_before[idx]
        k_block = None
        if include_kernel and idx < len(chi_u.response):
            upos = chi_u.scored_positions()[idx]
            if upos not in j_u_cache:
                j_u_cache[upos] = logit_jacobian(store, chi_u.tokens(), upos)
            k_block = j_o @ j_u_cache[upos].T
        g_row = (residuals[idx] if idx < len(residuals)
                 else np.zeros(store.arch.vocab_size))
        reports.append(DynamicsReport(
            position=idx, A=a, G=g_row, K_block=k_block,
            predicted_delta_logpi=predicted, actual_delta_logpi=actual,
            first_order_error=float(np.max(np.abs(actual - predicted))),
            eta=eta))
    return reports


def _residual_rows(store, chi_u: Chi, loss_cfg) -> np.ndarray:
    """Closed-form residuals at chi_u's scored positions (zero for custom)."""
    lp = _scored_logprob_rows(store, chi_u)
    pi = np.exp(lp)
    rows = np.zeros_like(pi)
    if callable(loss_cfg):
        return rows
    for i, y in enumerate(chi_u.response):
        if loss_cfg.kind == "ga":
            rows[i] = residual("ga", pi[i], y)
        else:
            bel = beliefs.topk_belief(pi[i], loss_cfg.k,
                                      loss_cfg.belief_smoothing_tau)
            rows[i] = residual("bst", pi[i], y, bel, loss_cfg.lambda_bst)
    return rows


def eta_scaling_slope(store: lm.ParamStore, chi_u: Chi, chi_o: Chi, loss_cfg,
                      etas=(1e-3, 5e-4, 2.5e-4),
                      param_cap: int = PARAM_CAP_DEFAULT
                      ) -> tuple[float, list[dict]]:
    """Least-squares slope of log(max first-order error) vs log(eta), and
    per eta a dict of its max error and serialized per-position reports
    (serialized before the next eta runs, so the arrays are not kept)."""
    errs, per_eta = [], []
    for eta in etas:
        reports = akg_check(store, chi_u, chi_o, loss_cfg, eta, param_cap)
        err = max(r.first_order_error for r in reports)
        errs.append(err)
        per_eta.append({"eta": eta, "max_first_order_error": err,
                        "positions": [r.to_dict() for r in reports]})
    slope = np.polyfit(np.log(np.asarray(etas)), np.log(np.asarray(errs)), 1)[0]
    return float(slope), per_eta


# Squeezing-band tracer -------------------------------------------------------


@dataclass
class BandTrace:
    prompt_id: str
    candidate_ids: list[str]
    band_of: dict[str, str]
    per_epoch_mean_logprob: np.ndarray  # [epochs, 3] for high/mid/low
    band_sizes: dict[str, int]


BANDS = ("high", "mid", "low")


def _assign_bands(scores: np.ndarray, fractions=(0.2, 0.6)) -> list[str]:
    """Quantile bands from descending scores: top 20%, next 40%, rest."""
    n = scores.size
    order = np.argsort(-scores, kind="stable")
    n_high = max(1, int(round(fractions[0] * n)))
    n_mid = max(1, int(round((fractions[1] - fractions[0]) * n)))
    bands = [""] * n
    for rank, idx in enumerate(order):
        if rank < n_high:
            bands[idx] = "high"
        elif rank < n_high + n_mid:
            bands[idx] = "mid"
        else:
            bands[idx] = "low"
    return bands


def squeeze_trace(checkpoints: list[lm.ParamStore], prompts,
                  candidate_source=("beam", 15), bands=(0.2, 0.6),
                  max_len: int = 12, eos_id: int | None = None,
                  exclude_responses=None) -> tuple[list[BandTrace], BandTrace]:
    """Track per-band mean sequence log-probability across checkpoints.

    Candidates are generated once from checkpoints[0] (beam search, or a
    provided list per prompt for the 'file' source) and band membership is
    frozen from checkpoint-0 scores, so the trace measures mass movement.
    `exclude_responses`, when given, drops the exact reference response from
    each prompt's candidate pool (the suppressed target is not a neighbor).
    """
    if not checkpoints:
        raise DataError("need at least one checkpoint")
    prompts = list(prompts)
    if not prompts:
        raise DataError("need at least one prompt")
    kind = candidate_source[0]
    original = checkpoints[0]
    traces = []
    n_epochs = len(checkpoints)
    for pi, (prompt_id, prompt) in enumerate(prompts):
        if kind == "beam":
            width = candidate_source[1]
            cands = [tuple(t) for t, _ in lm.decode(
                original, prompt, lm.Beam(width), max_len, eos_id=eos_id)]
        elif kind == "file":
            cands = [tuple(c) for c in candidate_source[1][pi]]
        else:
            raise ConfigError(f"unknown candidate source {kind!r}")
        if exclude_responses is not None:
            ref = tuple(exclude_responses[pi])
            cands = [c for c in cands if c != ref]
        if len(cands) < 5:
            raise DataError(
                f"prompt {prompt_id}: only {len(cands)} candidates; bands "
                "degenerate below 5")
        pairs = [(list(prompt), list(c)) for c in cands]
        scores = np.stack([objectives.batch_sequence_logprobs(ck, pairs)
                           for ck in checkpoints])  # [E, C]
        band_list = _assign_bands(scores[0], bands)
        cand_ids = [f"{prompt_id}_c{j}" for j in range(len(cands))]
        per_epoch = np.zeros((n_epochs, 3))
        sizes = {}
        for bi, b in enumerate(BANDS):
            sel = [j for j, bb in enumerate(band_list) if bb == b]
            sizes[b] = len(sel)
            per_epoch[:, bi] = scores[:, sel].mean(axis=1)
        traces.append(BandTrace(
            prompt_id=prompt_id, candidate_ids=cand_ids,
            band_of=dict(zip(cand_ids, band_list)),
            per_epoch_mean_logprob=per_epoch, band_sizes=sizes))
    agg = BandTrace(
        prompt_id="aggregate",
        candidate_ids=[c for t in traces for c in t.candidate_ids],
        band_of={k: v for t in traces for k, v in t.band_of.items()},
        per_epoch_mean_logprob=np.mean(
            [t.per_epoch_mean_logprob for t in traces], axis=0),
        band_sizes={b: sum(t.band_sizes[b] for t in traces) for b in BANDS})
    return traces, agg


def trace_rows(trace: BandTrace):
    """CSV-ready rows: (epoch, band, mean_logprob, n_candidates)."""
    rows = []
    for e in range(trace.per_epoch_mean_logprob.shape[0]):
        for bi, b in enumerate(BANDS):
            rows.append((e, b, float(trace.per_epoch_mean_logprob[e, bi]),
                         trace.band_sizes[b]))
    return rows
