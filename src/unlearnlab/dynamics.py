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
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import beliefs, lm, objectives
from .errors import CapabilityError, ConfigError, ContractError, DataError

# The largest model `entk_block` builds explicit Jacobians for: one reverse
# pass per vocabulary row, each row as long as the parameter vector.
PARAM_CAP = 20_000
# The loss kinds with a closed-form residual, so the only ones the one-step
# oracle can check.
ORACLE_KINDS = ("ga", "bst")


class Chi(NamedTuple):
    """A teacher-forced (prompt, response) pair."""
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
    """One scored position of one SGD step. `pi` is the position's
    next-token distribution before the step; `softmax_jacobian(pi)` is its
    A."""
    position: int
    pi: np.ndarray
    G: np.ndarray
    predicted_delta_logpi: np.ndarray
    actual_delta_logpi: np.ndarray
    first_order_error: float
    eta: float

    def to_dict(self):
        """The eta-dependent fields, JSON-ready. `pi` and `G` do not depend
        on eta; `eta_scaling_slope` lists them once per position."""
        return {
            "position": self.position,
            "predicted_delta_logpi": self.predicted_delta_logpi.tolist(),
            "actual_delta_logpi": self.actual_delta_logpi.tolist(),
            "first_order_error": self.first_order_error,
        }


def softmax_jacobian(probs: np.ndarray) -> np.ndarray:
    """A = I - 1 pi^T: the Jacobian of log-softmax at these probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    v = probs.shape[-1]
    return np.eye(v) - np.ones((v, 1)) @ probs[None, :]


def residual(loss_kind: str, probs: np.ndarray, target_id: int,
             belief: np.ndarray | None = None,
             lambda_bst: float | None = None) -> np.ndarray:
    """Per-position loss gradient with respect to the logits."""
    if loss_kind not in ORACLE_KINDS:
        raise ConfigError(f"residual is defined for {ORACLE_KINDS}, "
                          f"not {loss_kind!r}")
    probs = np.asarray(probs, dtype=np.float64)
    one_hot = np.zeros_like(probs)
    one_hot[target_id] = 1.0
    if loss_kind == "ga":
        return one_hot - probs
    if belief is None or lambda_bst is None:
        raise ContractError("bst residual needs a belief and lambda_bst")
    return beliefs.soft_target(belief, target_id, lambda_bst) - probs


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
               pos_a: int, pos_b: int) -> np.ndarray:
    """Empirical NTK block K = J_a J_b^T between two logit rows.

    Positions index rows of the concatenated-token logit matrix. Refuses to
    run above the parameter cap rather than approximating.
    """
    n = store.param_count()
    if n > PARAM_CAP:
        raise CapabilityError(f"model has {n} parameters, above the "
                              f"explicit-Jacobian cap {PARAM_CAP}")
    j_a = logit_jacobian(store, chi_a.tokens(), pos_a)
    j_b = logit_jacobian(store, chi_b.tokens(), pos_b)
    return j_a @ j_b.T


def _loss_for(store, chi_u: Chi, loss_cfg):
    batch = [(list(chi_u.prompt), list(chi_u.response))]
    if loss_cfg.kind not in ORACLE_KINDS:
        raise ConfigError(f"akg_check supports loss kinds {ORACLE_KINDS}")
    return objectives.forget_loss(loss_cfg, store, batch)


def akg_check(store: lm.ParamStore, chi_u: Chi, chi_o: Chi, loss_cfg,
              eta: float) -> list[DynamicsReport]:
    """Compare predicted vs actual log-probability change for one SGD step.

    The prediction contracts the transport sum K G into J_o @ grad_theta(L),
    which is algebraically identical and avoids materializing K
    (`entk_block` computes K itself). J_o @ g is the derivative of chi_o's
    logits along g, taken by one forward-mode pass, so J_o is never formed
    either and the check runs at any model size.

    `loss_cfg` is a LossConfig of kind 'ga' or 'bst'.
    """
    return next(_akg_runs(store, chi_u, chi_o, loss_cfg, (eta,)))


def _akg_runs(store, chi_u, chi_o, loss_cfg, etas):
    """Yield `akg_check`'s reports for each eta in turn. Only the step and
    -eta * (J_o @ g) depend on eta, so the gradient g and each position's
    J_o @ g, pi and G are computed once for all etas. One dual forward over
    chi_o, with the parameters as values and g as their tangents, gives
    J_o @ g at every position."""
    if any(eta <= 0 for eta in etas):
        raise ConfigError("eta must be > 0")
    lv = _loss_for(store, chi_u, loss_cfg)
    names = sorted(lv.param_tensors)
    gs = ad.grad(lv.scalar, [lv.param_tensors[n] for n in names])
    g_flat = np.concatenate([g.ravel() for g in gs])
    along_g = {n: ad.Dual(store.entries[n], g) for n, g in zip(names, gs)}
    jg_rows = lm._logits(ad.duals, along_g, store.arch,
                         [chi_o.tokens()]).tangent[0, chi_o.scored_positions()]

    scored = dict(lm.response_logits(store, [chi_o, chi_u]))
    lp_before = ad.arrays.log_softmax(scored[0])
    pi_before = np.exp(lp_before)

    residuals = _residual_rows(np.exp(ad.arrays.log_softmax(scored[1])),
                               chi_u, loss_cfg)

    positions = []  # per position: (J_o @ g, pi, G)
    for idx, jg in enumerate(jg_rows):
        g_row = (residuals[idx] if idx < len(residuals)
                 else np.zeros(store.arch.vocab_size))
        positions.append((jg, pi_before[idx], g_row))

    for eta in etas:
        stepped = store.add_flat(-eta * g_flat)
        [(_, logits)] = lm.response_logits(stepped, [chi_o])
        lp_after = ad.arrays.log_softmax(logits)
        reports = []
        for idx, (jg, pi, g_row) in enumerate(positions):
            dz = -eta * jg  # the first-order change of the logits
            predicted = dz - pi @ dz  # A @ dz, without forming A
            actual = lp_after[idx] - lp_before[idx]
            reports.append(DynamicsReport(
                position=idx, pi=pi, G=g_row,
                predicted_delta_logpi=predicted, actual_delta_logpi=actual,
                first_order_error=float(np.max(np.abs(actual - predicted))),
                eta=eta))
        yield reports


def _residual_rows(pi, chi_u: Chi, loss_cfg) -> np.ndarray:
    """Closed-form residuals at chi_u's scored positions, whose
    probabilities are the rows of `pi`."""
    rows = np.zeros_like(pi)
    for i, y in enumerate(chi_u.response):
        bel = (beliefs.topk_belief(pi[i], loss_cfg.k,
                                   loss_cfg.belief_smoothing_tau)
               if loss_cfg.kind == "bst" else None)
        rows[i] = residual(loss_cfg.kind, pi[i], y, bel, loss_cfg.lambda_bst)
    return rows


def eta_scaling_slope(store: lm.ParamStore, chi_u: Chi, chi_o: Chi, loss_cfg,
                      etas=(1e-3, 5e-4, 2.5e-4)
                      ) -> tuple[float, list[dict], list[dict]]:
    """Least-squares slope of log(max first-order error) vs log(eta); per
    position a dict of its eta-independent `pi` and `G`; and per eta a dict
    of its max error and serialized per-position reports (serialized before
    the next eta runs). The gradient and J_o @ g are computed once for all
    etas."""
    errs, per_eta, positions = [], [], None
    for eta, reports in zip(etas, _akg_runs(store, chi_u, chi_o, loss_cfg,
                                            etas)):
        if positions is None:
            positions = [{"position": r.position, "pi": r.pi.tolist(),
                          "G": r.G.tolist()} for r in reports]
        err = max(r.first_order_error for r in reports)
        errs.append(err)
        per_eta.append({"eta": eta, "max_first_order_error": err,
                        "positions": [r.to_dict() for r in reports]})
    slope = np.polyfit(np.log(np.asarray(etas)), np.log(np.asarray(errs)), 1)[0]
    return float(slope), positions, per_eta


# Squeezing-band tracer -------------------------------------------------------


@dataclass
class BandTrace:
    prompt_id: str
    band_of: dict[str, str]
    per_epoch_mean_logprob: np.ndarray  # [epochs, 3] for high/mid/low
    band_sizes: dict[str, int]


BANDS = ("high", "mid", "low")
BAND_FRACTIONS = (0.2, 0.6)  # cumulative share of the high and mid bands


def _assign_bands(scores: np.ndarray) -> list[str]:
    """Quantile bands from descending scores: top 20%, next 40%, rest."""
    fractions = BAND_FRACTIONS
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
                  beam_width: int = 15, max_len: int = 12,
                  eos_id: int | None = None,
                  exclude_responses=None) -> tuple[list[BandTrace], BandTrace]:
    """Track per-band mean sequence log-probability across checkpoints.

    Candidates are beam-searched once from checkpoints[0] and band
    membership is frozen from checkpoint-0 scores, so the trace measures
    mass movement. Each checkpoint scores every prompt's candidates in one
    `lm.response_logits` call.
    `exclude_responses`, when given, drops the exact reference response from
    each prompt's candidate pool (the suppressed target is not a neighbor).
    """
    if not checkpoints:
        raise DataError("need at least one checkpoint")
    prompts = list(prompts)
    if not prompts:
        raise DataError("need at least one prompt")
    original = checkpoints[0]
    pairs, spans = [], []  # spans[pi]: prompt pi's candidates in `pairs`
    for pi, (prompt_id, prompt) in enumerate(prompts):
        cands = [tuple(t) for t, _ in lm.decode(
            original, prompt, lm.Beam(beam_width), max_len, eos_id=eos_id)]
        if exclude_responses is not None:
            ref = tuple(exclude_responses[pi])
            cands = [c for c in cands if c != ref]
        if len(cands) < 5:
            raise DataError(
                f"prompt {prompt_id}: only {len(cands)} candidates; bands "
                "degenerate below 5")
        spans.append(slice(len(pairs), len(pairs) + len(cands)))
        pairs += [(prompt, c) for c in cands]
    # One scorer call per checkpoint over every prompt's candidates: a
    # pair's logits do not depend on the other pairs in the call.
    all_scores = np.zeros((len(checkpoints), len(pairs)))
    for e, ck in enumerate(checkpoints):
        for j, logits in lm.response_logits(ck, pairs):
            resp = pairs[j][1]
            lp = ad.arrays.log_softmax(logits)
            all_scores[e, j] = lp[np.arange(len(resp)), resp].sum()
    traces = []
    for (prompt_id, _), span in zip(prompts, spans):
        scores = all_scores[:, span]
        band_list = _assign_bands(scores[0])
        cand_ids = [f"{prompt_id}_c{j}" for j in range(scores.shape[1])]
        per_epoch = np.zeros((len(checkpoints), 3))
        sizes = {}
        for bi, b in enumerate(BANDS):
            sel = [j for j, bb in enumerate(band_list) if bb == b]
            sizes[b] = len(sel)
            per_epoch[:, bi] = scores[:, sel].mean(axis=1)
        traces.append(BandTrace(
            prompt_id=prompt_id, band_of=dict(zip(cand_ids, band_list)),
            per_epoch_mean_logprob=per_epoch, band_sizes=sizes))
    agg = BandTrace(
        prompt_id="aggregate",
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
