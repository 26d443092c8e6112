"""Executable learning-dynamics oracles on tiny models.

`akg_check` verifies the one-SGD-step decomposition of log-probability
change into softmax Jacobian (A), empirical NTK transport (K), and loss
residual (G): the predicted change is -eta * A K G per position, and the
measured deviation from an actual plain-SGD step should shrink like eta^2.

Residual convention: G is the gradient of the loss *actually minimized*
with respect to the logits, which `akg_check` reads off that loss's graph.
`residual` is its closed form for G_ga = e_y - pi and G_bst = t - pi, whose
off-target difference identity G_bst[v] - G_ga[v] = lambda * q[v] (v != y)
holds exactly; at v = y the difference is lambda * (q[y] - 1).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import beliefs, lm, objectives
from .errors import CapabilityError, ConfigError, ContractError, DataError

# The largest model `entk_block` builds explicit Jacobians for: one reverse
# pass per vocabulary row, each row as long as the parameter vector.
PARAM_CAP = 20_000


def softmax_jacobian(probs: np.ndarray) -> np.ndarray:
    """A = I - 1 pi^T: the Jacobian of log-softmax at these probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    v = probs.shape[-1]
    return np.eye(v) - np.ones((v, 1)) @ probs[None, :]


def residual(loss_kind: str, probs: np.ndarray, target_id: int,
             belief: np.ndarray | None = None,
             lambda_bst: float | None = None) -> np.ndarray:
    """Closed-form per-position loss gradient with respect to the logits."""
    if loss_kind not in ("ga", "bst"):
        raise ConfigError("residual is defined for 'ga' and 'bst', "
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


def entk_block(store: lm.ParamStore, pair_a, pair_b,
               pos_a: int, pos_b: int) -> np.ndarray:
    """Empirical NTK block K = J_a J_b^T between two logit rows.

    Positions index rows of the concatenated-token logit matrix of each
    (prompt, response) pair. Refuses to run above the parameter cap rather
    than approximating.
    """
    n = store.param_count()
    if n > PARAM_CAP:
        raise CapabilityError(f"model has {n} parameters, above the "
                              f"explicit-Jacobian cap {PARAM_CAP}")
    j_a = logit_jacobian(store, [*pair_a[0], *pair_a[1]], pos_a)
    j_b = logit_jacobian(store, [*pair_b[0], *pair_b[1]], pos_b)
    return j_a @ j_b.T


def akg_check(store: lm.ParamStore, pair_u, pair_o, loss_cfg, etas,
              ref_store=None, augmented=None):
    """Predicted against actual change of pair_o's log-probabilities under
    one plain-SGD step on pair_u's loss, at each eta in `etas`.

    The prediction contracts the transport sum K G into J_o @ grad_theta(L),
    which is algebraically identical and avoids materializing K
    (`entk_block` computes K itself). J_o @ g is the derivative of pair_o's
    logits along g, taken by one dual forward with the parameters as values
    and g as their tangents, so J_o is never formed either and the check
    runs at any model size. Only the step and -eta * (J_o @ g) depend on
    eta, so g, J_o @ g, pi and G are computed once for all etas; the
    backward pass that gives g gives G too, and the dual forward's values
    give pi.

    Returns `(pi, G, predicted, actual)`: `pi` [R_o, V] is the next-token
    distribution at pair_o's R_o scored positions before the step (its A
    is `softmax_jacobian(pi[i])`), `G` [R_u, V] is the gradient of pair_u's
    loss with respect to its logits at each of its own R_u scored
    positions, and `predicted` and `actual` [len(etas), R_o, V] are the
    changes of pair_o's log pi. `loss_cfg` is a LossConfig of any kind;
    `ref_store` and `augmented` go to `objectives.forget_loss`.
    """
    if any(eta <= 0 for eta in etas):
        raise ConfigError("eta must be > 0")
    if len(pair_o[1]) < 1:
        raise DataError("pair_o's response must be non-empty")
    lv = objectives.forget_loss(loss_cfg, store, [pair_u], ref_store,
                                augmented)
    *gs, g_logits = ad.grad(lv.scalar, [*lv.param_tensors.values(),
                                        lv.logits])
    G = g_logits[0, :len(pair_u[1])]
    g = dict(zip(lv.param_tensors, gs))
    along_g = {n: ad.Dual(w, g[n]) for n, w in store.entries.items()}
    # At pair_o's response rows alone, as the scorer forwards it: the
    # dual's values are the scorer's logits of pair_o, bit for bit.
    dual = lm._logits(ad.duals, along_g, store.arch,
                      [[*pair_o[0], *pair_o[1]]], None,
                      lm.response_rows([pair_o]))
    jg = dual.tangent[0]
    lp_before = ad.arrays.log_softmax(dual.value[0])
    pi = np.exp(lp_before)

    predicted = np.empty((len(etas), *pi.shape))
    actual = np.empty_like(predicted)
    for e, eta in enumerate(etas):
        stepped = lm.ParamStore({n: w - eta * g[n]
                                 for n, w in store.entries.items()},
                                store.arch, store.seed)
        [(_, logits)] = lm.response_logits(stepped, [pair_o])
        actual[e] = ad.arrays.log_softmax(logits) - lp_before
        for i, p in enumerate(pi):
            dz = -eta * jg[i]  # the first-order change of the logits
            predicted[e, i] = dz - p @ dz  # A @ dz, without forming A
    return pi, G, predicted, actual


def eta_scaling_slope(store: lm.ParamStore, pair_u, pair_o, loss_cfg,
                      etas=(1e-3, 5e-4, 2.5e-4), ref_store=None,
                      augmented=None) -> tuple[float, list[dict], list[dict]]:
    """Least-squares slope of log(max first-order error) vs log(eta), and
    `akg_check`'s arrays as JSON-ready dicts: per response index up to the
    longer of the two responses, pair_o's `pi` where pair_o has that
    position and pair_u's `G` where pair_u has it, and per eta its max
    error and each of pair_o's positions' predicted and actual change and
    first-order error, max |actual - predicted|."""
    pi, G, predicted, actual = akg_check(store, pair_u, pair_o, loss_cfg,
                                         etas, ref_store, augmented)
    errors = np.abs(actual - predicted).max(-1)  # [len(etas), R]
    positions = [{"position": i} for i in range(max(len(pi), len(G)))]
    for entry, p in zip(positions, pi):
        entry["pi"] = p.tolist()
    for entry, g in zip(positions, G):
        entry["G"] = g.tolist()
    per_eta = [{"eta": eta, "max_first_order_error": float(err.max()),
                "positions": [{"position": i,
                               "predicted_delta_logpi": p.tolist(),
                               "actual_delta_logpi": a.tolist(),
                               "first_order_error": float(x)}
                              for i, (p, a, x) in enumerate(zip(pr, ac, err))]}
               for eta, pr, ac, err in zip(etas, predicted, actual, errors)]
    slope = np.polyfit(np.log(np.asarray(etas)), np.log(errors.max(-1)), 1)[0]
    return float(slope), positions, per_eta


# Squeezing-band tracer -------------------------------------------------------


BANDS = ("high", "mid", "low")
BAND_FRACTIONS = (0.2, 0.6)  # cumulative share of the high and mid bands


def _assign_bands(scores: np.ndarray) -> np.ndarray:
    """Quantile bands from descending scores, as indices into BANDS: top
    20%, next 40%, rest."""
    n = scores.size
    order = np.argsort(-scores, kind="stable")
    n_high = max(1, int(round(BAND_FRACTIONS[0] * n)))
    n_mid = max(1, int(round((BAND_FRACTIONS[1] - BAND_FRACTIONS[0]) * n)))
    bands = np.full(n, 2)
    bands[order[:n_high]] = 0
    bands[order[n_high:n_high + n_mid]] = 1
    return bands


def squeeze_trace(checkpoints: list[lm.ParamStore], prompts,
                  beam_width: int = 15, max_len: int = 12,
                  eos_id: int | None = None, *,
                  exclude_responses) -> tuple[np.ndarray, np.ndarray]:
    """Track per-band mean sequence log-probability across checkpoints.

    `prompts` holds (prompt_id, prompt) pairs. Candidates are beam-searched
    once from checkpoints[0] and band membership is frozen from
    checkpoint-0 scores, so the trace measures mass movement. Each
    checkpoint scores every prompt's candidates in one `lm.response_logits`
    call. `exclude_responses[i]`, prompt i's reference response, is dropped
    from its candidate pool (the suppressed target is not a neighbor).

    Returns `(means, sizes)`: `means` [P, E, 3] is each prompt's mean
    candidate log-probability per checkpoint and band (`BANDS` order), and
    `sizes` [P, 3] is its candidate count per band.
    """
    if not checkpoints:
        raise DataError("need at least one checkpoint")
    prompts = list(prompts)
    if not prompts:
        raise DataError("need at least one prompt")
    original = checkpoints[0]
    pairs, spans = [], []  # spans[pi]: prompt pi's candidates in `pairs`
    for pi, (prompt_id, prompt) in enumerate(prompts):
        cands = [tuple(t) for t, _ in lm.beam_search(
            original, prompt, beam_width, max_len, eos_id=eos_id)]
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
    means = np.zeros((len(prompts), len(checkpoints), len(BANDS)))
    sizes = np.zeros((len(prompts), len(BANDS)), dtype=np.int64)
    for p, span in enumerate(spans):
        scores = all_scores[:, span]
        bands = _assign_bands(scores[0])
        for bi in range(len(BANDS)):
            sel = bands == bi
            sizes[p, bi] = sel.sum()
            means[p, :, bi] = scores[:, sel].mean(axis=1)
    return means, sizes


def trace_rows(means: np.ndarray, sizes: np.ndarray):
    """CSV-ready rows of one trace, `means` [E, 3] and `sizes` [3]:
    (epoch, band, mean_logprob, n_candidates)."""
    return [(e, b, float(row[bi]), int(sizes[bi]))
            for e, row in enumerate(means) for bi, b in enumerate(BANDS)]
