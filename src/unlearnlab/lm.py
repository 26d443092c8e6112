"""Tiny decoder-only causal LM: pre-norm transformer blocks with learned
positional embeddings, teacher-forced scoring, and two decoders:
`decode_batch` (greedy, or temperature sampling with one seed per prompt,
over many prompts in lock-step) and `beam_search` (one prompt).

The transformer is written once, in `_logits`, over an op set. Run over
the autodiff ops (`build_logits`) it builds the graph that loss builders and
the dynamics checks differentiate; run over the plain-array kernels of
`autodiff.arrays` (`batch_logits`) it backs scoring, decoding and sampling
without building nodes. Both compute the same values, bit for bit. Every
caller that reads only some positions passes them as `rows` (a loss
builder and the scorer their response positions, a decode prefill the
last position), so that the last block from its queries on, the final
norm and the head run on those positions only ([B, R, V] logits).
Decoding prefills a key/value cache with one forward of the prompts and
then steps one position at a time through the same `_logits`.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import reprlib
from dataclasses import dataclass, asdict, field

import numpy as np

from . import autodiff as ad, schema
from .errors import (ConfigError, ContractError, DataError, LengthError,
                     VocabError)

NEG_INF = -1e30
# Sequences per batched forward. Caps a scoring forward's [rows, T, d]
# hidden states and [rows, R, vocab] logits, so memory does not grow with
# the number of sequences scored.
MAX_BATCH_ROWS = 64
# The most parameters an ArchConfig may have (400 MB per float64 copy, 300x
# the desk arch's 167k): a larger arch is refused before any allocation.
MAX_PARAMS = 50_000_000


@dataclass(frozen=True)
class ArchConfig:
    vocab_size: int
    context_len: int
    d_model: int
    n_layers: int
    n_heads: int
    tie_output_head: bool = False

    def __post_init__(self):
        if self.vocab_size < 1 or self.context_len < 1 or self.d_model < 1:
            raise ConfigError("vocab_size, context_len, d_model must be >= 1")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be >= 0")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError("n_heads must be >= 1 and divide d_model")
        # The count of param_shapes(self), without a loop over the blocks.
        zero, one = (sum(map(math.prod, param_shapes(self, k).values()))
                     for k in (0, 1))
        n = zero + self.n_layers * (one - zero)
        if n > MAX_PARAMS:
            raise ConfigError(f"arch has {n} parameters, above the cap "
                              f"{MAX_PARAMS}")


# Parameter store ------------------------------------------------------------


def param_shapes(arch: ArchConfig, n_layers: int | None = None
                 ) -> dict[str, tuple]:
    """Names and shapes as a deterministic function of the architecture,
    or of the architecture with `n_layers` blocks when given."""
    d, v = arch.d_model, arch.vocab_size
    block = {"ln1.g": (d,), "ln1.b": (d,), "attn.wq": (d, d),
             "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d),
             "ln2.g": (d,), "ln2.b": (d,), "mlp.w1": (d, 4 * d),
             "mlp.b1": (4 * d,), "mlp.w2": (4 * d, d), "mlp.b2": (d,)}
    shapes = {"tok_emb": (v, d), "pos_emb": (arch.context_len, d)}
    for i in range(arch.n_layers if n_layers is None else n_layers):
        shapes.update({f"layers.{i}.{k}": shape
                       for k, shape in block.items()})
    shapes["ln_f.g"] = (d,)
    shapes["ln_f.b"] = (d,)
    if not arch.tie_output_head:
        shapes["head"] = (d, v)
    return shapes


class ParamStore:
    """Named float64 parameter arrays plus the arch that shaped them."""

    def __init__(self, entries: dict[str, np.ndarray], arch: ArchConfig, seed: int):
        self.entries = entries
        self.arch = arch
        self.seed = seed

    def snapshot(self) -> "ParamStore":
        """Deep copy whose values are independent of the live store."""
        return ParamStore({k: v.copy() for k, v in self.entries.items()},
                          self.arch, self.seed)

    def param_count(self) -> int:
        return sum(v.size for v in self.entries.values())


def init_model(arch: ArchConfig, seed: int) -> ParamStore:
    """Scaled-normal init from a seeded PRNG.

    The output head starts at zero when untied, so an untrained model emits
    an exactly uniform next-token distribution. Residual output projections
    (attn.wo, mlp.w2) get the usual depth-scaled std.
    """
    rng = np.random.default_rng(seed)
    base_std = 0.02
    res_std = base_std / math.sqrt(2.0 * max(arch.n_layers, 1))
    entries = {}
    for name, shape in param_shapes(arch).items():
        if name.endswith((".g",)):
            entries[name] = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2")) or name == "head":
            entries[name] = np.zeros(shape)
        elif name.endswith((".wo", ".w2")):
            entries[name] = rng.normal(0.0, res_std, shape)
        else:
            entries[name] = rng.normal(0.0, base_std, shape)
    return ParamStore(entries, arch, seed)


def param_tensors(store: ParamStore, trainable: bool = True) -> dict[str, ad.Node]:
    make = ad.leaf if trainable else ad.constant
    return {k: make(v) for k, v in store.entries.items()}


# Forward passes -------------------------------------------------------------


def _check_tokens(arch: ArchConfig, tokens, start: int = 0):
    """Token ids as an int64 [B, T] array, checked to fit the vocabulary and,
    placed after `start` earlier positions, the context."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if start + tokens.shape[-1] > arch.context_len:
        raise LengthError(
            f"sequence length {start + tokens.shape[-1]} exceeds context "
            f"{arch.context_len}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= arch.vocab_size):
        raise VocabError("token id out of vocabulary range")
    return tokens


def _causal_mask(t: int, start: int = 0, rows=None) -> np.ndarray:
    """[1, 1, t, start + t]: query i (at position start + i) sees keys
    0..start + i. With `rows` [B, R], the rows of the queries at those
    positions: [B, 1, R, start + t]."""
    if rows is None:
        rows = np.arange(t)[None]
    keys = np.arange(start + t)
    return np.where(keys > (start + rows)[:, None, :, None], NEG_INF, 0.0)


@dataclass
class _Cache:
    """Keys and values of the `pos` positions a decode has forwarded so far:
    one (K, V) pair of [B, H, pos, dh] arrays per layer. `_logits` extends
    it in place."""
    pos: int = 0
    kv: list = field(default_factory=list)

    def take(self, rows) -> "_Cache":
        """The cache of the rows `rows` (indices or a boolean mask)."""
        return _Cache(self.pos, [(k[rows], v[rows]) for k, v in self.kv])


def _logits(ops, params, arch: ArchConfig, tokens, cache=None, rows=None):
    """The transformer, written once over an op set: `ops` is the autodiff
    module (`params` holds nodes, the result is a logits node),
    `autodiff.arrays` (`params` holds arrays, the result is an array) or
    `autodiff.duals`. Token ids [B, T] -> logits [B, T, V].

    `rows` [B, R] (any of the three op sets) picks, per row, the R positions
    whose logits are wanted, and the result is [B, R, V]. The last block
    still computes keys and values at all T positions (and fills the
    cache), but its queries, attention, output projection, residual,
    second norm and MLP run on the R picked rows alone, under the causal
    mask's rows at those positions; so do the final norm and the head.
    With no blocks, the rows are picked before the final norm. Every op
    treats each row by itself, so the logits equal those positions' rows of
    the full [B, T, V], bit for bit, repeated and out-of-order positions
    included. A one-row product would take BLAS's matrix-vector path,
    which sums in another order, so a one-row pick is run as two copies of
    that row.

    `cache` (a `_Cache`, with `autodiff.arrays` only) holds the keys and
    values of P earlier positions of the same B rows. The tokens then sit at
    positions P..P+T-1 and attend to those P as well; their keys and values
    are appended, so the next call continues where this one ended. Without
    a cache the tokens start at position 0."""
    start = cache.pos if cache is not None else 0
    tokens = _check_tokens(arch, tokens, start)
    b, t = tokens.shape
    d, h = arch.d_model, arch.n_heads
    dh = d // h
    n_out = None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        n_out = rows.shape[1]
        if n_out == 1:
            rows = np.repeat(rows, 2, axis=1)
    x = ops.take_rows(params["tok_emb"], tokens)
    x = ops.add(x, ops.take_rows(params["pos_emb"],
                                 np.arange(start, start + t)))
    mask = _causal_mask(t, start)

    def heads(z, n):  # [B, n, D] -> [B, H, n, dh]
        return ops.transpose(ops.reshape(z, (b, n, h, dh)), (0, 2, 1, 3))

    for i in range(arch.n_layers):
        p = f"layers.{i}."
        a = ops.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        k = heads(ops.matmul(a, params[p + "attn.wk"]), t)
        v = heads(ops.matmul(a, params[p + "attn.wv"]), t)
        if cache is not None:
            if start:
                k = np.concatenate([cache.kv[i][0], k], axis=2)
                v = np.concatenate([cache.kv[i][1], v], axis=2)
                cache.kv[i] = (k, v)
            else:
                cache.kv.append((k, v))
        n = t
        if rows is not None and i == arch.n_layers - 1:
            x = ops.gather_positions(x, rows)
            a = ops.gather_positions(a, rows)
            mask = _causal_mask(t, start, rows)
            n = rows.shape[1]
        q = heads(ops.matmul(a, params[p + "attn.wq"]), n)
        att = ops.softmax(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))),
                          1.0 / math.sqrt(dh), mask)
        o = ops.matmul(att, v)
        o = ops.reshape(ops.transpose(o, (0, 2, 1, 3)), (b, n, d))
        x = ops.add(x, ops.matmul(o, params[p + "attn.wo"]))
        m = ops.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        m = ops.gelu(ops.matmul(m, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        x = ops.add(x, ops.matmul(m, params[p + "mlp.w2"],
                                  params[p + "mlp.b2"]))
    if cache is not None:
        cache.pos += t
    if rows is not None and not arch.n_layers:
        x = ops.gather_positions(x, rows)
    x = ops.layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    if arch.tie_output_head:
        logits = ops.matmul(x, ops.transpose(params["tok_emb"], (1, 0)))
    else:
        logits = ops.matmul(x, params["head"])
    if n_out == 1:
        logits = ops.gather_positions(logits, np.zeros((b, 1), np.int64))
    return logits


def build_logits(tensors: dict[str, ad.Node], arch: ArchConfig,
                 tokens, rows=None) -> ad.Node:
    """Autodiff-graph forward: token ids [B, T] -> logits node [B, T, V],
    or [B, R, V] at the positions `rows` [B, R] when given. With rows, the
    graph holds the last block's queries, attention and MLP, the final norm
    and the head at the R rows only (see `_logits`)."""
    return _logits(ad, tensors, arch, tokens, None, rows)


def batch_logits(store: ParamStore, tokens, rows=None) -> np.ndarray:
    """Teacher-forced logits of equal-length rows: [B, T] ids -> [B, T, V],
    or [B, R, V] at the positions `rows` [B, R] when given, computed as
    `build_logits` computes them (the last block from its queries on, the
    final norm and the head run at those rows only).

    The same function as `build_logits`, run on plain arrays, so the values
    are the graph's bit for bit. The batch only adds a leading axis to every
    op, so each row gets the logits a one-row forward gives it, bit for bit
    (tests pin this). Right-padded rows of unequal length would not: the
    attention softmax then sums over more key positions, which regroups its
    terms.
    """
    return _logits(ad.arrays, store.entries, store.arch, tokens, None, rows)


def length_groups(seqs) -> list[list[int]]:
    """Indices of `seqs` grouped by length, at most MAX_BATCH_ROWS per
    group: the row sets `batch_logits` can take without padding, and the
    prompt sets that decoding prefills together and then steps in
    lock-step."""
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_len.setdefault(len(s), []).append(i)
    return [idx[start:start + MAX_BATCH_ROWS] for idx in by_len.values()
            for start in range(0, len(idx), MAX_BATCH_ROWS)]


def response_rows(pairs) -> np.ndarray:
    """The scored positions of (prompt, response) pairs, [B, R] with R the
    longest response (at least 1): row j of pair i is the logit row that
    predicts response token j, len(prompt_i) - 1 + j, and a shorter
    response repeats its last position."""
    first = np.array([len(p) - 1 for p, _ in pairs], dtype=np.int64)
    last = np.array([max(len(r) - 1, 0) for _, r in pairs], dtype=np.int64)
    j = np.arange(last.max() + 1)
    return first[:, None] + np.minimum(j, last[:, None])


def response_logits(store: ParamStore, pairs):
    """The teacher-forced scorer: for each (prompt, response) pair `i`,
    yields `(i, rows)`, where `rows` [|y|, V] are the logits that predict
    the pair's response tokens.

    Pairs are forwarded in exact-length groups of at most MAX_BATCH_ROWS
    (`length_groups`), so a pair's rows equal its one-pair forward bit for
    bit, whatever else is in the call. Each forward passes the group's
    `response_rows` as `rows`, so the last block's queries and MLP, the
    final norm and the head run on those positions only. Pairs come out
    group by group, and only one group's logits are held at a time.
    """
    pairs = [(list(p), list(r)) for p, r in pairs]
    if not all(p for p, _ in pairs):
        raise ContractError("prompt must be non-empty")
    seqs = [p + r for p, r in pairs]
    for group in length_groups(seqs):
        logits = batch_logits(store, [seqs[i] for i in group],
                              response_rows([pairs[i] for i in group]))
        for r, i in enumerate(group):
            yield i, logits[r, :len(pairs[i][1])]


def token_logprobs(store: ParamStore, prompt, response) -> np.ndarray:
    """Per-position log pi(y_i | prompt, y<i) for every response token.

    No `src/` code calls this: it is the one-pair oracle that tests compare
    the batched scorers against."""
    response = np.asarray(response, dtype=np.int64)
    [(_, logits)] = response_logits(store, [(prompt, response)])
    return ad.arrays.log_softmax(logits)[np.arange(response.size), response]


def _last_logits(store: ParamStore, step_in, cache: _Cache) -> np.ndarray:
    """Logits [B, V] at the last position of `step_in` [B, T], continuing
    `cache`. A prefill (T > 1) passes that position as `rows`, so the last
    block's queries, the final norm and the head run there only."""
    b, t = np.shape(step_in)
    rows = np.full((b, 1), t - 1) if t > 1 else None
    return _logits(ad.arrays, store.entries, store.arch, step_in, cache,
                   rows)[:, -1]


def decode_batch(store: ParamStore, prompts, max_len: int,
                 eos_id: int | None = None, seeds=None,
                 tau: float = 1.0) -> list[tuple[list[int], float]]:
    """Continuations of many prompts, greedy or, given one seed per prompt,
    sampled at temperature `tau`: for each prompt, the (tokens, logprob)
    pair a one-prompt decode gives it.

    Prompts of one length decode in lock-step: one forward of the prompts
    fills a key/value cache, then each step forwards only the tokens just
    emitted, and a row that emits `eos_id` leaves the batch with its cache
    rows. A greedy decode takes the log-softmax argmax (lowest id on ties);
    sampling draws row i from softmax(logits / tau) with its own
    `default_rng(seeds[i])`, so its draws do not depend on the other rows.
    """
    prompts = [list(p) for p in prompts]
    if seeds is not None and len(seeds) != len(prompts):
        raise ContractError("need one seed per prompt")
    if not all(prompts):
        raise ContractError("prompt must be non-empty")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    if seeds is not None and tau <= 0:
        raise ConfigError("temperature tau must be > 0")
    for p in prompts:
        _check_tokens(store.arch, p)
    rngs = (None if seeds is None
            else [np.random.default_rng(s) for s in seeds])
    outs: list[list[int]] = [[] for _ in prompts]
    totals = [0.0] * len(prompts)
    ctx = store.arch.context_len
    for rows in length_groups(prompts):
        live = np.asarray(rows)
        step_in = np.asarray([prompts[i] for i in rows], dtype=np.int64)
        cache = _Cache()
        for _ in range(min(max_len, ctx - step_in.shape[1])):
            logits = _last_logits(store, step_in, cache)
            lp = ad.arrays.log_softmax(logits)
            if rngs is None:
                nxt = lp.argmax(axis=-1)
            else:
                p = ad.arrays.softmax(logits / tau)
                nxt = np.asarray([rngs[i].choice(pr.size, p=pr)
                                  for i, pr in zip(live.tolist(), p)])
            picked = lp[np.arange(live.size), nxt]
            for i, tok, tok_lp in zip(live.tolist(), nxt.tolist(),
                                      picked.tolist()):
                outs[i].append(tok)
                totals[i] += tok_lp
            step_in = nxt[:, None]
            if eos_id is not None and (nxt == eos_id).any():
                keep = nxt != eos_id
                if not keep.any():
                    break
                live, step_in = live[keep], step_in[keep]
                cache = cache.take(keep)
    return list(zip(outs, totals))


def beam_search(store: ParamStore, prompt, width: int, max_len: int,
                eos_id: int | None = None) -> list[tuple[list[int], float]]:
    """Up to `width` deduplicated continuations of `prompt` as (tokens,
    logprob) pairs, sorted by total log-probability descending, ties toward
    the lexicographically lowest ids. A beam ends at `eos_id` (when given)
    or at max_len.

    Open beams always share one length. One forward of the prompt fills a
    key/value cache; each step then gathers every open beam's cache rows
    from its parent and forwards the beams' last tokens together. A beam's
    candidates outside its own best `min(width, V)` continuations cannot
    make the global top `width`, so only those enter the merge."""
    prompt = list(prompt)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    if width < 1:
        raise ConfigError("beam width must be >= 1")
    _check_tokens(store.arch, prompt)
    ctx = store.arch.context_len
    cache = _Cache()
    step_in = np.asarray([prompt], dtype=np.int64)
    # (tokens, logprob, finished, row of its parent's logits and cache)
    beams = [((), 0.0, False, 0)]
    while True:
        open_beams = [b for b in beams if not b[2]]
        if not open_beams:
            break
        nxt = [b for b in beams if b[2]]
        n = len(open_beams[0][0])
        if n >= max_len or len(prompt) + n >= ctx:
            nxt += [(toks, lp, True, -1) for toks, lp, _, _ in open_beams]
        else:
            if n:
                cache = cache.take([b[3] for b in open_beams])
                step_in = np.asarray([[b[0][-1]] for b in open_beams],
                                     dtype=np.int64)
            step = ad.arrays.log_softmax(_last_logits(store, step_in, cache))
            total = np.asarray([b[1] for b in open_beams])[:, None] + step
            # stable: equal totals keep id order, lowest id first
            top = np.argsort(-total, axis=-1, kind="stable")[:, :width]
            for r, (b, vs, lps) in enumerate(zip(
                    open_beams, top.tolist(),
                    np.take_along_axis(total, top, axis=-1).tolist())):
                nxt += [(b[0] + (v,), lp, v == eos_id, r)
                        for v, lp in zip(vs, lps)]
        # Stable: best logprob first, ties toward lexicographically low ids.
        # No sequence appears twice: open beams share one length, children
        # of distinct parents have distinct prefixes, children of one parent
        # differ in their last token, and every child is one token longer
        # than every finished beam.
        nxt.sort(key=lambda c: (-c[1], c[0]))
        beams = nxt[:width]
    beams.sort(key=lambda c: (-c[1], c[0]))
    return [(list(t), lp) for t, lp, _, _ in beams]


# Checkpoint file ------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path):
    """Write text to `<path>.tmp` and rename it over `path` when the block
    ends; if the block raises, the temporary file is removed and `path`
    keeps its old contents."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(doc, path):
    """Write `doc` to `path` atomically: the bytes of
    `json.dump(doc, f, sort_keys=True)` plus a newline.

    Only the skeleton is walked here: dicts whose keys are all `str`, and
    lists or tuples whose first element is a dict. Every other value is a
    leaf, encoded whole by `json.dumps(..., sort_keys=True)` (the C
    encoder), so the document never exists as one string. A list whose
    dicts come later is a leaf too, with the same bytes as the walk.

    One `json.dumps` of the whole document gives the same bytes, but it
    holds the document's text at once: on the 0.78 MB dynamics report it
    raised deskbench `dynamics` peak RSS from 42.3 to 46.4 MB (3 of 3
    runs, 2-core Xeon), so the walk stays."""

    def emit(node):
        if isinstance(node, dict) and all(isinstance(k, str) for k in node):
            write("{")
            for i, k in enumerate(sorted(node)):
                if i:
                    write(", ")
                write(json.dumps(k) + ": ")
                emit(node[k])
            write("}")
        elif (isinstance(node, (list, tuple)) and node
              and isinstance(node[0], dict)):
            write("[")
            for i, v in enumerate(node):
                if i:
                    write(", ")
                emit(v)
            write("]")
        else:
            write(json.dumps(node, sort_keys=True))

    with atomic_write(path) as f:
        write = f.write
        emit(doc)
        write("\n")


def save_checkpoint(store: ParamStore, path):
    """Write `store` to `path` as `{"arch", "seed", "params": {name:
    {"shape", "data"}}}`, each `data` the base64 of the parameter's
    little-endian float64 bytes in C order, so values round-trip bit for
    bit."""
    write_json({
        "arch": asdict(store.arch),
        "seed": store.seed,
        "params": {k: {"shape": list(v.shape),
                       "data": base64.b64encode(
                           np.asarray(v, "<f8").tobytes()).decode("ascii")}
                   for k, v in store.entries.items()},
    }, path)


@dataclass
class _CheckpointFile:
    arch: ArchConfig
    seed: int
    params: dict  # name -> {"shape", "data"}, checked per parameter below


def _param_values(name: str, data, shape: tuple) -> np.ndarray:
    """A parameter's `data` as a writable, native float64 array of `shape`.
    `data` is the base64 of its "<f8" bytes, or, in checkpoints of
    v0.1-v0.3, a list of numbers."""
    if isinstance(data, str):
        n_bytes = 8 * math.prod(shape)
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as e:  # binascii.Error, or a non-ASCII character
            raise DataError(f"parameter {name!r} data is not base64: {e}"
                            ) from None
        if len(raw) != n_bytes:
            raise DataError(f"parameter {name!r} data holds "
                            f"{len(raw)} bytes, expected {n_bytes}")
        # frombuffer gives a read-only view; AdamW updates entries in place.
        return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
    if not isinstance(data, list):
        raise DataError(f"parameter {name!r} data must be a base64 "
                        f"string or a list of numbers, got "
                        f"{reprlib.repr(data)}")
    try:
        return np.asarray(data, dtype=np.float64).reshape(shape)
    except (TypeError, ValueError) as e:
        raise DataError(f"parameter {name!r} data is malformed: {e}"
                        ) from None


def load_checkpoint(path) -> ParamStore:
    """The checkpoint at `path`; a bad file raises DataError naming it."""
    ckpt = schema.load(_CheckpointFile, path, "checkpoint file", DataError)
    try:
        entries = _param_entries(ckpt.params, param_shapes(ckpt.arch))
    except DataError as e:  # schema.load's errors name the file already
        raise DataError(f"checkpoint file {path}: {e}") from None
    return ParamStore(entries, ckpt.arch, ckpt.seed)


def _param_entries(params: dict, shapes: dict) -> dict:
    """The arrays of a checkpoint's `params`, one per name of `shapes`."""
    stray = sorted(params.keys() - shapes.keys())
    if stray:
        raise DataError(f"parameter {stray[0]!r} is not a parameter of its "
                        "arch")
    entries = {}
    for name, shape in shapes.items():
        if name not in params:
            raise DataError(f"missing parameter {name!r}")
        rec = params[name]
        if not (isinstance(rec, dict) and "shape" in rec and "data" in rec):
            raise DataError(f"parameter {name!r} must be an object with "
                            "'shape' and 'data'")
        if rec["shape"] != list(shape):
            raise DataError(f"shape mismatch for {name!r}")
        entries[name] = _param_values(name, rec["data"], shape)
        if not np.isfinite(entries[name]).all():
            raise DataError(f"parameter {name!r} is not finite")
    return entries
