"""Tiny decoder-only causal LM: pre-norm transformer blocks with learned
positional embeddings, teacher-forced scoring, and greedy / temperature /
beam decoding.

Two forward paths share the same parameter layout: `build_logits` constructs
an autodiff graph (used by loss builders and the dynamics checks), while the
plain-numpy path backs scoring and decoding. A test pins them to identical
outputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .errors import (ConfigError, ContractError, DataError, LengthError,
                     VocabError)

NEG_INF = -1e30
# Rows per batched forward. Caps the [rows, T, vocab] logits block, so
# memory does not grow with the number of sequences scored.
MAX_BATCH_ROWS = 64


@dataclass(frozen=True)
class ArchConfig:
    vocab_size: int
    context_len: int
    d_model: int
    n_layers: int
    n_heads: int
    tie_output_head: bool = False

    def validate(self):
        if self.vocab_size < 1 or self.context_len < 1 or self.d_model < 1:
            raise ConfigError("vocab_size, context_len, d_model must be >= 1")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be >= 0")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError("n_heads must be >= 1 and divide d_model")


# Decoding strategies -------------------------------------------------------


@dataclass(frozen=True)
class Greedy:
    pass


@dataclass(frozen=True)
class Temperature:
    tau: float
    seed: int

    def validate(self):
        if self.tau <= 0:
            raise ConfigError("temperature tau must be > 0")


@dataclass(frozen=True)
class Beam:
    width: int

    def validate(self):
        if self.width < 1:
            raise ConfigError("beam width must be >= 1")


# Parameter store ------------------------------------------------------------


def param_shapes(arch: ArchConfig) -> dict[str, tuple]:
    """Names and shapes as a deterministic function of the architecture."""
    d, v = arch.d_model, arch.vocab_size
    shapes = {
        "tok_emb": (v, d),
        "pos_emb": (arch.context_len, d),
    }
    for i in range(arch.n_layers):
        p = f"layers.{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        shapes[p + "attn.wq"] = (d, d)
        shapes[p + "attn.wk"] = (d, d)
        shapes[p + "attn.wv"] = (d, d)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "mlp.w1"] = (d, 4 * d)
        shapes[p + "mlp.b1"] = (4 * d,)
        shapes[p + "mlp.w2"] = (4 * d, d)
        shapes[p + "mlp.b2"] = (d,)
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

    def flat(self) -> np.ndarray:
        """All parameters concatenated in sorted-name order."""
        return np.concatenate([self.entries[k].ravel()
                               for k in sorted(self.entries)])

    def add_flat(self, delta: np.ndarray) -> "ParamStore":
        """New store with `delta` (sorted-name flat layout) added."""
        out = self.snapshot()
        off = 0
        for k in sorted(out.entries):
            n = out.entries[k].size
            out.entries[k] += delta[off:off + n].reshape(out.entries[k].shape)
            off += n
        return out


def init_model(arch: ArchConfig, seed: int) -> ParamStore:
    """Scaled-normal init from a seeded PRNG.

    The output head starts at zero when untied, so an untrained model emits
    an exactly uniform next-token distribution. Residual output projections
    (attn.wo, mlp.w2) get the usual depth-scaled std.
    """
    arch.validate()
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


def _check_tokens(arch: ArchConfig, tokens):
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.shape[-1] > arch.context_len:
        raise LengthError(
            f"sequence length {tokens.shape[-1]} exceeds context "
            f"{arch.context_len}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= arch.vocab_size):
        raise VocabError("token id out of vocabulary range")
    return tokens


def _causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), NEG_INF), k=1)[None, None]


def build_logits(tensors: dict[str, ad.Node], arch: ArchConfig,
                 tokens) -> ad.Node:
    """Autodiff-graph forward: token ids [B, T] -> logits node [B, T, V]."""
    tokens = _check_tokens(arch, tokens)
    b, t = tokens.shape
    d, h = arch.d_model, arch.n_heads
    dh = d // h
    x = ad.take_rows(tensors["tok_emb"], tokens)
    pos = ad.take_rows(tensors["pos_emb"], np.arange(t))
    x = ad.add(x, pos)
    mask = ad.constant(_causal_mask(t))
    for i in range(arch.n_layers):
        p = f"layers.{i}."
        a = ad.layer_norm(x, tensors[p + "ln1.g"], tensors[p + "ln1.b"])
        q = ad.matmul(a, tensors[p + "attn.wq"])
        k = ad.matmul(a, tensors[p + "attn.wk"])
        v = ad.matmul(a, tensors[p + "attn.wv"])
        # [B, T, D] -> [B, H, T, dh]
        q = ad.transpose(ad.reshape(q, (b, t, h, dh)), (0, 2, 1, 3))
        k = ad.transpose(ad.reshape(k, (b, t, h, dh)), (0, 2, 1, 3))
        v = ad.transpose(ad.reshape(v, (b, t, h, dh)), (0, 2, 1, 3))
        att = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                       1.0 / math.sqrt(dh))
        att = ad.softmax(ad.add(att, mask))
        o = ad.matmul(att, v)
        o = ad.reshape(ad.transpose(o, (0, 2, 1, 3)), (b, t, d))
        x = ad.add(x, ad.matmul(o, tensors[p + "attn.wo"]))
        m = ad.layer_norm(x, tensors[p + "ln2.g"], tensors[p + "ln2.b"])
        m = ad.gelu(ad.add(ad.matmul(m, tensors[p + "mlp.w1"]),
                           tensors[p + "mlp.b1"]))
        m = ad.add(ad.matmul(m, tensors[p + "mlp.w2"]), tensors[p + "mlp.b2"])
        x = ad.add(x, m)
    x = ad.layer_norm(x, tensors["ln_f.g"], tensors["ln_f.b"])
    if arch.tie_output_head:
        return ad.matmul(x, ad.transpose(tensors["tok_emb"], (1, 0)))
    return ad.matmul(x, tensors["head"])


def _layer_norm_np(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv * g + b


def _gelu_np(x):
    u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(u))


def _softmax_np(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_np(x):
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _forward_np(entries: dict[str, np.ndarray], arch: ArchConfig,
                tokens: np.ndarray) -> np.ndarray:
    """Plain-numpy forward, op-for-op identical to build_logits."""
    b, t = tokens.shape
    d, h = arch.d_model, arch.n_heads
    dh = d // h
    x = entries["tok_emb"][tokens] + entries["pos_emb"][:t]
    mask = _causal_mask(t)
    for i in range(arch.n_layers):
        p = f"layers.{i}."
        a = _layer_norm_np(x, entries[p + "ln1.g"], entries[p + "ln1.b"])
        q = (a @ entries[p + "attn.wq"]).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        k = (a @ entries[p + "attn.wk"]).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        v = (a @ entries[p + "attn.wv"]).reshape(b, t, h, dh).transpose(0, 2, 1, 3)
        att = _softmax_np(q @ k.transpose(0, 1, 3, 2) * (1.0 / math.sqrt(dh))
                          + mask)
        o = (att @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        x = x + o @ entries[p + "attn.wo"]
        m = _layer_norm_np(x, entries[p + "ln2.g"], entries[p + "ln2.b"])
        m = _gelu_np(m @ entries[p + "mlp.w1"] + entries[p + "mlp.b1"])
        x = x + (m @ entries[p + "mlp.w2"] + entries[p + "mlp.b2"])
    x = _layer_norm_np(x, entries["ln_f.g"], entries["ln_f.b"])
    if arch.tie_output_head:
        return x @ entries["tok_emb"].T
    return x @ entries["head"]


def batch_logits(store: ParamStore, tokens) -> np.ndarray:
    """Teacher-forced logits of equal-length rows: [B, T] ids -> [B, T, V].

    The batch only adds a leading axis to every op, so each row gets the
    logits a one-row forward gives it, bit for bit (tests pin this).
    Right-padded rows of unequal length would not: the attention softmax
    then sums over more key positions, which regroups its terms.
    """
    tokens = _check_tokens(store.arch, tokens)
    return _forward_np(store.entries, store.arch, tokens)


def forward_logits(store: ParamStore, tokens) -> np.ndarray:
    """Teacher-forced logits, one row per position: [T, V]."""
    return batch_logits(store, tokens)[0]


def length_groups(seqs) -> list[list[int]]:
    """Indices of `seqs` grouped by length, at most MAX_BATCH_ROWS per
    group: the row sets `batch_logits` can take without padding."""
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_len.setdefault(len(s), []).append(i)
    return [idx[start:start + MAX_BATCH_ROWS] for idx in by_len.values()
            for start in range(0, len(idx), MAX_BATCH_ROWS)]


def next_token_dist(store: ParamStore, tokens) -> np.ndarray:
    """Next-token probability vector after the given prefix."""
    return _softmax_np(forward_logits(store, tokens)[-1])


def token_logprobs(store: ParamStore, prompt, response) -> np.ndarray:
    """Per-position log pi(y_i | prompt, y<i) for every response token."""
    prompt = list(prompt)
    response = list(response)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if not response:
        return np.zeros(0)
    seq = np.asarray(prompt + response, dtype=np.int64)
    logits = forward_logits(store, seq)
    lp = _log_softmax_np(logits)
    pos = np.arange(len(prompt) - 1, len(seq) - 1)
    return lp[pos, np.asarray(response)]


def sequence_logprob(store: ParamStore, prompt, response) -> float:
    """Sum of response-token log-probabilities under teacher forcing."""
    return float(token_logprobs(store, prompt, response).sum())


def decode(store: ParamStore, prompt, strategy, max_len: int,
           eos_id: int | None = None) -> list[tuple[list[int], float]]:
    """Generate continuations of `prompt`.

    Greedy and temperature decoding return a single (tokens, logprob) pair;
    beam decoding returns up to `width` deduplicated pairs sorted by total
    log-probability descending. Sequences end at `eos_id` (when given) or at
    max_len. Ties break toward the lowest token id.
    """
    prompt = list(prompt)
    if not prompt:
        raise ContractError("prompt must be non-empty")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    if isinstance(strategy, (Temperature, Beam)):
        strategy.validate()
    ctx = store.arch.context_len

    if isinstance(strategy, Beam):
        return _beam_decode(store, prompt, strategy.width, max_len, eos_id)

    rng = (np.random.default_rng(strategy.seed)
           if isinstance(strategy, Temperature) else None)
    out, total = [], 0.0
    while len(out) < max_len and len(prompt) + len(out) < ctx:
        logits = forward_logits(store, prompt + out)[-1]
        lp = _log_softmax_np(logits)
        if rng is None:
            nxt = int(np.argmax(lp))
        else:
            p = _softmax_np(logits / strategy.tau)
            nxt = int(rng.choice(p.size, p=p))
        total += float(lp[nxt])
        out.append(nxt)
        if eos_id is not None and nxt == eos_id:
            break
    return [(out, total)]


def greedy_batch(store: ParamStore, prompts, max_len: int,
                 eos_id: int | None = None) -> list[list[int]]:
    """Greedy continuations of many prompts: for each prompt, the tokens
    `decode(store, prompt, Greedy(), max_len, eos_id)` returns.

    Prompts of one length decode in lock-step, one forward per step, and a
    row that emits `eos_id` leaves the batch.
    """
    prompts = [list(p) for p in prompts]
    if not all(prompts):
        raise ContractError("prompt must be non-empty")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    outs: list[list[int]] = [[] for _ in prompts]
    ctx = store.arch.context_len
    for rows in length_groups(prompts):
        live = np.asarray(rows)
        seqs = np.asarray([prompts[i] for i in rows], dtype=np.int64)
        for _ in range(min(max_len, ctx - seqs.shape[1])):
            lp = _log_softmax_np(batch_logits(store, seqs)[:, -1])
            nxt = lp.argmax(axis=-1)
            for i, tok in zip(live.tolist(), nxt.tolist()):
                outs[i].append(tok)
            seqs = np.concatenate([seqs, nxt[:, None]], axis=1)
            if eos_id is not None:
                keep = nxt != eos_id
                live, seqs = live[keep], seqs[keep]
                if not live.size:
                    break
    return outs


def _beam_decode(store, prompt, width, max_len, eos_id):
    ctx = store.arch.context_len
    beams = [((), 0.0, False)]  # (tokens, logprob, finished)
    while True:
        if all(f for _, _, f in beams):
            break
        nxt = []
        for toks, lp, fin in beams:
            if fin or len(toks) >= max_len or len(prompt) + len(toks) >= ctx:
                nxt.append((toks, lp, True))
                continue
            logits = forward_logits(store, prompt + list(toks))[-1]
            step = _log_softmax_np(logits)
            for v in range(step.size):
                done = eos_id is not None and v == eos_id
                nxt.append((toks + (v,), lp + float(step[v]), done))
        # Stable: best logprob first, ties toward lexicographically low ids.
        nxt.sort(key=lambda c: (-c[1], c[0]))
        best: dict[tuple, tuple] = {}
        for c in nxt:
            if c[0] not in best:
                best[c[0]] = c
        beams = list(best.values())[:width]
    beams.sort(key=lambda c: (-c[1], c[0]))
    return [(list(t), lp) for t, lp, _ in beams]


# Checkpoint file ------------------------------------------------------------


_WRITE_SLICE = 1 << 16


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


def save_checkpoint(store: ParamStore, path):
    doc = {
        "arch": asdict(store.arch),
        "seed": store.seed,
        "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()}
                   for k, v in store.entries.items()},
    }
    # json.dumps runs the C encoder; json.dump streams through the pure-Python
    # one. The bytes are the same. Writing in slices keeps the encoded copy
    # small instead of doubling the ~3 MB text.
    text = json.dumps(doc, sort_keys=True) + "\n"
    with atomic_write(path) as f:
        for start in range(0, len(text), _WRITE_SLICE):
            f.write(text[start:start + _WRITE_SLICE])


def load_checkpoint(path) -> ParamStore:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError as e:
        raise DataError(f"checkpoint file not found: {e.filename}")
    except json.JSONDecodeError as e:
        raise DataError(f"checkpoint file is malformed: {e}")
    if not isinstance(doc, dict):
        raise DataError("checkpoint file must hold a JSON object")
    for key in ("arch", "params", "seed"):
        if key not in doc:
            raise DataError(f"checkpoint file is missing {key!r}")
    try:
        arch = ArchConfig(**doc["arch"])
    except TypeError as e:
        raise DataError(f"checkpoint 'arch' is malformed: {e}")
    arch.validate()
    expected = param_shapes(arch)
    entries = {}
    for name, shape in expected.items():
        if name not in doc["params"]:
            raise ConfigError(f"checkpoint missing parameter {name!r}")
        rec = doc["params"][name]
        if tuple(rec["shape"]) != shape:
            raise ConfigError(f"checkpoint shape mismatch for {name!r}")
        entries[name] = np.asarray(rec["data"], dtype=np.float64).reshape(shape)
        if not np.isfinite(entries[name]).all():
            raise DataError(f"checkpoint parameter {name!r} is not finite")
    return ParamStore(entries, arch, int(doc["seed"]))
