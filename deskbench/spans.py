"""Span tracing for the desk benchmark, installed from outside the package.

`Tracer.install()` replaces each public function of every layer module with
a wrapper that records a span (name, start, end, parent) in memory. The
wrapper is set as a module attribute, so calls inside a module that go
through its globals (`decode` -> `forward_logits`) are caught as well as
calls from other modules; names bound with `from x import y` elsewhere are
rebound to the same wrapper. `AdamW.step` is wrapped on the class.
`uninstall()` puts every original back.

`layer_metrics()` turns the spans into the per-layer metrics listed in
PER_LAYER, which mirrors `per_layer` in BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("autodiff", "lm", "objectives", "beliefs", "optim", "metrics",
          "dynamics", "judge", "corpus", "runner")
STAGES = ("finetune", "unlearn", "eval", "squeeze", "dynamics")
# autodiff functions that are not graph-building ops
AD_NON_OPS = {"autodiff.grad", "autodiff.evaluate", "autodiff.finite_diff"}


def _fn_metrics(prefix, *extra):
    return [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")] + [
        (f"{prefix}.{name}", unit) for name, unit in extra]


PER_LAYER = (
    _fn_metrics("autodiff.grad")
    + _fn_metrics("autodiff.ops")
    + _fn_metrics("autodiff.matmul", ("gflop", "GFLOP"))
    + _fn_metrics("lm.build_logits")
    + _fn_metrics("lm.forward_logits", ("positions", "count"))
    + _fn_metrics("lm.decode.greedy", ("tokens", "count"))
    + _fn_metrics("lm.decode.temperature", ("tokens", "count"))
    + _fn_metrics("lm.decode.beam", ("tokens", "count"))
    + _fn_metrics("lm.save_checkpoint", ("bytes", "bytes"))
    + _fn_metrics("lm.load_checkpoint")
    + _fn_metrics("objectives.loss_retain")
    + _fn_metrics("objectives.loss_bst")
    + _fn_metrics("objectives.loss_bss")
    + _fn_metrics("objectives.batch_sequence_logprobs")
    + _fn_metrics("beliefs.belief_node")
    + _fn_metrics("beliefs.sample_augmentations")
    + _fn_metrics("optim.step")
    + _fn_metrics("metrics.evaluate_model")
    + _fn_metrics("metrics.extraction_strength")
    + _fn_metrics("metrics.normalized_probability")
    + _fn_metrics("metrics.exact_memorization")
    + _fn_metrics("metrics.truth_ratio")
    + _fn_metrics("metrics.rouge_l_f1")
    + [("metrics.es_decodes_per_record", "decodes/record")]
    + _fn_metrics("dynamics.akg_check")
    + _fn_metrics("dynamics.logit_jacobian")
    + _fn_metrics("dynamics.squeeze_trace")
    + _fn_metrics("judge.mock_judge")
    + _fn_metrics("corpus.generate_corpus")
    + _fn_metrics("corpus.load_corpus")
    + [(f"runner.{st}.{m}", u) for st in STAGES
       for m, u in (("s", "s"), ("self_s", "s"), ("out_bytes", "bytes"))]
    + [("runner.step_ms.p50", "ms"), ("runner.step_ms.p90", "ms"),
       ("runner.step_ms.n", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)
# Sample counts are the only per-layer metrics where more is better.
HIGHER_IS_BETTER = {"runner.step_ms.n"}


def dir_bytes(path) -> int:
    """Total size of the regular files under `path` (0 when absent)."""
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.stat(os.path.join(base, name)).st_size
    return total


def _span_name(layer, fname):
    if layer == "runner" and fname.startswith("run_"):
        return f"runner.{fname[4:]}"
    return f"{layer}.{fname}"


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.extra = defaultdict(float)   # name -> summed work counter
        self._stack = []
        self._patches = []       # (owner, attr, original)

    # Installation ------------------------------------------------------------

    def install(self, package):
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, _span_name(layer, fname),
                                     self._counter_for(layer, fname))
                wrapped[id(fn)] = (fn, wrapper)
                self._patch(mod, fname, wrapper)
        # Rebind names other modules imported with `from x import y`.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        adamw = modules["optim"].AdamW
        self._patch(adamw, "step", self._wrap(adamw.step, "optim.step", None))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "lm.decode":
                strategy = args[2] if len(args) > 2 else kwargs["strategy"]
                span_name = f"lm.decode.{type(strategy).__name__.lower()}"
            idx = len(spans)
            span = [span_name, perf(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if counter is not None:
                counter(self.extra, span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    @staticmethod
    def _counter_for(layer, fname):
        """Work counters taken from arguments and results at the boundary."""
        if (layer, fname) == ("autodiff", "matmul"):
            def count(extra, name, args, kwargs, result):
                a, b = args[0].value.shape, args[1].value.shape
                batch = 1
                for d in result.value.shape[:-2]:
                    batch *= d
                extra[name + ".gflop"] += 2.0 * batch * a[-2] * a[-1] \
                    * b[-1] / 1e9
            return count
        if (layer, fname) == ("lm", "forward_logits"):
            def count(extra, name, args, kwargs, result):
                extra[name + ".positions"] += result.shape[0]
            return count
        if (layer, fname) == ("lm", "decode"):
            def count(extra, name, args, kwargs, result):
                extra[name + ".tokens"] += sum(len(t) for t, _ in result)
            return count
        if (layer, fname) == ("lm", "save_checkpoint"):
            def count(extra, name, args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs["path"]
                extra[name + ".bytes"] += os.stat(path).st_size
            return count
        if layer == "runner" and fname.startswith("run_"):
            def count(extra, name, args, kwargs, result):
                config = args[0] if args else kwargs["config"]
                extra[name + ".out_bytes"] = dir_bytes(config.out_dir)
            return count
        return None

    # Output ------------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")

    def self_times(self):
        """Per-span duration minus the time its direct children cover.

        Calls are nested and sequential (one thread), so the children of a
        span never overlap and their union is their sum.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self, wall_s, untraced_wall_s):
        """Every PER_LAYER metric; 0 where the workload never reaches it."""
        out = {name: 0.0 for name, _ in PER_LAYER}
        selfs = self.self_times()
        spans = self.spans
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += selfs[i]
            if name + ".calls" in out:
                out[name + ".calls"] += 1
                out[name + ".s"] += dur
            if layer == "autodiff" and name not in AD_NON_OPS:
                out["autodiff.ops.calls"] += 1
                parent_name = spans[parent][0] if parent >= 0 else ""
                if not (parent_name.startswith("autodiff.")
                        and parent_name not in AD_NON_OPS):
                    out["autodiff.ops.s"] += dur
            if name.startswith("runner.") and name[7:] in STAGES:
                out[name + ".s"] += dur
                out[name + ".self_s"] += selfs[i]
        for key, value in self.extra.items():
            if key in out:
                out[key] = value
        es = out["metrics.extraction_strength.calls"]
        if es:
            es_ids = {i for i, s in enumerate(spans)
                      if s[0] == "metrics.extraction_strength"}
            decodes = sum(1 for s in spans
                          if s[0] == "lm.decode.greedy" and s[3] in es_ids)
            out["metrics.es_decodes_per_record"] = decodes / es
        steps = _step_intervals_ms(spans)
        if steps:
            steps.sort()
            out["runner.step_ms.p50"] = _percentile(steps, 0.5)
            out["runner.step_ms.p90"] = _percentile(steps, 0.9)
            out["runner.step_ms.n"] = len(steps)
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.spans"] = len(spans)
        return out


def _step_intervals_ms(spans):
    """Gaps between consecutive optimizer-step starts inside one stage."""
    last_start = {}
    gaps = []
    for name, start, _, parent in spans:
        if name != "optim.step":
            continue
        if parent in last_start:
            gaps.append((start - last_start[parent]) * 1e3)
        last_start[parent] = start
    return gaps


def _percentile(sorted_values, q):
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)
