"""Byte-identity matrix: run every CLI subcommand on a tiny arch and hash
what it writes.

    python tests/byte_matrix.py                 # sha256 of every output
    python tests/byte_matrix.py --against REV   # REV against the working tree

The matrix runs `gen-corpus`, `finetune` and `retrain`; `unlearn` for every
loss kind, and `bss` over each base kind; `eval` with a reference checkpoint
and the mock judge; `dynamics` with `bst`, `ga`, `npo` and `bss`;
`squeeze`; and a two-point `sweep`. Every output file is hashed with sha256 after the work directory's path in it is
replaced by a placeholder, so runs in different directories compare equal
when their bytes agree.

`--against REV` exports REV with `git archive` (no worktree is registered,
so nothing is left behind if the run is cut), runs the matrix on REV and on
the working tree, and prints one row per file: `equal`, `changed` with a
note on what changed, or the side it is only on. It exits 0 when every file
is equal, 1 otherwise.

The matrix itself runs in a child process (`--run WORK`) whose PYTHONPATH
holds the `src` directory under test, with BLAS pinned to one thread
(`run_matrix` takes another thread count, can run a subset of the steps,
and can run them with `runner._keep_freed_blocks` a no-op, so that glibc's
allocation thresholds stay at their defaults).
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
PLACEHOLDER = b"<WORK>"
ARCH = {"vocab_size": 400, "context_len": 32, "d_model": 8, "n_layers": 1,
        "n_heads": 2}
GEN = {"n_entities": 12, "forget_fraction": 0.34, "holdout_fraction": 0.34}


def _steps(work: Path, seed: int, loss_kinds, base_kinds):
    """(command, output directory, config document) for each CLI run."""
    out = work / "out"
    run = {"corpus_path": str(out / "corpus" / "corpus.jsonl"),
           "vocab_path": str(out / "corpus" / "vocab.json"),
           "arch": ARCH, "batch_size": 2, "epochs": 2,
           "checkpoint_every": 1, "seed": seed, "squeeze_prompts": 4,
           "beam_width": 8, "squeeze_max_len": 12}
    ref = str(out / "finetune" / "ckpt_final.json")
    unlearn = {"optimizer": {"lr": 1e-3}, "scheduler": {"kind": "constant"}}
    loss = {"lambda_retain": 0.5, "k": 5, "n_aug": 2}

    def unlearn_run(**kw):
        return dict(run, **unlearn, loss=dict(loss, **kw))

    steps = [("gen-corpus", "corpus", {"run": run, "gen": GEN}),
             ("finetune", "finetune", {"run": run}),
             ("retrain", "retrain", {"run": run})]
    for kind in loss_kinds:
        if kind != "bss":
            steps.append(("unlearn", f"unlearn_{kind}",
                          {"run": unlearn_run(kind=kind),
                           "reference_checkpoint": ref}))
    for base in base_kinds:
        steps.append(("unlearn", f"unlearn_bss_{base}",
                      {"run": unlearn_run(kind="bss", base_loss=base),
                       "reference_checkpoint": ref}))
    steps += [
        ("eval", "eval",
         {"run": run, "reference_checkpoint": ref, "judge": "mock",
          "eval_checkpoints": [ref, str(out / "unlearn_bst" /
                                        "ckpt_0001.json")]}),
        ("dynamics", "dynamics",
         {"run": dict(run, loss=dict(loss, kind="bst")),
          "reference_checkpoint": ref}),
        ("dynamics", "dynamics_ga",
         {"run": dict(run, loss=dict(loss, kind="ga")),
          "reference_checkpoint": ref}),
        ("dynamics", "dynamics_npo",
         {"run": dict(run, loss=dict(loss, kind="npo")),
          "reference_checkpoint": ref}),
        ("dynamics", "dynamics_bss",
         {"run": dict(run, loss=dict(loss, kind="bss")),
          "reference_checkpoint": ref}),
        ("squeeze", "squeeze",
         {"run": unlearn_run(kind="bss"), "reference_checkpoint": ref}),
        ("sweep", "sweep",
         {"run": unlearn_run(kind="bst"), "reference_checkpoint": ref,
          "sweep": {"loss.lambda_bst": [0.1, 0.3]}}),
    ]
    return steps


def _run_here(work: Path, seed: int, names=None, keep_freed=True):
    """Run every step, or the steps whose output directory is in `names`,
    with the importable `unlearnlab` (the child side)."""
    from unlearnlab import cli, runner
    from unlearnlab.objectives import BASE_KINDS, LOSS_KINDS

    if not keep_freed:
        runner._keep_freed_blocks = lambda: None

    cfg_dir = work / "cfg"
    cfg_dir.mkdir(parents=True)
    for i, (command, name, doc) in enumerate(
            _steps(work, seed, LOSS_KINDS, BASE_KINDS)):
        if names is not None and name not in names:
            continue
        cfg = cfg_dir / f"{i:02d}_{name}.json"
        cfg.write_text(json.dumps(doc))
        code = cli.main([command, "--config", str(cfg),
                         "--out", str(work / "out" / name)])
        if code != 0:
            raise SystemExit(f"byte_matrix: {command} ({name}) exited {code}")


def run_matrix(src: Path, work: Path, seed: int = SEED, threads: int = 1,
               steps=None, keep_freed=True) -> dict[str, str]:
    """Run the matrix with the package under `src` in a child process with
    BLAS at `threads` threads; returns {output path relative to the output
    root: sha256}. `steps`, when given, names the output directories of the
    steps to run (a step needs the steps whose outputs it reads).
    `keep_freed=False` makes `runner._keep_freed_blocks` a no-op in the
    child: the setting is process-wide and cached, so only a fresh process
    can run without it."""
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONDONTWRITEBYTECODE="1")
    only = [] if steps is None else ["--steps", ",".join(steps)]
    if not keep_freed:
        only.append("--no-keep-freed")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run", str(work),
         "--seed", str(seed), *only], env=env, capture_output=True,
        text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"matrix under {src} failed:\n{proc.stderr}")
    return {rel: hashlib.sha256(data).hexdigest()
            for rel, data in _outputs(work)}


def _outputs(work: Path):
    """(relative path, bytes with the work directory substituted) for every
    output file, in path order."""
    out = work / "out"
    for path in sorted(out.rglob("*")):
        if path.is_file():
            rel = path.relative_to(out).as_posix()
            yield rel, _read(work, rel)


def _read(work: Path, rel: str) -> bytes:
    """An output file's bytes with the work directory substituted."""
    data = (work / "out" / rel).read_bytes()
    return data.replace(str(work).encode(), PLACEHOLDER)


def compare(a: dict[str, str], b: dict[str, str]) -> dict[str, str]:
    """{path: equal | changed | only in A | only in B} by hash."""
    return {rel: ("only in A" if rel not in b else "only in B" if rel not in a
                  else "equal" if a[rel] == b[rel] else "changed")
            for rel in sorted(set(a) | set(b))}


def _parse(rel: str, data: bytes):
    text = data.decode()
    if rel.endswith(".csv"):
        return [line.split(",") for line in text.splitlines()]
    if rel.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    doc = json.loads(text)
    if _is_checkpoint(rel):
        for rec in doc["params"].values():
            rec["data"] = _param_values(rec["data"])
    return doc


def _is_checkpoint(rel: str) -> bool:
    name = Path(rel).name
    return name.startswith("ckpt_") and name.endswith(".json")


def _param_values(data) -> np.ndarray:
    """A checkpoint parameter's flat float64 values, from the base64 of its
    "<f8" bytes (v0.4 on) or a list of decimal floats (v0.1-v0.3)."""
    if isinstance(data, str):
        return np.frombuffer(base64.b64decode(data), "<f8").astype(np.float64)
    return np.asarray(data, dtype=np.float64).ravel()


def _number(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return x
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _diff(a, b, path, drift, other):
    """Walk two parsed documents: numeric differences go to `drift` (float
    arrays differ when their bits do), every other differing path to
    `other`."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape:
            other.append(path)
        elif not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
            drift.append(float(np.max(np.abs(a - b))))
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k in a and k in b:
                _diff(a[k], b[k], f"{path}.{k}", drift, other)
            else:
                other.append(f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{i}]", drift, other)
    elif _number(a) is not None and _number(b) is not None:
        if _number(a) != _number(b):
            drift.append(abs(_number(a) - _number(b)))
    elif a != b:
        other.append(path)


def describe(rel: str, data_a: bytes, data_b: bytes) -> str:
    """What changed in a file: the differing non-numeric paths and the
    largest numeric drift, either alone when the other is empty, or that
    only the encoding changed (a checkpoint's parameters are then equal bit
    for bit)."""
    drift, other = [], []
    _diff(_parse(rel, data_a), _parse(rel, data_b), "$", drift, other)
    if other:
        more = f" (+{len(other) - 3} more)" if len(other) > 3 else ""
        numbers = f"; numbers, max |d| = {max(drift):.3g}" if drift else ""
        return "changed: " + ", ".join(other[:3]) + more + numbers
    if drift:
        return f"changed: numbers only, max |d| = {max(drift):.3g}"
    if _is_checkpoint(rel):
        return "changed: encoding only, parameters equal bit for bit"
    return "changed: encoding only, values equal"


def _export(rev: str, dest: Path):
    """Write the tree of `rev` to `dest` with `git archive`."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                           rev], capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"byte_matrix: git archive {rev}: "
                         f"{proc.stderr.decode().strip()}")
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=proc.stdout,
                   check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare REV's outputs with the working tree's")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--run", metavar="WORK", help=argparse.SUPPRESS)
    parser.add_argument("--steps", help=argparse.SUPPRESS)
    parser.add_argument("--no-keep-freed", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        _run_here(Path(args.run), args.seed,
                  args.steps.split(",") if args.steps else None,
                  keep_freed=not args.no_keep_freed)
        return 0
    with tempfile.TemporaryDirectory(prefix="byte_matrix_") as tmp:
        tmp = Path(tmp)
        mine = run_matrix(ROOT / "src", tmp / "tree", args.seed)
        if args.against is None:
            for rel, digest in mine.items():
                print(f"{digest}  {rel}")
            return 0
        _export(args.against, tmp / "rev")
        theirs = run_matrix(tmp / "rev" / "src", tmp / "rev_run", args.seed)
        status = compare(theirs, mine)
        width = max(map(len, status))
        print(f"A = {args.against}, B = working tree")
        for rel, s in status.items():
            if s == "changed":
                s = describe(rel, _read(tmp / "rev_run", rel),
                             _read(tmp / "tree", rel))
            print(f"{rel:<{width}}  {s}")
        n_equal = sum(s == "equal" for s in status.values())
        print(f"{n_equal} of {len(status)} files equal")
        return 0 if n_equal == len(status) else 1


if __name__ == "__main__":
    sys.exit(main())
