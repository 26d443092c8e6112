"""Desk-pipeline benchmark for unlearnlab.

    python3 deskbench/run.py --workload train --seed 11 --seconds 15 --trace 0
    python3 deskbench/run.py --smoke

Run from the repository root. One run is one workload in this process (a
closed loop: one client, stages back to back). Set-up builds the inputs from
the seed; the measured phase runs the workload's unit about `--seconds`
worth of times (at least once) and reports the best unit. `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer metrics of a separate
traced run. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it print
every metric with its unit, and `.deskbench/<workload>.trace<t>.json` keeps
the full record (env block, input properties, failures).

`--smoke` runs every workload, check and the traced mode on a tiny arch and
corpus; it checks the harness and is not a timing gate.
`--record-reference` stores the default seed's outputs in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".deskbench"

BLAS_THREADS = "1"
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Stage metrics printed with the end-to-end block, for the workloads they
# apply to; only END_TO_END is on the result line, because every workload
# reports each of those.
STAGE_UNITS = {"finetune_s": "s", "unlearn_s": "s",
               "finetune_steps_per_s": "1/s", "unlearn_steps_per_s": "1/s",
               "eval_records_per_s": "1/s", "squeeze_s": "s",
               "dynamics_s": "s"}


def _nproc():
    return len(os.sched_getaffinity(0))


def _import_package():
    """Make src/ importable and pin BLAS to one thread.

    Desk-scale matmuls are too small for a second thread to help (a train
    unit took 7.0 s with one thread and with two, on 2 cores), and a
    spinning second thread only adds noise from whatever else shares the
    machine. Both variables are set whatever the environment holds, so
    every run measures the same configuration.
    """
    src = ROOT / "src"
    if not (src / "unlearnlab" / "__init__.py").is_file():
        print(f"deskbench: no unlearnlab package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))


def _git_sha():
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_block(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": _nproc(),
            "git_sha": _git_sha(), "seed": seed}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _guarded(ledger, what, fn):
    """Run `fn` as one operation; an exception counts as its failure."""
    ledger.attempted += 1
    try:
        return fn()
    except Exception:
        ledger.fail(what, traceback.format_exc())
        return None


def _best(values, key):
    """Fastest time, or highest rate for `*_per_s` keys."""
    return (max if key.endswith("_per_s") else min)(values)


def _timed(wl, ledger, seconds):
    """Set-up, then the best of `seconds // wl.unit_s` units (at least one).

    The host alternates between a fast state and one about 1.5x slower, in
    phases of 1 to 10 s (a fixed calibration loop read 6.3 ms and 9.5 ms per
    pass). A median over short units then depends on which state held
    during the run; the best unit is closer to the uncontended time. The
    unit count comes from `seconds` and the workload's nominal unit time,
    never from the measured speed, so a faster program is not also given
    more tries.
    """
    setup_s = _guarded(ledger, "setup", wl.setup)
    units = []
    for _ in range(max(1, int(seconds // wl.unit_s))):
        unit = _guarded(ledger, "unit", wl.unit)
        if unit is None:
            break
        units.append(unit)
    metrics = {k: _best([u[k] for u in units], k)
               for k in (units[0] if units else {})}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics, len(units)


def _traced(wl, ledger, name):
    import unlearnlab
    from spans import Tracer
    tracer = Tracer()
    tracer.install(unlearnlab)
    try:
        _guarded(ledger, "setup", wl.setup)
    finally:
        tracer.uninstall()
    # The first unit in a process runs cold (heap growth, first-touch
    # pages), so it is a warm-up; the overhead compares two warm units.
    _guarded(ledger, "warm-up unit", wl.unit)
    tracer.install(unlearnlab)
    try:
        traced = _guarded(ledger, "traced unit", wl.unit)
    finally:
        tracer.uninstall()
    plain = _guarded(ledger, "untraced unit", wl.unit)
    metrics = tracer.layer_metrics(traced["wall_s"] if traced else 0.0,
                                   plain["wall_s"] if plain else 0.0)
    tracer.write(OUT / f"{name}.spans.jsonl")
    return metrics, 3


def run_workload(name, sizes, seed, seconds, trace, record_reference=False):
    """One benchmark run; prints the report and returns the result line."""
    from spans import PER_LAYER
    from workloads import WORKLOADS, Ledger
    OUT.mkdir(exist_ok=True)
    ledger = Ledger()
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[name](sizes, seed, work, ledger)
    try:
        if trace:
            metrics, units = _traced(wl, ledger, name)
            units_of = dict(PER_LAYER)
        else:
            metrics, units = _timed(wl, ledger, seconds)
            units_of = dict(END_TO_END, **STAGE_UNITS)
        wl.check_all(record_reference)
        props = _guarded(ledger, "properties", wl.properties)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shown = {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()
             if v is not None}
    error_rate = ledger.failed / max(1, ledger.attempted)
    env = env_block(seed)
    record = {"workload": name, "sizes": sizes, "trace": trace,
              "seconds": seconds, "units_measured": units, "env": env,
              "properties": props, "metrics": shown,
              "error_rate": error_rate, "attempted": ledger.attempted,
              "failed": ledger.failed, "failures": ledger.failures}
    record_path = OUT / f"{name}.trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"deskbench {name} ({sizes}) seed={seed} trace={trace} "
          f"units={units}")
    for key, m in shown.items():
        if not trace or m["value"]:
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {error_rate:>14.6g} "
          f"({ledger.failed}/{ledger.attempted} operations)")
    print(f"  env: {json.dumps(env)}")
    print(f"  properties: {json.dumps(props, default=str)}")
    print(f"  record: {record_path.relative_to(ROOT)}")

    keys = [k for k, _ in PER_LAYER] if trace else list(END_TO_END)
    missing = [k for k in keys if metrics.get(k) is None]
    line = {"correct": ledger.failed == 0 and not missing,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {k: {"value": metrics.get(k) or 0.0,
                            "unit": units_of[k]} for k in keys}}
    print(json.dumps(line))
    return line


def _benchmark_json_matches():
    """BENCHMARK.json must list exactly the metrics the code reports."""
    from spans import HIGHER_IS_BETTER, PER_LAYER
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    want = {k: (u, "higher" if k in HIGHER_IS_BETTER else "lower")
            for k, u in PER_LAYER}
    from workloads import WORKLOADS
    return (e2e == END_TO_END and layer == want
            and [w["name"] for w in doc["workloads"]] == list(WORKLOADS))


def smoke(record_reference):
    from workloads import DEFAULT_SEED, WORKLOADS
    ok = _benchmark_json_matches()
    if not ok:
        print("deskbench smoke: BENCHMARK.json disagrees with the code",
              file=sys.stderr)
    for name in WORKLOADS:
        for trace in (0, 1):
            line = run_workload(name, "smoke", DEFAULT_SEED, 0, trace,
                                record_reference and not trace)
            ok &= line["correct"]
    print(f"deskbench smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    _import_package()
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.smoke:
        return smoke(args.record_reference)
    if args.workload not in WORKLOADS or args.seed is None \
            or args.seconds is None or args.seconds < 0:
        p.error(f"need --workload {{{','.join(WORKLOADS)}}}, --seed and "
                "--seconds >= 0 (or --smoke)")
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        p.error(f"--record-reference needs --seed {DEFAULT_SEED} --trace 0")
    run_workload(args.workload, "full", args.seed, args.seconds, args.trace,
                 args.record_reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
