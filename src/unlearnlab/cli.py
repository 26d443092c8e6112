"""Command-line entry point.

Subcommands: gen-corpus, finetune, retrain, unlearn, eval, dynamics,
squeeze, sweep. Exit codes: 0 success, 2 config error, 3 data error,
4 judge unavailable (eval with a required http judge only).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as cp
from . import judge as jd
from . import runner
from .errors import (CapabilityError, ConfigError, ContractError, DataError,
                     JudgeUnavailableError, UnlearnLabError)


def _load_doc(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _run_config(doc: dict, args) -> runner.RunConfig:
    cfg = runner.RunConfig.from_dict(doc.get("run", {}))
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    return cfg


def _endpoint(doc: dict) -> jd.EndpointConfig | None:
    ep = doc.get("judge_endpoint")
    return (runner.config_section(jd.EndpointConfig, ep, "judge_endpoint")
            if ep else None)


def _reference(doc: dict, args):
    return args.checkpoint[0] if args.checkpoint else doc.get(
        "reference_checkpoint")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unlearnlab",
        description="Desk-scale unlearning laboratory on a tiny LM")
    parser.add_argument("command", choices=[
        "gen-corpus", "finetune", "retrain", "unlearn", "eval", "dynamics",
        "squeeze", "sweep"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--judge", choices=["mock", "http"], default=None)
    parser.add_argument("--checkpoint", action="append", default=None,
                        help="checkpoint path (reference for unlearn/"
                             "squeeze/dynamics; repeatable for eval)")
    args = parser.parse_args(argv)

    try:
        doc = _load_doc(args.config)
        cfg = _run_config(doc, args)
        if args.command == "gen-corpus":
            gen = runner.config_section(cp.GenConfig, doc.get("gen", {}),
                                        "gen")
            corp = cp.generate_corpus(gen, cfg.seed)
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            cp.save_corpus(corp, out / "corpus.jsonl", out / "vocab.json")
            print(f"gen-corpus: {len(corp.records)} records, "
                  f"|vocab|={len(corp.vocab)} -> {out}")
        elif args.command == "finetune":
            runner.run_finetune(cfg)
        elif args.command == "retrain":
            runner.run_retrain(cfg)
        elif args.command == "unlearn":
            runner.run_unlearn(cfg, _reference(doc, args))
        elif args.command == "squeeze":
            runner.run_squeeze(cfg, _reference(doc, args))
        elif args.command == "dynamics":
            runner.run_dynamics(cfg, checkpoint=_reference(doc, args))
        elif args.command == "sweep":
            grid = doc.get("sweep")
            if isinstance(grid, str):
                if grid not in runner.PRESET_GRIDS:
                    raise ConfigError(f"unknown sweep preset {grid!r}")
                grid = runner.PRESET_GRIDS[grid]
            if not grid:
                raise ConfigError("sweep requires a 'sweep' grid or preset")
            runner.run_sweep(cfg, _reference(doc, args), grid)
        elif args.command == "eval":
            ckpts = args.checkpoint or doc.get("eval_checkpoints")
            if not ckpts:
                raise ConfigError("eval needs --checkpoint or eval_checkpoints")
            judge_mode = args.judge or doc.get("judge", "none")
            if judge_mode not in ("none", "mock", "http"):
                raise ConfigError(f"judge must be none, mock or http, got "
                                  f"{judge_mode!r}")
            if judge_mode == "http" and not doc.get("judge_endpoint"):
                raise ConfigError("--judge http needs a judge_endpoint")
            reports = runner.run_eval(
                cfg, ckpts, ref_checkpoint=doc.get("reference_checkpoint"),
                judge_mode=judge_mode, endpoint=_endpoint(doc))
            if judge_mode == "http":
                jdocs = [r.get("judge", {}) for r in reports]
                if jdocs and all(j.get("errors", 0) == j.get("n", 0) > 0
                                 for j in jdocs):
                    print("eval: judge endpoint unavailable for every record",
                          file=sys.stderr)
                    return 4
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except JudgeUnavailableError as e:
        print(f"judge unavailable: {e}", file=sys.stderr)
        return 4
    except (ContractError, CapabilityError, UnlearnLabError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
