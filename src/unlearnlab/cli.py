"""Command-line entry point.

Subcommands: gen-corpus, finetune, retrain, unlearn, eval, dynamics,
squeeze, sweep. Exit codes: 0 success, 2 config error, 3 data error,
4 judge unavailable (eval with a required http judge only).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace

from . import corpus as cp
from . import judge as jd
from . import runner, schema
from .errors import (ConfigError, DataError, JudgeUnavailableError,
                     UnlearnLabError)


@dataclass(frozen=True)
class ConfigFile:
    """The whole config document; every key is optional."""
    run: runner.RunConfig = field(default_factory=runner.RunConfig)
    gen: cp.GenConfig = field(default_factory=cp.GenConfig)
    reference_checkpoint: str | None = None
    eval_checkpoints: list[str] = field(default_factory=list)
    judge: str = "none"
    judge_endpoint: jd.EndpointConfig | None = None
    sweep: str | dict[str, list] | None = None  # preset name or grid

    def __post_init__(self):
        if self.judge not in ("none", "mock", "http"):
            raise ConfigError(f"judge must be none, mock or http, got "
                              f"{self.judge!r}")
        if (isinstance(self.sweep, str)
                and self.sweep not in runner.PRESET_GRIDS):
            raise ConfigError(f"unknown sweep preset {self.sweep!r}")


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
        conf = schema.load(ConfigFile, args.config, "config file",
                           ConfigError)
        cfg = conf.run
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        reference = (args.checkpoint[0] if args.checkpoint
                     else conf.reference_checkpoint)
        if args.command == "gen-corpus":
            corp = cp.generate_corpus(conf.gen, cfg.seed)
            out = runner.make_out_dir(cfg.out_dir)
            cp.save_corpus(corp, out / "corpus.jsonl", out / "vocab.json")
            print(f"gen-corpus: {len(corp.records)} records, "
                  f"|vocab|={len(corp.vocab)} -> {out}")
        elif args.command == "finetune":
            runner.run_finetune(cfg)
        elif args.command == "retrain":
            runner.run_retrain(cfg)
        elif args.command == "unlearn":
            runner.run_unlearn(cfg, reference)
        elif args.command == "squeeze":
            runner.run_squeeze(cfg, reference)
        elif args.command == "dynamics":
            runner.run_dynamics(cfg, checkpoint=reference)
        elif args.command == "sweep":
            grid = (runner.PRESET_GRIDS[conf.sweep]
                    if isinstance(conf.sweep, str) else conf.sweep)
            if not grid:
                raise ConfigError("sweep requires a 'sweep' grid or preset")
            runner.run_sweep(cfg, reference, grid)
        elif args.command == "eval":
            ckpts = args.checkpoint or conf.eval_checkpoints
            if not ckpts:
                raise ConfigError("eval needs --checkpoint or eval_checkpoints")
            judge_mode = args.judge or conf.judge
            if judge_mode == "http" and conf.judge_endpoint is None:
                raise ConfigError("--judge http needs a judge_endpoint")
            reports = runner.run_eval(
                cfg, ckpts, ref_checkpoint=conf.reference_checkpoint,
                judge_mode=judge_mode, endpoint=conf.judge_endpoint)
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
    except UnlearnLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
