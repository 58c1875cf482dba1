"""Command line front end.

Exit codes: 0 success, 1 runtime failure (diverged training, failed checks,
unreadable inputs), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import (
    DEFAULT_EVAL_METRICS,
    ConfigError,
    load_experiment_config,
    load_probe_spec,
    load_sweep_spec,
    parse_sampling,
    resolve_output_dir,
)
from .gradcheck import run_all_checks
from .harness import run_curves, run_eval, run_probe, run_sweep, run_train
from .losses import OBJECTIVES
from .sampling import SamplingConfig

# every custom runtime error (diverged training, failed oracle, undefined
# metric, untokenizable text) subclasses one of these
RUNTIME_ERRORS = (ValueError, RuntimeError, OSError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftlab",
        description="Loss-objective laboratory: gradient checks, toy-LM training, "
        "diversity metrics, weighting curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="run the analytic-gradient verification battery")
    p.add_argument("--trials", type=int, default=1000, help="random trials per check")
    p.add_argument("--seed", type=int, default=0, help="base seed for the trial stream")
    p.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default=None,
        help="restrict to the finite-difference battery for one objective",
    )

    p = sub.add_parser("train", help="train a toy model from an experiment config")
    p.add_argument("config", help="experiment config JSON")

    p = sub.add_parser("eval", help="sample completions from a checkpoint and score them")
    p.add_argument("checkpoint", help="checkpoint file written by train")
    p.add_argument("prompts", help="prompts JSONL (id, prompt, optional answer)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--samples", type=int, default=10, help="completions per prompt")
    p.add_argument("--metrics", default=",".join(DEFAULT_EVAL_METRICS), help="comma-separated metric names")
    # the sampling flags' defaults are SamplingConfig's
    p.add_argument("--top-p", type=float, help="nucleus mass")
    p.add_argument("--temperature", type=float, help="softmax temperature")
    p.add_argument("--max-tokens", type=int, help="completion length cap")
    p.add_argument("--seed", type=int, help="base sampling seed")

    p = sub.add_parser("sweep", help="objective/gamma/beta grid with a summary CSV")
    p.add_argument("spec", help="sweep spec JSON")

    p = sub.add_parser("curves", help="tabulate focal and lambda-PR weighting curves")
    p.add_argument("out", help="output CSV path")

    p = sub.add_parser("probe", help="pretrain, branch per objective, probe the answer distribution")
    p.add_argument("config", help="probe spec JSON")

    return parser


def _cmd_gradcheck(args) -> int:
    if args.trials < 1 or args.seed < 0:
        raise ConfigError(f"need --trials >= 1 and --seed >= 0, got {args.trials} and {args.seed}")
    objectives = (args.objective,) if args.objective else None
    reports = run_all_checks(trials=args.trials, seed=args.seed, objectives=objectives)
    for report in reports:
        print(report.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    out = run_train(cfg)
    print(f"wrote {out['checkpoint']}")
    if out["final_loss"] is not None:
        print(f"final loss {out['final_loss']:.6f}")
    return 0


def _cmd_eval(args) -> int:
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if not metrics:
        raise ConfigError("--metrics must name at least one metric")
    given = {f.name: getattr(args, f.name) for f in fields(SamplingConfig)}
    sampling = parse_sampling({k: v for k, v in given.items() if v is not None}, "eval")
    out = run_eval(
        Path(args.checkpoint),
        Path(args.prompts),
        sampling,
        resolve_output_dir(args.out),
        samples=args.samples,
        metrics=metrics,
    )
    print(f"wrote {out['metrics']}")
    for name, value in out["reports"].items():
        print(f"{name} mean {value:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    out = run_sweep(spec)
    print(f"wrote {out['summary']} ({len(out['cells'])} cells, {len(out['trained'])} trained)")
    for failure in out["failures"]:
        print(
            f"cell {failure['cell']} seed {failure['seed']} failed: {failure['error']}",
            file=sys.stderr,
        )
    return 0 if not out["failures"] else 1


def _cmd_curves(args) -> int:
    path = run_curves(resolve_output_dir(args.out))
    print(f"wrote {path}")
    return 0


def _cmd_probe(args) -> int:
    spec = load_probe_spec(args.config)
    verdict = run_probe(spec)
    for label, entry in verdict["summary"].items():
        print(f"{label}: median entropy {entry['median_entropy']:.4f}, "
              f"median tail {entry['median_tail_mass']:.4f}")
    return 0


HANDLERS = {
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "curves": _cmd_curves,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RUNTIME_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
