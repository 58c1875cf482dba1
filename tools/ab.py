"""In-process A/B of one benchmark op between two checkouts.

    python3 tools/ab.py PARENT CHANGE --op eval --workload default --seed 1 --pairs 30

Each checkout's `src/sftlab` is imported as a package of its own (`ab_parent`,
`ab_change`), and this checkout's `perfbench/inputs.py` and `phases.py` are
loaded once per side with `sftlab` bound to that package, so each side runs
the benchmark's own ops and output checks on inputs and a decode checkpoint
of its own. `--op` is `train:<objective>`, `train` (every objective), `eval`,
`gradcheck` or `sweep`. After one untimed run of each op on each side, the
script exits 1, naming the op, if a check failed or the sides differ in their
inputs, decode checkpoint, `Bench.first_digest`, output files or gradcheck
reports. Otherwise it alternates `pairs` pairs of runs and prints, per op,
each side's median metric, the median of the per-pair ratios of parent over
change seconds (above 1: the change is faster) and the pairs the change won.
The sweep forks its workers, so the fork start method (Linux's) is needed.
"""

import argparse
import contextlib
import functools
import importlib.util
import json
import os
import re
import statistics
import sys
import tempfile
from pathlib import Path

# pinned before the sides' packages import numpy, as perfbench pins them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIDES = ("parent", "change")


def load_module(name: str, path: Path, search_locations=None):
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search_locations)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def bound(modules: dict):
    """sys.modules holds `modules` inside the block and its old entries after."""
    saved = {name: sys.modules[name] for name in modules if name in sys.modules}
    sys.modules.update(modules)
    try:
        yield
    finally:
        for name in modules:
            del sys.modules[name]
        sys.modules.update(saved)


def load_side(name: str, checkout: Path):
    """perfbench's inputs and phases modules, loaded with `sftlab` bound to
    checkout/src/sftlab imported as the package `name`."""
    src = checkout / "src" / "sftlab"
    aliases = {"sftlab": load_module(name, src / "__init__.py", [str(src)])}
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            aliases[f"sftlab.{path.stem}"] = importlib.import_module(f"{name}.{path.stem}")
    with bound(aliases):
        inputs = load_module(f"{name}_inputs", PERFBENCH / "inputs.py")
        with bound({"inputs": inputs}):
            return inputs, load_module(f"{name}_phases", PERFBENCH / "phases.py")


def call(bench, op: str):
    kind, _, objective = op.partition(":")
    return functools.partial(bench.train_op, objective) if objective else getattr(bench, f"{kind}_op")


def outputs(phases, bench, op: str) -> dict:
    """What a run of op leaves to compare across the sides: its first digest,
    the bytes of the files it writes, and gradcheck's reports."""
    files = {
        "eval": [bench.work / "eval" / "generations.jsonl", bench.work / "eval" / "metrics.csv"],
        "sweep": [bench.sweep.output_dir / "sweep_summary.csv"],
    }
    out = {"first_digest": bench.first_digest.get(op), **{p.name: p.read_bytes() for p in files.get(op, [])}}
    if op == "gradcheck":
        out["reports"] = [r.to_json() for r in phases.gradcheck.run_all_checks(bench.gc_trials, bench.gc_seed)]
    return out


def differing(got: dict) -> list:
    parent, change = got["parent"], got["change"]
    return sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))


def summary(op: str, runs: dict) -> dict:
    """runs: {side: [(the op's {metric: value}, seconds)], one per pair}."""
    [metric] = runs["parent"][0][0]
    ratios = [p / c for (_, p), (_, c) in zip(runs["parent"], runs["change"])]
    return {
        "op": op,
        "metric": metric,
        **{side: statistics.median(values[metric] for values, _ in runs[side]) for side in SIDES},
        "median_ratio": statistics.median(ratios),
        "change_wins": sum(r > 1.0 for r in ratios),
        "pairs": len(ratios),
    }


def fail(op: str, error: str) -> int:
    print(json.dumps({"op": op, "error": error}))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--op", required=True, help="train, train:<objective>, eval, gradcheck or sweep")
    parser.add_argument("--workload", default="default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"train(:\w+)?|eval|gradcheck|sweep", args.op):
        parser.error(f"unknown op {args.op!r}")
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    sys.path.insert(0, str(PERFBENCH))  # calibrate and tracer, which both sides' phases share
    with tempfile.TemporaryDirectory() as tmp:
        phases, benches, setup = {}, {}, {}
        for side in SIDES:
            inputs, phases[side] = load_side(f"ab_{side}", getattr(args, side).resolve())
            work = Path(tmp) / side
            inputs.write_inputs(work, args.workload, inputs.FULL, args.seed)
            # the configs name output directories under work, so its path is left out
            setup[side] = {p.name: p.read_bytes().replace(str(work).encode(), b"") for p in work.iterdir()}
            benches[side] = bench = phases[side].Bench(work)
            phases[side].harness.run_train(bench.ckpt_exp)
            setup[side]["decode checkpoint"] = bench.checkpoint.read_bytes()
        environment = phases["change"].harness._run_environment()
        print(json.dumps({"threads": environment["threads"], "kernels": environment["kernels"]}))
        if differ := differing(setup):
            return fail(args.op, f"the sides differ in {differ}")

        ops = [f"train:{o}" for o in benches["parent"].exps] if args.op == "train" else [args.op]
        for op in ops:
            for bench in benches.values():
                if bench.run_op(op, call(bench, op)) is None:
                    return fail(op, bench.errors[-1])
            if differ := differing({side: outputs(phases[side], b, op) for side, b in benches.items()}):
                return fail(op, f"the sides differ in {differ}")

        runs = {side: {op: [] for op in ops} for side in SIDES}
        for pair in range(args.pairs):
            for op in ops:
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = benches[side].run_op(op, call(benches[side], op))
                    if result is None:
                        return fail(op, benches[side].errors[-1])
                    runs[side][op].append(result)

    for op in ops:
        print(json.dumps(summary(op, {side: runs[side][op] for side in SIDES})))
    if args.op == "train":  # all objectives: their summed steps over their summed seconds, per pair
        steps = sum(e.train.total_steps for e in benches["parent"].exps.values())
        seconds = {side: [sum(s for _, s in pair) for pair in zip(*runs[side].values())] for side in SIDES}
        runs = {side: [({"train_steps_per_s": steps / s}, s) for s in seconds[side]] for side in SIDES}
        print(json.dumps(summary("train", runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
