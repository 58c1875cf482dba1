"""In-process A/B of the benchmark's train ops between two checkouts.

    python3 tools/ab_train.py PARENT CHANGE --workload default --seed 1 --pairs 40

PARENT and CHANGE are checkout roots. Each one's `src/sftlab` is loaded as a
package of its own (`ab_parent`, `ab_change`) in this one process, and the
workload's inputs are written by this checkout's `perfbench/inputs.py`. The
script first checks that both sides train every objective to the same
parameters and loss trace (a sha256 digest of each), and exits 1 if any
differs. It then runs `pairs` pairs of each objective's train op, one call of
each side per pair, alternating which side runs first, and prints one JSON
line per objective and one for all of them: each side's median steps/s, the
median of the per-pair ratios (change over parent) and the number of pairs
the change won.

Separate processes of the same code can differ by more than a small change's
effect; alternating two sides in one process puts both on the same heap, the
same core and the same moment of the machine's load.
"""

import os

# pinned before numpy is imported, as perfbench pins them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_side(name: str, checkout: Path) -> dict:
    """checkout/src/sftlab imported as the package `name`: its config,
    training and harness modules."""
    src = checkout / "src" / "sftlab"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}") for module in ("config", "training", "harness")}


def parse_ab_args(doc: str, pairs: int, argv=None) -> argparse.Namespace:
    """The A/B tools' shared command line: PARENT, CHANGE, --workload, --seed
    and --pairs (default `pairs`)."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=pairs)
    return parser.parse_args(argv)


def load_sides(args: argparse.Namespace) -> dict:
    """{"parent": side, "change": side} of the two checkouts, loaded as the
    packages `ab_parent` and `ab_change`."""
    return {"parent": load_side("ab_parent", args.parent.resolve()), "change": load_side("ab_change", args.change.resolve())}


def alternate(ops: dict, pairs: int, check) -> dict | None:
    """Runs `pairs` pairs of ops["parent"] and ops["change"], one call of
    each per pair, alternating which side runs first. Each op returns
    (seconds, output); check(side, pair, output) returns None if the output
    is right and an error dict otherwise. Returns {side: [seconds]}, or None
    after printing the first error as a JSON line."""
    seconds: dict[str, list[float]] = {name: [] for name in ops}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in order:
            run_seconds, output = ops[name]()
            error = check(name, pair, output)
            if error:
                print(json.dumps(error))
                return None
            seconds[name].append(run_seconds)
    return seconds


def pair_ratios(parent: list[float], change: list[float]) -> dict:
    """The median of the per-pair ratios parent seconds over change seconds
    (above 1 means the change is faster) and the number of pairs the change
    won."""
    ratios = [p / c for p, c in zip(parent, change)]
    return {"median_ratio": statistics.median(ratios), "change_wins": sum(r > 1.0 for r in ratios), "pairs": len(ratios)}


def train_ops(side: dict, files: dict, objectives) -> dict:
    """{objective: a no-argument call of that objective's train op}, on the
    inputs as this side's own loaders read them."""
    training = side["training"]
    corpus = training.Corpus.load_jsonl(files["corpus"])
    ops = {}
    for objective in objectives:
        exp = side["config"].load_experiment_config(files["train"][objective])
        init = side["harness"].build_model(exp.model, corpus, exp.train.seed)
        ops[objective] = (lambda init=init, cfg=exp.train: training.train(init, corpus, cfg))
    return ops


def digest(result) -> str:
    """sha256 of the trained parameters and the loss trace, as perfbench
    checks a train op's output."""
    checkpoint, trace = result
    h = hashlib.sha256()
    for name, p in checkpoint.model.named_params():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    for row in trace:
        h.update(struct.pack("<d", row.loss))
    return h.hexdigest()


def timed(op) -> float:
    start = perf_counter()
    op()
    return perf_counter() - start


def summary(name: str, steps: int, parent: list[float], change: list[float]) -> dict:
    return {
        "op": name,
        "parent_steps_per_s": statistics.median(steps / s for s in parent),
        "change_steps_per_s": statistics.median(steps / s for s in change),
        **pair_ratios(parent, change),
    }


def main(argv=None) -> int:
    args = parse_ab_args(__doc__, 40, argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs

    sides = load_sides(args)
    with tempfile.TemporaryDirectory() as work:
        inputs.write_inputs(Path(work), args.workload, inputs.FULL, args.seed)
        files = inputs.input_files(Path(work))
        ops = {name: train_ops(side, files, inputs.OBJECTIVES) for name, side in sides.items()}
        steps = {o: sides["change"]["config"].load_experiment_config(files["train"][o]).train.total_steps for o in inputs.OBJECTIVES}

    differ = [o for o in inputs.OBJECTIVES if digest(ops["parent"][o]()) != digest(ops["change"][o]())]
    if differ:
        print(json.dumps({"error": "trained parameters or loss traces differ", "objectives": differ}))
        return 1

    seconds = {name: {o: [] for o in inputs.OBJECTIVES} for name in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for objective in inputs.OBJECTIVES:
            for name in order:
                seconds[name][objective].append(timed(ops[name][objective]))

    for objective in inputs.OBJECTIVES:
        print(json.dumps(summary(objective, steps[objective], seconds["parent"][objective], seconds["change"][objective])))
    total = {name: [sum(per_pair) for per_pair in zip(*seconds[name].values())] for name in sides}
    print(json.dumps(summary("all", sum(steps.values()), total["parent"], total["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
