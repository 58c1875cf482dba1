"""In-process A/B of the benchmark's sweep op between two checkouts.

    python3 tools/ab_sweep.py PARENT CHANGE --workload default --seed 1 --pairs 30

PARENT and CHANGE are checkout roots, loaded as in tools/ab_train.py (one
package each, `ab_parent` and `ab_change`, in this one process), and the
workload's FULL inputs are written by this checkout's `perfbench/inputs.py`.
Each side loads the sweep spec once with its own config loader, as the
benchmark does, and writes to a directory of its own, emptied before each
run. The script runs `pairs` pairs of `run_sweep`, one call of each side per
pair, alternating which side runs first. Every run's `sweep_summary.csv` must
be byte-equal to the parent's first one; if any differs, or a cell fails, it
exits 1. Otherwise it prints one JSON line: each side's median seconds, the
median of the per-pair ratios (parent seconds over change seconds, so above
1 means the change is faster) and the number of pairs the change won.

The sweep's workers are forked from this process (the sweep spec asks for
2), so the script needs the fork start method, the default on Linux.
"""

import os

# pinned before numpy is imported, as perfbench pins them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_train import load_side  # noqa: E402


def sweep_op(side: dict, sweep_file: Path, out_dir: Path):
    """A no-argument call that empties out_dir, runs this side's sweep into
    it and returns (seconds, summary bytes, failures)."""
    spec = dataclasses.replace(side["config"].load_sweep_spec(sweep_file), output_dir=out_dir)
    run_sweep = side["harness"].run_sweep

    def op():
        shutil.rmtree(out_dir, ignore_errors=True)
        start = perf_counter()
        result = run_sweep(spec)
        seconds = perf_counter() - start
        return seconds, Path(result["summary"]).read_bytes(), result["failures"]

    return op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs

    sides = {"parent": load_side("ab_parent", args.parent.resolve()), "change": load_side("ab_change", args.change.resolve())}
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as work:
        inputs.write_inputs(Path(work), args.workload, inputs.FULL, args.seed)
        sweep_file = inputs.input_files(Path(work))["sweep"]
        ops = {name: sweep_op(side, sweep_file, Path(work) / f"sweep_{name}") for name, side in sides.items()}
        expected = None
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                run_seconds, summary, failures = ops[name]()
                expected = expected or summary
                if failures or summary != expected:
                    print(json.dumps({"error": "sweep summaries differ or a cell failed", "side": name, "pair": pair,
                                      "failures": failures}))
                    return 1
                seconds[name].append(run_seconds)

    ratios = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
    print(json.dumps({
        "op": "run_sweep",
        "workload": args.workload,
        "parent_s": statistics.median(seconds["parent"]),
        "change_s": statistics.median(seconds["change"]),
        "median_ratio": statistics.median(ratios),
        "change_wins": sum(r > 1.0 for r in ratios),
        "pairs": len(ratios),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
