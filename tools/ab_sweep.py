"""In-process A/B of the benchmark's sweep op between two checkouts.

    python3 tools/ab_sweep.py PARENT CHANGE --workload default --seed 1 --pairs 30

PARENT and CHANGE are checkout roots, loaded as in tools/ab_train.py (one
package each, `ab_parent` and `ab_change`, in this one process), and the
workload's FULL inputs are written by this checkout's `perfbench/inputs.py`.
Each side loads the sweep spec once with its own config loader, as the
benchmark does, and writes to a directory of its own, emptied before each
run. After one untimed run of the parent, the script runs `pairs` pairs of
`run_sweep`, one call of each side per pair, alternating which side runs
first. Every run's `sweep_summary.csv` must be byte-equal to the untimed
run's; if any differs, or a cell fails, it exits 1. Otherwise it prints one JSON line: each side's median seconds, the
median of the per-pair ratios (parent seconds over change seconds, so above
1 means the change is faster) and the number of pairs the change won.

The sweep's workers are forked from this process (the sweep spec asks for
2), so the script needs the fork start method, the default on Linux.
"""

import os

# pinned before numpy is imported, as perfbench pins them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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

from ab_train import alternate, load_sides, pair_ratios, parse_ab_args  # noqa: E402


def sweep_op(side: dict, sweep_file: Path, out_dir: Path):
    """A no-argument call that empties out_dir, runs this side's sweep into
    it and returns (seconds, (summary bytes, failures))."""
    spec = dataclasses.replace(side["config"].load_sweep_spec(sweep_file), output_dir=out_dir)
    run_sweep = side["harness"].run_sweep

    def op():
        shutil.rmtree(out_dir, ignore_errors=True)
        start = perf_counter()
        result = run_sweep(spec)
        seconds = perf_counter() - start
        return seconds, (Path(result["summary"]).read_bytes(), result["failures"])

    return op


def main(argv=None) -> int:
    args = parse_ab_args(__doc__, 30, argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs

    sides = load_sides(args)
    with tempfile.TemporaryDirectory() as work:
        inputs.write_inputs(Path(work), args.workload, inputs.FULL, args.seed)
        sweep_file = inputs.input_files(Path(work))["sweep"]
        ops = {name: sweep_op(side, sweep_file, Path(work) / f"sweep_{name}") for name, side in sides.items()}
        expected = ops["parent"]()[1][0]

        def check(name, pair, output):
            summary, failures = output
            if failures or summary != expected:
                return {"error": "sweep summaries differ or a cell failed", "side": name, "pair": pair, "failures": failures}
            return None

        seconds = alternate(ops, args.pairs, check)
    if seconds is None:
        return 1

    print(json.dumps({
        "op": "run_sweep",
        "workload": args.workload,
        "parent_s": statistics.median(seconds["parent"]),
        "change_s": statistics.median(seconds["change"]),
        **pair_ratios(seconds["parent"], seconds["change"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
