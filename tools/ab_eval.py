"""In-process A/B of the benchmark's eval op between two checkouts.

    python3 tools/ab_eval.py PARENT CHANGE --workload default --seed 1 --pairs 30

PARENT and CHANGE are checkout roots, loaded as in tools/ab_train.py (one
package each, `ab_parent` and `ab_change`, in this one process), and the
workload's FULL inputs are written by this checkout's `perfbench/inputs.py`.
The decode checkpoint is trained once, by the parent, and both sides decode
from it. Each side parses the eval config with its own loader and writes to
a directory of its own, emptied before each run. The script first checks
that the change writes the parent's `generations.jsonl` and `metrics.csv`
byte for byte, and exits 1 if either differs; every timed run is held to the
same bytes. It then runs `pairs` pairs of `run_eval`, one call of each side
per pair, alternating which side runs first, and prints one JSON line: each
side's median milliseconds and eval tokens/s (tokens counted as the benchmark
counts them), the median of the per-pair ratios (parent seconds over change
seconds, so above 1 means the change is faster) and the number of pairs the
change won.
"""

import os

# pinned before numpy is imported, as perfbench pins them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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

OUTPUTS = ("generations.jsonl", "metrics.csv")


def eval_op(side: dict, files: dict, checkpoint: Path, out_dir: Path):
    """A no-argument call that empties out_dir, runs this side's eval into
    it and returns (seconds, {output name: bytes})."""
    eval_cfg = json.loads(files["eval"].read_text())
    sampling = side["config"].parse_sampling(eval_cfg["sampling"])
    run_eval = side["harness"].run_eval

    def op():
        shutil.rmtree(out_dir, ignore_errors=True)
        start = perf_counter()
        run_eval(checkpoint, files["prompts"], sampling, out_dir, eval_cfg["samples"], tuple(eval_cfg["metrics"]))
        seconds = perf_counter() - start
        return seconds, {name: (out_dir / name).read_bytes() for name in OUTPUTS}

    return op


def main(argv=None) -> int:
    args = parse_ab_args(__doc__, 30, argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs
    from phases import read_generations, sampled_tokens

    sides = load_sides(args)
    with tempfile.TemporaryDirectory() as work:
        inputs.write_inputs(Path(work), args.workload, inputs.FULL, args.seed)
        files = inputs.input_files(Path(work))
        ckpt_exp = sides["parent"]["config"].load_experiment_config(files["ckpt"])
        sides["parent"]["harness"].run_train(ckpt_exp)
        checkpoint = ckpt_exp.output_dir / "checkpoint.bin"
        ops = {name: eval_op(side, files, checkpoint, Path(work) / f"eval_{name}") for name, side in sides.items()}

        expected = ops["parent"]()[1]
        max_tokens = json.loads(files["eval"].read_text())["sampling"]["max_tokens"]
        generations = read_generations(Path(work) / "eval_parent" / "generations.jsonl")
        tokens = sum(sampled_tokens(c, max_tokens) for c in generations.values())

        def check(name, pair, outputs):
            differ = [o for o in OUTPUTS if outputs[o] != expected[o]]
            return {"error": "eval outputs differ", "side": name, "pair": pair, "files": differ} if differ else None

        # pair -1 checks the change's outputs before any run is timed
        error = check("change", -1, ops["change"]()[1])
        if error:
            print(json.dumps(error))
            return 1
        seconds = alternate(ops, args.pairs, check)
    if seconds is None:
        return 1

    print(json.dumps({
        "op": "run_eval",
        "workload": args.workload,
        "tokens": tokens,
        "parent_ms": 1e3 * statistics.median(seconds["parent"]),
        "change_ms": 1e3 * statistics.median(seconds["change"]),
        "parent_tokens_per_s": statistics.median(tokens / s for s in seconds["parent"]),
        "change_tokens_per_s": statistics.median(tokens / s for s in seconds["change"]),
        **pair_ratios(seconds["parent"], seconds["change"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
