"""sftlab benchmark: one command, every metric.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1         # every workload, a row each

Run from the repository root; sftlab is imported from ./src. A single workload
runs in this process and prints, as its last stdout line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). `--workload all` runs each
workload in a child process of its own. Full results, with spreads, sample
counts and the recorded environment, are written under .bench_out/results/.
"""

import os

# Pinned before numpy is first imported, here and in every process started
# from here (set-up children, forked sweep workers).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _calibrated(value: float, unit: str, speed: float) -> float:
    """A time or rate as on a machine of reference speed (see calibrate.py)."""
    return value * speed if unit == "s" else value / speed if unit.endswith("/s") else value


def _setup_child(args) -> int:
    """One set-up; prints the machine speed around it, measured in this
    process, and the seconds its calibration loops took."""
    import calibrate

    calib_start = time.perf_counter()
    rates = [calibrate.loop_rate(), calibrate.loop_rate()]
    calib_s = time.perf_counter() - calib_start
    import inputs

    inputs.write_inputs(Path(args.setup_only), args.workload, _size(args), args.seed)
    from sftlab import config, harness

    harness.run_train(config.load_experiment_config(Path(args.setup_only) / "ckpt.json"))
    calib_start = time.perf_counter()
    rates += [calibrate.loop_rate(), calibrate.loop_rate()]
    calib_s += time.perf_counter() - calib_start
    print(json.dumps({"speed": statistics.median(rates) / calibrate.REFERENCE_RATE, "calibration_s": calib_s}))
    return 0


def _size(args):
    import inputs

    return inputs.TINY if args.tiny else inputs.FULL


def _set_up(args, work: Path, errors: list) -> list[tuple[float, float]]:
    """Set-up, SETUP_REPEATS times, each in a fresh process: imports, input
    generation and training the decode checkpoint. The last one's files are
    the run's inputs; all repeats must write identical inputs. Returns
    (seconds, machine speed) pairs; the speed is measured in the set-up
    process itself, which may run on another core than this one, and the
    seconds of its calibration loops are not counted as set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(work), "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    pairs, digests = [], set()
    for i in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            errors.append(f"setup {i}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        pairs.append((elapsed - child["calibration_s"], child["speed"]))
        digests.add(tuple(p.read_bytes() for p in sorted(work.glob("*.json*"))))
    if len(digests) > 1:
        errors.append("setup repeats wrote different inputs from the same seed")
    return pairs


def _run_one(args) -> int:
    size = _size(args)
    spec = _benchmark_spec()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    errors: list[str] = []
    setup = _set_up(args, work, errors)
    attempted = SETUP_REPEATS
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny}
    if not setup or errors:
        return _finish(args, result, {}, attempted, errors, spec, work)

    import phases

    bench = phases.Bench(work, corrupt=args.corrupt)
    samples: dict[str, list[float]] = {}
    if args.trace:
        values = _traced(bench, errors)
    else:
        start = time.monotonic()
        rounds = 0
        while rounds < size.min_rounds or time.monotonic() - start < args.seconds:
            bench.round(samples)
            rounds += 1
        result["rounds"] = rounds
        result["machine_speed"] = _stats([speed for pairs in samples.values() for _, speed in pairs])
        samples["setup_s"] = setup
        samples["peak_rss_mb"] = [(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1.0)]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        result["raw_stats"] = {name: _stats([v for v, _ in pairs]) for name, pairs in samples.items()}
        result["stats"] = {
            name: _stats([_calibrated(v, units.get(name, ""), speed) for v, speed in pairs])
            for name, pairs in samples.items()
        }
        values = {name: s["median"] for name, s in result["stats"].items()}
    errors.extend(bench.errors)
    return _finish(args, result, values, attempted + bench.attempted, errors, spec, work)


def _traced(bench, errors: list) -> dict:
    """Untraced and traced rounds, alternated; per-layer metrics from the
    traced ones, whose counts must repeat exactly."""
    import phases
    from tracer import Tracer

    untraced, traced, per_pass = [], [], []
    for i in range(2):
        untraced.append(bench.round({}))
        tracer = Tracer()
        tracer.install(phases.TRACE_TARGETS)
        bench.tracer = tracer
        try:
            if i == 0:
                bench.run_op("setup", bench.traced_setup_op)
            traced.append(bench.round({}))
            per_pass.append(phases.layer_metrics(tracer.spans, bench))
        except (KeyError, ZeroDivisionError) as exc:  # an op failed, so a layer has no spans
            errors.append(f"per-layer metrics: {type(exc).__name__}: {exc}")
            return {}
        finally:
            tracer.uninstall()
            bench.tracer = None
    for name in phases.COUNT_METRICS:
        if per_pass[0][name] != per_pass[1][name]:
            errors.append(f"count {name} differs across traced rounds: {per_pass[0][name]} vs {per_pass[1][name]}")
    for p in per_pass:
        if p["model.forward.calls"] != p["sampling.tokens"]:
            errors.append(f"forward calls {p['model.forward.calls']} != sampled tokens {p['sampling.tokens']}")
    values = {k: statistics.mean(p[k] for p in per_pass) for k in per_pass[0]}
    base = statistics.median(untraced)
    values["bench.trace_overhead_frac"] = (statistics.median(traced) - base) / base
    return values


def _finish(args, result, values, attempted, errors, spec, work) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(values))
    if values and missing and not errors:
        errors.append(f"metrics not measured: {missing}")
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in units.items()}
    failed = len(errors)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    result.update(
        line,
        error_rate=failed / attempted,
        errors=errors,
        environment=_environment(),
        seconds=args.seconds,
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:50s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:10s} error_rate {failed}/{attempted}; full result: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if values else 1


def _run_many(args, names: list[str]) -> int:
    """One child process per workload; a row per workload, then one file."""
    rows, status = {}, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += (["--tiny"] if args.tiny else []) + (["--corrupt"] if args.corrupt else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            rows[name] = {"correct": False, "error": f"exit {proc.returncode}"}
            continue
        rows[name] = json.loads(lines[-1])
    for name, row in rows.items():
        cells = [f"{m}={v['value']:.6g} {v['unit']}" for m, v in row.get("metrics", {}).items()]
        errs = f"error_rate={row['failed']}/{row['attempted']}" if "failed" in row else row["error"]
        print(f"{name:10s} " + "  ".join(cells + [errs]))
    path = OUT / "results" / f"all-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"workloads": rows}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    parser.add_argument("--corrupt", action="store_true", help="corrupt an eval output (smoke test)")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sftlab" / "__init__.py").is_file():
        print(f"error: no sftlab source tree at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload == "all":
        return _run_many(args, list(inputs.SWEEP_OBJECTIVES))
    if args.workload not in inputs.SWEEP_OBJECTIVES:
        print(f"error: unknown workload {args.workload!r}; choose from {list(inputs.SWEEP_OBJECTIVES)}", file=sys.stderr)
        return 2
    if args.setup_only:
        return _setup_child(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
