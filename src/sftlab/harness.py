"""Experiment orchestration behind the CLI subcommands.

Every run directory gets one run.json, written by write_run_record. It holds
the run's invocation, every setting its primary outputs depend on, and each
input file's path and sha256; its config_hash is the hash of the invocation
and those sha256s, so it is a function of what run.json shows and never of a
path. A run can thus be reproduced from its outputs alone. Primary outputs
(checkpoints, generations, CSVs) are byte-identical across reruns on one
(BLAS build, OpenBLAS core, numpy dispatch targets) triple; run.json is the
one file allowed to differ, and only in its wall-clock field and in its
environment block (the interpreter, numpy, BLAS and kernels that wrote it),
both outside config_hash.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import platform
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import (
    DEFAULT_EVAL_METRICS,
    ExperimentConfig,
    ModelSpec,
    ProbeSpec,
    SweepSpec,
    check_encodable,
    load_prompts,
    validate_eval_request,
)
from .hashing import bytes_hash, canonical_json, config_hash, content_hash, csv_text, write_file
from .losses import LossConfig, PrConfig, focal_scaling, pr_weight
from .metrics import (
    GenerationSet,
    MetricReport,
    answer_entropy,
    completion_entropy,
    coverage_and_mean,
    distinct_n,
    extract_boxed_answer,
    self_bleu,
    write_metric_reports,
)
from .model import ToyModel, Vocab
# sample_generation_set stays importable from here: perfbench traces it under this module's name
from .sampling import SamplingConfig, sample_generation_set, sample_generation_sets  # noqa: F401
from .training import Checkpoint, Corpus, TrainConfig, probe_token_distribution, train

CURVE_GAMMAS = (1.0, 2.0, 3.0, 5.0)
CURVE_PR_GRID = ((1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (0.5, 0.9))
CURVE_POINTS = 512
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_core() -> str | None:
    """The core name whose kernels the OpenBLAS bundled with numpy picked at
    load time (it picks by CPU, or by OPENBLAS_CORETYPE), or None where no
    bundled library exports scipy_openblas_get_corename64_."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii")
    return None


def _numpy_dispatch() -> list[str] | None:
    """numpy's active SIMD dispatch targets, as np.show_runtime() lists them
    (honouring NPY_DISABLE_CPU_FEATURES), or None where numpy does not say."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):  # numpy >= 2, then 1.x
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        return [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return None


def _run_environment() -> dict:
    """The Python, numpy and BLAS build that ran, the kernels it dispatches
    to, and the BLAS thread variables: what a byte-identical rerun must share.
    The BLAS entry is None where numpy cannot report it (numpy < 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernels": {"openblas_core": _openblas_core(), "numpy_dispatch": _numpy_dispatch()},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _hashed_now(paths: dict) -> dict:
    """{name: (path, sha256)} of input files hashed at this call, for a run
    that does not keep the bytes it parsed."""
    return {name: (path, content_hash(path)) for name, path in paths.items()}


def write_run_record(out_dir, command, started, invocation, inputs, outputs, status="ok"):
    """Write out_dir/run.json: the `invocation` (every setting the primary
    outputs depend on), each of `inputs` ({name: (path, sha256)}) as its path
    and sha256, the `outputs`, the status, the _run_environment() and the
    seconds since `started`. config_hash covers the invocation and the input
    sha256s, never a path, the environment or the clock."""
    inputs = {name: {"path": str(path), "sha256": digest} for name, (path, digest) in inputs.items()}
    digests = {name: entry["sha256"] for name, entry in inputs.items()}
    record = {
        "command": command,
        "config_hash": config_hash({"invocation": invocation, "inputs": digests}),
        "environment": _run_environment(),
        "invocation": invocation,
        "inputs": inputs,
        "outputs": outputs,
        "status": status,
        "wall_clock_s": time.monotonic() - started,
    }
    write_file(Path(out_dir) / "run.json", json.dumps(record, indent=2, sort_keys=True) + "\n")


def _shared_settings(settings: dict, *set_per_run: str) -> dict:
    """A sweep's or probe's config less the fields it sets for each of its
    runs, whose values in the config are placeholders no run uses."""
    return {name: value for name, value in settings.items() if name not in set_per_run}


def build_model(spec: ModelSpec, corpus: Corpus, seed: int) -> ToyModel:
    return ToyModel.init(
        Vocab(spec.chars(corpus)),
        context=spec.context,
        embed_dim=spec.embed_dim,
        hidden_dim=spec.hidden_dim,
        seed=seed,
    )


def run_train(cfg: ExperimentConfig, out_dir: Path | None = None) -> dict:
    """Train one model per the config and write checkpoint/trace/run record."""
    out_dir = Path(out_dir) if out_dir is not None else cfg.output_dir
    started = time.monotonic()
    model = build_model(cfg.model, cfg.parsed_corpus, cfg.train.seed)
    checkpoint, trace = train(model, cfg.parsed_corpus, cfg.train)
    checkpoint.save(out_dir / "checkpoint.bin")
    trace_rows = [(row.step, repr(row.loss), repr(row.lr)) for row in trace]
    write_file(out_dir / "trace.csv", csv_text([("step", "loss", "lr"), *trace_rows]))
    outputs = {"checkpoint": "checkpoint.bin", "trace": "trace.csv"}
    write_run_record(out_dir, "train", started, cfg.to_dict(), _hashed_now({"corpus": cfg.corpus}), outputs)
    return {
        "checkpoint": out_dir / "checkpoint.bin",
        "trace": out_dir / "trace.csv",
        "final_loss": trace[-1].loss if trace else None,
    }


def _success(completion: str, answer: str) -> bool:
    boxed = extract_boxed_answer(completion)
    target = boxed if boxed is not None else completion.strip()
    return target == answer


def run_eval(
    checkpoint_path,
    prompts_path,
    sampling: SamplingConfig,
    out_dir: Path,
    samples: int = 10,
    metrics=DEFAULT_EVAL_METRICS,
) -> dict:
    """Sample completions for every prompt and score them, then write the
    generations, the metric CSV and run.json; a failure writes none of them.

    The prompts file and the checkpoint are each read once; run.json records
    the sha256 of the bytes that were parsed. All prompts' completions are
    decoded in one lockstep by `sample_generation_sets`."""
    started = time.monotonic()
    prompt_bytes = Path(prompts_path).read_bytes()
    prompts = load_prompts(prompts_path, prompt_bytes)
    metrics = validate_eval_request(metrics, samples, prompts)
    checkpoint_bytes = Path(checkpoint_path).read_bytes()
    model = Checkpoint.load(checkpoint_path, checkpoint_bytes).model
    check_encodable(model.vocab.chars, {f"prompt {p.id!r}": p.prompt for p in prompts})
    out_dir = Path(out_dir)

    sets: dict[str, GenerationSet] = dict(
        zip((p.id for p in prompts), sample_generation_sets(model, prompts, samples, sampling))
    )
    reports = []
    for name in metrics:
        if name == "self_bleu":
            reports.append(MetricReport(name, {p.id: self_bleu(sets[p.id]) for p in prompts}))
        elif name.startswith("distinct_"):
            n = int(name.split("_", 1)[1])
            reports.append(MetricReport(name, {p.id: distinct_n(sets[p.id], n) for p in prompts}))
        elif name == "entropy":
            reports.append(MetricReport(name, {p.id: completion_entropy(sets[p.id]) for p in prompts}))
        elif name == "coverage":
            matrix = np.array([[_success(c, p.answer) for c in sets[p.id].completions] for p in prompts])
            coverage, mean_success = coverage_and_mean(matrix)
            reports.append(MetricReport("coverage", {p.id: float(row.any()) for p, row in zip(prompts, matrix)}))
            reports.append(MetricReport("mean_success", {p.id: float(row.mean()) for p, row in zip(prompts, matrix)}))
            # aggregate rows of these two reports equal (coverage, mean_success)
            means = (reports[-2].mean, reports[-1].mean)
            if not (abs(means[0] - coverage) < 1e-12 and abs(means[1] - mean_success) < 1e-12):
                raise RuntimeError(
                    f"coverage report means {means} disagree with coverage_and_mean {(coverage, mean_success)}"
                )

    write_file(
        out_dir / "generations.jsonl",
        "".join(
            json.dumps({"prompt_id": p.id, "completion": completion, "sample_index": i}, sort_keys=True) + "\n"
            for p in prompts
            for i, completion in enumerate(sets[p.id].completions)
        ),
    )
    write_metric_reports(out_dir / "metrics.csv", reports)
    write_run_record(
        out_dir,
        "eval",
        started,
        {"sampling": asdict(sampling), "samples": samples, "metrics": list(metrics)},
        {
            "checkpoint": (checkpoint_path, bytes_hash(checkpoint_bytes)),
            "prompts": (prompts_path, bytes_hash(prompt_bytes)),
        },
        {"generations": "generations.jsonl", "metrics": "metrics.csv"},
    )
    return {
        "generations": out_dir / "generations.jsonl",
        "metrics": out_dir / "metrics.csv",
        "reports": {r.metric: r.mean for r in reports},
    }


def run_curves(out_path) -> Path:
    """Emit the focal factor and lambda-PR weight curves on a log-spaced grid."""
    out_path = Path(out_path)
    p_grid = np.geomspace(1e-6, 1.0, CURVE_POINTS)
    header = ["p"]
    columns = []
    for gamma in CURVE_GAMMAS:
        header.append(f"g_gamma{gamma:g}")
        columns.append(focal_scaling(p_grid, gamma))
    for lam, alpha in CURVE_PR_GRID:
        header.append(f"w_{lam:g}_{alpha:g}")
        # PrConfig's default position 1: curves show the weight at response start
        columns.append([pr_weight(p, PrConfig(lam, alpha)) for p in p_grid])
    rows = [[repr(float(p))] + [repr(float(col[i])) for col in columns] for i, p in enumerate(p_grid)]
    write_file(out_path, csv_text([header, *rows]))
    return out_path


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_task(args: tuple[SweepSpec, str, TrainConfig]) -> tuple[dict, str | None]:
    """One (cell, seed) unit of the sweep: train the cell's config, whose seed
    is the task's, then eval with the sampling seed set to it. Top-level so it
    pickles for the process pool. Returns (metric means dict, error or None)."""
    spec, label, train_cfg = args
    seed = train_cfg.seed
    cell_dir = spec.output_dir / label / f"seed_{seed}"
    try:
        train_out = run_train(ExperimentConfig(train_cfg, spec.model, spec.corpus, cell_dir, spec.parsed_corpus))
        eval_out = run_eval(
            train_out["checkpoint"],
            spec.prompts,
            replace(spec.sampling, seed=seed),
            cell_dir / "eval",
            samples=spec.samples_per_prompt,
            metrics=spec.metrics,
        )
        return {"final_loss": train_out["final_loss"], **eval_out["reports"]}, None
    except Exception as exc:  # cell failures are recorded, not fatal to the sweep
        return {}, _failure(exc)


def _distinct_objectives(cells) -> tuple[list[tuple[str, LossConfig]], dict[str, str]]:
    """Split (label, loss config) pairs by LossConfig.key(): the first pair of
    each key, in order, and {alias label: the label whose key it shares}.
    Runs that differ only in configs with equal keys train identically."""
    trained: dict[str, tuple[str, LossConfig]] = {}  # canonical key -> (label, loss config)
    aliases: dict[str, str] = {}
    for label, loss_cfg in cells:
        ran, _ = trained.setdefault(canonical_json(loss_cfg.key()), (label, loss_cfg))
        if ran != label:
            aliases[label] = ran
    return list(trained.values()), aliases


def run_sweep(spec: SweepSpec) -> dict:
    """Grid of (objective, gamma, beta) cells x seeds, then one summary CSV.

    Cells share every train setting but the loss config, so cells with equal
    LossConfig.key() train identically: each distinct key trains and evaluates
    once per seed, under the first label that has it, and the other labels
    (its aliases) get that label's values in the summary and no run directory.
    Cell failures are recorded in the summary as empty values and reported in
    the return value; the sweep itself keeps going. A worker process that dies
    fails its task and every task still pending in the pool, and the finished
    cells keep their values.
    """
    started = time.monotonic()
    out_dir = spec.output_dir
    cells = spec.cells()
    labels = [label for label, _ in cells]
    trained, aliases = _distinct_objectives(cells)
    tasks = [
        (spec, label, replace(spec.train, objective=loss_cfg, seed=seed))
        for label, loss_cfg in trained
        for seed in spec.seeds
    ]

    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(_sweep_task, t) for t in tasks]
            results = []
            for future in futures:
                try:
                    results.append(future.result())
                except Exception as exc:  # a dead worker fails its tasks; finished ones keep their values
                    results.append(({}, _failure(exc)))
    else:
        results = [_sweep_task(t) for t in tasks]

    values: dict[tuple[str, int], dict] = {}
    failures = []
    for (_, label, train_cfg), (metrics_out, error) in zip(tasks, results):
        values[(label, train_cfg.seed)] = metrics_out
        if error is not None:
            failures.append({"cell": label, "seed": train_cfg.seed, "error": error})
    for label, ran in aliases.items():
        for seed in spec.seeds:
            values[(label, seed)] = values[(ran, seed)]

    metric_names = ["final_loss"] + [
        m for m in spec.metrics if m != "coverage"
    ] + (["coverage", "mean_success"] if "coverage" in spec.metrics else [])
    rows = [["metric", "seed"] + labels]
    for metric in metric_names:
        # columns[i][j]: label i at seed j, None where the cell failed
        columns = [[values.get((label, seed), {}).get(metric) for seed in spec.seeds] for label in labels]
        for seed, row in zip(spec.seeds, zip(*columns)):
            rows.append([metric, seed] + ["" if v is None else repr(float(v)) for v in row])
        present = [[float(v) for v in column if v is not None] for column in columns]
        rows.append([metric, "median"] + [repr(statistics.median(c)) if c else "" for c in present])
    summary_path = out_dir / "sweep_summary.csv"
    write_file(summary_path, csv_text(rows))

    invocation = {
        "objectives": list(spec.objectives),
        "gammas": list(spec.gammas),
        "betas": list(spec.betas),
        "seeds": list(spec.seeds),
        "train": _shared_settings(spec.train.to_dict(), "objective", "seed"),
        "model": asdict(spec.model),
        "sampling": _shared_settings(asdict(spec.sampling), "seed"),
        "samples_per_prompt": spec.samples_per_prompt,
        "metrics": list(spec.metrics),
        "cells": labels,
        "aliases": aliases,
    }
    status = "ok" if not failures else f"{len(failures)} cell(s) failed"
    inputs = _hashed_now({"corpus": spec.corpus, "prompts": spec.prompts})
    write_run_record(out_dir, "sweep", started, invocation, inputs, {"summary": "sweep_summary.csv"}, status)
    return {
        "summary": summary_path,
        "cells": labels,
        "trained": [label for label, _ in trained],
        "failures": failures,
    }


def run_probe(spec: ProbeSpec) -> dict:
    """Pretrain broad, branch SFT per objective, probe the answer distribution.

    Per seed: one pretraining run, then one SFT continuation per objective from
    that same pretrained model; objectives with equal LossConfig.key() train
    once, under the first label, and the others take its probe. Emits a probe
    CSV per branch (plus the pretrained baseline) and a verdict JSON with
    median entropies, argmax agreement, and tail-mass comparisons against the
    pretrained model.
    """
    started = time.monotonic()
    pre_corpus = Corpus.load_jsonl(spec.pretrain_corpus)
    sft_corpus = Corpus.load_jsonl(spec.sft_corpus)
    chars = spec.model.vocab
    if chars is None:
        chars = Vocab.from_text(pre_corpus.charset(), sft_corpus.charset(), spec.prompt, *spec.valid_tokens).chars
    corpora = {"pretrain.corpus": pre_corpus.charset(), "sft.corpus": sft_corpus.charset()}
    check_encodable(chars, {**corpora, "probe.prompt": spec.prompt, "probe.valid_tokens": "".join(spec.valid_tokens)})

    labels = []
    for cfg in spec.sft_objectives:
        label = cfg.objective
        while label in labels:
            label += "_x"
        labels.append(label)

    probes: dict[str, dict[int, object]] = {label: {} for label in ["pretrained", *labels]}
    trained, aliases = _distinct_objectives(zip(labels, spec.sft_objectives))

    model_spec = replace(spec.model, vocab=chars)  # the vocab covers both corpora and the probe
    for seed in spec.seeds:
        model = build_model(model_spec, pre_corpus, seed)
        pre_ckpt, _ = train(model, pre_corpus, replace(spec.pretrain, seed=seed))
        probes["pretrained"][seed] = probe_token_distribution(
            pre_ckpt.model, spec.prompt, spec.valid_tokens
        )
        for label, objective in trained:
            sft_cfg = replace(spec.sft_base, objective=objective, seed=seed)
            ckpt, _ = train(pre_ckpt.model, sft_corpus, sft_cfg)
            probes[label][seed] = probe_token_distribution(
                ckpt.model, spec.prompt, spec.valid_tokens
            )
        for label, ran in aliases.items():
            probes[label][seed] = probes[ran][seed]

    out_dir = spec.output_dir
    summary: dict[str, dict] = {}
    for label, by_seed in probes.items():
        rows = [("seed", "token", "probability")]
        for seed in spec.seeds:
            result = by_seed[seed]
            rows += [(seed, token, repr(result.probabilities[token])) for token in spec.valid_tokens]
            rows.append((seed, "__tail__", repr(result.tail_mass)))
        write_file(out_dir / f"probe_{label}.csv", csv_text(rows))
        entropies = [
            answer_entropy(np.array([by_seed[s].probabilities[t] for t in spec.valid_tokens]))
            for s in spec.seeds
        ]
        summary[label] = {
            "median_entropy": float(statistics.median(entropies)),
            "entropy_by_seed": [float(e) for e in entropies],
            "median_tail_mass": float(
                statistics.median(by_seed[s].tail_mass for s in spec.seeds)
            ),
            "argmax_by_seed": [by_seed[s].argmax_token() for s in spec.seeds],
        }

    verdict = {
        "prompt": spec.prompt,
        "valid_tokens": list(spec.valid_tokens),
        "seeds": list(spec.seeds),
        "summary": summary,
    }
    if "ce" in labels:
        ce_summary = summary["ce"]
        comparisons = {}
        for label in labels:
            if label == "ce":
                continue
            comparisons[label] = {
                "median_entropy_exceeds_ce": summary[label]["median_entropy"]
                > ce_summary["median_entropy"],
                "argmax_matches_ce_per_seed": [
                    a == b
                    for a, b in zip(
                        summary[label]["argmax_by_seed"], ce_summary["argmax_by_seed"]
                    )
                ],
                "tail_within_pretrained_budget": summary[label]["median_tail_mass"]
                <= 1.10 * summary["pretrained"]["median_tail_mass"],
            }
        verdict["vs_ce"] = comparisons
    write_file(out_dir / "verdict.json", json.dumps(verdict, indent=2, sort_keys=True) + "\n")

    invocation = {
        "pretrain": _shared_settings(spec.pretrain.to_dict(), "seed"),
        "sft": _shared_settings(spec.sft_base.to_dict(), "objective", "seed"),
        "objectives": [c.key() for c in spec.sft_objectives],
        "model": asdict(spec.model),
        "prompt": spec.prompt,
        "valid_tokens": list(spec.valid_tokens),
        "seeds": list(spec.seeds),
    }
    inputs = _hashed_now({"pretrain_corpus": spec.pretrain_corpus, "sft_corpus": spec.sft_corpus})
    outputs = {f"probe_{label}": f"probe_{label}.csv" for label in probes} | {"verdict": "verdict.json"}
    write_run_record(out_dir, "probe", started, invocation, inputs, outputs)
    return verdict
