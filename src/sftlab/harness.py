"""Experiment orchestration behind the CLI subcommands.

Every run directory gets a run.json RunRecord carrying the canonical config
hash, the corpus content hash, and the exact invocation, so a run can be
reproduced from its outputs alone. Primary outputs (checkpoints, generations,
CSVs) are byte-identical across reruns; run.json is the one file allowed to
differ, and only in its wall-clock field.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
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
from .hashing import canonical_json, config_hash, content_hash, csv_text, write_file
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
from .sampling import SamplingConfig, sample_generation_set
from .training import Checkpoint, Corpus, TrainConfig, probe_token_distribution, train

CURVE_GAMMAS = (1.0, 2.0, 3.0, 5.0)
CURVE_PR_GRID = ((1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (0.5, 0.9))
CURVE_POINTS = 512


@dataclass
class RunRecord:
    command: str
    config_hash: str
    corpus_hash: str | None
    invocation: dict
    outputs: dict = field(default_factory=dict)
    status: str = "ok"
    wall_clock_s: float = 0.0

    def write(self, out_dir: Path):
        write_file(out_dir / "run.json", json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


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
    corpus = Corpus.load_jsonl(cfg.corpus)
    model = build_model(cfg.model, corpus, cfg.train.seed)
    checkpoint, trace = train(model, corpus, cfg.train)
    checkpoint.save(out_dir / "checkpoint.bin")
    trace_rows = [(row.step, repr(row.loss), repr(row.lr)) for row in trace]
    write_file(out_dir / "trace.csv", csv_text([("step", "loss", "lr"), *trace_rows]))
    record = RunRecord(
        command="train",
        config_hash=config_hash(cfg.to_dict()),
        corpus_hash=content_hash(cfg.corpus),
        invocation={"config": cfg.to_dict(), "corpus": str(cfg.corpus)},
        outputs={"checkpoint": "checkpoint.bin", "trace": "trace.csv"},
        wall_clock_s=time.monotonic() - started,
    )
    record.write(out_dir)
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
    """Sample completions for every prompt, write generations and metric CSVs."""
    started = time.monotonic()
    prompts = load_prompts(prompts_path)
    metrics = validate_eval_request(metrics, samples, prompts)
    model = Checkpoint.load(checkpoint_path).model
    check_encodable(model.vocab.chars, {f"prompt {p.id!r}": p.prompt for p in prompts})
    out_dir = Path(out_dir)

    sets: dict[str, GenerationSet] = {
        p.id: sample_generation_set(model, p.prompt, samples, sampling, p.id) for p in prompts
    }
    write_file(
        out_dir / "generations.jsonl",
        "".join(
            json.dumps({"prompt_id": p.id, "completion": completion, "sample_index": i}, sort_keys=True) + "\n"
            for p in prompts
            for i, completion in enumerate(sets[p.id].completions)
        ),
    )

    reports = []
    for name in metrics:
        if name == "self_bleu":
            reports.append(
                MetricReport(name, {p.id: self_bleu(sets[p.id]) for p in prompts})
            )
        elif name.startswith("distinct_"):
            n = int(name.split("_", 1)[1])
            reports.append(
                MetricReport(name, {p.id: distinct_n(sets[p.id], n) for p in prompts})
            )
        elif name == "entropy":
            reports.append(
                MetricReport(name, {p.id: completion_entropy(sets[p.id]) for p in prompts})
            )
        elif name == "coverage":
            matrix = np.array(
                [[_success(c, p.answer) for c in sets[p.id].completions] for p in prompts]
            )
            coverage, mean_success = coverage_and_mean(matrix)
            reports.append(
                MetricReport(
                    "coverage",
                    {p.id: float(row.any()) for p, row in zip(prompts, matrix)},
                )
            )
            reports.append(
                MetricReport(
                    "mean_success",
                    {p.id: float(row.mean()) for p, row in zip(prompts, matrix)},
                )
            )
            # aggregate rows of these two reports equal (coverage, mean_success)
            means = (reports[-2].mean, reports[-1].mean)
            if not (abs(means[0] - coverage) < 1e-12 and abs(means[1] - mean_success) < 1e-12):
                raise RuntimeError(
                    f"coverage report means {means} disagree with "
                    f"coverage_and_mean {(coverage, mean_success)}"
                )
    write_metric_reports(out_dir / "metrics.csv", reports)

    record = RunRecord(
        command="eval",
        config_hash=config_hash(
            {
                "checkpoint": content_hash(checkpoint_path),
                "sampling": asdict(sampling),
                "samples": samples,
                "metrics": list(metrics),
            }
        ),
        corpus_hash=content_hash(prompts_path),
        invocation={
            "checkpoint": str(checkpoint_path),
            "prompts": str(prompts_path),
            "samples": samples,
            "metrics": list(metrics),
        },
        outputs={"generations": "generations.jsonl", "metrics": "metrics.csv"},
        wall_clock_s=time.monotonic() - started,
    )
    record.write(out_dir)
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


def _sweep_task(args: tuple[SweepSpec, str, TrainConfig]) -> tuple:
    """One (cell, seed) unit of the sweep: train the cell's config, whose seed
    is the task's, then eval with the sampling seed set to it. Top-level so it
    pickles for the process pool. Returns (label, seed, metric means dict,
    error or None)."""
    spec, label, train_cfg = args
    seed = train_cfg.seed
    cell_dir = spec.output_dir / label / f"seed_{seed}"
    try:
        train_out = run_train(ExperimentConfig(train_cfg, spec.model, spec.corpus, cell_dir))
        eval_out = run_eval(
            train_out["checkpoint"],
            spec.prompts,
            replace(spec.sampling, seed=seed),
            cell_dir / "eval",
            samples=spec.samples_per_prompt,
            metrics=spec.metrics,
        )
        return label, seed, {"final_loss": train_out["final_loss"], **eval_out["reports"]}, None
    except Exception as exc:  # cell failures are recorded, not fatal to the sweep
        return label, seed, {}, f"{type(exc).__name__}: {exc}"


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
    the return value; the sweep itself keeps going.
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
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]

    values: dict[tuple[str, int], dict] = {}
    failures = []
    for label, seed, metrics_out, error in results:
        values[(label, seed)] = metrics_out
        if error is not None:
            failures.append({"cell": label, "seed": seed, "error": error})
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

    record = RunRecord(
        command="sweep",
        config_hash=config_hash(
            {
                "objectives": list(spec.objectives),
                "gammas": list(spec.gammas),
                "betas": list(spec.betas),
                "seeds": list(spec.seeds),
                "train": spec.train.to_dict(),
                "model": asdict(spec.model),
                "sampling": asdict(spec.sampling),
                "prompts": content_hash(spec.prompts),
                "samples_per_prompt": spec.samples_per_prompt,
                "metrics": list(spec.metrics),
            }
        ),
        corpus_hash=content_hash(spec.corpus),
        invocation={"cells": labels, "seeds": list(spec.seeds), "aliases": aliases},
        outputs={"summary": "sweep_summary.csv"},
        status="ok" if not failures else f"{len(failures)} cell(s) failed",
        wall_clock_s=time.monotonic() - started,
    )
    record.write(out_dir)
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
    check_encodable(chars, {"probe.prompt": spec.prompt, "probe.valid_tokens": "".join(spec.valid_tokens)})

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

    record = RunRecord(
        command="probe",
        config_hash=config_hash(
            {
                "pretrain": spec.pretrain.to_dict(),
                "sft": spec.sft_base.to_dict(),
                "objectives": [c.key() for c in spec.sft_objectives],
                "model": asdict(spec.model),
                "prompt": spec.prompt,
                "valid_tokens": list(spec.valid_tokens),
                "seeds": list(spec.seeds),
                "sft_corpus": content_hash(spec.sft_corpus),
            }
        ),
        corpus_hash=content_hash(spec.pretrain_corpus),
        invocation={"pretrain_corpus": str(spec.pretrain_corpus), "sft_corpus": str(spec.sft_corpus)},
        outputs={f"probe_{label}": f"probe_{label}.csv" for label in probes}
        | {"verdict": "verdict.json"},
        wall_clock_s=time.monotonic() - started,
    )
    record.write(out_dir)
    return verdict
