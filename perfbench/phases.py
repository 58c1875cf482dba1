"""The timed ops of a benchmark round, their output checks, and the per-layer
metrics of a traced round.

A round runs every phase once: a `training.train` of each objective
(train_zoo), one `harness.run_eval` (decode_eval), one `gradcheck.run_all_checks`
(gradcheck) and one `harness.run_sweep` (sweep_grid). Only the sftlab call is
inside an op's timer; checks run after it. An op fails when it raises or when
a check of its output fails, and every failure is counted.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import shutil
import struct
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from sftlab import config, gradcheck, harness, losses, metrics, model, sampling, training
from sftlab.config import KNOWN_METRICS
from sftlab.losses import OBJECTIVES
from sftlab.metrics import GenerationSet, MetricReport, read_metric_reports

import calibrate
from inputs import input_files
from tracer import SpanTable


class CheckFailed(Exception):
    pass


VERIFY_CHECKS = (
    "verify_gem_equivalence",
    "verify_focal_scaling",
    "verify_tofu_scaling",
    "verify_entropy_bounded",
    "verify_finite_difference",
)

# (owner, attribute, span name): each public function under the name its
# caller imported it by, so that only calls from that caller are traced. Spans
# are attributed to objectives and phases by the op id the benchmark sets.
TRACE_TARGETS = [
    (training, "token_loss", "losses.token_loss"),
    (training, "forward_batch", "model.forward_batch"),
    (training, "backward_batch", "model.backward_batch"),
    (training, "encode_example", "training.encode_example"),
    (training.Checkpoint, "save", "training.Checkpoint.save"),
    (training.Checkpoint, "load", "training.Checkpoint.load"),
    (harness, "train", "training.train"),
    (harness, "sample_generation_set", "sampling.sample_generation_set"),
    (harness, "self_bleu", "metrics.self_bleu"),
    (harness, "distinct_n", "metrics.distinct_n"),
    (harness, "completion_entropy", "metrics.completion_entropy"),
    (harness, "coverage_and_mean", "metrics.coverage_and_mean"),
    (sampling, "nucleus_sample", "sampling.nucleus_sample"),
    (sampling, "forward", "model.forward"),
    (sampling, "nucleus_filter", "sampling.nucleus_filter"),
    (gradcheck, "token_loss", "losses.token_loss"),
    (gradcheck, "fd_gradient", "gradcheck.fd_gradient"),
] + [(gradcheck, name, f"gradcheck.{name}") for name in VERIFY_CHECKS]


def params_digest(m: model.ToyModel, h=None) -> str:
    h = h or hashlib.sha256()
    for name, p in m.named_params():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def step0_loss(m: model.ToyModel, corpus: training.Corpus, cfg: training.TrainConfig) -> float:
    """The first step's loss recomputed from outside the trainer: the first
    batch of its seeded shuffle, `model.forward_batch` and the scalar
    `losses.token_loss`, summed in the trainer's order."""
    encoded = [training.encode_example(m.vocab, ex, m.context) for ex in corpus.examples]
    order = np.random.default_rng(cfg.seed).permutation(len(encoded))
    if cfg.batch_size > len(order):
        raise CheckFailed("step-0 check needs batch_size <= corpus size")
    batch = [encoded[int(i)] for i in order[: cfg.batch_size]]
    logits, _ = model.forward_batch(m, np.concatenate([b.contexts for b in batch]))
    loss, row = 0.0, 0
    for b in batch:
        length = len(b.targets)
        weight = (1.0 / len(batch)) / length
        for j in range(length):
            target = losses.Target.one_hot(int(b.targets[j]))
            loss += losses.token_loss(logits[row], target, cfg.objective, position=j + 1, length=length).value * weight
            row += 1
    return loss


def read_generations(path: Path) -> dict[str, list[str]]:
    by_prompt: dict[str, dict[int, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            by_prompt.setdefault(row["prompt_id"], {})[row["sample_index"]] = row["completion"]
    return {pid: [rows[i] for i in sorted(rows)] for pid, rows in by_prompt.items()}


def sampled_tokens(completions: list[str], max_tokens: int) -> int:
    """Tokens nucleus_sample drew for these completions, the EOS included: a
    completion shorter than max_tokens ended on an EOS draw."""
    return sum(min(len(c) + 1, max_tokens) for c in completions)


def recomputed_reports(sets: dict[str, GenerationSet], answers: dict[str, str]) -> dict[str, MetricReport]:
    """metrics.csv rebuilt by applying the metric functions to the generations."""
    reports = {
        "self_bleu": MetricReport("self_bleu", {p: metrics.self_bleu(s) for p, s in sets.items()}),
        "distinct_1": MetricReport("distinct_1", {p: metrics.distinct_n(s, 1) for p, s in sets.items()}),
        "distinct_2": MetricReport("distinct_2", {p: metrics.distinct_n(s, 2) for p, s in sets.items()}),
        "entropy": MetricReport("entropy", {p: metrics.completion_entropy(s) for p, s in sets.items()}),
    }
    success = {}
    for p, s in sets.items():
        scored = [metrics.extract_boxed_answer(c) for c in s.completions]
        success[p] = [(b if b is not None else c.strip()) == answers[p] for b, c in zip(scored, s.completions)]
    reports["coverage"] = MetricReport("coverage", {p: float(any(v)) for p, v in success.items()})
    reports["mean_success"] = MetricReport("mean_success", {p: float(np.mean(v)) for p, v in success.items()})
    return reports


class Bench:
    """Loaded inputs plus the state the output checks compare across repeats."""

    def __init__(self, work: Path, corrupt: bool = False):
        self.corrupt = corrupt
        self.work = work
        files = input_files(work)
        self.exps = {o: config.load_experiment_config(files["train"][o]) for o in OBJECTIVES}
        self.corpus = training.Corpus.load_jsonl(files["corpus"])
        self.init = {o: harness.build_model(e.model, self.corpus, e.train.seed) for o, e in self.exps.items()}
        self.ckpt_exp = config.load_experiment_config(files["ckpt"])
        self.checkpoint = self.ckpt_exp.output_dir / "checkpoint.bin"
        self.prompts_path = files["prompts"]
        self.prompts = config.load_prompts(files["prompts"])
        eval_cfg = json.loads(files["eval"].read_text())
        self.sampling = config.parse_sampling(eval_cfg["sampling"])
        self.samples = eval_cfg["samples"]
        self.sweep = config.load_sweep_spec(files["sweep"])
        gc = json.loads(files["gradcheck"].read_text())
        self.gc_trials, self.gc_seed = gc["trials"], gc["seed"]

        self.attempted = 0
        self.errors: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.step0_checked: set[str] = set()
        self.counts: dict[str, float] = {}  # exact per-pass counts, for the traced run
        self.tracer = None

    # -- op plumbing -----------------------------------------------------

    def _timed(self, span: str, call):
        """Time one sftlab call, inside a span when tracing. Returns (result,
        seconds); what the op does after it (its checks) is outside the op."""
        start = perf_counter()
        with self.tracer.span(span) if self.tracer else nullcontext():
            result = call()
        seconds = perf_counter() - start
        if self.tracer:
            self.tracer.op = None
        return result, seconds

    def _same_as_first(self, key: str, digest: str):
        first = self.first_digest.setdefault(key, digest)
        if digest != first:
            raise CheckFailed(f"{key}: output digest {digest[:12]} differs from first repeat {first[:12]}")

    def run_op(self, op: str, fn):
        """Run one op; returns (metric values, timed seconds), or None when it failed."""
        self.attempted += 1
        if self.tracer:
            self.tracer.op = op
        try:
            return fn()
        except Exception as exc:  # any failure of an op is counted, never fatal to the run
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            print(f"op failed: {self.errors[-1]}", file=sys.stderr)
            return None
        finally:
            if self.tracer:
                self.tracer.op = None

    def round(self, samples: dict) -> float:
        """One pass over every phase, adding (value, machine speed) pairs to
        samples; the speed of an op is the mean calibration rate just before
        and just after it over the reference rate. Decode runs twice, apart,
        since its samples are the noisiest. Returns the summed op seconds,
        each multiplied by its speed."""
        train = [(f"train:{o}", functools.partial(self.train_op, o)) for o in OBJECTIVES]
        ops = train[:3] + [("eval", self.eval_op)] + train[3:] + [("gradcheck", self.gradcheck_op)]
        ops += [("eval", self.eval_op), ("sweep", self.sweep_op)]
        seconds = 0.0
        rate = calibrate.loop_rate()
        for op, fn in ops:
            result = self.run_op(op, fn)
            next_rate = calibrate.loop_rate()
            if result is not None:
                values, op_seconds = result
                speed = (rate + next_rate) / (2.0 * calibrate.REFERENCE_RATE)
                for name, value in values.items():
                    samples.setdefault(name, []).append((value, speed))
                seconds += op_seconds * speed
            rate = next_rate
        return seconds

    # -- ops ---------------------------------------------------------------

    def train_op(self, objective: str):
        exp = self.exps[objective]
        (ckpt, trace), seconds = self._timed(
            "training.train", lambda: training.train(self.init[objective], self.corpus, exp.train)
        )
        h = hashlib.sha256()
        params_digest(ckpt.model, h)
        for row in trace:
            h.update(struct.pack("<d", row.loss))
        self._same_as_first(f"train:{objective}", h.hexdigest())
        if objective not in self.step0_checked:
            recomputed = step0_loss(self.init[objective], self.corpus, exp.train)
            if abs(recomputed - trace[0].loss) > 1e-12 * abs(trace[0].loss):
                raise CheckFailed(f"{objective}: step-0 loss {trace[0].loss!r} but recomputed {recomputed!r}")
            self.step0_checked.add(objective)
        return {f"train_steps_per_s.{objective}": exp.train.total_steps / seconds}, seconds

    def eval_op(self):
        out = self.work / "eval"
        shutil.rmtree(out, ignore_errors=True)
        _, seconds = self._timed(
            "harness.run_eval",
            lambda: harness.run_eval(
                self.checkpoint, self.prompts_path, self.sampling, out, self.samples, KNOWN_METRICS
            ),
        )
        if self.corrupt:  # the smoke test's deliberately wrong output: one metric value off by 1
            rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
            rows[1][2] = repr(float(rows[1][2]) + 1.0)
            (out / "metrics.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        generations = read_generations(out / "generations.jsonl")
        self._same_as_first("eval", hashlib.sha256(json.dumps(generations, sort_keys=True).encode()).hexdigest())
        sets = {p.id: GenerationSet(p.prompt, tuple(generations[p.id])) for p in self.prompts}
        expected = recomputed_reports(sets, {p.id: p.answer for p in self.prompts})
        written = read_metric_reports(out / "metrics.csv")
        for name, report in expected.items():
            want = {**report.per_prompt, "mean": report.mean, "std": report.std}
            if written.get(name) != want:
                raise CheckFailed(f"metrics.csv {name} {written.get(name)} != recomputed {want}")
        tokens = sum(sampled_tokens(c, self.sampling.max_tokens) for c in generations.values())
        self.counts["sampling.tokens"] = tokens
        return {"eval_tokens_per_s": tokens / seconds}, seconds

    def gradcheck_op(self):
        reports, seconds = self._timed(
            "gradcheck.run_all_checks", lambda: gradcheck.run_all_checks(self.gc_trials, self.gc_seed)
        )
        failed = [r.name for r in reports if not r.passed]
        if failed:
            raise CheckFailed(f"gradcheck reports not passed: {failed}")
        return {"gradcheck_trials_per_s": sum(r.trials for r in reports) / seconds}, seconds

    def sweep_op(self):
        out = self.sweep.output_dir
        shutil.rmtree(out, ignore_errors=True)
        result, seconds = self._timed("harness.run_sweep", lambda: harness.run_sweep(self.sweep))
        if result["failures"]:
            raise CheckFailed(f"sweep cell failures: {result['failures']}")
        with open(result["summary"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2 or any(cell == "" for row in rows[1:] for cell in row):
            raise CheckFailed("sweep_summary.csv has empty cells")
        values = [[float(v) for v in row[2:]] for row in rows[1:]]
        self._same_as_first("sweep", hashlib.sha256(json.dumps(values).encode()).hexdigest())
        if self.tracer:
            self.count_sweep_outputs(out)
        return {"sweep_s": seconds}, seconds

    def count_sweep_outputs(self, out: Path):
        """Counts read from the files the sweep wrote (its work ran in workers)."""
        ckpts = sorted(out.glob("*/seed_*/checkpoint.bin"))
        digests = {params_digest(training.Checkpoint.load(p).model) for p in ckpts}
        self.counts["harness.run_sweep.train_calls"] = len(ckpts)
        self.counts["harness.run_sweep.distinct_checkpoint_ratio"] = len(digests) / max(len(ckpts), 1)
        # run.json carries a wall-clock field, so its size is left out of the exact count
        self.counts["harness.run_sweep.bytes_written"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file() and p.name != "run.json"
        )

    def traced_setup_op(self):
        """Retrain the decode checkpoint through `harness.run_train` and check it
        matches the one set-up wrote."""
        out = self.work / "ckpt_traced"
        shutil.rmtree(out, ignore_errors=True)
        _, seconds = self._timed("harness.run_train", lambda: harness.run_train(self.ckpt_exp, out))
        again = params_digest(training.Checkpoint.load(out / "checkpoint.bin").model)
        if again != params_digest(training.Checkpoint.load(self.checkpoint).model):
            raise CheckFailed("retrained decode checkpoint differs from the set-up one")
        return {}, seconds


def layer_metrics(spans: list[list], bench: Bench) -> dict[str, float]:
    """Per-layer metrics of one traced round (see README.md for the table)."""
    t = SpanTable(spans)
    ms, us = 1e3, 1e6
    steps = {o: bench.exps[o].train.total_steps for o in OBJECTIVES}
    all_steps = sum(steps.values())
    out: dict[str, float] = {}
    for o in OBJECTIVES:
        out[f"losses.token_loss.{o}.ms_per_step"] = t.total("losses.token_loss", f"train:{o}") * ms / steps[o]
    out["losses.token_loss.calls"] = t.count("losses.token_loss", "train:")
    gc_calls = t.count("losses.token_loss", "gradcheck")
    out["losses.token_loss.us_per_call"] = t.total("losses.token_loss", "gradcheck") * us / max(gc_calls, 1)
    for layer in ("model.forward_batch", "model.backward_batch"):
        out[f"{layer}.ms_per_step"] = t.total(layer, "train:") * ms / all_steps
    out["training.train.self_ms_per_step"] = t.self_total("training.train", "train:") * ms / all_steps
    out["training.encode_example.ms_per_train"] = t.total("training.encode_example", "train:") * ms / len(OBJECTIVES)
    accounted = sum(t.total(n, "train:") for n in ("losses.token_loss", "model.forward_batch", "model.backward_batch"))
    accounted += t.self_total("training.train", "train:")
    out["training.train.accounted_frac"] = accounted / t.total("training.train", "train:")

    evals = t.count("harness.run_eval", "eval")  # counts and totals below are per run_eval
    forward_calls = t.count("model.forward", "eval")
    out["model.forward.us_per_call"] = t.total("model.forward", "eval") * us / max(forward_calls, 1)
    out["model.forward.calls"] = forward_calls / evals
    out["sampling.nucleus_filter.us_per_call"] = t.total("sampling.nucleus_filter", "eval") * us / max(
        t.count("sampling.nucleus_filter", "eval"), 1
    )
    out["sampling.nucleus_sample.ms_per_completion"] = t.total("sampling.nucleus_sample", "eval") * ms / max(
        t.count("sampling.nucleus_sample", "eval"), 1
    )
    out["sampling.tokens"] = bench.counts["sampling.tokens"]
    for name in ("self_bleu", "distinct_n", "completion_entropy"):
        out[f"metrics.{name}.ms_per_set"] = t.total(f"metrics.{name}", "eval") * ms / max(
            t.count(f"metrics.{name}", "eval"), 1
        )
    out["metrics.coverage_and_mean.ms"] = t.total("metrics.coverage_and_mean", "eval") * ms / evals
    out["training.Checkpoint.load.ms"] = t.total("training.Checkpoint.load", "eval") * ms / evals
    out["harness.run_eval.self_ms"] = t.self_total("harness.run_eval", "eval") * ms / evals
    out["training.Checkpoint.save.ms"] = t.total("training.Checkpoint.save", "setup") * ms
    out["harness.run_train.self_ms"] = t.self_total("harness.run_train", "setup") * ms

    out["harness.run_sweep.self_s"] = t.self_total("harness.run_sweep", "sweep")
    for name in ("train_calls", "distinct_checkpoint_ratio", "bytes_written"):
        out[f"harness.run_sweep.{name}"] = bench.counts[f"harness.run_sweep.{name}"]

    for name in VERIFY_CHECKS:
        out[f"gradcheck.{name}.ms"] = t.total(f"gradcheck.{name}", "gradcheck") * ms
    fd_calls = t.count("gradcheck.fd_gradient", "gradcheck")
    out["gradcheck.fd_gradient.calls"] = fd_calls
    out["gradcheck.fd_gradient.us_per_call"] = t.total("gradcheck.fd_gradient", "gradcheck") * us / max(fd_calls, 1)
    return out


COUNT_METRICS = (
    "losses.token_loss.calls",
    "model.forward.calls",
    "sampling.tokens",
    "gradcheck.fd_gradient.calls",
    "harness.run_sweep.train_calls",
    "harness.run_sweep.distinct_checkpoint_ratio",
    "harness.run_sweep.bytes_written",
)
