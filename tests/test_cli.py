"""End-to-end CLI runs in temp directories: exit codes, outputs, reruns."""

import csv
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from kernel_record import kernels_note

from sftlab import harness, training
from sftlab.cli import main
from sftlab.config import (
    ConfigError,
    load_experiment_config,
    load_probe_spec,
    load_sweep_spec,
    parse_model,
    parse_objective,
    parse_sampling,
    parse_train,
)
from sftlab.hashing import config_hash, content_hash
from sftlab.losses import LossConfig
from sftlab.metrics import read_metric_reports
from sftlab.training import Corpus, EncodedCorpus

MODEL = {"context": 4, "embed_dim": 8, "hidden_dim": 16}
TRAIN = {"total_steps": 20, "warmup_steps": 2, "batch_size": 2, "learning_rate": 0.2}


def write_corpus(path):
    rows = [
        {"prompt": "ab", "response": "cad"},
        {"prompt": "b", "response": "dab"},
        {"prompt": "", "response": "abc"},
        {"prompt": "ca", "response": "bd"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def write_prompts(path, with_answers=False):
    rows = [{"id": "p0", "prompt": "ab"}, {"id": "p1", "prompt": "b"}]
    if with_answers:
        for r in rows:
            r["answer"] = "cad"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def write_experiment(tmp_path, out_name="run", **overrides):
    write_corpus(tmp_path / "corpus.jsonl")
    payload = {
        "objective": {"name": "ce"},
        "model": MODEL,
        "train": TRAIN,
        "corpus": "corpus.jsonl",
        "output_dir": str(tmp_path / out_name),
    }
    payload.update(overrides)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(payload))
    return path


def strip_wall_clock(path):
    data = json.loads(path.read_text())
    data.pop("wall_clock_s")
    return data


def strip_paths(path):
    """A run.json less its wall clock, with each input as its sha256 alone."""
    data = strip_wall_clock(path)
    data["inputs"] = {name: entry["sha256"] for name, entry in data["inputs"].items()}
    return data


def assert_no_temp_files(root):
    # every file is written to a hidden sibling first, then moved into place
    assert sorted(root.rglob(".*.tmp")) == []


# ----------------------------------------------------------------- train ----


def test_train_writes_outputs_and_reruns_byte_identical(tmp_path, capsys):
    cfg_a = write_experiment(tmp_path, "run_a")
    cfg_b = write_experiment(tmp_path, "run_b")
    assert main(["train", str(cfg_a)]) == 0
    assert main(["train", str(cfg_b)]) == 0
    out = capsys.readouterr().out
    assert "checkpoint.bin" in out and "final loss" in out

    dir_a, dir_b = tmp_path / "run_a", tmp_path / "run_b"
    for name in ("checkpoint.bin", "trace.csv", "run.json"):
        assert (dir_a / name).exists()
    assert (dir_a / "checkpoint.bin").read_bytes() == (dir_b / "checkpoint.bin").read_bytes()
    assert (dir_a / "trace.csv").read_bytes() == (dir_b / "trace.csv").read_bytes()
    assert strip_wall_clock(dir_a / "run.json") == strip_wall_clock(dir_b / "run.json")
    assert_no_temp_files(tmp_path)


def test_train_trace_has_step_rows(tmp_path):
    cfg = write_experiment(tmp_path)
    assert main(["train", str(cfg)]) == 0
    with open(tmp_path / "run" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == TRAIN["total_steps"]
    assert [int(r["step"]) for r in rows] == list(range(TRAIN["total_steps"]))


def test_train_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_experiment(tmp_path, warp=1)
    assert main(["train", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_train_missing_config_is_usage_error(capsys):
    assert main(["train", "/nonexistent/exp.json"]) == 2


def test_train_divergence_is_runtime_error(tmp_path, capsys):
    import numpy as np

    cfg = write_experiment(
        tmp_path, train={**TRAIN, "learning_rate": 1e308, "warmup_steps": 1, "total_steps": 5}
    )
    with np.errstate(all="ignore"):
        assert main(["train", str(cfg)]) == 1
    assert "TrainingDivergedError" in capsys.readouterr().err


def test_train_out_of_range_hyperparameter_is_usage_error(tmp_path, capsys):
    cfg = write_experiment(tmp_path, objective={"name": "lambda_pr", "alpha": 0.0})
    assert main(["train", str(cfg)]) == 2
    assert "drop threshold" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [("seeds", [5, 6, 7]), ("sampling", {"top_p": 0.5})], ids=["seeds", "sampling"])
def test_train_config_takes_no_seeds_or_sampling(tmp_path, capsys, key, value):
    # a train run is its train and model configs and its corpus; nothing reads these
    cfg = write_experiment(tmp_path, **{key: value})
    assert main(["train", str(cfg)]) == 2
    assert f"unknown key(s) ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "row",
    [{"prompt": None, "response": "ab"}, {"prompt": "a", "response": 12}, {"prompt": ["a"], "response": "b"}],
    ids=["null_prompt", "number_response", "list_prompt"],
)
def test_train_non_string_corpus_value_is_runtime_error(tmp_path, capsys, row):
    # a corpus value that is not a JSON string fails like any other bad corpus
    # row; it is never trained on as its str() text
    cfg = write_experiment(tmp_path)
    with open(tmp_path / "corpus.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    assert main(["train", str(cfg)]) == 1
    assert "corpus.jsonl:5: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ------------------------------------------------------------------ eval ----


def trained_checkpoint(tmp_path):
    cfg = write_experiment(tmp_path)
    assert main(["train", str(cfg)]) == 0
    return tmp_path / "run" / "checkpoint.bin"


def test_eval_writes_outputs_and_reruns_byte_identical(tmp_path, capsys):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    args = [str(ckpt), str(prompts), "--samples", "4", "--max-tokens", "8",
            "--metrics", "self_bleu,distinct_1,entropy"]
    assert main(["eval", *args, "--out", str(tmp_path / "ev_a")]) == 0
    assert main(["eval", *args, "--out", str(tmp_path / "ev_b")]) == 0
    out = capsys.readouterr().out
    assert "self_bleu mean" in out

    a, b = tmp_path / "ev_a", tmp_path / "ev_b"
    assert (a / "generations.jsonl").read_bytes() == (b / "generations.jsonl").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert strip_wall_clock(a / "run.json") == strip_wall_clock(b / "run.json")

    rows = [json.loads(line) for line in (a / "generations.jsonl").read_text().splitlines()]
    assert len(rows) == 8  # 2 prompts x 4 samples
    assert set(rows[0]) == {"prompt_id", "completion", "sample_index"}

    loaded = read_metric_reports(a / "metrics.csv")
    assert set(loaded) == {"self_bleu", "distinct_1", "entropy"}
    for table in loaded.values():
        assert set(table) == {"p0", "p1", "mean", "std"}
    assert_no_temp_files(tmp_path)


def test_eval_failing_mid_decode_leaves_no_generations_file(tmp_path, monkeypatch, capsys):
    # sampling dies part way through the one lockstep that decodes both
    # prompts: a generations.jsonl holding the rows decoded so far would read
    # as a complete file
    import sftlab.sampling

    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    forward = sftlab.sampling.forward
    calls = []

    def dies_in_second_step(*args):
        calls.append(args)
        if len(calls) == 6:  # 2 prompts x 2 samples: the first step makes 4 calls
            raise RuntimeError("sampling died")
        return forward(*args)

    monkeypatch.setattr(sftlab.sampling, "forward", dies_in_second_step)
    out = tmp_path / "ev"
    assert main(["eval", str(ckpt), str(prompts), "--out", str(out), "--samples", "2", "--max-tokens", "4"]) == 1
    assert len(calls) == 6
    assert "sampling died" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize(
    "row",
    [{"id": 3, "prompt": "a"}, {"id": "p2", "prompt": None}, {"id": "p2", "prompt": "a", "answer": 4}],
    ids=["number_id", "null_prompt", "number_answer"],
)
def test_eval_non_string_prompt_value_is_usage_error(tmp_path, capsys, row):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    with open(prompts, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    assert main(["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev")]) == 2
    assert "prompts.jsonl:3: " in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("prompt_id", ["mean", "std"])
def test_aggregate_row_prompt_id_is_usage_error(tmp_path, capsys, command, prompt_id):
    # metrics.csv closes each metric with rows whose prompt_id is mean and std;
    # a prompt of that id would be read back as the aggregate
    if command == "eval":
        argv = ["eval", str(trained_checkpoint(tmp_path)), str(tmp_path / "prompts.jsonl"), "--out", str(tmp_path / "out")]
    else:
        argv = ["sweep", str(write_sweep(tmp_path, output_dir=str(tmp_path / "out")))]
    (tmp_path / "prompts.jsonl").write_text(
        json.dumps({"id": "p0", "prompt": "ab"}) + "\n" + json.dumps({"id": prompt_id, "prompt": "b"}) + "\n"
    )
    assert main(argv) == 2
    assert f"prompts.jsonl:2: prompt id {prompt_id!r} is reserved" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_undefined_metric_is_runtime_error(tmp_path, capsys):
    # completions over a space-free vocab are single words, so the pooled
    # bigram denominator is empty and distinct_2 is undefined
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    code = main(["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev"),
                 "--metrics", "distinct_2", "--samples", "3", "--max-tokens", "6"])
    assert code == 1
    assert "UndefinedMetricError" in capsys.readouterr().err


def test_eval_coverage_requires_answers(tmp_path, capsys):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl", with_answers=False)
    code = main(
        ["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev"),
         "--metrics", "coverage", "--samples", "3"]
    )
    assert code == 2


def test_eval_coverage_emits_both_reports(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl", with_answers=True)
    code = main(
        ["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev"),
         "--metrics", "coverage", "--samples", "3", "--max-tokens", "6"]
    )
    assert code == 0
    loaded = read_metric_reports(tmp_path / "ev" / "metrics.csv")
    assert set(loaded) == {"coverage", "mean_success"}
    assert loaded["coverage"]["mean"] >= loaded["mean_success"]["mean"]


def test_eval_coverage_invariant_is_checked_without_assert(tmp_path, capsys, monkeypatch):
    # the per-prompt report means must equal coverage_and_mean; a disagreement
    # is a runtime failure even under python -O, where asserts vanish
    import sftlab.harness

    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl", with_answers=True)
    monkeypatch.setattr(sftlab.harness, "coverage_and_mean", lambda matrix: (0.25, 0.125))
    code = main(
        ["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev"),
         "--metrics", "coverage", "--samples", "3", "--max-tokens", "6"]
    )
    assert code == 1
    assert "disagree with coverage_and_mean" in capsys.readouterr().err


def test_eval_usage_errors(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    base = ["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev")]
    assert main([*base, "--metrics", "bleu_self"]) == 2
    assert main([*base, "--metrics", "self_bleu", "--samples", "1"]) == 2
    assert main([*base, "--metrics", ""]) == 2
    assert main([*base, "--top-p", "2.0"]) == 2
    assert main([*base, "--metrics", "entropy", "--samples", "0"]) == 2
    assert not (tmp_path / "ev").exists()


def write_unencodable_prompts(path):
    # the second prompt has a character outside write_corpus's charset "abcd"
    rows = [{"id": "p0", "prompt": "ab"}, {"id": "p1", "prompt": "bz"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_eval_unencodable_prompt_is_usage_error(tmp_path, capsys):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_unencodable_prompts(tmp_path / "prompts.jsonl")
    assert main(["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev")]) == 2
    assert "prompt 'p1'" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_eval_garbage_checkpoint_is_runtime_error(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    assert main(["eval", str(bad), str(prompts), "--out", str(tmp_path / "ev")]) == 1
    missing = tmp_path / "absent.bin"
    assert main(["eval", str(missing), str(prompts), "--out", str(tmp_path / "ev")]) == 1


def test_eval_non_finite_checkpoint_is_runtime_error(tmp_path, capsys):
    ckpt = trained_checkpoint(tmp_path)
    checkpoint = training.Checkpoint.load(ckpt)
    checkpoint.model.embed[0, 0] = np.nan
    checkpoint.save(ckpt)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    assert main(["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev")]) == 1
    assert f"{ckpt}: bad checkpoint: array embed is not finite at [0, 0]" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("command, code", [("eval", 2), ("train", 1)])
def test_input_that_is_not_utf8_exits_as_bad_json_does(tmp_path, capsys, command, code):
    # a bad prompts file is a usage error and a bad corpus a runtime one
    ckpt = trained_checkpoint(tmp_path)
    path = tmp_path / ("prompts.jsonl" if command == "eval" else "corpus.jsonl")
    if command == "eval":
        args = ["eval", str(ckpt), str(path), "--out", str(tmp_path / "ev")]
    else:
        args = ["train", str(tmp_path / "run.json")]
    capsys.readouterr()
    for line, message in ((b'{"id": "p0"\n', "bad JSON"), (b"\xff\n", "not UTF-8")):
        path.write_bytes(b"\n" + line)
        assert main(args) == code
        assert f"{path}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_run_records_give_input_paths_absolute(tmp_path, monkeypatch):
    # a config in the working directory and an eval given relative paths: each
    # run.json path finds its file from anywhere, and a symlink keeps its name
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SFTLAB_OUT_ROOT", raising=False)
    write_experiment(tmp_path, output_dir="out")
    write_prompts(tmp_path / "prompts.jsonl")
    Path("linked.jsonl").symlink_to("prompts.jsonl")
    assert main(["train", "run.json"]) == 0
    assert main(["eval", "out/checkpoint.bin", "linked.jsonl", "--out", "ev", "--samples", "2", "--max-tokens", "4",
                 "--metrics", "entropy"]) == 0
    paths = {
        (run, name): entry["path"]
        for run in ("out", "ev")
        for name, entry in json.loads(Path(run, "run.json").read_text())["inputs"].items()
    }
    cwd = Path.cwd()
    assert paths == {
        ("out", "corpus"): str(cwd / "corpus.jsonl"),
        ("ev", "checkpoint"): str(cwd / "out" / "checkpoint.bin"),
        ("ev", "prompts"): str(cwd / "linked.jsonl"),
    }


# -------------------------------------------------------------- gradcheck ----


def test_gradcheck_cli_small_battery(capsys):
    assert main(["gradcheck", "--trials", "40", "--seed", "1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    reports = [json.loads(l) for l in lines]
    assert len(reports) == 5
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize("args", [["--trials", "0"], ["--trials", "-3"], ["--seed", "-1"]])
def test_gradcheck_cli_bad_trials_or_seed_is_usage_error(capsys, args):
    assert main(["gradcheck", *args]) == 2
    assert capsys.readouterr().out == ""


def test_gradcheck_cli_single_objective(capsys):
    assert main(["gradcheck", "--trials", "30", "--seed", "2", "--objective", "gem"]) == 0
    reports = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(reports) == 1
    assert "finite_difference" in reports[0]["name"]


# ----------------------------------------------------------------- curves ----


def test_curves_cli_writes_stable_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["curves", str(a)]) == 0
    assert main(["curves", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    with open(a, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 512
    assert float(rows[0]["p"]) == pytest.approx(1e-6)
    assert float(rows[-1]["p"]) == 1.0
    # focal factor releases fully mastered tokens; the identity-weight curve
    # ends at w(1) = 1
    assert float(rows[-1]["g_gamma3"]) == 0.0
    assert float(rows[-1]["w_1_1"]) == 1.0


def test_curves_cli_matches_golden_digest(tmp_path):
    """tests/data/golden_curves.sha256 pins the bytes `sftlab curves` writes:
    every focal factor and lambda-PR weight on its grid."""
    out = tmp_path / "curves.csv"
    assert main(["curves", str(out)]) == 0
    golden = (Path(__file__).parent / "data" / "golden_curves.sha256").read_text().strip()
    assert content_hash(out) == golden, kernels_note()


# ------------------------------------------------------------------ sweep ----


def write_sweep(tmp_path, **overrides):
    write_corpus(tmp_path / "corpus.jsonl")
    write_prompts(tmp_path / "prompts.jsonl")
    payload = {
        "objectives": ["tofu"],
        "gammas": [1.0, 3.0],
        "betas": [0.7],
        "seeds": [0, 1],
        "model": MODEL,
        "train": {**TRAIN, "total_steps": 10, "warmup_steps": 1},
        "sampling": {"max_tokens": 6},
        "corpus": "corpus.jsonl",
        "prompts": "prompts.jsonl",
        "samples_per_prompt": 3,
        "metrics": ["self_bleu", "entropy"],
        "output_dir": str(tmp_path / "sweep"),
    }
    payload.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload))
    return path


def test_sweep_cli_summary_shape(tmp_path, capsys):
    spec = write_sweep(tmp_path)
    assert main(["sweep", str(spec)]) == 0
    assert "2 cells" in capsys.readouterr().out

    summary = tmp_path / "sweep" / "sweep_summary.csv"
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "seed", "tofu_g1_b0.7", "tofu_g3_b0.7"]
    # per metric: one row per seed plus a median row
    by_metric = {}
    for row in rows[1:]:
        by_metric.setdefault(row[0], []).append(row[1])
    for metric in ("final_loss", "self_bleu", "entropy"):
        assert by_metric[metric] == ["0", "1", "median"]
    # every cell of every row carries a value
    for row in rows[1:]:
        assert all(cell != "" for cell in row[2:])

    for cell in ("tofu_g1_b0.7", "tofu_g3_b0.7"):
        for seed in ("seed_0", "seed_1"):
            assert (tmp_path / "sweep" / cell / seed / "checkpoint.bin").exists()
            assert (tmp_path / "sweep" / cell / seed / "eval" / "metrics.csv").exists()
    assert_no_temp_files(tmp_path)


def test_sweep_cli_rerun_summary_byte_identical(tmp_path):
    spec_a = write_sweep(tmp_path)
    assert main(["sweep", str(spec_a)]) == 0
    first = (tmp_path / "sweep" / "sweep_summary.csv").read_bytes()
    spec_b = write_sweep(tmp_path, output_dir=str(tmp_path / "sweep2"))
    assert main(["sweep", str(spec_b)]) == 0
    assert (tmp_path / "sweep2" / "sweep_summary.csv").read_bytes() == first


def test_sweep_cli_dedups_identical_cells(tmp_path, capsys):
    spec = write_sweep(tmp_path, gammas=[3.0, 3.0], seeds=[0])
    assert main(["sweep", str(spec)]) == 0
    assert "1 cells" in capsys.readouterr().out


def test_sweep_cli_bad_spec_is_usage_error(tmp_path):
    spec = write_sweep(tmp_path, metrics=["nope"])
    assert main(["sweep", str(spec)]) == 2


@pytest.mark.parametrize(
    "grid", [{"gammas": [-1.0]}, {"betas": [1.5]}, {"seeds": [0, -1]}, {"train": {**TRAIN, "seed": -1}}]
)
def test_sweep_cli_out_of_range_hyperparameter_is_usage_error(tmp_path, grid):
    spec = write_sweep(tmp_path, **grid)
    assert main(["sweep", str(spec)]) == 2
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "field",
    [{"gammas": ["wide"]}, {"betas": [None]}, {"samples_per_prompt": "many"}, {"workers": "two"}],
)
def test_sweep_cli_non_numeric_value_is_usage_error(tmp_path, field):
    spec = write_sweep(tmp_path, **field)
    assert main(["sweep", str(spec)]) == 2
    assert not (tmp_path / "sweep").exists()


def test_sweep_cli_unencodable_prompt_is_usage_error(tmp_path, capsys):
    spec = write_sweep(tmp_path)
    write_unencodable_prompts(tmp_path / "prompts.jsonl")
    assert main(["sweep", str(spec)]) == 2
    assert "prompt 'p1'" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_cli_label_collision_is_usage_error(tmp_path, capsys):
    # both gammas format as g1, so they would share one run directory and column
    spec = write_sweep(tmp_path, gammas=[1.0, 1.0000001])
    assert main(["sweep", str(spec)]) == 2
    assert "share the label tofu_g1_b0.7" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def read_summary(path):
    """sweep_summary.csv as {(metric, seed): {label: value}}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {(r[0], r[1]): dict(zip(rows[0][2:], r[2:])) for r in rows[1:]}


CE_CELLS = {f"ce_g{g:g}_b{b:g}": (g, b) for g in (1.0, 3.0) for b in (0.7, 0.9)}


def test_sweep_aliases_cells_with_equal_loss_keys(tmp_path, capsys):
    # ce consumes neither gamma nor beta: its four cells train once per seed
    spec = write_sweep(tmp_path, objectives=["ce", "tofu"], gammas=[1.0, 3.0], betas=[0.7, 0.9])
    assert main(["sweep", str(spec)]) == 0
    assert "(8 cells, 5 trained)" in capsys.readouterr().out

    out = tmp_path / "sweep"
    aliased = list(CE_CELLS)[1:]
    run = json.loads((out / "run.json").read_text())
    assert run["invocation"]["aliases"] == {label: "ce_g1_b0.7" for label in aliased}
    assert len(run["invocation"]["cells"]) == 8
    trained = sorted(p.parent.parent.name for p in out.glob("*/seed_*/checkpoint.bin"))
    assert trained == sorted(["ce_g1_b0.7"] * 2 + [f"tofu_g{g}_b{b}" for g in (1, 3) for b in (0.7, 0.9)] * 2)
    assert not any((out / label).exists() for label in aliased)

    summary = read_summary(out / "sweep_summary.csv")
    for label, (gamma, beta) in CE_CELLS.items():
        alone = write_sweep(
            tmp_path, objectives=["ce"], gammas=[gamma], betas=[beta], output_dir=str(tmp_path / label)
        )
        assert main(["sweep", str(alone)]) == 0
        for row, value in read_summary(tmp_path / label / "sweep_summary.csv").items():
            assert value[label] != "" and summary[row][label] == value[label], (label, row)


def test_sweep_with_distinct_cells_aliases_nothing(tmp_path, capsys):
    spec = write_sweep(
        tmp_path, objectives=["tofu", "naive_tempered_focal"], gammas=[1.0, 3.0], betas=[0.7, 0.9], seeds=[0]
    )
    assert main(["sweep", str(spec)]) == 0
    assert "(8 cells, 8 trained)" in capsys.readouterr().out
    assert json.loads((tmp_path / "sweep" / "run.json").read_text())["invocation"]["aliases"] == {}
    assert len(list((tmp_path / "sweep").glob("*/seed_0/checkpoint.bin"))) == 8


def test_sweep_run_hash_covers_sampling_and_prompts(tmp_path):
    def run_hash(name, **overrides):
        spec = write_sweep(tmp_path, gammas=[3.0], seeds=[0], output_dir=str(tmp_path / name), **overrides)
        assert main(["sweep", str(spec)]) == 0
        return json.loads((tmp_path / name / "run.json").read_text())["config_hash"]

    base = run_hash("base")
    assert run_hash("top_p", sampling={"max_tokens": 6, "top_p": 0.5}) != base
    # a different prompts file whose path the hash never sees, only its content
    (tmp_path / "edited.jsonl").write_text(json.dumps({"id": "p0", "prompt": "ca"}) + "\n")
    assert run_hash("prompts", prompts="edited.jsonl") != base


# ------------------------------------------------------------------ probe ----


def test_probe_cli_end_to_end(tmp_path, capsys):
    pre = tmp_path / "pre.jsonl"
    rows = [{"prompt": "q", "response": a} for a in "abcd" for _ in range(3)]
    pre.write_text("".join(json.dumps(r) + "\n" for r in rows))
    sft = tmp_path / "sft.jsonl"
    rows = [{"prompt": "q", "response": "a"}] * 6 + [{"prompt": "q", "response": "b"}] * 2
    sft.write_text("".join(json.dumps(r) + "\n" for r in rows))

    payload = {
        "pretrain": {"corpus": "pre.jsonl", "train": {"total_steps": 15, "warmup_steps": 2, "batch_size": 2}},
        "sft": {
            "corpus": "sft.jsonl",
            "train": {"total_steps": 10, "warmup_steps": 1, "batch_size": 2},
            "objectives": [{"name": "ce"}, {"name": "tofu", "gamma": 3.0, "beta": 0.8}],
        },
        "model": MODEL,
        "probe": {"prompt": "q", "valid_tokens": ["a", "b", "c", "d"]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "probe"),
    }
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(payload))

    assert main(["probe", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "median entropy" in out

    probe_dir = tmp_path / "probe"
    for label in ("pretrained", "ce", "tofu"):
        assert (probe_dir / f"probe_{label}.csv").exists()
    verdict = json.loads((probe_dir / "verdict.json").read_text())
    assert set(verdict["summary"]) == {"pretrained", "ce", "tofu"}
    assert "tofu" in verdict["vs_ce"]
    entry = verdict["vs_ce"]["tofu"]
    assert set(entry) == {
        "median_entropy_exceeds_ce",
        "argmax_matches_ce_per_seed",
        "tail_within_pretrained_budget",
    }
    with open(probe_dir / "probe_ce.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # per seed: one row per valid token plus the tail row
    assert len(rows) == 2 * 5
    by_seed_total = {}
    for row in rows:
        if row["token"] != "__tail__":
            by_seed_total[row["seed"]] = by_seed_total.get(row["seed"], 0.0) + float(row["probability"])
    for seed, mass in by_seed_total.items():
        assert 0.0 < mass <= 1.0 + 1e-12
    assert_no_temp_files(tmp_path)


def test_probe_cli_negative_seed_is_usage_error(tmp_path):
    write_corpus(tmp_path / "corpus.jsonl")
    payload = {
        "pretrain": {"corpus": "corpus.jsonl"},
        "sft": {"corpus": "corpus.jsonl", "objectives": [{"name": "ce"}]},
        "probe": {"prompt": "a", "valid_tokens": ["a"]},
        "seeds": [-1],
        "output_dir": str(tmp_path / "probe"),
    }
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(payload))
    assert main(["probe", str(cfg)]) == 2
    assert not (tmp_path / "probe").exists()


def test_probe_prompt_outside_pinned_vocab_is_usage_error(tmp_path, capsys, monkeypatch):
    cfg = write_probe(tmp_path)
    payload = json.loads(cfg.read_text())
    payload["model"] = {**MODEL, "vocab": "abcd"}
    payload["probe"]["prompt"] = "az"
    cfg.write_text(json.dumps(payload))
    trained = []
    monkeypatch.setattr(harness, "train", lambda *args: trained.append(args))
    assert main(["probe", str(cfg)]) == 2
    assert "probe.prompt" in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "probe").exists()


def write_probe(tmp_path, pretrain_train=None, sft_train=None):
    write_corpus(tmp_path / "corpus.jsonl")
    payload = {
        "pretrain": {"corpus": "corpus.jsonl", "train": pretrain_train or {}},
        "sft": {"corpus": "corpus.jsonl", "train": sft_train or {}, "objectives": [{"name": "ce"}]},
        "model": MODEL,
        "probe": {"prompt": "a", "valid_tokens": ["a"]},
        "seeds": [0],
        "output_dir": str(tmp_path / "probe"),
    }
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(payload))
    return cfg


# each command's config writer; its corpus holds "d"
PINNED_VOCAB_CONFIGS = {"train": write_experiment, "sweep": write_sweep, "probe": write_probe}


@pytest.mark.parametrize("command", PINNED_VOCAB_CONFIGS)
def test_corpus_outside_pinned_vocab_is_usage_error(tmp_path, capsys, command):
    cfg = PINNED_VOCAB_CONFIGS[command](tmp_path)
    payload = json.loads(cfg.read_text())
    payload["model"] = {**MODEL, "vocab": "abc"}
    cfg.write_text(json.dumps(payload))
    assert main([command, str(cfg)]) == 2
    assert "corpus has characters ['d'] outside the model vocab 'abc'" in capsys.readouterr().err
    assert not Path(payload["output_dir"]).exists()


# each run's seed comes from the spec's `seeds`, which replace these four keys
SEED_KEYS = {
    "sweep.train.seed": lambda tmp_path: write_sweep(tmp_path, train={**TRAIN, "seed": 5}),
    "sweep.sampling.seed": lambda tmp_path: write_sweep(tmp_path, sampling={"max_tokens": 6, "seed": 5}),
    "probe.pretrain.train.seed": lambda tmp_path: write_probe(tmp_path, pretrain_train={"seed": 5}),
    "probe.sft.train.seed": lambda tmp_path: write_probe(tmp_path, sft_train={"seed": 5}),
}


@pytest.mark.parametrize("key", SEED_KEYS)
def test_sweep_and_probe_take_no_per_run_seed(tmp_path, capsys, key):
    cfg = SEED_KEYS[key](tmp_path)
    command = key.split(".")[0]
    assert main([command, str(cfg)]) == 2
    assert "unknown key(s) ['seed']" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


def test_probe_run_hash_covers_sft_corpus(tmp_path):
    write_corpus(tmp_path / "pre.jsonl")
    payload = {
        "pretrain": {"corpus": "pre.jsonl", "train": {"total_steps": 2, "warmup_steps": 1, "batch_size": 2}},
        "sft": {
            "corpus": "sft.jsonl",
            "train": {"total_steps": 2, "warmup_steps": 1, "batch_size": 2},
            "objectives": [{"name": "ce"}],
        },
        "model": MODEL,
        "probe": {"prompt": "a", "valid_tokens": ["a", "b"]},
        "seeds": [0],
    }
    hashes = []
    for name, response in (("base", "a"), ("edited", "b")):
        (tmp_path / "sft.jsonl").write_text(json.dumps({"prompt": "a", "response": response}) + "\n")
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**payload, "output_dir": str(tmp_path / name)}))
        assert main(["probe", str(cfg)]) == 0
        hashes.append(json.loads((tmp_path / name / "run.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_probe_run_hash_covers_sft_hyperparameters(tmp_path):
    write_corpus(tmp_path / "pre.jsonl")
    (tmp_path / "sft.jsonl").write_text(json.dumps({"prompt": "a", "response": "a"}) + "\n")
    hashes = []
    for gamma in (1.0, 3.0):
        payload = {
            "pretrain": {"corpus": "pre.jsonl", "train": {"total_steps": 2, "warmup_steps": 1, "batch_size": 2}},
            "sft": {
                "corpus": "sft.jsonl",
                "train": {"total_steps": 2, "warmup_steps": 1, "batch_size": 2},
                "objectives": [{"name": "tofu", "gamma": gamma}],
            },
            "model": MODEL,
            "probe": {"prompt": "a", "valid_tokens": ["a", "b"]},
            "seeds": [0],
            "output_dir": str(tmp_path / f"g{gamma:g}"),
        }
        cfg = tmp_path / f"g{gamma:g}.json"
        cfg.write_text(json.dumps(payload))
        assert main(["probe", str(cfg)]) == 0
        hashes.append(json.loads((tmp_path / f"g{gamma:g}" / "run.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_probe_trains_each_distinct_objective_once(tmp_path, monkeypatch):
    from sftlab import harness

    calls = []
    real_train = harness.train

    def counting_train(model, corpus, cfg):
        calls.append(cfg)
        return real_train(model, corpus, cfg)

    monkeypatch.setattr(harness, "train", counting_train)
    cfg = write_probe(tmp_path)
    data = json.loads(cfg.read_text())
    data["sft"]["objectives"] = [{"name": "ce"}, {"name": "ce", "gamma": 1.0}, {"name": "tofu"}]
    data["seeds"] = [0, 1]
    cfg.write_text(json.dumps(data))
    assert main(["probe", str(cfg)]) == 0
    # per seed: one pretraining run, then ce and tofu; ce's gamma is not in its key
    assert [c.objective.objective for c in calls] == ["ce", "ce", "tofu"] * 2
    probe_dir = tmp_path / "probe"
    assert (probe_dir / "probe_ce_x.csv").read_bytes() == (probe_dir / "probe_ce.csv").read_bytes()
    verdict = json.loads((probe_dir / "verdict.json").read_text())
    assert list(verdict["summary"]) == ["ce", "ce_x", "pretrained", "tofu"]
    assert verdict["summary"]["ce_x"] == verdict["summary"]["ce"]
    assert set(verdict["vs_ce"]) == {"ce_x", "tofu"}


# ------------------------------------------- typed paths and probe values ----

CONFIG_WRITERS = {"train": write_experiment, "sweep": write_sweep, "probe": write_probe}

# every path a config names, by command and dotted config-file key
PATH_KEYS = {
    "train": ("corpus", "output_dir"),
    "sweep": ("corpus", "prompts", "output_dir"),
    "probe": ("pretrain.corpus", "sft.corpus", "output_dir"),
}
BAD_VALUE_CASES = [
    pytest.param(command, key, value, id=f"{command}.{key}={value!r}")
    for command, keys in PATH_KEYS.items()
    for key in keys
    # an empty input path names the config's directory, not a file
    for value in (5, None, True) + (() if key == "output_dir" else ("",))
] + [
    pytest.param("probe", "probe.prompt", None, id="probe.prompt=None"),
    pytest.param("probe", "probe.valid_tokens", [5], id="probe.valid_tokens=[5]"),
    pytest.param("probe", "probe.valid_tokens", "ab", id="probe.valid_tokens='ab'"),
]


@pytest.mark.parametrize("command, key, value", BAD_VALUE_CASES)
def test_mistyped_path_or_probe_value_is_usage_error(tmp_path, capsys, command, key, value):
    cfg = CONFIG_WRITERS[command](tmp_path)
    data = json.loads(cfg.read_text())
    *parents, last = key.split(".")
    node = data
    for part in parents:
        node = node[part]
    node[last] = value
    cfg.write_text(json.dumps(data))
    assert main([command, str(cfg)]) == 2
    assert "error" in capsys.readouterr().err
    assert [p for p in tmp_path.iterdir() if p.is_dir()] == []


# ----------------------------------------------------- typed config fields ----

# every field of the four config records, by section and config-file key
RECORD_FIELDS = {
    "objective": {"name": str, "gamma": float, "beta": float | None, "lambda": float, "alpha": float},
    "model": {"context": int, "embed_dim": int, "hidden_dim": int, "vocab": str | None},
    "train": {
        "learning_rate": float, "warmup_steps": int, "total_steps": int, "weight_decay": float,
        "batch_size": int, "seed": int, "momentum": float,
    },
    "sampling": {"top_p": float, "temperature": float, "max_tokens": int, "seed": int},
}


def bad_values(kind):
    values = [True, float("nan")]
    if kind in (str, int, float):  # not optional
        values.append(None)
    if kind in (str, str | None):
        values.append(5)
    else:
        values.append("0.5")
    if kind is int:
        values.append(2.7)
    return values


# values of the right type that the record's own check rejects
OUT_OF_RANGE_FIELDS = [("model", "vocab", "abcdd"), ("train", "seed", -1)]

MISTYPED_FIELDS = [
    (section, key, value)
    for section, keys in RECORD_FIELDS.items()
    for key, kind in keys.items()
    for value in bad_values(kind)
]
BAD_FIELD_CASES = [
    pytest.param(section, key, value, id=f"{section}.{key}={value!r}")
    for section, key, value in MISTYPED_FIELDS + OUT_OF_RANGE_FIELDS
]


@pytest.mark.parametrize("section, key, value", BAD_FIELD_CASES)
def test_mistyped_config_field_is_usage_error(tmp_path, section, key, value):
    base = {"objective": {"name": "ce"}, "model": {}, "train": {}, "sampling": {}}[section]
    data = {**base, key: value}
    parse = {
        "objective": parse_objective,
        "model": parse_model,
        "train": lambda d: parse_train(d, LossConfig("ce")),
        "sampling": parse_sampling,
    }[section]
    with pytest.raises(ConfigError):
        parse(data)
    cfg = write_experiment(tmp_path, **{section: {**(TRAIN if section == "train" else {}), **data}})
    assert main(["train", str(cfg)]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"metrics": ["self_bleu"], "samples_per_prompt": 1}, {"metrics": ["entropy", "coverage"]}],
)
def test_sweep_cli_unsupported_eval_request_is_usage_error(tmp_path, overrides):
    spec = write_sweep(tmp_path, **overrides)  # write_prompts gives no answers
    assert main(["sweep", str(spec)]) == 2
    assert not (tmp_path / "sweep").exists()


def test_eval_repeated_metric_is_reported_once(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    out = tmp_path / "ev"
    args = ["eval", str(ckpt), str(prompts), "--out", str(out), "--samples", "2", "--max-tokens", "4"]
    assert main([*args, "--metrics", "entropy,distinct_1,entropy"]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = [(r[0], r[1]) for r in csv.reader(fh)][1:]
    assert len(rows) == len(set(rows))
    assert {metric for metric, _ in rows} == {"entropy", "distinct_1"}
    run = json.loads((out / "run.json").read_text())
    assert run["invocation"]["metrics"] == ["entropy", "distinct_1"]


def test_eval_sampling_flags_are_checked_as_config_fields(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    base = ["eval", str(ckpt), str(prompts), "--out", str(tmp_path / "ev")]
    assert main([*base, "--temperature", "inf"]) == 2
    assert main([*base, "--top-p", "nan"]) == 2
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize(
    "metrics, patch",
    [("entropy,distinct_2", False), ("coverage", True)],
    ids=["undefined_metric", "coverage_disagreement"],
)
def test_eval_failing_to_score_writes_no_file(tmp_path, monkeypatch, metrics, patch):
    # every report is computed before the first file is written, so a metric
    # that cannot be scored leaves no generations.jsonl that reads as a run
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl", with_answers=True)
    if patch:
        monkeypatch.setattr(harness, "coverage_and_mean", lambda matrix: (0.25, 0.125))
    out = tmp_path / "ev"
    code = main(["eval", str(ckpt), str(prompts), "--out", str(out), "--metrics", metrics,
                 "--samples", "3", "--max-tokens", "6"])
    assert code == 1
    assert not out.exists() or [p for p in out.rglob("*") if p.is_file()] == []


# ---------------------------------------------------------- sweep workers ----


def count_parses(monkeypatch, log: Path):
    """Append the path of each later Corpus.load_jsonl call to `log`, a file
    so that the parses of forked sweep workers count too."""
    real = Corpus.load_jsonl

    def counted(cls, path, data=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{path}\n")
        return real(path, data)

    monkeypatch.setattr(Corpus, "load_jsonl", classmethod(counted))


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_parses_its_corpus_once(tmp_path, monkeypatch, workers):
    # 2 gammas x 2 seeds: four tasks train on the parse load_sweep_spec made
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched parser reaches workers only by fork")
    count_parses(monkeypatch, tmp_path / "parses.log")
    assert main(["sweep", str(write_sweep(tmp_path, workers=workers))]) == 0
    assert (tmp_path / "parses.log").read_text().splitlines() == [str(tmp_path / "corpus.jsonl")]


@pytest.mark.parametrize("vocab", [None, "abcd"])
def test_train_parses_its_corpus_once(tmp_path, monkeypatch, vocab):
    count_parses(monkeypatch, tmp_path / "parses.log")
    assert main(["train", str(write_experiment(tmp_path, model={**MODEL, "vocab": vocab}))]) == 0
    assert (tmp_path / "parses.log").read_text().splitlines() == [str(tmp_path / "corpus.jsonl")]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_parsed_corpus_is_not_a_config_key(tmp_path, capsys, command):
    write = write_experiment if command == "train" else write_sweep
    assert main([command, str(write(tmp_path, parsed_corpus="corpus.jsonl"))]) == 2
    assert "parsed_corpus" in capsys.readouterr().err


def test_sweep_workers_write_the_same_summary(tmp_path):
    summaries = []
    for workers in (1, 2):
        spec = write_sweep(tmp_path, workers=workers, output_dir=str(tmp_path / f"w{workers}"))
        assert main(["sweep", str(spec)]) == 0
        summaries.append((tmp_path / f"w{workers}" / "sweep_summary.csv").read_bytes())
    assert summaries[0] == summaries[1]


def test_sweep_pool_opens_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # 1 cell x 2 seeds is 2 tasks, so workers 8 opens a pool of 2: a forking
    # pool starts every worker it is given at once
    real, opened = harness.ProcessPoolExecutor, []

    def recording(max_workers, **kwargs):
        opened.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recording)
    summaries = []
    for workers in (8, 1):
        spec = write_sweep(tmp_path, gammas=[3.0], workers=workers, output_dir=str(tmp_path / f"w{workers}"))
        assert main(["sweep", str(spec)]) == 0
        summaries.append((tmp_path / f"w{workers}" / "sweep_summary.csv").read_bytes())
    assert opened == [2]
    assert summaries[0] == summaries[1]


def test_forked_sweep_workers_above_the_helper_floor_write_the_same_files(tmp_path, monkeypatch):
    # batch 8 of about 11 rows at c8 d32 h128 is 2.9M multiply-adds a step,
    # above the floor, so every train call opens a helper thread. The
    # workers=1 sweep trains in this process first; the workers=2 sweep then
    # forks it, and a worker that inherited a helper thread (which a fork does
    # not copy) would wait on it forever
    spec = write_sweep(tmp_path, model={"context": 8, "embed_dim": 32, "hidden_dim": 128},
                       train={**TRAIN, "total_steps": 4, "warmup_steps": 1, "batch_size": 8})
    rng = np.random.default_rng(0)
    rows = [{"prompt": "ab", "response": "".join(rng.choice(list("abcd"), n))} for n in range(7, 15)]
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    helpers = []
    real = training.ThreadPoolExecutor
    monkeypatch.setattr(training, "ThreadPoolExecutor", lambda **kwargs: helpers.append(kwargs) or real(**kwargs))
    outs = {}
    for workers in (1, 2):
        outs[workers] = tmp_path / f"w{workers}"
        sweep = replace(load_sweep_spec(spec), workers=workers, output_dir=outs[workers])
        runner = threading.Thread(target=harness.run_sweep, args=(sweep,), daemon=True)
        runner.start()
        runner.join(timeout=120)
        if runner.is_alive():  # end the hung workers, so that the pool and this test can end
            for child in multiprocessing.active_children():
                child.kill()
            runner.join(timeout=30)
            pytest.fail(f"workers={workers} sweep did not finish")
        if workers == 1:
            assert len(helpers) == 4  # 2 cells x 2 seeds, each with its helper
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert len(files) == 2 + 4 * 6  # summary and run.json, then each task's three train and three eval files
    assert files == sorted(p.relative_to(outs[2]) for p in outs[2].rglob("*") if p.is_file())
    for name in files:
        a, b = outs[1] / name, outs[2] / name
        if name.name == "run.json":  # the same but for the clock and the paths, which name the output directory
            assert strip_paths(a) == strip_paths(b), name
        else:
            assert a.read_bytes() == b.read_bytes(), name


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched run_train reaches workers only by fork"
)
def test_sweep_worker_crash_keeps_finished_cells(tmp_path, capsys, monkeypatch):
    # a worker that dies breaks the pool: its task, and any task still pending
    # then, is a recorded failure; every finished cell keeps its values
    real_train = harness.run_train

    def dies_on_one_task(cfg, out_dir=None):
        if cfg.train.objective.gamma == 3.0 and cfg.train.seed == 1:
            os._exit(1)
        return real_train(cfg, out_dir)

    monkeypatch.setattr(harness, "run_train", dies_on_one_task)
    spec = write_sweep(tmp_path, workers=2)
    assert main(["sweep", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "cell tofu_g3_b0.7 seed 1 failed: BrokenProcessPool" in err
    failed = {(line.split()[1], int(line.split()[3])) for line in err.splitlines() if line.startswith("cell ")}

    out = tmp_path / "sweep"
    summary = read_summary(out / "sweep_summary.csv")
    for label in ("tofu_g1_b0.7", "tofu_g3_b0.7"):
        for seed in (0, 1):
            for metric in ("final_loss", "self_bleu", "entropy"):
                assert (summary[(metric, str(seed))][label] == "") == ((label, seed) in failed)
    run = json.loads((out / "run.json").read_text())
    assert run["status"] == f"{len(failed)} cell(s) failed"


# ------------------------------------------------------------ run records ----


def write_probe_inputs(d):
    write_corpus(d / "pre.jsonl")
    write_corpus(d / "sft.jsonl")
    short = {"total_steps": 2, "warmup_steps": 1, "batch_size": 2}
    payload = {
        "pretrain": {"corpus": "pre.jsonl", "train": short},
        "sft": {"corpus": "sft.jsonl", "train": short, "objectives": [{"name": "tofu"}]},
        "model": MODEL,
        "probe": {"prompt": "a", "valid_tokens": ["a", "b"]},
        "seeds": [0],
        "output_dir": "out",
    }
    (d / "probe.json").write_text(json.dumps(payload))


def write_eval_inputs(d):
    shutil.copy(trained_checkpoint(d), d / "checkpoint.bin")
    write_prompts(d / "prompts.jsonl")


# command: (write its inputs and config into a directory, its arguments there,
# the keys of its invocation, its inputs by name and file, a row to add to the last)
RUNS = {
    "train": (
        lambda d: write_experiment(d, "cfg", output_dir="out"),
        lambda d: ["train", str(d / "cfg.json")],
        {"train", "model"},
        {"corpus": "corpus.jsonl"},
        {"prompt": "a", "response": "b"},
    ),
    "eval": (
        write_eval_inputs,
        lambda d: ["eval", str(d / "checkpoint.bin"), str(d / "prompts.jsonl"), "--out", "out", "--samples", "3",
                   "--max-tokens", "6", "--top-p", "0.5", "--metrics", "self_bleu,entropy"],
        {"sampling", "samples", "metrics"},
        {"checkpoint": "checkpoint.bin", "prompts": "prompts.jsonl"},
        {"id": "p2", "prompt": "a"},
    ),
    "sweep": (
        lambda d: write_sweep(d, gammas=[3.0], seeds=[0], output_dir="out"),
        lambda d: ["sweep", str(d / "sweep.json")],
        {"objectives", "gammas", "betas", "seeds", "train", "model", "sampling", "samples_per_prompt", "metrics",
         "cells", "aliases"},
        {"prompts": "prompts.jsonl", "corpus": "corpus.jsonl"},
        {"prompt": "a", "response": "b"},
    ),
    "probe": (
        write_probe_inputs,
        lambda d: ["probe", str(d / "probe.json")],
        {"pretrain", "sft", "objectives", "model", "prompt", "valid_tokens", "seeds"},
        {"pretrain_corpus": "pre.jsonl", "sft_corpus": "sft.jsonl"},
        {"prompt": "a", "response": "b"},
    ),
}


@pytest.mark.parametrize("command", RUNS)
def test_run_hash_is_the_recorded_invocation_and_input_contents(tmp_path, monkeypatch, command):
    write_inputs, args, keys, inputs, row = RUNS[command]

    def record(d):
        monkeypatch.setenv("SFTLAB_OUT_ROOT", str(d))
        assert main(args(d)) == 0
        return json.loads((d / "out" / "run.json").read_text())

    first, copy = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    write_inputs(first)
    shutil.copytree(first, copy)
    run = record(first)
    assert set(run["invocation"]) == keys
    assert {name: Path(entry["path"]) for name, entry in run["inputs"].items()} == {
        name: first / file for name, file in inputs.items()
    }
    for entry in run["inputs"].values():
        assert entry["sha256"] == content_hash(entry["path"])
    # the hash is recomputed from what run.json shows, and no path enters it
    digests = {name: entry["sha256"] for name, entry in run["inputs"].items()}
    assert run["config_hash"] == config_hash({"invocation": run["invocation"], "inputs": digests})

    copied = record(copy)
    assert copied["inputs"] != run["inputs"]
    assert copied["config_hash"] == run["config_hash"]
    with open(copy / list(inputs.values())[-1], "a") as fh:
        fh.write(json.dumps(row) + "\n")
    assert record(copy)["config_hash"] != run["config_hash"]


def test_eval_run_records_the_bytes_it_parsed(tmp_path, monkeypatch):
    # both inputs are rewritten while the eval decodes: run.json must name
    # the bytes the eval parsed, not what the files hold when it is written
    import sftlab.sampling

    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    parsed = {"checkpoint": content_hash(ckpt), "prompts": content_hash(prompts)}
    decode = sftlab.sampling.nucleus_decode
    decodes = []

    def rewrites_inputs(*args):
        decodes.append(args)
        if len(decodes) == 1:
            with open(prompts, "a") as fh:
                fh.write(json.dumps({"id": "p2", "prompt": "a"}) + "\n")
            ckpt.write_bytes(ckpt.read_bytes()[:-8])
        return decode(*args)

    monkeypatch.setattr(sftlab.sampling, "nucleus_decode", rewrites_inputs)
    out = tmp_path / "ev"
    assert main(["eval", str(ckpt), str(prompts), "--out", str(out), "--samples", "2", "--max-tokens", "4",
                 "--metrics", "entropy"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert {name: entry["sha256"] for name, entry in run["inputs"].items()} == parsed
    assert content_hash(prompts) != parsed["prompts"] and content_hash(ckpt) != parsed["checkpoint"]
    assert len(decodes) == 1  # every prompt's completions in one lockstep


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_train_and_sweep_record_the_corpus_bytes_they_parsed(tmp_path, command):
    # the corpus changes between the config load, whose parse the runs train
    # on, and the records: every run.json must name the bytes that were parsed
    if command == "train":
        cfg = load_experiment_config(write_experiment(tmp_path, output_dir=str(tmp_path / "out")))
        run, records = harness.run_train, ["out/run.json"]
    else:
        cfg = load_sweep_spec(write_sweep(tmp_path, gammas=[3.0], output_dir=str(tmp_path / "out")))
        run, records = harness.run_sweep, ["out/run.json", "out/tofu_g3_b0.7/seed_0/run.json",
                                           "out/tofu_g3_b0.7/seed_1/run.json"]
    parsed = content_hash(tmp_path / "corpus.jsonl")
    with open(tmp_path / "corpus.jsonl", "a") as fh:
        fh.write(json.dumps({"prompt": "a", "response": "b"}) + "\n")
    run(cfg)
    for name in records:
        assert json.loads((tmp_path / name).read_text())["inputs"]["corpus"]["sha256"] == parsed, name
    assert content_hash(tmp_path / "corpus.jsonl") != parsed


def test_sweep_cells_evaluate_on_the_prompts_it_parsed(tmp_path, monkeypatch):
    # the prompts file gains a prompt before every cell trains: each cell
    # evaluates the load's parse, and every run.json names the bytes parsed
    spec = load_sweep_spec(write_sweep(tmp_path, output_dir=str(tmp_path / "out")))
    prompts = tmp_path / "prompts.jsonl"
    parsed = content_hash(prompts)
    real_train, edits = harness.train, []

    def edits_the_prompts(model, corpus, cfg):
        edits.append(cfg)
        with open(prompts, "a") as fh:
            fh.write(json.dumps({"id": f"added{len(edits)}", "prompt": "a"}) + "\n")
        return real_train(model, corpus, cfg)

    monkeypatch.setattr(harness, "train", edits_the_prompts)
    assert harness.run_sweep(spec)["failures"] == []
    assert len(edits) == 4 and content_hash(prompts) != parsed
    evals = sorted((tmp_path / "out").glob("*/seed_*/eval"))
    assert len(evals) == 4
    for eval_dir in evals:
        rows = [json.loads(line) for line in (eval_dir / "generations.jsonl").read_text().splitlines()]
        assert {row["prompt_id"] for row in rows} == {"p0", "p1"}, eval_dir
        assert json.loads((eval_dir / "run.json").read_text())["inputs"]["prompts"]["sha256"] == parsed, eval_dir
    assert json.loads((tmp_path / "out" / "run.json").read_text())["inputs"]["prompts"]["sha256"] == parsed


def count_encodes(monkeypatch, log: Path):
    """Append the process id of each later corpus encoding to `log`, a file
    so that the encodings of forked sweep workers count too."""
    real = EncodedCorpus.concat.__func__

    def counted(cls, encoded):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(cls, encoded)

    monkeypatch.setattr(EncodedCorpus, "concat", classmethod(counted))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched encoder reaches workers only by fork"
)
def test_sweep_workers_encode_the_corpus_once_each(tmp_path, monkeypatch):
    # 2 gammas x 2 seeds on 2 workers: each worker gets the spec once, so its
    # tasks share one parsed corpus and its one encoding
    count_parses(monkeypatch, tmp_path / "parses.log")
    count_encodes(monkeypatch, tmp_path / "encodes.log")
    assert main(["sweep", str(write_sweep(tmp_path, workers=2))]) == 0
    pids = (tmp_path / "encodes.log").read_text().splitlines()
    assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids) and str(os.getpid()) not in pids
    assert (tmp_path / "parses.log").read_text().splitlines() == [str(tmp_path / "corpus.jsonl")]


def test_probe_records_the_corpus_bytes_it_parsed(tmp_path, monkeypatch):
    # the SFT corpus changes after the first training run: the probe trains
    # every branch on the load's parse, and run.json names those bytes
    monkeypatch.setenv("SFTLAB_OUT_ROOT", str(tmp_path))
    write_probe_inputs(tmp_path)
    spec = load_probe_spec(tmp_path / "probe.json")
    parsed = {"pretrain_corpus": content_hash(tmp_path / "pre.jsonl"), "sft_corpus": content_hash(tmp_path / "sft.jsonl")}
    real_train, corpora = harness.train, []

    def edits_the_sft_corpus(model, corpus, cfg):
        with open(tmp_path / "sft.jsonl", "a") as fh:
            fh.write(json.dumps({"prompt": "a", "response": "b"}) + "\n")
        corpora.append(corpus)
        return real_train(model, corpus, cfg)

    monkeypatch.setattr(harness, "train", edits_the_sft_corpus)
    harness.run_probe(spec)
    run = json.loads((spec.output_dir / "run.json").read_text())
    assert {name: entry["sha256"] for name, entry in run["inputs"].items()} == parsed
    assert content_hash(tmp_path / "sft.jsonl") != parsed["sft_corpus"]
    assert len(corpora) == 2
    assert corpora[0] is spec.pretrain_corpus.parsed and corpora[1] is spec.sft_corpus.parsed


def test_eval_run_records_its_sampling_config(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    prompts = write_prompts(tmp_path / "prompts.jsonl")
    out = tmp_path / "ev"
    assert main(["eval", str(ckpt), str(prompts), "--out", str(out), "--samples", "2", "--max-tokens", "5",
                 "--top-p", "0.5", "--metrics", "entropy"]) == 0
    sampling = json.loads((out / "run.json").read_text())["invocation"]["sampling"]
    assert sampling["top_p"] == 0.5 and sampling["max_tokens"] == 5


@pytest.mark.parametrize("command", ["sweep", "probe"])
def test_sweep_and_probe_records_hold_no_per_run_fields(tmp_path, monkeypatch, command):
    # each cell's objective comes from the grid or the SFT objectives and each
    # seed from `seeds`, so the shared configs' own values are not shown
    write_inputs, args, _, _, _ = RUNS[command]
    monkeypatch.setenv("SFTLAB_OUT_ROOT", str(tmp_path))
    write_inputs(tmp_path)
    assert main(args(tmp_path)) == 0
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    per_run = {"sweep": {"train": {"objective", "seed"}},
               "probe": {"sft": {"objective", "seed"}, "pretrain": {"seed"}}}[command]
    for key, dropped in per_run.items():
        shown = run["invocation"][key]
        assert not dropped & set(shown), key
        assert set(shown) | dropped == set(parse_train({}, LossConfig("ce"), key).to_dict())
    if command == "sweep":
        assert set(run["invocation"]["sampling"]) == set(asdict(parse_sampling({}))) - {"seed"}
    if command == "probe":  # pretraining runs its configured objective
        assert run["invocation"]["pretrain"]["objective"] == LossConfig("ce").to_dict()
    digests = {name: entry["sha256"] for name, entry in run["inputs"].items()}
    assert run["config_hash"] == config_hash({"invocation": run["invocation"], "inputs": digests})


def test_run_record_names_the_kernels_it_ran_on(tmp_path):
    # forcing other kernels in a fresh process changes the kernels entry:
    # numpy at its first dispatch target, and on x86-64 OpenBLAS at the
    # Prescott core, which every x86-64 CPU runs (OpenBLAS names it Katmai)
    probe = "import json; from sftlab.harness import _run_environment; print(json.dumps(_run_environment()['kernels']))"

    def kernels(**env):
        src = str(Path(harness.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src, **env})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    detected = kernels()
    assert detected == harness._run_environment()["kernels"]
    if detected["numpy_dispatch"]:
        first = detected["numpy_dispatch"][0]
        assert kernels(NPY_DISABLE_CPU_FEATURES=" ".join(detected["numpy_dispatch"][1:]))["numpy_dispatch"] == [first]
    if detected["openblas_core"] is not None and platform.machine() in ("x86_64", "AMD64"):
        assert kernels(OPENBLAS_CORETYPE="Prescott")["openblas_core"] not in (None, detected["openblas_core"])


@pytest.mark.parametrize("command", RUNS)
def test_run_record_environment_is_outside_the_hash(tmp_path, monkeypatch, command):
    write_inputs, args, _, _, _ = RUNS[command]
    records = []
    for threads in ("1", "2"):
        d = tmp_path / threads
        d.mkdir()
        write_inputs(d)
        monkeypatch.setenv("SFTLAB_OUT_ROOT", str(d))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert main(args(d)) == 0
        records.append(json.loads((d / "out" / "run.json").read_text()))
    first, second = (r["environment"] for r in records)
    assert set(first) == {"python", "numpy", "blas", "kernels", "threads"}
    assert set(first["kernels"]) == {"openblas_core", "numpy_dispatch"}
    assert first["numpy"] == np.__version__
    assert set(first["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert (first["threads"]["OPENBLAS_NUM_THREADS"], second["threads"]["OPENBLAS_NUM_THREADS"]) == ("1", "2")
    assert records[0]["config_hash"] == records[1]["config_hash"]
