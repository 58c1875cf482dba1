"""tools/ab.py, the in-process A/B of one benchmark op between two checkouts."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sftlab.losses import OBJECTIVES

ROOT = Path(__file__).resolve().parent.parent


def ab(parent: Path, change: Path, op: str):
    """(exit code, JSON lines printed) of one pair of runs of op."""
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), str(parent), str(change), "--op", op, "--pairs", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize(
    "op, lines",
    [
        ("train:ce", {"train:ce": "train_steps_per_s.ce"}),
        ("train", {**{f"train:{o}": f"train_steps_per_s.{o}" for o in OBJECTIVES}, "train": "train_steps_per_s"}),
        ("eval", {"eval": "eval_tokens_per_s"}),
        ("gradcheck", {"gradcheck": "gradcheck_trials_per_s"}),
        ("sweep", {"sweep": "sweep_s"}),
    ],
)
def test_one_checkout_against_itself_passes_every_check(op, lines):
    code, printed = ab(ROOT, ROOT, op)
    assert code == 0, printed
    assert set(printed[0]) == {"threads", "kernels"}
    assert {line["op"]: line["metric"] for line in printed[1:]} == lines
    assert all(line["pairs"] == 1 and line["parent"] > 0 and line["change"] > 0 for line in printed[1:])


def test_a_change_to_the_trained_bits_fails_naming_the_op(tmp_path):
    """np.sum adds pairwise where training.left_sum adds left to right, so the
    loss trace, and with it the train op's digest, changes."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    training = tmp_path / "src" / "sftlab" / "training.py"
    left_sum = "return 0.0 + float(np.add.accumulate(terms)[-1])"
    assert left_sum in training.read_text()
    training.write_text(training.read_text().replace(left_sum, "return float(np.sum(terms))"))
    code, printed = ab(ROOT, tmp_path, "train:ce")
    assert code == 1
    assert printed[-1] == {"op": "train:ce", "error": "the sides differ in ['first_digest']"}


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_pairs_below_one_is_a_usage_error_before_any_setup(pairs):
    # with no pair to summarise, the run would end in an IndexError after its whole setup
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--op", "eval", "--pairs", pairs]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"--pairs must be >= 1, got {pairs}" in proc.stderr
    assert proc.stdout == ""


def test_summary_gives_each_sides_quartiles_next_to_its_median(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # ab.py pins them at import; undone after the test
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = {
        "parent": [({"m": v}, 1.0 / v) for v in (4.0, 1.0, 3.0, 2.0, 5.0)],
        "change": [({"m": v}, 1.0 / v) for v in (8.0, 6.0, 7.0, 10.0, 9.0)],
    }
    got = tool.summary("gradcheck", runs)
    assert list(got)[2:6] == ["parent", "parent_quartiles", "change", "change_quartiles"]
    assert (got["parent"], got["parent_quartiles"]) == (3.0, [2.0, 4.0])
    assert (got["change"], got["change_quartiles"]) == (8.0, [7.0, 9.0])
    assert got["change_wins"] == 5 and got["pairs"] == 5
    one = tool.summary("gradcheck", {side: pairs[:1] for side, pairs in runs.items()})
    assert one["parent_quartiles"] == [4.0, 4.0] and one["change_quartiles"] == [8.0, 8.0]
