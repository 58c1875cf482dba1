"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each criterion is a single test so `pytest -v` prints one pass/fail line per
claim. Timed criteria assert their wall-clock budgets.
"""

import csv
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from bleu_oracle import oracle_self_bleu
from kernel_record import kernels_note
from sftlab.cli import main
from sftlab.config import load_probe_spec
from sftlab.gradcheck import (
    FiniteDiffSpec,
    verify_entropy_bounded,
    verify_finite_difference,
    verify_focal_scaling,
    verify_gem_equivalence,
    verify_tofu_scaling,
)
from sftlab.harness import run_curves, run_probe
from sftlab.losses import (
    OBJECTIVES,
    LossConfig,
    PrConfig,
    Target,
    focal_scaling,
    pr_weight,
    token_loss,
)
from sftlab.metrics import (
    GenerationSet,
    coverage_and_mean,
    extract_boxed_answer,
    self_bleu,
)
from sftlab.model import ToyModel, Vocab, backward_batch, forward_batch
from sftlab.training import synth_diversity_corpus

TRIALS = 1000
DATA = Path(__file__).parent / "data"


def test_criterion_01_gem_gradient_equals_scaled_ce_and_matches_fd():
    started = time.monotonic()
    report = verify_gem_equivalence(trials=TRIALS, seed=0)
    elapsed = time.monotonic() - started
    assert report.passed
    assert report.tolerance == 1e-12
    assert report.max_rel_error <= 1e-12
    assert report.fd_tolerance == 1e-5
    assert report.fd_max_rel_error <= 1e-5
    assert elapsed < 10.0
    print(f"criterion 1 PASS: identity {report.max_rel_error:.2e} <= 1e-12, "
          f"fd {report.fd_max_rel_error:.2e} <= 1e-5, {elapsed:.1f}s")


def test_criterion_02_focal_proportionality_and_soft_target_witness():
    started = time.monotonic()
    report = verify_focal_scaling(trials=TRIALS, seed=0)
    elapsed = time.monotonic() - started
    assert report.passed
    assert report.tolerance == 1e-10
    assert report.max_rel_error <= 1e-10
    assert report.extras["witness_found"]
    assert report.extras["max_ratio_spread"] > 1e-3
    assert elapsed < 10.0
    print(f"criterion 2 PASS: proportionality {report.max_rel_error:.2e} <= 1e-10, "
          f"soft ratio spread {report.extras['max_ratio_spread']:.2e} > 1e-3, {elapsed:.1f}s")


def test_criterion_03_tofu_and_naive_identities_with_distinct_gradients():
    started = time.monotonic()
    report = verify_tofu_scaling(trials=TRIALS, seed=0)
    elapsed = time.monotonic() - started
    assert report.passed
    assert report.max_rel_error <= 1e-12
    assert report.extras["equal_gradient_violations"] == 0
    assert report.extras["eligible_trials"] >= TRIALS // 5
    assert elapsed < 10.0
    print(f"criterion 3 PASS: identities {report.max_rel_error:.2e} <= 1e-12, "
          f"{report.extras['eligible_trials']} eligible trials all distinct, {elapsed:.1f}s")


def test_criterion_04_entropy_gradient_bounded_to_1e_300():
    report = verify_entropy_bounded()
    assert report.passed
    assert report.extras["all_finite"]
    assert report.extras["monotone"]
    assert report.extras["min_prob_floor"] == 1e-300
    assert report.max_rel_error < 1e-8  # final vanishing-component magnitude
    print(f"criterion 4 PASS: gradient finite and monotone down to 1e-300, "
          f"final magnitude {report.max_rel_error:.2e} < 1e-8")


def test_criterion_05_finite_differences_all_objectives_and_composite():
    report = verify_finite_difference(trials=300, seed=0)
    assert report.passed
    assert set(report.extras["per_objective"]) == set(OBJECTIVES)
    for name, worst in report.extras["per_objective"].items():
        assert worst <= 1e-5, f"{name}: {worst}"

    # composite model-space check: backprop through the toy LM against central
    # differences on sampled parameter entries
    vocab = Vocab("abc")
    model = ToyModel.init(vocab, context=3, embed_dim=4, hidden_dim=6, seed=11)
    contexts = np.array([[1, 2, 3], [0, 1, 2]])
    rng = np.random.default_rng(7)
    h = 1e-5
    checks = 0
    for cfg in (LossConfig("ce"), LossConfig("tofu", gamma=3.0, beta=0.8)):
        frozen = _frozen_factors(model, contexts, (1, 2), cfg)

        def total_loss(m):
            logits, _ = forward_batch(m, contexts)
            return sum(
                _frozen_token_value(logits[i], t, cfg, frozen[i])
                for i, t in enumerate((1, 2))
            )

        logits, cache = forward_batch(model, contexts)
        dlogits = np.stack(
            [token_loss(logits[i], Target.one_hot(t), cfg).grad for i, t in enumerate((1, 2))]
        )
        grads = backward_batch(model, cache, dlogits)
        for name, param in model.named_params():
            grad = getattr(grads, name)
            flat = param.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                probe = model.copy()
                target = getattr(probe, name).reshape(-1)
                target[idx] += h
                up = total_loss(probe)
                target[idx] -= 2 * h
                down = total_loss(probe)
                fd = (up - down) / (2 * h)
                g = grad.reshape(-1)[idx]
                assert abs(fd - g) <= 1e-4 * max(abs(g), 1e-3), (cfg.objective, name, idx)
                checks += 1
    assert checks >= 25
    print(f"criterion 5 PASS: per-objective fd within 1e-5, "
          f"{checks} composite parameter derivatives within 1e-4")


def _frozen_factors(model, contexts, targets, cfg):
    logits, _ = forward_batch(model, contexts)
    out = []
    for i, t in enumerate(targets):
        if cfg.objective == "tofu":
            from sftlab.numerics import log_softmax

            p_hat = float(np.exp(log_softmax(logits[i]))[t])
            out.append(focal_scaling(p_hat, cfg.gamma))
        else:
            out.append(None)
    return out


def _frozen_token_value(z, t, cfg, g0):
    from sftlab.numerics import log_softmax, tempered_log_softmax

    if cfg.objective == "tofu":
        beta = cfg.resolved_beta()
        lb = tempered_log_softmax(log_softmax(z), beta)
        return float(-g0 * beta * lb[t])
    return token_loss(z, Target.one_hot(t), cfg).value


def test_criterion_06_weighting_curve_limits(tmp_path):
    p_grid = np.geomspace(1e-6, 1.0, 512)
    for gamma in (1.0, 2.0, 3.0, 5.0):
        assert focal_scaling(1.0, gamma) == 0.0
        assert np.max(focal_scaling(p_grid, gamma)) > 1.0  # interior spike
    assert np.all(focal_scaling(p_grid, 0.0) == 1.0)
    for p in p_grid:
        w = pr_weight(float(p), PrConfig(1.0, 1.0, 1, 1))
        assert abs(w - p) <= 1e-12
    # the emitted curve artifact carries the same endpoints
    path = run_curves(tmp_path / "curves.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    assert float(last["p"]) == 1.0
    for gamma in (1, 2, 3, 5):
        assert float(last[f"g_gamma{gamma}"]) == 0.0
    assert float(last["w_1_1"]) == 1.0
    print("criterion 6 PASS: g(1,gamma)=0, g(p,0)=1, interior max > 1, "
          "identity weight curve exact within 1e-12")


def test_criterion_07_skewed_sft_keeps_entropy_without_tail_leak(tmp_path):
    started = time.monotonic()
    pre_table = {"q": {**{c: 0.18 for c in "abcde"}, **{c: 0.1 / 3 for c in "fgh"}}}
    skew = {"q": {"a": 0.6, "b": 0.2, "c": 0.1, "d": 0.06, "e": 0.04}}
    pre, _ = synth_diversity_corpus(pre_table, 600, seed=123)
    sft, _ = synth_diversity_corpus(skew, 600, seed=456)
    pre.save_jsonl(tmp_path / "pre.jsonl")
    sft.save_jsonl(tmp_path / "sft.jsonl")
    shared_train = {
        "total_steps": 300,
        "warmup_steps": 20,
        "learning_rate": 0.3,
        "batch_size": 8,
        "weight_decay": 0.0,
    }
    payload = {
        "pretrain": {"corpus": "pre.jsonl", "train": dict(shared_train)},
        "sft": {
            "corpus": "sft.jsonl",
            "train": dict(shared_train),  # matched steps and lr across objectives
            "objectives": [{"name": "ce"}, {"name": "tofu", "gamma": 3.0, "beta": 0.8}],
        },
        "model": {"context": 4, "embed_dim": 16, "hidden_dim": 32},
        "probe": {"prompt": "q", "valid_tokens": list("abcde")},
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "probe.json").write_text(json.dumps(payload))
    verdict = run_probe(load_probe_spec(tmp_path / "probe.json"))
    elapsed = time.monotonic() - started

    summary = verdict["summary"]
    comparison = verdict["vs_ce"]["tofu"]
    assert summary["pretrained"]["median_entropy"] > 1.5  # broad start, ln 5 = 1.609
    assert comparison["median_entropy_exceeds_ce"]
    assert all(comparison["argmax_matches_ce_per_seed"])
    assert comparison["tail_within_pretrained_budget"]
    assert elapsed < 300.0
    print(f"criterion 7 PASS: entropy tofu {summary['tofu']['median_entropy']:.3f} > "
          f"ce {summary['ce']['median_entropy']:.3f}, argmax agrees on 5 seeds, "
          f"tail {summary['tofu']['median_tail_mass']:.4f} <= "
          f"1.10 x {summary['pretrained']['median_tail_mass']:.4f}, {elapsed:.1f}s")


def test_criterion_07_verdict_matches_golden(tmp_path):
    """Criterion 7's verdict.json, byte for byte, as
    tests/data/golden_probe_verdict.json pins it: criterion 7 asserts
    inequalities only, so a change to any field of the verdict shows here.
    The fixture is the verdict.json criterion 7's run writes; rewrite it from
    that run only when the probe is meant to change."""
    test_criterion_07_skewed_sft_keeps_entropy_without_tail_leak(tmp_path)
    got = (tmp_path / "out" / "verdict.json").read_bytes()
    assert got == (DATA / "golden_probe_verdict.json").read_bytes(), kernels_note()


def test_criterion_08_metric_suite_against_oracles():
    identical = GenerationSet("p", ("the same text again", "the same text again"))
    assert self_bleu(identical) == 100.0
    disjoint = GenerationSet("p", ("aaa bbb ccc", "ddd eee fff"))
    assert self_bleu(disjoint) <= 0.1

    words = ["a", "b", "c", "aa", "bb", "cab"]
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(20):
        k = rng.randint(2, 5)
        completions = tuple(
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 8))) for _ in range(k)
        )
        got = self_bleu(GenerationSet("p", completions))
        worst = max(worst, abs(got - oracle_self_bleu(completions)))
    assert worst <= 1e-9

    nprng = np.random.default_rng(31)
    equal_cases = 0
    for _ in range(100):
        shape = (int(nprng.integers(1, 8)), int(nprng.integers(1, 8)))
        success = nprng.random(shape) < nprng.random()
        cov, mean = coverage_and_mean(success)
        assert cov >= mean - 1e-15
        uniform_rows = all(row.all() or not row.any() for row in success)
        assert (cov == mean) == uniform_rows
        equal_cases += cov == mean
    assert 0 < equal_cases < 100

    assert extract_boxed_answer(r"\boxed{\frac{1}{2}}") == r"\frac{1}{2}"
    assert extract_boxed_answer(r"\boxed{ok} then \boxed{broken") == "ok"
    assert extract_boxed_answer("nothing") is None
    print(f"criterion 8 PASS: self-BLEU oracle gap {worst:.1e} <= 1e-9 over 20 sets, "
          f"coverage dominance on 100 matrices ({equal_cases} exact ties), "
          f"boxed extraction balanced")


def test_criterion_09_cli_reruns_are_byte_identical(tmp_path):
    corpus_rows = [
        {"prompt": "ab", "response": "cad"},
        {"prompt": "b", "response": "dab"},
        {"prompt": "", "response": "abc"},
    ]
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in corpus_rows)
    )
    (tmp_path / "prompts.jsonl").write_text(
        '{"id": "p0", "prompt": "ab"}\n{"id": "p1", "prompt": "b"}\n'
    )
    for tag in ("a", "b"):
        cfg = {
            "objective": {"name": "tofu", "gamma": 3.0, "beta": 0.8},
            "model": {"context": 4, "embed_dim": 8, "hidden_dim": 16},
            "train": {"total_steps": 25, "warmup_steps": 3, "batch_size": 2},
            "corpus": "corpus.jsonl",
            "output_dir": str(tmp_path / f"train_{tag}"),
        }
        (tmp_path / f"exp_{tag}.json").write_text(json.dumps(cfg))
        assert main(["train", str(tmp_path / f"exp_{tag}.json")]) == 0
        assert main([
            "eval", str(tmp_path / f"train_{tag}" / "checkpoint.bin"),
            str(tmp_path / "prompts.jsonl"), "--out", str(tmp_path / f"eval_{tag}"),
            "--samples", "4", "--max-tokens", "8",
            "--metrics", "self_bleu,distinct_1,entropy",
        ]) == 0
        assert main(["curves", str(tmp_path / f"curves_{tag}.csv")]) == 0

    pairs = [
        (tmp_path / "train_a" / "checkpoint.bin", tmp_path / "train_b" / "checkpoint.bin"),
        (tmp_path / "train_a" / "trace.csv", tmp_path / "train_b" / "trace.csv"),
        (tmp_path / "eval_a" / "generations.jsonl", tmp_path / "eval_b" / "generations.jsonl"),
        (tmp_path / "eval_a" / "metrics.csv", tmp_path / "eval_b" / "metrics.csv"),
        (tmp_path / "curves_a.csv", tmp_path / "curves_b.csv"),
    ]
    for first, second in pairs:
        assert first.read_bytes() == second.read_bytes(), first.name
    print("criterion 9 PASS: checkpoint, trace, generations, metrics, and curve "
          "outputs byte-identical across reruns")


def test_criterion_10_tofu_sweep_2x2_summary(tmp_path):
    corpus_rows = [
        {"prompt": "ab", "response": "cad"},
        {"prompt": "b", "response": "dab"},
        {"prompt": "", "response": "abc"},
        {"prompt": "ca", "response": "bd"},
    ]
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in corpus_rows)
    )
    (tmp_path / "prompts.jsonl").write_text(
        '{"id": "p0", "prompt": "ab"}\n{"id": "p1", "prompt": "b"}\n'
    )
    spec = {
        "objectives": ["tofu"],
        "gammas": [1.0, 3.0],
        "betas": [0.7, 0.9],
        "seeds": [0, 1],
        "model": {"context": 4, "embed_dim": 8, "hidden_dim": 16},
        "train": {"total_steps": 15, "warmup_steps": 2, "batch_size": 2},
        "sampling": {"max_tokens": 6},
        "corpus": "corpus.jsonl",
        "prompts": "prompts.jsonl",
        "samples_per_prompt": 3,
        "metrics": ["self_bleu", "entropy"],
        "output_dir": str(tmp_path / "sweep"),
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    assert main(["sweep", str(tmp_path / "sweep.json")]) == 0

    labels = ["tofu_g1_b0.7", "tofu_g1_b0.9", "tofu_g3_b0.7", "tofu_g3_b0.9"]
    with open(tmp_path / "sweep" / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "seed"] + labels
    by_metric = {}
    for row in rows[1:]:
        by_metric.setdefault(row[0], []).append(row)
        assert all(cell != "" for cell in row[2:])  # every cell filled
        for cell in row[2:]:
            float(cell)  # parseable, but the values themselves are not asserted
    for metric in ("final_loss", "self_bleu", "entropy"):
        seed_col = [r[1] for r in by_metric[metric]]
        assert seed_col == ["0", "1", "median"]
    # per-seed detail on disk for every cell
    for label in labels:
        for seed in ("seed_0", "seed_1"):
            assert (tmp_path / "sweep" / label / seed / "checkpoint.bin").exists()
            assert (tmp_path / "sweep" / label / seed / "eval" / "metrics.csv").exists()
    print("criterion 10 PASS: 2x2 tofu sweep produced 4 filled cells per metric "
          "with per-seed rows, a median row, and per-cell run directories")
