"""Diversity/quality metrics, checked against brute-force oracles."""

import math
import random

import numpy as np
import pytest

from sftlab.metrics import (
    ArityError,
    GenerationSet,
    MetricReport,
    UndefinedMetricError,
    answer_entropy,
    completion_entropy,
    coverage_and_mean,
    distinct_n,
    extract_boxed_answer,
    read_metric_reports,
    self_bleu,
    write_metric_reports,
)

from bleu_oracle import oracle_self_bleu

EPS = 1e-9


def random_generation_set(rng):
    words = ["a", "b", "c", "aa", "bb", "cab"]
    k = rng.randint(2, 5)
    completions = []
    for _ in range(k):
        length = rng.randint(0, 8)
        completions.append(" ".join(rng.choice(words) for _ in range(length)))
    return GenerationSet(prompt="p", completions=tuple(completions))


# ------------------------------------------------------------- self-bleu ----


def test_self_bleu_identical_pair_is_100():
    gs = GenerationSet("p", ("the same text again", "the same text again"))
    assert self_bleu(gs) == 100.0


def test_self_bleu_disjoint_pair_is_zero():
    gs = GenerationSet("p", ("aaa bbb ccc", "ddd eee fff"))
    assert self_bleu(gs) <= 0.1
    assert self_bleu(gs) == 0.0


def test_self_bleu_needs_two_completions():
    with pytest.raises(ArityError):
        self_bleu(GenerationSet("p", ("only one",)))


def test_self_bleu_matches_brute_force_oracle():
    rng = random.Random(1234)
    for _ in range(20):
        gs = random_generation_set(rng)
        assert abs(self_bleu(gs) - oracle_self_bleu(gs.completions)) <= EPS


def test_self_bleu_matches_oracle_on_duplicate_heavy_sets_at_k64():
    # 64 completions drawn from a few short strings over a 3-4 word lexicon,
    # empty ones among them, and one word only a single completion has: as
    # a hypothesis it must clip that word to 0 (no other completion has it),
    # never to its own count
    rng = random.Random(64)
    for _ in range(4):
        lexicon = rng.sample(["a", "b", "c", "dd"], rng.randint(3, 4))
        pool = [" ".join(rng.choice(lexicon) for _ in range(rng.randint(0, 7))) for _ in range(6)] + ["", ""]
        completions = [rng.choice(pool) for _ in range(64)]
        completions[rng.randrange(64)] += " solo"
        gs = GenerationSet("p", tuple(completions))
        assert abs(self_bleu(gs) - oracle_self_bleu(gs.completions)) <= EPS
    pair = ("a b solo", "a b")
    assert abs(self_bleu(GenerationSet("p", pair)) - oracle_self_bleu(pair)) <= EPS


def test_self_bleu_duplicate_never_decreases():
    # duplicating a non-empty completion adds a perfect-score hypothesis, so
    # the mean cannot drop (an empty string scores 0 even against its twin,
    # which is why the duplicated pick must be non-empty)
    rng = random.Random(77)
    checked = 0
    for _ in range(20):
        gs = random_generation_set(rng)
        pick = next((c for c in gs.completions if c), None)
        if pick is None:
            continue
        bigger = GenerationSet(gs.prompt, gs.completions + (pick,))
        assert self_bleu(bigger) >= self_bleu(gs) - 1e-12
        checked += 1
    assert checked >= 10


def test_self_bleu_case_insensitive():
    gs_lower = GenerationSet("p", ("alpha beta", "alpha gamma"))
    gs_mixed = GenerationSet("p", ("Alpha BETA", "ALPHA gamma"))
    assert self_bleu(gs_lower) == self_bleu(gs_mixed)


# ------------------------------------------------------------- distinct-n ----


def test_distinct_1_pools_across_completions():
    gs = GenerationSet("p", ("a a a", "a a a"))
    assert distinct_n(gs, 1) == pytest.approx(1 / 6)


def test_distinct_2_does_not_cross_completion_boundaries():
    gs = GenerationSet("p", ("a b", "b c"))
    assert distinct_n(gs, 1) == pytest.approx(3 / 4)
    assert distinct_n(gs, 2) == pytest.approx(1.0)


def test_distinct_n_all_unique_is_one():
    gs = GenerationSet("p", ("a b c", "d e f"))
    assert distinct_n(gs, 1) == 1.0


def test_distinct_n_errors():
    with pytest.raises(ValueError):
        distinct_n(GenerationSet("p", ("a",)), 0)
    with pytest.raises(ArityError):
        distinct_n(GenerationSet("p", ()), 1)
    with pytest.raises(UndefinedMetricError):
        distinct_n(GenerationSet("p", ("a", "b")), 2)
    with pytest.raises(UndefinedMetricError):
        distinct_n(GenerationSet("p", ("", "")), 1)


# -------------------------------------------------------------- entropies ----


def test_answer_entropy_uniform_and_onehot():
    assert answer_entropy([0.25] * 4) == pytest.approx(math.log(4))
    assert answer_entropy([1.0, 0.0, 0.0]) == 0.0


def test_answer_entropy_renormalizes():
    assert answer_entropy([2.0, 2.0]) == pytest.approx(math.log(2))


def test_answer_entropy_rejects_nan():
    # NaN once passed every check and scored 0.0
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        answer_entropy([0.3, np.nan, 0.7])


def test_answer_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        answer_entropy([0.5, -0.5])
    with pytest.raises(ValueError):
        answer_entropy([0.0, 0.0])
    with pytest.raises(ValueError):
        answer_entropy([[0.5, 0.5]])
    with pytest.raises(ValueError):
        answer_entropy([])


def test_completion_entropy():
    assert completion_entropy(GenerationSet("p", ("x", "x", "x"))) == 0.0
    assert completion_entropy(GenerationSet("p", ("x", "y"))) == pytest.approx(math.log(2))
    with pytest.raises(ArityError):
        completion_entropy(GenerationSet("p", ()))


def test_collapsed_entropy_is_positive_zero(tmp_path):
    # == 0.0 holds for -0.0 too; the sign shows in metrics.csv as "-0.0"
    collapsed = completion_entropy(GenerationSet("p", ("a", "a")))
    assert math.copysign(1.0, collapsed) == 1.0
    assert math.copysign(1.0, answer_entropy([0.0, 1.0, 0.0])) == 1.0
    path = tmp_path / "metrics.csv"
    write_metric_reports(path, [MetricReport("entropy", {"p0": collapsed})])
    assert path.read_text().splitlines()[1:] == ["entropy,p0,0.0", "entropy,mean,0.0", "entropy,std,0.0"]


# --------------------------------------------------------------- coverage ----


def test_coverage_and_mean_hand_case():
    cov, mean = coverage_and_mean([[True, False], [False, False]])
    assert cov == 0.5
    assert mean == 0.25


def test_coverage_dominates_mean_on_random_matrices():
    rng = np.random.default_rng(42)
    equal_seen = strict_seen = 0
    for _ in range(100):
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        success = rng.random(shape) < rng.random()
        cov, mean = coverage_and_mean(success)
        assert cov >= mean - 1e-15
        rows_uniform = all(row.all() or not row.any() for row in success)
        if cov == mean:
            equal_seen += 1
            assert rows_uniform
        else:
            strict_seen += 1
            assert not rows_uniform
    assert equal_seen > 0 and strict_seen > 0


def test_coverage_rejects_bad_shapes():
    with pytest.raises(ArityError):
        coverage_and_mean([True, False])
    with pytest.raises(ArityError):
        coverage_and_mean(np.zeros((0, 3), dtype=bool))


# ---------------------------------------------------------------- boxing ----


def test_extract_boxed_simple():
    assert extract_boxed_answer(r"the answer is \boxed{42}.") == "42"


def test_extract_boxed_nested_braces():
    assert extract_boxed_answer(r"\boxed{\frac{1}{2}}") == r"\frac{1}{2}"


def test_extract_boxed_last_occurrence_wins():
    assert extract_boxed_answer(r"\boxed{first} then \boxed{second}") == "second"


def test_extract_boxed_skips_unbalanced_tail():
    assert extract_boxed_answer(r"\boxed{good} and \boxed{broken") == "good"


def test_extract_boxed_none_when_absent_or_broken():
    assert extract_boxed_answer("no box here") is None
    assert extract_boxed_answer(r"\boxed{never closed") is None
    assert extract_boxed_answer("") is None


def test_extract_boxed_empty_contents():
    assert extract_boxed_answer(r"\boxed{}") == ""


# ---------------------------------------------------------------- reports ----


def test_metric_report_aggregates():
    report = MetricReport("distinct_1", {"p0": 0.5, "p1": 1.0})
    assert report.mean == pytest.approx(0.75)
    assert report.std == pytest.approx(0.25)


def test_metric_reports_csv_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    reports = [
        MetricReport("self_bleu", {"p0": 12.25, "p1": 0.1 + 0.2}),
        MetricReport("entropy", {"p0": math.log(3)}),
    ]
    write_metric_reports(path, reports)
    loaded = read_metric_reports(path)
    assert loaded["self_bleu"]["p0"] == 12.25
    assert loaded["self_bleu"]["p1"] == 0.1 + 0.2  # repr round-trips exactly
    assert loaded["self_bleu"]["mean"] == reports[0].mean
    assert loaded["self_bleu"]["std"] == reports[0].std
    assert loaded["entropy"]["p0"] == math.log(3)


def test_metric_reports_csv_is_byte_stable(tmp_path):
    reports = [MetricReport("entropy", {"p0": 1.5, "p1": 2.5})]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metric_reports(a, reports)
    write_metric_reports(b, reports)
    assert a.read_bytes() == b.read_bytes()
