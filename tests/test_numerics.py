"""Log-space primitive tests: hand-derived values, invariants, row-wise calls,
and the finite-difference oracle for the entropy gradient."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftlab

from sftlab.numerics import (
    LOG_FLOOR,
    as_log_probs,
    as_logits,
    as_probs,
    check_gamma,
    check_temperature,
    entropy_from_log_probs,
    entropy_logit_gradient,
    entropy_logit_gradient_rows,
    log_softmax,
    logsumexp,
    row_dots,
    temper,
    tempered_log_softmax,
)

finite_logits = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=12
).map(np.array)


def log_probs_of(p):
    return np.log(np.asarray(p, dtype=np.float64))


class TestValidation:
    def test_logits_reject_scalar_and_short(self):
        with pytest.raises(ValueError):
            as_logits(3.0)
        with pytest.raises(ValueError):
            as_logits([1.0])

    def test_logits_reject_non_finite(self):
        with pytest.raises(ValueError):
            as_logits([0.0, np.inf])
        with pytest.raises(ValueError):
            as_logits([np.nan, 0.0])

    def test_log_probs_reject_positive_entries(self):
        with pytest.raises(ValueError):
            as_log_probs([0.1, -2.0])

    def test_log_probs_reject_unnormalized(self):
        with pytest.raises(ValueError):
            as_log_probs([-1.0, -1.0])

    def test_probs_reject_bad_sum_and_range(self):
        with pytest.raises(ValueError):
            as_probs([0.3, 0.3])
        with pytest.raises(ValueError):
            as_probs([-0.1, 1.1])

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, np.nan, 0.5]], ids=["nan_then_one", "nan_inside"])
    def test_probs_reject_nan(self, p):
        # NaN compares False with both ends of the range, and its sum with the 1
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            as_probs(p)

    def test_temperature_range(self):
        assert check_temperature(1.0) == 1.0
        assert check_temperature(0.5) == 0.5
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                check_temperature(bad)

    def test_gamma_range(self):
        assert check_gamma(0) == 0.0
        assert check_gamma(3.0) == 3.0
        for bad in (-1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and >= 0"):
                check_gamma(bad)


class TestLogSoftmax:
    def test_uniform_three(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0, 0.0]), -np.log(3.0) * np.ones(3), rtol=0, atol=1e-15)

    def test_shift_invariance_pair(self):
        for c in (-100.0, 0.0, 3.7, 250.0):
            np.testing.assert_allclose(log_softmax([c, c]), [-np.log(2.0)] * 2, atol=1e-15)

    def test_hand_case_0_ln4(self):
        l = log_softmax([0.0, np.log(4.0)])
        np.testing.assert_allclose(l, [np.log(0.2), np.log(0.8)], atol=1e-15)

    @given(z=finite_logits, c=st.floats(-500.0, 500.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_shift_invariance_random(self, z, c):
        np.testing.assert_allclose(log_softmax(z + c), log_softmax(z), atol=1e-12)

    @given(z=finite_logits)
    @settings(max_examples=80, deadline=None)
    def test_normalization(self, z):
        assert abs(np.exp(log_softmax(z)).sum() - 1.0) < 1e-9

    def test_entries_never_positive_and_floored(self):
        l = log_softmax([0.0, 2000.0])
        assert np.all(l <= 0.0)
        assert l[0] == LOG_FLOOR

    def test_logsumexp_matches_naive_at_moderate_scale(self):
        x = np.array([-2.0, 0.3, 1.7])
        assert abs(logsumexp(x) - np.log(np.exp(x).sum())) < 1e-12


class TestTemper:
    def test_identity_temperature(self):
        p = np.array([0.2, 0.8])
        np.testing.assert_allclose(temper(log_probs_of(p), 1.0), p, atol=1e-12)

    def test_symmetric_fixed_point(self):
        p = np.array([0.5, 0.5])
        for beta in (0.3, 0.7, 1.0):
            np.testing.assert_allclose(temper(log_probs_of(p), beta), p, atol=1e-12)

    def test_hand_case_seventeenths(self):
        out = temper(log_probs_of([0.2, 0.8]), 0.5)
        np.testing.assert_allclose(out, [1.0 / 17.0, 16.0 / 17.0], atol=1e-12)

    @given(
        p1=st.floats(0.05, 0.95),
        beta=st.floats(0.2, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharpening_increases_max_probability(self, p1, beta):
        p = np.array([p1, 1.0 - p1])
        out = temper(log_probs_of(p), beta)
        if abs(p1 - 0.5) > 1e-6:
            assert out.max() > p.max()

    def test_tempered_log_softmax_equals_logit_tempering(self):
        z = np.array([0.3, -1.2, 2.0, 0.0])
        direct = tempered_log_softmax(log_softmax(z), 0.6)
        via_logits = log_softmax(z / 0.6)
        np.testing.assert_allclose(direct, via_logits, atol=1e-12)


class TestRows:
    """Each last-axis primitive maps (N, V) rows exactly as N vector calls do."""

    @pytest.mark.parametrize("vocab", [2, 3, 28, 64])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 1000.0])  # 1000 drives entries to LOG_FLOOR
    def test_rows_equal_vector_calls_bitwise(self, vocab, scale):
        z = np.random.default_rng(vocab).normal(0.0, scale, (6, vocab))
        l = log_softmax(z)
        if scale == 1000.0:
            assert (l == LOG_FLOOR).any()
        cases = (
            (log_softmax, z, l),
            (lambda x: tempered_log_softmax(x, 0.7), l, tempered_log_softmax(l, 0.7)),
            (logsumexp, z, logsumexp(z)),
        )
        for vector_call, inputs, rows in cases:
            assert rows.shape == inputs.shape[: rows.ndim]
            for i, row in enumerate(rows):
                assert np.asarray(vector_call(inputs[i])).tobytes() == row.tobytes(), (vocab, scale, i)

    def test_logits_reject_one_non_finite_row(self):
        for bad in (np.inf, -np.inf, np.nan):
            z = np.zeros((4, 3))
            z[2, 1] = bad
            with pytest.raises(ValueError):
                as_logits(z)
            with pytest.raises(ValueError):
                log_softmax(z)

    def test_log_probs_reject_one_bad_row(self):
        good = log_softmax(np.random.default_rng(0).normal(size=(4, 3)))
        positive, unnormalized = good.copy(), good.copy()
        positive[1] = [0.1, -2.0, -2.0]
        unnormalized[3] -= 1e-6
        for bad in (positive, unnormalized):
            with pytest.raises(ValueError):
                as_log_probs(bad)
            with pytest.raises(ValueError):
                tempered_log_softmax(bad, 0.5)
        np.testing.assert_array_equal(as_log_probs(good), good)

    @pytest.mark.parametrize("shape", [(), (2, 3, 4), (3, 1), (3, 0)])
    def test_reject_other_shapes(self, shape):
        # uniform log-probs over the last axis, so only the shape is wrong
        uniform = np.full(shape, -np.log(max(shape[-1:] + (1,))))
        for check in (as_logits, as_log_probs):
            with pytest.raises(ValueError, match="vector"):
                check(uniform)


class TestEntropy:
    def test_uniform_entropy_and_zero_gradient(self):
        l = log_softmax(np.zeros(4))
        assert abs(entropy_from_log_probs(l) - np.log(4.0)) < 1e-12
        np.testing.assert_allclose(entropy_logit_gradient(l), np.zeros(4), atol=1e-12)

    def test_saturated_gradient_is_zero(self):
        l = as_log_probs([0.0, LOG_FLOOR])
        np.testing.assert_allclose(entropy_logit_gradient(l), [0.0, 0.0], atol=1e-300)

    def test_hand_case_two_point(self):
        p = np.array([0.2, 0.8])
        l = log_probs_of(p)
        mean_log = 0.2 * np.log(0.2) + 0.8 * np.log(0.8)
        expected = -p * (l - mean_log)
        np.testing.assert_allclose(entropy_logit_gradient(l), expected, atol=1e-12)

    def test_matches_finite_differences(self):
        z = np.array([np.log(0.2), np.log(0.8)])
        h = 1e-5
        fd = np.empty_like(z)
        for j in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (
                entropy_from_log_probs(log_softmax(zp))
                - entropy_from_log_probs(log_softmax(zm))
            ) / (2 * h)
        grad = entropy_logit_gradient(log_softmax(z))
        assert np.abs(fd - grad).max() < 1e-6

    def test_rows_are_rejected_naming_their_shape(self):
        rows = np.full((4, 4), -np.log(4.0))  # valid log-prob rows: only the shape is wrong
        for entropy_function in (entropy_from_log_probs, entropy_logit_gradient):
            with pytest.raises(ValueError, match=r"\(4, 4\)"):
                entropy_function(rows)

    def test_rows_gradient_is_each_rows_vector_gradient(self):
        rows = log_softmax(np.random.default_rng(0).normal(0.0, 10.0, (50, 7)))
        got = entropy_logit_gradient_rows(rows)
        assert got.tobytes() == np.array([entropy_logit_gradient(l) for l in rows]).tobytes()
        mean_logs = [float(np.dot(l, np.exp(l))) for l in rows]  # one BLAS dot per row
        assert got.tobytes() == np.array([-np.exp(l) * (l - m) for l, m in zip(rows, mean_logs)]).tobytes()
        with pytest.raises(ValueError, match=r"rows \(N, V\), got shape \(7,\)"):
            entropy_logit_gradient_rows(rows[0])
        with pytest.raises(ValueError, match=r"got shape \(1,\)$"):  # the vector's shape, not its row's
            entropy_logit_gradient([0.0])

    def test_vanishing_component_bounded_and_decaying(self):
        mags = []
        for e in (3, 10, 50, 150, 300):
            eps = 10.0**-e
            grad = entropy_logit_gradient(np.log([1.0 - eps, eps]))
            assert np.all(np.isfinite(grad))
            mags.append(abs(grad[1]))
        assert all(b < a for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-8


# ------------------------------------------------------------- row dots ----


def test_row_dots_are_each_rows_np_dot_bit_for_bit():
    # 3000 random shapes (N 0-500, V 2-300) at scales 1e-3 to 1e3, rows
    # against a shared vector and against rows; (a * b).sum(-1) and einsum
    # would fail this
    rng = np.random.default_rng(20260)
    for _ in range(3000):
        n, v = int(rng.integers(0, 501)), int(rng.integers(2, 301))
        a, b = (rng.random((2, n, v)) - 0.5) * 10.0 ** rng.uniform(-3, 3, (2, 1, 1))
        q = rng.random(v) * 10.0 ** rng.uniform(-3, 3)
        assert row_dots(a, q).tobytes() == np.array([np.dot(q, row) for row in a]).tobytes(), (n, v)
        assert row_dots(a, b).tobytes() == np.array([np.dot(x, y) for x, y in zip(a, b)]).tobytes(), (n, v)
        assert row_dots(a, b).shape == (n,)


# ----------------------------------------------------------------- guard ----

HAND_LOGSUMEXP = re.compile(r"np\.log\(\s*np\.exp\(")


def test_guard_finds_a_planted_logsumexp():
    source = "def f(x):\n    m = x.max()\n    return m + np.log(np.exp(x - m).sum())\n"
    assert HAND_LOGSUMEXP.search(source)
    assert HAND_LOGSUMEXP.search("np.log(\n    np.exp(s).sum(axis=1))")
    assert not HAND_LOGSUMEXP.search("np.log(p) + np.exp(l)")


def test_only_numerics_computes_logsumexp():
    package = Path(sftlab.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "numerics.py" in modules
    found = {
        path.name: len(HAND_LOGSUMEXP.findall(path.read_text(encoding="utf-8")))
        for path in modules
        if path.name != "numerics.py"
    }
    assert {name: n for name, n in found.items() if n} == {}
    assert HAND_LOGSUMEXP.search((package / "numerics.py").read_text(encoding="utf-8"))
