"""Verification-battery tests: the oracle machinery itself, detachment
freezing, and small deterministic runs of every check."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kernel_record import kernels_note
from sftlab import gradcheck, losses
from sftlab.cli import main
from sftlab.gradcheck import (
    FACTOR_DISTINCT_EPS,
    TRIAL_BETAS,
    TRIAL_GAMMAS,
    TRIAL_LOGIT_SCALES,
    TRIAL_VOCAB_SIZES,
    CheckReport,
    FiniteDiffSpec,
    OracleError,
    Trial,
    draw_trial,
    fd_gradient,
    frozen_value_fn,
    rel_error,
    run_all_checks,
    verify_entropy_bounded,
    verify_finite_difference,
    verify_focal_scaling,
    verify_gem_equivalence,
    verify_tofu_scaling,
)
from sftlab.losses import (
    OBJECTIVE_TABLE,
    OBJECTIVES,
    LossConfig,
    LossResult,
    Target,
    focal_scaling,
    gem,
    pr_weight,
    scaled_ce,
    token_loss,
)
from sftlab.numerics import (
    LOG_FLOOR,
    entropy_logit_gradient,
    entropy_logit_gradient_rows,
    log_softmax,
    tempered_log_softmax,
)

DATA = Path(__file__).parent / "data"


class TestFdGradient:
    def test_constant_function(self):
        np.testing.assert_allclose(
            fd_gradient(lambda rows: np.full(len(rows), 1.25), np.zeros(3)), np.zeros(3), atol=0
        )

    def test_ce_uniform(self):
        value = lambda rows: np.array([token_loss(z, Target.one_hot(0), LossConfig("ce")).value for z in rows])
        grad = fd_gradient(value, np.zeros(3))
        np.testing.assert_allclose(grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_quadratic_exact_for_central_differences(self):
        # central differences are exact on quadratics up to roundoff
        grad = fd_gradient(lambda rows: (rows * rows).sum(axis=1), np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(grad, [2.0, -4.0, 1.0], atol=1e-9)

    def test_non_finite_value_raises(self):
        def bad(rows):
            return np.where(rows[:, 0] > 0, np.nan, 0.0)

        with pytest.raises(OracleError):
            fd_gradient(bad, np.zeros(2))

    def test_scalar_value_function_is_refused(self):
        with pytest.raises(ValueError, match="6 stencil rows to 6 values, got shape \\(\\)"):
            fd_gradient(lambda rows: 1.25, np.zeros(3))

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_non_finite_pair_is_named_by_its_component(self, j):
        z = np.linspace(-1.0, 1.0, 5)

        def bad(rows):  # only component j's stencil pair moves off z
            return np.where(rows[:, j] != z[j], np.inf, rows.sum(axis=1))

        with pytest.raises(OracleError, match=f"non-finite value at component {j}: f\\+=inf f-=inf$"):
            fd_gradient(bad, z)

    def test_stencil_rows_are_the_per_component_copies(self):
        z = np.array([0.3, -1.7, 2.5e-3, 40.0])
        seen = []
        fd_gradient(lambda rows: seen.append(rows.copy()) or np.zeros(len(rows)), z)
        assert len(seen) == 1 and np.array_equal(seen[0], per_component_stencil(z, FiniteDiffSpec().step))


def per_component_stencil(z, step):
    """The 2V central-difference points, each built from its own copy of z:
    z + step at component j in row j, z - step at component j in row V + j."""
    plus, minus = [], []
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        plus.append(zp)
        minus.append(zm)
    return np.array(plus + minus)


class TestRelError:
    def test_zero_for_identical(self):
        assert rel_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_normalizes_by_reference_norm(self):
        assert rel_error([1.1, 0.0], [1.0, 0.0]) == pytest.approx(0.1, rel=1e-9)

    def test_floor_bounds_tiny_reference(self):
        # absolute deviation 1e-9 against a zero reference reads as 1e-9/floor
        assert rel_error([1e-9, 0.0], [0.0, 0.0], floor=1e-3) == pytest.approx(1e-6)


class TestFrozenValues:
    def test_gem_freezing_changes_the_answer(self):
        """Differentiating the GEM value naively (tempered term live) gives the
        wrong gradient; freezing it reproduces the closed form. Both routes are
        kept distinct here on purpose."""
        z = np.array([0.4, -1.0, 1.2])
        target = Target.one_hot(0)
        beta = 0.5
        closed = gem(z, target, beta).grad

        frozen = fd_gradient(frozen_value_fn(LossConfig("gem", beta=beta), z, target), z)
        assert rel_error(frozen, closed) < 1e-7

        def live(rows):
            return np.array([gem(zz, target, beta).value for zz in rows])  # recomputes the tempered term

        naive = fd_gradient(live, z)
        assert rel_error(naive, closed) > 1e-3

    def test_tofu_freezing_matches_closed_form(self):
        z = np.array([0.2, 1.1, -0.6])
        target = Target.one_hot(1)
        cfg = LossConfig("tofu", gamma=3.0, beta=0.8)
        closed = token_loss(z, target, cfg).grad
        frozen = fd_gradient(frozen_value_fn(cfg, z, target), z)
        assert rel_error(frozen, closed) < 1e-7

    def test_lambda_pr_freezing_honours_position_and_length(self):
        z = np.array([0.5, -0.3, 1.4, 0.1])
        target = Target.one_hot(2)
        cfg = LossConfig("lambda_pr", lam=0.5)
        closed = token_loss(z, target, cfg, position=3, length=4).grad
        frozen = fd_gradient(frozen_value_fn(cfg, z, target, position=3, length=4), z)
        assert rel_error(frozen, closed) < 1e-7

    def test_plain_objectives_differentiate_their_values(self):
        z = np.array([0.3, -0.2, 0.9])
        target = Target.one_hot(2)
        for cfg in (LossConfig("ce"), LossConfig("focal", gamma=2.0), LossConfig("scaled_ce", beta=0.7)):
            closed = token_loss(z, target, cfg).grad
            numeric = fd_gradient(frozen_value_fn(cfg, z, target), z)
            assert rel_error(numeric, closed) < 1e-7


def scalar_value(cfg, z0, target, position, length):
    """The value of one logit vector z as the scalar path computes it; a
    detached quantity is frozen at z0 and written out as a scalar expression."""
    params, l0 = cfg.params(position, length), log_softmax(z0)
    if cfg.objective == "gem":
        pb0 = np.exp(tempered_log_softmax(l0, params))
        return lambda z: float(-log_softmax(z)[target.index] + np.dot(pb0, log_softmax(z)))
    if cfg.objective == "lambda_pr":
        w0 = pr_weight(float(np.exp(l0[target.index])), params)
        return lambda z: float(-w0 * log_softmax(z)[target.index])
    if cfg.objective == "tofu":
        g0 = focal_scaling(float(np.exp(l0[target.index])), params.gamma)
        return lambda z: float(-g0 * params.beta * tempered_log_softmax(log_softmax(z), params.beta)[target.index])
    return lambda z: token_loss(z, target, cfg, position=position, length=length).value


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_rows_values_equal_the_scalar_values_at_every_stencil_row(objective):
    """At the trial scales and at saturation (scale 1e3, rows floored at
    LOG_FLOOR)."""
    rng = np.random.default_rng(OBJECTIVES.index(objective))
    floored = 0
    for size in TRIAL_VOCAB_SIZES:
        for scale in (*TRIAL_LOGIT_SCALES, 1e3):
            for _ in range(2):
                z0 = rng.normal(0.0, scale, size)
                cfg = LossConfig(
                    objective,
                    gamma=float(rng.choice(TRIAL_GAMMAS)),
                    beta=float(rng.choice(TRIAL_BETAS)),
                    lam=float(rng.choice([0.5, 0.8, 1.0])),
                    alpha=float(rng.choice([0.25, 0.5, 1.0])),
                )
                length = int(rng.integers(2, 9)) if objective == "lambda_pr" else 1
                position = int(rng.integers(2, length + 1)) if objective == "lambda_pr" else 1
                target = Target.one_hot(int(rng.integers(size)))
                rows = per_component_stencil(z0, FiniteDiffSpec().step)
                floored += bool((log_softmax(rows) == LOG_FLOOR).any())
                got = frozen_value_fn(cfg, z0, target, position, length)(rows)
                scalar = scalar_value(cfg, z0, target, position, length)
                assert got.shape == (len(rows),)
                assert got.tolist() == [scalar(z) for z in rows], (size, scale, cfg, target)
    assert floored  # the saturated case reached the floor


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_frozen_value_at_its_base_point_is_the_oracle_value(objective):
    """The oracle and finite differences read one value formula: at z0 itself
    the frozen value is token_loss's value bit for bit, detached quantity and
    all."""
    rng = np.random.default_rng(100 + OBJECTIVES.index(objective))
    for size in TRIAL_VOCAB_SIZES:
        for scale in (*TRIAL_LOGIT_SCALES, 1e3):
            for _ in range(3):
                z0 = rng.normal(0.0, scale, size)
                cfg = LossConfig(
                    objective,
                    gamma=float(rng.choice(TRIAL_GAMMAS)),
                    beta=float(rng.choice(TRIAL_BETAS)),
                    lam=float(rng.choice([0.5, 0.8, 1.0])),
                    alpha=float(rng.choice([0.25, 0.5, 1.0])),
                )
                length = int(rng.integers(1, 9)) if objective == "lambda_pr" else 1
                position = int(rng.integers(1, length + 1))
                target = Target.one_hot(int(rng.integers(size)))
                frozen = frozen_value_fn(cfg, z0, target, position, length)(z0[None])
                oracle = token_loss(z0, target, cfg, position=position, length=length).value
                assert frozen.shape == (1,)
                assert float(frozen[0]) == oracle, (size, scale, cfg, target)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_index_out_of_range_outranks_non_finite_logits(objective, bad):
    """An index past the vocab is the range error from both paths even when
    z0 is not finite: the target is checked before the log-softmax."""
    z = np.array([0.3, bad, 0.5])
    cfg, target = LossConfig(objective), Target.one_hot(3)
    with pytest.raises(ValueError, match="out of range for vocab 3"):
        token_loss(z, target, cfg)
    with pytest.raises(ValueError, match="out of range for vocab 3"):
        frozen_value_fn(cfg, z, target)


# the target every oracle rejects
REJECTED_TARGETS = {
    "index_out_of_range": (OBJECTIVES, Target.one_hot(3)),
}


@pytest.mark.parametrize(
    "objective, target",
    [pytest.param(o, t, id=f"{o}-{case}") for case, (names, t) in REJECTED_TARGETS.items() for o in names],
)
def test_frozen_value_fn_raises_the_oracles_error_class(objective, target):
    z = np.array([0.3, -1.2, 0.5])
    cfg = LossConfig(objective)
    with pytest.raises(ValueError) as oracle_error:
        token_loss(z, target, cfg)
    with pytest.raises(ValueError) as rows_error:
        frozen_value_fn(cfg, z, target)(per_component_stencil(z, FiniteDiffSpec().step))
    assert type(rows_error.value) is type(oracle_error.value), rows_error.value


class TestTrialDraws:
    def test_grid_membership(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = draw_trial(rng)
            assert t.z.size in (2, 3, 16, 64)
            assert t.beta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
            assert t.gamma in (0.0, 1.0, 2.0, 3.0, 5.0)
            assert 0 <= t.index < t.z.size

    def test_describe_round_trips_through_json(self):
        t = Trial(z=np.array([0.1, -0.2]), index=1, beta=0.8, gamma=2.0)
        d = json.loads(json.dumps(t.describe()))
        assert d["target"] == 1 and d["beta"] == 0.8


class TestChecks:
    def test_gem_equivalence_fixed_hand_trial(self):
        z = np.array([0.0, np.log(4.0)])
        target = Target.one_hot(1)
        expected = np.array([1 / 17, -1 / 17])
        assert rel_error(gem(z, target, 0.5).grad, expected) < 1e-12
        assert rel_error(scaled_ce(z, target, 0.5).grad, expected) < 1e-12
        numeric = fd_gradient(frozen_value_fn(LossConfig("gem", beta=0.5), z, target), z)
        assert rel_error(numeric, expected) < 1e-5

    def test_gem_equivalence_small_run(self):
        r = verify_gem_equivalence(trials=120, seed=3)
        assert r.passed and r.max_rel_error <= 1e-12
        assert r.fd_max_rel_error <= r.fd_tolerance

    def test_focal_scaling_small_run(self):
        r = verify_focal_scaling(trials=120, seed=5)
        assert r.passed
        assert r.extras["witness_found"]
        assert r.extras["max_ratio_spread"] > 1e-3
        assert r.extras["witness"] is not None and len(r.extras["witness"]["z"]) >= 3

    def test_tofu_scaling_small_run(self):
        r = verify_tofu_scaling(trials=200, seed=7)
        assert r.passed
        assert r.extras["eligible_trials"] >= 40
        assert r.extras["equal_gradient_violations"] == 0
        assert r.extras["min_factor_separation"] > FACTOR_DISTINCT_EPS
        counted = r.extras["eligible_trials"] + sum(r.extras["excluded"].values())
        assert counted == 200  # nothing silently dropped

    def test_entropy_bounded(self):
        r = verify_entropy_bounded()
        assert r.passed
        assert r.extras["all_finite"] and r.extras["monotone"]
        assert r.max_rel_error < 1e-8
        assert r.extras["min_prob_floor"] == 1e-300

    def test_finite_difference_all_objectives(self):
        r = verify_finite_difference(trials=40, seed=9)
        assert r.passed
        assert set(r.extras["per_objective"]) == {
            "ce",
            "scaled_ce",
            "gem",
            "focal",
            "lambda_pr",
            "tofu",
            "naive_tempered_focal",
        }

    def test_finite_difference_objective_filter(self):
        r = verify_finite_difference(trials=30, seed=9, objectives=("lambda_pr",))
        assert r.passed
        assert set(r.extras["per_objective"]) == {"lambda_pr"}
        with pytest.raises(ValueError):
            verify_finite_difference(trials=5, objectives=("hinge",))

    def test_run_all_checks_names_and_filter(self):
        reports = run_all_checks(trials=30, seed=1)
        assert [r.name for r in reports] == [
            "gem_equivalence",
            "focal_scaling",
            "tofu_scaling",
            "entropy_gradient_bounded",
            "finite_difference_oracle",
        ]
        only = run_all_checks(trials=10, seed=1, objectives=("ce",))
        assert len(only) == 1 and only[0].name == "finite_difference_oracle"

    def test_reports_are_deterministic(self):
        a = verify_gem_equivalence(trials=50, seed=42)
        b = verify_gem_equivalence(trials=50, seed=42)
        assert a.to_json() == b.to_json()


class TestCheckReport:
    def test_json_shape(self):
        r = CheckReport(name="x", trials=3, max_rel_error=0.5, tolerance=1.0, passed=True)
        d = json.loads(r.to_json())
        assert d["name"] == "x" and d["passed"] is True
        assert d["fd_max_rel_error"] is None

    def test_norm_floor_derivation(self):
        spec = FiniteDiffSpec(step=1e-5, tolerance=1e-5, atol=1e-8)
        assert spec.norm_floor == pytest.approx(1e-3)


# ------------------------------------------------------------- verdicts ----


def test_battery_matches_golden_reports():
    """Byte-exact replay of a small battery run, every passing report.

    tests/data/golden_gradcheck.jsonl holds run_all_checks(trials=60, seed=3)
    as one JSON line per report; regenerate it deliberately if a check's
    draws or report change. It was last re-pinned when the finite-difference
    check stopped drawing soft targets.
    """
    reports = run_all_checks(trials=60, seed=3)
    got = "".join(r.to_json() + "\n" for r in reports)
    assert got == (DATA / "golden_gradcheck.jsonl").read_text(), kernels_note()


def test_objective_filter_matches_golden_reports():
    """Byte-exact replay of the `gradcheck --objective` path: line i of
    tests/data/golden_gradcheck_objective.jsonl is
    run_all_checks(trials=40, seed=3, objectives=(OBJECTIVES[i],))."""
    lines = [r.to_json() + "\n" for o in OBJECTIVES for r in run_all_checks(trials=40, seed=3, objectives=(o,))]
    assert "".join(lines) == (DATA / "golden_gradcheck_objective.jsonl").read_text(), kernels_note()


def broken_kernel(objective, broken, fault):
    """OBJECTIVE_TABLE's entry for objective with fault applied to the
    gradient rows whose (target, position) is broken."""
    entry = OBJECTIVE_TABLE[objective]

    def kernel(l, at, params, positions, lengths):
        values, grads = entry.kernel(l, at, params, positions, lengths)
        rows = [broken(Target.one_hot(int(k)), int(i)) for k, i in zip(at[1], positions)]
        return values, np.where(np.array(rows)[:, None], fault(grads), grads)

    return replace(entry, kernel=kernel)


# each trial check and the objective whose table kernel it reads
NAN_CASES = {
    "gem": (verify_gem_equivalence, "gem"),
    "focal": (verify_focal_scaling, "focal"),
    "tofu": (verify_tofu_scaling, "tofu"),
    "token_loss": (verify_finite_difference, "ce"),
}


@pytest.mark.parametrize("oracle", NAN_CASES)
def test_non_finite_gradients_fail_the_check(monkeypatch, capsys, oracle):
    check, objective = NAN_CASES[oracle]
    nan = broken_kernel(objective, lambda target, position: True, lambda grads: np.full_like(grads, np.nan))
    monkeypatch.setitem(OBJECTIVE_TABLE, objective, nan)
    report = check(trials=20, seed=0)
    assert not report.passed
    assert report.counterexample is not None
    assert math.inf in (report.max_rel_error, report.fd_max_rel_error)
    assert main(["gradcheck", "--trials", "20"]) == 1


def loss_config(objective, params):
    """The LossConfig whose key() is {"objective": objective, "params": params}."""
    if params is None:
        cfg = LossConfig(objective)
    elif isinstance(params, float):
        cfg = LossConfig(objective, beta=params)
    else:
        cfg = LossConfig(objective, **{k: v for k, v in params.items() if k in ("gamma", "beta", "lam", "alpha")})
    assert cfg.key() == {"objective": objective, "params": params}
    return cfg


# an objective and the part of its input space whose gradient is broken
BROKEN_PATHS = {
    "focal_past_index_0": ("focal", lambda target, position: target.index > 0),
    "lambda_pr_late_position": ("lambda_pr", lambda target, position: position > 1),
}


@pytest.mark.parametrize("path", BROKEN_PATHS)
def test_finite_difference_counterexample_reproduces_the_failure(monkeypatch, path):
    objective, broken = BROKEN_PATHS[path]
    monkeypatch.setitem(OBJECTIVE_TABLE, objective, broken_kernel(objective, broken, lambda grads: grads + 0.01))
    report = verify_finite_difference(trials=30, seed=9, objectives=(objective,))
    assert not report.passed
    found = json.loads(json.dumps(report.counterexample))
    z = np.array(found["z"])
    target = Target.one_hot(found["target"])
    cfg = loss_config(found["objective"], found["params"])
    position, length = found["position"], found["length"]
    assert broken(target, position)
    analytic = gradcheck.token_loss(z, target, cfg, position=position, length=length).grad
    numeric = fd_gradient(frozen_value_fn(cfg, z, target, position, length), z)
    assert rel_error(numeric, analytic, FiniteDiffSpec().norm_floor) > report.tolerance


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_battery_catches_a_fault_in_the_training_kernel(monkeypatch, objective):
    entry = OBJECTIVE_TABLE[objective]

    def offset_grads(*args):
        values, grads = entry.kernel(*args)
        return values, grads + 0.01

    monkeypatch.setitem(OBJECTIVE_TABLE, objective, replace(entry, kernel=offset_grads))
    assert not run_all_checks(20, 0, objectives=[objective])[0].passed


def test_focal_witness_fails_when_the_expected_focal_gradient_is_a_rescaled_ce(monkeypatch):
    # an expected_loss whose focal gradient is 2x its ce gradient leaves every
    # soft-target ratio equal: no witness, so the check fails on that alone
    real = gradcheck.expected_loss

    def proportional(z, q, cfg):
        out = real(z, q, LossConfig("ce"))
        return LossResult(out.value, 2.0 * out.grad) if cfg.objective == "focal" else out

    monkeypatch.setattr(gradcheck, "expected_loss", proportional)
    report = verify_focal_scaling(trials=30, seed=5)
    assert not report.passed
    assert report.max_rel_error <= report.tolerance and report.fd_max_rel_error <= report.fd_tolerance
    assert not report.extras["witness_found"] and report.extras["max_ratio_spread"] <= 1e-3


def scalar_entropy_gradient(l):
    """-p (l - l.p) of one log-prob vector, its mean from one BLAS dot."""
    p = np.exp(l)
    return -p * (l - float(np.dot(l, p)))


def test_entropy_rows_equal_the_vector_gradient_at_every_default_min_prob():
    min_probs = [10.0**-e for e in range(3, 301)]
    eps = np.array(min_probs)
    rows = entropy_logit_gradient_rows(np.log(np.stack([1.0 - eps, eps], axis=1)))
    vectors = [np.log(np.array([1.0 - e, e])) for e in min_probs]
    assert rows.shape == (298, 2)
    assert rows.tobytes() == np.array([entropy_logit_gradient(l) for l in vectors]).tobytes()
    assert rows.tobytes() == np.array([scalar_entropy_gradient(l) for l in vectors]).tobytes()


@pytest.mark.parametrize("fault", [[np.nan, np.nan], [1.0, -1.0]], ids=["non_finite", "not_decreasing"])
def test_entropy_counterexample_is_the_first_bad_min_prob(monkeypatch, fault):
    real = gradcheck.entropy_logit_gradient_rows

    def gradients(l):  # breaks from min-prob 1e-100 down
        return np.where(l[:, 1:] > -99.5 * np.log(10.0), real(l), np.array(fault))

    monkeypatch.setattr(gradcheck, "entropy_logit_gradient_rows", gradients)
    report = verify_entropy_bounded()
    assert not report.passed
    assert report.counterexample == {"min_prob": 10.0**-100}


TRIAL_CHECKS = [verify_gem_equivalence, verify_focal_scaling, verify_tofu_scaling, verify_finite_difference]


@pytest.mark.parametrize("check", TRIAL_CHECKS)
def test_each_trial_takes_one_log_softmax_at_its_base_point(monkeypatch, check):
    # the base point's log-probs, params and gradients are shared by the whole
    # trial; only the stencil (and the focal witness's soft targets) take rows
    ndims = []

    def counted(z):
        ndims.append(np.ndim(z))
        return log_softmax(z)

    for module in (losses, gradcheck):
        monkeypatch.setattr(module, "log_softmax", counted)
    report = check(trials=12, seed=1)
    assert report.passed
    assert ndims.count(1) == report.trials


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_is_refused_by_every_trial_check(trials):
    # run_all_checks(0, 0) once passed every check on no trial at all
    for check in [run_all_checks, *TRIAL_CHECKS]:
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            check(trials, 0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_all_checks(trials, 0, objectives=("gem",))


def test_tofu_scaling_draws_until_enough_trials_are_eligible(capsys):
    # at trials 1, seed 1 the one draw is ineligible; the check draws on
    assert main(["gradcheck", "--trials", "1", "--seed", "1"]) == 0
    tofu = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip()][2]
    assert tofu["name"] == "tofu_scaling" and tofu["passed"] and tofu["trials"] > 1
    assert tofu["extras"]["eligible_trials"] + sum(tofu["extras"]["excluded"].values()) == tofu["trials"]


def test_tofu_scaling_fails_at_its_draw_cap(monkeypatch):
    # no draw with gamma 0 is eligible: the check stops at trials + 100 x floor and fails
    real = gradcheck.draw_trial
    monkeypatch.setattr(gradcheck, "draw_trial", lambda rng: replace(real(rng), gamma=0.0))
    report = verify_tofu_scaling(trials=10, seed=0)
    assert not report.passed
    assert report.trials == 10 + 100 * 2
    assert report.extras["excluded"]["gamma_zero"] == report.trials
