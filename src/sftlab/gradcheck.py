"""Mechanical verification of the closed-form gradients and their identities.

Two layers of evidence, never collapsed into one:

  1. analytic identities between objectives (GEM vs tempered CE, focal vs
     rescaled CE, TOFU vs its naive variant), held to 1e-12 relative error;
  2. central finite differences of the value expressions, with every detached
     quantity frozen at the base point, held to the looser fd tolerance.

Every trial draws a one-hot target. The focal check's witness that focal is
not a rescaled CE in general takes its gradients at soft targets from
losses.expected_loss, the expectation of the kernel rows each one-hot trial
checks.

Every check keeps its verdict in one _Tally, so one rule decides them all: a
check passes when each error channel's worst error is finite and within its
bound and the check's own conditions hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .losses import (
    OBJECTIVE_TABLE,
    OBJECTIVES,
    FocalConfig,
    LossConfig,
    Target,
    TofuConfig,
    _oracle_inputs,
    ce,
    expected_loss,
    focal,
    focal_scaling,
    gem,
    naive_tempered_focal,
    scaled_ce,
    token_loss,
    tofu,
)
from .numerics import entropy_logit_gradient_rows, log_softmax, tempered_log_softmax

IDENTITY_TOL = 1e-12
FOCAL_PROPORTION_TOL = 1e-10
RATIO_SPREAD_MIN = 1e-3

# Two scaling factors count as distinguishable in float64 when they sit more
# than a few ulps apart; past 8 eps the scaled gradient vectors are guaranteed
# to differ after rounding (each product picks up at most half an ulp).
FACTOR_DISTINCT_EPS = 8.0 * np.finfo(np.float64).eps

TRIAL_VOCAB_SIZES = (2, 3, 16, 64)
TRIAL_LOGIT_SCALES = (0.1, 1.0, 10.0)
TRIAL_BETAS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
TRIAL_GAMMAS = (0.0, 1.0, 2.0, 3.0, 5.0)


class OracleError(RuntimeError):
    """Raised when a finite-difference evaluation turns up a non-finite value."""


@dataclass(frozen=True)
class FiniteDiffSpec:
    """Central-difference step, relative tolerance, and absolute noise ceiling.

    The absolute term matters because central differences carry a noise floor
    of roughly eps * (value magnitude) / step regardless of how small the true
    gradient is. Saturated draws (target probability within an ulp of 1) have
    true gradients far below that floor, so a pure ratio there measures noise,
    not correctness. The comparison is |fd - analytic| <= tolerance * |analytic|
    + atol; atol = 1e-8 sits an order of magnitude above the worst absolute
    deviation observed over 10k trials of the full draw grid (9.2e-10).
    """

    step: float = 1e-5
    tolerance: float = 1e-5
    atol: float = 1e-8

    @property
    def norm_floor(self) -> float:
        """Gradient norm below which the absolute term dominates the check."""
        return self.atol / self.tolerance


FD_SPEC = FiniteDiffSpec()  # the step and tolerances of every finite-difference check


@dataclass
class CheckReport:
    """Outcome of one verification battery.

    passed requires max_rel_error <= tolerance and, when a finite-difference
    channel ran, fd_max_rel_error <= fd_tolerance, each finite, plus any extra
    predicate the check tracks in extras (witness found, zero separation
    violations). counterexample holds the inputs of the first trial that broke.
    """

    name: str
    trials: int
    max_rel_error: float
    tolerance: float
    passed: bool
    counterexample: dict | None = None
    fd_max_rel_error: float | None = None
    fd_tolerance: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class Trial:
    z: np.ndarray
    index: int
    beta: float
    gamma: float

    def describe(self) -> dict:
        return {
            "z": self.z.tolist(),
            "target": self.index,
            "beta": self.beta,
            "gamma": self.gamma,
        }


class _Tally:
    """One check's verdict: each error channel's bound and worst error, and the
    first trial that broke the check, as the dict its `inputs()` returns.

    The first channel is the report's max_rel_error; one named fd is also its
    fd_max_rel_error. A non-finite error counts as inf, which breaks any bound.
    """

    def __init__(self, **bounds: float):
        self.bounds = bounds
        self.worst = dict.fromkeys(bounds, 0.0)
        self.counterexample = None

    def add(self, channel: str, err: float, inputs: Callable[[], dict]) -> float:
        """Fold one trial's error into a channel; returns it, inf if non-finite."""
        if not math.isfinite(err):
            err = math.inf
        if err > self.bounds[channel]:
            self.flag(inputs)
        self.worst[channel] = max(self.worst[channel], err)
        return err

    def flag(self, inputs: Callable[[], dict]):
        """Record a trial that broke the check, unless an earlier one did."""
        if self.counterexample is None:
            self.counterexample = inputs()

    def report(self, name: str, trials: int, holds: bool = True, extras: dict | None = None) -> CheckReport:
        """The check's report: it passes when every channel's worst error is
        within its bound and the check's own conditions `holds`."""
        first = next(iter(self.bounds))
        passed = holds and all(self.worst[c] <= bound for c, bound in self.bounds.items())
        return CheckReport(
            name=name,
            trials=trials,
            max_rel_error=self.worst[first],
            tolerance=self.bounds[first],
            passed=passed,
            counterexample=None if passed else self.counterexample,
            fd_max_rel_error=self.worst.get("fd"),
            fd_tolerance=self.bounds.get("fd"),
            extras=extras or {},
        )


def draw_trial(rng: np.random.Generator) -> Trial:
    """One random configuration from the pinned grid of sizes, scales, and knobs."""
    size = TRIAL_VOCAB_SIZES[rng.integers(len(TRIAL_VOCAB_SIZES))]
    scale = TRIAL_LOGIT_SCALES[rng.integers(len(TRIAL_LOGIT_SCALES))]
    z = rng.normal(0.0, scale, size)
    return Trial(
        z=z,
        index=int(rng.integers(size)),
        beta=TRIAL_BETAS[rng.integers(len(TRIAL_BETAS))],
        gamma=TRIAL_GAMMAS[rng.integers(len(TRIAL_GAMMAS))],
    )


def rel_error(candidate, reference, floor: float = 1e-12) -> float:
    """max_j |a_j - b_j| / (max_j |b_j| + floor), analytic side as reference.

    The default floor only guards division by zero, which suits comparisons of
    two closed forms (their agreement does not degrade as the gradient
    shrinks). Finite-difference comparisons pass floor = FD_SPEC.norm_floor,
    which turns `rel_error <= tol` into the mixed test |a-b| <= tol*|b| + atol.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return float(np.abs(candidate - reference).max() / (np.abs(reference).max() + floor))


def fd_gradient(value_fn: Callable[[np.ndarray], np.ndarray], z) -> np.ndarray:
    """Central-difference gradient of a function of the logits, from one call.

    value_fn maps stencil rows (N, V) to their values (N,). It gets the whole
    stencil at once: row j is z with FD_SPEC.step added to component j, row
    V + j is z with it subtracted. Raises OracleError naming the first
    component whose pair of values is not finite.
    """
    z = np.asarray(z, dtype=np.float64)
    size = z.size
    cols = np.arange(size)
    rows = np.tile(z, (2 * size, 1))
    rows[cols, cols] += FD_SPEC.step
    rows[size + cols, cols] -= FD_SPEC.step
    values = np.asarray(value_fn(rows), dtype=np.float64)
    if values.shape != (2 * size,):
        raise ValueError(f"value_fn must map {2 * size} stencil rows to {2 * size} values, got shape {values.shape}")
    fp, fm = values[:size], values[size:]
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        j = int(bad.argmax())
        raise OracleError(f"non-finite value at component {j}: f+={float(fp[j])} f-={float(fm[j])}")
    return (fp - fm) / (2.0 * FD_SPEC.step)


def frozen_value_fn(
    cfg: LossConfig, z0, target: Target, position: int = 1, length: int = 1
) -> Callable[[np.ndarray], np.ndarray]:
    """Values of logit rows (N, V) with detached quantities frozen at z0.

    One route for every objective: its OBJECTIVE_TABLE value formula on the
    log-softmax of all the rows, with the detached quantity (GEM's tempered
    distribution, lambda-PR's weight and with it the drop indicator, TOFU's
    focal factor) taken at the log-softmax of z0. The oracle returns the same
    formula at its own point, so at z0 the value is the oracle's, and row i's
    value is the formula at that row alone, bit for bit. A target or z0 the
    oracle rejects raises the oracle's error class, checked in its order.
    """
    objective = OBJECTIVE_TABLE[cfg.objective]
    params = cfg.params(position, length)
    l0 = _oracle_inputs(z0, target)
    return lambda rows: objective.value(log_softmax(rows), target.index, params, l0)


def verify_gem_equivalence(trials: int = 1000, seed: int = 0) -> CheckReport:
    """GEM's closed-form gradient equals the tempered-CE gradient, and both
    match finite differences of the GEM value with the tempered distribution
    frozen at the base point."""
    rng = np.random.default_rng(seed)
    tally = _Tally(identity=IDENTITY_TOL, fd=FD_SPEC.tolerance)
    for _ in range(trials):
        t = draw_trial(rng)
        target = Target.one_hot(t.index)
        g_gem = gem(t.z, target, t.beta).grad
        g_sce = scaled_ce(t.z, target, t.beta).grad
        tally.add("identity", rel_error(g_gem, g_sce), t.describe)
        numeric = fd_gradient(frozen_value_fn(LossConfig("gem", beta=t.beta), t.z, target), t.z)
        for analytic in (g_gem, g_sce):
            tally.add("fd", rel_error(numeric, analytic, FD_SPEC.norm_floor), t.describe)
    return tally.report("gem_equivalence", trials)


def verify_focal_scaling(trials: int = 1000, seed: int = 0) -> CheckReport:
    """One-hot focal gradients are g(p_hat, gamma)-rescaled CE gradients; the
    rescaling does NOT survive an expectation over soft targets (expected_loss),
    witnessed by componentwise ratios."""
    rng = np.random.default_rng(seed)
    tally = _Tally(identity=FOCAL_PROPORTION_TOL, fd=FD_SPEC.tolerance)
    for _ in range(trials):
        t = draw_trial(rng)
        target = Target.one_hot(t.index)
        got = focal(t.z, target, FocalConfig(t.gamma)).grad
        p_hat = float(np.exp(log_softmax(t.z))[t.index])
        tally.add("identity", rel_error(got, focal_scaling(p_hat, t.gamma) * ce(t.z, target).grad), t.describe)
        numeric = fd_gradient(frozen_value_fn(LossConfig("focal", gamma=t.gamma), t.z, target), t.z)
        tally.add("fd", rel_error(numeric, got, FD_SPEC.norm_floor), t.describe)

    # Soft-target witness. Needs vocab >= 3: gradients of both losses sum to
    # zero, so at size 2 they are always collinear and the ratios cannot split.
    soft_trials = max(1, trials // 10)
    max_spread = 0.0
    witness = None
    for _ in range(soft_trials):
        size = int(rng.choice([3, 16, 64]))
        z = rng.normal(0.0, 1.0, size)
        q = rng.dirichlet(np.ones(size))
        gamma = float(rng.choice([1.0, 2.0, 3.0, 5.0]))
        got = expected_loss(z, q, LossConfig("focal", gamma=gamma)).grad
        cg = expected_loss(z, q, LossConfig("ce")).grad
        keep = np.abs(cg) > 1e-6 * np.abs(cg).max()
        ratios = got[keep] / cg[keep]
        spread = float(ratios.max() - ratios.min())
        if spread > max_spread:
            max_spread = spread
            witness = {"z": z.tolist(), "q": q.tolist(), "gamma": gamma}
    found = max_spread > RATIO_SPREAD_MIN
    extras = {"soft_trials": soft_trials, "max_ratio_spread": max_spread, "witness": witness, "witness_found": found}
    return tally.report("focal_scaling", trials, found, extras)


def verify_tofu_scaling(trials: int = 1000, seed: int = 0) -> CheckReport:
    """TOFU and its naive variant are both rescaled tempered-CE gradients, with
    focal factors taken at p_hat and p_hat^beta respectively, and the two
    gradient vectors must actually differ on every eligible trial.

    Mathematically the factors differ whenever gamma > 0, beta < 1 and the
    logits are non-uniform. Float64 truncates that statement at both ends: a
    target probability that rounds to exactly 1 zeroes both factors, and a
    vanishing one pushes both factors onto the same representable value next
    to 1. Eligibility therefore additionally demands the factors sit more than
    FACTOR_DISTINCT_EPS apart (relative) and the shared direction p^beta - q
    be nonzero; with that, equal gradients would be an implementation bug, and
    every excluded trial is counted in extras rather than silently dropped.

    Draws go on past `trials` until max(1, trials // 5) of them are eligible,
    up to trials + 100 times that floor; a check that hits the cap fails. The
    report's trials is the number of draws made.
    """
    rng = np.random.default_rng(seed)
    tally = _Tally(identity=IDENTITY_TOL)
    min_separation = np.inf
    violations = 0
    eligible = 0
    excluded = {"gamma_zero": 0, "beta_high": 0, "uniform_logits": 0, "float_degenerate": 0}
    floor = max(1, trials // 5)
    draws = 0
    while draws < trials or (eligible < floor and draws < trials + 100 * floor):
        draws += 1
        t = draw_trial(rng)
        target = Target.one_hot(t.index)
        cfg = TofuConfig(t.gamma, t.beta)
        base = scaled_ce(t.z, target, t.beta)
        l = log_softmax(t.z)
        p_hat = float(np.exp(l[t.index]))
        pb_hat = float(np.exp(tempered_log_softmax(l, t.beta)[t.index]))
        g_raw = focal_scaling(p_hat, t.gamma)
        g_tempered = focal_scaling(pb_hat, t.gamma)
        grad_tofu = tofu(t.z, target, cfg).grad
        grad_naive = naive_tempered_focal(t.z, target, cfg).grad
        tally.add("identity", rel_error(grad_tofu, g_raw * base.grad), t.describe)
        tally.add("identity", rel_error(grad_naive, g_tempered * base.grad), t.describe)

        if t.gamma == 0.0:
            excluded["gamma_zero"] += 1
            continue
        if t.beta > 0.9:
            excluded["beta_high"] += 1
            continue
        if np.ptp(t.z) == 0.0:
            excluded["uniform_logits"] += 1
            continue
        distinct = abs(g_raw - g_tempered) > FACTOR_DISTINCT_EPS * max(g_raw, g_tempered)
        if not distinct or np.abs(base.grad).max() == 0.0:
            excluded["float_degenerate"] += 1
            continue
        eligible += 1
        min_separation = min(
            min_separation, abs(g_raw - g_tempered) / max(g_raw, g_tempered)
        )
        if np.array_equal(grad_tofu, grad_naive):
            violations += 1
            tally.flag(t.describe)
    extras = {
        "eligible_trials": eligible,
        "excluded": excluded,
        "equal_gradient_violations": violations,
        "min_factor_separation": None if not np.isfinite(min_separation) else float(min_separation),
    }
    return tally.report("tofu_scaling", draws, violations == 0 and eligible >= floor, extras)


def verify_entropy_bounded(min_probs=None) -> CheckReport:
    """The entropy logit gradient stays finite as a probability vanishes, and
    the vanishing component's magnitude decays monotonically toward zero.
    A failure's counterexample is the first min-prob where either broke. The
    gradients at all min-probs come from one entropy_logit_gradient_rows call."""
    if min_probs is None:
        min_probs = [10.0**-e for e in range(3, 301)]
    tally = _Tally(identity=1e-8)
    all_finite = monotone = True
    final = math.inf
    vanishing = np.array(min_probs, dtype=np.float64)
    grads = entropy_logit_gradient_rows(np.log(np.stack([1.0 - vanishing, vanishing], axis=1)))
    for eps, grad in zip(min_probs, grads):
        if not np.all(np.isfinite(grad)):
            all_finite, final = False, math.inf
            tally.flag(lambda: {"min_prob": eps})
            break
        magnitude = abs(float(grad[1]))
        if magnitude >= final:
            monotone = False
            tally.flag(lambda: {"min_prob": eps})
        final = magnitude
    extras = {"all_finite": all_finite, "monotone": monotone, "min_prob_floor": float(min(min_probs))}
    tally.add("identity", final, lambda: {"min_prob": eps})
    return tally.report("entropy_gradient_bounded", len(min_probs), all_finite and monotone, extras)


def _trial_loss_config(name: str, t: Trial, rng: np.random.Generator) -> tuple[LossConfig, int, int]:
    """Loss config plus (position, length) for one fd trial of the named objective."""
    if name == "lambda_pr":
        lam = float(rng.choice([0.5, 0.8, 1.0]))
        alpha = float(rng.choice([0.25, 0.5, 1.0]))
        length = int(rng.integers(1, 9))
        position = int(rng.integers(1, length + 1))
        return LossConfig(name, lam=lam, alpha=alpha), position, length
    return LossConfig(name, gamma=t.gamma, beta=t.beta), 1, 1


def verify_finite_difference(trials: int = 1000, seed: int = 0, objectives=None) -> CheckReport:
    """Every objective's closed-form gradient against central differences.

    Runs `trials` random draws per objective, each at a one-hot target;
    lambda-PR additionally varies its position/length pair so the position
    discount is exercised.
    """
    names = tuple(objectives) if objectives else OBJECTIVES
    for name in names:
        if name not in OBJECTIVES:
            raise ValueError(f"unknown objective {name!r}")
    rng = np.random.default_rng(seed)
    tally = _Tally(fd=FD_SPEC.tolerance)
    per_objective = {}
    for name in names:
        worst = 0.0
        for _ in range(trials):
            t = draw_trial(rng)
            target = Target.one_hot(t.index)
            cfg, position, length = _trial_loss_config(name, t, rng)
            analytic = token_loss(t.z, target, cfg, position=position, length=length).grad
            numeric = fd_gradient(frozen_value_fn(cfg, t.z, target, position, length), t.z)

            def inputs():
                return {**cfg.key(), "z": t.z.tolist(), "target": t.index, "position": position, "length": length}

            worst = max(worst, tally.add("fd", rel_error(numeric, analytic, FD_SPEC.norm_floor), inputs))
        per_objective[name] = worst
    return tally.report("finite_difference_oracle", trials * len(names), extras={"per_objective": per_objective})


def run_all_checks(trials: int = 1000, seed: int = 0, objectives=None) -> list[CheckReport]:
    """The full battery, deterministically seeded per check.

    With an objective filter only the finite-difference oracle runs, restricted
    to that objective.
    """
    if objectives:
        return [verify_finite_difference(trials, seed + 4, objectives=objectives)]
    return [
        verify_gem_equivalence(trials, seed),
        verify_focal_scaling(trials, seed + 1),
        verify_tofu_scaling(trials, seed + 2),
        verify_entropy_bounded(),
        verify_finite_difference(trials, seed + 4),
    ]
