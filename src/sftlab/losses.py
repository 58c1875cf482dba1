"""Per-token SFT objectives with closed-form logit gradients.

Every objective maps (logits, target) to a LossResult holding a scalar value
and the analytic gradient with respect to the logits. The closed forms are
canonical; the value expressions exist for reporting and for finite-difference
cross-checks. Quantities documented as "detached" (the tempered distribution in
GEM, the focal factor in TOFU, the weight and indicator in lambda-PR) are
computed as plain constants before the gradient is assembled, which is all
"stop-gradient" means without an autograd tape.

Objective names accepted by LossConfig: ce, scaled_ce, gem, focal, lambda_pr,
tofu, naive_tempered_focal.

Training runs batch_loss, one kernel over (N, V) logits for every objective.
The scalar functions are its reference oracle: batch_loss reproduces
token_loss row by row, bit for bit, and the tests hold it to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    LOG_FLOOR,
    as_logits,
    check_temperature,
    log_softmax,
    temper,
    tempered_log_softmax,
)

OBJECTIVES = (
    "ce",
    "scaled_ce",
    "gem",
    "focal",
    "lambda_pr",
    "tofu",
    "naive_tempered_focal",
)

# Flagged defaults: the GEM temperature is inherited from its original
# publication rather than re-derived here, and the lambda-PR pair (1.0, 0.5)
# yields drop threshold 1.0 so nothing is discarded. Sweep before trusting.
GEM_DEFAULT_BETA = 0.7
TEMPERED_DEFAULT_BETA = 0.8


class UnsupportedTargetError(ValueError):
    """Raised when an objective defined only for hard labels gets a soft target."""


class DropThresholdError(ValueError):
    """Raised when the lambda-PR drop threshold falls outside (0, 1]."""

    def __init__(self, delta: float, message: str):
        super().__init__(message)
        self.delta = delta


@dataclass(frozen=True, eq=False)
class Target:
    """A supervision target: either a token index or a full soft distribution."""

    index: int | None = None
    dist: np.ndarray | None = None

    def __post_init__(self):
        if (self.index is None) == (self.dist is None):
            raise ValueError("target needs exactly one of index or dist")

    @classmethod
    def one_hot(cls, index: int) -> "Target":
        index = int(index)
        if index < 0:
            raise ValueError(f"target index must be >= 0, got {index}")
        return cls(index=index)

    @classmethod
    def soft(cls, dist) -> "Target":
        from .numerics import as_probs

        d = as_probs(dist)
        d.setflags(write=False)
        return cls(dist=d)

    @property
    def is_one_hot(self) -> bool:
        return self.index is not None

    def dense(self, size: int) -> np.ndarray:
        """Materialize the target as a probability vector of the given length."""
        if self.index is not None:
            if self.index >= size:
                raise ValueError(f"target index {self.index} out of range for vocab {size}")
            q = np.zeros(size, dtype=np.float64)
            q[self.index] = 1.0
            return q
        if self.dist.size != size:
            raise ValueError(f"target distribution has length {self.dist.size}, expected {size}")
        return np.array(self.dist, dtype=np.float64)


@dataclass(frozen=True)
class LossResult:
    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class FocalConfig:
    gamma: float = 3.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"focal gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class TofuConfig:
    gamma: float = 3.0
    beta: float = TEMPERED_DEFAULT_BETA

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        check_temperature(self.beta)


@dataclass(frozen=True)
class PrConfig:
    """lambda-PR hyperparameters plus the token's 1-based position in a length-L response."""

    lam: float = 1.0
    alpha: float = 0.5
    position: int = 1
    length: int = 1

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.length < 1 or not 1 <= self.position <= self.length:
            raise ValueError(
                f"need 1 <= position <= length, got position={self.position} length={self.length}"
            )
        drop_threshold(self)  # fail fast on invalid (lam, alpha, length)


def drop_threshold(cfg: PrConfig) -> float:
    """Probability cutoff above which lambda-PR drops the token.

    delta = alpha * r / (1 - (1 - alpha) * r) with r = lam ** (1 / length).
    Must land in (0, 1]; anything else is a configuration error (for example
    alpha = 0, which sends delta to 0, or lam large enough to flip the sign
    of the denominator).
    """
    r = cfg.lam ** (1.0 / cfg.length)
    denom = 1.0 - (1.0 - cfg.alpha) * r
    delta = math.inf if denom <= 0 else cfg.alpha * r / denom
    if not 0.0 < delta <= 1.0:
        raise DropThresholdError(delta, f"drop threshold {delta} outside (0, 1] for {cfg}")
    return delta


def pr_weight(p_hat: float, cfg: PrConfig) -> float:
    """Detached lambda-PR weight for a token with current target probability p_hat.

    w = lam^((position-1)/length) * 1[p_hat <= delta] * p_hat / (alpha + (1-alpha) p_hat).
    """
    p_hat = float(p_hat)
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
    delta = drop_threshold(cfg)
    if p_hat > delta:
        return 0.0
    position_factor = cfg.lam ** ((cfg.position - 1) / cfg.length)
    return float(position_factor * p_hat / (cfg.alpha + (1.0 - cfg.alpha) * p_hat))


def focal_scaling(p_hat, gamma: float):
    """The focal gradient factor g(p, gamma) = (1-p)^gamma - gamma p (1-p)^(gamma-1) log p.

    Vectorized over p. Endpoints take their analytic limits: g(0, gamma) = 1
    (the p log p term vanishes) and g(p, 0) = 1 identically; for gamma > 0,
    g(1, gamma) = 0. For gamma >= 1 the factor rises above 1 to an interior
    maximum before falling to 0, which is what lets focal-style objectives
    keep pushing on low-probability tokens while releasing confident ones.
    """
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    p = np.asarray(p_hat, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        raise ValueError("p_hat must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    if gamma == 0.0:
        out = np.ones_like(p)
    else:
        one_m = 1.0 - p
        plogp = np.zeros_like(p)
        interior = (p > 0.0) & (p < 1.0)
        plogp[interior] = p[interior] * np.log(p[interior])
        # (1-p)^(gamma-1) diverges at p=1 for gamma < 1; the guarded branch
        # never evaluates there, and g(1, gamma) = 0 is forced explicitly.
        pow_gm1 = np.zeros_like(p)
        pow_gm1[one_m > 0.0] = one_m[one_m > 0.0] ** (gamma - 1.0)
        out = one_m**gamma - gamma * pow_gm1 * plogp
        out[p >= 1.0] = 0.0
    return float(out[0]) if scalar else out


def ce(z, target: Target) -> LossResult:
    """Cross-entropy: value -sum_i q_i l_i, gradient p - q."""
    l = log_softmax(as_logits(z))
    q = target.dense(l.size)
    p = np.exp(l)
    return LossResult(float(-np.dot(q, l)), p - q)


def scaled_ce(z, target: Target, beta: float) -> LossResult:
    """Tempered cross-entropy -beta * sum_i q_i l^beta_i; gradient p^beta - q.

    The beta prefactor cancels the 1/beta from the tempered log-softmax
    jacobian, so the gradient is exactly the tempered residual.
    """
    beta = check_temperature(beta)
    l = log_softmax(as_logits(z))
    lb = tempered_log_softmax(l, beta)
    q = target.dense(l.size)
    return LossResult(float(-beta * np.dot(q, lb)), np.exp(lb) - q)


def gem(z, target: Target, beta: float = GEM_DEFAULT_BETA) -> LossResult:
    """GEM: cross-entropy plus an entropy-like term paid under the detached
    tempered distribution.

    value = -sum_i q_i l_i + sum_i pb_i l_i with pb = temper(l, beta) held
    constant. Its logit gradient collapses to pb - q, identical to the
    tempered cross-entropy gradient; the closed form is used directly rather
    than differentiating the value expression naively.
    """
    beta = check_temperature(beta)
    l = log_softmax(as_logits(z))
    pb = temper(l, beta)  # detached: a constant from here on
    q = target.dense(l.size)
    value = float(-np.dot(q, l) + np.dot(pb, l))
    return LossResult(value, pb - q)


def focal(z, target: Target, cfg: FocalConfig) -> LossResult:
    """Focal loss -sum_i q_i (1 - p_i)^gamma l_i.

    For a one-hot target the gradient is exactly g(p_hat, gamma) * (p - q),
    a rescaled cross-entropy gradient. For a soft target the general
    expression applies, grad_j = p_j * sum_i q_i g_i - q_j g_j with
    g_i = focal_scaling(p_i, gamma), which is not proportional to p - q in
    general (the per-component factors differ).
    """
    l = log_softmax(as_logits(z))
    p = np.exp(l)
    q = target.dense(l.size)
    value = float(-np.dot(q, (1.0 - p) ** cfg.gamma * l))
    if target.is_one_hot:
        grad = focal_scaling(p[target.index], cfg.gamma) * (p - q)
    else:
        gvec = focal_scaling(p, cfg.gamma)
        grad = p * float(np.dot(q, gvec)) - q * gvec
    return LossResult(value, grad)


def lambda_pr(z, target: Target, cfg: PrConfig) -> LossResult:
    """lambda-PR: cross-entropy reweighted by the detached pr_weight.

    Defined for hard labels only. The weight (position discount, drop
    indicator, and saturating probability ratio) is computed from the current
    forward pass and treated as a constant, so the gradient is w * (p - q).
    Tokens over the drop threshold get weight 0: value and gradient vanish.
    """
    if not target.is_one_hot:
        raise UnsupportedTargetError("lambda_pr is defined for one-hot targets only")
    l = log_softmax(as_logits(z))
    p = np.exp(l)
    q = target.dense(l.size)
    w = pr_weight(p[target.index], cfg)
    return LossResult(float(-w * l[target.index]), w * (p - q))


def tofu(z, target: Target, cfg: TofuConfig) -> LossResult:
    """TOFU: tempered cross-entropy scaled by a focal factor on the raw probability.

    value = -g(p_hat, gamma) * beta * l^beta_k with g detached and p_hat taken
    from the UNtempered distribution. Gradient: g(p_hat, gamma) * (p^beta - q).
    Computing the focal factor before tempering is the point; see
    naive_tempered_focal for what goes wrong otherwise.
    """
    if not target.is_one_hot:
        raise UnsupportedTargetError("tofu is defined for one-hot targets only")
    l = log_softmax(as_logits(z))
    lb = tempered_log_softmax(l, cfg.beta)
    q = target.dense(l.size)
    k = target.index
    g = focal_scaling(float(np.exp(l[k])), cfg.gamma)  # detached
    value = float(-g * cfg.beta * lb[k])
    return LossResult(value, g * (np.exp(lb) - q))


def naive_tempered_focal(z, target: Target, cfg: TofuConfig) -> LossResult:
    """Pitfall baseline: focal factor computed on the already-tempered probability.

    value = -beta * (1 - p^beta_k)^gamma * l^beta_k, whose gradient is
    g(p_hat^beta, gamma) * (p^beta - q). Because tempering with beta < 1
    sharpens the distribution, the factor saturates toward 0 much earlier than
    TOFU's g(p_hat, gamma): the objective stops pushing exactly where focal
    pressure was wanted. Kept in the zoo as a contrast case.
    """
    if not target.is_one_hot:
        raise UnsupportedTargetError("naive_tempered_focal is defined for one-hot targets only")
    l = log_softmax(as_logits(z))
    lb = tempered_log_softmax(l, cfg.beta)
    q = target.dense(l.size)
    k = target.index
    pb_k = float(np.exp(lb[k]))
    value = float(-cfg.beta * (1.0 - pb_k) ** cfg.gamma * lb[k])
    return LossResult(value, focal_scaling(pb_k, cfg.gamma) * (np.exp(lb) - q))


@dataclass(frozen=True)
class LossConfig:
    """Objective selector plus the union of hyperparameters the zoo uses.

    beta = None resolves to the per-objective default (0.7 for gem, 0.8 for
    the tempered objectives, 1.0 where temperature is meaningless).
    """

    objective: str
    gamma: float = 3.0
    beta: float | None = None
    lam: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
        if self.beta is not None:
            check_temperature(self.beta)

    def resolved_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        if self.objective == "gem":
            return GEM_DEFAULT_BETA
        if self.objective in ("scaled_ce", "tofu", "naive_tempered_focal"):
            return TEMPERED_DEFAULT_BETA
        return 1.0


def token_loss(z, target: Target, cfg: LossConfig, position: int = 1, length: int = 1) -> LossResult:
    """Dispatch a single-token loss through the objective named in cfg."""
    name = cfg.objective
    if name == "ce":
        return ce(z, target)
    if name == "scaled_ce":
        return scaled_ce(z, target, cfg.resolved_beta())
    if name == "gem":
        return gem(z, target, cfg.resolved_beta())
    if name == "focal":
        return focal(z, target, FocalConfig(cfg.gamma))
    if name == "lambda_pr":
        return lambda_pr(z, target, PrConfig(cfg.lam, cfg.alpha, position, length))
    if name == "tofu":
        return tofu(z, target, TofuConfig(cfg.gamma, cfg.resolved_beta()))
    if name == "naive_tempered_focal":
        return naive_tempered_focal(z, target, TofuConfig(cfg.gamma, cfg.resolved_beta()))
    raise ValueError(f"unknown objective {name!r}")


def _rows_log_softmax(z: np.ndarray) -> np.ndarray:
    """numerics.log_softmax applied to each row, with the same operations."""
    shifted = z - z.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return np.maximum(out, LOG_FLOOR)


def _rows_tempered_log_softmax(l: np.ndarray, beta: float) -> np.ndarray:
    """numerics.tempered_log_softmax applied to each row, as_log_probs' checks included."""
    if np.any(l > 1e-12):
        raise ValueError(f"log-probs must be <= 0, max entry {l.max()}")
    m = l.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(l - m).sum(axis=1, keepdims=True))
    if np.any(np.abs(lse) > 1e-9):
        raise ValueError(f"log-probs must normalize: logsumexp up to {np.abs(lse).max()}")
    return _rows_log_softmax(np.minimum(l, 0.0) / beta)


def _residual(p: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """p - q for one-hot rows q."""
    out = p.copy()
    out[np.arange(len(targets)), targets] -= 1.0
    return out


def batch_loss(logits, targets, positions, lengths, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-row values (N,) and logit gradients (N, V) of the objective in cfg.

    Row i is token_loss(logits[i], Target.one_hot(targets[i]), cfg,
    position=positions[i], length=lengths[i]) bit for bit, and a batch the
    scalar path rejects raises the same error class. The kernel repeats the
    scalar arithmetic operation for operation, with its checks in vectorised
    form. The scalars the oracle takes from Python float powers (lambda-PR's
    powers of lam, the naive focal value's (1 - p^beta_k)^gamma) or from a
    BLAS dot (the GEM value) are computed the same way here, row by row,
    because numpy's vectorised pow and reductions round differently.
    """
    name = cfg.objective
    beta = check_temperature(cfg.resolved_beta())
    # the scalar path's config objects, built here only for the errors they raise
    if name == "focal":
        FocalConfig(cfg.gamma)
    elif name in ("tofu", "naive_tempered_focal"):
        TofuConfig(cfg.gamma, beta)
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"logits must be an (N, V) array with V >= 2, got shape {z.shape}")
    n, v = z.shape
    k, positions, lengths = (np.asarray(a, dtype=np.int64) for a in (targets, positions, lengths))
    if not k.shape == positions.shape == lengths.shape == (n,):
        raise ValueError(
            f"need one target, position and length per row, got shapes {k.shape}, "
            f"{positions.shape}, {lengths.shape} for {n} rows"
        )
    if name == "lambda_pr":
        if np.any(positions < 1) or np.any(positions > lengths):
            raise ValueError("need 1 <= position <= length in every row")
        deltas = {m: drop_threshold(PrConfig(cfg.lam, cfg.alpha, 1, m)) for m in set(lengths.tolist())}
        delta = np.array([deltas[m] for m in lengths.tolist()])
        position_factor = np.array(
            [cfg.lam ** ((i - 1) / m) for i, m in zip(positions.tolist(), lengths.tolist())]
        )
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if np.any(k < 0) or np.any(k >= v):
        raise ValueError(f"target index out of range for vocab {v}")

    rows = np.arange(n)
    l = _rows_log_softmax(z)
    p = np.exp(l)
    l_k, p_hat = l[rows, k], p[rows, k]
    if name == "ce":
        return -l_k, _residual(p, k)
    if name == "focal":
        g = focal_scaling(p_hat, cfg.gamma)
        return -((1.0 - p_hat) ** cfg.gamma * l_k), g[:, None] * _residual(p, k)
    if name == "lambda_pr":
        if not np.all((0.0 <= p_hat) & (p_hat <= 1.0)):
            raise ValueError("p_hat must lie in [0, 1]")
        w = np.where(p_hat > delta, 0.0, position_factor * p_hat / (cfg.alpha + (1.0 - cfg.alpha) * p_hat))
        return -w * l_k, w[:, None] * _residual(p, k)

    lb = _rows_tempered_log_softmax(l, beta)
    pb = np.exp(lb)
    lb_k, residual = lb[rows, k], _residual(pb, k)
    if name == "scaled_ce":
        return -beta * lb_k, residual
    if name == "gem":
        return -l_k + np.array([np.dot(a, b) for a, b in zip(pb, l)]), residual
    if name == "tofu":
        g = focal_scaling(p_hat, cfg.gamma)
        return -g * beta * lb_k, g[:, None] * residual
    if name == "naive_tempered_focal":
        pb_k = pb[rows, k]
        factor = np.array([(1.0 - x) ** cfg.gamma for x in pb_k.tolist()])
        return -beta * factor * lb_k, focal_scaling(pb_k, cfg.gamma)[:, None] * residual
    raise ValueError(f"unknown objective {name!r}")
