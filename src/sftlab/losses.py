"""Per-token SFT objectives with closed-form logit gradients.

Every objective maps (logits, target) to a LossResult holding a scalar value
and the analytic gradient with respect to the logits. The closed forms are
canonical; the value expressions exist for reporting and for finite-difference
cross-checks. Quantities documented as "detached" (the tempered distribution in
GEM, the focal factor in TOFU, the weight and indicator in lambda-PR) are
computed as plain constants before the gradient is assembled, which is all
"stop-gradient" means without an autograd tape.

OBJECTIVE_TABLE states each objective's facts once: its scalar function, the
hyperparameters it consumes, its rows kernel, its one value formula over
log-prob rows, its default beta and whether it takes soft targets. The value
formula takes the detached quantity at base log-probs, so the oracle (at its
own point) and finite differences (held at the base point) read the same
expression. Its names, in order, are OBJECTIVES: ce, scaled_ce, gem, focal,
lambda_pr, tofu, naive_tempered_focal.

Training runs batch_loss over (N, V) logits. It makes the checks every
objective shares and calls the objective's table kernel, with no code of its
own per objective. The scalar functions are the kernels' reference oracle:
batch_loss reproduces token_loss row by row, bit for bit, and the tests hold
it to that.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Callable

import numpy as np

from .numerics import (
    INT_TYPES,
    _normalize,
    as_probs,
    as_vector,
    check_temperature,
    log_softmax,
    row_dots,
    temper,
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
        if type(index) not in INT_TYPES:
            raise ValueError(f"target index must be an integer, got {index!r}")
        index = int(index)
        if index < 0:
            raise ValueError(f"target index must be >= 0, got {index}")
        return cls(index=index)

    @classmethod
    def soft(cls, dist) -> "Target":
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
        if not INT_TYPES.issuperset((type(self.position), type(self.length))):
            raise ValueError(f"position and length must be integers, got {self.position!r} and {self.length!r}")
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


def _tempered(l: np.ndarray, beta: float) -> np.ndarray:
    """tempered_log_softmax(l, beta) without its input checks, bit for bit:
    l is log_softmax's output, already valid log-probs, and params() or the
    oracle range-checked beta."""
    return _normalize(l / beta)


# Value formulas (Objective.value). Each maps log-prob rows l (N, V) to their
# values (N,) at the target, with the objective's detached quantity taken at
# base log-probs l0 (V,) and held constant over the rows. The oracle returns
# the formula at its own log-probs; finite differences call it once on the
# whole stencil. Dots with the target are numerics.row_dots, so row i is the
# value at that row alone, bit for bit.


def _ce_value(l: np.ndarray, target: Target, _, l0: np.ndarray) -> np.ndarray:
    return -row_dots(l, target.dense(l.shape[1]))


def _scaled_ce_value(l: np.ndarray, target: Target, beta: float, l0: np.ndarray) -> np.ndarray:
    return -beta * row_dots(_tempered(l, beta), target.dense(l.shape[1]))


def _gem_value(l: np.ndarray, target: Target, beta: float, l0: np.ndarray) -> np.ndarray:
    pb0 = np.exp(_tempered(l0, beta))  # detached tempered distribution
    return -row_dots(l, target.dense(l.shape[1])) + row_dots(l, pb0)


def _focal_value(l: np.ndarray, target: Target, cfg: FocalConfig, l0: np.ndarray) -> np.ndarray:
    return -row_dots((1.0 - np.exp(l)) ** cfg.gamma * l, target.dense(l.shape[1]))


def _lambda_pr_value(l: np.ndarray, target: Target, cfg: PrConfig, l0: np.ndarray) -> np.ndarray:
    k = target.index
    return -pr_weight(np.exp(l0)[k], cfg) * l[:, k]  # detached weight


def _tofu_value(l: np.ndarray, target: Target, cfg: TofuConfig, l0: np.ndarray) -> np.ndarray:
    k = target.index
    g0 = focal_scaling(float(np.exp(l0[k])), cfg.gamma)  # detached focal factor
    return -g0 * cfg.beta * _tempered(l, cfg.beta)[:, k]


def _naive_tempered_focal_value(l: np.ndarray, target: Target, cfg: TofuConfig, l0: np.ndarray) -> np.ndarray:
    lb_k = _tempered(l, cfg.beta)[:, target.index]
    factor = np.array([(1.0 - x) ** cfg.gamma for x in np.exp(lb_k).tolist()])
    return -cfg.beta * factor * lb_k


def _oracle_inputs(name: str, z, target: Target) -> tuple[np.ndarray, np.ndarray]:
    """The named objective's input checks, in the order every oracle and
    finite differences make them (z a vector, a soft target only where the
    objective takes one, the target fitting z), then log_softmax(z) and the
    dense target."""
    z = as_vector(z)
    if not (target.is_one_hot or OBJECTIVE_TABLE[name].soft_targets):
        raise UnsupportedTargetError(f"{name} is defined for one-hot targets only")
    q = target.dense(z.size)
    return log_softmax(z), q


def ce(z, target: Target) -> LossResult:
    """Cross-entropy: value -sum_i q_i l_i, gradient p - q."""
    l, q = _oracle_inputs("ce", z, target)
    return LossResult(float(_ce_value(l[None], target, None, l)[0]), np.exp(l) - q)


def scaled_ce(z, target: Target, beta: float) -> LossResult:
    """Tempered cross-entropy -beta * sum_i q_i l^beta_i; gradient p^beta - q.

    The beta prefactor cancels the 1/beta from the tempered log-softmax
    jacobian, so the gradient is exactly the tempered residual.
    """
    beta = check_temperature(beta)
    l, q = _oracle_inputs("scaled_ce", z, target)
    return LossResult(float(_scaled_ce_value(l[None], target, beta, l)[0]), temper(l, beta) - q)


def gem(z, target: Target, beta: float = GEM_DEFAULT_BETA) -> LossResult:
    """GEM: cross-entropy plus an entropy-like term paid under the detached
    tempered distribution.

    value = -sum_i q_i l_i + sum_i pb_i l_i with pb = temper(l, beta) held
    constant. Its logit gradient collapses to pb - q, identical to the
    tempered cross-entropy gradient; the closed form is used directly rather
    than differentiating the value expression naively.
    """
    beta = check_temperature(beta)
    l, q = _oracle_inputs("gem", z, target)
    return LossResult(float(_gem_value(l[None], target, beta, l)[0]), temper(l, beta) - q)


def focal(z, target: Target, cfg: FocalConfig) -> LossResult:
    """Focal loss -sum_i q_i (1 - p_i)^gamma l_i.

    For a one-hot target the gradient is exactly g(p_hat, gamma) * (p - q),
    a rescaled cross-entropy gradient. For a soft target the general
    expression applies, grad_j = p_j * sum_i q_i g_i - q_j g_j with
    g_i = focal_scaling(p_i, gamma), which is not proportional to p - q in
    general (the per-component factors differ).
    """
    l, q = _oracle_inputs("focal", z, target)
    p = np.exp(l)
    value = float(_focal_value(l[None], target, cfg, l)[0])
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
    l, q = _oracle_inputs("lambda_pr", z, target)
    p = np.exp(l)
    w = pr_weight(p[target.index], cfg)
    return LossResult(float(_lambda_pr_value(l[None], target, cfg, l)[0]), w * (p - q))


def tofu(z, target: Target, cfg: TofuConfig) -> LossResult:
    """TOFU: tempered cross-entropy scaled by a focal factor on the raw probability.

    value = -g(p_hat, gamma) * beta * l^beta_k with g detached and p_hat taken
    from the UNtempered distribution. Gradient: g(p_hat, gamma) * (p^beta - q).
    Computing the focal factor before tempering is the point; see
    naive_tempered_focal for what goes wrong otherwise.
    """
    l, q = _oracle_inputs("tofu", z, target)
    g = focal_scaling(float(np.exp(l[target.index])), cfg.gamma)  # detached
    value = float(_tofu_value(l[None], target, cfg, l)[0])
    return LossResult(value, g * (temper(l, cfg.beta) - q))


def naive_tempered_focal(z, target: Target, cfg: TofuConfig) -> LossResult:
    """Pitfall baseline: focal factor computed on the already-tempered probability.

    value = -beta * (1 - p^beta_k)^gamma * l^beta_k, whose gradient is
    g(p_hat^beta, gamma) * (p^beta - q). Because tempering with beta < 1
    sharpens the distribution, the factor saturates toward 0 much earlier than
    TOFU's g(p_hat, gamma): the objective stops pushing exactly where focal
    pressure was wanted. Kept in the zoo as a contrast case.
    """
    l, q = _oracle_inputs("naive_tempered_focal", z, target)
    pb = temper(l, cfg.beta)
    value = float(_naive_tempered_focal_value(l[None], target, cfg, l)[0])
    return LossResult(value, focal_scaling(float(pb[target.index]), cfg.gamma) * (pb - q))


# Row kernels (Objective.kernel). Each repeats its oracle's arithmetic and
# checks operation for operation, vectorised, so row i is the oracle's result
# bit for bit. The scalars the oracle takes from Python float powers are
# computed the same way, row by row: numpy's vectorised pow rounds differently.


def _residual(p: np.ndarray, at) -> np.ndarray:
    """p - q for one-hot rows q."""
    out = p.copy()
    out[at] -= 1.0
    return out


def _ce_rows(l, at, *_):
    return -l[at], _residual(np.exp(l), at)


def _scaled_ce_rows(l, at, beta: float, *_):
    lb = _tempered(l, beta)
    return -beta * lb[at], _residual(np.exp(lb), at)


def _gem_rows(l, at, beta: float, *_):
    pb = np.exp(_tempered(l, beta))
    return -l[at] + row_dots(pb, l), _residual(pb, at)


def _focal_rows(l, at, cfg: FocalConfig, *_):
    p = np.exp(l)
    p_hat = p[at]
    return -((1.0 - p_hat) ** cfg.gamma * l[at]), focal_scaling(p_hat, cfg.gamma)[:, None] * _residual(p, at)


def _lambda_pr_rows(l, at, cfg: PrConfig, positions, lengths):
    if np.any(positions < 1) or np.any(positions > lengths):
        raise ValueError("need 1 <= position <= length in every row")
    deltas = {m: drop_threshold(PrConfig(cfg.lam, cfg.alpha, 1, m)) for m in set(lengths.tolist())}
    delta = np.array([deltas[m] for m in lengths.tolist()])
    position_factor = np.array([cfg.lam ** ((i - 1) / m) for i, m in zip(positions.tolist(), lengths.tolist())])
    p = np.exp(l)
    p_hat = p[at]
    if not np.all((0.0 <= p_hat) & (p_hat <= 1.0)):
        raise ValueError("p_hat must lie in [0, 1]")
    w = np.where(p_hat > delta, 0.0, position_factor * p_hat / (cfg.alpha + (1.0 - cfg.alpha) * p_hat))
    return -w * l[at], w[:, None] * _residual(p, at)


def _tofu_rows(l, at, cfg: TofuConfig, *_):
    lb = _tempered(l, cfg.beta)
    g = focal_scaling(np.exp(l[at]), cfg.gamma)
    return -g * cfg.beta * lb[at], g[:, None] * _residual(np.exp(lb), at)


def _naive_tempered_focal_rows(l, at, cfg: TofuConfig, *_):
    lb = _tempered(l, cfg.beta)
    pb = np.exp(lb)
    pb_k = pb[at]
    factor = np.array([(1.0 - x) ** cfg.gamma for x in pb_k.tolist()])
    return -cfg.beta * factor * lb[at], focal_scaling(pb_k, cfg.gamma)[:, None] * _residual(pb, at)


@dataclass(frozen=True)
class Objective:
    """One OBJECTIVE_TABLE entry. oracle(z, target, params) is the scalar
    reference; params(cfg, position, length) builds its params argument from
    the hyperparameters the objective consumes, which is also their range
    check; kernel(l, at, params, positions, lengths), the oracle's rows form
    that batch_loss calls, maps log-prob rows l (N, V) with one-hot targets
    at = (arange(N), targets), params at position 1 of 1 and the rows' int
    positions and lengths to values (N,) and logit gradients (N, V);
    value(l, target, params, l0) is the objective's one value formula: the
    values (N,) of log-prob rows l (N, V) at the target, with any detached
    quantity taken at base log-probs l0 (V,). The oracle returns
    value(l[None], target, params, l)[0], and finite differences call it on
    the whole stencil with l0 held at the base point."""

    oracle: Callable[[Any, Target, Any], LossResult]
    params: Callable[["LossConfig", int, int], Any]
    kernel: Callable[..., tuple[np.ndarray, np.ndarray]]
    value: Callable[[np.ndarray, Target, Any, np.ndarray], np.ndarray]
    default_beta: float = 1.0
    soft_targets: bool = False


def _beta_params(cfg: "LossConfig", position: int, length: int) -> float:
    return cfg.resolved_beta()


def _tofu_params(cfg: "LossConfig", position: int, length: int) -> TofuConfig:
    return TofuConfig(cfg.gamma, cfg.resolved_beta())


OBJECTIVE_TABLE = {
    "ce": Objective(lambda z, target, _: ce(z, target), lambda cfg, i, m: None, _ce_rows, _ce_value, soft_targets=True),
    "scaled_ce": Objective(scaled_ce, _beta_params, _scaled_ce_rows, _scaled_ce_value, TEMPERED_DEFAULT_BETA, soft_targets=True),
    "gem": Objective(gem, _beta_params, _gem_rows, _gem_value, GEM_DEFAULT_BETA, soft_targets=True),
    "focal": Objective(focal, lambda cfg, i, m: FocalConfig(cfg.gamma), _focal_rows, _focal_value, soft_targets=True),
    "lambda_pr": Objective(lambda_pr, lambda cfg, i, m: PrConfig(cfg.lam, cfg.alpha, i, m), _lambda_pr_rows, _lambda_pr_value),
    "tofu": Objective(tofu, _tofu_params, _tofu_rows, _tofu_value, TEMPERED_DEFAULT_BETA),
    "naive_tempered_focal": Objective(naive_tempered_focal, _tofu_params, _naive_tempered_focal_rows, _naive_tempered_focal_value, TEMPERED_DEFAULT_BETA),
}
OBJECTIVES = tuple(OBJECTIVE_TABLE)


@dataclass(frozen=True)
class LossConfig:
    """Objective selector plus the union of hyperparameters the zoo uses.

    beta = None resolves to the per-objective default (0.7 for gem, 0.8 for
    the tempered objectives, 1.0 where temperature is meaningless). A field's
    `file_key` metadata is its name in config files, where it differs.
    """

    objective: str = field(metadata={"file_key": "name"})
    gamma: float = 3.0
    beta: float | None = None
    lam: float = field(default=1.0, metadata={"file_key": "lambda"})
    alpha: float = 0.5

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
        if self.beta is not None:
            check_temperature(self.beta)

    def resolved_beta(self) -> float:
        return OBJECTIVE_TABLE[self.objective].default_beta if self.beta is None else self.beta

    def params(self, position: int = 1, length: int = 1) -> Any:
        """The oracle's params argument; raises ValueError on a position or
        length that is not an int, or a consumed hyperparameter out of range.
        The length-1 check is exact: the lambda-PR drop threshold lies in
        (0, 1] at every length iff it does at length 1."""
        if not INT_TYPES.issuperset((type(position), type(length))):
            raise ValueError(f"position and length must be integers, got {position!r} and {length!r}")
        return OBJECTIVE_TABLE[self.objective].params(self, position, length)

    def to_dict(self) -> dict:
        """The config-file form: each field under its file key."""
        return {f.metadata.get("file_key", f.name): getattr(self, f.name) for f in fields(self)}

    def key(self) -> dict:
        """JSON-able canonical form of what the objective consumes: its name and
        resolved params(). Configs with equal keys get bit-identical batch_loss
        outputs: batch_loss computes with no hyperparameter outside params()."""
        p = self.params()
        return {"objective": self.objective, "params": asdict(p) if is_dataclass(p) else p}


def token_loss(z, target: Target, cfg: LossConfig, position: int = 1, length: int = 1) -> LossResult:
    """Dispatch a single-token loss through the objective named in cfg."""
    return OBJECTIVE_TABLE[cfg.objective].oracle(z, target, cfg.params(position, length))


def batch_loss(logits, targets, positions, lengths, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-row values (N,) and logit gradients (N, V) of the objective in cfg.

    Row i is token_loss(logits[i], Target.one_hot(targets[i]), cfg,
    position=positions[i], length=lengths[i]) bit for bit, and a batch the
    scalar path rejects raises the same error class. This function makes the
    checks every objective shares (the shapes, integer targets, positions and
    lengths, the target range), takes the oracle's numerics.log_softmax of all
    rows at once, input checks included, and calls the objective's table
    kernel with cfg.params(), the only hyperparameters it sees.
    """
    params = cfg.params()
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be an (N, V) array, got shape {z.shape}")
    n, v = z.shape
    k, positions, lengths = (np.asarray(a) for a in (targets, positions, lengths))
    if not k.shape == positions.shape == lengths.shape == (n,):
        raise ValueError(
            f"need one target, position and length per row, got shapes {k.shape}, "
            f"{positions.shape}, {lengths.shape} for {n} rows"
        )
    if n and any(a.dtype.kind not in "iu" for a in (k, positions, lengths)):
        raise ValueError(f"targets, positions and lengths must be integers, got {k.dtype}/{positions.dtype}/{lengths.dtype}")
    k, positions, lengths = (a.astype(np.int64, copy=False) for a in (k, positions, lengths))
    l = log_softmax(z)
    if np.any(k < 0) or np.any(k >= v):
        raise ValueError(f"target index out of range for vocab {v}")
    return OBJECTIVE_TABLE[cfg.objective].kernel(l, (np.arange(n), k), params, positions, lengths)
