"""Per-token SFT objectives with closed-form logit gradients.

Every objective maps (logits, one-hot target) to a LossResult holding a scalar
value and the analytic gradient with respect to the logits. The closed forms
are canonical; the value expressions exist for reporting and for
finite-difference cross-checks. Quantities documented as "detached" (the
tempered distribution in GEM, the focal factor in TOFU, the weight and
indicator in lambda-PR) are computed as plain constants before the gradient is
assembled, which is all "stop-gradient" means without an autograd tape.

OBJECTIVE_TABLE states each objective's facts once: the hyperparameters it
consumes, its rows kernel, its one value formula over log-prob rows and its
default beta. Its names, in order, are OBJECTIVES: ce, scaled_ce, gem, focal,
lambda_pr, tofu, naive_tempered_focal.

The rows kernel is the one written form of each one-hot logit gradient.
Training runs it through batch_loss over (N, V) logits, which makes the checks
every objective shares with no code of its own per objective. The scalar
functions (token_loss and one per objective) take their gradient from
_kernel_row, the kernel's row 0, and their value from the value formula. The
gradient battery reads its gradients from _kernel_row too, so it checks the
code training runs against finite differences of a formula written apart
from it.

Targets are one-hot. The loss at a soft target q is expected_loss: the
expectation over k ~ q of the loss at target k, one batch_loss call over the
V one-hot rows. For ce, scaled_ce, gem and focal, whose values are linear in
the target, that expectation is the usual soft-target loss.
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
    check_gamma,
    check_temperature,
    log_softmax,
    row_dots,
)

# Flagged defaults: the GEM temperature is inherited from its original
# publication rather than re-derived here, and the lambda-PR pair (1.0, 0.5)
# yields drop threshold 1.0 so nothing is discarded. Sweep before trusting.
GEM_DEFAULT_BETA = 0.7
TEMPERED_DEFAULT_BETA = 0.8


class DropThresholdError(ValueError):
    """Raised when the lambda-PR drop threshold falls outside (0, 1]."""

    def __init__(self, delta: float, message: str):
        super().__init__(message)
        self.delta = delta


@dataclass(frozen=True)
class Target:
    """A one-hot supervision target: the index of the target token, an
    integer >= 0 kept as a Python int. The oracle checks it against the
    vocab."""

    index: int

    def __post_init__(self):
        if type(self.index) not in INT_TYPES:
            raise ValueError(f"target index must be an integer, got {self.index!r}")
        if self.index < 0:
            raise ValueError(f"target index must be >= 0, got {self.index}")
        object.__setattr__(self, "index", int(self.index))

    @classmethod
    def one_hot(cls, index: int) -> "Target":
        return cls(index)


@dataclass(frozen=True)
class LossResult:
    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class FocalConfig:
    gamma: float = 3.0

    def __post_init__(self):
        check_gamma(self.gamma)


@dataclass(frozen=True)
class TofuConfig:
    gamma: float = 3.0
    beta: float = TEMPERED_DEFAULT_BETA

    def __post_init__(self):
        check_gamma(self.gamma)
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
    gamma = check_gamma(gamma)
    p = np.asarray(p_hat, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if not (np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)):  # NaN fails too
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
    s = l / beta
    return _normalize(s, out=s)


# Value formulas (Objective.value). Each maps log-prob rows l (N, V) to their
# values (N,) at target index k, with the objective's detached quantity taken
# at base log-probs l0 (V,) and held constant over the rows. The oracle
# returns the formula at its own log-probs; finite differences call it once on
# the whole stencil. Row i is the value at that row alone, bit for bit.


def _ce_value(l: np.ndarray, k: int, _, l0: np.ndarray) -> np.ndarray:
    return -l[:, k]


def _scaled_ce_value(l: np.ndarray, k: int, beta: float, l0: np.ndarray) -> np.ndarray:
    return -beta * _tempered(l, beta)[:, k]


def _gem_value(l: np.ndarray, k: int, beta: float, l0: np.ndarray) -> np.ndarray:
    pb0 = np.exp(_tempered(l0, beta))  # detached tempered distribution
    return -l[:, k] + row_dots(l, pb0)


def _focal_value(l: np.ndarray, k: int, cfg: FocalConfig, l0: np.ndarray) -> np.ndarray:
    return -((1.0 - np.exp(l)[:, k]) ** cfg.gamma * l[:, k])


def _lambda_pr_value(l: np.ndarray, k: int, cfg: PrConfig, l0: np.ndarray) -> np.ndarray:
    return -pr_weight(np.exp(l0)[k], cfg) * l[:, k]  # detached weight


def _tofu_value(l: np.ndarray, k: int, cfg: TofuConfig, l0: np.ndarray) -> np.ndarray:
    g0 = focal_scaling(float(np.exp(l0[k])), cfg.gamma)  # detached focal factor
    return -g0 * cfg.beta * _tempered(l, cfg.beta)[:, k]


def _naive_factor(pb_k: np.ndarray, gamma: float) -> np.ndarray:
    """(1 - pb_k)^gamma by Python float pow: numpy's vectorised pow rounds differently."""
    return np.array([(1.0 - x) ** gamma for x in pb_k.tolist()])


def _naive_tempered_focal_value(l: np.ndarray, k: int, cfg: TofuConfig, l0: np.ndarray) -> np.ndarray:
    lb_k = _tempered(l, cfg.beta)[:, k]
    return -cfg.beta * _naive_factor(np.exp(lb_k), cfg.gamma) * lb_k


def _oracle_inputs(z, target: Target) -> np.ndarray:
    """The input checks every oracle and finite differences make, in one
    order (z a vector, the target index inside it), then log_softmax(z)."""
    z = as_vector(z)
    if target.index >= z.size:
        raise ValueError(f"target index {target.index} out of range for vocab {z.size}")
    return log_softmax(z)


def _kernel_row(name: str, l: np.ndarray, index: int, params, position: int = 1, length: int = 1) -> np.ndarray:
    """Row 0 of the named objective's kernel: the logit gradient at log-probs
    l (V,) that _oracle_inputs returned, at target index, params, position and
    length. The oracles and the gradient battery take every gradient here."""
    kernel = OBJECTIVE_TABLE[name].kernel
    return kernel(l[None], ([0], [index]), params, np.array([position]), np.array([length]))[1][0]


def _oracle(name: str, z, target: Target, params, position: int = 1, length: int = 1) -> LossResult:
    """The one path of every oracle: the named objective's value formula, and
    row 0 of its kernel at this position and length."""
    l = _oracle_inputs(z, target)
    value = float(OBJECTIVE_TABLE[name].value(l[None], target.index, params, l)[0])
    return LossResult(value, _kernel_row(name, l, target.index, params, position, length))


def ce(z, target: Target) -> LossResult:
    """Cross-entropy: value -sum_i q_i l_i, gradient p - q."""
    return _oracle("ce", z, target, None)


def scaled_ce(z, target: Target, beta: float) -> LossResult:
    """Tempered cross-entropy -beta * sum_i q_i l^beta_i; gradient p^beta - q.

    The beta prefactor cancels the 1/beta from the tempered log-softmax
    jacobian, so the gradient is exactly the tempered residual.
    """
    return _oracle("scaled_ce", z, target, check_temperature(beta))


def gem(z, target: Target, beta: float = GEM_DEFAULT_BETA) -> LossResult:
    """GEM: cross-entropy plus an entropy-like term paid under the detached
    tempered distribution.

    value = -sum_i q_i l_i + sum_i pb_i l_i with pb = temper(l, beta) held
    constant. Its logit gradient collapses to pb - q, identical to the
    tempered cross-entropy gradient; the closed form is used directly rather
    than differentiating the value expression naively.
    """
    return _oracle("gem", z, target, check_temperature(beta))


def focal(z, target: Target, cfg: FocalConfig) -> LossResult:
    """Focal loss -sum_i q_i (1 - p_i)^gamma l_i.

    The gradient is exactly g(p_hat, gamma) * (p - q), a rescaled
    cross-entropy gradient. Its expectation over a soft q (expected_loss) is
    grad_j = p_j * sum_i q_i g_i - q_j g_j with g_i = focal_scaling(p_i,
    gamma), which is not proportional to p - q in general (the per-component
    factors differ).
    """
    return _oracle("focal", z, target, cfg)


def lambda_pr(z, target: Target, cfg: PrConfig) -> LossResult:
    """lambda-PR: cross-entropy reweighted by the detached pr_weight.

    The weight (position discount, drop
    indicator, and saturating probability ratio) is computed from the current
    forward pass and treated as a constant, so the gradient is w * (p - q).
    Tokens over the drop threshold get weight 0: value and gradient vanish.
    """
    return _oracle("lambda_pr", z, target, cfg, cfg.position, cfg.length)


def tofu(z, target: Target, cfg: TofuConfig) -> LossResult:
    """TOFU: tempered cross-entropy scaled by a focal factor on the raw probability.

    value = -g(p_hat, gamma) * beta * l^beta_k with g detached and p_hat taken
    from the UNtempered distribution. Gradient: g(p_hat, gamma) * (p^beta - q).
    Computing the focal factor before tempering is the point; see
    naive_tempered_focal for what goes wrong otherwise.
    """
    return _oracle("tofu", z, target, cfg)


def naive_tempered_focal(z, target: Target, cfg: TofuConfig) -> LossResult:
    """Pitfall baseline: focal factor computed on the already-tempered probability.

    value = -beta * (1 - p^beta_k)^gamma * l^beta_k, whose gradient is
    g(p_hat^beta, gamma) * (p^beta - q). Because tempering with beta < 1
    sharpens the distribution, the factor saturates toward 0 much earlier than
    TOFU's g(p_hat, gamma): the objective stops pushing exactly where focal
    pressure was wanted. Kept in the zoo as a contrast case.
    """
    return _oracle("naive_tempered_focal", z, target, cfg)


# Row kernels (Objective.kernel): the one written form of each one-hot logit
# gradient, run by training over a batch and taken by each oracle as row 0.
# Row i's value is its value formula's at that row, bit for bit.


def _residual(p: np.ndarray, at, scale: np.ndarray | None = None) -> np.ndarray:
    """p - q for one-hot rows q, each row times its entry of scale (N,) when
    given. Written into p, so each kernel passes an array of its own that it
    reads no more."""
    p[at] -= 1.0
    if scale is not None:
        p *= scale[:, None]
    return p


def _ce_rows(l, at, *_):
    return -l[at], _residual(np.exp(l), at)


def _scaled_ce_rows(l, at, beta: float, *_):
    lb = _tempered(l, beta)
    return -beta * lb[at], _residual(np.exp(lb), at)


def _gem_rows(l, at, beta: float, *_):
    pb = np.exp(_tempered(l, beta))
    value = -l[at] + row_dots(pb, l)
    return value, _residual(pb, at)


def _focal_rows(l, at, cfg: FocalConfig, *_):
    p = np.exp(l)
    p_hat = p[at]
    return -((1.0 - p_hat) ** cfg.gamma * l[at]), _residual(p, at, focal_scaling(p_hat, cfg.gamma))


def _lambda_pr_rows(l, at, cfg: PrConfig, positions, lengths):
    if np.any(positions < 1) or np.any(positions > lengths):
        raise ValueError("need 1 <= position <= length in every row")
    deltas = {m: drop_threshold(PrConfig(cfg.lam, cfg.alpha, 1, m)) for m in set(lengths.tolist())}
    delta = np.array([deltas[m] for m in lengths.tolist()])
    position_factor = np.array([cfg.lam ** ((i - 1) / m) for i, m in zip(positions.tolist(), lengths.tolist())])
    p = np.exp(l)
    p_hat = p[at]
    w = np.where(p_hat > delta, 0.0, position_factor * p_hat / (cfg.alpha + (1.0 - cfg.alpha) * p_hat))
    return -w * l[at], _residual(p, at, w)


def _tofu_rows(l, at, cfg: TofuConfig, *_):
    lb = _tempered(l, cfg.beta)
    g = focal_scaling(np.exp(l[at]), cfg.gamma)
    return -g * cfg.beta * lb[at], _residual(np.exp(lb), at, g)


def _naive_tempered_focal_rows(l, at, cfg: TofuConfig, *_):
    lb = _tempered(l, cfg.beta)
    pb = np.exp(lb)
    pb_k = pb[at]
    return -cfg.beta * _naive_factor(pb_k, cfg.gamma) * lb[at], _residual(pb, at, focal_scaling(pb_k, cfg.gamma))


@dataclass(frozen=True)
class Objective:
    """One OBJECTIVE_TABLE entry. params(cfg, position, length) builds the
    objective's params argument from the hyperparameters it consumes, which
    is also their range check. kernel(l, at, params, positions, lengths) maps
    log-prob rows l (N, V), one-hot targets at = (arange(N), targets), params
    and the rows' int positions and lengths to values (N,) and logit gradients
    (N, V). value(l, k, params, l0) is the value formula at target index k."""

    params: Callable[["LossConfig", int, int], Any]
    kernel: Callable[..., tuple[np.ndarray, np.ndarray]]
    value: Callable[[np.ndarray, int, Any, np.ndarray], np.ndarray]
    default_beta: float = 1.0


def _beta_params(cfg: "LossConfig", position: int, length: int) -> float:
    return cfg.resolved_beta()


def _tofu_params(cfg: "LossConfig", position: int, length: int) -> TofuConfig:
    return TofuConfig(cfg.gamma, cfg.resolved_beta())


OBJECTIVE_TABLE = {
    "ce": Objective(lambda cfg, i, m: None, _ce_rows, _ce_value),
    "scaled_ce": Objective(_beta_params, _scaled_ce_rows, _scaled_ce_value, TEMPERED_DEFAULT_BETA),
    "gem": Objective(_beta_params, _gem_rows, _gem_value, GEM_DEFAULT_BETA),
    "focal": Objective(lambda cfg, i, m: FocalConfig(cfg.gamma), _focal_rows, _focal_value),
    "lambda_pr": Objective(lambda cfg, i, m: PrConfig(cfg.lam, cfg.alpha, i, m), _lambda_pr_rows, _lambda_pr_value),
    "tofu": Objective(_tofu_params, _tofu_rows, _tofu_value, TEMPERED_DEFAULT_BETA),
    "naive_tempered_focal": Objective(_tofu_params, _naive_tempered_focal_rows, _naive_tempered_focal_value, TEMPERED_DEFAULT_BETA),
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
    return _oracle(cfg.objective, z, target, cfg.params(position, length), position, length)


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


def expected_loss(z, q, cfg: LossConfig) -> LossResult:
    """The loss of logits z (V,) at a soft target q (V,): the expectation over
    k ~ q of token_loss(z, Target.one_hot(k), cfg), lambda-PR at position 1
    of 1. One batch_loss call on V copies of z, row k at target k, then q @
    its values and q @ its gradients.

    For ce, scaled_ce, gem and focal, whose values are linear in the target,
    this is the usual soft-target loss: gradients p - q, p^beta - q, p^beta - q
    and p * (q . g) - q * g with g = focal_scaling(p, gamma). Raises
    ValueError for a z that is not a vector or a q that is not a probability
    vector of its length.
    """
    z = as_vector(z)
    q = as_probs(q)
    if q.size != z.size:
        raise ValueError(f"target distribution has length {q.size}, expected {z.size}")
    ones = np.ones(z.size, dtype=np.int64)
    values, grads = batch_loss(np.broadcast_to(z, (z.size, z.size)), np.arange(z.size), ones, ones, cfg)
    return LossResult(float(q @ values), q @ grads)
