"""Log-space probability primitives shared by every objective.

All distribution math in this package runs in float64 log space; probabilities
are materialized with exp() only at boundaries (sampling, reporting, probe
output). Log-probabilities are floored at LOG_FLOOR instead of -inf so that
products like p * log p evaluate to ~0 rather than nan when a token's
probability underflows.
"""

from __future__ import annotations

import numpy as np

# exp(LOG_FLOOR) is the smallest positive denormal; anything below underflows to 0.
LOG_FLOOR = -745.0

# Python's int and every numpy integer scalar type; bool and np.bool_ are not
# among them, so True is not read as index 1
INT_TYPES = frozenset([int, *(np.dtype(code).type for code in np.typecodes["AllInteger"])])


def as_logits(z) -> np.ndarray:
    """Validate unnormalized logits, a vector (V,) or rows (N, V): float64,
    V >= 2, finite."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] < 2:
        raise ValueError(f"logits must be a vector (V,) or rows (N, V) with V >= 2, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return z


def as_vector(x) -> np.ndarray:
    """x as a float64 vector (V,), for the functions of one distribution."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector (V,), got shape {x.shape}")
    return x


def as_log_probs(l) -> np.ndarray:
    """Validate log-probabilities, a vector (V,) or rows (N, V) with V >= 2:
    entries <= 0, each row's logsumexp within 1e-9 of 0."""
    l = np.asarray(l, dtype=np.float64)
    if l.ndim not in (1, 2) or l.shape[-1] < 2:
        raise ValueError(f"log-probs must be a vector (V,) or rows (N, V) with V >= 2, got shape {l.shape}")
    if (l > 1e-12).any():
        raise ValueError(f"log-probs must be <= 0, max entry {l.max()}")
    lse = np.abs(logsumexp(l))
    if (lse > 1e-9).any():
        raise ValueError(f"log-probs must normalize: |logsumexp| up to {lse.max()}")
    return np.minimum(l, 0.0)


def as_probs(p) -> np.ndarray:
    """Validate a probability vector: entries in [0, 1], sum within 1e-9 of 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"probabilities must be a 1-d vector, got shape {p.shape}")
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        raise ValueError("probabilities must lie in [0, 1]")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    return np.clip(p, 0.0, 1.0)


def check_temperature(beta) -> float:
    """Temperatures live in (0, 1]; beta = 1 is the identity and is admitted."""
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"temperature must lie in (0, 1], got {beta}")
    return beta


def check_gamma(gamma) -> float:
    """Focal exponents are finite and >= 0; gamma = 0 is plain CE weighting."""
    gamma = float(gamma)
    if not 0.0 <= gamma < np.inf:  # False for NaN too
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    return gamma


def logsumexp(x):
    """log(sum(exp(x))) over the last axis: 0-d for a vector, (N,) for rows."""
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))[..., 0]


def _normalize(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """s - logsumexp(s) over the last axis, max-shifted and floored at LOG_FLOOR,
    written into out when given (s itself, for a caller that owns s), else
    into a fresh array.

    Max-subtraction guarantees every output entry is <= 0 exactly, and the
    floor never disturbs normalization beyond a few denormals.
    """
    s = np.subtract(s, s.max(axis=-1, keepdims=True), out=out)
    s -= np.log(np.exp(s).sum(axis=-1, keepdims=True))
    return np.maximum(s, LOG_FLOOR, out=s)


def log_softmax(z) -> np.ndarray:
    """Normalized log-probabilities of logits, a vector or each of N rows,
    floored at LOG_FLOOR."""
    return _normalize(as_logits(z))


def tempered_log_softmax(l, beta) -> np.ndarray:
    """Log-probabilities of the tempered distribution softmax(l / beta), of a
    vector or each of N rows.

    Dividing log-probabilities by beta < 1 sharpens the distribution; beta = 1
    returns l unchanged up to rounding. Equivalent to tempering the underlying
    logits, since the shared logsumexp shift cancels.
    """
    return _normalize(as_log_probs(l) / check_temperature(beta))


def temper(l, beta) -> np.ndarray:
    """Tempered probabilities softmax(l / beta) as a materialized vector."""
    return np.exp(tempered_log_softmax(l, beta))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a[i], b[i]) for each row i of a (N, V), with b rows (N, V) or
    one vector (V,) shared by every row: (N,).

    One stacked matmul of (1, V) by (V, 1) products, which numpy runs as the
    BLAS dot np.dot makes on two vectors, so each entry is its row's np.dot
    bit for bit. a @ b, (a * b).sum(-1) and einsum round differently.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def entropy_from_log_probs(l) -> float:
    """Shannon entropy in nats, H = -sum p * l, safe at floored entries."""
    l = as_log_probs(as_vector(l))
    return float(-np.dot(np.exp(l), l))


def entropy_logit_gradient_rows(l) -> np.ndarray:
    """dH/dz_j = -p_j (l_j - sum_i l_i p_i) for each of N log-prob rows (N, V).

    Derived by composing dH/dl_i = -(l_i + 1) p_i with the log-softmax
    jacobian; the +1 terms cancel. Each component carries a factor p_j, so the
    gradient stays bounded as any probability vanishes: no 1/p explosion. The
    mean is row_dots, the np.dot the formula on one vector takes, on each row.
    """
    l = as_log_probs(l)
    if l.ndim != 2:
        raise ValueError(f"expected rows (N, V), got shape {l.shape}")
    p = np.exp(l)
    mean_log = row_dots(l, p)
    return -p * (l - mean_log[:, None])


def entropy_logit_gradient(l) -> np.ndarray:
    """entropy_logit_gradient_rows of one log-prob vector (V,), validated as a
    vector first so that an error names its own shape."""
    return entropy_logit_gradient_rows(as_log_probs(as_vector(l))[None])[0]
