"""Singular values, the unitarily invariant norm family, and weak/log
majorization predicates.

A unitarily invariant norm is determined by singular values alone, and
dominance in every Ky Fan norm (equivalently, weak majorization of the
singular value sequences) certifies dominance in every unitarily invariant
norm.  That Fan dominance principle is what makes "for all unitarily
invariant norms" finitely testable here.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidNormError, ShapeError
from .linalg import _as_stack, as_matrix

# The verdict tolerance, the one definition every check and campaign reads:
# predicates return a signed margin next to the boolean so inequality
# chains near equality do not flap on rounding.  The band is relative only,
# so scaling the inputs of a chain homogeneous in them (all but
# Bourin-Uchiyama with a non-power f, and the regularized path) does not
# change a verdict; at scale 0 every term and margin is exactly 0.
REL_TOL = 1e-9
# Floor for log(sigma) when a singular value is exactly 0 (PSD stress tests).
LOG_FLOOR = math.log(1e-300)

SCHATTEN = "schatten"
KY_FAN = "kyfan"
OPERATOR = "operator"
TRACE = "trace"


@dataclass(frozen=True)
class NormSpec:
    """Tagged choice of unitarily invariant norm.

    ``schatten`` carries an exponent ``p >= 1`` (``inf`` for the operator
    norm); ``kyfan`` carries an index ``k >= 1``.  ``operator`` and
    ``trace`` are parameter-free aliases of Schatten-inf and Schatten-1.
    """

    kind: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind == SCHATTEN:
            if self.p is None or not self.p >= 1.0:
                raise InvalidNormError(f"Schatten exponent must be >= 1 or inf, got {self.p!r}")
        elif self.kind == KY_FAN:
            if not (isinstance(self.k, int) and self.k >= 1):
                raise InvalidNormError(f"invalid Ky Fan index in 'kyfan:{self.k}'")
        elif self.kind not in (OPERATOR, TRACE):
            raise InvalidNormError(f"unknown norm kind {self.kind!r}")

    @classmethod
    def schatten(cls, p):
        return cls(SCHATTEN, p=float(p))

    @classmethod
    def ky_fan(cls, k):
        return cls(KY_FAN, k=int(k) if float(k).is_integer() else k)

    @classmethod
    def operator(cls):
        return cls(OPERATOR)

    @classmethod
    def trace(cls):
        return cls(TRACE)

    @classmethod
    def parse(cls, text):
        """Parse ``"schatten:p"``, ``"kyfan:k"``, ``"operator"``, ``"trace"``."""
        name, _, arg = text.strip().lower().partition(":")
        if name in (SCHATTEN, KY_FAN):
            try:
                value = float(arg)   # "inf" and "infinity" included
            except ValueError:
                raise InvalidNormError(f"cannot parse norm spec {text!r}: "
                                       f"{arg!r} is not a number") from None
            return cls.schatten(value) if name == SCHATTEN else cls.ky_fan(value)
        if name == OPERATOR and not arg:
            return cls.operator()
        if name == TRACE and not arg:
            return cls.trace()
        raise InvalidNormError(f"cannot parse norm spec {text!r}")

    def __str__(self):
        if self.kind == SCHATTEN:
            return f"schatten:{'inf' if math.isinf(self.p) else format_float(self.p)}"
        if self.kind == KY_FAN:
            return f"kyfan:{self.k}"
        return self.kind


def format_float(x):
    """Compact float formatting for norm-spec strings (2.0 -> '2')."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def default_norm_specs(n):
    """Campaign default: Schatten p in {1, 1.5, 2, 3, inf} plus Ky Fan 1..n."""
    specs = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    specs.extend(NormSpec.ky_fan(k) for k in range(1, n + 1))
    return specs


def singular_values(m):
    """Singular values of a square matrix, sorted nonincreasing.

    Mathematically the eigenvalue square roots of M*M; computed with a
    one-sided SVD because explicitly forming M*M squares the condition
    number and loses the small singular values of strongly graded
    products (matrix powers of the inequality chains reach condition
    numbers beyond what the squared form can resolve in float64).  For a
    stack of matrices (leading batch axes), one sequence per slice.
    """
    m = _as_stack(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def norm_from_singular_values(sigma, spec):
    """Evaluate a norm spec on precomputed singular value sequences (the last
    axis): a float for one sequence, an array of the same bits for a stack."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if spec.kind == KY_FAN and spec.k > sigma.shape[-1]:
        raise InvalidNormError(f"invalid Ky Fan index {spec.k} for dimension {sigma.shape[-1]}")
    if spec.kind == OPERATOR or (spec.kind == SCHATTEN and math.isinf(spec.p)):
        value = sigma[..., 0]
    elif spec.kind == KY_FAN:
        value = sigma[..., : spec.k].sum(axis=-1)
    elif spec.kind == TRACE:
        value = sigma.sum(axis=-1)
    elif spec.kind == SCHATTEN:
        with np.errstate(over="ignore"):
            value = _schatten(sigma, spec.p)
        # Where the sum of powers overflows although the sequence is
        # finite, scale by sigma_1 first; every finite value keeps its bits.
        over = np.isinf(value)
        if over.any():
            over &= np.isfinite(sigma).all(axis=-1)
            top = sigma[over].max(axis=-1, keepdims=True)
            value[over] = top[:, 0] * _schatten(sigma[over] / top, spec.p)
    else:
        raise InvalidNormError(f"unknown norm kind {spec.kind!r}")
    return float(value) if sigma.ndim == 1 else value


def _schatten(sigma, p):
    # The root goes through the C library's pow one value at a time:
    # NumPy's vectorized power can round differently.
    sums, root = (sigma ** p).sum(axis=-1), 1.0 / p
    return np.array([x ** root for x in sums.ravel().tolist()]).reshape(sums.shape)


def tolerance_band(scale):
    """Width of the numerical-tie band around zero for a given term scale:
    a margin at or above ``-tolerance_band(scale)`` counts as holding."""
    return REL_TOL * scale


def ui_norm(m, spec):
    """Unitarily invariant norm of a matrix.

    Parameters
    ----------
    m : array_like
        Square matrix (need not be Hermitian).
    spec : NormSpec
        Which member of the family to evaluate.

    Returns
    -------
    float
        Schatten-p: (sum sigma_i^p)^(1/p); Ky Fan-k: sum of k largest
        sigma_i; operator: sigma_1; trace: sum sigma_i.
    """
    return norm_from_singular_values(singular_values(m), spec)


def spectral_norm(m):
    """sigma_1, the operator norm: a float for one matrix, an array for a stack."""
    return ui_norm(m, NormSpec.operator())


class MajorizationResult(NamedTuple):
    """Boolean verdict plus the signed margin that produced it."""

    holds: bool
    margin: float


def weak_majorization(x, y):
    """Test x prec_w y: every prefix sum of x is at most that of y.

    Parameters
    ----------
    x, y : array_like
        Nonnegative sequences of equal length (sorted internally).

    Returns
    -------
    MajorizationResult
        ``margin`` is the minimum prefix-sum difference (y - x), signed and
        tolerance-free; ``holds`` applies ``tolerance_band(sum(y))``.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))[::-1]
    y = np.sort(np.asarray(y, dtype=np.float64))[::-1]
    if x.shape != y.shape:
        raise ShapeError(f"shape error: sequences of length {x.shape[0]} vs {y.shape[0]}")
    diffs = np.cumsum(y) - np.cumsum(x)
    margin = float(diffs.min())
    return MajorizationResult(bool(margin >= -tolerance_band(float(np.sum(y)))), margin)


def log_majorization(a, b):
    """Test A prec_log B on singular values: prefix products dominate.

    Products are compared as prefix sums of log(sigma) with zero singular
    values floored at log(1e-300) so PSD inputs stay finite.  The verdict
    allows a factor ``(1 + REL_TOL)^k`` on the k-th prefix product, a band
    that is already free of scale in log space; the reported margin is the
    raw minimum log prefix-sum difference.
    """
    sa = singular_values(as_matrix(a))
    sb = singular_values(as_matrix(b))
    if sa.shape != sb.shape:
        raise ShapeError("shape error: matrices have different dimensions")
    la = np.cumsum(np.maximum(np.log(np.maximum(sa, 1e-300)), LOG_FLOOR))
    lb = np.cumsum(np.maximum(np.log(np.maximum(sb, 1e-300)), LOG_FLOOR))
    ks = np.arange(1, sa.shape[0] + 1, dtype=np.float64)
    margin = float((lb - la).min())
    holds = bool(np.all(la <= lb + ks * math.log1p(REL_TOL)))
    return MajorizationResult(holds, margin)


def fan_dominance(a, b):
    """Test |||A||| <= |||B||| for every unitarily invariant norm.

    Implemented as weak majorization of the singular value sequences,
    which is equivalent by the Fan dominance principle.
    """
    return weak_majorization(singular_values(as_matrix(a)), singular_values(as_matrix(b)))
