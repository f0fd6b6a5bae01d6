"""The t-geometric mean, its regularized surrogate, and matrix sums.

The mean ``A #_t B = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2)`` is the
Riemannian geodesic between positive definite A and B at parameter t.
It requires invertible inputs; the surrogate for positive semidefinite
stress tests is the strict mean of the inputs shifted by one epsilon * I.
The chain terms built from these means live in
:mod:`matsharp.inequalities`; they share this module's strict-positivity
check and epsilon formula, so each is written once.
:func:`_mean_from_spectra`, :func:`regularization_epsilon` and
:func:`sum_matrices` also take stacks of matrices (leading batch axes),
one result per slice; :func:`_mean_from_spectra` also takes every t of a
grid at once.
"""

import numpy as np

from .errors import ConvergenceError, EmptySumError, NotPositiveDefiniteError, ShapeError
from .linalg import (
    Spectrum,
    _adjoint,
    _as_stack,
    _check_hermitian,
    _eigh,
    _symmetrize,
    as_matrix,
    clamp_psd_eigenvalues,
    spectrum_power,
)

# Default scale for the PSD regularization epsilon.
DEFAULT_EPSILON_SCALE = 1e-10

# Campaign grids: endpoints, the proven r >= 1 region, and the unproven
# r < 1 region for exploration.
DEFAULT_T_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
DEFAULT_R_GRID = (0.5, 1.0, 1.5, 2.0, 3.0)
DEFAULT_S_GRID = (0.5, 1.0, 2.0)


def _check_weight(t):
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")


def geometric_mean(a, b, t):
    """t-geometric mean of two strictly positive definite matrices.

    Parameters
    ----------
    a, b : array_like
        Hermitian strictly positive definite matrices of equal dimension.
    t : float
        Interpolation weight in [0, 1]; weight t sits on ``b``.

    Returns
    -------
    ndarray
        ``A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2)``, Hermitian positive
        definite.

    Raises
    ------
    NotPositiveDefiniteError
        If either input is singular or indefinite; use
        :func:`psd_geometric_mean` for PSD inputs.
    """
    _check_weight(t)
    sa, sb = _checked_spectra(as_matrix(a), as_matrix(b))
    return _mean_from_spectra(_strict_spectrum(sa, "A"), _strict_spectrum(sb, "B"), (t,))[0]


def _checked_spectra(a, b):
    """The spectra of A and B, or of stacks that broadcast against each other:
    each input checked once (square, finite, Hermitian, equal n), then decomposed."""
    a, b = _as_stack(a), _as_stack(b)
    _check_hermitian(a)
    _check_hermitian(b)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"shape error: dimensions {a.shape[-1]} vs {b.shape[-1]}")
    return _eigh(a), _eigh(b)


def _strict_spectrum(spec, name):
    """Return ``spec`` unchanged if its least eigenvalue is positive.

    Raises NotPositiveDefiniteError naming the matrix otherwise; the mean
    and every chain term with a negative power need strict positivity.
    """
    wmin = float(spec.eigenvalues[-1])
    if wmin <= 0.0:
        raise NotPositiveDefiniteError(
            f"{name} must be strictly positive definite (min eigenvalue {wmin:.3e})"
        )
    return spec


def _mean_from_spectra(sa, sb, ts):
    """The means A #_t B at every t in ``ts``, stacked (len(ts), ...) ahead
    of the spectra's own stack axes, one mean per slice."""
    # The inner matrix A^(-1/2) B A^(-1/2) equals K K* with
    # K = A^(-1/2) B^(1/2), so its spectral data comes from an SVD of K.
    # That halves the exponent range the solver must resolve and yields
    # the mean as an exactly positive product M M*, which preserves
    # epsilon-level eigenvalues of regularized means that the sandwiched
    # form loses to rounding.  K does not depend on t: one SVD serves every
    # t, and only s^t is taken per t.  A^(-1/2) and A^(1/2) are one assembly.
    a_inv_half, a_half = sa.assemble(np.array([spectrum_power(sa, p) for p in (-0.5, 0.5)]))
    try:
        u, s, _ = np.linalg.svd(a_inv_half @ sb.assemble(spectrum_power(sb, 0.5)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    s_t = np.array([np.power(s, t) for t in ts])
    m = a_half @ (u * s_t[..., None, :])
    mean = m @ _adjoint(m)
    if not np.isfinite(mean).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return _symmetrize(mean)


def _epsilon(epsilon_scale, w_a, w_b):
    """``epsilon_scale * (1 + max(||A||_2, ||B||_2))``, the shift of every
    regularized mean and chain, with ||.||_2 the largest |eigenvalue| in
    ``w_a`` or ``w_b`` over the last axis, one epsilon per pair of slices;
    ``epsilon_scale`` must be positive."""
    if not epsilon_scale > 0.0:
        raise ValueError(f"epsilon_scale must be positive, got {epsilon_scale!r}")
    return float(epsilon_scale) * (1.0 + np.maximum(np.abs(w_a).max(axis=-1),
                                                    np.abs(w_b).max(axis=-1)))


def regularization_epsilon(a, b, epsilon_scale=DEFAULT_EPSILON_SCALE):
    """The shift of the regularized mean, scale * (1 + max spectral norm),
    with ||A||_2 read as max|lambda| from one checked decomposition of A;
    for stacks that broadcast together, one epsilon per pair of slices."""
    return _epsilon(epsilon_scale, *(s.eigenvalues for s in _checked_spectra(a, b)))


def psd_geometric_mean(a, b, t, epsilon_scale=DEFAULT_EPSILON_SCALE):
    """Regularized t-geometric mean for positive semidefinite inputs: the
    strict mean of A + eps*I and B + eps*I, ``eps`` that of
    :func:`regularization_epsilon`, bit for bit as a regularized chain
    computes it for the one pair (A, B), from one decomposition per input
    whose eigenvalues pass the chain's PSD screen and are shifted by eps.
    A surrogate for singular inputs, not a limit claim: report eps with it.
    """
    _check_weight(t)
    sa, sb = _checked_spectra(as_matrix(a), as_matrix(b))
    clamp_psd_eigenvalues(np.stack([sa.eigenvalues, sb.eigenvalues]))
    eps = _epsilon(epsilon_scale, sa.eigenvalues, sb.eigenvalues)
    sa, sb = (Spectrum(s.eigenvalues + eps, s.vectors) for s in (sa, sb))
    return _mean_from_spectra(_strict_spectrum(sa, "A"), _strict_spectrum(sb, "B"), (t,))[0]


def sum_matrices(mats):
    """Entrywise sum of a nonempty list of Hermitian matrices.

    The summands may be equal-shape stacks of matrices; the sum is then
    taken slice by slice.  Every summand is validated as square, finite and
    Hermitian.
    """
    mats = [_as_stack(m) for m in mats]
    if not mats:
        raise EmptySumError("empty sum: at least one matrix is required")
    for m in mats:
        if m.shape != mats[0].shape:
            raise ShapeError(f"shape error: cannot sum {mats[0].shape} and {m.shape}")
    _check_hermitian(np.stack(mats, axis=-3))
    return _symmetrize(sum(mats))
