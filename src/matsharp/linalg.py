"""Dense complex matrix arithmetic, Hermitian eigendecomposition, and
spectral matrix functions.

All matrices are square ``numpy`` arrays of ``complex128``; real input is
promoted on entry.  Matrices are kept at desk scale (n up to a few dozen),
so accuracy and determinism are preferred over asymptotic speed.  Every
function is pure: identical input bits produce identical output bits.

The spectral hot path (:func:`_eigh`, :meth:`Spectrum.assemble`,
:func:`spectrum_power` and :func:`clamp_psd_eigenvalues`) also takes stacks:
arrays with leading batch axes, ``(..., n, n)`` for matrices and ``(..., n)``
for eigenvalues.  NumPy's ``eigh``, ``svd`` and ``@`` treat each slice of a
stack as they treat a single matrix, so every slice gets the bits of the
single-matrix call at a fraction of the per-call overhead.  The validating
entry points (:func:`as_matrix`, :func:`hermitian_part`,
:func:`hermitian_eigendecompose`) take one matrix.  The inequality kernels
have one boundary, ``inequalities._StackKernel``: it runs :func:`_as_stack`
and :func:`_check_hermitian` on each stack, and nothing behind it re-checks.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    HermitianDefectError,
    NotPositiveDefiniteError,
    ShapeError,
    SingularFunctionError,
)

# The one tolerance of every numerical screen: a defect counts when it
# exceeds SCREEN_RTOL times the matrix's own scale, with no absolute part,
# so a screen's outcome does not change when the input is scaled.
SCREEN_RTOL = 1e-12


def as_matrix(entries):
    """Validate and normalize input to a square complex128 matrix.

    Parameters
    ----------
    entries : array_like
        Square matrix data; real or complex.

    Returns
    -------
    ndarray of shape (n, n), complex128

    Raises
    ------
    ShapeError
        If the data is not a square matrix with n >= 1.
    ValueError
        If any entry is NaN or infinite.
    """
    a = np.asarray(entries)
    if a.ndim != 2:
        raise ShapeError(f"shape error: expected a square matrix, got shape {a.shape}")
    return _as_stack(a)


def _as_stack(entries):
    """:func:`as_matrix` for a matrix or a stack of them, shape (..., n, n)."""
    a = np.asarray(entries)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ShapeError(f"shape error: expected a square matrix, got shape {a.shape}")
    a = a.astype(np.complex128, copy=False)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def hermitian_part(a):
    """Symmetrize a matrix to (A + A*)/2.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian up to rounding: a defect
        ``||A - A*||_F`` above ``SCREEN_RTOL * ||A||_F`` raises
        HermitianDefectError.

    Returns
    -------
    ndarray
        Exactly Hermitian matrix (equal to its own conjugate transpose).
    """
    a = as_matrix(a)
    _check_hermitian(a)
    return _symmetrize(a)


def _adjoint(a):
    """Conjugate transpose of a matrix, or of every slice of a stack."""
    return a.conj().swapaxes(-1, -2)


def _symmetrize(a):
    """(A + A*)/2 of each slice of ``a``, halved before the sum: no finite
    entry overflows, and above the subnormal range the bits are (A + A*)/2's."""
    half = 0.5 * a
    half += _adjoint(half)
    return half


def _check_hermitian(a):
    """Raise HermitianDefectError unless every slice of ``a`` is Hermitian
    within ``||A - A*||_F <= SCREEN_RTOL * ||A||_F``."""
    defect = np.linalg.norm(a - _adjoint(a), axis=(-2, -1))
    excess = defect > SCREEN_RTOL * np.linalg.norm(a, axis=(-2, -1))
    if excess.any():
        raise HermitianDefectError(
            f"matrix is not Hermitian: defect {defect[excess].flat[0]:.3e} exceeds tolerance"
        )


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    Attributes
    ----------
    eigenvalues : ndarray of shape (..., n)
        Real eigenvalues, sorted nonincreasing.
    vectors : ndarray of shape (..., n, n)
        Columns are the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[-1]

    def __getitem__(self, index):
        """The spectrum of the slices ``index`` of a stacked one."""
        return Spectrum(self.eigenvalues[index], self.vectors[index])

    def assemble(self, values):
        """Rebuild V diag(values) V* as an exactly Hermitian matrix (per slice)."""
        values = np.asarray(values, dtype=np.float64)
        return _symmetrize((self.vectors * values[..., None, :]) @ _adjoint(self.vectors))


def _eigh(a):
    """Eigendecomposition without the invariant re-check (internal hot path).

    ``a`` is a matrix or a stack of them; it is symmetrized first.
    """
    try:
        w, v = np.linalg.eigh(_symmetrize(a))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    # Stable descending order keeps degenerate eigenspaces in LAPACK's
    # column order (the identity decomposes to identity vectors).  Without
    # ties, LAPACK's ascending order reversed is that order.
    if (w[..., 1:] > w[..., :-1]).all():
        return Spectrum(w[..., ::-1].copy(), v[..., ::-1].copy())
    order = np.argsort(-w, axis=-1, kind="stable")
    return Spectrum(np.take_along_axis(w, order, -1),
                    np.take_along_axis(v, order[..., None, :], -1))


def hermitian_eigendecompose(a):
    """Eigendecompose a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Hermitian matrix (validated; symmetrized via (A + A*)/2).

    Returns
    -------
    Spectrum
        Eigenvalues sorted nonincreasing with orthonormal eigenvectors.
        Deterministic: identical input bits give identical output bits.

    Raises
    ------
    ConvergenceError
        Carrying the residuals, if the result fails the unitarity invariant
        ``||V*V - I||_F <= SCREEN_RTOL * n`` or the reconstruction invariant
        ``||A - V diag(w) V*||_F <= SCREEN_RTOL * ||A||_F``.
    """
    h = hermitian_part(a)
    spec = _eigh(h)
    n = spec.dim
    v = spec.vectors
    unit = float(np.linalg.norm(v.conj().T @ v - np.eye(n)))
    recon = float(np.linalg.norm(h - spec.assemble(spec.eigenvalues)))
    if unit > SCREEN_RTOL * n or recon > SCREEN_RTOL * float(np.linalg.norm(h)):
        raise ConvergenceError(
            "eigensolver did not converge: reconstruction residual "
            f"{recon:.3e}, unitarity defect {unit:.3e}"
        )
    return spec


def _psd_clamp_failures(w):
    """Per slice of eigenvalues ``w`` (..., n): True where the PSD clamp of
    :func:`clamp_psd_eigenvalues` fails."""
    return w.min(axis=-1) < -SCREEN_RTOL * np.abs(w).max(axis=-1, initial=0.0)


def clamp_psd_eigenvalues(w):
    """Clamp tiny negative eigenvalues of a PSD matrix to zero.

    Values in ``[-SCREEN_RTOL * max|w|, 0)`` are rounded up to 0; anything
    more negative raises.  ``w`` may be a stack of eigenvalue sequences;
    each slice has its own tolerance, and one failing slice raises.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.min() >= 0.0:
        return w.copy()
    failed = _psd_clamp_failures(w)
    if failed.any():
        wmin = w.min(axis=-1)[failed].flat[0]
        raise NotPositiveDefiniteError(
            f"matrix is not positive semidefinite (min eigenvalue {wmin:.3e})"
        )
    return np.where(w < 0.0, 0.0, w)


def spectrum_function(spec, f):
    """Eigenvalues of a PSD spectrum mapped through ``f`` (clamped first);
    an eigenvalue where f raises or is not finite (a negative power at 0)
    is a SingularFunctionError naming it."""
    w = clamp_psd_eigenvalues(spec.eigenvalues)
    fw = _function_values(w, f)
    bad = ~np.isfinite(fw)
    if bad.any():
        x = float(w[bad][0])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                y = float(f(x))
            except (ArithmeticError, ValueError) as exc:
                raise SingularFunctionError(
                    f"singular matrix function: f undefined at eigenvalue {x!r}"
                ) from exc
        raise SingularFunctionError(f"singular matrix function: f({x!r}) = {y!r}")
    return fw


def _function_values(w, f):
    """``f`` at every value of ``w`` (any shape); NaN where ``f`` raises."""
    fw = np.empty_like(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, x in enumerate(w.flat):
            try:
                fw.flat[i] = float(f(x))
            except (ArithmeticError, ValueError):
                fw.flat[i] = np.nan
    return fw


def spectrum_power(spec, p):
    """Eigenvalues of a PSD spectrum (or of every slice of a stacked one)
    raised to the power ``p``.

    ``0**p`` is taken as 0 for p > 0 and 1 for p == 0 (continuous
    extension on the PSD cone); negative powers require strict positivity.
    """
    w = clamp_psd_eigenvalues(spec.eigenvalues)
    if p < 0.0 and float(w.min()) <= 0.0:
        raise SingularFunctionError(
            "singular matrix function: negative power of a singular matrix"
        )
    with np.errstate(divide="raise", invalid="raise"):
        return np.power(w, p)


def matrix_power_psd(a, p):
    """Fractional power of a PSD matrix via its spectrum.

    Negative ``p`` requires a strictly positive definite input.
    """
    spec = _eigh(hermitian_part(a))
    return spec.assemble(spectrum_power(spec, p))


# ---------------------------------------------------------------------------
# Matrix file format: {"dim": n, "field": "real"|"complex", "entries": [...]}
# with entries row-major, numbers for the real field and [re, im] pairs for
# the complex field.  Non-square data is rejected.
# ---------------------------------------------------------------------------

def matrix_to_obj(a, field=None):
    """Serialize a matrix to the JSON object form."""
    a = as_matrix(a)
    n = a.shape[0]
    if field is None:
        field = "real" if float(np.abs(a.imag).max()) == 0.0 else "complex"
    if field == "real":
        if float(np.abs(a.imag).max()) != 0.0:
            raise ValueError("matrix has nonzero imaginary part; use field='complex'")
        entries = [float(x) for x in a.real.ravel()]
    elif field == "complex":
        entries = [[float(x.real), float(x.imag)] for x in a.ravel()]
    else:
        raise ValueError(f"unknown field {field!r}; expected 'real' or 'complex'")
    return {"dim": n, "field": field, "entries": entries}


def matrix_from_obj(obj):
    """Parse the JSON object form back into a complex matrix.  As in JSON, a
    bool or a string is not a number: a dim or an entry of either is refused."""
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    try:
        n = obj["dim"]
        field = obj["field"]
        entries = obj["entries"]
    except KeyError as exc:
        raise ValueError(f"matrix object is missing key {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ShapeError(f"shape error: dim must be a positive integer, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ShapeError(f"shape error: expected a JSON array of {n * n} entries for dim {n}")
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}; expected 'real' or 'complex'")
    if field == "complex" and any(not isinstance(x, list) or len(x) != 2 for x in entries):
        raise ShapeError("shape error: complex entries must be [re, im] pairs")
    values = entries if field == "real" else [x for pair in entries for x in pair]
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"matrix entries must be JSON numbers, got {x!r}")
    values = np.asarray(values, dtype=np.float64)
    flat = values.astype(np.complex128) if field == "real" else values[0::2] + 1j * values[1::2]
    return as_matrix(flat.reshape(n, n))


def save_matrix(path, a, field=None):
    """Write a matrix to ``path`` in the JSON file format."""
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(a, field=field), fh)
        fh.write("\n")


def load_matrix(path):
    """Read a matrix from a JSON file produced by :func:`save_matrix`."""
    with open(path) as fh:
        return matrix_from_obj(json.load(fh))
