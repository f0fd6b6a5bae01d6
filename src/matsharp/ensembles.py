"""Deterministic, seedable random matrix generation for campaign inputs.

Randomness is built from two documented, implementation-independent pieces:

* Seed derivation: SplitMix64 finalizer applied to
  ``seed XOR (index * 0x9E3779B97F4A7C15)`` (all mod 2^64).
* Bit stream: Philox4x64-10 counter-based generator keyed by the 64-bit
  seed.  Uniform doubles are ``(raw >> 11 + 1) * 2^-53`` (in (0, 1]) and
  Gaussians come from the Box-Muller transform of consecutive uniforms.

Every generator is a pure function of its ``EnsembleSpec``: identical
specs give bit-identical matrices, and per-trial seeds derived through
:func:`split_seed` keep concurrent trials independent.  A spec whose seed
is a tuple of seeds draws a stack, one matrix per seed: each matrix comes
from its own stream and has the bits of the single draw with that seed,
while the eigensolve and the assembly run once for the whole stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRankError
from .linalg import Spectrum, _adjoint, _eigh

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

KIND_PD = "pd"
KIND_PSD = "psd"
KIND_COMMUTING = "commuting"
KIND_HERMITIAN = "hermitian"
_KINDS = (KIND_PD, KIND_PSD, KIND_COMMUTING, KIND_HERMITIAN)


def split_seed(seed, index):
    """Derive an independent 64-bit stream seed from (seed, index).

    SplitMix64-style mixing of ``seed XOR (index * golden ratio)``; a pure
    function, collision-resistant across the campaign sizes used here
    (the finalizer is a bijection and the XOR offsets are distinct).
    """
    z = (int(seed) ^ ((int(index) * _GOLDEN) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Stream:
    """Philox4x64-10 keyed bit stream with documented scalar transforms.

    Keyed by a tuple of seeds, it is one stream per seed drawn in lockstep:
    every draw gains a leading axis (``shape``), and row k is the draw of
    ``Stream(seeds[k])``; one generator serves every seed, its state set to
    the seed's key and block counter before each of the seed's draws.
    """

    def __init__(self, seed):
        self.shape = (len(seed),) if isinstance(seed, tuple) else ()
        self._keys = [int(s) & _MASK64 for s in seed] if self.shape else None
        self._bg = np.random.Philox(key=0 if self.shape else int(seed) & _MASK64)
        self._state = dict(self._bg.state, buffer_pos=4) if self.shape else None   # nothing buffered
        self._drawn = 0   # words drawn from each keyed stream

    def _raw(self, count):
        if not self.shape:
            return self._bg.random_raw(count)
        # Philox emits words in blocks of four, the first block at counter 1.
        block, skip = divmod(self._drawn, 4)
        self._drawn += count
        rows = []
        for key in self._keys:
            self._bg.state = dict(self._state, state={"counter": [block, 0, 0, 0], "key": [key, 0]})
            rows.append(self._bg.random_raw(skip + count)[skip:])
        return np.stack(rows)

    def uniforms(self, count):
        """Doubles in (0, 1]: ((raw >> 11) + 1) * 2^-53."""
        raw = self._raw(int(count))
        return ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53

    def normals(self, count):
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (int(count) + 1) // 2
        u = self.uniforms(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
        angle = 2.0 * math.pi * u[..., 1::2]
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        return z[..., : int(count)]

    def complex_normals(self, count):
        """Complex numbers with independent standard-normal parts."""
        z = self.normals(2 * int(count))
        return z[..., : int(count)] + 1j * z[..., int(count):]


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one random matrix draw.

    ``kind`` is one of ``"pd"`` (strictly positive definite),
    ``"psd"`` (rank-deficient PSD, requires ``rank``), ``"commuting"``
    (a commuting PD pair), or ``"hermitian"`` (indefinite Hermitian).
    ``seed`` is one seed, or a tuple of seeds for a stack of draws.
    """

    dim: int
    kind: str = KIND_PD
    condition_target: float = 100.0
    field: str = "complex"
    seed: int | tuple = 0
    rank: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.condition_target < 1.0:
            raise ValueError(f"condition-target must be >= 1, got {self.condition_target}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.kind == KIND_PSD:
            rank = self.dim - 1 if self.rank is None else self.rank
            if not 0 <= rank < self.dim:
                raise InvalidRankError(f"invalid rank {self.rank} for dimension {self.dim}")


def _gaussian_hermitian(stream, n, field):
    shape = stream.shape + (n, n)
    if field == "complex":
        g = stream.complex_normals(n * n).reshape(shape)
    else:
        g = stream.normals(n * n).reshape(shape).astype(np.complex128)
    return 0.5 * (g + _adjoint(g))


def _random_unitary(stream, n, field):
    # Eigenvector matrix of a Gaussian Hermitian draw; reuses the core
    # eigensolver instead of a second orthogonalization path.
    if n == 1:
        return np.ones(stream.shape + (1, 1), dtype=np.complex128)
    return _eigh(_gaussian_hermitian(stream, n, field)).vectors


def _log_uniform_eigs(stream, count, kappa):
    # Log-uniform on [1/sqrt(kappa), sqrt(kappa)].  For count >= 2 the two
    # extremes are pinned so the realized condition number tracks kappa.
    half_log = 0.5 * math.log(kappa)
    if count == 0:
        return np.empty(stream.shape + (0,))
    if count == 1 or half_log == 0.0:
        u = stream.uniforms(count)
        return np.exp((2.0 * u - 1.0) * half_log)
    u = stream.uniforms(count - 2)
    middle = np.exp((2.0 * u - 1.0) * half_log)
    ends = np.broadcast_to([math.exp(half_log), math.exp(-half_log)], stream.shape + (2,))
    return np.concatenate([ends, middle], axis=-1)


def _assemble(u, eigs):
    return Spectrum(eigs, u).assemble(eigs)


def random_hermitian(spec):
    """Gaussian Hermitian draw (indefinite spectrum)."""
    stream = Stream(spec.seed)
    return _gaussian_hermitian(stream, spec.dim, spec.field)


def random_pd(spec):
    """Random strictly positive definite matrix.

    Eigenvectors come from a Gaussian Hermitian draw; eigenvalues are
    log-uniform on ``[1/sqrt(kappa), sqrt(kappa)]`` with the extremes
    pinned (for dim >= 2) so the measured condition number stays within
    a small factor of ``condition_target``.
    """
    stream = Stream(spec.seed)
    u = _random_unitary(stream, spec.dim, spec.field)
    eigs = _log_uniform_eigs(stream, spec.dim, spec.condition_target)
    return _assemble(u, eigs)


def random_commuting_pair(spec):
    """Pair (A, B) = (U D1 U*, U D2 U*) sharing one unitary U."""
    stream = Stream(spec.seed)
    u = _random_unitary(stream, spec.dim, spec.field)
    d1 = _log_uniform_eigs(stream, spec.dim, spec.condition_target)
    d2 = _log_uniform_eigs(stream, spec.dim, spec.condition_target)
    return _assemble(u, d1), _assemble(u, d2)


def random_psd_rank_deficient(spec):
    """PSD matrix with exactly ``dim - rank`` zero eigenvalues."""
    rank = spec.dim - 1 if spec.rank is None else spec.rank
    if not 0 <= rank < spec.dim:
        raise InvalidRankError(f"invalid rank {rank} for dimension {spec.dim}")
    stream = Stream(spec.seed)
    u = _random_unitary(stream, spec.dim, spec.field)
    eigs = np.concatenate([_log_uniform_eigs(stream, rank, spec.condition_target),
                           np.zeros(stream.shape + (spec.dim - rank,))], axis=-1)
    return _assemble(u, eigs)

