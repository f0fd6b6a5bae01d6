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
while the eigensolve and the assembly run once for the whole stack.  The
stack's keyed :class:`Stream` draws each key's words once: one Philox
pass per key fetches every word the draw reads (the unitary's normals and
each spectrum's uniforms), and the transforms read that buffer.  Campaign
seeds are derived as uint64 arrays by the same SplitMix64 mixing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRankError
from .linalg import Spectrum, _eigh, _symmetrize

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


def _split_seeds(seeds, indices):
    """:func:`split_seed` of ``seeds`` in [0, 2^64) and nonnegative
    ``indices``, broadcast, one an array with an axis: uint64 arrays wrap
    mod 2^64 as the scalar form masks, where NumPy scalars would warn."""
    z = seeds ^ (np.asarray(indices, dtype=np.uint64) * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class Stream:
    """Philox4x64-10 keyed bit stream with documented scalar transforms.

    Keyed by a tuple of seeds, it is one stream per seed drawn in lockstep:
    every draw gains a leading axis (``shape``), and row k is the draw of
    ``Stream(seeds[k])``.  It draws each key's words once per stack: one
    generator, its state set once per key, fetches the first ``words``
    words of every key, a bound on what the stack reads, and the draws read
    that buffer (a draw past it fetches every key's words again).
    """

    def __init__(self, seed, words=0):
        self.shape = (len(seed),) if isinstance(seed, tuple) else ()
        self._keys = [int(s) & _MASK64 for s in seed] if self.shape else None
        self._bg = np.random.Philox(key=0 if self.shape else int(seed) & _MASK64)
        self._state = dict(self._bg.state, buffer=[0] * 4) if self.shape else None   # a fresh state
        self._words = words
        self._buffer = np.empty(self.shape + (0,), dtype=np.uint64)
        self._drawn = 0   # words drawn from each keyed stream

    def _raw(self, count):
        if not self.shape:
            return self._bg.random_raw(count)
        self._drawn += count
        if self._drawn > self._buffer.shape[1]:
            rows = []
            for key in self._keys:
                self._state["state"] = {"counter": (0, 0, 0, 0), "key": (key, 0)}
                self._bg.state = self._state
                rows.append(self._bg.random_raw(max(self._drawn, self._words)))
            self._buffer = np.concatenate(rows).reshape(len(rows), -1)
        return self._buffer[:, self._drawn - count:self._drawn]

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


def _gaussian(stream, n, field):
    shape = stream.shape + (n, n)
    if field == "complex":
        return stream.complex_normals(n * n).reshape(shape)
    return stream.normals(n * n).reshape(shape).astype(np.complex128)


def _random_unitary(stream, n, field):
    # Eigenvectors of a Gaussian draw's Hermitian part, which the core
    # eigensolver takes, instead of a second orthogonalization path.
    if n == 1:
        return np.ones(stream.shape + (1, 1), dtype=np.complex128)
    return _eigh(_gaussian(stream, n, field)).vectors


def _log_uniform_eigs(stream, count, kappa):
    # Log-uniform on [1/sqrt(kappa), sqrt(kappa)].  For count >= 2 the two
    # extremes are pinned so the realized condition number tracks kappa.
    half_log = 0.5 * math.log(kappa)
    drawn = count if count < 2 or half_log == 0.0 else count - 2
    values = np.exp((2.0 * stream.uniforms(drawn) - 1.0) * half_log)
    if drawn == count:
        return values
    ends = np.broadcast_to([math.exp(half_log), math.exp(-half_log)], stream.shape + (2,))
    return np.concatenate([ends, values], axis=-1)


def _draw_stream(spec):
    """The stream of a draw, told a bound on the words it reads from each
    key: 2 n^2 for the Gaussian, n for each spectrum, two at most."""
    return Stream(spec.seed, 2 * spec.dim * (spec.dim + 1))


def _assemble(u, eigs):
    return Spectrum(eigs, u).assemble(eigs)


def random_hermitian(spec):
    """Gaussian Hermitian draw (indefinite spectrum)."""
    g = _gaussian(Stream(spec.seed), spec.dim, spec.field)
    return _symmetrize(g)


def random_pd(spec):
    """Random strictly positive definite matrix.

    Eigenvectors come from a Gaussian Hermitian draw; eigenvalues are
    log-uniform on ``[1/sqrt(kappa), sqrt(kappa)]`` with the extremes
    pinned (for dim >= 2) so the measured condition number stays within
    a small factor of ``condition_target``.
    """
    stream = _draw_stream(spec)
    u = _random_unitary(stream, spec.dim, spec.field)
    eigs = _log_uniform_eigs(stream, spec.dim, spec.condition_target)
    return _assemble(u, eigs)


def random_commuting_pair(spec):
    """Pair (A, B) = (U D1 U*, U D2 U*) sharing one unitary U."""
    stream = _draw_stream(spec)
    u = _random_unitary(stream, spec.dim, spec.field)
    d1 = _log_uniform_eigs(stream, spec.dim, spec.condition_target)
    d2 = _log_uniform_eigs(stream, spec.dim, spec.condition_target)
    return _assemble(u, d1), _assemble(u, d2)


def random_psd_rank_deficient(spec):
    """PSD matrix with exactly ``dim - rank`` zero eigenvalues."""
    rank = spec.dim - 1 if spec.rank is None else spec.rank
    if not 0 <= rank < spec.dim:
        raise InvalidRankError(f"invalid rank {rank} for dimension {spec.dim}")
    stream = _draw_stream(spec)
    u = _random_unitary(stream, spec.dim, spec.field)
    eigs = np.concatenate([_log_uniform_eigs(stream, rank, spec.condition_target),
                           np.zeros(stream.shape + (spec.dim - rank,))], axis=-1)
    return _assemble(u, eigs)

