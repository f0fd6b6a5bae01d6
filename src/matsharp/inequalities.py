"""Each inequality under test, encoded as an executable predicate that
produces a machine-readable report.

Every check evaluates the chain's terms as singular-value sequences, takes
the requested unitarily invariant norm of each, and reports the signed
margins between consecutive terms (nonnegative margins certify the
instance).  Alongside the per-norm margins, each report carries Ky Fan
prefix-sum margins between consecutive terms ("fan margins"): when these
are nonnegative the chain holds in every unitarily invariant norm at once.

Each inequality has one evaluation kernel, and every kernel takes a stack
of instances: arrays of shape (T, m, n, n), one A-list (and B-list) per
instance.  It builds the whole grid in one pass, each term once over the
grid axes it depends on: input spectra and the sums once per stack, the
pair means once over every t, the printed main-chain terms once over
every r, the flank terms once over every grid point.  Each of those is
one stacked call over those grid values and all T instances, so its terms
carry leading grid and batch axes; only the elementwise powers are taken
one exponent at a time.  Every norm, margin and verdict is then an array
reduction over those sequences (:func:`_reduce`), read out as reports by
:func:`_instance_reports`.  The main chain's kernel (:class:`_MainChain`)
also serves the proof steps and, on single pairs, the lemma chain, whose
last two terms are the t-dependent main chain's middle and right terms at
s = 1 (:func:`_flank_sigmas`).  One driver, :func:`_chain`, maps an
inequality id to its kernel, which returns the whole grid as one
:class:`_Chain`, all its sequences in one (points, terms, T, n) array;
:func:`stack_reports` is that driver followed by the reduction.  A
``check_*`` predicate is a one-point :func:`stack_reports` call on a stack
of one, and :func:`lemma_chain_sigmas` reads the chain's one point.  Every
JSON record (a report; a campaign's config and summary; a search report)
is a dataclass with the :class:`_Record` mixin: one rule maps fields to keys.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CommutationError, ShapeError, UnregisteredFunctionError
from .linalg import (
    Spectrum,
    _as_stack,
    _check_hermitian,
    _eigh,
    _function_values,
    _psd_clamp_failures,
    clamp_psd_eigenvalues,
    spectrum_function,
    spectrum_power,
)
from .means import _mean_from_spectra, _pair_sum, _regularized_pair, _strict_spectrum
from .norms import NormSpec, norm_from_singular_values, singular_values, tolerance_band

AUDENAERT = "Audenaert"
BOURIN_UCHIYAMA = "BourinUchiyama"
LEMMA_CHAIN = "LemmaChain"
MAIN_THEOREM = "MainTheorem"
PROOF_STEPS = "ProofSteps"

INEQUALITY_IDS = (AUDENAERT, BOURIN_UCHIYAMA, LEMMA_CHAIN, MAIN_THEOREM, PROOF_STEPS)

CONVEX = "convex"
CONCAVE = "concave"

# Commutation hypothesis tolerance (relative to the product of input scales).
COMMUTATION_RTOL = 1e-10


class _Record:
    """A dataclass as one JSON object: its fields in order, each under its
    name with hyphens, tuples as lists and norms as their text.  ``_keys``
    (JSON key -> field) is built once per class, from the fields it
    annotates."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._keys = {name.replace("_", "-"): name for name in cls.__annotations__}

    def to_obj(self):
        return {key: _json_data(getattr(self, name)) for key, name in self._keys.items()}

    def to_json(self):
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj):
        """The record written as ``obj``; a missing key leaves its field's default."""
        return cls(**{name: obj[key] for key, name in cls._keys.items() if key in obj})

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))


def _json_data(value):
    """A field's value as JSON data: a tuple becomes a list, a norm its text."""
    if isinstance(value, tuple):
        return [str(v) if isinstance(v, NormSpec) else v for v in value]
    return value


@dataclass
class InequalityReport(_Record):
    """Evaluated terms, margins, and verdict for one inequality instance.

    ``terms`` are ordered left-to-right as in the chain being tested;
    ``margins[i]`` is the signed slack of step i (nonnegative certifies);
    ``holds`` is true when every term and margin is finite and every margin
    clears ``-tolerance_band(scale)`` (``REL_TOL * scale``) with scale the
    largest term value, so scaling the inputs of a homogeneous chain does
    not change it.
    ``fan_margins`` are the matching Ky Fan prefix-sum margins (all-norms
    certificate); they get no band and enter ``holds`` only through the
    finiteness check.
    """

    inequality_id: str
    params: dict
    terms: list
    margins: list
    holds: bool
    regularization_epsilon: float | None = None
    fan_margins: list | None = field(default=None)

    def min_margin(self):
        """Smallest margin, or NaN when any margin is NaN."""
        if any(math.isnan(m) for m in self.margins):
            return math.nan
        return min(self.margins)

    def is_finite(self):
        """True when every term, margin and fan margin is finite."""
        values = [value for _, value in self.terms] + list(self.margins)
        return all(math.isfinite(x) for x in values + list(self.fan_margins or ()))

    @classmethod
    def from_obj(cls, obj):
        """The report written as ``obj``; its terms become (label, value) tuples."""
        return super().from_obj(dict(obj, terms=[tuple(term) for term in obj["terms"]]))


def _params(m=None, n=None, t=None, r=None, s=None, function_id=None, **extra):
    # "norm-spec" and "seed" are filled in per report by _build_report.
    return {"m": m, "n": n, "t": t, "r": r, "s": s, "norm-spec": None,
            "function-id": function_id, "seed": None, **extra}


class _Chain(NamedTuple):
    """One chain over the P points of a grid for a stack of T instances,
    before any norm is taken: ``sigma`` holds the terms' singular-value
    sequences, (P, terms, T, n) in grid order, each sorted nonincreasing;
    ``params`` one dict per point, ``labels`` one label per term, and
    ``seeds`` and ``epsilon`` ((T,), or None) one entry per instance.
    ``steps`` lists (left_index, right_index) pairs, the ascending
    consecutive chain when None.
    """

    inequality_id: str
    params: list
    labels: list
    sigma: np.ndarray
    seeds: tuple
    steps: list | None = None
    epsilon: np.ndarray | None = None


class _ReportBlock(NamedTuple):
    """A stack of T instances reduced over P points of one chain and N norms:
    ``values`` (P, N, terms, T), ``margins`` (P, N, steps, T), ``fan_margins``
    (P, steps, T), which no norm changes, the masks ``finite`` and ``holds``
    (P, N, T), and ``epsilon`` (T,) or None."""

    inequality_id: str
    params: list
    labels: list
    norms: tuple
    seeds: tuple
    values: np.ndarray
    margins: np.ndarray
    fan_margins: np.ndarray
    finite: np.ndarray
    holds: np.ndarray
    epsilon: np.ndarray | None


def _reduce(chain, norms):
    """Every norm's reports on ``chain`` as one :class:`_ReportBlock`.

    A report with any non-finite term, margin or fan margin never holds.
    """
    sigma = chain.sigma
    left, right = np.array(chain.steps or [(i, i + 1) for i in range(sigma.shape[1] - 1)]).T
    values = np.array([norm_from_singular_values(sigma, spec) for spec in norms]).swapaxes(0, 1)
    margins = values[:, :, right] - values[:, :, left]
    prefix = sigma.cumsum(axis=-1)
    fan_margins = (prefix[:, right] - prefix[:, left]).min(axis=-1)
    # Terms are norms, never negative: the largest is finite exactly when
    # every term is, and then every margin is finite too.
    scale = values.max(axis=2)
    finite = np.isfinite(scale) & np.isfinite(fan_margins).all(axis=1)[:, None]
    holds = finite & (margins.min(axis=2) >= -tolerance_band(scale))
    return _ReportBlock(chain.inequality_id, chain.params, chain.labels, tuple(norms),
                        chain.seeds, values, margins, fan_margins, finite, holds, chain.epsilon)


def _instance_reports(block, k, **extra):
    """The reports of instance ``k`` of a reduced block in grid order, one
    ``tolist`` per array; ``extra`` params end each report's params."""
    names = [str(norm) for norm in block.norms]
    values, margins, holds, fans = (x[..., k].tolist() for x in (
        block.values, block.margins, block.holds, block.fan_margins))
    eps = None if block.epsilon is None else block.epsilon[k].tolist()
    return [InequalityReport(block.inequality_id,
                             dict(params, **{"norm-spec": name, "seed": block.seeds[k]}, **extra),
                             list(zip(block.labels, values[point][norm])), margins[point][norm],
                             holds[point][norm], eps, fans[point])
            for point, params in enumerate(block.params) for norm, name in enumerate(names)]


def _build_report(block, k=0):
    """The first report of instance ``k`` of a reduced block; by default the
    only one of a ``check_*`` block."""
    return _instance_reports(block, k)[0]


# ---------------------------------------------------------------------------
# Shared matrix helpers (all sigma sequences returned sorted nonincreasing;
# a stack of terms gives one sequence per slice).  A term whose entries
# overflowed has no spectrum to read: it gets a NaN sequence, so its reports
# are indeterminate instead of aborting the caller.
# ---------------------------------------------------------------------------

def _finite_sigma(m, sigma):
    """``sigma`` of the finite slices of ``m``; NaN rows for the others."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if finite.all():
        return sigma(m)
    values = sigma(np.where(finite[..., None, None], m, 0.0))
    values[~finite] = np.nan
    return values


def _psd_sigma(m):
    """Singular values of a PSD-by-construction term, Hermitian up to rounding."""
    return _finite_sigma(m, lambda x: np.maximum(_eigh(x).eigenvalues, 0.0))


def _product_sigma(m):
    """Singular values of a general (non-Hermitian) term."""
    return _finite_sigma(m, singular_values)


def _powers(spec, exponents):
    """V diag(w^p) V* for every p in ``exponents``, stacked (len(exponents),
    ...) ahead of the stack axes of ``spec``: the eigenvalues clamped once
    (as :func:`spectrum_power` clamps them), one power per exponent, each
    with the exponent as given, then one assembly.  Every exponent is
    nonnegative, so no power can divide by 0."""
    w = clamp_psd_eigenvalues(spec.eigenvalues)
    return spec.assemble(np.array([np.power(w, p) for p in exponents]))


def _flank_sigmas(s_a, s_b, ts, rs, ss):
    """Singular values of (B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s) and of
    (A^((1-t)rs) B^(rts))^(1/s) at every (t, r, s), built from the spectra
    of A and B, each stacked (len(ts), len(rs), len(ss), ...).

    These are the lemma chain's last two terms and, at s = 1 on the spectra
    of the sums, the t-dependent main chain's middle and right terms.
    """
    grid = list(itertools.product(ts, rs, ss))
    b_flank = _powers(s_b, [r * t * s / 2.0 for t, r, s in grid])
    a_mid = _powers(s_a, [(1.0 - t) * r * s for t, r, s in grid])
    product = a_mid @ _powers(s_b, [r * t * s for t, r, s in grid])
    shape = (len(ts), len(rs), len(ss)) + s_a.eigenvalues.shape
    sigmas = [_psd_sigma(b_flank @ a_mid @ b_flank).reshape(shape),
              _product_sigma(product).reshape(shape)]
    for sigma in sigmas:
        for k, s in enumerate(ss):
            sigma[:, :, k] = sigma[:, :, k] ** (1.0 / s)
    return sigmas


def _validate_lists(a_list, b_list):
    """One instance's A- and B-lists, checked for length and shape, as stacks (1, m, n, n)."""
    a_list, b_list = list(a_list), list(b_list)
    if not a_list or len(a_list) != len(b_list):
        raise ShapeError("shape error: A-list and B-list must be nonempty and of equal length")
    shape = np.shape(a_list[0])
    if len(shape) != 2 or any(np.shape(m) != shape[-1:] * 2 for m in a_list + b_list):
        raise ShapeError("shape error: all matrices must be square and share one dimension")
    return np.array(a_list)[None], np.array(b_list)[None]


class _StackKernel:
    """A stack of instances and the failure screen every kernel shares.

    ``a`` and ``b`` hold the instances' A- and B-lists, shape (T, m, n, n)
    (``b`` is None for a chain without B-lists), and ``seeds`` one seed per
    instance.  It is the one place a kernel's inputs are validated: a matrix
    that is not square, finite and Hermitian raises, even with
    ``mask_failures``, and nothing behind it (sums, spectra, means) re-checks.
    A slice that fails a spectral check raises as the single-matrix
    functions do.  With ``mask_failures`` it is replaced by the identity
    spectrum instead, so the other slices go on, and its instance is marked
    in ``failed``: :func:`stack_reports` makes all of its terms NaN.
    """

    def __init__(self, a, b, seeds, mask_failures):
        self.a = _as_stack(a)
        self.b = self.a if b is None else _as_stack(b)
        if self.a.ndim != 4 or self.a.shape != self.b.shape or self.a.shape[0] != len(seeds):
            raise ShapeError("shape error: A-list and B-list must be nonempty and of equal length")
        _check_hermitian(self.a)
        if b is not None:
            _check_hermitian(self.b)
        self.seeds = tuple(seeds)
        self.mask_failures = mask_failures
        self.failed = np.zeros(len(self.seeds), dtype=bool)

    def _screen(self, spectra, failures, raise_for):
        """``spectra`` with the slices in ``failures`` (one mask per
        spectrum) replaced by the identity spectrum.

        Without ``mask_failures``, ``raise_for(side, index, spectrum)``
        raises the error of the first failing slice instead, taken in
        (instance, pair, side) order.
        """
        if not any(mask.any() for mask in failures):
            return spectra
        failed = np.stack(failures, axis=-1)
        if not self.mask_failures:
            *index, side = np.argwhere(failed)[0]
            spec = spectra[side]
            index = tuple(index)
            raise_for(side, index, Spectrum(spec.eigenvalues[index], spec.vectors[index]))
        self.failed |= failed.reshape(len(self.failed), -1).any(axis=1)
        return [Spectrum(np.where(mask[..., None], 1.0, spec.eigenvalues), spec.vectors)
                for spec, mask in zip(spectra, failures)]

    def _psd_screened(self, spectra):
        """``spectra`` (of equal shape) screened by the PSD clamp."""
        return self._screen(spectra, [_psd_clamp_failures(s.eigenvalues) for s in spectra],
                            lambda side, index, spec: clamp_psd_eigenvalues(spec.eigenvalues))


# ---------------------------------------------------------------------------
# Bourin-Uchiyama: ||| sum f(A_i) ||| vs ||| f(sum A_i) |||
# ---------------------------------------------------------------------------

def resolve_function(function_id):
    """Look up a registered nonnegative function with f(0) = 0.

    Returns (callable, set of admissible directions).  The family:
    ``power:p`` (convex for p >= 1, concave for 0 < p <= 1), ``expm1``
    (convex), and ``ratio`` = x/(1+x) (concave).
    """
    fid = str(function_id).strip().lower()
    if fid == "expm1":
        return math.expm1, frozenset({CONVEX})
    if fid == "ratio":
        return (lambda x: x / (1.0 + x)), frozenset({CONCAVE})
    if fid.startswith("power:"):
        try:
            p = float(fid.partition(":")[2])
        except ValueError:
            raise UnregisteredFunctionError(f"unregistered function {function_id!r}") from None
        if p <= 0.0:
            raise UnregisteredFunctionError(f"unregistered function {function_id!r}: power must be positive")
        directions = set()
        if p >= 1.0:
            directions.add(CONVEX)
        if p <= 1.0:
            directions.add(CONCAVE)
        return (lambda x: x ** p), frozenset(directions)
    raise UnregisteredFunctionError(f"unregistered function {function_id!r}")


class _FunctionSum(_StackKernel):
    """Bourin-Uchiyama kernel for a stack of A-lists (T, m, n, n); the
    spectra of every A_i and of sum A_i are computed on first use and serve
    every f."""

    @cached_property
    def spectra(self):
        """(spectra of the A_i, stacked (T, m); spectrum of sum A_i, stacked (T,))."""
        return [self._psd_screened([_eigh(x)])[0] for x in (self.a, _pair_sum(self.a))]

    def _mapped(self, spec, f):
        """f(M) for each slice M of ``spec``; a slice where f is undefined
        or not finite is screened."""
        fw = _function_values(clamp_psd_eigenvalues(spec.eigenvalues), f)
        mapped, = self._screen(
            [Spectrum(fw, spec.vectors)], [~np.isfinite(fw).all(axis=-1)],
            lambda side, index, _: spectrum_function(
                Spectrum(spec.eigenvalues[index], spec.vectors[index]), f))
        return mapped.assemble(mapped.eigenvalues)

    def chain(self, function_ids, direction):
        """The chain at every f of ``function_ids``, in order; each f is
        resolved and checked against ``direction`` before it is applied."""
        sigma, params = [], []
        for function_id in function_ids:
            f, directions = resolve_function(function_id)
            if direction not in (CONVEX, CONCAVE):
                raise ValueError(f"direction must be 'convex' or 'concave', got {direction!r}")
            if direction not in directions:
                raise ValueError(
                    f"direction {direction!r} does not match the registered convexity of {function_id!r}"
                )
            spec_a, spec_sum = self.spectra
            sigma.append([_psd_sigma(_pair_sum(self._mapped(spec_a, f))),
                          _psd_sigma(self._mapped(spec_sum, f))])
            params.append(_params(m=self.a.shape[1], n=self.a.shape[-1],
                                  function_id=str(function_id), direction=direction))
        steps = [(0, 1)] if direction == CONVEX else [(1, 0)]
        return _Chain(BOURIN_UCHIYAMA, params, ["sum f(A_i)", "f(sum A_i)"], np.array(sigma),
                      self.seeds, steps)


def check_bourin_uchiyama(a_list, function_id, direction, norm_spec, seed=None):
    """Compare ||| sum f(A_i) ||| against ||| f(sum A_i) |||.

    ``direction`` must match the registered convexity of ``function_id``;
    the inequality direction is <= for convex f and >= for concave f.
    Terms stay in printed order, so the single margin is right-minus-left
    for convex and left-minus-right for concave.
    """
    a_list = list(a_list)
    if not a_list:
        raise ShapeError("shape error: at least one matrix is required")
    return _check(BOURIN_UCHIYAMA, a_list, (), {"f": function_id, "norm": norm_spec}, seed,
                  direction=direction)


# ---------------------------------------------------------------------------
# Main inequality, its proof-step refinement, and the lemma chain:
# (A#tB)^r ; A^r #t B^r ; (B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s) ;
# (A^((1-t)rs) B^(rts))^(1/s), the main chain's kernel on single pairs
# ---------------------------------------------------------------------------

class _MainChain(_StackKernel):
    """Main-chain kernel for a stack of instances, evaluated over a whole
    (t, r) grid, or (t, r, s) grid for the lemma chain, in one pass.

    The work that depends on neither t nor r is computed on first use and
    kept for the stack: the pair spectra (strict, or shifted by their
    epsilon), sum A and sum B with their spectra, and, for the proof chain,
    the spectra the mean of the sums is built from.  :meth:`chain` then
    builds each term once over the grid axes it depends on: the pair means
    over every t (one SVD of A^(-1/2) B^(1/2) serves them all), the printed
    terms over every r, A^r #_t B^r over every (t, r), and the flank terms
    over every point, each as one stacked call over those values and every
    instance and pair.  Each term is then written into the chain's one
    array, broadcast over the grid axes it does not depend on.  On a stack
    of single pairs (m = 1) without ``epsilon_scale`` it is the lemma
    chain's kernel as well.
    """

    def __init__(self, a, b, epsilon_scale, seeds, mask_failures):
        super().__init__(a, b, seeds, mask_failures)
        self.epsilon_scale = epsilon_scale

    def _mean_ready(self, a, b, spectra, names):
        """Spectra of the pairs (a, b) ready for their means, and the
        epsilons (or None).

        Without ``epsilon_scale`` both sides, whose decompositions
        ``spectra`` passes, must be strictly positive definite.  With it,
        both are shifted by eps * I first; the A side must then stay
        positive for its inverse square root and the B side pass the clamp.
        """
        if self.epsilon_scale is None:
            failures = [spec.eigenvalues[..., -1] <= 0.0 for spec in spectra]
            sa, sb = self._screen(spectra, failures, lambda side, index, spec:
                                  _strict_spectrum(spec, names(side, index)))
            return sa, sb, None
        a_reg, b_reg, eps = _regularized_pair(a, b, self.epsilon_scale)
        sa, sb = _eigh(a_reg), _eigh(b_reg)
        failures = [sa.eigenvalues[..., -1] <= 0.0, _psd_clamp_failures(sb.eigenvalues)]
        sa, sb = self._screen((sa, sb), failures, lambda side, index, spec:
                              spectrum_power(spec, 0.5 if side else -0.5))
        return sa, sb, eps

    @cached_property
    def pair_spectra(self):
        """Spectra of the A_i and of the B_i ready for the pair means,
        stacked (T, m), and the epsilons (T, m) or None."""
        spectra = (_eigh(self.a), _eigh(self.b)) if self.epsilon_scale is None else None
        return self._mean_ready(self.a, self.b, spectra,
                                lambda side, index: f"{'AB'[side]}[{index[1]}]")

    @cached_property
    def sums(self):
        """(sum A, sum B, spectrum of sum A, spectrum of sum B), stacked (T,)."""
        sum_a, sum_b = _pair_sum(self.a), _pair_sum(self.b)
        s_a, s_b = self._psd_screened([_eigh(sum_a), _eigh(sum_b)])
        return sum_a, sum_b, s_a, s_b

    @cached_property
    def sum_pair_spectra(self):
        """Spectra of the pair (sum A, sum B) ready for its mean, and the epsilons."""
        sum_a, sum_b, s_a, s_b = self.sums
        return self._mean_ready(sum_a, sum_b, (s_a, s_b),
                                lambda side, index: ("sum A", "sum B")[side])

    def chain(self, inequality_id, grid, printed_form=True):
        """The chain ``inequality_id`` over ``grid``, in grid order: the
        main chain at every (t, r), printed or t-dependent; its five-term
        proof refinement, which ends in the printed terms; or the four-term
        lemma chain at every (t, r, s) on a stack of single pairs.
        """
        lemma, proof = inequality_id == LEMMA_CHAIN, inequality_id == PROOF_STEPS
        ts, rs = tuple(grid["t"]), tuple(grid["r"])
        ss = tuple(grid["s"]) if lemma else (None,)
        for t, r, s in itertools.product(ts, rs, ss):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"t must lie in [0, 1], got {t!r}")
            if lemma and (r <= 0.0 or s <= 0.0):
                raise ValueError(f"r and s must be positive, got r={r!r}, s={s!r}")
            if proof and r < 1.0:
                raise ValueError(f"proof steps require r >= 1, got {r!r}")
            if r <= 0.0:
                raise ValueError(f"r must be positive, got {r!r}")
        # Every term is laid out (t, r, s, T, n), with a length-1 axis for
        # each grid axis it does not depend on.
        sa, sb, eps = self.pair_spectra
        means = _mean_from_spectra(sa, sb, ts)
        spectra = _eigh(means)
        mean_w = np.maximum(spectra.eigenvalues, 0.0)
        if lemma:
            terms = self._lemma_terms(sa, sb, mean_w, ts, rs, ss)
        else:
            mean_pows = spectra.assemble(np.array([np.power(mean_w, r) for r in rs]))
            lhs = _psd_sigma(sum(np.moveaxis(mean_pows, -3, 0))).swapaxes(0, 1)
            terms = [("sum (A_i#B_i)^r", lhs[:, :, None])]
            _, _, s_a, s_b = self.sums
            if proof:
                terms += self._proof_terms(means, ts, rs)
            if eps is not None:
                eps = eps.max(axis=1)
                if proof:
                    eps = np.maximum(eps, self.sum_pair_spectra[2])
            if printed_form or proof:
                quarter = _powers(s_a, [r / 4.0 for r in rs])
                half_b = _powers(s_b, [r / 2.0 for r in rs])
                halves = _product_sigma(_powers(s_a, [r / 2.0 for r in rs]) @ half_b)
                terms += [("sumA^(r/4) sumB^(r/2) sumA^(r/4)",
                           _psd_sigma(quarter @ half_b @ quarter)[None, :, None]),
                          ("sumA^(r/2) sumB^(r/2)", halves[None, :, None])]
            else:
                # t-dependent variant: the lemma chain's last two terms with
                # s = 1, applied to the summed matrices.
                mid, rhs = _flank_sigmas(s_a, s_b, ts, rs, (1.0,))
                terms += [("sumB^(rt/2) sumA^((1-t)r) sumB^(rt/2)", mid),
                          ("sumA^((1-t)r) sumB^(rt)", rhs)]
        m, n = self.a.shape[1], self.a.shape[-1]
        params = [_params(m=m, n=n, t=t, r=r, s=s, **({} if lemma or proof else {
                      "printed-form": bool(printed_form), "r-in-theorem-range": bool(r >= 1.0)}))
                  for t, r, s in itertools.product(ts, rs, ss)]
        # A length-1 axis serves every value of its grid axis.
        sigma = np.empty((len(ts), len(rs), len(ss), len(terms)) + terms[0][1].shape[-2:])
        for k, (_, x) in enumerate(terms):
            sigma[:, :, :, k] = x
        return _Chain(inequality_id, params, [label for label, _ in terms],
                      sigma.reshape(-1, *sigma.shape[3:]), self.seeds, epsilon=eps)

    def _proof_terms(self, means, ts, rs):
        """(sum_i A_i #_t B_i)^r and (sumA #_t sumB)^r from the pair ``means``
        at every t, laid out (t, r, 1, T, n)."""
        sa, sb, _ = self.sum_pair_spectra
        sum_of_means = _eigh(_pair_sum(means))
        mean_of_sums = _eigh(_mean_from_spectra(sa, sb, ts))
        return [(label, np.array([np.power(w, r) for r in rs]).swapaxes(0, 1)[:, :, None])
                for label, w in (("(sum A_i#B_i)^r", np.maximum(sum_of_means.eigenvalues, 0.0)),
                                 ("(sumA # sumB)^r", np.maximum(mean_of_sums.eigenvalues, 0.0)))]

    def _lemma_terms(self, sa, sb, mean_w, ts, rs, ss):
        """The lemma chain's four terms, laid out (t, r, s, T, n)."""
        # Spectra of A^r and B^r come for free from the spectra of A and B,
        # one r per slot of the pair axis; the mean needs A^(-r/2), which
        # fails where A^r underflows to 0.
        shape = sa.vectors.shape[:1] + (len(rs),) + sa.vectors.shape[2:]
        sa_r, sb_r = (Spectrum(np.concatenate([spectrum_power(x, r) for r in rs], axis=1),
                               np.broadcast_to(x.vectors, shape)) for x in (sa, sb))
        underflow = sa_r.eigenvalues[..., -1] <= 0.0
        sa_r, sb_r = self._screen([sa_r, sb_r], [underflow, underflow],
                                  lambda side, index, spec: spectrum_power(spec, -0.5))
        means_r = np.moveaxis(_psd_sigma(_mean_from_spectra(sa_r, sb_r, ts)), 2, 1)
        flank, product = _flank_sigmas(sa, sb, ts, rs, ss)
        mean_pows = np.array([mean_w ** r for r in rs]).swapaxes(0, 1)
        return [("(A#B)^r", mean_pows[:, :, None, :, 0]),
                ("A^r#B^r", means_r[:, :, None]),
                ("(B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s)", flank[..., 0, :]),
                ("(A^((1-t)rs) B^(rts))^(1/s)", product[..., 0, :])]


def check_main_theorem(a_list, b_list, t, r, norm_spec, printed_form=True,
                       epsilon_scale=None, seed=None):
    """Evaluate the three-term main chain.

    With ``printed_form`` the middle and right terms use the t-free
    exponents (r/4, r/2) exactly as printed; otherwise the t-dependent
    variant assembled from the proof is used.  The two forms are never
    silently substituted for one another.  ``r < 1`` is allowed for
    exploration and flagged in the params.
    """
    return _check(MAIN_THEOREM, a_list, b_list, {"t": t, "r": r, "norm": norm_spec}, seed,
                  printed_form=printed_form, epsilon_scale=epsilon_scale)


def check_proof_steps(a_list, b_list, t, r, norm_spec, epsilon_scale=None, seed=None):
    """Evaluate the five-term proof refinement of the main chain.

    Margins 1-2 localize the convexity/concavity step; margins 3-4
    localize the four-term-chain step applied to the summed matrices (printed,
    t-free form).  Requires ``r >= 1`` (the convexity step needs it).
    """
    return _check(PROOF_STEPS, a_list, b_list, {"t": t, "r": r, "norm": norm_spec}, seed,
                  epsilon_scale=epsilon_scale)


def lemma_chain_sigmas(a, b, t, r, s):
    """Singular-value sequences of the four-term chain, in printed order."""
    chain = _chain(LEMMA_CHAIN, *_validate_lists([a], [b]), {"t": (t,), "r": (r,), "s": (s,)},
                   (None,))
    return list(zip(chain.labels, chain.sigma[0, :, 0]))


def check_lemma_chain(a, b, t, r, s, norm_spec, seed=None):
    """Evaluate the four-term norm chain for one PD pair.

    Margins are reported in printed order together with the Ky Fan
    prefix-sum margins between consecutive terms (the "all unitarily
    invariant norms" form).
    """
    return _check(LEMMA_CHAIN, [a], [b], {"t": t, "r": r, "s": s, "norm": norm_spec}, seed)


# ---------------------------------------------------------------------------
# Audenaert: sum A_iB_i ; (sum A_i^(1/2)B_i^(1/2))^2 ; (sum A_i)(sum B_i)
# ---------------------------------------------------------------------------

def _audenaert_chain(kernel):
    """The commuting-pair chain of a stack of instances; the norm is its only axis."""
    a, b = kernel.a, kernel.b
    products = a @ b
    defect = np.linalg.norm(products - b @ a, axis=(-2, -1))
    # No absolute floor: the bound scales with the inputs, as the defect does.
    bound = COMMUTATION_RTOL * (np.linalg.norm(a, axis=(-2, -1))
                                * np.linalg.norm(b, axis=(-2, -1)))
    if (defect > bound).any():
        k, i = np.argwhere(defect > bound)[0]
        raise CommutationError(
            f"inputs do not commute: pair {i} has commutator norm {defect[k, i]:.3e} "
            f"(tolerance {bound[k, i]:.3e})"
        )
    s_a, s_b = kernel._psd_screened([_eigh(a), _eigh(b)])
    halves = s_a.assemble(spectrum_power(s_a, 0.5)) @ s_b.assemble(spectrum_power(s_b, 0.5))
    x = sum(np.moveaxis(halves, 1, 0))
    sigma = [_product_sigma(sum(np.moveaxis(products, 1, 0))), _product_sigma(x @ x),
             _product_sigma(_pair_sum(a) @ _pair_sum(b))]
    return _Chain(AUDENAERT, [_params(m=a.shape[1], n=a.shape[-1])],
                  ["sum A_iB_i", "(sum A_i^(1/2)B_i^(1/2))^2", "sumA sumB"],
                  np.array([sigma]), kernel.seeds)


def check_audenaert(a_list, b_list, norm_spec, seed=None):
    """Evaluate the commuting-pair chain.

    Every pair (A_i, B_i) must commute up to ``1e-10 ||A_i||_F ||B_i||_F``,
    a bound that scales with the inputs; violating pairs raise
    CommutationError rather than being silently skipped.
    """
    return _check(AUDENAERT, a_list, b_list, {"norm": norm_spec}, seed)


# ---------------------------------------------------------------------------
# A stack of instances over a campaign grid
# ---------------------------------------------------------------------------

def _chain(inequality_id, a, b, grid, seeds, printed_form=True, epsilon_scale=None,
           direction=None, mask_failures=False):
    """The chain ``inequality_id`` on a stack of instances over ``grid``,
    in grid order, with NaN terms for every instance its kernel masked: the
    one place an inequality id is mapped to its kernel.  The arguments are
    those of :func:`stack_reports`; the norm axis is not read.
    """
    if inequality_id == BOURIN_UCHIYAMA:
        kernel = _FunctionSum(a, None, seeds, mask_failures)
        chain = kernel.chain(grid["f"], direction)
    elif inequality_id == AUDENAERT:
        kernel = _StackKernel(a, b, seeds, mask_failures)
        chain = _audenaert_chain(kernel)
    else:
        if inequality_id == LEMMA_CHAIN:
            a, b, epsilon_scale = np.asarray(a)[:, :1], np.asarray(b)[:, :1], None
        kernel = _MainChain(a, b, epsilon_scale, seeds, mask_failures)
        chain = kernel.chain(inequality_id, grid, printed_form)
    chain.sigma[:, :, kernel.failed] = np.nan
    return chain


def stack_reports(inequality_id, a, b, grid, seeds, printed_form=True, epsilon_scale=None,
                  direction=None, mask_failures=False):
    """The reports of a stack of instances over ``grid``, reduced into one
    :class:`_ReportBlock` (read one report with :func:`_build_report`).

    ``a`` and ``b`` hold one A-list and one B-list per instance, arrays of
    shape (T, m, n, n) (``b`` is ignored for Bourin-Uchiyama, and the lemma
    chain takes each instance's first pair); ``seeds`` holds one seed per
    instance.  ``grid`` maps the axes that follow the instance axes to
    their values: ``t``, ``r`` and ``s`` (lemma chain), ``t`` and ``r``
    (main theorem, proof steps) or ``f`` (Bourin-Uchiyama), then ``norm``,
    varied fastest; the block's points follow the axes before ``norm`` in
    grid order, and other axes are ignored.  :func:`_chain` evaluates the
    chain over the grid, the whole stack in one pass with each spectrum
    computed once at the outermost axis it depends on, into one array of
    sequences, and :func:`_reduce` takes each norm as one reduction of it.
    A ``check_*`` predicate is this function on a stack of one over a
    one-point grid.  With ``mask_failures``, an instance with a slice that
    fails the strict positive-definite check, the PSD clamp or f gets NaN
    terms at every point (indeterminate reports) instead of raising.
    """
    return _reduce(_chain(inequality_id, a, b, grid, seeds, printed_form, epsilon_scale,
                          direction, mask_failures), grid["norm"])


def _check(inequality_id, a_list, b_list, point, seed, **options):
    """The report of one instance, given as lists, at one grid ``point``
    (axis -> value, the norm included): :func:`stack_reports` on a stack of
    one over a one-point grid.  ``options`` are its keyword arguments.  An
    input the chain would not read is refused: a Bourin-Uchiyama instance
    has no B-list, and a lemma-chain instance is one pair.
    """
    b_list = list(b_list)
    if inequality_id == BOURIN_UCHIYAMA and b_list:
        raise ShapeError(f"shape error: {BOURIN_UCHIYAMA} takes no B-list")
    a, b = _validate_lists(a_list, a_list if inequality_id == BOURIN_UCHIYAMA else b_list)
    if inequality_id == LEMMA_CHAIN and a.shape[1] > 1:
        raise ShapeError(f"shape error: {LEMMA_CHAIN} takes one pair, got {a.shape[1]}")
    grid = {axis: (value,) for axis, value in point.items()}
    return _build_report(stack_reports(inequality_id, a, b, grid, (seed,), **options))
