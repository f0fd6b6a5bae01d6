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
instance.  It computes every spectrum at the outermost grid axis it
depends on (input spectra and the sums once per stack, pair means once per
t, the chain's singular values once per grid point), each as one stacked
call for all T instances, so its terms carry a leading batch axis.  Every
norm, margin and verdict is then an array reduction over those sequences
(:func:`_reduce`), read out as reports by :func:`_instance_reports`.
The main chain's kernel (:class:`_MainChain`) also serves the proof steps
and, on single pairs, the lemma chain, whose last two terms are the
t-dependent main chain's middle and right terms at s = 1
(:func:`_flank_sigmas`).  A ``check_*`` predicate is the kernel on a stack
of one, evaluated and reduced at one point; :func:`stack_reports` is the
same kernel swept over a campaign grid.
"""

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
    as_matrix,
    clamp_psd_eigenvalues,
    spectrum_function,
    spectrum_power,
)
from .means import _mean_from_spectra, _regularized_pair, _strict_spectrum, sum_matrices
from .norms import ABS_TOL, REL_TOL, norm_from_singular_values, singular_values

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


def tolerance_band(scale, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Width of the numerical-tie band around zero for a given term scale."""
    return rel_tol * scale + abs_tol


@dataclass
class InequalityReport:
    """Evaluated terms, margins, and verdict for one inequality instance.

    ``terms`` are ordered left-to-right as in the chain being tested;
    ``margins[i]`` is the signed slack of step i (nonnegative certifies);
    ``holds`` is true when every term and margin is finite and every margin
    clears ``-tolerance_band(scale)`` with scale the largest term value.
    ``fan_margins`` are the matching Ky Fan prefix-sum margins (all-norms
    certificate).
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

    def to_obj(self):
        return {
            "inequality-id": self.inequality_id,
            "params": self.params,
            "terms": [[label, value] for label, value in self.terms],
            "margins": list(self.margins),
            "holds": self.holds,
            "regularization-epsilon": self.regularization_epsilon,
            "fan-margins": None if self.fan_margins is None else list(self.fan_margins),
        }

    def to_json(self):
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj):
        return cls(
            inequality_id=obj["inequality-id"],
            params=dict(obj["params"]),
            terms=[(label, value) for label, value in obj["terms"]],
            margins=list(obj["margins"]),
            holds=bool(obj["holds"]),
            regularization_epsilon=obj.get("regularization-epsilon"),
            fan_margins=None if obj.get("fan-margins") is None else list(obj["fan-margins"]),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))


def _params(m=None, n=None, t=None, r=None, s=None, function_id=None, **extra):
    # "norm-spec" and "seed" are filled in per report by _build_report.
    p = {
        "m": m,
        "n": n,
        "t": t,
        "r": r,
        "s": s,
        "norm-spec": None,
        "function-id": function_id,
        "seed": None,
    }
    p.update(extra)
    return p


class _ChainPoint(NamedTuple):
    """One chain evaluated at one grid point for a stack of instances,
    before any norm is taken.

    ``sigmas`` are the terms' labeled singular-value sequences, one row per
    instance (shape (T, n)), each sorted nonincreasing; ``seeds`` and
    ``regularization_epsilon`` (an array, or None) hold one entry per
    instance.  ``steps`` lists (left_index, right_index) pairs, the
    ascending consecutive chain when None.  Every norm's report on an
    instance shares its row.
    """

    inequality_id: str
    params: dict
    sigmas: list
    seeds: tuple
    steps: list | None = None
    regularization_epsilon: np.ndarray | None = None


class _ReportBlock(NamedTuple):
    """A stack of T instances reduced over P points of one chain and N norms:
    ``values`` (P, N, terms, T), ``margins`` (P, N, steps, T), ``fan_margins``
    (P, steps, T), which no norm changes, the masks ``finite`` and ``holds``
    (P, N, T), and ``epsilon`` (P, T) or None."""

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


def _reduce(points, norms, rel_tol, abs_tol, failed=None):
    """Every norm's reports on ``points`` (chain points of one stack) as one
    :class:`_ReportBlock`; the instances in ``failed`` get NaN terms.

    A report with any non-finite term, margin or fan margin never holds.
    """
    first = points[0]
    sigma = np.array([[sig for _, sig in point.sigmas] for point in points])
    if failed is not None and failed.any():
        sigma[:, :, failed] = np.nan
    left, right = np.array(first.steps or [(i, i + 1) for i in range(sigma.shape[1] - 1)]).T
    values = np.array([norm_from_singular_values(sigma, spec) for spec in norms]).swapaxes(0, 1)
    margins = values[:, :, right] - values[:, :, left]
    prefix = sigma.cumsum(axis=-1)
    fan_margins = (prefix[:, right] - prefix[:, left]).min(axis=-1)
    # Terms are norms, never negative: the largest is finite exactly when
    # every term is, and then every margin is finite too.
    scale = values.max(axis=2)
    finite = np.isfinite(scale) & np.isfinite(fan_margins).all(axis=1)[:, None]
    holds = finite & (margins.min(axis=2) >= -tolerance_band(scale, rel_tol, abs_tol))
    eps = [point.regularization_epsilon for point in points]
    return _ReportBlock(first.inequality_id, [point.params for point in points],
                        [label for label, _ in first.sigmas], tuple(norms), first.seeds,
                        values, margins, fan_margins, finite, holds,
                        None if eps[0] is None else np.stack(eps))


def _instance_reports(block, k, **extra):
    """The reports of instance ``k`` of a reduced block in grid order, one
    ``tolist`` per array; ``extra`` params end each report's params."""
    names = [str(norm) for norm in block.norms]
    values, margins, holds, fans = (x[..., k].tolist() for x in (
        block.values, block.margins, block.holds, block.fan_margins))
    eps = [None] * len(block.params) if block.epsilon is None else block.epsilon[:, k].tolist()
    return [InequalityReport(block.inequality_id,
                             dict(params, **{"norm-spec": name, "seed": block.seeds[k]}, **extra),
                             list(zip(block.labels, values[point][norm])), margins[point][norm],
                             holds[point][norm], eps[point], fans[point])
            for point, params in enumerate(block.params) for norm, name in enumerate(names)]


def _build_report(block, point=0, norm=0, k=0):
    """The report of norm ``norm`` on instance ``k`` at point ``point`` of a
    reduced block; by default the only one of a ``check_*`` block."""
    return _instance_reports(block, k)[point * len(block.norms) + norm]


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


def _flank_sigmas(s_a, s_b, t, r, s):
    """Singular values of (B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s) and of
    (A^((1-t)rs) B^(rts))^(1/s), built from the spectra of A and B.

    These are the lemma chain's last two terms and, at s = 1 on the spectra
    of the sums, the t-dependent main chain's middle and right terms.
    """
    b_flank = s_b.assemble(spectrum_power(s_b, r * t * s / 2.0))
    a_mid = s_a.assemble(spectrum_power(s_a, (1.0 - t) * r * s))
    product = a_mid @ s_b.assemble(spectrum_power(s_b, r * t * s))
    return (_psd_sigma(b_flank @ a_mid @ b_flank) ** (1.0 / s),
            _product_sigma(product) ** (1.0 / s))


def _validate_lists(a_list, b_list):
    """One instance's A- and B-lists, validated, as stacks of one (1, m, n, n)."""
    a_list = [as_matrix(a) for a in a_list]
    b_list = [as_matrix(b) for b in b_list]
    if not a_list or len(a_list) != len(b_list):
        raise ShapeError("shape error: A-list and B-list must be nonempty and of equal length")
    n = a_list[0].shape[0]
    for m in a_list + b_list:
        if m.shape[0] != n:
            raise ShapeError("shape error: all matrices must share one dimension")
    return np.array(a_list)[None], np.array(b_list)[None]


class _StackKernel:
    """A stack of instances and the failure screen every kernel shares.

    ``a`` and ``b`` hold the instances' A- and B-lists, shape (T, m, n, n)
    (``b`` is None for a chain without B-lists), and ``seeds`` one seed per
    instance.  A slice that fails a spectral check raises as the
    single-matrix functions do.  With ``mask_failures`` it is replaced by
    the identity spectrum instead, so the other slices go on, and its
    instance is marked in ``failed``: :func:`stack_reports` makes all of its
    terms NaN.
    """

    def __init__(self, a, b, seeds, mask_failures):
        self.a = _as_stack(a)
        self.b = self.a if b is None else _as_stack(b)
        if self.a.ndim != 4 or self.a.shape != self.b.shape or self.a.shape[0] != len(seeds):
            raise ShapeError("shape error: A-list and B-list must be nonempty and of equal length")
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
        _check_hermitian(self.a)
        sum_a = sum_matrices(np.moveaxis(self.a, 1, 0))
        return [self._psd_screened([_eigh(x)])[0] for x in (self.a, sum_a)]

    def _mapped(self, spec, f):
        """f(M) for each slice M of ``spec``; a slice where f is undefined
        or not finite is screened."""
        fw = _function_values(clamp_psd_eigenvalues(spec.eigenvalues), f)
        mapped, = self._screen(
            [Spectrum(fw, spec.vectors)], [~np.isfinite(fw).all(axis=-1)],
            lambda side, index, _: spectrum_function(
                Spectrum(spec.eigenvalues[index], spec.vectors[index]), f))
        return mapped.assemble(mapped.eigenvalues)

    def point(self, function_id, direction):
        f, directions = resolve_function(function_id)
        if direction not in (CONVEX, CONCAVE):
            raise ValueError(f"direction must be 'convex' or 'concave', got {direction!r}")
        if direction not in directions:
            raise ValueError(
                f"direction {direction!r} does not match the registered convexity of {function_id!r}"
            )
        spec_a, spec_sum = self.spectra
        left = sum_matrices(np.moveaxis(self._mapped(spec_a, f), 1, 0))
        sigmas = [("sum f(A_i)", _psd_sigma(left)),
                  ("f(sum A_i)", _psd_sigma(self._mapped(spec_sum, f)))]
        steps = [(0, 1)] if direction == CONVEX else [(1, 0)]
        params = _params(m=self.a.shape[1], n=self.a.shape[-1],
                         function_id=str(function_id), direction=direction)
        return _ChainPoint(BOURIN_UCHIYAMA, params, sigmas, self.seeds, steps)


def check_bourin_uchiyama(a_list, function_id, direction, norm_spec,
                          rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Compare ||| sum f(A_i) ||| against ||| f(sum A_i) |||.

    ``direction`` must match the registered convexity of ``function_id``;
    the inequality direction is <= for convex f and >= for concave f.
    Terms stay in printed order, so the single margin is right-minus-left
    for convex and left-minus-right for concave.
    """
    a_list = list(a_list)
    if not a_list:
        raise ShapeError("shape error: at least one matrix is required")
    a, _ = _validate_lists(a_list, a_list)
    point = _FunctionSum(a, None, (seed,), False).point(function_id, direction)
    return _build_report(_reduce([point], (norm_spec,), rel_tol, abs_tol))


# ---------------------------------------------------------------------------
# Main inequality, its proof-step refinement, and the lemma chain:
# (A#tB)^r ; A^r #t B^r ; (B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s) ;
# (A^((1-t)rs) B^(rts))^(1/s), the main chain's kernel on single pairs
# ---------------------------------------------------------------------------

class _MainChain(_StackKernel):
    """Main-chain kernel for a stack of instances: the work that depends on
    neither t nor r, computed on first use and kept for the stack.

    The kernel keeps the pair spectra (strict, or shifted by their epsilon),
    sum A and sum B with their spectra, and, for the proof chain, the
    spectra the mean of the sums is built from; each is one stacked call
    over every instance and pair.  ``at(t)`` adds the pair means.  On a
    stack of single pairs (m = 1) without ``epsilon_scale`` it is the lemma
    chain's kernel as well.
    """

    def __init__(self, a, b, epsilon_scale=None, seeds=(None,), mask_failures=False):
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
        spectra = None
        if self.epsilon_scale is None:
            _check_hermitian(self.a)
            _check_hermitian(self.b)
            spectra = (_eigh(self.a), _eigh(self.b))
        return self._mean_ready(self.a, self.b, spectra,
                                lambda side, index: f"{'AB'[side]}[{index[1]}]")

    @cached_property
    def sums(self):
        """(sum A, sum B, spectrum of sum A, spectrum of sum B), stacked (T,)."""
        sum_a = sum_matrices(np.moveaxis(self.a, 1, 0))
        sum_b = sum_matrices(np.moveaxis(self.b, 1, 0))
        s_a, s_b = self._psd_screened([_eigh(sum_a), _eigh(sum_b)])
        return sum_a, sum_b, s_a, s_b

    @cached_property
    def sum_pair_spectra(self):
        """Spectra of the pair (sum A, sum B) ready for its mean, and the epsilons."""
        sum_a, sum_b, s_a, s_b = self.sums
        return self._mean_ready(sum_a, sum_b, (s_a, s_b),
                                lambda side, index: ("sum A", "sum B")[side])

    def at(self, t):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t!r}")
        return _MainChainAtT(self, t)


class _MainChainAtT:
    """A main-chain stack at one t; the pair means are kept for every r."""

    def __init__(self, chain, t):
        self.chain, self.t = chain, t

    @cached_property
    def pair_means(self):
        """The means A_i #_t B_i and their spectra, stacked (T, m)."""
        sa, sb, _ = self.chain.pair_spectra
        means = _mean_from_spectra(sa, sb, self.t)
        return means, _eigh(means)

    @cached_property
    def proof_eigenvalues(self):
        """Eigenvalues of sum_i A_i #_t B_i and of sumA #_t sumB, stacked (T,)."""
        means, _ = self.pair_means
        sum_of_means = _eigh(sum_matrices(np.moveaxis(means, 1, 0)))
        sa, sb, _ = self.chain.sum_pair_spectra
        mean_of_sums = _eigh(_mean_from_spectra(sa, sb, self.t))
        return sum_of_means.eigenvalues, mean_of_sums.eigenvalues

    def points(self, r, printed_form, with_proof=False):
        """The main chain at (t, r), and its five-term proof refinement.

        Returns ``(main, proof)``: ``main`` is the printed or the
        t-dependent chain, ``proof`` None unless ``with_proof``.  Only the
        terms those chains contain are built, each once for the stack.
        """
        if with_proof and r < 1.0:
            raise ValueError(f"proof steps require r >= 1, got {r!r}")
        if r <= 0.0:
            raise ValueError(f"r must be positive, got {r!r}")
        chain, t = self.chain, self.t
        _, spectra = self.pair_means
        mean_pows = spectra.assemble(np.power(np.maximum(spectra.eigenvalues, 0.0), r))
        lhs = ("sum (A_i#B_i)^r", _psd_sigma(sum(np.moveaxis(mean_pows, 1, 0))))

        _, _, s_a, s_b = chain.sums
        if printed_form or with_proof:
            quarter = s_a.assemble(spectrum_power(s_a, r / 4.0))
            half_b = s_b.assemble(spectrum_power(s_b, r / 2.0))
            mid_printed = ("sumA^(r/4) sumB^(r/2) sumA^(r/4)",
                           _psd_sigma(quarter @ half_b @ quarter))
            rhs_printed = ("sumA^(r/2) sumB^(r/2)",
                           _product_sigma(s_a.assemble(spectrum_power(s_a, r / 2.0)) @ half_b))
        if printed_form:
            main = [lhs, mid_printed, rhs_printed]
        else:
            # t-dependent variant: the lemma chain's last two terms with
            # s = 1, applied to the summed matrices.
            mid, rhs = _flank_sigmas(s_a, s_b, t, r, 1.0)
            main = [lhs, ("sumB^(rt/2) sumA^((1-t)r) sumB^(rt/2)", mid),
                    ("sumA^((1-t)r) sumB^(rt)", rhs)]

        eps = None if chain.epsilon_scale is None else chain.pair_spectra[2].max(axis=1)
        proof = None
        if with_proof:
            sum_of_means, mean_of_sums = self.proof_eigenvalues
            if eps is not None:
                eps = np.maximum(eps, chain.sum_pair_spectra[2])
            proof = [
                lhs,
                ("(sum A_i#B_i)^r", np.power(np.maximum(sum_of_means, 0.0), r)),
                ("(sumA # sumB)^r", np.power(np.maximum(mean_of_sums, 0.0), r)),
                mid_printed,
                rhs_printed,
            ]
        params = _params(m=chain.a.shape[1], n=chain.a.shape[-1], t=t, r=r)
        main_params = dict(params)
        main_params["printed-form"] = bool(printed_form)
        main_params["r-in-theorem-range"] = bool(r >= 1.0)
        return (_ChainPoint(MAIN_THEOREM, main_params, main, chain.seeds,
                            regularization_epsilon=eps),
                None if proof is None else
                _ChainPoint(PROOF_STEPS, params, proof, chain.seeds, regularization_epsilon=eps))

    def lemma_point(self, r, s):
        """The four-term lemma chain at (t, r, s) on a stack of single pairs."""
        if r <= 0.0 or s <= 0.0:
            raise ValueError(f"r and s must be positive, got r={r!r}, s={s!r}")
        sa, sb, _ = self.chain.pair_spectra
        _, mean = self.pair_means
        # Spectra of A^r and B^r come for free from the spectra of A and B;
        # the mean needs A^(-r/2), which fails where A^r underflows to 0.
        sa_r, sb_r = (Spectrum(spectrum_power(x, r), x.vectors) for x in (sa, sb))
        underflow = sa_r.eigenvalues[..., -1] <= 0.0
        sa_r, sb_r = self.chain._screen([sa_r, sb_r], [underflow, underflow],
                                        lambda side, index, spec: spectrum_power(spec, -0.5))
        flank, product = _flank_sigmas(sa, sb, self.t, r, s)
        sigmas = [
            ("(A#B)^r", np.maximum(mean.eigenvalues, 0.0) ** r),
            ("A^r#B^r", _psd_sigma(_mean_from_spectra(sa_r, sb_r, self.t))),
            ("(B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s)", flank),
            ("(A^((1-t)rs) B^(rts))^(1/s)", product),
        ]
        params = _params(m=1, n=sa.dim, t=self.t, r=r, s=s)
        return _ChainPoint(LEMMA_CHAIN, params, [(label, sig[:, 0]) for label, sig in sigmas],
                           self.chain.seeds)


def _one_instance(a_list, b_list, epsilon_scale=None, seed=None):
    """The main-chain kernel of one instance given as lists, validated."""
    a, b = _validate_lists(a_list, b_list)
    return _MainChain(a, b, epsilon_scale, (seed,))


def check_main_theorem(a_list, b_list, t, r, norm_spec, printed_form=True,
                       epsilon_scale=None, rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the three-term main chain.

    With ``printed_form`` the middle and right terms use the t-free
    exponents (r/4, r/2) exactly as printed; otherwise the t-dependent
    variant assembled from the proof is used.  The two forms are never
    silently substituted for one another.  ``r < 1`` is allowed for
    exploration and flagged in the params.
    """
    main, _ = _one_instance(a_list, b_list, epsilon_scale, seed).at(t).points(r, printed_form)
    return _build_report(_reduce([main], (norm_spec,), rel_tol, abs_tol))


def check_proof_steps(a_list, b_list, t, r, norm_spec, epsilon_scale=None,
                      rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the five-term proof refinement of the main chain.

    Margins 1-2 localize the convexity/concavity step; margins 3-4
    localize the four-term-chain step applied to the summed matrices (printed,
    t-free form).  Requires ``r >= 1`` (the convexity step needs it).
    """
    _, proof = _one_instance(a_list, b_list, epsilon_scale, seed).at(t).points(r, True, True)
    return _build_report(_reduce([proof], (norm_spec,), rel_tol, abs_tol))


def main_theorem_with_proof(a_list, b_list, t, r, norm_spec, epsilon_scale=None,
                            rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """One-pass evaluation returning (printed main report, proof report)."""
    points = _one_instance(a_list, b_list, epsilon_scale, seed).at(t).points(r, True, True)
    return tuple(_build_report(_reduce([p], (norm_spec,), rel_tol, abs_tol)) for p in points)


def lemma_chain_sigmas(a, b, t, r, s):
    """Singular-value sequences of the four-term chain, in printed order."""
    point = _one_instance([a], [b]).at(t).lemma_point(r, s)
    return [(label, sig[0]) for label, sig in point.sigmas]


def check_lemma_chain(a, b, t, r, s, norm_spec, rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the four-term norm chain for one PD pair.

    Margins are reported in printed order together with the Ky Fan
    prefix-sum margins between consecutive terms (the "all unitarily
    invariant norms" form).
    """
    point = _one_instance([a], [b], seed=seed).at(t).lemma_point(r, s)
    return _build_report(_reduce([point], (norm_spec,), rel_tol, abs_tol))


# ---------------------------------------------------------------------------
# Audenaert: sum A_iB_i ; (sum A_i^(1/2)B_i^(1/2))^2 ; (sum A_i)(sum B_i)
# ---------------------------------------------------------------------------

def _audenaert_point(kernel):
    """The commuting-pair chain of a stack of instances; the norm is its only axis."""
    a, b = kernel.a, kernel.b
    products = a @ b
    defect = np.linalg.norm(products - b @ a, axis=(-2, -1))
    bound = COMMUTATION_RTOL * (1.0 + np.linalg.norm(a, axis=(-2, -1))
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
    sum_a, sum_b = (sum_matrices(np.moveaxis(m, 1, 0)) for m in (a, b))
    sigmas = [
        ("sum A_iB_i", _product_sigma(sum(np.moveaxis(products, 1, 0)))),
        ("(sum A_i^(1/2)B_i^(1/2))^2", _product_sigma(x @ x)),
        ("sumA sumB", _product_sigma(sum_a @ sum_b)),
    ]
    return _ChainPoint(AUDENAERT, _params(m=a.shape[1], n=a.shape[-1]), sigmas, kernel.seeds)


def check_audenaert(a_list, b_list, norm_spec, rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the commuting-pair chain.

    Every pair (A_i, B_i) must commute up to
    ``1e-10 * (1 + ||A_i||_F ||B_i||_F)``; violating pairs raise
    CommutationError rather than being silently skipped.
    """
    kernel = _StackKernel(*_validate_lists(a_list, b_list), (seed,), False)
    return _build_report(_reduce([_audenaert_point(kernel)], (norm_spec,), rel_tol, abs_tol))


# ---------------------------------------------------------------------------
# A stack of instances over a campaign grid
# ---------------------------------------------------------------------------

def stack_reports(inequality_id, a, b, grid, seeds, printed_form=True, epsilon_scale=None,
                  direction=None, rel_tol=REL_TOL, abs_tol=ABS_TOL, mask_failures=False):
    """The reports of a stack of instances over ``grid``, reduced into one
    :class:`_ReportBlock` (read one report with :func:`_build_report`).

    ``a`` and ``b`` hold one A-list and one B-list per instance, arrays of
    shape (T, m, n, n) (``b`` is ignored for Bourin-Uchiyama, and the lemma
    chain takes each instance's first pair); ``seeds`` holds one seed per
    instance.  ``grid`` maps the axes that follow the instance axes to
    their values: ``t``, ``r`` and ``s`` (lemma chain), ``t`` and ``r``
    (main theorem, proof steps) or ``f`` (Bourin-Uchiyama), then ``norm``,
    varied fastest; the block's points follow the axes before ``norm`` in
    grid order.  Each report equals the one its ``check_*`` predicate gives
    for that instance and point.  Every chain evaluates the whole stack in
    one pass, each spectrum once at the outermost axis it depends on, and
    each norm is one reduction over every point and instance.  With
    ``mask_failures``, an instance with a slice that fails the strict
    positive-definite check, the PSD clamp or f gets NaN terms at every
    point (indeterminate reports) instead of raising.
    """
    if inequality_id == BOURIN_UCHIYAMA:
        kernel = _FunctionSum(a, None, seeds, mask_failures)
        points = [kernel.point(f, direction) for f in grid["f"]]
    elif inequality_id == AUDENAERT:
        kernel = _StackKernel(a, b, seeds, mask_failures)
        points = [_audenaert_point(kernel)]
    elif inequality_id == LEMMA_CHAIN:
        kernel = _MainChain(_as_stack(a)[:, :1], _as_stack(b)[:, :1], None, seeds, mask_failures)
        points = [at_t.lemma_point(r, s) for at_t in map(kernel.at, grid["t"])
                  for r in grid["r"] for s in grid["s"]]
    else:
        kernel = _MainChain(a, b, epsilon_scale, seeds, mask_failures)
        proof = inequality_id == PROOF_STEPS
        # points() gives (main, proof); the proof chain ends in the printed terms.
        points = [at_t.points(r, printed_form or proof, proof)[proof]
                  for at_t in map(kernel.at, grid["t"]) for r in grid["r"]]
    return _reduce(points, grid["norm"], rel_tol, abs_tol, kernel.failed)
