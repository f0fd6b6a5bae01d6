"""Each inequality under test, encoded as an executable predicate that
produces a machine-readable report.

Every check evaluates the chain's terms as singular-value sequences, takes
the requested unitarily invariant norm of each, and reports the signed
margins between consecutive terms (nonnegative margins certify the
instance).  Alongside the per-norm margins, each report carries Ky Fan
prefix-sum margins between consecutive terms ("fan margins"): when these
are nonnegative the chain holds in every unitarily invariant norm at once.

Each inequality has one evaluation kernel, and every kernel takes a stack
of instances in one layout: both sides' pairs in one array (2, P, n, n),
instance by instance, and each instance's m.  It builds the whole grid in
one pass, each term once over the grid axes it depends on: the input
spectra of both sides and of their sums in one call per stack, the pair
means once over every t, the printed main-chain terms once over every r,
the flank terms once over every grid point.  Each of those is one stacked
call over those grid values and every pair (for the pair-level terms) or
every instance of the stack, so its terms carry leading grid and batch
axes; a sum over each instance's pairs runs on a zero-padded pair axis,
each spectrum is assembled once for all its powers, taken one exponent at
a time, and a chain's PSD terms share one eigenvalue call.
Every norm, margin and verdict is then an array reduction over those
sequences, one block per m with its seeds (:func:`_reduce`), read out as
reports by :func:`_instance_reports`.  The main chain's kernel
(:class:`_MainChain`) also serves the proof steps and, on single pairs,
the lemma chain, whose last two terms are the t-dependent main chain's
middle and right terms at s = 1 (:func:`_flank_sigmas`).  One driver,
:func:`_chain`, checks the grid values against their domains
(:func:`_check_grid`, the one statement of those rules) and maps an
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
    _symmetrize,
    clamp_psd_eigenvalues,
    spectrum_function,
    spectrum_power,
)
from .means import _check_weight, _epsilon, _mean_from_spectra, _strict_spectrum
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

# The verdict codes of :func:`_verdict`, ordered: a report holds when its code is at most TIE.
CLEAR, TIE, VIOLATED, INDETERMINATE = range(4)


class _Record:
    """A dataclass as one JSON object: its fields in order, each under its
    name with hyphens, tuples as lists and norms as their text.  ``_keys``
    (JSON key -> field) is built once per class, from the fields it
    annotates."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._keys = {name.replace("_", "-"): name for name in cls.__annotations__}
        # A field without a default has no class attribute.
        cls._required = [key for key, name in cls._keys.items() if name not in vars(cls)]

    def to_obj(self):
        return {key: _json_data(getattr(self, name)) for key, name in self._keys.items()}

    def to_json(self):
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj):
        """The record written as ``obj``; a missing key leaves its field's default, if any."""
        if not isinstance(obj, dict):
            raise ValueError(f"{cls.__name__} record must be a JSON object, got {obj!r}")
        if missing := [key for key in cls._required if key not in obj]:
            raise ValueError(f"{cls.__name__} record is missing keys {missing}")
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
    ``fan_margins`` are the matching Ky Fan prefix-sum margins (all-norms
    certificate).  ``holds`` says that :func:`_verdict`, the one rule, finds
    a clear hold or an in-band tie: every term, margin and fan margin is
    finite and every margin clears ``-tolerance_band(scale)`` (``REL_TOL *
    scale``), scale the largest term value, so scaling a homogeneous chain's
    inputs does not change it; fan margins get no band.
    """

    inequality_id: str
    params: dict
    terms: list
    margins: list
    holds: bool
    regularization_epsilon: float | None = None
    fan_margins: list | None = field(default=None)

    @classmethod
    def from_obj(cls, obj):
        """The report written as ``obj``; its terms, [label, number] pairs,
        become tuples.  A ValueError refuses fewer than two terms, margins
        that are not one number per step (one fewer than the terms) and fan
        margins that are neither null nor one number per step."""
        report = super().from_obj(obj)
        report.terms = [tuple(term) for term in report.terms]
        for term in report.terms:
            if len(term) != 2 or not isinstance(term[0], str) or not _is_number(term[1]):
                raise ValueError(f"a report term must be a [label, number] pair, got {list(term)}")
        steps = len(report.terms) - 1
        if steps < 1:
            raise ValueError(f"a report needs at least two terms, got {steps + 1}")
        for key, margins in ("margins", report.margins), ("fan-margins", report.fan_margins):
            if (margins is not None or key == "margins") and not (
                    isinstance(margins, (list, tuple)) and len(margins) == steps
                    and all(map(_is_number, margins))):
                raise ValueError(f"a report needs one number per step as {key}, {steps} for "
                                 f"{steps + 1} terms, got {margins!r}")
        return report


def _is_number(value):
    """Whether ``value`` is a JSON number; as in JSON, a bool is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _params(m=None, n=None, t=None, r=None, s=None, function_id=None, **extra):
    # "norm-spec" and "seed" are filled in per report by _build_report.
    return {"m": m, "n": n, "t": t, "r": r, "s": s, "norm-spec": None,
            "function-id": function_id, "seed": None, **extra}


class _Chain(NamedTuple):
    """One chain over the P points of a grid for a stack of T instances,
    before any norm is taken, as its kernel computes it: ``sigma`` holds the
    terms' singular-value sequences, (P, terms, T, n) in grid order, each
    sorted nonincreasing; ``params`` one dict per point, its "m" left None
    (:func:`_reduce` fills it in), ``labels`` one label per term, and
    ``epsilon`` ((T,), or None) one entry per instance.  ``steps`` lists
    (left_index, right_index) pairs, the ascending consecutive chain when
    None.
    """

    params: list
    labels: list
    sigma: np.ndarray
    steps: list | None = None
    epsilon: np.ndarray | None = None


class _ReportBlock(NamedTuple):
    """A stack of T instances reduced over P points of one chain and N norms:
    ``values`` (P, N, terms, T), ``margins`` (P, N, steps, T), ``fan_margins``
    (P, steps, T), which no norm changes, the :func:`_verdict` code ``verdict``
    (P, N, T), and ``epsilon`` (T,) or None."""

    inequality_id: str
    params: list
    labels: list
    norms: tuple
    seeds: tuple
    values: np.ndarray
    margins: np.ndarray
    fan_margins: np.ndarray
    verdict: np.ndarray
    epsilon: np.ndarray | None


def _verdict(values, margins, fan_margins):
    """The one verdict rule, as one code per report, (P, N, T), of terms
    ``values`` (P, N, terms, T), ``margins`` (P, N, steps, T) and
    ``fan_margins`` ((P, steps, T), or None): INDETERMINATE if a term, margin
    or fan margin is not finite, else VIOLATED, TIE or CLEAR as the least
    margin lies below, within or above [-band, band], band that of the
    largest absolute term (all zeros are a TIE).  A chain's terms are norms
    and its margins finite when they are; a file's report may say otherwise."""
    finite = np.isfinite(values).all(axis=2) & np.isfinite(margins).all(axis=2)
    if fan_margins is not None:
        finite &= np.isfinite(fan_margins).all(1)[:, None]
    low, band = margins.min(axis=2), tolerance_band(np.abs(values).max(axis=2))
    return np.where(finite, np.where(low < -band, VIOLATED, np.where(low > band, CLEAR, TIE)),
                    INDETERMINATE)


def _reduce(inequality_id, chain, norms, seeds, counts):
    """Every norm's reports on ``chain`` (of ``inequality_id``) as one :class:`_ReportBlock`
    per run of equal m in ``counts``, with its instances' ``seeds`` and its m."""
    sigma = chain.sigma
    left, right = np.array(chain.steps or [(i, i + 1) for i in range(sigma.shape[1] - 1)]).T
    values = np.array([norm_from_singular_values(sigma, spec) for spec in norms]).swapaxes(0, 1)
    margins = values[:, :, right] - values[:, :, left]
    prefix = sigma.cumsum(axis=-1)
    fan_margins = (prefix[:, right] - prefix[:, left]).min(axis=-1)
    verdict, eps, blocks, stop = _verdict(values, margins, fan_margins), chain.epsilon, [], 0
    for m, run in itertools.groupby(np.asarray(counts).tolist()):
        run = slice(stop, stop + len(list(run)))
        stop = run.stop
        blocks.append(_ReportBlock(
            inequality_id, [dict(point, m=m) for point in chain.params], chain.labels,
            tuple(norms), seeds[run], values[..., run], margins[..., run],
            fan_margins[..., run], verdict[..., run], None if eps is None else eps[run]))
    return blocks


def _instance_reports(block, k, row=None, **extra):
    """Instance ``k``'s reports in a reduced block in grid order, or only its
    report ``row``, one ``tolist`` per array; ``extra`` params end their params."""
    names = [str(norm) for norm in block.norms]
    values, margins, codes, fans = (x[..., k].tolist() for x in (
        block.values, block.margins, block.verdict, block.fan_margins))
    eps = None if block.epsilon is None else block.epsilon[k].tolist()
    rows = itertools.product(range(len(block.params)), range(len(names)))
    return [InequalityReport(block.inequality_id,
                             dict(block.params[point], **{"norm-spec": names[norm],
                                                          "seed": block.seeds[k]}, **extra),
                             list(zip(block.labels, values[point][norm])), margins[point][norm],
                             codes[point][norm] <= TIE, eps, fans[point])
            for point, norm in (rows if row is None else [divmod(row, len(names))])]


def _build_report(block, k=0):
    """The first report of instance ``k`` of a reduced block; by default the
    only one of a ``check_*`` block."""
    return _instance_reports(block, k, 0)[0]


def _report_blocks(reports):
    """A list of reports as reduced blocks, the inverse of
    :func:`_instance_reports`: each run of reports that share a chain, term
    labels, step counts and epsilon is one block of a point per report, one
    norm and one instance, with the reports' own params and the
    :func:`_verdict` of their numbers, whatever their ``holds`` says."""
    def layout(report):
        return (report.inequality_id, [label for label, _ in report.terms], len(report.margins),
                None if report.fan_margins is None else len(report.fan_margins),
                report.regularization_epsilon)

    for (inequality_id, labels, _, fans, eps), run in itertools.groupby(reports, key=layout):
        run = list(run)

        def floats(rows):
            """(reports, entries) as floats."""
            return np.array(rows, dtype=float).reshape(len(run), -1)

        values = floats([[v for _, v in r.terms] for r in run])[:, None, :, None]
        margins = floats([r.margins for r in run])[:, None, :, None]
        fan_margins = None if fans is None else floats([r.fan_margins for r in run])[:, :, None]
        yield _ReportBlock(
            inequality_id, [r.params for r in run], labels, (None,), (None,), values, margins,
            fan_margins, _verdict(values, margins, fan_margins),
            None if eps is None else np.array([eps], dtype=float))


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


def _psd_sigmas(*terms):
    """Singular values of PSD-by-construction terms, Hermitian up to rounding:
    of each of ``terms`` (stacks of one n), in its own stack shape, from one
    eigenvalue call over all their slices."""
    flat = _finite_sigma(np.concatenate([x.reshape(-1, *x.shape[-2:]) for x in terms]),
                         lambda x: np.maximum(_eigh(x).eigenvalues, 0.0))
    starts = [0, *itertools.accumulate(math.prod(x.shape[:-2]) for x in terms)]
    return [flat[i:j].reshape(x.shape[:-1]) for x, i, j in zip(terms, starts, starts[1:])]


def _product_sigma(m):
    """Singular values of a general (non-Hermitian) term."""
    return _finite_sigma(m, singular_values)


def _arrays(spec):
    return spec.eigenvalues, spec.vectors


def _powers(spec, exponents):
    """V diag(w^p) V* for every p in ``exponents``, stacked (len(exponents),
    ...) ahead of the stack axes of ``spec``: the eigenvalues clamped once
    (as :func:`spectrum_power` clamps them), one power per exponent, each
    with the exponent as given, then one assembly.  Every exponent is
    nonnegative, so no power can divide by 0."""
    w = clamp_psd_eigenvalues(spec.eigenvalues)
    return spec.assemble(np.array([np.power(w, p) for p in exponents]))


def _flank_sigmas(s_a, s_b, ts, rs, ss, psd_terms=()):
    """Singular values of (B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s) and of
    (A^((1-t)rs) B^(rts))^(1/s) at every (t, r, s), built from the spectra
    of A and B, each stacked (len(ts), len(rs), len(ss), ...), then the
    :func:`_psd_sigmas` of ``psd_terms`` from the first one's eigenvalue call.

    These are the lemma chain's last two terms and, at s = 1 on the spectra
    of the sums, the t-dependent main chain's middle and right terms.
    """
    grid = list(itertools.product(ts, rs, ss))
    b_flank, b_full = _powers(s_b, [r * t * s / d for d in (2.0, 1.0) for t, r, s in grid]
                              ).reshape(2, len(grid), *s_b.vectors.shape)
    a_mid = _powers(s_a, [(1.0 - t) * r * s for t, r, s in grid])
    shape = (len(ts), len(rs), len(ss)) + s_a.eigenvalues.shape
    flank, *others = _psd_sigmas(b_flank @ a_mid @ b_flank, *psd_terms)
    sigmas = [flank.reshape(shape), _product_sigma(a_mid @ b_full).reshape(shape)]
    for sigma in sigmas:
        for k, s in enumerate(ss):
            sigma[:, :, k] = sigma[:, :, k] ** (1.0 / s)
    return sigmas + others


def _validate_lists(a_list, b_list):
    """One instance's A- and B-lists, checked for length and shape, as one stack (2, m, n, n)."""
    a_list, b_list = list(a_list), list(b_list)
    if not a_list or len(a_list) != len(b_list):
        raise ShapeError("shape error: A-list and B-list must be nonempty and of equal length")
    shape = np.shape(a_list[0])
    if len(shape) != 2 or any(np.shape(m) != shape[-1:] * 2 for m in a_list + b_list):
        raise ShapeError("shape error: all matrices must be square and share one dimension")
    return np.array([a_list, b_list])


class _Carry(dict):
    """Kernel entries kept between evaluations of stacks of one layout (the
    search's rounds), and in ``last`` the last one's: name -> (arrays, owner),
    ``owner`` mapping axis 1 (pairs or instances) to the instances, and in
    ``layout`` the stacks' width, starts, owner and slot."""

    def commit(self, instances):
        """Keep the last entries of the instances at mask ``instances`` (all, the first time)."""
        for name, (arrays, owner) in self.last.items():
            kept, keep = (self.setdefault(name, ([x.copy() for x in arrays], owner))[0],
                          instances[owner])
            for old, x in zip(kept, arrays):
                np.copyto(old, x, where=keep.reshape((-1,) + (1,) * (x.ndim - 2)))


class _StackKernel:
    """A stack of instances and the failure screen every kernel shares.

    ``ab`` holds both sides (2, P, n, n), each every pair of every instance
    in one flat stack, instance by instance; a complex128 C-ordered ``ab``
    is kept as given, never copied or written.  ``a`` and ``b`` are views of
    its sides (a chain without B-lists has one side, (1, P, n, n), and
    ``b`` is ``a``), and ``counts`` gives each instance's m, (T,).
    Pair-level work (spectra, screens, means, f, products) runs once over
    the P pairs of both sides, instance-level work once over the T
    instances (the sums' spectra in the pairs' call), and a sum over each
    instance's pairs is :meth:`_sum`.  ``owner`` maps each pair to its
    instance, ``slot`` to its index within it, and ``starts`` gives each
    instance's first pair.

    It is the one place a kernel's inputs are validated: a matrix that is
    not square, finite and Hermitian raises, even with ``mask_failures``,
    and nothing behind it (sums, spectra, means) re-checks.  A slice that
    fails a spectral check raises as the single-matrix functions do.  With
    ``mask_failures`` it is replaced by the identity spectrum instead, so
    the other slices go on, and its instance (only its own) is marked in
    ``failed``: :func:`stack_reports` makes all of its terms NaN.  With a
    :class:`_Carry`, only the ``moved`` matrices (side, P), whose bits differ
    from its "inputs", are checked, only they and the sums that hold one
    are decomposed, and the layout (``width`` to ``slot``) is the carry's.
    """

    def __init__(self, ab, counts, mask_failures, carry=None):
        self.ab, counts = np.ascontiguousarray(ab, dtype=np.complex128), np.asarray(counts)
        if self.ab.ndim != 4 or len(self.ab) not in (1, 2):
            raise ShapeError(f"shape error: stack must be (1 or 2, P, n, n), got {self.ab.shape}")
        if (counts.ndim != 1 or not len(counts) or (counts < 1).any()
                or counts.sum() != self.ab.shape[1]):
            raise ShapeError(f"shape error: counts must be m >= 1 per instance summing to the "
                             f"{self.ab.shape[1]} pairs, got {counts.tolist()}")
        self.carry, self.moved = carry, np.ones(self.ab.shape[:2], dtype=bool)
        if carry:
            kept = carry["inputs"][0][0].view(np.uint64)
            self.moved = (self.ab.view(np.uint64) != kept).any(axis=(-2, -1))
        # One check for both sides; a defect of A is still the one reported first.  An
        # unmoved matrix of a carried stack passed it in the round that made it its state.
        _check_hermitian(_as_stack(self.ab[self.moved] if carry else self.ab))
        self.a, self.b = self.ab[0], self.ab[-1]
        self.counts = counts
        self.mask_failures = mask_failures
        self.failed = np.zeros(len(counts), dtype=bool)
        layout = getattr(carry, "layout", None)
        if layout is None:
            starts = np.cumsum(counts) - counts
            owner = np.repeat(np.arange(len(counts)), counts)
            layout = int(counts.max()), starts, owner, np.arange(len(self.a)) - starts[owner]
        self.width, self.starts, self.owner, self.slot = layout
        if carry is not None:
            carry.layout, carry.last = layout, {"inputs": ([self.ab], self.owner)}

    def _carried(self, name, fresh, compute, owner, axis=0):
        """The arrays ``compute(mask)`` of a carried stack, computed only at the mask
        ``fresh`` (from axis ``axis`` on), recorded as entry ``name`` with ``owner``."""
        arrays = compute(slice(None)) if fresh.all() else [x.copy() for x in self.carry[name][0]]
        for full, x in zip(arrays, compute(fresh) if fresh.any() and not fresh.all() else ()):
            full[(slice(None),) * axis + (fresh,)] = x
        self.carry.last[name] = arrays, owner
        return arrays

    def _spectra(self, sums=False):
        """The spectra of the A_i and of the B_i, (P,) each, and those of each
        instance's sum A and sum B, (T,) each with ``sums``, else (0,) (of
        the A side only, on one side), from one decomposition of the pairs
        and sums, (sides, P + T).  With a carry, only the moved matrices and
        the sums that hold one are decomposed."""
        x, fresh, owner = self.ab, self.moved, self.owner
        if sums:
            x = np.concatenate([x, self._sum(x)], axis=1)
            fresh = np.concatenate([fresh, np.logical_or.reduceat(fresh, self.starts, axis=1)], 1)
            owner = np.concatenate([owner, np.arange(len(self.counts))])
        spec = _eigh(x) if self.carry is None else Spectrum(*self._carried(
            "spectra", fresh, lambda mask: _arrays(_eigh(x[mask])), owner))
        return [[spec[side, part] for side in range(len(x))]
                for part in (np.s_[:len(self.owner)], np.s_[len(self.owner):])]

    def _sum(self, x):
        """Each instance's sum of its own pairs, added one at a time from 0:
        ``x`` runs over the stack's P pairs on axis -3, the result over its
        T instances.  The pairs go through a zero-padded (T, m_max) axis,
        which is a reshape when every instance is as wide."""
        shape = x.shape[:-3] + (len(self.counts), self.width) + x.shape[-2:]
        if len(self.a) == len(self.counts) * self.width:
            padded = x.reshape(shape)
        else:
            padded = np.zeros(shape, dtype=x.dtype)
            padded[..., self.owner, self.slot, :, :] = x
        return sum(padded[..., slot, :, :] for slot in range(self.width))

    def _screen(self, spectra, failures, raise_for):
        """``spectra`` with the slices in ``failures`` (one mask per
        spectrum) replaced by the identity spectrum.  A mask whose first
        axis has the stack's P entries runs over the pairs, any other over
        the instances (with one pair each, the two agree).

        Without ``mask_failures``, ``raise_for(side, index, spectrum)``
        raises the error of the first failing slice instead, taken in
        (instance, pair, side) order.
        """
        if not any(mask.any() for mask in failures):
            return spectra
        failed = np.stack(failures, axis=-1)
        if not self.mask_failures:
            *index, side = np.argwhere(failed)[0]
            raise_for(side, tuple(index), spectra[side][tuple(index)])
        rows = failed.reshape(len(failed), -1).any(axis=1)
        self.failed[self.owner[rows] if len(rows) == len(self.owner) else rows] = True
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
        if not 0.0 < p < math.inf:
            raise UnregisteredFunctionError(f"unregistered function {function_id!r}: "
                                            "power must be finite and positive")
        directions = {CONVEX} if p > 1.0 else {CONCAVE} if p < 1.0 else {CONVEX, CONCAVE}
        return (lambda x: x ** p), frozenset(directions)
    raise UnregisteredFunctionError(f"unregistered function {function_id!r}")


class _FunctionSum(_StackKernel):
    """Bourin-Uchiyama kernel for stacks of A-lists; the spectra of every
    A_i and of sum A_i are computed once and serve every f."""

    def _mapped(self, spec, f):
        """f(M) for each slice M of ``spec``; a slice where f is undefined
        or not finite is screened."""
        fw = _function_values(clamp_psd_eigenvalues(spec.eigenvalues), f)
        mapped, = self._screen(
            [Spectrum(fw, spec.vectors)], [~np.isfinite(fw).all(axis=-1)],
            lambda side, index, _: spectrum_function(spec[index], f))
        return mapped.assemble(mapped.eigenvalues)

    def chain(self, function_ids, direction):
        """The chain at every f of ``function_ids``, in order, each f
        fitting ``direction`` (:func:`_check_grid`)."""
        pairs, sums = self._spectra(sums=True)
        spec_a, = self._psd_screened(pairs)
        spec_sum, = self._psd_screened(sums)
        terms, params = [], []
        for function_id in function_ids:
            f, _ = resolve_function(function_id)
            terms += [self._sum(self._mapped(spec_a, f)), self._mapped(spec_sum, f)]
            params.append(_params(n=self.a.shape[-1], function_id=str(function_id),
                                  direction=direction))
        sigma = np.reshape(_psd_sigmas(*terms), (len(params), 2) + spec_sum.eigenvalues.shape)
        steps = [(0, 1)] if direction == CONVEX else [(1, 0)]
        return _Chain(params, ["sum f(A_i)", "f(sum A_i)"], sigma, steps)


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
    """Main-chain kernel for stacks of instances, evaluated over a whole
    (t, r) grid, or (t, r, s) grid for the lemma chain, in one pass.

    :meth:`chain` computes the work that depends on neither t nor r once:
    the pair spectra and those of sum A and sum B in one call and, for the
    proof chain, the latter screened for the mean of the sums.  It then
    builds each term once over the grid axes it depends on: the pair means
    over every t (one SVD of A^(-1/2) B^(1/2) serves them all), the printed
    terms over every r, A^r #_t B^r over every (t, r), and the flank terms
    over every point, each as one stacked call over those values and every
    pair (or instance) of every stack, the PSD terms in one eigenvalue call.
    Each term is then written into the chain's one array, broadcast over
    the grid axes it does not depend on.
    On a stack of single pairs (m = 1) without ``epsilon_scale`` it is the
    lemma chain's kernel as well.

    With ``epsilon_scale`` it is the strict chain on the inputs shifted by
    one epsilon * I per instance: each A_i and B_i must pass the PSD clamp,
    epsilon is the instance's largest ``regularization_epsilon``, and the
    eigenvalues (never the matrices, which would break proof step 2's exact
    tie at m = 1) of the pairs are shifted by epsilon, of the sums by the
    instance's own m times epsilon.
    """

    def _strict_screened(self, spectra, names):
        """``spectra`` screened for a mean: each side strictly positive definite."""
        return self._screen(spectra, [spec.eigenvalues[..., -1] <= 0.0 for spec in spectra],
                            lambda side, index, spec: _strict_spectrum(spec, names(side, index)))

    def _pair_spectra(self, spectra, epsilon_scale):
        """The ``spectra`` of the A_i and of the B_i, (P,), ready for the pair
        means, and each instance's largest epsilon over its own pairs, (T,),
        or None without ``epsilon_scale``."""
        eps = None
        if epsilon_scale is not None:
            eps = np.maximum.reduceat(_epsilon(epsilon_scale, *(s.eigenvalues for s in spectra)),
                                      self.starts)
            spectra = [Spectrum(s.eigenvalues + eps[self.owner, None], s.vectors)
                       for s in self._psd_screened(spectra)]
        sa, sb = self._strict_screened(
            spectra, lambda side, index: f"{'AB'[side]}[{self.slot[index[0]]}]")
        return sa, sb, eps

    def chain(self, inequality_id, grid, printed_form=True, epsilon_scale=None):
        """The chain ``inequality_id`` over ``grid``, in grid order: the
        main chain at every (t, r), printed or t-dependent; its five-term
        proof refinement, which ends in the printed terms; or the four-term
        lemma chain at every (t, r, s) on a stack of single pairs; every
        value lies in its domain (:func:`_check_grid`).
        """
        lemma, proof = inequality_id == LEMMA_CHAIN, inequality_id == PROOF_STEPS
        ts, rs = tuple(grid["t"]), tuple(grid["r"])
        ss = tuple(grid["s"]) if lemma else (None,)
        # Every term is laid out (t, r, s, T, n), with a length-1 axis for
        # each grid axis it does not depend on; the pair-level terms carry
        # the P pairs instead of the T instances until they are summed.
        pair_spectra, sums = self._spectra(sums=not lemma)
        sa, sb, eps = self._pair_spectra(pair_spectra, epsilon_scale)

        def pair_means(pairs):
            means = _mean_from_spectra(sa[pairs], sb[pairs], ts)
            return (means, *_arrays(_eigh(means)))
        # With epsilon, a pair's means depend on its instance's other pairs.
        means, *spectra = pair_means(slice(None)) if self.carry is None else self._carried(
            "means", self.moved.any(axis=0) | (eps is not None), pair_means, self.owner, axis=1)
        spectra = Spectrum(*spectra)
        mean_w = np.maximum(spectra.eigenvalues, 0.0)
        if lemma:
            terms = self._lemma_terms(sa, sb, mean_w, ts, rs, ss)
        else:
            # The PSD terms, sum (A_i#B_i)^r first, share one eigenvalue call.
            mean_pows = spectra.assemble(np.array([np.power(mean_w, r) for r in rs]))
            psd = [self._sum(mean_pows)]
            # The sums, shifted by each instance's m times its epsilon.
            s_a, s_b = self._psd_screened(sums if eps is None else [
                Spectrum(s.eigenvalues + (self.counts * eps)[:, None], s.vectors) for s in sums])
            if proof:
                strict = self._strict_screened([s_a, s_b],
                                               lambda side, _: ("sum A", "sum B")[side])
                psd += [self._sum(means), _mean_from_spectra(*strict, ts)]
            if printed_form or proof:
                quarter, half = _powers(s_a, [r / q for q in (4.0, 2.0) for r in rs]).reshape(
                    2, len(rs), *s_a.vectors.shape)
                half_b = _powers(s_b, [r / 2.0 for r in rs])
                halves = _product_sigma(half @ half_b)
                lhs, *proof_w, middle = _psd_sigmas(*psd, quarter @ half_b @ quarter)
                last = [("sumA^(r/4) sumB^(r/2) sumA^(r/4)", middle[None, :, None]),
                        ("sumA^(r/2) sumB^(r/2)", halves[None, :, None])]
            else:
                # t-dependent variant: the lemma chain's last two terms with
                # s = 1, applied to the summed matrices.
                mid, rhs, lhs = _flank_sigmas(s_a, s_b, ts, rs, (1.0,), psd)
                proof_w, last = [], [("sumB^(rt/2) sumA^((1-t)r) sumB^(rt/2)", mid),
                                     ("sumA^((1-t)r) sumB^(rt)", rhs)]
            terms = [("sum (A_i#B_i)^r", lhs.swapaxes(0, 1)[:, :, None])] + [
                (label, np.array([np.power(w, r) for r in rs]).swapaxes(0, 1)[:, :, None])
                for label, w in zip(("(sum A_i#B_i)^r", "(sumA # sumB)^r"), proof_w)] + last
        params = [_params(n=self.a.shape[-1], t=t, r=r, s=s, **({} if lemma or proof else {
                      "printed-form": bool(printed_form), "r-in-theorem-range": bool(r >= 1.0)}))
                  for t, r, s in itertools.product(ts, rs, ss)]
        # A length-1 axis serves every value of its grid axis.
        sigma = np.empty((len(ts), len(rs), len(ss), len(terms)) + terms[0][1].shape[-2:])
        for k, (_, x) in enumerate(terms):
            sigma[:, :, :, k] = x
        return _Chain(params, [label for label, _ in terms], sigma.reshape(-1, *sigma.shape[3:]),
                      epsilon=eps)

    def _lemma_terms(self, sa, sb, mean_w, ts, rs, ss):
        """The lemma chain's four terms, laid out (t, r, s, T, n), from the
        spectra of a stack of single pairs (P = T)."""
        # Spectra of A^r and B^r come for free from the spectra of A and B,
        # one r per slot of a new axis; the mean needs A^(-r/2), which
        # fails where A^r underflows to 0.
        shape = sa.vectors.shape[:1] + (len(rs),) + sa.vectors.shape[1:]
        sa_r, sb_r = (Spectrum(np.stack([spectrum_power(x, r) for r in rs], axis=1),
                               np.broadcast_to(x.vectors[:, None], shape)) for x in (sa, sb))
        underflow = sa_r.eigenvalues[..., -1] <= 0.0
        sa_r, sb_r = self._screen([sa_r, sb_r], [underflow, underflow],
                                  lambda side, index, spec: spectrum_power(spec, -0.5))
        flank, product, means_r = _flank_sigmas(sa, sb, ts, rs, ss,
                                                [_mean_from_spectra(sa_r, sb_r, ts)])
        means_r = np.moveaxis(means_r, 2, 1)
        mean_pows = np.array([mean_w ** r for r in rs]).swapaxes(0, 1)
        return [("(A#B)^r", mean_pows[:, :, None]),
                ("A^r#B^r", means_r[:, :, None]),
                ("(B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s)", flank),
                ("(A^((1-t)rs) B^(rts))^(1/s)", product)]


def check_main_theorem(a_list, b_list, t, r, norm_spec, printed_form=True,
                       epsilon_scale=None, seed=None):
    """Evaluate the three-term main chain.

    With ``printed_form`` the middle and right terms use the t-free
    exponents (r/4, r/2) exactly as printed; otherwise the t-dependent
    variant assembled from the proof is used.  The two forms are never
    silently substituted for one another.  ``r < 1`` is allowed for
    exploration and flagged in the params.  With ``epsilon_scale`` (PSD
    inputs) the chain is evaluated on the inputs shifted by one epsilon * I,
    ``epsilon_scale * (1 + max_i max(||A_i||_2, ||B_i||_2))``, which the
    report records.
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
    chain = _chain(LEMMA_CHAIN, _validate_lists([a], [b]), (1,), {"t": (t,), "r": (r,), "s": (s,)})
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
    bound = COMMUTATION_RTOL * np.prod(np.linalg.norm(kernel.ab, axis=(-2, -1)), axis=0)
    if (defect > bound).any():
        p = np.flatnonzero(defect > bound)[0]
        raise CommutationError(
            f"inputs do not commute: pair {kernel.slot[p]} has commutator norm {defect[p]:.3e} "
            f"(tolerance {bound[p]:.3e})"
        )
    s_a, s_b = kernel._psd_screened(kernel._spectra()[0])
    halves = s_a.assemble(spectrum_power(s_a, 0.5)) @ s_b.assemble(spectrum_power(s_b, 0.5))
    x = kernel._sum(halves)
    # The product of the sums reaches no _eigh, so each sum is symmetrized here.
    sum_a, sum_b = _symmetrize(kernel._sum(kernel.ab))
    sigma = [_product_sigma(kernel._sum(products)), _product_sigma(x @ x),
             _product_sigma(sum_a @ sum_b)]
    return _Chain([_params(n=a.shape[-1])],
                  ["sum A_iB_i", "(sum A_i^(1/2)B_i^(1/2))^2", "sumA sumB"], np.array([sigma]))


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

def _check_grid(inequality_id, grid, direction=None):
    """Refuse, with a ValueError naming the axis, a value of ``grid`` (axis
    -> values) outside its chain's domain: every t lies in [0, 1], every r
    and s is finite and positive, every r of the proof steps is at least 1
    (the convexity step needs it), a Bourin-Uchiyama ``direction`` is
    convex or concave and fits every f, and any other is convex, concave or
    None.  An axis missing from ``grid`` is not read.  These rules are stated
    here only: every chain goes through :func:`_chain`, which calls this,
    and a campaign config on its direction and each axis before any draw.
    """
    for t in grid.get("t", ()):
        _check_weight(t)
    for axis in ("r", "s"):
        for x in grid.get(axis, ()):
            if not 0.0 < x < math.inf:
                raise ValueError(f"{axis} must be finite and positive, got {axis}={x!r}")
    for r in grid.get("r", ()) if inequality_id == PROOF_STEPS else ():
        if r < 1.0:
            raise ValueError(f"{PROOF_STEPS} requires every r >= 1 (the convexity step needs "
                             f"it), got r={r!r}")
    if inequality_id == BOURIN_UCHIYAMA and "f" in grid:
        if direction not in (CONVEX, CONCAVE):
            given = "it is missing" if direction is None else f"got {direction!r}"
            raise ValueError(f"{BOURIN_UCHIYAMA} needs direction 'convex' or 'concave'; {given}")
        for function_id in grid["f"]:
            if direction not in resolve_function(function_id)[1]:
                raise ValueError(f"direction {direction!r} does not match the registered "
                                 f"convexity of {function_id!r}")
    elif direction not in (None, CONVEX, CONCAVE):
        raise ValueError(f"a direction must be 'convex' or 'concave', got {direction!r}")


def _chain(inequality_id, ab, counts, grid, printed_form=True, epsilon_scale=None,
           direction=None, mask_failures=False, carry=None):
    """The chain ``inequality_id`` on a stack of instances over ``grid``, in
    grid order, with NaN terms for every instance its kernel masked: the one
    place an inequality id is mapped to its kernel, after
    :func:`_check_grid` has checked the grid.  The arguments are those of
    :func:`stack_reports` but the seeds, and the norm axis is not read.
    """
    _check_grid(inequality_id, grid, direction)
    if inequality_id == BOURIN_UCHIYAMA:
        kernel = _FunctionSum(ab[:1], counts, mask_failures, carry)
        chain = kernel.chain(grid["f"], direction)
    elif inequality_id == AUDENAERT:
        kernel = _StackKernel(ab, counts, mask_failures, carry)
        chain = _audenaert_chain(kernel)
    else:
        lemma = inequality_id == LEMMA_CHAIN
        kernel = _MainChain(ab, counts, mask_failures, carry)
        if lemma and kernel.width > 1:
            raise ShapeError(f"shape error: {LEMMA_CHAIN} takes one pair, got {kernel.width}")
        chain = kernel.chain(inequality_id, grid, printed_form, None if lemma else epsilon_scale)
    chain.sigma[:, :, kernel.failed] = np.nan
    return chain


def stack_reports(inequality_id, ab, counts, grid, seeds, printed_form=True,
                  epsilon_scale=None, direction=None, mask_failures=False, carry=None):
    """The reports of a stack of instances over ``grid``, one reduced
    :class:`_ReportBlock` per run of equal m (read a report with
    :func:`_build_report`).

    ``ab`` holds both sides of every pair of every instance, (2, P, n, n),
    instance by instance (Bourin-Uchiyama reads its first side only),
    ``counts`` each instance's m (1 for the lemma chain) and ``seeds`` one
    seed per instance.  The blocks come back in instance order.  ``grid`` maps
    the axes that follow the instance axes to their values: ``t``, ``r`` and
    ``s`` (lemma chain), ``t`` and ``r`` (main theorem, proof steps) or
    ``f`` (Bourin-Uchiyama), then ``norm``, varied fastest; the block's
    points follow the axes before ``norm`` in grid order, and other axes are
    ignored.  :func:`_chain` evaluates the chain over the grid, the whole
    stack in one pass with each spectrum computed once at the outermost axis
    it depends on, into one array of sequences, and :func:`_reduce` takes
    each norm as one reduction of it, split by m, with the seeds.  A
    ``check_*`` predicate is this function on a stack of one over a
    one-point grid.  With ``mask_failures``, an instance with a slice that
    fails the strict positive-definite check, the PSD clamp or f gets NaN
    terms at every point (indeterminate reports) instead of raising; the
    other instances, those of its trial included, go on.  A ``carry``
    (:class:`_Carry`) spares unmoved matrices' decompositions, not a bit.
    """
    if len(seeds) != np.size(counts):
        raise ShapeError(f"shape error: seeds must be one per instance, got {len(seeds)}")
    chain = _chain(inequality_id, ab, counts, grid, printed_form, epsilon_scale, direction,
                   mask_failures, carry)
    return _reduce(inequality_id, chain, grid["norm"], tuple(seeds), counts)


def _check(inequality_id, a_list, b_list, point, seed, **options):
    """The report of one instance, given as lists, at one grid ``point``
    (axis -> value, the norm included): :func:`stack_reports` on a stack of
    one over a one-point grid.  ``options`` are its keyword arguments.  A
    Bourin-Uchiyama instance has no B-list: one given is refused, not
    dropped.
    """
    b_list = list(b_list)
    if inequality_id == BOURIN_UCHIYAMA and b_list:
        raise ShapeError(f"shape error: {BOURIN_UCHIYAMA} takes no B-list")
    ab = _validate_lists(a_list, a_list if inequality_id == BOURIN_UCHIYAMA else b_list)
    grid = {axis: (value,) for axis, value in point.items()}
    return _build_report(stack_reports(inequality_id, ab, (ab.shape[1],), grid, (seed,),
                                       **options)[0])
