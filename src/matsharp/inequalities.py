"""Each inequality under test, encoded as an executable predicate that
produces a machine-readable report.

Every check evaluates the chain's terms as singular-value sequences, takes
the requested unitarily invariant norm of each, and reports the signed
margins between consecutive terms (nonnegative margins certify the
instance).  Alongside the per-norm margins, each report carries Ky Fan
prefix-sum margins between consecutive terms ("fan margins"): when these
are nonnegative the chain holds in every unitarily invariant norm at once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CommutationError,
    ShapeError,
    UnregisteredFunctionError,
)
from .linalg import (
    Spectrum,
    _eigh,
    as_matrix,
    hermitian_eigendecompose,
    hermitian_part,
    matrix_function,
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
        return min(self.margins)

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


def _params(m=None, n=None, t=None, r=None, s=None, norm_spec=None,
            function_id=None, seed=None, **extra):
    p = {
        "m": m,
        "n": n,
        "t": t,
        "r": r,
        "s": s,
        "norm-spec": None if norm_spec is None else str(norm_spec),
        "function-id": function_id,
        "seed": seed,
    }
    p.update(extra)
    return p


def _prefix_margin(sigma_left, sigma_right):
    # Minimum Ky Fan prefix-sum difference; sequences are already sorted
    # nonincreasing by construction.
    return float(np.min(np.cumsum(sigma_right) - np.cumsum(sigma_left)))


def _build_report(inequality_id, params, labeled_sigmas, norm_spec,
                  rel_tol=REL_TOL, abs_tol=ABS_TOL, steps=None,
                  regularization_epsilon=None):
    """Assemble a report from labeled singular-value sequences.

    ``steps`` lists (left_index, right_index) pairs; default is the
    ascending consecutive chain.  A report with any non-finite term,
    margin or fan margin never holds.
    """
    values = [norm_from_singular_values(sig, norm_spec) for _, sig in labeled_sigmas]
    if steps is None:
        steps = [(i, i + 1) for i in range(len(labeled_sigmas) - 1)]
    margins = [values[j] - values[i] for i, j in steps]
    fans = [_prefix_margin(labeled_sigmas[i][1], labeled_sigmas[j][1]) for i, j in steps]
    finite = all(math.isfinite(x) for x in values + margins + fans)
    holds = finite and min(margins) >= -tolerance_band(max(values), rel_tol, abs_tol)
    return InequalityReport(
        inequality_id=inequality_id,
        params=params,
        terms=[(label, value) for (label, _), value in zip(labeled_sigmas, values)],
        margins=margins,
        holds=bool(holds),
        regularization_epsilon=regularization_epsilon,
        fan_margins=fans,
    )


# ---------------------------------------------------------------------------
# Shared matrix helpers (all sigma sequences returned sorted nonincreasing)
# ---------------------------------------------------------------------------

def _psd_sigma(m):
    """Singular values of a PSD-by-construction Hermitian term."""
    w = _eigh(m).eigenvalues
    return np.maximum(w, 0.0)


def _validate_lists(a_list, b_list):
    a_list = [as_matrix(a) for a in a_list]
    b_list = [as_matrix(b) for b in b_list]
    if not a_list or len(a_list) != len(b_list):
        raise ShapeError("shape error: A-list and B-list must be nonempty and of equal length")
    n = a_list[0].shape[0]
    for m in a_list + b_list:
        if m.shape[0] != n:
            raise ShapeError("shape error: all matrices must share one dimension")
    return a_list, b_list, n


def _pair_mean(a, b, t, epsilon_scale, names, spectra=None):
    """Mean of one pair and the epsilon it was regularized with (or None).

    Without ``epsilon_scale`` both matrices must be strictly positive
    definite; ``spectra`` passes their eigendecompositions when the caller
    already has them.  With it, both are shifted by eps * I first.
    """
    if epsilon_scale is not None:
        a_reg, b_reg, eps = _regularized_pair(a, b, epsilon_scale)
        return _mean_from_spectra(_eigh(a_reg), _eigh(b_reg), t), eps
    sa, sb = spectra or (hermitian_eigendecompose(a, check=False),
                         hermitian_eigendecompose(b, check=False))
    mean = _mean_from_spectra(_strict_spectrum(sa, names[0]), _strict_spectrum(sb, names[1]), t)
    return mean, None


# ---------------------------------------------------------------------------
# Lemma chain: (A#tB)^r ; A^r #t B^r ; (B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s) ;
#              (A^((1-t)rs) B^(rts))^(1/s)
# ---------------------------------------------------------------------------

def lemma_chain_sigmas(a, b, t, r, s):
    """Singular-value sequences of the four-term chain, in printed order."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if r <= 0.0 or s <= 0.0:
        raise ValueError(f"r and s must be positive, got r={r!r}, s={s!r}")
    sa = _strict_spectrum(hermitian_eigendecompose(a, check=False), "A")
    sb = _strict_spectrum(hermitian_eigendecompose(b, check=False), "B")
    if sa.dim != sb.dim:
        raise ShapeError(f"shape error: dimensions {sa.dim} vs {sb.dim}")

    mean = _mean_from_spectra(sa, sb, t)
    sig1 = np.maximum(_eigh(mean).eigenvalues, 0.0) ** r

    # Spectra of A^r and B^r come for free from the spectra of A and B.
    sa_r = Spectrum(spectrum_power(sa, r), sa.vectors)
    sb_r = Spectrum(spectrum_power(sb, r), sb.vectors)
    sig2 = _psd_sigma(_mean_from_spectra(sa_r, sb_r, t))

    b_flank = sb.assemble(spectrum_power(sb, r * t * s / 2.0))
    a_mid = sa.assemble(spectrum_power(sa, (1.0 - t) * r * s))
    sandwich = hermitian_part(b_flank @ a_mid @ b_flank, require=False)
    sig3 = _psd_sigma(sandwich) ** (1.0 / s)

    product = a_mid @ sb.assemble(spectrum_power(sb, r * t * s))
    sig4 = singular_values(product) ** (1.0 / s)

    return [
        ("(A#B)^r", sig1),
        ("A^r#B^r", sig2),
        ("(B^(rts/2) A^((1-t)rs) B^(rts/2))^(1/s)", sig3),
        ("(A^((1-t)rs) B^(rts))^(1/s)", sig4),
    ]


def check_lemma_chain(a, b, t, r, s, norm_spec, rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the four-term norm chain for one PD pair.

    Margins are reported in printed order together with the Ky Fan
    prefix-sum margins between consecutive terms (the "all unitarily
    invariant norms" form).
    """
    sigmas = lemma_chain_sigmas(a, b, t, r, s)
    params = _params(m=1, n=as_matrix(a).shape[0], t=t, r=r, s=s,
                     norm_spec=norm_spec, seed=seed)
    return _build_report(LEMMA_CHAIN, params, sigmas, norm_spec, rel_tol, abs_tol)


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


def check_bourin_uchiyama(a_list, function_id, direction, norm_spec,
                          rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Compare ||| sum f(A_i) ||| against ||| f(sum A_i) |||.

    ``direction`` must match the registered convexity of ``function_id``;
    the inequality direction is <= for convex f and >= for concave f.
    Terms stay in printed order, so the single margin is right-minus-left
    for convex and left-minus-right for concave.
    """
    f, directions = resolve_function(function_id)
    if direction not in (CONVEX, CONCAVE):
        raise ValueError(f"direction must be 'convex' or 'concave', got {direction!r}")
    if direction not in directions:
        raise ValueError(
            f"direction {direction!r} does not match the registered convexity of {function_id!r}"
        )
    a_list = [as_matrix(a) for a in a_list]
    if not a_list:
        raise ShapeError("shape error: at least one matrix is required")
    left = sum_matrices([matrix_function(a, f) for a in a_list])
    right = matrix_function(sum_matrices(a_list), f)
    sigmas = [("sum f(A_i)", _psd_sigma(left)), ("f(sum A_i)", _psd_sigma(right))]
    steps = [(0, 1)] if direction == CONVEX else [(1, 0)]
    params = _params(m=len(a_list), n=a_list[0].shape[0], norm_spec=norm_spec,
                     function_id=str(function_id), seed=seed, direction=direction)
    return _build_report(BOURIN_UCHIYAMA, params, sigmas, norm_spec,
                         rel_tol, abs_tol, steps=steps)


# ---------------------------------------------------------------------------
# Main inequality and its proof-step refinement
# ---------------------------------------------------------------------------

def _main_terms(a_list, b_list, t, r, printed_form, with_proof, epsilon_scale,
                norm_spec, seed):
    """Main-chain terms, the regularization epsilon and the report params.

    Returns ``(main, proof, epsilon, params)``: ``main`` is the printed or
    the t-dependent chain, ``proof`` the five-term refinement (None unless
    ``with_proof``).  Only the terms those chains contain are built.
    """
    a_list, b_list, n = _validate_lists(a_list, b_list)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r!r}")

    pairs = [_pair_mean(a, b, t, epsilon_scale, (f"A[{i}]", f"B[{i}]"))
             for i, (a, b) in enumerate(zip(a_list, b_list))]
    epsilons = [eps for _, eps in pairs]
    mean_pows = []
    for mean, _ in pairs:
        s = _eigh(mean)
        mean_pows.append(s.assemble(np.power(np.maximum(s.eigenvalues, 0.0), r)))
    lhs = ("sum (A_i#B_i)^r", _psd_sigma(sum_matrices(mean_pows)))

    sum_a = sum_matrices(a_list)
    sum_b = sum_matrices(b_list)
    s_a = _eigh(sum_a)
    s_b = _eigh(sum_b)

    if printed_form or with_proof:
        quarter = s_a.assemble(spectrum_power(s_a, r / 4.0))
        half_b = s_b.assemble(spectrum_power(s_b, r / 2.0))
        mid_printed = ("sumA^(r/4) sumB^(r/2) sumA^(r/4)",
                       _psd_sigma(hermitian_part(quarter @ half_b @ quarter, require=False)))
        rhs_printed = ("sumA^(r/2) sumB^(r/2)",
                       singular_values(s_a.assemble(spectrum_power(s_a, r / 2.0)) @ half_b))
    if printed_form:
        main = [lhs, mid_printed, rhs_printed]
    else:
        # t-dependent variant: the four-term chain exponents with s = 1,
        # applied to the summed matrices.
        b_flank = s_b.assemble(spectrum_power(s_b, r * t / 2.0))
        a_mid = s_a.assemble(spectrum_power(s_a, (1.0 - t) * r))
        sig_mid = _psd_sigma(hermitian_part(b_flank @ a_mid @ b_flank, require=False))
        rhs = a_mid @ s_b.assemble(spectrum_power(s_b, r * t))
        main = [
            lhs,
            ("sumB^(rt/2) sumA^((1-t)r) sumB^(rt/2)", sig_mid),
            ("sumA^((1-t)r) sumB^(rt)", singular_values(rhs)),
        ]

    proof = None
    if with_proof:
        s_sum_means = _eigh(sum_matrices([mean for mean, _ in pairs]))
        sig_mean_sum = np.power(np.maximum(s_sum_means.eigenvalues, 0.0), r)
        mean_of_sums, eps = _pair_mean(sum_a, sum_b, t, epsilon_scale, ("sum A", "sum B"),
                                       spectra=(s_a, s_b))
        epsilons.append(eps)
        sig_mos = np.power(np.maximum(_eigh(mean_of_sums).eigenvalues, 0.0), r)
        proof = [
            lhs,
            ("(sum A_i#B_i)^r", sig_mean_sum),
            ("(sumA # sumB)^r", sig_mos),
            mid_printed,
            rhs_printed,
        ]
    eps_used = None if epsilon_scale is None else max(epsilons)
    params = _params(m=len(a_list), n=n, t=t, r=r, norm_spec=norm_spec, seed=seed)
    return main, proof, eps_used, params


def check_main_theorem(a_list, b_list, t, r, norm_spec, printed_form=True,
                       epsilon_scale=None, rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the three-term main chain.

    With ``printed_form`` the middle and right terms use the t-free
    exponents (r/4, r/2) exactly as printed; otherwise the t-dependent
    variant assembled from the proof is used.  The two forms are never
    silently substituted for one another.  ``r < 1`` is allowed for
    exploration and flagged in the params.
    """
    main, _, eps, params = _main_terms(a_list, b_list, t, r, printed_form, False,
                                       epsilon_scale, norm_spec, seed)
    params["printed-form"] = bool(printed_form)
    params["r-in-theorem-range"] = bool(r >= 1.0)
    return _build_report(MAIN_THEOREM, params, main, norm_spec, rel_tol, abs_tol,
                         regularization_epsilon=eps)


def check_proof_steps(a_list, b_list, t, r, norm_spec, epsilon_scale=None,
                      rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the five-term proof refinement of the main chain.

    Margins 1-2 localize the convexity/concavity step; margins 3-4
    localize the four-term-chain step applied to the summed matrices (printed,
    t-free form).  Requires ``r >= 1`` (the convexity step needs it).
    """
    if r < 1.0:
        raise ValueError(f"proof steps require r >= 1, got {r!r}")
    _, proof, eps, params = _main_terms(a_list, b_list, t, r, True, True, epsilon_scale,
                                        norm_spec, seed)
    return _build_report(PROOF_STEPS, params, proof, norm_spec, rel_tol, abs_tol,
                         regularization_epsilon=eps)


def main_theorem_with_proof(a_list, b_list, t, r, norm_spec, epsilon_scale=None,
                            rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """One-pass evaluation returning (printed main report, proof report)."""
    if r < 1.0:
        raise ValueError(f"proof steps require r >= 1, got {r!r}")
    main, proof, eps, params = _main_terms(a_list, b_list, t, r, True, True, epsilon_scale,
                                           norm_spec, seed)
    main_params = dict(params)
    main_params["printed-form"] = True
    main_params["r-in-theorem-range"] = bool(r >= 1.0)
    main_report = _build_report(MAIN_THEOREM, main_params, main, norm_spec, rel_tol,
                                abs_tol, regularization_epsilon=eps)
    proof_report = _build_report(PROOF_STEPS, params, proof, norm_spec, rel_tol,
                                 abs_tol, regularization_epsilon=eps)
    return main_report, proof_report


# ---------------------------------------------------------------------------
# Audenaert: sum A_iB_i ; (sum A_i^(1/2)B_i^(1/2))^2 ; (sum A_i)(sum B_i)
# ---------------------------------------------------------------------------

def commutator_defect(a, b):
    """Frobenius norm of AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    return float(np.linalg.norm(a @ b - b @ a))


def check_audenaert(a_list, b_list, norm_spec, rel_tol=REL_TOL, abs_tol=ABS_TOL, seed=None):
    """Evaluate the commuting-pair chain.

    Every pair (A_i, B_i) must commute up to
    ``1e-10 * (1 + ||A_i||_F ||B_i||_F)``; violating pairs raise
    CommutationError rather than being silently skipped.
    """
    a_list, b_list, n = _validate_lists(a_list, b_list)
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        defect = commutator_defect(a, b)
        bound = COMMUTATION_RTOL * (1.0 + float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
        if defect > bound:
            raise CommutationError(
                f"inputs do not commute: pair {i} has commutator norm {defect:.3e} "
                f"(tolerance {bound:.3e})"
            )
    prod_sum = sum(a @ b for a, b in zip(a_list, b_list))
    halves = []
    for a, b in zip(a_list, b_list):
        s_a = _eigh(a)
        s_b = _eigh(b)
        halves.append(s_a.assemble(spectrum_power(s_a, 0.5))
                      @ s_b.assemble(spectrum_power(s_b, 0.5)))
    x = sum(halves)
    sigmas = [
        ("sum A_iB_i", singular_values(prod_sum)),
        ("(sum A_i^(1/2)B_i^(1/2))^2", singular_values(x @ x)),
        ("sumA sumB", singular_values(sum_matrices(a_list) @ sum_matrices(b_list))),
    ]
    params = _params(m=len(a_list), n=n, norm_spec=norm_spec, seed=seed)
    return _build_report(AUDENAERT, params, sigmas, norm_spec, rel_tol, abs_tol)
