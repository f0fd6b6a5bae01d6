import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import pd_for
from matsharp import (
    CommutationError,
    EnsembleSpec,
    HermitianDefectError,
    NormSpec,
    NotPositiveDefiniteError,
    ShapeError,
    SingularFunctionError,
    UnregisteredFunctionError,
    check_audenaert,
    check_bourin_uchiyama,
    check_lemma_chain,
    check_main_theorem,
    check_proof_steps,
    default_norm_specs,
    hermitian_eigendecompose,
    hermitian_part,
    matrix_power_psd,
    norm_from_singular_values,
    random_commuting_pair,
    random_hermitian,
    resolve_function,
    split_seed,
    tolerance_band,
)
from matsharp.ensembles import Stream, _assemble, _log_uniform_eigs
from matsharp.inequalities import (
    AUDENAERT,
    BOURIN_UCHIYAMA,
    INEQUALITY_IDS,
    LEMMA_CHAIN,
    InequalityReport,
    lemma_chain_sigmas,
    stack_reports,
)

S1 = NormSpec.schatten(1)


def jointly_diagonal_pairs(seed, n, m, kappa=100.0):
    """Commuting ensemble sharing one eigenbasis across all pairs,
    together with the eigenvalue vectors (the scalar reduction)."""
    stream = Stream(seed)
    u = hermitian_eigendecompose(
        random_hermitian(EnsembleSpec(dim=n, kind="hermitian", seed=seed))).vectors
    a_eigs = [_log_uniform_eigs(stream, n, kappa) for _ in range(m)]
    b_eigs = [_log_uniform_eigs(stream, n, kappa) for _ in range(m)]
    a_list = [_assemble(u, d) for d in a_eigs]
    b_list = [_assemble(u, d) for d in b_eigs]
    return a_list, b_list, a_eigs, b_eigs


class TestAudenaert:
    def test_identity_pair(self):
        report = check_audenaert([np.eye(3)], [np.eye(3)], S1)
        assert [v for _, v in report.terms] == pytest.approx([3.0, 3.0, 3.0])
        assert report.margins == pytest.approx([0.0, 0.0])
        assert report.holds

    def test_scalar_arithmetic(self):
        a_list = [np.diag([1.0]), np.diag([3.0])]
        b_list = [np.diag([2.0]), np.diag([4.0])]
        report = check_audenaert(a_list, b_list, S1)
        values = [v for _, v in report.terms]
        assert values == pytest.approx([14.0, 14.0 + 4.0 * math.sqrt(6.0), 24.0])
        assert report.holds

    def test_commuting_ensemble_seed3_scalar_oracle(self):
        # Jointly diagonal ensemble: every term reduces to scalar sums of
        # eigenvalues, computed exactly from the diagonals.
        a_list, b_list, a_eigs, b_eigs = jointly_diagonal_pairs(3, 4, 2)
        report = check_audenaert(a_list, b_list, NormSpec.trace())
        t1 = float(sum((da * db).sum() for da, db in zip(a_eigs, b_eigs)))
        x = sum(np.sqrt(da) * np.sqrt(db) for da, db in zip(a_eigs, b_eigs))
        t2 = float((x * x).sum())
        t3_eigs = np.sort(sum(a_eigs))[::-1] * np.sort(sum(b_eigs))[::-1]
        # trace of (sum A)(sum B) in the shared basis
        t3 = float((sum(a_eigs) * sum(b_eigs)).sum())
        values = [v for _, v in report.terms]
        assert values[0] == pytest.approx(t1, rel=1e-10)
        assert values[1] == pytest.approx(t2, rel=1e-10)
        assert values[2] == pytest.approx(t3, rel=1e-10)
        assert report.holds

    def test_pairwise_commuting_random(self):
        for seed in range(10):
            pairs = [random_commuting_pair(EnsembleSpec(dim=4, kind="commuting", seed=seed * 31 + i))
                     for i in range(2)]
            report = check_audenaert([p[0] for p in pairs], [p[1] for p in pairs],
                                     NormSpec.trace())
            assert report.holds

    def test_rejects_noncommuting(self):
        a = pd_for(1, n=3)
        b = pd_for(2, n=3)
        with pytest.raises(CommutationError):
            check_audenaert([a], [b], S1)


class TestBourinUchiyama:
    def test_linear_is_equality(self):
        a_list = [pd_for(5, n=3), pd_for(6, n=3)]
        report = check_bourin_uchiyama(a_list, "power:1", "convex", S1)
        assert report.margins[0] == pytest.approx(0.0, abs=1e-10)
        report = check_bourin_uchiyama(a_list, "power:1", "concave", S1)
        assert report.margins[0] == pytest.approx(0.0, abs=1e-10)

    def test_square_scalars(self):
        report = check_bourin_uchiyama([np.diag([1.0]), np.diag([1.0])], "power:2", "convex", S1)
        assert [v for _, v in report.terms] == pytest.approx([2.0, 4.0])
        assert report.margins == pytest.approx([2.0])
        assert report.holds

    def test_sqrt_scalars_concave(self):
        report = check_bourin_uchiyama([np.diag([1.0]), np.diag([1.0])], "power:0.5", "concave", S1)
        assert [v for _, v in report.terms] == pytest.approx([2.0, math.sqrt(2.0)])
        assert report.margins == pytest.approx([2.0 - math.sqrt(2.0)])
        assert report.holds

    @pytest.mark.parametrize("fid,direction", [
        ("power:2", "convex"), ("power:3", "convex"), ("expm1", "convex"),
        ("power:0.5", "concave"), ("ratio", "concave"),
    ])
    def test_random_instances_hold(self, fid, direction):
        for seed in range(8):
            a_list = [pd_for(seed * 17 + i, n=3, kappa=10.0) for i in range(3)]
            report = check_bourin_uchiyama(a_list, fid, direction, NormSpec.ky_fan(2))
            assert report.holds, (fid, direction, seed, report.margins)

    def test_direction_mismatch(self):
        with pytest.raises(ValueError):
            check_bourin_uchiyama([np.eye(2)], "expm1", "concave", S1)

    def test_unregistered_function(self):
        with pytest.raises(UnregisteredFunctionError):
            check_bourin_uchiyama([np.eye(2)], "log1p", "concave", S1)
        with pytest.raises(UnregisteredFunctionError):
            resolve_function("power:-1")

    def test_registry_directions(self):
        _, dirs = resolve_function("power:1")
        assert dirs == {"convex", "concave"}


class TestLemmaChain:
    def test_equal_arguments_collapse(self):
        a = pd_for(4, n=3)
        report = check_lemma_chain(a, a, 0.5, 2.0, 1.0, S1)
        values = [v for _, v in report.terms]
        assert max(values) - min(values) <= 1e-9 * max(values)
        assert report.holds

    def test_commuting_diagonal_closed_form(self):
        report = check_lemma_chain(np.diag([2.0, 8.0]), np.diag([8.0, 2.0]),
                                   0.5, 1.0, 1.0, S1)
        assert [v for _, v in report.terms] == pytest.approx([8.0, 8.0, 8.0, 8.0])
        assert report.holds

    def test_seed21_against_extended_precision(self):
        a = pd_for(21, n=5)
        b = pd_for(2121, n=5)
        spec = NormSpec.ky_fan(3)
        report = check_lemma_chain(a, b, 0.75, 2.0, 2.0, spec)
        want = [float(v) for v in oracles.lemma_chain_values(a, b, 0.75, 2.0, 2.0, spec)]
        got = [v for _, v in report.terms]
        assert got == pytest.approx(want, rel=1e-10)
        # At r = 2 only the first link can fail (argument-powering
        # reversal); the rest of the chain holds.
        band = tolerance_band(max(v for _, v in report.terms))
        assert all(m >= -band for m in report.margins[1:])

    def test_holds_for_r_at_most_one(self):
        for seed in range(10):
            a = pd_for(seed, n=4)
            b = pd_for(seed + 50, n=4)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                for r in (0.5, 1.0):
                    for s in (0.5, 1.0, 2.0):
                        report = check_lemma_chain(a, b, t, r, s, NormSpec.trace())
                        assert report.holds, (seed, t, r, s, report.margins)

    def test_first_link_reverses_for_r_above_one(self):
        # Powering the arguments of the mean beats powering the mean for
        # r >= 1, so the printed first step genuinely fails at r = 2.
        a = pd_for(0, n=4)
        b = pd_for(500, n=4)
        report = check_lemma_chain(a, b, 0.5, 2.0, 1.0, NormSpec.trace())
        assert report.margins[0] < 0
        assert not report.holds
        # The remaining links still hold.
        assert min(report.margins[1:]) >= -tolerance_band(max(v for _, v in report.terms))

    def test_endpoint_degeneracy(self):
        for seed in range(5):
            a = pd_for(seed, n=3)
            b = pd_for(seed + 60, n=3)
            for t in (0.0, 1.0):
                report = check_lemma_chain(a, b, t, 2.0, 2.0, S1)
                scale = max(v for _, v in report.terms)
                assert min(report.margins) >= -1e-10 * scale

    def test_scale_equivariance(self):
        a = pd_for(9, n=3)
        b = pd_for(90, n=3)
        r = 1.5
        base = check_lemma_chain(a, b, 0.5, r, 1.0, S1)
        scaled = check_lemma_chain(3.0 * a, 3.0 * b, 0.5, r, 1.0, S1)
        factor = 3.0 ** r
        for (_, v0), (_, v1) in zip(base.terms, scaled.terms):
            assert v1 == pytest.approx(factor * v0, rel=1e-12)
        assert scaled.holds == base.holds

    def test_fan_margins_certify_all_norms(self):
        # Monotone strengthening: nonnegative fan margins imply every
        # default-norm margin is nonnegative up to the band.
        for seed in range(5):
            a = pd_for(seed, n=4)
            b = pd_for(seed + 70, n=4)
            report = check_lemma_chain(a, b, 0.25, 1.0, 2.0, S1)
            if min(report.fan_margins) >= 0:
                sigmas = lemma_chain_sigmas(a, b, 0.25, 1.0, 2.0)
                for spec in default_norm_specs(4):
                    values = [norm_from_singular_values(sig, spec) for _, sig in sigmas]
                    band = tolerance_band(max(values))
                    assert all(values[i + 1] - values[i] >= -band for i in range(3))

    def test_parameter_validation(self):
        a = pd_for(1, n=2)
        with pytest.raises(ValueError):
            check_lemma_chain(a, a, -0.1, 1.0, 1.0, S1)
        with pytest.raises(ValueError):
            check_lemma_chain(a, a, 0.5, 0.0, 1.0, S1)
        with pytest.raises(ValueError):
            check_lemma_chain(a, a, 0.5, 1.0, -1.0, S1)
        with pytest.raises(NotPositiveDefiniteError):
            check_lemma_chain(np.diag([1.0, 0.0]), np.eye(2), 0.5, 1.0, 1.0, S1)


class TestMainTheorem:
    def test_single_equal_pair(self):
        a = np.diag([1.0, 2.0])
        report = check_main_theorem([a], [a], 0.5, 2.0, S1)
        values = [v for _, v in report.terms]
        assert values == pytest.approx([5.0, 5.0, 5.0])
        assert report.margins == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_scalar_arithmetic(self):
        a_list = [np.diag([1.0]), np.diag([3.0])]
        b_list = [np.diag([2.0]), np.diag([4.0])]
        report = check_main_theorem(a_list, b_list, 0.5, 2.0, S1)
        assert [v for _, v in report.terms] == pytest.approx([14.0, 24.0, 24.0])
        assert report.holds

    def test_seed11_against_extended_precision(self):
        a_list = [pd_for(11, n=4), pd_for(1111, n=4)]
        b_list = [pd_for(211, n=4), pd_for(2111, n=4)]
        spec = NormSpec.ky_fan(2)
        report = check_main_theorem(a_list, b_list, 0.5, 3.0, spec)
        assert report.holds
        want = [float(v) for v in oracles.main_theorem_values(a_list, b_list, 0.5, 3.0, spec)]
        got = [v for _, v in report.terms]
        assert got == pytest.approx(want, rel=1e-10)

    def test_r_below_one_is_flagged(self):
        a = pd_for(3, n=2)
        report = check_main_theorem([a], [a], 0.5, 0.5, S1)
        assert report.params["r-in-theorem-range"] is False
        assert check_main_theorem([a], [a], 0.5, 1.0, S1).params["r-in-theorem-range"] is True

    def test_printed_vs_variant_forms(self):
        a_list = [pd_for(14, n=3), pd_for(15, n=3)]
        b_list = [pd_for(16, n=3), pd_for(17, n=3)]
        printed = check_main_theorem(a_list, b_list, 0.25, 2.0, S1, printed_form=True)
        variant = check_main_theorem(a_list, b_list, 0.25, 2.0, S1, printed_form=False)
        assert printed.params["printed-form"] is True
        assert variant.params["printed-form"] is False
        # The printed right-hand sides ignore t; away from t = 1/2 they
        # differ from the t-dependent variant.
        assert printed.terms[1][1] != pytest.approx(variant.terms[1][1], rel=1e-3)

    def test_variant_holds_away_from_half(self):
        for seed in range(8):
            a_list = [pd_for(seed * 7 + i, n=3) for i in range(2)]
            b_list = [pd_for(seed * 7 + 100 + i, n=3) for i in range(2)]
            for t in (0.1, 0.25, 0.75, 0.9):
                report = check_main_theorem(a_list, b_list, t, 2.0, NormSpec.trace(),
                                            printed_form=False)
                assert report.holds, (seed, t, report.margins)

    def test_regularized_psd_path(self):
        from matsharp import random_psd_rank_deficient
        a_list = [random_psd_rank_deficient(EnsembleSpec(dim=4, kind="psd", seed=41, rank=2))]
        b_list = [random_psd_rank_deficient(EnsembleSpec(dim=4, kind="psd", seed=42, rank=2))]
        report = check_main_theorem(a_list, b_list, 0.5, 2.0, S1, epsilon_scale=1e-10)
        assert report.regularization_epsilon is not None
        assert report.regularization_epsilon > 0
        assert all(np.isfinite(v) for _, v in report.terms)
        assert report.holds

    def test_generator_inputs_count_pairs(self):
        a_list = [pd_for(71, n=3), pd_for(72, n=3)]
        b_list = [pd_for(73, n=3), pd_for(74, n=3)]
        want = check_main_theorem(a_list, b_list, 0.5, 2.0, S1)
        got = check_main_theorem(iter(a_list), (b for b in b_list), 0.5, 2.0, S1)
        assert got.params["m"] == 2 and got.to_obj() == want.to_obj()
        proof = check_proof_steps(iter(a_list), iter(b_list), 0.5, 2.0, S1)
        assert proof.params["m"] == 2

    def test_non_finite_report_never_holds(self):
        # At kappa = 1e12 and r = 60 the middle and right terms overflow to
        # non-finite matrices, so their values and the margins are NaN.
        a = pd_for(0, n=4, kappa=1e12)
        b = pd_for(100, n=4, kappa=1e12)
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_main_theorem([a], [b], 0.5, 60.0, NormSpec.schatten(2))
        assert not all(math.isfinite(m) for m in report.margins)
        assert report.holds is False


class TestProofSteps:
    def test_single_pair_collapses_first_steps(self):
        a = pd_for(12, n=3)
        b = pd_for(13, n=3)
        report = check_proof_steps([a], [b], 0.5, 2.0, S1)
        assert len(report.terms) == 5
        assert report.margins[0] == pytest.approx(0.0, abs=1e-12)
        assert report.margins[1] == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_reproduces_audenaert_gap(self):
        a_list, b_list, _, _ = jointly_diagonal_pairs(77, 3, 2)
        proof = check_proof_steps(a_list, b_list, 0.5, 2.0, NormSpec.trace())
        aud = check_audenaert(a_list, b_list, NormSpec.trace())
        assert proof.margins[0] == pytest.approx(aud.margins[0], rel=1e-9, abs=1e-9)
        assert proof.margins[1] == pytest.approx(aud.margins[1], rel=1e-9, abs=1e-9)

    def test_seed13_all_margins_nonnegative(self):
        a_list = [pd_for(13 * (i + 1), n=3) for i in range(3)]
        b_list = [pd_for(1300 + 13 * (i + 1), n=3) for i in range(3)]
        spec = NormSpec.schatten(math.inf)
        report = check_proof_steps(a_list, b_list, 0.25, 1.5, spec)
        band = tolerance_band(max(v for _, v in report.terms))
        assert all(m >= -band for m in report.margins)
        # Terms 1, 4, 5 are the printed main chain; cross-check in mpmath.
        want = [float(v) for v in oracles.main_theorem_values(a_list, b_list, 0.25, 1.5, spec)]
        got = [report.terms[0][1], report.terms[3][1], report.terms[4][1]]
        assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_r_below_one(self):
        a = pd_for(2, n=2)
        with pytest.raises(ValueError):
            check_proof_steps([a], [a], 0.5, 0.9, S1)

    def test_regularized_psd_path(self):
        from matsharp import random_psd_rank_deficient
        a_list = [random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=91, rank=1))]
        b_list = [random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=92, rank=1))]
        report = check_proof_steps(a_list, b_list, 0.5, 2.0, S1, epsilon_scale=1e-10)
        assert report.regularization_epsilon > 0
        assert all(np.isfinite(v) for _, v in report.terms)
        band = tolerance_band(max(v for _, v in report.terms))
        assert all(m >= -band for m in report.margins)


class TestReductionIdentity:
    def test_main_printed_matches_audenaert_on_commuting_pairs(self):
        # With one commuting pair, t = 1/2, and r = 2, the printed main
        # chain coincides with the commuting-pair chain term by term.
        for seed in range(10):
            a, b = random_commuting_pair(EnsembleSpec(dim=4, kind="commuting", seed=seed))
            main = check_main_theorem([a], [b], 0.5, 2.0, S1)
            aud = check_audenaert([a], [b], S1)
            for (_, v_main), (_, v_aud) in zip(main.terms, aud.terms):
                assert v_main == pytest.approx(v_aud, rel=1e-9)
            assert aud.holds and main.holds


class TestClosedFormCounterexamples:
    @pytest.mark.parametrize("t,r,c", [(0.1, 1.0, 100.0), (0.5, 1.0, 100.0),
                                       (0.25, 2.0, 10.0), (0.9, 1.5, 0.01)])
    def test_printed_form_off_half_scales_apart(self, t, r, c):
        # n = m = 1, A = c, B = 1: the left term is c^((1-t)r) and the
        # printed middle and right terms are c^(r/2), so left over right is
        # c^((1/2-t)r), a violation for c large (t < 1/2) or small (t > 1/2).
        report = check_main_theorem([np.diag([c])], [np.eye(1)], t, r, S1)
        left, middle, right = (value for _, value in report.terms)
        assert left == pytest.approx(c ** ((1.0 - t) * r), rel=1e-12)
        assert middle == pytest.approx(c ** (r / 2.0), rel=1e-12)
        assert right == pytest.approx(c ** (r / 2.0), rel=1e-12)
        assert left / right == pytest.approx(c ** ((0.5 - t) * r), rel=1e-12)
        assert report.holds is (t == 0.5)
        if (t, r, c) == (0.1, 1.0, 100.0):
            assert left / right == pytest.approx(6.3096, rel=1e-5)

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.75])
    @pytest.mark.parametrize("r", [0.5, 0.9, 1.0])
    def test_variant_below_r_one_fails_at_two_pairs(self, t, r):
        # n = 1, A_i = B_i = 1, m = 2: the left term is 2 and the middle and
        # right terms are 2^r, so the variant fails at every r < 1 and ties
        # at r = 1.
        one = np.eye(1)
        report = check_main_theorem([one, one], [one, one], t, r, S1, printed_form=False)
        left, middle, right = (value for _, value in report.terms)
        assert left == pytest.approx(2.0, rel=1e-12)
        assert middle == pytest.approx(2.0 ** r, rel=1e-12)
        assert right == pytest.approx(2.0 ** r, rel=1e-12)
        assert report.margins[0] == pytest.approx(2.0 ** r - 2.0, abs=1e-12)
        assert report.holds is (r == 1.0)


class TestRegularizedChain:
    @pytest.mark.parametrize("c", [0.0, 0.01, 0.1, 1.0])
    def test_scalar_pair_ties_at_every_scale(self, c):
        # A = B = cI: every term of the shifted chain is ((c + eps) I)^r, an
        # exact tie.  Shifting the pair means but not the sums once gave a
        # violation here for every c below 1.
        a = [c * np.eye(3)]
        for t in (0.1, 0.5, 0.9):
            for r in (1.0, 2.0):
                variant = check_main_theorem(a, a, t, r, NormSpec.trace(), printed_form=False,
                                             epsilon_scale=1e-10)
                assert variant.holds, (t, r, variant.margins)
        printed = check_main_theorem(a, a, 0.5, 1.0, NormSpec.trace(), epsilon_scale=1e-10)
        assert printed.holds, printed.margins


# Every chain but Bourin-Uchiyama with a non-power f, and the regularized
# path, is homogeneous in (A, B), so its verdict must not depend on c.
SCALES = [10.0 ** k for k in range(-8, 9, 2)]
SCALE_CHAINS = {
    "main-printed": lambda a, b, t, r, s, norm: check_main_theorem(a, b, t, r, norm),
    "main-variant": lambda a, b, t, r, s, norm: check_main_theorem(a, b, t, r, norm,
                                                                   printed_form=False),
    "proof-steps": lambda a, b, t, r, s, norm: check_proof_steps(a, b, t, max(r, 1.0), norm),
    "lemma-chain": lambda a, b, t, r, s, norm: check_lemma_chain(a[0], b[0], t, r, s, norm),
    "audenaert": lambda a, b, t, r, s, norm: check_audenaert(a, b, norm),
}
# The degree of homogeneity of each chain's terms in (A, B).
SCALE_DEGREES = {
    "main-printed": lambda r: r,
    "main-variant": lambda r: r,
    "proof-steps": lambda r: max(r, 1.0),
    "lemma-chain": lambda r: r,
    "audenaert": lambda r: 2.0,
}
CHAIN_SAMPLES = dict(
    chain=st.sampled_from(sorted(SCALE_CHAINS)), seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 4), m=st.integers(1, 3), t=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
    r=st.sampled_from([0.5, 1.0, 2.0, 3.0]), s=st.sampled_from([0.5, 1.0, 2.0]),
    norm=st.sampled_from(["schatten:1", "schatten:2", "operator", "kyfan:1"]))


def chain_inputs(chain, seed, n, m):
    """Seeded inputs of ``chain``: commuting pairs for Audenaert, PD otherwise."""
    if chain == "audenaert":
        pairs = [random_commuting_pair(EnsembleSpec(dim=n, kind="commuting",
                                                    seed=split_seed(seed, i)))
                 for i in range(m)]
        return [a for a, _ in pairs], [b for _, b in pairs]
    return ([pd_for(split_seed(seed, 2 * i), n=n) for i in range(m)],
            [pd_for(split_seed(seed, 2 * i + 1), n=n) for i in range(m)])


def term_values(chain, a_list, b_list, t, r, s, norm):
    report = SCALE_CHAINS[chain](a_list, b_list, t, r, s, NormSpec.parse(norm))
    return np.array([v for _, v in report.terms])


def scaled_verdicts(chain, a_list, b_list, t=0.5, r=2.0, s=1.0, norm=NormSpec.schatten(2)):
    """The verdict of ``chain`` on (c A_i, c B_i) for every c in ``SCALES``."""
    check = SCALE_CHAINS[chain]
    return [check([c * a for a in a_list], [c * b for b in b_list], t, r, s, norm).holds
            for c in SCALES]


class TestScaleInvariance:
    def test_lemma_chain_reversal_is_violated_at_every_scale(self):
        # The Ando-Hiai reversal of step 1 at r = 2; an absolute floor in
        # the band once let it hold at c = 1e-6 and 1e-8.
        a = pd_for(split_seed(5, 0), n=3)
        b = pd_for(split_seed(5, 1), n=3)
        assert scaled_verdicts("lemma-chain", [a], [b]) == [False] * len(SCALES)

    @settings(derandomize=True, deadline=5000, max_examples=100, database=None)
    @given(**CHAIN_SAMPLES)
    def test_verdict_does_not_depend_on_scale(self, chain, seed, n, m, t, r, s, norm):
        a_list, b_list = chain_inputs(chain, seed, n, m)
        verdicts = scaled_verdicts(chain, a_list, b_list, t, r, s, NormSpec.parse(norm))
        assert len(set(verdicts)) == 1, verdicts

    @settings(derandomize=True, deadline=5000, max_examples=100, database=None)
    @given(c=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]), **CHAIN_SAMPLES)
    def test_terms_are_congruence_invariant_and_homogeneous(self, chain, seed, n, m, t, r, s,
                                                            norm, c):
        a_list, b_list = chain_inputs(chain, seed, n, m)
        values = term_values(chain, a_list, b_list, t, r, s, norm)
        u = hermitian_eigendecompose(
            random_hermitian(EnsembleSpec(dim=n, kind="hermitian", seed=seed))).vectors
        turned = term_values(chain, [u @ a @ u.conj().T for a in a_list],
                             [u @ b @ u.conj().T for b in b_list], t, r, s, norm)
        np.testing.assert_allclose(turned, values, rtol=1e-10, atol=0.0)
        scaled = term_values(chain, [c * a for a in a_list], [c * b for b in b_list],
                             t, r, s, norm)
        np.testing.assert_allclose(scaled, c ** SCALE_DEGREES[chain](r) * values,
                                   rtol=1e-10, atol=0.0)

    def test_noncommuting_pair_is_refused_at_every_scale(self):
        # An absolute floor in the commutation bound once let the pair
        # through at c = 1e-6 and 1e-8.
        a, b = pd_for(1, n=3), pd_for(2, n=3)
        for c in SCALES:
            with pytest.raises(CommutationError):
                check_audenaert([c * a], [c * b], S1)

    def test_non_hermitian_input_is_refused_at_every_scale(self):
        # An absolute floor in the Hermitian screen once let cX through at
        # c = 1e-8.
        x = np.array([[1.0, 1e-6], [0.0, 1.0]])
        for c in SCALES:
            with pytest.raises(HermitianDefectError):
                check_main_theorem([c * x], [c * np.eye(2)], 0.5, 1.0, NormSpec.trace())

    def test_indefinite_input_is_refused_at_every_scale(self):
        # An absolute floor in the PSD clamp once let cN through at c = 1e-8
        # and 1e-6.
        neg = np.diag([1.0, -1e-6])
        for c in SCALES:
            with pytest.raises(NotPositiveDefiniteError):
                check_bourin_uchiyama([c * neg, c * np.eye(2)], "power:2", "convex",
                                      NormSpec.trace())

    def test_regularized_chain_refuses_indefinite_input_at_every_scale(self):
        # The same floor once gave cN a violated report at c = 1e-8 and 1e-6.
        neg = np.diag([1.0, -1e-6])
        for c in SCALES:
            with pytest.raises(NotPositiveDefiniteError):
                check_main_theorem([c * neg], [c * np.eye(2)], 0.5, 1.0, NormSpec.trace(),
                                   epsilon_scale=1e-10)

    def test_zero_matrix_passes_every_screen(self):
        zero = np.zeros((3, 3))
        assert not hermitian_part(zero).any()
        assert not hermitian_eigendecompose(zero).eigenvalues.any()
        assert not matrix_power_psd(zero, 0.5).any()

    def test_eigendecompose_succeeds_at_every_scale(self):
        a = pd_for(17, n=4)
        w = hermitian_eigendecompose(a).eigenvalues
        for c in SCALES:
            assert hermitian_eigendecompose(c * a).eigenvalues == pytest.approx(c * w, rel=1e-12)

    def test_all_zero_chain_holds(self):
        # At scale 0 every term and margin is exactly 0: no floor is needed.
        zero = np.zeros((2, 2))
        report = check_audenaert([zero], [zero], S1)
        assert report.margins == [0.0, 0.0] and report.holds


SWAP_SAMPLES = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
                    m=st.integers(1, 3), t=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]),
                    r=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                    norm=st.sampled_from(["schatten:1", "schatten:2", "operator", "kyfan:1"]))


class TestMeanSymmetry:
    @settings(derandomize=True, deadline=5000, max_examples=100, database=None)
    @given(**SWAP_SAMPLES)
    def test_swap_leaves_the_mean_terms_unchanged(self, seed, n, m, t, r, norm):
        # A #_t B = B #_(1-t) A: the lemma chain's first term and the main
        # chain's left term read only these means.
        a_list, b_list = chain_inputs("main-printed", seed, n, m)
        norm = NormSpec.parse(norm)
        lemma, swapped = (check_lemma_chain(x, y, w, r, 1.0, norm).terms[0][1]
                          for x, y, w in ((a_list[0], b_list[0], t), (b_list[0], a_list[0], 1 - t)))
        assert swapped == pytest.approx(lemma, rel=1e-12, abs=0.0)
        main, swapped = (check_main_theorem(x, y, w, r, norm).terms[0][1]
                         for x, y, w in ((a_list, b_list, t), (b_list, a_list, 1 - t)))
        assert swapped == pytest.approx(main, rel=1e-12, abs=0.0)


class TestInputForms:
    def test_audenaert_reads_tuples_and_generators_as_lists(self):
        pairs = [random_commuting_pair(EnsembleSpec(dim=3, kind="commuting", seed=seed))
                 for seed in (61, 62)]
        a_list, b_list = [a for a, _ in pairs], [b for _, b in pairs]
        want = check_audenaert(a_list, b_list, S1).to_obj()
        assert check_audenaert(tuple(a_list), tuple(b_list), S1).to_obj() == want
        assert check_audenaert(iter(a_list), (b for b in b_list), S1).to_obj() == want

    def test_bourin_uchiyama_reads_tuples_and_generators_as_lists(self):
        a_list = [pd_for(63, n=3), pd_for(64, n=3), pd_for(65, n=3)]
        want = check_bourin_uchiyama(a_list, "power:2", "convex", S1).to_obj()
        assert want["params"]["m"] == 3
        for form in (tuple(a_list), iter(a_list), (a for a in a_list)):
            assert check_bourin_uchiyama(form, "power:2", "convex", S1).to_obj() == want


class TestReportMechanics:
    def test_json_round_trip(self):
        a = pd_for(5, n=3)
        b = pd_for(50, n=3)
        report = check_lemma_chain(a, b, 0.5, 1.0, 2.0, NormSpec.ky_fan(2), seed=99)
        back = InequalityReport.from_json(report.to_json())
        assert back == report

    def test_holds_matches_tolerance_band(self):
        a = pd_for(8, n=3)
        b = pd_for(80, n=3)
        for r in (0.5, 1.0, 2.0):
            report = check_lemma_chain(a, b, 0.5, r, 1.0, S1)
            scale = max(v for _, v in report.terms)
            assert report.holds == (min(report.margins) >= -tolerance_band(scale))

    def test_margin_count_matches_terms(self):
        a = pd_for(7, n=2)
        report = check_proof_steps([a], [a], 0.5, 1.0, S1)
        assert len(report.margins) == len(report.terms) - 1
        assert len(report.fan_margins) == len(report.margins)


PD = np.diag([2.0, 3.0])
PD_B = np.array([[2.0, 0.5], [0.5, 1.0]])
NON_PD = np.diag([1.0, -1.0])
NON_HERMITIAN = np.array([[1.0, 1.0], [0.0, 1.0]])
NAN = np.array([[1.0, np.nan], [np.nan, 1.0]])
# X + X* is Hermitian though X is not: the inputs, not their sums, must be checked.
X_AND_ADJOINT = [NON_HERMITIAN, NON_HERMITIAN.T]
IDENTITIES = [np.eye(2), np.eye(2)]

# One error per call: (call, error type, text the message contains).
SINGLE_ERRORS = {
    "lemma-non-pd": (lambda: check_lemma_chain(NON_PD, PD, 0.5, 1.0, 1.0, S1),
                     NotPositiveDefiniteError, "strictly positive definite"),
    "lemma-non-hermitian": (lambda: check_lemma_chain(NON_HERMITIAN, PD, 0.5, 1.0, 1.0, S1),
                            HermitianDefectError, "not Hermitian"),
    "lemma-nan": (lambda: check_lemma_chain(NAN, PD, 0.5, 1.0, 1.0, S1), ValueError, "finite"),
    "lemma-non-square": (lambda: check_lemma_chain(np.ones((2, 3)), PD, 0.5, 1.0, 1.0, S1),
                         ShapeError, "square"),
    "lemma-dimensions": (lambda: check_lemma_chain(PD, np.eye(3), 0.5, 1.0, 1.0, S1),
                         ShapeError, "shape error"),
    "lemma-bad-t": (lambda: check_lemma_chain(PD, PD_B, 1.5, 1.0, 1.0, S1), ValueError, "t must"),
    "lemma-bad-r": (lambda: check_lemma_chain(PD, PD_B, 0.5, 0.0, 1.0, S1), ValueError, "r=0.0"),
    "lemma-bad-s": (lambda: check_lemma_chain(PD, PD_B, 0.5, 1.0, -1.0, S1), ValueError, "s=-1.0"),
    "sigmas-singular": (lambda: lemma_chain_sigmas(PD, np.diag([1.0, 0.0]), 0.5, 1.0, 1.0),
                        NotPositiveDefiniteError, "strictly positive definite"),
    "sigmas-bad-s": (lambda: lemma_chain_sigmas(PD, PD_B, 0.5, 1.0, 0.0), ValueError, "s=0.0"),
    "sigmas-dimensions": (lambda: lemma_chain_sigmas(np.eye(3), PD, 0.5, 1.0, 1.0),
                          ShapeError, "shape error"),
    "audenaert-non-commuting": (lambda: check_audenaert([PD, PD_B], [PD, PD], S1),
                                CommutationError, "pair 1"),
    "audenaert-empty": (lambda: check_audenaert([], [], S1), ShapeError, "nonempty"),
    "audenaert-unequal-length": (lambda: check_audenaert([PD, PD], [PD], S1),
                                 ShapeError, "equal length"),
    "audenaert-dimensions": (lambda: check_audenaert([PD], [np.eye(3)], S1),
                             ShapeError, "share one dimension"),
    "audenaert-non-psd": (lambda: check_audenaert([NON_PD], [PD], S1),
                          NotPositiveDefiniteError, "positive semidefinite"),
    "audenaert-non-hermitian": (lambda: check_audenaert([NON_HERMITIAN], [np.eye(2)], S1),
                                HermitianDefectError, "not Hermitian"),
    "audenaert-hermitian-sum": (lambda: check_audenaert(X_AND_ADJOINT, IDENTITIES, S1),
                                HermitianDefectError, "not Hermitian"),
    "main-psd-hermitian-sum": (lambda: check_main_theorem(X_AND_ADJOINT, IDENTITIES, 0.5, 2.0,
                                                          S1, epsilon_scale=1e-10),
                               HermitianDefectError, "not Hermitian"),
    "proof-psd-hermitian-sum": (lambda: check_proof_steps(X_AND_ADJOINT, IDENTITIES, 0.5, 2.0,
                                                          S1, epsilon_scale=1e-10),
                                HermitianDefectError, "not Hermitian"),
    # psd_geometric_mean refuses these scales; so does every regularized chain.
    "main-zero-epsilon": (lambda: check_main_theorem([PD], [PD_B], 0.5, 2.0, S1,
                                                     epsilon_scale=0.0),
                          ValueError, "epsilon_scale must be positive"),
    "main-negative-epsilon": (lambda: check_main_theorem([PD], [PD_B], 0.5, 2.0, S1,
                                                         printed_form=False, epsilon_scale=-1e-10),
                              ValueError, "epsilon_scale must be positive"),
    "proof-zero-epsilon": (lambda: check_proof_steps([PD], [PD_B], 0.5, 2.0, S1,
                                                     epsilon_scale=0.0),
                           ValueError, "epsilon_scale must be positive"),
    "proof-negative-epsilon": (lambda: check_proof_steps([PD], [PD_B], 0.5, 2.0, S1,
                                                         epsilon_scale=-1e-10),
                               ValueError, "epsilon_scale must be positive"),
    "bu-empty": (lambda: check_bourin_uchiyama([], "power:2", "convex", S1),
                 ShapeError, "at least one matrix"),
    "bu-dimensions": (lambda: check_bourin_uchiyama([PD, np.eye(3)], "power:2", "convex", S1),
                      ShapeError, "shape error"),
    "bu-unknown-f": (lambda: check_bourin_uchiyama([PD], "log1p", "concave", S1),
                     UnregisteredFunctionError, "log1p"),
    "bu-wrong-direction": (lambda: check_bourin_uchiyama([PD], "expm1", "concave", S1),
                           ValueError, "registered convexity"),
    "bu-expm1-overflow": (lambda: check_bourin_uchiyama([np.diag([800.0, 1.0])], "expm1",
                                                        "convex", S1),
                          SingularFunctionError, "800.0"),
    "bu-non-psd": (lambda: check_bourin_uchiyama([PD, NON_PD], "power:2", "convex", S1),
                   NotPositiveDefiniteError, "positive semidefinite"),
}

# Exponents outside (0, inf) are refused, each naming its axis.  NaN and
# inf once passed the kernels' own r <= 0 and s <= 0 tests: r = NaN gave
# an indeterminate main-chain report and an SVD failure in the lemma
# chain, and s = inf a false lemma-chain violation.
EXPONENT_CALLS = {
    "main": lambda r, s: check_main_theorem([PD], [PD_B], 0.5, r, S1),
    "proof": lambda r, s: check_proof_steps([PD], [PD_B], 0.5, r, S1),
    "lemma": lambda r, s: check_lemma_chain(PD, PD_B, 0.5, r, s, S1),
    "sigmas": lambda r, s: lemma_chain_sigmas(PD, PD_B, 0.5, r, s),
}
SINGLE_ERRORS["main-bad-r"] = (lambda: check_main_theorem([PD], [PD_B], 0.5, 0.0, S1),
                               ValueError, "r=0.0")
SINGLE_ERRORS.update({
    f"{name}-{axis}-{value}": (
        functools.partial(call, **dict({"r": 1.0, "s": 1.0}, **{axis: value})),
        ValueError, re.escape(f"{axis}={value}"))
    for name, call in EXPONENT_CALLS.items()
    for axis in (("r", "s") if name in ("lemma", "sigmas") else ("r",))
    for value in (math.nan, math.inf, -math.inf)})


class TestSingleErrors:
    @pytest.mark.parametrize("case", sorted(SINGLE_ERRORS))
    def test_raises_its_error(self, case):
        # The stacked kernels on a stack of one raise what the
        # one-instance predicates raised, for each kind of bad input.
        call, error, text = SINGLE_ERRORS[case]
        with pytest.raises(error, match=text):
            call()

    @pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
    def test_masked_stack_raises_for_hermitian_defect(self, inequality_id):
        # mask_failures masks spectral failures of one instance; an input
        # that is not Hermitian is refused at the boundary for the stack.
        a = np.array(X_AND_ADJOINT + IDENTITIES)
        grid = {AUDENAERT: {}, BOURIN_UCHIYAMA: {"f": ("power:2",)},
                LEMMA_CHAIN: {"t": (0.5,), "r": (1.0,), "s": (1.0,)}}.get(
            inequality_id, {"t": (0.5,), "r": (1.0,)})
        with pytest.raises(HermitianDefectError, match="not Hermitian"):
            stack_reports(inequality_id, a, np.array(IDENTITIES * 2), (2, 2),
                          dict(grid, norm=(S1,)), (1, 2), epsilon_scale=1e-10,
                          direction="convex", mask_failures=True)
