import math
import re

import numpy as np
import pytest

import oracles
from conftest import hermitian_for, pd_for
from matsharp import (
    InvalidNormError,
    NormSpec,
    ShapeError,
    check_main_theorem,
    default_norm_specs,
    fan_dominance,
    geometric_mean,
    hermitian_eigendecompose,
    log_majorization,
    matrix_power_psd,
    norm_from_singular_values,
    singular_values,
    spectral_norm,
    ui_norm,
    weak_majorization,
)
from matsharp.ensembles import Stream


def general_matrix(seed, n):
    return Stream(seed).complex_normals(n * n).reshape(n, n)


class TestSingularValues:
    def test_diagonal_with_sign(self):
        assert np.allclose(singular_values(np.diag([3.0, -2.0])), [3.0, 2.0])

    def test_nilpotent(self):
        assert np.allclose(singular_values(np.array([[0.0, 1.0], [0.0, 0.0]])), [1.0, 0.0])

    def test_random_5x5_seed9_against_extended_precision(self):
        m = general_matrix(9, 5)
        got = singular_values(m)
        want = [float(s) for s in oracles.singular_values(oracles.to_mp(m))]
        assert np.allclose(got, want, rtol=1e-11)

    def test_nonincreasing_nonnegative(self):
        for seed in range(25):
            s = singular_values(general_matrix(seed, 4))
            assert np.all(s >= 0)
            assert np.all(np.diff(s) <= 0)


class TestNormSpec:
    def test_parse_and_format_round_trip(self):
        for text in ("schatten:1", "schatten:1.5", "schatten:inf", "kyfan:3", "operator", "trace"):
            assert str(NormSpec.parse(text)) == text

    def test_rejects_bad_specs(self):
        with pytest.raises(InvalidNormError):
            NormSpec.parse("schatten:0.5")
        with pytest.raises(InvalidNormError):
            NormSpec.parse("kyfan:0")
        with pytest.raises(InvalidNormError):
            NormSpec.parse("nuclear")
        with pytest.raises(InvalidNormError):   # every report was indeterminate
            NormSpec.parse("schatten:nan")
        with pytest.raises(InvalidNormError, match="unknown norm kind 'bogus'"):
            NormSpec("bogus")

    @pytest.mark.parametrize("make,spec", [
        (lambda: NormSpec.ky_fan(2.7), "kyfan:2.7"),        # became kyfan:2
        (lambda: NormSpec.parse("kyfan:1.5"), "kyfan:1.5"),  # was a bare int() error
        (lambda: NormSpec.parse("kyfan:inf"), "kyfan:inf"),
        (lambda: NormSpec.ky_fan(math.nan), "kyfan:nan"),
    ])
    def test_rejects_a_non_integral_ky_fan_index(self, make, spec):
        with pytest.raises(InvalidNormError, match=spec):
            make()

    @pytest.mark.parametrize("text", ["schatten:abc", "kyfan:x", "kyfan:", "Schatten:1e"])
    def test_names_a_spec_whose_argument_is_no_number(self, text):
        # float()'s bare "could not convert string to float" named no spec.
        with pytest.raises(InvalidNormError, match=re.escape(f"cannot parse norm spec {text!r}")):
            NormSpec.parse(text)

    def test_schatten_infinity_in_any_spelling(self):
        for text in ("schatten:inf", "schatten:Infinity", "SCHATTEN:INF"):
            assert NormSpec.parse(text) == NormSpec.schatten(math.inf)

    def test_integral_ky_fan_index_of_any_type(self):
        assert NormSpec.ky_fan(2.0) == NormSpec.ky_fan(np.int64(2)) == NormSpec.parse("kyfan:2")
        assert str(NormSpec.ky_fan(2.0)) == "kyfan:2"

    def test_default_set(self):
        specs = default_norm_specs(4)
        assert len(specs) == 5 + 4
        assert NormSpec.ky_fan(4) in specs


class TestUiNorm:
    def test_ky_fan_2(self):
        assert ui_norm(np.diag([3.0, 2.0, 1.0]), NormSpec.ky_fan(2)) == pytest.approx(5.0)

    def test_schatten_2_nilpotent(self):
        assert ui_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), NormSpec.schatten(2)) == pytest.approx(1.0)

    def test_trace_norm_of_commuting_mean(self):
        # geometric_mean(diag(2,8), diag(8,2), 1/2) = diag(4,4).
        mean = geometric_mean(np.diag([2.0, 8.0]), np.diag([8.0, 2.0]), 0.5)
        assert np.allclose(mean, np.diag([4.0, 4.0]), atol=1e-12)
        assert ui_norm(mean, NormSpec.schatten(1)) == pytest.approx(8.0)

    def test_spectral_norm_is_the_operator_norm(self):
        # sigma_1 of a general matrix, a float for one matrix, an array for a stack.
        stack = np.array([general_matrix(seed, 3) for seed in range(4)]).reshape(2, 2, 3, 3)
        got = spectral_norm(stack)
        assert got.shape == (2, 2)
        assert got.tobytes() == ui_norm(stack, NormSpec.operator()).tobytes()
        one = spectral_norm(stack[1, 0])
        assert type(one) is float and one == ui_norm(stack[1, 0], NormSpec.operator())
        assert abs(one - oracles.singular_values(oracles.to_mp(stack[1, 0]))[0]) <= 1e-13 * one

    def test_ky_fan_out_of_range(self):
        with pytest.raises(InvalidNormError):
            ui_norm(np.eye(2), NormSpec.ky_fan(3))

    def test_family_consistency(self):
        for seed in range(50):
            n = 2 + seed % 5
            m = general_matrix(seed, n)
            s = singular_values(m)
            op = ui_norm(m, NormSpec.schatten(math.inf))
            assert abs(op - ui_norm(m, NormSpec.ky_fan(1))) <= 1e-12 * s[0]
            assert abs(op - ui_norm(m, NormSpec.operator())) <= 1e-12 * s[0]
            tr = ui_norm(m, NormSpec.schatten(1))
            assert abs(tr - ui_norm(m, NormSpec.ky_fan(n))) <= 1e-12 * s.sum()
            assert abs(tr - ui_norm(m, NormSpec.trace())) <= 1e-12 * s.sum()
            fro = ui_norm(m, NormSpec.schatten(2))
            assert abs(fro - np.linalg.norm(m)) <= 1e-11 * max(fro, 1.0)

    def test_unitary_invariance(self):
        for seed in range(20):
            n = 3 + seed % 3
            m = general_matrix(seed, n)
            u = hermitian_eigendecompose(hermitian_for(seed + 1000, n=n)).vectors
            v = hermitian_eigendecompose(hermitian_for(seed + 2000, n=n)).vectors
            for spec in default_norm_specs(n):
                base = ui_norm(m, spec)
                rotated = ui_norm(u @ m @ v, spec)
                assert abs(rotated - base) <= 1e-10 * base

    def test_triangle_and_homogeneity(self):
        for seed in range(15):
            n = 2 + seed % 4
            a = general_matrix(seed, n)
            b = general_matrix(seed + 500, n)
            for spec in default_norm_specs(n):
                na, nb, nab = ui_norm(a, spec), ui_norm(b, spec), ui_norm(a + b, spec)
                assert nab <= (na + nb) * (1 + 1e-10)
                assert ui_norm(2.5 * a, spec) == pytest.approx(2.5 * na, rel=1e-10)


class TestStackedReduction:
    @pytest.mark.parametrize("text", ["schatten:1", "schatten:1.5", "schatten:2", "schatten:3",
                                      "schatten:inf", "operator", "trace", "kyfan:1", "kyfan:4"])
    def test_each_row_keeps_the_bits_of_its_own_sequence(self, text):
        # One call over a (4, 5, 50, n) stack gives every row the value (and
        # the bits) of the 1-D call on that row.
        spec = NormSpec.parse(text)
        sigma = -np.sort(-np.exp(np.random.default_rng(3).uniform(-8.0, 8.0, (4, 5, 50, 9))))
        got = norm_from_singular_values(sigma, spec)
        assert got.shape == (4, 5, 50)
        want = [norm_from_singular_values(row, spec) for row in sigma.reshape(-1, 9)]
        assert all(isinstance(w, float) for w in want)
        assert got.ravel().tolist() == want
        if spec.kind == "schatten" and math.isfinite(spec.p):
            # The scalar form, whose root NumPy's vectorized power may round
            # differently.
            assert want == [float(np.sum(row ** spec.p) ** (1.0 / spec.p))
                            for row in sigma.reshape(-1, 9)]


    def test_schatten_sum_past_the_float_range(self):
        # sigma_1 = 1e200: the sum of squares overflows, the norm does not.
        assert norm_from_singular_values([1e200, 1.0], NormSpec.schatten(2)) == 1e200
        assert norm_from_singular_values([1e200, 1e200], NormSpec.schatten(3)) == \
            pytest.approx(2.0 ** (1.0 / 3.0) * 1e200, rel=1e-15)
        stack = np.array([[3.0, 4.0], [1e200, 1e199], [np.inf, 1.0], [np.nan, 1.0]])
        got = norm_from_singular_values(stack, NormSpec.schatten(2))
        assert got[0] == 5.0 and got[2] == math.inf and math.isnan(got[3])
        assert got[1] == pytest.approx(math.hypot(1e200, 1e199), rel=1e-15)


class TestWeakMajorization:
    def test_examples(self):
        assert weak_majorization([2.0, 2.0], [3.0, 1.0]).holds
        assert not weak_majorization([3.0, 1.0], [2.0, 2.0]).holds
        assert weak_majorization([1.0, 1.0, 1.0], [3.0, 0.0, 0.0]).holds

    def test_margin_sign(self):
        res = weak_majorization([2.0, 2.0], [3.0, 1.0])
        assert res.margin == pytest.approx(0.0)
        assert weak_majorization([3.0, 1.0], [2.0, 2.0]).margin == pytest.approx(-1.0)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            weak_majorization([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("c", [10.0 ** k for k in range(-8, 9, 2)])
    def test_verdict_does_not_depend_on_scale(self, c):
        # A relative shortfall of 1e-6 fails at every scale; an absolute
        # floor in the band once let it hold at c = 1e-6.
        x, y = np.array([1.0]), np.array([1.0 - 1e-6])
        assert not weak_majorization(c * x, c * y).holds
        assert weak_majorization(c * y, c * x).holds


class TestLogMajorization:
    def test_examples(self):
        assert log_majorization(np.diag([2.0, 2.0]), np.diag([4.0, 1.0])).holds
        res = log_majorization(np.diag([2.0, 2.0]), np.diag([2.0, 2.0]))
        assert res.holds and res.margin == pytest.approx(0.0)

    def test_handles_zero_singular_values(self):
        res = log_majorization(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        assert res.holds

    def test_mean_log_majorized_by_power_product_seed7(self):
        # A #_{1/2} B is log-majorized by A^(1/2) B^(1/2).
        a = pd_for(7, n=4)
        b = pd_for(707, n=4)
        mean = geometric_mean(a, b, 0.5)
        product = matrix_power_psd(a, 0.5) @ matrix_power_psd(b, 0.5)
        assert log_majorization(mean, product).holds

    def test_log_implies_weak(self):
        for seed in range(30):
            n = 2 + seed % 4
            a = pd_for(seed, n=n)
            b = pd_for(seed + 900, n=n)
            mean = geometric_mean(a, b, 0.5)
            product = matrix_power_psd(a, 0.5) @ matrix_power_psd(b, 0.5)
            if log_majorization(mean, product).holds:
                assert weak_majorization(singular_values(mean), singular_values(product)).holds


class TestFanDominance:
    def test_scaling(self):
        a = general_matrix(4, 3)
        assert fan_dominance(a, 2 * a).holds
        assert not fan_dominance(2 * a, a).holds

    def test_mid_vs_rhs_seed11(self):
        a_list = [pd_for(11, n=4), pd_for(1111, n=4)]
        b_list = [pd_for(211, n=4), pd_for(2111, n=4)]
        # The main chain's fan margin between its middle and right terms is
        # the weak-majorization margin of their singular values.
        report = check_main_theorem(a_list, b_list, 0.5, 3.0, NormSpec.trace())
        assert report.fan_margins[1] >= 0.0

    def test_implies_every_norm(self):
        a = pd_for(31, n=4)
        b = pd_for(881, n=4)
        mean = geometric_mean(a, b, 0.5)
        product = matrix_power_psd(a, 0.5) @ matrix_power_psd(b, 0.5)
        if fan_dominance(mean, product).holds:
            for spec in default_norm_specs(4):
                assert ui_norm(mean, spec) <= ui_norm(product, spec) * (1 + 1e-9)
