import re

import numpy as np
import pytest

import oracles
from conftest import pd_for
from matsharp import inequalities, means
from matsharp import (
    EmptySumError,
    EnsembleSpec,
    HermitianDefectError,
    NormSpec,
    NotPositiveDefiniteError,
    ShapeError,
    check_main_theorem,
    check_proof_steps,
    default_norm_specs,
    geometric_mean,
    hermitian_eigendecompose,
    psd_geometric_mean,
    random_commuting_pair,
    random_psd_rank_deficient,
    regularization_epsilon,
    sum_matrices,
    ui_norm,
)

T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
S2 = NormSpec.schatten(2.0)


class TestGeometricMean:
    def test_endpoints(self):
        a = pd_for(1, n=3)
        b = pd_for(2, n=3)
        assert np.linalg.norm(geometric_mean(a, b, 0.0) - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(geometric_mean(a, b, 1.0) - b) <= 1e-10 * np.linalg.norm(b)

    def test_mean_with_identity(self):
        got = geometric_mean(np.diag([4.0, 9.0]), np.eye(2), 0.5)
        assert np.allclose(got, np.diag([2.0, 3.0]), atol=1e-13)

    def test_determinant_identity_extended_precision(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.diag([3.0, 1.0])
        got = geometric_mean(a, b, 0.5)
        det = oracles.det(oracles.to_mp(got))
        assert abs(complex(det).real - 3.0) <= 1e-9 * 3.0

    def test_determinant_identity_random(self):
        for seed in range(20):
            n = 2 + seed % 4
            a = pd_for(seed, n=n)
            b = pd_for(seed + 300, n=n)
            for t in T_GRID:
                got = np.linalg.det(geometric_mean(a, b, t)).real
                want = np.linalg.det(a).real ** (1 - t) * np.linalg.det(b).real ** t
                assert abs(got - want) <= 1e-9 * abs(want)

    def test_symmetry(self):
        for seed in range(20):
            a = pd_for(seed, n=4)
            b = pd_for(seed + 400, n=4)
            for t in T_GRID:
                lhs = geometric_mean(a, b, t)
                rhs = geometric_mean(b, a, 1.0 - t)
                assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)

    def test_congruence_invariance(self, rng):
        for seed in range(10):
            a = pd_for(seed, n=3)
            b = pd_for(seed + 500, n=3)
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            for t in (0.25, 0.5, 0.75):
                left = m @ geometric_mean(a, b, t) @ m.conj().T
                right = geometric_mean(m @ a @ m.conj().T, m @ b @ m.conj().T, t)
                assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(left)

    def test_commuting_reduction(self):
        for seed in range(20):
            a, b = random_commuting_pair(EnsembleSpec(dim=4, kind="commuting", seed=seed))
            sa = hermitian_eigendecompose(a)
            sb_w = np.sort(hermitian_eigendecompose(b).eigenvalues)
            for t in T_GRID:
                got = geometric_mean(a, b, t)
                want = (
                    np.linalg.matrix_power(a, 0) if False else None
                )
                # A^(1-t) B^t via the shared eigenbasis.
                from matsharp import matrix_power_psd
                want = matrix_power_psd(a, 1 - t) @ matrix_power_psd(b, t)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_positivity(self):
        for seed in range(15):
            a = pd_for(seed, n=5)
            b = pd_for(seed + 600, n=5)
            w = hermitian_eigendecompose(geometric_mean(a, b, 0.3)).eigenvalues
            assert np.all(w > 0)

    def test_rejects_singular_input(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError):
            geometric_mean(singular, np.eye(2), 0.5)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            geometric_mean(np.eye(2), np.eye(2), 1.5)


@pytest.mark.parametrize("kind", ["pd", "psd"])
def test_a_mean_is_the_chains_pair_mean_bit_for_bit(kind, monkeypatch):
    # The chain's pair mean is read where the kernel computes it; on PSD
    # inputs the chain is the regularized one.  Either mean decomposes each
    # input once: psd_geometric_mean shifts the spectra, not the matrices.
    chain_means, eighs = [], []
    kernel_mean, decompose = inequalities._mean_from_spectra, means._eigh

    def spy_mean(*args):
        chain_means.append(kernel_mean(*args))
        return chain_means[-1]

    def spy_eigh(x):
        eighs.append(x)
        return decompose(x)
    monkeypatch.setattr(inequalities, "_mean_from_spectra", spy_mean)
    monkeypatch.setattr(means, "_eigh", spy_eigh)
    eps = 1e-10 if kind == "psd" else None
    for seed in range(30):
        n = 2 + seed % 5
        a, b = (random_psd_rank_deficient(EnsembleSpec(dim=n, kind="psd", seed=seed + k,
                                                       rank=seed % n)) if eps else
                pd_for(seed + k, n=n) for k in (0, 500))
        chain_means.clear()
        check_main_theorem([a], [b], 0.3, 1.0, S2, printed_form=False, epsilon_scale=eps)
        eighs.clear()
        got = psd_geometric_mean(a, b, 0.3, eps) if eps else geometric_mean(a, b, 0.3)
        assert got.tobytes() == chain_means[0][0, 0].tobytes()
        assert len(eighs) == 2


class TestPsdGeometricMean:
    def test_zero_matrices(self):
        zero = np.zeros((2, 2))
        eps = regularization_epsilon(zero, zero, 1e-10)
        got = psd_geometric_mean(zero, zero, 0.5, 1e-10)
        assert eps == pytest.approx(1e-10)
        assert np.allclose(got, eps * np.eye(2), rtol=1e-12)

    def test_close_to_unregularized_on_pd(self):
        for seed in range(10):
            n = 2 + seed % 4
            a = pd_for(seed, n=n)
            b = pd_for(seed + 700, n=n)
            eps = regularization_epsilon(a, b, 1e-10)
            delta = np.linalg.norm(
                psd_geometric_mean(a, b, 0.5, 1e-10) - geometric_mean(a, b, 0.5)
            )
            assert delta <= 10 * eps * n

    def test_rank_one_pair_seed5_strictly_positive(self):
        a = random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=5, rank=1))
        b = random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=55, rank=1))
        eps = regularization_epsilon(a, b, 1e-10)
        got = psd_geometric_mean(a, b, 0.5, 1e-10)
        w = hermitian_eigendecompose(got).eigenvalues
        assert w[-1] >= eps / 2

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            psd_geometric_mean(np.eye(2), np.eye(2), 0.5, 0.0)

    def test_refuses_what_the_regularized_chain_refuses(self):
        # -1e-11 is below the PSD clamp's -1e-12 * max|w|; shifting the
        # matrices by eps * I (1e-10) made it a mean.
        a = np.diag([1.0, -1e-11])
        with pytest.raises(NotPositiveDefiniteError, match="not positive semidefinite"):
            check_main_theorem([a], [np.eye(2)], 0.5, 1.0, S2, epsilon_scale=1e-10)
        with pytest.raises(NotPositiveDefiniteError, match="not positive semidefinite"):
            psd_geometric_mean(a, np.eye(2), 0.5, 1e-10)

    def test_refuses_a_bad_t_before_any_decomposition(self, monkeypatch):
        def no_eigh(x):
            raise AssertionError("decomposed before the t check")
        monkeypatch.setattr(means, "_eigh", no_eigh)
        with pytest.raises(ValueError, match=re.escape("t must lie in [0, 1], got 1.5")):
            psd_geometric_mean(np.eye(2), np.eye(2), 1.5)

    def test_epsilon_reads_the_spectral_norm_from_the_eigenvalues(self):
        # ||A||_2 of a Hermitian A is its largest |eigenvalue|, negative or not.
        assert regularization_epsilon(np.diag([3.0, -5.0]), np.eye(2), 0.5) == 3.0
        stack = np.array([np.diag([3.0, -5.0]), 2 * np.eye(2)])
        assert regularization_epsilon(stack, np.eye(2), 0.5).tolist() == [3.0, 1.5]


class TestSumMatrices:
    def test_singleton(self):
        a = pd_for(3, n=3)
        assert np.allclose(sum_matrices([a]), a)

    def test_two_identities(self):
        assert np.array_equal(sum_matrices([np.eye(2), np.eye(2)]), 2 * np.eye(2))

    def test_cancellation(self):
        a = pd_for(4, n=3)
        assert np.allclose(sum_matrices([a, -a]), np.zeros((3, 3)), atol=1e-15)

    def test_empty_raises(self):
        with pytest.raises(EmptySumError):
            sum_matrices([])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            sum_matrices([np.eye(2), np.eye(3)])

    def test_rejects_non_hermitian_summand(self):
        x = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(HermitianDefectError):
            sum_matrices([x, np.eye(2)])
        # Each summand is checked, not only the sum: X + X* is Hermitian.
        with pytest.raises(HermitianDefectError):
            sum_matrices([x, x.T])


def term_values(report):
    return [value for _, value in report.terms]


SEED11_A = [pd_for(11, n=4), pd_for(1111, n=4)]
SEED11_B = [pd_for(211, n=4), pd_for(2111, n=4)]


class TestMainTerms:
    """The three printed main-chain terms, read through check_main_theorem."""

    def test_single_pair_equal_inputs(self):
        # (A #_t A)^2, A^(1/2) A A^(1/2) and A A all equal A^2.
        a = pd_for(6, n=3)
        for spec in default_norm_specs(3):
            report = check_main_theorem([a], [a], 0.3, 2.0, spec)
            want = ui_norm(a @ a, spec)
            for value in term_values(report):
                assert abs(value - want) <= 1e-10 * want
            assert all(abs(f) <= 1e-10 * want for f in report.fan_margins)

    def test_scalar_arithmetic(self):
        a_list = [np.diag([1.0]), np.diag([3.0])]
        b_list = [np.diag([2.0]), np.diag([4.0])]
        report = check_main_theorem(a_list, b_list, 0.5, 2.0, NormSpec.trace())
        assert term_values(report) == pytest.approx([14.0, 24.0, 24.0])
        assert report.margins == pytest.approx([10.0, 0.0], abs=1e-12)
        assert report.fan_margins == pytest.approx([10.0, 0.0], abs=1e-12)

    def test_single_pair_diag(self):
        a = np.diag([1.0, 2.0])
        trace = check_main_theorem([a], [a], 0.5, 2.0, NormSpec.trace())
        operator = check_main_theorem([a], [a], 0.5, 2.0, NormSpec.operator())
        assert term_values(trace) == pytest.approx([5.0, 5.0, 5.0], abs=1e-12)
        assert term_values(operator) == pytest.approx([4.0, 4.0, 4.0], abs=1e-12)

    def test_seed11_trace_matches_extended_precision(self):
        report = check_main_theorem(SEED11_A, SEED11_B, 0.5, 2.0, NormSpec.trace())
        got = term_values(report)[0]
        with oracles.mp.workdps(oracles.DPS):
            total = oracles.mp.zeros(4, 4)
            for a, b in zip(SEED11_A, SEED11_B):
                mean = oracles.geometric_mean(oracles.to_mp(a), oracles.to_mp(b), oracles.mp.mpf("0.5"))
                total += oracles.matrix_power(mean, oracles.mp.mpf(2))
            want = float(oracles.mp.re(oracles.trace(total)))
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_mid_positive_rhs_non_hermitian(self):
        # The middle term is positive definite and similar to the right
        # one, so both have the same trace; the right term's trace norm
        # is strictly larger only because it is not normal.
        ky_fan_3, ky_fan_4 = (
            term_values(check_main_theorem(SEED11_A, SEED11_B, 0.5, 3.0, NormSpec.ky_fan(k)))[1]
            for k in (3, 4))
        assert ky_fan_4 - ky_fan_3 > 0
        report = check_main_theorem(SEED11_A, SEED11_B, 0.5, 3.0, NormSpec.trace())
        assert report.margins[1] > 1e-6 * term_values(report)[2]

    def test_regularized_path(self):
        a_list = [random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=8, rank=2))]
        b_list = [random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=88, rank=2))]
        with pytest.raises(NotPositiveDefiniteError):
            check_main_theorem(a_list, b_list, 0.5, 2.0, NormSpec.trace())
        report = check_main_theorem(a_list, b_list, 0.5, 2.0, NormSpec.trace(),
                                    epsilon_scale=1e-10)
        assert np.all(np.isfinite(term_values(report) + report.margins + report.fan_margins))
        assert report.regularization_epsilon == regularization_epsilon(a_list[0], b_list[0], 1e-10)

    def test_regularized_path_has_one_epsilon_per_instance(self):
        # Every pair and both sums are shifted by the largest pair epsilon;
        # the second pair is scaled up so that the two epsilons differ.
        a_list, b_list = ([c * random_psd_rank_deficient(
            EnsembleSpec(dim=3, kind="psd", seed=seed + k, rank=1)) for k, c in enumerate((1, 7))]
            for seed in (30, 40))
        want = max(regularization_epsilon(a, b, 1e-10) for a, b in zip(a_list, b_list))
        assert want > regularization_epsilon(a_list[0], b_list[0], 1e-10)
        for check in (check_main_theorem, check_proof_steps):
            report = check(a_list, b_list, 0.5, 2.0, NormSpec.trace(), epsilon_scale=1e-10)
            assert report.regularization_epsilon == want

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            check_main_theorem([np.eye(2)], [np.eye(2), np.eye(2)], 0.5, 1.0, NormSpec.trace())
