import math
import re

import numpy as np
import pytest

import oracles
from conftest import hermitian_for, pd_for
from matsharp import (
    HermitianDefectError,
    NormSpec,
    NotPositiveDefiniteError,
    ShapeError,
    SingularFunctionError,
    as_matrix,
    hermitian_eigendecompose,
    hermitian_part,
    matrix_from_obj,
    matrix_power_psd,
    matrix_to_obj,
    load_matrix,
    save_matrix,
    ui_norm,
)
from matsharp.linalg import _eigh, clamp_psd_eigenvalues, spectrum_function, spectrum_power


class TestEigendecompose:
    def test_identity(self):
        spec = hermitian_eigendecompose(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])
        assert np.allclose(np.abs(spec.vectors), np.eye(2))

    def test_standard_2x2(self):
        spec = hermitian_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-14)
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        v = np.array([1.0, -1.0]) / math.sqrt(2)
        got_u, got_v = spec.vectors[:, 0], spec.vectors[:, 1]
        assert min(np.linalg.norm(got_u - u), np.linalg.norm(got_u + u)) < 1e-14
        assert min(np.linalg.norm(got_v - v), np.linalg.norm(got_v + v)) < 1e-14

    def test_random_6x6_seed42_extended_precision_residual(self):
        # Oracle: reconstruct V diag(w) V* in 40-digit arithmetic and compare.
        a = hermitian_for(42, n=6)
        spec = hermitian_eigendecompose(a)
        v = oracles.to_mp(spec.vectors)
        recon = v * oracles.mp.diag([oracles.mp.mpf(float(x)) for x in spec.eigenvalues]) * v.H
        residual = float(oracles.frobenius(recon - oracles.to_mp(a)))
        assert residual <= 1e-12 * float(np.linalg.norm(a))

    def test_descending_and_deterministic(self):
        a = hermitian_for(3, n=5)
        s1 = hermitian_eigendecompose(a)
        s2 = hermitian_eigendecompose(a.copy())
        assert np.all(np.diff(s1.eigenvalues) <= 0)
        assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
        assert s1.vectors.tobytes() == s2.vectors.tobytes()

    def test_invariants_on_random_batch(self):
        for seed in range(100):
            n = 2 + seed % 7
            a = hermitian_for(seed, n=n)
            spec = hermitian_eigendecompose(a)
            recon = spec.assemble(spec.eigenvalues)
            assert np.linalg.norm(a - recon) <= 1e-12 * (1 + np.linalg.norm(a))
            gram = spec.vectors.conj().T @ spec.vectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-12 * n

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermitianDefectError):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStacks:
    def test_slices_equal_single_matrix_calls(self):
        # Batch axes: each slice of a stacked call has the single call's bits.
        for n in (1, 2, 4, 7):
            mats = np.stack([[pd_for(100 * n + 3 * i + j, n=n) for j in range(3)]
                             for i in range(2)])
            stacked = _eigh(mats)
            powers = spectrum_power(stacked, 0.75)
            rebuilt = stacked.assemble(powers)
            norms = ui_norm(mats, NormSpec.operator())
            assert stacked.eigenvalues.shape == (2, 3, n) and rebuilt.shape == (2, 3, n, n)
            for i in range(2):
                for j in range(3):
                    one = _eigh(mats[i, j])
                    assert stacked.eigenvalues[i, j].tobytes() == one.eigenvalues.tobytes()
                    assert stacked.vectors[i, j].tobytes() == one.vectors.tobytes()
                    assert powers[i, j].tobytes() == spectrum_power(one, 0.75).tobytes()
                    assert rebuilt[i, j].tobytes() == one.assemble(
                        spectrum_power(one, 0.75)).tobytes()
                    assert norms[i, j] == ui_norm(mats[i, j], NormSpec.operator())

    def test_one_failing_slice_raises(self):
        w = np.array([[2.0, 1.0, 0.0], [1.0, -1e-13, -1e-14], [3.0, 1.0, -0.5]])
        with pytest.raises(NotPositiveDefiniteError, match="-5.000e-01"):
            clamp_psd_eigenvalues(w)
        clamped = clamp_psd_eigenvalues(w[:2])
        rows = np.stack([clamp_psd_eigenvalues(row) for row in w[:2]])
        assert clamped.tobytes() == rows.tobytes()


class TestSpectrumFunction:
    # f through the eigenvalues of one decomposition, as the Bourin-Uchiyama
    # kernel maps them.
    def test_sqrt_diagonal(self):
        got = spectrum_function(_eigh(np.diag([4.0, 9.0])), math.sqrt)
        assert np.allclose(got, [3.0, 2.0], atol=1e-14)

    def test_negative_half_power(self):
        got = spectrum_function(_eigh(np.diag([4.0])), lambda x: x ** -0.5)
        assert np.allclose(got, [0.5], atol=1e-15)

    def test_sqrt_2x2_closed_form(self):
        # Exact spectral formula with eigenvalues 3 and 1.
        spec = _eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        got = spec.assemble(spectrum_function(spec, math.sqrt))
        s3 = math.sqrt(3.0)
        want = 0.5 * np.array([[s3 + 1.0, s3 - 1.0], [s3 - 1.0, s3 + 1.0]])
        assert np.allclose(got, want, atol=1e-14)

    def test_negative_power_at_zero_raises(self):
        with pytest.raises(SingularFunctionError, match="f undefined at eigenvalue 0.0"):
            spectrum_function(_eigh(np.diag([1.0, 0.0])), lambda x: x ** -0.5)
        with pytest.raises(SingularFunctionError, match=re.escape("f(0.0) = inf")):
            spectrum_function(_eigh(np.diag([1.0, 0.0])), lambda x: math.inf if x == 0 else x)
        with pytest.raises(SingularFunctionError):
            matrix_power_psd(np.diag([1.0, 0.0]), -1.0)

    def test_identity_function_returns_the_eigenvalues(self):
        spec = _eigh(pd_for(8, n=5))
        assert spectrum_function(spec, lambda x: x).tobytes() == spec.eigenvalues.tobytes()

    def test_sqrt_then_square(self):
        for seed in range(20):
            a = pd_for(seed, n=4)
            root = matrix_power_psd(a, 0.5)
            back = root @ root
            assert np.linalg.norm(back - a) <= 1e-11 * np.linalg.norm(a)

    def test_eigenvalues_map_through(self):
        spec = _eigh(pd_for(21, n=5))
        got = np.sort(hermitian_eigendecompose(
            spec.assemble(spectrum_function(spec, lambda x: x / (1 + x)))).eigenvalues)
        w = np.sort(spec.eigenvalues)
        assert np.allclose(got, w / (1 + w), rtol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spectrum_function(_eigh(np.diag([1.0, -1.0])), math.sqrt)


class TestArithmetic:
    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match=re.escape("(2, 2, 2)")):   # one matrix, no stack
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_hermitian_part_symmetrizes(self):
        a = hermitian_for(5, n=4)
        noisy = a + 1e-14 * np.array([[0, 1j], [0, 0]]).repeat(2, 0).repeat(2, 1)
        h = hermitian_part(noisy)
        assert np.array_equal(h, h.conj().T)


class TestMatrixJson:
    def test_real_round_trip(self, tmp_path):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "m.json"
        save_matrix(path, a)
        assert np.array_equal(load_matrix(path), as_matrix(a))

    def test_complex_round_trip(self):
        a = hermitian_for(9, n=3) + 1j * np.eye(3)
        obj = matrix_to_obj(a)
        assert obj["field"] == "complex"
        assert np.array_equal(matrix_from_obj(obj), as_matrix(a))

    def test_rejects_non_square_entries(self):
        with pytest.raises(ShapeError):
            matrix_from_obj({"dim": 2, "field": "real", "entries": [1.0, 2.0, 3.0]})

    def test_rejects_bad_dim_and_field(self):
        with pytest.raises(ShapeError):
            matrix_from_obj({"dim": 0, "field": "real", "entries": []})
        with pytest.raises(ValueError):
            matrix_from_obj({"dim": 1, "field": "quaternion", "entries": [1.0]})
        with pytest.raises(ValueError):
            matrix_from_obj({"dim": 1, "entries": [1.0]})

    @pytest.mark.parametrize("dim,field,entries,error,text", [
        (True, "real", [1.0], ShapeError, "True"),      # was a TypeError from reshape
        (1, "real", [True], ValueError, "True"),        # loaded as 1.0
        (2, "real", [1.0, False, 0.0, 1.0], ValueError, "False"),
        (1, "real", ["2.0"], ValueError, "'2.0'"),      # loaded as 2.0
        (1, "real", [None], ValueError, "None"),
        (1, "complex", [["2.0", 0.0]], ValueError, "'2.0'"),
        (1, "complex", [[1.0, True]], ValueError, "True"),
        (1, "real", 5, ShapeError, "JSON array"),       # was a TypeError from len()
    ])
    def test_rejects_values_that_are_not_json_numbers(self, dim, field, entries, error, text):
        with pytest.raises(error, match=text):
            matrix_from_obj({"dim": dim, "field": field, "entries": entries})

    @pytest.mark.parametrize("call,error,text", [
        (lambda: matrix_to_obj(1j * np.eye(2), field="real"), ValueError, "nonzero imaginary"),
        (lambda: matrix_to_obj(np.eye(2), field="quaternion"), ValueError, "unknown field"),
        (lambda: matrix_from_obj([1.0]), ValueError, "must be a JSON object"),
        (lambda: matrix_from_obj({"dim": 1, "field": "complex", "entries": [1.0]}),
         ShapeError, re.escape("[re, im] pairs")),
    ])
    def test_refuses_what_the_object_form_cannot_hold(self, call, error, text):
        with pytest.raises(error, match=text):
            call()
