"""One refusal table for every public entry point that takes matrices: the
same defective input gets the same error wherever it enters.  A solver
failure is a ConvergenceError wherever it happens, and so is an
eigendecomposition that fails its residual checks; a mean whose entries
overflow is refused."""

import re

import numpy as np
import pytest

from matsharp import (
    ConvergenceError,
    HermitianDefectError,
    NormSpec,
    ShapeError,
    as_matrix,
    check_audenaert,
    check_bourin_uchiyama,
    check_lemma_chain,
    check_main_theorem,
    check_proof_steps,
    fan_dominance,
    geometric_mean,
    hermitian_eigendecompose,
    hermitian_part,
    log_majorization,
    matrix_power_psd,
    psd_geometric_mean,
    regularization_epsilon,
    singular_values,
    ui_norm,
)

S2 = NormSpec.schatten(2.0)
GOOD = np.diag([2.0, 1.0])

SINGLE = {
    "as_matrix": as_matrix,
    "hermitian_part": hermitian_part,
    "hermitian_eigendecompose": hermitian_eigendecompose,
    "matrix_power_psd": lambda a: matrix_power_psd(a, 0.5),
    "singular_values": singular_values,
    "ui_norm": lambda a: ui_norm(a, S2),
    "check_bourin_uchiyama": lambda a: check_bourin_uchiyama([a], "power:2", "convex", S2),
}
PAIR = {
    "geometric_mean": lambda a, b: geometric_mean(a, b, 0.5),
    "psd_geometric_mean": lambda a, b: psd_geometric_mean(a, b, 0.5),
    "regularization_epsilon": regularization_epsilon,
    "log_majorization": log_majorization,
    "fan_dominance": fan_dominance,
    "check_audenaert": lambda a, b: check_audenaert([a], [b], S2),
    "check_lemma_chain": lambda a, b: check_lemma_chain(a, b, 0.5, 1.0, 1.0, S2),
    "check_main_theorem": lambda a, b: check_main_theorem([a], [b], 0.5, 1.0, S2),
    "check_proof_steps": lambda a, b: check_proof_steps([a], [b], 0.5, 1.0, S2),
}
# The entry points that take general matrices accept a Hermitian defect.
GENERAL = {"as_matrix", "singular_values", "ui_norm", "log_majorization", "fan_dominance"}

NAN, INF = GOOD.copy(), GOOD.copy()
NAN[0, 0], INF[1, 1] = np.nan, np.inf
DEFECTS = {
    "2x3": (np.ones((2, 3)), ShapeError),
    "nan": (NAN, ValueError),
    "inf": (INF, ValueError),
    "hermitian-defect": (GOOD + np.array([[0.0, 1e-3], [0.0, 0.0]]), HermitianDefectError),
}

CASES = [(name, defect, None) for name in SINGLE for defect in DEFECTS] + [
    (name, defect, side) for name in PAIR for defect in DEFECTS for side in (0, 1)] + [
    (name, "unequal-n", None) for name in PAIR]


@pytest.mark.parametrize("name,defect,side", CASES,
                         ids=[f"{n}-{d}" + ("" if s is None else f"-{'AB'[s]}")
                              for n, d, s in CASES])
def test_every_entry_point_refuses_the_same_defects(name, defect, side):
    if defect == "unequal-n":
        args, error = [np.eye(2), np.eye(3)], ShapeError
    else:
        matrix, error = DEFECTS[defect]
        args = [matrix] if side is None else [matrix if k == side else GOOD for k in (0, 1)]
    call = SINGLE.get(name) or PAIR[name]
    if error is HermitianDefectError and name in GENERAL:
        call(*args)
        return
    with pytest.raises(error) as raised:
        call(*args)
    assert raised.type is error


@pytest.mark.parametrize("solver,call", [
    ("eigh", lambda: hermitian_eigendecompose(GOOD)),
    ("svd", lambda: geometric_mean(GOOD, GOOD, 0.5)),    # the mean's SVD
    ("svd", lambda: singular_values(GOOD)),
])
def test_a_solver_failure_is_a_convergence_error(solver, call, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(ConvergenceError, match="eigensolver did not converge: did not converge"):
        call()


def lapack_order(w, v):
    """A fake ``np.linalg.eigh`` that returns eigenvalues ``w`` (ascending,
    as LAPACK does) and vectors ``v`` whatever the input."""
    return lambda a: (np.array(w), np.array(v, dtype=complex))


@pytest.mark.parametrize("eigh,residuals", [
    # GOOD = diag(2, 1) rebuilt as diag(1, 2); the vectors are unitary.
    (lapack_order([1.0, 2.0], np.eye(2)), (1.414, 0.0)),
    # Orthogonal vectors of length 2 that rebuild GOOD: ||V*V - I||_F = 3 sqrt(2).
    (lapack_order([0.25, 0.5], [[0.0, 2.0], [2.0, 0.0]]), (0.0, 4.243)),
], ids=["reconstruction", "unitarity"])
def test_an_eigendecomposition_that_fails_its_residuals_is_refused(eigh, residuals,
                                                                   monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(ConvergenceError, match=re.escape(
            "eigensolver did not converge: reconstruction residual {:.3e}, unitarity defect "
            "{:.3e}".format(*residuals))):
        hermitian_eigendecompose(GOOD)


def test_a_mean_whose_entries_overflow_is_refused(monkeypatch):
    # Singular values of 1e300 for A^(-1/2) B^(1/2) give a mean of order
    # 1e600 at t = 1: its entries overflow, although every input is finite.
    eye = np.eye(2, dtype=complex)
    monkeypatch.setattr(np.linalg, "svd", lambda k: (eye, np.array([1e300, 1.0]), eye))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=re.escape("matrix entries must be finite")):
        geometric_mean(GOOD, GOOD, 1.0)
