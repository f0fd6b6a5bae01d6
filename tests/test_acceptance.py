"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4 is expected to fail at r = 2 (strict xfail): powering
the arguments of the mean log-majorizes powering the mean for r >= 1, so
the four-term chain's first step genuinely reverses there; the companion
test pins the r <= 1 region where the chain does hold.
"""

import itertools
import math

import numpy as np
import pytest

from matsharp import (
    CampaignConfig,
    EnsembleSpec,
    NormSpec,
    check_audenaert,
    check_main_theorem,
    default_norm_specs,
    geometric_mean,
    hermitian_eigendecompose,
    norm_from_singular_values,
    random_commuting_pair,
    random_hermitian,
    random_pd,
    run_campaign,
    search_counterexample,
    singular_values,
    split_seed,
    ui_norm,
)
from matsharp.campaign import reevaluate_search_instance, render_reports
from matsharp.ensembles import Stream
from matsharp.inequalities import LEMMA_CHAIN, stack_reports
from matsharp.linalg import matrix_power_psd

ROOT_SEED = 20260809
REL = 1e-9
ABS = 1e-12


def note(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def band(scale):
    return REL * scale + ABS


# --------------------------------------------------------------------------
# Criterion 1: eigensolver residuals on 1000 random Hermitian matrices
# --------------------------------------------------------------------------

def test_criterion_1_eigensolver_suite():
    worst_recon = worst_unit = 0.0
    for i in range(1000):
        n = 2 + i % 7
        a = random_hermitian(EnsembleSpec(dim=n, kind="hermitian",
                                          seed=split_seed(ROOT_SEED, i)))
        spec = hermitian_eigendecompose(a)
        recon = np.linalg.norm(a - spec.assemble(spec.eigenvalues))
        unit = np.linalg.norm(spec.vectors.conj().T @ spec.vectors - np.eye(n))
        worst_recon = max(worst_recon, recon / (1.0 + np.linalg.norm(a)))
        worst_unit = max(worst_unit, unit / n)
    ok = worst_recon <= 1e-12 and worst_unit <= 1e-12
    note(1, ok, f"1000 matrices n in 2..8, worst residual {worst_recon:.2e}, "
                f"worst unitarity {worst_unit:.2e}")
    assert ok


# --------------------------------------------------------------------------
# Criterion 2: norm family consistency and unitary invariance
# --------------------------------------------------------------------------

def test_criterion_2_norm_consistency():
    worst = 0.0
    for i in range(200):
        n = 2 + i % 7
        m = Stream(split_seed(ROOT_SEED + 1, i)).complex_normals(n * n).reshape(n, n)
        s = singular_values(m)
        op = norm_from_singular_values(s, NormSpec.schatten(math.inf))
        tr = norm_from_singular_values(s, NormSpec.schatten(1))
        fro = norm_from_singular_values(s, NormSpec.schatten(2))
        worst = max(worst,
                    abs(op - norm_from_singular_values(s, NormSpec.ky_fan(1))) / op,
                    abs(tr - norm_from_singular_values(s, NormSpec.ky_fan(n))) / tr,
                    abs(fro - np.linalg.norm(m)) / fro)
        u = hermitian_eigendecompose(
            random_hermitian(EnsembleSpec(dim=n, kind="hermitian",
                                          seed=split_seed(ROOT_SEED + 2, i)))).vectors
        v = hermitian_eigendecompose(
            random_hermitian(EnsembleSpec(dim=n, kind="hermitian",
                                          seed=split_seed(ROOT_SEED + 3, i)))).vectors
        for spec in default_norm_specs(n):
            base = norm_from_singular_values(s, spec)
            worst = max(worst, abs(ui_norm(u @ m @ v, spec) - base) / base)
    ok = worst <= 1e-10
    note(2, ok, f"200 instances, worst relative deviation {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# Criterion 3: mean identities on 500 random PD pairs across the t-grid
# --------------------------------------------------------------------------

def test_criterion_3_mean_identities():
    t_grid = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    worst = {"symmetry": 0.0, "congruence": 0.0, "commuting": 0.0,
             "determinant": 0.0, "positivity": 1.0}
    for i in range(500):
        n = 2 + i % 5
        a = random_pd(EnsembleSpec(dim=n, seed=split_seed(ROOT_SEED + 4, 2 * i)))
        b = random_pd(EnsembleSpec(dim=n, seed=split_seed(ROOT_SEED + 4, 2 * i + 1)))
        c, d = random_commuting_pair(EnsembleSpec(dim=n, kind="commuting",
                                                  seed=split_seed(ROOT_SEED + 5, i)))
        m = Stream(split_seed(ROOT_SEED + 6, i)).complex_normals(n * n).reshape(n, n)
        for t in t_grid:
            g = geometric_mean(a, b, t)
            worst["positivity"] = min(worst["positivity"],
                                      float(hermitian_eigendecompose(g).eigenvalues[-1]))
            sym = np.linalg.norm(g - geometric_mean(b, a, 1.0 - t)) / np.linalg.norm(g)
            worst["symmetry"] = max(worst["symmetry"], sym)
            det_got = np.linalg.det(g).real
            det_want = np.linalg.det(a).real ** (1 - t) * np.linalg.det(b).real ** t
            worst["determinant"] = max(worst["determinant"],
                                       abs(det_got - det_want) / abs(det_want))
            g_cd = geometric_mean(c, d, t)
            red = np.linalg.norm(g_cd - matrix_power_psd(c, 1 - t) @ matrix_power_psd(d, t))
            worst["commuting"] = max(worst["commuting"], red / np.linalg.norm(g_cd))
            if t in (0.25, 0.5, 0.75):
                left = m @ g @ m.conj().T
                right = geometric_mean(m @ a @ m.conj().T, m @ b @ m.conj().T, t)
                worst["congruence"] = max(worst["congruence"],
                                          np.linalg.norm(left - right) / np.linalg.norm(left))
    ok = (worst["symmetry"] <= 1e-10 and worst["congruence"] <= 1e-9
          and worst["commuting"] <= 1e-10 and worst["determinant"] <= 1e-9
          and worst["positivity"] > 0.0)
    note(3, ok, "500 pairs x 7 t-values: " + ", ".join(
        f"{k} {v:.2e}" for k, v in worst.items()))
    assert ok


# --------------------------------------------------------------------------
# Criterion 4: the four-term chain on the stated grid (strict xfail at r=2)
# --------------------------------------------------------------------------

T4_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
R4_GRID = (0.5, 1.0, 2.0)
S4_GRID = (0.5, 1.0, 2.0)
SCHATTEN_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


@pytest.fixture(scope="module")
def lemma_chain_results():
    """1000 PD pairs x full (t, r, s) grid; margins over the default norm set.

    Pair i has n = 2 + i % 4, so the pairs of each n form one stack, in
    which pair i is row i // 4.  Each stack is evaluated and reduced over
    the whole grid and the five Schatten norms in one ``stack_reports``
    call; the suite's own band then judges its margins.  A fan margin's
    scale is the Schatten-1 value of the step's right term.
    """
    pairs = [[random_pd(EnsembleSpec(dim=2 + i % 4, seed=split_seed(ROOT_SEED + 7, 2 * i + side)))
              for side in (0, 1)] for i in range(1000)]
    norms = tuple(NormSpec.schatten(p) for p in SCHATTEN_PS)
    grid = {"t": T4_GRID, "r": R4_GRID, "s": S4_GRID, "norm": norms}
    points = list(itertools.product(T4_GRID, R4_GRID, S4_GRID))
    violations = []
    fan_violations = []
    min_margin = {r: math.inf for r in R4_GRID}
    for n in range(2, 6):
        group = pairs[n - 2::4]
        a, b = (np.array([pair[side] for pair in group]) for side in (0, 1))
        block, = stack_reports(LEMMA_CHAIN, a, b, (1,) * len(a), grid, (None,) * len(a))

        def key(point, row):
            return (4 * row + n - 2, *points[point])

        bad = block.margins < -band(block.values.max(axis=2))[:, :, None]
        for point, norm, j, row in np.argwhere(bad):
            violations.append((key(point, row), f"schatten:{SCHATTEN_PS[norm]}", j,
                               block.margins[point, norm, j, row]))
        # Ky Fan margins equal the fan margins, so they need no second pass.
        fan_scale = block.values[:, SCHATTEN_PS.index(1.0), 1:]
        for point, left, row in np.argwhere(block.fan_margins < -band(fan_scale)):
            fan_violations.append((key(point, row), left, block.fan_margins[point, left, row]))
        ratio = block.fan_margins / np.maximum(fan_scale, 1e-300)
        by_r = ratio.reshape(len(T4_GRID), len(R4_GRID), -1).min(axis=(0, 2))
        for r, low in zip(R4_GRID, by_r):
            min_margin[r] = min(min_margin[r], low)
    return violations, fan_violations, min_margin


@pytest.mark.xfail(strict=True, reason=(
    "Genuine mathematical reversal, not a numerical artifact: for r > 1 the "
    "first chain step flips direction (A^r #_t B^r log-majorizes (A #_t B)^r "
    "when r >= 1), so the full grid with r = 2 cannot be violation-free; the "
    "companion test pins the r <= 1 region, which is clean."))
def test_criterion_4_lemma_chain_full_grid(lemma_chain_results):
    violations, fan_violations, min_margin = lemma_chain_results
    ok = not violations and not fan_violations
    note(4, ok, f"full grid: {len(violations)} norm violations, "
                f"{len(fan_violations)} fan violations, "
                f"worst relative fan margin by r: "
                + ", ".join(f"r={r}: {v:.2e}" for r, v in sorted(min_margin.items())))
    assert ok


def test_criterion_4_companion_holds_for_r_at_most_one(lemma_chain_results):
    violations, fan_violations, _ = lemma_chain_results
    bad = [v for v in violations if v[0][2] <= 1.0]
    bad_fan = [v for v in fan_violations if v[0][2] <= 1.0]
    ok = not bad and not bad_fan
    note("4-companion", ok,
         f"r in (0.5, 1): {len(bad)} norm violations, {len(bad_fan)} fan violations "
         f"on 1000 pairs x 5 t x 2 r x 3 s x default norms")
    assert ok


# --------------------------------------------------------------------------
# Criterion 5: convex and concave function inequalities
# --------------------------------------------------------------------------

def _bu_config(direction, functions, seed):
    return CampaignConfig.from_obj({
        "inequality-id": "bourin_uchiyama",
        "trials": 500,
        "dims": [2, 4],
        "m-values": [2, 3],
        "functions": functions,
        "direction": direction,
        "norm-specs": ["trace"],
        "root-seed": seed,
    })


def test_criterion_5_bourin_uchiyama():
    convex, _ = run_campaign(_bu_config("convex", ["power:1", "power:2", "power:3", "expm1"],
                                        split_seed(ROOT_SEED, 50)))
    concave, _ = run_campaign(_bu_config("concave", ["power:0.5", "power:1", "ratio"],
                                         split_seed(ROOT_SEED, 51)))
    ok = convex.violated == 0 and concave.violated == 0
    note(5, ok, f"convex: {convex.total} reports, {convex.violated} violations "
                f"(min margin {convex.min_margin:.2e}); concave: {concave.total} reports, "
                f"{concave.violated} violations (min margin {concave.min_margin:.2e})")
    assert ok


# --------------------------------------------------------------------------
# Criterion 6: printed main chain at t = 1/2 plus its proof refinement
# --------------------------------------------------------------------------

def _main_config(**overrides):
    obj = {
        "inequality-id": "main_theorem",
        "trials": 1000,
        "dims": [2, 4, 6],
        "m-values": [1, 2, 3],
        "t-grid": [0.5],
        "r-grid": [1.0, 2.0, 3.0],
        "norm-specs": ["schatten:2"],
        "printed-form": True,
        "root-seed": split_seed(ROOT_SEED, 60),
    }
    obj.update(overrides)
    return CampaignConfig.from_obj(obj)


@pytest.fixture(scope="module")
def main_campaign():
    return run_campaign(_main_config())


def test_criterion_6_main_theorem_printed(main_campaign):
    summary, reports = main_campaign
    fan_bad = sum(1 for r in reports
                  if min(r.fan_margins) < -band(max(v for _, v in r.terms)))
    ok = summary.violated == 0 and fan_bad == 0
    note(6, ok, f"printed form t=1/2: {summary.total} reports, "
                f"{summary.violated} violations, {fan_bad} fan violations, "
                f"min margin {summary.min_margin:.2e}")
    assert ok


def test_criterion_6_proof_steps(main_campaign):
    summary, reports = run_campaign(_main_config(**{"inequality-id": "proof_steps"}))
    # Same instance stream as the printed campaign: seeds must agree.
    assert reports[0].params["seed"] == main_campaign[1][0].params["seed"]
    step11_bad = step22_bad = 0
    for r in reports:
        b = band(max(v for _, v in r.terms))
        if min(r.margins[0], r.margins[1]) < -b:
            step11_bad += 1
        if min(r.margins[2], r.margins[3]) < -b:
            step22_bad += 1
    ok = summary.violated == 0 and step11_bad == 0 and step22_bad == 0
    note("6-proof", ok, f"{summary.total} reports, step-11 violations {step11_bad}, "
                        f"step-22 violations {step22_bad}, min margin {summary.min_margin:.2e}")
    assert ok


# --------------------------------------------------------------------------
# Criterion 7: commuting reduction of the main chain to the two-step chain
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def audenaert_campaign():
    cfg = CampaignConfig.from_obj({
        "inequality-id": "audenaert",
        "trials": 200,
        "dims": [2, 3, 4, 6],
        "m-values": [1, 2, 3],
        "norm-specs": ["trace"],
        "ensemble": {"kind": "commuting"},
        "root-seed": split_seed(ROOT_SEED, 70),
    })
    return cfg, run_campaign(cfg)


def test_criterion_7_remark_reduction(audenaert_campaign):
    worst = 0.0
    for i in range(200):
        n = 2 + i % 5
        a, b = random_commuting_pair(EnsembleSpec(dim=n, kind="commuting",
                                                  seed=split_seed(ROOT_SEED + 8, i)))
        main = check_main_theorem([a], [b], 0.5, 2.0, NormSpec.trace())
        aud = check_audenaert([a], [b], NormSpec.trace())
        assert aud.holds and main.holds
        for (_, vm), (_, va) in zip(main.terms, aud.terms):
            worst = max(worst, abs(vm - va) / max(abs(va), 1e-300))
    cfg, (summary, _) = audenaert_campaign
    ok = worst <= 1e-9 and summary.violated == 0
    note(7, ok, f"200 commuting ensembles: worst pairwise term deviation {worst:.2e}; "
                f"chain campaign {summary.total} reports, {summary.violated} violations")
    assert ok


# --------------------------------------------------------------------------
# Criterion 8: rank-deficient PSD stress through the regularized mean
# --------------------------------------------------------------------------

def test_criterion_8_psd_stress():
    cfg = _main_config(ensemble={"kind": "psd", "epsilon-scale": 1e-10},
                       **{"root-seed": split_seed(ROOT_SEED, 80)})
    summary, reports = run_campaign(cfg)
    finite = all(np.isfinite(v) for r in reports for _, v in r.terms)
    eps_recorded = all(r.regularization_epsilon is not None and r.regularization_epsilon > 0
                       for r in reports)
    ok = summary.violated == 0 and finite and eps_recorded
    note(8, ok, f"{summary.total} rank-deficient reports, {summary.violated} violations, "
                f"finite={finite}, epsilon recorded={eps_recorded}, "
                f"min margin {summary.min_margin:.2e}")
    assert ok


# --------------------------------------------------------------------------
# Criterion 9: counterexample search on the under-specified printed form
# --------------------------------------------------------------------------

def test_criterion_9_search_exploration():
    details = []
    ok = True
    for t in (0.1, 0.9):
        for r in (1.0, 2.0):
            cfg = CampaignConfig.from_obj({
                "inequality-id": "main_theorem",
                "dims": [2],
                "m-values": [2],
                "t-grid": [t],
                "r-grid": [r],
                "norm-specs": ["schatten:2"],
                "printed-form": True,
                "root-seed": split_seed(ROOT_SEED, 90),
            })
            report = search_counterexample(cfg, 10_000)
            margin, _ = reevaluate_search_instance(cfg, report)
            reproduced = abs(margin - report.best_margin) <= 1e-12
            ok = ok and reproduced
            details.append(f"t={t} r={r}: margin {report.best_margin:.3e} "
                           f"(violation={report.violation_found}, reproduced={reproduced})")
    note(9, ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------
# Criterion 10: byte-identical re-runs
# --------------------------------------------------------------------------

def test_criterion_10_determinism(main_campaign, audenaert_campaign):
    _, reports_main = main_campaign
    again_main = run_campaign(_main_config())[1]
    cfg_aud, (_, reports_aud) = audenaert_campaign
    again_aud = run_campaign(cfg_aud)[1]
    same_main = render_reports(reports_main, "json") == render_reports(again_main, "json")
    same_aud = render_reports(reports_aud, "json") == render_reports(again_aud, "json")
    ok = same_main and same_aud
    note(10, ok, f"main campaign byte-identical={same_main} "
                 f"({len(reports_main)} reports); commuting campaign "
                 f"byte-identical={same_aud} ({len(reports_aud)} reports)")
    assert ok
