import csv
import io
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pd_for
from matsharp import (
    CampaignConfig,
    ConfigError,
    EnsembleSpec,
    InequalityReport,
    NormSpec,
    NotPositiveDefiniteError,
    SingularFunctionError,
    check_audenaert,
    check_bourin_uchiyama,
    check_lemma_chain,
    check_main_theorem,
    check_proof_steps,
    emit_report,
    load_reports,
    random_commuting_pair,
    random_psd_rank_deficient,
    regularization_epsilon,
    render_reports,
    run_campaign,
    save_matrix,
    search_counterexample,
    split_seed,
    summarize,
    tolerance_band,
)
import matsharp.campaign as campaign
import matsharp.cli as cli
import matsharp.inequalities as inequalities
from matsharp.campaign import (
    CHUNK_TRIALS,
    CSV_COLUMNS,
    CampaignSummary,
    ReportStream,
    SearchReport,
    _build_inputs,
    reevaluate_search_instance,
)
from matsharp.cli import main as cli_main
from matsharp.inequalities import (
    BOURIN_UCHIYAMA,
    MAIN_THEOREM,
    _params,
    _ReportBlock,
    stack_reports,
)
from matsharp.norms import REL_TOL


SMALL = {
    "inequality-id": "main_theorem",
    "trials": 4,
    "dims": [2, 3],
    "m-values": [1, 2],
    "t-grid": [0.5],
    "r-grid": [1.0, 2.0],
    "norm-specs": ["schatten:2"],
    "root-seed": 11,
}


def small_config(**overrides):
    return CampaignConfig.from_obj(dict(SMALL, **overrides))


def assert_refused(key, overrides, tmp_path, capsys):
    """``SMALL`` with ``overrides`` raises ConfigError naming ``key``, and
    ``matsharp campaign`` exits 1 with ``key`` on stderr."""
    with pytest.raises(ConfigError, match=key):
        small_config(**overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL, **overrides)))
    assert cli_main(["campaign", "--config", str(cfg_path)]) == 1
    assert key in capsys.readouterr().err


def synthetic_report(i):
    return InequalityReport(
        inequality_id="LemmaChain",
        params={"m": 1, "n": 2, "t": 0.5, "r": 1.0, "s": 1.0,
                "norm-spec": "trace", "function-id": None, "seed": i, "trial": i},
        terms=[("left", 1.0 + i), ("right", 2.0 + i)],
        margins=[1.0],
        holds=True,
        fan_margins=[1.0],
    )


def finite(report):
    """Plain-Python reference, independent of the library's verdict rule:
    every term, margin and fan margin of ``report`` is finite."""
    values = [value for _, value in report.terms] + report.margins + (report.fan_margins or [])
    return all(math.isfinite(x) for x in values)


def least_margin(report):
    """The least margin of ``report``; NaN when any margin is NaN."""
    return math.nan if any(math.isnan(x) for x in report.margins) else min(report.margins)


def reference_summary(reports):
    """The summary of ``reports`` as a JSON object without its wall time,
    in plain Python: a report that is not :func:`finite` is indeterminate,
    a finite one is held when its least margin clears the band of its
    largest term (``REL_TOL`` times it), whatever it says, and a tie when
    that margin is also at most the band (of the largest absolute term:
    a loaded term can be negative), and the least margin over the
    finite reports is taken at the first report that attains it."""
    finite_reports = [r for r in reports if finite(r)]

    def band(r):
        return REL_TOL * max(abs(value) for _, value in r.terms)

    held = sum(1 for r in finite_reports if min(r.margins) >= -band(r))
    ties = sum(1 for r in finite_reports if abs(min(r.margins)) <= band(r))
    worst = min(finite_reports, key=lambda r: min(r.margins), default=None)
    return {"total": len(reports), "held": held, "ties": ties,
            "violated": len(finite_reports) - held,
            "indeterminate": len(reports) - len(finite_reports),
            "min-margin": math.inf if worst is None else min(worst.margins),
            "min-margin-params": {} if worst is None else dict(
                worst.params, **{"inequality-id": worst.inequality_id})}


def summary_obj(summary):
    """``summary`` as a JSON object without its wall time."""
    obj = summary.to_obj()
    del obj["wall-time"]
    return obj


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            small_config(**{"t-grid": []})
        with pytest.raises(ConfigError):
            small_config(dims=[])

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_obj({"inequality-id": "main_theorem", "sweeps": 3})
        with pytest.raises(ConfigError):
            small_config(ensemble={"flavor": "spicy"})

    def test_rejects_missing_id_and_bad_values(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_obj({"trials": 5})
        with pytest.raises(ConfigError):
            small_config(**{"output-format": "parquet"})
        with pytest.raises(ConfigError):
            small_config(relTol=0.0)
        with pytest.raises(ConfigError):
            CampaignConfig.from_obj({"inequality-id": "fermat"})

    def test_rejects_nonpositive_m_values(self):
        # m = 0 would reach the stacked draw as an empty list of pairs.
        with pytest.raises(ConfigError, match="m-values"):
            small_config(**{"m-values": [0]})

    @pytest.mark.parametrize("key,value", [
        ("trials", "3"),         # was a TypeError from validate
        ("trials", 2.5),         # was a TypeError from range()
        ("dims", [2.7]),         # ran silently at n = 2
        ("m-values", [1, 1.5]),
    ])
    def test_rejects_non_integer_counts(self, key, value, tmp_path, capsys):
        with pytest.raises(ConfigError, match=key):
            small_config(**{key: value})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inequality-id": "main_theorem", key: value}))
        assert cli_main(["campaign", "--config", str(cfg_path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("dims", 3),                 # was a TypeError traceback
        ("m-values", 2),
        ("t-grid", 0.5),
        ("r-grid", 2.0),
        ("s-grid", 1.0),
        ("norm-specs", "trace"),     # was read character by character
        ("functions", "expm1"),
        ("t-grid", ["a"]),           # was a bare float-conversion error
        ("r-grid", [1.0, True]),     # ran as r = 1
        ("r-grid", [math.nan]),      # every report was indeterminate
        ("norm-specs", ["schatten:x"]),
    ])
    def test_rejects_lists_of_the_wrong_type(self, key, value, tmp_path, capsys):
        assert_refused(key, {key: value}, tmp_path, capsys)

    @pytest.mark.parametrize("function_id", ["power:inf", "power:1e400", "power:nan"])
    def test_rejects_a_non_finite_power(self, function_id, tmp_path, capsys):
        # power:inf ran, and every report of its instances was indeterminate,
        # their power:2 reports included.
        overrides = {"inequality-id": "bourin_uchiyama", "direction": "convex",
                     "functions": [function_id, "power:2"]}
        assert_refused("functions", overrides, tmp_path, capsys)
        # power:nan was refused as a direction mismatch.
        with pytest.raises(ConfigError, match="finite and positive"):
            small_config(**overrides)

    @pytest.mark.parametrize("key,value", [
        ("printed-form", "no"),      # ran the printed form
        ("printed-form", 0),
        ("relTol", "x"),             # was a TypeError traceback from validate
        ("relTol", True),            # ran with a tolerance of 1
        ("absTol", [1e-12]),
        ("relTol", math.nan),        # no report held
        ("ensemble", [1]),           # was a TypeError traceback
        ("root-seed", "x"),          # failed at the first draw
        ("root-seed", True),         # ran as seed 1
        ("root-seed", 1.5),
        ("output-path", 5),          # was opened as file descriptor 5
    ])
    def test_rejects_scalars_of_the_wrong_type(self, key, value, tmp_path, capsys):
        assert_refused(key, {key: value}, tmp_path, capsys)

    @pytest.mark.parametrize("key,value", [
        ("t-grid", [0.5, 1.5]),      # each failed after the first draw, in the kernel
        ("t-grid", [-0.25]),
        ("r-grid", [0]),
        ("r-grid", [-1.0]),
        ("s-grid", [0]),
        ("s-grid", [-1.0]),
    ])
    def test_rejects_grid_values_outside_their_domain(self, key, value, tmp_path, capsys):
        assert_refused(key, {"inequality-id": "lemma_chain", key: value}, tmp_path, capsys)
        if key != "s-grid":
            assert_refused(key, {key: value}, tmp_path, capsys)

    @pytest.mark.parametrize("key,ensemble", [
        ("condition-target", {"condition-target": 0.5}),
        ("condition-target", {"condition-target": "big"}),
        ("condition-target", {"condition-target": math.inf}),
        ("field", {"field": "quaternion"}),
        ("rank", {"kind": "psd", "rank": 5}),
        ("rank", {"rank": "x"}),
        ("kind", {"kind": "hermitian"}),
    ])
    def test_rejects_ensembles_before_the_first_draw(self, key, ensemble, tmp_path, capsys):
        # Refused by the config, not when run_campaign or search draws.
        assert_refused(key, {"dims": [2], "ensemble": ensemble}, tmp_path, capsys)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_rejects_nonpositive_epsilon_scale(self, scale):
        # psd_geometric_mean refuses these scales; a campaign must refuse them up front.
        with pytest.raises(ConfigError, match="epsilon-scale"):
            small_config(ensemble={"kind": "psd", "rank": 1, "epsilon-scale": scale})

    def test_bourin_uchiyama_needs_direction_and_functions(self):
        # A missing direction is named as such, with its two values.
        with pytest.raises(ConfigError, match="direction 'convex' or 'concave'; it is missing"):
            CampaignConfig.from_obj({"inequality-id": "bourin_uchiyama",
                                     "functions": ["power:2"], "trials": 1, "dims": [2],
                                     "m-values": [1]})
        with pytest.raises(ConfigError, match="direction 'convex' or 'concave'; got 'linear'"):
            CampaignConfig.from_obj({"inequality-id": "bourin_uchiyama",
                                     "functions": ["power:2"], "direction": "linear"})
        with pytest.raises(ConfigError):
            CampaignConfig.from_obj({"inequality-id": "bourin_uchiyama",
                                     "direction": "convex", "functions": []})

    @pytest.mark.parametrize("direction", [5, "sideways", ["convex"]])
    def test_rejects_a_direction_of_the_wrong_type_or_value(self, direction, tmp_path, capsys):
        # Each was accepted for the main theorem, which reads no direction.
        assert_refused("direction", {"direction": direction}, tmp_path, capsys)

    def test_missing_bourin_uchiyama_direction_is_named_as_direction(self, tmp_path, capsys):
        # It was reported under functions.
        overrides = {"inequality-id": "bourin_uchiyama", "functions": ["power:2"]}
        assert_refused("direction", overrides, tmp_path, capsys)
        with pytest.raises(ConfigError, match="^direction: "):
            small_config(**overrides)

    @pytest.mark.parametrize("functions,direction", [
        (["power:2", "ratio"], "convex"),   # ratio is concave
        (["power:3"], "concave"),
        (["log1p"], "convex"),              # not registered
        (["power:-1"], "convex"),
    ])
    def test_bourin_uchiyama_rejects_unusable_functions(self, functions, direction):
        # Refused up front, not at the first stack of the run.
        with pytest.raises(ConfigError):
            CampaignConfig.from_obj({"inequality-id": "bourin_uchiyama", "trials": 2,
                                     "dims": [2], "m-values": [2], "functions": functions,
                                     "direction": direction})

    @pytest.mark.parametrize("r_grid", [None, [0.5, 1.0], [2.0, 0.99]])
    def test_proof_steps_rejects_r_below_one(self, r_grid):
        # The default r-grid holds 0.5; the proof's convexity step needs
        # r >= 1, so the config is refused before any instance runs.
        obj = {"inequality-id": "proof_steps", "trials": 1, "dims": [2], "m-values": [1]}
        if r_grid is not None:
            obj["r-grid"] = r_grid
        with pytest.raises(ConfigError, match="r >= 1"):
            CampaignConfig.from_obj(obj)

    def test_rejects_ky_fan_index_above_a_dimension(self, tmp_path, capsys):
        # Ky Fan k needs k singular values: with n = 1 in dims, kyfan:3
        # would fail partway through the run, so the config is refused.
        obj = {"inequality-id": "main_theorem", "trials": 2, "dims": [4, 1],
               "m-values": [1], "r-grid": [1.0], "norm-specs": ["schatten:2", "kyfan:3"]}
        with pytest.raises(ConfigError, match="kyfan:3"):
            CampaignConfig.from_obj(obj)
        cfg = CampaignConfig.from_obj(dict(obj, dims=[4]))
        cfg.dims = (4, 1)
        with pytest.raises(ConfigError, match="kyfan:3"):
            run_campaign(cfg)
        cfg = CampaignConfig.from_obj(dict(obj, dims=[3], **{"norm-specs": ["kyfan:3"]}))
        cfg.dims = (1,)
        with pytest.raises(ConfigError, match="kyfan:3"):
            search_counterexample(cfg, 5)
        a = tmp_path / "a.json"
        save_matrix(a, np.eye(2))
        assert cli_main(["eval", "--inequality", "main_theorem", "--a", str(a), "--b", str(a),
                         "--norm", "kyfan:3"]) == 1
        assert "kyfan:3" in capsys.readouterr().err

    def test_lemma_chain_rejects_psd_ensemble(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_obj({"inequality-id": "lemma_chain",
                                     "ensemble": {"kind": "psd"}})

    def test_round_trip_exact_keys(self):
        cfg = small_config()
        obj = cfg.to_obj()
        assert set(obj) >= {"inequality-id", "trials", "dims", "m-values", "t-grid",
                            "r-grid", "s-grid", "norm-specs", "ensemble", "root-seed",
                            "printed-form", "output-path", "output-format"}
        again = CampaignConfig.from_obj(obj)
        assert again.to_obj() == obj

    def test_id_aliases(self):
        assert small_config(**{"inequality-id": "MainTheorem"}).inequality_id == "MainTheorem"
        assert small_config(**{"inequality-id": "proof-steps"}).inequality_id == "ProofSteps"

    @pytest.mark.parametrize("spelling,identifier", [
        ("audenaert", "Audenaert"),
        ("bourinuchiyama", "BourinUchiyama"),
        ("bourin_uchiyama", "BourinUchiyama"),
        ("bourin-uchiyama", "BourinUchiyama"),
        ("lemmachain", "LemmaChain"),
        ("lemma_chain", "LemmaChain"),
        ("lemma-chain", "LemmaChain"),
        ("maintheorem", "MainTheorem"),
        ("main_theorem", "MainTheorem"),
        ("main-theorem", "MainTheorem"),
        ("proofsteps", "ProofSteps"),
        ("proof_steps", "ProofSteps"),
        ("proof-steps", "ProofSteps"),
    ])
    def test_every_id_spelling(self, spelling, identifier):
        assert campaign.parse_inequality_id(spelling) == identifier
        assert campaign.parse_inequality_id(spelling.upper()) == identifier

    def test_refuses_an_unknown_id_spelling(self):
        with pytest.raises(ConfigError, match="inequality-id"):
            campaign.parse_inequality_id("main theorem")

    @pytest.mark.parametrize("key,overrides", [
        # dims [2, 2, 3] once drew the same n = 2 instances twice.
        ("dims", {"dims": [2, 2, 3]}),
        ("m-values", {"m-values": [1, 2, 1]}),
        ("t-grid", {"t-grid": [0.5, 0.5]}),
        ("r-grid", {"r-grid": [1.0, 2.0, 1.0]}),
        ("norm-specs", {"norm-specs": ["trace", "schatten:2", "trace"]}),
        ("s-grid", {"inequality-id": "lemma_chain", "s-grid": [1.0, 1.0]}),
        ("functions", {"inequality-id": "bourin_uchiyama", "direction": "convex",
                       "functions": ["power:2", "power:2"]}),
    ])
    def test_rejects_repeated_grid_values(self, key, overrides, tmp_path, capsys):
        assert_refused(key, overrides, tmp_path, capsys)


class TestRunCampaign:
    def test_report_count_is_trials_times_grid(self):
        cfg = small_config()
        summary, reports = run_campaign(cfg)
        assert summary.total == len(reports) == cfg.trials * cfg.grid_size()
        assert summary.held + summary.violated == summary.total

    @pytest.mark.parametrize("obj,expected", [
        ({"inequality-id": "lemma_chain", "dims": [2, 3], "t-grid": [0.0, 0.5],
          "r-grid": [1.0], "s-grid": [1.0, 2.0], "norm-specs": ["trace"]}, 2 * 2 * 1 * 2),
        ({"inequality-id": "audenaert", "dims": [2], "m-values": [1, 2, 3],
          "norm-specs": ["trace", "operator"]}, 1 * 3 * 2),
        ({"inequality-id": "bourin_uchiyama", "dims": [2], "m-values": [2],
          "functions": ["power:2", "expm1"], "direction": "convex",
          "norm-specs": ["trace"]}, 1 * 1 * 2),
        ({"inequality-id": "proof_steps", "dims": [2], "m-values": [1, 2],
          "t-grid": [0.5], "r-grid": [1.0, 2.0], "norm-specs": ["kyfan:1"]}, 2 * 2),
    ])
    def test_grid_product_per_inequality(self, obj, expected):
        cfg = CampaignConfig.from_obj(dict(obj, trials=2, **{"root-seed": 4}))
        summary, reports = run_campaign(cfg)
        assert cfg.grid_size() == expected
        assert summary.total == 2 * expected

    def test_identical_configs_identical_output(self):
        s1, r1 = run_campaign(small_config())
        s2, r2 = run_campaign(small_config())
        assert render_reports(r1, "json") == render_reports(r2, "json")
        assert (s1.total, s1.held, s1.violated, s1.min_margin, s1.min_margin_params) == \
               (s2.total, s2.held, s2.violated, s2.min_margin, s2.min_margin_params)

    def test_summary_integrity_from_stream(self):
        summary, reports = run_campaign(small_config())
        recomputed = summarize(reports)
        assert summary_obj(recomputed) == summary_obj(summary) == reference_summary(list(reports))

    def test_trials_vary_inputs(self):
        _, reports = run_campaign(small_config(trials=2))
        seeds = {r.params["seed"] for r in reports}
        assert len(seeds) == 2 * 4  # trials x (dims x m-values)

    def test_bourin_uchiyama_campaign(self):
        cfg = CampaignConfig.from_obj({
            "inequality-id": "bourin_uchiyama", "trials": 3, "dims": [2],
            "m-values": [2], "functions": ["power:2", "expm1"],
            "direction": "convex", "norm-specs": ["trace"], "root-seed": 1})
        summary, reports = run_campaign(cfg)
        assert summary.total == 3 * 2
        assert summary.violated == 0
        assert {r.params["function-id"] for r in reports} == {"power:2", "expm1"}

    def test_psd_campaign_records_epsilon(self):
        cfg = small_config(ensemble={"kind": "psd"}, trials=2)
        _, reports = run_campaign(cfg)
        assert all(r.regularization_epsilon is not None for r in reports)
        assert all(np.isfinite(min(r.margins)) for r in reports)

    @pytest.mark.parametrize("inequality_id", ["main_theorem", "proof_steps"])
    def test_rank_one_psd_campaign_violates_no_theorem_step(self, inequality_id):
        # The theorem steps: every step of the t-dependent variant at r >= 1,
        # and proof steps 1-2 (all of them at t = 1/2, where the printed
        # terms are the variant's).  Shifting each pair by its own epsilon
        # and leaving the sums unshifted once reported such steps violated.
        cfg = small_config(trials=6, dims=[2, 3, 4], **{
            "inequality-id": inequality_id, "printed-form": False, "m-values": [2, 3],
            "t-grid": [0.0, 0.1, 0.5, 0.9, 1.0], "r-grid": [1.0, 2.0, 3.0],
            "norm-specs": ["schatten:1", "operator", "kyfan:2"],
            "ensemble": {"kind": "psd", "rank": 1}})
        _, reports = run_campaign(cfg)
        for report in reports:
            steps = 2 if report.inequality_id == "ProofSteps" and report.params["t"] != 0.5 else 4
            band = tolerance_band(max(value for _, value in report.terms))
            assert min(report.margins[:steps]) >= -band, report.to_obj()


def instance_seed(cfg, trial, point):
    """The seed ``run_campaign`` gives the instance of ``point`` in ``trial``."""
    m_index = cfg.m_values.index(point["m"]) if "m" in point else 0
    return split_seed(split_seed(split_seed(cfg.root_seed, trial),
                                 cfg.dims.index(point["n"])), m_index)


def instance_bytes(a, b, counts, k):
    """The bytes of instance ``k``'s A- and B-lists in a flat draw (b None: no B-list)."""
    pairs = slice(counts[:k].sum(), counts[:k + 1].sum())
    return a[pairs].tobytes(), b"" if b is None else b[pairs].tobytes()


def expected_reports(cfg, trials):
    """The public predicates called instance by instance and point by point."""
    expected = []
    for trial in trials:
        for point in cfg.grid_points():
            seed = instance_seed(cfg, trial, point)
            a_list, b_list = _build_inputs(cfg, point["n"], point.get("m", 1), seed)
            report = check_one_point(cfg, point, a_list, b_list, seed)
            report.params["trial"] = trial
            expected.append(report)
    return expected


def check_one_point(cfg, point, a_list, b_list, seed):
    """The public predicate of ``cfg``'s inequality at one grid point."""
    kw = {"seed": seed}
    eps = cfg.ensemble["epsilon-scale"]
    ineq = cfg.inequality_id
    if ineq == "LemmaChain":
        return check_lemma_chain(a_list[0], b_list[0], point["t"], point["r"], point["s"],
                                 point["norm"], **kw)
    if ineq == "Audenaert":
        return check_audenaert(a_list, b_list, point["norm"], **kw)
    if ineq == "BourinUchiyama":
        return check_bourin_uchiyama(a_list, point["f"], cfg.direction, point["norm"], **kw)
    if ineq == "MainTheorem":
        return check_main_theorem(a_list, b_list, point["t"], point["r"], point["norm"],
                                  printed_form=cfg.printed_form, epsilon_scale=eps, **kw)
    return check_proof_steps(a_list, b_list, point["t"], point["r"], point["norm"],
                             epsilon_scale=eps, **kw)


EQUIVALENCE_NORMS = ["schatten:1", "schatten:3", "kyfan:1", "operator"]


class TestInstancePass:
    @pytest.mark.parametrize("obj", [
        {"inequality-id": "main_theorem"},
        {"inequality-id": "main_theorem", "printed-form": False, "ensemble": {"kind": "psd"}},
        # The regularized printed chain.
        {"inequality-id": "main_theorem", "ensemble": {"kind": "psd"}},
        # A 3 x 3 (t, r) grid: every term stacked over more than one t and r.
        {"inequality-id": "main_theorem", "printed-form": False, "t-grid": [0.1, 0.5, 0.9],
         "r-grid": [0.5, 1.0, 3.0]},
        {"inequality-id": "proof_steps", "ensemble": {"kind": "psd"}},
        {"inequality-id": "lemma_chain", "r-grid": [0.5, 2.0], "s-grid": [0.5, 1.0]},
        {"inequality-id": "lemma_chain", "r-grid": [0.5, 2.0], "s-grid": [0.5, 1.0, 2.0]},
        {"inequality-id": "audenaert"},
        {"inequality-id": "bourin_uchiyama", "functions": ["power:2", "expm1"],
         "direction": "convex"},
        {"inequality-id": "bourin_uchiyama", "functions": ["power:0.5", "ratio"],
         "direction": "concave"},
    ])
    def test_campaign_equals_one_check_per_point(self, obj):
        # One pass per instance serves every (t, r, s, f, norm) point; the
        # reports must equal the public predicates called point by point.
        cfg = CampaignConfig.from_obj(dict({
            "trials": 2, "dims": [2, 3], "m-values": [1, 2], "t-grid": [0.25, 0.5],
            "r-grid": [1.0, 2.0], "norm-specs": EQUIVALENCE_NORMS, "root-seed": 29}, **obj))
        _, reports = run_campaign(cfg)
        expected = expected_reports(cfg, range(cfg.trials))
        assert len(reports) == len(expected) == cfg.trials * cfg.grid_size()
        assert reports == expected


# The property test's full grid, from which it draws sub-grids and trial counts.
SUB_GRID_BASE = {"trials": 5, "dims": [2, 3], "m-values": [1, 2], "t-grid": [0.0, 0.25, 0.5, 0.9],
                 "r-grid": [1.0, 2.0, 3.0, 0.5], "s-grid": [0.5, 1.0, 2.0],
                 "norm-specs": ["schatten:2", "kyfan:1"], "root-seed": 53}
SUB_GRID_CHAINS = [
    {"inequality-id": "main_theorem"},
    {"inequality-id": "main_theorem", "printed-form": False, "ensemble": {"kind": "psd"}},
    {"inequality-id": "proof_steps", "r-grid": [1.0, 2.0, 3.0]},
    {"inequality-id": "lemma_chain"},
]


class TestBatchInvariance:
    @pytest.mark.parametrize("obj", [
        {"inequality-id": "main_theorem"},
        {"inequality-id": "proof_steps", "ensemble": {"kind": "psd"}},
        {"inequality-id": "lemma_chain", "s-grid": [1.0]},
        {"inequality-id": "audenaert"},
        {"inequality-id": "bourin_uchiyama", "functions": ["power:2", "expm1"],
         "direction": "convex"},
    ])
    def test_trial_zero_independent_of_trial_count(self, obj):
        # A trial's reports do not depend on how many trials share its stack.
        base = dict({"dims": [1, 3], "m-values": [1, 2], "t-grid": [0.3], "r-grid": [1.0, 2.0],
                     "norm-specs": ["schatten:2", "kyfan:1"], "root-seed": 41}, **obj)
        _, alone = run_campaign(CampaignConfig.from_obj(dict(base, trials=1)))
        _, batch = run_campaign(CampaignConfig.from_obj(dict(base, trials=9)))
        first = [r for r in batch if r.params["trial"] == 0]
        assert render_reports(alone, "json") == render_reports(first, "json")
        assert render_reports(alone, "csv") == render_reports(first, "csv")

    @pytest.mark.parametrize("chunk", [CHUNK_TRIALS, 2])
    @pytest.mark.parametrize("obj", SUB_GRID_CHAINS,
                             ids=["main_printed", "main_variant_psd", "proof_steps", "lemma_chain"])
    def test_reports_do_not_depend_on_the_grid_or_the_chunk(self, obj, chunk, monkeypatch):
        # Each grid axis is stacked into the kernel's calls, so the stack
        # holds every point of the grid and every trial of the chunk; a
        # (trial, point) report must not depend on either.
        base = dict(SUB_GRID_BASE, **obj)
        _, full = run_campaign(CampaignConfig.from_obj(base))
        by_point = {tuple(report.params.items()): report for report in full}
        monkeypatch.setattr(campaign, "CHUNK_TRIALS", chunk)

        @settings(derandomize=True, deadline=5000, max_examples=10, database=None)
        @given(data=st.data())
        def sub_grid_reports_equal_full_grid_reports(data):
            sub = {key: data.draw(st.lists(st.sampled_from(base[key]), min_size=1,
                                           max_size=len(base[key]), unique=True))
                   for key in ("t-grid", "r-grid", "s-grid")}
            trials = data.draw(st.integers(1, base["trials"]))
            _, reports = run_campaign(CampaignConfig.from_obj(dict(base, trials=trials, **sub)))
            assert len(reports) > 0
            for report in reports:
                assert report == by_point[tuple(report.params.items())]

        sub_grid_reports_equal_full_grid_reports()

    @pytest.mark.parametrize("obj", [
        {"inequality-id": "main_theorem", "ensemble": {"kind": "psd"}, "printed-form": False},
        {"inequality-id": "lemma_chain", "s-grid": [0.5, 1.0]},
        {"inequality-id": "audenaert"},
        {"inequality-id": "bourin_uchiyama", "functions": ["power:3", "expm1"],
         "direction": "convex"},
    ], ids=["main_theorem", "lemma_chain", "audenaert", "bourin_uchiyama"])
    def test_trial_after_a_full_chunk_equals_checks(self, obj):
        # The last trial sits alone in the second chunk of stacked passes.
        cfg = CampaignConfig.from_obj(dict({
            "trials": CHUNK_TRIALS + 1, "dims": [2], "m-values": [2], "t-grid": [0.5],
            "r-grid": [1.0, 3.0], "norm-specs": ["schatten:1", "operator"],
            "root-seed": 43}, **obj))
        _, reports = run_campaign(cfg)
        last = [r for r in reports if r.params["trial"] == CHUNK_TRIALS]
        assert len(last) == cfg.grid_size()
        assert last == expected_reports(cfg, [CHUNK_TRIALS])

    @pytest.mark.parametrize("obj,n", [
        ({"inequality-id": "main_theorem"}, 1),
        ({"inequality-id": "main_theorem"}, 3),
        ({"inequality-id": "main_theorem", "ensemble": {"kind": "psd", "rank": 1}}, 3),
        ({"inequality-id": "main_theorem", "ensemble": {"kind": "commuting"}}, 1),
        ({"inequality-id": "main_theorem", "ensemble": {"kind": "commuting"}}, 3),
        ({"inequality-id": "main_theorem", "ensemble": {"field": "real"}}, 3),
        ({"inequality-id": "audenaert"}, 3),
        ({"inequality-id": "bourin_uchiyama", "functions": ["expm1"], "direction": "convex"}, 3),
    ])
    def test_stacked_draws_equal_single_draws(self, obj, n):
        cfg = CampaignConfig.from_obj(dict(obj, **{"root-seed": 47}))
        seeds = tuple(split_seed(47, k) for k in range(5))
        a, b, counts = _build_inputs(cfg, n, (2,), (seeds,))
        assert a.shape == (10, n, n) and counts.tolist() == [2] * 5
        for k, seed in enumerate(seeds):
            a_list, b_list = _build_inputs(cfg, n, 2, seed)
            assert instance_bytes(a, b, counts, k) == (np.array(a_list).tobytes(),
                                                       np.array(b_list).tobytes())

    @pytest.mark.parametrize("obj,n", [
        ({"inequality-id": "main_theorem"}, 3),
        ({"inequality-id": "main_theorem", "ensemble": {"kind": "psd", "rank": 1}}, 3),
        ({"inequality-id": "main_theorem", "ensemble": {"kind": "commuting"}}, 2),
        ({"inequality-id": "audenaert"}, 1),
        ({"inequality-id": "bourin_uchiyama", "functions": ["expm1"], "direction": "convex"}, 3),
    ])
    def test_draws_of_every_m_equal_single_draws(self, obj, n):
        # One draw serves every m of an n; each matrix keeps its seed's bits.
        cfg = CampaignConfig.from_obj(dict(obj, **{"root-seed": 47}))
        m_values = (1, 3, 2)
        seeds = tuple(tuple(split_seed(split_seed(47, k), i) for k in range(3 + i))
                      for i in range(len(m_values)))
        a, b, counts = _build_inputs(cfg, n, m_values, seeds)
        assert counts.tolist() == [m for m, group in zip(m_values, seeds) for _ in group]
        assert a.shape == (counts.sum(), n, n)
        k = 0
        for m, group in zip(m_values, seeds):
            for seed in group:
                a_list, b_list = _build_inputs(cfg, n, m, seed)
                assert instance_bytes(a, b, counts, k) == (np.array(a_list).tobytes(),
                                                           np.array(b_list).tobytes())
                k += 1

    def test_one_draw_and_one_kernel_per_chunk_and_dimension(self, monkeypatch):
        # Every m of an n is drawn in one call and evaluated in one kernel
        # pass: 2 chunks x 2 dimensions, not one per (chunk, n, m).
        draws, kernels = [], []
        draw, init = campaign._build_inputs, inequalities._StackKernel.__init__

        def counted_draw(config, n, m, inst_seed):
            draws.append((n, m))
            return draw(config, n, m, inst_seed)

        def counted_init(self, a, b, counts, *args):
            kernels.append([m for m, _ in itertools.groupby(counts.tolist())])
            init(self, a, b, counts, *args)
        monkeypatch.setattr(campaign, "_build_inputs", counted_draw)
        monkeypatch.setattr(inequalities._StackKernel, "__init__", counted_init)
        cfg = small_config(trials=CHUNK_TRIALS + 1, dims=[2, 3], **{"m-values": [1, 2, 3],
                                                                     "r-grid": [1.0]})
        summary, reports = run_campaign(cfg)
        assert draws == [(2, (1, 2, 3)), (3, (1, 2, 3))] * 2
        assert kernels == [[1, 2, 3]] * 4
        assert summary.total == len(reports) == cfg.trials * cfg.grid_size()


# An instance that fails one screen, by chain: a singular A_i fails the
# strict check, an indefinite one the PSD clamp, and expm1 overflows at 800.
# Each entry is (config, eigenvalues of the bad matrix, the instance's pairs
# it replaces, the error).
MIXED_STACK_FAILURES = {
    "main_strict": ({"inequality-id": "main_theorem"}, [1.0, 0.0], [1], NotPositiveDefiniteError),
    "main_regularized": ({"inequality-id": "main_theorem", "printed-form": False,
                          "ensemble": {"kind": "psd"}}, [1.0, -0.5], [1],
                         NotPositiveDefiniteError),
    "proof_steps": ({"inequality-id": "proof_steps"}, [1.0, 0.0], [1], NotPositiveDefiniteError),
    "bourin_uchiyama": ({"inequality-id": "bourin_uchiyama", "functions": ["expm1", "power:2"],
                         "direction": "convex"}, [800.0, 1.0], [1], SingularFunctionError),
    # expm1 is finite on each pair but overflows on their sum, 800: a failure
    # of one of the T = 6 instances in a stack of P = 12 pairs.
    "bourin_uchiyama_sum": ({"inequality-id": "bourin_uchiyama", "functions": ["expm1"],
                             "direction": "convex"}, [400.0, 1.0], [0, 1],
                            SingularFunctionError),
}


class TestMixedStack:
    @pytest.mark.parametrize("name", sorted(MIXED_STACK_FAILURES))
    def test_failing_pair_masks_only_its_instance(self, name, monkeypatch):
        # One kernel pass holds every m of a trial.  A failing pair of the
        # m = 2 instance of trial 0, or a failing sum of its pairs, masks
        # that instance alone: the same trial's m = 1 and m = 3 instances,
        # and trial 1, are the checks.
        obj, eigenvalues, pairs, error = MIXED_STACK_FAILURES[name]
        bad = np.diag(eigenvalues).astype(complex)
        draw = campaign._build_inputs

        def corrupted(config, n, m, inst_seed):
            a, b, counts = draw(config, n, m, inst_seed)
            # The given pairs of the first m = 2 instance.
            first = counts.tolist().index(2)
            a[counts[:first].sum() + np.array(pairs)] = bad
            return a, b, counts
        monkeypatch.setattr(campaign, "_build_inputs", corrupted)
        cfg = CampaignConfig.from_obj(dict({
            "trials": 2, "dims": [2], "m-values": [1, 2, 3], "t-grid": [0.25, 0.5],
            "r-grid": [1.0, 2.0], "norm-specs": ["schatten:1", "operator"], "root-seed": 59},
            **obj))
        with np.errstate(over="ignore", invalid="ignore"):
            summary, reports = run_campaign(cfg)
        assert summary.indeterminate == cfg.grid_size() // len(cfg.m_values)
        points = [(trial, point) for trial in range(cfg.trials) for point in cfg.grid_points()]
        for report, (trial, point) in zip(reports, points, strict=True):
            seed = instance_seed(cfg, trial, point)
            a_list, b_list = draw(cfg, point["n"], point["m"], seed)
            if (trial, point["m"]) == (0, 2):
                for pair in pairs:
                    a_list[pair] = bad
                assert all(math.isnan(value) for _, value in report.terms)
                assert not report.holds and report.params["seed"] == seed
                with pytest.raises(error), np.errstate(over="ignore", invalid="ignore"):
                    for f in cfg.functions or [None]:
                        check_one_point(cfg, dict(point, f=f), a_list, b_list, seed)
            else:
                expected = check_one_point(cfg, point, a_list, b_list, seed)
                expected.params["trial"] = trial
                assert finite(report) and report == expected

    def test_regularized_epsilon_is_each_instances_own(self):
        # Each instance of a mixed-m stack is shifted by the largest
        # regularization_epsilon of its own pairs, bit for bit; the scales
        # put the largest pair of the m = 3 instance in its middle.
        counts, scales = (1, 3, 2, 1), (1.0, 2.0, 5.0, 3.0, 1.0, 4.0, 2.0)
        a, b = (np.array([c * random_psd_rank_deficient(
            EnsembleSpec(dim=3, kind="psd", seed=seed + k, rank=2)) for k, c in enumerate(scales)])
            for seed in (600, 700))
        blocks = stack_reports(MAIN_THEOREM, a, b, counts, {"t": (0.5,), "r": (2.0,),
                               "norm": (NormSpec.trace(),)}, (None,) * len(counts),
                               printed_form=False, epsilon_scale=1e-10)
        starts = np.cumsum(counts) - counts
        want = [max(regularization_epsilon(a[p], b[p], 1e-10) for p in range(start, start + m))
                for start, m in zip(starts, counts)]
        assert np.concatenate([block.epsilon for block in blocks]).tolist() == want


class TestNonFinite:
    def test_overflowing_instance_does_not_abort_campaign(self):
        # At kappa = 1e12 and r = 60 the middle and right terms overflow
        # to non-finite matrices; the campaign goes on and those reports
        # are indeterminate, never held.
        cfg = CampaignConfig.from_obj({
            "inequality-id": "main_theorem", "trials": 1, "dims": [4], "m-values": [1],
            "t-grid": [0.5], "r-grid": [1.0, 60.0], "norm-specs": ["schatten:2", "trace"],
            "ensemble": {"condition-target": 1e12}})
        with np.errstate(over="ignore", invalid="ignore"):
            summary, reports = run_campaign(cfg)
        assert summary.total == len(reports) == 4
        at_60 = [r for r in reports if r.params["r"] == 60.0]
        assert len(at_60) == 2
        assert all(not r.holds and not finite(r) for r in at_60)
        assert all(r.holds for r in reports if r.params["r"] == 1.0)
        assert (summary.held, summary.violated, summary.indeterminate) == (2, 0, 2)

    def test_lemma_power_underflow_does_not_abort_campaign(self):
        # At kappa = 1e12 and r = 60 the least eigenvalue of A^r underflows
        # to 0, and A^r #_t B^r needs its inverse square root: the check
        # raises, and the campaign reports the instance as indeterminate at
        # every point.
        cfg = CampaignConfig.from_obj({
            "inequality-id": "lemma_chain", "trials": 2, "dims": [4], "t-grid": [0.5],
            "r-grid": [1.0, 60.0], "s-grid": [1.0], "norm-specs": ["trace"],
            "ensemble": {"condition-target": 1e12}})
        with np.errstate(over="ignore", invalid="ignore"):
            summary, reports = run_campaign(cfg)
        assert (summary.held, summary.violated, summary.indeterminate) == (0, 0, 4)
        a_list, b_list = _build_inputs(cfg, 4, 1, instance_seed(cfg, 0, {"n": 4}))
        assert check_lemma_chain(a_list[0], b_list[0], 0.5, 1.0, 1.0, NormSpec.trace()).holds
        with pytest.raises(SingularFunctionError), np.errstate(over="ignore"):
            check_lemma_chain(a_list[0], b_list[0], 0.5, 60.0, 1.0, NormSpec.trace())

    def test_schatten_norm_of_a_huge_finite_term_is_finite(self):
        # For n = 1 Schatten-2 is the trace norm.  At one instance f(sum A_i)
        # is about 5e174: finite, though its square is not, so both norms
        # must give the same verdicts.
        cfg = CampaignConfig.from_obj({
            "inequality-id": "bourin_uchiyama", "trials": 20, "dims": [1], "m-values": [1, 2],
            "functions": ["expm1"], "direction": "convex", "norm-specs": ["schatten:2", "trace"],
            "root-seed": 0, "ensemble": {"condition-target": 1e7}})
        with np.errstate(over="ignore", invalid="ignore"):
            _, reports = run_campaign(cfg)
        verdicts = {spec: [(r.holds, finite(r)) for r in reports
                           if r.params["norm-spec"] == spec] for spec in ("schatten:2", "trace")}
        assert verdicts["schatten:2"] == verdicts["trace"]
        assert sum(holds for holds, _ in verdicts["trace"]) == 39

    def test_infinite_term_among_finite_ones_is_indeterminate(self):
        # f(sum A_i) = expm1(709) I_3 has finite entries and singular values,
        # but its trace overflows: the report's other term and its fan
        # margins stay finite, while Schatten-2 and the tame instance hold.
        a = np.stack([np.diag([354.5] * 3)] * 2)
        grid = {"f": ("expm1",), "norm": (NormSpec.trace(), NormSpec.schatten(2))}
        with np.errstate(over="ignore", invalid="ignore"):
            block, = stack_reports(BOURIN_UCHIYAMA, np.concatenate([a, a / 354.5]), None,
                                   (2, 2), grid, (1, 2), direction="convex")
        stream = ReportStream([[block]], 2, 2)
        reports = list(stream)
        bad = reports[0]
        assert bad.terms[1][1] == math.inf and math.isfinite(bad.terms[0][1])
        assert all(math.isfinite(x) for x in bad.fan_margins)
        assert not finite(bad) and bad.holds is False
        assert all(finite(r) and r.holds for r in reports[1:])
        for summary in (summarize(stream), summarize(reports)):
            assert (summary.held, summary.violated, summary.indeterminate) == (3, 0, 1)
            assert summary_obj(summary) == reference_summary(reports)
        with np.errstate(over="ignore", invalid="ignore"):
            check = check_bourin_uchiyama(list(a), "expm1", "convex", NormSpec.trace(), seed=1)
        check.params["trial"] = 0
        assert check == bad

    def test_summary_separates_indeterminate_reports(self):
        # At kappa = 1e12 and r = 60 the middle and right terms overflow to
        # non-finite matrices, so the margins are NaN.
        a = pd_for(0, n=4, kappa=1e12)
        b = pd_for(100, n=4, kappa=1e12)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = check_main_theorem([a], [b], 0.5, 60.0, NormSpec.schatten(2))
        good = check_main_theorem([a], [b], 0.5, 1.0, NormSpec.schatten(2))
        assert math.isnan(least_margin(bad))
        for stream in ([bad, good], [good, bad]):
            summary = summarize(stream)
            assert (summary.total, summary.held, summary.violated,
                    summary.indeterminate) == (2, 1, 0, 1)
            assert summary.min_margin == least_margin(good)
            assert summary.min_margin_params["r"] == 1.0
            assert summary_obj(summary) == reference_summary(stream)
        alone = summarize([bad])
        assert (alone.violated, alone.indeterminate) == (0, 1)
        assert alone.min_margin == math.inf and alone.min_margin_params == {}
        assert alone.to_obj()["indeterminate"] == 1
        assert summary_obj(alone) == reference_summary([bad])

    def test_outside_report_that_says_it_holds_is_indeterminate_when_not_finite(self,
                                                                                  tmp_path):
        # load_reports reads files from outside the program: a file can say
        # "holds": true next to a NaN term, margin or fan margin.
        good, nan_term, nan_margin, nan_fan = (synthetic_report(i) for i in range(4))
        nan_term.terms[1] = ("right", math.nan)
        nan_margin.margins = [math.nan]
        nan_fan.fan_margins = [math.nan]
        path = tmp_path / "reports.json"
        # Written as the reports say: render_reports would write the verdict.
        path.write_text("".join(r.to_json() + "\n" for r in (good, nan_term, nan_margin, nan_fan)))
        loaded = load_reports(path)
        assert all(r.holds for r in loaded)
        for reports, verdicts in ((loaded, (1, 0, 3)), ([nan_term], (0, 0, 1)),
                                  ([nan_margin], (0, 0, 1)), ([nan_fan], (0, 0, 1))):
            summary = summarize(reports)
            assert (summary.held, summary.violated, summary.indeterminate) == verdicts
            assert summary.held + summary.violated + summary.indeterminate == summary.total
            assert summary_obj(summary) == reference_summary(reports)

    def test_outside_report_that_says_a_violation_holds_is_violated(self, tmp_path):
        # A file can say "holds": true next to finite numbers that violate
        # the chain; the verdict comes from the numbers.
        report = InequalityReport(
            inequality_id="LemmaChain", params=synthetic_report(0).params,
            terms=[("left", 3.0), ("right", 1.0)], margins=[-2.0], holds=True,
            fan_margins=[-2.0])
        path = tmp_path / "reports.json"
        path.write_text(report.to_json() + "\n")
        loaded = load_reports(path)
        assert loaded[0].holds
        summary = summarize(loaded)
        assert (summary.held, summary.violated, summary.indeterminate) == (0, 1, 0)
        assert summary.min_margin == -2.0
        assert summary_obj(summary) == reference_summary(loaded)
        assert render_reports(loaded, "json") == report.to_json().replace(
            '"holds": true', '"holds": false') + "\n"

    def test_summary_of_no_reports(self):
        summary = summarize([])
        assert (summary.total, summary.held, summary.violated, summary.indeterminate) == (0,) * 4
        assert summary.min_margin == math.inf and summary.min_margin_params == {}
        assert '"min-margin": Infinity, "min-margin-params": {}' in summary.to_json()


# 20 trials of every chain below: the ties the paper's chains make on purpose.
TIE_BASE = {"trials": 20, "dims": [2, 4], "m-values": [1, 2], "t-grid": [0.25, 0.5],
            "r-grid": [1.0, 2.0], "norm-specs": ["schatten:2"]}


class TestTies:
    def test_proof_step_two_is_a_tie_at_m_one(self):
        # At m = 1 step 2 of the proof is an identity, so its margin is
        # exactly 0 and no held report is a clear hold.
        _, stream = run_campaign(CampaignConfig.from_obj(
            dict(TIE_BASE, **{"inequality-id": "proof_steps"})))
        at_one = [r for r in stream if r.params["m"] == 1]
        assert len(at_one) == 160 and all(r.margins[1] == 0.0 for r in at_one)
        summary = summarize(at_one)
        assert summary.ties == summary.held > 0
        assert summary_obj(summary) == reference_summary(at_one)

    def test_commuting_lemma_chain_ties_throughout(self):
        # On commuting pairs every lemma term is A^((1-t)r) B^(tr).
        summary, stream = run_campaign(CampaignConfig.from_obj(dict(
            TIE_BASE, **{"inequality-id": "lemma_chain", "r-grid": [0.5, 1.0],
                         "ensemble": {"kind": "commuting"}})))
        assert summary.ties == summary.held == summary.total == 480
        assert summary_obj(summary) == reference_summary(list(stream))

    def test_variant_on_pd_inputs_holds_clear(self):
        summary, stream = run_campaign(CampaignConfig.from_obj(
            dict(TIE_BASE, **{"inequality-id": "main_theorem", "printed-form": False})))
        assert (summary.total, summary.held, summary.ties) == (320, 320, 0)
        assert summary_obj(summary) == reference_summary(list(stream))

    def test_loaded_report_within_the_band_is_a_tie(self, tmp_path):
        # The band of terms (2, 2 - 1e-9) is 2e-9: the margin -1e-9 holds, as
        # a tie, and the other report's margin 1 clears it.
        tie, clear = synthetic_report(0), synthetic_report(1)
        tie.terms, tie.margins = [("left", 2.0), ("right", 2.0 - 1e-9)], [-1e-9]
        path = tmp_path / "reports.json"
        emit_report([tie, clear], "json", path)
        loaded = load_reports(path)
        assert [r.holds for r in loaded] == [True, True]
        summary = summarize(loaded)
        assert (summary.held, summary.ties, summary.violated) == (2, 1, 0)
        assert summary_obj(summary) == reference_summary(loaded)

    def test_loaded_negative_terms_take_the_band_of_the_largest_absolute_term(self, tmp_path):
        # A chain's terms are norms, but a loaded file can hold terms
        # (-2, -2): the margin 0 lies within the band of |-2|, a tie, where
        # the band of the signed largest term, -2e-9, made it a violation.
        report = synthetic_report(0)
        report.terms = [("left", -2.0), ("right", -2.0)]
        report.margins, report.fan_margins = [0.0], [0.0]
        path = tmp_path / "reports.json"
        path.write_text(report.to_json() + "\n")
        loaded = load_reports(path)
        summary = summarize(loaded)
        assert (summary.held, summary.ties, summary.violated) == (1, 1, 0)
        assert summary_obj(summary) == reference_summary(loaded)
        assert '"holds": true' in render_reports(loaded, "json")


FAILING_SLICE_ERRORS = {"BourinUchiyama": SingularFunctionError}


class TestFailingSlice:
    @pytest.mark.parametrize("obj", [
        {"inequality-id": "main_theorem", "ensemble": {"condition-target": 1e17}},
        {"inequality-id": "main_theorem", "ensemble": {"condition-target": 1e20}},
        {"inequality-id": "proof_steps", "ensemble": {"condition-target": 1e17}},
        {"inequality-id": "lemma_chain", "ensemble": {"condition-target": 1e17}},
        # Masked slices inside stacks over several t.
        {"inequality-id": "main_theorem", "t-grid": [0.25, 0.5, 0.75],
         "ensemble": {"condition-target": 1e20}},
        {"inequality-id": "lemma_chain", "t-grid": [0.25, 0.5, 0.75],
         "ensemble": {"condition-target": 1e17}},
        # expm1 overflows at one instance's eigenvalues.
        {"inequality-id": "bourin_uchiyama", "functions": ["expm1", "power:2"],
         "direction": "convex", "trials": 20, "dims": [1], "norm-specs": ["trace"],
         "root-seed": 0, "ensemble": {"condition-target": 1e7}},
    ])
    def test_failing_slice_does_not_stop_the_batch(self, obj):
        # Near kappa = 1e20 a drawn matrix's least eigenvalue rounds to a
        # negative number.  Its instance gets NaN terms while the rest of
        # its stack is evaluated as the predicates evaluate it alone.
        cfg = CampaignConfig.from_obj(dict({
            "trials": 3, "dims": [2, 4], "m-values": [1, 2], "t-grid": [0.5],
            "r-grid": [1.0, 2.0], "s-grid": [1.0], "norm-specs": ["schatten:2"]}, **obj))
        error = FAILING_SLICE_ERRORS.get(cfg.inequality_id, NotPositiveDefiniteError)
        summary, reports = run_campaign(cfg)
        assert summary.total == len(reports) == cfg.trials * cfg.grid_size()
        assert summary.indeterminate >= 1
        assert summary.held + summary.violated + summary.indeterminate == summary.total
        points = [(trial, point) for trial in range(cfg.trials) for point in cfg.grid_points()]
        for report, (trial, point) in zip(reports, points):
            seed = instance_seed(cfg, trial, point)
            a_list, b_list = _build_inputs(cfg, point["n"], point.get("m", 1), seed)
            if finite(report):
                expected = check_one_point(cfg, point, a_list, b_list, seed)
                expected.params["trial"] = trial
                assert report == expected
            else:
                assert report.params["seed"] == seed and not report.holds
                assert all(math.isnan(value) for _, value in report.terms)
                # An f that fails masks the instance at every f.
                points = [dict(point, f=f) for f in cfg.functions] if "f" in point else [point]
                with pytest.raises(error):
                    for failing in points:
                        check_one_point(cfg, failing, a_list, b_list, seed)

    def test_cli_exits_two_on_indeterminate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "inequality-id": "main_theorem", "trials": 3, "dims": [4], "m-values": [1],
            "t-grid": [0.5], "r-grid": [1.0], "norm-specs": ["schatten:2"],
            "ensemble": {"condition-target": 1e20}}))
        code = cli_main(["campaign", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        summary = json.loads(capsys.readouterr().out)
        assert code == 2
        assert summary["indeterminate"] >= 1


# kyfan:1 and operator both read sigma_1: every report is tied with the next one.
STREAM_BASE = {"trials": 3, "dims": [2, 3], "m-values": [1, 2], "t-grid": [0.25, 0.5],
               "r-grid": [1.0, 2.0], "norm-specs": ["kyfan:1", "operator"], "root-seed": 67}
# Failing slices mask their instances: NaN terms in both formats.
MASKED_FAILING_SLICE = {"inequality-id": "main_theorem", "ensemble": {"condition-target": 1e17}}


def special_float_stream():
    """A hand-built stream of 2 trials x 2 points x 2 norms whose cells hold
    every float a renderer must spell: NaN, +-inf, -0.0, 1e-300 and 5e+300,
    at t = 0.0 and 1.0, with seeds from 2^63 up and one epsilon each."""
    params = [_params(m=1, n=2, t=t, r=1.0, **{"printed-form": True}) for t in (0.0, 1.0)]
    cells = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e300, 0.1, 2.0])
    values = np.resize(cells, (2, 2, 3, 2))
    margins = np.resize(np.roll(cells, 3), (2, 2, 2, 2))
    fans = np.resize(np.roll(cells, 5), (2, 2, 2))
    finite = np.isfinite(values).all(axis=2) & np.isfinite(margins).all(axis=2)
    verdict = np.where(~finite, inequalities.INDETERMINATE,
                       np.where(margins.min(axis=2) >= 0.0, inequalities.CLEAR,
                                inequalities.VIOLATED))
    block = _ReportBlock(MAIN_THEOREM, params, ["left", "middle", "right"],
                         (NormSpec.trace(), NormSpec.schatten(2)), (2**63, 2**64 - 1), values,
                         margins, fans, verdict, np.array([1e-300, 0.25]))
    return ReportStream([[block]], 2, 4)


# Every chain id, more trials than one chunk, and the masked failing slice.
STREAM_CONFIGS = {
    "main_theorem": {"inequality-id": "main_theorem", "trials": CHUNK_TRIALS + 2},
    "main_variant_psd": {"inequality-id": "main_theorem", "printed-form": False,
                         "ensemble": {"kind": "psd"}},
    "proof_steps": {"inequality-id": "proof_steps"},
    "lemma_chain": {"inequality-id": "lemma_chain", "s-grid": [0.5, 1.0]},
    "audenaert": {"inequality-id": "audenaert"},
    "bourin_uchiyama": {"inequality-id": "bourin_uchiyama", "functions": ["power:2", "expm1"],
                        "direction": "convex"},
    "masked_failing_slice": MASKED_FAILING_SLICE,
}


def reference_csv(reports):
    """``reports`` as CSV, each report's cells in ``CSV_COLUMNS`` order
    through one ``csv.writer`` row: params by name, booleans in lower case,
    missing terms and margins empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        cells = dict(report.params, **{"inequality-id": report.inequality_id,
                                       "regularization-epsilon": report.regularization_epsilon,
                                       "holds": report.holds})
        cells.update((f"term-{i}", value) for i, (_, value) in enumerate(report.terms, 1))
        cells.update((f"margin-{i}", value) for i, value in enumerate(report.margins, 1))
        writer.writerow([str(cell).lower() if isinstance(cell, bool) else cell
                         for cell in map(cells.get, CSV_COLUMNS)])
    return buf.getvalue()


class TestReportStream:
    @pytest.mark.parametrize("obj", list(STREAM_CONFIGS.values()), ids=list(STREAM_CONFIGS))
    def test_arrays_agree_with_the_reports_they_hold(self, obj):
        # The summary must keep the first report of a tie.
        cfg = CampaignConfig.from_obj(dict(STREAM_BASE, **obj))
        summary, stream = run_campaign(cfg)
        reports = list(stream)
        assert len(stream) == len(reports) == cfg.trials * cfg.grid_size()
        for output_format in ("json", "csv"):
            assert render_reports(stream, output_format) == render_reports(reports, output_format)
        assert summary_obj(summary) == reference_summary(reports)
        tied = [r for r in reports if finite(r) and least_margin(r) == summary.min_margin]
        assert len(tied) >= 2 and tied[1].params["norm-spec"] == "operator"
        assert summary.min_margin_params == dict(tied[0].params,
                                                 **{"inequality-id": cfg.inequality_id})
        assert [stream[i].to_json() for i in range(len(stream))] == [r.to_json() for r in reports]
        assert stream[-1].to_json() == reports[-1].to_json()
        with pytest.raises(IndexError):
            stream[len(stream)]
        if cfg.ensemble["condition-target"] > 1e12:
            assert summary.held and summary.indeterminate
            assert "NaN" in render_reports(stream, "json")
            assert ",nan," in render_reports(stream, "csv")

    @pytest.mark.parametrize("obj", [*STREAM_CONFIGS.values(), None],
                             ids=[*STREAM_CONFIGS, "special_floats"])
    def test_rendering_matches_a_report_by_report_reference(self, obj):
        # The reference writes each report on its own, not through the block
        # renderer: JSON by to_json, CSV by one csv.writer row per report.
        stream = special_float_stream() if obj is None else run_campaign(
            CampaignConfig.from_obj(dict(STREAM_BASE, **obj)))[1]
        reports = list(stream)
        expected = {"json": "".join(r.to_json() + "\n" for r in reports),
                    "csv": reference_csv(reports)}
        for output_format, text in expected.items():
            for rendered in render_reports(stream, output_format), render_reports(
                    reports, output_format):
                # Line by line: a failure names its first line, where a diff
                # of the whole text would take minutes.
                for number, pair in enumerate(itertools.zip_longest(
                        rendered.splitlines(True), text.splitlines(True)), 1):
                    assert (number, pair[0]) == (number, pair[1])

    def test_special_floats_render_as_json_and_csv_write_them(self):
        stream = special_float_stream()
        reports = list(stream)
        text = {fmt: render_reports(stream, fmt) for fmt in ("json", "csv")}
        for output_format, rendered in text.items():
            assert rendered == render_reports(reports, output_format)
        assert text["json"].splitlines() == [json.dumps(r.to_obj()) for r in reports]
        assert {"NaN", "Infinity", "-Infinity", "-0.0", "1e-300", "5e+300"} <= set(
            re.findall(r"[-\w.+]+", text["json"]))
        rows = list(csv.DictReader(io.StringIO(text["csv"])))
        assert [int(row["seed"]) for row in rows[::4]] == [2**63, 2**64 - 1]
        for row, report in zip(rows, reports, strict=True):
            assert (row["t"], row["trial"], row["holds"]) == (
                str(report.params["t"]), str(report.params["trial"]), str(report.holds).lower())
            written = [row[f"term-{i}"] for i in (1, 2, 3)] + [row["margin-1"], row["margin-2"],
                                                               row["regularization-epsilon"]]
            expected = [v for _, v in report.terms] + report.margins + [
                report.regularization_epsilon]
            assert written == [str(x) for x in expected]
            assert row["term-4"] == row["margin-3"] == ""

    def test_loaded_reports_render_to_the_bytes_they_were_read_from(self, tmp_path):
        _, stream = run_campaign(CampaignConfig.from_obj(dict(STREAM_BASE,
                                                              **MASKED_FAILING_SLICE)))
        path = tmp_path / "reports.json"
        emit_report(stream, "json", path)
        loaded = load_reports(path)
        assert any(not finite(r) for r in loaded)
        assert render_reports(loaded, "json") == path.read_text()
        assert render_reports(loaded, "csv") == render_reports(stream, "csv")

    def test_summary_builds_only_the_report_of_least_margin(self, monkeypatch):
        # 270 reports in one trial, over six blocks; the least margin is
        # neither in the first block nor at its first row.
        cfg = CampaignConfig.from_obj({
            "inequality-id": "main_theorem", "trials": 1, "dims": [2, 4, 6], "m-values": [2, 3],
            "t-grid": [0.25, 0.5, 0.75], "r-grid": [1, 2, 3], "printed-form": False,
            "norm-specs": ["schatten:1", "schatten:2", "schatten:inf", "kyfan:1", "kyfan:2"],
            "ensemble": {"kind": "psd"}, "root-seed": 1})
        _, stream = run_campaign(cfg)
        built, report = [], inequalities.InequalityReport

        def counted(*args):
            built.append(report(*args))
            return built[-1]
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "InequalityReport", counted)
            summary = summarize(stream)
        reports = list(stream)
        worst = [k for k, r in enumerate(reports) if finite(r)
                 and least_margin(r) == summary.min_margin][0]
        assert worst >= 45 and len(built) == 1 and built[0] == reports[worst]
        assert summary.min_margin_params == dict(reports[worst].params,
                                                 **{"inequality-id": cfg.inequality_id})

    def test_slices_are_lists_of_reports(self):
        _, stream = run_campaign(small_config())
        reports = [r.to_json() for r in stream]
        for index in (slice(0, 1), slice(None, None, -1), slice(3, 27, 5), slice(-9, None),
                      slice(4, 2), slice(len(reports), None)):
            got = stream[index]
            assert isinstance(got, list)
            assert [r.to_json() for r in got] == reports[index]


class TestLemmaSeeds:
    def test_stream_ignores_m_values(self):
        # The lemma chain has no m axis, so m-values must not reach its seeds.
        obj = {"inequality-id": "lemma_chain", "trials": 2, "dims": [2, 3], "t-grid": [0.5],
               "r-grid": [1.0], "s-grid": [1.0], "norm-specs": ["trace"], "root-seed": 53}
        streams = [render_reports(run_campaign(CampaignConfig.from_obj(
            dict(obj, **{"m-values": m_values})))[1], "json")
            for m_values in ([1, 2], [2, 1], [3])]
        assert streams[0] == streams[1] == streams[2]


class TestConcurrency:
    def test_checks_are_pure_under_threads(self):
        # Pure functions on immutable values: concurrent evaluation of the
        # same instance must reproduce the sequential report bit for bit.
        from concurrent.futures import ThreadPoolExecutor

        cfg = small_config()
        point = next(iter(cfg.grid_points()))
        from matsharp.campaign import _build_inputs, run_check
        a_list, b_list = _build_inputs(cfg, point["n"], point["m"], 77)
        baseline = run_check(cfg, point, a_list, b_list, seed=77)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_check, cfg, point, a_list, b_list, seed=77)
                       for _ in range(8)]
            results = [f.result() for f in futures]
        assert all(r == baseline for r in results)


class TestEmitReport:
    def test_empty_stream_csv_has_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report([], "csv", path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_json_line_round_trip(self, tmp_path):
        path = tmp_path / "one.json"
        report = synthetic_report(0)
        emit_report([report], "json", path)
        assert load_reports(path) == [report]

    def test_thousand_report_csv_row_count(self, tmp_path):
        path = tmp_path / "big.csv"
        emit_report([synthetic_report(i) for i in range(1000)], "csv", path)
        assert len(path.read_text().splitlines()) == 1001

    def test_unwritable_path_has_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_report([], "csv", tmp_path / "no" / "such" / "dir" / "x.csv")

    def test_unknown_format_is_refused(self):
        with pytest.raises(ConfigError, match="output-format"):
            render_reports([synthetic_report(0)], "parquet")


class TestRecords:
    def test_fields_in_order_under_hyphenated_keys(self):
        cfg = small_config(trials=1, dims=[2], ensemble={"kind": "psd", "rank": 1},
                           **{"m-values": [1], "r-grid": [1.0]})
        summary, reports = run_campaign(cfg)
        search = search_counterexample(cfg, 2)
        assert list(cfg.to_obj()) == [
            "inequality-id", "trials", "dims", "m-values", "t-grid", "r-grid", "s-grid",
            "norm-specs", "ensemble", "root-seed", "printed-form", "output-path",
            "output-format", "functions", "direction"]
        assert list(reports[0].to_obj()) == [
            "inequality-id", "params", "terms", "margins", "holds", "regularization-epsilon",
            "fan-margins"]
        assert list(summary.to_obj()) == [
            "total", "held", "ties", "violated", "indeterminate", "min-margin",
            "min-margin-params", "wall-time"]
        assert list(search.to_obj()) == [
            "inequality-id", "params", "steps", "evaluations", "restarts", "best-margin",
            "violation-found", "best-instance", "best-report", "wall-time"]
        assert json.loads(cfg.to_json())["norm-specs"] == ["schatten:2"]
        # Each reads back from its JSON.
        assert CampaignConfig.from_json(cfg.to_json()) == cfg
        assert CampaignSummary.from_json(summary.to_json()) == summary
        # best-report holds the report's to_obj, whose terms are tuples.
        assert SearchReport.from_json(search.to_json()).to_json() == search.to_json()

    def test_record_without_a_required_key_is_refused_by_name(self, tmp_path):
        # A summary written before "ties" existed raised a TypeError from
        # the dataclass; a key whose field has a default may be missing.
        summary, reports = run_campaign(small_config(trials=1, dims=[2], **{"m-values": [1]}))
        obj = summary.to_obj()
        del obj["ties"]
        with pytest.raises(ValueError, match=re.escape("CampaignSummary record is missing "
                                                       "keys ['ties']")):
            CampaignSummary.from_obj(obj)
        report = reports[0].to_obj()
        for key in ("terms", "margins"):
            del report[key]
        path = tmp_path / "reports.json"
        path.write_text(json.dumps(report) + "\n")
        with pytest.raises(ValueError, match=re.escape("InequalityReport record is missing "
                                                       "keys ['terms', 'margins']")):
            load_reports(path)
        del report["fan-margins"]
        report.update(terms=[["left", 1.0], ["right", 2.0]], margins=[1.0])
        assert InequalityReport.from_obj(report).fan_margins is None


# The search targets of tools/stream_digests.py.
SEARCH_BASE = {"inequality-id": "main_theorem", "dims": [3], "m-values": [2], "t-grid": [0.1],
               "r-grid": [1.0], "s-grid": [1.0], "norm-specs": ["schatten:2"], "root-seed": 7}
SEARCH_TARGETS = {
    "main-t0.1": {},
    "main-psd-variant": {"printed-form": False, "t-grid": [0.3], "ensemble": {"kind": "psd"}},
    "proof": {"inequality-id": "proof_steps", "t-grid": [0.25], "r-grid": [2.0]},
    "lemma": {"inequality-id": "lemma_chain", "t-grid": [0.5], "r-grid": [2.0],
              "s-grid": [2.0]},
    "bu": {"inequality-id": "bourin_uchiyama", "functions": ["power:3"], "direction": "convex"},
}


class TestSearch:
    def test_scalar_target_stays_at_equality(self):
        # 1x1 inputs make every chain term identical: the descent must
        # keep the margin at zero and report no violation.
        cfg = CampaignConfig.from_obj({
            "inequality-id": "lemma_chain", "dims": [1], "t-grid": [0.5],
            "r-grid": [2.0], "s-grid": [1.0], "norm-specs": ["trace"],
            "root-seed": 3})
        report = search_counterexample(cfg, 120)
        assert not report.violation_found
        assert abs(report.best_margin) <= 1e-9

    def test_finds_printed_form_violation_off_half(self):
        cfg = CampaignConfig.from_obj({
            "inequality-id": "main_theorem", "dims": [3], "m-values": [2],
            "t-grid": [0.1], "r-grid": [1.0], "norm-specs": ["schatten:2"],
            "root-seed": 7})
        report = search_counterexample(cfg, 200)
        assert report.violation_found
        assert report.best_margin < 0

    def test_theorem_region_stays_clean(self):
        # Printed form at t = 1/2 is proven; descent must not manufacture
        # a violation there.
        cfg = CampaignConfig.from_obj({
            "inequality-id": "main_theorem", "dims": [2], "m-values": [2],
            "t-grid": [0.5], "r-grid": [2.0], "norm-specs": ["schatten:2"],
            "root-seed": 23})
        report = search_counterexample(cfg, 400)
        assert not report.violation_found

    def test_soundness_reproduces_margin(self):
        cfg = CampaignConfig.from_obj({
            "inequality-id": "main_theorem", "dims": [2], "m-values": [1],
            "t-grid": [0.25], "r-grid": [2.0], "norm-specs": ["schatten:2"],
            "root-seed": 19})
        report = search_counterexample(cfg, 150)
        margin, _ = reevaluate_search_instance(cfg, report)
        assert abs(margin - report.best_margin) <= 1e-12

    def test_json_serializable(self):
        cfg = CampaignConfig.from_obj({
            "inequality-id": "lemma_chain", "dims": [2], "t-grid": [0.5],
            "r-grid": [1.0], "s-grid": [1.0], "norm-specs": ["trace"],
            "root-seed": 5})
        report = search_counterexample(cfg, 30)
        parsed = json.loads(report.to_json())
        assert parsed["steps"] == 30
        assert "best-instance" in parsed and "a-list" in parsed["best-instance"]

    def test_rejects_multi_point_target(self):
        with pytest.raises(ConfigError):
            search_counterexample(small_config(), 10)

    @pytest.mark.parametrize("overrides,steps,text", [
        ({"norm-specs": ["schatten:2", "trace"]}, 10, "one norm spec"),
        ({}, 0, "steps"),
        ({}, -3, "steps"),
    ])
    def test_refuses_a_target_or_budget_it_cannot_search(self, overrides, steps, text):
        with pytest.raises(ConfigError, match=text):
            search_counterexample(CampaignConfig.from_obj(dict(SEARCH_BASE, **overrides)), steps)

    def test_report_read_back_from_its_file_reproduces_the_margin(self, tmp_path, capsys):
        # reevaluate_search_instance takes the JSON object of a written
        # report as well as a SearchReport.
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "search.json"
        cfg_path.write_text(json.dumps(SEARCH_BASE))
        cli_main(["search", "--config", str(cfg_path), "--steps", "40", "--out", str(out_path)])
        capsys.readouterr()
        obj = json.loads(out_path.read_text())
        margin, report = reevaluate_search_instance(CampaignConfig.from_obj(SEARCH_BASE), obj)
        assert margin == obj["best-margin"]
        assert report == InequalityReport.from_obj(obj["best-report"])

    def test_refuses_audenaert_before_any_draw(self, monkeypatch):
        # A step moves A_i and B_i apart, so the pairs stop commuting.
        def no_draw(*args):
            raise AssertionError("the search drew an instance")
        monkeypatch.setattr(campaign, "_build_inputs", no_draw)
        cfg = CampaignConfig.from_obj(dict(SEARCH_BASE, **{"inequality-id": "audenaert"}))
        with pytest.raises(ConfigError, match="inequality-id"):
            search_counterexample(cfg, 10)

    @pytest.mark.parametrize("steps", [5, 100])
    def test_evaluations_count_the_instances_evaluated(self, steps, monkeypatch):
        evaluated = []

        def counted(inequality_id, a, b, counts, *args, **kwargs):
            evaluated.append(len(counts))
            return stack_reports(inequality_id, a, b, counts, *args, **kwargs)
        monkeypatch.setattr(campaign, "stack_reports", counted)
        report = search_counterexample(CampaignConfig.from_obj(SEARCH_BASE), steps)
        assert report.evaluations == sum(evaluated)
        assert max(evaluated) == min(steps, campaign.SEARCH_CHAINS)

    @pytest.mark.parametrize("name", sorted(SEARCH_TARGETS))
    def test_carried_rounds_match_uncarried_evaluation(self, name, monkeypatch):
        # A chain restarts after two stalls, so restarted chains, whose
        # every matrix is new, are frequent; each carried stack is
        # evaluated again without the carry, and every array must agree.
        carried = []

        def checked(*args, carry=None, **kwargs):
            blocks = stack_reports(*args, carry=carry, **kwargs)
            if carry is not None:
                carried.append(carry)
                for got, want in zip(blocks, stack_reports(*args, **kwargs), strict=True):
                    assert (got.epsilon is None) == (want.epsilon is None)
                    for array in ("values", "margins", "fan_margins", "verdict", "epsilon"):
                        if getattr(want, array) is not None:
                            assert np.array_equal(getattr(got, array), getattr(want, array),
                                                  equal_nan=True), array
            return blocks
        monkeypatch.setattr(campaign, "SEARCH_STALL_LIMIT", 2)
        monkeypatch.setattr(campaign, "stack_reports", checked)
        cfg = CampaignConfig.from_obj(dict(SEARCH_BASE, **SEARCH_TARGETS[name]))
        report = search_counterexample(cfg, 300)
        assert report.restarts > 0
        assert len(carried) == report.evaluations // campaign.SEARCH_CHAINS

    @pytest.mark.parametrize("name", sorted(SEARCH_TARGETS))
    def test_carried_round_decomposes_only_what_moved(self, name, monkeypatch):
        # A chain restarts after two stalls.  Each chain's state is kept
        # here from the chains the search commits.  In each carried round,
        # one decomposition gets, side by side, exactly the matrices that
        # differ from that state followed by exactly the sums (instance)
        # that hold one: the other side's sum of a moved chain is carried,
        # and a restarted chain, all new, gets both.  No other decomposition
        # gets an input matrix or a sum.  The lemma chain has no sums.
        rounds, state = [], []
        eigh, commit = inequalities._eigh, inequalities._Carry.commit

        def recorded_eigh(x):
            rounds[-1][-1].append(np.array(x).reshape(-1, *x.shape[-2:]))
            return eigh(x)

        def recorded(inequality_id, a, b, counts, *args, **kwargs):
            ab = np.stack([a, b][:1 if inequality_id == BOURIN_UCHIYAMA else 2])
            bits = ab.view(np.uint64)
            moved = (bits != state[0].view(np.uint64)).any(axis=(-2, -1)) if state else None
            rounds.append((ab, moved, []))
            return stack_reports(inequality_id, a, b, counts, *args, **kwargs)

        def recorded_commit(carry, instances):
            ab = rounds[-1][0]
            pairs = np.repeat(instances, len(ab[0]) // len(instances))
            state[:] = [np.where(pairs[:, None, None], ab, state[0]) if state else ab.copy()]
            commit(carry, instances)
        monkeypatch.setattr(campaign, "SEARCH_STALL_LIMIT", 2)
        monkeypatch.setattr(campaign, "stack_reports", recorded)
        monkeypatch.setattr(inequalities, "_eigh", recorded_eigh)
        monkeypatch.setattr(inequalities._Carry, "commit", recorded_commit)
        cfg = CampaignConfig.from_obj(dict(SEARCH_BASE, **SEARCH_TARGETS[name]))
        report = search_counterexample(cfg, 300)
        assert report.restarts > 0
        m = report.params["m"] or 1
        fresh_sums = []
        for ab, moved, calls in rounds[1:]:
            n = ab.shape[-1]
            sums = sum(ab.reshape(len(ab), -1, m, n, n)[:, :, k] for k in range(m))
            fresh_sums.append(moved.reshape(len(ab), -1, m).any(axis=2))
            wanted = np.concatenate([
                x for side in range(len(ab))
                for x in [ab[side][moved[side]]]
                + ([] if name == "lemma" else [sums[side][fresh_sums[-1][side]]])])
            merged = [np.array_equal(call, wanted) for call in calls]
            assert sum(merged) == 1
            known = {x.tobytes() for x in np.concatenate([ab, sums], axis=1).reshape(-1, n, n)}
            assert not any(x.tobytes() in known for call, is_merged in zip(calls, merged)
                           if not is_merged for x in call)
        # Rounds with a chain that moved one side only and with a restart.
        fresh = np.array(fresh_sums).sum(axis=1)
        assert (fresh == 1).any() and (fresh == len(ab)).any()

    def test_calls_per_round_and_per_stack(self, monkeypatch):
        # numpy.linalg calls of a carried round of the printed main chain
        # (its _perturb included) and of one campaign stack of each chain
        # (its draw included): one eigh takes the pairs with their sums, and
        # one the PSD terms of a chain.  Audenaert reads no sum spectra.
        calls = []
        for routine in ("eigh", "svd"):
            def counted(*args, _routine=routine, _call=getattr(np.linalg, routine), **kwargs):
                calls.append(_routine)
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.linalg, routine, counted)

        def tally():
            counts = (calls.count("eigh"), calls.count("svd"))
            calls.clear()
            return counts
        rounds, evaluate = [], campaign.stack_reports

        def counted_round(*args, **kwargs):
            rounds.append(tally())
            return evaluate(*args, **kwargs)
        monkeypatch.setattr(campaign, "stack_reports", counted_round)
        cfg = CampaignConfig.from_obj(dict(SEARCH_BASE, **SEARCH_TARGETS["main-t0.1"]))
        search_counterexample(cfg, 16 * 8)   # no restart in 8 rounds
        # Entry k counts round k - 1's kernel and round k's _perturb.
        assert rounds[2:] == [(4, 2)] * 7
        monkeypatch.setattr(campaign, "stack_reports", evaluate)
        for obj, expected in [({}, (4, 2)),
                              ({"printed-form": False, "ensemble": {"kind": "psd"}}, (4, 2)),
                              ({"inequality-id": "proof_steps"}, (4, 3)),
                              ({"inequality-id": "lemma_chain", "s-grid": [1.0, 2.0]}, (4, 3)),
                              ({"inequality-id": "audenaert"}, (2, 3))]:
            tally()
            run_campaign(CampaignConfig.from_obj(dict(
                SEARCH_BASE, trials=3, **{"t-grid": [0.1, 0.5], "r-grid": [1.0, 2.0]}, **obj)))
            assert tally() == expected, obj

    @pytest.mark.parametrize("name", sorted(SEARCH_TARGETS))
    def test_instance_reproduces_the_margin_exactly(self, name):
        cfg = CampaignConfig.from_obj(dict(SEARCH_BASE, **SEARCH_TARGETS[name]))
        report = search_counterexample(cfg, 300)
        margin, _ = reevaluate_search_instance(cfg, report)
        assert margin == report.best_margin

    def test_commuting_bourin_uchiyama_instance_has_no_b_list(self):
        # Bourin-Uchiyama takes no B-list, so a commuting draw's B side is
        # neither moved nor written, and the written instance reproduces.
        cfg = CampaignConfig.from_obj(dict(SEARCH_BASE, **SEARCH_TARGETS["bu"], dims=[2],
                                           ensemble={"kind": "commuting"}))
        report = search_counterexample(cfg, 40)
        assert report.best_instance["b-list"] == []
        assert reevaluate_search_instance(cfg, report)[0] == report.best_margin
        # The A side keeps the bits of the commuting pairs' A side.
        pairs = CampaignConfig.from_obj(dict(cfg.to_obj(), **{"inequality-id": "audenaert"}))
        a, b, _ = _build_inputs(cfg, 2, (2,), ((5, 6),))
        assert b is None and _build_inputs(cfg, 2, 2, 5)[1] == []
        assert np.array_equal(a, _build_inputs(pairs, 2, (2,), ((5, 6),))[0])

    def test_runs_are_identical(self):
        cfg = CampaignConfig.from_obj(SEARCH_BASE)
        first, second = (search_counterexample(cfg, 200).to_obj() for _ in range(2))
        del first["wall-time"], second["wall-time"]
        assert first == second

    def test_masked_candidates_neither_abort_nor_win(self, monkeypatch):
        # expm1 overflows on the larger draws of a condition-1e7 ensemble.
        masked = []

        def counted(*args, **kwargs):
            blocks = stack_reports(*args, **kwargs)
            masked.append(sum(int((block.verdict == inequalities.INDETERMINATE).sum())
                              for block in blocks))
            return blocks
        monkeypatch.setattr(campaign, "stack_reports", counted)
        cfg = CampaignConfig.from_obj({
            "inequality-id": "bourin_uchiyama", "dims": [1], "m-values": [2],
            "functions": ["expm1"], "direction": "convex", "norm-specs": ["schatten:2"],
            "root-seed": 0, "ensemble": {"condition-target": 1e7}})
        with np.errstate(over="ignore", invalid="ignore"):
            report = search_counterexample(cfg, 200)
        assert 0 < sum(masked) < report.evaluations
        assert finite(InequalityReport.from_obj(report.best_report))
        assert reevaluate_search_instance(cfg, report)[0] == report.best_margin

    def test_search_that_never_sees_a_finite_instance_finds_no_violation(self, tmp_path,
                                                                          capsys):
        # Every slice of this draw and of its one candidate fails the strict check.
        obj = dict(SEARCH_BASE, **{"t-grid": [0.5], "root-seed": 0,
                                   "ensemble": {"condition-target": 1e20}})
        with np.errstate(over="ignore", invalid="ignore"):
            report = search_counterexample(CampaignConfig.from_obj(obj), 1)
            assert math.isnan(report.best_margin) and not report.violation_found
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(obj))
            assert cli_main(["search", "--config", str(cfg_path), "--steps", "1"]) == 2
        assert json.loads(capsys.readouterr().out)["violation-found"] is False


class TestCli:
    def test_eval_holds_exit_zero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_matrix(a, np.diag([2.0, 3.0]))
        save_matrix(b, np.diag([1.0, 4.0]))
        code = cli_main(["eval", "--inequality", "main_theorem",
                         "--a", str(a), "--b", str(b), "--t", "0.5", "--r", "2",
                         "--norm", "schatten:1"])
        out = capsys.readouterr().out
        report = InequalityReport.from_json(out)
        assert code == 0 and report.holds

    def test_eval_violation_exit_two(self, tmp_path, capsys):
        # Printed form far from t = 1/2 with lopsided inputs violates.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_matrix(a, np.diag([10.0, 10.0]))
        save_matrix(b, np.diag([1e-4, 1e-4]))
        code = cli_main(["eval", "--inequality", "main_theorem",
                         "--a", str(a), "--b", str(b), "--t", "0.05", "--r", "1",
                         "--norm", "trace"])
        report = InequalityReport.from_json(capsys.readouterr().out)
        assert code == 2 and not report.holds

    @pytest.mark.parametrize("inequality", ["audenaert", "bourin_uchiyama", "lemma_chain",
                                            "main_theorem", "proof_steps"])
    def test_eval_prints_its_check(self, inequality, tmp_path, capsys):
        pairs = [random_commuting_pair(EnsembleSpec(dim=3, kind="commuting", seed=seed))
                 for seed in (31, 32)][:1 if inequality == "lemma_chain" else 2]
        argv = ["eval", "--inequality", inequality, "--t", "0.3", "--r", "2", "--s", "0.5",
                "--norm", "trace"]
        # Bourin-Uchiyama reads no B-list, so it is given none.
        for side, flag in ((0, "--a"), (1, "--b"))[:1 if inequality == "bourin_uchiyama" else 2]:
            for i, pair in enumerate(pairs):
                save_matrix(tmp_path / f"{side}{i}.json", pair[side])
                argv += [flag, str(tmp_path / f"{side}{i}.json")]
        a_list, b_list = [p[0] for p in pairs], [p[1] for p in pairs]
        trace = NormSpec.trace()
        expected = {
            "audenaert": lambda: check_audenaert(a_list, b_list, trace),
            "bourin_uchiyama": lambda: check_bourin_uchiyama(a_list, "power:2", "convex", trace),
            "lemma_chain": lambda: check_lemma_chain(a_list[0], b_list[0], 0.3, 2.0, 0.5, trace),
            "main_theorem": lambda: check_main_theorem(a_list, b_list, 0.3, 2.0, trace),
            "proof_steps": lambda: check_proof_steps(a_list, b_list, 0.3, 2.0, trace),
        }[inequality]()
        if inequality == "bourin_uchiyama":
            argv += ["--function", "power:2", "--direction", "convex"]
        code = cli_main(argv)
        assert capsys.readouterr().out == expected.to_json() + "\n"
        assert code == (0 if expected.holds else 2)

    @pytest.mark.parametrize("inequality, pairs, extra, chain", [
        ("lemma_chain", 2, [], "LemmaChain"),
        ("bourin_uchiyama", 1, ["--function", "power:2", "--direction", "convex"],
         "BourinUchiyama"),
    ])
    def test_eval_refuses_inputs_its_chain_does_not_read(self, inequality, pairs, extra, chain,
                                                         tmp_path, capsys):
        # The lemma chain reads one pair and Bourin-Uchiyama no B-list: a
        # second pair or a B-list is refused, not silently dropped.
        argv = ["eval", "--inequality", inequality, "--norm", "trace", *extra]
        for i in range(pairs):
            a, b = random_commuting_pair(EnsembleSpec(dim=2, kind="commuting", seed=40 + i))
            for flag, matrix in (("--a", a), ("--b", b)):
                save_matrix(tmp_path / f"{flag[2:]}{i}.json", matrix)
                argv += [flag, str(tmp_path / f"{flag[2:]}{i}.json")]
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "shape error" in err and chain in err

    def test_campaign_writes_reports_and_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "reports.json"
        cfg_path.write_text(json.dumps({
            "inequality-id": "audenaert", "trials": 2, "dims": [2],
            "m-values": [2], "norm-specs": ["trace"], "root-seed": 5,
            "ensemble": {"kind": "commuting"}}))
        code = cli_main(["campaign", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        reports = load_reports(out_path)
        assert summary["total"] == len(reports) == 2 * 1 * 1 * 1

    def test_campaign_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "r.csv"
        cfg_path.write_text(json.dumps({
            "inequality-id": "audenaert", "trials": 9, "dims": [2, 3],
            "m-values": [1], "norm-specs": ["trace"], "root-seed": 5,
            "ensemble": {"kind": "commuting"}}))
        code = cli_main(["campaign", "--config", str(cfg_path), "--trials", "2",
                         "--dim", "2", "--format", "csv", "--out", str(out_path)])
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS)
        assert len(rows) == 1 + 2

    def test_successive_calls_share_the_parser_but_no_flags(self, tmp_path, capsys):
        # The parser is built once per process; each call's flags stay its own.
        cfg_path = tmp_path / "cfg.json"
        obj = dict(SMALL, trials=2)
        cfg_path.write_text(json.dumps(obj))
        flagged, plain = tmp_path / "flagged.out", tmp_path / "plain.out"
        assert cli_main(["campaign", "--config", str(cfg_path), "--out", str(flagged),
                         "--seed", "5", "--format", "csv"]) == 0
        assert cli_main(["campaign", "--config", str(cfg_path), "--out", str(plain)]) == 0
        capsys.readouterr()
        assert cli._parser() is cli._parser()
        _, seeded = run_campaign(CampaignConfig.from_obj(dict(obj, **{"root-seed": 5})))
        _, unflagged = run_campaign(CampaignConfig.from_obj(obj))
        assert flagged.read_text() == render_reports(seeded, "csv")
        assert plain.read_text() == render_reports(unflagged, "json")

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"inequality-id": "main_theorem", "trials": 0}))
        assert cli_main(["campaign", "--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,flags", [("5", []), ("[1]", ["--seed", "3"])])
    def test_config_that_is_not_an_object_exit_one(self, text, flags, tmp_path, capsys):
        # Was a TypeError traceback from the flag overrides or from from_obj.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert cli_main(["campaign", "--config", str(cfg_path), *flags]) == 1
        assert "not a JSON object" in capsys.readouterr().err

    def test_missing_config_file_exit_one(self, capsys):
        assert cli_main(["campaign", "--config", "/nonexistent/cfg.json"]) == 1

    @pytest.mark.parametrize("command,text,message", [
        ("campaign", "{not json", "not valid JSON"),
        ("eval", None, "cannot read matrix file"),
        # Was an uncaught TypeError traceback.
        ("eval", '{"dim": true, "field": "real", "entries": [1.0]}', "dim"),
        # Was loaded as 2.0.
        ("eval", '{"dim": 1, "field": "real", "entries": ["2.0"]}', "'2.0'"),
    ])
    def test_unreadable_input_file_exit_one(self, command, text, message, tmp_path, capsys):
        # text None: the file does not exist.
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        argv = (["campaign", "--config", str(path)] if command == "campaign"
                else ["eval", "--inequality", "main_theorem", "--a", str(path), "--b", str(path)])
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("text,message", [
        ('{"dim": 2}', "missing key 'field'"),
        ("{not json", "Expecting property name"),
    ])
    def test_unreadable_matrix_file_is_named(self, text, message, tmp_path, capsys):
        # With several --a files, the error named none of them.
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        save_matrix(good, np.eye(2))
        bad.write_text(text)
        argv = ["eval", "--inequality", "main_theorem", "--a", str(good), "--a", str(bad),
                "--b", str(good), "--b", str(good)]
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and repr(str(bad)) in err and message in err
        assert str(good) not in err

    @pytest.mark.parametrize("spec", ["schatten:abc", "kyfan:x", "schatten:"])
    def test_eval_names_a_norm_spec_whose_argument_is_no_number(self, spec, tmp_path, capsys):
        # The error was float()'s bare "could not convert string to float".
        a = tmp_path / "a.json"
        save_matrix(a, np.eye(2))
        code = cli_main(["eval", "--inequality", "main_theorem", "--a", str(a), "--b", str(a),
                         "--norm", spec])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"cannot parse norm spec {spec!r}" in err

    def test_eval_refuses_zero_epsilon_scale(self, tmp_path, capsys):
        # A zero scale was taken as no scale: the PSD inputs then failed the
        # strict check instead of being refused like a negative scale.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(a, np.diag([1.0, 0.0]))
        save_matrix(b, np.diag([0.0, 1.0]))
        code = cli_main(["eval", "--inequality", "main_theorem", "--a", str(a), "--b", str(b),
                         "--epsilon-scale", "0"])
        assert code == 1
        assert "epsilon-scale must be positive" in capsys.readouterr().err

    def test_search_unwritable_path_names_it(self, tmp_path, capsys):
        out_path = tmp_path / "no" / "such" / "dir" / "search.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "inequality-id": "lemma_chain", "dims": [2], "t-grid": [0.5], "r-grid": [1.0],
            "s-grid": [1.0], "norm-specs": ["trace"], "output-path": str(out_path)}))
        assert cli_main(["search", "--config", str(cfg_path), "--steps", "2"]) == 1
        assert str(out_path) in capsys.readouterr().err

    def test_eval_bourin_uchiyama_needs_function(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        save_matrix(a, np.eye(2))
        code = cli_main(["eval", "--inequality", "bourin_uchiyama", "--a", str(a)])
        assert code == 1
        assert "function" in capsys.readouterr().err

    def test_eval_bourin_uchiyama_needs_function_in_any_spelling(self, tmp_path, capsys):
        # The CamelCase id once skipped the check and got "grid 'f' must be nonempty".
        a = tmp_path / "a.json"
        save_matrix(a, np.eye(2))
        for spelling in ("bourin_uchiyama", "BourinUchiyama"):
            assert cli_main(["eval", "--inequality", spelling, "--a", str(a)]) == 1
            assert "functions must be nonempty for BourinUchiyama" in capsys.readouterr().err

    def test_search_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "search.json"
        cfg_path.write_text(json.dumps({
            "inequality-id": "lemma_chain", "dims": [2], "t-grid": [0.5],
            "r-grid": [1.0], "s-grid": [1.0], "norm-specs": ["trace"],
            "root-seed": 5, "output-path": str(out_path)}))
        code = cli_main(["search", "--config", str(cfg_path), "--steps", "25"])
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["steps"] == 25

    def test_eval_stdout_stream_campaign(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "inequality-id": "audenaert", "trials": 1, "dims": [2],
            "m-values": [1], "norm-specs": ["trace"], "root-seed": 1,
            "ensemble": {"kind": "commuting"}}))
        code = cli_main(["campaign", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 0
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 1
        InequalityReport.from_json(lines[0])

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_campaign_stdout_is_the_out_file(self, output_format, tmp_path, capsys):
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / f"reports.{output_format}"
        cfg_path.write_text(json.dumps(dict(STREAM_BASE, **MASKED_FAILING_SLICE)))
        argv = ["campaign", "--config", str(cfg_path), "--format", output_format]
        streamed = cli_main(argv)
        out = capsys.readouterr().out
        assert cli_main(argv + ["--out", str(out_path)]) == streamed == 2
        assert out == out_path.read_text()
        assert ("NaN" if output_format == "json" else ",nan,") in out
