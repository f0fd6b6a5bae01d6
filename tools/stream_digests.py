"""Digests of matsharp's report streams, for checking that a refactor
leaves every report byte-identical.

Usage::

    python tools/stream_digests.py > digests.txt
    python tools/stream_digests.py --against digests.txt

Each output line is ``name digest held/violated/indeterminate``: the first
12 hex digits of the SHA-256 of a fixed campaign's JSON and CSV rendering
(or of a 300-step search report with its wall time dropped, of a set of
direct ``check_*`` calls, of the ``lemma_chain_sigmas`` bytes over the
criterion-4 grid, or, on the ``records`` line, of every campaign's config
and summary records with the wall time set to 0), then the verdict
counts.  The set covers every inequality id, stacks of more trials than
one chunk, and configs whose stacks hold failing slices.  Run it in two
checkouts and diff the outputs, or give the first run's output to the
second with ``--against FILE``: every line whose name (first field) reads
otherwise in FILE, or is in one of the two only, is named on stderr, and
the exit code is 1.  The digests depend on the LAPACK build,
so none is pinned here.  The last two lines are no digests.
``screens-at-scale`` gives, for each of three inputs that the numerical
screens must refuse, the outcome at c = 1e-8, 1e-6, ..., 1e8, one letter
each: ``h`` held, ``v`` violated, ``i`` indeterminate, ``x`` refused with
an error.  ``regularized-ties`` gives, in the same letters, the
regularized printed form and variant on A = B = cI at c = 0, 1e-8, ...,
1e8, where every term ties.
For every campaign, the script also counts the verdicts of the stream's
reports itself: a report is finite when every term, margin and fan margin
is, and a tie when it is finite and its least margin lies within
+-``tolerance_band`` of its largest absolute term.  It exits 1, naming the
campaign on stderr, when the campaign's summary gives other
held/violated/indeterminate counts, or another tie count, than its own.
A summary without a tie count (an older checkout) is not checked for
one.  Every campaign is also run through ``matsharp campaign`` into a
temporary file, in JSON and in CSV: the script exits 1, naming the
campaign on stderr, when the file is not the stream's rendering byte for
byte, or when the printed summary is not the stream's, the wall time
dropped.  Each search's best instance is evaluated again by
``reevaluate_search_instance``, and the
script also exits 1, naming the search on stderr, when its least margin
is not exactly the report's ``best_margin`` (NaN matches NaN).
The library is imported from the ``src`` directory next to this script.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from matsharp import (  # noqa: E402
    CampaignConfig,
    EnsembleSpec,
    MatSharpError,
    NormSpec,
    check_audenaert,
    check_bourin_uchiyama,
    check_lemma_chain,
    check_main_theorem,
    check_proof_steps,
    random_commuting_pair,
    random_pd,
    random_psd_rank_deficient,
    render_reports,
    run_campaign,
    search_counterexample,
    tolerance_band,
)
from matsharp.campaign import reevaluate_search_instance  # noqa: E402
from matsharp.cli import main as cli_main  # noqa: E402
from matsharp.inequalities import lemma_chain_sigmas  # noqa: E402

NORMS = ["schatten:1", "schatten:2", "operator", "trace", "kyfan:2"]
BASE = {"trials": 6, "dims": [2, 4], "m-values": [1, 2], "t-grid": [0.0, 0.1, 0.5, 0.9, 1.0],
        "r-grid": [1.0, 2.0, 3.0], "norm-specs": NORMS, "root-seed": 913}
PSD = {"kind": "psd", "rank": 1}
CONVEX = {"inequality-id": "bourin_uchiyama", "functions": ["power:2", "power:3", "expm1"],
          "direction": "convex"}
CONCAVE = {"inequality-id": "bourin_uchiyama", "functions": ["power:0.5", "ratio"],
           "direction": "concave"}

CAMPAIGNS = {
    "main-printed-pd": {"inequality-id": "main_theorem"},
    "main-variant-pd": {"inequality-id": "main_theorem", "printed-form": False},
    "main-printed-psd": {"inequality-id": "main_theorem", "ensemble": PSD},
    "main-variant-psd": {"inequality-id": "main_theorem", "printed-form": False, "ensemble": PSD},
    "main-kappa1e12": {"inequality-id": "main_theorem", "r-grid": [1.0, 40.0],
                       "ensemble": {"condition-target": 1e12}},
    "proof-pd": {"inequality-id": "proof_steps"},
    "proof-psd": {"inequality-id": "proof_steps", "ensemble": PSD},
    "lemma-chain": {"inequality-id": "lemma_chain", "r-grid": [0.5, 1.0, 2.0],
                    "s-grid": [0.5, 1.0, 2.0]},
    "lemma-commuting": {"inequality-id": "lemma_chain", "s-grid": [1.0, 2.0],
                        "ensemble": {"kind": "commuting", "field": "real"}},
    "audenaert": {"inequality-id": "audenaert", "m-values": [1, 2, 3]},
    "bu-convex-pd": CONVEX,
    "bu-concave-pd": CONCAVE,
    "bu-convex-psd": dict(CONVEX, ensemble=PSD),
    "bu-concave-psd": dict(CONCAVE, ensemble=PSD),
    # More trials than one stack.
    "main-many-trials": {"inequality-id": "main_theorem", "trials": 150, "dims": [1, 3],
                         "m-values": [2, 1], "norm-specs": ["kyfan:1", "trace"]},
    "proof-real-psd-many": {"inequality-id": "proof_steps", "trials": 70, "dims": [1, 2, 5],
                            "m-values": [3], "t-grid": [0.3], "norm-specs": ["kyfan:1"],
                            "ensemble": {"kind": "psd", "field": "real"}},
    "lemma-many": {"inequality-id": "lemma_chain", "trials": 70, "dims": [1, 3],
                   "t-grid": [0.25, 0.5], "r-grid": [1.0, 2.0], "s-grid": [1.0, 2.0],
                   "norm-specs": ["kyfan:1", "schatten:2"]},
    "audenaert-many": {"inequality-id": "audenaert", "trials": 70, "dims": [1, 3],
                       "m-values": [1, 2], "norm-specs": ["kyfan:1", "trace"]},
    "bu-many": dict(CONVEX, trials=70, dims=[1, 3], **{"m-values": [2, 3],
                                                        "norm-specs": ["kyfan:1", "trace"]}),
    # Stacks with failing slices: non-positive-definite draws and f overflow.
    "main-kappa1e20": {"inequality-id": "main_theorem", "trials": 20, "t-grid": [0.5],
                       "ensemble": {"condition-target": 1e20}},
    "lemma-kappa1e17": {"inequality-id": "lemma_chain", "trials": 20, "t-grid": [0.5],
                        "r-grid": [1.0, 2.0], "s-grid": [1.0],
                        "ensemble": {"condition-target": 1e17}},
    "lemma-r60-underflow": {"inequality-id": "lemma_chain", "trials": 20, "t-grid": [0.5],
                            "r-grid": [1.0, 60.0], "s-grid": [1.0],
                            "ensemble": {"condition-target": 1e12}},
    "bu-expm1-overflow": {"inequality-id": "bourin_uchiyama", "trials": 20, "dims": [1],
                          "m-values": [1, 2], "functions": ["expm1", "power:2"],
                          "direction": "convex", "norm-specs": ["schatten:2"], "root-seed": 0,
                          "ensemble": {"condition-target": 1e7}},
}

SEARCH = {"dims": [3], "m-values": [2], "t-grid": [0.1], "r-grid": [1.0], "s-grid": [1.0],
          "norm-specs": ["schatten:2"], "root-seed": 7}
SEARCHES = {
    "search-main-t0.1": {"inequality-id": "main_theorem"},
    "search-main-psd-variant": {"inequality-id": "main_theorem", "printed-form": False,
                                "t-grid": [0.3], "ensemble": {"kind": "psd"}},
    "search-proof": {"inequality-id": "proof_steps", "t-grid": [0.25], "r-grid": [2.0]},
    "search-lemma": {"inequality-id": "lemma_chain", "t-grid": [0.5], "r-grid": [2.0],
                     "s-grid": [2.0]},
    "search-bu": {"inequality-id": "bourin_uchiyama", "functions": ["power:3"],
                  "direction": "convex"},
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def is_finite(report):
    """Every term, margin and fan margin of ``report`` is finite."""
    values = [value for _, value in report.terms] + report.margins + (report.fan_margins or [])
    return all(np.isfinite(values))


def letter(report):
    """``h`` held, ``v`` violated or ``i`` indeterminate."""
    return "h" if report.holds else "v" if is_finite(report) else "i"


def counts(reports):
    finite = [r for r in reports if is_finite(r)]
    held = sum(r.holds for r in finite)
    return f"{held}/{len(finite) - held}/{len(reports) - len(finite)}"


def ties(reports):
    """The finite reports whose least margin lies within the band of their
    largest absolute term."""
    return sum(1 for r in reports if is_finite(r)
               and abs(min(r.margins)) <= tolerance_band(max(abs(v) for _, v in r.terms)))


def campaign_line(name, obj, records, mismatches):
    """The campaign's digest line; its config and summary records join
    ``records``, and the summary's counts, when they differ from
    :func:`counts` or :func:`ties`, join ``mismatches``."""
    config = CampaignConfig.from_obj(dict(BASE, **obj))
    with np.errstate(over="ignore", invalid="ignore"):
        summary, reports = run_campaign(config)
    summary.wall_time = 0.0
    # The config through to_obj, so that the script also runs on checkouts
    # whose CampaignConfig has no to_json.
    records += [json.dumps(config.to_obj()), summary.to_json()]
    text = {fmt: render_reports(reports, fmt) for fmt in ("json", "csv")}
    listed = list(reports)
    verdicts = f"{summary.held}/{summary.violated}/{summary.indeterminate}"
    if verdicts != counts(listed):
        mismatches.append(f"summary counts differ: {name} {verdicts}, not {counts(listed)}")
    # getattr: a summary of an older checkout has no tie count.
    tied = getattr(summary, "ties", None)
    if tied is not None and tied != ties(listed):
        mismatches.append(f"summary ties differ: {name} {tied}, not {ties(listed)}")
    summary_obj = json.loads(summary.to_json())
    del summary_obj["wall-time"]
    for fmt, rendered in text.items():
        for mismatch in cli_mismatches(config, fmt, rendered, summary_obj):
            mismatches.append(f"{mismatch}: {name} {fmt}")
    return f"{name} {digest(text['json'] + text['csv'])} {counts(listed)}"


def cli_mismatches(config, fmt, rendered, summary_obj):
    """What ``matsharp campaign`` does otherwise than the stream, run on
    ``config`` in format ``fmt`` into a temporary file: its file against
    the stream's rendering ``rendered``, its printed summary against the
    stream's, ``summary_obj``, without the wall time."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out_path = Path(tmp, "config.json"), Path(tmp, f"reports.{fmt}")
        config_path.write_text(json.dumps(config.to_obj()))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), np.errstate(over="ignore", invalid="ignore"):
            cli_main(["campaign", "--config", str(config_path), "--out", str(out_path),
                      "--format", fmt])
        written = out_path.read_text() if out_path.exists() else None
    mismatches = [] if written == rendered else ["cli file differs from the stream"]
    try:
        obj = json.loads(printed.getvalue().splitlines()[-1])
        obj.pop("wall-time")
    except (ValueError, IndexError, KeyError, AttributeError):
        obj = None
    return mismatches + ([] if obj == summary_obj else ["cli summary differs from the stream's"])


def search_line(name, obj, mismatches):
    """The search's digest line; when its best instance, evaluated again,
    gives another least margin than the report's, the search joins
    ``mismatches``."""
    config = CampaignConfig.from_obj(dict(SEARCH, **obj))
    report = search_counterexample(config, 300)
    margin, _ = reevaluate_search_instance(config, report)
    best = report.best_margin
    if margin != best and not (math.isnan(margin) and math.isnan(best)):
        mismatches.append(f"search margin not reproduced: {name} {margin!r}, not {best!r}")
    obj = report.to_obj()
    del obj["wall-time"]
    return f"{name} {digest(json.dumps(obj))} -"


def direct_reports():
    """Every public predicate called directly on fixed inputs."""
    pd = [random_pd(EnsembleSpec(dim=3, seed=seed, condition_target=50.0)) for seed in range(4)]
    psd = [random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=seed, rank=1))
           for seed in range(4, 6)]
    pairs = [random_commuting_pair(EnsembleSpec(dim=3, kind="commuting", seed=seed))
             for seed in range(6, 8)]
    reports = []
    for spec in map(NormSpec.parse, NORMS):
        for t in (0.0, 0.3, 1.0):
            reports.append(check_lemma_chain(pd[0], pd[1], t, 2.0, 0.5, spec, seed=1))
            reports.append(check_main_theorem(pd[:2], pd[2:], t, 2.0, spec, seed=2))
            reports.append(check_main_theorem(pd[:2], pd[2:], t, 1.5, spec, printed_form=False))
            reports.append(check_main_theorem(psd[:1], psd[1:], t, 2.0, spec, printed_form=False,
                                              epsilon_scale=1e-10))
            reports.append(check_proof_steps(psd[:1], psd[1:], t, 2.0, spec, epsilon_scale=1e-10))
            reports.append(check_main_theorem(pd[:2], pd[2:], t, 3.0, spec, seed=3))
            reports.append(check_proof_steps(pd[:2], pd[2:], t, 3.0, spec, seed=3))
        reports.append(check_audenaert([p[0] for p in pairs], [p[1] for p in pairs], spec, seed=4))
        for fid, direction in (("power:2", "convex"), ("expm1", "convex"), ("ratio", "concave")):
            reports.append(check_bourin_uchiyama(pd[:3], fid, direction, spec, seed=5))
    sigmas = [sig.tobytes().hex() for _, sig in lemma_chain_sigmas(pd[2], pd[3], 0.25, 1.5, 2.0)]
    return reports, "\n".join(sigmas)


def lemma_sigmas_grid():
    """``lemma_chain_sigmas`` bytes, point by point, over the acceptance suite's
    criterion-4 (t, r, s) grid for one n=2 and one n=5 pair."""
    hexes = []
    for n, seed in ((2, 80), (5, 82)):
        a, b = (random_pd(EnsembleSpec(dim=n, seed=seed + side)) for side in (0, 1))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            for r in (0.5, 1.0, 2.0):
                for s in (0.5, 1.0, 2.0):
                    hexes += [sig.tobytes().hex() for _, sig in lemma_chain_sigmas(a, b, t, r, s)]
    return "\n".join(hexes)


def screens_at_scale():
    """The outcome letters of three inputs that fail a screen, at every scale:
    a non-Hermitian X, and an indefinite N through the PSD clamp of
    Bourin-Uchiyama and of the regularized main chain."""
    x, neg = np.array([[1, 1e-6], [0, 1]]), np.diag([1, -1e-6])
    eye, trace = np.eye(2), NormSpec.trace()
    inputs = {
        "hermitian": lambda c: check_main_theorem([c * x], [c * eye], 0.5, 1.0, trace),
        "psd": lambda c: check_bourin_uchiyama([c * neg, c * eye], "power:2", "convex", trace),
        "regularized": lambda c: check_main_theorem([c * neg], [c * eye], 0.5, 1.0, trace,
                                                    epsilon_scale=1e-10),
    }
    fields = []
    for name, check in inputs.items():
        letters = ""
        for k in range(-8, 9, 2):
            try:
                report = check(10.0 ** k)
            except MatSharpError:
                letters += "x"
                continue
            letters += letter(report)
        fields.append(f"{name}:{letters}")
    return " ".join(fields)


def regularized_ties():
    """The outcome letters of the regularized main chain, printed and variant,
    on A = B = cI (n = 3, trace norm, t = 1/2, r = 1, epsilon scale 1e-10)."""
    fields = []
    for name, printed_form in (("printed", True), ("variant", False)):
        letters = ""
        for c in [0.0] + [10.0 ** k for k in range(-8, 9, 2)]:
            a = [c * np.eye(3)]
            report = check_main_theorem(a, a, 0.5, 1.0, NormSpec.trace(),
                                        printed_form=printed_form, epsilon_scale=1e-10)
            letters += letter(report)
        fields.append(f"{name}:{letters}")
    return " ".join(fields)


def differences(path, lines):
    """A message naming each line of ``lines`` whose name reads otherwise in
    the saved output ``path``, or that is in one of the two only."""
    saved, new = ({line.split()[0]: line for line in text if line.strip()}
                  for text in (Path(path).read_text().splitlines(), lines))
    return [f"line differs from {path}: {name}" for name in dict.fromkeys([*saved, *new])
            if saved.get(name) != new.get(name)]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digests of matsharp's report streams.")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved output; name each line that differs from it on stderr")
    args = parser.parse_args(argv)
    records, mismatches, lines = [], [], []

    def emit(line):
        print(line, flush=True)
        lines.append(line)
    for name, obj in CAMPAIGNS.items():
        emit(campaign_line(name, obj, records, mismatches))
    for name, obj in SEARCHES.items():
        emit(search_line(name, obj, mismatches))
    reports, sigmas = direct_reports()
    text = "".join(r.to_json() + "\n" for r in reports)
    emit(f"direct-checks {digest(text + sigmas)} {counts(reports)}")
    emit(f"lemma-sigmas-grid {digest(lemma_sigmas_grid())} -")
    emit(" ".join(["records", digest("\n".join(records)), "-"]))
    emit(f"screens-at-scale {screens_at_scale()}")
    emit(f"regularized-ties {regularized_ties()}")
    if args.against:
        mismatches += differences(args.against, lines)
    for mismatch in mismatches:
        print(mismatch, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
