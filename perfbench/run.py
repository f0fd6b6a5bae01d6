"""matsharp campaign and search benchmark.

    python3 perfbench/run.py --workload main-printed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and nowhere else, and the oracle from ``tests/oracles.py``.
``--workload all`` runs every workload, each in its own process.

Each run pins BLAS to one thread, warms up with one untimed block, then
alternates a fixed machine-speed probe (a constant imitation of the
library's hot path in plain numpy) with blocks of the workload until
``--seconds`` have passed.  A block is one entry-point call:
``matsharp.cli.main(["campaign", ...])`` or one ``search_counterexample``.
Throughputs are per-block rates scaled by ``probe seconds /
PROBE_REFERENCE_S``, that is, to a machine on which the probe takes
PROBE_REFERENCE_S, and reported as the median over blocks; the unscaled
figures are in the record line.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced blocks and reports the
per-layer metrics from the spans of the traced ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count operations (entry-point calls with their gates, and the
oracle check); ``metrics`` maps names to ``{"value", "unit"}``.  The exit
code is 1 when any gate fails and 2 when the checkout cannot be
benchmarked.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import CampaignWorkload, SearchWorkload

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Why each workload, and the ROADMAP item it exposes:
# - main-printed: the criterion-6 acceptance shape (printed main chain,
#   dims {2,4,6}, m {1,2,3}, r {1,2,3}); generation is a real share and only
#   the r axis repeats work, so it shows trial batching (item 3) and draw cost.
# - variant-psd-5norm: the t-dependent variant on rank-deficient inputs with
#   five norms; the norm and t axes redo every decomposition, so it shows one
#   spectral pass per instance (item 2), the regularized means path and CSV.
# - search: hill descent on one instance per step; batching and norm reuse do
#   not apply (items 2 and 3 predict no change) while a scale-invariant search
#   (item 5) does.
CAMPAIGNS = {
    "main-printed": {
        "inequality-id": "main_theorem", "trials": 4,
        "dims": [2, 4, 6], "m-values": [1, 2, 3], "t-grid": [0.5], "r-grid": [1, 2, 3],
        "norm-specs": ["schatten:2"], "ensemble": {"kind": "pd"},
        "printed-form": True, "output-format": "json",
    },
    "variant-psd-5norm": {
        "inequality-id": "main_theorem", "trials": 1,
        "dims": [2, 4, 6], "m-values": [2, 3], "t-grid": [0.25, 0.5, 0.75],
        "r-grid": [1, 2, 3],
        "norm-specs": ["schatten:1", "schatten:2", "schatten:inf", "kyfan:1", "kyfan:2"],
        "ensemble": {"kind": "psd", "epsilon-scale": 1e-10},
        "printed-form": False, "output-format": "csv",
    },
}
SEARCH = {
    "inequality-id": "main_theorem", "dims": [3], "m-values": [2], "t-grid": [0.1],
    "r-grid": [1], "norm-specs": ["schatten:2"], "printed-form": True,
}
# About a quarter of 2000-step searches stall at a tie, so the search
# quality metric takes the best of a fixed set of searches; shorter
# searches rarely get deep enough for a steady best.  Timed blocks are
# shorter searches over the same configs.
SEARCH_QUALITY_STEPS = 2000
SEARCH_BLOCK_STEPS = 250
SEARCH_COUNT = 10
WORKLOADS = (*CAMPAIGNS, "search")

MIN_BLOCKS = 3
SETUP_REPEATS = 15
# Set-up is scaled like the throughputs, but by a probe of its own kind: a
# fresh process that imports numpy, run just before and just after each
# set-up sample.  Raw set-up samples vary by about 17% on a shared VM and
# their ratios to the reference imports by about 11%; the median of 15
# ratios spreads by 2-4% between runs.
SETUP_REFERENCE_S = 0.08
PROBE_ROUNDS = 40
PROBE_REFERENCE_S = 0.03
# Each probe runs for at least this share of the block before it, so that
# long blocks are bracketed by long enough samples of the machine's speed.
PROBE_SHARE = 0.1

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from matsharp.campaign import CampaignConfig
with open(sys.argv[2]) as fh:
    CampaignConfig.from_obj(json.load(fh))
print(repr(time.perf_counter() - start))
"""
REFERENCE_CODE = """
import time
start = time.perf_counter()
import json, numpy
print(repr(time.perf_counter() - start))
"""


def load_library():
    """Import matsharp from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "matsharp" / "__init__.py").is_file():
        raise FileNotFoundError(f"no matsharp sources under {src}")
    sys.path.insert(0, str(src))
    import matsharp
    import matsharp.cli  # noqa: F401  (binds matsharp.cli)

    if Path(matsharp.__file__).resolve().parent != (src / "matsharp").resolve():
        raise ImportError(f"matsharp imported from {matsharp.__file__}, not {src}")
    return matsharp


def load_oracle():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_commit():
    """Commit of the checkout, or None when it is not a git work tree.

    The search for a repository stops at the checkout, so a checkout that
    sits inside some other repository does not report that one's commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(np):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def make_probe(np):
    """A constant imitation of one step of the library's hot path.

    Validation, a Hermitian part, eigh, a spectral power and an SVD on fixed
    n in {2, 4, 6} matrices: it slows down with the machine the way the
    workloads do, which a bare eigh/svd loop tracks less closely.
    """
    rng = np.random.default_rng(20151214)
    mats = []
    for n in (2, 4, 6):
        for _ in range(4):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(g @ g.conj().T + np.eye(n))

    def one_pass():
        for _ in range(PROBE_ROUNDS):
            for a in mats:
                a = np.asarray(a).astype(np.complex128, copy=False)
                if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
                    raise ValueError("probe matrix is not finite")
                h = 0.5 * (a + a.conj().T)
                w, v = np.linalg.eigh(h)
                order = np.argsort(-w, kind="stable")
                v = v[:, order]
                root = (v * np.sqrt(np.maximum(w[order], 0.0))) @ v.conj().T
                np.linalg.svd(root @ h, compute_uv=False)

    def probe(min_seconds):
        """Seconds per pass of PROBE_ROUNDS rounds, over at least ``min_seconds``."""
        start = time.perf_counter()
        one_pass()
        passes = 1
        while time.perf_counter() - start < min_seconds:
            one_pass()
            passes += 1
        return (time.perf_counter() - start) / passes

    return probe


def child_seconds(*argv):
    """The seconds a fresh ``python -c`` child prints as its last line."""
    done = subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True,
                          timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def setup_sample(config_path):
    """Seconds a fresh process takes to import matsharp and parse the config,
    with the mean seconds fresh processes took to import numpy around it."""
    before = child_seconds(REFERENCE_CODE)
    seconds = child_seconds(SETUP_CODE, str(ROOT / "src"), str(config_path))
    return seconds, (before + child_seconds(REFERENCE_CODE)) / 2.0


def make_workload(name, matsharp, workdir, seed):
    if name == "search":
        return SearchWorkload(SEARCH, SEARCH_BLOCK_STEPS, SEARCH_QUALITY_STEPS, SEARCH_COUNT,
                              matsharp, seed)
    return CampaignWorkload(name, CAMPAIGNS[name], matsharp, workdir, seed)


class Tally:
    """Operations attempted and failed, with the reasons.

    An operation is one entry-point call with its gates, one oracle check, or
    the tracer's check that every function a metric reads is wrapped.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.extend(failures)


def warm_up(workload, tally):
    """One untimed block, with the gates that need only run once."""
    block = workload.block(0)
    tally.add(block.failures + workload.check_first())
    return block


def measure(workload, tally, seconds, probe):
    """Alternate probe and block for ``seconds``.

    Returns the blocks and the probe times around them.
    """
    warm = warm_up(workload, tally)
    blocks, probes = [], [probe(PROBE_SHARE * warm.seconds)]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(blocks) < MIN_BLOCKS:
        block = workload.block()
        blocks.append(block)
        tally.add(block.failures)
        probes.append(probe(PROBE_SHARE * block.seconds))
    return blocks, probes


def trace(workload, tally, seconds, tracer):
    """Alternate untraced and traced runs of one fixed block for ``seconds``.

    Searches always repeat the first search, so counts repeat exactly.
    """
    warm_up(workload, tally)
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_BLOCKS:
        for blocks, context in ((plain, None), (traced, tracer.active())):
            block = workload.block(0, context)
            blocks.append(block)
            tally.add(block.failures)
    return plain, traced


def end_to_end(workload, blocks, probes, setups, peak_rss_mb):
    scale = [(before + after) / 2.0 / PROBE_REFERENCE_S
             for before, after in zip(probes, probes[1:])]
    reports = [b.reports / b.seconds for b in blocks]
    evals = [b.units / b.library_seconds for b in blocks]
    metrics = {
        "reports_per_s": (statistics.median(r * f for r, f in zip(reports, scale)), "1/s"),
        "evals_per_s": (statistics.median(r * f for r, f in zip(evals, scale)), "1/s"),
        "min_term_ratio": (workload.quality(), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(t / r * SETUP_REFERENCE_S for t, r in setups), "s"),
    }
    record = {
        "raw_reports_per_s": statistics.median(reports),
        "raw_evals_per_s": statistics.median(evals),
        "blocks": len(blocks),
        "block_reports_per_s": [round(r, 3) for r in reports],
        "probe_s": [round(p, 5) for p in probes],
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "setup_s": [round(t, 5) for t, _ in setups],
        "reference_s": [round(r, 5) for _, r in setups],
    }
    return metrics, record


def per_layer(tracer, plain, traced):
    from spans import layer_metrics

    traced_seconds = sum(b.seconds for b in traced)
    metrics = layer_metrics(tracer.summary(), sum(b.units for b in traced), traced_seconds)
    overhead = statistics.median(b.seconds for b in traced) / statistics.median(
        b.seconds for b in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, {"blocks": len(traced), "spans": tracer.span_count()}


def run(args, matsharp):
    import numpy as np

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(np)}
    try:
        workload = make_workload(args.workload, matsharp, workdir, args.seed)
        if args.trace:
            from spans import Tracer, missing_names

            tracer = Tracer()
            missing = missing_names(tracer.names)
            tally.add([f"{name} is not traced" for name in missing])
            if missing:
                metrics = {}
            else:
                plain, traced = trace(workload, tally, args.seconds, tracer)
                metrics, record["trace"] = per_layer(tracer, plain, traced)
                tracer.write(workdir.parent / f"spans-{args.workload}.npz")
        else:
            setup_path = workdir / "setup.json"
            setup_path.write_text(json.dumps(workload.config))
            blocks, probes = measure(workload, tally, args.seconds, make_probe(np))
            setup_sample(setup_path)   # writes the bytecode caches
            setups = [setup_sample(setup_path) for _ in range(SETUP_REPEATS)]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, record["measured"] = end_to_end(workload, blocks, probes, setups,
                                                     peak_rss_mb)
        if args.workload == "main-printed":
            tally.add(workload.check_oracle(load_oracle()))
        record.update(workload.record())
    except Exception:   # report the failed run instead of dying mid-output
        traceback.print_exc()
        tally.add(["exception"])
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["failures"] = tally.reasons
    print(json.dumps({"record": record}))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 and metrics else 1


def run_all(args):
    """Each workload in its own process; non-zero if any of them fails."""
    codes = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run([sys.executable, __file__, "--workload", name,
                                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]).returncode)
    return max(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:   # before numpy is first imported
        os.environ[var] = "1"
    try:
        matsharp = load_library()
    except (OSError, ImportError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    return run(args, matsharp)


if __name__ == "__main__":
    sys.exit(main())
