"""Campaign runner and counterexample searcher.

A campaign expands a config into ``trials x |grid|`` inequality reports,
deterministically: matrices for a grid point depend only on
``(root seed, trial, dim index, m index)`` (m index 0 for the chains
without an m axis), so re-running a config reproduces the stream byte for
byte, and a trial's reports do not depend on which other trials run.

Every grid starts with the instance axes (n, and m where it applies) and
ends with the norm.  The trials are taken in chunks of ``CHUNK_TRIALS``;
within a chunk the instances of one (n, m) group are drawn as one stack
and evaluated in one stacked pass over the axes between them (t, r, s or
f): for every chain, input spectra and the sums are one call per stack,
pair means one per t, and the chain's singular values one per grid point,
each covering every instance of the group.  Every norm then reduces those
sequences into arrays, which the summary reads; a report is built when the
:class:`ReportStream` is read.  NumPy gives each slice of a stacked call the
bits of the single-matrix call, so the reports are the ones the ``check_*``
predicates give instance by instance and point by point, emitted in
(trial, grid point) order.  An instance that fails the strict
positive-definite check, the PSD clamp or a Bourin-Uchiyama f gets NaN
terms, so its reports count as indeterminate and the others go on.

The searcher performs random-restart hill descent on the minimum margin
of one fixed inequality instance, evaluating it as a stack of one.
"""

import csv
import io
import itertools
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UnregisteredFunctionError
from .inequalities import (
    ABS_TOL,
    AUDENAERT,
    BOURIN_UCHIYAMA,
    INEQUALITY_IDS,
    LEMMA_CHAIN,
    MAIN_THEOREM,
    PROOF_STEPS,
    REL_TOL,
    InequalityReport,
    _build_report,
    _instance_reports,
    resolve_function,
    stack_reports,
)
from .linalg import hermitian_part, matrix_from_obj, matrix_to_obj
from .means import DEFAULT_EPSILON_SCALE, DEFAULT_R_GRID, DEFAULT_S_GRID, DEFAULT_T_GRID
from .norms import KY_FAN, NormSpec
from .ensembles import (
    EnsembleSpec,
    KIND_COMMUTING,
    KIND_PD,
    KIND_PSD,
    Stream,
    random_commuting_pair,
    random_pd,
    random_psd_rank_deficient,
    split_seed,
)

_ID_ALIASES = {identifier.lower(): identifier for identifier in INEQUALITY_IDS}
_ID_ALIASES.update({
    "audenaert": AUDENAERT,
    "bourin_uchiyama": BOURIN_UCHIYAMA,
    "bourin-uchiyama": BOURIN_UCHIYAMA,
    "lemma_chain": LEMMA_CHAIN,
    "lemma-chain": LEMMA_CHAIN,
    "main_theorem": MAIN_THEOREM,
    "main-theorem": MAIN_THEOREM,
    "proof_steps": PROOF_STEPS,
    "proof-steps": PROOF_STEPS,
})

# Fixed CSV layout: one margin column per chain step (longest chain has
# five terms, hence four margins); unused cells stay empty.
CSV_COLUMNS = (
    "inequality-id", "trial", "m", "n", "t", "r", "s", "norm-spec",
    "function-id", "seed", "printed-form", "regularization-epsilon", "holds",
    "term-1", "term-2", "term-3", "term-4", "term-5",
    "margin-1", "margin-2", "margin-3", "margin-4",
)

# Trials per stacked pass of ``run_campaign``: it bounds the memory of one
# pass while leaving the per-call overhead of NumPy's stacked LAPACK
# wrappers small next to the work of each stack.
CHUNK_TRIALS = 64

# Search constants: proposal scale relative to ||M||_F, halving on
# non-improvement, restart after this many consecutive stalls.
SEARCH_STEP_SCALE = 0.05
SEARCH_STALL_LIMIT = 50


def parse_inequality_id(text):
    """Normalize an inequality id (case/underscore tolerant)."""
    key = str(text).strip().lower()
    if key not in _ID_ALIASES:
        raise ConfigError(f"unknown inequality-id {text!r}; expected one of {INEQUALITY_IDS}")
    return _ID_ALIASES[key]


def _normalize_ensemble(obj):
    obj = dict(obj or {})
    known = {"kind", "condition-target", "field", "rank", "epsilon-scale"}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown ensemble keys {sorted(unknown)}")
    kind = obj.get("kind", KIND_PD)
    if kind not in (KIND_PD, KIND_PSD, KIND_COMMUTING):
        raise ConfigError(f"ensemble kind must be pd, psd, or commuting, got {kind!r}")
    eps = obj.get("epsilon-scale")
    if eps is None and kind == KIND_PSD:
        eps = DEFAULT_EPSILON_SCALE
    return {
        "kind": kind,
        "condition-target": float(obj.get("condition-target", 100.0)),
        "field": obj.get("field", "complex"),
        "rank": obj.get("rank"),
        "epsilon-scale": eps,
    }


@dataclass
class CampaignConfig:
    """Inputs of one campaign; JSON field names mirror the attributes
    with hyphens (``inequality-id``, ``m-values``, ``t-grid``, ...,
    ``relTol``/``absTol`` for the tolerances)."""

    inequality_id: str
    trials: int = 100
    dims: tuple = (2, 4)
    m_values: tuple = (1, 2)
    t_grid: tuple = DEFAULT_T_GRID
    r_grid: tuple = DEFAULT_R_GRID
    s_grid: tuple = DEFAULT_S_GRID
    norm_specs: tuple = (NormSpec.schatten(2.0),)
    ensemble: dict = field(default_factory=lambda: _normalize_ensemble(None))
    root_seed: int = 0
    rel_tol: float = REL_TOL
    abs_tol: float = ABS_TOL
    printed_form: bool = True
    output_path: str | None = None
    output_format: str = "json"
    functions: tuple = ()
    direction: str | None = None

    def __post_init__(self):
        self.inequality_id = parse_inequality_id(self.inequality_id)
        self.dims = tuple(int(n) for n in self.dims)
        self.m_values = tuple(int(m) for m in self.m_values)
        self.t_grid = tuple(float(t) for t in self.t_grid)
        self.r_grid = tuple(float(r) for r in self.r_grid)
        self.s_grid = tuple(float(s) for s in self.s_grid)
        self.norm_specs = tuple(
            n if isinstance(n, NormSpec) else NormSpec.parse(n) for n in self.norm_specs
        )
        self.ensemble = _normalize_ensemble(self.ensemble)
        self.functions = tuple(str(f) for f in self.functions)
        self.validate()

    def validate(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.dims or any(n < 1 for n in self.dims):
            raise ConfigError("dims must be a nonempty list of positive integers")
        for spec in self.norm_specs:
            if spec.kind == KY_FAN and spec.k > min(self.dims):
                raise ConfigError(f"norm {spec} needs n >= {spec.k}; dims holds {min(self.dims)}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigError("relTol and absTol must be positive")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output-format must be 'json' or 'csv', got {self.output_format!r}")
        for name, grid in self._axes():
            if not grid:
                raise ConfigError(f"grid {name!r} must be nonempty for {self.inequality_id}")
        for function_id in self.functions if self.inequality_id == BOURIN_UCHIYAMA else ():
            try:
                usable = self.direction in resolve_function(function_id)[1]
            except UnregisteredFunctionError as exc:
                raise ConfigError(exc.args[0]) from None
            if not usable:
                raise ConfigError(f"BourinUchiyama function {function_id!r} is not {self.direction!r}"
                                  "; direction must be convex|concave and fit every function")
        if self.inequality_id == LEMMA_CHAIN and self.ensemble["kind"] == KIND_PSD:
            raise ConfigError("LemmaChain requires strictly positive definite inputs; "
                              "use a pd or commuting ensemble")
        if self.inequality_id == PROOF_STEPS and min(self.r_grid) < 1.0:
            raise ConfigError(f"ProofSteps requires every r >= 1 (the convexity step needs it); "
                              f"r-grid has {min(self.r_grid)!r}")

    def _axes(self):
        """Applicable grid axes, in iteration (and emission) order."""
        if self.inequality_id == LEMMA_CHAIN:
            return [("n", self.dims), ("t", self.t_grid), ("r", self.r_grid),
                    ("s", self.s_grid), ("norm", self.norm_specs)]
        if self.inequality_id == AUDENAERT:
            return [("n", self.dims), ("m", self.m_values), ("norm", self.norm_specs)]
        if self.inequality_id == BOURIN_UCHIYAMA:
            return [("n", self.dims), ("m", self.m_values), ("f", self.functions),
                    ("norm", self.norm_specs)]
        return [("n", self.dims), ("m", self.m_values), ("t", self.t_grid),
                ("r", self.r_grid), ("norm", self.norm_specs)]

    def grid_size(self):
        size = 1
        for _, grid in self._axes():
            size *= len(grid)
        return size

    def grid_points(self):
        names = [name for name, _ in self._axes()]
        for combo in itertools.product(*[grid for _, grid in self._axes()]):
            yield dict(zip(names, combo))

    @classmethod
    def from_obj(cls, obj):
        mapping = {
            "inequality-id": "inequality_id",
            "trials": "trials",
            "dims": "dims",
            "m-values": "m_values",
            "t-grid": "t_grid",
            "r-grid": "r_grid",
            "s-grid": "s_grid",
            "norm-specs": "norm_specs",
            "ensemble": "ensemble",
            "root-seed": "root_seed",
            "relTol": "rel_tol",
            "absTol": "abs_tol",
            "printed-form": "printed_form",
            "output-path": "output_path",
            "output-format": "output_format",
            "functions": "functions",
            "direction": "direction",
        }
        unknown = set(obj) - set(mapping)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "inequality-id" not in obj:
            raise ConfigError("config is missing 'inequality-id'")
        kwargs = {mapping[k]: v for k, v in obj.items()}
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))

    def to_obj(self):
        return {
            "inequality-id": self.inequality_id,
            "trials": self.trials,
            "dims": list(self.dims),
            "m-values": list(self.m_values),
            "t-grid": list(self.t_grid),
            "r-grid": list(self.r_grid),
            "s-grid": list(self.s_grid),
            "norm-specs": [str(n) for n in self.norm_specs],
            "ensemble": dict(self.ensemble),
            "root-seed": self.root_seed,
            "relTol": self.rel_tol,
            "absTol": self.abs_tol,
            "printed-form": self.printed_form,
            "output-path": self.output_path,
            "output-format": self.output_format,
            "functions": list(self.functions),
            "direction": self.direction,
        }


@dataclass
class CampaignSummary:
    """Aggregate of one report stream.

    ``held + violated + indeterminate == total``: a report with a
    non-finite term, margin or fan margin is indeterminate, neither held
    nor violated.  ``min_margin`` is the least margin over the finite
    reports, attained at ``min_margin_params`` (inf and ``{}`` when there
    is none).
    """

    total: int
    held: int
    violated: int
    indeterminate: int
    min_margin: float
    min_margin_params: dict
    wall_time: float

    def to_obj(self):
        return {
            "total": self.total,
            "held": self.held,
            "violated": self.violated,
            "indeterminate": self.indeterminate,
            "min-margin": self.min_margin,
            "min-margin-params": self.min_margin_params,
            "wall-time": self.wall_time,
        }

    def to_json(self):
        return json.dumps(self.to_obj())


def summarize(reports, wall_time=0.0):
    """Recompute a CampaignSummary from a report stream (a ReportStream's from its arrays)."""
    if isinstance(reports, ReportStream):
        held, finite, worst = reports._verdicts()
    else:
        finite_reports = [r for r in reports if r.is_finite()]
        held, finite = sum(1 for r in finite_reports if r.holds), len(finite_reports)
        worst = min(finite_reports, key=lambda r: r.min_margin()) if finite_reports else None
    return CampaignSummary(
        total=len(reports),
        held=held,
        violated=finite - held,
        indeterminate=len(reports) - finite,
        min_margin=worst.min_margin() if worst else float("inf"),
        min_margin_params=dict(worst.params, **{"inequality-id": worst.inequality_id})
        if worst else {},
        wall_time=wall_time,
    )


def _ensemble_spec(config, n, seed, kind=None):
    ens = config.ensemble
    return EnsembleSpec(
        dim=n,
        kind=kind or ens["kind"],
        condition_target=ens["condition-target"],
        field=ens["field"],
        seed=seed,
        rank=(None if ens["rank"] is None else int(ens["rank"])),
    )


def _build_inputs(config, n, m, inst_seed):
    """Matrix lists for one instance; pure function of (config, n, m, seed).

    Given a tuple of instance seeds, the inputs of all of them as one
    stacked draw: arrays (A, B) of shape (T, m, n, n), B of shape
    (T, 0, n, n) for Bourin-Uchiyama, whose row k holds the lists of seed k.
    """
    seeds = inst_seed if isinstance(inst_seed, tuple) else (inst_seed,)
    kind = config.ensemble["kind"]
    if config.inequality_id == AUDENAERT or kind == KIND_COMMUTING:
        spec = _ensemble_spec(config, n, tuple(split_seed(seed, i) for seed in seeds
                                                for i in range(m)), kind=KIND_COMMUTING)
        a, b = (x.reshape(len(seeds), m, n, n) for x in random_commuting_pair(spec))
    else:
        gen = random_psd_rank_deficient if kind == KIND_PSD else random_pd
        sides = 1 if config.inequality_id == BOURIN_UCHIYAMA else 2
        spec = _ensemble_spec(config, n, tuple(split_seed(seed, 2 * i + side) for seed in seeds
                                                for i in range(m) for side in range(sides)))
        x = gen(spec).reshape(len(seeds), m, sides, n, n)
        a, b = x[:, :, 0], (x[:, :, 1] if sides == 2 else x[:, :0, 0])
    if isinstance(inst_seed, tuple):
        return a, b
    return list(a[0]), list(b[0])


def _stack_reports(config, grid, a, b, seeds, mask_failures=False):
    """The reports of a stack of instances over ``grid`` (axis -> values), as arrays."""
    return stack_reports(config.inequality_id, a, b, grid, seeds,
                         printed_form=config.printed_form,
                         epsilon_scale=config.ensemble["epsilon-scale"],
                         direction=config.direction, rel_tol=config.rel_tol,
                         abs_tol=config.abs_tol, mask_failures=mask_failures)


def run_check(config, point, a_list, b_list, seed=None):
    """Evaluate one grid point; the campaign's kernel on a stack of one."""
    grid = {axis: (value,) for axis, value in point.items()}
    return _build_report(_stack_reports(config, grid, [a_list], [b_list], (seed,)))


class ReportStream(Sequence):
    """A campaign's reports in (trial, grid point) order, kept as the reduced
    blocks of its stacks (one list per chunk of trials): reports are built
    when they are read, while :func:`summarize` reads the arrays."""

    def __init__(self, chunks, trials, grid_size):
        self._chunks, self._trials, self._grid_size = chunks, trials, grid_size

    def __len__(self):
        return self._trials * self._grid_size

    def _trial(self, trial):
        for block in self._chunks[trial // CHUNK_TRIALS]:
            yield from _instance_reports(block, trial % CHUNK_TRIALS, trial=trial)

    def __iter__(self):
        return itertools.chain.from_iterable(map(self._trial, range(self._trials)))

    def __getitem__(self, index):
        trial, offset = divmod(range(len(self))[index], self._grid_size)
        return next(itertools.islice(self._trial(trial), offset, None))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def _verdicts(self):
        """(held, finite, the first finite report of least margin or None)."""
        # Per chunk, the least margins as (trials, grid size), inf where a
        # report is not finite: the flat order is stream order.
        lowest = np.concatenate([np.concatenate([
            np.where(b.finite, b.margins.min(axis=2), np.inf).reshape(-1, len(b.seeds)).T
            for b in blocks], axis=1).ravel() for blocks in self._chunks])
        worst = int(lowest.argmin())
        return (sum(int(b.holds.sum()) for blocks in self._chunks for b in blocks),
                int(np.isfinite(lowest).sum()), self[worst] if lowest[worst] < np.inf else None)


def run_campaign(config):
    """Execute a campaign.

    Within each chunk of ``CHUNK_TRIALS`` trials, the instances of each
    (n, m) group are drawn as one stack and evaluated in one pass over the
    remaining axes (see :func:`stack_reports`).  An instance that fails the
    strict positive-definite check, the PSD clamp or f is reported with NaN
    terms (indeterminate) instead of aborting the campaign.

    Returns
    -------
    (CampaignSummary, ReportStream)
        Exactly ``trials * grid_size`` reports, ordered by
        (trial, grid point); the stream is a pure function of the config.
    """
    config.validate()
    start = time.perf_counter()
    chunks = []
    dims_index = {n: i for i, n in enumerate(config.dims)}
    m_index = {m: i for i, m in enumerate(config.m_values)}
    # The instance axes n and m lead every grid and the norm ends it; a
    # chain without an m axis seeds its instances with m index 0.
    axes = dict(config._axes())
    groups = [(n, m, dims_index[n], m_index[m] if "m" in axes else 0)
              for n, m in itertools.product(axes["n"], axes.get("m", (1,)))]
    grid = {name: values for name, values in axes.items() if name not in ("n", "m")}
    for first in range(0, config.trials, CHUNK_TRIALS):
        trials = range(first, min(first + CHUNK_TRIALS, config.trials))
        trial_seeds = [split_seed(config.root_seed, trial) for trial in trials]
        blocks = []
        for n, m, n_index, m_idx in groups:
            seeds = tuple(split_seed(split_seed(seed, n_index), m_idx) for seed in trial_seeds)
            a, b = _build_inputs(config, n, m, seeds)
            blocks.append(_stack_reports(config, grid, a, b, seeds, mask_failures=True))
        chunks.append(blocks)
    stream = ReportStream(chunks, config.trials, config.grid_size())
    return summarize(stream, wall_time=time.perf_counter() - start), stream


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def render_reports(reports, output_format):
    """Render a report stream to text (line-delimited JSON or CSV)."""
    if output_format == "json":
        return "".join(r.to_json() + "\n" for r in reports)
    if output_format != "csv":
        raise ConfigError(f"output-format must be 'json' or 'csv', got {output_format!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        p = r.params
        row = [r.inequality_id, p.get("trial"), p.get("m"), p.get("n"), p.get("t"), p.get("r"),
               p.get("s"), p.get("norm-spec"), p.get("function-id"), p.get("seed"),
               p.get("printed-form"), r.regularization_epsilon, r.holds,
               *(value for _, value in r.terms)]
        row += [None] * (18 - len(row)) + list(r.margins) + [None] * (4 - len(r.margins))
        # csv writes None as an empty cell and any other value through str().
        writer.writerow(["true" if c is True else "false" if c is False else c for c in row])
    return buf.getvalue()


def emit_report(reports, output_format, path):
    """Write a report stream to ``path``; errors carry the path context."""
    text = render_reports(reports, output_format)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report stream to {path!r}: {exc}") from exc
    return path


def load_reports(path):
    """Read back a line-delimited JSON report stream."""
    with open(path) as fh:
        return [InequalityReport.from_json(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

@dataclass
class SearchReport:
    """Outcome of one hill-descent search on a fixed inequality target."""

    inequality_id: str
    params: dict
    steps: int
    evaluations: int
    restarts: int
    best_margin: float
    violation_found: bool
    best_instance: dict
    best_report: dict
    wall_time: float

    def to_obj(self):
        return {
            "inequality-id": self.inequality_id,
            "params": self.params,
            "steps": self.steps,
            "evaluations": self.evaluations,
            "restarts": self.restarts,
            "best-margin": self.best_margin,
            "violation-found": self.violation_found,
            "best-instance": self.best_instance,
            "best-report": self.best_report,
            "wall-time": self.wall_time,
        }

    def to_json(self):
        return json.dumps(self.to_obj())


def instance_to_obj(a_list, b_list):
    return {
        "a-list": [matrix_to_obj(a, field="complex") for a in a_list],
        "b-list": [matrix_to_obj(b, field="complex") for b in b_list],
    }


def instance_from_obj(obj):
    return ([matrix_from_obj(o) for o in obj["a-list"]],
            [matrix_from_obj(o) for o in obj["b-list"]])


def _search_target(config):
    for name, grid in config._axes():
        if name != "norm" and len(grid) != 1:
            raise ConfigError(f"search requires a single-point grid for {name!r}, got {len(grid)}")
    if len(config.norm_specs) != 1:
        raise ConfigError("search requires exactly one norm spec")
    return next(iter(config.grid_points()))


def _perturb(stream, a_list, b_list, scale, clamp_floor):
    """Add one random Hermitian step to one matrix and re-project."""
    a_list = list(a_list)
    b_list = list(b_list)
    total = len(a_list) + len(b_list)
    pick = stream.integers(total)
    side, idx = (a_list, pick) if pick < len(a_list) else (b_list, pick - len(a_list))
    m = side[idx]
    n = m.shape[0]
    step = stream.complex_normals(n * n).reshape(n, n)
    step = hermitian_part(step, require=False)
    norm = float(np.linalg.norm(step))
    if norm > 0.0:
        step *= scale * float(np.linalg.norm(m)) / norm
    cand = m + step
    w, v = np.linalg.eigh(hermitian_part(cand, require=False))
    floor = clamp_floor * max(float(w.max()), 1e-30)
    w = np.maximum(w, floor)
    side[idx] = hermitian_part((v * w) @ v.conj().T, require=False)
    return a_list, b_list


def search_counterexample(config, steps):
    """Random-restart hill descent on the minimum margin of one target.

    From a random instance, small Hermitian perturbations
    (``0.05 ||M||_F``, halved on non-improvement, restart after 50 stalls)
    are accepted when they decrease the minimum margin.  Returns the most
    negative margin found with its full instance; when no violation is
    found the smallest observed margin and its instance are returned.
    """
    config.validate()
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    point = _search_target(config)
    n = point["n"]
    m = point.get("m", 1)
    # PD inputs stay strictly positive under perturbation; PSD stress
    # targets clamp at zero and rely on the regularized mean.
    clamp_floor = 0.0 if config.ensemble["kind"] == KIND_PSD else 1e-12

    start = time.perf_counter()
    stream = Stream(split_seed(config.root_seed, 0x5EA2C8))

    def fresh(restart_index):
        inst_seed = split_seed(split_seed(config.root_seed, restart_index), 0)
        return _build_inputs(config, n, m, inst_seed)

    def evaluate(inst):
        report = run_check(config, point, inst[0], inst[1])
        return report.min_margin(), report

    current = fresh(0)
    cur_margin, cur_report = evaluate(current)
    best_margin, best_report, best_instance = cur_margin, cur_report, current
    evaluations = 1
    restarts = 0
    stall = 0
    step_factor = 1.0
    for _ in range(int(steps)):
        candidate = _perturb(stream, current[0], current[1],
                             SEARCH_STEP_SCALE * step_factor, clamp_floor)
        margin, report = evaluate(candidate)
        evaluations += 1
        if margin < best_margin:
            best_margin, best_report, best_instance = margin, report, candidate
        if margin < cur_margin:
            current, cur_margin = candidate, margin
            stall = 0
            step_factor = 1.0
        else:
            stall += 1
            step_factor *= 0.5
            if stall >= SEARCH_STALL_LIMIT:
                restarts += 1
                current = fresh(restarts)
                cur_margin, report = evaluate(current)
                evaluations += 1
                if cur_margin < best_margin:
                    best_margin, best_report, best_instance = cur_margin, report, current
                stall = 0
                step_factor = 1.0
    params = dict(best_report.params)
    return SearchReport(
        inequality_id=config.inequality_id,
        params=params,
        steps=int(steps),
        evaluations=evaluations,
        restarts=restarts,
        best_margin=best_margin,
        violation_found=not best_report.holds,
        best_instance=instance_to_obj(best_instance[0], best_instance[1]),
        best_report=best_report.to_obj(),
        wall_time=time.perf_counter() - start,
    )


def reevaluate_search_instance(config, search_report):
    """Re-run the target on a SearchReport's serialized instance.

    The reproduced minimum margin must match the reported one to within
    1e-12 (search soundness).
    """
    point = _search_target(config)
    a_list, b_list = instance_from_obj(search_report.best_instance
                                       if isinstance(search_report, SearchReport)
                                       else search_report["best-instance"])
    report = run_check(config, point, a_list, b_list)
    return report.min_margin(), report
