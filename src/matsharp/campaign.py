"""Campaign runner and counterexample searcher.

A campaign expands a config into ``trials x |grid|`` inequality reports,
deterministically: matrices for a grid point depend only on
``(root seed, trial, dim index, m index)`` (m index 0 for the chains
without an m axis), so re-running a config reproduces the stream byte for
byte, and a trial's reports do not depend on which other trials run.

Every grid starts with the instance axes (n, and m where it applies) and
ends with the norm.  The trials are taken in chunks of ``CHUNK_TRIALS``;
within a chunk the instances of one n, at every m, are drawn in one call,
in the kernels' layout (both sides in one (sides, pairs, n, n) stack, and
each instance's m), and evaluated as that stack, in one pass over the axes after
m (t, r, s or f): for every chain, the spectra of its pairs and of their
sums are one call, and each chain term is one call over the grid values
it depends on (the pair means over every t, the main chain's terms over
every (t, r) point they vary with, the PSD terms' eigenvalues together),
each covering every pair or instance of the stack.  Every norm then
reduces those sequences into arrays, once per stack, which are split into
one block per m, where one rule gives each report its verdict code
(``inequalities._verdict``).  One generator yields the chunks in order
(:func:`_campaign_chunks`): :func:`run_campaign` keeps them all in a
:class:`ReportStream`, while ``matsharp campaign`` renders and writes each
as it comes and keeps one.  A report is built when the stream is read:
:func:`summarize` builds only the one of least margin of each chunk, and
:func:`render_reports` none.  Both read only a stream, in its blocks
(:func:`_chunks`), and rendering writes each (grid point, norm) row of a
block once per verdict, then each instance with one ``format`` call over
its cells, whose floats one ``orjson.dumps`` call writes for the whole
block (:func:`_float_texts`).  NumPy gives each slice of a stacked
call the bits of the single-matrix call, and a sum over a zero-padded pair
axis has the bits of the sum over the instance's own pairs, so the reports
are the ones the ``check_*`` predicates give instance by instance and point
by point, in (trial, grid point) order.  An instance that fails the strict
check, the PSD clamp or a Bourin-Uchiyama f gets NaN terms: its reports are
indeterminate, and the others, of its trial too, go on.

The searcher performs random-restart hill descent on the relative margin
(least margin over largest term) of one fixed grid point, with
``SEARCH_CHAINS`` chains in lockstep: each round evaluates one candidate
per chain as one stack, which checks only the moved matrices and
decomposes them with the sums that hold one in one call.

The config, the summary and the search report are JSON records like the
reports; the config refuses a value of the wrong JSON type, and a grid
value outside its domain by the kernels' own rules
(``inequalities._check_grid``), naming its key.  Every output file is
written by :func:`write_output`, in place.
"""

import csv
import functools
import io
import itertools
import json
import math
import numbers
import os
import re
import stat
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import ConfigError, UnregisteredFunctionError
from .inequalities import (
    AUDENAERT,
    BOURIN_UCHIYAMA,
    INDETERMINATE,
    INEQUALITY_IDS,
    LEMMA_CHAIN,
    TIE,
    VIOLATED,
    InequalityReport,
    _Carry,
    _check,
    _check_grid,
    _Record,
    _build_report,
    _instance_reports,
    stack_reports,
)
from .linalg import Spectrum, _symmetrize, matrix_from_obj, matrix_to_obj
from .means import DEFAULT_EPSILON_SCALE, DEFAULT_R_GRID, DEFAULT_S_GRID, DEFAULT_T_GRID
from .norms import KY_FAN, NormSpec
from .ensembles import (
    EnsembleSpec,
    KIND_COMMUTING,
    KIND_PD,
    KIND_PSD,
    Stream,
    _split_seeds,
    random_commuting_pair,
    random_pd,
    random_psd_rank_deficient,
    split_seed,
)

# Each id is accepted in lower case and in its snake_case and kebab-case
# forms ("MainTheorem", "maintheorem", "main_theorem", "main-theorem").
_ID_ALIASES = {alias: identifier for identifier in INEQUALITY_IDS
               for snake in [re.sub(r"(?<=[a-z])(?=[A-Z])", "_", identifier).lower()]
               for alias in (identifier.lower(), snake, snake.replace("_", "-"))}

# The config key of each grid axis, for the errors that name it.
_AXIS_KEYS = {"n": "dims", "m": "m-values", "t": "t-grid", "r": "r-grid", "s": "s-grid",
              "f": "functions", "norm": "norm-specs"}

# Fixed CSV layout: one margin column per chain step (longest chain has
# five terms, hence four margins); unused cells stay empty.
CSV_COLUMNS = (
    "inequality-id", "trial", "m", "n", "t", "r", "s", "norm-spec",
    "function-id", "seed", "printed-form", "regularization-epsilon", "holds",
    "term-1", "term-2", "term-3", "term-4", "term-5",
    "margin-1", "margin-2", "margin-3", "margin-4",
)
# The columns read from a report's params, the first column after them and
# the first margin column.
_CSV_TAIL = CSV_COLUMNS.index("regularization-epsilon")
_CSV_PARAMS = CSV_COLUMNS[1:_CSV_TAIL]
_CSV_MARGINS = CSV_COLUMNS.index("margin-1")

# Trials per stacked pass of ``run_campaign``; a pass holds these trials'
# instances at every m of one n.  It bounds the memory of one pass while
# leaving the per-call overhead of NumPy's stacked LAPACK wrappers small
# next to the work of each stack.
CHUNK_TRIALS = 64

# Search constants: chains run in lockstep; a chain's step, relative to
# ||M||_F, starts at SEARCH_STEP_SCALE, grows by SEARCH_STEP_GROWTH on
# acceptance up to ||M||_F itself and halves on non-improvement; a chain
# restarts after SEARCH_STALL_LIMIT consecutive stalls.  A moved PD matrix
# is clamped at SEARCH_CLAMP_FLOOR times its largest eigenvalue, so its
# condition number is at most 1e12: the floor bounds how deep a descent goes.
SEARCH_CHAINS = 16
SEARCH_STEP_SCALE = 0.05
SEARCH_STEP_GROWTH = 4.0
SEARCH_STALL_LIMIT = 50
SEARCH_CLAMP_FLOOR = 1e-12


def parse_inequality_id(text):
    """Normalize an inequality id (case/underscore tolerant)."""
    key = str(text).strip().lower()
    if key not in _ID_ALIASES:
        raise ConfigError(f"unknown inequality-id {text!r}; expected one of {INEQUALITY_IDS}")
    return _ID_ALIASES[key]


def _typed(name, value, kind, what):
    """``value``; ConfigError naming ``name`` unless it is a ``kind``.  As in
    JSON, a bool is not a number."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} takes {what}, got {value!r}")
    return value


def _integer(name, value):
    return int(_typed(name, value, numbers.Integral, "integers"))


def _number(name, value):
    value = float(_typed(name, value, numbers.Real, "numbers"))
    if not math.isfinite(value):   # JSON has no NaN or Infinity
        raise ConfigError(f"{name} takes finite numbers, got {value!r}")
    return value


def _string(name, value):
    return _typed(name, value, str, "strings")


def _norm(name, value):
    """``value`` as a NormSpec; ConfigError unless it is one or parses as one."""
    if isinstance(value, NormSpec):
        return value
    text = _string(name, value)
    try:
        return NormSpec.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _array(name, value, item):
    """A JSON array as a tuple of ``item(name, entry)``."""
    return tuple(item(name, entry) for entry in _typed(name, value, (list, tuple), "a JSON array"))


def _normalize_ensemble(obj):
    obj = dict(_typed("ensemble", obj, (dict, type(None)), "a JSON object") or {})
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
    rank, target = obj.get("rank"), obj.get("condition-target", 100.0)
    return {
        "kind": kind,
        "condition-target": _number("ensemble condition-target", target),
        "field": obj.get("field", "complex"),
        "rank": None if rank is None else _integer("ensemble rank", rank),
        "epsilon-scale": None if eps is None else _number("ensemble epsilon-scale", eps),
    }


@dataclass
class CampaignConfig(_Record):
    """Inputs of one campaign, read and written as a JSON record
    (``inequality-id``, ``m-values``, ``t-grid``, ...)."""

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
    printed_form: bool = True
    output_path: str | None = None
    output_format: str = "json"
    functions: tuple = ()
    direction: str | None = None

    def __post_init__(self):
        self.inequality_id = parse_inequality_id(self.inequality_id)
        self.trials = _integer("trials", self.trials)
        self.dims = _array("dims", self.dims, _integer)
        self.m_values = _array("m-values", self.m_values, _integer)
        self.t_grid = _array("t-grid", self.t_grid, _number)
        self.r_grid = _array("r-grid", self.r_grid, _number)
        self.s_grid = _array("s-grid", self.s_grid, _number)
        self.norm_specs = _array("norm-specs", self.norm_specs, _norm)
        self.ensemble = _normalize_ensemble(self.ensemble)
        self.functions = _array("functions", self.functions, _string)
        self.root_seed = _integer("root-seed", self.root_seed)
        _typed("printed-form", self.printed_form, bool, "true or false")
        _typed("output-path", self.output_path, (str, type(None)), "a string or null")
        _typed("direction", self.direction, (str, type(None)), "a string or null")
        self.validate()

    def validate(self):
        """Refuse, with a ConfigError naming the key, a config that cannot
        run: the direction and each grid axis go through :func:`_check_grid`,
        the rule every kernel call applies, before any draw."""
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.dims or any(n < 1 for n in self.dims):
            raise ConfigError("dims must be a nonempty list of positive integers")
        if any(m < 1 for m in self.m_values):
            raise ConfigError("m-values must be positive integers")
        eps = self.ensemble["epsilon-scale"]
        if eps is not None and not eps > 0.0:
            raise ConfigError(f"ensemble epsilon-scale must be positive, got {eps!r}")
        for n in self.dims:
            try:
                _ensemble_spec(self, n, seed=0)
            except ValueError as exc:
                raise ConfigError(f"ensemble {exc}") from None
        for spec in self.norm_specs:
            if spec.kind == KY_FAN and spec.k > min(self.dims):
                raise ConfigError(f"norm {spec} needs n >= {spec.k}; dims holds {min(self.dims)}")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output-format must be 'json' or 'csv', got {self.output_format!r}")
        for name, grid in self._axes():
            if not grid:
                raise ConfigError(f"{_AXIS_KEYS[name]} must be nonempty for {self.inequality_id}")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{_AXIS_KEYS[name]} repeats a value: {[str(x) for x in grid]}")
        try:
            _check_grid(self.inequality_id, {"f": ()}, self.direction)
        except ValueError as exc:
            raise ConfigError(f"direction: {exc.args[0]}") from None
        for name, grid in self._axes():
            try:
                _check_grid(self.inequality_id, {name: grid}, self.direction)
            except (ValueError, UnregisteredFunctionError) as exc:
                raise ConfigError(f"{_AXIS_KEYS[name]}: {exc.args[0]}") from None
        # Neither chain is regularized (Audenaert's commuting draw ignores the kind).
        if self.inequality_id in (LEMMA_CHAIN, AUDENAERT) and self.ensemble["kind"] == KIND_PSD:
            raise ConfigError(f"{self.inequality_id} requires strictly positive definite "
                              "inputs; use a pd or commuting ensemble")

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
        return math.prod(len(grid) for _, grid in self._axes())

    def grid_points(self):
        names = [name for name, _ in self._axes()]
        for combo in itertools.product(*[grid for _, grid in self._axes()]):
            yield dict(zip(names, combo))

    @classmethod
    def from_obj(cls, obj):
        unknown = set(_typed("config", obj, dict, "a JSON object")) - set(cls._keys)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "inequality-id" not in obj:
            raise ConfigError("config is missing 'inequality-id'")
        return super().from_obj(obj)


@dataclass
class CampaignSummary(_Record):
    """Aggregate of one report stream.

    ``held + violated + indeterminate == total`` by the one verdict rule
    (``inequalities._verdict``): indeterminate if a term, margin or fan
    margin is not finite, else held (``ties`` of them within the band of
    the largest term, the others clear) or violated.
    ``min_margin`` is the least margin over the finite reports, attained
    first at ``min_margin_params`` (inf and ``{}`` when there is none).
    """

    total: int
    held: int
    ties: int
    violated: int
    indeterminate: int
    min_margin: float
    min_margin_params: dict
    wall_time: float


def summarize(reports, wall_time=0.0):
    """The CampaignSummary of a :class:`ReportStream`, read chunk by chunk
    (:func:`_chunks`) from the verdict codes and margins of its blocks; of
    each chunk, only the report of least margin is built."""
    summary = _merged([_chunk_summary(blocks, trials) for trials, blocks in _chunks(reports)])
    summary.wall_time = wall_time
    return summary


def _chunk_summary(blocks, trials, wall_time=0.0):
    """The CampaignSummary of one chunk's blocks, whose instances are the
    trials of the range ``trials``: the verdict codes counted, one
    ``bincount`` per block, and the least margin, of which only the report
    is built."""
    counts = sum((np.bincount(b.verdict.ravel(), minlength=4) for b in blocks), np.zeros(4, int))
    clear, ties, violated, indeterminate = map(int, counts)
    # Each report's least margin, inf where it is not finite, as
    # (instances, rows of the chunk): the flat order is stream order.
    lowest = np.concatenate([np.where(b.verdict < INDETERMINATE, b.margins.min(axis=2), np.inf)
                             .reshape(-1, len(trials)).T for b in blocks], axis=1)
    k = int(lowest.argmin())
    low = float(lowest.flat[k])
    worst = ReportStream([blocks], trials, lowest.shape[1])[k] if low < np.inf else None
    return CampaignSummary(
        total=lowest.size,
        held=clear + ties,
        ties=ties,
        violated=violated,
        indeterminate=indeterminate,
        min_margin=low,
        min_margin_params=dict(worst.params, **{"inequality-id": worst.inequality_id})
        if worst else {},
        wall_time=wall_time,
    )


def _merged(parts):
    """One CampaignSummary of the consecutive parts of a stream, in stream
    order: counts and wall times add up, and the least margin is the one of
    the first part that attains it, so a tie goes to the first report."""
    worst = min(parts, key=lambda part: part.min_margin,
                default=CampaignSummary(0, 0, 0, 0, 0, math.inf, {}, 0.0))
    return CampaignSummary(
        *(sum(getattr(part, key) for part in parts)
          for key in ("total", "held", "ties", "violated", "indeterminate")),
        min_margin=worst.min_margin,
        min_margin_params=worst.min_margin_params,
        wall_time=sum((part.wall_time for part in parts), 0.0),
    )


def _ensemble_spec(config, n, seed, kind=None):
    ens = config.ensemble
    return EnsembleSpec(
        dim=n,
        kind=kind or ens["kind"],
        condition_target=ens["condition-target"],
        field=ens["field"],
        seed=seed,
        rank=ens["rank"],
    )


def _build_inputs(config, n, m, inst_seed):
    """Matrix lists for one instance; pure function of (config, n, m, seed).

    Given a tuple of m-values and, for each, a sequence of instance seeds
    (a tuple, or a uint64 array), the inputs of every m as one draw, in
    the kernels' layout (ab, counts): ``ab`` holds both sides of every
    pair of every instance, (2, P, n, n), instance by instance in seed
    order, one side for Bourin-Uchiyama, which takes no B-list (a
    commuting draw's B side is dropped), and ``counts`` holds each
    instance's m.  Every matrix is drawn from its own seed, so it has the
    bits of its single draw.
    """
    grouped = isinstance(m, tuple)
    ms, seed_groups = (m, inst_seed) if grouped else ((m,), ((inst_seed,),))
    kind = config.ensemble["kind"]
    commuting = config.inequality_id == AUDENAERT or kind == KIND_COMMUTING
    sides = 1 if commuting or config.inequality_id == BOURIN_UCHIYAMA else 2
    # Matrix (i, side) of an instance has stream index i if commuting, else 2 i + side.
    step = 1 if commuting else 2
    streams = tuple(np.concatenate([
        _split_seeds(np.asarray(seeds, dtype=np.uint64)[:, None, None],
                     step * np.arange(pairs)[:, None] + np.arange(sides)).ravel()
        for pairs, seeds in zip(ms, seed_groups)]).tolist())
    if commuting:
        pair = random_commuting_pair(_ensemble_spec(config, n, streams, kind=KIND_COMMUTING))
        ab = np.stack(pair[:1] if config.inequality_id == BOURIN_UCHIYAMA else pair)
    else:
        gen = random_psd_rank_deficient if kind == KIND_PSD else random_pd
        drawn = gen(_ensemble_spec(config, n, streams))
        ab = np.ascontiguousarray(drawn.reshape(-1, sides, n, n).swapaxes(0, 1))
    counts = np.repeat(ms, [len(seeds) for seeds in seed_groups])
    if grouped:
        return ab, counts
    return list(ab[0]), list(ab[1]) if len(ab) == 2 else []


def _kernel_options(config):
    """The keyword arguments of :func:`stack_reports` that ``config`` sets."""
    return {"printed_form": config.printed_form, "epsilon_scale": config.ensemble["epsilon-scale"],
            "direction": config.direction}


def run_check(config, point, a_list, b_list, seed=None):
    """Evaluate one grid point; the campaign's kernel on a stack of one."""
    return _check(config.inequality_id, a_list, b_list, point, seed, **_kernel_options(config))


class ReportStream(Sequence):
    """A campaign's reports in (trial, grid point) order, kept as the reduced
    blocks of its stacks (one list per chunk of trials): reports are built
    when they are read, while summaries and rendering read the arrays.

    ``trials`` is the range of trials the stream holds, or their number
    from trial 0.  A stream of one chunk holds the chunk's range; one that
    starts after trial 0 continues a campaign, and its CSV has no header.
    """

    def __init__(self, chunks, trials, grid_size):
        self._chunks, self._grid_size = chunks, grid_size
        self._trials = trials if isinstance(trials, range) else range(trials)

    def __len__(self):
        return len(self._trials) * self._grid_size

    def __iter__(self):
        for i, trial in enumerate(self._trials):
            for block in self._chunks[i // CHUNK_TRIALS]:
                yield from _instance_reports(block, i % CHUNK_TRIALS, trial=trial)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, int):
            i, offset = divmod(rows, self._grid_size)
            for block in self._chunks[i // CHUNK_TRIALS]:
                if offset < len(block.params) * len(block.norms):
                    return _instance_reports(block, i % CHUNK_TRIALS, offset,
                                             trial=self._trials[i])[0]
                offset -= len(block.params) * len(block.norms)
        return [self[row] for row in rows]

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


def _chunks(stream):
    """The chunks of a :class:`ReportStream`, each as the range of its trials
    and its reduced blocks; anything else is a TypeError.  Within a chunk
    the reports run in (instance, block, row) order."""
    if not isinstance(stream, ReportStream):
        raise TypeError(f"expected a ReportStream, got {type(stream).__name__}")
    trials = stream._trials
    return ((trials[first:first + CHUNK_TRIALS], blocks)
            for first, blocks in zip(range(0, len(trials), CHUNK_TRIALS), stream._chunks))


def _campaign_chunks(config):
    """A campaign, one chunk of ``CHUNK_TRIALS`` trials at a time, in trial
    order: each chunk's reduced blocks, the range of its trials and its
    summary (:func:`_chunk_summary`), whose wall time is the seconds spent
    drawing, evaluating and reducing the chunk, not summarizing it.

    Within a chunk, the instances of each n are drawn in one
    :func:`_build_inputs` call, every m at once, and evaluated as one stack
    in one pass over the remaining axes, then split into one block per m
    (see :func:`stack_reports`).  The generator keeps no chunk once it has
    yielded it.
    """
    config.validate()
    # The instance axes n and m lead every grid and the norm ends it; a
    # chain without an m axis draws one pair per instance, seeded with m
    # index 0.
    axes = dict(config._axes())
    ms = axes.get("m", (1,))
    grid = {name: values for name, values in axes.items() if name not in ("n", "m")}
    for first in range(0, config.trials, CHUNK_TRIALS):
        start = time.perf_counter()
        trials = range(first, min(first + CHUNK_TRIALS, config.trials))
        trial_seeds = _split_seeds(config.root_seed % 2 ** 64, np.arange(first, trials.stop))
        blocks = []
        for n_index, n in enumerate(axes["n"]):
            # Row i holds the instance seeds of m index i.
            seeds = _split_seeds(_split_seeds(trial_seeds, n_index), np.arange(len(ms))[:, None])
            ab, counts = _build_inputs(config, n, ms, seeds)
            blocks += stack_reports(config.inequality_id, ab, counts, grid,
                                    tuple(seeds.ravel().tolist()),
                                    mask_failures=True, **_kernel_options(config))
        yield blocks, trials, _chunk_summary(blocks, trials, time.perf_counter() - start)


def run_campaign(config):
    """Execute a campaign: collect every chunk of :func:`_campaign_chunks`.

    An instance that fails the strict positive-definite check, the PSD
    clamp or f is reported with NaN terms (indeterminate) instead of
    aborting the campaign; the other instances of its stack, its trial's
    included, are not touched.  The stream keeps every chunk's blocks, so
    its memory grows with the trials; ``matsharp campaign`` instead renders
    and writes each chunk as it comes and keeps one at a time.

    Returns
    -------
    (CampaignSummary, ReportStream)
        Exactly ``trials * grid_size`` reports, ordered by
        (trial, grid point); the stream is a pure function of the config.
        The summary merges the chunks' summaries (:func:`_merged`), and its
        wall time is the sum of theirs.
    """
    chunks, parts = [], []
    for blocks, _, summary in _campaign_chunks(config):
        chunks.append(blocks)
        parts.append(summary)
    return _merged(parts), ReportStream(chunks, config.trials, config.grid_size())


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

# A row's stand-ins, one control character each, which no id, label or
# param of a report holds: a cell, the holds, epsilon and norm text, the
# seed, the trial and, while a frame is built, the params.  json writes
# each quoted, as \u000k.
_STANDINS = _CELL, _HOLDS, _EPSILON, _NORM, _SEED, _TRIAL, _PARAMS = "\1\2\3\4\5\6\7"
_QUOTED = [(json.dumps(mark), mark) for mark in _STANDINS]


def _format_string(text):
    """``text`` as a format string: braces doubled, each stand-in as itself
    and each cell an automatic field."""
    text = text.replace("{", "{{").replace("}", "}}")
    for quoted, mark in _QUOTED:
        text = text.replace(quoted, mark)
    return text.replace(_CELL, "{}")


def _csv_lines(rows):
    """``rows`` as CSV lines without their terminators, through one writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv writes None as an empty cell and any other value through str();
    # writerow returns the length of its line.
    ends = list(itertools.accumulate(writer.writerow(
        ["true" if c is True else "false" if c is False else c for c in row]) for row in rows))
    text = buf.getvalue()
    return [text[start:end - 1] for start, end in zip([0, *ends], ends)]


@functools.lru_cache(maxsize=256)
def _row_frame(output_format, inequality_id, labels, steps, fans):
    """A row's text around its params, as format strings (before, after if
    it does not hold, after if it holds) whose automatic fields take a row's
    cells in row order: the term values, the ``steps`` margins, then in JSON
    the ``fans`` fan margins.  The epsilon text is a stand-in; a CSV row
    that overflows ``CSV_COLUMNS`` is a ValueError."""
    values, margins, params = [_CELL] * len(labels), [_CELL] * steps, _PARAMS
    if output_format == "json":
        text = InequalityReport(inequality_id, params, list(zip(labels, values)), margins,
                                _HOLDS, _EPSILON, [_CELL] * fans)
        text, params = text.to_json(), json.dumps(params)
    else:
        # The cells after the params, at their columns' offsets.
        tail = [_EPSILON, _HOLDS, *values]
        if len(tail) > _CSV_MARGINS - _CSV_TAIL or steps > len(CSV_COLUMNS) - _CSV_MARGINS:
            raise ValueError(f"the CSV layout has columns for 5 terms and 4 margins; a "
                             f"{inequality_id} row has {len(labels)} terms and {steps} margins")
        tail += [None] * (_CSV_MARGINS - _CSV_TAIL - len(tail)) + margins
        tail += [None] * (len(CSV_COLUMNS) - _CSV_TAIL - len(tail))
        text, = _csv_lines([[inequality_id, params, *tail]])
    before, after = map(_format_string, text.split(params))
    return before, *(after.replace(_HOLDS, holds) + "\n" for holds in ("false", "true"))


def _float_texts(values, output_format):
    """Each float of ``values``, in C order, as ``float.__repr__`` writes it
    (json's NaN, Infinity and -Infinity in JSON), from one ``orjson.dumps``.

    orjson (Ryu) and ``repr`` (Gay's correctly rounded conversion) both
    write the shortest digits that read back to the same double, so their
    texts differ only in notation.  Where 1e-4 <= |x| < 1e16 neither writes
    an exponent and the texts are equal; every other value (zeros, smaller
    and larger magnitudes, NaN and infinities, which orjson writes as null)
    is written by ``json.dumps`` in JSON and ``str`` in CSV.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(
        ",") if len(flat) else []
    size, spell = np.abs(flat), json.dumps if output_format == "json" else str
    for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16))).tolist():
        texts[i] = spell(float(flat[i]))
    return texts


def _block_rows(block, output_format, trials):
    """The rows of a reduced block as text, one string per instance.

    Each grid point's params are written once (in CSV, all through one
    writer) between the frame of :func:`_row_frame`, and each (point, norm)
    row gets one text per verdict, its norm written in.  An instance's rows
    are those texts joined by its verdicts, with its seed, trial and epsilon
    written in once, and one ``format`` call fills every cell from the texts
    that one :func:`_float_texts` call writes for an (instance, row, cell)
    array (in JSON, a point's fan margins repeated over its norms).  Each
    row's params end with its norm, its instance's seed and its trial, one
    of ``trials`` per instance, as :func:`_instance_reports` writes them.
    """
    json_format, fan_margins, count = output_format == "json", block.fan_margins, len(block.seeds)
    params = [dict(point, **{"norm-spec": _NORM, "seed": _SEED}, trial=_TRIAL)
              for point in block.params]
    before, *afters = _row_frame(output_format, block.inequality_id, tuple(block.labels),
                                 block.margins.shape[2], fan_margins.shape[1])
    params = map(json.dumps, params) if json_format else _csv_lines(
        [map(point.get, _CSV_PARAMS) for point in params])
    # A norm's text ("schatten:2") needs no CSV quoting.  Row i's text in
    # verdict h (0 fails, 1 holds) is texts[2 i + h].
    names = [json.dumps(str(norm)) if json_format else str(norm) for norm in block.norms]
    rows = [before + point.replace(_NORM, name) for point in map(_format_string, params)
            for name in names]
    texts = [row + after for row in rows for after in afters]
    picks = (np.arange(0, len(texts), 2) + (block.verdict <= TIE).reshape(-1, count).T).tolist()
    # The cells of a row: its values, its margins and, in JSON, its point's
    # fan margins, repeated over the norms; all go to text in one call.
    parts = [block.values, block.margins]
    if json_format:
        parts.append(np.repeat(fan_margins[:, None], len(block.norms), 1))
    cells = np.concatenate(parts, axis=2).transpose(3, 0, 1, 2).reshape(count, -1)
    width, cells = cells.shape[1], _float_texts(cells, output_format)
    eps = ["null" if json_format else ""] * count if block.epsilon is None else _float_texts(
        block.epsilon, output_format)
    return ["".join(map(texts.__getitem__, pick)).replace(_SEED, str(seed)).replace(
        _TRIAL, str(trial)).replace(_EPSILON, e).format(*cells[i * width:(i + 1) * width])
        for i, pick, seed, trial, e in zip(range(count), picks, block.seeds, trials, eps)]


def render_reports(reports, output_format):
    """Render a :class:`ReportStream` to text (line-delimited JSON or CSV).

    Both formats go through one row formatter, :func:`_block_rows`, over
    the blocks of :func:`_chunks`, with no report built.  A CSV starts with
    its header when the stream starts at trial 0, so a campaign's chunks,
    each rendered on its own as it comes, join to its whole text.
    """
    if output_format not in ("json", "csv"):
        raise ConfigError(f"output-format must be 'json' or 'csv', got {output_format!r}")
    chunks = _chunks(reports)
    header = output_format == "csv" and reports._trials.start == 0
    text = [",".join(CSV_COLUMNS) + "\n"] if header else []
    for trials, blocks in chunks:
        # One string per instance and block: the stream's order is (trial, block).
        text += itertools.chain.from_iterable(
            zip(*[_block_rows(block, output_format, trials) for block in blocks]))
    return "".join(text)


def write_output(path, text):
    """Write ``text``, a string or an iterable of strings, to ``path``: the
    one writer of every output file.  An error names the path.

    The first string is made before the file is opened, so an output refused
    while it is rendered creates no file.  Each string is written as it
    comes.  The file is opened without truncation and, if it is a regular
    file, truncated to the bytes written at the end: a re-run overwrites
    its file in place, and a longer previous file loses its tail only
    then.  A device or a pipe (``/dev/null``, a FIFO) is written, never
    truncated.  So a run stopped early leaves a partial file, which may end
    in bytes of the previous one.
    """
    texts = iter((text,) if isinstance(text, str) else text)
    first = next(texts, "")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            for part in itertools.chain((first,), texts):
                fh.write(part)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc
    return path


def emit_report(reports, output_format, path):
    """Write a report stream to ``path`` through :func:`write_output`, which
    overwrites an existing file in place; errors carry the path context."""
    return write_output(path, render_reports(reports, output_format))


def load_reports(path):
    """Read back a line-delimited JSON report stream as a list of
    :class:`InequalityReport`; a line that holds no report raises a
    ValueError naming ``path:line``."""
    reports = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            try:
                reports += [InequalityReport.from_json(line)] if line.strip() else []
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return reports


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

@dataclass
class SearchReport(_Record):
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


def instance_to_obj(a_list, b_list):
    return {
        "a-list": [matrix_to_obj(a, field="complex") for a in a_list],
        "b-list": [matrix_to_obj(b, field="complex") for b in b_list],
    }


def instance_from_obj(obj):
    """The A-list and B-list of :func:`instance_to_obj`'s object; ValueError
    naming the key unless ``a-list`` and ``b-list`` are JSON arrays."""
    if not isinstance(obj, dict):
        raise ValueError(f"an instance must be a JSON object, got {obj!r}")
    for key in ("a-list", "b-list"):
        if key not in obj:
            raise ValueError(f"instance is missing key {key!r}")
        if not isinstance(obj[key], list):
            raise ValueError(f"instance {key!r} must be a JSON array, got {obj[key]!r}")
    return ([matrix_from_obj(o) for o in obj["a-list"]],
            [matrix_from_obj(o) for o in obj["b-list"]])


def _grid_point(config):
    """The one grid point of a config whose every axis holds one value."""
    for name, grid in config._axes():
        if name != "norm" and len(grid) != 1:
            raise ConfigError(f"search requires a single-point grid for {name!r}, got {len(grid)}")
    if len(config.norm_specs) != 1:
        raise ConfigError("search requires exactly one norm spec")
    return next(iter(config.grid_points()))


def _search_target(config):
    """The grid point a search descends on.  Audenaert is refused: a step
    moves A_i and B_i apart, so the pairs would stop commuting."""
    if config.inequality_id == AUDENAERT:
        raise ConfigError(f"search cannot take inequality-id {AUDENAERT!r}: "
                          "a perturbation breaks its commuting hypothesis")
    return _grid_point(config)


def _perturb(stream, ab, scale, clamp_floor):
    """One random Hermitian step for each of C chains, re-projected.

    ``ab`` holds the chains' A- and B-lists (2, C, m, n, n), one side for
    Bourin-Uchiyama, and ``scale`` each chain's step relative to ||M||_F.
    Each chain moves one matrix M, picked uniformly from its A- and B-list:
    ``stream`` gives the picks, then every step as one draw, each in chain
    order.  The moved M is clamped at ``clamp_floor`` times its largest
    eigenvalue and rebuilt exactly Hermitian; the kernel checks it.
    """
    chains, n = ab.shape[1], ab.shape[-1]
    both = ab.swapaxes(0, 1).reshape(chains, -1, n, n)
    picks = np.ceil(stream.uniforms(chains) * both.shape[1]).astype(int) - 1
    rows = np.arange(chains)
    moved = both[rows, picks]
    step = _symmetrize(stream.complex_normals(chains * n * n).reshape(chains, n, n))
    norm = np.linalg.norm(step, axis=(-2, -1))
    step *= np.divide(scale * np.linalg.norm(moved, axis=(-2, -1)), norm,
                      out=np.zeros(chains), where=norm > 0.0)[:, None, None]
    moved = moved + step
    w, v = np.linalg.eigh(_symmetrize(moved))
    w = np.maximum(w, clamp_floor * np.maximum(w.max(axis=-1), 1e-30)[:, None])
    both[rows, picks] = Spectrum(w, v).assemble(w)
    return both.reshape(chains, len(ab), -1, n, n).swapaxes(0, 1)


def _relative_margins(block):
    """Each instance's least margin over its largest term, in a block of one
    point and one norm: the margin where the largest term is 0, and +inf
    where a term or margin is not finite."""
    low, scale = block.margins[0, 0].min(axis=0), block.values[0, 0].max(axis=0)
    with np.errstate(invalid="ignore"):
        ratio = low / np.where(scale > 0.0, scale, 1.0)
    return np.where(block.verdict[0, 0] < INDETERMINATE, ratio, np.inf)


def search_counterexample(config, steps):
    """Random-restart hill descent on the relative margin of one target.

    ``C = min(SEARCH_CHAINS, steps)`` chains descend in lockstep, chain i
    starting from restart draw i, and after those draws each of
    ``ceil(steps / C)`` rounds evaluates one candidate per chain, all C as
    one stack: ``C (ceil(steps / C) + 1)`` evaluations, not ``steps`` (64
    for 40 steps).  A chain's candidate is a Hermitian perturbation of one
    of its matrices M (see :func:`_perturb`), of size ``0.05 ||M||_F`` at
    first, grown 4x on acceptance up to ``||M||_F`` and halved on
    non-improvement; a chain that stalled 50 rounds offers the next unused
    restart draw instead.  A round decomposes only the moved M, its pair's
    means and the sum of M's side, and carries the rest from the chain's
    state, the other side's sum included (``inequalities._Carry``); a
    restarted chain is decomposed whole.  On PD inputs a moved matrix is
    clamped to condition number at most 1e12 (``SEARCH_CLAMP_FLOOR``),
    which bounds how deep a descent can go.  A candidate is accepted when it
    lowers its chain's relative margin, the least margin over the largest
    term, which scaling the inputs does not move.  A candidate that fails a
    spectral check or overflows is masked: it is never accepted and never
    best.

    The report is the instance of least relative margin (the first, on a
    tie), built from the block it was evaluated in; ``best_margin`` is its
    least margin, NaN when every instance evaluated was masked, which is
    no violation.  ``evaluations`` counts the instances evaluated, the C
    initial draws included.
    """
    config.validate()
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    point = _search_target(config)
    n, m = point["n"], point.get("m", 1)
    grid = {axis: (value,) for axis, value in point.items()}
    chains = min(SEARCH_CHAINS, int(steps))
    rounds = -(-int(steps) // chains)
    # PD inputs stay strictly positive under perturbation; PSD stress
    # targets clamp at zero and rely on the regularized mean.
    clamp_floor = 0.0 if config.ensemble["kind"] == KIND_PSD else SEARCH_CLAMP_FLOOR

    start = time.perf_counter()
    stream = Stream(split_seed(config.root_seed, 0x5EA2C8))

    def fresh(first, count):
        """Restart draws first, ..., first + count - 1 as one stack (sides, count, m, n, n)."""
        trials = _split_seeds(config.root_seed % 2 ** 64, np.arange(first, first + count))
        ab, _ = _build_inputs(config, n, (m,), (_split_seeds(trials, 0),))
        return ab.reshape(-1, count, m, n, n)

    ab = fresh(0, chains)
    current = np.full(chains, np.inf)
    stall = np.zeros(chains, dtype=int)
    scale = np.full(chains, SEARCH_STEP_SCALE)
    restarts, best, carry = 0, None, _Carry()
    for round_index in range(rounds + 1):
        restart = (stall >= SEARCH_STALL_LIMIT) & (round_index > 0)
        if restart.any():
            count = int(restart.sum())
            ab[:, restart] = fresh(chains + restarts, count)
            restarts += count
            current[restart], stall[restart], scale[restart] = np.inf, 0, SEARCH_STEP_SCALE
        cand = ab.copy()
        if round_index and not restart.all():
            cand[:, ~restart] = _perturb(stream, ab[:, ~restart], scale[~restart], clamp_floor)
        block, = stack_reports(config.inequality_id, cand.reshape(len(cand), -1, n, n),
                               (m,) * chains, grid, (None,) * chains, mask_failures=True,
                               carry=carry, **_kernel_options(config))
        objective = _relative_margins(block)
        k = int(objective.argmin())
        if best is None or objective[k] < best[0]:
            best = objective[k], block, k, cand[:, k]
        accept = objective < current
        ab[:, accept], current[accept] = cand[:, accept], objective[accept]
        # The carry keeps each chain's state: its candidate if accepted or restarted.
        carry.commit(accept | restart)
        stall = np.where(accept, 0, stall + 1)
        scale = np.where(accept, np.minimum(SEARCH_STEP_GROWTH * scale, 1.0), 0.5 * scale)
    _, block, k, best_ab = best
    report = _build_report(block, k=k)
    return SearchReport(
        inequality_id=config.inequality_id,
        params=report.params,
        steps=int(steps),
        evaluations=chains * (rounds + 1),
        restarts=restarts,
        best_margin=float(np.min(block.margins[0, 0, :, k])),
        violation_found=bool(block.verdict[0, 0, k] == VIOLATED),
        best_instance=instance_to_obj(best_ab[0], best_ab[1:].reshape(-1, n, n)),
        best_report=report.to_obj(),
        wall_time=time.perf_counter() - start,
    )


def reevaluate_search_instance(config, search_report):
    """Re-run the target on a SearchReport's serialized instance.

    The reproduced minimum margin (NaN when any margin is NaN) equals the
    reported one (search soundness): a slice of the search's stacked kernel
    call has the bits of this stack-of-one call.
    """
    point = _search_target(config)
    a_list, b_list = instance_from_obj(search_report.best_instance
                                       if isinstance(search_report, SearchReport)
                                       else search_report["best-instance"])
    report = run_check(config, point, a_list, b_list)
    return float(np.min(report.margins)), report
