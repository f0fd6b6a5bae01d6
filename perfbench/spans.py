"""Call tracing of matsharp's layers, installed from outside the library.

Every function and method defined in a layer module is wrapped, and the
wrapper is bound wherever the original is bound: in its defining module,
in every ``matsharp`` module that imported it by name (``inequalities``
imports ``_eigh`` and ``as_matrix``, ``campaign`` imports ``random_pd``),
and in the package namespace.  Patching only the defining module would
miss those calls.

Each call records one span (function, parent span, start, end) in flat
arrays kept in memory.  A function's self time is its span time minus the
time of its child spans; a layer's self time is the sum over its
functions.  Spans are written out once, at the end of a run.
"""

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "matsharp"
LAYERS = ("ensembles", "linalg", "means", "norms", "inequalities", "campaign", "cli")

# Dunder methods worth a span; the rest (repr, eq, hash, ...) are left alone.
_TRACED_DUNDERS = {"__init__", "__post_init__", "__str__"}


def _traceable(func):
    return inspect.isfunction(func) and not inspect.isgeneratorfunction(func)


class Tracer:
    """Spans of every call into the layer modules while ``active``."""

    def __init__(self):
        self.names = []
        self._ident = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._wrappers = {}   # id(original) -> (original, wrapper)
        self._class_patches = []   # (cls, attr, original descriptor, wrapped descriptor)
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is not None:
                self._collect(layer, module)

    def _collect(self, layer, module):
        for value in list(vars(module).values()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if _traceable(value):
                self._wrappers[id(value)] = (value, self._wrap(f"{layer}.{value.__qualname__}", value))
            elif inspect.isclass(value) and not issubclass(value, (BaseException, tuple)):
                for attr, raw in list(vars(value).items()):
                    if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                        continue
                    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not _traceable(func):
                        continue
                    wrapped = self._wrap(f"{layer}.{func.__qualname__}", func)
                    if func is not raw:
                        wrapped = type(raw)(wrapped)
                    self._class_patches.append((value, attr, raw, wrapped))

    def _wrap(self, name, func):
        ident = len(self.names)
        self.names.append(name)
        idents, parents, starts, ends = self._ident, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(starts)
            idents.append(ident)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def _module_bindings(self):
        for name, module in list(sys.modules.items()):
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                for attr, value in list(vars(module).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        yield module, attr, entry

    @contextmanager
    def active(self):
        """Bind the wrappers everywhere for the duration of the block."""
        restore = []
        for module, attr, (original, wrapper) in self._module_bindings():
            setattr(module, attr, wrapper)
            restore.append((module, attr, original))
        for cls, attr, _, wrapped in self._class_patches:
            setattr(cls, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)
            for cls, attr, raw, _ in self._class_patches:
                setattr(cls, attr, raw)

    def summary(self):
        """Per-function call counts, self seconds and inclusive seconds."""
        ident = np.array(self._ident, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        duration = np.array(self._end) - np.array(self._start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        size = len(self.names)
        counts = np.bincount(ident, minlength=size)
        own = np.bincount(ident, weights=duration - child, minlength=size)
        inclusive = np.bincount(ident, weights=duration, minlength=size)
        return {name: (int(counts[i]), float(own[i]), float(inclusive[i]))
                for i, name in enumerate(self.names)}

    def span_count(self):
        return len(self._start)

    def write(self, path):
        """Write every span recorded so far as numpy arrays."""
        np.savez_compressed(path, names=np.array(self.names), function=np.array(self._ident),
                            parent=np.array(self._parent), start=np.array(self._start),
                            end=np.array(self._end))


# Per-unit call counts named by the layer metric they feed; a unit is one
# campaign report or one search evaluation.
CALL_COUNTS = {
    "linalg.eigh_per_unit": ("linalg._eigh",),
    "linalg.validate_per_unit": ("linalg.as_matrix", "linalg.hermitian_part"),
    "means.mean_per_unit": ("means._mean_from_spectra",),
    "means.regularize_per_unit": ("means.regularization_epsilon",),
    "ensembles.draws_per_unit": ("ensembles.random_pd", "ensembles.random_psd_rank_deficient",
                                 "ensembles.random_commuting_pair", "ensembles.random_hermitian"),
    "norms.svd_per_unit": ("norms.singular_values",),
    "norms.reduce_per_unit": ("norms.norm_from_singular_values",),
    "inequalities.check_per_unit": ("inequalities.check_main_theorem",
                                    "inequalities.check_proof_steps",
                                    "inequalities.check_lemma_chain",
                                    "inequalities.check_audenaert",
                                    "inequalities.check_bourin_uchiyama"),
}
# Shares of traced wall time spent inside a function, children included.
INCLUSIVE_SHARES = {
    "campaign.generate_frac": ("campaign._build_inputs",),
    "campaign.render_frac": ("campaign.render_reports",),
    "campaign.perturb_frac": ("campaign._perturb",),
}
# Shares of traced wall time spent in a function's own code.
SELF_SHARES = {
    "inequalities.report_self_frac": ("inequalities._build_report",),
}


def missing_names(names):
    """Functions the named metrics read, and layers, that the tracer did not wrap.

    A renamed or removed function would otherwise count as zero calls and
    read as a gain.
    """
    wanted = {f for table in (CALL_COUNTS, INCLUSIVE_SHARES, SELF_SHARES)
              for functions in table.values() for f in functions}
    layers = {name.split(".", 1)[0] for name in names}
    return sorted(wanted - set(names)) + [layer for layer in LAYERS if layer not in layers]


def layer_metrics(summary, units, traced_seconds):
    """Per-layer metrics from a span summary over ``units`` units of work.

    Every function the named metrics read must be in ``summary``; see
    ``missing_names``.
    """
    metrics = {}
    for name, functions in CALL_COUNTS.items():
        metrics[name] = (sum(summary[f][0] for f in functions) / units, "count")
    for name, functions in INCLUSIVE_SHARES.items():
        metrics[name] = (sum(summary[f][2] for f in functions) / traced_seconds, "ratio")
    for name, functions in SELF_SHARES.items():
        metrics[name] = (sum(summary[f][1] for f in functions) / traced_seconds, "ratio")
    covered = 0.0
    for layer in LAYERS:
        rows = [row for function, row in summary.items() if function.startswith(layer + ".")]
        own = sum(row[1] for row in rows)
        covered += own
        metrics[f"{layer}.calls_per_unit"] = (sum(row[0] for row in rows) / units, "count")
        metrics[f"{layer}.self_frac"] = (own / traced_seconds, "ratio")
        metrics[f"{layer}.self_us_per_unit"] = (own / units * 1e6, "us")
    metrics["trace.uncovered_frac"] = (1.0 - covered / traced_seconds, "ratio")
    return metrics
