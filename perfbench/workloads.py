"""The benchmark's workloads: what one block of work is, and its gates.

A block is one call into a public entry point: ``matsharp.cli.main``
running a campaign for the campaign workloads, ``search_counterexample``
for the search workload.  Every block of a campaign run repeats the same
config, so every block must render to the same stream digest.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

# Relative agreement required between a report's terms and the 40-digit
# mpmath oracle, as in the library's own oracle tests; float64 rounding
# through the chain at n <= 6 and condition number 100 stays near 1e-14.
ORACLE_RTOL = 1e-10
ORACLE_SAMPLE = 8
# Search soundness: the serialized best instance reproduces its margin.
SEARCH_REPRODUCE_ATOL = 1e-12


@dataclass
class Block:
    """Outcome of one entry-point call."""

    seconds: float          # wall time of the call, measured by the benchmark
    library_seconds: float  # wall time the library reports for its own loop
    units: int              # campaign reports or search evaluations
    reports: int            # reports delivered: stream rows, or one search report
    failures: list = field(default_factory=list)


def min_step_ratio(values):
    """Smallest ratio of a chain term to the term before it (< 1: violated)."""
    return min(right / left for left, right in zip(values, values[1:]))


class CampaignWorkload:
    """A campaign driven through ``matsharp.cli.main``."""

    def __init__(self, name, config, matsharp, workdir, seed):
        self.matsharp = matsharp
        self.config = dict(config, **{"root-seed": seed})
        self.config_path = workdir / f"{name}.json"
        self.out_path = workdir / f"{name}.out"
        self.config_path.write_text(json.dumps(self.config))
        parsed = matsharp.campaign.CampaignConfig.from_obj(self.config)
        self.expected = parsed.trials * parsed.grid_size()
        self.seed = seed
        self.digests = []
        self.ratio = None

    def block(self, index=None, context=None):
        """Run the campaign once; every block of a run is the same campaign.

        ``context`` (a tracer's ``active()``) is entered around the call only.
        """
        captured = io.StringIO()
        argv = ["campaign", "--config", str(self.config_path), "--out", str(self.out_path)]
        with contextlib.redirect_stdout(captured), context or contextlib.nullcontext():
            start = time.perf_counter()
            code = self.matsharp.cli.main(argv)
            seconds = time.perf_counter() - start
        failures = []
        if code != 0:
            failures.append(f"cli exit code {code}")
        summary = {}
        try:
            summary = json.loads(captured.getvalue().strip().splitlines()[-1])
        except (ValueError, IndexError):
            failures.append("cli printed no summary")
        if summary.get("total") != self.expected:
            failures.append(f"summary total {summary.get('total')} != {self.expected}")
        if summary.get("violated") != 0:
            failures.append(f"{summary.get('violated')} violated reports")
        digest = hashlib.sha256(self.out_path.read_bytes()).hexdigest()[:16]
        if self.digests and digest != self.digests[0]:
            failures.append(f"stream digest {digest} != first {self.digests[0]}")
        self.digests.append(digest)
        return Block(seconds, float(summary.get("wall-time", seconds)), self.expected,
                     self.expected, failures)

    def _rows(self):
        """(params, term values, margins, holds) of every written report."""
        text = self.out_path.read_text()
        if self.config["output-format"] == "json":
            for line in text.splitlines():
                obj = json.loads(line)
                yield (obj["params"], [v for _, v in obj["terms"]], obj["margins"], obj["holds"])
            return
        for row in csv.DictReader(io.StringIO(text)):
            terms = [float(row[f"term-{i}"]) for i in range(1, 6) if row[f"term-{i}"]]
            margins = [float(row[f"margin-{i}"]) for i in range(1, 5) if row[f"margin-{i}"]]
            yield row, terms, margins, row["holds"] == "true"

    def check_first(self):
        """Gates on the written stream, run on the first block only."""
        failures = []
        rows = list(self._rows())
        if len(rows) != self.expected:
            failures.append(f"{len(rows)} reports written, expected {self.expected}")
        bad = sum(1 for _, terms, margins, holds in rows
                  if not holds or not all(math.isfinite(x) for x in terms + margins))
        if bad:
            failures.append(f"{bad} reports not held or not finite")
        self.ratio = min(min_step_ratio(terms) for _, terms, _, _ in rows)
        return failures

    def check_oracle(self, oracle):
        """Re-check a seeded sample of reports against the mpmath oracle."""
        rows = list(self._rows())
        campaign = self.matsharp.campaign
        config = campaign.CampaignConfig.from_obj(self.config)
        failures = []
        for index in sorted(random.Random(self.seed).sample(range(len(rows)), ORACLE_SAMPLE)):
            params, terms, _, _ = rows[index]
            a_list, b_list = campaign._build_inputs(config, params["n"], params["m"],
                                                    params["seed"])
            spec = self.matsharp.norms.NormSpec.parse(params["norm-spec"])
            want = [float(v) for v in oracle.main_theorem_values(
                a_list, b_list, params["t"], params["r"], spec)]
            if len(terms) != len(want):
                failures.append(f"report {index} has {len(terms)} terms, the oracle {len(want)}")
                continue
            error = max(abs(g - w) / abs(w) for g, w in zip(terms, want))
            if not error <= ORACLE_RTOL:
                failures.append(f"report {index} differs from the oracle by {error:.2e}")
        return failures

    def quality(self):
        return self.ratio

    def record(self):
        return {"config": self.config, "digests": self.digests}


class SearchWorkload:
    """Seeded ``search_counterexample`` runs over a fixed set of configs.

    Timed blocks cycle over short searches: a 2000-step search takes about
    2.5 s, and over that long the machine's speed drifts more than the
    probe around the block can follow.  Search quality comes from the long
    searches, run once each, untimed, by ``check_first``.
    """

    def __init__(self, config, block_steps, quality_steps, searches, matsharp, seed):
        self.matsharp = matsharp
        self.block_steps = block_steps
        self.quality_steps = quality_steps
        split_seed = matsharp.ensembles.split_seed
        self.configs = [dict(config, **{"root-seed": split_seed(seed, k)})
                        for k in range(searches)]
        self.config = self.configs[0]
        self.next_search = 0
        self.digests = {}   # search index -> digest of its short search
        self.ratio = None

    def _search(self, k, steps, context=None):
        """Run search ``k``; the report, its seconds, digest and gate failures."""
        campaign = self.matsharp.campaign
        config = campaign.CampaignConfig.from_obj(self.configs[k])
        with context or contextlib.nullcontext():
            start = time.perf_counter()
            report = campaign.search_counterexample(config, steps)
            seconds = time.perf_counter() - start
        obj = report.to_obj()
        del obj["wall-time"]
        digest = hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]
        failures = []
        margin, _ = campaign.reevaluate_search_instance(config, report)
        terms = [value for _, value in report.best_report["terms"]]
        if not all(math.isfinite(x) for x in terms + [report.best_margin]):
            failures.append(f"search {k} ({steps} steps): non-finite best report")
        if not abs(margin - report.best_margin) <= SEARCH_REPRODUCE_ATOL:
            failures.append(f"search {k} ({steps} steps): instance gives {margin!r}, "
                            f"report says {report.best_margin!r}")
        return report, seconds, digest, failures

    def block(self, index=None, context=None):
        """Run short search ``index``, or the next one of the set in turn."""
        k = self.next_search if index is None else index
        if index is None:
            self.next_search = (k + 1) % len(self.configs)
        report, seconds, digest, failures = self._search(k, self.block_steps, context)
        first = self.digests.setdefault(k, digest)
        if digest != first:
            failures.append(f"search {k} digest {digest} != first {first}")
        return Block(seconds, report.wall_time, report.evaluations, 1, failures)

    def check_first(self):
        """Run every long search once; the best of them is the run's quality."""
        failures, ratios = [], []
        for k in range(len(self.configs)):
            report, _, _, gate = self._search(k, self.quality_steps)
            failures += gate
            ratios.append(min_step_ratio([value for _, value in report.best_report["terms"]]))
        self.ratio = min(ratios)
        return failures

    def quality(self):
        return self.ratio

    def record(self):
        return {"config": self.configs[0], "block_steps": self.block_steps,
                "quality_steps": self.quality_steps,
                "digests": [self.digests[k] for k in sorted(self.digests)]}
