"""In-memory spans and the per-layer metrics derived from them.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``attrs`` a dict of counts recorded
at the same boundary, or None.  Spans of one run are single-threaded and
properly nested, so the children of a span cover disjoint parts of it and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import math
import time


class Tracer:
    """Records a span around each call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.last: dict = {}  # name -> last return value, for wrap(keep=True)

    def wrap(self, name: str, fn, attrs=None, keep: bool = False):
        """fn with a span named ``name`` around every call.

        ``attrs(args, kwargs, result)`` may return counts to store on the
        span; it runs after the span has ended.  ``keep`` stores the last
        result in ``self.last[name]``.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            if keep:
                self.last[name] = result
            return result

        return traced


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def durations(spans: list, name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def total_time(spans: list, name: str) -> float:
    """Summed duration of the spans called ``name``, nested repeats counted once."""
    total = 0.0
    for s in spans:
        if s[0] != name:
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += s[2] - s[1]
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def self_time(spans: list, name: str) -> float:
    own = self_times(spans)
    return sum(t for s, t in zip(spans, own) if s[0] == name)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def attr_sum(spans: list, name: str, key: str) -> float:
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def layer_metrics(spans: list, facts: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    ``facts`` holds what the traced child read off the kernel, the bound
    context and the solve result after the run (see traced_cli.py).
    """
    apply_ms = [1e3 * d for d in durations(spans, "kernel.apply")]
    comp_ms = [1e3 * d for d in durations(spans, "bounds.components")]
    simulate_s = total_time(spans, "oracle.simulate")
    paths = attr_sum(spans, "oracle.simulate", "n_paths")
    m = {
        "cli.import_s": (total_time(spans, "cli.import"), "s"),
        "cli.load_config_s": (total_time(spans, "cli.load_config"), "s"),
        "cli.write_s": (self_time(spans, "cli.run"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "solver.solve_s": (total_time(spans, "solver.solve"), "s"),
        "solver.self_s": (self_time(spans, "solver.solve"), "s"),
        "solver.discretize_initial_s": (total_time(spans, "solver.discretize_initial"), "s"),
        "solver.lift_s": (total_time(spans, "solver.lift"), "s"),
        "solver.steps": (len(apply_ms), "count"),
        "kernel.build_s": (total_time(spans, "kernel.build"), "s"),
        "kernel.apply_s": (total_time(spans, "kernel.apply"), "s"),
        "kernel.apply_ms_p50": (percentile(apply_ms, 50), "ms"),
        "kernel.apply_ms_p99": (percentile(apply_ms, 99), "ms"),
        "bounds.ctx_build_s": (total_time(spans, "bounds.ctx_build"), "s"),
        "bounds.components_s": (total_time(spans, "bounds.components"), "s"),
        "bounds.components_ms_p50": (percentile(comp_ms, 50), "ms"),
        "bounds.components_ms_p99": (percentile(comp_ms, 99), "ms"),
        "measure.wasserstein_s": (total_time(spans, "measure.wasserstein"), "s"),
        "measure.wasserstein_calls": (len(durations(spans, "measure.wasserstein")), "count"),
        "oracle.simulate_s": (simulate_s, "s"),
        "oracle.paths_per_s": (paths / simulate_s if simulate_s > 0 else 0.0, "1/s"),
        "oracle.bootstrap_s": (total_time(spans, "oracle.empirical_wasserstein"), "s"),
        "oracle.resamples": (attr_sum(spans, "oracle.empirical_wasserstein", "n_boot"), "count"),
    }
    for name, (value, unit) in facts.items():
        m[name] = (value, unit)
    return m


# counts that must repeat exactly across runs of one workload at one commit
EXACT_COUNTS = (
    "kernel.band_len",
    "kernel.conv_len",
    "bounds.nz_blocks",
    "bounds.subgrid_len",
    "bounds.refiner_sparse",
    "solver.steps",
    "oracle.resamples",
)
