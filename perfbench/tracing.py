"""Spans recorded around the calls into each plapflow layer, and the
per-layer metrics computed from them.

A span is ``(name, start, end, parent)``: two ``time.monotonic`` readings and
the index of the enclosing span, or -1.  Spans named ``trace.*`` are the
tracer's own bookkeeping; their time is taken out of every layer.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

BOOKKEEPING = "trace."

CLI_COMMANDS = ("cli.cmd_run", "cli.cmd_study", "cli.cmd_check_lemmas")
FUNCTIONALS = ("assembly.energy", "assembly.norm_L2", "assembly.seminorm_W1p")

# Per-layer metrics of one traced process, with their units.
PER_LAYER = {
    "mesh.refine_red.calls": "count",
    "mesh.refine_red.s": "s",
    "mesh.unit_square_mesh.s": "s",
    "mesh.prolong.calls": "count",
    "mesh.prolong.s": "s",
    "config.load_run_config.self_s": "s",
    "assembly.weighted_stiffness.calls": "count",
    "assembly.weighted_stiffness.s": "s",
    "assembly.weighted_mass.calls": "count",
    "assembly.weighted_mass.s": "s",
    "assembly.jacobian_stiffness.calls": "count",
    "assembly.jacobian_stiffness.s": "s",
    "assembly.load_vector.calls": "count",
    "assembly.load_vector.s": "s",
    "assembly.mass_matrix.calls": "count",
    "assembly.functionals.s": "s",
    "linsolve.factor.calls": "count",
    "linsolve.factor.s": "s",
    "linsolve.solve.calls": "count",
    "linsolve.solve.s": "s",
    "linsolve.factor_nnz": "count",
    "linsolve.cg.calls": "count",
    "linsolve.cg.s": "s",
    "schemes.run_evolution.calls": "count",
    "schemes.run_evolution.self_s": "s",
    "schemes.implicit_step.calls": "count",
    "schemes.implicit_step.s": "s",
    "schemes.nonlinear_iters": "count",
    "schemes.iters_per_step.max": "count",
    "schemes.stiffness_per_iter": "ratio",
    "diagnostics.check_energy_ledgers.calls": "count",
    "diagnostics.check_energy_ledgers.s": "s",
    "diagnostics.discrepancy_total.s": "s",
    "diagnostics.cell_bound_satisfied.s": "s",
    "diagnostics.run_study.self_s": "s",
    "orlicz.certify_lemmas.s": "s",
    "orlicz.samples_per_s": "1/s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.spans": "count",
}


class Tracer:
    """Keeps spans and counters in memory until the process writes them out."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._open = []

    def wrap(self, name, fn):
        """fn, recording a span named name around every call."""
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index] = (name, start, end, parent)
        return traced


def _merged(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap(a, b):
    """Total overlap of two sorted lists of disjoint intervals."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def busy_s(spans, names):
    """Seconds during which a span with one of these names was open, less the
    tracer's bookkeeping inside them."""
    busy = _merged((s[1], s[2]) for s in spans if s[0] in names)
    own = _merged((s[1], s[2]) for s in spans if s[0].startswith(BOOKKEEPING))
    return sum(end - start for start, end in busy) - _overlap(busy, own)


def self_s(spans, names):
    """Summed duration of the spans with these names, less the time their
    direct children cover.  Children of one span never overlap: the program
    is single-threaded."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return sum((end - start - covered[i]
                for i, (name, start, end, _) in enumerate(spans) if name in names), 0.0)


def layer_metrics(spans, counters, samples, output_bytes):
    """PER_LAYER metrics of one traced process.

    samples is the number of lemma samples the process drew; output_bytes the
    size of the files it wrote.
    """
    calls = Counter(s[0] for s in spans)
    out = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[layer]
        elif kind == "s":
            out[name] = busy_s(spans, (layer,))
        elif kind == "self_s":
            out[name] = self_s(spans, (layer,))
    iters = counters["schemes.nonlinear_iters"]
    lemmas_s = out["orlicz.certify_lemmas.s"]
    out.update({
        "assembly.functionals.s": busy_s(spans, FUNCTIONALS),
        "linsolve.factor_nnz": counters["linsolve.factor_nnz"],
        "schemes.nonlinear_iters": iters,
        "schemes.iters_per_step.max": counters["schemes.iters_per_step.max"],
        "schemes.stiffness_per_iter":
            calls["assembly.weighted_stiffness"] / iters if iters else 0.0,
        "orlicz.samples_per_s": samples / lemmas_s if lemmas_s else 0.0,
        "cli.self_s": self_s(spans, CLI_COMMANDS),
        "cli.output_bytes": output_bytes,
        "trace.spans": len(spans),
    })
    return out
