"""Span tracing from outside the program, and the per-layer metrics.

The benchmark does not instrument ``perfhom`` itself.  It replaces
public names in the module namespaces that call them with wrappers that
record one span per call: name, start, end, parent span, repetition id
and a few counts read from the call's arguments and result.  Spans stay
in memory; the caller writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded and nest strictly (the studies run
with ``threads`` unset), so children never overlap one another.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans that only dispatch to the stages of a study.
GLUE = ("cli.main", "harness.run_study")


def _nodes(args, kwargs, result):
    return {"nodes": args[0].size, "dim": args[0].ndim}


def _pcg(args, kwargs, result):
    return {"nodes": args[1].size, "iterations": result[1]}


def _solve(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _lump(args, kwargs, result):
    mu, grid = args[0], args[1]
    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    return {"key": f"{id(mu)} {grid.dim} {grid.n} {quad!r}"}


def _cell_mass(args, kwargs, result):
    return {"nonzero": result > 0.0}


def _disjointness(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2, "ok": result.ok}


def _construct(args, kwargs, result):
    return {"holes": len(result.holes)}


# (module attribute path, bound name, span name, count hook).  Each row
# is one namespace through which the program or the benchmark calls the
# function; the span name is the defining module and the function.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_study", "harness.run_study", None),
    ("harness", "assumption_quantities", "diagnostics.assumption_quantities", None),
    ("harness", "ldc_deviation", "diagnostics.ldc_deviation", None),
    ("harness", "construct_holes", "inverse.construct_holes", _construct),
    ("harness", "parse_potential", "potential.parse_potential", None),
    ("harness", "lump_measure", "solver.lump_measure", _lump),
    ("harness", "field_from_callable", "solver.field_from_callable", None),
    ("harness", "solve_limit", "solver.solve_limit", _solve),
    ("harness", "solve_perforated", "solver.solve_perforated", _solve),
    ("harness", "corrector_field", "solver.corrector_field", None),
    ("harness", "weak_witness", "solver.weak_witness", None),
    ("harness", "restrict", "solver.restrict", None),
    ("harness", "l2_distance", "solver.l2_distance", None),
    ("harness", "l2_norm", "solver.l2_norm", None),
    ("harness", "disjointness_check", "holes.disjointness_check", _disjointness),
    ("harness", "cells_intersecting", "tiling.cells_intersecting", None),
    ("harness", "unit_box", "tiling.unit_box", None),
    ("solver", "hole_mask", "solver.hole_mask", None),
    ("solver", "pcg", "cg.pcg", _pcg),
    ("solver", "neg_laplacian", "stencil.neg_laplacian", _nodes),
    ("solver", "disjointness_check", "holes.disjointness_check", _disjointness),
    ("diagnostics", "pcg", "cg.pcg", _pcg),
    ("diagnostics", "neg_laplacian", "stencil.neg_laplacian", _nodes),
    ("diagnostics", "hminus1_norm", "diagnostics.hminus1_norm", None),
    ("diagnostics", "capacity_density_field", "diagnostics.capacity_density_field", None),
    ("diagnostics", "lump_measure", "solver.lump_measure", _lump),
    ("inverse", "cell_mass", "potential.cell_mass", _cell_mass),
    ("inverse", "cells_intersecting", "tiling.cells_intersecting", None),
    # names the lattice workload calls directly on the package
    ("", "construct_holes", "inverse.construct_holes", _construct),
    ("", "write_holes_csv", "holes.write_holes_csv", None),
    ("", "read_holes_csv", "holes.read_holes_csv", None),
    ("", "disjointness_check", "holes.disjointness_check", _disjointness),
    ("", "cells_intersecting", "tiling.cells_intersecting", None),
    ("", "assumption_quantities", "diagnostics.assumption_quantities", None),
    ("", "capacity_density_field", "diagnostics.capacity_density_field", None),
)


class Tracer:
    """In-memory span store, one list per repetition.  A span's parent is
    an index into its repetition's list; ``counters`` holds per-repetition
    counts the benchmark records itself."""

    def __init__(self):
        self.reps = []  # spans: [name, start, end, parent, rep, counts]
        self.counters = []
        self.stack = []

    def start_rep(self):
        self.reps.append([])
        self.counters.append(defaultdict(float))
        self.stack = []

    def wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.reps[-1]
            sid = len(spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, len(self.reps) - 1, None]
            spans.append(span)
            self.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def count(self, name, value=1.0):
        self.counters[-1][name] += value


@contextmanager
def installed(tracer, package):
    """Patch every target namespace of ``package`` for the duration."""
    saved = []
    try:
        for mod_name, attr, span, hook in TARGETS:
            module = getattr(package, mod_name) if mod_name else package
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost_s(repeats=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    tracer.start_rep()
    wrapped = tracer.wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t1 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / repeats


def _stencil_counts(nodes, dim):
    """Computed work of one ``neg_laplacian`` call under numpy's pass model.

    The kernel makes ``2 + 2 dim`` whole-array passes: scale into a new
    array, two in-place neighbour subtractions per axis, final scale.
    Bytes count every array each pass reads or writes, at 8 bytes per
    value; cache reuse between passes is ignored, so this is computed
    traffic, not measured traffic.
    """
    flops = (2 + 2 * dim) * nodes
    bytes_ = 8 * nodes * (2 + 2 * dim * 3 + 2)
    return flops, bytes_


def rep_metrics(spans, counters, rep_wall, span_cost):
    """Per-layer metrics of one repetition, and its layer self-time table."""
    children = defaultdict(float)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    total = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    stages = defaultdict(float)
    top = 0.0
    for k, (name, t0, t1, parent, _, _) in enumerate(spans):
        dur = t1 - t0
        total[name] += dur
        self_t[name] += dur - children[k]
        calls[name] += 1
        if parent < 0:
            top += dur
        # a stage is a call the study harness or the benchmark makes itself
        caller = spans[parent][0] if parent >= 0 else None
        if name not in GLUE and (caller is None or caller in GLUE):
            stages[name] += dur

    def counts(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    sten = counts("stencil.neg_laplacian")
    st_nodes = sum(c["nodes"] for c in sten)
    st_flops = st_bytes = 0
    for c in sten:
        f, b = _stencil_counts(c["nodes"], c["dim"])
        st_flops += f
        st_bytes += b
    pcg = counts("cg.pcg")
    iter_mnodes = sum(c["nodes"] * c["iterations"] for c in pcg) / 1e6
    lump_keys = [c["key"] for c in counts("solver.lump_measure")]
    cell = counts("potential.cell_mass")
    built = sum(c["holes"] for c in counts("inverse.construct_holes"))
    hminus1_ids = {k for k, s in enumerate(spans) if s[0] == "diagnostics.hminus1_norm"}
    hminus1_iters = sum(
        s[5]["iterations"] for s in spans if s[0] == "cg.pcg" and s[3] in hminus1_ids
    )

    def ratio(a, b):
        return a / b if b else 0.0

    n_st = calls["stencil.neg_laplacian"]
    m = {
        "stencil.calls": n_st,
        "stencil.self_s": self_t["stencil.neg_laplacian"],
        "stencil.ms_per_mnode": ratio(1e3 * self_t["stencil.neg_laplacian"], st_nodes / 1e6),
        "stencil.bytes_computed": ratio(st_bytes, n_st),
        "stencil.flops": ratio(st_flops, n_st),
        "stencil.flops_per_byte": ratio(st_flops, st_bytes),
        "cg.solves": calls["cg.pcg"],
        "cg.iterations": sum(c["iterations"] for c in pcg),
        "cg.self_s": self_t["cg.pcg"],
        "cg.ms_per_iter_mnode": ratio(1e3 * self_t["cg.pcg"], iter_mnodes),
        "solver.solve_limit_s": total["solver.solve_limit"],
        "solver.solve_limit_iters": sum(c["iterations"] for c in counts("solver.solve_limit")),
        "solver.solve_perforated_s": total["solver.solve_perforated"],
        "solver.solve_perforated_iters": sum(
            c["iterations"] for c in counts("solver.solve_perforated")
        ),
        "solver.hole_mask_s": total["solver.hole_mask"],
        "solver.lump_measure_s": total["solver.lump_measure"],
        "solver.lump_measure_calls": len(lump_keys),
        "solver.lump_measure_useful_ratio": ratio(len(set(lump_keys)), len(lump_keys)),
        "solver.corrector_field_s": total["solver.corrector_field"],
        "solver.field_from_callable_s": total["solver.field_from_callable"],
        "solver.weak_witness_s": total["solver.weak_witness"],
        "solver.restrict_s": total["solver.restrict"],
        "diagnostics.ldc_deviation_s": total["diagnostics.ldc_deviation"],
        "diagnostics.hminus1_norm_s": total["diagnostics.hminus1_norm"],
        "diagnostics.hminus1_iters": hminus1_iters,
        "diagnostics.capacity_density_field_s": total["diagnostics.capacity_density_field"],
        "diagnostics.assumption_quantities_s": total["diagnostics.assumption_quantities"],
        "inverse.construct_holes_s": total["inverse.construct_holes"],
        "inverse.holes_per_s": ratio(built, total["inverse.construct_holes"]),
        "potential.cell_mass_calls": len(cell),
        "potential.cell_mass_s": total["potential.cell_mass"],
        "potential.nonzero_mass_ratio": ratio(sum(c["nonzero"] for c in cell), len(cell)),
        "tiling.cells_intersecting_s": total["tiling.cells_intersecting"],
        "holes.disjointness_check_s": total["holes.disjointness_check"],
        "holes.pairs_scanned": sum(c["pairs"] for c in counts("holes.disjointness_check")),
        "holes.false_rejects": counters.get("holes.false_rejects", 0),
        "holes.false_overlap_pairs": counters.get("holes.false_overlap_pairs", 0),
        "holes.false_inclusion_violations": counters.get("holes.false_inclusion_violations", 0),
        "holes.csv_write_s": total["holes.write_holes_csv"],
        "holes.csv_read_s": total["holes.read_holes_csv"],
        "harness.run_study_s": total["harness.run_study"],
        "harness.self_s": self_t["harness.run_study"],
        "cli.self_s": self_t["cli.main"],
        "trace.wall_s": rep_wall,
        "trace.spans": len(spans),
        "trace.overhead_est_s": len(spans) * span_cost,
    }
    layers = defaultdict(float)
    for name, value in self_t.items():
        layers[name.split(".", 1)[0]] += value
    layers["bench"] = max(rep_wall - top, 0.0)
    return m, dict(layers), dict(total), dict(stages)


def summarize(tracer, rep_walls, span_cost):
    """Median over repetitions of each per-layer metric and layer time."""
    rows = [
        rep_metrics(spans, counters, wall, span_cost)
        for spans, counters, wall in zip(tracer.reps, tracer.counters, rep_walls)
    ]

    def med(column):
        keys = sorted({k for r in column for k in r})
        return {k: statistics.median(r.get(k, 0.0) for r in column) for k in keys}

    return tuple(med(column) for column in zip(*rows))
