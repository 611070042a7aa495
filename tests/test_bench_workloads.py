"""The benchmark's workloads call the package directly, beyond the names
``perfbench/tracing.py`` wraps: record fields such as
``construction.c1`` and ``total_mass``, ``capacity_ball(...).value``,
``read_holes_csv`` and iteration over ``Hole`` and ``Cell`` records.
Each workload runs here at its tiny size with its own output checks.
The files are loaded by path so the benchmark directory needs no package
structure.
"""

import importlib.util
from pathlib import Path

import pytest

import perfhom
import perfhom.cli  # noqa: F401  (the study workloads enter through the CLI)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    return load("workloads")


@pytest.mark.parametrize("name", ["study-density", "study-plane", "lattice"])
def test_workload_passes_its_checks(tmp_path, name):
    workloads = load_workloads()
    assert name in workloads.NAMES
    load = workloads.make(name, 1, "tiny", tmp_path / name)
    state = load.setup(perfhom)
    assert load.check(perfhom, load.run(perfhom, state)) == 0


def test_traced_study_sees_the_iterations_of_both_solves(tmp_path):
    # the benchmark's solve spans read ``result[1].iterations``: a study
    # traced through the harness namespace records both solves, each row's
    # perforated solve included, with their CG iterations
    tracing = load("tracing")
    workload = load_workloads().make("study-plane", 1, "tiny", tmp_path / "plane")
    state = workload.setup(perfhom)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, perfhom):
        tracer.start_rep()
        assert workload.check(perfhom, workload.run(perfhom, state)) == 0
    iterations = {}
    for name, *_, counts in tracer.reps[0]:
        if name in ("solver.solve_limit", "solver.solve_perforated"):
            iterations.setdefault(name, []).append(counts["iterations"])
    assert len(iterations["solver.solve_limit"]) == 1
    assert len(iterations["solver.solve_perforated"]) == 2
    assert all(count > 0 for counts in iterations.values() for count in counts)
