"""The benchmark's workloads call the package directly, beyond the names
``perfbench/tracing.py`` wraps: record fields such as
``construction.c1`` and ``total_mass``, ``capacity_ball(...).value``,
``read_holes_csv`` and iteration over ``Hole`` and ``Cell`` records.
Each workload runs here at its tiny size with its own output checks.
The file is loaded by path so the benchmark directory needs no package
structure.
"""

import importlib.util
from pathlib import Path

import pytest

import perfhom
import perfhom.cli  # noqa: F401  (the study workloads enter through the CLI)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["study-density", "study-plane", "lattice"])
def test_workload_passes_its_checks(tmp_path, name):
    workloads = load_workloads()
    assert name in workloads.NAMES
    load = workloads.make(name, 1, "tiny", tmp_path / name)
    state = load.setup(perfhom)
    assert load.check(perfhom, load.run(perfhom, state)) == 0
