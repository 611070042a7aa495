"""The benchmark's traced mode looks up names in ``perfhom`` namespaces.

``perfbench/tracing.py`` lists ``(module, name)`` pairs in ``TARGETS`` and
replaces each with a wrapper through ``getattr``/``setattr``; a renamed or
moved function would make the traced run fail.  The file is loaded by
path so the benchmark directory needs no package structure.
"""

import importlib.util
from pathlib import Path

import perfhom
import perfhom.cli  # noqa: F401  (the traced studies enter through the CLI)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for mod_name, attr, span, _ in tracing.TARGETS:
        module = getattr(perfhom, mod_name) if mod_name else perfhom
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr} ({span})"
