"""The benchmark's traced mode looks up names in ``perfhom`` namespaces.

``perfbench/tracing.py`` lists ``(module, name)`` pairs in ``TARGETS`` and
replaces each with a wrapper through ``getattr``/``setattr``; a renamed or
moved function would make the traced run fail.  The file is loaded by
path so the benchmark directory needs no package structure.
"""

import importlib.util
import re
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


def test_tracing_only_imports_name_a_target():
    # an import kept only for the benchmark says so in a comment; once the
    # benchmark drops the target, the stale import fails here
    targets = {(mod_name, attr) for mod_name, attr, _, _ in load_tracing().TARGETS}
    pattern = re.compile(r"perfbench/tracing\.py wraps (\w+)\.(\w+)")
    named = [
        (path.stem, match.groups())
        for path in sorted(Path(perfhom.__file__).parent.glob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert named
    for module, (mod_name, attr) in named:
        assert mod_name == module and (mod_name, attr) in targets, f"{module}: {mod_name}.{attr}"
