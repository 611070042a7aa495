"""Layout rules of the package, read from its source with ``ast``.

Each kind of potential has its rules (cell masses, lumping) in
``potential.py``, so only that module and the package's export list name
a kind; and no module reaches into another's private names, by import
or by attribute (``obj._name`` on anything but ``self`` or ``cls``).
"""

import ast
from pathlib import Path

import perfhom

PACKAGE = Path(perfhom.__file__).resolve().parent
KINDS = {"Density", "SurfaceGraph", "SumPotential"}


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree):
    """The ``from`` imports of a module that name a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "perfhom":
                yield node


def test_only_the_potential_module_names_a_potential_kind():
    naming = set()
    for name, tree in modules().items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in package_imports(tree) for alias in node.names}
        if names & KINDS:
            naming.add(name)
    assert naming <= {"potential.py", "__init__.py"}


def test_no_module_imports_a_private_name_of_another():
    private = [
        (name, node.module, alias.name)
        for name, tree in modules().items()
        for node in package_imports(tree)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_reads_a_private_attribute_of_another_object():
    private = [
        (name, node.lineno, ast.unparse(node))
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert private == []
