"""Fixtures shared by the test modules."""

import pytest

import perfhom
from perfhom import stencil


@pytest.fixture
def full_solves(monkeypatch):
    """Count the full sine solves (``dirichlet_solve``) made through every
    perfhom module that binds the name: the list of the grid sizes solved,
    in call order.  A test may append its own events to the list."""
    calls = []
    solve = stencil.dirichlet_solve

    def counted(b, *args, **kwargs):
        calls.append(b.shape[0])
        return solve(b, *args, **kwargs)

    for name in dir(perfhom):
        module = getattr(perfhom, name)
        if getattr(module, "dirichlet_solve", None) is solve:
            monkeypatch.setattr(module, "dirichlet_solve", counted)
    return calls
