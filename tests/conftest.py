"""Fixtures shared by the test modules."""

import pytest

import perfhom
from perfhom import stencil


@pytest.fixture
def transforms(monkeypatch):
    """Record the whole-grid sine transforms (``sine_transform``) and full
    sine solves (``dirichlet_solve``) made through every perfhom module
    that binds the name: the list of ``(name, n)`` in call order.  A test
    may append its own events to the list."""
    calls = []
    for name in ("sine_transform", "dirichlet_solve"):
        original = getattr(stencil, name)

        def counted(b, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, b.shape[0]))
            return _original(b, *args, **kwargs)

        for attr in dir(perfhom):
            module = getattr(perfhom, attr)
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
