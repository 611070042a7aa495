"""Capacity-matched hole construction for a given target potential.

Each lattice cell meeting the domain receives one closed ball, centered
at the cell center, whose Newtonian capacity equals the cell mass of the
potential:

    radius = (mu(A_i) / ((d - 2) S_d)) ** (1 / (d - 2)).

Zero-mass cells keep an empty hole so cell and hole lists stay aligned.
The separation constant is fixed to ``c1 = 1`` (the largest ball inside
a cell), so the construction degenerates exactly when the strict
separation inequality ``a < R`` would fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .capacity import sphere_area
from .errors import ConstructionError
from .holes import HoleFamily, SeparationParams, write_holes_csv
from .potential import Potential, cell_masses
from .potential import cell_mass  # noqa: F401  (perfbench/tracing.py wraps inverse.cell_mass)
from .tiling import Box, CellFamily, TilingSpec, cells_intersecting

C1 = 1.0


@dataclass(frozen=True)
class ConstructionReport:
    """Holes realizing a potential, with the separation data used."""

    holes: HoleFamily
    epsilon: float
    c1: float
    max_radius_ratio: float
    total_mass: float

    @property
    def cells(self) -> CellFamily:
        return CellFamily(self.holes.index, self.epsilon)

    @property
    def separation(self) -> SeparationParams:
        return SeparationParams(c1=self.c1, epsilon=self.epsilon)

    def header(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "c1": self.c1,
            "max_radius_ratio": self.max_radius_ratio,
            "total_mass": self.total_mass,
        }

    def write(self, csv_path, header_path=None) -> None:
        """Serialise to the hole CSV plus a JSON header."""
        write_holes_csv(self.holes, csv_path)
        if header_path is not None:
            with open(header_path, "w") as fh:
                json.dump(self.header(), fh, indent=2)
                fh.write("\n")


def construct_holes(
    mu: Potential,
    spec: TilingSpec,
    domain: Box,
    *,
    strict: bool = True,
) -> ConstructionReport:
    """Build one capacity-matched ball per cell meeting ``domain``.

    With ``strict`` (the default) a radius reaching the cell half-width
    raises :class:`ConstructionError`; passing ``strict=False`` keeps the
    oversized balls and reports ``max_radius_ratio >= 1`` instead, which
    leaves the separation assumptions violated but still solvable.
    """
    d = spec.dim
    eps = spec.epsilon
    cells = cells_intersecting(spec, domain)
    masses = cell_masses(mu, cells)
    radii = (masses / ((d - 2) * sphere_area(d))) ** (1.0 / (d - 2))
    if strict and np.any(radii >= eps):
        i = int(np.argmax(radii >= eps))
        raise ConstructionError(
            f"hole radius {radii[i]:.6g} >= cell half-width {eps:.6g} "
            f"in cell {tuple(cells.index[i].tolist())}; lower epsilon or the potential"
        )
    return ConstructionReport(
        holes=HoleFamily(eps * cells.index, radii, cells.index),
        epsilon=eps,
        c1=C1,
        max_radius_ratio=float(radii.max()) / (C1 * eps),
        total_mass=float(masses.sum()),
    )
