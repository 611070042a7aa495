"""Numerical laboratory for Poisson problems on perforated domains.

Given a nonnegative target potential, the package constructs lattice
hole families whose capacity density realises it, checks the separation
assumptions behind the construction, solves both the perforated problem
and the limit problem with the measure potential, and measures the
convergence between them.
"""

from .capacity import (
    CapacityResult,
    capacity_ball,
    capacity_extrapolate,
    capacity_variational,
    sphere_area,
)
from .diagnostics import (
    AssumptionReport,
    assumption_quantities,
    capacity_density_field,
    dprime_pairing,
    hminus1_norm,
    ldc_deviation,
)
from .errors import (
    ConfigError,
    ConstructionError,
    EvaluationError,
    ExtrapolationError,
    GeometryError,
    InvalidParameterError,
    PerfhomError,
    ResolutionError,
    SolverError,
    StudyError,
)
from .harness import (
    StudyConfig,
    StudyReport,
    load_config,
    run_study,
    trend_check,
)
from .holes import (
    DisjointnessReport,
    Hole,
    HoleFamily,
    SeparationParams,
    disjointness_check,
    read_holes_csv,
    write_holes_csv,
)
from .inverse import ConstructionReport, construct_holes
from .potential import (
    CellAverageField,
    Density,
    Potential,
    SumPotential,
    SurfaceGraph,
    cell_average_field,
    cell_mass,
    cell_masses,
    lump_measure,
    max_cell_mass_scaling,
    parse_potential,
)
from .solver import (
    Grid,
    RhsSpectrum,
    SolveStats,
    corrector_field,
    corrector_norm,
    field_from_callable,
    l2_distance,
    l2_norm,
    read_field,
    restrict,
    rhs_spectrum,
    solve_limit,
    solve_perforated,
    weak_witness,
    write_field,
)
from .tiling import (
    Box,
    Cell,
    CellFamily,
    TilingSpec,
    cells_intersecting,
    unit_box,
)

__version__ = "0.1.0"
