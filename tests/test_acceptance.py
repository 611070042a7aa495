"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
the criteria complete.  Tolerances are fixed here, not calibrated.
"""

import math

import numpy as np

from perfhom.capacity import (
    capacity_ball,
    capacity_extrapolate,
    capacity_variational,
)
from perfhom.cli import main as cli_main
from perfhom.diagnostics import (
    assumption_quantities,
    capacity_density_field,
    hminus1_norm,
    ldc_deviation,
)
from perfhom.harness import StudyConfig, run_study
from perfhom.holes import HoleFamily
from perfhom.inverse import construct_holes
from perfhom.potential import (
    cell_average_field,
    make_box,
    make_constant,
    make_plane,
    make_sine_density,
    lump_measure,
    make_sum,
    max_cell_mass_scaling,
)
from perfhom.solver import (
    Grid,
    corrector_field,
    field_from_callable,
    solve_limit,
    solve_perforated,
)
from perfhom.tiling import TilingSpec, cells_intersecting, unit_box
from pointwise import density_at, sine_mode

SWEEP = (0.25, 0.125, 0.0625, 0.03125)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>2} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name} failed{suffix}"


def test_criterion_01_capacity_exactness(capsys):
    exact3 = capacity_ball(3, 1.0).value
    exact4 = capacity_ball(4, 1.0).value
    code = cli_main(["capacity", "3", "1"])
    printed = capsys.readouterr().out.splitlines()[0]
    ok = (
        exact3 == 4.0 * math.pi
        and exact4 == 4.0 * math.pi**2
        and code == 0
        and printed == "12.566370614359172"
    )
    with capsys.disabled():
        report(1, "capacity exactness", ok, f"cli printed {printed}")


def test_criterion_02_numerical_capacity():
    target_raw = 4.0 * math.pi * 10.0 / 9.0
    first = capacity_variational(3, 1.0, 5.0, 0.125)
    second = capacity_variational(3, 1.0, 10.0, 0.125)
    extrapolated = capacity_extrapolate(first, second)
    raw_err = abs(second.value - target_raw) / target_raw
    ext_err = abs(extrapolated.value - 4.0 * math.pi) / (4.0 * math.pi)
    report(
        2,
        "numerical capacity",
        raw_err <= 0.03 and ext_err <= 0.02,
        f"raw L=10 err {raw_err:.3%}, extrapolated err {ext_err:.3%}",
    )


def test_criterion_03_manufactured_solutions():
    def product_sine(x):
        return np.prod(np.sin(np.pi * x), axis=1)

    shift = 10.0
    errors_poisson = {}
    errors_limit = {}
    for n in (31, 63, 127):
        grid = Grid(3, n)
        u_exact = field_from_callable(grid, product_sine)
        f_poisson = 3.0 * math.pi**2 * u_exact
        u_num, _ = solve_perforated(f_poisson, HoleFamily.from_holes([], 3), grid, tol=1e-11)
        errors_poisson[n] = float(np.abs(u_num - u_exact).max())
        f_limit = (3.0 * math.pi**2 + shift) * u_exact
        u_num, _ = solve_limit(f_limit, np.full(grid.shape, shift), grid, tol=1e-11)
        errors_limit[n] = float(np.abs(u_num - u_exact).max())
    ratios = [
        errors_poisson[31] / errors_poisson[63],
        errors_poisson[63] / errors_poisson[127],
        errors_limit[31] / errors_limit[63],
        errors_limit[63] / errors_limit[127],
    ]
    report(
        3,
        "manufactured solutions",
        all(3.5 <= r <= 4.5 for r in ratios),
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_04_inverse_construction_identity():
    potentials = [
        make_constant(3, 7.0),
        make_box(3, 3.0),
        make_plane(3, 0.5, 5.0),
        make_sine_density(3, 4.0),
        make_sum(3, [make_box(3, 1.0), make_plane(3, 0.5, 2.0)]),
    ]
    spec = TilingSpec(3, 0.125)
    grid = Grid(3, 31)
    worst = 0.0
    for mu in potentials:
        field = cell_average_field(mu, spec, unit_box(3))
        construction = construct_holes(mu, spec, unit_box(3))
        for hole, mass in zip(construction.holes, field.masses):
            realized = capacity_ball(3, hole.radius).value
            if mass == 0.0:
                assert realized == 0.0
                continue
            worst = max(worst, abs(realized - mass) / mass)
        nodal = capacity_density_field(construction.holes, spec, grid)
        averages = field.by_index()
        from perfhom.tiling import cell_axis_indices

        axis_cells = cell_axis_indices(spec.epsilon, grid.axis())
        expected = np.zeros(grid.shape)
        for i, ci in enumerate(axis_cells):
            for j, cj in enumerate(axis_cells):
                for k, ck in enumerate(axis_cells):
                    expected[i, j, k] = averages[(ci, cj, ck)]
        nonzero = expected > 0
        if np.any(nonzero):
            worst = max(
                worst,
                float(
                    (np.abs(nodal - expected)[nonzero] / expected[nonzero]).max()
                ),
            )
    report(4, "inverse-construction identity", worst <= 1e-12, f"worst rel diff {worst:.2e}")


def test_criterion_05_critical_scaling():
    radii = []
    for eps in SWEEP:
        construction = construct_holes(make_box(3, 1.0), TilingSpec(3, eps), unit_box(3))
        radii.append(max(h.radius for h in construction.holes))
    slope = float(np.polyfit(np.log(SWEEP), np.log(radii), 1)[0])
    report(5, "critical scaling", abs(slope - 3.0) <= 0.01, f"slope {slope:.6f}")


def test_criterion_06_assumption_decay():
    rows = []
    for eps in SWEEP:
        spec = TilingSpec(3, eps)
        construction = construct_holes(make_box(3, 1.0), spec, unit_box(3))
        cells = cells_intersecting(spec, unit_box(3))
        rows.append(assumption_quantities(construction.holes, construction.separation, cells))
    decreasing = all(
        all(getattr(a, name) > getattr(b, name) for a, b in zip(rows, rows[1:]))
        for name in ("sup_a_over_R", "sum_A2", "sum_A4")
    )
    a6 = [r.sum_A6 for r in rows]
    variation = (max(a6) - min(a6)) / (sum(a6) / len(a6))
    report(
        6,
        "assumption decay",
        decreasing and variation <= 0.05,
        f"A6 relative variation {variation:.2e}",
    )


def test_criterion_07_surface_cell_mass_scaling():
    result = max_cell_mass_scaling(make_plane(3, 0.5, 1.0), 3, unit_box(3), SWEEP)
    ok = result.exponent is not None and abs(result.exponent - 2.0) <= 0.2
    report(7, "surface cell-mass scaling", ok, f"exponent {result.exponent:.4f}")


def test_criterion_08_cell_average_convergence():
    mu = make_sine_density(3, 1.0)
    eps_list = (0.125, 0.0625, 0.03125, 0.015625)
    ref_x, ref_w = np.polynomial.legendre.leggauss(4)
    distances = []
    for eps in eps_list:
        field = cell_average_field(mu, TilingSpec(3, eps), unit_box(3))
        total = 0.0
        for cell, value in zip(field.cells, field.values):
            lo = np.maximum(cell.epsilon * (np.asarray(cell.index) - 1), 0.0)
            hi = np.minimum(cell.epsilon * (np.asarray(cell.index) + 1), 1.0)
            if np.any(hi <= lo):
                continue
            axes_x, axes_w = [], []
            for k in range(3):
                mid, half = 0.5 * (lo[k] + hi[k]), 0.5 * (hi[k] - lo[k])
                axes_x.append(mid + half * ref_x)
                axes_w.append(half * ref_w)
            grids = np.meshgrid(*axes_x, indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=-1)
            w = np.multiply.outer(
                np.multiply.outer(axes_w[0], axes_w[1]), axes_w[2]
            ).ravel()
            total += float((np.abs(value - density_at(mu, pts)) ** 3) @ w)
        distances.append(total ** (1.0 / 3.0))
    order = float(np.polyfit(np.log(eps_list), np.log(distances), 1)[0])
    report(8, "cell-average convergence", order >= 0.9, f"fitted order {order:.4f}")


def test_criterion_09_hminus1_machinery():
    grid = Grid(3, 63)
    nu = field_from_callable(grid, sine_mode((1, 1, 1)))
    exact = math.sqrt(1.0 / 8.0) / (math.sqrt(3.0) * math.pi)
    value = hminus1_norm(nu, grid)
    eigen_err = abs(value - exact) / exact
    linear = hminus1_norm(2.0 * nu, grid) == 2.0 * hminus1_norm(nu, grid)
    mu = make_plane(3, 0.5, 1.0)
    deviations = []
    for eps in (0.25, 0.125, 0.0625):
        spec = TilingSpec(3, eps)
        construction = construct_holes(mu, spec, unit_box(3))
        deviations.append(ldc_deviation(construction.holes, lump_measure(mu, grid), spec, grid))
    decreasing = all(a > b for a, b in zip(deviations, deviations[1:]))
    report(
        9,
        "negative-norm machinery",
        eigen_err <= 0.01 and linear and decreasing,
        f"eigen err {eigen_err:.3%}, ldc {', '.join(f'{d:.4f}' for d in deviations)}",
    )


def test_criterion_10_corrector_bound():
    grid = Grid(3, 64)  # h = 1/65: no node coincides with a hole center
    norms = []
    budgets = []
    for eps in SWEEP:
        spec = TilingSpec(3, eps)
        construction = construct_holes(make_box(3, 1.0), spec, unit_box(3))
        cells = cells_intersecting(spec, unit_box(3))
        quantities = assumption_quantities(
            construction.holes, construction.separation, cells
        )
        _, v_norm = corrector_field(construction.holes, construction.separation, grid)
        norms.append(v_norm)
        budgets.append(quantities.sum_A4)
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    fitted_c = norms[0] ** 2 / budgets[0]
    bounded = all(
        n * n <= 2.0 * fitted_c * budget for n, budget in zip(norms[1:], budgets[1:])
    )
    report(
        10,
        "corrector decay and bound",
        decreasing and bounded,
        f"norms {', '.join(f'{n:.2e}' for n in norms)}, C {fitted_c:.2e}",
    )


def _homogenization_study(potential_spec):
    cfg = StudyConfig(
        dim=3,
        epsilons=(0.25, 0.125),
        grids=(63, 63),
        potential_spec=potential_spec,
        tol=1e-9,
        allow_oversized_holes=True,
    )
    return run_study(cfg)


def test_criterion_11_homogenization_end_to_end():
    details = []
    ok = True
    for spec in ("constant(40)", "plane(0.5, 20)"):
        study = _homogenization_study(spec)
        coarse, fine = study.rows
        # the grid resolves every hole by at least two nodes per radius
        assert fine.min_radius >= 2.0 * fine.h
        assert coarse.min_radius >= 2.0 * coarse.h
        ratio = coarse.rel_l2_error / fine.rel_l2_error
        witnesses_drop = all(
            abs(coarse.witnesses[k]) > abs(fine.witnesses[k]) for k in coarse.witnesses
        )
        ok = ok and ratio >= 1.2 and witnesses_drop
        details.append(f"{spec}: ratio {ratio:.2f}, witnesses drop {witnesses_drop}")
    report(11, "homogenization end-to-end", ok, "; ".join(details))
