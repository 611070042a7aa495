import configparser
import dataclasses
import json
import math
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perfhom
import perfhom.cli
from perfhom.errors import ConfigError, InvalidParameterError, StudyError
from perfhom.harness import (
    STUDY_KEYS,
    StudyConfig,
    TrendSpec,
    construct_study_holes,
    load_config,
    parse_rhs,
    run_study,
    trend_check,
)
from perfhom.potential import lump_measure
from perfhom.solver import Grid, field_from_callable, hole_mask, rhs_spectrum
from perfhom.stencil import outer
from perfhom.tiling import cells_intersecting
from pointwise import density_at, sine_mode


def write_config(path, body):
    path.write_text(body)
    return path


BASE = """
[study]
dim = 3
epsilons = 1/4 1/8
grids = 15 15
potential = zero()
f = constant(1)
tol = 1e-10
"""


def test_load_config_parses_fractions_and_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path / "s.cfg", BASE))
    assert cfg.dim == 3
    assert cfg.epsilons == (0.25, 0.125)
    assert cfg.grids == (15, 15)
    assert cfg.tol == 1e-10
    assert not cfg.allow_oversized_holes
    assert cfg.witness_modes == ((1, 1, 1), (3, 1, 1), (1, 3, 3))


def test_load_config_trends_and_options(tmp_path):
    body = BASE + """
witness_modes = (1,1,1) (3,3,1)
allow_oversized_holes = true
out = results

[trends]
err_drop = rel_l2_error min_ratio 1.2
a6_flat = sum_A6 max_abs 0.5
"""
    cfg = load_config(write_config(tmp_path / "s.cfg", body))
    assert cfg.witness_modes == ((1, 1, 1), (3, 3, 1))
    assert cfg.allow_oversized_holes
    assert cfg.out_dir == "results"
    assert len(cfg.trends) == 2
    assert cfg.trends[0].mode == "min_ratio"
    assert cfg.trends[0].param == 1.2


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    bad_eps = BASE.replace("1/4 1/8", "1/8 1/4")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "a.cfg", bad_eps))
    bad_grid = BASE.replace("15 15", "15 20")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "b.cfg", bad_grid))
    bad_rhs = BASE.replace("constant(1)", "nonsense(1)")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.cfg", bad_rhs))
    no_arg = BASE.replace("potential = zero()", "potential = constant()")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "d.cfg", no_arg))
    symbol = BASE.replace("f = constant(1)", "f = constant(-x)")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "e.cfg", symbol))
    short_mode = BASE.replace("f = constant(1)", "f = sine(1, 1)")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "f.cfg", short_mode))
    # a fractional or nonpositive mode is not rounded into a different f
    for modes in ("1.5, 1, 1", "0, 1, 1"):
        bad_mode = BASE.replace("f = constant(1)", f"f = sine({modes})")
        with pytest.raises(ConfigError, match="positive integers"):
            load_config(write_config(tmp_path / "g.cfg", bad_mode))


@pytest.mark.parametrize(
    "line, epsilons",
    [
        ("x = no_such_column strict_decrease", "1/4 1/8"),
        ("x = witnesses strict_decrease", "1/4 1/8"),
        ("x = witness_9_9_9 abs_decrease", "1/4 1/8"),
        ("x = l2_error no_such_mode", "1/4 1/8"),
        ("x = l2_error min_ratio", "1/4 1/8"),
        ("x = l2_error slope", "1/4 1/8"),
        ("x = l2_error max_abs", "1/4 1/8"),
        ("x = l2_error min_ratio abc", "1/4 1/8"),
        ("x = rel_l2_error min_ratio nan", "1/4 1/8"),
        ("x = rel_l2_error slope 2 -0.5", "1/4 1/8"),
        ("x = l2_error strict_decrease", "1/4"),
    ],
)
def test_bad_trend_lines_fail_at_load(tmp_path, line, epsilons):
    # a trend that cannot be evaluated fails before the sweep, not after it
    grids = " ".join("15" for _ in epsilons.split())
    body = BASE.replace("1/4 1/8", epsilons).replace("15 15", grids) + "\n[trends]\n" + line + "\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "t.cfg", body))


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_text():
    return README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_names_every_study_key():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(readme_config_text())
    assert set(parser["study"]) == set(STUDY_KEYS)


def test_readme_config_equals_its_python_call(tmp_path):
    cfg = load_config(write_config(tmp_path / "readme.cfg", readme_config_text()))
    assert cfg == StudyConfig(
        epsilons=(0.25, 0.125),
        grids=(63, 63),
        potential_spec="constant(40)",
        tol=1e-9,
        out_dir="results",
        allow_oversized_holes=True,
        trends=(
            TrendSpec("error_drop", "rel_l2_error", "min_ratio", 1.2),
            TrendSpec("witness_drop", "witness_1_1_1", "abs_decrease"),
        ),
    )


def test_default_witness_modes_follow_dim(tmp_path):
    # one rule for a file and for Python: three modes in 3-D, the all-ones
    # mode above
    assert StudyConfig(dim=4, epsilons=(0.25,), grids=(7,)).witness_modes == ((1, 1, 1, 1),)
    assert StudyConfig(epsilons=(0.25,), grids=(7,)).witness_modes == ((1, 1, 1), (3, 1, 1), (1, 3, 3))
    cfg = load_config(write_config(tmp_path / "s.cfg", BASE + "witness_modes =\n"))
    assert cfg.witness_modes == ((1, 1, 1), (3, 1, 1), (1, 3, 3))


def test_fractional_witness_mode_rejected():
    # 1.5 would be paired under the column of (1, 1, 1); NaN and inf have
    # no integer to compare with
    for bad in (1.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="bad witness mode"):
            StudyConfig(epsilons=(0.25,), grids=(7,), witness_modes=((bad, 1, 1),))


def test_study_config_is_frozen():
    cfg = StudyConfig(epsilons=(0.25, 0.125), grids=(7, 7), potential_spec="constant(40)")
    pts = np.full((1, 3), 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.potential_spec = "zero()"
    # a replaced spec is parsed again, so the potential follows it
    zero = dataclasses.replace(cfg, potential_spec="zero()")
    assert density_at(zero.potential, pts).tolist() == [0.0]
    assert density_at(cfg.potential, pts).tolist() == [40.0]
    # and a replaced trend is checked again
    with pytest.raises(ConfigError, match="unknown column 'no_such_column'"):
        dataclasses.replace(cfg, trends=(TrendSpec("x", "no_such_column", "strict_decrease"),))


def zero_study_config(out_dir=None):
    return StudyConfig(
        dim=3,
        epsilons=(0.25, 0.125),
        grids=(15, 15),
        tol=1e-10,
        out_dir=str(out_dir) if out_dir else None,
    )


@pytest.mark.parametrize(
    "line",
    [
        "a = rel_l2_error min_ratio 1.2 7 junk",
        "a = rel_l2_error min_ratio 1.2 7",
        "a = rel_l2_error max_abs 0.5 0.1",
        "a = rel_l2_error strict_decrease 5",
        "a = witness_1_1_1 abs_decrease 5",
    ],
)
def test_unread_trend_tokens_fail_before_any_stage(tmp_path, monkeypatch, capsys, line):
    # a parameter a mode never reads, or a token past the last one, is a
    # config error naming the trend, not a silently dropped value
    ran = []
    for name in ("lump_measure", "rhs_spectrum", "solve_limit"):
        monkeypatch.setattr(perfhom.harness, name, lambda *a, _name=name, **k: ran.append(_name))
    path = write_config(tmp_path / "t.cfg", BASE + "\n[trends]\n" + line + "\n")
    with pytest.raises(ConfigError, match="trend 'a'"):
        load_config(path)
    assert perfhom.cli.main(["study", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "trend 'a'" in capsys.readouterr().err
    assert ran == []


def test_slope_trend_takes_a_tolerance(tmp_path):
    body = BASE + "\n[trends]\na = rel_l2_error slope 1.0 0.2\n"
    (trend,) = load_config(write_config(tmp_path / "t.cfg", body)).trends
    assert (trend.mode, trend.param, trend.param2) == ("slope", 1.0, 0.2)


def test_study_of_two_surface_layer_rows_never_solves_the_shared_base(transforms):
    # the limit at shift 40 is the exact solve from the 1-D spectra of f,
    # checked by one transform, and both rows' holes fill more than half
    # the grid, so neither starts from the shared spectra: each builds f
    # from its factors and transforms its hole-zeroed f (six transforms
    # when the grid held the spectrum of f and each row recovered f)
    cfg = StudyConfig(
        dim=3,
        epsilons=(0.25, 0.2),
        grids=(39, 39),
        potential_spec="constant(40)",
        tol=1e-8,
        allow_oversized_holes=True,
    )
    grid = Grid(3, 39)
    for eps in cfg.epsilons:
        holes = construct_study_holes(cfg, eps).holes
        assert 2 * int(hole_mask(grid, holes).sum()) > grid.size
    report = run_study(cfg)
    assert len(report.rows) == 2
    assert transforms == [("sine_transform", 39)] * 3


def test_zero_potential_study_is_exact():
    report = run_study(zero_study_config())
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.hole_count == 0
        assert row.l2_error == 0.0
        assert row.rel_l2_error == 0.0
        assert row.ldc_deviation == 0.0
        assert row.v_l2 == 0.0
        for value in row.witnesses.values():
            assert value == 0.0


def test_study_is_deterministic(tmp_path):
    cfg = StudyConfig(
        dim=3,
        epsilons=(0.25, 0.125),
        grids=(15, 63),
        potential_spec="plane(0.5, 8)",
        tol=1e-9,
    )
    first = run_study(cfg)
    second = run_study(cfg)
    # bitwise identical numerics; wall-clock timings are reported but
    # excluded from the reproducibility contract
    for row_a, row_b in zip(first.rows, second.rows):
        d_a, d_b = row_a.as_dict(), row_b.as_dict()
        d_a.pop("solver_seconds")
        d_b.pop("solver_seconds")
        assert d_a == d_b
    assert len(first.rows) == 2
    assert first.rows[0].hole_count > 0


def test_study_aborts_with_partial_rows():
    cfg = StudyConfig(
        dim=3,
        epsilons=(0.25, 0.125),
        grids=(15, 15),
        potential_spec="plane(0.5, 8)",
        tol=1e-9,
    )
    # at eps = 1/8 the straddling holes have radius 0.0398 < 2h = 0.125
    with pytest.raises(StudyError) as err:
        run_study(cfg)
    assert err.value.stage == "solve_perforated"
    assert err.value.epsilon == 0.125
    assert len(err.value.partial.rows) == 1


def test_oversized_row_keeps_nan_corrector():
    cfg = StudyConfig(
        dim=3,
        epsilons=(0.25,),
        grids=(31,),
        potential_spec="constant(40)",
        tol=1e-8,
        allow_oversized_holes=True,
    )
    report = run_study(cfg)
    row = report.rows[0]
    assert row.max_radius_ratio > 1.0
    assert math.isnan(row.v_l2)
    assert row.l2_error > 0.0


def test_report_files_and_trends(tmp_path):
    # zero columns are not strictly decreasing, and a zero after a zero
    # has no ratio (NaN): both trends fail
    trends = (
        TrendSpec("drop", "sum_A6", "strict_decrease"),
        TrendSpec("ratio", "l2_error", "min_ratio", 1.2),
    )
    cfg = dataclasses.replace(zero_study_config(out_dir=tmp_path / "out"), trends=trends)
    report = run_study(cfg)
    assert not trend_check(report, cfg.trends[0]).passed
    assert [r.passed for r in report.trend_results] == [False, False]
    assert math.isnan(report.trend_results[1].ratios[0])
    text = (tmp_path / "out" / "study.csv").read_text()
    assert text.splitlines()[0].startswith("epsilon,")

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    # the summary is strict JSON: the NaN ratio is written as null
    text = (tmp_path / "out" / "summary.json").read_text()
    written = json.loads(text, parse_constant=refuse)["trends"]
    assert written[1]["ratios"] == [None] and not written[1]["passed"]


def test_trend_check_modes():
    report = run_study(zero_study_config())
    # epsilon column is strictly decreasing by construction
    assert trend_check(report, TrendSpec("t", "epsilon", "strict_decrease")).passed
    assert trend_check(report, TrendSpec("t", "epsilon", "abs_decrease")).passed
    assert trend_check(report, TrendSpec("t", "epsilon", "min_ratio", 1.5)).passed
    assert not trend_check(report, TrendSpec("t", "sum_A6", "strict_decrease")).passed
    assert trend_check(report, TrendSpec("t", "l2_error", "max_abs", 1e-12)).passed
    with pytest.raises(InvalidParameterError):
        trend_check(report, TrendSpec("t", "no_such_column", "strict_decrease"))
    with pytest.raises(InvalidParameterError):
        TrendSpec("t", "epsilon", "unknown_mode")
    single = run_study(
        StudyConfig(
            dim=3,
            epsilons=(0.25,),
            grids=(15,),
        )
    )
    with pytest.raises(InvalidParameterError):
        trend_check(single, TrendSpec("t", "epsilon", "strict_decrease"))


def test_sine_mode_vectorisation():
    # one factor per axis, sin(pi m_k t), whose product is the mode
    factors = parse_rhs("sine(1, 2, 1)", 3)
    pts = np.array([[0.5, 0.25, 0.5], [0.5, 0.5, 0.5]])
    values = math.prod(f(pts[:, k]) for k, f in enumerate(factors))
    np.testing.assert_allclose(values, [1.0, np.sin(np.pi)], atol=1e-12)
    constant = parse_rhs("constant(-2.5)", 3)
    values = [f(pts[:, 0]) for f in constant]
    np.testing.assert_array_equal(values, [[-2.5] * 2, [1.0] * 2, [1.0] * 2])
    for bad in ("sine(1, 2)", "sine(1.5, 1, 1)", "sine(0, 1, 1)", "2.5"):
        with pytest.raises(InvalidParameterError):
            parse_rhs(bad, 3)


@st.composite
def grids_and_modes(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, {1: 300, 2: 60, 3: 24, 4: 10}[d]))
    return d, n, tuple(draw(st.lists(st.integers(1, 9), min_size=d, max_size=d)))


@settings(max_examples=40, deadline=None)
@given(grids_and_modes())
@example((3, 63, (1, 1, 1))).via("the default witness modes at the README study size")
@example((3, 63, (3, 1, 1))).via("the default witness modes at the README study size")
@example((3, 63, (1, 3, 3))).via("the default witness modes at the README study size")
def test_sine_mode_field_is_bit_equal_to_pointwise_evaluation(case):
    # the node values of f, the product of the factors multiplied in axis
    # order, as a surface-layer solve builds them
    d, n, mode = case
    grid = Grid(d, n)
    rhs = rhs_spectrum(parse_rhs(f"sine({', '.join(map(str, mode))})", d), grid)
    field = outer(rhs.factors)
    assert field.shape == grid.shape
    assert field.tobytes() == field_from_callable(grid, sine_mode(mode)).tobytes()


PEAK_STUDY = """
[study]
dim = 3
epsilons = {epsilons}
grids = {grids}
potential = {potential}
f = constant(1)
tol = 1e-9
allow_oversized_holes = true
"""


@pytest.mark.parametrize(
    "potential, epsilons, grids, bound",
    [
        ("plane(0.5, 20)", "1/4 1/8", "23 47", 4.0),
        ("plane(0.5, 20)", "1/8 1/16", "47 95", 2.2),
        ("constant(40)", "1/4 1/8", "63 63", 4.0),
    ],
)
def test_study_peak_memory_in_finest_grid_arrays(tmp_path, potential, epsilons, grids, bound):
    # the limit field is the one grid array that outlives its row: the
    # limit phase drops its lumped measure after the solve, and each row
    # lumps its own measure just before the ldc, which builds its
    # deviation in it.  f is held as the 1-D spectra of its factors and a
    # witness contracts with 1-D sine vectors, so neither makes a grid
    # array; sine transforms and the final solve work in place, and the
    # last row on the finest grid builds its error field in the limit
    # field's array.  The plane studies measured 3.93 arrays, in the last
    # row's applies, and 2.14, in the limit solve's final step beside the
    # lumped measure; the README study 3.83, in row 0, whose surface-layer
    # applies hold two blocks beside the limit field.  At 47^3 the
    # transforms' scratch is 0.63 of an array, at 63^3 0.26
    body = PEAK_STUDY.format(potential=potential, epsilons=epsilons, grids=grids)
    cfg = load_config(write_config(tmp_path / "s.cfg", body))
    tracemalloc.start()
    try:
        run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * max(cfg.grids) ** 3


def test_study_rows_lump_and_transform_their_own_inputs(monkeypatch):
    # the limit phase and each row lump their own measure and build their
    # own spectra; the limit's measure is gone before any row starts
    calls, measures = [], []

    def lump(mu, grid):
        calls.append(("lump_measure", grid.n))
        measure = lump_measure(mu, grid)
        measures.append(weakref.ref(measure))
        return measure

    def rhs(f, grid):
        calls.append(("rhs_spectrum", grid.n))
        return rhs_spectrum(f, grid)

    def construct(cfg, eps):
        assert measures[0]() is None
        return construct_study_holes(cfg, eps)

    monkeypatch.setattr(perfhom.harness, "lump_measure", lump)
    monkeypatch.setattr(perfhom.harness, "rhs_spectrum", rhs)
    monkeypatch.setattr(perfhom.harness, "construct_study_holes", construct)
    run_study(dataclasses.replace(zero_study_config(), grids=(7, 15)))
    assert calls == [("lump_measure", 15), ("rhs_spectrum", 15)] + [
        (name, n) for n in (7, 15) for name in ("lump_measure", "rhs_spectrum")
    ]


def test_summary_records_stage_seconds(tmp_path):
    report = run_study(zero_study_config(out_dir=tmp_path / "out"))
    seconds = json.loads((tmp_path / "out" / "summary.json").read_text())["stage_seconds"]
    assert seconds == report.stage_seconds
    assert set(seconds["limit"]) == {"lump_measure", "rhs", "solve_limit"}
    assert len(seconds["rows"]) == len(report.rows)
    for row in seconds["rows"]:
        stages = {"construct", "assumptions", "ldc", "solve_perforated", "l2_error", "witnesses"}
        assert stages <= set(row)
    values = [*seconds["limit"].values(), *(v for row in seconds["rows"] for v in row.values())]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
    # the stages do not nest, so they add up to at most the whole sweep
    assert sum(values) <= report.metadata["total_seconds"]


def test_study_enumerates_cells_once_per_row(monkeypatch):
    calls = []

    def counting(spec, domain):
        calls.append(spec.epsilon)
        return cells_intersecting(spec, domain)

    for module in (perfhom.harness, perfhom.inverse, perfhom.potential):
        monkeypatch.setattr(module, "cells_intersecting", counting)
    run_study(zero_study_config())
    assert calls == [0.25, 0.125]


def test_summary_records_numpy_version_and_cpu_count(tmp_path):
    report = run_study(zero_study_config(out_dir=tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["metadata"]["numpy_version"] == np.__version__
    assert summary["metadata"]["cpu_count"] == os.cpu_count()
    header = (tmp_path / "out" / "study.csv").read_text().splitlines()[0]
    assert header.split(",") == report.columns()
    assert "numpy_version" not in header and "cpu_count" not in header


def test_unusable_pitch_fails_before_any_stage(tmp_path, monkeypatch, capsys):
    # a pitch the cell enumeration cannot index is a config error: no
    # limit-phase stage runs before it is reported
    ran = []
    for name in ("lump_measure", "rhs_spectrum", "solve_limit"):
        monkeypatch.setattr(perfhom.harness, name, lambda *a, _name=name, **k: ran.append(_name))
    for eps in ("1e-300", "1e-6"):
        body = BASE.replace("1/4 1/8", eps).replace("15 15", "191")
        path = write_config(tmp_path / "pitch.cfg", body.replace("zero()", "plane(0.5, 20)"))
        with pytest.raises(ConfigError, match=f"pitch {float(eps)!r} gives about"):
            load_config(path)
        assert perfhom.cli.main(["study", str(path)]) == 1
        assert "too many for int64 indices" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize(
    "line",
    [
        "override_tiny_holes = true",
        "allow_oversize_holes = true",
        "quad_volume_order = 4",
        "quad_surface_refine = 16",
    ],
)
def test_unknown_study_key_fails_before_any_stage(tmp_path, monkeypatch, capsys, line):
    # a removed option or a misspelt one is a config error at load, not a
    # late failure or a silently ignored setting
    ran = []
    for name in ("lump_measure", "rhs_spectrum", "solve_limit"):
        monkeypatch.setattr(perfhom.harness, name, lambda *a, _name=name, **k: ran.append(_name))
    key = line.split()[0]
    path = write_config(tmp_path / "unknown.cfg", BASE + line + "\n")
    with pytest.raises(ConfigError, match=f"unknown \\[study\\] key '{key}'"):
        load_config(path)
    assert perfhom.cli.main(["study", str(path), "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert ran == []
