import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perfhom
import perfhom.cli
from perfhom.errors import ConfigError, InvalidParameterError, StudyError
from perfhom.harness import (
    StudyConfig,
    TrendSpec,
    construct_study_holes,
    load_config,
    parse_rhs,
    run_study,
    sine_mode,
    trend_check,
)
from perfhom.potential import parse_potential
from perfhom.solver import Grid, field_from_callable, hole_mask, sine_mode_field
from perfhom.tiling import cells_intersecting


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
        ("x = l2_error strict_decrease", "1/4"),
    ],
)
def test_bad_trend_lines_fail_at_load(tmp_path, line, epsilons):
    # a trend that cannot be evaluated fails before the sweep, not after it
    grids = " ".join("15" for _ in epsilons.split())
    body = BASE.replace("1/4 1/8", epsilons).replace("15 15", grids) + "\n[trends]\n" + line + "\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "t.cfg", body))


def zero_study_config(out_dir=None):
    return StudyConfig(
        dim=3,
        epsilons=(0.25, 0.125),
        grids=(15, 15),
        potential=parse_potential("zero()", 3),
        potential_spec="zero()",
        rhs=parse_rhs("constant(1)", 3),
        rhs_spec="constant(1)",
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
    for name in ("lump_measure", "field_from_callable", "solve_limit"):
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


def test_study_of_two_surface_layer_rows_never_solves_the_shared_base(full_solves):
    # both rows' holes fill more than half of 39^3, so each solves its own
    # hole-zeroed f, and the limit at shift 40 its own: three full solves
    cfg = StudyConfig(
        dim=3,
        epsilons=(0.25, 0.2),
        grids=(39, 39),
        potential=parse_potential("constant(40)", 3),
        potential_spec="constant(40)",
        rhs=parse_rhs("constant(1)", 3),
        rhs_spec="constant(1)",
        tol=1e-8,
        allow_oversized_holes=True,
    )
    grid = Grid(3, 39)
    for eps in cfg.epsilons:
        holes = construct_study_holes(cfg, eps).holes
        assert 2 * int(hole_mask(grid, holes).sum()) > grid.size
    report = run_study(cfg)
    assert len(report.rows) == 2
    assert full_solves == [39, 39, 39]


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
        potential=parse_potential("plane(0.5, 8)", 3),
        potential_spec="plane(0.5, 8)",
        rhs=parse_rhs("constant(1)", 3),
        rhs_spec="constant(1)",
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
        potential=parse_potential("plane(0.5, 8)", 3),
        potential_spec="plane(0.5, 8)",
        rhs=parse_rhs("constant(1)", 3),
        rhs_spec="constant(1)",
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
        potential=parse_potential("constant(40)", 3),
        potential_spec="constant(40)",
        rhs=parse_rhs("constant(1)", 3),
        rhs_spec="constant(1)",
        tol=1e-8,
        allow_oversized_holes=True,
    )
    report = run_study(cfg)
    row = report.rows[0]
    assert row.max_radius_ratio > 1.0
    assert math.isnan(row.v_l2)
    assert row.l2_error > 0.0


def test_report_files_and_trends(tmp_path):
    cfg = zero_study_config(out_dir=tmp_path / "out")
    # zero columns are not strictly decreasing: this trend fails
    cfg.trends = (TrendSpec("drop", "sum_A6", "strict_decrease"),)
    report = run_study(cfg)
    assert not trend_check(report, cfg.trends[0]).passed
    assert [r.passed for r in report.trend_results] == [False]
    assert (tmp_path / "out" / "study.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    text = (tmp_path / "out" / "study.csv").read_text()
    assert text.splitlines()[0].startswith("epsilon,")


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
            potential=parse_potential("zero()", 3),
            potential_spec="zero()",
            rhs=parse_rhs("constant(1)", 3),
            rhs_spec="constant(1)",
        )
    )
    with pytest.raises(InvalidParameterError):
        trend_check(single, TrendSpec("t", "epsilon", "strict_decrease"))


def test_sine_mode_vectorisation():
    g = sine_mode((1, 2, 1))
    pts = np.array([[0.5, 0.25, 0.5], [0.5, 0.5, 0.5]])
    np.testing.assert_allclose(g(pts), [1.0, np.sin(np.pi)], atol=1e-12)


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
    d, n, mode = case
    grid = Grid(d, n)
    field = sine_mode_field(grid, mode)
    assert field.shape == grid.shape
    assert field.tobytes() == field_from_callable(grid, sine_mode(mode)).tobytes()


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
    for name in ("lump_measure", "field_from_callable", "solve_limit"):
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
    for name in ("lump_measure", "field_from_callable", "solve_limit"):
        monkeypatch.setattr(perfhom.harness, name, lambda *a, _name=name, **k: ran.append(_name))
    key = line.split()[0]
    path = write_config(tmp_path / "unknown.cfg", BASE + line + "\n")
    with pytest.raises(ConfigError, match=f"unknown \\[study\\] key '{key}'"):
        load_config(path)
    assert perfhom.cli.main(["study", str(path), "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert ran == []
