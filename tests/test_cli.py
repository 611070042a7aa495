import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import perfhom
from perfhom.cli import main
from perfhom.solver import read_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text)
    return str(path)


ZERO_CFG = """
[study]
dim = 3
epsilons = 1/4 1/8
grids = 15 15
potential = zero()
f = constant(1)
tol = 1e-10
"""


def test_capacity_prints_exact_value(capsys):
    code, out, _ = run_cli(capsys, "capacity", "3", "1")
    assert code == 0
    assert out.splitlines()[0] == "12.566370614359172"
    code, out, _ = run_cli(capsys, "capacity", "3", "0")
    assert code == 0
    assert float(out.splitlines()[0]) == 0.0


def test_capacity_invalid_dimension_exits_one(capsys):
    code, _, err = run_cli(capsys, "capacity", "2", "1")
    assert code == 1
    assert "error" in err


BAD_CAPACITY_INPUT = [
    (["3", "nan"], 1, "error:"),
    (["3", "inf"], 1, "error:"),
    (["3", "1", "--numeric", "3", "0"], 1, "error:"),
    (["3", "1", "--numeric", "3", "-0.25"], 1, "error:"),
    (["3", "1", "--numeric", "3", "nan"], 1, "error:"),
    (["3", "1", "--numeric", "inf", "0.25"], 1, "error:"),
    (["3", "1", "--numeric", "3", "0.25", "--extrapolate", "nan"], 1, "error:"),
    (["3", "1", "--numeric", "3", "0.25", "--extrapolate", "inf"], 1, "error:"),
    (["3", "1", "--numeric", "3", "0.25", "--extrapolate", "0"], 1, "error:"),
    (["3", "1", "--extrapolate", "0"], 1, "error:"),
    (["5", "1e200"], 2, "numerical failure:"),
]


@pytest.mark.parametrize(
    "argv, code, prefix", BAD_CAPACITY_INPUT, ids=[" ".join(c[0]) for c in BAD_CAPACITY_INPUT]
)
def test_capacity_bad_input_exits_with_message(capsys, argv, code, prefix):
    got, _, err = run_cli(capsys, "capacity", *argv)
    assert got == code
    assert err.startswith(prefix)


@pytest.mark.parametrize("second", ["1.5", "nan"])
def test_capacity_bad_truncation_pair_fails_before_any_solve(capsys, second):
    # L2 < 2 L1 or a NaN L2 cannot be extrapolated: no variational solve runs
    code, out, err = run_cli(
        capsys, "capacity", "3", "0.25", "--numeric", "1", "0.0625", "--extrapolate", second
    )
    assert code == 1
    assert err.startswith("error:") and "L2 >= 2 L1" in err
    assert "variational" not in out


def test_capacity_numeric_flag(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "3", "1", "--numeric", "3", "0.25", "--extrapolate", "6"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "12.566370614359172"
    assert lines[1].startswith("variational L=3")
    assert lines[3].startswith("variational L=6")
    # each variational value is followed by its solve's record
    for line in (lines[2], lines[4]):
        words = line.split()
        assert words[0] == "solve:" and words[2] == "iterations," and words[-1] == "s"
        assert int(words[1]) > 0
        assert 0.0 < float(words[4].rstrip(",")) <= 1e-8
        assert float(words[5]) >= 0.0
    assert lines[5].startswith("extrapolated:")
    extrapolated = float(lines[5].split()[-1])
    assert abs(extrapolated - 4 * math.pi) / (4 * math.pi) < 0.1


def test_construct_then_check_round_trip(tmp_path, capsys):
    cfg = write(
        tmp_path / "study.cfg",
        """
[study]
dim = 3
epsilons = 1/4 1/8
grids = 15 15
potential = box(1)
f = constant(1)
""",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, _, _ = run_cli(capsys, "construct", cfg, "--out", str(out_a))
    assert code == 0
    assert (out_a / "holes_00.csv").exists()
    assert (out_a / "holes_01.json").exists()

    code, _, _ = run_cli(capsys, "check", cfg, "--out", str(out_a))
    assert code == 0
    direct = (out_a / "assumptions.csv").read_text()
    assert direct.splitlines()[0] == (
        "epsilon,n_cells,n_holes,max_R,sup_a_over_R,sum_A2,sup_A3,sum_A4,sum_A6,diam_over_R"
    )

    code, _, _ = run_cli(
        capsys, "check", cfg, "--out", str(out_b), "--holes-dir", str(out_a)
    )
    assert code == 0
    reread = (out_b / "assumptions.csv").read_text()
    assert reread == direct


def test_solve_writes_fields_and_stats(tmp_path, capsys):
    cfg = write(
        tmp_path / "solve.cfg",
        """
[study]
dim = 3
epsilons = 1/4
grids = 15
potential = plane(0.5, 8)
f = constant(1)
tol = 1e-9
""",
    )
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "solve", cfg, "--out", str(out))
    assert code == 0
    grid, u_eps = read_field(out / "u_perforated.bin")
    _, u_lim = read_field(out / "u_limit.bin")
    assert grid.n == 15
    assert u_eps.shape == (15, 15, 15)
    stats = json.loads((out / "solve_stats.json").read_text())
    assert stats["perforated"]["residual"] <= 1e-9
    assert stats["limit"]["iterations"] > 0
    assert float(abs(u_eps - u_lim).max()) > 0.0


def test_solve_shares_one_full_solve_between_its_two_solves(tmp_path, capsys, transforms):
    # both solves read the 1-D spectra of f, and nothing is transformed on
    # the grid (one transform when the spectrum of f was a grid array): the
    # plane's lumped measure is not constant and its eps 1/8 holes fill
    # less than half the grid, so neither solve builds f
    cfg = write(
        tmp_path / "solve.cfg",
        """
[study]
dim = 3
epsilons = 1/8
grids = 47
potential = plane(0.5, 20)
f = constant(1)
tol = 1e-9
allow_oversized_holes = true
""",
    )
    code, _, _ = run_cli(capsys, "solve", cfg, "--out", str(tmp_path / "out"))
    assert code == 0
    assert transforms == []


def test_study_assert_zero_config_passes(tmp_path, capsys):
    cfg = write(tmp_path / "zero.cfg", ZERO_CFG + """
[trends]
flat = l2_error max_abs 1e-12
""")
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "study", cfg, "--assert", "--out", str(out))
    assert code == 0
    assert "PASS" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trends"][0]["passed"]
    assert (out / "study.csv").exists()


def test_study_assert_failing_trend_exits_three(tmp_path, capsys):
    cfg = write(tmp_path / "zero.cfg", ZERO_CFG + """
[trends]
drop = sum_A6 strict_decrease
""")
    code, stdout, err = run_cli(capsys, "study", cfg, "--assert", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "FAIL" in stdout
    assert "trend" in err


def test_study_without_assert_reports_failures_but_exits_zero(tmp_path, capsys):
    cfg = write(tmp_path / "zero.cfg", ZERO_CFG + """
[trends]
drop = sum_A6 strict_decrease
""")
    code, stdout, _ = run_cli(capsys, "study", cfg, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "FAIL" in stdout


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "[study]\ndim = 3\nepsilons = 1/8 1/4\ngrids = 15 15\n")
    code, _, err = run_cli(capsys, "study", cfg)
    assert code == 1
    assert "error" in err
    for old, new in (
        ("zero()", "constant()"),
        ("constant(1)", "constant(-x)"),
        ("constant(1)", "constant(1e400)"),
        ("zero()", "constant(" + "9" * 400 + ")"),
        ("tol = 1e-10", "tol = inf"),
        ("tol = 1e-10", "tol = 1"),
        # files configparser cannot parse: a repeated key or section, no
        # header, a line that is no key = value
        ("tol = 1e-10", "tol = 1e-10\ntol = 1e-9"),
        ("tol = 1e-10", "tol = 1e-10\n[study]"),
        ("[study]", ""),
        ("tol = 1e-10", "tol = 1e-10\nfoo"),
    ):
        cfg = write(tmp_path / "bad.cfg", ZERO_CFG.replace(old, new))
        code, _, err = run_cli(capsys, "study", cfg)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert "PosixPath" not in err and err.count("bad.cfg") <= 1
    # a parse error names the file once, as given, with the line
    cfg = write(tmp_path / "dup.cfg", ZERO_CFG.replace("tol = 1e-10", "tol = 1e-10\ntol = 1e-9"))
    code, _, err = run_cli(capsys, "study", cfg)
    assert code == 1
    assert "PosixPath" not in err
    assert err.count("dup.cfg") == 1
    assert "line 9: option 'tol' in section 'study' already exists" in err


def test_config_values_are_literal(tmp_path, capsys):
    # '%' is not an interpolation marker: the output directory keeps it
    out = tmp_path / "res%1"
    cfg = write(tmp_path / "pct.cfg", ZERO_CFG + f"out = {out}\n")
    code, _, _ = run_cli(capsys, "construct", cfg)
    assert code == 0
    assert (out / "holes_00.csv").exists()


@pytest.mark.parametrize(
    "epsilons, grids, named",
    [("1e-300", "15", "1e-300"), ("1e-6", "15", "1e-06"), ("inf 1/4", "15 15", "epsilon")],
)
def test_check_rejects_unusable_pitch(tmp_path, capsys, epsilons, grids, named):
    # too fine to enumerate (the index range or array does not fit) or not finite
    cfg = write(tmp_path / "pitch.cfg", ZERO_CFG.replace("1/4 1/8", epsilons).replace("15 15", grids))
    code, _, err = run_cli(capsys, "check", cfg, "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:") and named in err


def test_bad_hole_csv_exits_one(tmp_path, capsys):
    cfg = write(tmp_path / "zero.cfg", ZERO_CFG)
    holes_dir = tmp_path / "holes"
    holes_dir.mkdir()
    # valid CSVs of this config; the first gets a non-finite radius or center
    assert run_cli(capsys, "construct", cfg, "--out", str(tmp_path / "valid"))[0] == 0
    (holes_dir / "holes_01.csv").write_text((tmp_path / "valid" / "holes_01.csv").read_text())
    header, first, *rest = (tmp_path / "valid" / "holes_00.csv").read_text().splitlines()
    fields = first.split(",")
    nan_radius = ",".join(fields[:-1] + ["nan"])
    inf_center = ",".join(fields[:3] + ["inf"] + fields[4:])
    # missing holes_00.csv, then a non-numeric field, a short row, a bad
    # header, a NaN radius and an infinite center
    for text in (
        None,
        "i1,i2,i3,cx1,cx2,cx3,radius\n0,0,0,0,0,zero,0\n",
        "i1,i2,i3,cx1,cx2,cx3,radius\n0,0,0,0,0,0\n",
        "a,b,c\n",
        "\n".join([header, nan_radius, *rest]) + "\n",
        "\n".join([header, inf_center, *rest]) + "\n",
    ):
        if text is not None:
            (holes_dir / "holes_00.csv").write_text(text)
        code, _, err = run_cli(
            capsys, "check", cfg, "--out", str(tmp_path / "o"), "--holes-dir", str(holes_dir)
        )
        assert code == 1
        assert err.startswith("error:")


def test_override_tiny_holes_is_no_flag(tmp_path):
    # the nearest-node override was removed: no subcommand accepts it
    cfg = write(tmp_path / "zero.cfg", ZERO_CFG)
    for argv in (["capacity", "3", "1"], *([c, cfg] for c in ("construct", "check", "solve", "study"))):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--override-tiny-holes"])
        assert exc.value.code == 2


def test_overflowing_measure_exits_one(tmp_path, capsys):
    # plane(0.5, 1e308) lumps to infinite weights: lumping rejects the
    # measure as invalid input, before numpy warns of the overflow
    cfg = write(tmp_path / "big.cfg", ZERO_CFG.replace("zero()", "plane(0.5, 1e308)"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "study", cfg, "--out", str(tmp_path / "o"))
    assert code == 1
    assert "lumped measure must be finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_numerical_failure_exits_two(tmp_path, capsys):
    # under-resolved holes at the configured grid: resolution error
    cfg = write(
        tmp_path / "fine.cfg",
        """
[study]
dim = 3
epsilons = 1/8
grids = 15
potential = plane(0.5, 8)
f = constant(1)
""",
    )
    code, _, err = run_cli(capsys, "study", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "solve_perforated" in err
    code, _, err = run_cli(capsys, "solve", cfg, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "< 2h" in err


@pytest.mark.parametrize("value", ["1e300", "1e160", "-1e160"])
def test_study_with_an_overflowing_rhs_fails_in_the_rhs_stage(tmp_path, capsys, value):
    # every value of constant(1e160) is finite but its square is not: the
    # product of the factors' squared norms must overflow as the sum of
    # f^2 over the nodes does, before any solve
    body = ZERO_CFG.replace("zero()", "plane(0.5, 20)").replace("constant(1)", f"constant({value})")
    cfg = write(tmp_path / "overflow.cfg", body)
    code, _, err = run_cli(capsys, "study", cfg, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "study failed in stage 'rhs' at epsilon=None" in err
    assert err.rstrip().endswith("right-hand side is not finite or its norm overflows")


THREADS_CFG = """
[study]
dim = 3
epsilons = 1/4 1/8
grids = 31 31
potential = plane(0.5, 20)
f = constant(1)
tol = 1e-9
allow_oversized_holes = true
witness_modes = (1,1,1) (3,1,1)
"""


def test_report_does_not_depend_on_blas_threads(tmp_path):
    # threaded BLAS reductions sum in an order that depends on the thread
    # count; every reduction behind the report must not
    cfg = write(tmp_path / "threads.cfg", THREADS_CFG)
    src = str(Path(perfhom.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "perfhom.cli", "study", cfg, "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "solver_seconds"
        reports.append([row[:-1] for row in rows])
    assert reports[0] == reports[1]
