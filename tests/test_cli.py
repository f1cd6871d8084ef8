"""End-to-end tests for the command-line interface.

Every test drives the entry point of the package the tests import,
``python -m polybranch``, through a subprocess so the argument parsing, JSON
serialization, exit codes, and file outputs are exercised exactly the way a
shell user sees them.  The library ``solve`` is checked against the output
of the command it sits behind.  The console-script test alone needs the
package installed, and is skipped where the ``polybranch`` script is not on
PATH.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import polybranch
from polybranch import MonicPolynomial
from polybranch.cli import parse_coeffs, solve

# The directory that holds the imported package.  Children get it as an
# absolute PYTHONPATH entry, so they import the same code whatever their cwd.
PACKAGE_ROOT = str(Path(polybranch.__file__).resolve().parents[1])

SOLVE_KEYS = {
    "branch_count",
    "degree",
    "method",
    "per_root_iterations",
    "residuals",
    "roots",
    "schema",
    "warnings",
}
FRACTAL_KEYS = {
    "d",
    "max_iters",
    "out",
    "resolution",
    "schema",
    "sectors",
    "seed",
    "threshold_r",
    "window",
}
BOUND_ROW_KEYS = {
    "bound_satisfied",
    "budget",
    "cup_cardinality",
    "cup_pairs",
    "cup_total_weight",
    "d",
    "measured_branches",
    "samples",
    "smale_bound",
    "suite",
}


def run_cli(*args, cwd=None, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "polybranch", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def roots_as_complex(payload):
    return [complex(re, im) for re, im in payload["roots"]]


def strict_json(text):
    """Parse JSON that must not hold NaN or +-Infinity."""

    def reject(constant):
        raise AssertionError(f"non-finite number {constant} in the output")

    return json.loads(text, parse_constant=reject)


def test_solve_closed_form_known_quadratic():
    proc = run_cli("solve", "--coeffs=-1,0", "--method", "closed-form")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == SOLVE_KEYS
    assert payload["schema"] == 1
    assert payload["method"] == "closed-form"
    assert payload["degree"] == 2
    assert payload["branch_count"] == 1
    assert payload["roots"] == [[1.0, 0.0], [-1.0, 0.0]]
    assert payload["warnings"] == []
    assert len(payload["per_root_iterations"]) == 2
    assert all(isinstance(n, int) and n >= 0 for n in payload["per_root_iterations"])
    assert all(res <= 1e-9 for res in payload["residuals"])


def test_coefficients_are_read_constant_term_first():
    # "0,-1" is the polynomial t^2 - t: constant 0, then the linear term.
    proc = run_cli("solve", "--coeffs", "0,-1")
    assert proc.returncode == 0
    found = sorted(roots_as_complex(json.loads(proc.stdout)), key=lambda z: z.real)
    assert abs(found[0] - 0) < 1e-9
    assert abs(found[1] - 1) < 1e-9


def test_solve_power_iteration_branch_free():
    proc = run_cli("solve", "--coeffs", "2,-3", "--method", "power-iteration")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["method"] == "power-iteration"
    assert payload["branch_count"] == 0
    found = sorted(roots_as_complex(payload), key=lambda z: -abs(z))
    assert abs(found[0] - 2) < 1e-6
    assert abs(found[1] - 1) < 1e-6


def test_solve_pure_power_cube_root():
    proc = run_cli("solve", "--pure-power", "--d", "3", "--S", "8,0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["method"] == "pure-power"
    assert payload["degree"] == 3
    assert payload["branch_count"] <= 3
    expected = [2 * complex(math.cos(2 * math.pi * j / 3), math.sin(2 * math.pi * j / 3)) for j in range(3)]
    found = roots_as_complex(payload)
    for want in expected:
        assert min(abs(got - want) for got in found) < 1e-9


def test_method_degree_mismatch_is_a_usage_error():
    proc = run_cli("solve", "--coeffs", "1,2,3,4,5", "--method", "closed-form")
    assert proc.returncode == 1
    assert "closed-form handles degrees" in proc.stderr


def test_repeated_roots_exit_with_warning_status():
    # (t - 1)^2 collapses both roots; the run still reports them but flags it.
    proc = run_cli("solve", "--coeffs", "1,-2")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["warnings"]
    assert "coincide" in payload["warnings"][0]
    for root in roots_as_complex(payload):
        assert abs(root - 1) < 1e-6


def test_equal_magnitude_eigenvalues_exit_with_warning_status():
    proc = run_cli("solve", "--coeffs=-1,0", "--method", "power-iteration")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert any("equal-magnitude" in w for w in payload["warnings"])


def test_power_iteration_flags_an_overflowing_iterate():
    # t^2 + 1e200: the iterate's norm overflows on the first step.  That is
    # an unconverged stage with its own cause, not a zero eigenvalue.
    proc = run_cli("solve", "--method", "power-iteration", "--coeffs=1e200,0")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "overflow encountered in square" not in proc.stderr
    warnings = json.loads(proc.stdout)["warnings"]
    assert any("overflow" in w and "degree-2 stage" in w for w in warnings)


def test_power_iteration_rescales_an_underflowing_iterate():
    # t^2 + 1e-300: the first iterate's norm underflows to 0 in the sum of
    # squares, yet the iterate is not zero.  Rescaled, the stage runs on to
    # the tie of the roots +-1e-150 i, which share a modulus.
    proc = run_cli("solve", "--method", "power-iteration", "--coeffs=1e-300,0")
    assert proc.returncode == 2
    warnings = json.loads(proc.stdout)["warnings"]
    assert any("equal-magnitude" in w and "degree-2 stage" in w for w in warnings)


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("solve", "--coeffs", "abc").returncode == 1
    assert run_cli("solve").returncode == 1
    assert run_cli("bound", "--degrees", "2", "--epsilon", "1e-4").returncode == 1
    assert run_cli("bound", "--degrees", "2", "--json").returncode == 1


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--epsilon", "inf", "--coeffs=-1,0"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "8x8", "--threshold", "inf"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "8x8", "--seed", "nan,0"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "8x8", "--window=-inf,inf,-1,1"),
    ],
)
def test_non_finite_input_is_an_error_before_any_output(args, tmp_path):
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["nan,0", "1,inf", "nan;", "0;-inf,0"])
def test_both_coefficient_forms_share_one_finite_rule(text):
    with pytest.raises(ValueError, match="expected finite numbers"):
        parse_coeffs(text)


@pytest.mark.parametrize(
    "args",
    [
        # degrees whose range-reduced radicand would fall below the smallest
        # normal double; the error must not blame a zero radicand
        ("--pure-power", "--d", "1074", "--S=2,0.001"),
        ("--pure-power", "--d", "1075", "--S=2"),
        ("--coeffs=1,1,1e120",),
        # the discriminant 1e320 - 4 overflows to a non-finite radicand
        ("--coeffs=1,1e160",),
    ],
)
def test_arithmetic_overflow_is_a_clean_error(args):
    proc = run_cli("solve", *args)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "zero" not in proc.stderr


@pytest.mark.parametrize(
    "d, S",
    [
        (3, "1e-310"),
        (5, "5e-324"),
        (600, "1e300"),
        (2, "1.7e308,1.7e308"),
        # on or next to a sector boundary ray
        (8, "-0.21747253929101606,0.09008007521805468"),
        (32, "-241.81117191874486,23.816321669717745"),
        (64, "-128.28103283123886,-6.302043028172362"),
    ],
)
def test_pure_power_solves_across_the_double_range(d, S):
    proc = run_cli("solve", "--pure-power", "--d", str(d), f"--S={S}")
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    # At 1.7e308 the parts of a root square past the double range, so only
    # the scaled form keeps the residuals finite.
    got = np.array(roots_as_complex(strict_json(proc.stdout)))
    # the doubles the command parsed, not the decimals
    radicand = mpmath.mpc(*(float(part) for part in S.split(",")))
    with mpmath.workdps(50):
        want = np.array([complex(mpmath.root(radicand, d, k)) for k in range(d)])
    nearest = np.abs(got[:, None] - want[None, :]).argmin(axis=1)
    assert sorted(nearest) == list(range(d))  # one computed root per true root
    assert (np.abs(got - want[nearest]) <= 1e-12 * np.abs(want[nearest])).all()


@pytest.mark.parametrize(
    "args, poly, method",
    [
        (
            ("--coeffs=-24,50,-35,10",),
            MonicPolynomial((-24, 50, -35, 10)),
            "closed-form",
        ),
        (
            ("--pure-power", "--d", "16", "--S=1,2"),
            MonicPolynomial((-complex(1, 2),) + (0j,) * 15),
            "pure-power",
        ),
        (
            ("--method", "power-iteration", "--coeffs=-6,11,-6"),
            MonicPolynomial((-6, 11, -6)),
            "power-iteration",
        ),
    ],
)
def test_library_solve_matches_the_command(args, poly, method):
    proc = run_cli("solve", *args)
    assert proc.returncode == 0
    assert solve(poly, method).to_json() + "\n" == proc.stdout


LAZY_NAMES = {
    "fractal": (
        "FractalGrid",
        "escape_times",
        "render",
        "rotated_frame",
        "sector_statistics",
        "write_image",
        "write_pgm",
    ),
    "powiter": (
        "CompanionMatrix",
        "PowerIterResult",
        "ZeroEigenvalueError",
        "companion",
        "detect_equal_magnitude",
        "power_iterate",
        "solve_by_power_iteration",
    ),
}

_NUMPY_FREE_RUN = f"""
import contextlib, importlib, io, sys
import polybranch
from polybranch import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "--coeffs=1,2,3,4"]) == 0
    assert cli.main(["solve", "--pure-power", "--d", "64", "--S=1,2"]) == 0
    assert cli.main(["bound", "--degrees", "2,3,4,5", "--samples", "20"]) == 0
assert "numpy" not in sys.modules, "a scalar command imported numpy"

for module, names in {LAZY_NAMES!r}.items():
    source = importlib.import_module("polybranch." + module)
    for name in names:
        assert getattr(polybranch, name) is getattr(source, name), name
from polybranch import render, solve_by_power_iteration
assert cli.render is render
for module in (polybranch, cli):
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_scalar_commands_never_import_numpy():
    # fractal and powiter (the numpy modules) load on first use of one of
    # their names; a fresh interpreter shows what the scalar commands import.
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    "args",
    [
        ("--coeffs=1e-20,0",),  # roots +-1e-10 i
        ("--coeffs=3e-301,-1.3e-150",),  # roots 1e-150 and 3e-151
        ("--pure-power", "--d", "3", "--S=1e-310"),
    ],
)
def test_tiny_distinct_roots_do_not_coincide(args):
    # Coincidence is relative to the roots' modulus, so distinct roots below
    # 1e-9 are not flagged.
    proc = run_cli("solve", *args)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["warnings"] == []


def test_double_root_warns_once():
    # t^2 + 2t + 1 = (t + 1)^2
    report = solve(MonicPolynomial((1, 2)))
    assert sum("coincide" in w for w in report.warnings) == 1
    proc = run_cli("solve", "--coeffs=1,2")
    assert proc.returncode == 2
    assert sum("coincide" in w for w in json.loads(proc.stdout)["warnings"]) == 1


def test_fractal_writes_ppm_and_sector_stats(tmp_path):
    out = tmp_path / "grid.ppm"
    proc = run_cli(
        "fractal",
        "--d",
        "2",
        "--seed",
        "1,0",
        "--out",
        str(out),
        "--resolution",
        "16x16",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == FRACTAL_KEYS
    assert payload["schema"] == 1
    assert payload["d"] == 2
    assert payload["seed"] == [1.0, 0.0]
    assert payload["resolution"] == [16, 16]
    assert payload["threshold_r"] == 0.1
    assert payload["max_iters"] == 100
    assert payload["window"] == [-2.0, 2.0, -2.0, 2.0]
    assert payload["out"] == str(out)
    assert len(payload["sectors"]) == 2
    for entry in payload["sectors"]:
        assert set(entry) == {"cells", "converged_fraction", "mean_iterations", "sector"}
    data = out.read_bytes()
    header = b"P6\n16 16\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 3 * 16 * 16


def test_fractal_pgm_sidecar_holds_raw_durations(tmp_path):
    out = tmp_path / "grid.ppm"
    pgm = tmp_path / "grid.pgm"
    proc = run_cli(
        "fractal",
        "--d",
        "2",
        "--out",
        str(out),
        "--pgm",
        str(pgm),
        "--resolution",
        "8x8",
        "--max-iters",
        "37",
    )
    assert proc.returncode == 0
    lines = pgm.read_text().split()
    assert lines[0] == "P2"
    assert lines[1:3] == ["8", "8"]
    assert lines[3] == "37"
    counts = [int(tok) for tok in lines[4:]]
    assert len(counts) == 64
    assert all(0 <= n <= 37 for n in counts)


def test_fractal_is_deterministic_across_runs_and_worker_counts(tmp_path):
    outputs = []
    stdouts = []
    for idx in range(3):
        out = tmp_path / f"run{idx}.ppm"
        proc = run_cli(
            "fractal",
            "--d",
            "3",
            "--seed",
            "0.77,0.64",
            "--out",
            str(out),
            "--resolution",
            "24x24",
        )
        assert proc.returncode == 0
        stdouts.append(proc.stdout.replace(f"run{idx}.ppm", "run.ppm"))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert stdouts[0] == stdouts[1] == stdouts[2]


def test_bound_table_covers_requested_degrees():
    proc = run_cli("bound", "--degrees", "2,3,4", "--samples", "40")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == {"rng_seed", "rows", "schema"}
    assert payload["rng_seed"] == 0
    rows = payload["rows"]
    assert [row["d"] for row in rows] == [2, 3, 4]
    for row in rows:
        assert set(row) == BOUND_ROW_KEYS
        assert row["suite"] == "closed-form"
        assert row["samples"] == 40
        assert row["bound_satisfied"]
        assert abs(row["smale_bound"] - (math.log2(row["d"]) ** (2 / 3) - 1)) < 1e-9
        assert row["budget"] == math.log2(row["d"])
    assert rows[0]["measured_branches"] == 1
    assert 1 <= rows[1]["measured_branches"] <= 5
    assert 1 <= rows[2]["measured_branches"] <= 7


def test_bound_keeps_its_table_when_a_sample_leaves_the_double_range():
    # One d = 1023 radicand of this suite would be subnormal after range
    # reduction; that sample counts the branches it spent, like a run that
    # did not converge, instead of discarding the table.
    proc = run_cli("bound", "--degrees", "2,1023", "--samples", "10", "--rng-seed", "3")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert [row["d"] for row in rows] == [2, 1023]
    assert rows[1]["measured_branches"] <= 1023


def test_bound_large_degree_uses_pure_power_suite():
    proc = run_cli("bound", "--degrees", "256", "--samples", "3")
    assert proc.returncode == 0
    row = json.loads(proc.stdout)["rows"][0]
    assert set(row) == BOUND_ROW_KEYS
    assert row["suite"] == "pure-power"
    assert row["smale_bound"] == 3.0
    assert row["measured_branches"] >= 3
    assert row["bound_satisfied"]


def test_bound_output_is_deterministic():
    args = ("bound", "--degrees", "2,3", "--samples", "25", "--rng-seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # bound_satisfied is the strict inequality measured > bound
    for row in json.loads(first.stdout)["rows"]:
        assert row["bound_satisfied"] == (row["measured_branches"] > row["smale_bound"])


def test_verify_outside_checkout_fails_cleanly(tmp_path):
    proc = run_cli("verify", cwd=tmp_path)
    assert proc.returncode == 1
    assert "run from a source checkout" in proc.stderr


@pytest.mark.skipif(
    shutil.which("polybranch") is None,
    reason="the polybranch console script exists only after the package is installed",
)
def test_console_script_is_installed():
    script = shutil.which("polybranch")
    assert script is not None
    proc = subprocess.run([script, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("solve", "fractal", "bound", "verify"):
        assert name in proc.stdout
