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

import cmath
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import polybranch
from polybranch import MonicPolynomial, cli, closedform, fractal, newton, roots_to_poly
from polybranch.cli import main, parse_coeffs, solve
from polybranch.powiter import solve_by_power_iteration
from polybranch.report import _INACCURATE_ROOTS, RootReport
from polybranch.tracing import BranchTrace, record_decision

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
    assert payload["branch_count"] == 1
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
    # t^2 + 1.5e308 t + 1.5e308: the iterate's norm overflows on the first
    # step.  That is an unconverged stage with its own cause, not a zero
    # eigenvalue.
    proc = run_cli("solve", "--method", "power-iteration", "--coeffs=1.5e308,1.5e308")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "overflow encountered in square" not in proc.stderr
    warnings = json.loads(proc.stdout)["warnings"]
    assert any("overflow" in w and "degree-2 stage" in w for w in warnings)


@pytest.mark.parametrize("coeffs", ["1e200,0", "-1e200,0"])
def test_power_iteration_flags_a_tie_whose_squares_overflow(coeffs):
    # t^2 +- 1e200: the roots +-1e100 i or +-1e100 share a modulus.  The
    # squares of the iterate's entries leave the double range, but its norm
    # does not, so the stage runs to the cap and reports the tie.
    proc = run_cli("solve", "--method", "power-iteration", f"--coeffs={coeffs}")
    assert proc.returncode == 2
    assert proc.stderr == ""
    warnings = json.loads(proc.stdout)["warnings"]
    assert any("equal-magnitude" in w and "degree-2 stage" in w for w in warnings)


def test_power_iteration_rescales_an_underflowing_iterate():
    # t^2 + 1e-300: a plain sum of the first iterate's squares underflows to
    # 0, yet the iterate is not zero.  Its norm is taken without squaring
    # it, so the stage runs on to the tie of the roots +-1e-150 i, which
    # share a modulus.
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
    "argv",
    [
        ("solve", "--pure-power", "--d", "3"),
        ("solve", "--pure-power", "--d", "3", "--S=2", "--coeffs=-2,0,0"),
        ("solve", "--pure-power"),
        ("solve", "--coeffs=1,2,3;"),
        ("solve", "--coeffs=;"),
        ("solve", "--coeffs=1,2", "--d", "5"),
        ("solve", "--method", "power-iteration", "--coeffs=1,2", "--S=3"),
        ("solve", "--pure-power", "--method", "power-iteration", "--d", "3", "--S=8"),
        ("solve", "--pure-power", "--method", "closed-form", "--d", "3", "--S=8"),
        # power iteration's stopping flags, on methods that have no stopping rule
        ("solve", "--coeffs=1,2,3", "--epsilon", "1e-12"),
        ("solve", "--pure-power", "--d", "16", "--S=1,2", "--max-iters", "7"),
        ("fractal", "--d", "1", "--out", "o.ppm"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "512"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "0x5"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--window", "1,2,3"),
        ("bound", "--degrees", "1"),
        ("bound", "--degrees", "2", "--samples", "0"),
        # windows whose extent overflows to inf
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "4x4",
         "--window=-1e308,1e308,-1e308,1e308"),
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "4x4",
         "--window=-1e308,1.7e308,-1,1"),
        # a finite extent whose cell centres overflow
        ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "4x4",
         "--window=-8e307,8e307,-8e307,8e307"),
        # stopping flags that power iteration would refuse too: the method
        # refuses them before any value is read
        ("solve", "--coeffs=-1,0", "--epsilon", "inf"),
        ("solve", "--coeffs=1,2", "--max-iters", "0"),
        ("solve", "--pure-power", "--d", "3", "--S=2", "--epsilon", "inf"),
    ],
)
def test_input_errors_through_main_are_one_line(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solved a refused input"))
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "solve" and {"--epsilon", "--max-iters"} & set(argv):
        assert err.startswith("error: --epsilon and --max-iters are for power-iteration, not ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("coeffs", ["1,1e300,1", "1e300,1e300,1e300"])
def test_a_report_beyond_the_double_range_is_one_error_line(coeffs, capsys):
    # Power iteration's partial result for these ties has a residual of inf,
    # which strict JSON cannot hold: the report is refused, naming its root.
    assert main(["solve", "--method", "power-iteration", f"--coeffs={coeffs}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: roots[0] or its residual is beyond the double range\n"
    assert "JSON compliant" not in err


def test_solve_help_prints_the_power_iteration_defaults(capsys, monkeypatch):
    for config in (cli.POWER_CONFIG, newton.NewtonConfig(threshold_r=2.5e-5, max_iters=37)):
        monkeypatch.setattr(cli, "POWER_CONFIG", config)
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"tolerance (default {config.threshold_r})" in text
        assert f"per stage (default {config.max_iters})" in text


@pytest.mark.parametrize(
    "poly, method, message",
    [
        (MonicPolynomial((1, 2)), "nope", "unknown method 'nope'"),
        (MonicPolynomial((-8, 1, 0)), "pure-power", "every coefficient above a0"),
    ],
)
def test_library_solve_rejects_a_method_it_cannot_apply(poly, method, message):
    with pytest.raises(ValueError, match=message):
        solve(poly, method)


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
        # radicands that no power 2**(d*m) brings into range above d = 2026:
        # a subnormal one, and one whose modulus is beyond the largest double;
        # the error names the equation instead of answering a wrong root
        ("--pure-power", "--d", "2100", "--S=5e-324"),
        ("--pure-power", "--d", "2055", "--S=1.5e308,1.5e308"),
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
    if "--pure-power" in args:
        assert f"t**{args[2]} = " in proc.stderr


@pytest.mark.parametrize(
    "d, S",
    [
        (1023, "1.5"),
        (1074, "2,0.001"),
        (1075, "2"),
        (2000, "3,4"),
        # a subnormal radicand, and two whose modulus is beyond the largest double
        (1074, "5e-324"),
        (1075, "1.5e308,1.5e308"),
        (1025, "-1.7e308,1.7e308"),
    ],
)
def test_pure_power_answers_at_large_degrees(d, S):
    proc = run_cli("solve", "--pure-power", "--d", str(d), f"--S={S}")
    assert proc.returncode == 0
    roots = roots_as_complex(strict_json(proc.stdout))
    assert len(roots) == d
    with mpmath.workdps(30):  # root**d in doubles would overflow or go subnormal
        radicand = mpmath.mpc(*(float(part) for part in S.split(",")))
        for root in roots:
            assert abs(mpmath.mpc(root) ** d - radicand) <= 1e-10 * abs(radicand)


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
}

_NUMPY_FREE_RUN = f"""
import contextlib, importlib, io, sys
import polybranch
import polybranch.powiter
from polybranch import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "--coeffs=1,2,3,4"]) == 0
    assert cli.main(["solve", "--pure-power", "--d", "64", "--S=1,2"]) == 0
    assert cli.main(["solve", "--method", "power-iteration", "--coeffs=-6,11,-6"]) == 0
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
    # fractal (the numpy module) loads on first use of one of its names; a
    # fresh interpreter shows what the scalar commands import.
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.mark.skipif(not BENCH_SPANS.is_file(), reason="no bench/ next to the tests")
def test_the_names_the_benchmark_wraps_keep_their_call_shapes(monkeypatch):
    # bench/spans.py wraps module attributes by name in every traced run;
    # a name deleted or bypassed here stops ``bench/run.py --trace 1``.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module("polybranch." + module), attr))

    # bench/layers.py records the arguments of these three calls and replays
    # them: scaled_root's as a[:3] + (trace,), newton_root's as a[:4] + (trace,).
    calls = {}
    for module, attr in (
        (closedform, "scaled_root"), (newton, "select_seed"), (newton, "newton_root")
    ):
        def recorded(*args, _fn=getattr(module, attr), _name=attr, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recorded)
    tight = newton.NewtonConfig(threshold_r=1e-8)  # bench/workloads.py's TIGHT
    closedform.solve_quadratic(2 + 0j, 5 + 0j, tight, BranchTrace())
    assert sorted(calls) == ["newton_root", "scaled_root", "select_seed"]
    monkeypatch.undo()
    trace = BranchTrace()
    (radical,), (kernel,) = calls["scaled_root"], calls["newton_root"]
    assert newton.scaled_root(*radical[:3], trace) == 4j
    assert newton.newton_root(*kernel[:4], trace) == 0.5  # sqrt(16 / 2**6), the reduced radical
    assert newton.select_seed(*calls["select_seed"][0][:2], trace)[1] == 1
    assert newton.solve_pure_power(16, 1 + 2j, tight, trace)[0] == newton.scaled_root(16, 1 + 2j)
    assert trace.branch_count == 3

    assert list(inspect.signature(fractal.render).parameters)[5] == "workers"
    grid = fractal.render(3, 1 + 0j, None, (-1.0, 1.0, -1.0, 1.0), (2, 2), 1)
    assert grid.iterations.shape == (2, 2)


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


@pytest.mark.parametrize(
    "coeffs, want, branches",
    [
        # the cubic's first cube root is usable at every scale
        ("-6e-18,1.1e-11,-6e-6", (1e-6, 2e-6, 3e-6), 2),
        # the resolvent's cube root is not zero at every scale
        ("2.4e-23,-5e-17,3.5e-11,-1e-5", (1e-6, 2e-6, 3e-6, 4e-6), 6),
    ],
)
def test_small_roots_take_the_path_of_roots_of_modulus_one(coeffs, want, branches):
    proc = run_cli("solve", f"--coeffs={coeffs}")
    assert proc.returncode == 0
    payload = strict_json(proc.stdout)
    assert payload["warnings"] == []
    assert payload["branch_count"] == branches
    got = sorted(roots_as_complex(payload), key=lambda z: z.real)
    assert all(abs(g - w) <= 1e-9 * w for g, w in zip(got, want))


@pytest.mark.parametrize(
    "coeffs, method",
    [
        pytest.param("1,1e10", "closed-form", id="1,1e10"),
        pytest.param("-1,1e8,0", "closed-form", id="-1,1e8,0"),
        pytest.param("1,1.2e154", "power-iteration", id="power-iteration-1,1.2e154"),
    ],
)
def test_an_inaccurate_root_is_flagged(coeffs, method):
    # Cancellation in (-a1 + s)/2, and in u + v - shift, loses the small
    # roots (-1e-10, and 1e-8); their Newton corrections give them away.
    # Power iteration polishes the small root of t**2 + 1.2e154 t + 1 to
    # -8.333e-155, but at z ~ 2**-511 a0 = 1 scaled by 2**1022 overflows:
    # the root cannot be certified, and is flagged.
    proc = run_cli("solve", f"--coeffs={coeffs}", "--method", method)
    assert proc.returncode == 2
    warnings = strict_json(proc.stdout)["warnings"]
    assert len(warnings) == 1 and "Newton correction" in warnings[0]


def test_power_iteration_finds_the_small_root_beside_a_huge_one():
    # Deflating t**2 + 1e10 t + 1 by -1e10 cancels the quotient's constant
    # to 0; the polish on the input brings the small root back.
    proc = run_cli("solve", "--method", "power-iteration", "--coeffs=1,1e10")
    assert proc.returncode == 0
    payload = strict_json(proc.stdout)
    assert payload["warnings"] == []
    assert roots_as_complex(payload) == [-1e10, -1e-10]


def test_power_iteration_divides_out_exact_zero_roots():
    # t**2 (t**2 + a3 t + a2): both zeros are exact and come first, and the
    # small root a2 / r1 is polished on the zero-free quadratic, where a
    # polish on the input would stop at p(0) = 0.
    a2 = complex(-7.176538697249779e-206, 1.641475718065768e-205)
    a3 = complex(-1.1442242796867373e-93, 3.7232455117515185e-94)
    coeffs = f"0;0;{a2.real},{a2.imag};{a3.real},{a3.imag}"
    proc = run_cli("solve", "--method", "power-iteration", f"--coeffs={coeffs}")
    assert proc.returncode == 2
    payload = strict_json(proc.stdout)
    assert len(payload["warnings"]) == 1 and "coincide" in payload["warnings"][0]
    assert payload["roots"][:2] == [[0.0, 0.0], [0.0, 0.0]]
    with mpmath.workdps(50):
        b, c = mpmath.mpc(a3.real, a3.imag), mpmath.mpc(a2.real, a2.imag)
        root = mpmath.sqrt(b * b - 4 * c)
        r1 = (-b - root) / 2 if abs(-b - root) > abs(-b + root) else (-b + root) / 2
        small = complex(c / r1)
    found = min(roots_as_complex(payload)[2:], key=abs)
    assert abs(found - small) <= 1e-15 * abs(small)


def test_a_root_whose_scaled_coefficients_overflow_is_flagged():
    # At z = 1e-200, s is near -664, and a1 = 1e200 scaled by 2**664 leaves
    # the double range: the Newton correction cannot be certified.
    poly = MonicPolynomial((0, 1e200))
    report = RootReport.answering(
        poly, (1e-200,), branch_count=0, method="-", per_root_iterations=(0,)
    )
    assert report.warnings == (_INACCURATE_ROOTS,)


@pytest.mark.parametrize("family", ["bench-shaped", "spread"])
def test_the_library_and_solve_give_one_power_iteration_report(family):
    # cli.solve adds nothing to the library's report: the same roots, the
    # same residuals and the same warnings, whatever the input.
    rng = random.Random(2200)
    warned = 0
    for i in range(120):
        degree = 2 + i % 7
        if family == "bench-shaped":
            moduli = [rng.uniform(0.5, 2.0)]
            for _ in range(degree - 1):
                moduli.append(moduli[-1] * rng.uniform(0.35, 0.75))
        else:
            moduli = [10 ** rng.uniform(-8, 8) for _ in range(degree)]
        roots = [cmath.rect(m, rng.uniform(-math.pi, math.pi)) for m in moduli]
        if i % 16 == 0:
            roots[1] = -roots[0]
        poly = roots_to_poly(tuple(roots))
        library = solve_by_power_iteration(poly, max_iters=100, tol=1e-8)
        assert repr(solve(poly, "power-iteration")) == repr(library)
        warned += bool(library.warnings)
    assert warned > 0


def test_power_iteration_polishes_a_huge_root_to_finite_roots():
    # At z ~ -1.1e154, z**3 overflows plain Horner and the polish step was
    # inf/inf, a NaN root.  The scaled polish keeps every root finite; the
    # small pair +-9.5e-78i is not resolved, and the report says so.
    proc = run_cli("solve", "--method", "power-iteration", "--coeffs=1,1,1.1e154")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    payload = strict_json(proc.stdout)  # no NaN
    roots = roots_as_complex(payload)
    assert len(roots) == 3
    assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in roots)
    assert abs(roots[0] + 1.1e154) <= 1e-12 * 1.1e154


def mpmath_roots(coeffs):
    """Roots at 50 digits, solved for t / scale with scale = max |a_j|^(1/(d-j)):
    ``polyroots`` stops on an absolute test, which is met at once at 1e-50."""
    d = len(coeffs)
    with mpmath.workdps(50):
        cs = [mpmath.mpc(c.real, c.imag) for c in coeffs]
        scale = max(abs(c) ** (mpmath.mpf(1) / (d - j)) for j, c in enumerate(cs))
        full = [1] + [cs[j] / scale ** (d - j) for j in range(d - 1, -1, -1)]
        found = mpmath.polyroots(full, maxsteps=200, extraprec=100)
        return [complex(z * scale) for z in found]


@pytest.mark.parametrize("exponent", [-100, -50, -30, -10, -6, 0, 10, 50])
def test_closed_form_roots_are_accurate_or_flagged_at_every_scale(exponent):
    # 50 cubics and 50 quartics with roots of modulus 10^exponent * 10^U(-1, 1)
    # and uniform phase.  Each answer is within 1e-6 relative of mpmath, or
    # carries a warning, or is a clean error: from about 1e50 on the
    # quartic's delta1**2 leaves the double range.
    rng = random.Random(exponent)
    for degree in (3, 4):
        for _ in range(50):
            chosen = [
                cmath.rect(10 ** (exponent + rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
                for _ in range(degree)
            ]
            poly = roots_to_poly(tuple(chosen))
            try:
                report = solve(poly)
            except ArithmeticError:
                continue
            if report.warnings:
                continue
            want = mpmath_roots(poly.coeffs)
            error = min(
                max(abs(g - w) / abs(w) for g, w in zip(order, want))
                for order in itertools.permutations(report.roots)
            )
            assert error <= 1e-6, (poly.coeffs, report.roots, want)


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


def test_fractal_pgm_cap_beyond_the_netpbm_maxval_is_an_error(tmp_path):
    # Netpbm requires 0 < maxval < 65536, and the PGM's maxval is the cap.
    args = ("fractal", "--d", "3", "--resolution", "4x4", "--out", "x.ppm", "--pgm", "x.pgm")
    proc = run_cli(*args, "--max-iters", "70000", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "65535" in proc.stderr
    assert list(tmp_path.iterdir()) == []
    # Without --pgm the same cap is fine, and 65535 itself still fits a PGM.
    assert run_cli(*args[:-2], "--max-iters", "70000", cwd=tmp_path).returncode == 0
    assert run_cli(*args, "--max-iters", "65535", cwd=tmp_path).returncode == 0
    assert (tmp_path / "x.pgm").read_text().split()[3] == "65535"


def test_a_grid_too_large_to_allocate_is_a_clean_error(tmp_path):
    # 4e6 x 4e6 complex cell centers need 233 TiB: more than RAM plus swap
    # and more than a 47-bit address space, so the allocation fails before
    # any page is touched.
    args = ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "4000000x4000000")
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


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


SPLIT_FRAME = ("fractal", "--d", "5", "--seed", "0.8,0.6", "--resolution", "512x512",
               "--out", "o.ppm", "--pgm", "o.pgm")


def test_a_split_frame_has_the_bytes_of_a_frame_pinned_to_one_cpu(tmp_path):
    # Pinned to one CPU the frame runs in one part; unpinned, in one part
    # per usable CPU.  The affinity is set in the child alone.
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs and a settable CPU affinity")
    cpu = min(os.sched_getaffinity(0))

    def pin():
        os.sched_setaffinity(0, {cpu})

    def run(preexec, *args, cwd=None):
        env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
        try:
            return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd,
                                  env=env, preexec_fn=preexec)
        except subprocess.SubprocessError:
            pytest.skip("the CPU affinity of a child cannot be set here")

    probe = run(pin, "-c", "import os; print(len(os.sched_getaffinity(0)))")
    assert probe.stdout == b"1\n"
    outputs = []
    for name, preexec in (("pinned", pin), ("free", None)):
        work = tmp_path / name
        work.mkdir()
        proc = run(preexec, "-m", "polybranch", *SPLIT_FRAME, cwd=work)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        outputs.append((proc.stdout, (work / "o.ppm").read_bytes(), (work / "o.pgm").read_bytes()))
    assert outputs[0] == outputs[1]


def test_a_split_frame_from_the_critical_point_warns_of_nothing(tmp_path):
    # Seed 0 divides 0 by 0 in every lane of every part at the first step;
    # each part keeps that quiet, so even -W error leaves stderr empty.
    env = dict(os.environ, PYTHONWARNINGS="error")
    proc = run_cli("fractal", "--d", "3", "--seed", "0,0", "--resolution", "512x512",
                   "--out", "o.ppm", cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert all(entry["converged_fraction"] == 0.0 for entry in json.loads(proc.stdout)["sectors"])


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
    assert 1 <= rows[1]["measured_branches"] <= 3
    assert 1 <= rows[2]["measured_branches"] <= 6


def test_bound_keeps_its_table_when_a_sample_leaves_the_double_range(monkeypatch, capsys):
    # Every d = 1023 radicand of this suite reduces into range and takes the
    # family's 1 branch.
    proc = run_cli("bound", "--degrees", "2,1023", "--samples", "10", "--rng-seed", "3")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert [row["d"] for row in rows] == [2, 1023]
    assert rows[1]["measured_branches"] == 1
    # No disk radicand leaves the range at any degree, so a stand-in solver
    # does: it spends the branch the real solver records and raises.  The
    # sample counts the branch it spent, like a run that did not converge,
    # and the table stays.
    def out_of_range(d, S, config=None, trace=None):
        record_decision(trace, "seed_sector_0", True)
        raise ArithmeticError(f"t**{d} = {S!r}: S leaves the double range")

    monkeypatch.setattr(cli, "solve_pure_power", out_of_range)
    assert main(["bound", "--degrees", "2,5000", "--samples", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["d"] for row in rows] == [2, 5000]
    assert rows[1]["measured_branches"] == 1


def test_bound_large_degree_uses_pure_power_suite():
    proc = run_cli("bound", "--degrees", "256", "--samples", "3")
    assert proc.returncode == 0
    row = json.loads(proc.stdout)["rows"][0]
    assert set(row) == BOUND_ROW_KEYS
    assert row["suite"] == "pure-power"
    assert row["smale_bound"] == 3.0
    # The half-plane test: 1 branch suffices for the family t**d = S at
    # every degree, below the bound for general degree-d polynomials from
    # d = 8 on.
    assert row["measured_branches"] == 1
    assert row["bound_satisfied"] is False


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
