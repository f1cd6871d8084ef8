"""Command-line surface: solve polynomials, render escape-time pictures,
tabulate branch-count bounds, and run the acceptance suite.

All reports are strict UTF-8 JSON on stdout (no NaN or Infinity) with a
"schema": 1 marker and sorted keys; images go to --out paths.  Exit codes:
0 full success, 2 partial success (the report carries warnings), 1 usage or
runtime error.  Non-finite input (nan, inf) is an error: exit 1, before
any output.

Complex values on the command line are "re,im" pairs ("re" alone is real).
--coeffs lists coefficients lowest degree first with the leading 1 implied:
plain commas separate real coefficients ("0,-1" is t^2 - 1); items separated
by semicolons are each a complex pair ("0,1;2" has a0 = i, a1 = 2, and a
trailing semicolon marks a single complex coefficient).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import sys
from pathlib import Path

from .closedform import solve_cubic, solve_quadratic, solve_quartic
from .complexity import max_cup_length
from .newton import DEFAULT_CONFIG, NewtonConfig, scaled_root, solve_pure_power
from .poly import MonicPolynomial
from .powiter import solve_by_power_iteration
from .report import RootReport, dumps
from .tracing import BranchTrace

CLOSED_FORM = {2: solve_quadratic, 3: solve_cubic, 4: solve_quartic}

_DISK_RADIUS = 10.0

# Power iteration's stopping rule: --epsilon and --max-iters default to it.
POWER_CONFIG = NewtonConfig(threshold_r=1e-8, max_iters=100)


# fractal is the one module that imports numpy, so only cmd_fractal imports
# it.  Its names stay readable here, through the package, because
# bench/spans.py wraps four of them as attributes of this module.
def __getattr__(name: str):
    package = sys.modules[__package__]
    if name in package._FRACTAL_NAMES:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (2 means partial success)."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_floats(text: str) -> list[float]:
    """Comma-separated finite floats."""
    values = [float(chunk) for chunk in text.split(",")]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected finite numbers, got {text!r}")
    return values


def parse_complex(text: str) -> complex:
    """Parse "re,im" or bare "re" into a complex number with finite parts."""
    if text.count(",") > 1:
        raise ValueError(f"expected 're' or 're,im', got {text!r}")
    return complex(*_parse_floats(text.strip()))


def parse_coeffs(text: str) -> tuple[complex, ...]:
    """Parse a coefficient list, lowest degree first.

    Semicolons switch to complex items (each "re,im" or "re"); otherwise
    commas separate plain reals.
    """
    if ";" in text:
        items = [chunk for chunk in text.split(";") if chunk.strip()]
        coeffs = tuple(parse_complex(chunk) for chunk in items)
    else:
        coeffs = tuple(complex(v) for v in _parse_floats(text))
    if not coeffs:
        raise ValueError("at least one coefficient is required")
    return coeffs


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = _parse_floats(text)
    if len(parts) != 4:
        raise ValueError("window needs four numbers: re_min,re_max,im_min,im_max")
    return parts[0], parts[1], parts[2], parts[3]


def _parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError("resolution must look like 512x512")
    width, height = int(parts[0]), int(parts[1])
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    return width, height


def solve(
    poly: MonicPolynomial,
    method: str = "closed-form",
    config: NewtonConfig = POWER_CONFIG,
) -> RootReport:
    """All roots of ``poly`` by one method, as the ``solve`` command reports them.

    ``method`` is "closed-form" (degrees 2-4), "pure-power" (t**d - S, every
    coefficient above a0 zero) or "power-iteration".  ``config`` is power
    iteration's tolerance and step cap, ``POWER_CONFIG`` by default as for
    the command; the radicals of the other methods take a fixed number of
    Newton updates and ignore it.  Every method's report is
    built by ``RootReport.answering``, which certifies it: roots that
    coincide, and roots whose Newton correction gives them away as
    inaccurate, each add a warning.  The ``solve`` command exits 2 when the
    report carries any warning.
    """
    if method == "power-iteration":
        return solve_by_power_iteration(
            poly, max_iters=config.max_iters, tol=config.threshold_r
        )
    trace = BranchTrace()
    if method == "pure-power":
        if any(c != 0 for c in poly.coeffs[1:]):
            raise ValueError("pure-power needs every coefficient above a0 to be zero")
        roots = solve_pure_power(poly.degree, -poly.coeffs[0], trace=trace)
    elif method == "closed-form":
        solver = CLOSED_FORM.get(poly.degree)
        if solver is None:
            raise ValueError(
                f"closed-form handles degrees {tuple(CLOSED_FORM)}, got {poly.degree}"
            )
        roots = solver(*reversed(poly.coeffs), trace=trace)
    else:
        raise ValueError(f"unknown method {method!r}")
    return RootReport.answering(
        poly,
        roots=roots,
        branch_count=trace.branch_count,
        method=method,
        per_root_iterations=(trace.computation_count,) * len(roots),
    )


def cmd_solve(args: argparse.Namespace) -> int:
    if args.pure_power and args.method not in (None, "pure-power"):
        raise ValueError(f"--pure-power contradicts --method {args.method}")
    method = "pure-power" if args.pure_power else args.method or "closed-form"
    flags = (("threshold_r", args.epsilon), ("max_iters", args.max_iters))
    given = {name: value for name, value in flags if value is not None}
    if given and method != "power-iteration":
        raise ValueError(f"--epsilon and --max-iters are for power-iteration, not {method}")
    config = dataclasses.replace(POWER_CONFIG, **given) if given else POWER_CONFIG
    if args.d is not None or args.S is not None:
        if method != "pure-power":
            raise ValueError(f"--d and --S are for pure-power, not {method}")
        if args.d is None or args.S is None:
            raise ValueError("--d and --S go together")
        if args.coeffs is not None:
            raise ValueError("give either --coeffs or --d/--S, not both")
        poly = MonicPolynomial((-parse_complex(args.S),) + (0j,) * (args.d - 1))
    elif args.coeffs is not None:
        poly = MonicPolynomial(parse_coeffs(args.coeffs))
    elif method == "pure-power":
        raise ValueError("pure-power needs --d and --S (or --coeffs)")
    else:
        raise ValueError(f"--coeffs is required for {method}")
    report = solve(poly, method, config)
    print(report.to_json())
    return 2 if report.warnings else 0


def cmd_fractal(args: argparse.Namespace) -> int:
    from .fractal import pgm_maxval, render, sector_statistics, write_image, write_pgm

    if args.d < 2:
        raise ValueError("degree must be at least 2")
    seed = parse_complex(args.seed)
    window = _parse_window(args.window)
    resolution = _parse_resolution(args.resolution)
    config = NewtonConfig(threshold_r=args.threshold, max_iters=args.max_iters)
    if args.pgm is not None:
        pgm_maxval(config.max_iters)  # before any work or output
    grid = render(
        args.d, seed, config, window=window, resolution=resolution
    )
    write_image(grid, args.out)
    if args.pgm is not None:
        write_pgm(grid, args.pgm)
    payload = {
        "d": args.d,
        "seed": [seed.real, seed.imag],
        "threshold_r": args.threshold,
        "max_iters": args.max_iters,
        "window": list(window),
        "resolution": [resolution[0], resolution[1]],
        "out": str(args.out),
        "sectors": sector_statistics(grid),
    }
    print(dumps(payload))
    return 0


def _random_disk(rng: random.Random) -> complex:
    r = _DISK_RADIUS * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def _measure_branches(d: int, samples: int, rng: random.Random) -> tuple[int, str]:
    """Worst recorded branch count over a random suite for degree d.

    Degrees 2-4 exercise the closed-form solvers on coefficients drawn
    uniformly from the disk |a| <= 10; other degrees count the one radical,
    ``scaled_root``, of t**d = S with S from the same disk (the rotations of
    ``solve_pure_power`` record nothing).  Failed runs, where a radicand or
    Newton's updates left the double range, still contribute the branches
    they spent before stopping.  (A pure power takes 1 branch at every d and
    S; see the ``bound`` command's description.)
    """
    solver = CLOSED_FORM.get(d)
    worst = 0
    for _ in range(samples):
        trace = BranchTrace()
        try:
            if solver is not None:
                coeffs = [_random_disk(rng) for _ in range(d)]
                solver(*reversed(coeffs), trace=trace)
            else:
                scaled_root(d, _random_disk(rng), trace=trace)
        except ArithmeticError:  # a radicand, or Newton's updates, out of range
            pass
        worst = max(worst, trace.branch_count)
    suite = "pure-power" if solver is None else "closed-form"
    return worst, suite


def cmd_bound(args: argparse.Namespace) -> int:
    degrees = [int(chunk) for chunk in args.degrees.split(",")]
    if any(d < 2 for d in degrees):
        raise ValueError("degrees must be at least 2")
    if args.samples < 1:
        raise ValueError("--samples must be positive")

    rows = []
    for d in degrees:
        rng = random.Random(args.rng_seed * 1_000_003 + d)
        measured, suite = _measure_branches(d, args.samples, rng)
        certificate = max_cup_length(d)
        rows.append(
            {
                "d": d,
                "smale_bound": certificate.smale_bound,
                "budget": certificate.budget,
                "cup_cardinality": certificate.cardinality,
                "cup_total_weight": certificate.total_weight,
                "cup_pairs": [[pair.m, pair.k] for pair in certificate.pairs],
                "measured_branches": measured,
                "bound_satisfied": measured > certificate.smale_bound,
                "suite": suite,
                "samples": args.samples,
            }
        )
    print(dumps({"rng_seed": args.rng_seed, "rows": rows}))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the acceptance suite with pytest, echoing its per-criterion lines.

    The suite is looked up in the current directory only: acceptance 9 runs
    ``verify`` from a scratch directory, and a lookup that fell back to the
    package's own checkout would start the suite again from inside itself.
    """
    target = Path.cwd() / "tests" / "test_acceptance.py"
    if not target.is_file():
        print(
            "error: tests/test_acceptance.py not found; run from a source"
            " checkout",
            file=sys.stderr,
        )
        return 1
    import subprocess

    cmd = [sys.executable, "-m", "pytest", str(target), "-q", "-s"]
    return subprocess.run(cmd, check=False).returncode


def build_parser() -> _Parser:
    parser = _Parser(prog="polybranch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="find all roots and report branches")
    solve.add_argument("--coeffs", help="a0,a1,... lowest degree first")
    solve.add_argument(
        "--method",
        choices=["closed-form", "power-iteration", "pure-power"],
    )
    solve.add_argument(
        "--pure-power",
        action="store_true",
        help="shortcut for --method pure-power with --d/--S",
    )
    solve.add_argument("--d", type=int, help="degree for pure-power (t**d - S)")
    solve.add_argument("--S", help="right-hand side for pure-power, as re,im")
    solve.add_argument(
        "--epsilon",
        type=float,
        help=f"power-iteration tolerance (default {POWER_CONFIG.threshold_r})",
    )
    solve.add_argument(
        "--max-iters",
        type=int,
        help=f"power-iteration steps per stage (default {POWER_CONFIG.max_iters})",
    )
    solve.set_defaults(func=cmd_solve)

    frac = sub.add_parser("fractal", help="render an escape-time picture")
    frac.add_argument("--d", type=int, required=True)
    frac.add_argument("--seed", default="1,0", help="Newton seed as re,im")
    frac.add_argument("--out", required=True, help="output PPM path")
    frac.add_argument("--pgm", help="also write raw iteration counts as PGM")
    frac.add_argument(
        "--window", default="-2,2,-2,2", help="re_min,re_max,im_min,im_max"
    )
    frac.add_argument("--resolution", default="512x512", help="WxH cells")
    frac.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_CONFIG.threshold_r,
        help="convergence radius",
    )
    frac.add_argument("--max-iters", type=int, default=DEFAULT_CONFIG.max_iters)
    frac.set_defaults(func=cmd_fractal)

    bound = sub.add_parser(
        "bound",
        help="branch-count bounds per degree",
        description="One row per degree, the only place a measured worst-case"
        " branch count meets the Smale bound (log2 d)^(2/3) - 1 and the"
        " cup-length certificate behind it; bound_satisfied is the strict"
        " measured > smale_bound.  Other degrees measure the family t**d = S,"
        " whose 1 branch reads false from d = 8 on: the bound is for the"
        " general degree-d polynomial.",
    )
    bound.add_argument("--degrees", required=True, help="comma list, e.g. 2,3,4")
    bound.add_argument(
        "--samples", type=int, default=1000, help="suite size per degree"
    )
    bound.add_argument("--rng-seed", type=int, default=0)
    bound.set_defaults(func=cmd_bound)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
