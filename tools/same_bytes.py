"""Check that two source trees give the CLI the same bytes.

Usage: python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``polybranch``
package, i.e. the ``src`` of two checkouts.  A tree of an earlier commit
comes from plain git, for example ``git worktree add ../parent HEAD~1`` and
then ``../parent/src``.

Every command in ``COMMANDS`` runs as ``python -m polybranch ...`` once per
tree, each time in a fresh temporary directory with PYTHONPATH pointing at
that tree.  The two runs are compared on stdout, stderr (the tree's path
replaced by ``<src>``), exit code and the bytes of every file the command
wrote.  One line is printed per command that differs, then a count; the exit
status is 1 if any command differs, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

FRACTAL_FILES = ("--out", "o.ppm", "--pgm", "o.pgm")

COMMANDS: list[tuple[str, ...]] = [
    # solve, closed form
    ("solve", "--coeffs=-1,0"),
    ("solve", "--coeffs=1,2,3"),
    ("solve", "--coeffs=1,2,3,4"),
    ("solve", "--coeffs=-24,50,-35,10"),
    ("solve", "--coeffs=0,1;2"),
    ("solve", "--coeffs=1,-2"),
    ("solve", "--coeffs=1,2"),
    ("solve", "--coeffs=0,0,0,0"),
    ("solve", "--coeffs=1,2,3", "--epsilon", "1e-12"),
    ("solve", "--coeffs=1,2,3", "--max-iters", "1"),
    ("solve", "--coeffs=1,2,3,4,5"),
    ("solve", "--coeffs=nan,1"),
    ("solve", "--coeffs", "abc"),
    ("solve",),
    ("solve", "--coeffs=1,1,1e120"),
    # solve, pure power
    ("solve", "--pure-power", "--d", "3", "--S=1,2"),
    ("solve", "--pure-power", "--d", "16", "--S=1,2"),
    ("solve", "--pure-power", "--d", "64", "--S=-3,0.5"),
    ("solve", "--pure-power", "--d", "3", "--S=0"),
    ("solve", "--pure-power", "--d", "1", "--S=2"),
    ("solve", "--pure-power", "--d", "0", "--S=2"),
    ("solve", "--pure-power", "--d", "3"),
    ("solve", "--pure-power", "--d", "3", "--S=2", "--coeffs=-2,0,0"),
    ("solve", "--pure-power", "--coeffs=5"),
    ("solve", "--pure-power", "--coeffs=-0,-0"),
    ("solve", "--method", "pure-power", "--coeffs=-8,0,0"),
    ("solve", "--method", "pure-power", "--coeffs=-8,1,0"),
    ("solve", "--pure-power", "--d", "16", "--S=1,2", "--max-iters", "7"),
    ("solve", "--pure-power", "--d", "3", "--S=-0,-1"),
    ("solve", "--pure-power", "--d", "4", "--S=-0,-1"),
    ("solve", "--pure-power", "--d", "2", "--S=-1,-0"),
    ("solve", "--pure-power", "--d", "5", "--S=-0,1"),
    ("solve", "--pure-power", "--d", "7", "--S=1e300,1e300"),
    ("solve", "--pure-power", "--d", "2", "--S=1e308,1e308"),
    ("solve", "--pure-power", "--d", "1000", "--S=2"),
    ("solve", "--pure-power", "--d", "1023", "--S=2,0.001"),
    ("solve", "--pure-power", "--d", "200", "--S=1e-300,3e-301"),
    ("solve", "--pure-power", "--d", "1074", "--S=2,0.001"),
    ("solve", "--pure-power", "--d", "1075", "--S=2"),
    ("solve", "--pure-power", "--d", "3", "--S=1e-310"),
    ("solve", "--pure-power", "--d", "5", "--S=5e-324"),
    ("solve", "--pure-power", "--d", "600", "--S=1e300"),
    # reduced radicands near the top of the double range, and one out of reach
    ("solve", "--pure-power", "--d", "2030", "--S=-5e-307,-5e-307"),
    ("solve", "--pure-power", "--d", "2040", "--S=-3e306,1e306"),
    ("solve", "--pure-power", "--d", "4000", "--S=5e-324"),
    # solve, power iteration
    ("solve", "--method", "power-iteration", "--coeffs=-1,0"),
    ("solve", "--method", "power-iteration", "--coeffs=-6,11,-6"),
    ("solve", "--method", "power-iteration", "--coeffs=1,2"),
    ("solve", "--method", "power-iteration", "--coeffs=0,0,1e200"),
    ("solve", "--method", "power-iteration", "--coeffs=-6,11,-6", "--max-iters", "5"),
    ("solve", "--method", "power-iteration", "--coeffs=-24,50,-35,10", "--epsilon", "1e-12"),
    ("solve", "--method", "power-iteration"),
    ("solve", "--method", "power-iteration", "--coeffs=0,-1,0"),
    ("solve", "--method", "power-iteration", "--coeffs=2,-3", "--max-iters", "1"),
    ("solve", "--method", "power-iteration", "--coeffs=0,0"),
    # fractal
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "64x64"),
    ("fractal", "--d", "4", *FRACTAL_FILES, "--resolution", "128x96", "--seed", "0.5,0.5"),
    ("fractal", "--d", "5", *FRACTAL_FILES, "--resolution", "64x64",
     "--window=-1.93,2.07,-2.02,1.98"),
    ("fractal", "--d", "2", *FRACTAL_FILES),
    ("fractal", "--d", "6", *FRACTAL_FILES, "--resolution", "128x128"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "65x65"),
    ("fractal", "--d", "6", *FRACTAL_FILES, "--resolution", "127x129"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "33x31",
     "--threshold", "0.3", "--max-iters", "2"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "64x64", "--max-iters", "1"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "64x64", "--seed", "0,0"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "64x64", "--seed", "nan,0"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "64x64",
     "--seed", "1.0000001,0", "--threshold", "1e-12"),
    ("fractal", "--d", "1", *FRACTAL_FILES),
    # bound
    ("bound", "--degrees", "2,3,4,5", "--samples", "300"),
    ("bound", "--degrees", "2,3,4,5", "--samples", "300", "--json"),
    ("bound", "--degrees", "2,3,4,6,8,16", "--samples", "200", "--rng-seed", "7"),
    ("bound", "--degrees", "2", "--epsilon", "1e-4", "--max-iters", "20", "--json"),
    ("bound", "--degrees", "1"),
    ("bound", "--degrees", "2", "--samples", "0"),
    # help
    ("--help",),
    ("solve", "--help"),
    ("fractal", "--help"),
    ("bound", "--help"),
    ("verify", "--help"),
    # double range and non-finite input
    ("solve", "--pure-power", "--d", "2", "--S=1.7e308,1.7e308"),
    ("solve", "--epsilon", "inf", "--coeffs=-1,0"),
    ("solve", "--pure-power", "--d", "3", "--S=nan"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "8x8", "--threshold", "inf"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "8x8", "--window=-inf,inf,-1,1"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "4x4",
     "--window=-1e308,1e308,-1e308,1e308"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "4x4", "--window=-1e308,1.7e308,-1,1"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "4x4",
     "--window=-8e307,8e307,-8e307,8e307"),
    ("bound", "--degrees", "2,1023", "--samples", "10", "--rng-seed", "3"),
    ("solve", "--method", "power-iteration", "--coeffs=1e200,0"),
    ("solve", "--method", "power-iteration", "--coeffs=1e-300,0"),
    # power iteration near the top of the range: ties of modulus 1e100 whose
    # squares overflow, and an iterate whose norm overflows
    ("solve", "--method", "power-iteration", "--coeffs=-1e200,0"),
    ("solve", "--method", "power-iteration", "--coeffs=1.5e308,1.5e308"),
    # coincident roots are relative to the roots' modulus
    ("solve", "--coeffs=1e-20,0"),
    ("solve", "--coeffs=3e-301,-1.3e-150"),
    ("solve", "--method", "power-iteration", "--coeffs=3e-301,-1.3e-150"),
    ("solve", "--coeffs=1,4,6,4"),
    ("solve", "--coeffs=-2,5,-3,-1"),
    # radicands that are not finite: an overflowed discriminant, inf - inf
    ("solve", "--coeffs=1,1e160"),
    ("solve", "--coeffs=1e308,1e200"),
    ("bound", "--degrees", "2", "--json"),
    # right-hand sides on or next to a sector boundary ray
    ("solve", "--pure-power", "--d", "8", "--S=-0.21747253929101606,0.09008007521805468"),
    ("solve", "--pure-power", "--d", "32", "--S=-241.81117191874486,23.816321669717745"),
    ("solve", "--pure-power", "--d", "64", "--S=-128.28103283123886,-6.302043028172362"),
    ("solve", "--pure-power", "--d", "4", "--S=0.011910198427173432,0.01191019842717343"),
    # zero radicands inside the closed form, and grid cells on the d = 4 edge rays
    ("solve", "--coeffs=0,0"),
    ("solve", "--coeffs=0,0,0"),
    ("fractal", "--d", "4", *FRACTAL_FILES, "--resolution", "64x64"),
    # power iteration: a degree-8 ladder (moduli 1.9 * 0.6^k), a modulus tie
    # at the second stage (roots 3, +-1.2i, 0.5, 0.2), and the tiny pair
    # 2^-519, 2^-521 whose first stage stops after one step
    ("solve", "--method", "power-iteration",
     "--coeffs=2.76319e-07,0.000104295;-0.000906394,0.00107946;-0.00415921,-0.0125882;"
     "-0.0946602,0.0542684;-0.429007,0.0113726;0.660461,-0.854154;-1.1588,-0.58515;"
     "-0.627825,-1.21291"),
    ("solve", "--method", "power-iteration", "--coeffs=-0.432,3.168,-5.628,3.64,-3.7"),
    ("solve", "--method", "power-iteration", "--coeffs=8.487983164e-314,-7.283535870312702e-157"),
    # the last sector, just below the positive real axis, at d = 16 and
    # d = 64, and a bound table over both degrees
    ("solve", "--pure-power", "--d", "16", "--S=0.9238795325112867,-0.3826834323650898"),
    ("solve", "--pure-power", "--d", "64", "--S=1.9903694533443936,-0.19603428065912118"),
    ("bound", "--degrees", "16,64", "--samples", "200", "--rng-seed", "5"),
    # smale_bound(256) is exactly 3.0; the fractal degree error without --pgm
    ("bound", "--degrees", "2,3,4,5,8,256", "--samples", "50", "--rng-seed", "9"),
    ("fractal", "--d", "1", "--out", "o.ppm"),
    # 512x512 frames whose lanes split over threads, and a degree whose
    # coincident-roots test once compared every pair
    ("fractal", "--d", "7", *FRACTAL_FILES, "--resolution", "512x512", "--seed", "0.8,0.6",
     "--window=-1.97,2.03,-2.04,1.96"),
    ("fractal", "--d", "5", *FRACTAL_FILES, "--resolution", "512x512", "--seed", "0,0"),
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "512x512", "--max-iters", "1"),
    ("solve", "--pure-power", "--d", "4000", "--S=0.5"),
    # the half-plane edges: +i (on the left half), -i (where the root's one
    # cut runs), a third-quadrant radicand at d = 64, and t**2 + 1
    ("solve", "--pure-power", "--d", "5", "--S=0,1"),
    ("solve", "--pure-power", "--d", "5", "--S=0,-1"),
    ("solve", "--pure-power", "--d", "64", "--S=-0.5,-1e-3"),
    ("solve", "--coeffs=1,0"),
    # degrees above 1022, where range reduction leaves the radicand at or
    # near its own scale, and a step cap of 3 at d = 64
    ("solve", "--pure-power", "--d", "1023", "--S=1.5"),
    ("solve", "--pure-power", "--d", "2000", "--S=3,4"),
    ("solve", "--pure-power", "--d", "64", "--S=-3,0.5", "--max-iters", "3"),
    # roots (1, 2, 3) * 1e-6 and (1, 2, 3, 4) * 1e-6, where an absolute floor
    # once changed the closed forms' path, and two spread polynomials whose
    # small root the closed form loses and flags
    ("solve", "--coeffs=-6e-18,1.1e-11,-6e-6"),
    ("solve", "--coeffs=2.4e-23,-5e-17,3.5e-11,-1e-5"),
    ("solve", "--coeffs=1,1e10"),
    ("solve", "--coeffs=-1,1e8,0"),
    # power iteration deflating by a huge root, which cancels the quotient's
    # constant: the polish on the input recovers the small root; and the
    # polish of p at z ~ -1.1e154, where plain Horner overflows
    ("solve", "--method", "power-iteration", "--coeffs=1,1e10"),
    ("solve", "--method", "power-iteration", "--coeffs=1,1.2e154"),
    ("solve", "--method", "power-iteration", "--coeffs=1,1,1.1e154"),
    # flags the chosen method has no use for are usage errors
    ("solve", "--coeffs=1,2", "--d", "5"),
    ("solve", "--method", "power-iteration", "--coeffs=1,2", "--S=3"),
    ("solve", "--pure-power", "--method", "power-iteration", "--d", "3", "--S=8"),
    ("solve", "--pure-power", "--method", "closed-form", "--d", "3", "--S=8"),
    # --epsilon and --max-iters are refused off power iteration before their
    # values are read, so a value NewtonConfig would refuse gets the refusal
    # that names the method.  Against a tree that built the config first, the
    # first and last of these, and "solve --epsilon inf --coeffs=-1,0", differ
    # on stderr only; on power iteration NewtonConfig still refuses the value,
    # in the same bytes.  "solve --help" differs too: its defaults print from
    # POWER_CONFIG, as 1e-08 and 100.
    ("solve", "--coeffs=1,2", "--max-iters", "0"),
    ("solve", "--method", "power-iteration", "--coeffs=1,2", "--epsilon", "0"),
    ("solve", "--pure-power", "--d", "3", "--S=2", "--epsilon", "inf"),
    # one-column and one-row frames: every PGM token ends a row, and a cap
    # above 255 maps two counts to one colour; then a grid too large to
    # allocate, which is one error line
    ("fractal", "--d", "3", *FRACTAL_FILES, "--resolution", "1x9", "--max-iters", "300"),
    ("fractal", "--d", "4", *FRACTAL_FILES, "--resolution", "9x1"),
    ("fractal", "--d", "3", "--out", "o.ppm", "--resolution", "4000000x4000000"),
    # the accuracy certificate: roots of modulus 1/2 whose p(z) plain Horner
    # evaluates in subnormal arithmetic, and a degree-8 ladder (bench
    # power_iteration, seed 0, input 62) whose smallest root is 1.8e-7 off
    ("solve", "--pure-power", "--d", "1074", "--S=5e-324"),
    ("solve", "--method", "power-iteration",
     "--coeffs=3.010055721850055e-08,1.8847757195870258e-08;"
     "-2.0211781928045452e-06,6.554387687097903e-06;"
     "-0.000348017426243562,-0.00013430833746947663;"
     "-8.849090122244329e-05,-0.005827718463030036;"
     "0.0775899547667637,-0.08899621302688804;"
     "0.7086448925190301,-0.1923933129947371;"
     "2.158405548971221,-0.6809927524146677;"
     "1.9407159194070407,-0.8713480406022562"),
    # exact zero roots are divided out before any stage: t**2 times a
    # quadratic whose roots are 1e-93 and 1e-112 in modulus, and t**2 (t + 1)
    # next to t**3 + 1e200 t**2 + t + 1, whose root near -1e200 leads
    ("solve", "--method", "power-iteration",
     "--coeffs=0;0;-7.176538697249779e-206,1.641475718065768e-205;"
     "-1.1442242796867373e-93,3.7232455117515185e-94"),
    ("solve", "--method", "power-iteration", "--coeffs=1,1,1e200"),
    ("solve", "--method", "power-iteration", "--coeffs=0,0,1"),
    # power iteration past the bench's degrees: a degree-12 ladder (moduli
    # 1.89 down to 0.00135), and a degree-9 input whose dominant pair has equal
    # modulus 1.96, which runs to the --max-iters cap
    ("solve", "--method", "power-iteration",
     "--coeffs=-7.903574293099483e-15,-2.919817778458489e-15;"
     "9.72336631000949e-12,-5.41844680920529e-12;"
     "-5.318699513151274e-10,4.345101225346526e-09;"
     "-4.620688203325833e-07,-3.2620746276619266e-07;"
     "1.4264960153682365e-05,-2.3232325414467878e-05;"
     "0.0005330759725606996,-0.0007750264624759248;"
     "-0.0188838900798195,0.011511710205972117;"
     "0.10319203920824288,-0.2439228264423298;"
     "-0.20279376529594004,1.2555293672579375;"
     "0.23422286962601638,-1.2380436425442847;"
     "0.6799950071642703,-1.2314241906406724;"
     "2.2246581868600126,0.14472803942720597"),
    ("solve", "--method", "power-iteration", "--max-iters", "200",
     "--coeffs=-3.393822603445064e-08,-1.8497888438594252e-07;"
     "-1.4159891852434546e-05,-5.868769826539765e-06;"
     "-0.0003556373378532322,-0.0004628489585937404;"
     "-0.018583214314777476,0.011476624571898656;"
     "0.09567095349453386,0.16541694555671674;"
     "0.04398269633538134,-0.5339141720518846;"
     "-2.001830861895101,2.0120988334873355;"
     "3.5862648988982757,-1.624795698770906;"
     "-0.6839078699818116,0.26586507294954215"),
    # power iteration stops on its displacement alone.  Against a tree that
    # also tested the eigen-residual, whose rounding exceeds a tolerance of
    # 1e-17, the first two differ: the first now converges at step 53 with
    # the roots 2 and 1, and the second finds the real root and flags the
    # conjugate pair as a tie where every stage ran to the cap.  The next
    # two have residuals of inf: the report is refused with one error line
    # naming its root, where the JSON encoder's text was printed.  Every
    # other power-iteration command keeps its bytes.
    ("solve", "--method", "power-iteration", "--coeffs=2,-3", "--epsilon", "1e-17"),
    ("solve", "--method", "power-iteration", "--coeffs=1,2,3", "--epsilon", "1e-17"),
    ("solve", "--method", "power-iteration", "--coeffs=1,1e300,1"),
    ("solve", "--method", "power-iteration", "--coeffs=1e300,1e300,1e300"),
    # t**d = S records one decision, the half-plane test, at every d and S.
    # Against a tree that tested S = 0 first, every pure-power command that
    # answers reports branch_count 1 where it reported 2 (1 at S = 0, whose
    # rotated zeros now print some parts as -0.0), and every bound row at
    # d >= 5 reads measured_branches 1, so bound_satisfied turns false from
    # d = 8 on where it did from d = 37; "bound --help" says so.
    ("bound", "--degrees", "5,7,8,36,37", "--samples", "50"),
]


def run(tree: Path, argv: tuple[str, ...]) -> tuple:
    """Exit code, stdout, normalised stderr and written files of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "polybranch", *argv],
            cwd=tmp,
            env=env,
            capture_output=True,
            timeout=600,
            check=False,
        )
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    stderr = proc.stderr.replace(str(tree).encode(), b"<src>")
    return proc.returncode, proc.stdout, stderr, files


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    for tree in (parent, change):
        if not (tree / "polybranch" / "__init__.py").is_file():
            print(f"error: no polybranch package in {tree}", file=sys.stderr)
            return 2
    differing = 0
    for command in COMMANDS:
        before, after = run(parent, command), run(change, command)
        what = [
            name
            for name, a, b in zip(("exit", "stdout", "stderr", "files"), before, after)
            if a != b
        ]
        if what:
            differing += 1
            detail = ", ".join(what)
            if "exit" in what:
                detail += f" (exit {before[0]} -> {after[0]})"
            print(f"differs: polybranch {' '.join(command)}: {detail}")
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
