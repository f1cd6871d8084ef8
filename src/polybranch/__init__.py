"""Branch-counted polynomial root finding.

A small laboratory for root-finding algorithms whose control flow is
instrumented: every data-dependent branch a solver takes is recorded on a
trace, so the topological cost of an algorithm is a measured quantity that
can be compared against the (log2 d)^(2/3) - 1 lower bound.  Alongside the
branch-counted solvers live a branch-free power-iteration solver, an
escape-time renderer for Newton convergence fractals, and the cup-length
counting that produces the lower bound itself.

numpy is imported only by ``fractal`` (the escape-time renderer) and
``powiter`` (power iteration).  The names re-exported here from those two
modules, listed in ``_LAZY``, load their module on first use, so the
scalar solvers, the bound and every command that uses only them never
import numpy.
"""

import importlib

from .complexity import (
    CupLengthCertificate,
    GeneratorPair,
    max_cup_length,
    pairs_within_weight,
    smale_bound,
    verify_lemma_claim,
)
from .closedform import solve_cubic, solve_quadratic, solve_quartic
from .newton import (
    NewtonConfig,
    NewtonOutcome,
    NoConvergenceError,
    newton_root,
    sector_seed,
    select_seed,
    solve_pure_power,
)
from .poly import (
    MonicPolynomial,
    RootTuple,
    deflate,
    evaluate,
    has_repeated_roots,
    roots_to_poly,
)
from .report import RootReport
from .tracing import BranchTrace, record_decision

__version__ = "0.1.0"

# The names of the two numpy modules, resolved on first use (PEP 562).
_LAZY = {
    **dict.fromkeys(
        (
            "FractalGrid",
            "escape_times",
            "render",
            "rotated_frame",
            "sector_statistics",
            "write_image",
            "write_pgm",
        ),
        "fractal",
    ),
    **dict.fromkeys(
        (
            "CompanionMatrix",
            "PowerIterResult",
            "companion",
            "detect_equal_magnitude",
            "power_iterate",
            "solve_by_power_iteration",
        ),
        "powiter",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
