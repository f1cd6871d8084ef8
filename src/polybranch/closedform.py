"""Closed-form solvers for degrees 2-4 with every radical branch counted.

All square and cube roots go through the seeded Newton kernel -- never
through built-in fractional powers -- so the decision count of a solve is
exactly its radicals' half-plane tests, one each, and its degenerate-case
tests:

* quadratic: one square root, 1 branch on every path;
* cubic: one square root plus the cube roots (the second cube root is paired
  as -p/(3u) when u is usable, otherwise drawn by its own radical), at most
  3 branches;
* quartic: square root + cube root building the resolvent (2), the
  degenerate test on it (1), one more square root (1), and the two final
  square roots (2) -- at most 6.

Numerical guards (an unusably small u, a resolvent branch whose offset
collapses) are plumbing, not decision nodes: they re-route to algebraically
equivalent values without consulting any quantity an adversarial input could
not already force.  A radicand of exactly 0 is handled by ``scaled_root``.
Every guard and test compares terms of one degree in the roots, with no
absolute floor, so t -> 2**k t multiplies the roots by 2**k and leaves the
decision list as it is, wherever no intermediate leaves the double range.
"""

from __future__ import annotations

import math

from .newton import NewtonConfig, scaled_root
from .tracing import BranchTrace, record_decision

# primitive cube root of unity, a constant of the formulas (costs no branch)
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)


def solve_quadratic(
    a1: complex,
    a0: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> tuple[complex, complex]:
    """Roots of t**2 + a1 t + a0.  Exactly one decision on every path."""
    disc = a1 * a1 - 4 * a0
    s = scaled_root(2, disc, config, trace)
    return ((-a1 + s) / 2, (-a1 - s) / 2)


def solve_cubic(
    a2: complex,
    a1: complex,
    a0: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> tuple[complex, complex, complex]:
    """Roots of t**3 + a2 t**2 + a1 t + a0.  At most three decisions."""
    p = a1 - a2 * a2 / 3
    q = 2 * a2 ** 3 / 27 - a2 * a1 / 3 + a0
    root_disc = scaled_root(2, q * q / 4 + p ** 3 / 27, config, trace)
    u = scaled_root(3, -q / 2 + root_disc, config, trace)
    # Pair the second cube root so that u*v = -p/3 holds by construction.
    # When u is too small to divide by, p is forced small too, so an
    # independent radical for v is safe: the pairing error it could introduce
    # is proportional to p.  The size test is plumbing, not a decision.
    if abs(u) ** 3 > 1e-18 * max(abs(q), abs(root_disc)):
        v = -p / (3 * u)
    else:
        v = scaled_root(3, -q / 2 - root_disc, config, trace)
    shift = a2 / 3
    w = _OMEGA
    wc = _OMEGA.conjugate()
    return (
        u + v - shift,
        w * u + wc * v - shift,
        wc * u + w * v - shift,
    )


def solve_quartic(
    a3: complex,
    a2: complex,
    a1: complex,
    a0: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> tuple[complex, complex, complex, complex]:
    """Roots of t**4 + a3 t**3 + a2 t**2 + a1 t + a0.  At most six decisions.

    ``p``/``q`` are the depressed quartic's quadratic/linear coefficients and
    ``delta0``/``delta1`` the two classical invariants.  On the degenerate
    path (vanishing cube radical, i.e. a root of multiplicity >= 3) the roots
    are rational in the coefficients and no further radical is spent.
    """
    p = (8 * a2 - 3 * a3 * a3) / 8
    q = (a3 ** 3 - 4 * a3 * a2 + 8 * a1) / 8
    delta0 = a2 * a2 - 3 * a3 * a1 + 12 * a0
    delta1 = (
        2 * a2 ** 3
        - 9 * a3 * a2 * a1
        + 27 * a3 * a3 * a0
        + 27 * a1 * a1
        - 72 * a2 * a0
    )
    inner = scaled_root(2, delta1 * delta1 - 4 * delta0 ** 3, config, trace)
    big_q = scaled_root(3, (delta1 + inner) / 2, config, trace)
    shift = a3 / 4
    # big_q and both bounds scale as the roots squared; <= takes delta0 = delta1 = 0.
    if record_decision(
        trace,
        "resolvent_radical_zero",
        abs(big_q) <= 1e-10 * max(abs(delta1) ** (1.0 / 3.0), math.sqrt(abs(delta0))),
    ):
        # triple root rho = -3q/(4p); p ~ 0 forces the quadruple root -a3/4
        if abs(p) <= 1e-12 * max(abs(a3) ** 2, abs(a2)):
            r = -shift
            return (r, r, r, r)
        rho = -3 * q / (4 * p)
        return (rho - shift, rho - shift, rho - shift, -3 * rho - shift)
    # The cube root is only determined up to a unit cube root; a choice whose
    # offset collapses to 0 (possible even for well-separated roots) is
    # rotated to a sibling before the radical is taken.  Plumbing, no branch.
    for _ in range(3):
        radicand = -2 * p / 3 + (big_q + delta0 / big_q) / 3
        if abs(radicand) > 1e-12 * (
            abs(2 * p / 3) + (abs(big_q) + abs(delta0 / big_q)) / 3
        ):
            break
        big_q = big_q * _OMEGA
    s = scaled_root(2, radicand, config, trace) / 2
    u1 = scaled_root(2, -4 * s * s - 2 * p + q / s, config, trace)
    u2 = scaled_root(2, -4 * s * s - 2 * p - q / s, config, trace)
    return (
        -shift - s + u1 / 2,
        -shift - s - u1 / 2,
        -shift + s + u2 / 2,
        -shift + s - u2 / 2,
    )
