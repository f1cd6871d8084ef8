"""Seeded Newton iteration for t**d = S, with branch-counted seed selection.

A radical needs no sector, only a half-plane: t -> t**d covers the punctured
plane, and a half-plane is simply connected, so each half-plane carries a
continuous d-th root (Schwarz genus 2 for every d; Smale, "On the topology
of algorithms I", 1987).  ``select_seed`` records that one test; iteration
counts and convergence checks are not decisions.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .poly import ldexp_complex
from .tracing import BranchTrace, record_decision

_EPS = sys.float_info.epsilon
# An iterate beyond this modulus has diverged; every Newton routine stops it.
DIVERGENCE_BAILOUT = 1e8


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters shared by every Newton-driven routine.

    ``threshold_r`` is the convergence radius and ``max_iters`` the step cap;
    the divergence bound is the module constant ``DIVERGENCE_BAILOUT``.
    """

    threshold_r: float = 0.1
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not (0 < self.threshold_r < math.inf):
            raise ValueError("threshold_r must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


# Escape-time pictures stop at 0.1; radicals and the solvers built on them at 1e-8.
DEFAULT_CONFIG = NewtonConfig()
RADICAL_CONFIG = NewtonConfig(threshold_r=1e-8)


@dataclass(frozen=True)
class NewtonOutcome:
    """Where a Newton run stopped; ``reason`` names why it failed, if it did."""

    value: complex
    iterations: int
    reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.reason is None


class NoConvergenceError(ArithmeticError):
    """Raised when a solver needed a radical that failed to converge."""

    def __init__(self, outcome: NewtonOutcome, what: str = "newton iteration"):
        super().__init__(f"no convergence: {what} stopped ({outcome.reason})")
        self.outcome = outcome


def residual_tolerance(d: int, magnitude: float, threshold_r: float) -> float:
    """Residual bound |x**d - S| for a converged root, relative to |S|.

    A root off by a relative delta leaves a residual of about d * |S| * delta,
    so the bound d * |S| * threshold_r**d accepts delta up to threshold_r**d
    at every scale.  It is floored at 64 * d * eps, the double-precision noise
    of evaluating x**d - S itself, without which tight thresholds or large
    degrees could never be declared converged.
    """
    return magnitude * (d * max(threshold_r ** d, 64.0 * d * _EPS))


def newton_root(
    d: int,
    radicand: complex,
    seed: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> NewtonOutcome:
    """Iterate x <- x - (x**d - S)/(d x**(d-1)) from ``seed``.

    Converged means the step shrank below threshold_r times the iterate's
    modulus while the residual dropped below ``residual_tolerance``: the
    value is a d-th root of S to a relative error of about max(threshold_r**d,
    64 * d * eps).  Both tests are relative, so scaling S by 2**(d*m) and the
    seed by 2**m scales every iterate by 2**m and stops at the same step,
    as long as every iterate stays under the absolute ``DIVERGENCE_BAILOUT``.
    An iterate beyond ``DIVERGENCE_BAILOUT``, or one whose (d-1)-th power
    overflows, has diverged; one whose (d-1)-th power is 0 (the iterate is
    0, or the power underflowed) has no finite step and stops at a critical
    point.  The iteration itself is branch free -- each update is noted as
    computation, not decision, all at once when the run stops, so the
    trace's count grows by exactly the returned ``iterations``.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    cfg = config or DEFAULT_CONFIG
    threshold_r, max_iters = cfg.threshold_r, cfg.max_iters
    x = complex(seed)
    if x == 0:
        raise ValueError("seed at the critical point 0 of the iteration map")
    S = complex(radicand)
    tol = residual_tolerance(d, abs(S), threshold_r)
    step = 0j  # the seed is judged by its residual alone
    for n in range(max_iters + 1):
        try:
            xp = x ** (d - 1)
        except OverflowError:  # |x|**(d-1) is beyond the double range
            out = NewtonOutcome(x, n, "divergence")
            break
        residual = xp * x - S
        if abs(step) < threshold_r * abs(x) and abs(residual) < tol:
            out = NewtonOutcome(x, n)
            break
        if n == max_iters or xp == 0:  # xp == 0: x is 0 or x**(d-1) underflowed
            out = NewtonOutcome(
                x, n, "max iterations" if n == max_iters and x != 0 else "critical point"
            )
            break
        x_new = x - residual / (d * xp)
        if abs(x_new) > DIVERGENCE_BAILOUT:
            out = NewtonOutcome(x_new, n + 1, "divergence")
            break
        step, x = x_new - x, x_new
    if trace is not None:
        trace.note_computation(out.iterations)  # one step per update taken
    return out


def sector_seed(d: int, k: int) -> complex:
    """Seed serving sector k: exp(2j*pi*k/d**2)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if not 0 <= k < d:
        raise ValueError("sector index out of range")
    if (d, k) == (2, 1):
        return 1j  # exact, for render(sector=1) at d = 2
    return cmath.exp(2j * math.pi * k / (d * d))


def sector_index(d: int, S: complex) -> int:
    """The sector k with arg(S) in [(2k - 1)*pi/d, (2k + 1)*pi/d), mod 2*pi.

    The phase in units of pi/d, where the sector edges are the odd integers,
    is a monotone function of arg(S), so one floor partitions the punctured
    plane: a ray within rounding of an edge lands in one of the two sectors
    it separates.  After the floor the arithmetic is exact.  At arg = +-pi
    the position is exactly +-d, so both signed zeros of a negative real S
    land in sector (d + 1) // 2.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    if S == 0:
        raise ValueError("zero has only the trivial root")
    position = math.floor(cmath.phase(S) / math.pi * d)
    return (position + 1) // 2 % d


def select_seed(
    d: int,
    S: complex,
    trace: BranchTrace | None = None,
) -> tuple[complex, int]:
    """The Newton seed for t**d = S and its half-plane h, for one decision.

    ``seed_sector_0`` records the quadratic's rule ``sector_index(2, S) == 0``
    (h = 0) at every degree.  Newton then runs on R = S, or on R = -S when
    h = 1, from |R|**(1/d) * (1 + (R/|R| - 1)/d): continuous in R, it leads
    to R's principal root, and has that root's modulus at every scale.
    """
    half = sector_index(2, S)
    record_decision(trace, "seed_sector_0", half == 0)
    R = -S if half else S
    modulus = abs(R)
    return modulus ** (1 / d) * (1 + (R / modulus - 1) / d), half


@lru_cache(maxsize=16)
def _half_turn(d: int) -> complex:
    """exp(1j*pi/d), which turns a d-th root of -S into one of S."""
    # exactly 1j at d = 2: a rounded exp(1j*pi/2) has a real part of 6e-17
    return 1j if d == 2 else cmath.exp(1j * math.pi / d)


def scaled_root(
    d: int,
    S: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> complex:
    """One d-th root of S for one decision, continuous in S off one ray.

    On the left half-plane the root is exp(1j*pi/d) times the principal root
    of -S, so it turns by exp(2j*pi/d) only across the negative imaginary
    axis, between -i and the third quadrant.

    A radicand of exactly 0 (of either sign) has the root 0, returned without
    a Newton step.  It still records the half-plane test that a nonzero
    radicand on the positive real axis would, so the decision count of a
    path does not depend on this degeneracy.

    S is divided by the exact power 2**(d*m), where m is e/d rounded to the
    nearest integer and e is the binary exponent of S's larger part.  The
    reduced exponent lies in [-d/2, d/2), so the reduced root has a modulus
    within a factor of about sqrt(2) of 1, and it scales back by 2**m, also
    exactly.  Scaling by a positive real leaves arg S, and with it the
    half-plane decision, untouched.  The seed carries the root's modulus, so
    Newton needs a few steps at any degree and scale, and the caller's
    max_iters applies as given; the root has the relative accuracy
    ``newton_root`` states.

    A radicand that is not finite (say an overflowed discriminant) raises
    ArithmeticError before any decision or step is spent on it.  Every
    finite S is answered through d = 2026; above, a reduced S near either end
    of the double range can overflow it, or Newton's step, and raises
    ArithmeticError (NoConvergenceError for the step) naming t**d = S.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    S = complex(S)
    if S == 0:
        record_decision(trace, "seed_sector_0", True)
        return 0j
    if not cmath.isfinite(S):
        raise ArithmeticError(f"t**{d} = {S!r}: the radicand is not finite")
    e = math.frexp(max(abs(S.real), abs(S.imag)))[1]
    m = (2 * e + d) // (2 * d)  # e/d rounded to the nearest integer, halves up
    try:
        scaled = ldexp_complex(S, -d * m)
        seed, half = select_seed(d, scaled, trace)
    except OverflowError:  # the reduced S, or its modulus, beyond the largest double
        raise ArithmeticError(f"t**{d} = {S!r}: S leaves the double range") from None
    out = newton_root(d, -scaled if half else scaled, seed, config or RADICAL_CONFIG, trace)
    if not out.converged:
        raise NoConvergenceError(out, f"t**{d} = {S!r}")
    root = out.value * _half_turn(d) if half else out.value
    return root * math.ldexp(1.0, m)


@lru_cache(maxsize=16)
def _unit_roots(d: int) -> tuple[complex, ...]:
    """exp(2j*pi*j/d) for j = 1, ..., d - 1."""
    return tuple(cmath.exp(2j * math.pi * j / d) for j in range(1, d))


def solve_pure_power(
    d: int,
    S: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> tuple[complex, ...]:
    """All d roots of t**d - S using 2 recorded branches, or 1 when S = 0.

    One branch tests S = 0 (all roots collapse to 0); otherwise the
    half-plane test picks the seed, a single Newton run finds one root, and
    the rest are its exact rotations: that root times the unit roots
    exp(2j*pi*j/d), j = 1..d-1, which are built once per degree (a bounded
    number of degrees kept) and shared.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    S = complex(S)
    if record_decision(trace, "radicand_zero", S == 0):
        return (0j,) * d
    principal = scaled_root(d, S, config, trace)
    return (principal, *(principal * w for w in _unit_roots(d)))
