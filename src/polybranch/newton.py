"""Seeded Newton iteration for t**d = S, with branch-counted seed selection.

A radical needs no sector, only a half-plane: t -> t**d covers the punctured
plane, and a half-plane is simply connected, so each half-plane carries a
continuous d-th root (Schwarz genus 2 for every d; Smale, "On the topology
of algorithms I", 1987).  ``select_seed`` records that one test, and
``newton_root`` then takes a fixed number of updates with no stopping test,
so the radical is a continuous function of S on each half-plane and the
test is its only branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .poly import ldexp_complex
from .tracing import BranchTrace, record_decision

# An iterate beyond this modulus has diverged; the escape-time renderer stops it.
DIVERGENCE_BAILOUT = 1e8


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters of the escape-time renderer (``fractal``), and of
    power iteration in the ``solve`` command.

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


DEFAULT_CONFIG = NewtonConfig()

# Every radical takes this many Newton updates, whatever its data: the
# smallest count that answers the whole sweep in tests/test_newton.py (801
# phases of a unit radicand on [-pi/2, pi/2] at d = 2..64, 100, 128, 256, 512,
# 1000, 1023, 2000 and 2026), worst 2.2e-16 relative to mpmath.  Six updates
# fail the final check on 7,080 of those inputs.
NEWTON_STEPS = 7


def newton_root(
    d: int,
    radicand: complex,
    seed: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> complex:
    """The d-th root of S that ``NEWTON_STEPS`` updates from ``seed`` reach.

    Each update is x <- x - (x - S/x**(d-1))/d, and there is no stopping
    test: the number of updates never depends on the data, so the root is a
    continuous function of S and the seed, and each update is noted on the
    trace as computation, not decision.  Exact powers of two commute with
    the update, so scaling S by 2**(d*m) and the seed by 2**m scales the
    root by 2**m, wherever no quotient leaves the normal range.

    After the updates one check stands for the inputs out of reach: if the
    last update exceeds 1e-12 of the root's modulus, or the root is not
    finite, or some x**(d-1) overflowed or was 0, ArithmeticError is raised.
    It is a failure exit, not a stopping rule.  ``config`` is accepted and
    ignored: ``bench/`` replays recorded calls with it, and the benchmark
    change of ROADMAP.md (direction 5) deletes it.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    x, S = complex(seed), complex(radicand)
    try:
        for _ in range(NEWTON_STEPS):
            step = (x - S / x ** (d - 1)) / d
            x -= step
    except (OverflowError, ZeroDivisionError):  # x**(d-1) beyond the double range, or 0
        step = math.nan
    if trace is not None:
        trace.note_computation(NEWTON_STEPS)
    if not (cmath.isfinite(x) and abs(step) <= 1e-12 * abs(x)):
        raise ArithmeticError("Newton's updates do not settle in the double range")
    return x


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
    axis, between -i and the third quadrant.  The half-plane test is the
    radical's only branch: ``newton_root`` takes a fixed number of updates.

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
    ``NEWTON_STEPS`` updates reach the root at any degree and scale.
    ``config`` is accepted and ignored, as in ``newton_root``.

    A radicand that is not finite (say an overflowed discriminant) raises
    ArithmeticError before any decision or step is spent on it.  Every
    finite S is answered through d = 2026; above, a reduced S near either end
    of the double range can overflow it, or Newton's updates, and raises
    ArithmeticError naming t**d = S.
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
    try:
        root = newton_root(d, -scaled if half else scaled, seed, config, trace)
    except ArithmeticError as exc:
        raise ArithmeticError(f"t**{d} = {S!r}: {exc}") from None
    if half:
        root *= _half_turn(d)
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
    """All d roots of t**d - S for the one branch ``scaled_root`` records.

    That half-plane test, on which ``scaled_root`` also answers S = 0, is the
    least any algorithm for the family spends: its covering has Schwarz
    genus 2.  The other roots are exact rotations of the first by the unit
    roots exp(2j*pi*j/d), j = 1..d-1, built once per degree (a bounded number
    of degrees kept) and shared; at S = 0 some of their parts are -0.0.
    ``config`` is accepted and ignored, as in ``newton_root``.
    """
    principal = scaled_root(d, S, config, trace)
    return (principal, *(principal * w for w in _unit_roots(d)))
