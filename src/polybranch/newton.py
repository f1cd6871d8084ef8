"""Seeded Newton iteration for t**d = S, with branch-counted seed selection.

The plane of right-hand sides S splits into d angular sectors of width
2*pi/d; sector k (centered at angle 2*pi*k/d) is served by the seed
exp(2j*pi*k/d**2).  Rotating S by exp(-2j*pi*k/d) conjugates the Newton map
exactly onto the seed-1 iteration, which is why one calibrated sector -- the
one around the positive real axis, forced by conjugation symmetry and by
monotone convergence on that axis -- determines all the others.

Choosing the sector is the only data-dependent branching in the solver.
``sector_index`` computes it once from the phase of S, so every nonzero S
lands in exactly one sector; the trace then records the decisions of the
chain of at most d - 1 membership tests that reaches that sector.  Iteration
counts and convergence checks are not decisions.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

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


class NoConvergenceError(RuntimeError):
    """Raised when a solver needed a radical that failed to converge."""

    def __init__(self, outcome: NewtonOutcome, what: str = "newton iteration"):
        super().__init__(f"no convergence: {what} stopped ({outcome.reason})")
        self.outcome = outcome


def residual_tolerance(d: int, magnitude: float, threshold_r: float) -> float:
    """Residual bound |x**d - S| equivalent to landing within threshold_r.

    The nominal scale threshold_r**d * d * max(1, |S|) is floored at the
    double-precision noise of evaluating x**d - S itself, without which tight
    thresholds or large degrees could never be declared converged.
    """
    return d * max(1.0, magnitude) * max(threshold_r ** d, 64.0 * d * _EPS)


def newton_root(
    d: int,
    radicand: complex,
    seed: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> NewtonOutcome:
    """Iterate x <- x - (x**d - S)/(d x**(d-1)) from ``seed``.

    Converged means the step shrank below threshold_r while the residual
    dropped below ``residual_tolerance``; the value is then within about
    threshold_r of a true d-th root of S.  An iterate beyond
    ``DIVERGENCE_BAILOUT``, or one whose (d-1)-th power overflows, has
    diverged.  The iteration itself is branch free -- each pass through the
    loop is noted as computation, not decision.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    cfg = config or DEFAULT_CONFIG
    x = complex(seed)
    if x == 0:
        raise ValueError("seed at the critical point 0 of the iteration map")
    S = complex(radicand)
    tol = residual_tolerance(d, abs(S), cfg.threshold_r)
    step = 0j  # the seed is judged by its residual alone
    for n in range(cfg.max_iters + 1):
        try:
            xp = x ** (d - 1)
        except OverflowError:  # |x|**(d-1) is beyond the double range
            return NewtonOutcome(x, n, "divergence")
        if abs(step) < cfg.threshold_r and abs(xp * x - S) < tol:
            return NewtonOutcome(x, n)
        if x == 0 or n == cfg.max_iters:
            break
        x_new = x - (xp * x - S) / (d * xp)
        if trace is not None:
            trace.note_computation()
        if abs(x_new) > DIVERGENCE_BAILOUT:
            return NewtonOutcome(x_new, n + 1, "divergence")
        step, x = x_new - x, x_new
    return NewtonOutcome(x, n, "critical point" if x == 0 else "max iterations")


def sector_seed(d: int, k: int) -> complex:
    """Seed serving sector k: exp(2j*pi*k/d**2)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if not 0 <= k < d:
        raise ValueError("sector index out of range")
    if k == 0:
        return 1 + 0j
    if (d, k) == (2, 1):
        return 1j  # exact: the quadratic's second seed is the literal i
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


def in_sector(d: int, S: complex, k: int) -> bool:
    """Membership test: arg(S) in [(2k - 1)*pi/d, (2k + 1)*pi/d), mod 2*pi."""
    return sector_index(d, S) == k


def select_seed(
    d: int,
    S: complex,
    trace: BranchTrace | None = None,
) -> tuple[complex, int]:
    """Pick the Newton seed for t**d = S from its sector.

    The trace records the decisions of the membership chain over sectors
    0, 1, ...: between 1 and d - 1 (exactly 1 when d = 2), only the last
    True; the last sector is the chain's fall-through and costs no test.
    """
    k = sector_index(d, S)
    if trace is not None:
        for j in range(min(k, d - 2) + 1):
            trace.record(f"seed_sector_{j}", j == k)
    return sector_seed(d, k), k


def scaled_root(
    d: int,
    S: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> complex:
    """One d-th root of S != 0: sector-seeded Newton on a range-reduced input.

    S is divided by an exact power of 2**d chosen to put the magnitude in
    (2**-(d+1), 1]; the root scales back by the matching power of 2, also
    exactly.  Scaling by a positive real leaves arg S -- and with it every
    sector decision -- untouched.  The sub-unit window matters: a magnitude
    above 1 makes the first step overshoot to about |S|/d (losing the seed's
    angular alignment, and at extreme magnitudes tripping the divergence
    bailout), while below 1 the orbit stays inside the unit disk and walks
    down to the root, whose modulus then sits in (0.46, 1).

    When d > 1022 that window reaches below the smallest normal double and
    the reduced radicand would silently lose bits; such inputs raise
    ArithmeticError instead, as does a radicand that is not finite (say an
    overflowed discriminant), before any decision or step is spent on it.

    That walk takes O(d) steps, so the iteration budget given to the kernel
    is raised to at least ~4d; the caller's max_iters still applies whenever
    it is larger.  The power-of-two bookkeeping and the budget are plain
    computation, not recorded decisions.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    S = complex(S)
    if S == 0:
        raise ValueError("zero has only the trivial root")
    if not cmath.isfinite(S):
        raise ArithmeticError(f"t**{d} = {S!r}: the radicand is not finite")
    cfg = config or RADICAL_CONFIG
    floor_iters = 4 * d + 50
    if cfg.max_iters < floor_iters:
        cfg = replace(cfg, max_iters=floor_iters)
    try:
        exponent = math.frexp(abs(S))[1]  # |S| in [2**(e-1), 2**e)
    except OverflowError:  # |S| beyond the double maximum: measure S/2, exactly
        exponent = math.frexp(abs(complex(S.real / 2, S.imag / 2)))[1] + 1
    m = -((-exponent) // d)  # ceil(e / d)
    shift = -d * m
    if exponent + shift <= -1022:
        raise ArithmeticError(
            f"degree {d} too large for t**{d} = {S!r}: the range-reduced"
            " radicand falls below the smallest normal double"
        )
    # Component-wise, so no power of two outside the double range is formed.
    scaled = complex(math.ldexp(S.real, shift), math.ldexp(S.imag, shift))
    seed, _ = select_seed(d, scaled, trace)
    out = newton_root(d, scaled, seed, cfg, trace)
    if not out.converged:
        raise NoConvergenceError(out, f"t**{d} = {S!r}")
    return out.value * math.ldexp(1.0, m)


def solve_pure_power(
    d: int,
    S: complex,
    config: NewtonConfig | None = None,
    trace: BranchTrace | None = None,
) -> tuple[complex, ...]:
    """All d roots of t**d - S using at most d recorded branches.

    One branch tests S = 0 (all roots collapse to 0); otherwise the sector
    chain spends at most d - 1 more picking the seed, a single Newton run
    finds one root, and the rest are its exact rotations.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    S = complex(S)
    if record_decision(trace, "radicand_zero", S == 0):
        return (0j,) * d
    principal = scaled_root(d, S, config, trace)
    return tuple(
        principal if j == 0 else principal * cmath.exp(2j * math.pi * j / d)
        for j in range(d)
    )
