"""Tests for the seeded Newton kernel and the sector machinery."""

from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybranch import (
    BranchTrace,
    NewtonConfig,
    NoConvergenceError,
    escape_times,
    newton_root,
    sector_seed,
    select_seed,
    solve_pure_power,
)
from polybranch import newton
from polybranch.newton import (
    DIVERGENCE_BAILOUT,
    RADICAL_CONFIG,
    NewtonOutcome,
    residual_tolerance,
    scaled_root,
    sector_index,
)
from polybranch.tracing import record_decision

TIGHT = NewtonConfig(threshold_r=1e-8)


def random_complex(rng: random.Random, bound: float = 10.0) -> complex:
    while True:
        z = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        if abs(z) <= bound:
            return z


def annulus_point(rng: random.Random, lo: float, hi: float) -> complex:
    radius = math.sqrt(rng.uniform(lo * lo, hi * hi))
    angle = rng.uniform(-math.pi, math.pi)
    return cmath.rect(radius, angle)


# ---------------------------------------------------------------- newton_root

def test_square_root_of_four_from_seed_one() -> None:
    out = newton_root(2, 4, 1)
    assert out.converged
    assert out.reason is None
    assert abs(out.value - 2) < 0.1
    # the classic orbit 1 -> 2.5 -> 2.05 -> ... approaches from above
    tight = newton_root(2, 4, 1, TIGHT)
    assert abs(tight.value - 2) < 1e-6


def test_exact_root_seed_converges_immediately() -> None:
    out = newton_root(2, -1, 1j)
    assert out.converged
    assert out.value == 1j
    assert out.iterations == 0


def test_cube_root_of_eight_matches_scalar_recurrence() -> None:
    out = newton_root(3, 8, 1, TIGHT)
    assert out.converged
    assert abs(out.value - 2) < 1e-6
    # replay the plain recurrence and compare the landing value bit-for-bit
    x = 1 + 0j
    for _ in range(out.iterations):
        x = x - (x ** 3 - 8) / (3 * x ** 2)
    assert x == out.value


def test_underflowed_power_is_a_critical_point_not_a_division_by_zero() -> None:
    # x**(d-1) underflows to 0 at a nonzero seed: no finite step exists
    for d, S, seed in ((64, 1, 1e-6), (3, 1, 1e-200)):
        trace = BranchTrace()
        out = newton_root(d, S, seed, trace=trace)
        assert out == NewtonOutcome(complex(seed), 0, "critical point")
        assert trace.computation_count == 0
    # the same after one step: from 1 + 1e-8 with S = -63 the iterate lands
    # near 6.3e-7, whose 63rd power underflows; at the step cap it stays a cap
    trace = BranchTrace()
    out = newton_root(64, -63, 1 + 1e-8, trace=trace)
    assert (out.iterations, out.reason, trace.computation_count) == (1, "critical point", 1)
    assert 0 < abs(out.value) < 1e-6
    capped = newton_root(64, -63, 1 + 1e-8, NewtonConfig(max_iters=1))
    assert capped == NewtonOutcome(out.value, 1, "max iterations")


def test_scaling_by_a_power_of_two_scales_every_iterate() -> None:
    # Exact powers of two commute with the update, and both stopping tests
    # are relative, so inside the bailout the run stops at the same step: the
    # range reduction in scaled_root cannot change how accurate a root comes out.
    micro = NewtonConfig(threshold_r=1e-6)
    rng = random.Random(71)
    for _ in range(200):
        d = rng.choice((2, 3, 5, 16))
        S = cmath.rect(rng.uniform(0.25, 4.0), rng.uniform(-math.pi / 2, math.pi / 2))
        base = newton_root(d, S, 1 + 0j, micro)
        for m in (-40, -1, 1, 20):
            scaled = newton_root(d, S * 2.0 ** (d * m), 2.0 ** m, micro)
            assert scaled.iterations == base.iterations, (d, S, m)
            assert scaled.value == base.value * 2.0 ** m, (d, S, m)


def test_critical_point_is_reported_not_raised() -> None:
    # from seed 1 with S = -1 the first step lands exactly on 0
    out = newton_root(2, -1, 1)
    assert not out.converged
    assert out.reason == "critical point"
    assert out.value == 0
    assert out.iterations == 1


def test_divergence_bailout() -> None:
    out = newton_root(2, 100, 1e-7)  # first step jumps to about 5e8
    assert not out.converged
    assert out.reason == "divergence"
    assert abs(out.value) > DIVERGENCE_BAILOUT
    assert out.iterations == 1


def test_overflowing_power_is_divergence() -> None:
    # x**63 leaves the double range at the seed 1e5, and after the first
    # step from 1 with S = 1e7 (to about 1.6e5, inside the bailout)
    for S, seed, steps in ((1, 1e5, 0), (1e7, 1, 1)):
        out = newton_root(64, S, seed)
        assert out.reason == "divergence"
        assert out.iterations == steps
        # the vectorized kernel leaves the same cell unconverged
        assert not escape_times(64, [S], seed)[1][0]


def test_max_iterations_cap() -> None:
    cfg = NewtonConfig(threshold_r=1e-12, max_iters=1)
    out = newton_root(2, 9, 1, cfg)
    assert not out.converged
    assert out.reason == "max iterations"
    assert out.iterations == 1


def test_kernel_argument_validation() -> None:
    with pytest.raises(ValueError):
        newton_root(1, 4, 1)
    with pytest.raises(ValueError):
        newton_root(2, 4, 0)
    with pytest.raises(ValueError):
        NewtonConfig(threshold_r=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iters=0)


def test_iterations_are_computations_not_decisions() -> None:
    trace = BranchTrace()
    out = newton_root(2, 9, 1, trace=trace)
    assert out.converged
    assert trace.branch_count == 0
    assert trace.computation_count == out.iterations


def test_converged_residual_bound_over_random_inputs() -> None:
    rng = random.Random(101)
    for _ in range(500):
        d = rng.randint(2, 8)
        S = random_complex(rng)
        if S == 0:
            continue
        seed, half = select_seed(d, S)
        R = -S if half else S
        out = newton_root(d, R, seed, TIGHT)
        if out.converged:
            tol = residual_tolerance(d, abs(R), TIGHT.threshold_r)
            assert abs(out.value ** d - R) < 10 * tol


def test_residual_tolerance_scales_with_inputs() -> None:
    eps = 2.0 ** -52
    assert residual_tolerance(2, 1.0, 0.1) == 2 * max(0.1 ** 2, 128 * eps)
    assert residual_tolerance(2, 50.0, 0.1) == 100 * max(0.1 ** 2, 128 * eps)
    # tight thresholds bottom out at the evaluation noise floor instead of 0
    assert residual_tolerance(4, 1.0, 1e-12) == 4 * 256 * eps


# ------------------------------------------------------------------- sectors

def test_seed_table_matches_the_roots_of_unity_schedule() -> None:
    assert sector_seed(2, 0) == 1 + 0j
    assert sector_seed(2, 1) == 1j  # exactly
    for d in range(2, 17):
        for k in range(d):
            expected = cmath.exp(2j * math.pi * k / (d * d))
            assert abs(sector_seed(d, k) - expected) < 1e-15
    with pytest.raises(ValueError):
        sector_seed(2, 2)
    with pytest.raises(ValueError):
        sector_seed(2, -1)
    with pytest.raises(ValueError):
        sector_seed(1, 0)


def test_select_seed_known_sides() -> None:
    # The seed is |R|**(1/d) * (1 + (R/|R| - 1)/d) for R = S on the right
    # half, -S on the left.
    assert select_seed(2, 1) == (1 + 0j, 0)
    assert sector_index(2, 1) == 0
    assert select_seed(2, -4) == (2 + 0j, 1)  # R = 4
    assert sector_index(2, -4) == 1
    S = 5 * cmath.exp(2j * math.pi / 3)
    assert sector_index(3, S) == 1
    seed, half = select_seed(3, S)
    assert half == 1  # arg S = 2*pi/3 is on the left half
    want = 5 ** (1 / 3) * (1 + (cmath.exp(-1j * math.pi / 3) - 1) / 3)
    assert abs(seed - want) < 1e-15
    # the root's modulus at every scale, exactly for powers of 2
    assert select_seed(4, 2.0 ** -400) == (2.0 ** -100, 0)
    assert select_seed(2, -(2.0 ** 500)) == (2.0 ** 250, 1)
    # the edges: +i is on the left half, -i on the right
    assert select_seed(5, 1j)[1] == 1
    assert select_seed(5, -1j)[1] == 0
    with pytest.raises(ValueError):
        select_seed(2, 0)


def test_sectors_partition_the_punctured_plane() -> None:
    rng = random.Random(55)
    for _ in range(400):
        d = rng.randint(2, 7)
        S = random_complex(rng)
        if S == 0:
            continue
        sector = sector_index(d, S)
        assert sector in range(d)
    # Rays on the boundary arg S = (2j + 1)*pi/d between sectors j and j + 1,
    # as exactly as a double can place them: each lands in one of the two.
    for d in range(2, 65):
        for j in range(d):
            for radius in (1.0, 3.5e-7, 2.25e9):
                S = cmath.rect(radius, (2 * j + 1) * math.pi / d)
                sector = sector_index(d, S)
                assert sector in range(d), (d, j, radius)
                assert sector in (j, (j + 1) % d), (d, j, radius, sector)
        # arg S = +-pi, both signed zeros: one sector, the one opening at -pi
        # for odd d and centred there for even d
        for S in (complex(-2.0, 0.0), complex(-2.0, -0.0)):
            assert sector_index(d, S) == (d + 1) // 2, (d, S)


def test_sector_boundaries_are_half_open() -> None:
    for d in (2, 3, 5):
        upper_edge = cmath.exp(1j * math.pi / d)  # arg = +pi/d
        assert sector_index(d, upper_edge) == 1
        lower_edge = cmath.exp(-1j * math.pi / d)  # arg = -pi/d
        assert sector_index(d, lower_edge) == 0
    # the fold at arg = pi: a negative real input for even and odd degree
    assert sector_index(2, -4) == 1
    assert sector_index(3, -1) in (1, 2)
    with pytest.raises(ValueError):
        sector_index(2, 0)


def test_seed_selection_records_one_half_plane_test() -> None:
    rng = random.Random(56)
    inputs = []
    for _ in range(300):
        inputs.append((rng.randint(2, 9), random_complex(rng)))
    for d in (16, 64):
        inputs += [(d, random_complex(rng)) for _ in range(100)]
        inputs += [(d, cmath.rect(2.0, 2 * math.pi * k / d)) for k in range(d)]  # centres
        # exact boundary rays between every pair of neighbouring sectors
        inputs += [(d, cmath.rect(1.5, (2 * j + 1) * math.pi / d)) for j in range(d)]
        inputs += [(d, cmath.rect(0.5, -math.pi / d)), (d, complex(-2.0, -0.0))]
    sectors = set()
    for d, S in inputs:
        if S == 0:
            continue
        trace = BranchTrace()
        _, half = select_seed(d, S, trace)
        sectors.add((d, sector_index(d, S)))
        # one half-plane test at every degree: the quadratic's sector rule
        assert trace.decisions == [("seed_sector_0", sector_index(2, S) == 0)]
        assert half == sector_index(2, S)
    # every sector of the large degrees, the last one included, was tried
    assert {(d, k) for d in (16, 64) for k in range(d)} <= sectors


def test_select_seed_shares_no_mutable_state_between_traces() -> None:
    for d, S in ((2, 1 + 0j), (16, complex(-1, 0.1)), (64, cmath.rect(1, -0.05))):
        first = BranchTrace()
        select_seed(d, S, first)
        expected = list(first.decisions)
        first.decisions.append(first.decisions[-1])
        first.decisions[0] = first.decisions[-1]
        first.record("radicand_zero", True)
        second = BranchTrace()
        select_seed(d, S, second)
        assert second.decisions == expected
        assert second.decisions is not first.decisions


def test_sector_coverage_at_default_threshold() -> None:
    rng = random.Random(77)
    for d in (2, 3, 4, 5):
        for k in range(d):
            hits = 0
            total = 0
            seed = sector_seed(d, k)
            while total < 500:
                S = annulus_point(rng, 0.5, 2.0)
                if sector_index(d, S) != k:
                    continue
                total += 1
                if newton_root(d, S, seed).converged:
                    hits += 1
            assert hits >= 0.99 * total, (d, k, hits, total)


def test_rotation_equivariance_on_a_grid() -> None:
    # analytic frame rotation gives the identical computation, so iteration
    # counts agree exactly; the floating seed stays within one step of it
    for d, k in ((3, 1), (3, 2), (5, 2)):
        seed = cmath.exp(2j * math.pi * k / (d * d))
        rot = cmath.exp(-2j * math.pi * k / d)
        for row in range(64):
            for col in range(64):
                S = complex(-2 + (col + 0.5) / 16, 2 - (row + 0.5) / 16)
                if S == 0:
                    continue
                base = newton_root(d, S * rot, 1 + 0j)
                floating = newton_root(d, S, seed)
                assert floating.converged == base.converged
                if base.converged:
                    assert abs(floating.iterations - base.iterations) <= 1


# --------------------------------------------------------------- scaled_root

def test_scaled_root_extreme_magnitudes() -> None:
    for d, S in (
        (2, 1e300 + 0j),
        (2, 1e-300 + 0j),
        (3, complex(-4e200, 3e200)),
        (7, complex(2e-120, -5e-121)),
        (16, 1e200 + 1e199j),
        (5, complex(-3e-40, 1e-40)),
    ):
        value = scaled_root(d, S, TIGHT)
        assert abs(value ** d - S) <= 1e-10 * abs(S)


def test_scaled_root_large_degree_steps() -> None:
    trace = BranchTrace()
    value = scaled_root(256, 2 + 1j, TIGHT, trace)
    assert abs(value ** 256 - (2 + 1j)) <= 1e-10 * abs(2 + 1j)
    assert trace.computation_count == 4


# the half-plane edges +-i, -1 with both signed zeros, and every quadrant
STEP_PHASES = (1, 1j, -1j, complex(-1, 0.0), complex(-1, -0.0), *(
    cmath.exp(1j * theta) for theta in (0.3, 1.2, 2.0, 2.9, -0.7, -1.9, -2.6)
))


@pytest.mark.parametrize("d", [2, 3, 4, 16, 64, 256, 1023, 2000])
def test_scaled_root_steps_do_not_grow_with_degree_or_scale(d) -> None:
    # The seed carries the root's modulus, so Newton starts next to the root
    # at every degree and every scale of the double range.
    for k in range(-1000, 1001, 40):
        for phase in STEP_PHASES:
            S = complex(math.ldexp(phase.real, k), math.ldexp(phase.imag, k))
            trace = BranchTrace()
            scaled_root(d, S, RADICAL_CONFIG, trace)
            assert trace.computation_count <= 8, (d, k, phase)


def branch_root(d: int, S: complex) -> mpmath.mpc:
    """The root ``scaled_root`` answers with, at 50 digits."""
    R = mpmath.mpc(S.real, S.imag)
    if sector_index(2, S) == 0:
        return mpmath.root(R, d)
    return mpmath.exp(1j * mpmath.pi / d) * mpmath.root(-R, d)


@pytest.mark.parametrize("d", [1023, 1024, 1025, 1074, 1075, 2000, 2026])
def test_large_degrees_answer_accurately(d) -> None:
    # complex(1e-300, 2e-300): a residual bound not relative to |S| would
    # accept the seed at |S| << 1 off the positive real axis.  1e307j and
    # -3e306 + 1e306j: left unreduced, d * |S| exceeds the largest double.
    # The subnormal radicands and those with |S| beyond the largest double
    # reach the normal range only by rounding e/d to the nearest integer.
    for S in (
        1.5, 2 + 0.001j, 3 + 4j, 1e-300, complex(1e-300, 2e-300),
        complex(-3e300, 1e300), 1e307j, complex(-3e306, 1e306),
        5e-324, 2e-320j, complex(-2.2e-308, 1e-309),
        complex(1.5e308, 1.5e308), complex(-1.7e308, 1.7e308), -sys.float_info.max,
    ):
        with mpmath.workdps(50):
            want = complex(branch_root(d, complex(S)))
        value = scaled_root(d, S, RADICAL_CONFIG)
        assert abs(value - want) <= 1e-10 * abs(want), (d, S)


@pytest.mark.parametrize(
    "d, S, error, message",
    [
        (2100, 5e-324, ArithmeticError, "leaves the double range"),
        (2055, complex(1.5e308, 1.5e308), ArithmeticError, "leaves the double range"),
        (2040, complex(-3e306, 1e306), NoConvergenceError, "max iterations"),
        (4000, 5e-324, NoConvergenceError, "max iterations"),
    ],
)
def test_radicands_out_of_reach_raise_naming_the_equation(d, S, error, message) -> None:
    # Above d = 2026 the reduced exponent, in [-d/2, d/2), can put a radicand
    # near either end of the double range outside it, or overflow Newton's
    # step there; these fail instead of answering a wrong root.
    with pytest.raises(error, match=rf"t\*\*{d} = .*{message}"):
        scaled_root(d, S, RADICAL_CONFIG)


def test_scaling_by_powers_of_two_preserves_decisions() -> None:
    rng = random.Random(58)
    for _ in range(100):
        d = rng.randint(2, 6)
        S = random_complex(rng)
        if S == 0:
            continue
        a, b = BranchTrace(), BranchTrace()
        scaled_root(d, S, TIGHT, a)
        scaled_root(d, S * 2.0 ** (2 * d), TIGHT, b)
        assert a.decisions == b.decisions


def test_scaled_root_of_zero_records_sector_0() -> None:
    # 0 lies in the closure of sector 0: its one test is recorded, no step taken.
    for d in (2, 3):
        for S in (0j, -0j):
            trace = BranchTrace()
            value = scaled_root(d, S, TIGHT, trace)
            assert value == 0j
            assert trace.decisions == [("seed_sector_0", True)]
            assert trace.computation_count == 0


@pytest.mark.parametrize(
    "S",
    [
        complex(math.nan, 0),
        complex(math.inf, 0),
        complex(1, -math.inf),
        complex(math.inf, math.nan),
    ],
)
def test_scaled_root_rejects_a_non_finite_radicand(S) -> None:
    # An overflowed discriminant fails at once, before any decision or step.
    trace = BranchTrace()
    with pytest.raises(ArithmeticError, match=r"t\*\*3 = .*not finite"):
        scaled_root(3, S, TIGHT, trace)
    assert trace.branch_count == 0
    assert trace.computation_count == 0


@pytest.mark.parametrize("solver", [sector_index, scaled_root, solve_pure_power])
def test_degree_below_two_is_rejected(solver) -> None:
    with pytest.raises(ValueError, match="degree must be at least 2"):
        solver(1, 2 + 0j)


# ----------------------------------------------------------- solve_pure_power

def test_pure_power_known_root_sets() -> None:
    roots = solve_pure_power(2, 4, TIGHT)
    assert sorted(round(r.real, 6) for r in roots) == [-2.0, 2.0]
    assert max(abs(r.imag) for r in roots) < 1e-9

    roots = solve_pure_power(4, 1, TIGHT)
    expected = (1, 1j, -1, -1j)
    assert all(
        min(abs(r - e) for e in expected) < 1e-9 for r in roots
    )

    roots = solve_pure_power(5, 32, TIGHT)
    for j, r in enumerate(roots):
        assert abs(r - 2 * cmath.exp(2j * math.pi * j / 5)) < 1e-6


def test_pure_power_zero_radicand_short_circuits() -> None:
    trace = BranchTrace()
    roots = solve_pure_power(3, 0, trace=trace)
    assert roots == (0j, 0j, 0j)
    assert trace.branch_count == 1
    assert trace.labels() == ["radicand_zero"]


def test_pure_power_branch_ceiling_and_residuals() -> None:
    rng = random.Random(59)
    for _ in range(300):
        d = rng.randint(2, 16)
        S = random_complex(rng)
        trace = BranchTrace()
        roots = solve_pure_power(d, S, TIGHT, trace)
        assert trace.branch_count == (1 if S == 0 else 2)
        assert len(roots) == d
        tol = residual_tolerance(d, abs(S), TIGHT.threshold_r)
        for r in roots:
            assert abs(r ** d - S) < 100 * tol
        # the non-principal roots are unit rotations of the principal one
        moduli = [abs(r) for r in roots]
        assert max(moduli) - min(moduli) <= 1e-12 * max(1.0, max(moduli))


def probe_rays(d: int) -> list[Fraction]:
    """The rays to probe, as arg / pi: every sector edge, then +-i and -1."""
    return [Fraction(2 * k + 1, d) for k in range(d)] + [
        Fraction(1, 2), Fraction(-1, 2), Fraction(1)
    ]


@pytest.mark.parametrize("d", [2, 3, 5, 16, 64])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(modulus=st.floats(min_value=1e-30, max_value=1e30))
def test_scaled_root_is_continuous_off_one_cut(d, modulus) -> None:
    # One half-plane test picks the root: it is continuous across every
    # sector edge and across +i and -1, and turns by exactly one d-th root
    # of unity across the cut just clockwise of -i.
    delta = 1e-9
    turn = cmath.exp(2j * math.pi / d)
    for ray in probe_rays(d):
        theta = float(ray) * math.pi
        after = scaled_root(d, cmath.rect(modulus, theta + delta), TIGHT)
        before = scaled_root(d, cmath.rect(modulus, theta - delta), TIGHT)
        if (ray + Fraction(1, 2)) % 2 == 0:  # the cut, arg = -pi/2
            before /= turn
        assert abs(before - after) <= 1e-6 * abs(after), (d, ray, modulus)


def test_pure_power_failure_carries_the_outcome() -> None:
    # A convergence radius below the spacing of doubles near sqrt(2)/2 can
    # never be met: the iterate for sqrt(-i) ends up alternating between
    # neighbours.
    with pytest.raises(NoConvergenceError) as info:
        solve_pure_power(2, 1j, NewtonConfig(threshold_r=5e-324))
    assert isinstance(info.value, ArithmeticError)  # as scaled_root's range errors
    assert info.value.outcome.converged is False
    assert info.value.outcome.reason == "max iterations"


# ------------------------------------------------- bits of the reference path

def reference_newton_root(d, radicand, seed, config=None, trace=None):
    """The per-step loop: a computation noted per update, the residual twice."""
    cfg = config or newton.DEFAULT_CONFIG
    x = complex(seed)
    S = complex(radicand)
    tol = residual_tolerance(d, abs(S), cfg.threshold_r)
    step = 0j
    for n in range(cfg.max_iters + 1):
        try:
            xp = x ** (d - 1)
        except OverflowError:
            return NewtonOutcome(x, n, "divergence")
        if abs(step) < cfg.threshold_r * abs(x) and abs(xp * x - S) < tol:
            return NewtonOutcome(x, n)
        if x == 0 or n == cfg.max_iters:
            break
        x_new = x - (xp * x - S) / (d * xp)  # ZeroDivisionError when xp underflows
        if trace is not None:
            trace.note_computation()
        if abs(x_new) > DIVERGENCE_BAILOUT:
            return NewtonOutcome(x_new, n + 1, "divergence")
        step, x = x_new - x, x_new
    return NewtonOutcome(x, n, "critical point" if x == 0 else "max iterations")


def reference_solve_pure_power(d, S, config=None, trace=None):
    """The zero test, ``scaled_root`` and a rotation that calls exp per root.

    Run it with ``newton.newton_root`` patched to the reference above, which
    ``scaled_root`` then calls.
    """
    S = complex(S)
    if record_decision(trace, "radicand_zero", S == 0):
        return (0j,) * d
    principal = scaled_root(d, S, config, trace)
    return tuple(
        principal if j == 0 else principal * cmath.exp(2j * math.pi * j / d)
        for j in range(d)
    )


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_sector_zero_seed_is_exactly_one() -> None:
    # The general formula, with no case of its own: exp(0j) is 1 + 0j to the bit.
    for d in range(2, 1025):
        assert bits(sector_seed(d, 0)) == bits(1 + 0j), d


def traced(fn, *args):
    """Run ``fn(*args, trace)`` and return its result with the trace's record."""
    trace = BranchTrace()
    result = fn(*args, trace)
    return result, trace.decisions, trace.computation_count


def pure_power_inputs(d: int, rng: random.Random) -> list[complex]:
    count = 4 if d == 1023 else 40
    values = [annulus_point(rng, 0.05, 20.0) for _ in range(count)]
    values += [cmath.rect(1.5, (2 * j + 1) * math.pi / d) for j in (0, d // 2, d - 1)]
    values += [cmath.rect(0.9, -2 * math.pi / d), complex(-3.0, -0.0), 0j]  # last sector, pi, 0
    return values


@pytest.mark.parametrize("d", [2, 3, 5, 16, 64, 1023])
def test_pure_power_keeps_the_bits_of_the_reference_path(d, monkeypatch) -> None:
    rng = random.Random(1300 + d)
    inputs = pure_power_inputs(d, rng)
    change = [traced(solve_pure_power, d, S, TIGHT) for S in inputs]
    with monkeypatch.context() as patch:
        patch.setattr(newton, "newton_root", reference_newton_root)
        parent = [traced(reference_solve_pure_power, d, S, TIGHT) for S in inputs]
    for S, (roots, decisions, steps), (ref_roots, ref_decisions, ref_steps) in zip(
        inputs, change, parent
    ):
        assert [bits(r) for r in roots] == [bits(r) for r in ref_roots], S
        want = [("radicand_zero", S == 0)]
        if S != 0:
            want.append(("seed_sector_0", sector_index(2, S) == 0))
        assert decisions == ref_decisions == want, S
        assert steps == ref_steps, S
    # The kernel alone, from each input's own seed, on the radical default.
    for S in inputs:
        if S == 0:
            continue
        seed, half = select_seed(d, S)
        R = -S if half else S
        out, _, steps = traced(newton_root, d, R, seed, RADICAL_CONFIG)
        ref, _, ref_steps = traced(reference_newton_root, d, R, seed, RADICAL_CONFIG)
        assert (bits(out.value), out.iterations, out.reason, steps) == (
            bits(ref.value), ref.iterations, ref.reason, ref_steps
        ), S


@pytest.mark.parametrize(
    "d, S, seed, config",
    [
        (2, 9, 1, NewtonConfig(threshold_r=1e-12, max_iters=1)),  # step cap
        (5, 3 + 4j, 1, NewtonConfig(threshold_r=1e-12, max_iters=1)),
        (2, 100, 1e-7, None),  # first step beyond the bailout
        (64, 1, 1e5, None),  # the power overflows at the seed
        (64, 1e7, 1, None),  # ... and after one step
        (2, -1, 1, None),  # the first step lands on 0
        (64, -63, 1 + 1e-8, NewtonConfig(max_iters=1)),  # underflow at the cap
    ],
)
def test_newton_root_failure_exits_keep_the_bits_of_the_reference_loop(
    d, S, seed, config
) -> None:
    out, _, steps = traced(newton_root, d, S, seed, config)
    ref, _, ref_steps = traced(reference_newton_root, d, S, seed, config)
    assert not out.converged
    assert (bits(out.value), out.iterations, out.reason, steps) == (
        bits(ref.value), ref.iterations, ref.reason, ref_steps
    )
