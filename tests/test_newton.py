"""Tests for the seeded Newton kernel and the sector machinery."""

from __future__ import annotations

import cmath
import math
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybranch import (
    BranchTrace,
    NewtonConfig,
    escape_times,
    newton_root,
    sector_seed,
    select_seed,
    solve_pure_power,
)
from polybranch import newton
from polybranch.newton import DIVERGENCE_BAILOUT, NEWTON_STEPS, scaled_root, sector_index
from polybranch.tracing import record_decision

TIGHT = NewtonConfig(threshold_r=1e-8)
_EPS = sys.float_info.epsilon


def random_complex(rng: random.Random, bound: float = 10.0) -> complex:
    while True:
        z = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        if abs(z) <= bound:
            return z


def annulus_point(rng: random.Random, lo: float, hi: float) -> complex:
    radius = math.sqrt(rng.uniform(lo * lo, hi * hi))
    angle = rng.uniform(-math.pi, math.pi)
    return cmath.rect(radius, angle)


def root_tolerance(d: int, magnitude: float) -> float:
    """Residual bound |x**d - S| of a root good to 64 * d * eps relative."""
    return magnitude * d * 64.0 * d * _EPS


# ---------------------------------------------------------------- newton_root

def test_square_root_of_four_from_seed_one() -> None:
    # the classic orbit 1 -> 2.5 -> 2.05 -> ... lands on 2 within the updates
    assert newton_root(2, 4, 1) == 2
    assert newton_root(2, 4, 1, TIGHT) == 2  # the config slot changes nothing


def test_exact_root_seed_converges_immediately() -> None:
    # every update from an exact root is exactly 0
    trace = BranchTrace()
    assert newton_root(2, -1, 1j, None, trace) == 1j
    assert trace.computation_count == NEWTON_STEPS


def test_cube_root_of_eight_matches_scalar_recurrence() -> None:
    # from 1.5 the orbit 2.185, 2.015, ... settles within the fixed updates
    out = newton_root(3, 8, 1.5, TIGHT)
    assert abs(out - 2) <= 2 * _EPS
    # replay the plain recurrence and compare the landing value bit-for-bit
    x = 1.5 + 0j
    for _ in range(NEWTON_STEPS):
        x = x - (x - 8 / x ** 2) / 3
    assert x == out


def test_underflowed_power_is_a_critical_point_not_a_division_by_zero() -> None:
    # x**(d-1) underflows to 0 at a nonzero seed, or after one update (from
    # 1 + 1e-8 with S = -63 the iterate lands near 6.3e-7, whose 63rd power
    # underflows): no finite update exists, and the run fails as a whole.
    for d, S, seed in ((64, 1, 1e-6), (3, 1, 1e-200), (64, -63, 1 + 1e-8)):
        trace = BranchTrace()
        with pytest.raises(ArithmeticError, match="do not settle") as info:
            newton_root(d, S, seed, None, trace)
        assert type(info.value) is ArithmeticError, (d, S, seed)
        assert trace.branch_count == 0


def test_scaling_by_a_power_of_two_scales_every_iterate() -> None:
    # Exact powers of two commute with the update, so the root scales with
    # the seed: the range reduction in scaled_root cannot change how
    # accurate a root comes out.
    rng = random.Random(71)
    for _ in range(200):
        d = rng.choice((2, 3, 5, 16))
        S = cmath.rect(rng.uniform(0.25, 4.0), rng.uniform(-math.pi / 2, math.pi / 2))
        seed, _ = select_seed(d, S)
        base = newton_root(d, S, seed)
        for m in (-40, -1, 1, 20):
            scaled = newton_root(d, S * 2.0 ** (d * m), seed * 2.0 ** m)
            assert scaled == base * 2.0 ** m, (d, S, m)


def test_divergence_bailout() -> None:
    # The first update jumps to about 5e8 and the next six only halve it:
    # the run fails, as the escape-time kernel bails out beyond DIVERGENCE_BAILOUT.
    trace = BranchTrace()
    with pytest.raises(ArithmeticError, match="do not settle"):
        newton_root(2, 100, 1e-7, None, trace)
    assert trace.computation_count == NEWTON_STEPS
    assert 100 / 2e-7 > DIVERGENCE_BAILOUT
    assert not escape_times(2, [100], 1e-7)[1][0]


def test_overflowing_power_is_divergence() -> None:
    # x**63 leaves the double range at the seed 1e5, and after the first
    # update from 1 with S = 1e7 (to about 1.6e5)
    for S, seed in ((1, 1e5), (1e7, 1)):
        with pytest.raises(ArithmeticError, match="do not settle"):
            newton_root(64, S, seed)
        # the vectorized kernel leaves the same cell unconverged
        assert not escape_times(64, [S], seed)[1][0]


def test_kernel_argument_validation() -> None:
    with pytest.raises(ValueError):
        newton_root(1, 4, 1)
    with pytest.raises(ArithmeticError):  # 0 is the critical point of the update
        newton_root(2, 4, 0)
    with pytest.raises(ValueError):
        NewtonConfig(threshold_r=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iters=0)


def test_iterations_are_computations_not_decisions() -> None:
    trace = BranchTrace()
    assert newton_root(2, 9, 1, None, trace) == 3
    assert trace.branch_count == 0
    assert trace.computation_count == NEWTON_STEPS


def test_converged_residual_bound_over_random_inputs() -> None:
    rng = random.Random(101)
    for _ in range(500):
        d = rng.randint(2, 8)
        S = random_complex(rng)
        if S == 0:
            continue
        seed, half = select_seed(d, S)
        R = -S if half else S
        value = newton_root(d, R, seed, TIGHT)
        assert abs(value ** d - R) < 10 * root_tolerance(d, abs(R)), (d, S)


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


def answers(d: int, S: complex, seed: complex) -> complex | None:
    """``newton_root``'s root, or None where its updates do not settle."""
    try:
        return newton_root(d, S, seed)
    except ArithmeticError:
        return None


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
                if answers(d, S, seed) is not None:
                    hits += 1
            assert hits >= 0.99 * total, (d, k, hits, total)


def test_rotation_equivariance_on_a_grid() -> None:
    # analytic frame rotation gives the same computation turned by the seed,
    # so both frames answer on the same cells, one rotation apart
    for d, k in ((3, 1), (3, 2), (5, 2)):
        seed = cmath.exp(2j * math.pi * k / (d * d))
        rot = cmath.exp(-2j * math.pi * k / d)
        answered = 0
        for row in range(64):
            for col in range(64):
                S = complex(-2 + (col + 0.5) / 16, 2 - (row + 0.5) / 16)
                if S == 0:
                    continue
                base = answers(d, S * rot, 1 + 0j)
                floating = answers(d, S, seed)
                assert (floating is None) == (base is None), (d, k, S)
                if base is not None:
                    answered += 1
                    assert abs(floating - base * seed) <= 1e-15 * abs(floating), (d, k, S)
        assert answered >= 1700, (d, k, answered)


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
    assert trace.computation_count == NEWTON_STEPS


# the half-plane edges +-i, -1 with both signed zeros, and every quadrant
STEP_PHASES = (1, 1j, -1j, complex(-1, 0.0), complex(-1, -0.0), *(
    cmath.exp(1j * theta) for theta in (0.3, 1.2, 2.0, 2.9, -0.7, -1.9, -2.6)
))


@pytest.mark.parametrize("d", [2, 3, 4, 16, 64, 256, 1023, 2000])
def test_scaled_root_steps_do_not_grow_with_degree_or_scale(d) -> None:
    # The seed carries the root's modulus, so the fixed updates start next to
    # the root at every degree and every scale of the double range: each
    # nonzero radical costs exactly NEWTON_STEPS steps and one decision.
    for k in range(-1000, 1001, 40):
        for phase in STEP_PHASES:
            S = complex(math.ldexp(phase.real, k), math.ldexp(phase.imag, k))
            trace = BranchTrace()
            scaled_root(d, S, None, trace)
            assert trace.computation_count == NEWTON_STEPS, (d, k, phase)
            assert trace.decisions == [("seed_sector_0", sector_index(2, S) == 0)]


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
        value = scaled_root(d, S, TIGHT)
        assert abs(value - want) <= 1e-10 * abs(want), (d, S)


SWEEP_DEGREES = (*range(2, 65), 100, 128, 256, 512, 1000, 1023, 2000, 2026)


def test_the_fixed_updates_reach_every_phase_at_every_degree() -> None:
    # NEWTON_STEPS is chosen by this sweep: 801 phases of a unit radicand on
    # the closed right half-plane, which every radical reduces to, at each
    # degree.  Six updates raise on thousands of these inputs.
    phases = [-math.pi / 2 + math.pi * k / 800 for k in range(801)]
    for d in SWEEP_DEGREES:
        for theta in phases:
            S = cmath.rect(1.0, theta)
            with mpmath.workdps(40):
                want = complex(branch_root(d, S))
            trace = BranchTrace()
            value = scaled_root(d, S, None, trace)
            assert abs(value - want) <= 1e-15 * abs(want), (d, theta)
            assert (trace.branch_count, trace.computation_count) == (1, NEWTON_STEPS)


@pytest.mark.parametrize(
    "d, S, error, message",
    [
        (2100, 5e-324, ArithmeticError, "leaves the double range"),
        (2055, complex(1.5e308, 1.5e308), ArithmeticError, "leaves the double range"),
        (4000, 5e-324, ArithmeticError, "do not settle"),
        (4000, complex(-5e-324, 0.0), ArithmeticError, "do not settle"),
    ],
)
def test_radicands_out_of_reach_raise_naming_the_equation(d, S, error, message) -> None:
    # Above d = 2026 the reduced exponent, in [-d/2, d/2), can put a radicand
    # near either end of the double range outside it, or take Newton's
    # updates out of it; these fail instead of answering a wrong root.  The
    # error names the caller's S, not the -S that a left half-plane runs on.
    named = re.escape(f"t**{d} = {complex(S)!r}: ")
    with pytest.raises(error, match=named + ".*" + message):
        scaled_root(d, S, TIGHT)


@pytest.mark.parametrize(
    "d, S", [(2030, complex(-5e-307, -5e-307)), (2040, complex(-3e306, 1e306))]
)
def test_radicands_at_the_edge_of_the_reduction_answer_accurately(d, S) -> None:
    # Reduced to about 2**1013, near the top of the double range: an update
    # that divided by d * x**(d-1) would overflow there and stop moving.
    with mpmath.workdps(50):
        want = complex(branch_root(d, S))
    value = scaled_root(d, S)
    assert abs(value - want) <= 1e-15 * abs(want)
    assert solve_pure_power(d, S)[0] == value


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
        tol = root_tolerance(d, abs(S))
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


# ------------------------------------------------- bits of the reference path

def reference_newton_root(d, radicand, seed, config=None, trace=None):
    """Seven updates, a computation noted per update, then the one check."""
    x = complex(seed)
    S = complex(radicand)
    for _ in range(7):
        xp = x ** (d - 1)  # OverflowError beyond the double range
        step = (x - S / xp) / d  # ZeroDivisionError when xp is 0
        x = x - step
        if trace is not None:
            trace.note_computation()
    if not (cmath.isfinite(x) and abs(step) <= 1e-12 * abs(x)):
        raise ArithmeticError("the reference updates do not settle")
    return x


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
    # scaled_root, and the kernel alone from each input's own seed.
    for S in inputs:
        out = traced(scaled_root, d, S, TIGHT)
        with monkeypatch.context() as patch:
            patch.setattr(newton, "newton_root", reference_newton_root)
            ref = traced(scaled_root, d, S, TIGHT)
        assert (bits(out[0]), out[1], out[2]) == (bits(ref[0]), ref[1], ref[2]), S
        if S == 0:
            assert out[2] == 0
            continue
        seed, half = select_seed(d, S)
        R = -S if half else S
        value, _, steps = traced(newton_root, d, R, seed, TIGHT)
        ref_value, _, ref_steps = traced(reference_newton_root, d, R, seed, TIGHT)
        assert (bits(value), steps) == (bits(ref_value), ref_steps) == (
            bits(ref_value), NEWTON_STEPS
        ), S


def outcome(fn, *args):
    """``traced(fn, *args)`` with the value's bits, or None if it raised."""
    try:
        value, _, steps = traced(fn, *args)
    except ArithmeticError:
        return None
    return bits(value), steps


@pytest.mark.parametrize(
    "d, S, seed, config",
    [
        # the exits of a loop with a stopping test: a step cap it stopped at ...
        (2, 9, 1, NewtonConfig(threshold_r=1e-12, max_iters=1)),
        (5, 3 + 4j, 1, NewtonConfig(threshold_r=1e-12, max_iters=1)),
        (2, 100, 1e-7, None),  # ... a first step beyond the bailout
        (64, 1, 1e5, None),  # ... a power that overflows at the seed
        (64, 1e7, 1, None),  # ... and after one step
        (2, -1, 1, None),  # ... a first step that lands on 0
        (64, -63, 1 + 1e-8, NewtonConfig(max_iters=1)),  # ... and an underflow
    ],
)
def test_newton_root_failure_exits_keep_the_bits_of_the_reference_loop(
    d, S, seed, config
) -> None:
    # The config is ignored; the first settles within the fixed updates, and
    # the other six raise, as the reference does.
    got = outcome(newton_root, d, S, seed, config)
    assert got == outcome(reference_newton_root, d, S, seed, config)
    assert (got is None) == ((d, S) != (2, 9)), got
