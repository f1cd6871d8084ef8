"""Tests for the branch-counted closed-form solvers (degrees 2-4)."""

from __future__ import annotations

import cmath
import math
import random
import struct

import mpmath
import numpy as np
import pytest

from polybranch import (
    BranchTrace,
    MonicPolynomial,
    NewtonConfig,
    evaluate,
    roots_to_poly,
    solve_cubic,
    solve_pure_power,
    solve_quadratic,
    solve_quartic,
)
from oracles import durand_kerner_batch, min_pairwise_separation, multiset_max_distance

TIGHT = NewtonConfig(threshold_r=1e-8)
SOLVERS = {2: solve_quadratic, 3: solve_cubic, 4: solve_quartic}


def random_coeff_rows(rng: np.random.Generator, count: int, degree: int) -> np.ndarray:
    """Coefficient rows drawn uniformly from the disk |a| <= 10."""
    rows = np.empty((count, degree), dtype=np.complex128)
    filled = 0
    while filled < count:
        cand = rng.uniform(-10, 10, (count, degree)) + 1j * rng.uniform(-10, 10, (count, degree))
        keep = cand[(np.abs(cand) <= 10).all(axis=1)][: count - filled]
        rows[filled : filled + keep.shape[0]] = keep
        filled += keep.shape[0]
    return rows


def max_scale(coeffs) -> float:
    return max(1.0, max(abs(c) for c in coeffs))


# ---------------------------------------------------------------- quadratics

def test_quadratic_known_factorizations() -> None:
    roots = solve_quadratic(0, -1, TIGHT)  # t^2 - 1, discriminant 4
    assert abs(roots[0] - 1) < 1e-9 and abs(roots[1] + 1) < 1e-9

    roots = solve_quadratic(0, 1, TIGHT)  # t^2 + 1, discriminant -4
    assert abs(roots[0] - 1j) < 1e-9 and abs(roots[1] + 1j) < 1e-9

    roots = solve_quadratic(-5, 6, TIGHT)  # t^2 - 5t + 6, discriminant 1
    assert abs(roots[0] - 3) < 1e-9 and abs(roots[1] - 2) < 1e-9


def test_quadratic_spends_exactly_one_branch_on_every_path() -> None:
    rng = random.Random(11)
    cases = [
        (0, -1),  # positive real discriminant
        (0, 1),  # negative real discriminant
        (-2, 1),  # discriminant exactly 0 (double root 1)
        (0, 0),  # double root 0
        (2j, -1 + 0j),  # complex coefficients
    ]
    for _ in range(400):
        cases.append((
            complex(rng.uniform(-10, 10), rng.uniform(-10, 10)),
            complex(rng.uniform(-10, 10), rng.uniform(-10, 10)),
        ))
    for a1, a0 in cases:
        trace = BranchTrace()
        roots = solve_quadratic(a1, a0, TIGHT, trace)
        assert trace.branch_count == 1, (a1, a0)
        assert len(roots) == 2


def test_quadratic_double_root_is_exact() -> None:
    trace = BranchTrace()
    roots = solve_quadratic(-2, 1, TIGHT, trace)  # (t - 1)^2
    assert roots == (1 + 0j, 1 + 0j)
    assert trace.branch_count == 1


# -------------------------------------------------------------------- cubics

def test_cubic_known_factorizations() -> None:
    roots = solve_cubic(0, 0, -1, TIGHT)  # t^3 - 1
    expected = [1, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)]
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-8

    roots = solve_cubic(-6, 11, -6, TIGHT)  # (t-1)(t-2)(t-3)
    for e in (1, 2, 3):
        assert min(abs(r - e) for r in roots) < 1e-8

    roots = solve_cubic(0, 1, 0, TIGHT)  # t^3 + t = t(t^2 + 1)
    for e in (0, 1j, -1j):
        assert min(abs(r - e) for r in roots) < 1e-8


def test_cubic_with_three_real_roots() -> None:
    # t^3 - 3t + 1: irreducible over the rationals, all three roots real
    roots = solve_cubic(0, -3, 1, TIGHT)
    assert max(abs(r.imag) for r in roots) < 1e-8
    oracle = np.sort(np.roots([1, 0, -3, 1]).real)
    got = np.sort(np.array([r.real for r in roots]))
    assert np.abs(got - oracle).max() < 1e-8


def test_cubic_tiny_first_cube_root_falls_back_to_second_radical() -> None:
    # p ~ 0 with q = 2 makes the first cube-root radicand collapse to ~1e-41,
    # so the paired division -p/(3u) is unusable and the sibling radical runs
    trace = BranchTrace()
    roots = solve_cubic(0, 1e-13, 2, TIGHT, trace)
    assert trace.branch_count == 3  # the cubic's longest path: three radicals
    p = MonicPolynomial((2 + 0j, 1e-13 + 0j, 0j))
    assert max(abs(evaluate(p, r)) for r in roots) < 1e-8
    assert min(abs(r - (-(2 ** (1 / 3)))) for r in roots) < 1e-8


def test_cubic_branch_ceiling_over_random_inputs() -> None:
    rng = random.Random(12)
    special = [(0, 0, 0), (0, 0, -1), (0, -3, 1), (0, 1e-13, 2), (-3, 3, -1)]
    for trial in range(600):
        if trial < len(special):
            a2, a1, a0 = special[trial]
        else:
            a2, a1, a0 = (
                complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
            )
        trace = BranchTrace()
        solve_cubic(a2, a1, a0, TIGHT, trace)
        assert trace.branch_count <= 3


# ------------------------------------------------------------------ quartics

def test_quartic_resolvent_values_for_fourth_roots_of_unity() -> None:
    # t^4 - 1: the cube radical is nonzero, so the solve goes on past the
    # degenerate test to the offset and the two final square roots.
    trace = BranchTrace()
    solve_quartic(0, 0, 0, -1, TIGHT, trace)
    assert trace.decisions == [
        ("seed_sector_0", True),
        ("seed_sector_0", True),
        ("resolvent_radical_zero", False),
        ("seed_sector_0", False),
        ("seed_sector_0", True),
        ("seed_sector_0", True),
    ]


def test_quartic_resolvent_detects_quadruple_root() -> None:
    trace = BranchTrace()
    solve_quartic(4, 6, 4, 1, TIGHT, trace)  # (t + 1)^4
    # two radicals of zero, then the degenerate test, which holds
    assert trace.labels() == ["seed_sector_0", "seed_sector_0", "resolvent_radical_zero"]
    assert trace.decisions[-1][1] is True


def test_quartic_known_factorizations() -> None:
    roots = solve_quartic(0, 0, 0, -1, TIGHT)  # t^4 - 1
    for e in (1, -1, 1j, -1j):
        assert min(abs(r - e) for r in roots) < 1e-8

    roots = solve_quartic(0, -10, 0, 9, TIGHT)  # (t^2 - 1)(t^2 - 9)
    for e in (1, -1, 3, -3):
        assert min(abs(r - e) for r in roots) < 1e-8


def test_quartic_quadruple_root_path() -> None:
    trace = BranchTrace()
    roots = solve_quartic(4, 6, 4, 1, TIGHT, trace)  # (t + 1)^4
    assert roots == (-1 + 0j, -1 + 0j, -1 + 0j, -1 + 0j)
    assert trace.branch_count == 3


def test_quartic_triple_root_path() -> None:
    trace = BranchTrace()
    roots = solve_quartic(0, -6, 8, -3, TIGHT, trace)  # (t - 1)^3 (t + 3)
    ones = sorted(roots, key=lambda z: z.real)
    assert abs(ones[0] + 3) < 1e-12
    assert all(abs(r - 1) < 1e-12 for r in ones[1:])
    assert trace.branch_count == 3


def test_quartic_all_zero_input() -> None:
    trace = BranchTrace()
    roots = solve_quartic(0, 0, 0, 0, TIGHT, trace)
    assert roots == (0j, 0j, 0j, 0j)
    assert trace.branch_count == 3


def test_quartic_branch_ceiling_over_random_inputs() -> None:
    rng = random.Random(13)
    special = [
        (0, 0, 0, 0), (0, 0, 0, -1), (4, 6, 4, 1), (0, -6, 8, -3),
        (0, -10, 0, 9), (0, 2, 0, 1),
    ]
    for trial in range(600):
        if trial < len(special):
            a3, a2, a1, a0 = special[trial]
        else:
            a3, a2, a1, a0 = (
                complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)
            )
        trace = BranchTrace()
        solve_quartic(a3, a2, a1, a0, TIGHT, trace)
        assert trace.branch_count <= 6


# --------------------------------------------------------------------- scale

def ldexp_complex(z: complex, e: int) -> complex:
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def root_bits(roots) -> list[bytes]:
    return [struct.pack("<dd", z.real, z.imag) for z in roots]


def test_a_solve_commutes_with_scaling_by_a_power_of_two() -> None:
    # t -> 2**k t multiplies a_j by 2**(k (d - j)).  Every guard compares
    # terms of one degree in the roots, so the roots come back times 2**k,
    # bit for bit, with the same decision list.
    guards = [
        (4, 6, 4, 1),  # (t + 1)^4, the quadruple-root test
        (0, -6, 8, -3),  # (t - 1)^3 (t + 3), the triple-root path
        (0, 0, 0, 0),  # t^4
        (0, 0, 0, -1),  # t^4 - 1
        (0, 1e-13, 2),  # the cubic's second cube root
    ]
    rng = random.Random(18)
    cases = [tuple(complex(a) for a in row) for row in guards]
    for degree in (2, 3, 4):
        for _ in range(100):
            chosen = [
                cmath.rect(10 ** rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
                for _ in range(degree)
            ]
            cases.append(roots_to_poly(tuple(chosen)).coeffs[::-1])
    for row in cases:
        solver = SOLVERS[len(row)]
        base_trace = BranchTrace()
        base = solver(*row, TIGHT, base_trace)
        for k in (-60, -37, -20, -7, -1, 1, 5, 19, 40, 60):
            trace = BranchTrace()
            scaled = [ldexp_complex(a, k * (i + 1)) for i, a in enumerate(row)]
            roots = solver(*scaled, TIGHT, trace)
            assert trace.decisions == base_trace.decisions, (row, k)
            assert root_bits(roots) == root_bits(ldexp_complex(z, k) for z in base), (row, k)


# ------------------------------------------------------- cross-degree sweeps

def test_roots_match_simultaneous_iteration_oracle() -> None:
    rng = np.random.default_rng(2024)
    for degree in (2, 3, 4):
        rows = random_coeff_rows(rng, 1000, degree)
        oracle = durand_kerner_batch(rows)
        separated = min_pairwise_separation(oracle) >= 0.05
        got = np.empty_like(oracle)
        for i, row in enumerate(rows):
            got[i] = SOLVERS[degree](*row[::-1], config=TIGHT)
        dist = multiset_max_distance(got, oracle)
        assert separated.sum() >= 900  # the filter only trims a sliver
        assert dist[separated].max() < 1e-4


def test_roots_match_mpmath_at_fifty_digits() -> None:
    # Roots of modulus 10^U(-2, 2) and uniform phase, expanded in doubles;
    # the reference roots are those of the expanded coefficients.
    rng = random.Random(1716)
    for degree in (2, 3, 4):
        for _ in range(200):
            chosen = [
                cmath.rect(10 ** rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
                for _ in range(degree)
            ]
            coeffs = roots_to_poly(tuple(chosen)).coeffs
            got = SOLVERS[degree](*coeffs[::-1], config=TIGHT)
            with mpmath.workdps(50):
                full = [mpmath.mpc(c.real, c.imag) for c in (1, *coeffs[::-1])]
                want = [complex(z) for z in mpmath.polyroots(full, maxsteps=200, extraprec=100)]
            nearest = [min(range(degree), key=lambda i: abs(got[i] - w)) for w in want]
            assert sorted(nearest) == list(range(degree)), coeffs
            for i, w in zip(nearest, want):
                assert abs(got[i] - w) <= 1e-6 * abs(w), (coeffs, got[i], w)


def test_residuals_stay_below_1e_minus_8_of_the_coefficient_scale() -> None:
    rng = np.random.default_rng(2025)
    for degree in (2, 3, 4):
        rows = random_coeff_rows(rng, 500, degree)
        for row in rows:
            coeffs = tuple(row)
            p = MonicPolynomial(coeffs)
            roots = SOLVERS[degree](*row[::-1])
            assert max(abs(evaluate(p, r)) for r in roots) < 1e-8 * max_scale(coeffs)


def test_expanding_the_returned_roots_recovers_the_coefficients() -> None:
    rng = np.random.default_rng(2026)
    for degree in (2, 3, 4):
        rows = random_coeff_rows(rng, 300, degree)
        for row in rows:
            coeffs = tuple(row)
            roots = SOLVERS[degree](*row[::-1], config=TIGHT)
            back = roots_to_poly(roots).coeffs
            scale = max_scale(coeffs)
            assert max(abs(a - b) for a, b in zip(back, coeffs)) < 1e-3 * scale


def test_solvers_accept_and_ignore_the_config_slot_bench_passes() -> None:
    # bench/ passes a config positionally.  Every radical takes the same
    # fixed updates with or without one: the slot is accepted and ignored.
    assert solve_quadratic(0, -2) == solve_quadratic(0, -2, TIGHT)
    assert solve_cubic(1, 2, 3) == solve_cubic(1, 2, 3, TIGHT)
    assert solve_quartic(1, 2, 3, 4) == solve_quartic(1, 2, 3, 4, TIGHT)
    assert solve_pure_power(5, 1 + 2j) == solve_pure_power(5, 1 + 2j, TIGHT)


def test_radical_failure_propagates_as_arithmetic_error() -> None:
    # a radicand that is not finite is rejected before any Newton step
    trace = BranchTrace()
    with pytest.raises(ArithmeticError, match=r"t\*\*2 = .*not finite"):
        solve_quadratic(complex(float("nan"), 0), 1, None, trace)
    assert (trace.branch_count, trace.computation_count) == (0, 0)
    # a radius no double can meet is ignored, not a failure: t^2 - i/4
    unmet = NewtonConfig(threshold_r=5e-324)
    assert solve_quadratic(0, -0.25j, unmet) == solve_quadratic(0, -0.25j)
