"""Tests for the monic-polynomial value type and its helpers."""

from __future__ import annotations

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polybranch import (
    MonicPolynomial,
    deflate,
    evaluate,
    has_repeated_roots,
    roots_to_poly,
)
from polybranch import poly
from polybranch.poly import _scaled_residual, residual

RNG_SEED = 20260814


def random_complex(rng: random.Random, bound: float = 10.0) -> complex:
    while True:
        z = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        if abs(z) <= bound:
            return z


def naive_evaluate(p: MonicPolynomial, t: complex) -> complex:
    total = t ** p.degree
    for j, c in enumerate(p.coeffs):
        total += c * t ** j
    return total


def test_evaluate_known_points() -> None:
    assert evaluate(MonicPolynomial((1, 0)), 1j) == 0  # t^2 + 1 at i
    assert evaluate(MonicPolynomial((-1, 0)), 0) == -1  # t^2 - 1 at 0
    assert evaluate(MonicPolynomial((-8, 0, 0)), 2) == 0  # t^3 - 8 at 2


def test_evaluate_matches_naive_power_sum() -> None:
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        degree = rng.randint(1, 6)
        p = MonicPolynomial(tuple(random_complex(rng) for _ in range(degree)))
        t = random_complex(rng, 3.0)
        expected = naive_evaluate(p, t)
        got = evaluate(p, t)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
        assert p(t) == got


def test_derivative_at_matches_difference_quotient() -> None:
    rng = random.Random(RNG_SEED + 1)
    for _ in range(100):
        degree = rng.randint(1, 5)
        p = MonicPolynomial(tuple(random_complex(rng, 2.0) for _ in range(degree)))
        t = random_complex(rng, 2.0)
        h = 1e-6
        numeric = (evaluate(p, t + h) - evaluate(p, t - h)) / (2 * h)
        assert abs(p.derivative_at(t) - numeric) <= 1e-4 * max(1.0, abs(numeric))


def test_roots_to_poly_known_expansions() -> None:
    assert roots_to_poly((1, -1)).coeffs == (-1 + 0j, 0j)  # t^2 - 1
    assert roots_to_poly((0, 0, 0)).coeffs == (0j, 0j, 0j)  # t^3
    assert roots_to_poly((2, 3)).coeffs == (6 + 0j, -5 + 0j)  # t^2 - 5t + 6


def test_roots_to_poly_vanishes_at_its_roots() -> None:
    rng = random.Random(RNG_SEED + 2)
    for _ in range(200):
        degree = rng.randint(1, 6)
        roots = tuple(random_complex(rng, 4.0) for _ in range(degree))
        p = roots_to_poly(roots)
        scale = max(1.0, max(abs(c) for c in p.coeffs))
        for r in roots:
            assert abs(evaluate(p, r)) <= 1e-9 * scale


def test_roots_to_poly_is_deterministic_and_order_sensitive_only_in_rounding() -> None:
    rng = random.Random(RNG_SEED + 3)
    roots = tuple(random_complex(rng, 5.0) for _ in range(5))
    again = roots_to_poly(roots).coeffs
    assert roots_to_poly(roots).coeffs == again  # bit-identical rerun
    shuffled = list(roots)
    rng.shuffle(shuffled)
    permuted = roots_to_poly(tuple(shuffled)).coeffs
    scale = max(1.0, max(abs(c) for c in again))
    assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(again, permuted))


def test_deflate_known_factors() -> None:
    q, rem = deflate(MonicPolynomial((-1, 0)), 1)  # t^2 - 1 by (t - 1)
    assert q.coeffs == (1 + 0j,)
    assert rem == 0
    q, rem = deflate(MonicPolynomial((-8, 0, 0)), 2)  # t^3 - 8 by (t - 2)
    assert q.coeffs == (4 + 0j, 2 + 0j)
    assert rem == 0
    q, rem = deflate(MonicPolynomial((6, -5)), 3)  # t^2 - 5t + 6 by (t - 3)
    assert q.coeffs == (-2 + 0j,)
    assert rem == 0


def test_deflate_remainder_is_the_evaluation() -> None:
    rng = random.Random(RNG_SEED + 4)
    for _ in range(200):
        degree = rng.randint(2, 6)
        p = MonicPolynomial(tuple(random_complex(rng) for _ in range(degree)))
        z = random_complex(rng, 3.0)
        quotient, remainder = deflate(p, z)
        assert quotient.degree == degree - 1
        value = evaluate(p, z)
        assert abs(remainder - value) <= 1e-9 * max(1.0, abs(value))


def test_deflate_then_multiply_recovers_polynomial() -> None:
    rng = random.Random(RNG_SEED + 5)
    for _ in range(100):
        degree = rng.randint(2, 6)
        roots = tuple(random_complex(rng, 4.0) for _ in range(degree))
        p = roots_to_poly(roots)
        quotient, _ = deflate(p, roots[0])
        expected = roots_to_poly(roots[1:])
        scale = max(1.0, max(abs(c) for c in p.coeffs))
        assert all(
            abs(a - b) <= 1e-8 * scale
            for a, b in zip(quotient.coeffs, expected.coeffs)
        )


def test_has_repeated_roots_examples() -> None:
    assert has_repeated_roots((1, 1, 2)) is True
    assert has_repeated_roots((1, 2, 3)) is False
    # the tolerance is relative to the larger modulus, and inclusive
    assert has_repeated_roots((1.0, 1.0 + 2**-30)) is True
    assert has_repeated_roots((2**-600, (1.0 + 2**-30) * 2**-600)) is True
    assert has_repeated_roots((1.0, 1.0 + 2**-29)) is False
    assert has_repeated_roots((0, 1e-9)) is False
    assert has_repeated_roots((0, 0, 1)) is True  # equal zeros coincide
    assert has_repeated_roots((1,)) is False


def reference_has_repeated_roots(roots) -> bool:
    """The all-pairs loop that ``has_repeated_roots`` replaced, frozen."""
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = roots[i], roots[j]
            if abs(ri - rj) <= 1e-9 * max(abs(ri), abs(rj)):
                return True
    return False


def verdict(test, roots):
    """The verdict of ``test``, or the type of the error it raises."""
    try:
        return test(roots)
    except ArithmeticError as exc:
        return type(exc)


def root_sets():
    """Root tuples for the frozen-reference comparison, by kind."""
    rng = random.Random(RNG_SEED + 7)
    inf, nan = math.inf, math.nan
    for _ in range(300):
        n = rng.randint(0, 40)
        scale = 10.0 ** rng.uniform(-300, 300)
        roots = [random_complex(rng, 1.0) * scale for _ in range(n)]
        if n and rng.random() < 0.5:  # a near copy, on either side of the tolerance
            r = rng.choice(roots)
            rel = rng.choice((0.0, 2**-31, 2**-30, 2**-29, 1e-9, 1.0000001e-9))
            roots.insert(rng.randrange(n + 1), r * complex(1 + rel, rel * rng.random()))
        if n and rng.random() < 0.3:  # conjugate pairs share their real part
            roots += [r.conjugate() for r in roots[: rng.randint(1, n)]]
        rng.shuffle(roots)
        yield "random", tuple(roots)
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    for a in zeros:
        for b in zeros:
            yield "zeros", (a, b)
            yield "zeros", (a, 1e-300, b)
            yield "zeros", (a, 5e-324, 1 + 0j)
    yield "zeros", (0.0, -0.0, 0, 1)
    for d in (2, 3, 7, 64, 1000, 4000):
        principal = 0.5 ** (1 / d)
        roots = tuple(principal * cmath.exp(2j * math.pi * j / d) for j in range(d))
        yield "pure power", roots
        # Coincidences the all-pairs loop meets early, so that d = 4000 pays
        # for one full scan only.
        yield "pure power", roots + (roots[1] * (1 + 1e-10),)
        yield "pure power", tuple(r.conjugate() for r in roots) + roots[:1]
    specials = [complex(inf, 0), complex(-inf, 1), complex(0, inf), complex(inf, nan),
                complex(nan, inf), complex(nan, 0), complex(1, nan), complex(nan, nan),
                complex(inf, inf)]
    finite = [1 + 0j, 0j, complex(1e300, -1e300), 2.5 - 1j]
    for a in specials:
        for b in specials + finite:
            yield "non-finite", (a, b)
            yield "non-finite", (b, a)
            for c in finite:
                yield "non-finite", (c, a, b)
                yield "non-finite", (a, c, b)
    yield "non-finite", tuple(finite) + (complex(nan, 0),) + tuple(finite[:1])
    # Moduli beyond the double range, where some pair tests overflow.
    big = 1.5e308
    for roots in ((complex(big, big), complex(-big, -big)), (complex(big, 0), complex(-big, 0)),
                  (1 + 0j, 1 + 0j, complex(big, big), complex(-big, -big)),
                  (complex(big, big), complex(-big, -big), 1 + 0j, 1 + 0j),
                  (1 + 0j, 1 + 0j, complex(-big, big), complex(-big, big)),
                  (complex(big, 1), complex(big, 1)), (complex(big, big), complex(big, big))):
        yield "huge", roots


def test_repeated_roots_keep_the_verdict_of_the_all_pairs_loop() -> None:
    kinds = {}
    for kind, roots in root_sets():
        want = verdict(reference_has_repeated_roots, roots)
        got = verdict(has_repeated_roots, roots)
        if kind == "huge":
            # The tests are made in another order, and fewer of them, so an
            # overflow may be met where the loop met none, or the reverse.
            # A verdict is that of the loop on the roots scaled by 2**-4.
            scaled = tuple(complex(r.real / 16, r.imag / 16) for r in roots)
            assert got in (verdict(reference_has_repeated_roots, scaled), OverflowError), roots
        else:
            assert got == want, (kind, roots[:6], len(roots))
        kinds.setdefault(kind, set()).add(want)
        kinds.setdefault(kind + " (new)", set()).add(got)
    # Every kind gives both verdicts, and the huge parts also the overflow.
    assert all({True, False} <= seen for seen in kinds.values()), kinds
    assert OverflowError in kinds["huge"] and OverflowError in kinds["huge (new)"]


def test_repeated_roots_at_large_degree_test_few_pairs(monkeypatch) -> None:
    # The all-pairs loop makes d(d - 1)/2 = 2e8 pair tests here.
    d = 20000
    roots = tuple(cmath.exp(2j * math.pi * j / d) for j in range(d))
    tests = []
    pair_test = poly._coincide

    def counted(a: complex, b: complex) -> bool:
        tests.append(1)
        assert len(tests) < 10 * d  # fails fast where the tests grow as d**2
        return pair_test(a, b)

    monkeypatch.setattr(poly, "_coincide", counted)
    assert has_repeated_roots(roots) is False
    assert has_repeated_roots(roots + roots[-1:]) is True
    assert 0 < len(tests) < 10 * d


def test_residual_of_a_value_beyond_the_double_range_is_inf() -> None:
    # t itself is finite, but abs() of it overflows, and so does the scaled form.
    assert residual(MonicPolynomial((0j,)), complex(1.5e308, 1.5e308)) == math.inf


def test_validation_errors() -> None:
    with pytest.raises(ValueError):
        MonicPolynomial(())
    with pytest.raises(ValueError):
        MonicPolynomial((float("nan"), 0))
    with pytest.raises(ValueError):
        roots_to_poly(())
    with pytest.raises(ValueError):
        deflate(MonicPolynomial((1,)), 0)


# Fixed example sequence, no example database: the same cases every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def parts(low: float, high: float) -> st.SearchStrategy[float]:
    """0.0, or a float of either sign with modulus in [low, high]."""
    modulus = st.floats(min_value=low, max_value=high)
    return st.just(0.0) | modulus | modulus.map(lambda x: -x)


def complexes(low: float, high: float) -> st.SearchStrategy[complex]:
    return st.builds(complex, parts(low, high), parts(low, high))


def polynomials(low: float, high: float) -> st.SearchStrategy[MonicPolynomial]:
    """Dense polynomials of degree 1-6 and pure powers t**d + a0 at d = 16, 64."""
    dense = st.lists(complexes(low, high), min_size=1, max_size=6)
    pure = st.builds(
        lambda d, S: (S,) + (0j,) * (d - 1), st.sampled_from([16, 64]), complexes(low, high)
    )
    return (dense | pure).map(lambda coeffs: MonicPolynomial(tuple(coeffs)))


def plain_residual(p: MonicPolynomial, t: complex) -> float:
    try:
        return abs(evaluate(p, t))
    except OverflowError:
        return math.inf


@PROPERTY
@given(polynomials(5e-324, 1.7e308), complexes(5e-324, 1.7e308))
def test_residual_is_plain_horner_wherever_that_is_finite(p, t) -> None:
    plain = plain_residual(p, t)
    assume(math.isfinite(plain))
    assert residual(p, t) == plain


@PROPERTY
@given(polynomials(2.0**-20, 2.0**40), complexes(2.0**-20, 2.0**40))
def test_scaled_residual_equals_plain_horner_in_the_normal_range(p, t) -> None:
    # Every part stays far inside the normal range here, where scaling by a
    # power of two is exact, so the scaled form must agree bit for bit.
    plain = plain_residual(p, t)
    assume(math.isfinite(plain))
    assert _scaled_residual(p, t) == plain


def pure_power_near_roots() -> st.SearchStrategy[tuple[MonicPolynomial, complex]]:
    """t**d - S with |S| near the double maximum, at a rounded root of it."""

    def build(d: int, S: complex, k: int):
        t = cmath.exp((cmath.log(S) + 2j * math.pi * k) / d)
        return MonicPolynomial((-S,) + (0j,) * (d - 1)), t

    return st.builds(
        build,
        st.sampled_from([2, 3, 4, 7, 16, 64]),
        complexes(1e300, 1.7e308).filter(lambda S: S != 0),
        st.integers(min_value=0, max_value=63),
    )


@PROPERTY
@given(st.tuples(polynomials(1e-300, 1e300), complexes(1e100, 1e300)) | pure_power_near_roots())
def test_residual_beyond_plain_horner_stays_within_rounding(case) -> None:
    # Where t**d overflows, compare with the exact value at 60 digits: within
    # the Horner rounding bound when that fits the double range, inf beyond.
    p, t = case
    got = residual(p, t)
    with mpmath.workdps(60):
        z = mpmath.mpc(t.real, t.imag)
        full = [mpmath.mpc(c.real, c.imag) for c in p.coeffs] + [mpmath.mpc(1)]
        exact = abs(mpmath.polyval(full[::-1], z))
        scale = sum(abs(c) * abs(z) ** j for j, c in enumerate(full))
        bound = 8 * (p.degree + 1) * 2.0**-52 * scale
        top = mpmath.mpf(1.7976931348623157e308)
        if exact + bound < top:
            assert abs(got - exact) <= bound
        elif exact - bound > top:
            assert got == math.inf
