"""Tests for the branching lower bound and cup-length certificates."""

from __future__ import annotations

import math

import pytest

from polybranch import (
    CupLengthCertificate,
    GeneratorPair,
    max_cup_length,
    pairs_within_weight,
    smale_bound,
    verify_lemma_claim,
)
from polybranch.complexity import _cbrt


def dp_max_pairs(budget: int) -> int:
    """Exhaustive 0/1-knapsack oracle: most pairs whose weights sum within budget.

    The weight-w class contributes w distinct pairs of weight w each.
    """
    items = [w for w in range(1, budget + 1) for _ in range(w)]
    best = [0] * (budget + 1)
    for item in items:
        for b in range(budget, item - 1, -1):
            best[b] = max(best[b], best[b - item] + 1)
    return best[budget]


def reference_cbrt(x: float) -> float:
    """A frozen copy of the cube root ``smale_bound`` used when it still took
    any real x: a zero branch and sign handling."""
    if x == 0.0:
        return 0.0
    mag = abs(x)
    c = mag ** (1.0 / 3.0)
    c = (2.0 * c + mag / (c * c)) / 3.0
    c = (2.0 * c + mag / (c * c)) / 3.0
    n = round(c)
    if n * n * n == mag:
        c = float(n)
    return c if x > 0 else -c


def test_smale_bound_keeps_the_bits_of_the_signed_cube_root() -> None:
    # smale_bound passes (log2 d)^2 >= 1, where the sign handling is idle.
    for d in (*range(2, 2**16 + 1), *(2**j for j in range(17, 200))):
        lg = math.log2(d)
        assert smale_bound(d).hex() == (reference_cbrt(lg * lg) - 1.0).hex(), d


def test_cube_root_is_exact_on_every_integer_cube_below_2_to_the_53() -> None:
    # Every (log2 d)^2 the CLI can parse is below 2**53 (d has at most 4300 digits).
    n = 1
    while n**3 < 2**53:
        assert _cbrt(float(n**3)) == n, n
        n += 1
    assert n == 208064


def test_smale_bound_known_values() -> None:
    assert smale_bound(2) == 0.0  # exactly
    assert smale_bound(256) == 3.0  # 8^(2/3) = 4, exactly
    assert abs(smale_bound(4) - (2 ** (2 / 3) - 1)) < 1e-12  # ~0.5874
    assert abs(smale_bound(3) - (math.log2(3) ** (2 / 3) - 1)) < 1e-12
    with pytest.raises(ValueError):
        smale_bound(1)
    with pytest.raises(ValueError):
        smale_bound(0)


def test_smale_bound_is_nondecreasing() -> None:
    values = [smale_bound(d) for d in range(2, 1025)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[0] == 0.0
    assert all(v >= 0.0 for v in values)


def test_generator_pair_weight_and_ring_degree() -> None:
    assert GeneratorPair(1, 0).weight == 1
    assert GeneratorPair(2, 3).weight == 5
    with pytest.raises(ValueError):
        GeneratorPair(0, 0)
    with pytest.raises(ValueError):
        GeneratorPair(1, -1)


def test_pairs_within_weight_examples_and_closed_form() -> None:
    assert pairs_within_weight(1) == 1  # only (1, 0)
    assert pairs_within_weight(3) == 6
    assert pairs_within_weight(0) == 0
    for n in range(0, 200):
        assert pairs_within_weight(n) == n * (n + 1) // 2
    with pytest.raises(ValueError):
        pairs_within_weight(-1)


def test_max_cup_length_small_degrees() -> None:
    cert = max_cup_length(2)
    assert cert.pairs == (GeneratorPair(1, 0),)
    assert cert.cardinality == 1
    assert cert.total_weight == 1

    cert = max_cup_length(16)  # integer budget 4
    assert cert.cardinality == 2
    assert cert.pairs == (GeneratorPair(1, 0), GeneratorPair(1, 1))
    assert cert.total_weight == 3  # adding any third distinct pair exceeds 4

    cert = max_cup_length(32)  # integer budget 5 = 1 + 2 + 2
    assert cert.cardinality == 3
    assert cert.total_weight == 5

    with pytest.raises(ValueError):
        max_cup_length(1)


def test_max_cup_length_non_power_of_two_uses_integer_budget() -> None:
    cert = max_cup_length(36)  # 2^5 <= 36 < 2^6
    assert cert.cardinality == max_cup_length(32).cardinality
    assert cert.budget == math.log2(36)
    assert cert.total_weight <= 5


def test_certificate_feasibility_invariants() -> None:
    for d in list(range(2, 70)) + [2 ** 10, 2 ** 17, 2 ** 30, 12345]:
        cert = max_cup_length(d)
        assert len(set(cert.pairs)) == cert.cardinality == len(cert.pairs)
        assert sum(p.weight for p in cert.pairs) == cert.total_weight
        assert cert.total_weight <= d.bit_length() - 1
        assert cert.smale_bound == smale_bound(d)
        assert all(p.m >= 1 and p.k >= 0 for p in cert.pairs)


def test_greedy_matches_exhaustive_knapsack() -> None:
    for budget in range(1, 21):
        greedy = max_cup_length(2 ** budget).cardinality
        assert greedy == dp_max_pairs(budget), f"budget {budget}"


def test_certificate_validation_errors() -> None:
    pair = GeneratorPair(1, 0)
    with pytest.raises(ValueError):
        CupLengthCertificate(d=4, pairs=(pair, pair))


def test_lemma_claim_spot_values() -> None:
    assert verify_lemma_claim(2) is True  # cardinality 1 >= 1
    assert verify_lemma_claim(2 ** 30) is True  # 10 pairs >= 30^(2/3) ~ 9.65
    # The inequality genuinely fails for some degrees.  The smallest power of
    # two where it fails is 4 (one pair against 2^(2/3) ~ 1.59); at 16 the
    # greedy-optimal family (2 pairs) stays below the target 4^(2/3) ~ 2.52.
    # The acceptance sweep reports the full picture.
    assert verify_lemma_claim(16) is False
