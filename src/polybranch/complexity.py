"""Lower bounds on branching and the cup-length certificates behind them.

The bound for degree-d solving is (log2 d)^(2/3) - 1.  Its certificate is
counted in a model with generators (m, k), m >= 1, k >= 0, where a product of
distinct generators counts while its weight sum(m_i + k_i) stays within
log2(d): a budgeted subset selection, solved here greedily.  The model is not
Fuks' presentation of the braid group's mod-2 cohomology, whose a_{m,k} has
degree 2**k * (2**m - 1) (ROADMAP.md, direction 9).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


def _cbrt(x: float) -> float:
    """Cube root of x >= 1: pow, which drifts, then two Newton polish steps,
    which return every integer cube n**3 < 2**53 as exactly n."""
    c = x ** (1.0 / 3.0)
    c = (2.0 * c + x / (c * c)) / 3.0
    return (2.0 * c + x / (c * c)) / 3.0


def smale_bound(degree: int) -> float:
    """The branching lower bound (log2 degree)^(2/3) - 1.

    Exact in floating point when log2(degree) is exact and its square is a
    perfect cube (e.g. degree 256 -> 3.0).
    """
    if degree < 2:
        raise ValueError("bound undefined below degree 2")
    lg = math.log2(degree)
    return _cbrt(lg * lg) - 1.0


@dataclass(frozen=True)
class GeneratorPair:
    """An index pair (m, k), m >= 1, k >= 0, which the model charges m + k."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 0:
            raise ValueError("need m >= 1 and k >= 0")

    @property
    def weight(self) -> int:
        return self.m + self.k


def pairs_within_weight(max_weight: int) -> int:
    """Count the pairs (m, k), m >= 1, k >= 0, with m + k <= max_weight.

    Counted weight class by weight class (the class of weight w holds w
    pairs); the closed form N(N+1)/2 is checked against this in the tests.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    total = 0
    for w in range(1, max_weight + 1):
        total += w  # pairs (m, w - m) for m = 1..w
    return total


@dataclass(frozen=True)
class CupLengthCertificate:
    """A weight-feasible family of distinct generator pairs for degree d.

    Only ``d`` and ``pairs`` are stored; the weight budget log2(d), the
    family's total weight and cardinality, and the Smale bound of d are read
    off them.  The ``bound`` command's row is the one serialization of a
    certificate, next to the measured branch count.
    """

    d: int
    pairs: tuple[GeneratorPair, ...]

    def __post_init__(self) -> None:
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("pairs must be pairwise distinct")

    @property
    def budget(self) -> float:
        return math.log2(self.d)

    @property
    def total_weight(self) -> int:
        return sum(p.weight for p in self.pairs)

    @property
    def cardinality(self) -> int:
        return len(self.pairs)

    @property
    def smale_bound(self) -> float:
        return smale_bound(self.d)


def max_cup_length(d: int) -> CupLengthCertificate:
    """Greedy maximum-cardinality family with total weight <= log2(d).

    Takes pairs in ascending weight, ties broken by ascending m; since every
    pair of weight w costs w, no larger family exists (any n pairs weigh at
    least as much as the n cheapest).  The weight cap is the largest integer
    not above log2(d), which equals log2(d) itself for powers of two.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    budget = d.bit_length() - 1  # the largest s with 2**s <= d, exactly
    chosen: list[GeneratorPair] = []
    total = 0
    for w in itertools.count(1):
        for m in range(1, w + 1):
            if total + w > budget:
                return CupLengthCertificate(d=d, pairs=tuple(chosen))
            chosen.append(GeneratorPair(m, w - m))
            total += w


def verify_lemma_claim(d: int) -> bool:
    """Whether the certified family is as large as (log2 d)^(2/3), which is
    the Smale bound of d plus one.

    This is the claimed inequality behind the lower bound; it is checked, not
    assumed, and genuinely fails for some degrees (see the tests).
    """
    cert = max_cup_length(d)
    return cert.cardinality >= cert.smale_bound + 1.0
