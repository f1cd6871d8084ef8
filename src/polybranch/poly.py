"""Monic polynomials over the complex numbers.

Coefficients are stored low-to-high: ``coeffs[j]`` multiplies ``t**j`` and the
leading coefficient 1 is implicit, so ``t**2 - 1`` is ``MonicPolynomial((-1, 0))``.
Root collections are plain tuples of ``complex`` (see ``RootTuple``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RootTuple = tuple[complex, ...]

# Roots closer than this (absolute distance) count as one repeated root.
REPEATED_ROOT_TOL = 1e-9


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class MonicPolynomial:
    """A monic polynomial, degree >= 1, coefficients low-to-high (a0 first)."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(
            self,
            "coeffs",
            tuple(_require_finite(c, "coefficient") for c in self.coeffs),
        )

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, t: complex) -> complex:
        return evaluate(self, t)

    def derivative_at(self, t: complex) -> complex:
        """Evaluate the first derivative at ``t`` (Horner on the derivative)."""
        d = self.degree
        acc = complex(d)
        for j in range(d - 1, 0, -1):
            acc = acc * t + j * self.coeffs[j]
        return acc


def evaluate(p: MonicPolynomial, t: complex) -> complex:
    """Horner evaluation, the implicit leading 1 included."""
    acc = 1 + 0j
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def roots_to_poly(roots: RootTuple) -> MonicPolynomial:
    """Expand prod (t - r) by sequential multiplication, in the given order.

    The accumulation order is fixed (input order) so repeated calls are
    bit-identical; permuted inputs agree only up to rounding.
    """
    if len(roots) < 1:
        raise ValueError("need at least one root")
    roots = tuple(_require_finite(r, "root") for r in roots)
    # full coefficient list including the leading 1, low-to-high
    full = [1 + 0j]
    for r in roots:
        nxt = [0j] * (len(full) + 1)
        for j, c in enumerate(full):
            nxt[j + 1] += c
            nxt[j] -= r * c
        full = nxt
    return MonicPolynomial(tuple(full[:-1]))


def deflate(p: MonicPolynomial, root: complex) -> tuple[MonicPolynomial, complex]:
    """Synthetic division by (t - root).

    Returns the monic degree-(d-1) quotient and the remainder, which equals
    ``evaluate(p, root)`` and is reported for residual tracking.
    """
    if p.degree < 2:
        raise ValueError("cannot deflate below degree 1")
    root = _require_finite(root, "root")
    d = p.degree
    out = [0j] * (d - 1)
    b = 1 + 0j  # implicit leading coefficient of the quotient
    for j in range(d - 2, -1, -1):
        b = p.coeffs[j + 1] + root * b
        out[j] = b
    remainder = p.coeffs[0] + root * out[0]
    return MonicPolynomial(tuple(out)), remainder


def has_repeated_roots(roots: RootTuple) -> bool:
    """True when some pair of roots lies within ``REPEATED_ROOT_TOL``."""
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= REPEATED_ROOT_TOL:
                return True
    return False


def default_coefficient_bound(degree: int) -> float:
    """The default side of the coefficient box for a given degree (2**degree)."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return 2.0 ** degree


def in_coefficient_box(p: MonicPolynomial, bound: float | None = None) -> bool:
    """True when every coefficient satisfies |a_j| <= bound.

    ``bound=None`` uses the degree default; ``math.inf`` accepts everything.
    """
    if bound is None:
        bound = default_coefficient_bound(p.degree)
    return all(abs(c) <= bound for c in p.coeffs)
