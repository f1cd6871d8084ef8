"""Monic polynomials over the complex numbers.

Coefficients are stored low-to-high: ``coeffs[j]`` multiplies ``t**j`` and the
leading coefficient 1 is implicit, so ``t**2 - 1`` is ``MonicPolynomial((-1, 0))``.
Root collections are plain tuples of ``complex`` (see ``RootTuple``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RootTuple = tuple[complex, ...]

# Roots closer than this, relative to the larger modulus of the pair, count
# as one repeated root.
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


def residual(p: MonicPolynomial, t: complex) -> float:
    """|p(t)|, the residual of a candidate root, without spurious overflow.

    Plain Horner (``evaluate``) wherever its modulus is finite; otherwise
    ``_scaled_residual``.  The result is inf only where the scaled form
    overflows too: |p(t)| itself lies beyond the double range, or some
    coefficient a_j exceeds |t|**(d - j) by about that range.
    """
    try:
        value = abs(evaluate(p, t))
    except OverflowError:  # finite parts whose modulus exceeds the range
        value = math.inf
    return value if math.isfinite(value) else _scaled_residual(p, t)


def _scaled_residual(p: MonicPolynomial, t: complex) -> float:
    """|p(t)| by Horner on w = t / 2**s, scaled back with ``ldexp``.

    s is the binary exponent of the larger part of t (0 below 1), so both
    parts of w are below 1.  Coefficient j is scaled by 2**(-s*(d - j)), so
    the loop computes p(t) / 2**(s*d).  Scaling by a power of two is exact:
    wherever no part leaves the normal range, the value equals
    ``abs(evaluate(p, t))`` bit for bit.  A scaled coefficient that
    underflows is below 2**-1022 * |t|**d, under the rounding of t**d.
    """
    d = p.degree
    s = max(0, math.frexp(max(abs(t.real), abs(t.imag)))[1])
    w = _ldexp(t, -s)
    acc = 1 + 0j
    for j in range(d - 1, -1, -1):
        acc = acc * w + _ldexp(p.coeffs[j], -s * (d - j))
    try:
        return math.ldexp(abs(acc), s * d)
    except OverflowError:
        return math.inf


def _ldexp(z: complex, e: int) -> complex:
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


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
    """True when some pair of roots lies within ``REPEATED_ROOT_TOL`` times
    the larger of their moduli.

    Relative, so the verdict does not depend on the roots' scale; equal
    roots, zeros included, always coincide.

    The verdict is that of testing every pair, from fewer tests.  A root
    with an inf or nan part is tested against every other root.  The finite
    roots are sorted by real part, and a pair is tested only where its real
    parts differ by at most twice ``REPEATED_ROOT_TOL`` times the largest
    finite part: a pair that coincides differs by less in its real part,
    since a modulus is at most sqrt(2) times the larger of its parts.  A
    pair test that meets a root whose modulus overflows a double raises
    ``OverflowError``; the window meets fewer such pairs than every pair did.
    """
    n = len(roots)
    finite = [math.isfinite(r.real) and math.isfinite(r.imag) for r in roots]
    odd = [k for k in range(n) if not finite[k]]
    if any(_coincide(roots[min(j, k)], roots[max(j, k)]) for k in odd for j in range(n) if j != k):
        return True
    ordered = sorted((r for r, f in zip(roots, finite) if f), key=lambda r: r.real)
    largest = max((max(abs(r.real), abs(r.imag)) for r in ordered), default=0.0)
    width = 2 * REPEATED_ROOT_TOL * largest
    for i, a in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            if ordered[j].real - a.real > width:
                break
            if _coincide(a, ordered[j]):
                return True
    return False


def _coincide(a: complex, b: complex) -> bool:
    """The pair test of ``has_repeated_roots``; for non-finite roots its
    verdict can depend on the order of a and b."""
    return abs(a - b) <= REPEATED_ROOT_TOL * max(abs(a), abs(b))
