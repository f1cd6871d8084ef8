"""Monic polynomials over the complex numbers.

Coefficients are stored low-to-high: ``coeffs[j]`` multiplies ``t**j`` and the
leading coefficient 1 is implicit, so ``t**2 - 1`` is ``MonicPolynomial((-1, 0))``.
Root collections are plain tuples of ``complex`` (see ``RootTuple``).
"""

from __future__ import annotations

import math
from contextlib import suppress
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


def evaluate(p: MonicPolynomial, t: complex) -> complex:
    """Horner evaluation, the implicit leading 1 included."""
    acc = 1 + 0j
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def residual(p: MonicPolynomial, t: complex) -> float:
    """|p(t)|, the residual of a candidate root, without spurious overflow.

    Plain Horner (``evaluate``) wherever its modulus is finite; otherwise
    |P| * 2**(s*d) from ``scaled_horner``, and inf only where that overflows.
    """
    with suppress(OverflowError):  # finite parts whose modulus exceeds the range
        value = abs(evaluate(p, t))
        if math.isfinite(value):
            return value
    with suppress(OverflowError):
        P, _, s = scaled_horner(p, t)
        return math.ldexp(abs(P), s * p.degree)
    return math.inf


def scaled_horner(p: MonicPolynomial, z: complex) -> tuple[complex, complex, int]:
    """(P, D, s) with p(z) = P * 2**(s*d) and p'(z) = D * 2**(s*(d - 1)).

    One Horner pass on w = z / 2**s, s of either sign taken from the modulus
    of z so that sqrt(1/2) <= |w| < sqrt(2) (s = 0 at z = 0); coefficient j
    is scaled to a_j / 2**(s*(d - j)) by ``ldexp``, a zero not at all.  P and
    D take the steps of ``evaluate`` and of plain Horner on the derivative,
    so wherever no part of a step, plain or scaled, leaves the normal range,
    they are plain Horner's values times exact powers of two, bit for bit.
    |w|**d stays within 2**(+-d/2), which leaves that range only from
    d = 2045 on; a scaled coefficient beyond it raises ``OverflowError``.
    """
    d = p.degree
    s, w = 0, z
    if z:
        s = math.frexp(max(abs(z.real), abs(z.imag)))[1]
        w = ldexp_complex(z, -s)  # 1/2 <= |w| < sqrt(2)
        if abs(w) < math.sqrt(0.5):  # sqrt(0.5) rounds up, its predecessor down
            s -= 1
            w = ldexp_complex(z, -s)
    a = p.coeffs
    if s:
        a = [ldexp_complex(c, -s * (d - j)) if c else c for j, c in enumerate(a)]
    P, D = 1 + 0j, complex(d)
    for j in range(d - 1, 0, -1):
        c = a[j]
        P = P * w + c
        D = D * w + j * c
    return P * w + a[0], D, s


def ldexp_complex(z: complex, e: int) -> complex:
    """z * 2**e, part by part, so no power of two beyond the range is formed."""
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
