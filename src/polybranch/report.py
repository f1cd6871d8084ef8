"""Root reports and the one JSON encoding every command writes."""

from __future__ import annotations

import cmath
import json
import math
from contextlib import suppress
from dataclasses import dataclass, field

from .poly import REPEATED_ROOT_TOL, MonicPolynomial, RootTuple, evaluate
from .poly import has_repeated_roots, ldexp_complex, scaled_horner

_COINCIDENT_ROOTS = (
    f"roots coincide within {REPEATED_ROOT_TOL}; the input sits outside the"
    " guaranteed distinct-root domain"
)

_INACCURATE_ROOTS = (
    "a root's Newton correction |p(z)/p'(z)| exceeds 1e-7 |z|; the method"
    " lost accuracy to cancellation or underflow"
)


def dumps(payload: dict) -> str:
    """Strict JSON with the "schema": 1 marker: sorted keys, indent 2; a
    non-finite number raises ValueError."""
    return json.dumps({"schema": 1, **payload}, sort_keys=True, indent=2, allow_nan=False)


@dataclass(frozen=True)
class RootReport:
    """Roots of one polynomial plus the accounting of how they were made.

    ``residuals[j]`` is |poly(roots[j])| for the ``poly`` given to ``answering``,
    ``branch_count`` the number of recorded decisions of the run (0 for the
    branch-free power-iteration method), ``per_root_iterations[j]`` the
    iteration effort attributed to roots[j], and ``warnings`` the non-fatal
    flags: the method's own (such as unconverged stages), then the
    coincident-roots and inaccurate-roots flags of ``answering``.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    branch_count: int
    method: str
    per_root_iterations: tuple[int, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        n = len(self.roots)
        if len(self.residuals) != n or len(self.per_root_iterations) != n:
            raise ValueError("roots, residuals and per_root_iterations must align")
        if self.branch_count < 0:
            raise ValueError("branch_count must be nonnegative")

    @classmethod
    def answering(
        cls, poly: MonicPolynomial, roots: RootTuple, warnings: tuple[str, ...] = (), **fields
    ) -> RootReport:
        """The certified report for ``roots`` of ``poly``; ``fields`` are the
        other fields, and ``warnings`` the method's own.

        One ``scaled_horner`` pass per root z gives its residual
        |P| * 2**(s*d) and its Newton correction: z is inaccurate where
        |p(z)/p'(z)| > 1e-7 |z|, tested as |P| > 1e-7 |w| |D| so that no
        power of z leaves the range and z = 0 needs no division.  A root
        whose scaled coefficients overflow cannot be certified: it is
        inaccurate.  Where the scaled residual is not finite, plain Horner's
        |p(z)| stands in, and inf where that is not finite either.  After
        the method's warnings come ``_COINCIDENT_ROOTS`` where two roots
        coincide within ``REPEATED_ROOT_TOL``, relative to their modulus,
        and then ``_INACCURATE_ROOTS`` where any root is inaccurate.
        """
        d = poly.degree
        residuals: list[float] = []
        inaccurate = False
        for z in roots:
            residual = math.inf
            try:
                P, D, s = scaled_horner(poly, z)
                size = abs(P)
                inaccurate |= size > 1e-7 * abs(ldexp_complex(z, -s)) * abs(D)
            except OverflowError:  # a scaled coefficient: z cannot be certified
                inaccurate = True
            else:
                with suppress(OverflowError):
                    residual = math.ldexp(size, s * d)
            if not math.isfinite(residual):
                with suppress(OverflowError):  # a modulus beyond the range
                    residual = abs(evaluate(poly, z))
            residuals.append(residual if math.isfinite(residual) else math.inf)
        warnings = tuple(warnings)
        if has_repeated_roots(roots):
            warnings += (_COINCIDENT_ROOTS,)
        if inaccurate:
            warnings += (_INACCURATE_ROOTS,)
        return cls(roots, tuple(residuals), warnings=warnings, **fields)

    @property
    def degree(self) -> int:
        return len(self.roots)

    def to_json(self) -> str:
        """``dumps``'s JSON; strict JSON has no value beyond the double range."""
        for j, (z, residual) in enumerate(zip(self.roots, self.residuals)):
            if not (cmath.isfinite(z) and math.isfinite(residual)):
                raise ValueError(f"roots[{j}] or its residual is beyond the double range")
        return dumps(
            {
                "degree": self.degree,
                "method": self.method,
                "roots": [[z.real, z.imag] for z in self.roots],
                "residuals": list(self.residuals),
                "branch_count": self.branch_count,
                "per_root_iterations": list(self.per_root_iterations),
                "warnings": list(self.warnings),
            }
        )

