"""Root reports and the one JSON encoding every command writes."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .poly import MonicPolynomial, residual


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
    flags (unconverged stages, inputs outside the guaranteed domain).
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
        cls, poly: MonicPolynomial, roots: tuple[complex, ...], **fields
    ) -> RootReport:
        """The report for ``roots`` of ``poly``; ``fields`` are the other fields."""
        return cls(roots, tuple(residual(poly, z) for z in roots), **fields)

    @property
    def degree(self) -> int:
        return len(self.roots)

    def to_json(self) -> str:
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
