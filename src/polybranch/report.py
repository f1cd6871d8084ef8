"""Root reports: the common result shape solvers hand to callers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RootReport:
    """Roots of one polynomial plus the accounting of how they were made.

    ``residuals[j]`` is |f(roots[j])| against the original polynomial,
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

    @property
    def degree(self) -> int:
        return len(self.roots)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "degree": self.degree,
            "method": self.method,
            "roots": [[z.real, z.imag] for z in self.roots],
            "residuals": list(self.residuals),
            "branch_count": self.branch_count,
            "per_root_iterations": list(self.per_root_iterations),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)
