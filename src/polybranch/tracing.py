"""Decision traces for branch-counted solvers.

A solver threads a ``BranchTrace`` through its control flow and records every
data-dependent decision (half-plane tests, degenerate-case tests) as a
(label, value) pair.  Loop iterations and convergence checks are
bookkeeping, not decisions, and are tallied separately as computation steps.
Tracing is optional: all recording helpers accept ``trace=None`` and solvers
produce bit-identical numbers either way.

This module only records traces; the comparison of a measured count with
the lower bound is the ``bound`` command's row.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BranchTrace:
    """Append-only record of the (label, value) pairs one solver run took."""

    decisions: list[tuple[str, bool]] = field(default_factory=list)
    computation_count: int = 0

    def record(self, label: str, value: bool) -> bool:
        value = bool(value)
        self.decisions.append((label, value))
        return value

    def note_computation(self, steps: int = 1) -> None:
        self.computation_count += steps

    @property
    def branch_count(self) -> int:
        return len(self.decisions)

    def labels(self) -> list[str]:
        return [label for label, _ in self.decisions]


def record_decision(trace: BranchTrace | None, label: str, value: bool) -> bool:
    """Record a (label, value) pair and hand the predicate back for inline use."""
    if trace is not None:
        return trace.record(label, value)
    return bool(value)
