"""Tests for decision traces."""

from __future__ import annotations

import random

import pytest

from polybranch import (
    BranchTrace,
    distinct_decision_labels,
    record_decision,
    solve_cubic,
    solve_quadratic,
    worst_case_branches,
)


def random_complex(rng: random.Random, bound: float = 10.0) -> complex:
    while True:
        z = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        if abs(z) <= bound:
            return z


def test_record_appends_and_returns_value() -> None:
    trace = BranchTrace()
    assert record_decision(trace, "re_omega_neg", True) is True
    assert trace.branch_count == 1
    assert trace.labels() == ["re_omega_neg"]
    assert trace.decisions[0].value is True

    for k in range(3):
        trace.record(f"extra_{k}", False)
    assert trace.branch_count == 4
    trace.record("one_more", True)
    assert trace.branch_count == 5


def test_record_without_trace_is_passthrough() -> None:
    assert record_decision(None, "anything", True) is True
    assert record_decision(None, "anything", 0) is False  # coerced to bool


def test_computation_steps_do_not_count_as_branches() -> None:
    trace = BranchTrace()
    trace.note_computation()
    trace.note_computation(41)
    assert trace.computation_count == 42
    assert trace.branch_count == 0


def test_quadratic_full_run_records_exactly_one_decision() -> None:
    rng = random.Random(99)
    for _ in range(200):
        trace = BranchTrace()
        solve_quadratic(random_complex(rng), random_complex(rng), trace=trace)
        assert trace.branch_count == 1


def test_worst_case_branches_is_the_max() -> None:
    def of_length(n: int) -> BranchTrace:
        t = BranchTrace()
        for k in range(n):
            t.record(f"site_{k}", bool(k % 2))
        return t

    assert worst_case_branches([of_length(1), of_length(1), of_length(1)]) == 1
    assert worst_case_branches([of_length(3), of_length(5), of_length(2)]) == 5
    with pytest.raises(ValueError):
        worst_case_branches([])


def test_cubic_suite_stays_within_five_branches() -> None:
    rng = random.Random(7)
    traces = []
    for _ in range(1000):
        trace = BranchTrace()
        solve_cubic(
            random_complex(rng), random_complex(rng), random_complex(rng),
            trace=trace,
        )
        traces.append(trace)
    assert worst_case_branches(traces) <= 5


def test_distinct_labels_counts_sites_not_paths() -> None:
    a = BranchTrace()
    a.record("x", True)
    a.record("y", False)
    b = BranchTrace()
    b.record("y", True)
    b.record("z", False)
    assert distinct_decision_labels([a, b]) == 3
    assert worst_case_branches([a, b]) == 2
    with pytest.raises(ValueError):
        distinct_decision_labels([])
