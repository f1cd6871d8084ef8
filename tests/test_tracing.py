"""Tests for decision traces."""

from __future__ import annotations

import random

from polybranch import BranchTrace, record_decision, solve_cubic, solve_quadratic


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
    assert trace.decisions[0] == ("re_omega_neg", True)
    assert trace.decisions[0][1] is True

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


def test_cubic_suite_stays_within_five_branches() -> None:
    rng = random.Random(7)
    for _ in range(1000):
        trace = BranchTrace()
        solve_cubic(
            random_complex(rng), random_complex(rng), random_complex(rng),
            trace=trace,
        )
        assert trace.branch_count <= 5
