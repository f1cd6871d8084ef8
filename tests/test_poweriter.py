"""Tests for companion-matrix power iteration and its failure detector."""

from __future__ import annotations

import math
import random
import sys
import threading

import numpy as np
import pytest

from polybranch import (
    CompanionMatrix,
    MonicPolynomial,
    companion,
    deflate,
    detect_equal_magnitude,
    power_iterate,
    roots_to_poly,
    solve_by_power_iteration,
)
from polybranch.powiter import _fit_ratio, _polish
from polybranch.report import _COINCIDENT_ROOTS, _INACCURATE_ROOTS, RootReport
from oracles import durand_kerner, multiset_max_distance


def poly_with_roots(roots) -> MonicPolynomial:
    return roots_to_poly(tuple(roots))


def dense(F: CompanionMatrix) -> np.ndarray:
    """The d x d array F stands for: subdiagonal ones, last column -coeffs."""
    d = len(F.coeffs)
    matrix = np.zeros((d, d), dtype=np.complex128)
    for i in range(1, d):
        matrix[i, i - 1] = 1.0
    matrix[:, d - 1] = -np.asarray(F.coeffs, dtype=np.complex128)
    return matrix


def random_phase(rng: random.Random) -> complex:
    theta = rng.uniform(-math.pi, math.pi)
    return complex(math.cos(theta), math.sin(theta))


# ----------------------------------------------------------------- companion

def test_companion_layout_known_matrices() -> None:
    F = dense(companion(MonicPolynomial((2, -3))))  # t^2 - 3t + 2
    assert np.array_equal(F, np.array([[0, -2], [1, 3]], dtype=complex))

    F = dense(companion(MonicPolynomial((0, 0, 0))))  # t^3
    assert F.shape == (3, 3)
    assert np.array_equal(F[:, 2], np.zeros(3, dtype=complex))
    assert F[1, 0] == 1 and F[2, 1] == 1

    F = dense(companion(MonicPolynomial((1, 0))))  # t^2 + 1: rotation matrix
    assert np.array_equal(F, np.array([[0, -1], [1, 0]], dtype=complex))
    eig = sorted(np.linalg.eigvals(F), key=lambda z: z.imag)
    assert abs(eig[0] + 1j) < 1e-12 and abs(eig[1] - 1j) < 1e-12


def test_companion_eigenvalues_are_the_roots() -> None:
    rng = random.Random(21)
    for _ in range(50):
        degree = rng.randint(1, 6)
        coeffs = tuple(
            complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(degree)
        )
        p = MonicPolynomial(coeffs)
        eig = np.linalg.eigvals(dense(companion(p)))
        oracle = durand_kerner(coeffs)
        assert multiset_max_distance(eig[None, :], oracle[None, :])[0] < 1e-8


def reference_apply(F: CompanionMatrix, v: list[complex]) -> list[complex]:
    """The structured product F v: (-a0 v[-1], v[:-1] - a[1:] v[-1])."""
    last = v[-1]
    return [-F.coeffs[0] * last] + [x - c * last for x, c in zip(v[:-1], F.coeffs[1:])]


def reference_norm(v: list[complex]) -> float:
    return math.hypot(*[z.real for z in v], *[z.imag for z in v])


def reference_vdot(a: list[complex], b: list[complex]) -> complex:
    return sum(x.conjugate() * y for x, y in zip(a, b))


# ------------------------------------------------------------- power_iterate

def reference_power_iterate(F: CompanionMatrix, max_iters: int = 500, tol: float = 1e-10):
    """A frozen copy of the loop ``power_iterate`` must reproduce bit for bit:
    lists of complex, ``math.hypot`` for every norm, and the Rayleigh
    quotient and eigen-residual at every step.  An exactly zero iterate ends
    the run converged, with the last Rayleigh quotient (0)."""
    d = len(F.coeffs)
    parts = [x for c in F.coeffs for x in (c.real, c.imag)]
    fro = math.hypot(*parts, *[1.0] * (d - 1))
    b = [0j] * (d - 1) + [1 + 0j]
    w = reference_apply(F, b)
    history: list[float] = []
    lam = 0j
    converged = False
    for _ in range(max_iters):
        norm_w = reference_norm(w)
        if not math.isfinite(norm_w):
            break
        if norm_w == 0.0:
            converged = True
            break
        b_new = [y / norm_w for y in w]
        inner = reference_vdot(b, b_new)
        mag = math.hypot(inner.real, inner.imag)
        phase = inner / mag if mag > 0 else 1 + 0j
        step = reference_norm([y - phase * x for x, y in zip(b, b_new)])
        w = reference_apply(F, b_new)
        lam = reference_vdot(b_new, w)
        eig_res = reference_norm([y - lam * x for x, y in zip(b_new, w)])
        history.append(step)
        b = b_new
        converged = step < tol and eig_res <= tol * max(fro, 1.0)
        if converged:
            break
    return lam, b, converged, tuple(history)


def spelled(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def bits(eigenvalue: complex, eigenvector, converged: bool, history) -> tuple:
    """A run's outcome with every float spelled exactly, signed zeros included."""
    return (
        spelled(eigenvalue),
        tuple(spelled(z) for z in eigenvector),
        converged,
        tuple(r.hex() for r in history),
    )


def assert_same_bits(F: CompanionMatrix, **kwargs) -> complex:
    res = power_iterate(F, **kwargs)
    got = bits(res.eigenvalue, res.eigenvector, res.converged, res.residual_history)
    assert got == bits(*reference_power_iterate(F, **kwargs))
    return res.eigenvalue


def bench_shaped_roots(rng: random.Random, i: int, degree: int | None = None) -> list[complex]:
    """Degree 2-8 (unless given), moduli falling by a factor in [0.35, 0.75]
    per root, and a dominant pair of equal modulus for one input in 16."""
    degree = 2 + i % 7 if degree is None else degree
    moduli = [rng.uniform(0.5, 2.0)]
    for _ in range(degree - 1):
        moduli.append(moduli[-1] * rng.uniform(0.35, 0.75))
    roots = [m * random_phase(rng) for m in moduli]
    if i % 16 == 0 and degree > 1:
        roots[1] = -roots[0]
    return roots


def test_power_iterate_keeps_the_bits_of_the_reference_loop() -> None:
    rng = random.Random(28)
    for i in range(200):
        current = poly_with_roots(bench_shaped_roots(rng, i))
        # every stage: the input's companion, then each deflated one
        while current.degree >= 2:
            eigenvalue = assert_same_bits(companion(current))
            current = deflate(current, eigenvalue)


def test_power_iterate_keeps_the_bits_of_the_reference_loop_at_the_edges() -> None:
    assert_same_bits(companion(MonicPolynomial((1e-300, 0))))  # squares below the range
    assert_same_bits(companion(MonicPolynomial((1e200, 0))))  # squares above the range
    assert_same_bits(companion(MonicPolynomial((1.5e308, 1.5e308))))  # overflow break
    for max_iters in (0, 1):
        assert_same_bits(companion(MonicPolynomial((2, -3))), max_iters=max_iters)
    # 1x1 companions, where ||F|| = |a0| may lie far below the reference's floor of 1
    for a0 in (0.3, -1e-200, 2.5 + 1j, 1e-5j, 7):
        F = companion(MonicPolynomial((a0,)))
        assert abs(assert_same_bits(F) + a0) <= 1e-15 * abs(a0)
        assert power_iterate(F).converged
    for coeffs in [(0,), (0, 0), (0, 0, 0)]:  # F e_d = 0 on the first step
        assert assert_same_bits(companion(MonicPolynomial(coeffs))) == 0


def stages_keep_the_bits(p: MonicPolynomial) -> None:
    """Every stage down to the 1x1 companion, each deflated by the estimate."""
    while True:
        eigenvalue = assert_same_bits(companion(p))
        if p.degree == 1:
            return
        p = deflate(p, eigenvalue)


@pytest.mark.parametrize("degree", range(1, 17))
def test_power_iterate_keeps_the_bits_of_the_reference_loop_at_degrees_1_to_16(degree) -> None:
    # Up to d = 16, past the bench's degrees 2-8.
    rng = random.Random(2300 + degree)
    for _ in range(2):
        stages_keep_the_bits(MonicPolynomial(tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(degree))))
    for i in (1, 2):
        stages_keep_the_bits(poly_with_roots(bench_shaped_roots(rng, i, degree)))
    if degree == 11:  # an equal-modulus tie runs its first stage to the cap
        tie = poly_with_roots(bench_shaped_roots(rng, 0, degree))
        assert power_iterate(companion(tie)).iterations == 500
        stages_keep_the_bits(tie)


def test_a_result_keeps_its_eigenvector_after_later_runs() -> None:
    rng = random.Random(2317)
    first = companion(poly_with_roots(bench_shaped_roots(rng, 1, 5)))
    result = power_iterate(first)
    assert isinstance(result.eigenvector, tuple)
    kept = bits(result.eigenvalue, result.eigenvector, result.converged, result.residual_history)
    for degree in (5, 5, 3, 8, 1):
        power_iterate(companion(poly_with_roots(bench_shaped_roots(rng, 2, degree))))
    assert bits(result.eigenvalue, result.eigenvector, result.converged,
                result.residual_history) == kept == bits(*reference_power_iterate(first))


def test_concurrent_runs_give_the_sequential_bits() -> None:
    rng = random.Random(2318)
    workers = 4  # more threads than the cores of a small box
    batches = [
        [companion(poly_with_roots(bench_shaped_roots(rng, i, 2 + (i + k) % 9)))
         for i in range(12)]
        for k in range(workers)
    ]

    def outcome(F: CompanionMatrix) -> tuple:
        res = power_iterate(F)
        return bits(res.eigenvalue, res.eigenvector, res.converged, res.residual_history)

    expected = [[outcome(F) for F in batch] for batch in batches]
    got: list[list | None] = [None] * workers

    def run(k: int) -> None:
        got[k] = [outcome(F) for F in batches[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_dominant_eigenvalue_of_a_factorable_quadratic() -> None:
    res = power_iterate(companion(MonicPolynomial((2, -3))))  # roots {2, 1}
    assert res.converged
    assert abs(res.eigenvalue - 2) < 1e-8
    assert abs(np.linalg.norm(np.asarray(res.eigenvector)) - 1.0) < 1e-12
    # geometric convergence at ratio |lambda2/lambda1| = 1/2
    assert res.rate_estimate is not None
    assert abs(res.rate_estimate - 0.5) < 0.05


def test_equal_magnitude_pair_never_converges() -> None:
    res = power_iterate(companion(MonicPolynomial((-1, 0))))  # roots {1, -1}
    assert not res.converged
    assert res.iterations == 500
    assert detect_equal_magnitude(res.residual_history) is True


def test_dominant_eigenvalue_of_a_factorable_cubic() -> None:
    res = power_iterate(companion(MonicPolynomial((-6, 11, -6))))  # {1, 2, 3}
    assert res.converged
    assert abs(res.eigenvalue - 3) < 1e-8


def test_converged_result_satisfies_the_eigen_residual_bound() -> None:
    rng = random.Random(23)
    for _ in range(40):
        lam1 = rng.uniform(1.0, 3.0) * random_phase(rng)
        lam2 = rng.uniform(0.3, 0.8) * abs(lam1) * random_phase(rng)
        p = poly_with_roots([lam1, lam2, 0.1 * lam2])
        F = companion(p)
        res = power_iterate(F, tol=1e-10)
        assert res.converged
        matrix = dense(F)
        fro = np.linalg.norm(matrix)
        v = np.asarray(res.eigenvector)
        defect = np.linalg.norm(matrix @ v - res.eigenvalue * v)
        assert defect <= 1e-10 * max(fro, 1.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_iteration_bound_under_the_dominance_hypothesis() -> None:
    rng = random.Random(24)
    tol = 1e-10
    for _ in range(30):
        ratio = rng.uniform(0.3, 0.9)
        lam1 = rng.uniform(0.5, 2.0) * random_phase(rng)
        lam2 = ratio * abs(lam1) * random_phase(rng)
        p = poly_with_roots([lam1, lam2, 0.1 * lam2])
        res = power_iterate(companion(p), max_iters=500, tol=tol)
        assert res.converged
        predicted = math.ceil(math.log(tol) / math.log(ratio)) + 50
        assert res.iterations <= predicted


def test_fitted_rate_tracks_the_eigenvalue_gap() -> None:
    rng = random.Random(25)
    for _ in range(25):
        ratio = rng.uniform(0.3, 0.9)
        lam1 = rng.uniform(0.5, 2.0) * random_phase(rng)
        lam2 = ratio * abs(lam1) * random_phase(rng)
        res = power_iterate(companion(poly_with_roots([lam1, lam2])), tol=1e-10)
        assert res.converged
        assert res.rate_estimate is not None
        assert abs(res.rate_estimate - ratio) <= 0.1 * ratio


def test_rate_estimate_absent_for_very_fast_convergence() -> None:
    res = power_iterate(companion(poly_with_roots([10.0, 0.01])))
    assert res.converged
    assert res.iterations < 10
    assert res.rate_estimate is None


def test_iteration_cap_edges() -> None:
    F = companion(MonicPolynomial((2, -3)))  # t^2 - 3t + 2
    none = power_iterate(F, max_iters=0)  # no step: the start vector e_2
    assert none.iterations == 0
    assert not none.converged
    assert none.eigenvector == (0j, 1 + 0j)
    assert none.residual_history == ()
    one = power_iterate(F, max_iters=1)  # one step: F e_2 = (-2, 3), normalized
    assert one.iterations == 1
    assert not one.converged
    assert np.allclose(np.asarray(one.eigenvector), np.array([-2, 3]) / math.sqrt(13),
                       rtol=0, atol=1e-15)
    # |F e_2 / |F e_2| - e_2| = sqrt(2 - 6/sqrt(13))
    assert len(one.residual_history) == 1
    assert abs(one.residual_history[0] - math.sqrt(2 - 6 / math.sqrt(13))) < 1e-15


def test_zero_start_vector_annihilation_is_signalled() -> None:
    # t^2 annihilates e_2: e_2 is an eigenvector of 0.
    res = power_iterate(companion(MonicPolynomial((0, 0))))
    assert res.eigenvalue == 0 and res.converged
    assert res.iterations == 0


def test_an_underflowing_iterate_is_rescaled_not_read_as_zero() -> None:
    # t^2 + 1e-300: the first iterate (-1e-300, 0) is not zero, though a
    # plain sum of its squares underflows to 0.
    res = power_iterate(companion(MonicPolynomial((1e-300, 0))))
    assert not res.converged and res.iterations == 500
    assert detect_equal_magnitude(res.residual_history)  # roots +-1e-150 i


# --------------------------------------------------- detect_equal_magnitude

def test_detector_examples() -> None:
    osc = power_iterate(companion(MonicPolynomial((-1, 0)))).residual_history
    assert detect_equal_magnitude(osc) is True
    clean = power_iterate(companion(MonicPolynomial((2, -3)))).residual_history
    assert detect_equal_magnitude(clean) is False
    assert detect_equal_magnitude(tuple(0.5 ** k for k in range(20))) is False
    assert detect_equal_magnitude((1.0,) * 3) is False  # shorter than the window


def test_fit_ratio_is_the_slope_numpy_polyfit_fits() -> None:
    rng = random.Random(2600)
    for _ in range(300):
        ratio = rng.uniform(0.2, 1.05)
        history = [rng.uniform(0.01, 10) * ratio ** k * math.exp(rng.gauss(0, 0.3))
                   for k in range(rng.randint(4, 60))]
        usable = [r for r in history if r > 1e-14]
        if len(usable) < 4:
            assert _fit_ratio(history) is None
            continue
        slope = np.polyfit(np.arange(len(usable)), np.log(usable), 1)[0]
        assert abs(_fit_ratio(history) - math.exp(slope)) <= 1e-12 * math.exp(slope)


# -------------------------------------------------- solve_by_power_iteration

def test_full_solve_of_a_factorable_quadratic() -> None:
    report = solve_by_power_iteration(MonicPolynomial((2, -3)))
    assert report.branch_count == 0
    assert report.method == "power-iteration"
    assert report.warnings == ()
    assert abs(report.roots[0] - 2) < 1e-9  # dominance order
    assert abs(report.roots[1] - 1) < 1e-9
    assert max(report.residuals) < 1e-8


def test_modulus_tie_is_flagged_not_silent() -> None:
    # t^3 - t: the zero root comes first, then the pair +-1 ties.
    report = solve_by_power_iteration(MonicPolynomial((0, -1, 0)))
    assert report.warnings == (
        "equal-magnitude dominant eigenvalues at the degree-2 stage; roots[1:3] unconverged",
        _COINCIDENT_ROOTS,
    )


def test_iteration_cap_is_flagged_as_its_own_cause() -> None:
    report = solve_by_power_iteration(MonicPolynomial((-6, 11, -6)), max_iters=5)
    assert report.warnings == (
        "iteration cap reached at the degree-3 stage; roots[0:3] unconverged",
        _COINCIDENT_ROOTS,
        _INACCURATE_ROOTS,
    )
    assert report.per_root_iterations == (5, 5, 5)


def test_polish_stops_where_the_derivative_vanishes() -> None:
    # (t - 1)^2 (t - 2) has p'(1) = 0 exactly, so no step is taken.
    assert _polish(poly_with_roots((1.0, 1.0, 2.0)), 1.0) == 1.0


def test_polish_keeps_z_where_a_scaled_coefficient_overflows() -> None:
    # At z = 1e-200, w = z / 2**s has s near -664, and a1 = 1e200 scaled by
    # 2**664 is beyond the double range: the polish stops instead of raising.
    assert _polish(MonicPolynomial((0, 1e200)), 1e-200) == 1e-200


def test_linear_polynomial_short_circuits() -> None:
    report = solve_by_power_iteration(MonicPolynomial((3 + 4j,)))
    assert report.roots == (-3 - 4j,)
    assert report.per_root_iterations == (0,)
    assert report.warnings == ()


def test_zero_roots_are_deflated_exactly() -> None:
    report = solve_by_power_iteration(MonicPolynomial((0, 0)))  # t^2
    assert report.roots == (0j, -0j) or report.roots == (0j, 0j)
    assert report.warnings == (_COINCIDENT_ROOTS,)
    report = solve_by_power_iteration(MonicPolynomial((0, -1)))  # t^2 - t
    got = sorted(report.roots, key=lambda z: z.real)
    assert abs(got[0]) < 1e-10 and abs(got[1] - 1) < 1e-10


def test_round_trip_against_the_oracle_on_separated_moduli() -> None:
    rng = random.Random(26)
    solved = 0
    while solved < 60:
        degree = rng.randint(2, 6)
        moduli = sorted(
            (rng.uniform(0.2, 3.0) for _ in range(degree)), reverse=True
        )
        if any(hi < 1.05 * lo for hi, lo in zip(moduli, moduli[1:])):
            continue  # needs a strict modulus gap at every stage
        roots = tuple(m * random_phase(rng) for m in moduli)
        p = poly_with_roots(roots)
        report = solve_by_power_iteration(p, tol=1e-12)
        assert report.warnings == ()
        got = np.array(report.roots)[None, :]
        expected = np.array(roots)[None, :]
        assert multiset_max_distance(got, expected)[0] < 1e-6
        assert report.branch_count == 0
        solved += 1


# ------------------------------------------- bits of the reference stage loop

def reference_detect_equal_magnitude(history) -> bool:
    """A frozen copy of the tie detector, with its check for a missing fit."""
    tail = list(history)[-8:]
    if len(tail) < 8 or min(tail) <= 1e-8:
        return False
    ratio = _fit_ratio(tail)
    return ratio is not None and ratio >= 0.95


def reference_solve_by_power_iteration(p, max_iters=500, tol=1e-10) -> RootReport:
    """A frozen copy of the stage loop ``solve_by_power_iteration`` must match
    field for field: the zero roots counted off one by one, then a ``while``
    over the roots still missing, with an exit for none left.  Every root is
    polished on the zero-free input.  It runs ``reference_power_iterate``
    and calls the live ``_polish``, ``deflate`` and ``RootReport.answering``."""
    degree = p.degree
    roots, iters, warnings = [], [], []
    while len(roots) < degree and p.coeffs[len(roots)] == 0:
        roots.append(0j)
        iters.append(0)
    free = MonicPolynomial(p.coeffs[len(roots):]) if len(roots) < degree else None
    current = free
    while True:
        remaining = degree - len(roots)
        if remaining == 0:
            break
        if remaining == 1:
            roots.append(_polish(free, -current.coeffs[0]))
            iters.append(0)
            break
        eigenvalue, _, converged, history = reference_power_iterate(
            companion(current), max_iters=max_iters, tol=tol)
        if not converged:
            if len(history) < max_iters:
                cause = "iterate norm overflowed"
            elif reference_detect_equal_magnitude(history):
                cause = "equal-magnitude dominant eigenvalues"
            else:
                cause = "iteration cap reached"
            warnings.append(
                f"{cause} at the degree-{remaining} stage;"
                f" roots[{len(roots)}:{degree}] unconverged"
            )
            for _ in range(remaining):
                roots.append(eigenvalue)
                iters.append(len(history))
            break
        z = _polish(free, eigenvalue)
        roots.append(z)
        iters.append(len(history))
        current = deflate(current, z)
    return RootReport.answering(
        p,
        roots=tuple(roots),
        branch_count=0,
        method="power-iteration",
        per_root_iterations=tuple(iters),
        warnings=tuple(warnings),
    )


def report_bits(report: RootReport) -> tuple:
    """Every field of a report, each float spelled exactly."""
    return (
        tuple(spelled(z) for z in report.roots),
        tuple(r.hex() for r in report.residuals),
        report.branch_count,
        report.method,
        report.per_root_iterations,
        report.warnings,
    )


@pytest.mark.parametrize("max_iters", [500, 5, 1])
def test_stage_loop_keeps_the_fields_of_the_reference_loop(max_iters) -> None:
    rng = random.Random(1400 + max_iters)
    inputs = [
        MonicPolynomial((0j, 0j)),  # exact zero roots only
        MonicPolynomial((0j, 0j, 2, -3)),  # two exact zero roots, then 1 and 2
        poly_with_roots((2.0 ** -519, 2.0 ** -521)),
        MonicPolynomial((1.5e308, 1.5e308)),  # the iterate's norm overflows
        MonicPolynomial((1, 1, 1e200)),  # a root of modulus 1e200 leads
    ]
    inputs += [
        poly_with_roots(bench_shaped_roots(rng, i, degree=rng.randint(1, 8)))
        for i in range(160)
    ]
    assert {p.degree for p in inputs} == set(range(1, 9))
    assert solve_by_power_iteration(inputs[3]).warnings[0].startswith("iterate norm overflowed")
    for p in inputs:
        assert report_bits(solve_by_power_iteration(p, max_iters=max_iters)) == report_bits(
            reference_solve_by_power_iteration(p, max_iters=max_iters)
        ), p
