"""Tests for companion-matrix power iteration and its failure detector."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from polybranch import (
    CompanionMatrix,
    MonicPolynomial,
    ZeroEigenvalueError,
    companion,
    detect_equal_magnitude,
    power_iterate,
    roots_to_poly,
    solve_by_power_iteration,
)
from oracles import durand_kerner, multiset_max_distance


def poly_with_roots(roots) -> MonicPolynomial:
    return roots_to_poly(tuple(roots))


def dense(F: CompanionMatrix) -> np.ndarray:
    """The d x d array F stands for: subdiagonal ones, last column -coeffs."""
    d = F.dimension
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


def test_structured_apply_matches_dense_product() -> None:
    rng = np.random.default_rng(22)
    for _ in range(50):
        degree = int(rng.integers(1, 8))
        coeffs = tuple(rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
        F = companion(MonicPolynomial(coeffs))
        v = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        assert np.allclose(F.apply(v), dense(F) @ v, atol=1e-12)
    with pytest.raises(ValueError):
        companion(MonicPolynomial((1, 0))).apply(np.ones(3))


# ------------------------------------------------------------- power_iterate

def test_dominant_eigenvalue_of_a_factorable_quadratic() -> None:
    res = power_iterate(companion(MonicPolynomial((2, -3))))  # roots {2, 1}
    assert res.converged
    assert abs(res.eigenvalue - 2) < 1e-8
    assert abs(np.linalg.norm(res.eigenvector) - 1.0) < 1e-12
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
        defect = np.linalg.norm(matrix @ res.eigenvector - res.eigenvalue * res.eigenvector)
        assert defect <= 1e-10 * max(fro, 1.0)
        assert abs(np.linalg.norm(res.eigenvector) - 1.0) < 1e-12


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
    assert np.array_equal(none.eigenvector, np.array([0, 1], dtype=complex))
    assert none.residual_history == ()
    one = power_iterate(F, max_iters=1)  # one step: F e_2 = (-2, 3), normalized
    assert one.iterations == 1
    assert not one.converged
    assert np.allclose(one.eigenvector, np.array([-2, 3]) / math.sqrt(13), rtol=0, atol=1e-15)
    # |F e_2 / |F e_2| - e_2| = sqrt(2 - 6/sqrt(13))
    assert len(one.residual_history) == 1
    assert abs(one.residual_history[0] - math.sqrt(2 - 6 / math.sqrt(13))) < 1e-15


def test_zero_start_vector_annihilation_is_signalled() -> None:
    with pytest.raises(ZeroEigenvalueError):
        power_iterate(companion(MonicPolynomial((0, 0))))  # t^2 annihilates e_2


def test_an_underflowing_iterate_is_rescaled_not_read_as_zero() -> None:
    # t^2 + 1e-300: the first iterate (-1e-300, 0) is not zero, but the sum of
    # squares inside its norm underflows to 0.
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
    report = solve_by_power_iteration(MonicPolynomial((0, -1, 0)))  # t^3 - t
    assert len(report.warnings) == 1
    assert "equal-magnitude" in report.warnings[0]
    assert "unconverged" in report.warnings[0]


def test_linear_polynomial_short_circuits() -> None:
    report = solve_by_power_iteration(MonicPolynomial((3 + 4j,)))
    assert report.roots == (-3 - 4j,)
    assert report.per_root_iterations == (0,)
    assert report.warnings == ()


def test_zero_roots_are_deflated_exactly() -> None:
    report = solve_by_power_iteration(MonicPolynomial((0, 0)))  # t^2
    assert report.roots == (0j, -0j) or report.roots == (0j, 0j)
    assert report.warnings == ()
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
