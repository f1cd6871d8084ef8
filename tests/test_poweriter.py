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
    deflate,
    detect_equal_magnitude,
    power_iterate,
    roots_to_poly,
    solve_by_power_iteration,
)
from polybranch.powiter import _fit_ratio, _polish
from polybranch.report import RootReport
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


def reference_apply(F: CompanionMatrix, v: np.ndarray) -> np.ndarray:
    """The structured product with the coefficient column converted on every
    call; ``apply`` must match it byte for byte."""
    v = np.asarray(v, dtype=np.complex128)
    out = np.empty_like(v)
    last = v[-1]
    out[0] = -F.coeffs[0] * last
    if F.dimension > 1:
        out[1:] = v[:-1]
        out[1:] -= np.asarray(F.coeffs[1:], dtype=np.complex128) * last
    return out


def test_structured_apply_keeps_the_bits_of_the_per_call_column() -> None:
    rng = np.random.default_rng(27)
    for _ in range(200):
        degree = int(rng.integers(1, 9))
        coeffs = tuple(rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
        F = companion(MonicPolynomial(coeffs))
        v = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        assert F.apply(v).tobytes() == reference_apply(F, v).tobytes()


# ------------------------------------------------------------- power_iterate

def reference_power_iterate(F: CompanionMatrix, max_iters: int = 500, tol: float = 1e-10):
    """A frozen copy of the loop ``power_iterate`` must reproduce bit for bit:
    ``np.linalg.norm`` for every norm, the per-call column product, and the
    Rayleigh quotient and eigen-residual at every step."""
    d = F.dimension
    parts = [x for c in F.coeffs for x in (c.real, c.imag)]
    fro = math.hypot(*parts, *[1.0] * (d - 1))
    b = np.zeros(d, dtype=np.complex128)
    b[-1] = 1.0
    w = reference_apply(F, b)
    history: list[float] = []
    lam = 0j
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            norm_w = float(np.linalg.norm(w))
            if not math.isfinite(norm_w):
                break
            if norm_w < 2.0 ** -511:
                peak = float(np.max(np.abs(w.view(np.float64))))
                if peak == 0.0:
                    raise ZeroEigenvalueError()
                w = np.ldexp(w.view(np.float64), -math.frexp(peak)[1]).view(np.complex128)
                norm_w = float(np.linalg.norm(w))
            b_new = w / norm_w
            inner = complex(np.vdot(b, b_new))
            phase = inner / abs(inner) if abs(inner) > 0 else 1.0 + 0j
            step = float(np.linalg.norm(b_new - phase * b))
            w = reference_apply(F, b_new)
            lam = complex(np.vdot(b_new, w))
            eig_res = float(np.linalg.norm(w - lam * b_new))
            history.append(step)
            b = b_new
            converged = step < tol and eig_res <= tol * max(fro, 1.0)
            if converged:
                break
    return lam, b, converged, tuple(history)


def bits(eigenvalue: complex, eigenvector: np.ndarray, converged: bool, history) -> tuple:
    """A run's outcome with every float spelled exactly, signed zeros included."""
    return (
        (eigenvalue.real.hex(), eigenvalue.imag.hex()),
        eigenvector.tobytes(),
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
            current = deflate(current, eigenvalue)[0]


def test_power_iterate_keeps_the_bits_of_the_reference_loop_at_the_edges() -> None:
    assert_same_bits(companion(MonicPolynomial((1e-300, 0))))  # underflow rescale
    assert_same_bits(companion(MonicPolynomial((1e200, 0))))  # overflow break
    for max_iters in (0, 1):
        assert_same_bits(companion(MonicPolynomial((2, -3))), max_iters=max_iters)
    # 1x1 companions, where ||F|| = |a0| may lie far below the reference's floor of 1
    for a0 in (0.3, -1e-200, 2.5 + 1j, 1e-5j, 7):
        F = companion(MonicPolynomial((a0,)))
        assert abs(assert_same_bits(F) + a0) <= 1e-15 * abs(a0)
        assert power_iterate(F).converged
    for run in (power_iterate, reference_power_iterate):
        with pytest.raises(ZeroEigenvalueError):
            run(companion(MonicPolynomial((0, 0))))


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


def test_iteration_cap_is_flagged_as_its_own_cause() -> None:
    report = solve_by_power_iteration(MonicPolynomial((-6, 11, -6)), max_iters=5)
    assert report.warnings == (
        "iteration cap reached at the degree-3 stage; roots[0:3] unconverged",
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
    field for field: a ``while`` over the roots still missing, with an exit
    for none left.  It calls the live ``power_iterate``, ``_polish`` and
    ``deflate``."""
    degree = p.degree
    roots, iters, warnings = [], [], []
    current = p
    while True:
        remaining = degree - len(roots)
        if remaining == 0:
            break
        if remaining == 1:
            roots.append(-current.coeffs[0])
            iters.append(0)
            break
        try:
            res = power_iterate(companion(current), max_iters=max_iters, tol=tol)
        except ZeroEigenvalueError:
            roots.append(0j)
            iters.append(0)
            current = deflate(current, 0j)[0]
            continue
        if not res.converged:
            if res.iterations < max_iters:
                cause = "iterate norm overflowed"
            elif reference_detect_equal_magnitude(res.residual_history):
                cause = "equal-magnitude dominant eigenvalues"
            else:
                cause = "iteration cap reached"
            warnings.append(
                f"{cause} at the degree-{remaining} stage;"
                f" roots[{len(roots)}:{degree}] unconverged"
            )
            for _ in range(remaining):
                roots.append(res.eigenvalue)
                iters.append(res.iterations)
            break
        z = _polish(current, res.eigenvalue)
        roots.append(z)
        iters.append(res.iterations)
        current = deflate(current, z)[0]
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
        tuple((z.real.hex(), z.imag.hex()) for z in report.roots),
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
        MonicPolynomial((0j, 0j)),  # an exact zero eigenvalue
        poly_with_roots((2.0 ** -519, 2.0 ** -521)),
        MonicPolynomial((0j, 0j, 1e200)),  # the iterate's norm overflows
    ]
    inputs += [
        poly_with_roots(bench_shaped_roots(rng, i, degree=rng.randint(1, 8)))
        for i in range(160)
    ]
    assert {p.degree for p in inputs} == set(range(1, 9))
    for p in inputs:
        assert report_bits(solve_by_power_iteration(p, max_iters=max_iters)) == report_bits(
            reference_solve_by_power_iteration(p, max_iters=max_iters)
        ), p
