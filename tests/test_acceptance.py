"""Acceptance gate for the package: nine checks, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each check prints ``[acceptance N] PASS/FAIL — detail`` before asserting, so
a red check still reports its measured numbers.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import polybranch
from polybranch import (
    BranchTrace,
    MonicPolynomial,
    NewtonConfig,
    companion,
    escape_times,
    max_cup_length,
    pairs_within_weight,
    power_iterate,
    render,
    roots_to_poly,
    rotated_frame,
    sector_seed,
    sector_statistics,
    smale_bound,
    solve_by_power_iteration,
    solve_cubic,
    solve_pure_power,
    solve_quadratic,
    solve_quartic,
    verify_lemma_claim,
)
from oracles import durand_kerner_batch, min_pairwise_separation, multiset_max_distance

TIGHT = NewtonConfig(threshold_r=1e-8)
SOLVERS = {2: solve_quadratic, 3: solve_cubic, 4: solve_quartic}
SUITE_SIZE = 10000
SEPARATION = 0.05
# The directory that holds the imported package.  Children get it as an
# absolute PYTHONPATH entry, so they import the same code whatever their cwd.
PACKAGE_ROOT = str(Path(polybranch.__file__).resolve().parents[1])


def verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status} — {detail}")
    assert ok, f"acceptance {number}: {detail}"


def run_cli(*args, cwd=None, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "polybranch", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def disk_rows(rng: np.random.Generator, count: int, degree: int) -> np.ndarray:
    rows = np.empty((count, degree), dtype=np.complex128)
    filled = 0
    while filled < count:
        cand = rng.uniform(-10, 10, (count, degree)) + 1j * rng.uniform(-10, 10, (count, degree))
        keep = cand[(np.abs(cand) <= 10).all(axis=1)][: count - filled]
        rows[filled : filled + keep.shape[0]] = keep
        filled += keep.shape[0]
    return rows


def polynomial_residuals(rows: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|f(root)| for every row/root pair; rows hold ascending coefficients."""
    acc = np.ones_like(roots)
    for k in range(rows.shape[1] - 1, -1, -1):
        acc = acc * roots + rows[:, k][:, np.newaxis]
    return np.abs(acc)


@pytest.fixture(scope="module")
def closed_form_suite():
    """10,000 separated random polynomials per degree 2-4, solved and traced."""
    rng = np.random.default_rng(1001)
    data = {}
    solve_seconds = 0.0
    for degree in (2, 3, 4):
        rows = disk_rows(rng, 14000, degree)
        oracle = durand_kerner_batch(rows)
        keep = min_pairwise_separation(oracle) > SEPARATION
        rows = rows[keep][:SUITE_SIZE]
        oracle = oracle[keep][:SUITE_SIZE]
        assert rows.shape[0] == SUITE_SIZE
        solver = SOLVERS[degree]
        found = np.empty_like(oracle)
        branch_low, branch_high = math.inf, 0
        start = time.perf_counter()
        for i, row in enumerate(rows):
            trace = BranchTrace()
            found[i] = solver(*row[::-1], TIGHT, trace)
            branch_low = min(branch_low, trace.branch_count)
            branch_high = max(branch_high, trace.branch_count)
        solve_seconds += time.perf_counter() - start
        data[degree] = {
            "rows": rows,
            "oracle": oracle,
            "found": found,
            "branch_low": int(branch_low),
            "branch_high": branch_high,
        }
    data["solve_seconds"] = solve_seconds
    return data


@pytest.fixture(scope="module")
def pure_power_suite():
    """10,000 random right-hand sides per degree 2-16 for t**d - S."""
    rng = np.random.default_rng(1002)
    data = {}
    solve_seconds = 0.0
    for d in range(2, 17):
        # Roots of t**d - S sit 2|S|^(1/d) sin(pi/d) apart; keep the suite
        # on the separated side of the 0.05 filter.
        min_modulus = (SEPARATION / (2 * math.sin(math.pi / d))) ** d
        values = np.empty(SUITE_SIZE, dtype=np.complex128)
        filled = 0
        while filled < SUITE_SIZE:
            cand = rng.uniform(-10, 10, SUITE_SIZE) + 1j * rng.uniform(-10, 10, SUITE_SIZE)
            cand = cand[(np.abs(cand) <= 10) & (np.abs(cand) > min_modulus)]
            cand = cand[: SUITE_SIZE - filled]
            values[filled : filled + cand.shape[0]] = cand
            filled += cand.shape[0]
        found = np.empty((SUITE_SIZE, d), dtype=np.complex128)
        branch_high = 0
        start = time.perf_counter()
        for i, S in enumerate(values):
            trace = BranchTrace()
            found[i] = solve_pure_power(d, complex(S), config=TIGHT, trace=trace)
            branch_high = max(branch_high, trace.branch_count)
        solve_seconds += time.perf_counter() - start
        data[d] = {"values": values, "found": found, "branch_high": branch_high}
    data["solve_seconds"] = solve_seconds
    return data


@pytest.fixture(scope="module")
def rate_suite():
    """50 constructed companion problems with known second-to-first ratio."""
    rng = np.random.default_rng(1003)
    cases = []
    while len(cases) < 50:
        ratio = float(rng.uniform(0.3, 0.9))
        phase1, phase2 = np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
        lam1 = float(rng.uniform(0.5, 2.0)) * phase1
        lam2 = ratio * abs(lam1) * phase2
        cases.append((ratio, roots_to_poly((complex(lam1), complex(lam2)))))
    return cases


def test_acceptance_1_branch_count_budgets(closed_form_suite, pure_power_suite):
    problems = []
    if closed_form_suite[2]["branch_low"] != 1 or closed_form_suite[2]["branch_high"] != 1:
        problems.append(
            f"quadratic branches in [{closed_form_suite[2]['branch_low']}, "
            f"{closed_form_suite[2]['branch_high']}], want exactly 1"
        )
    if closed_form_suite[3]["branch_high"] > 5:
        problems.append(f"cubic worst {closed_form_suite[3]['branch_high']} > 5")
    if closed_form_suite[4]["branch_high"] > 7:
        problems.append(f"quartic worst {closed_form_suite[4]['branch_high']} > 7")
    power_worst = {d: pure_power_suite[d]["branch_high"] for d in range(2, 17)}
    over = {d: n for d, n in power_worst.items() if n > d}
    if over:
        problems.append(f"pure-power budget exceeded: {over}")
    elapsed = closed_form_suite["solve_seconds"] + pure_power_suite["solve_seconds"]
    if elapsed >= 60:
        problems.append(f"solve time {elapsed:.1f}s >= 60s")
    detail = (
        f"worst branches quad {closed_form_suite[2]['branch_high']}, "
        f"cubic {closed_form_suite[3]['branch_high']}, "
        f"quartic {closed_form_suite[4]['branch_high']}, "
        f"pure-power max over degrees {max(power_worst.values())} (each <= its d); "
        f"{18 * SUITE_SIZE} solves in {elapsed:.1f}s"
    )
    verdict(1, not problems, "; ".join(problems) or detail)


def test_acceptance_2_lower_bound_chain(closed_form_suite):
    problems = []
    for degree in (2, 3, 4):
        bound = smale_bound(degree)
        measured = closed_form_suite[degree]["branch_high"]
        if not measured > bound:
            problems.append(f"degree {degree}: measured {measured} <= bound {bound:.4f}")
    if smale_bound(2) != 0.0:
        problems.append(f"smale_bound(2) = {smale_bound(2)!r}, want exactly 0.0")
    if closed_form_suite[2]["branch_high"] != 1:
        problems.append("quadratic is not the 1-branch minimal witness")
    detail = (
        "measured > bound for degrees 2-4 "
        f"({closed_form_suite[2]['branch_high']} > 0.0 exactly, "
        f"{closed_form_suite[3]['branch_high']} > {smale_bound(3):.4f}, "
        f"{closed_form_suite[4]['branch_high']} > {smale_bound(4):.4f}); "
        "the single quadratic branch meets the bound's floor"
    )
    verdict(2, not problems, "; ".join(problems) or detail)


def test_acceptance_3_root_accuracy(closed_form_suite, pure_power_suite):
    problems = []
    worst_residual = 0.0
    worst_mismatch = 0.0
    for degree in (2, 3, 4):
        entry = closed_form_suite[degree]
        scale = np.maximum(1.0, np.abs(entry["rows"]).max(axis=1))
        rel = polynomial_residuals(entry["rows"], entry["found"]).max(axis=1) / scale
        worst_residual = max(worst_residual, float(rel.max()))
        if rel.max() >= 1e-6:
            problems.append(f"degree {degree} residual {rel.max():.2e} >= 1e-6")
        mismatch = float(multiset_max_distance(entry["found"], entry["oracle"]).max())
        worst_mismatch = max(worst_mismatch, mismatch)
        if mismatch >= 1e-4:
            problems.append(f"degree {degree} oracle mismatch {mismatch:.2e} >= 1e-4")
    for d in range(2, 17):
        entry = pure_power_suite[d]
        S = entry["values"]
        scale = np.maximum(1.0, np.abs(S))
        rel = np.abs(entry["found"] ** d - S[:, np.newaxis]).max(axis=1) / scale
        worst_residual = max(worst_residual, float(rel.max()))
        if rel.max() >= 1e-6:
            problems.append(f"t^{d} - S residual {rel.max():.2e} >= 1e-6")
        coeffs = np.zeros((SUITE_SIZE, d), dtype=np.complex128)
        coeffs[:, 0] = -S
        mismatch = float(
            multiset_max_distance(entry["found"], durand_kerner_batch(coeffs)).max()
        )
        worst_mismatch = max(worst_mismatch, mismatch)
        if mismatch >= 1e-4:
            problems.append(f"t^{d} - S oracle mismatch {mismatch:.2e} >= 1e-4")
    detail = (
        f"worst scaled residual {worst_residual:.2e} < 1e-6, "
        f"worst oracle multiset distance {worst_mismatch:.2e} < 1e-4 "
        f"over {18 * SUITE_SIZE} solves"
    )
    verdict(3, not problems, "; ".join(problems) or detail)


def test_acceptance_4_escape_grids_and_sector_contrast():
    problems = []
    start = time.perf_counter()
    render(2, seed=1 + 0j, resolution=(512, 512), workers=8)
    render(3, seed=sector_seed(3, 1), resolution=(512, 512), workers=8)
    elapsed = time.perf_counter() - start
    if elapsed >= 5:
        problems.append(f"two 512x512 renders took {elapsed:.2f}s >= 5s at 8 workers")
    home_low = 1.0
    away_high = 0.0
    away_mean_ratio = math.inf
    for d in (2, 3, 5):
        grid = render(d, seed=1 + 0j, resolution=(256, 256), workers=8)
        stats = sector_statistics(grid, min_modulus=0.5, max_modulus=2.0)
        home = next(s for s in stats if s["sector"] == 0)
        away = [s for s in stats if s["sector"] != 0]
        home_low = min(home_low, home["converged_fraction"])
        away_high = max(away_high, max(s["converged_fraction"] for s in away))
        away_mean_ratio = min(
            away_mean_ratio,
            min(s["mean_iterations"] for s in away) / home["mean_iterations"],
        )
    if home_low < 0.99:
        problems.append(f"home-sector fraction {home_low:.4f} < 0.99")
    if away_high > 0.6:
        problems.append(
            f"non-home fraction {away_high:.4f} > 0.6: with convergence measured "
            "to the nearest root, every sector's cells converge (fraction 1.0) and "
            f"the seed preference shows up as iteration cost instead (non-home mean "
            f">= {away_mean_ratio:.1f}x home mean on the same annulus)"
        )
    detail = (
        f"512x512 pair in {elapsed:.2f}s; home fraction >= {home_low:.4f}; "
        f"non-home fraction {away_high:.4f}"
    )
    verdict(4, not problems, "; ".join(problems) or detail)


def test_acceptance_5_rotation_equivariance():
    problems = []
    grid = render(3, seed=1 + 0j, resolution=(64, 64))
    centers = grid.cell_centers()
    for k in (1, 2):
        sector_grid = render(3, resolution=(64, 64), sector=k)
        exact_iters, exact_conv = escape_times(
            3, np.asarray(rotated_frame(3, centers, k)), 1 + 0j
        )
        if not (
            np.array_equal(sector_grid.iterations, exact_iters)
            and np.array_equal(sector_grid.converged, exact_conv)
        ):
            diff = int(np.count_nonzero(sector_grid.iterations != exact_iters))
            problems.append(f"analytic rotation k={k}: {diff} cells differ")
        float_iters, float_conv = escape_times(3, centers, sector_seed(3, k))
        within = np.abs(float_iters.astype(int) - exact_iters.astype(int)) <= 1
        share = float(np.count_nonzero(within & (float_conv == exact_conv))) / within.size
        if share < 0.999:
            problems.append(f"floating rotation k={k}: only {share:.4%} within +-1")
    detail = "analytic frame exact on 64x64 for k=1,2; floating seed within +-1 everywhere"
    verdict(5, not problems, "; ".join(problems) or detail)


def test_acceptance_6_power_iteration_rate(rate_suite):
    problems = []
    tol = 1e-10
    worst_rel = 0.0
    for ratio, poly in rate_suite:
        res = power_iterate(companion(poly), max_iters=500, tol=tol)
        if not res.converged:
            problems.append(f"ratio {ratio:.3f}: did not converge")
            continue
        predicted = math.ceil(math.log(tol) / math.log(ratio)) + 50
        if res.iterations > predicted:
            problems.append(
                f"ratio {ratio:.3f}: {res.iterations} iterations > predicted {predicted}"
            )
        if res.rate_estimate is None:
            problems.append(f"ratio {ratio:.3f}: no fitted rate")
            continue
        rel = abs(res.rate_estimate - ratio) / ratio
        worst_rel = max(worst_rel, rel)
        if rel > 0.10:
            problems.append(f"ratio {ratio:.3f}: fitted {res.rate_estimate:.3f}, off {rel:.1%}")
    detail = (
        f"50 constructed ratios in [0.3, 0.9]: worst fit error {worst_rel:.1%} <= 10%, "
        "iteration counts all within ceil(log tol / log ratio) + 50"
    )
    verdict(6, not problems, "; ".join(problems) or detail)


def test_acceptance_7_equal_magnitude_detection(rate_suite):
    problems = []
    for label, coeffs in (("t^2 - 1", (-1 + 0j, 0j)), ("t^2 + 1", (1 + 0j, 0j))):
        res = power_iterate(companion(MonicPolynomial(coeffs)), max_iters=300)
        if res.converged:
            problems.append(f"{label}: silently claimed convergence")
        report = solve_by_power_iteration(MonicPolynomial(coeffs))
        if not any("equal-magnitude" in w for w in report.warnings):
            problems.append(f"{label}: tie not flagged in warnings {report.warnings!r}")
    false_flags = 0
    for _, poly in rate_suite:
        report = solve_by_power_iteration(poly, tol=1e-12)
        if any("equal-magnitude" in w for w in report.warnings):
            false_flags += 1
    if false_flags:
        problems.append(f"{false_flags} false flags on the separated suite")
    detail = "both modulus ties flagged, never mis-converged; 0 false flags on 50 separated cases"
    verdict(7, not problems, "; ".join(problems) or detail)


def test_acceptance_8_cup_length_counting():
    problems = []
    bad_counts = [n for n in range(1, 1001) if pairs_within_weight(n) != n * (n + 1) // 2]
    if bad_counts:
        problems.append(f"pair count wrong for weights {bad_counts[:5]}")

    def exhaustive_best(budget: int) -> int:
        # 0/1 knapsack over the generator pairs of weight <= budget (weight w
        # appears w times), maximizing cardinality under the weight budget.
        best = [0] * (budget + 1)
        for item in (w for w in range(1, budget + 1) for _ in range(w)):
            for b in range(budget, item - 1, -1):
                best[b] = max(best[b], best[b - item] + 1)
        return best[budget]

    for budget in range(1, 21):
        cert = max_cup_length(2**budget)
        if cert.cardinality != exhaustive_best(budget):
            problems.append(
                f"budget {budget}: greedy {cert.cardinality} != exhaustive {exhaustive_best(budget)}"
            )
    if smale_bound(256) != 3.0:
        problems.append(f"smale_bound(256) = {smale_bound(256)!r}, want exactly 3.0")
    failing = [j for j in range(1, 61) if not verify_lemma_claim(2**j)]
    if failing:
        problems.append(
            f"claimed inequality fails for {len(failing)}/60 powers of two "
            f"(j={failing}): the best pair selection under an integer budget "
            f"of j stays below j^(2/3) at each of them, from j={failing[0]} "
            f"to j={failing[-1]}"
        )
    detail = (
        "pair counts match N(N+1)/2 to 1000; greedy matches exhaustive search "
        "for budgets 1-20; smale_bound(256) == 3.0 exactly; claimed inequality "
        "holds for all 60 powers of two"
    )
    verdict(8, not problems, "; ".join(problems) or detail)


def test_acceptance_9_byte_deterministic_commands(tmp_path):
    problems = []

    def check(label, *args, uses_files=(), cwd=None):
        captures = []
        for _ in range(3):
            proc = run_cli(*args, cwd=cwd)
            files = tuple(path.read_bytes() if path.exists() else None for path in uses_files)
            captures.append((proc.returncode, proc.stdout, proc.stderr, files))
        if not captures[0] == captures[1] == captures[2]:
            problems.append(f"{label}: outputs differ across repeats")
        return captures[0]

    check("solve closed-form", "solve", "--coeffs=-1,0")
    check("solve pure-power", "solve", "--pure-power", "--d", "5", "--S", "3,4")
    ppm = tmp_path / "grid.ppm"
    pgm = tmp_path / "grid.pgm"
    check(
        "fractal",
        "fractal",
        "--d",
        "3",
        "--seed",
        "0.77,0.64",
        "--out",
        str(ppm),
        "--pgm",
        str(pgm),
        "--resolution",
        "48x48",
        uses_files=(ppm, pgm),
    )
    check("bound", "bound", "--degrees", "2,3", "--samples", "30", "--rng-seed", "5")
    code, _, stderr, _ = check("verify (usage failure path)", "verify", cwd=tmp_path)
    if code != 1 or "run from a source checkout" not in stderr:
        problems.append(f"verify (usage failure path): exit {code}, stderr {stderr.strip()!r}")
    detail = "solve/fractal/bound/verify byte-identical across reruns"
    verdict(9, not problems, "; ".join(problems) or detail)
