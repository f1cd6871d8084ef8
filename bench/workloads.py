"""The four benchmark workloads: inputs from a seed, one timed call per
operation, and the checks that decide whether an operation failed.

Every workload has the same shape.  ``ops`` is one cycle of operations,
replayed until the timed section is over.  ``run(op)`` is the timed call
into the program.  ``observe(op, result)`` turns its result into a
comparable record outside the timed section; every execution of an
operation must give the record its first execution gave.
``check(records)`` judges those first records against independent oracles
and returns, per operation index, what is wrong with it; an optional
``verify(op, result)`` does the checks that need the live result, once per
operation.

Why these four: ``radicals`` is the scalar Newton/closed-form traffic of
``bound`` and the acceptance suite; ``escape_grid`` uses the vectorized
Newton kernel and the image writers instead; ``power_iteration`` is the
only workload that calls ``powiter`` more than once; ``cli_cold`` is the
only one whose timed path includes interpreter start-up and imports.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from polybranch import cli, closedform, fractal, newton, powiter
from polybranch.newton import NewtonConfig
from polybranch.poly import MonicPolynomial
from polybranch.tracing import BranchTrace

from oracles import durand_kerner_batch, min_pairwise_separation, multiset_max_distance

TIGHT = NewtonConfig(threshold_r=1e-8)
SEPARATION = 0.05
RESIDUAL_TOL = 1e-6
ORACLE_TOL = 1e-4
CLI_TIMEOUT_S = 60.0
# Decisions a solve may record (acceptance 1); pure power may spend up to d.
BRANCH_BUDGET = {2: 1, 3: 5, 4: 7}


def disk_values(rng: np.random.Generator, count: int, width: int = 1) -> np.ndarray:
    """(count, width) complex values, each row wholly inside |a| <= 10."""
    out = np.empty((count, width), dtype=np.complex128)
    filled = 0
    while filled < count:
        cand = rng.uniform(-10, 10, (count, width)) + 1j * rng.uniform(-10, 10, (count, width))
        keep = cand[(np.abs(cand) <= 10).all(axis=1)][: count - filled]
        out[filled : filled + keep.shape[0]] = keep
        filled += keep.shape[0]
    return out


def separated_rows(rng: np.random.Generator, count: int, degree: int):
    """Acceptance-1 inputs: disk coefficients whose oracle roots are > 0.05 apart."""
    rows = np.empty((0, degree), dtype=np.complex128)
    oracle = np.empty((0, degree), dtype=np.complex128)
    while rows.shape[0] < count:
        cand = disk_values(rng, 2 * count, degree)
        roots = durand_kerner_batch(cand)
        keep = min_pairwise_separation(roots) > SEPARATION
        rows = np.concatenate([rows, cand[keep]])
        oracle = np.concatenate([oracle, roots[keep]])
    return rows[:count], oracle[:count]


def poly_residuals(rows: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """max |f(root)| / max(1, max |a|) per row; rows hold ascending coefficients."""
    acc = np.ones_like(roots)
    for k in range(rows.shape[1] - 1, -1, -1):
        acc = acc * roots + rows[:, k][:, np.newaxis]
    scale = np.maximum(1.0, np.abs(rows).max(axis=1))
    return np.abs(acc).max(axis=1) / scale


def pure_power_oracle(d: int, S: np.ndarray) -> np.ndarray:
    """Roots of t**d = S.  Durand-Kerner covers d <= 16 as in acceptance 3;
    from its start circle it overflows at d = 64, so larger d use the
    closed form |S|**(1/d) exp(i (arg S + 2 pi k) / d)."""
    if d <= 16:
        coeffs = np.zeros((S.size, d), dtype=np.complex128)
        coeffs[:, 0] = -S
        return durand_kerner_batch(coeffs)
    k = np.arange(d)
    angle = (np.angle(S)[:, np.newaxis] + 2 * np.pi * k[np.newaxis, :]) / d
    return (np.abs(S) ** (1.0 / d))[:, np.newaxis] * np.exp(1j * angle)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def file_digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


class Radicals:
    """Traced closed-form solves (degrees 2-4) and pure powers (d = 16, 64).

    One operation is one polynomial, drawn from a shuffled mix with equal
    shares of the five classes and solved with threshold_r = 1e-8.
    """

    name = "radicals"
    # p99.9 would leave ~300 samples beyond it, but it follows host interrupts
    # and collector pauses: 0.18 quartile spread over five seeds, against
    # 0.03 for p99, which sits inside the d = 64 class.
    tail = 99.0
    min_ops = 2000  # ten samples beyond the tail percentile
    per_class = 1000
    warm_up_ops = None  # the whole cycle

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = rng_for(seed, 1)
        self.rows: dict[str, np.ndarray] = {}
        self.oracle: dict[str, np.ndarray] = {}
        ops = []
        solvers = {2: closedform.solve_quadratic, 3: closedform.solve_cubic,
                   4: closedform.solve_quartic}
        for degree, fn in solvers.items():
            cls = ("quadratic", "cubic", "quartic")[degree - 2]
            rows, roots = separated_rows(rng, self.per_class, degree)
            self.rows[cls], self.oracle[cls] = rows, roots
            ops += [(cls, i, fn, tuple(complex(c) for c in row[::-1]))
                    for i, row in enumerate(rows)]
        for d in (16, 64):
            cls = f"pure_power_d{d}"
            min_modulus = (SEPARATION / (2 * math.sin(math.pi / d))) ** d
            values = disk_values(rng, 2 * self.per_class)[:, 0]
            values = values[np.abs(values) > min_modulus][: self.per_class]
            self.rows[cls] = values
            self.oracle[cls] = pure_power_oracle(d, values)
            ops += [(cls, i, newton.solve_pure_power, (d, complex(S)))
                    for i, S in enumerate(values)]
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

    def span_name(self, op) -> str:
        return "newton.solve_pure_power" if op[0].startswith("pure") else "closedform.solve"

    def run(self, op):
        trace = BranchTrace()
        return op[2](*op[3], TIGHT, trace), trace

    def observe(self, op, result):
        roots, trace = result
        return tuple(roots), trace.branch_count, trace.computation_count

    def check(self, records: dict) -> dict[int, str]:
        problems: dict[int, str] = {}
        by_class: dict[str, list] = {}
        for index, record in records.items():
            cls, row = self.ops[index][:2]
            by_class.setdefault(cls, []).append((index, row, record))
        for cls, all_items in by_class.items():
            for start in range(0, len(all_items), 100):  # bounds the (n, d, d) arrays
                problems.update(self._check_class(cls, all_items[start : start + 100]))
        return problems

    def _check_class(self, cls: str, items: list) -> dict[int, str]:
        problems = {}
        index = [i for i, _, _ in items]
        rows = [r for _, r, _ in items]
        found = np.array([rec[0] for _, _, rec in items], dtype=np.complex128)
        branches = np.array([rec[1] for _, _, rec in items])
        if cls.startswith("pure_power"):
            d = int(cls.rsplit("d", 1)[1])
            S = self.rows[cls][rows]
            residual = (np.abs(found ** d - S[:, np.newaxis]).max(axis=1)
                        / np.maximum(1.0, np.abs(S)))
            budget = d
        else:
            coeffs = self.rows[cls][rows]
            residual = poly_residuals(coeffs, found)
            budget = BRANCH_BUDGET[coeffs.shape[1]]
        distance = multiset_max_distance(found, self.oracle[cls][rows])
        exact = cls == "quadratic"
        for j, i in enumerate(index):
            if not residual[j] < RESIDUAL_TOL:
                problems[i] = f"{cls}: scaled residual {residual[j]:.2e}"
            elif not distance[j] < ORACLE_TOL:
                problems[i] = f"{cls}: oracle distance {distance[j]:.2e}"
            elif branches[j] > budget or (exact and branches[j] != budget):
                problems[i] = f"{cls}: {branches[j]} branches, budget {budget}"
        return problems


class EscapeGrid:
    """512 x 512 escape-time frames, each rendered, written as PPM and PGM,
    and summarised by sector; one operation is one frame.

    Frames: d = 3, 5, 7 from seed 1; one sector= frame (d = 5); one
    off-axis unit seed (d = 3).  The window is shifted by the seed.  The
    worker count is left at its default of 1, as the fractal CLI has it.
    """

    name = "escape_grid"
    tail = 75.0
    min_ops = 40  # ten samples beyond the tail percentile
    resolution = (512, 512)
    warm_up_ops = None

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = rng_for(seed, 2)
        dx, dy = rng.uniform(-0.05, 0.05, 2)
        self.window = (-2.0 + dx, 2.0 + dx, -2.0 + dy, 2.0 + dy)
        sector = int(rng.integers(1, 5))
        phi = float(rng.uniform(0.15, 0.6))
        self.ops = [
            {"d": 3, "seed": 1 + 0j, "sector": None},
            {"d": 5, "seed": 1 + 0j, "sector": None},
            {"d": 7, "seed": 1 + 0j, "sector": None},
            {"d": 5, "seed": 1 + 0j, "sector": sector},
            {"d": 3, "seed": cmath.exp(1j * phi), "sector": None},
        ]
        self.ppm = out_dir / "escape.ppm"
        self.pgm = out_dir / "escape.pgm"
        self.samples = rng.integers(0, self.resolution[0], (48, 2))

    def span_name(self, op) -> str:
        return "bench.frame"

    def run(self, op):
        grid = fractal.render(op["d"], op["seed"], window=self.window,
                              resolution=self.resolution, sector=op["sector"])
        fractal.write_image(grid, self.ppm)
        fractal.write_pgm(grid, self.pgm)
        return grid, fractal.sector_statistics(grid)

    def observe(self, op, result):
        grid, stats = result
        ppm_hash, ppm_size = file_digest(self.ppm)
        pgm_hash, pgm_size = file_digest(self.pgm)
        return {
            "ppm": ppm_hash,
            "pgm": pgm_hash,
            "bytes": ppm_size + pgm_size,
            "ppm_size": ppm_size,
            "stats": json.dumps(stats, sort_keys=True),
            "iterations": int(grid.iterations.sum(dtype=np.int64)),
            "converged": int(grid.converged.sum()),
        }

    def verify(self, op, result) -> str | None:
        """First execution only: the PGM holds the grid, and sampled cells
        agree with a plain scalar loop that shares no code with the kernel."""
        grid, _ = result
        if not self._pgm_matches(grid):
            return "PGM differs from the grid"
        if not self._sample_check(op, grid):
            return "cells differ from the scalar reference"
        return None

    def _pgm_matches(self, grid) -> bool:
        tokens = self.pgm.read_bytes().split()
        head = [t.decode() for t in tokens[:4]]
        if head != ["P2", str(grid.width), str(grid.height), str(max(grid.max_iters, 1))]:
            return False
        values = np.array(tokens[4:], dtype=np.int64)
        return values.size == grid.iterations.size and bool(
            np.array_equal(values, grid.iterations.ravel()))

    def _sample_check(self, op, grid) -> bool:
        """Recompute sampled cells with a plain scalar loop (no shared code)."""
        centers = grid.cell_centers()
        for r, c in self.samples:
            S = complex(centers[r, c])
            seed = op["seed"]
            if op["sector"] is not None:  # the rotation render applies, in numpy
                S = complex(S * np.exp(-2j * math.pi * op["sector"] / op["d"]))
                seed = 1 + 0j
            want = scalar_escape(op["d"], S, seed, grid.threshold_r, grid.max_iters)
            if want != (int(grid.iterations[r, c]), bool(grid.converged[r, c])):
                return False
        return True

    def check(self, records: dict) -> dict[int, str]:
        problems = {}
        cells = self.resolution[0] * self.resolution[1]
        header = len(f"P6\n{self.resolution[0]} {self.resolution[1]}\n255\n")
        for index, rec in records.items():
            stats = json.loads(rec["stats"])
            if rec["ppm_size"] != header + 3 * cells:
                problems[index] = f"frame {index}: PPM is {rec['ppm_size']} bytes"
            elif len(stats) != self.ops[index]["d"] or sum(s["cells"] for s in stats) > cells:
                problems[index] = f"frame {index}: malformed sector statistics"
        return problems


def scalar_escape(d: int, S: complex, seed: complex, threshold: float, cap: int):
    """Steps until the Newton orbit of t**d = S comes within ``threshold`` of
    its nearest true root; (cap, False) if it never does."""
    if S == 0:
        return 0, True
    mod = abs(S) ** (1.0 / d)
    theta = cmath.phase(S)
    roots = [mod * cmath.exp(1j * (theta + 2 * math.pi * j) / d) for j in range(d)]
    x = seed
    if min(abs(x - r) for r in roots) < threshold:
        return 0, True
    for n in range(1, cap + 1):
        xp = x ** (d - 1)
        if xp == 0:
            return cap, False
        x = x - (xp * x - S) / (d * xp)
        if not (math.isfinite(x.real) and math.isfinite(x.imag)) or abs(x) > 1e8:
            return cap, False
        if min(abs(x - r) for r in roots) < threshold:
            return n, True
    return cap, False


class PowerIteration:
    """``solve_by_power_iteration`` at degrees 2-8; one operation is one
    polynomial.  Root moduli fall by a factor in [0.35, 0.75] from one root
    to the next, as in the acceptance-6 ladder; one input in 16 has a
    dominant pair of equal modulus and must come back with the
    equal-magnitude warning after the full iteration cap."""

    name = "power_iteration"
    tail = 99.0
    min_ops = 2000  # ten samples beyond the tail percentile
    pool = 320
    tie_every = 16
    warm_up_ops = 48

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = rng_for(seed, 3)
        self.ops = []
        self.roots = []
        for i in range(self.pool):
            degree = 2 + i % 7
            tie = i % self.tie_every == 0
            modulus = float(rng.uniform(0.5, 2.0))
            moduli = [modulus]
            for _ in range(degree - 1):
                moduli.append(moduli[-1] * float(rng.uniform(0.35, 0.75)))
            phases = rng.uniform(-math.pi, math.pi, degree)
            roots = [m * cmath.exp(1j * p) for m, p in zip(moduli, phases)]
            if tie:
                roots[1] = -roots[0]
            coeffs = np.poly(np.array(roots))[::-1][:-1]
            poly = MonicPolynomial(tuple(complex(c) for c in coeffs))
            self.ops.append((i, poly, tie))
            self.roots.append(np.array(roots))
        order = rng.permutation(self.pool)
        self.ops = [self.ops[i] for i in order]
        self.roots = [self.roots[i] for i in order]

    def span_name(self, op) -> str:
        return "powiter.solve_by_power_iteration"

    def run(self, op):
        return powiter.solve_by_power_iteration(op[1])

    def observe(self, op, report):
        return (report.roots, report.residuals, report.per_root_iterations,
                report.warnings, report.branch_count, report.method)

    def check(self, records: dict) -> dict[int, str]:
        problems = {}
        by_degree: dict[int, list] = {}
        for index, rec in records.items():
            _, poly, tie = self.ops[index]
            warned = any("equal-magnitude" in w for w in rec[3])
            if rec[4] != 0 or rec[5] != "power-iteration":
                problems[index] = f"input {index}: {rec[4]} branches, method {rec[5]}"
            elif tie:
                if not warned:
                    problems[index] = f"tie input {index}: no equal-magnitude warning"
            elif rec[3]:
                problems[index] = f"input {index}: unexpected warnings {rec[3]}"
            else:
                by_degree.setdefault(poly.degree, []).append((index, poly, rec))
        for degree, items in by_degree.items():
            rows = np.array([poly.coeffs for _, poly, _ in items], dtype=np.complex128)
            found = np.array([rec[0] for _, _, rec in items], dtype=np.complex128)
            residual = poly_residuals(rows, found)
            distance = multiset_max_distance(found, durand_kerner_batch(rows))
            for j, (index, _, _) in enumerate(items):
                if not residual[j] < RESIDUAL_TOL:
                    problems[index] = f"input {index}: scaled residual {residual[j]:.2e}"
                elif not distance[j] < ORACLE_TOL:
                    problems[index] = f"input {index}: oracle distance {distance[j]:.2e}"
        return problems


def coeff_arg(values) -> str:
    """--coeffs text for complex coefficients, lowest degree first."""
    return ";".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in values)


class CliCold:
    """``python -m polybranch`` against the checkout's ``src``, one command
    at a time; one operation is one command, start-up included.  The first
    (warm-up) run of each command is the reference its repeats must match
    byte for byte, with exit code 0."""

    name = "cli_cold"
    tail = 75.0
    min_ops = 40  # ten samples beyond the tail percentile
    warm_up_ops = None

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = rng_for(seed, 4)
        self.out_dir = out_dir
        quartic, self.quartic_roots = separated_rows(rng, 1, 4)
        S = disk_values(rng, 1)[0, 0]
        # Moduli fall by at least 1/0.7 per root, so each power-iteration
        # stage converges within the CLI's default 100 iterations.
        moduli = [float(rng.uniform(1.0, 2.0))]
        for _ in range(2):
            moduli.append(moduli[-1] * float(rng.uniform(0.35, 0.7)))
        cubic_roots = np.array([m * cmath.exp(1j * p) for m, p in
                                zip(moduli, rng.uniform(-math.pi, math.pi, 3))])
        cubic = np.poly(cubic_roots)[::-1][:-1]
        dx, dy = (float(v) for v in rng.uniform(-0.05, 0.05, 2))
        window = f"{-2 + dx!r},{2 + dx!r},{-2 + dy!r},{2 + dy!r}"
        self.quartic, self.S, self.cubic = quartic[0], complex(S), cubic
        S = self.S
        self.ops = [
            ["solve", f"--coeffs={coeff_arg(quartic[0])}"],
            ["solve", "--pure-power", "--d", "64", f"--S={S.real!r},{S.imag!r}"],
            ["solve", "--method", "power-iteration", f"--coeffs={coeff_arg(cubic)}"],
            ["fractal", "--d", "3", "--out", "cli.ppm", "--pgm", "cli.pgm",
             "--resolution", "128x128", f"--window={window}"],
            ["bound", "--degrees", "2,3,4,5", "--samples", "300",
             "--rng-seed", str(int(rng.integers(0, 1 << 30)))],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env = {k: v for k, v in os.environ.items() if k != "POLYBRANCH_THREADS"}
        self.env["PYTHONPATH"] = src

    def span_name(self, op) -> str:
        return "cli.process"

    def run(self, op):
        return subprocess.run(
            [sys.executable, "-m", "polybranch", *op], cwd=self.out_dir, env=self.env,
            capture_output=True, timeout=CLI_TIMEOUT_S, check=False)

    def observe(self, op, proc):
        files = ()
        if op[0] == "fractal" and proc.returncode == 0:
            files = tuple(file_digest(self.out_dir / name) for name in ("cli.ppm", "cli.pgm"))
        return proc.returncode, proc.stdout, proc.stderr, files

    def check(self, records: dict) -> dict[int, str]:
        problems = {}
        for index, (code, stdout, stderr, files) in records.items():
            what = " ".join(self.ops[index][:2])
            if code != 0 or stderr:
                problems[index] = f"{what}: exit {code}, stderr {stderr[:200]!r}"
                continue
            try:
                problem = self._check_payload(index, json.loads(stdout), files)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({exc})"
            if problem:
                problems[index] = f"{what}: {problem}"
        return problems

    def _check_payload(self, index: int, out: dict, files) -> str | None:
        if index in (0, 1, 2):
            found = np.array([[complex(*z) for z in out["roots"]]])
            if index == 0:
                want, budget = self.quartic_roots, 7
                residual = poly_residuals(self.quartic[np.newaxis, :], found)[0]
            elif index == 1:
                want, budget = pure_power_oracle(64, np.array([self.S])), 64
                residual = float(np.abs(found ** 64 - self.S).max()) / max(1.0, abs(self.S))
            else:
                want, budget = durand_kerner_batch(self.cubic[np.newaxis, :]), 0
                residual = poly_residuals(self.cubic[np.newaxis, :], found)[0]
            distance = float(multiset_max_distance(found, want)[0])
            if not (residual < RESIDUAL_TOL and distance < ORACLE_TOL):
                return f"residual {residual:.2e}, oracle distance {distance:.2e}"
            if out["branch_count"] > budget or (budget == 0 and out["branch_count"]):
                return f"{out['branch_count']} branches, budget {budget}"
            return None
        if index == 3:
            (_, ppm_size), (_, pgm_size) = files
            if len(out["sectors"]) != 3 or ppm_size != len("P6\n128 128\n255\n") + 3 * 128 * 128:
                return f"{len(out['sectors'])} sectors, PPM {ppm_size} bytes"
            return None
        for row in out["rows"]:
            budget = BRANCH_BUDGET.get(row["d"], row["d"])
            if row["measured_branches"] > budget or row["samples"] != 300:
                return f"degree {row['d']}: {row['measured_branches']} branches > {budget}"
        return None


WORKLOADS = {w.name: w for w in (Radicals, EscapeGrid, PowerIteration, CliCold)}
