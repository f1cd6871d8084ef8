"""Per-layer probes of the traced run: one timing or exact count per metric.

Timings call a layer's public function directly on inputs drawn from the
workloads' generators, with no span wrappers installed, and report the
median of several rounds.  Counts come from the program's own return
values (``BranchTrace``, ``per_root_iterations``, grid iterations, file
sizes) over fixed inputs, so they repeat exactly for a given seed.

``PER_LAYER`` lists every metric with its unit and the end-to-end metric
and workload it should move; a workload not named should not move.
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

PER_LAYER = {
    # newton -> radicals throughput, p50 and tail (d = 64); not escape_grid
    "newton.scaled_root_us": "us",
    "newton.newton_root_us": "us",
    "newton.select_seed_us": "us",
    "newton.pure_power_d16_us": "us",
    "newton.pure_power_d64_us": "us",
    "newton.steps_per_radical": "count",
    "newton.decisions_per_radical": "count",
    "newton.radicals_per_solve": "count",
    # closedform -> radicals throughput and p50
    "closedform.quadratic_us": "us",
    "closedform.cubic_us": "us",
    "closedform.quartic_us": "us",
    "closedform.quartic_untraced_us": "us",
    # tracing -> radicals throughput
    "tracing.branches_max_quadratic": "count",
    "tracing.branches_max_cubic": "count",
    "tracing.branches_max_quartic": "count",
    "tracing.branches_max_pure_power_d16": "count",
    "tracing.branches_max_pure_power_d64": "count",
    "tracing.branch_count_total": "count",
    "tracing.computation_count_total": "count",
    "tracing.overhead_frac": "ratio",
    # poly, powiter -> power_iteration throughput and p50; ties -> its tail
    "poly.evaluate_us": "us",
    "poly.deflate_us": "us",
    "poly.monic_init_us": "us",
    "powiter.power_iterate_ms": "ms",
    "powiter.us_per_iter": "us",
    "powiter.iters_per_stage": "count",
    "powiter.stages_per_solve": "count",
    "powiter.per_root_iterations_total": "count",
    "powiter.tie_stage_ms": "ms",
    # fractal -> escape_grid
    "fractal.render_ms_w1": "ms",
    "fractal.render_ms_w2": "ms",
    "fractal.escape_times_ms": "ms",
    "fractal.ns_per_cell_step": "ns",
    "fractal.steps_per_cell": "count",
    "fractal.grid_iterations_total": "count",
    "fractal.converged_frac": "ratio",
    "fractal.write_image_ms": "ms",
    "fractal.write_pgm_ms": "ms",
    "fractal.sector_statistics_ms": "ms",
    "fractal.bytes_written": "bytes",
    # complexity, report, cli -> cli_cold p50 and throughput, setup_s everywhere
    "complexity.max_cup_length_us": "us",
    "report.to_json_us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_polybranch_ms": "ms",
    "cli.main_solve_ms": "ms",
    "cli.main_fractal_ms": "ms",
    "cli.main_bound_ms": "ms",
    "cli.startup_share": "ratio",
    # the workload's own traced passes against its untraced ones
    "bench.trace_overhead_frac": "ratio",
}

ROUNDS = 5


def per_call(fn, calls: list[tuple], rounds: int = ROUNDS) -> float:
    """Median over rounds of the mean seconds per call."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for args in calls:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / 1e9 / len(calls))
    return statistics.median(samples)


def capture(module, attr: str, sink: list):
    """Replace module.attr by a wrapper that appends its arguments to sink."""
    original = getattr(module, attr)

    def recording(*args):
        sink.append(args)
        return original(*args)

    setattr(module, attr, recording)
    return lambda: setattr(module, attr, original)


def probe_radicals(seed: int, out_dir: Path) -> dict:
    from polybranch import closedform, newton
    from polybranch.tracing import BranchTrace
    from workloads import TIGHT, Radicals

    work = Radicals(seed, out_dir)
    by_class: dict[str, list] = {}
    for cls, _, fn, args in work.ops:
        by_class.setdefault(cls, []).append((fn, args))
    sample = {cls: items[:200] for cls, items in by_class.items()}

    radicals, seeds, kernels = [], [], []
    undo = [capture(closedform, "scaled_root", radicals),
            capture(newton, "select_seed", seeds), capture(newton, "newton_root", kernels)]
    traces: dict[str, list] = {}
    try:
        for cls in ("quadratic", "cubic", "quartic"):
            for fn, args in sample[cls]:
                trace = BranchTrace()
                fn(*args, TIGHT, trace)
                traces.setdefault(cls, []).append(trace)
    finally:
        for restore in undo:
            restore()
    for cls in ("pure_power_d16", "pure_power_d64"):
        for fn, args in sample[cls]:
            trace = BranchTrace()
            fn(*args, TIGHT, trace)
            traces.setdefault(cls, []).append(trace)

    closed = [t for cls in ("quadratic", "cubic", "quartic") for t in traces[cls]]
    seed_decisions = sum(1 for t in closed for label in t.labels()
                         if label.startswith("seed_sector_"))
    out = {
        "newton.steps_per_radical": sum(t.computation_count for t in closed) / len(radicals),
        "newton.decisions_per_radical": seed_decisions / len(radicals),
        "newton.radicals_per_solve": len(radicals) / len(closed),
        "tracing.branch_count_total": sum(t.branch_count for ts in traces.values() for t in ts),
        "tracing.computation_count_total": sum(
            t.computation_count for ts in traces.values() for t in ts),
    }
    for cls, ts in traces.items():
        out[f"tracing.branches_max_{cls}"] = max(t.branch_count for t in ts)

    shared = BranchTrace()
    out["newton.scaled_root_us"] = 1e6 * per_call(
        newton.scaled_root, [a[:3] + (shared,) for a in radicals])
    out["newton.select_seed_us"] = 1e6 * per_call(
        newton.select_seed, [a[:2] + (shared,) for a in seeds])
    out["newton.newton_root_us"] = 1e6 * per_call(
        newton.newton_root, [a[:4] + (shared,) for a in kernels])
    for d in (16, 64):
        calls = [args for _, args in sample[f"pure_power_d{d}"]]
        out[f"newton.pure_power_d{d}_us"] = 1e6 * per_call(
            lambda d, S: newton.solve_pure_power(d, S, TIGHT, BranchTrace()), calls)
    for cls in ("quadratic", "cubic", "quartic"):
        calls = [(fn,) + args for fn, args in sample[cls]]
        out[f"closedform.{cls}_us"] = 1e6 * per_call(
            lambda fn, *a: fn(*a, TIGHT, BranchTrace()), calls)
    calls = [(fn,) + args for fn, args in sample["quartic"]]
    out["closedform.quartic_untraced_us"] = 1e6 * per_call(
        lambda fn, *a: fn(*a, TIGHT, None), calls)
    out["tracing.overhead_frac"] = (
        out["closedform.quartic_us"] / out["closedform.quartic_untraced_us"] - 1.0)
    return out


def probe_power_iteration(seed: int, out_dir: Path) -> dict:
    from polybranch import poly, powiter
    from workloads import PowerIteration

    work = PowerIteration(seed, out_dir)
    separated = [p for _, p, tie in work.ops if not tie][:42]
    ties = [p for _, p, tie in work.ops if tie][:6]
    reports = [powiter.solve_by_power_iteration(p) for p in separated]
    stages = sum(1 for r in reports for n in r.per_root_iterations if n > 0)
    iterations = sum(n for r in reports for n in r.per_root_iterations if n > 0)
    matrices = [(powiter.companion(p),) for p in separated]
    first_stage = sum(r.per_root_iterations[0] for r in reports)
    seconds = per_call(powiter.power_iterate, matrices, rounds=3)
    points = [(p, r.roots[0]) for p, r in zip(separated, reports)]
    coeffs = [(p.coeffs,) for p in separated]
    return {
        "powiter.power_iterate_ms": 1e3 * seconds,
        "powiter.us_per_iter": 1e6 * seconds * len(matrices) / first_stage,
        "powiter.iters_per_stage": iterations / stages,
        "powiter.stages_per_solve": stages / len(reports),
        "powiter.per_root_iterations_total": sum(
            n for r in reports for n in r.per_root_iterations),
        "powiter.tie_stage_ms": 1e3 * per_call(
            powiter.power_iterate, [(powiter.companion(p),) for p in ties], rounds=3),
        "poly.evaluate_us": 1e6 * per_call(poly.evaluate, points * 20),
        "poly.deflate_us": 1e6 * per_call(poly.deflate, points * 20),
        "poly.monic_init_us": 1e6 * per_call(poly.MonicPolynomial, coeffs * 20),
        "report.to_json_us": 1e6 * per_call(lambda r: r.to_json(), [(r,) for r in reports] * 5),
    }


def probe_fractal(seed: int, out_dir: Path) -> dict:
    from polybranch import fractal
    from workloads import EscapeGrid

    window = EscapeGrid(seed, out_dir).window
    size = (512, 512)
    grid = fractal.render(3, 1 + 0j, window=window, resolution=size, workers=1)
    ppm, pgm = out_dir / "probe.ppm", out_dir / "probe.pgm"
    fractal.write_image(grid, ppm)
    fractal.write_pgm(grid, pgm)
    steps = int(grid.iterations.sum(dtype="int64"))
    cells = grid.iterations.size
    escape_s = per_call(fractal.escape_times, [(3, grid.cell_centers(), 1 + 0j)], rounds=3)
    return {
        "fractal.render_ms_w1": 1e3 * per_call(
            fractal.render, [(3, 1 + 0j, None, window, size, 1)], rounds=3),
        "fractal.render_ms_w2": 1e3 * per_call(
            fractal.render, [(3, 1 + 0j, None, window, size, 2)], rounds=3),
        "fractal.escape_times_ms": 1e3 * escape_s,
        "fractal.ns_per_cell_step": 1e9 * escape_s / steps,
        "fractal.steps_per_cell": steps / cells,
        "fractal.grid_iterations_total": steps,
        "fractal.converged_frac": int(grid.converged.sum()) / cells,
        "fractal.write_image_ms": 1e3 * per_call(fractal.write_image, [(grid, ppm)], rounds=3),
        "fractal.write_pgm_ms": 1e3 * per_call(fractal.write_pgm, [(grid, pgm)], rounds=3),
        "fractal.sector_statistics_ms": 1e3 * per_call(
            fractal.sector_statistics, [(grid,)], rounds=3),
        "fractal.bytes_written": ppm.stat().st_size + pgm.stat().st_size,
    }


def import_ms(module: str, env: dict, cwd: Path, repeats: int = 5) -> float:
    """Median time a fresh interpreter spends importing ``module`` (its own clock)."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(1e3 * float(proc.stdout))
    return statistics.median(samples)


def wall_ms(cmd: list[str], env: dict, cwd: Path, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, check=True, timeout=60)
        samples.append(1e3 * (time.perf_counter() - start))
    return statistics.median(samples)


def probe_cli(seed: int, out_dir: Path) -> dict:
    from polybranch import cli, complexity
    from workloads import CliCold

    work = CliCold(seed, out_dir)
    env = work.env
    py = sys.executable

    def main_ms(argv: list[str]) -> float:
        samples = []
        cwd = os.getcwd()
        os.chdir(out_dir)
        try:
            for _ in range(5):
                start = time.perf_counter()
                with redirect_stdout(io.StringIO()):
                    cli.main(argv)
                samples.append(1e3 * (time.perf_counter() - start))
        finally:
            os.chdir(cwd)
        return statistics.median(samples)

    solve, _, _, frac, bound = work.ops
    main_solve = main_ms(solve)
    cold_solve = wall_ms([py, "-m", "polybranch", *solve], env, out_dir)
    degrees = [(d,) for d in (2, 3, 5, 16, 64, 256, 1 << 12, 1 << 20)] * 25
    return {
        "complexity.max_cup_length_us": 1e6 * per_call(complexity.max_cup_length, degrees),
        "cli.interpreter_ms": wall_ms([py, "-c", "pass"], env, out_dir),
        "cli.import_numpy_ms": import_ms("numpy", env, out_dir),
        "cli.import_polybranch_ms": import_ms("polybranch", env, out_dir),
        "cli.main_solve_ms": main_solve,
        "cli.main_fractal_ms": main_ms(frac),
        "cli.main_bound_ms": main_ms(bound),
        "cli.startup_share": 1.0 - main_solve / cold_solve,
    }


def probe_all(seed: int, out_dir: Path) -> dict:
    out = {}
    for probe in (probe_radicals, probe_power_iteration, probe_fractal, probe_cli):
        out.update(probe(seed, out_dir))
    return out
