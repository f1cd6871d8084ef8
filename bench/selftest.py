"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

Four checks, each printed as PASS or FAIL; the exit code is the number of
failures.  It takes about three minutes, because the first check runs every
workload for the full ``run_seconds`` of BENCHMARK.json.

1. every metric BENCHMARK.json names is emitted, with its unit;
2. two traced runs with the same seed give identical counts;
3. a deliberately wrong answer raises failed_frac;
4. ``--seed`` changes the inputs, and the same seed repeats them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_emitted() -> list[str]:
    problems = []
    out = run("--workload", "all", "--seed", "3", "--seconds", str(SPEC["run_seconds"]))
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            got = out["metrics"].get(f"{workload['name']}.{metric['name']}")
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{workload['name']}.{metric['name']}: {got}")
    if not out["correct"] or out["failed"]:
        problems.append(f"untraced run not correct: {out['failed']} failed")
    traced = run("--workload", "power_iteration", "--seed", "3", "--seconds", "1", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted = {name: m["unit"] for name, m in traced["metrics"].items()}
    if declared != emitted:
        problems.append(f"per-layer metrics differ: {set(declared.items()) ^ set(emitted.items())}")
    return problems


def check_counts_repeat() -> list[str]:
    count_units = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")}
    runs = [run("--workload", "cli_cold", "--seed", "7", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k in count_units} for r in runs]
    if not counts[0] or counts[0] != counts[1]:
        return [f"counts differ: {counts[0]} vs {counts[1]}"]
    return []


def check_wrong_answer_fails() -> list[str]:
    from worker import Book, timed_section
    from workloads import PowerIteration, Radicals

    class WrongRoot(Radicals):
        def run(self, op):
            roots, trace = super().run(op)
            return (roots[0] + 1e-3,) + tuple(roots[1:]), trace

    class LostWarning(PowerIteration):
        def run(self, op):
            report = super().run(op)
            return report.__class__(report.roots, report.residuals, report.branch_count,
                                    report.method, report.per_root_iterations, ())

    problems = []
    out_dir = ROOT / ".bench_out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    for cls, wrong in ((Radicals, WrongRoot), (PowerIteration, LostWarning)):
        fracs = []
        for kind in (cls, wrong):
            book = Book(kind(11, out_dir))
            timed_section(book.workload, book, 0.5)
            attempted, failed, _ = book.finish()
            fracs.append(failed / attempted)
        if not (fracs[0] == 0 and fracs[1] > 0):
            problems.append(f"{cls.name}: failed_frac {fracs[0]} right, {fracs[1]} wrong")
    return problems


def check_seed_changes_inputs() -> list[str]:
    from workloads import WORKLOADS

    def fingerprint(kind, seed: int) -> str:
        work = kind(seed, ROOT / ".bench_out" / "selftest")
        return repr([op[:2] + op[3:] if kind.name == "radicals" else op for op in work.ops])

    problems = []
    for name, kind in WORKLOADS.items():
        first, again, other = (fingerprint(kind, s) for s in (1, 1, 2))
        if first != again or first == other:
            problems.append(f"{name}: same seed equal {first == again}, "
                            f"other seed differs {first != other}")
    return problems


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    failures = 0
    for check in (check_metrics_emitted, check_counts_repeat, check_wrong_answer_fails,
                  check_seed_changes_inputs):
        problems = check()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {check.__name__}"
              + "".join(f"\n    {p}" for p in problems), flush=True)
    return failures


if __name__ == "__main__":
    sys.exit(main())
