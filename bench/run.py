"""polybranch benchmark: four workloads, end-to-end metrics, a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload radicals --seed 1 --seconds 15 --trace 0

``--workload`` is radicals, escape_grid, power_iteration, cli_cold or all.
Each workload runs in a fresh worker process (``worker.py``) against the
checkout's ``src``, never an installed copy, with BLAS held to one thread.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones (``layers.py``).  Lines before the last are for people: provenance,
each metric with its unit, the tail percentile chosen and its sample count,
failed_frac and the first problems found.  The last line is one JSON
object: correct, attempted, failed, metrics.

setup_s is the median of five set-ups (the measured run's and four
set-up-only workers), each from spawn to the first timed operation.  The
benchmark never runs ``polybranch verify``, which can recurse without bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("radicals", "escape_grid", "power_iteration", "cli_cold")
END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_RUNS = 5
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    head = read_text(root / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = read_text(root / ".git" / ref)
        if not commit:
            for line in read_text(root / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unavailable (not a git checkout)"


def provenance(root: Path, seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                read_text(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read_text(index / "level"), read_text(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_text(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(root),
        "seed": seed,
    }


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POLYBRANCH_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def spawn(args, root: Path, env: dict, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker; its last stdout line is its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload_name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env,
                            cwd=root, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload_name} worker timed out") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{args.workload_name} worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(args, root: Path, env: dict, deadline: float) -> tuple[dict, dict]:
    """(worker result, metrics) for one workload."""
    if args.trace:
        result = spawn(args, root, env, deadline)
        layers = dict(result["layers"], **{
            "bench.trace_overhead_frac": result["trace"]["trace_overhead_frac"]})
        from layers import PER_LAYER
        return result, {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    from calibrate import REFERENCE_S, calibration_s

    setups = []
    for run in range(SETUP_RUNS):
        before = calibration_s(3)
        out = spawn(args, root, env, deadline, setup_only=run < SETUP_RUNS - 1)
        speed = REFERENCE_S / ((before + calibration_s(3)) / 2)
        setups.append((out["setup_s"] * speed, out["setup_s"]))
    result = out
    result["setup_s"] = statistics.median(s for s, _ in setups)
    result["raw_setup_s"] = statistics.median(raw for _, raw in setups)
    metrics = {name: (result[name], unit) for name, unit in END_TO_END.items() if name in result}
    return result, metrics


def report(name: str, result: dict, metrics: dict) -> None:
    for metric, (value, unit) in metrics.items():
        note = ""
        raw = result.get(f"raw_{metric.split('.')[-1]}")
        if raw is not None:
            note = f"  (as measured: {raw:.6g})"
        if metric == "latency_tail_ms":
            note = (f"  (p{result['tail_percentile']:g}, {result['tail_beyond']} of "
                    f"{result['ops']} samples beyond it)")
        print(f"{name:16s} {metric:32s} {value:14.6g} {unit}{note}")
    frac = result["failed"] / max(1, result["attempted"])
    print(f"{name:16s} {'failed_frac':32s} {frac:14.6g}  ({result['failed']} of "
          f"{result['attempted']} operations)")
    if "trace" in result:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["trace"]["self_share"].items())
        print(f"{name:16s} self time by layer: {shares}")
    for problem in result["problems"]:
        print(f"{name:16s} problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not ((root / "src" / "polybranch" / "__init__.py").is_file()
            and (root / "tests" / "oracles.py").is_file()):
        print("error: run from the root of a polybranch checkout "
              "(src/polybranch and tests/oracles.py are needed)", file=sys.stderr)
        return 2
    env = worker_env(root)
    os.environ.update({k: env[k] for k in BLAS_VARS})
    sys.path.insert(0, str(BENCH_DIR))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = provenance(root, args.seed)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload_name = name
        try:
            result, metrics = run_workload(args, root, env, time.monotonic() + RUN_BUDGET_S)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        info["numpy"] = result["numpy"]
        if len(names) > 1:
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        report(name, result, metrics)
        record = {"provenance": info, "workload": name, "seconds": args.seconds,
                  "trace": args.trace, "result": result}
        out = root / ".bench_out" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        summary["correct"] &= result["failed"] == 0 and not result["problems"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {k: {"value": value, "unit": unit} for k, (value, unit) in metrics.items()})
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
