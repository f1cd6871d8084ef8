"""Runs one workload in its own process and prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Set-up (imports, inputs, oracle solves, one warm-up pass) ends
at the first timed operation; ``--t0`` is the caller's ``perf_counter``
reading taken just before this process was spawned, so ``setup_s``
includes interpreter start-up.  ``perf_counter`` is CLOCK_MONOTONIC on
Linux, shared by every process.

Untraced (``--trace 0``): a closed loop with one client replays the
workload's cycle of operations until the timed operations add up to
``--seconds``.  Checks run between operations, outside the timed calls.

Traced (``--trace 1``): untraced and span-traced passes over the cycle
alternate for ``--seconds``; their median ratio is the tracing
overhead.  The spans of the last traced pass give self time per layer and
are written to ``.bench_out``.  The per-layer probes of ``layers.py`` follow.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


CALIBRATE_EVERY_NS = 250_000_000


class Book:
    """First record per operation, repeat mismatches and raised calls."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: dict[int, object] = {}
        self.problems: dict[int, str] = {}
        self.runs: Counter = Counter()
        self.bad_runs: Counter = Counter()

    def note(self, index: int, op, result, error: BaseException | None) -> None:
        self.runs[index] += 1
        if error is not None:
            self.bad_runs[index] += 1
            self.problems.setdefault(index, f"op {index} raised {error!r}")
            return
        record = self.workload.observe(op, result)
        if index not in self.first:
            self.first[index] = record
            verify = getattr(self.workload, "verify", None)
            problem = verify(op, result) if verify else None
            if problem:
                self.problems[index] = f"op {index}: {problem}"
        elif record != self.first[index]:
            self.bad_runs[index] += 1
            self.problems.setdefault(index, f"op {index}: output differs from its first run")

    def reset_counts(self) -> None:
        self.runs.clear()
        self.bad_runs.clear()

    def finish(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems); a failed check fails every run of the op."""
        for index, problem in self.workload.check(self.first).items():
            self.problems.setdefault(index, problem)
        failed = sum(self.runs[i] if i in self.problems else self.bad_runs[i] for i in self.runs)
        return sum(self.runs.values()), failed, [self.problems[i] for i in sorted(self.problems)]


def execute(workload, book: Book, index: int, op, call=None) -> int:
    """One operation: the timed call, then the untimed bookkeeping.  Returns ns."""
    result = error = None
    start = time.perf_counter_ns()
    try:
        result = call(op) if call else workload.run(op)
    except Exception as exc:  # any failure of the program counts against it
        error = exc
    elapsed = time.perf_counter_ns() - start
    book.note(index, op, result, error)
    return elapsed


def tail_percentile(values: list[float], preferred: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's declared
    percentile, or the highest of p75/p90/p99/p99.9 that leaves at least ten
    samples beyond it when the run was too short for the declared one."""
    ordered = sorted(values)
    n = len(ordered)
    candidates = [p for p in (99.9, 99.0, 90.0, 75.0) if p <= preferred]
    for p in candidates:
        rank = max(1, -(-int(p * 10) * n // 1000))  # ceil(p/100 * n)
        beyond = n - rank
        if beyond >= 10:
            return p, ordered[rank - 1], beyond
    return 0.0, float("nan"), 0


def timed_section(workload, book: Book, seconds: float) -> dict:
    """Closed loop over the cycle until the timed calls add up to ``seconds``.

    The reference kernel of ``calibrate.py`` runs before the first call and
    after every ~0.25 s of timed calls; each call's latency is scaled by the
    reference time over the mean of the two kernel times around it.
    """
    import numpy as np
    from calibrate import REFERENCE_S, calibration_s

    ops = workload.ops
    budget = seconds * 1e9
    latencies = array("q")  # 8 bytes a sample, so peak_rss_mb hardly depends on the op count
    kernel_s = [calibration_s()]
    bounds = [0]
    total = since = 0
    # Past the budget only while too few samples leave ten beyond the tail
    # percentile, and never past three budgets.
    while total < budget or (len(latencies) < workload.min_ops and total < 3 * budget):
        index = len(latencies) % len(ops)
        elapsed = execute(workload, book, index, ops[index])
        latencies.append(elapsed)
        total += elapsed
        since += elapsed
        if since >= CALIBRATE_EVERY_NS:
            kernel_s.append(calibration_s())
            bounds.append(len(latencies))
            since = 0
    if since:
        kernel_s.append(calibration_s())
        bounds.append(len(latencies))
    rss = peak_rss_mb(workload.name)  # before the statistics and checks allocate

    raw = np.frombuffer(latencies, dtype=np.int64) / 1e6
    kernel = np.asarray(kernel_s)
    factor = REFERENCE_S / ((kernel[:-1] + kernel[1:]) / 2)
    ms = raw * np.repeat(factor, np.diff(bounds))
    cycles = len(ms) // len(ops)

    def throughput(values) -> float:
        """Median over complete cycles, or over the whole run if there is none."""
        if not cycles:
            return len(values) * 1e3 / float(values.sum())
        per_cycle = values[: cycles * len(ops)].reshape(cycles, len(ops)).sum(axis=1)
        return float(np.median(len(ops) * 1e3 / per_cycle))

    p, tail, beyond = tail_percentile(ms.tolist(), workload.tail)
    out = {
        "throughput_ops_s": throughput(ms),
        "latency_p50_ms": float(np.median(ms)),
        "peak_rss_mb": rss,
        "raw_throughput_ops_s": throughput(raw),
        "raw_latency_p50_ms": float(np.median(raw)),
        "speed_vs_reference": float(np.median(REFERENCE_S / kernel)),
        "percentiles_ms": {str(q): float(np.percentile(ms, q)) for q in (75, 90, 99, 99.9)},
        "cycles": cycles,
        "ops": len(ms),
    }
    if beyond:
        out.update(latency_tail_ms=tail, tail_percentile=p, tail_beyond=beyond)
    return out


def traced_section(workload, book: Book, seconds: float, out_dir: Path) -> dict:
    import spans
    from polybranch import cli, closedform, fractal, newton, powiter

    modules = {"cli": cli, "closedform": closedform, "fractal": fractal,
               "newton": newton, "powiter": powiter}
    tracer = spans.Tracer()
    ops = workload.ops

    def traced_call(index):
        def call(op):
            tracer.op_id = index
            return tracer.call(workload.span_name(op), workload.run, op)
        return call

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < 3 or (time.perf_counter() < deadline and len(plain) < 25):
        plain.append(sum(execute(workload, book, i, op) for i, op in enumerate(ops)))
        tracer.clear()
        with spans.patched(tracer, modules):
            traced.append(sum(execute(workload, book, i, op, traced_call(i))
                              for i, op in enumerate(ops)))
    self_ns = tracer.self_time_ns()
    total_ns = sum(self_ns.values())
    tracer.write(out_dir / f"spans-{workload.name}.json")
    return {
        "trace_overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "pairs": len(plain),
        "traced_ops": len(ops),
        "self_share": {k: v / total_ns for k, v in sorted(self_ns.items())},
        "self_ms_per_op": {k: v / 1e6 / len(ops) for k, v in sorted(self_ns.items())},
        "span_counts": tracer.counts(),
    }


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "tests"))  # oracles.py, imported read-only
    out_dir = root / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    from workloads import WORKLOADS
    import numpy

    workload = WORKLOADS[args.workload](args.seed, out_dir)
    book = Book(workload)
    warm = workload.ops if workload.warm_up_ops is None else workload.ops[: workload.warm_up_ops]
    for index, op in enumerate(warm):
        execute(workload, book, index, op)
    book.reset_counts()
    gc.collect()
    gc.freeze()  # harness inputs and oracles stay out of the program's collections
    setup_s = time.perf_counter() - args.t0
    result = {"setup_s": setup_s, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        result["trace"] = traced_section(workload, book, args.seconds, out_dir)
        import layers
        result["layers"] = layers.probe_all(args.seed, out_dir)
    else:
        result.update(timed_section(workload, book, args.seconds))
    attempted, failed, problems = book.finish()
    result.update(attempted=attempted, failed=failed, problems=problems[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
