"""Summarise alternating parent/change benchmark runs as one BENCH_*.json.

Usage: python3 tools/bench_pairs.py PARENT_OUT CHANGE_OUT OUT_JSON [NOTE]

PARENT_OUT and CHANGE_OUT are the ``.bench_out`` directories of two
checkouts that ran ``bench/run.py`` with the same seeds and ``--seconds``.
For each workload, the untraced (``--trace 0``) results whose seed ran on
both sides form the pairs.  Per workload the output lists the seeds, and
per end-to-end metric of ``BENCHMARK.json`` each side's values in seed
order, their median and quartiles (``statistics.quantiles``, inclusive),
the pairs the change wins (ties count for neither side) and whether the
change's median is within the metric's bound.  Where the results also carry
the value as measured, before calibration scaling (``raw_throughput_ops_s``,
``raw_latency_p50_ms``, ``raw_setup_s``), the metric gets a ``raw`` block
with the same summaries and wins, so that a verdict which only the
calibration kernel moves shows next to the scaled one.  Traced results
(``--trace 1``) are copied per side as they are.  Both sides' provenance
blocks and the optional NOTE are kept verbatim.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(out_dir: Path, trace: int) -> dict[tuple[str, int], dict]:
    found = {}
    for path in sorted(out_dir.glob(f"result-*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        found[(record["workload"], record["provenance"]["seed"])] = record
    return found


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"values": values, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: dict, change: dict, name: str, seeds: list[int], key: str,
            lower: bool) -> tuple[list[float], list[float], int]:
    """Each side's values of one result key in seed order, and the change's wins."""
    before, after = ([runs[(name, s)]["result"][key] for s in seeds] for runs in (parent, change))
    return before, after, sum((c < p) if lower else (c > p) for p, c in zip(before, after))


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 1
    parent_dir, change_dir, out = Path(argv[0]), Path(argv[1]), Path(argv[2])
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    workloads = {}
    for name in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == name and (w, s) in change)
        rows = {}
        for metric in metrics:
            key, lower = metric["name"], metric["better"] == "lower"
            before, after, wins = compare(parent, change, name, seeds, key, lower)
            p_med, c_med = statistics.median(before), statistics.median(after)
            worse = (c_med / p_med - 1.0) if lower else (1.0 - c_med / p_med)
            rows[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": summary(before),
                "change": summary(after),
                "change_wins": wins,
                "pairs": len(seeds),
                "within_bound": worse <= metric["bound"],
            }
            if all(f"raw_{key}" in runs[(name, s)]["result"] for runs in (parent, change)
                   for s in seeds):
                before, after, wins = compare(parent, change, name, seeds, f"raw_{key}", lower)
                rows[key]["raw"] = {"parent": summary(before), "change": summary(after),
                                    "change_wins": wins}
        failed = [sum(runs[(name, s)]["result"]["failed"] for s in seeds) for runs in (parent, change)]
        workloads[name] = {"seeds": seeds, "failed": dict(zip(("parent", "change"), failed)),
                           "metrics": rows}
    first = {side: {k: v for k, v in next(iter(runs.values()))["provenance"].items() if k != "seed"}
             for side, runs in (("parent", parent), ("change", change)) if runs}
    document = {
        "schema": 1,
        "seconds": next(iter(parent.values()))["seconds"] if parent else None,
        "note": argv[3] if len(argv) == 4 else "",
        "provenance": first,
        "workloads": workloads,
        "traced": {side: {f"{w}-seed{s}": r["result"] for (w, s), r in load(d, 1).items()}
                   for side, d in (("parent", parent_dir), ("change", change_dir))},
    }
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
