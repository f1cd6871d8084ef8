"""In-memory spans around the calls the benchmark makes into each layer.

The program is not edited: ``patched`` swaps public functions on the
program's modules for wrappers that record a span per call, and puts the
originals back when the block exits.  A span is the tuple
(name, start_ns, end_ns, parent, op_id); ``parent`` is the index of the
enclosing span (-1 at the top) and ``op_id`` the benchmark operation the
call belongs to.  Names are "<layer>.<function>", so self time can be
summed per layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name).  closedform and cli hold their own
# references to functions defined elsewhere, so those references are
# wrapped where the caller looks them up.
TARGETS = (
    ("closedform", "scaled_root", "newton.scaled_root"),
    ("newton", "scaled_root", "newton.scaled_root"),
    ("newton", "newton_root", "newton.newton_root"),
    ("newton", "select_seed", "newton.select_seed"),
    ("powiter", "power_iterate", "powiter.power_iterate"),
    ("powiter", "deflate", "poly.deflate"),
    ("powiter", "evaluate", "poly.evaluate"),
    ("fractal", "escape_times", "fractal.escape_times"),
    ("fractal", "render", "fractal.render"),
    ("fractal", "write_image", "fractal.write_image"),
    ("fractal", "write_pgm", "fractal.write_pgm"),
    ("fractal", "sector_statistics", "fractal.sector_statistics"),
    ("cli", "render", "fractal.render"),
    ("cli", "write_image", "fractal.write_image"),
    ("cli", "write_pgm", "fractal.write_pgm"),
    ("cli", "sector_statistics", "fractal.sector_statistics"),
)


class Tracer:
    """Collects spans; ``op_id`` is set by the benchmark loop per operation."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for the operation span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def self_time_ns(self) -> dict[str, int]:
        """Per layer: span durations minus the time their child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            out[name.split(".", 1)[0]] += end - start - inner
        return dict(out)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], s, e, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


@contextmanager
def patched(tracer: Tracer, modules: dict):
    """Install span wrappers on ``modules`` (name -> module) for the block."""
    saved = []
    try:
        for mod_name, attr, span_name in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
