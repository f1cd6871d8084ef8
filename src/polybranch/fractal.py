"""Escape-time pictures of Newton convergence for t**d = S.

Each cell of a window in the S-plane runs the Newton iteration from one
shared seed and records how many steps it took to come within threshold_r of
the nearest true d-th root of S (known analytically, so convergence here is
measured against the truth, not a residual proxy).  Images go out as binary
PPM with a dark-purple-to-yellow ramp for converged cells -- darker is
faster -- and light blue for cells that never made it; an optional plain PGM
of raw iteration counts supports diffing.

The plane of right-hand sides S splits into d angular sectors of width
2*pi/d; sector k (centered at angle 2*pi*k/d) is served by the seed
exp(2j*pi*k/d**2).  Rotating S by exp(-2j*pi*k/d) conjugates the Newton map
exactly onto the seed-1 iteration, so ``render(sector=k)`` iterates seed 1
in the rotated frame, and one calibrated sector -- the one around the
positive real axis, forced by conjugation symmetry and by monotone
convergence on that axis -- determines all the others.

Rendering is one call of the elementwise kernel ``escape_times`` on the
whole grid.  A grid of at least 65536 live cells is split into interleaved
lane sets, one per usable CPU and at most one per 32768 lanes, each stepped
in its own thread; numpy releases the GIL inside its array loops, so the
sets overlap.  Every operation on a lane is elementwise, so a cell's count
does not depend on which lanes share its arrays: the split moves no bit,
and every cell is computed the same way wherever it lies.  Each step first
screens cells by modulus (see ``_escape_lanes``).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .newton import DEFAULT_CONFIG, DIVERGENCE_BAILOUT, NewtonConfig, sector_index, sector_seed

_TWO_PI = 2.0 * math.pi

# Live lanes per part of an escape-time grid: a frame splits into at most
# live lanes // LANES_PER_PART parts, so below twice this it runs in one.
# On a 2-core Xeon, two parts cost 21-44 % more than one at 16384 lanes
# (d = 3, 5, 7), break even near 50000 and save 9-17 % at 65536: below
# that, each step's fixed Python cost, paid under the GIL, outweighs the
# array work the threads share.
LANES_PER_PART = 32768

DIVERGED_COLOR = (173, 216, 230)  # light blue

Window = tuple[float, float, float, float]  # re_min, re_max, im_min, im_max


def _build_colormap() -> np.ndarray:
    """256-entry dark-purple -> yellow ramp, luminance strictly increasing."""
    anchors = [
        (0, (13, 8, 60)),
        (64, (84, 12, 163)),
        (128, (190, 54, 121)),
        (192, (244, 136, 73)),
        (255, (246, 240, 70)),
    ]
    idx = np.arange(256)
    xs = [a[0] for a in anchors]
    table = np.empty((256, 3), dtype=np.uint8)
    for c in range(3):
        ys = [a[1][c] for a in anchors]
        table[:, c] = np.rint(np.interp(idx, xs, ys)).astype(np.uint8)
    return table


COLORMAP = _build_colormap()


@dataclass(frozen=True)
class FractalGrid:
    """Escape-time data for one rendered window.

    ``iterations`` and ``converged`` are (height, width) arrays with row 0 at
    the top of the window (largest imaginary part); ``width`` and ``height``
    are read off their shape.  Non-converged cells hold the iteration cap.
    ``sector`` records the canonical-frame index when the render was driven
    by a sector rather than a literal seed.
    """

    d: int
    seed: complex
    window: Window
    threshold_r: float
    max_iters: int
    iterations: np.ndarray
    converged: np.ndarray
    sector: int | None = None

    @property
    def width(self) -> int:
        return self.iterations.shape[1]

    @property
    def height(self) -> int:
        return self.iterations.shape[0]

    def cell_centers(self) -> np.ndarray:
        return _cell_centers(self.window, self.width, self.height)


def _cell_centers(window: Window, width: int, height: int) -> np.ndarray:
    re0, re1, im0, im1 = window
    re = re0 + (np.arange(width) + 0.5) * (re1 - re0) / width
    im = im1 - (np.arange(height) + 0.5) * (im1 - im0) / height  # row 0 on top
    return re[np.newaxis, :] + 1j * im[:, np.newaxis]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def escape_times(
    d: int,
    S: np.ndarray,
    seed: complex,
    config: NewtonConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized escape-time kernel over an array of right-hand sides.

    Returns (iterations, converged) arrays of the same shape as ``S``.
    A cell converges at step n when the iterate first comes within
    threshold_r of the nearest d-th root of its S; cells that diverge, hit
    the map's critical point 0, or exhaust the cap are non-converged and
    carry the cap as their count.  S = 0 cells are converged at 0 (the only
    root is 0 and every distance test against it is degenerate).  The live
    lanes run ``_escape_lanes`` in ``lanes[k::parts]`` sets, as the module
    docstring describes; the sets write disjoint cells of the result.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    cfg = config or DEFAULT_CONFIG
    S = np.asarray(S, dtype=np.complex128)
    flat = S.ravel()

    iterations = np.full(flat.size, cfg.max_iters, dtype=np.int32)
    converged = flat == 0
    iterations[converged] = 0

    live = np.flatnonzero(~converged)
    parts = max(1, min(_usable_cpus(), live.size // LANES_PER_PART))
    run = functools.partial(_escape_lanes, d, flat, complex(seed), cfg, iterations, converged)
    _run_parts(run, [live[k::parts] for k in range(parts)])
    return iterations.reshape(S.shape), converged.reshape(S.shape)


def _run_parts(run, lane_sets: list[np.ndarray]) -> None:
    """``run`` on every lane set, set 0 in the calling thread; with one set
    no thread is started.

    numpy's error state and error callback are per thread, so every part
    enters the caller's.  Every thread is joined before this returns or
    raises, and a failure in any part (the lowest-numbered first) is raised
    here, in the caller.
    """
    errstate = np.geterr()
    errcall = np.geterrcall()
    errors: list[BaseException | None] = [None] * len(lane_sets)

    def part(k: int) -> None:
        try:
            with np.errstate(call=errcall, **errstate):
                run(lane_sets[k])
        except BaseException as exc:  # re-raised in the caller below
            errors[k] = exc

    threads = [threading.Thread(target=part, args=(k,)) for k in range(1, len(lane_sets))]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        part(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _escape_lanes(
    d: int,
    flat: np.ndarray,
    seed: complex,
    cfg: NewtonConfig,
    iterations: np.ndarray,
    converged: np.ndarray,
    live: np.ndarray,
) -> None:
    """The step loop of ``escape_times`` over the lanes ``live`` of ``flat``;
    writes their cells of ``iterations`` and ``converged`` and no others.

    Every root of t**d = S has modulus root_mod = |S|**(1/d), and the
    reverse triangle inequality gives |x - root| >= ||x| - root_mod|.  So a
    lane with ||x| - root_mod| >= threshold_r cannot converge at this step,
    and only the lanes inside that band take the nearest-root distance.  The
    band is widened by 1e-12 * (threshold_r + |x| + root_mod), far more than
    the few ulps by which the rounded |x|, root and distance can differ from
    their exact values, so the screen changes no count: it is exact.
    """
    S_live = flat[live]
    root_mod = np.abs(S_live) ** (1.0 / d)
    theta = np.angle(S_live)
    thr = cfg.threshold_r
    x = np.full(live.size, seed, dtype=np.complex128)

    # Step 0 checks the seed itself: no update, and nothing has died yet.
    ax, dead = abs(seed), np.zeros(live.size, dtype=bool)
    for n in range(cfg.max_iters + 1):
        if live.size == 0:
            break
        if n > 0:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                xp = x ** (d - 1)
                x = x - (xp * x - S_live) / (d * xp)
                del xp
            ax = np.abs(x)
            # NaN and inf moduli fail <=: critical point hit or divergence.
            dead = ~(ax <= DIVERGENCE_BAILOUT)
        # The modulus screen of the docstring: only lanes in its band take the distance.
        with np.errstate(invalid="ignore"):
            cand = np.flatnonzero(
                ~dead & (np.abs(ax - root_mod) < thr + 1e-12 * (thr + ax + root_mod))
            )
            xs = x[cand] if n else seed  # step 0: no gather of the seed
            hit = cand[_near_root_dist(d, xs, root_mod[cand], theta[cand]) < thr]
        iterations[live[hit]] = n
        converged[live[hit]] = True
        keep = ~dead
        keep[hit] = False
        if not keep.all():
            live, S_live, root_mod, theta, x = (
                live[keep],
                S_live[keep],
                root_mod[keep],
                theta[keep],
                x[keep],
            )


def _near_root_dist(
    d: int, xs: np.ndarray | complex, mods: np.ndarray, ths: np.ndarray
) -> np.ndarray:
    """|xs - r| for the d-th root r of mods * exp(1j * ths) nearest to xs."""
    j = np.round((d * np.angle(xs) - ths) / _TWO_PI)
    nearest = mods * np.exp(1j * (ths + _TWO_PI * j) / d)
    return np.abs(xs - nearest)


def rotated_frame(d: int, S: complex | np.ndarray, k: int) -> np.ndarray | complex:
    """Map S into the canonical frame of sector k: S * exp(-2j*pi*k/d)."""
    return S * np.exp(-2j * math.pi * k / d)


def render(
    d: int,
    seed: complex = 1 + 0j,
    config: NewtonConfig | None = None,
    window: Window = (-2.0, 2.0, -2.0, 2.0),
    resolution: tuple[int, int] = (512, 512),
    workers: int | None = None,
    sector: int | None = None,
) -> FractalGrid:
    """Render the escape-time grid of a window in the S-plane.

    ``sector=k`` renders in the canonical rotated frame (rotation applied to
    every cell before iterating, seed 1 doing the work), which reproduces the
    sector-k seed's picture exactly up to the grid rotation.  ``workers`` is
    accepted for compatibility and ignored: the grid is one ``escape_times``
    call, whose lane split the CPUs the process may use set.
    """
    cfg = config or DEFAULT_CONFIG
    width, height = resolution
    if width < 1 or height < 1:
        raise ValueError("resolution must be positive")
    re0, re1, im0, im1 = window
    if not (re1 > re0 and im1 > im0):
        raise ValueError("window must have positive extent")
    if not (math.isfinite(re1 - re0) and math.isfinite(im1 - im0)):
        raise ValueError("window extent must be finite")
    S = _cell_centers(window, width, height)
    if sector is not None:
        seed_used = sector_seed(d, sector)  # raises on a sector out of range
        S_work = rotated_frame(d, S, sector)
        seed_work = 1 + 0j
    else:
        S_work = S
        seed_used = complex(seed)
        seed_work = seed_used

    iterations, converged = escape_times(d, S_work, seed_work, cfg)

    return FractalGrid(
        d=d,
        seed=seed_used,
        window=window,
        threshold_r=cfg.threshold_r,
        max_iters=cfg.max_iters,
        iterations=iterations,
        converged=converged,
        sector=sector,
    )


def write_image(grid: FractalGrid, path: str | os.PathLike) -> None:
    """Write a binary PPM (P6): colormap by iterations/max_iters, light blue
    for non-converged cells.

    The colour lookup is a ``take`` over the colormap's rows: the gather of
    ``COLORMAP[idx]``, which numpy runs several times faster as a ``take``.
    """
    scale = max(grid.max_iters, 1)
    idx = np.rint(np.clip(grid.iterations, 0, scale) * (255.0 / scale)).astype(np.int64)
    rgb = COLORMAP.take(idx, axis=0)
    rgb[~grid.converged] = DIVERGED_COLOR
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())


def pgm_maxval(max_iters: int) -> int:
    """The PGM maxval for a grid capped at ``max_iters``; Netpbm allows 1..65535."""
    if max_iters > 65535:
        raise ValueError(f"a PGM holds counts up to 65535, not max_iters = {max_iters}")
    return max(max_iters, 1)


def write_pgm(grid: FractalGrid, path: str | os.PathLike) -> None:
    """Write a plain PGM (P2) of raw iteration counts, maxval = max_iters.

    Each count is looked up, by a ``take``, in a table of byte tokens "v "
    (the last column "v\\n"), NUL-padded to one width; deleting the NULs
    with ``bytes.translate`` leaves the text.
    """
    header = f"P2\n{grid.width} {grid.height}\n{pgm_maxval(grid.max_iters)}\n"
    its = grid.iterations
    lo = int(its.min())
    values = range(lo, int(its.max()) + 1)
    cells = np.array([f"{v} " for v in values], dtype=np.bytes_).take(its - lo)
    cells[:, -1] = np.array([f"{v}\n" for v in values], dtype=np.bytes_).take(its[:, -1] - lo)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(cells.tobytes().translate(None, b"\0"))


def sector_statistics(
    grid: FractalGrid,
    min_modulus: float = 0.1,
    max_modulus: float | None = None,
) -> list[dict]:
    """Per-sector convergence summary of a rendered grid.

    Cells are bucketed by the angular sector of their S value; cells with
    |S| < min_modulus (near-origin noise) are excluded, as are cells beyond
    ``max_modulus`` when given.  Mean iterations cover converged cells only.
    """
    if min_modulus < 0:
        raise ValueError("min_modulus must be nonnegative")
    if max_modulus is not None and max_modulus < min_modulus:
        raise ValueError("max_modulus must not be below min_modulus")
    d = grid.d
    S = grid.cell_centers()
    mod = np.abs(S)
    mask = mod >= min_modulus
    if max_modulus is not None:
        mask &= mod <= max_modulus
    # ``sector_index``'s phase in units of pi/d, shifted so that the sector
    # edges fall on the integers: the floor is then the sector, mod d.
    position = (np.angle(S) * (d / math.pi) + 1) / 2
    sectors = np.floor(position).astype(np.int64) % d
    # np.angle and cmath.phase can differ by an ulp, which moves a cell on a
    # boundary ray across it; such cells take the sector ``sector_index``
    # gives them.
    on_edge = mask & (np.abs(position - np.rint(position)) < 1e-9)
    if on_edge.any():
        for r, c in zip(*np.nonzero(on_edge)):
            sectors[r, c] = sector_index(d, complex(S[r, c]))
    out: list[dict] = []
    for k in range(d):
        sel = mask & (sectors == k)
        cells = int(np.count_nonzero(sel))
        conv = grid.converged[sel]
        its = grid.iterations[sel][conv]  # converged cells only
        out.append(
            {
                "sector": k,
                "cells": cells,
                "converged_fraction": float(np.count_nonzero(conv)) / cells if cells else None,
                "mean_iterations": float(np.mean(its)) if its.size else None,
            }
        )
    return out
