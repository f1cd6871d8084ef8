"""Tests for escape-time grids, image output, and sector statistics."""

from __future__ import annotations

import cmath
import math
import random
import threading
import time
import types
import warnings

import numpy as np
import pytest

from polybranch import (
    FractalGrid,
    NewtonConfig,
    escape_times,
    render,
    sector_seed,
    sector_statistics,
    write_image,
    write_pgm,
)
from polybranch import fractal
from polybranch.fractal import COLORMAP, DIVERGED_COLOR, rotated_frame
from polybranch.newton import DIVERGENCE_BAILOUT, sector_index

DEFAULTS = NewtonConfig()


def scalar_duration(d: int, S: complex, seed: complex, config: NewtonConfig) -> tuple[int, bool]:
    """Reference implementation: plain loop measuring distance to the nearest
    true root |S|^(1/d) e^(i(arg S + 2 pi j)/d), the quantity the grids color."""
    if S == 0:
        return 0, True
    mod = abs(S) ** (1.0 / d)
    theta = cmath.phase(S)
    roots = [mod * cmath.exp(1j * (theta + 2 * math.pi * j) / d) for j in range(d)]

    def near(x: complex) -> float:
        return min(abs(x - r) for r in roots)

    x = seed
    if near(x) < config.threshold_r:
        return 0, True
    for n in range(1, config.max_iters + 1):
        denom = d * x ** (d - 1)
        if denom == 0:
            return config.max_iters, False
        x = x - (x ** d - S) / denom
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            return config.max_iters, False
        if abs(x) > DIVERGENCE_BAILOUT:
            return config.max_iters, False
        if near(x) < config.threshold_r:
            return n, True
    return config.max_iters, False


def duration(d: int, S: complex, seed: complex) -> tuple[int, bool]:
    """Escape time of a single right-hand side, through the grid kernel."""
    its, conv = escape_times(d, np.array([S], dtype=np.complex128), seed)
    return int(its[0]), bool(conv[0])


def synthetic_grid(
    iterations: np.ndarray,
    converged: np.ndarray,
    *,
    d: int = 2,
    max_iters: int = 100,
    window=(-2.0, 2.0, -2.0, 2.0),
) -> FractalGrid:
    return FractalGrid(
        d=d,
        seed=1 + 0j,
        window=window,
        threshold_r=0.1,
        max_iters=max_iters,
        iterations=iterations,
        converged=converged,
    )


# ------------------------------------------------------------- escape_times

def test_zero_and_exact_root_cells() -> None:
    cells = np.array([[0j, 1 + 0j]])
    iters, conv = escape_times(2, cells, 1 + 0j)
    assert conv.all()
    assert iters[0, 0] == 0  # S = 0: every root is 0, distance |seed| irrelevant
    assert iters[0, 1] == 0  # seed already the root


def test_negative_real_axis_fails_from_seed_one() -> None:
    cells = np.array([[-1 + 0j, -2.5 + 0j]])
    iters, conv = escape_times(2, cells, 1 + 0j)
    assert not conv.any()
    assert (iters == DEFAULTS.max_iters).all()


def test_vectorized_kernel_matches_scalar_reference() -> None:
    # The default budget, a budget of one step, and a wide threshold that
    # lets many cells converge at the seed check (step 0) or the last step.
    configs = (DEFAULTS, NewtonConfig(max_iters=1), NewtonConfig(threshold_r=0.3, max_iters=2))
    for cfg in configs:
        rng = random.Random(31)
        for d in (2, 3, 5):
            cells = np.array([
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(120)
            ]).reshape(8, 15)
            iters, conv = escape_times(d, cells, 1 + 0j, cfg)
            for r in range(8):
                for c in range(15):
                    n, ok = scalar_duration(d, cells[r, c], 1 + 0j, cfg)
                    assert conv[r, c] == ok
                    assert iters[r, c] == n


def test_duration_of_a_single_cell_matches_the_grid_kernel() -> None:
    rng = random.Random(32)
    for _ in range(60):
        d = rng.randint(2, 5)
        S = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        n, ok = duration(d, S, 1 + 0j)
        ref_n, ref_ok = scalar_duration(d, S, 1 + 0j, DEFAULTS)
        assert (n, ok) == (ref_n, ref_ok)


def test_iteration_counts_never_exceed_the_cap() -> None:
    rng = np.random.default_rng(33)
    cells = rng.uniform(-2, 2, (16, 16)) + 1j * rng.uniform(-2, 2, (16, 16))
    cfg = NewtonConfig(threshold_r=0.1, max_iters=7)
    iters, conv = escape_times(3, cells, 1 + 0j, cfg)
    assert (iters <= 7).all()
    assert (iters[~conv] == 7).all()


def unscreened_escape_times(d: int, S: np.ndarray, seed: complex, cfg: NewtonConfig):
    """Reference: the kernel without the modulus screen, every live lane
    taking the full nearest-root distance at every step."""
    flat = np.asarray(S, dtype=np.complex128).ravel()
    iterations = np.full(flat.size, cfg.max_iters, dtype=np.int32)
    converged = flat == 0
    iterations[converged] = 0
    live = np.flatnonzero(~converged)
    S_live = flat[live]
    root_mod = np.abs(S_live) ** (1.0 / d)
    theta = np.angle(S_live)
    x = np.full(live.size, complex(seed), dtype=np.complex128)
    dead = np.False_
    for n in range(cfg.max_iters + 1):
        if n > 0:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                xp = x ** (d - 1)
                x = x - (xp * x - S_live) / (d * xp)
            dead = ~np.isfinite(x.real) | ~np.isfinite(x.imag) | (np.abs(x) > DIVERGENCE_BAILOUT)
        with np.errstate(invalid="ignore"):
            j = np.round((d * np.angle(x) - theta) / (2 * math.pi))
            nearest = root_mod * np.exp(1j * (theta + 2 * math.pi * j) / d)
            near = (np.abs(x - nearest) < cfg.threshold_r) & ~dead
        iterations[live[near]] = n
        converged[live[near]] = True
        keep = ~(dead | near)
        live, S_live, root_mod, theta, x = (
            live[keep], S_live[keep], root_mod[keep], theta[keep], x[keep]
        )
    return iterations.reshape(S.shape), converged.reshape(S.shape)


def test_modulus_screen_keeps_every_escape_time() -> None:
    # Windows across the double range of |S|, thresholds and caps, with
    # off-axis seeds (some scaled to the roots' modulus, where the screen
    # passes most lanes) and a few S = 0 cells.
    rng = np.random.default_rng(36)
    for t in range(48):
        d = int(rng.integers(2, 12))
        scale = 10.0 ** rng.uniform(-30, 30)
        center = complex(*rng.uniform(-2, 2, 2)) * scale
        half = scale * 10.0 ** rng.uniform(-3, 0.3)
        re = center.real + half * rng.uniform(-1, 1, 32)
        im = center.imag + half * rng.uniform(-1, 1, 32)
        cells = re[np.newaxis, :] + 1j * im[:, np.newaxis]
        if t % 6 == 0:
            cells[::5, ::3] = 0
        cfg = NewtonConfig(
            threshold_r=float(10.0 ** rng.uniform(-9, 0)), max_iters=int(rng.integers(1, 121))
        )
        seed = complex(*rng.uniform(-1.5, 1.5, 2)) * (scale ** (1 / d) if t % 2 else 1.0)
        iters, conv = escape_times(d, cells, seed, cfg)
        want_iters, want_conv = unscreened_escape_times(d, cells, seed, cfg)
        assert np.array_equal(iters, want_iters), (t, d, scale, cfg, seed)
        assert np.array_equal(conv, want_conv), (t, d, scale, cfg, seed)
    # Roots on the seed's own ray, threshold_r away from it to within a few
    # hundred ulps: there the screen is tight, and without its rounding
    # slack it drops lanes the distance test takes.
    for t in range(40):
        d = int(rng.integers(2, 12))
        scale, rel = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-9, 0)
        seed = scale * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        radii = 1 + (-1) ** t * rel * (1 + np.arange(-512, 512) * 2.0**-50)
        cells = ((radii * seed) ** d).reshape(32, 32)
        cfg = NewtonConfig(threshold_r=rel * scale, max_iters=1)
        iters, conv = escape_times(d, cells, seed, cfg)
        want_iters, want_conv = unscreened_escape_times(d, cells, seed, cfg)
        assert np.array_equal(iters, want_iters), (t, d, scale, cfg, seed)
        assert np.array_equal(conv, want_conv), (t, d, scale, cfg, seed)
    # Seed 0 is the map's critical point: every nonzero cell dies at step 1.
    cells = np.linspace(-2, 2, 32)[np.newaxis, :] + 1j * np.linspace(-2, 2, 32)[:, np.newaxis]
    cells[3, 4] = 0
    iters, conv = escape_times(3, cells, 0j)
    want_iters, want_conv = unscreened_escape_times(3, cells, 0j, DEFAULTS)
    assert np.array_equal(iters, want_iters) and np.array_equal(conv, want_conv)
    assert conv.sum() == 1 and (iters[~conv] == DEFAULTS.max_iters).all()


# ------------------------------------------------- lanes split over threads

def counted_escape_times(monkeypatch, cpus: int, *args):
    """``escape_times`` as on a machine with ``cpus`` usable CPUs; returns
    its result and the number of threads it started."""
    started = []

    class Counted(threading.Thread):
        def start(self) -> None:
            started.append(self)
            super().start()

    with monkeypatch.context() as patch:
        patch.setattr(fractal, "_usable_cpus", lambda: cpus)
        patch.setattr(fractal, "threading", types.SimpleNamespace(Thread=Counted))
        out = escape_times(*args)
    assert not any(thread.is_alive() for thread in started)
    return out, len(started)


SQUARE = (-2.0, 2.0, -2.0, 2.0)
SPLIT_CASES = {
    # d, seed, cells, config
    "d3": (3, 1 + 0j, fractal._cell_centers(SQUARE, 256, 256), DEFAULTS),
    "d5": (5, 1 + 0j, fractal._cell_centers(SQUARE, 256, 256), DEFAULTS),
    # an odd grid: one S = 0 cell, and cells on both axes
    "d7-odd": (7, 1 + 0j, fractal._cell_centers(SQUARE, 257, 257), DEFAULTS),
    # enough lanes for three parts
    "d3-off-axis": (
        3, cmath.exp(0.4j), fractal._cell_centers((-1.97, 2.03, -2.04, 1.96), 320, 320), DEFAULTS
    ),
    "d5-seed-0": (5, 0j, fractal._cell_centers(SQUARE, 256, 256), DEFAULTS),
    "d5-sector-2": (
        5, 1 + 0j, rotated_frame(5, fractal._cell_centers(SQUARE, 256, 256), 2), DEFAULTS
    ),
    "d3-one-step": (3, 1 + 0j, fractal._cell_centers(SQUARE, 256, 256), NewtonConfig(max_iters=1)),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_grids_keep_every_escape_time(case, monkeypatch) -> None:
    # Every lane's arithmetic is elementwise, so a grid split over any
    # number of threads gives the bits of the unsplit, unscreened reference.
    d, seed, cells, cfg = SPLIT_CASES[case]
    want = unscreened_escape_times(d, cells, seed, cfg)
    lanes = int(np.count_nonzero(cells))
    for cpus in (1, 2, 3):
        (iters, conv), threads = counted_escape_times(monkeypatch, cpus, d, cells, seed, cfg)
        assert threads == min(cpus, lanes // fractal.LANES_PER_PART) - 1
        assert np.array_equal(iters, want[0]), (case, cpus)
        assert np.array_equal(conv, want[1]), (case, cpus)


def test_parts_follow_the_usable_cpus_and_the_lane_count(monkeypatch) -> None:
    per = fractal.LANES_PER_PART
    cases = [
        # cells, usable CPUs, threads started besides the caller
        (np.ones(2 * per - 1, complex), 8, 0),
        (np.ones(2 * per, complex), 8, 1),
        (np.ones(2 * per, complex), 1, 0),
        (np.concatenate([np.ones(2 * per - 1, complex), np.zeros(5, complex)]), 8, 0),
        (np.ones(5 * per, complex), 3, 2),
        (fractal._cell_centers(SQUARE, 128, 128), 8, 0),  # the CLI's 128x128 frame
    ]
    for cells, cpus, threads in cases:
        (iters, conv), started = counted_escape_times(monkeypatch, cpus, 3, cells, 1 + 0j)
        assert started == threads, (cells.size, cpus)
        if cells.ndim == 1:  # S = 1 and S = 0 lanes converge at the seed check
            assert conv.all() and not iters.any()
    assert fractal._usable_cpus() >= 1


@pytest.mark.parametrize("failing", ["thread", "caller"])
def test_a_failing_part_raises_in_the_caller_after_every_part_stopped(
    failing, monkeypatch
) -> None:
    caller = threading.get_ident()
    log = []
    hooked = []
    kernel = fractal._escape_lanes

    def lanes(*args) -> None:
        mine = threading.get_ident() == caller
        if mine == (failing == "caller"):
            raise FloatingPointError(f"the {failing} part failed")
        time.sleep(0.2)  # the failing part is done long before this one
        kernel(*args)
        log.append("done")

    monkeypatch.setattr(fractal, "_escape_lanes", lanes)
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"the {failing} part failed"):
        escape_times(3, fractal._cell_centers(SQUARE, 256, 256), 1 + 0j)
    assert log == ["done"]  # the other part ran to its end before the raise
    assert threading.active_count() == before
    assert hooked == []


def test_every_part_runs_under_the_callers_numpy_error_state(monkeypatch) -> None:
    seen = []
    kernel = fractal._escape_lanes

    def lanes(*args) -> None:
        seen.append((np.geterr(), np.geterrcall()))
        kernel(*args)

    def callback(kind: str, flag: int) -> None:
        pass

    monkeypatch.setattr(fractal, "_escape_lanes", lanes)
    monkeypatch.setattr(fractal, "_usable_cpus", lambda: 3)
    with np.errstate(over="raise", under="call", divide="ignore", invalid="log", call=callback):
        want = (np.geterr(), callback)
        escape_times(3, fractal._cell_centers(SQUARE, 320, 320), 1 + 0j)
    assert seen == [want] * 3


# ------------------------------------------------- rotation / sector frames

def test_sector_duration_equals_the_rotated_frame_exactly() -> None:
    rng = random.Random(34)
    for _ in range(80):
        d = rng.randint(2, 6)
        k = rng.randrange(d)
        S = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if S == 0:
            continue
        window = (S.real - 0.5, S.real + 0.5, S.imag - 0.5, S.imag + 0.5)
        direct = render(d, resolution=(1, 1), window=window, sector=k)
        iters, conv = escape_times(d, rotated_frame(d, direct.cell_centers(), k), 1 + 0j)
        assert np.array_equal(direct.iterations, iters)
        assert np.array_equal(direct.converged, conv)


def test_floating_seed_rotation_stays_within_one_iteration() -> None:
    rng = random.Random(35)
    for _ in range(200):
        d = rng.randint(2, 5)
        k = rng.randrange(d)
        S = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(S) < 0.05:
            continue
        analytic = duration(d, rotated_frame(d, S, k), 1 + 0j)
        floating = duration(d, S, sector_seed(d, k))
        assert analytic[1] == floating[1]
        if analytic[1]:
            assert abs(analytic[0] - floating[0]) <= 1


# -------------------------------------------------------------------- render

def test_cell_centers_put_row_zero_at_the_top() -> None:
    grid = render(2, resolution=(2, 2), window=(0.0, 1.0, 0.0, 1.0))
    centers = grid.cell_centers()
    assert centers[0, 0] == 0.25 + 0.75j
    assert centers[0, 1] == 0.75 + 0.75j
    assert centers[1, 0] == 0.25 + 0.25j
    assert centers[1, 1] == 0.75 + 0.25j


def test_render_matches_escape_times_on_its_centers() -> None:
    grid = render(3, resolution=(32, 24))
    iters, conv = escape_times(3, grid.cell_centers(), 1 + 0j)
    assert np.array_equal(grid.iterations, iters)
    assert np.array_equal(grid.converged, conv)
    assert grid.width == 32 and grid.height == 24


def test_render_is_deterministic_and_worker_independent() -> None:
    base = render(2, resolution=(64, 64), workers=1)
    again = render(2, resolution=(64, 64), workers=1)
    fanned = render(2, resolution=(64, 64), workers=5)
    assert np.array_equal(base.iterations, again.iterations)
    assert np.array_equal(base.iterations, fanned.iterations)
    assert np.array_equal(base.converged, fanned.converged)


def test_sector_render_equals_rotated_frame_render() -> None:
    k = 1
    direct = render(3, resolution=(48, 48), sector=k)
    frame = render(3, resolution=(48, 48))
    rotated_centers = rotated_frame(3, frame.cell_centers(), k)
    iters, conv = escape_times(3, rotated_centers, 1 + 0j)
    assert np.array_equal(direct.iterations, iters)
    assert np.array_equal(direct.converged, conv)
    assert direct.sector == k
    assert abs(direct.seed - sector_seed(3, k)) < 1e-15


@pytest.mark.parametrize(
    "d, kwargs, message",
    [
        (3, {"window": (1.0, 1.0, -2.0, 2.0)}, "positive extent"),
        (3, {"resolution": (0, 5)}, "resolution must be positive"),
        (3, {"sector": 3}, "sector index out of range"),
        (1, {}, "degree must be at least 2"),
        (1, {"sector": 5}, "degree must be at least 2"),  # sector_seed checks d first
        (3, {"window": (-1e308, 1e308, -1e308, 1e308)}, "extent must be finite"),
        (3, {"window": (-1e308, 1.7e308, -1.0, 1.0)}, "extent must be finite"),
    ],
)
def test_render_rejects_an_empty_window_grid_or_sector(d, kwargs, message) -> None:
    with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
        warnings.simplefilter("error")
        render(d, **{"resolution": (8, 8), **kwargs})


@pytest.mark.parametrize(
    "window",
    [(-5e307, 5e307, -1.0, 1.0), (-1.0, 1.0, -5e307, 5e307), (-8e307, 8e307, -8e307, 8e307)],
)
@pytest.mark.parametrize("resolution", [(4, 4), (8, 8)])
def test_render_accepts_every_window_with_finite_extents(window, resolution) -> None:
    # (k + 0.5) times such an extent overflows, but no cell centre does.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = render(3, window=window, resolution=resolution)
        sector_statistics(grid)
    re0, re1, im0, im1 = window
    centers = grid.cell_centers()
    assert centers.shape == (resolution[1], resolution[0])
    assert ((re0 < centers.real) & (centers.real < re1)).all()
    assert ((im0 < centers.imag) & (centers.imag < im1)).all()


def _plain_cell_centers(window, width: int, height: int) -> np.ndarray:
    """The cell centres as the plain formula computes them, whose product
    (k + 0.5) * extent can overflow: the reference for their bits."""
    re0, re1, im0, im1 = window
    with np.errstate(over="ignore", invalid="ignore"):
        re = re0 + (np.arange(width) + 0.5) * (re1 - re0) / width
        im = im1 - (np.arange(height) + 0.5) * (im1 - im0) / height
        return re[np.newaxis, :] + 1j * im[:, np.newaxis]


def test_cell_centers_keep_the_plain_formulas_bits_wherever_it_is_finite() -> None:
    rng = random.Random(69)
    # the CLI's default window, then windows shifted as the bench shifts them
    shifts = [(0.0, 0.0)] + [(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
                             for _ in range(100)]
    cases = [((-2 + dx, 2 + dx, -2 + dy, 2 + dy), n) for dx, dy in shifts for n in (128, 512)]
    while len(cases) < 12_000:
        extent = 10.0 ** rng.uniform(-300, 300)
        lo = extent * rng.uniform(-2.0, 1.0)
        window = (lo, lo + extent, -lo - extent, -lo)
        if window[1] > window[0] and window[3] > window[2]:
            cases.append((window, rng.randint(1, 1023)))
    compared = 0
    for window, n in cases:
        for width, height in ((n, 1), (1, n)):
            plain = _plain_cell_centers(window, width, height)
            if np.isfinite(plain).all():
                compared += 1
                assert fractal._cell_centers(window, width, height).tobytes() == plain.tobytes()
    assert compared >= 20_000


def test_even_grids_avoid_the_axis_and_odd_grids_hit_it() -> None:
    even = render(2, resolution=(64, 64))
    assert even.converged.all()  # no cell center sits exactly on the cut
    odd = render(2, resolution=(65, 65))
    axis_row = odd.iterations[32]
    left_half = slice(0, 32)  # Re < 0 on the axis row
    assert not odd.converged[32, left_half].any()
    assert (axis_row[left_half] == odd.max_iters).all()


def test_right_half_plane_is_fast_for_the_default_seed() -> None:
    grid = render(2, resolution=(128, 128))
    centers = grid.cell_centers()
    right = centers.real > 0.2
    near_cut = (centers.real < -0.2) & (np.abs(centers.imag) < 0.3)
    assert grid.converged[right].all()
    assert grid.iterations[near_cut].mean() > 1.5 * grid.iterations[right].mean()


# ------------------------------------------------------------------- images

def test_colormap_luminance_is_strictly_increasing() -> None:
    assert COLORMAP.shape == (256, 3)
    assert COLORMAP.dtype == np.uint8
    lum = 0.2126 * COLORMAP[:, 0] + 0.7152 * COLORMAP[:, 1] + 0.0722 * COLORMAP[:, 2]
    assert (np.diff(lum) > 0).all()
    assert tuple(COLORMAP[0]) == (13, 8, 60)  # dark purple for instant hits
    assert int(lum[255]) > 200  # bright top end


def test_tiny_ppm_layout_and_colors(tmp_path) -> None:
    grid = synthetic_grid(np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool))
    path = tmp_path / "tiny.ppm"
    write_image(grid, path)
    data = path.read_bytes()
    header = b"P6\n2 2\n255\n"
    assert data.startswith(header)
    assert len(header) == 11
    assert len(data) == len(header) + 12  # 4 pixels x 3 bytes
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(4, 3)
    assert (pixels == COLORMAP[0]).all()
    # a 512-wide header spends 15 bytes on the same three lines
    assert len(b"P6\n512 512\n255\n") == 15


def test_divergent_pixel_uses_the_reserved_color(tmp_path) -> None:
    grid = synthetic_grid(
        np.array([[100]], dtype=np.int64), np.array([[False]]),
    )
    path = tmp_path / "one.ppm"
    write_image(grid, path)
    data = path.read_bytes()
    assert data == b"P6\n1 1\n255\n" + bytes(DIVERGED_COLOR)
    assert DIVERGED_COLOR == (173, 216, 230)


def test_ppm_pixels_scale_monotonically_with_duration(tmp_path) -> None:
    iterations = np.arange(100, dtype=np.int64).reshape(10, 10)
    grid = synthetic_grid(iterations, np.ones((10, 10), dtype=bool))
    path = tmp_path / "ramp.ppm"
    write_image(grid, path)
    data = path.read_bytes()
    header = b"P6\n10 10\n255\n"
    assert data.startswith(header)
    pixels = (
        np.frombuffer(data[len(header):], dtype=np.uint8).reshape(100, 3).astype(float)
    )
    lum = pixels @ np.array([0.2126, 0.7152, 0.0722])
    assert (np.diff(lum) >= 0).all()
    assert lum[-1] > lum[0]


def reference_ppm(grid: FractalGrid) -> bytes:
    """A frozen copy of the PPM writer as it stood with a fancy-index gather."""
    scale = max(grid.max_iters, 1)
    idx = np.rint(np.clip(grid.iterations, 0, scale) * (255.0 / scale)).astype(np.int64)
    rgb = COLORMAP[idx]
    rgb[~grid.converged] = DIVERGED_COLOR
    return f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii") + rgb.tobytes()


@pytest.mark.parametrize("max_iters", [1, 7, 255, 256, 1000, 65535])
@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (9, 13)])
def test_ppm_bytes_match_the_fancy_index_writer(tmp_path, max_iters, shape) -> None:
    rng = np.random.default_rng(max_iters * 1000 + shape[0] * 31 + shape[1])
    # Counts from below 0 to above the cap, so the clip is exercised.
    iterations = rng.integers(-3, max_iters + 4, size=shape).astype(np.int32)
    masks = {
        "all diverged": np.zeros(shape, dtype=bool),
        "mixed": rng.random(shape) < 0.5,
        "all converged": np.ones(shape, dtype=bool),
    }
    for name, converged in masks.items():
        grid = synthetic_grid(iterations, converged, max_iters=max_iters)
        path = tmp_path / "frame.ppm"
        write_image(grid, path)
        assert path.read_bytes() == reference_ppm(grid), name


def test_a_rendered_ppm_matches_the_fancy_index_writer(tmp_path) -> None:
    grid = render(5, resolution=(64, 64), config=NewtonConfig(max_iters=40))
    assert grid.converged.any() and not grid.converged.all()
    path = tmp_path / "frame.ppm"
    write_image(grid, path)
    assert path.read_bytes() == reference_ppm(grid)


def test_pgm_round_trip(tmp_path) -> None:
    iterations = np.array([[0, 3], [7, 100]], dtype=np.int64)
    converged = np.array([[True, True], [True, False]])
    grid = synthetic_grid(iterations, converged)
    path = tmp_path / "gray.pgm"
    write_pgm(grid, path)
    text = path.read_text().split()
    assert text[0] == "P2"
    assert (int(text[1]), int(text[2])) == (2, 2)
    assert int(text[3]) == grid.max_iters
    assert [int(v) for v in text[4:]] == [0, 3, 7, 100]


@pytest.mark.parametrize(
    "iterations, max_iters",
    [
        (np.array([[5]]), 100),  # 1 x 1
        (np.arange(0, 12, dtype=np.int32)[np.newaxis, :], 100),  # 1 x N row
        (np.arange(0, 9, dtype=np.int32)[:, np.newaxis], 100),  # N x 1 column
        (np.full((3, 4), 100, dtype=np.int32), 100),  # every cell at the cap
        (np.full((4, 3), 7, dtype=np.int32), 100),  # min = max
        (np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int32), 1),
        (np.array([[0, 7, 42], [999, 1000, 3]], dtype=np.int32), 1000),  # 1 to 4 digits
        # 1- and 5-digit counts: most of each 6-byte token is NUL
        (np.array([[0, 3, 9, 65535], [65534, 1, 2, 8], [4, 10000, 5, 7]], dtype=np.int32), 65535),
    ],
)
def test_pgm_bytes_match_a_reference_formatter(tmp_path, iterations, max_iters) -> None:
    grid = synthetic_grid(iterations, iterations < max_iters, max_iters=max_iters)
    path = tmp_path / "gray.pgm"
    write_pgm(grid, path)
    height, width = iterations.shape
    rows = "\n".join(" ".join(map(str, row)) for row in iterations.tolist())
    assert path.read_bytes() == f"P2\n{width} {height}\n{max_iters}\n{rows}\n".encode("ascii")


def test_pgm_refuses_a_cap_beyond_its_maxval(tmp_path) -> None:
    grid = synthetic_grid(np.zeros((2, 2), dtype=np.int32), np.ones((2, 2), bool), max_iters=65536)
    with pytest.raises(ValueError, match="65535"):
        write_pgm(grid, tmp_path / "gray.pgm")
    assert not (tmp_path / "gray.pgm").exists()


# -------------------------------------------------------- sector statistics

def test_uniform_converged_grid_scores_every_sector_fully() -> None:
    grid = synthetic_grid(
        np.full((32, 32), 2, dtype=np.int64),
        np.ones((32, 32), dtype=bool),
        d=4,
    )
    stats = sector_statistics(grid)
    assert [s["sector"] for s in stats] == [0, 1, 2, 3]
    for s in stats:
        assert s["cells"] > 0
        assert s["converged_fraction"] == 1.0
        assert s["mean_iterations"] == 2.0


def test_home_sector_dominates_for_the_default_seed() -> None:
    grid = render(2, resolution=(128, 128))
    stats = sector_statistics(grid)
    home, away = stats[0], stats[1]
    assert home["converged_fraction"] >= 0.99
    # the contrast the pictures show: the away sector takes visibly longer
    assert away["mean_iterations"] > 2 * home["mean_iterations"]

    annulus = sector_statistics(render(3, resolution=(96, 96)), 0.5, 2.0)
    assert annulus[0]["converged_fraction"] >= 0.99


def test_small_modulus_cells_are_excluded() -> None:
    # window entirely inside the exclusion disk -> no counted cells at all
    grid = render(2, resolution=(8, 8), window=(-0.05, 0.05, -0.05, 0.05))
    stats = sector_statistics(grid)
    for s in stats:
        assert s["cells"] == 0
        assert s["converged_fraction"] is None
        assert s["mean_iterations"] is None
    counted = sum(
        s["cells"] for s in sector_statistics(render(2, resolution=(64, 64)))
    )
    assert counted < 64 * 64  # the origin-adjacent cells fall away


def test_annulus_bounds_filter_cells() -> None:
    grid = render(2, resolution=(64, 64))
    centers = grid.cell_centers()
    lo, hi = 0.5, 1.25
    inside = (np.abs(centers) >= lo) & (np.abs(centers) <= hi)
    stats = sector_statistics(grid, lo, hi)
    assert sum(s["cells"] for s in stats) == int(inside.sum())


@pytest.mark.parametrize(
    "d, resolution", [(3, (127, 129)), (6, (127, 129)), (4, (64, 64))], ids=["3", "6", "4"]
)
def test_boundary_ray_cells_land_where_sector_index_puts_them(d, resolution) -> None:
    # An odd grid puts cells exactly on the negative real axis (d = 3) or
    # the negative imaginary axis (d = 6), and the 64x64 grid puts 128 on
    # the diagonals that bound the d = 4 sectors; there a plain floor of
    # the angle can pick the neighbouring sector.
    grid = render(d, resolution=resolution)
    centers = grid.cell_centers()
    counted = centers[np.abs(centers) >= 0.1]
    want = [0] * d
    for S in counted:
        want[sector_index(d, complex(S))] += 1
    assert [s["cells"] for s in sector_statistics(grid)] == want


def test_statistics_validation() -> None:
    grid = synthetic_grid(
        np.zeros((4, 4), dtype=np.int64), np.ones((4, 4), dtype=bool)
    )
    with pytest.raises(ValueError):
        sector_statistics(grid, -0.1)
    with pytest.raises(ValueError):
        sector_statistics(grid, 1.0, 0.5)
