"""Branch-free root finding: power iteration on the companion matrix.

The alternative to branch-counted solving trades decisions for iteration:
a fixed starting vector (the last basis vector), a fixed update, deflation,
and a fixed 3-step Newton polish.  No quantity of the input ever selects a
code path, so the decision count of this method is 0 by construction.  The
price is a genuine failure mode: dominant eigenvalues of equal magnitude
never settle, and are detected and flagged rather than resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import MonicPolynomial, deflate, evaluate
from .report import RootReport

_POLISH_STEPS = 3
# An equal-magnitude tie: the last _WINDOW residuals all above this floor,
# their fitted decay ratio within this tolerance of 1.
_WINDOW = 8
_OSCILLATION_FLOOR = 1e-8
_RATIO_TOL = 0.05
# Below this norm the squares summed by np.linalg.norm leave the normal range.
_NORM_FLOOR = 2.0 ** -511


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, last column
    the negated low-to-high coefficients.  Stored implicitly; ``apply`` is the
    O(d) structured product (shift + last-column combination)."""

    coeffs: tuple[complex, ...]

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.dimension,):
            raise ValueError("vector length must match the dimension")
        out = np.empty_like(v)
        last = v[-1]
        out[0] = -self.coeffs[0] * last
        if self.dimension > 1:
            out[1:] = v[:-1]
            out[1:] -= np.asarray(self.coeffs[1:], dtype=np.complex128) * last
        return out


def companion(p: MonicPolynomial) -> CompanionMatrix:
    """Companion matrix whose eigenvalues are the roots of ``p``."""
    return CompanionMatrix(tuple(p.coeffs))


class ZeroEigenvalueError(RuntimeError):
    """The iterate was annihilated: zero eigenvalue present; deflate t first."""

    def __init__(self) -> None:
        super().__init__("zero eigenvalue present; deflate t first")


@dataclass(frozen=True)
class PowerIterResult:
    """One power-iteration run: the last estimate and its per-step residuals."""

    eigenvalue: complex
    eigenvector: np.ndarray
    converged: bool
    residual_history: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def rate_estimate(self) -> float | None:
        """Decay ratio fitted past the first two steps; None below 10 steps."""
        history = self.residual_history
        return _fit_ratio(history[2:]) if len(history) >= 10 else None


def _fit_ratio(history: tuple[float, ...] | list[float]) -> float | None:
    """Geometric decay ratio fitted to a residual sequence (log-linear LSQ)."""
    usable = [r for r in history if r > 1e-14]
    if len(usable) < 4:
        return None
    logs = np.log(np.asarray(usable))
    n = np.arange(len(usable), dtype=float)
    slope = np.polyfit(n, logs, 1)[0]
    return float(math.exp(slope))


def power_iterate(
    F: CompanionMatrix,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> PowerIterResult:
    """Power iteration from the last basis vector, Rayleigh-quotient readout.

    The per-step residual is the phase-aligned displacement
    ||b_n - exp(i phi) b_{n-1}|| (phi chosen to cancel the rotating phase of a
    complex dominant eigenvalue).  Converged requires both that displacement
    and the eigen-residual ||F v - lambda v|| (relative to ||F||) under tol.
    An iterate whose norm overflows ends the run early and unconverged, so
    such a run reports fewer than ``max_iters`` iterations; one whose norm
    underflows is rescaled by a power of two, and only an exactly zero
    iterate raises ``ZeroEigenvalueError``.
    """
    d = F.dimension
    if d < 1:
        raise ValueError("empty matrix")
    # ||F||_F over the d - 1 subdiagonal ones and the coefficient column.
    parts = [x for c in F.coeffs for x in (c.real, c.imag)]
    fro = math.hypot(*parts, *[1.0] * (d - 1))
    b = np.zeros(d, dtype=np.complex128)
    b[-1] = 1.0
    w = F.apply(b)
    history: list[float] = []
    lam = 0j
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            norm_w = float(np.linalg.norm(w))
            if not math.isfinite(norm_w):
                break
            if norm_w < _NORM_FLOOR:
                # The squares inside the norm underflow.  Only an exactly
                # zero iterate means a zero eigenvalue; any other is rescaled
                # by the power of two that brings its largest part near 1.
                peak = float(np.max(np.abs(w.view(np.float64))))
                if peak == 0.0:
                    raise ZeroEigenvalueError()
                w = np.ldexp(w.view(np.float64), -math.frexp(peak)[1]).view(np.complex128)
                norm_w = float(np.linalg.norm(w))
            b_new = w / norm_w
            inner = complex(np.vdot(b, b_new))
            phase = inner / abs(inner) if abs(inner) > 0 else 1.0 + 0j
            step = float(np.linalg.norm(b_new - phase * b))
            w = F.apply(b_new)
            lam = complex(np.vdot(b_new, w))  # b_new is unit
            eig_res = float(np.linalg.norm(w - lam * b_new))
            history.append(step)
            b = b_new
            converged = step < tol and eig_res <= tol * max(fro, 1.0)
            if converged:
                break
    return PowerIterResult(
        eigenvalue=lam,
        eigenvector=b,
        converged=converged,
        residual_history=tuple(history),
    )


def detect_equal_magnitude(residual_history: tuple[float, ...] | list[float]) -> bool:
    """True when the trailing residuals oscillate without geometric decay.

    Looks at the last 8 entries (``_WINDOW``): all must sit above 1e-8 and
    their fitted decay ratio must be at least 0.95.  That is the signature of
    two dominant eigenvalues of equal magnitude; a strictly dominant
    eigenvalue leaves a visibly decaying trail instead.  A shorter history is
    never a tie.
    """
    tail = list(residual_history)[-_WINDOW:]
    if len(tail) < _WINDOW:
        return False
    if min(tail) <= _OSCILLATION_FLOOR:
        return False
    ratio = _fit_ratio(tail)
    return ratio is not None and ratio >= 1.0 - _RATIO_TOL


def _polish(p: MonicPolynomial, z: complex) -> complex:
    """Fixed 3-step Newton polish on the current polynomial (no branching)."""
    for _ in range(_POLISH_STEPS):
        dp = p.derivative_at(z)
        if dp == 0:
            break
        z = z - evaluate(p, z) / dp
    return z


def solve_by_power_iteration(
    p: MonicPolynomial,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> RootReport:
    """All roots by repeated power iteration + deflation; 0 recorded branches.

    Roots come out in the dominance order the iteration discovers them.  When
    a stage fails to converge, the remaining slots are filled with the last
    eigenvalue estimate and flagged in ``warnings`` -- never silently -- with
    equal-magnitude oscillation distinguished from a plain iteration cap.
    """
    degree = p.degree
    roots: list[complex] = []
    iters: list[int] = []
    warnings: list[str] = []
    current = p
    while True:
        remaining = degree - len(roots)
        if remaining == 0:
            break
        if remaining == 1:
            roots.append(-current.coeffs[0])
            iters.append(0)
            break
        try:
            res = power_iterate(companion(current), max_iters=max_iters, tol=tol)
        except ZeroEigenvalueError:
            # exact zero eigenvalue: 0 is a root, deflating by t is exact
            roots.append(0j)
            iters.append(0)
            current = deflate(current, 0j)[0]
            continue
        if not res.converged:
            if res.iterations < max_iters:
                cause = "iterate norm overflowed"
            elif detect_equal_magnitude(res.residual_history):
                cause = "equal-magnitude dominant eigenvalues"
            else:
                cause = "iteration cap reached"
            warnings.append(
                f"{cause} at the degree-{remaining} stage;"
                f" roots[{len(roots)}:{degree}] unconverged"
            )
            for _ in range(remaining):
                roots.append(res.eigenvalue)
                iters.append(res.iterations)
            break
        z = _polish(current, res.eigenvalue)
        roots.append(z)
        iters.append(res.iterations)
        current = deflate(current, z)[0]
    return RootReport.answering(
        p,
        roots=tuple(roots),
        branch_count=0,
        method="power-iteration",
        per_root_iterations=tuple(iters),
        warnings=tuple(warnings),
    )
