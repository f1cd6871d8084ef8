"""Branch-free root finding: power iteration on the companion matrix.

The alternative to branch-counted solving trades decisions for iteration:
a fixed starting vector (the last basis vector), a fixed update, deflation,
and a fixed 3-step Newton polish.  No quantity of the input ever selects a
code path, so the decision count of this method is 0 by construction.  The
price is a genuine failure mode: dominant eigenvalues of equal magnitude
never settle, and are detected and flagged rather than resolved.  A root
lost to cancellation in deflation is flagged by ``cli.solve``'s certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import MonicPolynomial, deflate, ldexp_complex, scaled_horner
from .poly import evaluate  # noqa: F401 - unused; bench/spans.py wraps powiter.evaluate
from .report import RootReport

_POLISH_STEPS = 3
# An equal-magnitude tie: the last _WINDOW residuals all above this floor,
# their fitted decay ratio within this tolerance of 1.
_WINDOW = 8
_OSCILLATION_FLOOR = 1e-8
_RATIO_TOL = 0.05
# Below this norm the squares summed by _norm's two dots leave the normal range.
_NORM_FLOOR = 2.0 ** -511


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, last column
    the negated low-to-high coefficients.  Stored implicitly; ``apply`` is the
    O(d) structured product (shift + last-column combination).  The column
    is built once, with the matrix, and not again per product."""

    coeffs: tuple[complex, ...]
    _head: complex = field(init=False, repr=False, compare=False)
    _tail: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_head", -self.coeffs[0] if self.coeffs else 0j)
        object.__setattr__(self, "_tail", np.asarray(self.coeffs[1:], dtype=np.complex128))

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (self.dimension,):
            raise ValueError("vector length must match the dimension")
        return self._product(v)

    def _product(self, v: np.ndarray) -> np.ndarray:
        """``apply`` without its checks: v is a complex128 vector of length d.

        Entry 0 is a scalar product and entries 1.. one array product, as
        numpy rounds the two differently."""
        out = np.empty_like(v)
        last = v[-1]
        out[0] = self._head * last
        np.subtract(v[:-1], self._tail * last, out=out[1:])
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


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector without its dispatch: the same
    two dots over the real and imaginary parts, summed in the same order,
    and a correctly rounded square root."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def power_iterate(
    F: CompanionMatrix,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> PowerIterResult:
    """Power iteration from the last basis vector, Rayleigh-quotient readout.

    The per-step residual is the phase-aligned displacement
    ||b_n - exp(i phi) b_{n-1}|| (phi chosen to cancel the rotating phase of a
    complex dominant eigenvalue).  Converged requires both that displacement
    and the eigen-residual ||F v - lambda v|| (relative to ||F||) under tol;
    the eigen-residual, and the Rayleigh quotient lambda it needs, are
    evaluated only at a step whose displacement is already under tol, and
    lambda once more at the end.  An iterate whose norm overflows ends the
    run early and unconverged, so such a run reports fewer than
    ``max_iters`` iterations; one whose norm underflows is rescaled by a
    power of two, and only an exactly zero iterate raises
    ``ZeroEigenvalueError``.
    """
    d = F.dimension
    if d < 1:
        raise ValueError("empty matrix")
    # ||F||_F over the d - 1 subdiagonal ones and the coefficient column.
    parts = [x for c in F.coeffs for x in (c.real, c.imag)]
    fro = math.hypot(*parts, *[1.0] * (d - 1))
    product = F._product
    b = np.zeros(d, dtype=np.complex128)
    b[-1] = 1.0
    w = product(b)
    history: list[float] = []
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            norm_w = _norm(w)
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
                norm_w = _norm(w)
            b_new = w / norm_w
            inner = complex(np.vdot(b, b_new))
            phase = inner / abs(inner) if abs(inner) > 0 else 1.0 + 0j
            step = _norm(b_new - phase * b)
            w = product(b_new)
            history.append(step)
            b = b_new
            if step < tol:
                lam = complex(np.vdot(b, w))  # b is unit
                converged = _norm(w - lam * b) <= tol * fro
                if converged:
                    break
    return PowerIterResult(
        # The Rayleigh quotient of the last completed step: w = F b.
        eigenvalue=complex(np.vdot(b, w)) if history else 0j,
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
    # All 8 entries exceed 1e-8, so the fit always has the 4 points it needs.
    return _fit_ratio(tail) >= 1.0 - _RATIO_TOL


def _polish(p: MonicPolynomial, z: complex) -> complex:
    """Fixed 3-step Newton polish on the current polynomial (no branching), each
    step z - (P/D) * 2**s by ``scaled_horner``; it stops where p'(z) = 0 or
    a scaled coefficient or the step overflows, and keeps the last z."""
    for _ in range(_POLISH_STEPS):
        try:
            P, D, s = scaled_horner(p, z)
            z = z - ldexp_complex(P / D, s)
        except (ZeroDivisionError, OverflowError):
            break
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
    for remaining in range(degree, 1, -1):
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
    else:  # current is now t + a0: its root is exact
        roots.append(-current.coeffs[0])
        iters.append(0)
    return RootReport.answering(
        p,
        roots=tuple(roots),
        branch_count=0,
        method="power-iteration",
        per_root_iterations=tuple(iters),
        warnings=tuple(warnings),
    )
