"""Branch-free root finding: power iteration on the companion matrix.

The alternative to branch-counted solving trades decisions for iteration:
exact zero roots divided out first, then a fixed starting vector (the last
basis vector), a fixed update, deflation, and a fixed 3-step Newton polish
on the zero-free input.  No quantity of the input ever selects a code path,
so the decision count of this method is 0 by construction.  The price is a
genuine failure mode: dominant eigenvalues of equal magnitude never settle,
and are detected and flagged rather than resolved.  A root the polish does
not recover is flagged by the certificate of ``RootReport.answering``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# Below this norm the squares summed by the norm's two dots leave the normal range.
_NORM_FLOOR = 2.0 ** -511


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, last column
    the negated low-to-high coefficients.  Stored implicitly, as the
    coefficients alone; ``power_iterate`` forms its products."""

    coeffs: tuple[complex, ...]


def companion(p: MonicPolynomial) -> CompanionMatrix:
    """Companion matrix whose eigenvalues are the roots of ``p``."""
    return CompanionMatrix(tuple(p.coeffs))


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
    and the eigen-residual ||F v - lambda v|| (relative to ||F||) under tol;
    the eigen-residual, and the Rayleigh quotient lambda it needs, are
    evaluated only at a step whose displacement is already under tol, and
    lambda once more at the end.  An iterate whose norm overflows ends the
    run early and unconverged, so such a run reports fewer than
    ``max_iters`` iterations; one whose norm underflows is rescaled by a
    power of two.  An exactly zero iterate F b = 0 ends the run converged
    with eigenvalue 0: b is an eigenvector of 0.

    Each run makes its arrays once, with every view its loop reads, and each
    step writes its results into them; no buffer is shared between runs, and
    none is written after the call returns, so the returned eigenvector is
    the run's own.  The kernels and their operand order are part of the
    bits: each norm is two strided dots, the phase comes from ``np.vdot``,
    the displacement is ``phase * b`` with the scalar first, and entry 0 of
    each product is a numpy scalar product.
    """
    d = len(F.coeffs)
    if d < 1:
        raise ValueError("empty matrix")
    # ||F||_F over the d - 1 subdiagonal ones and the coefficient column.
    parts = [x for c in F.coeffs for x in (c.real, c.imag)]
    fro = math.hypot(*parts, *[1.0] * (d - 1))
    # F b = (head * b[-1], b[:-1] - tail * b[-1]), the column converted once.
    head, tail = -F.coeffs[0], np.asarray(F.coeffs[1:], dtype=np.complex128)
    # Two iterates that trade places every step, w = F b, the displacement
    # and the product's column, with the views the loop reads.
    b, b_new = np.zeros(d, dtype=np.complex128), np.empty(d, dtype=np.complex128)
    b_lead, b_new_lead = b[:-1], b_new[:-1]
    b[-1] = 1.0
    w = np.empty(d, dtype=np.complex128)
    w_re, w_im, w_rest, w_floats = w.real, w.imag, w[1:], w.view(np.float64)
    disp = np.empty(d, dtype=np.complex128)
    disp_re, disp_im = disp.real, disp.imag
    column = np.empty(d - 1, dtype=np.complex128)
    history: list[float] = []
    converged = False
    step = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # Pass n forms w = F b for the n-th iterate, then takes step n + 1.
        for n in range(max_iters + 1):
            # Entry 0 is a numpy scalar product and entries 1.. one array
            # product, as numpy rounds the two differently.
            last = b[-1]
            w[0] = head * last
            np.multiply(tail, last, out=column)
            np.subtract(b_lead, column, out=w_rest)
            if step < tol:
                lam = complex(np.vdot(b, w))  # b is unit
                np.multiply(lam, b, out=disp)
                np.subtract(w, disp, out=disp)
                converged = math.sqrt(disp_re.dot(disp_re) + disp_im.dot(disp_im)) <= tol * fro
                if converged:
                    break
            if n == max_iters:
                break
            # Each norm is np.linalg.norm's: two dots over the real and the
            # imaginary part, summed in that order, and a square root.
            norm_w = math.sqrt(w_re.dot(w_re) + w_im.dot(w_im))
            if not math.isfinite(norm_w):
                break
            if norm_w < _NORM_FLOOR:
                # The squares inside the norm underflow.  Only an exactly
                # zero iterate means a zero eigenvalue; any other is rescaled
                # by the power of two that brings its largest part near 1.
                peak = float(np.max(np.abs(w_floats)))
                if peak == 0.0:
                    converged = True
                    break
                np.ldexp(w_floats, -math.frexp(peak)[1], out=w_floats)
                norm_w = math.sqrt(w_re.dot(w_re) + w_im.dot(w_im))
            np.divide(w, norm_w, out=b_new)
            inner = complex(np.vdot(b, b_new))
            mag = abs(inner)
            phase = inner / mag if mag > 0 else 1.0 + 0j
            np.multiply(phase, b, out=disp)  # the scalar first, as in phase * b
            np.subtract(b_new, disp, out=disp)
            step = math.sqrt(disp_re.dot(disp_re) + disp_im.dot(disp_im))
            history.append(step)
            b, b_new, b_lead, b_new_lead = b_new, b, b_new_lead, b_lead
    return PowerIterResult(
        # The Rayleigh quotient of the last completed step: w = F b, or 0.
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
    """Fixed 3-step Newton polish on ``p`` (no branching), each step
    z - (P/D) * 2**s by ``scaled_horner``; it stops where p'(z) = 0 or a
    scaled coefficient or the step overflows, and keeps the last z.

    ``p`` is the zero-free input, not a deflated quotient, so rounding in
    deflation costs no accuracy; it must be zero-free, since p(0) = 0 would
    stop the polish of a small root at 0."""
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

    The k exact zero roots come first, found by dropping the k leading zero
    coefficients, which is exact.  The other roots come out in the dominance
    order the iteration discovers them, each, the last linear one included,
    polished on that zero-free input.  When a stage fails to converge, the
    remaining slots are filled with the last eigenvalue estimate and flagged
    in ``warnings`` -- never silently -- with equal-magnitude oscillation
    distinguished from a plain iteration cap.  ``RootReport.answering``
    certifies the roots and adds its own warnings after these.
    """
    degree = p.degree
    zeros = next((j for j, c in enumerate(p.coeffs) if c), degree)
    roots, iters, warnings = [0j] * zeros, [0] * zeros, []
    if zeros < degree:
        free = MonicPolynomial(p.coeffs[zeros:])  # p / t**zeros
        current = free
        for remaining in range(free.degree, 1, -1):
            res = power_iterate(companion(current), max_iters=max_iters, tol=tol)
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
            z = _polish(free, res.eigenvalue)
            roots.append(z)
            iters.append(res.iterations)
            current = deflate(current, z)
        else:  # current is now t + a0
            roots.append(_polish(free, -current.coeffs[0]))
            iters.append(0)
    return RootReport.answering(
        p,
        roots=tuple(roots),
        branch_count=0,
        method="power-iteration",
        per_root_iterations=tuple(iters),
        warnings=tuple(warnings),
    )
