"""Branch-free root finding: power iteration on the companion matrix.

The alternative to branch-counted solving trades decisions for iteration:
exact zero roots divided out first, then a fixed starting vector (the last
basis vector), a fixed update, deflation, and a fixed 3-step Newton polish
on the zero-free input.  No quantity of the input ever selects a code path,
so the decision count of this method is 0 by construction.  A stage stops
once its iterate moves less than tol, which bounds its eigen-residual by
||F||_2 tol.  The price is a genuine failure mode: dominant eigenvalues of
equal magnitude never settle, and are detected and flagged rather than
resolved.  The certificate of ``RootReport.answering`` flags a root the
polish does not recover.
"""

from __future__ import annotations

import math
from operator import mul
from dataclasses import dataclass

from .poly import MonicPolynomial, deflate, ldexp_complex, scaled_horner
from .poly import evaluate  # noqa: F401 - unused; bench/spans.py wraps powiter.evaluate
from .report import RootReport

_POLISH_STEPS = 3
# An equal-magnitude tie: the last _WINDOW residuals all above this floor,
# their fitted decay ratio within this tolerance of 1.
_WINDOW = 8
_OSCILLATION_FLOOR = 1e-8
_RATIO_TOL = 0.05


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
    eigenvector: tuple[complex, ...]
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
    """Geometric decay ratio fitted to a residual sequence: exp of the
    least-squares slope of log r against the step index k = 0..n-1, whose
    centred squares sum to n(n**2 - 1)/12."""
    logs = [math.log(r) for r in history if r > 1e-14]
    n = len(logs)
    if n < 4:
        return None
    mean_k, mean_y = (n - 1) / 2, sum(logs) / n
    covariance = sum((k - mean_k) * (y - mean_y) for k, y in enumerate(logs))
    return math.exp(covariance / (n * (n * n - 1) / 12))


def _norm(v: list[complex]) -> float:
    """The 2-norm of ``v`` by ``math.hypot``, whose squares neither underflow
    nor overflow: it is 0 only for a zero vector, and inf only past the
    double range."""
    return math.hypot(*[z.real for z in v], *[z.imag for z in v])


def _vdot(a: list[complex], b: list[complex]) -> complex:
    """The inner product sum(conj(a_i) * b_i)."""
    return sum(map(mul, map(complex.conjugate, a), b))


def power_iterate(
    F: CompanionMatrix,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> PowerIterResult:
    """Power iteration from the last basis vector, Rayleigh-quotient readout.

    The per-step residual is the phase-aligned displacement
    step_n = ||b_n - phi b_{n-1}||, with |phi| = 1 chosen to cancel the
    rotating phase of a complex dominant eigenvalue, and the run has
    converged at the first step with step_n < tol.  That one test bounds the
    eigen-residual too: b_n = phi b_{n-1} + e and F b_{n-1} = |F b_{n-1}| b_n
    give F b_n - lambda_n b_n = (I - b_n b_n*) F e for the Rayleigh quotient
    lambda_n = b_n* F b_n, so ||F b_n - lambda_n b_n|| <= ||F||_2 step_n.
    lambda is read once, at the end.  An iterate whose norm overflows ends
    the run early and unconverged, with fewer than ``max_iters`` iterations.
    An exactly zero iterate F b = 0 ends the run converged with eigenvalue
    0: b is an eigenvector of 0.

    The vectors are lists of complex: at degrees 2-8 an array library's
    per-call cost outweighs its vector loops (at d = 16 it no longer does).
    """
    d = len(F.coeffs)
    if d < 1:
        raise ValueError("empty matrix")
    # F b = (head * b[-1], b[:-1] - tail * b[-1]).
    head, tail = -F.coeffs[0], F.coeffs[1:]
    b = [0j] * (d - 1) + [1 + 0j]
    history: list[float] = []
    converged = False
    step = math.inf
    # Pass n forms w = F b for the n-th iterate, then takes step n + 1.
    for n in range(max_iters + 1):
        last = b[-1]
        w = [head * last, *[x - c * last for x, c in zip(b, tail)]]
        if step < tol:
            converged = True
            break
        if n == max_iters:
            break
        norm_w = _norm(w)
        if not math.isfinite(norm_w):
            break
        if norm_w == 0.0:
            converged = True
            break
        b_new = [y / norm_w for y in w]
        inner = _vdot(b, b_new)
        mag = math.hypot(inner.real, inner.imag)
        phase = inner / mag if mag > 0 else 1 + 0j
        step = _norm([y - phase * x for x, y in zip(b, b_new)])
        history.append(step)
        b = b_new
    return PowerIterResult(
        # The Rayleigh quotient of the last completed step: w = F b, or 0.
        eigenvalue=_vdot(b, w) if history else 0j,
        eigenvector=tuple(b),
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
