"""Iteration drivers for single-, two- and three-step alternating sweeps.

One iteration means one full multi-splitting pass.  Sweeps never form the
product iteration matrix; each pass costs one matvec with V per splitting
plus a cached solve with U.  The matvec goes through the splitting's stored
V, which is CSR for large sparse V and dense otherwise; ``run`` takes A's
sweep operator, formed by the same rule, from the first splitting.  The
iteration matrix itself is only assembled by the diagnostics in
:mod:`altsplit.splittings` and :mod:`altsplit.analysis`.

A run stops at the first non-finite stop metric and reports it as not
converged, rather than iterating on overflowed or NaN iterates.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_TOL, CachedSolver, ToleranceProfile, _nonsingular,
                   as_square, as_vector)
from .errors import MissingDeltaError
from .splittings import Splitting, _check_shared_a

__all__ = [
    "SchemeConfig",
    "IterationReport",
    "STOP_RULES",
    "sweep",
    "run",
    "run_shifted",
    "exact_solution",
]

STOP_RULES = ("residual", "error_vs_exact", "successive_diff")


@dataclass(frozen=True)
class SchemeConfig:
    """What to iterate and when to stop.

    ``splittings`` are applied in list order within each pass; ``delta``
    switches on the shifted update x <- delta*sweep(x) + (1-delta)*x.
    """

    splittings: tuple[Splitting, ...]
    stop_rule: str = "residual"
    tolerance: float = 1e-6
    max_iterations: int = 100_000
    delta: float | None = None
    record_history: bool = False

    def __post_init__(self):
        object.__setattr__(self, "splittings", tuple(self.splittings))
        if not 1 <= len(self.splittings) <= 3:
            raise ValueError("between 1 and 3 splittings required")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"stop_rule must be one of {STOP_RULES}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly inside (0, 1)")
        _check_shared_a(self.splittings)


@dataclass(frozen=True)
class IterationReport:
    """Outcome of a scheme run; mirrors the benchmark table columns."""

    iterations: int
    final_x: np.ndarray
    final_residual: float
    final_error: float | None
    elapsed_seconds: float
    converged: bool
    history: list[tuple[float, float | None]] | None = field(default=None)


def sweep(splits, x, b):
    """One alternating pass: x <- U_i#(V_i x + b) for each splitting in order."""
    for s in splits:
        x = s.solver.solve(s.v_op @ x + b)
    return x


@np.errstate(over="ignore", invalid="ignore")
def run(config: SchemeConfig, b, x0=None, exact=None) -> IterationReport:
    """Iterate the (possibly shifted) alternating scheme to the stop rule.

    Parameters
    ----------
    config : SchemeConfig
    b : array_like
        Right-hand side; must be consistent for a singular system if the
        residual rule is to be reachable (divergence is reported, not hidden).
    x0 : array_like, optional
        Initial vector, zero by default.
    exact : array_like, optional
        Reference solution; required for the error_vs_exact rule and used
        to fill the error column otherwise.

    Returns
    -------
    IterationReport
        ``converged`` is False when max_iterations is exhausted or the stop
        metric turns non-finite (the run stops at that pass); both are
        outcomes, not exceptions.
    """
    splits = config.splittings
    n = splits[0].n
    a = splits[0].a_op
    b = as_vector(b, n)
    x = np.zeros(n) if x0 is None else as_vector(x0, n).copy()
    if exact is not None:
        exact = as_vector(exact, n)
    if config.stop_rule == "error_vs_exact" and exact is None:
        raise ValueError("error_vs_exact stop rule needs an exact solution")

    delta = config.delta
    history: list[tuple[float, float | None]] | None = (
        [] if config.record_history else None
    )
    converged = False
    iterations = 0
    start = time.perf_counter()
    for iterations in range(1, config.max_iterations + 1):
        y = sweep(splits, x, b)
        x_new = delta * y + (1.0 - delta) * x if delta is not None else y

        if config.stop_rule == "residual":
            r = b - a @ x_new
        elif config.stop_rule == "error_vs_exact":
            r = exact - x_new
        else:
            r = x_new - x
        metric = math.sqrt(r @ r)  # bit for bit np.linalg.norm(r), without its dispatch

        if history is not None:
            res = float(np.linalg.norm(b - a @ x_new))
            err = float(np.linalg.norm(exact - x_new)) if exact is not None else None
            history.append((res, err))
        x = x_new
        if metric < config.tolerance:
            converged = True
            break
        if not math.isfinite(metric):
            break
    elapsed = time.perf_counter() - start

    return IterationReport(
        iterations=iterations,
        final_x=x,
        final_residual=float(np.linalg.norm(b - a @ x)),
        final_error=(
            float(np.linalg.norm(exact - x)) if exact is not None else None
        ),
        elapsed_seconds=elapsed,
        converged=converged,
        history=history,
    )


def run_shifted(config: SchemeConfig, b, x0=None, exact=None) -> IterationReport:
    """Run the delta-shifted scheme; ``config.delta`` must be set."""
    if config.delta is None:
        raise MissingDeltaError("run_shifted needs a config with delta set")
    return run(config, b, x0=x0, exact=exact)


def exact_solution(a, b, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """A^-1 b for nonsingular A, else the group-inverse solution A# b."""
    a = as_square(a)
    b = as_vector(b, a.shape[0])
    if _nonsingular(a, tol.rank_tol):
        return np.linalg.solve(a, b)
    return CachedSolver(a, tol).solve(b)
