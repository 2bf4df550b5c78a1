"""Iteration drivers for single-, two- and three-step alternating sweeps.

One iteration means one full multi-splitting pass.  Sweeps form neither the
product iteration matrix nor any V: each step is the residual correction
U x' = U x + r, r = b - A x, which equals U#(V x + b) (Saad, *Iterative
Methods for Sparse Linear Systems*, 2003, sec. 4.1), the splitting's own
``Splitting.correct``.  So a pass costs one matvec with A's sweep operator
(``system.a_op``, its owner's: CSR for large sparse A, dense otherwise) and
one solve with U per splitting.  ``run`` hands the residual
it forms for its stop rule on to the next pass.  The iteration matrix
itself is only assembled by the diagnostics in :mod:`altsplit.splittings`
and :mod:`altsplit.analysis`.

A run stops at the first non-finite stop metric and reports it as not
converged, rather than iterating on overflowed or NaN iterates.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import as_vector
from .splittings import Splitting, _check_shared_a, _system

__all__ = [
    "SchemeConfig",
    "IterationReport",
    "STOP_RULES",
    "sweep",
    "run",
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


def sweep(splits, x, b, r=None):
    """One alternating pass: x <- U_i#(V_i x + b) for each splitting in order.

    ``r``, if given, is b - A x for the ``x`` passed in.
    """
    a = splits[0].system.a_op
    for s in splits:
        x = s.correct(x, b - a @ x if r is None else r)
        r = None
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
    a = splits[0].system.a_op
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
    # r = b - A x, formed once a pass for the rule or history and reused by
    # the next sweep
    keep_residual = config.stop_rule == "residual" or history is not None
    r = None
    converged = False
    iterations = 0
    start = time.perf_counter()
    for iterations in range(1, config.max_iterations + 1):
        y = sweep(splits, x, b, r)
        x_new = delta * y + (1.0 - delta) * x if delta is not None else y
        if keep_residual:
            r = b - a @ x_new

        if config.stop_rule == "residual":
            m = r
        elif config.stop_rule == "error_vs_exact":
            m = exact - x_new
        else:
            m = x_new - x
        metric = math.sqrt(m @ m)  # bit for bit np.linalg.norm(m), without its dispatch

        if history is not None:
            err = float(np.linalg.norm(exact - x_new)) if exact is not None else None
            history.append((float(np.linalg.norm(r)), err))
        x = x_new
        if metric < config.tolerance:
            converged = True
            break
        if not math.isfinite(metric):
            break
    elapsed = time.perf_counter() - start

    if r is None:
        r = b - a @ x
    return IterationReport(
        iterations=iterations,
        final_x=x,
        final_residual=float(np.linalg.norm(r)),
        final_error=(
            float(np.linalg.norm(exact - x)) if exact is not None else None
        ),
        elapsed_seconds=elapsed,
        converged=converged,
        history=history,
    )


def exact_solution(a, b) -> np.ndarray:
    """A^-1 b for nonsingular A, else the group-inverse solution A# b, from
    ``a`` (an array or its owner)."""
    system = _system(a)
    b = as_vector(b, system.n)
    if system.is_nonsingular:
        return np.linalg.solve(system.a, b)
    return system.factored.group_inverse() @ b
