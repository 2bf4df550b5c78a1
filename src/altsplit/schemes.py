"""Iteration drivers for single-, two- and three-step alternating sweeps.

One iteration means one full multi-splitting pass.  Sweeps form neither the
product iteration matrix nor any V: each step is the residual correction
U x' = U x + r, r = b - A x, which equals U#(V x + b) (Saad, *Iterative
Methods for Sparse Linear Systems*, 2003, sec. 4.1), the splitting's own
``Splitting.correct``.  A pass takes one of two forms:

* matrix-free: one matvec with A's sweep operator (``system.matvec``, its
  owner's: CSR for large sparse A, dense otherwise) and one solve with U
  per splitting, k products with A; the residual a run forms for its stop
  rule is the next pass's first correction;
* formed: v <- M v + c, one n x n product, for the vector v the run
  carries.

The first n passes of a run on an order-n A are matrix-free.  Then, when
its alternation has a pass matrix P (A applied dense, every U
nonsingular; one splitting's P is U^-1), the run forms M and c once,
inside its timed span, and its later passes are formed.  The pass is
affine: x <- x + delta P r, and r <- G r with G = I - delta A P (delta = 1
unshifted).  The residual rule without history reads only r, so the run
carries v = r, with M = G and c = 0, and sums the carried r: x is
x_n + delta P (r_n + ... + r_(m-1)), formed only when the carried r meets
the tolerance or the run ends.  That r is then checked against the true b - A x (van der
Vorst and Ye, *SIAM J. Sci. Comput.* 22 (2000) 835-852): the run stops
if b - A x meets the tolerance too, and goes on from it if not.  Any
other rule, or the history, reads x, so the run carries v = x, with
M = H_delta = I - delta P A and c = delta P b.

A run of m passes thus applies A 1 + k*m times matrix-free.  When it forms
the pass it applies A 1 + k*n times for its first n passes and the final
residual, plus once a later pass when the rule or the history reads the
residual of a carried x.  A carried r costs one more per true-residual
check, and one for the final residual if the run does not end at a check.
Forming P and M costs no more flops than the n passes before it (one
diagonal U needs no n^3 product at all).  Measured at order 196, runs of at
most n passes take the same time as runs that never form; 2- and 3-step
runs have repaid the forming by pass n + 35, and 1-step runs, whose formed
pass saves only per-pass overhead, pay up to 11% just past n and are even
by pass 1.5 n.

The iteration matrix itself is only assembled by the diagnostics in
:mod:`altsplit.splittings` and :mod:`altsplit.analysis`.

A run stops at the first non-finite stop metric and reports it as not
converged (status ``non_finite``), rather than iterating on overflowed or
NaN iterates.  ``final_residual`` is always the norm of b - A ``final_x``.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import as_vector
from .splittings import Alternation, Splitting, _check_shared_a, _system

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
    """Outcome of a scheme run; mirrors the benchmark table columns.

    ``status`` says why the run stopped: ``converged`` (the stop metric fell
    below the tolerance), ``max_iterations`` or ``non_finite`` (the stop
    metric turned inf or NaN).
    """

    iterations: int
    final_x: np.ndarray
    final_residual: float
    final_error: float | None
    elapsed_seconds: float
    status: str
    history: list[tuple[float, float | None]] | None = field(default=None)
    converged = property(lambda self: self.status == "converged")


class _FormedPass(NamedTuple):
    """A pass formed once per run: v <- M v + c, with c = None for c = 0."""

    m: np.ndarray
    c: np.ndarray | None


def _formed_pass(alternation, delta, b, carry_residual) -> _FormedPass | None:
    """The formed pass of an alternation with a pass matrix P, else None.

    Carrying r = b - A x it is r <- G r, G = I - delta A P; carrying x it is
    x <- H_delta x + c, H_delta = I - delta P A and c = delta P b (delta = 1
    unshifted).  Either costs one n x n matrix product more than P itself,
    or only a scaling of A for one diagonal U.
    """
    p = alternation.pass_matrix
    if p is None:
        return None
    a, d = alternation.system.a, 1.0 if delta is None else delta
    # one diagonal U: P = U^-1 scales A's rows or columns, n^2 flops where
    # a product with P costs n^3
    recip = alternation.splits[0]._recip if len(alternation.splits) == 1 else None
    if carry_residual:
        ap = a.dot(p) if recip is None else a * recip
        return _FormedPass(_identity_minus(d, ap), None)
    pa = p.dot(a) if recip is None else recip[:, None] * a
    return _FormedPass(_identity_minus(d, pa), d * p.dot(b))


def _identity_minus(d, m):
    """I - d m, formed in the new array m: bit for bit np.eye(n) - d * m."""
    m *= -d
    m.flat[::len(m) + 1] += 1.0
    return m


def sweep(splits, x, b, r=None):
    """One alternating pass.

    ``splits`` is a sequence of splittings or an alternation, whose pass is
    matrix-free, x <- U_i#(V_i x + b) for each splitting in order; ``r``, if
    given, is b - A x for the ``x`` passed in.  Or it is the formed pass that
    ``run`` builds, v <- M v + c, one product with M; it reads neither ``b``
    nor ``r``, and its ``x`` is the vector the run carries, x or r.
    """
    if type(splits) is _FormedPass:
        m, c = splits
        return m.dot(x) if c is None else m.dot(x) + c
    if isinstance(splits, Alternation):
        splits = splits.splits
    matvec = splits[0].system.matvec
    for s in splits:
        x = s.correct(x, b - matvec(x) if r is None else r)
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
        ``status`` is ``max_iterations`` when max_iterations is exhausted
        and ``non_finite`` when the stop metric turns non-finite (the run
        stops at that pass); both are outcomes, not exceptions.
        ``final_residual`` is always the norm of b - A ``final_x``.
    """
    alternation = Alternation(config.splittings)
    n = alternation.system.n
    matvec = alternation.system.matvec
    b = as_vector(b, n)
    x = np.zeros(n) if x0 is None else as_vector(x0, n).copy()
    if exact is not None:
        exact = as_vector(exact, n)
    rule, tol = config.stop_rule, config.tolerance
    if rule == "error_vs_exact" and exact is None:
        raise ValueError("error_vs_exact stop rule needs an exact solution")

    history: list[tuple[float, float | None]] | None = (
        [] if config.record_history else None
    )
    # r = b - A x, formed once a pass for the rule or history and reused by
    # the next sweep; only the residual rule without history reads r alone
    keep_residual = rule == "residual" or history is not None
    carry_residual = rule == "residual" and history is None

    def carry_x(step, delta, x, r, passes):
        """Passes that carry x: through the splittings, shifted by delta, or
        formed.  Returns (last pass, status or None, x, r)."""
        i = passes.start - 1
        for i in passes:
            y = sweep(step, x, b, r)
            x_new = delta * y + (1.0 - delta) * x if delta is not None else y
            if keep_residual:
                r = b - matvec(x_new)

            if rule == "residual":
                m = r
            elif rule == "error_vs_exact":
                m = exact - x_new
            else:
                m = x_new - x
            metric = math.sqrt(m.dot(m))  # bit for bit np.linalg.norm(m), without its dispatch

            if history is not None:
                err = float(np.linalg.norm(exact - x_new)) if exact is not None else None
                history.append((float(np.linalg.norm(r)), err))
            x = x_new
            if metric < tol:
                return i, "converged", x, r
            if not math.isfinite(metric):
                return i, "non_finite", x, r
        return i, None, x, r

    def carry_r(step, x, r, passes):
        """Formed passes that carry r <- G r; x = x + delta P (sum of the
        carried r) is formed when r meets the tolerance, and its true
        residual b - A x decides, or is carried on.  The r returned is b - A x
        for the x returned, or None."""
        p, acc = alternation.pass_matrix, np.zeros(n)
        d = 1.0 if config.delta is None else config.delta
        i = passes.start - 1
        for i in passes:
            acc += r
            r = sweep(step, r, b)
            metric = math.sqrt(r.dot(r))
            if metric < tol:
                x, acc = x + d * p.dot(acc), np.zeros(n)
                r = b - matvec(x)
                metric = math.sqrt(r.dot(r))
                if metric < tol:
                    return i, "converged", x, r
            if not math.isfinite(metric):
                return i, "non_finite", x + d * p.dot(acc), None
        return i, None, x + d * p.dot(acc), None

    last = config.max_iterations
    start = time.perf_counter()
    # matrix-free for n passes (at least one, so that a carried r exists),
    # which cost no fewer flops than forming the pass
    iterations, status, x, r = carry_x(alternation.splits, config.delta, x, None,
                                       range(1, min(max(n, 1), last) + 1))
    if status is None and iterations < last:
        rest = range(iterations + 1, last + 1)
        formed = _formed_pass(alternation, config.delta, b, carry_residual)
        if formed is None:
            iterations, status, x, r = carry_x(alternation.splits, config.delta, x, r, rest)
        elif carry_residual:
            iterations, status, x, r = carry_r(formed, x, r, rest)
        else:
            iterations, status, x, r = carry_x(formed, None, x, r, rest)
    elapsed = time.perf_counter() - start

    if r is None:
        r = b - matvec(x)
    return IterationReport(
        iterations=iterations,
        final_x=x,
        final_residual=float(np.linalg.norm(r)),
        final_error=(
            float(np.linalg.norm(exact - x)) if exact is not None else None
        ),
        elapsed_seconds=elapsed,
        status=status or "max_iterations",
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
