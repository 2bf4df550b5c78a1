"""Iteration drivers for single-, two- and three-step alternating sweeps.

One iteration means one full multi-splitting pass.  Sweeps form neither the
product iteration matrix nor any V: each step is the residual correction
U x' = U x + r, r = b - A x, which equals U#(V x + b) (Saad, *Iterative
Methods for Sparse Linear Systems*, 2003, sec. 4.1), the splitting's own
``Splitting.correct``.  One routine runs the steps, ``splittings._pass``:
the matrix-free pass, P v, ARPACK's H x and the formed H all call it.  A
pass takes one of two forms:

* matrix-free: ``_pass`` with A's sweep operator (``system.matvec``, its
  owner's: scipy's CSR kernel for large sparse A, ``ndarray.dot``
  otherwise), one matvec and one solve with U per splitting, k products
  with A; the residual a run forms for its stop rule is the next pass's
  first correction;
* formed: v <- M v + c for the vector v the run carries, computed s
  passes at a time by a window (below).

A pass is formed dense when every U is nonsingular and A is applied
dense, and CSR when A is applied as CSR and every U is diagonal and
nonsingular.  The run forms M and c once, inside its timed span, and its
later passes are formed: a dense pass after n matrix-free passes on an
order-n A, since forming it costs O(n^3), and a CSR pass after one, whose
forming costs about 30-90 matrix-free passes at order 400 and whose
residual the run carries on.  The pass is affine, x <- H x + P b, and leaves
the residual r <- G r, G = I - A P; the shifted pass is delta times it
plus (1 - delta) times the vector (delta = 1 unshifted).  So M is
delta T + (1 - delta) I, for T the pass run on the columns of I in A's
storage, dense or sorted CSR (``Alternation._identity_pass``).  P is never
formed: P v is ``_pass`` from x = 0 on b = v, whose first residual is v
itself, and not ``sweep``, which is one call a pass.  The residual
rule without history reads only r, so the run carries v = r, with T = G
and c = 0, and sums the carried r: after f matrix-free passes x is
x_f + delta P (r_f + ... + r_(m-1)), formed only when the carried r meets
the tolerance or the run ends.  That r is then checked against the true
b - A x (van der Vorst and Ye, *SIAM J. Sci. Comput.* 22 (2000) 835-852):
the run stops if b - A x meets the tolerance too, and goes on from it if
not.  The closing b - A x of a run that reaches max_iterations is such a
check too, so its status agrees with its final residual.  Any other rule,
or the history, reads x, so the run carries v = x, with T = H and
c = delta P b.

The window keeps the last s carried vectors as the rows of a block W and
computes the next s in one product, W (M^s)^T + c_s, where c_s = 0 when
the run carries r and c_2s = M^s c_s + c_s when it carries x: one BLAS-3
product in place of s dependent matrix-vector products (the s-step idea of
Chronopoulos and Gear, *J. Comput. Appl. Math.* 25 (1989) 153-168).  s
starts at 1 and doubles once every n passes, W <- [W; next block] and
M^s <- M^s M^s, so squaring never costs more flops than the passes already
run.  s is at most 64, and no product of the window reaches the 524,288
multiply-adds from which OpenBLAS threads a product (s is 32 at order 100;
a squaring above that is done in row chunks).  A CSR M forms no M^s: each
row of its block is c (or 0) plus M times the row before, one sparse
product through the kernel of A's CSR sweep operator, bit for bit the pass
one row at a time.  So s doubles every block, up to 32.  At the paper's
orders that product costs less than the k sparse products and 3k vector
operations of a matrix-free pass.  ``sweep`` stays one call a pass and
hands out the window's next row.  The run starts the window from the
vector it carries, and after a failed true-residual check starts it
again, at s = 1, from the true b - A x.  The sum of the carried r is kept
once a block.

The run reads its stop metric once a block too, when it keeps no history:
for each new block of at least 8 rows one reduction gives every row's
squared metric (the carried r, exact - x, or x minus the row before), and
the leading rows whose value lies strictly inside ((tol (1 + 1e-10))^2,
1e300) are not tested one by one, since their 2-norm can be neither below
tol nor non-finite.  The first row not cleared and every row after it in
the block take the scalar test, so iterations, status, which carried r
is checked against b - A x, and final_x are bit for bit those of a test
a pass.  ``sweep`` is still one call a pass.

A run of m passes thus applies A 1 + k*m times matrix-free.  When it forms
the pass it applies A 1 + k*f times for its first f passes and the final
residual, f = n for a dense pass and 1 for a CSR one.  A carried x adds
k - 1 for c = delta P b, and one a later pass when the rule or the history
reads its residual.  A carried r adds k a true-residual check, the
closing one included: k - 1 for P and one for b - A x.  Forming M costs
k - 1 products of A with an n x n block for a carried x (H's first step,
correct(I, -A), needs none) and k for a carried r.  Dense, that is no more
flops than the n passes before it; measured at order 196, runs of at most
n passes take the same time as runs that never form, 2- and 3-step runs
have repaid the forming by pass n + 35, and 1-step runs, whose formed
pass saves only per-pass overhead, pay up to 11% just past n and are even
by pass 1.5 n.

The diagnostics in :mod:`altsplit.splittings` and :mod:`altsplit.analysis`
read H from the x side of ``_identity_pass``, dense, and the bench's rho
from ARPACK on H x, ``_pass`` on b = 0.

A run stops at the first non-finite stop metric and reports it as not
converged (status ``non_finite``), rather than iterating on overflowed or
NaN iterates.  ``final_residual`` is always the norm of b - A ``final_x``.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import as_vector
from .splittings import (
    Alternation,
    Splitting,
    _check_shared_a,
    _pass,
    _system,
)

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


# A window product has fewer multiply-adds than 2 * 4 * 65536, where OpenBLAS
# gives a matrix product a second thread.  On a 2-vCPU host (OpenBLAS 0.3.31)
# the (52 x 100)(100 x 100) product ran single-threaded and the 53-row one
# threaded, at the same 0.69 us a row; a threaded product stalls whenever the
# other core is busy (6 us a row seen at 64 rows).  So s is at most 32 at
# order 100, 16 at 150 and 64 up to order 90.
_WINDOW_CAP = 2 * 4 * 65536 - 1
# Below order 91 the row limit sets s.  On the same host, against 32 and
# 128 rows (the least per-pass time of 100 interleaved runs of each walk 10
# and walk 30 row, residual rule), 32 rows took 0-5% longer a pass and 128
# rows from 2% less to 0.5% more; 64 rows compute half as many rows past a
# run's stop.
_WINDOW_ROWS = 64
# A screen of a block (``_Window.screen``) took 4-6 us carrying r and 5-9 us
# under the error and diff rules, at 2 to 64 rows of order 10 to 196, on
# the same host; the scalar test it spares a row took 0.6 us and 1.1 us.
# So blocks of fewer than 8 rows go unscreened: screening the 2- and 4-row
# blocks too made the walk 10, 30 and 100 rows 2-12% slower (least of 32
# runs a row, in 4 interleaved rounds).
_SCREEN_ROWS = 8
# A CSR window makes its rows one at a time, so it squares nothing and s
# doubles every block, up to _CSR_ROWS rows.  On the same host, against 16
# and 64 rows (the least per-pass time of 15 interleaved runs of each
# `bench laplace --grid 21` row and 6 of each grid 41 row, error and
# residual rules), 16 rows took 0-9% longer a pass and 64 rows from 4% less
# to 8% more; the two 32-row blocks hold 0.8 MB at order 1,600.
_CSR_ROWS = 32


class _Window:
    """The formed pass v <- M v + c of one run (c None for c = 0), computed
    s passes at a time: the block W of the last s carried vectors gives the
    next s as W (M^s)^T + c_s, and ``step`` hands them out one a pass (see
    the module docstring for the doubling rule and the cap).  The window
    holds M, M^s and two s x n blocks; a vector it hands out is a row of a
    block, valid for s passes.  A CSR M holds no M^s: it makes the s rows
    one at a time, each c (or 0) plus M times the row before through
    scipy's CSR kernel (``splittings._csr_product``), and s doubles every
    block, up to _CSR_ROWS.

    ``restart`` starts it, and starts it again after a failed true-residual
    check, from s = 1.  Carrying r, it keeps the sum of the vectors handed
    to it since then, once a block.  After ``screen`` it reads the run's
    stop metric once a block, and ``screened`` says whether the row
    ``step`` handed out last needs no test; ``sweep`` is still one call a
    pass.
    """

    def __init__(self, m, c):
        n = m.shape[0]
        self.m, self.c = m, c
        if type(m) is np.ndarray:
            self._chunk = max(1, _WINDOW_CAP // (n * n))  # rows of one product
            self._most = min(_WINDOW_ROWS, self._chunk)  # the largest s
            self._product, self._wait = None, n  # _wait: passes between doublings
        else:  # y += M x, scipy's kernel on M's arrays (``splittings._csr_product``)
            from scipy.sparse._sparsetools import csr_matvec

            self._most, self._wait = _CSR_ROWS, 0
            self._product = partial(csr_matvec, n, n, m.indptr, m.indices, m.data)
        self._lo = None  # no screen

    def screen(self, rule, tol, exact=None):
        """Read ``rule``'s stop metric once a block: the row itself (a
        carried r), exact - row (error rule) or the row minus the one before
        it (diff rule), whose squares one reduction sums for every new
        block of at least _SCREEN_ROWS rows.  A row is screened, and
        ``step`` sets ``screened`` as it hands it out, when it and every row
        before it in its block have a squared metric strictly inside
        (lo, 1e300), lo = (tol (1 + 1e-10))^2 but at least 1e-280.  Its
        2-norm as the run computes it, the root of a sum of the same
        nonnegative squares within n u of the screen's, is then finite and
        not below tol, so the run's scalar test could not stop there; it
        tests every other row itself.  NaN is never screened."""
        self._lo = max(tol * (1 + 1e-10), 1e-140) ** 2
        self._rule, self._exact = rule, exact

    def restart(self, v):
        """Carry on from v, at s = 1."""
        n = len(v)
        self._ms, self._cs = self.m, self.c  # M^s and c_s
        self._s, self._left = 1, self._wait  # _left: passes until s doubles
        self._block, self._spare = v[None, :].copy(), np.empty((1, n))
        self._i = self._clear = 0  # _clear: the end of the screened rows
        self._sum = np.zeros(n) if self.c is None else None
        self.screened = False

    def step(self):
        """The carried vector one pass after the last one."""
        block, i = self._block, self._i + 1
        if i == self._s:
            block, i = self._advance(block)
        self._i = i
        self.screened = i < self._clear
        return block[i]

    def consumed(self):
        """The sum of the vectors handed to the window since it restarted,
        when it carries r."""
        return self._sum + self._block[:self._i].sum(axis=0)

    def _advance(self, block):
        """The block after the full ``block``, and the index of its first new row."""
        s, ms, cs = self._s, self._ms, self._cs
        if self._left <= 0 and 2 * s <= self._most:
            grown = np.empty((2 * s, block.shape[1]))
            grown[:s] = block
            self._next(block, grown[s:])
            if self._product is None:  # a CSR row needs only M and c
                if cs is not None:
                    self._cs = ms.dot(cs) + cs
                self._ms = self._square(ms)
            self._s, self._left = 2 * s, self._wait - s
            self._block, self._spare = grown, np.empty_like(grown)
            self._clear = s + self._screen(block[-1], grown[s:])
            return grown, s
        self._left -= s
        if self._sum is not None:
            self._sum += block[0] if s == 1 else block.sum(axis=0)
        spare = self._spare
        self._next(block, spare)
        self._block, self._spare = spare, block
        self._clear = self._screen(block[-1], spare)
        return spare, 0

    def _screen(self, last, rows):
        """The number of leading ``rows``, the new rows after the row
        ``last``, that the screen clears; 0 for a short block or no screen."""
        if self._lo is None or len(rows) < _SCREEN_ROWS:
            return 0
        if self._rule == "error_vs_exact":
            rows = rows - self._exact
        elif self._rule == "successive_diff":
            diff = np.empty_like(rows)
            np.subtract(rows[0], last, out=diff[0])
            np.subtract(rows[1:], rows[:-1], out=diff[1:])
            rows = diff
        sq = np.einsum("ij,ij->i", rows, rows)
        if self._lo < sq.min() and sq.max() < 1e300:  # NaN fails both
            return len(sq)
        return int(np.argmin((self._lo < sq) & (sq < 1e300)))  # the first row not cleared

    def _next(self, block, out):
        """out <- block (M^s)^T + c_s: the s vectors after ``block``'s rows.
        A CSR M makes them one at a time, each c (or 0) plus M times the
        row before it, as the kernel adds M v into a row."""
        if self._product is not None:
            out[...] = 0.0 if self._cs is None else self._cs
            last = block[-1]
            for row in out:
                self._product(last, row)
                last = row
            return
        np.dot(block, self._ms.T, out=out)
        if self._cs is not None:
            out += self._cs

    def _square(self, ms):
        """M^s M^s, in row chunks of at most _WINDOW_CAP multiply-adds."""
        squared, chunk = np.empty(ms.shape), self._chunk
        for j in range(0, len(ms), chunk):
            np.dot(ms[j:j + chunk], ms, out=squared[j:j + chunk])
        return squared


def _pass_storage(alternation) -> str | None:
    """The storage of the run's formed pass: "dense" when every U is
    nonsingular and A is applied dense, "csr" when A is applied as CSR and
    every U is diagonal and nonsingular, and None when no pass is formed."""
    system = alternation.system
    sparse = system.a_op is not system.a
    if all(s.u_nonsingular and (s._recip is not None or not sparse)
           for s in alternation.splits):
        return "csr" if sparse else "dense"
    return None


def _window(alternation, delta, b, carry_residual) -> _Window | None:
    """The window of the run's formed pass, or None when it has none.

    Its M is the shifted pass on I in the pass's storage
    (``Alternation._identity_pass``), delta T + (1 - delta) I (delta = 1
    unshifted): T = G = I - A P when the run carries r = b - A x, with
    c = 0, and T = H when it carries x, with c = delta P b.
    """
    storage = _pass_storage(alternation)
    if storage is None:
        return None
    system, splits = alternation.system, alternation.splits
    m = alternation._identity_pass(carry_residual, storage == "csr", delta)
    d = 1.0 if delta is None else delta
    c = None if carry_residual else d * _pass(splits, 0.0, b, b, system.matvec)
    return _Window(m, c)


def sweep(splits, x, b, r=None):
    """One alternating pass.

    ``splits`` is a sequence of splittings or an alternation, whose pass is
    matrix-free, x <- U_i#(V_i x + b) for each splitting in order; ``r``, if
    given, is b - A x for the ``x`` passed in.  Or it is the window that
    ``run`` builds for its formed pass v <- M v + c: it hands out the next
    row of its block, and makes a block product once every s passes; it
    reads neither ``b`` nor ``r``, and its ``x`` is the vector the run
    carries, x or r, which is the window's last output or the vector it
    restarted from.
    """
    if type(splits) is _Window:
        return splits.step()
    if isinstance(splits, Alternation):
        splits = splits.splits
    return _pass(splits, x, b, r, splits[0].system.matvec)


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
        window = step if type(step) is _Window else None
        i = passes.start - 1
        for i in passes:
            y = sweep(step, x, b, r)
            if window is not None and window.screened:
                x = y
                continue
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

    def carry_r(window, x, r, passes):
        """Formed passes that carry r <- G r; x = x + delta P (sum of the
        carried r) is formed when r meets the tolerance, and its true
        residual b - A x decides, or is carried on.  The run's last pass
        forms x and b - A x too, and that closing residual is one more
        check.  The r returned is b - A x for the x returned, or None."""
        d = 1.0 if config.delta is None else config.delta

        def moved(x):  # x + delta P (the sum of the carried r)
            v = window.consumed()
            return x + d * _pass(alternation.splits, 0.0, v, v, matvec)

        i = passes.start - 1
        for i in passes:
            r = sweep(window, r, b)
            if window.screened:
                continue
            metric = math.sqrt(r.dot(r))
            if metric < tol:
                x = moved(x)
                r = b - matvec(x)
                window.restart(r)
                metric = math.sqrt(r.dot(r))
                if metric < tol:
                    return i, "converged", x, r
            if not math.isfinite(metric):
                return i, "non_finite", moved(x), None
        x = moved(x)
        r = b - matvec(x)
        return i, "converged" if math.sqrt(r.dot(r)) < tol else None, x, r

    last = config.max_iterations
    start = time.perf_counter()
    # matrix-free for one pass, so that a carried r exists, before a CSR
    # pass, whose forming costs 30-90 passes at order 400; and for n passes
    # before a dense one, which cost no fewer flops than forming it
    free = 1 if _pass_storage(alternation) == "csr" else max(n, 1)
    iterations, status, x, r = carry_x(alternation.splits, config.delta, x, None,
                                       range(1, min(free, last) + 1))
    if status is None and iterations < last:
        rest = range(iterations + 1, last + 1)
        window = _window(alternation, config.delta, b, carry_residual)
        if window is not None and history is None:  # a history reads every pass
            window.screen(rule, tol, exact)
        if window is None:
            iterations, status, x, r = carry_x(alternation.splits, config.delta, x, r, rest)
        elif carry_residual:
            window.restart(r)
            iterations, status, x, r = carry_r(window, x, r, rest)
        else:
            window.restart(x)
            iterations, status, x, r = carry_x(window, None, x, r, rest)
            x = x.copy()  # a row of the window's block
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
