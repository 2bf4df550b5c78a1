"""Splittings A = U - V: construction, classification, iteration matrices.

A splitting keeps a read-only copy of U and the ``ToleranceProfile`` it
was built with, which every decision about it reads; A is kept by
reference, so writing into A invalidates its splittings.  V is not
stored: a sweep step needs only A and U (``CachedSolver.correct``), and
the dense V = U - A is formed on first use, for the diagnostics.
Classification produces verdicts, never exceptions; the public
constructive operations (induced splittings, closed forms) raise when
their hypotheses fail because their outputs are undefined otherwise.

``classify`` decides every product class by one rule (Berman and Plemmons,
ch. 7): the class holds iff its family's base condition holds and its
product X, U#X or XU# (regular, weak type I, type II) is entrywise >= 0.
A false verdict's witness is the first failed base condition, else the
product's most negative entry.

======  ===============================================  ====
family  base condition                                   X
======  ===============================================  ====
G       proper, U# >= 0                                  V
plain   U nonsingular, U# >= 0                           V
quasi   U nonsingular, index(I - U^-1 V) <= 1, U# >= 0   V K1
======  ===============================================  ====

with K1 = (I - U^-1 V)(I - U^-1 V)#.  I - V U^-1 = U (I - U^-1 V) U^-1 has
the same index, and K2 = (I - V U^-1)#(I - V U^-1) gives K2 V U^-1 = X U^-1.

A's sweep operator, the one matrix sweeps multiply by, is CSR when it is
large and sparse enough for CSR to pay, else dense (see
``CSR_MIN_ORDER``).  It, the dense V, the factors U#V and VU#, the class
report (its witnesses a read-only mapping) and the facts of T = U#V that
``classify`` and the verifiers share (its spectrum, K1 from the one
index-1 decision on I - T, and index(T) <= 1) are formed on first use,
once.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from .core import (
    DEFAULT_TOL,
    CachedSolver,
    ToleranceProfile,
    _group_inverse_or_none,
    _kept,
    _nonsingular,
    _same_range_and_null,
    _spectrum,
    as_square,
    group_inverse,
)
from .errors import (
    DimensionMismatchError,
    IndexGreaterThanOneError,
    MismatchedSplittingError,
    RangeNullConditionError,
    SingularIminusHError,
    ZeroDiagonalError,
)

__all__ = [
    "Splitting",
    "Witness",
    "SplittingClassReport",
    "make_splitting",
    "classify",
    "alternating_iteration_matrix",
    "companion_matrix",
    "induced_splitting",
    "b_sharp_closed_form",
    "diag_scaling_splitting",
]


# Storage rule for A's sweep operator: CSR from order
# CSR_MIN_ORDER on, with at most CSR_MAX_FILL of the entries nonzero.
# Measured matvec times (2-vCPU Xeon, numpy 2.4, scipy 1.17): dense 3.3 us
# vs CSR 6.2 us at order 100 (tridiagonal), 8.9 vs 6.9 us at order 200,
# 30 vs 7.8 us at order 400 (5-point stencil).  At order 400, CSR still
# wins at 40 nonzeros a row (19.5 vs 23.6 us) and loses at 80 (33.5 vs
# 27.8 us).
CSR_MIN_ORDER = 200
CSR_MAX_FILL = 0.1


def _sweep_operator(m: np.ndarray):
    """``m`` as a ``scipy.sparse.csr_array`` when the rule above says CSR
    pays, else ``m`` itself."""
    n = m.shape[0]
    if n < CSR_MIN_ORDER or np.count_nonzero(m) > CSR_MAX_FILL * n * n:
        return m
    from scipy.sparse import csr_array

    return csr_array(m)


def _k1(t: np.ndarray, rank_tol: float) -> np.ndarray | None:
    """K1 = (I - T)(I - T)#, read-only, or None when index(I - T) > 1."""
    imt = np.eye(t.shape[0]) - t
    imt_sharp = _group_inverse_or_none(imt, rank_tol)
    return None if imt_sharp is None else _kept(imt @ imt_sharp)


@dataclass(frozen=True, eq=False)
class Splitting:
    """One splitting A = U - V with its cached solver for U.

    Construct via :func:`make_splitting`.  A's sweep operator (dense or CSR
    by the storage rule above), the dense ``v = u - a``, the factors and
    the facts of U#V are formed on first use, once.
    Splittings compare and hash by identity: their fields are arrays.
    """

    a: np.ndarray
    u: np.ndarray
    solver: CachedSolver = field(repr=False)
    tol: ToleranceProfile = field(repr=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def v(self) -> np.ndarray:
        """V = U - A as a dense matrix."""
        return _kept(self.u - self.a)

    @cached_property
    def a_op(self):
        """A's sweep operator, for the residuals that sweeps and runs form."""
        return _sweep_operator(self.a)

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """Single-step iteration matrix U# V (U^-1 V when U is nonsingular)."""
        return _kept(self.solver.solve(self.v))

    @cached_property
    def reversed_iteration_matrix(self) -> np.ndarray:
        """Companion-side factor V U#."""
        return _kept(self.solver.right_apply(self.v))

    @cached_property
    def spectrum(self) -> tuple[float, float, bool]:
        """(rho, gamma, has_eigenvalue_one) of U#V, from one ``eigvals``."""
        return _spectrum(self.iteration_matrix, self.tol.one_tol)

    @cached_property
    def k1(self) -> np.ndarray | None:
        """K1 = (I - U#V)(I - U#V)#, or None when index(I - U#V) > 1."""
        return _k1(self.iteration_matrix, self.tol.rank_tol)

    @cached_property
    def index_at_most_one(self) -> bool:
        """index(U#V) <= 1."""
        return _group_inverse_or_none(self.iteration_matrix, self.tol.rank_tol) is not None

    _report = cached_property(lambda self: _class_report(self))  # what classify hands out


def make_splitting(a, u, tol: ToleranceProfile = DEFAULT_TOL) -> Splitting:
    """Build a splitting of ``a`` (kept by reference) from a read-only copy of ``u``.

    Raises
    ------
    DimensionMismatchError
        If A and U are not square matrices of the same order.
    IndexGreaterThanOneError
        If U is singular and U# does not exist.
    """
    a = as_square(a)
    u = _kept(as_square(np.array(u, dtype=float)))
    if a.shape != u.shape:
        raise DimensionMismatchError(
            f"A has shape {a.shape} but U has shape {u.shape}"
        )
    return Splitting(a=a, u=u, solver=CachedSolver(u, tol), tol=tol)


def diag_scaling_splitting(
    a, alpha: float, tol: ToleranceProfile = DEFAULT_TOL
) -> Splitting:
    """Splitting with U = alpha * diag(A).

    Raises
    ------
    ZeroDiagonalError
        If diag(A) contains a zero entry.
    """
    a = as_square(a)
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    d = np.diag(a)
    if np.any(d == 0.0):
        raise ZeroDiagonalError("diag(A) has a zero entry")
    return make_splitting(a, np.diag(alpha * d), tol)


@dataclass(frozen=True)
class Witness:
    """Why a classification verdict is false.

    ``min_entry`` carries the most negative entry for sign failures and is
    None for structural failures (subspace mismatch, missing inverse, index).
    """

    check: str
    matrix: str
    min_entry: float | None = None

    def describe(self) -> str:
        if self.min_entry is None:
            return self.check
        return f"{self.check}: most negative entry of {self.matrix} is {self.min_entry:.6g}"


@dataclass(frozen=True)
class SplittingClassReport:
    """Verdicts for the ten splitting classes plus witnesses for failures."""

    is_proper: bool
    is_g_regular: bool
    is_g_weak_regular_type1: bool
    is_g_weak_regular_type2: bool
    is_regular: bool
    is_weak_regular_type1: bool
    is_weak_regular_type2: bool
    is_quasi_regular: bool
    is_quasi_weak_regular_type1: bool
    is_quasi_weak_regular_type2: bool
    witnesses: MappingProxyType[str, Witness]

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in _VERDICTS}


_VERDICTS = tuple(f.name for f in fields(SplittingClassReport) if f.name != "witnesses")
# The product classes of each family, in the order of the report's fields:
# is_{family}regular, is_{family}weak_regular_type1, ..._type2.
_PRODUCT_CLASSES = ("regular", "weak_regular_type1", "weak_regular_type2")


def _sign_witness(m: np.ndarray, name: str, tol: ToleranceProfile) -> Witness | None:
    """None if ``m`` is entrywise >= 0, else the witness of its most negative entry."""
    lo = float(m.min()) if m.size else 0.0
    if lo >= -tol.nonneg_tol:
        return None
    return Witness(check=f"{name} >= 0", matrix=name, min_entry=lo)


def classify(s: Splitting) -> SplittingClassReport:
    """All ten class verdicts for one splitting, under its own profile.

    The nine product classes follow the family table in the module
    docstring.  A verdict is false exactly when it has a witness.
    Failures are verdicts with witnesses, never exceptions.  The report
    is computed on the first call and the same one returned after.
    """
    return s._report


def _class_report(s: Splitting) -> SplittingClassReport:
    proper_w = None
    if not _same_range_and_null(s.u, s.a, s.tol):
        proper_w = Witness(check="range(U) == range(A) and null(U) == null(A)", matrix="U")
    usharp_w = _sign_witness(s.solver.inverse_like(), "U#", s.tol)
    uv, vu = s.iteration_matrix, s.reversed_iteration_matrix
    plain = ((s.v, "V"), (uv, "U#V"), (vu, "VU#"))

    singular_w = Witness(check="U is singular", matrix="U")
    nonsingular_w = usharp_w if s.solver.is_nonsingular else singular_w
    quasi_w, quasi = nonsingular_w, ()
    if s.solver.is_nonsingular:
        if s.k1 is None:
            quasi_w = Witness(check="index(I - U^-1 V) or index(I - V U^-1) exceeds 1",
                              matrix="I - U^-1 V")
        else:
            x = s.v @ s.k1
            quasi = ((x, "V K1"), (s.solver.solve(x), "U^-1 V K1"),
                     (s.solver.right_apply(x), "K2 V U^-1"))

    witnesses = {"is_proper": proper_w} if proper_w else {}
    for family, base_w, products in (
        ("g_", proper_w or usharp_w, plain),
        ("", nonsingular_w, plain),
        ("quasi_", quasi_w, quasi),
    ):
        for i, product_class in enumerate(_PRODUCT_CLASSES):
            # products[i] is read only when the base holds
            w = base_w or _sign_witness(*products[i], s.tol)
            if w is not None:
                witnesses[f"is_{family}{product_class}"] = w
    verdicts = {name: name not in witnesses for name in _VERDICTS}
    return SplittingClassReport(**verdicts, witnesses=MappingProxyType(witnesses))


def _check_shared_a(splits):
    """The one A of 1 to 3 splittings, built with one profile: each A is the
    first one's object or equal to it."""
    if not 1 <= len(splits) <= 3:
        raise ValueError("expected between 1 and 3 splittings")
    a = splits[0].a
    if any(s.a is not a and not np.array_equal(s.a, a) for s in splits[1:]):
        raise MismatchedSplittingError("all splittings must share the same coefficient matrix")
    if any(s.tol != splits[0].tol for s in splits[1:]):
        raise MismatchedSplittingError("all splittings must be built with one tolerance profile")
    return a


def _product(factors) -> np.ndarray:
    """factors[-1] @ ... @ factors[0]: the first factor is applied first."""
    return reduce(lambda h, t: t @ h, factors)


def alternating_iteration_matrix(splits) -> np.ndarray:
    """Iteration matrix of the alternating sweep, first splitting applied first.

    For splittings [K-L, U-V, X-Y] this is (X#Y)(U#V)(K#L); ordinary
    inverses replace group inverses wherever U is nonsingular.
    """
    _check_shared_a(splits)
    return _product([s.iteration_matrix for s in splits])


def _iteration_operator(splits):
    """Matrix-free alternating iteration matrix x -> U_k#(V_k(...U_1#(V_1 x))).

    A ``scipy.sparse.linalg.LinearOperator`` over A's sweep operator: each
    factor is ``correct(x, -(A x))``, which is U#V x, so no V is formed.
    It applies the factors itself rather than through ``schemes.sweep``,
    so it adds no sweep passes.
    """
    from scipy.sparse.linalg import LinearOperator

    a = splits[0].a_op

    def matvec(x):
        x = np.ravel(x)
        for s in splits:
            x = s.solver.correct(x, -(a @ x))
        return x

    n = splits[0].n
    return LinearOperator((n, n), matvec=matvec, dtype=float)


def companion_matrix(splits) -> np.ndarray:
    """Reversed-order companion matrix, (YX#)(VU#)(LK#) for three splittings.

    Shares its spectral radius with the alternating iteration matrix and is
    the nonnegativity carrier in the type-II convergence arguments.
    """
    _check_shared_a(splits)
    return _product([s.reversed_iteration_matrix for s in splits])


def induced_splitting(a, h, tol: ToleranceProfile = DEFAULT_TOL) -> Splitting:
    """The unique splitting A = B - C with B#C = H, where B = A (I - H)^-1.

    Raises
    ------
    SingularIminusHError
        If I - H is singular at ``rank_tol``.
    """
    a = as_square(a)
    h = as_square(h)
    if a.shape != h.shape:
        raise DimensionMismatchError("A and H must have the same shape")
    imh = np.eye(h.shape[0]) - h
    if not _nonsingular(imh, tol.rank_tol):
        raise SingularIminusHError("I - H is singular; no induced splitting")
    b = np.linalg.solve(imh.T, a.T).T
    return make_splitting(a, b, tol)


def b_sharp_closed_form(splits) -> np.ndarray:
    """Closed form X#(K + X - A + Y U# L)K# for the induced B's group inverse.

    Requires exactly three splittings of one matrix A plus the range/null
    condition on the middle factor.

    Raises
    ------
    RangeNullConditionError
        If range/null of K + X - A + Y U# L differ from those of A.
    """
    if len(splits) != 3:
        raise ValueError("closed form needs exactly three splittings")
    a = _check_shared_a(splits)
    sk, _, sx = splits
    middle = _middle_factor(splits)
    if not _same_range_and_null(middle, a, sk.tol):
        raise RangeNullConditionError(
            "K + X - A + Y U# L does not share range/null with A"
        )
    return sx.solver.solve(sk.solver.right_apply(middle))


def _middle_factor(splits) -> np.ndarray:
    """U1 + U2 - A for two splittings; K + X - A + Y U# L for three."""
    first, last = splits[0], splits[-1]
    middle = first.u + last.u - first.a
    if len(splits) == 3:
        middle = middle + last.v @ splits[1].solver.solve(first.v)
    return middle


def _induced_from_product(splits, middle=None, nonsingular=None) -> Splitting | None:
    """Splitting A = B - C induced by a two- or three-step product.

    B = U_first M# U_last with M the middle factor (``np.linalg.solve(M,
    U_last)`` when M is nonsingular), which equals A (I - H)^-1 whenever
    that exists; None when M# or B# does not exist.  A caller that has
    formed M and decided whether it is nonsingular passes both.
    """
    first, last = splits[0], splits[-1]
    if middle is None:
        middle = _middle_factor(splits)
        nonsingular = _nonsingular(middle, first.tol.rank_tol)
    try:
        m_last = (np.linalg.solve(middle, last.u) if nonsingular
                  else group_inverse(middle, first.tol) @ last.u)
        return make_splitting(first.a, first.u @ m_last, first.tol)
    except IndexGreaterThanOneError:  # M# or B# does not exist
        return None
