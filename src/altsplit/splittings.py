"""The owner of A, splittings A = U - V, and the owner of their alternation.

A :class:`SystemMatrix` owns A: a read-only view of the given array (writing
into that array invalidates the owner and its splittings) and the
``ToleranceProfile`` that every decision about A and its splittings reads.
A splitting of A points to it and keeps a read-only copy of U and no V: a
sweep step needs only A and U (``CachedSolver.correct``).  An
:class:`Alternation` owns 1 to 3 splittings of one A, first applied first.
Each owner forms its facts on first use, once; a splitting (T = U#V) and an
alternation (T = H) share the code of the facts of an iteration matrix T.
Every builder takes A as an array or as its owner, and every function of a
tuple of splittings a list or an alternation.  Classification gives
verdicts, never exceptions; the public constructive operations (induced
splittings, closed forms) raise when their hypotheses fail because their
outputs are undefined otherwise.

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
    _Factored,
    _kept,
    _spectrum,
    as_square,
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
    "SystemMatrix",
    "Splitting",
    "Alternation",
    "SemiconvergenceCertificate",
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


# Storage rule for A's sweep operator: CSR from order CSR_MIN_ORDER on, with
# at most CSR_MAX_FILL of the entries nonzero.  Measured matvec times (2-vCPU
# Xeon, numpy 2.4, scipy 1.17): dense 3.3 us vs CSR 6.2 us at order 100
# (tridiagonal), 8.9 vs 6.9 us at order 200, 30 vs 7.8 us at order 400
# (5-point stencil).  At order 400, CSR still wins at 40 nonzeros a row
# (19.5 vs 23.6 us) and loses at 80 (33.5 vs 27.8 us).
CSR_MIN_ORDER = 200
CSR_MAX_FILL = 0.1


@dataclass(frozen=True, eq=False)
class SystemMatrix:
    """A, as a read-only view of the given array (no copy), and the facts of
    A that its splittings share.  Build every splitting of one A on one owner."""

    a: np.ndarray
    tol: ToleranceProfile = DEFAULT_TOL
    n = property(lambda self: self.a.shape[0])

    def __post_init__(self):
        a = as_square(self.a)
        object.__setattr__(self, "a", _kept(a.view()) if a.flags.writeable else a)

    @cached_property
    def a_op(self):
        """A's sweep operator: a ``scipy.sparse.csr_array`` if the rule above says so, else A."""
        n = self.n
        if n < CSR_MIN_ORDER or np.count_nonzero(self.a) > CSR_MAX_FILL * n * n:
            return self.a
        from scipy.sparse import csr_array

        return csr_array(self.a)

    # A's one factorization, and the facts read from it: (range projector,
    # null projector), the nonsingularity decision, and A# (A^-1 when A is
    # nonsingular), read-only, or None when index(A) > 1
    factored = cached_property(lambda self: _Factored(self.a, self.tol.rank_tol))
    projectors = property(lambda self: self.factored.projectors)
    is_nonsingular = property(lambda self: self.factored.nonsingular)
    a_sharp = property(lambda self: self.factored.sharp)

    @cached_property
    def is_m_matrix_with_property_c(self) -> bool:
        """A = sI - B with B >= 0, s >= rho(B) and s^-1 B semiconvergent.

        Off-diagonal entries must be nonpositive.  Property c is existential
        in s, and the minimal choice s = max(diag) can place spurious
        boundary eigenvalues (e.g. -1) on the unit circle of s^-1 B, so s is
        enlarged until s^-1 B has a strictly positive diagonal; the M-matrix
        verdict itself is unchanged by any valid choice of s.
        """
        a, n = self.a, self.n
        off = a - np.diag(np.diag(a))
        if off.size and float(off.max()) > self.tol.nonneg_tol:
            return False
        s0 = max(0.0, float(np.max(np.diag(a))) if n else 0.0)
        s = s0 + max(1.0, s0)
        # s^-1 B semiconvergent already requires rho(s^-1 B) <= 1, i.e. s >= rho(B).
        return _Matrix((s * np.eye(n) - a) / s, self.tol).certificate.verdict

    def shares_range_and_null(self, m) -> bool:
        """range(M) == range(A) and null(M) == null(A): M's projectors equal
        A's entrywise within ``eq_tol``; ``m`` is M or its factorization."""
        if not isinstance(m, _Factored):
            m = _Factored(as_square(m), self.tol.rank_tol)
        pairs = zip(m.projectors, self.projectors)
        return all(bool(np.all(np.abs(p - q) < self.tol.eq_tol)) for p, q in pairs)


def _system(a, tol: ToleranceProfile | None) -> SystemMatrix:
    """``a`` if it is an owner, else a new owner of the array ``a``; ``tol``
    is by default the owner's profile, or ``DEFAULT_TOL`` for an array."""
    if not isinstance(a, SystemMatrix):
        return SystemMatrix(a, DEFAULT_TOL if tol is None else tol)
    if tol not in (None, a.tol):
        raise MismatchedSplittingError("A's owner was built with another tolerance profile")
    return a


@dataclass(frozen=True)
class SemiconvergenceCertificate:
    """Spectral facts deciding whether lim T^k exists.

    ``verdict`` is true iff rho(T) <= 1 (up to the eigenvalue-1 slack),
    gamma(T) < 1 and index(I - T) <= 1; the limit matrix
    I - (I-T)(I-T)# is attached only then.
    """

    rho: float
    gamma: float
    has_eigenvalue_one: bool
    index_of_I_minus_T: int
    verdict: bool
    limit_matrix: np.ndarray | None = None


class _IterationFacts:
    """The facts of the iteration matrix T = ``iteration_matrix`` under the
    profile ``tol``, each formed on first use, once."""

    @cached_property
    def spectrum(self) -> tuple[float, float, bool]:
        """(rho, gamma, has_eigenvalue_one) of T, from one ``eigvals``."""
        return _spectrum(self.iteration_matrix, self.tol.one_tol)

    @cached_property
    def k1(self) -> np.ndarray | None:
        """K1 = (I - T)(I - T)#, read-only, or None when index(I - T) > 1."""
        imt = np.eye(self.iteration_matrix.shape[0]) - self.iteration_matrix
        imt_sharp = _Factored(imt, self.tol.rank_tol).sharp
        return None if imt_sharp is None else _kept(imt @ imt_sharp)

    @cached_property
    def index_at_most_one(self) -> bool:
        """index(T) <= 1."""
        return _Factored(self.iteration_matrix, self.tol.rank_tol).sharp is not None

    @cached_property
    def certificate(self) -> SemiconvergenceCertificate:
        """Whether lim T^k exists, from the spectrum and K1 above."""
        t, tol, (rho, g, has_one) = self.iteration_matrix, self.tol, self.spectrum
        n = t.shape[0]
        # When T is numerically the identity, I - T is pure round-off and its
        # relative rank is meaningless; anchor at T's unit scale instead.
        if n and float(np.max(np.abs(np.eye(n) - t))) <= tol.rank_tol:
            return SemiconvergenceCertificate(rho, 0.0, True, 1, True, np.eye(n))
        k = self.k1
        verdict = (rho <= 1.0 + tol.one_tol) and (g < 1.0 - tol.one_tol) and k is not None
        return SemiconvergenceCertificate(rho, g, has_one, 1 if k is not None else 2, verdict,
                                          np.eye(n) - k if verdict else None)


@dataclass(frozen=True, eq=False)
class _Matrix(_IterationFacts):
    """A bare iteration matrix T, square and float, and its facts."""

    iteration_matrix: np.ndarray
    tol: ToleranceProfile


@dataclass(frozen=True, eq=False)
class Splitting(_IterationFacts):
    """One splitting A = U - V of its owner's A, with its cached solver for U.

    Construct via :func:`make_splitting`.  ``a``, ``n`` and ``tol`` are the
    owner's.  The dense ``v = u - a``, the factors and the facts of T = U#V
    are formed on first use, once.  Splittings compare and hash by identity.
    """

    system: SystemMatrix
    u: np.ndarray
    solver: CachedSolver = field(repr=False)
    a = property(lambda self: self.system.a)
    n = property(lambda self: self.system.n)
    tol = property(lambda self: self.system.tol)
    # the owner's, kept here too, so that a sweep reads it with one lookup
    a_op = cached_property(lambda self: self.system.a_op)

    @cached_property
    def v(self) -> np.ndarray:
        """V = U - A as a dense matrix."""
        return _kept(self.u - self.a)

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """Single-step iteration matrix U# V (U^-1 V when U is nonsingular)."""
        return _kept(self.solver.solve(self.v))

    @cached_property
    def reversed_iteration_matrix(self) -> np.ndarray:
        """Companion-side factor V U#."""
        return _kept(self.solver.right_apply(self.v))

    _report = cached_property(lambda self: _class_report(self))  # what classify hands out


def make_splitting(a, u, tol: ToleranceProfile | None = None) -> Splitting:
    """Build a splitting of ``a``, an array or its owner, from a read-only
    copy of ``u``; ``tol`` is the owner's profile, or ``DEFAULT_TOL`` for an array.

    Raises
    ------
    DimensionMismatchError
        If A and U are not square matrices of the same order.
    IndexGreaterThanOneError
        If U is singular and U# does not exist.
    MismatchedSplittingError
        If ``a`` is an owner built with another profile than ``tol``.
    """
    system = _system(a, tol)
    u = _kept(as_square(np.array(u, dtype=float)))
    if system.a.shape != u.shape:
        raise DimensionMismatchError(f"A has shape {system.a.shape} but U has shape {u.shape}")
    return Splitting(system=system, u=u, solver=CachedSolver(u, system.tol))


def diag_scaling_splitting(
    a, alpha: float, tol: ToleranceProfile | None = None
) -> Splitting:
    """Splitting with U = alpha * diag(A), of ``a`` (an array or its owner).

    Raises
    ------
    ZeroDiagonalError
        If diag(A) contains a zero entry.
    """
    system = _system(a, tol)
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    d = np.diag(system.a)
    if np.any(d == 0.0):
        raise ZeroDiagonalError("diag(A) has a zero entry")
    return make_splitting(system, np.diag(alpha * d))


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
    if not s.system.shares_range_and_null(s.solver.factored):
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
    """The owner of the one A of 1 to 3 splittings: each splitting's owner is
    the first one's, or holds an equal array under an equal profile."""
    if not 1 <= len(splits) <= 3:
        raise ValueError("expected between 1 and 3 splittings")
    system = splits[0].system
    others = [s.system for s in splits[1:] if s.system is not system]
    if any(o.a is not system.a and not np.array_equal(o.a, system.a) for o in others):
        raise MismatchedSplittingError("all splittings must share the same coefficient matrix")
    if any(o.tol != system.tol for o in others):
        raise MismatchedSplittingError("all splittings must be built with one tolerance profile")
    return system


def _product(factors) -> np.ndarray:
    """factors[-1] @ ... @ factors[0]: the first factor is applied first."""
    return reduce(lambda h, t: t @ h, factors)


# The two-step sub-alternations of [K-L, U-V, X-Y], by the splittings they take.
_PAIRS = {"B12": (0, 1), "B13": (0, 2), "B23": (1, 2)}


@dataclass(frozen=True, eq=False)
class Alternation(_IterationFacts):
    """1 to 3 splittings of one A, first applied first, and the facts of
    their alternating iteration matrix H, each formed on first use, once.

    Construction runs the one shared-A check, which gives the owner of A,
    ``system``.  Alternations compare and hash by identity.
    """

    splits: tuple[Splitting, ...]
    system: SystemMatrix = field(init=False, repr=False)
    tol = property(lambda self: self.system.tol)

    def __post_init__(self):
        object.__setattr__(self, "splits", tuple(self.splits))
        object.__setattr__(self, "system", _check_shared_a(self.splits))

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """H = (X#Y)(U#V)(K#L) for [K-L, U-V, X-Y], read-only; ordinary
        inverses replace group inverses wherever U is nonsingular.  One
        splitting's H is its own U#V."""
        return _kept(_product([s.iteration_matrix for s in self.splits]))

    @cached_property
    def middle(self) -> np.ndarray:
        """M = U1 + U2 - A for two splittings, K + X - A + Y U# L for three."""
        if len(self.splits) == 1:
            raise ValueError("a middle factor needs two or three splittings")
        first, last = self.splits[0], self.splits[-1]
        middle = first.u + last.u - first.a
        if len(self.splits) == 3:
            middle = middle + last.v @ self.splits[1].solver.solve(first.v)
        return _kept(middle)

    # M's one factorization, its nonsingularity decision, and whether M has
    # A's range and null space
    middle_factored = cached_property(lambda self: _Factored(self.middle, self.tol.rank_tol))
    middle_nonsingular = property(lambda self: self.middle_factored.nonsingular)
    middle_shares_range_and_null = cached_property(
        lambda self: self.system.shares_range_and_null(self.middle_factored))

    @cached_property
    def induced(self) -> Splitting | None:
        """A = B - C with B = U_first M# U_last (M# U_last a ``solve`` when M
        is nonsingular), which equals A (I - H)^-1 whenever that exists;
        None when M# or B# does not exist."""
        first, last = self.splits[0], self.splits[-1]
        try:
            m_last = (np.linalg.solve(self.middle, last.u) if self.middle_nonsingular
                      else self.middle_factored.group_inverse() @ last.u)
            return make_splitting(self.system, first.u @ m_last)
        except IndexGreaterThanOneError:  # M# or B# does not exist
            return None

    @cached_property
    def pairs(self) -> MappingProxyType[str, Alternation]:
        """B12 = U#V K#L, B13 = X#Y K#L and B23 = X#Y U#V as alternations of
        two of three splittings; empty for fewer splittings."""
        pairs = {name: Alternation((self.splits[i], self.splits[j]))
                 for name, (i, j) in _PAIRS.items()} if len(self.splits) == 3 else {}
        return MappingProxyType(pairs)


def _alternation(splits, caller: str | None = None) -> Alternation:
    """``splits`` if it is an alternation, else one of the list ``splits``;
    a ``caller`` that needs exactly three is named in the ValueError."""
    given = splits.splits if isinstance(splits, Alternation) else tuple(splits)
    if caller is not None and len(given) != 3:
        raise ValueError(f"{caller} expects exactly three splittings")
    return splits if isinstance(splits, Alternation) else Alternation(given)


def alternating_iteration_matrix(splits) -> np.ndarray:
    """Iteration matrix H of the alternating sweep, first splitting applied
    first: the alternation's read-only ``iteration_matrix``."""
    return _alternation(splits).iteration_matrix


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
    return _product([s.reversed_iteration_matrix for s in _alternation(splits).splits])


def induced_splitting(a, h, tol: ToleranceProfile | None = None) -> Splitting:
    """The unique splitting A = B - C with B#C = H, where B = A (I - H)^-1,
    of ``a`` (an array or its owner).

    Raises
    ------
    SingularIminusHError
        If I - H is singular at ``rank_tol``.
    """
    system = _system(a, tol)
    h = as_square(h)
    if system.a.shape != h.shape:
        raise DimensionMismatchError("A and H must have the same shape")
    imh = np.eye(h.shape[0]) - h
    if not _Factored(imh, system.tol.rank_tol).nonsingular:
        raise SingularIminusHError("I - H is singular; no induced splitting")
    b = np.linalg.solve(imh.T, system.a.T).T
    return make_splitting(system, b)


def b_sharp_closed_form(splits) -> np.ndarray:
    """Closed form X#(K + X - A + Y U# L)K# for the induced B's group inverse.

    Requires exactly three splittings of one matrix A plus the range/null
    condition on the middle factor.

    Raises
    ------
    RangeNullConditionError
        If range/null of K + X - A + Y U# L differ from those of A.
    """
    h = _alternation(splits, "b_sharp_closed_form")
    if not h.middle_shares_range_and_null:
        raise RangeNullConditionError("K + X - A + Y U# L does not share range/null with A")
    sk, _, sx = h.splits
    return sx.solver.solve(sk.solver.right_apply(h.middle))
