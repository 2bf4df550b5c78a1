"""The owner of A, splittings A = U - V, and the owner of their alternation.

A :class:`SystemMatrix` owns A: a read-only view of the given array (writing
into that array invalidates the owner and its splittings) and the
``ToleranceProfile`` that every decision about A and its splittings reads.
A :class:`Splitting` of A points to it and owns U: a read-only copy of U,
its factorization and U^-1 or U#, and no V, since a sweep step needs only
A and U (:meth:`Splitting.correct`).  An
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
from types import MappingProxyType, MethodType

import numpy as np

from .core import (
    DEFAULT_TOL,
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
    "b_sharp_closed_form",
    "diag_scaling_splitting",
]


# Storage rule for A's sweep operator: CSR from order CSR_MIN_ORDER on, with
# at most CSR_MAX_FILL of the entries nonzero.  Measured matvec times (2-vCPU
# Xeon, numpy 2.4, scipy 1.17, least of 75 x 500 products), dense
# ``ndarray.dot`` against CSR through scipy's kernel (``_csr_product``):
# 1.9 vs 1.3 us at order 100 (tridiagonal), 6.5 vs 1.6 us at order 200,
# 17-24 vs 2.5 us at order 400 (5-point stencil).  At order 400, CSR still
# wins at 40 nonzeros a row (10.0 us) and loses at 80 (19.0 us).  CSR would
# win at order 100 too, but the walk at order 100 stays dense: the walk
# table's per-pass time rests on the BLAS-3 block products of
# ``schemes._Window``, which a dense pass matrix gives and a CSR one, whose
# rows are made one at a time, does not.
CSR_MIN_ORDER = 200
CSR_MAX_FILL = 0.1


def _csr_product(m):
    """x -> M x for a ``scipy.sparse.csr_array`` M, bound to M as a method is
    (its ``__self__``).  It calls scipy's ``csr_matvec``, the kernel in which
    ``M @ x`` ends, into a fresh zero vector: bit for bit ``M @ x`` without
    its dispatch.  Given ``y``, a contiguous float vector, it adds M x into y
    instead and returns y.  The kernel reads x without a bound, so any x but
    a vector of M's column count is a ValueError (``@`` refuses a wrong
    length too)."""
    from scipy.sparse._sparsetools import csr_matvec

    (rows, cols), indptr, indices, data = m.shape, m.indptr, m.indices, m.data
    shape = (cols,)

    def product(_, x, y=None):
        if getattr(x, "shape", None) != shape and np.shape(x) != shape:
            raise ValueError(f"expected a vector of length {cols}, got shape {np.shape(x)}")
        if y is None:
            y = np.zeros(rows)
        csr_matvec(rows, cols, indptr, indices, data, x, y)
        return y

    return MethodType(product, m)


def _scaled_rows(d, m):
    """diag(d) m as a new block: dense, or CSR on m's index arrays, with new
    data (scipy's ``d[:, None] * m`` would return COO)."""
    if type(m) is np.ndarray:
        return d[:, None] * m
    return type(m)((np.repeat(d, np.diff(m.indptr)) * m.data, m.indices, m.indptr),
                   shape=m.shape)


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
    def matvec(self):
        """x -> A x with A's sweep operator: scipy's CSR kernel on a
        ``scipy.sparse.csr_array`` copy of A if the rule above says so
        (``_csr_product``), else A's bound ``ndarray.dot``; either is bit for
        bit ``@`` without its dispatch."""
        n = self.n
        if n < CSR_MIN_ORDER or np.count_nonzero(self.a) > CSR_MAX_FILL * n * n:
            return self.a.dot
        from scipy.sparse import csr_array

        return _csr_product(csr_array(self.a))

    # the sweep operator itself: A, or its CSR copy
    a_op = property(lambda self: self.matvec.__self__)

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
        A's entrywise within ``eq_tol``; ``m`` is M, its factorization or
        its (range, null) projector pair."""
        if not isinstance(m, tuple):
            if not isinstance(m, _Factored):
                m = _Factored(as_square(m), self.tol.rank_tol)
            m = m.projectors
        pairs = zip(m, self.projectors)
        return all(bool(np.all(np.abs(p - q) < self.tol.eq_tol)) for p, q in pairs)


def _system(a) -> SystemMatrix:
    """``a`` if it is an owner, else a new owner of the array ``a`` (``DEFAULT_TOL``)."""
    return a if isinstance(a, SystemMatrix) else SystemMatrix(a)


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
    """One splitting A = U - V of its owner's A, and the one owner of U.

    Construct via :func:`make_splitting`.  ``a``, ``n`` and ``tol`` are the
    owner's.  U^-1 (nonsingular U) or U# (index-1 singular U) is kept in
    one read-only form: a diagonal U's reciprocal diagonal, else the dense
    ``u_sharp``, ``np.linalg.inv(u)`` or the group inverse, as U's one
    factorization ``u_factored`` decides.  A sweep step is :meth:`correct`,
    one multiply-add with that form; a matrix product with a nonsingular
    dense U is ``np.linalg.solve`` with U, whose error, unlike
    ``inv(U) @ V``'s, does not grow with cond(U).  The dense ``v = u - a``,
    the factors and the facts of T = U#V are formed on first use, once.
    Splittings compare and hash by identity.
    """

    system: SystemMatrix
    u: np.ndarray
    # U's reciprocal diagonal (U^-1 or U#), read-only, when U has no
    # off-diagonal entry, else None; and whether U is nonsingular
    _recip: np.ndarray | None = field(init=False, repr=False)
    u_nonsingular: bool = field(init=False, repr=False)
    a = property(lambda self: self.system.a)
    n = property(lambda self: self.system.n)
    tol = property(lambda self: self.system.tol)
    # U's factorization: a dense U's nonsingularity and U#, and classify's proper test
    u_factored = cached_property(lambda self: _Factored(self.u, self.tol.rank_tol))

    def __post_init__(self):
        # plain attributes, not cached properties: the sweep step reads them every pass
        d = np.diag(self.u)
        if np.count_nonzero(self.u) == np.count_nonzero(d):  # no off-diagonal entry
            ad = np.abs(d)
            nz = ad > self.tol.rank_tol * (ad.max() if ad.size else 0.0)
            recip = np.zeros_like(d)
            recip[nz] = 1.0 / d[nz]
            object.__setattr__(self, "_recip", _kept(recip))
            object.__setattr__(self, "u_nonsingular", bool(np.all(nz)))
        else:
            object.__setattr__(self, "_recip", None)
            object.__setattr__(self, "u_nonsingular", self.u_factored.nonsingular)

    @cached_property
    def u_sharp(self) -> np.ndarray:
        """U^-1, or U# when U is singular, as a read-only dense matrix.

        Raises IndexGreaterThanOneError when U# does not exist."""
        if self._recip is not None:
            return _kept(np.diag(self._recip))
        return _kept(np.linalg.inv(self.u) if self.u_nonsingular
                     else self.u_factored.group_inverse())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """U^-1 rhs, or U# rhs when U is singular."""
        if self._recip is None:
            if self.u_nonsingular and rhs.ndim == 2:
                return np.linalg.solve(self.u, rhs)
            return self.u_sharp @ rhs
        return self._recip * rhs if rhs.ndim == 1 else _scaled_rows(self._recip, rhs)

    def correct(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """x + U^-1 r, or U#(U x + r) when U is singular.

        With r = b - A x and A = U - V this is U#(V x + b) for every x,
        the splitting's step, formed without V.  ``x`` and ``r`` are vectors
        or blocks of column vectors; with a diagonal nonsingular U, blocks
        may be CSR arrays.
        """
        if not self.u_nonsingular:
            return self.solve(self.u.dot(x) + r)
        if self._recip is not None:
            return x + (self._recip * r if r.ndim == 1 else _scaled_rows(self._recip, r))
        return x + self.u_sharp.dot(r)

    def right_apply(self, b: np.ndarray) -> np.ndarray:
        """B U^-1 (or B U#)."""
        if self._recip is not None:
            return b * self._recip
        if self.u_nonsingular:
            return np.linalg.solve(self.u.T, b.T).T
        return b @ self.u_sharp

    @cached_property
    def v(self) -> np.ndarray:
        """V = U - A as a dense matrix."""
        return _kept(self.u - self.a)

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """Single-step iteration matrix U# V (U^-1 V when U is nonsingular)."""
        return _kept(self.solve(self.v))

    @cached_property
    def reversed_iteration_matrix(self) -> np.ndarray:
        """Companion-side factor V U#."""
        return _kept(self.right_apply(self.v))

    _report = cached_property(lambda self: _class_report(self))  # what classify hands out


def make_splitting(a, u) -> Splitting:
    """Build a splitting of ``a``, an array or its owner, from a read-only
    copy of ``u``; every decision reads the owner's profile.  A dense U's
    ``u_sharp`` is formed here.

    Raises
    ------
    DimensionMismatchError
        If A and U are not square matrices of the same order.
    IndexGreaterThanOneError
        If U is singular and U# does not exist.
    """
    system = _system(a)
    u = _kept(as_square(np.array(u, dtype=float)))
    if system.a.shape != u.shape:
        raise DimensionMismatchError(f"A has shape {system.a.shape} but U has shape {u.shape}")
    s = Splitting(system=system, u=u)
    if s._recip is None:
        s.u_sharp  # formed now, so a missing U# raises here
    return s


def diag_scaling_splitting(a, alpha: float) -> Splitting:
    """Splitting with U = alpha * diag(A), of ``a`` (an array or its owner).

    Raises
    ------
    ZeroDiagonalError
        If diag(A) contains a zero entry.
    """
    system = _system(a)
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
    if s._recip is None:
        u = s.u_factored
    else:  # a diagonal U's range and null space are spanned by unit vectors
        nonzero = (s._recip != 0.0).astype(float)
        u = (np.diag(nonzero), np.diag(1.0 - nonzero))
    proper_w = None
    if not s.system.shares_range_and_null(u):
        proper_w = Witness(check="range(U) == range(A) and null(U) == null(A)", matrix="U")
    usharp_w = _sign_witness(s.u_sharp, "U#", s.tol)
    uv, vu = s.iteration_matrix, s.reversed_iteration_matrix
    plain = ((s.v, "V"), (uv, "U#V"), (vu, "VU#"))

    singular_w = Witness(check="U is singular", matrix="U")
    nonsingular_w = usharp_w if s.u_nonsingular else singular_w
    quasi_w, quasi = nonsingular_w, ()
    if s.u_nonsingular:
        if s.k1 is None:
            quasi_w = Witness(check="index(I - U^-1 V) or index(I - V U^-1) exceeds 1",
                              matrix="I - U^-1 V")
        else:
            x = s.v @ s.k1
            quasi = ((x, "V K1"), (s.solve(x), "U^-1 V K1"),
                     (s.right_apply(x), "K2 V U^-1"))

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


def _pass(splits, x, b, r, product):
    """One pass of the splittings' steps, x <- correct(x, b - A x) for each
    in order, with A applied by ``product``; ``r``, if not None, stands in
    for the first step's b - A x.  ``x`` and ``b`` are vectors or blocks,
    dense or CSR.  It gives the matrix-free pass of ``schemes.sweep``, P v
    (x = 0, b = r = v), H x (b = 0) and H itself (x = I, r = -A)."""
    for s in splits:
        x = s.correct(x, b - product(x) if r is None else r)
        r = None
    return x


# The two-step sub-alternations of [K-L, U-V, X-Y], by the splittings they take.
_PAIRS = {"B12": (0, 1), "B13": (0, 2), "B23": (1, 2)}


@dataclass(frozen=True, eq=False)
class Alternation(_IterationFacts):
    """1 to 3 splittings of one A, first applied first, and the facts of
    their alternating iteration matrix H, each formed on first use, once.

    One pass of the splittings' steps is affine, x <- H x + P b, and leaves
    the residual r <- G r, G = I - A P, when every U is nonsingular; P =
    B^-1 = (I - H) A^-1 of the induced splitting when A is nonsingular.
    ``_pass`` runs the steps, for the run and the diagnostics alike.
    ``_identity_pass`` runs them on the columns of I, and gives H or G:
    the diagnostics read H from it, and ``schemes.run`` its formed pass
    M = delta T + (1 - delta) I, T = G or H.  Construction runs the one
    shared-A check, which gives the owner of A, ``system``.  Alternations
    compare and hash by identity.
    """

    splits: tuple[Splitting, ...]
    system: SystemMatrix = field(init=False, repr=False)
    tol = property(lambda self: self.system.tol)

    def __post_init__(self):
        object.__setattr__(self, "splits", tuple(self.splits))
        object.__setattr__(self, "system", _check_shared_a(self.splits))

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """H = (X#Y)(U#V)(K#L) for [K-L, U-V, X-Y], read-only and dense;
        ordinary inverses replace group inverses wherever U is nonsingular."""
        return _kept(self._identity_pass(residual=False))

    def _identity_pass(self, residual: bool, sparse: bool = False, delta: float | None = None):
        """The pass run on the columns of I, as a new array: H, or G = I - A P
        when ``residual``, shifted to delta T + (1 - delta) I when ``delta``
        is given.  Dense, or with ``sparse`` sorted CSR over A's CSR sweep
        operator, which needs every U diagonal and nonsingular.

        Every column is the splittings' own ``correct`` steps (Saad, 2003,
        sec. 4.1), so no V and no factor of H is formed.  The x side is
        ``_pass`` on X = I and b = 0, X <- correct(X, -A X), which is H;
        its first step is given r = -A, correct(I, -A), and needs no
        product, so it costs k - 1 products of A with a block.  The r side,
        R <- R - A correct(0, R) from R = I, is the residual a pass leaves
        when every U is nonsingular, G, in k products; it is not a pass of
        the steps, and keeps its own loop.  Dense, a diagonal first U makes
        its first product A U^-1, A's columns scaled: bit for bit the
        product after I -, which cancels the sign of each zero.
        """
        system = self.system
        a = system.a_op if sparse else system.a
        if sparse:
            from scipy.sparse import eye_array

            eye = eye_array(system.n, format="csr")
        else:
            eye = np.eye(system.n)
        if residual:
            splits, t = self.splits, eye
            if not sparse and splits[0]._recip is not None:
                splits, t = splits[1:], eye - a * splits[0]._recip
            for s in splits:
                t = t - a @ s.correct(0.0, t)
        else:
            t = _pass(self.splits, eye, 0.0, -a, a.dot)
        if delta is not None:
            t = delta * t + (1.0 - delta) * eye
        if sparse:
            t.sort_indices()
        return t

    @cached_property
    def middle(self) -> np.ndarray:
        """M = U1 + U2 - A for two splittings, K + X - A + Y U# L for three."""
        if len(self.splits) == 1:
            raise ValueError("a middle factor needs two or three splittings")
        first, last = self.splits[0], self.splits[-1]
        middle = first.u + last.u - first.a
        if len(self.splits) == 3:
            middle = middle + last.v @ self.splits[1].solve(first.v)
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

    A ``scipy.sparse.linalg.LinearOperator`` over A's sweep operator whose
    matvec is ``_pass`` on a vector and b = 0, as the x side of
    ``Alternation._identity_pass`` is on I, so no V is formed.  It calls
    ``_pass``, not ``schemes.sweep``, so it adds no sweep passes.
    """
    from scipy.sparse.linalg import LinearOperator

    product, n = splits[0].system.matvec, splits[0].n
    return LinearOperator((n, n), matvec=lambda x: _pass(splits, np.ravel(x), 0.0, None, product),
                          dtype=float)


def companion_matrix(splits) -> np.ndarray:
    """Reversed-order companion matrix, (YX#)(VU#)(LK#) for three splittings.

    Shares its spectral radius with the alternating iteration matrix and is
    the nonnegativity carrier in the type-II convergence arguments.
    """
    factors = [s.reversed_iteration_matrix for s in _alternation(splits).splits]
    return reduce(lambda h, t: t @ h, factors)


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
    return sx.solve(sk.right_apply(h.middle))
