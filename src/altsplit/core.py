"""Dense real matrix kernel: rank, spectra, group inverse, projectors.

Everything downstream treats matrices as immutable ``numpy.ndarray`` values
in float64.  All operations are pure; U^-1 or U# is kept only inside
:class:`CachedSolver` instances, which are created once and then read-only.
Its :meth:`CachedSolver.correct` is the one sweep step, U#(V x + b)
formed from the residual r = b - A x without V.

Each fact about a matrix comes from one private routine, so callers that
need several facts of one matrix compute each once:

* ``_spectrum``: rho, gamma and the unit-eigenvalue flag from one ``eigvals``;
* ``_group_inverse_or_none``: the one index-1 decision.  From the SVD rank
  factorization A = F G, A# = F (G F)^-2 G exists iff
  ``s_min(G F) > rank_tol * s_max(A)``, judged on A's scale (G F alone may
  be a round-off scalar);
* ``_projectors``: range and null projectors from one SVD;
* ``_nonsingular``: the test ``s_min > rank_tol * s_max``.

The one exception to dense input is :func:`spectral_radius`, which also
takes a matrix-free ``scipy.sparse.linalg.LinearOperator`` and then finds
the dominant eigenvalue with seeded ARPACK instead of a full ``eigvals``.

The one scipy import here is ``scipy.sparse.linalg`` for ARPACK, made
only when it is called.  :class:`CachedSolver` and the spectral routines
run on numpy alone.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexGreaterThanOneError,
    NotSquareError,
)

__all__ = [
    "ToleranceProfile",
    "DEFAULT_TOL",
    "as_matrix",
    "as_square",
    "as_vector",
    "rank",
    "spectral_radius",
    "gamma",
    "group_inverse",
    "index_at_most_one",
    "is_nonnegative",
    "CachedSolver",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical slacks used by rank, equality and sign decisions.

    Attributes
    ----------
    rank_tol : float
        Relative singular-value cutoff: values below ``rank_tol * s_max``
        count as zero.
    eq_tol : float
        Entrywise slack for matrix equality tests.
    one_tol : float
        Cutoff on ``|lambda - 1|`` below which an eigenvalue counts as 1.
    nonneg_tol : float
        Entries above ``-nonneg_tol`` count as nonnegative.
    """

    rank_tol: float = 1e-10
    eq_tol: float = 1e-9
    one_tol: float = 1e-8
    nonneg_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rank_tol", "eq_tol", "one_tol", "nonneg_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


DEFAULT_TOL = ToleranceProfile()


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_square(a) -> np.ndarray:
    """Validate and return ``a`` as a square matrix."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(b, n=None) -> np.ndarray:
    """Validate ``b`` as a finite 1-D float64 vector, optionally of length n."""
    v = np.asarray(b, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if n is not None and v.size != n:
        raise DimensionMismatchError(f"expected a vector of length {n}, got {v.size}")
    return v


def _numerical_rank(s: np.ndarray, rank_tol: float) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def rank(m, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_tol * s_max``."""
    m = as_matrix(m)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return _numerical_rank(s, tol.rank_tol)


def _nonsingular(m: np.ndarray, rank_tol: float, scale: float | None = None) -> bool:
    """True iff ``s_min(m) > rank_tol * scale``; ``scale`` defaults to s_max(m)."""
    s = np.linalg.svd(m, compute_uv=False)
    return s.size > 0 and bool(s[-1] > rank_tol * (s[0] if scale is None else scale))


def _spectrum(m: np.ndarray, one_tol: float):
    """(rho, gamma, has_eigenvalue_one) of a square matrix from one ``eigvals``.

    gamma discards the eigenvalues with ``|lambda - 1| <= one_tol`` and is 0
    when every eigenvalue sits in that cluster.  Eigensolver failures
    propagate as ``numpy.linalg.LinAlgError`` rather than being masked.
    """
    if m.shape[0] == 0:
        return 0.0, 0.0, False
    ev = np.linalg.eigvals(m)
    near_one = np.abs(ev - 1.0) <= one_tol
    outside = np.abs(ev[~near_one])
    gam = float(np.max(outside)) if outside.size else 0.0
    return float(np.max(np.abs(ev))), gam, bool(np.any(near_one))


def _arpack_radius(op) -> float:
    """Largest eigenvalue modulus of a square LinearOperator.

    Implicitly restarted Arnoldi (ARPACK) for the one eigenvalue of largest
    modulus, started from a fixed seeded vector so that repeated calls give
    bit-identical results.  Orders below 3, where ARPACK cannot run, are
    applied to the identity and decided densely.
    """
    from scipy.sparse.linalg import eigs

    n, ncols = op.shape
    if n != ncols:
        raise NotSquareError(f"expected a square operator, got shape {op.shape}")
    if n < 3:
        return _spectrum(op.matmat(np.eye(n)), DEFAULT_TOL.one_tol)[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    ev = eigs(op, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(np.abs(ev[0]))


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus.

    A dense matrix gets a full eigendecomposition; a
    ``scipy.sparse.linalg.LinearOperator`` gets seeded ARPACK on its
    matvec.  Eigensolver failures (``numpy.linalg.LinAlgError``, ARPACK's
    ``ArpackNoConvergence``) propagate rather than being masked as zero.
    """
    # Only an imported scipy.sparse.linalg can have made a LinearOperator,
    # so the dense path never imports it.
    spla = sys.modules.get("scipy.sparse.linalg")
    if spla is not None and isinstance(m, spla.LinearOperator):
        return _arpack_radius(m)
    return _spectrum(as_square(m), DEFAULT_TOL.one_tol)[0]


def gamma(m, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Largest eigenvalue modulus after discarding the eigenvalue-1 cluster.

    Eigenvalues with ``|lambda - 1| <= one_tol`` are excluded; returns 0
    when every eigenvalue sits in that cluster.
    """
    return _spectrum(as_square(m), tol.one_tol)[1]


def _group_inverse_or_none(m: np.ndarray, rank_tol: float) -> np.ndarray | None:
    """A# of a square matrix, or None when its index exceeds 1.

    From the SVD rank factorization A = F G (F = U_r S_r, G = V_r^T),
    ``A# = F (G F)^-2 G``; G F is invertible exactly when A has index 1,
    decided as ``s_min(G F) > rank_tol * s_max(A)``.
    """
    u, s, vt = np.linalg.svd(m)
    r = _numerical_rank(s, rank_tol)
    if r == 0:
        return np.zeros_like(m)
    f, g = u[:, :r] * s[:r], vt[:r, :]
    gf = g @ f
    if not _nonsingular(gf, rank_tol, scale=s[0]):
        return None
    return f @ np.linalg.solve(gf, np.linalg.solve(gf, g))


def group_inverse(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Group inverse A# of an index-1 square matrix.

    Uses the rank factorization A = F G and the closed form
    ``A# = F (G F)^-2 G``; invertibility of G F is exactly the index-1
    condition, so existence detection and computation share one path.

    Raises
    ------
    IndexGreaterThanOneError
        If ``s_min(G F) <= rank_tol * s_max(A)``, i.e. A has index above 1.
    """
    x = _group_inverse_or_none(as_square(m), tol.rank_tol)
    if x is None:
        raise IndexGreaterThanOneError("group inverse does not exist: rank(A) != rank(A^2)")
    return x


def index_at_most_one(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff the group inverse of M exists (the index-1 rule above)."""
    return _group_inverse_or_none(as_square(m), tol.rank_tol) is not None


def _projectors(m: np.ndarray, rank_tol: float):
    """(range projector, null projector) of M from one SVD."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    r = _numerical_rank(s, rank_tol)
    ur, vr = u[:, :r], vt[:r, :]
    return ur @ ur.T, np.eye(m.shape[1]) - vr.T @ vr


def _kept(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only, for an array handed to every caller that asks."""
    m.flags.writeable = False
    return m


def is_nonnegative(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff every entry is at least ``-nonneg_tol``."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return True
    return float(m.min()) >= -tol.nonneg_tol


class CachedSolver:
    """Uniform action of U^-1 (nonsingular U) or U# (index-1 singular U).

    One read-only representation of U^-1 or U# is kept:

    * diagonal U: the reciprocal diagonal (group inverse of a diagonal
      matrix); the dense form is built on the first ``inverse_like()``;
    * any other U: one dense matrix formed at construction,
      ``np.linalg.inv(u)`` when U is nonsingular, else the group inverse.

    A sweep step is :meth:`correct`, one multiply-add with that matrix; a
    matrix product with a nonsingular dense U is a backward-stable
    ``np.linalg.solve`` with the kept U, whose error, unlike
    ``inv(U) @ V``'s, does not grow with cond(U).

    Instances are immutable (a writeable U is copied) and safe to share.
    """

    def __init__(self, u, tol: ToleranceProfile = DEFAULT_TOL):
        u = as_square(u)
        if u.flags.writeable:
            u = _kept(u.copy())
        self._u = u
        d = np.diag(u)
        if np.count_nonzero(u) == np.count_nonzero(d):  # no off-diagonal entry
            ad = np.abs(d)
            cutoff = tol.rank_tol * (ad.max() if ad.size else 0.0)
            nz = ad > cutoff
            recip = np.zeros_like(d)
            recip[nz] = 1.0 / d[nz]
            self._diag = _kept(recip)
            self._inverse_like = None
            self.is_nonsingular = bool(np.all(nz))
            return
        self._diag = None
        self.is_nonsingular = _nonsingular(u, tol.rank_tol)
        self._inverse_like = _kept(
            np.linalg.inv(u) if self.is_nonsingular else group_inverse(u, tol)
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """U^-1 rhs, or U# rhs when U is singular."""
        if self._diag is None:
            if self.is_nonsingular and rhs.ndim == 2:
                return np.linalg.solve(self._u, rhs)
            return self._inverse_like @ rhs
        if rhs.ndim == 1:
            return self._diag * rhs
        return self._diag[:, None] * rhs

    def correct(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """x + U^-1 r, or U#(U x + r) when U is singular.

        With r = b - A x and A = U - V this is U#(V x + b) for every x,
        the splitting's step, formed without V.
        """
        if not self.is_nonsingular:
            return self.solve(self._u @ x + r)
        if self._diag is not None:
            return x + self._diag * r
        return x + self._inverse_like @ r

    def right_apply(self, b: np.ndarray) -> np.ndarray:
        """B U^-1 (or B U#)."""
        if self._diag is not None:
            return b * self._diag
        if self.is_nonsingular:
            return np.linalg.solve(self._u.T, b.T).T
        return b @ self._inverse_like

    def inverse_like(self) -> np.ndarray:
        """U^-1 or U# as a read-only dense matrix (formed once, cached)."""
        if self._inverse_like is None:
            self._inverse_like = _kept(np.diag(self._diag))
        return self._inverse_like
