"""Dense real matrix kernel: rank, spectra, group inverse, projectors.

Everything downstream treats matrices as immutable ``numpy.ndarray`` values
in float64.  All operations are pure.  The owners of matrices, and the
sweep step with U^-1 or U#, live in :mod:`altsplit.splittings`.

Each fact about a matrix comes from one private owner, so callers that
need several facts of one matrix compute each once:

* ``_spectrum``: rho, gamma and the unit-eigenvalue flag from one ``eigvals``;
* ``_Factored``: the rank, the nonsingularity decision, the range and null
  projectors and the group inverse, all read from one thin SVD.  It holds
  the one index-1 decision: from the rank factorization M = F G,
  M# = F (G F)^-2 G exists iff ``s_min(G F) > rank_tol * s_max(M)``,
  judged on M's scale (G F alone may be a round-off scalar).

The one exception to dense input is :func:`spectral_radius`, which also
takes a matrix-free ``scipy.sparse.linalg.LinearOperator`` and then finds
the dominant eigenvalue with seeded ARPACK instead of a full ``eigvals``.

The one scipy import here is ``scipy.sparse.linalg`` for ARPACK, made
only when it is called.  The dense spectral routines run on numpy alone.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexGreaterThanOneError,
    NotSquareError,
)

__all__ = [
    "ToleranceProfile",
    "DEFAULT_TOL",
    "rank",
    "spectral_radius",
    "gamma",
    "group_inverse",
    "index_at_most_one",
    "is_nonnegative",
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
    return _Factored(as_matrix(m), tol.rank_tol).rank


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


def _kept(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only, for an array handed to every caller that asks."""
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class _Factored:
    """The thin SVD M = U_r S_r V_r^T of a matrix its caller no longer
    writes, and the facts read from it, each formed on first use, once.
    Owners compare and hash by identity."""

    m: np.ndarray
    rank_tol: float

    svd = cached_property(lambda self: np.linalg.svd(self.m, full_matrices=False))
    rank = cached_property(lambda self: _numerical_rank(self.svd[1], self.rank_tol))
    nonsingular = property(lambda self: self.rank == self.m.shape[0])

    @cached_property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(range projector, null projector) of M, read-only."""
        u, _, vt = self.svd
        ur, vr = u[:, :self.rank], vt[:self.rank, :]
        return _kept(ur @ ur.T), _kept(np.eye(self.m.shape[1]) - vr.T @ vr)

    @cached_property
    def sharp(self) -> np.ndarray | None:
        """M# of a square M, read-only, or None when its index exceeds 1, by
        the index-1 rule above with F = U_r S_r and G = V_r^T."""
        (u, s, vt), r = self.svd, self.rank
        if r == 0:
            return _kept(np.zeros_like(self.m))
        f, g = u[:, :r] * s[:r], vt[:r, :]
        gf = g @ f
        if not np.linalg.svd(gf, compute_uv=False)[-1] > self.rank_tol * s[0]:
            return None
        return _kept(f @ np.linalg.solve(gf, np.linalg.solve(gf, g)))

    def group_inverse(self) -> np.ndarray:
        """``sharp``, raising IndexGreaterThanOneError when it is None."""
        if self.sharp is None:
            raise IndexGreaterThanOneError("group inverse does not exist: rank(A) != rank(A^2)")
        return self.sharp


def group_inverse(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Group inverse A# of an index-1 square matrix, as a new array.

    Uses the rank factorization A = F G and the closed form
    ``A# = F (G F)^-2 G``; invertibility of G F is exactly the index-1
    condition, so existence detection and computation share one path.

    Raises
    ------
    IndexGreaterThanOneError
        If ``s_min(G F) <= rank_tol * s_max(A)``, i.e. A has index above 1.
    """
    return _Factored(as_square(m), tol.rank_tol).group_inverse().copy()


def index_at_most_one(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff the group inverse of M exists (the index-1 rule above)."""
    return _Factored(as_square(m), tol.rank_tol).sharp is not None


def is_nonnegative(m, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff every entry is at least ``-nonneg_tol``."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return True
    return float(m.min()) >= -tol.nonneg_tol
