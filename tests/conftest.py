"""Shared fixtures: the worked 3x3 singular example used across suites, a
spy on the LAPACK calls that decide the facts of a matrix, and two dense
references: the induced splitting B = A (I - H)^-1 and the pass matrix P.

A is a rank-2 index-1 matrix whose group inverse is known exactly, with
three proper splittings whose alternating iteration matrix has spectral
radius 1/4 even though no individual splitting is type II.
"""
import numpy as np
import pytest
from hypothesis import settings

from altsplit import (
    DimensionMismatchError,
    SingularIminusHError,
    SystemMatrix,
    make_splitting,
    rank,
)
from altsplit.core import as_square

# Property tests draw the same examples on every run and write no example
# database into the checkout; no deadline, since the host may be shared.
settings.register_profile(
    "altsplit", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("altsplit")


A_EXAMPLE = np.array([
    [1.0, 0.0, 1.0],
    [-2.0, 4.0, -2.0],
    [0.0, 0.0, 0.0],
])

A_SHARP_EXPECTED = np.array([
    [1.0, 0.0, 1.0],
    [0.5, 0.25, 0.5],
    [0.0, 0.0, 0.0],
])

K_EXAMPLE = np.array([
    [0.5, 0.0, 0.5],
    [-6.0, 12.0, -6.0],
    [0.0, 0.0, 0.0],
])

U_EXAMPLE = np.array([
    [0.5, 0.0, 0.5],
    [-8.0, 16.0, -8.0],
    [0.0, 0.0, 0.0],
])

X_EXAMPLE = np.array([
    [0.8, 0.0, 0.8],
    [-4.0, 8.0, -4.0],
    [0.0, 0.0, 0.0],
])


@pytest.fixture(scope="session")
def example_matrices():
    return A_EXAMPLE, K_EXAMPLE, U_EXAMPLE, X_EXAMPLE


@pytest.fixture(scope="session")
def example_triple():
    """The three splittings [K-L, U-V, X-Y] of the worked example."""
    return [make_splitting(A_EXAMPLE, m) for m in (K_EXAMPLE, U_EXAMPLE, X_EXAMPLE)]


class LinalgSpy:
    """Records each call of ``np.linalg.eigvals`` and ``np.linalg.svd``: a
    copy of the matrix passed and the keyword arguments."""

    def __init__(self, monkeypatch):
        self.seen = {"eigvals": [], "svd": []}
        for name, calls in self.seen.items():
            monkeypatch.setattr(np.linalg, name, self._recording(getattr(np.linalg, name), calls))

    @staticmethod
    def _recording(real, calls):
        def wrapped(m, *args, **kwargs):
            calls.append((np.array(m), kwargs))
            return real(m, *args, **kwargs)
        return wrapped

    def on(self, name, m) -> list[dict]:
        """The keyword arguments of each ``name`` call on a matrix equal to ``m``."""
        return [kwargs for x, kwargs in self.seen[name]
                if x.shape == np.shape(m) and np.array_equal(x, m)]

    def count(self, name, m) -> int:
        """The number of ``name`` calls on a matrix equal to ``m``, whatever
        their keyword arguments."""
        return len(self.on(name, m))


@pytest.fixture
def linalg_spy(monkeypatch):
    return LinalgSpy(monkeypatch)


def induced_splitting(a, h):
    """The reference for ``Alternation.induced``: the unique splitting
    A = B - C with B#C = H, B = A (I - H)^-1, of ``a`` (an array or its
    owner).  The library forms B as U_first M# U_last instead, which exists
    for singular A too.

    Raises SingularIminusHError if I - H is singular at the owner's
    ``rank_tol``, and DimensionMismatchError if H is not of A's shape.
    """
    system = a if isinstance(a, SystemMatrix) else SystemMatrix(a)
    h = as_square(h)
    if system.a.shape != h.shape:
        raise DimensionMismatchError("A and H must have the same shape")
    imh = np.eye(h.shape[0]) - h
    if rank(imh, system.tol) < h.shape[0]:
        raise SingularIminusHError("I - H is singular; no induced splitting")
    return make_splitting(system, np.linalg.solve(imh.T, system.a.T).T)


def pass_from_zero(splits):
    """P, the pass from x = 0 on the columns of I (b = I): the first step is
    U^-1 itself, and each later one corrects the block by its fresh residual
    I - A P.  One pass is x + P (b - A x) when every U is nonsingular."""
    first, a = splits[0], splits[0].a
    p = first.u_sharp if first._recip is None else np.diag(first._recip)
    for s in splits[1:]:
        p = s.correct(p, np.eye(len(a)) - a.dot(p))
    return p
