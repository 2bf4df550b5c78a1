"""Seeded random instance generators for the property and verifier suites.

The singular families are built in a monomial frame Q diag(block, 0) Q^-1
with Q a permutation-scaled nonnegative matrix, so nonnegativity of group
inverses and splitting products survives the change of basis.  Rejection
sampling keeps every family honest about its advertised invariants.
"""
from __future__ import annotations

import numpy as np

from .splittings import SystemMatrix, make_splitting

__all__ = [
    "random_monomial",
    "random_inverse_positive",
    "random_index_one",
    "random_group_monotone_regular_triple",
    "random_proper_triple",
    "random_semiconvergence_case",
    "random_singular_m_matrix_triple",
    "random_quasi_regular_triple",
]


def random_monomial(rng: np.random.Generator, n: int) -> np.ndarray:
    """Permutation matrix with random positive scales; inverse is nonnegative."""
    q = np.zeros((n, n))
    q[np.arange(n), rng.permutation(n)] = rng.uniform(0.5, 2.0, n)
    return q


def random_inverse_positive(rng: np.random.Generator, r: int) -> np.ndarray:
    """Nonsingular matrix of the form sI - N with N >= 0 and s > rho(N)."""
    n_mat = rng.uniform(0.0, 1.0, (r, r))
    s = float(np.max(np.abs(np.linalg.eigvals(n_mat)))) * rng.uniform(1.1, 1.6) + 0.1
    return s * np.eye(r) - n_mat


def _embed(q, q_inv, blocks):
    n = q.shape[0]
    z = np.zeros((n, n))
    at = 0
    for blk in blocks:
        k = blk.shape[0]
        z[at : at + k, at : at + k] = blk
        at += k
    return q @ z @ q_inv


def _on_one_owner(system, us):
    """(A, read-only, and a splitting of its owner ``system`` for each U in ``us``)."""
    return system.a, [make_splitting(system, u) for u in us]


def random_index_one(rng: np.random.Generator, n: int, rank_r: int) -> np.ndarray:
    """Index-1 matrix of prescribed rank via P diag(D, 0) P^-1.

    P is kept well conditioned so group-inverse residuals stay near machine
    precision.
    """
    if rank_r == n:
        core = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        return core
    p = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
    d = np.concatenate([rng.uniform(0.5, 2.0, rank_r) * rng.choice([-1.0, 1.0], rank_r),
                        np.zeros(n - rank_r)])
    return p @ np.diag(d) @ np.linalg.inv(p)


def random_group_monotone_regular_triple(
    rng: np.random.Generator, n: int, rank_r: int | None = None
):
    """(A, [K-L, U-V, X-Y]): group monotone A with three proper G-regular splittings.

    A = Q diag(M, 0) Q^-1 with M inverse-positive, so A# >= 0 and each
    U_i = Q diag(M + D_i, 0) Q^-1 with D_i >= 0 diagonal gives a proper
    splitting that is G-regular, hence G-weak regular of both types.
    """
    r = int(rank_r) if rank_r is not None else int(rng.integers(2, n + 1))
    q = random_monomial(rng, n)
    q_inv = np.linalg.inv(q)
    m = random_inverse_positive(rng, r)
    zero = np.zeros((n - r, n - r))
    return _on_one_owner(SystemMatrix(_embed(q, q_inv, [m, zero])), [
        _embed(q, q_inv, [m + np.diag(rng.uniform(0.2, 1.5, r)), zero]) for _ in range(3)])


def random_proper_triple(
    rng: np.random.Generator, n: int, rank_r: int | None = None
):
    """(A, [s1, s2, s3]): generic proper splittings sharing A's rank frame.

    With A = F G a rank factorization, every U = F W G with W nonsingular
    shares A's range and null space; W = I + E/4, E uniform in [-1, 1],
    keeps the alternating iteration matrix contractive.
    """
    r = int(rank_r) if rank_r is not None else int(rng.integers(2, n + 1))
    system = SystemMatrix(random_index_one(rng, n, r))
    u_svd, s_svd, vt = system.factored.svd
    f = u_svd[:, :r] * s_svd[:r]
    g = vt[:r, :]
    return _on_one_owner(system, [f @ (np.eye(r) + 0.25 * rng.uniform(-1.0, 1.0, (r, r))) @ g
                             for _ in range(3)])


def random_semiconvergence_case(rng: np.random.Generator, n: int):
    """(T, kind) with kind in {convergent, semiconvergent, divergent, defective, boundary}.

    Real matrices built from real Jordan-style blocks in a well-conditioned
    similarity frame; margins keep every case decisively inside its class.
    """
    kind = rng.choice(
        ["convergent", "semiconvergent", "divergent", "defective", "boundary"]
    )
    p = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
    p_inv = np.linalg.inv(p)

    def spin(scale):
        theta = rng.uniform(0.3, np.pi - 0.3)
        c, s = scale * np.cos(theta), scale * np.sin(theta)
        return np.array([[c, s], [-s, c]])

    blocks = []
    slots = n
    if kind == "semiconvergent":
        ones = int(rng.integers(1, max(2, n // 3) + 1))
        blocks.extend([np.eye(1)] * ones)
        slots -= ones
    elif kind == "defective":
        blocks.append(np.array([[1.0, 1.0], [0.0, 1.0]]))
        slots -= 2
    elif kind == "boundary":
        if rng.random() < 0.5:
            blocks.append(np.array([[-1.0]]))
            slots -= 1
        else:
            blocks.append(spin(1.0))
            slots -= 2
    elif kind == "divergent":
        rho = rng.uniform(1.1, 1.5)
        if rng.random() < 0.5 or slots < 2:
            blocks.append(np.array([[rho * rng.choice([-1.0, 1.0])]]))
            slots -= 1
        else:
            blocks.append(spin(rho))
            slots -= 2
    while slots > 0:
        lam = rng.uniform(0.05, 0.85)
        if slots >= 2 and rng.random() < 0.3:
            blocks.append(spin(lam))
            slots -= 2
        else:
            blocks.append(np.array([[lam * rng.choice([-1.0, 1.0])]]))
            slots -= 1
    return _embed(p, p_inv, blocks), str(kind)


def random_singular_m_matrix_triple(rng: np.random.Generator, n: int):
    """(A, splits): singular M-matrix with property c plus regular diagonal splittings.

    A = I - B/rho(B) with B entrywise positive, so the Perron eigenvalue is
    simple and A has index 1.  U_i = alpha_i I with alpha_i = 2, 2.5, 3
    gives regular splittings.
    """
    while True:
        b = rng.uniform(0.05, 1.0, (n, n))
        rho = float(np.max(np.abs(np.linalg.eigvals(b))))
        system = SystemMatrix(np.eye(n) - b / rho)
        if system.a_sharp is not None:
            break
    return _on_one_owner(system, [alpha * np.eye(n) for alpha in (2.0, 2.5, 3.0)])


def random_quasi_regular_triple(rng: np.random.Generator, n: int):
    """(A, splits): singular A with three semiconvergent quasi-regular splittings.

    Block frame Q diag(A1, 0) Q^-1 with A1 inverse-positive of order n - 1.
    Each split part pairs a regular splitting of A1 with an arbitrary
    positive 1 x 1 bottom block, so the unit-eigenvalue component sits
    exactly where the spectral projector K1 removes it.
    """
    r = n - 1
    if r < 2:
        raise ValueError("need n >= 3")
    q = random_monomial(rng, n)
    q_inv = np.linalg.inv(q)
    a1 = random_inverse_positive(rng, r)
    return _on_one_owner(SystemMatrix(_embed(q, q_inv, [a1, np.zeros((1, 1))])), [
        _embed(q, q_inv, [a1 + np.diag(rng.uniform(0.2, 1.5, r)), random_inverse_positive(rng, 1)])
        for _ in range(3)])
