"""Dense kernel tests: rank, spectra, group inverse, A's subspaces, exact_solution.

Expected values are either trivial identities or were computed by an
independent route (hand elimination, diagonal arithmetic, direct solves).
"""
import numpy as np
import pytest

from altsplit import (
    DimensionMismatchError,
    IndexGreaterThanOneError,
    NotSquareError,
    SystemMatrix,
    ToleranceProfile,
    exact_solution,
    gamma,
    group_inverse,
    index_at_most_one,
    is_nonnegative,
    make_splitting,
    rank,
    spectral_radius,
)
from conftest import A_EXAMPLE, A_SHARP_EXPECTED

RNG = np.random.default_rng(20240817)


def random_index_one(rng, n, r):
    if r == n:
        return rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
    p = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
    d = np.concatenate([rng.uniform(0.5, 2.0, r), np.zeros(n - r)])
    return p @ np.diag(d) @ np.linalg.inv(p)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_hand_eliminated_example(self):
        # rows 1 and 2 are independent, row 3 is zero
        assert rank(A_EXAMPLE) == 2

    def test_zero_matrix(self):
        assert rank(np.zeros((4, 4))) == 0

    def test_scaling_invariance(self):
        m = RNG.uniform(-1, 1, (5, 5))
        assert rank(m) == rank(1e12 * m) == rank(1e-12 * m)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -2.0])) == pytest.approx(2.0)

    def test_rejects_rectangular(self):
        with pytest.raises(NotSquareError):
            spectral_radius(np.zeros((2, 3)))


class TestGamma:
    def test_diagonal_excludes_unit_eigenvalue(self):
        assert gamma(np.diag([1.0, 0.5, -0.3])) == pytest.approx(0.5)

    def test_identity_is_zero(self):
        assert gamma(np.eye(5)) == 0.0

    def test_never_exceeds_spectral_radius(self):
        for _ in range(20):
            m = RNG.uniform(-1, 1, (6, 6))
            assert gamma(m) <= spectral_radius(m) + 1e-12

    def test_equals_radius_without_unit_eigenvalue(self):
        m = 0.3 * RNG.uniform(-1, 1, (6, 6))
        assert gamma(m) == pytest.approx(spectral_radius(m), abs=1e-12)


class TestGroupInverse:
    def test_identity(self):
        np.testing.assert_allclose(group_inverse(np.eye(3)), np.eye(3))

    def test_known_singular_example(self):
        np.testing.assert_allclose(
            group_inverse(A_EXAMPLE), A_SHARP_EXPECTED, atol=1e-12
        )

    def test_diagonal_index_one(self):
        np.testing.assert_allclose(
            group_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_nilpotent_raises(self):
        # index 2 in the standard basis and in a similarity frame, where G F
        # is a 1x1 round-off scalar
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = np.array([[3.0, 1.0], [-0.5, 2.0]])
        for a in (nilpotent, p @ nilpotent @ np.linalg.inv(p)):
            with pytest.raises(IndexGreaterThanOneError):
                group_inverse(a)
            with pytest.raises(IndexGreaterThanOneError):
                make_splitting(np.eye(2), a)

    def test_zero_matrix(self):
        np.testing.assert_allclose(group_inverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_defining_equations(self):
        for _ in range(25):
            n = int(RNG.integers(2, 9))
            r = int(RNG.integers(1, n + 1))
            a = random_index_one(RNG, n, r)
            x = group_inverse(a)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a @ x @ a - a)) < 1e-9 * scale
            assert np.max(np.abs(x @ a @ x - x)) < 1e-9 * scale
            assert np.max(np.abs(a @ x - x @ a)) < 1e-9 * scale

    def test_matches_inverse_when_nonsingular(self):
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        np.testing.assert_allclose(group_inverse(a), np.linalg.inv(a), atol=1e-9)

    def test_shares_range_and_null_with_input(self):
        a = random_index_one(RNG, 6, 3)
        x = group_inverse(a)
        assert SystemMatrix(a).shares_range_and_null(x)

    def test_product_is_the_spectral_projector(self):
        a = random_index_one(RNG, 6, 4)
        x = group_inverse(a)
        p = a @ x
        np.testing.assert_allclose(p, x @ a, atol=1e-10)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p @ a, a, atol=1e-10)


class TestIndexAtMostOne:
    def test_nilpotent(self):
        assert not index_at_most_one(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_known_singular_example(self):
        assert index_at_most_one(A_EXAMPLE)

    def test_nonsingular(self):
        assert index_at_most_one(RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4))

    def test_matches_rank_nullity_decomposition(self):
        for _ in range(20):
            n = int(RNG.integers(2, 8))
            r = int(RNG.integers(1, n + 1))
            a = random_index_one(RNG, n, r)
            assert index_at_most_one(a)
            assert rank(a) == r


class TestSubspacePredicates:
    # the owner of A compares a matrix's range and null space with A's
    def test_scaling_preserves_range(self):
        m = RNG.uniform(-1, 1, (5, 5))
        assert SystemMatrix(m).shares_range_and_null(2.0 * m)
        assert SystemMatrix(m).shares_range_and_null(-3.0 * m)

    def test_empty_projectors_agree(self):
        empty = np.zeros((0, 0))
        assert SystemMatrix(empty).shares_range_and_null(empty)

    def test_different_null_spaces(self):
        assert not SystemMatrix(np.eye(2)).shares_range_and_null(np.diag([1.0, 0.0]))
        assert not SystemMatrix(np.diag([1.0, 0.0])).shares_range_and_null(np.eye(2))

    def test_projectors_of_a_are_taken_once_and_read_only(self):
        system = SystemMatrix(RNG.uniform(-1, 1, (4, 4)))
        assert system.shares_range_and_null(system.a)
        assert system.projectors is system.projectors
        assert not any(p.flags.writeable for p in system.projectors)


class TestIsNonnegative:
    def test_zero(self):
        assert is_nonnegative(np.zeros((3, 3)))

    def test_roundoff_slack(self):
        m = np.array([[1.0, -1e-13], [0.0, 2.0]])
        assert is_nonnegative(m)
        assert not is_nonnegative(m, ToleranceProfile(nonneg_tol=1e-14))

    def test_plainly_negative(self):
        assert not is_nonnegative(np.array([[1.0, -0.5]]))


class TestGenSolve:
    def test_scaled_identity(self):
        np.testing.assert_allclose(
            exact_solution(2.0 * np.eye(2), [4.0, 6.0]), [2.0, 3.0]
        )

    def test_identity_returns_rhs(self):
        b = RNG.uniform(-1, 1, 4)
        np.testing.assert_allclose(exact_solution(np.eye(4), b), b)

    def test_nonsingular_is_one_lu_solve(self):
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        b = RNG.uniform(-1, 1, 5)
        np.testing.assert_array_equal(exact_solution(a, b), np.linalg.solve(a, b))

    def test_singular_uses_group_inverse(self):
        # A# b computed by multiplying the known group inverse
        b = np.array([2.0, 0.5, 0.0])
        np.testing.assert_allclose(
            exact_solution(A_EXAMPLE, b), A_SHARP_EXPECTED @ b, atol=1e-12
        )
        np.testing.assert_allclose(exact_solution(A_EXAMPLE, b), [2.0, 1.125, 0.0])

    def test_index_two_raises(self):
        with pytest.raises(IndexGreaterThanOneError):
            exact_solution(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 1.0])
