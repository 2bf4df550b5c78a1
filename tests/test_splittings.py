"""Splitting construction, classification and iteration-matrix algebra."""
from functools import reduce

import numpy as np
import pytest

from altsplit import (
    DEFAULT_TOL,
    Alternation,
    DimensionMismatchError,
    MismatchedSplittingError,
    RangeNullConditionError,
    SchemeConfig,
    Splitting,
    SystemMatrix,
    Witness,
    ZeroDiagonalError,
    alternating_iteration_matrix,
    b_sharp_closed_form,
    classify,
    companion_matrix,
    diag_scaling_splitting,
    group_inverse,
    index_at_most_one,
    is_nonnegative,
    make_laplace,
    make_random_walk,
    make_splitting,
    spectral_radius,
    verify_convergence_theorem,
    verify_semiconvergence_theorem,
)
import altsplit.schemes
import altsplit.splittings as splittings
from altsplit.analysis import CONVERGENCE_THEOREMS, SEMICONVERGENCE_THEOREMS
from altsplit.generators import (
    random_group_monotone_regular_triple,
    random_index_one,
    random_inverse_positive,
    random_proper_triple,
    random_quasi_regular_triple,
    random_singular_m_matrix_triple,
)
from conftest import (
    A_EXAMPLE,
    A_SHARP_EXPECTED,
    K_EXAMPLE,
    U_EXAMPLE,
    X_EXAMPLE,
    SingularIminusHError,
    induced_splitting,
    pass_from_zero,
)

RNG = np.random.default_rng(811)


class TestMakeSplitting:
    def test_v_is_derived(self, example_matrices):
        a, k, _, _ = example_matrices
        s = make_splitting(a, k)
        np.testing.assert_allclose(s.v, k - a)
        assert not s.u_nonsingular

    def test_u_equals_a_gives_zero_v(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        s = make_splitting(a, a)
        np.testing.assert_allclose(s.v, np.zeros((4, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_splitting(np.eye(3), np.eye(2))

    def test_laplace_diag_scaling(self):
        problem = make_laplace(21)
        s = diag_scaling_splitting(problem.A, 1.5)
        np.testing.assert_allclose(np.diag(s.u), 1.5 * np.diag(problem.A))
        assert s.u_nonsingular

    def test_diag_scaling_identity_diagonal(self):
        walk = make_random_walk(10)
        s = diag_scaling_splitting(walk.A, 2.0)
        np.testing.assert_allclose(s.u, 2.0 * np.eye(10))

    def test_diag_scaling_alpha_one_on_diagonal_matrix(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = diag_scaling_splitting(a, 1.0)
        np.testing.assert_allclose(s.v, np.zeros((3, 3)))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ZeroDiagonalError):
            diag_scaling_splitting(np.array([[0.0, 1.0], [1.0, 1.0]]), 2.0)

    def test_u_is_kept_as_a_read_only_copy(self):
        a = np.array([[4.0, -1.0], [-1.0, 4.0]])
        u = np.array([[5.0, -1.0], [0.0, 5.0]])
        s = make_splitting(a, u)
        u[0, 0] = 100.0
        assert s.u[0, 0] == 5.0 and not s.u.flags.writeable
        np.testing.assert_allclose(s.u - s.v, a)
        np.testing.assert_allclose(s.solve(s.u), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(s.right_apply(s.u), np.eye(2), atol=1e-15)

    def test_splittings_compare_and_hash_by_identity(self):
        a = make_random_walk(5).A
        s1, s2 = diag_scaling_splitting(a, 2.0), diag_scaling_splitting(a, 3.0)
        assert s1 == s1 and s1 != s2 and s1 != diag_scaling_splitting(a, 2.0)
        assert s1 in [s2, s1] and s2 not in [s1]
        assert len({s1, s2, s1}) == 2
        assert SchemeConfig([s1]) == SchemeConfig([s1]) != SchemeConfig([s2])


class TestClassify:
    def test_example_proper_but_not_type_two(self, example_triple):
        # witness entries -1, -1, -0.25 in VU#, LK#, YX# respectively
        expected_min = {0: -1.0, 1: -1.0, 2: -0.25}
        for i, s in enumerate(example_triple):
            rep = classify(s)
            assert rep.is_proper
            assert not rep.is_g_weak_regular_type2
            w = rep.witnesses["is_g_weak_regular_type2"]
            assert w.min_entry == pytest.approx(expected_min[i], abs=1e-9)

    def test_walk_diag_splitting_is_regular(self):
        walk = make_random_walk(10)
        rep = classify(diag_scaling_splitting(walk.A, 2.0))
        assert rep.is_regular
        assert rep.is_weak_regular_type1 and rep.is_weak_regular_type2
        # A is singular while U is not, so the splitting is not proper
        assert not rep.is_proper

    def test_nonsingular_trivial_splitting(self):
        a = np.diag([1.0, 2.0])  # inverse-positive
        rep = classify(make_splitting(a, a))
        assert rep.is_proper and rep.is_regular
        rep2 = classify(make_splitting(-a, -a))  # inverse is negative
        assert rep2.is_proper and not rep2.is_regular

    def test_order_zero_splitting_is_in_every_class(self):
        rep = classify(make_splitting(np.zeros((0, 0)), np.zeros((0, 0))))
        assert all(rep.flags().values()) and not rep.witnesses

    def test_regular_implies_both_weak_types(self):
        for _ in range(10):
            _, splits = random_group_monotone_regular_triple(RNG, 6)
            for s in splits:
                rep = classify(s)
                assert rep.is_g_regular
                assert rep.is_g_weak_regular_type1 and rep.is_g_weak_regular_type2


def _generated(generator, seed, i):
    return lambda: generator(np.random.default_rng(seed), 5)[1][i]


# (id, splitting builder, the base failure the instance is known to have)
WITNESS_CASES = [
    ("example-K", lambda: make_splitting(A_EXAMPLE, K_EXAMPLE), "singular U"),
    ("example-U", lambda: make_splitting(A_EXAMPLE, U_EXAMPLE), "singular U"),
    ("example-X", lambda: make_splitting(A_EXAMPLE, X_EXAMPLE), "singular U"),
    ("walk-diag", lambda: diag_scaling_splitting(make_random_walk(10).A, 2.0), "not proper"),
    ("negative-U#", lambda: make_splitting(-np.diag([1.0, 2.0]), -np.diag([1.0, 2.0])),
     "negative U#"),
] + [
    (f"{generator.__name__}-{seed}-{i}", _generated(generator, seed, i), None)
    for generator in (
        random_group_monotone_regular_triple,
        random_proper_triple,
        random_quasi_regular_triple,
        random_singular_m_matrix_triple,
    )
    for seed in (3, 17)
    for i in range(3)
]
G_CLASSES = ("is_g_regular", "is_g_weak_regular_type1", "is_g_weak_regular_type2")
PLAIN_CLASSES = ("is_regular", "is_weak_regular_type1", "is_weak_regular_type2")
QUASI_CLASSES = (
    "is_quasi_regular", "is_quasi_weak_regular_type1", "is_quasi_weak_regular_type2"
)


# type I <-> type II: transposing A and U maps U#V to (V U#)^T, V K1 to (V K1)^T
TYPE_SWAP = {f"is_{family}weak_regular_type{k}": f"is_{family}weak_regular_type{3 - k}"
             for family in ("g_", "", "quasi_") for k in (1, 2)}


def _type_two_only(seed):
    """(A, U) with A = sI - N and U^-1 = t (I + eps E), E >= 0, when the
    splitting is weak regular of type II and not of type I, else None."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    a = random_inverse_positive(rng, n)
    e = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
    t = rng.uniform(0.3, 1.0) / a.diagonal().max()
    x = t * (np.eye(n) + rng.uniform(0.05, 0.5) * e)
    if np.min(np.eye(n) - a @ x) >= 0 and np.min(np.eye(n) - x @ a) < -1e-8:
        return a, np.linalg.inv(x)
    return None


class TestTransposeSwapsWeakTypes:
    @staticmethod
    def assert_swapped(a, u):
        flags = classify(make_splitting(a, u)).flags()
        flipped = classify(make_splitting(a.T, u.T)).flags()
        assert flipped == {TYPE_SWAP.get(name, name): v for name, v in flags.items()}
        return flags

    @pytest.mark.parametrize("generator", [
        random_group_monotone_regular_triple,
        random_proper_triple,
        random_quasi_regular_triple,
        random_singular_m_matrix_triple,
    ])
    def test_generated_triples(self, generator):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, splits = generator(rng, int(rng.integers(3, 9)))
            for s in splits:
                self.assert_swapped(a, s.u)

    def test_type_two_but_not_type_one(self):
        cases = [case for case in map(_type_two_only, range(400)) if case is not None]
        assert len(cases) >= 10
        for a, u in cases:
            flags = self.assert_swapped(a, u)
            for family in ("g_", "", "quasi_"):
                assert flags[f"is_{family}weak_regular_type2"]
                assert not flags[f"is_{family}weak_regular_type1"]


class TestPositiveScalingKeepsEveryClass:
    # (cA) = (cU) - (cV), and every product the classes test scales by a
    # positive factor or not at all
    @pytest.mark.parametrize("generator", [
        random_group_monotone_regular_triple,
        random_proper_triple,
        random_quasi_regular_triple,
        random_singular_m_matrix_triple,
    ])
    def test_generated_triples(self, generator):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, splits = generator(rng, int(rng.integers(4, 7)))
            for s in splits:
                flags = classify(s).flags()
                assert len(flags) == 10
                for c in (0.1, 0.25, 0.5, 2.0, 3.0, 4.0):
                    assert classify(make_splitting(SystemMatrix(c * a), c * s.u)).flags() == flags


class TestClassifyWitnessPrecedence:
    @pytest.mark.parametrize(
        "build, known", [case[1:] for case in WITNESS_CASES], ids=[c[0] for c in WITNESS_CASES]
    )
    def test_base_witness_comes_first(self, build, known):
        s = build()
        rep = classify(s)
        flags = rep.flags()
        assert len(flags) == 10
        for name, holds in flags.items():
            assert holds == (name not in rep.witnesses), name
        assert set(rep.witnesses) <= set(flags)

        u_sharp_negative = not is_nonnegative(s.u_sharp)
        if known == "singular U":
            assert not s.u_nonsingular
        elif known == "not proper":
            assert not rep.is_proper
        elif known == "negative U#":
            assert u_sharp_negative

        if not rep.is_proper:
            for name in G_CLASSES:
                assert rep.witnesses[name] == rep.witnesses["is_proper"]
        elif u_sharp_negative:
            for name in G_CLASSES:
                assert rep.witnesses[name].check == "U# >= 0"
        if not s.u_nonsingular:
            for name in PLAIN_CLASSES + QUASI_CLASSES:
                assert rep.witnesses[name] == Witness(check="U is singular", matrix="U")
        elif u_sharp_negative:
            for name in PLAIN_CLASSES:
                assert rep.witnesses[name].check == "U# >= 0"

    def test_ill_conditioned_u_keeps_the_sign_of_u_inverse_v_k1(self):
        """U^-1 = x y^T + 10^-d R > 0 with cond(U) = 2.3e8 and V = U (I - T1).

        A 60-digit evaluation gives min(U^-1 V K1) = -0.653, so the splitting
        is not quasi weak regular of type I; ``inv(U) @ V`` in place of a
        solve with U carried enough error to flip the sign to true.
        """
        rng = np.random.default_rng(2179)
        n = int(rng.integers(3, 8))
        t1 = random_index_one(rng, n, int(rng.integers(1, n)))
        x = np.outer(rng.uniform(0.5, 1, n), rng.uniform(0.5, 1, n))
        u = np.linalg.inv(x + 10 ** -rng.uniform(0, 10) * rng.uniform(0, 1, (n, n)))
        rep = classify(make_splitting(u @ t1, u))
        assert not rep.is_quasi_weak_regular_type1
        witness = rep.witnesses["is_quasi_weak_regular_type1"]
        assert witness.check == "U^-1 V K1 >= 0"
        assert witness.min_entry < -0.1


def _markov_splitting(rng, n, decades):
    """V = U P with P row-stochastic and U positive diagonal, cond(U) = 10**decades."""
    p = rng.uniform(0.0, 1.0, (n, n))
    p /= p.sum(axis=1, keepdims=True)
    u = np.diag(np.logspace(0, decades, n)[rng.permutation(n)])
    return make_splitting(u - u @ p, u)


def _dense_u_splitting(seed, u_inverse_positive):
    """Singular index-1 A with a random dense nonsingular U, U^-1 > 0 if asked."""
    rng = np.random.default_rng(seed)
    a = random_index_one(rng, 5, 4)
    if u_inverse_positive:
        return make_splitting(a, np.linalg.inv(rng.uniform(0.1, 1.0, (5, 5))))
    return make_splitting(a, rng.uniform(-1.0, 1.0, (5, 5)) + 5 * np.eye(5))


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
INDEX_WITNESS = Witness(check="index(I - U^-1 V) or index(I - V U^-1) exceeds 1",
                        matrix="I - U^-1 V")
# (id, splitting builder): every U is nonsingular
QUASI_CASES = [
    (f"quasi-triple-{seed}-{i}", _generated(random_quasi_regular_triple, seed, i))
    for seed in range(4) for i in range(3)
] + [
    (f"dense-U-{seed}-{positive}", lambda seed=seed, positive=positive:
     _dense_u_splitting(seed, positive))
    for seed in range(3) for positive in (False, True)
] + [
    ("walk-diag", lambda: diag_scaling_splitting(make_random_walk(10).A, 2.0)),
] + [
    (f"markov-{seed}-{decades}", lambda seed=seed, decades=decades:
     _markov_splitting(np.random.default_rng(seed), 5, decades))
    for seed in range(3) for decades in (0, 2, 4)
] + [
    ("index-2", lambda: make_splitting(NILPOTENT, np.eye(2))),
    ("index-2-kron", lambda: make_splitting(np.kron(np.eye(2), NILPOTENT), 2 * np.eye(4))),
]


def _quasi_reference(s):
    """The quasi classes from their definitions, each group inverse taken on its own.

    T1 = I - U^-1 V, T2 = I - V U^-1, K1 = T1 T1#, K2 = T2# T2.  Returns the
    failed base check, or the products V K1, U^-1 V K1 and K2 V U^-1.
    """
    u_inv = np.linalg.inv(s.u)
    if not is_nonnegative(u_inv):
        return "U# >= 0"
    t1, t2 = np.eye(s.n) - u_inv @ s.v, np.eye(s.n) - s.v @ u_inv
    if not (index_at_most_one(t1) and index_at_most_one(t2)):
        return "index"
    k1, k2 = t1 @ group_inverse(t1), group_inverse(t2) @ t2
    return (s.v @ k1, u_inv @ s.v @ k1, k2 @ s.v @ u_inv)


class TestQuasiClassesFollowTheirDefinitions:
    @pytest.mark.parametrize(
        "build", [case[1] for case in QUASI_CASES], ids=[c[0] for c in QUASI_CASES]
    )
    def test_verdicts_and_witnesses_match_the_definitions(self, build):
        s = build()
        rep = classify(s)
        expected = _quasi_reference(s)
        if expected == "U# >= 0":
            for name in QUASI_CLASSES:
                assert rep.witnesses[name].check == "U# >= 0"
        elif expected == "index":
            for name in QUASI_CLASSES:
                assert rep.witnesses[name] == INDEX_WITNESS
        else:
            for name, product in zip(QUASI_CLASSES, expected):
                lo = float(product.min())
                assert getattr(rep, name) == (lo >= -DEFAULT_TOL.nonneg_tol), name
                if name in rep.witnesses:
                    assert rep.witnesses[name].min_entry == pytest.approx(lo, rel=1e-12)

    def test_the_corpus_reaches_every_branch(self):
        kinds = [_quasi_reference(build()) for _, build in QUASI_CASES]
        assert "U# >= 0" in kinds and "index" in kinds
        lows = [p.min() for k in kinds if not isinstance(k, str) for p in k]
        assert min(lows) < -1e-6 and max(lows) >= -DEFAULT_TOL.nonneg_tol

    def test_one_index_decision_per_nonsingular_u(self, monkeypatch):
        # each read of a factorization's group inverse is an index decision
        sharp, decided = splittings._Factored.sharp.func, []
        monkeypatch.setattr(splittings._Factored, "sharp",
                            property(lambda f: decided.append(f.m) or sharp(f)))
        s = _generated(random_quasi_regular_triple, 0, 0)()
        assert s.u_nonsingular
        classify(s)
        assert len(decided) == 1

    def test_a_stochastic_p_never_gives_an_index_witness(self):
        # index(I - P) = 1 for every stochastic P, so with V = U P the
        # quasi base can fail only on U# >= 0, never on the index.  The
        # similar I - V U^-1 = U (I - P) U^-1 is as badly conditioned as U
        # (cond 1e7), and an index decision on it misjudges this instance.
        s = _markov_splitting(np.random.default_rng(0), 5, 7)
        rep = classify(s)
        for name in QUASI_CLASSES:
            assert rep.witnesses[name] != INDEX_WITNESS


class TestAlternatingIterationMatrix:
    def test_example_radius_is_one_quarter(self, example_triple):
        h = alternating_iteration_matrix(example_triple)
        assert spectral_radius(h) == pytest.approx(0.25, abs=1e-10)

    def test_zero_v_gives_zero_matrix(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        h = alternating_iteration_matrix([make_splitting(a, a)])
        np.testing.assert_allclose(h, np.zeros((4, 4)), atol=1e-14)

    def test_repeated_splitting_squares(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        s = make_splitting(a, a + np.diag(RNG.uniform(0.2, 1.0, 4)))
        t = s.iteration_matrix
        np.testing.assert_allclose(
            alternating_iteration_matrix([s, s]), t @ t, atol=1e-12
        )

    def test_mismatched_a_rejected(self):
        s1 = make_splitting(np.eye(3), 2 * np.eye(3))
        s2 = make_splitting(2 * np.eye(3), 3 * np.eye(3))
        with pytest.raises(MismatchedSplittingError):
            alternating_iteration_matrix([s1, s2])

    def test_different_tiny_matrices_rejected(self):
        # both differ by far less than any absolute slack
        a1 = 1e-12 * np.array([[2.0, -1.0], [-1.0, 2.0]])
        a2 = 1e-12 * np.array([[5.0, 3.0], [3.0, 5.0]])
        s1, s2 = make_splitting(a1, 2 * a1), make_splitting(a2, 2 * a2)
        with pytest.raises(MismatchedSplittingError):
            alternating_iteration_matrix([s1, s2])
        with pytest.raises(MismatchedSplittingError):
            SchemeConfig(splittings=[s1, s2])

    def test_bitwise_equal_copies_share_a(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        splits = [diag_scaling_splitting(a.copy(), alpha) for alpha in (1.0, 1.5, 2.0)]
        assert splits[0].a is not splits[1].a
        SchemeConfig(splittings=splits)
        one_owner = [diag_scaling_splitting(splits[0].system, alpha) for alpha in (1.0, 1.5, 2.0)]
        np.testing.assert_array_equal(alternating_iteration_matrix(splits),
                                      alternating_iteration_matrix(one_owner))


class TestAlternation:
    def test_h_is_formed_once_and_read_only(self, example_triple):
        h = Alternation(example_triple)
        assert alternating_iteration_matrix(h) is h.iteration_matrix
        assert not h.iteration_matrix.flags.writeable
        np.testing.assert_array_equal(h.iteration_matrix, alternating_iteration_matrix(
            list(example_triple)))
        assert list(h.pairs) == ["B12", "B13", "B23"]
        assert h.pairs["B13"].splits == (example_triple[0], example_triple[2])
        assert not Alternation(example_triple[:2]).pairs

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_h_is_i_minus_p_a(self, k):
        # one pass is x + P (b - A x), so H = I - P A, also for a singular A
        walk = make_random_walk(30)
        h = Alternation([diag_scaling_splitting(walk.A, a) for a in (2.0, 2.5, 3.0)][:k])
        assert not h.iteration_matrix.flags.writeable
        np.testing.assert_allclose(np.eye(30) - pass_from_zero(h.splits) @ walk.A,
                                   h.iteration_matrix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 3])
    def test_the_pass_from_zero_is_the_induced_b_inverse(self, seed, k):
        # the pass from 0 on the columns of I is P = (I - H) A^-1 = B^-1,
        # for nonsingular A and dense nonsingular U
        _, splits = random_group_monotone_regular_triple(np.random.default_rng(seed), 6, 6)
        h = Alternation(splits[:k])
        assert all(s._recip is None and s.u_nonsingular for s in h.splits)
        np.testing.assert_allclose(pass_from_zero(h.splits), h.induced.u_sharp, rtol=0,
                                   atol=1e-10)

    @pytest.mark.parametrize("make", [random_group_monotone_regular_triple, random_proper_triple,
                                      random_singular_m_matrix_triple,
                                      random_quasi_regular_triple])
    def test_h_is_the_product_of_the_single_step_matrices(self, make):
        # the oracle (X#Y)(U#V)(K#L), from each splitting's own U#V = solve(V),
        # against the steps run on I; singular U included
        singular = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            _, splits = make(rng, int(rng.integers(3, 8)))
            singular += not all(s.u_nonsingular for s in splits)
            for chosen in (splits[:1], splits[:2], splits, splits[::-1]):
                want = reduce(lambda h, t: t @ h, [s.iteration_matrix for s in chosen])
                got = Alternation(chosen).iteration_matrix
                assert float(np.max(np.abs(got - want))) <= 1e-14, seed
        # the G families draw a singular A, and with it a singular U, in 33 of 50
        proper = make in (random_group_monotone_regular_triple, random_proper_triple)
        assert singular == (33 if proper else 0)

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_csr_and_dense_give_one_pass(self, k, delta, residual):
        # the steps on I as CSR, over A's CSR sweep operator, and dense
        walk = make_random_walk(splittings.CSR_MIN_ORDER)
        h = Alternation([diag_scaling_splitting(walk.A, a) for a in (2.0, 2.5, 3.0)][:k])
        assert type(h.system.a_op) is not np.ndarray
        sparse = h._identity_pass(residual, sparse=True, delta=delta)
        assert sparse.format == "csr" and sparse.has_sorted_indices
        dense = h._identity_pass(residual, delta=delta)
        assert type(dense) is np.ndarray
        np.testing.assert_allclose(sparse.toarray(), dense, rtol=0, atol=1e-15)
        if not residual and delta is None:
            np.testing.assert_array_equal(dense, h.iteration_matrix)

    def test_h_of_a_csr_a_with_a_singular_diagonal_u(self):
        # H is dense whatever A's storage: a singular U steps by U#(U x + r)
        n = splittings.CSR_MIN_ORDER
        walk = make_random_walk(n)
        u = np.diag(np.diag(walk.A) * np.r_[0.0, np.full(n - 1, 2.0)])
        s = make_splitting(walk.A, u)
        assert s._recip is not None and not s.u_nonsingular
        h = Alternation([s, diag_scaling_splitting(s.system, 2.0)])
        assert type(h.system.a_op) is not np.ndarray
        want = h.splits[1].iteration_matrix @ s.iteration_matrix
        np.testing.assert_allclose(h.iteration_matrix, want, rtol=0, atol=1e-14)
        assert altsplit.schemes._window(h, None, np.zeros(n), False) is None

    def test_a_run_forms_its_pass_only_for_nonsingular_u_and_a_dense_or_diagonal_u(
            self, example_triple):
        window = altsplit.schemes._window
        walk = make_random_walk(10)
        splits = [diag_scaling_splitting(walk.A, a) for a in (2.0, 2.5, 3.0)]
        assert window(Alternation(splits[:2]), None, np.zeros(10), True) is not None
        # one splitting's G is I - A U^-1, formed without a dense U^-1 on the splitting
        np.testing.assert_array_equal(window(Alternation(splits[:1]), None, np.zeros(10), True).m,
                                      np.eye(10) - walk.A * (1.0 / np.diag(splits[0].u)))
        assert "u_sharp" not in vars(splits[0])
        assert not example_triple[0].u_nonsingular
        assert window(Alternation(example_triple), None, np.zeros(3), True) is None  # a singular U
        n = splittings.CSR_MIN_ORDER
        big = make_random_walk(n)  # applied as CSR
        # diagonal U: a sorted CSR G, I - A P for the dense step formula of P
        for k in (1, 2, 3):
            csr_splits = [diag_scaling_splitting(big.A, a) for a in (2.0, 2.5, 3.0)][:k]
            g = window(Alternation(csr_splits), None, np.zeros(n), True).m
            assert g.format == "csr" and g.has_sorted_indices
            np.testing.assert_allclose(g.toarray(), np.eye(n) - big.A @ pass_from_zero(csr_splits),
                                       rtol=0, atol=1e-15)
        # a dense U would fill the pass in
        assert window(Alternation([diag_scaling_splitting(big.A, 2.0),
                                   make_splitting(big.A, 2.0 * np.tril(big.A))]),
                      None, np.zeros(n), False) is None
        full = np.random.default_rng(0).uniform(-1, 1, (n, n)) + n * np.eye(n)  # applied dense
        h = Alternation([diag_scaling_splitting(full, a) for a in (1.0, 1.5)])
        assert h.system.a_op is h.system.a
        np.testing.assert_allclose(np.eye(n) - pass_from_zero(h.splits) @ full,
                                   window(h, None, np.zeros(n), False).m, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make", [random_group_monotone_regular_triple, random_proper_triple,
                                      random_singular_m_matrix_triple,
                                      random_quasi_regular_triple])
    def test_cyclic_rotations_keep_rho_and_gamma(self, make):
        # (K, U, X), (U, X, K) and (X, K, U) give products X#Y U#V K#L,
        # K#L X#Y U#V and U#V K#L X#Y with one nonzero spectrum
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, splits = make(rng, int(rng.integers(3, 8)))
            spectra = [Alternation(splits[i:] + splits[:i]).spectrum for i in range(3)]
            for rho, gamma, _ in spectra[1:]:
                assert abs(rho - spectra[0][0]) <= 1e-12, seed
                assert abs(gamma - spectra[0][1]) <= 1e-12, seed


SOLVE_RNG = np.random.default_rng(20240817)


class TestSolvesWithU:
    def test_diagonal_fast_path_matches_dense(self):
        d = np.diag([2.0, 4.0, 8.0])
        b = np.array([2.0, 4.0, 8.0])
        np.testing.assert_allclose(make_splitting(d, d).solve(b), np.ones(3))

    def test_right_apply_matches_explicit_inverse(self):
        u = SOLVE_RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        m = SOLVE_RNG.uniform(-1, 1, (5, 5))
        s = make_splitting(u, u)
        np.testing.assert_allclose(
            s.right_apply(m), m @ np.linalg.inv(u), atol=1e-10
        )
        np.testing.assert_allclose(
            s.solve(m), np.linalg.solve(u, m), atol=1e-10
        )

    def test_dense_mode_is_bitwise_numpy(self):
        u = SOLVE_RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        m = SOLVE_RNG.uniform(-1, 1, (5, 5))
        s = make_splitting(u, u)
        inv = np.linalg.inv(u)
        for got, want in (
            (s.solve(m[0]), inv @ m[0]),
            (s.solve(m), np.linalg.solve(u, m)),
            (s.right_apply(m), np.linalg.solve(u.T, m.T).T),
            (s.u_sharp, inv),
        ):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("u", [A_EXAMPLE, np.eye(3) + np.triu(np.ones((3, 3))),
                                   np.diag([2.0, 4.0, 0.0])],
                             ids=["sharp", "inverse", "diagonal"])
    def test_kept_matrix_is_read_only(self, u):
        s = make_splitting(u, u)
        b = np.array([1.0, 2.0, 3.0])
        before = s.solve(b)
        with pytest.raises(ValueError):
            s.u_sharp[0, 0] += 1.0
        np.testing.assert_array_equal(s.solve(b), before)

    def test_off_diagonal_u_with_a_zero_diagonal_is_dense(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = make_splitting(u, u)
        assert s.u_nonsingular
        np.testing.assert_array_equal(s.u_sharp, u)
        np.testing.assert_array_equal(s.solve(np.array([1.0, 2.0])), [2.0, 1.0])

    def test_singular_mode_uses_group_inverse(self):
        s = make_splitting(A_EXAMPLE, A_EXAMPLE)
        assert not s.u_nonsingular
        np.testing.assert_allclose(
            s.u_sharp, A_SHARP_EXPECTED, atol=1e-12
        )

    @pytest.mark.parametrize("u", [A_EXAMPLE, np.eye(3) + np.triu(np.ones((3, 3))),
                                   np.diag([2.0, 4.0, 0.0]), np.diag([2.0, 4.0, 8.0])],
                             ids=["sharp", "inverse", "singular-diagonal", "diagonal"])
    def test_correct_is_the_splitting_step(self, u):
        # correct(x, b - A x) = U#(V x + b) for A = U - V at any x, also
        # with x outside R(U)
        a = u - SOLVE_RNG.uniform(-1, 1, (3, 3))
        x, b = SOLVE_RNG.uniform(-1, 1, 3), SOLVE_RNG.uniform(-1, 1, 3)
        s = make_splitting(a, u)
        np.testing.assert_allclose(s.correct(x, b - a @ x),
                                   s.u_sharp @ ((u - a) @ x + b), atol=1e-12)

    @pytest.mark.parametrize("cols", [3, 4])
    @pytest.mark.parametrize("u", [A_EXAMPLE, np.eye(3) + np.triu(np.ones((3, 3))),
                                   np.diag([2.0, 4.0, 0.0]), np.diag([2.0, 4.0, 8.0])],
                             ids=["sharp", "inverse", "singular-diagonal", "diagonal"])
    def test_correct_on_a_block_is_correct_on_each_column(self, u, cols):
        # a diagonal U scales the rows of the block, not its columns
        a = u - SOLVE_RNG.uniform(-1, 1, (3, 3))
        x, r = SOLVE_RNG.uniform(-1, 1, (3, cols)), SOLVE_RNG.uniform(-1, 1, (3, cols))
        s = make_splitting(a, u)
        by_column = np.column_stack([s.correct(x[:, j], r[:, j]) for j in range(cols)])
        np.testing.assert_allclose(s.correct(x, r), by_column, rtol=0, atol=1e-14)


class TestCachedFactors:
    def test_each_factor_is_formed_once(self, example_matrices):
        a, k, _, _ = example_matrices
        s = make_splitting(a, k)
        for name in ("v", "iteration_matrix", "reversed_iteration_matrix", "u_sharp",
                     "u_factored"):
            assert getattr(s, name) is getattr(s, name), name
        assert s.system.a_op is s.system.a_op
        np.testing.assert_array_equal(s.iteration_matrix, s.solve(k - a))
        np.testing.assert_array_equal(s.reversed_iteration_matrix,
                                      s.right_apply(k - a))

    def test_factors_are_read_only(self, example_triple):
        # one splitting's H is its own U#V: a singular U's first step,
        # U#(U I - A), is bit for bit U# V
        h = alternating_iteration_matrix(example_triple[:1])
        np.testing.assert_array_equal(h, example_triple[0].iteration_matrix)
        for m in (h, example_triple[0].iteration_matrix):
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    @pytest.mark.parametrize("make", [random_group_monotone_regular_triple,
                                      random_quasi_regular_triple])
    def test_classify_and_verifiers_read_the_cached_factors(self, monkeypatch, make):
        _, splits = make(np.random.default_rng(5), 5)
        for s in splits:
            s.iteration_matrix, s.reversed_iteration_matrix
        v_of = {id(s): s.v for s in splits}
        formed = []

        def spy(method):
            def wrapped(self, m):
                if m is v_of.get(id(self)):
                    formed.append(method.__name__)
                return method(self, m)
            return wrapped

        monkeypatch.setattr(Splitting, "solve", spy(Splitting.solve))
        monkeypatch.setattr(Splitting, "right_apply", spy(Splitting.right_apply))
        for s in splits:
            classify(s)
        for theorem_id in CONVERGENCE_THEOREMS:
            verify_convergence_theorem(theorem_id, splits)
        for theorem_id in SEMICONVERGENCE_THEOREMS:
            verify_semiconvergence_theorem(theorem_id, splits, delta=0.5)
        companion_matrix(splits)
        assert formed == []

    def test_dense_singular_u_is_factored_once(self, linalg_spy):
        # the splitting's nonsingularity test of U and U#, and classify's proper
        # test, all read one factorization of U
        s = make_splitting(A_EXAMPLE, U_EXAMPLE)
        report = classify(s)
        assert not s.u_nonsingular and report.is_proper
        assert linalg_spy.count("svd", U_EXAMPLE) == 1
        np.testing.assert_allclose(s.u_sharp, group_inverse(U_EXAMPLE), atol=1e-14)

    @pytest.mark.parametrize("u_diag, proper", [
        ((3.0, 3.0, 0.0), True),     # range(U) = span(e1, e2) = range(A)
        ((3.0, 3.0, 1.0), False),    # U nonsingular, A not
        ((3.0, 0.0, 0.0), False),    # null(U) holds e2, null(A) does not
    ])
    def test_diagonal_u_is_proper_without_a_factorization(self, linalg_spy, u_diag, proper):
        # a diagonal U's projectors come from its nonzero entries, and agree
        # with the ones its factorization gives
        a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        u = np.diag(u_diag)
        s = make_splitting(a, u)
        assert classify(s).is_proper is proper
        assert linalg_spy.count("svd", u) == 0 and "u_factored" not in vars(s)
        assert s.system.shares_range_and_null(u) is proper


class TestCompanionMatrix:
    def test_nonnegative_for_type_two_triples(self):
        for _ in range(10):
            _, splits = random_group_monotone_regular_triple(RNG, 6)
            assert is_nonnegative(companion_matrix(splits))

    def test_zero_factor_gives_zero(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        s1 = make_splitting(a, a)
        s2 = make_splitting(a, a + np.eye(4))
        np.testing.assert_allclose(
            companion_matrix([s1, s2]), np.zeros((4, 4)), atol=1e-13
        )

    def test_shares_radius_with_iteration_matrix(self, example_triple):
        # rho(S) = rho(H), checked by dense eigensolve on both products
        h = alternating_iteration_matrix(example_triple)
        s = companion_matrix(example_triple)
        assert spectral_radius(s) == pytest.approx(0.25, abs=1e-10)
        assert abs(spectral_radius(s) - spectral_radius(h)) < 1e-10

    def test_similarity_identity(self, example_triple):
        # S = A H A# and the projector absorbs S on both sides
        a = A_EXAMPLE
        h = alternating_iteration_matrix(example_triple)
        s = companion_matrix(example_triple)
        a_sharp = group_inverse(a)
        np.testing.assert_allclose(s, a @ h @ a_sharp, atol=1e-12)
        p = a @ a_sharp
        np.testing.assert_allclose(p @ s, s, atol=1e-12)
        np.testing.assert_allclose(s @ p, s, atol=1e-12)


class TestProperSplittingIdentities:
    def test_projector_and_resolvent_identities(self, example_triple):
        # AA# = UU#, I - U#V nonsingular, A# = (I - U#V)^-1 U#
        a_sharp = group_inverse(A_EXAMPLE)
        for s in example_triple:
            u_sharp = s.u_sharp
            np.testing.assert_allclose(
                A_EXAMPLE @ a_sharp, s.u @ u_sharp, atol=1e-12
            )
            resolvent = np.eye(3) - s.iteration_matrix
            np.testing.assert_allclose(
                a_sharp, np.linalg.solve(resolvent, u_sharp), atol=1e-11
            )


class TestInducedSplitting:
    def test_zero_h_returns_a_itself(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        s = induced_splitting(a, np.zeros((4, 4)))
        np.testing.assert_allclose(s.u, a)
        np.testing.assert_allclose(s.v, np.zeros((4, 4)), atol=1e-14)

    def test_reproduces_h(self, example_triple):
        h = alternating_iteration_matrix(example_triple)
        ind = induced_splitting(A_EXAMPLE, h)
        np.testing.assert_allclose(ind.iteration_matrix, h, atol=1e-12)

    def test_uniqueness_under_recomputation(self, example_triple):
        # recomputing the induced splitting from H = B#C reproduces B
        h = alternating_iteration_matrix(example_triple)
        ind = induced_splitting(A_EXAMPLE, h)
        again = induced_splitting(A_EXAMPLE, ind.iteration_matrix)
        np.testing.assert_allclose(again.u, ind.u, atol=1e-10)

    def test_singular_shift_rejected(self):
        with pytest.raises(SingularIminusHError):
            induced_splitting(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("make", [random_group_monotone_regular_triple, random_proper_triple,
                                      random_singular_m_matrix_triple,
                                      random_quasi_regular_triple])
    def test_product_route_matches_the_reference(self, make):
        # B = U_first M# U_last against A (I - H)^-1, for the triple and
        # its pairs, wherever the latter exists; B#C = H wherever B exists
        compared = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a, splits = make(rng, int(rng.integers(4, 8)))
            for chosen in (splits, splits[:2], splits[::2], splits[1:]):
                h = alternating_iteration_matrix(chosen)
                b = Alternation(chosen).induced
                if b is not None:
                    np.testing.assert_allclose(b.iteration_matrix, h, atol=1e-9)
                try:
                    reference = induced_splitting(a, h).u
                except SingularIminusHError:
                    continue
                compared += 1
                scale = float(np.max(np.abs(reference)))
                assert float(np.max(np.abs(b.u - reference))) <= 1e-12 * scale, seed
        # I - H is singular iff H has the eigenvalue 1: never for proper
        # splittings (a singular A makes M singular: the M# route), always
        # for the other families, whose A is singular and U nonsingular
        proper = make in (random_group_monotone_regular_triple, random_proper_triple)
        assert compared == (200 if proper else 0)

    def test_dominates_inputs_for_both_type_triples(self):
        # B# >= K#, U#, X# entrywise for both-type splittings
        for _ in range(5):
            _, splits = random_group_monotone_regular_triple(RNG, 6)
            h = alternating_iteration_matrix(splits)
            b_sharp = induced_splitting(splits[0].a, h).u_sharp
            for s in splits:
                assert float(np.min(b_sharp - s.u_sharp)) > -1e-10


class TestBSharpClosedForm:
    def test_agrees_with_induced_group_inverse(self, example_triple):
        h = alternating_iteration_matrix(example_triple)
        ind = induced_splitting(A_EXAMPLE, h)
        np.testing.assert_allclose(
            b_sharp_closed_form(example_triple),
            ind.u_sharp,
            atol=1e-12,
        )

    def test_trivial_triple_returns_a_sharp(self):
        a = np.diag([2.0, 5.0, 0.0])
        splits = [make_splitting(a, a) for _ in range(3)]
        np.testing.assert_allclose(
            b_sharp_closed_form(splits), group_inverse(a), atol=1e-13
        )

    def test_expanded_form_on_random_proper_triples(self):
        # K# + X#LK# + X#YU#LK# is an equivalent expansion
        hits = 0
        while hits < 10:
            a, splits = random_proper_triple(RNG, 6)
            sk, su, sx = splits
            try:
                closed = b_sharp_closed_form(splits)
            except RangeNullConditionError:
                continue
            hits += 1
            k_sharp = sk.u_sharp
            u_sharp = su.u_sharp
            x_sharp = sx.u_sharp
            expanded = (
                k_sharp
                + x_sharp @ sk.v @ k_sharp
                + x_sharp @ sx.v @ u_sharp @ sk.v @ k_sharp
            )
            np.testing.assert_allclose(closed, expanded, atol=1e-9)

    def test_range_condition_violation_raises(self):
        # with U = X = A the middle factor reduces to K, chosen rank-deficient
        a = np.diag([1.0, 1.0])
        k = np.diag([0.5, 0.0])
        splits = [make_splitting(a, m) for m in (k, a, a)]
        with pytest.raises(RangeNullConditionError):
            b_sharp_closed_form(splits)


class TestComparisonChain:
    def test_three_step_no_slower_than_any_single(self):
        # rho(H) <= min single-splitting radius for both-type triples
        for _ in range(10):
            _, splits = random_group_monotone_regular_triple(RNG, 6)
            h = alternating_iteration_matrix(splits)
            floor = min(spectral_radius(s.iteration_matrix) for s in splits)
            assert floor < 1.0
            assert spectral_radius(h) <= floor + 1e-10

    def test_example_is_a_converse_failure_witness(self, example_triple):
        # convergence holds although type II fails for every splitting
        assert spectral_radius(alternating_iteration_matrix(example_triple)) < 1.0
        for s in example_triple:
            assert not classify(s).is_g_weak_regular_type2
