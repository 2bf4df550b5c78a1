"""The random instance generators must honor their advertised invariants."""
import numpy as np

from altsplit import (
    classify,
    group_inverse,
    index_at_most_one,
    is_nonnegative,
    rank,
    spectral_radius,
)
from altsplit.generators import (
    random_group_monotone_regular_triple,
    random_index_one,
    random_inverse_positive,
    random_monomial,
    random_proper_triple,
    random_quasi_regular_triple,
    random_semiconvergence_case,
    random_singular_m_matrix_triple,
)

RNG = np.random.default_rng(5150)


class TestBuildingBlocks:
    def test_monomial_inverse_nonnegative(self):
        q = random_monomial(RNG, 6)
        assert is_nonnegative(q)
        assert is_nonnegative(np.linalg.inv(q))

    def test_inverse_positive(self):
        m = random_inverse_positive(RNG, 5)
        assert is_nonnegative(np.linalg.inv(m))

    def test_index_one_rank_control(self):
        for _ in range(15):
            n = int(RNG.integers(2, 9))
            r = int(RNG.integers(1, n + 1))
            a = random_index_one(RNG, n, r)
            assert rank(a) == r
            assert index_at_most_one(a)


class TestTripleGenerators:
    def test_group_monotone_regular(self):
        for _ in range(10):
            a, splits = random_group_monotone_regular_triple(RNG, 6)
            assert index_at_most_one(a)
            assert is_nonnegative(group_inverse(a))
            for s in splits:
                rep = classify(s)
                assert rep.is_proper and rep.is_g_regular
            # convergent three-step product
            t = splits[2].iteration_matrix @ splits[1].iteration_matrix \
                @ splits[0].iteration_matrix
            assert spectral_radius(t) < 1.0

    def test_proper_triple(self):
        for _ in range(10):
            a, splits = random_proper_triple(RNG, 6)
            for s in splits:
                assert classify(s).is_proper

    def test_m_matrix_triple(self):
        for _ in range(8):
            a, splits = random_singular_m_matrix_triple(RNG, 6)
            assert rank(a) == 5
            off = a - np.diag(np.diag(a))
            assert np.max(off) <= 1e-14
            for s in splits:
                assert classify(s).is_regular

    def test_quasi_triple(self):
        for _ in range(8):
            a, splits = random_quasi_regular_triple(RNG, 6)
            assert rank(a) < 6
            for s in splits:
                rep = classify(s)
                assert rep.is_quasi_regular
                assert rep.is_quasi_weak_regular_type1
                assert rep.is_quasi_weak_regular_type2


class TestSemiconvergenceCases:
    def test_kinds_match_spectra(self):
        seen = set()
        for _ in range(60):
            n = int(RNG.integers(2, 9))
            t, kind = random_semiconvergence_case(RNG, n)
            seen.add(kind)
            rho = spectral_radius(t)
            if kind == "convergent":
                assert rho < 0.95
            elif kind == "divergent":
                assert rho > 1.05
            else:
                np.testing.assert_allclose(rho, 1.0, atol=1e-9)
        assert seen == {"convergent", "semiconvergent", "divergent",
                        "defective", "boundary"}

    def test_reproducible(self):
        a, _ = random_semiconvergence_case(np.random.default_rng(99), 5)
        b, _ = random_semiconvergence_case(np.random.default_rng(99), 5)
        np.testing.assert_array_equal(a, b)
