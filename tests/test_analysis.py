"""Semiconvergence certificates, the power oracle and the theorem verifiers."""
from functools import cached_property

import numpy as np
import pytest

import altsplit.analysis as analysis
import altsplit.core as core
from altsplit import (
    Alternation,
    ClassificationError,
    MissingDeltaError,
    NonsingularHypothesisError,
    SystemMatrix,
    ToleranceProfile,
    UnknownTheoremError,
    alternating_iteration_matrix,
    classify,
    diag_scaling_splitting,
    induced_regular_splitting,
    is_semiconvergent,
    make_random_walk,
    make_splitting,
    power_limit_oracle,
    verify_convergence_theorem,
    verify_semiconvergence_theorem,
)
from altsplit.generators import (
    random_group_monotone_regular_triple,
    random_proper_triple,
    random_quasi_regular_triple,
    random_semiconvergence_case,
    random_singular_m_matrix_triple,
)

RNG = np.random.default_rng(40)

ORACLE_TOL = ToleranceProfile(eq_tol=1e-11)


def walk_triple(n=10, alphas=(2.0, 2.5, 3.0)):
    walk = make_random_walk(n)
    return walk, [diag_scaling_splitting(walk.A, a) for a in alphas]


def counting_forms(monkeypatch, name):
    """The alternations whose cached fact ``name`` is formed, one entry a formation."""
    real, formed = getattr(Alternation, name).func, []

    def forming(h):
        formed.append(h)
        return real(h)

    fact = cached_property(forming)
    fact.__set_name__(Alternation, name)
    monkeypatch.setattr(Alternation, name, fact)
    return formed


class TestIsSemiconvergent:
    def test_identity(self):
        cert = is_semiconvergent(np.eye(3))
        assert cert.verdict
        np.testing.assert_allclose(cert.limit_matrix, np.eye(3))

    def test_jordan_block_at_one_fails_on_index(self):
        cert = is_semiconvergent(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not cert.verdict
        assert cert.index_of_I_minus_T > 1

    def test_minus_one_eigenvalue_fails(self):
        assert not is_semiconvergent(np.diag([1.0, -1.0])).verdict

    def test_walk_three_step_gamma(self):
        _, splits = walk_triple()
        cert = is_semiconvergent(alternating_iteration_matrix(splits))
        assert cert.verdict
        assert cert.has_eigenvalue_one
        assert cert.gamma == pytest.approx(0.9274, abs=5e-5)

    def test_certificate_invariants(self):
        for _ in range(30):
            n = int(RNG.integers(2, 9))
            t, _ = random_semiconvergence_case(RNG, n)
            cert = is_semiconvergent(t)
            assert cert.gamma <= cert.rho + 1e-12
            if cert.verdict:
                assert cert.gamma < 1.0
                assert cert.index_of_I_minus_T <= 1
                assert cert.rho <= 1.0 + 1e-8
                assert cert.limit_matrix is not None
            else:
                assert cert.limit_matrix is None

    def test_limit_reaches_the_fixed_point(self):
        # for consistent data, x_inf = limit @ x0 solves (I - T) x = c
        _, splits = walk_triple()
        h = alternating_iteration_matrix(splits)
        cert = is_semiconvergent(h)
        x0 = RNG.uniform(0.0, 1.0, 10)
        x_inf = cert.limit_matrix @ x0
        np.testing.assert_allclose(h @ x_inf, x_inf, atol=1e-10)


class TestPowerLimitOracle:
    def test_diagonal_limit(self):
        lim = power_limit_oracle(np.diag([1.0, 0.5]), tol=ORACLE_TOL)
        np.testing.assert_allclose(lim, np.diag([1.0, 0.0]), atol=1e-9)

    def test_period_two_has_no_limit(self):
        assert power_limit_oracle(np.array([[0.0, 1.0], [1.0, 0.0]])) is None

    def test_divergent_has_no_limit(self):
        assert power_limit_oracle(1.5 * np.eye(2)) is None

    @pytest.mark.parametrize("theta", [np.pi / 2, 2 * np.pi / 3])
    def test_rotation_has_no_limit(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        r = np.array([[c, -s], [s, c]])
        if theta == np.pi / 2:
            # T^8 = T^4 = I: a test of T^(2m) - T^m would call this convergent
            np.testing.assert_allclose(
                np.linalg.matrix_power(r, 8), np.linalg.matrix_power(r, 4), atol=1e-12
            )
        assert power_limit_oracle(r, k_max=20_000, tol=ORACLE_TOL) is None

    @pytest.mark.parametrize("k_max, settles", [(18_000, False), (18_500, True), (20_000, True)])
    def test_k_max_is_the_largest_power_tried(self, k_max, settles):
        # 0.999^m * 0.001 < 1e-11 first near m = 18,400: past the last
        # doubling (16,384) and reached only by the check at k_max
        lim = power_limit_oracle(np.diag([1.0, 0.999]), k_max=k_max, tol=ORACLE_TOL)
        assert (lim is not None) == settles
        if settles:
            np.testing.assert_allclose(lim, np.diag([1.0, 0.0]), atol=1e-7)

    @pytest.mark.parametrize("k_max", [1, 3, 5, 37, 300])
    def test_agrees_with_one_power_at_a_time(self, k_max):
        def linear(t):
            p = t.copy()
            for _ in range(k_max):
                if float(np.max(np.abs(p))) > 1e12:
                    return None
                q = p @ t
                if float(np.max(np.abs(q - p))) < ORACLE_TOL.eq_tol:
                    return q
                p = q
            return None

        rng = np.random.default_rng(7)
        for _ in range(40):
            t, kind = random_semiconvergence_case(rng, int(rng.integers(2, 11)))
            expected = linear(t)
            lim = power_limit_oracle(t, k_max=k_max, tol=ORACLE_TOL)
            assert (lim is None) == (expected is None), kind
            if lim is not None:
                assert float(np.max(np.abs(lim - expected))) < 1e-8

    def test_reads_no_spectrum(self, monkeypatch):
        rng = np.random.default_rng(42)
        cases = [random_semiconvergence_case(rng, int(rng.integers(2, 11)))[0]
                 for _ in range(12)]
        certs = [is_semiconvergent(t) for t in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the power oracle must not compute a spectrum")

        for name in ("eig", "eigvals", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(core, "_spectrum", refuse)
        for t, cert in zip(cases, certs):
            lim = power_limit_oracle(t, k_max=20_000, tol=ORACLE_TOL)
            assert cert.verdict == (lim is not None)
            if lim is not None:
                assert float(np.max(np.abs(lim - cert.limit_matrix))) < 1e-8

    def test_matches_certificate_on_random_cases(self):
        for _ in range(40):
            n = int(RNG.integers(2, 7))
            t, _ = random_semiconvergence_case(RNG, n)
            cert = is_semiconvergent(t)
            lim = power_limit_oracle(t, k_max=20_000, tol=ORACLE_TOL)
            assert cert.verdict == (lim is not None)
            if lim is not None:
                assert float(np.max(np.abs(lim - cert.limit_matrix))) < 1e-8


class TestPropertyC:
    def test_walk_matrix_has_property_c(self):
        walk = make_random_walk(10)
        assert SystemMatrix(walk.A).is_m_matrix_with_property_c

    def test_positive_off_diagonal_rejected(self):
        assert not SystemMatrix(np.array([[1.0, 2.0], [0.0, 1.0]])).is_m_matrix_with_property_c

    def test_zero_matrix(self):
        assert SystemMatrix(np.zeros((3, 3))).is_m_matrix_with_property_c

    def test_index_two_m_matrix_lacks_property_c(self):
        # A = [[0, -1], [0, 0]] is a singular M-matrix with index 2
        assert not SystemMatrix(np.array([[0.0, -1.0], [0.0, 0.0]])).is_m_matrix_with_property_c

    def test_nonsingular_m_matrix(self):
        a = 3.0 * np.eye(3) - RNG.uniform(0.0, 1.0, (3, 3))
        assert SystemMatrix(a).is_m_matrix_with_property_c


class TestConvergenceVerifiers:
    def test_unknown_id(self):
        with pytest.raises(UnknownTheoremError):
            verify_convergence_theorem("bogus", [])

    def test_example_is_converse_exhibit(self, example_triple):
        verdict = verify_convergence_theorem("typeII-convergence", example_triple)
        assert not verdict.hypotheses_hold
        assert verdict.conclusion_holds
        assert verdict.measured_quantities["rho_H"] == pytest.approx(0.25, abs=1e-9)

    def test_type_two_corpus(self):
        held = 0
        for _ in range(20):
            n = int(RNG.integers(3, 8))
            _, splits = random_group_monotone_regular_triple(RNG, n)
            verdict = verify_convergence_theorem("typeII-convergence", splits)
            if verdict.hypotheses_hold:
                held += 1
                assert verdict.conclusion_holds
                assert verdict.measured_quantities["rho_H"] < 1.0
        assert held >= 15

    def test_both_types_comparison_corpus(self):
        held = 0
        for _ in range(20):
            n = int(RNG.integers(3, 8))
            _, splits = random_group_monotone_regular_triple(RNG, n)
            verdict = verify_convergence_theorem("both-types-comparison", splits)
            if verdict.hypotheses_hold:
                held += 1
                assert verdict.conclusion_holds
        assert held >= 15

    def test_two_vs_three_nonsingular_corpus(self):
        held = 0
        for _ in range(20):
            n = int(RNG.integers(3, 8))
            _, splits = random_group_monotone_regular_triple(RNG, n, rank_r=n)
            verdict = verify_convergence_theorem("two-vs-three", splits)
            if verdict.hypotheses_hold:
                held += 1
                assert verdict.conclusion_holds
        assert held >= 5

    @pytest.mark.parametrize("theorem_id, floor, holds", [
        ("single-vs-three", "min_single_rho", False),
        ("two-vs-three", "min_pairwise_rho", True),
    ])
    def test_walk_triple_induced_splitting_is_not_type_ii(self, theorem_id, floor, holds):
        # A is singular, so I - H is too, but M = K + X - A + Y U^-1 L is
        # not: B = K M^-1 X is nonsingular, hence not proper and not of
        # type II, whichever side of 1 rho(H) rounds to
        _, splits = walk_triple()
        verdict = verify_convergence_theorem(theorem_id, splits)
        assert not verdict.hypotheses_hold
        assert "induced splitting A = B - C is not type II" in verdict.hypothesis_failures
        assert not any("no induced splitting" in f for f in verdict.hypothesis_failures)
        # the conclusion is the spectral comparison, evaluated without B#
        m = verdict.measured_quantities
        assert verdict.conclusion_holds == analysis._no_worse(m["rho_H"], m[floor]) == holds

    def test_pair_without_middle_group_inverse_induces_nothing(self):
        # U1 + U2 - A = [[0, 1], [0, 0]] has index 2, so M# and B12's
        # induced splitting do not exist
        a = np.eye(2)
        splits = [make_splitting(a, 2 * np.eye(2)),
                  make_splitting(a, np.array([[-1.0, 1.0], [0.0, -1.0]])),
                  make_splitting(a, 2 * np.eye(2))]
        assert Alternation(splits[:2]).induced is None
        for theorem_id, verify in (("two-vs-three", verify_convergence_theorem),
                                   ("quasi-two-vs-three", verify_semiconvergence_theorem)):
            failures = verify(theorem_id, splits).hypothesis_failures
            assert "no induced splitting B12" in failures, theorem_id
            assert "no induced splitting B13" not in failures, theorem_id

    @pytest.mark.parametrize("make", [random_singular_m_matrix_triple,
                                      random_quasi_regular_triple])
    def test_comparison_failures_survive_a_permutation(self, make):
        # on singular A rho(H) = 1 exactly, so no failure text may hang on
        # which side of 1 round-off puts it
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            a, splits = make(rng, n)
            p = np.eye(n)[rng.permutation(n)]
            permuted = [make_splitting(p @ a @ p.T, p @ s.u @ p.T) for s in splits]
            for theorem_id in ("single-vs-three", "two-vs-three"):
                assert (verify_convergence_theorem(theorem_id, splits).hypothesis_failures
                        == verify_convergence_theorem(theorem_id, permuted).hypothesis_failures
                        ), (seed, theorem_id)

    def test_implication_never_violated(self):
        for theorem_id in (
            "typeII-convergence",
            "single-vs-three",
            "both-types-comparison",
            "two-vs-three",
        ):
            for _ in range(10):
                n = int(RNG.integers(3, 8))
                _, splits = random_group_monotone_regular_triple(RNG, n)
                verdict = verify_convergence_theorem(theorem_id, splits)
                assert not (verdict.hypotheses_hold and not verdict.conclusion_holds)

    def test_singular_comparisons_fail_only_on_b_sharp_dominance(self):
        # On singular A, U B# = Q diag(U1 B1^-1, 0) Q^-1 has a zero diagonal
        # entry where I has a one, so "B# >= I" is the one hypothesis that
        # fails; the conclusions still hold.
        singular = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 8))
            a, splits = random_group_monotone_regular_triple(rng, n)
            if np.linalg.matrix_rank(a) == n:
                continue
            singular += 1
            for theorem_id, names in (("single-vs-three", ("K", "U", "X")),
                                      ("two-vs-three", ("B12", "B13", "B23"))):
                verdict = verify_convergence_theorem(theorem_id, splits)
                assert verdict.hypothesis_failures == [f"{name} B# >= I fails"
                                                       for name in names], seed
                assert verdict.conclusion_holds, seed
        assert singular >= 30


class TestSemiconvergenceVerifiers:
    def test_unknown_id(self):
        with pytest.raises(UnknownTheoremError):
            verify_semiconvergence_theorem("bogus", [])

    def test_delta_required(self):
        _, splits = walk_triple()
        with pytest.raises(MissingDeltaError):
            verify_semiconvergence_theorem("delta-shift", splits)

    @pytest.mark.parametrize("delta, error", [
        (None, MissingDeltaError),
        (7.0, ValueError),
        (float("nan"), ValueError),
        (0.0, ValueError),
        (1.0, ValueError),
    ])
    def test_delta_checked_before_the_splittings(self, delta, error):
        # U = A is singular, so the splittings alone would give a verdict
        walk = make_random_walk(4)
        s = make_splitting(walk.A, walk.A)
        with pytest.raises(error):
            verify_semiconvergence_theorem("delta-shift", [s, s, s], delta=delta)

    def test_middle_factor_formed_and_decided_once(self, monkeypatch, linalg_spy):
        # the three M-matrix verifiers and induced_regular_splitting on one
        # owner: one M, and one factorization (one SVD) of it for its
        # nonsingularity decision and M#
        _, splits = walk_triple()
        h = Alternation(splits)
        formed = counting_forms(monkeypatch, "middle")
        for theorem_id in analysis.SEMICONVERGENCE_THEOREMS[:3]:
            verdict = verify_semiconvergence_theorem(theorem_id, h, delta=0.5)
            assert verdict.hypotheses_hold and verdict.conclusion_holds, theorem_id
        with pytest.raises(NonsingularHypothesisError, match="C = B - A"):
            induced_regular_splitting(h)
        assert formed == [h]
        assert linalg_spy.count("svd", h.middle) == 1

    def test_single_step_facts_are_computed_once_per_splitting(self, linalg_spy):
        # classify and three quasi verifiers on one triple: one eigvals of
        # each U#V, one index-1 decision (one SVD) on each I - U#V and on
        # each U#V.
        _, splits = random_quasi_regular_triple(np.random.default_rng(5), 5)
        for s in splits:
            classify(s)
        for theorem_id in ("quasi-three-step", "quasi-three-comparison", "quasi-two-vs-three"):
            verify_semiconvergence_theorem(theorem_id, splits)
        for s in splits:
            t = s.iteration_matrix
            assert linalg_spy.count("eigvals", t) == 1
            assert linalg_spy.count("svd", np.eye(s.n) - t) == 1
            assert linalg_spy.count("svd", t) == 1

    def test_facts_of_a_are_computed_once_per_owner(self, linalg_spy):
        # classify of each splitting and three convergence verifiers on one
        # triple: one factorization of A gives its projectors and A#, so
        # there is exactly one SVD of A
        a, splits = random_group_monotone_regular_triple(np.random.default_rng(5), 5)
        for s in splits:
            classify(s)
        for theorem_id in ("single-vs-three", "two-vs-three", "typeII-convergence"):
            verify_convergence_theorem(theorem_id, splits)
        assert linalg_spy.count("svd", a) == 1

    def test_facts_of_h_are_computed_once_per_alternation(self, monkeypatch, linalg_spy):
        # the quasi verifiers on one owner of a quasi triple, and the
        # M-matrix verifiers and induced_regular_splitting on one owner of
        # an M-matrix triple: H and each Bij formed once, each with one
        # eigvals and one SVD of I - H or I - Bij; each M formed once and
        # factored once (one SVD); one property-c certificate of A
        rng = np.random.default_rng(7)
        quasi = Alternation(random_quasi_regular_triple(rng, 5)[1])
        m_matrix = Alternation(random_singular_m_matrix_triple(rng, 5)[1])
        forms = counting_forms(monkeypatch, "iteration_matrix")
        middles = counting_forms(monkeypatch, "middle")
        for theorem_id in ("quasi-three-step", "quasi-three-comparison", "quasi-two-vs-three"):
            verify_semiconvergence_theorem(theorem_id, quasi)
        for theorem_id in analysis.SEMICONVERGENCE_THEOREMS[:3]:
            verify_semiconvergence_theorem(theorem_id, m_matrix, delta=0.5)
        induced_regular_splitting(m_matrix)

        alternations = [quasi, *quasi.pairs.values(), m_matrix]
        assert forms == middles == alternations
        for h in alternations:
            t = h.iteration_matrix
            assert linalg_spy.count("eigvals", t) == 1
            assert linalg_spy.count("svd", np.eye(len(t)) - t) == 1
            assert linalg_spy.count("svd", h.middle) == 1
        a = m_matrix.system.a
        s0 = max(0.0, float(np.max(np.diag(a))))
        s = s0 + max(1.0, s0)  # the property-c shift
        assert linalg_spy.count("eigvals", (s * np.eye(5) - a) / s) == 1

    def test_walk_regular_three_step(self):
        _, splits = walk_triple()
        verdict = verify_semiconvergence_theorem("regular-three-step", splits)
        assert verdict.hypotheses_hold and verdict.conclusion_holds
        q = verdict.measured_quantities
        assert q["gamma_H"] == pytest.approx(0.9274, abs=5e-5)
        # three-step beats two-step beats single-step
        assert q["gamma_H"] <= q["gamma_K-L"]

    def test_walk_delta_shift_for_delta_grid(self):
        _, splits = walk_triple()
        for delta in (0.1, 0.5, 0.9):
            verdict = verify_semiconvergence_theorem(
                "delta-shift", splits, delta=delta
            )
            assert verdict.hypotheses_hold and verdict.conclusion_holds

    def test_walk_induced_regular(self):
        _, splits = walk_triple()
        verdict = verify_semiconvergence_theorem("induced-regular", splits)
        assert verdict.hypotheses_hold and verdict.conclusion_holds
        q = verdict.measured_quantities
        assert q["induced_matrix_mismatch"] < 1e-10
        # the candidate B is weak regular type I but NOT regular here
        assert q["min_B_inverse_entry"] > -1e-10
        assert q["min_C_entry"] < -1e-4

    def test_nonsingular_degenerates_to_plain_convergence(self):
        # splittings of a nonsingular monotone matrix: no unit eigenvalue,
        # semiconvergence certificate reduces to rho < 1
        a = 4.0 * np.eye(5) - RNG.uniform(0.0, 1.0, (5, 5))
        splits = [diag_scaling_splitting(a, alpha) for alpha in (2.0, 2.5, 3.0)]
        h = alternating_iteration_matrix(splits)
        cert = is_semiconvergent(h)
        assert cert.verdict
        assert not cert.has_eigenvalue_one
        from altsplit import spectral_radius

        assert spectral_radius(h) < 1.0

    def test_quasi_verifiers_on_block_corpus(self):
        for theorem_id in (
            "quasi-three-step",
            "quasi-comparison",
            "quasi-three-comparison",
            "quasi-two-vs-three",
        ):
            held = 0
            for _ in range(8):
                n = int(RNG.integers(4, 9))
                _, splits = random_quasi_regular_triple(RNG, n)
                verdict = verify_semiconvergence_theorem(theorem_id, splits)
                if verdict.hypotheses_hold:
                    held += 1
                    assert verdict.conclusion_holds
            assert held >= 6

    def test_m_matrix_corpus_implication(self):
        for _ in range(10):
            n = int(RNG.integers(4, 9))
            _, splits = random_singular_m_matrix_triple(RNG, n)
            for theorem_id, delta in (
                ("regular-three-step", None),
                ("delta-shift", 0.3),
                ("induced-regular", None),
            ):
                verdict = verify_semiconvergence_theorem(
                    theorem_id, splits, delta=delta
                )
                assert not (verdict.hypotheses_hold and not verdict.conclusion_holds)


GENERATOR_THEOREMS = [
    (random_group_monotone_regular_triple, analysis.CONVERGENCE_THEOREMS),
    (random_singular_m_matrix_triple, analysis.SEMICONVERGENCE_THEOREMS[:3]),
    (random_quasi_regular_triple, analysis.SEMICONVERGENCE_THEOREMS[3:]),
]


def _verdicts(splits, theorem_ids):
    return {
        theorem_id: verify_convergence_theorem(theorem_id, splits)
        if theorem_id in analysis.CONVERGENCE_THEOREMS
        else verify_semiconvergence_theorem(theorem_id, splits, delta=0.5)
        for theorem_id in theorem_ids
    }


class TestPermutationSimilarity:
    """P A P^T split by the P U P^T: a relabelling of the unknowns, which
    no class verdict, hypothesis or conclusion may notice."""

    @pytest.mark.parametrize("make, theorem_ids", GENERATOR_THEOREMS,
                             ids=[make.__name__ for make, _ in GENERATOR_THEOREMS])
    def test_verdicts_survive_a_permutation(self, make, theorem_ids):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            a, splits = make(rng, n)
            p = np.eye(n)[rng.permutation(n)]
            pa = p @ a @ p.T
            permuted = [make_splitting(pa, p @ s.u @ p.T) for s in splits]
            for s, ps in zip(splits, permuted):
                assert classify(s).flags() == classify(ps).flags(), seed
            before, after = _verdicts(splits, theorem_ids), _verdicts(permuted, theorem_ids)
            for theorem_id in theorem_ids:
                v, pv = before[theorem_id], after[theorem_id]
                assert v.hypotheses_hold == pv.hypotheses_hold, (seed, theorem_id)
                assert v.hypothesis_failures == pv.hypothesis_failures, (seed, theorem_id)
                assert v.conclusion_holds == pv.conclusion_holds, (seed, theorem_id)
                for key in ("rho_H", "gamma_H"):
                    if key in v.measured_quantities:
                        gap = abs(v.measured_quantities[key] - pv.measured_quantities[key])
                        assert gap <= 1e-12, (seed, theorem_id, key)


ALL_THEOREMS = analysis.CONVERGENCE_THEOREMS + analysis.SEMICONVERGENCE_THEOREMS


class TestOneAlternation:
    @pytest.mark.parametrize("make", [random_group_monotone_regular_triple,
                                      random_proper_triple, random_singular_m_matrix_triple,
                                      random_quasi_regular_triple], ids=lambda f: f.__name__)
    def test_sharing_an_alternation_changes_nothing(self, make):
        # every verifier and induced_regular_splitting, once on one shared
        # owner of the triple and once each on a fresh list
        def outcomes(splits_for):
            results = [repr(_verdicts(splits_for(), [theorem_id])[theorem_id])
                       for theorem_id in ALL_THEOREMS]
            try:
                b = induced_regular_splitting(splits_for())
            except (ClassificationError, NonsingularHypothesisError) as error:
                return results + [f"{type(error).__name__}: {error}"]
            return results + [repr((b.u.tolist(), b.v.tolist()))]

        for seed in range(50):
            rng = np.random.default_rng(seed)
            _, splits = make(rng, int(rng.integers(3, 7)))
            shared = Alternation(splits)
            assert outcomes(lambda: shared) == outcomes(lambda: list(splits)), seed

    @pytest.mark.parametrize("a, us, min_diag_h, min_b_inverse_and_c", [
        (np.zeros((0, 0)), [np.eye(0)] * 3, np.inf, (np.inf, np.inf)),
        (np.array([[1.0]]), [[[2.0]], [[2.5]], [[3.0]]], 0.2, (0.8, 0.25)),
    ], ids=["order-0", "order-1"])
    def test_every_verifier_gives_a_verdict_at_orders_0_and_1(self, a, us, min_diag_h,
                                                               min_b_inverse_and_c):
        # U B# >= I holds on an empty matrix and diag(H) > 0 vacuously, and
        # the empty M is nonsingular, so every hypothesis and conclusion
        # holds; the minima over the empty set are inf.  At order 1,
        # M = 2 + 3 - 1 + 2 * 1/2.5 = 4.8 and B = 2 * 3 / 4.8 = 1.25.
        verdicts = _verdicts([make_splitting(a, u) for u in us], ALL_THEOREMS)
        for theorem_id, verdict in verdicts.items():
            assert verdict.hypotheses_hold and verdict.conclusion_holds, theorem_id
        assert verdicts["regular-three-step"].measured_quantities["min_diag_H"] == (
            pytest.approx(min_diag_h))
        induced = verdicts["induced-regular"].measured_quantities
        assert (induced["min_B_inverse_entry"], induced["min_C_entry"]) == (
            pytest.approx(min_b_inverse_and_c))


class TestInducedRegularSplitting:
    def test_agrees_with_the_verifier(self):
        # one check of the induced B: the function returns it exactly when
        # the verifier's weak conclusion holds and C = B - A >= 0 too
        rng = np.random.default_rng(3)
        cases = [walk_triple()[1], walk_triple(30)[1]]
        cases += [random_singular_m_matrix_triple(rng, int(rng.integers(4, 9)))[1]
                  for _ in range(10)]
        for splits in cases:
            verdict = verify_semiconvergence_theorem("induced-regular", splits)
            assert verdict.hypotheses_hold
            regular = (verdict.conclusion_holds
                       and verdict.measured_quantities["min_C_entry"] >= -1e-12)
            try:
                induced_regular_splitting(splits)
            except NonsingularHypothesisError:
                assert not regular
            else:
                assert regular

    def test_walk_triple_is_only_weak_regular(self):
        # the walk's induced C = B - A has genuinely negative entries, so
        # the strict contract refuses it even though B^-1 C = H holds
        _, splits = walk_triple()
        with pytest.raises(NonsingularHypothesisError):
            induced_regular_splitting(splits)

    def test_random_m_matrix_triples_succeed(self):
        for _ in range(5):
            n = int(RNG.integers(4, 9))
            _, splits = random_singular_m_matrix_triple(RNG, n)
            ind = induced_regular_splitting(splits)
            rep = classify(ind)
            assert rep.is_regular
            h = alternating_iteration_matrix(splits)
            np.testing.assert_allclose(ind.iteration_matrix, h, atol=1e-9)

    def test_trivial_when_v_is_zero(self):
        a = 2.0 * np.eye(4) - 0.2 * RNG.uniform(0.0, 1.0, (4, 4))
        splits = [make_splitting(a, a) for _ in range(3)]
        ind = induced_regular_splitting(splits)
        np.testing.assert_allclose(ind.u, a, atol=1e-10)
        np.testing.assert_allclose(ind.v, np.zeros((4, 4)), atol=1e-10)

    def test_classification_hypothesis_enforced(self, example_triple):
        with pytest.raises(ClassificationError):
            induced_regular_splitting(example_triple)

    def test_two_path_agreement_on_nonsingular_monotone(self):
        # B^-1 C matches H computed directly
        a = 4.0 * np.eye(6) - RNG.uniform(0.0, 1.0, (6, 6))
        splits = [diag_scaling_splitting(a, alpha) for alpha in (1.5, 2.0, 2.5)]
        ind = induced_regular_splitting(splits)
        h = alternating_iteration_matrix(splits)
        np.testing.assert_allclose(ind.iteration_matrix, h, atol=1e-9)
        # agrees with A (I - H)^-1 where that form exists
        b_direct = np.linalg.solve((np.eye(6) - h).T, a.T).T
        np.testing.assert_allclose(ind.u, b_direct, atol=1e-8)
