"""Scheme driver tests: sweeps, affine form, stopping rules, shifted runs."""
import numpy as np
import pytest

from altsplit import (
    SchemeConfig,
    alternating_iteration_matrix,
    diag_scaling_splitting,
    exact_solution,
    make_laplace,
    make_random_walk,
    make_splitting,
    run,
    sweep,
)
from altsplit.generators import random_index_one, random_proper_triple
from conftest import A_EXAMPLE, A_SHARP_EXPECTED

RNG = np.random.default_rng(90125)
PROPER_SEEDS = range(6)


def affine_constant(splits, b):
    """Image of the zero vector under one sweep (the affine offset)."""
    return sweep(splits, np.zeros(len(b)), b)


def reference_pass(splits, x, b):
    """One pass of explicit U#(V x + b) steps, with the dense U# and V."""
    for s in splits:
        x = s.u_sharp @ (s.v @ x + b)
    return x


def singular_proper_case(seed, n=5):
    """A rank-deficient proper triple, a b and an x0 whose component outside
    R(U) = R(A) has norm sqrt(n - rank) for every U of the triple."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, n))
    a, splits = random_proper_triple(rng, n, rank_r=r)
    assert not any(s.u_nonsingular for s in splits)
    b = rng.uniform(-1, 1, n)
    left = np.linalg.svd(a)[0]
    x0 = left[:, :r] @ rng.uniform(-1, 1, r) + left[:, r:] @ np.ones(n - r)
    for s in splits:
        in_range = s.u @ np.linalg.lstsq(s.u, x0, rcond=None)[0]
        assert np.linalg.norm(x0 - in_range) == pytest.approx(np.sqrt(n - r))
    return a, splits, b, x0


class CountingOperator:
    """Stands in for a sweep operator and counts its products with a vector."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def __matmul__(self, x):
        self.calls += 1
        return self.op @ x


class TestSweep:
    def test_zero_v_single_sweep_solves(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        b = RNG.uniform(-1, 1, 4)
        s = make_splitting(a, a)
        np.testing.assert_allclose(
            sweep([s], np.zeros(4), b), np.linalg.solve(a, b), atol=1e-12
        )

    def test_three_sweep_matches_affine_expansion(self, example_triple):
        # x1 = H x0 + X#(Y U#V K# + Y U# + I) b, evaluated explicitly
        b = np.array([2.0, 0.5, 0.0])
        x0 = RNG.uniform(-1, 1, 3)
        sk, su, sx = example_triple
        k_sharp = sk.u_sharp
        u_sharp = su.u_sharp
        x_sharp = sx.u_sharp
        h = alternating_iteration_matrix(example_triple)
        offset = x_sharp @ (
            sx.v @ u_sharp @ su.v @ k_sharp + sx.v @ u_sharp + np.eye(3)
        )
        np.testing.assert_allclose(
            sweep(example_triple, x0, b), h @ x0 + offset @ b, atol=1e-12
        )

    def test_two_sweep_matches_affine_expansion(self):
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        splits = [
            make_splitting(a, a + np.diag(RNG.uniform(0.2, 1.0, 5)))
            for _ in range(2)
        ]
        b = RNG.uniform(-1, 1, 5)
        x0 = RNG.uniform(-1, 1, 5)
        su, sx = splits
        u_inv = su.u_sharp
        x_inv = sx.u_sharp
        h = x_inv @ sx.v @ u_inv @ su.v
        offset = x_inv @ (sx.v @ u_inv + np.eye(5))
        np.testing.assert_allclose(
            sweep(splits, x0, b), h @ x0 + offset @ b, atol=1e-11
        )

    @pytest.mark.parametrize("seed", PROPER_SEEDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_singular_u_sweep_matches_affine_expansion(self, seed, k):
        # x0 outside R(U): the step x + U#r would differ from U#(V x + b)
        _, splits, b, x0 = singular_proper_case(seed)
        splits = splits[:k]
        h = alternating_iteration_matrix(splits)
        offset = affine_constant(splits, b)
        np.testing.assert_allclose(sweep(splits, x0, b), h @ x0 + offset, atol=1e-12)
        np.testing.assert_allclose(sweep(splits, x0, b), reference_pass(splits, x0, b),
                                   atol=1e-12)

    def test_given_residual_is_the_first_correction(self, example_triple):
        b = np.array([2.0, 0.5, 0.0])
        x0 = RNG.uniform(-1, 1, 3)
        np.testing.assert_array_equal(
            sweep(example_triple, x0, b, r=b - A_EXAMPLE @ x0), sweep(example_triple, x0, b)
        )


class TestRun:
    def test_zero_v_converges_in_one_iteration(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        b = RNG.uniform(-1, 1, 4)
        config = SchemeConfig(
            splittings=[make_splitting(a, a)], stop_rule="residual", tolerance=1e-10
        )
        report = run(config, b)
        assert report.converged and report.iterations == 1
        np.testing.assert_allclose(report.final_x, np.linalg.solve(a, b), atol=1e-10)

    def test_affine_map_equivalence(self):
        # k iterations equal H^k x0 + sum_j H^j * offset for k <= 5
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        splits = [
            make_splitting(a, a + np.diag(RNG.uniform(0.5, 1.5, 5)))
            for _ in range(3)
        ]
        b = RNG.uniform(-1, 1, 5)
        x0 = RNG.uniform(-1, 1, 5)
        h = alternating_iteration_matrix(splits)
        offset = affine_constant(splits, b)
        for k in range(1, 6):
            config = SchemeConfig(
                splittings=splits,
                stop_rule="successive_diff",
                tolerance=1e-300,
                max_iterations=k,
            )
            report = run(config, b, x0=x0)
            expected = x0.copy()
            for _ in range(k):
                expected = h @ expected + offset
            np.testing.assert_allclose(report.final_x, expected, atol=1e-10)
            assert report.iterations == k and not report.converged

    def test_converged_reports_residual_consistency(self):
        a = RNG.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
        b = RNG.uniform(-1, 1, 6)
        config = SchemeConfig(
            splittings=[make_splitting(a, a + np.eye(6))],
            stop_rule="residual",
            tolerance=1e-9,
        )
        report = run(config, b)
        assert report.converged
        assert report.final_residual < 1e-9

    def test_error_rule_needs_exact(self):
        a = np.eye(3)
        config = SchemeConfig(
            splittings=[make_splitting(a, a)], stop_rule="error_vs_exact"
        )
        with pytest.raises(ValueError):
            run(config, np.ones(3))

    def test_max_iterations_is_an_outcome_not_an_error(self):
        a = np.eye(2)
        s = make_splitting(a, 0.5 * np.eye(2))  # rho(U^-1 V) = 1, stalls
        config = SchemeConfig(
            splittings=[s], stop_rule="residual", tolerance=1e-16, max_iterations=5
        )
        report = run(config, np.ones(2), x0=np.zeros(2))
        assert not report.converged and report.iterations == 5

    def test_non_finite_metric_stops_the_run(self):
        # alpha = 0.3 gives rho(H) = 5.03: the error norm overflows to inf
        # near pass 220, and the run must stop there, not run on NaN
        problem = make_laplace(5)
        config = SchemeConfig(
            splittings=[diag_scaling_splitting(problem.A, 0.3)],
            stop_rule="error_vs_exact",
            max_iterations=10_000,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run(config, problem.b, exact=problem.exact)
        assert not report.converged
        assert report.iterations < 300
        assert not np.isfinite(report.final_error)

    def test_history_records_residual_and_error(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        b = RNG.uniform(-1, 1, 4)
        exact = np.linalg.solve(a, b)
        config = SchemeConfig(
            splittings=[make_splitting(a, a + np.eye(4))],
            stop_rule="error_vs_exact",
            tolerance=1e-8,
            record_history=True,
        )
        report = run(config, b, exact=exact)
        assert report.history is not None
        assert len(report.history) == report.iterations
        res, err = report.history[-1]
        assert res == pytest.approx(report.final_residual, rel=1e-9)
        assert err == pytest.approx(report.final_error, rel=1e-9)
        # monotone decrease is NOT asserted anywhere, only the final values

    @pytest.mark.parametrize("rule", ["residual", "error_vs_exact", "successive_diff"])
    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_is_applied_once_per_step(self, rule, record_history, k):
        # the residual the stop rule forms is the next pass's first
        # correction, and the last one is the final residual
        problem = make_laplace(6)
        splits = [diag_scaling_splitting(problem.A, a) for a in (1.0, 1.5, 1.75)][:k]
        counting = CountingOperator(splits[0].system.a_op)
        vars(splits[0].system)["a_op"] = counting
        config = SchemeConfig(splittings=splits, stop_rule=rule, tolerance=1e-8,
                              record_history=record_history)
        report = run(config, problem.b, exact=problem.exact)
        assert report.converged
        assert counting.calls == 1 + k * report.iterations
        assert report.final_residual == np.linalg.norm(problem.b - problem.A @ report.final_x)


class TestShiftedScheme:
    def test_shifted_spectrum_is_affine_image(self):
        # sigma(H_delta) = delta sigma(H) + (1 - delta), by dense eigensolve
        a = RNG.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        splits = [make_splitting(a, a + np.diag(RNG.uniform(0.5, 1.5, 5)))]
        h = alternating_iteration_matrix(splits)
        for delta in (0.1, 0.5, 0.9):
            h_delta = delta * h + (1 - delta) * np.eye(5)
            lhs = np.sort_complex(np.linalg.eigvals(h_delta))
            rhs = np.sort_complex(delta * np.linalg.eigvals(h) + (1 - delta))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_delta_half_cancels_minus_one_eigenvalue(self):
        h = np.diag([-1.0, 0.3])
        h_delta = 0.5 * h + 0.5 * np.eye(2)
        assert np.min(np.abs(np.linalg.eigvals(h_delta))) == pytest.approx(0.0, abs=1e-15)

    def test_shifted_walk_converges_into_null_space(self):
        walk = make_random_walk(10)
        splits = [diag_scaling_splitting(walk.A, a) for a in (2.0, 2.5, 3.0)]
        config = SchemeConfig(
            splittings=splits,
            stop_rule="successive_diff",
            tolerance=1e-12,
            delta=0.9,
            max_iterations=100_000,
        )
        x0 = np.zeros(10)
        x0[0] = 1.0
        report = run(config, np.zeros(10), x0=x0)
        assert report.converged
        assert np.linalg.norm(walk.A @ report.final_x) < 1e-10
        assert np.linalg.norm(report.final_x) > 1e-3  # not the trivial solution

    def test_matches_explicit_shifted_iteration(self):
        a = RNG.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        splits = [make_splitting(a, a + np.eye(4))]
        b = RNG.uniform(-1, 1, 4)
        x0 = RNG.uniform(-1, 1, 4)
        delta = 0.7
        config = SchemeConfig(
            splittings=splits,
            stop_rule="successive_diff",
            tolerance=1e-300,
            max_iterations=3,
            delta=delta,
        )
        report = run(config, b, x0=x0)
        x = x0.copy()
        for _ in range(3):
            x = delta * sweep(splits, x, b) + (1 - delta) * x
        np.testing.assert_allclose(report.final_x, x, atol=1e-12)

    @pytest.mark.parametrize("seed", PROPER_SEEDS)
    def test_singular_u_matches_reference_steps(self, seed):
        # residual rule: each pass starts from the residual of the last
        a, splits, _, x0 = singular_proper_case(seed)
        b = a @ np.random.default_rng(seed).uniform(-1, 1, a.shape[0])
        delta = 0.7
        config = SchemeConfig(splittings=splits, tolerance=1e-300, max_iterations=20,
                              delta=delta)
        report = run(config, b, x0=x0)
        x = x0.copy()
        for _ in range(report.iterations):
            x = delta * reference_pass(splits, x, b) + (1 - delta) * x
        assert report.iterations == 20
        np.testing.assert_allclose(report.final_x, x, atol=1e-12)


class TestExactSolution:
    def test_diagonal_division(self):
        np.testing.assert_allclose(
            exact_solution(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0]
        )

    def test_singular_group_solution(self):
        b = np.array([2.0, 0.5, 0.0])
        np.testing.assert_allclose(
            exact_solution(A_EXAMPLE, b), A_SHARP_EXPECTED @ b, atol=1e-12
        )

    def test_zero_rhs(self):
        np.testing.assert_allclose(
            exact_solution(A_EXAMPLE, np.zeros(3)), np.zeros(3), atol=1e-14
        )

    def test_singular_a_takes_two_svds(self, linalg_spy):
        # one factorization of A for the nonsingularity test and A#, and the
        # index-1 test on G F
        a = random_index_one(np.random.default_rng(5), 6, 4)
        b = a @ np.ones(6)
        x = exact_solution(a, b)
        assert len(linalg_spy.seen["svd"]) == 2
        assert linalg_spy.count("svd", a) == 1
        np.testing.assert_allclose(a @ x, b, atol=1e-12)


class TestSchemeConfigValidation:
    def test_delta_bounds(self):
        s = make_splitting(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            SchemeConfig(splittings=[s], delta=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(splittings=[s], delta=0.0)

    def test_arity_bounds(self):
        s = make_splitting(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            SchemeConfig(splittings=[s] * 4)
        with pytest.raises(ValueError):
            SchemeConfig(splittings=[])

    def test_bad_rule_name(self):
        s = make_splitting(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            SchemeConfig(splittings=[s], stop_rule="energy")

    @pytest.mark.parametrize("k", [0, 2.5, 1e6])
    def test_max_iterations_is_a_positive_integer(self, k):
        s = make_splitting(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="max_iterations"):
            SchemeConfig(splittings=[s], max_iterations=k)
        assert SchemeConfig(splittings=[s], max_iterations=np.int64(3)).max_iterations == 3
