"""Scheme driver tests: sweeps, affine form, stopping rules, shifted runs."""
import numpy as np
import pytest

import altsplit.schemes
from altsplit import (
    Alternation,
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
from altsplit.splittings import _csr_product
from conftest import A_EXAMPLE, A_SHARP_EXPECTED, pass_from_zero

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


class CountingProduct:
    """Stands in for the owner's bound product with A (``__self__`` is the
    sweep operator, as for a bound method) and counts its calls."""

    def __init__(self, matvec):
        self.matvec, self.__self__, self.calls = matvec, matvec.__self__, 0

    def __call__(self, x):
        self.calls += 1
        return self.matvec(x)


def no_window(*args):
    """Stands in for ``altsplit.schemes._window``: no run forms its pass."""
    return None


@pytest.fixture
def matrix_free(monkeypatch):
    """No run forms its pass, so each pass steps through its splittings."""
    monkeypatch.setattr(altsplit.schemes, "_window", no_window)


def formed_pass(splits, carry_residual=True):
    """M of the formed pass that a run of ``splits`` carrying r (or x) uses
    after its first n passes, or None when it forms none."""
    window = altsplit.schemes._window(Alternation(splits), None, np.zeros(splits[0].n),
                                      carry_residual)
    return None if window is None else window.m


LAPLACE_4 = make_laplace(4)
PASS_SPLITS = {
    "diagonal": [diag_scaling_splitting(LAPLACE_4.A, a) for a in (1.0, 1.5, 1.75)],
    "dense": [make_splitting(LAPLACE_4.A, u) for u in
              (np.tril(LAPLACE_4.A), np.triu(LAPLACE_4.A), 1.5 * np.tril(LAPLACE_4.A))],
}


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
        assert report.status == "max_iterations"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_iterations_on_the_formed_pass(self, k):
        # passes past the order of A are formed
        problem = make_laplace(5)
        splits = [diag_scaling_splitting(problem.A, a) for a in (1.0, 1.5, 1.75)][:k]
        assert formed_pass(splits) is not None
        passes = problem.order + 5
        config = SchemeConfig(splittings=splits, tolerance=1e-16, max_iterations=passes)
        report = run(config, problem.b)
        assert report.status == "max_iterations" and report.iterations == passes
        assert not report.converged

    @pytest.mark.parametrize("passes", [57, 60])
    def test_a_closing_residual_that_meets_the_tolerance_converges(self, passes):
        # the carried r never reaches exactly 0, while b - A x does once the
        # iterate is the exact solution: the run's closing b - A x is a
        # true-residual check, so its status agrees with final_residual
        splits = [make_splitting(LAPLACE_4.A, np.tril(LAPLACE_4.A))]
        assert formed_pass(splits) is not None
        config = SchemeConfig(splittings=splits, tolerance=1e-300, max_iterations=passes)
        report = run(config, LAPLACE_4.b, x0=np.linspace(-1.0, 1.0, LAPLACE_4.order))
        assert (report.iterations, report.final_residual) == (passes, 0.0)
        assert report.status == "converged"

    def test_a_closing_residual_on_the_sparse_formed_pass(self):
        # order 225, CSR: at pass 1393 the carried r (1.33822e-13) is still
        # above the tolerance and b - A x (1.33722e-13) is below it; one pass
        # later both are.  The tolerance sits between the closing residuals
        # of passes 1393 and 1392 (1.3705e-13)
        problem = make_laplace(16)
        splits = [diag_scaling_splitting(problem.A, a) for a in (1.0, 1.5, 1.75)]
        assert formed_pass(splits).format == "csr"
        tol = 1.3378e-13
        reports = [run(SchemeConfig(splittings=splits, tolerance=tol, max_iterations=passes,
                                    delta=0.5), problem.b) for passes in (1392, 1393, 10_000)]
        assert [(r.iterations, r.status) for r in reports] == [
            (1392, "max_iterations"), (1393, "converged"), (1394, "converged")]
        a_op = splits[0].system.a_op  # at the rounding floor, the product A was applied by
        for r in reports:
            assert r.converged == (r.final_residual < tol)
            assert r.final_residual == np.linalg.norm(problem.b - a_op @ r.final_x)

    def test_non_finite_metric_stops_the_run(self, matrix_free):
        # alpha = 0.3 gives rho(H) = 5.03: the error norm overflows to inf
        # near pass 220, and the run must stop there, not run on NaN
        self._overflows(1, "error_vs_exact", formed=False)

    @pytest.mark.parametrize("rule", ["residual", "error_vs_exact"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_finite_metric_stops_the_formed_pass(self, k, rule):
        # rho(H) = 5.03^k, past the matrix-free passes: the carried r under
        # the residual rule, the carried x under the error rule, overflows
        self._overflows(k, rule)

    @staticmethod
    def _overflows(k, rule, formed=True):
        problem = make_laplace(5)
        config = SchemeConfig(
            splittings=[diag_scaling_splitting(problem.A, 0.3)] * k,
            stop_rule=rule,
            max_iterations=10_000,
        )
        assert (formed_pass(config.splittings) is not None) == formed
        with np.errstate(over="ignore", invalid="ignore"):
            report = run(config, problem.b, exact=problem.exact)
        assert report.status == "non_finite" and not report.converged
        assert problem.order < report.iterations < 300
        # the norm the rule read overflowed
        final = report.final_residual if rule == "residual" else report.final_error
        assert not np.isfinite(final)

    def test_converged_is_the_status(self):
        problem = make_laplace(5)
        splits = [diag_scaling_splitting(problem.A, a) for a in (1.0, 1.5)]
        report = run(SchemeConfig(splittings=splits, tolerance=1e-8), problem.b)
        assert report.status == "converged" and report.converged

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
    def test_a_is_applied_once_per_step(self, rule, record_history, k, matrix_free):
        # the residual the stop rule forms is the next pass's first
        # correction, and the last one is the final residual
        self._count_products(rule, record_history, k)

    @pytest.mark.parametrize("rule", ["residual", "error_vs_exact", "successive_diff"])
    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_is_applied_once_per_formed_pass(self, rule, record_history, k):
        # the first n passes apply A k times each; forming M reads A but is
        # no product with a vector, and P v is the pass from x = 0, k - 1
        # products.  A carried x costs P b once, and a later pass applies A
        # once when the rule or the history reads its r, and not at all
        # when it reads no r; a carried r applies A at no pass, and k times
        # (P and b - A x) at the true-residual check that ends the run
        self._count_products(rule, record_history, k, formed=True)

    @pytest.mark.parametrize("rule", ["residual", "error_vs_exact", "successive_diff"])
    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_is_applied_once_per_sparse_formed_pass(self, rule, record_history, k):
        # order 225 is applied as CSR: its formed pass is a product with a
        # CSR G or H, formed after one matrix-free pass, which applies A no
        # more than a dense one
        self._count_products(rule, record_history, k, formed=True, grid=16)

    @staticmethod
    def _count_products(rule, record_history, k, formed=False, grid=6):
        problem = make_laplace(grid)
        splits = [diag_scaling_splitting(problem.A, a) for a in (1.0, 1.5, 1.75)][:k]
        assert (formed_pass(splits) is not None) == formed
        system = splits[0].system
        counting = CountingProduct(system.matvec)
        vars(system)["matvec"] = counting
        config = SchemeConfig(splittings=splits, stop_rule=rule, tolerance=1e-8,
                              record_history=record_history)
        report = run(config, problem.b, exact=problem.exact)
        assert report.converged and report.iterations > problem.order
        m = report.iterations
        # the matrix-free passes before a formed one: n before a dense pass, 1 before CSR
        free = problem.order if type(system.a_op) is np.ndarray else 1
        if not formed:
            expected = 1 + k * m
        elif rule == "residual" and not record_history:  # carries r: one check
            expected = 1 + k * free + k
        elif record_history or rule == "residual":
            expected = 1 + k * free + (k - 1) + (m - free)
        else:
            expected = 1 + k * free + (k - 1)
        assert counting.calls == expected
        final_x = report.final_x
        assert report.final_residual == np.linalg.norm(problem.b - system.a_op @ final_x)
        assert (type(system.a_op) is np.ndarray) == (grid < 15)


def _run_passes(splits, rule, delta, record_history, passes, tolerance=1e-300):
    config = SchemeConfig(splittings=splits, stop_rule=rule, tolerance=tolerance,
                          max_iterations=passes, delta=delta, record_history=record_history)
    x0 = np.linspace(-1.0, 1.0, LAPLACE_4.order)
    return run(config, LAPLACE_4.b, x0=x0, exact=LAPLACE_4.exact)


FORMS = pytest.mark.parametrize("k, rule, delta, record_history, u_kind", [
    (k, rule, delta, record_history, u_kind)
    for k in (1, 2, 3)
    for rule in ("residual", "error_vs_exact", "successive_diff")
    for delta in (None, 0.5)
    for record_history in (False, True)
    for u_kind in PASS_SPLITS
])


def _assert_runs_agree(got, want):
    assert (got.iterations, got.status) == (want.iterations, want.status)
    np.testing.assert_allclose(got.final_x, want.final_x, rtol=0, atol=1e-12)
    assert got.final_residual == pytest.approx(want.final_residual, rel=0, abs=1e-12)
    assert got.final_error == pytest.approx(want.final_error, rel=0, abs=1e-12)
    if want.history is None:
        assert got.history is None
    else:
        # an error column of None (no exact solution) reads as NaN in both
        np.testing.assert_allclose(np.array(got.history, dtype=float),
                                   np.array(want.history, dtype=float), rtol=0, atol=1e-12)


# Splittings whose runs stay above the rounding floor for 8n + 1 passes
# (rho(H) >= 0.85), so that no run stops at an exactly zero metric.
WALK_10 = make_random_walk(10)
WINDOW_CASES = {
    "laplace-diagonal": [diag_scaling_splitting(LAPLACE_4.A, a) for a in (5.0, 6.0, 7.0)],
    "laplace-dense": [make_splitting(LAPLACE_4.A, u) for u in
                      (8 * np.tril(LAPLACE_4.A), 8 * np.triu(LAPLACE_4.A),
                       12 * np.tril(LAPLACE_4.A))],
    "walk": [diag_scaling_splitting(WALK_10.A, a) for a in (2.0, 2.5, 3.0)],
}


# Order 225 is applied as CSR, and its diagonal-U alternations have a CSR P.
LAPLACE_16 = make_laplace(16)
CSR_SPLITS = [diag_scaling_splitting(LAPLACE_16.A, a) for a in (1.0, 1.5, 1.75)]


class _WindowSpy:
    """Stands in for ``altsplit.schemes.np``: records the operand shapes of
    every ``np.dot`` and, after each pass, what the run's window holds."""

    def __init__(self):
        self.products, self.held, self.rows = [], [], set()

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, out=None):
        self.products.append((a.shape, b.shape))
        return np.dot(a, b, out=out)

    def sweep(self, original):
        def spying(window, v, *args):
            out = original(window, v, *args)
            if type(window) is altsplit.schemes._Window:
                arrays = [x for x in vars(window).values() if isinstance(x, np.ndarray)]
                self.held.append(sorted(x.shape for x in arrays if x.ndim == 2))
                self.rows.add(window._block.shape[0])
            return out
        return spying


class TestPassForms:
    """Runs past n passes, formed as one product a pass, against the
    matrix-free list of steps.  The formed run carries r <- G r under the
    residual rule without history, and x <- H_delta x + c otherwise."""

    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("rule", ["residual", "successive_diff"])
    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("delta", [None, 0.5])
    def test_windowed_and_matrix_free_runs_agree_at_every_stop(self, case, k, rule,
                                                               record_history, delta,
                                                               monkeypatch):
        # s doubles from 1 to 16 (order 9) or 32 (order 10) between passes
        # n + 1 and 8n + 1; a run stopped at any of them, in any block, is
        # the matrix-free run
        splits = WINDOW_CASES[case][:k]
        assert formed_pass(splits) is not None
        if case == "walk":
            n, b, x0, exact = 10, np.zeros(10), np.eye(1, 10)[0], None
        else:
            n, b, exact = LAPLACE_4.order, LAPLACE_4.b, LAPLACE_4.exact
            x0 = np.linspace(-1.0, 1.0, n)

        def runs():
            reports = []
            for passes in range(n + 1, 8 * n + 2):
                config = SchemeConfig(splittings=splits, stop_rule=rule, tolerance=1e-300,
                                      max_iterations=passes, delta=delta,
                                      record_history=record_history)
                reports.append(run(config, b, x0=x0, exact=exact))
            return reports

        windowed = runs()
        monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        for got, want in zip(windowed, runs()):
            _assert_runs_agree(got, want)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rule", ["residual", "successive_diff"])
    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("delta", [None, 0.5])
    def test_sparse_formed_and_matrix_free_runs_agree(self, k, rule, record_history, delta,
                                                      monkeypatch):
        # a CSR A with diagonal U: the formed pass is a product with a
        # sorted CSR G (carried r) or H_delta (carried x) from pass 2 on, in
        # blocks of 1, 2, 4, 8 and 16 new rows and then of 32.  A run
        # stopped at any of passes 2 to 9, or at the first, a middle or the
        # last row of the first full block, is the matrix-free run
        splits = CSR_SPLITS[:k]
        assert formed_pass(splits).format == "csr"
        n, x0 = LAPLACE_16.order, np.linspace(-1.0, 1.0, LAPLACE_16.order)
        full = altsplit.schemes._CSR_ROWS
        stops = [*range(2, 10), full + 1, full + full // 2, 2 * full]
        spy = _WindowSpy()

        def runs():
            reports = []
            for passes in stops:
                config = SchemeConfig(splittings=splits, stop_rule=rule, tolerance=1e-300,
                                      max_iterations=passes, delta=delta,
                                      record_history=record_history)
                reports.append(run(config, LAPLACE_16.b, x0=x0, exact=LAPLACE_16.exact))
            return reports

        with monkeypatch.context() as patched:
            patched.setattr(altsplit.schemes, "sweep", spy.sweep(altsplit.schemes.sweep))
            formed = runs()
        # the window holds two blocks of s rows, and no dense M or M^s
        assert spy.rows == {2, 4, 8, 16, 32}
        assert all(held in ([(s, n), (s, n)] for s in spy.rows) for held in spy.held)
        monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        for passes, got, want in zip(stops, formed, runs()):
            assert (want.iterations, want.status) == (passes, "max_iterations")
            _assert_runs_agree(got, want)

    @pytest.mark.parametrize("carry_residual", [True, False])
    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sparse_window_is_sorted_csr(self, k, delta, carry_residual):
        # G_delta = I - delta A P or H_delta = I - delta P A, formed by
        # sparse products, sorted, and equal to the dense formula
        alternation = Alternation(CSR_SPLITS[:k])
        window = altsplit.schemes._window(alternation, delta, LAPLACE_16.b, carry_residual)
        m, p, a, d = window.m, pass_from_zero(CSR_SPLITS[:k]), LAPLACE_16.A, delta or 1.0
        assert m.format == "csr" and m.has_sorted_indices
        assert window._most == altsplit.schemes._CSR_ROWS == 32
        want = np.eye(len(a)) - d * (a @ p if carry_residual else p @ a)
        np.testing.assert_allclose(m.toarray(), want, rtol=0, atol=1e-15)
        if carry_residual:
            assert window.c is None
        else:
            np.testing.assert_allclose(window.c, d * p @ LAPLACE_16.b, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("carry_residual", [True, False])
    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_row_of_a_csr_block_is_the_one_row_step(self, k, delta, carry_residual):
        # every row handed out, through blocks of 1 to 32 new rows, is c
        # (or 0) plus M times the row before, added by scipy's kernel, bit
        # for bit: no M^s is formed or squared
        window = altsplit.schemes._window(Alternation(CSR_SPLITS[:k]), delta, LAPLACE_16.b,
                                          carry_residual)
        product, n = _csr_product(window.m), LAPLACE_16.order
        want = np.linspace(-1.0, 1.0, n)
        window.restart(want)
        for _ in range(4 * altsplit.schemes._CSR_ROWS):
            want = product(want, np.zeros(n) if window.c is None else window.c.copy())
            assert window.step().tobytes() == want.tobytes()
        assert window._s == 32 and window._ms is window.m and window._cs is window.c

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_csr_pass_is_formed_after_one_pass(self, k, monkeypatch):
        # the one matrix-free pass gives the carried r; a run of one pass
        # forms nothing
        formed = []
        original = Alternation._identity_pass

        def spy(self, *args):
            formed.append(None)
            return original(self, *args)

        monkeypatch.setattr(Alternation, "_identity_pass", spy)
        for passes in (1, 2):
            config = SchemeConfig(splittings=CSR_SPLITS[:k], tolerance=1e-300,
                                  max_iterations=passes)
            assert run(config, LAPLACE_16.b).iterations == passes
            assert len(formed) == passes - 1

    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_failed_check_restarts_a_csr_block_from_the_true_residual(self, k, delta,
                                                                         monkeypatch):
        # a CSR G spoiled to zero makes every carried r read 0, so every
        # formed pass is checked against b - A x and fails until b - A x
        # meets the tolerance: each check restarts the window, at s = 1,
        # from that b - A x, and the run is the matrix-free run
        config = SchemeConfig(splittings=CSR_SPLITS[:k], tolerance=1e-8, delta=delta)
        window, restart = altsplit.schemes._window, altsplit.schemes._Window.restart
        starts = []

        def spoiled(*args):
            honest = window(*args)
            return altsplit.schemes._Window(0.0 * honest.m, honest.c)

        def restarting(self, v):
            starts.append(v.copy())
            restart(self, v)
            assert self._s == 1

        with monkeypatch.context() as patched:
            patched.setattr(altsplit.schemes, "_window", spoiled)
            patched.setattr(altsplit.schemes._Window, "restart", restarting)
            got = run(config, LAPLACE_16.b)
        monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        want = run(config, LAPLACE_16.b)
        assert want.status == "converged" and want.iterations > 2 * altsplit.schemes._CSR_ROWS
        _assert_runs_agree(got, want)
        # one start after the matrix-free pass, and one a check
        assert len(starts) == got.iterations
        a_op = CSR_SPLITS[0].system.a_op
        assert starts[-1].tobytes() == (LAPLACE_16.b - a_op @ got.final_x).tobytes()

    @pytest.mark.parametrize("rule", ["residual", "error_vs_exact", "successive_diff"])
    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_an_overflow_inside_a_block_stops_where_matrix_free_does(self, k, delta, rule,
                                                                     monkeypatch):
        # rho(H) = 5.03^k: the carried vector overflows once the window's
        # blocks have 8 or more rows, at the matrix-free run's pass
        problem = make_laplace(5)
        config = SchemeConfig(splittings=[diag_scaling_splitting(problem.A, 0.3)] * k,
                              stop_rule=rule, max_iterations=10_000, delta=delta)
        spy = _WindowSpy()
        monkeypatch.setattr(altsplit.schemes, "sweep", spy.sweep(altsplit.schemes.sweep))
        with np.errstate(over="ignore", invalid="ignore"):
            got = run(config, problem.b, exact=problem.exact)
            assert max(spy.rows) >= 8
            monkeypatch.setattr(altsplit.schemes, "_window", no_window)
            want = run(config, problem.b, exact=problem.exact)
        assert (got.status, got.iterations) == ("non_finite", want.iterations)
        assert want.status == "non_finite"

    @pytest.mark.parametrize("states, rows", [(100, 32), (150, 16), (30, 64)])
    @pytest.mark.parametrize("rule", ["residual", "successive_diff"])
    def test_window_products_stay_under_the_cap(self, states, rows, rule, monkeypatch):
        # no product of the window reaches the multiply-adds from which
        # OpenBLAS threads it, so squarings past the cap go in row chunks;
        # the window holds M, M^s and two s x n blocks
        problem = make_random_walk(states)
        splits = [diag_scaling_splitting(problem.A, a) for a in (2.0, 2.5, 3.0)]
        spy = _WindowSpy()
        monkeypatch.setattr(altsplit.schemes, "np", spy)
        monkeypatch.setattr(altsplit.schemes, "sweep", spy.sweep(altsplit.schemes.sweep))
        report = run(SchemeConfig(splittings=splits, stop_rule=rule, tolerance=1e-7),
                     np.zeros(states), x0=np.eye(1, states)[0])
        assert report.converged and report.iterations > 8 * states
        assert max(spy.rows) == rows
        # s reached `rows` by squarings of M, of states^3 multiply-adds each
        cap = altsplit.schemes._WINDOW_CAP
        assert cap < 2 * 4 * 65536
        for a, b in spy.products:
            assert np.prod(a) * (b[1] if len(b) == 2 else 1) <= cap
        for held in spy.held:
            assert held.count((states, states)) <= 2
            blocks = [shape for shape in held if shape != (states, states)]
            assert len(blocks) <= 2 and all(r <= 64 and c == states for r, c in blocks)

    @pytest.mark.parametrize("carry", ["r", "x"])
    def test_a_restarted_window_steps_from_its_new_vector(self, carry):
        # restart starts again at s = 1 from any vector; every vector handed
        # out after it, through six doublings, is M v + c of the one before
        walk = make_random_walk(10)
        m = np.eye(10) - 0.4 * walk.A
        c = None if carry == "r" else np.linspace(0.0, 1.0, 10)
        window = altsplit.schemes._Window(m, c)
        for v in (np.eye(1, 10)[0], np.full(10, 0.1), np.linspace(-1.0, 1.0, 10)):
            window.restart(v)
            assert window._s == 1 and window._ms is m
            want = v
            for _ in range(17 * 10):
                want = m.dot(want) + (0.0 if c is None else c)
                np.testing.assert_allclose(window.step(), want, rtol=1e-12, atol=1e-14)
            assert window._s == altsplit.schemes._WINDOW_ROWS == 64

    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_formed_pass_is_the_pass_on_each_column(self, k, delta):
        # column j of M is the shifted pass of e_j on b = 0 (carried x) or
        # the residual that the shifted pass from x = 0 on b = e_j leaves
        # (carried r); c is delta times the pass from x = 0 on b
        walk = make_random_walk(100)
        cases = [PASS_SPLITS["diagonal"], PASS_SPLITS["dense"],
                 [diag_scaling_splitting(walk.A, a) for a in (2.0, 2.5, 3.0)],
                 [make_splitting(walk.A, u) for u in
                  (np.tril(walk.A), np.triu(walk.A), 1.5 * np.diag(np.diag(walk.A)))]]
        d = 1.0 if delta is None else delta
        for splits in cases:
            splits = splits[:k]
            a, n = splits[0].a, splits[0].n
            b, zero = np.linspace(-1.0, 1.0, n), np.zeros(n)
            h = altsplit.schemes._window(Alternation(splits), delta, b, False)
            g = altsplit.schemes._window(Alternation(splits), delta, b, True)
            assert type(h.m) is type(g.m) is np.ndarray and g.c is None
            np.testing.assert_allclose(h.c, d * sweep(splits, zero, b), rtol=0, atol=1e-14)
            for j, e in enumerate(np.eye(n)):
                np.testing.assert_allclose(h.m[:, j], d * sweep(splits, e, zero) + (1 - d) * e,
                                           rtol=0, atol=1e-14)
                np.testing.assert_allclose(g.m[:, j], e - d * (a @ sweep(splits, zero, e)),
                                           rtol=0, atol=1e-14)

    @FORMS
    def test_formed_and_matrix_free_runs_agree(self, k, rule, delta, record_history, u_kind,
                                               monkeypatch):
        splits = PASS_SPLITS[u_kind][:k]
        assert formed_pass(splits) is not None
        passes = range(LAPLACE_4.order + 1, LAPLACE_4.order + 6)
        formed = [_run_passes(splits, rule, delta, record_history, p) for p in passes]
        monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        for p, got in zip(passes, formed):
            want = _run_passes(splits, rule, delta, record_history, p)
            assert (want.iterations, want.status) == (p, "max_iterations")
            _assert_runs_agree(got, want)

    @FORMS
    def test_converged_formed_and_matrix_free_runs_agree(self, k, rule, delta, record_history,
                                                         u_kind, monkeypatch):
        # the stop rule is met past n passes: a carried r is checked there
        # against b - A x, and the run stops at the matrix-free run's pass
        splits = PASS_SPLITS[u_kind][:k]
        got = _run_passes(splits, rule, delta, record_history, 10_000, tolerance=1e-10)
        monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        want = _run_passes(splits, rule, delta, record_history, 10_000, tolerance=1e-10)
        assert want.status == "converged" and want.iterations > LAPLACE_4.order
        _assert_runs_agree(got, want)

    @FORMS
    @pytest.mark.parametrize("form", ["matrix_free", "formed"])
    @pytest.mark.parametrize("tolerance", [1e-10, 1e-300])
    def test_final_residual_is_that_of_final_x(self, k, rule, delta, record_history, u_kind,
                                               form, tolerance, monkeypatch):
        if form == "matrix_free":
            monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        report = _run_passes(PASS_SPLITS[u_kind][:k], rule, delta, record_history,
                             LAPLACE_4.order + 40, tolerance=tolerance)
        assert report.iterations > LAPLACE_4.order
        assert report.final_residual == np.linalg.norm(LAPLACE_4.b - LAPLACE_4.A @ report.final_x)

    @pytest.mark.parametrize("spoil", ["zero", "half"])
    @pytest.mark.parametrize("delta", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_carried_residual_that_lies_is_caught(self, k, delta, spoil, monkeypatch):
        # a spoiled G makes the carried r fall below the tolerance while
        # b - A x has not: the true-residual check carries on from b - A x,
        # and the run still returns an x whose residual meets the tolerance
        splits = PASS_SPLITS["diagonal"][:k]
        config = SchemeConfig(splittings=splits, tolerance=1e-10, delta=delta)
        honest = run(config, LAPLACE_4.b)
        original = altsplit.schemes._window

        def spoiled(*args):
            window = original(*args)
            m = np.zeros_like(window.m) if spoil == "zero" else 0.5 * window.m
            return altsplit.schemes._Window(m, window.c)

        monkeypatch.setattr(altsplit.schemes, "_window", spoiled)
        report = run(config, LAPLACE_4.b)
        assert report.converged and report.iterations > LAPLACE_4.order
        assert report.final_residual < config.tolerance
        assert report.final_residual == np.linalg.norm(LAPLACE_4.b - LAPLACE_4.A @ report.final_x)
        if spoil == "zero":
            # each pass reads 0, so each is checked: the run is the honest one
            assert report.iterations == honest.iterations
            np.testing.assert_allclose(report.final_x, honest.final_x, rtol=0, atol=1e-12)
        else:
            assert report.iterations > honest.iterations

    @pytest.mark.parametrize("u_kind", list(PASS_SPLITS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_pass_is_formed_only_after_n_passes(self, k, u_kind, monkeypatch):
        # a run too short to repay forming M never forms it
        formed = []
        original = Alternation._identity_pass

        def spy(self, *args):
            formed.append(None)
            return original(self, *args)

        monkeypatch.setattr(Alternation, "_identity_pass", spy)
        splits = PASS_SPLITS[u_kind][:k]
        assert _run_passes(splits, "residual", None, False, LAPLACE_4.order).iterations == (
            LAPLACE_4.order)
        assert not formed
        _run_passes(splits, "residual", None, False, LAPLACE_4.order + 1)
        assert formed

    @pytest.mark.parametrize("k, form, rule", [
        (k, "matrix_free", "residual") for k in (1, 2, 3)
    ] + [
        (k, form, rule) for form in ("formed", "csr") for k in (1, 2, 3)
        for rule in ("residual", "successive_diff")
    ])
    def test_sweep_is_called_once_per_pass(self, k, form, rule, monkeypatch):
        # the benchmark counts passes as calls to schemes.sweep; a formed
        # pass carries r under the residual rule and x under the diff rule,
        # and a CSR one makes blocks of up to 32 rows
        if form == "matrix_free":
            monkeypatch.setattr(altsplit.schemes, "_window", no_window)
        calls = []
        original = altsplit.schemes.sweep

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(altsplit.schemes, "sweep", counting)
        problem, splits = (LAPLACE_16, CSR_SPLITS) if form == "csr" else (
            LAPLACE_4, PASS_SPLITS["diagonal"])
        report = run(SchemeConfig(splittings=splits[:k], stop_rule=rule, tolerance=1e-8),
                     problem.b)
        assert report.converged and report.iterations > problem.order
        assert len(calls) == report.iterations

    @pytest.mark.parametrize("u_kind", list(PASS_SPLITS))
    @pytest.mark.parametrize("rule", ["residual", "successive_diff"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_formed_run_leaves_no_new_array_on_a_splitting(self, k, rule, u_kind):
        # G or H and P b come from the splittings' own steps, so no V, U#V,
        # dense U^-1 of a diagonal U or other factor is kept on a splitting
        # by the run
        splits = [make_splitting(s.system, s.u) for s in PASS_SPLITS[u_kind][:k]]
        before = [dict(vars(s)) for s in splits]
        report = run(SchemeConfig(splittings=splits, stop_rule=rule, tolerance=1e-8),
                     LAPLACE_4.b)
        assert report.converged and report.iterations > LAPLACE_4.order
        for s, held in zip(splits, before):
            assert vars(s).keys() == held.keys()
            assert all(vars(s)[name] is value for name, value in held.items())
        assert formed_pass(splits) is not None


# The block screen's cases: a carried r (walk 30, residual rule), the error
# rule (Laplace order 49, dense) and the diff rule (walk 30).  Each run forms
# its pass after n passes and hands out blocks of 16 and 32 rows by pass 300.
WALK_30, LAPLACE_8 = make_random_walk(30), make_laplace(8)
SCREEN_CASES = {
    "residual": (WALK_30, np.zeros(30), {"x0": np.eye(1, 30)[0]}),
    "error_vs_exact": (LAPLACE_8, LAPLACE_8.b, {"exact": LAPLACE_8.exact}),
    "successive_diff": (WALK_30, np.zeros(30), {"x0": np.eye(1, 30)[0]}),
}
SCREEN_PASSES = 600
# The CSR case of every rule: order 225, whose window forms its pass after
# one pass and hands out blocks of 8, 16 and then 32 new rows.
CSR_SCREEN_CASE = (LAPLACE_16, LAPLACE_16.b, {"x0": np.linspace(-1.0, 1.0, LAPLACE_16.order),
                                              "exact": LAPLACE_16.exact})


def _screen_run(rule, k, tolerance, record_history=False, passes=SCREEN_PASSES, csr=False):
    problem, b, kwargs = CSR_SCREEN_CASE if csr else SCREEN_CASES[rule]
    splits = [diag_scaling_splitting(problem.A, a) for a in (2.0, 2.5, 3.0)][:k]
    config = SchemeConfig(splittings=splits, stop_rule=rule, tolerance=tolerance,
                          max_iterations=passes, record_history=record_history)
    return run(config, b, **kwargs)


class _RowSpy:
    """Wraps ``altsplit.schemes.sweep``: keeps a copy of each vector a pass
    hands out, and for a window its position (row, s) and ``screened``."""

    def __init__(self, original, case):
        self.original, self.case, self.rows, self.where, self.screened = (
            original, case, [], [], [])

    def __call__(self, step, v, *args):
        out = self.original(step, v, *args)
        window = type(step) is altsplit.schemes._Window
        self.rows.append(out.copy())
        self.where.append((step._i, step._s) if window else None)
        self.screened.append(window and step.screened)
        return out

    def metric(self, rule, p):
        """The stop metric of pass p as the run computes it: a carried r,
        b - A x of a carried x (residual rule), exact - x or the diff."""
        problem, b, kwargs = self.case
        v = self.rows[p - 1]
        if rule == "residual":  # a carried x: A is dense, applied by ndarray.dot
            m = v if self.where[p - 1] else b - problem.A.dot(v)
        elif rule == "error_vs_exact":
            m = kwargs["exact"] - v
        else:
            m = v - self.rows[p - 2]
        return float(np.sqrt(m.dot(m)))


class _ScreenSpy:
    """Stands in for ``altsplit.schemes.np``: records the row count of every
    block the screen reduces (its only ``np.einsum``)."""

    def __init__(self):
        self.blocks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, spec, *operands):
        self.blocks.append(operands[0].shape[0])
        return np.einsum(spec, *operands)


def _spied_run(rule, k, tolerance, monkeypatch, form="windowed", csr=False):
    """A run of ``_screen_run`` with a ``_RowSpy``: windowed, with the
    screen patched out, or matrix-free."""
    with monkeypatch.context() as patched:
        spy = _RowSpy(altsplit.schemes.sweep, CSR_SCREEN_CASE if csr else SCREEN_CASES[rule])
        patched.setattr(altsplit.schemes, "sweep", spy)
        if form == "unscreened":
            patched.setattr(altsplit.schemes._Window, "screen", lambda self, *args: None)
        elif form == "matrix_free":
            patched.setattr(altsplit.schemes, "_window", no_window)
        return _screen_run(rule, k, tolerance, csr=csr), spy


def _assert_the_screen_keeps_the_stop(rule, k, p, at, monkeypatch, csr=False):
    """At the tolerance ``at``, the metric of pass p, and one ulp above it,
    the windowed run stops where the run with the screen patched out does,
    bit for bit, having screened the 8 rows before pass p."""
    for tol in (at, np.nextafter(at, np.inf)):
        got, spy = _spied_run(rule, k, tol, monkeypatch, csr=csr)
        want, _ = _spied_run(rule, k, tol, monkeypatch, "unscreened", csr=csr)
        assert (got.iterations, got.status) == (want.iterations, want.status)
        assert got.status == "converged" and got.iterations >= p
        assert got.final_x.tobytes() == want.final_x.tobytes()
        assert got.final_residual == want.final_residual
        assert all(spy.screened[p - 9:p - 1]) and not spy.screened[p - 1]
        if rule != "residual":  # a carried r goes on when b - A x has not met tol
            assert got.iterations == (p if tol > at else p + 1)


def _nan_row_stops_the_run(rule, row, monkeypatch, csr=False):
    """A NaN in one entry of row ``row`` of the first block of 32 new rows
    stops the run at that row's pass, the rows before it screened."""
    _, clean = _spied_run(rule, 3, 1e-300, monkeypatch, csr=csr)
    target = clean.where.index((0, 32)) + 1 + row
    n = 1 if csr else len(SCREEN_CASES[rule][1])  # the matrix-free passes
    original, made = altsplit.schemes._Window._next, [n]

    def spoiled(window, block, out):
        original(window, block, out)
        first = made[0] + 1  # the pass of out's first row
        made[0] += len(out)
        if first <= target < first + len(out):
            out[target - first, 0] = np.nan

    monkeypatch.setattr(altsplit.schemes._Window, "_next", spoiled)
    report, spy = _spied_run(rule, 3, 1e-300, monkeypatch, csr=csr)
    assert (report.status, report.iterations) == ("non_finite", target)
    assert spy.where[target - 1] == (row, 32)
    assert spy.screened[target - 2] and not spy.screened[target - 1]
    assert np.isnan(spy.rows[target - 1][0])


class TestBlockScreen:
    """A formed run reads its stop metric once a block: rows that the
    screen clears are not tested one by one, and no decision moves."""

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("row", ["first", "sixth"])
    def test_a_tolerance_at_a_formed_rows_metric(self, rule, k, row, monkeypatch):
        # the tolerance equal to the metric of the first or sixth row of a
        # 16-row block, and one ulp above it: the windowed run stops where
        # the run with the screen patched out does, bit for bit, having
        # screened the rows before it.  The matrix-free rows differ from the
        # formed ones in their last bits, and so does the b - A x that a
        # carried r below the tolerance is checked against; so against the
        # matrix-free run the tolerance equals the smaller of the two rows'
        # metrics, and lies one ulp above the largest of them and that b - A x
        _, formed = _spied_run(rule, k, 1e-300, monkeypatch)
        _, free = _spied_run(rule, k, 1e-300, monkeypatch, "matrix_free")
        firsts = [p for p, at in enumerate(formed.where, 1) if at == (0, 16)]
        p = firsts[1] + (0 if row == "first" else 5)
        at, mf = formed.metric(rule, p), free.metric(rule, p)
        # the closing b - A x of a run of p passes is its true-residual check at pass p
        checked = _screen_run(rule, k, 1e-300, passes=p).final_residual
        _assert_the_screen_keeps_the_stop(rule, k, p, at, monkeypatch)
        top = max(at, mf, checked if rule == "residual" else 0.0)
        for tol in (min(at, mf), np.nextafter(top, np.inf)):
            got, _ = _spied_run(rule, k, tol, monkeypatch)
            want, _ = _spied_run(rule, k, tol, monkeypatch, "matrix_free")
            _assert_runs_agree(got, want)
            assert got.status == "converged"
            assert got.iterations == (p if tol > top else p + 1)

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    def test_a_nan_in_the_formed_pass_stops_the_run_at_once(self, rule, monkeypatch):
        # a NaN in one row of a spoiled M reaches the carried vector on the
        # first formed pass, a one-row block
        original = altsplit.schemes._window

        def spoiled(*args):
            window = original(*args)
            m = window.m.copy()
            m[3] = np.nan
            return altsplit.schemes._Window(m, window.c)

        monkeypatch.setattr(altsplit.schemes, "_window", spoiled)
        n = len(SCREEN_CASES[rule][1])
        report = _screen_run(rule, 3, 1e-300)
        assert (report.status, report.iterations) == ("non_finite", n + 1)

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("row", ["first", "sixth"])
    def test_a_tolerance_at_a_csr_rows_metric(self, rule, k, row, monkeypatch):
        # the same on a CSR window, at the first or sixth row of its second
        # full block of 32 rows: its rows are made one at a time, bit for
        # bit the rows of a window that makes one a block
        _, formed = _spied_run(rule, k, 1e-300, monkeypatch, csr=True)
        firsts = [p for p, at in enumerate(formed.where, 1) if at == (0, 32)]
        p = firsts[1] + (0 if row == "first" else 5)
        _assert_the_screen_keeps_the_stop(rule, k, p, formed.metric(rule, p), monkeypatch,
                                          csr=True)

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    @pytest.mark.parametrize("row", [0, 5, 31])
    def test_a_nan_row_inside_a_screened_block_stops_the_run_there(self, rule, row,
                                                                  monkeypatch):
        # a NaN in one entry of the first, sixth or last row of the first
        # block of 32 new rows: the screen clears the rows before it and
        # hands that row to the scalar test, which stops the run there
        _nan_row_stops_the_run(rule, row, monkeypatch)

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    @pytest.mark.parametrize("row", [0, 15, 31])
    def test_a_nan_row_inside_a_csr_block_stops_the_run_there(self, rule, row, monkeypatch):
        # the same in the first, a middle or the last row of a CSR window's
        # first full block
        _nan_row_stops_the_run(rule, row, monkeypatch, csr=True)

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    @pytest.mark.parametrize("k", [1, 3])
    def test_the_screen_reads_only_blocks_of_several_rows(self, rule, k, monkeypatch):
        # the screen reduces the new rows of each block of 8 or more, and
        # clears every row of this run above its tolerance of 1e-300
        spy = _ScreenSpy()
        monkeypatch.setattr(altsplit.schemes, "np", spy)
        report, rows = _spied_run(rule, k, 1e-300, monkeypatch)
        assert report.iterations == SCREEN_PASSES
        assert spy.blocks and min(spy.blocks) >= altsplit.schemes._SCREEN_ROWS == 8
        i, s = rows.where[-1]  # the last block's rows from i + 1 on were never handed out
        assert sum(rows.screened) == sum(spy.blocks) - (s - 1 - i)
        assert all(s >= 8 for (_, s), screened in zip(filter(None, rows.where),
                                                      rows.screened) if screened)

    @pytest.mark.parametrize("rule", list(SCREEN_CASES))
    def test_no_screen_with_a_history_or_matrix_free(self, rule, monkeypatch):
        # a run with record_history reads every pass's residual, through a
        # dense or a CSR window; a matrix-free run has no window.  Without a
        # history, a CSR window screens its blocks of 8, 16 and 32 new rows
        spy = _ScreenSpy()
        monkeypatch.setattr(altsplit.schemes, "np", spy)
        assert _screen_run(rule, 3, 1e-300, record_history=True).iterations == SCREEN_PASSES
        assert formed_pass(CSR_SPLITS).format == "csr"

        def csr_run(record_history):
            config = SchemeConfig(splittings=CSR_SPLITS, stop_rule=rule, tolerance=1e-300,
                                  max_iterations=128, record_history=record_history)
            return run(config, LAPLACE_16.b, x0=np.linspace(-1.0, 1.0, LAPLACE_16.order),
                       exact=LAPLACE_16.exact)

        assert csr_run(True).iterations == 128
        with monkeypatch.context() as patched:
            patched.setattr(altsplit.schemes, "_window", no_window)
            assert _screen_run(rule, 3, 1e-300).iterations == SCREEN_PASSES
        assert spy.blocks == []
        assert csr_run(False).iterations == 128  # new rows: 1, 2, 4, 8, 16, then 32s
        assert spy.blocks == [8, 16, 32, 32, 32]


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
