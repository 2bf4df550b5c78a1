"""The structured sweep path: A's CSR sweep operator and the ARPACK rho."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import altsplit.cli
import altsplit.schemes
from altsplit import (
    NotSquareError,
    SchemeConfig,
    alternating_iteration_matrix,
    diag_scaling_splitting,
    make_laplace,
    make_random_walk,
    make_splitting,
    run,
    spectral_radius,
    sweep,
)
from altsplit.cli import bench_laplace
from altsplit.splittings import CSR_MIN_ORDER, _iteration_operator

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ALPHAS = (1.0, 1.5, 1.75)
SCHEMES = {"three": 3, "two": 2, "single": 1}


def closed_form_rho(grid_n, alphas):
    """max |prod_i (1 - mu/(4 alpha_i))|, mu = 4 - 2cos(p pi h) - 2cos(q pi h).

    U_i = alpha_i diag(A) = 4 alpha_i I, so the sweep factors commute and
    share the eigenvectors of the 5-point Laplacian.
    """
    k = np.arange(1, grid_n) * math.pi / grid_n
    mu = (4.0 - 2.0 * np.cos(k)[:, None] - 2.0 * np.cos(k)[None, :]).ravel()
    prod = np.ones_like(mu)
    for a in alphas:
        prod *= 1.0 - mu / (4.0 * a)
    return float(np.max(np.abs(prod)))


def is_csr(s):
    from scipy.sparse import csr_array

    return isinstance(s.system.a_op, csr_array)


@pytest.fixture(scope="module", params=[9, 21, 41])
def laplace_splits(request):
    problem = make_laplace(request.param)
    return request.param, [diag_scaling_splitting(problem.A, a) for a in ALPHAS]


class TestStorageRule:
    def test_laplace_order_400_goes_to_csr(self):
        problem = make_laplace(21)
        s = diag_scaling_splitting(problem.A, 1.5)
        assert is_csr(s)
        assert isinstance(s.v, np.ndarray)  # V is dense, and formed on demand
        np.testing.assert_array_equal(s.v, s.u - s.a)
        x = np.random.default_rng(3).standard_normal(problem.order)
        np.testing.assert_allclose(sweep([s], x, problem.b),
                                   s.solve(s.v @ x + problem.b), atol=1e-13)

    def test_small_orders_stay_dense(self):
        walk = make_random_walk(CSR_MIN_ORDER - 1)
        s = diag_scaling_splitting(walk.A, 2.0)
        assert s.system.a_op is s.a

    def test_dense_a_stays_dense(self):
        n = CSR_MIN_ORDER
        a = np.random.default_rng(4).uniform(-1, 1, (n, n)) + n * np.eye(n)
        s = make_splitting(a, np.diag(np.diag(a)))
        # the operator is A itself: the owner's read-only view of ``a``, no copy
        assert s.system.a_op is s.a and np.shares_memory(s.a, a) and not s.a.flags.writeable

    def test_csr_residual_rule_matches_dense_iterates(self):
        problem = make_laplace(21)
        splits = [diag_scaling_splitting(problem.A, a) for a in ALPHAS]
        config = SchemeConfig(splittings=splits, tolerance=1e-8, max_iterations=50)
        report = run(config, problem.b)
        x = np.zeros(problem.order)
        for _ in range(report.iterations):
            for s in splits:
                x = s.solve(s.v @ x + problem.b)
        np.testing.assert_allclose(report.final_x, x, atol=1e-12)
        assert report.final_residual == pytest.approx(
            np.linalg.norm(problem.b - problem.A @ x), rel=1e-9)


class TestCsrKernel:
    """The owner's CSR product calls scipy's ``csr_matvec`` kernel, in which
    ``csr_array @ x`` ends, so it is bit for bit ``@``."""

    @staticmethod
    def random_csr_owner(n=250, seed=6):
        # about 2% of the entries nonzero, and every fifth row empty
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < 0.02, rng.standard_normal((n, n)), 0.0)
        a[::5] = 0.0
        return altsplit.SystemMatrix(a)

    def test_product_is_bitwise_csr_array_matmul(self):
        from scipy.sparse import csr_array

        system = self.random_csr_owner()
        n, rng = system.n, np.random.default_rng(7)
        assert isinstance(system.a_op, csr_array) and system.matvec.__self__ is system.a_op
        block = rng.standard_normal((n, 4))
        window_block = rng.standard_normal((3, n))
        for x in (rng.standard_normal(n), block[:, 2], np.arange(n) - n // 2, window_block[1]):
            got, want = system.matvec(x), csr_array(system.a) @ x
            assert got.dtype == want.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == want.tobytes()
        assert not np.any(system.matvec(rng.standard_normal(n))[::5])

    def test_product_takes_only_a_vector_of_the_column_count(self):
        # the kernel reads x without a bound: a short vector would read past
        # it, so every shape but (n,) is refused, as csr_array's @ refuses a
        # wrong length; a list is a vector
        system = self.random_csr_owner()
        n = system.n
        for x in (np.ones(n - 1), np.ones(n + 1), np.ones(1), np.ones((n, 1)), np.ones((n, 2))):
            with pytest.raises(ValueError, match=f"length {n}"):
                system.matvec(x)
        x = np.linspace(-1.0, 1.0, n)
        assert system.matvec(list(x)).tobytes() == system.matvec(x).tobytes()

    def test_product_adds_into_a_given_vector(self):
        # the formed pass's form: out = c, then the kernel adds M w into it
        from altsplit.splittings import _csr_product

        system = self.random_csr_owner()
        x, y = np.ones(system.n), np.linspace(0.0, 1.0, system.n)
        out = y.copy()
        assert _csr_product(system.a_op)(x, out) is out
        np.testing.assert_allclose(out, y + system.a @ x, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_rho_is_bitwise_that_of_csr_array_matmul(self, scheme):
        # the ARPACK rho over the kernel, and over csr_array's own @
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import LinearOperator

        problem = make_laplace(21)
        chosen = [diag_scaling_splitting(problem.A, a) for a in ALPHAS][:SCHEMES[scheme]]
        m = csr_array(problem.A)

        def matvec(x):
            x = np.ravel(x)
            for s in chosen:
                x = s.correct(x, -(m @ x))
            return x

        n = problem.order
        want = spectral_radius(LinearOperator((n, n), matvec=matvec, dtype=float))
        assert altsplit.cli._rho(chosen) == want


def test_laplace_400_table():
    # iteration counts, final residuals and errors of the order-400 table,
    # with every pass past the first 400 formed through a CSR P
    rows = bench_laplace(21)
    expected = {
        "three": (672, 4.451113e-08, 9.962942e-07),
        "two": (902, 4.452580e-08, 9.966226e-07),
        "single": (1502, 4.462909e-08, 9.989339e-07),
    }
    assert [r.scheme for r in rows] == list(expected)
    for row in rows:
        iterations, residual, error = expected[row.scheme]
        assert row.converged and row.iterations == iterations
        assert row.residual == pytest.approx(residual, rel=1e-5)
        assert row.error == pytest.approx(error, rel=1e-5)
        k = SCHEMES[row.scheme]
        assert row.rho_or_gamma == pytest.approx(closed_form_rho(21, ALPHAS[:k]), abs=1e-12)


class TestArpackRho:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_matches_closed_form(self, laplace_splits, scheme):
        grid_n, splits = laplace_splits
        chosen = splits[:SCHEMES[scheme]]
        assert all(is_csr(s) == (s.n >= CSR_MIN_ORDER) for s in chosen)
        rho = spectral_radius(_iteration_operator(chosen))
        assert rho == pytest.approx(closed_form_rho(grid_n, ALPHAS[:len(chosen)]),
                                    abs=1e-12)
        if grid_n == 21:
            dense = spectral_radius(alternating_iteration_matrix(chosen))
            assert rho == pytest.approx(dense, abs=1e-12)
        # the seeded start vector makes repeated calls bit-identical
        assert spectral_radius(_iteration_operator(chosen)) == rho

    def test_tiny_operator_is_decided_densely(self):
        from scipy.sparse.linalg import aslinearoperator

        m = np.array([[0.5, 2.0], [0.0, -0.75]])
        assert spectral_radius(aslinearoperator(m)) == pytest.approx(0.75, abs=1e-15)

    def test_non_square_operator_raises(self):
        from scipy.sparse.linalg import aslinearoperator

        with pytest.raises(NotSquareError):
            spectral_radius(aslinearoperator(np.ones((4, 3))))


def test_rho_operator_adds_no_sweep_passes(monkeypatch):
    # the benchmark counts passes as calls to schemes.sweep
    calls = []
    original = altsplit.schemes.sweep

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(altsplit.schemes, "sweep", counting)
    rows = bench_laplace(21)
    assert len(calls) == sum(r.iterations for r in rows) == 3076


def test_bench_keeps_no_dense_v_or_factor(monkeypatch):
    # the sweeps and rho read only A, as CSR, and the reciprocal diagonals
    # of U, so no splitting forms V, a dense U# or an SVD of U, or a dense
    # order-400 matrix beyond its A and U, and the owner of A holds A (a
    # view, not a copy) and its CSR operator's bound product only: no
    # projectors, no A#
    from scipy.sparse import csr_array

    splits = []

    def keep(config, *args, **kwargs):
        splits.extend(config.splittings)
        return run(config, *args, **kwargs)

    monkeypatch.setattr(altsplit.cli, "run", keep)
    bench_laplace(21)
    assert len(splits) == 6
    for s in splits:
        assert not {"v", "u_sharp", "u_factored"} & set(vars(s))
        held = [*vars(s).values(), *vars(s.system).values()]
        big = [m for m in held if isinstance(m, np.ndarray) and m.shape == (400, 400)]
        assert all(m is s.a or m is s.u for m in big)
        assert set(vars(s.system)) == {"a", "tol", "matvec"}
        assert isinstance(s.system.a_op, csr_array)
        assert s.a.base is not None and not s.a.flags.writeable


def test_dense_u_keeps_only_u_and_its_inverse():
    # a dense nonsingular U: sweeps read U^-1, so until V or a factor of
    # T = U^-1 V is asked for, the splitting holds no order-n array but
    # U and U^-1
    n = 8
    a = np.random.default_rng(5).uniform(-1, 1, (n, n)) + n * np.eye(n)
    s = make_splitting(a, np.tril(a))
    config = SchemeConfig(splittings=[s], tolerance=1e-10)
    assert run(config, np.ones(n)).converged
    held = [m for m in vars(s).values() if isinstance(m, np.ndarray) and n in m.shape]
    assert len(held) == 2 and all(m is s.u or m is s.u_sharp for m in held)
    assert s.u_nonsingular and s._recip is None
    assert not {"v", "iteration_matrix", "reversed_iteration_matrix"} & set(vars(s))
    s.iteration_matrix
    assert {"v", "iteration_matrix"} <= set(vars(s))


def test_dense_workloads_do_not_import_scipy_sparse():
    code = (
        "import sys\n"
        "import altsplit.cli\n"
        "assert 'scipy.sparse' not in sys.modules, 'import altsplit.cli'\n"
        "altsplit.cli.bench_markov(10)\n"
        "assert 'scipy.sparse' not in sys.modules, 'bench_markov(10)'\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
