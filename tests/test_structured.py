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

    return isinstance(s.a_op, csr_array)


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
                                   s.solver.solve(s.v @ x + problem.b), atol=1e-13)

    def test_small_orders_stay_dense(self):
        walk = make_random_walk(CSR_MIN_ORDER - 1)
        s = diag_scaling_splitting(walk.A, 2.0)
        assert s.a_op is s.a

    def test_dense_a_stays_dense(self):
        n = CSR_MIN_ORDER
        a = np.random.default_rng(4).uniform(-1, 1, (n, n)) + n * np.eye(n)
        assert make_splitting(a, np.diag(np.diag(a))).a_op is a

    def test_csr_residual_rule_matches_dense_iterates(self):
        problem = make_laplace(21)
        splits = [diag_scaling_splitting(problem.A, a) for a in ALPHAS]
        config = SchemeConfig(splittings=splits, tolerance=1e-8, max_iterations=50)
        report = run(config, problem.b)
        x = np.zeros(problem.order)
        for _ in range(report.iterations):
            for s in splits:
                x = s.solver.solve(s.v @ x + problem.b)
        np.testing.assert_allclose(report.final_x, x, atol=1e-12)
        assert report.final_residual == pytest.approx(
            np.linalg.norm(problem.b - problem.A @ x), rel=1e-9)


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
    # the sweeps and rho read only A, as CSR, and the solvers of U, so no
    # splitting forms V or a dense order-400 matrix beyond its A and U
    splits = []

    def keep(config, *args, **kwargs):
        splits.extend(config.splittings)
        return run(config, *args, **kwargs)

    monkeypatch.setattr(altsplit.cli, "run", keep)
    bench_laplace(21)
    assert len(splits) == 6
    for s in splits:
        assert "v" not in vars(s)
        held = [*vars(s).values(), *vars(s.solver).values()]
        big = [m for m in held if isinstance(m, np.ndarray) and m.shape == (400, 400)]
        assert all(m is s.a or m is s.u for m in big)


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
