"""Which paths load scipy: each check runs in a fresh interpreter.

scipy is imported only where it is called: ``scipy.sparse`` for CSR
operators from order 200 and ``scipy.sparse.linalg`` for ARPACK ``rho``.
:class:`Splitting`'s solves with U run on numpy alone, so the walk-chain
table, ``classify``, ``verify``, ``exact_solution`` and every solve below
order 200 must start and finish without scipy.  In-process tests cannot see this,
because other tests have already imported scipy.
"""
import os
import subprocess
import sys
import textwrap

import numpy as np

from altsplit import make_random_walk, write_matrix_market, write_vector

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prepended to each script: ``check(step)`` fails naming the step after
# which a scipy module was found loaded.
PRELUDE = """\
import contextlib, io, sys

def check(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"{step}: {loaded[:5]}"
"""


def run_fresh(script):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(script)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_diagonal_paths_load_no_scipy(tmp_path):
    walk = make_random_walk(10)
    paths = {name: str(tmp_path / f"{name}.mtx") for name in ("a", "b", "u1", "u2", "u3")}
    write_matrix_market(paths["a"], walk.A)
    write_vector(paths["b"], np.zeros(10))
    for name, alpha in (("u1", 2.0), ("u2", 2.5), ("u3", 3.0)):
        write_matrix_market(paths[name], alpha * np.eye(10))
    run_fresh(f"""
        paths = {paths!r}
        import altsplit
        check("import altsplit")
        import altsplit.cli
        from altsplit.cli import bench_markov, main
        check("import altsplit.cli")

        def quiet(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return main(argv)

        bench_markov(10)
        check("bench_markov(10)")
        assert quiet(["bench", "markov", "--states", "10"]) == 0
        check("bench markov")
        assert quiet(["classify", "--matrix", paths["a"], "--diag-alpha", "2"]) == 0
        check("classify --diag-alpha")
        split = ",".join(paths[name] for name in ("u1", "u2", "u3"))
        code = quiet(["solve", "--matrix", paths["a"], "--rhs", paths["b"],
                      "--split", split, "--x0", "uniform"])
        assert code == 0, code
        check("solve with diagonal U")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                main(["bench", "markov", "--states", "ten"])
        except SystemExit as exc:
            assert exc.code == 2, exc.code
        else:
            raise AssertionError("a bad --states value must exit 2")
        check("argparse error")
    """)


def test_dense_paths_load_no_scipy(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
    paths = {"a": str(tmp_path / "a.mtx"), "u": str(tmp_path / "u.mtx")}
    write_matrix_market(paths["a"], a)
    write_matrix_market(paths["u"], np.tril(a))
    run_fresh(f"""
        paths = {paths!r}
        import numpy as np
        from altsplit import exact_solution, make_splitting, read_matrix_market
        from altsplit.cli import main

        def quiet(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return main(argv)

        assert quiet(["verify", "--suite", "all", "--trials", "2"]) == 0
        check("verify --suite all")
        assert quiet(["classify", "--matrix", paths["a"], "--u", paths["u"]]) == 0
        check("classify --u with dense U")
        a = read_matrix_market(paths["a"])
        b = np.arange(6.0)
        assert np.allclose(a @ exact_solution(a, b), b)
        check("exact_solution")
        s = make_splitting(a, a)
        assert s.u_nonsingular
        assert np.allclose(s.solve(b), np.linalg.solve(a, b))
        assert np.allclose(s.right_apply(a), np.eye(6))
        check("splitting with dense U")
    """)
