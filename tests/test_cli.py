"""Command-line plumbing: flags, exit codes, table and CSV output."""
import csv
import warnings

import numpy as np
import pytest

import altsplit.cli as cli
from altsplit import exact_solution, read_vector, write_matrix_market, write_vector
from altsplit.cli import CSV_HEADER, main
from altsplit.schemes import run
from conftest import A_EXAMPLE, K_EXAMPLE, U_EXAMPLE, X_EXAMPLE


@pytest.fixture()
def example_files(tmp_path):
    paths = {}
    for name, matrix in (
        ("A", A_EXAMPLE), ("K", K_EXAMPLE), ("U", U_EXAMPLE), ("X", X_EXAMPLE)
    ):
        paths[name] = str(tmp_path / f"{name}.mtx")
        write_matrix_market(paths[name], matrix)
    b = A_EXAMPLE @ np.array([1.0, 2.0, 0.0])  # consistent right-hand side
    paths["b"] = str(tmp_path / "b.mtx")
    write_vector(paths["b"], b)
    paths["b_vec"] = b
    return paths


class TestClassifyCommand:
    def test_example_report(self, example_files, capsys):
        code = main(["classify", "--matrix", example_files["A"], "--u", example_files["K"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "is_proper                    yes" in out
        assert "is_g_weak_regular_type2      no" in out
        assert "-1" in out  # the LK# witness entry

    def test_diag_alpha_trivial(self, tmp_path, capsys):
        path = str(tmp_path / "d.mtx")
        write_matrix_market(path, np.diag([1.0, 2.0]))
        code = main(["classify", "--matrix", path, "--diag-alpha", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "is_regular                   yes" in out

    def test_order_zero_matrix_classifies(self, tmp_path, capsys):
        path = tmp_path / "z.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n0 0\n")
        code = main(["classify", "--matrix", str(path), "--diag-alpha", "1"])
        assert code == 0
        assert "is_regular                   yes" in capsys.readouterr().out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nnope\n4\n")
        code = main(["classify", "--matrix", str(bad), "--diag-alpha", "1.0"])
        assert code == 2
        assert "line 4" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["classify", "--matrix", "/nope.mtx", "--diag-alpha", "1.0"]) == 2

    def test_dimension_mismatch_exit_3(self, tmp_path, example_files, capsys):
        small = str(tmp_path / "small.mtx")
        write_matrix_market(small, np.eye(2))
        code = main(["classify", "--matrix", example_files["A"], "--u", small])
        assert code == 3


class TestSolveCommand:
    def test_consistent_singular_system(self, example_files, tmp_path, capsys):
        out_path = str(tmp_path / "x.mtx")
        code = main([
            "solve",
            "--matrix", example_files["A"],
            "--rhs", example_files["b"],
            "--split", f"{example_files['K']},{example_files['U']},{example_files['X']}",
            "--tol", "1e-12",
            "--out", out_path,
        ])
        assert code == 0
        x = read_vector(out_path)
        expected = exact_solution(A_EXAMPLE, example_files["b_vec"])
        np.testing.assert_allclose(x, expected, atol=1e-9)

    def test_inconsistent_rhs_never_converges(self, example_files, tmp_path, capsys):
        bad_b = str(tmp_path / "bad_b.mtx")
        write_vector(bad_b, np.array([0.0, 0.0, 1.0]))  # not in range(A)
        code = main([
            "solve",
            "--matrix", example_files["A"],
            "--rhs", bad_b,
            "--split", example_files["K"],
            "--max-iters", "200",
        ])
        assert code == 1

    def test_delta_on_markov_system(self, tmp_path, capsys):
        from altsplit import make_random_walk

        walk = make_random_walk(8)
        a_path = str(tmp_path / "walk.mtx")
        u_path = str(tmp_path / "u.mtx")
        b_path = str(tmp_path / "zero.mtx")
        write_matrix_market(a_path, walk.A)
        write_matrix_market(u_path, 2.0 * np.eye(8))
        write_vector(b_path, np.zeros(8))
        code = main([
            "solve",
            "--matrix", a_path,
            "--rhs", b_path,
            "--split", u_path,
            "--delta", "0.5",
            "--x0", "uniform",
            "--stop", "successive_diff",
            "--tol", "1e-10",
        ])
        assert code == 0

    @pytest.mark.parametrize("x0", ["zero", "uniform"])
    def test_order_zero_system_converges(self, tmp_path, capsys, x0):
        a_path, b_path = tmp_path / "z.mtx", tmp_path / "zb.mtx"
        a_path.write_text("%%MatrixMarket matrix array real general\n0 0\n")
        b_path.write_text("%%MatrixMarket matrix array real general\n0 1\n")
        code = main(["solve", "--matrix", str(a_path), "--rhs", str(b_path),
                     "--split", str(a_path), "--x0", x0])
        assert code == 0
        assert "converged    True" in capsys.readouterr().out

    def test_index_two_split_exit_4(self, tmp_path, capsys):
        a_path = str(tmp_path / "a.mtx")
        u_path = str(tmp_path / "u.mtx")
        b_path = str(tmp_path / "b.mtx")
        write_matrix_market(a_path, np.array([[0.0, 1.0], [0.0, 0.0]]))
        write_matrix_market(u_path, np.array([[0.0, 1.0], [0.0, 0.0]]))
        write_vector(b_path, np.zeros(2))
        code = main([
            "solve", "--matrix", a_path, "--rhs", b_path, "--split", u_path,
        ])
        assert code == 4


class TestBenchCommand:
    def test_tiny_laplace_converges_fast(self, capsys):
        code = main(["bench", "laplace", "--grid", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split()
            assert int(fields[2]) <= 2  # 1x1 system: every scheme is direct

    def test_diverging_row_prints_no_warning(self):
        # rho = 5.03: the iterates overflow, and the non-finite stop ends
        # the run after 223 passes and says so
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = cli.bench_laplace(5, alphas=[0.3])
        assert rows[0].iterations == 223
        assert not rows[0].converged
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_csv_contract(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code = main(["bench", "markov", "--states", "6", "--csv", str(path)])
        capsys.readouterr()
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert [r[1] for r in rows[1:]] == ["three", "two", "single"]
        assert all(r[4] == "" for r in rows[1:])  # error column blank

    def test_csv_deterministic_except_time(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bench", "markov", "--states", "6", "--csv", str(p1)])
        main(["bench", "markov", "--states", "6", "--csv", str(p2)])
        capsys.readouterr()

        def strip(path):
            with open(path, newline="") as fh:
                return [[f for i, f in enumerate(row) if i != 5] for row in csv.reader(fh)]

        assert strip(p1) == strip(p2)

    def test_laplace_csv_has_error_column(self, tmp_path, capsys):
        path = tmp_path / "lap.csv"
        main(["bench", "laplace", "--grid", "4", "--csv", str(path)])
        capsys.readouterr()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(float(r[4]) >= 0 for r in rows[1:])

    def test_diverging_row_exits_1(self, capsys):
        # alpha = 0.3 gives rho(H) = 5.03: the run stops on a non-finite
        # metric without converging, and the exit code must say so
        code = main(["bench", "laplace", "--grid", "5", "--alphas", "0.3"])
        out = capsys.readouterr().out
        assert code == 1
        assert len(out.splitlines()) == 2  # the table is still printed

    @pytest.mark.parametrize("bench, size, option, accepted", [
        ("bench_markov", 10, {"stop": "successive_diff"}, "'residual', 'diff'"),
        ("bench_laplace", 5, {"stop": "bogus"}, "'error', 'residual'"),
        ("bench_markov", 10, {"x0_kind": "unifrom"}, "'e1', 'uniform'"),
    ], ids=["markov-stop", "laplace-stop", "markov-x0"])
    def test_unknown_option_value_is_refused(self, monkeypatch, bench, size, option, accepted):
        # An unknown value must not run the default rule or start vector instead
        monkeypatch.setattr(cli, "run", None)
        with pytest.raises(ValueError, match=f"must be one of {accepted}"):
            getattr(cli, bench)(size, **option)

    @pytest.mark.parametrize("bench, size", [("bench_markov", 10), ("bench_laplace", 3)])
    def test_a_fourth_alpha_is_refused(self, monkeypatch, bench, size):
        # The three-step scheme uses three splittings; a fourth must not
        # be dropped from the table without a word
        monkeypatch.setattr(cli, "run", None)
        with pytest.raises(ValueError, match="at most three alphas"):
            getattr(cli, bench)(size, alphas=(2.0, 2.5, 3.0, 4.0))

    @pytest.mark.parametrize("argv", [
        ["bench", "markov", "--states", "10", "--alphas", "2,2.5,3,4"],
        ["bench", "laplace", "--grid", "3", "--alphas", "1,1.5,1.75,2"],
    ], ids=["markov", "laplace"])
    def test_a_fourth_alpha_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most three alphas" in captured.err

    @pytest.mark.parametrize("bench, size", [("bench_markov", 10), ("bench_laplace", 3)])
    def test_runs_go_through_the_module_run(self, monkeypatch, bench, size):
        # The benchmark's walk-chain workload swaps cli.run to keep each
        # run's final vector; a driver that bound run early would bypass it.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "run", counted)
        rows = getattr(cli, bench)(size)
        assert len(calls) == 3
        assert [r.scheme for r in rows] == ["three", "two", "single"]


class TestVerifyCommand:
    def test_companion_suite_passes(self, capsys):
        code = main([
            "verify", "--suite", "companion", "--trials", "20", "--seed", "42",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed 42" in out
        assert "20/20 ok" in out

    def test_group_inverse_suite_passes(self, capsys):
        code = main([
            "verify", "--suite", "group-inverse", "--trials", "25", "--seed", "1",
        ])
        assert code == 0
        assert "25/25 ok" in capsys.readouterr().out

    @pytest.mark.parametrize("suite, size", [
        ("group-inverse", 2), ("companion", 3), ("semiconvergence", 2), ("quasi", 4),
    ])
    def test_smallest_size_runs(self, capsys, suite, size):
        code = main(["verify", "--suite", suite, "--trials", "3", "--size", str(size)])
        assert code == 0
        assert "3/3 ok" in capsys.readouterr().out

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_a_trial_fails_once_however_many_checks_fail(self, monkeypatch, capsys):
        # every quasi-suite verdict is a counterexample: six per trial
        from altsplit.analysis import TheoremVerdict

        def broken(theorem_id, splits, delta=None):
            return TheoremVerdict(theorem_id, True, [], False, {"gamma_H": 1.0})

        monkeypatch.setattr(cli, "verify_semiconvergence_theorem", broken)
        code = main(["verify", "--suite", "quasi", "--trials", "2", "--size", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "quasi                    0/2 FAIL" in out
        assert "first counterexample: trial 0: quasi-three-step: {'gamma_H': 1.0}" in out

    def test_all_runs_the_suites_in_table_order(self, capsys):
        assert main(["verify", "--suite", "all", "--trials", "1", "--size", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in lines] == [
            "group-inverse", "companion", "typeII-convergence", "both-types-comparison",
            "two-vs-three", "semiconvergence", "quasi",
        ]


class TestExitCodes:
    @pytest.mark.parametrize("case, expected", [
        ("classify_index_two_u", 4),
        ("solve_negative_tol", 2),
        ("classify_negative_alpha", 2),
        ("non_ascii_comment", 2),
        ("symmetric_non_square", 2),
        ("negative_sizes", 2),
        ("huge_coordinate_header", 2),
        ("solve_nan_tol", 2),
        ("verify_negative_trials", 2),
        ("verify_companion_size_2", 2),
        ("verify_quasi_size_3", 2),
        ("verify_all_size_3", 2),
        ("verify_group_inverse_size_1", 2),
    ])
    def test_error_exits_with_documented_code(self, tmp_path, capsys, case, expected):
        a, u, b = (str(tmp_path / f"{name}.mtx") for name in "aub")
        write_matrix_market(a, np.eye(2))
        write_matrix_market(u, np.array([[0.0, 1.0], [0.0, 0.0]]))  # index 2
        write_vector(b, np.ones(2))
        bad = tmp_path / "bad.mtx"
        bad.write_bytes({
            "non_ascii_comment":
                b"%%MatrixMarket matrix array real general\n% caf\xc3\xa9\n2 2\n1\n0\n0\n1\n",
            "symmetric_non_square":
                b"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
            "negative_sizes": b"%%MatrixMarket matrix array real general\n-1 -1\n1\n",
            "huge_coordinate_header":
                b"%%MatrixMarket matrix coordinate real general\n1000000 1000000 0\n",
        }.get(case, b""))
        argv = {
            "classify_index_two_u": ["classify", "--matrix", a, "--u", u],
            "solve_negative_tol": [
                "solve", "--matrix", a, "--rhs", b, "--split", a, "--tol", "-1",
            ],
            "classify_negative_alpha": ["classify", "--matrix", a, "--diag-alpha", "-1"],
            "solve_nan_tol": [
                "solve", "--matrix", a, "--rhs", b, "--split", a, "--tol", "nan",
            ],
            "verify_negative_trials": ["verify", "--suite", "companion", "--trials", "-1"],
            "verify_companion_size_2": ["verify", "--suite", "companion", "--size", "2"],
            "verify_quasi_size_3": ["verify", "--suite", "quasi", "--size", "3"],
            "verify_all_size_3": ["verify", "--suite", "all", "--size", "3"],
            "verify_group_inverse_size_1": ["verify", "--suite", "group-inverse", "--size", "1"],
        }.get(case, ["classify", "--matrix", str(bad), "--diag-alpha", "1.0"])
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""  # refused before any seed or suite line
        if "--size" in argv:
            assert "--size must be at least" in captured.err

    @pytest.mark.parametrize("name, argv", [
        ("make_laplace", ["bench", "laplace", "--grid", "5"]),
        ("make_random_walk", ["bench", "markov", "--states", "10"]),
        ("random_index_one", ["verify", "--suite", "group-inverse", "--trials", "1"]),
    ], ids=["laplace-grid", "markov-states", "verify-size"])
    def test_memory_error_exits_2(self, monkeypatch, capsys, name, argv):
        # a size too large for memory is a flag problem, not "no
        # convergence"; the builder raises instead of allocating
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, name, out_of_memory)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize("kind, expected", [
        (kind, code) for kinds, code in cli._EXIT_CODES for kind in kinds
    ], ids=lambda value: getattr(value, "__name__", str(value)))
    def test_every_listed_kind_is_caught_with_its_code(self, monkeypatch, capsys, kind,
                                                        expected):
        def failing(args):
            raise kind("boom")

        monkeypatch.setattr(cli, "_cmd_verify", failing)
        assert main(["verify", "--suite", "companion"]) == expected
        assert capsys.readouterr().err == "error: boom\n"
