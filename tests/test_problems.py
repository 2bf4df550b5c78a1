"""Benchmark generators and Matrix Market round trips."""
import numpy as np
import pytest

import altsplit.problems
from altsplit import (
    MatrixMarketError,
    SystemMatrix,
    UnsupportedFieldError,
    diag_scaling_splitting,
    exact_solution,
    make_laplace,
    make_random_walk,
    read_matrix_market,
    read_vector,
    spectral_radius,
    write_matrix_market,
    write_vector,
)

RNG = np.random.default_rng(314)


def _mm_text(fmt, lines):
    """The bytes of a ``real general`` Matrix Market file: header, then ``lines``."""
    return "".join(f"{line}\n" for line in [f"%%MatrixMarket matrix {fmt} real general", *lines]).encode()


class TestLaplace:
    def test_order(self):
        assert make_laplace(21).A.shape == (400, 400)

    def test_single_interior_node(self):
        # one unknown at (1/2, 1/2); the four boundary neighbors carry
        # g = x + y + xy at (0,.5), (1,.5), (.5,0), (.5,1)
        problem = make_laplace(2)
        np.testing.assert_allclose(problem.A, [[4.0]])
        np.testing.assert_allclose(problem.b, [0.5 + 2.0 + 0.5 + 2.0])
        np.testing.assert_allclose(problem.exact, [5.0 / 4.0])

    def test_symmetry_is_exact(self):
        a = make_laplace(9).A
        assert np.array_equal(a, a.T)

    def test_positive_definite(self):
        a = make_laplace(7).A
        assert np.min(np.linalg.eigvalsh(a)) > 0

    def test_five_point_stencil_rows(self):
        problem = make_laplace(5)
        a = problem.A
        m = 4
        assert np.all(np.diag(a) == 4.0)
        # interior node (2,2) -> row 1 + 1*m: neighbors one step away in x and y
        row = a[1 * m + 1]
        assert row[1 * m + 0] == row[1 * m + 2] == -1.0
        assert row[0 * m + 1] == row[2 * m + 1] == -1.0
        assert np.sum(row) == 0.0  # no boundary neighbor

    def test_discrete_solution_interpolates_boundary_function(self):
        # g is discretely harmonic, so the exact solution equals g at nodes
        problem = make_laplace(6)
        h = 1.0 / 6.0
        expected = np.array(
            [p * h + q * h + p * h * q * h for q in range(1, 6) for p in range(1, 6)]
        )
        np.testing.assert_allclose(problem.exact, expected, atol=1e-12)

    def test_jacobi_radius_matches_analytic_value(self):
        # Jacobi iteration radius of the 5-point matrix is cos(pi h)
        problem = make_laplace(8)
        s = diag_scaling_splitting(problem.A, 1.0)
        assert spectral_radius(s.iteration_matrix) == pytest.approx(
            np.cos(np.pi / 8.0), abs=1e-10
        )

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_laplace(1)


class TestRandomWalk:
    def test_shape_and_rows(self):
        walk = make_random_walk(10)
        np.testing.assert_allclose(walk.T.sum(axis=1), np.ones(10))
        assert walk.T[0, 1] == 1.0 and walk.T[9, 8] == 1.0
        assert walk.T[3, 2] == walk.T[3, 4] == 0.5
        assert np.all(np.diag(walk.T) == 0.0)

    def test_column_sums_of_a_vanish(self):
        walk = make_random_walk(12)
        assert np.max(np.abs(walk.A.sum(axis=0))) < 1e-14

    def test_singular_m_matrix_with_property_c(self):
        walk = make_random_walk(8)
        off = walk.A - np.diag(np.diag(walk.A))
        assert np.max(off) <= 0.0
        assert SystemMatrix(walk.A).is_m_matrix_with_property_c

    def test_stationary_vector_direction(self):
        # null-space solve: stationary weights are (1/2, 1, ..., 1, 1/2)
        walk = make_random_walk(6)
        _, _, vt = np.linalg.svd(walk.A)
        x = vt[-1]
        x = x / x.sum()
        expected = np.array([0.5, 1, 1, 1, 1, 0.5])
        expected = expected / expected.sum()
        np.testing.assert_allclose(x, expected, atol=1e-12)
        assert np.min(x) > 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_random_walk(2)


class TestMatrixMarket:
    def test_array_round_trip(self, tmp_path):
        # the Laplace matrix holds -0.0 entries: the file spells each as the
        # "-0" that %.17g prints, and the read gives it back with its sign
        for m in (RNG.uniform(-5, 5, (5, 5)), make_laplace(5).A):
            path = tmp_path / "m.mtx"
            write_matrix_market(path, m, fmt="array")
            lines = ["%d %d" % m.shape, *("%.17g" % v for v in m.T.ravel())]
            assert path.read_bytes() == _mm_text("array", lines)
            back = read_matrix_market(path)
            np.testing.assert_array_equal(back, m)
            np.testing.assert_array_equal(np.signbit(back), np.signbit(m))

    def test_coordinate_round_trip(self, tmp_path):
        m = RNG.uniform(-1, 1, (4, 6))
        m[np.abs(m) < 0.5] = 0.0
        # the coordinate format writes no zero, so each reads back as +0.0
        for m in (m, make_laplace(5).A):
            path = tmp_path / "m.mtx"
            write_matrix_market(path, m, fmt="coordinate")
            r, c = np.nonzero(m)
            lines = ["%d %d %d" % (*m.shape, r.size),
                     *("%d %d %.17g" % (i + 1, j + 1, m[i, j]) for i, j in zip(r, c))]
            assert path.read_bytes() == _mm_text("coordinate", lines)
            back = read_matrix_market(path)
            np.testing.assert_array_equal(back, m)
            np.testing.assert_array_equal(np.signbit(back), np.signbit(m) & (m != 0))

    def test_coordinate_fills_missing_with_zeros(self, tmp_path):
        path = tmp_path / "sparse.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "4 4 3\n"
            "1 1 2.5\n"
            "2 3 -1.0\n"
            "4 4 7\n"
        )
        m = read_matrix_market(path)
        expected = np.zeros((4, 4))
        expected[0, 0], expected[1, 2], expected[3, 3] = 2.5, -1.0, 7.0
        np.testing.assert_array_equal(m, expected)

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2\n"
            "2 1 -1\n"
            "3 2 -1\n"
            "3 3 2\n"
        )
        m = read_matrix_market(path)
        assert np.array_equal(m, m.T)
        assert m[0, 1] == m[1, 0] == -1.0

    def test_symmetric_array_expansion(self, tmp_path):
        path = tmp_path / "syma.mtx"
        # lower triangle of [[1, 2], [2, 5]] in column-major order
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n5\n"
        )
        np.testing.assert_array_equal(
            read_matrix_market(path), [[1.0, 2.0], [2.0, 5.0]]
        )

    def test_array_is_column_major(self, tmp_path):
        path = tmp_path / "cm.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        )
        np.testing.assert_array_equal(
            read_matrix_market(path), [[1.0, 3.0], [2.0, 4.0]]
        )

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 oops 2.0\n"
        )
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("text, line", [
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n", 2),
        ("%%MatrixMarket matrix array real general\n-1 -1\n1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n1000000 1000000 0\n", 2),
        ("%%MatrixMarket matrix array real general\n% café\n1 1\n1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n2 2 2\n1 1 3\n", 5),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n1 2 5\n", 4),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n3 1 5\n", 4),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
         "99999999999999999999 1 5\n", 4),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1.0\n", 3),
    ], ids=["symmetric-non-square", "negative-sizes", "huge-header", "non-ascii",
            "repeated-entry", "upper-triangle-entry", "index-out-of-range",
            "index-beyond-int64", "index-zero"])
    def test_malformed_input_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.mtx"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert err.value.line == line

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("text", [
        # the second value of a two-value array line
        "%%MatrixMarket matrix array real general\n% note\n2 2\n1 2\n3 {}\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n% note\n2 2 {}\n",
    ], ids=["array", "coordinate"])
    def test_non_finite_value_names_its_line(self, tmp_path, text, token):
        path = tmp_path / "nonfinite.mtx"
        path.write_text(text.format(token))
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("commented", [False, True])
    def test_a_valid_file_finds_no_line_number_past_its_size_line(
            self, tmp_path, monkeypatch, fmt, commented):
        # body line numbers are found only when an error must name one
        m = make_laplace(21).A
        path = tmp_path / "a.mtx"
        write_matrix_market(path, m, fmt=fmt)
        header, size, body = path.read_text().split("\n", 2)
        if commented:  # two lines before the size line, two after
            header, size = f"{header}\n% note\n", f"{size}\n   % indented\n"
        path.write_text("\n".join([header, size, body]))
        found = []

        def spy(name, number_of):
            routine = getattr(altsplit.problems, name)

            def wrapped(*args):
                result = routine(*args)
                found.append(number_of(result))
                return result

            monkeypatch.setattr(altsplit.problems, name, wrapped)

        spy("_size_line", lambda line: line[0])
        spy("_line_number", lambda number: number)
        np.testing.assert_array_equal(read_matrix_market(path), m)
        assert found == [4 if commented else 2]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.mtx"
        path.write_text("%%NotMatrixMarket\n1 1\n0\n")
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert err.value.line == 1

    def test_complex_field_unsupported(self, tmp_path):
        path = tmp_path / "cpx.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n1 1\n0 0\n")
        with pytest.raises(UnsupportedFieldError):
            read_matrix_market(path)

    def test_pattern_field_unsupported(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
        with pytest.raises(UnsupportedFieldError):
            read_matrix_market(path)

    def test_vector_round_trip(self, tmp_path):
        v = RNG.uniform(-2, 2, 7)
        path = tmp_path / "v.mtx"
        write_vector(path, v)
        np.testing.assert_array_equal(read_vector(path), v)

    def test_extreme_values_survive(self, tmp_path):
        m = np.array([[np.pi, 1e-300], [1.0 / 3.0, 6.02214076e23]])
        path = tmp_path / "x.mtx"
        write_matrix_market(path, m)
        np.testing.assert_array_equal(read_matrix_market(path), m)


class TestSolvingTheProblems:
    def test_laplace_exact_matches_gen_solve(self):
        problem = make_laplace(5)
        np.testing.assert_allclose(
            exact_solution(problem.A, problem.b), problem.exact, atol=1e-10
        )
