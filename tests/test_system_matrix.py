"""The owner of A: one SystemMatrix per A, shared by every splitting of it."""
import numpy as np
import pytest

import altsplit.cli as cli
from altsplit import (
    DEFAULT_TOL,
    Alternation,
    MismatchedSplittingError,
    SchemeConfig,
    SystemMatrix,
    ToleranceProfile,
    alternating_iteration_matrix,
    diag_scaling_splitting,
    exact_solution,
    make_random_walk,
    make_splitting,
    write_matrix_market,
    write_vector,
)
from altsplit.cli import bench_markov, main
from altsplit.generators import (
    random_group_monotone_regular_triple,
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
    induced_splitting,
)

LOOSE = ToleranceProfile(rank_tol=1e-6)
TRIPLES = [random_group_monotone_regular_triple, random_proper_triple,
           random_singular_m_matrix_triple, random_quasi_regular_triple]


def assert_one_owner(splits):
    assert all(s.system is splits[0].system for s in splits)


class TestTheOwner:
    def test_a_is_a_read_only_view_not_a_copy(self):
        a = A_EXAMPLE.copy()
        system = SystemMatrix(a)
        assert system.a is not a and np.shares_memory(system.a, a)
        assert not system.a.flags.writeable and a.flags.writeable
        assert system.n == 3 and system.tol is DEFAULT_TOL
        # an array that is read-only already is kept as it is
        assert SystemMatrix(system.a).a is system.a

    def test_facts_of_a(self):
        system = SystemMatrix(A_EXAMPLE)
        assert not system.is_nonsingular
        np.testing.assert_allclose(system.a_sharp, A_SHARP_EXPECTED, atol=1e-12)
        assert system.a_sharp is system.a_sharp and not system.a_sharp.flags.writeable
        assert SystemMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])).a_sharp is None
        assert SystemMatrix(np.eye(2)).is_nonsingular

    def test_every_builder_takes_the_owner(self, example_triple):
        system = SystemMatrix(A_EXAMPLE)
        splits = [make_splitting(system, m) for m in (K_EXAMPLE, U_EXAMPLE, X_EXAMPLE)]
        assert_one_owner(splits)
        np.testing.assert_array_equal(alternating_iteration_matrix(splits),
                                      alternating_iteration_matrix(example_triple))
        walk = SystemMatrix(make_random_walk(10).A)
        assert diag_scaling_splitting(walk, 2.0).system is walk
        h = alternating_iteration_matrix(splits)
        assert induced_splitting(system, h).system is system
        b = A_EXAMPLE @ np.ones(3)
        np.testing.assert_array_equal(exact_solution(system, b), exact_solution(A_EXAMPLE, b))

    def test_the_owner_carries_the_profile(self):
        system = SystemMatrix(A_EXAMPLE, LOOSE)
        assert make_splitting(system, K_EXAMPLE).tol is LOOSE
        assert make_splitting(A_EXAMPLE, K_EXAMPLE).tol is DEFAULT_TOL
        # the owner is the one place to choose a profile: no builder takes a second
        for build, args in ((make_splitting, (K_EXAMPLE,)),
                            (diag_scaling_splitting, (1.0,)),
                            (induced_splitting, (np.zeros((3, 3)),)),
                            (exact_solution, (np.zeros(3),))):
            with pytest.raises(TypeError):
                build(system, *args, tol=DEFAULT_TOL)

    def test_owners_of_equal_arrays_share_a(self):
        # two owners of equal arrays under one profile are one A, as two
        # arrays were before; under two profiles they are not
        a = A_EXAMPLE.copy()
        first = make_splitting(SystemMatrix(a), K_EXAMPLE)
        SchemeConfig(splittings=[first, make_splitting(SystemMatrix(a.copy()), U_EXAMPLE)])
        with pytest.raises(MismatchedSplittingError):
            SchemeConfig(splittings=[first, make_splitting(SystemMatrix(a, LOOSE), U_EXAMPLE)])


class TestOneOwnerAtEachSite:
    @pytest.mark.parametrize("make", TRIPLES, ids=lambda f: f.__name__)
    def test_generators(self, make):
        a, splits = make(np.random.default_rng(1), 5)
        assert_one_owner(splits)
        np.testing.assert_array_equal(splits[0].a, a)

    def test_induced_splittings(self):
        _, splits = random_group_monotone_regular_triple(np.random.default_rng(2), 4)
        for chosen in (splits, splits[:2]):
            assert_one_owner([*splits, Alternation(chosen).induced])
        h = alternating_iteration_matrix(splits)
        assert_one_owner([*splits, induced_splitting(splits[0].system, h)])

    def test_bench_rows(self, monkeypatch):
        configs, run = [], cli.run
        monkeypatch.setattr(cli, "run", lambda config, *a, **k: configs.append(config)
                            or run(config, *a, **k))
        bench_markov(10)
        assert len(configs) == 3
        assert_one_owner([s for c in configs for s in c.splittings])

    def test_solve_command(self, monkeypatch, tmp_path, capsys):
        paths = {}
        for name, m in (("A", A_EXAMPLE), ("K", K_EXAMPLE), ("U", U_EXAMPLE), ("X", X_EXAMPLE)):
            paths[name] = str(tmp_path / f"{name}.mtx")
            write_matrix_market(paths[name], m)
        paths["b"] = str(tmp_path / "b.mtx")
        write_vector(paths["b"], A_EXAMPLE @ np.ones(3))
        configs, run = [], cli.run
        monkeypatch.setattr(cli, "run", lambda config, *a, **k: configs.append(config)
                            or run(config, *a, **k))
        assert main(["solve", "--matrix", paths["A"], "--rhs", paths["b"],
                     "--split", f"{paths['K']},{paths['U']},{paths['X']}"]) == 0
        assert_one_owner(configs[0].splittings)
        np.testing.assert_array_equal(configs[0].splittings[0].a, A_EXAMPLE)

    @pytest.mark.parametrize("split", [["--u", "K.mtx"], ["--diag-alpha", "2"]])
    def test_classify_command(self, monkeypatch, tmp_path, capsys, split):
        a = A_EXAMPLE + np.diag([0.0, 0.0, 1.0])  # diag(A) without a zero
        write_matrix_market(tmp_path / "A.mtx", a)
        write_matrix_market(tmp_path / "K.mtx", K_EXAMPLE)
        seen, classify = [], cli.classify
        monkeypatch.setattr(cli, "classify", lambda s: seen.append(s) or classify(s))
        monkeypatch.chdir(tmp_path)
        assert main(["classify", "--matrix", "A.mtx", *split]) == 0
        assert isinstance(seen[0].system, SystemMatrix)
        np.testing.assert_array_equal(seen[0].a, a)
