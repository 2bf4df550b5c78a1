"""One tolerance profile per splitting, and one class report per splitting."""
import numpy as np
import pytest

import altsplit.splittings as splittings
from altsplit import (
    MismatchedSplittingError,
    SchemeConfig,
    SystemMatrix,
    ToleranceProfile,
    Witness,
    alternating_iteration_matrix,
    b_sharp_closed_form,
    classify,
    companion_matrix,
    induced_regular_splitting,
    make_splitting,
    verify_convergence_theorem,
    verify_semiconvergence_theorem,
)
from altsplit.analysis import CONVERGENCE_THEOREMS, SEMICONVERGENCE_THEOREMS
from altsplit.generators import random_group_monotone_regular_triple, random_quasi_regular_triple

LOOSE = ToleranceProfile(rank_tol=1e-6)
# Nonsingular at the default rank_tol of 1e-10, singular at LOOSE's 1e-6.
A_NEAR_SINGULAR = np.diag([2.0, 1.0, 1e-8])
U_NEAR_SINGULAR = np.diag([3.0, 2.0, 2e-8])
G_CLASSES = ("is_g_regular", "is_g_weak_regular_type1", "is_g_weak_regular_type2")
PLAIN_AND_QUASI = ("is_regular", "is_weak_regular_type1", "is_weak_regular_type2",
                   "is_quasi_regular", "is_quasi_weak_regular_type1",
                   "is_quasi_weak_regular_type2")


class TestClassifyReadsTheBuildProfile:
    def test_default_build_has_every_class(self):
        rep = classify(make_splitting(A_NEAR_SINGULAR, U_NEAR_SINGULAR))
        assert all(rep.flags().values())

    def test_loose_build_decides_every_class_loosely(self):
        s = make_splitting(SystemMatrix(A_NEAR_SINGULAR, LOOSE), U_NEAR_SINGULAR)
        rep = classify(s)
        assert rep.is_proper and not rep.is_regular
        assert all(getattr(rep, name) for name in G_CLASSES)
        for name in PLAIN_AND_QUASI:
            assert not getattr(rep, name)
            assert rep.witnesses[name] == Witness(check="U is singular", matrix="U")
        with pytest.raises(TypeError):
            classify(s, LOOSE)

    def test_properness_uses_the_build_profile(self):
        # A is rank 2 only at LOOSE; U = diag(3, 2, 0) is rank 2 at both.
        u = np.diag([3.0, 2.0, 0.0])
        assert classify(make_splitting(SystemMatrix(A_NEAR_SINGULAR, LOOSE), u)).is_proper
        assert not classify(make_splitting(A_NEAR_SINGULAR, u)).is_proper


def _mixed_triple():
    """Three splittings of one A, the last built with LOOSE."""
    _, splits = random_group_monotone_regular_triple(np.random.default_rng(3), 5)
    return splits[:2] + [make_splitting(SystemMatrix(splits[2].a, LOOSE), splits[2].u)]


MIXED_PROFILE_CALLS = (
    [("SchemeConfig", lambda splits: SchemeConfig(splittings=splits)),
     ("alternating_iteration_matrix", alternating_iteration_matrix),
     ("companion_matrix", companion_matrix),
     ("b_sharp_closed_form", b_sharp_closed_form),
     ("induced_regular_splitting", induced_regular_splitting)]
    + [(theorem_id, lambda splits, t=theorem_id: verify_convergence_theorem(t, splits))
       for theorem_id in CONVERGENCE_THEOREMS]
    + [(theorem_id,
        lambda splits, t=theorem_id: verify_semiconvergence_theorem(t, splits, delta=0.5))
       for theorem_id in SEMICONVERGENCE_THEOREMS]
)


@pytest.mark.parametrize("call", [c for _, c in MIXED_PROFILE_CALLS],
                         ids=[name for name, _ in MIXED_PROFILE_CALLS])
def test_splittings_built_with_two_profiles_are_refused(call):
    splits = _mixed_triple()
    with pytest.raises(MismatchedSplittingError):
        call(splits)
    # profiles that differ in a slack other than rank_tol are two profiles too
    other = make_splitting(SystemMatrix(splits[2].a, ToleranceProfile(eq_tol=1e-8)),
                           splits[2].u)
    with pytest.raises(MismatchedSplittingError):
        call(splits[:2] + [other])


class TestOneReportPerSplitting:
    def test_quasi_verifiers_classify_each_splitting_once(self, monkeypatch):
        class_report, computed = splittings._class_report, []

        def counted(s):
            computed.append(s)
            return class_report(s)

        monkeypatch.setattr(splittings, "_class_report", counted)
        _, splits = random_quasi_regular_triple(np.random.default_rng(0), 5)
        for theorem_id in ("quasi-three-step", "quasi-three-comparison", "quasi-two-vs-three"):
            verify_semiconvergence_theorem(theorem_id, splits)
        assert [sum(c is s for c in computed) for s in splits] == [1, 1, 1]

    def test_the_report_is_kept_and_read_only(self):
        s = make_splitting(SystemMatrix(A_NEAR_SINGULAR, LOOSE), U_NEAR_SINGULAR)
        rep = classify(s)
        assert classify(s) is rep
        with pytest.raises(TypeError):
            rep.witnesses["is_proper"] = Witness(check="x", matrix="U")
        with pytest.raises(TypeError):
            del rep.witnesses["is_regular"]
        assert "is_proper" not in rep.witnesses
