"""Semiconvergence machinery and executable theorem verifiers.

Verifiers certify hypotheses and conclusions of the convergence and
semiconvergence results on concrete splitting instances.  They are
instance-level checks, not proof checkers: on any instance where every
hypothesis holds, the conclusion must hold, and the test suites treat a
violation as a failure rather than a data point.

Each verifier is one rule of this table over the facts of its triple
[K-L, U-V, X-Y].  A's owner computes A# and A's projectors, and a splitting
the facts of its T (spectrum, K1, index) and its class report, once for
every verifier; H's are computed once per call.  T is a single-step
iteration matrix, M = K + X - A + Y U# L, B12 = U#V K#L, B13 = X#Y K#L and
B23 = X#Y U#V the two-step products (Bij), G-II and G-I a proper G-weak
regular splitting of type II and I.  A product induces A = B - C with
B = K M# X, or U_first M# U_last for Bij with its middle factor
U_first + U_last - A (M# is M^-1 when M is nonsingular); it induces none
when M# or B# does not exist.  "<=" allows ``COMPARISON_SLACK`` and needs
the floor, recorded under the key in [], below 1.

======================  ===============================================  ==========================
theorem                 hypotheses checked                               conclusion [floor key]
======================  ===============================================  ==========================
typeII-convergence      A# >= 0; each splitting G-II                     rho(H) < 1
single-vs-three         A# >= 0; each G-II; M has A's range and null     rho(H) <= min rho(T)
                        space; H induces a G-II B - C; K, U, X B# >= I   [min_single_rho]
both-types-comparison   A# >= 0; each G-II and G-I; M as above           rho(H) <= min rho(T)
                                                                         [min_single_rho]
two-vs-three            as single-vs-three, but each Bij induces a G-II  rho(H) <= min rho(Bij)
                        B' - C' with B' B# >= I                          [min_pairwise_rho]
regular-three-step      A an M-matrix with property c; each splitting    H semiconvergent
                        regular; M nonsingular; diag(H) > 0
delta-shift             as regular-three-step, without diag(H) > 0       delta H + (1 - delta) I
                                                                         semiconvergent
induced-regular         as delta-shift                                   B = K M^-1 X has B^-1 >= 0
                                                                         and B^-1 C = H; H >= 0
quasi-three-step        a quasi class all share; each T semiconvergent   H semiconvergent, and the
                        with index(T) <= 1; index(I - B12) <= 1;         induced splitting in a
                        index(H) <= 1                                    shared quasi class
quasi-comparison        K-L quasi-regular, T semiconvergent; U-V, X-Y    gamma(H) <= gamma(X-Y)
                        quasi weak regular of type I; index(I - T) <= 1  [gamma_X-Y]
                        for each T and for H
quasi-three-comparison  each quasi-regular with T semiconvergent;        gamma(H) <= min gamma(T)
                        index(I - T) <= 1 for each T and for H           [min_single_gamma]
quasi-two-vs-three      as quasi-three-comparison, and each Bij has      gamma(H) <= min gamma(Bij)
                        index(I - Bij) <= 1 and a quasi-regular B' - C'  [min_pairwise_gamma]
======================  ===============================================  ==========================
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    ToleranceProfile,
    _nonsingular,
    _spectrum,
    as_square,
    index_at_most_one,
    is_nonnegative,
    spectral_radius,
)
from .errors import (
    ClassificationError,
    MissingDeltaError,
    NonsingularHypothesisError,
    UnknownTheoremError,
)
from .splittings import (
    Splitting,
    _check_shared_a,
    _induced_from_product,
    _k1,
    _middle_factor,
    alternating_iteration_matrix,
    classify,
)

__all__ = [
    "SemiconvergenceCertificate",
    "TheoremVerdict",
    "CONVERGENCE_THEOREMS",
    "SEMICONVERGENCE_THEOREMS",
    "is_semiconvergent",
    "power_limit_oracle",
    "is_m_matrix_with_property_c",
    "verify_convergence_theorem",
    "verify_semiconvergence_theorem",
    "induced_regular_splitting",
]

COMPARISON_SLACK = 1e-10


@dataclass(frozen=True)
class SemiconvergenceCertificate:
    """Spectral facts deciding whether lim T^k exists.

    ``verdict`` is true iff rho(T) <= 1 (up to the eigenvalue-1 slack),
    gamma(T) < 1 and index(I - T) <= 1; the limit matrix
    I - (I-T)(I-T)# is attached only then.
    """

    rho: float
    gamma: float
    has_eigenvalue_one: bool
    index_of_I_minus_T: int
    verdict: bool
    limit_matrix: np.ndarray | None = None


@dataclass(frozen=True)
class TheoremVerdict:
    """Instance-level certification of one theorem's hypotheses/conclusion."""

    theorem_id: str
    hypotheses_hold: bool
    hypothesis_failures: list[str]
    conclusion_holds: bool
    measured_quantities: dict[str, float] = field(default_factory=dict)


def is_semiconvergent(
    t, tol: ToleranceProfile = DEFAULT_TOL
) -> SemiconvergenceCertificate:
    """Certify semiconvergence of T from its dense spectrum.

    When no eigenvalue sits within ``one_tol`` of 1 the test reduces to
    plain zero-convergence rho(T) < 1.  The gamma < 1 test carries a
    ``one_tol`` margin so boundary eigenvalues other than 1 (whose moduli
    round off to just below 1) do not slip through.
    """
    t = as_square(t)
    return _certificate(t, _spectrum(t, tol.one_tol), lambda: _k1(t, tol.rank_tol), tol)


def _certificate(t, spectrum, k1, tol: ToleranceProfile) -> SemiconvergenceCertificate:
    """The certificate of T from its ``spectrum`` and ``k1()``, which gives
    K1 = (I - T)(I - T)# or None and is called only when T is not
    numerically I."""
    rho, g, has_one = spectrum
    n = t.shape[0]
    # When T is numerically the identity, I - T is pure round-off and its
    # relative rank is meaningless; anchor at T's unit scale instead.
    if n and float(np.max(np.abs(np.eye(n) - t))) <= tol.rank_tol:
        return SemiconvergenceCertificate(rho, 0.0, True, 1, True, np.eye(n))
    k = k1()
    verdict = (rho <= 1.0 + tol.one_tol) and (g < 1.0 - tol.one_tol) and k is not None
    return SemiconvergenceCertificate(rho, g, has_one, 1 if k is not None else 2, verdict,
                                      np.eye(n) - k if verdict else None)


def power_limit_oracle(
    t, k_max: int = 5_000, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray | None:
    """Limit of T^k from its powers alone, or None.

    Independent, eigen-free oracle for :func:`is_semiconvergent` on small
    matrices.  T^m is reached by repeated squaring and checked at
    m = 1, 2, 4, ... up to the last doubling not above ``k_max``, then once
    at m = ``k_max`` itself (the last doubled power times T^(k_max - m)).
    At each checkpoint it returns T^(m+1) when the consecutive powers
    satisfy max|T^(m+1) - T^m| < ``eq_tol``.  Comparing T^(2m) with T^m
    instead would be wrong: a quarter-turn rotation has T^4 = I, so
    T^8 - T^4 = 0 although its powers cycle and have no limit.

    ``k_max`` is the largest power tried, as in a one-power-at-a-time
    loop: a T whose powers settle only after T^k_max gives None.  None
    also means blow-up (an entry of T^m above 1e12 at a checkpoint) or
    powers that oscillate.
    """
    t = as_square(t)
    p, m = t.copy(), 1
    while m <= k_max:
        if float(np.max(np.abs(p))) > 1e12:
            return None
        q = p @ t
        if float(np.max(np.abs(q - p))) < tol.eq_tol:
            return q
        if m == k_max:
            break
        jump = p if 2 * m <= k_max else np.linalg.matrix_power(t, k_max - m)
        p, m = p @ jump, min(2 * m, k_max)
    return None


def is_m_matrix_with_property_c(a, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff A = sI - B with B >= 0, s >= rho(B) and s^-1 B semiconvergent.

    Off-diagonal entries must be nonpositive.  Property c is existential in
    s, and the minimal choice s = max(diag) can place spurious boundary
    eigenvalues (e.g. -1) on the unit circle of s^-1 B, so s is enlarged
    until s^-1 B has a strictly positive diagonal; the M-matrix verdict
    itself is unchanged by any valid choice of s.
    """
    a = as_square(a)
    n = a.shape[0]
    off = a - np.diag(np.diag(a))
    if off.size and float(off.max()) > tol.nonneg_tol:
        return False
    s0 = max(0.0, float(np.max(np.diag(a))) if n else 0.0)
    s = s0 + max(1.0, s0)
    # s^-1 B semiconvergent already requires rho(s^-1 B) <= 1, i.e. s >= rho(B).
    return is_semiconvergent((s * np.eye(n) - a) / s, tol).verdict


# ---------------------------------------------------------------------------
# theorem verifiers
# ---------------------------------------------------------------------------

_NAMES = ("K-L", "U-V", "X-Y")
_PAIRS = {"B12": (0, 1), "B13": (0, 2), "B23": (1, 2)}


class _Triple:
    """The facts of H the rules share, each computed on first use and at
    most once, under the profile of the splittings' owner of A; ``measured``
    collects the measured quantities in recorded order."""

    def __init__(self, caller: str, splits, delta: float | None = None):
        self.splits, self.delta = tuple(splits), delta
        if len(self.splits) != 3:
            raise ValueError(f"{caller} expects exactly three splittings")
        self.system = _check_shared_a(self.splits)
        self.measured: dict[str, float] = {}

    @cached_property
    def h(self) -> np.ndarray:
        return alternating_iteration_matrix(self.splits)

    @cached_property
    def rho(self) -> dict[str, float]:
        return {"H": spectral_radius(self.h)} | {
            name: s.spectrum[0] for name, s in zip(_NAMES, self.splits)}

    @cached_property
    def certs(self) -> dict[str, SemiconvergenceCertificate]:
        return {"H": is_semiconvergent(self.h, self.system.tol)} | {
            name: _certificate(s.iteration_matrix, s.spectrum, lambda: s.k1, self.system.tol)
            for name, s in zip(_NAMES, self.splits)}

    @cached_property
    def reports(self) -> dict:
        return {name: classify(s) for name, s in zip(_NAMES, self.splits)}

    @cached_property
    def middle(self) -> np.ndarray:
        return _middle_factor(self.splits)

    @cached_property
    def middle_nonsingular(self) -> bool:
        return _nonsingular(self.middle, self.system.tol.rank_tol)

    @cached_property
    def induced(self) -> Splitting | None:
        """A = B - C with B = K M# X (K M^-1 X when M is nonsingular), which
        reproduces H; None when M# or B# does not exist."""
        return _induced_from_product(self.splits, self.middle, self.middle_nonsingular)

    @cached_property
    def pairs(self) -> dict[str, tuple[np.ndarray, Splitting | None]]:
        """Each two-step product Bij and the splitting it induces, or None."""
        pairs = {name: (self.splits[i], self.splits[j]) for name, (i, j) in _PAIRS.items()}
        return {name: (alternating_iteration_matrix(pair), _induced_from_product(pair))
                for name, pair in pairs.items()}

    @cached_property
    def induced_mismatch(self) -> float:
        return float(np.max(np.abs(self.induced.iteration_matrix - self.h)))

    def induced_failure(self, regular: bool) -> str | None:
        """Why the induced B fails B^-1 >= 0, C >= 0 (if ``regular``) or
        B^-1 C = H at ``eq_tol * max(1, max|H|)``; None when it passes."""
        tol = self.system.tol
        if not is_nonnegative(self.induced.solver.inverse_like(), tol):
            return "induced B^-1 has negative entries"
        if regular and not is_nonnegative(self.induced.v, tol):
            return "induced C = B - A has negative entries"
        if not self.induced_mismatch <= tol.eq_tol * max(1.0, float(np.max(np.abs(self.h)))):
            return "induced splitting does not reproduce H"
        return None


def _induced_failures(ind: Splitting | None, label: str, kind: str) -> list[str]:
    """Why the induced splitting ``label`` is missing or not of ``kind``:
    "type II" (proper G-weak regular of type II) or "quasi-regular"."""
    if ind is None:
        return [f"no induced splitting {label}"]
    verdict = {"type II": "is_g_weak_regular_type2", "quasi-regular": "is_quasi_regular"}[kind]
    return [] if getattr(classify(ind), verdict) else [f"induced splitting {label} is not {kind}"]


def _b_sharp_fails(b_sharp, u, tol) -> bool:
    """U B# >= I fails, for a B# that exists."""
    return b_sharp is not None and not float(np.min(u @ b_sharp - np.eye(len(u)))) >= -tol.eq_tol


def _no_worse(value: float, bound: float) -> bool:
    """Comparison conclusion: ``value <= bound`` up to the slack, with bound < 1."""
    return value <= bound + COMPARISON_SLACK and bound < 1.0


def _no_worse_than(t, kind: str, competitors, floor_key: str) -> bool:
    """``kind`` ("rho" or "gamma") of H no worse than the least recorded for
    the competitors, which is recorded under ``floor_key``."""
    floor = t.measured[floor_key] = min(t.measured[f"{kind}_{name}"] for name in competitors)
    return _no_worse(t.measured[f"{kind}_H"], floor)


# The hypotheses a family shares.  Each returns the failures in order and
# records the family's measured quantities.

def _convergence(t, middle: bool = True) -> list[str]:
    t.measured.update({f"rho_{name}": rho for name, rho in t.rho.items()})
    failures = []
    if t.system.a_sharp is None:
        failures.append("A is not group monotone: A has index greater than 1")
    elif not is_nonnegative(t.system.a_sharp, t.system.tol):
        failures.append("A is not group monotone: A# has negative entries")
    failures += [f"{name} is not a proper G-weak regular splitting of type II"
                 for name, r in t.reports.items() if not r.is_g_weak_regular_type2]
    if middle and not t.system.shares_range_and_null(t.middle):
        failures.append("K + X - A + Y U# L does not share range/null with A")
    return failures


def _semiconvergence(t, family: str) -> list[str]:
    """``family`` is "M-matrix", "quasi" (records only) or "quasi-regular"."""
    m = t.measured
    m["gamma_H"], m["rho_H"] = t.certs["H"].gamma, t.certs["H"].rho
    for name, s in zip(_NAMES, t.splits):
        m[f"gamma_{name}"] = t.certs[name].gamma
        # Both index variants appear across the statements; surface both.
        m[f"index_le1_{name}"] = float(s.index_at_most_one)
        m[f"index_le1_I_minus_{name}"] = float(t.certs[name].index_of_I_minus_T == 1)
    if family == "M-matrix":
        failures = [] if is_m_matrix_with_property_c(t.system.a, t.system.tol) else [
            "A is not an M-matrix with property c"]
        failures += [f"{name} is not a regular splitting"
                     for name, r in t.reports.items() if not r.is_regular]
        m["middle_nonsingular"] = float(t.middle_nonsingular)
        return failures + ([] if t.middle_nonsingular else ["K + X - A + Y U^-1 L is singular"])
    m.update({f"semiconvergent_{name}": float(t.certs[name].verdict) for name in _NAMES})
    if family == "quasi":
        return []
    return [f"{name}{text}" for name in _NAMES for text, holds in (
        (" is not a quasi-regular splitting", t.reports[name].is_quasi_regular),
        (" iteration matrix is not semiconvergent", t.certs[name].verdict)) if not holds]


def _index(t) -> list[str]:
    failures = [f"index(I - {name} iteration matrix) > 1"
                for name in _NAMES if t.certs[name].index_of_I_minus_T > 1]
    return failures + (["index(I - H) > 1"] if t.certs["H"].index_of_I_minus_T > 1 else [])


# The rules.  Each returns its theorem's hypothesis failures and conclusion.

def _single_vs_three(t):
    failures = _convergence(t) + _induced_failures(t.induced, "A = B - C", "type II")
    b_sharp = None if t.induced is None else t.induced.solver.inverse_like()
    failures += [f"{name[0]} B# >= I fails" for name, s in zip(_NAMES, t.splits)
                 if _b_sharp_fails(b_sharp, s.u, t.system.tol)]
    return failures, _no_worse_than(t, "rho", _NAMES, "min_single_rho")


def _two_vs_three(t):
    failures = _convergence(t) + _induced_failures(t.induced, "A = B - C", "type II")
    b_sharp = None if t.induced is None else t.induced.solver.inverse_like()
    for name, (hp, ind) in t.pairs.items():
        t.measured[f"rho_{name}"] = spectral_radius(hp)
        failures += _induced_failures(ind, name, "type II")
        if ind is not None and _b_sharp_fails(b_sharp, ind.u, t.system.tol):
            failures.append(f"{name} B# >= I fails")
    return failures, _no_worse_than(t, "rho", _PAIRS, "min_pairwise_rho")


def _regular_three_step(t):
    failures = _semiconvergence(t, "M-matrix")
    t.measured["min_diag_H"] = float(np.min(np.diag(t.h)))
    if t.measured["min_diag_H"] <= 0.0:
        failures.append("diag(H) is not strictly positive")
    return failures, t.certs["H"].verdict


def _delta_shift(t):
    failures = _semiconvergence(t, "M-matrix")
    cert = is_semiconvergent(t.delta * t.h + (1.0 - t.delta) * np.eye(t.system.n), t.system.tol)
    t.measured["gamma_H_delta"] = cert.gamma
    return failures, cert.verdict


def _induced_regular(t):
    # Strict regularity (C >= 0) can fail for B = K M^-1 X even under the
    # stated hypotheses (the walk benchmark is a witness), so the checkable
    # conclusion is the weak form; min(C) is surfaced for inspection.  B
    # exists only where the hypotheses hold.
    failures = _semiconvergence(t, "M-matrix")
    if failures:
        return failures, False
    t.measured["induced_matrix_mismatch"] = t.induced_mismatch
    t.measured["min_B_inverse_entry"] = float(np.min(t.induced.solver.inverse_like()))
    t.measured["min_C_entry"] = float(np.min(t.induced.v))
    return failures, t.induced_failure(regular=False) is None and is_nonnegative(t.h, t.system.tol)


def _quasi_three_step(t):
    failures = _semiconvergence(t, "quasi")
    shared = [c for c in ("is_quasi_weak_regular_type1", "is_quasi_weak_regular_type2",
                          "is_quasi_regular") if all(getattr(r, c) for r in t.reports.values())]
    if not shared:
        failures.append("splittings do not share a quasi class")
    failures += [f"{name} iteration matrix is not semiconvergent"
                 for name in _NAMES if not t.certs[name].verdict]
    failures += [f"index({name} iteration matrix) > 1"
                 for name in _NAMES if not t.measured[f"index_le1_{name}"]]
    b12 = alternating_iteration_matrix(t.splits[:2])
    if not index_at_most_one(np.eye(t.system.n) - b12, t.system.tol):
        failures.append("index(I - U^-1 V K^-1 L) > 1")
    if not index_at_most_one(t.h, t.system.tol):
        failures.append("index(H) > 1")
    conclusion = t.certs["H"].verdict
    if conclusion and shared:
        # A singular M induces a singular B, which is in no quasi class, so
        # the induced-splitting clause is unverifiable; the semiconvergence
        # conclusion stands on its own.
        if not t.middle_nonsingular:
            t.measured["induced_same_quasi_class"] = float("nan")
        else:
            report = classify(t.induced)
            conclusion = any(getattr(report, c) for c in shared)
            t.measured["induced_same_quasi_class"] = float(conclusion)
    return failures, conclusion


def _quasi_comparison(t):
    failures = _semiconvergence(t, "quasi")
    if not (t.reports["K-L"].is_quasi_regular and t.certs["K-L"].verdict):
        failures.append("K-L is not a semiconvergent quasi-regular splitting")
    failures += [f"{name} is not quasi weak regular of type I" for name in _NAMES[1:]
                 if not t.reports[name].is_quasi_weak_regular_type1]
    return failures + _index(t), _no_worse_than(t, "gamma", ["X-Y"], "gamma_X-Y")


def _quasi_two_vs_three(t):
    failures = _semiconvergence(t, "quasi-regular")
    for name, (hp, ind) in t.pairs.items():
        cert = is_semiconvergent(hp, t.system.tol)
        t.measured[f"gamma_{name}"] = cert.gamma
        if cert.index_of_I_minus_T > 1:
            failures.append(f"index(I - {name} product) > 1")
        failures += _induced_failures(ind, name, "quasi-regular")
    return failures + _index(t), _no_worse_than(t, "gamma", _PAIRS, "min_pairwise_gamma")


# The theorem table of the module docstring, one rule a theorem.
_CONVERGENCE_RULES = {
    "typeII-convergence": lambda t: (_convergence(t, middle=False), t.rho["H"] < 1.0),
    "single-vs-three": _single_vs_three,
    "both-types-comparison": lambda t: (
        _convergence(t) + [f"{name} is not a proper G-weak regular splitting of type I"
                           for name, r in t.reports.items() if not r.is_g_weak_regular_type1],
        _no_worse_than(t, "rho", _NAMES, "min_single_rho")),
    "two-vs-three": _two_vs_three,
}
_SEMICONVERGENCE_RULES = {
    "regular-three-step": _regular_three_step,
    "delta-shift": _delta_shift,
    "induced-regular": _induced_regular,
    "quasi-three-step": _quasi_three_step,
    "quasi-comparison": _quasi_comparison,
    "quasi-three-comparison": lambda t: (
        _semiconvergence(t, "quasi-regular") + _index(t),
        _no_worse_than(t, "gamma", _NAMES, "min_single_gamma")),
    "quasi-two-vs-three": _quasi_two_vs_three,
}
CONVERGENCE_THEOREMS = tuple(_CONVERGENCE_RULES)
SEMICONVERGENCE_THEOREMS = tuple(_SEMICONVERGENCE_RULES)


def verify_convergence_theorem(theorem_id: str, splits) -> TheoremVerdict:
    """Certify one of the index-1 convergence/comparison results.

    ``theorem_id`` is one of ``CONVERGENCE_THEOREMS`` (all expect three
    splittings of one matrix A).
    """
    if theorem_id not in CONVERGENCE_THEOREMS:
        raise UnknownTheoremError(f"unknown convergence theorem {theorem_id!r}")
    t = _Triple(theorem_id, splits)
    failures, conclusion = _CONVERGENCE_RULES[theorem_id](t)
    return TheoremVerdict(theorem_id, not failures, failures, conclusion, t.measured)


def verify_semiconvergence_theorem(
    theorem_id: str, splits, delta: float | None = None
) -> TheoremVerdict:
    """Certify one of the semiconvergence results for singular systems.

    ``theorem_id`` is one of ``SEMICONVERGENCE_THEOREMS``.  All expect three
    splittings with nonsingular split parts; ``delta-shift`` also needs
    ``delta`` in (0, 1), checked before the splittings are read.
    """
    if theorem_id not in SEMICONVERGENCE_THEOREMS:
        raise UnknownTheoremError(f"unknown semiconvergence theorem {theorem_id!r}")
    if theorem_id == "delta-shift":
        if delta is None:
            raise MissingDeltaError("delta-shift theorem needs delta")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
    t = _Triple(theorem_id, splits, delta)
    failures = [f"{name} has a singular split part"
                for name, s in zip(_NAMES, t.splits) if not s.solver.is_nonsingular]
    conclusion = False
    if not failures:
        failures, conclusion = _SEMICONVERGENCE_RULES[theorem_id](t)
    return TheoremVerdict(theorem_id, not failures, failures, conclusion, t.measured)


def induced_regular_splitting(splits) -> Splitting:
    """Regular splitting A = B - C with B^-1 C equal to the three-step matrix.

    B = K M^-1 X with M = K + X - A + Y U^-1 L, which equals A (I - H)^-1
    whenever that exists and stays defined for singular A, where 1 is an
    eigenvalue of H.

    Raises
    ------
    ClassificationError
        If any input splitting fails to classify as regular.
    NonsingularHypothesisError
        If K + X - A + Y U^-1 L is singular, or the induced B^-1 or C has a
        negative entry, or B^-1 C does not reproduce H.
    """
    t = _Triple("induced_regular_splitting", splits)
    for name, report in t.reports.items():
        if not report.is_regular:
            raise ClassificationError(f"{name} is not a regular splitting")
    if not t.middle_nonsingular:
        raise NonsingularHypothesisError("K + X - A + Y U^-1 L is singular")
    why = t.induced_failure(regular=True)
    if why is not None:
        raise NonsingularHypothesisError(why)
    return t.induced
