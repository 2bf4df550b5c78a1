"""Semiconvergence machinery and executable theorem verifiers.

Verifiers certify hypotheses and conclusions of the convergence and
semiconvergence results on concrete splitting instances.  They are
instance-level checks, not proof checkers: on any instance where every
hypothesis holds, the conclusion must hold, and the test suites treat a
violation as a failure rather than a data point.

Each verifier is one rule of this table over the facts of its triple
[K-L, U-V, X-Y], given as a list or as one ``Alternation``.  Each fact is
computed once per owner (of A, of a splitting, or of the triple, its Bij
included), for every verifier; a call keeps only its measured quantities.
T is a single-step iteration matrix, M = K + X - A + Y U# L, B12 = U#V K#L,
B13 = X#Y K#L and B23 = X#Y U#V the two-step products (Bij), G-II and G-I
a proper G-weak regular splitting of type II and I.  A product induces
A = B - C with B = K M# X, or U_first M# U_last for Bij with its middle
factor U_first + U_last - A (M# is M^-1 when M is nonsingular); it induces
none when M# or B# does not exist.  "<=" allows ``COMPARISON_SLACK`` and
needs the floor, recorded under the key in [], below 1.

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

import numpy as np

from .core import (
    DEFAULT_TOL,
    ToleranceProfile,
    as_square,
    is_nonnegative,
)
from .errors import (
    ClassificationError,
    MissingDeltaError,
    NonsingularHypothesisError,
    UnknownTheoremError,
)
from .splittings import (
    Alternation,
    SemiconvergenceCertificate,
    Splitting,
    _Matrix,
    _alternation,
    classify,
)

__all__ = [
    "TheoremVerdict",
    "CONVERGENCE_THEOREMS",
    "SEMICONVERGENCE_THEOREMS",
    "is_semiconvergent",
    "power_limit_oracle",
    "verify_convergence_theorem",
    "verify_semiconvergence_theorem",
    "induced_regular_splitting",
]

COMPARISON_SLACK = 1e-10


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
    return _Matrix(as_square(t), tol).certificate


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


# ---------------------------------------------------------------------------
# theorem verifiers
# ---------------------------------------------------------------------------

_NAMES = ("K-L", "U-V", "X-Y")


def _named(h: Alternation):
    """(name, splitting) for the triple [K-L, U-V, X-Y]."""
    return zip(_NAMES, h.splits)


def _induced_mismatch(h: Alternation) -> float:
    return float(np.max(np.abs(h.induced.iteration_matrix - h.iteration_matrix), initial=0.0))


def _induced_failure(h: Alternation, regular: bool) -> str | None:
    """Why the induced B fails B^-1 >= 0, C >= 0 (if ``regular``) or
    B^-1 C = H at ``eq_tol * max(1, max|H|)``; None when it passes."""
    if not is_nonnegative(h.induced.u_sharp, h.tol):
        return "induced B^-1 has negative entries"
    if regular and not is_nonnegative(h.induced.v, h.tol):
        return "induced C = B - A has negative entries"
    scale = max(1.0, float(np.max(np.abs(h.iteration_matrix), initial=0.0)))
    if not _induced_mismatch(h) <= h.tol.eq_tol * scale:
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
    """U B# >= I fails, for a B# that exists; it holds on an empty matrix."""
    return b_sharp is not None and not float(
        np.min(u @ b_sharp - np.eye(len(u)), initial=0.0)) >= -tol.eq_tol


def _no_worse(value: float, bound: float) -> bool:
    """Comparison conclusion: ``value <= bound`` up to the slack, with bound < 1."""
    return value <= bound + COMPARISON_SLACK and bound < 1.0


def _no_worse_than(m, kind: str, competitors, floor_key: str) -> bool:
    """``kind`` ("rho" or "gamma") of H no worse than the least recorded in
    ``m`` for the competitors, which is recorded under ``floor_key``."""
    floor = m[floor_key] = min(m[f"{kind}_{name}"] for name in competitors)
    return _no_worse(m[f"{kind}_H"], floor)


# The hypotheses a family shares.  Each returns the failures of the alternation
# h in order and records the family's measured quantities in the call's m.

def _convergence(h, m, middle: bool = True) -> list[str]:
    m.update({f"rho_{name}": t.spectrum[0] for name, t in (("H", h), *_named(h))})
    failures = []
    if h.system.a_sharp is None:
        failures.append("A is not group monotone: A has index greater than 1")
    elif not is_nonnegative(h.system.a_sharp, h.tol):
        failures.append("A is not group monotone: A# has negative entries")
    failures += [f"{name} is not a proper G-weak regular splitting of type II"
                 for name, s in _named(h) if not classify(s).is_g_weak_regular_type2]
    if middle and not h.middle_shares_range_and_null:
        failures.append("K + X - A + Y U# L does not share range/null with A")
    return failures


def _semiconvergence(h, m, family: str) -> list[str]:
    """``family`` is "M-matrix", "quasi" (records only) or "quasi-regular"."""
    m["gamma_H"], m["rho_H"] = h.certificate.gamma, h.certificate.rho
    for name, s in _named(h):
        m[f"gamma_{name}"] = s.certificate.gamma
        # Both index variants appear across the statements; surface both.
        m[f"index_le1_{name}"] = float(s.index_at_most_one)
        m[f"index_le1_I_minus_{name}"] = float(s.certificate.index_of_I_minus_T == 1)
    if family == "M-matrix":
        failures = [] if h.system.is_m_matrix_with_property_c else [
            "A is not an M-matrix with property c"]
        failures += [f"{name} is not a regular splitting"
                     for name, s in _named(h) if not classify(s).is_regular]
        m["middle_nonsingular"] = float(h.middle_nonsingular)
        return failures + ([] if h.middle_nonsingular else ["K + X - A + Y U^-1 L is singular"])
    m.update({f"semiconvergent_{name}": float(s.certificate.verdict) for name, s in _named(h)})
    if family == "quasi":
        return []
    return [f"{name}{text}" for name, s in _named(h) for text, holds in (
        (" is not a quasi-regular splitting", classify(s).is_quasi_regular),
        (" iteration matrix is not semiconvergent", s.certificate.verdict)) if not holds]


def _index(h) -> list[str]:
    failures = [f"index(I - {name} iteration matrix) > 1"
                for name, s in _named(h) if s.certificate.index_of_I_minus_T > 1]
    return failures + (["index(I - H) > 1"] if h.certificate.index_of_I_minus_T > 1 else [])


# The rules.  Each returns its theorem's hypothesis failures and conclusion.

def _single_vs_three(h, m):
    failures = _convergence(h, m) + _induced_failures(h.induced, "A = B - C", "type II")
    b_sharp = None if h.induced is None else h.induced.u_sharp
    failures += [f"{name[0]} B# >= I fails" for name, s in _named(h)
                 if _b_sharp_fails(b_sharp, s.u, h.tol)]
    return failures, _no_worse_than(m, "rho", _NAMES, "min_single_rho")


def _two_vs_three(h, m):
    failures = _convergence(h, m) + _induced_failures(h.induced, "A = B - C", "type II")
    b_sharp = None if h.induced is None else h.induced.u_sharp
    for name, pair in h.pairs.items():
        m[f"rho_{name}"] = pair.spectrum[0]
        failures += _induced_failures(pair.induced, name, "type II")
        if pair.induced is not None and _b_sharp_fails(b_sharp, pair.induced.u, h.tol):
            failures.append(f"{name} B# >= I fails")
    return failures, _no_worse_than(m, "rho", h.pairs, "min_pairwise_rho")


def _regular_three_step(h, m, delta):
    failures = _semiconvergence(h, m, "M-matrix")
    # the minimum over an empty diagonal is inf, so diag(H) > 0 holds vacuously
    m["min_diag_H"] = float(np.min(np.diag(h.iteration_matrix), initial=np.inf))
    if m["min_diag_H"] <= 0.0:
        failures.append("diag(H) is not strictly positive")
    return failures, h.certificate.verdict


def _delta_shift(h, m, delta):
    failures = _semiconvergence(h, m, "M-matrix")
    cert = is_semiconvergent(delta * h.iteration_matrix + (1.0 - delta) * np.eye(h.system.n),
                             h.tol)
    m["gamma_H_delta"] = cert.gamma
    return failures, cert.verdict


def _induced_regular(h, m, delta):
    # Strict regularity (C >= 0) can fail for B = K M^-1 X even under the
    # stated hypotheses (the walk benchmark is a witness), so the checkable
    # conclusion is the weak form; min(C) is surfaced for inspection.  B
    # exists only where the hypotheses hold.
    failures = _semiconvergence(h, m, "M-matrix")
    if failures:
        return failures, False
    m["induced_matrix_mismatch"] = _induced_mismatch(h)
    # inf over an empty matrix; min(initial=inf) would pick another signed zero
    m["min_B_inverse_entry"], m["min_C_entry"] = (float(x.min()) if x.size else np.inf for x in (
        h.induced.u_sharp, h.induced.v))
    return failures, _induced_failure(h, regular=False) is None and is_nonnegative(
        h.iteration_matrix, h.tol)


def _quasi_three_step(h, m, delta):
    failures = _semiconvergence(h, m, "quasi")
    shared = [c for c in ("is_quasi_weak_regular_type1", "is_quasi_weak_regular_type2",
                          "is_quasi_regular") if all(getattr(classify(s), c) for s in h.splits)]
    if not shared:
        failures.append("splittings do not share a quasi class")
    failures += [f"{name} iteration matrix is not semiconvergent"
                 for name, s in _named(h) if not s.certificate.verdict]
    failures += [f"index({name} iteration matrix) > 1"
                 for name, s in _named(h) if not s.index_at_most_one]
    if h.pairs["B12"].k1 is None:
        failures.append("index(I - U^-1 V K^-1 L) > 1")
    if not h.index_at_most_one:
        failures.append("index(H) > 1")
    conclusion = h.certificate.verdict
    if conclusion and shared:
        # A singular M induces a singular B, which is in no quasi class, so
        # the induced-splitting clause is unverifiable; the semiconvergence
        # conclusion stands on its own.
        if not h.middle_nonsingular:
            m["induced_same_quasi_class"] = float("nan")
        else:
            report = classify(h.induced)
            conclusion = any(getattr(report, c) for c in shared)
            m["induced_same_quasi_class"] = float(conclusion)
    return failures, conclusion


def _quasi_comparison(h, m, delta):
    failures = _semiconvergence(h, m, "quasi")
    kl = h.splits[0]
    if not (classify(kl).is_quasi_regular and kl.certificate.verdict):
        failures.append("K-L is not a semiconvergent quasi-regular splitting")
    failures += [f"{name} is not quasi weak regular of type I"
                 for name, s in zip(_NAMES[1:], h.splits[1:])
                 if not classify(s).is_quasi_weak_regular_type1]
    return failures + _index(h), _no_worse_than(m, "gamma", ["X-Y"], "gamma_X-Y")


def _quasi_two_vs_three(h, m, delta):
    failures = _semiconvergence(h, m, "quasi-regular")
    for name, pair in h.pairs.items():
        m[f"gamma_{name}"] = pair.certificate.gamma
        if pair.certificate.index_of_I_minus_T > 1:
            failures.append(f"index(I - {name} product) > 1")
        failures += _induced_failures(pair.induced, name, "quasi-regular")
    return failures + _index(h), _no_worse_than(m, "gamma", h.pairs, "min_pairwise_gamma")


# The theorem table of the module docstring, one rule a theorem.
_CONVERGENCE_RULES = {
    "typeII-convergence": lambda h, m: (_convergence(h, m, middle=False), h.spectrum[0] < 1.0),
    "single-vs-three": _single_vs_three,
    "both-types-comparison": lambda h, m: (
        _convergence(h, m) + [f"{name} is not a proper G-weak regular splitting of type I"
                              for name, s in _named(h) if not classify(s).is_g_weak_regular_type1],
        _no_worse_than(m, "rho", _NAMES, "min_single_rho")),
    "two-vs-three": _two_vs_three,
}
_SEMICONVERGENCE_RULES = {
    "regular-three-step": _regular_three_step,
    "delta-shift": _delta_shift,
    "induced-regular": _induced_regular,
    "quasi-three-step": _quasi_three_step,
    "quasi-comparison": _quasi_comparison,
    "quasi-three-comparison": lambda h, m, delta: (
        _semiconvergence(h, m, "quasi-regular") + _index(h),
        _no_worse_than(m, "gamma", _NAMES, "min_single_gamma")),
    "quasi-two-vs-three": _quasi_two_vs_three,
}
CONVERGENCE_THEOREMS = tuple(_CONVERGENCE_RULES)
SEMICONVERGENCE_THEOREMS = tuple(_SEMICONVERGENCE_RULES)


def verify_convergence_theorem(theorem_id: str, splits) -> TheoremVerdict:
    """Certify one of the index-1 convergence/comparison results.

    ``theorem_id`` is one of ``CONVERGENCE_THEOREMS``; ``splits`` is three
    splittings of one matrix A, as a list or an alternation.
    """
    if theorem_id not in CONVERGENCE_THEOREMS:
        raise UnknownTheoremError(f"unknown convergence theorem {theorem_id!r}")
    h, m = _alternation(splits, theorem_id), {}
    failures, conclusion = _CONVERGENCE_RULES[theorem_id](h, m)
    return TheoremVerdict(theorem_id, not failures, failures, conclusion, m)


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
    h, m = _alternation(splits, theorem_id), {}
    failures = [f"{name} has a singular split part"
                for name, s in _named(h) if not s.u_nonsingular]
    conclusion = False
    if not failures:
        failures, conclusion = _SEMICONVERGENCE_RULES[theorem_id](h, m, delta)
    return TheoremVerdict(theorem_id, not failures, failures, conclusion, m)


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
    h = _alternation(splits, "induced_regular_splitting")
    for name, s in _named(h):
        if not classify(s).is_regular:
            raise ClassificationError(f"{name} is not a regular splitting")
    if not h.middle_nonsingular:
        raise NonsingularHypothesisError("K + X - A + Y U^-1 L is singular")
    why = _induced_failure(h, regular=True)
    if why is not None:
        raise NonsingularHypothesisError(why)
    return h.induced
