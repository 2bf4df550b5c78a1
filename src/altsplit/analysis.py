"""Semiconvergence machinery and executable theorem verifiers.

Verifiers certify hypotheses and conclusions of the convergence and
semiconvergence results on concrete splitting instances.  They are
instance-level checks, not proof checkers: on any instance where every
hypothesis holds, the conclusion must hold, and the test suites treat a
violation as a failure rather than a data point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    ToleranceProfile,
    _group_inverse_or_none,
    _nonsingular,
    _same_range_and_null,
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
    SingularIminusHError,
    UnknownTheoremError,
)
from .splittings import (
    Splitting,
    _check_shared_a,
    _induced_from_product,
    _middle_factor,
    alternating_iteration_matrix,
    classify,
    induced_splitting,
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

# Comparison conclusions are asserted with this much numerical slack.
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
    n = t.shape[0]
    rho, g, has_one = _spectrum(t, tol.one_tol)
    imt = np.eye(n) - t
    # When T is numerically the identity, I - T is pure round-off and its
    # relative rank is meaningless; anchor at T's unit scale instead.
    if n and float(np.max(np.abs(imt))) <= tol.rank_tol:
        return SemiconvergenceCertificate(
            rho=rho,
            gamma=0.0,
            has_eigenvalue_one=True,
            index_of_I_minus_T=1,
            verdict=True,
            limit_matrix=np.eye(n),
        )
    imt_sharp = _group_inverse_or_none(imt, tol.rank_tol)
    idx_ok = imt_sharp is not None
    verdict = (rho <= 1.0 + tol.one_tol) and (g < 1.0 - tol.one_tol) and idx_ok
    return SemiconvergenceCertificate(
        rho=rho,
        gamma=g,
        has_eigenvalue_one=has_one,
        index_of_I_minus_T=1 if idx_ok else 2,
        verdict=verdict,
        limit_matrix=np.eye(n) - imt @ imt_sharp if verdict else None,
    )


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

CONVERGENCE_THEOREMS = (
    "typeII-convergence",
    "single-vs-three",
    "both-types-comparison",
    "two-vs-three",
)

SEMICONVERGENCE_THEOREMS = (
    "regular-three-step",
    "delta-shift",
    "induced-regular",
    "quasi-three-step",
    "quasi-comparison",
    "quasi-three-comparison",
    "quasi-two-vs-three",
)


def _verdict(theorem_id, failures, conclusion, measured) -> TheoremVerdict:
    """The verdict of one instance: the hypotheses hold iff nothing failed."""
    return TheoremVerdict(theorem_id, not failures, failures, conclusion, measured)


def _no_worse(value: float, bound: float) -> bool:
    """Comparison conclusion: ``value <= bound`` up to the slack, with bound < 1."""
    return value <= bound + COMPARISON_SLACK and bound < 1.0


def _ge_identity(m: np.ndarray, slack: float) -> bool:
    return float(np.min(m - np.eye(m.shape[0]))) >= -slack


def _group_monotone(a, tol):
    """(holds, reason) for A# exists with A# >= 0."""
    a_sharp = _group_inverse_or_none(a, tol.rank_tol)
    if a_sharp is None:
        return False, "A has index greater than 1"
    if not is_nonnegative(a_sharp, tol):
        return False, "A# has negative entries"
    return True, ""


# The two-step products of a triple: B12 = U#V K#L, B13 = X#Y K#L, B23 = X#Y U#V.
_PAIRS = ((0, 1, "B12"), (0, 2, "B13"), (1, 2, "B23"))


def verify_convergence_theorem(
    theorem_id: str, splits, tol: ToleranceProfile = DEFAULT_TOL
) -> TheoremVerdict:
    """Certify one of the index-1 convergence/comparison results.

    ``theorem_id`` is one of ``typeII-convergence``, ``single-vs-three``,
    ``both-types-comparison``, ``two-vs-three`` (all expect three splittings
    of one matrix A).
    """
    if theorem_id not in CONVERGENCE_THEOREMS:
        raise UnknownTheoremError(f"unknown convergence theorem {theorem_id!r}")
    splits = tuple(splits)
    if len(splits) != 3:
        raise ValueError(f"{theorem_id} expects exactly three splittings")
    a = _check_shared_a(splits)

    failures: list[str] = []
    measured: dict[str, float] = {}

    gm, why = _group_monotone(a, tol)
    if not gm:
        failures.append(f"A is not group monotone: {why}")

    reports = [classify(s, tol) for s in splits]
    names = ("K-L", "U-V", "X-Y")
    for name, rep in zip(names, reports):
        if not rep.is_g_weak_regular_type2:
            failures.append(f"{name} is not a proper G-weak regular splitting of type II")

    h = alternating_iteration_matrix(splits)
    rho_h = spectral_radius(h)
    measured["rho_H"] = rho_h
    single_radii = {name: spectral_radius(s.iteration_matrix) for name, s in zip(names, splits)}
    measured.update({f"rho_{name}": r for name, r in single_radii.items()})

    if theorem_id == "typeII-convergence":
        return _verdict(theorem_id, failures, rho_h < 1.0, measured)

    if not _same_range_and_null(_middle_factor(splits), a, tol):
        failures.append("K + X - A + Y U# L does not share range/null with A")

    if theorem_id == "both-types-comparison":
        for name, rep in zip(names, reports):
            if not rep.is_g_weak_regular_type1:
                failures.append(
                    f"{name} is not a proper G-weak regular splitting of type I"
                )
        floor = min(single_radii.values())
        measured["min_single_rho"] = floor
        return _verdict(theorem_id, failures, _no_worse(rho_h, floor), measured)

    # The remaining two theorems compare against the splitting induced by H;
    # without it only the hypotheses that need B# go unchecked.
    b_sharp = None
    if rho_h >= 1.0:
        failures.append("rho(H) >= 1, no induced splitting")
    else:
        try:
            induced = induced_splitting(a, h, tol)
        except SingularIminusHError:
            failures.append("I - H is singular, no induced splitting")
        else:
            if not classify(induced, tol).is_g_weak_regular_type2:
                failures.append("induced splitting A = B - C is not type II")
            b_sharp = induced.solver.inverse_like()

    if theorem_id == "single-vs-three":
        for name, s in zip(names, splits):
            if b_sharp is not None and not _ge_identity(s.u @ b_sharp, tol.eq_tol):
                failures.append(f"{name.split('-')[0]} B# >= I fails")
        floor = min(single_radii.values())
        measured["min_single_rho"] = floor
        return _verdict(theorem_id, failures, _no_worse(rho_h, floor), measured)

    # two-vs-three
    pair_radii = []
    for first, second, name in _PAIRS:
        hp = alternating_iteration_matrix((splits[first], splits[second]))
        rp = spectral_radius(hp)
        pair_radii.append(rp)
        measured[f"rho_{name}"] = rp
        if rp >= 1.0:
            failures.append(f"rho of the {name} product >= 1, no induced splitting")
            continue
        try:
            ind = induced_splitting(a, hp, tol)
        except SingularIminusHError:
            failures.append(f"I minus the {name} product is singular, no induced splitting")
            continue
        if not classify(ind, tol).is_g_weak_regular_type2:
            failures.append(f"induced splitting {name} is not type II")
        if b_sharp is not None and not _ge_identity(ind.u @ b_sharp, tol.eq_tol):
            failures.append(f"{name} B# >= I fails")
    floor = min(pair_radii)
    measured["min_pairwise_rho"] = floor
    return _verdict(theorem_id, failures, _no_worse(rho_h, floor), measured)


def _quasi_flags(report):
    return {
        "regular": report.is_quasi_regular,
        "type1": report.is_quasi_weak_regular_type1,
        "type2": report.is_quasi_weak_regular_type2,
    }


def _index_failures(names, certs, cert_h):
    """Failures of index(I - T) <= 1 for each single-step matrix and for H."""
    out = [f"index(I - {name} iteration matrix) > 1"
           for name, c in zip(names, certs) if c.index_of_I_minus_T > 1]
    if cert_h.index_of_I_minus_T > 1:
        out.append("index(I - H) > 1")
    return out


def verify_semiconvergence_theorem(
    theorem_id: str,
    splits,
    tol: ToleranceProfile = DEFAULT_TOL,
    delta: float | None = None,
) -> TheoremVerdict:
    """Certify one of the semiconvergence results for singular systems.

    ``theorem_id`` is one of ``regular-three-step``, ``delta-shift``,
    ``induced-regular``, ``quasi-three-step``, ``quasi-comparison``,
    ``quasi-three-comparison``, ``quasi-two-vs-three``.  All expect three
    splittings with nonsingular split parts; ``delta-shift`` additionally
    needs ``delta``.
    """
    if theorem_id not in SEMICONVERGENCE_THEOREMS:
        raise UnknownTheoremError(f"unknown semiconvergence theorem {theorem_id!r}")
    splits = tuple(splits)
    if len(splits) != 3:
        raise ValueError(f"{theorem_id} expects exactly three splittings")
    a = _check_shared_a(splits)
    eye = np.eye(a.shape[0])

    failures: list[str] = []
    measured: dict[str, float] = {}
    names = ("K-L", "U-V", "X-Y")

    for name, s in zip(names, splits):
        if not s.u_is_nonsingular:
            failures.append(f"{name} has a singular split part")
    if failures:
        return _verdict(theorem_id, failures, False, measured)

    reports = [classify(s, tol) for s in splits]
    h = alternating_iteration_matrix(splits)
    cert_h = is_semiconvergent(h, tol)
    certs = [is_semiconvergent(s.iteration_matrix, tol) for s in splits]
    measured["gamma_H"] = cert_h.gamma
    measured["rho_H"] = cert_h.rho
    for name, s, c in zip(names, splits, certs):
        measured[f"gamma_{name}"] = c.gamma
        # Both index variants appear across the statements; surface both.
        measured[f"index_le1_{name}"] = float(index_at_most_one(s.iteration_matrix, tol))
        measured[f"index_le1_I_minus_{name}"] = float(c.index_of_I_minus_T == 1)

    if theorem_id in ("regular-three-step", "delta-shift", "induced-regular"):
        if not is_m_matrix_with_property_c(a, tol):
            failures.append("A is not an M-matrix with property c")
        for name, rep in zip(names, reports):
            if not rep.is_regular:
                failures.append(f"{name} is not a regular splitting")
        middle_nonsingular = _nonsingular(_middle_factor(splits), tol.rank_tol)
        measured["middle_nonsingular"] = float(middle_nonsingular)
        if not middle_nonsingular:
            failures.append("K + X - A + Y U^-1 L is singular")

        if theorem_id == "regular-three-step":
            diag_min = float(np.min(np.diag(h)))
            measured["min_diag_H"] = diag_min
            if diag_min <= 0.0:
                failures.append("diag(H) is not strictly positive")
            return _verdict(theorem_id, failures, cert_h.verdict, measured)

        if theorem_id == "delta-shift":
            if delta is None:
                raise MissingDeltaError("delta-shift theorem needs delta")
            if not 0.0 < delta < 1.0:
                raise ValueError("delta must lie in (0, 1)")
            cert_delta = is_semiconvergent(delta * h + (1.0 - delta) * eye, tol)
            measured["gamma_H_delta"] = cert_delta.gamma
            return _verdict(theorem_id, failures, cert_delta.verdict, measured)

        # induced-regular: the candidate B = K M^-1 X reproduces H as a
        # weak regular splitting of type I.  Strict regularity (C >= 0) can
        # fail for this candidate even under the stated hypotheses (the
        # walk benchmark is a witness), so the checkable conclusion is the
        # weak form; min(C) is surfaced for inspection.  The middle factor
        # M is nonsingular (tested above), so the induced splitting exists.
        if failures:
            return _verdict(theorem_id, failures, False, measured)
        ind = _induced_from_product(splits, tol)
        match = float(np.max(np.abs(ind.iteration_matrix - h)))
        measured["induced_matrix_mismatch"] = match
        measured["min_B_inverse_entry"] = float(np.min(ind.solver.inverse_like()))
        measured["min_C_entry"] = float(np.min(ind.v))
        conclusion = (
            is_nonnegative(ind.solver.inverse_like(), tol)
            and is_nonnegative(h, tol)
            and match < tol.eq_tol * max(1.0, float(np.max(np.abs(h))))
        )
        return _verdict(theorem_id, failures, conclusion, measured)

    # quasi family -----------------------------------------------------
    quasi = [_quasi_flags(rep) for rep in reports]
    for name, c in zip(names, certs):
        measured[f"semiconvergent_{name}"] = float(c.verdict)

    if theorem_id == "quasi-three-step":
        common = [kind for kind in ("type1", "type2", "regular")
                  if all(q[kind] for q in quasi)]
        if not common:
            failures.append("splittings do not share a quasi class")
        for name, c in zip(names, certs):
            if not c.verdict:
                failures.append(f"{name} iteration matrix is not semiconvergent")
        # index conditions exactly as stated
        for name in names:
            if not measured[f"index_le1_{name}"]:
                failures.append(f"index({name} iteration matrix) > 1")
        if not index_at_most_one(eye - alternating_iteration_matrix(splits[:2]), tol):
            failures.append("index(I - U^-1 V K^-1 L) > 1")
        if not index_at_most_one(h, tol):
            failures.append("index(H) > 1")
        conclusion = cert_h.verdict
        if conclusion and common:
            ind = _induced_from_product(splits, tol)
            if ind is None:
                # Induced-splitting clause is unverifiable without the
                # nonsingular middle factor; the semiconvergence conclusion
                # stands on its own.
                measured["induced_same_quasi_class"] = float("nan")
            else:
                ind_flags = _quasi_flags(classify(ind, tol))
                conclusion = any(ind_flags[kind] for kind in common)
                measured["induced_same_quasi_class"] = float(conclusion)
        return _verdict(theorem_id, failures, conclusion, measured)

    if theorem_id == "quasi-comparison":
        if not (quasi[0]["regular"] and certs[0].verdict):
            failures.append("K-L is not a semiconvergent quasi-regular splitting")
        for name, q in zip(names[1:], quasi[1:]):
            if not q["type1"]:
                failures.append(f"{name} is not quasi weak regular of type I")
        failures += _index_failures(names, certs, cert_h)
        bound = measured["gamma_X-Y"]
        return _verdict(theorem_id, failures, _no_worse(cert_h.gamma, bound), measured)

    for name, q, c in zip(names, quasi, certs):
        if not q["regular"]:
            failures.append(f"{name} is not a quasi-regular splitting")
        if not c.verdict:
            failures.append(f"{name} iteration matrix is not semiconvergent")

    if theorem_id == "quasi-three-comparison":
        failures += _index_failures(names, certs, cert_h)
        bound = min(measured[f"gamma_{name}"] for name in names)
        measured["min_single_gamma"] = bound
        return _verdict(theorem_id, failures, _no_worse(cert_h.gamma, bound), measured)

    # quasi-two-vs-three
    pair_gammas = []
    for first, second, name in _PAIRS:
        hp = alternating_iteration_matrix((splits[first], splits[second]))
        cert_p = is_semiconvergent(hp, tol)
        pair_gammas.append(cert_p.gamma)
        measured[f"gamma_{name}"] = cert_p.gamma
        if cert_p.index_of_I_minus_T > 1:
            failures.append(f"index(I - {name} product) > 1")
        ind = _induced_from_product((splits[first], splits[second]), tol)
        if ind is None:
            failures.append(f"{name} middle factor is singular")
        elif not classify(ind, tol).is_quasi_regular:
            failures.append(f"induced splitting {name} is not quasi-regular")
    failures += _index_failures(names, certs, cert_h)
    bound = min(pair_gammas)
    measured["min_pairwise_gamma"] = bound
    return _verdict(theorem_id, failures, _no_worse(cert_h.gamma, bound), measured)


def induced_regular_splitting(
    splits, tol: ToleranceProfile = DEFAULT_TOL
) -> Splitting:
    """Regular splitting A = B - C with B^-1 C equal to the three-step matrix.

    B is built as K (K + X - A + Y U^-1 L)^-1 X, which coincides with
    A (I - H)^-1 whenever the latter exists and remains well defined for
    singular A, where 1 is an eigenvalue of H.

    Raises
    ------
    ClassificationError
        If any input splitting fails to classify as regular.
    NonsingularHypothesisError
        If K + X - A + Y U^-1 L is singular.
    """
    splits = tuple(splits)
    if len(splits) != 3:
        raise ValueError("expected exactly three splittings")
    _check_shared_a(splits)
    for label, s in zip(("K-L", "U-V", "X-Y"), splits):
        if not classify(s, tol).is_regular:
            raise ClassificationError(f"{label} is not a regular splitting")
    ind = _induced_from_product(splits, tol)
    if ind is None:
        raise NonsingularHypothesisError("K + X - A + Y U^-1 L is singular")
    h = alternating_iteration_matrix(splits)
    scale = max(1.0, float(np.max(np.abs(h))))
    b_inv = ind.solver.inverse_like()
    if not is_nonnegative(b_inv, tol):
        raise NonsingularHypothesisError("induced B^-1 has negative entries")
    if not is_nonnegative(ind.v, tol):
        raise NonsingularHypothesisError("induced C = B - A has negative entries")
    if float(np.max(np.abs(ind.iteration_matrix - h))) > tol.eq_tol * scale:
        raise NonsingularHypothesisError("induced splitting does not reproduce H")
    return ind
