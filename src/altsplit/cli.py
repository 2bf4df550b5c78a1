"""Command-line front end: classify, solve, bench and verify.

Exit codes are the machine contract: 0 success/converged, 1 no convergence,
2 file/flag problems or too little memory, 3 dimension mismatches, 4 missing
group inverse.
Benchmark tables print the comparison-table columns; --csv writes
``order,scheme,iterations,residual,error,time_s,rho_or_gamma``.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    is_semiconvergent,
    power_limit_oracle,
    verify_convergence_theorem,
    verify_semiconvergence_theorem,
)
from .core import ToleranceProfile, gamma, group_inverse, spectral_radius
from .errors import (
    AltSplitError,
    DimensionMismatchError,
    IndexGreaterThanOneError,
    MatrixMarketError,
    MismatchedSplittingError,
    NotSquareError,
)
from .generators import (
    random_group_monotone_regular_triple,
    random_index_one,
    random_proper_triple,
    random_quasi_regular_triple,
    random_semiconvergence_case,
    random_singular_m_matrix_triple,
)
from .problems import (
    make_laplace,
    make_random_walk,
    read_matrix_market,
    read_vector,
    write_vector,
)
from .schemes import SchemeConfig, run
from .splittings import (
    Alternation,
    SystemMatrix,
    _iteration_operator,
    alternating_iteration_matrix,
    classify,
    companion_matrix,
    diag_scaling_splitting,
    make_splitting,
)

CSV_HEADER = ["order", "scheme", "iterations", "residual", "error", "time_s", "rho_or_gamma"]


@dataclass(frozen=True)
class BenchRow:
    """One benchmark table row; ``error`` is None for the singular benchmark.

    ``converged`` is the run's own verdict; ``bench`` exits 1 when a row
    did not converge.
    """

    order: int
    scheme: str
    iterations: int
    residual: float
    error: float | None
    time_seconds: float
    rho_or_gamma: float
    converged: bool


def _bench_rows(order, a, alphas, column, rule, tol, b, **run_args):
    """Rows three/two/single: each scheme runs on the first 3, 2 or 1 splittings
    alpha diag(A) of one owner of A, alphas ascending, for at most 2e6 passes.

    ``column`` gives a row's rho or gamma from its splittings.  ``run`` is
    read as this module's global at each call, so a caller may swap it to
    observe the runs.  More than three alphas is a ValueError: no scheme
    would run the fourth.
    """
    system = SystemMatrix(a)
    splits = [diag_scaling_splitting(system, alpha) for alpha in sorted(alphas)]
    if len(splits) > 3:
        raise ValueError(f"at most three alphas, one per step of the three-step scheme; "
                         f"got {len(splits)}")
    rows = []
    # The schemes there are splittings for; single always runs, so that
    # an empty list fails in SchemeConfig rather than giving no rows.
    for scheme, k in (("three", 3), ("two", 2), ("single", 1))[-max(len(splits), 1):]:
        config = SchemeConfig(
            splittings=splits[:k], stop_rule=rule, tolerance=tol, max_iterations=2_000_000
        )
        report = run(config, b, **run_args)
        rows.append(
            BenchRow(
                order=order,
                scheme=scheme,
                iterations=report.iterations,
                residual=report.final_residual,
                error=report.final_error,
                time_seconds=report.elapsed_seconds,
                rho_or_gamma=column(splits[:k]),
                converged=report.converged,
            )
        )
    return rows


def _rho(chosen) -> float:
    """rho(H): seeded ARPACK on the matrix-free H."""
    return spectral_radius(_iteration_operator(chosen))


def _gamma(chosen) -> float:
    return gamma(alternating_iteration_matrix(chosen))


def _choice(name, value, table):
    """``table[value]``; a ValueError naming the accepted values otherwise."""
    if value not in table:
        raise ValueError(f"{name} must be one of {', '.join(map(repr, table))}, got {value!r}")
    return table[value]


def bench_laplace(
    grid_n: int,
    alphas=(1.0, 1.5, 1.75),
    tol: float = 1e-6,
    stop: str = "error",
):
    """Run the Dirichlet benchmark; returns rows three/two/single."""
    rule = _choice("stop", stop, {"error": "error_vs_exact", "residual": "residual"})
    problem = make_laplace(grid_n)
    return _bench_rows(problem.order, problem.A, alphas, _rho, rule, tol, problem.b,
                       exact=problem.exact)


def bench_markov(
    states: int,
    alphas=(2.0, 2.5, 3.0),
    tol: float = 1e-7,
    stop: str = "residual",
    x0_kind: str = "e1",
):
    """Run the stationary-distribution benchmark; gamma column, blank error."""
    rule = _choice("stop", stop, {"residual": "residual", "diff": "successive_diff"})
    problem = make_random_walk(states)
    x0 = _choice("x0_kind", x0_kind,
                 {"e1": np.eye(1, states)[0], "uniform": np.full(states, 1.0 / states)})
    return _bench_rows(states, problem.A, alphas, _gamma, rule, tol, np.zeros(states), x0=x0)


def _print_rows(rows, value_name):
    print(f"{'order':>7} {'scheme':>8} {'IT':>9} {'residual':>12} "
          f"{'error':>12} {'time_s':>9} {value_name:>8}")
    for r in rows:
        err = f"{r.error:.4e}" if r.error is not None else "-"
        print(f"{r.order:>7d} {r.scheme:>8} {r.iterations:>9d} "
              f"{r.residual:>12.4e} {err:>12} {r.time_seconds:>9.2f} "
              f"{r.rho_or_gamma:>8.4f}")


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.order,
                r.scheme,
                r.iterations,
                f"{r.residual:.17g}",
                "" if r.error is None else f"{r.error:.17g}",
                f"{r.time_seconds:.6f}",
                f"{r.rho_or_gamma:.17g}",
            ])


def _parse_alphas(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    a = SystemMatrix(read_matrix_market(args.matrix))
    if args.u is not None:
        split = make_splitting(a, read_matrix_market(args.u))
    else:
        split = diag_scaling_splitting(a, args.diag_alpha)
    report = classify(split)
    for name, value in report.flags().items():
        line = f"{name:<28s} {'yes' if value else 'no'}"
        witness = report.witnesses.get(name)
        if witness is not None:
            line += f"   [{witness.describe()}]"
        print(line)
    return 0


def _cmd_solve(args) -> int:
    a, b = read_matrix_market(args.matrix), read_vector(args.rhs)
    system = SystemMatrix(a)
    splits = [make_splitting(system, read_matrix_market(p)) for p in args.split.split(",")]
    if args.x0 == "zero":
        x0 = None
    elif args.x0 == "uniform":
        x0 = np.full(system.n, 1.0 / max(system.n, 1))  # order 0: the empty vector
    else:
        x0 = read_vector(args.x0)
    config = SchemeConfig(
        splittings=splits,
        stop_rule=args.stop,
        tolerance=args.tol,
        max_iterations=args.max_iters,
        delta=args.delta,
    )
    report = run(config, b, x0=x0)

    print(f"iterations   {report.iterations}")
    print(f"converged    {report.converged}")
    print(f"residual     {report.final_residual:.6e}")
    print(f"time_s       {report.elapsed_seconds:.4f}")
    if args.out:
        write_vector(args.out, report.final_x)
    return 0 if report.converged else 1


def _cmd_bench(args) -> int:
    # Only the flags the user set; the defaults live in the bench signatures.
    given = {name: getattr(args, name) for name in ("alphas", "tol", "stop")}
    given = {name: value for name, value in given.items() if value is not None}
    if args.problem == "laplace":
        rows = bench_laplace(args.grid, **given)
        _print_rows(rows, "rho")
    else:
        rows = bench_markov(args.states, x0_kind=args.x0, **given)
        _print_rows(rows, "gamma")
    if args.csv:
        _write_csv(args.csv, rows)
    return 0 if all(r.converged for r in rows) else 1


def _check_group_inverse(rng, n):
    a = random_index_one(rng, n, int(rng.integers(1, n + 1)))
    x = group_inverse(a)
    residuals = (a @ x @ a - a, x @ a @ x - x, a @ x - x @ a)
    res = max(float(np.max(np.abs(r))) for r in residuals) / max(1.0, float(np.max(np.abs(a))))
    return f"defining-equation residual {res:.3e}" if res > 1e-10 else None


def _check_companion(rng, n):
    a, splits = random_proper_triple(rng, n)
    h = alternating_iteration_matrix(splits)
    s = companion_matrix(splits)
    gap = abs(spectral_radius(s) - spectral_radius(h))
    # A# from the owner that holds A's factorization; exit code 4 if it is None
    a_sharp = splits[0].system.factored.group_inverse()
    mismatch = float(np.max(np.abs(s - a @ h @ a_sharp)))
    if gap > 1e-8 or mismatch > 1e-8:
        return f"rho gap {gap:.3e}, S - A H A# {mismatch:.3e}"
    return None


def _check_convergence(theorem_id):
    def check(rng, n):
        # two-vs-three draws nonsingular monotone instances 70% of the
        # time, to exercise its >= I hypotheses
        rank_r = n if theorem_id == "two-vs-three" and rng.random() < 0.7 else None
        verdict = verify_convergence_theorem(
            theorem_id, random_group_monotone_regular_triple(rng, n, rank_r=rank_r)[1])
        if verdict.hypotheses_hold and not verdict.conclusion_holds:
            return f"hypotheses hold but conclusion fails: {verdict.measured_quantities}"
        return None
    return check


def _check_semiconvergence(rng, n):
    t, kind = random_semiconvergence_case(rng, n)
    cert = is_semiconvergent(t)
    limit = power_limit_oracle(t, k_max=20_000, tol=ToleranceProfile(eq_tol=1e-11))
    if cert.verdict != (limit is not None):
        return f"{kind}: certificate {cert.verdict}, oracle {limit is not None}"
    if cert.verdict and float(np.max(np.abs(cert.limit_matrix - limit))) > 1e-8:
        return f"{kind}: limits disagree"
    return None


def _check_quasi(rng, n):
    # one owner a triple, so its three verifiers share the facts of H
    quasi = Alternation(random_quasi_regular_triple(rng, n)[1])
    m_matrix = Alternation(random_singular_m_matrix_triple(rng, n)[1])
    for splits, theorem_id, delta in (
        (quasi, "quasi-three-step", None), (quasi, "quasi-three-comparison", None),
        (quasi, "quasi-two-vs-three", None), (m_matrix, "regular-three-step", None),
        (m_matrix, "delta-shift", 0.5), (m_matrix, "induced-regular", None),
    ):
        verdict = verify_semiconvergence_theorem(theorem_id, splits, delta=delta)
        if verdict.hypotheses_hold and not verdict.conclusion_holds:
            return f"{theorem_id}: {verdict.measured_quantities}"
    return None


# Each suite, in the order of --suite all: the smallest order it draws
# (--size must reach it), and the check of one trial on an order drawn
# from [smallest, --size], which says why the trial failed, or None.
_SUITES = {
    "group-inverse": (2, _check_group_inverse),
    "companion": (3, _check_companion),
    "typeII-convergence": (3, _check_convergence("typeII-convergence")),
    "both-types-comparison": (3, _check_convergence("both-types-comparison")),
    "two-vs-three": (3, _check_convergence("two-vs-three")),
    "semiconvergence": (2, _check_semiconvergence),
    "quasi": (4, _check_quasi),
}


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    smallest = max(_SUITES[name][0] for name in names)
    if args.size < smallest:
        raise ValueError(f"--size must be at least {smallest} for suite {args.suite}")
    rng = np.random.default_rng(args.seed)
    print(f"seed {args.seed}")
    any_failed = False
    for name in names:
        low, check = _SUITES[name]
        failures = []
        for k in range(args.trials):
            why = check(rng, int(rng.integers(low, args.size + 1)))
            if why is not None:
                failures.append((k, why))
        print(f"{name:<24s} {args.trials - len(failures)}/{args.trials} "
              f"{'FAIL' if failures else 'ok'}")
        if failures:
            any_failed = True
            print(f"  first counterexample: trial {failures[0][0]}: {failures[0][1]}")
    return 1 if any_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altsplit",
        description="Alternating matrix-splitting iterations and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a splitting A = U - V")
    p_classify.add_argument("--matrix", required=True, help="A in Matrix Market format")
    group = p_classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--u", help="U in Matrix Market format")
    group.add_argument("--diag-alpha", type=float, help="use U = alpha diag(A)")
    p_classify.set_defaults(func=_cmd_classify)

    p_solve = sub.add_parser("solve", help="run an alternating scheme on files")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--rhs", required=True)
    p_solve.add_argument("--split", required=True,
                         help="comma-separated U files (1 to 3)")
    p_solve.add_argument("--delta", type=float, default=None)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iters", type=int, default=100_000)
    p_solve.add_argument("--x0", default="zero",
                         help="'zero', 'uniform' or a vector file")
    p_solve.add_argument("--stop", default="residual",
                         choices=["residual", "successive_diff"])
    p_solve.add_argument("--out", default=None, help="write solution here")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="reproduce the comparison tables")
    bench_sub = p_bench.add_subparsers(dest="problem", required=True)
    p_lap = bench_sub.add_parser("laplace")
    p_lap.add_argument("--grid", type=int, default=21, help="subdivisions N; order (N-1)^2")
    p_lap.add_argument("--alphas", type=_parse_alphas, default=None)
    p_lap.add_argument("--tol", type=float, default=None)
    p_lap.add_argument("--stop", choices=["error", "residual"], default=None)
    p_lap.add_argument("--csv", default=None)
    p_lap.set_defaults(func=_cmd_bench)
    p_mkv = bench_sub.add_parser("markov")
    p_mkv.add_argument("--states", type=int, default=10)
    p_mkv.add_argument("--alphas", type=_parse_alphas, default=None)
    p_mkv.add_argument("--tol", type=float, default=None)
    p_mkv.add_argument("--stop", choices=["residual", "diff"], default=None)
    p_mkv.add_argument("--x0", choices=["e1", "uniform"], default="e1")
    p_mkv.add_argument("--csv", default=None)
    p_mkv.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", help="run a randomized verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=sorted(_SUITES) + ["all"])
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--size", type=int, default=8)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


# Exit code of each error a command can meet, first match wins.  A bad
# flag value raises ValueError, and so does undecodable file text
# (UnicodeDecodeError); a size too large for memory raises MemoryError.
_EXIT_CODES = (
    ((MatrixMarketError, OSError, ValueError, MemoryError), 2),
    ((DimensionMismatchError, NotSquareError, MismatchedSplittingError), 3),
    (IndexGreaterThanOneError, 4),
    (AltSplitError, 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError, AltSplitError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
