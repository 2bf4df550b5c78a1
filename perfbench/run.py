"""altsplit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/altsplit``.  Workloads
(see ``workloads.py`` and BENCHMARK.json): laplace-400, walk-chain,
verify-all, solve-mtx.  All four are the paper's fixed problems, so
``--seed`` is recorded but changes no input.  Every workload process is a
fresh interpreter started from this script, one at a time, so the load is
one process with the BLAS library's default thread count.

``--trace 0`` measures the end-to-end metrics with tracing off:
``wall_s`` (median time of the timed call, repeated for about
``--seconds`` in three processes), ``setup_s`` (median over six fresh
processes of importing altsplit and building the inputs) and
``peak_rss_mb``.  Set-up processes included, the run takes about
``--seconds``.

``--trace 1`` gives the per-module metrics of one traced repetition.  The
same process then alternates untraced and traced repetitions for about
``--seconds`` (at least one of each); the difference of their median times
is ``trace.overhead_s``.  When the workload runs sweeps, one more traced
repetition holds the BLAS pool at one thread through the environment
(``schemes.sweep_s.1thread``).

Every workload process checks its outputs; the last line printed is
``{"correct", "attempted", "failed", "metrics"}``, with ``attempted`` and
``failed`` counting output checks (fail_rate = failed / attempted).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laplace-400", "walk-chain", "verify-all", "solve-mtx")
BUDGET_S = 170.0
PROCESSES = 3
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import machine  # noqa: E402


class BenchError(Exception):
    pass


class Runner:
    """Starts workload processes one at a time within one time budget."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.count = 0
        self.attempted = 0
        self.failed = []

    def worker(self, *flags, env=None) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget of {BUDGET_S:.0f} s used up")
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--workdir", str(self.workdir / str(self.count)),
               *flags]
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        full_env = dict(os.environ, PYTHONPATH=path, **(env or {}))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=full_env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process exceeded the {BUDGET_S:.0f} s budget")
        if proc.returncode != 0:
            raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if "checks" in report:
            self.attempted += report["checks"]
            self.failed += report["failed"]
        return report

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def measure(runner, seconds):
    """End-to-end metrics, tracing off.

    The whole run, set-up processes included, takes about ``seconds``.  The
    timed call repeats in PROCESSES fresh processes, each given an equal
    share of the time left, and a set-up-only process runs before each of
    them: the speed of a shared machine drifts, and a median over many short
    repetitions spread across the run moves less than one process's.
    """
    end = time.monotonic() + seconds
    runner.worker("--setup-only")  # warm-up: byte-compiles altsplit, fills the page cache
    walls, setups, rss, first = [], [], [], None
    for left in range(PROCESSES, 0, -1):
        setups.append(runner.worker("--setup-only")["setup_s"])
        share = max(0.0, (end - time.monotonic()) / left - setups[-1])
        report = runner.worker("--seconds", f"{share:.3f}")
        first = first or report
        walls += report["walls"]["plain"]
        setups.append(report["setup_s"])
        rss.append(report["peak_rss_mib"])
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {"wall_s": f"median of {len(walls)} repetitions in {len(rss)} processes, "
                       f"min {min(walls):.4f}, max {max(walls):.4f}",
             "setup_s": f"median of {len(setups)} fresh processes",
             "peak_rss_mb": f"median high-water resident memory of {len(rss)} processes"}
    return values, notes, first


def trace(runner, seconds):
    """Per-module metrics of one traced repetition, plus the checks on them."""
    report = runner.worker("--seconds", str(seconds), "--trace")
    walls = report["walls"]
    values = dict(report["layers"])
    values["trace.overhead_s"] = (statistics.median(walls["traced"])
                                  - statistics.median(walls["plain"]))
    runner.check("trace.identical_outputs", len(report["fingerprints"]) == 2
                 and len(set(report["fingerprints"].values())) == 1)
    runner.check("trace.passes_match_reports",
                 values["schemes.passes"] == report["reported_iterations"])
    values["schemes.sweep_s.1thread"] = 0.0
    if values["schemes.passes"]:
        one = runner.worker("--seconds", "0", "--trace", env=SINGLE_THREAD_ENV)
        values["schemes.sweep_s.1thread"] = one["layers"]["schemes.sweep_s"]
        threads = one["libraries"]["blas_threads"].values()
        runner.check("baseline.one_blas_thread", bool(threads) and set(threads) == {1})
        runner.check("baseline.same_passes",
                     one["layers"]["schemes.passes"] == values["schemes.passes"])
    return values, {}, report


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _print_report(args, host, report, values, notes, metrics, runner):
    libs = report["libraries"]
    print(f"altsplit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, seconds {args.seconds}")
    print(f"machine: nproc {host['nproc']}, {host['cpu_model']}, caches "
          + ", ".join(f"{k} {v}" for k, v in host["caches"].items())
          + f"; python {host['python']}, numpy {libs['numpy']}, scipy {libs['scipy']}, "
          f"BLAS {libs['blas']}, BLAS threads {libs['blas_threads']}")
    for line in report.get("describe", []):
        print("  " + line)
    for row in report.get("table", []):
        name, calls, total, self_s = row
        print(f"  span {name:<28} calls {calls:>9}  total {total:10.4f} s  self {self_s:10.4f} s")
    if "layers" in report:
        ws = values["schemes.working_set_mib"]
        print(f"  computed working set {ws:.1f} MiB against "
              + ", ".join(f"{k} {v}" for k, v in host["caches"].items()))
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<32} {m['value']:<22.10g} {m['unit']:<6} {note}")
    rate = len(runner.failed) / runner.attempted
    print(f"{'fail_rate':<32} {rate:<22.10g} {'ratio':<6} "
          f"{len(runner.failed)} of {runner.attempted} output checks failed")
    for name in sorted(set(runner.failed)):
        print(f"FAILED check {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "altsplit" / "__init__.py").is_file():
        print(f"error: no altsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = _spec()
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    runner = Runner(args.workload, workdir)
    try:
        if args.trace:
            values, notes, report = trace(runner, args.seconds)
        else:
            values, notes, report = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    host = machine.host()
    threads = report["libraries"]["blas_threads"].values()
    runner.check("load.blas_threads_within_nproc", all(t <= host["nproc"] for t in threads))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    _print_report(args, host, report, values, notes, metrics, runner)
    print(json.dumps({"correct": not runner.failed, "attempted": runner.attempted,
                      "failed": len(runner.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
