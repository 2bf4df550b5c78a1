"""Run one workload in a fresh process; print its report as one JSON line.

    python3 perfbench/worker.py --workload NAME --workdir DIR
        [--seconds S] [--setup-only] [--trace]

``setup_s`` runs from the first line of this file, before altsplit is
imported, to the end of the workload's set-up.  Then the timed call repeats
until ``--seconds`` would be exceeded (at least once), each repetition
timed on its own and its outputs checked.
With ``--trace`` the tracer is installed before set-up, the per-module
metrics are those of the set-up and the first repetition, and repetitions
alternate traced and untraced; unless ``--seconds`` is 0 there is at least
one of each.  altsplit must be
importable (``PYTHONPATH=src``).
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(args.workdir, exist_ok=True)
    inputs = wl.prepare(args.workdir)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        return {"setup_s": setup_s}

    # With a tracer, repetitions alternate traced/untraced (first traced), so
    # the tracing overhead is measured in one process at one machine speed.
    walls = {"traced": [], "plain": []}
    fingerprints, checks, describe, trace_report = {}, [], [], {}
    tracing = tracer is not None
    start = time.perf_counter()
    while True:
        kind = "traced" if tracing else "plain"
        t0 = time.perf_counter()
        raw = wl.call(inputs)
        walls[kind].append(time.perf_counter() - t0)
        obs = wl.collect(inputs, raw)
        checks += wl.check(inputs, obs)
        if not fingerprints:
            describe = wl.describe(obs)
            if tracer is not None:
                # counts of exactly one repetition; later ones only add wall times
                trace_report = {"layers": tracer.metrics(), "table": tracer.table(),
                                "reported_iterations": tracer.work["iterations"]}
            # The checks must reject a result spoiled just past their tolerance.
            for name, spoil in wl.perturbations.items():
                caught = not all(ok for _, ok in wl.check(inputs, spoil(obs)))
                checks.append((f"selfcheck.{name}", caught))
        fingerprints.setdefault(kind, wl.fingerprint(obs))
        elapsed = time.perf_counter() - start
        done = walls["traced"] + walls["plain"]
        need_plain = tracer is not None and args.seconds > 0 and not walls["plain"]
        if elapsed + statistics.median(done) > args.seconds and not need_plain:
            break
        if tracer is not None:
            tracing = not tracing
            tracer.enable(tracing)

    import machine

    report = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": len(checks),
        "failed": [name for name, ok in checks if not ok],
        "fingerprints": fingerprints,
        "describe": describe,
        "libraries": machine.libraries(),
    }
    report.update(trace_report)
    return report


if __name__ == "__main__":
    result = main()
    sys.stdout.write(json.dumps(result) + "\n")
