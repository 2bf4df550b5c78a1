"""Per-module tracing of altsplit from outside the package.

:meth:`Tracer.install` wraps every public function of the altsplit modules
and rebinds the wrapper in every ``altsplit.*`` namespace that bound the
original (``cli`` does ``from .schemes import run``, for example);
:meth:`Tracer.enable` switches between wrappers and originals, so one
process can time traced and untraced repetitions alternately.
``numpy.linalg.eigvals`` and ``numpy.linalg.svd`` are wrapped too, so
spectral and rank work is counted where it leaves altsplit.

Each wrapped function belongs to a group.  A group keeps a count and a total
of its outermost calls (a group's function calling another function of the
same group is not counted twice) and a self time, which is its time minus
the time of wrapped calls it made into other groups.  Calls are aggregated
as they happen, so a per-pass call such as ``sweep`` costs one counter
update, not one stored span.

Work counts of the sweeps (matvecs, solves, flops, bytes, working set) are
*computed* from each run's pass count and operand sizes, not measured.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("problems", "splittings", "core", "schemes", "analysis", "generators", "cli")

# Public functions with a group of their own; every other public function
# goes to "<module>.other", except in generators and cli, whose whole
# module is one group.
GROUPS = {
    "problems.make_laplace": "problems.assemble",
    "problems.make_random_walk": "problems.assemble",
    "problems.read_matrix_market": "problems.mm_read",
    "problems.read_vector": "problems.mm_read",
    "problems.write_matrix_market": "problems.mm_write",
    "problems.write_vector": "problems.mm_write",
    "splittings.make_splitting": "splittings.make_splitting",
    "splittings.diag_scaling_splitting": "splittings.make_splitting",
    "splittings.classify": "splittings.classify",
    "splittings.alternating_iteration_matrix": "splittings.iteration_matrix",
    "splittings.companion_matrix": "splittings.iteration_matrix",
    "splittings.induced_splitting": "splittings.induced",
    "splittings.b_sharp_closed_form": "splittings.induced",
    "core.spectral_radius": "core.spectral",
    "core.gamma": "core.spectral",
    "core.group_inverse": "core.group_inverse",
    "core.rank": "core.rank",
    "core.index_at_most_one": "core.rank",
    "schemes.run": "schemes.run",
    "schemes.run_shifted": "schemes.run",
    "schemes.sweep": "schemes.sweep",
    "analysis.power_limit_oracle": "analysis.oracle",
    "analysis.is_semiconvergent": "analysis.certificate",
    "analysis.is_m_matrix_with_property_c": "analysis.certificate",
    "analysis.verify_convergence_theorem": "analysis.verifier",
    "analysis.verify_semiconvergence_theorem": "analysis.verifier",
    "analysis.induced_regular_splitting": "analysis.verifier",
}
WHOLE_MODULE_GROUPS = ("generators", "cli")
NUMPY_GROUPS = {"eigvals": "core.eigvals", "svd": "core.svd"}

# Groups reported as "<group>_calls" and as "<group>_s".
COUNTED_GROUPS = ("splittings.make_splitting", "splittings.classify", "core.spectral",
                  "core.group_inverse", "core.rank", "core.eigvals", "core.svd",
                  "analysis.oracle", "analysis.certificate", "analysis.verifier")
TIMED_GROUPS = COUNTED_GROUPS + ("splittings.iteration_matrix", "splittings.induced")

SCHEME_NAMES = {1: "single", 2: "two", 3: "three"}
MIB = 1024.0 * 1024.0


class _Group:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _read_bytes(tracer, elapsed, arguments, result):
    tracer.work["mm_read_bytes"] += os.path.getsize(arguments["path"])


def _write_bytes(tracer, elapsed, arguments, result):
    tracer.work["mm_write_bytes"] += os.path.getsize(arguments["path"])


def _is_diagonal(u):
    return bool(np.count_nonzero(u - np.diag(np.diagonal(u))) == 0)


def _run_work(tracer, elapsed, arguments, report):
    """Computed work of one scheme run, from its passes and operand sizes.

    Per pass: one dense V matvec and one U solve per splitting, plus one A
    matvec under the residual rule (and one more with record_history);
    one final A matvec per run for the reported residual.  A diagonal U
    solve is n flops over an 8n-byte operand; a dense one (LU or U#) is
    2n^2 flops over 8n^2 bytes, like a matvec.  Vector updates, norms and
    the shift are O(n) and are not counted.
    """
    config = arguments["config"]
    splits = config.splittings
    k, n, passes = len(splits), splits[0].a.shape[0], report.iterations
    n_diag = sum(_is_diagonal(s.u) for s in splits)
    a_matvecs = 1 + passes * ((config.stop_rule == "residual") + bool(config.record_history))
    dense_ops = passes * k + a_matvecs + passes * (k - n_diag)
    w = tracer.work
    w["matvecs"] += passes * k + a_matvecs
    w["solves"] += passes * k
    w["flops"] += 2 * n * n * dense_ops + n * passes * n_diag
    w["bytes"] += 8 * n * n * dense_ops + 8 * n * passes * n_diag
    working_set = 8 * n * n * (1 + k + k - n_diag) + 8 * n * n_diag
    w["working_set"] = max(w["working_set"], working_set)
    w["run_s." + SCHEME_NAMES[k]] += elapsed
    w["iterations"] += passes
    w["runs"] += 1
    w["converged"] += bool(report.converged)


# Functions that record more than time: after(tracer, elapsed, arguments, result),
# called after each outermost call with the call's bound arguments.
HOOKS = {
    "problems.read_matrix_market": _read_bytes,
    "problems.read_vector": _read_bytes,
    "problems.write_matrix_market": _write_bytes,
    "problems.write_vector": _write_bytes,
    "schemes.run": _run_work,
    "schemes.run_shifted": _run_work,
}


class Tracer:
    """Aggregated spans and computed work of one process's altsplit calls."""

    def __init__(self):
        self.groups = defaultdict(_Group)
        self.work = defaultdict(int)
        self._stack = []
        self._bindings = []  # (namespace, name, original, wrapper)

    def _wrap(self, fn, group_name, after):
        group = self.groups[group_name]
        stack = self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = group.depth == 0
            group.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                group.depth -= 1
                group.self_time += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if outermost:
                    group.calls += 1
                    group.total += elapsed
            if outermost and after is not None:
                t1 = clock()
                after(self, elapsed, sig.bind(*args, **kwargs).arguments, result)
                if stack:  # the hook's time is the tracer's, not the caller's
                    stack[-1] += clock() - t1
            return result

        return traced

    def install(self):
        """Wrap the public functions; call once, after ``import altsplit.cli``."""
        wrappers = {}
        for mod_name in MODULES:
            module = importlib.import_module("altsplit." + mod_name)
            for name, fn in _public_functions(module):
                key = f"{mod_name}.{name}"
                default = mod_name if mod_name in WHOLE_MODULE_GROUPS else mod_name + ".other"
                wrappers[id(fn)] = self._wrap(fn, GROUPS.get(key, default), HOOKS.get(key))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "altsplit" and not mod_name.startswith("altsplit."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, name, value, wrapper))
        for name, group in NUMPY_GROUPS.items():
            fn = getattr(np.linalg, name)
            self._bindings.append((np.linalg, name, fn, self._wrap(fn, group, None)))
        self.enable(True)

    def enable(self, on: bool):
        """Bind the wrappers (on) or the original functions (off)."""
        for module, name, original, wrapper in self._bindings:
            setattr(module, name, wrapper if on else original)

    def table(self):
        """(group, calls, total_s, self_s) for every group that was entered."""
        return sorted((name, g.calls, g.total, g.self_time)
                      for name, g in self.groups.items() if g.calls)

    def metrics(self) -> dict:
        """The per-module metrics, by the names BENCHMARK.json lists."""
        g, w = self.groups, self.work
        passes = g["schemes.sweep"].calls
        sweep_s = g["schemes.sweep"].total
        run_s = g["schemes.run"].total
        out = {
            "problems.assemble_s": g["problems.assemble"].total,
            "problems.mm_read_s": g["problems.mm_read"].total,
            "problems.mm_read_bytes": w["mm_read_bytes"],
            "problems.mm_write_s": g["problems.mm_write"].total,
            "problems.mm_write_bytes": w["mm_write_bytes"],
            "schemes.run_calls": g["schemes.run"].calls,
            "schemes.run_s": run_s,
            "schemes.passes": passes,
            "schemes.sweep_s": sweep_s,
            "schemes.pass_us": sweep_s / passes * 1e6 if passes else 0.0,
            "schemes.driver_self_s": run_s - sweep_s,
            "schemes.matvecs": w["matvecs"],
            "schemes.solves": w["solves"],
            "schemes.flops": w["flops"],
            "schemes.bytes": w["bytes"],
            "schemes.working_set_mib": w["working_set"] / MIB,
            "schemes.converged_ratio": w["converged"] / w["runs"] if w["runs"] else 0.0,
            "generators.s": g["generators"].total,
            "cli.self_s": g["cli"].self_time,
        }
        for scheme in SCHEME_NAMES.values():
            out["schemes.run_s." + scheme] = w["run_s." + scheme]
        for group in COUNTED_GROUPS:
            out[group + "_calls"] = g[group].calls
        for group in TIMED_GROUPS:
            out[group + "_s"] = g[group].total
        return out
