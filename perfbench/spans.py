"""Span tracer that wraps the solver's layer entry points from outside.

Each wrapper is installed at the name its caller looks the entry point up
by: a module global such as ``mpvc.driver.solve_nlp``, or a field of the
frozen ``MpvcProblem`` / ``Nlp`` containers swapped in with
``dataclasses.replace``.  The library itself is never edited, so the
untraced run executes exactly the library's code.

A span is ``[name, start, end, parent, solve, result]``: the lookup name of
the entry point, ``perf_counter`` times, the index of the enclosing span
(-1 at the top), the id of the benchmark solve it belongs to, and a small
summary of the returned value (status and iteration count) where the
per-layer metrics need one.  Spans stay in memory until ``write``.

An entry point that no longer exists is recorded in ``absent``; the
metrics that need it are left out of the result, never reported as 0.
"""
from __future__ import annotations

import dataclasses
import gzip
import inspect
import time

# (module, attribute) pairs wrapped in place; a span is named
# ``module.attribute``, the name its caller looks the function up by.  The
# driver looks up regularize/solve_nlp in its own globals, nlp looks up its
# QP routines in its globals, qp recurses through its own global solve_qp
# (phase 1 and the elastic wrapper), and find_multipliers reaches the QP
# through stationarity's globals.  The benchmark reaches the driver, the
# direct baseline and the stationarity functions through their modules.
MODULE_ENTRY_POINTS = (
    ("driver", "solve_mpvc"),
    ("driver", "regularize"),
    ("driver", "solve_nlp"),
    ("regularize", "direct_nlp"),
    ("nlp", "solve_nlp"),
    ("nlp", "solve_qp"),
    ("nlp", "solve_qp_elastic"),
    ("qp", "solve_qp"),
    ("stationarity", "solve_qp"),
    ("stationarity", "recover_mpvc_multipliers"),
    ("stationarity", "classify"),
    ("stationarity", "find_multipliers"),
)
EVALUATORS = ("f", "g", "h", "G", "H")

# Each per-layer metric and the lookup names it cannot be computed without.
REQUIRES = {
    "qp.calls": ("nlp.solve_qp",),
    "qp.busy_s": ("nlp.solve_qp",),
    "qp.iters": ("nlp.solve_qp",),
    "qp.cap_hits": ("nlp.solve_qp",),
    "qp.infeasible": ("nlp.solve_qp",),
    "qp.optimal_frac": ("nlp.solve_qp",),
    "qp.phase1_calls": ("qp.solve_qp",),
    "qp.phase1_s": ("qp.solve_qp",),
    "qp.phase1_iters": ("qp.solve_qp",),
    "qp.elastic_calls": ("nlp.solve_qp_elastic",),
    "qp.elastic_s": ("nlp.solve_qp_elastic",),
    "qp.fit_calls": ("stationarity.solve_qp",),
    "qp.fit_s": ("stationarity.solve_qp",),
    "nlp.calls": ("driver.solve_nlp", "nlp.solve_nlp"),
    "nlp.busy_s": ("driver.solve_nlp", "nlp.solve_nlp"),
    "nlp.self_s": ("driver.solve_nlp", "nlp.solve_nlp", "nlp.solve_qp"),
    "nlp.sqp_iters": ("driver.solve_nlp", "nlp.solve_nlp"),
    "nlp.converged_frac": ("driver.solve_nlp", "nlp.solve_nlp"),
    "nlp.iter_limit": ("driver.solve_nlp", "nlp.solve_nlp"),
    "nlp.linesearch_fail": ("driver.solve_nlp", "nlp.solve_nlp"),
    "nlp.evals_per_iter": ("driver.solve_nlp", "nlp.solve_nlp", "problems.f"),
    "driver.runs": ("driver.solve_mpvc",),
    "driver.outer_iters": ("driver.solve_mpvc",),
    "driver.inner_failures": ("driver.solve_mpvc", "driver.solve_nlp"),
    "driver.self_s": ("driver.solve_mpvc", "driver.regularize", "driver.solve_nlp"),
    "regularize.calls": ("driver.regularize", "regularize.direct_nlp"),
    "regularize.assemble_s": ("Nlp.ineq",),
    "problems.calls": tuple(f"problems.{e}" for e in EVALUATORS),
    "problems.busy_s": tuple(f"problems.{e}" for e in EVALUATORS),
    "stationarity.calls": (
        "stationarity.recover_mpvc_multipliers",
        "stationarity.classify",
        "stationarity.find_multipliers",
    ),
    "stationarity.busy_s": (
        "stationarity.recover_mpvc_multipliers",
        "stationarity.classify",
        "stationarity.find_multipliers",
    ),
}

QP_ENTRIES = ("nlp.solve_qp", "nlp.solve_qp_elastic", "stationarity.solve_qp")
QP_SOLVES = ("nlp.solve_qp", "qp.solve_qp", "stationarity.solve_qp")
NLP_SOLVES = ("driver.solve_nlp", "nlp.solve_nlp")
STATIONARITY = (
    "stationarity.recover_mpvc_multipliers",
    "stationarity.classify",
    "stationarity.find_multipliers",
)


def _qp_summary(res):
    return (res.status, res.iterations)


def _nlp_summary(sol):
    return (sol.status.value, sol.total_iterations or sol.iterations)


def _driver_summary(res):
    return (res.trace.reason.value, res.trace.outer_iterations)


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.solve = -1
        self.paused = False
        self.absent: list = []
        self.inner_solves: list = []     # (solve id, nlp, solution, eps)
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, summary=None, transform=None, on_return=None):
        """``fn`` wrapped in a span called ``name``.

        ``summary`` maps the result to the span's stored summary,
        ``transform`` replaces the result (used to wrap returned
        containers) and ``on_return(args, kwargs, result)`` sees every call.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.solve, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if summary is not None:
                rec[5] = summary(out)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out if transform is None else transform(out)

        wrapped.__wrapped__ = fn
        return wrapped

    def close_open_spans(self) -> None:
        """End the spans of the current solve left open by a stopped solve
        (a timeout can land between a wrapper's first lines and its
        ``finally``)."""
        now = time.perf_counter()
        for rec in reversed(self.spans):
            if rec[4] != self.solve:
                break
            if rec[2] == 0.0:
                rec[2] = now
        self.stack.clear()

    # -- installation ------------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap every entry point of ``MODULE_ENTRY_POINTS`` found in
        ``modules`` (short name -> module object); record the rest as
        absent."""
        for mod_name, attr in MODULE_ENTRY_POINTS:
            name = f"{mod_name}.{attr}"
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.mark_absent(name)
                continue
            setattr(mod, attr, self._wrapper_for(name, fn))
            self._undo.append((mod, attr, fn))

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def _wrapper_for(self, name, fn):
        if name in ("driver.regularize", "regularize.direct_nlp"):
            return self.wrap(name, fn, transform=self.wrap_nlp)
        if name in NLP_SOLVES:
            signature = inspect.signature(fn)

            def keep(args, kwargs, sol):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                nlp, eps = bound.arguments.get("nlp"), bound.arguments.get("eps_target")
                if nlp is None or eps is None:     # renamed: the check cannot run
                    self.mark_absent(f"{name}(nlp, eps_target)")
                    return
                self.inner_solves.append((self.solve, nlp, sol, eps))

            return self.wrap(name, fn, summary=_nlp_summary, on_return=keep)
        if name in QP_SOLVES or name == "nlp.solve_qp_elastic":
            return self.wrap(name, fn, summary=_qp_summary)
        if name == "driver.solve_mpvc":
            return self.wrap(name, fn, summary=_driver_summary)
        return self.wrap(name, fn)

    def wrap_nlp(self, nlp):
        """The assembled NLP with its inequality block traced."""
        try:
            return dataclasses.replace(nlp, ineq=self.wrap("Nlp.ineq", nlp.ineq))
        except (TypeError, AttributeError):
            self.mark_absent("Nlp.ineq")
            return nlp

    def wrap_problem(self, problem):
        """The problem with every evaluator traced."""
        try:
            fields = {e: self.wrap(f"problems.{e}", getattr(problem, e)) for e in EVALUATORS}
            return dataclasses.replace(problem, **fields)
        except (TypeError, AttributeError):
            for e in EVALUATORS:
                self.mark_absent(f"problems.{e}")
            return problem

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as gzip'd tab-separated lines."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tsolve\tresult\n")
            for name, start, end, parent, solve, result in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{solve}\t{result or ''}\n")


def layer_metrics(spans: list, absent, wall_traced: float, wall_untraced: float) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children (spans nest strictly: the solver is single-threaded).
    """
    count = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * count
    in_nlp = [False] * count
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_nlp[i] = in_nlp[parent] or spans[parent][0] in NLP_SOLVES
    self_time = [d - c for d, c in zip(dur, child)]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    def outermost(i, names):
        """No enclosing span is one of ``names``."""
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return False
            p = spans[p][3]
        return True

    def result(i):
        """(status, iterations) of a span; (None, 0) if it was stopped."""
        return spans[i][5] or (None, 0)

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    qp_entry = idx(*QP_ENTRIES)
    qp_nested = idx("qp.solve_qp")
    phase1 = [i for i in qp_nested if parent_name(i) in QP_SOLVES]
    nlp_runs = idx(*NLP_SOLVES)
    nlp_status = [result(i)[0] for i in nlp_runs]
    sqp_iters = sum(result(i)[1] for i in nlp_runs)
    drivers = idx("driver.solve_mpvc")
    stat_top = [i for i in idx(*STATIONARITY) if outermost(i, STATIONARITY)]
    evals = idx(*(f"problems.{e}" for e in EVALUATORS))
    objective_in_nlp = sum(1 for i in idx("problems.f") if in_nlp[i])
    qp_results = [result(i) for i in qp_entry]

    out = {
        "qp.calls": len(qp_entry),
        "qp.busy_s": sum(dur[i] for i in qp_entry),
        "qp.iters": sum(r[1] for r in qp_results),
        "qp.cap_hits": sum(1 for i in idx(*QP_SOLVES) if result(i)[0] == "max_iter"),
        "qp.infeasible": sum(1 for r in qp_results if r[0] == "infeasible"),
        "qp.optimal_frac": (
            sum(1 for r in qp_results if r[0] == "optimal") / len(qp_results) if qp_results else None
        ),
        "qp.phase1_calls": len(phase1),
        "qp.phase1_s": sum(dur[i] for i in phase1),
        "qp.phase1_iters": sum(result(i)[1] for i in phase1),
        "qp.elastic_calls": len(idx("nlp.solve_qp_elastic")),
        "qp.elastic_s": sum(dur[i] for i in idx("nlp.solve_qp_elastic")),
        "qp.fit_calls": len(idx("stationarity.solve_qp")),
        "qp.fit_s": sum(dur[i] for i in idx("stationarity.solve_qp")),
        "nlp.calls": len(nlp_runs),
        "nlp.busy_s": sum(dur[i] for i in nlp_runs),
        "nlp.self_s": sum(self_time[i] for i in nlp_runs),
        "nlp.sqp_iters": sqp_iters,
        "nlp.converged_frac": (
            nlp_status.count("Converged") / len(nlp_runs) if nlp_runs else None
        ),
        "nlp.iter_limit": nlp_status.count("IterLimit"),
        "nlp.linesearch_fail": nlp_status.count("LineSearchFail"),
        "nlp.evals_per_iter": objective_in_nlp / sqp_iters if sqp_iters else None,
        "driver.runs": len(drivers),
        "driver.outer_iters": sum(result(i)[1] for i in drivers),
        "driver.inner_failures": sum(
            1 for i in idx("driver.solve_nlp") if result(i)[0] != "Converged"
        ),
        "driver.self_s": sum(self_time[i] for i in drivers),
        "regularize.calls": len(idx("driver.regularize", "regularize.direct_nlp")),
        "regularize.assemble_s": sum(self_time[i] for i in idx("Nlp.ineq")),
        "problems.calls": len(evals),
        "problems.busy_s": sum(dur[i] for i in evals),
        "stationarity.calls": len(stat_top),
        "stationarity.busy_s": sum(dur[i] for i in stat_top),
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
    }
    missing = set(absent)
    return {
        k: v
        for k, v in out.items()
        if v is not None and not missing.intersection(REQUIRES.get(k, ()))
    }
