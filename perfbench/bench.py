"""Measuring process of the solver benchmark.

Started by ``perfbench/run.py``, which puts ``src`` on the import path and
pins the BLAS to one thread in this process's environment.  Usage:

    python3 perfbench/bench.py --workload academic --seed 1 --seconds 20 --trace 0
    python3 perfbench/bench.py --setup-only --workload ten-bar --seed 1

The load is one client in one process, closed loop: each solve starts when
the previous one has finished and been graded.  A run walks the seeded
instance list in order, solving each instance in every mode of its
workload, and starts no new instance once ``--seconds`` of solve time have
been measured.  With ``--trace 1`` each instance is solved twice, first
untraced (nothing wrapped) and then with the layer entry points wrapped
(see ``spans.py``); the per-layer metrics come from the traced solves.
Solve times are also expressed in units of a reference computation timed
around them (``reference_seconds``), which cancels the host's speed drift.

The last stdout line is one JSON object with the raw metrics of the pass;
lines before it, each starting with ``#``, are the human-readable report.
Exit status 1 means a ``Converged`` certificate failed
``check_eps_stationary``; the offending solves are named on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# numpy is imported inside functions, after mpvc, so that importing it
# counts in the set-up time.
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402  (the benchmark's own spans.py)

ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
MODULE_NAMES = ("driver", "regularize", "nlp", "qp", "stationarity", "problems", "model", "errors")

ALL_MODES = ("global", "local", "lshaped", "nonsmooth", "direct")


@dataclass(frozen=True)
class Workload:
    family: str        # problem family; one seed gives one family the same inputs
    modes: tuple       # every instance is solved once per mode, in this order
    pool: int          # instances generated: several times what the current
                       # solver gets through in 60 s, so a faster one still
                       # finds fresh inputs
    cap_s: float       # a solve running longer is stopped and counted as
                       # failed; this bounds a run (one ten-bar LOCAL solve
                       # has taken 80 s in a QP cycle) so that a traced run,
                       # which solves every instance twice, ends within 180 s
    max_iter: int | None = None        # SolverLimits.max_iter; None: the default


WORKLOADS = {
    "academic": Workload("academic", ALL_MODES, 6000, 30.0),
    "ten-bar": Workload("ten-bar", ALL_MODES, 600, 30.0),
    "ten-bar-gld": Workload("ten-bar", ("global", "lshaped", "direct"), 600, 30.0),
    "aerothermo": Workload("aerothermo", ("lshaped", "local", "direct"), 12, 60.0, 400),
}
FAMILIES = ("academic", "ten-bar", "aerothermo")
VIOLATION_TOL = 1e-6          # full_violation bound of a successful solve
GRADE_TAU = 1e-4              # classify tolerance, as in ``mpvc grid``
DIRECT_EPS = 1e-9             # eps_target of the direct baseline
REFERENCE_EVERY_S = 2.0       # measured solve time between reference samples


@dataclass
class Instance:
    problem: object
    x0: object
    label: str


@dataclass
class SolveRecord:
    instance: int
    mode: str
    seconds: float
    sqp_iters: int = 0
    x: object = None
    f: float = math.nan
    failure: str | None = None
    errored: bool = False               # raised, timed out or non-finite: no answer
    target: bool = False
    certificate: str | None = None      # why a Converged certificate was rejected
    ref_s: float = math.nan             # reference time around this solve


@dataclass
class Pass:
    solves: list = field(default_factory=list)
    instances: int = 0
    measured_s: float = 0.0
    rejected: list = field(default_factory=list)   # names of rejected certificates
    references: list = field(default_factory=list)  # reference samples, seconds


# --------------------------------------------------------------------------
# set-up: import, problems, inputs
# --------------------------------------------------------------------------
def load_modules() -> dict:
    """The library's modules by short name.  ``importlib`` is used because
    the package re-exports functions under some module names (for
    instance ``mpvc.regularize`` is also a function)."""
    return {name: importlib.import_module(f"mpvc.{name}") for name in MODULE_NAMES}


def make_instances(mods: dict, family: str, seed: int, count: int) -> list:
    """The seeded inputs of one run; the solver receives only these."""
    import numpy as np

    rng = np.random.default_rng([seed, FAMILIES.index(family)])
    problems = mods["problems"]
    if family == "academic":
        prob = problems.academic()
        return [
            Instance(prob, rng.uniform(-5.0, 20.0, size=2), f"start {k}") for k in range(count)
        ]
    if family == "ten-bar":
        prob = problems.ten_bar()
        geo = prob.meta["geometry"]
        out = []
        for k in range(count):
            a = rng.uniform(0.5, 2.0, size=geo.n_members)
            u = np.linalg.solve(problems.assemble_stiffness(geo, a), geo.load)
            out.append(Instance(prob, np.concatenate([a, u]), f"start {k}"))
        return out
    if family == "aerothermo":
        aero = importlib.import_module("mpvc.problems.aerothermo")
        out = []
        for k in range(count):
            consts = aero.default_constants()
            factor = float(rng.uniform(5.0, 7.0))
            consts["K_e"] *= factor
            prob = aero.aerothermo(N=4, constants=consts)
            out.append(Instance(prob, prob.known_points["x0"], f"K_e x{factor:.4f}"))
        return out
    raise ValueError(f"unknown problem family {family!r}")


def set_up(workload: str, seed: int) -> tuple:
    """Import mpvc, build the problems and the starts; returns
    (modules, instances, seconds taken)."""
    t0 = time.perf_counter()
    mods = load_modules()
    spec = WORKLOADS[workload]
    instances = make_instances(mods, spec.family, seed, spec.pool)
    return mods, instances, time.perf_counter() - t0


# --------------------------------------------------------------------------
# one solve: driver run or direct solve, then multiplier recovery + grading
# --------------------------------------------------------------------------
def solve_timed(mods: dict, problem, x0, mode: str, limits) -> dict:
    """The timed part of a solve.  Every library call goes through the
    module attribute, which is where a tracer wraps it."""
    stationarity = mods["stationarity"]
    if mode == "direct":
        nlp = mods["regularize"].direct_nlp(problem)
        sol = mods["nlp"].solve_nlp(nlp, x0, eps_target=DIRECT_EPS, limits=limits)
        try:
            mult, _ = stationarity.find_multipliers(problem, sol.x)
            grade = stationarity.classify(problem, sol.x, mult, tau=GRADE_TAU).grade
        except mods["errors"].PreconditionError:
            grade = stationarity.Grade.NOT_WEAK      # too infeasible to fit
        return {"x": sol.x, "sol": sol, "nlp": nlp, "eps": DIRECT_EPS, "grade": grade,
                "iters": sol.total_iterations or sol.iterations}
    scheme = mods["regularize"].Scheme(mode)
    config = mods["driver"].DriverConfig(scheme=scheme, limits=limits)
    res = mods["driver"].solve_mpvc(problem, config, x0)
    if res.last_solution is not None:
        mult = stationarity.recover_mpvc_multipliers(
            problem, scheme, res.last_t, res.last_solution, config.tau_act
        )
    else:
        mult, _ = stationarity.find_multipliers(problem, res.x)
    grade = stationarity.classify(problem, res.x, mult, tau=GRADE_TAU).grade
    return {"x": res.x, "res": res, "config": config, "grade": grade,
            "iters": res.trace.total_inner_iterations}


def certificate_error(mods: dict, nlp, sol, eps: float) -> str | None:
    """None when a Converged certificate passes check_eps_stationary."""
    if sol.status is not mods["nlp"].SolveStatus.CONVERGED:
        return None
    ok, breakdown = mods["nlp"].check_eps_stationary(nlp, sol.x, sol.lam, sol.mu, eps)
    if ok:
        return None
    worst = max(breakdown, key=breakdown.get)
    return f"eps={eps:g} but {worst}={breakdown[worst]:.3e}"


def grade_outcome(mods: dict, problem, mode: str, out: dict, rec: SolveRecord,
                  check_final: bool) -> None:
    """Fill rec's failure fields (outside timing); with ``check_final``
    also check the final inner certificate."""
    import numpy as np

    model = mods["model"]
    x = out["x"]
    rec.x = x
    rec.sqp_iters = int(out["iters"])
    if not np.all(np.isfinite(x)):
        rec.failure = "non-finite point"
        rec.errored = True
        return
    rec.f = float(problem.f(x)[0])
    cert = None
    if mode == "direct":
        if check_final:
            cert = certificate_error(mods, out["nlp"], out["sol"], out["eps"])
        status = out["sol"].status
        if status is not mods["nlp"].SolveStatus.CONVERGED:
            rec.failure = f"direct ended {status.value}"
    else:
        res, config = out["res"], out["config"]
        if check_final and res.last_solution is not None:
            nlp = mods["regularize"].regularize(problem, config.scheme, res.last_t)
            cert = certificate_error(mods, nlp, res.last_solution, config.inner_eps(res.last_t))
        if res.trace.reason is not mods["driver"].StopReason.FEASIBILITY:
            rec.failure = f"driver ended {res.trace.reason.value}"
    vio = model.full_violation(problem, x)
    if rec.failure is None and vio > VIOLATION_TOL:
        rec.failure = f"full_violation {vio:.2e}"
    if cert is not None:
        rec.certificate = cert
        rec.failure = rec.failure or "certificate rejected"


# --------------------------------------------------------------------------
# acceptance targets (tests/test_acceptance.py criteria 3, 4 and 6)
# --------------------------------------------------------------------------
def mark_targets(family: str, problem, records: list) -> None:
    import numpy as np

    ok = [r for r in records if r.failure is None]
    if family == "academic":
        refs = [problem.known_points[k] for k in ("xo", "xstar", "xplus")]
        for r in ok:
            r.target = any(float(np.max(np.abs(r.x - ref))) < 1e-3 for ref in refs)
    elif family == "ten-bar":
        for r in ok:
            r.target = abs(r.f - 8.0) <= 1e-2 or (r.mode == "nonsmooth" and r.f <= 8.2)
    else:
        direct = [r for r in records if r.mode == "direct"]
        f_direct = direct[0].f if direct else math.nan
        unpack = problem.meta["unpack"]
        for r in ok:
            traj = unpack(r.x)
            qt = traj["Q_T_j_cm2"][-1]
            products = problem.G(r.x)[0] * problem.H(r.x)[0]
            r.target = bool(
                traj["h_km"][-1] * 1000.0 <= 500.0 + 1e-3
                and np.isfinite(qt)
                and qt > 0.0
                and np.max(products) <= 1e-6
                and (r.mode == "direct" or r.f <= f_direct)
            )


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------
class SolveTimeout(BaseException):
    """Raised by SIGALRM inside a solve that ran past its cap.  Not an
    Exception, so no ``except Exception`` in the library can swallow it."""


def _raise_timeout(signum, frame):
    raise SolveTimeout


@contextlib.contextmanager
def solve_caps():
    """Route SIGALRM to SolveTimeout for the duration of a pass."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def capped_solve(mods: dict, problem, x0, mode: str, limits, cap: float) -> tuple:
    """(output or None, error or None, seconds) of one timed solve."""
    out, error = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        out = solve_timed(mods, problem, x0, mode, limits)
    except SolveTimeout:
        error = f"stopped after {cap:g} s"
    except Exception as exc:       # a failed solve is a result, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return out, error, time.perf_counter() - t0


def solve_instance(mods, workload, seed, instances, index, run, tracer=None) -> None:
    """Solve one instance in every mode and append the graded records to
    ``run``.  Checks run outside the timed region: the final inner
    certificate of each solve or, with a tracer, every inner certificate."""
    spec = WORKLOADS[workload]
    limits = (mods["nlp"].SolverLimits() if spec.max_iter is None
              else mods["nlp"].SolverLimits(max_iter=spec.max_iter))
    inst = instances[index]
    problem = tracer.wrap_problem(inst.problem) if tracer else inst.problem
    records = []
    for mode in spec.modes:
        if tracer:
            tracer.solve = len(run.solves) + len(records)
        out, error, seconds = capped_solve(mods, problem, inst.x0, mode, limits, spec.cap_s)
        rec = SolveRecord(index, mode, seconds)
        run.measured_s += rec.seconds
        records.append(rec)
        if error:
            rec.failure, rec.errored = error, True
            if tracer:
                tracer.close_open_spans()
            continue
        if tracer:
            tracer.paused = True
        grade_outcome(mods, inst.problem, mode, out, rec, check_final=tracer is None)
        if tracer:
            tracer.paused = False
    if tracer:
        check_inner_solves(mods, workload, seed, instances, run, records, tracer)
    mark_targets(spec.family, inst.problem, records)
    for rec in records:
        if rec.certificate:
            run.rejected.append(f"{solve_name(workload, seed, instances, rec)}: {rec.certificate}")
    run.solves.extend(records)
    run.instances += 1


def reference_seconds() -> float:
    """Time of a fixed computation that never touches mpvc: small dense
    solves and Python bookkeeping, like the solver's inner loops.  The
    speed of a shared host drifts by tens of percent within a minute, and
    the solver's times drift with this one (their ratio varied 3% where
    each varied 13%), so solve times are also reported in its units."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((24, 24))
    m = m @ m.T + 24.0 * np.eye(24)
    v = rng.standard_normal(24)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(4000):
        x = np.linalg.solve(m, v)
        worst = max(worst, float(np.max(np.abs(m @ x - v))))
    elapsed = time.perf_counter() - t0
    if not worst < 1e-8:
        raise RuntimeError(f"reference computation lost accuracy ({worst:.1e})")
    return elapsed


def run_pass(mods: dict, workload: str, seed: int, instances: list, seconds=math.inf,
             count=None, tracer=None) -> tuple:
    """Solve instances in order until ``seconds`` of untraced solve time are
    measured or ``count`` instances are done; returns the untraced and the
    traced Pass.  With a tracer each instance is solved twice, untraced and
    then traced, so the tracing overhead is compared on the same instances
    seconds apart; the untraced solve wraps nothing.  A reference sample is
    taken before the first and after every ``REFERENCE_EVERY_S`` of untraced
    solves; each solve's ``ref_s`` is the mean of the two samples around it."""
    untraced, traced = Pass(), Pass()
    untraced.references.append(reference_seconds())
    window = []
    with solve_caps():
        for index in range(len(instances)):
            if index == count or untraced.measured_s >= seconds:
                break
            done = len(untraced.solves)
            solve_instance(mods, workload, seed, instances, index, untraced)
            window += untraced.solves[done:]
            if sum(r.seconds for r in window) >= REFERENCE_EVERY_S:
                close_window(untraced, window)
            if tracer:
                tracer.install(mods)
                try:
                    solve_instance(mods, workload, seed, instances, index, traced, tracer)
                finally:
                    tracer.uninstall()
    if window:
        close_window(untraced, window)
    return untraced, traced


def close_window(run: Pass, window: list) -> None:
    run.references.append(reference_seconds())
    for rec in window:
        rec.ref_s = 0.5 * (run.references[-2] + run.references[-1])
    window.clear()


def check_inner_solves(mods, workload, seed, instances, run, records, tracer) -> None:
    """Check every Converged inner certificate the tracer saw."""
    tracer.paused = True
    try:
        base = len(run.solves)
        for solve_id, nlp, sol, eps in tracer.inner_solves:
            cert = certificate_error(mods, nlp, sol, eps)
            if cert is None:
                continue
            rec = records[solve_id - base]
            t = nlp.provenance.t if nlp.provenance is not None else math.nan
            run.rejected.append(
                f"{solve_name(workload, seed, instances, rec)} inner t={t:g}: {cert}"
            )
            rec.failure = rec.failure or "certificate rejected"
        tracer.inner_solves.clear()
    finally:
        tracer.paused = False


def solve_name(workload, seed, instances, rec) -> str:
    return (f"{workload} seed={seed} instance={rec.instance} "
            f"({instances[rec.instance].label}) mode={rec.mode}")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------
def end_to_end(run: Pass) -> dict:
    times = [r.seconds for r in run.solves]
    n = len(times)
    failed = sum(1 for r in run.solves if r.failure)
    out = {
        "wall_s": run.measured_s,
        "solves": n,
        "instances": run.instances,
        "solve_s_p50": statistics.median(times),
        "solves_per_s": n / run.measured_s,
        "failed_frac": failed / n,
        "errored": sum(1 for r in run.solves if r.errored),
        "target_frac": sum(1 for r in run.solves if r.target) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sqp_iters": sum(r.sqp_iters for r in run.solves),
    }
    if run.references:             # the untraced pass
        # Per-mode medians, so the result does not hinge on where the
        # pooled median falls between the modes' clusters.
        out["mode_p50_ref"] = statistics.geometric_mean(
            statistics.median(r.seconds / r.ref_s for r in run.solves if r.mode == mode)
            for mode in dict.fromkeys(r.mode for r in run.solves)
        )
        out["reference_s"] = statistics.median(run.references)
    if n >= 100:                   # at least ten samples above the p90
        out["solve_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return out


def per_mode(run: Pass) -> dict:
    out = {}
    for mode in dict.fromkeys(r.mode for r in run.solves):
        rs = [r for r in run.solves if r.mode == mode]
        out[mode] = {
            "solves": len(rs),
            "solve_s_p50": statistics.median(r.seconds for r in rs),
            "solve_s_max": max(r.seconds for r in rs),
            "failed": sum(1 for r in rs if r.failure),
            "target": sum(1 for r in rs if r.target),
            "sqp_iters": sum(r.sqp_iters for r in rs),
        }
    return out


def environment() -> dict:
    """What a result depends on besides the code: interpreter, numpy,
    BLAS and its thread count, cores, commit."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    mods, instances, setup_s = set_up(workload, seed)
    tracer = tracing.Tracer() if trace else None
    untraced, traced = run_pass(mods, workload, seed, instances, seconds=seconds, tracer=tracer)
    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "env": environment(),
        "end_to_end": end_to_end(untraced),
        "per_mode": per_mode(untraced),
        "rejected": untraced.rejected + traced.rejected,
    }
    if trace:
        result["per_layer"] = tracing.layer_metrics(
            tracer.spans, tracer.absent, traced.measured_s, untraced.measured_s
        )
        result["absent"] = list(tracer.absent)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def report(result: dict) -> list:
    """Human-readable lines, each starting with '#'."""
    e = result["end_to_end"]
    lines = [
        "# env " + " ".join(f"{k}={v}" for k, v in result["env"].items()),
        f"# {result['workload']} seed={result['seed']}: {e['instances']} instances, "
        f"{e['solves']} solves, {e['wall_s']:.2f} s measured",
    ]
    for mode, s in result["per_mode"].items():
        lines.append(
            f"#   {mode:<9} solves={s['solves']:<5} p50={s['solve_s_p50']:.4f} s "
            f"max={s['solve_s_max']:.3f} s failed={s['failed']} target={s['target']} "
            f"sqp_iters={s['sqp_iters']}"
        )
    for name in result.get("absent", []):
        lines.append(f"#   entry point {name} not found: its metrics are absent")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only time the set-up and print it as JSON")
    args = ap.parse_args(argv)
    if args.setup_only:
        _, _, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1, default=str))
    for line in report(result):
        print(line)
    for msg in result["rejected"]:
        print(f"perfbench: check_eps_stationary rejected a Converged certificate: {msg}",
              file=sys.stderr)
    print(json.dumps(result, default=str))
    return 1 if result["rejected"] else 0


if __name__ == "__main__":
    sys.exit(main())
