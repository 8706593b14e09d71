"""Command-line front end.

Subcommands:

* ``solve``  one driver run (or a direct solve with ``--scheme none``);
  writes a result JSON and a per-iteration trace CSV
* ``grid``   a grid of independent starts; writes a per-start CSV plus a
  summary JSON with iteration totals and attractor-bucket counts
* ``check``  point diagnostics: index sets, fitted multipliers with the
  stationarity grade, MPVC-LICQ / MPVC-MFCQ reports, all as JSON
* ``bench``  the benchmark suite (ten-bar truss across schemes plus the
  certified counterexample oracles); writes a summary JSON

Exit codes: 0 success, 1 solver failure, 2 usage error.  Grid starts can
run in parallel (``--jobs``); rows are collected sorted by grid index so
output files are byte-identical regardless of scheduling.
"""
from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .driver import DriverConfig, StopReason, solve_mpvc
from .model import full_violation, index_sets, max_vio
from .nlp import SolverLimits, SolveStatus, check_eps_stationary, solve_nlp
from .cq import check_mpvc_licq, check_mpvc_mfcq
from .problems import by_name, counterexamples
from .regularize import Scheme, direct_nlp, regularize
from .stationarity import classify, find_multipliers, recover_mpvc_multipliers

BUCKET_RADIUS = 1e-3          # max-norm radius for attractor bucketing


def _problem_from_args(args) -> tuple:
    kwargs = {}
    if args.problem == "aerothermo":
        if getattr(args, "nodes", None):
            kwargs["N"] = args.nodes
        if getattr(args, "config", None):
            cfg = json.loads(Path(args.config).read_text())
            if "aerothermo_constants" in cfg:
                kwargs["constants"] = cfg["aerothermo_constants"]
    return by_name(args.problem, **kwargs)


def _driver_config(args, scheme: Scheme) -> DriverConfig:
    """DriverConfig with the config file's "driver" keys, which are
    DriverConfig's own fields plus ``max_inner_iter`` (SolverLimits)."""
    overrides = {}
    if getattr(args, "config", None):
        overrides = dict(json.loads(Path(args.config).read_text()).get("driver", {}))
    allowed = {f.name for f in fields(DriverConfig) if f.name not in ("scheme", "limits")}
    unknown = set(overrides) - allowed - {"max_inner_iter"}
    if unknown:
        raise ValueError(f"unknown driver config keys: {sorted(unknown)}")
    if "max_inner_iter" in overrides:
        overrides["limits"] = SolverLimits(max_iter=int(overrides.pop("max_inner_iter")))
    for key in set(overrides) & (allowed - {"eps_inner"}):
        overrides[key] = float(overrides[key])
    return DriverConfig(scheme=scheme, **overrides)


def _parse_x0(text: str, n: int) -> np.ndarray:
    vals = np.array([float(v) for v in text.split(",")], dtype=float)
    if vals.size != n:
        raise ValueError(f"--x0 has {vals.size} entries, problem needs {n}")
    return vals


def _default_x0(problem) -> np.ndarray:
    if "x0" in problem.known_points:
        return problem.known_points["x0"].copy()
    return np.zeros(problem.n)


def run_single(problem, scheme_name: str, config_builder, x0):
    """One solve; returns (result dict, trace rows or None)."""
    if scheme_name == "none":
        nlp = direct_nlp(problem)
        sol = solve_nlp(nlp, x0, eps_target=1e-9)
        x = sol.x
        grade = _grade_at(problem, x)
        result = {
            "scheme": "none",
            "x": x.tolist(),
            "f": problem.f(x)[0],
            "max_vio": max_vio(problem, x),
            "full_violation": full_violation(problem, x),
            "grade": grade,
            "outer_iterations": 1,
            "inner_iterations": sol.total_iterations,
            "status": sol.status.value,
            "converged": sol.status is SolveStatus.CONVERGED,
        }
        return result, None

    scheme = Scheme(scheme_name)
    config = config_builder(scheme)
    res = solve_mpvc(problem, config, x0)
    if res.last_solution is not None and res.last_t is not None:
        mult = recover_mpvc_multipliers(
            problem, scheme, res.last_t, res.last_solution, config.tau_act
        )
        grade = classify(problem, res.x, mult, tau=1e-4).grade.label()
    else:
        grade = _grade_at(problem, res.x)
    result = {
        "scheme": scheme_name,
        "x": res.x.tolist(),
        "f": res.f,
        "max_vio": max_vio(problem, res.x),
        "full_violation": full_violation(problem, res.x),
        "grade": grade,
        "outer_iterations": res.trace.outer_iterations,
        "inner_iterations": res.trace.total_inner_iterations,
        "termination": res.trace.reason.value,
        "converged": res.trace.reason is StopReason.FEASIBILITY,
    }
    return result, res.trace


def _grade_at(problem, x) -> str:
    try:
        mult, _ = find_multipliers(problem, x)
    except Exception:
        return "NotWeak"
    return classify(problem, x, mult, tau=1e-4).grade.label()


def bucket_of(problem, x: np.ndarray) -> str:
    for label, ref in problem.known_points.items():
        if label == "x0":
            continue
        if np.max(np.abs(x - ref)) < BUCKET_RADIUS:
            return label
    return "neither"


def _grid_points(spec: str) -> list:
    parts = [float(v) for v in spec.split(",")]
    if len(parts) != 6:
        raise ValueError("--grid needs xmin,xmax,nx,ymin,ymax,ny")
    xmin, xmax, nx, ymin, ymax, ny = parts
    xs = np.linspace(xmin, xmax, int(nx))
    ys = np.linspace(ymin, ymax, int(ny))
    return [np.array([x, y]) for y in ys for x in xs]


def _grid_worker(job):
    idx, problem_name, scheme_name, x0_list, config_json = job
    problem = by_name(problem_name)
    x0 = np.array(x0_list)

    def builder(scheme):
        kw = dict(config_json)
        return DriverConfig(scheme=scheme, **kw)

    try:
        result, _ = run_single(problem, scheme_name, builder, x0)
        term = np.array(result["x"])
        bucket = bucket_of(problem, term)
        row = {
            "index": idx,
            "x0_1": x0[0],
            "x0_2": x0[1],
            "x_1": term[0],
            "x_2": term[1],
            "f": result["f"],
            "bucket": bucket,
            "grade": result["grade"],
            "converged": result["converged"],
            "outer_iterations": result["outer_iterations"],
            "inner_iterations": result["inner_iterations"],
        }
    except Exception:
        row = {
            "index": idx,
            "x0_1": x0[0],
            "x0_2": x0[1],
            "x_1": np.nan,
            "x_2": np.nan,
            "f": np.nan,
            "bucket": "neither",
            "grade": "NotWeak",
            "converged": False,
            "outer_iterations": 0,
            "inner_iterations": 0,
        }
    return row


def run_grid(problem_name: str, scheme_name: str, points: list, jobs: int = 1,
             driver_kwargs: dict | None = None) -> tuple:
    """Independent solves from every start; returns (rows, summary)."""
    driver_kwargs = driver_kwargs or {}
    jobs_list = [
        (i, problem_name, scheme_name, p.tolist(), driver_kwargs)
        for i, p in enumerate(points)
    ]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_grid_worker, jobs_list)
    else:
        rows = [_grid_worker(j) for j in jobs_list]
    rows.sort(key=lambda r: r["index"])
    problem = by_name(problem_name)
    labels = [k for k in problem.known_points if k != "x0"] + ["neither"]
    summary = {
        "scheme": scheme_name,
        "starts": len(rows),
        "total_outer_iterations": int(sum(r["outer_iterations"] for r in rows)),
        "total_inner_iterations": int(sum(r["inner_iterations"] for r in rows)),
        "buckets": {lab: sum(1 for r in rows if r["bucket"] == lab) for lab in labels},
    }
    return rows, summary


def cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    x0 = _parse_x0(args.x0, problem.n) if args.x0 else _default_x0(problem)
    result, trace = run_single(problem, args.scheme, lambda s: _driver_config(args, s), x0)
    result["problem"] = args.problem
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=2))
    if trace is not None:
        trace.to_csv(out / "trace.csv")
    print(json.dumps({k: result[k] for k in ("problem", "scheme", "f", "full_violation",
                                             "grade", "outer_iterations")}, indent=2))
    return 0 if result["converged"] else 1


def cmd_grid(args) -> int:
    if not args.grid:
        print("grid subcommand requires --grid", file=sys.stderr)
        return 2
    points = _grid_points(args.grid)
    rows, summary = run_grid(args.problem, args.scheme, points, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "grid.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "index", "x0_1", "x0_2", "x_1", "x_2", "f", "bucket",
                "grade", "converged", "outer_iterations", "inner_iterations",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def cmd_check(args) -> int:
    problem = _problem_from_args(args)
    if not args.x0:
        print("check subcommand requires --x0", file=sys.stderr)
        return 2
    x = _parse_x0(args.x0, problem.n)
    report = {
        "problem": args.problem,
        "x": x.tolist(),
        "max_vio": max_vio(problem, x),
        "full_violation": full_violation(problem, x),
        "index_sets": index_sets(problem, x, 1e-8).as_dict(),
        "mpvc_licq": check_mpvc_licq(problem, x).as_dict(),
        "mpvc_mfcq": check_mpvc_mfcq(problem, x).as_dict(),
    }
    try:
        mult, resid = find_multipliers(problem, x)
        rep = classify(problem, x, mult, tau=1e-4)
        report["multipliers"] = mult.as_dict()
        report["fit_residual"] = resid
        report["grade"] = rep.grade.label()
        report["stationarity"] = rep.as_dict()
    except Exception as exc:
        report["grade"] = "NotWeak"
        report["note"] = f"multiplier fit unavailable: {exc}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "check.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0


def cmd_bench(args) -> int:
    results = {"ten_bar": {}, "counterexamples": {}}
    problem = by_name("ten_bar")
    x0 = problem.known_points["x0"]
    for scheme in ["global", "local", "lshaped", "nonsmooth", "none"]:
        res, _ = run_single(problem, scheme, lambda s: _driver_config(args, s), x0)
        results["ten_bar"][scheme] = {
            "f": res["f"],
            "full_violation": res["full_violation"],
            "outer_iterations": res["outer_iterations"],
        }
    for fam in counterexamples():
        checks = {}
        for t in (1e-1, 1e-2, 1e-3):
            nlp = regularize(fam.problem, fam.scheme, t)
            lam = np.zeros(nlp.n_ineq)
            lam[nlp.provenance.rows_neg_H[0]] = fam.nu_of_t(t)
            lam[nlp.provenance.rows_kernel[0]] = fam.delta_of_t(t)
            ok, _ = check_eps_stationary(nlp, fam.x_of_t(t), lam, np.zeros(0), fam.eps_of_t(t))
            checks[f"t={t:g}"] = bool(ok)
        results["counterexamples"][fam.name] = checks
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(json.dumps(results, indent=2))
    print(json.dumps(results, indent=2))
    ok = all(all(v.values()) for v in results["counterexamples"].values())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpvc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("solve", cmd_solve), ("grid", cmd_grid),
                     ("check", cmd_check), ("bench", cmd_bench)]:
        p = sub.add_parser(name)
        p.add_argument("--problem", default="academic",
                       choices=["academic", "ten_bar", "aerothermo"])
        p.add_argument("--scheme", default="global",
                       choices=["global", "local", "lshaped", "nonsmooth", "none"])
        p.add_argument("--x0", default=None, help="comma-separated start point")
        p.add_argument("--grid", default=None,
                       help="xmin,xmax,nx,ymin,ymax,ny (grid subcommand)")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--nodes", type=int, default=None,
                       help="time intervals for the aerothermo problem")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
