"""Command-line front end.

Subcommands:

* ``solve``  one driver run (or a direct solve with ``--scheme none``);
  writes a result JSON and a per-iteration trace CSV
* ``grid``   a grid of independent starts of a two-variable problem; writes
  a per-start CSV plus a summary JSON with iteration totals and
  attractor-bucket counts
* ``check``  point diagnostics: index sets and MPVC-LICQ / MPVC-MFCQ
  reports banded with the config's ``tau_act``, and multipliers fitted
  with the grade ``grade_at`` gives at tau = 1e-4, all as JSON

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
from .errors import PreconditionError
from .model import full_violation, index_sets, max_vio
from .nlp import SolverLimits, SolveStatus, solve_nlp
from .cq import check_mpvc_licq, check_mpvc_mfcq
from .problems import by_name
from .regularize import Scheme, direct_nlp
from .stationarity import classify, find_multipliers, grade_at, recover_mpvc_multipliers

BUCKET_RADIUS = 1e-3          # max-norm radius for attractor bucketing
_DRIVER_KEYS = {f.name for f in fields(DriverConfig)} - {"scheme", "limits"}


def _load_config(path, problem_name: str) -> dict:
    """The ``--config`` JSON object: ``"driver"`` overrides, plus
    ``"aerothermo_constants"`` for the aerothermo problem."""
    if path is None:
        return {}
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict) or not all(
        isinstance(config.get(key, {}), dict) for key in ("driver", "aerothermo_constants")
    ):
        raise ValueError("the config file and its entries must be JSON objects")
    allowed = {"driver", "aerothermo_constants"} if problem_name == "aerothermo" else {"driver"}
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown config keys for {problem_name}: {sorted(unknown)}")
    return config


def _problem_from_args(args, config: dict):
    if args.problem != "aerothermo":
        return by_name(args.problem)
    kwargs = {"N": args.nodes} if args.nodes is not None else {}
    return by_name("aerothermo", constants=config.get("aerothermo_constants"), **kwargs)


def _driver_config(scheme: Scheme, overrides: dict) -> DriverConfig:
    """DriverConfig from the config file's "driver" keys: DriverConfig's own
    fields (numbers; ``eps_inner`` may be null) plus ``max_inner_iter``."""
    kwargs = {}
    for key, value in overrides.items():
        try:
            if key == "max_inner_iter":
                kwargs["limits"] = SolverLimits(max_iter=int(value))
            elif key in _DRIVER_KEYS:
                kwargs[key] = None if value is None and key == "eps_inner" else float(value)
            else:
                raise ValueError(f"unknown driver config key {key!r}")
        except TypeError:
            raise ValueError(f"driver config key {key!r} needs a number, not {value!r}") from None
    return DriverConfig(scheme=scheme, **kwargs)


def _parse_x0(text: str, n: int) -> np.ndarray:
    vals = np.array([float(v) for v in text.split(",")], dtype=float)
    if vals.size != n:
        raise ValueError(f"--x0 has {vals.size} entries, problem needs {n}")
    return vals


def run_single(problem, scheme_name: str, driver_overrides: dict, x0):
    """One solve, direct (``"none"``) or through the driver, with the config
    file's "driver" keys checked for every scheme; a direct solve reads only
    ``max_inner_iter``.  Returns (result dict, driver trace or None)."""
    if scheme_name == "none":
        limits = _driver_config(Scheme.GLOBAL, driver_overrides).limits
        sol = solve_nlp(direct_nlp(problem), x0, eps_target=1e-9, limits=limits)
        x, trace, grade = sol.x, None, grade_at(problem, sol.x, 1e-4).label()
        mode = {
            "outer_iterations": 1,
            "inner_iterations": sol.total_iterations,
            "status": sol.status.value,
            "converged": sol.status is SolveStatus.CONVERGED,
        }
    else:
        scheme = Scheme(scheme_name)
        config = _driver_config(scheme, driver_overrides)
        res = solve_mpvc(problem, config, x0)
        x, trace = res.x, res.trace
        mult = None if res.last_solution is None else recover_mpvc_multipliers(
            problem, scheme, res.last_t, res.last_solution, config.tau_act)
        grade = grade_at(problem, x, 1e-4, recovered=mult).label()
        mode = {
            "outer_iterations": trace.outer_iterations,
            "inner_iterations": trace.total_inner_iterations,
            "termination": trace.reason.value,
            "converged": trace.reason is StopReason.FEASIBILITY,
        }
    result = {
        "scheme": scheme_name,
        "x": x.tolist(),
        "f": float(problem.f(x)[0]),
        "max_vio": max_vio(problem, x),
        "full_violation": full_violation(problem, x),
        "grade": grade,
        **mode,
    }
    return result, trace


def bucket_of(problem, x: np.ndarray) -> str:
    for label, ref in problem.known_points.items():
        if label != "x0" and np.max(np.abs(x - ref)) < BUCKET_RADIUS:
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
    idx, problem_name, scheme_name, x0_list, driver_overrides = job
    problem = by_name(problem_name)
    x0 = np.array(x0_list)
    result, _ = run_single(problem, scheme_name, driver_overrides, x0)
    x = np.array(result["x"])
    row = {"index": idx, "x0_1": x0[0], "x0_2": x0[1], "x_1": x[0], "x_2": x[1],
           "f": result["f"], "bucket": bucket_of(problem, x)}
    for key in ("grade", "converged", "outer_iterations", "inner_iterations"):
        row[key] = result[key]
    return row


def run_grid(problem_name: str, scheme_name: str, points: list, jobs: int = 1,
             driver_overrides: dict | None = None) -> tuple:
    """Independent solves of a two-variable problem from every start;
    returns (rows, summary)."""
    problem = by_name(problem_name)
    if problem.n != 2:
        raise ValueError(f"grid needs a two-variable problem; {problem_name} has n = {problem.n}")
    jobs_list = [
        (i, problem_name, scheme_name, p.tolist(), driver_overrides or {})
        for i, p in enumerate(points)
    ]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_grid_worker, jobs_list)
    else:
        rows = [_grid_worker(j) for j in jobs_list]
    rows.sort(key=lambda r: r["index"])
    labels = [k for k in problem.known_points if k != "x0"] + ["neither"]
    summary = {
        "scheme": scheme_name,
        "starts": len(rows),
        "total_outer_iterations": int(sum(r["outer_iterations"] for r in rows)),
        "total_inner_iterations": int(sum(r["inner_iterations"] for r in rows)),
        "buckets": {lab: sum(1 for r in rows if r["bucket"] == lab) for lab in labels},
    }
    return rows, summary


def cmd_solve(args, config: dict) -> int:
    problem = _problem_from_args(args, config)
    if args.x0:
        x0 = _parse_x0(args.x0, problem.n)
    else:
        x0 = problem.known_points.get("x0", np.zeros(problem.n))
    result, trace = run_single(problem, args.scheme, config.get("driver", {}), x0)
    result["problem"] = args.problem
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=2))
    if trace is not None:
        trace.to_csv(out / "trace.csv")
    print(json.dumps({k: result[k] for k in ("problem", "scheme", "f", "full_violation",
                                             "grade", "outer_iterations")}, indent=2))
    return 0 if result["converged"] else 1


def cmd_grid(args, config: dict) -> int:
    points = _grid_points(args.grid)
    rows, summary = run_grid(args.problem, args.scheme, points, jobs=args.jobs,
                             driver_overrides=config.get("driver", {}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "grid.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def cmd_check(args, config: dict) -> int:
    problem = _problem_from_args(args, config)
    x = _parse_x0(args.x0, problem.n)
    # the "driver" keys are checked as for solve; check reads only tau_act,
    # for the index sets and CQ reports (the fit is banded as grade_at's)
    tau_act = _driver_config(Scheme.GLOBAL, config.get("driver", {})).tau_act
    report = {
        "problem": args.problem,
        "x": x.tolist(),
        "max_vio": max_vio(problem, x),
        "full_violation": full_violation(problem, x),
        "index_sets": index_sets(problem, x, tau_act),
        "mpvc_licq": check_mpvc_licq(problem, x, tau_act).as_dict(),
        "mpvc_mfcq": check_mpvc_mfcq(problem, x, tau_act).as_dict(),
    }
    try:
        mult, resid = find_multipliers(problem, x, tau=1e-4)
        rep = classify(problem, x, mult, tau=1e-4)
        report["multipliers"] = mult.as_dict()
        report["fit_residual"] = resid
        report["grade"] = rep.grade.label()
        report["stationarity"] = rep.as_dict()
    except PreconditionError as exc:
        report["grade"] = "NotWeak"
        report["note"] = f"multiplier fit unavailable: {exc}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "check.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0


_FLAGS = {
    "problem": dict(default="academic", choices=["academic", "ten_bar", "aerothermo"]),
    "scheme": dict(default="global", choices=[s.value for s in Scheme] + ["none"]),
    "x0": dict(help="comma-separated start point"),
    "grid": dict(help="xmin,xmax,nx,ymin,ymax,ny"),
    "config": dict(help="JSON config file"),
    "out": dict(default="out", help="output directory"),
    "jobs": dict(type=int, default=1),
    "nodes": dict(type=int, help="time intervals for the aerothermo problem"),
}
# each subcommand with the flags it reads, and the one it cannot run without
_COMMANDS = [
    ("solve", cmd_solve, ["problem", "scheme", "x0", "config", "out", "nodes"]),
    ("grid", cmd_grid, ["problem", "scheme", "grid", "config", "out", "jobs"]),
    ("check", cmd_check, ["problem", "x0", "config", "out", "nodes"]),
]
_REQUIRED = {"grid": "grid", "check": "x0"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpvc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", required=_REQUIRED.get(name) == flag, **_FLAGS[flag])
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "nodes", None) is not None and args.problem != "aerothermo":
            raise ValueError("--nodes needs --problem aerothermo")
        return args.func(args, _load_config(args.config, args.problem))
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
