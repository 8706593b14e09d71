"""Solver benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload academic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  The measuring process (``bench.py``) is started with one BLAS
thread, set only in its own environment.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics of a traced replay of
the same instances.  ``setup_s`` is the median of several fresh processes
that each import ``mpvc``, build the problems and generate the starts.

``--workload all`` runs academic, ten-bar and aerothermo in turn and prints
one result line per workload; aerothermo is not in ``BENCHMARK.json``
(one instance takes 15-45 s, see perfbench/README.md).

Exit status: 0 on success; 1 when a run failed or a ``Converged``
certificate was rejected (named on stderr); 2 when the checkout holds no
library to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench.py"
WORKLOADS = ("academic", "ten-bar-gld", "ten-bar", "aerothermo")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
DEADLINE_S = 175.0            # the whole run, set-up probes included
# End-to-end metrics printed in the report but not gated by BENCHMARK.json:
# seconds drift with the host's speed, the tail and the rate swing with the
# seed, and failed_frac is 0 on many runs (see README.md).
UNGATED_UNITS = {"solve_s_p50": "s", "solve_s_p90": "s", "reference_s": "s", "wall_s": "s",
                 "solves_per_s": "1/s", "failed_frac": "frac"}


def gated_metrics(trace: bool) -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run bench.py; subprocess.run kills and reaps it at the deadline."""
    return subprocess.run(
        [sys.executable, str(WORKER), *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )


def one_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> int:
    env = child_env()
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_worker([*common, "--setup-only"], env, deadline)
            if probe.returncode != 0:
                print(f"perfbench: set-up of {workload} failed", file=sys.stderr)
                return 1
            setup.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    proc = run_worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))],
                      env, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: {workload} run exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    raw = dict(result["per_layer"] if trace else result["end_to_end"])
    if setup:
        raw["setup_s"] = statistics.median(setup)
        print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    units = gated_metrics(trace)
    metrics = {k: {"value": raw[k], "unit": u} for k, u in units.items() if k in raw}
    shown = dict(units) if trace else {**units, **UNGATED_UNITS}
    for k, u in shown.items():
        value = f"{raw[k]:.6g} {u}" if k in raw else "absent"
        if k in ("mode_p50_ref", "solve_s_p50", "solve_s_p90") and k in raw:
            value += f" (n={raw['solves']})"
        print(f"# {workload} {k} = {value}{'' if k in units else '  [not gated]'}")
    print(json.dumps({
        "correct": proc.returncode == 0,
        "attempted": result["end_to_end"]["solves"],
        "failed": result["end_to_end"]["errored"],
        "metrics": metrics,
    }))
    return proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded solver benchmark run.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mpvc" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'mpvc'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            code = one_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} did not finish within {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
