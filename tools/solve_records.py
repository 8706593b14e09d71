"""Digest of per-solve records, for checking that two checkouts compute the
same iterates bit for bit.

    python3 tools/solve_records.py

Solves the first academic and ten-bar starts of perfbench's seed 7 in every
mode, with perfbench's own inputs and solve sequence (``make_instances``
and ``solve_timed`` in ``perfbench/bench.py``: the four schemes through
``solve_mpvc``, the direct baseline through ``solve_nlp``, then multiplier
recovery and grading).  It prints one sha256 per workload over these
records: the answer as float hex, the inner statuses, SQP iterations and
epsilons, and the grade.  It then solves the aerothermo N=8 fixture of
acceptance criterion 6 (K_e x6, ``max_iter=400``, about 12 s) in every
mode and prints one plain-text line per mode, with the inner statuses and
iterations and the final f, and one sha256 over the final points.  Last it
prints the same lines, without a digest, on aerothermo N=30 with the CLI's
default constants: LOCAL and direct (a few seconds each), then GLOBAL,
LSHAPED and NONSMOOTH (about 95 s together), whose end values a path change
can move (plain text, no gate).  Run it
from each checkout: it imports the ``src/`` and ``perfbench/`` next to it,
with one BLAS thread, since the thread count can change the rounding.
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import bench  # noqa: E402  (perfbench/bench.py)

SEED = 7
STARTS = {"academic": 100, "ten-bar": 5}     # about 5 s in all
AERO_CONSTANTS = {"K_e": 6 * 1.7415e-4}      # as in tests/test_acceptance.py


def _hex(v) -> str:
    return ",".join(float(a).hex() for a in np.atleast_1d(np.asarray(v, dtype=float)))


def record(out: dict, mode: str) -> str:
    """One output of ``bench.solve_timed`` as a line of text."""
    if mode == "direct":
        sol = out["sol"]
        inner = f"{sol.status.value}/{sol.total_iterations}/{_hex(sol.epsilon_achieved)}"
    else:
        res = out["res"]
        inner = " ".join(f"{r.inner_status.value}/{r.inner_iterations}/{_hex(r.eps_achieved)}"
                         for r in res.trace.records)
        inner = f"{res.trace.reason.value} {inner}"
    return f"{mode} {_hex(out['x'])} {inner} {out['grade'].label()}"


def aero_lines(mods: dict, prob, limits, modes) -> str:
    """Print one line per mode for an aerothermo problem from its stored
    start; returns the sha256 over the final points."""
    digest = hashlib.sha256()
    for mode in modes:
        out = bench.solve_timed(mods, prob, prob.known_points["x0"], mode, limits)
        if mode == "direct":
            inner = [(out["sol"].status.value, out["sol"].total_iterations)]
        else:
            inner = [(r.inner_status.value, r.inner_iterations)
                     for r in out["res"].trace.records]
        print(f"aerothermo N={prob.meta['N']} {mode}: {' '.join(f'{s}/{i}' for s, i in inner)} "
              f"its={out['iters']} f={prob.f(out['x'])[0]:.10g}")
        digest.update(f"{mode} {_hex(out['x'])}\n".encode())
    return digest.hexdigest()


def main() -> int:
    mods = bench.load_modules()
    limits = mods["nlp"].SolverLimits()
    for family, count in STARTS.items():
        digest = hashlib.sha256()
        for k, inst in enumerate(bench.make_instances(mods, family, SEED, count)):
            for mode in bench.ALL_MODES:
                out = bench.solve_timed(mods, inst.problem, inst.x0, mode, limits)
                digest.update(f"{k} {record(out, mode)}\n".encode())
        print(f"{family} seed={SEED} starts={count} solves={count * len(bench.ALL_MODES)} "
              f"sha256={digest.hexdigest()}")

    prob = mods["problems"].aerothermo(N=8, constants=AERO_CONSTANTS)
    digest = aero_lines(mods, prob, mods["nlp"].SolverLimits(max_iter=400), bench.ALL_MODES)
    print(f"aerothermo N=8 K_e x6 solves={len(bench.ALL_MODES)} sha256={digest}")
    aero_lines(mods, mods["problems"].aerothermo(N=30), limits,
               ("local", "direct", "global", "lshaped", "nonsmooth"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
