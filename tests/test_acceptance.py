"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` to
see them live).  Tolerances are fixed here, not configurable:

1. smoothing-profile and kernel properties (exactness, branch continuity,
   derivative checks against central differences)
2. certified eps-stationarity of the counterexample families and the
   stationarity verdicts at their limit points
3. 26 x 26 academic start grid: attractor bucketing rates per scheme and
   the direct baseline strictly worse than every regularization
4. ten-bar truss objective/violation/iteration targets
5. stationarity grade of driver limits on the academic grid
6. re-entry problem: feasibility, terminal altitude, positive heat load,
   cooling-activation products, and the L-shaped run at least as good as
   the direct baseline (on a hotter documented fixture, N = 8)
7. outer-loop fidelity: exact geometric parameter sequence, iteration
   bound, and termination reasons
"""
import math

import numpy as np
import pytest

from fd import fd_jacobian
from mpvc.cli import run_grid, run_single, _grid_points
from mpvc.driver import DriverConfig, StopReason, solve_mpvc
from mpvc.model import full_violation, max_vio
from mpvc.nlp import SolverLimits, SolveStatus, check_eps_stationary, solve_nlp
from mpvc.problems import academic, aerothermo, counterexamples, ten_bar
from mpvc.regularize import Scheme, direct_nlp, phi_ks, phi_su, regularize, theta, theta_prime
from mpvc.stationarity import Grade, MpvcMultipliers, classify

GRID = "-5,20,26,-5,20,26"
JOBS = 2
AERO_CONSTANTS = {"K_e": 6 * 1.7415e-4}   # documented acceptance fixture
AERO_N = 8


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
# shared expensive runs
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def academic_grids():
    points = _grid_points(GRID)
    out = {}
    for scheme in ["global", "local", "lshaped", "nonsmooth", "none"]:
        rows, summary = run_grid("academic", scheme, points, jobs=JOBS)
        out[scheme] = (rows, summary)
    return out


@pytest.fixture(scope="module")
def ten_bar_runs():
    prob = ten_bar()
    x0 = prob.known_points["x0"]
    runs = {}
    for scheme in Scheme:
        runs[scheme.value] = solve_mpvc(prob, DriverConfig(scheme=scheme), x0)
    return prob, runs


@pytest.fixture(scope="module")
def aero_runs():
    prob = aerothermo(N=AERO_N, constants=AERO_CONSTANTS)
    x0 = prob.known_points["x0"]
    runs = {}
    for scheme in Scheme:
        runs[scheme.value] = solve_mpvc(
            prob, DriverConfig(scheme=scheme, limits=SolverLimits(max_iter=400)), x0
        )
    direct = solve_nlp(direct_nlp(prob), x0, eps_target=1e-9,
                       limits=SolverLimits(max_iter=400))
    return prob, runs, direct


# --------------------------------------------------------------------------
# criterion 1: theta and kernel suite
# --------------------------------------------------------------------------
def test_criterion_1_kernel_suite():
    ok = abs(theta(1.0) - 1.0) <= 1e-12 and abs(theta(-1.0) - 1.0) <= 1e-12
    ok = ok and abs(theta_prime(1.0) - 1.0) <= 1e-12
    ok = ok and abs(theta_prime(-1.0) + 1.0) <= 1e-12
    eps = 1e-6
    ok = ok and abs((theta_prime(1.0) - theta_prime(1.0 - eps)) / eps) <= 1e-6 * 10
    ok = ok and abs((theta_prime(-1.0 + eps) - theta_prime(-1.0)) / eps) <= 1e-6 * 10
    for s in np.linspace(-0.999, 0.999, 201):
        d2 = (theta_prime(s + 1e-7) - theta_prime(s - 1e-7)) / 2e-7
        ok = ok and d2 > 0.0

    # branch continuity at the switch loci
    for t in (0.2, 1.0, 3.0):
        for sgn in (1.0, -1.0):
            G = 0.7
            H = G - sgn * t
            lo = phi_su(G - sgn * 1e-13, H, t)
            hi = phi_su(G + sgn * 1e-13, H, t)
            ok = ok and all(abs(a - b) <= 1e-10 for a, b in zip(lo, hi))
        G = 0.4
        H = t - G
        lo = phi_ks(G, H - 1e-13, t)
        hi = phi_ks(G, H + 1e-13, t)
        ok = ok and all(abs(a - b) <= 1e-10 for a, b in zip(lo, hi))

    # analytic kernel gradients vs central differences at 100 points/scheme
    prob = academic()
    rng = np.random.default_rng(100)
    for scheme in Scheme:
        checked = 0
        while checked < 100:
            t = rng.uniform(0.05, 2.0)
            x = rng.uniform(-4.0, 10.0, size=2)
            Gv, _ = prob.G(x)
            Hv, _ = prob.H(x)
            if scheme is Scheme.LOCAL and np.any(np.abs(np.abs(Gv - Hv) - t) < 1e-4):
                continue
            if scheme is Scheme.LSHAPED and np.any(np.abs(Gv + Hv - t) < 1e-4):
                continue
            nlp = regularize(prob, scheme, t)
            _, jac = nlp.ineq(x)
            jac_fd = fd_jacobian(lambda z: nlp.ineq(z)[0], x)
            rel = np.max(np.abs(jac - jac_fd)) / (1.0 + np.max(np.abs(jac_fd)))
            ok = ok and rel <= 1e-6
            checked += 1
    report(1, ok, "theta conditions, kernel branch continuity, gradient checks")


# --------------------------------------------------------------------------
# criterion 2: counterexample oracles
# --------------------------------------------------------------------------
def test_criterion_2_counterexample_oracles():
    ok = True
    details = []
    for fam in counterexamples():
        for t in (1e-1, 1e-2, 1e-3):
            nlp = regularize(fam.problem, fam.scheme, t)
            lam = np.zeros(nlp.n_ineq)
            lam[nlp.provenance.rows_neg_H[0]] = fam.nu_of_t(t)
            lam[nlp.provenance.rows_kernel[0]] = fam.delta_of_t(t)
            good, bd = check_eps_stationary(
                nlp, fam.x_of_t(t), lam, np.zeros(0), fam.eps_of_t(t)
            )
            ok = ok and good
            if not good:
                details.append((fam.name, t, bd))
        mult = MpvcMultipliers(
            lam=np.zeros(0),
            mu=np.zeros(0),
            eta_G=np.array([fam.limit_eta_G]),
            eta_H=np.array([fam.limit_eta_H]),
        )
        rep = classify(fam.problem, fam.limit_point, mult, tau=1e-6)
        if fam.limit_grade == "NotWeak":
            ok = ok and rep.grade is Grade.NOT_WEAK
        else:
            ok = ok and rep.grade is Grade.WEAK
    report(2, ok, f"certified families at t in {{1e-1,1e-2,1e-3}} {details}")


# --------------------------------------------------------------------------
# criterion 3: academic grid
# --------------------------------------------------------------------------
def test_criterion_3_academic_grid(academic_grids):
    msgs = []
    ok = True
    n = 676

    def bucketed(summary):
        return n - summary["buckets"]["neither"]

    g = academic_grids["global"][1]
    ok_g = bucketed(g) >= 0.99 * n and g["buckets"]["xo"] >= 0.12 * n
    msgs.append(f"global {g['buckets']} bucketed={bucketed(g)/n:.1%} xo={g['buckets']['xo']/n:.1%}")
    ok = ok and ok_g
    for scheme, frac in [("lshaped", 0.97), ("nonsmooth", 0.97), ("local", 0.90)]:
        s = academic_grids[scheme][1]
        ok_s = bucketed(s) >= frac * n
        msgs.append(f"{scheme} {s['buckets']} bucketed={bucketed(s)/n:.1%}")
        ok = ok and ok_s
    direct = academic_grids["none"][1]
    worst_scheme_neither = max(
        academic_grids[s][1]["buckets"]["neither"]
        for s in ("global", "local", "lshaped", "nonsmooth")
    )
    ok_d = direct["buckets"]["neither"] > worst_scheme_neither
    msgs.append(
        f"direct neither={direct['buckets']['neither']} > schemes' max={worst_scheme_neither}"
    )
    ok = ok and ok_d
    report(3, ok, "; ".join(msgs))


# --------------------------------------------------------------------------
# criterion 4: ten-bar truss
# --------------------------------------------------------------------------
def test_criterion_4_ten_bar(ten_bar_runs):
    prob, runs = ten_bar_runs
    msgs = []
    ok = True
    for scheme in ("global", "local", "lshaped"):
        res = runs[scheme]
        vio = full_violation(prob, res.x)
        good = abs(res.f - 8.0) <= 1e-2 and vio <= 1e-6
        msgs.append(f"{scheme}: f={res.f:.5f} vio={vio:.1e} outer={res.trace.outer_iterations}")
        ok = ok and good
    outer = runs["global"].trace.outer_iterations
    ok = ok and 7 <= outer <= 9
    msgs.append(f"global outer={outer} (want 8 +- 1)")
    ns = runs["nonsmooth"]
    ok = ok and ns.f <= 8.2 and full_violation(prob, ns.x) <= 1e-6
    msgs.append(f"nonsmooth f={ns.f:.4f} (<= 8.2)")
    report(4, ok, "; ".join(msgs))


# --------------------------------------------------------------------------
# criterion 5: stationarity of driver limits
# --------------------------------------------------------------------------
def test_criterion_5_limit_grades(academic_grids):
    msgs = []
    ok = True
    for scheme, wanted in [("global", Grade.T), ("lshaped", Grade.M)]:
        rows = academic_grids[scheme][0]
        conv = [r for r in rows if r["converged"]]
        good = [r for r in conv if Grade[_normalize(r["grade"])] >= wanted]
        frac = len(good) / max(1, len(conv))
        msgs.append(f"{scheme}: {len(good)}/{len(conv)} >= {wanted.label()} ({frac:.1%})")
        ok = ok and frac >= 0.95
    report(5, ok, "; ".join(msgs))


def _normalize(label):
    return {"NotWeak": "NOT_WEAK", "Weak": "WEAK", "T": "T", "M": "M", "S": "S"}[label]


# --------------------------------------------------------------------------
# criterion 6: aerothermodynamic problem
# --------------------------------------------------------------------------
def test_criterion_6_aerothermo(aero_runs):
    prob, runs, direct = aero_runs
    unpack = prob.meta["unpack"]
    msgs = []
    ok = True
    for scheme, res in runs.items():
        traj = unpack(res.x)
        vio = full_violation(prob, res.x)
        h_f = traj["h_km"][-1] * 1000.0
        qt = traj["Q_T_j_cm2"][-1]
        prods = (prob.G(res.x)[0]) * (prob.H(res.x)[0])
        good = (
            vio <= 1e-6
            and h_f <= 500.0 + 1e-3
            and np.isfinite(qt)
            and qt > 0.0
            and np.max(prods) <= 1e-6
        )
        msgs.append(f"{scheme}: f={res.f:.2f} vio={vio:.1e} h_f={h_f:.1f}m")
        ok = ok and good
    f_direct = prob.f(direct.x)[0]
    ok_cmp = runs["lshaped"].f <= f_direct
    msgs.append(f"lshaped {runs['lshaped'].f:.2f} <= direct {f_direct:.2f}")
    ok = ok and ok_cmp
    report(6, ok, "; ".join(msgs))


# --------------------------------------------------------------------------
# criterion 7: outer-loop fidelity
# --------------------------------------------------------------------------
def test_criterion_7_algorithm_fidelity(ten_bar_runs):
    prob_t, runs_t = ten_bar_runs
    traces = [res.trace for res in runs_t.values()]
    acad = academic()
    for scheme in Scheme:
        for x0 in ([10.0, 10.0], [1.0, 1.0], [-3.0, 14.0]):
            res = solve_mpvc(acad, DriverConfig(scheme=scheme), np.array(x0))
            traces.append(res.trace)
    ok = True
    for trace in traces:
        assert trace.outer_iterations <= 9
        for a, b in zip(trace.records, trace.records[1:]):
            ok = ok and (b.t == a.t * 0.1)
        ok = ok and trace.reason in (StopReason.FEASIBILITY, StopReason.TMIN)
    report(7, ok, f"{len(traces)} traces: geometric t, <= 9 iterations, two exit reasons")
