"""Certified counterexample families.

Three tiny MPVCs (H = x2 >= 0, G H = x1 x2 <= 0, linear objectives) carry
closed-form eps-stationary points of their regularized problems whose
limits are NOT the stationary points one would hope for:

* lshaped_weak:   limits to a feasible point that is not even weakly
                  stationary (candidate multipliers (-1, -1))
* lshaped_tm:     limits to a weakly-but-not-T-stationary point ((1, 1))
* nonsmooth_weak: exact KKT points of the product-kernel problems whose
                  limit is not weakly stationary ((-1, 0))

The script verifies each certificate with the eps-stationarity checker,
runs the multiplier recovery at a few parameter values, and classifies the
limit points.
"""
import numpy as np

from mpvc import Grade, MpvcMultipliers, check_eps_stationary, classify
from mpvc.nlp import NlpSolution, SolveStatus
from mpvc.problems import counterexamples
from mpvc.regularize import regularize
from mpvc.stationarity import recover_mpvc_multipliers

for fam in counterexamples():
    print(f"\n=== {fam.name} (scheme: {fam.scheme.value}) ===")
    for t in (1e-1, 1e-2, 1e-3):
        nlp = regularize(fam.problem, fam.scheme, t)
        lam = np.zeros(nlp.n_ineq)
        lam[nlp.provenance.rows_neg_H[0]] = fam.nu_of_t(t)
        lam[nlp.provenance.rows_kernel[0]] = fam.delta_of_t(t)
        x_t = fam.x_of_t(t)
        ok, bd = check_eps_stationary(nlp, x_t, lam, np.zeros(0), fam.eps_of_t(t))
        sol = NlpSolution(
            x=x_t, lam=lam, mu=np.zeros(0), epsilon_achieved=max(bd.values()),
            status=SolveStatus.CONVERGED, provenance=nlp.provenance, total_iterations=0,
        )
        mult = recover_mpvc_multipliers(fam.problem, fam.scheme, t, sol)
        print(f"  t={t:5.0e}  certificate ok: {ok}   recovered "
              f"(etaG, etaH) = ({mult.eta_G[0]:+.4f}, {mult.eta_H[0]:+.4f})")
    limit_mult = MpvcMultipliers(
        lam=np.zeros(0), mu=np.zeros(0),
        eta_G=np.array([fam.limit_eta_G]), eta_H=np.array([fam.limit_eta_H]),
    )
    rep = classify(fam.problem, fam.limit_point, limit_mult)
    print(f"  limit point {fam.limit_point} with (etaG, etaH) = "
          f"({fam.limit_eta_G:+.0f}, {fam.limit_eta_H:+.0f}) classifies as: "
          f"{rep.grade.label()}  (expected {fam.limit_grade})")
    if rep.grade is Grade.WEAK:
        print(f"  biactive products: {rep.biactive_products} (> 0 blocks T-stationarity)")
