import dataclasses
import itertools
import math

import numpy as np
import pytest

from mpvc.errors import PreconditionError
from mpvc.model import empty_vector_fn, MpvcProblem
from mpvc.nlp import NlpSolution, SolveStatus, solve_nlp
from mpvc.model import full_violation, index_sets
from mpvc.driver import DriverConfig, solve_mpvc
from mpvc.nlp import SolverLimits
from mpvc.problems import academic, aerothermo, counterexamples, ten_bar
from mpvc.regularize import Scheme, regularize
from mpvc.stationarity import (
    Grade,
    MpvcMultipliers,
    classify,
    find_multipliers,
    grade_at,
    recover_mpvc_multipliers,
    weak_stationarity_table,
)


def make_solution(nlp, x, lam, mu=None):
    return NlpSolution(
        x=np.asarray(x, float),
        lam=np.asarray(lam, float),
        mu=np.zeros(0) if mu is None else np.asarray(mu, float),
        epsilon_achieved=0.0,
        status=SolveStatus.CONVERGED,
        provenance=nlp.provenance,
        total_iterations=1,
    )


class TestRecovery:
    def test_lshaped_counterexample(self):
        fam = counterexamples()[0]
        t = 0.1
        nlp = regularize(fam.problem, Scheme.LSHAPED, t)
        sol = make_solution(nlp, [0.01, 0.09], [0.0, 100.0])
        mult = recover_mpvc_multipliers(fam.problem, Scheme.LSHAPED, t, sol)
        np.testing.assert_allclose(mult.eta_G, [-1.0], atol=1e-12)
        np.testing.assert_allclose(mult.eta_H, [-1.0], atol=1e-12)

    def test_nonsmooth_counterexample(self):
        fam = counterexamples()[2]
        t = 0.5
        nlp = regularize(fam.problem, Scheme.NONSMOOTH, t)
        sol = make_solution(nlp, [0.0, 0.25], [0.0, 4.0])
        mult = recover_mpvc_multipliers(fam.problem, Scheme.NONSMOOTH, t, sol)
        np.testing.assert_allclose(mult.eta_G, [-1.0], atol=1e-12)
        np.testing.assert_allclose(mult.eta_H, [0.0], atol=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_multipliers_map_to_zero(self, scheme):
        prob = academic()
        nlp = regularize(prob, scheme, 0.3)
        sol = make_solution(nlp, [1.0, 9.0], np.zeros(nlp.n_ineq))
        mult = recover_mpvc_multipliers(prob, scheme, 0.3, sol)
        assert np.all(mult.eta_G == 0.0) and np.all(mult.eta_H == 0.0)

    @staticmethod
    def random_solutions(seed):
        """Random points, parameters and NLP multipliers (lam >= 0) on
        academic and ten-bar, with some pairs placed on H = 0 and G = 0."""
        rng = np.random.default_rng(seed)
        for prob in (academic(), ten_bar()):
            x_ref = prob.known_points.get("x0", np.array([1.0, 4.0]))
            for _ in range(40):
                x = x_ref + 0.5 * rng.normal(size=prob.n)
                if rng.random() < 0.5:
                    x[rng.integers(prob.l)] = 0.0          # H_i = x_i on both
                if prob.name == "academic" and rng.random() < 0.5:
                    x[1] = 5.0 - x[0]                      # G_2 = 0
                t = float(10.0 ** rng.uniform(-2.0, 0.5))
                lam = rng.exponential(size=prob.m + 2 * prob.l)
                yield prob, x, t, lam, rng.normal(size=prob.p)

    @pytest.mark.parametrize("scheme", [Scheme.LOCAL, Scheme.LSHAPED, Scheme.NONSMOOTH])
    def test_recovered_residual_is_nlp_lagrangian_gradient(self, scheme):
        # with eta_G = delta c_G and eta_H = nu - delta c_H the MPVC
        # gradient equation is the regularized NLP's Lagrangian gradient
        for prob, x, t, lam, mu in self.random_solutions(11):
            nlp = regularize(prob, scheme, t)
            mult = recover_mpvc_multipliers(prob, scheme, t, make_solution(nlp, x, lam, mu))
            _, grad_f = nlp.objective(x)
            _, J_in = nlp.ineq(x)
            _, J_eq = nlp.eq(x)
            grad_L = grad_f + J_in.T @ lam + J_eq.T @ mu
            terms = np.abs(grad_f) + np.abs(J_in.T) @ lam + np.abs(J_eq.T) @ np.abs(mu)
            scale = 1.0 + np.max(terms)
            A, _, _ = weak_stationarity_table(prob, x, 1e-8)
            resid = grad_f + A @ np.concatenate((mult.lam, mult.mu, mult.eta_H, mult.eta_G))
            assert np.max(np.abs(resid - grad_L)) <= 1e-12 * scale, (prob.name, x, t)
            np.testing.assert_array_equal(mult.lam, lam[nlp.provenance.rows_g])
            np.testing.assert_array_equal(mult.mu, mu)

    def test_global_recovery_masks(self):
        saw_plus0 = saw_zero = False
        for prob, x, t, lam, mu in self.random_solutions(12):
            nlp = regularize(prob, Scheme.GLOBAL, t)
            tau_act = 1e-8
            mult = recover_mpvc_multipliers(
                prob, Scheme.GLOBAL, t, make_solution(nlp, x, lam, mu), tau_act
            )
            ix = index_sets(prob, x, tau_act)
            G, _ = prob.G(x)
            H, _ = prob.H(x)
            nu = lam[nlp.provenance.rows_neg_H]
            delta = lam[nlp.provenance.rows_kernel]
            for i in range(prob.l):
                on_g = i in ix.I_00 or i in ix.I_plus0
                assert mult.eta_G[i] == (delta[i] * H[i] if on_g else 0.0)
                assert mult.eta_H[i] == (nu[i] if i in ix.I_plus else nu[i] - delta[i] * G[i])
            saw_plus0 |= bool(ix.I_plus0)
            saw_zero |= bool(ix.I_0)
        assert saw_plus0 and saw_zero

    def test_provenance_required(self):
        prob = academic()
        sol = NlpSolution(
            x=np.zeros(2),
            lam=np.zeros(4),
            mu=np.zeros(0),
            epsilon_achieved=0.0,
            status=SolveStatus.CONVERGED,
            provenance=None,
            total_iterations=1,
        )
        with pytest.raises(PreconditionError):
            recover_mpvc_multipliers(prob, Scheme.GLOBAL, 1.0, sol)


class TestClassify:
    def test_counterexample_limits(self):
        for fam, eta, expect in [
            (counterexamples()[0], (-1.0, -1.0), Grade.NOT_WEAK),
            (counterexamples()[1], (1.0, 1.0), Grade.WEAK),
            (counterexamples()[2], (-1.0, 0.0), Grade.NOT_WEAK),
        ]:
            mult = MpvcMultipliers(
                lam=np.zeros(0),
                mu=np.zeros(0),
                eta_G=np.array([eta[0]]),
                eta_H=np.array([eta[1]]),
            )
            report = classify(fam.problem, fam.limit_point, mult, tau=1e-6)
            assert report.grade is expect, fam.name
            if expect is Grade.WEAK:
                assert report.biactive_products == [1.0]

    def test_academic_local_min_is_s(self):
        prob = academic()
        x = np.array([0.0, 5.0])
        mult, resid = find_multipliers(prob, x)
        assert resid <= 1e-8
        report = classify(prob, x, mult)
        assert report.grade >= Grade.M

    def test_academic_weak_point_grades_weak(self):
        prob = academic()
        x = prob.known_points["xplus"]
        mult, resid = find_multipliers(prob, x)
        assert resid <= 1e-8
        report = classify(prob, x, mult)
        assert report.grade is Grade.WEAK
        assert report.biactive_products and report.biactive_products[0] > 0

    def test_implication_chain(self):
        # grades computed by the chain always satisfy the implications
        prob = counterexamples()[1].problem
        rng = np.random.default_rng(8)
        x = np.zeros(2)
        for _ in range(300):
            mult = MpvcMultipliers(
                lam=np.zeros(0),
                mu=np.zeros(0),
                eta_G=rng.normal(size=1),
                eta_H=rng.normal(size=1),
            )
            rep = classify(prob, x, mult, tau=1e-2)
            p = mult.eta_G[0] * mult.eta_H[0]
            if rep.grade >= Grade.T:
                assert p <= rep.tau
            if rep.grade >= Grade.M:
                assert abs(p) <= rep.tau
            if rep.grade is Grade.S:
                assert abs(mult.eta_G[0]) <= rep.tau

    def test_recover_classify_along_shrinking_t(self):
        # exact KKT points of the global regularization near (0, 5):
        # x(t) = (0, x2) with (5 - x2) x2 = t, nu1 = 2, delta2 from the
        # second stationarity component.
        prob = academic()
        grades = []
        for t in (1e-2, 1e-3, 1e-4, 1e-6):
            x2 = 0.5 * (5.0 + math.sqrt(25.0 - 4.0 * t))
            x = np.array([0.0, x2])
            # stationarity of R^S(t) at (0, x2): grad(G2 H2) = (-x2, 5 - 2 x2)
            delta2 = 2.0 / (2.0 * x2 - 5.0)
            nu1 = 4.0 - delta2 * x2
            nlp = regularize(prob, Scheme.GLOBAL, t)
            lam = np.zeros(nlp.n_ineq)
            lam[nlp.provenance.rows_neg_H[0]] = nu1
            lam[nlp.provenance.rows_kernel[1]] = delta2
            sol = make_solution(nlp, x, lam)
            from mpvc.nlp import check_eps_stationary

            ok, bd = check_eps_stationary(nlp, x, lam, np.zeros(0), 1e-9)
            assert ok, (t, bd)
            mult = recover_mpvc_multipliers(prob, Scheme.GLOBAL, t, sol, tau_act=1e-8)
            rep = classify(prob, x, mult, tau=1e-4)
            grades.append(rep.grade)
        assert grades[-1] >= Grade.T


class TestWeakStationarityTable:
    @staticmethod
    def points(seed):
        """Academic and ten-bar points, some pairs placed on H = 0 or G = 0."""
        rng = np.random.default_rng(seed)
        for prob in (academic(), ten_bar()):
            for x in prob.known_points.values():
                yield prob, x
            x_ref = prob.known_points.get("x0", np.array([1.0, 4.0]))
            for _ in range(30):
                x = x_ref + 0.5 * rng.normal(size=prob.n)
                x[rng.choice(prob.l, size=rng.integers(prob.l + 1), replace=False)] = 0.0
                if prob.name == "academic" and rng.random() < 0.5:
                    x[1] = 5.0 - x[0]                      # G_2 = 0
                yield prob, x

    @staticmethod
    def off_table(prob, ix):
        """The slots weak stationarity holds at 0."""
        return (
            [("lam", i) for i in range(prob.m) if i not in ix.I_g]
            + [("eta_H", i) for i in sorted(ix.I_plus)]
            + [("eta_G", i) for i in sorted(ix.I_plusminus | ix.I_0plus | ix.I_0minus)]
        )

    @staticmethod
    def signed_slots(prob, ix):
        """The slots weak stationarity asks to be nonnegative."""
        return (
            [("lam", i) for i in sorted(ix.I_g)]
            + [("eta_H", i) for i in sorted(ix.I_0minus)]
            + [("eta_G", i) for i in sorted(ix.I_plus0 | ix.I_00)]
        )

    @staticmethod
    def position(prob, slot):
        """The entry of z = [lam; mu; eta_H; eta_G] that holds a slot."""
        kind, i = slot
        offset = {"lam": 0, "mu": prob.m, "eta_H": prob.m + prob.p,
                  "eta_G": prob.m + prob.p + prob.l}
        return offset[kind] + i

    def test_columns_and_slots(self):
        rng = np.random.default_rng(5)
        for (prob, x), tau_act in itertools.product(self.points(3), (1e-8, 0.5, 3.0)):
            ix = index_sets(prob, x, tau_act)
            A, kind, _ = weak_stationarity_table(prob, x, tau_act)
            k = prob.m + prob.p + 2 * prob.l
            assert A.shape == (prob.n, k) and kind.shape == (k,)
            held = {self.position(prob, slot) for slot in self.off_table(prob, ix)}
            signed = {self.position(prob, slot) for slot in self.signed_slots(prob, ix)}
            assert not held & signed
            assert kind.tolist() == [
                0 if j in held else 2 if j in signed else 1 for j in range(k)
            ]
            z = rng.normal(size=k)
            mult = MpvcMultipliers(
                lam=z[:prob.m], mu=z[prob.m:prob.m + prob.p],
                eta_H=z[prob.m + prob.p:prob.m + prob.p + prob.l],
                eta_G=z[prob.m + prob.p + prob.l:],
            )
            _, grad_f = prob.f(x)
            _, Jg = prob.g(x)
            _, Jh = prob.h(x)
            _, JH = prob.H(x)
            _, JG = prob.G(x)
            written = (grad_f + Jg.T @ mult.lam + Jh.T @ mult.mu
                       - JH.T @ mult.eta_H + JG.T @ mult.eta_G)
            scale = 1.0 + np.max(np.abs(grad_f) + np.abs(A) @ np.abs(z))
            assert np.max(np.abs(grad_f + A @ z - written)) <= 1e-12 * scale

    def test_classify_support_and_sign_violations(self):
        # classify's worst support and sign violations are the index-set
        # statement, on the index sets banded with its tau_eff
        rng = np.random.default_rng(6)
        for prob, x in self.points(7):
            mult = MpvcMultipliers(
                lam=rng.normal(size=prob.m), mu=rng.normal(size=prob.p),
                eta_H=rng.normal(size=prob.l), eta_G=rng.normal(size=prob.l),
            )
            rep = classify(prob, x, mult, tau=float(10.0 ** rng.uniform(-8.0, 0.0)))
            ix = index_sets(prob, x, rep.tau)
            support = [abs(getattr(mult, kind)[i]) for kind, i in self.off_table(prob, ix)]
            sign = [-getattr(mult, kind)[i] for kind, i in self.signed_slots(prob, ix)]
            assert rep.worst_support_violation == max(support, default=0.0)
            assert rep.worst_sign_violation == max(sign + [0.0])

    def test_fit_is_zero_off_table(self):
        checked = 0
        for prob, x in self.points(4):
            if full_violation(prob, x) > 1e-4:
                continue
            mult, _ = find_multipliers(prob, x)
            for kind, i in self.off_table(prob, index_sets(prob, x, 1e-8)):
                assert getattr(mult, kind)[i] == 0.0
            checked += 1
        assert checked >= 3


class TestFindMultipliers:
    def test_interior_point_residual_is_grad_norm(self):
        prob = academic()
        mult, resid = find_multipliers(prob, np.array([10.0, 10.0]))
        assert resid == pytest.approx(4.0)
        assert np.all(mult.eta_G == 0) and np.all(mult.eta_H == 0)

    def test_zero_gradient_interior_point(self):
        # unconstrained-style: f = ||x - a||^2 at x = a, feasible interior
        a = np.array([3.0, 4.0])

        def f(x):
            d = x - a
            return float(d @ d), 2.0 * d

        prob = MpvcProblem(
            name="flat",
            n=2,
            m=0,
            p=0,
            l=1,
            f=f,
            g=empty_vector_fn(2),
            h=empty_vector_fn(2),
            G=lambda x: (np.array([-1.0]), np.zeros((1, 2))),
            H=lambda x: (np.array([1.0]), np.zeros((1, 2))),
        )
        mult, resid = find_multipliers(prob, a)
        assert resid == 0.0
        rep = classify(prob, a, mult)
        assert rep.grade is Grade.S

    def test_infeasible_point_rejected(self):
        with pytest.raises(PreconditionError):
            find_multipliers(academic(), np.array([0.0, 2.5]))

    def test_pair_evaluations_per_call(self):
        # classify evaluates G once; find_multipliers at most twice (the
        # feasibility check and the table); grade_at evaluates G and f
        # once, also when recovered multipliers grade below Weak and it
        # falls back to the fit
        truss = ten_bar()
        a0, u0 = np.split(truss.known_points["x0"], [truss.l])
        for prob, x in ((academic(), np.array([0.0, 5.0])),
                        (truss, np.concatenate([2.0 * a0, 0.5 * u0]))):
            assert full_violation(prob, x) <= 1e-12
            calls = []

            def G(x, G=prob.G):
                calls.append("G")
                return G(x)

            def f(x, f=prob.f):
                calls.append("f")
                return f(x)

            counted = dataclasses.replace(prob, G=G, f=f)
            mult, _ = find_multipliers(counted, x)
            fit_calls = calls.count("G")
            calls.clear()
            classify(counted, x, mult)
            assert fit_calls <= 2 and calls.count("G") == 1, prob.name
            ones = MpvcMultipliers(*(np.ones_like(v) for v in
                                     (mult.lam, mult.mu, mult.eta_H, mult.eta_G)))
            assert classify(prob, x, ones, tau=1e-6).grade < Grade.WEAK
            for recovered in (None, mult, ones):
                calls.clear()
                grade_at(counted, x, 1e-6, recovered)
                assert sorted(calls) == ["G", "f"], (prob.name, recovered)

    def test_residual_invariant_under_row_permutation(self):
        # permuting the vanishing pairs must not change the fit residual
        prob = academic()

        def G_perm(x):
            v, J = prob.G(x)
            return v[::-1].copy(), J[::-1].copy()

        def H_perm(x):
            v, J = prob.H(x)
            return v[::-1].copy(), J[::-1].copy()

        perm = MpvcProblem(
            name="perm",
            n=2,
            m=0,
            p=0,
            l=2,
            f=prob.f,
            g=prob.g,
            h=prob.h,
            G=G_perm,
            H=H_perm,
        )
        for pt in ([0.0, 5.0], [10.0, 10.0], [0.0, 0.0]):
            _, r1 = find_multipliers(prob, np.array(pt))
            _, r2 = find_multipliers(perm, np.array(pt))
            assert r1 == pytest.approx(r2, abs=1e-10)


def test_grade_at_agrees_with_recovered_multipliers_on_aerothermo():
    # The LSHAPED end point of the aerothermo N=2 fixture (K_e x6): the
    # multipliers recovered from its last inner solve certify S.  A fit
    # banded at a fixed 1e-8, or with a Tikhonov term scaled by trace(A^T A)
    # instead of per column, leaves a residual above tau_eff there, so the
    # point graded NotWeak.
    prob = aerothermo(N=2, constants={"K_e": 6 * 1.7415e-4})
    config = DriverConfig(scheme=Scheme.LSHAPED, limits=SolverLimits(max_iter=400))
    res = solve_mpvc(prob, config, prob.known_points["x0"])
    mult = recover_mpvc_multipliers(prob, Scheme.LSHAPED, res.last_t, res.last_solution)
    recovered = classify(prob, res.x, mult, tau=1e-6).grade
    assert recovered is Grade.S
    assert grade_at(prob, res.x, 1e-6) == recovered
    assert grade_at(prob, res.x, 1e-6, recovered=mult) == recovered


@pytest.mark.parametrize("scheme", list(Scheme))
def test_recovered_multipliers_never_lower_the_grade(scheme):
    # driver end points at the academic reference points xo and xstar: the
    # grade with the recovered multipliers is at least the fit's alone
    prob = academic()
    for x0, label in (([1.0, 1.0], "xo"), ([3.0, -2.0], "xo"),
                      ([10.0, 10.0], "xstar"), ([-5.0, 20.0], "xstar")):
        res = solve_mpvc(prob, DriverConfig(scheme=scheme), np.array(x0))
        np.testing.assert_allclose(res.x, prob.known_points[label], atol=1e-3)
        mult = recover_mpvc_multipliers(prob, scheme, res.last_t, res.last_solution)
        for tau in (1e-6, 1e-4):
            assert grade_at(prob, res.x, tau, recovered=mult) >= grade_at(prob, res.x, tau)
