import math

import numpy as np
import pytest

from fd import fd_gradient, fd_jacobian
from mpvc.errors import ParameterError
from mpvc.model import full_violation, max_vio
from mpvc.nlp import check_eps_stationary
from mpvc.problems import academic, aerothermo, counterexamples, ten_bar
from mpvc.problems.truss import assemble_stiffness, load_geometry, stress
from mpvc.regularize import regularize
from mpvc.stationarity import find_multipliers

SQRT2 = math.sqrt(2.0)


def check_problem_gradients(prob, points, rtol=1e-6, atol=1e-7):
    for x in points:
        _, grad = prob.f(x)
        np.testing.assert_allclose(
            grad, fd_gradient(lambda z: prob.f(z)[0], x), rtol=rtol, atol=atol
        )
        for fn in (prob.g, prob.h, prob.G, prob.H):
            vals, jac = fn(x)
            if vals.size == 0:
                continue
            jac_fd = fd_jacobian(lambda z: fn(z)[0], x)
            scale = 1.0 + np.max(np.abs(jac_fd))
            assert np.max(np.abs(jac - jac_fd)) / scale < rtol, fn


class TestAcademic:
    def test_reference_values(self):
        prob = academic()
        assert prob.f(prob.known_points["xo"])[0] == 0.0
        assert prob.f(prob.known_points["xstar"])[0] == 10.0
        xplus = prob.known_points["xplus"]
        assert full_violation(prob, xplus) == 0.0
        assert max_vio(prob, xplus) == 0.0

    def test_only_labelled_points_are_stationary_on_boundary_grid(self):
        # 0.5-spaced feasible boundary points: axis segment above 5 and the
        # polyhedron edge x1 + x2 = 5 sqrt2; only the three labelled points
        # admit a multiplier fit with (near-)zero residual.
        prob = academic()
        candidates = [np.array([0.0, 0.5 * k]) for k in range(0, 29)]
        candidates += [
            np.array([x1, 5.0 * SQRT2 - x1]) for x1 in np.arange(0.5, 7.0, 0.5)
        ]
        candidates += list(prob.known_points.values())
        labelled = list(prob.known_points.values())
        for x in candidates:
            if full_violation(prob, x) > 1e-10:
                continue
            _, resid = find_multipliers(prob, x)
            is_labelled = any(np.max(np.abs(x - ref)) < 1e-12 for ref in labelled)
            assert (resid <= 1e-8) == is_labelled, x


class TestTenBar:
    def test_geometry(self):
        geo = load_geometry()
        assert geo.n_members == 10
        assert geo.n_dof == 8
        d = geo.nodes[geo.members[:, 1]] - geo.nodes[geo.members[:, 0]]
        np.testing.assert_allclose(geo.lengths(), np.linalg.norm(d, axis=1))

    def test_stiffness_symmetry_random_areas(self):
        geo = load_geometry()
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.uniform(0.0, 5.0, size=10)
            K = assemble_stiffness(geo, a)
            assert np.max(np.abs(K - K.T)) == 0.0

    def test_zero_areas_zero_stiffness(self):
        geo = load_geometry()
        assert np.all(assemble_stiffness(geo, np.zeros(10)) == 0.0)

    def test_initial_point_solves_equilibrium(self):
        prob = ten_bar()
        x0 = prob.known_points["x0"]
        hv, _ = prob.h(x0)
        assert np.max(np.abs(hv)) < 1e-12

    def test_stress_consistency(self):
        geo = load_geometry()
        prob = ten_bar()
        x0 = prob.known_points["x0"]
        u0 = x0[10:]
        Gv, _ = prob.G(x0)
        for i in range(10):
            sig = stress(geo, x0[:10], u0, i)
            assert Gv[i] == pytest.approx(sig**2 - geo.sigma_bar**2)

    def test_gradients(self):
        prob = ten_bar()
        rng = np.random.default_rng(13)
        x0 = prob.known_points["x0"]
        pts = [x0 + 0.1 * rng.normal(size=prob.n) for _ in range(5)]
        check_problem_gradients(prob, pts)


class TestCounterexamples:
    @pytest.mark.parametrize("t", [1e-1, 1e-2, 1e-3])
    def test_certified_families(self, t):
        for fam in counterexamples():
            nlp = regularize(fam.problem, fam.scheme, t)
            lam = np.zeros(nlp.n_ineq)
            lam[nlp.provenance.rows_neg_H[0]] = fam.nu_of_t(t)
            lam[nlp.provenance.rows_kernel[0]] = fam.delta_of_t(t)
            ok, bd = check_eps_stationary(
                nlp, fam.x_of_t(t), lam, np.zeros(0), fam.eps_of_t(t)
            )
            assert ok, (fam.name, t, bd)

    def test_family_point_converges_to_limit(self):
        for fam in counterexamples():
            gap = np.max(np.abs(fam.x_of_t(1e-6) - fam.limit_point))
            assert gap < 1e-5


class TestAerothermo:
    def test_dimensions_and_layout(self):
        for N in (2, 5, 12):
            prob = aerothermo(N=N)
            assert prob.n == 4 * N + 3 * (N + 1) + 1
            assert prob.p == 4 * N
            assert prob.l == N + 1

    def test_n_too_small(self):
        with pytest.raises(ParameterError):
            aerothermo(N=1)

    def test_initial_heat_rate_positive_with_defaults(self):
        prob = aerothermo(N=4)
        phys = prob.meta["physics"]
        c = prob.meta["constants"]
        q0 = phys.qheat(c["h0_km"], c["v0_km_s"])
        # oracle: K_e sqrt(rho(h0)/R_n) v0^3, SI evaluated independently
        rho0 = 1.225 * math.exp(-12000.0 / 7254.0)
        expected = 1.7415e-4 * math.sqrt(rho0 / 0.6) * 200.0**3 / 1e4
        assert q0 == pytest.approx(expected, rel=1e-12)
        assert q0 > 0.0

    def test_defect_zero_for_consistent_transition(self):
        # implicit Euler: choosing x_i := x_{i+1} - delta F(x_{i+1}, u_{i+1})
        # zeroes the defect row of interval i by construction
        prob = aerothermo(N=3)
        phys = prob.meta["physics"]
        x = prob.known_points["x0"].copy()
        tau = x[prob.meta["tau_idx"]]
        delta = tau * prob.meta["constants"]["time_ref_s"] / 3
        s2 = np.array([0.25, -0.1, 8.0, 5.0])
        u2 = np.array([0.05, 1.0, 0.2])
        F, _, _ = phys.dyn(s2, u2)
        s1 = s2 - delta * F
        x[0:4] = s1
        x[4:8] = s2
        off = 12 + 3 * 2
        x[off : off + 3] = u2
        hv, _ = prob.h(x)
        assert np.max(np.abs(hv[4:8])) < 1e-12

    def test_initial_guess_feasible(self):
        prob = aerothermo(N=8)
        assert full_violation(prob, prob.known_points["x0"]) < 1e-8

    def test_gradients(self):
        prob = aerothermo(N=4)
        rng = np.random.default_rng(14)
        x0 = prob.known_points["x0"]
        pts = [x0 + 0.01 * rng.normal(size=prob.n) for _ in range(5)]
        check_problem_gradients(prob, pts, rtol=2e-6)

    def test_heat_load_monotone_without_cooling(self):
        prob = aerothermo(N=8)
        traj = prob.meta["unpack"](prob.known_points["x0"])
        assert np.all(traj["Qc_w_cm2"] == 0.0)
        qt = traj["Q_T_j_cm2"]
        assert np.all(np.diff(qt) >= 0.0)


def test_all_problem_gradients_at_random_points():
    rng = np.random.default_rng(15)
    prob = academic()
    pts = [rng.uniform(-4, 10, size=2) for _ in range(20)]
    check_problem_gradients(prob, pts)
    for fam in counterexamples():
        pts = [rng.uniform(-2, 2, size=2) for _ in range(10)]
        check_problem_gradients(fam.problem, pts)
    truss = ten_bar()
    x0 = truss.known_points["x0"]
    pts = [x0 + 0.2 * rng.normal(size=truss.n) for _ in range(10)]
    check_problem_gradients(truss, pts)
    aero = aerothermo(N=3)
    x0 = aero.known_points["x0"]
    pts = [x0 + 0.02 * rng.normal(size=aero.n) for _ in range(10)]
    check_problem_gradients(aero, pts, rtol=2e-6)
