import math

import numpy as np
import pytest

from fd import fd_jacobian
from mpvc.errors import ParameterError
from mpvc.model import full_violation
from mpvc.problems import academic
from mpvc.regularize import (
    Scheme,
    direct_nlp,
    kernel_global,
    phi_kdb,
    phi_ks,
    phi_su,
    regularize,
    theta,
    theta_prime,
)

ALL_SCHEMES = list(Scheme)


class TestTheta:
    def test_endpoint_values(self):
        assert abs(theta(1.0) - 1.0) <= 1e-12
        assert abs(theta(-1.0) - 1.0) <= 1e-12

    def test_endpoint_slopes(self):
        assert abs(theta_prime(1.0) - 1.0) <= 1e-12
        assert abs(theta_prime(-1.0) + 1.0) <= 1e-12

    def test_midpoint_value(self):
        # closed form: sin(3 pi / 2) = -1 gives 1 - 2/pi
        assert np.isclose(theta(0.0), 1.0 - 2.0 / math.pi, atol=1e-14)

    def test_second_derivative_endpoints_by_differences(self):
        eps = 1e-6
        d2_p = (theta_prime(1.0) - theta_prime(1.0 - eps)) / eps
        d2_m = (theta_prime(-1.0 + eps) - theta_prime(-1.0)) / eps
        assert abs(d2_p) <= 1e-5
        assert abs(d2_m) <= 1e-5

    def test_strict_convexity_inside(self):
        for s in np.linspace(-0.999, 0.999, 41):
            eps = 1e-6
            d2 = (theta_prime(s + eps) - theta_prime(s - eps)) / (2 * eps)
            assert d2 > 0.0

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            theta(1.5)
        with pytest.raises(ParameterError):
            theta_prime(-1.0001)


class TestKernels:
    def test_global_scalar(self):
        v, cG, cH = kernel_global(2.0, 3.0, 1.0)
        assert v == 5.0 and cG == 3.0 and cH == 2.0

    def test_phi_su_examples(self):
        v, a, b = phi_su(2.0, 0.0, 1.0)
        assert v == 0.0 and (a, b) == (0.0, 2.0)
        v, a, b = phi_su(0.0, 0.0, 1.0)
        assert np.isclose(v, -(1.0 - 2.0 / math.pi), atol=1e-14)
        assert np.isclose(a, 1.0, atol=1e-12) and np.isclose(b, 1.0, atol=1e-12)
        v, a, b = phi_su(-1.0, 3.0, 1.0)
        assert v == -2.0 and (a, b) == (2.0, 0.0)

    def test_phi_ks_examples(self):
        assert phi_ks(1.0, 2.0, 1.0) == (1.0, 1.0, 1.0)
        v, cG, cH = phi_ks(0.0, 0.0, 1.0)
        assert v == -0.5 and cG == 0.0 and cH == 1.0

    def test_phi_ks_branch_boundary(self):
        # G + H = t: both branches agree in value and coefficients
        v, cG, cH = phi_ks(0.5, 0.5, 1.0)
        assert np.isclose(v, -0.25) and np.isclose(cG, -0.5) and np.isclose(cH, 0.5)
        v2 = 0.5 * (0.5 - 1.0)
        assert np.isclose(v, v2)

    def test_phi_kdb_examples(self):
        assert phi_kdb(1.0, 0.0, 1.0) == (-1.0, -1.0, 1.0)
        assert phi_kdb(0.0, 5.0, 1.0) == (0.0, 4.0, 0.0)
        assert phi_kdb(2.0, 1.0, 1.0) == (0.0, 0.0, 2.0)

    def test_nonsmooth_scalar_example(self):
        v, _, _ = phi_kdb(1.0, 0.0, 1.0)
        assert v == -1.0

    def test_lshaped_scalar_example(self):
        v, _, _ = phi_ks(0.0, 0.0, 1.0)
        assert v == -0.5

    def test_parameter_errors(self):
        for fn in (kernel_global, phi_su, phi_ks, phi_kdb):
            with pytest.raises(ParameterError):
                fn(1.0, 1.0, 0.0)
            with pytest.raises(ParameterError):
                fn(1.0, 1.0, -0.5)


class TestSmoothness:
    def test_phi_su_continuity_at_switch(self):
        # phi(a; t) and its derivative agree across |a| = t
        for t in (0.3, 1.0, 2.5):
            for sgn in (+1.0, -1.0):
                a = sgn * t
                G, H = 1.3, 1.3 - a
                v_out, aG_out, aH_out = phi_su(G + sgn * 1e-13, H, t)
                v_in, aG_in, aH_in = phi_su(G - sgn * 1e-13, H, t)
                assert abs(v_out - v_in) <= 1e-10
                assert abs(aG_out - aG_in) <= 1e-10
                assert abs(aH_out - aH_in) <= 1e-10

    def test_phi_ks_c1_across_branch(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = rng.uniform(0.1, 2.0)
            G = rng.uniform(-1.5, 1.5)
            H = t - G
            above = phi_ks(G + 5e-14, H, t)
            below = phi_ks(G - 5e-14, H, t)
            for x, y in zip(above, below):
                assert abs(x - y) <= 1e-10


class TestAssembledNlp:
    def test_row_layout_and_provenance(self):
        prob = academic()
        nlp = regularize(prob, Scheme.GLOBAL, 0.5)
        assert nlp.n_ineq == prob.m + 2 * prob.l
        prov = nlp.provenance
        rows = np.concatenate([prov.rows_g, prov.rows_neg_H, prov.rows_kernel])
        assert sorted(rows.tolist()) == list(range(nlp.n_ineq))
        x = np.array([1.0, 1.0])
        vals, _ = nlp.ineq(x)
        np.testing.assert_allclose(vals[prov.rows_neg_H], -x)
        np.testing.assert_allclose(
            vals[prov.rows_kernel],
            [(5 * math.sqrt(2) - 2) * 1 - 0.5, (5 - 2) * 1 - 0.5],
        )

    def test_t_must_be_positive(self):
        with pytest.raises(ParameterError):
            regularize(academic(), Scheme.LSHAPED, 0.0)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_gradients_match_finite_differences(self, scheme):
        prob = academic()
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            if checked >= 100:
                break
            t = rng.uniform(0.05, 2.0)
            x = rng.uniform(-4.0, 10.0, size=2)
            Gv, _ = prob.G(x)
            Hv, _ = prob.H(x)
            # keep a margin from the nonsmooth switch loci
            if scheme is Scheme.LOCAL and np.any(np.abs(np.abs(Gv - Hv) - t) < 1e-4):
                continue
            if scheme is Scheme.LSHAPED and np.any(np.abs(Gv + Hv - t) < 1e-4):
                continue
            nlp = regularize(prob, scheme, t)
            _, jac = nlp.ineq(x)
            jac_fd = fd_jacobian(lambda z: nlp.ineq(z)[0], x)
            np.testing.assert_allclose(jac, jac_fd, rtol=1e-6, atol=1e-8)
            checked += 1
        assert checked == 100

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_feasible_points_remain_feasible(self, scheme):
        # Any MPVC-feasible point stays feasible for R(t), except under the
        # nonsmooth scheme for pairs with G < 0 and H < t (its feasible set
        # excludes that strip by construction).
        prob = academic()
        rng = np.random.default_rng(6)
        pts = [np.array([0.0, 0.0]), np.array([0.0, 5.0]), np.array([0.0, 5 * math.sqrt(2)])]
        while len(pts) < 40:
            x = rng.uniform(0.0, 15.0, size=2)
            if full_violation(prob, x) == 0.0:
                pts.append(x)
        for t in (1.0, 0.1, 1e-3):
            nlp = regularize(prob, scheme, t)
            for x in pts:
                vals, _ = nlp.ineq(x)
                if scheme is Scheme.NONSMOOTH:
                    Gv, _ = prob.G(x)
                    Hv, _ = prob.H(x)
                    exempt = (Gv < 0) & (Hv < t)
                    keep = np.ones(nlp.n_ineq, dtype=bool)
                    keep[nlp.provenance.rows_kernel] = ~exempt
                    vals = vals[keep]
                assert np.max(vals) <= 1e-12, (scheme, t, x)

    def test_global_shrinkage(self):
        prob = academic()
        rng = np.random.default_rng(7)
        nlp_big = regularize(prob, Scheme.GLOBAL, 0.7)
        nlp_small = regularize(prob, Scheme.GLOBAL, 0.1)
        for _ in range(200):
            x = rng.uniform(-2.0, 10.0, size=2)
            v_small, _ = nlp_small.ineq(x)
            if np.max(v_small) <= 0:
                v_big, _ = nlp_big.ineq(x)
                assert np.max(v_big) <= 1e-12

    def test_direct_nlp_products(self):
        prob = academic()
        nlp = direct_nlp(prob)
        x = np.array([1.0, 1.0])
        vals, _ = nlp.ineq(x)
        np.testing.assert_allclose(
            vals[nlp.provenance.rows_kernel], [(5 * math.sqrt(2) - 2), 3.0]
        )
