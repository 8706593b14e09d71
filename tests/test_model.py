import itertools
import math

import numpy as np
import pytest

from fd import fd_gradient, fd_jacobian
from mpvc.errors import DimensionMismatch, ParameterError
from mpvc.model import PAIR_CLASSES, full_violation, index_sets, max_vio, pair_classes
from mpvc.problems import academic
from mpvc.stationarity import find_multipliers

SQRT2 = math.sqrt(2.0)


def test_index_sets_academic_local_min():
    # At (0, 5): H = (0, 5), G = (5 sqrt2 - 5, 0): pair 0 is (H=0, G>0),
    # pair 1 is (H>0, G=0).
    ix = index_sets(academic(), np.array([0.0, 5.0]), tau_act=1e-8)
    assert ix.I_0plus == {0}
    assert ix.I_plus0 == {1}
    assert not ix.I_00 and not ix.I_0minus and not ix.I_plusminus
    assert ix.I_g == frozenset()


def test_index_sets_academic_origin():
    # H = (0, 0), G = (5 sqrt2, 5) > 0: both pairs land in I_0plus.
    ix = index_sets(academic(), np.zeros(2), tau_act=1e-8)
    assert ix.I_0plus == {0, 1}
    assert ix.I_plus0 == set() and ix.I_00 == set()


def test_index_sets_all_biactive():
    prob = academic()
    # H = G = 0 forces every pair into I_00; on the academic problem the
    # biactive point of pair 0 is x = (0, 5 sqrt2) for pair 0 only, so use
    # a synthetic all-zero evaluation instead: x = (0, 5) perturbed cannot
    # make both zero, hence check the classification rule directly.
    ix = index_sets(prob, np.array([0.0, 5.0 * SQRT2]), tau_act=1e-8)
    assert ix.I_00 == {0}  # H1 = 0, G1 = 5 sqrt2 - 5 sqrt2 = 0


def test_index_sets_partition_random_points():
    prob = academic()
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-10, 25, size=2)
        ix = index_sets(prob, x, tau_act=1e-6)
        sets = [ix.I_plus0, ix.I_plusminus, ix.I_0plus, ix.I_00, ix.I_0minus]
        union = set().union(*sets)
        assert union == {0, 1}
        total = sum(len(s) for s in sets)
        assert total == 2  # pairwise disjoint


def test_index_sets_tau_monotonicity():
    prob = academic()
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-2, 8, size=2)
        small = index_sets(prob, x, tau_act=1e-8)
        big = index_sets(prob, x, tau_act=1e-2)
        # indices only move into the "0" bands as tau grows
        assert small.I_00 <= big.I_00 | big.I_plus0 | big.I_0plus | big.I_0minus
        for i in big.I_plusminus:
            assert i in small.I_plusminus
        for i in big.I_0plus:
            assert i in small.I_0plus | small.I_plusminus or i in small.I_0plus


def test_pair_classes_match_the_rules():
    # every (G, H) pair of band edges, folded infeasible values and NaN,
    # against the rules written out one pair at a time
    tau = 1e-3
    vals = [-2 * tau, -tau, -0.5 * tau, 0.0, 0.5 * tau, tau, 2 * tau, math.nan]
    Gv, Hv = (np.array(v) for v in zip(*itertools.product(vals, vals)))

    def rule(G, H):
        if H > tau:
            return "I_plusminus" if G < -tau else "I_plus0"
        if G > tau:
            return "I_0plus"
        return "I_0minus" if G < -tau else "I_00"

    got = [PAIR_CLASSES[k] for k in pair_classes(Gv, Hv, tau)]
    assert got == [rule(G, H) for G, H in zip(Gv, Hv)]


def test_index_sets_bad_inputs():
    prob = academic()
    with pytest.raises(DimensionMismatch):
        index_sets(prob, np.zeros(3))
    with pytest.raises(ParameterError):
        index_sets(prob, np.zeros(2), tau_act=0.0)
    with pytest.raises(ParameterError):
        find_multipliers(prob, np.array([0.0, 5.0]), tau_act=0.0)


def test_max_vio_values():
    prob = academic()
    # (1, 1): products ((5 sqrt2 - 2) * 1, 3 * 1); frozen via direct evaluation
    expected = max((5.0 * SQRT2 - 2.0) * 1.0, 3.0)
    assert np.isclose(max_vio(prob, np.array([1.0, 1.0])), expected)
    assert max_vio(prob, np.array([0.0, 5.0])) == 0.0


def test_max_vio_single_negative_product():
    from mpvc.model import MpvcProblem, empty_vector_fn

    prob = MpvcProblem(
        name="toy",
        n=1,
        m=0,
        p=0,
        l=1,
        f=lambda x: (0.0, np.zeros(1)),
        g=empty_vector_fn(1),
        h=empty_vector_fn(1),
        G=lambda x: (np.array([-1.0]), np.zeros((1, 1))),
        H=lambda x: (np.array([2.0]), np.zeros((1, 1))),
    )
    assert max_vio(prob, np.zeros(1)) == -2.0


def test_full_violation_values():
    prob = academic()
    assert full_violation(prob, np.array([0.0, 5.0])) == 0.0
    # (-1, 0): -H_1 = 1 dominates
    assert np.isclose(full_violation(prob, np.array([-1.0, 0.0])), 1.0)
    expected = max((5.0 * SQRT2 - 2.0), 3.0)
    assert np.isclose(full_violation(prob, np.array([1.0, 1.0])), expected)


def test_full_violation_iff_feasible():
    prob = academic()
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-3, 12, size=2)
        fv = full_violation(prob, x)
        feas = (
            x[0] >= 0
            and x[1] >= 0
            and (5 * SQRT2 - x[0] - x[1]) * x[0] <= 0
            and (5 - x[0] - x[1]) * x[1] <= 0
        )
        assert (fv == 0.0) == feas


def test_academic_gradients_match_finite_differences():
    prob = academic()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-4, 10, size=2)
        _, grad = prob.f(x)
        np.testing.assert_allclose(grad, fd_gradient(lambda z: prob.f(z)[0], x), rtol=1e-6)
        _, JG = prob.G(x)
        np.testing.assert_allclose(JG, fd_jacobian(lambda z: prob.G(z)[0], x), rtol=1e-6)
        _, JH = prob.H(x)
        np.testing.assert_allclose(JH, fd_jacobian(lambda z: prob.H(z)[0], x), rtol=1e-6)
