import numpy as np
import pytest

from mpvc.cq import check_licq, check_mfcq, check_mpvc_licq, check_mpvc_mfcq, pli_probe
from mpvc.model import MpvcProblem, empty_vector_fn
from mpvc.problems import academic
from mpvc.regularize import Scheme, regularize


def pair_problem(G_fn, H_fn, n=2, l=1):
    return MpvcProblem(
        name="toy",
        n=n,
        m=0,
        p=0,
        l=l,
        f=lambda x: (0.0, np.zeros(n)),
        g=empty_vector_fn(n),
        h=empty_vector_fn(n),
        G=G_fn,
        H=H_fn,
    )


class TestMpvcLicq:
    def test_academic_local_min_holds(self):
        # active gradients: grad H_1 = (1, 0), grad G_2 = (-1, -1)
        report = check_mpvc_licq(academic(), np.array([0.0, 5.0]))
        assert report.holds
        assert report.certificate > 0.5

    def test_duplicated_gradients_fail(self):
        # two identical biactive pairs: grad G_1 = grad G_2
        JG = np.array([[1.0, 0.0], [1.0, 0.0]])
        JH = np.array([[0.0, 1.0], [0.0, 1.0]])
        prob = pair_problem(
            lambda x: (np.array([x[0], x[0]]), JG),
            lambda x: (np.array([x[1], x[1]]), JH),
            l=2,
        )
        report = check_mpvc_licq(prob, np.zeros(2))
        assert not report.holds

    def test_rank_bound(self):
        # n = 1 with two active gradients cannot be independent
        prob = pair_problem(
            lambda x: (np.array([x[0]]), np.array([[1.0]])),
            lambda x: (np.array([x[0]]), np.array([[1.0]])),
            n=1,
        )
        report = check_mpvc_licq(prob, np.zeros(1))
        assert not report.holds
        assert report.certificate == 0.0


class TestMpvcMfcq:
    def test_single_free_vector_holds(self):
        # one pair in I_0+: only grad H = (1, 0) on the free side
        prob = pair_problem(
            lambda x: (np.array([1.0 + x[1] * 0.0]), np.array([[0.0, 0.0]])),
            lambda x: (np.array([x[0]]), np.array([[1.0, 0.0]])),
        )
        report = check_mpvc_mfcq(prob, np.zeros(2))
        assert report.holds

    def test_opposite_signed_vectors_fail(self):
        ok, cert = pli_probe([np.array([1.0, 0.0]), np.array([-1.0, 0.0])], [])
        assert not ok
        assert cert <= 1e-8

    def test_academic_local_min_holds(self):
        report = check_mpvc_mfcq(academic(), np.array([0.0, 5.0]))
        assert report.holds

    def test_more_free_vectors_than_dimensions(self):
        # three vectors in R^2 are dependent: certificate 0, as for LICQ
        e1, e2 = np.eye(2)
        assert pli_probe([], [e1, e2, e1 + e2]) == (False, 0.0)

    def test_licq_implies_mfcq_sampled(self):
        prob = academic()
        rng = np.random.default_rng(9)
        pts = [np.array([0.0, 5.0]), np.zeros(2), np.array([0.0, 5 * np.sqrt(2.0)])]
        while len(pts) < 15:
            x = rng.uniform(0, 12, size=2)
            if (5 * np.sqrt(2) - x.sum()) * x[0] <= 0 and (5 - x.sum()) * x[1] <= 0:
                pts.append(x)
        for x in pts:
            licq = check_mpvc_licq(prob, x)
            if licq.holds:
                assert check_mpvc_mfcq(prob, x).holds, x

    def test_boolean_invariant_under_rescaling(self):
        base_signed = [np.array([1.0, 0.3]), np.array([-0.2, 1.0])]
        base_free = [np.array([0.5, -1.0])]
        ok0, _ = pli_probe(base_signed, base_free)
        for scale in (0.1, 0.5, 2.0, 10.0):
            ok, _ = pli_probe(
                [base_signed[0] * scale, base_signed[1]], base_free
            )
            assert ok == ok0

    def test_consistency_with_regularized_mfcq(self):
        # wherever MPVC-MFCQ holds at the limit, standard MFCQ holds for
        # R_global(t) at nearby feasible points
        prob = academic()
        assert check_mpvc_mfcq(prob, np.array([0.0, 5.0])).holds
        rng = np.random.default_rng(10)
        for t in (1e-2, 1e-4):
            nlp = regularize(prob, Scheme.GLOBAL, t)
            checked = 0
            while checked < 10:
                x = np.array([0.0, 5.0]) + rng.uniform(-0.02, 0.02, size=2)
                vals, _ = nlp.ineq(x)
                if np.max(vals) > 0:
                    continue
                assert check_mfcq(nlp, x, tau_act=1e-6).holds, (t, x)
                checked += 1


class TestPlainNlpCqs:
    def test_licq_active_rows(self):
        nlp = regularize(academic(), Scheme.GLOBAL, 1.0)
        report = check_licq(nlp, np.array([0.0, 5.0]), tau_act=1e-6)
        assert report.holds

    def test_mfcq_empty_active_set_holds(self):
        nlp = regularize(academic(), Scheme.GLOBAL, 1.0)
        report = check_mfcq(nlp, np.array([10.0, 10.0]))
        assert report.holds
        assert report.certificate == np.inf
