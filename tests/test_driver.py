import numpy as np
import pytest

from mpvc import driver, nlp, stationarity
from mpvc.driver import DriverConfig, StopReason, solve_mpvc
from mpvc.errors import ParameterError
from mpvc.model import full_violation, max_vio
from mpvc.nlp import SolverLimits, SolveStatus
from mpvc.problems import academic, assemble_stiffness, ten_bar
from mpvc.regularize import Scheme
from mpvc.stationarity import Grade, classify, grade_at, recover_mpvc_multipliers


def test_config_validation():
    with pytest.raises(ParameterError):
        DriverConfig(scheme=Scheme.GLOBAL, t0=1.0, t_min=2.0)
    with pytest.raises(ParameterError):
        DriverConfig(scheme=Scheme.GLOBAL, sigma=1.5)
    with pytest.raises(ParameterError):
        DriverConfig(scheme=Scheme.GLOBAL, tol=0.0)


def test_academic_global_from_far_start():
    prob = academic()
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.GLOBAL), np.array([10.0, 10.0]))
    assert res.trace.reason is StopReason.FEASIBILITY
    np.testing.assert_allclose(res.x, [0.0, 5.0], atol=1e-3)
    assert res.f == pytest.approx(10.0, abs=5e-3)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_already_feasible_start_is_immediate(scheme):
    prob = academic()
    x0 = np.array([0.0, 5.0])
    res = solve_mpvc(prob, DriverConfig(scheme=scheme), x0)
    assert res.trace.outer_iterations <= 2
    assert res.trace.reason is StopReason.FEASIBILITY
    np.testing.assert_allclose(res.x, x0)
    assert res.f == pytest.approx(10.0)


def test_trace_geometry_and_iteration_bound():
    prob = academic()
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.GLOBAL), np.array([7.0, 3.0]))
    rec = res.trace.records
    assert len(rec) <= 9
    assert rec[0].t == 1.0
    for a, b in zip(rec, rec[1:]):
        assert b.t == a.t * 0.1
        assert b.k == a.k + 1
    assert res.trace.reason in (StopReason.FEASIBILITY, StopReason.TMIN)
    assert max_vio(prob, res.x) <= 1e-6 or res.trace.reason is not StopReason.FEASIBILITY


def test_trace_serialization(tmp_path):
    prob = academic()
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.LSHAPED), np.array([6.0, 1.0]))
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,t,f,maxVio,fullVio,innerIters,eps"
    assert len(lines) == 1 + res.trace.outer_iterations
    for line, r in zip(lines[1:], res.trace.records):
        assert line.split(",") == [str(v) for v in (r.k, r.t, r.f, r.max_vio, r.full_vio,
                                                    r.inner_iterations, r.eps_achieved)]


def test_driver_deterministic():
    prob = academic()
    cfg = DriverConfig(scheme=Scheme.NONSMOOTH)
    r1 = solve_mpvc(prob, cfg, np.array([-3.0, 14.0]))
    r2 = solve_mpvc(prob, cfg, np.array([-3.0, 14.0]))
    assert np.array_equal(r1.x, r2.x)
    assert r1.trace.total_inner_iterations == r2.trace.total_inner_iterations


def ten_bar_start(a):
    # areas a, displacements u = K(a)^-1 f
    prob = ten_bar()
    geo = prob.meta["geometry"]
    a = np.asarray(a)
    return prob, np.concatenate([a, np.linalg.solve(assemble_stiffness(geo, a), geo.load)])


def test_ten_bar_lshaped_elastic_qps_finish(monkeypatch):
    # A ten-bar start (areas drawn in [0.5, 2], displacements K(a)^-1 f) on
    # which LSHAPED entered elastic mode and its elastic QPs hit their
    # iteration cap while their slack bounds were KKT rows: with 500 SQP
    # iterations the solve took about 40 s, with 80 an inner solve ended
    # IterLimit.
    prob, x0 = ten_bar_start([
        1.9517671268326802, 0.795152721510259, 1.7477422543582701, 1.1574740490816837,
        1.6648815120774199, 1.4831495857484427, 0.7328328094840528, 1.3466532414047663,
        0.5334930711183679, 0.870229215508942])
    capped = []
    infeasible = []
    plain, elastic = nlp.solve_qp, nlp.solve_qp_elastic

    def counting_plain(*args, **kwargs):
        res = plain(*args, **kwargs)
        infeasible.append(res.status == "infeasible")
        return res

    def counting_elastic(*args, **kwargs):
        res = elastic(*args, **kwargs)
        capped.append(res.status == "max_iter")
        return res

    monkeypatch.setattr(nlp, "solve_qp", counting_plain)
    monkeypatch.setattr(nlp, "solve_qp_elastic", counting_elastic)
    config = DriverConfig(scheme=Scheme.LSHAPED, limits=SolverLimits(max_iter=80))
    res = solve_mpvc(prob, config, x0)
    # an elastic QP runs exactly in the iterations whose plain QP is inconsistent
    assert len(capped) == sum(infeasible)
    assert sum(capped) == 0
    assert all(r.inner_status is not SolveStatus.ITER_LIMIT for r in res.trace.records)
    assert res.trace.reason is StopReason.FEASIBILITY
    assert res.f == pytest.approx(8.0, abs=1e-2)


def test_ten_bar_lshaped_inner_solves_converge():
    # A ten-bar start (areas drawn in [0.5, 2], displacements K(a)^-1 f)
    # whose t = 0.1 LSHAPED solve accepts a long run of steps that barely
    # reduce the violation, then converges: a solve that keeps accepting
    # steps must not end as LineSearchFail.
    prob, x0 = ten_bar_start([
        1.5369760953357268, 1.1903606396085047, 1.2405399437113844, 1.7713761588403578,
        1.4854132291812607, 1.7967579255117339, 0.885734647997364, 1.1672657461139055,
        1.1565989589697359, 1.0883948660046427])
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.LSHAPED), x0)
    assert [r.inner_status for r in res.trace.records] == [SolveStatus.CONVERGED] * 2
    assert res.trace.reason is StopReason.FEASIBILITY
    assert res.f == pytest.approx(8.0, abs=1e-6)


def test_tmin_reached_after_converged_solve():
    # one solve at t = 1 converges to a point that is still infeasible for
    # the MPVC, and t = 0.1 is already below t_min
    config = DriverConfig(scheme=Scheme.GLOBAL, t0=1.0, t_min=0.5)
    res = solve_mpvc(academic(), config, np.array([10.0, 10.0]))
    (rec,) = res.trace.records
    assert rec.inner_status is SolveStatus.CONVERGED
    assert rec.max_vio == pytest.approx(0.995, abs=1e-3)
    assert res.trace.reason is StopReason.TMIN


def test_inner_failure_when_last_solve_fails():
    config = DriverConfig(scheme=Scheme.GLOBAL, t0=1.0, t_min=0.5,
                          limits=SolverLimits(max_iter=1))
    res = solve_mpvc(academic(), config, np.array([1.0, 1.0]))
    (rec,) = res.trace.records
    assert rec.inner_status is SolveStatus.ITER_LIMIT
    assert max_vio(academic(), res.x) > 1e-6
    assert res.trace.reason is StopReason.INNER_FAILURE


def test_eps_inner_reaches_inner_solves(monkeypatch):
    targets = []
    solve_nlp = driver.solve_nlp

    def recording_solve_nlp(*args, eps_target, **kwargs):
        targets.append(eps_target)
        return solve_nlp(*args, eps_target=eps_target, **kwargs)

    monkeypatch.setattr(driver, "solve_nlp", recording_solve_nlp)
    config = DriverConfig(scheme=Scheme.GLOBAL, eps_inner=1e-3)
    res = solve_mpvc(academic(), config, np.array([10.0, 10.0]))
    assert len(targets) == res.trace.outer_iterations >= 2
    assert targets == [1e-3] * len(targets)


def test_continues_from_the_point_it_warm_starts_with(monkeypatch):
    # ten-bar-gld seed 7 instance 13: its first inner solve (t = 1) ends
    # IterLimit/500, and the next one still starts from that solve's x
    # with its lam
    prob, x0 = ten_bar_start([
        1.6599554596651733, 1.0489749004080895, 1.715537309457467, 0.9102045696187764,
        1.388805747266152, 0.6378956313895601, 0.8772226951104536, 1.0755481130493594,
        0.6147131274910839, 0.7420442901749132])
    calls = []
    solve_nlp = driver.solve_nlp

    def recording_solve_nlp(nlp, x, **kwargs):
        sol = solve_nlp(nlp, x, **kwargs)
        calls.append((np.array(x), kwargs.get("lam0"), sol))
        return sol

    monkeypatch.setattr(driver, "solve_nlp", recording_solve_nlp)
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.LSHAPED), x0)
    assert calls[0][2].status is SolveStatus.ITER_LIMIT
    assert len(calls) == res.trace.outer_iterations >= 2
    for (_, _, prev), (x, lam0, _) in zip(calls, calls[1:]):
        assert np.array_equal(x, prev.x)
        assert np.array_equal(lam0, prev.lam)
    assert np.array_equal(res.x, calls[-1][2].x)


def test_infeasible_end_is_not_feasibility():
    # ten-bar-gld seed 7 instance 8, LOCAL: nine LineSearchFail solves end
    # at f = 0 with every product G_i H_i near 0 (max_vio ~ 1e-16) but full
    # violation 1.0
    prob, x0 = ten_bar_start([
        0.9424181063030086, 1.5918454674164109, 0.6593860649321641, 0.7085891236308867,
        1.693483592841475, 1.692968440745225, 0.6160947941932851, 1.5426983099486664,
        0.5874053019547494, 1.8531417645037416])
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.LOCAL), x0)
    assert res.trace.records[-1].inner_status is not SolveStatus.CONVERGED
    assert full_violation(prob, res.x) > 1e-6
    assert res.trace.reason is StopReason.INNER_FAILURE


def test_feasible_but_not_weakly_stationary_iterate_does_not_stop():
    # ten-bar seed 7 instance 6 (the seventh start of perfbench's
    # make_instances), NONSMOOTH: its t = 0.1 solve converges to a feasible
    # point with f = 8.237 that is not weakly stationary.  Feasibility of
    # the products alone would stop there; the loop goes on to f = 8.
    rng = np.random.default_rng([7, 1])
    for _ in range(7):
        a = rng.uniform(0.5, 2.0, size=10)
    prob, x0 = ten_bar_start(a)
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.NONSMOOTH), x0)
    assert res.trace.reason is StopReason.FEASIBILITY
    assert grade_at(prob, res.x, 1e-6) >= Grade.WEAK
    assert res.f <= 8.01


@pytest.mark.parametrize("scheme", list(Scheme))
def test_stop_test_fits_multipliers_only_at_the_start(monkeypatch, scheme):
    # (0, 6) is feasible, with H_1 = 0, and not weakly stationary.  The
    # start is graded by a multiplier fit; every later stop test grades the
    # multipliers recovered from the inner solve that ended there, which
    # certify the end point on academic without a fit.
    events = []
    fit_qp, solve_nlp = stationarity.solve_qp, driver.solve_nlp

    def counting_fit_qp(*args, **kwargs):
        events.append("fit")
        return fit_qp(*args, **kwargs)

    def counting_solve_nlp(*args, **kwargs):
        events.append("solve")
        return solve_nlp(*args, **kwargs)

    monkeypatch.setattr(stationarity, "solve_qp", counting_fit_qp)
    monkeypatch.setattr(driver, "solve_nlp", counting_solve_nlp)
    res = solve_mpvc(academic(), DriverConfig(scheme=scheme), np.array([0.0, 6.0]))
    assert res.trace.reason is StopReason.FEASIBILITY
    assert events == ["fit"] + ["solve"] * res.trace.outer_iterations


def test_stop_test_falls_back_to_the_fit():
    # ten-bar seed 7 instance 53 (perfbench's make_instances), LSHAPED: the
    # t = 1 solve converges to a feasible point with f = 8 where the
    # recovered multipliers break a support condition by 0.2, while fitted
    # multipliers certify S.  The loop stops there, after one solve.
    rng = np.random.default_rng([7, 1])
    for _ in range(54):
        a = rng.uniform(0.5, 2.0, size=10)
    prob, x0 = ten_bar_start(a)
    res = solve_mpvc(prob, DriverConfig(scheme=Scheme.LSHAPED), x0)
    assert res.trace.reason is StopReason.FEASIBILITY
    assert res.trace.outer_iterations == 1
    assert res.f == pytest.approx(8.0, abs=1e-6)
    mult = recover_mpvc_multipliers(prob, Scheme.LSHAPED, res.last_t, res.last_solution)
    assert classify(prob, res.x, mult, tau=1e-6).grade is Grade.NOT_WEAK
    assert grade_at(prob, res.x, 1e-6, recovered=mult) is Grade.S
