import numpy as np
import pytest

from mpvc import nlp as nlp_mod
from mpvc.errors import ParameterError, PreconditionError
from mpvc.nlp import SolveStatus, SolverLimits, check_eps_stationary, solve_nlp
from mpvc.problems import academic, counterexamples
from mpvc.regularize import Nlp, Scheme, regularize


def simple_nlp(objective, ineq=None, eq=None, n=1):
    def no_rows(x):
        return np.zeros(0), np.zeros((0, n))

    n_ineq = 0 if ineq is None else ineq(np.zeros(n))[0].size
    n_eq = 0 if eq is None else eq(np.zeros(n))[0].size
    return Nlp(
        n=n,
        objective=objective,
        ineq=ineq or no_rows,
        eq=eq or no_rows,
        n_ineq=n_ineq,
        n_eq=n_eq,
    )


def bound_problem():
    # min x^2 s.t. x >= 1 written as -x + 1 <= 0; KKT: x = 1, lam = 2
    return simple_nlp(
        objective=lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])),
        ineq=lambda x: (np.array([1.0 - x[0]]), np.array([[-1.0]])),
    )


def test_scalar_bound_kkt():
    sol = solve_nlp(bound_problem(), np.array([5.0]), eps_target=1e-8)
    assert sol.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(sol.x, [1.0], atol=1e-8)
    np.testing.assert_allclose(sol.lam, [2.0], atol=1e-6)


def test_equality_determined():
    nlp = simple_nlp(
        objective=lambda x: (float(x[0] + x[1]), np.array([1.0, 1.0])),
        eq=lambda x: (x.copy(), np.eye(2)),
        n=2,
    )
    sol = solve_nlp(nlp, np.array([3.0, -7.0]), eps_target=1e-10)
    assert sol.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(sol.x, [0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(sol.mu, [-1.0, -1.0], atol=1e-8)


def test_elastic_step_only_where_the_linearization_is_inconsistent(monkeypatch):
    # min (x1 - 2)^2 + x2^2 s.t. x1^2 - 1 = 0: at x1 = 0 the constraint
    # gradient vanishes, so the first linearization -1 = 0 is inconsistent;
    # every later one is consistent and gets a plain QP step
    prob = simple_nlp(
        objective=lambda x: (float((x[0] - 2.0) ** 2 + x[1] ** 2),
                             np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]])),
        eq=lambda x: (np.array([x[0] ** 2 - 1.0]), np.array([[2.0 * x[0], 0.0]])),
        n=2,
    )
    verdicts, elastic_calls = [], []
    plain, elastic = nlp_mod.solve_qp, nlp_mod.solve_qp_elastic

    def counting_plain(*args, **kwargs):
        res = plain(*args, **kwargs)
        verdicts.append(res.status)
        return res

    def counting_elastic(*args, **kwargs):
        elastic_calls.append(1)
        return elastic(*args, **kwargs)

    monkeypatch.setattr(nlp_mod, "solve_qp", counting_plain)
    monkeypatch.setattr(nlp_mod, "solve_qp_elastic", counting_elastic)
    sol = solve_nlp(prob, np.array([0.0, 0.5]), eps_target=1e-8)
    assert sol.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-8)
    assert verdicts.count("infeasible") == 1
    assert len(elastic_calls) == 1


def test_lshaped_counterexample_run():
    # R(0.1) of lshaped_weak is unbounded below: the family's point is
    # eps_of_t(0.1)-stationary, and a tight target runs off to infinity
    fam = counterexamples()[0]
    nlp = regularize(fam.problem, Scheme.LSHAPED, 0.1)
    eps = fam.eps_of_t(0.1)
    sol = solve_nlp(nlp, fam.x_of_t(0.1), eps_target=eps)
    assert sol.status is SolveStatus.CONVERGED
    ok, bd = check_eps_stationary(nlp, sol.x, sol.lam, sol.mu, eps)
    assert ok, bd
    sol = solve_nlp(nlp, fam.x_of_t(0.1), eps_target=1e-8)
    assert sol.status is SolveStatus.DIVERGED


def test_convex_qp_with_licq_recovered_exactly():
    # min (x1 - 1)^2 + (x2 + 2)^2 s.t. x1 + x2 <= 0, x1 - x2 = 0.5
    def obj(x):
        return float((x[0] - 1) ** 2 + (x[1] + 2) ** 2), np.array(
            [2 * (x[0] - 1), 2 * (x[1] + 2)]
        )

    nlp = simple_nlp(
        objective=obj,
        ineq=lambda x: (np.array([x[0] + x[1]]), np.array([[1.0, 1.0]])),
        eq=lambda x: (np.array([x[0] - x[1] - 0.5]), np.array([[1.0, -1.0]])),
        n=2,
    )
    sol = solve_nlp(nlp, np.array([4.0, 4.0]), eps_target=1e-10)
    assert sol.status is SolveStatus.CONVERGED
    # analytic KKT: equality binds, x = (-1/4, -3/4), mu = 2.5, lam = 0
    np.testing.assert_allclose(sol.x, [-0.25, -0.75], atol=1e-8)
    np.testing.assert_allclose(sol.mu, [2.5], atol=1e-7)
    np.testing.assert_allclose(sol.lam, [0.0], atol=1e-9)


@pytest.mark.parametrize("x0", [[0.0, 0.0], [3.0, 3.0]])
def test_duplicated_equalities_converge_through_elastic_mode(x0):
    # min (x1 - 3)^2 + x2^2 s.t. x1 <= 0.5 and x1 + x2 = 2 written twice:
    # x = (0.5, 1.5).  Each QP whose least-squares point violates x1 <= 0.5
    # is "infeasible" (dependent equality normals), so the solve goes on in
    # elastic mode.  The copies' multipliers are not unique, only their sum
    # (-3) and lam = 8 are.
    nlp = simple_nlp(
        objective=lambda x: (float((x[0] - 3) ** 2 + x[1] ** 2),
                             np.array([2 * (x[0] - 3), 2 * x[1]])),
        ineq=lambda x: (np.array([x[0] - 0.5]), np.array([[1.0, 0.0]])),
        eq=lambda x: (np.full(2, x[0] + x[1] - 2), np.ones((2, 2))),
        n=2,
    )
    sol = solve_nlp(nlp, np.array(x0), eps_target=1e-8)
    assert sol.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(sol.x, [0.5, 1.5], atol=1e-8)
    ok, bd = check_eps_stationary(nlp, sol.x, sol.lam, sol.mu, 1e-8)
    assert ok, bd


def test_certificate_soundness():
    for prob_fn, x0 in [
        (bound_problem, np.array([5.0])),
    ]:
        nlp = prob_fn()
        sol = solve_nlp(nlp, x0, eps_target=1e-9)
        assert sol.status is SolveStatus.CONVERGED
        ok, bd = check_eps_stationary(nlp, sol.x, sol.lam, sol.mu, 1e-9)
        assert ok, bd


def test_determinism():
    fam = counterexamples()[0]
    nlp = regularize(fam.problem, Scheme.LSHAPED, 0.1)
    a = solve_nlp(nlp, np.array([0.3, 0.2]), eps_target=1e-9)
    b = solve_nlp(nlp, np.array([0.3, 0.2]), eps_target=1e-9)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.lam, b.lam)
    assert a.total_iterations == b.total_iterations
    assert a.epsilon_achieved == b.epsilon_achieved


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return float(f), np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


class TestExits:
    """Every exit of solve_nlp reports the final iterate, the multipliers of
    its last QP and the work done."""

    def test_converged(self):
        sol = solve_nlp(bound_problem(), np.array([5.0]), eps_target=1e-8)
        assert sol.status is SolveStatus.CONVERGED
        ok, bd = check_eps_stationary(bound_problem(), sol.x, sol.lam, sol.mu, 1e-8)
        assert ok, bd
        assert 1 <= sol.total_iterations < SolverLimits().max_iter

    def test_iter_limit(self):
        # the last iteration steps from its QP's point, the iterate before
        # x, whose gradient is then the epsilon reported (no rows)
        nlp = simple_nlp(objective=rosenbrock, n=2)
        x0 = np.array([-1.2, 1.0])
        before = solve_nlp(nlp, x0, limits=SolverLimits(max_iter=2))
        sol = solve_nlp(nlp, x0, limits=SolverLimits(max_iter=3))
        assert sol.status is SolveStatus.ITER_LIMIT
        assert sol.total_iterations == 3
        assert not np.array_equal(sol.x, before.x)
        assert sol.epsilon_achieved == float(abs(rosenbrock(before.x)[1]).max())

    def test_linesearch_fail(self):
        # x <= -1 and x >= 1 cannot both hold
        nlp = simple_nlp(
            objective=lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])),
            ineq=lambda x: (np.array([x[0] + 1.0, 1.0 - x[0]]), np.array([[1.0], [-1.0]])),
        )
        sol = solve_nlp(nlp, np.array([3.0]), eps_target=1e-8)
        assert sol.status is SolveStatus.LINESEARCH_FAIL
        ok, bd = check_eps_stationary(nlp, sol.x, sol.lam, sol.mu, sol.epsilon_achieved)
        assert ok, bd
        assert 1 < sol.total_iterations < SolverLimits().max_iter

    def test_diverged(self):
        # min -x without constraints is unbounded below
        nlp = simple_nlp(objective=lambda x: (-float(x[0]), np.array([-1.0])))
        sol = solve_nlp(nlp, np.array([0.0]))
        assert sol.status is SolveStatus.DIVERGED
        assert abs(sol.x[0]) > 1e10
        assert sol.total_iterations < SolverLimits().max_iter

    def test_no_iterations_rejected(self):
        with pytest.raises(ParameterError):
            SolverLimits(max_iter=0)


def test_warm_multipliers_only_pick_rows():
    # lam0 seeds the first QP's working set; its size must not reach the
    # merit penalty
    nlp = regularize(academic(), Scheme.LSHAPED, 0.1)
    x0 = np.array([10.0, 10.0])
    a = solve_nlp(nlp, x0, lam0=np.ones(nlp.n_ineq))
    b = solve_nlp(nlp, x0, lam0=1e31 * np.ones(nlp.n_ineq))
    assert a.status is SolveStatus.CONVERGED
    assert (b.status, b.total_iterations) == (a.status, a.total_iterations)
    for field in ("x", "lam", "mu"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.epsilon_achieved == b.epsilon_achieved


def test_non_finite_start_rejected():
    nlp = simple_nlp(
        objective=lambda x: (float(np.log(x[0])), np.array([1.0 / x[0]])),
    )
    with pytest.raises(PreconditionError):
        solve_nlp(nlp, np.array([-1.0]))


class TestCheckEpsStationary:
    def test_lshaped_certified_family(self):
        fam = counterexamples()[0]
        t = 0.1
        nlp = regularize(fam.problem, Scheme.LSHAPED, t)
        x = np.array([0.01, 0.09])
        lam = np.array([0.0, 100.0])  # rows: [-H, kernel]
        ok, bd = check_eps_stationary(nlp, x, lam, np.zeros(0), 0.01)
        assert ok, bd

    def test_nonsmooth_exact_kkt(self):
        fam = counterexamples()[2]
        t = 0.5
        nlp = regularize(fam.problem, Scheme.NONSMOOTH, t)
        x = np.array([0.0, 0.25])
        lam = np.array([0.0, 4.0])
        ok, bd = check_eps_stationary(nlp, x, lam, np.zeros(0), 0.0)
        assert ok, bd
        assert bd["stationarity"] == 0.0

    def test_sign_violation_reported(self):
        nlp = bound_problem()
        # active constraint with lam = -2 eps: stationarity holds, sign fails
        eps = 1e-3
        ok, bd = check_eps_stationary(
            nlp, np.array([1.0]), np.array([-2 * eps]), np.zeros(0), eps
        )
        assert not ok
        assert bd["multiplier_sign"] == pytest.approx(2 * eps)

    def test_multiplier_length_checked(self):
        nlp = bound_problem()
        with pytest.raises(PreconditionError):
            check_eps_stationary(nlp, np.array([1.0]), np.zeros(2), np.zeros(0), 1e-6)
