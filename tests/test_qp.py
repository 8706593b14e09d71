import numpy as np
import pytest

from mpvc import qp
from mpvc.qp import solve_qp, solve_qp_elastic


def kkt_ok(B, c, A_eq, b_eq, A_in, b_in, res, tol=1e-7):
    """KKT verification oracle: for a strictly convex QP this certifies
    global optimality independently of the active-set path."""
    x, lam, mu = res.x, res.lam, res.mu
    r = B @ x + c
    if lam.size:
        r = r + A_in.T @ lam
    if mu.size:
        r = r + A_eq.T @ mu
    if np.max(np.abs(r)) > tol:
        return False
    if b_eq.size and np.max(np.abs(A_eq @ x - b_eq)) > tol:
        return False
    if b_in.size:
        s = A_in @ x - b_in
        if np.max(s) > tol:
            return False
        if np.min(lam) < -tol:
            return False
        if np.max(np.abs(s * lam)) > tol:
            return False
    return True


def test_unconstrained():
    B = np.diag([2.0, 4.0])
    c = np.array([-2.0, -8.0])
    res = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-10)


def test_equality_only():
    # min 1/2 ||x||^2 s.t. x1 + x2 = 2 -> x = (1, 1), mu = -1
    B = np.eye(2)
    c = np.zeros(2)
    A = np.array([[1.0, 1.0]])
    res = solve_qp(B, c, A, np.array([2.0]), np.zeros((0, 2)), np.zeros(0))
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(res.mu, [-1.0], atol=1e-10)


def test_active_bound():
    # min (x-2)^2 s.t. x <= 1 -> x = 1, lam = 2
    B = np.array([[2.0]])
    c = np.array([-4.0])
    res = solve_qp(B, c, np.zeros((0, 1)), np.zeros(0), np.array([[1.0]]), np.array([1.0]))
    np.testing.assert_allclose(res.x, [1.0], atol=1e-10)
    np.testing.assert_allclose(res.lam, [2.0], atol=1e-8)


def test_phase1_needed():
    # start infeasible: x <= -1 and x >= -3 with minimizer at origin
    B = np.eye(1)
    c = np.zeros(1)
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, 3.0])
    res = solve_qp(B, c, np.zeros((0, 1)), np.zeros(0), A, b)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [-1.0], atol=1e-8)


def test_infeasible_detected():
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, 0.0])  # x <= -1 and x >= 0
    res = solve_qp(np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0), A, b)
    assert res.status == "infeasible"


def test_duplicated_rows_degenerate():
    B = np.eye(2)
    c = np.array([-1.0, -1.0])
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.5, 0.5, 0.25])
    res = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), A, b)
    np.testing.assert_allclose(res.x, [0.5, 0.25], atol=1e-8)


def test_random_qps_against_kkt_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = rng.integers(2, 6)
        m = rng.integers(0, 8)
        p = rng.integers(0, max(1, n - 1))
        M = rng.normal(size=(n, n))
        B = M @ M.T + n * np.eye(n)
        c = rng.normal(size=n)
        A_eq = rng.normal(size=(p, n))
        b_eq = rng.normal(size=p)
        A_in = rng.normal(size=(m, n))
        b_in = rng.normal(size=m) + 1.0
        res = solve_qp(B, c, A_eq, b_eq, A_in, b_in)
        if res.status == "infeasible":
            continue
        assert res.status == "optimal", trial
        assert kkt_ok(B, c, A_eq, b_eq, A_in, b_in, res), trial


def test_warm_start_working_set():
    B = np.eye(2)
    c = np.array([-3.0, 0.0])
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    cold = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), A, b)
    warm = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), A, b, W0=cold.working_set)
    np.testing.assert_allclose(cold.x, warm.x)
    assert warm.iterations <= cold.iterations


def test_feasible_warm_point_skips_phase1(phase1_calls):
    # 1 <= x1 <= 2 with the minimizer pushed to x1 = 2: the least-squares
    # start x = 0 violates x1 >= 1, the EQP point on the warm set does not
    B = np.eye(2)
    c = np.array([-3.0, 0.0])
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([2.0, -1.0])
    cold = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), A, b)
    assert len(phase1_calls) == 1
    warm = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), A, b, W0=cold.working_set)
    assert len(phase1_calls) == 1
    assert warm.status == cold.status == "optimal"
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)
    np.testing.assert_allclose(warm.lam, cold.lam, atol=1e-12)


def test_optimal_warm_set_solves_one_eqp(monkeypatch):
    # min 1/2 ||x||^2 - 3 x1 s.t. x1 <= 1, warm set {0}: the warm EQP point
    # (1, 0) is optimal and is also the first iterate, so one KKT solve
    calls = []
    eqp = qp._eqp

    def counting_eqp(*args):
        calls.append(1)
        return eqp(*args)

    monkeypatch.setattr(qp, "_eqp", counting_eqp)
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    res = solve_qp(np.eye(2), np.array([-3.0, 0.0]), np.zeros((0, 2)), np.zeros(0), A, b, W0=[0])
    assert res.status == "optimal"
    assert res.iterations == 1
    assert len(calls) == 1
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.lam, [2.0], atol=1e-12)


def test_inconsistent_equalities_with_warm_set_are_infeasible():
    # x1 = 0 and x1 = 1: the least-squares KKT solve puts the warm EQP point
    # at x1 = 0.5, which satisfies the inequality but neither equality
    A_eq = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b_eq = np.array([0.0, 1.0])
    A_in = np.array([[0.0, 1.0, 0.0]])
    b_in = np.array([1.0])
    res = solve_qp(np.eye(3), np.zeros(3), A_eq, b_eq, A_in, b_in, W0=[0])
    assert res.status == "infeasible"


def test_warm_point_off_the_equalities_is_not_a_start():
    # x1 = 0 and x1 <= 1 with warm set {0}: the least-squares KKT solve puts
    # the warm EQP point at x1 = 0.5, which meets the inequality but not the
    # equality, so the method must start from the least-squares point instead
    A = np.array([[1.0, 0.0, 0.0]])
    qp_data = (np.eye(3), np.array([-3.0, 0.0, 0.0]), A, np.zeros(1), A, np.ones(1))
    res = solve_qp(*qp_data, W0=[0])
    assert res.status == "optimal"
    np.testing.assert_allclose(A @ res.x, [0.0], atol=1e-12)
    assert kkt_ok(*qp_data, res)


def test_elastic_relaxation_of_infeasible_rows():
    # x <= -1, x >= 1 is inconsistent; elastic splits the difference
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, -1.0])
    res = solve_qp_elastic(
        np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0), A, b, penalty=10.0
    )
    assert res.status == "optimal"
    assert abs(res.x[0]) <= 1.0
    assert res.lam.shape == (2,)


def test_elastic_matches_exact_when_feasible():
    B = np.diag([2.0, 2.0])
    c = np.array([-2.0, 0.0])
    A = np.array([[1.0, 0.0]])
    b = np.array([0.5])
    exact = solve_qp(B, c, np.zeros((0, 2)), np.zeros(0), A, b)
    elastic = solve_qp_elastic(
        B, c, np.zeros((0, 2)), np.zeros(0), A, b, penalty=100.0
    )
    np.testing.assert_allclose(exact.x, elastic.x, atol=1e-6)
    np.testing.assert_allclose(exact.lam, elastic.lam, atol=1e-5)


def test_eqp_with_singular_reduced_hessian():
    # the duplicated row makes the KKT matrix singular, and B vanishes on the
    # null space of C: the least-squares KKT solve still meets C x = d
    C = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    d = np.array([1.0, 1.0])
    x, _ = qp._eqp(np.diag([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), C, d)
    assert np.isfinite(x).all()
    np.testing.assert_allclose(C @ x, d, atol=1e-12)


def test_eqp_accepts_lu_residual_within_scaled_tolerance(monkeypatch):
    # A consistent system with max|x| * max|C| ~ 3e6 and a stiff B: the LU
    # solution misses C x = d by ~2e-7, above 1e-9 but far below 1e-9 * scale
    # (~4e-3), so it is accepted as is and the least-squares fallback never
    # runs.
    B = np.diag([1e4, 1e7, 1e-7])
    c = np.array([-28440960700.0, 14305966100.0, -35626121800.0])
    C = np.array([[371.0, 301.0, 377.0], [-222.0, -730.0, 443.0]])
    d = np.array([-106015.0, 253674.0])
    kkt = np.block([[B, C.T], [C, np.zeros((2, 2))]])
    sol = np.linalg.solve(kkt, np.concatenate([-c, d]))
    x_lu = sol[:3]
    resid = abs(C @ x_lu - d).max()
    scale = 1.0 + abs(d).max() + abs(x_lu).max() * abs(C).max()
    assert 1e-8 < resid < 1e-5 < 1e-9 * scale
    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    x, y = qp._eqp(B, c, C, d)
    assert not lstsq_calls
    assert np.array_equal(x, x_lu) and np.array_equal(y, sol[3:])


def test_bounds_leave_the_kkt_system(monkeypatch):
    # elastic mode on x <= -1, x >= 1, x <= 5: the QP has x and three slacks;
    # slack bounds in the working set shrink the KKT system, not extend it
    systems = []
    eqp = qp._eqp

    def recording_eqp(B, c, C, d):
        systems.append((B.shape[0], C))
        return eqp(B, c, C, d)

    monkeypatch.setattr(qp, "_eqp", recording_eqp)
    A = np.array([[1.0], [-1.0], [1.0]])
    b = np.array([-1.0, -1.0, 5.0])
    res = solve_qp_elastic(np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0), A, b, penalty=10.0)
    assert res.status == "optimal"
    # x is never fixed, and every row left in the system is a general one
    assert min(nvar for nvar, _ in systems) < 4
    assert all((C[:, 0] != 0).all() for _, C in systems)


def test_bounds_without_a_feasible_start():
    # min (x1 + 0.8)^2 + (x2 + 0.2)^2 s.t. x1 + x2 = -1, x2 >= 0: the
    # least-squares start (-0.5, -0.5) violates the bound, and no step blocks
    # on the way to the equality-constrained minimizer (-0.8, -0.2)
    res = solve_qp(2.0 * np.eye(2), np.array([1.6, 0.4]), np.array([[1.0, 1.0]]),
                   np.array([-1.0]), np.zeros((0, 2)), np.zeros(0), nb=1)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [-1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.lam, [0.8], atol=1e-12)


@pytest.fixture
def phase1_calls(monkeypatch):
    """A list that gets one entry per phase 1, that is per ``_project`` call."""
    calls = []
    project = qp._project

    def counting_project(*args):
        calls.append(1)
        return project(*args)

    monkeypatch.setattr(qp, "_project", counting_project)
    return calls


def test_violated_warm_row_grows_the_start(phase1_calls):
    # x1 <= 1, x2 <= 1, x1 >= 0.5 with the minimizer at (3, 3): the warm
    # point on {x1 <= 1} is (1, 3), which violates x2 <= 1; with that row
    # added the point (1, 1) is feasible (and optimal), so the start needs
    # neither the least-squares point x = 0, which violates x1 >= 0.5, nor
    # phase 1
    data = (np.eye(2), np.array([-3.0, -3.0]), np.zeros((0, 2)), np.zeros(0),
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 1.0, -0.5]))
    cold = solve_qp(*data)
    assert len(phase1_calls) == 1
    warm = solve_qp(*data, W0=[0])
    assert len(phase1_calls) == 1
    assert warm.status == cold.status == "optimal"
    assert warm.working_set == [0, 1]
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)
    np.testing.assert_allclose(warm.lam, cold.lam, atol=1e-12)


def test_warm_set_without_room_falls_back(phase1_calls):
    # x1 = x2 leaves one free direction: the warm point (1, 1) on {x1 <= 1}
    # violates x2 <= 0.5, but a second row would leave no room, so the start
    # falls back to phase 1 (the least-squares point 0 violates x1 >= 0.25)
    data = (np.eye(2), np.array([-3.0, -1.0]), np.array([[1.0, -1.0]]), np.zeros(1),
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 0.5, -0.25]))
    cold = solve_qp(*data)
    warm = solve_qp(*data, W0=[0])
    assert len(phase1_calls) == 2
    assert warm.status == cold.status == "optimal"
    np.testing.assert_allclose(warm.x, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)
    np.testing.assert_allclose(warm.lam, cold.lam, atol=1e-12)
    np.testing.assert_allclose(warm.mu, cold.mu, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_repeated_cycle_is_skipped_to_the_cap(monkeypatch, m):
    # A stubbed working-set EQP that makes the loop cycle between two states
    # at x = 0: on {0, 1} the point stays and row 1's multiplier is negative,
    # so row 1 drops; on {0} the point (0, 1) is the step, and row 1 blocks
    # it at once (x2 <= 0 is active at 0), so row 1 joins again.  The warm
    # point on {0} violates row 1, so the start grows to {0, 1}.  Row 2, when
    # present, is slack and changes only the cap: 5 (n + m) + 30.
    calls = []

    def cycling_eqp_w(B, c, A_all, b_all, eq_rows, W, nb):
        calls.append(list(W))
        if W == [0, 1]:
            return np.zeros(2), np.array([1.0, -1.0])
        assert W == [0]
        return np.array([0.0, 1.0]), np.array([0.5])

    monkeypatch.setattr(qp, "_eqp_w", cycling_eqp_w)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])[:m]
    b = np.array([0.0, 0.0, 10.0])[:m]
    res = solve_qp(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0), A, b, W0=[0])
    cap = 5 * (2 + m) + 30
    assert res.status == "max_iter"
    assert res.iterations == cap
    assert len(calls) < 20
    np.testing.assert_array_equal(res.x, np.zeros(2))
    lam = np.zeros(m)
    if cap % 2 == 0:
        # the last iteration solved on {0} and row 1 joined after it
        assert res.working_set == [0, 1]
        lam[0] = 0.5
    else:
        # the last iteration solved on {0, 1} and row 1 dropped after it
        assert res.working_set == [0]
        lam[0] = 1.0
    np.testing.assert_array_equal(res.lam, lam)


def record_nested_qps(mp):
    """Patch ``qp.solve_qp`` through ``mp``, a ``pytest.MonkeyPatch``, so that
    every call through the module appends (its ``x0``, its ``W0``, its result)
    to the returned list.  Called as the unpatched ``solve_qp`` imported
    above, a QP records only its phase 1's nested projection QP."""
    calls = []
    solve = qp.solve_qp

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append((kwargs.get("x0"), kwargs.get("W0"), res))
        return res

    mp.setattr(qp, "solve_qp", recording)
    return calls


@pytest.fixture
def nested_qps(monkeypatch):
    return record_nested_qps(monkeypatch)


def test_projection_drops_a_row_it_added(nested_qps):
    # The projection of 0 onto {10 x1 <= -10, x1 + 2 x2 <= -6}.  Row 0 is
    # the more violated (10 against 6) and joins first, at (-1, 0) with
    # multiplier 0.1.  Adding row 1 moves along z = (0, 2), its part
    # orthogonal to row 0, while row 0's multiplier falls by r = 0.1 per
    # unit: it reaches 0 at t = 1, before row 1 holds (t = 5/4), so row 0
    # drops at (-1, -2).  Alone, row 1 holds 1/5 further on: the exact
    # projection (-6/5, -12/5) with multiplier 6/5, where row 0 is slack.
    no_eq = (np.zeros((0, 2)), np.zeros(0))
    A_in = np.array([[10.0, 0.0], [1.0, 2.0]])
    b_in = np.array([-10.0, -6.0])
    proj = qp._project(*no_eq, A_in, b_in, np.zeros(2))
    assert proj.status == "optimal"
    assert proj.iterations == 3         # add row 0, drop it, add row 1
    assert proj.working_set == [1]
    np.testing.assert_allclose(proj.x, [-1.2, -2.4], rtol=0, atol=1e-14)
    np.testing.assert_allclose(proj.lam, [0.0, 1.2], rtol=0, atol=1e-14)
    # phase 1 solves the projection QP from there, which confirms it in one
    # iteration; the outer QP (the same projection) then starts at its point
    res = solve_qp(np.eye(2), np.zeros(2), *no_eq, A_in, b_in)
    (x0, W0, nested), = nested_qps
    np.testing.assert_array_equal(x0, proj.x)
    assert W0 == [1]
    assert nested.status == "optimal" and nested.iterations == 1
    np.testing.assert_allclose(nested.x, [-1.2, -2.4], rtol=0, atol=1e-14)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [-1.2, -2.4], rtol=0, atol=1e-14)


def test_empty_projection_is_infeasible(nested_qps):
    # x1 <= -1, x1 >= 2 and x1 <= 0.1: from 0, row 1 is the most violated
    # (by 2) and joins first.  Row 0's normal is then -1 times row 1's, so
    # it cannot move x, and row 1's multiplier would have to rise to satisfy
    # it: nothing can be released, and the set is empty.
    no_eq = (np.zeros((0, 2)), np.zeros(0))
    A_in = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    b_in = np.array([-1.0, -2.0, 0.1])
    proj = qp._project(*no_eq, A_in, b_in, np.zeros(2))
    assert proj.status == "infeasible"
    assert proj.iterations == 2
    # that verdict is the QP's, with no nested projection QP
    res = solve_qp(np.eye(2), np.zeros(2), *no_eq, A_in, b_in)
    assert res.status == "infeasible" and res.iterations == 0
    assert nested_qps == []


def test_duplicated_equalities_are_infeasible_at_once(nested_qps):
    # x1 + x2 = 2 written twice, and x1 <= 0.5: the least-squares point
    # (1, 1) violates the inequality, and the projection stops at once on
    # the linearly dependent equality normals.  solve_qp reports that as
    # "infeasible", and the SQP's elastic mode takes over.
    A_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
    b_eq = np.array([2.0, 2.0])
    A_in, b_in = np.array([[1.0, 0.0]]), np.array([0.5])
    assert qp._project(A_eq, b_eq, A_in, b_in, np.ones(2)).status == "max_iter"
    res = solve_qp(np.eye(2), np.zeros(2), A_eq, b_eq, A_in, b_in)
    assert res.status == "infeasible" and res.iterations == 0
    assert nested_qps == []


@pytest.mark.parametrize("W0", [None, [0]])
def test_dependent_equalities_keep_the_blocking_row(W0):
    # x1 + x2 = 0 written twice (p = n = 2) and x1 <= 0: from x = 0 the EQP
    # step to (4, -4) is blocked at once by x1 <= 0.  The saturated set
    # holds no earlier row to drop, so the blocker stays, and the dependent
    # KKT system gives x = 0 with lam = 8 and mu summing to -3.
    A_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
    data = (np.eye(2), np.array([-5.0, 3.0]), A_eq, np.zeros(2), np.array([[1.0, 0.0]]), np.zeros(1))
    res = solve_qp(*data, W0=W0)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(res.lam, [8.0], atol=1e-9)
    np.testing.assert_allclose(res.mu.sum(), -3.0, atol=1e-9)
    assert kkt_ok(*data, res)
