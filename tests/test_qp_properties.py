"""Property tests of the active-set QP: the starting point and the starting
working set choose only the path, never the optimum of a strictly convex
QP, phase 1 finds a feasible point exactly when one exists (the projection
of its start, which the projection QP confirms in one iteration), bounds
passed as bounds give the optimum of the same bounds passed as rows, and
an equality-constrained subproblem with dependent rows is still solved."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from mpvc.qp import _eqp, _project, solve_qp  # noqa: E402
from test_qp import kkt_ok, record_nested_qps  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def feasible_polytope(rng, n, p, m, tight):
    """Rows A_eq x = b_eq, A_in x <= b_in around a point x_f they hold at;
    the first ``tight`` inequalities are active at x_f."""
    x_f = rng.normal(size=n)
    A_eq = rng.normal(size=(p, n))
    A_in = rng.normal(size=(m, n))
    slack = rng.uniform(0.1, 2.0, size=m)
    slack[:tight] = 0.0
    return A_eq, A_eq @ x_f, A_in, A_in @ x_f + slack


def convex_objective(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n), 3.0 * rng.normal(size=n)


sizes = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1), st.integers(0, 8), st.integers(0, 2**32 - 1)
    )
)


@SETTINGS
@given(sizes, st.integers(0, 3), st.booleans())
def test_start_does_not_change_the_optimum(dims, tight, parallel):
    n, p, m, seed = dims
    rng = np.random.default_rng(seed)
    A_eq, b_eq, A_in, b_in = feasible_polytope(rng, n, p, m, min(tight, m, n - p))
    if parallel and p:
        # an inequality parallel to an equality, slack on the equalities: a
        # warm set holding both has a least-squares EQP point off the
        # equalities, which must not become the start
        f = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        A_in = np.vstack([A_in, f * A_eq[0]])
        b_in = np.concatenate([b_in, [f * b_eq[0] + rng.uniform(0.1, 2.0)]])
        m += 1
    B, c = convex_objective(rng, n)
    qp = (B, c, A_eq, b_eq, A_in, b_in)
    cold = solve_qp(*qp)
    assert cold.status == "optimal"
    assert kkt_ok(*qp, cold)
    subset = [i for i in range(m) if rng.random() < 0.5]
    for W0 in (cold.working_set, subset):
        warm = solve_qp(*qp, W0=W0)
        assert warm.status == "optimal", W0
        assert kkt_ok(*qp, warm), W0
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)


@SETTINGS
@given(sizes, st.booleans(), st.booleans())
def test_phase1_finds_a_feasible_point_iff_one_exists(dims, consistent, parallel):
    n, p, m, seed = dims
    m = max(m, 1)   # solve_qp calls phase 1 only to satisfy inequalities
    rng = np.random.default_rng(seed)
    A_eq, b_eq, A_in, b_in = feasible_polytope(rng, n, p, m, 0)
    if parallel:
        # normals in the span of others, which the projection must add or
        # skip without a move: a scaled copy of row 0, tighter by less than
        # the 0.1 of room every row has at the feasible point (when row 0
        # joins first, the copy replaces it by a drop), and a row parallel
        # to an equality with room left, as in the test above
        f = rng.uniform(0.2, 2.0)
        A_in = np.vstack([A_in, f * A_in[0]])
        b_in = np.concatenate([b_in, [f * (b_in[0] - rng.uniform(0.0, 0.1))]])
        if p:
            g = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            A_in = np.vstack([A_in, g * A_eq[0]])
            b_in = np.concatenate([b_in, [g * b_eq[0] + rng.uniform(0.1, 2.0)]])
    if not consistent:
        # a . x <= beta and a . x >= beta + 1 exclude each other
        a = rng.normal(size=n)
        A_in = np.vstack([A_in, a, -a])
        b_in = np.concatenate([b_in, [0.5, -1.5]])
    # Move the origin to x_init, 5 away on average: the least-squares point
    # on the equalities, where solve_qp's phase 1 starts, is then the
    # projection of x_init onto them.  Phase 1 runs when it violates a row.
    x_init = 5.0 * rng.normal(size=n)
    b_eq, b_in = b_eq - A_eq @ x_init, b_in - A_in @ x_init
    x_ls = np.linalg.lstsq(A_eq, b_eq, rcond=None)[0] if p else np.zeros(n)
    scale = 1.0 + np.max(np.abs(b_in)) + (np.max(np.abs(b_eq)) if p else 0.0)
    assume(np.max(A_in @ x_ls - b_in) > 1e-9 * scale)
    B, c = convex_objective(rng, n)
    qp = (B, c, A_eq, b_eq, A_in, b_in)
    proj = _project(A_eq, b_eq, A_in, b_in, x_ls)
    with pytest.MonkeyPatch.context() as mp:
        nested_qps = record_nested_qps(mp)
        res = solve_qp(*qp)
    if not consistent:
        assert proj.status == "infeasible"
        assert res.status == "infeasible"
        assert nested_qps == []
        return
    assert res.status == "optimal"
    assert kkt_ok(*qp, res)
    # proj.x is the projection of x_ls: x - x_ls = -(A_eq^T mu + A_in^T u)
    # with u >= 0 zero on the rows x leaves slack
    assert proj.status == "optimal"
    x = proj.x
    tol = 1e-7 * scale
    assert np.max(A_in @ x - b_in) <= tol
    if p:
        assert np.max(np.abs(A_eq @ x - b_eq)) <= tol
    atol = 1e-9 * (1.0 + np.max(np.abs(x_ls)))
    np.testing.assert_allclose(x - x_ls, -(A_eq.T @ proj.mu + A_in.T @ proj.lam), rtol=0, atol=atol)
    assert proj.lam.min() >= 0.0
    assert np.max(np.abs(proj.lam * (A_in @ x - b_in))) <= atol
    # and the projection QP, started there, only confirms it
    (x0, W0, nested), = nested_qps
    np.testing.assert_array_equal(x0, x)
    assert W0 == proj.working_set
    assert nested.status == "optimal"
    assert nested.iterations == 1
    np.testing.assert_allclose(nested.x, x, rtol=0, atol=atol)


@SETTINGS
@given(sizes, st.integers(1, 6), st.booleans())
def test_bounds_as_bounds_match_bounds_as_rows(dims, k, warm):
    n, p, m, seed = dims
    k = min(k, n)
    rng = np.random.default_rng(seed)
    # a feasible start with some of the bounded variables at their bound,
    # no more than a vertex holds: degenerate starts may cycle either way
    x_f = rng.normal(size=n)
    x_f[n - k:] = abs(x_f[n - k:])
    x_f[n - k + rng.permutation(k)[:rng.integers(0, min(k, n - p) + 1)]] = 0.0
    A_eq = rng.normal(size=(p, n))
    A_in = rng.normal(size=(m, n))
    b_eq, b_in = A_eq @ x_f, A_in @ x_f + rng.uniform(0.0, 2.0, size=m)
    B, c = convex_objective(rng, n)
    W0 = [i for i in range(m + k) if rng.random() < 0.5] if warm else None
    bounded = solve_qp(B, c, A_eq, b_eq, A_in, b_in, x0=x_f, W0=W0, nb=k)
    rows = np.hstack([np.zeros((k, n - k)), -np.eye(k)])
    qp = (B, c, A_eq, b_eq, np.vstack([A_in, rows]), np.concatenate([b_in, np.zeros(k)]))
    explicit = solve_qp(*qp, x0=x_f, W0=W0)
    # without a feasible start the bounds are solved as rows
    no_start = solve_qp(B, c, A_eq, b_eq, A_in, b_in, W0=W0, nb=k)
    assert bounded.status == explicit.status == no_start.status
    if explicit.status == "optimal":
        assert kkt_ok(*qp, explicit)
        assert kkt_ok(*qp, bounded)
        np.testing.assert_allclose(bounded.x, explicit.x, atol=1e-8)
        np.testing.assert_allclose(no_start.x, explicit.x, atol=1e-8)


@SETTINGS
@given(sizes, st.booleans())
def test_eqp_solves_consistent_dependent_rows(dims, duplicate):
    # C has rank r < k: an extra row that copies one row of an independent
    # set, or combines all of them, inserted anywhere; d = C x_f holds it
    n, r, _, seed = dims
    r += 1
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(r, n))
    extra = C[rng.integers(r)] if duplicate else rng.normal(size=r) @ C
    C = np.insert(C, rng.integers(r + 1), extra, axis=0)
    d = C @ rng.normal(size=n)
    B, c = convex_objective(rng, n)
    x, y = _eqp(B, c, C, d)
    scale = 1.0 + abs(c).max() + abs(d).max() + abs(x).max() * (abs(B).max() + abs(C).max())
    scale += abs(y).max() * abs(C).max()
    assert abs(C @ x - d).max() <= 1e-9 * scale
    assert abs(B @ x + c + C.T @ y).max() <= 1e-9 * scale
