import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmm.geometry import BoxSet, stationarity_measure
from sbmm.quadform import FactorQuad
from sbmm.subsolver import (
    SubsolverError,
    solve_block_quadratic,
    solve_box_qp,
    solve_code_lasso,
)


# ---------------------------------------------------------------------------
# oracles


def lasso_objective(X, W, H, lam):
    return float(np.sum((X - W @ H) ** 2)) + lam * float(np.abs(H).sum())


def grid_min_lasso_1d(X, W, lam, lo, up, n=200_001):
    """Dense scan of the scalar code problem."""
    hs = np.linspace(lo, up, n)
    vals = (X[0, 0] - W[0, 0] * hs) ** 2 + lam * np.abs(hs)
    i = int(np.argmin(vals))
    return hs[i], float(vals[i])


def grid_min_quad_2d(g, box, n=1001, center=None, radius=math.inf):
    """Dense 2-D scan of a one-row FactorQuad over box (optionally cut by a
    ball), evaluated in closed form over the whole grid at once."""
    xs = np.linspace(box.lower[0], box.upper[0], n)
    ys = np.linspace(box.lower[1], box.upper[1], n)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    if not math.isinf(radius):
        keep = np.linalg.norm(pts - center[None, :], axis=1) <= radius
        pts = pts[keep]
    vals = np.einsum("ij,jk,ik->i", pts, g.A, pts) - 2.0 * pts @ g.B[:, 0] + g.C
    i = int(np.argmin(vals))
    return pts[i], float(vals[i])


# ---------------------------------------------------------------------------
# soft_threshold, the rank-1 box QP's oracle


def soft_threshold(v, kappa):
    """sign(v) * max(|v| - kappa, 0), elementwise: the prox of kappa |x|."""
    if np.any(np.asarray(kappa) < 0):
        raise ValueError("threshold must be >= 0")
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def test_soft_threshold_identities():
    assert soft_threshold(0.3, 0.5) == 0.0
    assert soft_threshold(1.5, 0.5) == pytest.approx(1.0)
    assert soft_threshold(-1.5, 0.5) == pytest.approx(-1.0)
    np.testing.assert_allclose(
        soft_threshold(np.array([-2.0, -0.1, 0.0, 0.1, 2.0]), 0.25),
        np.array([-1.75, 0.0, 0.0, 0.0, 1.75]))


def test_soft_threshold_zero_kappa_is_identity():
    v = np.array([-1.0, 0.0, 2.5])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_rejects_negative_kappa():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


@given(st.floats(-10, 10), st.floats(0, 5))
@settings(max_examples=100, deadline=None)
def test_soft_threshold_is_l1_prox(v, kappa):
    # prox property: s = soft(v, kappa) minimizes 0.5 (x - v)^2 + kappa |x|
    s = float(soft_threshold(v, kappa))
    obj = lambda x: 0.5 * (x - v) ** 2 + kappa * abs(x)
    for x in np.linspace(v - 2 * kappa - 1, v + 2 * kappa + 1, 101):
        assert obj(s) <= obj(float(x)) + 1e-12


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1.0, 1.0), (-1.5, -0.2)])
@pytest.mark.parametrize("lam", [0.0, 0.05, 0.5])
def test_rank1_box_qp_is_the_clipped_soft_threshold(lam, bounds):
    # at k = 1 each row's g x^2 - 2 c x + lam |x| over [lo, up] is
    # separable: its minimizer is soft(c, lam / 2) / g clipped into the box
    rng = np.random.default_rng(59)
    lo, up = bounds
    for trial in range(20):
        g = float(rng.uniform(0.1, 3.0))
        C = rng.normal(size=(6, 1)) * 2.0
        X, gap = solve_box_qp(np.array([[g]]), C, lo, up, lam, tol=1e-12)
        want = np.clip(soft_threshold(C, lam / 2) / g, lo, up)
        assert np.all(np.abs(X - want) <= 1e-12 * (1.0 + np.abs(want))) and gap <= 1e-12


# ---------------------------------------------------------------------------
# solve_code_lasso


def test_code_lasso_scalar_analytic():
    # min (1 - h)^2 + 0.4 |h| over [-5, 5]: h = soft(1, 0.2) = 0.8
    X = np.array([[1.0]])
    W = np.array([[1.0]])
    H, gap = solve_code_lasso(X, W, 0.4, BoxSet.uniform(1, -5.0, 5.0), tol=1e-12)
    assert H[0, 0] == pytest.approx(0.8, abs=1e-9)
    assert 0.0 <= gap <= 1e-12


def test_code_lasso_scalar_matches_grid():
    rng = np.random.default_rng(0)
    for _ in range(50):
        X = rng.normal(size=(1, 1)) * 2.0
        W = np.array([[rng.uniform(0.2, 2.0)]])
        lam = float(rng.uniform(0.0, 1.0))
        lo, up = sorted(rng.uniform(-3.0, 3.0, size=2))
        box = BoxSet(lower=np.array([lo]), upper=np.array([up]))
        H, _ = solve_code_lasso(X, W, lam, box, tol=1e-12)
        h_star, v_star = grid_min_lasso_1d(X, W, lam, lo, up)
        assert lasso_objective(X, W, H, lam) <= v_star + 1e-8
        assert abs(H[0, 0] - h_star) <= 1e-4


def test_code_lasso_identity_dictionary_no_penalty():
    # W = I, lam = 0: H is X clipped into the box
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3, 4)) * 2.0
    box = BoxSet.uniform(3, -1.0, 1.0)
    H, gap = solve_code_lasso(X, np.eye(3), 0.0, box, tol=1e-12)
    np.testing.assert_allclose(H, np.clip(X, -1.0, 1.0), atol=1e-9)
    assert gap <= 1e-12


def test_code_lasso_large_penalty_gives_zero():
    # KKT: if lam/2 >= max |(W^T X)_ij| the zero code is optimal
    rng = np.random.default_rng(2)
    X = rng.random(size=(4, 3))
    W = rng.random(size=(4, 2))
    lam = 2.0 * float(np.abs(W.T @ X).max()) + 0.1
    H, gap = solve_code_lasso(X, W, lam, BoxSet.uniform(2, -2.0, 2.0), tol=1e-12)
    np.testing.assert_allclose(H, 0.0, atol=1e-10)
    assert gap <= 1e-12


def test_code_lasso_nonneg_box_active():
    # strongly negative correlation with a nonnegative box pins the code at 0
    X = -np.ones((2, 2))
    W = np.ones((2, 1))
    H, _ = solve_code_lasso(X, W, 0.0, BoxSet.nonneg(1, upper=3.0), tol=1e-12)
    np.testing.assert_allclose(H, 0.0, atol=1e-12)


def test_code_lasso_gap_certifies_suboptimality():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3, 1))
    W = rng.normal(size=(3, 2))
    box = BoxSet.uniform(2, -1.5, 1.5)
    lam = 0.3
    # loose tolerance so the returned gap is not tiny
    H, gap = solve_code_lasso(X, W, lam, box, tol=1e-2)
    assert gap > 0.0
    # dense 2-D brute force reference for the single-column code
    hs = np.linspace(-1.5, 1.5, 1501)
    HA, HB = np.meshgrid(hs, hs, indexing="ij")
    resid = X[:, 0][None, None, :] - (HA[..., None] * W[:, 0] + HB[..., None] * W[:, 1])
    vals = np.sum(resid ** 2, axis=-1) + lam * (np.abs(HA) + np.abs(HB))
    best = float(vals.min())
    assert lasso_objective(X, W, H, lam) - best <= gap + 1e-5


def test_code_lasso_warm_start_and_validation():
    X = np.ones((2, 2))
    W = np.ones((2, 1))
    box = BoxSet.uniform(1, 0.0, 2.0)
    H, _ = solve_code_lasso(X, W, 0.0, box, H0=np.array([[5.0, -3.0]]), tol=1e-12)
    assert np.all(H >= 0.0) and np.all(H <= 2.0)
    with pytest.raises(ValueError):
        solve_code_lasso(X, W, -0.5, box)
    with pytest.raises(ValueError):
        solve_code_lasso(X, np.ones((3, 1)), 0.0, box)
    with pytest.raises(ValueError):
        solve_code_lasso(X, W, 0.0, BoxSet.uniform(5, 0.0, 1.0))


def test_code_lasso_rejects_a_per_entry_box():
    # the code box has one interval per code row (dim r), shared by every
    # column; a box of dim r*d, one interval per entry, is refused
    X = np.array([[2.0, -2.0]])
    W = np.array([[1.0]])
    box = BoxSet(lower=np.array([0.0, -0.5]), upper=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="code box dim 2 must be the rank 1"):
        solve_code_lasso(X, W, 0.0, box, tol=1e-12)


def test_nan_start_entries_take_the_default_start():
    # a start's nan entries take the default start, the least-squares point
    # C G^+ clipped into the box: a nan row at k = 3 (solve_box_qp) and a nan
    # column at rank 5 (solve_code_lasso, alone and in a stack) give the
    # bytes of the same solve started there from that point, with a finite
    # gap <= tol, and an all-nan start gives the bytes of no start
    rng = np.random.default_rng(31)
    M = rng.normal(size=(3, 4))
    G, C = M @ M.T + 0.1 * np.eye(3), rng.normal(size=(4, 3))
    X0 = rng.uniform(0.0, 1.0, size=C.shape)
    X0[1] = np.nan
    filled = np.where(np.isnan(X0), np.linalg.solve(G, C.T).T, X0)
    X, gap = solve_box_qp(G, C, 0.0, 1.0, 0.05, X0)
    ref, ref_gap = solve_box_qp(G, C, 0.0, 1.0, 0.05, filled)
    assert X.tobytes() == ref.tobytes() and gap == ref_gap and 0.0 <= gap <= 1e-8
    none = solve_box_qp(G, C, 0.0, 1.0, 0.05)
    assert solve_box_qp(G, C, 0.0, 1.0, 0.05, np.full(C.shape, np.nan))[0].tobytes() == (
        none[0].tobytes())
    box = BoxSet.uniform(5, 0.0, 1.0)
    for lead in ((), (2,)):
        X, W = rng.uniform(0.0, 1.0, size=lead + (8, 6)), rng.uniform(0.0, 1.0, size=lead + (8, 5))
        Wt = W.swapaxes(-1, -2)
        H0 = rng.uniform(0.0, 1.0, size=lead + (5, 6))
        H0[..., 2] = np.nan
        filled = np.where(np.isnan(H0), np.linalg.solve(Wt @ W, Wt @ X), H0)
        H, gap = solve_code_lasso(X, W, 0.05, box, H0=H0)
        ref, ref_gap = solve_code_lasso(X, W, 0.05, box, H0=filled)
        assert H.tobytes() == ref.tobytes() and np.all(np.isfinite(gap)) and np.all(gap <= 1e-8)
        assert np.asarray(gap).tobytes() == np.asarray(ref_gap).tobytes()
        none = solve_code_lasso(X, W, 0.05, box)[0]
        assert solve_code_lasso(X, W, 0.05, box, H0=np.full(H0.shape, np.nan))[0].tobytes() == (
            none.tobytes())


def test_a_misshaped_start_is_refused():
    # a start must have the solution's shape: a code start with an extra
    # column (rank 2), one column for four (rank 3, no broadcast), a
    # transposed one, one without its stack axis, and box QP starts of the
    # wrong shape each raise ValueError naming both shapes
    from sbmm.factorize import factor_loss

    def refused(got, want):
        return pytest.raises(ValueError, match=re.escape(
            f"a start of shape {got} for a solution of shape {want}"))
    rng = np.random.default_rng(32)
    for lead, r, shape in (((), 2, (2, 5)), ((), 3, (3, 1)), ((), 3, (4, 3)), ((2,), 3, (3, 4))):
        X, W = rng.normal(size=lead + (6, 4)), rng.normal(size=lead + (6, r))
        with refused(shape, lead + (r, 4)):
            solve_code_lasso(X, W, 0.05, BoxSet.uniform(r, 0.0, 1.0), H0=np.zeros(shape))
    G, C = 2.0 * np.eye(3), rng.normal(size=(4, 3))
    for shape in ((3, 4), (5, 3), (1, 4, 3)):
        with refused(shape, (4, 3)):
            solve_box_qp(G, C, 0.0, 1.0, 0.05, np.zeros(shape))
    with refused((2, 3, 6), (2, 3, 4)):
        factor_loss(rng.normal(size=(2, 6, 4)), rng.normal(size=(6, 3)), 0.05,
                    BoxSet.uniform(3, 0.0, 1.0), H0=np.zeros((2, 3, 6)))


@pytest.mark.parametrize("k", [2, 5])
def test_a_tol_below_the_gap_allowance_still_certifies_a_binding_block(k, monkeypatch):
    # at tol 1e-14, below the certified gap's rounding allowance, the ball
    # search's gap exit is out of reach and it narrows its bracket with box
    # solves; the first binding block of _ball_block_instance's seeds still
    # gives a point in box and ball with its descent certificate
    import sbmm.subsolver as subsolver

    solves = _count_calls(monkeypatch, subsolver, ["_minimize"])
    for seed in range(20):
        G, C, lo, up, center, radius = _ball_block_instance(np.random.default_rng(seed), k)
        X0 = subsolver._minimize(G, C, subsolver._BoxFamily(0.0, lo, up, k), center, 1e-8)[0]
        if np.linalg.norm(X0 - center) > radius:
            break
    else:
        raise AssertionError("no binding block")
    g = FactorQuad(A=G, B=C.T, C=0.0, anchor=center)
    solves["_minimize"] = 0
    W, value, new = solve_block_quadratic(g, BoxSet(lo.ravel(), up.ravel()), radius, tol=1e-14)
    assert solves["_minimize"] >= 1 and new <= value
    assert (W >= lo).all() and (W <= up).all()
    assert radius * (1.0 - 1e-9) <= np.linalg.norm(W - center) <= radius * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# solve_block_quadratic


def _quad(curv, linear, start):
    """The vector quadratic 0.5 t'Qt + b't (Q = curv I for a scalar curv) as
    the one-row FactorQuad A = Q/2, B = -b/2, anchored at start."""
    b = np.asarray(linear, dtype=float)
    Q = curv * np.eye(b.size) if np.isscalar(curv) else curv
    return FactorQuad(A=Q / 2, B=-b[:, None] / 2, C=0.0,
                      anchor=np.asarray(start, dtype=float)[None])


def test_block_quadratic_interior_analytic():
    # min 0.5*2*||t||^2 + b't over a big box: t = -b/2
    b = np.array([1.0, -3.0])
    g = _quad(2.0, b, np.zeros(2))
    W, _, _ = solve_block_quadratic(g, BoxSet.uniform(2, -10.0, 10.0), math.inf, tol=1e-10)
    np.testing.assert_allclose(W[0], -b / 2.0, atol=1e-8)


def test_block_quadratic_matches_grid_box_only():
    rng = np.random.default_rng(4)
    for t in range(50):
        M = rng.normal(size=(2, 2))
        Q = M @ M.T + 0.2 * np.eye(2)
        b = rng.normal(size=2)
        lo = rng.uniform(-2.0, -0.5, size=2)
        up = rng.uniform(0.5, 2.0, size=2)
        box = BoxSet(lower=lo, upper=up)
        start = np.clip(rng.normal(size=2), lo, up)
        g = _quad(Q, b, start)
        W, _, _ = solve_block_quadratic(g, box, math.inf, tol=1e-10)
        p_star, v_star = grid_min_quad_2d(g, box)
        assert g.value(W) <= v_star + 1e-8
        # location agreement up to the grid pitch (box width / 1000)
        pitch = float(np.max(up - lo)) / 1000.0
        assert np.linalg.norm(W[0] - p_star) <= 2.0 * pitch


def test_block_quadratic_matches_grid_with_ball():
    rng = np.random.default_rng(5)
    for t in range(15):
        M = rng.normal(size=(2, 2))
        Q = M @ M.T + 0.2 * np.eye(2)
        b = rng.normal(size=2) * 2.0
        box = BoxSet.uniform(2, -2.0, 2.0)
        start = np.clip(rng.normal(size=2), -2.0, 2.0)
        radius = float(rng.uniform(0.2, 1.0))
        g = _quad(Q, b, start)
        W, _, _ = solve_block_quadratic(g, box, radius, tol=1e-10)
        assert np.linalg.norm(W[0] - start) <= radius + 1e-8
        _, v_star = grid_min_quad_2d(g, box, center=start, radius=radius)
        assert g.value(W) <= v_star + 1e-6


def test_block_quadratic_freezes_complement():
    # rows 1 and 3 of the separable 4 x 1 quadratic ||W||^2 + b'W: the other
    # rows stay at the anchor, the block's reach their own optimum
    rng = np.random.default_rng(7)
    b = rng.normal(size=4)
    box = BoxSet.uniform(4, -5.0, 5.0)
    prev = np.clip(rng.normal(size=4), -5.0, 5.0)
    rows = np.array([1, 3])
    g = FactorQuad(A=np.eye(1), B=-b[None, :] / 2, C=0.0, anchor=prev[:, None])
    W, g_start, _ = solve_block_quadratic(g, box, math.inf, rows, tol=1e-10)
    assert g_start == g.value(prev)
    np.testing.assert_array_equal(W[[0, 2], 0], prev[[0, 2]])
    np.testing.assert_allclose(W[rows, 0], -b[rows] / 2.0, atol=1e-8)


def test_block_quadratic_monotone_descent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        M = rng.normal(size=(3, 3))
        Q = M @ M.T
        b = rng.normal(size=3)
        box = BoxSet.uniform(3, -1.0, 1.0)
        start = np.clip(rng.normal(size=3), -1.0, 1.0)
        g = _quad(Q, b, start)
        W, g_start, _ = solve_block_quadratic(g, box, float(rng.uniform(0.1, 2.0)), tol=1e-8)
        # the returned descent certificate is the objective at the anchor
        assert g_start == g.value(start)
        assert g.value(W) <= g.value(start) + 1e-12


def test_block_quadratic_second_order_growth():
    # exact minimizer over a convex set with rho-strong convexity:
    # g(theta) >= g(theta_hat) + (rho/2) ||theta - theta_hat||^2
    rng = np.random.default_rng(9)
    rho = 0.8
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])  # min eig > rho
    g = _quad(Q, rng.normal(size=2), np.zeros(2))
    box = BoxSet.uniform(2, -1.0, 1.0)
    theta_hat = solve_block_quadratic(g, box, math.inf, tol=1e-12)[0][0]
    scale = 1.0 + abs(g.value(theta_hat))
    for _ in range(50):
        theta = np.clip(rng.normal(size=2), -1.0, 1.0)
        lhs = g.value(theta) - g.value(theta_hat)
        rhs = 0.5 * rho * float(np.sum((theta - theta_hat) ** 2))
        assert lhs >= rhs - 1e-8 * scale


def test_block_quadratic_stationarity_at_solution():
    rng = np.random.default_rng(10)
    for _ in range(10):
        M = rng.normal(size=(3, 3))
        Q = M @ M.T + 0.1 * np.eye(3)
        b = rng.normal(size=3) * 2.0
        box = BoxSet.uniform(3, -0.5, 0.5)
        start = np.clip(rng.normal(size=3), -0.5, 0.5)
        g = _quad(Q, b, start)
        tol = 1e-8
        W, _, _ = solve_block_quadratic(g, box, math.inf, tol=tol)
        assert stationarity_measure(g.grad(W)[0], W[0], box) <= tol


def test_block_quadratic_factor_form():
    rng = np.random.default_rng(11)
    r, q = 2, 3
    M = rng.normal(size=(r, r))
    A = M @ M.T + 0.1 * np.eye(r)
    B = rng.normal(size=(r, q))
    W0 = np.clip(rng.normal(size=(q, r)), 0.0, 1.0)
    g = FactorQuad(A=A, B=B, C=0.0, anchor=W0)
    box = BoxSet.nonneg(q * r, upper=1.0)
    W, _, _ = solve_block_quadratic(g, box, math.inf, tol=1e-10)
    # KKT over the box: gradient nonneg where pinned low, nonpos where pinned
    # high, ~zero in the interior
    G = g.grad(W)
    interior = (W > 1e-7) & (W < 1.0 - 1e-7)
    assert np.all(np.abs(G[interior]) <= 1e-6)
    assert np.all(G[W <= 1e-7] >= -1e-6)
    assert np.all(G[W >= 1.0 - 1e-7] <= 1e-6)


def test_block_quadratic_zero_radius_returns_start():
    start = np.array([0.5, 0.5])
    g = _quad(1.0, np.array([5.0, 5.0]), start)
    W, _, _ = solve_block_quadratic(g, BoxSet.uniform(2, 0.0, 1.0), 1e-30, tol=1e-8)
    np.testing.assert_allclose(W[0], start, atol=1e-12)


@pytest.mark.parametrize("K", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("r", [2, 5])
def test_block_quadratic_radius_zero_returns_the_anchor(r, K):
    # a radius of 0 leaves every row at the anchor, whether the rank takes
    # the closed form (r = 2) or the active-set method, whose anchor
    # prediction must not bound the multiplier by dividing by the radius:
    # both reach the ball search's radius-numerically-zero exit
    rng = np.random.default_rng(59 + r)
    lead, q = () if K is None else (K,), 4
    H = rng.uniform(0.0, 1.0, size=lead + (r, r + 2))
    A = H @ H.swapaxes(-1, -2)
    B = rng.uniform(2.0, 5.0, size=lead + (r, q))  # the box minimizer leaves the ball
    C = 1.0 if K is None else np.ones(K)
    W0 = rng.uniform(0.2, 0.8, size=lead + (q, r))
    W, value, new = solve_block_quadratic(FactorQuad(A, B, C, W0), BoxSet.uniform(q * r, 0.0, 1.0),
                                          0.0)
    assert W.tobytes() == W0.tobytes()
    assert np.asarray(value).tobytes() == np.asarray(new).tobytes()


def _ball_bisection_reference(G, C, lo, up, center, radius):
    """Box-intersect-ball minimizer by plain bisection on the ball
    multiplier, each box solve exact.  Returns it with the working set
    (entries at a bound) of the unconstrained box solve at mu = 0 and of the
    returned point."""
    eye = np.eye(G.shape[0])
    solve = lambda mu: solve_box_qp(G + mu * eye, C + mu * center, lo, up, tol=0.0)[0]
    dist = lambda X: float(np.linalg.norm(X - center))
    fixed = lambda X: (X == lo) | (X == up)
    X0 = solve(0.0)
    if dist(X0) <= radius:
        return X0, fixed(X0), fixed(X0)
    a, b = 0.0, 1.0
    while dist(solve(b)) > radius:
        b *= 2.0
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if dist(solve(mid)) > radius:
            a = mid
        else:
            b = mid
    X = solve(b)
    return X, fixed(X0), fixed(X)


def _ball_block_instance(rng, k):
    n = int(rng.integers(1, 4))
    M = rng.normal(size=(k, k))
    G = M @ M.T + 0.05 * np.eye(k)
    C = rng.normal(size=(n, k)) * 2.0
    lo = rng.uniform(-1.5, 0.0, size=(n, k))
    up = lo + rng.uniform(0.5, 2.5, size=(n, k))
    center = rng.uniform(lo, up)
    radius = float(rng.uniform(0.05, 1.0))
    return G, C, lo, up, center, radius


def _check_ball_block(seed, k):
    """Solve one random box-intersect-ball block problem and compare it with
    the bisection reference; returns whether the working set at mu = 0
    differs from the final one."""
    from sbmm.subsolver import _BoxFamily, _box_qp_ball

    rng = np.random.default_rng(seed)
    G, C, lo, up, center, radius = _ball_block_instance(rng, k)
    obj = lambda X: float(np.sum(X * (X @ G - 2.0 * C)))
    X = _box_qp_ball(G, C, _BoxFamily(0.0, lo, up, k), center, radius, 1e-12)
    X_ref, fixed_0, fixed_ref = _ball_bisection_reference(G, C, lo, up, center, radius)
    assert float(np.linalg.norm(X - center)) <= radius * (1.0 + 1e-12)
    assert (X >= lo).all() and (X <= up).all()
    assert abs(obj(X) - obj(X_ref)) <= 1e-10 * max(1.0, abs(obj(X_ref)))
    return not np.array_equal(fixed_0, fixed_ref)


@pytest.mark.parametrize("k", [2, 5], ids=["enumerated", "active_set"])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_ball_search_matches_bisection(k, seed):
    # k = 2 is solved by pattern enumeration, k = 5 by the active-set method
    _check_ball_block(seed, k)


@pytest.mark.parametrize("k", [2, 5], ids=["enumerated", "active_set"])
def test_ball_search_matches_bisection_across_working_sets(k):
    # instances where the entries at a bound at mu = 0 are not those at the
    # final multiplier, so the first distance model is wrong
    changed = [_check_ball_block(seed, k) for seed in range(8)]
    assert sum(changed) >= 2


@pytest.mark.parametrize("seed", [88, 120, 190, 363])
def test_ball_search_inside_the_ball_after_an_anchor_root(monkeypatch, seed):
    # the rank-5 instances among seeds 0-399 whose anchor's first secular
    # root lies in (0, mu_hi) while the answer lies strictly inside the
    # ball: the search does not bisect towards that root (its bracket would
    # never narrow), but returns the box solve at mu = 0, X(0), in at most
    # two box solves
    import sbmm.subsolver as subsolver

    G, C, lo, up, center, radius = _ball_block_instance(np.random.default_rng(seed), 5)
    X_ref, _, _ = _ball_bisection_reference(G, C, lo, up, center, radius)
    assert float(np.linalg.norm(X_ref - center)) < radius
    solves = _record_ball_solves(monkeypatch)
    roots, real_root = [], subsolver._secular_root

    def root(*args):
        roots.append(real_root(*args))
        return roots[-1]
    monkeypatch.setattr(subsolver, "_secular_root", root)
    X = subsolver._box_qp_ball(G, C, subsolver._BoxFamily(0.0, lo, up, 5), center, radius, 1e-12)
    assert 0.0 < roots[0] < subsolver._mu_hi(G, C, center, radius)
    assert len(solves) <= 2
    np.testing.assert_allclose(X, X_ref, rtol=0.0, atol=1e-12)


def test_ball_search_cap_raises(monkeypatch):
    # a search that reaches BALL_MAX_ITERS steps raises, naming the radius,
    # the bracket and the last distance, instead of scaling an unverified
    # point onto the sphere; with the cap in place the instance needs more
    # than one box solve
    import sbmm.subsolver as subsolver

    G, C, lo, up, center, radius = _ball_block_instance(np.random.default_rng(0), 5)
    fam = subsolver._BoxFamily(0.0, lo, up, 5)
    with monkeypatch.context() as m:
        solves = _record_ball_solves(m)
        subsolver._box_qp_ball(G, C, fam, center, radius, 1e-12)
        assert len(solves) > 1
    monkeypatch.setattr(subsolver, "BALL_MAX_ITERS", 1)
    with pytest.raises(subsolver.SubsolverError,
                       match=r"radius .*, bracket \(.*, .*\), last distance "):
        subsolver._box_qp_ball(G, C, fam, center, radius, 1e-12)


@pytest.mark.parametrize("K", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("r", [2, 5])
@pytest.mark.parametrize("radius", [math.nan, -0.1, -math.inf])
def test_block_quadratic_refuses_a_bad_radius(r, K, radius):
    # a radius that is nan or negative is refused; 0 and inf stay legal
    rng = np.random.default_rng(60 + r)
    lead, q = () if K is None else (K,), 4
    H = rng.uniform(0.0, 1.0, size=lead + (r, r + 2))
    B = rng.uniform(2.0, 5.0, size=lead + (r, q))
    C = 1.0 if K is None else np.ones(K)
    g = FactorQuad(H @ H.swapaxes(-1, -2), B, C, rng.uniform(0.2, 0.8, size=lead + (q, r)))
    box = BoxSet.uniform(q * r, 0.0, 1.0)
    with pytest.raises(ValueError, match="radius"):
        solve_block_quadratic(g, box, radius)
    for legal in (0.0, math.inf):
        W, _, new = solve_block_quadratic(g, box, legal)
        assert np.isfinite(W).all() and np.isfinite(new).all()


def test_ball_search_fixed_working_set_settles_on_its_point(monkeypatch):
    # the box never binds, so every multiplier shares the all-free working
    # set, and its secular root's point is the answer: at rank 2 after the
    # closed form's one box solve at mu = 0, at every other rank (the
    # active-set method) from the anchor's working set with no box solve.
    # The working set's model gives the box solve's distance at every mu
    import sbmm.subsolver as subsolver

    solves = _record_ball_solves(monkeypatch)

    def check_model(G, C, box, center, radius):
        # the working set's point at the root of a distance is the box solve there
        free = np.ones(C.shape, dtype=bool)
        hi = subsolver._mu_hi(G, C, center, radius)
        for nu in (0.1 * hi, 0.5 * hi):
            X = solve_box_qp(G + nu * np.eye(len(G)), C + nu * center, box.lo, box.up, tol=0.0)[0]
            dist = float(np.linalg.norm(X - center))
            mu, P = subsolver._working_set_root(G, C, box, center, dist, free, center, 0.0, hi)
            assert abs(mu - nu) <= 1e-9 * nu
            np.testing.assert_allclose(P, X, rtol=0.0, atol=1e-12)

    rng = np.random.default_rng(3)
    for k in (2, 5):  # closed-form and active-set box solves
        M = rng.normal(size=(k, k))
        G = M @ M.T + 0.5 * np.eye(k)
        C = rng.normal(size=(3, k))
        center = np.zeros((3, k))
        radius = 0.1 * float(np.linalg.norm(np.linalg.solve(G, C.T)))
        solves.clear()
        box = subsolver._BoxFamily(0.0, -100.0, 100.0, k)
        X = subsolver._box_qp_ball(G, C, box, center, radius, 1e-8)
        assert [mu for mu, *_ in solves] == ([0.0] if k == 2 else [])
        assert abs(float(np.linalg.norm(X - center)) - radius) <= 1e-12 * radius
        check_model(G, C, box, center, radius)
    solves.clear()
    # projection onto box intersect ball: one row per entry with G = I
    x, c = np.array([3.0, -1.0, 2.0]), np.array([0.5, 0.5, 0.0])
    box = subsolver._BoxFamily(0.0, np.full((3, 1), -10.0), np.full((3, 1), 10.0), 1)
    y = subsolver._box_qp_ball(np.eye(1), x[:, None], box, c[:, None], 0.25, 1e-8)[:, 0]
    assert solves == []
    assert abs(float(np.linalg.norm(y - [0.5, 0.5, 0.0])) - 0.25) <= 1e-15
    check_model(np.eye(1), x[:, None], box, c[:, None], 0.25)


@given(st.integers(0, 10_000), st.sampled_from([1e-6, 1e-8, 1e-10]))
@settings(max_examples=60, deadline=None)
def test_code_lasso_certificate_against_brute_force(seed, tol):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    q = int(rng.integers(1, 5))
    X = rng.normal(size=(q, d))
    W = rng.normal(size=(q, r))
    lam = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0))
    lo = rng.uniform(-2.0, 0.5, size=r)
    box = BoxSet(lower=lo, upper=lo + rng.uniform(0.2, 2.5, size=r))
    H, gap = solve_code_lasso(X, W, lam, box, tol=tol)
    assert gap <= tol
    lo_b = box.lower[:, None] * np.ones((r, d))
    up_b = box.upper[:, None] * np.ones((r, d))
    assert np.all(H >= lo_b) and np.all(H <= up_b)
    # brute force per column on a grid that contains the box corners
    n = {1: 2001, 2: 201, 3: 41}[r]
    obj_h = lasso_objective(X, W, H, lam)
    grid_min = 0.0
    grid_err = 0.0
    G2 = 2.0 * np.linalg.norm(W.T @ W, 2)
    for j in range(d):
        axes = [np.linspace(lo_b[i, j], up_b[i, j], n) for i in range(r)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        vals = (np.sum((X[:, j][None, :] - pts @ W.T) ** 2, axis=1)
                + lam * np.abs(pts).sum(axis=1))
        grid_min += float(vals.min())
        # the minimizer is within half a pitch per axis of a grid point; bound
        # the objective change by the largest (sub)gradient norm over the box
        half = 0.5 * np.linalg.norm((up_b[:, j] - lo_b[:, j]) / (n - 1))
        h_max = np.linalg.norm(np.maximum(np.abs(lo_b[:, j]), np.abs(up_b[:, j])))
        lip = G2 * h_max + 2.0 * np.linalg.norm(W.T @ X[:, j]) + lam * math.sqrt(r)
        grid_err += lip * half
    # the certificate bounds the suboptimality the grid can see ...
    assert obj_h - grid_min <= gap + 1e-10 * (1.0 + abs(obj_h))
    # ... and the solution is no worse than brute force
    assert obj_h <= grid_min + 1e-10 * (1.0 + abs(obj_h))


# ---------------------------------------------------------------------------
# solve_box_qp


def _box_qp_kkt(G, C, X, lam, lo, up):
    """Largest first-order violation of the box QP at X (zero at the
    minimizer): per entry, the slope of the best feasible move."""
    grad = 2.0 * (X @ G - C)
    up_slope = np.where(X < up, -(grad + lam * np.where(X >= 0, 1.0, -1.0)), 0.0)
    down_slope = np.where(X > lo, grad - lam * np.where(X <= 0, 1.0, -1.0), 0.0)
    return float(np.maximum(np.maximum(up_slope, down_slope), 0.0).max())


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_box_qp_paths_agree(seed):
    # small k is solved by pattern enumeration; the active-set method behind
    # larger k must land on the same minimizer from any start
    from sbmm.subsolver import _BoxFamily, _active_set, _definite

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    M = rng.normal(size=(k, k))
    G = M @ M.T + 0.05 * np.eye(k)
    C = rng.normal(size=(n, k)) * 2.0
    lo = rng.uniform(-2.0, 0.5, size=(n, k))
    up = lo + rng.uniform(0.2, 2.5, size=(n, k))
    lam = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0))
    X, gap = solve_box_qp(G, C, lo, up, lam)
    assert gap <= 1e-10
    assert _box_qp_kkt(G, C, X, lam, lo, up) <= 1e-9
    X_as, _, _ = _active_set(G, C, _BoxFamily(lam, lo, up, k), rng.uniform(lo, up), 0.0, False,
                             _definite(G))
    np.testing.assert_allclose(X_as, X, atol=1e-8)


def _active_set_reference(G, C, box, X, tol, certified):
    """The active-set method with the step-length rule for every Newton
    step: each row moves until the first free entry reaches its bound (or
    zero), and takes the full step only when none does (t_block > 1).  The
    method from a start X of the box, returning (X, gap) as _active_set does
    from a start that is not predicted."""
    from sbmm.subsolver import _RELEASE_RTOL, _entry_gaps, _gap_total, _newton_direction

    n, k = C.shape
    lam, lo, up = box.lam, box.lo, box.up
    kink = lam > 0 and not box.sign
    fixed = (X == lo) | (X == up)
    if kink:
        fixed |= X == 0.0
        sgn = np.sign(X)
    absG, absC = np.abs(G), np.abs(C)
    scale = float(absG.max()) or 1.0
    floor = _RELEASE_RTOL * (2.0 * (k * scale * box.bound + float(absC.max())) + lam) * box.width
    at_min = fixed.all(axis=1)
    for _ in range(10_000):
        grad = 2.0 * (X @ G - C)
        gaps = _entry_gaps(grad, X, box)
        if tol > 0.0 and at_min.all():
            gap = _gap_total(gaps, X, absG, absC, box)
            if gap <= tol:
                return X, gap
        moving = ~at_min
        cand = np.where(fixed, gaps - floor, 0.0)
        go = at_min & (cand.max(axis=1) > 0.0)
        moving |= go
        if not moving.any():
            return X, None
        release = go[:, None] & (np.arange(k) == cand.argmax(axis=1)[:, None])
        fixed = fixed ^ release
        free = ~fixed & moving[:, None]
        if kink:
            target = np.where(grad < -lam, up, np.where(grad > lam, lo, box.zero))
            sgn = np.where(release, np.where(X != 0.0, np.sign(X), np.sign(target)), sgn)
            a = np.where(sgn > 0, box.lo_pos, lo)
            b = np.where(sgn < 0, box.up_neg, up)
            gf = np.where(free, grad + lam * sgn, 0.0)
        else:
            a, b = lo, up
            gf = np.where(free, grad + lam if lam else grad, 0.0)
        p, null_dir = _newton_direction(G, free, -0.5 * gf, scale, certified)
        end = np.where(p > 0, b, a)
        t_hit = np.divide(end - X, p, out=np.full((n, k), np.inf), where=free & (p != 0.0))
        t_block = t_hit.min(axis=1)
        blocked = t_block <= (1.0 if certified else np.where(null_dir, np.inf, 1.0))
        t = np.where(blocked, t_block, 1.0)
        X = np.where(free, np.minimum(np.maximum(X + t[:, None] * p, a), b), X)
        hit = free & blocked[:, None] & (t_hit <= t_block[:, None])
        X = np.where(hit, end, X)
        fixed = fixed | hit
        at_min = np.where(moving, ~blocked, at_min)
    raise AssertionError("reference active-set method did not stop")


@pytest.mark.parametrize("seed", range(12))
def test_active_set_full_steps_match_the_step_length_rule(seed):
    # the active-set method takes a Newton step whole, without the
    # step-length bookkeeping, when every free entry of X + p lies strictly
    # inside its bounds; that gives the iterates of the step-length rule
    # (kept above as the reference) up to rounding where (b - X) / p rounds
    # to 1, on one-signed and straddling boxes, with and without l1, on
    # certified and singular Hessians
    from sbmm.subsolver import (_BoxFamily, _active_set, _certified_gap, _definite,
                                _least_squares)

    rng = np.random.default_rng(700 + seed)
    for trial in range(6):
        k, n = int(rng.integers(3, 7)), int(rng.integers(1, 31))
        G, C = _family(rng, k, n, singular=trial == 5)
        C *= 2.0
        lo, up = (0.0, 1.0) if trial % 2 else (-1.0, 1.0)
        lam = (0.0, 0.05)[(trial // 2) % 2]
        box = _BoxFamily(lam, np.full((n, k), lo), np.full((n, k), up), k)
        certified = _definite(G)
        X0 = np.clip(_least_squares(G, C, certified), lo, up)
        X, _, gap = _active_set(G, C, box, X0, 1e-10, False, certified)
        X_ref, gap_ref = _active_set_reference(G, C, box, X0, 1e-10, certified)
        assert np.all(np.abs(X - X_ref) <= 1e-12 * (1.0 + np.abs(X_ref)))
        for g, Y in ((gap, X), (gap_ref, X_ref)):
            assert (_certified_gap(G, C, Y, box) if g is None else g) <= 1e-10


def test_box_qp_many_unknowns():
    # 3^12 patterns are too many to enumerate; the active-set path must still
    # reach the KKT point, from a random start and with l1 and a singular G
    rng = np.random.default_rng(12)
    k = 12
    for lam, rank in ((0.0, k), (0.3, k), (0.3, 4)):
        M = rng.normal(size=(k, rank))
        G = M @ M.T / rank
        C = rng.normal(size=(2, k))
        lo = np.full((2, k), -1.0)
        up = np.full((2, k), 1.5)
        X, gap = solve_box_qp(G, C, lo, up, lam, X0=rng.uniform(lo, up), tol=1e-10)
        assert gap <= 1e-10
        assert _box_qp_kkt(G, C, X, lam, lo, up) <= 1e-9


def test_box_qp_singular_hessian_keeps_free_direction_at_start():
    # the second unknown has no curvature and no linear term: every value is
    # optimal, and the solver leaves it where it started
    G = np.array([[2.0, 0.0], [0.0, 0.0]])
    C = np.array([[1.0, 0.0], [-3.0, 0.0]])
    X0 = np.array([[0.3, 0.7], [0.2, 0.1]])
    X, gap = solve_box_qp(G, C, 0.0, 1.0, 0.0, X0=X0)
    np.testing.assert_allclose(X[:, 1], X0[:, 1], atol=1e-9)
    np.testing.assert_allclose(X[:, 0], [0.5, 0.0], atol=1e-12)
    assert gap <= 1e-10


def _stall_problem(seed):
    """A random box QP (G, C, lo, up, lam, X0) with a singular Hessian of
    rank 1 to k - 1, rows scaled over four decades, per-entry boxes, an l1
    term or none, and a start or none."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(5, 9)), int(rng.integers(1, 9))
    rank = int(rng.integers(1, k))
    M = rng.normal(size=(k, rank)) * 10.0 ** rng.uniform(-2, 2, size=(k, 1))
    C = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-1, 1)
    lo = rng.uniform(-1, 0.5, size=(n, k))
    up = lo + rng.uniform(0.1, 1.5, size=(n, k))
    lam = float(rng.choice([0.0, 0.27, rng.uniform(0, 1)]))
    X0 = rng.uniform(lo, up) if rng.random() < 0.7 else None
    return M @ M.T / rank, C, lo, up, lam, X0


@pytest.mark.parametrize("seed", [15629, 18377, 24316])
def test_box_qp_singular_free_system_does_not_stall(seed):
    # each of these problems has a singular free system whose Cholesky
    # pivots all stay above 1e-12 times the scale (a pivot bounds the
    # smallest eigenvalue from above, not from below), so a pivot test
    # takes it for definite, and its LU step is about 1e15 long.  The
    # Hessian fails the certificate, so every Newton step comes from the
    # eigendecomposition, and the solve ends with its gap within tol
    import sbmm.subsolver as subsolver

    problem = _stall_problem(seed)
    assert not subsolver._definite(problem[0])
    X, gap = solve_box_qp(*problem, tol=1e-8)
    assert gap <= 1e-8
    G, C, lo, up, lam, _ = problem
    assert _box_qp_kkt(G, C, X, lam, lo, up) <= 1e-9


def test_box_qp_active_set_stops_at_loose_tol():
    # G = I, lam = 0: the minimizer is clip(c).  From zero the active-set
    # method releases the entries in order of their gaps 2 c_j; once the two
    # largest are free the rest certify 2 * (0.01 + 0.001 + 0.002) = 0.026,
    # so tol = 0.05 stops it there with a real, positive gap
    c = np.array([[1.0, 0.5, 0.01, 0.001, -0.3, 0.002]])
    G = np.eye(6)
    obj = lambda X: float(np.sum(X * (X @ G - 2.0 * c)))
    X_star = np.clip(c, 0.0, 1.0)
    X, gap = solve_box_qp(G, c, 0.0, 1.0, X0=np.zeros((1, 6)), tol=0.05)
    assert 0.026 <= gap <= 0.05
    np.testing.assert_array_equal(X, [[1.0, 0.5, 0.0, 0.0, 0.0, 0.0]])
    assert 0.0 < obj(X) - obj(X_star) <= gap
    X, gap = solve_box_qp(G, c, 0.0, 1.0, tol=1e-12)
    np.testing.assert_allclose(X, X_star, atol=1e-15)
    assert gap <= 1e-12


def test_code_lasso_loose_tol_returns_early():
    # the same problem as a code solve with W = I: a rank-6 code has too many
    # KKT patterns to enumerate, so the loose tolerance ends the solve early
    x = np.array([[1.0], [0.5], [0.01], [0.001], [-0.3], [0.002]])
    box = BoxSet.uniform(6, 0.0, 1.0)
    H, gap = solve_code_lasso(x, np.eye(6), 0.0, box, tol=0.05, H0=np.zeros((6, 1)))
    assert 0.026 <= gap <= 0.05
    H_star = np.clip(x, 0.0, 1.0)
    sub = lasso_objective(x, np.eye(6), H, 0.0) - lasso_objective(x, np.eye(6), H_star, 0.0)
    assert 0.0 < sub <= gap


def test_box_qp_default_start_is_clipped_least_squares():
    # without X0 the active-set method starts from clip(c G^+), which for
    # G = I is the minimizer itself: even tol = 0.05 returns it exactly
    c = np.array([[1.0, 0.5, 0.01, 0.001, -0.3, 0.002]])
    X, gap = solve_box_qp(np.eye(6), c, 0.0, 1.0, tol=0.05)
    np.testing.assert_array_equal(X, np.clip(c, 0.0, 1.0))
    assert gap <= 1e-12
    H, gap = solve_code_lasso(c.T, np.eye(6), 0.0, BoxSet.uniform(6, 0.0, 1.0), tol=0.05)
    np.testing.assert_array_equal(H, np.clip(c.T, 0.0, 1.0))
    assert gap <= 1e-12


def _exact_gap(G, C, X, lam, lo, up):
    """The sum of the entry gaps of _certified_gap in exact rational
    arithmetic: per entry, the max over the candidates lo, up and (if inside)
    zero of grad (x - v) + lam (|x| - |v|)."""
    from fractions import Fraction as F

    n, k = X.shape
    lam_f = F(lam)
    total = F(0)
    for i in range(n):
        for j in range(k):
            g = 2 * (sum(F(X[i, l]) * F(G[l, j]) for l in range(k)) - F(C[i, j]))
            x, a, b = F(X[i, j]), F(lo[i, j]), F(up[i, j])
            cands = [a, b] + ([F(0)] if a < 0 < b else [])
            total += max(g * (x - v) + lam_f * (abs(x) - abs(v)) for v in cands)
    return total


def _float_gap(G, C, X, box):
    """The rank-2 closed form's certified gap of X (_pair_gap_loop) and the
    float sum of its entry gaps, both from Python floats."""
    from sbmm.subsolver import _pair_gap, _pair_gap_loop

    (a, b), (_, c) = G.tolist()
    rows = box.pair_rows[0]
    rows = rows * len(C) if len(rows) == 1 else rows
    fsum = -0.0
    for (x0, x1), (c0, c1), (lo0, up0, lo1, up1, _) in zip(X.tolist(), C.tolist(), rows):
        fsum = (fsum + _pair_gap(x0, x1, a, b, c0, x0, lo0, up0, box.lam, box.sign)[0]
                + _pair_gap(x0, x1, b, c, c1, x1, lo1, up1, box.lam, box.sign)[0])
    return _pair_gap_loop(a, b, c, C.tolist(), X.tolist(), rows, box.lam, box.sign), fsum


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_certified_gap_allowance_covers_rounding(seed):
    # the allowance that _certified_gap adds to its floating-point sum must
    # cover that sum's whole rounding error, measured against the exact sum,
    # and so must the rank-2 closed form's, which sums other floats in
    # another order.  Points at the minimizer (gradient cancels to rounding
    # on free entries) on badly scaled instances are where the rounding
    # matters most.
    from sbmm.subsolver import _BoxFamily, _certified_gap, _entry_gaps

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    scale = 10.0 ** rng.integers(-3, 4)
    M = rng.normal(size=(k, k))
    G = (M @ M.T + 0.01 * np.eye(k)) * scale
    C = rng.normal(size=(n, k)) * scale * 10.0 ** rng.integers(-1, 3)
    lo = rng.uniform(-50.0, 5.0, size=(n, k))
    up = lo + rng.uniform(0.1, 60.0, size=(n, k))
    lam = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0) * scale)
    X_min, _ = solve_box_qp(G, C, lo, up, lam, tol=0.0)
    X_rand = rng.uniform(lo, up)
    for X in (X_min, X_rand):
        box = _BoxFamily(lam, lo, up, k)
        fsum = float(_entry_gaps(2.0 * (X @ G - C), X, box).sum())
        slack = _certified_gap(G, C, X, box) - max(0.0, fsum)
        exact = _exact_gap(G, C, X, lam, lo, up)
        assert abs(float(exact - type(exact)(fsum))) <= slack
        if k == 2:  # the closed form's gap, from its own floats' entry gaps
            gap, fsum = _float_gap(G, C, X, box)
            assert abs(float(exact - type(exact)(fsum))) <= gap - max(0.0, fsum)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_certified_gap_bounds_suboptimality_away_from_minimizer(seed):
    # at points of the box that are far from optimal, the certificate must
    # still bound their true suboptimality, measured against the minimizer
    from sbmm.subsolver import _BoxFamily, _certified_gap

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    M = rng.normal(size=(k, k))
    G = M @ M.T + 0.05 * np.eye(k)
    C = rng.normal(size=(n, k)) * 2.0
    lo = rng.uniform(-2.0, 0.5, size=(n, k))
    up = lo + rng.uniform(0.2, 2.5, size=(n, k))
    lam = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0))
    obj = lambda X: float(np.sum(X * (X @ G - 2.0 * C)) + lam * np.abs(X).sum())
    X_star, _ = solve_box_qp(G, C, lo, up, lam, tol=0.0)
    for _ in range(5):
        X = rng.uniform(lo, up)
        assert obj(X) - obj(X_star) <= _certified_gap(G, C, X, _BoxFamily(lam, lo, up, k)) + 1e-12


# ---------------------------------------------------------------------------
# stacks of families


def _family(rng, k, n, singular=False):
    M = rng.normal(size=(k, max(k - 1, 1) if singular else k + 1))
    return M @ M.T + (0.0 if singular else 0.05) * np.eye(k), rng.normal(size=(n, k))


@pytest.mark.parametrize("k", [2, 5], ids=["enumerated", "active_set"])
@pytest.mark.parametrize("lam", [0.0, 0.3], ids=["lam0", "lam"])
@pytest.mark.parametrize("bounds", ["shared", "per_member"])
def test_box_qp_stack_matches_each_family(k, lam, bounds):
    # a stack of families is solved in one batch, yet each member's X and
    # certified gap are the bytes its own family's solve gives, whatever
    # the stack's size and order; one member has a singular Hessian
    rng = np.random.default_rng(17 + k)
    K, n = 6, 3
    fams = [_family(rng, k, n, singular=(j == 2)) for j in range(K)]
    G = np.stack([f[0] for f in fams])
    C = np.stack([f[1] for f in fams])
    if bounds == "shared":
        lo, up = np.full((n, k), -0.5), np.full((n, k), 0.7)
        member = lambda a, j: a
    else:
        lo = rng.uniform(-1.0, 0.0, size=(K, n, k))
        up = lo + rng.uniform(0.3, 1.5, size=(K, n, k))
        member = lambda a, j: a[j]
    alone = [solve_box_qp(G[j], C[j], member(lo, j), member(up, j), lam) for j in range(K)]
    for order in (list(range(K)), [4, 1, 5], [3]):
        o = np.array(order)
        X, gap = solve_box_qp(G[o], C[o], lo if bounds == "shared" else lo[o],
                              up if bounds == "shared" else up[o], lam)
        assert gap.shape == (len(order),)
        for i, j in enumerate(order):
            assert X[i].tobytes() == alone[j][0].tobytes()
            assert gap[i] == alone[j][1]


@pytest.mark.parametrize("k", [2, 5], ids=["enumerated", "active_set"])
def test_box_qp_ball_stack_matches_each_family(k):
    # each member of a stack has its own ball; members whose ball binds
    # search alone, and every member's X is the bytes of its own solve
    from sbmm.subsolver import _BoxFamily, _box_qp_ball

    rng = np.random.default_rng(23 + k)
    K, n = 5, 2
    fams = [_family(rng, k, n) for _ in range(K)]
    G = np.stack([f[0] for f in fams])
    C = np.stack([f[1] for f in fams])
    center = rng.uniform(-0.2, 0.2, size=(K, n, k))
    box = _BoxFamily(0.0, -1.0, 1.0, k)
    for radius in (0.05, 0.5, 50.0):
        X = _box_qp_ball(G, C, box, center, radius, 1e-12)
        for j in range(K):
            one = _box_qp_ball(G[j], C[j], box, center[j], radius, 1e-12)
            assert X[j].tobytes() == one.tobytes()


def test_code_lasso_stack_matches_each_sample():
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 1.0, size=(4, 8, 6))
    W = rng.uniform(0.0, 1.0, size=(4, 8, 5))
    code_set = BoxSet.uniform(5, 0.0, 1.0)
    H, gap = solve_code_lasso(X, W, 0.05, code_set)
    for j in range(4):
        H_j, gap_j = solve_code_lasso(X[j], W[j], 0.05, code_set)
        assert H[j].tobytes() == np.ascontiguousarray(H_j).tobytes() and gap[j] == gap_j


def test_active_set_code_solve_computes_its_gap_once(monkeypatch):
    # the active-set method stops on a certified gap and hands it back:
    # solve_box_qp does not compute it again at the same point, and the
    # gap it returns is that float
    import sbmm.subsolver as subsolver

    real_gap, real_active = subsolver._certified_gap, subsolver._active_set
    real_total = subsolver._gap_total
    points, runs = [], []

    def total(gaps, X, *args):
        # every certified gap, the active-set method's own included, is
        # summed by _gap_total
        points.append(X.copy())
        return real_total(gaps, X, *args)

    def active(*args):
        runs.append(1)
        return real_active(*args)
    monkeypatch.setattr(subsolver, "_gap_total", total)
    monkeypatch.setattr(subsolver, "_active_set", active)
    rng = np.random.default_rng(41)
    code_set = BoxSet.uniform(5, 0.0, 1.0)
    for _ in range(25):
        X = rng.uniform(0.0, 1.0, size=(8, 6))
        W = rng.uniform(0.0, 1.0, size=(8, 5))
        points.clear()
        runs.clear()
        # rank 5 with an l1 term and codes >= 0: 3^5 KKT patterns, too many
        # to enumerate, so the active-set method solves it
        H, g = solve_code_lasso(X, W, 0.05, code_set, tol=1e-8)
        assert runs == [1]
        at_result = [P for P in points if np.array_equal(P, H.T)]
        assert len(at_result) == 1  # one gap at the returned codes
        assert all(not np.array_equal(a, b) for a, b in zip(points, points[1:]))
        box = subsolver._BoxFamily(0.05, np.zeros((1, 5)), np.ones((1, 5)), 5)
        assert g == real_gap(W.T @ W, (W.T @ X).T, H.T, box)


def test_block_quadratic_stack_matches_each_member():
    # a stacked FactorQuad with one row set per member, or one set shared:
    # each member's W and certificate are those of its own solve
    rng = np.random.default_rng(53)
    K, q, r = 3, 4, 2
    H = rng.uniform(0.0, 1.0, size=(K, r, 5))
    A = H @ H.swapaxes(1, 2)
    B = rng.uniform(0.0, 1.0, size=(K, r, q))
    C = rng.uniform(1.0, 2.0, size=K)
    W = rng.uniform(0.2, 0.8, size=(K, q, r))
    quad = FactorQuad(A, B, C, W)
    box = BoxSet.uniform(q * r, 0.0, 1.0)
    for rows in (np.array([[0, 2], [3, 1], [1, 2]]), np.array([3, 0])):
        for radius in (0.05, math.inf):
            theta, value, new = solve_block_quadratic(quad, box, radius, rows)
            for j in range(K):
                one = FactorQuad(A[j], B[j], float(C[j]), W[j])
                theta_j, value_j, new_j = solve_block_quadratic(
                    one, box, radius, rows[j] if rows.ndim == 2 else rows)
                assert theta[j].tobytes() == theta_j.tobytes()
                assert value[j] == value_j and new[j] == new_j
    for j in range(K):  # and each member's strong convexity is its own
        one = FactorQuad(A[j], B[j], float(C[j]), W[j])
        assert np.asarray(quad.rho[j]).tobytes() == np.asarray(one.rho).tobytes()


# ---------------------------------------------------------------------------
# Newton steps: batched LU solve, eigendecomposition for singular systems


def _dictionary_hessian(rng, r, scale_row=None):
    """A = H H' / d for codes H (r, d) in [0, 1], with code coordinate
    scale_row (if given) multiplied by the factor in the pair."""
    H = rng.uniform(0.0, 1.0, size=(r, 12))
    if scale_row is not None:
        row, factor = scale_row
        H[row] *= factor
    return H @ H.T / 12


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_newton_direction_lu_matches_eigh(monkeypatch):
    # on a certified Hessian the batched LU solve gives the direction the
    # eigendecomposition gives an uncertified one, without an
    # eigendecomposition
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(61)
    cases = []
    for _ in range(30):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 10))
        G = _dictionary_hessian(rng, k) + 0.01 * np.eye(k)
        free = rng.random((n, k)) < 0.7
        rhs = np.where(free, rng.normal(size=(n, k)), 0.0)
        assert subsolver._definite(G)
        cases.append((G, free, rhs, subsolver._scale(G)))
    counts = _count_calls(monkeypatch, np.linalg, ["eigh", "solve"])
    lu = [subsolver._newton_direction(*case, True) for case in cases]
    assert counts == {"eigh": 0, "solve": len(cases)}
    for case, (p, null_dir) in zip(cases, lu):
        p_eigh, null_eigh = subsolver._newton_direction(*case, False)
        assert not null_dir.any() and not null_eigh.any()
        assert np.linalg.norm(p - p_eigh) <= 1e-12 * np.linalg.norm(p_eigh)
        assert (p[~case[1]] == 0.0).all()
    assert counts["eigh"] == len(cases)


@pytest.mark.parametrize("factor", [0.0, 1e-7], ids=["singular", "nearly_singular"])
def test_newton_direction_singular_hessian_takes_eigh_path(monkeypatch, factor):
    # an all-zero code coordinate makes the dictionary Hessian singular, a
    # tiny one nearly so (smallest eigenvalue below _NULL_RTOL times the
    # scale); it fails the certificate, which sends its systems to the
    # eigendecomposition, whose null direction the step follows.
    # solve_box_qp still certifies its gap on both
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(62)
    r, n = 5, 8
    A = _dictionary_hessian(rng, r, scale_row=(2, factor))
    scale = subsolver._scale(A)
    w, V = np.linalg.eigh(A)
    assert w[0] <= subsolver._NULL_RTOL * scale < w[1]
    free = np.ones((n, r), dtype=bool)
    free[1, 2] = False  # this row's system leaves out the null coordinate
    rhs = rng.normal(size=(n, r))
    rhs[1, 2] = 0.0
    certified = subsolver._definite(A)
    assert not certified
    counts = _count_calls(monkeypatch, np.linalg, ["eigh", "solve"])
    p, null_dir = subsolver._newton_direction(A, free, rhs, scale, certified)
    assert counts == {"eigh": 1, "solve": 0}
    np.testing.assert_array_equal(null_dir, np.arange(n) != 1)
    # the null direction is rhs's part along the null eigenvector
    null_part = np.outer(rhs @ V[:, 0], V[:, 0])
    np.testing.assert_allclose(p[null_dir], null_part[null_dir], atol=1e-12)
    # the row without the null coordinate takes its Newton step
    F = free[1]
    np.testing.assert_allclose(p[1, F], np.linalg.solve(A[np.ix_(F, F)], rhs[1, F]), rtol=1e-10)
    B = rng.uniform(0.0, 1.0, size=(n, r))
    for lam in (0.0, 0.05):
        X, gap = solve_box_qp(A, B, 0.0, 1.0, lam, tol=1e-10)
        assert gap <= 1e-10
        assert _box_qp_kkt(A, B, X, lam, np.zeros((n, r)), np.ones((n, r))) <= 1e-9


def test_least_squares_start_solves_or_falls_back_to_pinv(monkeypatch):
    # the active-set method's default start C G^+ is one solve when G is
    # certified, and the pseudo-inverse when G is singular
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(63)
    C = rng.normal(size=(4, 5))
    counts = _count_calls(monkeypatch, np.linalg, ["solve", "pinv"])
    G = _dictionary_hessian(rng, 5)
    X = subsolver._least_squares(G, C, subsolver._definite(G))
    assert counts == {"solve": 1, "pinv": 0}
    np.testing.assert_allclose(X, C @ np.linalg.pinv(G, hermitian=True), rtol=1e-10)
    G = _dictionary_hessian(rng, 5, scale_row=(4, 0.0))
    X = subsolver._least_squares(G, C, subsolver._definite(G))
    assert counts == {"solve": 1, "pinv": 2}
    np.testing.assert_array_equal(X, C @ np.linalg.pinv(G, hermitian=True))


@given(seed=st.integers(0, 10_000), k=st.integers(3, 6))
@settings(max_examples=200, deadline=None)
def test_definite_certificate_covers_every_free_system(seed, k):
    # one Cholesky factorization of G - delta scale I certifies every free
    # system of every G + mu I (mu >= 0): each has its smallest eigenvalue
    # above _NULL_RTOL times its scale.  The certificate is sharp to a
    # factor of two about delta = 1e-9
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    w = 10.0 ** rng.uniform(-12.0, 0.0, size=k)
    w[0] = float(rng.choice([0.0, 10.0 ** rng.uniform(-12.0, -6.0), w[0]]))
    G = (Q * (w * 10.0 ** rng.uniform(-3.0, 3.0))) @ Q.T
    G = 0.5 * (G + G.T)
    certified = subsolver._definite(G)
    lam_min, scale = float(np.linalg.eigvalsh(G)[0]), subsolver._scale(G)
    if lam_min >= 2e-9 * scale:
        assert certified
    if lam_min <= 0.5e-9 * scale:
        assert not certified
    if not certified:
        return
    for mu in (0.0, float(10.0 ** rng.uniform(-14.0, 2.0)) * scale):
        Gm = G + mu * np.eye(k)
        scale_m = subsolver._scale(Gm)
        free = rng.random((8, k)) < 0.6
        M = subsolver._free_system(Gm, free, scale_m)
        assert (np.linalg.eigvalsh(M)[:, 0] > subsolver._NULL_RTOL * scale_m).all()


def test_certified_active_set_skips_the_per_system_test(monkeypatch):
    # with the certificate the active-set method takes LU steps with no
    # Cholesky factorization and no eigendecomposition of its own, and
    # lands where the eigendecomposition's steps (no certificate) land
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(65)
    for trial in range(40):
        k, n = int(rng.integers(5, 8)), int(rng.integers(1, 9))
        G = _dictionary_hessian(rng, k)
        C = rng.uniform(0.0, 1.0, size=(n, k))
        lam = 0.0 if trial % 2 else 0.05
        X0 = rng.uniform(0.0, 1.0, size=(n, k))
        assert subsolver._definite(G)
        box = subsolver._BoxFamily(lam, 0.0, 1.0, k)
        want = subsolver._active_set(G, C, box, X0, 1e-10, False, False)
        counts = _count_calls(monkeypatch, np.linalg, ["cholesky", "eigh"])
        got = subsolver._active_set(G, C, box, X0, 1e-10, False, True)
        assert counts == {"cholesky": 0, "eigh": 0}
        monkeypatch.undo()
        assert got[2] <= 1e-10 and want[2] <= 1e-10
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-9)


def test_rank5_run_takes_one_cholesky_per_solve(monkeypatch, tmp_path):
    # a 120-step rank-5 run (both solves on the active-set path, the ball
    # binding): every code solve and every dictionary solve whose Hessian is
    # certified makes one Cholesky factorization, the certificate's, and a
    # dictionary solve that the anchor's working set settles takes no
    # certificate and makes none.  A stack of three such runs takes at most
    # one certificate per member in each solve (one in each code solve): a
    # binding member's ball search keeps the one its solve at multiplier
    # zero took
    import sbmm.factorize as factorize
    import sbmm.subsolver as subsolver
    from sbmm import parse_config, run_experiment, run_sweep

    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(16), size=16)
    np.savetxt(tmp_path / "transition.csv", P / P.sum(axis=1, keepdims=True), delimiter=",")
    np.savetxt(tmp_path / "emissions.csv", rng.uniform(0.0, 1.0, size=(16, 48)), delimiter=",")
    cfg = tmp_path / "rank5.cfg"
    cfg.write_text(
        "schedule.kind = polylog\nconstraint.lower = 0.0\nconstraint.upper = 1.0\n"
        f"stream.kind = markov\nstream.transition = {tmp_path / 'transition.csv'}\n"
        f"stream.emissions = {tmp_path / 'emissions.csv'}\nstream.seed = 5\n"
        "engine.n_iters = 120\nengine.diag_interval = 10\n"
        "app.rank = 5\napp.lambda = 0.05\napp.tensor_shape = 8,6\n", encoding="utf-8")
    counts = _count_calls(monkeypatch, np.linalg, ["cholesky"])
    solves, certificates = [], []
    real_definite = subsolver._definite

    def definite(G):
        certificates.append(real_definite(G))
        return certificates[-1]
    monkeypatch.setattr(subsolver, "_definite", definite)

    def counted(kind, fn):
        def solve(*args, **kwargs):
            before, certificates[:] = counts["cholesky"], []
            out = fn(*args, **kwargs)
            solves.append((kind, counts["cholesky"] - before, list(certificates)))
            return out
        return solve
    for kind in ("solve_code_lasso", "solve_block_quadratic"):
        monkeypatch.setattr(factorize, kind, counted(kind, getattr(factorize, kind)))
    run_experiment(parse_config(cfg), seed=5, out_path=str(tmp_path / "run.csv"))
    for kind in ("solve_code_lasso", "solve_block_quadratic"):
        held = [chol for k, chol, certs in solves if k == kind and certs == [True]]
        anchored = [chol for k, chol, certs in solves if k == kind and certs == []]
        total = sum(k == kind for k, _, _ in solves)
        assert total >= 120 and len(held) + len(anchored) >= 0.9 * total
        assert all(chol == 1 for chol in held) and all(chol == 0 for chol in anchored)
        assert (len(anchored) > 0) == (kind == "solve_block_quadratic")
    solves.clear()
    run_sweep(parse_config(cfg), [5, 6, 7], out_dir=tmp_path / "sweep")
    for kind in ("solve_code_lasso", "solve_block_quadratic"):
        # each step's solve is one stacked call, and so is each of the 12
        # checkpoints' diagnostic code solves (one per checkpoint, not one
        # per member)
        taken = [(chol, len(certs)) for k, chol, certs in solves if k == kind]
        assert all(chol == n for chol, n in taken)
        if kind == "solve_code_lasso":
            assert len(taken) == 120 + 12 and all(n == 3 for _, n in taken)
        else:
            assert len(taken) == 120 and all(n <= 3 for _, n in taken)
            assert any(n < 3 for _, n in taken)


# ---------------------------------------------------------------------------
# the ball search's predicted start


def _record_ball_solves(monkeypatch):
    """Per box solve of each ball search: its multiplier, the Newton
    directions and certified gaps it computed, and whether it started from
    the working set's point at that multiplier (predicted)."""
    import sbmm.subsolver as subsolver

    counts = _count_calls(monkeypatch, subsolver, ["_newton_direction", "_gap_total"])
    solves = []
    real_search = subsolver.ball_multiplier_search

    def search(solve, *args):
        def recorded(mu):
            box_solve = solve(mu)

            def run(start, tol, predicted, certified):
                before = dict(counts)
                out = box_solve(start, tol, predicted, certified)
                solves.append((mu, counts["_newton_direction"] - before["_newton_direction"],
                               counts["_gap_total"] - before["_gap_total"], predicted))
                return out
            return run
        return real_search(recorded, *args)
    monkeypatch.setattr(subsolver, "ball_multiplier_search", search)
    return solves


def _rank5_binding_block(rng, box):
    """A rank-5 block (3^5 KKT patterns: the active-set path) whose ball
    binds and whose working set holds from mu = 0 to the root: a wide box
    around an all-free center, or a dictionary box with the radius just
    inside the distance of the solve at mu = 0.  Returns (G, C, lo, up,
    center, radius)."""
    import sbmm.subsolver as subsolver

    if box == "wide":
        M = rng.normal(size=(5, 5))
        G, C = M @ M.T + 0.5 * np.eye(5), rng.normal(size=(3, 5))
        lo, up, center = -100.0, 100.0, np.zeros((3, 5))
        radius = 0.1 * float(np.linalg.norm(np.linalg.solve(G, C.T)))
    else:
        G = _dictionary_hessian(rng, 5)
        C = rng.uniform(0.0, 1.0, size=(8, 12)) @ rng.uniform(0.0, 1.0, size=(12, 5)) / 12
        lo, up, center = 0.0, 1.0, rng.uniform(0.1, 0.9, size=(8, 5))
        X0 = subsolver._minimize(G, C, subsolver._BoxFamily(0.0, lo, up, 5), center, 1e-8)[0]
        radius = 0.999 * float(np.linalg.norm(X0 - center))
    return G, C, lo, up, center, radius


@pytest.mark.parametrize("box", ["wide", "dictionary"])
def test_ball_search_root_solve_starts_at_the_prediction(monkeypatch, box):
    # rank-5 blocks whose ball binds and whose working set holds from mu = 0
    # to the root.  A box solve at the root of the working set of the solve
    # at mu = 0, started from that working set's point there (marked as
    # every row's minimizer), makes no Newton step and one certified gap and
    # returns the point.  The search needs no box solve at a multiplier
    # above 0: the point passes its exits.  The wide block, whose all-free
    # anchor has the root's working set, needs no box solve at all: no
    # Newton step, one certified gap and no Cholesky factorization.  Every
    # result is the bisection reference's
    import sbmm.subsolver as subsolver

    G, C, lo, up, center, radius = _rank5_binding_block(np.random.default_rng(64), box)
    fam = subsolver._BoxFamily(0.0, lo, up, 5)
    X_ref, fixed_0, fixed_ref = _ball_bisection_reference(
        G, C, np.broadcast_to(lo, C.shape), np.broadcast_to(up, C.shape), center, radius)
    np.testing.assert_array_equal(fixed_0, fixed_ref)  # the working set of mu = 0 holds
    obj = lambda Y: float(np.sum(Y * (Y @ G - 2.0 * C)))

    def check(X):
        assert abs(float(np.linalg.norm(X - center)) - radius) <= 1e-12 * radius
        assert abs(obj(X) - obj(X_ref)) <= 1e-10 * max(1.0, abs(obj(X_ref)))

    X0, free0, _, certified = subsolver._minimize(G, C, fam, center, 1e-8)
    hi = subsolver._mu_hi(G, C, center, radius)
    mu, P = subsolver._working_set_root(G, C, fam, center, radius, free0,
                                        np.where(free0, center, X0), 0.0, hi)
    with monkeypatch.context() as m:
        counts = _count_calls(m, subsolver, ["_newton_direction", "_gap_total"])
        X = subsolver._minimize(G + mu * np.eye(5), C + mu * center, fam, P, 1e-8, True,
                                certified)[0]
    assert counts == {"_newton_direction": 0, "_gap_total": 1} and X.tobytes() == P.tobytes()
    check(X)
    solves = _record_ball_solves(monkeypatch)
    counts = _count_calls(monkeypatch, subsolver, ["_newton_direction", "_gap_total"])
    cholesky = _count_calls(monkeypatch, np.linalg, ["cholesky"])
    X = subsolver._box_qp_ball(G, C, fam, center, radius, 1e-8)
    check(X)
    assert all(mu == 0.0 for mu, *_ in solves)
    if box == "wide":
        assert solves == [] and counts == {"_newton_direction": 0, "_gap_total": 1}
        assert cholesky == {"cholesky": 0}


def _search_from_mu_zero(G, C, box, center, radius, tol):
    """The ball search started from the working set of the box solve at mu =
    0 instead of the anchor's."""
    import sbmm.subsolver as subsolver

    X, free, _, certified = subsolver._minimize(G, C, box, center, tol)
    return subsolver._box_qp_ball(G, C, box, center, radius, tol, (X, free, certified))


def _anchor_block(rng, kind):
    """A rank-5 dictionary block on [0, 1] (6 rows) whose anchor, the ball's
    center, has about a third of its entries at a bound, with the
    half-gradient there pointing out of the box (kind "holds": the anchor's
    working set is the answer's when the small ball binds) or, in some of
    them, into it ("changes"); "inside" has a ball of radius 10, more than
    the box's diameter, which does not bind.  In "crosses" the bound entries
    hold, but two free entries sit near a bound with the half-gradient
    pushing them across it: one 0.001 inside and pushed hard, which the
    step at the anchor's multiplier carries across, and one 0.01-0.05
    inside and pushed gently, which often crosses only once the first is
    fixed.  Returns (G, C, center, radius)."""
    G = _dictionary_hessian(rng, 5)
    center = rng.uniform(0.2, 0.8, size=(6, 5))
    at, top = rng.random((6, 5)) < 0.35, rng.random((6, 5)) < 0.5
    center[at] = np.where(top, 1.0, 0.0)[at]
    g = 0.5 * rng.normal(size=(6, 5))
    g = np.where(at, np.where(top, -np.abs(g), np.abs(g)), g)
    if kind == "changes":
        g = np.where(at & (rng.random((6, 5)) < 0.3), -g, g)
    if kind == "crosses":
        near = rng.choice(np.flatnonzero(~at), size=2, replace=False)
        up = rng.random(2) < 0.5
        inset = np.array([0.001, rng.uniform(0.01, 0.05)])
        center.ravel()[near] = np.where(up, 1.0 - inset, inset)
        g.ravel()[near] = np.where(up, -1.0, 1.0) * np.array([3.0, rng.uniform(0.5, 1.0)])
    radius = 10.0 if kind == "inside" else float(rng.uniform(0.02, 0.2))
    return G, center @ G - g, center, radius


@pytest.mark.parametrize("kind", ["holds", "changes", "inside"])
def test_anchor_prediction_matches_bisection(monkeypatch, kind):
    # a rank-5 block solve (the active-set path) settles on the point of
    # the anchor's working set exactly when the ball binds and that working
    # set is the answer's: then it makes no box solve and no Newton step and
    # computes one certified gap, and its result is that of the search
    # started from the solve at mu = 0 up to rounding.  Otherwise it goes on
    # with box solves.  Every result is the bisection reference's
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(90)
    fam = subsolver._BoxFamily(0.0, 0.0, 1.0, 5)
    solves = _record_ball_solves(monkeypatch)
    counts = _count_calls(monkeypatch, subsolver, ["_newton_direction", "_gap_total"])
    obj = lambda X, G, C: float(np.sum(X * (X @ G - 2.0 * C)))
    taken = []
    for trial in range(20):
        G, C, center, radius = _anchor_block(rng, kind)
        lo, up = np.zeros_like(C), np.ones_like(C)
        X_ref, _, fixed_ref = _ball_bisection_reference(G, C, lo, up, center, radius)
        binding = float(np.linalg.norm(solve_box_qp(G, C, lo, up, tol=0.0)[0] - center)) > radius
        holds = binding and np.array_equal(fixed_ref, (center == 0.0) | (center == 1.0))
        before = dict(counts)
        solves.clear()
        X = subsolver._box_qp_ball(G, C, fam, center, radius, 1e-8)
        work = {name: counts[name] - before[name] for name in counts}
        anchored = solves == []
        assert anchored == holds
        assert (X >= 0.0).all() and (X <= 1.0).all()
        dist = float(np.linalg.norm(X - center))
        assert dist <= radius * (1.0 + 1e-12)
        if binding:
            assert abs(dist - radius) <= 1e-12 * radius
        assert abs(obj(X, G, C) - obj(X_ref, G, C)) <= 1e-10 * max(1.0, abs(obj(X_ref, G, C)))
        if anchored:
            assert work["_newton_direction"] == 0 and work["_gap_total"] == 1
            X_search = _search_from_mu_zero(G, C, fam, center, radius, 1e-8)
            assert float(np.abs(X - X_search).max()) <= 1e-12
        taken.append(anchored)
    # each kind is what it says in most instances
    assert sum(taken) >= 15 if kind == "holds" else sum(taken) <= (5 if kind == "changes" else 0)


def test_anchor_prediction_repairs_entries_that_cross_a_bound(monkeypatch):
    # where the step at the anchor's multiplier carries free entries across
    # a bound ("crosses"), the repair rounds fix them at the bound they
    # crossed and solve the anchor's model again: most instances are settled
    # without a box solve, one eigendecomposition per round, some after a
    # second repair round.  Every result lies in the box on the sphere, is
    # the bisection reference's and is the search's from the solve at mu =
    # 0 up to rounding
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(91)
    fam = subsolver._BoxFamily(0.0, 0.0, 1.0, 5)
    solves = _record_ball_solves(monkeypatch)
    eigh = _count_calls(monkeypatch, np.linalg, ["eigh"])
    obj = lambda X, G, C: float(np.sum(X * (X @ G - 2.0 * C)))
    rounds = []
    for trial in range(20):
        G, C, center, radius = _anchor_block(rng, "crosses")
        lo, up = np.zeros_like(C), np.ones_like(C)
        X_ref, _, _ = _ball_bisection_reference(G, C, lo, up, center, radius)
        solves.clear()
        eighs = eigh["eigh"]
        X = subsolver._box_qp_ball(G, C, fam, center, radius, 1e-8)
        if solves == []:
            rounds.append(eigh["eigh"] - eighs)
        assert (X >= 0.0).all() and (X <= 1.0).all()
        assert abs(float(np.linalg.norm(X - center)) - radius) <= 1e-12 * radius
        assert abs(obj(X, G, C) - obj(X_ref, G, C)) <= 1e-10 * max(1.0, abs(obj(X_ref, G, C)))
        X_search = _search_from_mu_zero(G, C, fam, center, radius, 1e-8)
        assert float(np.abs(X - X_search).max()) <= 1e-12
    assert len(rounds) >= 15 and min(rounds) >= 2 and max(rounds) >= 3


def test_ball_search_root_solves_start_at_the_working_set_point(monkeypatch):
    # where the working set changes, a box solve at a working set's secular
    # root starts from its point there, which the repair rounds keep in the
    # box; a box solve at mu = 0 or at the bracket's midpoint (no root in
    # the bracket) starts from the last solution.  Every search still
    # matches the bisection reference
    import sbmm.subsolver as subsolver

    solves = _record_ball_solves(monkeypatch)
    roots, real_root = [], subsolver._working_set_root

    def root(*args):
        mu, X = real_root(*args)
        roots.append(mu)
        return mu, X
    monkeypatch.setattr(subsolver, "_working_set_root", root)
    found = []
    for seed in range(16):
        roots.clear()
        solves.clear()
        _check_ball_block(seed, 5)
        # each box solve follows one root, the one just before it
        for (mu, _, _, predicted), last in zip(solves, roots):
            assert predicted == (mu > 0.0 and mu == last)
            found.append(predicted)
    assert any(found) and not all(found)


# ---------------------------------------------------------------------------
# row blocks, the certificate pair, and what the enumeration hands on


def _factor_quads(rng, K, q, r):
    """A FactorQuad (K None) or a stack of K, with A = H H' from a few
    nonnegative codes, as the statistics make it."""
    lead = () if K is None else (K,)
    H = rng.uniform(0.0, 1.0, size=lead + (r, r + 1))
    B = rng.uniform(0.0, 1.0, size=lead + (r, q))
    C = float(rng.uniform(1.0, 2.0)) if K is None else rng.uniform(1.0, 2.0, size=K)
    W = rng.uniform(0.2, 0.8, size=lead + (q, r))
    return FactorQuad(H @ H.swapaxes(-1, -2), B, C, W)


@pytest.mark.parametrize("K", [None, 3], ids=["single", "stack"])
def test_certificate_pair_is_two_single_values(K):
    # one evaluation of a (2, q, r) pair, or (2, K, q, r) for a stack, gives
    # the bytes of two value calls, and a stack's those of each member's own
    rng = np.random.default_rng(70)
    for trial in range(300):
        q, r = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        g = _factor_quads(rng, K, q, r)
        P = rng.uniform(-1.0, 1.0, size=(2,) + g.anchor.shape)
        pair = g.value(P)
        for i in range(2):
            assert np.asarray(pair[i]).tobytes() == np.asarray(g.value(P[i])).tobytes()
        if K is not None:
            for j in range(K):
                one = FactorQuad(g.A[j], g.B[j], float(g.C[j]), g.anchor[j])
                assert [float(pair[0][j]), float(pair[1][j])] == [one.value(P[0, j]),
                                                                  one.value(P[1, j])]


@pytest.mark.parametrize("K", [None, 3, 21], ids=["single", "stack", "large_stack"])
def test_rank2_value_gives_each_calls_bytes(K):
    # at r = 2 the value is summed in Python floats (the points of a single
    # quad with at most _VALUE_LOOP_ROWS rows in all) or as the same float
    # operations on arrays (any other W, a stack of more than
    # _VALUE_LOOP_ROWS member rows among them): a pair, three points and a
    # stack give each point and member the bytes of its own single call,
    # within 1e-12 (1 + |v|) of the matmul form's value v
    import sbmm.quadform as quadform

    rng = np.random.default_rng(73)
    for trial in range(100):
        q = int(rng.integers(1, quadform._VALUE_LOOP_ROWS + 4))
        g = _factor_quads(rng, K, q, 2)
        if K == 21 and q > 1:
            assert K * q > quadform._VALUE_LOOP_ROWS
        P = rng.uniform(-1.0, 1.0, size=(3,) + g.anchor.shape)
        for pts in (P[:2], P):
            vals = g.value(pts)
            want = ((pts @ g.A * pts).sum(axis=(-2, -1))
                    - 2.0 * (pts * g.B.swapaxes(-1, -2)).sum(axis=(-2, -1)) + g.C)
            assert np.all(np.abs(vals - want) <= 1e-12 * (1.0 + np.abs(want)))
            for i in range(len(pts)):
                assert np.asarray(vals[i]).tobytes() == np.asarray(g.value(pts[i])).tobytes()
                for j in range(0 if K is None else K):
                    one = FactorQuad(g.A[j], g.B[j], float(g.C[j]), g.anchor[j])
                    assert float(vals[i][j]) == one.value(pts[i, j])


@pytest.mark.parametrize("K", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("radius", [0.05, math.inf])
def test_block_solve_returns_both_values_of_the_certificate(K, radius):
    # the block solve's (value, new) are the objective at the anchor and at
    # its result, as value calls give them, and new does not rise above value
    rng = np.random.default_rng(71)
    box = BoxSet.uniform(4 * 3, 0.0, 1.0)
    for rows in (None, np.array([2, 0])):
        g = _factor_quads(rng, K, 4, 3)
        W, value, new = solve_block_quadratic(g, box, radius, rows)
        assert np.asarray(value).tobytes() == np.asarray(g.value(g.anchor)).tobytes()
        assert np.asarray(new).tobytes() == np.asarray(g.value(W)).tobytes()
        assert np.all(np.asarray(new) <= np.asarray(value))


def _exact_box_lasso_row(G, c, lam, lo, up):
    """The minimizer of x'Gx - 2c'x + lam ||x||_1 over [lo, up] (one row, G
    positive definite), rounded to floats (_exact_box_lasso)."""
    return np.array([float(v) for v in _exact_box_lasso(G, c, lam, lo, up)[1]])


def _exact_box_lasso(G, c, lam, lo, up):
    """The minimum and the minimizer of x'Gx - 2c'x + lam ||x||_1 over [lo,
    up] (one row, G positive definite), in exact rational arithmetic: every
    KKT pattern (an entry at lo, at up or at zero, or free with a sign)
    solves its free entries' stationarity system by Gaussian elimination,
    and the best candidate in the box with the signs it assumed wins."""
    from fractions import Fraction as F
    from itertools import product

    k = len(c)
    G = [[F(float(v)) for v in row] for row in G]
    c, lo, up, lam = [F(float(v)) for v in c], [F(float(v)) for v in lo], \
        [F(float(v)) for v in up], F(float(lam))
    best, best_x = None, None
    for pattern in product(("lo", "up", "zero", "pos", "neg"), repeat=k):
        x = [lo[i] if s == "lo" else up[i] if s == "up" else F(0) for i, s in enumerate(pattern)]
        free = [i for i, s in enumerate(pattern) if s in ("pos", "neg")]
        # sum_j G_ij x_j = c_i - lam s_i / 2 on the free entries
        rows = [[G[i][j] for j in free] + [c[i] - lam * (1 if pattern[i] == "pos" else -1) / 2
                                           - sum(G[i][j] * x[j] for j in range(k)
                                                 if j not in free)]
                for i in free]
        for col in range(len(free)):
            pivot = next((r for r in range(col, len(free)) if rows[r][col] != 0), None)
            if pivot is None:
                break
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(len(free)):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        else:
            for col, i in enumerate(free):
                x[i] = rows[col][-1] / rows[col][col]
            signs_hold = all(x[i] >= 0 if pattern[i] == "pos" else x[i] <= 0 for i in free)
            if signs_hold and all(lo[i] <= x[i] <= up[i] for i in range(k)):
                obj = (sum(x[i] * G[i][j] * x[j] for i in range(k) for j in range(k))
                       - 2 * sum(ci * xi for ci, xi in zip(c, x)) + lam * sum(map(abs, x)))
                if best is None or obj < best:
                    best, best_x = obj, x
    return best, best_x


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.2, 1.5), (-1.0, 1.0), (-1.5, -0.2)],
                         ids=["unit", "positive", "straddling", "negative"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_alone_is_exact_with_l1(k, bounds):
    # without and with an l1 term, on one-signed boxes, where the l1 term is
    # linear, and on boxes that straddle zero or lie below it: at rank 2 the
    # closed form's pattern enumeration by itself, with no polishing after
    # it, returns the exact minimizer; at every other rank solve_box_qp (the
    # active-set method) returns a certified gap within tol that bounds the
    # exact suboptimality, in rational arithmetic against the exact minimum
    from fractions import Fraction as F

    from sbmm.subsolver import _BoxFamily, _pairs

    rng = np.random.default_rng(31 * k)
    lo, up = bounds
    for lam in (0.0, 0.05, 0.5):
        M = rng.normal(size=(k, k))
        G, C = M @ M.T + 0.05 * np.eye(k), rng.normal(size=(4, k))
        if k == 2:
            X = _pairs(G, C, _BoxFamily(lam, np.full((4, k), lo), np.full((4, k), up), k))[0]
            for x, c in zip(X, C):
                ref = _exact_box_lasso_row(G, c, lam, np.full(k, lo), np.full(k, up))
                assert np.all(np.abs(x - ref) <= 1e-9 * (1.0 + np.abs(ref))), (lam, x, ref)
            continue
        X, gap = solve_box_qp(G, C, lo, up, lam)
        Gf = [[F(float(v)) for v in row] for row in G]
        excess = F(0)
        for x, c in zip(X, C):
            best = _exact_box_lasso(G, c, lam, np.full(k, lo), np.full(k, up))[0]
            x, c = [F(float(v)) for v in x], [F(float(v)) for v in c]
            excess += (sum(x[i] * Gf[i][j] * x[j] for i in range(k) for j in range(k))
                       - 2 * sum(ci * xi for ci, xi in zip(c, x))
                       + F(lam) * sum(map(abs, x)) - best)
        assert excess <= F(gap) and gap <= 1e-8, (lam, float(excess), gap)


_PAIR_BOXES = ((0.0, 1.0), (0.2, 1.5), (-1.0, 1.0), (-1.5, -0.2))


def _stack_size(side, n, data):
    """The member count of a stack of n-row rank-2 families: a small stack,
    at most 24 member rows in all, on the "loop" side, a large one on the
    "batch" side.  Both sides solve member by member; the side names stay
    because they name the tests."""
    K = (data.draw(st.integers(1, max(1, 24 // n))) if side == "loop"
         else data.draw(st.integers(24 // n + 1, 24 // n + 4)))
    assert (K * n <= 24) == (side == "loop")
    return K


@pytest.mark.parametrize("side", ["loop", "batch"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.0, 0.05, 0.5]),
       bounds=st.sampled_from(_PAIR_BOXES), per_member=st.booleans(), data=st.data())
def test_rank2_stack_gives_each_members_bytes(side, seed, lam, bounds, per_member, data):
    # a stack of rank-2 families, small or large, gives each member the X
    # and free mask of its own family's solve, byte for byte; with
    # per_member each member has its own box, drawn per row
    import sbmm.subsolver as subsolver

    n = data.draw(st.integers(1, 4))
    K = _stack_size(side, n, data)
    rng = np.random.default_rng(seed)
    lo, up = bounds
    if per_member:
        lo = lo + rng.uniform(0.0, 0.1, size=(K, n, 2))
        up = up - rng.uniform(0.0, 0.1, size=(K, n, 2))
    else:
        lo, up = np.full((1, 2), lo), np.full((1, 2), up)
    box = subsolver._BoxFamily(lam, lo, up, 2)
    M = rng.normal(size=(K, 2, 3))
    G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(2)
    C = rng.normal(size=(K, n, 2)) * 2.0
    X, free, gap = subsolver._pairs(G, C, box)
    assert gap is None and X.shape == C.shape and len(free) == K * n  # a flag pair per row
    free = subsolver._free_mask(free, C.shape)
    for j in range(K):
        Xj, free_j, _ = subsolver._pairs(G[j], C[j], box.member(j))
        free_j = subsolver._free_mask(free_j, Xj.shape)
        assert X[j].tobytes() == Xj.tobytes() and free[j].tobytes() == free_j.tobytes()


@pytest.mark.parametrize("side", ["loop", "batch"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.0, 0.05, 0.5]),
       bounds=st.sampled_from(_PAIR_BOXES), per_member=st.booleans(), data=st.data())
def test_rank2_gap_gives_each_members_bytes(side, seed, lam, bounds, per_member, data):
    # the certified gap of the rank-2 closed form is each member's own bytes
    # whether the member is solved alone or in a stack, small or large
    import sbmm.subsolver as subsolver

    n = data.draw(st.integers(1, 8))
    K = _stack_size(side, n, data)
    rng = np.random.default_rng(seed)
    lo, up = bounds
    if per_member:
        lo = lo + rng.uniform(0.0, 0.1, size=(K, n, 2))
        up = up - rng.uniform(0.0, 0.1, size=(K, n, 2))
    else:
        lo, up = np.full((1, 2), lo), np.full((1, 2), up)
    box = subsolver._BoxFamily(lam, lo, up, 2)
    M = rng.normal(size=(K, 2, 3))
    G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(2)
    C = rng.normal(size=(K, n, 2)) * 2.0
    X, _, gap = subsolver._pairs(G, C, box, certify=True)
    assert gap.shape == (K,)
    for j in range(K):
        gap_j = subsolver._pairs(G[j], C[j], box.member(j), certify=True)[2]
        assert isinstance(gap_j, float) and gap[j].tobytes() == np.float64(gap_j).tobytes()


@pytest.mark.parametrize("side", [None, "loop", "batch"], ids=["single", "loop", "batch"])
@pytest.mark.parametrize("lam", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("bounds", _PAIR_BOXES, ids=["unit", "positive", "straddling", "negative"])
def test_rank2_gap_bounds_the_exact_suboptimality(bounds, lam, side):
    # the rank-2 closed form's certified gap, single, in a small stack or in
    # a large one (12 or 28 member rows), is at least the exact
    # suboptimality, in rational arithmetic against _exact_box_lasso_row's
    # minimizer, of the closed form's X and of points drawn in the box
    from fractions import Fraction as F

    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(211)
    n, (lo, up) = 4, bounds
    K = {None: None, "loop": 3, "batch": 7}[side]
    lead = () if K is None else (K,)
    box = subsolver._BoxFamily(lam, np.full((1, 2), lo), np.full((1, 2), up), 2)

    def objective(G, c, x):
        x = [F(float(v)) for v in x]
        G, c = [[F(float(v)) for v in row] for row in G], [F(float(v)) for v in c]
        return (sum(x[i] * G[i][j] * x[j] for i in range(2) for j in range(2))
                - 2 * (c[0] * x[0] + c[1] * x[1]) + F(lam) * (abs(x[0]) + abs(x[1])))

    for trial in range(6):
        M = rng.normal(size=lead + (2, 3))
        G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(2)
        C = rng.normal(size=lead + (n, 2)) * 2.0
        X, _, gap = subsolver._pairs(G, C, box, certify=True)
        Y = rng.uniform(lo, up, size=C.shape)
        if K is None:
            gap_Y = _float_gap(G, C, Y, box)[0]
        else:
            gap_Y = [_float_gap(G[j], C[j], Y[j], box)[0] for j in range(K)]
        members = [(G, C, X, Y, gap, gap_Y)] if K is None else [
            (G[j], C[j], X[j], Y[j], gap[j], gap_Y[j]) for j in range(K)]
        for Gj, Cj, Xj, Yj, gap_j, gap_Yj in members:
            best = [objective(Gj, c, _exact_box_lasso_row(Gj, c, lam, np.full(2, lo),
                                                          np.full(2, up))) for c in Cj]
            for P, bound in ((Xj, gap_j), (Yj, gap_Yj)):
                excess = sum(objective(Gj, c, x) - b for x, c, b in zip(P, Cj, best))
                assert excess <= F(float(bound)), (trial, float(excess), float(bound))


def _count_pair_candidates(monkeypatch):
    """The rank-2 candidates the enumeration evaluates (_pair_objective: one
    per call), counted in a one-item list."""
    import sbmm.subsolver as subsolver

    real, count = subsolver._pair_objective, [0]

    def counted(*args):
        count[0] += 1
        return real(*args)
    monkeypatch.setattr(subsolver, "_pair_objective", counted)
    return count


def _state_value(state, lo, up):
    """A start value of one entry in the KKT state state (_LO ... _ZERO)."""
    import sbmm.subsolver as subsolver

    return {subsolver._LO: lo, subsolver._UP: up, subsolver._ZERO: 0.0,
            subsolver._FREE: 0.3 * lo + 0.7 * up, subsolver._POS: 0.5 * (max(lo, 0.0) + up),
            subsolver._NEG: 0.5 * (lo + min(up, 0.0))}[state]


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("bounds", _PAIR_BOXES, ids=["unit", "positive", "straddling", "negative"])
def test_rank2_start_pattern_is_verified_or_falls_back_to_the_exact_minimizer(bounds, lam,
                                                                              monkeypatch):
    # a row started from its minimizer (the right KKT pattern) takes that
    # pattern's candidate without enumerating; a row started in any other
    # pattern (every state pair of the box: at a bound, at zero, free with
    # either sign) gets the exact minimizer, against the rational oracle,
    # alone and in a large stack: a wrong pattern passes the box, sign and
    # derivative tests only where its candidate is the minimizer too
    import sbmm.subsolver as subsolver

    count = _count_pair_candidates(monkeypatch)
    rng = np.random.default_rng(223)
    lo, up = bounds
    box = subsolver._BoxFamily(lam, np.full((1, 2), lo), np.full((1, 2), up), 2)
    starts = [(_state_value(s0, lo, up), _state_value(s1, lo, up))
              for s0, s1 in itertools.product(box.states, repeat=2)]
    bound_rows = verified = 0
    for trial in range(12):
        M = rng.normal(size=(2, 3))
        G, C = M @ M.T + 0.01 * np.eye(2), rng.normal(size=(3, 2)) * 2.0
        refs = np.array([_exact_box_lasso_row(G, c, lam, np.full(2, lo), np.full(2, up))
                         for c in C])
        bound_rows += int(np.isin(refs, (lo, up)).any(axis=1).sum())
        count[0] = 0
        X = subsolver._pairs(G, C, box, X0=refs)[0]
        verified += count[0] == 0
        assert np.all(np.abs(X - refs) <= 1e-9 * (1.0 + np.abs(refs))), (trial, X, refs)
        for start in starts:
            X = subsolver._pairs(G, C, box, X0=np.array([start] * len(C)))[0]
            assert np.all(np.abs(X - refs) <= 1e-9 * (1.0 + np.abs(refs))), (trial, start)
        # every start at once, one member each: a stack of 27 or 75 member rows
        X = subsolver._pairs(np.stack([G] * len(starts)), np.stack([C] * len(starts)), box,
                             X0=np.array([[start] * len(C) for start in starts]))[0]
        assert np.all(np.abs(X - refs) <= 1e-9 * (1.0 + np.abs(refs))), trial
    assert verified == 12 and bound_rows >= 6


@pytest.mark.parametrize("at", ["lo", "up"])
def test_rank2_start_at_a_bound_with_zero_derivative_ties(at):
    # an entry at a bound whose derivative is exactly zero: fixed there and
    # free, two patterns give the same point; a start in either pattern, or
    # none, gives the exact minimizer's bytes
    import sbmm.subsolver as subsolver

    box = subsolver._BoxFamily(0.0, np.zeros((1, 2)), np.ones((1, 2)), 2)
    G = np.array([[1.0, 0.0], [0.0, 2.0]])
    # x0's derivative 2 (x0 - c0) vanishes at the bound c0, and x1 = c1 / 2
    C = np.array([[0.0 if at == "lo" else 1.0, 0.5]])
    ref = _exact_box_lasso_row(G, C[0], 0.0, np.zeros(2), np.ones(2))
    assert ref.tolist() == [C[0, 0], 0.25]
    for start in (None, [[C[0, 0], 0.3]], [[0.5, 0.3]], [[1.0 - C[0, 0], 0.3]]):
        X = subsolver._pairs(G, C, box, X0=None if start is None else np.array(start))[0]
        assert X.tobytes() == ref[None].tobytes(), start


def test_rank2_straddling_box_starts_at_zero_and_either_sign(monkeypatch):
    # on [-1, 1] with an l1 term an entry starts at zero, positive or
    # negative (3 x 3 starts per row) on rows whose minimizers hold zeros,
    # positive and negative entries: every start gives the exact minimizer,
    # and the start with the minimizer's own signs enumerates nothing
    import sbmm.subsolver as subsolver

    count = _count_pair_candidates(monkeypatch)
    lam = 0.5
    box = subsolver._BoxFamily(lam, np.full((1, 2), -1.0), np.ones((1, 2)), 2)
    G = np.array([[1.0, 0.2], [0.2, 0.8]])
    # each row's minimizer (zero, positive or negative per entry) by design
    C = np.array([[0.1, -0.1], [0.7, 0.1], [-0.1, -0.6], [0.6, -0.5], [-0.2, 0.55]])
    refs = np.array([_exact_box_lasso_row(G, c, lam, -np.ones(2), np.ones(2)) for c in C])
    signs = {tuple(np.sign(x)) for x in refs}
    assert {(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (1.0, -1.0)} <= signs
    for s0, s1 in itertools.product((0.0, 0.4, -0.4), repeat=2):
        X = subsolver._pairs(G, C, box, X0=np.tile([s0, s1], (len(C), 1)))[0]
        assert np.all(np.abs(X - refs) <= 1e-9 * (1.0 + np.abs(refs))), (s0, s1)
    count[0] = 0
    X = subsolver._pairs(G, C, box, X0=refs)[0]
    assert count[0] == 0 and np.all(np.abs(X - refs) <= 1e-12 * (1.0 + np.abs(refs)))


@pytest.mark.parametrize("side", ["loop", "batch"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.0, 0.05, 0.5]),
       bounds=st.sampled_from(_PAIR_BOXES), per_member=st.booleans(), data=st.data())
def test_rank2_stack_with_starts_gives_each_members_bytes(side, seed, lam, bounds, per_member,
                                                          data):
    # a stack started per row, from its minimizer (verified), from a random
    # pattern (often falling back to the enumeration) or, for a member whose
    # start is all nan, from no start: each member's (X, free, gap) are its
    # own loop's bytes, in a small stack and in a large one
    import sbmm.subsolver as subsolver

    n = data.draw(st.integers(1, 4))
    K = _stack_size(side, n, data)
    rng = np.random.default_rng(seed)
    lo, up = bounds
    if per_member:
        lo = lo + rng.uniform(0.0, 0.1, size=(K, n, 2))
        up = up - rng.uniform(0.0, 0.1, size=(K, n, 2))
    else:
        lo, up = np.full((1, 2), lo), np.full((1, 2), up)
    box = subsolver._BoxFamily(lam, lo, up, 2)
    M = rng.normal(size=(K, 2, 3))
    G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(2)
    C = rng.normal(size=(K, n, 2)) * 2.0
    L, U = np.broadcast_to(lo, C.shape), np.broadcast_to(up, C.shape)
    pick = rng.integers(0, 4, size=C.shape)  # lo, up, zero clipped, interior
    start = np.choose(pick, [L, U, np.clip(0.0, L, U), rng.uniform(L, U)])
    right = rng.random((K, n)) < 0.5
    start[right] = subsolver._pairs(G, C, box)[0][right]
    partial = start.copy()
    partial[1::3] = np.nan  # no start for every third member
    for X0 in (start, partial):
        X, free, gap = subsolver._pairs(G, C, box, certify=True, X0=X0)
        free = subsolver._free_mask(free, C.shape)
        for j in range(K):
            Xj, free_j, gap_j = subsolver._pairs(G[j], C[j], box.member(j), certify=True,
                                                 X0=X0[j])
            free_j = subsolver._free_mask(free_j, Xj.shape)
            assert X[j].tobytes() == Xj.tobytes() and free[j].tobytes() == free_j.tobytes()
            assert gap[j].tobytes() == np.float64(gap_j).tobytes()


def test_rank2_large_stack_verifies_some_rows_and_enumerates_the_rest(monkeypatch):
    # a large stack (28 member rows) whose rows start from their minimizers
    # builds one candidate per row and enumerates nothing; with the first
    # row of half the members started in another pattern it builds the 9
    # pattern candidates of each row whose start left its pattern, and of no
    # other row, and still gives each member its own solve's bytes
    import sbmm.subsolver as subsolver

    count = _count_pair_candidates(monkeypatch)
    built = _count_calls(monkeypatch, subsolver, ["_pair_candidate"])
    rng = np.random.default_rng(227)
    n, K = 4, 7
    box = subsolver._BoxFamily(0.05, np.zeros((1, 2)), np.ones((1, 2)), 2)
    M = rng.normal(size=(K, 2, 3))
    G, C = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(2), rng.normal(size=(K, n, 2))
    X = subsolver._pairs(G, C, box)[0]
    count[0] = built["_pair_candidate"] = 0
    assert subsolver._pairs(G, C, box, X0=X)[0].tobytes() == X.tobytes() and count[0] == 0
    assert built["_pair_candidate"] == K * n
    built["_pair_candidate"] = 0
    start = X.copy()
    start[::2, 0] = np.where(X[::2, 0] == 0.0, 0.5, 0.0)  # both entries: another pattern
    Y, free, _ = subsolver._pairs(G, C, box, X0=start)
    free = subsolver._free_mask(free, C.shape)
    moved = int((start != X).any(axis=-1).sum())
    assert Y.tobytes() == X.tobytes() and moved == (K + 1) // 2
    assert built["_pair_candidate"] == K * n + 9 * moved and 0 < count[0] <= 9 * moved
    for j in range(K):
        Yj, free_j, _ = subsolver._pairs(G[j], C[j], box, X0=start[j])
        free_j = subsolver._free_mask(free_j, Yj.shape)
        assert Y[j].tobytes() == Yj.tobytes() and free[j].tobytes() == free_j.tobytes()


@pytest.mark.parametrize("K", [None, 2, 6], ids=["single", "loop", "batch"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("G_kind", ["zero_diagonal", "rank_one"])
def test_rank2_singular_hessian_takes_the_tie_break(G_kind, lam, K):
    # a singular G (a zero diagonal entry, or W'W of rank 1 with det
    # exactly 0) has a free system that is not positive: the closed form
    # raises LinAlgError, and the solve takes the tie-break G + delta I,
    # alone or as the one singular member of a stack, where every member
    # then takes its own family's solve
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(97)
    n = 3
    box = subsolver._BoxFamily(lam, np.zeros((1, 2)), np.ones((1, 2)), 2)
    if G_kind == "zero_diagonal":
        G0 = np.array([[0.0, 0.0], [0.0, 1.3]])
    else:
        w = rng.uniform(0.1, 1.0, size=(4, 1))
        W = np.hstack([w, 2.0 * w])
        G0 = W.T @ W
        assert G0[0, 0] * G0[1, 1] - G0[0, 1] * G0[0, 1] == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        subsolver._pairs(G0, rng.normal(size=(n, 2)), box)
    delta = subsolver._NULL_RTOL * subsolver._scale(G0)
    if K is None:
        C = rng.normal(size=(n, 2))
        X, free, _, _ = subsolver._minimize(G0, C, box, None, 1e-8)
        X0 = np.clip(0.0, box.lo, box.up)
        want = subsolver._pairs(G0 + delta * np.eye(2), C + delta * X0, box)
        assert X.tobytes() == want[0].tobytes() and free == want[1]
        assert solve_box_qp(G0, C, 0.0, 1.0, lam)[1] <= 1e-8
        return
    M = rng.normal(size=(K, 2, 3))
    G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(2)
    G[1] = G0
    C = rng.normal(size=(K, n, 2))
    X, free, _, _ = subsolver._minimize(G, C, box, None, 1e-8)
    free = subsolver._free_mask(free, C.shape)
    for j in range(K):
        Xj, free_j, _, _ = subsolver._minimize(G[j], C[j], box, None, 1e-8)
        free_j = subsolver._free_mask(free_j, Xj.shape)
        assert X[j].tobytes() == Xj.tobytes() and free[j].tobytes() == free_j.tobytes()
    assert np.all(solve_box_qp(G, C, 0.0, 1.0, lam)[1] <= 1e-8)


@pytest.mark.parametrize("K", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("k", [2])
def test_enumeration_product_gives_the_certified_gap(k, lam, K):
    # the rank-2 closed form gives _minimize no gap unless asked, and
    # solve_box_qp certifies its X in the closed form's floats (_pair_gap):
    # without a polish, solve_box_qp's X and gap are the closed form's, byte
    # for byte; the box straddles zero in one entry, so that l1 patterns
    # hold zeros
    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(72 + k)
    lead = () if K is None else (K,)
    lo, up = np.array([[-0.5, 0.0]]), np.array([[1.0, 2.0]])
    box = subsolver._BoxFamily(lam, lo, up, k)
    if lam > 0:
        assert subsolver._ZERO in box.states
    for trial in range(200):
        M = rng.normal(size=lead + (k, k + 1))
        G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(k)
        C = rng.normal(size=lead + (4, k))
        X, _, gap, _ = subsolver._minimize(G, C, box, None, 1e-8)
        assert gap is None
        want = subsolver._pairs(G, C, box, certify=True)[2]
        X_qp, gap_qp = solve_box_qp(G, C, lo, up, lam)
        if np.all(np.asarray(want) <= 1e-8):  # no polish: X and its gap are the enumeration's
            assert X_qp.tobytes() == X.tobytes()
            assert np.asarray(gap_qp).tobytes() == np.asarray(want).tobytes()


def test_sign_states_are_derived_per_box():
    # with an l1 term the KKT states follow the box's signs, derived once per
    # box: two boxes that differ only in their last entry keep their own
    import sbmm.subsolver as subsolver

    def fresh(lo, up):
        positive, negative = bool(np.max(up) > 0.0), bool(np.min(lo) < 0.0)
        straddle = bool(np.any((np.asarray(lo) < 0.0) & (np.asarray(up) > 0.0)))
        return ((subsolver._LO, subsolver._UP) + ((subsolver._POS,) if positive else ())
                + ((subsolver._NEG,) if negative else ())
                + ((subsolver._ZERO,) if positive and negative and straddle else ()))
    lo = np.array([[0.0, 0.0, -1.0]])
    boxes = [(lo, np.array([[1.0, 1.0, 1.0]])), (lo, np.array([[1.0, 1.0, -0.5]])),
             (np.array([[0.0, 0.0, 0.5]]), np.array([[1.0, 1.0, 1.0]]))]
    for _ in range(2):  # and again, once they are known
        seen = [subsolver._BoxFamily(0.05, lo_b, up_b, 3).states for lo_b, up_b in boxes]
        assert seen == [fresh(lo_b, up_b) for lo_b, up_b in boxes]
        assert len(set(seen)) == 3
    assert (subsolver._BoxFamily(0.0, *boxes[0], 3).states
            == (subsolver._LO, subsolver._UP, subsolver._FREE))


@pytest.mark.parametrize("K", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("lam", [0.0, 0.05], ids=["lam0", "lam"])
@pytest.mark.parametrize("k", [2, 5], ids=["enumerated", "active_set"])
@pytest.mark.parametrize("side", [1, -1], ids=["lo_nonneg", "up_nonpos"])
def test_one_signed_box_gives_the_sign_tracking_bytes(side, k, lam, K):
    # on a box with every lo >= 0 the l1 term is linear and the solvers skip
    # its sign bookkeeping; forced back onto the general path through the
    # family's flag, the same problems give the same bytes: the rank-2
    # closed form's (X, free; it has one path for every box), the certified
    # gap and the active-set method's (X, fixed, gap).  A box with every up <= 0 takes the general
    # path; its reference is the mirrored problem (x -> -x: C negated, the
    # box [-up, -lo]) on the linear path, which gives the same numbers with
    # X negated (up to the sign of a zero)
    import copy

    import sbmm.subsolver as subsolver

    rng = np.random.default_rng(80 + k + (side > 0))
    lead, n = () if K is None else (K,), 4
    same = ((lambda a, b: a.tobytes() == b.tobytes()) if side > 0
            else (lambda a, b: np.array_equal(a, b)))
    for trial in range(30):
        near = rng.uniform(0.0, 1.0, size=(n, k))
        near[rng.random((n, k)) < 0.3] = 0.0  # bounds at zero, +0.0
        far = near + rng.uniform(0.2, 1.5, size=(n, k))
        lo, up = (near, far) if side > 0 else (0.0 - far, 0.0 - near)
        box = subsolver._BoxFamily(lam, lo, up, k)
        if side > 0:
            ref, flip = copy.copy(box), 1.0
            ref.sign = 0
        else:
            ref, flip = subsolver._BoxFamily(lam, 0.0 - up, 0.0 - lo, k), -1.0
        assert (box.sign, ref.sign) == ((1, 0) if side > 0 else (0, 1))
        M = rng.normal(size=lead + (k, k + 1))
        G = M @ M.swapaxes(-1, -2) + 0.01 * np.eye(k)
        C = rng.normal(size=lead + (n, k)) * 2.0
        points = [rng.uniform(lo, up, size=lead + (n, k))]
        if box.enumerable:
            got = subsolver._pairs(G, C, box)
            X, free, _ = subsolver._pairs(G, flip * C, ref)
            assert same(got[0], flip * X) and got[1] == free  # the flag pairs
            points.append(got[0])
        for j in range(1 if K is None else K):
            G_j, C_j = (G, C) if K is None else (G[j], C[j])
            X0 = np.clip(rng.uniform(lo - 0.3, up + 0.3), lo, up)  # some entries at a bound
            certified = subsolver._definite(G_j)
            got = subsolver._active_set(G_j, C_j, box, X0, 1e-12, False, certified)
            X, fixed, gap = subsolver._active_set(G_j, flip * C_j, ref, flip * X0, 1e-12, False,
                                                  certified)
            assert same(got[0], flip * X) and same(got[1], fixed) and got[2] == gap
            if K is None:
                points.append(got[0])
        for X in points:
            want = subsolver._certified_gap(G, flip * C, flip * X, ref)
            assert np.asarray(subsolver._certified_gap(G, C, X, box)).tobytes() == \
                np.asarray(want).tobytes()


def _kron_reference(g, box, J, radius):
    """A single FactorQuad's block on the coordinates J of its matrix
    (flattened row by row), minimized in the explicit form 0.5 w'Qw + b'w + C
    with Q = 2 kron(I_q, A) and b = -2 vec(B'): the other coordinates stay at
    the anchor, folded into the linear term, and _ball_bisection_reference
    solves the block as one row over the box and the ball around the
    anchor.  Returns the whole matrix."""
    q, r = g.q, g.r
    prev = g.anchor.ravel()
    rest = np.setdiff1d(np.arange(q * r), J)
    Q = 2.0 * np.kron(np.eye(q), g.A)
    lin = -2.0 * g.B.T.ravel()[J] + Q[np.ix_(J, rest)] @ prev[rest]
    X = _ball_bisection_reference(0.5 * Q[np.ix_(J, J)], -0.5 * lin[None], box.lower[J][None],
                                  box.upper[J][None], prev[J][None], radius)[0]
    W = prev.copy()
    W[J] = X[0]
    return W.reshape(q, r)


@pytest.mark.parametrize("radius", [0.05, math.inf])
def test_row_block_matches_the_same_block_as_coordinates(radius):
    # a block of whole rows is solved as rows, one family row per dictionary
    # row; the same block stated over its coordinates (in permuted order) in
    # the explicit kron form has the same minimum, and the row solve keeps
    # the no-rise certificate
    rng = np.random.default_rng(73)
    q, r = 5, 3
    box = BoxSet.uniform(q * r, 0.0, 1.0)
    rows = np.array([3, 0, 4])
    for trial in range(20):
        g = _factor_quads(rng, None, q, r)
        J = rng.permutation((rows[:, None] * r + np.arange(r)).ravel())
        W, value, new = solve_block_quadratic(g, box, radius, rows)
        ref = g.value(_kron_reference(g, box, J, radius))
        assert value == g.value(g.anchor) and new <= value
        assert abs(new - ref) <= 1e-10 * max(1.0, abs(ref))


_BLOCKS = [(None, "all"), (None, "shared"), (3, "all"), (3, "shared"), (3, "per_member")]


@given(seed=st.integers(0, 10_000), block=st.sampled_from(_BLOCKS), ball=st.booleans())
@settings(max_examples=60, deadline=None)
def test_block_solve_keeps_frozen_rows_and_matches_the_kron_reference(seed, block, ball):
    # a single quadratic or a stack of 3, every row or a row set (shared, or
    # one per member), with or without a ball: the anchor and every row
    # outside the block keep their bytes, W lies in the box and in each
    # member's ball, and each member's objective is that of its block in the
    # explicit kron form, minimized by the bisection reference
    K, kind = block
    rng = np.random.default_rng(seed)
    # up to rank 5: rank 5 has 3^5 KKT patterns, so the active-set method solves it
    q, r = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    lead = () if K is None else (K,)
    lower = rng.uniform(-1.0, 0.5, size=q * r)
    box = BoxSet(lower, lower + rng.uniform(0.2, 1.5, size=q * r))
    H = rng.uniform(0.0, 1.0, size=lead + (r, r + 1))
    B = rng.normal(size=lead + (r, q))
    C = float(rng.uniform(1.0, 2.0)) if K is None else rng.uniform(1.0, 2.0, size=K)
    anchor = rng.uniform(box.lower, box.upper, size=lead + (q * r,)).reshape(lead + (q, r))
    g = FactorQuad(H @ H.swapaxes(-1, -2), B, C, anchor)
    m = int(rng.integers(1, q + 1))
    if kind == "all":
        rows = None
    elif kind == "shared":
        rows = rng.permutation(q)[:m]
    else:
        rows = np.stack([rng.permutation(q)[:m] for _ in range(K)])
    radius = float(rng.uniform(0.01, 1.0)) if ball else math.inf
    before = anchor.tobytes()
    W, _, _ = solve_block_quadratic(g, box, radius, rows, tol=1e-12)
    assert anchor.tobytes() == before and W.shape == anchor.shape
    if K is None:
        members = [(g, W, rows)]
    else:
        members = [(FactorQuad(g.A[j], g.B[j], float(g.C[j]), anchor[j]), W[j],
                    rows[j] if kind == "per_member" else rows) for j in range(K)]
    for one, W_j, rows_j in members:
        block_rows = np.zeros(q, dtype=bool)
        block_rows[slice(None) if rows_j is None else rows_j] = True
        assert W_j[~block_rows].tobytes() == one.anchor[~block_rows].tobytes()
        assert box.contains(W_j.ravel())
        assert float(np.linalg.norm(W_j - one.anchor)) <= radius * (1.0 + 1e-12)
        J = np.flatnonzero(np.repeat(block_rows, r))
        ref = one.value(_kron_reference(one, box, J, radius))
        assert abs(one.value(W_j) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_checks_still_fail_loudly(monkeypatch):
    # a block solve whose objective rises, an A asymmetric by 1e-3 and an
    # anchor (the ball's center) outside the box each raise
    import sbmm.subsolver as subsolver
    from sbmm.geometry import GeometryError

    rng = np.random.default_rng(74)
    box = BoxSet.uniform(4 * 2, 0.0, 1.0)
    for K in (None, 3):
        g = _factor_quads(rng, K, 4, 2)
        # the worst corner of the box: the objective rises from the anchor
        worst = lambda *args: np.where(g.grad(g.anchor) > 0.0, 1.0, 0.0)
        monkeypatch.setattr(subsolver, "_box_qp_ball", worst)
        with pytest.raises(SubsolverError, match="increased the objective"):
            solve_block_quadratic(g, box, math.inf)
        monkeypatch.undo()
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    A[0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        FactorQuad(A, np.zeros((2, 3)), 0.0, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        FactorQuad(np.stack([A.T, A]), np.zeros((2, 2, 3)), np.zeros(2), np.zeros((2, 3, 2)))
    A = A.T @ A
    W = rng.uniform(0.2, 0.8, size=(4, 2))
    W[1, 0] = 1.5
    with pytest.raises(GeometryError):
        solve_block_quadratic(FactorQuad(A, np.zeros((2, 4)), 0.0, W), box, 0.1)
    with pytest.raises(GeometryError):
        solve_block_quadratic(FactorQuad(np.stack([A, A]), np.zeros((2, 2, 4)), np.zeros(2),
                                         np.stack([W - 0.5, W])), box, 0.1, np.array([0]))
    # a stack names the first member whose anchor is outside the box
    inside = rng.uniform(0.2, 0.8, size=(4, 2))
    with pytest.raises(GeometryError, match="anchor of stack member 1 must"):
        solve_block_quadratic(FactorQuad(np.stack([A, A, A]), np.zeros((3, 2, 4)), np.zeros(3),
                                         np.stack([inside, W, W])), box, 0.1)
