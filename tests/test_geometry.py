import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmm.geometry import (
    _CONTAINS_LOOP,
    BOUNDARY_TOL,
    BoxSet,
    GeometryError,
    stationarity_measure,
    tangent_cone_project,
)
from sbmm.quadform import FactorQuad
from sbmm.subsolver import _BoxFamily, _box_qp_ball, solve_block_quadratic


# ---------------------------------------------------------------------------
# oracles


def grid_nearest(x, points):
    d = np.linalg.norm(points - x[None, :], axis=1)
    return points[np.argmin(d)]


def box_grid(box, n):
    axes = [np.linspace(lo, up, n) for lo, up in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def stationarity_grid_oracle(grad, theta, box, n=401):
    """sup over feasible chords of -<grad, (t - theta)/||t - theta||>,
    floored at zero (the measure is a supremum against descent directions)."""
    pts = box_grid(box, n)
    diffs = pts - theta[None, :]
    norms = np.linalg.norm(diffs, axis=1)
    keep = norms > 1e-12
    vals = -(diffs[keep] @ grad) / norms[keep]
    if vals.size == 0:
        return 0.0
    return max(0.0, float(vals.max()))


# ---------------------------------------------------------------------------
# BoxSet


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSet(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        BoxSet(np.array([0.0]), np.array([np.inf]))


def test_box_contains_and_sample():
    box = BoxSet.uniform(3, -2.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert box.contains(rng.uniform(box.lower, box.upper))
    assert not box.contains(np.array([0.0, 0.0, 1.1]))


@pytest.mark.parametrize("n", [1, 4, _CONTAINS_LOOP, _CONTAINS_LOOP + 1])
def test_contains_in_floats_agrees_with_the_array_form(n):
    # a point of at most _CONTAINS_LOOP entries is compared in Python
    # floats, a larger one as arrays; the verdict is the array comparison's
    # for points inside, above and below, nan, +-0.0 and inf, and exactly at
    # BOUNDARY_TOL beyond a bound or one float further out
    rng = np.random.default_rng(n)
    lower = rng.uniform(-1.0, 0.0, n)
    lower[0] = 0.0
    upper = lower + rng.uniform(0.5, 2.0, n)
    upper[-1] = 0.0 if n > 1 else upper[-1]
    box = BoxSet(lower, upper)
    lo, up = box.lower - BOUNDARY_TOL, box.upper + BOUNDARY_TOL

    def array_form(x):
        return bool(((x >= lo) & (x <= up)).all())

    specials = [math.nan, 0.0, -0.0, BOUNDARY_TOL, -BOUNDARY_TOL, math.inf, -math.inf,
                5.0, -5.0]
    verdicts = set()
    for j in sorted({0, n // 2, n - 1}):
        for v in specials + [lo[j], up[j], np.nextafter(lo[j], -math.inf),
                             np.nextafter(up[j], math.inf)]:
            x = rng.uniform(box.lower, box.upper)
            x[j] = v
            verdict = box.contains(x)
            assert verdict == array_form(x), (j, v)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_nonneg_shorthand():
    box = BoxSet.nonneg(2, upper=3.0)
    assert np.all(box.lower == 0.0) and np.all(box.upper == 3.0)


# ---------------------------------------------------------------------------
# projection onto box intersect ball, by the block subsolver's ball search


def box_ball_projection(x, box, center, radius):
    """Euclidean projection of x onto box intersect ball(center, radius),
    center in the box, as the block solve computes it: one row per entry
    with G = I, whose objective sum_i y_i^2 - 2 x_i y_i is ||y - x||^2 up to
    a constant."""
    fam = _BoxFamily(0.0, box.lower[:, None], box.upper[:, None], 1)
    return _box_qp_ball(np.eye(1), x[:, None], fam, center[:, None], radius, 1e-12)[:, 0]


def test_ball_radius_zero_gives_center():
    box = BoxSet.uniform(2, 0.0, 1.0)
    c = np.array([0.4, 0.6])
    out = box_ball_projection(np.array([5.0, -5.0]), box, c, 0.0)
    assert np.array_equal(out, c)


def test_ball_identity_when_feasible():
    box = BoxSet.uniform(2, 0.0, 1.0)
    c = np.array([0.5, 0.5])
    x = np.array([0.6, 0.4])
    assert np.allclose(box_ball_projection(x, box, c, 0.5), x)


def test_ball_center_outside_box_rejected():
    # the ball of a block solve is centered at the quadratic's anchor, which
    # must be feasible
    box = BoxSet.uniform(2, 0.0, 1.0)
    g = FactorQuad(np.eye(2), np.zeros((2, 1)), 0.0, np.array([[2.0, 0.0]]))
    with pytest.raises(GeometryError):
        solve_block_quadratic(g, box, 0.5)


def test_box_ball_2d_arc_grid_oracle():
    # projecting the far corner onto [0,1]^2 intersect ball((0,0), 1/2)
    # lands on the arc point closest to (1,1)
    box = BoxSet.uniform(2, 0.0, 1.0)
    c = np.zeros(2)
    x = np.array([1.0, 1.0])
    got = box_ball_projection(x, box, c, 0.5)
    pts = box_grid(box, 1001)
    feas = pts[np.linalg.norm(pts, axis=1) <= 0.5]
    oracle = grid_nearest(x, feas)
    assert np.linalg.norm(got - oracle) <= 2e-3
    assert np.allclose(got, np.array([0.5, 0.5]) / math.sqrt(2), atol=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_box_ball_output_feasible(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 6))
    lo = rng.uniform(-2, 0, size=p)
    up = lo + rng.uniform(0.2, 2.0, size=p)
    box = BoxSet(lo, up)
    c = rng.uniform(lo, up)
    radius = float(rng.uniform(0.01, 1.5))
    x = rng.uniform(-4, 4, size=p)
    out = box_ball_projection(x, box, c, radius)
    assert box.contains(out)
    assert np.linalg.norm(out - c) <= radius + 1e-9


def test_box_ball_against_grid_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lo = rng.uniform(-1, 0, size=2)
        up = lo + rng.uniform(0.5, 1.5, size=2)
        box = BoxSet(lo, up)
        c = rng.uniform(lo, up)
        radius = float(rng.uniform(0.1, 1.0))
        x = rng.uniform(-3, 3, size=2)
        got = box_ball_projection(x, box, c, radius)
        pts = box_grid(box, 751)
        feas = pts[np.linalg.norm(pts - c[None, :], axis=1) <= radius]
        if feas.size == 0:
            continue
        oracle = grid_nearest(x, feas)
        assert np.linalg.norm(x - got) <= np.linalg.norm(x - oracle) + 5e-3


def box_ball_bisection(x, box, c, radius):
    """Projection onto box intersect ball by plain bisection on the ball
    multiplier mu of the closed form clip((x + mu c) / (1 + mu))."""
    y = lambda mu: np.clip((x + mu * c) / (1.0 + mu), box.lower, box.upper)
    dist = lambda mu: float(np.linalg.norm(y(mu) - c))
    if dist(0.0) <= radius:
        return y(0.0)
    a, b = 0.0, 1.0
    while dist(b) > radius:
        b *= 2.0
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if dist(mid) > radius:
            a = mid
        else:
            b = mid
    return y(b)


def _box_ball_cases():
    yield np.array([1.0, 1.0]), BoxSet.uniform(2, 0.0, 1.0), np.zeros(2), 0.5
    yield np.array([0.6, 0.4]), BoxSet.uniform(2, 0.0, 1.0), np.array([0.5, 0.5]), 0.5
    rng = np.random.default_rng(3)
    for _ in range(10):
        lo = rng.uniform(-1, 0, size=2)
        up = lo + rng.uniform(0.5, 1.5, size=2)
        c = rng.uniform(lo, up)
        radius = float(rng.uniform(0.1, 1.0))
        yield rng.uniform(-3, 3, size=2), BoxSet(lo, up), c, radius
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = int(rng.integers(1, 7))
        lo = rng.uniform(-2, 0, size=p)
        up = lo + rng.uniform(0.2, 2.0, size=p)
        c = rng.uniform(lo, up)
        yield rng.uniform(-4, 4, size=p), BoxSet(lo, up), c, float(rng.uniform(0.01, 1.5))


def test_box_ball_matches_bisection_reference():
    # the multiplier search lands on the exact projection, to rounding
    for x, box, c, radius in _box_ball_cases():
        got = box_ball_projection(x, box, c, radius)
        np.testing.assert_allclose(got, box_ball_bisection(x, box, c, radius),
                                   rtol=0.0, atol=1e-14)


def _secular_root_reference(model, radius, lo, hi):
    """_secular_root as it was written with (w + nu) ** 2 and np.sum."""
    from sbmm.subsolver import BALL_MAX_ITERS

    eps = float(np.finfo(float).eps)
    const, a, w = model
    keep = a > 0.0
    a, w = a[keep], w[keep]
    target = radius * radius
    if a.size == 0 or const + float(np.sum(a / (w + hi) ** 2)) >= target:
        return math.nan
    if lo + float(w.min()) > 0.0:
        if const + float(np.sum(a / (w + lo) ** 2)) <= target:
            return math.nan
        nu = lo
    else:
        nu = 0.5 * (lo + hi)
    for _ in range(BALL_MAX_ITERS):
        s = a / (w + nu) ** 2
        dist2 = const + float(s.sum())
        if dist2 > target:
            lo = nu
        else:
            hi = nu
        slope = float(np.sum(s / (w + nu)))
        step = dist2 * (math.sqrt(dist2) / radius - 1.0) / slope if slope > 0.0 else math.inf
        if abs(step) <= 4.0 * eps * nu or hi - lo <= 4.0 * eps * hi:
            break
        nu += step
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return nu


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_secular_root_matches_its_reference_bytes(seed):
    # each iteration forms w + nu once; the root keeps the bytes of the loop
    # that formed it three times, on models with zero weights, zero
    # eigenvalues (a pole at nu = 0) and brackets with or without a root
    from sbmm.subsolver import _secular_root

    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 41))
    a = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.0, 1.0, size=m) ** 3)
    w = np.where(rng.random(m) < 0.2, 0.0, 10.0 ** rng.uniform(-6.0, 2.0, size=m))
    const = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    lo = float(rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 1.0)]))
    hi = lo + float(10.0 ** rng.uniform(-2.0, 4.0))
    if rng.random() < 0.8 and a.any():  # the radius of a root inside the bracket
        root = float(rng.uniform(lo, hi))
        radius = math.sqrt(const + float(np.sum(a / (w + root) ** 2)))
    else:
        radius = float(10.0 ** rng.uniform(-3.0, 0.5))
    got = _secular_root((const, a, w), radius, lo, hi)
    want = _secular_root_reference((const, a, w), radius, lo, hi)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# a block of rows


def test_project_sub_feasible():
    # the block solve of 0.5 ||W||^2 - z'W over rows J of a 6 x 1 matrix
    # projects z's J-subvector onto the feasible slice: the box, the ball of
    # radius 0.25 around theta's J-subvector, the other rows at theta
    rng = np.random.default_rng(6)
    box = BoxSet.uniform(6, -1.0, 1.0)
    theta = rng.uniform(box.lower, box.upper)
    J = np.array([1, 2, 4])
    rest = np.setdiff1d(np.arange(6), J)
    for _ in range(50):
        z = rng.uniform(-3, 3, size=6)
        g = FactorQuad(np.full((1, 1), 0.5), 0.5 * z[None, :], 0.0, theta[:, None])
        out = solve_block_quadratic(g, box, 0.25, J)[0][:, 0]
        assert box.contains(out)
        np.testing.assert_array_equal(out[rest], theta[rest])
        assert np.linalg.norm(out[J] - theta[J]) <= 0.25 + BOUNDARY_TOL


# ---------------------------------------------------------------------------
# tangent cone and stationarity


def test_tangent_interior_unchanged():
    box = BoxSet.uniform(2, 0.0, 1.0)
    g = np.array([3.0, -2.0])
    assert np.array_equal(tangent_cone_project(g, np.array([0.5, 0.5]), box), g)


def test_tangent_corner_outward_zeroed():
    box = BoxSet.uniform(2, 0.0, 1.0)
    out = tangent_cone_project(np.array([-1.0, -1.0]), np.zeros(2), box)
    assert np.array_equal(out, np.zeros(2))


def test_tangent_mixed_components():
    box = BoxSet.uniform(2, 0.0, 1.0)
    out = tangent_cone_project(np.array([-1.0, 2.0]), np.array([0.0, 0.5]), box)
    assert np.array_equal(out, np.array([0.0, 2.0]))


def test_tangent_requires_membership():
    box = BoxSet.uniform(2, 0.0, 1.0)
    with pytest.raises(GeometryError):
        tangent_cone_project(np.zeros(2), np.array([2.0, 0.0]), box)


def test_stationarity_interior_is_grad_norm():
    box = BoxSet.uniform(2, 0.0, 1.0)
    val = stationarity_measure(np.array([1.0, -1.0]), np.array([0.5, 0.5]), box)
    assert val == pytest.approx(math.sqrt(2.0))


def test_stationarity_zero_at_blocked_corner():
    box = BoxSet.uniform(2, 0.0, 1.0)
    assert stationarity_measure(np.array([1.0, 1.0]), np.zeros(2), box) == 0.0


def test_stationarity_edge_value():
    box = BoxSet.uniform(2, 0.0, 1.0)
    val = stationarity_measure(np.array([1.0, -2.0]), np.array([0.0, 0.5]), box)
    assert val == pytest.approx(2.0)


def test_stationarity_matches_grid_oracle_2d():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lo = rng.uniform(-1, 0, size=2)
        up = lo + rng.uniform(0.5, 2.0, size=2)
        box = BoxSet(lo, up)
        theta = rng.uniform(box.lower, box.upper)
        if rng.random() < 0.5:  # exercise boundary cases too
            j = rng.integers(0, 2)
            theta[j] = lo[j] if rng.random() < 0.5 else up[j]
        grad = rng.normal(size=2)
        got = stationarity_measure(grad, theta, box)
        oracle = stationarity_grid_oracle(grad, theta, box)
        assert got == pytest.approx(oracle, abs=1e-2)


def local_chord_oracle(grad, theta, box, n_dirs=200_000, s=1e-7, seed=0):
    """Chord supremum probed by short feasible chords: t = clip(theta + s v)
    for many random directions v.  As s shrinks these chords sweep the
    feasible directions at theta, independently of any cone formula."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_dirs, theta.size))
    t = np.clip(theta[None, :] + s * v, box.lower, box.upper)
    diffs = t - theta[None, :]
    norms = np.linalg.norm(diffs, axis=1)
    keep = norms > 1e-15
    if not keep.any():
        return 0.0
    vals = -(diffs[keep] @ grad) / norms[keep]
    return max(0.0, float(vals.max()))


def test_stationarity_matches_local_chord_oracle_3d():
    rng = np.random.default_rng(8)
    for i in range(8):
        box = BoxSet.uniform(3, -1.0, 1.0)
        theta = rng.uniform(box.lower, box.upper)
        if i % 2 == 0:  # pin a coordinate to a bound half the time
            j = int(rng.integers(0, 3))
            theta[j] = box.lower[j] if rng.random() < 0.5 else box.upper[j]
        grad = rng.normal(size=3)
        got = stationarity_measure(grad, theta, box)
        oracle = local_chord_oracle(grad, theta, box, seed=i)
        assert got == pytest.approx(oracle, abs=1e-2)
