"""The SBMM loop: its start, its steps and its run mechanics, as the
diagnostics runner drives them (run_omf_diagnostics over bench's one loop),
and the block solve each step makes (solve_block_quadratic)."""

import math

import numpy as np
import pytest

import sbmm.bench as bench
from sbmm.bench import ConfigError, eps_bar_update, parse_config, run_experiment, run_omf_diagnostics
from sbmm.factorize import OmfState
from sbmm.geometry import BoxSet
from sbmm.quadform import FactorQuad
from sbmm.schedule import WeightSchedule
from sbmm.stream import MarkovSource, make_iid
from sbmm.subsolver import solve_block_quadratic

Q, R, D = 3, 2, 2
DICT_BOX = BoxSet.uniform(Q * R, 0.0, 1.0)
CODE_SET = BoxSet.uniform(R, 0.0, 1.0)


def omf_source(seed=0, emission_seed=5):
    rng = np.random.default_rng(emission_seed)
    P = rng.uniform(0.2, 1.0, size=(2, 2))
    return MarkovSource(P=P / P.sum(axis=1, keepdims=True),
                        emissions=list(rng.uniform(0.0, 1.0, size=(2, Q, D))), seed=seed)


def omf_run(n_iters=30, mode="c2", c_prime=1.0, schedule=None, W0=None,
            source=None, seed=9, **kw):
    W0 = np.random.default_rng(seed).uniform(0.0, 1.0, (Q, R)) if W0 is None else W0
    return run_omf_diagnostics(source or omf_source(), schedule or WeightSchedule.polylog(0.5, 1.5),
                               W0, 0.05, DICT_BOX, CODE_SET, mode=mode, c_prime=c_prime,
                               n_iters=n_iters, rng=np.random.default_rng(seed), **kw)


def box_step(g, lower, upper, radius=math.inf):
    """One block solve of the one-row FactorQuad g over the box-and-ball
    around its anchor; returns the row."""
    box = BoxSet.uniform(g.anchor.size, lower, upper)
    return solve_block_quadratic(g, box, radius, tol=1e-12)[0][0]


def vector_quadratic(theta0, curvature, linear):
    """(curvature/2)||t||^2 + linear't over vectors t, as the one-row
    FactorQuad A = (curvature/2) I, B = -linear/2, anchored at theta0."""
    return FactorQuad(A=0.5 * curvature * np.eye(theta0.size), B=-0.5 * linear[:, None], C=0.0,
                      anchor=theta0[None])


def lipschitz_surrogate(theta0, grad, L):
    """f(theta0) + grad'(t - theta0) + (L/2)||t - theta0||^2, up to its
    constant."""
    return vector_quadratic(theta0, L, grad - L * theta0)


# ---------------------------------------------------------------------------
# the start


def test_init_validation(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        omf_run(mode="c3")
    with pytest.raises(ValueError, match="one W0 and one rng"):
        run_omf_diagnostics([omf_source(), omf_source()], WeightSchedule.balanced(),
                            np.full((2, Q, R), 0.5), 0.05, DICT_BOX, CODE_SET,
                            rng=[np.random.default_rng(0)])
    # a config's start file must lie in the box
    np.savetxt(tmp_path / "em.csv", np.full((2, Q * D), 0.5), delimiter=",")
    np.savetxt(tmp_path / "theta.csv", np.full((Q, R), 5.0), delimiter=",")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"engine.n_iters = 5\napp.rank = {R}\napp.tensor_shape = {Q},{D}\n"
                   f"stream.transition = 0.5 0.5\nstream.emissions = {tmp_path / 'em.csv'}\n"
                   f"engine.theta0 = {tmp_path / 'theta.csv'}\n")
    with pytest.raises(ConfigError, match="leaves the box"):
        parse_config(cfg)


def test_init_c1_forces_no_trust_region():
    # mode C1 solves without a ball: c_prime is not read, and steps go
    # farther than a tiny radius would allow
    tiny = omf_run(mode="c1", c_prime=1e-4, keep_trajectory=True)
    wide = omf_run(mode="c1", c_prime=3.0, keep_trajectory=True)
    sched = WeightSchedule.polylog(0.5, 1.5)
    for a, b in zip(tiny.trajectory, wide.trajectory):
        np.testing.assert_array_equal(a, b)
    moves = [np.linalg.norm(b - a) / sched.weight_at(n)
             for n, (a, b) in enumerate(zip(tiny.trajectory, tiny.trajectory[1:]), start=1)]
    assert max(moves) > 1e-4
    assert tiny.step_bound_violations == 0


def test_init_average_is_anchored_quadratic():
    # rho0 > 0 seeds the average with (rho0/2)||W - W0||^2, one member or a stack
    rng = np.random.default_rng(3)
    W0 = rng.uniform(0.0, 1.0, (Q, R))
    st = OmfState.initial(W0, rho0=2.0)
    g = FactorQuad(st.A, st.B, st.C, st.W)
    for W in (np.zeros((Q, R)), np.ones((Q, R)), W0, rng.normal(size=(Q, R))):
        assert g.value(W) == pytest.approx(float(np.sum((W - W0) ** 2)), abs=1e-12)
    stack = np.stack([W0, rng.uniform(0.0, 1.0, (Q, R))])
    st = OmfState.initial(stack, rho0=2.0)
    W = rng.normal(size=(2, Q, R))
    np.testing.assert_allclose(FactorQuad(st.A, st.B, st.C, st.W).value(W),
                               ((W - stack) ** 2).sum(axis=(1, 2)), atol=1e-12)
    # each member's statistics are the bytes of its own start; a single
    # run's C and eps_sum are floats
    for j, Wj in enumerate(stack):
        one = OmfState.initial(Wj, rho0=2.0)
        assert type(one.C) is float and type(one.eps_sum) is float
        assert st.A[j].tobytes() == one.A.tobytes() and st.B[j].tobytes() == one.B.tobytes()
        assert st.C[j] == one.C and st.eps_sum[j] == one.eps_sum == 0.0


def test_init_random_theta0_in_box(tmp_path, monkeypatch):
    # engine.theta0 = random draws the start inside the constraint box, and
    # every iterate stays there
    starts = []
    real = bench.run_omf_diagnostics

    def spy(source, schedule, W0, *args, **kwargs):
        starts.append(np.array(W0))
        return real(source, schedule, W0, *args, keep_trajectory=True, **kwargs)
    monkeypatch.setattr(bench, "run_omf_diagnostics", spy)
    np.savetxt(tmp_path / "em.csv", np.random.default_rng(0).uniform(0, 1, (2, 5 * 2)),
               delimiter=",")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"engine.n_iters = 20\napp.rank = 3\napp.tensor_shape = 5,2\n"
                   f"constraint.lower = -0.5\nconstraint.upper = 0.25\n"
                   f"stream.transition = 0.5 0.5\nstream.emissions = {tmp_path / 'em.csv'}\n")
    result = run_experiment(parse_config(cfg), seed=4, out_path=str(tmp_path / "out.csv"))
    box = BoxSet.uniform(15, -0.5, 0.25)
    (W0,) = starts
    assert W0.shape == (5, 3) and box.contains(W0.ravel())
    assert len(np.unique(W0)) == W0.size
    assert all(box.contains(W.ravel()) for W in result.trajectory)


# ---------------------------------------------------------------------------
# eps_bar_update


def test_eps_bar_update_examples():
    assert eps_bar_update(0.0, 0.5, 1.0) == 0.5
    assert eps_bar_update(0.4, 0.0, 0.25) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        eps_bar_update(-0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        eps_bar_update(0.0, -0.1, 0.5)


def test_eps_bar_update_recursion_chain():
    # chained from zero, the update is the closed-form weighted sum
    # sum_k w^n_k eps_k, a convex combination of the tolerances so far
    rng = np.random.default_rng(11)
    sched = WeightSchedule.polylog(0.5, 1.5)
    eps_bar, eps = 0.0, []
    for n in range(1, 15):
        eps.append(float(rng.uniform(0, 0.1)))
        eps_bar = eps_bar_update(eps_bar, eps[-1], sched.weight_at(n))
        closed = sum(sched.cumulative_weight(k, n) * eps[k - 1] for k in range(1, n + 1))
        assert eps_bar == pytest.approx(closed, rel=1e-12)
        assert eps_bar <= max(eps) + 1e-15


# ---------------------------------------------------------------------------
# single analytic steps: the block solve of one surrogate


def test_first_step_is_projected_gradient():
    # w_1 = 1: the average equals the new surrogate; the box minimizer of the
    # Lipschitz surrogate of 0.5||theta - x||^2 is Proj(theta0 - grad/L)
    theta0 = np.array([1.5, -1.5])
    x = np.array([4.0, 4.0])
    L = 2.0
    grad = theta0 - x
    theta = box_step(lipschitz_surrogate(theta0, grad, L), -2.0, 2.0)
    expect = np.clip(theta0 - grad / L, -2.0, 2.0)
    np.testing.assert_allclose(theta, expect, atol=1e-6)


def test_dc_first_step_matches_grid():
    # loss theta^2 - theta^4 in one dimension: its DC surrogate at theta0
    # keeps the convex part and linearizes the concave one,
    # t^2 - 4 theta0^3 t + const, solved inside the ball of radius c' w_1 = 50
    theta0 = np.array([0.6])
    g = vector_quadratic(theta0, 2.0, np.array([-4.0 * theta0[0] ** 3]))
    theta = box_step(g, -1.0, 1.0, radius=50.0)
    # grid minimum over the box
    ts = np.linspace(-1.0, 1.0, 200_001)
    vals = ts ** 2 - 4.0 * theta0[0] ** 3 * ts
    expect = ts[int(np.argmin(vals))]
    assert theta[0] == pytest.approx(expect, abs=1e-4)


def test_block_minimize_separable_reaches_joint_minimum():
    # separable quadratic 0.5||theta - x||^2 over the rows of a 4 x 1
    # matrix: one pass over the row blocks {0, 2} and {1, 3}, each anchored
    # where the last left theta, equals the full minimization
    theta = np.array([[1.0], [-1.0], [0.5], [0.0]])
    x = np.array([0.3, -0.7, 1.9, -1.9])
    box = BoxSet.uniform(4, -2.0, 2.0)
    for rows in ([0, 2], [1, 3]):
        g = FactorQuad(A=np.full((1, 1), 0.5), B=0.5 * x[None, :], C=0.0, anchor=theta)
        theta, _, _ = solve_block_quadratic(g, box, math.inf, rows, tol=1e-12)
    np.testing.assert_allclose(theta[:, 0], np.clip(x, -2.0, 2.0), atol=1e-6)


# ---------------------------------------------------------------------------
# step mechanics


def test_c2_step_norm_bounded_by_radius():
    c_prime = 0.4
    sched = WeightSchedule.polylog(0.5, 1.5)
    result = omf_run(n_iters=60, c_prime=c_prime, schedule=sched, keep_trajectory=True)
    moves = [np.linalg.norm(b - a) - c_prime * sched.weight_at(n)
             for n, (a, b) in enumerate(zip(result.trajectory, result.trajectory[1:]), start=1)]
    assert len(moves) == 60
    assert max(moves) <= 1e-8
    assert result.step_bound_violations == 0


def test_forward_monotonicity_each_step(monkeypatch):
    # each step's averaged surrogate is no larger at the new dictionary than
    # at the previous one, whose value is the step's certificate
    seen = []
    real = bench.omf_step

    def step(X, W_prev, *args, **kwargs):
        res = real(X, W_prev, *args, **kwargs)
        seen.append((res.quad.value(res.W), res.quad.value(W_prev), res.g_prev))
        return res
    monkeypatch.setattr(bench, "omf_step", step)
    for mode in ("c2", "c1"):
        result = omf_run(n_iters=40, mode=mode, c_prime=0.3)
        assert result.monotonicity_violations == 0
    assert len(seen) == 80
    for new, old, certificate in seen:
        assert certificate == old
        assert new <= old + 1e-10


def test_eps_bar_tracks_recursion(monkeypatch):
    # the records' eps_bar is the recursion over the steps' certified code
    # gaps, each at most the solver tolerance
    eps = []
    real = bench.omf_step

    def step(*args, **kwargs):
        res = real(*args, **kwargs)
        eps.append(res.eps)
        return res
    monkeypatch.setattr(bench, "omf_step", step)
    sched = WeightSchedule.polylog(0.5, 1.5)
    result = omf_run(n_iters=20, schedule=sched, diag_interval=1, solver_tol=1e-8)
    eps_bar = 0.0
    for n, rec in enumerate(result.records, start=1):
        eps_bar = eps_bar_update(eps_bar, eps[n - 1], sched.weight_at(n))
        assert rec.n == n and rec.eps_bar == eps_bar
    assert all(0.0 <= e <= 1e-8 for e in eps)
    assert result.final.eps_sum == pytest.approx(sum(eps), rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# run loop


def test_run_deterministic_replay():
    src_a = make_iid(np.array([0.5, 0.5]), list(np.random.default_rng(1).uniform(0, 1, (2, Q, D))),
                     seed=7)
    src_b = src_a.clone(seed=7)
    a = omf_run(source=src_a, keep_trajectory=True)
    b = omf_run(source=src_b, keep_trajectory=True)
    assert len(a.trajectory) == len(b.trajectory) == 31
    for x, y in zip(a.trajectory, b.trajectory):
        np.testing.assert_array_equal(x, y)
    assert a.records == b.records


def test_run_zero_iters():
    W0 = np.full((Q, R), 0.5)
    result = omf_run(n_iters=0, W0=W0, keep_trajectory=True)
    assert result.records == [] and result.prop_margins == []
    assert len(result.trajectory) == 1
    np.testing.assert_array_equal(result.trajectory[0], W0)
    np.testing.assert_array_equal(result.final.W, W0)
    assert result.final.n == 0


def test_run_diag_cadence():
    result = omf_run(n_iters=25, diag_interval=10)
    assert [rec.n for rec in result.records] == [10, 20, 25]


def test_run_converges_to_mean_iid():
    # an iid stream of one emission, exactly factorable inside the boxes: the
    # expected loss and its stationarity measure fall at every checkpoint,
    # the loss toward zero
    rng = np.random.default_rng(12)
    X = rng.uniform(0.2, 1.0, (Q, R)) @ rng.uniform(0.2, 1.0, (R, D))
    X /= X.max()
    src = make_iid(np.array([1.0]), [X], seed=11)
    result = run_omf_diagnostics(src, WeightSchedule.balanced(), rng.uniform(0.0, 1.0, (Q, R)),
                                 0.0, DICT_BOX, BoxSet.uniform(R, 0.0, 5.0), mode="c1",
                                 n_iters=400, diag_interval=100, rng=np.random.default_rng(0))
    f_exp = [rec.f_exp for rec in result.records]
    stat = [rec.stat_exp for rec in result.records]
    assert all(b < a for a, b in zip(f_exp, f_exp[1:]))
    assert all(b < a for a, b in zip(stat, stat[1:]))
    assert f_exp[-1] <= 1e-5 and stat[-1] <= 1e-2
