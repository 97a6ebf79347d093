import math

import numpy as np
import pytest

from sbmm.engine import (
    EngineError,
    SurrogateRecipe,
    block_minimize,
    eps_bar_update,
    init_state,
    run,
    sbmm_step,
)
from sbmm.geometry import BlockSpec, BoxSet
from sbmm.schedule import WeightSchedule
from sbmm.stream import make_iid
from sbmm.subsolver import soft_threshold


def sq_recipe(L=1.0, lam=0.0, kind="lipschitz"):
    """Per-sample loss 0.5 ||theta - x||^2 (smooth part)."""
    loss = lambda x, t: 0.5 * float(np.sum((t - x) ** 2))
    grad = lambda x, t: (t - x)
    return SurrogateRecipe(kind=kind, L=L, lam=lam, loss=loss, loss_grad=grad)


def make_state(recipe, dim=2, mode="c2", c_prime=1.0, rho0=0.0, theta0=None,
               schedule=None, blocks=None, box=None, seed=0, **kw):
    box = box or BoxSet.uniform(dim, -2.0, 2.0)
    blocks = blocks or BlockSpec.single(dim)
    schedule = schedule or WeightSchedule.balanced()
    if theta0 is None:
        theta0 = "random"
    return init_state(recipe, box, blocks, schedule, mode=mode, c_prime=c_prime,
                      theta0=theta0, rho0=rho0, seed=seed, **kw)


# ---------------------------------------------------------------------------
# init_state


def test_init_validation():
    r = sq_recipe()
    box = BoxSet.uniform(2, -1.0, 1.0)
    blocks = BlockSpec.single(2)
    sched = WeightSchedule.balanced()
    with pytest.raises(EngineError):
        init_state(r, box, blocks, sched, mode="c3")
    with pytest.raises(EngineError):
        init_state(r, box, blocks, sched, mode="c1", rho0=0.0)
    with pytest.raises(EngineError):
        init_state(r, box, blocks, sched, mode="c2", c_prime=math.inf)
    with pytest.raises(EngineError):
        init_state(r, box, blocks, sched, theta0=np.array([5.0, 0.0]))
    with pytest.raises(EngineError):
        init_state(r, box, blocks, sched, theta0="zeros")


def test_init_c1_forces_no_trust_region():
    st = make_state(sq_recipe(), mode="c1", rho0=0.5, c_prime=3.0)
    assert math.isinf(st.c_prime)


def test_init_average_is_anchored_quadratic():
    theta0 = np.array([0.5, -0.5])
    st = make_state(sq_recipe(), mode="c1", rho0=2.0, theta0=theta0)
    # gbar_0 = (rho0/2)||t - theta0||^2
    for t in [np.zeros(2), np.array([1.0, 1.0]), theta0]:
        assert st.gbar.value(t) == pytest.approx(np.sum((t - theta0) ** 2), abs=1e-12)


def test_init_random_theta0_in_box():
    st = make_state(sq_recipe(), dim=5)
    assert st.box.contains(st.theta)


# ---------------------------------------------------------------------------
# eps_bar_update


def test_eps_bar_update_examples():
    assert eps_bar_update(0.0, 0.5, 1.0) == 0.5
    assert eps_bar_update(0.4, 0.0, 0.25) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        eps_bar_update(-0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        eps_bar_update(0.0, -0.1, 0.5)


# ---------------------------------------------------------------------------
# single analytic steps


def test_first_step_is_projected_gradient():
    # w_1 = 1: the average equals the new surrogate, whose box minimizer is
    # Proj(theta0 - grad/L)
    theta0 = np.array([1.5, -1.5])
    x = np.array([4.0, 4.0])
    L = 2.0
    st = make_state(sq_recipe(L=L), mode="c1", rho0=1e-9, theta0=theta0)
    sbmm_step(st, x)
    grad = theta0 - x
    expect = np.clip(theta0 - grad / L, -2.0, 2.0)
    np.testing.assert_allclose(st.theta, expect, atol=1e-6)


def test_first_step_prox_soft_threshold():
    theta0 = np.array([1.0, -0.2])
    x = np.array([0.0, 0.0])
    L, lam = 1.0, 0.5
    st = make_state(sq_recipe(L=L, lam=lam, kind="prox"), mode="c1",
                    rho0=1e-9, theta0=theta0)
    sbmm_step(st, x)
    grad = theta0 - x
    expect = np.clip(soft_threshold(theta0 - grad / L, lam / L), -2.0, 2.0)
    np.testing.assert_allclose(st.theta, expect, atol=1e-6)


def test_dc_first_step_matches_grid():
    # loss theta^2 - theta^4 in one dimension, sample-independent
    recipe = SurrogateRecipe(
        kind="dc",
        convex_part=lambda x: (2.0, np.zeros(1), 0.0),
        concave_value=lambda x, t: -float(t[0] ** 4),
        concave_grad=lambda x, t: np.array([-4.0 * t[0] ** 3]),
    )
    theta0 = np.array([0.6])
    box = BoxSet.uniform(1, -1.0, 1.0)
    st = init_state(recipe, box, BlockSpec.single(1), WeightSchedule.balanced(),
                    mode="c2", c_prime=50.0, theta0=theta0)
    sbmm_step(st, np.zeros(1))
    # grid minimum of t^2 - 4 theta0^3 t + const over the box
    ts = np.linspace(-1.0, 1.0, 200_001)
    vals = ts ** 2 - 4.0 * theta0[0] ** 3 * ts
    expect = ts[int(np.argmin(vals))]
    assert st.theta[0] == pytest.approx(expect, abs=1e-4)


# ---------------------------------------------------------------------------
# step mechanics


def test_c2_step_norm_bounded_by_radius():
    rng = np.random.default_rng(0)
    c_prime = 0.4
    st = make_state(sq_recipe(), dim=3, mode="c2", c_prime=c_prime,
                    blocks=BlockSpec.partition([[0], [1, 2]]), seed=1)
    sched = st.schedule
    for n in range(1, 60):
        prev = st.theta.copy()
        sbmm_step(st, rng.normal(size=3) * 3.0)
        w_n = sched.weight_at(n)
        assert np.linalg.norm(st.theta - prev) <= c_prime * w_n + 1e-8


def test_forward_monotonicity_each_step():
    rng = np.random.default_rng(2)
    st = make_state(sq_recipe(), dim=2, mode="c2", c_prime=1.0, seed=3)
    for _ in range(40):
        sbmm_step(st, rng.normal(size=2))
        assert st.gbar.value(st.theta) <= st.gbar.value(st.theta_prev) + 1e-10


def test_eps_bar_tracks_recursion():
    st = make_state(sq_recipe(), dim=2)
    rng = np.random.default_rng(4)
    for n in range(1, 20):
        sbmm_step(st, rng.normal(size=2))
        # smooth recipes produce exact surrogates, so eps_bar stays zero
        assert st.gbar.eps_bar == 0.0
        assert st.eps_sum == 0.0


def test_block_minimize_separable_reaches_joint_minimum():
    # separable quadratic: one block pass equals the full minimization
    theta0 = np.array([1.0, -1.0, 0.5, 0.0])
    st = make_state(sq_recipe(), dim=4, mode="c1", rho0=1e-9, theta0=theta0,
                    blocks=BlockSpec.partition([[0, 2], [1, 3]]))
    x = np.array([0.3, -0.7, 1.9, -1.9])
    sbmm_step(st, x)
    np.testing.assert_allclose(st.theta, np.clip(x, -2.0, 2.0), atol=1e-6)


# ---------------------------------------------------------------------------
# run loop


def test_run_deterministic_replay():
    src_a = make_iid(np.array([0.5, 0.5]),
                     [np.array([1.0, 0.0]), np.array([0.0, 1.0])], seed=7)
    src_b = src_a.clone(seed=7)
    traj_a, _ = run(make_state(sq_recipe(), dim=2, seed=9), src_a, 30)
    traj_b, _ = run(make_state(sq_recipe(), dim=2, seed=9), src_b, 30)
    assert len(traj_a) == len(traj_b) == 31
    for a, b in zip(traj_a, traj_b):
        np.testing.assert_array_equal(a, b)


def test_run_zero_iters():
    src = make_iid(np.array([1.0]), [np.zeros(2)])
    st = make_state(sq_recipe(), dim=2, seed=0)
    theta0 = st.theta.copy()
    traj, recs = run(st, src, 0)
    assert len(traj) == 1 and recs == []
    np.testing.assert_array_equal(traj[0], theta0)


def test_run_diag_cadence():
    src = make_iid(np.array([1.0]), [np.ones(2)])
    st = make_state(sq_recipe(), dim=2, seed=0)
    seen = []
    run(st, src, 25, diag_interval=10,
        diag_fn=lambda s, info: seen.append(s.n))
    assert seen == [10, 20, 25]


def test_run_converges_to_mean_iid():
    # balanced weights on 0.5||theta - x||^2 average the samples; with two
    # symmetric emissions the iterate approaches their mean
    src = make_iid(np.array([0.5, 0.5]),
                   [np.array([1.0, -1.0]), np.array([-1.0, 1.0])], seed=11)
    st = make_state(sq_recipe(), dim=2, mode="c1", rho0=1e-9, seed=12)
    traj, _ = run(st, src, 4000, keep_trajectory=False)
    assert np.linalg.norm(st.theta) <= 0.1


def test_run_logs_chain_states():
    src = make_iid(np.array([0.3, 0.7]),
                   [np.zeros(2), np.ones(2)], seed=13)
    st = make_state(sq_recipe(), dim=2, seed=0)
    run(st, src, 50, keep_trajectory=False)
    assert len(st.state_log) == 50
    assert set(st.state_log) <= {0, 1}
