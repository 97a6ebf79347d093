"""Acceptance suite: one test per advertised guarantee, each printing a
single PASS line with its measured quantities when it holds.

Shared long runs are built once per module in fixtures; every criterion
states its tolerance inline.
"""

import math
import time

import numpy as np
import pytest

from sbmm.bench import run_omf_diagnostics, run_cpdl_diagnostics
from sbmm.factorize import (
    CpdlState,
    OmfState,
    cpdl_step,
    factor_loss,
    omf_step,
    out_product,
)
from sbmm.geometry import BoxSet, stationarity_measure
from sbmm.quadform import FactorQuad
from sbmm.schedule import WeightSchedule
from sbmm.stream import MarkovSource, make_iid, mixing_rate, stationary_distribution
from sbmm.subsolver import solve_block_quadratic, solve_code_lasso

from oracles import eval_empirical


Q, R, D = 3, 2, 2
LAM = 0.05
SOLVER_TOL = 1e-8


def _emissions(rng, count=2):
    return [rng.random(size=(Q, D)) for _ in range(count)]


def _iid_source(seed):
    rng = np.random.default_rng(1000 + seed)
    return make_iid(np.array([0.5, 0.5]), _emissions(rng), seed=seed)


def _markov_source(seed):
    # two-state chain with second eigenvalue 0.7
    rng = np.random.default_rng(2000 + seed)
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    return MarkovSource(P=P, emissions=_emissions(rng), seed=seed)


def _boxes():
    dict_box = BoxSet.nonneg(Q * R, upper=1.0)
    code_set = BoxSet.nonneg(R, upper=5.0)
    return dict_box, code_set


def _w0(seed):
    return np.random.default_rng(3000 + seed).random(size=(Q, R))


# ---------------------------------------------------------------------------
# criterion 1: recursive statistics equal the direct weighted sum


def test_criterion_01_surrogate_algebra_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sched = WeightSchedule.polylog(0.5, 1.5)
    dict_box, code_set = _boxes()
    st = OmfState.initial(_w0(0), rho0=0.0)
    per_step = []
    n = 300
    for i in range(1, n + 1):
        X = rng.random(size=(Q, D))
        w = sched.weight_at(i)
        res = omf_step(X, st.W, st.A, st.B, w, LAM, dict_box, code_set,
                       C_prev=st.C, radius=0.5 * w, tol=1e-10)
        per_step.append((X, res.H))
        st.W, st.A, st.B, st.C = res.W, res.A, res.B, res.C
    # direct weighted sum of the per-step statistics
    A_d = np.zeros((R, R))
    B_d = np.zeros((R, Q))
    C_d = 0.0
    for k, (X, H) in enumerate(per_step, start=1):
        wk = sched.cumulative_weight(k, n)
        A_d += wk * (H @ H.T)
        B_d += wk * (X @ H.T).T
        C_d += wk * (float(np.sum(X * X)) + LAM * float(np.abs(H).sum()))
    g_rec = FactorQuad(A=st.A, B=st.B, C=st.C, anchor=st.W)
    g_dir = FactorQuad(A=A_d, B=B_d, C=C_d, anchor=st.W)
    worst = 0.0
    for _ in range(50):
        W = rng.random(size=(Q, R))
        a, b = g_rec.value(W), g_dir.value(W)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS surrogate algebra: max rel err {worst:.2e} "
          f"(tol 1e-8), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criteria 2, 3, 5(C1): shared 5e3-step audited runs


RUN_STEPS = 5000


@pytest.fixture(scope="module")
def audited_runs():
    dict_box, code_set = _boxes()
    runs = {}
    family_elapsed = {"omf_c2": 0.0, "omf_c1": 0.0, "cpdl_c2": 0.0}
    sources = {"iid": _iid_source, "markov": _markov_source}
    members = [(src_kind, seed) for seed in (0, 1, 2) for src_kind in ("iid", "markov")]
    t0 = time.perf_counter()
    # each OMF family is one stack of its six runs in lockstep, every run
    # with its own source and start; a stack member's RunResult is the one
    # its run alone gives (test_bench checks stacks against single runs)
    for family, offset, mode_args in (("omf_c2", 0, dict(mode="c2", c_prime=1.0)),
                                      ("omf_c1", 10, dict(mode="c1"))):
        t = time.perf_counter()
        stack = run_omf_diagnostics(
            [sources[src_kind](offset + seed) for src_kind, seed in members],
            WeightSchedule.polylog(0.5, 1.5), np.stack([_w0(seed) for _, seed in members]),
            LAM, dict_box, code_set, n_iters=RUN_STEPS, diag_interval=500,
            solver_tol=SOLVER_TOL, **mode_args)
        family_elapsed[family] = time.perf_counter() - t
        for (src_kind, seed), res in zip(members, stack):
            runs[(family, src_kind, seed)] = res
    for src_kind, seed in members:
        t = time.perf_counter()
        rng = np.random.default_rng(4000 + seed)
        dims = (Q,)  # one-mode tensor stream, batch axis D
        fboxes = [BoxSet.nonneg(I * R, upper=1.0) for I in dims]
        U0 = [rng.random(size=(I, R)) for I in dims]
        runs[("cpdl_c2", src_kind, seed)] = run_cpdl_diagnostics(
            sources[src_kind](20 + seed), WeightSchedule.polylog(0.5, 1.5), U0, LAM,
            fboxes, code_set, c_prime=1.0, n_iters=RUN_STEPS,
            diag_interval=500, solver_tol=SOLVER_TOL)
        family_elapsed["cpdl_c2"] += time.perf_counter() - t
    runs["elapsed"] = time.perf_counter() - t0
    runs["family_elapsed"] = family_elapsed
    return runs


def _audited(runs):
    """The audited RunResults, without the fixture's timing entries."""
    return {k: v for k, v in runs.items() if k not in ("elapsed", "family_elapsed")}


def test_criterion_02_forward_monotonicity_audit(audited_runs):
    total_mono = total_step = total_c1 = 0
    for res in _audited(audited_runs).values():
        total_mono += res.monotonicity_violations
        total_step += res.step_bound_violations
        total_c1 += res.c1_bound_violations
    elapsed = audited_runs["elapsed"]
    split = ", ".join(f"{name} {sec:.0f}s"
                      for name, sec in audited_runs["family_elapsed"].items())
    assert total_mono == 0 and total_step == 0 and total_c1 == 0, (
        f"violations: monotonicity {total_mono}, step bound {total_step}, "
        f"C1 bound {total_c1}")
    assert elapsed < 180.0, f"audited runs took {elapsed:.0f}s, budget 180s ({split})"
    print(f"\n[criterion 2] PASS forward monotonicity/stability: 0 violations "
          f"over 18 runs x {RUN_STEPS} steps (OMF C1+C2, CPDL C2; iid+Markov; "
          f"3 seeds), {elapsed:.0f}s (< 180s; {split})")


def test_criterion_03_one_step_inequality(audited_runs):
    worst = -math.inf
    checks = 0
    for key, res in _audited(audited_runs).items():
        for n, margin, scale in res.prop_margins:
            worst = max(worst, margin / scale)
            checks += 1
            assert margin <= 1e-8 * scale, (key, n, margin, scale)
    assert checks > 0
    print(f"\n[criterion 3] PASS one-step inequality: {checks} checks, worst "
          f"normalized margin {worst:.2e} (tol 1e-8)")


def test_criterion_05_c1_exact_minimizer(audited_runs):
    worst = 0.0
    for src_kind in ("iid", "markov"):
        for seed in (0, 1, 2):
            worst = max(worst, audited_runs[("omf_c1", src_kind, seed)].c1_stat_max)
    assert worst <= SOLVER_TOL
    print(f"\n[criterion 5b] PASS no-trust-region stationarity: max surrogate "
          f"stationarity {worst:.2e} <= solver tol {SOLVER_TOL:.0e} at every step")


# ---------------------------------------------------------------------------
# criteria 4, 5(C2), 11: rate envelopes over 1e4 steps


ENV_STEPS = 10_000


def _envelope_run(source):
    dict_box, code_set = _boxes()
    return run_omf_diagnostics(
        source, WeightSchedule.polylog(0.5, 1.5), _w0(7), LAM, dict_box,
        code_set, mode="c2", c_prime=1.0, n_iters=ENV_STEPS,
        diag_interval=100, solver_tol=SOLVER_TOL)


@pytest.fixture(scope="module")
def envelope_iid():
    t0 = time.perf_counter()
    res = _envelope_run(_iid_source(7))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def envelope_markov():
    t0 = time.perf_counter()
    res = _envelope_run(_markov_source(7))
    return res, time.perf_counter() - t0


def _envelope_products(res, column):
    by_n = {rec.n: rec for rec in res.records}
    out = {}
    for n in (100, 1000, 10_000):
        rec = by_n[n]
        out[n] = getattr(rec, column) * rec.cum_weight
    return out


def _check_envelope(res, column):
    prods = _envelope_products(res, column)
    base = prods[100]
    for n, p in prods.items():
        assert p <= 10.0 * base + 1e-30, (column, n, p, base)
    return prods


def test_criterion_04_empirical_gap_envelope(envelope_iid):
    res, elapsed = envelope_iid
    prods = _check_envelope(res, "min_comp_emp")
    assert elapsed < 300.0
    print(f"\n[criterion 4] PASS empirical-gap envelope (iid): products at "
          f"n=1e2/1e3/1e4 = {prods[100]:.3e}/{prods[1000]:.3e}/"
          f"{prods[10000]:.3e} (each <= 10x first), {elapsed:.0f}s (< 300s)")


def test_criterion_05_surrogate_stationarity_envelope(envelope_iid):
    res, _ = envelope_iid
    prods = _check_envelope(res, "min_stat_surr")
    print(f"\n[criterion 5a] PASS surrogate-stationarity envelope (C2): "
          f"products = {prods[100]:.3e}/{prods[1000]:.3e}/{prods[10000]:.3e} "
          f"(each <= 10x first)")


def test_criterion_11_markov_vs_iid_envelope(envelope_iid, envelope_markov):
    res_i, _ = envelope_iid
    res_m, elapsed = envelope_markov
    prods_m = _check_envelope(res_m, "min_comp_emp")
    prods_i = _envelope_products(res_i, "min_comp_emp")
    print("\n[criterion 11] PASS envelope robustness under dependence "
          f"(chain rate 0.7), {elapsed:.0f}s:")
    for n in (100, 1000, 10_000):
        print(f"    n={n:>6}: iid {prods_i[n]:.3e}   markov {prods_m[n]:.3e}")


# ---------------------------------------------------------------------------
# criterion 6: empirical mixing of a 5-state chain


def test_criterion_06_empirical_mixing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    S, N = 5, 100_000
    M = rng.random(size=(S, S)) + 0.05
    P = M / M.sum(axis=1, keepdims=True)
    src = MarkovSource(P=P, emissions=[np.zeros(1)] * S)
    lam = mixing_rate(src)
    pi = stationary_distribution(src)
    cum = np.cumsum(P, axis=1)
    pad = 4.0 * math.sqrt(S / N)
    worst_by_t = {}
    for start in range(S):
        states = np.full(N, start)
        for t in range(1, 21):
            u = rng.random(N)
            states = (u[:, None] > cum[states]).sum(axis=1)
            if t in (1, 5, 10, 20):
                freq = np.bincount(states, minlength=S) / N
                tv = 0.5 * float(np.abs(freq - pi).sum())
                worst_by_t[t] = max(worst_by_t.get(t, 0.0), tv)
    elapsed = time.perf_counter() - t0
    for t, tv in worst_by_t.items():
        assert tv <= lam ** t + pad, (t, tv, lam ** t + pad)
    assert elapsed < 60.0
    print(f"\n[criterion 6] PASS empirical mixing: worst-start TV at "
          f"t=1/5/10/20 = {worst_by_t[1]:.4f}/{worst_by_t[5]:.4f}/"
          f"{worst_by_t[10]:.4f}/{worst_by_t[20]:.4f} <= rate^t + {pad:.4f}, "
          f"{elapsed:.0f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 7: stationarity measure vs dense grid


def test_criterion_07_stationarity_grid_oracle():
    rng = np.random.default_rng(7)
    n_grid = 401
    worst = 0.0
    for _ in range(100):
        lo = rng.uniform(-2.0, -0.2, size=2)
        up = rng.uniform(0.2, 2.0, size=2)
        box = BoxSet(lower=lo, upper=up)
        theta = rng.uniform(lo, up)
        grad = rng.normal(size=2) * 2.0
        got = stationarity_measure(grad, theta, box)
        xs = np.linspace(lo[0], up[0], n_grid)
        ys = np.linspace(lo[1], up[1], n_grid)
        XX, YY = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
        diffs = pts - theta[None, :]
        nrm = np.linalg.norm(diffs, axis=1)
        keep = nrm > 1e-12
        oracle = max(0.0, float((-(diffs[keep] @ grad) / nrm[keep]).max()))
        worst = max(worst, abs(got - oracle))
    assert worst <= 1e-2
    print(f"\n[criterion 7] PASS stationarity measure: max abs error vs "
          f"dense grid over 100 instances {worst:.2e} (tol 1e-2)")


# ---------------------------------------------------------------------------
# criterion 8: subsolver correctness


def test_criterion_08_subsolver_correctness():
    rng = np.random.default_rng(8)
    # soft threshold analytic identity, exact: the scalar code min (x - h)^2
    # + |h| is soft(x, 1/2)
    unit_code = BoxSet(lower=np.array([-10.0]), upper=np.array([10.0]))
    for x, h in ((1.5, 1.0), (-1.5, -1.0), (0.3, 0.0)):
        assert solve_code_lasso(np.array([[x]]), np.array([[1.0]]), 1.0, unit_code)[0] == h
    # code lasso vs scalar grid, objective gap <= 1e-4
    worst_lasso = 0.0
    for _ in range(50):
        X = np.array([[float(rng.normal() * 2.0)]])
        W = np.array([[float(rng.uniform(0.2, 2.0))]])
        lam = float(rng.uniform(0.0, 1.0))
        lo, up = sorted(rng.uniform(-3.0, 3.0, size=2))
        box = BoxSet(lower=np.array([lo]), upper=np.array([up]))
        H, _ = solve_code_lasso(X, W, lam, box, tol=1e-12)
        hs = np.linspace(lo, up, 200_001)
        vals = (X[0, 0] - W[0, 0] * hs) ** 2 + lam * np.abs(hs)
        obj = (X[0, 0] - W[0, 0] * H[0, 0]) ** 2 + lam * abs(H[0, 0])
        worst_lasso = max(worst_lasso, abs(obj - float(vals.min())))
    assert worst_lasso <= 1e-4
    # block quadratic 0.5 t'Qm t + b't vs 2-D grid, objective gap <= 1e-3;
    # the block is the one row of the FactorQuad A = Qm/2, B = -b/2
    worst_qp = 0.0
    for _ in range(50):
        M = rng.normal(size=(2, 2))
        Qm = M @ M.T + 0.2 * np.eye(2)
        b = rng.normal(size=2)
        lo = rng.uniform(-2.0, -0.5, size=2)
        up = rng.uniform(0.5, 2.0, size=2)
        box = BoxSet(lower=lo, upper=up)
        start = np.clip(rng.normal(size=2), lo, up)
        g = FactorQuad(A=Qm / 2, B=-b[:, None] / 2, C=0.0, anchor=start[None])
        theta, _, _ = solve_block_quadratic(g, box, math.inf, tol=1e-10)
        xs = np.linspace(lo[0], up[0], 1001)
        ys = np.linspace(lo[1], up[1], 1001)
        XX, YY = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
        vals = 0.5 * np.einsum("ij,jk,ik->i", pts, Qm, pts) + pts @ b
        worst_qp = max(worst_qp, abs(g.value(theta) - float(vals.min())))
    assert worst_qp <= 1e-3
    print(f"\n[criterion 8] PASS subsolvers: lasso max obj gap "
          f"{worst_lasso:.2e} (tol 1e-4), block QP max obj gap "
          f"{worst_qp:.2e} (tol 1e-3), soft threshold exact")


# ---------------------------------------------------------------------------
# criterion 9: tensor primitives and the m=1 reduction


def test_criterion_09_tensor_correctness():
    rng = np.random.default_rng(9)
    # loop oracles
    U = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), rng.normal(size=(2, 2))]
    D_fast = out_product(U)
    D_loop = np.zeros(D_fast.shape)
    for idx in np.ndindex(*D_fast.shape[:-1]):
        for j in range(2):
            v = 1.0
            for k, ik in enumerate(idx):
                v *= U[k][ik, j]
            D_loop[idx + (j,)] = v
    assert np.abs(D_fast - D_loop).max() <= 1e-10
    H = rng.normal(size=(2, 5))
    P_fast = D_fast @ H
    P_loop = np.zeros(P_fast.shape)
    for idx in np.ndindex(*D_fast.shape[:-1]):
        for s in range(5):
            P_loop[idx + (s,)] = sum(D_loop[idx + (j,)] * H[j, s] for j in range(2))
    assert np.abs(P_fast - P_loop).max() <= 1e-10
    # m = 1 reduction is bitwise
    dict_box, code_set = _boxes()
    W0 = _w0(9)
    omf = OmfState.initial(W0)
    cpdl = CpdlState.initial([W0])
    for n in range(1, 41):
        X = rng.random(size=(Q, D))
        w = 1.0 / n
        ro = omf_step(X, omf.W, omf.A, omf.B, w, LAM, dict_box, code_set,
                      C_prev=omf.C, radius=0.5 * w, tol=SOLVER_TOL)
        rc = cpdl_step(X, cpdl.U, cpdl.A, cpdl.B, w, LAM, [dict_box],
                       code_set, C_prev=cpdl.C, radius=0.5 * w, tol=SOLVER_TOL)
        assert np.array_equal(ro.W, rc.U[0])
        assert np.array_equal(ro.A, rc.A)
        assert np.array_equal(ro.B.T, rc.B)
        assert np.array_equal(ro.H, rc.H)
        omf.W, omf.A, omf.B, omf.C = ro.W, ro.A, ro.B, ro.C
        cpdl.U, cpdl.A, cpdl.B, cpdl.C = rc.U, rc.A, rc.B, rc.C
    print("\n[criterion 9] PASS tensor primitives: loop oracles <= 1e-10; "
          "one-mode tensor trajectory bitwise identical to the matrix path "
          "over 40 steps")


# ---------------------------------------------------------------------------
# the exact expected loss, criterion 10's oracle


def eval_expected(theta, source: MarkovSource, loss):
    """Exact expected loss and gradient under the stationary distribution,
    with loss(x, theta) -> (value, gradient)."""
    pi = stationary_distribution(source)
    value = 0.0
    grad = None
    for y in range(source.S):
        v, g = loss(source.emissions[y], theta)
        value += pi[y] * v
        grad = pi[y] * g if grad is None else grad + pi[y] * g
    return value, grad


def _sq_loss(x, t):
    """(value, gradient) of 0.5 ||t - x||^2."""
    return 0.5 * float(np.sum((t - x) ** 2)), t - x


def test_expected_single_state():
    src = make_iid(np.array([1.0]), [np.array([0.3, 0.7])])
    theta = np.array([1.0, -1.0])
    v, g = eval_expected(theta, src, _sq_loss)
    ve, ge = _sq_loss(src.emissions[0], theta)
    assert v == pytest.approx(ve, abs=1e-12)
    np.testing.assert_allclose(g, ge, atol=1e-12)


def test_expected_two_thirds_one_third():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])  # pi = (2/3, 1/3)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    src = MarkovSource(P=P, emissions=[e1, e2])
    theta = np.array([0.5, 0.5])
    v, _ = eval_expected(theta, src, _sq_loss)
    expect = (2 / 3) * _sq_loss(e1, theta)[0] \
        + (1 / 3) * _sq_loss(e2, theta)[0]
    assert v == pytest.approx(expect, abs=1e-10)


def test_expected_gradient_fd():
    src = make_iid(np.array([0.5, 0.5]), [np.ones(2), -np.ones(2)])
    theta = np.array([0.3, -0.6])
    _, g = eval_expected(theta, src, _sq_loss)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        vp, _ = eval_expected(theta + e, src, _sq_loss)
        vm, _ = eval_expected(theta - e, src, _sq_loss)
        assert g[i] == pytest.approx((vp - vm) / (2 * h), rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# criterion 10: finite-difference gradient audits


def test_criterion_10_gradient_audits():
    rng = np.random.default_rng(10)
    dict_box, code_set = _boxes()
    sched = WeightSchedule.balanced()
    src = _iid_source(33)
    replay = src.clone(seed=33)
    n_run = 50
    res = run_omf_diagnostics(src, sched, _w0(3), LAM, dict_box, code_set,
                              mode="c2", c_prime=1.0, n_iters=n_run,
                              diag_interval=n_run, solver_tol=1e-10)
    from sbmm.stream import next_sample
    samples = [next_sample(replay)[0] for _ in range(n_run)]

    def loss(X, theta):
        v, g, _ = factor_loss(X, theta.reshape(Q, R), LAM, code_set, tol=1e-10)
        return v, g.ravel()

    st = res.final
    gbar = FactorQuad(A=st.A, B=st.B, C=st.C, anchor=st.W)
    h = 1e-5
    audited = skipped = 0
    worst = 0.0

    def degenerate(theta):
        W = theta.reshape(Q, R)
        for X in samples[:5] + list(src.emissions):
            H1, _ = solve_code_lasso(X, W, LAM, code_set, tol=1e-12)
            H2, _ = solve_code_lasso(X, W, LAM, code_set, tol=1e-12,
                                     H0=np.full((R, X.shape[1]), 2.0))
            if np.abs(H1 - H2).max() > 1e-6:
                return True
        return False

    for _ in range(20):
        theta = rng.random(size=Q * R) * 0.8 + 0.1
        if degenerate(theta):
            skipped += 1
            continue
        audited += 1
        targets = [
            ("surrogate", lambda t: gbar.value(t), lambda t: gbar.grad(t).ravel()),
            ("empirical",
             lambda t: eval_empirical(t, samples, sched, n_run, loss)[0],
             lambda t: eval_empirical(t, samples, sched, n_run, loss)[1]),
            ("expected",
             lambda t: eval_expected(t, src, loss)[0],
             lambda t: eval_expected(t, src, loss)[1]),
        ]
        for name, fval, fgrad in targets:
            g = np.asarray(fgrad(theta), float).ravel()
            fd = np.zeros_like(g)
            for i in range(theta.size):
                e = np.zeros_like(theta)
                e[i] = h
                fd[i] = (fval(theta + e) - fval(theta - e)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-4, (name, rel)
    assert audited >= 10
    print(f"\n[criterion 10] PASS gradient audits: {audited} points audited "
          f"({skipped} degenerate skipped), worst relative error {worst:.2e} "
          f"(tol 1e-4)")
