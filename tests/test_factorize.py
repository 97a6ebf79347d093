import math

import numpy as np
import pytest

from sbmm.factorize import (
    CpdlState,
    OmfState,
    cpdl_loss,
    cpdl_step,
    factor_loss,
    factor_loss_lipschitz_bound,
    fold,
    omf_step,
    out_product,
    unfold,
)
from sbmm.geometry import BoxSet
from sbmm.subsolver import solve_code_lasso


# ---------------------------------------------------------------------------
# oracles


def out_product_oracle(U):
    """Entrywise loop definition of the rank-1 dictionary tensor."""
    shapes = [Uk.shape[0] for Uk in U]
    r = U[0].shape[1]
    D = np.zeros(tuple(shapes) + (r,))
    for idx in np.ndindex(*shapes):
        for j in range(r):
            v = 1.0
            for k, ik in enumerate(idx):
                v *= U[k][ik, j]
            D[idx + (j,)] = v
    return D


def mode_product_oracle(D, H):
    out = np.zeros(D.shape[:-1] + (H.shape[1],))
    for idx in np.ndindex(*D.shape[:-1]):
        for s in range(H.shape[1]):
            out[idx + (s,)] = sum(D[idx + (j,)] * H[j, s] for j in range(H.shape[0]))
    return out


def unfold_oracle(T, mode):
    shape = T.shape
    rest = [i for i in range(T.ndim) if i != mode]
    M = np.zeros((shape[mode], int(np.prod([shape[i] for i in rest]))))
    for idx in np.ndindex(*shape):
        col = 0
        for i in rest:
            col = col * shape[i] + idx[i]
        M[idx[mode], col] = T[idx]
    return M


# ---------------------------------------------------------------------------
# tensor primitives


def test_out_product_matches_loop_oracle():
    rng = np.random.default_rng(0)
    U = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), rng.normal(size=(2, 2))]
    np.testing.assert_allclose(out_product(U), out_product_oracle(U), atol=1e-12)


def test_out_product_single_mode_passthrough():
    rng = np.random.default_rng(1)
    U0 = rng.normal(size=(5, 3))
    np.testing.assert_array_equal(out_product([U0]), U0)


def test_out_product_rank_mismatch():
    with pytest.raises(ValueError):
        out_product([np.zeros((2, 2)), np.zeros((2, 3))])


def test_mode_product_matches_loop_oracle():
    rng = np.random.default_rng(2)
    D = rng.normal(size=(3, 4, 2))
    H = rng.normal(size=(2, 5))
    np.testing.assert_allclose(D @ H, mode_product_oracle(D, H), atol=1e-12)


def test_unfold_matches_loop_oracle():
    rng = np.random.default_rng(3)
    T = rng.normal(size=(2, 3, 4))
    for mode in range(3):
        np.testing.assert_allclose(unfold(T, mode), unfold_oracle(T, mode),
                                   atol=1e-12)


def test_fold_round_trip():
    rng = np.random.default_rng(4)
    T = rng.normal(size=(2, 3, 4, 2))
    for mode in range(4):
        np.testing.assert_array_equal(fold(unfold(T, mode), mode, T.shape), T)


def test_unfold_fold_invalid_mode():
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError):
        fold(np.zeros((2, 2)), 5, (2, 2))


def test_reconstruction_identity():
    # out_product(U) @ H equals the sum of rank-1 terms
    rng = np.random.default_rng(5)
    U = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
    H = rng.normal(size=(2, 6))
    direct = np.zeros((3, 4, 6))
    for j in range(2):
        direct += (np.outer(U[0][:, j], U[1][:, j])[..., None] * H[j][None, None, :])
    np.testing.assert_allclose(out_product(U) @ H, direct, atol=1e-10)


# ---------------------------------------------------------------------------
# OMF statistics recursion


def run_omf(n_steps, seed=0, lam=0.1, rho0=0.0, radius=math.inf, q=4, r=2, d=3):
    rng = np.random.default_rng(seed)
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=5.0)
    st = OmfState.initial(rng.random(size=(q, r)), rho0=rho0)
    samples, codes = [], []
    for n in range(1, n_steps + 1):
        X = rng.random(size=(q, d))
        w_n = 1.0 / n
        res = omf_step(X, st.W, st.A, st.B, w_n, lam, dict_box, code_set,
                       C_prev=st.C, radius=(radius if math.isinf(radius)
                                            else radius * w_n), tol=1e-10)
        st.W, st.A, st.B, st.C = res.W, res.A, res.B, res.C
        samples.append(X)
        codes.append(res.H)
    return st, samples, codes, dict_box, code_set


def test_omf_statistics_match_direct_weighted_sum():
    # balanced weights with rho0 = 0: A_n, B_n, C_n are plain averages of the
    # per-step statistics
    lam = 0.1
    st, samples, codes, _, _ = run_omf(25, lam=lam)
    n = len(samples)
    A_direct = sum(H @ H.T for H in codes) / n
    B_direct = sum((X @ H.T).T for X, H in zip(samples, codes)) / n
    C_direct = sum(float(np.sum(X * X)) + lam * float(np.abs(H).sum())
                   for X, H in zip(samples, codes)) / n
    np.testing.assert_allclose(st.A, A_direct, atol=1e-10)
    np.testing.assert_allclose(st.B, B_direct, atol=1e-10)
    assert st.C == pytest.approx(C_direct, rel=1e-10)


def test_omf_scalar_hand_case():
    # q = r = d = 1, lam = 0, W = 1: H = X = 0.7, A = B = 0.49, and the
    # dictionary solve min 0.49 W^2 - 0.98 W has its optimum back at W = 1
    X = np.array([[0.7]])
    dict_box = BoxSet.uniform(1, 0.5, 1.5)
    code_set = BoxSet.uniform(1, -10.0, 10.0)
    res = omf_step(X, np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
                   1.0, 0.0, dict_box, code_set, tol=1e-12)
    assert res.H[0, 0] == pytest.approx(0.7, abs=1e-9)
    assert res.A[0, 0] == pytest.approx(0.49, abs=1e-8)
    assert res.B[0, 0] == pytest.approx(0.49, abs=1e-8)
    assert res.W[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_omf_dictionary_feasible_and_descending():
    st, samples, codes, dict_box, code_set = run_omf(30, radius=0.5)
    assert dict_box.contains(st.W.ravel())


def test_omf_trust_region_respected():
    rng = np.random.default_rng(7)
    q, r, d = 3, 2, 4
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=5.0)
    st = OmfState.initial(rng.random(size=(q, r)))
    c_prime = 0.3
    for n in range(1, 40):
        X = rng.random(size=(q, d))
        w_n = 1.0 / n
        res = omf_step(X, st.W, st.A, st.B, w_n, 0.05, dict_box, code_set,
                       C_prev=st.C, radius=c_prime * w_n, tol=1e-9)
        assert np.linalg.norm(res.W - st.W) <= c_prime * w_n + 1e-8
        st.W, st.A, st.B, st.C = res.W, res.A, res.B, res.C


# ---------------------------------------------------------------------------
# subsampled OMF


def test_subsampled_full_rows_equals_plain():
    rng = np.random.default_rng(8)
    q, r, d = 4, 2, 3
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=5.0)
    W = rng.random(size=(q, r))
    A = np.zeros((r, r))
    B = np.zeros((r, q))
    X = rng.random(size=(q, d))
    full = omf_step(X, W, A, B, 1.0, 0.1, dict_box, code_set, tol=1e-10)
    sub = omf_step(X, W, A, B, 1.0, 0.1, dict_box, code_set, tol=1e-10,
                   rows=np.arange(q))
    np.testing.assert_array_equal(full.W, sub.W)
    np.testing.assert_array_equal(full.A, sub.A)


def test_subsampled_freezes_unselected_rows():
    rng = np.random.default_rng(9)
    q, r, d = 5, 2, 3
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=5.0)
    W = rng.random(size=(q, r))
    X = rng.random(size=(q, d))
    rows = np.array([1, 3])
    res = omf_step(X, W, np.zeros((r, r)), np.zeros((r, q)),
                   1.0, 0.1, dict_box, code_set, tol=1e-9, rows=rows)
    frozen = np.setdiff1d(np.arange(q), rows)
    np.testing.assert_array_equal(res.W[frozen], W[frozen])
    # and the selected rows actually moved
    assert np.abs(res.W[rows] - W[rows]).max() > 0


def test_subsampled_rejects_empty_rows():
    with pytest.raises(ValueError):
        omf_step(np.ones((2, 2)), np.ones((2, 1)) * 0.5,
                 np.zeros((1, 1)), np.zeros((1, 2)), 1.0, 0.0,
                 BoxSet.nonneg(2, 1.0), BoxSet.nonneg(1, 5.0),
                 rows=np.array([], dtype=int))


def test_subsampled_row_frequency_uniform():
    # inclusion sampling at p = 0.5 selects each row about half the time
    rng = np.random.default_rng(10)
    q = 6
    hits = np.zeros(q)
    trials = 4000
    for _ in range(trials):
        rows = np.flatnonzero(rng.random(q) < 0.5)
        hits[rows] += 1
    freq = hits / trials
    sigma = math.sqrt(0.25 / trials)
    assert np.all(np.abs(freq - 0.5) <= 4 * sigma)


# ---------------------------------------------------------------------------
# CPDL


def run_cpdl(n_steps, dims=(3, 4), r=2, b=2, seed=0, lam=0.05, radius=math.inf):
    rng = np.random.default_rng(seed)
    boxes = [BoxSet.nonneg(I * r, upper=1.0) for I in dims]
    code_set = BoxSet.nonneg(r, upper=5.0)
    st = CpdlState.initial([rng.random(size=(I, r)) for I in dims])
    for n in range(1, n_steps + 1):
        X = rng.random(size=dims + (b,))
        w_n = 1.0 / n
        res = cpdl_step(X, st.U, st.A, st.B, w_n, lam, boxes, code_set,
                        C_prev=st.C, radius=(radius if math.isinf(radius)
                                             else radius * w_n), tol=1e-9)
        st.U, st.A, st.B, st.C = res.U, res.A, res.B, res.C
    return st, boxes, code_set


def test_cpdl_factors_stay_feasible():
    st, boxes, _ = run_cpdl(20, radius=0.5)
    for Ui, box in zip(st.U, boxes):
        assert box.contains(Ui.ravel())


def test_cpdl_trust_region_per_factor():
    rng = np.random.default_rng(11)
    dims, r, b = (3, 4), 2, 2
    boxes = [BoxSet.nonneg(I * r, upper=1.0) for I in dims]
    code_set = BoxSet.nonneg(r, upper=5.0)
    st = CpdlState.initial([rng.random(size=(I, r)) for I in dims])
    c_prime = 0.4
    for n in range(1, 25):
        X = rng.random(size=dims + (b,))
        w_n = 1.0 / n
        res = cpdl_step(X, st.U, st.A, st.B, w_n, 0.05, boxes, code_set,
                        C_prev=st.C, radius=c_prime * w_n, tol=1e-9)
        for Ui_new, Ui_old in zip(res.U, st.U):
            assert np.linalg.norm(Ui_new - Ui_old) <= c_prime * w_n + 1e-8
        st.U, st.A, st.B, st.C = res.U, res.A, res.B, res.C


def test_cpdl_single_mode_is_omf_bitwise():
    # a 1-mode tensor stream is exactly the matrix problem; the two code
    # paths must produce identical floating point trajectories
    rng = np.random.default_rng(12)
    q, r, b = 4, 2, 3
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=5.0)
    W0 = rng.random(size=(q, r))
    omf = OmfState.initial(W0)
    cpdl = CpdlState.initial([W0])
    for n in range(1, 41):
        X = rng.random(size=(q, b))
        w_n = 1.0 / n
        ro = omf_step(X, omf.W, omf.A, omf.B, w_n, 0.1, dict_box, code_set,
                      C_prev=omf.C, radius=0.5 * w_n, tol=1e-9)
        rc = cpdl_step(X, cpdl.U, cpdl.A, cpdl.B, w_n, 0.1, [dict_box],
                       code_set, C_prev=cpdl.C, radius=0.5 * w_n, tol=1e-9)
        assert np.array_equal(ro.W, rc.U[0])
        assert np.array_equal(ro.A, rc.A)
        assert np.array_equal(ro.B.T, rc.B)
        assert np.array_equal(ro.H, rc.H)
        assert ro.C == rc.C and ro.eps == rc.eps
        omf.W, omf.A, omf.B, omf.C = ro.W, ro.A, ro.B, ro.C
        cpdl.U, cpdl.A, cpdl.B, cpdl.C = rc.U, rc.A, rc.B, rc.C


def test_cpdl_statistics_recursion():
    rng = np.random.default_rng(13)
    dims, r, b = (2, 3), 2, 2
    boxes = [BoxSet.nonneg(I * r, upper=1.0) for I in dims]
    code_set = BoxSet.nonneg(r, upper=5.0)
    st = CpdlState.initial([rng.random(size=(I, r)) for I in dims])
    lam = 0.05
    As, Bs, Cs = [], [], []
    for n in range(1, 11):
        X = rng.random(size=dims + (b,))
        res = cpdl_step(X, st.U, st.A, st.B, 1.0 / n, lam, boxes, code_set,
                        C_prev=st.C, tol=1e-9)
        X_mat = X.reshape(-1, b)
        As.append(res.H @ res.H.T)
        Bs.append((X_mat @ res.H.T).reshape(dims + (r,)))
        Cs.append(float(np.sum(X * X)) + lam * float(np.abs(res.H).sum()))
        st.U, st.A, st.B, st.C = res.U, res.A, res.B, res.C
    n = len(As)
    np.testing.assert_allclose(st.A, sum(As) / n, atol=1e-10)
    np.testing.assert_allclose(st.B, sum(Bs) / n, atol=1e-10)
    assert st.C == pytest.approx(sum(Cs) / n, rel=1e-10)


# ---------------------------------------------------------------------------
# loss helpers


def test_factor_loss_danskin_gradient_fd():
    rng = np.random.default_rng(14)
    q, r, d = 4, 2, 3
    X = rng.random(size=(q, d))
    W = rng.random(size=(q, r)) + 0.5
    code_set = BoxSet.uniform(r, -5.0, 5.0)
    lam = 0.0
    val, grad, H = factor_loss(X, W, lam, code_set, tol=1e-12)
    h = 1e-5
    fd = np.zeros_like(W)
    for i in range(q):
        for j in range(r):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            vp = factor_loss(X, Wp, lam, code_set, tol=1e-12)[0]
            vm = factor_loss(X, Wm, lam, code_set, tol=1e-12)[0]
            fd[i, j] = (vp - vm) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-4)


def test_cpdl_loss_matches_matrix_loss_single_mode():
    rng = np.random.default_rng(15)
    q, r, b = 4, 2, 3
    X = rng.random(size=(q, b))
    W = rng.random(size=(q, r)) + 0.2
    code_set = BoxSet.nonneg(r, upper=5.0)
    v1, g1, H1 = factor_loss(X, W, 0.1, code_set, tol=1e-10)
    v2, g2s, H2 = cpdl_loss(X, [W], 0.1, code_set, tol=1e-10)
    assert v1 == pytest.approx(v2, rel=1e-10)
    np.testing.assert_allclose(g1, g2s[0], atol=1e-8)


def test_cpdl_loss_gradients_fd():
    rng = np.random.default_rng(16)
    dims, r, b = (3, 2), 2, 2
    X = rng.random(size=dims + (b,))
    U = [rng.random(size=(I, r)) + 0.5 for I in dims]
    code_set = BoxSet.uniform(r, -5.0, 5.0)
    val, grads, H = cpdl_loss(X, U, 0.0, code_set, tol=1e-12)
    h = 1e-5
    for i, Ui in enumerate(U):
        fd = np.zeros_like(Ui)
        for a in range(Ui.shape[0]):
            for j in range(r):
                Up = [u.copy() for u in U]
                Um = [u.copy() for u in U]
                Up[i][a, j] += h
                Um[i][a, j] -= h
                fd[a, j] = (cpdl_loss(X, Up, 0.0, code_set, tol=1e-12)[0]
                            - cpdl_loss(X, Um, 0.0, code_set, tol=1e-12)[0]) / (2 * h)
        np.testing.assert_allclose(grads[i], fd, atol=1e-4)


def test_factor_loss_lipschitz_bound_dominates():
    rng = np.random.default_rng(17)
    q, r, d = 3, 2, 4
    emissions = [rng.random(size=(q, d)) for _ in range(4)]
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=2.0)
    R = factor_loss_lipschitz_bound(emissions, dict_box, code_set, r)
    for X in emissions:
        for _ in range(20):
            W = rng.random(size=(q, r))
            _, grad, _ = factor_loss(X, W, 0.1, code_set, tol=1e-10)
            assert np.linalg.norm(grad) <= R + 1e-9


def test_omf_state_initial_seeds_proximal_average():
    # rho0 > 0: the seeded statistics represent (rho0/2)||W - W0||^2
    rng = np.random.default_rng(18)
    W0 = rng.random(size=(3, 2))
    rho0 = 1.4
    st = OmfState.initial(W0, rho0=rho0)
    from sbmm.quadform import FactorQuad
    g = FactorQuad(A=st.A, B=st.B, C=st.C, anchor=W0, L=rho0, rho=rho0)
    for _ in range(10):
        W = rng.normal(size=(3, 2))
        assert g.value(W) == pytest.approx(
            0.5 * rho0 * float(np.sum((W - W0) ** 2)), abs=1e-10)


# ---------------------------------------------------------------------------
# stacked losses: one code solve for a stack of samples


def _code_boxes(r, b, rng):
    # dim r (shared by every column) and dim r*b (one bound per code entry)
    return [BoxSet.uniform(r, 0.0, 1.0),
            BoxSet(np.zeros(r * b), rng.uniform(0.5, 2.0, size=r * b))]


@pytest.mark.parametrize("r", [2, 5])  # KKT enumeration / active set
@pytest.mark.parametrize("S", [1, 4])
def test_factor_loss_stack_equals_per_sample(r, S):
    rng = np.random.default_rng(40 + r + S)
    q, d = 6, 3
    X = rng.uniform(0.0, 1.0, size=(S, q, d))
    W = rng.uniform(0.0, 1.0, size=(q, r))
    for code_set in _code_boxes(r, d, rng):
        values, grads, H = factor_loss(X, W, 0.05, code_set, tol=1e-12)
        assert values.shape == (S,) and grads.shape == (S, q, r) and H.shape == (S, r, d)
        for s in range(S):
            v, g, h = factor_loss(X[s], W, 0.05, code_set, tol=1e-12)
            assert isinstance(v, float)
            assert values[s] == pytest.approx(v, rel=1e-12)
            np.testing.assert_allclose(grads[s], g, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(H[s], h, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("r", [2, 5])
@pytest.mark.parametrize("S", [1, 3])
def test_cpdl_loss_stack_equals_per_sample(r, S):
    rng = np.random.default_rng(50 + r + S)
    dims, b = (3, 2), 2
    X = rng.uniform(0.0, 1.0, size=(S,) + dims + (b,))
    U = [rng.uniform(0.0, 1.0, size=(I, r)) for I in dims]
    for code_set in _code_boxes(r, b, rng):
        values, grads, H = cpdl_loss(X, U, 0.05, code_set, tol=1e-12)
        assert values.shape == (S,) and H.shape == (S, r, b)
        assert [g.shape for g in grads] == [(S, I, r) for I in dims]
        for s in range(S):
            v, gs, h = cpdl_loss(X[s], U, 0.05, code_set, tol=1e-12)
            assert values[s] == pytest.approx(v, rel=1e-12)
            for g_stack, g in zip(grads, gs):
                np.testing.assert_allclose(g_stack[s], g, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(H[s], h, rtol=1e-10, atol=1e-12)


def _counting_solves(monkeypatch):
    """Record each solve_code_lasso call as 'diag' (inside the runners'
    factor_loss/cpdl_loss) or 'step'."""
    import sbmm.bench as bench
    import sbmm.factorize as fz

    calls, inside = [], []
    solve = fz.solve_code_lasso

    def counted_solve(*args, **kwargs):
        calls.append("diag" if inside else "step")
        return solve(*args, **kwargs)

    monkeypatch.setattr(fz, "solve_code_lasso", counted_solve)
    for name in ("factor_loss", "cpdl_loss"):
        def wrapped(*args, _loss=getattr(bench, name), **kwargs):
            inside.append(1)
            try:
                return _loss(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(bench, name, wrapped)
    return calls


@pytest.mark.parametrize("kind", ["omf", "omf_sub", "cpdl"])
def test_runner_solves_one_code_problem_per_step_and_checkpoint(monkeypatch, kind):
    from sbmm.bench import run_cpdl_diagnostics, run_omf_diagnostics
    from sbmm.schedule import WeightSchedule
    from sbmm.stream import MarkovSource, next_sample

    rng = np.random.default_rng(60)
    S, r, lam, n_iters = 4, 2, 0.05, 25
    shape = (3, 2) if kind != "cpdl" else (2, 2, 3)
    P = rng.uniform(0.2, 1.0, size=(S, S))
    src = MarkovSource(P=P / P.sum(axis=1, keepdims=True),
                       emissions=list(rng.uniform(0.0, 1.0, size=(S,) + shape)), seed=3)
    replay = src.clone(seed=3)
    code_set = BoxSet.uniform(r, 0.0, 1.0)
    sched = WeightSchedule.polylog(0.5, 1.5)
    calls = _counting_solves(monkeypatch)
    if kind == "cpdl":
        U0 = [rng.uniform(0.0, 1.0, size=(I, r)) for I in shape[:-1]]
        res = run_cpdl_diagnostics(
            src, sched, U0, lam, [BoxSet.uniform(I * r, 0.0, 1.0) for I in shape[:-1]],
            code_set, n_iters=n_iters, diag_interval=10, keep_trajectory=True)
        loss = lambda x, theta: cpdl_loss(x, theta, lam, code_set)[0]
    else:
        sampler = (lambda g: g.choice(3, size=2, replace=False)) if kind == "omf_sub" else None
        res = run_omf_diagnostics(
            src, sched, rng.uniform(0.0, 1.0, size=(3, r)), lam,
            BoxSet.uniform(3 * r, 0.0, 1.0), code_set, n_iters=n_iters,
            diag_interval=10, row_sampler=sampler, keep_trajectory=True)
        loss = lambda x, theta: factor_loss(x, theta, lam, code_set)[0]
    # checkpoints at n = 10, 20, 25: one stacked diagnostics solve each, and
    # no solve for loss_new or the one-step margins that follow them
    assert calls.count("step") == n_iters
    assert calls.count("diag") == 3
    assert [m[0] for m in res.prop_margins] == [11, 21]
    # loss_new reuses the step's code: it equals a fresh solve at the
    # previous iterate
    samples = [next_sample(replay)[0] for _ in range(n_iters)]
    for rec in res.records:
        fresh = loss(samples[rec.n - 1], res.trajectory[rec.n - 1])
        assert rec.loss_new == pytest.approx(fresh, rel=1e-12)
