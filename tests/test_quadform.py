import numpy as np
import pytest

from sbmm.factorize import omf_step
from sbmm.geometry import BoxSet
from sbmm.quadform import FactorQuad
from sbmm.subsolver import solve_code_lasso


# ---------------------------------------------------------------------------
# oracles


def fd_grad(fn, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return g


def factor_value_oracle(A, B, C, W):
    """tr(W A W^T) - 2 tr(W B) + C by explicit index loops."""
    q, r = W.shape
    total = 0.0
    for i in range(q):
        for j in range(r):
            for k in range(r):
                total += W[i, j] * A[j, k] * W[i, k]
    for j in range(r):
        for i in range(q):
            total -= 2.0 * W[i, j] * B[j, i]
    return total + C


# ---------------------------------------------------------------------------
# FactorQuad


def test_factor_value_matches_loop_oracle():
    rng = np.random.default_rng(1)
    r, q = 3, 5
    A = rng.normal(size=(r, r))
    A = A @ A.T
    B = rng.normal(size=(r, q))
    C = 2.5
    g = FactorQuad(A=A, B=B, C=C, anchor=np.zeros((q, r)))
    for _ in range(5):
        W = rng.normal(size=(q, r))
        assert g.value(W) == pytest.approx(factor_value_oracle(A, B, C, W), rel=1e-12)


def test_factor_grad_matches_fd():
    rng = np.random.default_rng(2)
    r, q = 2, 4
    A = rng.normal(size=(r, r))
    A = A @ A.T
    B = rng.normal(size=(r, q))
    g = FactorQuad(A=A, B=B, C=0.0, anchor=np.zeros((q, r)))
    W = rng.normal(size=(q, r))
    got = g.grad(W).ravel()
    want = fd_grad(lambda v: g.value(v.reshape(q, r)), W.ravel())
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_factor_flat_input_equivalent():
    rng = np.random.default_rng(3)
    A = np.eye(2)
    B = rng.normal(size=(2, 3))
    g = FactorQuad(A=A, B=B, C=1.0, anchor=np.zeros((3, 2)))
    W = rng.normal(size=(3, 2))
    assert g.value(W.ravel()) == g.value(W)
    np.testing.assert_array_equal(g.grad(W.ravel()), g.grad(W))


def test_factor_min_eig():
    # rho = 2 lambda_min(A), computed on first read; a stack's come from one
    # batched eigvalsh and its members keep theirs
    A = np.diag([3.0, 0.5])
    g = FactorQuad(A=A, B=np.zeros((2, 2)), C=0.0, anchor=np.zeros((2, 2)))
    assert "rho" not in vars(g)
    assert g.rho == pytest.approx(1.0)
    stack = FactorQuad(A=np.stack([A, np.diag([0.2, 4.0]), np.zeros((2, 2))]),
                       B=np.zeros((3, 2, 2)), C=np.zeros(3), anchor=np.zeros((3, 2, 2)))
    np.testing.assert_allclose(stack.rho, [1.0, 0.4, 0.0])
    np.testing.assert_allclose(stack.members([2, 0]).rho, [0.0, 1.0])


def test_factor_members_are_slices_not_checked_again(monkeypatch):
    # a stack's members are slices of fields its own checks passed: each
    # keeps its bytes, and the symmetry test does not run again
    import sbmm.quadform as quadform

    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 3, 3))
    stack = FactorQuad(A=M @ M.swapaxes(-1, -2), B=rng.normal(size=(4, 3, 5)),
                       C=rng.normal(size=4), anchor=rng.normal(size=(4, 5, 3)))
    calls = []
    monkeypatch.setattr(quadform, "_is_symmetric", lambda A: calls.append(A) or True)
    idx = [3, 1]
    sub = stack.members(idx)
    assert calls == []
    for name in ("A", "B", "C", "anchor"):
        assert getattr(sub, name).tobytes() == getattr(stack, name)[idx].tobytes()
    W = rng.normal(size=(2, 5, 3))
    assert sub.value(W).tobytes() == np.array(
        [FactorQuad(stack.A[j], stack.B[j], float(stack.C[j]), stack.anchor[j]).value(W[i])
         for i, j in enumerate(idx)]).tobytes()


def test_factor_validation_errors():
    # a non-square A, an A asymmetric beyond the tolerance or holding a nan,
    # and a B or an anchor of the wrong shape are refused, single or stacked;
    # an A asymmetric within the tolerance, or whose mirror entries are 0.0
    # and -0.0, is accepted
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    bad_A = [np.ones((2, 3)), np.array([[1.0, 2.0], [0.0, 1.0]]), good + [[0.0, 1e-3], [0, 0]],
             np.array([[np.nan, 0.5], [0.5, 1.0]]), np.array([[1.0, np.nan], [np.nan, 1.0]])]
    for A in bad_A:
        for stack in (False, True):
            A_, B, C, anchor = A, np.zeros((2, 3)), 0.0, np.zeros((3, 2))
            if stack:  # member 1 is the bad one
                A_ = np.stack([good, A] if A.shape == good.shape else [A, A])
                B, C, anchor = np.zeros((2, 2, 3)), np.zeros(2), np.zeros((2, 3, 2))
            with pytest.raises(ValueError):
                FactorQuad(A=A_, B=B, C=C, anchor=anchor)
    with pytest.raises(ValueError, match="B row count"):
        FactorQuad(A=np.eye(2), B=np.zeros((3, 2)), C=0.0, anchor=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="anchor"):
        FactorQuad(A=np.eye(2), B=np.zeros((2, 4)), C=0.0, anchor=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="anchor"):
        FactorQuad(A=np.eye(2), B=np.zeros((2, 4)), C=0.0, anchor=np.zeros((4, 3)))
    for A in (good + [[0.0, 1e-12], [0.0, 0.0]], np.array([[1.0, 0.0], [-0.0, 1.0]]),
              np.eye(5)):
        g = FactorQuad(A=A, B=np.zeros((len(A), 3)), C=0.0, anchor=np.zeros((3, len(A))))
        assert g.A.tobytes() == A.tobytes()
        FactorQuad(A=np.stack([A, A]), B=np.zeros((2, len(A), 3)), C=np.zeros(2),
                   anchor=np.zeros((2, 3, len(A))))


def _corners_and_zeros(rng, shape):
    """Points of shape whose entries are box corners (0 or 1), -0.0 or
    uniform draws, mixed row by row."""
    P = rng.uniform(-1.0, 1.0, size=shape)
    pick = rng.integers(0, 4, size=shape[:-1])
    P[pick == 1] = rng.integers(0, 2, size=P[pick == 1].shape).astype(float)
    P[pick == 2] = -0.0
    return P


@pytest.mark.parametrize("r, K", [(2, None), (2, 3), (5, None), (5, 3)],
                         ids=["r2", "r2_stack", "r5", "r5_stack"])
def test_value_pair_gives_the_bytes_of_the_stacked_value(r, K):
    # value_pair(P, W) reads the two points as they are: a single rank-2
    # quad in Python floats (up to _VALUE_LOOP_ROWS rows in the pair), else
    # through value; either way the bytes value(np.array((P, W))) gives,
    # as two floats for a single quad and two lists of K floats for a stack, on
    # random points, box corners and rows holding -0.0, of 1 to 30 rows
    import sbmm.quadform as quadform

    rng = np.random.default_rng(29)
    for q in range(1, 31):
        for _ in range(6):
            lead = () if K is None else (K,)
            M = rng.normal(size=lead + (r, r))
            g = FactorQuad(M @ M.swapaxes(-1, -2), rng.normal(size=lead + (r, q)),
                           float(rng.normal()) if K is None else rng.normal(size=K),
                           np.zeros(lead + (q, r)))
            P, W = (_corners_and_zeros(rng, lead + (q, r)) for _ in range(2))
            want = g.value(np.array((P, W)))
            got = g.value_pair(P, W)
            if K is None:
                assert [type(v) for v in got] == [float, float]
                assert np.array(got).tobytes() == want.tobytes()
                assert got == [g.value(P), g.value(W)]
            else:
                assert np.array(got).tobytes() == want.tobytes()
    assert quadform._VALUE_LOOP_ROWS < 2 * 30  # both forms were reached


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_stacked_value_pair_gives_each_members_own_bytes(K):
    # a rank-2 stack of 1-4 members with 1-6 rows each: value_pair loops over
    # its members in their Python floats while the pair has at most
    # _VALUE_LOOP_ROWS rows in all, else takes the array form; either way it
    # gives two lists of K Python floats, member j's two values are the
    # bytes of member j's own value_pair, and those of the array form (value
    # of the stacked pair), on random points, box corners and rows holding
    # -0.0
    import sbmm.quadform as quadform

    rng = np.random.default_rng(31 + K)
    for q in range(1, 7):
        for _ in range(8):
            M = rng.normal(size=(K, 2, 2))
            g = FactorQuad(M @ M.swapaxes(-1, -2), rng.normal(size=(K, 2, q)),
                           rng.normal(size=K), np.zeros((K, q, 2)))
            P, W = (_corners_and_zeros(rng, (K, q, 2)) for _ in range(2))
            got = g.value_pair(P, W)
            assert [[type(x) for x in v] for v in got] == [[float] * K] * 2
            assert np.array(got).tobytes() == g.value(np.array((P, W))).tobytes()
            for j in range(K):
                one = FactorQuad(g.A[j], g.B[j], float(g.C[j]), g.anchor[j])
                pair = one.value_pair(P[j], W[j])
                assert np.array(got)[:, j].tobytes() == np.array(pair).tobytes()
                assert pair == [one.value(P[j]), one.value(W[j])]
    assert 2 * 4 * 3 <= quadform._VALUE_LOOP_ROWS < 2 * 4 * 6  # both forms were reached


# ---------------------------------------------------------------------------
# factorization surrogate factory


def _factor_loss_oracle(X, W, lam, code_set):
    H, _ = solve_code_lasso(X, W, lam, code_set, tol=1e-10)
    return float(np.sum((X - W @ H) ** 2)) + lam * float(np.abs(H).sum())


def _sample_surrogate(X, W, lam, code_set, tol=1e-8):
    """The per-sample surrogate at W: with w_n = 1 and zero statistics,
    omf_step's quadratic is exactly it.  Returns the step's code, that
    quadratic and the certified code gap."""
    q, r = W.shape
    res = omf_step(X, W, np.zeros((r, r)), np.zeros((r, q)), 1.0, lam,
                   BoxSet.uniform(q * r, -10.0, 10.0), code_set, tol=tol)
    return res.H, res.quad, res.eps


def test_factor_surrogate_tight_at_anchor():
    rng = np.random.default_rng(6)
    q, r, d = 5, 3, 4
    X = rng.random(size=(q, d))
    W = rng.random(size=(q, r))
    code_set = BoxSet.uniform(r, 0.0, 2.0)
    lam = 0.1
    H, g, eps = _sample_surrogate(X, W, lam, code_set, tol=1e-10)
    loss = float(np.sum((X - W @ H) ** 2)) + lam * float(np.abs(H).sum())
    assert g.value(W) == pytest.approx(loss, rel=1e-10)
    # tight up to the certified code gap
    assert g.value(W) - _factor_loss_oracle(X, W, lam, code_set) <= eps + 1e-9


def test_factor_surrogate_majorizes_loss():
    rng = np.random.default_rng(7)
    q, r, d = 4, 2, 6
    X = rng.random(size=(q, d))
    W0 = rng.random(size=(q, r))
    code_set = BoxSet.uniform(r, 0.0, 3.0)
    lam = 0.05
    _, g, _ = _sample_surrogate(X, W0, lam, code_set, tol=1e-10)
    for _ in range(20):
        W = rng.random(size=(q, r))
        assert g.value(W) >= _factor_loss_oracle(X, W, lam, code_set) - 1e-9


def test_factor_surrogate_curvature_constants():
    rng = np.random.default_rng(8)
    X = rng.random(size=(3, 5))
    W = rng.random(size=(3, 2))
    code_set = BoxSet.uniform(2, 0.0, 1.0)
    H, g, _ = _sample_surrogate(X, W, 0.0, code_set)
    ev = np.linalg.eigvalsh(H @ H.T)
    assert g.rho == pytest.approx(2.0 * max(ev[0], 0.0))


# ---------------------------------------------------------------------------
# averaging


def test_block_strong_convexity_preserved():
    # omf_step averages A_n = (1 - w_n) A_{n-1} + w_n H_n H_n' with H_n H_n'
    # PSD, so the surrogate's strong convexity rho = 2 lambda_min(A) never
    # falls below (1 - w_n) times the last step's, for one run and for each
    # member of a stack of 3; d < r leaves H H' singular, so the bound is tight
    rng = np.random.default_rng(12)
    q, r, d = 4, 3, 2
    box = BoxSet.uniform(q * r, 0.0, 1.0)
    code_set = BoxSet.uniform(r, 0.0, 1.0)
    for lead in ((), (3,)):
        W = rng.uniform(0.2, 0.8, size=lead + (q, r))
        A = np.broadcast_to(np.eye(r), lead + (r, r)).copy()
        B = np.zeros(lead + (r, q))
        C = np.zeros(lead) if lead else 0.0
        rho_prev = np.full(lead, 2.0)
        for n in range(1, 41):
            w_n = (n + 1) ** -0.6
            X = rng.uniform(0.0, 1.0, size=lead + (q, d))
            res = omf_step(X, W, A, B, w_n, 0.05, box, code_set, C_prev=C, radius=w_n)
            rho = np.asarray(res.quad.rho)
            assert np.all(rho >= (1.0 - w_n) * rho_prev - 1e-12), (lead, n)
            W, A, B, C, rho_prev = res.W, res.A, res.B, res.C, rho
