import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmm.bench import (
    CSV_FIELDS,
    ConfigError,
    DiagnosticsRecord,
    cli_main,
    emit_csv,
    parse_config,
    read_csv,
    run_experiment,
    run_cpdl_diagnostics,
    run_omf_diagnostics,
    run_sweep,
)
from sbmm.factorize import factor_loss, factor_loss_lipschitz_bound
from sbmm.geometry import BoxSet
from sbmm.schedule import WeightSchedule
from sbmm.stream import MarkovSource, make_iid
from sbmm.subsolver import SubsolverError

from oracles import eager_audit_c1, eval_empirical


def sq_loss(x, t):
    """(value, gradient) of 0.5 ||t - x||^2."""
    return 0.5 * float(np.sum((t - x) ** 2)), t - x


def factor_loss_flat(lam, code_set, shape, tol):
    """(value, gradient) of the optimal-code factorization loss at a flat
    (q, r) dictionary."""
    def loss(X, theta):
        v, g, _ = factor_loss(X, theta.reshape(shape), lam, code_set, tol=tol)
        return v, g.ravel()
    return loss


def make_record(n, stat=0.1, **kw):
    base = {f: 0.0 for f in CSV_FIELDS}
    base.update(n=n, stat_surr=stat, stat_emp=stat, stat_exp=stat)
    base.update(kw)
    return DiagnosticsRecord(**base)


# ---------------------------------------------------------------------------
# eval_empirical


def test_empirical_single_term():
    x = np.array([1.0, 2.0])
    theta = np.array([0.0, 0.0])
    v, g = eval_empirical(theta, [x], WeightSchedule.balanced(), 1, sq_loss)
    ve, ge = sq_loss(x, theta)
    assert v == ve
    np.testing.assert_array_equal(g, ge)


def test_empirical_closed_form_equals_recursion():
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=3) for _ in range(40)]
    sched = WeightSchedule.polylog(0.5, 1.5)
    theta = rng.normal(size=3)
    # recursion at fixed theta
    fbar = 0.0
    for n in range(1, 41):
        w = sched.weight_at(n)
        fbar = (1 - w) * fbar + w * sq_loss(samples[n - 1], theta)[0]
    v, _ = eval_empirical(theta, samples, sched, 40, sq_loss)
    assert v == pytest.approx(fbar, abs=1e-10)


def test_empirical_balanced_is_arithmetic_mean():
    rng = np.random.default_rng(1)
    samples = [rng.normal(size=2) for _ in range(25)]
    theta = rng.normal(size=2)
    v, _ = eval_empirical(theta, samples, WeightSchedule.balanced(), 25, sq_loss)
    mean = np.mean([sq_loss(x, theta)[0] for x in samples])
    assert v == pytest.approx(mean, abs=1e-12)


def test_empirical_gradient_fd():
    rng = np.random.default_rng(2)
    samples = [rng.normal(size=3) for _ in range(10)]
    sched = WeightSchedule.balanced()
    theta = rng.normal(size=3)
    _, g = eval_empirical(theta, samples, sched, 10, sq_loss)
    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        vp, _ = eval_empirical(theta + e, samples, sched, 10, sq_loss)
        vm, _ = eval_empirical(theta - e, samples, sched, 10, sq_loss)
        assert g[i] == pytest.approx((vp - vm) / (2 * h), rel=1e-4, abs=1e-8)


def test_empirical_factor_gradient_fd():
    # Danskin gradient of the optimal-code loss, skipping degenerate points
    # where two warm starts disagree
    q, r, d = 3, 2, 2
    rng = np.random.default_rng(3)
    code_set = BoxSet.uniform(r, -5.0, 5.0)
    loss = factor_loss_flat(0.0, code_set, (q, r), 1e-12)
    samples = [rng.random(size=(q, d)) for _ in range(4)]
    theta = (rng.random(size=(q, r)) + 0.5).ravel()
    from sbmm.subsolver import solve_code_lasso
    for X in samples:
        W = theta.reshape(q, r)
        H1, _ = solve_code_lasso(X, W, 0.0, code_set, tol=1e-12)
        H2, _ = solve_code_lasso(X, W, 0.0, code_set, tol=1e-12,
                                 H0=np.full((r, d), 2.0))
        if np.abs(H1 - H2).max() > 1e-6:
            pytest.skip("degenerate code solution")
    _, g = eval_empirical(theta, samples, WeightSchedule.balanced(), 4, loss)
    h = 1e-5
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        vp, _ = eval_empirical(theta + e, samples, WeightSchedule.balanced(), 4, loss)
        vm, _ = eval_empirical(theta - e, samples, WeightSchedule.balanced(), 4, loss)
        fd = (vp - vm) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_empirical_short_log_error():
    with pytest.raises(ValueError):
        eval_empirical(np.zeros(2), [], WeightSchedule.balanced(), 1, sq_loss)


def test_empirical_lln_smoke():
    # i.i.d. + balanced weights: the empirical loss at a fixed theta drifts
    # toward the expected loss as n grows (9 of 10 seeds)
    theta = np.array([0.2, -0.1])
    emissions = [np.array([1.0, 0.0]), np.array([-1.0, 0.5])]
    weights = np.array([0.6, 0.4])
    f_exp = sum(w * sq_loss(e, theta)[0]
                for w, e in zip(weights, emissions))
    wins = 0
    for seed in range(10):
        src = make_iid(weights, emissions, seed=seed)
        from sbmm.stream import next_sample
        vals = []
        run_mean = 0.0
        for n in range(1, 10_001):
            x, _ = next_sample(src)
            run_mean += (sq_loss(x, theta)[0] - run_mean) / n
            if n in (100, 10_000):
                vals.append(abs(run_mean - f_exp))
        if vals[1] < vals[0]:
            wins += 1
    assert wins >= 9


# ---------------------------------------------------------------------------
# grouped empirical loss in the runners


def test_grouped_empirical_matches_closed_form():
    # replay the chain to recover the state sequence, then compare the
    # runner's grouped fbar with the explicit weighted sum over the history
    lam = 0.05
    q, r, d = 3, 2, 2
    rng = np.random.default_rng(5)
    emissions = [rng.random(size=(q, d)) for _ in range(2)]
    weights = np.array([0.5, 0.5])
    src = make_iid(weights, emissions, seed=11)
    replay = src.clone(seed=11)
    sched = WeightSchedule.balanced()
    W0 = rng.random(size=(q, r))
    dict_box = BoxSet.nonneg(q * r, upper=1.0)
    code_set = BoxSet.nonneg(r, upper=5.0)
    n_iters = 30
    result = run_omf_diagnostics(src, sched, W0, lam, dict_box, code_set,
                                 mode="c2", c_prime=1.0, n_iters=n_iters,
                                 diag_interval=n_iters, solver_tol=1e-10)
    from sbmm.stream import next_sample
    states = [next_sample(replay)[1] for _ in range(n_iters)]
    loss = factor_loss_flat(lam, code_set, (q, r), 1e-10)
    samples = [emissions[s] for s in states]
    W_final = result.final.W
    v, _ = eval_empirical(W_final.ravel(), samples, sched, n_iters, loss)
    rec = result.records[-1]
    assert rec.n == n_iters
    assert rec.fbar == pytest.approx(v, rel=1e-8, abs=1e-10)


def test_runner_minima_non_increasing():
    rng = np.random.default_rng(6)
    q, r, d = 3, 2, 2
    src = make_iid(np.array([0.5, 0.5]),
                   [rng.random(size=(q, d)) for _ in range(2)], seed=0)
    result = run_omf_diagnostics(
        src, WeightSchedule.balanced(), rng.random(size=(q, r)), 0.05,
        BoxSet.nonneg(q * r, upper=1.0), BoxSet.nonneg(r, upper=5.0),
        n_iters=60, diag_interval=5, solver_tol=1e-9)
    for col in ("min_comp_emp", "min_comp_exp", "min_stat_surr",
                "min_stat_emp", "min_stat_exp"):
        vals = [getattr(rec, col) for rec in result.records]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    # and gaps/measures are nonnegative
    for rec in result.records:
        for col in ("gap_emp", "gap_exp", "ggap_emp", "ggap_exp",
                    "stat_surr", "stat_emp", "stat_exp"):
            assert getattr(rec, col) >= 0.0


@pytest.mark.parametrize("kind, mode", [("omf", "c2"), ("omf", "c1"), ("cpdl", "c2")])
def test_runner_audits_count_a_faulty_step(monkeypatch, kind, mode):
    # the last step returns a faulty iterate: the step reversed, which goes
    # uphill on the averaged surrogate, or a jump of 1 in every entry, which
    # leaves the C2 radius or breaks the C1 inequality; the audit that
    # watches for the fault counts it exactly once.  The [-5, 5] box keeps
    # both faulty iterates feasible, and the C1 runs' weight of 1e-3 keeps
    # the C1 bound w_n * R_bound below the jump.
    import sbmm.bench as bench

    rng = np.random.default_rng(61)
    n_iters, r, lam = 20, 2, 0.05
    shape = (3, 2) if kind == "omf" else (2, 2, 3)
    P = rng.uniform(0.2, 1.0, size=(2, 2))
    emissions = list(rng.uniform(0.0, 1.0, size=(2,) + shape))
    W0 = [rng.uniform(0.0, 1.0, size=(I, r)) for I in shape[:-1]]
    code_set = BoxSet.uniform(r, 0.0, 1.0)
    schedule = WeightSchedule.constant(1e-3) if mode == "c1" else WeightSchedule.polylog(0.5, 1.5)
    step_name = "omf_step" if kind == "omf" else "cpdl_step"

    def run():
        src = MarkovSource(P=P / P.sum(axis=1, keepdims=True), emissions=emissions, seed=4)
        if kind == "omf":
            return run_omf_diagnostics(
                src, schedule, W0[0], lam, BoxSet.uniform(3 * r, -5.0, 5.0), code_set,
                mode=mode, n_iters=n_iters, diag_interval=5)
        return run_cpdl_diagnostics(
            src, schedule, W0, lam, [BoxSet.uniform(I * r, -5.0, 5.0) for I in shape[:-1]],
            code_set, n_iters=n_iters, diag_interval=5)

    def faulty(fault):
        real = getattr(bench, step_name)

        def step(x, prev, *args, **kwargs):
            res = real(x, prev, *args, **kwargs)
            calls.append(1)
            if len(calls) == n_iters:
                if kind == "omf":
                    res.W = fault(prev, res.W)
                else:
                    res.U = [fault(Pk, Uk) for Pk, Uk in zip(prev, res.U)]
            return res
        calls = []
        return step

    counters = ("monotonicity_violations", "step_bound_violations", "c1_bound_violations")
    clean = run()
    assert [getattr(clean, c) for c in counters] == [0, 0, 0]
    jump_counter = "c1_bound_violations" if mode == "c1" else "step_bound_violations"
    for fault, counter in ((lambda Pk, Xk: 2.0 * Pk - Xk, "monotonicity_violations"),
                           (lambda Pk, Xk: Pk + 1.0, jump_counter)):
        with monkeypatch.context() as m:
            m.setattr(bench, step_name, faulty(fault))
            res = run()
        assert getattr(res, counter) == 1, (fault, counter)
    if kind == "cpdl":  # CPDL runs are never stacked
        return

    # a stack of three OMF runs: a faulty step of member 1 is tallied on
    # member 1 alone, and the other members' runs do not change
    def run_stack():
        srcs = [MarkovSource(P=P / P.sum(axis=1, keepdims=True), emissions=emissions, seed=s)
                for s in (4, 5, 6)]
        return run_omf_diagnostics(
            srcs, schedule, np.stack([W0[0]] * 3), lam, BoxSet.uniform(3 * r, -5.0, 5.0),
            code_set, mode=mode, n_iters=n_iters, diag_interval=5,
            rng=[np.random.default_rng(s) for s in range(3)])

    def faulty_member(fault):
        real = bench.omf_step

        def step(x, prev, *args, **kwargs):
            res = real(x, prev, *args, **kwargs)
            calls.append(1)
            if len(calls) == n_iters:
                res.W[1] = fault(prev[1], res.W[1])
            return res
        calls = []
        return step

    clean = run_stack()
    assert [[getattr(res, c) for c in counters] for res in clean] == [[0, 0, 0]] * 3
    for fault, counter in ((lambda Pk, Xk: 2.0 * Pk - Xk, "monotonicity_violations"),
                           (lambda Pk, Xk: Pk + 1.0, jump_counter)):
        with monkeypatch.context() as m:
            m.setattr(bench, "omf_step", faulty_member(fault))
            stack = run_stack()
        assert [getattr(res, counter) for res in stack] == [0, 1, 0], (fault, counter)
        for j in (0, 2):
            assert stack[j].records == clean[j].records
            assert [getattr(stack[j], c) for c in counters] == [0, 0, 0]


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 2, 2)], ids=["2modes", "3modes"])
def test_cpdl_run_hands_its_flat_dictionary_to_the_next_step(tmp_path, monkeypatch, shape):
    # the runner's surrogate builds the flat dictionary out_product(U) of the
    # U the run carries, and the next cpdl_step takes it as D_prev: the run
    # writes the CSV, tallies and final factors of one whose steps build it
    # again, with one out_product call fewer on every step after the first
    import sbmm.bench as bench
    import sbmm.factorize as factorize

    rng = np.random.default_rng(29)
    n_iters, r = 30, 2
    P = rng.uniform(0.2, 1.0, size=(2, 2))
    emissions = list(rng.uniform(0.0, 1.0, size=(2,) + shape))
    U0 = [rng.uniform(0.0, 1.0, size=(I, r)) for I in shape[:-1]]
    real_product, real_step, calls = factorize.out_product, bench.cpdl_step, []

    def counted(U):
        calls.append(None)
        return real_product(U)
    monkeypatch.setattr(factorize, "out_product", counted)
    monkeypatch.setattr(bench, "out_product", counted)

    def run(name):
        calls.clear()
        src = MarkovSource(P=P / P.sum(axis=1, keepdims=True), emissions=emissions, seed=3)
        res = run_cpdl_diagnostics(src, WeightSchedule.polylog(0.5, 1.5), U0, 0.05,
                                   [BoxSet.uniform(I * r, 0.0, 1.0) for I in shape[:-1]],
                                   BoxSet.uniform(r, 0.0, 1.0), n_iters=n_iters,
                                   diag_interval=5)
        emit_csv(res.records, tmp_path / name)
        return res, len(calls)

    reused, n_reused = run("reused.csv")
    monkeypatch.setattr(bench, "cpdl_step",
                        lambda *args, D_prev=None, **kwargs: real_step(*args, **kwargs))
    rebuilt, n_rebuilt = run("rebuilt.csv")
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "rebuilt.csv").read_bytes()
    assert reused.prop_margins == rebuilt.prop_margins
    for c in ("monotonicity_violations", "step_bound_violations"):
        assert getattr(reused, c) == getattr(rebuilt, c) == 0
    assert [U.tobytes() for U in reused.final.U] == [U.tobytes() for U in rebuilt.final.U]
    assert n_rebuilt - n_reused == n_iters - 1


@pytest.mark.parametrize("kind", ["omf_stack", "cpdl"])
def test_solver_errors_name_the_step_and_the_member_or_mode(tmp_path, monkeypatch, capsys, kind):
    # a block solve whose objective rises at step 7 (of member 1 of a
    # 3-seed OMF stack, or of CPDL's mode 1) raises SubsolverError naming
    # the step and the member or the mode, chained to the solver's own
    # error; sbmm run prints it on one line
    import sbmm.factorize as factorize
    import sbmm.subsolver as subsolver

    real_solve, real_ball, calls = factorize.solve_block_quadratic, subsolver._box_qp_ball, []
    per_step = 1 if kind == "omf_stack" else 2  # a CPDL step solves each of its 2 modes

    def worst(G, C, box, center, radius, tol, first=None):
        # member 1's rows, or the mode's, at the worst corner of the [0, 1]
        # box: its objective rises from the anchor (the ball's center)
        monkeypatch.setattr(subsolver, "_box_qp_ball", real_ball)
        X = real_ball(G, C, box, center, radius, tol, first)
        j = 1 if G.ndim == 3 else Ellipsis
        X[j] = np.where(center[j] @ G[j] - C[j] > 0.0, 1.0, 0.0)
        return X

    def solve(*args, **kwargs):
        calls.append(None)
        if len(calls) == 7 * per_step:  # step 7: the stack's solve, or its last mode's (1)
            monkeypatch.setattr(subsolver, "_box_qp_ball", worst)
        return real_solve(*args, **kwargs)
    monkeypatch.setattr(factorize, "solve_block_quadratic", solve)
    if kind == "omf_stack":
        with pytest.raises(SubsolverError) as info:
            run_sweep(shipped_cfg(tmp_path, "omf_markov"), [0, 1, 2], out_dir=tmp_path / "s")
        assert str(info.value).startswith("step 7: ")
        assert "stack member 1" in str(info.value)
        assert type(info.value.__cause__) is SubsolverError
        return
    shipped_cfg(tmp_path, "cpdl")
    assert cli_main(["run", str(tmp_path / "cpdl.cfg"), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: step 7: mode 1: block solve increased the objective\n"


def test_omf_runner_refuses_a_surrogate_of_other_statistics(monkeypatch):
    # the OMF audits read the surrogate the step returns; one built on the
    # previous statistics instead of the updated ones is refused, not audited
    import dataclasses

    import sbmm.bench as bench
    from sbmm.quadform import FactorQuad

    rng = np.random.default_rng(62)
    P = rng.uniform(0.2, 1.0, size=(2, 2))
    src = MarkovSource(P=P / P.sum(axis=1, keepdims=True),
                       emissions=list(rng.uniform(0.0, 1.0, size=(2, 3, 2))), seed=4)
    real = bench.omf_step

    def step(x, W_prev, A_prev, B_prev, *args, **kwargs):
        res = real(x, W_prev, A_prev, B_prev, *args, **kwargs)
        return dataclasses.replace(
            res, quad=FactorQuad(A_prev, B_prev, kwargs["C_prev"], W_prev))
    monkeypatch.setattr(bench, "omf_step", step)
    with pytest.raises(RuntimeError, match="statistics"):
        run_omf_diagnostics(src, WeightSchedule.polylog(0.5, 1.5),
                            rng.uniform(0.0, 1.0, size=(3, 2)), 0.05,
                            BoxSet.uniform(6, 0.0, 1.0), BoxSet.uniform(2, 0.0, 1.0),
                            n_iters=3, diag_interval=1)


@pytest.mark.parametrize("mode", ["c2", "c1"])
def test_omf_run_computes_each_quantity_once(monkeypatch, mode):
    # the audits read the surrogate the step built and minimized: one
    # FactorQuad per step, and one eigvalsh for each C1 step whose step bound
    # the Rayleigh bound rho <= 2 min_i A_ii + 1e-12 max |A| does not settle
    # (a C2 run reads no eigenvalue); the block solve's certificate
    # is that surrogate's value at the previous dictionary; and a ball search
    # opens with its box solve at mu = 0 and bounds its multiplier only when
    # that solve leaves the ball
    import sbmm.bench as bench
    import sbmm.subsolver as subsolver
    from sbmm.quadform import FactorQuad

    counts = {"quad": 0, "eig": 0, "steps": 0, "searches": 0, "binding": 0, "bound": 0,
              "unsettled": 0}
    real_init, real_eig = FactorQuad.__post_init__, np.linalg.eigvalsh
    real_step, real_search = bench.omf_step, subsolver.ball_multiplier_search
    real_mu_hi = subsolver._mu_hi

    def init(self):
        counts["quad"] += 1
        real_init(self)

    def eig(*args, **kwargs):
        counts["eig"] += 1
        return real_eig(*args, **kwargs)

    def step(x, W_prev, A_prev, B_prev, w_n, *args, **kwargs):
        res = real_step(x, W_prev, A_prev, B_prev, w_n, *args, **kwargs)
        counts["steps"] += 1
        assert res.g_prev == res.quad.value(W_prev)
        assert res.g_new == res.quad.value(res.W) == res.value_at(res.W)
        s = float(np.linalg.norm(res.W - W_prev))
        A = res.quad.A
        rho_up = 2.0 * float(np.diag(A).min()) + 1e-12 * float(np.abs(A).max())
        counts["unsettled"] += not (0.5 * rho_up * s * s
                                    <= w_n * R_bound * s + 1e-7 * (1.0 + abs(res.g_prev)))
        return res

    def search(solve, G, C, box, center, radius, *args):
        first = []

        def recorded(mu):
            box_solve = solve(mu)

            def run(*solve_args):
                out = box_solve(*solve_args)
                if not first:
                    assert mu == 0.0
                    first.append(float(np.linalg.norm(out[0] - center)) > radius)
                return out
            return run
        out = real_search(recorded, G, C, box, center, radius, *args)
        counts["searches"] += 1
        counts["binding"] += first[0]
        return out

    def bound(*args):
        counts["bound"] += 1
        return real_mu_hi(*args)

    monkeypatch.setattr(FactorQuad, "__post_init__", init)
    monkeypatch.setattr(np.linalg, "eigvalsh", eig)
    monkeypatch.setattr(bench, "omf_step", step)
    monkeypatch.setattr(subsolver, "ball_multiplier_search", search)
    monkeypatch.setattr(subsolver, "_mu_hi", bound)
    rng = np.random.default_rng(5)
    P = rng.uniform(0.2, 1.0, size=(2, 2))
    src = MarkovSource(P=P / P.sum(axis=1, keepdims=True),
                       emissions=list(rng.uniform(0.0, 1.0, size=(2, 3, 2))), seed=2)
    dict_box, code_set = BoxSet.uniform(6, 0.0, 1.0), BoxSet.uniform(2, 0.0, 1.0)
    R_bound = factor_loss_lipschitz_bound(src.emissions, dict_box, code_set, 2)
    n_iters = 60  # with c_prime = 0.3 the ball binds on some of the C2 steps
    run_omf_diagnostics(src, WeightSchedule.polylog(0.5, 1.5), rng.uniform(0.0, 1.0, (3, 2)),
                        0.05, dict_box, code_set,
                        mode=mode, c_prime=0.3, n_iters=n_iters, diag_interval=10)
    assert counts["steps"] == counts["quad"] == n_iters
    assert counts["eig"] == (counts["unsettled"] if mode == "c1" else 0)
    if mode == "c1":  # no trust region, so no ball search
        assert counts["searches"] == counts["bound"] == 0
    else:
        assert counts["searches"] == n_iters
        assert 0 < counts["binding"] < n_iters
        assert counts["bound"] == counts["binding"]


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_c1_audit_counts_what_the_eager_audit_counts(data):
    # C1's audit settles each member's step bound and stationarity maximum
    # by a cheap upper bound first; on random chains, emissions and starts,
    # single runs and stacks of 2-4, omf and omf_sub, with jumps near the
    # step bound's threshold on some steps (so that the Rayleigh bound
    # leaves them undecided and the run reads rho), every counter,
    # c1_stat_max and CSV equal those of the eager audit (tests/oracles.py)
    import tempfile

    import sbmm.bench as bench

    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    K = data.draw(st.sampled_from([None, 2, 3, 4]), label="K")
    kind = data.draw(st.sampled_from(["omf", "omf_sub"]), label="kind")
    constant = data.draw(st.booleans(), label="constant weights")
    n_iters = 24
    jumps = data.draw(st.dictionaries(st.integers(2, n_iters), st.floats(0.25, 4.0),
                                      min_size=1, max_size=4), label="jumps")
    rng = np.random.default_rng(seed)
    S, q, d, r = int(rng.integers(2, 4)), int(rng.integers(2, 5)), int(rng.integers(1, 4)), 2
    P = rng.uniform(0.05, 1.0, size=(S, S))
    emissions = list(rng.uniform(0.0, 1.0, size=(S, q, d)))
    dict_box, code_set = BoxSet.uniform(q * r, 0.0, 1.0), BoxSet.uniform(r, 0.0, 1.0)
    schedule = WeightSchedule.constant(1e-3) if constant else WeightSchedule.polylog(0.5, 1.5)
    R = factor_loss_lipschitz_bound(emissions, dict_box, code_set, r)
    members = 1 if K is None else K
    W0 = rng.uniform(0.0, 1.0, size=(members, q, r))
    k = int(rng.integers(1, q))
    sampler = (lambda g: g.choice(q, size=k, replace=False)) if kind == "omf_sub" else None

    def run(audit):
        # a jump of u moves every entry t toward the box's centre, a step
        # of about u times the threshold 2 w_n R / rho of the step bound,
        # with rho about 1 (A starts at I / 2)
        def step(x, W_prev, A_prev, B_prev, w_n, *args, **kwargs):
            res = real(x, W_prev, A_prev, B_prev, w_n, *args, **kwargs)
            calls.append(1)
            if len(calls) in jumps:
                t = min(0.4, jumps[len(calls)] * 2.0 * w_n * R / math.sqrt(q * r))
                res.W = np.where(res.W < 0.5, res.W + t, res.W - t)
            return res
        calls, real, eig = [], bench.omf_step, [0]

        def eigvalsh(*args, **kwargs):
            eig[0] += 1
            return real_eig(*args, **kwargs)
        real_eig = np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as m:
            m.setattr(bench, "omf_step", step)
            m.setattr(bench, "_audit_c1", audit)
            m.setattr(np.linalg, "eigvalsh", eigvalsh)
            srcs = [MarkovSource(P=P / P.sum(axis=1, keepdims=True), emissions=emissions,
                                 seed=seed % 1000 + j) for j in range(members)]
            rngs = [np.random.default_rng(seed % 1000 + j) for j in range(members)]
            out = run_omf_diagnostics(
                srcs[0] if K is None else srcs, schedule, W0[0] if K is None else W0, 0.05,
                dict_box, code_set, mode="c1", n_iters=n_iters, diag_interval=5,
                row_sampler=sampler, rng=rngs[0] if K is None else rngs)
        results = [out] if K is None else out
        with tempfile.TemporaryDirectory() as tmp:
            csvs = []
            for j, res in enumerate(results):
                emit_csv(res.records, Path(tmp) / f"{j}.csv")
                csvs.append((Path(tmp) / f"{j}.csv").read_bytes())
        audits = [(res.monotonicity_violations, res.step_bound_violations,
                   res.c1_bound_violations, res.c1_stat_max.hex()) for res in results]
        return audits, csvs, eig[0]

    audits, csvs, reads = run(bench._audit_c1)
    want, want_csvs, eager_reads = run(eager_audit_c1)
    assert audits == want and csvs == want_csvs
    assert eager_reads == n_iters and reads <= n_iters
    if any(a[2] for a in want):  # a violation is seen only through rho
        assert reads >= 1
    if constant and max(jumps.values()) >= 2.0:
        # a jump of twice the threshold leaves the step bound undecided
        assert reads >= 1


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip(tmp_path):
    recs = [make_record(10, stat=0.5, w_n=0.1, fbar=1.2345678901234567),
            make_record(20, stat=0.25, w_n=0.05, fbar=-3.14)]
    p = tmp_path / "out.csv"
    emit_csv(recs, p)
    cols = read_csv(p)
    assert list(cols) == CSV_FIELDS
    np.testing.assert_array_equal(cols["n"], [10, 20])
    assert cols["fbar"][0] == 1.2345678901234567  # 17 digits survive
    assert cols["stat_surr"][1] == 0.25


def test_csv_empty_is_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    emit_csv([], p)
    text = p.read_text()
    assert text == ",".join(CSV_FIELDS) + "\n"
    cols = read_csv(p)
    assert all(v.size == 0 for v in cols.values())


# ---------------------------------------------------------------------------
# config parsing


def write_cfg(tmp_path, name="run.cfg", extra="", omit=()):
    trans = tmp_path / "trans.csv"
    trans.write_text("0.5,0.5\n")
    emis = tmp_path / "emis.csv"
    rng = np.random.default_rng(0)
    rows = rng.random(size=(2, 6))
    np.savetxt(emis, rows, delimiter=",")
    lines = {
        "engine.n_iters": "engine.n_iters = 20",
        "app.rank": "app.rank = 2",
        "app.tensor_shape": "app.tensor_shape = 3,2",
        "stream.transition": f"stream.transition = {trans}",
        "stream.emissions": f"stream.emissions = {emis}",
        "constraint": "constraint.nonneg = true\nconstraint.upper = 1.0",
        "output": f"output = {tmp_path / 'out.csv'}",
    }
    for k in omit:
        lines.pop(k, None)
    body = "\n".join(lines.values()) + "\n" + extra
    p = tmp_path / name
    p.write_text("# comment line\n" + body)
    return p


def test_parse_config_minimal_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    assert cfg["engine.n_iters"] == 20
    assert cfg["schedule.kind"] == "balanced"  # default filled
    assert cfg["solver.tol"] == 1e-8
    assert cfg["constraint.nonneg"] is True


def test_parse_config_unknown_key(tmp_path):
    p = write_cfg(tmp_path, extra="bogus.key = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(p)


def test_parse_config_malformed_line_number(tmp_path):
    p = write_cfg(tmp_path, extra="this is not a pair\n")
    with pytest.raises(ConfigError, match=r":10:"):
        parse_config(p)


def test_parse_config_missing_required(tmp_path):
    p = write_cfg(tmp_path, omit=("app.rank",))
    with pytest.raises(ConfigError, match="app.rank"):
        parse_config(p)


def test_parse_config_type_error(tmp_path):
    p = write_cfg(tmp_path, extra="solver.tol = notafloat\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(p)


@pytest.mark.parametrize("extra, key", [
    ("engine.diag_interval = 0\n", "engine.diag_interval"),
    ("engine.n_iters = 0\n", "engine.n_iters"),
    ("app.kind = omf_sub\napp.row_sample = 0\n", "app.row_sample"),
    ("app.kind = omf_sub\napp.row_sample = 5\n", "app.row_sample"),
    ("app.kind = omf_sub\napp.row_sample = 1e-9\n", "app.row_sample"),
    ("app.kind = nmf\n", "app.kind"),
    ("engine.mode = c3\n", "engine.mode"),
    # keys the chosen app does not read
    ("app.kind = cpdl\nengine.mode = c1\n", "engine.mode"),
    ("app.kind = cpdl\nengine.theta0 = /nonexistent.csv\n", "engine.theta0"),
    ("app.row_sample = 2\n", "app.row_sample"),
    # an OMF start must be a readable (q, r) matrix inside the box
    ("engine.theta0 = {tmp}/missing.csv\n", "engine.theta0"),
    ("engine.theta0 = {tmp}/theta_3x3.csv\n", "engine.theta0"),
    ("engine.theta0 = {tmp}/theta_outside.csv\n", "engine.theta0"),
    ("engine.theta0 = {tmp}/theta_nan.csv\n", "engine.theta0"),
    # what used to stop the run without a line
    ("app.tensor_shape = 3,2,1\n", "app.tensor_shape"),
    ("app.tensor_shape = 3,0\n", "app.tensor_shape"),
    ("app.kind = cpdl\napp.tensor_shape = 6\n", "app.tensor_shape"),
    ("app.rank = 0\n", "app.rank"),
    ("constraint.nonneg = false\nconstraint.lower = 2.0\n", "constraint.lower"),
    ("constraint.upper = -0.5\n", "constraint.upper"),
    ("constraint.nonneg = false\nconstraint.lower = -1e308\nconstraint.upper = 1e308\n",
     "constraint.upper"),
    ("stream.kind = markvo\n", "stream.kind"),
    ("schedule.kind = polylgo\n", "schedule.kind"),
    ("schedule.kind = custom\n", "schedule.kind"),
    ("schedule.kind = custom\nschedule.values = 0.5,x\n", "schedule.values"),
    ("schedule.kind = custom\nschedule.values = 0.5,0.5,0.5\n", "schedule.values"),
    ("schedule.kind = constant\nschedule.alpha = 2\n", "schedule.alpha"),
    # keys the run does not read with the other keys' values
    ("constraint.lower = 0.5\n", "constraint.lower"),
    ("schedule.kind = polylog\nschedule.alpha = 0.3\n", "schedule.alpha"),
    ("schedule.kind = constant\nschedule.beta = 0.5\n", "schedule.beta"),
    ("schedule.delta = 1.5\n", "schedule.delta"),
    ("schedule.values = 0.5,x\n", "schedule.values"),
    # values that used to run, or stop the run, with no line
    ("engine.c_prime = -1\n", "engine.c_prime"),
    ("engine.c_prime = nan\n", "engine.c_prime"),
    ("engine.c_prime = inf\n", "engine.c_prime"),
    ("app.lambda = -1\n", "app.lambda"),
    ("app.lambda = nan\n", "app.lambda"),
    ("solver.tol = -1\n", "solver.tol"),
    ("solver.tol = nan\n", "solver.tol"),
    ("stream.seed = -3\n", "stream.seed"),
    ("engine.seed = -1\n", "engine.seed"),
    ("app.kind = omf_sub\napp.row_sample = nan\n", "app.row_sample"),
    ("constraint.nonneg = false\nconstraint.lower = -inf\n", "constraint.lower"),
    ("schedule.kind = polylog\nschedule.beta = nan\n", "schedule.beta"),
    ("schedule.kind = polylog\nschedule.beta = inf\n", "schedule.beta"),
    ("schedule.kind = polylog\nschedule.delta = nan\n", "schedule.delta"),
    ("schedule.kind = polylog\nschedule.delta = inf\n", "schedule.delta"),
    # finite exponents whose w_n underflows to 0 within the validation horizon
    ("schedule.kind = polylog\nschedule.beta = 400\n", "schedule.beta"),
    ("schedule.kind = polylog\nschedule.delta = 2000\n", "schedule.delta"),
    # bounds or ranks whose run must overflow: a run that wrote nan fields,
    # one that stopped with "A must be symmetric", and one that `sbmm
    # validate` passed and numpy refused
    ("constraint.upper = 1e120\n", "constraint.upper"),
    ("app.kind = cpdl\napp.tensor_shape = 2,1,3\nconstraint.upper = 1e160\n",
     "constraint.upper"),
    ("app.rank = 100000000000000000000\n", "app.rank"),
    # an l1 weight whose code solves' certified gap must overflow: a run
    # that printed numpy's overflow warning
    ("app.lambda = 1e308\n", "app.lambda"),
], ids=["diag_interval", "n_iters", "row_sample", "row_sample_above_q", "row_sample_tiny",
        "app_kind",
        "mode", "cpdl_c1", "cpdl_theta0", "omf_row_sample", "theta0_missing",
        "theta0_shape", "theta0_outside_box", "theta0_nan", "tensor_shape_arity",
        "tensor_shape_zero",
        "cpdl_tensor_shape", "rank", "empty_box", "nonneg_empty_box", "box_width_overflow",
        "stream_kind",
        "schedule_kind", "schedule_values_missing", "schedule_values", "schedule_values_short",
        "schedule_alpha",
        "nonneg_lower", "polylog_alpha", "constant_beta", "balanced_delta", "balanced_values",
        "c_prime_negative", "c_prime_nan", "c_prime_inf", "lambda_negative", "lambda_nan",
        "tol_negative", "tol_nan", "stream_seed", "engine_seed", "row_sample_nan",
        "lower_infinite", "beta_nan", "beta_inf", "delta_nan", "delta_inf",
        "beta_underflow", "delta_underflow", "omf_bound_overflow", "cpdl_bound_overflow",
        "rank_overflow", "lambda_overflow"])
def test_parse_config_range_checks(tmp_path, capsys, extra, key):
    np.savetxt(tmp_path / "theta_3x3.csv", np.full((3, 3), 0.5), delimiter=",")
    np.savetxt(tmp_path / "theta_outside.csv", [[0.5, 0.5], [0.5, 1.5], [0.5, 0.5]],
               delimiter=",")
    np.savetxt(tmp_path / "theta_nan.csv", [[0.5, 0.5], [0.5, np.nan], [0.5, 0.5]],
               delimiter=",")
    p = write_cfg(tmp_path, extra=extra.format(tmp=tmp_path))
    line = 10 + extra.count("\n") - 1
    with pytest.raises(ConfigError, match=rf"{p}:{line}: {key} = "):
        parse_config(p)
    assert cli_main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:{line}: {key} = " in err and "Traceback" not in err


def test_cli_run_emission_shape_mismatch(tmp_path, capsys):
    # the emission bank is read when the run starts; a row of the wrong size
    # names the app.tensor_shape line
    p = write_cfg(tmp_path, extra="app.tensor_shape = 3,3\n")
    assert cli_main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:10: app.tensor_shape = 3,3 needs 9 entries" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["run", "validate"])
@pytest.mark.parametrize("extra, key, says", [
    ("stream.transition = 0.3 0.3 0.4\n", "stream.transition", "need one emission per state"),
    ("stream.kind = markov\nstream.transition = {tmp}/p_3x2.csv\n", "stream.transition",
     "P must be square"),
    ("stream.kind = markov\nstream.transition = {tmp}/p_nan.csv\n", "stream.transition",
     "must be finite"),
    ("stream.transition = nan 1\n", "stream.transition", "must be a probability vector"),
    ("stream.transition = 0.5 x\n", "stream.transition", "could not convert"),
    ("stream.emissions = {tmp}/e_nan.csv\n", "stream.emissions", "not finite"),
    ("stream.emissions = {tmp}/missing.csv\n", "stream.emissions", "not a CSV matrix"),
], ids=["iid_weights_vs_emissions", "transition_not_square", "transition_nan", "weights_nan",
        "weights_unreadable", "emissions_nan", "emissions_missing"])
def test_cli_stream_inputs_name_their_line(tmp_path, capsys, cmd, extra, key, says):
    np.savetxt(tmp_path / "p_3x2.csv", np.full((3, 2), 0.5), delimiter=",")
    np.savetxt(tmp_path / "p_nan.csv", [[np.nan, 1.0], [0.5, 0.5]], delimiter=",")
    np.savetxt(tmp_path / "e_nan.csv", [[0.5] * 6, [0.5] * 5 + [np.nan]], delimiter=",")
    p = write_cfg(tmp_path, extra=extra.format(tmp=tmp_path))
    line = 10 + extra.count("\n") - 1
    assert cli_main([cmd, str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:{line}: {key} = " in err and says in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    "blocks.partition = full\n", "blocks.selection = cyclic\n", "blocks.m = 7\n",
    "solver.max_iters = 3\n", "engine.eps_cap = -1\n", "app.minibatch = 99\n",
])
def test_parse_config_rejects_keys_nothing_reads(tmp_path, extra):
    p = write_cfg(tmp_path, extra=extra)
    with pytest.raises(ConfigError, match=rf"{p}:10: unknown key"):
        parse_config(p)


def test_run_checks_each_csv_directory_before_the_first_step(tmp_path, capsys, monkeypatch):
    # a CSV path in a directory that does not exist fails before any step
    # runs, naming the output line, the --out path or, for a sweep, the
    # label line
    import sbmm.bench as bench

    calls = []
    step = bench.omf_step
    monkeypatch.setattr(bench, "omf_step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    missing = tmp_path / "missing"
    p = write_cfg(tmp_path, extra=f"output = {missing / 'out.csv'}\n")
    assert cli_main(["run", str(p)]) == 1
    q = write_cfg(tmp_path, name="ok.cfg")
    assert cli_main(["run", str(q), "--out", str(missing / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{p}:10: output = {missing / 'out.csv'}: directory {missing} does not exist" in err
    assert f"{missing / 'x.csv'}: directory {missing} does not exist" in err
    assert "Traceback" not in err
    sweep = write_cfg(tmp_path, name="sweep.cfg", extra="label = missing/run\n")
    with pytest.raises(ConfigError, match=rf"{sweep}:10: label = missing/run: directory "):
        run_sweep(parse_config(sweep), [0, 1], out_dir=tmp_path / "sweep")
    # so does a CSV path that names an existing directory
    taken = tmp_path / "taken"
    taken.mkdir()
    p = write_cfg(tmp_path, name="taken.cfg", extra=f"output = {taken}\n")
    assert cli_main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:10: output = {taken}: {taken} is a directory" in err and "Traceback" not in err
    assert calls == []


def test_parse_config_omf_sub_needs_row_sample(tmp_path):
    p = write_cfg(tmp_path, extra="app.kind = omf_sub\n")
    with pytest.raises(ConfigError, match=r"app.row_sample = 0.0 must be > 0"):
        parse_config(p)


# ---------------------------------------------------------------------------
# experiment driver and CLI


def test_run_experiment_writes_csv(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    out = tmp_path / "diag.csv"
    result = run_experiment(cfg, out_path=str(out))
    assert out.exists()
    cols = read_csv(out)
    assert cols["n"].size == len(result.records) > 0


def test_run_experiment_deterministic(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg, seed=3, out_path=str(a))
    run_experiment(cfg, seed=3, out_path=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_experiment_subsampled_and_cpdl(tmp_path):
    p = write_cfg(tmp_path, extra="app.kind = omf_sub\napp.row_sample = 2\n")
    res = run_experiment(parse_config(p), out_path=str(tmp_path / "s.csv"))
    assert res.records
    # cpdl over a (3, 2) two-mode minibatch shape: dims (3,), batch 2
    p2 = write_cfg(tmp_path, name="c.cfg", extra="app.kind = cpdl\n")
    res2 = run_experiment(parse_config(p2), out_path=str(tmp_path / "c.csv"))
    assert res2.records


def test_run_experiment_fractional_row_sample(tmp_path):
    # p = 0.3 of q = 3 rows draws an empty subset with probability 0.343;
    # empty draws are redrawn until one is not
    p = write_cfg(tmp_path, extra="app.kind = omf_sub\napp.row_sample = 0.3\n"
                                  "engine.n_iters = 200\n")
    res = run_experiment(parse_config(p), out_path=str(tmp_path / "s.csv"))
    assert res.records[-1].n == 200


def test_run_experiment_reads_theta0(tmp_path):
    # a plain OMF run from a start file draws nothing from the engine seed
    np.savetxt(tmp_path / "theta.csv", np.full((3, 2), 0.5), delimiter=",")
    p = write_cfg(tmp_path, extra=f"engine.theta0 = {tmp_path / 'theta.csv'}\n")
    q = write_cfg(tmp_path, name="random.cfg")
    outs = [tmp_path / f"{name}.csv" for name in ("a", "b", "c")]
    for cfg, seed, out in ((p, 1, outs[0]), (p, 2, outs[1]), (q, 1, outs[2])):
        assert cli_main(["run", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "sbmm", "validate", str(write_cfg(tmp_path))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.rstrip().endswith("ok")
    assert proc.stderr == ""


ROOT = Path(__file__).resolve().parents[1]


def shipped_cfg(tmp_path, name, extra=""):
    """A shipped config with absolute input paths and a 120-step run."""
    text = (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
    p = tmp_path / f"{name}.cfg"
    p.write_text(text.replace("configs/", f"{ROOT / 'configs'}/")
                 + "\nengine.n_iters = 120\nengine.diag_interval = 20\n" + extra,
                 encoding="utf-8")
    return parse_config(p)


def rank5_cfg(tmp_path):
    """A 60-step rank-5 OMF run on a 16-state chain of 8x6 samples: its code
    and dictionary solves take the active-set path, and the ball binds."""
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(16), size=16)
    np.savetxt(tmp_path / "transition.csv", P / P.sum(axis=1, keepdims=True), delimiter=",")
    np.savetxt(tmp_path / "emissions.csv", rng.uniform(0.0, 1.0, size=(16, 48)), delimiter=",")
    p = tmp_path / "rank5.cfg"
    p.write_text(
        "schedule.kind = polylog\nconstraint.lower = 0.0\nconstraint.upper = 1.0\n"
        f"stream.kind = markov\nstream.transition = {tmp_path / 'transition.csv'}\n"
        f"stream.emissions = {tmp_path / 'emissions.csv'}\nstream.seed = 5\n"
        "engine.n_iters = 60\nengine.diag_interval = 10\n"
        "app.rank = 5\napp.lambda = 0.05\napp.tensor_shape = 8,6\n", encoding="utf-8")
    return parse_config(p)


@pytest.mark.parametrize("name, extra", [
    ("omf_markov", ""), ("omf_markov", "engine.mode = c1\n"), ("omf_iid", ""),
    ("omf_iid", "engine.c_prime = 0.02\n"), ("omf_sub", ""), ("omf_sub", "engine.mode = c1\n"),
    ("omf_sub", "app.row_sample = 0.5\n"), ("rank5", "")],
    ids=["markov", "markov_c1", "iid", "iid_ball_binds", "sub", "sub_c1", "sub_fraction", "rank5"])
def test_run_sweep_stack_matches_run_experiment(tmp_path, name, extra):
    # run_sweep runs an OMF config's seeds as one stack in lockstep; each
    # member's CSV, tallies and final dictionary are those run_experiment
    # gives at its seed, whatever the stack's size and order (at rank 5
    # too, where each member runs its own active-set solves and ball search)
    cfg = rank5_cfg(tmp_path) if name == "rank5" else shipped_cfg(tmp_path, name, extra)
    label, alone = cfg["label"], {}
    for seeds in ([4], [0, 1, 2], [5, 4, 3, 2, 1, 0], [7, 6, 5, 4, 3, 2, 1, 0]):
        out = tmp_path / f"k{len(seeds)}"
        results = run_sweep(cfg, seeds, out_dir=out)
        assert list(results) == seeds
        for s in seeds:
            one = tmp_path / f"one_seed{s}.csv"
            if s not in alone:
                alone[s] = run_experiment(cfg, seed=s, out_path=str(one))
            assert (out / f"{label}_seed{s}.csv").read_bytes() == one.read_bytes(), (seeds, s)
            res, ref = results[s], alone[s]
            assert res.prop_margins == ref.prop_margins and res.c1_stat_max == ref.c1_stat_max
            for c in ("monotonicity_violations", "step_bound_violations", "c1_bound_violations"):
                assert getattr(res, c) == getattr(ref, c)
            assert res.final.W.tobytes() == ref.final.W.tobytes()


@pytest.mark.parametrize("name, extra", [("omf_markov", ""), ("omf_sub", "engine.mode = c1\n")],
                         ids=["omf_c2", "omf_sub_c1"])
def test_a_stack_of_one_gives_the_single_runs_bytes(tmp_path, name, extra):
    # run_omf_diagnostics given one-element lists (a stack of one, which
    # run_sweep never builds: one seed takes the single run's path) returns
    # the single run's CSV, tallies, margins and final statistics byte for
    # byte, from the same source, start, rng and row draws
    import sbmm.bench as bench

    cfg = shipped_cfg(tmp_path, name, extra)
    q, r, (lo, up) = cfg.tensor_shape[0], cfg["app.rank"], bench._bounds(cfg)
    sampler = None
    if cfg["app.kind"] == "omf_sub":
        k = int(cfg["app.row_sample"])
        sampler = lambda g: bench._choose_rows(g, q, k)
    runs = []
    for stacked in (False, True):
        rng = np.random.default_rng(7)
        W0 = rng.uniform(lo, up, size=(q, r))
        source = bench._build_source(cfg)
        out = run_omf_diagnostics(
            [source] if stacked else source, bench._build_schedule(cfg),
            W0[None] if stacked else W0, cfg["app.lambda"], BoxSet.uniform(q * r, lo, up),
            BoxSet.uniform(r, lo, up), mode=cfg["engine.mode"], c_prime=cfg["engine.c_prime"],
            n_iters=cfg["engine.n_iters"], diag_interval=cfg["engine.diag_interval"],
            row_sampler=sampler, rng=[rng] if stacked else rng)
        res = out[0] if stacked else out
        emit_csv(res.records, tmp_path / f"{stacked}.csv")
        runs.append((res, (tmp_path / f"{stacked}.csv").read_bytes()))
    (one, csv_one), (stack, csv_stack) = runs
    assert csv_stack == csv_one and len(one.records) == 6
    assert stack.prop_margins == one.prop_margins and stack.c1_stat_max == one.c1_stat_max
    for c in ("monotonicity_violations", "step_bound_violations", "c1_bound_violations"):
        assert getattr(stack, c) == getattr(one, c)
    for field in ("W", "A", "B"):
        assert getattr(stack.final, field).tobytes() == getattr(one.final, field).tobytes()
    assert (stack.final.C, stack.final.eps_sum) == (one.final.C, one.final.eps_sum)


def test_row_draws_are_the_ones_rng_choice_draws():
    # the omf_sub row sampler draws, from one rng stream, the rows
    # g.choice(q, size=k, replace=False) draws, in order, and leaves the
    # stream where choice leaves it: on 1-40 rows, k from 1 to q, with the
    # stream's 32- and 64-bit draws in between; a numpy whose choice
    # draws otherwise fails here
    import sbmm.bench as bench

    gen = np.random.default_rng(37)
    for trial in range(400):
        q = int(gen.integers(1, 41)) if trial % 50 else 10001
        k = int(gen.integers(1, q + 1))
        a, b = np.random.default_rng(trial), np.random.default_rng(trial)
        for step in range(4):
            assert list(bench._choose_rows(a, q, k)) == b.choice(q, size=k, replace=False).tolist()
            if step % 2:
                assert a.integers(7) == b.integers(7)
            assert a.random() == b.random()


def _record_code_starts(monkeypatch):
    """Per run: the chain states drawn, each step's codes, each checkpoint
    code solve's starts (with the number of steps before it) and the code
    solves each checkpoint's loss call makes."""
    import sbmm.bench as bench
    import sbmm.factorize as fz

    drawn, codes, starts, solves = [], [], [], []
    real_sample, real_step, real_loss = bench.next_sample, bench.omf_step, bench.factor_loss
    real_solve = fz.solve_code_lasso

    def sample(src):
        x, y = real_sample(src)
        drawn.append(y)
        return x, y

    def step(*args, **kwargs):
        res = real_step(*args, **kwargs)
        codes.append(res.H)
        return res

    def loss(*args, **kwargs):
        starts.append((len(codes), np.array(kwargs["H0"])))  # a copy: the run's is a view
        solves.append(0)
        inside.append(1)
        try:
            return real_loss(*args, **kwargs)
        finally:
            inside.pop()

    def solve(*args, **kwargs):
        if inside:
            solves[-1] += 1
        return real_solve(*args, **kwargs)
    inside = []
    monkeypatch.setattr(bench, "next_sample", sample)
    monkeypatch.setattr(bench, "omf_step", step)
    monkeypatch.setattr(bench, "factor_loss", loss)
    monkeypatch.setattr(fz, "solve_code_lasso", solve)
    return drawn, codes, starts, solves


def test_checkpoint_code_solves_start_from_each_states_last_code(tmp_path, monkeypatch):
    # a run's checkpoint code solve starts each chain state's columns from
    # the code its member last solved for that state, and a state not drawn
    # yet from the default start (all nan): in a single run, and per member of
    # a stack, whose members' states are solved in one factor_loss call and
    # one solve_code_lasso call per checkpoint; at rank 5 (the active-set
    # path, on 16 states, some not drawn by the first checkpoint) and at rank
    # 2 (the closed form's first pattern, on omf_markov's 2 states)
    drawn, codes, starts, solves = _record_code_starts(monkeypatch)
    for cfg, S, n_iters in ((rank5_cfg(tmp_path), 16, 60),
                            (shipped_cfg(tmp_path, "omf_markov"), 2, 120)):
        for seeds in ([4], [4, 5, 6]):
            for record in (drawn, codes, starts, solves):
                record.clear()
            if len(seeds) == 1:
                run_experiment(cfg, seed=seeds[0], out_path=str(tmp_path / "one.csv"))
            else:
                run_sweep(cfg, seeds, out_dir=tmp_path / "sweep")
            K = len(seeds)
            assert len(codes) == n_iters and len(starts) == 6 and solves == [1] * 6
            for steps, H0 in starts:
                assert H0.shape[:-2] == ((S,) if K == 1 else (K, S))
                for j, member in enumerate(H0[None] if K == 1 else H0):
                    last = {}
                    for i in range(steps):
                        last[drawn[i * K + j]] = codes[i] if K == 1 else codes[i][j]
                    for y, h in enumerate(member):
                        assert (np.isnan(h).all() if y not in last
                                else np.array_equal(h, last[y])), (steps, j, y)
            blocks = [h for _, H0 in starts for h in H0.reshape((-1,) + H0.shape[-2:])]
            assert any(not np.isnan(h).any() for h in blocks)
            if S == 16:
                assert any(np.isnan(h).all() for h in blocks)


def test_cpdl_step_code_solves_start_from_each_states_last_code(tmp_path, monkeypatch):
    # a CPDL step's code solve starts from the code the run last solved for
    # the chain state it draws, and from the default start (all nan) for a
    # state not drawn yet, as an OMF step's does
    import sbmm.bench as bench

    drawn, steps = [], []
    real_sample, real_step = bench.next_sample, bench.cpdl_step

    def sample(src):
        x, y = real_sample(src)
        drawn.append(y)
        return x, y

    def step(*args, **kwargs):
        res = real_step(*args, **kwargs)
        steps.append((np.array(kwargs["H0"]), res.H))  # a copy: the run's is a view
        return res
    monkeypatch.setattr(bench, "next_sample", sample)
    monkeypatch.setattr(bench, "cpdl_step", step)
    cfg = shipped_cfg(tmp_path, "cpdl")
    run_experiment(cfg, seed=3, out_path=str(tmp_path / "cpdl.csv"))
    assert len(steps) == len(drawn) == 120
    last = {}
    for y, (H0, H) in zip(drawn, steps):
        assert np.isnan(H0).all() if y not in last else np.array_equal(H0, last[y]), y
        last[y] = H
    assert len(last) > 1 and sum(not np.isnan(H0).any() for H0, _ in steps) >= 100


def test_rank2_run_enumerates_few_candidates(tmp_path, monkeypatch):
    # a 200-step omf_markov run (rank 2): nearly every code and block row
    # keeps its start's KKT pattern, so the closed form evaluates fewer
    # than 2 candidates per step beyond the one it verifies per row (an
    # enumeration evaluates 9 per row, 45 a step)
    import sbmm.subsolver as subsolver

    real, count = subsolver._pair_objective, [0]

    def counted(*args):
        obj = real(*args)
        count[0] += np.size(obj)
        return obj
    monkeypatch.setattr(subsolver, "_pair_objective", counted)
    cfg = shipped_cfg(tmp_path, "omf_markov", "engine.n_iters = 200\n")
    run_experiment(cfg, seed=0, out_path=str(tmp_path / "r2.csv"))
    assert 0 < count[0] < 2 * 200, count[0]


@pytest.mark.parametrize("field", ["eps", "g_new"])
@pytest.mark.parametrize("seeds", [[0], [0, 1]], ids=["single", "stack"])
def test_run_refuses_a_non_finite_certificate(tmp_path, monkeypatch, capsys, field, seeds):
    # a nan certificate passes every audit's comparison (nan < 0 and nan >
    # x are false), so the runner refuses it, naming the step, the member
    # and the certificate; sbmm run prints one error line, no traceback,
    # and writes no CSV
    import sbmm.bench as bench

    real, calls = bench.omf_step, []

    def step(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 7:  # the last member's certificate at step 7
            bad = np.array(getattr(res, field), dtype=float)
            if bad.ndim:
                bad[-1] = math.nan
            setattr(res, field, bad if bad.ndim else math.nan)
        return res
    monkeypatch.setattr(bench, "omf_step", step)
    cfg = shipped_cfg(tmp_path, "omf_markov")
    what = "code solve's certified gap" if field == "eps" else "surrogate's value at the new"
    member = len(seeds) - 1
    if len(seeds) == 1:
        out = tmp_path / "x.csv"
        assert cli_main(["run", str(tmp_path / "omf_markov.cfg"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()
    else:
        with pytest.raises(SubsolverError) as info:
            run_sweep(cfg, seeds, out_dir=tmp_path / "sweep")
        err = str(info.value)
        assert not list((tmp_path / "sweep").glob("*.csv"))
    assert f"step 7, member {member}: the {what}" in err and "nan" in err


def test_run_sweep_matches_run_experiment(tmp_path):
    cfg = parse_config(write_cfg(tmp_path))
    results = run_sweep(cfg, [1, 2, 3], out_dir=tmp_path / "sweep")
    assert list(results) == [1, 2, 3]
    for s in (1, 2, 3):
        one = tmp_path / f"one_seed{s}.csv"
        run_experiment(cfg, seed=s, out_path=str(one))
        assert (tmp_path / "sweep" / f"run_seed{s}.csv").read_bytes() == one.read_bytes()


def test_cli_run_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli_main(["run", str(write_cfg(tmp_path)), "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "seed -1" in err and "Traceback" not in err
    assert not out.exists()


def run_sweep_demo(tmp_path, *seeds):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_demo.py"),
                           str(write_cfg(tmp_path)), "--seeds", *seeds,
                           "--out-dir", str(tmp_path / "sweep")],
                          capture_output=True, text=True, env=env)


def test_sweep_demo_rejects_a_negative_seed(tmp_path):
    proc = run_sweep_demo(tmp_path, "0", "-1")
    assert proc.returncode == 1
    assert "seed -1" in proc.stderr and "Traceback" not in proc.stderr
    assert not list((tmp_path / "sweep").glob("*.csv"))  # no run starts


def test_sweep_demo_prints_its_throughput(tmp_path):
    proc = run_sweep_demo(tmp_path, "0", "1", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[0] for line in lines[1:4]] == ["0", "1", "2"]
    assert lines[-1].startswith("wall us per seed-step: ")
    assert float(lines[-1].rsplit(" ", 1)[-1]) > 0.0


@pytest.mark.parametrize("script", ["sweep_demo.py", "envelope_demo.py", "fuzz_config.py",
                                    "call_counts.py"])
def test_scripts_import_their_own_checkouts_sbmm(tmp_path, script):
    # a script puts its own checkout's src first on the path: it runs with no
    # PYTHONPATH from any directory, and a copy of it outside a checkout
    # refuses the sbmm that the path still finds elsewhere
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: "), proc.stderr
    (tmp_path / "scripts").mkdir()
    copy = tmp_path / "scripts" / script
    copy.write_bytes((ROOT / "scripts" / script).read_bytes())
    proc = subprocess.run([sys.executable, str(copy), "--help"], capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 1 and "sbmm was imported from" in proc.stderr, proc.stderr
    assert proc.stdout == ""


def test_envelope_demo_prints_its_checkpoints():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "envelope_demo.py"),
                           "--steps", "200"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("chain mixing rate: ")
    assert [line.split()[0] for line in lines[2:]] == ["100", "200"]
    for line in lines[2:]:
        assert all(math.isfinite(float(v)) for v in line.split()[1:])


def _fuzz_values(d):
    """Candidate values, good and bad, for every config key; d holds the
    input files."""
    return {
        "schedule.kind": ["balanced", "polylog", "constant", "custom", "cosine"],
        "schedule.beta": ["0.5", "1", "-1", "nan", "2", "x"],
        "schedule.delta": ["1.5", "0.5", "inf", "-3"],
        "schedule.alpha": ["0.1", "0", "1", "1.5", "nan"],
        "schedule.values": ["0.5,0.25", "1", "", "a,b", "0.5,-1", "2"],
        "constraint.lower": ["-1", "0", "0.5", "1", "nan", "-inf"],
        "constraint.upper": ["1", "0", "-1", "inf", "2"],
        "constraint.nonneg": ["true", "false", "maybe"],
        "solver.tol": ["1e-8", "0", "-1", "nan", "0.5"],
        "stream.kind": ["iid", "markov", "hmm"],
        "stream.transition": [str(d / "trans.csv"), "0.5 0.5", "0.9 0.1; 0.2 0.8", "1 0; 0 1",
                              "0.5 nan", str(d / "missing.csv"), "0.7 0.2"],
        "stream.emissions": [str(d / "emis.csv"), str(d / "emis7.csv"), str(d / "missing.csv"),
                             str(d / "text.csv")],
        "stream.seed": ["0", "3", "-2", "x"],
        "engine.mode": ["c1", "c2", "C1", "c3"],
        "engine.c_prime": ["1", "0.01", "0", "-1", "inf"],
        "engine.n_iters": ["1", "5", "20", "0", "-3", "2.5"],
        "engine.theta0": ["random", str(d / "w0.csv"), str(d / "emis.csv"), str(d / "missing.csv")],
        "engine.diag_interval": ["1", "3", "50", "0"],
        "engine.seed": ["0", "7", "-1"],
        "app.kind": ["omf", "omf_sub", "cpdl", "svd"],
        "app.rank": ["1", "2", "3", "0", "-1"],
        "app.lambda": ["0", "0.05", "1", "-1", "nan"],
        "app.row_sample": ["0", "0.5", "1", "2", "3", "4", "nan", "1.5", "1e-9"],
        "app.tensor_shape": ["3,2", "2,3", "6", "2,1,3", "1,1", "0,2", "a", "3,2,1,1"],
        "output": [str(d / "out.csv")],
        "label": ["run", "sweep"],
    }


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_cli_run_fuzzed_config_exits_cleanly(data):
    # sbmm run on a config whose keys take values from a list of good and
    # bad ones (engine.n_iters <= 20) exits 0 or 1 and never raises past
    # cli_main, so no traceback is printed
    import contextlib
    import io
    import tempfile

    from sbmm.bench import _KEYS

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        rng = np.random.default_rng(0)
        np.savetxt(d / "trans.csv", [[0.5, 0.5]], delimiter=",")
        np.savetxt(d / "emis.csv", rng.random(size=(2, 6)), delimiter=",")
        np.savetxt(d / "emis7.csv", rng.random(size=(2, 7)), delimiter=",")
        np.savetxt(d / "w0.csv", rng.random(size=(3, 2)), delimiter=",")
        (d / "text.csv").write_text("a,b\n", encoding="utf-8")
        values = _fuzz_values(d)
        assert set(values) == set(_KEYS)
        lines = {"engine.n_iters": "5", "app.rank": "2", "app.tensor_shape": "3,2",
                 "stream.transition": str(d / "trans.csv"),
                 "stream.emissions": str(d / "emis.csv"), "output": str(d / "out.csv")}
        for key in data.draw(st.lists(st.sampled_from(sorted(values)), max_size=8, unique=True)):
            lines[key] = data.draw(st.sampled_from(values[key]), label=key)
        cfg = d / "fuzz.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", str(cfg), "--out", str(d / "run.csv")])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (d / "run.csv").exists()


def test_cli_validate_ok(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert cli_main(["validate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "mixing_rate" in out


def test_cli_run_deterministic(tmp_path):
    p = write_cfg(tmp_path)
    a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["run", str(p), "--seed", "7", "--out", str(a)]) == 0
    assert cli_main(["run", str(p), "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_mixing_report(tmp_path, capsys):
    p = write_cfg(tmp_path)
    assert cli_main(["mixing-report", str(p)]) == 0
    out = capsys.readouterr().out
    assert "stationary distribution" in out and "mixing rate" in out


def test_cli_rate_check_synthetic_slope(tmp_path, capsys):
    # running minimum proportional to 1 / cumulative weight: slope -1
    recs = []
    for i in range(1, 60):
        cw = 0.5 * i
        recs.append(make_record(i, cum_weight=cw, min_comp_emp=2.0 / cw))
    p = tmp_path / "syn.csv"
    emit_csv(recs, p)
    assert cli_main(["rate-check", str(p), "--column", "min_comp_emp"]) == 0
    out = capsys.readouterr().out
    slope = float(out.strip().rsplit(" ", 1)[-1])
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_cli_errors_exit_one(tmp_path, capsys):
    assert cli_main(["validate", str(tmp_path / "missing.cfg")]) == 1
    recs = [make_record(1, cum_weight=1.0)]
    p = tmp_path / "x.csv"
    emit_csv(recs, p)
    assert cli_main(["rate-check", str(p), "--column", "nope"]) == 1


@pytest.mark.parametrize("text", ["", "n,min_comp_emp\n1,0.5\n2,0.25\n",
                                  "n,cum_weight,min_comp_emp\n1,0.5\n2,1.0\n",
                                  "n,cum_weight,min_comp_emp\n1,0.5,x\n"],
                         ids=["empty", "no_cum_weight", "short_rows", "text_cell"])
def test_cli_rate_check_malformed_csv_exits_one(tmp_path, capsys, text):
    p = tmp_path / "bad.csv"
    p.write_text(text, encoding="utf-8")
    assert cli_main(["rate-check", str(p), "--column", "min_comp_emp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(p) in err and "Traceback" not in err
