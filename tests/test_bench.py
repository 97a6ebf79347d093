import math
import os

import numpy as np
import pytest

from sbmm.bench import (
    CSV_FIELDS,
    ConfigError,
    DiagnosticsRecord,
    cli_main,
    emit_csv,
    eval_empirical,
    eval_expected,
    iteration_complexity_estimate,
    parse_config,
    read_csv,
    run_experiment,
    run_cpdl_diagnostics,
    run_omf_diagnostics,
    run_sweep,
    sample_loss,
)
from sbmm.engine import SurrogateRecipe
from sbmm.geometry import BoxSet
from sbmm.schedule import WeightSchedule
from sbmm.stream import MarkovSource, make_iid


def sq_recipe():
    return SurrogateRecipe(
        kind="lipschitz", L=1.0,
        loss=lambda x, t: 0.5 * float(np.sum((t - x) ** 2)),
        loss_grad=lambda x, t: (t - x))


def make_record(n, stat=0.1, **kw):
    base = {f: 0.0 for f in CSV_FIELDS}
    base.update(n=n, stat_surr=stat, stat_emp=stat, stat_exp=stat)
    base.update(kw)
    return DiagnosticsRecord(**base)


# ---------------------------------------------------------------------------
# eval_empirical


def test_empirical_single_term():
    recipe = sq_recipe()
    x = np.array([1.0, 2.0])
    theta = np.array([0.0, 0.0])
    v, g = eval_empirical(theta, [x], WeightSchedule.balanced(), 1, recipe)
    ve, ge = sample_loss(recipe, x, theta)
    assert v == ve
    np.testing.assert_array_equal(g, ge)


def test_empirical_closed_form_equals_recursion():
    recipe = sq_recipe()
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=3) for _ in range(40)]
    sched = WeightSchedule.polylog(0.5, 1.5)
    theta = rng.normal(size=3)
    # recursion at fixed theta
    fbar = 0.0
    for n in range(1, 41):
        w = sched.weight_at(n)
        fbar = (1 - w) * fbar + w * sample_loss(recipe, samples[n - 1], theta)[0]
    v, _ = eval_empirical(theta, samples, sched, 40, recipe)
    assert v == pytest.approx(fbar, abs=1e-10)


def test_empirical_balanced_is_arithmetic_mean():
    recipe = sq_recipe()
    rng = np.random.default_rng(1)
    samples = [rng.normal(size=2) for _ in range(25)]
    theta = rng.normal(size=2)
    v, _ = eval_empirical(theta, samples, WeightSchedule.balanced(), 25, recipe)
    mean = np.mean([sample_loss(recipe, x, theta)[0] for x in samples])
    assert v == pytest.approx(mean, abs=1e-12)


def test_empirical_gradient_fd():
    recipe = sq_recipe()
    rng = np.random.default_rng(2)
    samples = [rng.normal(size=3) for _ in range(10)]
    sched = WeightSchedule.balanced()
    theta = rng.normal(size=3)
    _, g = eval_empirical(theta, samples, sched, 10, recipe)
    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        vp, _ = eval_empirical(theta + e, samples, sched, 10, recipe)
        vm, _ = eval_empirical(theta - e, samples, sched, 10, recipe)
        assert g[i] == pytest.approx((vp - vm) / (2 * h), rel=1e-4, abs=1e-8)


def test_empirical_factor_gradient_fd():
    # Danskin gradient of the optimal-code loss, skipping degenerate points
    # where two warm starts disagree
    q, r, d = 3, 2, 2
    rng = np.random.default_rng(3)
    code_set = BoxSet.uniform(r, -5.0, 5.0)
    recipe = SurrogateRecipe(kind="factor", lam=0.0, code_set=code_set,
                             shape=(q, d), rank=r, solver_tol=1e-12)
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
    _, g = eval_empirical(theta, samples, WeightSchedule.balanced(), 4, recipe)
    h = 1e-5
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        vp, _ = eval_empirical(theta + e, samples, WeightSchedule.balanced(), 4, recipe)
        vm, _ = eval_empirical(theta - e, samples, WeightSchedule.balanced(), 4, recipe)
        fd = (vp - vm) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_empirical_short_log_error():
    with pytest.raises(ValueError):
        eval_empirical(np.zeros(2), [], WeightSchedule.balanced(), 1, sq_recipe())


def test_empirical_lln_smoke():
    # i.i.d. + balanced weights: the empirical loss at a fixed theta drifts
    # toward the expected loss as n grows (9 of 10 seeds)
    recipe = sq_recipe()
    theta = np.array([0.2, -0.1])
    emissions = [np.array([1.0, 0.0]), np.array([-1.0, 0.5])]
    weights = np.array([0.6, 0.4])
    f_exp = sum(w * sample_loss(recipe, e, theta)[0]
                for w, e in zip(weights, emissions))
    wins = 0
    for seed in range(10):
        src = make_iid(weights, emissions, seed=seed)
        from sbmm.stream import next_sample
        vals = []
        run_mean = 0.0
        for n in range(1, 10_001):
            x, _ = next_sample(src)
            run_mean += (sample_loss(recipe, x, theta)[0] - run_mean) / n
            if n in (100, 10_000):
                vals.append(abs(run_mean - f_exp))
        if vals[1] < vals[0]:
            wins += 1
    assert wins >= 9


# ---------------------------------------------------------------------------
# eval_expected


def test_expected_single_state():
    recipe = sq_recipe()
    src = make_iid(np.array([1.0]), [np.array([0.3, 0.7])])
    theta = np.array([1.0, -1.0])
    v, g = eval_expected(theta, src, recipe)
    ve, ge = sample_loss(recipe, src.emissions[0], theta)
    assert v == pytest.approx(ve, abs=1e-12)
    np.testing.assert_allclose(g, ge, atol=1e-12)


def test_expected_two_thirds_one_third():
    recipe = sq_recipe()
    P = np.array([[0.9, 0.1], [0.2, 0.8]])  # pi = (2/3, 1/3)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    src = MarkovSource(P=P, emissions=[e1, e2])
    theta = np.array([0.5, 0.5])
    v, _ = eval_expected(theta, src, recipe)
    expect = (2 / 3) * sample_loss(recipe, e1, theta)[0] \
        + (1 / 3) * sample_loss(recipe, e2, theta)[0]
    assert v == pytest.approx(expect, abs=1e-10)


def test_expected_gradient_fd():
    recipe = sq_recipe()
    src = make_iid(np.array([0.5, 0.5]), [np.ones(2), -np.ones(2)])
    theta = np.array([0.3, -0.6])
    _, g = eval_expected(theta, src, recipe)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        vp, _ = eval_expected(theta + e, src, recipe)
        vm, _ = eval_expected(theta - e, src, recipe)
        assert g[i] == pytest.approx((vp - vm) / (2 * h), rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# iteration complexity


def test_complexity_infinite_eps_is_first_record():
    recs = [make_record(n) for n in (10, 20, 30)]
    assert iteration_complexity_estimate(recs, math.inf) == 10


def test_complexity_not_reached():
    recs = [make_record(n, stat=1.0) for n in (10, 20)]
    assert iteration_complexity_estimate(recs, 1e-6) == "not reached"


def test_complexity_first_crossing():
    recs = [make_record(10, stat=1.0), make_record(20, stat=0.5),
            make_record(30, stat=0.1), make_record(40, stat=0.01)]
    # squared measure <= eps
    assert iteration_complexity_estimate(recs, 0.25) == 20
    assert iteration_complexity_estimate(recs, 0.0101) == 30


def test_complexity_monotone_in_eps():
    rng = np.random.default_rng(4)
    stats = np.sort(rng.random(20))[::-1]
    recs = [make_record(10 * (i + 1), stat=s) for i, s in enumerate(stats)]
    prev = None
    for eps in [1e-3, 1e-2, 1e-1, 0.5, 1.0, math.inf]:
        got = iteration_complexity_estimate(recs, eps)
        if got == "not reached":
            continue
        if prev is not None:
            assert got <= prev
        prev = got


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
    recipe = SurrogateRecipe(kind="factor", lam=lam, code_set=code_set,
                             shape=(q, d), rank=r, solver_tol=1e-10)
    samples = [emissions[s] for s in states]
    W_final = result.final.W
    v, _ = eval_empirical(W_final.ravel(), samples, sched, n_iters, recipe)
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
                mode=mode, rho0=1.0, n_iters=n_iters, diag_interval=5)
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
], ids=["diag_interval", "n_iters", "row_sample", "row_sample_above_q", "app_kind",
        "mode", "cpdl_c1", "cpdl_theta0", "omf_row_sample", "theta0_missing",
        "theta0_shape", "theta0_outside_box"])
def test_parse_config_range_checks(tmp_path, capsys, extra, key):
    np.savetxt(tmp_path / "theta_3x3.csv", np.full((3, 3), 0.5), delimiter=",")
    np.savetxt(tmp_path / "theta_outside.csv", [[0.5, 0.5], [0.5, 1.5], [0.5, 0.5]],
               delimiter=",")
    p = write_cfg(tmp_path, extra=extra.format(tmp=tmp_path))
    line = 10 + extra.count("\n") - 1
    with pytest.raises(ConfigError, match=rf"{p}:{line}: {key} = "):
        parse_config(p)
    assert cli_main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:{line}: {key} = " in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    "blocks.partition = full\n", "blocks.selection = cyclic\n", "blocks.m = 7\n",
    "solver.max_iters = 3\n", "engine.eps_cap = -1\n", "app.minibatch = 99\n",
])
def test_parse_config_rejects_keys_nothing_reads(tmp_path, extra):
    p = write_cfg(tmp_path, extra=extra)
    with pytest.raises(ConfigError, match=rf"{p}:10: unknown key"):
        parse_config(p)


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


@pytest.mark.parametrize("threads", ["two", "0", "-1", "1.5"])
def test_run_sweep_rejects_bad_thread_count(tmp_path, monkeypatch, threads):
    cfg = parse_config(write_cfg(tmp_path))
    monkeypatch.setenv("SBMM_THREADS", threads)
    with pytest.raises(ConfigError, match="SBMM_THREADS"):
        run_sweep(cfg, [1], out_dir=tmp_path)


def test_run_sweep_parallel_deterministic(tmp_path, monkeypatch):
    cfg = parse_config(write_cfg(tmp_path))
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    d1.mkdir(), d2.mkdir()
    monkeypatch.setenv("SBMM_THREADS", "2")
    run_sweep(cfg, [1, 2, 3], out_dir=d1)
    monkeypatch.setenv("SBMM_THREADS", "1")
    run_sweep(cfg, [1, 2, 3], out_dir=d2)
    for s in (1, 2, 3):
        fa = d1 / f"run_seed{s}.csv"
        fb = d2 / f"run_seed{s}.csv"
        assert fa.read_bytes() == fb.read_bytes()


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
