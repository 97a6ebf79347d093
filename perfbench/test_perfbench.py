"""Tests of the benchmark itself: every output check passes a real run and
rejects a wrong one, and tracing leaves sbmm as it found it.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import sbmm  # noqa: E402
import sbmm.bench  # noqa: E402


def real_run(tmp_path, cfg_path, **overrides):
    cfg = sbmm.parse_config(cfg_path)
    cfg.values.update(overrides)
    out = tmp_path / "run.csv"
    res = sbmm.run_experiment(cfg, seed=7, out_path=str(out))
    return checks.problem_from_config(cfg.values), checks.read_diagnostics(out), res.final


@pytest.fixture(autouse=True)
def at_root(monkeypatch, tmp_path):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


@pytest.fixture
def omf(tmp_path):
    return real_run(tmp_path, "configs/omf_markov.cfg", **{"engine.n_iters": 200})


@pytest.fixture
def rank5(tmp_path):
    # the ball binds on this workload, so a wrong radius shows in step_norm
    cfg = run.write_rank5(3, tmp_path)
    return cfg, real_run(tmp_path, cfg, **{"engine.n_iters": 30})


def test_real_runs_pass(omf, rank5, tmp_path):
    assert checks.check_run(*omf) == []
    assert checks.check_run(*rank5[1]) == []
    cpdl = real_run(tmp_path, "configs/cpdl.cfg", **{"engine.n_iters": 100})
    assert checks.check_run(*cpdl) == []


def test_perturbed_final_iterate_fails(omf):
    prob, cols, final = omf
    moved = dataclasses.replace(final, W=np.clip(final.W * 0.999 + 5e-4, 0.0, 1.0))
    fails = checks.check_run(prob, cols, moved)
    assert len(fails) == 1 and "expected loss" in fails[0]


def test_final_iterate_outside_box_fails(omf):
    prob, cols, final = omf
    W = final.W.copy()
    W[0, 0] = prob.up + 1e-9
    fails = checks.check_run(prob, cols, dataclasses.replace(final, W=W))
    assert any("leaves the box" in f for f in fails)


def test_doubled_radius_fails(tmp_path, rank5):
    cfg, _ = rank5
    prob, cols, final = real_run(tmp_path, cfg, **{"engine.n_iters": 30, "engine.c_prime": 2.0})
    assert checks.check_run(dataclasses.replace(prob, c_prime=2.0), cols, final) == []
    fails = checks.check_run(dataclasses.replace(prob, c_prime=1.0), cols, final)
    assert any("trust region" in f for f in fails)


def test_cpdl_step_bound_counts_both_blocks(tmp_path):
    prob, cols, final = real_run(tmp_path, "configs/cpdl.cfg", **{"engine.n_iters": 50})
    assert prob.blocks_per_step == 2
    # two blocks may each move by the radius: sqrt(2) = 1.414 radii in all
    radius = prob.c_prime * cols["w_n"]
    assert checks.check_run(prob, dict(cols, step_norm=1.4 * radius), final) == []
    fails = checks.check_run(prob, dict(cols, step_norm=1.42 * radius), final)
    assert any("trust region" in f for f in fails)


@pytest.mark.parametrize("column, change, message", [
    ("cum_weight", lambda c: c + c[0] * 1e-6, "running sum"),
    ("cum_weight", lambda c: np.concatenate([[c[0]], c[:-1]]), "running sum"),
    ("w_n", lambda w: w * (1 + 1e-9), "schedule gives"),
    ("eps_bar", lambda e: e + 2e-8, "solver.tol"),
    ("f_exp", lambda f: f + 1e-6, "expected loss"),
])
def test_wrong_column_fails(omf, column, change, message):
    prob, cols, final = omf
    cols = dict(cols, **{column: change(cols[column])})
    fails = checks.check_run(prob, cols, final)
    assert fails and all(message in f for f in fails)


def test_surrogate_below_loss_fails(omf):
    prob, cols, final = omf
    cols = dict(cols, gbar_val=cols["fbar"] - 2 * prob.tol)
    assert any("does not majorize" in f for f in checks.check_run(prob, cols, final))


def test_missing_checkpoint_fails(omf):
    prob, cols, final = omf
    cols = {k: v[1:] for k, v in cols.items()}
    assert any("checkpoints" in f for f in checks.check_run(prob, cols, final))


def test_stationary_solves_pi_p():
    rng = np.random.default_rng(1)
    P = rng.dirichlet(np.ones(5), size=5)
    pi = checks.stationary(P)
    assert np.allclose(pi @ P, pi, atol=1e-14) and math.isclose(pi.sum(), 1.0)
    assert np.allclose(checks.stationary(np.array([[0.9, 0.1], [0.2, 0.8]])), [2 / 3, 1 / 3])


@pytest.mark.parametrize("D", [
    np.random.default_rng(2).uniform(0, 1, (4, 2)),
    np.array([[0.7, 0.0], [0.5, 0.0], [1.0, 0.0], [0.8, 0.0]]),  # a collapsed atom
    np.array([[0.7, 0.7], [0.5, 0.5], [1.0, 1.0], [0.8, 0.8]]),  # two equal atoms
])
def test_code_loss_matches_grid_search(D):
    x = np.random.default_rng(3).uniform(0, 1, (4, 1))
    g = np.linspace(0, 1, 401)
    H = np.stack(np.meshgrid(g, g)).reshape(2, -1)
    grid = np.min(np.sum((x - D @ H) ** 2, axis=0) + 0.05 * H.sum(axis=0))
    exact = checks.code_loss(x, D, 0.05, 0.0, 1.0)
    assert exact <= grid + 1e-12 and grid - exact < 1e-4


def test_reference_loss_on_an_active_set_run(tmp_path):
    # a run whose reference was 2.4e-6 too high while BVLS stopped on its
    # relative cost change
    cfg = run.write_rank5(19, tmp_path)
    parsed = sbmm.parse_config(cfg)
    res = sbmm.run_experiment(parsed, seed=19015, out_path=str(tmp_path / "r.csv"))
    prob = checks.problem_from_config(parsed.values)
    assert checks.check_run(prob, checks.read_diagnostics(tmp_path / "r.csv"), res.final) == []


def test_sweep_csv_must_match_serial_run():
    sb = run.import_sbmm()
    wl = run.Workload("sweep_sub_c1", 0, sb)
    wl.cfg.values["engine.n_iters"] = 40
    assert wl.op(0) is not None
    assert wl.check() and wl.failed == 0 and wl.attempted == run.SWEEP_SEEDS
    _, path = wl.sweeps[0]
    path.write_text(path.read_text().replace("1", "2", 1))
    wl.failed = 0
    assert not wl.check() and wl.failed == 1


def test_tracer_counts_one_step_per_step(tmp_path):
    cfg = sbmm.parse_config("configs/omf_markov.cfg")
    cfg.values["engine.n_iters"] = 100
    tracer = layers.Tracer()
    tracer.install()
    try:
        sbmm.bench.run_experiment(cfg, seed=1, out_path=str(tmp_path / "t.csv"))
    finally:
        tracer.remove()
    m = {k: v for k, (v, _) in tracer.per_step(100).items()}
    for name in ("stream.sample.calls", "factorize.step.calls",
                 "subsolver.code_solve.calls", "subsolver.block_solve.calls"):
        assert m[name] == 1.0
    assert m["factorize.step.eig_calls"] == 1.0
    assert m["subsolver.code_solve.cols"] == 2.0
    # checkpoints every 50 steps: 2 states each, plus the observed sample;
    # the one-step check after a checkpoint solves (x, W_prev) again
    assert m["bench.diag.loss_calls"] == pytest.approx((2 * 3 + 1) / 100)
    assert m["bench.diag.code_repeats"] > 0
    assert m["bench.trace.layer_sum_us"] == pytest.approx(tracer.run_us() / 100, rel=1e-2)


def test_tracer_restores_sbmm_and_reports_absent_layers(monkeypatch):
    originals = {(m, a): getattr(sys.modules[m], a)
                 for targets in layers.LAYERS.values() for m, a in targets}
    eig = np.linalg.eigvalsh
    for attr in ("omf_step", "subsampled_omf_step", "cpdl_step"):
        monkeypatch.delattr(sbmm.bench, attr)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["factorize.step"]
        assert sbmm.bench.run_experiment is not originals[("sbmm.bench", "run_experiment")]
    finally:
        tracer.remove()
    monkeypatch.undo()
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn
    assert np.linalg.eigvalsh is eig
    assert tracer.per_step(1)["factorize.step.calls"] == (0.0, "count")
