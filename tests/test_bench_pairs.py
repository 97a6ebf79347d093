import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ref_us_per_step", "unit": "us", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def _fake(values):
    """run(side, seed) returning the benchmark JSON with values[side][seed]."""
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        us, rss = values[side][seed]
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"ref_us_per_step": {"value": us, "unit": "us"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return run, calls


def test_pairs_alternate_which_side_runs_first():
    values = {side: {s: (100.0, 40.0) for s in range(5, 9)} for side in ("parent", "change")}
    run, calls = _fake(values)
    records = bench_pairs.run_pairs(run, 4, 5)
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    assert [r["first"] for r in records] == ["parent", "change", "parent", "change"]


@pytest.mark.parametrize("slow_pairs, gain_shown", [(0, True), (1, True), (2, False)])
def test_summary_applies_the_benchmark_rule(slow_pairs, gain_shown):
    # the change wins unless a pair is slow on its side; nine wins of ten
    # show a gain, eight do not
    parent = {s: (1000.0 + 10.0 * s, 40.0) for s in range(10)}
    change = {s: ((1200.0 if s < slow_pairs else 800.0), 40.5) for s in range(10)}
    run, _ = _fake({"parent": parent, "change": change})
    summary = bench_pairs.summarize(bench_pairs.run_pairs(run, 10, 0), END_TO_END)
    us = summary["metrics"]["ref_us_per_step"]
    assert us["change_wins"] == 10 - slow_pairs
    assert us["parent"]["median"] == 1045.0
    assert (us["parent"]["q1"], us["parent"]["q3"]) == (1017.5, 1072.5)
    assert us["gain_shown"] is gain_shown and us["within_bound"]
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and not rss["gain_shown"]
    assert rss["within_bound"]  # +1.25% against a 5% bound
    assert summary["all_correct"] and summary["failed"] == {"parent": 0, "change": 0}


def test_summary_flags_a_metric_outside_its_bound():
    parent = {s: (1000.0, 40.0) for s in range(4)}
    change = {s: (1300.0, 40.0) for s in range(4)}
    run, _ = _fake({"parent": parent, "change": change})
    summary = bench_pairs.summarize(bench_pairs.run_pairs(run, 4, 0), END_TO_END)
    assert not summary["metrics"]["ref_us_per_step"]["within_bound"]  # +30% > 25%
    assert summary["metrics"]["ref_us_per_step"]["relative_change"] == pytest.approx(0.3)
