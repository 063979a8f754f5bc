"""scripts/perf_ab.py: the A/B verdicts over perfbench result lines."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

SPECS = {
    "resume_s": {"better": "lower", "bound": 0.24},
    "scenarios_per_s": {"better": "higher", "bound": 0.2},
    "fastpath.lane_rounds": {"better": "lower", "bound": None},
}


def _line(failed=0, attempted=100, correct=True, **metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "x"}
            for name, value in metrics.items()
        },
    }


def _pairs(name, base, change):
    return [(_line(**{name: b}), _line(**{name: c}))
            for b, c in zip(base, change)]


def _row(summary, name):
    (row,) = [r for r in summary["rows"] if r["metric"] == name]
    return row


def test_clear_gain_wins_its_pairs_and_beats_the_iqr():
    base = [0.19, 0.18, 0.20, 0.19, 0.21, 0.18, 0.19, 0.20, 0.19, 0.18]
    change = [0.09, 0.08, 0.10, 0.09, 0.09, 0.08, 0.22, 0.09, 0.10, 0.09]
    summary = perf_ab.summarize(_pairs("resume_s", base, change), SPECS)
    row = _row(summary, "resume_s")
    assert row["won"] == 9
    assert row["base"] == pytest.approx(0.19)
    assert row["change"] == pytest.approx(0.09)
    assert row["verdict"] == "gain"


def test_eight_of_ten_is_no_gain():
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    summary = perf_ab.summarize(_pairs("resume_s", base, change), SPECS)
    assert _row(summary, "resume_s")["verdict"] == ""


def test_too_few_pairs_show_no_gain():
    summary = perf_ab.summarize(
        _pairs("resume_s", [0.2] * 9, [0.1] * 9), SPECS)
    row = _row(summary, "resume_s")
    assert row["won"] == 9 and row["verdict"] == ""


def test_rows_follow_the_benchmark_order_and_skip_idle_layers():
    pairs = [(_line(zeta=1.0, scenarios_per_s=1.0, resume_s=1.0, idle=0),
              _line(zeta=1.0, scenarios_per_s=1.0, resume_s=1.0, idle=0))]
    rows = perf_ab.summarize(pairs, SPECS)["rows"]
    assert [r["metric"] for r in rows] == [
        "resume_s", "scenarios_per_s", "zeta"]


def test_higher_is_better_metrics_count_the_other_way():
    base = [2000.0, 2100.0, 2200.0]
    change = [1500.0, 1550.0, 1600.0]
    summary = perf_ab.summarize(
        _pairs("scenarios_per_s", base, change), SPECS)
    row = _row(summary, "scenarios_per_s")
    assert row["won"] == 0
    assert row["verdict"] == "WORSE (bound 20%)"


def test_aa_run_flags_nothing():
    values = [0.10, 0.12, 0.11, 0.13]
    summary = perf_ab.summarize(
        _pairs("resume_s", values, list(reversed(values))), SPECS)
    assert _row(summary, "resume_s")["verdict"] == ""


def test_work_counters_must_match_exactly():
    summary = perf_ab.summarize(
        _pairs("fastpath.lane_rounds", [100, 100], [100, 101]), SPECS)
    assert _row(summary, "fastpath.lane_rounds")["verdict"] == (
        "COUNTER DIFFERS")


def test_table_reports_failures_and_every_metric():
    pairs = [
        (_line(resume_s=0.2, scenarios_per_s=2000.0),
         _line(failed=1, resume_s=0.1, scenarios_per_s=2100.0)),
    ]
    table = perf_ab.format_table("small-n-sweep",
                                 perf_ab.summarize(pairs, SPECS))
    assert "change 1/100" in table
    assert (
        "| resume_s | x | 0.2 [0.2, 0.2] | 0.1 [0.1, 0.1] | -50.0% "
        "| 0 (0%) | 1/1 |" in table
    )
    assert "| scenarios_per_s | x | 2000 [2000, 2000] | 2100 [" in table


def test_spread_wider_than_the_bound_is_unresolved():
    base = [0.10, 0.20, 0.10, 0.20]
    assert perf_ab.verdict(base, [0.15] * 4, "lower", 0.24) == "unresolved"
    # ... unless every change run beats every base run.
    assert perf_ab.verdict(base, [0.09] * 4, "lower", 0.24) == ""
