"""Unit tests of the benchmark harness itself.

:func:`conftest.record_fastpath` must keep ``BENCH_FASTPATH.json``
consistent with the workloads it currently holds (file-level medians
rebuilt on every write, stale ones dropped, other recorders' keys
kept), :func:`conftest.emit` must upsert ``results.txt`` sections and
drop the ones a passing whole-directory session did not emit, and
:func:`bench_timing.interleaved_best` must return
per-candidate floors from rotated, interleaved rounds that stop as soon
as every A/A pair agrees.  Both run against a temporary file and a fake
clock: nothing here times real work or touches the committed records.
"""

from __future__ import annotations

import json
import types

import pytest

import bench_timing
from bench_timing import interleaved_best


@pytest.fixture
def bench_file(record_fastpath, monkeypatch, tmp_path):
    """Point the recorder at a temporary BENCH_FASTPATH.json."""
    path = tmp_path / "BENCH_FASTPATH.json"
    monkeypatch.setitem(
        record_fastpath.__globals__, "BENCH_FASTPATH_PATH", path
    )
    return path


def _read(path):
    return json.loads(path.read_text())


class TestRecordFastpath:
    def test_a_median_no_workload_feeds_is_dropped(
        self, record_fastpath, bench_file
    ):
        bench_file.write_text(json.dumps({
            "median_steal_gain": 0.88,
            "median_speedup": 9.0,
            "workloads": {},
        }))
        record_fastpath("a", reference_s=2.0, vectorized_s=1.0, scenarios=4)
        data = _read(bench_file)
        assert "median_steal_gain" not in data
        assert data["median_speedup"] == 2.0

    def test_group_medians_follow_the_current_entries(
        self, record_fastpath, bench_file
    ):
        record_fastpath(
            "mixed", 3.0, 1.0, 8,
            extra={"groups": [{"n": 5, "packing_gain": 1.5}]},
        )
        record_fastpath(
            "hetero", 8.0, 2.0, 8,
            extra={"groups": [
                {"n": 6, "speedup_vs_vectorized": 1.2},
                {"n": 7, "speedup_vs_vectorized": 1.6},
            ]},
        )
        data = _read(bench_file)
        assert data["median_packing_gain"] == 1.5
        assert data["median_batched_vs_vectorized"] == 1.4
        assert data["median_speedup"] == 3.5
        # Re-recording the packing workload without its gain retires
        # the median it alone fed.
        record_fastpath("mixed", 3.0, 1.0, 8)
        data = _read(bench_file)
        assert "median_packing_gain" not in data
        assert data["median_batched_vs_vectorized"] == 1.4

    def test_batched_columns_and_their_median(
        self, record_fastpath, bench_file
    ):
        record_fastpath("a", 6.0, 3.0, 10, batched_s=1.5)
        record_fastpath("b", 4.0, 2.0, 10)
        data = _read(bench_file)
        entry = data["workloads"]["a"]
        assert entry["speedup_batched"] == 4.0
        assert entry["speedup_batched_vs_vectorized"] == 2.0
        assert "speedup_batched" not in data["workloads"]["b"]
        assert data["median_speedup_batched"] == 4.0
        assert data["median_speedup"] == 2.0

    def test_other_recorders_keys_survive_and_legacy_host_goes(
        self, record_fastpath, bench_file
    ):
        bench_file.write_text(json.dumps({
            "telemetry": {"overhead": 0.01},
            "dist_scale": {"single_worker_overhead": 1.2},
            "host": {"platform": "legacy"},
            "schema": 4,
        }))
        record_fastpath("a", 2.0, 1.0, 4)
        data = _read(bench_file)
        assert data["telemetry"] == {"overhead": 0.01}
        assert data["dist_scale"] == {"single_worker_overhead": 1.2}
        assert "host" not in data
        assert data["schema"] == 5
        assert "platform" in data["workloads"]["a"]["host"]

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]"])
    def test_an_unusable_file_starts_fresh(
        self, record_fastpath, bench_file, content
    ):
        bench_file.write_text(content)
        record_fastpath("a", 2.0, 1.0, 4)
        data = _read(bench_file)
        assert list(data["workloads"]) == ["a"]
        assert data["median_speedup"] == 2.0


class _Clock:
    """A perf_counter that only moves when a fake candidate runs."""

    def __init__(self):
        self.now = 0.0
        self.calls = []

    def candidate(self, name, durations):
        """A callable that logs its name and advances the clock by the
        next of ``durations`` (the last one repeats)."""
        durations = list(durations)

        def run():
            self.calls.append(name)
            step = durations.pop(0) if len(durations) > 1 else durations[0]
            self.now += step

        return run


@pytest.fixture
def clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(
        bench_timing, "time",
        types.SimpleNamespace(perf_counter=lambda: clock.now),
    )
    return clock


class TestInterleavedBest:
    def test_floors_are_per_candidate_minima_of_timed_rounds(self, clock):
        # The warm-up call is the fastest of each candidate: counting it
        # would report 0.5 instead of the timed rounds' minimum.
        fns = [
            clock.candidate("a", [0.5, 3.0, 1.0, 2.0]),
            clock.candidate("b", [0.5, 5.0, 4.0, 6.0]),
        ]
        floors, converged = interleaved_best(fns, pairs=[], min_repeats=3)
        assert converged
        assert floors == [1.0, 4.0]

    def test_order_rotates_every_round(self, clock):
        fns = [clock.candidate(name, [1.0]) for name in "abc"]
        interleaved_best(fns, pairs=[], min_repeats=3)
        assert clock.calls == list("abc" "abc" "bca" "cab")

    def test_agreeing_pair_stops_at_min_repeats(self, clock):
        fns = [clock.candidate("a", [1.0]), clock.candidate("b", [1.0])]
        floors, converged = interleaved_best(
            fns, pairs=[(0, 1)], min_repeats=4, max_repeats=50
        )
        assert converged and floors == [1.0, 1.0]
        assert len(clock.calls) == 2 * (1 + 4)

    def test_pair_that_never_agrees_runs_to_the_cap(self, clock):
        fns = [clock.candidate("a", [1.0]), clock.candidate("b", [1.5])]
        floors, converged = interleaved_best(
            fns, pairs=[(0, 1)], min_repeats=3, max_repeats=9
        )
        assert not converged
        assert floors == [1.0, 1.5]
        assert len(clock.calls) == 2 * (1 + 9)

    def test_rounds_continue_until_the_minima_meet(self, clock):
        # b's floor reaches a's only on its 12th timed run: the rounds
        # go on past min_repeats and stop on that round.
        fns = [
            clock.candidate("a", [1.0]),
            clock.candidate("b", [2.0] * 12 + [1.005]),
        ]
        floors, converged = interleaved_best(
            fns, pairs=[(0, 1)], min_repeats=3, max_repeats=40,
            converge=0.01,
        )
        assert converged
        assert floors == pytest.approx([1.0, 1.005])
        assert clock.calls.count("b") == 1 + 12

    def test_rounds_receive_each_rounds_walls_in_candidate_order(
        self, clock
    ):
        fns = [
            clock.candidate("a", [9.0, 1.0, 2.0, 3.0]),
            clock.candidate("b", [9.0, 4.0, 5.0, 6.0]),
        ]
        rounds = []
        floors, _ = interleaved_best(
            fns, pairs=[], min_repeats=3, max_repeats=3, rounds=rounds
        )
        assert rounds == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        assert floors == [1.0, 4.0]


@pytest.fixture
def results_sections(pytestconfig, tmp_path):
    """A fresh ResultsSections over a temporary benchmarks directory,
    standing in for the session's own in this module's emit() calls."""
    session_sections = pytestconfig.pluginmanager.get_plugin(
        "results-sections"
    )
    config = types.SimpleNamespace(rootpath=tmp_path, args=[str(tmp_path)])
    return type(session_sections)(config, tmp_path / "results.txt")


def _report(nodeid, outcome="passed"):
    return types.SimpleNamespace(
        nodeid=nodeid, failed=outcome == "failed",
        skipped=outcome == "skipped",
    )


def _banners(path):
    return [line for line in path.read_text().splitlines() if " — " in line]


class TestResultsSections:
    STALE = "OLD — a retitled table\nrow\n\nTHM1 — kept table\nrow\n\n"

    def test_reemitting_replaces_in_place(self, emit, results_sections):
        path = results_sections.path
        path.write_text(self.STALE)
        emit("THM1 — kept table\nnew row")
        assert path.read_text().count("THM1 — kept table") == 1
        assert "new row" in path.read_text()
        assert _banners(path)[0] == "OLD — a retitled table"

    def test_passing_whole_session_drops_unemitted_sections(
        self, emit, results_sections
    ):
        path = results_sections.path
        path.write_text(self.STALE)
        # One tag may own two tables: both stay.
        emit("THM1 — kept table\nrow")
        emit("THM1 — second table\nrow")
        results_sections.pytest_runtest_logreport(_report("test_a.py::t"))
        # Outcomes outside the benchmarks directory do not count.
        results_sections.pytest_runtest_logreport(
            _report("../tests/test_b.py::t", "skipped")
        )
        results_sections.pytest_sessionfinish(None, 0)
        assert _banners(path) == [
            "THM1 — kept table", "THM1 — second table",
        ]

    @pytest.mark.parametrize(
        "session", ["failed", "skipped", "deselected", "one file"]
    )
    def test_other_sessions_keep_every_section(
        self, emit, results_sections, session
    ):
        path = results_sections.path
        path.write_text(self.STALE)
        emit("THM1 — kept table\nrow")
        exitstatus = 0
        if session == "failed":
            exitstatus = 1
            results_sections.pytest_runtest_logreport(
                _report("test_a.py::t", "failed")
            )
        elif session == "skipped":
            results_sections.pytest_runtest_logreport(
                _report("test_a.py::t", "skipped")
            )
        elif session == "deselected":
            results_sections.pytest_deselected(
                [types.SimpleNamespace(nodeid="test_a.py::t")]
            )
        else:
            results_sections.config.args = [str(path.parent / "test_a.py")]
        results_sections.pytest_sessionfinish(None, exitstatus)
        assert _banners(path) == [
            "OLD — a retitled table", "THM1 — kept table",
        ]
