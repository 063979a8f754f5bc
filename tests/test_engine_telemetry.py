"""Engine telemetry: the two-plane recorder and its engine threading.

The deterministic plane must be a pure function of the scenario set —
invariant across ``--jobs``, spec order, and kernel width — while the
journal/summary bytes stay untouched whether metrics are on or off.
Both contracts are pinned here, alongside the recorder's merge algebra
(commutative, associative) that makes worker-snapshot merging
independent of completion order.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.backends import execute_scenario_batch
from repro.engine.campaign import Campaign
from repro.engine.registry import family_campaign
from repro.engine.scenarios import termination_grid
from repro.engine.telemetry import (
    NULL,
    NullRecorder,
    Recorder,
    SIDECAR_SCHEMA,
    read_sidecar,
    render_sidecar,
    validate_sidecar,
)


# ----------------------------------------------------------------------
# Recorder unit behavior
# ----------------------------------------------------------------------
class TestRecorder:
    def test_counters_and_gauges(self):
        rec = Recorder()
        rec.inc("a")
        rec.inc("a", 4)
        rec.vinc("b", 2)
        rec.gauge_max("g", 3.0)
        rec.gauge_max("g", 1.0)
        snap = rec.snapshot()
        assert snap["deterministic"]["counters"] == {"a": 5}
        assert snap["volatile"]["counters"] == {"b": 2}
        assert snap["deterministic"]["gauges"] == {"g": 3.0}
        assert rec.counter("a") == 5
        assert rec.counter("b") == 2
        assert rec.counter("missing") == 0

    def test_histogram_buckets_and_stats(self):
        rec = Recorder()
        for v in (1, 2, 3, 5000):
            rec.observe("h", v)
        h = rec.snapshot()["deterministic"]["histograms"]["h"]
        assert h["count"] == 4
        assert h["sum"] == 5006
        assert h["min"] == 1 and h["max"] == 5000
        assert sum(h["counts"]) == 4
        assert len(h["counts"]) == len(h["edges"]) + 1
        assert h["counts"][-1] == 1  # 5000 lands in the overflow bucket

    def test_span_records_duration(self):
        rec = Recorder()
        with rec.span("work"):
            pass
        dur = rec.snapshot()["volatile"]["durations"]["work"]
        assert dur["count"] == 1
        assert dur["total_s"] >= 0.0
        assert dur["max_s"] >= 0.0

    def test_merge_is_order_independent(self):
        def make(seed):
            rec = Recorder()
            rec.inc("c", seed)
            rec.vinc("vc", seed * 2)
            rec.gauge_max("g", float(seed))
            rec.observe("h", seed)
            rec.add_duration("d", seed * 0.5)
            return rec.snapshot()

        snaps = [make(s) for s in (1, 2, 3)]
        merged = []
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            rec = Recorder()
            for i in order:
                rec.merge(snaps[i])
            merged.append(rec.snapshot())
        assert merged[0] == merged[1] == merged[2]
        assert merged[0]["deterministic"]["counters"]["c"] == 6
        assert merged[0]["deterministic"]["gauges"]["g"] == 3.0
        assert merged[0]["volatile"]["durations"]["d"]["count"] == 3

    def test_merge_empty_snapshot_is_noop(self):
        rec = Recorder()
        rec.inc("a")
        rec.merge({})
        assert rec.snapshot()["deterministic"]["counters"] == {"a": 1}

    def test_histogram_edge_mismatch_rejected(self):
        a, b = Recorder(), Recorder()
        a.observe("h", 1)
        b.observe("h", 1, edges=(10, 20))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b.snapshot())

    def test_conflicting_info_key_rejected(self):
        a, b = Recorder(), Recorder()
        a.set_info("k", 1)
        b.set_info("k", 2)
        with pytest.raises(ValueError, match="conflicting info"):
            a.merge(b.snapshot())

    def test_null_recorder_is_falsy_noop(self):
        assert not NULL
        assert isinstance(NULL, NullRecorder)
        NULL.inc("a")
        NULL.vinc("a")
        NULL.observe("h", 1)
        NULL.add_duration("d", 1.0)
        with NULL.span("s"):
            pass
        assert NULL.snapshot() == {}
        assert NULL.counter("a") == 0

    def test_real_recorder_is_truthy(self):
        assert Recorder()


# ----------------------------------------------------------------------
# Sidecar format
# ----------------------------------------------------------------------
class TestSidecar:
    def test_write_read_roundtrip(self, tmp_path):
        rec = Recorder()
        rec.inc("kernel.lanes", 3)
        rec.vobserve("v", 2)
        path = tmp_path / "m.json"
        rec.write_sidecar(path, label="unit")
        data = read_sidecar(path)
        assert data["schema"] == SIDECAR_SCHEMA
        assert data["label"] == "unit"
        assert data["deterministic"]["counters"]["kernel.lanes"] == 3

    def test_validate_rejects_bad_schema(self):
        rec = Recorder()
        side = rec.to_sidecar()
        side["schema"] = SIDECAR_SCHEMA + 1
        with pytest.raises(ValueError, match="newer than supported"):
            validate_sidecar(side)
        side["schema"] = "x"
        with pytest.raises(ValueError, match="bad sidecar schema"):
            validate_sidecar(side)

    def test_validate_rejects_corrupt_histogram(self):
        rec = Recorder()
        rec.observe("h", 1)
        side = rec.to_sidecar()
        side["deterministic"]["histograms"]["h"]["counts"][0] += 1
        with pytest.raises(ValueError, match="bucket/count mismatch"):
            validate_sidecar(side)

    def test_validate_rejects_missing_plane(self):
        with pytest.raises(ValueError, match="counters"):
            validate_sidecar({"schema": 1, "deterministic": {}})

    def test_render_lists_every_metric(self):
        rec = Recorder()
        rec.inc("kernel.lanes", 7)
        rec.vgauge_max("executor.pool_workers", 2)
        rec.add_duration("campaign.run_s", 0.5)
        text = render_sidecar(rec.to_sidecar(label="demo"))
        assert "schema 1" in text and "label demo" in text
        assert "kernel.lanes" in text
        assert "executor.pool_workers" in text
        assert "campaign.run_s" in text


# ----------------------------------------------------------------------
# Engine threading: determinism and journal purity
# ----------------------------------------------------------------------
def _latency_campaign(store, jobs=1, recorder=None, backend=None,
                      params=None):
    campaign = family_campaign(
        "latency",
        params or {"n": [5, 6], "seeds": 2, "noise": [0.1]},
        store=store,
        jobs=jobs,
        backend=backend,
    )
    campaign.run(recorder=recorder)
    return campaign


class TestDeterministicPlane:
    def test_invariant_across_jobs(self, tmp_path):
        """The det plane is a pure function of the scenario set: jobs=1,
        2 and 4 must produce identical deterministic sections (and
        byte-identical journals)."""
        planes, journals = {}, {}
        for jobs in (1, 2, 4):
            store = tmp_path / f"j{jobs}.jsonl"
            rec = Recorder()
            _latency_campaign(str(store), jobs=jobs, recorder=rec)
            planes[jobs] = rec.snapshot()["deterministic"]
            journals[jobs] = store.read_bytes()
        assert planes[1] == planes[2] == planes[4]
        assert journals[1] == journals[2] == journals[4]
        # And the plane actually measured something at every layer.
        counters = planes[1]["counters"]
        for prefix in ("scheduler.", "executor.", "kernel.", "store."):
            assert any(
                name.startswith(prefix) and value > 0
                for name, value in counters.items()
            ), f"no non-zero {prefix} counters: {counters}"

    def test_invariant_across_spec_shuffle(self):
        """Kernel det counters are per-lane pure: batching the same specs
        in a different order changes nothing on the det plane."""
        specs = termination_grid(ns=[5], seeds=range(4), noise=0.2)
        forward, backward = Recorder(), Recorder()
        execute_scenario_batch(specs, recorder=forward)
        execute_scenario_batch(list(reversed(specs)), recorder=backward)
        fwd = forward.snapshot()["deterministic"]
        bwd = backward.snapshot()["deterministic"]
        assert fwd == bwd

    def test_invariant_across_width(self):
        """The kernel width is an execution-shape knob: the det plane
        must not see it (the volatile plane may)."""
        specs = termination_grid(ns=[6], seeds=range(5), noise=0.2)
        narrow, full = Recorder(), Recorder()
        execute_scenario_batch(specs, width=2, recorder=narrow)
        execute_scenario_batch(specs, width=None, recorder=full)
        assert (
            narrow.snapshot()["deterministic"]
            == full.snapshot()["deterministic"]
        )

    def test_journal_bytes_identical_metrics_on_off(self, tmp_path):
        """--metrics must never leak into the journal: bytes are
        identical with the recorder on or off."""
        with_metrics = tmp_path / "on.jsonl"
        without = tmp_path / "off.jsonl"
        _latency_campaign(str(with_metrics), recorder=Recorder())
        _latency_campaign(str(without), recorder=None)
        assert with_metrics.read_bytes() == without.read_bytes()

    def test_resume_hits_counted(self, tmp_path):
        store = tmp_path / "j.jsonl"
        first = _latency_campaign(str(store))
        rec = Recorder()
        _latency_campaign(str(store), recorder=rec)  # resumes: all skipped
        det = rec.snapshot()["deterministic"]["counters"]
        assert det["store.resume_hits"] == len(first.specs) > 0
        assert det.get("store.appends", 0) == 0

    def test_direct_batched_run_invariant_across_jobs(self):
        """A direct batched ``execute_scenarios`` call (no campaign
        plan) records one det plane serially and on a pool: both plan
        their units with the caller's recorder."""
        from repro.engine.executor import execute_scenarios

        specs = termination_grid(ns=[5, 6], seeds=range(3), noise=0.2)
        planes = {}
        for jobs in (1, 2):
            rec = Recorder()
            execute_scenarios(
                specs, jobs=jobs, backend="batched", recorder=rec
            )
            planes[jobs] = rec.snapshot()["deterministic"]
        assert planes[1] == planes[2]
        assert planes[1]["counters"]["scheduler.scenarios"] == len(specs)
        assert planes[1]["histograms"]["scheduler.group_lanes"]

    def test_worker_profiles_merged_under_pool(self, tmp_path):
        """Pool workers return snapshots; the parent merge must surface
        per-worker info and utilization."""
        from repro.engine.dispatch import plan_units

        # n = 5 and 8 land in two round buckets: two units, so the pool
        # starts two workers.
        params = {"n": [5, 8], "seeds": 2, "noise": [0.1]}
        specs = family_campaign("latency", params).specs
        assert len(plan_units(list(enumerate(specs)), "auto", jobs=2)) >= 2
        rec = Recorder()
        _latency_campaign(
            str(tmp_path / "j.jsonl"), jobs=2, recorder=rec, params=params
        )
        vol = rec.snapshot()["volatile"]
        workers = vol["info"]["executor.workers"]
        assert workers and all(
            {"pid", "units", "busy_s"} <= set(w) for w in workers
        )
        assert vol["gauges"]["executor.pool_workers"] == 2
        assert "executor.unit_wall_s" in vol["durations"]


class TestCampaignStatusTiming:
    def test_status_reports_elapsed_and_rate(self, tmp_path):
        store = tmp_path / "j.jsonl"
        campaign = _latency_campaign(str(store))
        status = campaign.status()
        assert status.elapsed_s is not None and status.elapsed_s > 0
        assert status.rate is not None and status.rate > 0
        text = status.summary()
        assert "elapsed (journal)" in text
        assert "scenarios/s" in text

    def test_status_without_times_sidecar(self, tmp_path):
        """Journals predating the .times sidecar still report status —
        the timing rows just stay absent."""
        store = tmp_path / "j.jsonl"
        campaign = _latency_campaign(str(store))
        (tmp_path / "j.jsonl.times").unlink()
        campaign.refresh()
        status = campaign.status()
        assert status.elapsed_s is None and status.rate is None
        assert "elapsed" not in status.summary()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliMetrics:
    FAMILY = ["--family", "latency", "-n", "5", "6", "--seeds", "2",
              "--noise", "0.1"]

    def test_run_writes_sidecar_and_report_renders_it(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        store = str(tmp_path / "j.jsonl")
        code = main(
            ["campaign", "run", "--store", store, "--metrics",
             "--no-progress"] + self.FAMILY
        )
        assert code == 0
        sidecar = store + ".metrics.json"
        data = read_sidecar(sidecar)  # validates structure
        assert data["label"] == "latency"
        err = capsys.readouterr().err
        assert sidecar in err

        assert main(
            ["campaign", "report", "--store", store, "--metrics"]
            + self.FAMILY
        ) == 0
        out = capsys.readouterr().out
        assert "kernel.lanes" in out
        assert "store.appends" in out

    def test_run_metrics_explicit_path(self, capsys, tmp_path):
        from repro.cli import main

        store = str(tmp_path / "j.jsonl")
        target = str(tmp_path / "custom" / "metrics.json")
        code = main(
            ["campaign", "run", "--store", store, "--metrics", target,
             "--no-progress"] + self.FAMILY
        )
        assert code == 0
        assert json.loads(
            (tmp_path / "custom" / "metrics.json").read_text()
        )["schema"] == SIDECAR_SCHEMA

    def test_family_sugar_metrics_requires_store(self, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "-n", "5", "-k", "2", "--seeds", "1", "--metrics",
             "--no-progress"]
        )
        assert code == 2
        assert "--store" in capsys.readouterr().out

    def test_report_missing_sidecar_fails(self, capsys, tmp_path):
        from repro.cli import main

        store = str(tmp_path / "j.jsonl")
        code = main(
            ["campaign", "report", "--store", store, "--metrics"]
            + self.FAMILY
        )
        assert code == 1
        assert "no metrics sidecar" in capsys.readouterr().out

    def test_family_sugar_writes_sidecar(self, capsys, tmp_path):
        from repro.cli import main

        store = str(tmp_path / "j.jsonl")
        code = main(
            ["sweep", "-n", "5", "-k", "2", "--seeds", "1", "--store",
             store, "--metrics", "--no-progress"]
        )
        assert code == 0
        data = read_sidecar(store + ".metrics.json")
        assert data["label"] == "sweeps"
