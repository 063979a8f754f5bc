"""Campaign API: resume-by-hash, worker-count-independent summaries,
status/report surfaces.  Includes the acceptance scenario: a 200+ scenario
campaign whose canonical summary is byte-identical under --jobs 1 and
--jobs 4, and which, after losing half its journal, re-executes exactly
the missing half."""

from __future__ import annotations

import random

import pytest

from repro.engine.campaign import Campaign, run_campaign
from repro.engine.scenarios import ScenarioGrid, ScenarioSpec
from repro.engine.store import ResultStore


def small_grid() -> ScenarioGrid:
    return ScenarioGrid(n=[5, 6], k=2, num_groups=[1, 2], seed=range(3),
                        noise=0.1)


class TestCampaignBasics:
    def test_run_then_rerun_is_idempotent(self, tmp_path):
        campaign = Campaign(small_grid(), store=tmp_path / "j.jsonl")
        first = campaign.run()
        assert (first.total, first.executed, first.skipped) == (12, 12, 0)
        assert first.ok == 12
        second = campaign.run()
        assert (second.executed, second.skipped) == (0, 12)

    def test_in_memory_store(self):
        campaign = Campaign(small_grid(), store=None)
        assert campaign.run().ok == 12
        assert len(campaign.completed_results()) == 12

    def test_status_counts_missing(self, tmp_path):
        campaign = Campaign(small_grid(), store=tmp_path / "j.jsonl")
        status = campaign.status()
        assert status.total == 12 and status.missing == 12
        assert not status.complete
        campaign.run()
        status = campaign.status()
        assert status.ok == 12 and status.missing == 0
        assert status.complete

    def test_results_in_grid_order(self):
        campaign = Campaign(small_grid(), store=None)
        campaign.run()
        results = campaign.results()
        assert [r.spec for r in results] == campaign.specs

    def test_report_table_mentions_every_column(self):
        campaign = Campaign(small_grid(), store=None)
        campaign.run()
        table = campaign.report_table(limit=2)
        assert "Psrcs(k)" in table and "first 2 shown" in table

    def test_duplicate_specs_rejected(self):
        spec = ScenarioSpec(n=5)
        with pytest.raises(ValueError, match="duplicate"):
            Campaign([spec, spec], store=None)

    def test_run_campaign_convenience(self, tmp_path):
        results = run_campaign(small_grid(), store=tmp_path / "j.jsonl")
        assert len(results) == 12 and all(r.ok for r in results)

    def test_unknown_backend_rejected_before_any_work(self, tmp_path):
        # A pool run must not start workers that journal one retriable
        # "chunk failed: ValueError" timeout per unit: the constructor
        # and run()'s override both refuse the name first.
        store = tmp_path / "j.jsonl"
        known = "known: reference, batched, auto"
        with pytest.raises(ValueError, match=f"'warp-drive'; {known}"):
            Campaign(small_grid(), store=store, backend="warp-drive", jobs=2)
        campaign = Campaign(small_grid(), store=store, jobs=2)
        with pytest.raises(ValueError, match=f"'vectorized'; {known}"):
            campaign.run(backend="vectorized")
        assert not store.exists() or not store.read_text()

    def test_retired_backend_records_still_resume(self, tmp_path):
        # Journals written before the per-scenario "vectorized" backend
        # was retired hold records tagged with it.  The tag is provenance
        # only: such records still settle resume on every backend and
        # leave the summary bytes alone.
        fresh = Campaign(small_grid(), store=tmp_path / "fresh.jsonl",
                         backend="batched")
        fresh.run()
        fresh.write_summary(tmp_path / "fresh.summary")
        journal = (tmp_path / "fresh.jsonl").read_text()
        assert journal.count('"backend":"batched"') == 12
        for backend in ("auto", "reference"):
            store = tmp_path / f"old-{backend}.jsonl"
            store.write_text(journal.replace(
                '"backend":"batched"', '"backend":"vectorized"'
            ))
            campaign = Campaign(small_grid(), store=store, backend=backend)
            report = campaign.run()
            assert (report.executed, report.skipped) == (0, 12)
            assert {r.backend for r in campaign.completed_results()} == {
                "vectorized"
            }
            campaign.write_summary(tmp_path / f"{backend}.summary")
            assert (tmp_path / f"{backend}.summary").read_bytes() == (
                tmp_path / "fresh.summary"
            ).read_bytes()


class TestAcceptance:
    """The PR's acceptance scenario, sized to stay fast: >= 200 scenarios,
    byte-identical summaries across worker counts, and exact-missing-half
    resume."""

    @pytest.fixture(scope="class")
    def grid(self) -> ScenarioGrid:
        grid = ScenarioGrid(
            n=[4, 5], k=2, num_groups=[1, 2], seed=range(26),
            noise=[0.0, 0.1],
        )
        assert len(grid) == 208
        return grid

    def test_summary_bytes_independent_of_jobs(self, tmp_path, grid):
        c1 = Campaign(grid, store=tmp_path / "j1.jsonl")
        c1.run(jobs=1)
        c1.write_summary(tmp_path / "s1.jsonl")

        c4 = Campaign(grid, store=tmp_path / "j4.jsonl")
        report = c4.run(jobs=4)
        assert report.ok == 208
        c4.write_summary(tmp_path / "s4.jsonl")

        s1 = (tmp_path / "s1.jsonl").read_bytes()
        s4 = (tmp_path / "s4.jsonl").read_bytes()
        assert s1 == s4
        assert len(s1.splitlines()) == 208

        # Journals are completion-ordered (may differ); summaries are the
        # deterministic artifact.  Losing half the journal re-executes
        # exactly the missing half and converges to the same bytes.
        lines = (tmp_path / "j1.jsonl").read_text().strip().split("\n")
        random.Random(0).shuffle(lines)
        kept = lines[: len(lines) // 2]
        (tmp_path / "j1.jsonl").write_text("\n".join(kept) + "\n")

        resumed = Campaign(grid, store=tmp_path / "j1.jsonl")
        assert len(resumed.store.completed_ids()) == len(kept)
        report = resumed.run(jobs=2)
        assert report.executed == 208 - len(kept)
        assert report.skipped == len(kept)
        resumed.write_summary(tmp_path / "s1b.jsonl")
        assert (tmp_path / "s1b.jsonl").read_bytes() == s4
