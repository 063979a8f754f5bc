"""The batch scheduler: planning, determinism, progress reporting.

Execution equivalence (compaction, refill, jobs/partition invariance)
lives in ``tests/test_batched_equivalence.py``; this file pins the
*planning* layer — global grouping, round-budget buckets, memory
envelopes, deterministic plans — and the plan-derived progress reporter.
"""

from __future__ import annotations

import io

import pytest

from repro.engine.executor import ScenarioResult
from repro.engine.scenarios import ScenarioSpec
from repro.engine.scheduler import (
    BATCH_DEPTH,
    BatchPlan,
    ProgressReporter,
    plan_batches,
    round_bucket,
)
from repro.rounds.fastpath import default_batch_size


def _grouped(n, seed, noise=0.2, max_rounds=None):
    return ScenarioSpec(
        n=n, k=2, num_groups=2, seed=seed, noise=noise, max_rounds=max_rounds
    )


UNSUPPORTED = ScenarioSpec(
    n=7, k=2, adversary="crash", algorithm="floodmin", options=(("f", 1),)
)


def _with_singles(specs, every):
    out = []
    for i, spec in enumerate(specs):
        out.append(spec)
        if i % every == 0:
            out.append(UNSUPPORTED)
    return out


JOBS_INVARIANCE_GRIDS = {
    # Mixed n = 4..24 over three round buckets, first seen out of
    # width order.
    "mixed-n": lambda: _with_singles(
        [
            _grouped(n, seed)
            for seed in range(20)
            for n in (9, 24, 4, 16, 5)
        ],
        every=35,
    ),
    # One 64-lane group: jobs alone decides how many batches it becomes.
    "one-group": lambda: _with_singles(
        [_grouped(6, seed) for seed in range(64)], every=9
    ),
    # One n over four round buckets, interleaved spec by spec.
    "round-buckets": lambda: _with_singles(
        [
            _grouped(7, seed, max_rounds=rounds)
            for seed in range(16)
            for rounds in (10, 30, 100, 300)
        ],
        every=13,
    ),
}


class TestRoundBucket:
    def test_power_of_two_ceiling(self):
        assert round_bucket(1) == 1
        assert round_bucket(2) == 2
        assert round_bucket(3) == 4
        assert round_bucket(56) == 64
        assert round_bucket(64) == 64
        assert round_bucket(500) == 512

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_bucket(0)


class TestPlanBatches:
    def test_interleaved_grid_groups_globally(self):
        # n alternates spec by spec: the historical contiguous-segment
        # packing would have produced 8 one-lane batches; the planner
        # packs one batch per n.
        specs = []
        for seed in range(4):
            specs.append(_grouped(6, seed))
            specs.append(_grouped(8, seed))
        plan = plan_batches(list(enumerate(specs)))
        assert len(plan.batches) == 2
        assert sorted(b.n for b in plan.batches) == [6, 8]
        assert not plan.singles
        for batch in plan.batches:
            assert [spec.n for _, spec in batch.items] == [batch.n] * 4
        # Every work-list index appears exactly once.
        indices = sorted(
            idx for b in plan.batches for idx, _ in b.items
        )
        assert indices == list(range(len(specs)))

    def test_incompatible_specs_become_singles_in_order(self):
        specs = [_grouped(6, 0), UNSUPPORTED, _grouped(6, 1), UNSUPPORTED]
        plan = plan_batches(list(enumerate(specs)))
        assert len(plan.batches) == 1
        assert [idx for idx, _ in plan.singles] == [1, 3]
        assert plan.total == 4
        assert plan.batched_lanes == 2

    def test_round_budget_buckets_split_groups(self):
        specs = [
            _grouped(6, 0, max_rounds=10),
            _grouped(6, 1, max_rounds=500),
            _grouped(6, 2, max_rounds=12),
        ]
        plan = plan_batches(list(enumerate(specs)))
        buckets = sorted(b.bucket for b in plan.batches)
        # 10 and 12 share the 16-round bucket; 500 lands alone in 512.
        assert buckets == [16, 512]
        by_bucket = {b.bucket: b for b in plan.batches}
        assert by_bucket[16].lanes == 2
        # Each width is computed from its own group's largest budget,
        # so the 500-round lane cannot shrink the short lanes' batches.
        assert by_bucket[512].width == default_batch_size(6, 500)
        assert by_bucket[16].width == default_batch_size(6, 12)

    def test_batches_capped_at_depth_times_width(self):
        n, rounds = 6, 6 * 6 + 20
        width = default_batch_size(n, rounds)
        total = width * BATCH_DEPTH + 3
        specs = [_grouped(n, seed) for seed in range(total)]
        plan = plan_batches(list(enumerate(specs)))
        assert [b.lanes for b in plan.batches] == [width * BATCH_DEPTH, 3]
        assert all(b.width == width for b in plan.batches)

    def test_jobs_split_spreads_one_group_across_workers(self):
        # A homogeneous campaign must not serialize onto one pool
        # worker: with jobs > 1 a large group is cut into at least
        # ~jobs batches (never thinner than MIN_SPLIT_LANES lanes),
        # and execution results stay a pure function of the spec.
        from repro.engine.executor import execute_scenarios
        from repro.engine.store import journal_line

        specs = [_grouped(6, seed) for seed in range(24)]
        items = list(enumerate(specs))
        assert len(plan_batches(items, jobs=1).batches) == 1
        # jobs=4 wants 6-lane cuts, but the MIN_SPLIT_LANES floor keeps
        # batches at >= 8 lanes (kernel amortization beats one idle
        # worker at this size).
        assert [b.lanes for b in plan_batches(items, jobs=4).batches] == [
            8, 8, 8,
        ]
        # Tiny groups are not shredded below MIN_SPLIT_LANES.
        small = list(enumerate(specs[:10]))
        assert [b.lanes for b in plan_batches(small, jobs=8).batches] == [
            8, 2,
        ]
        serial = execute_scenarios(specs, backend="batched")
        split = execute_scenarios(specs, jobs=4, backend="batched")
        assert [journal_line(r) for r in split] == [
            journal_line(r) for r in serial
        ]

    @pytest.mark.parametrize("grid", sorted(JOBS_INVARIANCE_GRIDS))
    @pytest.mark.parametrize("pack_widths", [False, True])
    def test_item_order_is_jobs_invariant(self, pack_widths, grid):
        # A remote fleet plans with jobs = its worker count and releases
        # results in the plan's item order, so the journal order equals
        # the serial run's only if jobs merely cuts groups and never
        # reorders items.  Every grid has groups large enough to be cut
        # and singles interleaved.
        items = list(enumerate(JOBS_INVARIANCE_GRIDS[grid]()))

        def item_order(plan):
            return [idx for b in plan.batches for idx, _ in b.items] + [
                idx for idx, _ in plan.singles
            ]

        serial = plan_batches(items, jobs=1, pack_widths=pack_widths)
        for jobs in (2, 3, 4, 8):
            plan = plan_batches(items, jobs=jobs, pack_widths=pack_widths)
            assert len(plan.batches) > len(serial.batches), jobs
            assert item_order(plan) == item_order(serial), jobs

    def test_batch_memory_envelope_shrinks_width(self):
        specs = [_grouped(6, seed) for seed in range(5)]
        tiny = plan_batches(list(enumerate(specs)), batch_memory=1)
        assert all(b.width == 1 for b in tiny.batches)
        assert [b.lanes for b in tiny.batches] == [BATCH_DEPTH, 1]

    def test_plan_is_deterministic(self):
        specs = [_grouped(n, seed) for seed in range(3) for n in (5, 6, 7)]
        specs.append(UNSUPPORTED)
        a = plan_batches(list(enumerate(specs)))
        b = plan_batches(list(enumerate(specs)))
        assert a == b
        assert isinstance(a, BatchPlan)
        assert "batches" in a.describe() and "singles" in a.describe()


class TestProgressReporter:
    @staticmethod
    def _results(specs):
        return [ScenarioResult(spec=spec) for spec in specs]

    def test_emits_rate_batches_and_eta(self):
        specs = [_grouped(6, seed) for seed in range(4)]
        plan = plan_batches(list(enumerate(specs)))
        stream = io.StringIO()
        ticks = iter(x * 0.5 for x in range(100))
        reporter = ProgressReporter(
            total=len(specs),
            label="latency",
            plan=plan,
            stream=stream,
            interval=0.0,
            clock=lambda: next(ticks),
        )
        for result in self._results(specs):
            reporter.update(result)
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(specs)
        assert lines[0].startswith("[latency] 1/4 scenarios (25%)")
        assert "/s" in lines[0]
        assert "eta" in lines[0]
        # The final line reports the completed plan and drops the ETA.
        assert lines[-1].startswith("[latency] 4/4 scenarios (100%)")
        assert f"batch {len(plan.batches)}/{len(plan.batches)}" in lines[-1]
        assert "eta" not in lines[-1]

    def test_throttles_to_interval_but_always_emits_final(self):
        specs = [_grouped(6, seed) for seed in range(10)]
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=len(specs),
            stream=stream,
            interval=1000.0,
            clock=lambda: 0.0,
        )
        for result in self._results(specs):
            reporter.update(result)
        lines = stream.getvalue().splitlines()
        # One initial line (first update is always due) + the final one.
        assert len(lines) == 2
        assert lines[-1].startswith("[campaign] 10/10")

    def test_without_plan_no_batch_column(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, stream=stream, clock=lambda: 0.0)
        reporter.update(self._results([_grouped(6, 0)])[0])
        assert "batch" not in stream.getvalue()


class TestCampaignProgress:
    def test_campaign_run_reports_progress_to_stream(self, tmp_path):
        from repro.engine.registry import family_campaign

        stream = io.StringIO()
        campaign = family_campaign(
            "latency",
            {"n": [5], "seeds": 2, "noise": (0.1,)},
            store=tmp_path / "j.jsonl",
        )
        campaign.run(progress=stream)
        out = stream.getvalue()
        assert "[latency]" in out
        assert "scenarios" in out and "/s" in out
        assert "batch" in out  # derived from the batch plan (auto backend)

    def test_progress_off_by_default_and_resume_silent(self, tmp_path):
        from repro.engine.registry import family_campaign

        stream = io.StringIO()
        campaign = family_campaign(
            "latency",
            {"n": [5], "seeds": 1, "noise": (0.1,)},
            store=tmp_path / "j.jsonl",
        )
        campaign.run()  # no progress arg: nothing anywhere but the store
        # A fully-resumed campaign has nothing to report even with
        # progress on (zero-scenario runs must not print a line).
        campaign.run(progress=stream)
        assert stream.getvalue() == ""


class TestCrossWidthPlanning:
    """pack_widths grouping, the padded envelope, and batch splitting."""

    def test_pack_widths_merges_one_group_per_bucket(self):
        # n 4..7 share the 64-round bucket: unpacked plans one tensor
        # program per n, packed collapses them into a single program at
        # the widest member's width.
        specs = [_grouped(n, seed) for n in (4, 5, 6, 7) for seed in range(2)]
        items = list(enumerate(specs))
        unpacked = plan_batches(items)
        assert sorted(b.n for b in unpacked.batches) == [4, 5, 6, 7]
        packed = plan_batches(items, pack_widths=True)
        assert len(packed.batches) == 1
        (batch,) = packed.batches
        assert batch.n == 7
        assert batch.lanes == len(specs)
        assert sorted(idx for idx, _ in batch.items) == list(
            range(len(specs))
        )

    def test_pack_widths_respects_round_buckets(self):
        # n=4 resolves to 44 rounds (bucket 64), n=8 to 68 (bucket 128):
        # packing never merges across round budgets.
        specs = [_grouped(4, 0), _grouped(8, 0)]
        packed = plan_batches(list(enumerate(specs)), pack_widths=True)
        assert sorted(b.bucket for b in packed.batches) == [64, 128]
        assert sorted(b.n for b in packed.batches) == [4, 8]

    def test_pad_counters_live_on_the_deterministic_plane(self):
        from repro.engine.telemetry import Recorder

        specs = [_grouped(4, 0), _grouped(4, 1), _grouped(7, 0)]
        rec = Recorder()
        plan_batches(list(enumerate(specs)), pack_widths=True, recorder=rec)
        det = rec.snapshot()["deterministic"]["counters"]
        # Two n=4 lanes padded up to width 7.
        assert det["scheduler.padded_lane_width"] == 2 * 7
        assert det["scheduler.wasted_pad_cells"] == 2 * (49 - 16)
        # Without packing the counters are absent, not zero.
        rec2 = Recorder()
        plan_batches(list(enumerate(specs)), recorder=rec2)
        det2 = rec2.snapshot()["deterministic"]["counters"]
        assert "scheduler.padded_lane_width" not in det2
        assert "scheduler.wasted_pad_cells" not in det2

    def test_envelope_sized_from_padded_width(self):
        # The estimate_batch_bytes overflow regression: under packing the
        # --batch-memory envelope must bound the *padded* tensor program.
        # Sizing width from a narrow member's nominal n would overflow
        # the budget once that lane runs padded to the widest member.
        from repro.engine.scheduler import estimate_batch_bytes
        from repro.rounds.fastpath import lane_bytes

        rmax = _grouped(7, 0).resolved_max_rounds()  # 62
        budget = 3 * lane_bytes(7, rmax)
        specs = [_grouped(4, s) for s in range(6)] + [_grouped(7, 0)]
        packed = plan_batches(
            list(enumerate(specs)), batch_memory=budget, pack_widths=True
        )
        (batch,) = packed.batches
        assert batch.n == 7
        assert batch.width == default_batch_size(7, rmax, budget_bytes=budget)
        assert estimate_batch_bytes(batch.n, rmax, batch.width) <= budget
        # The buggy sizing (nominal n=4) would have claimed more width
        # than the padded program can afford.
        nominal = default_batch_size(
            4, _grouped(4, 0).resolved_max_rounds(), budget_bytes=budget
        )
        assert nominal > batch.width

    def test_estimate_batch_bytes_scales_with_lanes(self):
        from repro.engine.scheduler import estimate_batch_bytes
        from repro.rounds.fastpath import lane_bytes

        assert estimate_batch_bytes(7, 62) == lane_bytes(7, 62)
        assert estimate_batch_bytes(7, 62, lanes=3) == 3 * lane_bytes(7, 62)
        with pytest.raises(ValueError):
            estimate_batch_bytes(7, 62, lanes=0)

    def test_progress_reporter_split_batches_not_double_counted(self):
        # A batch whose lanes report in pieces (as when a failed batch
        # is retried as singleton chunks) completes exactly once and
        # the scenario total does not inflate.
        specs = [_grouped(6, s) for s in range(16)]
        plan = plan_batches(list(enumerate(specs)))
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=len(specs),
            plan=plan,
            stream=stream,
            interval=0.0,
            clock=lambda: 0.0,
        )
        items = plan.batches[0].items
        for half in (items[:8], items[8:]):
            for _, spec in half:
                reporter.update(ScenarioResult(spec=spec))
        lines = stream.getvalue().splitlines()
        assert lines[-1].startswith("[campaign] 16/16 scenarios (100%)")
        assert f"batch 1/{len(plan.batches)}" in lines[-1]
