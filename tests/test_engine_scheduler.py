"""The batch scheduler: planning, determinism, progress reporting.

Execution equivalence (compaction, refill, jobs/partition invariance)
lives in ``tests/test_batched_equivalence.py``; this file pins the
*planning* layer — global grouping, round-budget buckets, memory
envelopes, deterministic plans — and the plan-derived progress reporter.
"""

from __future__ import annotations

import io

import pytest

from repro.engine.backends import batch_compatible
from repro.engine.executor import ScenarioResult
from repro.engine.scenarios import ScenarioSpec
from repro.engine.scheduler import (
    BATCH_DEPTH,
    MIN_SPLIT_LANES,
    BatchPlan,
    ProgressReporter,
    plan_batches,
    round_bucket,
)
from repro.rounds.array_backend import _GATHER_MIN_N
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
    # Sparse n = 4..7 (7 lanes each) that the planner packs into one
    # padded group, interleaved spec by spec.
    "sparse-mixed-n": lambda: _with_singles(
        [_grouped(n, seed) for seed in range(7) for n in (6, 4, 7, 5)],
        every=11,
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
    def test_item_order_is_jobs_invariant(self, grid):
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

        serial = plan_batches(items, jobs=1)
        for jobs in (2, 3, 4, 8):
            plan = plan_batches(items, jobs=jobs)
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


def _hetero(n, i, seed):
    """Lane ``i`` of a HETERO-LAT mix: four noise-sweep lanes, one with
    a shrunk purge window, one without pruning."""
    if i % 6 == 5:
        return ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.35,
                            options=(("prune_unreachable", False),))
    if i % 6 == 4:
        return ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.35,
                            options=(("purge_window", n // 2),))
    return _grouped(n, seed, noise=(0.0, 0.15, 0.3, 0.45)[i % 4])


def _small_n_mix(count, ns=(4, 5, 6, 7, 8), base=0):
    """``count`` specs cycling through ``ns``, k = 1..3 and the grouped,
    crash, partition and static adversaries, as a small-n sweep does."""
    adversaries = ("grouped", "grouped", "crash", "partition", "static")
    specs = []
    for i in range(count):
        n, k = ns[i % len(ns)], 1 + (i // len(ns)) % 3
        adversary = adversaries[(i // (3 * len(ns))) % len(adversaries)]
        seed = base + i
        if adversary == "grouped":
            specs.append(ScenarioSpec(n=n, k=k, num_groups=k, seed=seed,
                                      noise=0.1 * (i % 4)))
        elif adversary == "crash":
            specs.append(ScenarioSpec(n=n, k=k, seed=seed, adversary="crash",
                                      options=(("f", k),)))
        else:
            specs.append(ScenarioSpec(n=n, k=k, seed=seed,
                                      adversary=adversary))
    return specs


#: Segments shaped like the repository benchmark's large-n, small-n
#: sweep and fleet workloads (each with its warm-up grid): every group
#: is either in the gather regime or at least MIN_SPLIT_LANES lanes.
PER_N_SEGMENTS = {
    "large-n": lambda: (
        [_hetero(24, i, i) for i in range(6)]
        + [_hetero(32, i, i) for i in range(12)]
        + [_grouped(48, 0)]
    ),
    "large-n-warmup": lambda: [
        _hetero(n, i, i) for n in (16, 20) for i in range(6)
    ],
    "small-n-sweep": lambda: _small_n_mix(1500),
    "fleet": lambda: _small_n_mix(1200, base=10**6),
    "small-n-warmup": lambda: _small_n_mix(150, ns=(9, 10)),
}


def _per_n_groups(specs):
    """Work-list indices grouped by ``(n, round bucket)`` in
    first-appearance order: the grouping without cross-n packing."""
    groups = {}
    for idx, spec in enumerate(specs):
        if batch_compatible(spec):
            key = (spec.n, round_bucket(spec.resolved_max_rounds()))
            groups.setdefault(key, []).append(idx)
    return list(groups.values())


def _plan_groups(plan):
    """The plan's groups (consecutive batches of one ``(n, bucket)``
    rejoined); every batch must hold one ``n`` only."""
    groups, last = [], None
    for batch in plan.batches:
        assert {spec.n for _, spec in batch.items} == {batch.n}
        if (batch.n, batch.bucket) != last:
            groups.append([])
            last = (batch.n, batch.bucket)
        groups[-1].extend(idx for idx, _ in batch.items)
    return groups


class TestCrossWidthPlanning:
    """The packing rule (within a round bucket, tiny dense-regime groups
    merge into one padded group; every other group keeps its own ``n``),
    the padded envelope, and batch splitting."""

    def test_sparse_small_n_grid_packs_into_one_batch_per_bucket(self):
        # n = 4..7 resolve inside the 64-round budget; the same widths
        # with a 200-round budget share the 256 bucket.
        specs = [
            _grouped(n, seed, max_rounds=rounds)
            for seed in range(2)
            for rounds in (None, 200)
            for n in (5, 7, 4, 6)
        ]
        plan = plan_batches(list(enumerate(specs)))
        assert [(b.bucket, b.n, b.lanes) for b in plan.batches] == [
            (64, 7, 8), (256, 7, 8),
        ]
        for batch in plan.batches:
            # Members keep first-appearance order.
            indices = [idx for idx, _ in batch.items]
            assert indices == sorted(indices)
            assert {spec.n for _, spec in batch.items} == {4, 5, 6, 7}

    def test_packing_respects_round_buckets(self):
        # n=4 resolves to 44 rounds (bucket 64), n=8 to 68 (bucket 128):
        # packing never merges across round budgets.
        specs = [_grouped(4, 0), _grouped(8, 0)]
        plan = plan_batches(list(enumerate(specs)))
        assert sorted(b.bucket for b in plan.batches) == [64, 128]
        assert sorted(b.n for b in plan.batches) == [4, 8]

    def test_group_of_min_split_lanes_keeps_its_own_n(self):
        specs = [_grouped(5, seed) for seed in range(MIN_SPLIT_LANES)]
        specs += [_grouped(n, seed) for seed in range(3) for n in (4, 6)]
        plan = plan_batches(list(enumerate(specs)))
        assert [(b.n, sorted({s.n for _, s in b.items}), b.lanes)
                for b in plan.batches] == [
            (5, [5], MIN_SPLIT_LANES), (6, [4, 6], 6),
        ]
        # One lane fewer and the n = 5 group joins the packed one.
        plan = plan_batches(list(enumerate(specs[1:])))
        assert [(b.n, b.lanes) for b in plan.batches] == [
            (6, MIN_SPLIT_LANES - 1 + 6),
        ]

    def test_gather_regime_groups_never_merge(self):
        # n = 24 and 32 share the 256-round bucket, but from the gather
        # threshold up padding only adds work: both keep their own n.
        specs = [_hetero(24, i, i) for i in range(6)]
        specs += [_hetero(32, i, i) for i in range(12)]
        assert specs[0].n >= _GATHER_MIN_N
        plan = plan_batches(list(enumerate(specs)))
        assert _plan_groups(plan) == _per_n_groups(specs)
        assert [b.n for b in plan.batches] == [24, 32]

    @pytest.mark.parametrize("segment", sorted(PER_N_SEGMENTS))
    def test_benchmark_shaped_segments_plan_per_n(self, segment):
        from repro.engine.telemetry import Recorder

        specs = PER_N_SEGMENTS[segment]()
        rec = Recorder()
        plan = plan_batches(list(enumerate(specs)), recorder=rec)
        assert _plan_groups(plan) == _per_n_groups(specs)
        det = rec.snapshot()["deterministic"]["counters"]
        assert "scheduler.padded_lane_width" not in det

    def test_pad_counters_live_on_the_deterministic_plane(self):
        from repro.engine.telemetry import Recorder

        specs = [_grouped(4, 0), _grouped(4, 1), _grouped(7, 0)]
        rec = Recorder()
        plan_batches(list(enumerate(specs)), recorder=rec)
        det = rec.snapshot()["deterministic"]["counters"]
        # Two n=4 lanes padded up to width 7.
        assert det["scheduler.padded_lane_width"] == 2 * 7
        assert det["scheduler.wasted_pad_cells"] == 2 * (49 - 16)
        # A plan that pads nothing records the counters absent, not
        # zero.
        rec2 = Recorder()
        plan_batches(list(enumerate(specs[:2])), recorder=rec2)
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
        packed = plan_batches(list(enumerate(specs)), batch_memory=budget)
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
