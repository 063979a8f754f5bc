"""Differential testing: the mega-batched backend vs vectorized vs reference.

The batched backend is the third execution engine for Algorithm 1
scenarios, and its correctness rests entirely on *exact* equivalence with
the other two: same decision rounds, same decision values, same skeleton
statistics, same canonical JSON line — for every scenario, under every
batch partition, at every worker count.  This suite pins that down three
ways:

* a **randomized differential grid** over ``n = 2..12`` × the four core
  adversary families (grouped, crash, partition, static) × noise /
  topology / ablation knobs, asserting canonical-line equality across all
  three backends (singleton and grouped batches);
* a **batching-invariance property**: for a fixed seed set, the results
  — including the journaled record bytes — are identical whatever the
  batch partition (sizes 1, 2, S, shuffled groupings) and identical
  between ``jobs=1`` and ``jobs=N`` runs;
* **family-level equivalence** for every registered family that supports
  the batched backend, including the ``eventual`` family's fast-result
  twin (extras and all) and the ``ablation`` family's per-arm routing;
* a **heterogeneous-latency grid** (mixed noise/adversary, so lanes of
  one batch retire at wildly different rounds) pinning that the batch
  scheduler's lane **compaction** and width **refill** are pure
  execution-shape knobs: canonical lines equal across all three
  backends, journal bytes invariant under compaction on/off, batch
  shuffle, a degenerate ``--batch-memory`` envelope and
  ``--jobs {1, 2, 4}``;
* a **wide-lane grid** at ``n = 16/24/32``, where the NumPy merge
  gathers only the ``PT_p`` senders: batched vs vectorized canonical
  lines (the single-lane kernel keeps the dense merge, an independent
  reference) and journal bytes under compaction on/off and a packed
  24 -> 32 batch.

``scripts/smoke.sh`` additionally byte-compares whole campaign summaries
produced by the three backends through the CLI on every change.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest

from repro.engine.backends import (
    BACKEND_AUTO,
    BACKEND_BATCHED,
    BACKEND_REFERENCE,
    BACKEND_VECTORIZED,
    batch_compatible,
    execute_scenario_batch,
    execute_scenario_vectorized,
    execute_scenario_with_backend,
)
from repro.engine.campaign import Campaign
from repro.engine.executor import execute_scenario, execute_scenarios
from repro.engine.registry import family_campaign, run_family
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import canonical_line, decode_result, journal_line
from repro.rounds.fastpath import (
    FastPathTask,
    default_batch_size,
    simulate_fastpath,
    simulate_fastpath_batch,
)


# ----------------------------------------------------------------------
# The randomized differential grid (seeded, so collection is stable)
# ----------------------------------------------------------------------
def _sample_spec(rng: np.random.Generator, n: int, adversary: str) -> ScenarioSpec:
    seed = int(rng.integers(0, 1000))
    if adversary == "grouped":
        k = int(rng.integers(1, min(4, n)))  # k < n
        m = int(rng.integers(1, k + 1))
        options = {}
        if rng.random() < 0.3:
            options["purge_window"] = int(rng.integers(2, n + 2))
        if rng.random() < 0.2:
            options["prune_unreachable"] = False
        if rng.random() < 0.3:
            options["quiet_period"] = int(rng.integers(2, 7))
        return ScenarioSpec(
            n=n,
            k=k,
            num_groups=m,
            seed=seed,
            noise=float(rng.choice([0.0, 0.15, 0.3, 0.45])),
            topology=str(rng.choice(["cycle", "star", "clique"])),
            options=tuple(sorted(options.items())),
        )
    if adversary == "crash":
        f = max(1, n // 3)
        return ScenarioSpec(
            n=n,
            k=min(2, n),
            seed=seed,
            adversary="crash",
            options=(("f", f),),
        )
    if adversary == "partition":
        k_env = int(rng.integers(1, max(2, n // 2 + 1)))
        return ScenarioSpec(
            n=n,
            k=k_env,
            seed=seed,
            adversary="partition",
            options=(("k_env", k_env),),
        )
    if adversary == "static":
        return ScenarioSpec(
            n=n,
            k=min(2, n),
            seed=seed,
            noise=float(rng.choice([0.0, 0.2, 0.5])),
            adversary="static",
        )
    raise AssertionError(adversary)


def _differential_grid() -> list[ScenarioSpec]:
    rng = np.random.default_rng(0xB10C)
    specs = []
    for n in range(2, 13):
        for adversary in ("grouped", "crash", "partition", "static"):
            specs.append(_sample_spec(rng, n, adversary))
    return specs


DIFFERENTIAL_GRID = _differential_grid()


class TestDifferentialGrid:
    """reference ≡ vectorized ≡ batched, scenario by scenario."""

    @pytest.mark.parametrize(
        "spec",
        DIFFERENTIAL_GRID,
        ids=lambda s: f"{s.adversary}-n{s.n}-{s.scenario_id}",
    )
    def test_three_backends_agree(self, spec):
        reference = execute_scenario(spec)
        vectorized = execute_scenario_vectorized(spec)
        batched = execute_scenario_with_backend(spec, BACKEND_BATCHED)
        assert reference.status == "ok", reference.error
        assert vectorized.status == "ok", vectorized.error
        assert batched.status == "ok", batched.error
        # One line covers every metric field and the decision values.
        line = canonical_line(reference)
        assert canonical_line(vectorized) == line
        assert canonical_line(batched) == line
        assert batched.backend == BACKEND_BATCHED

    def test_grouped_batches_match_reference(self):
        # The same grid, but batched the way the executor would batch it:
        # same-n groups through one mega-batched kernel call each.
        by_n: dict[int, list[ScenarioSpec]] = {}
        for spec in DIFFERENTIAL_GRID:
            by_n.setdefault(spec.n, []).append(spec)
        for n, group in by_n.items():
            batched = execute_scenario_batch(group)
            for spec, result in zip(group, batched):
                assert result.status == "ok", (n, result.error)
                assert canonical_line(result) == canonical_line(
                    execute_scenario(spec)
                ), f"n={n} spec={spec.scenario_id}"

    def test_journal_records_differ_only_in_backend_tag(self):
        spec = DIFFERENTIAL_GRID[0]
        reference = execute_scenario(spec)
        batched = execute_scenario_with_backend(spec, BACKEND_BATCHED)
        ref_record = json.loads(journal_line(reference))
        bat_record = json.loads(journal_line(batched))
        assert ref_record.pop("backend") == "reference"
        assert bat_record.pop("backend") == "batched"
        assert ref_record == bat_record

    def test_batched_journal_line_round_trips(self):
        spec = ScenarioSpec(n=6, k=2, num_groups=2, seed=1, noise=0.2)
        result = execute_scenario_with_backend(spec, BACKEND_BATCHED)
        decoded = decode_result(json.loads(journal_line(result)))
        assert decoded.backend == BACKEND_BATCHED
        assert canonical_line(decoded) == canonical_line(result)


# ----------------------------------------------------------------------
# Batching invariance: the partition must be invisible
# ----------------------------------------------------------------------
FIXED_SPECS = [
    ScenarioSpec(n=7, k=2, num_groups=2, seed=s, noise=0.25) for s in range(6)
] + [
    ScenarioSpec(n=5, k=2, num_groups=2, seed=s, noise=0.1) for s in range(4)
]


def _tasks(specs):
    tasks = []
    for spec in specs:
        adversary = spec.build_adversary()
        tasks.append(
            FastPathTask(
                adjacency=adversary.adjacency_stack,
                initial_values=tuple(range(spec.n)),
                max_rounds=spec.resolved_max_rounds(),
            )
        )
    return tasks


def _run_key(run):
    return (
        run.n,
        run.num_rounds,
        run.decided.tobytes(),
        run.decision_round.tobytes(),
        run.decision_value.tobytes(),
        run.adjacency.tobytes(),
    )


class TestBatchingInvariance:
    """Results and journal bytes are identical whatever the partition."""

    def test_kernel_partition_invariance(self):
        specs = [s for s in FIXED_SPECS if s.n == 7]
        singles = [
            simulate_fastpath(
                t.adjacency, list(t.initial_values), max_rounds=t.max_rounds
            )
            for t in _tasks(specs)
        ]
        expected = [_run_key(r) for r in singles]
        # Partitions: singletons, pairs, the whole set.
        for size in (1, 2, len(specs)):
            tasks = _tasks(specs)
            got = []
            for lo in range(0, len(tasks), size):
                got.extend(simulate_fastpath_batch(tasks[lo : lo + size]))
            assert [_run_key(r) for r in got] == expected, f"batch size {size}"

    def test_kernel_shuffled_grouping_invariance(self):
        specs = [s for s in FIXED_SPECS if s.n == 7]
        expected = {
            spec.scenario_id: _run_key(run)
            for spec, run in zip(
                specs, simulate_fastpath_batch(_tasks(specs))
            )
        }
        order = list(range(len(specs)))
        random.Random(7).shuffle(order)
        shuffled = [specs[i] for i in order]
        for spec, run in zip(
            shuffled, simulate_fastpath_batch(_tasks(shuffled))
        ):
            assert _run_key(run) == expected[spec.scenario_id]

    def test_executor_partition_and_jobs_invariance(self):
        serial = execute_scenarios(FIXED_SPECS, backend=BACKEND_BATCHED)
        expected = [journal_line(r) for r in serial]
        assert all(r.backend == BACKEND_BATCHED for r in serial)
        for jobs, chunksize in ((1, 2), (2, 1), (2, 3), (3, 4)):
            results = execute_scenarios(
                FIXED_SPECS,
                jobs=jobs,
                chunksize=chunksize,
                backend=BACKEND_BATCHED,
            )
            assert [journal_line(r) for r in results] == expected, (
                jobs,
                chunksize,
            )

    def test_campaign_journal_and_summary_bytes_jobs_invariant(self, tmp_path):
        blobs = {}
        for jobs in (1, 2, 3, 4):
            store = tmp_path / f"journal_j{jobs}.jsonl"
            campaign = Campaign(
                FIXED_SPECS, store=store, jobs=jobs, backend=BACKEND_BATCHED
            )
            report = campaign.run()
            assert report.errors == 0 and report.timeouts == 0
            summary = tmp_path / f"summary_j{jobs}.jsonl"
            campaign.write_summary(summary)
            # The pool releases results in plan order, which jobs does
            # not change: the journal bytes equal the serial run's.
            blobs[jobs] = (store.read_bytes(), summary.read_bytes())
        assert blobs[1] == blobs[2] == blobs[3] == blobs[4]

    def test_campaign_summaries_byte_identical_across_backends(self, tmp_path):
        payloads = {}
        for backend in (BACKEND_REFERENCE, BACKEND_VECTORIZED, BACKEND_BATCHED):
            campaign = Campaign(
                FIXED_SPECS,
                store=tmp_path / f"journal_{backend}.jsonl",
                backend=backend,
            )
            report = campaign.run()
            assert report.errors == 0 and report.timeouts == 0
            summary = tmp_path / f"summary_{backend}.jsonl"
            campaign.write_summary(summary)
            payloads[backend] = summary.read_bytes()
        assert payloads[BACKEND_REFERENCE] == payloads[BACKEND_VECTORIZED]
        assert payloads[BACKEND_REFERENCE] == payloads[BACKEND_BATCHED]

    def test_resume_across_batched_and_reference(self, tmp_path):
        # A journal written by the batched backend satisfies resume for
        # the reference backend (ids and metrics agree) and vice versa.
        store = tmp_path / "journal.jsonl"
        Campaign(FIXED_SPECS, store=store, backend=BACKEND_BATCHED).run()
        report = Campaign(
            FIXED_SPECS, store=store, backend=BACKEND_REFERENCE
        ).run()
        assert report.executed == 0
        assert report.skipped == report.total


# ----------------------------------------------------------------------
# Dispatch: segmentation, auto preference, isolation
# ----------------------------------------------------------------------
class TestBatchedDispatch:
    UNSUPPORTED = ScenarioSpec(
        n=7, k=2, adversary="crash", algorithm="floodmin", options=(("f", 1),)
    )

    def test_auto_prefers_batched(self):
        pair = [ScenarioSpec(n=6, k=2, num_groups=2, seed=s) for s in range(2)]
        results = execute_scenarios(pair, backend=BACKEND_AUTO)
        assert [r.backend for r in results] == ["batched", "batched"]

    def test_auto_singleton_tag_is_partition_independent(self):
        # A compatible singleton runs through the (one-lane) batch kernel
        # too, so the journaled provenance is a pure function of the spec
        # — a chunk boundary cutting an ensemble cannot change bytes.
        (result,) = execute_scenarios(
            [ScenarioSpec(n=6, k=2, num_groups=2, seed=0)],
            backend=BACKEND_AUTO,
        )
        assert result.backend == BACKEND_BATCHED

    def test_auto_journal_bytes_jobs_invariant(self):
        serial = execute_scenarios(FIXED_SPECS, backend=BACKEND_AUTO)
        expected = [journal_line(r) for r in serial]
        chunked = execute_scenarios(
            FIXED_SPECS, jobs=2, chunksize=1, backend=BACKEND_AUTO
        )
        assert [journal_line(r) for r in chunked] == expected

    def test_auto_mixed_worklist_preserves_order_and_metrics(self):
        specs = [
            ScenarioSpec(n=7, k=2, num_groups=2, seed=0, noise=0.2),
            ScenarioSpec(n=7, k=2, num_groups=2, seed=1, noise=0.2),
            self.UNSUPPORTED,
            ScenarioSpec(n=7, k=2, num_groups=2, seed=2, noise=0.2),
        ]
        results = execute_scenarios(specs, backend=BACKEND_AUTO)
        assert [r.scenario_id for r in results] == [
            s.scenario_id for s in specs
        ]
        assert [r.backend for r in results] == [
            "batched",
            "batched",
            "reference",
            "batched",
        ]
        for spec, result in zip(specs, results):
            assert canonical_line(result) == canonical_line(
                execute_scenario(spec)
            )

    def test_auto_falls_back_when_fastpath_rejects_lazily(self):
        # An adversary the fast path cannot drive (adjacency_stack raises
        # FastPathUnsupported) but the reference simulator can: under
        # auto the lane must fall back to the reference simulator — not
        # surface a forced-backend error — even when it was routed
        # through a mega-batch.
        from repro.adversaries.grouped import GroupedSourceAdversary
        from repro.engine.scenarios import register_adversary
        from repro.rounds.fastpath import FastPathUnsupported

        class _NoStack(GroupedSourceAdversary):
            def adjacency_stack(self, rounds, start=1):
                raise FastPathUnsupported("no vectorizable randomness")

        register_adversary(
            "no-stack-test",
            lambda spec: _NoStack(spec.n, num_groups=2, seed=spec.seed),
        )
        specs = [
            ScenarioSpec(n=6, k=2, adversary="no-stack-test", seed=s)
            for s in range(2)
        ]
        results = execute_scenarios(specs, backend=BACKEND_AUTO)
        assert [r.status for r in results] == ["ok", "ok"]
        assert [r.backend for r in results] == ["reference", "reference"]
        # A forced batched backend reports the same lanes as errors.
        forced = execute_scenarios(specs, backend=BACKEND_BATCHED)
        assert all(
            r.status == "error" and "FastPathUnsupported" in r.error
            for r in forced
        )

    def test_forced_batched_reports_unsupported_as_error(self):
        specs = [
            ScenarioSpec(n=7, k=2, num_groups=2, seed=0),
            self.UNSUPPORTED,
        ]
        good, bad = execute_scenarios(specs, backend=BACKEND_BATCHED)
        assert good.status == "ok" and good.backend == BACKEND_BATCHED
        assert bad.status == "error" and bad.backend == BACKEND_BATCHED
        assert "FastPathUnsupported" in bad.error

    def test_bad_lane_does_not_poison_batchmates(self):
        # An adversary whose construction fails yields one error record;
        # its same-n batchmates still execute (and stay exact).
        good = ScenarioSpec(n=6, k=2, num_groups=2, seed=0)
        bad = ScenarioSpec(n=6, k=2, num_groups=7, seed=0)  # m > n
        results = execute_scenario_batch([good, bad, good.with_options()])
        assert results[0].status == "ok"
        assert results[1].status == "error"
        assert canonical_line(results[0]) == canonical_line(
            execute_scenario(good)
        )

    def test_batch_compatible_predicate(self):
        assert batch_compatible(ScenarioSpec(n=5, k=2))
        assert not batch_compatible(self.UNSUPPORTED)
        # Custom-runner family without a fast twin: not batchable even
        # though its algorithm is fast-path-supported.
        figure1 = ScenarioSpec(
            n=10, k=3, adversary="figure1", max_rounds=9,
            options=(("family", "figure1"),),
        )
        assert not batch_compatible(figure1)

    def test_envelope_sized_for_largest_round_budget(self, monkeypatch):
        # The memory cap must account for the largest max_rounds sharing
        # a batch, not just the first spec's — the shared schedule stack
        # is (S, max-over-lanes-R, n, n).  The scheduler buckets round
        # budgets by power-of-two ceiling, so wildly different budgets
        # land in *different* batches and each width is computed from
        # its own group's largest budget.
        import repro.engine.scheduler as scheduler

        calls = []
        real = scheduler.default_batch_size

        def spy(n, rounds, budget_bytes=None):
            calls.append((n, rounds))
            return real(n, rounds, budget_bytes=budget_bytes)

        monkeypatch.setattr(scheduler, "default_batch_size", spy)
        specs = [
            ScenarioSpec(n=5, k=2, num_groups=2, seed=0, max_rounds=10),
            ScenarioSpec(n=5, k=2, num_groups=2, seed=1, max_rounds=500),
            ScenarioSpec(n=5, k=2, num_groups=2, seed=2, max_rounds=20),
        ]
        results = execute_scenarios(specs, backend=BACKEND_BATCHED)
        for spec, result in zip(specs, results):
            assert canonical_line(result) == canonical_line(
                execute_scenario(spec)
            )
        assert (5, 500) in calls
        # The 500-round lane must not have inflated the other groups'
        # schedule stacks: every width call saw its own group's budget.
        assert (5, 10) in calls and (5, 20) in calls

    def test_default_batch_size_envelope(self):
        assert default_batch_size(6, 56) >= 2
        assert default_batch_size(6, 56) <= 64
        # The envelope shrinks as lanes get heavier, never below 1.
        assert default_batch_size(200, 1220) >= 1
        assert default_batch_size(200, 1220) <= default_batch_size(6, 56)
        # --batch-memory plumbs straight into the budget: a tiny
        # envelope degrades the width to 1 lane, never below.
        assert default_batch_size(6, 56, budget_bytes=1) == 1
        assert default_batch_size(6, 56, budget_bytes=2**40) == 64
        with pytest.raises(ValueError):
            default_batch_size(0, 10)


# ----------------------------------------------------------------------
# Lane compaction: heterogeneous-latency batches, scheduler-planned
# ----------------------------------------------------------------------
def _hetero_grid() -> list[ScenarioSpec]:
    """A same-``n``-heavy grid whose lanes retire at wildly different
    rounds: quiet grouped lanes decide just past ``r > n`` while noisy,
    crashed and partitioned lanes straggle (some to their full round
    budget) — the worst case for mask-only batching, the target case
    for compaction.  The noise/adversary axes are *interleaved* so the
    historical contiguous-segment packing would also have fragmented it.
    """
    specs: list[ScenarioSpec] = []
    for seed in range(3):
        for n in (7, 9):
            specs.append(
                ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.0)
            )
            specs.append(
                ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.5)
            )
            specs.append(
                ScenarioSpec(
                    n=n, k=2, seed=seed, adversary="crash",
                    options=(("f", max(1, n // 3)),),
                )
            )
            specs.append(
                ScenarioSpec(
                    n=n, k=2, seed=seed, adversary="partition",
                    options=(("k_env", 2),),
                )
            )
            specs.append(
                ScenarioSpec(
                    n=n, k=2, num_groups=2, seed=seed, noise=0.3,
                    options=(("purge_window", n - 1),),
                )
            )
    return specs


HETERO_GRID = _hetero_grid()


class TestCompactionEquivalence:
    """Compaction and refill are pure execution-shape knobs: results,
    journal bytes and summaries are identical with compaction on/off,
    at any kernel width, under batch shuffle and at any jobs count."""

    def test_kernel_compaction_width_refill_equivalence(self):
        specs = [s for s in HETERO_GRID if s.n == 9]
        singles = [
            simulate_fastpath(
                t.adjacency, list(t.initial_values), max_rounds=t.max_rounds
            )
            for t in _tasks(specs)
        ]
        expected = [_run_key(r) for r in singles]
        for kwargs in (
            {"compact": False},
            {"compact": True},
            {"compact": True, "width": 3},
            {"compact": False, "width": 3},
            {"compact": True, "width": 1},
        ):
            got = simulate_fastpath_batch(_tasks(specs), **kwargs)
            assert [_run_key(r) for r in got] == expected, kwargs

    @pytest.mark.parametrize("compact", [True, False])
    def test_width_caps_concurrent_lanes(self, compact, monkeypatch):
        # The memory envelope is a hard cap in both modes: refill
        # (compact on) and generation drain (compact off) must never
        # run the kernel wider than ``width`` lanes.
        import repro.rounds.fastpath as fastpath

        specs = [s for s in HETERO_GRID if s.n == 9]
        n = 9
        peak = 0
        real = fastpath.batched_transitive_closure

        def spy(stack, **kwargs):
            nonlocal peak
            peak = max(peak, stack.shape[0] // n)
            return real(stack, **kwargs)

        monkeypatch.setattr(fastpath, "batched_transitive_closure", spy)
        singles = [
            simulate_fastpath(
                t.adjacency, list(t.initial_values), max_rounds=t.max_rounds
            )
            for t in _tasks(specs)
        ]
        peak = 0
        runs = simulate_fastpath_batch(
            _tasks(specs), width=3, compact=compact
        )
        assert peak <= 3
        assert [_run_key(r) for r in runs] == [_run_key(r) for r in singles]

    @pytest.mark.parametrize(
        "spec", HETERO_GRID, ids=lambda s: f"{s.adversary}-n{s.n}-{s.seed}"
    )
    def test_three_backends_agree_on_hetero_grid(self, spec):
        line = canonical_line(execute_scenario(spec))
        assert canonical_line(execute_scenario_vectorized(spec)) == line
        assert canonical_line(
            execute_scenario_with_backend(spec, BACKEND_BATCHED)
        ) == line

    def test_journal_bytes_invariant_under_compaction_and_shuffle(self):
        serial = execute_scenarios(HETERO_GRID, backend=BACKEND_BATCHED)
        expected = {
            r.scenario_id: journal_line(r) for r in serial
        }
        no_compact = execute_scenarios(
            HETERO_GRID, backend=BACKEND_BATCHED, compact=False
        )
        assert [journal_line(r) for r in no_compact] == [
            journal_line(r) for r in serial
        ]
        shuffled = list(HETERO_GRID)
        random.Random(11).shuffle(shuffled)
        for spec, result in zip(
            shuffled, execute_scenarios(shuffled, backend=BACKEND_BATCHED)
        ):
            assert journal_line(result) == expected[spec.scenario_id]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_journal_bytes_invariant_across_jobs(self, jobs):
        serial = execute_scenarios(HETERO_GRID, backend=BACKEND_BATCHED)
        results = execute_scenarios(
            HETERO_GRID, jobs=jobs, backend=BACKEND_BATCHED
        )
        assert [journal_line(r) for r in results] == [
            journal_line(r) for r in serial
        ]

    def test_hetero_summaries_byte_identical_across_backends(self, tmp_path):
        payloads = {}
        for backend in (BACKEND_REFERENCE, BACKEND_VECTORIZED, BACKEND_BATCHED):
            campaign = Campaign(
                HETERO_GRID,
                store=tmp_path / f"journal_{backend}.jsonl",
                backend=backend,
            )
            report = campaign.run()
            assert report.errors == 0 and report.timeouts == 0
            summary = tmp_path / f"summary_{backend}.jsonl"
            campaign.write_summary(summary)
            payloads[backend] = summary.read_bytes()
        assert payloads[BACKEND_REFERENCE] == payloads[BACKEND_VECTORIZED]
        assert payloads[BACKEND_REFERENCE] == payloads[BACKEND_BATCHED]

    def test_tiny_batch_memory_envelope_keeps_journal_bytes(self, tmp_path):
        # campaign run --batch-memory: a degenerate 1-MiB envelope packs
        # one-lane batches; journals must stay byte-identical.
        blobs = {}
        for label, batch_memory in (("default", None), ("tiny", 2**20)):
            store = tmp_path / f"journal_{label}.jsonl"
            campaign = Campaign(
                FIXED_SPECS,
                store=store,
                backend=BACKEND_BATCHED,
                batch_memory=batch_memory,
            )
            report = campaign.run()
            assert report.errors == 0 and report.timeouts == 0
            summary = tmp_path / f"summary_{label}.jsonl"
            campaign.write_summary(summary)
            blobs[label] = (
                sorted(store.read_text().splitlines()),
                summary.read_bytes(),
            )
        assert blobs["default"] == blobs["tiny"]

    def test_cli_batch_memory_flag(self, tmp_path, capsys):
        from repro.cli import main

        store_a = tmp_path / "a.jsonl"
        store_b = tmp_path / "b.jsonl"
        args = ["-n", "6", "-k", "2", "--seeds", "2", "--no-progress"]
        code_a = main(
            ["campaign", "run", "--store", str(store_a), "--backend",
             "batched", "--summary", str(tmp_path / "a_sum.jsonl")] + args
        )
        code_b = main(
            ["campaign", "run", "--store", str(store_b), "--backend",
             "batched", "--batch-memory", "1",
             "--summary", str(tmp_path / "b_sum.jsonl")] + args
        )
        assert code_a == 0 and code_b == 0
        assert sorted(store_a.read_text().splitlines()) == sorted(
            store_b.read_text().splitlines()
        )
        assert (tmp_path / "a_sum.jsonl").read_bytes() == (
            tmp_path / "b_sum.jsonl"
        ).read_bytes()


# ----------------------------------------------------------------------
# Registered families on the batched backend
# ----------------------------------------------------------------------
class TestFamilyBatched:
    PARAMS = {
        "termination": {"n": [5, 6], "seeds": 2},
        "sweeps": {"n": [5, 6], "k": [2], "seeds": 2, "noise": (0.1,)},
        "latency": {"n": [5, 6], "seeds": 2, "noise": (0.1,)},
        "eventual": {"n": [5], "bad_rounds": (0, 2, 5), "seeds": 1},
    }

    @pytest.mark.parametrize("family", sorted(PARAMS))
    def test_family_batched_matches_reference(self, family):
        params = self.PARAMS[family]
        reference = run_family(family, params, backend=BACKEND_REFERENCE)
        batched = run_family(family, params, backend=BACKEND_BATCHED)
        assert [canonical_line(r) for r in reference] == [
            canonical_line(r) for r in batched
        ]
        assert all(r.backend == BACKEND_BATCHED for r in batched)

    def test_eventual_twin_preserves_extras(self):
        params = self.PARAMS["eventual"]
        reference = run_family("eventual", params, backend=BACKEND_REFERENCE)
        batched = run_family("eventual", params, backend=BACKEND_BATCHED)
        for ref, bat in zip(reference, batched):
            assert ref.extras == bat.extras
            assert isinstance(bat.extra("all_decided_own"), bool)

    def test_ablation_auto_routes_vectorizable_arms(self):
        # The ablation family's non-hooked variants carry a fast twin:
        # under auto they ride the batched kernel while the invariant-
        # hook arm and the bespoke line-27 variant stay on the reference
        # simulator — with byte-identical canonical lines throughout.
        params = {"n": 6, "k": 2, "seeds": 2}
        reference = run_family("ablation", params, backend=BACKEND_REFERENCE)
        auto = run_family("ablation", params, backend=BACKEND_AUTO)
        assert [canonical_line(r) for r in reference] == [
            canonical_line(r) for r in auto
        ]
        by_variant: dict[str, set] = {}
        for r in auto:
            by_variant.setdefault(r.spec.opt("variant"), set()).add(r.backend)
        assert by_variant["paper (window=n, prune, PT-min)"] == {"batched"}
        assert by_variant["window=n/2"] == {"batched"}
        assert by_variant["no pruning"] == {"batched"}
        assert by_variant["window=2n"] == {"reference"}
        assert by_variant["min over all received"] == {"reference"}

    def test_ablation_batch_compatibility_is_per_arm(self):
        from repro.experiments.ablation import ablation_spec

        assert batch_compatible(
            ablation_spec("paper", 6, 2, 0, hooks=False)
        )
        assert not batch_compatible(ablation_spec("hooked", 6, 2, 0))
        assert not batch_compatible(
            ablation_spec("m", 6, 2, 0, min_over_all=True, hooks=False)
        )

    def test_partial_coverage_family_rejects_forced_fast_backends(self):
        # Partial fast-path coverage is auto-only: forcing batched or
        # vectorized on the ablation family is rejected up front (its
        # reference-only arms would come back as error records).
        with pytest.raises(ValueError, match="does not support"):
            family_campaign("ablation", backend=BACKEND_BATCHED)
        with pytest.raises(ValueError, match="does not support"):
            family_campaign("ablation", backend=BACKEND_VECTORIZED)


# ----------------------------------------------------------------------
# The static adversary registration (new differential-grid corner)
# ----------------------------------------------------------------------
class TestStaticAdversary:
    def test_spec_round_trips(self):
        spec = ScenarioSpec(n=6, k=2, adversary="static", seed=4, noise=0.3)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_declared_stable_equals_every_round(self):
        spec = ScenarioSpec(n=6, k=2, adversary="static", seed=4, noise=0.3)
        adversary = spec.build_adversary()
        stack = adversary.adjacency_stack(9)
        declared = adversary.declared_stable_matrix()
        assert np.array_equal(stack, np.broadcast_to(declared, stack.shape))

    def test_deterministic_from_seed(self):
        spec = ScenarioSpec(n=8, k=2, adversary="static", seed=11, noise=0.2)
        a = spec.build_adversary().adjacency_stack(5)
        b = spec.build_adversary().adjacency_stack(5)
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Cross-n packing
# ----------------------------------------------------------------------
MIXED_N_SPECS = [
    ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=0.2)
    for n in (4, 5, 6, 7)
    for s in range(6)
]


def _journal(specs, **kwargs) -> list[str]:
    """Journal lines of one batched run of ``specs``, in the order they
    are journaled (plan order), unsorted."""
    lines: list[str] = []
    execute_scenarios(
        specs, backend=BACKEND_BATCHED,
        on_result=lambda r: lines.append(journal_line(r)), **kwargs,
    )
    return lines


def _per_n_results(specs, recorder=None):
    """Batched results of each ``n``'s specs run as its own work list,
    back in ``specs`` order."""
    by_id = {}
    for n in sorted({spec.n for spec in specs}):
        part = [spec for spec in specs if spec.n == n]
        results = execute_scenarios(
            part, backend=BACKEND_BATCHED, recorder=recorder
        )
        by_id.update((r.scenario_id, r) for r in results)
    return [by_id[spec.scenario_id] for spec in specs]


@pytest.fixture(scope="module")
def mixed_n_serial_lines():
    """Journal lines of the serial batched run of :data:`MIXED_N_SPECS`,
    which the planner packs into one padded batch."""
    from repro.engine.scheduler import plan_batches

    plan = plan_batches(list(enumerate(MIXED_N_SPECS)))
    assert [(b.n, b.lanes) for b in plan.batches] == [(7, len(MIXED_N_SPECS))]
    return _journal(MIXED_N_SPECS)


class TestCrossWidthPacking:
    """Mixed-n grids through one padded tensor program: bit-identical."""

    def test_packed_kernel_matches_singletons(self):
        singles = [
            simulate_fastpath(
                t.adjacency, list(t.initial_values), max_rounds=t.max_rounds
            )
            for t in _tasks(MIXED_N_SPECS)
        ]
        expected = [_run_key(r) for r in singles]
        # Full-width mixed batch, a narrow refilling window, and the
        # narrow window without compaction: padding must be invisible.
        for kwargs in ({}, {"width": 3}, {"width": 3, "compact": False}):
            runs = simulate_fastpath_batch(_tasks(MIXED_N_SPECS), **kwargs)
            assert [_run_key(r) for r in runs] == expected, kwargs

    def test_packed_run_agrees_with_per_n_runs_and_other_backends(self):
        packed = execute_scenarios(MIXED_N_SPECS, backend=BACKEND_BATCHED)
        per_n = _per_n_results(MIXED_N_SPECS)
        for spec, result, own in zip(MIXED_N_SPECS, packed, per_n):
            assert result.status == "ok", result.error
            line = canonical_line(result)
            assert line == canonical_line(own)
            assert line == canonical_line(execute_scenario(spec))
            assert line == canonical_line(execute_scenario_vectorized(spec))

    # The jobs x compact product against the serial journal, unsorted:
    # serial and pool run one plan.
    @pytest.mark.parametrize(
        "jobs, compact",
        [
            combo
            for combo in itertools.product((1, 2, 4), (True, False))
            if combo != (1, True)
        ],
    )
    def test_journal_bytes_invariant_under_jobs_compaction(
        self, mixed_n_serial_lines, jobs, compact
    ):
        assert _journal(
            MIXED_N_SPECS, jobs=jobs, compact=compact
        ) == mixed_n_serial_lines

    def test_packed_deterministic_plane_matches_per_n_kernel_work(self):
        # Packing pads the *tensors*, never the per-lane programs: the
        # kernel's deterministic counters (rounds, decisions, RNG
        # fetches) equal the per-n runs' sum.
        from repro.engine.telemetry import Recorder

        packed, per_n = Recorder(), Recorder()
        execute_scenarios(
            MIXED_N_SPECS, backend=BACKEND_BATCHED, recorder=packed
        )
        _per_n_results(MIXED_N_SPECS, recorder=per_n)

        def kernel(rec):
            counters = rec.snapshot()["deterministic"]["counters"]
            return {
                k: v for k, v in counters.items() if k.startswith("kernel.")
            }

        assert kernel(packed) and kernel(packed) == kernel(per_n)

    def test_campaign_bytes_equal_per_n_campaigns(self, tmp_path):
        # MIXED_N_SPECS is in n order, so the per-n campaigns appending
        # to one journal write it in grid order, as the packed plan does.
        blobs = {}
        for name, parts in (
            ("packed", [MIXED_N_SPECS]),
            ("per-n", [[s for s in MIXED_N_SPECS if s.n == n]
                       for n in (4, 5, 6, 7)]),
        ):
            store = tmp_path / f"journal-{name}.jsonl"
            for part in parts:
                report = Campaign(
                    part, store=store, jobs=2, backend=BACKEND_BATCHED
                ).run()
                assert report.errors == 0 and report.timeouts == 0
            summary = tmp_path / f"summary-{name}.jsonl"
            Campaign(MIXED_N_SPECS, store=store).write_summary(summary)
            blobs[name] = (store.read_bytes(), summary.read_bytes())
        assert blobs["packed"] == blobs["per-n"]


# ----------------------------------------------------------------------
# Wide lanes: from n = 16 the NumPy merge gathers PT senders
# ----------------------------------------------------------------------
def _wide_grid() -> list[ScenarioSpec]:
    """HETERO-style lanes at n = 16, 24 and 32, the widths at which the
    batched kernel's NumPy merge gathers only the ``PT_p`` senders: per
    width a noise sweep, a shrunk purge window and a no-prune lane that
    runs to its full round budget.  n = 24 and 32 share one round
    bucket, but in the gather regime the planner keeps each on its own
    n."""
    specs: list[ScenarioSpec] = []
    for n in (16, 24, 32):
        for seed, noise in enumerate((0.0, 0.3)):
            specs.append(
                ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=noise)
            )
        specs.append(
            ScenarioSpec(
                n=n, k=2, num_groups=2, seed=2, noise=0.35,
                options=(("purge_window", n // 2),),
            )
        )
        specs.append(
            ScenarioSpec(
                n=n, k=2, num_groups=2, seed=3, noise=0.35,
                options=(("prune_unreachable", False),),
            )
        )
    return specs


WIDE_GRID = _wide_grid()


def _option_tasks(specs):
    """Like :func:`_tasks`, but with each spec's purge/prune options."""
    tasks = []
    for spec, plain in zip(specs, _tasks(specs)):
        options = dict(spec.options)
        tasks.append(
            FastPathTask(
                adjacency=plain.adjacency,
                initial_values=plain.initial_values,
                purge_window=options.get("purge_window"),
                prune_unreachable=options.get("prune_unreachable", True),
                max_rounds=plain.max_rounds,
            )
        )
    return tasks


class TestWideLaneEquivalence:
    """The gather merge is byte-identical to the dense merge of the
    single-lane kernel, under compaction, width caps and packing."""

    def test_batched_matches_vectorized(self):
        batched = execute_scenarios(WIDE_GRID, backend=BACKEND_BATCHED)
        for spec, result in zip(WIDE_GRID, batched):
            assert result.status == "ok", result.error
            assert canonical_line(result) == canonical_line(
                execute_scenario_vectorized(spec)
            ), spec

    def test_packed_kernel_matches_singletons(self):
        specs = [s for s in WIDE_GRID if s.n in (24, 32)]
        expected = []
        for task in _option_tasks(specs):
            expected.append(_run_key(simulate_fastpath(
                task.adjacency, list(task.initial_values),
                purge_window=task.purge_window,
                prune_unreachable=task.prune_unreachable,
                max_rounds=task.max_rounds,
            )))
        for kwargs in ({}, {"width": 3}, {"width": 3, "compact": False}):
            runs = simulate_fastpath_batch(_option_tasks(specs), **kwargs)
            assert [_run_key(r) for r in runs] == expected, kwargs

    def test_journal_bytes_invariant_under_compaction_and_jobs(self):
        from repro.engine.scheduler import plan_batches

        # The planner never pads a gather-regime lane.
        plan = plan_batches(list(enumerate(WIDE_GRID)))
        assert all(
            {spec.n for _, spec in batch.items} == {batch.n}
            for batch in plan.batches
        )
        expected = _journal(WIDE_GRID)
        for kwargs in ({"compact": False}, {"jobs": 2}):
            assert _journal(WIDE_GRID, **kwargs) == expected, kwargs


class TestSkeletonCache:
    """The cross-batch Psrcs/root-component LRU must stay invisible."""

    def test_journal_bytes_cache_invariant(self):
        from repro.engine.backends import SkeletonCache, skeleton_cache

        specs = MIXED_N_SPECS[:8]
        skeleton_cache.clear()
        cold = [journal_line(r) for r in execute_scenario_batch(specs)]
        assert skeleton_cache.misses > 0
        # Second pass: served from the memo, bytes unchanged.
        hits0 = skeleton_cache.hits
        warm = [journal_line(r) for r in execute_scenario_batch(specs)]
        assert warm == cold
        assert skeleton_cache.hits > hits0
        # A tiny cache that evicts constantly still changes nothing.
        import repro.engine.backends as backends_mod

        original = backends_mod.skeleton_cache
        backends_mod.skeleton_cache = SkeletonCache(max_entries=1)
        try:
            tiny = [journal_line(r) for r in execute_scenario_batch(specs)]
        finally:
            backends_mod.skeleton_cache = original
        assert tiny == cold

    def test_lru_bounds_and_counters(self):
        from repro.engine.backends import SkeletonCache

        cache = SkeletonCache(max_entries=2)
        assert cache.get("a", lambda: 1) == 1
        assert cache.get("b", lambda: 2) == 2
        assert cache.get("a", lambda: -1) == 1  # hit refreshes recency
        cache.get("c", lambda: 3)  # evicts "b", the least recent
        assert len(cache) == 2
        assert cache.get("b", lambda: 20) == 20  # recomputed: was evicted
        assert cache.hits == 1
        assert cache.misses == 4
        cache.clear()
        assert len(cache) == 0

    def test_hit_miss_counters_reach_the_volatile_plane(self):
        from repro.engine.backends import skeleton_cache
        from repro.engine.telemetry import Recorder

        specs = MIXED_N_SPECS[:6]
        skeleton_cache.clear()
        rec = Recorder()
        execute_scenario_batch(specs, recorder=rec)
        vol = rec.snapshot()["volatile"]
        assert vol["counters"]["backends.skeleton_cache_misses"] > 0
        assert vol["gauges"]["backends.skeleton_cache_entries"] >= 1
        # Deterministic plane untouched: the cache is an execution
        # detail, never part of the result contract.
        rec2 = Recorder()
        execute_scenario_batch(specs, recorder=rec2)
        assert rec2.snapshot()["volatile"]["counters"][
            "backends.skeleton_cache_hits"
        ] > 0
