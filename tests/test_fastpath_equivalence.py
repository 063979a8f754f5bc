"""Kernel equivalence: the single-lane fast path vs the reference simulator.

The fast path's contract is *exactness*, not approximation: for every
scenario it supports, all summary metrics — decision rounds, distinct
decision values, violation flags, stabilization, Lemma-11 bounds — must
equal the reference :class:`~repro.rounds.simulator.RoundSimulator` result
bit for bit, which this suite asserts via the canonical JSON line (one
comparison covering every metric field at once).  A randomized grid sweeps
``n ∈ 2..12``, all three registry adversary families, noise levels,
topologies, seeds and Algorithm 1's ablation knobs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.base import RecordedAdversary
from repro.adversaries.crash import CrashAdversary
from repro.adversaries.eventual import EventuallyGoodAdversary
from repro.adversaries.grouped import GroupedSourceAdversary
from repro.adversaries.partition import PartitionAdversary
from repro.adversaries.static import StaticAdversary
from repro.engine.backends import (
    BACKEND_AUTO,
    BACKEND_BATCHED,
    BACKEND_REFERENCE,
    _fast_builder,
    _stock_result,
    batch_compatible,
    execute_scenario_with_backend,
    simulate_single_lane,
)
from repro.engine.campaign import Campaign
from repro.engine.executor import execute_scenario, execute_scenarios
from repro.engine.scenarios import ScenarioGrid, ScenarioSpec, termination_grid
from repro.engine.store import canonical_line, decode_result, journal_line
from repro.core.algorithm import SkeletonAgreementProcess
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import to_adjacency
from repro.rounds.fastpath import (
    FastPathTask,
    FastPathUnsupported,
    simulate_fastpath,
    simulate_fastpath_batch,
)
from repro.rounds.simulator import RoundSimulator, SimulationConfig


def assert_equivalent(spec: ScenarioSpec) -> None:
    reference = execute_scenario(spec)
    assert reference.status == "ok", reference.error
    # One line covers every metric field and the decision values.
    assert canonical_line(reference) == canonical_line(
        _stock_result(spec, *simulate_single_lane(spec))
    )


class TestScenarioEquivalence:
    GROUPED = [
        ScenarioSpec(
            n=n, k=k, num_groups=m, seed=seed, noise=noise, topology=topology
        )
        for n in (2, 3, 5, 7, 9, 12)
        for k, m in ((1, 1), (2, 2), (3, 2), (3, 3))
        if m <= min(k, n) and k < n
        for seed in (0, 1)
        for noise, topology in (
            (0.0, "cycle"),
            (0.2, "cycle"),
            (0.35, "star"),
            (0.15, "clique"),
        )
    ]

    @pytest.mark.parametrize(
        "spec", GROUPED, ids=lambda s: s.scenario_id
    )
    def test_grouped_family(self, spec):
        assert_equivalent(spec)

    @pytest.mark.parametrize("n,f", [(3, 1), (5, 2), (8, 3), (11, 4)])
    def test_crash_family(self, n, f):
        assert_equivalent(
            ScenarioSpec(n=n, k=2, adversary="crash", options=(("f", f),))
        )

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (9, 4), (12, 5)])
    def test_partition_family(self, n, k):
        assert_equivalent(
            ScenarioSpec(
                n=n, k=k, adversary="partition", options=(("k_env", k),)
            )
        )

    @pytest.mark.parametrize("purge_window", [2, 4, 9])
    @pytest.mark.parametrize("prune_unreachable", [True, False])
    def test_ablation_knobs(self, purge_window, prune_unreachable):
        assert_equivalent(
            ScenarioSpec(
                n=9,
                k=3,
                num_groups=3,
                seed=1,
                noise=0.25,
                options=(
                    ("prune_unreachable", prune_unreachable),
                    ("purge_window", purge_window),
                ),
            )
        )

    def test_quiet_period_knob(self):
        assert_equivalent(
            ScenarioSpec(
                n=8, k=2, num_groups=2, seed=3, noise=0.4,
                options=(("quiet_period", 3),),
            )
        )

    def test_max_rounds_cap_respected(self):
        # A tight cap can stop the run before everyone decided; both
        # backends must report the identical truncated prefix.
        assert_equivalent(
            ScenarioSpec(n=9, k=1, num_groups=1, seed=0, max_rounds=4)
        )

    def test_chunked_merge_buffer_path(self, monkeypatch):
        # Large n processes the lines-14-23 merge in owner blocks to cap
        # the (owners, n, n, n) intermediate; force the multi-block path
        # on a small scenario and require identical results.
        import repro.rounds.fastpath as fastpath_module

        monkeypatch.setattr(fastpath_module, "_MERGE_BUF_BYTES", 1)
        assert_equivalent(
            ScenarioSpec(n=7, k=2, num_groups=2, seed=4, noise=0.2)
        )


class TestReferenceDefaults:
    """Both kernels hard-wire the reference simulator's defaults: every
    process hears from itself each round, and the run stops at the
    first round after which every process has decided."""

    BUDGET = 30
    # Self-loop-free graphs, each with the decision rounds it yields,
    # all long before the budget: in the chain (0 -> 1, 1 <-> 2) the
    # processes decide one round apart, in the 4-ring all in round 5.
    SCHEDULES = {
        "chain": ((0, 1), (1, 2), (2, 1)),
        "ring": ((0, 1), (1, 2), (2, 3), (3, 0)),
    }
    DECISION_ROUNDS = {
        "chain": {0: 4, 1: 5, 2: 6},
        "ring": {0: 5, 1: 5, 2: 5, 3: 5},
    }

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("kernel", ["single", "batched"])
    def test_self_loop_free_schedule_runs_as_the_reference(
        self, kernel, schedule
    ):
        edges = self.SCHEDULES[schedule]
        n = 1 + max(max(edge) for edge in edges)
        values = tuple(range(7, 7 - 2 * n, -2))
        graph = DiGraph(nodes=range(n))
        for u, v in edges:
            graph.add_edge(u, v)
        adversary = StaticAdversary(n, graph, self_loops=False)
        config = SimulationConfig(max_rounds=self.BUDGET)
        assert config.enforce_self_delivery and config.stop_when_all_decided
        processes = [
            SkeletonAgreementProcess(p, n, v) for p, v in enumerate(values)
        ]
        reference = RoundSimulator(processes, adversary, config).run()
        stack = adversary.adjacency_stack(self.BUDGET)
        assert not stack[:, range(n), range(n)].any()
        if kernel == "single":
            run = simulate_fastpath(stack, list(values))
        else:
            (run,) = simulate_fastpath_batch(
                [FastPathTask(adjacency=stack, initial_values=values)]
            )
        expected = self.DECISION_ROUNDS[schedule]
        assert run.decision_rounds() == reference.decision_rounds()
        assert run.decision_rounds() == expected
        assert run.num_rounds == reference.num_rounds == max(expected.values())
        assert run.decision_values() == reference.decision_values()
        # The recorded graphs carry the enforced self-loops.
        assert np.array_equal(
            run.adjacency,
            np.stack([
                to_adjacency(reference.graph(r), n)
                for r in range(1, reference.num_rounds + 1)
            ]),
        )


class TestCampaignEquivalence:
    GRID = ScenarioGrid(
        n=[4, 6, 8],
        k=[2, 3],
        num_groups=[1, 2],
        seed=range(3),
        noise=[0.0, 0.2],
        where=[lambda s: s["k"] < s["n"]],
    )

    def test_summaries_byte_identical_across_backends(self, tmp_path):
        paths = {}
        for backend in (BACKEND_REFERENCE, BACKEND_BATCHED):
            campaign = Campaign(
                self.GRID,
                store=tmp_path / f"journal_{backend}.jsonl",
                backend=backend,
            )
            report = campaign.run()
            assert report.errors == 0 and report.timeouts == 0
            summary = tmp_path / f"summary_{backend}.jsonl"
            campaign.write_summary(summary)
            paths[backend] = summary.read_bytes()
        assert paths[BACKEND_REFERENCE] == paths[BACKEND_BATCHED]

    def test_journal_records_tag_backend_but_summary_does_not(self, tmp_path):
        store = tmp_path / "journal.jsonl"
        campaign = Campaign(
            ScenarioGrid(n=[4], k=[2], num_groups=[2], seed=[0]),
            store=store,
            backend=BACKEND_BATCHED,
        )
        campaign.run()
        journal_record = store.read_text().strip()
        assert '"backend":"batched"' in journal_record
        summary = tmp_path / "summary.jsonl"
        campaign.write_summary(summary)
        assert '"backend"' not in summary.read_text()
        # The decoded record keeps the provenance.
        assert campaign.completed_results()[0].backend == "batched"

    def test_resume_across_backends(self, tmp_path):
        # A journal written by one backend satisfies resume for the other
        # (content-hash ids and metrics agree), so nothing re-executes.
        store = tmp_path / "journal.jsonl"
        grid = ScenarioGrid(n=[4, 5], k=[2], num_groups=[2], seed=range(2))
        Campaign(grid, store=store, backend=BACKEND_BATCHED).run()
        report = Campaign(grid, store=store, backend=BACKEND_REFERENCE).run()
        assert report.executed == 0
        assert report.skipped == report.total

    def test_execute_scenarios_backend_parallel_matches_serial(self):
        specs = termination_grid(ns=[4, 6], seeds=range(3), noise=0.2)
        serial = execute_scenarios(specs, jobs=1, backend=BACKEND_BATCHED)
        parallel = execute_scenarios(specs, jobs=2, backend=BACKEND_BATCHED)
        assert [canonical_line(r) for r in serial] == [
            canonical_line(r) for r in parallel
        ]


class TestBackendDispatch:
    UNSUPPORTED = ScenarioSpec(
        n=5, k=2, adversary="crash", algorithm="floodmin",
        options=(("f", 1),),
    )

    def test_builder_lookup_raises_for_unsupported_algorithm(self):
        assert not batch_compatible(self.UNSUPPORTED)
        with pytest.raises(FastPathUnsupported, match="has no fast path"):
            _fast_builder(self.UNSUPPORTED)

    def test_auto_falls_back_to_reference(self):
        result = execute_scenario_with_backend(self.UNSUPPORTED, BACKEND_AUTO)
        assert result.status == "ok"
        assert result.backend == "reference"
        assert canonical_line(result) == canonical_line(
            execute_scenario(self.UNSUPPORTED)
        )

    def test_auto_uses_fastpath_when_supported(self):
        spec = ScenarioSpec(n=5, k=2, num_groups=2, seed=1)
        result = execute_scenario_with_backend(spec, BACKEND_AUTO)
        assert result.backend == "batched"
        assert result.status == "ok"

    def test_forced_batched_reports_unsupported_as_error(self):
        result = execute_scenario_with_backend(
            self.UNSUPPORTED, BACKEND_BATCHED
        )
        assert result.status == "error"
        assert result.error == (
            "FastPathUnsupported: algorithm 'floodmin' has no fast path"
        )
        assert result.backend == "batched"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            execute_scenario_with_backend(
                ScenarioSpec(n=4, k=2), "warp-drive"
            )

    def test_non_integer_proposals_unsupported(self):
        adv = GroupedSourceAdversary(3, num_groups=1)
        with pytest.raises(FastPathUnsupported):
            simulate_fastpath(
                adv.adjacency_stack, ["a", "b", "c"], max_rounds=10
            )

    def test_journal_line_round_trips_backend(self):
        spec = ScenarioSpec(n=4, k=2, num_groups=2, seed=0)
        result = execute_scenario_with_backend(spec, BACKEND_BATCHED)
        decoded = decode_result(
            __import__("json").loads(journal_line(result))
        )
        assert decoded.backend == "batched"
        assert canonical_line(decoded) == canonical_line(result)


class TestAdjacencyStack:
    """Determinism and exactness of the adversaries' batch schedule API."""

    FACTORIES = {
        "grouped": lambda: GroupedSourceAdversary(
            7, num_groups=3, seed=5, noise=0.3, quiet_period=4
        ),
        "grouped-quiet": lambda: GroupedSourceAdversary(
            5, num_groups=2, seed=2, noise=0.0
        ),
        "crash": lambda: CrashAdversary(6, {0: 2, 3: 4}, seed=9),
        "crash-clean": lambda: CrashAdversary(5, {1: 3}, seed=1, clean=True),
        "partition": lambda: PartitionAdversary(8, 3),
        "static": lambda: StaticAdversary(
            6,
            GroupedSourceAdversary(6, num_groups=2).declared_stable_graph(),
        ),
        # Bad prefix then delegation to the good adversary's batch API.
        "eventual": lambda: EventuallyGoodAdversary(
            GroupedSourceAdversary(6, num_groups=2, seed=3, noise=0.2),
            bad_rounds=4,
        ),
        # No override — exercises the base-class fallback through graph().
        "fallback": lambda: RecordedAdversary(
            GroupedSourceAdversary(6, num_groups=2, seed=7, noise=0.25)
        ),
    }

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_matches_per_round_graphs(self, family):
        adv = self.FACTORIES[family]()
        rounds = 17
        stack = adv.adjacency_stack(rounds)
        assert stack.shape == (rounds, adv.n, adv.n)
        assert stack.dtype == np.bool_
        for r in range(1, rounds + 1):
            assert np.array_equal(
                stack[r - 1], to_adjacency(adv.graph(r), adv.n)
            ), f"round {r}"

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_same_seed_same_tensor(self, family):
        a = self.FACTORIES[family]().adjacency_stack(13)
        b = self.FACTORIES[family]().adjacency_stack(13)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_blocks_concatenate_to_full_stack(self, family):
        # The fast path pulls the schedule in blocks; block boundaries
        # must be invisible (same RNG streams regardless of chunking).
        adv = self.FACTORIES[family]()
        full = adv.adjacency_stack(15)
        pieces = np.concatenate(
            [
                self.FACTORIES[family]().adjacency_stack(4, start=1),
                self.FACTORIES[family]().adjacency_stack(7, start=5),
                self.FACTORIES[family]().adjacency_stack(4, start=12),
            ]
        )
        assert np.array_equal(full, pieces)

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_per_batch_blocks_match_per_scenario_blocks(self, family):
        # The mega-batched kernel pulls every lane's schedule through its
        # own adversary, but in a *different* access pattern than the
        # per-scenario path: lane pulls interleave and block boundaries
        # land wherever the whole batch needs rounds.  RNG-stream
        # identity must survive that — each pull is a pure function of
        # (count, start), never of pull history or other lanes' pulls.
        full_a = self.FACTORIES[family]().adjacency_stack(16)
        full_b = self.FACTORIES[family]().adjacency_stack(16)
        lane_a = self.FACTORIES[family]()
        lane_b = self.FACTORIES[family]()
        pieces_a, pieces_b = [], []
        # Interleaved, unevenly-sized pulls (the batched fetch pattern).
        for start, count in ((1, 7), (8, 2), (10, 7)):
            pieces_a.append(lane_a.adjacency_stack(count, start=start))
            pieces_b.append(lane_b.adjacency_stack(count, start=start))
        assert np.array_equal(np.concatenate(pieces_a), full_a)
        assert np.array_equal(np.concatenate(pieces_b), full_b)
        # Two same-seeded lanes of one batch observe the same run.
        assert np.array_equal(full_a, full_b)

    def test_batched_kernel_observes_per_scenario_schedule(self):
        # End to end: the adjacency prefix a batched lane records equals
        # the per-scenario kernel's, block boundaries and all.
        from repro.rounds.fastpath import (
            FastPathTask,
            simulate_fastpath_batch,
        )

        specs = [
            ScenarioSpec(n=6, k=2, num_groups=2, seed=s, noise=0.3)
            for s in range(4)
        ]
        tasks = [
            FastPathTask(
                adjacency=spec.build_adversary().adjacency_stack,
                initial_values=tuple(range(spec.n)),
                max_rounds=spec.resolved_max_rounds(),
            )
            for spec in specs
        ]
        batch = simulate_fastpath_batch(tasks)
        for spec, lane in zip(specs, batch):
            single = simulate_fastpath(
                spec.build_adversary().adjacency_stack,
                list(range(spec.n)),
                max_rounds=spec.resolved_max_rounds(),
            )
            assert lane.num_rounds == single.num_rounds
            assert np.array_equal(lane.adjacency, single.adjacency)

    def test_rounds_are_one_indexed(self):
        adv = self.FACTORIES["grouped"]()
        with pytest.raises(ValueError):
            adv.adjacency_stack(3, start=0)
        with pytest.raises(ValueError):
            adv.adjacency_stack(-1)

    def test_zero_rounds_is_empty(self):
        stack = self.FACTORIES["partition"]().adjacency_stack(0)
        assert stack.shape == (0, 8, 8)

    def test_declared_stable_matrix_matches_graph(self):
        adv = self.FACTORIES["grouped"]()
        assert np.array_equal(
            adv.declared_stable_matrix(),
            to_adjacency(adv.declared_stable_graph(), adv.n),
        )
