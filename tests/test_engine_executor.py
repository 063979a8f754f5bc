"""Executor: metric fidelity, crash isolation, serial/parallel equality."""

from __future__ import annotations

import time

import pytest

from repro.analysis.properties import check_agreement_properties
from repro.analysis.stats import decision_stats
from repro.engine.executor import (
    default_chunksize,
    execute_scenario,
    execute_scenarios,
    require_ok,
)
from repro.engine.scenarios import ScenarioSpec
from repro.experiments.sweeps import run_algorithm1
from repro.graphs.condensation import root_components
from repro.predicates.psrcs import Psrcs


# Module-level so the pool can pickle it to a worker by reference.
def _chunk_out_of_memory(chunk, backend="reference"):
    raise MemoryError("worker infra failure")


def _chunk_hard_kill(chunk, backend="reference"):
    # Simulate the OOM killer / a segfaulting extension: the worker
    # vanishes without unwinding Python.  The sleep lets the harvest
    # loop observe the chunk running first (10ms poll), so the
    # running-chunk attribution is deterministic.
    import os
    import signal
    import time

    time.sleep(0.3)
    os.kill(os.getpid(), signal.SIGKILL)


class TestExecuteScenario:
    def test_metrics_match_direct_simulation(self):
        spec = ScenarioSpec(n=8, k=3, num_groups=3, seed=4, noise=0.2)
        result = execute_scenario(spec)
        run = run_algorithm1(spec.build_adversary())
        stats = decision_stats(run)
        report = check_agreement_properties(run, 3)
        stable = run.stable_skeleton()
        assert result.ok
        assert result.num_rounds == run.num_rounds
        assert result.root_components == len(root_components(stable))
        assert result.psrcs_holds == Psrcs(3).check_skeleton(stable).holds
        assert result.distinct_decisions == report.num_decision_values
        assert result.all_decided == report.termination.holds
        assert result.last_decision_round == stats.last_decision_round
        assert result.lemma11_bound == stats.lemma11_bound
        assert result.within_bound == stats.within_bound
        assert set(result.decision_values) == run.decision_values()

    def test_pure_function_of_spec(self):
        spec = ScenarioSpec(n=7, k=2, num_groups=2, seed=9, noise=0.3)
        assert execute_scenario(spec) == execute_scenario(spec)

    def test_infeasible_spec_becomes_error_result(self):
        # 7 groups cannot partition 5 processes: the builder raises, and
        # the executor contains it instead of propagating.
        result = execute_scenario(ScenarioSpec(n=5, num_groups=7))
        assert result.status == "error"
        assert "ValueError" in result.error
        assert result.num_rounds is None
        assert result.decision_values == ()

    def test_require_ok_surfaces_worker_errors(self):
        specs = [
            ScenarioSpec(n=5, num_groups=2, seed=0),
            ScenarioSpec(n=5, num_groups=7, seed=0),  # infeasible
        ]
        results = execute_scenarios(specs, jobs=1)
        with pytest.raises(RuntimeError, match="1/2 scenarios failed"):
            require_ok(results)
        assert require_ok(results[:1]) == results[:1]

    def test_baseline_algorithms_run(self):
        spec = ScenarioSpec(
            n=6, k=2, adversary="crash", algorithm="floodmin",
            max_rounds=40,
        ).with_options(f=2)
        result = execute_scenario(spec)
        assert result.ok and result.all_decided


class TestExecuteScenarios:
    SPECS = [
        ScenarioSpec(n=5, k=2, num_groups=g, seed=s, noise=0.1)
        for g in (1, 2)
        for s in range(4)
    ]

    def test_serial_preserves_order(self):
        results = execute_scenarios(self.SPECS, jobs=1)
        assert [r.spec for r in results] == self.SPECS

    def test_parallel_equals_serial(self):
        serial = execute_scenarios(self.SPECS, jobs=1)
        parallel = execute_scenarios(self.SPECS, jobs=2, chunksize=3)
        assert parallel == serial

    def test_parallel_contains_error_results(self):
        specs = [ScenarioSpec(n=5, num_groups=7, seed=s) for s in range(4)]
        results = execute_scenarios(specs, jobs=2, chunksize=1)
        assert all(r.status == "error" for r in results)
        assert [r.spec for r in results] == specs

    def test_on_result_called_for_every_spec(self):
        seen = []
        execute_scenarios(self.SPECS, jobs=2, on_result=seen.append)
        assert {r.scenario_id for r in seen} == {
            s.scenario_id for s in self.SPECS
        }

    @pytest.mark.parametrize(
        "num,jobs,expected",
        [(0, 4, 1), (7, 4, 1), (100, 4, 6), (100, 1, 25)],
    )
    def test_default_chunksize(self, num, jobs, expected):
        assert default_chunksize(num, jobs) == expected

    def test_empty_spec_list(self):
        assert execute_scenarios([], jobs=4) == []

    def test_deterministic_chunk_failure_is_terminal(self, monkeypatch):
        # A task that cannot be pickled fails identically on every
        # retry; the chunk must come back as a terminal "error" record
        # so a resumed campaign converges instead of retrying forever.
        import repro.engine.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_execute_chunk", lambda chunk: None
        )
        specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s)
                 for s in range(2)]
        results = execute_scenarios(specs, jobs=2)
        assert [r.status for r in results] == ["error", "error"]
        assert all("chunk failed" in r.error for r in results)

    def test_transient_chunk_failure_is_retriable(self, monkeypatch):
        # Transient infrastructure (a worker running out of memory) must
        # come back retriable, like a timeout, so a resumed campaign
        # re-runs the chunk instead of skipping it forever.
        import repro.engine.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_execute_chunk", _chunk_out_of_memory
        )
        specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s)
                 for s in range(2)]
        results = execute_scenarios(specs, jobs=2)
        assert [r.status for r in results] == ["timeout", "timeout"]
        assert all("MemoryError" in r.error for r in results)


class TestHardKilledWorkers:
    def test_broken_pool_is_terminal_without_timeout(self, monkeypatch):
        # A hard-killed worker (OOM killer, segfault) must surface as
        # BrokenProcessPool-style errors and complete the collection
        # loop — no ``timeout`` required, no eternal hang (the old
        # multiprocessing.Pool backend's known limit).  Chunks observed
        # running come back *terminal*; chunks still queued when the
        # pool broke never executed and stay retriable.
        import repro.engine.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_execute_chunk", _chunk_hard_kill
        )
        specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s)
                 for s in range(6)]
        results = execute_scenarios(specs, jobs=2, chunksize=1)
        assert [r.spec for r in results] == specs
        assert all("BrokenProcessPool" in r.error for r in results)
        assert all(r.status in ("error", "timeout") for r in results)
        # The two chunks executing when their workers died are terminal;
        # the trailing chunks never left the submission queue (the call
        # pipe holds at most workers + 1) and stay retriable.
        assert results[0].status == "error"
        assert results[-1].status == "timeout"

    def test_broken_pool_records_are_not_retried_on_resume(
        self, monkeypatch, tmp_path
    ):
        # Terminal means terminal: a resumed campaign must not re-run
        # the scenarios whose workers died.
        import repro.engine.executor as executor_module
        from repro.engine.campaign import Campaign

        monkeypatch.setattr(
            executor_module, "_execute_chunk", _chunk_hard_kill
        )
        specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s)
                 for s in range(2)]
        campaign = Campaign(specs, store=tmp_path / "j.jsonl", jobs=2)
        report = campaign.run()
        assert report.errors == 2
        monkeypatch.undo()
        campaign2 = Campaign(specs, store=tmp_path / "j.jsonl", jobs=2)
        report = campaign2.run()
        assert report.executed == 0 and report.skipped == 2


class TestTimeouts:
    # n=64 with Algorithm 1 runs for many seconds — plenty to outlive a
    # sub-second budget; the pool is terminated on exit, so these tests
    # do not wait for it.
    SLOW = ScenarioSpec(n=64, k=2, num_groups=2, noise=0.3)

    def test_timeout_enforced_even_with_jobs_1(self):
        # A timeout forces the pool backend: the serial loop cannot
        # interrupt a hung scenario in-process.
        result = execute_scenarios([self.SLOW, self.SLOW.with_options(x=1)],
                                   jobs=1, timeout=0.2)
        assert [r.status for r in result] == ["timeout", "timeout"]
        assert all("no result within" in r.error for r in result)

    def test_fast_chunks_journal_while_slow_chunk_hangs(self):
        fast = ScenarioSpec(n=4, k=2, num_groups=2)
        arrived = []
        results = execute_scenarios(
            [self.SLOW, fast],
            jobs=2,
            chunksize=1,
            timeout=2.0,
            on_result=lambda r: arrived.append(r.scenario_id),
        )
        # Grid order is restored in the return value...
        assert [r.spec for r in results] == [self.SLOW, fast]
        assert results[1].ok
        assert results[0].status == "timeout"
        # ...but the fast scenario was delivered (journaled) first, while
        # the slow chunk was still running.
        assert arrived[0] == fast.scenario_id


def _sleep_chunk(seconds):
    # Module-level so the pool can pickle it to a worker by reference.
    import time

    time.sleep(seconds)
    return "slept"


class TestWorkerPool:
    """The shared, rebuildable pool behind the campaign service."""

    SPECS = [
        ScenarioSpec(n=5, k=2, num_groups=2, seed=s, noise=0.1)
        for s in range(6)
    ]

    def test_shared_pool_matches_owned_pool_results(self):
        from repro.engine.executor import WorkerPool

        baseline = execute_scenarios(self.SPECS, jobs=2)
        pool = WorkerPool(2)
        try:
            first = execute_scenarios(self.SPECS, jobs=2, pool=pool)
            second = execute_scenarios(self.SPECS, jobs=2, pool=pool)
        finally:
            pool.close(terminate=True)
        assert first == baseline
        assert second == baseline

    def test_rebuild_skips_stale_generation(self):
        from repro.engine.executor import WorkerPool

        pool = WorkerPool(1)
        try:
            gen = pool.generation
            pool.rebuild(gen)
            assert pool.generation == gen + 1
            # A second victim of the *same* crash reports the old
            # generation: its rebuild must no-op instead of thrashing.
            assert pool.rebuild(gen) == 0
            assert pool.generation == gen + 1
        finally:
            pool.close(terminate=True)

    def test_closed_pool_refuses_work_and_rebuilds(self):
        from repro.engine.executor import WorkerPool

        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_sleep_chunk, 0.0)
        assert pool.rebuild() == 0

    def test_terminate_kills_workers_despite_inherited_sigterm_handler(
        self,
    ):
        """Regression: the CLI/daemon installs SIGTERM→KeyboardInterrupt
        before the pool forks its workers.  Fork copies that handler
        into the children, where the executor task loop swallows the
        interrupt as a task failure — so terminate() never killed a
        busy worker and every fast-shutdown path hung on the immortal
        process.  The worker initializer must reset the disposition."""
        import signal as _signal

        from repro.engine.executor import WorkerPool

        def _graceful(signum, frame):  # noqa: ARG001 — signal API
            raise KeyboardInterrupt

        previous = _signal.signal(_signal.SIGTERM, _graceful)
        try:
            pool = WorkerPool(1)
            handle = pool.submit(_sleep_chunk, 60.0)
            deadline = time.monotonic() + 10.0
            while not handle.running():
                assert time.monotonic() < deadline, "chunk never started"
                time.sleep(0.01)
            procs = list(pool._executor._processes.values())
            assert procs and all(p.is_alive() for p in procs)
            assert pool.close(terminate=True) >= 1
            deadline = time.monotonic() + 10.0
            while any(p.is_alive() for p in procs):
                assert (
                    time.monotonic() < deadline
                ), "terminate() left a worker alive (inherited handler)"
                time.sleep(0.05)
        finally:
            _signal.signal(_signal.SIGTERM, previous)


class TestStopAwareSleep:
    """The dispatch loop's idle wait (which also covers retry-backoff
    windows) must wake promptly when the stop signal flips — a daemon
    SIGTERM may land mid-backoff."""

    def test_wakes_early_when_stop_flips(self):
        import threading

        from repro.engine.executor import _stop_aware_sleep

        stop = threading.Event()
        threading.Timer(0.15, stop.set).start()
        t0 = time.monotonic()
        _stop_aware_sleep(30.0, stop.is_set)
        elapsed = time.monotonic() - t0
        assert elapsed < 2.0, f"slept {elapsed:.2f}s past the stop signal"

    def test_returns_immediately_when_already_stopped(self):
        from repro.engine.executor import _stop_aware_sleep

        t0 = time.monotonic()
        _stop_aware_sleep(30.0, lambda: True)
        assert time.monotonic() - t0 < 1.0

    def test_sleeps_fully_without_stop_signal(self):
        from repro.engine.executor import _stop_aware_sleep

        t0 = time.monotonic()
        _stop_aware_sleep(0.15, None)
        _stop_aware_sleep(0.15, lambda: False)
        assert time.monotonic() - t0 >= 0.25
