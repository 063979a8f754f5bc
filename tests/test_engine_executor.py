"""Executor: metric fidelity, crash isolation, serial/parallel equality."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.properties import check_agreement_properties
from repro.analysis.stats import decision_stats
from repro.engine.dispatch import default_chunksize, shard_path
from repro.engine.executor import (
    execute_scenario,
    execute_scenarios,
    require_ok,
)
from repro.engine.scenarios import ScenarioSpec
from repro.experiments.sweeps import run_algorithm1
from repro.graphs.condensation import root_components
from repro.predicates.psrcs import Psrcs


# Module-level so the pool can pickle it to a worker by reference.
def _chunk_out_of_memory(*_args):
    raise MemoryError("worker infra failure")


def _chunk_hard_kill(*_args):
    # Simulate the OOM killer / a segfaulting extension: the worker
    # vanishes without unwinding Python.
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_worker():
    os._exit(3)


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
            executor_module, "_execute_unit", lambda *_args: None
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
            executor_module, "_execute_unit", _chunk_out_of_memory
        )
        specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s)
                 for s in range(2)]
        results = execute_scenarios(specs, jobs=2)
        assert [r.status for r in results] == ["timeout", "timeout"]
        assert all("MemoryError" in r.error for r in results)


class TestHardKilledWorkers:
    def test_broken_pool_is_terminal_without_timeout(self, monkeypatch):
        # A hard-killed worker (OOM killer, segfault) must surface as
        # BrokenProcessPool errors and complete the run — no ``timeout``
        # required, no eternal hang.  Every unit kills the process it
        # runs on, so every unit ends terminal; the units queued behind
        # a killer re-run on the replacement process first.
        import repro.engine.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_execute_unit", _chunk_hard_kill
        )
        specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s)
                 for s in range(6)]
        results = execute_scenarios(specs, jobs=2, chunksize=1)
        assert [r.spec for r in results] == specs
        assert all("BrokenProcessPool" in r.error for r in results)
        assert [r.status for r in results] == ["error"] * 6

    def test_broken_pool_records_are_not_retried_on_resume(
        self, monkeypatch, tmp_path
    ):
        # Terminal means terminal: a resumed campaign must not re-run
        # the scenarios whose workers died.
        import repro.engine.executor as executor_module
        from repro.engine.campaign import Campaign

        monkeypatch.setattr(
            executor_module, "_execute_unit", _chunk_hard_kill
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


def _kill_victim_pair(seed: int = 0, rate: float = 0.5):
    """Two one-scenario work items of which a ``kill`` plan at ``seed``
    targets only the first."""
    from repro.engine.faults import FaultPlan

    plan = FaultPlan(seed=seed, kill=rate)
    specs = [ScenarioSpec(n=4, k=2, num_groups=2, seed=s) for s in range(40)]
    victim = next(s for s in specs if plan.wants("kill", s.scenario_id))
    innocent = next(
        s for s in specs if not plan.wants("kill", s.scenario_id)
    )
    return [victim, innocent]


class TestWorkerLossCharging:
    """A dead process is charged only to the unit it was running."""

    def test_unit_queued_behind_a_killer_runs_uncharged(self, tmp_path):
        from repro.engine import faults
        from repro.engine.executor import WorkerPool
        from repro.engine.faults import FaultPlan

        specs = _kill_victim_pair()
        FaultPlan.from_seed(
            0, kill=0.5, ledger=str(tmp_path / "kill.ledger")
        ).install()
        pool = WorkerPool(1)
        try:
            results = execute_scenarios(
                specs, jobs=1, chunksize=1, pool=pool, max_retries=0
            )
        finally:
            pool.close(terminate=True)
            faults.clear()
        # The killer ends terminal; the unit queued behind it never
        # started and completes on the replacement process.
        assert results[0].status == "error"
        assert "BrokenProcessPool" in results[0].error
        assert results[1].ok
        assert pool.generation == 1


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



class TestShardDurability:
    """Plan-order release holds a finished unit back behind a slower
    earlier one; the shard file keeps it durable across a crash."""

    def test_killed_coordinator_keeps_finished_later_unit(self, tmp_path):
        from repro.engine.campaign import Campaign
        from repro.engine.faults import FaultPlan
        from repro.engine.scenarios import ScenarioGrid
        from repro.engine.store import ResultStore

        axes = {"axes": {"n": [4], "k": [2], "seed": [0, 1],
                         "noise": [0.0]}}
        grid_json = tmp_path / "grid.json"
        grid_json.write_text(json.dumps(axes))
        specs = ScenarioGrid.from_dict(axes).expand()
        ids = [spec.scenario_id for spec in specs]
        # The first scenario stalls in its worker; the second does not.
        seed = next(
            s for s in range(500)
            if FaultPlan(seed=s, stall=0.5).victims("stall", ids) == ids[:1]
        )
        store = tmp_path / "journal.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             "--store", str(store), "--no-progress", "--jobs", "2",
             "--backend", "reference",
             "--faults", f"seed={seed},stall=0.5,stall_s=60",
             "--grid-json", str(grid_json)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            shard = shard_path(store)
            while not (shard.exists() and shard.read_text().endswith("\n")):
                assert proc.poll() is None, "campaign exited early"
                assert time.monotonic() < deadline, "no shard record"
                time.sleep(0.05)
        finally:
            # SIGKILL the coordinator and its pool: nothing unwinds.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert not store.exists() or ResultStore(store).load() == {}

        campaign = Campaign(specs, store=store)
        report = campaign.run(jobs=1)
        # The finished scenario came back from the shard; only the
        # stalled one ran again.
        assert report.executed == 1 and report.skipped == 1
        assert campaign.status().succeeded
        assert not shard.exists()


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

    def test_one_crash_replaces_its_process_once(self):
        # A dead process fails every call queued on it; however many
        # resubmits follow, the process is replaced exactly once.
        from repro.engine.executor import WorkerPool

        pool = WorkerPool(1)
        settled = []
        done = threading.Event()

        def on_done(future, was_running):
            settled.append(was_running)
            if len(settled) == 3:
                done.set()

        try:
            pool.submit(0, on_done, _exit_worker)
            for _ in range(2):
                pool.submit(0, on_done, _sleep_chunk, 0.0)
            assert done.wait(30)
            # Only the call the process was running is named its killer.
            assert sorted(settled) == [False, False, True]
            again = [
                pool.submit(0, lambda *_: None, _sleep_chunk, 0.0)
                for _ in range(3)
            ]
            assert [f.result(timeout=30) for f in again] == ["slept"] * 3
            assert pool.generation == 1
        finally:
            pool.close(terminate=True)

    def test_concurrent_campaigns_share_a_pool_exactly(self):
        # Four dispatching threads (more than cores) share two pool
        # processes under a short switch interval: a lost update to the
        # pool's per-process bookkeeping would hang a run or reorder
        # its journal lines.
        import sys

        from repro.engine.executor import WorkerPool
        from repro.engine.store import journal_line

        specs = [ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=0.1)
                 for n in (5, 6, 7) for s in range(4)]
        expected = []
        execute_scenarios(specs, backend="batched",
                          on_result=lambda r: expected.append(journal_line(r)))
        lines = {i: [] for i in range(4)}
        pool = WorkerPool(2)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=execute_scenarios, args=(specs,),
                                 kwargs=dict(
                                     jobs=2, chunksize=1, backend="batched",
                                     pool=pool, on_result=lambda r, i=i:
                                     lines[i].append(journal_line(r))))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            pool.close(terminate=True)
        assert all(lines[i] == expected for i in range(4))
        assert pool.generation == 0

    def test_closed_pool_refuses_work(self):
        from repro.engine.executor import WorkerPool

        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, lambda *_: None, _sleep_chunk, 0.0)
        assert pool.close() == 0

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
            handle = pool.submit(0, lambda *_: None, _sleep_chunk, 60.0)
            deadline = time.monotonic() + 10.0
            while not handle.running():
                assert time.monotonic() < deadline, "chunk never started"
                time.sleep(0.01)
            procs = list(pool._slots[0].executor._processes.values())
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
