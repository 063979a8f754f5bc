"""The one dispatcher behind the pool and the fleet, driven by fake
workers: no process or socket is started, so every failure path —
backoff order, singleton splits, loss charging, the deadline cut, the
stop drain and plan-order release — is exercised exactly."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.engine.contracts import ContractViolation
from repro.engine.dispatch import Dispatcher, Unit, retry_delay
from repro.engine.executor import ExecutionStopped, ScenarioResult
from repro.engine.scenarios import ScenarioSpec


def _specs(count: int) -> list[ScenarioSpec]:
    return [ScenarioSpec(n=4, k=2, num_groups=2, seed=s) for s in range(count)]


def _chunks(specs, size=1) -> list[Unit]:
    indexed = list(enumerate(specs))
    return [Unit("chunk", indexed[i:i + size])
            for i in range(0, len(indexed), size)]


def _ok(attempt) -> tuple:
    pairs = [(idx, ScenarioResult(spec=spec)) for idx, spec in attempt.unit.items]
    return pairs, None


class FakeWorker:
    """A dispatch worker whose behaviour is a function of the attempt.

    ``behave(worker, attempt)`` runs inside ``submit`` and may report at
    once, later (from a timer) or never."""

    def __init__(self, name="f0", capacity=1, loss_is_terminal=True,
                 behave=None) -> None:
        self.name = name
        self.capacity = capacity
        self.loss_is_terminal = loss_is_terminal
        self.alive = True
        self.behave = behave or (lambda w, a: a.report("done", _ok(a)))
        self.submitted: list = []  # (first index, tries, time)
        self.cuts: list = []

    def submit(self, attempt) -> None:
        self.submitted.append(
            (attempt.unit.items[0][0], attempt.tries, time.monotonic())
        )
        self.behave(self, attempt)

    def cut(self, attempt) -> bool:
        self.cuts.append(attempt.unit.items[0][0])
        return True

    def pending(self) -> int:
        return 0

    def describe(self) -> dict:
        return {"worker": self.name}


def _run(units, workers, **kw):
    delivered = []
    dispatcher = Dispatcher(
        units, workers, backend="reference", telemetry="executor",
        on_result=delivered.append, **kw,
    )
    return dispatcher, dispatcher.run(), delivered


class TestPlanOrderRelease:
    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_completions_deliver_in_plan_order(self, seed):
        rng = random.Random(seed)
        specs = _specs(12)
        units = _chunks(specs, size=2)
        rng.shuffle(units)  # plan order is the unit order, not grid order
        order = [idx for unit in units for idx, _ in unit.items]

        def later(worker, attempt):
            delay = rng.random() * 0.02
            threading.Timer(
                delay, attempt.report, args=("done", _ok(attempt))
            ).start()

        workers = [FakeWorker(f"f{i}", capacity=2, behave=later)
                   for i in range(3)]
        _, results, delivered = _run(units, workers)
        assert [r.spec for r in delivered] == [specs[i] for i in order]
        assert sorted(results) == list(range(12))


class TestFailurePolicy:
    def test_deterministic_unit_error_is_terminal_without_retry(self):
        worker = FakeWorker(behave=lambda w, a: a.report(
            "error", ("PicklingError", "cannot pickle")))
        _, results, _ = _run(_chunks(_specs(1)), [worker], max_retries=3)
        assert results[0].status == "error"
        assert results[0].error == "chunk failed: PicklingError: cannot pickle"
        assert len(worker.submitted) == 1

    def test_transient_unit_error_retries_then_journals_retriable(self):
        worker = FakeWorker(behave=lambda w, a: a.report(
            "error", ("MemoryError", "")))
        _, results, _ = _run(_chunks(_specs(1)), [worker], max_retries=2)
        assert results[0].status == "timeout"
        assert [tries for _, tries, _ in worker.submitted] == [0, 1, 2]

    def test_contract_violation_aborts_the_run(self):
        violation = ContractViolation("x.y", "broken", {})
        worker = FakeWorker(behave=lambda w, a: a.report("fatal", violation))
        with pytest.raises(ContractViolation):
            _run(_chunks(_specs(2)), [worker], max_retries=3)

    def test_backoff_order_follows_retry_delays(self):
        # Two units fail once each; the one whose deterministic backoff
        # expires first is re-dispatched first, and never early.
        specs = _specs(40)
        first, second = next(
            (a, b) for a in specs for b in specs
            if retry_delay(a.scenario_id, 1)
            > retry_delay(b.scenario_id, 1) + 0.03
        )
        failed = set()

        def fail_once(worker, attempt):
            idx = attempt.unit.items[0][0]
            if idx in failed:
                attempt.report("done", _ok(attempt))
            else:
                failed.add(idx)
                attempt.report("error", ("InjectedFault", "once"))

        worker = FakeWorker(behave=fail_once)
        units = [Unit("chunk", [(0, first)]), Unit("chunk", [(1, second)])]
        _, results, _ = _run(units, [worker], max_retries=1)
        assert all(r.ok for r in results.values())
        assert [(idx, tries) for idx, tries, _ in worker.submitted] == [
            (0, 0), (1, 0), (1, 1), (0, 1)
        ]
        sent = {(idx, tries): t for idx, tries, t in worker.submitted}
        for idx, spec in ((0, first), (1, second)):
            assert sent[(idx, 1)] - sent[(idx, 0)] >= retry_delay(
                spec.scenario_id, 1
            )


class TestWorkerLoss:
    @pytest.mark.parametrize("terminal", [True, False])
    def test_loss_charges_only_the_running_unit(self, terminal):
        held = []

        def behave(worker, attempt):
            # The first unit kills the worker once the second is queued
            # behind it; the re-run of the second one completes.
            held.append(attempt)
            if len(held) == 2:
                held[0].report("lost", (True, "BrokenProcessPool: died"))
                held[1].report("lost", (False, "BrokenProcessPool: died"))
            elif len(held) == 3:
                attempt.report("done", _ok(attempt))

        worker = FakeWorker(capacity=2, loss_is_terminal=terminal,
                            behave=behave)
        _, results, _ = _run(_chunks(_specs(2)), [worker], max_retries=0)
        assert results[0].status == ("error" if terminal else "timeout")
        assert "BrokenProcessPool" in results[0].error
        # The queued unit never started: re-run uncharged, it completes.
        assert results[1].ok
        assert [(idx, tries) for idx, tries, _ in worker.submitted] == [
            (0, 0), (1, 0), (1, 0)
        ]

    def test_running_unit_splits_to_singletons_and_killer_ends_terminal(self):
        specs = _specs(4)
        killer = 2

        def behave(worker, attempt):
            if any(idx == killer for idx, _ in attempt.unit.items):
                attempt.report("lost", (True, "BrokenProcessPool: died"))
            else:
                attempt.report("done", _ok(attempt))

        worker = FakeWorker(behave=behave)
        _, results, _ = _run(_chunks(specs, size=4), [worker], max_retries=1)
        assert [results[i].status for i in range(4)] == [
            "ok", "ok", "error", "ok"
        ]
        # One whole-unit attempt, then four singletons at tries 1.
        assert [tries for _, tries, _ in worker.submitted] == [0, 1, 1, 1, 1]

    def test_running_batch_splits_to_one_lane_batches(self):
        # A lost batch retries as one-lane *batch* units at each lane's
        # own n, so a chunk unit only ever holds plan singles.
        from repro.engine.scheduler import plan_batches

        specs = [
            ScenarioSpec(n=n, k=2, num_groups=2, seed=s)
            for n in (4, 6) for s in range(2)
        ]
        (batch,) = plan_batches(list(enumerate(specs))).batches
        assert batch.n == 6
        seen = []

        def behave(worker, attempt):
            seen.append(attempt.unit)
            if len(attempt.unit.items) > 1:
                attempt.report("lost", (True, "BrokenProcessPool: died"))
            else:
                attempt.report("done", _ok(attempt))

        worker = FakeWorker(behave=behave)
        _, results, _ = _run(
            [Unit("batch", list(batch.items), batch)], [worker],
            max_retries=1,
        )
        assert all(results[i].ok for i in range(len(specs)))
        retried = sorted(seen[1:], key=lambda unit: unit.items[0][0])
        assert [(u.kind, u.batch.n, u.batch.items) for u in retried] == [
            ("batch", spec.n, ((i, spec),)) for i, spec in enumerate(specs)
        ]

    def test_no_live_worker_left_journals_the_rest_retriable(self):
        def drop(worker, attempt):
            worker.alive = False
            attempt.report("lost", (True, "connection lost"))

        worker = FakeWorker(loss_is_terminal=False, behave=drop)
        _, results, _ = _run(_chunks(_specs(3)), [worker])
        assert [results[i].status for i in range(3)] == ["timeout"] * 3
        assert results[2].error == "no live worker left"


class TestDeadline:
    def test_straggler_is_cut_and_journals_timeout(self):
        def hang_first(worker, attempt):
            if attempt.unit.items[0][0] != 0:
                attempt.report("done", _ok(attempt))

        worker = FakeWorker(capacity=1, behave=hang_first)
        other = FakeWorker("f1", capacity=1, behave=hang_first)
        dispatcher, results, _ = _run(
            _chunks(_specs(4)), [worker, other], timeout=0.05
        )
        assert dispatcher.expired
        assert results[0].status == "timeout"
        assert results[0].error == "no result within 0.1s"
        assert all(results[i].ok for i in (1, 2, 3))
        assert worker.cuts == [0]

    def test_expired_units_retry_under_a_fresh_window(self):
        hung = set()

        def hang_once(worker, attempt):
            idx = attempt.unit.items[0][0]
            if idx == 0 and idx not in hung:
                hung.add(idx)  # late reply never comes
            else:
                attempt.report("done", _ok(attempt))

        worker = FakeWorker(capacity=1, behave=hang_once)
        _, results, _ = _run(
            _chunks(_specs(2)), [worker], timeout=0.05, max_retries=1
        )
        assert all(r.ok for r in results.values())
        assert worker.cuts == [0]


class TestStop:
    def test_stop_drains_held_results_and_classifies_nothing_after(self):
        stop = threading.Event()
        held = {}

        def shutdown():
            # A shutdown sets the stop flag, then kills the worker under
            # unit 0: its loss reaches the dispatcher while it waits,
            # before its next stop poll, and must not be classified.
            stop.set()
            held[0].report("lost", (True, "BrokenProcessPool: closed"))

        def behave(worker, attempt):
            idx = attempt.unit.items[0][0]
            held[idx] = attempt
            if idx == 1:
                attempt.report("done", _ok(attempt))
                threading.Timer(0.02, shutdown).start()

        workers = [FakeWorker(f"f{i}", behave=behave) for i in range(2)]
        delivered = []
        dispatcher = Dispatcher(
            _chunks(_specs(3)), workers, backend="reference",
            telemetry="executor", on_result=delivered.append,
            should_stop=stop.is_set,
        )
        with pytest.raises(ExecutionStopped):
            dispatcher.run()
        # Unit 1 finished before the stop but waited behind unit 0: the
        # drain journals it.  Nothing else reaches the journal.
        assert [r.spec.seed for r in delivered] == [1]
        assert all(r.ok for r in delivered)

    def test_stop_during_a_backoff_wait_is_honoured_promptly(self):
        # A unit whose fourth backoff lasts at least 0.5 s: the stop
        # lands 0.05 s into it and must be seen within a few stop polls
        # (``STOP_POLL_S``), not when the backoff ends.
        spec = next(s for s in _specs(200)
                    if retry_delay(s.scenario_id, 4) >= 0.5)
        stop = threading.Event()
        stopped_at = []

        def always_fail(worker, attempt):
            attempt.report("error", ("InjectedFault", "again"))
            if attempt.tries == 3:
                def flip():
                    stopped_at.append(time.monotonic())
                    stop.set()

                threading.Timer(0.05, flip).start()

        worker = FakeWorker(behave=always_fail)
        with pytest.raises(ExecutionStopped):
            _run([Unit("chunk", [(0, spec)])], [worker],
                 should_stop=stop.is_set, max_retries=20)
        latency = time.monotonic() - stopped_at[0]
        assert latency < 0.25, f"stop honoured {latency * 1000:.0f} ms late"
