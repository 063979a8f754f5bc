"""The scenario executor.

:func:`execute_scenario` is a *pure function* of a :class:`ScenarioSpec`:
every RNG in the simulation stack is derived from the spec's seed, so the
same spec produces bit-identical metrics in any process on any worker.

:func:`execute_scenarios` cuts a work list into dispatch units
(:func:`~repro.engine.dispatch.plan_units`): a whole planned batch under
the batched/auto backends (chunking cannot break a batch), a contiguous
chunk otherwise.  It runs them serially (``jobs <= 1``: a plain loop in
plan order, easiest to debug) or on a :class:`WorkerPool` through the
:class:`~repro.engine.dispatch.Dispatcher` that also drives the remote
fleet, one unit per task, both through the same unit body
(:func:`_iter_unit`).  Results are released in plan order, so the
journal is byte-identical to the serial run's whatever ``jobs`` is.

Each pool process is a failure domain with one unit queued behind the
one it runs.  A scenario that raises becomes an ``"error"`` result in
the worker.  A hard-killed worker (OOM killer, segfault in an
extension) is detected without a ``timeout`` and charged only to the
unit it was running, which ends with terminal ``"error"`` records once
its retries are spent (it may have killed the worker); the unit queued
behind it never started and runs again.  A ``timeout`` cuts
*stragglers*: units past the fleet deadline yield retriable
``"timeout"`` records and the processes running them are killed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.properties import check_agreement_properties
from repro.analysis.stats import decision_stats
from repro.engine import faults as _faults
from repro.engine.contracts import (
    ContractViolation,
    checks_mark,
    record_checks,
)
from repro.engine.scenarios import ScenarioSpec
from repro.engine.telemetry import Recorder
from repro.graphs.condensation import root_components
from repro.predicates.psrcs import Psrcs
from repro.rounds.simulator import RoundSimulator, SimulationConfig

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


class ExecutionStopped(RuntimeError):
    """Raised when a run is interrupted by a ``should_stop`` signal (the
    campaign service's shutdown path).  Every result journaled before the
    stop is already durable; the remaining scenarios simply never ran, so
    a resumed/resubmitted campaign picks up exactly where this left off."""


def is_terminal(status: str) -> bool:
    """Whether a journaled status is final for resume purposes.

    ``ok`` and deterministic ``error`` records are never re-executed;
    ``timeout`` (including transient chunk failures journaled as
    timeouts) stays retriable.  The single source of truth for the
    resume invariant — used by both ``ResultStore`` and ``Campaign``."""
    return status != STATUS_TIMEOUT


@dataclass(frozen=True)
class ScenarioResult:
    """The summary record of one executed scenario.

    Only *summaries* are kept (the decision/skeleton statistics the
    experiment tables report) — full :class:`~repro.rounds.run.Run`
    objects stay in the worker.  ``status`` is ``"ok"``, ``"error"`` or
    ``"timeout"``; metric fields are ``None`` for non-ok results.
    ``backend`` records which execution engine produced the result
    (provenance only: it is journaled but excluded from canonical
    summaries, which must be byte-identical across backends).
    ``extras`` holds family-specific metrics as sorted ``(name, value)``
    pairs of JSON scalars — registered experiment families stash the
    quantities the core schema has no column for (ablation invariant
    verdicts, duality α, the Figure 1 rendering).  Read via
    :meth:`extra`; empty extras are omitted from encoded records so core
    summaries keep their historical bytes.
    """

    spec: ScenarioSpec
    status: str = STATUS_OK
    error: str | None = None
    backend: str = "reference"
    num_rounds: int | None = None
    root_components: int | None = None
    psrcs_holds: bool | None = None
    distinct_decisions: int | None = None
    all_decided: bool | None = None
    k_agreement_holds: bool | None = None
    validity_holds: bool | None = None
    first_decision_round: int | None = None
    last_decision_round: int | None = None
    stabilization: int | None = None
    lemma11_bound: int | None = None
    within_bound: bool | None = None
    decision_values: tuple = ()
    extras: tuple = ()

    def __post_init__(self) -> None:
        canonical = tuple(sorted((str(k), v) for k, v in self.extras))
        if canonical != self.extras:
            object.__setattr__(self, "extras", canonical)

    def extra(self, name: str, default: Any = None) -> Any:
        """Read a family-specific extra metric by name."""
        for key, value in self.extras:
            if key == name:
                return value
        return default

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @classmethod
    def failure(
        cls,
        spec: ScenarioSpec,
        error: str,
        status: str = STATUS_ERROR,
        backend: str = "reference",
    ) -> "ScenarioResult":
        return cls(spec=spec, status=status, error=error, backend=backend)


def require_ok(
    results: Sequence[ScenarioResult],
) -> Sequence[ScenarioResult]:
    """Raise if any result is non-ok, surfacing the workers' errors.

    The executor converts worker exceptions into ``status != "ok"``
    records with ``None`` metrics; callers that build tables from the
    metrics would only blow up later (e.g. ``distinct_decisions > k``
    raising TypeError) with the real traceback lost."""
    failed = [r for r in results if not r.ok]
    if failed:
        details = "; ".join(
            f"{r.scenario_id} ({r.status}): {r.error}" for r in failed[:3]
        )
        raise RuntimeError(
            f"{len(failed)}/{len(results)} scenarios failed: {details}"
        )
    return results


def execute_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario end-to-end and summarize it.

    Never raises: any exception from construction or simulation becomes a
    ``"error"`` result, so a bad corner of a grid cannot take down a
    campaign.
    """
    try:
        adversary = spec.build_adversary()
        processes = spec.build_processes()
        config = SimulationConfig(max_rounds=spec.resolved_max_rounds())
        run = RoundSimulator(processes, adversary, config).run()
        stable = run.stable_skeleton()
        stats = decision_stats(run)
        report = check_agreement_properties(run, spec.k)
        return ScenarioResult(
            spec=spec,
            num_rounds=run.num_rounds,
            root_components=len(root_components(stable)),
            psrcs_holds=Psrcs(spec.k).check_skeleton(stable).holds,
            distinct_decisions=report.num_decision_values,
            all_decided=report.termination.holds,
            k_agreement_holds=report.k_agreement.holds,
            validity_holds=report.validity.holds,
            first_decision_round=stats.first_decision_round,
            last_decision_round=stats.last_decision_round,
            stabilization=stats.stabilization,
            lemma11_bound=stats.lemma11_bound,
            within_bound=stats.within_bound,
            decision_values=tuple(
                sorted(run.decision_values(), key=repr)
            ),
        )
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return ScenarioResult.failure(spec, f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _run_one(
    spec: ScenarioSpec, backend: str, recorder=None
) -> ScenarioResult:
    """Execute one scenario on the requested backend.

    Specs carrying a ``family`` option belong to a registered experiment
    family and dispatch through :mod:`repro.engine.registry` (which may
    supply a custom per-scenario runner).  The common plain
    ``"reference"`` case stays import-free; other paths resolve lazily
    (those modules import this one, so the imports must not be circular
    at load time).
    """
    _faults.before_scenario(spec)
    if spec.opt("family") is not None:
        from repro.engine.registry import run_registered_scenario

        return run_registered_scenario(spec, backend, recorder=recorder)
    if backend == "reference":
        return execute_scenario(spec)
    from repro.engine.backends import execute_scenario_with_backend

    return execute_scenario_with_backend(spec, backend, recorder=recorder)


def _iter_unit(unit, backend: str,
               recorder=None) -> Iterator[tuple[int, ScenarioResult]]:
    """Run one dispatch unit in this process, yielding ``(index,
    result)`` in plan order: a whole planned batch (so chunking can
    never break a batch) or an order-chunk of plan singles, one by one.

    The serial path runs its units here with the caller's recorder;
    pool and fleet workers run theirs through :func:`_execute_unit`."""
    if unit.kind == "batch":
        from repro.engine.scheduler import run_planned_batch

        for _idx, spec in unit.items:
            _faults.before_scenario(spec)
        yield from run_planned_batch(unit.batch, backend, recorder=recorder)
        return
    for idx, spec in unit.items:
        yield idx, _run_one(spec, backend, recorder=recorder)


def _execute_unit(unit, backend: str, collect: bool = False) -> tuple:
    """Worker entry point (a pool process or a fleet worker): run one
    dispatch unit through :func:`_iter_unit`.

    Returns ``(pairs, meta)``: the ``(index, result)`` pairs and, with
    ``collect``, the worker's pid, busy seconds and the snapshot of its
    own :class:`~repro.engine.telemetry.Recorder`, with the contract
    checks the unit ran, for the parent to merge (``None``
    otherwise)."""
    recorder = Recorder() if collect else None
    mark = checks_mark() if collect else None
    t0 = time.perf_counter()
    pairs = list(_iter_unit(unit, backend, recorder))
    if recorder is None or _faults.drop_worker_meta(unit.items):
        return pairs, None
    record_checks(recorder, mark)
    meta = {"pid": os.getpid(), "busy_s": time.perf_counter() - t0,
            "snapshot": recorder.snapshot()}
    return pairs, meta


def _count_result(recorder, result: ScenarioResult) -> None:
    """Parent-side result accounting (single source for both backends)."""
    recorder.inc("executor.scenarios")
    if result.status == STATUS_OK:
        recorder.inc("executor.results_ok")
    elif result.status == STATUS_TIMEOUT:
        recorder.vinc("executor.results_timeout")
    else:
        recorder.vinc("executor.results_error")


def _reset_worker_signals() -> None:  # pragma: no cover — runs in workers
    """Pool-worker initializer: restore default signal dispositions.

    Workers fork *after* the CLI (or the service daemon) installed its
    graceful SIGTERM/SIGINT handlers, and fork copies those handlers
    into the child.  A worker that inherits "SIGTERM raises
    KeyboardInterrupt" survives ``proc.terminate()``: the interrupt is
    swallowed by the executor's task loop as an ordinary task failure
    and the worker goes right back to waiting for work — which turns
    every straggler-termination / fast-shutdown path into a hang (the
    parent exits only after joining the executor's manager thread,
    which waits on the immortal worker).  SIGTERM must mean death here;
    SIGINT is ignored so a terminal Ctrl-C interrupts only the parent,
    which then winds the pool down deliberately."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _terminate_pool(executor: ProcessPoolExecutor) -> int:
    """Shut a pool down *without* waiting, terminating every live worker
    (stragglers past the deadline, stalled or orphaned processes of a
    broken pool).  Returns the number of processes terminated.  The
    worker list must be snapshotted before shutdown clears it."""
    procs = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    terminated = 0
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            terminated += 1
    for proc in procs:
        if proc.is_alive():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover — last resort
                proc.kill()
                proc.join(timeout=1.0)
    return terminated


class _Slot:
    """One pool process: a single-process executor and its unfinished
    futures in submission order."""

    __slots__ = ("executor", "unfinished", "dead", "running")

    def __init__(self, ctx) -> None:
        self.executor = ProcessPoolExecutor(
            max_workers=1, mp_context=ctx, initializer=_reset_worker_signals,
        )
        self.unfinished: list = []
        self.dead = False
        self.running = None

    def mark_dead(self) -> None:
        if not self.dead:
            self.dead = True
            self.running = self.unfinished[0] if self.unfinished else None


class WorkerPool:
    """Worker processes that can outlive one campaign.

    A private pool lives for one :func:`execute_scenarios` call; the
    campaign service shares one across all submissions, paying spin-up
    once.  Each process is its own single-process executor and failure
    domain.  ``submit(index, on_done, fn, *args)`` runs a call on
    process ``index`` (thread-safe) and calls ``on_done(future,
    was_running)`` when it settles; for a call that failed because the
    process died, ``was_running`` says whether the process was running
    it (calls run in submission order, so that is the oldest unfinished
    one).  A dead process is replaced once, on the next submit to it;
    :meth:`cut` kills and replaces the process running a straggler.
    ``generation`` counts replacements.  ``close`` ends the pool
    (``terminate=True`` kills live workers — the service's fast
    shutdown); a closed pool refuses new work.  On a shared pool, units
    of other campaigns queued behind a crash or a cut never started, so
    they run again uncharged.
    """

    def __init__(self, workers: int, mp_context=None) -> None:
        self.workers = max(1, workers)
        self._ctx = mp_context or multiprocessing.get_context()
        self._lock = threading.RLock()
        self._closing = False
        self.generation = 0
        self._slots = [_Slot(self._ctx) for _ in range(self.workers)]

    def pending(self, index: int) -> int:
        """Unfinished calls on process ``index``, from any campaign."""
        return len(self._slots[index].unfinished)

    def submit(self, index: int, on_done, fn, /, *args):
        """Run ``fn(*args)`` on process ``index``; returns the future.

        Raises ``RuntimeError`` once the pool is closed."""
        with self._lock:
            if self._closing:
                raise RuntimeError("worker pool is closed")
            slot = self._slots[index]
            try:
                future = slot.executor.submit(fn, *args)
            except BrokenProcessPool:
                slot = self._replace(index)
                future = slot.executor.submit(fn, *args)
            slot.unfinished.append(future)
        future.add_done_callback(
            lambda done: self._settle(slot, done, on_done)
        )
        return future

    def _settle(self, slot: _Slot, future, on_done) -> None:
        with self._lock:
            if future.cancelled() or isinstance(
                future.exception(), BrokenProcessPool
            ):
                slot.mark_dead()
            slot.unfinished.remove(future)
        on_done(future, future is slot.running)

    def _replace(self, index: int) -> _Slot:
        old = self._slots[index]
        old.mark_dead()
        slot = self._slots[index] = _Slot(self._ctx)
        self.generation += 1
        _terminate_pool(old.executor)
        return slot

    def cut(self, future) -> bool:
        """Kill the process running ``future`` and replace it.  A no-op
        (``False``) unless ``future`` is what its process is running."""
        with self._lock:
            if self._closing:
                return False
            for index, slot in enumerate(self._slots):
                if slot.unfinished and slot.unfinished[0] is future:
                    self._replace(index)
                    return True
        return False

    def close(self, terminate: bool = False) -> int:
        """Shut the pool down for good.  ``terminate=True`` kills live
        workers (fast shutdown); otherwise waits for in-flight work.
        Returns the number of processes terminated."""
        with self._lock:
            if self._closing:
                return 0
            self._closing = True
        if terminate:
            return sum(_terminate_pool(slot.executor) for slot in self._slots)
        for slot in self._slots:
            slot.executor.shutdown(wait=True, cancel_futures=True)
        return 0


def _settled(attempt, future, was_running: bool) -> None:
    """Report a pool future's outcome to its dispatch attempt."""
    attempt.handle = None  # the future holds this callback: no cycle
    if future.cancelled():
        attempt.report("lost", (False, "cancelled"))
        return
    exc = future.exception()
    if exc is None:
        attempt.report("done", future.result())
    elif isinstance(exc, BrokenProcessPool):
        attempt.report("lost", (was_running, f"BrokenProcessPool: {exc}"))
    elif isinstance(exc, ContractViolation):
        attempt.report("fatal", exc)
    else:
        attempt.report("error", (type(exc).__name__, str(exc)))


class _PoolWorker:
    """One :class:`WorkerPool` process as a dispatch worker (see
    :mod:`repro.engine.dispatch`): one unit runs while the next waits
    behind it, so the process never waits on the parent between units."""

    capacity = 2
    loss_is_terminal = True
    alive = True

    def __init__(self, pool: WorkerPool, index: int, backend: str,
                 collect: bool) -> None:
        self.pool = pool
        self.index = index
        self.backend = backend
        self.collect = collect

    def submit(self, attempt) -> None:
        try:
            attempt.handle = self.pool.submit(
                self.index,
                lambda future, running: _settled(attempt, future, running),
                _execute_unit, attempt.unit, self.backend, self.collect,
            )
        except RuntimeError as exc:
            raise ExecutionStopped(str(exc)) from exc

    def cut(self, attempt) -> bool:
        return self.pool.cut(attempt.handle)

    def pending(self) -> int:
        return self.pool.pending(self.index)

    def describe(self) -> dict:
        return {"worker": f"p{self.index}"}


def execute_scenarios(
    specs: Iterable[ScenarioSpec],
    jobs: int = 1,
    timeout: float | None = None,
    chunksize: int | None = None,
    on_result: Callable[[ScenarioResult], Any] | None = None,
    backend: str = "reference",
    batch_memory: int | None = None,
    plan=None,
    recorder=None,
    max_retries: int = 0,
    pool: "WorkerPool | None" = None,
    should_stop: Callable[[], bool] | None = None,
    shard_base: str | os.PathLike | None = None,
) -> list[ScenarioResult]:
    """Execute many scenarios, serially or on a process pool.

    Parameters
    ----------
    specs:
        The scenarios, in grid order.
    jobs:
        Worker processes; ``<= 1`` selects the serial backend (unless a
        ``timeout`` is set, which always routes through a pool — a hung
        scenario cannot be interrupted in-process).
    timeout:
        Per-scenario time budget in seconds.  The budgets pool into one
        fleet deadline (``timeout * ceil(len(specs) / workers)`` from
        pool start): units still unfinished at the deadline yield
        retriable ``"timeout"`` results and the processes running them
        are killed.  Coarse by design — it unsticks campaigns; it is not
        a precise per-run stopwatch.
    chunksize:
        Scenarios per dispatched chunk (default:
        :func:`~repro.engine.dispatch.default_chunksize`).
    on_result:
        Callback invoked in the *parent* process for each result, in
        plan order (the serial run's order) — the campaign layer
        journals through this.
    backend:
        Execution engine per scenario: ``"reference"`` (default),
        ``"batched"`` (scheduler-planned mega-batches of same-``n``
        scenarios through one tensor program) or ``"auto"`` — see
        :mod:`repro.engine.backends`.
    batch_memory:
        Per-batch memory envelope in bytes for the batched/auto
        backends (``None``: the built-in budget) — a pure packing knob,
        results and journal bytes are identical whatever the envelope.
    plan:
        A precomputed :class:`~repro.engine.scheduler.BatchPlan` for
        exactly this work list (the campaign layer passes the plan its
        progress reporter was built from, so the list is only planned
        once).  ``None``: the batched/auto backends plan here.
    recorder:
        Optional :class:`~repro.engine.telemetry.Recorder`.  On the pool
        path workers collect into their own recorders and return
        snapshots with their payloads; the parent merges them (the merge
        is commutative, so the result is independent of worker count and
        completion order) and adds dispatch-side durations — per-unit
        turnaround, worker busy time, queue wait — plus per-worker
        utilization info.
    max_retries:
        Bounded *in-run* retries per dispatch unit for retriable
        failures (fleet-deadline timeouts, transient worker errors,
        dead workers) before the failure is journaled for a later
        resume — see :mod:`repro.engine.dispatch` for the policy.
        ``0`` (default) journals on first failure.
    pool:
        A shared :class:`WorkerPool` (the campaign service's persistent
        pool), never shut down here; ``None`` (default): a private pool
        is created and torn down here.  A pool forces the pool code
        path even for ``jobs <= 1``.
    should_stop:
        Zero-argument callable polled between dispatch events (and
        between serial results).  Returning ``True`` stops journaling:
        held results are delivered and :class:`ExecutionStopped` is
        raised, so the campaign is resumable by hash.
    shard_base:
        The journal path; on the pool, results held back for plan order
        wait in a shard file next to it, so a killed run loses no
        finished unit.  The serial path writes none.

    Returns
    -------
    Results in the same order as ``specs``, independent of ``jobs``.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    from repro.engine.dispatch import Dispatcher, plan_units

    jobs = max(1, jobs)
    units = plan_units(
        list(enumerate(spec_list)), backend, jobs=jobs, plan=plan,
        batch_memory=batch_memory, chunksize=chunksize, recorder=recorder,
    )
    if (jobs == 1 or len(spec_list) == 1) and timeout is None and pool is None:
        # The serial path runs the pool's units in plan order through
        # the workers' own unit body; results are re-sorted into grid
        # order (they journal in plan order).
        results: list = [None] * len(spec_list)
        for unit in units:
            for idx, result in _iter_unit(unit, backend, recorder):
                if recorder:
                    _count_result(recorder, result)
                if on_result is not None:
                    on_result(result)
                results[idx] = result
                if should_stop is not None and should_stop():
                    raise ExecutionStopped(
                        "run interrupted by shutdown signal"
                    )
        return results
    owned = pool is None
    if owned:
        pool = WorkerPool(min(jobs, len(units)))
    dispatcher = Dispatcher(
        units,
        [
            _PoolWorker(pool, index, backend, bool(recorder))
            for index in range(pool.workers)
        ],
        backend=backend,
        telemetry="executor",
        on_result=on_result,
        recorder=recorder,
        max_retries=max_retries,
        timeout=timeout,
        should_stop=should_stop,
        shard_base=shard_base,
    )
    clean = False
    try:
        collected = dispatcher.run()
        clean = not dispatcher.expired
    finally:
        # Anything but a clean finish (a straggler, a contract
        # violation, SIGINT/SIGTERM as KeyboardInterrupt) must not wait
        # on stuck workers: terminate instead.
        if owned:
            pool.close(terminate=not clean)
    return [collected[i] for i in range(len(spec_list))]
