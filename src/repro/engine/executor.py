"""The parallel scenario executor.

:func:`execute_scenario` is a *pure function* of a :class:`ScenarioSpec`:
every RNG in the simulation stack is derived from the spec's seed, so the
same spec produces bit-identical metrics in any process on any worker.
That purity is what the parallel backend leans on — results are collected
in completion order but re-sorted into submission order, so a campaign's
output is deterministic regardless of ``jobs``.

Backends:

* serial (``jobs <= 1``) — a plain loop, no pickling, easiest to debug;
* ``concurrent.futures.ProcessPoolExecutor`` (``jobs > 1``) — chunked
  dispatch (each task is a contiguous slice of the grid, amortizing
  IPC; under the ``batched``/``auto`` backends each task is instead one
  of the scheduler's planned batches, so pool chunking cannot break a
  batch — see :mod:`repro.engine.scheduler`), per-chunk timeouts (a
  stuck chunk is marked ``"timeout"`` and the stragglers are killed
  when the pool exits), and crash isolation (a scenario that raises
  becomes a ``"error"`` result instead of poisoning the pool).

Hard-killed workers (OOM killer, segfault in an extension) are detected
without needing a ``timeout``: dispatch runs on
``concurrent.futures.ProcessPoolExecutor``, whose broken-pool protocol
fails every outstanding chunk with ``BrokenProcessPool`` the moment a
worker vanishes.  Chunks that were *observed running* come back as
terminal ``"error"`` records (one of them killed its worker); chunks
still queued when the pool broke never executed and come back retriable,
so a resumed campaign re-runs the innocent majority instead of skipping
it forever.  Either way the campaign surfaces the loss and exits red
instead of hanging.  A ``timeout`` is still available for *stragglers*
(scenarios that run but never finish): chunks past the fleet deadline
yield retriable ``"timeout"`` records and their workers are killed.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.pool import MaybeEncodingError
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.properties import check_agreement_properties
from repro.analysis.stats import decision_stats
from repro.engine import faults as _faults
from repro.engine.contracts import ContractViolation
from repro.engine.contracts import get as _get_contracts
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
# Parallel dispatch
# ----------------------------------------------------------------------
IndexedSpec = tuple[int, ScenarioSpec]


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


def _iter_chunk(
    chunk: Sequence[IndexedSpec],
    backend: str,
    batch_memory: int | None = None,
    compact: bool = True,
    pack_widths: bool = False,
    recorder=None,
) -> Iterable[tuple[int, ScenarioResult]]:
    """Yield one work list's results, tagged with their input indices.

    The ``batched`` and ``auto`` backends route through the batch
    scheduler (:func:`repro.engine.scheduler.iter_planned`), which packs
    batch-compatible specs into planned lane-compacting batches — yield
    order is plan order there, input order otherwise; every result
    carries its index, and journal record bytes are a pure function of
    the spec, so consumers are order-agnostic.
    """
    if backend in ("batched", "auto"):
        from repro.engine.scheduler import iter_planned

        yield from iter_planned(
            chunk, backend, batch_memory=batch_memory, compact=compact,
            pack_widths=pack_widths, recorder=recorder,
        )
        return
    for idx, spec in chunk:
        yield idx, _run_one(spec, backend, recorder=recorder)


def _worker_meta(recorder: Recorder, t0: float) -> dict:
    """The metrics envelope a collecting worker returns with its payload."""
    return {
        "pid": os.getpid(),
        "busy_s": time.perf_counter() - t0,
        "snapshot": recorder.snapshot(),
    }


def _split_payload(payload):
    """``(payload, meta)`` from a worker return value.

    Collecting workers return ``(payload, meta_dict)``; everything else
    (legacy shape, monkeypatched test doubles, the parent's own
    timeout/failure synthesizers) returns the bare payload.
    """
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[1], dict)
    ):
        return payload
    return payload, None


def _execute_chunk(
    chunk: Sequence[IndexedSpec],
    backend: str = "reference",
    collect_metrics: bool = False,
) -> Any:
    """Worker entry point: run one slice of the grid (per-scenario
    backends, and the scheduler's non-batchable singles).

    With ``collect_metrics`` the worker builds its own
    :class:`~repro.engine.telemetry.Recorder` and returns
    ``(payload, meta)`` — pid, busy seconds and a metrics snapshot —
    for the parent to merge; otherwise the bare payload (so existing
    callers and test doubles see the historical shape).
    """
    if not collect_metrics:
        return list(_iter_chunk(chunk, backend))
    recorder = Recorder()
    t0 = time.perf_counter()
    payload = list(_iter_chunk(chunk, backend, recorder=recorder))
    if _faults.drop_worker_meta(chunk):
        return payload
    return payload, _worker_meta(recorder, t0)


def _execute_planned(
    batch,
    backend: str = "batched",
    compact: bool = True,
    collect_metrics: bool = False,
) -> Any:
    """Worker entry point: run one whole planned batch.

    The pool ships :class:`~repro.engine.scheduler.PlannedBatch` units
    instead of order-chunks under the batched/auto backends, so pool
    chunking can never break a batch.  ``collect_metrics`` works as in
    :func:`_execute_chunk`.
    """
    from repro.engine.scheduler import run_planned_batch

    for _idx, spec in batch.items:
        _faults.before_scenario(spec)
    if not collect_metrics:
        return run_planned_batch(batch, backend, compact=compact)
    recorder = Recorder()
    t0 = time.perf_counter()
    payload = run_planned_batch(
        batch, backend, compact=compact, recorder=recorder
    )
    if _faults.drop_worker_meta(list(batch.items)):
        return payload
    return payload, _worker_meta(recorder, t0)


def _count_result(recorder, result: ScenarioResult) -> None:
    """Parent-side result accounting (single source for both backends)."""
    recorder.inc("executor.scenarios")
    if result.status == STATUS_OK:
        recorder.inc("executor.results_ok")
    elif result.status == STATUS_TIMEOUT:
        recorder.vinc("executor.results_timeout")
    else:
        recorder.vinc("executor.results_error")


def _chunked(items: Sequence[IndexedSpec], size: int) -> list[list[IndexedSpec]]:
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def default_chunksize(num_specs: int, jobs: int) -> int:
    """~4 chunks per worker: large enough to amortize fork+pickle, small
    enough that the pool load-balances uneven scenario costs."""
    return max(1, num_specs // max(1, jobs * 4))


_RETRY_BASE_S = 0.05
_RETRY_CAP_S = 2.0


def _stop_aware_sleep(
    seconds: float,
    should_stop: Callable[[], bool] | None,
    slice_s: float = 0.05,
) -> None:
    """Sleep up to ``seconds``, waking early when ``should_stop`` flips.

    The dispatch loop's idle wait covers retry-backoff windows too
    (queued units gate on ``not_before``), so a plain ``time.sleep``
    would stall daemon drain for the whole backoff when SIGTERM lands
    mid-window.  Slicing the wait keeps the stop latency bounded by
    ``slice_s`` whatever the poll interval or backoff schedule."""
    if should_stop is None or seconds <= slice_s:
        time.sleep(seconds)
        return
    deadline = time.monotonic() + seconds
    while not should_stop():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(slice_s, remaining))


def retry_delay(key: str, attempt: int) -> float:
    """Backoff before in-run retry ``attempt`` (1-based) of a unit.

    Capped exponential with *deterministic* decorrelated jitter: the
    jitter RNG is seeded from the unit's first scenario id (a content
    hash that embeds the campaign seed) and the attempt number, so two
    colliding units spread apart but the schedule is reproducible."""
    spread = 0.5 + random.Random(f"{key}:{attempt}").random()
    return min(_RETRY_CAP_S, _RETRY_BASE_S * (2 ** (attempt - 1)) * spread)


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


class WorkerPool:
    """A rebuildable process pool that can outlive one campaign.

    :func:`execute_scenarios` historically created (and destroyed) a
    ``ProcessPoolExecutor`` per call — the right shape for one-shot CLI
    runs, the wrong one for the always-on campaign service, which pays
    pool spin-up once and then multiplexes many campaign submissions
    across the same warm workers.  This wrapper owns that lifecycle:

    * ``submit`` delegates to the live executor (thread-safe: concurrent
      campaigns dispatch from their own threads);
    * ``rebuild`` terminates every worker and swaps in a fresh executor
      — the broken-pool / straggler recovery primitive.  It is
      *generation-aware*: a caller that observed the pool break passes
      the generation it saw, and the rebuild is skipped when another
      campaign already replaced that generation (so N concurrent victims
      of one crash do not thrash N fresh pools);
    * ``close`` ends the pool for good (``terminate=True`` kills live
      workers instead of waiting — the service's fast-shutdown path).
      A closed pool refuses new work and ``rebuild`` becomes a no-op,
      so in-flight campaigns wind down instead of respawning workers
      under a daemon that is exiting.

    Sharing one pool means one campaign's recovery actions are visible
    to its neighbors: a rebuild kills *all* in-flight units, whose
    campaigns see ``BrokenProcessPool`` and retry (``max_retries``) or
    journal retriable records for resume.  That is the deliberate
    trade — crash isolation stays at the campaign level, capacity is
    shared at the batch level.
    """

    def __init__(self, workers: int, mp_context=None) -> None:
        self.workers = max(1, workers)
        self._ctx = mp_context or multiprocessing.get_context()
        self._lock = threading.Lock()
        self._generation = 0
        self._closing = False
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._ctx,
            initializer=_reset_worker_signals,
        )

    @property
    def generation(self) -> int:
        """Bumped on every rebuild (see :meth:`rebuild`)."""
        return self._generation

    @property
    def closing(self) -> bool:
        return self._closing

    def submit(self, fn, /, *args):
        """Submit one call to the live executor.

        Raises ``RuntimeError`` once the pool is closed and
        ``BrokenProcessPool`` when the executor is broken — callers
        treat both as "this unit did not dispatch" and requeue."""
        with self._lock:
            if self._closing:
                raise RuntimeError("worker pool is closed")
            return self._executor.submit(fn, *args)

    def rebuild(self, seen_generation: int | None = None) -> int:
        """Terminate every worker and bring up a fresh executor.

        Returns the number of processes terminated (0 when the rebuild
        was skipped: pool closing, or ``seen_generation`` already
        replaced by a concurrent rebuild)."""
        with self._lock:
            if self._closing:
                return 0
            if (
                seen_generation is not None
                and seen_generation != self._generation
            ):
                return 0
            terminated = _terminate_pool(self._executor)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx,
                initializer=_reset_worker_signals,
            )
            self._generation += 1
            return terminated

    def close(self, terminate: bool = False) -> int:
        """Shut the pool down for good.  ``terminate=True`` kills live
        workers (fast shutdown); otherwise waits for in-flight work.
        Returns the number of processes terminated."""
        with self._lock:
            if self._closing:
                return 0
            self._closing = True
            if terminate:
                return _terminate_pool(self._executor)
            self._executor.shutdown(wait=True, cancel_futures=True)
            return 0


def _terminal_failure(exc: BaseException, was_running: bool) -> bool:
    """Whether a unit-level failure is deterministic (retrying would
    fail identically).  Single source for the journal classifier
    (:func:`failed_chunk` records) and the in-run retry gate."""
    if isinstance(exc, BrokenProcessPool):
        return was_running
    return isinstance(
        exc,
        (pickle.PicklingError, MaybeEncodingError, AttributeError,
         TypeError),
    )


def execute_scenarios(
    specs: Iterable[ScenarioSpec],
    jobs: int = 1,
    timeout: float | None = None,
    chunksize: int | None = None,
    on_result: Callable[[ScenarioResult], Any] | None = None,
    poll_interval: float = 0.01,
    backend: str = "reference",
    batch_memory: int | None = None,
    compact: bool = True,
    pack_widths: bool = False,
    plan=None,
    recorder=None,
    max_retries: int = 0,
    pool: "WorkerPool | None" = None,
    should_stop: Callable[[], bool] | None = None,
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
        pool start): chunks still pending at the deadline yield
        retriable ``"timeout"`` results and their workers are killed
        when the pool exits.  Coarse by design — it unsticks campaigns;
        it is not a precise per-run stopwatch.
    chunksize:
        Scenarios per dispatched task (default: :func:`default_chunksize`).
    on_result:
        Callback invoked in the *parent* process as each result arrives
        (completion order) — the campaign layer journals through this,
        so an interrupted campaign keeps every chunk that finished
        before the interrupt.
    poll_interval:
        Seconds between readiness polls of outstanding chunks.
    backend:
        Execution engine per scenario: ``"reference"`` (default),
        ``"vectorized"``, ``"batched"`` (scheduler-planned mega-batches
        of same-``n`` scenarios through one tensor program) or
        ``"auto"`` — see :mod:`repro.engine.backends`.
    batch_memory:
        Per-batch memory envelope in bytes for the batched/auto
        backends (``None``: the built-in budget) — a pure packing knob,
        results and journal bytes are identical whatever the envelope.
    compact:
        Whether the batch kernel compacts live lanes as batchmates
        retire (diagnostic toggle for the differential suite and the
        fast-path benchmark; results are bit-identical either way).
    pack_widths:
        Cross-``n`` packing for the batched/auto backends when the plan
        is computed *here* (``plan=None``): mixed-``n`` grids batch into
        one padded tensor program per round bucket — see
        :func:`repro.engine.scheduler.plan_batches`.  A pure packing
        knob: results and journal bytes are identical either way.
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
        broken pools) before the failure is journaled for a later
        resume.  Retries back off with :func:`retry_delay`; a unit that
        broke the pool while running is re-run as singleton chunks so
        the innocent majority completes and only the true killer (if
        deterministic) fails terminally.  ``0`` (default) preserves the
        journal-on-first-failure behavior exactly.
    pool:
        A shared :class:`WorkerPool` (the campaign service's persistent
        pool).  ``None`` (default): a private pool is created and torn
        down here, exactly as before.  With a shared pool this call
        never shuts the pool down — broken pools and stragglers are
        handled by generation-aware :meth:`WorkerPool.rebuild` so
        concurrent campaigns on the same pool keep running.  A pool
        forces the pool code path even for ``jobs <= 1`` (the daemon
        multiplexes every campaign through its workers).
    should_stop:
        Zero-argument callable polled between dispatch rounds (and
        between serial results).  Returning ``True`` cancels pending
        work and raises :class:`ExecutionStopped`; everything already
        delivered to ``on_result`` stays journaled, so the campaign is
        resumable by hash.

    Returns
    -------
    Results in the same order as ``specs``, independent of ``jobs``.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    if (jobs <= 1 or len(spec_list) <= 1) and timeout is None and pool is None:
        # The serial path streams through the same kernels the pool
        # workers use, so the batched/auto backends run the scheduler's
        # planned batches here too; results are re-sorted into grid
        # order (they journal in plan order).
        results: list = [None] * len(spec_list)
        if backend in ("batched", "auto") and plan is not None:
            from repro.engine.scheduler import iter_plan

            streamed = iter_plan(
                plan, backend, compact=compact, recorder=recorder
            )
        else:
            streamed = _iter_chunk(
                list(enumerate(spec_list)),
                backend,
                batch_memory=batch_memory,
                compact=compact,
                pack_widths=pack_widths,
                recorder=recorder,
            )
        for idx, result in streamed:
            if recorder:
                _count_result(recorder, result)
            if on_result is not None:
                on_result(result)
            results[idx] = result
            if should_stop is not None and should_stop():
                raise ExecutionStopped("run interrupted by shutdown signal")
        return results

    indexed = list(enumerate(spec_list))
    jobs = max(1, jobs)
    # Dispatch units: under the batched/auto backends the scheduler's
    # whole planned batches ship to workers (pool chunking must not
    # break batches); everything else — other backends, and the plan's
    # non-batchable singles — ships as contiguous order-chunks.
    units: list[tuple[list[IndexedSpec], tuple]] = []
    # The collect flag is appended only when metrics are on, so the
    # worker-call shape (and every monkeypatched test double) is
    # untouched on the default path.
    collect: tuple = (True,) if recorder else ()
    if backend in ("batched", "auto"):
        if plan is None:
            from repro.engine.scheduler import plan_batches

            plan = plan_batches(
                indexed, batch_memory=batch_memory, jobs=jobs,
                pack_widths=pack_widths, recorder=recorder,
            )
        for batch in plan.batches:
            units.append(
                (
                    list(batch.items),
                    (_execute_planned, batch, backend, compact) + collect,
                )
            )
        singles = list(plan.singles)
        if singles:
            for chunk in _chunked(
                singles, chunksize or default_chunksize(len(singles), jobs)
            ):
                units.append(
                    (chunk, (_execute_chunk, chunk, backend) + collect)
                )
    else:
        for chunk in _chunked(
            indexed, chunksize or default_chunksize(len(indexed), jobs)
        ):
            units.append((chunk, (_execute_chunk, chunk, backend) + collect))
    workers = min(jobs, len(units))
    collected: dict[int, ScenarioResult] = {}
    # pid -> [units, busy_s]; feeds the per-worker utilization info.
    worker_stats: dict[int, list] = {}

    def deliver(payload, submit_t: float | None = None) -> None:
        payload, meta = _split_payload(payload)
        if recorder and submit_t is not None:
            turnaround = time.monotonic() - submit_t
            recorder.add_duration("executor.unit_wall_s", turnaround)
            if meta is not None:
                if merge_witness is not None:
                    merge_witness.append(meta["snapshot"])
                recorder.merge(meta["snapshot"])
                busy = meta["busy_s"]
                recorder.add_duration("executor.worker_busy_s", busy)
                recorder.add_duration(
                    "executor.queue_wait_s", max(0.0, turnaround - busy)
                )
                stats = worker_stats.setdefault(meta["pid"], [0, 0.0])
                stats[0] += 1
                stats[1] += busy
        for idx, result in payload:
            if recorder:
                _count_result(recorder, result)
            collected[idx] = result
            if on_result is not None:
                on_result(result)

    def timed_out(chunk: Sequence[IndexedSpec], budget: float) -> list:
        return [
            (
                idx,
                ScenarioResult.failure(
                    spec,
                    f"no result within {budget:.1f}s",
                    status=STATUS_TIMEOUT,
                    backend=backend,
                ),
            )
            for idx, spec in chunk
        ]

    def failed_chunk(
        chunk: Sequence[IndexedSpec], exc: BaseException, was_running: bool
    ) -> list:
        # Chunk-level failure: scenario-level exceptions are already
        # contained inside execute_scenario, so this is one of
        #   * a hard-killed worker (OOM killer, segfault) — the broken-
        #     pool protocol fails every outstanding chunk.  Only chunks
        #     *observed running* are journaled as terminal errors (one
        #     of them killed its worker; retrying would kill another
        #     host); chunks still queued when the pool broke never
        #     executed at all and stay retriable, so a resumed campaign
        #     re-runs them instead of skipping them forever;
        #   * a deterministic task/result (un)pickling failure —
        #     terminal, a retry would fail identically;
        #   * transient worker infrastructure (MemoryError, broken
        #     pipes) — journaled retriable like a timeout so a resumed
        #     campaign re-runs the chunk.
        terminal = _terminal_failure(exc, was_running)
        return [
            (
                idx,
                ScenarioResult.failure(
                    spec,
                    f"chunk failed: {type(exc).__name__}: {exc}",
                    status=STATUS_ERROR if terminal else STATUS_TIMEOUT,
                    backend=backend,
                ),
            )
            for idx, spec in chunk
        ]

    contracts = _get_contracts()
    # Worker snapshots in delivery order: the merge-commutativity
    # contract re-merges them forward and backward at the end.
    merge_witness: list[dict] | None = [] if (contracts and recorder) else None
    max_retries = max(0, max_retries)
    # A broken pool must be rebuilt before retried work can run; bound
    # the rebuilds so a deterministically-crashing workload terminates.
    max_rebuilds = 2 * max_retries + 2
    rebuilds = 0
    owned = pool is None
    if owned:
        pool = WorkerPool(workers)
    abandoned = False
    pool_dead = False
    # Generation of the pool observed broken — a concurrent campaign on
    # a shared pool may rebuild it first, making our rebuild a no-op.
    dead_gen: int | None = None
    try:
        start = time.monotonic()
        window = (
            timeout * math.ceil(len(spec_list) / workers)
            if timeout is not None
            else None
        )
        deadline = start + window if window is not None else None
        # The work queue: [items, call, attempts, not_before].  Retried
        # units re-enter with attempts+1 and a backoff delay.
        queue: list[list] = [
            [items, call, 0, 0.0] for items, call in units
        ]
        # (items, call, attempts, handle, t, pool generation at submit)
        pending: list[tuple] = []
        # Which futures were ever observed executing on a worker — the
        # broken-pool classifier's running/queued attribution.  Polled,
        # so a worker that dies within one poll interval of starting may
        # leave its chunk attributed as queued (retriable) — erring
        # retriable is safe: the run still terminates and reports red.
        seen_running: set[int] = set()

        def unit_key(items) -> str:
            return items[0][1].scenario_id if items else "empty"

        def requeue(items, call, attempts) -> None:
            delay = retry_delay(unit_key(items), attempts + 1)
            queue.append(
                [items, call, attempts + 1, time.monotonic() + delay]
            )
            if recorder:
                recorder.vinc("executor.unit_retries")

        def split_singletons(items, attempts) -> None:
            # A hard-killed worker took a whole unit down without saying
            # which scenario was guilty: re-run the members as singleton
            # chunks so the innocent majority completes and only the
            # true killer (if deterministic) fails terminally.  Safe for
            # planned batches too — batched results are tagged by
            # backend, not by grouping, so journal bytes are identical.
            for item in items:
                requeue(
                    [item],
                    (_execute_chunk, [item], backend) + collect,
                    attempts,
                )
            if recorder:
                recorder.vinc("executor.singleton_splits")

        def rebuild_pool() -> None:
            nonlocal pool_dead, rebuilds, dead_gen
            pool.rebuild(dead_gen)
            pool_dead = False
            dead_gen = None
            rebuilds += 1
            if recorder:
                recorder.vinc("executor.pool_rebuilds")

        # Harvest units in *completion* order so every finished unit is
        # journaled immediately — a slow unit must not hold back the
        # durability of the fast ones behind it.
        while queue or pending:
            if should_stop is not None and should_stop():
                # Service shutdown: cancel what never dispatched and
                # bail.  Delivered results are already journaled; a
                # resubmit of the same grid resumes by hash.
                for _items, _call, _attempts, handle, _t, _gen in pending:
                    handle.cancel()
                raise ExecutionStopped("run interrupted by shutdown signal")
            now = time.monotonic()
            progressed = False
            if pool_dead and not pending and queue:
                # Broken futures all drained; bring up a fresh pool for
                # the retried/queued work (or give up retriably).
                if rebuilds < max_rebuilds:
                    rebuild_pool()
                else:
                    exc = BrokenProcessPool(
                        "worker pool broken and rebuild budget exhausted"
                    )
                    for items, call, attempts, _ in queue:
                        deliver(failed_chunk(items, exc, False))
                    queue = []
                progressed = True
            if not pool_dead and queue:
                waiting = []
                for entry in queue:
                    items, call, attempts, not_before = entry
                    if pool_dead or not_before > now:
                        waiting.append(entry)
                        continue
                    submit_gen = pool.generation
                    try:
                        handle = pool.submit(call[0], *call[1:])
                    except (BrokenProcessPool, RuntimeError):
                        # The pool broke (or a shared pool is closing)
                        # before this unit dispatched — it never ran,
                        # so it stays queued for the rebuilt pool.
                        pool_dead = True
                        if dead_gen is None:
                            dead_gen = submit_gen
                        waiting.append(entry)
                        continue
                    pending.append(
                        (items, call, attempts, handle,
                         time.monotonic(), submit_gen)
                    )
                    progressed = True
                queue = waiting
            still_pending = []
            deadline_retried = False
            for items, call, attempts, handle, submit_t, gen in pending:
                if handle.running():
                    seen_running.add(id(handle))
                if handle.done():
                    progressed = True
                    try:
                        payload = handle.result()
                    except ContractViolation:
                        # A violated invariant aborts the run loudly —
                        # never journaled, never retried.
                        raise
                    except BaseException as exc:  # noqa: BLE001
                        was_running = id(handle) in seen_running
                        if isinstance(exc, BrokenProcessPool):
                            pool_dead = True
                            if dead_gen is None:
                                dead_gen = gen
                        if attempts < max_retries and (
                            isinstance(exc, BrokenProcessPool)
                            or not _terminal_failure(exc, was_running)
                        ):
                            if (
                                isinstance(exc, BrokenProcessPool)
                                and was_running
                                and len(items) > 1
                            ):
                                split_singletons(items, attempts)
                            else:
                                requeue(items, call, attempts)
                            continue
                        payload = failed_chunk(items, exc, was_running)
                    deliver(payload, submit_t)
                elif deadline is not None and now > deadline:
                    # Fleet deadline: every still-pending unit expires
                    # together.  With retries left the stragglers'
                    # workers are killed (pool rebuild) and the units
                    # re-enter the queue under a fresh window; otherwise
                    # they journal as retriable timeouts for resume.
                    handle.cancel()
                    if attempts < max_retries:
                        requeue(items, call, attempts)
                        pool_dead = True
                        if dead_gen is None:
                            dead_gen = gen
                        deadline_retried = True
                    else:
                        deliver(timed_out(items, window))
                        abandoned = True
                    progressed = True
                else:
                    still_pending.append(
                        (items, call, attempts, handle, submit_t, gen)
                    )
            pending = still_pending
            if deadline_retried:
                deadline = time.monotonic() + window
            if (queue or pending) and not progressed:
                _stop_aware_sleep(poll_interval, should_stop)
    finally:
        # Any in-flight exception (contract violation, injected fault,
        # SIGINT/SIGTERM translated to KeyboardInterrupt) must not hang
        # on stuck workers: terminate instead of waiting, exactly like
        # the straggler path.
        failing = sys.exc_info()[0] is not None
        if owned:
            if abandoned or pool_dead or failing:
                terminated = pool.close(terminate=True)
                if recorder and terminated and abandoned:
                    recorder.vinc(
                        "executor.straggler_terminations", terminated
                    )
            else:
                pool.close()
        elif abandoned or pool_dead:
            # A shared pool outlives this campaign: replace the broken
            # or straggler-holding workers instead of shutting down, so
            # the daemon's other campaigns keep a live pool.  No-op if
            # the pool is closing (service shutdown) or a neighbor
            # already rebuilt the generation we saw break.
            terminated = pool.rebuild(dead_gen)
            if recorder and terminated and abandoned:
                recorder.vinc("executor.straggler_terminations", terminated)
    if merge_witness is not None and len(merge_witness) > 1:
        contracts.check_merge_commutative(
            merge_witness, context={"backend": backend, "jobs": jobs}
        )
    if recorder:
        recorder.vinc("executor.units_dispatched", len(units))
        recorder.vgauge_max("executor.pool_workers", workers)
        wall = time.monotonic() - start
        if worker_stats:
            recorder.set_info(
                "executor.workers",
                [
                    {"pid": pid, "units": stats[0],
                     "busy_s": round(stats[1], 6)}
                    for pid, stats in sorted(worker_stats.items())
                ],
            )
            busy_total = sum(stats[1] for stats in worker_stats.values())
            if wall > 0:
                recorder.vgauge_max(
                    "executor.worker_utilization_pct",
                    round(100.0 * busy_total / (workers * wall), 1),
                )
    return [collected[i] for i in range(len(spec_list))]
