"""One dispatcher for the local process pool and the remote fleet.

:func:`plan_units` cuts a work list into dispatch *units* — the
scheduler's planned batches plus chunks of its singles under the
``batched``/``auto`` backends, contiguous chunks otherwise — whose
concatenation is the plan order every run journals in, whatever
``jobs`` is.  A :class:`Dispatcher` runs them on *workers*, each one
failure domain: a :class:`~repro.engine.executor.WorkerPool` process or
a TCP link to a ``repro worker`` (:mod:`repro.engine.remote`).  A worker
has a ``capacity`` (the running unit plus those queued behind it), says
whether losing it is terminal for the unit it ran
(``loss_is_terminal``), whether it is ``alive``, and offers
``submit(attempt)``, ``cut(attempt)``, ``pending()`` and
``describe()``.  It reports each :class:`Attempt` once, from any
thread: ``"done"``, ``"error"`` (a unit error's type name and
message), ``"fatal"`` (a :class:`~repro.engine.contracts.ContractViolation`)
or ``"lost"`` (whether the unit was running, and why).

The failure policy, the same for both worker kinds:

* a unit error of a deterministic type (:data:`DETERMINISTIC_ERRORS`)
  journals terminal ``"error"`` records; other unit errors are retried
  after :func:`retry_delay` while ``max_retries`` lasts, then journal
  retriable ``"timeout"`` records;
* a lost worker is charged only to the unit it was running, which is
  retried as one-scenario units so only a deterministic killer ends
  failed; units queued behind it never started and requeue uncharged;
* at the fleet deadline every unfinished unit expires together: running
  units are cut, and each is retried under a fresh window or journals
  ``"timeout"`` records;
* once ``should_stop()`` is true no further event is classified or
  journaled: held results are drained and
  :class:`~repro.engine.executor.ExecutionStopped` is raised.

Results reach ``on_result`` in plan order through a
:class:`ShardMerger`, so a parallel journal is byte-identical to the
serial one.  Results held back behind an unfinished earlier unit go to
a shard file next to the journal (:func:`shard_path`), which
:func:`absorb_shards` folds back on resume, so a coordinator crash
loses no finished work.
"""

from __future__ import annotations

import itertools
import json
import os
import queue as queue_mod
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.engine.contracts import get as _get_contracts
from repro.engine.executor import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    ExecutionStopped,
    ScenarioResult,
    _count_result,
    is_terminal,
)
from repro.engine.store import decode_result, journal_line

#: Unit failures a retry would reproduce exactly: a task or result that
#: cannot be pickled, or a worker entry point called with the wrong
#: arguments.
DETERMINISTIC_ERRORS = frozenset(
    {"PicklingError", "AttributeError", "TypeError"}
)

_RETRY_BASE_S = 0.05
_RETRY_CAP_S = 2.0

#: Longest wait between two ``should_stop`` polls while no event arrives.
STOP_POLL_S = 0.05


def retry_delay(key: str, attempt: int) -> float:
    """Backoff before in-run retry ``attempt`` (1-based) of a unit.

    Capped exponential with *deterministic* decorrelated jitter: the
    jitter RNG is seeded from the unit's first scenario id (a content
    hash that embeds the campaign seed) and the attempt number, so two
    colliding units spread apart but the schedule is reproducible."""
    spread = 0.5 + random.Random(f"{key}:{attempt}").random()
    return min(_RETRY_CAP_S, _RETRY_BASE_S * (2 ** (attempt - 1)) * spread)


def default_chunksize(num_specs: int, jobs: int) -> int:
    """~4 chunks per worker: large enough to amortize fork+pickle, small
    enough that the workers load-balance uneven scenario costs."""
    return max(1, num_specs // max(1, jobs * 4))


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
_unit_ids = itertools.count(1)


@dataclass
class Unit:
    """One dispatch unit: a whole planned batch, or an order-chunk."""

    kind: str  # "batch" | "chunk"
    items: list
    batch: Any = None
    id: str = field(default_factory=lambda: f"u{next(_unit_ids)}")

    def key(self) -> str:
        return self.items[0][1].scenario_id if self.items else "empty"


def plan_units(
    indexed: list,
    backend: str,
    *,
    jobs: int,
    plan=None,
    batch_memory: int | None = None,
    chunksize: int | None = None,
    recorder=None,
) -> list[Unit]:
    """The dispatch units of ``indexed`` (``(index, spec)`` pairs) in
    plan order: the batches of ``plan`` (or of a plan cut for ``jobs``
    workers, which never changes the item order) plus chunks of its
    singles, or contiguous chunks for the unbatched backends.  The one
    place a work list becomes units, for the serial path, the pool and
    the fleet alike."""

    def chunks(items: list) -> list[Unit]:
        size = chunksize or default_chunksize(len(items), jobs)
        return [
            Unit("chunk", items[i:i + size])
            for i in range(0, len(items), size)
        ]

    if backend not in ("batched", "auto"):
        return chunks(list(indexed))
    if plan is None:
        from repro.engine.scheduler import plan_batches

        plan = plan_batches(
            indexed, batch_memory=batch_memory, jobs=jobs, recorder=recorder
        )
    units = [Unit("batch", list(batch.items), batch) for batch in plan.batches]
    return units + chunks(list(plan.singles))


# ----------------------------------------------------------------------
# Deterministic shard-merge
# ----------------------------------------------------------------------
class ShardMerger:
    """Release completion-order results in canonical plan order.

    Built from the plan-order index sequence (the order a serial
    single-host run journals in).  :meth:`add` buffers each arriving
    ``(index, result)`` and returns the newly releasable contiguous
    prefix — the merged journal stream is byte-identical to the serial
    run no matter the arrival order.  Strict by design: an unknown index
    or a duplicate arrival raises (the dispatcher drops late replies of
    expired attempts *before* merging).
    """

    def __init__(self, order: Sequence[int]) -> None:
        self._pos = {int(idx): pos for pos, idx in enumerate(order)}
        if len(self._pos) != len(order):
            raise ValueError("duplicate work indices in merge order")
        self._held: dict[int, tuple[int, ScenarioResult]] = {}
        self._next = 0
        self.total = len(self._pos)
        self.released = 0

    def add(self, idx: int, result: ScenarioResult) -> list:
        """Accept one completed result; return the newly released
        ``(idx, result)`` pairs in plan order (possibly empty)."""
        pos = self._pos[int(idx)]
        if pos < self._next or pos in self._held:
            raise ValueError(f"duplicate result for work index {idx}")
        self._held[pos] = (int(idx), result)
        out = []
        while self._next in self._held:
            out.append(self._held.pop(self._next))
            self._next += 1
            self.released += 1
        return out

    def drain(self) -> list:
        """Flush everything still held, in position order (gaps are
        skipped — their scenarios never completed and will re-run on
        resume).  Used on interrupt so completed work stays durable."""
        out = [self._held[pos] for pos in sorted(self._held)]
        self.released += len(out)
        self._held.clear()
        return out

    @property
    def pending(self) -> int:
        return len(self._held)


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class Attempt:
    """One dispatch of a unit to a worker.  ``tries`` counts the
    attempts already charged to the unit; ``handle`` is the worker's
    own reference (the pool's future)."""

    __slots__ = ("unit", "tries", "worker", "submitted", "handle", "_inbox")

    def __init__(self, unit: Unit, tries: int, worker, inbox) -> None:
        self.unit = unit
        self.tries = tries
        self.worker = worker
        self.submitted = time.monotonic()
        self.handle = None
        self._inbox = inbox

    def report(self, kind: str, data: Any = None) -> None:
        """Hand the attempt's outcome to the dispatcher (any thread)."""
        self._inbox.put((self, kind, data))


class Dispatcher:
    """Run units on workers under the module's failure policy.

    ``telemetry`` prefixes the dispatch counters (``executor`` or
    ``remote``); unit durations and result counts keep their
    ``executor.`` names for both.  ``timeout`` pools into one fleet
    deadline of ``timeout * ceil(scenarios / workers)``; ``shard_base``
    (the journal path) enables the shard file.  :meth:`run` returns the
    results keyed by work index."""

    def __init__(
        self,
        units: list[Unit],
        workers: list,
        *,
        backend: str,
        telemetry: str,
        on_result: Callable[[ScenarioResult], Any] | None = None,
        recorder=None,
        max_retries: int = 0,
        timeout: float | None = None,
        should_stop: Callable[[], bool] | None = None,
        shard_base: str | os.PathLike | None = None,
    ) -> None:
        self.units = units
        self.workers = list(workers)
        self.backend = backend
        self.prefix = telemetry
        self.on_result = on_result
        self.recorder = recorder
        self.max_retries = max(0, max_retries)
        self.should_stop = should_stop
        self.shard_base = shard_base
        order = [idx for unit in units for idx, _spec in unit.items]
        self.window = (
            timeout * -(-len(order) // max(1, len(self.workers)))
            if timeout is not None
            else None
        )
        self.merger = ShardMerger(order)
        self.results: dict[int, ScenarioResult] = {}
        #: Results the workers returned (late replies excluded).
        self.received = 0
        #: Whether the fleet deadline expired any unit.
        self.expired = False
        # [unit, tries, not_before]: retried units re-enter with a
        # backoff, units that never started re-enter at the front.
        self._queue: list[list] = [[unit, 0, 0.0] for unit in units]
        self._live: set[Attempt] = set()
        self._load = {worker: 0 for worker in self.workers}
        self._stats = {
            worker: {"pid": None, "units": 0, "busy_s": 0.0,
                     "dispatched": 0, "requeued": 0}
            for worker in self.workers
        }
        self._inbox: queue_mod.Queue = queue_mod.Queue()
        self._shard = None
        contracts = _get_contracts()
        self._delivered_ids: list[str] | None = [] if contracts else None
        self._snapshots: list[dict] | None = (
            [] if (contracts and recorder) else None
        )

    # -- the loop -----------------------------------------------------
    def run(self) -> dict[int, ScenarioResult]:
        start = time.monotonic()
        deadline = start + self.window if self.window is not None else None
        try:
            while self._queue or self._live:
                self._check_stop()
                if deadline is not None and time.monotonic() > deadline:
                    deadline = self._expire()
                    continue
                self._dispatch()
                if not self._live and not any(w.alive for w in self.workers):
                    for unit, _tries, _ in self._queue:
                        self._fail(unit, "no live worker left", STATUS_TIMEOUT)
                    break
                try:
                    attempt, kind, data = self._inbox.get(
                        timeout=self._wait(deadline)
                    )
                except queue_mod.Empty:
                    continue
                self._check_stop()
                self._handle(attempt, kind, data)
        except ExecutionStopped:
            # Completed work stays durable; the gaps re-run on resume.
            self._deliver(self.merger.drain())
            raise
        finally:
            if self._shard is not None:
                self._shard.close()
        self._finish(start)
        return self.results

    def _check_stop(self) -> None:
        if self.should_stop is not None and self.should_stop():
            raise ExecutionStopped("run interrupted by shutdown signal")

    def _wait(self, deadline: float | None) -> float | None:
        """How long to block for the next event: until the deadline, the
        next backoff expiry (if a worker has room) or the next stop
        poll; ``None`` blocks until an event arrives."""
        now = time.monotonic()
        waits = []
        if deadline is not None:
            waits.append(deadline - now)
        if self._queue and self._room():
            waits.append(min(entry[2] for entry in self._queue) - now)
        if self.should_stop is not None:
            waits.append(STOP_POLL_S)
        return max(0.0, min(waits)) if waits else None

    def _room(self) -> list:
        return [
            w for w in self.workers
            if w.alive and self._load[w] < w.capacity
        ]

    def _dispatch(self) -> None:
        """Hand ready units to workers with room, least loaded first, so
        every worker runs a unit before any gets one queued."""
        now = time.monotonic()
        while True:
            room = self._room()
            ready = next(
                (i for i, entry in enumerate(self._queue) if entry[2] <= now),
                None,
            )
            if not room or ready is None:
                return
            entry = self._queue.pop(ready)
            worker = min(room, key=lambda w: (self._load[w], w.pending()))
            attempt = Attempt(entry[0], entry[1], worker, self._inbox)
            worker.submit(attempt)
            self._live.add(attempt)
            self._load[worker] += 1
            self._stats[worker]["dispatched"] += 1
            self._vinc("batches_dispatched")

    def _handle(self, attempt: Attempt, kind: str, data) -> None:
        if attempt not in self._live:
            return  # a late reply of an attempt the deadline expired
        self._live.discard(attempt)
        worker = attempt.worker
        self._load[worker] -= 1
        if kind == "done":
            self._complete(attempt, *data)
        elif kind == "fatal":
            raise data  # a violated invariant: never journaled or retried
        elif kind == "error":
            name, message = data
            deterministic = name in DETERMINISTIC_ERRORS
            self._charge(
                attempt,
                f"chunk failed: {name}: {message}",
                STATUS_ERROR if deterministic else STATUS_TIMEOUT,
                retry=not deterministic,
            )
        else:  # "lost"
            was_running, reason = data
            if not was_running:
                self._queue.insert(0, [attempt.unit, attempt.tries, 0.0])
                return
            self._vinc("workers_lost")
            self._charge(
                attempt,
                f"chunk failed: {reason}",
                STATUS_ERROR if worker.loss_is_terminal else STATUS_TIMEOUT,
                split=True,
            )

    def _charge(self, attempt: Attempt, reason: str, status: str,
                retry: bool = True, split: bool = False) -> None:
        """Charge one failed attempt to its unit: retry it (as
        one-scenario units when ``split``) or journal ``status``
        records."""
        unit, tries = attempt.unit, attempt.tries
        if not (retry and tries < self.max_retries):
            self._fail(unit, reason, status)
            return
        self._stats[attempt.worker]["requeued"] += 1
        self._vinc("unit_retries")
        if split and len(unit.items) > 1:
            # A batch splits into one-lane batches, so a chunk only ever
            # holds plan singles.  Batched results are tagged by backend,
            # not by grouping, so journal bytes are equal.
            self._vinc("singleton_splits")
            for item in unit.items:
                batch = None if unit.batch is None else replace(
                    unit.batch, n=item[1].n, items=(item,)
                )
                self._requeue(Unit(unit.kind, [item], batch), tries + 1)
        else:
            self._requeue(unit, tries + 1)

    def _requeue(self, unit: Unit, tries: int) -> None:
        not_before = time.monotonic() + retry_delay(unit.key(), tries)
        self._queue.append([unit, tries, not_before])

    def _expire(self) -> float | None:
        """The fleet deadline passed: every unfinished unit expires
        together.  Returns the next deadline (``None`` when nothing was
        retried)."""
        self.expired = True
        expired = sorted(self._live, key=lambda a: a.submitted)
        for attempt in expired:
            if attempt.worker.cut(attempt):
                self._vinc("stragglers_cut")
        units = [(a.unit, a.tries) for a in expired]
        units += [(unit, tries) for unit, tries, _ in self._queue]
        self._live.clear()
        self._load = dict.fromkeys(self._load, 0)
        self._queue = []
        retried = False
        for unit, tries in units:
            if tries < self.max_retries:
                self._vinc("unit_retries")
                self._requeue(unit, tries + 1)
                retried = True
            else:
                self._fail(
                    unit, f"no result within {self.window:.1f}s",
                    STATUS_TIMEOUT,
                )
        return time.monotonic() + self.window if retried else None

    # -- results ------------------------------------------------------
    def _complete(self, attempt: Attempt, pairs: list, meta: dict | None):
        stats = self._stats[attempt.worker]
        stats["units"] += 1
        self.received += len(pairs)
        rec = self.recorder
        if rec:
            turnaround = time.monotonic() - attempt.submitted
            rec.add_duration("executor.unit_wall_s", turnaround)
            if meta is not None:
                busy = meta["busy_s"]
                rec.merge(meta["snapshot"])
                if self._snapshots is not None:
                    self._snapshots.append(meta["snapshot"])
                rec.add_duration("executor.worker_busy_s", busy)
                rec.add_duration(
                    "executor.queue_wait_s", max(0.0, turnaround - busy)
                )
                stats["busy_s"] += busy
                stats["pid"] = meta.get("pid", stats["pid"])
        self._release(pairs)

    def _fail(self, unit: Unit, reason: str, status: str) -> None:
        self._release([
            (idx, ScenarioResult.failure(
                spec, reason, status=status, backend=self.backend))
            for idx, spec in unit.items
        ])

    def _release(self, pairs: list) -> None:
        released = []
        for idx, result in pairs:
            released.extend(self.merger.add(idx, result))
        if self.shard_base is not None and self.merger.pending:
            done = {idx for idx, _ in released}
            held = [result for idx, result in pairs if idx not in done]
            if held:
                self._write_shard(held)
        self._deliver(released)

    def _write_shard(self, results: list[ScenarioResult]) -> None:
        if self._shard is None:
            # "w": an earlier run's shard was absorbed on resume or is
            # superseded by this run.
            path = shard_path(self.shard_base)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._shard = path.open("w", encoding="utf-8")
        self._shard.write("".join(journal_line(r) + "\n" for r in results))
        self._shard.flush()

    def _deliver(self, released: list) -> None:
        rec = self.recorder
        for idx, result in released:
            if rec:
                _count_result(rec, result)
            self.results[idx] = result
            if self._delivered_ids is not None:
                self._delivered_ids.append(result.scenario_id)
            if self.on_result is not None:
                self.on_result(result)

    def _finish(self, start: float) -> None:
        contracts = _get_contracts()
        context = {"backend": self.backend, "workers": len(self.workers)}
        if self._snapshots is not None and len(self._snapshots) > 1:
            contracts.check_merge_commutative(self._snapshots, context)
        if contracts and contracts.sample("shard_merge"):
            contracts.check_shard_merge(
                [spec.scenario_id for unit in self.units
                 for _idx, spec in unit.items],
                self._delivered_ids,
                context=context,
            )
        if self.shard_base is not None:
            # Every held result is journaled once the run returns.
            _unlink(shard_path(self.shard_base))
        rec = self.recorder
        if rec:
            prefix = self.prefix
            rec.vgauge_max(f"{prefix}.pool_workers", len(self.workers))
            rec.set_info(
                f"{prefix}.workers",
                [{**stats, **worker.describe()}
                 for worker, stats in self._stats.items()],
            )
            wall = time.monotonic() - start
            busy = sum(stats["busy_s"] for stats in self._stats.values())
            if wall > 0 and busy:
                rec.vgauge_max(
                    f"{prefix}.worker_utilization_pct",
                    round(100.0 * busy / (len(self.workers) * wall), 1),
                )

    def _vinc(self, name: str) -> None:
        if self.recorder:
            self.recorder.vinc(f"{self.prefix}.{name}")


# ----------------------------------------------------------------------
# Crash-resume: fold coordinator shards back into the journal.
# ----------------------------------------------------------------------
def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def shard_path(store_path: str | os.PathLike) -> Path:
    """The coordinator shard file next to a journal path."""
    return Path(f"{store_path}.shard.jsonl")


def absorb_shards(store, latest: dict | None = None, recorder=None) -> int:
    """Fold shard records into the store's main journal.

    A coordinator crash can leave results that finished (and were
    sharded while held back for plan order) but never reached the
    journal.  Resuming a campaign absorbs those records first — a shard
    record is appended when the journal has no terminal record for its
    scenario — then removes the shard file.  ``latest`` is the caller's
    journal snapshot (read here only if a shard exists) and is updated
    in place.  Idempotent: re-absorbing already-journaled records is a
    no-op.  Returns the number of records absorbed.
    """
    if store.path is None:
        return 0
    shard = shard_path(store.path)
    try:
        lines = shard.read_text(encoding="utf-8").splitlines()
    except OSError:
        return 0  # no shard: the common case costs one failed open
    if latest is None:
        latest = store.load()
    absorbed = 0
    for line in lines:
        try:
            result = decode_result(json.loads(line))
        except (ValueError, KeyError, TypeError):
            continue  # torn shard tail — the scenario just re-runs
        prior = latest.get(result.scenario_id)
        if prior is not None and (
            is_terminal(prior.status) or not is_terminal(result.status)
        ):
            continue
        store.append(result)
        latest[result.scenario_id] = result
        absorbed += 1
    _unlink(shard)
    if recorder and absorbed:
        recorder.vinc("executor.shard_records_absorbed", absorbed)
    return absorbed
