"""The lane-compacting batch scheduler: plan a campaign into packed batches.

Algorithm-1 ensembles are heterogeneous by construction — decision latency
varies with the adversary, the noise level and ``n`` — so two things used
to waste fast-path width:

* the work-list segmentation only packed *contiguous* same-``n`` runs of
  batch-compatible specs, so interleaved grids (a noise×``n`` sweep, a
  family whose reference-only arms sit between vectorizable ones, a
  resumed campaign's scattered remainder) fragmented into small batches;
* under a process pool, order-chunking cut the work list *before*
  batching, so chunk boundaries broke batches again.

This module fixes both by planning the **whole campaign** before
execution:

* :func:`plan_batches` groups batch-compatible scenarios *globally* —
  not just contiguous runs — by ``(n, round-budget bucket)``, merging a
  bucket's tiny small-``n`` groups into one padded group, cuts each
  group into :class:`PlannedBatch` units sized by the
  :func:`~repro.rounds.fastpath.default_batch_size` memory envelope
  (overridable via ``campaign run --batch-memory``), and emits a
  deterministic :class:`BatchPlan`.  Planning is a pure function of the
  work list (and the envelope), so the plan — and therefore every
  journal record — is independent of worker count and chunking.
* :func:`run_planned_batch` executes one planned batch through the
  mega-batched kernel, which always compacts its lanes (retired lanes
  are compressed out and freed width is refilled from the batch's
  pending lanes — see
  :func:`~repro.rounds.fastpath.simulate_fastpath_batch`), preserving
  the ``auto`` backend's transparent per-lane fallback.
* the executor runs whole planned batches as dispatch units, serially
  or on pool workers (:func:`repro.engine.executor.execute_scenarios`),
  so pool chunking can no longer break batches.

Every mapping back to journal order is by work-list index: results are
re-sorted into grid order by the executor and journal record *bytes* are
a pure function of the spec, so store bytes are invariant under batch
partitioning, kernel width and ``--jobs`` (the differential suite pins
this).

:class:`ProgressReporter` is the campaign-progress face of the plan:
``campaign run`` derives completed/total, scenarios/s, batches
completed/planned and an ETA from it, emitted to *stderr* so stdout
summaries stay byte-identical.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Iterable, TextIO

from repro.engine.backends import (
    BACKEND_AUTO,
    BACKEND_REFERENCE,
    batch_compatible,
    execute_scenario_batch,
    fast_path_declined,
)
from repro.engine.contracts import contract
from repro.engine.contracts import get as _get_contracts
from repro.engine.executor import ScenarioResult
from repro.engine.scenarios import ScenarioSpec
from repro.rounds.array_backend import _GATHER_MIN_N
from repro.rounds.fastpath import default_batch_size, lane_bytes

IndexedSpec = tuple[int, ScenarioSpec]

#: Lanes per planned batch, as a multiple of the kernel width: the kernel
#: runs ``width`` concurrent lanes and refills freed width from the
#: batch's own pending queue, so one planned batch amortizes several
#: envelope-widths of work without exceeding the memory budget.
BATCH_DEPTH = 4


def round_bucket(max_rounds: int) -> int:
    """The round-budget bucket of a scenario: the power-of-two ceiling.

    Batches share one ``(S, R, n, n)`` schedule stack sized for the
    largest round budget in the batch, so mixing a 10-round lane with a
    500-round lane would waste memory (and shrink the width envelope)
    for everyone.  Bucketing by power-of-two ceiling bounds that waste
    at 2x while keeping the grouping deterministic and coarse enough
    that whole ensembles land in one bucket.
    """
    if max_rounds < 1:
        raise ValueError("need max_rounds >= 1")
    return 1 << int(max_rounds - 1).bit_length()


@dataclass(frozen=True)
class PlannedBatch:
    """One packed tensor batch, sharing a round-budget bucket.

    ``items`` holds ``(work-list index, spec)`` pairs in work-list order;
    ``width`` is the kernel's concurrent-lane cap (the memory envelope) —
    ``len(items)`` may exceed it, in which case the kernel refills freed
    width from the remaining lanes as earlier ones retire.  ``n`` is the
    batch's *tensor* width: the widest member's ``n``; in a packed batch
    narrower lanes run padded up to it (the kernel masks the padding, so
    results are bit-identical either way).
    """

    n: int
    bucket: int
    width: int
    items: tuple[IndexedSpec, ...]

    @property
    def lanes(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class BatchPlan:
    """A deterministic execution plan for one campaign work list.

    ``batches`` cover every batch-compatible scenario (grouped globally
    by ``(n, bucket)``, first-appearance order); ``singles`` are the
    scenarios only the per-scenario dispatch can run, in work-list
    order.  The plan is a pure function of the work list and the memory
    envelope — never of worker count or chunking.
    """

    batches: tuple[PlannedBatch, ...]
    singles: tuple[IndexedSpec, ...]

    @property
    def total(self) -> int:
        return sum(b.lanes for b in self.batches) + len(self.singles)

    @property
    def batched_lanes(self) -> int:
        return sum(b.lanes for b in self.batches)

    def describe(self) -> str:
        """One human line: how the work list was packed."""
        return (
            f"{len(self.batches)} batches ({self.batched_lanes} lanes) + "
            f"{len(self.singles)} singles"
        )


#: Smallest lane count worth cutting a batch down to when spreading a
#: group across workers: the mega-batch kernel's per-round amortization
#: has mostly plateaued by here, so thinner batches trade little kernel
#: efficiency for pool parallelism.
MIN_SPLIT_LANES = 8


def estimate_batch_bytes(n: int, max_rounds: int, lanes: int = 1) -> int:
    """Working-set bytes of a planned batch running ``lanes`` concurrent
    lanes at tensor width ``n``.

    This is the quantity the ``--batch-memory`` envelope bounds.  Under
    cross-``n`` packing, ``n`` must be the batch's *padded* width (its
    widest member), never a member's nominal ``n`` — a packed lane
    occupies a full padded slice of every kernel tensor, so sizing the
    envelope from nominal widths would overflow it by up to
    ``(pad/n)^3`` per lane.
    """
    if lanes < 1:
        raise ValueError("need lanes >= 1")
    return lanes * lane_bytes(n, max_rounds)


def plan_batches(
    items: Iterable[IndexedSpec],
    batch_memory: int | None = None,
    jobs: int = 1,
    recorder=None,
    _verify: bool = True,
) -> BatchPlan:
    """Plan a work list into packed tensor batches.

    Batch-compatible specs are grouped globally by ``(n, round-budget
    bucket)`` — interleaved grids and non-contiguous resume remainders
    pack as tightly as a sorted work list — then each group is cut into
    :class:`PlannedBatch` units of at most ``width * BATCH_DEPTH`` lanes,
    where ``width`` is the group's
    :func:`~repro.rounds.fastpath.default_batch_size` memory envelope
    (``batch_memory`` overrides the envelope budget, in bytes).
    Everything else becomes a single.

    Within a round bucket, the groups that are both dense-regime (``n``
    below the kernel's gather threshold, where a round costs mostly
    fixed per-call overhead) and tiny (fewer than
    :data:`MIN_SPLIT_LANES` lanes) merge into one group run at the
    widest merged ``n``, narrower lanes padded (cross-``n`` packing);
    every other group keeps its own ``n``, since padding it would only
    add work.  The ``scheduler.padded_lane_width`` /
    ``scheduler.wasted_pad_cells`` counters say how much a plan pads.
    The width envelope is sized from the *padded* width
    (:func:`estimate_batch_bytes`), and the kernel masks padding out of
    every commit point, so results and journal bytes equal a per-``n``
    plan's.

    ``jobs`` is the pool width the plan will be dispatched across: a
    group large enough to keep several workers busy is cut into at
    least ``jobs`` batches (never thinner than
    :data:`MIN_SPLIT_LANES` lanes), so a homogeneous campaign cannot
    serialize onto one worker.  Deterministic: same work list, envelope
    and jobs, same plan — and execution results are a pure function of
    the spec, so the cut never shows in journal bytes.
    """
    items = list(items)
    keyed: list[tuple[tuple[int, int], IndexedSpec]] = []
    lanes: dict[tuple[int, int], int] = {}
    singles: list[IndexedSpec] = []
    for idx, spec in items:
        if batch_compatible(spec):
            key = (spec.n, round_bucket(spec.resolved_max_rounds()))
            keyed.append((key, (idx, spec)))
            lanes[key] = lanes.get(key, 0) + 1
        else:
            singles.append((idx, spec))
    # Key (0, bucket) is the bucket's packed group; members keep
    # first-appearance order either way.
    groups: dict[tuple[int, int], list[IndexedSpec]] = {}
    for key, item in keyed:
        n, bucket = key
        if n < _GATHER_MIN_N and lanes[key] < MIN_SPLIT_LANES:
            key = (0, bucket)
        groups.setdefault(key, []).append(item)
    batches: list[PlannedBatch] = []
    padded_lane_width = wasted_pad_cells = 0
    max_batch_bytes = 0
    for (_, bucket), members in groups.items():
        # The group's tensor width: the widest member.  Sizing the
        # envelope from it is what keeps --batch-memory honest when a
        # group is packed.
        n = max(spec.n for _, spec in members)
        rmax = max(spec.resolved_max_rounds() for _, spec in members)
        width = default_batch_size(n, rmax, budget_bytes=batch_memory)
        for _, spec in members:
            if spec.n < n:
                padded_lane_width += n
                wasted_pad_cells += n * n - spec.n * spec.n
        cap = width * BATCH_DEPTH
        if jobs > 1:
            per_worker = -(-len(members) // jobs)  # ceil
            cap = min(cap, max(per_worker, min(width, MIN_SPLIT_LANES)))
        for lo in range(0, len(members), cap):
            chunk = tuple(members[lo : lo + cap])
            max_batch_bytes = max(
                max_batch_bytes,
                estimate_batch_bytes(n, rmax, min(width, len(chunk))),
            )
            batches.append(
                PlannedBatch(n=n, bucket=bucket, width=width, items=chunk)
            )
    plan = BatchPlan(batches=tuple(batches), singles=tuple(singles))
    if recorder:
        # Deterministic plane: the global grouping is a pure function of
        # the work list (jobs only changes how groups are *cut*; padding
        # is decided per group, not per cut).
        recorder.inc("scheduler.scenarios", plan.total)
        recorder.inc("scheduler.singles", len(plan.singles))
        recorder.inc("scheduler.groups", len(groups))
        recorder.inc("scheduler.batched_lanes", plan.batched_lanes)
        if padded_lane_width:
            recorder.inc("scheduler.padded_lane_width", padded_lane_width)
            recorder.inc("scheduler.wasted_pad_cells", wasted_pad_cells)
        for members in groups.values():
            recorder.observe("scheduler.group_lanes", len(members))
            recorder.gauge_max("scheduler.max_group_lanes", len(members))
        # Volatile plane: batch cuts (and therefore packing efficiency)
        # depend on the jobs split.
        recorder.vinc("scheduler.batches_planned", len(plan.batches))
        slots = sum(
            b.width * -(-b.lanes // b.width) for b in plan.batches
        )
        recorder.vinc("scheduler.lane_slots", slots)
        recorder.vinc(
            "scheduler.wasted_lane_width", slots - plan.batched_lanes
        )
        if slots:
            recorder.vgauge_max(
                "scheduler.packing_efficiency_pct",
                round(100.0 * plan.batched_lanes / slots, 1),
            )
        if max_batch_bytes:
            recorder.vgauge_max("scheduler.max_batch_bytes", max_batch_bytes)
    if _verify:
        contracts = _get_contracts()
        if contracts and contracts.sample("scheduler.plan_determinism"):
            # Plan determinism: re-planning the identical work list must
            # reproduce the plan bit-for-bit (the invariant that makes
            # journal bytes independent of when/where planning happens).
            contracts.check_plan(
                plan,
                lambda: plan_batches(
                    items, batch_memory, jobs, recorder=None, _verify=False
                ),
                context={
                    "scenarios": len(items),
                    "batch_memory": batch_memory,
                    "jobs": jobs,
                },
            )
    return plan


@contract(
    post=lambda result, batch, backend, recorder=None: (
        [idx for idx, _ in result] == [idx for idx, _ in batch.items]
    )
)
def run_planned_batch(
    batch: PlannedBatch, backend: str, recorder=None
) -> list[tuple[int, ScenarioResult]]:
    """Execute one planned batch; returns ``(work-list index, result)``.

    The kernel runs ``batch.width`` concurrent lanes, refilling freed
    width from the batch's own pending lanes.  Under ``"auto"`` a lane
    the fast path turns out not to cover re-runs on ``auto``'s fallback
    engine (the reference simulator, or the family runner of a tagged
    spec) instead of surfacing a forced-backend error.
    """
    from repro.engine.executor import _run_one

    specs = [spec for _, spec in batch.items]
    results = execute_scenario_batch(
        specs, width=batch.width, recorder=recorder
    )
    if backend == BACKEND_AUTO:
        results = [
            _run_one(spec, BACKEND_REFERENCE)
            if fast_path_declined(result)
            else result
            for spec, result in zip(specs, results)
        ]
    return [
        (idx, result)
        for (idx, _), result in zip(batch.items, results)
    ]


# ----------------------------------------------------------------------
# Campaign progress (stderr-only; stdout summaries stay byte-identical)
# ----------------------------------------------------------------------
def _fmt_eta(seconds: float) -> str:
    if not math.isfinite(seconds):
        return "?"
    seconds = max(0, int(round(seconds)))
    minutes, sec = divmod(seconds, 60)
    if minutes >= 60:
        hours, minutes = divmod(minutes, 60)
        return f"{hours}:{minutes:02d}:{sec:02d}"
    return f"{minutes}:{sec:02d}"


class ProgressReporter:
    """Family-aware campaign progress lines, derived from the batch plan.

    Emits at most one line per ``interval`` seconds (plus a final line)
    of the form::

        [latency] 96/252 scenarios (38%) · 131.2/s · batch 4/11 · eta 0:01

    ``plan`` (a :class:`BatchPlan`) supplies the batch column: a planned
    batch counts as completed when all of its lanes have reported.
    Writes to ``stream`` (default: ``sys.stderr``) so machine-read
    stdout — campaign tables, canonical summaries — is never touched.
    ``interval`` is floored at 0.1 s so tiny fast campaigns cannot spam
    one line per scenario.  A live :class:`~repro.engine.telemetry.Recorder`
    lets the reporter surface executor failure counters as they happen.
    """

    def __init__(
        self,
        total: int,
        label: str | None = None,
        plan: BatchPlan | None = None,
        stream: TextIO | None = None,
        interval: float = 0.5,
        clock=time.monotonic,
        recorder=None,
    ) -> None:
        self.total = total
        self.label = label or "campaign"
        self.stream = stream if stream is not None else sys.stderr
        self.interval = max(interval, 0.1)
        self.recorder = recorder
        self._clock = clock
        self._start = clock()
        self._last_emit = float("-inf")
        self._done = 0
        self.num_batches = 0
        self._batch_of: dict[str, int] = {}
        self._batch_left: list[int] = []
        self._batches_done = 0
        if plan is not None:
            self.num_batches = len(plan.batches)
            self._batch_left = [batch.lanes for batch in plan.batches]
            for b, batch in enumerate(plan.batches):
                for _, spec in batch.items:
                    self._batch_of[spec.scenario_id] = b

    def update(self, result: ScenarioResult) -> None:
        """Record one completed scenario; emit a line when due."""
        self._done += 1
        b = self._batch_of.get(result.scenario_id)
        if b is not None and self._batch_left[b] > 0:
            self._batch_left[b] -= 1
            if self._batch_left[b] == 0:
                self._batches_done += 1
        now = self._clock()
        if self._done == self.total or now - self._last_emit >= self.interval:
            self._last_emit = now
            self._emit(now)

    def snapshot(self) -> dict:
        """Machine-readable progress (the campaign service's status
        endpoint).  Same numbers the human line prints: completed/total,
        rate, plan-derived batch progress, and an ETA in seconds
        (``None`` until there is a measurable rate)."""
        now = self._clock()
        elapsed = now - self._start
        rate = self._done / elapsed if elapsed > 1e-3 else 0.0
        remaining = self.total - self._done
        return {
            "done": self._done,
            "total": self.total,
            "elapsed_s": round(elapsed, 3),
            "rate_per_s": round(rate, 3) if rate > 0 else None,
            "batches_done": self._batches_done,
            "batches_planned": self.num_batches,
            "eta_s": (
                round(remaining / rate, 3) if remaining and rate > 0 else None
            ),
        }

    def _emit(self, now: float) -> None:
        # Guard the rate (and the ETA derived from it) against a
        # zero-elapsed first emission: a sub-millisecond clock delta
        # yields an absurd rate and a divide-toward-infinity ETA.
        elapsed = now - self._start
        rate = self._done / elapsed if elapsed > 1e-3 else 0.0
        pct = 100 * self._done // self.total if self.total else 100
        shown = f"{rate:.1f}" if rate > 0 else "?"
        line = (
            f"[{self.label}] {self._done}/{self.total} scenarios "
            f"({pct}%) · {shown}/s"
        )
        if self.num_batches:
            line += f" · batch {self._batches_done}/{self.num_batches}"
        if self.recorder:
            failed = self.recorder.counter(
                "executor.results_error"
            ) + self.recorder.counter("executor.results_timeout")
            if failed:
                line += f" · {failed} failed"
        remaining = self.total - self._done
        if remaining and rate > 0:
            line += f" · eta {_fmt_eta(remaining / rate)}"
        print(line, file=self.stream, flush=True)
