"""The campaign API: grid + store + executor, resumable end to end.

A :class:`Campaign` binds a scenario grid to a result store and drives the
executor over whatever is still missing.  Invoking :meth:`Campaign.run`
twice is idempotent; deleting half the journal and re-running executes
exactly the deleted half (resume-by-hash).

The CLI surface (``skeleton-agreement campaign run/status/report``) is a
thin veneer over this module, and the experiment sweeps
(:mod:`repro.experiments.sweeps`) and the BASELINE / LATENCY-DIST
benchmarks route their ensembles through it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.reporting import format_table
from repro.engine.backends import check_backend
from repro.engine.contracts import checks_mark, record_checks
from repro.engine.dispatch import absorb_shards
from repro.engine.executor import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ScenarioResult,
    execute_scenarios,
    is_terminal,
)
from repro.engine.scenarios import ScenarioGrid, ScenarioSpec
from repro.engine.store import ResultStore
from repro.engine.telemetry import NULL


@dataclass(frozen=True)
class CampaignReport:
    """What one :meth:`Campaign.run` invocation did."""

    total: int
    executed: int
    skipped: int
    ok: int
    errors: int
    timeouts: int

    def as_rows(self) -> list[list]:
        return [
            ["scenarios in grid", self.total],
            ["already complete (skipped)", self.skipped],
            ["executed now", self.executed],
            ["  ok", self.ok],
            ["  errors", self.errors],
            ["  timeouts", self.timeouts],
        ]

    def summary(self) -> str:
        return format_table(["quantity", "value"], self.as_rows(),
                            title="campaign run")


@dataclass(frozen=True)
class CampaignStatus:
    """Store-vs-grid reconciliation (no execution)."""

    total: int
    ok: int
    errors: int
    timeouts: int
    missing: int
    #: Wall-clock span of the journal's append timestamps (the ``.times``
    #: sidecar), when at least two records carry one.  Advisory — old
    #: journals without a sidecar report ``None``.
    elapsed_s: float | None = None
    #: Terminal records per second over ``elapsed_s`` (``None`` when the
    #: span is degenerate).
    rate: float | None = None

    @property
    def complete(self) -> bool:
        return self.missing == 0 and self.timeouts == 0

    @property
    def succeeded(self) -> bool:
        """Complete with no terminal failures.

        Error records are terminal (resume will not retry them), so a
        fully-journaled-but-failed campaign is complete yet not
        succeeded — the CLI's shared green-ness condition."""
        return self.complete and self.errors == 0

    def state(self) -> str:
        """A four-way classification the CLI exit codes hang off:

        * ``"nothing-to-do"`` — the grid expanded to zero scenarios.  An
          empty-but-consistent store is *vacuously* green; it must be
          distinguishable (exit 2) from a campaign that actually ran.
        * ``"ok"`` — every scenario has a terminal record, none failed.
        * ``"failed"`` — fully journaled but with terminal errors.
        * ``"incomplete"`` — a half-executed grid: missing and/or
          retriable-timeout scenarios remain.
        """
        if self.total == 0:
            return "nothing-to-do"
        if not self.complete:
            return "incomplete"
        if self.errors:
            return "failed"
        return "ok"

    def describe(self) -> str:
        """One self-explanatory line per state (printed by the CLI)."""
        state = self.state()
        if state == "nothing-to-do":
            return "state: nothing-to-do (grid expanded to 0 scenarios)"
        if state == "incomplete":
            return (
                f"state: incomplete (half-executed grid: {self.missing} "
                f"missing, {self.timeouts} retriable of {self.total})"
            )
        if state == "failed":
            return (
                f"state: failed ({self.errors} of {self.total} scenarios "
                "have terminal errors)"
            )
        return f"state: ok (all {self.total} scenarios complete)"

    def exit_code(self) -> int:
        """0 = ok, 2 = nothing-to-do, 1 = incomplete/failed."""
        return {"ok": 0, "nothing-to-do": 2}.get(self.state(), 1)

    def as_rows(self) -> list[list]:
        rows = [
            ["scenarios in grid", self.total],
            ["ok", self.ok],
            ["errors", self.errors],
            ["timeouts (retriable)", self.timeouts],
            ["missing", self.missing],
            ["complete", self.complete],
        ]
        if self.elapsed_s is not None:
            rows.append(["elapsed (journal)", f"{self.elapsed_s:.3f}s"])
        if self.rate is not None:
            rows.append(["scenarios/s", f"{self.rate:.1f}"])
        return rows

    def summary(self) -> str:
        return format_table(["quantity", "value"], self.as_rows(),
                            title="campaign status")


REPORT_HEADERS = [
    "id",
    "n",
    "k",
    "groups",
    "seed",
    "noise",
    "status",
    "roots",
    "Psrcs(k)",
    "values",
    "decided",
    "last_rnd",
    "bound",
]


def _report_row(result: ScenarioResult) -> list:
    spec = result.spec
    return [
        result.scenario_id,
        spec.n,
        spec.k,
        spec.num_groups,
        spec.seed,
        spec.noise,
        result.status,
        result.root_components,
        result.psrcs_holds,
        result.distinct_decisions,
        result.all_decided,
        result.last_decision_round,
        result.lemma11_bound,
    ]


class Campaign:
    """A resumable ensemble of scenarios over one result store.

    Parameters
    ----------
    scenarios:
        A :class:`ScenarioGrid` or an explicit spec sequence (grid order
        defines summary order).
    store:
        A :class:`ResultStore`, a journal path, or ``None`` for an
        in-memory store.
    jobs:
        Default worker count for :meth:`run`.
    timeout:
        Default per-scenario time budget in seconds.
    backend:
        Default execution engine for :meth:`run`: ``"reference"``,
        ``"batched"`` or ``"auto"`` (see :mod:`repro.engine.backends`);
        any other name raises ``ValueError`` here and in :meth:`run`,
        before any work.
    batch_memory:
        Per-batch memory envelope in bytes for the batched/auto
        backends (``None``: the built-in budget).  A pure packing knob
        for the batch scheduler — journals and summaries are
        byte-identical whatever the envelope.
    label:
        Human name for progress reporting (the experiment family name
        when the campaign was built by the registry).
    max_retries:
        Default in-run retry budget per work unit for :meth:`run`
        (see :func:`~repro.engine.executor.execute_scenarios`): transient
        worker failures are retried with capped deterministic backoff
        before anything is journaled.  ``0`` (the default) preserves the
        historical fail-fast behavior.
    """

    def __init__(
        self,
        scenarios: ScenarioGrid | Sequence[ScenarioSpec],
        store: ResultStore | str | os.PathLike | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        backend: str = "reference",
        batch_memory: int | None = None,
        label: str | None = None,
        max_retries: int = 0,
        workers: Sequence[str] | None = None,
    ) -> None:
        if isinstance(scenarios, ScenarioGrid):
            self.specs = scenarios.expand()
        else:
            self.specs = list(scenarios)
        ids = [spec.scenario_id for spec in self.specs]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate scenarios in grid")
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.jobs = jobs
        self.timeout = timeout
        self.backend = check_backend(backend)
        self.batch_memory = batch_memory
        self.label = label
        self.max_retries = max_retries
        self.workers = list(workers) if workers else None
        # Journal snapshot, keyed by id.  One scan serves run/status/
        # report/summary within this Campaign object; run() keeps it
        # current as results are journaled.  Call refresh() if another
        # writer appends to the same store concurrently.
        self._latest: dict[str, ScenarioResult] | None = None

    def refresh(self) -> None:
        """Drop the cached journal snapshot (re-read on next access)."""
        self._latest = None

    def _load_latest(self) -> dict[str, ScenarioResult]:
        if self._latest is None:
            self._latest = self.store.load()
        return self._latest

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: int | None = None,
        resume: bool = True,
        timeout: float | None = None,
        backend: str | None = None,
        progress: object = False,
        recorder=None,
        max_retries: int | None = None,
        pool=None,
        should_stop=None,
        reporter_factory=None,
        on_result=None,
        workers=None,
    ) -> CampaignReport:
        """Execute every scenario that has no terminal record yet.

        With ``resume=False`` the whole grid is re-executed and the
        journal grows new records (last-wins on read).

        ``progress`` turns on family-aware progress reporting
        (completed/total, scenarios/s, batches completed/planned from
        the batch plan, and an ETA): pass ``True`` to emit to *stderr*
        — stdout summaries stay byte-identical — or a writable stream.

        ``recorder`` is a :class:`repro.engine.telemetry.Recorder`; the
        campaign threads it through the scheduler, executor, backends,
        kernels and store, and the caller writes the metrics sidecar.
        ``None`` (the default) is the zero-cost null recorder — journal
        and summary bytes are identical either way.

        The remaining seams exist for the campaign service
        (:mod:`repro.engine.service`); none of them changes journal or
        summary bytes.  ``pool`` is a shared
        :class:`~repro.engine.executor.WorkerPool` the executor uses
        instead of creating its own; ``should_stop`` is polled by the
        executor and aborts the run with
        :class:`~repro.engine.executor.ExecutionStopped` (already-
        journaled results stay durable); ``reporter_factory(total,
        plan)`` builds the progress reporter — overriding ``progress``
        — so the daemon can expose plan-derived progress snapshots over
        HTTP; ``on_result`` is an extra parent-side callback invoked
        after each result is journaled.

        ``workers`` (or the constructor's default) selects *distributed*
        execution: a list of remote worker endpoints (see
        :func:`repro.engine.remote.parse_workers`) the planned batches
        ship to, instead of a local pool.  The plan is cut as for a pool
        with one job per worker.  Pool and fleet alike journal in plan
        order, so journal and summary bytes are identical to a serial
        single-host run; on resume, the shard file a crashed pool or
        fleet coordinator left next to the journal is folded into it
        first.
        """
        resolved_backend = (
            self.backend if backend is None else check_backend(backend)
        )
        rec = NULL if recorder is None else recorder
        # Contract checks this process runs (workers record their own).
        mark = checks_mark() if rec else None
        resolved_workers = self.workers if workers is None else workers
        if resolved_workers is not None and not resolved_workers:
            resolved_workers = None
        self.refresh()
        latest = self._load_latest()
        if resume:
            # Fold shard records a crashed coordinator never journaled
            # into the journal (and the snapshot) before computing the
            # todo list.
            absorb_shards(self.store, latest, recorder=rec if rec else None)
            # Resume-by-hash on the cached snapshot (same rule as
            # ResultStore.completed_ids).
            todo = [
                spec
                for spec in self.specs
                if latest.get(spec.scenario_id) is None
                or not is_terminal(latest[spec.scenario_id].status)
            ]
        else:
            todo = list(self.specs)
        if rec:
            self.store.recorder = rec
            rec.inc("store.resume_hits", len(self.specs) - len(todo))

        resolved_jobs = self.jobs if jobs is None else jobs
        # One plan serves both the progress reporter and the executor,
        # so the work list is planned exactly once and the reported
        # batch counts are the batches that actually run.
        plan = None
        if todo and resolved_backend in ("batched", "auto"):
            from repro.engine.scheduler import plan_batches

            # A fleet is planned like a pool of that many jobs: the jobs
            # count only decides where groups are cut, never the item
            # order, so the journal order matches the serial run.
            if resolved_workers:
                from repro.engine.remote import parse_workers

                plan_jobs = len(parse_workers(resolved_workers))
            else:
                plan_jobs = max(1, resolved_jobs)
            plan = plan_batches(
                list(enumerate(todo)),
                self.batch_memory,
                jobs=plan_jobs,
                recorder=rec,
            )
        reporter = None
        if reporter_factory is not None and todo:
            reporter = reporter_factory(len(todo), plan)
        elif progress and todo:
            from repro.engine.scheduler import ProgressReporter

            reporter = ProgressReporter(
                total=len(todo),
                label=self.label,
                plan=plan,
                stream=progress if hasattr(progress, "write") else None,
                recorder=rec if rec else None,
            )

        def journal(result: ScenarioResult) -> None:
            self.store.append(result)
            latest[result.scenario_id] = result
            if reporter is not None:
                reporter.update(result)
            if on_result is not None:
                on_result(result)

        dispatch = dict(
            timeout=self.timeout if timeout is None else timeout,
            on_result=journal,
            backend=resolved_backend,
            batch_memory=self.batch_memory,
            plan=plan,
            recorder=rec if rec else None,
            max_retries=(
                self.max_retries if max_retries is None else max_retries
            ),
            should_stop=should_stop,
            shard_base=self.store.path,
        )
        with rec.span("campaign.run_s"):
            if resolved_workers:
                from repro.engine.remote import execute_remote

                results = execute_remote(todo, resolved_workers, **dispatch)
            else:
                results = execute_scenarios(
                    todo, jobs=resolved_jobs, pool=pool, **dispatch
                )
        record_checks(rec, mark)
        by_status = {STATUS_OK: 0, STATUS_ERROR: 0, STATUS_TIMEOUT: 0}
        for result in results:
            by_status[result.status] = by_status.get(result.status, 0) + 1
        return CampaignReport(
            total=len(self.specs),
            executed=len(todo),
            skipped=len(self.specs) - len(todo),
            ok=by_status[STATUS_OK],
            errors=by_status[STATUS_ERROR],
            timeouts=by_status[STATUS_TIMEOUT],
        )

    # ------------------------------------------------------------------
    def status(self) -> CampaignStatus:
        latest = self._load_latest()
        counts = {STATUS_OK: 0, STATUS_ERROR: 0, STATUS_TIMEOUT: 0}
        missing = 0
        for spec in self.specs:
            result = latest.get(spec.scenario_id)
            if result is None:
                missing += 1
            else:
                counts[result.status] = counts.get(result.status, 0) + 1
        elapsed_s = rate = None
        wanted = {spec.scenario_id for spec in self.specs}
        stamps = [t for sid, t in self.store.append_times() if sid in wanted]
        if len(stamps) >= 2:
            span = max(stamps) - min(stamps)
            if span > 0:
                elapsed_s = span
                done = len(self.specs) - missing
                rate = done / span if done else None
        return CampaignStatus(
            total=len(self.specs),
            ok=counts[STATUS_OK],
            errors=counts[STATUS_ERROR],
            timeouts=counts[STATUS_TIMEOUT],
            missing=missing,
            elapsed_s=elapsed_s,
            rate=rate,
        )

    # ------------------------------------------------------------------
    def results(self) -> list[ScenarioResult | None]:
        """Stored results in grid order (``None`` where still missing)."""
        latest = self._load_latest()
        return [latest.get(spec.scenario_id) for spec in self.specs]

    def completed_results(self) -> list[ScenarioResult]:
        """Stored results in grid order, missing scenarios dropped."""
        return [r for r in self.results() if r is not None]

    def report_table(self, limit: int | None = None) -> str:
        """A per-scenario result table (grid order)."""
        rows = [_report_row(r) for r in self.completed_results()]
        shown = rows if limit is None else rows[:limit]
        title = f"campaign report ({len(rows)} of {len(self.specs)} scenarios"
        if limit is not None and len(rows) > limit:
            title += f", first {limit} shown"
        title += ")"
        return format_table(REPORT_HEADERS, shown, title=title)

    def write_summary(self, path: str | os.PathLike) -> int:
        """Canonical grid-ordered summary JSONL (see
        :meth:`repro.engine.store.ResultStore.write_summary`)."""
        return self.store.write_summary(
            path, self.specs, latest=self._load_latest()
        )


def run_campaign(
    scenarios: ScenarioGrid | Iterable[ScenarioSpec],
    store: ResultStore | str | os.PathLike | None = None,
    jobs: int = 1,
    timeout: float | None = None,
    resume: bool = True,
    backend: str = "reference",
    batch_memory: int | None = None,
) -> list[ScenarioResult]:
    """One-shot convenience: run (resuming) and return grid-ordered
    results.  The workhorse behind the refactored sweeps and benchmarks."""
    campaign = Campaign(
        list(scenarios) if not isinstance(scenarios, ScenarioGrid) else scenarios,
        store=store,
        jobs=jobs,
        timeout=timeout,
        backend=backend,
        batch_memory=batch_memory,
    )
    campaign.run(resume=resume)
    return campaign.completed_results()
