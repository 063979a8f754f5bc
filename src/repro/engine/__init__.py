"""Campaign engine: parallel, resumable Monte-Carlo simulation fleets.

The paper's claims are *statistical over adversary ensembles*: Theorem 1/2
bounds, ``Psrcs(k)`` stabilization and the Figure-1 latency behavior all
quantify over runs.  Reproducing them at scale therefore means running
thousands of seeded simulations, not one.  This package turns the
single-run :class:`~repro.rounds.simulator.RoundSimulator` into a
fleet-scale workload generator:

* :mod:`repro.engine.scenarios` — a declarative **scenario grid DSL**.
  A :class:`ScenarioGrid` expands cartesian products over adversary class,
  ``n``, ``k``, group counts, noise, seed ranges and algorithm knobs into
  immutable :class:`ScenarioSpec` values with stable content-hash ids.
* :mod:`repro.engine.executor` — a **parallel executor**
  (:func:`execute_scenarios`) with a serial loop and a process-pool
  backend (:class:`WorkerPool`, one failure domain per process).
  Results are deterministic regardless of worker count: every scenario
  is a pure function of its spec.
* :mod:`repro.engine.dispatch` — the **one dispatcher** behind the
  local pool and the remote fleet: shared unit planning, retry backoff,
  singleton splits, the fleet deadline, stop handling, and a
  deterministic :class:`ShardMerger` that releases results in plan
  order, so a parallel journal is byte-identical to the serial one;
  results held back for plan order survive a coordinator crash in a
  shard file that :func:`absorb_shards` folds back on resume.
* :mod:`repro.engine.backends` — **execution backends**: the reference
  :class:`~repro.rounds.simulator.RoundSimulator` vs the matrix fast
  path (:mod:`repro.rounds.fastpath`) mega-batched across same-``n``
  scenarios (``"batched"``), selected via ``execute_scenarios(...,
  backend={"reference","batched","auto"})``.  Metrics are identical
  across backends; ``auto`` falls back on :class:`FastPathUnsupported`
  and routes every batch-compatible scenario through the batch
  scheduler's planned batches.
* :mod:`repro.engine.scheduler` — the **lane-compacting batch
  scheduler**: plans a whole campaign work list into packed tensor
  batches (global ``(n, round-budget bucket)`` grouping, memory-envelope
  widths, kernel-level lane compaction + refill), ships whole planned
  batches to pool workers, and derives ``campaign run`` progress
  reporting (:class:`ProgressReporter`) from the plan.
* :mod:`repro.engine.store` — an append-only **JSONL result store**
  (:class:`ResultStore`) with a versioned codec and resume-by-hash.
* :mod:`repro.engine.telemetry` — **engine telemetry**: a zero-cost-off
  :class:`Recorder` (counters, gauges, histograms, span timers) threaded
  through scheduler, executor, backends, kernels and store, split into a
  *deterministic* plane (invariant across ``--jobs``/shuffle/width)
  and a *volatile* plane (durations, batch shapes, worker profiles), and
  written as a schema-versioned ``<store>.metrics.json`` sidecar via
  ``campaign run --metrics``.
* :mod:`repro.engine.contracts` — the **runtime contract layer**: a
  zero-cost-off twin of the telemetry recorder (`NO_CONTRACTS` falsy
  singleton, armed via ``REPRO_CONTRACTS=1`` or ``campaign run
  --contracts``) running sampled re-derive-and-compare invariant
  checkpoints inside the kernels, scheduler, executor and store;
  violations raise :class:`ContractViolation` carrying a minimal JSON
  repro instead of journaling untrustworthy records.
* :mod:`repro.engine.faults` — **deterministic fault injection**: a
  seeded :class:`FaultPlan` (worker kills, straggler stalls, transient
  pool breakage, torn journal tails, dropped telemetry) with
  content-hash victim selection and a once-only ledger, used by the
  resilience tests and ``campaign run --faults SPEC`` drills; faulted
  runs must reconverge to byte-identical journals on resume.
* :mod:`repro.engine.remote` — **distributed batch execution**: a
  coordinator (:func:`execute_remote`) ships whole planned batches to
  remote ``repro worker`` processes over a pluggable JSON-lines/TCP
  transport (dial ``host:port`` or accept ``listen:port`` — an
  ssh-spawned worker is a drop-in), through the same dispatcher as the
  pool, so the journal and summary are byte-identical to a serial
  single-host run whatever the worker count, completion order or
  mid-run worker loss (``campaign run --workers host1:port,host2:port``).
* :mod:`repro.engine.campaign` — the **campaign API**
  (:class:`Campaign`), wired into the CLI as
  ``skeleton-agreement campaign run/status/report --jobs N --backend B``.
* :mod:`repro.engine.service` — the **campaign service**: a
  long-running ``campaign serve`` daemon owning one persistent
  :class:`~repro.engine.executor.WorkerPool`, multiplexing concurrent
  campaign submissions (FIFO queue, ``--slots`` runners) over a local
  HTTP/JSON job API, each journaling to its own store with bytes
  identical to a one-shot run; the CLI doubles as a thin client
  (``campaign run --connect URL`` / ``REPRO_DAEMON``).
* :mod:`repro.engine.registry` — the **experiment registry**: every
  experiment family (figure1, theorem2, sweeps, termination, ablation,
  duality, eventual, latency) as one declarative
  :class:`ExperimentSpec` (grid builder + per-scenario runner + row
  schema + aggregator), executable via ``campaign run --family <name>``.
* :mod:`repro.engine.aggregate` — **store-native aggregation**: grouped
  percentile/mean/CI tables computed straight from the JSONL journal
  (:func:`rollup`, :func:`latency_table`), deterministic and
  byte-identical however many workers produced the store.

Quickstart
----------
>>> from repro.engine import Campaign, ScenarioGrid
>>> grid = ScenarioGrid(n=[6, 8], num_groups=[1, 2], seed=range(3), k=2)
>>> campaign = Campaign(grid, store=None)     # in-memory, no persistence
>>> report = campaign.run()
>>> report.executed
12
"""

from repro.engine.aggregate import (
    AggregateTable,
    Column,
    decision_latency_summary,
    group_results,
    latency_table,
    rollup,
    summarize_values,
)
from repro.engine.backends import (
    BACKENDS,
    batch_compatible,
    execute_scenario_batch,
    execute_scenario_with_backend,
)
from repro.engine.campaign import Campaign, CampaignReport, run_campaign
from repro.engine.contracts import (
    NO_CONTRACTS,
    ContractViolation,
    Contracts,
    contract,
    contracts_enabled,
)
from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.registry import (
    ExperimentSpec,
    family_campaign,
    family_names,
    get_family,
    register,
    run_family,
)
from repro.engine.executor import (
    ExecutionStopped,
    ScenarioResult,
    WorkerPool,
    execute_scenario,
    execute_scenarios,
    require_ok,
)
from repro.engine.service import (
    CampaignService,
    ServiceClient,
    ServiceError,
    SubmissionError,
    campaign_from_submission,
    daemon_url,
    serve,
)
from repro.engine.scenarios import (
    ScenarioGrid,
    ScenarioSpec,
    agreement_grid,
    expand_grids,
    termination_grid,
)
from repro.engine.scheduler import (
    BatchPlan,
    PlannedBatch,
    ProgressReporter,
    plan_batches,
    round_bucket,
)
from repro.engine.dispatch import ShardMerger, absorb_shards
from repro.engine.remote import (
    RemoteWorkerError,
    WorkerEndpoint,
    execute_remote,
    parse_workers,
    probe_worker,
    worker_serve,
)
from repro.engine.store import (
    ResultStore,
    decode_result,
    encode_result,
    journal_line,
    journal_record,
)
from repro.engine.telemetry import (
    NULL,
    NullRecorder,
    Recorder,
    SIDECAR_SCHEMA,
    read_sidecar,
    render_sidecar,
    validate_sidecar,
)
from repro.rounds.fastpath import FastPathUnsupported

__all__ = [
    "AggregateTable",
    "BACKENDS",
    "BatchPlan",
    "Campaign",
    "CampaignReport",
    "CampaignService",
    "Column",
    "ExecutionStopped",
    "ContractViolation",
    "Contracts",
    "ExperimentSpec",
    "FaultPlan",
    "InjectedFault",
    "NO_CONTRACTS",
    "NULL",
    "NullRecorder",
    "PlannedBatch",
    "ProgressReporter",
    "FastPathUnsupported",
    "Recorder",
    "RemoteWorkerError",
    "ShardMerger",
    "WorkerEndpoint",
    "ResultStore",
    "SIDECAR_SCHEMA",
    "ScenarioGrid",
    "ScenarioResult",
    "ScenarioSpec",
    "ServiceClient",
    "ServiceError",
    "SubmissionError",
    "WorkerPool",
    "agreement_grid",
    "campaign_from_submission",
    "daemon_url",
    "serve",
    "decision_latency_summary",
    "contract",
    "contracts_enabled",
    "decode_result",
    "encode_result",
    "journal_line",
    "journal_record",
    "absorb_shards",
    "execute_remote",
    "parse_workers",
    "probe_worker",
    "worker_serve",
    "batch_compatible",
    "execute_scenario",
    "execute_scenario_batch",
    "execute_scenario_with_backend",
    "execute_scenarios",
    "family_campaign",
    "family_names",
    "get_family",
    "group_results",
    "latency_table",
    "plan_batches",
    "read_sidecar",
    "register",
    "render_sidecar",
    "round_bucket",
    "require_ok",
    "validate_sidecar",
    "expand_grids",
    "rollup",
    "run_campaign",
    "run_family",
    "summarize_values",
    "termination_grid",
]
