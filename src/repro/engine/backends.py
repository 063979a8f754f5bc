"""Execution backends: the reference simulator and the batched fast path.

One scenario can be executed three ways:

* ``"reference"`` — :func:`repro.engine.executor.execute_scenario`: the
  per-object :class:`~repro.rounds.simulator.RoundSimulator`.  Supports
  everything (state histories, message recording, every algorithm).
* ``"batched"`` — :func:`execute_scenario_batch`: the *mega*-batched
  kernel (:func:`~repro.rounds.fastpath.simulate_fastpath_batch`): a
  group of same-``n`` scenarios stacked into one ``(S, n, ...)`` tensor
  program, so every ensemble round costs one set of kernel calls for the
  whole group instead of one per scenario.  Covers exactly the
  sweep/latency/distribution workloads (Algorithm 1, summary metrics
  only) and reports anything else as a ``FastPathUnsupported`` error.
  Scenario grouping happens at the work-list level by the batch
  scheduler (:mod:`repro.engine.scheduler`): batch-compatible specs are
  grouped *globally* by ``(n, round-budget bucket)`` and packed into
  planned batches capped by the
  :func:`~repro.rounds.fastpath.default_batch_size` memory envelope;
  the kernel compacts live lanes as batchmates retire and refills freed
  width from the batch's pending lanes.
* ``"auto"`` — prefer the fast path, transparently fall back to the
  reference simulator when the scenario is out of its scope.  On a work
  list, ``auto`` routes every batch-compatible scenario through the
  scheduler's planned batches, and on one scenario it runs a one-lane
  batch, so provenance tags stay partition-independent.

The single-lane kernel (:func:`~repro.rounds.fastpath.simulate_fastpath`,
run on a spec by :func:`simulate_single_lane`) is no backend: it is the
reference kernel that the lane-identity contract, the fuzz family, the
tests and the FASTPATH bench hold the batched kernel to.

All engines are *exactly equivalent* where they overlap: the fast paths
consume bit-identical adversary schedules
(:meth:`~repro.adversaries.base.Adversary.adjacency_stack`) and mirror
Algorithm 1's update order, so the resulting metrics — and therefore the
canonical campaign summaries — are byte-identical.
``tests/test_fastpath_equivalence.py`` and
``tests/test_batched_equivalence.py`` enforce this, and
``scripts/smoke.sh`` diffs summaries from all backends on every change.
Results are tagged with the backend that produced them (journal records
only — canonical summaries stay provenance-free so they compare equal
across backends).  On the work-list paths (``"batched"`` and ``"auto"``)
the tag is a pure function of the spec, never of the batch grouping, so
journal records are byte-identical whatever the partition or worker
count.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Sequence

from repro.analysis.stats import DecisionStats
from repro.engine.contracts import ContractViolation, contract
from repro.engine.contracts import get as _get_contracts
from repro.engine.executor import (
    STATUS_ERROR,
    ScenarioResult,
    execute_scenario,
)
from repro.engine.scenarios import ScenarioSpec
from repro.graphs.matrices import root_component_count_matrix
from repro.predicates.psrcs import Psrcs
from repro.rounds.fastpath import (
    FastPathRun,
    FastPathTask,
    FastPathUnsupported,
    simulate_fastpath,
    simulate_fastpath_batch,
)

BACKEND_REFERENCE = "reference"
BACKEND_BATCHED = "batched"
BACKEND_AUTO = "auto"
BACKENDS = (BACKEND_REFERENCE, BACKEND_BATCHED, BACKEND_AUTO)

# Algorithms the fast path covers; everything else falls back/raises.
_FASTPATH_ALGORITHMS = frozenset({"algorithm1"})


def check_backend(backend: str) -> str:
    """``backend`` itself if it names a backend; a ``ValueError`` naming
    the known ones otherwise."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    return backend


class SkeletonCache:
    """Bounded LRU for skeleton-only statistics, shared across batches.

    Ensemble campaigns sweep many seeds over few adversary *skeletons*:
    every seed of one cell declares the same stable matrix, so the two
    skeleton-only verdicts (root-component count, ``Psrcs(k)``) repeat
    across batches, not just within one.  Keys embed the stable matrix
    *bytes* (plus ``k`` for Psrcs), so a hit can only ever return the
    value the miss path would have computed — pure memoization, journal
    bytes are cache-invariant (the differential suite pins this).
    Hit/miss totals land on the telemetry *volatile* plane: they depend
    on batch execution order, never on results.

    Per-process state: pool workers each grow their own (their counters
    merge through the worker telemetry sidecar).  ``clear()`` exists for
    tests and memory hygiene, not correctness.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("need max_entries >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key, compute: Callable):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._data[key] = value
            if len(self._data) > self.max_entries:
                self._data.popitem(last=False)
            return value
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


#: The process-wide skeleton-statistics cache (see :class:`SkeletonCache`).
skeleton_cache = SkeletonCache()


def _fast_builder(spec: ScenarioSpec) -> Callable:
    """The fast-path result builder for ``spec``: the stock metric schema
    (:func:`_stock_result`) for untagged specs and stock-runner families,
    or a family's registered fast twin (``ExperimentSpec.fast_result``).

    Raises :class:`FastPathUnsupported` for an algorithm the kernels do
    not run, a custom-runner family without a twin, or a spec its
    family's ``fast_supported`` predicate excludes (e.g. the ablation
    family's invariant-hook arm), so a forced ``batched`` backend
    reports it and ``auto`` falls back.  An unknown family raises
    ``KeyError``.
    """
    if spec.algorithm not in _FASTPATH_ALGORITHMS:
        raise FastPathUnsupported(
            f"algorithm {spec.algorithm!r} has no fast path"
        )
    name = spec.opt("family")
    if name is None:
        return _stock_result
    from repro.engine.registry import get_family

    family = get_family(name)
    if family.runner is None:
        return _stock_result
    if family.fast_result is None:
        raise FastPathUnsupported(
            f"family {name!r} runs only on the reference simulator"
        )
    if family.fast_supported is not None and not family.fast_supported(spec):
        raise FastPathUnsupported(
            f"scenario outside family {name!r}'s fast-path scope"
        )
    return family.fast_result


def batch_compatible(spec: ScenarioSpec) -> bool:
    """Whether this spec can join a mega-batch: the batch layer knows how
    to build its result (see :func:`_fast_builder`)."""
    try:
        _fast_builder(spec)
    except (FastPathUnsupported, KeyError):
        return False
    return True


def fastpath_decision_stats(
    fast: FastPathRun, adversary
) -> tuple[DecisionStats, object]:
    """``(DecisionStats, declared_stable_matrix)`` for a finished run —
    the decision/stabilization assembly shared by the stock result schema
    and every family ``fast_result`` twin, so the Lemma-11 bookkeeping
    lives in exactly one place."""
    declared_matrix = adversary.declared_stable_matrix()
    r_st = fast.stabilization_round(declared_matrix)
    decision_rounds = sorted(fast.decision_rounds().values())
    stats = DecisionStats(
        n=fast.n,
        num_rounds=fast.num_rounds,
        num_decided=len(decision_rounds),
        first_decision_round=decision_rounds[0] if decision_rounds else None,
        last_decision_round=decision_rounds[-1] if decision_rounds else None,
        stabilization=r_st,
        lemma11_bound=(r_st + 2 * fast.n - 1) if r_st is not None else None,
        stabilization_known=declared_matrix is not None,
    )
    return stats, declared_matrix


def _stock_result(
    spec: ScenarioSpec,
    fast: FastPathRun,
    adversary,
    cache: SkeletonCache | None = None,
) -> ScenarioResult:
    """Build the stock metric schema from one finished fast-path run.

    Run-level (once-per-scenario) analysis goes through the matrix
    kernels, which the test suite cross-validates against the set-based
    machinery the reference path uses — on the *same* stable skeleton, so
    equality is structural, not approximate.

    ``cache`` (the process-wide :class:`SkeletonCache` on the batch
    path) memoizes the two skeleton-only statistics — root-component
    count and the ``Psrcs(k)`` verdict — keyed by the stable matrix
    bytes: every seed of one ensemble cell shares its declared stable
    skeleton, so the campaign computes each verdict once instead of
    once per lane.  Pure memoization: values are identical with or
    without it.
    """
    stats, declared_matrix = fastpath_decision_stats(fast, adversary)
    stable_matrix = (
        declared_matrix
        if declared_matrix is not None
        else fast.final_skeleton_matrix()
    )
    values = fast.decision_values()
    proposals = set(fast.initial_values)
    if cache is None:
        root_components = root_component_count_matrix(stable_matrix)
        psrcs_holds = Psrcs(spec.k).check_skeleton_matrix(stable_matrix).holds
    else:
        stable_key = stable_matrix.tobytes()
        root_components = cache.get(
            ("roots", stable_key),
            lambda: root_component_count_matrix(stable_matrix),
        )
        psrcs_holds = cache.get(
            ("psrcs", spec.k, stable_key),
            lambda: Psrcs(spec.k).check_skeleton_matrix(stable_matrix).holds,
        )
    return ScenarioResult(
        spec=spec,
        num_rounds=fast.num_rounds,
        root_components=root_components,
        psrcs_holds=psrcs_holds,
        distinct_decisions=len(values),
        all_decided=fast.all_decided(),
        k_agreement_holds=len(values) <= spec.k,
        validity_holds=values <= proposals,
        first_decision_round=stats.first_decision_round,
        last_decision_round=stats.last_decision_round,
        stabilization=stats.stabilization,
        lemma11_bound=stats.lemma11_bound,
        within_bound=stats.within_bound,
        decision_values=tuple(sorted(values, key=repr)),
    )


def _fastpath_task(spec: ScenarioSpec, adversary) -> FastPathTask:
    """The batch-kernel lane for one scenario."""
    return FastPathTask(
        adjacency=adversary.adjacency_stack,
        initial_values=tuple(range(spec.n)),
        purge_window=spec.opt("purge_window"),
        prune_unreachable=spec.opt("prune_unreachable", True),
        max_rounds=spec.resolved_max_rounds(),
    )


def simulate_single_lane(spec: ScenarioSpec) -> tuple[FastPathRun, object]:
    """``(run, adversary)``: ``spec`` run alone through the single-lane
    reference kernel (:func:`~repro.rounds.fastpath.simulate_fastpath`)
    on a fresh adversary.  The caller owns the scope: the spec must be an
    Algorithm-1 one.  ``_stock_result(spec, *simulate_single_lane(spec))``
    is the stock record the batched backend must reproduce."""
    adversary = spec.build_adversary()
    task = _fastpath_task(spec, adversary)
    run = simulate_fastpath(
        task.adjacency,
        list(task.initial_values),
        purge_window=task.purge_window,
        prune_unreachable=task.prune_unreachable,
        max_rounds=task.max_rounds,
    )
    return run, adversary


@contract(
    # One result per spec, in spec order, whatever fell back or failed.
    # (Mixed-n batches are legal since cross-n packing: the kernel pads
    # narrower lanes to the widest member and masks the padding.)
    post=lambda result, specs, width=None, recorder=None: (
        len(result) == len(specs)
        and all(r.spec == s for r, s in zip(result, specs))
    ),
)
def execute_scenario_batch(
    specs: Sequence[ScenarioSpec],
    width: int | None = None,
    recorder=None,
) -> list[ScenarioResult]:
    """Run a group of scenarios through one mega-batched kernel.

    The scenario-level face of
    :func:`~repro.rounds.fastpath.simulate_fastpath_batch`: adversary
    schedules are pulled lane-wise through ``adjacency_stack`` into the
    shared ``(S, R, n, n)`` stack and the whole group advances round by
    round with zero per-scenario Python control flow.  Lanes need not
    share ``n``: a packed (mixed-``n``) group runs at the widest
    member's width with the padding masked by the kernel.  ``width`` caps
    the kernel's concurrent lanes (the scheduler passes the memory
    envelope; surplus lanes refill freed width as batchmates retire);
    it is a pure execution-shape knob: results are bit-identical
    whatever its value.
    Isolation mirrors the reference backend:

    * a spec the fast path cannot cover, or whose adversary construction
      fails, becomes an ``"error"`` result without poisoning the batch;
    * a failure *inside* the shared kernel retries every lane as a
      singleton batch, so one bad lane cannot take down its batchmates —
      and because the kernel is lane-independent, the surviving results
      are identical to what the healthy batch would have produced.

    Every result is tagged ``backend="batched"`` regardless of the group
    size, so journal bytes do not depend on how a work list was cut into
    batches.
    """
    results: dict[int, ScenarioResult] = {}
    lanes: list[tuple[int, ScenarioSpec, object, object]] = []
    tasks: list[FastPathTask] = []
    for pos, spec in enumerate(specs):
        try:
            builder = _fast_builder(spec)
            adversary = spec.build_adversary()
            tasks.append(_fastpath_task(spec, adversary))
            lanes.append((pos, spec, adversary, builder))
        except FastPathUnsupported as exc:
            results[pos] = ScenarioResult.failure(
                spec, f"FastPathUnsupported: {exc}", backend=BACKEND_BATCHED
            )
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            results[pos] = ScenarioResult.failure(
                spec, f"{type(exc).__name__}: {exc}", backend=BACKEND_BATCHED
            )
    if lanes:
        try:
            runs = simulate_fastpath_batch(
                tasks, width=width, recorder=recorder
            )
        except ContractViolation as exc:
            # A one-lane batch (a single-scenario dispatch) names its spec.
            one_lane = (
                {"id": lanes[0][1].scenario_id, "seed": lanes[0][1].seed}
                if len(lanes) == 1 else {}
            )
            raise exc.with_context(
                backend=BACKEND_BATCHED, lanes=len(lanes), width=width,
                **one_lane,
            ) from exc
        except Exception as exc:  # noqa: BLE001 — isolate, then retry solo
            if len(lanes) == 1:
                pos, spec, _, _ = lanes[0]
                prefix = (
                    "FastPathUnsupported: "
                    if isinstance(exc, FastPathUnsupported)
                    else f"{type(exc).__name__}: "
                )
                results[pos] = ScenarioResult.failure(
                    spec, f"{prefix}{exc}", backend=BACKEND_BATCHED
                )
            else:
                if recorder:
                    recorder.vinc(
                        "executor.batch_singleton_retries", len(lanes)
                    )
                for pos, spec, _, _ in lanes:
                    results[pos] = execute_scenario_batch(
                        [spec], recorder=recorder
                    )[0]
        else:
            contracts = _get_contracts()
            if (
                contracts
                and len(lanes) > 1
                and contracts.sample("backends.lane_identity")
            ):
                _verify_lane_identity(contracts, lanes, runs, width=width)
            cache = skeleton_cache
            hits0, misses0 = cache.hits, cache.misses
            for (pos, spec, adversary, builder), fast in zip(lanes, runs):
                try:
                    if builder is _stock_result:
                        result = _stock_result(spec, fast, adversary, cache)
                    else:
                        result = builder(spec, fast, adversary)
                    results[pos] = replace(result, backend=BACKEND_BATCHED)
                except ContractViolation as exc:
                    raise exc.with_context(
                        id=spec.scenario_id, seed=spec.seed,
                        backend=BACKEND_BATCHED, lanes=len(lanes),
                    ) from exc
                except Exception as exc:  # noqa: BLE001
                    results[pos] = ScenarioResult.failure(
                        spec,
                        f"{type(exc).__name__}: {exc}",
                        backend=BACKEND_BATCHED,
                    )
            if recorder:
                # Volatile plane: hit/miss split depends on how the
                # campaign was cut into batches and which worker ran
                # them — never on result bytes.
                recorder.vinc(
                    "backends.skeleton_cache_hits", cache.hits - hits0
                )
                recorder.vinc(
                    "backends.skeleton_cache_misses", cache.misses - misses0
                )
                recorder.vgauge_max(
                    "backends.skeleton_cache_entries", len(cache)
                )
    return [results[pos] for pos in range(len(specs))]


def _verify_lane_identity(contracts, lanes, runs, width) -> None:
    """Lane-compaction identity checkpoint: re-run one deterministically
    sampled lane of a just-finished mega-batch as a *singleton* kernel
    call (fresh adversary, so the pure schedule re-derives) and demand
    bit-identical decisions — the live form of the batched-equivalence
    differential suite."""
    digest = hashlib.sha256(
        "".join(spec.scenario_id for _, spec, _, _ in lanes).encode()
    ).hexdigest()
    lane = int(digest[:8], 16) % len(lanes)
    _pos, spec, _adversary, _builder = lanes[lane]
    batched = runs[lane]
    solo, _ = simulate_single_lane(spec)
    fields = lambda run: {  # noqa: E731 — tiny local projection
        "num_rounds": run.num_rounds,
        "all_decided": run.all_decided(),
        "decision_rounds": run.decision_rounds(),
        "decision_values": sorted(run.decision_values(), key=repr),
    }
    contracts.check_lane_identity(
        fields(solo),
        fields(batched),
        context={
            "id": spec.scenario_id,
            "seed": spec.seed,
            "backend": BACKEND_BATCHED,
            "n": spec.n,
            "lane": lane,
            "lanes": len(lanes),
            "width": width,
        },
    )


def execute_scenario_with_backend(
    spec: ScenarioSpec, backend: str = BACKEND_REFERENCE, recorder=None
) -> ScenarioResult:
    """Dispatch one scenario to a backend (the executor's worker kernel).

    On one scenario both fast backends run a one-lane batch, tagged
    ``"batched"`` so provenance does not depend on grouping.  ``"auto"``
    silently falls back to the reference simulator when the fast path
    declines the scenario (see :func:`auto_fast_result`).  A *forced*
    ``"batched"`` backend instead reports it as an ``"error"`` result —
    an explicit choice must not silently execute on a different engine.
    """
    if check_backend(backend) == BACKEND_REFERENCE:
        return execute_scenario(spec)
    if backend == BACKEND_BATCHED:
        return execute_scenario_batch([spec], recorder=recorder)[0]
    result = auto_fast_result(spec, recorder=recorder)
    return execute_scenario(spec) if result is None else result


def fast_path_declined(result: ScenarioResult) -> bool:
    """Whether ``result`` is the batched backend's ``FastPathUnsupported``
    error record: the scenario is out of the fast path's scope, and
    ``auto`` runs it on its fallback engine instead."""
    return (
        result.status == STATUS_ERROR
        and result.error is not None
        and result.error.startswith("FastPathUnsupported: ")
    )


def auto_fast_result(spec: ScenarioSpec, recorder=None):
    """``auto``'s fast attempt on one scenario: its one-lane batch
    result, or ``None`` when the fast path declines it, up front
    (:func:`batch_compatible`) or lazily (an adversary whose schedule
    API raises :class:`FastPathUnsupported`).  On ``None`` the caller
    runs its fallback engine: the reference simulator, or the family
    runner for a tagged spec."""
    if not batch_compatible(spec):
        return None
    result = execute_scenario_batch([spec], recorder=recorder)[0]
    return None if fast_path_declined(result) else result
