"""The experiment registry: every experiment family as one declarative spec.

Historically each experiment family (`figure1`, `theorem2`, the agreement
and termination sweeps, `ablation`, `duality`, `eventual`, the latency
distributions) carried its own in-process driver loop — its own iteration
order, its own error handling, its own aggregation.  The registry replaces
all of that with one abstraction:

    an :class:`ExperimentSpec` = name + scenario-grid builder +
    per-scenario runner + row schema + aggregator.

Every family is a ~50-line configuration of the campaign engine, and every
family therefore gets the engine's whole feature set for free: ``--jobs N``
parallelism, resume-by-hash journaling, crash isolation,
``--backend {reference,vectorized,auto}``, canonical byte-identical
summaries, and store-native aggregation via :mod:`repro.engine.aggregate`.

How a family plugs in
---------------------
* The family module builds :class:`~repro.engine.scenarios.ScenarioSpec`
  grids.  Extra algorithms/adversaries are added through
  :func:`repro.engine.scenarios.register_algorithm` /
  ``register_adversary`` at import time.
* A family with a **custom runner** (per-scenario logic beyond the stock
  :func:`~repro.engine.executor.execute_scenario` — invariant hooks,
  structural-only analysis, extra report fields) tags its specs with a
  ``family`` option.  The executor's worker kernel sees the tag and
  dispatches back here (:func:`run_registered_scenario`), so custom
  runners work across process boundaries: the *spec* travels, the runner
  is looked up by name on the worker.  Family-specific metrics ride in
  ``ScenarioResult.extras``.
* A family with the **stock runner** leaves its specs untagged — their
  content hashes (and therefore existing journals) are unchanged — and
  may declare itself ``vectorizable`` to default onto the fast path.

Families register themselves at import; :func:`load_families` imports the
standard seven (plus the termination sweep) and is invoked lazily by every
lookup, so ``campaign run --family duality`` works without any caller
pre-importing :mod:`repro.experiments.duality`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.reporting import format_table
from repro.engine.aggregate import AggregateTable
from repro.engine.contracts import ContractViolation
from repro.engine.executor import ScenarioResult, execute_scenario
from repro.engine.scenarios import ScenarioSpec

#: ``params -> specs``: a declarative grid builder.  ``params`` is a plain
#: mapping (typically CLI flags); missing keys fall back to the family's
#: ``defaults``.
GridBuilder = Callable[[Mapping[str, Any]], Sequence[ScenarioSpec]]

#: ``spec -> result``: the per-scenario runner (executed in the worker).
Runner = Callable[[ScenarioSpec], ScenarioResult]

#: ``results -> (text, exit_code)``: the family's CLI face — must emit the
#: same text (and verdict) the family's pre-registry subcommand printed.
Renderer = Callable[[Sequence[ScenarioResult]], tuple[str, int]]

#: ``results -> AggregateTable``: the family's store-native aggregation.
Aggregator = Callable[[Sequence[ScenarioResult]], AggregateTable]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment family, declaratively.

    Attributes
    ----------
    name:
        Registry key (``campaign run --family <name>``).
    title:
        One-line description for listings.
    build_grid:
        Scenario-grid builder; receives ``defaults`` overlaid with the
        caller's params.
    render:
        Renders executed results into the family's historical CLI output
        and exit code.
    headers / row:
        The per-scenario row schema (``campaign report`` table).  ``None``
        falls back to the engine's generic report columns.
    runner:
        Custom per-scenario runner, or ``None`` for the stock
        :func:`~repro.engine.executor.execute_scenario`.  Custom runners
        execute on the reference simulator unless they also register a
        ``fast_result`` twin.
    fast_result:
        Optional fast-path twin of a custom runner: a
        ``(spec, FastPathRun, adversary) -> ScenarioResult`` builder that
        reproduces the runner's result record (metrics *and* extras,
        byte-identical) from a finished fast-path run.  Families with a
        twin execute on the vectorized/batched backends — including the
        mega-batched kernel, which stacks their scenarios with any other
        compatible same-``n`` work.
    fast_supported:
        Optional per-spec scope predicate for the twin: ``spec -> bool``.
        A family whose twin covers only *some* of its arms (the ablation
        family: its invariant-hook arm and the bespoke line-27 variant
        run only on the reference simulator) registers one; excluded
        specs raise ``FastPathUnsupported`` at the backend layer, so
        ``auto`` transparently falls back to the family runner per spec.
        Partial coverage cannot be *forced*: ``supports_backend``
        rejects explicit vectorized/batched requests for such families.
    aggregate:
        Store-native aggregator (``campaign report --aggregate``), or
        ``None`` for the generic latency percentile table.
    defaults:
        Default grid params as sorted ``(name, value)`` pairs.
    vectorizable:
        Whether the family's scenarios are covered by the fast-path
        kernels (stock-runner Algorithm-1 families, or custom runners
        with a ``fast_result`` twin); such families default to
        ``backend="auto"``.
    """

    name: str
    title: str
    build_grid: GridBuilder
    render: Renderer
    headers: tuple[str, ...] = ()
    row: Callable[[ScenarioResult], list] | None = None
    runner: Runner | None = None
    fast_result: Callable[..., ScenarioResult] | None = None
    fast_supported: Callable[[ScenarioSpec], bool] | None = None
    aggregate: Aggregator | None = None
    defaults: tuple[tuple[str, Any], ...] = ()
    vectorizable: bool = False

    # ------------------------------------------------------------------
    def grid(self, params: Mapping[str, Any] | None = None) -> list[ScenarioSpec]:
        """Expand the family grid with ``params`` over the defaults."""
        merged = dict(self.defaults)
        merged.update(params or {})
        return list(self.build_grid(merged))

    @property
    def default_backend(self) -> str:
        return "auto" if self.vectorizable else "reference"

    def supports_backend(self, backend: str) -> bool:
        """Whether a *forced* backend choice can execute this family.

        Partial fast-path coverage (a ``fast_supported`` predicate) is
        an ``auto``-only affair: forcing vectorized/batched on a family
        whose reference-only arms would come back as errors is rejected
        up front instead.
        """
        if backend in ("vectorized", "batched"):
            return self.vectorizable and (
                self.runner is None
                or (self.fast_result is not None and self.fast_supported is None)
            )
        return True

    def table(self, results: Sequence[ScenarioResult], title: str | None = None) -> str:
        """The per-scenario table in the family's row schema."""
        if self.row is None or not self.headers:
            raise ValueError(f"family {self.name!r} has no row schema")
        return format_table(
            list(self.headers),
            [self.row(r) for r in results],
            title=title,
        )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, ExperimentSpec] = {}

#: Modules that register the standing experiment families on import.
FAMILY_MODULES = (
    "repro.experiments.figure1",
    "repro.experiments.theorem2",
    "repro.experiments.sweeps",
    "repro.experiments.ablation",
    "repro.experiments.duality",
    "repro.experiments.eventual",
    "repro.analysis.distributions",
    "repro.experiments.fuzz",
)

_loaded = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register a family (last registration wins — re-imports are
    idempotent).  Returns the spec for decorator-style use."""
    _REGISTRY[spec.name] = spec
    return spec


def load_families() -> None:
    """Import every standard family module (idempotent)."""
    global _loaded
    if _loaded:
        return
    # Flag first: the family modules import engine modules that may call
    # back into here while half-initialized.
    _loaded = True
    for module in FAMILY_MODULES:
        importlib.import_module(module)


#: Convenience aliases accepted by :func:`get_family` (CLI spellings).
ALIASES = {
    "latency-dist": "latency",
    "latency_dist": "latency",
    "sweep": "sweeps",
}


def family_names() -> list[str]:
    load_families()
    return sorted(_REGISTRY)


def get_family(name: str) -> ExperimentSpec:
    load_families()
    try:
        return _REGISTRY[ALIASES.get(name, name)]
    except KeyError:
        raise KeyError(
            f"unknown experiment family {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# Worker-side dispatch
# ----------------------------------------------------------------------
def run_registered_scenario(
    spec: ScenarioSpec, backend: str, recorder=None
) -> ScenarioResult:
    """Execute one family-tagged scenario (the executor's worker kernel
    for specs carrying a ``family`` option).

    Never raises: unknown families and runner crashes become terminal
    ``"error"`` results, preserving the executor's isolation contract.
    The reference-simulator paths are uninstrumented; ``recorder``
    reaches only the fast-path kernels.
    """
    try:
        family = get_family(spec.opt("family"))
    except KeyError as exc:
        return ScenarioResult.failure(spec, str(exc), backend=backend)
    if family.runner is None:
        # Stock runner: honor the backend choice like any other spec.
        if backend == "reference":
            return execute_scenario(spec)
        from repro.engine.backends import execute_scenario_with_backend

        return execute_scenario_with_backend(spec, backend, recorder=recorder)
    if family.fast_result is not None and backend != "reference":
        # The family registered a fast-path twin of its runner: forced
        # fast backends run it (the twin builds the runner's exact result
        # record from a FastPathRun), and ``auto`` prefers it with the
        # usual transparent fallback to the family runner.
        from repro.engine.backends import (
            FastPathUnsupported,
            execute_scenario_vectorized,
            execute_scenario_with_backend,
        )

        if backend in ("vectorized", "batched"):
            return execute_scenario_with_backend(spec, backend, recorder=recorder)
        try:
            return execute_scenario_vectorized(spec, recorder=recorder)
        except FastPathUnsupported:
            pass
    elif backend in ("vectorized", "batched"):
        # A forced fast-path request must not silently execute the
        # family's bespoke reference-only logic.
        return ScenarioResult.failure(
            spec,
            f"FastPathUnsupported: family {family.name!r} runs only on "
            "the reference backend",
            backend=backend,
        )
    try:
        return family.runner(spec)
    except ContractViolation as exc:
        # A violated runtime contract means results can no longer be
        # trusted: abort the run loudly instead of journaling an error
        # record a resume would treat as settled.
        raise exc.with_context(id=spec.scenario_id, seed=spec.seed)
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return ScenarioResult.failure(spec, f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Campaign sugar
# ----------------------------------------------------------------------
def family_campaign(
    name: str,
    params: Mapping[str, Any] | None = None,
    store=None,
    jobs: int = 1,
    timeout: float | None = None,
    backend: str | None = None,
    batch_memory: int | None = None,
    max_retries: int = 0,
):
    """A :class:`~repro.engine.campaign.Campaign` over a family's grid.

    The workhorse behind both ``campaign run --family <name>`` and the
    per-family CLI subcommands (which are sugar over exactly this)."""
    from repro.engine.campaign import Campaign

    family = get_family(name)
    resolved = family.default_backend if backend is None else backend
    if not family.supports_backend(resolved):
        raise ValueError(
            f"family {name!r} does not support backend {resolved!r}"
        )
    return Campaign(
        family.grid(params),
        store=store,
        jobs=jobs,
        timeout=timeout,
        backend=resolved,
        batch_memory=batch_memory,
        label=family.name,
        max_retries=max_retries,
    )


def run_family(
    name: str,
    params: Mapping[str, Any] | None = None,
    store=None,
    jobs: int = 1,
    timeout: float | None = None,
    backend: str | None = None,
    batch_memory: int | None = None,
    max_retries: int = 0,
) -> list[ScenarioResult]:
    """One-shot: run (resuming) a family campaign, return grid-ordered
    completed results."""
    campaign = family_campaign(
        name,
        params,
        store=store,
        jobs=jobs,
        timeout=timeout,
        backend=backend,
        batch_memory=batch_memory,
        max_retries=max_retries,
    )
    campaign.run()
    return campaign.completed_results()
