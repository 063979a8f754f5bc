"""Parameter-sweep harness.

One entry point per experiment family; each returns structured
:class:`SweepResult` rows that the benchmarks print as tables (and the
tests assert on).  Everything is seed-deterministic.

The sweeps are thin fronts over the campaign engine
(:mod:`repro.engine`): each builds a scenario grid, executes it through
:func:`repro.engine.executor.execute_scenarios` (``jobs > 1`` fans out
over a process pool) and converts the engine's summary records into the
historical :class:`SweepResult` rows.  Row order and values are identical
to the old in-process loops — the grid's canonical expansion order *is*
the old loop nesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.adversaries.base import Adversary
from repro.analysis.reporting import format_table
from repro.core.algorithm import make_processes
from repro.engine.executor import (
    ScenarioResult,
    execute_scenarios,
    require_ok,
)
from repro.engine.registry import ExperimentSpec, register
from repro.engine.scenarios import agreement_grid, termination_grid
from repro.rounds.run import Run
from repro.rounds.simulator import RoundSimulator, SimulationConfig


def run_algorithm1(
    adversary: Adversary,
    values: list[Any] | None = None,
    max_rounds: int | None = None,
    track_history: bool = False,
    record_messages: bool = False,
    invariant_hooks: Sequence = (),
    purge_window: int | None = None,
    prune_unreachable: bool = True,
) -> Run:
    """Simulate Algorithm 1 against ``adversary`` with distinct inputs.

    ``max_rounds`` defaults to a generous multiple of Lemma 11's bound for
    construct-by-design adversaries (stabilization happens within the noise
    quiet period, so ``6n + 20`` is ample)."""
    n = adversary.n
    processes = make_processes(
        n,
        values,
        track_history=track_history,
        purge_window=purge_window,
        prune_unreachable=prune_unreachable,
    )
    config = SimulationConfig(
        max_rounds=max_rounds or (6 * n + 20),
        record_messages=record_messages,
        record_states=False,
    )
    return RoundSimulator(
        processes, adversary, config, invariant_hooks=invariant_hooks
    ).run()


@dataclass(frozen=True)
class SweepResult:
    """One row of a sweep table."""

    n: int
    k: int
    num_groups: int
    seed: int
    noise: float
    root_components: int
    psrcs_holds: bool
    distinct_decisions: int
    all_decided: bool
    last_decision_round: int | None
    lemma11_bound: int | None

    def as_row(self) -> list:
        return [
            self.n,
            self.k,
            self.num_groups,
            self.seed,
            self.noise,
            self.root_components,
            self.psrcs_holds,
            self.distinct_decisions,
            self.all_decided,
            self.last_decision_round,
            self.lemma11_bound,
        ]

    HEADERS = [
        "n",
        "k",
        "groups",
        "seed",
        "noise",
        "roots",
        "Psrcs(k)",
        "values",
        "decided",
        "last_rnd",
        "bound",
    ]


def sweep_result_from_scenario(result: ScenarioResult) -> SweepResult:
    """Convert one engine summary record into a sweep-table row."""
    spec = result.spec
    return SweepResult(
        n=spec.n,
        k=spec.k,
        num_groups=spec.num_groups,
        seed=spec.seed,
        noise=spec.noise,
        root_components=result.root_components,
        psrcs_holds=result.psrcs_holds,
        distinct_decisions=result.distinct_decisions,
        all_decided=result.all_decided,
        last_decision_round=result.last_decision_round,
        lemma11_bound=result.lemma11_bound,
    )


def agreement_sweep(
    ns: Sequence[int],
    ks: Sequence[int],
    seeds: Sequence[int],
    noise: float = 0.15,
    topology: str = "cycle",
    jobs: int = 1,
    backend: str = "auto",
) -> list[SweepResult]:
    """ALG-AGREE / THM1: for every (n, k, seed) with every feasible group
    count ``m <= k``, run Algorithm 1 and record root components, predicate
    status and decision-value counts.

    ``backend`` defaults to ``"auto"`` (the batched fast path with
    transparent fallback) — metrics are identical either way."""
    grid = agreement_grid(
        ns, ks, seeds, noises=(noise,), topology=topology
    )
    results = require_ok(
        execute_scenarios(grid.expand(), jobs=jobs, backend=backend)
    )
    return [sweep_result_from_scenario(r) for r in results]


def termination_sweep(
    ns: Sequence[int],
    seeds: Sequence[int],
    noise: float = 0.15,
    num_groups: int = 2,
    jobs: int = 1,
    backend: str = "auto",
) -> list[SweepResult]:
    """ALG-TERM: decision latency vs Lemma 11's ``r_ST + 2n - 1`` bound
    across system sizes (``k = m = min(num_groups, n)``)."""
    specs = termination_grid(ns, seeds, noise=noise, num_groups=num_groups)
    results = require_ok(execute_scenarios(specs, jobs=jobs, backend=backend))
    return [sweep_result_from_scenario(r) for r in results]


# ----------------------------------------------------------------------
# Experiment-registry specs (the sweeps keep untagged stock-runner specs,
# so existing journals and canonical summaries keep their hashes/bytes).
# ----------------------------------------------------------------------
def _noise_tuple(value) -> tuple[float, ...]:
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _sweeps_grid(params) -> list:
    return agreement_grid(
        ns=params["n"],
        ks=params["k"],
        seeds=range(params["seeds"]),
        noises=_noise_tuple(params["noise"]),
        topology=params["topology"],
    ).expand()


def _sweeps_render(results) -> tuple[str, int]:
    rows = [sweep_result_from_scenario(r) for r in results]
    text = format_table(
        SweepResult.HEADERS,
        [r.as_row() for r in rows],
        title="Agreement sweep (Theorem 16 / Theorem 1)",
    )
    bad = [r for r in rows if r.distinct_decisions > r.k or not r.all_decided]
    if bad:
        return text + f"\n\n{len(bad)} runs violated their bound!", 1
    return (
        text + f"\n\nall {len(rows)} runs within their k bound and terminated",
        0,
    )


register(
    ExperimentSpec(
        name="sweeps",
        title="ALG-AGREE / THM1 agreement sweep over (n, k, groups, seed)",
        build_grid=_sweeps_grid,
        render=_sweeps_render,
        headers=tuple(SweepResult.HEADERS),
        row=lambda r: sweep_result_from_scenario(r).as_row(),
        defaults=(
            ("k", (2, 3)),
            ("n", (6, 9)),
            ("noise", (0.2,)),
            ("seeds", 2),
            ("topology", "cycle"),
        ),
        vectorizable=True,
    )
)


def _termination_grid(params) -> list:
    return termination_grid(
        ns=params["n"],
        seeds=range(params["seeds"]),
        noise=_noise_tuple(params["noise"])[0],
        num_groups=params["groups"],
    )


def _termination_render(results) -> tuple[str, int]:
    rows = [sweep_result_from_scenario(r) for r in results]
    text = format_table(
        SweepResult.HEADERS,
        [r.as_row() for r in rows],
        title="Termination sweep (Lemma 11: decide by r_ST + 2n - 1)",
    )
    late = [r for r in results if r.within_bound is False or not r.all_decided]
    if late:
        return text + f"\n\n{len(late)} runs missed Lemma 11's bound!", 1
    return text + f"\n\nall {len(rows)} runs decided within Lemma 11's bound", 0


register(
    ExperimentSpec(
        name="termination",
        title="ALG-TERM decision latency vs Lemma 11's bound across n",
        build_grid=_termination_grid,
        render=_termination_render,
        headers=tuple(SweepResult.HEADERS),
        row=lambda r: sweep_result_from_scenario(r).as_row(),
        defaults=(
            ("groups", 2),
            ("n", (6, 9, 12)),
            ("noise", (0.15,)),
            ("seeds", 3),
        ),
        vectorizable=True,
    )
)
