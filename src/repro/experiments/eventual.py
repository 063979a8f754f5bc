"""The ``♦Psrcs(k)`` lower-bound experiment (§III discussion).

The paper argues perpetual synchrony is necessary: under the *eventual*
predicate, a long enough all-isolated prefix is indistinguishable from the
forever-isolated run, so every process must decide its own value — ``n``
distinct decisions even though ``♦Psrcs(k)`` holds.

:func:`eventual_lower_bound` makes the argument quantitative for
Algorithm 1 — and the result is *sharper* than the generic
indistinguishability bound: because ``PT(p)`` is a prefix intersection
(equation (7)), it never recovers from a bad round.  With the all-isolated
bad graph,

* ``B = 0``: the single-group tail forces consensus (1 value);
* ``B >= 1``: already one isolated round pins ``PT(p) = {p}`` forever, so
  every approximation is the strongly connected singleton ``{p}`` at round
  ``n + 1`` and **all n processes decide their own value** — the paper's
  worst case, reached immediately.

The EVENTUAL-LB benchmark tabulates this step function; it is the
quantitative face of the paper's claim that *perpetual* synchrony is
necessary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversaries.eventual import EventuallyGoodAdversary
from repro.adversaries.grouped import GroupedSourceAdversary
from repro.core.algorithm import make_processes
from repro.engine.registry import ExperimentSpec, register
from repro.engine.scenarios import ScenarioSpec, register_adversary
from repro.rounds.run import Run
from repro.rounds.simulator import RoundSimulator, SimulationConfig


@dataclass(frozen=True)
class EventualReport:
    n: int
    bad_rounds: int
    run: Run
    distinct_decisions: int
    all_decided_own: bool


def eventual_lower_bound(
    n: int, bad_rounds: int, seed: int = 0, max_rounds: int | None = None
) -> EventualReport:
    """Algorithm 1 under ``♦Psrcs``: isolated prefix, then one group.

    The good phase is a single-group clique adversary — the most benign
    possible tail, to isolate the effect of the prefix.
    """
    good = GroupedSourceAdversary(
        n, num_groups=1, seed=seed, topology="clique"
    )
    adversary = EventuallyGoodAdversary(good, bad_rounds=bad_rounds)
    processes = make_processes(n)
    config = SimulationConfig(max_rounds=max_rounds or (bad_rounds + 4 * n + 4))
    run = RoundSimulator(processes, adversary, config).run()
    decided_own = run.all_decided() and all(
        run.decisions[p].value == run.initial_values[p] for p in range(n)
    )
    return EventualReport(
        n=n,
        bad_rounds=bad_rounds,
        run=run,
        distinct_decisions=len(run.decision_values()),
        all_decided_own=decided_own,
    )


# ----------------------------------------------------------------------
# Experiment-registry spec: EVENTUAL-LB as a campaign family (one
# scenario per (n, bad_rounds, seed) point of the step function).
# ----------------------------------------------------------------------
def _build_eventual_adversary(spec: ScenarioSpec) -> EventuallyGoodAdversary:
    good = GroupedSourceAdversary(
        spec.n,
        num_groups=1,
        seed=spec.seed,
        noise=spec.noise,
        topology="clique",
    )
    return EventuallyGoodAdversary(good, bad_rounds=spec.opt("bad_rounds", 0))


register_adversary("eventual", _build_eventual_adversary)


def run_eventual_scenario(spec: ScenarioSpec) -> "ScenarioResult":
    """Per-scenario runner: one ♦Psrcs run; the step-function verdict
    (own-value decisions, lower-bound confirmation) rides in the extras."""
    from repro.analysis.stats import decision_stats
    from repro.engine.executor import ScenarioResult

    bad_rounds = spec.opt("bad_rounds", 0)
    report = eventual_lower_bound(
        spec.n, bad_rounds, seed=spec.seed, max_rounds=spec.max_rounds
    )
    run = report.run
    stats = decision_stats(run)
    # The sharp form of §III's argument: no isolated prefix keeps the
    # single-group tail's consensus; any isolated prefix pins PT(p)={p}
    # and forces all n own-value decisions.
    confirms = (
        report.distinct_decisions == 1
        if bad_rounds == 0
        else (report.distinct_decisions == spec.n and report.all_decided_own)
    )
    return ScenarioResult(
        spec=spec,
        num_rounds=run.num_rounds,
        distinct_decisions=report.distinct_decisions,
        all_decided=run.all_decided(),
        validity_holds=None,
        first_decision_round=stats.first_decision_round,
        last_decision_round=stats.last_decision_round,
        stabilization=stats.stabilization,
        lemma11_bound=stats.lemma11_bound,
        within_bound=stats.within_bound,
        decision_values=tuple(sorted(run.decision_values(), key=repr)),
        extras=(
            ("all_decided_own", report.all_decided_own),
            ("bad_rounds", bad_rounds),
            ("confirms_lower_bound", confirms),
        ),
    )


def fastpath_eventual_result(spec, fast, adversary) -> "ScenarioResult":
    """The fast-path twin of :func:`run_eventual_scenario`.

    Builds the exact same result record — metrics *and* extras — from a
    finished :class:`~repro.rounds.fastpath.FastPathRun`, so the eventual
    family executes on the batched backend with byte-identical
    canonical summaries (the differential suite pins this)."""
    from repro.engine.backends import fastpath_decision_stats
    from repro.engine.executor import ScenarioResult

    bad_rounds = spec.opt("bad_rounds", 0)
    stats, _ = fastpath_decision_stats(fast, adversary)
    values = fast.decision_values()
    all_decided = fast.all_decided()
    # Own-value decisions: proposals are the process ids (range(n)), so
    # "everyone decided its own value" is one vector comparison.
    decided_own = all_decided and bool(
        (fast.decision_value == np.arange(fast.n)).all()
    )
    confirms = (
        len(values) == 1
        if bad_rounds == 0
        else (len(values) == spec.n and decided_own)
    )
    return ScenarioResult(
        spec=spec,
        num_rounds=fast.num_rounds,
        distinct_decisions=len(values),
        all_decided=all_decided,
        validity_holds=None,
        first_decision_round=stats.first_decision_round,
        last_decision_round=stats.last_decision_round,
        stabilization=stats.stabilization,
        lemma11_bound=stats.lemma11_bound,
        within_bound=stats.within_bound,
        decision_values=tuple(sorted(values, key=repr)),
        extras=(
            ("all_decided_own", decided_own),
            ("bad_rounds", bad_rounds),
            ("confirms_lower_bound", confirms),
        ),
    )


DEFAULT_BAD_ROUNDS = (0, 1, 2, 4, 8, 12, 20)


def eventual_grid(
    ns=(8,), bad_rounds=DEFAULT_BAD_ROUNDS, seeds=range(1)
) -> list[ScenarioSpec]:
    return [
        ScenarioSpec(
            n=n,
            k=1,
            num_groups=1,
            seed=seed,
            adversary="eventual",
            max_rounds=bad + 4 * n + 4,
            options=tuple(
                sorted({"family": "eventual", "bad_rounds": bad}.items())
            ),
        )
        for n in ns
        for bad in bad_rounds
        for seed in seeds
    ]


def _eventual_grid(params) -> list[ScenarioSpec]:
    ns = params["n"] if isinstance(params["n"], (list, tuple)) else [params["n"]]
    return eventual_grid(
        ns=ns,
        bad_rounds=tuple(params["bad_rounds"]),
        seeds=range(params["seeds"]),
    )


def _eventual_row(result) -> list:
    return [
        result.spec.n,
        result.extra("bad_rounds"),
        result.distinct_decisions,
        result.extra("all_decided_own"),
    ]


def _eventual_render(results) -> tuple[str, int]:
    from repro.analysis.reporting import format_table

    text = format_table(
        ["n", "bad_prefix_rounds", "distinct_decisions", "all_decided_own"],
        [_eventual_row(r) for r in results],
        title="♦Psrcs lower bound (§III): any isolated prefix collapses "
        "to n own-value decisions",
    )
    ok = all(r.extra("confirms_lower_bound") for r in results)
    return text, 0 if ok else 1


register(
    ExperimentSpec(
        name="eventual",
        title="EVENTUAL-LB: the ♦Psrcs bad-prefix step function (§III)",
        build_grid=_eventual_grid,
        render=_eventual_render,
        headers=("n", "bad_prefix_rounds", "distinct_decisions",
                 "all_decided_own"),
        row=_eventual_row,
        runner=run_eventual_scenario,
        fast_result=fastpath_eventual_result,
        aggregate=None,
        defaults=(
            ("bad_rounds", DEFAULT_BAD_ROUNDS),
            ("n", (8,)),
            ("seeds", 1),
        ),
        vectorizable=True,
    )
)
