"""The batched kernel's fast-forward of stationary lanes.

A lane whose PT, nodes, estimates and decisions stopped changing, and
whose labels only rise by one per round, repeats itself until a round
drops a PT edge.  The kernel retires such a lane at its budget when no
remaining round drops one.  These tests pin that it does so exactly
when it may:

* a crafted schedule that stays stationary to its budget is
  fast-forwarded, also with one process already decided; one that drops a PT edge after a stationary stretch,
  and one whose stale labels do not rise, are refused; each equals the
  single-lane :func:`~repro.rounds.fastpath.simulate_fastpath` run,
  which never fast-forwards;
* under width caps (late admission, compaction) and cross-``n``
  packing the results stay bit-identical;
* the deterministic kernel counters of a small straggler grid equal
  the values measured before fast-forwarding existed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import _stock_result, simulate_single_lane
from repro.engine.executor import execute_scenarios
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import canonical_line
from repro.engine.telemetry import Recorder
from repro.rounds.fastpath import (
    FastPathTask,
    simulate_fastpath,
    simulate_fastpath_batch,
)

BUDGET = 40
DROP = 25


def cycle_schedule(rounds: int = BUDGET, drop: int | None = None):
    """A constant 3-cycle ``0 -> 1 -> 2 -> 0``; from round ``drop`` on
    the edge ``2 -> 0`` is gone.

    With purge window 1 each ``G_p`` holds only its fresh in-edge
    ``p-1 -> p``, so no process decides and the lane is stationary
    from round 5.  Once ``2 -> 0`` is gone, ``PT_0 = {0}``: process 0
    decides in round ``drop`` and 1 and 2 adopt in the next two.
    """
    sched = np.zeros((rounds, 3, 3), dtype=bool)
    for p in range(3):
        sched[:, p, (p + 1) % 3] = True
    if drop is not None:
        sched[drop - 1:, 2, 0] = False
    return sched


def cycle_task(sched, **kwargs) -> FastPathTask:
    """A lane running ``sched`` with purge window 1."""
    return FastPathTask(
        adjacency=sched, initial_values=(5, 3, 7), purge_window=1,
        **kwargs,
    )


def _solo(task: FastPathTask):
    return simulate_fastpath(
        task.adjacency, list(task.initial_values),
        purge_window=task.purge_window,
        prune_unreachable=task.prune_unreachable,
        max_rounds=task.max_rounds,
    )


def _key(run):
    return (
        run.n, run.num_rounds, run.decided.tobytes(),
        run.decision_round.tobytes(), run.decision_value.tobytes(),
        run.adjacency.tobytes(),
    )


def _fast_forwarded(tasks, **kwargs):
    rec = Recorder()
    runs = simulate_fastpath_batch(tasks, recorder=rec, **kwargs)
    return runs, rec.counter("kernel.lanes_fast_forwarded")


def test_stationary_lane_is_fast_forwarded_to_its_budget():
    task = cycle_task(cycle_schedule())
    rec = Recorder()
    (run,) = simulate_fastpath_batch([task], recorder=rec)
    assert _key(run) == _key(_solo(task))
    assert run.num_rounds == BUDGET and not run.decided.any()
    assert rec.counter("kernel.lanes_fast_forwarded") == 1
    # Stationary from round 5 (after the round-4 purge), so the gate
    # passes at the end of round 5 and skips the other 35.
    assert rec.counter("kernel.rounds_fast_forwarded") == BUDGET - 5
    assert rec.counter("kernel.loop_rounds") == 5


def test_partly_decided_stationary_lane_is_fast_forwarded():
    # 0 hears only itself, 1 <-> 2 throughout.  PT_0 = {0}, so 0
    # decides in round 4; with purge window 1, G_1 and G_2 hold only
    # their fresh in-edge and never decide.  A decided process's state
    # stops changing too, so the lane qualifies and keeps its decision.
    sched = np.zeros((BUDGET, 3, 3), dtype=bool)
    sched[:, 1, 2] = sched[:, 2, 1] = True
    task = cycle_task(sched)
    rec = Recorder()
    (run,) = simulate_fastpath_batch([task], recorder=rec)
    assert _key(run) == _key(_solo(task))
    assert run.num_rounds == BUDGET
    assert run.decision_rounds() == {0: 4}
    assert run.decision_values() == {5}
    assert rec.counter("kernel.lanes_fast_forwarded") == 1
    assert rec.counter("kernel.rounds_fast_forwarded") == BUDGET - 5


def test_lane_that_drops_a_pt_edge_later_is_refused():
    task = cycle_task(cycle_schedule(drop=DROP))
    (run,), forwarded = _fast_forwarded([task])
    assert forwarded == 0
    assert _key(run) == _key(_solo(task))
    # A wrong fast-forward would report no decision at round 40.
    assert run.num_rounds == DROP + 2
    assert run.decision_rounds() == {0: DROP, 1: DROP + 1, 2: DROP + 2}


def test_drop_on_the_last_budget_round_is_refused():
    task = cycle_task(cycle_schedule(drop=BUDGET))
    (run,), forwarded = _fast_forwarded([task])
    assert forwarded == 0
    assert _key(run) == _key(_solo(task))
    assert run.decision_rounds() == {0: BUDGET}


def test_stale_labels_refuse_the_shift():
    # 0 <-> 1 throughout; 2 -> 0 and 2 -> 1 only in rounds 1-2.  From
    # round 5 PT, nodes, estimates and decisions repeat, but the stale
    # round-2 labels on 2 -> 0 and 2 -> 1 do not rise, so the lane is
    # not stationary: once window 6 purges them (round 8), G_0 and G_1
    # lose node 2 and 0 and 1 decide.
    sched = np.zeros((BUDGET, 3, 3), dtype=bool)
    sched[:, 0, 1] = sched[:, 1, 0] = True
    sched[:2, 2, 0] = sched[:2, 2, 1] = True
    task = FastPathTask(
        adjacency=sched, initial_values=(5, 3, 7), purge_window=6
    )
    (run,), forwarded = _fast_forwarded([task])
    assert forwarded == 0
    assert _key(run) == _key(_solo(task))
    assert run.decision_rounds() == {0: 8, 1: 8, 2: 4}


def test_provider_lane_fetches_the_same_blocks():
    # A provider lane: the gate fetches the rest of the schedule in the
    # lane's tail-block cadence, so the RNG counters match a run that
    # executes every round (same blocks, in the same sizes).
    sched = cycle_schedule()
    calls = []

    def provider(count, start=1):
        calls.append((count, start))
        return sched[start - 1:start - 1 + count]

    task = FastPathTask(
        adjacency=provider, initial_values=(5, 3, 7), purge_window=1,
        max_rounds=BUDGET,
    )
    (run,), forwarded = _fast_forwarded([task])
    assert forwarded == 1
    # First block 1..8, then tail blocks of max(4, (n + 1) // 4) = 4.
    assert calls == [(8, 1)] + [(4, s) for s in range(9, BUDGET + 1, 4)]
    assert _key(run) == _key(_solo(task))


@pytest.mark.parametrize("kwargs", [{}, {"width": 1}, {"width": 2}])
def test_mixed_batch_matches_singletons(kwargs):
    # Stationary, refused and ordinary lanes together, packed with a
    # wider provider lane from the stock adversary.
    spec = ScenarioSpec(n=5, k=2, num_groups=2, seed=3, noise=0.2)
    adversary = spec.build_adversary()
    tasks = [
        cycle_task(cycle_schedule()),
        cycle_task(cycle_schedule(drop=DROP)),
        FastPathTask(
            adjacency=adversary.adjacency_stack,
            initial_values=tuple(range(5)),
            max_rounds=spec.resolved_max_rounds(),
        ),
        cycle_task(cycle_schedule(drop=12)),
        cycle_task(cycle_schedule()),
    ]
    runs, forwarded = _fast_forwarded(tasks, **kwargs)
    assert forwarded == 2
    assert [_key(r) for r in runs] == [_key(_solo(t)) for t in tasks]


# ----------------------------------------------------------------------
# A small straggler grid: no-prune lanes that never decide
# ----------------------------------------------------------------------
STRAGGLER_GRID = [
    ScenarioSpec(
        n=n, k=2, num_groups=2, seed=s, noise=0.35,
        options=(("prune_unreachable", False),),
    )
    for n in (9, 16)
    for s in (0, 1)
] + [
    ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=(0.0, 0.3)[s % 2])
    for n in (9, 16)
    for s in (2, 3)
]


def test_straggler_grid_keeps_the_deterministic_counters():
    rec = Recorder()
    results = execute_scenarios(
        STRAGGLER_GRID, backend="batched", recorder=rec
    )
    det = rec.snapshot()["deterministic"]["counters"]
    # Measured with a kernel that runs every round; fast-forwarding
    # must leave each of them exactly as it was.
    assert {k: v for k, v in det.items() if k.startswith("kernel.")} == {
        "kernel.lanes": 8,
        "kernel.lane_rounds": 438,
        "kernel.decisions": 50,
        "kernel.rng_fetches": 92,
        "kernel.rng_tail_fetches": 84,
        "kernel.rng_rounds_fetched": 442,
    }
    # Every no-prune straggler ran to its 6n + 20 budget, and every one
    # of them was fast-forwarded.
    assert [r.num_rounds for r in results[:4]] == [74, 74, 116, 116]
    assert rec.counter("kernel.lanes_fast_forwarded") == 4
    assert rec.counter("kernel.loop_rounds") < 74
    for spec, result in zip(STRAGGLER_GRID, results):
        assert canonical_line(result) == canonical_line(
            _stock_result(spec, *simulate_single_lane(spec))
        ), spec
