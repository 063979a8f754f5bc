"""Runtime contract layer: zero-cost-off, checkpoints, violations."""

import json
import pickle

import numpy as np
import pytest

from repro.engine import contracts as contracts_module
from repro.engine.contracts import (
    NO_CONTRACTS,
    ContractViolation,
    Contracts,
    contract,
    contracts_enabled,
)
from repro.engine.backends import (
    execute_scenario_batch,
    execute_scenario_with_backend,
    simulate_single_lane,
)
from repro.engine.campaign import Campaign
from repro.engine.scenarios import (
    ADVERSARIES,
    ScenarioSpec,
    register_adversary,
)
from repro.engine.scheduler import plan_batches
from repro.engine.store import ResultStore, canonical_line


@pytest.fixture(autouse=True)
def _clean_contract_state(monkeypatch):
    """Every test starts and ends with contracts off and unmemoized."""
    monkeypatch.delenv(contracts_module.CONTRACTS_ENV, raising=False)
    monkeypatch.setattr(contracts_module, "_ACTIVE", None)
    yield
    monkeypatch.setattr(contracts_module, "_ACTIVE", None)


# ----------------------------------------------------------------------
# Activation plumbing
# ----------------------------------------------------------------------
def test_null_contracts_is_falsy_and_inert():
    assert not NO_CONTRACTS
    assert NO_CONTRACTS.sample("anything") is False
    # Every check is a no-op even on garbage input.
    NO_CONTRACTS.check_block_fetch(None, 0, 0, None)
    NO_CONTRACTS.check_plan(None, None)
    NO_CONTRACTS.check_lane_identity({}, {"x": 1})
    NO_CONTRACTS.check_canonical_backend_free("a", "b")
    NO_CONTRACTS.check_scenario_id(None)
    NO_CONTRACTS.check_merge_commutative([])
    NO_CONTRACTS.check_fast_forward(None, None)
    NO_CONTRACTS.check_label_window(None, None, None, 0, None)


def test_get_defaults_to_off():
    assert contracts_module.get() is NO_CONTRACTS


def test_env_var_arms_contracts(monkeypatch):
    monkeypatch.setenv(contracts_module.CONTRACTS_ENV, "1")
    monkeypatch.setattr(contracts_module, "_ACTIVE", None)
    active = contracts_module.get()
    assert isinstance(active, Contracts)
    assert active
    # Memoized: same object on repeat lookups.
    assert contracts_module.get() is active


def test_env_zero_means_off(monkeypatch):
    monkeypatch.setenv(contracts_module.CONTRACTS_ENV, "0")
    monkeypatch.setattr(contracts_module, "_ACTIVE", None)
    assert contracts_module.get() is NO_CONTRACTS


def test_context_manager_restores_previous_state():
    import os

    before = contracts_module.get()
    with contracts_enabled() as active:
        assert isinstance(active, Contracts)
        assert contracts_module.get() is active
        assert os.environ[contracts_module.CONTRACTS_ENV] == "1"
    assert contracts_module.get() is before
    assert contracts_module.CONTRACTS_ENV not in os.environ


def test_sampling_first_and_every_nth():
    active = Contracts(sample_every=4)
    hits = [active.sample("cp") for _ in range(9)]
    assert hits == [True, False, False, False, True,
                    False, False, False, True]
    # Independent counters per checkpoint name.
    assert active.sample("other") is True


# ----------------------------------------------------------------------
# ContractViolation mechanics
# ----------------------------------------------------------------------
def test_violation_message_carries_json_repro():
    exc = ContractViolation("x.y", "boom", {"id": "abc", "seed": 3})
    text = str(exc)
    assert "contract violated [x.y]: boom" in text
    assert '"id": "abc"' in text


def test_violation_with_context_inner_keys_win():
    exc = ContractViolation("c", "d", {"lane": 2})
    enriched = exc.with_context(lane=9, backend="batched")
    assert enriched.repro == {"lane": 2, "backend": "batched"}


def test_violation_pickles_with_structure():
    exc = ContractViolation("c", "d", {"seed": 1})
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, ContractViolation)
    assert back.contract == "c"
    assert back.detail == "d"
    assert back.repro == {"seed": 1}
    assert isinstance(back, AssertionError)


# ----------------------------------------------------------------------
# The @contract decorator
# ----------------------------------------------------------------------
def test_decorator_is_inert_when_off():
    @contract(pre=lambda x: False, post=lambda r, x: False)
    def fn(x):
        return x + 1

    # Conditions would fail — but contracts are off, so they never run.
    assert fn(1) == 2


def test_decorator_enforces_pre_and_post():
    @contract(pre=lambda x: x >= 0)
    def sqrtish(x):
        return x**0.5

    @contract(post=lambda r, x: r == x * 2)
    def broken_double(x):
        return x * 3

    with contracts_enabled() as active:
        assert sqrtish(4) == 2.0
        with pytest.raises(ContractViolation, match="sqrtish.pre"):
            sqrtish(-1)
        with pytest.raises(ContractViolation, match="broken_double.post"):
            broken_double(2)
        assert active.violations == 2


def test_decorator_wraps_condition_crashes():
    @contract(pre=lambda x: x.undefined_attr)
    def fn(x):
        return x

    with contracts_enabled():
        with pytest.raises(ContractViolation, match="AttributeError"):
            fn(3)


# ----------------------------------------------------------------------
# The named checkpoints
# ----------------------------------------------------------------------
def test_check_block_fetch_pass_and_fail():
    active = Contracts()
    stack = np.ones((2, 3, 3), dtype=bool)
    active.check_block_fetch(lambda c, s: stack, 2, 1, stack)

    calls = iter([stack, np.zeros((2, 3, 3), dtype=bool)])

    def impure(count, start):
        return next(calls)

    fetched = impure(2, 1)
    with pytest.raises(ContractViolation) as info:
        active.check_block_fetch(impure, 2, 1, fetched, context={"n": 3})
    assert info.value.contract == "adversary.block_fetch_purity"
    assert info.value.repro["n"] == 3
    assert info.value.repro["count"] == 2


def test_check_plan_determinism():
    active = Contracts()
    active.check_plan([1, 2], lambda: [1, 2])
    with pytest.raises(ContractViolation) as info:
        active.check_plan([1, 2], lambda: [2, 1])
    assert info.value.contract == "scheduler.plan_determinism"


def test_check_lane_identity_compares_arrays():
    active = Contracts()
    active.check_lane_identity(
        {"rounds": 5, "vals": np.array([1, 2])},
        {"rounds": 5, "vals": np.array([1, 2])},
    )
    with pytest.raises(ContractViolation, match="lane field 'rounds'"):
        active.check_lane_identity({"rounds": 5}, {"rounds": 6})


def test_check_canonical_backend_free():
    active = Contracts()
    active.check_canonical_backend_free("x", "x")
    with pytest.raises(ContractViolation) as info:
        active.check_canonical_backend_free("x", "y", context={"id": "a"})
    assert info.value.contract == "store.canonical_backend_free"


def _stale_id(spec: ScenarioSpec) -> ScenarioSpec:
    """Overwrite the spec's cached id, as a corrupted cache would."""
    object.__setattr__(spec, "_scenario_id", "0123456789ab")
    assert spec.scenario_id == "0123456789ab" != spec.derive_id()
    return spec


def test_check_scenario_id():
    active = Contracts()
    spec = _spec()
    active.check_scenario_id(spec)
    with pytest.raises(ContractViolation) as info:
        active.check_scenario_id(_stale_id(spec), context={"backend": "x"})
    assert info.value.contract == "scenarios.id"
    assert info.value.repro == {"seed": spec.seed, "backend": "x"}


def test_stale_cached_id_caught_on_append_only_when_armed():
    from repro.engine.executor import execute_scenario

    result = execute_scenario(_spec())
    _stale_id(result.spec)
    # Off: the check never runs (pymor's disabled-contracts idiom).
    ResultStore(None).append(result)
    with contracts_enabled():
        with pytest.raises(ContractViolation, match=r"\[scenarios\.id\]"):
            ResultStore(None).append(result)


def test_check_merge_commutative_passes_on_real_snapshots():
    from repro.engine.telemetry import Recorder

    a, b = Recorder(), Recorder()
    a.inc("k", 2)
    b.inc("k", 3)
    b.inc("other", 1)
    active = Contracts()
    active.check_merge_commutative([a.snapshot(), b.snapshot()])
    # Fewer than two snapshots: vacuously fine.
    active.check_merge_commutative([a.snapshot()])


def test_checks_are_counted_per_contract():
    active = Contracts()
    stack = np.ones((2, 3, 3), dtype=bool)
    active.check_block_fetch(lambda c, s: stack, 2, 1, stack)
    active.check_block_fetch(lambda c, s: stack, 2, 1, stack)
    active.check_plan([1], lambda: [1])
    assert active.counts == {
        "adversary.block_fetch_purity": 2,
        "scheduler.plan_determinism": 1,
    }
    assert active.checks == 3


def test_check_fast_forward_pass_and_fail():
    from dataclasses import replace

    from test_fastpath_fast_forward import cycle_schedule, cycle_task

    from repro.rounds.fastpath import simulate_fastpath

    task = cycle_task(cycle_schedule())
    run = simulate_fastpath(task.adjacency, [5, 3, 7], purge_window=1)
    active = Contracts()
    active.check_fast_forward(lambda: run, run)
    cut = replace(run, num_rounds=run.num_rounds - 1)
    with pytest.raises(ContractViolation) as info:
        active.check_fast_forward(lambda: run, cut, context={"lane": 2})
    assert info.value.contract == "kernel.fast_forward"
    assert "num_rounds" in info.value.detail
    assert info.value.repro == {"lane": 2}
    assert active.counts == {"kernel.fast_forward": 2}


def _fast_forward_batch():
    """A stationary lane, a refused one and an ordinary one, batched."""
    from test_fastpath_fast_forward import cycle_schedule, cycle_task

    from repro.engine.telemetry import Recorder
    from repro.rounds.fastpath import simulate_fastpath_batch

    tasks = [
        cycle_task(cycle_schedule()),
        cycle_task(cycle_schedule(drop=25)),
        cycle_task(cycle_schedule()),
    ]
    rec = Recorder()
    runs = simulate_fastpath_batch(tasks, recorder=rec)
    keys = [
        (r.num_rounds, r.decided.tobytes(), r.decision_round.tobytes(),
         r.decision_value.tobytes(), r.adjacency.tobytes())
        for r in runs
    ]
    return keys, rec.snapshot()


def test_fast_forward_contract_armed_vs_disabled(monkeypatch):
    # pymor's disabled-contracts idiom: off, the re-run never happens;
    # armed, the first fast-forward is re-run (later ones sampled) and
    # the results are the same bytes either way.
    from repro.rounds import fastpath

    reruns = []
    real = fastpath.simulate_fastpath

    def counted(*args, **kwargs):
        reruns.append(kwargs.get("max_rounds"))
        return real(*args, **kwargs)

    monkeypatch.setattr(fastpath, "simulate_fastpath", counted)
    off_keys, off_snap = _fast_forward_batch()
    assert reruns == []
    with contracts_enabled() as active:
        on_keys, on_snap = _fast_forward_batch()
        assert active.counts.get("kernel.fast_forward") == 1
    assert reruns == [40]
    assert on_keys == off_keys
    assert on_snap["deterministic"] == off_snap["deterministic"]
    assert off_snap["volatile"]["counters"]["kernel.lanes_fast_forwarded"] == 2


def test_fast_forward_run_is_deterministic():
    # The SHAMS validator idiom: two identical runs, r1 == r2, both for
    # the results and for every kernel counter (fast-forwards included).
    with contracts_enabled():
        r1 = _fast_forward_batch()
        r2 = _fast_forward_batch()
    assert r1[0] == r2[0]
    assert r1[1]["deterministic"] == r2[1]["deterministic"]
    assert r1[1]["volatile"]["counters"] == r2[1]["volatile"]["counters"]


def test_refused_lane_is_not_rerun():
    from test_fastpath_fast_forward import cycle_schedule, cycle_task

    from repro.rounds.fastpath import simulate_fastpath_batch

    with contracts_enabled() as active:
        simulate_fastpath_batch([cycle_task(cycle_schedule(drop=25))])
        assert "kernel.fast_forward" not in active.counts


def _window_state():
    """Two lanes at their local round 10 (window 4, floor 6), n = 2."""
    labels = np.zeros((2, 2, 2, 2), dtype=np.int16)
    labels[0, 0, 1, 0] = 10
    labels[0, 1, 0, 1] = 7
    labels[1, 1, 1, 1] = 9
    clock = np.array([10, 10])
    window = np.array([4, 4])
    return labels, clock, window, np.ones(2, dtype=bool)


def test_check_label_window_pass_and_fail():
    active = Contracts()
    labels, clock, window, live = _window_state()
    active.check_label_window(labels, clock, window, 40, live)
    for bad_label in (11, 6, -1):  # from the future, purged, negative
        corrupt = labels.copy()
        corrupt[1, 0, 0, 1] = bad_label
        with pytest.raises(ContractViolation) as info:
            active.check_label_window(
                corrupt, clock, window, 40, live, context={"n": 2}
            )
        assert info.value.contract == "kernel.label_window"
        assert info.value.repro == {"lane": 1, "round": 10, "n": 2}
        # A retired lane's labels are not checked.
        active.check_label_window(
            corrupt, clock, window, 40, np.array([True, False])
        )
    with pytest.raises(ContractViolation, match="budget 9"):
        active.check_label_window(labels, clock, window, 9, live)
    assert active.counts == {"kernel.label_window": 8}


def _window_batch():
    """Pruning and no-pruning lanes at n = 6 and 16 (the dense and the
    gather merge), batched: ``(results, deterministic plane)``."""
    from repro.engine.telemetry import Recorder
    from repro.rounds.fastpath import FastPathTask, simulate_fastpath_batch

    tasks = []
    for n in (6, 16):
        for seed in range(2):
            spec = _spec(seed=seed, n=n)
            tasks.append(
                FastPathTask(
                    adjacency=spec.build_adversary().adjacency_stack,
                    initial_values=tuple(range(n)),
                    prune_unreachable=seed == 0,
                    max_rounds=spec.resolved_max_rounds(),
                )
            )
    rec = Recorder()
    runs = simulate_fastpath_batch(tasks, recorder=rec)
    keys = [
        (r.num_rounds, r.decided.tobytes(), r.decision_round.tobytes(),
         r.decision_value.tobytes(), r.adjacency.tobytes())
        for r in runs
    ]
    return keys, rec.snapshot()["deterministic"]


def test_label_window_armed_vs_disabled(monkeypatch):
    # Off, the check never runs; armed, it runs on sampled rounds and
    # the results are the same bytes either way.
    checked = []
    real = Contracts.check_label_window

    def counted(self, labels, *args, **kwargs):
        checked.append(labels.dtype)
        return real(self, labels, *args, **kwargs)

    monkeypatch.setattr(Contracts, "check_label_window", counted)
    off = _window_batch()
    assert checked == []
    with contracts_enabled() as active:
        on = _window_batch()
        assert active.counts["kernel.label_window"] == len(checked) > 1
    assert set(checked) == {np.dtype(np.int16)}
    assert on == off


def test_label_window_run_is_deterministic():
    # The SHAMS validator idiom: two identical armed runs, r1 == r2,
    # for the results, the kernel counters and the checks run (each
    # run under a fresh checker, so both sample the same rounds).
    with contracts_enabled() as first:
        r1 = _window_batch()
    with contracts_enabled() as second:
        r2 = _window_batch()
    assert r1 == r2
    assert first.counts == second.counts
    assert first.counts["kernel.label_window"] > 0


def test_corrupted_label_names_the_lane_and_round(monkeypatch):
    # A label one round from the future on a no-pruning lane survives
    # the purge and the prune, so only the window check can see it.
    from repro.rounds.array_backend import KernelNamespace

    real = KernelNamespace.masked_sender_max
    rounds = []

    def corrupt(kernel, labels, pt, out):
        out = real(kernel, labels, pt, out)
        rounds.append(None)
        if len(rounds) == 3:
            out[1, 0, 1, 2] = 4
        return out

    monkeypatch.setattr(KernelNamespace, "masked_sender_max", corrupt)
    with contracts_enabled() as active:
        active.sample_every = 1
        with pytest.raises(ContractViolation) as info:
            _window_batch()
    assert info.value.contract == "kernel.label_window"
    assert info.value.repro["lane"] == 1
    assert info.value.repro["round"] == 3
    assert "window (0, 3]" in info.value.detail
    assert info.value.detail.endswith("span 1..4)")


# ----------------------------------------------------------------------
# End-to-end: checkpoints wired into the engine
# ----------------------------------------------------------------------
def _spec(seed=0, n=6, **kw):
    return ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.1, **kw)


def test_single_lane_run_clean_under_contracts():
    with contracts_enabled() as active:
        run, _ = simulate_single_lane(_spec())
        assert run.all_decided()
        assert active.checks > 0


def test_batch_run_clean_under_contracts():
    specs = [_spec(seed=s) for s in range(3)]
    with contracts_enabled() as active:
        results = execute_scenario_batch(specs)
        assert [r.ok for r in results] == [True, True, True]
        # The lane-identity checkpoint sampled at least the first batch.
        assert active.checks > 0


def test_plan_batches_verified_under_contracts():
    items = list(enumerate(_spec(seed=s) for s in range(6)))
    with contracts_enabled() as active:
        plan = plan_batches(items, None, jobs=2)
        assert plan is not None
        assert active.checks > 0


def test_impure_adversary_caught_by_block_fetch_contract():
    from repro.adversaries.base import Adversary
    from repro.graphs.digraph import DiGraph

    class ImpureAdversary(Adversary):
        """Returns a different schedule on every block fetch."""

        def __init__(self, n):
            super().__init__(n)
            self._flips = 0

        def graph(self, round_no):
            g = DiGraph(nodes=range(self.n))
            for p in range(self.n):
                g.add_edge(p, p)
                g.add_edge(p, (p + 1) % self.n)
            return g

        def adjacency_stack(self, rounds, start=1):
            stack = super().adjacency_stack(rounds, start)
            self._flips += 1
            if self._flips > 1 and rounds:
                stack[0, 0, 1] = not stack[0, 0, 1]
            return stack

    register_adversary("_impure_test", lambda spec: ImpureAdversary(spec.n))
    try:
        spec = ScenarioSpec(n=4, k=1, adversary="_impure_test")
        with contracts_enabled():
            with pytest.raises(ContractViolation) as info:
                execute_scenario_with_backend(spec, "batched")
        with contracts_enabled():
            with pytest.raises(ContractViolation) as solo:
                simulate_single_lane(spec)
        assert info.value.contract == "adversary.block_fetch_purity"
        # The repro names the spec and backend for reproduction.
        assert info.value.repro.get("backend") == "batched"
        assert info.value.repro.get("id") == spec.scenario_id
        # The single-lane reference kernel checks its fetches too.
        assert solo.value.contract == "adversary.block_fetch_purity"
        assert solo.value.repro.get("kernel") == "simulate_fastpath"
    finally:
        ADVERSARIES.pop("_impure_test", None)


def test_schedule_fingerprint_is_pure_witness():
    spec = _spec()
    a = spec.build_adversary().schedule_fingerprint(10)
    b = spec.build_adversary().schedule_fingerprint(10)
    assert a == b
    assert a != spec.build_adversary().schedule_fingerprint(11)


# ----------------------------------------------------------------------
# Bytes are identical with contracts on or off
# ----------------------------------------------------------------------
def test_journal_and_summary_bytes_identical_on_off(tmp_path):
    specs = [_spec(seed=s) for s in range(4)]

    def run(tag, armed):
        journal = tmp_path / f"{tag}.jsonl"
        summary = tmp_path / f"{tag}.summary.jsonl"
        campaign = Campaign(specs, store=str(journal), backend="auto")
        if armed:
            with contracts_enabled():
                campaign.run()
        else:
            campaign.run()
        campaign.write_summary(summary)
        return journal.read_bytes(), summary.read_bytes()

    journal_off, summary_off = run("off", armed=False)
    journal_on, summary_on = run("on", armed=True)
    assert summary_on == summary_off
    assert journal_on == journal_off


def test_canonical_line_is_backend_free():
    from dataclasses import replace

    from repro.engine.executor import execute_scenario

    result = execute_scenario(_spec())
    assert canonical_line(result) == canonical_line(
        replace(result, backend="batched")
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_campaign_run_contracts_flag(tmp_path, capsys):
    from repro.cli import main

    store = tmp_path / "journal.jsonl"
    code = main(
        [
            "campaign", "run", "--store", str(store),
            "--contracts", "--backend", "auto", "--no-progress",
            "-n", "5", "-k", "2", "--seeds", "2", "--noise", "0.1",
        ]
    )
    assert code == 0
    assert store.exists()
    out = capsys.readouterr().out
    assert "state: ok" in out
    # Contracts were actually armed in-process.
    assert contracts_module.enabled()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_contract_checks_reach_the_metrics_sidecar(tmp_path, jobs):
    from repro.cli import main
    from repro.engine.telemetry import read_sidecar

    # The ablation family's no-pruning arm holds two never-deciding
    # stragglers the kernel fast-forwards; with --jobs 2 the counts
    # come back from the pool workers' snapshots.
    store = tmp_path / "journal.jsonl"
    code = main(
        [
            "campaign", "run", "--store", str(store), "--family",
            "ablation", "--contracts", "--metrics", "--backend", "auto",
            "--no-progress", "--jobs", jobs, "-n", "5", "-k", "2",
            "--seeds", "2",
        ]
    )
    assert code == 0
    side = read_sidecar(f"{store}.metrics.json")
    counters = side["volatile"]["counters"]
    checks = {
        name[len("contracts."):]: value
        for name, value in counters.items()
        if name.startswith("contracts.")
    }
    assert checks.get("kernel.fast_forward", 0) > 0, checks
    for name in (
        "adversary.block_fetch_purity",
        "scheduler.plan_determinism",
        "scenarios.id",
        "kernel.label_window",
    ):
        assert checks.get(name, 0) > 0, (name, checks)
    assert counters["kernel.lanes_fast_forwarded"] == 2


def test_metrics_sidecar_has_no_contract_counts_when_off(tmp_path):
    from repro.cli import main
    from repro.engine.telemetry import read_sidecar

    store = tmp_path / "journal.jsonl"
    assert main(
        [
            "campaign", "run", "--store", str(store), "--metrics",
            "--backend", "auto", "--no-progress", "-n", "5", "-k", "2",
            "--seeds", "2", "--noise", "0.1",
        ]
    ) == 0
    counters = read_sidecar(f"{store}.metrics.json")["volatile"]["counters"]
    assert not [name for name in counters if name.startswith("contracts.")]
