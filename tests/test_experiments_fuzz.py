"""The registered differential fuzz family: deterministic grids, clean
seeded budgets, and shrinking repros for intentionally-broken kernels."""

import json
from dataclasses import replace

import pytest

import repro.experiments.fuzz as fuzz_module
from repro.engine.registry import get_family, run_family
from repro.engine.scenarios import ScenarioSpec
from repro.experiments.fuzz import (
    _base_spec,
    _case_dict,
    _shrink,
    run_fuzz_case,
)


def test_grid_is_deterministic_and_salted():
    family = get_family("fuzz")
    a = family.grid({"seeds": 8})
    b = family.grid({"seeds": 8})
    assert a == b
    assert [s.scenario_id for s in a] == [s.scenario_id for s in b]
    salted = family.grid({"seeds": 8, "salt": 1})
    assert a != salted
    # Cases are prefixes: a bigger budget extends, never reshuffles.
    assert family.grid({"seeds": 4}) == a[:4]


def test_grid_cases_are_tagged_and_varied():
    family = get_family("fuzz")
    grid = family.grid({"seeds": 30})
    assert all(s.opt("family") == "fuzz" for s in grid)
    # 30 narrow cases, then 30 // 5 wide ones, each stream numbered on
    # its own.
    assert [s.opt("case") for s in grid] == list(range(30)) + list(range(6))
    assert [s.opt("stream") for s in grid] == [None] * 30 + ["wide"] * 6
    # The draw actually explores the scenario space.
    assert len({s.adversary for s in grid}) >= 3
    assert len({s.n for s in grid}) >= 3


def test_existing_case_ids_stay_pinned():
    # Scenario ids are journal resume keys: appending the wide cases
    # must not move any narrow case.
    family = get_family("fuzz")
    assert [s.scenario_id for s in family.grid({"seeds": 6})[:6]] == [
        "0e74ae78802f", "a9e5786cb88d", "9b958e0c3411",
        "10ea239bc23a", "56ebcf066985", "258e271dbcb8",
    ]
    assert [s.scenario_id for s in family.grid({"seeds": 3, "salt": 7})] == [
        "7ac61764e0c6", "96952ae9b35a", "d201d27ef1ee",
    ]


def test_default_budget_reaches_the_wide_regime():
    # The plain ``fuzz`` run draws past n = 10, into the widths of the
    # gathered merge, the distinct-graph closure and fast-forwarding.
    grid = get_family("fuzz").grid()
    assert len(grid) == 20 + 20 // 5
    assert min(s.n for s in grid[20:]) >= min(fuzz_module._WIDE_NS)
    assert max(s.n for s in grid[:20]) < min(fuzz_module._WIDE_NS)


def test_wide_stream_draws_the_wide_regime():
    family = get_family("fuzz")
    wide = family.grid({"seeds": 120})[120:]
    assert [s.opt("case") for s in wide] == list(range(24))
    assert all(s.opt("stream") == "wide" for s in wide)
    assert {s.n for s in wide} == set(fuzz_module._WIDE_NS)
    # Both sides of the fast-forward gate: never-deciding no-prune
    # lanes, and purge windows of several n whose stale labels refuse.
    assert any(s.opt("prune_unreachable") is False for s in wide)
    assert any(s.opt("purge_window", 0) >= 2 * s.n for s in wide)
    # A bigger budget extends, never reshuffles; a salt redraws.
    assert family.grid({"seeds": 30})[30:] == wide[:6]
    assert family.grid({"seeds": 30, "salt": 1})[30:] != wide[:6]
    assert _base_spec(wide[0]).opt("stream") is None


def test_wide_cases_run_clean_on_the_single_lane_oracle(monkeypatch):
    from repro.engine.contracts import contracts_enabled

    # From n = 16 the oracle is the single-lane kernel: the reference
    # simulator must not run at all.
    def no_reference(spec):
        raise AssertionError(f"reference simulator ran at n={spec.n}")

    monkeypatch.setattr(fuzz_module, "execute_scenario", no_reference)
    wide = get_family("fuzz").grid({"seeds": 40})[40:]
    with contracts_enabled() as active:
        results = [run_fuzz_case(spec) for spec in wide]
        assert active.counts.get("kernel.fast_forward", 0) > 0
    assert len(results) == 8
    assert all(r.ok for r in results), [r.error for r in results]
    assert all(r.extra("engines") == 2 for r in results)
    late = [
        r for r in results if r.spec.opt("purge_window", 0) >= 2 * r.spec.n
    ]
    assert late and all(r.all_decided for r in late)


def test_base_spec_strips_fuzz_bookkeeping():
    family = get_family("fuzz")
    spec = family.grid({"seeds": 1})[0]
    base = _base_spec(spec)
    assert base.opt("family") is None
    assert base.opt("case") is None
    assert base.opt("siblings") is None
    assert base.n == spec.n and base.seed == spec.seed


def test_seeded_budget_runs_clean():
    results = run_family("fuzz", {"seeds": 6})
    assert len(results) == 6 + 1  # six narrow cases and one wide
    assert all(r.ok for r in results)
    assert all(r.extra("engines") >= 2 for r in results)
    family = get_family("fuzz")
    text, code = family.render(results)
    assert code == 0
    assert "7 differential cases" in text
    assert "0 diverge" in text


def test_forced_fast_backend_rejected():
    family = get_family("fuzz")
    assert not family.supports_backend("batched")
    assert family.supports_backend("reference")


def test_broken_kernel_caught_and_shrunk(monkeypatch):
    """An intentionally-broken batch path must be flagged as a
    differential mismatch and shrunk to a minimal printed repro."""
    real = fuzz_module.execute_scenario_batch

    def broken(specs, width=None, recorder=None):
        results = real(specs, width=width, recorder=recorder)
        # Corrupt the first lane's round count: a subtle off-by-one of
        # the kind a real kernel bug would produce.
        first = results[0]
        if first.ok:
            results[0] = replace(first, num_rounds=first.num_rounds + 1)
        return results

    monkeypatch.setattr(fuzz_module, "execute_scenario_batch", broken)
    spec = get_family("fuzz").grid({"seeds": 1})[0]
    result = run_fuzz_case(spec)
    assert result.status == "error"
    assert "differential mismatch" in result.error
    assert "batched" in result.error
    # The minimal repro is machine-readable JSON...
    payload = result.error.split("minimal repro: ", 1)[1]
    minimal = json.loads(payload)
    # ...still failing...
    assert fuzz_module._case_fails(minimal)
    # ...and actually minimized: the kernel is broken for every case,
    # so the shrinker must reach the floor of each greedy pass.
    assert minimal["siblings"] == 0
    assert minimal["width"] is None
    assert minimal["noise"] in (0, 0.3)
    assert minimal["n"] <= spec.n


def test_shrink_respects_evaluation_budget(monkeypatch):
    calls = {"n": 0}

    def always_fails(case):
        calls["n"] += 1
        return True

    monkeypatch.setattr(fuzz_module, "_case_fails", always_fails)
    spec = get_family("fuzz").grid({"seeds": 1})[0]
    case = _case_dict(_base_spec(spec), 2, 3)
    _shrink(case)
    assert calls["n"] <= fuzz_module._SHRINK_BUDGET


def test_healthy_shrinker_finds_nothing():
    # On a healthy engine no case fails, so _case_fails is False and a
    # hypothetical shrink would be a no-op (guards the polarity).
    spec = get_family("fuzz").grid({"seeds": 1})[0]
    case = _case_dict(_base_spec(spec), 0, None)
    assert not fuzz_module._case_fails(case)


def test_fuzz_campaign_via_cli(tmp_path, capsys):
    from repro.cli import main

    store = tmp_path / "fuzz.jsonl"
    code = main(
        ["campaign", "run", "--family", "fuzz", "--seeds", "3",
         "--store", str(store), "--no-progress", "--contracts"]
    )
    try:
        assert code == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "state: ok" in out
    finally:
        from repro.engine import contracts

        contracts.deactivate()


def test_fuzz_subcommand_renders_verdict(capsys):
    from repro.cli import main

    code = main(["fuzz", "--seeds", "2", "--no-progress"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FUZZ: 2 differential cases" in out
    assert "all engines byte-identical" in out
