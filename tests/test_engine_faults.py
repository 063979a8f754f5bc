"""Deterministic fault injection: reconvergence to byte-identical
journals, torn-tail tolerance, bounded retry, graceful interrupts."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from worker_harness import worker_fleet

from repro.engine import faults as faults_module
from repro.engine.campaign import Campaign
from repro.engine.dispatch import retry_delay
from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import ResultStore

#: Workers of the drills' remote fleet.
FLEET = 2


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults_module.clear()
    yield
    faults_module.clear()


@pytest.fixture(
    params=["pool", pytest.param("fleet", marks=pytest.mark.daemon)]
)
def dispatch(request, tmp_path):
    """Where a drill runs — a 2-job local pool or a 2-worker remote
    fleet — as ``(Campaign.run keywords, most victims of a worker-ending
    fault)``.  A kill ends a remote worker for good and a stall past the
    deadline cuts its link, so a fleet survives ``FLEET - 1`` of them."""
    if request.param == "pool":
        yield {"jobs": 2}, None
        return
    with worker_fleet(tmp_path, count=FLEET) as fleet:
        yield {"workers": fleet.endpoints}, FLEET - 1


def _specs(count=6, n=5):
    return [
        ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=0.1)
        for s in range(count)
    ]


def _run_bytes(tmp_path, tag, specs, **run_kw):
    """(journal bytes, canonical summary bytes) of one campaign run."""
    journal = tmp_path / f"{tag}.jsonl"
    summary = tmp_path / f"{tag}.summary.jsonl"
    campaign = Campaign(specs, store=str(journal), **run_kw.pop("campaign_kw", {}))
    campaign.run(**run_kw)
    campaign.write_summary(summary)
    return journal.read_bytes(), summary.read_bytes()


def _seed_with_victims(kind, rate, ids, want=1, most=None):
    """The smallest plan seed targeting at least ``want`` (and at most
    ``most``) of ``ids``."""
    for seed in range(200):
        victims = FaultPlan(seed=seed, **{kind: rate}).victims(kind, ids)
        if want <= len(victims) <= (most or len(ids)):
            return seed, victims
    raise AssertionError("no seed found — loosen the rate")


# ----------------------------------------------------------------------
# Plan construction and determinism
# ----------------------------------------------------------------------
def test_parse_spec_round_trip():
    plan = FaultPlan.parse("seed=7, kill=0.25, torn=0.5, stall_s=3")
    assert plan.seed == 7
    assert plan.kill == 0.25
    assert plan.torn == 0.5
    assert plan.stall_s == 3.0
    assert plan.parent_pid == os.getpid()
    back = FaultPlan.from_json(plan.to_json())
    assert back == plan


def test_parse_rejects_bad_specs():
    with pytest.raises(ValueError, match="seed"):
        FaultPlan.parse("kill=0.5")
    with pytest.raises(ValueError, match="unknown fault spec key"):
        FaultPlan.parse("seed=1,explode=1.0")
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.parse("seed=1,torn")


def test_parse_default_ledger_applies_only_when_unset():
    plan = FaultPlan.parse("seed=1,kill=0.1", ledger="/tmp/x.ledger")
    assert plan.ledger == "/tmp/x.ledger"
    plan = FaultPlan.parse("seed=1,ledger=/other", ledger="/tmp/x.ledger")
    assert plan.ledger == "/other"


def test_victim_selection_is_pure_and_rate_scaled():
    ids = [spec.scenario_id for spec in _specs(40)]
    plan = FaultPlan(seed=3, kill=0.5)
    again = FaultPlan(seed=3, kill=0.5)
    assert plan.victims("kill", ids) == again.victims("kill", ids)
    assert FaultPlan(seed=3).victims("kill", ids) == []
    assert FaultPlan(seed=3, kill=1.0).victims("kill", ids) == ids
    # Different seeds draw different victim sets (with high probability
    # at rate 0.5 over 40 ids).
    assert plan.victims("kill", ids) != FaultPlan(
        seed=4, kill=0.5
    ).victims("kill", ids)


def test_ledger_makes_claims_once_only(tmp_path):
    ledger = tmp_path / "faults.ledger"
    plan = FaultPlan(seed=0, transient=1.0, ledger=str(ledger))
    assert plan.claim("transient", "abc") is True
    assert plan.claim("transient", "abc") is False
    assert plan.claim("transient", "def") is True
    # Without a ledger, faults fire on every encounter.
    free = FaultPlan(seed=0, transient=1.0)
    assert free.claim("transient", "abc") is True
    assert free.claim("transient", "abc") is True


def test_install_and_active_plan_round_trip():
    plan = FaultPlan.from_seed(5, transient=0.5).install()
    assert faults_module.active_plan() == plan
    faults_module.clear()
    assert faults_module.active_plan() is None


def test_worker_faults_never_fire_in_parent():
    # parent_pid == this pid, so the kill/stall/transient hook is inert
    # even at rate 1.0 — serial in-process runs are never killed.
    FaultPlan.from_seed(0, kill=1.0, transient=1.0).install()
    faults_module.before_scenario(_specs(1)[0])  # must not raise/exit


# ----------------------------------------------------------------------
# Deterministic retry backoff
# ----------------------------------------------------------------------
def test_retry_delay_is_deterministic_capped_and_growing():
    assert retry_delay("abc", 1) == retry_delay("abc", 1)
    assert retry_delay("abc", 1) != retry_delay("xyz", 1)
    for key in ("a", "b", "c"):
        delays = [retry_delay(key, attempt) for attempt in range(1, 12)]
        assert all(0.0 < d <= 2.0 for d in delays)
        assert delays[-1] == 2.0  # capped


# ----------------------------------------------------------------------
# Reconvergence: faulted runs end byte-identical to fault-free runs
# ----------------------------------------------------------------------
def test_transient_fault_retried_to_identical_bytes(tmp_path, dispatch):
    run_kw, _most = dispatch
    specs = _specs(6)
    ids = [s.scenario_id for s in specs]
    seed, victims = _seed_with_victims("transient", 0.4, ids)
    clean = _run_bytes(tmp_path, "clean", specs, jobs=2)

    ledger = tmp_path / "transient.ledger"
    FaultPlan.from_seed(
        seed, transient=0.4, ledger=str(ledger)
    ).install()
    faulted = _run_bytes(
        tmp_path, "faulted", specs, campaign_kw={"max_retries": 2},
        **run_kw,
    )
    assert faulted == clean
    fired = ledger.read_text().splitlines()
    assert sorted(fired) == sorted(
        f"transient:{sid}" for sid in victims
    )


def test_worker_kill_fault_retried_to_identical_bytes(tmp_path, dispatch):
    run_kw, most = dispatch
    specs = _specs(6)
    ids = [s.scenario_id for s in specs]
    seed, victims = _seed_with_victims("kill", 0.3, ids, most=most)
    clean = _run_bytes(tmp_path, "clean", specs, jobs=2)

    ledger = tmp_path / "kill.ledger"
    FaultPlan.from_seed(seed, kill=0.3, ledger=str(ledger)).install()
    faulted = _run_bytes(
        tmp_path, "faulted", specs, campaign_kw={"max_retries": 2},
        **run_kw,
    )
    assert faulted == clean
    assert ledger.read_text().count("kill:") == len(victims)


def test_stall_fault_deadline_retried_to_identical_bytes(tmp_path, dispatch):
    run_kw, most = dispatch
    specs = _specs(4, n=4)
    ids = [s.scenario_id for s in specs]
    seed, _ = _seed_with_victims("stall", 0.3, ids, most=most)
    clean = _run_bytes(tmp_path, "clean", specs, jobs=2)

    ledger = tmp_path / "stall.ledger"
    FaultPlan.from_seed(
        seed, stall=0.3, stall_s=4.0, ledger=str(ledger)
    ).install()
    faulted = _run_bytes(
        tmp_path, "faulted", specs, timeout=0.5,
        campaign_kw={"max_retries": 2}, **run_kw,
    )
    assert faulted == clean


def test_drop_meta_fault_tolerated_with_metrics(tmp_path, dispatch):
    from repro.engine.telemetry import Recorder

    run_kw, _most = dispatch
    specs = _specs(6)
    clean = _run_bytes(tmp_path, "clean", specs, jobs=2)
    FaultPlan.from_seed(0, drop_meta=1.0).install()
    recorder = Recorder()
    faulted = _run_bytes(
        tmp_path, "faulted", specs, recorder=recorder, **run_kw
    )
    assert faulted == clean


def test_torn_journal_write_heals_on_resume(tmp_path):
    specs = _specs(5)
    ids = [s.scenario_id for s in specs]
    seed, victims = _seed_with_victims("torn", 0.3, ids)
    _, clean = _run_bytes(tmp_path, "clean", specs)

    journal = tmp_path / "faulted.jsonl"
    ledger = tmp_path / "torn.ledger"
    FaultPlan.from_seed(seed, torn=0.3, ledger=str(ledger)).install()
    # The torn appends crash the run (a writer killed mid-write); each
    # resume heals the tail, re-runs the victim, and continues.  One
    # crash per victim, then a clean completion.
    for _ in range(len(victims) + 1):
        campaign = Campaign(specs, store=str(journal))
        try:
            campaign.run()
            break
        except InjectedFault:
            continue
    summary = tmp_path / "faulted.summary.jsonl"
    campaign = Campaign(specs, store=str(journal))
    campaign.run()  # idempotent completion
    campaign.write_summary(summary)
    assert summary.read_bytes() == clean
    # The raw journal really does carry healed torn fragments.
    raw = journal.read_bytes()
    assert raw.endswith(b"\n")


# ----------------------------------------------------------------------
# Torn trailing line: byte-truncation regression (satellite 1)
# ----------------------------------------------------------------------
def test_store_tolerates_byte_truncated_tail(tmp_path, caplog):
    journal = tmp_path / "journal.jsonl"
    specs = _specs(3)
    store = ResultStore(str(journal))
    from repro.engine.executor import execute_scenario

    results = [execute_scenario(spec) for spec in specs]
    for result in results:
        store.append(result)
    full = journal.read_bytes()
    lines = full.splitlines(keepends=True)

    # Truncate the final line at every byte offset: load() must always
    # return the intact records and mark the torn scenario missing.
    last = lines[-1]
    prefix = b"".join(lines[:-1])
    # Note len(last) - 1 would cut only the newline, leaving complete
    # JSON — which correctly still parses; cut into the record proper.
    for cut in (1, len(last) // 2, len(last) - 2):
        journal.write_bytes(prefix + last[:cut])
        fresh = ResultStore(str(journal))
        with caplog.at_level("WARNING", logger="repro.engine.store"):
            loaded = fresh.load()
        assert set(loaded) == {r.scenario_id for r in results[:-1]}
        assert any("re-run on resume" in rec.message
                   for rec in caplog.records)
        caplog.clear()
        # Re-appending the missing record heals the tail: the rerun's
        # line must not glue onto the fragment.
        fresh.append(results[-1])
        healed = ResultStore(str(journal))
        assert set(healed.load()) == {r.scenario_id for r in results}


def test_resumed_campaign_reruns_only_torn_scenario(tmp_path):
    journal = tmp_path / "journal.jsonl"
    specs = _specs(4)
    campaign = Campaign(specs, store=str(journal))
    campaign.run()
    # Tear the final record mid-line.
    raw = journal.read_bytes()
    torn_at = raw.rstrip(b"\n").rfind(b"\n") + 1
    journal.write_bytes(raw[: torn_at + 10])

    resumed = Campaign(specs, store=str(journal))
    report = resumed.run()
    assert report.executed == 1
    assert report.skipped == len(specs) - 1
    assert resumed.status().succeeded


# ----------------------------------------------------------------------
# Bounded in-run retry flag plumbing (satellite 2)
# ----------------------------------------------------------------------
def test_campaign_threads_max_retries_to_executor(monkeypatch):
    import repro.engine.campaign as campaign_module

    seen = {}
    real = campaign_module.execute_scenarios

    def spy(*args, **kwargs):
        seen["max_retries"] = kwargs.get("max_retries")
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign_module, "execute_scenarios", spy)
    Campaign(_specs(2), max_retries=3).run()
    assert seen["max_retries"] == 3
    # Per-run override wins over the constructor default.
    Campaign(_specs(2), max_retries=3).run(max_retries=1)
    assert seen["max_retries"] == 1


def test_cli_max_retries_flag_parses(tmp_path):
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["campaign", "run", "--store", str(tmp_path / "j.jsonl"),
         "--max-retries", "2", "--faults", "seed=1,transient=0.5",
         "--contracts"]
    )
    assert args.max_retries == 2
    assert args.faults == "seed=1,transient=0.5"
    assert args.contracts is True


# ----------------------------------------------------------------------
# Graceful SIGTERM (satellite 3)
# ----------------------------------------------------------------------
def test_campaign_run_sigterm_flushes_and_hints_resume(tmp_path):
    store = tmp_path / "journal.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run",
            "--store", str(store), "--no-progress", "--jobs", "2",
            "--timeout", "60",
            "-n", "14", "-k", "2", "--seeds", "60", "--noise", "0.1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Wait until at least one record is journaled, then interrupt.
    deadline = time.time() + 60
    while time.time() < deadline:
        if store.exists() and store.stat().st_size > 0:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    assert proc.poll() is None, (
        "campaign finished before SIGTERM could be delivered: "
        + proc.communicate()[1]
    )
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "interrupted" in stderr
    assert "re-run" in stderr and "resume" in stderr
    # The journal survived the interrupt and parses cleanly.
    loaded = ResultStore(str(store)).load()
    assert len(loaded) >= 1
    for result in loaded.values():
        assert result.ok
