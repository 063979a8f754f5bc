"""End-to-end tests for the campaign service daemon.

The daemon's whole value proposition is that it changes *where*
campaigns run without changing *what* they produce: journal and
canonical-summary bytes of a served campaign must be identical to a
one-shot serial ``campaign run`` of the same grid — including when two
campaigns share the daemon's pool concurrently, when an injected fault
kills a pool worker mid-campaign, and across a SIGTERM interrupt plus
resubmit (resume-by-hash).  Every test boots a real ``campaign serve``
subprocess through :mod:`daemon_harness` and talks to it over HTTP,
exactly like a user.

All tests carry the ``daemon`` marker: ``tests/conftest.py`` arms a
per-test SIGALRM timeout so a hung daemon fails fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from daemon_harness import daemon, repro_env
from test_batched_equivalence import HETERO_GRID

from repro.engine.campaign import Campaign
from repro.engine.faults import FaultPlan
from repro.engine.scenarios import ScenarioGrid
from repro.engine.store import ResultStore

pytestmark = pytest.mark.daemon

GRID_B_AXES = {"axes": {"n": [6, 8], "k": [2], "seed": [0, 1, 2],
                        "noise": [0.0, 0.4]}}


def _solo_run(tmp_path: Path, name: str, scenarios, backend: str):
    """A one-shot in-process serial run: the byte-equality reference."""
    store = tmp_path / f"{name}.jsonl"
    campaign = Campaign(scenarios, store=str(store), backend=backend)
    report = campaign.run(jobs=1)
    summary = tmp_path / f"{name}.summary"
    campaign.write_summary(summary)
    return store, summary, report


def _journal_lines(path: Path) -> list[str]:
    """Journal records in journal order: a served campaign releases its
    results in plan order, exactly as a serial run appends them."""
    return path.read_text(encoding="utf-8").splitlines()


def _submit_specs(client, specs, store: Path, backend: str, **extra) -> dict:
    payload = {
        "specs": [spec.to_dict() for spec in specs],
        "store": str(store),
        "backend": backend,
        **extra,
    }
    return client.submit(payload)


class TestServedEquivalence:
    def test_served_campaign_matches_serial_run_bytes(self, tmp_path):
        """The core acceptance test: HETERO grid via the API == one-shot
        serial run, journal and canonical summary, byte for byte."""
        solo_store, solo_summary, solo_report = _solo_run(
            tmp_path, "solo", HETERO_GRID, "batched"
        )
        with daemon(tmp_path, jobs=2, slots=2) as d:
            health = d.client.health()
            assert health["ok"] and health["pool_workers"] == 2
            served_store = tmp_path / "served.jsonl"
            job = _submit_specs(
                d.client, HETERO_GRID, served_store, "batched"
            )
            final = d.client.wait(job["id"], timeout=120)
            assert final["state"] == "done", final
            assert final["report"]["executed"] == len(HETERO_GRID)
            assert final["status"]["state"] == "ok"
            served_summary = d.client.results_text(job["id"])
            metrics = d.client.metrics()
            assert job["id"] in metrics["campaigns"]
            assert (
                "deterministic"
                in metrics["campaigns"][job["id"]]["metrics"]
            )
        assert _journal_lines(served_store) == _journal_lines(solo_store)
        assert served_summary == solo_summary.read_text(encoding="utf-8")
        # The daemon also flushed a per-campaign telemetry sidecar.
        sidecar = Path(str(served_store) + ".metrics.json")
        assert json.loads(sidecar.read_text())["label"] == "grid"

    def test_concurrent_campaigns_match_their_solo_bytes(self, tmp_path):
        """Two campaigns submitted from two threads share the pool yet
        each journals exactly its solo-run bytes — per-campaign stores
        are fully isolated, only executor capacity is shared."""
        grid_b = ScenarioGrid.from_dict(GRID_B_AXES)
        solo_a_store, solo_a_summary, _ = _solo_run(
            tmp_path, "solo_a", HETERO_GRID, "batched"
        )
        solo_b_store, solo_b_summary, _ = _solo_run(
            tmp_path, "solo_b", grid_b, "batched"
        )
        store_a = tmp_path / "served_a.jsonl"
        store_b = tmp_path / "served_b.jsonl"
        with daemon(tmp_path, jobs=2, slots=2) as d:
            submitted: dict[str, dict] = {}
            errors: list[BaseException] = []

            def submit_a() -> None:
                try:
                    submitted["a"] = _submit_specs(
                        d.client, HETERO_GRID, store_a, "batched"
                    )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            def submit_b() -> None:
                try:
                    submitted["b"] = d.client.submit({
                        "grid": GRID_B_AXES,
                        "store": str(store_b),
                        "backend": "batched",
                    })
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit_a),
                threading.Thread(target=submit_b),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            final_a = d.client.wait(submitted["a"]["id"], timeout=120)
            final_b = d.client.wait(submitted["b"]["id"], timeout=120)
            assert final_a["state"] == "done", final_a
            assert final_b["state"] == "done", final_b
            summary_a = d.client.results_text(submitted["a"]["id"])
            summary_b = d.client.results_text(submitted["b"]["id"])
        assert _journal_lines(store_a) == _journal_lines(solo_a_store)
        assert _journal_lines(store_b) == _journal_lines(solo_b_store)
        assert summary_a == solo_a_summary.read_text(encoding="utf-8")
        assert summary_b == solo_b_summary.read_text(encoding="utf-8")

    def test_submission_validation(self, tmp_path):
        from repro.engine.service import ServiceError

        with daemon(tmp_path) as d:
            with pytest.raises(ServiceError) as excinfo:
                d.client.submit({"store": str(tmp_path / "x.jsonl")})
            assert excinfo.value.code == 400
            with pytest.raises(ServiceError) as excinfo:
                d.client.submit({
                    "family": "no-such-family",
                    "store": str(tmp_path / "x.jsonl"),
                })
            assert excinfo.value.code == 400
            with pytest.raises(ServiceError) as excinfo:
                d.client.job("c9999")
            assert excinfo.value.code == 404


class TestServedRobustness:
    def test_worker_kill_reconverges_to_fault_free_bytes(self, tmp_path):
        """A seeded worker kill during a served campaign: the bounded-
        retry path (the killer's unit re-run as singletons on a
        replacement process) reconverges to the fault-free journal
        bytes."""
        specs = [s for s in HETERO_GRID if s.noise in (0.0, 0.5)][:12]
        ids = [s.scenario_id for s in specs]
        fault_seed = next(
            seed for seed in range(500)
            if 1 <= len(
                FaultPlan.from_seed(seed, kill=0.25).victims("kill", ids)
            ) <= 3
        )
        clean_store, clean_summary, _ = _solo_run(
            tmp_path, "clean", specs, "batched"
        )
        ledger = tmp_path / "faults.ledger"
        with daemon(
            tmp_path, jobs=2,
            extra_args=(
                "--faults", f"seed={fault_seed},kill=0.25,ledger={ledger}",
            ),
        ) as d:
            served_store = tmp_path / "faulted.jsonl"
            job = _submit_specs(
                d.client, specs, served_store, "batched", max_retries=2
            )
            final = d.client.wait(job["id"], timeout=150)
            assert final["state"] == "done", final
            served_summary = d.client.results_text(job["id"])
        # The fault actually fired (once-only ledger is non-empty) …
        assert ledger.exists() and ledger.read_text().strip()
        # … and the served campaign still reconverged to clean bytes.
        assert _journal_lines(served_store) == _journal_lines(clean_store)
        assert served_summary == clean_summary.read_text(encoding="utf-8")

    def test_sigterm_mid_campaign_is_resumable_by_resubmit(self, tmp_path):
        """SIGTERM mid-campaign exits 0 with a loadable journal; a later
        submit of the same grid resumes by hash and completes."""
        grid = {"axes": {"n": [16], "k": [2], "seed": list(range(240)),
                         "noise": [0.1]}}
        specs = ScenarioGrid.from_dict(grid).expand()
        store = tmp_path / "interrupted.jsonl"
        with daemon(tmp_path, jobs=2) as d:
            job = d.client.submit({
                "grid": grid, "store": str(store), "backend": "reference",
            })
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if store.exists() and store.stat().st_size > 0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign journaled nothing within 60s")
            doc = d.client.job(job["id"])
            assert doc["state"] in ("queued", "running", "done")
            rc = d.stop()
        assert rc == 0, d.stderr
        assert "interrupt" in (d.stderr or "")
        # Journal survived and parses cleanly.
        loaded = ResultStore(str(store)).load()
        assert 1 <= len(loaded)
        done_before = len(loaded)
        if done_before == len(specs):  # pragma: no cover — lost the race
            pytest.skip("campaign finished before SIGTERM landed")
        # A fresh daemon resumes the same grid by hash.
        with daemon(tmp_path / "second", jobs=2) as d2:
            job2 = d2.client.submit({
                "grid": grid, "store": str(store), "backend": "batched",
            })
            final = d2.client.wait(job2["id"], timeout=150)
            assert final["state"] == "done", final
            assert final["report"]["skipped"] >= done_before
            assert final["status"]["state"] == "ok"
            assert final["status"]["total"] == len(specs)


class TestShutdownRace:
    def test_stop_journals_nothing_after_shutdown(self, tmp_path):
        """``shutdown(drain=False)`` sets the stop flag and then kills
        the pool; units it breaks mid-run must not be journaled as
        errors or timeouts.  Called from inside ``on_result``, as a
        SIGTERM lands between two journal appends."""
        from repro.engine.executor import ExecutionStopped
        from repro.engine.service import CampaignService

        grid = ScenarioGrid(n=[16], k=[2], seed=range(240), noise=[0.1])
        store = tmp_path / "stopped.jsonl"
        service = CampaignService(jobs=2, slots=1)
        seen = []

        def on_result(result):
            seen.append(result)
            if len(seen) == 1:
                service.shutdown(drain=False)

        campaign = Campaign(grid, store=str(store), jobs=2)
        with pytest.raises(ExecutionStopped):
            campaign.run(
                pool=service.pool, should_stop=service._stop.is_set,
                on_result=on_result,
            )
        assert seen and all(result.ok for result in seen)
        journaled = ResultStore(str(store)).load()
        assert all(result.ok for result in journaled.values())
        # A resume re-runs every other scenario.
        resumed = Campaign(grid, store=str(store), backend="batched")
        report = resumed.run()
        assert report.skipped == len(journaled)
        assert report.executed == len(resumed.specs) - len(journaled)
        assert resumed.status().succeeded


class TestConnectExitCodes:
    """`campaign status/report --connect URL` translate daemon states to
    the existing 0/1/2 exit-code contract (the satellite small fix)."""

    def _cli(self, *argv: str, env_extra: dict | None = None):
        return subprocess.run(
            [sys.executable, "-m", "repro", "campaign", *argv],
            env=repro_env(env_extra),
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_status_and_report_translate_daemon_states(self, tmp_path):
        store = tmp_path / "served.jsonl"
        with daemon(tmp_path) as d:
            job = d.client.submit({
                "grid": {"axes": {"n": [5], "k": [1], "seed": [0, 1],
                                  "noise": [0.0]}},
                "store": str(store),
            })
            final = d.client.wait(job["id"], timeout=60)
            assert final["state"] == "done"

            status = self._cli(
                "status", "--connect", d.url, "--store", str(store)
            )
            assert status.returncode == 0, status.stderr
            assert "state: ok" in status.stdout

            report = self._cli(
                "report", "--connect", d.url, "--store", str(store)
            )
            assert report.returncode == 0, report.stderr
            assert "campaign report" in report.stdout

            # A store the daemon never saw falls back to local
            # reconciliation (default grid vs empty store → incomplete).
            unknown = self._cli(
                "status", "--connect", d.url,
                "--store", str(tmp_path / "never-submitted.jsonl"),
            )
            assert unknown.returncode == 1
            assert "reconciling locally" in unknown.stderr
            assert "incomplete" in unknown.stdout

    def test_run_connect_submits_and_falls_back(self, tmp_path):
        store = tmp_path / "via-cli.jsonl"
        with daemon(tmp_path) as d:
            run = self._cli(
                "run", "--connect", d.url, "--store", str(store),
                "-n", "5", "-k", "1", "--seeds", "2", "--noise", "0.0",
                "--no-progress",
            )
            assert run.returncode == 0, run.stderr
            assert "submitted campaign" in run.stderr
            assert "state: ok" in run.stdout
            assert store.exists()
        # Unreachable daemon: transparent in-process fallback, same
        # exit-code contract.
        fallback = self._cli(
            "run", "--connect", "http://127.0.0.1:9",
            "--store", str(tmp_path / "fallback.jsonl"),
            "-n", "5", "-k", "1", "--seeds", "1", "--noise", "0.0",
            "--no-progress",
        )
        assert fallback.returncode == 0, fallback.stderr
        assert "running in-process" in fallback.stderr
        assert "state: ok" in fallback.stdout


class TestHarness:
    def test_harness_tears_down_on_test_failure(self, tmp_path):
        """The context manager guarantees teardown even when the test
        body raises — a failing assertion can't leak a daemon."""
        leaked = None
        with pytest.raises(RuntimeError, match="boom"):
            with daemon(tmp_path) as d:
                leaked = d.proc
                assert d.client.health()["ok"]
                raise RuntimeError("boom")
        assert leaked is not None
        assert leaked.poll() is not None  # subprocess is gone
        assert leaked.returncode == 0  # and it exited cleanly (SIGTERM)

    def test_env_override_reaches_daemon(self, tmp_path):
        """REPRO-style env plumbing: env_extra lands in the daemon
        process (used by the fault drills)."""
        with daemon(
            tmp_path, env_extra={"COLUMNS": "123"}
        ) as d:
            assert d.client.health()["ok"]


@pytest.mark.daemon
class TestPoolAndRemoteMetrics:
    """/metrics exposes a top-level pool/worker section: local pool
    size and generation, plus remote-fleet endpoint liveness."""

    def test_metrics_has_pool_section(self, tmp_path):
        with daemon(tmp_path, jobs=2, slots=2) as d:
            doc = d.client.metrics()
            assert doc["pool"] == {
                "workers": 2, "generation": 0, "slots": 2,
            }
            assert "remote" not in doc  # no fleet configured

    def test_remote_section_probes_configured_fleet(self, tmp_path):
        # Port 1 is never listening: the probe must report the endpoint
        # as configured-but-dead rather than omitting or hanging.
        with daemon(
            tmp_path, extra_args=("--workers", "127.0.0.1:1")
        ) as d:
            doc = d.client.metrics()
            (probe,) = doc["remote"]["endpoints"]
            assert probe["endpoint"] == "127.0.0.1:1"
            assert probe["alive"] is False

    def test_in_process_remote_section_merges_job_fleets(self):
        from repro.engine.service import CampaignService

        service = CampaignService(jobs=1, workers=["127.0.0.1:1"])
        doc = service.metrics_document()
        assert doc["pool"]["workers"] == 1
        endpoints = [e["endpoint"] for e in doc["remote"]["endpoints"]]
        assert endpoints == ["127.0.0.1:1"]
        # Accept endpoints cannot be dial-probed: liveness is None.
        service.workers = ["listen:127.0.0.1:9999"]
        probe = service.metrics_document()["remote"]["endpoints"][0]
        assert probe["alive"] is None
