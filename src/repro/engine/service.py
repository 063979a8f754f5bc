"""The campaign service: an always-on daemon with a local job API.

Every campaign used to be a one-shot CLI invocation that re-paid pool
spin-up, plan construction, and store open on each run.  This module
turns the engine into a long-running service (``campaign serve``) that
owns one persistent :class:`~repro.engine.executor.WorkerPool` and a
warm scheduler, and accepts campaign submissions over a local HTTP/JSON
API (stdlib ``http.server`` — no new dependencies):

``POST /campaigns``
    Submit a campaign (a registered ``family`` + params, a grid-axes
    dict, or an explicit spec list) → ``{"id": "c0001", ...}``.
``GET /campaigns``
    List jobs (``?store=PATH`` filters to one journal path).
``GET /campaigns/<id>``
    Status: ``queued`` / ``running`` / ``done`` / ``failed``, scenarios
    done/total and an ETA from the plan-derived
    :class:`~repro.engine.scheduler.ProgressReporter`, and the final
    store-vs-grid reconciliation once terminal.
``GET /campaigns/<id>/results``
    ``?view=summary`` (default) streams the canonical grid-ordered
    summary JSONL — byte-identical to ``Campaign.write_summary``;
    ``?view=table`` / ``?view=aggregate`` render the report tables.
``GET /healthz`` and ``GET /metrics``
    Liveness, and the per-campaign telemetry sidecars namespaced by
    campaign id.

A FIFO queue feeds ``--slots`` runner threads, so concurrent campaigns
multiplex across the shared pool at
:class:`~repro.engine.scheduler.PlannedBatch` granularity — each
campaign journals to its *own* store, and journal/summary bytes are
byte-identical to a one-shot ``campaign run`` of the same grid (the
core acceptance test of the daemon).

Shutdown: SIGTERM/SIGINT interrupts running campaigns via the
executor's ``should_stop`` seam (journals stay durable and resumable by
hash), closes the pool, flushes sidecars, and exits 0.
``--shutdown-after S`` instead *drains*: new submissions get 503, the
queue finishes, then the same clean exit.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.engine.campaign import Campaign, CampaignReport, CampaignStatus
from repro.engine.executor import ExecutionStopped, WorkerPool
from repro.engine.scenarios import ScenarioGrid, ScenarioSpec

SERVICE_SCHEMA = 1

#: Environment variable naming a running daemon's base URL; when set,
#: ``campaign run`` transparently becomes a thin client.
DAEMON_ENV = "REPRO_DAEMON"

_TERMINAL_STATES = ("done", "failed")


class SubmissionError(ValueError):
    """A campaign submission that cannot be turned into a Campaign."""


class _Discard:
    """A write-only sink for the reporter's human progress lines (the
    daemon serves progress as JSON snapshots instead)."""

    def write(self, _text: str) -> int:
        return 0

    def flush(self) -> None:  # pragma: no cover — stream protocol
        pass


def campaign_from_submission(
    payload: Mapping[str, Any], store: str, jobs: int
) -> Campaign:
    """Build a :class:`Campaign` from one POST body.

    Exactly one scenario source must be present: ``family`` (+ optional
    ``params``), ``grid`` (a :meth:`ScenarioGrid.to_dict` axes dict),
    or ``specs`` (explicit spec dicts — what a client sends for a
    hand-built spec list).  Engine knobs (``backend``, ``batch_memory``
    in bytes, ``pack_widths``, ``timeout``, ``max_retries``, ``label``)
    mirror the ``campaign run`` flags so a served campaign
    journals byte-identically to the equivalent one-shot run.
    """
    sources = [k for k in ("family", "grid", "specs") if payload.get(k)]
    if len(sources) != 1:
        raise SubmissionError(
            "submission needs exactly one of 'family', 'grid' or 'specs' "
            f"(got {sources or 'none'})"
        )
    timeout = payload.get("timeout")
    batch_memory = payload.get("batch_memory")
    knobs = dict(
        store=store,
        jobs=jobs,
        timeout=float(timeout) if timeout is not None else None,
        batch_memory=int(batch_memory) if batch_memory is not None else None,
        pack_widths=bool(payload.get("pack_widths", False)),
        max_retries=int(payload.get("max_retries", 0) or 0),
    )
    if payload.get("family"):
        from repro.engine.registry import family_campaign

        try:
            return family_campaign(
                str(payload["family"]),
                payload.get("params") or {},
                backend=payload.get("backend"),
                **knobs,
            )
        except (KeyError, ValueError) as exc:
            msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            raise SubmissionError(str(msg)) from exc
    try:
        if payload.get("grid"):
            scenarios: Any = ScenarioGrid.from_dict(payload["grid"])
        else:
            scenarios = [
                ScenarioSpec.from_dict(d) for d in payload["specs"]
            ]
        return Campaign(
            scenarios,
            backend=payload.get("backend") or "reference",
            label=str(payload.get("label") or "grid"),
            **knobs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SubmissionError(f"bad scenario source: {exc}") from exc


def _status_dict(status: CampaignStatus) -> dict:
    return {
        "total": status.total,
        "ok": status.ok,
        "errors": status.errors,
        "timeouts": status.timeouts,
        "missing": status.missing,
        "state": status.state(),
        "exit_code": status.exit_code(),
        "describe": status.describe(),
    }


def _report_dict(report: CampaignReport) -> dict:
    return {
        "total": report.total,
        "executed": report.executed,
        "skipped": report.skipped,
        "ok": report.ok,
        "errors": report.errors,
        "timeouts": report.timeouts,
    }


class CampaignJob:
    """One submitted campaign: queue entry, live progress, and outcome."""

    def __init__(
        self, job_id: str, campaign: Campaign, payload: Mapping[str, Any]
    ) -> None:
        self.id = job_id
        self.campaign = campaign
        self.store = str(campaign.store.path) if campaign.store.path else ""
        self.label = campaign.label or "grid"
        self.resume = bool(payload.get("resume", True))
        self.state = "queued"
        self.error: str | None = None
        self.report: CampaignReport | None = None
        self.status: CampaignStatus | None = None
        self.reporter = None  # plan-derived ProgressReporter once running
        self.recorder = None  # per-campaign telemetry Recorder
        self.workers: list[str] | None = None  # remote fleet, if any
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "id": self.id,
            "label": self.label,
            "state": self.state,
            "store": self.store,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.report is not None:
            doc["report"] = _report_dict(self.report)
        if self.status is not None:
            doc["status"] = _status_dict(self.status)
        reporter = self.reporter
        if self.state == "running" and reporter is not None:
            doc["progress"] = reporter.snapshot()
        return doc


class CampaignService:
    """The daemon core: a FIFO job queue over one shared worker pool.

    ``slots`` runner threads pull jobs off the queue; each runs its
    campaign through the shared :class:`WorkerPool` (``jobs`` worker
    processes), so up to ``slots`` campaigns interleave their planned
    batches across the pool at any moment.  Per-campaign state —
    journal store, telemetry recorder, progress reporter — stays fully
    isolated; only executor capacity is shared.
    """

    def __init__(
        self,
        jobs: int = 2,
        slots: int = 2,
        spool: str | os.PathLike | None = None,
        metrics: bool = True,
        workers: list | None = None,
    ) -> None:
        self.pool = WorkerPool(jobs)
        self.slots = max(1, slots)
        self.spool = os.fspath(spool) if spool is not None else None
        self.metrics = metrics
        # Default remote worker fleet (``campaign serve --workers``):
        # served campaigns fan out to these endpoints instead of the
        # local pool; a submission's own "workers" list overrides.
        self.workers = [str(w) for w in workers] if workers else None
        self.started_at = time.time()
        self.accepting = True
        self._queue: "queue.Queue[CampaignJob | None]" = queue.Queue()
        self._jobs: dict[str, CampaignJob] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._seq = 0

    # -- lifecycle ----------------------------------------------------
    def start(self) -> None:
        for i in range(self.slots):
            thread = threading.Thread(
                target=self._slot_loop, name=f"campaign-slot-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, drain: bool = False) -> None:
        """Stop the service.

        ``drain=True`` finishes every queued job first (new submissions
        are already refused by the time this is called);
        ``drain=False`` interrupts running campaigns via ``should_stop``
        and terminates the pool — journals stay durable, interrupted
        campaigns resume by hash on resubmission.
        """
        self.accepting = False
        if not drain:
            self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        if not drain:
            # Kill live workers so interrupted campaigns unwind fast.
            self.pool.close(terminate=True)
        for thread in self._threads:
            thread.join()
        if drain:
            self.pool.close()
        self._flush_sidecars()

    def idle(self) -> bool:
        """No queued or running job (the drain-mode exit condition)."""
        with self._lock:
            return all(
                job.state in _TERMINAL_STATES for job in self._jobs.values()
            )

    def _flush_sidecars(self) -> None:
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            self._write_sidecar(job)

    def _write_sidecar(self, job: CampaignJob) -> None:
        if job.recorder is not None and job.store:
            try:
                job.recorder.write_sidecar(
                    f"{job.store}.metrics.json", label=job.label
                )
            except OSError:  # pragma: no cover — sidecar is advisory
                pass

    # -- submission ---------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> CampaignJob:
        """Validate one POST body, build its Campaign, and enqueue it."""
        if not self.accepting:
            raise RuntimeError("service is shutting down")
        with self._lock:
            self._seq += 1
            job_id = f"c{self._seq:04d}"
        store = payload.get("store")
        if store:
            store = os.path.abspath(os.fspath(store))
        elif self.spool:
            store = os.path.join(self.spool, f"{job_id}.jsonl")
        else:
            raise SubmissionError(
                "submission needs a 'store' path (service has no spool dir)"
            )
        if payload.get("contracts"):
            # Arm the runtime contract layer process-wide.  Workers
            # forked before this point only get the parent-side checks;
            # boot the daemon with --contracts for full worker coverage.
            from repro.engine import contracts

            contracts.activate()
        campaign = campaign_from_submission(payload, store, self.pool.workers)
        job = CampaignJob(job_id, campaign, payload)
        raw_workers = payload.get("workers", self.workers)
        if raw_workers:
            from repro.engine.remote import parse_workers

            try:
                parse_workers(raw_workers)
            except ValueError as exc:
                raise SubmissionError(str(exc)) from exc
            job.workers = [str(w) for w in raw_workers]
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
        self._queue.put(job)
        return job

    def job(self, job_id: str) -> CampaignJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, store: str | None = None) -> list[CampaignJob]:
        """Jobs in submission order; ``store`` filters to one journal."""
        with self._lock:
            found = [self._jobs[job_id] for job_id in self._order]
        if store:
            wanted = os.path.abspath(store)
            found = [job for job in found if job.store == wanted]
        return found

    # -- execution ----------------------------------------------------
    def _slot_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if self._stop.is_set():
                job.state = "failed"
                job.error = "interrupted: service shut down before start"
                job.finished_at = time.time()
                continue
            self._run_job(job)

    def _run_job(self, job: CampaignJob) -> None:
        from repro.engine.scheduler import ProgressReporter

        job.state = "running"
        job.started_at = time.time()
        if self.metrics:
            from repro.engine.telemetry import Recorder

            job.recorder = Recorder()

        def reporter_factory(total: int, plan) -> ProgressReporter:
            job.reporter = ProgressReporter(
                total=total, label=job.label, plan=plan, stream=_Discard()
            )
            return job.reporter

        try:
            job.report = job.campaign.run(
                jobs=self.pool.workers,
                resume=job.resume,
                recorder=job.recorder,
                # A remote fleet replaces the local pool for this job
                # (Campaign.run ignores pool when workers are set).
                pool=None if job.workers else self.pool,
                should_stop=self._stop.is_set,
                reporter_factory=reporter_factory,
                workers=job.workers,
            )
            job.campaign.refresh()
            job.status = job.campaign.status()
            # "done" mirrors the CLI's green-ness: complete with no
            # terminal failures (or vacuously empty, exit 2).
            job.state = (
                "done" if job.status.exit_code() in (0, 2) else "failed"
            )
            if job.state == "failed":
                job.error = job.status.describe()
        except ExecutionStopped as exc:
            job.state = "failed"
            job.error = f"interrupted: {exc}"
            self._final_status(job)
        except Exception as exc:  # noqa: BLE001 — one job, not the daemon
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self._final_status(job)
        finally:
            job.finished_at = time.time()
            self._write_sidecar(job)

    def _final_status(self, job: CampaignJob) -> None:
        try:
            job.campaign.refresh()
            job.status = job.campaign.status()
        except Exception:  # pragma: no cover — status is advisory here
            pass

    # -- introspection ------------------------------------------------
    def health(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "accepting": self.accepting,
            "uptime_s": round(time.time() - self.started_at, 3),
            "pool_workers": self.pool.workers,
            "pool_generation": self.pool.generation,
            "slots": self.slots,
            "campaigns": states,
        }

    def metrics_document(self) -> dict:
        """The ``/metrics`` body: per-campaign telemetry sidecars
        namespaced by campaign id, plus service-level gauges and a
        top-level pool/worker section — local pool size and generation
        plus remote-fleet endpoint liveness and the latest observed
        per-worker utilization — so fleet health is observable from one
        endpoint."""
        doc: dict = {"schema": SERVICE_SCHEMA, "service": self.health()}
        doc["pool"] = {
            "workers": self.pool.workers,
            "generation": self.pool.generation,
            "slots": self.slots,
        }
        remote = self._remote_section()
        if remote is not None:
            doc["remote"] = remote
        campaigns = {}
        for job in self.jobs():
            entry: dict = {"label": job.label, "state": job.state}
            if job.workers:
                entry["workers"] = list(job.workers)
            if job.recorder is not None:
                entry["metrics"] = job.recorder.to_sidecar(label=job.label)
            campaigns[job.id] = entry
        doc["campaigns"] = campaigns
        return doc

    def _remote_section(self) -> dict | None:
        """Remote-fleet health: configured endpoints probed live, plus
        the most recent finished job's per-worker utilization info (the
        ``remote.workers`` recorder info, if any job ran remotely)."""
        endpoints: list[str] = list(self.workers or [])
        jobs = self.jobs()
        for job in jobs:
            for endpoint in job.workers or []:
                if endpoint not in endpoints:
                    endpoints.append(endpoint)
        if not endpoints:
            return None
        from repro.engine.remote import probe_worker

        section: dict = {
            "endpoints": [probe_worker(endpoint) for endpoint in endpoints]
        }
        for job in reversed(jobs):
            if job.recorder is None or not job.workers:
                continue
            info = (
                job.recorder.snapshot().get("volatile", {}).get("info", {})
            )
            utilization = info.get("remote.workers")
            if utilization:
                section["utilization"] = {
                    "job": job.id,
                    "workers": utilization,
                }
                break
        return section

    def results_text(self, job: CampaignJob, view: str = "summary") -> str:
        """Render one campaign's results (the ``/results`` endpoint).

        ``summary`` streams exactly the canonical grid-ordered JSONL
        that :meth:`Campaign.write_summary` writes — served bytes are
        comparable with a one-shot run's summary file byte-for-byte.
        """
        campaign = job.campaign
        campaign.refresh()
        if view == "summary":
            lines = campaign.store.summary_lines(campaign.specs)
            return "".join(line + "\n" for line in lines)
        if view == "table":
            return campaign.report_table() + "\n"
        if view == "aggregate":
            from repro.engine.aggregate import latency_table

            ok_results = [r for r in campaign.completed_results() if r.ok]
            table = None
            if job.label not in (None, "grid"):
                from repro.engine.registry import get_family

                try:
                    family = get_family(job.label)
                except KeyError:
                    family = None
                if family is not None and family.aggregate is not None:
                    table = family.aggregate(ok_results)
            if table is None:
                table = latency_table(ok_results)
            return table.format(
                title=f"campaign aggregate ({len(ok_results)} scenarios)"
            ) + "\n"
        raise SubmissionError(
            f"unknown results view {view!r} (summary, table, aggregate)"
        )


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: CampaignService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer

    # -- plumbing -----------------------------------------------------
    def log_message(self, *_args) -> None:  # silence per-request stderr
        pass

    def _send_json(self, code: int, doc: dict) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    @property
    def service(self) -> CampaignService:
        return self.server.service

    # -- routes -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path, _, query = self.path.partition("?")
        params = {
            key: values[0]
            for key, values in urllib.parse.parse_qs(query).items()
        }
        try:
            if path == "/healthz":
                self._send_json(200, self.service.health())
            elif path == "/metrics":
                self._send_json(200, self.service.metrics_document())
            elif path == "/campaigns":
                jobs = self.service.jobs(store=params.get("store") or None)
                self._send_json(
                    200, {"campaigns": [job.to_dict() for job in jobs]}
                )
            elif path.startswith("/campaigns/"):
                parts = path.strip("/").split("/")
                job = self.service.job(parts[1])
                if job is None:
                    self._error(404, f"unknown campaign {parts[1]!r}")
                elif len(parts) == 2:
                    self._send_json(200, job.to_dict())
                elif len(parts) == 3 and parts[2] == "results":
                    view = params.get("view") or "summary"
                    self._send_text(
                        200, self.service.results_text(job, view)
                    )
                else:
                    self._error(404, f"unknown path {path!r}")
            else:
                self._error(404, f"unknown path {path!r}")
        except SubmissionError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 — one request, not the daemon
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.partition("?")[0]
        if path != "/campaigns":
            self._error(404, f"unknown path {path!r}")
            return
        if not self.service.accepting:
            self._error(503, "service is shutting down (draining)")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                raise SubmissionError("submission body must be a JSON object")
            job = self.service.submit(payload)
        except (SubmissionError, json.JSONDecodeError) as exc:
            self._error(400, str(exc))
        except RuntimeError as exc:
            self._error(503, str(exc))
        except Exception as exc:  # noqa: BLE001
            self._error(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send_json(
                201, {"id": job.id, "store": job.store, "state": job.state}
            )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """An HTTP error from the daemon, with its status code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServiceClient:
    """A tiny stdlib HTTP client for the daemon (CLI + test harness)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, body: dict | None = None):
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read()
                ctype = resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw).get("error", raw.decode("utf-8"))
            except (ValueError, AttributeError):
                message = raw.decode("utf-8", "replace")
            raise ServiceError(exc.code, message) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach daemon: {exc.reason}") from exc
        if ctype.startswith("application/json"):
            return json.loads(raw)
        return raw.decode("utf-8")

    # -- endpoints ----------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def submit(self, payload: dict) -> dict:
        return self._request("POST", "/campaigns", body=payload)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/campaigns/{job_id}")

    def jobs(self, store: str | None = None) -> list[dict]:
        path = "/campaigns"
        if store:
            path += "?store=" + urllib.parse.quote(
                os.path.abspath(store), safe=""
            )
        return self._request("GET", path)["campaigns"]

    def results_text(self, job_id: str, view: str = "summary") -> str:
        return self._request(
            "GET", f"/campaigns/{job_id}/results?view={view}"
        )

    def wait(
        self,
        job_id: str,
        poll: float = 0.2,
        timeout: float | None = None,
        on_progress=None,
    ) -> dict:
        """Poll until the job is terminal; returns its final document."""
        deadline = time.monotonic() + timeout if timeout else None
        while True:
            doc = self.job(job_id)
            if doc["state"] in _TERMINAL_STATES:
                return doc
            if on_progress is not None and doc.get("progress"):
                on_progress(doc)
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    0, f"campaign {job_id} still {doc['state']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll)


def daemon_url(explicit: str | None = None) -> str | None:
    """Resolve the daemon base URL: an explicit ``--connect`` value
    wins, else the ``REPRO_DAEMON`` environment variable."""
    return explicit or os.environ.get(DAEMON_ENV) or None


# ----------------------------------------------------------------------
# The serve loop (what `campaign serve` runs)
# ----------------------------------------------------------------------
def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 2,
    slots: int = 2,
    spool: str | os.PathLike | None = None,
    shutdown_after: float | None = None,
    port_file: str | os.PathLike | None = None,
    metrics: bool = True,
    stream=None,
    workers: list | None = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT (or ``shutdown_after``).

    Binds ``host:port`` (port 0 → ephemeral), announces the resolved
    URL on ``stream`` (default stderr) and optionally in ``port_file``
    (written atomically, so a watcher never reads a half line), then
    serves until told to stop.  Returns the process exit code: 0 for
    every clean shutdown path — an interrupt is *clean* because each
    journal is durable per-append and resumable by hash.
    """
    out = stream if stream is not None else sys.stderr
    service = CampaignService(
        jobs=jobs, slots=slots, spool=spool, metrics=metrics,
        workers=workers,
    )
    httpd = ServiceServer((host, port), service)
    actual_host, actual_port = httpd.server_address[:2]
    url = f"http://{actual_host}:{actual_port}"
    if port_file is not None:
        tmp = f"{os.fspath(port_file)}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(url + "\n")
        os.replace(tmp, port_file)
    print(f"campaign service listening on {url}", file=out, flush=True)

    exit_event = threading.Event()
    interrupted = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 — signal API
        interrupted.set()
        exit_event.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover — non-main thread (tests)
            pass

    service.start()
    http_thread = threading.Thread(
        target=httpd.serve_forever, name="campaign-http", daemon=True
    )
    http_thread.start()
    try:
        if shutdown_after is not None:
            # Drain mode: accept until the deadline, then refuse new
            # submissions and wait the queue dry.  The HTTP server keeps
            # answering status polls the whole time.  A signal during
            # the drain escalates to an interrupt.
            exit_event.wait(shutdown_after)
            if not interrupted.is_set():
                service.accepting = False
                print(
                    "shutdown-after reached: draining queue",
                    file=out, flush=True,
                )
                while not service.idle() and not interrupted.is_set():
                    exit_event.wait(0.1)
                    exit_event.clear()
        else:
            exit_event.wait()
        drain = shutdown_after is not None and not interrupted.is_set()
        print(
            "campaign service shutting down "
            + ("(drained)" if drain else "(interrupt: journals resumable)"),
            file=out, flush=True,
        )
        service.shutdown(drain=drain)
    finally:
        httpd.shutdown()
        http_thread.join()
        httpd.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
