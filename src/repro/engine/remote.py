"""Distributed batch execution: ship planned batches to remote workers.

A coordinator (:func:`execute_remote`) runs the same dispatch units as
the local pool — the scheduler's deterministic, self-contained
:class:`~repro.engine.scheduler.PlannedBatch` units plus chunks of plan
singles — on remote worker processes over a pluggable transport,
through the same :class:`~repro.engine.dispatch.Dispatcher`.  Its
journal bytes are identical to a single-host serial run regardless of
worker count, completion order, or mid-run worker loss.

Transport
---------
The default transport is stdlib TCP carrying JSON lines (one message
object per line).  Both connection directions are supported through the
same :class:`WorkerEndpoint` seam, so an ssh-spawned variant (spawn the
worker over ssh with ``--connect`` back to the coordinator) is a drop-in:

* ``host:port`` — a *dial* endpoint: the worker runs
  ``repro worker --listen host:port`` and the coordinator dials it.
* ``listen:port`` (or ``listen:host:port``) — an *accept* endpoint: the
  coordinator binds and the worker dials in with
  ``repro worker --connect host:port``.

Protocol (coordinator → worker): ``setup`` (shipped environment —
contracts and fault plan — and the metrics-collect flag), then
``unit`` messages (a whole planned batch, or an order-chunk for plan
singles and non-batched backends), then ``shutdown``.  Worker →
coordinator: ``hello`` on connect, then one ``result`` or ``error`` per
unit.  Results travel as journal *records* (the canonical encoded result
plus the producing backend — :func:`repro.engine.store.journal_record`),
so the wire carries exactly what the journal stores.

Determinism and failures
------------------------
The journal-byte contract holds by construction: the coordinator plans
with ``jobs`` = the fleet size, which only decides where groups are cut
into batches, never the item order; result records are a pure function
of the spec, so *where* a unit ran never changes its bytes; and the
dispatcher releases results in plan order whatever the completion
order.  Each link is one worker with one unit in flight, handled by the
dispatcher's failure policy (:mod:`repro.engine.dispatch`): a dropped
link charges only the unit it was running, which ends with retriable
``timeout`` records once its retries are spent (the network, not the
unit, may be to blame).  A worker can also keep its own spool of every
record it produced (``repro worker --spool``).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.engine.contracts import CONTRACTS_ENV, ContractViolation
from repro.engine.dispatch import Attempt, Dispatcher, Unit, plan_units
# Kept reachable as ``repro.engine.remote.absorb_shards``, its long-standing
# public name.
from repro.engine.dispatch import absorb_shards  # noqa: F401
from repro.engine.executor import ScenarioResult, _execute_unit
from repro.engine.faults import FAULTS_ENV
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import decode_result, journal_record

PROTOCOL = 1

#: Environment the coordinator ships to every worker at session setup so
#: hardening drills (contracts, fault plans) behave as if the worker
#: were a local pool process.  Keys absent on the coordinator are
#: *removed* on the worker, keeping sessions hermetic.
SHIPPED_ENV = (CONTRACTS_ENV, FAULTS_ENV)

#: Budget for establishing each worker link at startup (dial retries /
#: accept wait), and for the worker's hello after the socket opens.
CONNECT_TIMEOUT_S = 20.0


class RemoteWorkerError(RuntimeError):
    """A worker link could not be established or the fleet is unusable."""


# ----------------------------------------------------------------------
# Endpoints — the pluggable transport seam.
# ----------------------------------------------------------------------


@dataclass
class WorkerEndpoint:
    """One remote worker address, in either connection direction.

    ``kind == "dial"``: the coordinator dials a listening worker.
    ``kind == "accept"``: the coordinator binds ``host:port`` and waits
    for a worker to dial in (``repro worker --connect``) — the seam an
    ssh-spawned transport plugs into.  :meth:`prepare` binds accept
    endpoints eagerly (resolving port ``0``), so callers can learn the
    bound port before spawning the worker.
    """

    kind: str
    host: str
    port: int
    _server: socket.socket | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def spec(self) -> str:
        if self.kind == "accept":
            return f"listen:{self.host}:{self.port}"
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, spec: str) -> "WorkerEndpoint":
        text = str(spec).strip()
        if not text:
            raise ValueError("empty worker endpoint")
        kind = "dial"
        if text.startswith("listen:"):
            kind = "accept"
            text = text[len("listen:"):]
        host, sep, port_text = text.rpartition(":")
        if not sep:
            host, port_text = "", text
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"invalid worker endpoint {spec!r}: port must be an "
                "integer (expected host:port or listen:[host:]port)"
            ) from None
        if not (0 <= port <= 65535):
            raise ValueError(f"invalid worker endpoint {spec!r}: bad port")
        return cls(kind=kind, host=host, port=port)

    def prepare(self) -> None:
        """Bind an accept endpoint (no-op for dial endpoints)."""
        if self.kind != "accept" or self._server is not None:
            return
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(4)
        self.port = server.getsockname()[1]
        self._server = server

    def establish(self, timeout: float = CONNECT_TIMEOUT_S) -> socket.socket:
        """Open the worker connection (dial with retry, or accept)."""
        deadline = time.monotonic() + timeout
        if self.kind == "accept":
            self.prepare()
            self._server.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                sock, _addr = self._server.accept()
            except (socket.timeout, OSError) as exc:
                raise RemoteWorkerError(
                    f"no worker dialed in to {self.spec} within {timeout:.0f}s"
                ) from exc
            return sock
        delay = 0.05
        while True:
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=timeout
                )
            except OSError as exc:
                if time.monotonic() + delay > deadline:
                    raise RemoteWorkerError(
                        f"cannot reach worker {self.spec}: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(0.5, delay * 2)

    def close(self) -> None:
        if self._server is not None:
            try:
                self._server.close()
            finally:
                self._server = None


def parse_workers(
    workers: str | Iterable[str | WorkerEndpoint],
) -> list[WorkerEndpoint]:
    """Parse a ``--workers`` value into endpoints.

    Accepts a comma-separated string (the CLI shape), an iterable of
    endpoint specs, or ready :class:`WorkerEndpoint` objects (passed
    through, so tests can hand over pre-bound accept endpoints).
    """
    if workers is None:
        return []
    if isinstance(workers, str):
        parts: Iterable = [p for p in workers.split(",") if p.strip()]
    else:
        parts = workers
    endpoints = []
    for part in parts:
        if isinstance(part, WorkerEndpoint):
            endpoints.append(part)
        else:
            endpoints.append(WorkerEndpoint.parse(part))
    return endpoints


def probe_worker(
    endpoint: str | WorkerEndpoint, timeout: float = 0.5
) -> dict:
    """Liveness-probe one dial endpoint (the daemon ``/metrics`` hook).

    Connects, reads the worker's hello and disconnects — the worker's
    accept loop treats the abandoned session as a finished coordinator
    and keeps serving.  Accept endpoints cannot be probed (the worker
    dials *us*), so they report ``alive: None``.
    """
    ep = (
        endpoint
        if isinstance(endpoint, WorkerEndpoint)
        else WorkerEndpoint.parse(endpoint)
    )
    info: dict[str, Any] = {"endpoint": ep.spec, "alive": None}
    if ep.kind != "dial":
        return info
    try:
        with socket.create_connection((ep.host, ep.port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            line = sock.makefile("r", encoding="utf-8").readline()
        hello = json.loads(line)
        info.update(
            alive=True,
            pid=hello.get("pid"),
            host=hello.get("host"),
            protocol=hello.get("protocol"),
        )
    except (OSError, ValueError) as exc:
        info.update(alive=False, error=f"{type(exc).__name__}: {exc}")
    return info


# ----------------------------------------------------------------------
# Wire helpers.
# ----------------------------------------------------------------------


def _send(wfile, msg: dict) -> None:
    wfile.write(json.dumps(msg, separators=(",", ":")) + "\n")
    wfile.flush()


def _decode_items(raw: Sequence) -> list[tuple[int, ScenarioSpec]]:
    return [(int(idx), ScenarioSpec.from_dict(data)) for idx, data in raw]


def _encode_items(items: Sequence) -> list:
    return [[idx, spec.to_dict()] for idx, spec in items]


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------


def _run_unit(msg: dict, collect: bool) -> dict:
    """Execute one unit message; build the reply (never raises for
    scenario/unit failures — only :class:`ContractViolation` style
    aborts surface as fatal ``error`` replies)."""
    unit_id = msg.get("id")
    try:
        items = _decode_items(msg["items"])
        batch = None
        if msg.get("kind") == "batch":
            from repro.engine.scheduler import PlannedBatch

            batch = PlannedBatch(
                n=int(msg["n"]),
                bucket=int(msg["bucket"]),
                width=int(msg["width"]),
                items=tuple(items),
            )
        pairs, meta = _execute_unit(
            Unit(msg.get("kind", "chunk"), items, batch, unit_id),
            msg.get("backend", "batched"),
            collect,
        )
    except ContractViolation as exc:
        return {
            "type": "error",
            "id": unit_id,
            "kind": "contract",
            "error": str(exc),
            "contract": exc.contract,
            "detail": exc.detail,
            "repro": exc.repro,
        }
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 — unit isolation
        return {
            "type": "error",
            "id": unit_id,
            "kind": type(exc).__name__,
            "error": str(exc),
        }
    reply = {
        "type": "result",
        "id": unit_id,
        "pid": os.getpid(),
        "records": [[idx, journal_record(result)] for idx, result in pairs],
    }
    if meta is not None:
        reply["busy_s"] = meta["busy_s"]
        reply["snapshot"] = meta["snapshot"]
    return reply


def _apply_setup(msg: dict) -> bool:
    """Apply a setup message's shipped environment; return the collect
    flag.  Keys the coordinator did not ship are removed so repeated
    sessions against one long-lived worker stay hermetic."""
    env = msg.get("env") or {}
    for key in SHIPPED_ENV:
        if key in env:
            os.environ[key] = str(env[key])
        else:
            os.environ.pop(key, None)
    # Contracts memoize per process; re-resolve so a long-lived worker
    # honors each coordinator session's hardening choice.
    from repro.engine import contracts as _contracts

    if _contracts.enabled():
        _contracts.activate()
    else:
        _contracts.deactivate()
    return bool(msg.get("collect"))


def _serve_session(sock: socket.socket, spool: Path | None, log) -> None:
    """One coordinator session: hello, then serve units until shutdown
    or EOF.  The per-session spool file (when configured) receives every
    record this worker produced — its local journal shard."""
    rfile = sock.makefile("r", encoding="utf-8")
    wfile = sock.makefile("w", encoding="utf-8")
    collect = False
    spool_fh = None
    try:
        _send(
            wfile,
            {
                "type": "hello",
                "protocol": PROTOCOL,
                "pid": os.getpid(),
                "host": platform.node(),
            },
        )
        for line in rfile:
            line = line.strip()
            if not line:
                continue
            msg = json.loads(line)
            kind = msg.get("type")
            if kind == "setup":
                collect = _apply_setup(msg)
            elif kind == "unit":
                reply = _run_unit(msg, collect)
                if spool is not None and reply.get("type") == "result":
                    if spool_fh is None:
                        spool.parent.mkdir(parents=True, exist_ok=True)
                        spool_fh = spool.open("a", encoding="utf-8")
                    for _idx, record in reply["records"]:
                        spool_fh.write(
                            json.dumps(
                                record, sort_keys=True, separators=(",", ":")
                            )
                            + "\n"
                        )
                    spool_fh.flush()
                _send(wfile, reply)
            elif kind == "shutdown":
                break
    finally:
        if spool_fh is not None:
            spool_fh.close()
        for fh in (rfile, wfile):
            try:
                fh.close()
            except OSError:
                pass


def worker_serve(
    listen: str | None = None,
    connect: str | None = None,
    spool: str | os.PathLike | None = None,
    port_file: str | os.PathLike | None = None,
    stream=None,
    connect_timeout: float = CONNECT_TIMEOUT_S,
) -> int:
    """The ``repro worker`` entrypoint.

    ``listen="host:port"`` binds and serves coordinator sessions until
    SIGTERM/SIGINT (port ``0`` picks a free port; ``port_file`` receives
    the bound ``host:port``, written atomically — the same handshake the
    daemon harness uses).  ``connect="host:port"`` dials a coordinator's
    accept endpoint (with retry while the coordinator binds) and serves
    exactly one session.  Returns a process exit code.
    """
    import signal
    import sys

    log = stream if stream is not None else sys.stderr

    def _say(text: str) -> None:
        try:
            log.write(f"worker: {text}\n")
            log.flush()
        except (OSError, ValueError):
            pass

    spool_path = Path(spool) if spool is not None else None
    if (listen is None) == (connect is None):
        _say("exactly one of --listen / --connect is required")
        return 2

    if connect is not None:
        ep = WorkerEndpoint.parse(connect)
        try:
            sock = WorkerEndpoint(
                kind="dial", host=ep.host, port=ep.port
            ).establish(connect_timeout)
        except RemoteWorkerError as exc:
            _say(str(exc))
            return 1
        _say(f"connected to coordinator {ep.host}:{ep.port}")
        with sock:
            _serve_session(sock, spool_path, log)
        return 0

    ep = WorkerEndpoint.parse(listen)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((ep.host, ep.port))
    server.listen(4)
    bound = f"{ep.host}:{server.getsockname()[1]}"
    if port_file is not None:
        target = Path(port_file)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(bound + "\n", encoding="utf-8")
        tmp.replace(target)
    _say(f"listening on {bound} (pid {os.getpid()})")

    stopping = threading.Event()

    def _terminate(signum, frame):  # noqa: ARG001 — signal API
        stopping.set()
        raise SystemExit(0)

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _terminate)
        except (ValueError, OSError):  # non-main thread (tests)
            pass
    server.settimeout(0.5)
    try:
        while not stopping.is_set():
            try:
                sock, addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            _say(f"session from {addr[0]}:{addr[1]}")
            try:
                with sock:
                    _serve_session(sock, spool_path, log)
            except (OSError, ValueError) as exc:
                _say(f"session ended: {type(exc).__name__}: {exc}")
    except SystemExit:
        pass
    finally:
        server.close()
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        _say("stopped")
    return 0


# ----------------------------------------------------------------------
# Coordinator.
# ----------------------------------------------------------------------


class _Link:
    """One live worker connection as a dispatch worker (see
    :mod:`repro.engine.dispatch`): one unit in flight at a time, so a
    slow worker never hoards, and a dropped connection names the unit
    it was running."""

    capacity = 1
    loss_is_terminal = False

    def __init__(self, endpoint: WorkerEndpoint, setup: dict, backend: str,
                 timeout: float) -> None:
        """Open the connection, read the worker's hello, send ``setup``
        and start the reader thread."""
        self.endpoint = endpoint
        self.backend = backend
        self.alive = True
        self.inflight: Attempt | None = None
        self.sock = endpoint.establish(timeout)
        self.rfile = self.sock.makefile("r", encoding="utf-8")
        self.wfile = self.sock.makefile("w", encoding="utf-8")
        try:
            hello = self._read_hello(timeout)
            self.send(setup)
        except (OSError, ValueError, RemoteWorkerError) as exc:
            self.close()
            raise RemoteWorkerError(
                f"handshake with worker {endpoint.spec} failed: {exc}"
            ) from exc
        self.pid = hello.get("pid")
        self.host = hello.get("host")
        threading.Thread(
            target=self._pump, name=f"remote-{endpoint.spec}", daemon=True
        ).start()

    def _read_hello(self, timeout: float) -> dict:
        self.sock.settimeout(timeout)
        try:
            line = self.rfile.readline()
        finally:
            self.sock.settimeout(None)
        if not line:
            raise RemoteWorkerError("closed before hello")
        hello = json.loads(line)
        if hello.get("type") != "hello":
            raise RemoteWorkerError(
                f"sent {hello.get('type')!r} instead of hello"
            )
        if hello.get("protocol") != PROTOCOL:
            raise RemoteWorkerError(
                f"speaks protocol {hello.get('protocol')!r}, coordinator "
                f"speaks {PROTOCOL}"
            )
        return hello

    def _pump(self) -> None:
        try:
            for line in self.rfile:
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                attempt = self.inflight
                if attempt is None or msg.get("id") != attempt.unit.id:
                    continue
                self.inflight = None
                attempt.report(*self._event(msg))
        except (OSError, ValueError):
            pass
        self.alive = False
        attempt, self.inflight = self.inflight, None
        if attempt is not None:
            attempt.report(
                "lost", (True, f"worker {self.endpoint.spec} connection lost")
            )

    def _event(self, msg: dict) -> tuple:
        """A worker reply as a dispatch event."""
        if msg.get("type") == "result":
            pairs = [
                (int(idx), decode_result(record))
                for idx, record in msg.get("records", [])
            ]
            meta = None
            if msg.get("snapshot"):
                meta = {
                    "pid": msg.get("pid"),
                    "busy_s": float(msg.get("busy_s") or 0.0),
                    "snapshot": msg["snapshot"],
                }
            return "done", (pairs, meta)
        if msg.get("kind") == "contract":
            return "fatal", ContractViolation(
                msg.get("contract", "remote"),
                msg.get("detail", msg.get("error", "remote violation")),
                dict(msg.get("repro") or {}, worker=self.endpoint.spec),
            )
        return "error", (msg.get("kind", "?"), msg.get("error", "?"))

    def send(self, msg: dict) -> None:
        _send(self.wfile, msg)

    def submit(self, attempt: Attempt) -> None:
        self.inflight = attempt
        try:
            self.send(_unit_msg(attempt.unit, self.backend))
        except (OSError, ValueError) as exc:
            self.inflight = None
            self.close()
            attempt.report("lost", (False, f"send failed: {exc}"))

    def cut(self, attempt: Attempt) -> bool:
        # The remote worker notices on its next send and re-enters its
        # accept loop.
        was_alive = self.alive
        self.close()
        return was_alive

    def pending(self) -> int:
        return 0 if self.inflight is None else 1

    def describe(self) -> dict:
        return {
            "endpoint": self.endpoint.spec,
            "pid": self.pid,
            "host": self.host,
        }

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def _unit_msg(unit: Unit, backend: str) -> dict:
    msg = {
        "type": "unit",
        "kind": unit.kind,
        "id": unit.id,
        "items": _encode_items(unit.items),
        "backend": backend,
    }
    if unit.batch is not None:
        msg.update(n=unit.batch.n, bucket=unit.batch.bucket,
                   width=unit.batch.width)
    return msg


def execute_remote(
    specs: Iterable[ScenarioSpec],
    workers: str | Iterable[str | WorkerEndpoint],
    *,
    timeout: float | None = None,
    on_result: Callable[[ScenarioResult], Any] | None = None,
    backend: str = "batched",
    batch_memory: int | None = None,
    plan=None,
    recorder=None,
    max_retries: int = 0,
    should_stop: Callable[[], bool] | None = None,
    shard_base: str | os.PathLike | None = None,
    chunksize: int | None = None,
    connect_timeout: float = CONNECT_TIMEOUT_S,
) -> list[ScenarioResult]:
    """Execute scenarios on a fleet of remote workers.

    The fleet face of :func:`~repro.engine.executor.execute_scenarios`:
    the same units (planned for ``jobs`` = the fleet size), dispatcher,
    failure policy and plan-order delivery to ``on_result``, so the
    journal is byte-identical to a serial single-host run.  Returns
    results in ``specs`` order.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    endpoints = parse_workers(workers)
    if not endpoints:
        raise ValueError("execute_remote needs at least one worker endpoint")
    units = plan_units(
        list(enumerate(spec_list)), backend, jobs=len(endpoints), plan=plan,
        batch_memory=batch_memory, chunksize=chunksize, recorder=recorder,
    )
    setup = {
        "type": "setup",
        "env": {k: os.environ[k] for k in SHIPPED_ENV if k in os.environ},
        "collect": bool(recorder),
    }
    links: list[_Link] = []
    try:
        for endpoint in endpoints:
            links.append(
                _Link(endpoint, setup, backend, connect_timeout)
            )
    except BaseException:
        for link in links:
            link.close()
        for endpoint in endpoints:
            endpoint.close()
        raise
    dispatcher = Dispatcher(
        units,
        links,
        backend=backend,
        telemetry="remote",
        on_result=on_result,
        recorder=recorder,
        max_retries=max_retries,
        timeout=timeout,
        should_stop=should_stop,
        shard_base=shard_base,
    )
    try:
        collected = dispatcher.run()
    finally:
        for link in links:
            if link.alive:
                try:
                    link.send({"type": "shutdown"})
                except (OSError, ValueError):
                    pass
                link.close()
        for endpoint in endpoints:
            endpoint.close()
    if recorder:
        # Det plane: every scenario's record is merged exactly once in a
        # clean run, whatever the fleet size.
        recorder.inc("remote.shard_records_merged", dispatcher.received)
    return [collected[i] for i in range(len(spec_list))]
