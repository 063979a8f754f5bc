"""Distributed batch execution: ship planned batches to remote workers.

A coordinator (:func:`execute_remote`) distributes the batch scheduler's
deterministic, self-contained :class:`~repro.engine.scheduler.PlannedBatch`
units to remote worker processes over a pluggable transport and merges
their result shards back into one journal whose bytes are identical to a
single-host serial run — regardless of worker count, completion order,
or mid-run worker loss.

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

Determinism
-----------
The journal-byte contract every prior speed PR preserved holds here by
construction:

* the coordinator plans with ``jobs`` = the fleet size, exactly as the
  pool plans with its worker count: the jobs count only decides where
  a group of batch-compatible scenarios is cut into batches, never the
  order of the scenarios across the plan, so the canonical journal
  order is the serial single-host order;
* result records are a pure function of the spec (backend provenance
  included), so *where* a unit ran never changes its bytes;
* a :class:`ShardMerger` holds completed results back until every
  earlier plan position has arrived, releasing them in plan order — the
  merged journal is byte-identical to the serial run whatever the
  completion order.

Fault tolerance generalizes the pool logic: a dead worker's in-flight
unit requeues with capped deterministic backoff
(:func:`~repro.engine.executor.retry_delay`), splitting to singleton
chunks on repeated failure; stragglers past the fleet deadline are cut
off and requeued; when the retry budget is exhausted the unit journals
retriable ``timeout`` records so a restarted campaign resumes by hash.
Workers also append every record to a per-worker shard file next to the
journal (``<journal>.shard-<id>.jsonl`` on the coordinator); a restarted
campaign folds orphaned shard records back into the journal first
(:func:`absorb_shards`), so work that completed before a coordinator
crash is never re-executed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import queue as queue_mod
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.engine.contracts import (
    CONTRACTS_ENV,
    ContractViolation,
    get as _get_contracts,
)
from repro.engine.executor import (
    ExecutionStopped,
    STATUS_TIMEOUT,
    ScenarioResult,
    _count_result,
    _execute_chunk,
    _execute_planned,
    _split_payload,
    default_chunksize,
    is_terminal,
    retry_delay,
)
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
    backend = msg.get("backend", "batched")
    try:
        if msg.get("kind") == "batch":
            from repro.engine.scheduler import PlannedBatch

            batch = PlannedBatch(
                n=int(msg["n"]),
                bucket=int(msg["bucket"]),
                width=int(msg["width"]),
                items=tuple(_decode_items(msg["items"])),
            )
            payload = _execute_planned(
                batch, backend, bool(msg.get("compact", True)), collect
            )
        else:
            chunk = _decode_items(msg["items"])
            payload = _execute_chunk(chunk, backend, collect)
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
    payload, meta = _split_payload(payload)
    reply = {
        "type": "result",
        "id": unit_id,
        "pid": os.getpid(),
        "records": [
            [idx, journal_record(result)] for idx, result in payload
        ],
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
# Deterministic shard-merge.
# ----------------------------------------------------------------------


class ShardMerger:
    """Release completion-order results in canonical plan order.

    Built from the plan-order index sequence (the order a serial
    single-host run journals in).  :meth:`add` buffers each arriving
    ``(index, result)`` and returns the newly releasable contiguous
    prefix — the merged journal stream is byte-identical to the serial
    run no matter the arrival order.  Strict by design: an unknown index
    or a duplicate arrival raises (the dispatcher deduplicates late
    straggler replies *before* merging).
    """

    def __init__(self, order: Sequence[int]) -> None:
        self._pos = {int(idx): pos for pos, idx in enumerate(order)}
        if len(self._pos) != len(order):
            raise ValueError("duplicate work indices in merge order")
        self._held: dict[int, tuple[int, ScenarioResult]] = {}
        self._next = 0
        self.total = len(self._pos)
        self.released = 0

    def add(self, idx: int, result: ScenarioResult) -> list:
        """Accept one completed result; return the newly released
        ``(idx, result)`` pairs in plan order (possibly empty)."""
        pos = self._pos[int(idx)]
        if pos < self._next or pos in self._held:
            raise ValueError(f"duplicate result for work index {idx}")
        self._held[pos] = (int(idx), result)
        out = []
        while self._next in self._held:
            out.append(self._held.pop(self._next))
            self._next += 1
            self.released += 1
        return out

    def drain(self) -> list:
        """Flush everything still held, in position order (gaps are
        skipped — their scenarios never completed and will re-run on
        resume).  Used on interrupt so completed work stays durable."""
        out = [self._held[pos] for pos in sorted(self._held)]
        self.released += len(out)
        self._held.clear()
        return out

    @property
    def pending(self) -> int:
        return len(self._held)


# ----------------------------------------------------------------------
# Coordinator.
# ----------------------------------------------------------------------

_UNIT_SEQ = threading.Lock()
_unit_counter = [0]


def _next_unit_id() -> str:
    with _UNIT_SEQ:
        _unit_counter[0] += 1
        return f"u{_unit_counter[0]}"


@dataclass
class _Unit:
    kind: str  # "batch" | "chunk"
    items: list
    batch: Any = None
    id: str = field(default_factory=_next_unit_id)

    def key(self) -> str:
        return self.items[0][1].scenario_id if self.items else "empty"


class _Link:
    """One live worker connection plus its reader thread."""

    def __init__(self, link_id: str, endpoint: WorkerEndpoint,
                 sock: socket.socket) -> None:
        self.id = link_id
        self.endpoint = endpoint
        self.sock = sock
        self.rfile = sock.makefile("r", encoding="utf-8")
        self.wfile = sock.makefile("w", encoding="utf-8")
        self.pid: int | None = None
        self.host: str | None = None
        self.closed = False
        self.inflight: tuple | None = None  # (unit, attempts, submit_t)
        self.dispatched = 0
        self.requeued = 0
        self.units_done = 0
        self.busy_s = 0.0
        self._thread: threading.Thread | None = None

    def read_hello(self, timeout: float) -> dict:
        self.sock.settimeout(timeout)
        try:
            line = self.rfile.readline()
        finally:
            self.sock.settimeout(None)
        if not line:
            raise RemoteWorkerError(
                f"worker {self.endpoint.spec} closed before hello"
            )
        hello = json.loads(line)
        if hello.get("type") != "hello":
            raise RemoteWorkerError(
                f"worker {self.endpoint.spec} sent {hello.get('type')!r} "
                "instead of hello"
            )
        if hello.get("protocol") != PROTOCOL:
            raise RemoteWorkerError(
                f"worker {self.endpoint.spec} speaks protocol "
                f"{hello.get('protocol')!r}, coordinator speaks {PROTOCOL}"
            )
        self.pid = hello.get("pid")
        self.host = hello.get("host")
        return hello

    def start_reader(self, inbox: "queue_mod.Queue") -> None:
        def _pump() -> None:
            try:
                for line in self.rfile:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        msg = json.loads(line)
                    except ValueError:
                        continue
                    inbox.put((self, msg))
            except (OSError, ValueError):
                pass
            inbox.put((self, None))

        self._thread = threading.Thread(
            target=_pump, name=f"remote-{self.id}", daemon=True
        )
        self._thread.start()

    def send(self, msg: dict) -> None:
        _send(self.wfile, msg)

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def info(self) -> dict:
        return {
            "endpoint": self.endpoint.spec,
            "pid": self.pid,
            "host": self.host,
            "units": self.units_done,
            "busy_s": round(self.busy_s, 6),
            "dispatched": self.dispatched,
            "requeued": self.requeued,
        }


def _plan_units(
    indexed: list,
    backend: str,
    batch_memory: int | None,
    pack_widths: bool,
    plan,
    chunksize: int | None,
    fleet: int,
    recorder,
) -> list[_Unit]:
    """The dispatch units, in canonical plan order.

    Batched/auto backends ship whole planned batches (planned with
    ``jobs=fleet``, which cuts large groups as for a pool of that many
    jobs and keeps the serial run's item order); plan singles and other
    backends ship as contiguous order-chunks.
    """
    units: list[_Unit] = []
    if backend in ("batched", "auto"):
        from repro.engine.scheduler import plan_batches

        if plan is None:
            plan = plan_batches(
                indexed,
                batch_memory=batch_memory,
                jobs=fleet,
                pack_widths=pack_widths,
                recorder=recorder,
            )
        for batch in plan.batches:
            units.append(
                _Unit(kind="batch", items=list(batch.items), batch=batch)
            )
        singles = list(plan.singles)
        if singles:
            size = chunksize or default_chunksize(len(singles), fleet)
            for i in range(0, len(singles), size):
                units.append(_Unit(kind="chunk", items=singles[i:i + size]))
    else:
        size = chunksize or default_chunksize(len(indexed), fleet)
        for i in range(0, len(indexed), size):
            units.append(_Unit(kind="chunk", items=indexed[i:i + size]))
    return units


def _unit_msg(unit: _Unit, backend: str, compact: bool) -> dict:
    if unit.kind == "batch":
        batch = unit.batch
        return {
            "type": "unit",
            "kind": "batch",
            "id": unit.id,
            "n": batch.n,
            "bucket": batch.bucket,
            "width": batch.width,
            "items": _encode_items(batch.items),
            "backend": backend,
            "compact": compact,
        }
    return {
        "type": "unit",
        "kind": "chunk",
        "id": unit.id,
        "items": _encode_items(unit.items),
        "backend": backend,
    }


def execute_remote(
    specs: Iterable[ScenarioSpec],
    workers: str | Iterable[str | WorkerEndpoint],
    *,
    timeout: float | None = None,
    on_result: Callable[[ScenarioResult], Any] | None = None,
    backend: str = "batched",
    batch_memory: int | None = None,
    compact: bool = True,
    pack_widths: bool = False,
    plan=None,
    recorder=None,
    max_retries: int = 0,
    should_stop: Callable[[], bool] | None = None,
    shard_base: str | os.PathLike | None = None,
    chunksize: int | None = None,
    poll_interval: float = 0.05,
    connect_timeout: float = CONNECT_TIMEOUT_S,
) -> list[ScenarioResult]:
    """Execute scenarios on a fleet of remote workers.

    Mirrors :func:`~repro.engine.executor.execute_scenarios` semantics
    (``on_result`` journaling, ``max_retries`` with deterministic
    backoff, a pooled fleet deadline from ``timeout``, ``should_stop``)
    but delivers results to ``on_result`` in *plan order* through a
    :class:`ShardMerger`, so the journal is byte-identical to a serial
    single-host run.  ``shard_base`` (the journal path) enables
    coordinator-side per-worker shard files for crash-resume via
    :func:`absorb_shards`.  Returns results in ``specs`` order.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    endpoints = parse_workers(workers)
    if not endpoints:
        raise ValueError("execute_remote needs at least one worker endpoint")

    if shard_base is not None:
        # A fresh run owns its shard namespace: anything a previous run
        # left behind was either absorbed on resume or is superseded.
        for stale in shard_paths(shard_base):
            try:
                stale.unlink()
            except OSError:
                pass

    indexed = list(enumerate(spec_list))
    units = _plan_units(
        indexed, backend, batch_memory, pack_widths, plan, chunksize,
        len(endpoints), recorder,
    )
    order = [idx for unit in units for idx, _spec in unit.items]
    merger = ShardMerger(order)

    inbox: queue_mod.Queue = queue_mod.Queue()
    setup = {
        "type": "setup",
        "env": {k: os.environ[k] for k in SHIPPED_ENV if k in os.environ},
        "collect": bool(recorder),
    }
    links: list[_Link] = []
    try:
        for i, endpoint in enumerate(endpoints):
            sock = endpoint.establish(connect_timeout)
            link = _Link(f"w{i}", endpoint, sock)
            try:
                link.read_hello(connect_timeout)
                link.send(setup)
            except (OSError, ValueError) as exc:
                link.close()
                raise RemoteWorkerError(
                    f"handshake with worker {endpoint.spec} failed: {exc}"
                ) from exc
            link.start_reader(inbox)
            links.append(link)
    except BaseException:
        for link in links:
            link.close()
        for endpoint in endpoints:
            endpoint.close()
        raise

    fleet = len(links)
    start = time.monotonic()
    window = (
        timeout * math.ceil(len(spec_list) / fleet)
        if timeout is not None
        else None
    )
    deadline = start + window if window is not None else None

    # The work queue: [unit, attempts, not_before] — retried units
    # re-enter with attempts+1 and a deterministic backoff delay.
    work: list[list] = [[unit, 0, 0.0] for unit in units]
    done_units: set[str] = set()
    collected: dict[int, ScenarioResult] = {}
    delivered_ids: list[str] = []
    shard_files: dict[str, Any] = {}
    abandoned = False
    stopped = False

    def live() -> list[_Link]:
        return [link for link in links if not link.closed]

    def deliver(released: list) -> None:
        for idx, result in released:
            if recorder:
                _count_result(recorder, result)
            collected[idx] = result
            delivered_ids.append(result.scenario_id)
            if on_result is not None:
                on_result(result)

    def append_shard(link: _Link, records: list) -> None:
        if shard_base is None or not records:
            return
        fh = shard_files.get(link.id)
        if fh is None:
            path = Path(f"{shard_base}.shard-{link.id}.jsonl")
            path.parent.mkdir(parents=True, exist_ok=True)
            # "w": a fresh run owns its shards — stale shards from an
            # earlier run were already absorbed (or superseded).
            fh = path.open("w", encoding="utf-8")
            shard_files[link.id] = fh
        for _idx, record in records:
            fh.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        fh.flush()

    def synthesize_failure(unit: _Unit, reason: str) -> None:
        nonlocal abandoned
        abandoned = True
        done_units.add(unit.id)
        for idx, spec in unit.items:
            deliver(
                merger.add(
                    idx,
                    ScenarioResult.failure(
                        spec, reason, status=STATUS_TIMEOUT, backend=backend
                    ),
                )
            )

    def retry_or_fail(link: _Link | None, unit: _Unit, attempts: int,
                      reason: str) -> None:
        if link is not None:
            link.requeued += 1
        if attempts < max_retries:
            if recorder:
                recorder.vinc("remote.batches_requeued")
            if attempts >= 1 and len(unit.items) > 1:
                # Repeated failure of a multi-scenario unit: re-run the
                # members as singleton chunks so the innocent majority
                # completes and only a deterministic killer fails.
                if recorder:
                    recorder.vinc("remote.singleton_splits")
                for item in unit.items:
                    single = _Unit(kind="chunk", items=[item])
                    delay = retry_delay(single.key(), attempts + 1)
                    work.append(
                        [single, attempts + 1, time.monotonic() + delay]
                    )
            else:
                delay = retry_delay(unit.key(), attempts + 1)
                work.append([unit, attempts + 1, time.monotonic() + delay])
        else:
            synthesize_failure(
                unit, f"remote unit failed: {reason} "
                f"(retry budget {max_retries} exhausted)"
            )

    def lose_link(link: _Link, reason: str) -> None:
        if link.closed:
            entry = link.inflight
            link.inflight = None
            if entry is not None and entry[0].id not in done_units:
                retry_or_fail(link, entry[0], entry[1], reason)
            return
        link.close()
        if recorder:
            recorder.vinc("remote.workers_lost")
        entry = link.inflight
        link.inflight = None
        if entry is not None and entry[0].id not in done_units:
            retry_or_fail(link, entry[0], entry[1], reason)

    def handle(link: _Link, msg) -> None:
        if msg is None:
            lose_link(link, f"worker {link.endpoint.spec} connection lost")
            return
        if link.closed:
            return  # late straggler reply — its unit was requeued
        kind = msg.get("type")
        if kind == "result":
            entry = link.inflight
            if (
                entry is None
                or entry[0].id != msg.get("id")
                or msg.get("id") in done_units
            ):
                return
            unit, _attempts, submit_t = entry
            link.inflight = None
            done_units.add(unit.id)
            records = msg.get("records", [])
            append_shard(link, records)
            busy = float(msg.get("busy_s") or 0.0)
            link.units_done += 1
            link.busy_s += busy
            if recorder:
                turnaround = time.monotonic() - submit_t
                recorder.add_duration("executor.unit_wall_s", turnaround)
                snapshot = msg.get("snapshot")
                if snapshot:
                    recorder.merge(snapshot)
                    recorder.add_duration("executor.worker_busy_s", busy)
                    recorder.add_duration(
                        "executor.queue_wait_s", max(0.0, turnaround - busy)
                    )
                # Det plane: every scenario's record is merged exactly
                # once in a clean run, whatever the fleet size.
                recorder.inc("remote.shard_records_merged", len(records))
            released: list = []
            for idx, record in records:
                released.extend(merger.add(int(idx), decode_result(record)))
            deliver(released)
        elif kind == "error":
            if msg.get("kind") == "contract":
                raise ContractViolation(
                    msg.get("contract", "remote"),
                    msg.get("detail", msg.get("error", "remote violation")),
                    dict(msg.get("repro") or {}, worker=link.endpoint.spec),
                )
            entry = link.inflight
            link.inflight = None
            if entry is not None and entry[0].id not in done_units:
                retry_or_fail(link, entry[0], entry[1], msg.get("error", "?"))

    try:
        while work or any(link.inflight for link in live()):
            if should_stop is not None and should_stop():
                stopped = True
                raise ExecutionStopped(
                    "run interrupted by shutdown signal"
                )
            if not live():
                # The whole fleet is gone: journal everything left as
                # retriable timeouts so a restarted campaign resumes.
                for unit, _attempts, _not_before in work:
                    if unit.id not in done_units:
                        synthesize_failure(
                            unit, "remote fleet lost (all workers down)"
                        )
                work = []
                break
            now = time.monotonic()
            # Dispatch: one in-flight unit per worker, so slow workers
            # never hoard.
            idle = [link for link in live() if link.inflight is None]
            for link in idle:
                chosen = None
                for i, entry in enumerate(work):
                    if entry[2] <= now:
                        chosen = i
                        break
                if chosen is None:
                    break
                unit, attempts, _not_before = work.pop(chosen)
                try:
                    link.send(_unit_msg(unit, backend, compact))
                except (OSError, ValueError) as exc:
                    work.insert(0, [unit, attempts, _not_before])
                    lose_link(
                        link,
                        f"send to {link.endpoint.spec} failed: {exc}",
                    )
                    continue
                link.inflight = (unit, attempts, time.monotonic())
                link.dispatched += 1
                if recorder:
                    recorder.vinc("remote.batches_dispatched")
            # Receive: block briefly for the first message, then drain.
            events = []
            try:
                events.append(inbox.get(timeout=poll_interval))
            except queue_mod.Empty:
                pass
            while True:
                try:
                    events.append(inbox.get_nowait())
                except queue_mod.Empty:
                    break
            for link, msg in events:
                handle(link, msg)
            # Fleet deadline: every straggling unit expires together —
            # cut the link (the remote worker notices on its next send
            # and re-enters its accept loop) and retry elsewhere.
            if deadline is not None and time.monotonic() > deadline:
                stragglers = [link for link in live() if link.inflight]
                if stragglers:
                    retried = False
                    for link in stragglers:
                        entry = link.inflight
                        link.close()
                        if recorder:
                            recorder.vinc("remote.stragglers_cut")
                        link.inflight = None
                        unit, attempts, _submit_t = entry
                        if unit.id in done_units:
                            continue
                        if attempts < max_retries:
                            retry_or_fail(link, unit, attempts,
                                          "fleet deadline")
                            retried = True
                        else:
                            synthesize_failure(
                                unit,
                                f"no result within {window:.1f}s",
                            )
                    if retried:
                        deadline = time.monotonic() + window
    finally:
        if stopped:
            # Durability on interrupt: journal every already-completed
            # result still held back by the merger (plan-order among
            # themselves; gaps simply re-run on resume).
            deliver(merger.drain())
        for link in links:
            if not link.closed:
                try:
                    link.send({"type": "shutdown"})
                except (OSError, ValueError):
                    pass
                link.close()
        for endpoint in endpoints:
            endpoint.close()
        for fh in shard_files.values():
            try:
                fh.close()
            except OSError:
                pass

    contracts = _get_contracts()
    if contracts and not abandoned and contracts.sample("shard_merge"):
        contracts.check_shard_merge(
            [spec_list[idx].scenario_id for idx in order],
            delivered_ids,
            context={"backend": backend, "fleet": fleet},
        )
    if shard_base is not None:
        # Every sharded record is journal-durable once the run returns
        # normally — drop the redundant shards so only a crashed or
        # interrupted coordinator leaves any behind for absorb_shards.
        for path in shard_paths(shard_base):
            try:
                path.unlink()
            except OSError:
                pass
    if recorder:
        recorder.vgauge_max("remote.fleet", fleet)
        recorder.set_info(
            "remote.workers", [link.info() for link in links]
        )
        wall = time.monotonic() - start
        busy_total = sum(link.busy_s for link in links)
        if wall > 0 and busy_total:
            recorder.vgauge_max(
                "remote.worker_utilization_pct",
                round(100.0 * busy_total / (fleet * wall), 1),
            )
    return [collected[i] for i in range(len(spec_list))]


# ----------------------------------------------------------------------
# Crash-resume: fold orphaned worker shards back into the journal.
# ----------------------------------------------------------------------


def shard_paths(store_path: str | os.PathLike) -> list[Path]:
    """The per-worker shard files next to a journal path."""
    path = Path(store_path)
    return sorted(path.parent.glob(path.name + ".shard-*.jsonl"))


def absorb_shards(store, recorder=None) -> int:
    """Fold per-worker shard records into the store's main journal.

    A coordinator crash can leave results that workers completed (and
    sharded) but the coordinator never journaled.  Resuming a campaign
    absorbs those records first — a shard record is appended when the
    main journal has no terminal record for its scenario — then removes
    the shard files (their contents are now durable in the journal).
    Idempotent: re-absorbing already-journaled records is a no-op.
    Returns the number of records absorbed.
    """
    if store.path is None:
        return 0
    latest = store.load()
    absorbed = 0
    for shard in shard_paths(store.path):
        try:
            lines = shard.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                result = decode_result(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue  # torn shard tail — the scenario just re-runs
            prior = latest.get(result.scenario_id)
            if prior is not None and is_terminal(prior.status):
                continue
            if prior is not None and not is_terminal(result.status):
                continue
            store.append(result)
            latest[result.scenario_id] = result
            absorbed += 1
        try:
            shard.unlink()
        except OSError:
            pass
    if recorder and absorbed:
        recorder.vinc("remote.shard_records_absorbed", absorbed)
    return absorbed
