"""Command-line interface.

Subcommands::

    skeleton-agreement figure1            # regenerate Figure 1 (a)-(h)
    skeleton-agreement run ...            # simulate Algorithm 1
    skeleton-agreement theorem2 ...       # the impossibility construction
    skeleton-agreement check ...          # Psrcs(k) on a grouped adversary
    skeleton-agreement sweep ...          # ALG-AGREE/THM1 parameter sweep
    skeleton-agreement ablation ...       # design-knob ablation matrix
    skeleton-agreement duality ...        # §V rc-vs-α exploration
    skeleton-agreement eventual ...       # ♦Psrcs bad-prefix step function
    skeleton-agreement fuzz ...           # differential backend fuzzing
    skeleton-agreement campaign run ...   # parallel, resumable campaigns
    skeleton-agreement campaign status .. # store-vs-grid reconciliation
    skeleton-agreement campaign report .. # per-scenario / aggregate tables
    skeleton-agreement campaign serve ... # always-on campaign service daemon

Every experiment family (``figure1``, ``theorem2``, ``sweeps``,
``termination``, ``ablation``, ``duality``, ``eventual``, ``latency``) is
a registered :class:`~repro.engine.registry.ExperimentSpec`; the
per-family subcommands above are sugar over
``campaign run --family <name>`` and therefore all take ``--jobs N``,
``--store PATH`` (resume-by-hash), ``--backend
{reference,batched,auto}``, ``--batch-memory MIB`` (the
batch scheduler's per-batch envelope), ``--progress`` (stderr
progress lines: completed/total, scenarios/s, batches, ETA) and
``--metrics[=PATH]`` (write the engine-telemetry sidecar,
default ``<store>.metrics.json``; journals and summaries are
byte-identical with metrics on or off).  ``campaign report
--metrics`` renders a recorded sidecar as a table.

Hardening flags (same sharing): ``--contracts`` arms the runtime
contract layer (:mod:`repro.engine.contracts` — sampled re-derive-and-
compare checkpoints inside the kernels; violations abort with a minimal
JSON repro), ``--max-retries N`` retries transient worker failures
in-run with capped deterministic backoff before anything is journaled,
and ``--faults SPEC`` installs a seeded deterministic fault-injection
plan (:mod:`repro.engine.faults`) for resilience drills.  The ``fuzz``
family (``campaign run --family fuzz``) runs registered differential
fuzzing across all execution backends with shrinking repros.

``campaign run`` handles SIGINT/SIGTERM gracefully: the journal and
sidecars are flushed, workers are terminated, and a one-line resume
hint is printed before exiting 1 — re-running the same command resumes
exactly the unfinished scenarios.

``campaign serve`` runs the engine as an always-on daemon (persistent
worker pool, FIFO job queue, local HTTP/JSON API — see
:mod:`repro.engine.service`); ``campaign run/status/report --connect
URL`` (or the ``REPRO_DAEMON`` environment variable) turn the same
commands into thin clients of a running daemon, with transparent
fallback to in-process execution when it is unreachable.  Journal and
summary bytes of a served campaign are identical to the one-shot run.

Campaign exit codes: 0 = complete and green, 1 = incomplete (half-executed
grid) or failed (terminal errors), 2 = nothing to do (the grid expanded to
zero scenarios).

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.adversaries.grouped import GroupedSourceAdversary
from repro.analysis.properties import check_agreement_properties
from repro.analysis.reporting import format_table
from repro.analysis.stats import decision_stats
from repro.engine.backends import BACKENDS
from repro.graphs.condensation import root_components
from repro.predicates.psrcs import Psrcs


# ----------------------------------------------------------------------
# Experiment families: one runner for all sugar subcommands
# ----------------------------------------------------------------------
_FAMILY_PARAM_KEYS = (
    "n",
    "k",
    "seeds",
    "noise",
    "topology",
    "groups",
    "density",
    "bad_rounds",
    "max_rounds",
    "salt",
)


def _family_params(args: argparse.Namespace) -> dict:
    """Collect the grid params the user actually provided (``None`` means
    "use the family default")."""
    params = {}
    for key in _FAMILY_PARAM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _errmsg(exc: BaseException) -> str:
    """``str(KeyError)`` is the repr of its argument (extra quotes);
    unwrap it for user-facing messages."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _batch_memory_bytes(args: argparse.Namespace) -> int | None:
    """``--batch-memory`` is user-facing MiB; the engine speaks bytes."""
    mib = getattr(args, "batch_memory", None)
    return None if mib is None else mib * 2**20


def _metrics_path(args: argparse.Namespace) -> str | None:
    """Resolve ``--metrics[=PATH]``: an explicit PATH wins; a bare
    ``--metrics`` derives ``<store>.metrics.json`` and therefore needs
    ``--store``."""
    value = getattr(args, "metrics", None)
    if value is None:
        return None
    if value is True:
        store = getattr(args, "store", None)
        if not store:
            raise ValueError(
                "--metrics without a PATH requires --store (the sidecar "
                "defaults to <store>.metrics.json)"
            )
        return f"{store}.metrics.json"
    return value


def _metrics_recorder(args: argparse.Namespace):
    """``(recorder, sidecar_path)`` — ``(None, None)`` when metrics are
    off, so the engine sees the zero-cost null recorder."""
    path = _metrics_path(args)
    if path is None:
        return None, None
    from repro.engine.telemetry import Recorder

    return Recorder(), path


def _apply_hardening(args: argparse.Namespace) -> None:
    """Arm the opt-in hardening layers before any worker spawns.

    All of these set process environment variables, so pool workers
    (fork or spawn) inherit the configuration without any extra
    plumbing.
    """
    if getattr(args, "contracts", False):
        from repro.engine import contracts

        contracts.activate()
    spec = getattr(args, "faults", None)
    if spec:
        from repro.engine import faults

        store = getattr(args, "store", None)
        ledger = f"{store}.faults.ledger" if store else None
        faults.FaultPlan.parse(spec, ledger=ledger).install()


def _progress_enabled(args: argparse.Namespace) -> bool:
    """Progress lines go to stderr when it is a terminal (or forced with
    ``--progress``); machine-read stdout is never touched either way."""
    flag = getattr(args, "progress", None)
    if flag is not None:
        return flag
    return sys.stderr.isatty()


def _run_family_command(name: str, args: argparse.Namespace) -> int:
    """Execute one family as a campaign and render its historical output.

    This is what makes ``figure1``/``theorem2``/``sweep``/``ablation``/
    ``duality``/``eventual`` sugar over ``campaign run --family <name>``:
    same grid, same runner, same journal format — plus the engine's
    ``--jobs``, resume and backend selection."""
    from repro.engine.registry import family_campaign, get_family

    try:
        family = get_family(name)
        campaign = family_campaign(
            name,
            _family_params(args),
            store=getattr(args, "store", None),
            jobs=getattr(args, "jobs", 1),
            timeout=getattr(args, "timeout", None),
            backend=getattr(args, "backend", None),
            batch_memory=_batch_memory_bytes(args),
            max_retries=getattr(args, "max_retries", 0) or 0,
        )
        recorder, metrics_path = _metrics_recorder(args)
        _apply_hardening(args)
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc))
        return 2
    campaign.run(progress=_progress_enabled(args), recorder=recorder)
    if recorder is not None:
        recorder.write_sidecar(metrics_path, label=family.name)
        print(f"wrote metrics sidecar to {metrics_path}", file=sys.stderr)
    results = campaign.completed_results()
    failed = [r for r in results if not r.ok]
    if failed:
        for result in failed[:5]:
            print(
                f"{result.scenario_id} ({result.status}): {result.error}"
            )
        print(
            f"\n{len(failed)}/{len(results)} scenarios failed to execute"
        )
        return 1
    if not results:
        print("nothing to do: the grid expanded to 0 scenarios")
        return 2
    text, code = family.render(results)
    print(text)
    return code


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    """The engine flags every family subcommand gains for free."""
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--store", default=None,
                   help="JSONL journal path (resume-by-hash; default: "
                   "in-memory)")
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="execution engine (default: the family's preference; "
        "metrics are identical across backends)",
    )
    p.add_argument("--timeout", type=float, default=None,
                   help="per-scenario time budget in seconds")
    _add_scheduler_args(p)


def _add_scheduler_args(p: argparse.ArgumentParser) -> None:
    """Batch-scheduler knobs shared by campaign run and family sugar."""
    p.add_argument(
        "--batch-memory",
        type=int,
        default=None,
        metavar="MIB",
        help="per-batch memory envelope in MiB for the batched/auto "
        "backends (packing only: journals and summaries are "
        "byte-identical whatever the envelope)",
    )
    p.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="emit progress lines (completed/total, scenarios/s, "
        "batches, ETA) to stderr (default: only when stderr is a "
        "terminal)",
    )
    p.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="never emit progress lines",
    )
    p.add_argument(
        "--metrics",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="record engine telemetry (scheduler/executor/kernel/store "
        "counters and timings) and write a schema-versioned JSON sidecar "
        "(default PATH: <store>.metrics.json); journal and summary bytes "
        "are identical with metrics on or off",
    )
    p.add_argument(
        "--contracts",
        action="store_true",
        help="arm the runtime contract layer: sampled re-derive-and-"
        "compare invariant checkpoints on the kernel/scheduler/executor/"
        "store boundaries; a violation aborts the run with a minimal "
        "JSON repro (journal and summary bytes are identical with "
        "contracts on or off)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="in-run retry budget per work unit for transient worker "
        "failures (crashed pools, injected faults), with capped "
        "deterministic backoff; 0 (default) fails fast",
    )
    p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="install a deterministic seeded fault-injection plan, e.g. "
        "'seed=7,kill=0.2,torn=0.5' (keys: seed, kill, stall, transient, "
        "torn, drop_meta, stall_s); victims are chosen by content hash, "
        "each fault fires once (ledger: <store>.faults.ledger), and a "
        "resumed run reconverges to byte-identical summaries",
    )
    p.add_argument(
        "--workers",
        default=None,
        metavar="LIST",
        help="distributed execution: comma-separated remote worker "
        "endpoints (host:port to dial a 'repro worker --listen', or "
        "listen:[host:]port to accept a 'repro worker --connect'); "
        "planned batches ship to the fleet and results shard-merge "
        "back in plan order, so journal and summary bytes are "
        "identical to a serial single-host run",
    )


# ----------------------------------------------------------------------
# Plain subcommands
# ----------------------------------------------------------------------
def _cmd_figure1(args: argparse.Namespace) -> int:
    return _run_family_command("figure1", args)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import run_algorithm1

    adversary = GroupedSourceAdversary(
        args.n,
        num_groups=args.groups,
        seed=args.seed,
        noise=args.noise,
        topology=args.topology,
    )
    run = run_algorithm1(adversary, max_rounds=args.max_rounds)
    report = check_agreement_properties(run, args.k)
    stats = decision_stats(run)
    print(report.summary())
    print()
    rows = [
        ["processes", run.n],
        ["rounds simulated", run.num_rounds],
        ["root components", len(root_components(run.stable_skeleton()))],
        ["distinct decisions", report.num_decision_values],
        ["last decision round", stats.last_decision_round],
        ["Lemma 11 bound", stats.lemma11_bound],
    ]
    print(format_table(["quantity", "value"], rows))
    return 0 if report.all_hold else 1


def _cmd_theorem2(args: argparse.Namespace) -> int:
    return _run_family_command("theorem2", args)


def _cmd_check(args: argparse.Namespace) -> int:
    adversary = GroupedSourceAdversary(
        args.n, num_groups=args.groups, seed=args.seed, topology=args.topology
    )
    stable = adversary.declared_stable_graph()
    predicate = Psrcs(args.k)
    result = predicate.check_skeleton(stable)
    print(result.explain())
    print(f"tightest k (α of conflict graph): {predicate.tightest_k(stable)}")
    print(f"root components: {len(root_components(stable))}")
    return 0 if result.holds else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_family_command("sweeps", args)


def _cmd_ablation(args: argparse.Namespace) -> int:
    return _run_family_command("ablation", args)


def _cmd_duality(args: argparse.Namespace) -> int:
    return _run_family_command("duality", args)


def _cmd_eventual(args: argparse.Namespace) -> int:
    return _run_family_command("eventual", args)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    return _run_family_command("fuzz", args)


# ----------------------------------------------------------------------
# Campaign subcommands
# ----------------------------------------------------------------------
_GRID_DEFAULTS = {"n": [6, 9], "k": [2, 3], "seeds": 3, "noise": [0.15],
                  "topology": "cycle"}


def _grid_from_args(args: argparse.Namespace):
    """The generic agreement grid (or ``--grid-json`` file) — shared by
    in-process execution and daemon submission so both run the exact
    same grid."""
    from repro.engine import ScenarioGrid, agreement_grid

    if args.grid_json:
        with open(args.grid_json, "r", encoding="utf-8") as fh:
            return ScenarioGrid.from_json(fh.read())
    return agreement_grid(
        ns=args.n if args.n is not None else _GRID_DEFAULTS["n"],
        ks=args.k if args.k is not None else _GRID_DEFAULTS["k"],
        seeds=range(
            args.seeds if args.seeds is not None
            else _GRID_DEFAULTS["seeds"]
        ),
        noises=args.noise if args.noise is not None
        else _GRID_DEFAULTS["noise"],
        topology=args.topology or _GRID_DEFAULTS["topology"],
    )


def _campaign_from_args(args: argparse.Namespace):
    from repro.engine import Campaign

    if getattr(args, "family", None):
        from repro.engine.registry import family_campaign

        return family_campaign(
            args.family,
            _family_params(args),
            store=args.store,
            jobs=getattr(args, "jobs", 1),
            timeout=getattr(args, "timeout", None),
            backend=getattr(args, "backend", None),
            batch_memory=_batch_memory_bytes(args),
            max_retries=getattr(args, "max_retries", 0) or 0,
        )
    grid = _grid_from_args(args)
    return Campaign(
        grid,
        store=args.store,
        jobs=getattr(args, "jobs", 1),
        timeout=getattr(args, "timeout", None),
        backend=getattr(args, "backend", None) or "reference",
        batch_memory=_batch_memory_bytes(args),
        label="grid",
        max_retries=getattr(args, "max_retries", 0) or 0,
    )


def _resume_hint(args: argparse.Namespace, campaign) -> str:
    """One line telling the user how to pick up an interrupted run."""
    campaign.refresh()
    status = campaign.status()
    remaining = status.missing + status.timeouts
    cmd = "campaign run"
    if getattr(args, "family", None):
        cmd += f" --family {args.family}"
    if getattr(args, "store", None):
        cmd += f" --store {args.store}"
    return (
        f"interrupted: journal flushed; re-run `{cmd}` to resume the "
        f"{remaining} remaining scenario(s)"
    )


# ----------------------------------------------------------------------
# Daemon client mode (campaign run/status/report --connect URL)
# ----------------------------------------------------------------------
def _daemon_client(args: argparse.Namespace):
    """``(client, url)`` for a *reachable* daemon, else ``(None, None)``
    — the caller falls back to in-process execution."""
    from repro.engine.service import ServiceClient, ServiceError, daemon_url

    url = daemon_url(getattr(args, "connect", None))
    if not url:
        return None, None
    client = ServiceClient(url)
    try:
        client.health()
    except ServiceError as exc:
        print(
            f"daemon at {url} unavailable ({exc}); running in-process",
            file=sys.stderr,
        )
        return None, None
    return client, url


def _workers_list(args: argparse.Namespace) -> list[str] | None:
    """The ``--workers`` endpoints as a list (``None`` when unset)."""
    raw = getattr(args, "workers", None)
    if not raw:
        return None
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    return parts or None


def _daemon_submission(args: argparse.Namespace) -> dict:
    """Translate ``campaign run`` flags into one POST /campaigns body.

    The daemon rebuilds the identical campaign from this (same grid,
    same backend and scheduler knobs), so its journal and summary bytes
    match the in-process run byte for byte.
    """
    payload: dict = {
        "store": os.path.abspath(args.store) if args.store else None,
        "backend": getattr(args, "backend", None),
        "batch_memory": _batch_memory_bytes(args),
        "max_retries": getattr(args, "max_retries", 0) or 0,
        "timeout": getattr(args, "timeout", None),
        "resume": not getattr(args, "no_resume", False),
        "contracts": getattr(args, "contracts", False),
        "workers": _workers_list(args),
    }
    if getattr(args, "family", None):
        payload["family"] = args.family
        params = _family_params(args)
        if params:
            payload["params"] = params
    else:
        payload["grid"] = _grid_from_args(args).to_dict()
    return {k: v for k, v in payload.items() if v is not None}


def _run_via_daemon(args: argparse.Namespace, client, url: str) -> int:
    from repro.engine.campaign import CampaignReport
    from repro.engine.service import ServiceError

    try:
        payload = _daemon_submission(args)
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc))
        return 2
    progress = _progress_enabled(args)

    def on_progress(doc: dict) -> None:
        p = doc["progress"]
        eta = f" · eta {p['eta_s']:.0f}s" if p.get("eta_s") else ""
        print(
            f"[daemon {doc['id']}] {p['done']}/{p['total']} scenarios"
            f" · batch {p['batches_done']}/{p['batches_planned']}{eta}",
            file=sys.stderr, flush=True,
        )

    try:
        submitted = client.submit(payload)
        print(
            f"submitted campaign {submitted['id']} to {url} "
            f"(store {submitted['store']})",
            file=sys.stderr,
        )
        doc = client.wait(
            submitted["id"], on_progress=on_progress if progress else None
        )
    except ServiceError as exc:
        print(f"daemon error: {exc}", file=sys.stderr)
        return 1
    if doc.get("report"):
        print(CampaignReport(**doc["report"]).summary())
    if doc.get("error"):
        print(f"daemon: {doc['error']}", file=sys.stderr)
    if getattr(args, "summary", None):
        text = client.results_text(doc["id"], view="summary")
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines = text.count("\n")
        print(f"\nwrote {lines} canonical summary lines to {args.summary}")
    status = doc.get("status")
    if status:
        print(f"\n{status['describe']}")
        return int(status["exit_code"])
    return 1 if doc["state"] == "failed" else 0


def _daemon_job_for_store(args: argparse.Namespace, client):
    """The latest daemon job journaling to ``--store`` (``None`` when
    the daemon never saw this store — reconcile locally instead)."""
    from repro.engine.service import ServiceError

    try:
        jobs = client.jobs(store=args.store)
    except ServiceError:
        return None
    return jobs[-1] if jobs else None


def _daemon_state_exit(job: dict) -> int:
    """Translate a daemon job document to the 0/1/2 exit-code contract:
    queued/running count as incomplete (1); terminal jobs answer with
    their store-vs-grid reconciliation."""
    if job["state"] in ("queued", "running"):
        return 1
    status = job.get("status")
    if status is not None:
        return int(status["exit_code"])
    return 1 if job["state"] == "failed" else 0


def _status_via_daemon(args: argparse.Namespace, client, url: str) -> int:
    job = _daemon_job_for_store(args, client)
    if job is None:
        print(
            f"daemon at {url} has no campaign for this store; "
            "reconciling locally",
            file=sys.stderr,
        )
        return -1
    line = f"daemon campaign {job['id']}: {job['state']}"
    progress = job.get("progress")
    if progress:
        line += f" ({progress['done']}/{progress['total']} scenarios)"
    print(line)
    status = job.get("status")
    if status:
        print(status["describe"])
    elif job["state"] in ("queued", "running"):
        print("state: incomplete (campaign still running on the daemon)")
    elif job.get("error"):
        print(f"state: failed ({job['error']})")
    return _daemon_state_exit(job)


def _report_via_daemon(args: argparse.Namespace, client, url: str) -> int:
    from repro.engine.service import ServiceError

    job = _daemon_job_for_store(args, client)
    if job is None:
        print(
            f"daemon at {url} has no campaign for this store; "
            "reporting locally",
            file=sys.stderr,
        )
        return -1
    view = "aggregate" if getattr(args, "aggregate", False) else "table"
    try:
        print(client.results_text(job["id"], view=view), end="")
    except ServiceError as exc:
        print(f"daemon error: {exc}", file=sys.stderr)
        return 1
    status = job.get("status")
    if status:
        print(f"\n{status['describe']}")
    return _daemon_state_exit(job)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import signal

    from repro.engine.contracts import ContractViolation
    from repro.engine.faults import InjectedFault
    from repro.engine.remote import RemoteWorkerError

    client, daemon = _daemon_client(args)
    if client is not None:
        return _run_via_daemon(args, client, daemon)
    try:
        campaign = _campaign_from_args(args)
        recorder, metrics_path = _metrics_recorder(args)
        _apply_hardening(args)
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc))
        return 2

    def _flush_sidecar() -> None:
        if recorder is not None:
            recorder.write_sidecar(
                metrics_path, label=getattr(args, "family", None) or "grid"
            )
            print(
                f"wrote metrics sidecar to {metrics_path}", file=sys.stderr
            )

    def _on_term(signum, frame):  # noqa: ARG001 — signal API
        raise KeyboardInterrupt

    # SIGINT already raises KeyboardInterrupt; route SIGTERM onto the
    # same path so both take the flush-journal/terminate-workers exit
    # (handler restoration matters for in-process callers, e.g. tests).
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_term)
        except ValueError:  # pragma: no cover — non-main thread
            pass
    try:
        report = campaign.run(
            resume=not args.no_resume, progress=_progress_enabled(args),
            recorder=recorder, workers=_workers_list(args),
        )
    except KeyboardInterrupt:
        # Every journaled record is already on disk (append + flush per
        # result) and the executor's shutdown path has terminated the
        # workers; what is left is the sidecar and a resume hint.
        _flush_sidecar()
        print(_resume_hint(args, campaign), file=sys.stderr)
        return 1
    except ContractViolation as exc:
        _flush_sidecar()
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except InjectedFault as exc:
        _flush_sidecar()
        print(f"injected fault: {exc}", file=sys.stderr)
        print(_resume_hint(args, campaign), file=sys.stderr)
        return 1
    except RemoteWorkerError as exc:
        _flush_sidecar()
        print(f"remote worker error: {exc}", file=sys.stderr)
        print(_resume_hint(args, campaign), file=sys.stderr)
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    _flush_sidecar()
    print(report.summary())
    if args.summary:
        lines = campaign.write_summary(args.summary)
        print(f"\nwrote {lines} canonical summary lines to {args.summary}")
    status = campaign.status()
    print(f"\n{status.describe()}")
    return status.exit_code()


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    client, daemon = _daemon_client(args)
    if client is not None:
        code = _status_via_daemon(args, client, daemon)
        if code >= 0:
            return code
    try:
        campaign = _campaign_from_args(args)
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc))
        return 2
    status = campaign.status()
    print(status.summary())
    print(f"\n{status.describe()}")
    return status.exit_code()


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    if getattr(args, "metrics", None) is None:
        client, daemon = _daemon_client(args)
        if client is not None:
            code = _report_via_daemon(args, client, daemon)
            if code >= 0:
                return code
    if getattr(args, "metrics", None) is not None:
        # Render a recorded telemetry sidecar instead of result rows.
        try:
            path = _metrics_path(args)
        except ValueError as exc:
            print(_errmsg(exc))
            return 2
        from repro.engine.telemetry import read_sidecar, render_sidecar

        try:
            sidecar = read_sidecar(path)
        except FileNotFoundError:
            print(
                f"no metrics sidecar at {path} "
                "(record one with `campaign run --metrics`)"
            )
            return 1
        except ValueError as exc:
            print(f"invalid metrics sidecar at {path}: {exc}")
            return 1
        print(render_sidecar(sidecar))
        return 0
    try:
        campaign = _campaign_from_args(args)
    except (KeyError, ValueError) as exc:
        print(_errmsg(exc))
        return 2
    family = None
    if getattr(args, "family", None):
        from repro.engine.registry import get_family

        family = get_family(args.family)
    results = campaign.completed_results()
    if args.aggregate:
        # Store-native aggregation: the family's table when it has one,
        # the generic latency percentile rollup otherwise — computed
        # straight from the journaled records.
        from repro.engine.aggregate import latency_table

        ok_results = [r for r in results if r.ok]
        try:
            if family is not None and family.aggregate is not None:
                table = family.aggregate(ok_results)
            else:
                table = latency_table(ok_results)
        except RuntimeError as exc:
            # e.g. an ensemble cell where no run decided: the rows are
            # not summarizable, which is a red report, not a crash.
            print(f"cannot aggregate this store: {exc}")
            return 1
        print(table.format(title="campaign aggregate "
                           f"({len(ok_results)} scenarios)"))
    elif family is not None and family.row is not None:
        shown = results if args.limit is None else results[: args.limit]
        print(
            family.table(
                shown,
                title=f"campaign report — family {family.name} "
                f"({len(results)} of {len(campaign.specs)} scenarios)",
            )
        )
    else:
        print(campaign.report_table(limit=args.limit))
    failed = [r for r in results if not r.ok]
    bad = [
        r
        for r in results
        if r.ok
        and (r.k_agreement_holds is False or r.all_decided is False)
    ]
    status = campaign.status()
    print(
        f"\n{len(results)}/{len(campaign.specs)} scenarios stored, "
        f"{len(failed)} failed to execute, "
        f"{len(bad)} violated their k bound or failed to terminate"
    )
    # A half-executed grid must not report green: the unexecuted half
    # could hold the violations.  An empty grid is not green either —
    # it is "nothing to do" (exit 2), so automation can tell vacuous
    # success from real success.
    print(status.describe())
    if status.exit_code() == 2:
        return 2
    if family is not None:
        # Family semantics own their verdicts (a non-terminating ablated
        # variant is a *successful* ablation finding, not a red report);
        # the family's render/aggregate path judges the science.  Here:
        # green iff fully executed with no terminal failures.
        return 0 if status.succeeded and results else 1
    return 0 if status.succeeded and results and not bad else 1


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    import tempfile

    try:
        _apply_hardening(args)
    except ValueError as exc:
        print(_errmsg(exc))
        return 2
    spool = args.spool
    if spool is None:
        spool = tempfile.mkdtemp(prefix="repro-campaigns-")
    else:
        os.makedirs(spool, exist_ok=True)
    from repro.engine.service import serve

    return serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        slots=args.slots,
        spool=spool,
        shutdown_after=args.shutdown_after,
        port_file=args.port_file,
        metrics=not args.no_metrics,
        workers=_workers_list(args),
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.remote import worker_serve

    return worker_serve(
        listen=args.listen,
        connect=args.connect,
        spool=args.spool,
        port_file=args.port_file,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeleton-agreement",
        description="k-set agreement with stable skeleton graphs "
        "(Biely, Robinson, Schmid 2011) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig1 = sub.add_parser("figure1", help="regenerate Figure 1")
    p_fig1.add_argument("--max-rounds", type=int, default=None)
    _add_engine_args(p_fig1)
    p_fig1.set_defaults(func=_cmd_figure1)

    p_run = sub.add_parser("run", help="simulate Algorithm 1")
    p_run.add_argument("-n", type=int, default=9, help="number of processes")
    p_run.add_argument("-k", type=int, default=3, help="agreement parameter")
    p_run.add_argument("--groups", type=int, default=3, help="root components")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--noise", type=float, default=0.15)
    p_run.add_argument(
        "--topology", choices=["star", "cycle", "clique"], default="cycle"
    )
    p_run.add_argument("--max-rounds", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_thm2 = sub.add_parser("theorem2", help="impossibility construction")
    p_thm2.add_argument("-n", type=int, nargs="+", default=[8])
    p_thm2.add_argument("-k", type=int, nargs="+", default=[3])
    _add_engine_args(p_thm2)
    p_thm2.set_defaults(func=_cmd_theorem2)

    p_check = sub.add_parser("check", help="check Psrcs(k) on an adversary")
    p_check.add_argument("-n", type=int, default=9)
    p_check.add_argument("-k", type=int, default=3)
    p_check.add_argument("--groups", type=int, default=3)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--topology", choices=["star", "cycle", "clique"], default="cycle"
    )
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="agreement parameter sweep")
    p_sweep.add_argument("-n", type=int, nargs="+", default=[6, 9])
    p_sweep.add_argument("-k", type=int, nargs="+", default=[2, 3])
    p_sweep.add_argument("--seeds", type=int, default=2)
    p_sweep.add_argument("--noise", type=float, default=0.2)
    _add_engine_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_abl = sub.add_parser("ablation", help="design-knob ablation matrix")
    p_abl.add_argument("-n", type=int, default=9)
    p_abl.add_argument("-k", type=int, default=3)
    p_abl.add_argument("--seeds", type=int, default=6)
    _add_engine_args(p_abl)
    p_abl.set_defaults(func=_cmd_ablation)

    p_dual = sub.add_parser("duality", help="rc vs α exploration (§V)")
    p_dual.add_argument("-n", type=int, nargs="+", default=[6, 8, 10])
    p_dual.add_argument("--density", type=float, nargs="+",
                        default=[0.05, 0.15, 0.3])
    p_dual.add_argument("--seeds", type=int, default=5)
    _add_engine_args(p_dual)
    p_dual.set_defaults(func=_cmd_duality)

    p_ev = sub.add_parser(
        "eventual", help="♦Psrcs bad-prefix step function (§III)"
    )
    p_ev.add_argument("-n", type=int, nargs="+", default=[8])
    p_ev.add_argument("--bad-rounds", type=int, nargs="+",
                      default=[0, 1, 2, 4, 8, 12, 20])
    p_ev.add_argument("--seeds", type=int, default=1)
    _add_engine_args(p_ev)
    p_ev.set_defaults(func=_cmd_eventual)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential backend fuzzing with shrinking repros"
    )
    p_fuzz.add_argument("--seeds", type=int, default=None,
                        help="case budget (default 20)")
    p_fuzz.add_argument("--salt", type=int, default=None,
                        help="grid salt: a different salt draws a fresh "
                        "deterministic case set")
    _add_engine_args(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_camp = sub.add_parser(
        "campaign", help="parallel, resumable Monte-Carlo campaigns"
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def _add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", required=True, help="JSONL journal path (resume key)"
        )
        p.add_argument(
            "--family",
            default=None,
            help="run a registered experiment family (figure1, theorem2, "
            "sweeps, termination, ablation, duality, eventual, latency, "
            "fuzz) instead of the generic agreement grid",
        )
        p.add_argument("-n", type=int, nargs="+", default=None)
        p.add_argument("-k", type=int, nargs="+", default=None)
        p.add_argument("--seeds", type=int, default=None,
                       help="seed range 0..S-1 per grid point")
        p.add_argument("--noise", type=float, nargs="+", default=None)
        p.add_argument(
            "--topology", choices=["star", "cycle", "clique"], default=None
        )
        p.add_argument("--groups", type=int, default=None,
                       help="group count (termination/latency families)")
        p.add_argument("--density", type=float, nargs="+", default=None,
                       help="edge densities (duality family)")
        p.add_argument("--bad-rounds", type=int, nargs="+", default=None,
                       help="bad-prefix lengths (eventual family)")
        p.add_argument("--max-rounds", type=int, default=None,
                       help="round cap override (figure1 family)")
        p.add_argument("--salt", type=int, default=None,
                       help="grid salt (fuzz family: a different salt "
                       "draws a fresh deterministic case set)")
        p.add_argument(
            "--grid-json",
            default=None,
            help='grid file {"axes": {...}} overriding the flag-built grid',
        )
        p.add_argument(
            "--connect",
            default=None,
            metavar="URL",
            help="talk to a running `campaign serve` daemon at URL "
            "instead of executing in-process (also honored from the "
            "REPRO_DAEMON environment variable); falls back to "
            "in-process execution when the daemon is unreachable",
        )

    p_crun = camp_sub.add_parser("run", help="execute missing scenarios")
    _add_grid_args(p_crun)
    p_crun.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial)")
    p_crun.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="execution engine: the per-object reference simulator, the "
        "mega-batched fast path (same-n scenarios stacked into one tensor "
        "program), or auto (the fast path with transparent fallback); "
        "metrics and summaries are identical either way",
    )
    p_crun.add_argument("--timeout", type=float, default=None,
                        help="per-scenario time budget in seconds")
    p_crun.add_argument("--no-resume", action="store_true",
                        help="re-execute everything, ignoring the store")
    p_crun.add_argument("--summary", default=None,
                        help="also write the canonical grid-ordered summary "
                        "JSONL here")
    _add_scheduler_args(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_cstat = camp_sub.add_parser("status", help="reconcile store vs grid")
    _add_grid_args(p_cstat)
    p_cstat.set_defaults(func=_cmd_campaign_status)

    p_crep = camp_sub.add_parser(
        "report", help="per-scenario result table / store-native aggregates"
    )
    _add_grid_args(p_crep)
    p_crep.add_argument("--limit", type=int, default=None,
                        help="show at most this many rows")
    p_crep.add_argument(
        "--aggregate",
        action="store_true",
        help="print the store-native aggregate table (the family's "
        "aggregator, or the generic latency percentile rollup) instead "
        "of per-scenario rows",
    )
    p_crep.add_argument(
        "--metrics",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="render a recorded telemetry sidecar (default PATH: "
        "<store>.metrics.json) instead of result rows",
    )
    p_crep.set_defaults(func=_cmd_campaign_report)

    p_serve = camp_sub.add_parser(
        "serve",
        help="run the always-on campaign service: a persistent worker "
        "pool behind a local HTTP/JSON job API (submit with `campaign "
        "run --connect URL`)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port (0 = ephemeral; the resolved "
                         "URL is announced on stderr and in --port-file)")
    p_serve.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the resolved base URL here "
                         "(atomically) once listening")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="persistent pool worker processes shared "
                         "by all campaigns (default 2)")
    p_serve.add_argument("--slots", type=int, default=2,
                         help="campaigns running concurrently over the "
                         "shared pool (default 2)")
    p_serve.add_argument("--spool", default=None, metavar="DIR",
                         help="journal directory for submissions without "
                         "a store path (default: a fresh temp dir)")
    p_serve.add_argument("--shutdown-after", type=float, default=None,
                         metavar="S",
                         help="after S seconds stop accepting, drain the "
                         "queue, flush sidecars and exit 0 (SIGTERM "
                         "instead interrupts running campaigns — their "
                         "journals stay resumable by hash)")
    p_serve.add_argument("--no-metrics", action="store_true",
                         help="disable per-campaign telemetry recorders "
                         "(journal bytes are identical either way)")
    p_serve.add_argument(
        "--contracts", action="store_true",
        help="arm the runtime contract layer before the pool spawns, so "
        "every worker inherits it",
    )
    p_serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="install a deterministic fault-injection plan for the whole "
        "service (resilience drills; add ledger=PATH inside SPEC for "
        "once-only faults)",
    )
    p_serve.add_argument(
        "--workers", default=None, metavar="LIST",
        help="default remote worker fleet for served campaigns: "
        "comma-separated endpoints (host:port / listen:[host:]port); "
        "submissions may override with their own \"workers\" list, and "
        "/metrics reports per-endpoint liveness",
    )
    p_serve.set_defaults(func=_cmd_campaign_serve)

    p_worker = sub.add_parser(
        "worker",
        help="run a distributed execution worker: executes planned "
        "batches shipped by a campaign coordinator (campaign run "
        "--workers) and returns journal-record shards",
    )
    p_worker.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="bind and serve coordinator sessions until SIGTERM "
        "(port 0 picks a free port; see --port-file)",
    )
    p_worker.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="dial a coordinator's listen: endpoint instead (the "
        "ssh-spawned transport shape) and serve one session",
    )
    p_worker.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="with --listen: write the bound host:port here "
        "(atomically) once listening",
    )
    p_worker.add_argument(
        "--spool", default=None, metavar="PATH",
        help="append every produced journal record to this local shard "
        "file as well (worker-side durability)",
    )
    p_worker.set_defaults(func=_cmd_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
