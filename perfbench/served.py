"""The served workload: one open-loop client of a ``campaign serve`` daemon.

The client is this process, with two threads (the main thread submits
on the seeded schedule, one collector thread waits for completions and
fetches summaries) and so at most two HTTP connections at a time.  The
daemon runs with ``--jobs 1 --slots 1``.

A submission's latency runs from its *due* time, not from when it was
sent, to the job's ``finished_at`` stamped by the daemon (same host,
same clock), plus the time to fetch its summary.  The collector's poll
interval therefore never shows in a latency.  A submission that fails
or is refused counts as infinitely late.
"""

from __future__ import annotations

import math
import os
import queue
import random
import subprocess
import sys
import threading
import time

import common
import grids

#: No-op resubmissions of completed submissions (resume_s is their median).
RESUBMISSIONS = 30
#: Every IDENTITY_EVERY-th submission is re-run in-process and its
#: served summary compared byte for byte.
IDENTITY_EVERY = 4
#: Collector poll interval while the open loop runs (seconds).
POLL_S = 0.05
#: Time a loop probe needs before the next due time: twice the probe's
#: reference time, so a probe on a slow host does not delay a submission.
PROBE_ROOM_S = 0.1


def spawn_daemon(workdir: str, idx: int) -> tuple[subprocess.Popen, str]:
    port_file = os.path.join(workdir, f"daemon{idx}.port")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "serve",
         "--jobs", "1", "--slots", "1", "--port", "0",
         "--port-file", port_file],
        env=common.program_env(), stdout=subprocess.DEVNULL,
    )
    return proc, common.wait_for_file(port_file, proc, 60.0)


def payload(specs, store: str) -> dict:
    return {"specs": [spec.to_dict() for spec in specs], "store": store,
            "backend": "auto"}


def wait_finished(client, job_id: str, deadline: float, poll: float) -> dict:
    """The job document once the daemon has stamped ``finished_at``
    (the state turns terminal a moment before the stamp lands)."""
    while True:
        doc = client.job(job_id)
        if doc.get("finished_at") is not None:
            return doc
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {doc['state']}")
        time.sleep(poll)


def start_daemon(seed: int, workdir: str, idx: int, deadline: float):
    """Spawn a daemon and run the untimed warm-up submission; returns
    the process, a client and the set-up time (spawn to the warm-up's
    ``finished_at``)."""
    from repro.engine.service import ServiceClient, ServiceError

    spawned = time.time()
    proc, url = spawn_daemon(workdir, idx)
    client = ServiceClient(url)
    while True:
        try:
            client.health()
            break
        except ServiceError:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise
            time.sleep(0.005)
    job = client.submit(payload(grids.served_warmup(seed),
                                os.path.join(workdir, f"warm{idx}.jsonl")))
    doc = wait_finished(client, job["id"], deadline, 0.005)
    if doc["state"] != "done":
        raise RuntimeError(f"warm-up submission ended {doc['state']}")
    return proc, client, doc["finished_at"] - spawned


def session(seed: int, seconds: float, workdir: str, setups: int,
            tracer, deadline: float) -> dict:
    """One daemon session: ``setups`` daemon start-ups (all but the last
    torn down again), then the open loop, the resubmissions and the
    output checks against the last daemon."""
    from repro.engine.service import ServiceError

    os.makedirs(workdir, exist_ok=True)
    proc = None
    try:
        # Each start-up lies between two start-up probes, taken with no
        # daemon running or with the last one idle.
        setup_samples, setup_probes = [], [common.startup_probe()]
        for idx in range(setups):
            proc, client, setup_s = start_daemon(seed, workdir, idx, deadline)
            setup_samples.append(setup_s)
            if idx < setups - 1:
                common.stop(proc)
                proc = None
            setup_probes.append(common.startup_probe())

        due_offsets, subs = grids.served(seed, seconds)
        payloads = [
            payload(specs, os.path.join(workdir, f"s{i}.jsonl"))
            for i, specs in enumerate(subs)
        ]
        records = [{} for _ in subs]
        handoff: queue.Queue = queue.Queue()
        # How many submissions the collector is through with (finished
        # and fetched); the daemon is idle when that is all sent ones.
        collected = [0]
        idle = threading.Condition()

        def call(op, name, fn, *args):
            if tracer is None:
                return fn(*args)
            return tracer.operation(op, name, fn, *args)

        def collect() -> None:
            for i, rec in enumerate(records):
                if handoff.get() is None:
                    return
                if "id" in rec:
                    try:
                        rec["doc"] = call(i + 1, "bench.collect",
                                          wait_finished, client, rec["id"],
                                          deadline, POLL_S)
                        t = time.perf_counter()
                        rec["text"] = call(i + 1, "bench.fetch",
                                           client.results_text, rec["id"])
                        rec["fetch_s"] = time.perf_counter() - t
                    except (ServiceError, TimeoutError) as exc:
                        rec["error"] = str(exc)
                with idle:
                    collected[0] = i + 1
                    idle.notify()

        # Host speed (see common.PROBE_REFERENCE_S) right after the last
        # set-up, in each probe window of the open loop (grids.PROBE_GAP_S),
        # after the loop, and after each resubmission.  A loop probe is
        # taken only while the daemon is idle — every sent submission
        # finished and fetched — with PROBE_ROOM_S left before the next
        # due time, so the program's own load never slows a probe down.
        probes = [common.host_probe()]
        loop_probes = []
        pids = common.descendants(proc.pid)
        cpu0 = common.proc_cpu_s(pids)
        start = time.time() + 0.1
        collector = threading.Thread(target=collect, name="collector")
        collector.start()
        try:
            for i, rec in enumerate(records):
                due = start + due_offsets[i]
                if i and i % grids.PROBE_EVERY == 0:
                    with idle:
                        quiet = idle.wait_for(
                            lambda: collected[0] == i,
                            max(0.0, due - PROBE_ROOM_S - time.time()))
                    if quiet and due - time.time() > PROBE_ROOM_S:
                        loop_probes.append(common.probe_once())
                delay = due - time.time()
                if delay > 0:
                    time.sleep(delay)
                rec["due"] = due
                rec["sent"] = time.time()
                try:
                    job = call(i + 1, "bench.submit", client.submit,
                               payloads[i])
                    rec["id"] = job["id"]
                except ServiceError as exc:
                    rec["error"] = str(exc)
                handoff.put(i)
        finally:
            # Stops the collector early if the loop above was cut short;
            # after a full loop it is never read.
            handoff.put(None)
            collector.join(max(1.0, deadline - time.monotonic()))
        pids = sorted(set(pids) | set(common.descendants(proc.pid)))
        cpu = common.cpu_delta(cpu0, common.proc_cpu_s(pids))
        probes.append(common.host_probe())

        # Each resubmission is short and the daemon idle between two, so
        # a probe right after it (and the one before) follows the host's
        # speed closely enough.
        ref = common.PROBE_REFERENCE_S
        resume_walls, resume_scaled, resume_probes = [], [], []
        resume_failed = 0
        before = probes[-1]
        rng = random.Random(seed)
        for _ in range(RESUBMISSIONS):
            i = rng.randrange(len(subs))
            t = time.time()
            try:
                job = client.submit(payloads[i])
                doc = wait_finished(client, job["id"], deadline, 0.005)
                t_fetch = time.perf_counter()
                text = client.results_text(job["id"])
                fetch = time.perf_counter() - t_fetch
            except (ServiceError, TimeoutError):
                doc = None
            after = common.probe_once()
            if (doc is None or doc["state"] != "done"
                    or text != records[i].get("text")):
                resume_failed += 1
            else:
                wall = doc["finished_at"] - t + fetch
                resume_walls.append(wall)
                resume_scaled.append(wall * 2 * ref / (before + after))
            resume_probes.append(after)
            before = after
        if not resume_walls:
            raise RuntimeError("every no-op resubmission failed")
        peak_rss = common.proc_peak_rss_mb(common.descendants(proc.pid))
        daemon_metrics = client.metrics() if tracer is not None else None
    finally:
        common.stop(proc)
    loop = [probes[0], *loop_probes, probes[1]]
    result = summarize(subs, records, setup_samples, cpu,
                       ref * len(loop) / sum(loop), peak_rss,
                       daemon_metrics, seed)
    result["resume_s"] = resume_walls
    result["resume_scaled_s"] = resume_scaled
    result["probes"] = probes
    result["loop_probes"] = loop_probes
    result["resume_probes"] = resume_probes
    result["checks"]["resubmissions_failed"] = resume_failed
    result["setup_probes"] = setup_probes
    return result


def summarize(subs, records, setup_samples, cpu, factor, peak_rss,
              daemon_metrics, seed) -> dict:
    """End-to-end numbers and output checks of one session; ``factor``
    scales the open loop's timings to the reference host speed."""
    from repro.engine import Campaign

    latencies, lateness = [], []
    busy = scenarios = done = 0
    check = {"ok": 0, "not_ok": 0, "missing": 0, "violations": 0,
             "order_ok": True}
    identity = {"sampled": 0, "identical": True}
    for i, (specs, rec) in enumerate(zip(subs, records)):
        doc = rec.get("doc")
        if "sent" in rec:
            lateness.append(rec["sent"] - rec["due"])
        if doc is None or doc["state"] != "done" or "text" not in rec:
            latencies.append(math.inf)
            check["missing"] += len(specs)
            continue
        done += 1
        latencies.append(doc["finished_at"] - rec["due"] + rec["fetch_s"])
        busy += doc["finished_at"] - doc["started_at"]
        scenarios += len(specs)
        lines = rec["text"].splitlines()
        part = common.check_summary(
            lines, [(s.scenario_id, s.n, s.k) for s in specs])
        for key in ("ok", "not_ok", "missing", "violations"):
            check[key] += part[key]
        check["order_ok"] &= part["order_ok"]
        if i % IDENTITY_EVERY == seed % IDENTITY_EVERY:
            local = Campaign(specs, store=None, backend="auto")
            local.run()
            mine = "".join(
                line + "\n" for line in local.store.summary_lines(specs))
            identity["sampled"] += 1
            identity["identical"] &= mine == rec["text"]
    check["identity"] = identity
    result = {
        "submissions": len(subs),
        "done": done,
        "scenarios": scenarios,
        # Throughput is scenarios per second of daemon busy time.
        "report_ok": check["ok"],
        "wall_s": busy,
        "rate_scaled": check["ok"] / (busy * factor),
        "setup_samples": setup_samples,
        "cpu_s": cpu,
        "cpu_per_scenario_scaled_s": cpu * factor / max(1, scenarios),
        "peak_rss_mb": peak_rss,
        "latency_p50_s": common.percentile(latencies, 50),
        "latency_p90_s": common.percentile(latencies, 90),
        "latency_p50_scaled_s": common.percentile(latencies, 50) * factor,
        "latency_p90_scaled_s": common.percentile(latencies, 90) * factor,
        "latency_samples": len(latencies),
        "latency_above_p90": common.above(latencies, 90),
        "latency_sum_s": sum(latencies),
        "measured_scaled_s": sum(latencies) * factor,
        "lateness_mean_s": sum(lateness) / max(1, len(lateness)),
        "lateness_max_s": max(lateness, default=0.0),
        "checks": check,
        "records": records,
    }
    if daemon_metrics is not None:
        result["daemon_metrics"] = daemon_metrics
    return result


def layer_metrics(session_result: dict, tracer) -> tuple[dict, dict]:
    """Per-layer numbers of a traced session: the service layer from the
    client's spans and the daemon's job timestamps, the executor and
    work counters from the daemon's ``/metrics``."""
    from repro.engine import Recorder
    from spans import recorder_metrics

    records = session_result["records"]
    totals = tracer.totals()
    lateness = submit = queue_s = run = 0.0
    timed_ids = set()
    for rec in records:
        doc = rec.get("doc")
        if "sent" in rec:
            lateness += rec["sent"] - rec["due"]
        if doc is None:
            continue
        timed_ids.add(doc["id"])
        submit += doc["submitted_at"] - rec["sent"]
        queue_s += doc["started_at"] - doc["submitted_at"]
        run += doc["finished_at"] - doc["started_at"]
    results = totals.get("service.results_text", {}).get("incl", 0.0)
    # Sum the timed submissions' Recorder snapshots from /metrics (their
    # free-form info differs per campaign, and merging refuses that).
    merged = Recorder()
    campaigns = session_result["daemon_metrics"].get("campaigns", {})
    for job_id, entry in campaigns.items():
        if job_id in timed_ids and "metrics" in entry:
            snap = entry["metrics"]
            volatile = dict(snap["volatile"], info={})
            merged.merge({"deterministic": snap["deterministic"],
                          "volatile": volatile})
    snapshot = merged.snapshot()
    layers, counters = recorder_metrics(snapshot)
    daemon_run = snapshot["volatile"]["durations"].get(
        "campaign.run_s", {}).get("total_s", 0.0)
    # Covered: the service layer's own intervals (submit, queue, summary
    # fetch) and, of each job's run, what the daemon's Campaign.run
    # timed.  The generator's lateness and the rest of the run are not.
    measured = session_result["latency_sum_s"]
    covered = submit + queue_s + min(run, daemon_run) + results
    layers.update({
        "service.submit_s": submit,
        "service.queue_s": queue_s,
        "service.run_s": run,
        "service.results_s": results,
        "service.lateness_s": lateness,
        "campaign.run_s": measured,
        "trace.coverage_pct": 100.0 * covered / measured,
    })
    extra = {"daemon_campaign_run_s": daemon_run, "counters": counters}
    return layers, extra
