"""Program side of the in-process and fleet workloads.

``run.py`` starts this file as a fresh interpreter, with the checkout's
``src`` on ``PYTHONPATH`` and one JSON config argument.  It prints
``{"event": "ready"}`` once set-up is done: imports, grid build, the
fleet's ``repro worker --listen`` spawn and an untimed warm-up campaign
on a disjoint grid.  In ``setup`` mode it then exits.  Otherwise it
waits for a line on its stdin, runs the timed work, the no-op resume
passes and the output checks, and prints one ``{"event": "result", ...}``
line.

The timed work is a few equal segments, each one
``Campaign.run(backend="auto")`` on a fresh journal, with a host-speed
probe before, between and after them; each resume pass is followed by a
probe too.  Each segment's timings are scaled by the probes on either
side of it (see ``common.PROBE_REFERENCE_S``), so a change of host speed
between segments does not show as a change of the program.

With ``traced`` set, the program's layers are wrapped (:mod:`spans`)
and a ``Recorder`` is passed to every timed run; the result then
carries per-layer numbers.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import common

#: Small-n scenarios per second of ``--seconds``; the timed segments
#: take about half the run, the resume passes most of the rest.
SMALL_PER_SECOND = 800
FLEET_PER_SECOND = 650
#: No-op resume passes, each followed by one probe (resume_s is the
#: median pass).  A pass resumes every segment's journal on large-n
#: (0.03 s) and one segment's, cycling through them, on the others
#: (0.2 s).
RESUME_PASSES = {"large-n": 30, "small-n-sweep": 12, "fleet": 12}
RESUME_SEGMENTS = {"large-n": None, "small-n-sweep": 1, "fleet": 1}
#: Scenarios re-run in-process to check the fleet summary bytes.
IDENTITY_SAMPLE = 300


def spawn_worker(workdir: str) -> tuple[subprocess.Popen, str]:
    port_file = os.path.join(workdir, "worker.port")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0", "--port-file", port_file],
        env=common.program_env(), stdout=subprocess.DEVNULL,
    )
    return proc, port_file


def build_grids(workload: str, seed: int, seconds: float):
    """(timed segments, warm-up grid)."""
    import grids

    if workload == "large-n":
        return grids.large_n(seed, seconds), grids.large_n_warmup(seed)
    fleet = workload == "fleet"
    per_second = FLEET_PER_SECOND if fleet else SMALL_PER_SECOND
    return (grids.small_n_segments(seed, seconds, per_second, fleet),
            grids.small_n_warmup(seed))


def resume_pass(segments, journals, workers, summary) -> int:
    """A no-op resume of complete segment journals plus their canonical
    summaries, each from a fresh Campaign (so scenario ids are hashed
    again).  Returns how many scenarios were re-executed."""
    from repro.engine import Campaign

    executed = 0
    for specs, journal in zip(segments, journals):
        campaign = Campaign(specs, store=journal, backend="auto",
                            workers=workers)
        executed += campaign.run().executed
        campaign.write_summary(summary)
    return executed


def layer_metrics(tracer, recorder, measured_s: float) -> tuple[dict, dict]:
    """Per-layer numbers from the span totals and the runs' Recorder."""
    from spans import PROGRAM_LAYERS, recorder_metrics

    totals = tracer.totals()
    layers = tracer.layer_self(totals)

    def incl(name):
        return totals.get(name, {}).get("incl", 0.0)

    def self_(name):
        return totals.get(name, {}).get("self", 0.0)

    metrics, counters = recorder_metrics(recorder.snapshot())
    remote_s = incl("remote.execute_remote")
    covered = sum(layers.get(layer, 0.0) for layer in PROGRAM_LAYERS)
    metrics.update({
        "fastpath.kernel_s": incl("fastpath.simulate_fastpath_batch"),
        "fastpath.self_s": self_("fastpath.simulate_fastpath_batch"),
        "array_backend.merge_s": incl("array_backend.masked_sender_max"),
        "array_backend.closure_s": incl("array_backend.batched_closure"),
        "adversaries.build_s": incl("adversaries.build_adversary"),
        "adversaries.fetch_s": self_("adversaries.adjacency_stack"),
        "backends.batch_s": incl("backends.execute_scenario_batch"),
        "backends.self_s": self_("backends.execute_scenario_batch"),
        "scenarios.id_s": self_("scenarios.scenario_id"),
        "scenarios.id_calls": totals.get(
            "scenarios.scenario_id", {}).get("count", 0),
        "scheduler.plan_s": incl("scheduler.plan_batches"),
        "store.append_s": incl("store.append"),
        "store.load_s": incl("store.load"),
        "store.summary_s": incl("store.write_summary"),
        "executor.self_s": layers.get("executor", 0.0),
        "remote.run_s": remote_s,
        # One worker with one unit in flight: the run's wall outside any
        # unit's round trip is time the worker sat idle.
        "remote.worker_busy_pct": (
            100.0 * metrics["executor.worker_busy_s"] / remote_s
            if remote_s else 0.0),
        "remote.gap_s": (
            max(0.0, remote_s - metrics["executor.unit_wall_s"])
            if remote_s else 0.0),
        "campaign.run_s": measured_s,
        "trace.coverage_pct": 100.0 * covered / measured_s,
    })
    extra = {
        "layers_self_s": layers,
        "layer_share_pct": {
            layer: 100.0 * value / measured_s
            for layer, value in layers.items()
        },
        "counters": counters,
    }
    return metrics, extra


def main() -> None:
    cfg = json.loads(sys.argv[1])
    workload, seed = cfg["workload"], cfg["seed"]
    workdir = cfg["workdir"]
    os.makedirs(workdir, exist_ok=True)
    worker = None
    try:
        workers = None
        if workload == "fleet":
            # Spawned before the imports so the two start in parallel,
            # as a fleet launched by a script would.
            worker, port_file = spawn_worker(workdir)
        tracer = missing = None
        if cfg["traced"]:
            import spans

            tracer = spans.Tracer()
            missing, _ = spans.install(tracer)
        from repro.engine import Campaign

        segments, warm = build_grids(workload, seed, cfg["seconds"])
        if worker is not None:
            workers = [common.wait_for_file(port_file, worker, 60.0)]
        Campaign(warm, store=os.path.join(workdir, "warm.jsonl"),
                 backend="auto", workers=workers).run()
        journals = [os.path.join(workdir, f"journal-{j}.jsonl")
                    for j in range(len(segments))]
        campaigns = [
            Campaign(specs, store=journal, backend="auto", workers=workers)
            for specs, journal in zip(segments, journals)
        ]
        common.emit({"event": "ready"})
        if cfg["mode"] == "setup":
            return
        # Idle until the parent has taken its start-up probe.
        sys.stdin.readline()
        result = measure(workload, seed, segments, journals, campaigns,
                         workers, worker, tracer, workdir)
        if tracer is not None:
            result["missing"] = missing
        common.emit(result)
    finally:
        common.stop(worker)


def measure(workload, seed, segments, journals, campaigns, workers, worker,
            tracer, workdir) -> dict:
    """The timed segments, the resume passes and the output checks."""
    from repro.engine import Recorder

    def measured(op, name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.operation(op, name, fn, *args, **kwargs)

    recorder = Recorder() if tracer is not None else None
    worker_pids = common.descendants(worker.pid) if worker else []
    ref = common.PROBE_REFERENCE_S
    probes = [common.host_probe()]
    ok = 0
    wall = cpu = scaled_wall = scaled_cpu = 0.0
    latencies, scaled_latencies, segment_walls, segment_cpu = [], [], [], []
    for j, campaign in enumerate(campaigns):
        cpu0 = common.self_cpu_s()
        worker_cpu0 = common.proc_cpu_s(worker_pids)
        start_unix = time.time()
        t0 = time.perf_counter()
        report = measured(1 + j, "bench.run", campaign.run,
                          recorder=recorder)
        seg_wall = time.perf_counter() - t0
        seg_cpu = common.self_cpu_s() - cpu0 + common.cpu_delta(
            worker_cpu0, common.proc_cpu_s(worker_pids))
        probes.append(common.host_probe())
        factor = 2 * ref / (probes[-2] + probes[-1])
        ok += report.ok
        wall += seg_wall
        cpu += seg_cpu
        scaled_wall += seg_wall * factor
        scaled_cpu += seg_cpu * factor
        segment_walls.append((seg_wall, seg_wall * factor, report.ok))
        segment_cpu.append(seg_cpu * factor / len(segments[j]))
        for _, t in campaign.store.append_times():
            latencies.append(t - start_unix)
            scaled_latencies.append((t - start_unix) * factor)

    summary = os.path.join(workdir, "summary.jsonl")
    width = RESUME_SEGMENTS[workload] or len(segments)
    resume_walls, scaled_resume, resume_probes, re_executed = [], [], [], 0
    before = probes[-1]
    for i in range(RESUME_PASSES[workload]):
        op = 1 + len(campaigns) + i
        first = (op * width) % len(segments)
        chosen = [(first + k) % len(segments) for k in range(width)]
        t = time.perf_counter()
        re_executed += measured(
            op, "bench.resume", resume_pass,
            [segments[j] for j in chosen], [journals[j] for j in chosen],
            workers, summary)
        resume_walls.append(time.perf_counter() - t)
        # A pass is short, so one probe right after it (and the one
        # before) follows the host's speed closely enough.
        after = common.probe_once()
        scaled_resume.append(resume_walls[-1] * 2 * ref / (before + after))
        resume_probes.append(after)
        before = after
    peak_rss = common.self_peak_rss_mb() + common.proc_peak_rss_mb(
        worker_pids)

    # -- output checks (untimed) ------------------------------------
    from repro.engine import ResultStore

    lines = []
    for specs, journal in zip(segments, journals):
        lines += ResultStore(journal).summary_lines(specs)
    specs = [spec for segment in segments for spec in segment]
    checks = common.check_summary(
        lines, [(spec.scenario_id, spec.n, spec.k) for spec in specs])
    checks["re_executed_on_resume"] = re_executed
    if workload == "fleet":
        checks["identity"] = fleet_identity(segments, journals, seed)
    measured_s = wall + sum(resume_walls)
    result = {
        "event": "result",
        "scenarios": len(specs),
        "segments": len(segments),
        "report_ok": ok,
        "wall_s": wall,
        "wall_scaled_s": scaled_wall,
        "measured_s": measured_s,
        "measured_scaled_s": scaled_wall + sum(scaled_resume),
        "cpu_s": cpu,
        "cpu_scaled_s": scaled_cpu,
        # Medians over segments: a segment during which the host's speed
        # changed away from what the probes on its sides saw is an
        # outlier the median drops.
        "rate_scaled": statistics.median(
            [ok / scaled for _, scaled, ok in segment_walls]),
        "cpu_per_scenario_scaled_s": statistics.median(segment_cpu),
        "peak_rss_mb": peak_rss,
        "latency_p50_s": common.percentile(latencies, 50),
        "latency_p90_s": common.percentile(latencies, 90),
        "latency_p50_scaled_s": common.percentile(scaled_latencies, 50),
        "latency_p90_scaled_s": common.percentile(scaled_latencies, 90),
        "latency_samples": len(latencies),
        "latency_above_p90": common.above(latencies, 90),
        "resume_s": resume_walls,
        "resume_scaled_s": scaled_resume,
        "probes": probes,
        "resume_probes": resume_probes,
        "segment_walls": segment_walls,
        "checks": checks,
    }
    if tracer is not None:
        metrics, extra = layer_metrics(tracer, recorder, measured_s)
        result.update(layers=metrics, **extra)
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    return result


def fleet_identity(segments, journals, seed: int) -> dict:
    """Re-run a seeded sample of the fleet grid in-process and compare
    its canonical summary lines with the fleet journals', byte for byte
    (the journal-identity contract)."""
    from repro.engine import Campaign, ResultStore

    rng = random.Random(seed)
    per_segment = max(1, IDENTITY_SAMPLE // len(segments))
    identical, sampled = True, 0
    for specs, journal in zip(segments, journals):
        chosen = [specs[i] for i in sorted(
            rng.sample(range(len(specs)), min(per_segment, len(specs))))]
        local = Campaign(chosen, store=None, backend="auto")
        local.run()
        identical &= (local.store.summary_lines(chosen)
                      == ResultStore(journal).summary_lines(chosen))
        sampled += len(chosen)
    return {"sampled": sampled, "identical": identical}


if __name__ == "__main__":
    main()
