"""The repository benchmark: end-to-end and per-layer numbers of the
campaign engine over four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The line before it is ``{"detail": ...}``: host facts, sample counts,
generator lateness, the work counters and the raw set-up samples.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("large-n", "small-n-sweep", "served", "fleet")

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "resume_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_scenario": "ms",
}

PER_LAYER = {
    "fastpath.kernel_s": "s",
    "fastpath.self_s": "s",
    "array_backend.merge_s": "s",
    "array_backend.closure_s": "s",
    "fastpath.lane_rounds": "count",
    "adversaries.build_s": "s",
    "adversaries.fetch_s": "s",
    "adversaries.rounds_fetched": "count",
    "backends.batch_s": "s",
    "backends.self_s": "s",
    "scenarios.id_s": "s",
    "scenarios.id_calls": "count",
    "scheduler.plan_s": "s",
    "scheduler.batches": "count",
    "scheduler.batched_lanes": "count",
    "scheduler.lane_fill_pct": "%",
    "store.append_s": "s",
    "store.bytes_per_scenario": "B",
    "store.load_s": "s",
    "store.summary_s": "s",
    "executor.self_s": "s",
    "executor.unit_wall_s": "s",
    "executor.queue_wait_s": "s",
    "executor.worker_busy_s": "s",
    "service.submit_s": "s",
    "service.queue_s": "s",
    "service.run_s": "s",
    "service.results_s": "s",
    "service.lateness_s": "s",
    "remote.run_s": "s",
    "remote.units": "count",
    "remote.worker_busy_pct": "%",
    "remote.gap_s": "s",
    "campaign.run_s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics that come from one wrapped callable: reported as
#: missing, not as zero, when that callable no longer exists.
METRICS_BY_SPAN = {
    "fastpath.simulate_fastpath_batch": ("fastpath.kernel_s",
                                         "fastpath.self_s"),
    "array_backend.masked_sender_max": ("array_backend.merge_s",),
    "array_backend.batched_closure": ("array_backend.closure_s",),
    "adversaries.build_adversary": ("adversaries.build_s",),
    "adversaries.adjacency_stack": ("adversaries.fetch_s",),
    "backends.execute_scenario_batch": ("backends.batch_s",
                                        "backends.self_s"),
    "scenarios.scenario_id": ("scenarios.id_s", "scenarios.id_calls"),
    "scheduler.plan_batches": ("scheduler.plan_s",),
    "store.append": ("store.append_s",),
    "store.load": ("store.load_s",),
    "store.write_summary": ("store.summary_s",),
    "remote.execute_remote": ("remote.run_s", "remote.worker_busy_pct",
                              "remote.gap_s"),
    "service.results_text": ("service.results_s",),
}

#: Program start-ups per run; setup_s is their median.
SETUPS = 5
#: Every run must end well within the 180 s the caller allows.
RUN_BUDGET_S = 170.0
SELF_TEST_SECONDS = 1.0


class Lines:
    """Line reader over a child's stdout with a deadline (select-based,
    so a hung child cannot hang the benchmark)."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.fd = proc.stdout.fileno()
        self.buf = b""

    def next(self, deadline: float) -> dict:
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("child did not report in time")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("child exited without reporting")
                self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)


def run_child(cfg: dict, deadline: float) -> tuple[float, float, dict | None]:
    """Start ``child.py`` and time it until it is ready; then take a
    start-up probe, with the child exited (``setup`` mode) or idle on
    its stdin until it is told to go on.  Returns (spawn-to-ready
    seconds, probe, result or ``None``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=common.program_env(),
    )
    try:
        lines = Lines(proc)
        if lines.next(deadline).get("event") != "ready":
            raise RuntimeError("child spoke before it was ready")
        setup_s = time.perf_counter() - t0
        result = None
        if cfg["mode"] == "setup":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            probe = common.startup_probe()
        else:
            probe = common.startup_probe()
            proc.stdin.write(b"go\n")
            proc.stdin.flush()
            result = lines.next(deadline)
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with {proc.returncode}")
        return setup_s, probe, result
    finally:
        proc.stdin.close()
        proc.stdout.close()
        common.stop(proc)


def child_session(workload, seed, seconds, traced, workdir, setups, deadline):
    """``setups`` start-ups of the program side, each between two
    start-up probes; the last one goes on to the timed work."""
    samples, setup_probes = [], [common.startup_probe()]
    for i in range(setups):
        cfg = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "workdir": os.path.join(workdir, f"c{i}"),
            "mode": "run" if i == setups - 1 else "setup",
        }
        setup_s, probe, result = run_child(cfg, deadline)
        samples.append(setup_s)
        setup_probes.append(probe)
    result["setup_samples"] = samples
    result["setup_probes"] = setup_probes
    return result


def session(workload, seed, seconds, tracer, workdir, setups, deadline):
    if workload == "served":
        import served

        return served.session(seed, seconds, workdir, setups, tracer,
                              deadline)
    return child_session(workload, seed, seconds, tracer is not None,
                         workdir, setups, deadline)


def end_to_end(r: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics of one session, scaled to the reference
    host speed (``scaled=False``: as timed on this host).  Each set-up
    is scaled by the start-up probes taken just before and after it."""
    ref = common.STARTUP_REFERENCE_S
    probes = r["setup_probes"]
    setups = [
        s * (2 * ref / (before + after) if scaled else 1.0)
        for s, before, after in zip(r["setup_samples"], probes, probes[1:])
    ]
    tag = "_scaled" if scaled else ""
    return {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": (
            r["rate_scaled"] if scaled else r["report_ok"] / r["wall_s"]),
        "resume_s": statistics.median(r[f"resume{tag}_s"]),
        "latency_p50_s": r[f"latency_p50{tag}_s"],
        "latency_p90_s": r[f"latency_p90{tag}_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "cpu_ms_per_scenario": 1000.0 * (
            r["cpu_per_scenario_scaled_s"] if scaled
            else r["cpu_s"] / r["scenarios"]),
    }


def accounting(workload: str, r: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed) of one session."""
    checks = r["checks"]
    failed = checks["not_ok"] + checks["missing"]
    correct = checks["violations"] == 0 and checks["order_ok"]
    if workload == "served":
        attempted = r["scenarios"] + r["submissions"] + len(r["resume_s"])
        failed += r["submissions"] - r["done"]
        failed += checks["resubmissions_failed"]
        attempted += checks["resubmissions_failed"]
    else:
        attempted = r["scenarios"]
        correct &= checks["re_executed_on_resume"] == 0
    if "identity" in checks:
        correct &= checks["identity"]["identical"]
    return correct and failed == 0, attempted, failed


def host_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def detail_of(workload: str, r: dict) -> dict:
    keys = ("scenarios", "segments", "submissions", "done", "wall_s",
            "measured_s", "latency_samples", "latency_above_p90",
            "lateness_mean_s", "lateness_max_s", "setup_samples",
            "setup_probes", "probes", "loop_probes", "resume_probes",
            "segment_walls",
            "resume_s", "checks",
            "counters", "layers_self_s", "layer_share_pct", "missing",
            "daemon_campaign_run_s")
    return {key: r[key] for key in keys if key in r}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, deadline: float) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    import spans

    if not trace:
        r = session(workload, seed, seconds, None, workdir, SETUPS, deadline)
        correct, attempted, failed = accounting(workload, r)
        metrics = end_to_end(r)
        units = END_TO_END
        detail = {"untraced": detail_of(workload, r),
                  "unscaled": end_to_end(r, scaled=False)}
    else:
        # The untraced twin runs first, on the same inputs, so the
        # difference between the two walls is the tracing overhead.
        plain = session(workload, seed, seconds, None,
                        os.path.join(workdir, "plain"), 1, deadline)
        tracer = spans.Tracer()
        undo = []
        if workload == "served":
            # The client runs here: wrap its calls in this process.
            missing, undo = spans.install(tracer)
        try:
            traced = session(workload, seed, seconds, tracer,
                             os.path.join(workdir, "traced"), 1, deadline)
        finally:
            spans.uninstall(undo)
        correct_a, attempted_a, failed_a = accounting(workload, plain)
        correct_b, attempted_b, failed_b = accounting(workload, traced)
        correct = correct_a and correct_b
        attempted, failed = attempted_a + attempted_b, failed_a + failed_b
        if workload == "served":
            import served

            layers, extra = served.layer_metrics(traced, tracer)
            traced.update(extra, missing=missing)
            span_log = os.path.join(workdir, "traced", "spans.jsonl")
            tracer.write(span_log)
        else:
            layers = traced["layers"]
            missing = traced["missing"]
            span_log = os.path.join(workdir, "traced", "c0", "spans.jsonl")
        # Both walls at the reference host speed, so a change of host
        # speed between the two sessions does not read as overhead.
        base = plain["measured_scaled_s"]
        with_spans = traced["measured_scaled_s"]
        layers["trace.overhead_pct"] = 100.0 * (with_spans - base) / base
        dropped = {
            metric for span in missing
            for metric in METRICS_BY_SPAN.get(span, ())
        }
        # A layer this workload never calls reads zero.
        metrics = {
            name: layers.get(name, 0 if PER_LAYER[name] == "count" else 0.0)
            for name in PER_LAYER if name not in dropped
        }
        units = PER_LAYER
        keep = os.path.join(".perfbench", f"spans-{workload}-s{seed}.jsonl")
        shutil.copyfile(span_log, keep)
        detail = {
            "untraced": detail_of(workload, plain),
            "traced": detail_of(workload, traced),
            "trace_overhead_s": with_spans - base,
            "missing_metrics": sorted(dropped),
            "spans": keep,
        }
    detail["host"] = host_facts()
    detail["workload"] = {"name": workload, "seed": seed, "seconds": seconds}
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return line, detail


def one_run(workload, seed, seconds, trace) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(".perfbench", f"{workload}-s{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run_workload(workload, seed, seconds, trace, workdir,
                            deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_test() -> int:
    """Every workload end to end at a small size, with its checks."""
    problems, shares = [], {}
    for workload in WORKLOADS:
        started = time.monotonic()
        plain, detail = one_run(workload, 1, SELF_TEST_SECONDS, False)
        first, first_detail = one_run(workload, 1, SELF_TEST_SECONDS, True)
        again, again_detail = one_run(workload, 1, SELF_TEST_SECONDS, True)
        other, other_detail = one_run(workload, 2, SELF_TEST_SECONDS, True)
        for line, names in ((plain, END_TO_END), (first, PER_LAYER)):
            if not line["correct"] or line["failed"]:
                problems.append(f"{workload}: outputs failed their checks")
            got = line["metrics"]
            for name, unit in names.items():
                if got.get(name, {}).get("unit") != unit:
                    problems.append(f"{workload}: {name} missing or unit")
        coverage = first["metrics"]["trace.coverage_pct"]["value"]
        if coverage < 90.0:
            problems.append(f"{workload}: layer self times cover only "
                            f"{coverage:.1f}% of the measured wall")
        # No end-to-end metric may be read off another one's timer.
        seen: dict = {}
        for name, entry in plain["metrics"].items():
            key = (entry["unit"], entry["value"])
            if key in seen:
                problems.append(f"{workload}: {name} == {seen[key]}")
            seen.setdefault(key, name)
        # The program's deterministic counters repeat exactly at one
        # seed and, per scenario, stay within a tenth across seeds.
        runs = [d["traced"] for d in (first_detail, again_detail,
                                      other_detail)]
        counters = [run["counters"] for run in runs]
        if counters[0] != counters[1]:
            problems.append(f"{workload}: work counters differ at one seed "
                            f"{counters[0]} vs {counters[1]}")
        for name, value in counters[0].items():
            mine = value / runs[0]["scenarios"]
            other = counters[2][name] / runs[2]["scenarios"]
            if not value or abs(other - mine) > 0.1 * mine:
                problems.append(f"{workload}: {name} per scenario not close "
                                f"across seeds ({mine:.1f} vs {other:.1f})")
        shares[workload] = runs[0].get("layer_share_pct", {})
        host = detail["host"]
        if not all(host.get(k) for k in ("nproc", "python", "numpy", "blas")):
            problems.append(f"host facts incomplete: {host}")
        print(f"self-test {workload}: {time.monotonic() - started:.1f}s, "
              f"counters {counters[0]}", flush=True)
    # The kernel is most of large-n and a minority of small-n-sweep; the
    # store is the reverse.
    big, small = shares["large-n"], shares["small-n-sweep"]
    if not (big.get("kernel", 0) > 50 > small.get("kernel", 0)
            and small.get("store", 0) > big.get("store", 0)):
        problems.append(f"layer shares: large-n {big}, small-n {small}")
    for problem in problems:
        print("FAIL", problem, flush=True)
    print("self-test", "failed" if problems else "passed", flush=True)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a small size and "
                        "check metrics, units, timers and counters")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no program here (src/repro is missing); run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    # The served workload's client and the output checks import the
    # program from source, like its own processes do.
    sys.path.insert(0, os.path.abspath("src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    line, detail = one_run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
