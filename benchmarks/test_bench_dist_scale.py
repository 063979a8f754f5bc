"""DIST-SCALE: distributed batch execution vs the single-host backend.

Ships a TERMINATION-style batched ensemble to real ``repro worker``
subprocesses through :func:`repro.engine.remote.execute_remote` and
compares against the in-process batched backend.  Per-scenario journal
lines are asserted byte-identical across serial and every fleet size
before any number is reported, so the timings always compare
*equivalent* work.  The serial, one-worker and two-worker legs are then
timed interleaved, best of :data:`TIMED_ROUNDS` rounds each, so host
load drifts hit every leg alike and the recorded overhead is a ratio of
floors rather than of single shots.

Honesty note: CI runs everything on one shared host (often a single
CPU), where "remote" workers compete with the coordinator for the same
cores — wall-clock *speedup* is not measurable there and is **not**
asserted.  What this benchmark records is the distribution overhead
(transport + shard-merge vs in-process dispatch) and per-fleet
throughput; real scaling needs real machines.  The only enforced bound
is a generous overhead ceiling for the single-worker fleet, which
catches pathological serialization/merge regressions without flaking on
loaded boxes.
"""

from __future__ import annotations

import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from bench_timing import interleaved_best

from repro.analysis.reporting import format_table
from repro.engine.executor import execute_scenarios
from repro.engine.remote import execute_remote
from repro.engine.scenarios import termination_grid
from repro.engine.store import journal_line

# Single-worker remote dispatch repeats the serial work plus transport
# and merge; measured ~1.1-1.3x serial on an idle box.  The ceiling is
# deliberately loose — it exists to catch a pathological regression
# (e.g. per-record reconnects), not to measure.
MAX_SINGLE_WORKER_OVERHEAD = 4.0

# Interleaved rounds per leg.  On a 2-vCPU host each leg of the
# 96-scenario grid takes 50-70 ms, so the timing costs ~4 s; single
# shots of these legs swing by up to 1.6x there, and even the best-of-20
# single-worker overhead read 0.02-0.42 over six back-to-back runs.
TIMED_ROUNDS = 20

# The same rounds cut into blocks: each block's best-of-BLOCK_ROUNDS
# overhead is one more reading of the same quantity, so their min,
# median and max show how far apart one run's readings already fall.
BLOCK_ROUNDS = 5


def _boot_workers(tmp_path, count):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(pathlib.Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    procs, endpoints = [], []
    for i in range(count):
        port_file = tmp_path / f"w{i}.port"
        procs.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--listen", "127.0.0.1:0",
                    "--port-file", str(port_file),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )
    deadline = time.monotonic() + 30.0
    for i in range(count):
        port_file = tmp_path / f"w{i}.port"
        while not (port_file.exists() and port_file.read_text().strip()):
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker {i} never wrote its port file")
            time.sleep(0.05)
        endpoints.append(port_file.read_text().strip())
    return procs, endpoints


def _stop_workers(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate(timeout=10)


def _block_overheads(rounds, size):
    """The single-worker overhead of each block of ``size`` consecutive
    rounds, from the block's serial and one-worker floors."""
    overheads = []
    for start in range(0, len(rounds), size):
        block = rounds[start:start + size]
        serial = min(walls[0] for walls in block)
        overheads.append(min(walls[1] for walls in block) / serial - 1.0)
    return overheads


def test_bench_dist_scale(benchmark, emit, record_dist_scale, tmp_path):
    specs = termination_grid(ns=[8, 10], seeds=range(48), noise=0.15)
    serial_lines = [
        journal_line(r) for r in execute_scenarios(specs, backend="batched")
    ]

    procs, endpoints = _boot_workers(tmp_path, 2)
    try:
        for count in (1, 2):
            results = execute_remote(
                specs, endpoints[:count], backend="batched"
            )
            assert [journal_line(r) for r in results] == serial_lines, (
                f"remote journal lines diverged with {count} workers"
            )
        legs = [
            lambda: execute_scenarios(specs, backend="batched"),
            lambda: execute_remote(specs, endpoints[:1], backend="batched"),
            lambda: execute_remote(specs, endpoints[:2], backend="batched"),
        ]
        rounds = []
        (serial_s, one_s, two_s), _ = benchmark.pedantic(
            lambda: interleaved_best(
                legs, pairs=[], min_repeats=TIMED_ROUNDS,
                max_repeats=TIMED_ROUNDS, rounds=rounds,
            ),
            rounds=1,
            iterations=1,
        )
    finally:
        _stop_workers(procs)
    fleet_s = {1: one_s, 2: two_s}

    overhead_1w = fleet_s[1] / serial_s - 1.0
    blocks = sorted(_block_overheads(rounds, BLOCK_ROUNDS))
    assert overhead_1w < MAX_SINGLE_WORKER_OVERHEAD, (
        f"single-worker remote dispatch is {overhead_1w:+.0%} over serial "
        "— transport or shard-merge got pathologically expensive"
    )

    record_dist_scale(
        {
            "workload": "TERMINATION-style batched ensemble "
            f"(ns=[8,10], {len(specs)} scenarios)",
            "scenarios": len(specs),
            "serial_s": round(serial_s, 4),
            "fleet_s": {
                str(count): round(wall, 4)
                for count, wall in fleet_s.items()
            },
            "scenarios_per_s": {
                "serial": round(len(specs) / serial_s, 1),
                **{
                    str(count): round(len(specs) / wall, 1)
                    for count, wall in fleet_s.items()
                },
            },
            "single_worker_overhead": round(overhead_1w, 4),
            "single_worker_overhead_blocks": {
                "blocks": len(blocks),
                "min": round(blocks[0], 4),
                "median": round(statistics.median(blocks), 4),
                "max": round(blocks[-1], 4),
            },
            "method": f"interleaved best-of-{TIMED_ROUNDS} over the "
            "serial, 1-worker and 2-worker legs, after the byte-identity "
            f"runs; the blocks are the same rounds cut into "
            f"{len(blocks)} runs of {BLOCK_ROUNDS}, each block's "
            f"best-of-{BLOCK_ROUNDS} overhead summarized by min, median "
            "and max",
            "cpu_count": os.cpu_count(),
            "note": "single-host CI: workers share the coordinator's "
            "cores, so these numbers measure transport+merge overhead "
            "and byte-identity, not scaling",
        }
    )
    rows = [
        [
            "serial (in-process)",
            round(serial_s * 1e3, 1),
            round(len(specs) / serial_s, 1),
            "baseline",
        ],
    ]
    for count in sorted(fleet_s):
        wall = fleet_s[count]
        rows.append(
            [
                f"remote x{count}",
                round(wall * 1e3, 1),
                round(len(specs) / wall, 1),
                f"{wall / serial_s - 1.0:+.0%}",
            ]
        )
    emit(
        format_table(
            ["variant", "wall_ms", "scen_per_s", "vs_serial"],
            rows,
            title="DIST-SCALE — remote fleets vs in-process batched "
            f"backend ({len(specs)} scenarios; single-host CI measures "
            "dispatch overhead, not scaling; journals byte-identical)",
        )
    )
