"""Helpers shared by the benchmark runner and its program-side child.

Nothing here imports the program: the runner must be able to start (and
refuse to run) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

#: Clock ticks per second for ``/proc/<pid>/stat`` CPU fields.
_TICKS = os.sysconf("SC_CLK_TCK")


#: Mean :func:`probe_once` time, in seconds, on the reference host (a
#: 2-vCPU VM whose speed drifts by a fifth or more over minutes).  Every
#: timing a run reports, set-up times aside (see STARTUP_REFERENCE_S),
#: is scaled by this over the probe time measured in the same run around
#: the same phase, so it reads as if taken at the reference speed; the
#: raw timings go to the detail line.
PROBE_REFERENCE_S = 0.05


def probe_once() -> float:
    """Seconds for a fixed CPU task mixing the program's kinds of work:
    interpreted Python, JSON records with content hashes (as the journal
    and scenario ids do) and small NumPy tensor kernels.  It runs no
    program code, so a change to the program cannot move it."""
    import hashlib

    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    for i in range(1_500):
        line = json.dumps({"id": i, "spec": {"n": i % 9, "seed": acc},
                           "metrics": list(range(12))}, sort_keys=True)
        hashlib.sha256(line.encode()).hexdigest()
        json.loads(line)
    adj = (np.arange(64 * 24 * 24).reshape(64, 24, 24) % 7 == 0).astype(
        np.float32)
    for _ in range(60):
        np.minimum(adj @ adj, 1.0)
        np.maximum.reduce(
            np.broadcast_to(adj[:8, None], (8, 24, 24, 24)), axis=2)
    return time.perf_counter() - t0


def host_probe(reps: int = 5) -> float:
    """Mean :func:`probe_once` time over ``reps`` repetitions."""
    return sum(probe_once() for _ in range(reps)) / reps


#: Mean :func:`startup_probe` time, in seconds, on the reference host.
#: Set-up times are scaled by this over the start-up probes taken just
#: before and just after each set-up.
STARTUP_REFERENCE_S = 0.3

_STARTUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import argparse, concurrent.futures, http.client, http.server, "
    "multiprocessing, socket, common; common.probe_once()"
)


def startup_probe() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    NumPy and the standard-library modules the program's start-up also
    loads, and run :func:`probe_once` once.  A set-up is mostly
    interpreter start-up and imports, which this follows more closely
    than the in-process probe does; it runs no program code either."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _STARTUP_CODE,
         os.path.dirname(os.path.abspath(__file__))],
        check=True, env=program_env(), stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def emit(doc: dict) -> None:
    """Write one JSON line to stdout and flush (the child protocol)."""
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def above(values: list[float], pct: float) -> int:
    """How many samples lie strictly above the nearest-rank position of
    ``pct`` (the sample count backing that percentile's tail)."""
    return len(values) - max(1, math.ceil(pct / 100.0 * len(values)))


def program_env() -> dict:
    """Environment for program processes: the checkout's ``src`` first
    on ``PYTHONPATH`` (the program is run from source, not installed)."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants(pid: int) -> list[int]:
    """``pid`` and every live descendant (from ``/proc`` child lists)."""
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        found.append(current)
        try:
            tids = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    frontier.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
    return found


def proc_cpu_s(pids: list[int]) -> dict[int, float]:
    """User + system CPU seconds of each live pid."""
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                raw = fh.read()
        except OSError:
            continue
        # Fields after the parenthesized command name; utime and stime
        # are fields 14 and 15 of the full line.
        fields = raw[raw.rindex(")") + 2:].split()
        out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS
    return out


def proc_peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set (``VmHWM``) of the live pids, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU spent between two :func:`proc_cpu_s` readings; a process that
    appeared in between counts from zero."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def wait_for_file(path: str, proc: subprocess.Popen, timeout: float) -> str:
    """Poll until ``path`` exists (a port file); fail fast when the
    process that should write it exits first."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if proc.poll() is not None:
            raise RuntimeError(
                f"{proc.args[3:5]} exited with {proc.returncode} "
                "before announcing its address"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"no port file {path} after {timeout}s")
        time.sleep(0.005)
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def stop(proc: subprocess.Popen | None, grace: float = 10.0) -> None:
    """SIGTERM a process, wait for it, SIGKILL after ``grace`` seconds;
    then kill any descendant it left behind and reap the process."""
    if proc is None:
        return
    family = descendants(proc.pid) if proc.poll() is None else [proc.pid]
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    leftovers = []
    for pid in family[1:]:
        try:
            os.kill(pid, signal.SIGKILL)
            leftovers.append(pid)
        except OSError:
            pass
    # Orphans are not our children, so they cannot be reaped here; wait
    # until they are gone from the process table instead.
    deadline = time.monotonic() + grace
    while leftovers and time.monotonic() < deadline:
        leftovers = [p for p in leftovers if os.path.exists(f"/proc/{p}")]
        time.sleep(0.01)


def check_summary(lines: list[str],
                  expected: list[tuple[str, int, int]]) -> dict:
    """Check canonical summary lines against the grid they summarize.

    ``expected`` is ``(scenario id, n, k)`` per scenario in grid order.
    A record passes when it is present in order, ``ok``, and its
    decision values show k-agreement (at most ``k`` distinct values) and
    validity (every value is some process's proposal ``0..n-1``), with
    the record's own verdicts agreeing.  Returns the counts."""
    records = [json.loads(line) for line in lines]
    by_id = {record["id"]: record for record in records}
    order_ok = [record["id"] for record in records] == [
        sid for sid, _, _ in expected if sid in by_id
    ]
    ok = not_ok = missing = violations = 0
    for sid, n, k in expected:
        record = by_id.get(sid)
        if record is None:
            missing += 1
            continue
        if record["status"] != "ok":
            not_ok += 1
            continue
        ok += 1
        values = record["decision_values"]
        metrics = record["metrics"]
        if not (
            len(set(values)) <= k
            and all(0 <= v < n for v in values)
            and metrics["k_agreement_holds"] is True
            and metrics["validity_holds"] is True
        ):
            violations += 1
    return {"ok": ok, "not_ok": not_ok, "missing": missing,
            "violations": violations, "order_ok": order_ok}
