"""Benchmark-harness helpers.

Every benchmark prints the experiment's result table (the rows the paper
would report) through :func:`emit`, which both echoes to stdout (visible
with ``pytest -s`` / captured in CI logs) and persists to
``benchmarks/results.txt`` so EXPERIMENTS.md can be regenerated from one
file.

Sections in results.txt are keyed by their banner line (``TAG — desc``):
re-emitting a table replaces the previous copy in place, so any pytest
invocation that happens to collect benchmarks — not just the canonical
``pytest benchmarks -q --benchmark-only`` run — leaves exactly one copy
of each table instead of appending duplicates.

:func:`record_fastpath` additionally maintains a *machine-readable* perf
trajectory in ``benchmarks/BENCH_FASTPATH.json`` (per-workload wall-clock
for the reference vs vectorized execution backend, plus host metadata),
so future PRs can track backend speedups without parsing tables.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import statistics

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"
BENCH_FASTPATH_PATH = pathlib.Path(__file__).parent / "BENCH_FASTPATH.json"

# Banner convention for every emitted table.  Bodies may contain blank
# lines (FIG1's panels), so sections are delimited by banner lines, not
# paragraph breaks.
_BANNER = re.compile(r"^[A-Z][A-Za-z0-9()-]* — ")


def _split_sections(text: str) -> list[tuple[str, list[str]]]:
    """Parse results.txt into ordered ``(banner, lines)`` sections."""
    sections: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for line in text.splitlines():
        if _BANNER.match(line):
            current = [line]
            sections.append((line, current))
        elif current is not None:
            current.append(line)
    return sections


def _render(sections: list[tuple[str, list[str]]]) -> str:
    return "".join("\n".join(lines).rstrip() + "\n\n" for _, lines in sections)


def pytest_configure(config):
    # Canonical full runs start from a fresh file so renamed/retired
    # benchmarks don't leave stale sections behind.  Only whole-directory
    # sessions truncate: a selective `pytest benchmarks/test_x.py
    # --benchmark-only` must not wipe the other sections (the upsert in
    # emit() keeps them duplicate-free either way).
    if not config.getoption("--benchmark-only", default=False):
        return
    bench_dir = RESULTS_PATH.parent.resolve()
    targets = [
        pathlib.Path(arg.split("::", 1)[0]).resolve()
        for arg in (config.args or ["."])
    ]
    if all(t in (bench_dir, bench_dir.parent) for t in targets):
        RESULTS_PATH.write_text("")


@pytest.fixture
def record_fastpath():
    """Upsert one workload's backend comparison into BENCH_FASTPATH.json.

    Each entry records wall-clock for the reference, vectorized and (when
    measured) mega-batched backends over the same scenario list, plus the
    host it was measured on (per entry, so partial re-runs on another
    machine stay correctly attributed).  File level:

    * ``median_speedup`` — vectorized over reference, median across
      workloads (the historical trajectory number);
    * ``median_speedup_batched`` — batched over reference;
    * ``median_batched_vs_vectorized`` — the *additional* gain of
      mega-batching, median across every recorded per-``n`` group (the
      ``groups`` lists inside the workload entries) so small and large
      ``n`` weigh equally;
    * ``median_compaction_gain`` (schema 3) — the batch scheduler's
      lane-compaction gain over mask-only batching (the PR-4 kernel
      behavior), median across every group that records a
      ``compaction_gain`` (the heterogeneous-latency ensembles);
    * ``median_packing_gain`` (schema 4) — cross-``n`` lane packing
      over the per-``n`` grouping (the PR-5 scheduler behavior), median
      across every group recording a ``packing_gain`` (the mixed-width
      ensembles).

    Every write rebuilds all file-level ``median_*`` keys from the
    current workload entries and drops any median that no entry feeds,
    so a retired benchmark leg cannot leave a stale median behind.
    """

    def _record(
        workload: str,
        reference_s: float,
        vectorized_s: float,
        scenarios: int,
        batched_s: float | None = None,
        extra: dict | None = None,
    ) -> None:
        import numpy

        data: dict = {}
        if BENCH_FASTPATH_PATH.exists():
            try:
                data = json.loads(BENCH_FASTPATH_PATH.read_text())
            except json.JSONDecodeError:
                data = {}
        if not isinstance(data, dict):
            data = {}
        entry = {
            "scenarios": scenarios,
            "reference_s": round(reference_s, 4),
            "vectorized_s": round(vectorized_s, 4),
            "speedup": round(reference_s / vectorized_s, 2),
            # Host metadata lives *per workload* so a partial re-run on a
            # different machine cannot misattribute the untouched entries.
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "cpu_count": os.cpu_count(),
            },
        }
        if batched_s is not None:
            entry["batched_s"] = round(batched_s, 4)
            entry["speedup_batched"] = round(reference_s / batched_s, 2)
            entry["speedup_batched_vs_vectorized"] = round(
                vectorized_s / batched_s, 2
            )
        if extra:
            entry.update(extra)
        workloads = data.setdefault("workloads", {})
        workloads[workload] = entry
        data.pop("host", None)  # legacy file-level host block
        data["schema"] = 5

        def group_values(key: str) -> list:
            return [
                g[key]
                for w in workloads.values()
                for g in w.get("groups", ())
                if key in g
            ]

        medians = {
            "median_speedup": [w["speedup"] for w in workloads.values()],
            "median_speedup_batched": [
                w["speedup_batched"]
                for w in workloads.values()
                if "speedup_batched" in w
            ],
            "median_batched_vs_vectorized": group_values(
                "speedup_vs_vectorized"
            ),
            "median_compaction_gain": group_values("compaction_gain"),
            "median_packing_gain": group_values("packing_gain"),
        }
        for key in [k for k in data if k.startswith("median_")]:
            del data[key]
        for key, values in medians.items():
            if values:
                data[key] = round(statistics.median(values), 2)
        BENCH_FASTPATH_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )

    return _record


@pytest.fixture
def record_telemetry():
    """Upsert the telemetry-overhead measurement into BENCH_FASTPATH.json
    under a top-level ``"telemetry"`` key.  :func:`record_fastpath`
    rewrites the file but preserves unknown top-level keys, so the two
    recorders coexist."""

    def _record(entry: dict) -> None:
        data: dict = {}
        if BENCH_FASTPATH_PATH.exists():
            try:
                data = json.loads(BENCH_FASTPATH_PATH.read_text())
            except json.JSONDecodeError:
                data = {}
        if not isinstance(data, dict):
            data = {}
        data["telemetry"] = entry
        BENCH_FASTPATH_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )

    return _record


@pytest.fixture
def record_dist_scale():
    """Upsert the distributed-execution measurement into
    BENCH_FASTPATH.json under a top-level ``"dist_scale"`` key
    (schema 5; coexists with the fastpath/telemetry/contracts recorders
    exactly like :func:`record_telemetry`)."""

    def _record(entry: dict) -> None:
        data: dict = {}
        if BENCH_FASTPATH_PATH.exists():
            try:
                data = json.loads(BENCH_FASTPATH_PATH.read_text())
            except json.JSONDecodeError:
                data = {}
        if not isinstance(data, dict):
            data = {}
        data["dist_scale"] = entry
        # dist_scale is a schema-5 field; stamp the version even when
        # no fastpath workload re-ran in this session.
        data["schema"] = max(5, int(data.get("schema", 0)))
        BENCH_FASTPATH_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )

    return _record


@pytest.fixture
def record_contracts():
    """Upsert the contracts-overhead measurement into BENCH_FASTPATH.json
    under a top-level ``"contracts"`` key (coexists with the fastpath
    and telemetry recorders exactly like :func:`record_telemetry`)."""

    def _record(entry: dict) -> None:
        data: dict = {}
        if BENCH_FASTPATH_PATH.exists():
            try:
                data = json.loads(BENCH_FASTPATH_PATH.read_text())
            except json.JSONDecodeError:
                data = {}
        if not isinstance(data, dict):
            data = {}
        data["contracts"] = entry
        BENCH_FASTPATH_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )

    return _record


@pytest.fixture
def emit(capsys):
    """Print an experiment table and upsert it into results.txt."""

    def _emit(text: str) -> None:
        lines = text.splitlines()
        banner = lines[0] if text.strip() else ""
        if not _BANNER.match(banner):
            raise ValueError(
                "emit() tables must open with a 'TAG — description' banner "
                f"line so results.txt stays re-run safe; got {banner!r}"
            )
        interior = [l for l in lines[1:] if _BANNER.match(l)]
        if interior:
            # An interior banner would be split into its own section on
            # the next read, breaking replace-in-place; emit such panels
            # as separate tables instead.
            raise ValueError(
                "emit() table body contains banner-like lines "
                f"{interior!r}; emit each as its own table"
            )
        with capsys.disabled():
            print("\n" + text)
        existing = RESULTS_PATH.read_text() if RESULTS_PATH.exists() else ""
        body = text.rstrip().splitlines()
        kept: list[tuple[str, list[str]]] = []
        replaced = False
        for header, section_lines in _split_sections(existing):
            if header == banner:
                # Replace the first copy; drop stale duplicates left
                # behind by the old append-only emit.
                if not replaced:
                    kept.append((banner, body))
                    replaced = True
            else:
                kept.append((header, section_lines))
        if not replaced:
            kept.append((banner, body))
        RESULTS_PATH.write_text(_render(kept))

    return _emit
