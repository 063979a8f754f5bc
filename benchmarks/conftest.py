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
of each table instead of appending duplicates.  A session that collected
the whole directory and passed every benchmark also drops the sections
no test emitted, so a retitled table does not leave its old copy behind.

:func:`record_fastpath` additionally maintains a *machine-readable* perf
trajectory in ``benchmarks/BENCH_FASTPATH.json`` (per-workload wall-clock
for the reference backend vs the single-lane kernel, recorded under its
historical ``vectorized`` names, plus host metadata), so future PRs can
track backend speedups without parsing tables.
"""

from __future__ import annotations

import functools
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


def _whole_directory(config, bench_dir: pathlib.Path) -> bool:
    """Whether the session collects the whole benchmarks directory."""
    bench_dir = bench_dir.resolve()
    targets = [
        pathlib.Path(arg.split("::", 1)[0]).resolve()
        for arg in (config.args or ["."])
    ]
    return all(t in (bench_dir, bench_dir.parent) for t in targets)


class ResultsSections:
    """Keeps ``results.txt`` free of stale tables.

    Records the banners emitted in this session and whether every
    benchmark it collected ran and passed (none failed, skipped or
    deselected).  After a whole-directory session in which every
    benchmark passed, every live table has been re-emitted, so the
    sections no test emitted are dropped: a retitled table does not
    leave its old copy behind.  Banners, not tags, are the key, since
    one tag may own several tables.  A skipped benchmark keeps every
    section: its tables cannot be told from stale ones."""

    def __init__(self, config, path: pathlib.Path) -> None:
        self.config = config
        self.path = path
        self.emitted: set[str] = set()
        self.complete = True

    def _benchmark(self, nodeid: str) -> bool:
        file = pathlib.Path(self.config.rootpath) / nodeid.split("::", 1)[0]
        return self.path.parent.resolve() in file.resolve().parents

    def pytest_deselected(self, items):
        if any(self._benchmark(item.nodeid) for item in items):
            self.complete = False

    def pytest_runtest_logreport(self, report):
        if (report.failed or report.skipped) and self._benchmark(
            report.nodeid
        ):
            self.complete = False

    def pytest_sessionfinish(self, session, exitstatus):
        if not (
            exitstatus == 0 and self.complete and self.emitted
            and _whole_directory(self.config, self.path.parent)
            and self.path.exists()
        ):
            return
        sections = _split_sections(self.path.read_text())
        kept = [(banner, lines) for banner, lines in sections
                if banner in self.emitted]
        if len(kept) != len(sections):
            self.path.write_text(_render(kept))


def pytest_configure(config):
    config.pluginmanager.register(
        ResultsSections(config, RESULTS_PATH), "results-sections"
    )
    # Canonical full runs start from a fresh file.  Only whole-directory
    # sessions truncate: a selective `pytest benchmarks/test_x.py
    # --benchmark-only` must not wipe the other sections (the upsert in
    # emit() keeps them duplicate-free either way).
    if config.getoption("--benchmark-only", default=False) and (
        _whole_directory(config, RESULTS_PATH.parent)
    ):
        RESULTS_PATH.write_text("")


@pytest.fixture
def record_fastpath():
    """Upsert one workload's backend comparison into BENCH_FASTPATH.json.

    Each entry records wall-clock for the reference backend, the
    single-lane kernel (``vectorized_s``, the name it was first recorded
    under) and (when measured) the mega-batched backend over the same
    scenario list, plus the host it was measured on (per entry, so
    partial re-runs on another machine stay correctly attributed).
    File level:

    * ``median_speedup`` — single-lane over reference, median across
      workloads (the historical trajectory number);
    * ``median_speedup_batched`` — batched over reference;
    * ``median_batched_vs_vectorized`` — the *additional* gain of
      mega-batching, median across every recorded per-``n`` group (the
      ``groups`` lists inside the workload entries) so small and large
      ``n`` weigh equally;
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

        data = _load_bench()
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
            "median_packing_gain": group_values("packing_gain"),
        }
        for key in [k for k in data if k.startswith("median_")]:
            del data[key]
        for key, values in medians.items():
            if values:
                data[key] = round(statistics.median(values), 2)
        _save_bench(data)

    return _record


def _load_bench() -> dict:
    """BENCH_FASTPATH.json as a dict (empty when the file is missing or
    not a JSON object)."""
    data: dict = {}
    if BENCH_FASTPATH_PATH.exists():
        try:
            data = json.loads(BENCH_FASTPATH_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    return data if isinstance(data, dict) else {}


def _save_bench(data: dict) -> None:
    BENCH_FASTPATH_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )


def _upsert_section(key: str, entry: dict, schema: int = 0) -> None:
    """Store ``entry`` under the top-level ``key`` of BENCH_FASTPATH.json,
    keeping every other key, and raise the file's schema to at least
    ``schema``."""
    data = _load_bench()
    data[key] = entry
    if schema:
        data["schema"] = max(schema, int(data.get("schema", 0)))
    _save_bench(data)


@pytest.fixture
def record_telemetry():
    """Upsert the telemetry-overhead measurement into BENCH_FASTPATH.json
    under a top-level ``"telemetry"`` key."""
    return functools.partial(_upsert_section, "telemetry")


@pytest.fixture
def record_dist_scale():
    """Upsert the distributed-execution measurement into
    BENCH_FASTPATH.json under a top-level ``"dist_scale"`` key.  It is a
    schema-5 field, so the version is stamped even when no fastpath
    workload re-ran in this session."""
    return functools.partial(_upsert_section, "dist_scale", schema=5)


@pytest.fixture
def record_contracts():
    """Upsert the contracts-overhead measurement into BENCH_FASTPATH.json
    under a top-level ``"contracts"`` key."""
    return functools.partial(_upsert_section, "contracts")


@pytest.fixture
def results_sections(pytestconfig):
    """This session's :class:`ResultsSections` (``results.txt`` and the
    banners emitted so far)."""
    return pytestconfig.pluginmanager.get_plugin("results-sections")


@pytest.fixture
def emit(capsys, results_sections):
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
        results_sections.emitted.add(banner)
        path = results_sections.path
        existing = path.read_text() if path.exists() else ""
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
        path.write_text(_render(kept))

    return _emit
