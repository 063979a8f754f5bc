"""Engine telemetry: counters, gauges, histograms, and span timers.

Every engine layer (scheduler, executor, fastpath kernel, store) accepts
an optional :class:`Recorder`.  When none is supplied the layers fall
back to the module-level :data:`NULL` singleton, whose methods are
no-ops and which is *falsy* — hot loops guard instrumentation with
``if recorder:`` so the disabled path costs one branch, and the kernel
accumulates plain local ints that are flushed once per call.

Metrics live on two planes, and the distinction is load-bearing:

``deterministic``
    Pure functions of the scenario set: per-lane kernel work (rounds,
    decisions, RNG fetches), scheduler grouping (including the
    cross-``n`` packing accounting — ``scheduler.padded_lane_width``,
    ``scheduler.wasted_pad_cells``), result counts, journal bytes.
    These are **invariant** across ``--jobs``, ``--workers``, batch
    shuffle and kernel width — the same contract the journal obeys —
    and the test suite pins that invariance.

``volatile``
    Execution-shape metrics: wall-clock durations, batch cuts after
    jobs-splitting, skeleton-cache hits/misses, compaction/refill
    events, queue waits, per-worker utilization.
    Useful for profiling, excluded from invariance comparisons.

Workers build their own ``Recorder``, return ``snapshot()`` alongside
chunk payloads, and the parent ``merge()``s them.  Every merge operation
is commutative and associative (counter sums, gauge max, histogram
bucket sums, duration count/total/max), so the merged result does not
depend on worker count or completion order.

The ``campaign run --metrics[=PATH]`` flag writes the merged snapshot as
a schema-versioned JSON sidecar next to the journal; journal and summary
bytes are untouched.  ``campaign report --metrics`` renders it as a
table via :func:`render_sidecar`.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "SIDECAR_SCHEMA",
    "Recorder",
    "NullRecorder",
    "NULL",
    "read_sidecar",
    "render_sidecar",
    "validate_sidecar",
]

#: Version stamp written into every metrics sidecar.  Bump on any
#: backwards-incompatible change to the snapshot layout.
SIDECAR_SCHEMA = 1

#: Default histogram bucket upper bounds (powers of two).  Bucket ``i``
#: counts values ``<= edges[i]`` (and ``> edges[i-1]``); one overflow
#: bucket catches everything above the last edge.
DEFAULT_EDGES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class _Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges: Iterable[float] = DEFAULT_EDGES):
        self.edges = tuple(edges)
        if not self.edges or list(self.edges) != sorted(set(self.edges)):
            raise ValueError("histogram edges must be sorted and unique")
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, data: dict[str, Any]) -> None:
        if tuple(data["edges"]) != self.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{tuple(data['edges'])} vs {self.edges}"
            )
        for i, c in enumerate(data["counts"]):
            self.counts[i] += c
        self.count += data["count"]
        self.total += data["sum"]
        for attr, pick in (("min", min), ("max", max)):
            incoming = data[attr]
            if incoming is not None:
                current = getattr(self, attr)
                setattr(
                    self,
                    attr,
                    incoming if current is None else pick(current, incoming),
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class _Span:
    __slots__ = ("_recorder", "_name", "_t0")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._recorder.add_duration(
            self._name, time.perf_counter() - self._t0
        )
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Two-plane metrics recorder.

    ``inc``/``gauge_max``/``observe`` write the deterministic plane;
    the ``v``-prefixed twins write the volatile plane.  ``span`` /
    ``add_duration`` record wall-clock durations (always volatile).
    """

    __slots__ = ("_dc", "_dg", "_dh", "_vc", "_vg", "_vh", "_dur", "_info")

    def __init__(self) -> None:
        self._dc: dict[str, int] = {}
        self._dg: dict[str, float] = {}
        self._dh: dict[str, _Histogram] = {}
        self._vc: dict[str, int] = {}
        self._vg: dict[str, float] = {}
        self._vh: dict[str, _Histogram] = {}
        # name -> [count, total_s, max_s]
        self._dur: dict[str, list[float]] = {}
        self._info: dict[str, Any] = {}

    def __bool__(self) -> bool:
        return True

    # -- deterministic plane ------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        self._dc[name] = self._dc.get(name, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        if value > self._dg.get(name, float("-inf")):
            self._dg[name] = value

    def observe(
        self, name: str, value: float, edges: Iterable[float] = DEFAULT_EDGES
    ) -> None:
        hist = self._dh.get(name)
        if hist is None:
            hist = self._dh[name] = _Histogram(edges)
        hist.observe(value)

    # -- volatile plane -----------------------------------------------
    def vinc(self, name: str, value: int = 1) -> None:
        self._vc[name] = self._vc.get(name, 0) + value

    def vgauge_max(self, name: str, value: float) -> None:
        if value > self._vg.get(name, float("-inf")):
            self._vg[name] = value

    def vobserve(
        self, name: str, value: float, edges: Iterable[float] = DEFAULT_EDGES
    ) -> None:
        hist = self._vh.get(name)
        if hist is None:
            hist = self._vh[name] = _Histogram(edges)
        hist.observe(value)

    def add_duration(self, name: str, seconds: float) -> None:
        entry = self._dur.get(name)
        if entry is None:
            self._dur[name] = [1, seconds, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
            if seconds > entry[2]:
                entry[2] = seconds

    def span(self, name: str) -> _Span:
        """``with recorder.span("campaign.run_s"): ...``"""
        return _Span(self, name)

    def set_info(self, key: str, value: Any) -> None:
        """Attach a free-form (JSON-serializable) annotation.

        Parent-side only; :meth:`merge` refuses conflicting keys so a
        snapshot merge can never silently drop worker data.
        """
        self._info[key] = value

    # -- reading ------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of a counter, searching both planes."""
        return self._dc.get(name, self._vc.get(name, 0))

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of everything recorded so far."""
        return {
            "deterministic": {
                "counters": dict(self._dc),
                "gauges": dict(self._dg),
                "histograms": {
                    k: h.to_dict() for k, h in self._dh.items()
                },
            },
            "volatile": {
                "counters": dict(self._vc),
                "gauges": dict(self._vg),
                "histograms": {
                    k: h.to_dict() for k, h in self._vh.items()
                },
                "durations": {
                    k: {"count": int(v[0]), "total_s": v[1], "max_s": v[2]}
                    for k, v in self._dur.items()
                },
                "info": dict(self._info),
            },
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another recorder into this one.

        Commutative and associative: merging worker snapshots in any
        completion order yields the same state.
        """
        if not snapshot:
            return
        det = snapshot.get("deterministic", {})
        vol = snapshot.get("volatile", {})
        for name, value in det.get("counters", {}).items():
            self.inc(name, value)
        for name, value in det.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, data in det.get("histograms", {}).items():
            self._merge_hist(self._dh, name, data)
        for name, value in vol.get("counters", {}).items():
            self.vinc(name, value)
        for name, value in vol.get("gauges", {}).items():
            self.vgauge_max(name, value)
        for name, data in vol.get("histograms", {}).items():
            self._merge_hist(self._vh, name, data)
        for name, dur in vol.get("durations", {}).items():
            entry = self._dur.get(name)
            if entry is None:
                self._dur[name] = [
                    dur["count"], dur["total_s"], dur["max_s"]
                ]
            else:
                entry[0] += dur["count"]
                entry[1] += dur["total_s"]
                if dur["max_s"] > entry[2]:
                    entry[2] = dur["max_s"]
        for key, value in vol.get("info", {}).items():
            if key in self._info and self._info[key] != value:
                raise ValueError(
                    f"conflicting info key in merged snapshot: {key!r}"
                )
            self._info[key] = value

    @staticmethod
    def _merge_hist(
        store: dict[str, _Histogram], name: str, data: dict[str, Any]
    ) -> None:
        hist = store.get(name)
        if hist is None:
            hist = store[name] = _Histogram(data["edges"])
        hist.merge(data)

    # -- sidecar ------------------------------------------------------
    def to_sidecar(self, label: str = "campaign") -> dict[str, Any]:
        return {
            "schema": SIDECAR_SCHEMA,
            "label": label,
            **self.snapshot(),
        }

    def write_sidecar(self, path: str | Path, label: str = "campaign") -> Path:
        """Write the schema-versioned metrics sidecar as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_sidecar(label), indent=2, sort_keys=True)
            + "\n"
        )
        return path


class NullRecorder:
    """Falsy no-op recorder: the zero-cost-when-off singleton.

    ``if recorder:`` is False, so guarded instrumentation blocks are
    skipped entirely; unguarded calls (cold paths) dispatch to no-ops.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def observe(
        self, name: str, value: float, edges: Iterable[float] = DEFAULT_EDGES
    ) -> None:
        pass

    def vinc(self, name: str, value: int = 1) -> None:
        pass

    def vgauge_max(self, name: str, value: float) -> None:
        pass

    def vobserve(
        self, name: str, value: float, edges: Iterable[float] = DEFAULT_EDGES
    ) -> None:
        pass

    def add_duration(self, name: str, seconds: float) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def set_info(self, key: str, value: Any) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {}

    def merge(self, snapshot: dict[str, Any]) -> None:
        pass


#: Shared no-op recorder used as the default everywhere.
NULL = NullRecorder()


# ---------------------------------------------------------------------
# Sidecar reading / validation / rendering
# ---------------------------------------------------------------------

def validate_sidecar(data: Any) -> dict[str, Any]:
    """Check sidecar structure; raise ``ValueError`` on any mismatch."""
    if not isinstance(data, dict):
        raise ValueError("metrics sidecar must be a JSON object")
    schema = data.get("schema")
    if not isinstance(schema, int) or schema < 1:
        raise ValueError(f"bad sidecar schema field: {schema!r}")
    if schema > SIDECAR_SCHEMA:
        raise ValueError(
            f"sidecar schema {schema} is newer than supported "
            f"{SIDECAR_SCHEMA}"
        )
    for plane in ("deterministic", "volatile"):
        section = data.get(plane)
        if not isinstance(section, dict):
            raise ValueError(f"sidecar missing {plane!r} plane")
        for kind in ("counters", "gauges", "histograms"):
            if not isinstance(section.get(kind), dict):
                raise ValueError(f"sidecar {plane}.{kind} must be an object")
        for name, hist in section["histograms"].items():
            edges = hist.get("edges")
            counts = hist.get("counts")
            if (
                not isinstance(edges, list)
                or not isinstance(counts, list)
                or len(counts) != len(edges) + 1
            ):
                raise ValueError(f"sidecar histogram {name!r} malformed")
            if sum(counts) != hist.get("count"):
                raise ValueError(
                    f"sidecar histogram {name!r} bucket/count mismatch"
                )
    vol = data["volatile"]
    if not isinstance(vol.get("durations"), dict):
        raise ValueError("sidecar volatile.durations must be an object")
    for name, dur in vol["durations"].items():
        if not all(k in dur for k in ("count", "total_s", "max_s")):
            raise ValueError(f"sidecar duration {name!r} malformed")
    return data


def read_sidecar(path: str | Path) -> dict[str, Any]:
    """Load and validate a metrics sidecar written by ``--metrics``."""
    with open(path) as fh:
        return validate_sidecar(json.load(fh))


def _section(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "misc"


def render_sidecar(data: dict[str, Any]) -> str:
    """Render a sidecar as the ``campaign report --metrics`` table."""
    from repro.analysis.reporting import format_table

    rows: list[list[str]] = []
    for plane_key, plane_tag in (("deterministic", "det"),
                                 ("volatile", "vol")):
        plane = data[plane_key]
        for name, value in plane["counters"].items():
            rows.append([_section(name), name, "counter", plane_tag,
                         str(value)])
        for name, value in plane["gauges"].items():
            rows.append([_section(name), name, "gauge", plane_tag,
                         f"{value:g}"])
        for name, hist in plane["histograms"].items():
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            rows.append([
                _section(name), name, "histogram", plane_tag,
                f"n={hist['count']} mean={mean:.1f} max={hist['max']}",
            ])
    for name, dur in data["volatile"]["durations"].items():
        rows.append([
            _section(name), name, "duration", "vol",
            f"n={dur['count']} total={dur['total_s']:.3f}s "
            f"max={dur['max_s']:.3f}s",
        ])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [
        f"metrics sidecar (schema {data['schema']}, "
        f"label {data.get('label', '?')})",
        format_table(
            ["section", "metric", "kind", "plane", "value"], rows
        ),
    ]
    info = data["volatile"].get("info") or {}
    for key in sorted(info):
        lines.append(f"{key}: {json.dumps(info[key], sort_keys=True)}")
    return "\n".join(lines)
