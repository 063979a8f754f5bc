"""Spans around calls into the program's layers, recorded from outside.

:func:`install` replaces public functions and methods of the program
with timing wrappers (every module attribute that binds the function is
replaced, so callers that imported it by name are traced too).  A span
is one call: its name, start, end, parent span and the id of the
measured operation it belongs to (one timed campaign, one resume pass or
one served submission).  Spans stay in memory and are written out once,
at the end, by :meth:`Tracer.write`.

A layer's self time is the time its spans cover minus the part their
child spans cover.  Spans opened outside any measured operation (set-up
and warm-up) are recorded but left out of every total.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: Span name -> layer.  Names are ``<module>.<function>``.
LAYERS = {
    "bench.run": "bench",
    "bench.resume": "bench",
    "bench.submit": "bench",
    "bench.collect": "bench",
    "bench.fetch": "bench",
    "campaign.run": "campaign",
    "executor.execute_scenarios": "executor",
    "executor.run_planned_batch": "executor",
    "scheduler.plan_batches": "scheduler",
    "backends.execute_scenario_batch": "backends",
    "fastpath.simulate_fastpath_batch": "kernel",
    "array_backend.masked_sender_max": "kernel",
    "array_backend.batched_closure": "kernel",
    "matrices.batched_transitive_closure": "kernel",
    "adversaries.build_adversary": "adversaries",
    "adversaries.adjacency_stack": "adversaries",
    "scenarios.scenario_id": "scenarios",
    "store.append": "store",
    "store.load": "store",
    "store.write_summary": "store",
    "remote.execute_remote": "remote",
    "remote.absorb_shards": "remote",
    "service.submit": "service",
    "service.job": "service",
    "service.results_text": "service",
    "service.metrics": "service",
}

#: The program's layers whose self time must cover the measured wall.
PROGRAM_LAYERS = (
    "kernel", "adversaries", "backends", "scenarios", "scheduler",
    "store", "executor", "service", "remote",
)


class Tracer:
    """In-memory span log.  A span is a list ``[name, parent span,
    operation id, start, end, time covered by children]``; the parent
    reference and the children's time are kept at record time, so self
    times need no second pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, fn, name: str):
        local = self._local
        append = self.spans.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            span = [name, parent, getattr(local, "op", 0), 0.0, 0.0, 0.0]
            append(span)
            local.current = span
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[4] = clock()
                local.current = parent
                if parent is not None:
                    parent[5] += end - span[3]

        return traced

    def operation(self, op: int, name: str, fn, *args, **kwargs):
        """Run ``fn`` as measured operation ``op`` (> 0) under a root
        span ``name``; every span it opens carries the same id."""
        saved = getattr(self._local, "op", 0)
        self._local.op = op
        try:
            return self.wrap(fn, name)(*args, **kwargs)
        finally:
            self._local.op = saved

    # -- aggregation ----------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name, over measured operations only: ``count``,
        ``incl`` (time of outermost calls — a recursive call is not
        counted twice) and ``self`` (minus direct children)."""
        out: dict[str, dict[str, float]] = {}
        for name, parent, op, start, end, children in self.spans:
            if op <= 0:
                continue
            entry = out.setdefault(
                name, {"count": 0, "incl": 0.0, "self": 0.0}
            )
            entry["count"] += 1
            entry["self"] += end - start - children
            if parent is None or parent[0] != name:
                entry["incl"] += end - start
        return out

    @staticmethod
    def layer_self(totals: dict) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, entry in totals.items():
            layer = LAYERS[name]
            layers[layer] = layers.get(layer, 0.0) + entry["self"]
        return layers

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent line number
        (-1 for a root) and operation id."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, op, start, end, _ in self.spans:
                fh.write(json.dumps(
                    [name, round(start, 7), round(end, 7),
                     -1 if parent is None else index[id(parent)], op],
                    separators=(",", ":"),
                ) + "\n")


def _resolve(path: str):
    """``module`` or ``module:Class`` -> the object."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


#: (span name, owners binding the callable, attribute).  Each owner is
#: ``module`` or ``module:Class``; a missing owner or attribute makes
#: the span *missing* instead of failing the run.
TARGETS = (
    ("campaign.run", ("repro.engine.campaign:Campaign",), "run"),
    ("executor.execute_scenarios", ("repro.engine.campaign",),
     "execute_scenarios"),
    ("executor.run_planned_batch", ("repro.engine.scheduler",),
     "run_planned_batch"),
    ("scheduler.plan_batches", ("repro.engine.scheduler",), "plan_batches"),
    ("backends.execute_scenario_batch",
     ("repro.engine.backends", "repro.engine.scheduler"),
     "execute_scenario_batch"),
    ("fastpath.simulate_fastpath_batch",
     ("repro.rounds.fastpath", "repro.engine.backends"),
     "simulate_fastpath_batch"),
    ("array_backend.masked_sender_max",
     ("repro.rounds.array_backend:KernelNamespace",), "masked_sender_max"),
    ("array_backend.batched_closure",
     ("repro.rounds.array_backend:KernelNamespace",), "batched_closure"),
    ("matrices.batched_transitive_closure",
     ("repro.graphs.matrices", "repro.rounds.fastpath"),
     "batched_transitive_closure"),
    ("adversaries.build_adversary",
     ("repro.engine.scenarios:ScenarioSpec",), "build_adversary"),
    ("store.append", ("repro.engine.store:ResultStore",), "append"),
    ("store.load", ("repro.engine.store:ResultStore",), "load"),
    ("store.write_summary", ("repro.engine.store:ResultStore",),
     "write_summary"),
    ("remote.execute_remote", ("repro.engine.remote",), "execute_remote"),
    ("remote.absorb_shards", ("repro.engine.remote",), "absorb_shards"),
    ("service.submit", ("repro.engine.service:ServiceClient",), "submit"),
    ("service.job", ("repro.engine.service:ServiceClient",), "job"),
    ("service.results_text", ("repro.engine.service:ServiceClient",),
     "results_text"),
    ("service.metrics", ("repro.engine.service:ServiceClient",), "metrics"),
)


def install(tracer: Tracer) -> tuple[list[str], list]:
    """Wrap every target.  Returns the span names that could not be
    installed because their target no longer exists, and the
    ``(owner, attribute, original)`` list that :func:`uninstall` puts
    back."""
    missing, undo = [], []
    for name, owners, attr in TARGETS:
        try:
            resolved = [_resolve(owner) for owner in owners]
            original = getattr(resolved[0], attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        traced = tracer.wrap(original, name)
        for owner in resolved:
            if getattr(owner, attr, None) is original:
                undo.append((owner, attr, original))
                setattr(owner, attr, traced)
    # adjacency_stack is overridden per adversary class: wrap the base
    # method and every override.
    try:
        import repro.adversaries  # noqa: F401 — defines the subclasses
        from repro.adversaries.base import Adversary
    except ImportError:
        missing.append("adversaries.adjacency_stack")
    else:
        pending, seen = [Adversary], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            method = cls.__dict__.get("adjacency_stack")
            if method is not None:
                undo.append((cls, "adjacency_stack", method))
                setattr(cls, "adjacency_stack",
                        tracer.wrap(method, "adversaries.adjacency_stack"))
    # ScenarioSpec.scenario_id is a property: wrap its getter.
    try:
        from repro.engine.scenarios import ScenarioSpec
    except ImportError:
        ScenarioSpec = None
    prop = getattr(ScenarioSpec, "__dict__", {}).get("scenario_id")
    if isinstance(prop, property):
        undo.append((ScenarioSpec, "scenario_id", prop))
        ScenarioSpec.scenario_id = property(
            tracer.wrap(prop.fget, "scenarios.scenario_id"))
    else:
        missing.append("scenarios.scenario_id")
    return missing, undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


#: The program's deterministic work counters (repeat exactly at a seed).
WORK_COUNTERS = ("kernel.lane_rounds", "kernel.rng_rounds_fetched",
                 "store.bytes", "scheduler.batched_lanes")


def recorder_metrics(snapshot: dict) -> tuple[dict, dict]:
    """Per-layer metrics read off a Recorder snapshot (summed over
    campaigns if several were merged), and the work counters."""
    det = snapshot["deterministic"]["counters"]
    vol = snapshot["volatile"]["counters"]
    durations = snapshot["volatile"]["durations"]

    def dur(name):
        return durations.get(name, {}).get("total_s", 0.0)

    slots = vol.get("scheduler.lane_slots", 0)
    appends = det.get("store.appends", 0)
    lanes = det.get("scheduler.batched_lanes", 0)
    metrics = {
        "fastpath.lane_rounds": det.get("kernel.lane_rounds", 0),
        "adversaries.rounds_fetched": det.get("kernel.rng_rounds_fetched", 0),
        "scheduler.batches": vol.get("scheduler.batches_planned", 0),
        "scheduler.batched_lanes": lanes,
        "scheduler.lane_fill_pct": 100.0 * lanes / slots if slots else 0.0,
        "store.bytes_per_scenario": (
            det.get("store.bytes", 0) / appends if appends else 0.0),
        "executor.unit_wall_s": dur("executor.unit_wall_s"),
        "executor.queue_wait_s": dur("executor.queue_wait_s"),
        "executor.worker_busy_s": dur("executor.worker_busy_s"),
        "remote.units": vol.get("remote.batches_dispatched", 0),
    }
    return metrics, {name: det.get(name, 0) for name in WORK_COUNTERS}
