"""Append-only JSONL result store with resume-by-hash.

One line per executed scenario.  The journal is *append-only* and in
plan order — the dispatcher releases parallel results in the order a
serial run appends them, so a fresh journal's bytes do not depend on the
worker count (appends after a resume, or absorbed from a crashed run's
shard, follow the resumed run instead).  Every record is keyed on the
scenario's stable content-hash id, and :meth:`ResultStore.write_summary`
emits a *canonical* summary — records re-ordered into grid order with
sorted JSON keys — which is byte-identical however the journal was
produced.

Resume: a campaign asks :meth:`ResultStore.completed_ids` which scenarios
already have a terminal record (``ok`` or deterministic ``error``;
``timeout`` records are retriable) and only executes the rest.  Partial
trailing lines from a killed writer are tolerated and skipped.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.engine import faults as _faults
from repro.engine.contracts import get as _get_contracts
from repro.engine.executor import (
    STATUS_OK,
    ScenarioResult,
    is_terminal,
)
from repro.engine.scenarios import ScenarioSpec
from repro.engine.telemetry import NULL, Recorder

log = logging.getLogger("repro.engine.store")

SCHEMA_VERSION = 1


class SchemaVersionError(ValueError):
    """A journal record was written by a newer schema than this code
    supports.  Deliberately *not* swallowed by the corrupt-line
    tolerance: resuming against a forward-incompatible journal must fail
    loudly, not silently re-execute the whole campaign."""

_METRIC_FIELDS = (
    "num_rounds",
    "root_components",
    "psrcs_holds",
    "distinct_decisions",
    "all_decided",
    "k_agreement_holds",
    "validity_holds",
    "first_decision_round",
    "last_decision_round",
    "stabilization",
    "lemma11_bound",
    "within_bound",
)


def encode_result(result: ScenarioResult) -> dict:
    """The versioned JSON record of one result (inverse of
    :func:`decode_result`).

    Deliberately excludes the producing backend: two backends that
    compute the same metrics must encode to the same record, which is
    what makes canonical summaries byte-comparable across backends.
    Journal lines add the backend as provenance via :func:`journal_line`.
    """
    record = {
        "schema": SCHEMA_VERSION,
        "id": result.scenario_id,
        "spec": result.spec.to_dict(),
        "status": result.status,
        "error": result.error,
        "metrics": {name: getattr(result, name) for name in _METRIC_FIELDS},
        "decision_values": list(result.decision_values),
    }
    if result.extras:
        # Family-specific extras.  Only written when present, so records
        # of the core families keep their historical bytes.
        record["extras"] = {k: v for k, v in result.extras}
    return record


def decode_result(record: dict) -> ScenarioResult:
    """Rebuild a :class:`ScenarioResult` from its JSON record."""
    schema = record.get("schema", SCHEMA_VERSION)
    if schema > SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record schema {schema} is newer than supported "
            f"{SCHEMA_VERSION}"
        )
    metrics = record.get("metrics", {})
    return ScenarioResult(
        spec=ScenarioSpec.from_dict(record["spec"]),
        status=record.get("status", STATUS_OK),
        error=record.get("error"),
        backend=record.get("backend", "reference"),
        decision_values=tuple(record.get("decision_values", ())),
        extras=tuple(sorted(record.get("extras", {}).items())),
        **{name: metrics.get(name) for name in _METRIC_FIELDS},
    )


def canonical_line(result: ScenarioResult) -> str:
    """One record as a canonical JSON line (sorted keys, tight separators)
    — the unit of byte-identical summaries."""
    return json.dumps(
        encode_result(result), sort_keys=True, separators=(",", ":")
    )


def journal_record(result: ScenarioResult) -> dict:
    """The journal-line dict: the canonical record plus the producing
    backend (provenance that must not leak into summaries).  Also the
    unit the distributed workers ship back over the wire
    (:mod:`repro.engine.remote`), so remote shards carry exactly what
    the journal stores."""
    record = encode_result(result)
    record["backend"] = result.backend
    return record


def journal_line(result: ScenarioResult) -> str:
    """One *journal* line (the serialized :func:`journal_record`)."""
    return json.dumps(
        journal_record(result), sort_keys=True, separators=(",", ":")
    )


class ResultStore:
    """The campaign journal: one JSONL file, append-only, id-keyed.

    A ``path`` of ``None`` keeps everything in memory (handy for tests and
    throwaway campaigns); otherwise the parent directory is created on
    first append.

    Journal bytes are pinned (pure function of the spec set), so append
    wall-clock timestamps live in a separate ``<journal>.times`` sidecar
    — one tiny JSON line per append — which ``campaign status`` reads to
    derive elapsed time and scenarios/s for finished stores.
    """

    def __init__(
        self,
        path: str | os.PathLike | None,
        recorder: Recorder | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.times_path = (
            Path(str(self.path) + ".times") if self.path is not None else None
        )
        self.recorder = NULL if recorder is None else recorder
        self._memory: list[ScenarioResult] = []
        self._memory_times: list[tuple[str, float]] = []
        self._prepared = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _prepare_file(self) -> None:
        """Once per store instance, before the first file append: create
        the parent directory and terminate a torn (newline-less) trailing
        line left by a killed writer, so re-appended records start on
        their own line instead of gluing onto the fragment (which would
        corrupt a *valid* record)."""
        if self._prepared:
            return
        self._prepared = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists() or self.path.stat().st_size == 0:
            return
        with self.path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            torn = fh.read(1) != b"\n"
        if torn:
            log.warning(
                "journal %s ends in a torn line (killed writer?); "
                "terminating it — the fragment is skipped on read and "
                "its scenario re-runs", self.path,
            )
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write("\n")

    def append(self, result: ScenarioResult) -> None:
        """Journal one result (flushed immediately — a killed campaign
        loses at most the line being written)."""
        contracts = _get_contracts()
        if contracts and contracts.sample("store.canonical_backend_free"):
            contracts.check_canonical_backend_free(
                canonical_line(result),
                canonical_line(replace(result, backend="__contracts__")),
                context={
                    "id": result.scenario_id,
                    "backend": result.backend,
                    "seed": result.spec.seed,
                },
            )
        if contracts and contracts.sample("scenarios.id"):
            contracts.check_scenario_id(
                result.spec, context={"backend": result.backend}
            )
        line = journal_line(result)
        now = time.time()
        if self.path is None:
            self._memory.append(result)
            self._memory_times.append((result.scenario_id, now))
        else:
            self._prepare_file()
            if _faults.torn_append(result):
                # Simulate a writer killed mid-write: flush a truncated
                # line with no newline, then die before the .times
                # sidecar entry lands.
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(line[: max(1, (2 * len(line)) // 3)])
                    fh.flush()
                raise _faults.InjectedFault(
                    f"injected torn journal write for "
                    f"{result.scenario_id}"
                )
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
            with self.times_path.open("a", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {"id": result.scenario_id, "t": round(now, 6)},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        if self.recorder:
            self.recorder.inc("store.appends")
            self.recorder.inc("store.bytes", len(line.encode("utf-8")) + 1)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def iter_results(self) -> Iterator[ScenarioResult]:
        """All journaled results in append order (corrupt lines, and
        records whose stored ``id`` is not their spec's, skipped)."""
        for _, result in self._keyed_results():
            yield result

    def _keyed_results(self) -> Iterator[tuple[str, ScenarioResult]]:
        """:meth:`iter_results` as ``(scenario_id, result)`` pairs; the
        id is read once, where the line's stored id is checked."""
        if self.path is None:
            for result in self._memory:
                yield result.scenario_id, result
            return
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        continue
                    result = decode_result(record)
                    sid = result.scenario_id
                    if record.get("id", sid) != sid:
                        raise ValueError("record id differs from its spec's")
                except SchemaVersionError:
                    raise
                except (json.JSONDecodeError, AttributeError, KeyError,
                        TypeError, ValueError):
                    # Partial trailing line from a killed writer, a
                    # foreign line (TypeError/AttributeError: valid JSON
                    # whose spec is missing ScenarioSpec fields or has
                    # the wrong shape), or a record whose stored id is
                    # not its spec's: resume simply re-runs that
                    # scenario.
                    log.warning(
                        "skipping %s journal line %d in %s "
                        "(%d bytes); its scenario will re-run on resume",
                        "torn trailing"
                        if not raw.endswith("\n")
                        else "corrupt",
                        lineno, self.path, len(raw),
                    )
                    continue
                yield sid, result

    def append_times(self) -> list[tuple[str, float]]:
        """(scenario_id, unix_time) per journaled append, in append order.

        Read from the ``.times`` sidecar (advisory: malformed or stale
        lines are skipped, a missing sidecar yields ``[]``), so journals
        produced before the sidecar existed — or hand-truncated ones —
        still load fine."""
        if self.path is None:
            return list(self._memory_times)
        if self.times_path is None or not self.times_path.exists():
            return []
        out: list[tuple[str, float]] = []
        with self.times_path.open("r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                    out.append((record["id"], float(record["t"])))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    continue
        return out

    def load(self) -> dict[str, ScenarioResult]:
        """Latest result per scenario id (last journal entry wins, so a
        retried timeout overwrites the timeout record)."""
        return dict(self._keyed_results())

    def completed_ids(self) -> set[str]:
        """Ids with a terminal record — ``ok`` and ``error`` count
        (errors are deterministic), ``timeout`` stays retriable."""
        return {
            sid
            for sid, result in self.load().items()
            if is_terminal(result.status)
        }

    def missing(self, specs: Iterable[ScenarioSpec]) -> list[ScenarioSpec]:
        """The subset of ``specs`` with no terminal record yet — exactly
        what a resumed campaign still has to execute."""
        done = self.completed_ids()
        return [spec for spec in specs if spec.scenario_id not in done]

    # ------------------------------------------------------------------
    # Canonical summaries
    # ------------------------------------------------------------------
    def summary_lines(
        self,
        specs: Iterable[ScenarioSpec],
        latest: dict[str, ScenarioResult] | None = None,
    ) -> list[str]:
        """The canonical summary lines for ``specs``, grid-ordered.

        The exact lines :meth:`write_summary` writes (without trailing
        newlines) — the campaign service serves them over HTTP so a
        daemon-fetched summary is byte-identical to a written one.
        """
        if latest is None:
            latest = self.load()
        lines = []
        for spec in specs:
            result = latest.get(spec.scenario_id)
            if result is not None:
                lines.append(canonical_line(result))
        return lines

    def write_summary(
        self,
        path: str | os.PathLike,
        specs: Iterable[ScenarioSpec],
        latest: dict[str, ScenarioResult] | None = None,
    ) -> int:
        """Write the canonical summary JSONL for ``specs``.

        Records appear in grid order with canonical JSON formatting, so
        the output is byte-identical whether the journal was produced by
        1 worker or 40.  Scenarios with no record are skipped.  Returns
        the number of lines written.  Pass a pre-:meth:`load`-ed
        ``latest`` snapshot to skip re-scanning the journal.
        """
        lines = self.summary_lines(specs, latest)
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
        return len(lines)
