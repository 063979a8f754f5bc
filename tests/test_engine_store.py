"""JSONL result store: codec roundtrips, resume-by-hash, canonical
summaries, corruption tolerance."""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.engine.campaign import Campaign
from repro.engine.executor import ScenarioResult, execute_scenario
from repro.engine.scenarios import ScenarioGrid, ScenarioSpec
from repro.engine.store import (
    ResultStore,
    SchemaVersionError,
    canonical_line,
    decode_result,
    encode_result,
)


def _ok_result(seed: int = 0) -> ScenarioResult:
    return execute_scenario(ScenarioSpec(n=5, k=2, num_groups=2, seed=seed))


class TestCodec:
    def test_roundtrip_ok_result(self):
        result = _ok_result()
        again = decode_result(encode_result(result))
        assert again == result

    def test_roundtrip_failure_result(self):
        result = ScenarioResult.failure(
            ScenarioSpec(n=5), "ValueError: boom"
        )
        again = decode_result(encode_result(result))
        assert again == result
        assert again.status == "error" and again.error == "ValueError: boom"

    def test_canonical_line_is_deterministic(self):
        result = _ok_result()
        assert canonical_line(result) == canonical_line(result)
        record = json.loads(canonical_line(result))
        assert record["id"] == result.scenario_id
        assert record["schema"] == 1

    def test_newer_schema_rejected(self):
        record = encode_result(_ok_result())
        record["schema"] = 99
        with pytest.raises(SchemaVersionError, match="schema 99"):
            decode_result(record)

    def test_newer_schema_fails_loudly_through_store(self, tmp_path):
        # Forward-incompatible journals must not be treated as corrupt
        # lines — that would silently re-execute the whole campaign.
        path = tmp_path / "journal.jsonl"
        store = ResultStore(path)
        store.append(_ok_result())
        record = encode_result(_ok_result(seed=1))
        record["schema"] = 2
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(SchemaVersionError):
            ResultStore(path).load()


class TestResultStore:
    def test_memory_store(self):
        store = ResultStore(None)
        result = _ok_result()
        store.append(result)
        assert store.load() == {result.scenario_id: result}

    def test_file_append_and_load(self, tmp_path):
        store = ResultStore(tmp_path / "sub" / "journal.jsonl")
        results = [_ok_result(seed) for seed in range(3)]
        for result in results:
            store.append(result)
        loaded = ResultStore(tmp_path / "sub" / "journal.jsonl").load()
        assert loaded == {r.scenario_id: r for r in results}

    def test_appends_create_the_directory_once(self, tmp_path, monkeypatch):
        made = []
        real_mkdir = os.mkdir

        def counting_mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", counting_mkdir)
        store = ResultStore(tmp_path / "sub" / "journal.jsonl")
        results = [_ok_result(seed) for seed in range(5)]
        for result in results:
            store.append(result)
        assert len(made) <= 1
        assert len(store.load()) == len(results)

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = ResultStore(path)
        spec = ScenarioSpec(n=5)
        store.append(ScenarioResult.failure(spec, "slow", status="timeout"))
        retried = execute_scenario(spec)
        store.append(retried)
        assert store.load()[spec.scenario_id] == retried

    def test_timeouts_are_retriable(self, tmp_path):
        store = ResultStore(tmp_path / "journal.jsonl")
        ok_spec = ScenarioSpec(n=5, seed=0)
        err_spec = ScenarioSpec(n=5, seed=1)
        to_spec = ScenarioSpec(n=5, seed=2)
        fresh_spec = ScenarioSpec(n=5, seed=3)
        store.append(execute_scenario(ok_spec))
        store.append(ScenarioResult.failure(err_spec, "boom"))
        store.append(
            ScenarioResult.failure(to_spec, "slow", status="timeout")
        )
        # ok + deterministic error are terminal; timeout is not.
        assert store.completed_ids() == {
            ok_spec.scenario_id,
            err_spec.scenario_id,
        }
        missing = store.missing([ok_spec, err_spec, to_spec, fresh_spec])
        assert missing == [to_spec, fresh_spec]

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = ResultStore(path)
        result = _ok_result()
        store.append(result)
        with path.open("a") as fh:
            fh.write('{"truncated: ')  # killed mid-write
        again = ResultStore(path)
        assert again.load() == {result.scenario_id: result}

    def test_foreign_valid_json_lines_skipped(self, tmp_path):
        # Valid JSON whose spec dict is missing ScenarioSpec fields
        # (hand-edited journal, foreign tool) is tolerated like any
        # corrupt line: resume re-runs that scenario.
        path = tmp_path / "journal.jsonl"
        store = ResultStore(path)
        result = _ok_result()
        store.append(result)
        with path.open("a") as fh:
            fh.write('{"spec": {}, "status": "ok"}\n')
            fh.write('{"spec": "hello", "status": "ok"}\n')
            fh.write('{"spec": {"n": 4}, "metrics": 5}\n')
            fh.write('{"not": "a record"}\n')
            fh.write('null\n')
            fh.write('[1, 2]\n')
            fh.write('"stray string"\n')
        again = ResultStore(path)
        assert again.load() == {result.scenario_id: result}

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nope.jsonl")
        assert store.load() == {}
        assert store.completed_ids() == set()

    def test_write_summary_grid_order_and_skips_missing(self, tmp_path):
        store = ResultStore(tmp_path / "journal.jsonl")
        specs = [ScenarioSpec(n=5, seed=s) for s in range(4)]
        # Journal out of order, one missing.
        for seed in (2, 0, 1):
            store.append(execute_scenario(specs[seed]))
        written = store.write_summary(tmp_path / "summary.jsonl", specs)
        assert written == 3
        lines = (tmp_path / "summary.jsonl").read_text().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == [specs[0].scenario_id, specs[1].scenario_id,
                       specs[2].scenario_id]


class TestJournalIds:
    """A journal record is keyed by the hash of its decoded spec; a
    stored ``id`` that disagrees with it marks the line corrupt."""

    def test_record_without_id_still_loads(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        result = _ok_result()
        record = encode_result(result)
        del record["id"]
        path.write_text(json.dumps(record) + "\n")
        assert ResultStore(path).load() == {result.scenario_id: result}

    def test_mismatched_id_skipped_like_a_corrupt_line(self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        kept, tampered = _ok_result(seed=0), _ok_result(seed=1)
        record = encode_result(tampered)
        record["id"] = kept.scenario_id
        path.write_text(
            json.dumps(encode_result(kept)) + "\n" + json.dumps(record) + "\n"
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine.store"):
            loaded = ResultStore(path).load()
        assert loaded == {kept.scenario_id: kept}
        assert list(ResultStore(path).iter_results()) == [kept]
        assert "skipping corrupt journal line 2" in caplog.text

    def test_resume_reruns_exactly_the_mismatched_scenario(self, tmp_path):
        grid = ScenarioGrid(n=[5, 6], k=2, num_groups=[1, 2], seed=range(3),
                            noise=0.1)
        untouched = Campaign(grid, store=tmp_path / "a.jsonl")
        untouched.run()
        untouched.write_summary(tmp_path / "a.summary.jsonl")

        journal = tmp_path / "b.jsonl"
        Campaign(grid, store=journal).run()
        lines = journal.read_text().splitlines()
        record = json.loads(lines[4])
        victim = record["id"]
        record["id"] = "0123456789ab"
        lines[4] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        journal.write_text("".join(line + "\n" for line in lines))

        resumed = Campaign(grid, store=journal)
        report = resumed.run()
        assert (report.executed, report.skipped) == (1, len(lines) - 1)
        rerun = json.loads(journal.read_text().splitlines()[-1])
        assert rerun["id"] == victim
        resumed.write_summary(tmp_path / "b.summary.jsonl")
        assert (
            (tmp_path / "b.summary.jsonl").read_bytes()
            == (tmp_path / "a.summary.jsonl").read_bytes()
        )
