"""Distributed batch execution: endpoint parsing, deterministic
shard-merge, and the headline acceptance property — a campaign run
through real ``repro worker`` subprocesses produces a journal and
summary **byte-identical** to a serial single-host run, whatever the
worker count, completion order, or mid-run worker loss."""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from daemon_harness import repro_env
from worker_harness import worker_fleet

from repro.engine import faults as _faults
from repro.engine.campaign import Campaign
from repro.engine.dispatch import (
    ShardMerger,
    absorb_shards,
    default_chunksize,
    plan_units,
    shard_path,
)
from repro.engine.faults import FaultPlan
from repro.engine.remote import (
    RemoteWorkerError,
    WorkerEndpoint,
    _run_unit,
    _unit_msg,
    execute_remote,
    parse_workers,
)
from repro.engine.scenarios import ScenarioGrid, ScenarioSpec
from repro.engine.scheduler import plan_batches
from repro.engine.store import ResultStore, journal_line
from repro.engine.telemetry import Recorder


def small_grid() -> ScenarioGrid:
    return ScenarioGrid(n=[5, 6], k=2, num_groups=[1, 2], seed=range(3),
                        noise=0.1)


# ----------------------------------------------------------------------
# Endpoint parsing — the transport seam.
# ----------------------------------------------------------------------


class TestParseWorkers:
    def test_dial_endpoint_with_default_host(self):
        ep = WorkerEndpoint.parse("9101")
        assert (ep.kind, ep.host, ep.port) == ("dial", "127.0.0.1", 9101)
        assert ep.spec == "127.0.0.1:9101"

    def test_dial_endpoint_with_host(self):
        ep = WorkerEndpoint.parse("10.0.0.7:9101")
        assert (ep.kind, ep.host, ep.port) == ("dial", "10.0.0.7", 9101)

    def test_accept_endpoint(self):
        ep = WorkerEndpoint.parse("listen:9101")
        assert (ep.kind, ep.host, ep.port) == ("accept", "127.0.0.1", 9101)
        assert ep.spec == "listen:127.0.0.1:9101"
        ep = WorkerEndpoint.parse("listen:0.0.0.0:9101")
        assert (ep.kind, ep.host) == ("accept", "0.0.0.0")

    @pytest.mark.parametrize("bad", ["", "host:port", "1:2:x", "a:70000"])
    def test_invalid_endpoint_raises(self, bad):
        with pytest.raises(ValueError):
            WorkerEndpoint.parse(bad)

    def test_comma_separated_string(self):
        eps = parse_workers("h1:1, h2:2 ,")
        assert [ep.spec for ep in eps] == ["h1:1", "h2:2"]

    def test_endpoint_objects_pass_through(self):
        ep = WorkerEndpoint(kind="accept", host="127.0.0.1", port=0)
        assert parse_workers([ep, "h:3"])[0] is ep

    def test_none_is_empty(self):
        assert parse_workers(None) == []


# ----------------------------------------------------------------------
# ShardMerger — completion order in, plan order out.
# ----------------------------------------------------------------------


class TestShardMerger:
    def test_releases_in_plan_order_whatever_the_arrival_order(self):
        order = [4, 0, 7, 2, 9, 1]
        for shuffle_seed in range(20):
            arrivals = list(order)
            random.Random(shuffle_seed).shuffle(arrivals)
            merger = ShardMerger(order)
            released = []
            for idx in arrivals:
                released.extend(merger.add(idx, f"r{idx}"))
            assert [idx for idx, _ in released] == order
            assert [res for _, res in released] == [f"r{i}" for i in order]
            assert merger.released == merger.total == len(order)
            assert merger.pending == 0

    def test_contiguous_prefix_releases_eagerly(self):
        merger = ShardMerger([5, 3, 8])
        assert merger.add(3, "b") == []
        assert merger.add(5, "a") == [(5, "a"), (3, "b")]
        assert merger.pending == 0

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError):
            ShardMerger([1, 2]).add(99, "x")

    def test_duplicate_arrival_raises(self):
        merger = ShardMerger([1, 2])
        merger.add(2, "x")
        with pytest.raises(ValueError):
            merger.add(2, "again")
        merger.add(1, "y")  # releases both
        with pytest.raises(ValueError):
            merger.add(1, "released dup")

    def test_duplicate_order_index_raises(self):
        with pytest.raises(ValueError):
            ShardMerger([1, 1])

    def test_drain_flushes_held_results_in_position_order(self):
        merger = ShardMerger([4, 0, 7])
        merger.add(7, "c")
        merger.add(0, "b")  # 4 never arrives — gap stays pending
        assert merger.drain() == [(0, "b"), (7, "c")]
        assert merger.pending == 0


# ----------------------------------------------------------------------
# Dispatch units — one planner: the fleet ships the pool's plan for
# jobs = fleet size.
# ----------------------------------------------------------------------


def _fleet_work_list():
    """Two 20-lane groups (n = 5 and 6) with unbatchable singles
    interleaved, so every fleet size up to 4 cuts the groups."""
    single = ScenarioSpec(
        n=7, k=2, adversary="crash", algorithm="floodmin",
        options=(("f", 1),),
    )
    specs = []
    for seed in range(20):
        specs += [
            ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.1)
            for n in (6, 5)
        ]
        if seed % 4 == 0:
            specs.append(single)
    return list(enumerate(specs))


def _unit_order(units):
    return [idx for unit in units for idx, _ in unit.items]


class TestPlanUnits:
    @pytest.mark.parametrize("fleet", [1, 2, 3, 4])
    def test_batches_are_the_pool_plan_for_the_fleet_size(self, fleet):
        indexed = _fleet_work_list()
        units = plan_units(indexed, "batched", jobs=fleet)
        plan = plan_batches(indexed, jobs=fleet)
        batches = [u.batch for u in units if u.kind == "batch"]
        assert batches == list(plan.batches)
        # One batch per group for one worker; larger fleets cut both.
        assert len(batches) == 2 if fleet == 1 else len(batches) > 2
        singles = list(plan.singles)
        size = default_chunksize(len(singles), fleet)
        assert [u.items for u in units if u.kind == "chunk"] == [
            singles[i:i + size] for i in range(0, len(singles), size)
        ]
        # Whatever the fleet size, units carry the serial plan's order,
        # which is the order the shard merger releases results in.
        serial = plan_batches(indexed)
        assert _unit_order(units) == [
            idx for b in serial.batches for idx, _ in b.items
        ] + [idx for idx, _ in serial.singles]

    def test_a_given_plan_ships_unchanged(self):
        # Campaign.run hands its reporter's plan in: the fleet must ship
        # that plan, not re-plan for its own size.
        indexed = _fleet_work_list()
        plan = plan_batches(indexed, jobs=4)
        units = plan_units(indexed, "batched", jobs=2, plan=plan)
        assert [u.batch for u in units if u.kind == "batch"] == list(
            plan.batches
        )

    def test_unbatched_backends_ship_contiguous_chunks(self):
        indexed = _fleet_work_list()
        units = plan_units(indexed, "reference", jobs=3)
        size = default_chunksize(len(indexed), 3)
        assert all(u.kind == "chunk" for u in units)
        assert [u.items for u in units] == [
            indexed[i:i + size] for i in range(0, len(indexed), size)
        ]


# ----------------------------------------------------------------------
# The unit wire message, run in-process on the worker side.
# ----------------------------------------------------------------------


class TestUnitMessage:
    @staticmethod
    def _wire_msg() -> dict:
        """A planned batch's unit message, as the worker decodes it."""
        indexed = list(enumerate(small_grid().expand()))
        unit = next(
            u for u in plan_units(indexed, "batched", jobs=1)
            if u.kind == "batch"
        )
        return json.loads(json.dumps(_unit_msg(unit, "batched")))

    def test_unit_message_fields(self):
        assert set(self._wire_msg()) == {
            "type", "kind", "id", "items", "backend", "n", "bucket",
            "width",
        }

    def test_legacy_compact_field_is_ignored(self):
        # A coordinator from before the mask-only kernel mode was
        # retired still sends that mode's flag; its units must still run.
        msg = self._wire_msg()
        reply = _run_unit(msg, collect=False)
        legacy = _run_unit({**msg, "compact": False}, collect=False)
        assert reply["type"] == legacy["type"] == "result"
        assert len(reply["records"]) == len(msg["items"])
        assert legacy["records"] == reply["records"]


# ----------------------------------------------------------------------
# Coordinator error paths that need no subprocess.
# ----------------------------------------------------------------------


class TestCoordinatorErrors:
    def test_unreachable_worker_raises_remote_error(self):
        specs = small_grid().expand()
        with pytest.raises(RemoteWorkerError):
            execute_remote(
                specs, "127.0.0.1:1", backend="auto", connect_timeout=0.5
            )

    def test_no_endpoints_raises(self):
        with pytest.raises(ValueError):
            execute_remote(small_grid().expand(), [])


# ----------------------------------------------------------------------
# The headline property: byte-identical journals and summaries.
# ----------------------------------------------------------------------


@pytest.mark.daemon
class TestRemoteByteIdentity:
    def test_journal_and_summary_bytes_invariant_under_fleet_size(
        self, tmp_path
    ):
        grid = small_grid()
        serial = Campaign(grid, store=tmp_path / "serial.jsonl")
        report = serial.run(jobs=1, backend="auto")
        assert report.ok == report.total
        serial.write_summary(tmp_path / "serial.summary.jsonl")
        journal_ref = (tmp_path / "serial.jsonl").read_bytes()
        summary_ref = (tmp_path / "serial.summary.jsonl").read_bytes()

        with worker_fleet(tmp_path, count=4) as fleet:
            for count in (1, 2, 4):
                store = tmp_path / f"remote{count}.jsonl"
                campaign = Campaign(grid, store=store)
                report = campaign.run(
                    backend="auto", workers=fleet.endpoints[:count]
                )
                assert report.ok == report.total
                campaign.write_summary(tmp_path / f"remote{count}.summary")
                assert store.read_bytes() == journal_ref, (
                    f"journal bytes diverged with {count} workers"
                )
                assert (
                    tmp_path / f"remote{count}.summary"
                ).read_bytes() == summary_ref, (
                    f"summary bytes diverged with {count} workers"
                )
                # Clean completion leaves no orphaned shard files.
                assert not shard_path(store).exists()
            assert fleet.stop() == [0, 0, 0, 0]

    def test_remote_telemetry_counts_every_record_once(self, tmp_path):
        # One 20-lane group plus the small grid: a two-worker fleet's
        # plan cuts the group in two, as a two-job pool's would.
        grid = small_grid().expand() + ScenarioGrid(
            n=[7], k=2, num_groups=2, seed=range(20), noise=0.1
        ).expand()
        plans = []
        with worker_fleet(tmp_path, count=2) as fleet:
            rec = Recorder()
            campaign = Campaign(grid, store=tmp_path / "j.jsonl")
            campaign.run(
                backend="auto", workers=fleet.endpoints, recorder=rec,
                reporter_factory=lambda total, plan: plans.append(plan),
            )
            snap = rec.snapshot()
            merged = snap["deterministic"]["counters"][
                "remote.shard_records_merged"
            ]
            assert merged == len(grid)
            info = snap["volatile"]["info"]["remote.workers"]
            assert len(info) == 2
            assert sum(w["units"] for w in info) >= 1
        # The progress reporter's plan is the plan the fleet dispatched:
        # one unit per planned batch plus one per chunk of singles.
        (plan,) = plans
        assert [b.lanes for b in plan.batches if b.n == 7] == [10, 10]
        singles = len(plan.singles)
        chunks = -(-singles // default_chunksize(singles, 2)) if singles else 0
        assert snap["volatile"]["counters"]["remote.batches_dispatched"] == (
            len(plan.batches) + chunks
        )


@pytest.mark.daemon
class TestRemoteWorkerLoss:
    def test_seeded_worker_kill_reconverges_to_identical_bytes(
        self, tmp_path
    ):
        grid = small_grid()
        ids = [spec.scenario_id for spec in grid.expand()]
        # Pick a seed whose kill plan targets exactly one scenario, so
        # the drill is a single deterministic mid-run worker death.
        seed = next(
            s for s in range(1000)
            if len(FaultPlan(seed=s, kill=0.1).victims("kill", ids)) == 1
        )

        serial = Campaign(grid, store=tmp_path / "serial.jsonl")
        assert serial.run(jobs=1, backend="auto").ok == len(ids)
        journal_ref = (tmp_path / "serial.jsonl").read_bytes()

        ledger = tmp_path / "kill.ledger"
        try:
            FaultPlan.from_seed(
                seed, kill=0.1, ledger=str(ledger)
            ).install()
            with worker_fleet(tmp_path, count=2) as fleet:
                store = tmp_path / "remote.jsonl"
                campaign = Campaign(grid, store=store)
                report = campaign.run(
                    backend="auto", workers=fleet.endpoints, max_retries=3
                )
                assert report.ok == len(ids)
                assert store.read_bytes() == journal_ref
        finally:
            _faults.clear()
        fired = ledger.read_text().splitlines()
        assert len(fired) == 1 and fired[0].startswith("kill:")


# ----------------------------------------------------------------------
# Accept endpoints: the coordinator binds, the worker dials in.
# ----------------------------------------------------------------------


@pytest.mark.daemon
class TestAcceptEndpoint:
    def test_connect_back_worker_is_a_drop_in(self, tmp_path):
        specs = small_grid().expand()
        serial = Campaign(small_grid(), store=tmp_path / "serial.jsonl")
        serial.run(jobs=1, backend="auto")
        ref_lines = (
            (tmp_path / "serial.jsonl").read_text().splitlines()
        )

        ep = WorkerEndpoint.parse("listen:127.0.0.1:0")
        ep.prepare()  # resolves port 0 before the worker spawns
        assert ep.port != 0
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"127.0.0.1:{ep.port}",
            ],
            env=repro_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            lines = []
            results = execute_remote(
                specs, [ep], backend="auto",
                on_result=lambda r: lines.append(journal_line(r)),
            )
            assert [r.scenario_id for r in results] == [
                s.scenario_id for s in specs
            ]
            assert lines == ref_lines
            assert proc.wait(timeout=30) == 0  # one session, clean exit
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Crash-resume: orphaned worker shards fold back into the journal.
# ----------------------------------------------------------------------


class TestAbsorbShards:
    def test_orphaned_shard_records_absorb_and_resume(self, tmp_path):
        grid = small_grid()
        full = Campaign(grid, store=tmp_path / "full.jsonl")
        full.run(jobs=1, backend="auto")
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        assert len(lines) == 12

        # Simulate a coordinator crash: the journal has the first half,
        # a worker shard holds the rest (shard lines use the journal
        # codec, so real shard files round-trip through this path).
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text("".join(line + "\n" for line in lines[:6]))
        shard = shard_path(crashed)
        shard.write_text("".join(line + "\n" for line in lines[6:]))

        store = ResultStore(crashed)
        rec = Recorder()
        assert absorb_shards(store, recorder=rec) == 6
        assert not shard.exists()
        snap = rec.snapshot()
        assert snap["volatile"]["counters"][
            "executor.shard_records_absorbed"
        ] == 6

        campaign = Campaign(grid, store=crashed)
        status = campaign.status()
        assert status.missing == 0
        # Absorbing again is a no-op.
        assert absorb_shards(store) == 0

    @pytest.mark.parametrize("workers", [None, ["127.0.0.1:1"]])
    def test_resume_without_shards_reads_the_journal_once(
        self, tmp_path, monkeypatch, workers
    ):
        # Every resume of an on-disk journal looks for shards; with none
        # present it must not cost a second journal read, pool or fleet.
        store = tmp_path / "j.jsonl"
        Campaign(small_grid(), store=store).run(jobs=1, backend="auto")
        loads = []
        real_load = ResultStore.load

        def counting_load(self, *args, **kwargs):
            loads.append(self.path)
            return real_load(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        campaign = Campaign(small_grid(), store=store, workers=workers)
        report = campaign.run(backend="auto")
        assert report.executed == 0
        assert len(loads) == 1

    def test_terminal_journal_records_win_over_shards(self, tmp_path):
        grid = small_grid()
        full = Campaign(grid, store=tmp_path / "full.jsonl")
        full.run(jobs=1, backend="auto")
        lines = (tmp_path / "full.jsonl").read_text().splitlines()

        target = tmp_path / "j.jsonl"
        target.write_text("".join(line + "\n" for line in lines))
        shard = shard_path(target)
        # Duplicate + torn tail: neither may dirty the journal.
        shard.write_text(lines[0] + "\n" + '{"torn": ')
        store = ResultStore(target)
        assert absorb_shards(store) == 0
        assert not shard.exists()
        assert target.read_text().splitlines() == lines
