"""FASTPATH: the vectorized and mega-batched backends vs the reference.

Times the three execution backends over the same campaign ensemble
workloads the TERMINATION and LATENCY-DIST experiments run — per-scenario
results are asserted byte-identical (canonical JSON lines) across all
three before any speedup is reported, so the numbers always compare
*equivalent* work.  Wall-clocks land in ``benchmarks/BENCH_FASTPATH.json``
(machine-readable trajectory: per-``n`` groups and medians, for both the
reference and the vectorized baseline) and the per-group breakdown in
``results.txt``.

Each group is one seed ensemble (24 seeds — campaign-scale, which is
what the mega-batched backend exists for: the batch scheduler packs a
grid's same-``n`` scenarios into one ``(S, n, ...)`` tensor program).
The HETERO-LAT workload additionally measures the scheduler's lane
**compaction** gain: heterogeneous-latency ensembles (early-deciding
lanes mixed with full-budget stragglers) timed with compaction on vs the
mask-only kernel behavior the PR-4 backend had.
"""

from __future__ import annotations

import statistics
import time

from bench_timing import interleaved_best

from repro.analysis.reporting import format_table
from repro.engine.executor import execute_scenarios
from repro.engine.scenarios import ScenarioSpec, termination_grid
from repro.engine.store import canonical_line, journal_line

# Conservative floors vs the measured ~2.1-2.8x (batched over vectorized)
# and ~6x+ (fast paths over reference) so a loaded CI box cannot flake
# the suite; BENCH_FASTPATH.json records the real ratios.
MIN_SPEEDUP = 2.5  # vectorized (and batched) over reference
MIN_BATCH_GAIN = 1.2  # batched over vectorized, median across groups
# Lane compaction over mask-only batching (the PR-4 kernel behavior) on
# the heterogeneous-latency ensemble; measured ~1.9-2.7x.
MIN_COMPACTION_GAIN = 1.3
# The planner's cross-n packing over running each n as its own work
# list, on sparse mixed-width ensembles; measured ~1.35-2.0x.
MIN_PACKING_GAIN = 1.3
# The schema-3 BENCH_FASTPATH.json floor for median_speedup_batched: the
# regression guard below fails a run that lands under FLOOR * SLACK.
# The slack absorbs shared-box noise (per-group timings on a loaded CI
# host jitter by tens of percent); a real regression — losing the
# mega-batch, the scheduler, or compaction — lands at 2-7x, far below.
SCHEMA3_SPEEDUP_FLOOR = 14.44
FLOOR_SLACK = 0.7

SEEDS = 24

HEADERS = [
    "group",
    "scenarios",
    "ref_ms",
    "vect_ms",
    "batch_ms",
    "vs_ref",
    "vs_vect",
]


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock: per-group timings feed the
    recorded per-group ratios, and a single 6-15ms sample on a noisy box
    can swing one group by 20% — the minimum is the stable estimator."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_backends(specs):
    """(reference_s, vectorized_s, batched_s) for one scenario list,
    three-way equivalence asserted first."""
    reference = execute_scenarios(specs, backend="reference")
    vectorized = execute_scenarios(specs, backend="vectorized")
    batched = execute_scenarios(specs, backend="batched")
    lines = [canonical_line(r) for r in reference]
    assert lines == [canonical_line(r) for r in vectorized], (
        "backends disagree — speedup numbers would be meaningless"
    )
    assert lines == [canonical_line(r) for r in batched], (
        "backends disagree — speedup numbers would be meaningless"
    )
    return (
        _best_of(lambda: execute_scenarios(specs, backend="reference")),
        _best_of(lambda: execute_scenarios(specs, backend="vectorized")),
        _best_of(lambda: execute_scenarios(specs, backend="batched")),
    )


def _compare_groups(groups):
    rows, groups_out = [], []
    total_ref = total_vect = total_batch = 0.0
    total_n = 0
    for label, specs in groups:
        ref_s, vect_s, batch_s = _time_backends(specs)
        rows.append(
            [
                label,
                len(specs),
                round(ref_s * 1e3, 1),
                round(vect_s * 1e3, 1),
                round(batch_s * 1e3, 1),
                round(ref_s / batch_s, 1),
                round(vect_s / batch_s, 2),
            ]
        )
        groups_out.append(
            {
                "group": label,
                "scenarios": len(specs),
                "reference_s": round(ref_s, 4),
                "vectorized_s": round(vect_s, 4),
                "batched_s": round(batch_s, 4),
                "speedup_vs_reference": round(ref_s / batch_s, 2),
                "speedup_vs_vectorized": round(vect_s / batch_s, 2),
            }
        )
        total_ref += ref_s
        total_vect += vect_s
        total_batch += batch_s
        total_n += len(specs)
    rows.append(
        [
            "total",
            total_n,
            round(total_ref * 1e3, 1),
            round(total_vect * 1e3, 1),
            round(total_batch * 1e3, 1),
            round(total_ref / total_batch, 1),
            round(total_vect / total_batch, 2),
        ]
    )
    totals = (total_ref, total_vect, total_batch, total_n)
    return rows, groups_out, totals


def _assert_and_record(workload, grid_desc, groups, record_fastpath, benchmark):
    rows, group_entries, totals = benchmark.pedantic(
        lambda: _compare_groups(groups), rounds=1, iterations=1
    )
    total_ref, total_vect, total_batch, total_n = totals
    assert total_ref / total_vect >= MIN_SPEEDUP
    assert total_ref / total_batch >= MIN_SPEEDUP
    median_gain = statistics.median(
        g["speedup_vs_vectorized"] for g in group_entries
    )
    assert median_gain >= MIN_BATCH_GAIN
    record_fastpath(
        workload,
        total_ref,
        total_vect,
        total_n,
        batched_s=total_batch,
        extra={"grid": grid_desc, "groups": group_entries},
    )
    return rows


def test_bench_fastpath_termination(benchmark, emit, record_fastpath):
    groups = [
        (f"n={n}", termination_grid(ns=[n], seeds=range(SEEDS), noise=0.15))
        for n in (4, 6, 9, 12, 16)
    ]
    rows = _assert_and_record(
        "TERMINATION",
        f"termination_grid(ns=[4,6,9,12,16], seeds=0..{SEEDS - 1}, "
        "noise=0.15)",
        groups,
        record_fastpath,
        benchmark,
    )
    emit(
        format_table(
            HEADERS,
            rows,
            title="FASTPATH-TERM — mega-batched vs vectorized vs reference "
            "backend on the TERMINATION ensemble (identical metrics "
            "asserted first)",
        )
    )


def _hetero_latency_specs(n: int, seeds: int) -> list[ScenarioSpec]:
    """One heterogeneous-latency ensemble: lanes of one same-``n`` batch
    retiring at wildly different rounds.  Two of six lanes carry the
    ablation knobs that stall Algorithm 1 — ``prune_unreachable=False``
    runs to the full ``6n + 20`` budget, a shrunk purge window retires
    earliest — while the rest sweep noise and decide at ``~n + 4``.
    Mask-only batching pays full kernel width until the last straggler
    finishes; lane compaction pays per-round for the live lanes only.
    """
    specs = []
    for s in range(seeds):
        if s % 6 == 5:
            specs.append(
                ScenarioSpec(
                    n=n, k=2, num_groups=2, seed=s, noise=0.35,
                    options=(("prune_unreachable", False),),
                )
            )
        elif s % 6 == 4:
            specs.append(
                ScenarioSpec(
                    n=n, k=2, num_groups=2, seed=s, noise=0.35,
                    options=(("purge_window", max(1, n // 2)),),
                )
            )
        else:
            specs.append(
                ScenarioSpec(
                    n=n, k=2, num_groups=2, seed=s,
                    noise=(0.0, 0.15, 0.3, 0.45)[s % 4],
                )
            )
    return specs


HETERO_HEADERS = [
    "group",
    "scenarios",
    "ref_ms",
    "vect_ms",
    "masked_ms",
    "batch_ms",
    "vs_ref",
    "compaction",
]


def test_bench_fastpath_hetero_latency(benchmark, emit, record_fastpath):
    """HETERO-LAT: the batch scheduler's lane-compaction gain.

    ``compact=False`` reproduces the PR-4 mega-batched backend exactly
    (retired lanes masked, full width to the last straggler), so the
    masked-vs-compacted ratio *is* the compaction gain — measured on
    byte-identical work, asserted equivalent first.
    """
    groups = [
        (f"n={n}", _hetero_latency_specs(n, SEEDS)) for n in (9, 12, 16)
    ]

    def _run():
        rows, entries = [], []
        total_ref = total_vect = total_masked = total_batch = total_n = 0
        for label, specs in groups:
            reference = execute_scenarios(specs, backend="reference")
            vectorized = execute_scenarios(specs, backend="vectorized")
            masked = execute_scenarios(
                specs, backend="batched", compact=False
            )
            compacted = execute_scenarios(specs, backend="batched")
            lines = [canonical_line(r) for r in reference]
            assert lines == [canonical_line(r) for r in vectorized]
            assert lines == [canonical_line(r) for r in masked]
            assert lines == [canonical_line(r) for r in compacted]
            ref_s = _best_of(
                lambda: execute_scenarios(specs, backend="reference")
            )
            vect_s = _best_of(
                lambda: execute_scenarios(specs, backend="vectorized")
            )
            masked_s = _best_of(
                lambda: execute_scenarios(
                    specs, backend="batched", compact=False
                )
            )
            batch_s = _best_of(
                lambda: execute_scenarios(specs, backend="batched")
            )
            rows.append(
                [
                    label,
                    len(specs),
                    round(ref_s * 1e3, 1),
                    round(vect_s * 1e3, 1),
                    round(masked_s * 1e3, 1),
                    round(batch_s * 1e3, 1),
                    round(ref_s / batch_s, 1),
                    round(masked_s / batch_s, 2),
                ]
            )
            entries.append(
                {
                    "group": label,
                    "scenarios": len(specs),
                    "reference_s": round(ref_s, 4),
                    "vectorized_s": round(vect_s, 4),
                    "batched_masked_s": round(masked_s, 4),
                    "batched_s": round(batch_s, 4),
                    "speedup_vs_reference": round(ref_s / batch_s, 2),
                    "speedup_vs_vectorized": round(vect_s / batch_s, 2),
                    "compaction_gain": round(masked_s / batch_s, 2),
                }
            )
            total_ref += ref_s
            total_vect += vect_s
            total_masked += masked_s
            total_batch += batch_s
            total_n += len(specs)
        rows.append(
            [
                "total",
                total_n,
                round(total_ref * 1e3, 1),
                round(total_vect * 1e3, 1),
                round(total_masked * 1e3, 1),
                round(total_batch * 1e3, 1),
                round(total_ref / total_batch, 1),
                round(total_masked / total_batch, 2),
            ]
        )
        totals = (total_ref, total_vect, total_masked, total_batch, total_n)
        return rows, entries, totals

    rows, entries, totals = benchmark.pedantic(_run, rounds=1, iterations=1)
    total_ref, total_vect, total_masked, total_batch, total_n = totals
    median_gain = statistics.median(g["compaction_gain"] for g in entries)
    assert median_gain >= MIN_COMPACTION_GAIN
    assert total_ref / total_batch >= MIN_SPEEDUP
    record_fastpath(
        "HETERO-LAT",
        total_ref,
        total_vect,
        total_n,
        batched_s=total_batch,
        extra={
            "grid": f"heterogeneous-latency mix n=9,12,16, {SEEDS} seeds "
            "(4/6 noise-sweep + 1/6 shrunk-window + 1/6 no-pruning "
            "full-budget stragglers)",
            "batched_masked_s": round(total_masked, 4),
            "compaction_gain": round(total_masked / total_batch, 2),
            "compaction_baseline": "batched with compact=False "
            "(mask-only, the PR-4 kernel behavior)",
            "groups": entries,
        },
    )
    emit(
        format_table(
            HETERO_HEADERS,
            rows,
            title="FASTPATH-HETERO — lane compaction vs mask-only "
            "mega-batching on heterogeneous-latency ensembles "
            "(identical metrics asserted first)",
        )
    )


def test_bench_telemetry_overhead(benchmark, emit, record_telemetry):
    """TELEMETRY: the recorder must be zero-cost when off.

    Times the TERMINATION-style batched ensemble four ways — an A/A pair
    with the recorder off and an A/A pair with a live recorder.  The
    off/off pair ratio is both the measurement noise floor and the
    recorder-off overhead (since "off" *is* the instrumented code with
    the null recorder): enforced < 2%.  Once both pairs converge the
    floors are trustworthy, so the on/off overhead is enforced at a
    generous < 5% (measured ~1%).  A box too noisy for both A/A pairs to
    converge within the round cap cannot resolve either bound — that is
    a measurement outcome, not a regression, and skips.
    """
    import pytest

    from repro.engine.telemetry import Recorder

    specs = termination_grid(ns=[9, 12, 16], seeds=range(48), noise=0.15)

    def _off():
        execute_scenarios(specs, backend="batched")

    def _on():
        execute_scenarios(specs, backend="batched", recorder=Recorder())

    (off_a, off_b, on_a, on_b), converged = benchmark.pedantic(
        lambda: interleaved_best(
            [_off, _off, _on, _on], pairs=[(0, 1), (2, 3)]
        ),
        rounds=1,
        iterations=1,
    )
    if not converged:
        pytest.skip(
            "A/A timing pairs did not converge within the round cap — "
            "the box is too noisy to resolve the 2% overhead guard"
        )
    off_s = min(off_a, off_b)
    on_s = min(on_a, on_b)
    off_overhead = max(off_a, off_b) / off_s - 1.0
    on_overhead = on_s / off_s - 1.0
    assert off_overhead < 0.02, (
        f"recorder-off A/A ratio {off_overhead:.2%} >= 2% — the "
        "null-recorder path is no longer measurement-stable"
    )
    assert on_overhead < 0.05, (
        f"live-recorder overhead {on_overhead:.2%} >= 5% — recording "
        "got expensive; check for unguarded hot-loop instrumentation"
    )
    record_telemetry(
        {
            "workload": "TERMINATION-style batched ensemble "
            f"(ns=[9,12,16], {len(specs)} scenarios)",
            "recorder_off_s": round(off_s, 4),
            "recorder_on_s": round(on_s, 4),
            "recorder_off_overhead": round(off_overhead, 4),
            "recorder_on_overhead": round(on_overhead, 4),
            "method": "interleaved best-of-N over two A/A pairs "
            "(off/off + on/on), N adaptive until both converge "
            "(7..60 rounds)",
        }
    )
    emit(
        format_table(
            ["variant", "wall_ms", "overhead"],
            [
                ["recorder off", round(off_s * 1e3, 1), "baseline"],
                [
                    "recorder off (A/A twin)",
                    round(max(off_a, off_b) * 1e3, 1),
                    f"{off_overhead:+.1%}",
                ],
                ["recorder on", round(on_s * 1e3, 1), f"{on_overhead:+.1%}"],
            ],
            title="TELEMETRY — recorder overhead on the batched ensemble "
            "(off/off pair bounds noise; off <2%, on <5% enforced)",
        )
    )


def test_bench_contracts_overhead(benchmark, emit, record_contracts):
    """CONTRACTS: the runtime contract layer must be zero-cost when off.

    Same harness as the telemetry guard: an off/off A/A pair bounds both
    the noise floor and the contracts-off overhead (the "off" path *is*
    the instrumented code behind ``if contracts:`` guards and the
    ``@contract`` decorator's one falsy lookup) — enforced < 2%.  The
    contracts-on floor is informative only: armed contracts deliberately
    re-derive work (re-fetched schedule blocks, re-planned batches,
    singleton lane re-runs) on a sampled subset, so its cost is a design
    dial, not a regression signal.
    """
    import pytest

    from repro.engine.contracts import contracts_enabled

    specs = termination_grid(ns=[9, 12, 16], seeds=range(48), noise=0.15)

    def _off():
        execute_scenarios(specs, backend="batched")

    def _on():
        with contracts_enabled():
            execute_scenarios(specs, backend="batched")

    (off_a, off_b, on_s), converged = benchmark.pedantic(
        lambda: interleaved_best([_off, _off, _on], pairs=[(0, 1)]),
        rounds=1,
        iterations=1,
    )
    if not converged:
        pytest.skip(
            "A/A timing pair did not converge within the round cap — "
            "the box is too noisy to resolve the 2% overhead guard"
        )
    off_s = min(off_a, off_b)
    off_overhead = max(off_a, off_b) / off_s - 1.0
    on_overhead = on_s / off_s - 1.0
    assert off_overhead < 0.02, (
        f"contracts-off A/A ratio {off_overhead:.2%} >= 2% — the "
        "null-contracts path is no longer measurement-stable"
    )
    record_contracts(
        {
            "workload": "TERMINATION-style batched ensemble "
            f"(ns=[9,12,16], {len(specs)} scenarios)",
            "contracts_off_s": round(off_s, 4),
            "contracts_on_s": round(on_s, 4),
            "contracts_off_overhead": round(off_overhead, 4),
            "contracts_on_overhead": round(on_overhead, 4),
            "method": "interleaved best-of-N with an off/off A/A pair, "
            "N adaptive until the pair converges (7..60 rounds); "
            "contracts-on is informative (sampled re-derivation "
            "is paid work by design)",
        }
    )
    emit(
        format_table(
            ["variant", "wall_ms", "overhead"],
            [
                ["contracts off", round(off_s * 1e3, 1), "baseline"],
                [
                    "contracts off (A/A twin)",
                    round(max(off_a, off_b) * 1e3, 1),
                    f"{off_overhead:+.1%}",
                ],
                [
                    "contracts on (informative)",
                    round(on_s * 1e3, 1),
                    f"{on_overhead:+.1%}",
                ],
            ],
            title="CONTRACTS — runtime contract layer overhead on the "
            "batched ensemble (off/off pair bounds noise; off <2% "
            "enforced, on informative)",
        )
    )


def _mixed_width_specs() -> list[tuple[str, list[ScenarioSpec]]]:
    """Sparse mixed-``n`` ensembles sharing one round bucket (n=4..7 all
    resolve inside the 64-round budget): run per ``n`` they are four
    tensor programs of a handful of lanes each, where per-program fixed
    cost and the per-round Python loop dominate, while the planner fuses
    them into one padded program.  This is the workload cross-``n``
    packing exists for; dense per-``n`` ensembles (8+ lanes each) and
    gather-regime widths (n >= 16) amortize fine on their own ``n``, so
    the planner does not pack them (see the README's packing notes)."""
    term = [
        ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=0.15)
        for n in (4, 5, 6, 7)
        for s in range(4)
    ]
    hetero = [
        ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=noise,
                     options=options)
        for n in (4, 5, 6, 7)
        for s in range(2)
        for noise, options in (
            (0.3, ()),
            (0.1, (("purge_window", 3),)),
            (0.15, (("prune_unreachable", False),)),
        )
    ]
    return [("term ns=4..7", term), ("hetero ns=4..7", hetero)]


PACKED_HEADERS = [
    "group",
    "scenarios",
    "per_n_ms",
    "packed_ms",
    "packing",
]


def _run_per_n(specs):
    """Batched results of each ``n``'s specs run as its own work list,
    back in ``specs`` order (the cost of not packing)."""
    by_id = {}
    for n in sorted({spec.n for spec in specs}):
        part = [spec for spec in specs if spec.n == n]
        by_id.update(
            (r.scenario_id, r)
            for r in execute_scenarios(part, backend="batched")
        )
    return [by_id[spec.scenario_id] for spec in specs]


def test_bench_fastpath_cross_width_packing(benchmark, emit, record_fastpath):
    """PACKED-MIX: the planner's cross-n packing vs per-n work lists.

    Each group is timed through the identical executor twice — one work
    list per ``n`` vs the whole group as one work list, which the
    planner packs — with journal bytes asserted identical first.
    """
    groups = _mixed_width_specs()

    def _run():
        rows, entries = [], []
        total_ref = total_vect = total_per_n = total_packed = total_n = 0
        for label, specs in groups:
            per_n = _run_per_n(specs)
            packed = execute_scenarios(specs, backend="batched")
            assert [journal_line(r) for r in per_n] == [
                journal_line(r) for r in packed
            ]
            assert [canonical_line(r) for r in packed] == [
                canonical_line(r)
                for r in execute_scenarios(specs, backend="reference")
            ]
            ref_s = _best_of(
                lambda: execute_scenarios(specs, backend="reference")
            )
            vect_s = _best_of(
                lambda: execute_scenarios(specs, backend="vectorized")
            )
            per_n_s = _best_of(lambda: _run_per_n(specs), repeats=5)
            packed_s = _best_of(
                lambda: execute_scenarios(specs, backend="batched"),
                repeats=5,
            )
            rows.append(
                [
                    label,
                    len(specs),
                    round(per_n_s * 1e3, 1),
                    round(packed_s * 1e3, 1),
                    round(per_n_s / packed_s, 2),
                ]
            )
            entries.append(
                {
                    "group": label,
                    "scenarios": len(specs),
                    "reference_s": round(ref_s, 4),
                    "vectorized_s": round(vect_s, 4),
                    "batched_unpacked_s": round(per_n_s, 4),
                    "batched_s": round(packed_s, 4),
                    "speedup_vs_reference": round(ref_s / packed_s, 2),
                    "packing_gain": round(per_n_s / packed_s, 2),
                }
            )
            total_ref += ref_s
            total_vect += vect_s
            total_per_n += per_n_s
            total_packed += packed_s
            total_n += len(specs)
        rows.append(
            [
                "total",
                total_n,
                round(total_per_n * 1e3, 1),
                round(total_packed * 1e3, 1),
                round(total_per_n / total_packed, 2),
            ]
        )
        totals = (total_ref, total_vect, total_per_n, total_packed, total_n)
        return rows, entries, totals

    rows, entries, totals = benchmark.pedantic(_run, rounds=1, iterations=1)
    total_ref, total_vect, total_per_n, total_packed, total_n = totals
    median_packing = statistics.median(
        g["packing_gain"] for g in entries if "packing_gain" in g
    )
    assert median_packing >= MIN_PACKING_GAIN, (
        f"cross-n packing gain {median_packing} < {MIN_PACKING_GAIN} on "
        "the sparse mixed-width ensembles it exists for"
    )
    record_fastpath(
        "PACKED-MIX",
        total_ref,
        total_vect,
        total_n,
        batched_s=total_packed,
        extra={
            "grid": "sparse mixed-width ensembles ns=4..7 (termination-"
            "style 4 seeds/n + hetero-latency 6 variants/n), one "
            "64-round bucket",
            "batched_unpacked_s": round(total_per_n, 4),
            "packing_gain": round(total_per_n / total_packed, 2),
            "packing_baseline": "batched with each n's specs run as its "
            "own work list",
            "groups": entries,
        },
    )
    emit(
        format_table(
            PACKED_HEADERS,
            rows,
            title="FASTPATH-PACKED — planner cross-n packing vs per-n "
            "work lists on sparse mixed-width ensembles (identical journal "
            "bytes asserted first)",
        )
    )


def test_bench_fastpath_floor_guard():
    """The recorded trajectory must not regress below the schema-3 floor.

    Reads ``median_speedup_batched`` back from BENCH_FASTPATH.json after
    the workload benches above have upserted their timings (file order
    runs them first) and fails if it fell below the schema-3 recorded
    floor with shared-box slack — the backstop that keeps a silent
    kernel/scheduler regression from shipping inside an otherwise-green
    bench run.
    """
    import json
    import pathlib

    path = pathlib.Path(__file__).parent / "BENCH_FASTPATH.json"
    data = json.loads(path.read_text())
    assert data["schema"] >= 3
    recorded = data["median_speedup_batched"]
    assert recorded >= SCHEMA3_SPEEDUP_FLOOR * FLOOR_SLACK, (
        f"median_speedup_batched {recorded} fell below the schema-3 "
        f"floor {SCHEMA3_SPEEDUP_FLOOR} (x{FLOOR_SLACK} noise slack) — "
        "the mega-batched backend has regressed"
    )


def test_bench_fastpath_latency_dist(benchmark, emit, record_fastpath):
    scaling = [
        (
            f"n={n}",
            [
                ScenarioSpec(n=n, k=2, num_groups=2, seed=s, noise=0.2)
                for s in range(SEEDS)
            ],
        )
        for n in (6, 9, 12, 16)
    ]
    noise_sens = [
        (
            f"noise={noise}",
            [
                ScenarioSpec(n=9, k=3, num_groups=3, seed=s, noise=noise)
                for s in range(SEEDS)
            ],
        )
        for noise in (0.0, 0.1, 0.3, 0.5)
    ]
    rows = _assert_and_record(
        "LATENCY-DIST",
        f"latency scaling n=6..16 + noise sensitivity n=9, {SEEDS} seeds",
        scaling + noise_sens,
        record_fastpath,
        benchmark,
    )
    emit(
        format_table(
            HEADERS,
            rows,
            title="FASTPATH-LAT — mega-batched vs vectorized vs reference "
            "backend on the LATENCY-DIST ensembles (identical metrics "
            "asserted first)",
        )
    )
