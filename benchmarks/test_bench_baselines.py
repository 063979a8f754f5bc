"""BASELINE: Algorithm 1 vs FloodMin vs flooding consensus vs LocalMin
under (a) the crash model both baselines assume and (b) the Psrcs(k)
partition model only Algorithm 1 handles.

Routed through the campaign engine: each comparison is a small campaign —
one :class:`~repro.engine.scenarios.ScenarioSpec` per (algorithm,
adversary) cell — journaled to a JSONL store and read back from it, so the
rows below are literally what ``skeleton-agreement campaign report`` would
print for the same grid.  (The crash adversary is a pure function of
``(seed, round)``, so every algorithm faces the identical graph sequence
without needing a recording wrapper.)
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.engine.campaign import Campaign
from repro.engine.scenarios import ScenarioSpec


def _campaign_rows(named_specs, store_path, extra_cols):
    """Run (resumably) and return one row per named scenario, in order.

    ``backend="auto"``: the Algorithm-1 arm executes on the batched
    fast path (identical metrics), the baseline algorithms transparently
    fall back to the reference simulator."""
    campaign = Campaign(
        [spec for _, spec in named_specs], store=store_path, backend="auto"
    )
    campaign.run()
    by_id = {r.scenario_id: r for r in campaign.completed_results()}
    rows = []
    for (name, spec), extra in zip(named_specs, extra_cols):
        res = by_id[spec.scenario_id]
        rows.append(
            [name]
            + list(extra)
            + [
                res.distinct_decisions,
                res.k_agreement_holds,
                res.all_decided,
                res.last_decision_round,
            ]
        )
    return rows


def crash_comparison(n=8, f=3, k=2, seed=0, store_path=None):
    common = dict(n=n, k=k, seed=seed, adversary="crash", max_rounds=80)
    named_specs = [
        (
            "Algorithm 1 (skeleton)",
            ScenarioSpec(algorithm="algorithm1", **common).with_options(f=f),
        ),
        (
            "FloodMin",
            ScenarioSpec(algorithm="floodmin", **common).with_options(f=f),
        ),
        (
            "FloodingConsensus",
            ScenarioSpec(algorithm="flooding", **common).with_options(f=f),
        ),
        (
            "LocalMin(horizon=2)",
            ScenarioSpec(algorithm="local_min", **common).with_options(
                f=f, horizon=2
            ),
        ),
        (
            "AsyncKSet(f)",
            ScenarioSpec(algorithm="async_kset", **common).with_options(f=f),
        ),
    ]
    return _campaign_rows(
        named_specs, store_path, [()] * len(named_specs)
    )


def partition_comparison(n=8, k_env=5, k_baseline=3, store_path=None):
    """Environment: Psrcs(k_env) partition run (k_env - 1 loners).  Each
    algorithm is judged against *its own* agreement contract: the classics
    claim <= k_baseline values under <= k_baseline crashes; Algorithm 1
    claims <= k_env under Psrcs(k_env).  The partition forces k_env values,
    so every contract tighter than k_env breaks."""

    def spec(algorithm, contract_k, **options):
        return ScenarioSpec(
            algorithm=algorithm,
            adversary="partition",
            n=n,
            k=contract_k,
            max_rounds=80,
        ).with_options(k_env=k_env, **options)

    named_specs = [
        ("Algorithm 1 (skeleton)", spec("algorithm1", k_env)),
        ("FloodMin", spec("floodmin", k_baseline, f=k_baseline)),
        ("FloodingConsensus", spec("flooding", 1, f=k_baseline)),
        ("LocalMin(horizon=4)", spec("local_min", 1, horizon=4)),
        ("AsyncKSet(f=k-1)", spec("async_kset", k_baseline, f=k_baseline - 1)),
    ]
    contracts = [(k_env,), (k_baseline,), (1,), (1,), (k_baseline,)]
    return _campaign_rows(named_specs, store_path, contracts)


CRASH_HEADERS = ["algorithm", "distinct_values", "k_agreement", "terminated",
                 "last_decide_round"]
PART_HEADERS = ["algorithm", "contract_k", "distinct_values",
                "meets_contract", "terminated", "last_decide_round"]


def test_bench_baselines_crash_model(benchmark, emit, tmp_path):
    rows = benchmark.pedantic(
        crash_comparison,
        kwargs=dict(store_path=tmp_path / "crash.jsonl"),
        rounds=1,
        iterations=1,
    )
    by_name = {row[0]: row for row in rows}
    # In the crash model everyone terminates and the classics are correct;
    # Algorithm 1 even reaches consensus (1 value) but pays decision latency.
    assert by_name["Algorithm 1 (skeleton)"][1] == 1
    assert by_name["FloodMin"][2]
    assert by_name["FloodingConsensus"][1] == 1
    # FloodMin is much faster (⌊f/k⌋+1 rounds vs ~r_ST+2n-1).
    assert by_name["FloodMin"][4] < by_name["Algorithm 1 (skeleton)"][4]
    emit(
        format_table(
            CRASH_HEADERS,
            rows,
            title="BASELINE(a) — crash-synchronous model (n=8, f=3, k=2): "
            "classics are fast and correct; Algorithm 1 correct but slower",
        )
    )


def test_bench_baselines_partition_model(benchmark, emit, tmp_path):
    rows = benchmark.pedantic(
        partition_comparison,
        kwargs=dict(store_path=tmp_path / "partition.jsonl"),
        rounds=1,
        iterations=1,
    )
    by_name = {row[0]: row for row in rows}
    # Under Psrcs(5) partitioning only Algorithm 1 meets its own bound; the
    # crash-model classics blow through theirs (the forced k_env values) and
    # the asynchronous quorum baseline loses *liveness* (loners starve).
    assert by_name["Algorithm 1 (skeleton)"][3]
    assert not by_name["FloodMin"][3]
    assert not by_name["FloodingConsensus"][3]
    assert not by_name["AsyncKSet(f=k-1)"][4]  # never terminates
    emit(
        format_table(
            PART_HEADERS,
            rows,
            title="BASELINE(b) — Psrcs(5) partition model (n=8): only the "
            "skeleton algorithm meets its agreement contract "
            "(crossover: partitions, which the crash model cannot express)",
        )
    )
