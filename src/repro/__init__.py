"""repro — a reproduction of *Solving k-Set Agreement with Stable Skeleton
Graphs* (Biely, Robinson, Schmid; IPDPS-W 2011, arXiv:1102.4423).

The package implements the paper's round-based computing model, skeleton
graphs, the ``Psrcs(k)`` communication predicate with an exact checker, the
stable-skeleton-approximation algorithm (Algorithm 1) for k-set agreement,
both impossibility constructions, classic baselines, and a benchmark harness
regenerating every figure- and theorem-shaped result.

Quickstart
----------
>>> from repro import GroupedSourceAdversary, make_processes, RoundSimulator
>>> adv = GroupedSourceAdversary(n=9, num_groups=3, seed=1, noise=0.2)
>>> run = RoundSimulator(make_processes(9), adv).run()
>>> len(run.decision_values()) <= 3   # k-agreement for k = 3
True

See ``examples/quickstart.py`` for the narrated version.
"""

from repro.adversaries import (
    Adversary,
    CrashAdversary,
    EventuallyGoodAdversary,
    GroupedSourceAdversary,
    MobileOmissionAdversary,
    PartitionAdversary,
    RecordedAdversary,
    ScheduleAdversary,
    StaticAdversary,
)
from repro.analysis import (
    AgreementReport,
    check_agreement_properties,
    decision_stats,
    message_stats,
)
from repro.core import (
    ApproximationGraph,
    SkeletonAgreementProcess,
    make_consensus_processes,
    make_processes,
)
from repro.engine import (
    AggregateTable,
    Campaign,
    CampaignReport,
    ExperimentSpec,
    ResultStore,
    ScenarioGrid,
    ScenarioResult,
    ScenarioSpec,
    agreement_grid,
    execute_scenario,
    execute_scenario_batch,
    execute_scenario_with_backend,
    execute_scenarios,
    family_campaign,
    family_names,
    get_family,
    latency_table,
    rollup,
    run_campaign,
    run_family,
    termination_grid,
)
from repro.experiments.sweeps import (
    SweepResult,
    agreement_sweep,
    run_algorithm1,
    termination_sweep,
)
from repro.graphs import DiGraph, RoundLabeledDigraph
from repro.predicates import Psrc, Psrcs, PTrue
from repro.rounds import (
    FastPathRun,
    FastPathTask,
    FastPathUnsupported,
    Message,
    Process,
    RoundSimulator,
    Run,
    SimulationConfig,
    simulate,
    simulate_fastpath,
    simulate_fastpath_batch,
)
from repro.skeleton import SkeletonTracker

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # rounds
    "Process",
    "Message",
    "RoundSimulator",
    "SimulationConfig",
    "Run",
    "simulate",
    "FastPathRun",
    "FastPathTask",
    "FastPathUnsupported",
    "simulate_fastpath",
    "simulate_fastpath_batch",
    # graphs
    "DiGraph",
    "RoundLabeledDigraph",
    # skeleton
    "SkeletonTracker",
    # predicates
    "Psrc",
    "Psrcs",
    "PTrue",
    # core
    "ApproximationGraph",
    "SkeletonAgreementProcess",
    "make_processes",
    "make_consensus_processes",
    # adversaries
    "Adversary",
    "RecordedAdversary",
    "StaticAdversary",
    "ScheduleAdversary",
    "GroupedSourceAdversary",
    "PartitionAdversary",
    "EventuallyGoodAdversary",
    "CrashAdversary",
    "MobileOmissionAdversary",
    # analysis
    "AgreementReport",
    "check_agreement_properties",
    "decision_stats",
    "message_stats",
    # experiments
    "SweepResult",
    "agreement_sweep",
    "run_algorithm1",
    "termination_sweep",
    # engine
    "AggregateTable",
    "Campaign",
    "CampaignReport",
    "ExperimentSpec",
    "ResultStore",
    "ScenarioGrid",
    "ScenarioResult",
    "ScenarioSpec",
    "agreement_grid",
    "execute_scenario",
    "execute_scenario_batch",
    "execute_scenario_with_backend",
    "execute_scenarios",
    "family_campaign",
    "family_names",
    "get_family",
    "latency_table",
    "rollup",
    "run_campaign",
    "run_family",
    "termination_grid",
]
