"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.digraph import DiGraph


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def diamond() -> DiGraph:
    """0 -> 1 -> 3, 0 -> 2 -> 3 — a DAG with one root and one sink."""
    return DiGraph(edges=[(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def two_cycles() -> DiGraph:
    """Two disjoint 3-cycles: {0,1,2} and {3,4,5}."""
    return DiGraph(
        edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )


@pytest.fixture
def figure1_stable() -> DiGraph:
    """The Figure 1 stable skeleton (with self-loops)."""
    from repro.experiments.figure1 import STABLE_EDGES, FIGURE1_N

    g = DiGraph(nodes=range(FIGURE1_N), edges=STABLE_EDGES)
    return g.with_self_loops()


@pytest.fixture
def closure_inputs(monkeypatch) -> list:
    """Every stack :func:`repro.graphs.matrices.batched_transitive_closure`
    receives through its module attribute, in call order.  The batched
    kernel's :meth:`~repro.rounds.array_backend.KernelNamespace.batched_closure`
    calls it that way; the single-lane kernel imports the name, so its
    closures are not recorded."""
    from repro.graphs import matrices

    real = matrices.batched_transitive_closure
    stacks: list = []

    def spy(stack, *args, **kwargs):
        stacks.append(np.array(stack, copy=True))
        return real(stack, *args, **kwargs)

    monkeypatch.setattr(matrices, "batched_transitive_closure", spy)
    return stacks


def random_digraph(
    rng: np.random.Generator, n: int, p: float, self_loops: bool = False
) -> DiGraph:
    """Helper used by several oracle-comparison tests."""
    from repro.graphs.generators import gnp_random

    return gnp_random(n, p, rng, self_loops=self_loops)


def to_networkx(graph: DiGraph):
    """Convert to a networkx.DiGraph for oracle cross-validation."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.edges())
    return g


# ----------------------------------------------------------------------
# Per-test timeout for @pytest.mark.daemon (subprocess-based service
# tests): a hung daemon must fail its test fast, not wedge the suite.
# Implemented with SIGALRM (no plugin dependency); the marker accepts
# an override: @pytest.mark.daemon(timeout=300).
# ----------------------------------------------------------------------
DAEMON_TEST_TIMEOUT = 180.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    import signal

    marker = item.get_closest_marker("daemon")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = float(marker.kwargs.get("timeout", DAEMON_TEST_TIMEOUT))

    def _expired(signum, frame):  # noqa: ARG001 — signal API
        raise TimeoutError(
            f"daemon test exceeded its {seconds:.0f}s timeout "
            "(hung daemon or stuck poll loop)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
