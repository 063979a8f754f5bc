"""Cross-validation of the vectorized NumPy kernels against the set-based
implementations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graphs.condensation import count_root_components
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import gnp_random, to_adjacency, from_adjacency
from repro.graphs.matrices import (
    batched_transitive_closure,
    conflict_matrix,
    intersect_all,
    is_strongly_connected_matrix,
    prefix_intersections,
    root_component_count_matrix,
    scc_labels,
    timely_neighborhoods,
    transitive_closure,
)
from repro.graphs.paths import ancestors, descendants, has_path
from repro.graphs.scc import (
    is_strongly_connected,
    kosaraju_scc,
    scc_of,
    tarjan_scc,
)
from repro.predicates.psrcs import conflict_graph


def adjacency(n: int, seed: int, p: float = 0.15) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, n)) < p


class TestIntersect:
    def test_intersect_all(self):
        stack = np.array(
            [
                [[1, 1], [0, 1]],
                [[1, 0], [0, 1]],
                [[1, 1], [1, 1]],
            ],
            dtype=bool,
        )
        out = intersect_all(stack)
        assert out.tolist() == [[True, False], [False, True]]

    def test_prefix_matches_manual(self):
        stack = np.stack([adjacency(8, s) for s in range(5)])
        prefixes = prefix_intersections(stack)
        manual = stack[0].copy()
        for i in range(5):
            if i > 0:
                manual &= stack[i]
            assert np.array_equal(prefixes[i], manual)

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            intersect_all(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            prefix_intersections(np.zeros((3, 3), dtype=bool))

    def test_matches_digraph_intersection(self):
        rng = np.random.default_rng(0)
        graphs = [gnp_random(10, 0.4, rng) for _ in range(4)]
        stack = np.stack([to_adjacency(g, 10) for g in graphs])
        expected = graphs[0]
        for g in graphs[1:]:
            expected = expected.intersection(g)
        assert from_adjacency(intersect_all(stack)) == expected


class TestClosure:
    @pytest.mark.parametrize("seed", range(6))
    def test_closure_matches_bfs(self, seed):
        adj = adjacency(14, seed)
        g = from_adjacency(adj)
        closure = transitive_closure(adj)
        for u in range(14):
            reach = descendants(g, u)
            assert frozenset(np.nonzero(closure[u])[0].tolist()) == reach

    def test_closure_non_reflexive(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        closure = transitive_closure(adj, reflexive=False)
        assert not closure[0, 0]
        assert closure[0, 1]

    def test_closure_requires_square(self):
        with pytest.raises(ValueError):
            transitive_closure(np.zeros((2, 3), dtype=bool))

    @pytest.mark.parametrize("seed", range(6))
    def test_strong_connectivity_matches(self, seed):
        adj = adjacency(12, seed, p=0.25)
        assert is_strongly_connected_matrix(adj) == is_strongly_connected(
            from_adjacency(adj)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_scc_labels_match_tarjan(self, seed):
        adj = adjacency(13, seed)
        labels = scc_labels(adj)
        ours = {}
        for comp in tarjan_scc(from_adjacency(adj)):
            for node in comp:
                ours[node] = frozenset(comp)
        for u in range(13):
            for v in range(13):
                assert (labels[u] == labels[v]) == (ours[u] == ours[v])

    @pytest.mark.parametrize("seed", range(8))
    def test_root_count_matches(self, seed):
        adj = adjacency(12, seed)
        assert root_component_count_matrix(adj) == count_root_components(
            from_adjacency(adj)
        )


class TestBatchedClosure:
    """The batched kernel must agree with the 2-D kernel member-wise (and
    therefore, transitively, with the set-based BFS implementations)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reflexive", [True, False])
    def test_matches_per_member_closure(self, seed, reflexive):
        rng = np.random.default_rng(seed)
        stack = rng.random((5, 11, 11)) < 0.2
        batched = batched_transitive_closure(stack, reflexive=reflexive)
        for i in range(5):
            assert np.array_equal(
                batched[i], transitive_closure(stack[i], reflexive=reflexive)
            )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 20])
    def test_fixed_iterations_reaches_fixpoint(self, seed, n):
        # The call-overhead-free mode must compute the identical closure:
        # ceil(log2(n - 1)) squarings provably suffice with the diagonal
        # set, including on the worst case (a directed path).
        rng = np.random.default_rng(seed)
        stack = rng.random((4, n, n)) < 0.25
        assert np.array_equal(
            batched_transitive_closure(stack, fixed_iterations=True),
            batched_transitive_closure(stack),
        )

    # The widths straddle the powers of two where the fixed squaring
    # count ceil(log2(n - 1)) steps.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33])
    def test_fixed_iterations_on_path_graph(self, n):
        # Longest possible shortest path: 0 -> 1 -> ... -> n-1.
        path = np.zeros((1, n, n), dtype=bool)
        path[0, np.arange(n - 1), np.arange(1, n)] = True
        closure = batched_transitive_closure(path, fixed_iterations=True)[0]
        assert closure[0, n - 1]
        assert np.array_equal(closure, np.triu(np.ones((n, n), dtype=bool)))

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            batched_transitive_closure(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            batched_transitive_closure(np.zeros((2, 3, 4), dtype=bool))

    def test_empty_batch_and_empty_graphs(self):
        assert batched_transitive_closure(
            np.zeros((0, 4, 4), dtype=bool)
        ).shape == (0, 4, 4)
        assert batched_transitive_closure(
            np.zeros((3, 0, 0), dtype=bool)
        ).shape == (3, 0, 0)

    def test_returns_bool(self):
        out = batched_transitive_closure(np.eye(3, dtype=bool)[None])
        assert out.dtype == np.bool_


class TestRootComponentScatter:
    """The vectorized label-scatter version of the root-component count."""

    @pytest.mark.parametrize("n,p,seed", [
        (n, p, seed)
        for n in (1, 2, 6, 11, 17)
        for p in (0.0, 0.08, 0.3, 1.0)
        for seed in range(3)
    ])
    def test_matches_condensation(self, n, p, seed):
        rng = np.random.default_rng(seed)
        adj = rng.random((n, n)) < p
        assert root_component_count_matrix(adj) == count_root_components(
            from_adjacency(adj)
        )

    def test_empty_graph(self):
        assert root_component_count_matrix(np.zeros((0, 0), dtype=bool)) == 0

    def test_isolated_nodes_are_roots(self):
        assert root_component_count_matrix(np.zeros((4, 4), dtype=bool)) == 4

    def test_single_scc_is_one_root(self):
        assert root_component_count_matrix(np.ones((5, 5), dtype=bool)) == 1


class TestPredicateKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_timely_neighborhoods(self, seed):
        adj = adjacency(10, seed, p=0.3)
        g = from_adjacency(adj)
        pts = timely_neighborhoods(adj)
        for p in range(10):
            assert pts[p] == g.predecessors(p)

    @pytest.mark.parametrize("seed", range(5))
    def test_conflict_matrix_matches_set_version(self, seed):
        adj = adjacency(10, seed, p=0.3)
        g = from_adjacency(adj)
        mat = conflict_matrix(adj)
        ref = conflict_graph(g)
        for q in range(10):
            assert frozenset(np.nonzero(mat[q])[0].tolist()) == frozenset(ref[q])

    def test_conflict_matrix_symmetric_no_diagonal(self):
        adj = adjacency(12, 3, p=0.4)
        mat = conflict_matrix(adj)
        assert np.array_equal(mat, mat.T)
        assert not mat.diagonal().any()


class TestCrossValidationSetBased:
    """Property-style cross-validation of every matrix kernel against the
    set-based :mod:`repro.graphs.scc` / :mod:`repro.graphs.paths`
    implementations on seeded randomized digraphs, across densities
    spanning fragmented to almost-surely-strongly-connected."""

    CASES = [
        (n, p, seed)
        for n in (5, 9, 14)
        for p in (0.05, 0.15, 0.35)
        for seed in range(3)
    ]

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_closure_rows_and_columns(self, n, p, seed):
        adj = adjacency(n, seed, p=p)
        g = from_adjacency(adj)
        closure = transitive_closure(adj)
        for u in range(n):
            row = frozenset(np.nonzero(closure[u])[0].tolist())
            col = frozenset(np.nonzero(closure[:, u])[0].tolist())
            assert row == descendants(g, u)
            assert col == ancestors(g, u)

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_closure_entries_match_has_path(self, n, p, seed):
        adj = adjacency(n, seed, p=p)
        g = from_adjacency(adj)
        closure = transitive_closure(adj)
        for u in range(n):
            for v in range(n):
                assert closure[u, v] == has_path(g, u, v)

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_nonreflexive_closure_matches_paths(self, n, p, seed):
        adj = adjacency(n, seed, p=p)
        g = from_adjacency(adj)
        closure = transitive_closure(adj, reflexive=False)
        for u in range(n):
            for v in range(n):
                if u == v:
                    # Diagonal: on a cycle through u, i.e. some successor
                    # of u reaches back to u.
                    expected = any(
                        has_path(g, w, u) for w in g.successors(u)
                    )
                else:
                    expected = has_path(g, u, v)
                assert closure[u, v] == expected

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_scc_labels_match_kosaraju_and_scc_of(self, n, p, seed):
        adj = adjacency(n, seed, p=p)
        g = from_adjacency(adj)
        labels = scc_labels(adj)
        partition = {
            frozenset(np.nonzero(labels == lbl)[0].tolist())
            for lbl in np.unique(labels)
        }
        assert partition == set(kosaraju_scc(g))
        for u in range(n):
            members = frozenset(np.nonzero(labels == labels[u])[0].tolist())
            assert members == scc_of(g, u)

    @pytest.mark.parametrize("n,p,seed", CASES)
    def test_intersection_stack_matches_set_semantics(self, n, p, seed):
        rng = np.random.default_rng(seed)
        graphs = [gnp_random(n, p + 0.3, rng) for _ in range(4)]
        stack = np.stack([to_adjacency(g, n) for g in graphs])
        prefixes = prefix_intersections(stack)
        expected = graphs[0]
        for i, g in enumerate(graphs):
            if i > 0:
                expected = expected.intersection(g)
            assert from_adjacency(prefixes[i]) == expected
        assert from_adjacency(intersect_all(stack)) == expected


class TestHypothesis:
    @given(
        arrays(dtype=bool, shape=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(
            lambda t: (max(t), max(t))
        ))
    )
    @settings(max_examples=80, deadline=None)
    def test_closure_idempotent(self, adj):
        closure = transitive_closure(adj)
        again = transitive_closure(closure)
        assert np.array_equal(closure, again)

    @given(
        arrays(dtype=bool, shape=st.integers(1, 7).map(lambda n: (n, n)))
    )
    @settings(max_examples=80, deadline=None)
    def test_closure_contains_adjacency(self, adj):
        closure = transitive_closure(adj)
        assert np.all(closure | ~adj)

    @given(
        arrays(dtype=bool, shape=st.integers(1, 6).map(lambda n: (3, n, n)))
    )
    @settings(max_examples=60, deadline=None)
    def test_intersection_subset_chain(self, stack):
        # The skeleton chain (1): prefix intersections only shrink.
        prefixes = prefix_intersections(stack)
        for i in range(1, len(prefixes)):
            assert np.all(prefixes[i - 1] | ~prefixes[i])
