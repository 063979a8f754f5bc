"""Tests for Psrc / Psrcs(k): unit cases, naive-vs-conflict cross-
validation, and hypothesis property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.grouped import GroupedSourceAdversary
from repro.adversaries.partition import PartitionAdversary
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import gnp_random
from repro.predicates.psrcs import (
    Psrc,
    Psrcs,
    conflict_graph,
    timely_neighborhoods,
    two_sources_of,
)


def skeleton_from_pt(pt: dict[int, set[int]]) -> DiGraph:
    """Build a stable skeleton whose in-neighborhoods are the given PT
    sets."""
    g = DiGraph(nodes=sorted(pt))
    for q, sources in pt.items():
        for p in sources:
            g.add_edge(p, q)
    return g


class TestConflictGraph:
    def test_self_loop_only_pt_gives_no_conflicts(self):
        # PT(q) = {q} for all q: no shared sources.
        g = skeleton_from_pt({0: {0}, 1: {1}, 2: {2}})
        adj = conflict_graph(g)
        assert all(not vs for vs in adj.values())

    def test_shared_source_conflict(self):
        g = skeleton_from_pt({0: {0, 9}, 1: {1, 9}, 2: {2}, 9: {9}})
        adj = conflict_graph(g)
        assert 1 in adj[0] and 0 in adj[1]
        assert not adj[2]

    def test_figure1_conflicts(self, figure1_stable):
        adj = conflict_graph(figure1_stable)
        # p1~p2 share each other; p4 (id 3) and p6 (id 5) share nothing.
        assert 1 in adj[0]
        assert 5 not in adj[3]

    def test_timely_neighborhoods(self, figure1_stable):
        pt = timely_neighborhoods(figure1_stable)
        assert pt[5] == frozenset({5, 1, 4})  # p6 hears p2, p5, itself


class TestPsrc:
    def test_needs_two(self):
        with pytest.raises(ValueError):
            Psrc(0, {1})

    def test_holds_with_witness(self):
        g = skeleton_from_pt({0: {0, 9}, 1: {1, 9}, 9: {9}})
        result = Psrc(9, {0, 1}).check_skeleton(g)
        assert result.holds
        assert result.witness == (9, 0, 1)

    def test_fails_single_receiver(self):
        g = skeleton_from_pt({0: {0, 9}, 1: {1}, 9: {9}})
        assert not Psrc(9, {0, 1}).check_skeleton(g).holds

    def test_source_may_be_receiver(self):
        # The paper: p is not required to be distinct from q, q'.
        g = skeleton_from_pt({0: {0}, 1: {0, 1}})
        assert Psrc(0, {0, 1}).check_skeleton(g).holds


class TestPsrcs:
    def test_k_validated(self):
        with pytest.raises(ValueError):
            Psrcs(0)
        with pytest.raises(ValueError):
            Psrcs(2, method="bogus")

    def test_vacuous_when_n_le_k(self):
        g = skeleton_from_pt({0: {0}, 1: {1}})
        assert Psrcs(2).check_skeleton(g).holds
        assert Psrcs(5).check_skeleton(g).holds

    def test_all_isolated_fails(self):
        g = skeleton_from_pt({i: {i} for i in range(5)})
        for k in range(1, 5):
            result = Psrcs(k).check_skeleton(g)
            assert not result.holds
            assert len(result.witness) == k + 1

    def test_single_source_star_satisfies_all_k(self):
        n = 6
        pt = {q: {q, 0} for q in range(n)}
        g = skeleton_from_pt(pt)
        for k in range(1, n):
            assert Psrcs(k).check_skeleton(g).holds

    def test_figure1_satisfies_psrcs3(self, figure1_stable):
        # The Figure 1 caption's claim.
        assert Psrcs(3).check_skeleton(figure1_stable).holds

    def test_figure1_tightest_k(self, figure1_stable):
        # Our concrete instance is even a bit stronger (alpha = 2).
        assert Psrcs(1).tightest_k(figure1_stable) == 2
        assert not Psrcs(1).check_skeleton(figure1_stable).holds
        assert Psrcs(2).check_skeleton(figure1_stable).holds

    def test_violation_witness_is_sourceless(self):
        g = skeleton_from_pt({i: {i} for i in range(4)})
        result = Psrcs(2).check_skeleton(g)
        assert not result.holds
        assert two_sources_of(g, result.witness) == []

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = gnp_random(8, 0.25, np.random.default_rng(seed), self_loops=True)
            held = False
            for k in range(1, 8):
                now = Psrcs(k).check_skeleton(g).holds
                if held:
                    assert now  # once it holds it holds for larger k
                held = held or now

    def test_grouped_adversary_guarantee(self):
        # The pigeonhole construction satisfies Psrcs(m) by design.
        for n, m, topology in [(9, 3, "cycle"), (8, 2, "star"), (10, 4, "clique")]:
            adv = GroupedSourceAdversary(n, num_groups=m, topology=topology)
            stable = adv.declared_stable_graph()
            assert Psrcs(m).check_skeleton(stable).holds

    def test_partition_adversary_boundary(self):
        # Theorem 2's construction: Psrcs(k) holds, Psrcs(k-1) fails.
        for n, k in [(6, 3), (8, 4), (5, 2)]:
            adv = PartitionAdversary(n, k)
            stable = adv.declared_stable_graph()
            assert Psrcs(k).check_skeleton(stable).holds
            assert not Psrcs(k - 1).check_skeleton(stable).holds

    @pytest.mark.parametrize("seed", range(12))
    def test_naive_matches_conflict(self, seed):
        rng = np.random.default_rng(seed)
        g = gnp_random(8, 0.2, rng, self_loops=True)
        for k in range(1, 6):
            naive = Psrcs(k, method="naive").check_skeleton(g).holds
            fast = Psrcs(k, method="conflict").check_skeleton(g).holds
            assert naive == fast, f"k={k} seed={seed}"

    def test_two_sources_certificates(self, figure1_stable):
        certs = two_sources_of(figure1_stable, {0, 1, 5})
        # p2 (id 1) is a 2-source of itself/p1 and of p6.
        assert any(c[0] == 1 for c in certs)
        for p, q, q2 in certs:
            pt = timely_neighborhoods(figure1_stable)
            assert p in pt[q] and p in pt[q2]

    def test_check_adversary(self):
        adv = GroupedSourceAdversary(6, num_groups=2)
        assert Psrcs(2).check_adversary(adv).holds

    def test_check_adversary_requires_declaration(self):
        class NoDecl:
            n = 3

            def declared_stable_graph(self):
                return None

        with pytest.raises(ValueError):
            Psrcs(1).check_adversary(NoDecl())


@st.composite
def stable_skeletons(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    g = DiGraph(nodes=range(n))
    for q in range(n):
        g.add_edge(q, q)  # self-delivery
        extra = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)
        )
        for p in extra:
            g.add_edge(p, q)
    return g


class TestPsrcsProperties:
    @given(stable_skeletons(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_naive_equals_conflict(self, g, k):
        naive = Psrcs(k, method="naive").check_skeleton(g).holds
        fast = Psrcs(k).check_skeleton(g).holds
        assert naive == fast

    @given(stable_skeletons())
    @settings(max_examples=60, deadline=None)
    def test_tightest_k_is_boundary(self, g):
        pred = Psrcs(1)
        k_star = pred.tightest_k(g)
        assert Psrcs(k_star).check_skeleton(g).holds
        if k_star > 1:
            assert not Psrcs(k_star - 1).check_skeleton(g).holds

    @given(stable_skeletons(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_violation_witness_valid(self, g, k):
        result = Psrcs(k).check_skeleton(g)
        if not result.holds:
            assert len(result.witness) == k + 1
            assert two_sources_of(g, result.witness) == []


class TestMatrixChecker:
    """check_skeleton_matrix (the fast path's entry point) must
    agree with the set-based checker on the same skeleton."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_set_checker_on_random_skeletons(self, seed, k):
        from repro.graphs.generators import to_adjacency

        rng = np.random.default_rng(seed)
        g = gnp_random(9, 0.25, rng)
        matrix = to_adjacency(g, 9)
        assert (
            Psrcs(k).check_skeleton_matrix(matrix).holds
            == Psrcs(k).check_skeleton(g).holds
        )

    def test_matches_on_grouped_adversary(self):
        for m, k in ((1, 1), (2, 2), (3, 3), (3, 2)):
            adv = GroupedSourceAdversary(9, num_groups=m, seed=0)
            want = Psrcs(k).check_skeleton(adv.declared_stable_graph()).holds
            got = Psrcs(k).check_skeleton_matrix(
                adv.declared_stable_matrix()
            ).holds
            assert got == want == (m <= k)

    def test_vacuous_when_n_at_most_k(self):
        matrix = np.zeros((3, 3), dtype=bool)
        assert Psrcs(3).check_skeleton_matrix(matrix).holds
        assert Psrcs(5).check_skeleton_matrix(matrix).holds
