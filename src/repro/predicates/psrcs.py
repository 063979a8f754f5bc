"""The paper's predicate: ``Psrc`` and ``Psrcs(k)`` (definition (8)).

Definitions
-----------
For a run with perpetual timely neighborhoods ``PT(·)``::

    Psrc(p, S)  ::  ∃ q, q' ∈ S, q ≠ q' :  p ∈ PT(q) ∩ PT(q')
    Psrcs(k)    ::  ∀ S, |S| = k+1  ∃ p ∈ Π :  Psrc(p, S)

``p`` is a *2-source* with *timely receivers* ``q, q'`` (possibly ``p = q``).

Checking
--------
Naive checking enumerates ``C(n, k+1)`` subsets.  The exact reformulation
used here (proved in ``tests/test_predicates_psrcs.py`` by cross-validation
against the naive checker):

    Build the *conflict graph* ``H`` on ``Π`` with an undirected edge
    ``{q, q'}`` iff ``PT(q) ∩ PT(q') ≠ ∅``.  A set ``S`` admits **no**
    2-source iff ``S`` is an independent set of ``H``.  Hence

        ``Psrcs(k)  ⇔  α(H) ≤ k``  (independence number).

The checker therefore asks the exact branch-and-bound solver in
:mod:`repro.graphs.independent_set` whether ``H`` has an independent set of
size ``k + 1``; if yes, that set is the returned violation witness.

Monotonicity (used by the adversaries and tests): ``Psrcs(k) ⇒ Psrcs(k')``
for all ``k' ≥ k`` — any ``(k'+1)``-set contains a ``(k+1)``-subset whose
2-source pair also lies in the bigger set.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.independent_set import (
    find_independent_set_of_size,
    independence_number,
)
from repro.predicates.base import Predicate, PredicateResult


def timely_neighborhoods(stable_skeleton: DiGraph) -> dict[int, frozenset[int]]:
    """``PT(q)`` per process: in-neighbors in the stable skeleton."""
    return {q: stable_skeleton.predecessors(q) for q in stable_skeleton.nodes()}


def conflict_graph(stable_skeleton: DiGraph) -> dict[int, set[int]]:
    """The undirected conflict graph ``H`` (adjacency mapping).

    ``{q, q'} ∈ H  ⇔  q ≠ q'  and  PT(q) ∩ PT(q') ≠ ∅``.
    """
    pt = timely_neighborhoods(stable_skeleton)
    nodes = sorted(pt)
    adj: dict[int, set[int]] = {q: set() for q in nodes}
    # Index: source p -> set of its timely receivers {q : p ∈ PT(q)}.
    receivers: dict[int, set[int]] = {}
    for q, sources in pt.items():
        for p in sources:
            receivers.setdefault(p, set()).add(q)
    for q_set in receivers.values():
        for q, q2 in combinations(sorted(q_set), 2):
            adj[q].add(q2)
            adj[q2].add(q)
    return adj


def two_sources_of(
    stable_skeleton: DiGraph, subset: frozenset[int] | set[int]
) -> list[tuple[int, int, int]]:
    """All 2-source certificates ``(p, q, q')`` for ``subset``:
    every ``p`` with two distinct timely receivers ``q, q' ∈ subset``."""
    pt = timely_neighborhoods(stable_skeleton)
    out: list[tuple[int, int, int]] = []
    members = sorted(subset)
    for q, q2 in combinations(members, 2):
        for p in sorted(pt[q] & pt[q2]):
            out.append((p, q, q2))
    return out


class Psrc(Predicate):
    """``Psrc(p, S)`` for a fixed source ``p`` and set ``S``."""

    def __init__(self, source: int, subset: frozenset[int] | set[int]) -> None:
        self.source = source
        self.subset = frozenset(subset)
        if len(self.subset) < 2:
            raise ValueError("Psrc needs |S| >= 2")

    @property
    def name(self) -> str:
        return f"Psrc({self.source}, {sorted(self.subset)})"

    def check_skeleton(self, stable_skeleton: DiGraph) -> PredicateResult:
        pt = timely_neighborhoods(stable_skeleton)
        receivers = sorted(
            q for q in self.subset if self.source in pt.get(q, frozenset())
        )
        if len(receivers) >= 2:
            return PredicateResult(
                True, self.name, witness=(self.source, receivers[0], receivers[1])
            )
        return PredicateResult(False, self.name, witness=receivers)


class Psrcs(Predicate):
    """``Psrcs(k)`` — definition (8) — with an exact conflict-graph checker.

    Parameters
    ----------
    k:
        The agreement parameter (``k >= 1``).
    method:
        ``"conflict"`` (default; α(H) ≤ k via branch and bound) or
        ``"naive"`` (enumerate all ``(k+1)``-subsets; exponential, used as
        the cross-validation oracle in tests).
    """

    def __init__(self, k: int, method: str = "conflict") -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if method not in ("conflict", "naive"):
            raise ValueError(f"unknown method {method!r}")
        self.k = k
        self.method = method

    @property
    def name(self) -> str:
        return f"Psrcs({self.k})"

    # ------------------------------------------------------------------
    def check_skeleton(self, stable_skeleton: DiGraph) -> PredicateResult:
        n = stable_skeleton.number_of_nodes()
        if n <= self.k:
            # No subset of size k+1 exists; the predicate holds vacuously.
            return PredicateResult(True, self.name, witness="vacuous")
        if self.method == "naive":
            return self._check_naive(stable_skeleton)
        return self._check_conflict(stable_skeleton)

    def _check_conflict(self, stable_skeleton: DiGraph) -> PredicateResult:
        adj = conflict_graph(stable_skeleton)
        violating = find_independent_set_of_size(adj, self.k + 1)
        if violating is None:
            return PredicateResult(True, self.name)
        return PredicateResult(
            False, self.name, witness=frozenset(violating)
        )

    def check_skeleton_matrix(self, stable_matrix: np.ndarray) -> PredicateResult:
        """Matrix twin of :meth:`check_skeleton` for skeletons on nodes
        ``0..n-1`` given as a boolean adjacency matrix.

        The conflict graph comes from one boolean matrix product
        (:func:`repro.graphs.matrices.conflict_matrix`, cross-validated
        against :func:`conflict_graph`); the independence test is the same
        exact branch-and-bound solver, so the verdict is identical to the
        set-based checker on the same skeleton.  Used by the fast-path
        kernels' result builder, which never materializes a :class:`DiGraph`.
        """
        from repro.graphs.matrices import conflict_matrix

        arr = np.asarray(stable_matrix, dtype=bool)
        n = arr.shape[0]
        if n <= self.k:
            return PredicateResult(True, self.name, witness="vacuous")
        mat = conflict_matrix(arr)
        adj = {
            q: set(np.nonzero(mat[q])[0].tolist()) for q in range(n)
        }
        violating = find_independent_set_of_size(adj, self.k + 1)
        if violating is None:
            return PredicateResult(True, self.name)
        return PredicateResult(
            False, self.name, witness=frozenset(violating)
        )

    def _check_naive(self, stable_skeleton: DiGraph) -> PredicateResult:
        pt = timely_neighborhoods(stable_skeleton)
        nodes = sorted(stable_skeleton.nodes())
        for subset in combinations(nodes, self.k + 1):
            if not _has_two_source(pt, subset):
                return PredicateResult(
                    False, self.name, witness=frozenset(subset)
                )
        return PredicateResult(True, self.name)

    # ------------------------------------------------------------------
    def independence_number(self, stable_skeleton: DiGraph) -> int:
        """``α(H)`` — the *largest* ``m`` such that ``Psrcs(m-1)`` fails,
        i.e. the predicate holds exactly for ``k >= α(H)``."""
        return independence_number(conflict_graph(stable_skeleton))

    def tightest_k(self, stable_skeleton: DiGraph) -> int:
        """The smallest ``k`` for which ``Psrcs(k)`` holds on this skeleton
        (equals ``α(H)``, clipped to at least 1)."""
        return max(1, self.independence_number(stable_skeleton))


def _has_two_source(
    pt: dict[int, frozenset[int]], subset: tuple[int, ...]
) -> bool:
    for q, q2 in combinations(subset, 2):
        if pt[q] & pt[q2]:
            return True
    return False
