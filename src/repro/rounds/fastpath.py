"""Vectorized fast-path execution of Algorithm 1.

The reference :class:`~repro.rounds.simulator.RoundSimulator` is exact but
allocation-bound: every (process, round) builds a :class:`Message`, a
received-dict and a :class:`RoundLabeledDigraph` merge — O(n · rounds)
Python objects per run, which profiling shows dominates the campaign
ensembles.  This module re-expresses one *whole run* as tensor algebra so
each round costs a handful of NumPy kernel calls, independent of ``n`` at
the Python level:

* the communication schedule is an ``(R, n, n)`` boolean adjacency tensor
  (:meth:`~repro.adversaries.base.Adversary.adjacency_stack`);
* the ``n`` per-process timely sets ``PT_p`` live in one ``(n, n)`` mask,
  updated per round by one transposed AND (equation (7));
* the ``n`` per-process approximation graphs ``G_p`` live in one
  ``(n, n, n)`` round-label tensor (``labels[p, i, j]`` = the label of
  edge ``i -> j`` in ``G_p``, 0 = absent).  Lines 14–23 (reset, fresh
  in-edges, max-merge over received graphs) become a masked maximum over
  the sender axis; line 24 (purge) is a threshold; line 25 (prune) and
  line 28 (strong connectivity) come from one batched transitive closure
  (:func:`repro.graphs.matrices.batched_transitive_closure`);
* min-estimate propagation (line 27) and decide adoption (lines 10–13)
  are masked reductions over the beginning-of-round estimate vector.

Equivalence with the reference simulator is a hard contract, not a
best-effort approximation: the update order mirrors Algorithm 1's
line-by-line semantics (including adoption from the *smallest* decided
sender id and decided processes continuing their graph updates), and
``tests/test_fastpath_equivalence.py`` asserts identical metrics across a
randomized scenario grid.  Workloads that need per-round state or message
histories (``figure1``, the lemma checkers, message-complexity analysis)
are out of scope by design and must raise :class:`FastPathUnsupported` at
the backend layer so callers fall back to the reference simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.matrices import (
    batched_transitive_closure,
    prefix_intersections,
)
from repro.rounds.array_backend import KERNEL


class FastPathUnsupported(RuntimeError):
    """The scenario needs features only the reference simulator provides
    (state/message histories, non-integer estimates, algorithms other than
    Algorithm 1).  ``backend="auto"`` catches this and falls back."""


def _get_contracts():
    """The active runtime-contracts object, resolved lazily.

    Imported at call time: :mod:`repro.engine.contracts` lives in the
    ``repro.engine`` package, whose ``__init__`` imports (transitively)
    this module — a top-level import here would be circular.  When
    contracts are off this is one memoized-lookup call per fetched
    block, dwarfed by the RNG work it guards."""
    from repro.engine.contracts import get

    return get()


# Cap on the lines 14–23 merge intermediate; owners are chunked so the
# buffer never exceeds roughly this many bytes (see simulate_fastpath).
_MERGE_BUF_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class FastPathRun:
    """The summary record of one vectorized run.

    Holds exactly what the sweep / latency / distribution analyses consume
    — decisions plus the executed adjacency prefix (from which every
    skeleton object derives) — and none of the per-round object state the
    reference :class:`~repro.rounds.run.Run` carries.
    """

    n: int
    num_rounds: int
    initial_values: tuple
    decided: np.ndarray  # (n,) bool
    decision_round: np.ndarray  # (n,) int; valid where ``decided``
    decision_value: np.ndarray  # (n,) int; valid where ``decided``
    adjacency: np.ndarray  # (num_rounds, n, n) bool, self-delivery applied

    # ------------------------------------------------------------------
    def all_decided(self) -> bool:
        return bool(self.decided.all())

    def decision_rounds(self) -> dict[int, int]:
        """Process id -> decision round (decided processes only)."""
        return {
            int(p): int(self.decision_round[p])
            for p in np.nonzero(self.decided)[0]
        }

    def decision_values(self) -> set[int]:
        """The set of distinct decided values (k-agreement quantity)."""
        return {
            int(self.decision_value[p]) for p in np.nonzero(self.decided)[0]
        }

    def undecided(self) -> list[int]:
        return [int(p) for p in np.nonzero(~self.decided)[0]]

    # ------------------------------------------------------------------
    def skeleton_stack(self) -> np.ndarray:
        """All prefix skeletons ``G^∩r`` as one ``(R, n, n)`` tensor."""
        return prefix_intersections(self.adjacency)

    def final_skeleton_matrix(self) -> np.ndarray:
        """``G^∩R`` for the executed prefix."""
        if self.num_rounds == 0:
            raise ValueError("run has no rounds")
        return self.skeleton_stack()[-1]

    def stabilization_round(self, stable_matrix: np.ndarray | None) -> int | None:
        """The exact ``r_ST`` against a declared stable skeleton matrix:
        the first executed round with ``G^∩r == G^∩∞`` (``None`` without a
        declaration or when the prefix never stabilized) — the matrix twin
        of :func:`repro.skeleton.analysis.stabilization_round`."""
        if stable_matrix is None or self.num_rounds == 0:
            return None
        target = np.asarray(stable_matrix, dtype=bool)
        matches = np.all(self.skeleton_stack() == target, axis=(1, 2))
        hits = np.nonzero(matches)[0]
        return int(hits[0]) + 1 if hits.size else None


def _as_int_estimates(values: Sequence) -> np.ndarray:
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise FastPathUnsupported(
                f"fast path needs integer proposal values, got {v!r}"
            )
    return np.asarray([int(v) for v in values], dtype=np.int64)


def _normalize_schedule(adjacency, n: int, max_rounds: int | None):
    """``(provider, max_rounds)`` from a tensor or provider input.

    The shared prologue of both kernels: a callable is a schedule
    provider (``max_rounds`` required); anything else must be an
    ``(R, n, n)`` boolean tensor, wrapped into a slicing provider with
    ``max_rounds`` defaulting to (and capped by) the scheduled length.
    """
    if callable(adjacency):
        if max_rounds is None:
            raise ValueError("max_rounds is required with a schedule provider")
        return adjacency, max_rounds
    arr = np.asarray(adjacency, dtype=bool)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected (rounds, n, n) tensor, got {arr.shape}")
    if arr.shape[1] != n:
        raise ValueError(
            f"tensor is for n={arr.shape[1]}, got {n} initial values"
        )
    if max_rounds is None:
        max_rounds = arr.shape[0]
    elif max_rounds > arr.shape[0]:
        raise ValueError(
            f"max_rounds={max_rounds} exceeds scheduled {arr.shape[0]}"
        )
    provider = lambda count, start=1: arr[start - 1 : start - 1 + count]
    return provider, max_rounds


def _closure_iterations(n: int) -> int:
    """Squarings one fixed-iterations transitive closure performs for
    ``n`` nodes (mirrors the doubling loop in
    :func:`repro.graphs.matrices.batched_transitive_closure`)."""
    length, iters = 1, 0
    while length < n - 1:
        length *= 2
        iters += 1
    return iters


def simulate_fastpath(
    adjacency,
    initial_values: Sequence[int],
    purge_window: int | None = None,
    prune_unreachable: bool = True,
    max_rounds: int | None = None,
) -> FastPathRun:
    """Execute Algorithm 1 with distinct-per-process tensor state.

    The single-lane reference kernel: no backend runs it; the batched
    kernel's contracts, the fuzz family and the tests compare against it.
    Every process hears from itself each round (the paper's convention),
    and the run stops at the first round after which every process has
    decided: the defaults of
    :class:`~repro.rounds.simulator.SimulationConfig`, with no grace
    rounds.

    Parameters
    ----------
    adjacency:
        Either an ``(R, n, n)`` boolean tensor (``adjacency[r - 1]`` is
        the round-``r`` communication graph) or a *schedule provider*
        ``provider(count, start) -> (count, n, n)`` tensor for rounds
        ``start..start + count - 1`` — exactly the signature of
        :meth:`~repro.adversaries.base.Adversary.adjacency_stack`, so an
        adversary's bound method can be passed directly.  With a provider
        the schedule is pulled lazily in ~``n``-round blocks, so a run
        that decides at ``~r_ST + 2n`` never pays for its full
        ``max_rounds`` budget of RNG draws.
    initial_values:
        Proposal values ``v_p`` (must be integers — the min-reduction of
        line 27 runs on an int64 vector).
    purge_window, prune_unreachable:
        Algorithm 1's design knobs, with the same semantics and defaults
        as :class:`~repro.core.approximation.ApproximationGraph`.
    max_rounds:
        Round budget; required with a schedule provider, defaults to the
        tensor length otherwise.
    """
    n = len(initial_values)
    provider, max_rounds = _normalize_schedule(adjacency, n, max_rounds)
    if max_rounds < 1:
        raise ValueError("need at least one scheduled round")
    if n < 1:
        raise ValueError("need at least one process")
    window = n if purge_window is None else purge_window
    if window < 1:
        raise ValueError("purge window must be >= 1")

    idx = np.arange(n)
    eye = np.eye(n, dtype=bool)

    # The schedule, materialized block-wise.  ``filled`` rounds are ready;
    # blocks are fetched ~n rounds at a time (a decision needs r > n, so
    # the first block can never be wasted work).
    schedule = np.zeros((max_rounds, n, n), dtype=bool)
    filled = 0
    block = max(n + 1, 8)

    def ensure(upto: int) -> None:
        nonlocal filled
        upto = min(max(upto, min(filled + block, max_rounds)), max_rounds)
        if upto <= filled:
            return
        fetched = np.asarray(
            provider(upto - filled, filled + 1), dtype=bool
        )
        if fetched.shape != (upto - filled, n, n):
            raise ValueError(
                f"schedule provider returned shape {fetched.shape}, "
                f"expected {(upto - filled, n, n)}"
            )
        contracts = _get_contracts()
        if contracts and contracts.sample("kernel.block_fetch"):
            contracts.check_block_fetch(
                provider, upto - filled, filled + 1, fetched,
                context={"n": n, "kernel": "simulate_fastpath"},
            )
        schedule[filled:upto] = fetched
        schedule[filled:upto, idx, idx] = True
        filled = upto

    # State tensors (one slot per process; see module docstring).
    pt = np.ones((n, n), dtype=bool)  # line 1: PT_p = Π
    est = _as_int_estimates(initial_values)  # line 2: x_p = v_p
    labels = np.zeros((n, n, n), dtype=np.int32)  # line 3: G_p = <{p}, ∅>
    nodes = eye.copy()
    decided = np.zeros(n, dtype=bool)  # line 4
    dec_round = np.zeros(n, dtype=np.int64)
    dec_value = np.zeros(n, dtype=np.int64)
    big = np.iinfo(np.int64).max

    # The lines 14–23 merge needs a (owners, senders, n, n) intermediate;
    # a full (n, n, n, n) buffer would grow quartically, so owners are
    # processed in blocks that cap the buffer at ~_MERGE_BUF_BYTES (one
    # block covers every n the experiments use; only very large n pay
    # extra Python-level iterations).
    owner_block = max(1, min(n, _MERGE_BUF_BYTES // max(1, 4 * n * n * n)))
    merge_buf = np.empty((owner_block, n, n, n), dtype=np.int32)
    num_rounds = max_rounds
    for r in range(1, max_rounds + 1):
        if r > filled:
            ensure(r)
        any_decided = bool(decided.any())
        # Sending phase: the copies below freeze beginning-of-round state.
        # Until the first decision, est is only written *after* its last
        # read of the round (the min-reduction), so no copy is needed.
        sent_est = est.copy() if any_decided else est

        # Line 9 / equation (7): PT_p ∩= this round's heard-of set.
        pt &= schedule[r - 1].T

        # Lines 10–13: adopt a decision from the smallest decided sender
        # in PT_p (argmax on a boolean row = first True = smallest id).
        # Senders' decided flags are beginning-of-round state; nothing
        # below this block sets ``decided`` before it is read again.
        if any_decided:
            adoptable = pt & decided[None, :]
            adopt = adoptable.any(axis=1) & ~decided
            if adopt.any():
                first_decider = np.argmax(adoptable, axis=1)
                est[adopt] = sent_est[first_decider[adopt]]
                decided |= adopt
                dec_round[adopt] = r
                dec_value[adopt] = est[adopt]

        # Lines 14–23: reset + fresh in-edges + max-merge, batched.  The
        # masked maximum over the sender axis q realizes the per-pair
        # max-label merge of all graphs received from PT_p; the fresh
        # label-r in-edges (q --r--> p) dominate every older label.
        new_labels = np.empty_like(labels)
        for lo in range(0, n, owner_block):
            hi = min(lo + owner_block, n)
            buf = merge_buf[: hi - lo]
            np.multiply(
                pt[lo:hi, :, None, None], labels[None, :, :, :], out=buf
            )
            buf.max(axis=1, out=new_labels[lo:hi])
        ps, qs = np.nonzero(pt)
        new_labels[ps, qs, ps] = r
        # Node union (line 18): V_p = {p} ∪ ⋃_{q ∈ PT_p} V_q.
        new_nodes = (pt @ nodes) | eye

        # Line 24 fused with the edge mask: labels re <= r - window die,
        # the survivors are the present edges.
        present = new_labels > max(r - window, 0)
        new_labels *= present

        # One batched closure serves both line 25 and line 28.  Pruning
        # cannot cut a path between two kept nodes (every intermediate
        # node of such a path reaches the owner too), so the closure of
        # the unpruned graph restricted to kept nodes *is* the closure of
        # the pruned graph.
        closure = batched_transitive_closure(
            present, reflexive=True, fixed_iterations=True
        )
        reaches_owner = closure[idx, :, idx] & new_nodes  # i -> p
        if prune_unreachable:
            # Line 25: keep exactly the nodes from which p is reachable.
            new_nodes = reaches_owner
            new_labels *= (
                reaches_owner[:, :, None] & reaches_owner[:, None, :]
            )

        undecided = ~decided
        if undecided.any():
            # Line 27: x_p <- min over beginning-of-round estimates of PT_p.
            # PT_p always contains p (the diagonal of every scheduled
            # graph is True and pt starts full), so it is never empty.
            candidate = np.where(pt, sent_est[None, :], big).min(axis=1)
            est[undecided] = candidate[undecided]
            # Lines 28–30: decide when r > n and G_p is strongly connected.
            # Hub criterion: the owner p is always a node of G_p, so G_p is
            # strongly connected iff every node of V_p both reaches p and
            # is reached from p (i -> p -> j connects any ordered pair).
            # Single-node graphs pass trivially.
            if r > n:
                reached_by_owner = closure[idx, idx, :]  # p -> j
                mutual = reaches_owner & reached_by_owner
                strongly_connected = (mutual | ~new_nodes).all(axis=1)
                newly = undecided & strongly_connected
                if newly.any():
                    decided |= newly
                    dec_round[newly] = r
                    dec_value[newly] = est[newly]

        labels = new_labels
        nodes = new_nodes
        if decided.all():
            num_rounds = r
            break

    return FastPathRun(
        n=n,
        num_rounds=num_rounds,
        initial_values=tuple(int(v) for v in initial_values),
        decided=decided,
        decision_round=dec_round,
        decision_value=dec_value,
        adjacency=schedule[:num_rounds],
    )


# ----------------------------------------------------------------------
# Mega-batching: many same-n scenarios through one tensor program
# ----------------------------------------------------------------------
# Per-batch working-set budget for :func:`default_batch_size` (schedule
# prefix + label tensors + closure buffers), plus a hard lane cap — the
# per-round Python overhead is already fully amortized well before it.
_BATCH_BUDGET_BYTES = 192 * 1024 * 1024
_MAX_BATCH = 64


@dataclass(frozen=True)
class FastPathTask:
    """One lane of a mega-batched fast-path execution.

    Mirrors the per-lane parameters of :func:`simulate_fastpath`:
    ``adjacency`` is an ``(R, n, n)`` tensor or a schedule provider
    (an adversary's bound ``adjacency_stack``), the design knobs have the
    same semantics and defaults.  Lanes may differ in **everything**,
    including ``n``: smaller-``n`` lanes are padded to the batch's widest
    lane (cross-``n`` packing), with the padded rows/cols masked out of
    every commit point so each lane's result is bit-identical to its
    standalone run.
    """

    adjacency: object
    initial_values: tuple
    purge_window: int | None = None
    prune_unreachable: bool = True
    max_rounds: int | None = None


def lane_bytes(n: int, max_rounds: int) -> int:
    """Working-set bytes one lane of width ``n`` pins in a mega-batch:
    its slice of the ``(S, R, n, n)`` schedule, the two ``(S, n, n, n)``
    label tensors, the ``(S·n, n, n)`` float32 closure and its squaring
    buffer, and the presence mask.  The label term is sized at int32 on
    purpose: that is the dtype of a batch whose largest budget does not
    fit in int16, so the envelope holds for every batch, and the
    planner's batches do not depend on the dtype.  Under cross-``n``
    packing ``n`` must be the *padded* batch width — a packed lane
    occupies the widest lane's slice regardless of its own nominal
    ``n`` (the scheduler's ``estimate_batch_bytes`` builds on this).
    The sender-max merge's gather block (at most one label tensor)
    needs no term of its own: it is live only during the merge, when
    the float32 closure buffers are not allocated."""
    if n < 1 or max_rounds < 1:
        raise ValueError("need n >= 1 and max_rounds >= 1")
    return (
        max_rounds * n * n  # schedule prefix (bool)
        + 2 * 4 * n**3  # labels + new_labels (int32, the worst case)
        + 2 * 4 * n**3  # closure + squaring buffer (float32)
        + n**3  # presence mask (bool)
    )


def default_batch_size(
    n: int, max_rounds: int, budget_bytes: int | None = None
) -> int:
    """How many width-``n`` lanes one mega-batch should hold.

    Sized so the batch working set (:func:`lane_bytes` per lane) stays
    under ``budget_bytes`` (default ``_BATCH_BUDGET_BYTES``), capped at
    ``_MAX_BATCH`` lanes (per-round Python overhead is fully amortized
    long before that).  ``budget_bytes`` is the ``campaign run
    --batch-memory`` envelope: results are byte-identical whatever the
    envelope, only the batch packing changes.  For packed mixed-``n``
    batches callers must pass the *padded* width, not a member's
    nominal ``n``.
    """
    budget = _BATCH_BUDGET_BYTES if budget_bytes is None else budget_bytes
    return max(1, min(_MAX_BATCH, budget // lane_bytes(n, max_rounds)))


# Compaction trigger: compress the lane axis when live lanes drop to
# <= 3/4 of the allocated width (bounding masked-lane waste at ~33%)
# or — with pending lanes queued — on any retirement, so freed width is
# refilled immediately.
_COMPACT_NUM, _COMPACT_DEN = 3, 4


def simulate_fastpath_batch(
    tasks: Sequence[FastPathTask],
    width: int | None = None,
    recorder=None,
) -> list[FastPathRun]:
    """Execute a whole stack of Algorithm 1 runs at once.

    The batched twin of :func:`simulate_fastpath`: the live lanes share
    every kernel call, so one ensemble round costs one batched BLAS
    closure and a handful of ``(S, n, ...)`` reductions instead of ``S``
    separate sets of kernel launches — this is what amortizes the
    per-round call overhead that caps the per-scenario fast path's
    small-``n`` speedup.

    Semantics are *exactly* :func:`simulate_fastpath` per lane:

    * every lane pulls its own schedule through its own provider (same
      block-fetch contract, so RNG streams are bit-identical to a
      per-scenario run — providers must be pure functions of
      ``(count, start)``, which :meth:`Adversary.adjacency_stack`
      guarantees);
    * lanes that terminate early (everyone decided, or the lane's own
      ``max_rounds`` budget ran out) retire: their results are harvested
      immediately and the surviving lanes are compressed into a dense
      tensor program once enough width has been freed, so a
      heterogeneous batch's kernel cost tracks the *live* lane count
      instead of the allocated width (until then retired lanes stay
      allocated and are masked out of the commit points);
    * per-lane knobs (``purge_window``, ``prune_unreachable``,
      ``max_rounds``) are vectorized, and lanes may even differ in
      ``n``: the batch runs at the widest lane's width and smaller
      lanes are *packed* — their padded rows/cols are masked out of the
      schedule (pad entries stay ``False``, so the round-1 ``PT``
      intersection removes every padded sender before anything reads
      it), the decide test (a lane becomes eligible at its *own*
      ``r > n_lane``, and padded owner slots never decide), and the RNG
      block fetches (block sizes derive from the lane's own ``n``, so
      each lane's ``(count, start)`` stream is untouched by packing).

    The two heavy operations of each round, the sender-max merge and
    the batched closure, run through
    :data:`~repro.rounds.array_backend.KERNEL`.

    Labels are round numbers, and a lane's labels never exceed its
    round budget (every present label lies in ``(r - window, r]``, the
    paper's Observation 1, which the sampled ``kernel.label_window``
    contract checks).  So the label tensors are int16 whenever the
    largest budget of the batch fits in int16, and int32 otherwise;
    the label passes then stream half the bytes.
    :func:`simulate_fastpath` keeps int32 labels.

    ``width`` caps the *concurrent* lane count: the first ``width`` tasks
    are admitted up front and the rest queue, refilling freed width as
    lanes retire (each late-admitted lane runs its own round clock — a
    per-lane offset against the global loop counter — and fetches its
    schedule through the same block contract, so admission time is
    invisible to the result).  ``width=None`` admits every task at once.
    The concurrent lane count, and so the memory envelope, never
    exceeds ``width``.

    **Fast-forward.**  A lane whose state has stopped changing is
    retired at its budget without running the rest of its rounds.  Call
    a live lane *stationary* after its local round ``r > n_lane`` when
    its ``PT``, nodes, estimates and decided flags equal those at the
    end of round ``r - 1`` and every nonzero label rose by exactly 1
    (``labels_r == labels_{r-1} + (labels_{r-1} > 0)``).  While ``PT``
    keeps every edge, round ``r + 1`` then repeats round ``r`` up to
    that label shift, because the round function commutes with it:

    * the sender-max merge commutes with ``+1`` on nonzero labels (the
      shift is monotone and keeps 0 at 0), and the fresh in-edge label
      ``r + 1`` is the shift of ``r`` on the same ``PT`` edges;
    * the purge floor ``max(r - window, 0)`` moves with ``r``, so a
      shifted label survives exactly when the unshifted one did, and
      ``present`` repeats; so do the closure, the prune mask and the
      node union ``PT·V | I``;
    * the line-27 minimum reads the same ``PT`` and the same estimates;
      adoption reads only ``PT`` and ``decided``; the decide test reads
      the closure and the nodes.  None of them changed anything in round
      ``r``, so none changes anything in round ``r + 1``.

    By induction every later round repeats as long as no round drops a
    ``PT`` edge, and ``PT`` can only shrink.  So the gate fetches the
    lane's remaining schedule in its own tail-block cadence (the blocks
    it would have fetched anyway, so ``rng_*`` counters stay exact) and
    harvests the lane at ``num_rounds = max_rounds`` if no remaining
    round drops a ``PT`` edge.  Otherwise it stops at the block holding
    the first such round and does not check the lane again until it
    has run that round.
    The gate is a handful of ``(S, ...)`` tests per round; the label
    comparison runs only on lanes that pass them.  Fast-forwarding
    never depends on an adversary's declared stable graph, and
    :func:`simulate_fastpath` always runs every round, so it stays the
    independent reference (the sampled ``kernel.fast_forward`` contract
    re-runs a fast-forwarded lane through it).

    Returns one :class:`FastPathRun` per task, in task order, each
    bit-identical to what ``simulate_fastpath`` would have produced for
    that lane alone — the differential suite
    (``tests/test_batched_equivalence.py``) enforces this across the
    randomized scenario grid, every batch partition and every
    ``width``.
    """
    if not tasks:
        return []
    T = len(tasks)
    # Per-task parameters, resolved up front (admission can happen
    # mid-run; validation errors must surface before any lane executes).
    t_n = np.empty(T, dtype=np.int64)
    t_est: list[np.ndarray] = []
    t_provider: list = []
    t_mr = np.empty(T, dtype=np.int64)
    t_window = np.empty(T, dtype=np.int64)
    t_prune = np.zeros(T, dtype=bool)
    for t, task in enumerate(tasks):
        lane_n = len(task.initial_values)
        if lane_n < 1:
            raise ValueError("need at least one process")
        t_n[t] = lane_n
        t_est.append(_as_int_estimates(task.initial_values))
        provider, lane_mr = _normalize_schedule(
            task.adjacency, lane_n, task.max_rounds
        )
        if lane_mr < 1:
            raise ValueError("need at least one scheduled round")
        w = lane_n if task.purge_window is None else task.purge_window
        if w < 1:
            raise ValueError("purge window must be >= 1")
        t_provider.append(provider)
        t_mr[t] = lane_mr
        t_window[t] = w
        t_prune[t] = task.prune_unreachable
    # The batch runs at the widest lane's width; narrower lanes are
    # padded up to it and masked (cross-n packing).
    n = int(t_n.max())
    # No label exceeds its lane's budget (the clock below is clamped at
    # it), so int16 holds every label whenever the largest budget fits.
    budget = int(t_mr.max())
    label_dtype = (
        np.int16 if budget <= np.iinfo(np.int16).max else np.int32
    )
    contracts = _get_contracts()

    width_limit = T if width is None else max(1, int(width))
    idx = np.arange(n)
    eye = np.eye(n, dtype=bool)
    big = int(np.iinfo(np.int64).max)

    def stack_est(task_ids) -> np.ndarray:
        """Per-lane initial estimates, padded to width ``n`` with +inf
        sentinels (padded owner slots never adopt a real estimate)."""
        out = np.full((len(task_ids), n), big, dtype=np.int64)
        for i, t in enumerate(task_ids):
            v = t_est[int(t)]
            out[i, : v.size] = v
        return out

    # Kernel telemetry, accumulated in plain locals and flushed once at
    # successful return — a crashed batch (whose lanes the backend
    # retries as singletons) therefore contributes nothing, which keeps
    # the deterministic plane a pure function of the scenario set.
    rng_fetches = rng_tail_fetches = rng_rounds_fetched = 0
    compactions = lanes_refilled = 0
    lanes_fast_forwarded = rounds_fast_forwarded = 0

    results: list[FastPathRun | None] = [None] * T

    # Lane state, axis 0 = lane.  ``origin`` maps a lane back to its
    # task; ``offset`` is the global round at which the lane was admitted
    # (its local round clock is ``r - offset``), so late-admitted lanes
    # run the exact per-lane program of simulate_fastpath.
    S = min(T, width_limit)
    origin = np.arange(S, dtype=np.int64)
    offset = np.zeros(S, dtype=np.int64)
    mr = t_mr[:S].copy()
    window = t_window[:S].copy()
    prune = t_prune[:S].copy()
    ln = t_n[:S].copy()  # per-lane nominal n (<= padded width n)
    filled = np.zeros(S, dtype=np.int64)
    schedule = np.zeros((S, int(mr.max()), n, n), dtype=bool)
    pt = np.ones((S, n, n), dtype=bool)
    est = stack_est(range(S))
    labels = np.zeros((S, n, n, n), dtype=label_dtype)
    nodes = np.broadcast_to(eye, (S, n, n)).copy()
    decided = np.zeros((S, n), dtype=bool)
    dec_round = np.zeros((S, n), dtype=np.int64)
    dec_value = np.zeros((S, n), dtype=np.int64)
    active = np.ones(S, dtype=bool)
    # Fast-forward bookkeeping: the PT edge count at the last gated
    # round (-1 = none yet) and the first fetched round known to drop a
    # PT edge (the lane is not checked again until it has run it).
    pt_edges = np.full(S, -1, dtype=np.int64)
    drop_round = np.zeros(S, dtype=np.int64)
    next_task = S
    new_labels = np.empty_like(labels)
    # Until the first mid-run admission every lane shares the global
    # clock (offset 0), and the per-round schedule gather degrades to
    # the plain slice view of the uniform-clock kernel — the common
    # case for homogeneous batches, kept allocation-free.
    has_offsets = False
    # Lane-composition invariants, recomputed only when lanes change.
    prune_any = bool(prune.any())
    lane_ok = idx[None, :] < ln[:, None]  # (S, n): real owner slots
    has_padding = bool((ln < n).any())
    pad_slots = ~lane_ok if has_padding else None

    def fetch(s: int, target: int) -> None:
        """Fetch lane ``s``'s schedule up to its local round ``target``.

        Block sizes derive from the lane's *own* ``n`` (never the padded
        batch width): the first block covers rounds ``1..n+1`` (no
        decision can land before round ``n+1``, so it is never wasted);
        tail blocks are deliberately small so the batch never pays RNG
        draws for rounds nobody executes.  Block boundaries are
        invisible by the adjacency_stack contract (pure function of
        ``(count, start)``), and because the sizes ignore batchmates,
        each lane's fetch stream is bit-identical under any packing.
        """
        nonlocal rng_fetches, rng_tail_fetches, rng_rounds_fetched
        lane_cap = int(mr[s])
        have = int(filled[s])
        if have >= min(target, lane_cap):
            return
        lane_n = int(ln[s])
        block = max(lane_n + 1, 8) if have == 0 else max(4, (lane_n + 1) // 4)
        upto = min(max(target, min(have + block, lane_cap)), lane_cap)
        rng_fetches += 1
        if have > 0:
            rng_tail_fetches += 1
        rng_rounds_fetched += upto - have
        fetched = np.asarray(
            t_provider[int(origin[s])](upto - have, have + 1), dtype=bool
        )
        if fetched.shape != (upto - have, lane_n, lane_n):
            raise ValueError(
                f"schedule provider returned shape {fetched.shape}, "
                f"expected {(upto - have, lane_n, lane_n)}"
            )
        if contracts and contracts.sample("kernel.block_fetch"):
            contracts.check_block_fetch(
                t_provider[int(origin[s])], upto - have, have + 1, fetched,
                context={
                    "n": lane_n,
                    "lane": s,
                    "kernel": "simulate_fastpath_batch",
                },
            )
        # Padded rows/cols (>= lane_n) stay False: the round-1 PT
        # intersection then removes every padded sender before any
        # commit point reads it.
        schedule[s, have:upto, :lane_n, :lane_n] = fetched
        d = idx[:lane_n]
        schedule[s, have:upto, d, d] = True
        filled[s] = upto

    def keeps_pt_to_budget(s: int) -> bool:
        """Whether no round of lane ``s`` after its current one drops a
        ``PT`` edge.  Fetches the rest of the schedule one tail block at
        a time and stops at the block holding the first dropping round,
        which it records in ``drop_round``."""
        done = int(r_loc[s])
        kept = pt[s]
        while True:
            have = int(filled[s])
            if have > done:
                # Round u drops p <- q when q is in PT_p but u has no
                # edge q -> p: PT_p[q] > G_u.T[p, q].
                later = np.transpose(schedule[s, done:have], (0, 2, 1))
                drops = np.greater(kept, later).any(axis=(1, 2))
                if drops.any():
                    drop_round[s] = done + 1 + int(np.argmax(drops))
                    return False
                done = have
            if have >= mr[s]:
                return True
            fetch(s, have + 1)

    def stationary(retiring: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """The lanes whose round changed nothing but the label clock
        (see the fast-forward paragraph above), cheapest tests first."""
        lanes = active & ~retiring & elig & (r_loc > drop_round)
        lanes &= edges == pt_edges
        if lanes.any():
            # Both adoption and the decide test stamp dec_round with the
            # lane's local round, so a decided flag flipped this round
            # iff its slot carries r_loc.
            lanes &= ~(dec_round == r_loc[:, None]).any(axis=1)
            lanes &= (est == sent_est).all(axis=1)
            lanes &= (nodes == prev_nodes).all(axis=(1, 2))
        cand = np.nonzero(lanes)[0]
        if cand.size:
            before = new_labels[cand]  # the labels of round r - 1
            shifted = (labels[cand] == before + (before > 0)).all(
                axis=(1, 2, 3)
            )
            cand = cand[shifted]
        return cand

    def verify_fast_forward(contracts, s: int) -> None:
        """Re-run fast-forwarded lane ``s`` round by round through
        :func:`simulate_fastpath` and compare (sampled contract)."""
        t = int(origin[s])
        contracts.check_fast_forward(
            lambda: simulate_fastpath(
                t_provider[t],
                tasks[t].initial_values,
                purge_window=int(window[s]),
                prune_unreachable=bool(prune[s]),
                max_rounds=int(mr[s]),
            ),
            results[t],
            context={
                "n": int(ln[s]),
                "lane": s,
                "round": int(r_loc[s]),
                "kernel": "simulate_fastpath_batch",
            },
        )

    def harvest(s: int, local_round: int) -> None:
        lane_n = int(ln[s])
        results[int(origin[s])] = FastPathRun(
            n=lane_n,
            num_rounds=local_round,
            initial_values=tuple(
                int(v) for v in tasks[int(origin[s])].initial_values
            ),
            decided=decided[s, :lane_n].copy(),
            decision_round=dec_round[s, :lane_n].copy(),
            decision_value=dec_value[s, :lane_n].copy(),
            adjacency=schedule[s, :local_round, :lane_n, :lane_n].copy(),
        )

    r = 0
    while active.any() or next_task < T:
        r += 1
        S = origin.size
        r_loc = r - offset  # per-lane local round numbers
        for s in np.nonzero(active & (filled < r_loc))[0]:
            fetch(int(s), int(r_loc[s]))
        act = active[:, None]
        # Sending phase: freeze beginning-of-round estimates for every
        # lane (cheap at (S, n); the per-scenario copy-elision would need
        # a per-lane branch).
        sent_est = est.copy()

        # Line 9 / equation (7), all lanes at once.  Retired lanes not
        # yet compacted away have stale clocks; clamp their row index —
        # their state is frozen out of every commit point by ``act``.
        if has_offsets:
            rows = np.minimum(r_loc, schedule.shape[1]) - 1
            sched_now = schedule[np.arange(S), rows]
        else:
            sched_now = schedule[:, r - 1]
        pt &= np.transpose(sched_now, (0, 2, 1))

        # Lines 10-13: adopt from the smallest decided sender in PT_p.
        if decided.any():
            adoptable = pt & decided[:, None, :]
            adopt = adoptable.any(axis=2) & ~decided & act
            if adopt.any():
                first_decider = np.argmax(adoptable.astype(np.int8), axis=2)
                adopted = np.take_along_axis(sent_est, first_decider, axis=1)
                rl_mat = np.broadcast_to(r_loc[:, None], (S, n))
                est[adopt] = adopted[adopt]
                decided |= adopt
                dec_round[adopt] = rl_mat[adopt]
                dec_value[adopt] = est[adopt]

        # Lines 14-23: reset + fresh in-edges + max-merge over senders.
        # From n = 16 the merge gathers only the PT_p senders' label rows
        # into ``new_labels``, so it costs nnz(PT)·n² per round rather
        # than S·n⁴ (PT_p shrinks toward p's skeleton in-neighbourhood);
        # below n = 16 it runs the fused dense where-reduce, which is
        # faster there.
        new_labels = KERNEL.masked_sender_max(labels, pt, new_labels)
        ss, ps, qs = np.nonzero(pt)
        # Retired lanes not yet compacted away run on stale clocks; the
        # clamp (a no-op for live lanes) keeps their labels in range.
        clock = np.minimum(r_loc, mr)
        new_labels[ss, ps, qs, ps] = clock[ss]
        # Line 18 as a float32 BLAS product: the sums are at most n, so
        # "> 0" is the exact boolean product.
        new_nodes = np.matmul(
            pt.astype(np.float32), nodes.astype(np.float32)
        ) > 0
        new_nodes |= eye

        # Line 24: purge, with per-lane windows on per-lane clocks.  A
        # floor in the label dtype keeps the compare from upcasting.
        purge_floor = np.maximum(clock - window, 0).astype(label_dtype)
        present = new_labels > purge_floor[:, None, None, None]
        new_labels *= present

        # Lines 25 + 28 from one batched closure over all S·n graphs;
        # from n = 16 it squares each distinct graph once.
        closure = KERNEL.batched_closure(
            present.reshape(S * n, n, n)
        ).reshape(S, n, n, n)
        # [s, p, i] — i reaches the owner p in G_p of lane s.
        reaches_owner = (
            np.moveaxis(closure[:, idx, :, idx], 0, 1) & new_nodes
        )
        if prune_any:
            # Line 25 on the pruning lanes: every node of the others is
            # kept.
            kept = reaches_owner | ~prune[:, None, None]
            new_nodes &= kept
            new_labels *= kept[..., :, None] & kept[..., None, :]
        if contracts and contracts.sample("kernel.label_window"):
            contracts.check_label_window(
                new_labels, r_loc, window, budget, active,
                context={"n": n, "kernel": "simulate_fastpath_batch"},
            )

        undecided = ~decided
        # Line 27: min over beginning-of-round estimates of PT_p.
        candidate = np.min(np.where(pt, sent_est[:, None, :], big), axis=2)
        update = undecided & act
        est[update] = candidate[update]
        # Lines 28-30: hub-criterion decide once the lane's *own* clock
        # passes its *own* n — packed narrow lanes become eligible
        # before the padded width would, late-admitted lanes later.
        elig = r_loc > ln
        any_elig = bool(elig.any())
        if any_elig:
            reached_by_owner = closure[:, idx, idx, :]  # [s, p, j]: p -> j
            mutual = reaches_owner & reached_by_owner
            strongly_connected = np.all(mutual | ~new_nodes, axis=2)
            newly = undecided & strongly_connected & act
            if has_padding or not bool(elig.all()):
                # Gate out ineligible lanes and padded owner slots
                # (their trivial {p} components would "decide").
                newly &= elig[:, None] & lane_ok
            if newly.any():
                rl_mat = np.broadcast_to(r_loc[:, None], (S, n))
                decided |= newly
                dec_round[newly] = rl_mat[newly]
                dec_value[newly] = est[newly]

        labels, new_labels = new_labels, labels
        prev_nodes, nodes = nodes, new_nodes
        # Retire lanes: everyone decided, or the lane's own round budget
        # is spent — either way its local clock is its round count.
        # Padded owner slots never decide, so completion ignores them.
        done = decided | pad_slots if has_padding else decided
        retire = active & (done.all(axis=1) | (r_loc >= mr))
        if retire.any():
            for s in np.nonzero(retire)[0]:
                harvest(int(s), int(r_loc[s]))
        # Fast-forward stationary lanes to their budget.  PT only
        # shrinks, so an edge count equal to the last gated round's
        # means no edge dropped since.
        if any_elig:
            edges = np.bincount(ss, minlength=S)
            for s in stationary(retire, edges):
                s = int(s)
                if not keeps_pt_to_budget(s):
                    continue
                lanes_fast_forwarded += 1
                rounds_fast_forwarded += int(mr[s] - r_loc[s])
                harvest(s, int(mr[s]))
                retire[s] = True
                if contracts and contracts.sample("kernel.fast_forward"):
                    verify_fast_forward(contracts, s)
            pt_edges = edges
        active &= ~retire

        live = int(active.sum())
        lanes_changed = False
        # Compress the lane axis (results are already harvested) once
        # enough width has been freed, or whenever pending lanes wait on
        # it.
        if live < S and (
            next_task < T or live * _COMPACT_DEN <= S * _COMPACT_NUM
        ):
            lanes_changed = True
            compactions += 1
            keep = active
            origin = origin[keep]
            offset = offset[keep]
            mr = mr[keep]
            window = window[keep]
            prune = prune[keep]
            ln = ln[keep]
            filled = filled[keep]
            schedule = schedule[keep]
            pt = pt[keep]
            est = est[keep]
            labels = labels[keep]
            nodes = nodes[keep]
            decided = decided[keep]
            dec_round = dec_round[keep]
            dec_value = dec_value[keep]
            active = active[keep]
            pt_edges = pt_edges[keep]
            drop_round = drop_round[keep]
            live = origin.size
        # Admission: refill freed width mid-run.
        if next_task < T and live < width_limit:
            lanes_changed = True
            take = min(width_limit - live, T - next_task)
            lanes_refilled += take
            admitted = np.arange(next_task, next_task + take, dtype=np.int64)
            next_task += take
            rmax = int(t_mr[admitted].max())
            if origin.size == 0:
                schedule = np.zeros((0, rmax, n, n), dtype=bool)
            elif schedule.shape[1] < rmax:
                grown = np.zeros((origin.size, rmax, n, n), dtype=bool)
                grown[:, : schedule.shape[1]] = schedule
                schedule = grown
            else:
                rmax = schedule.shape[1]
            origin = np.concatenate([origin, admitted])
            offset = np.concatenate(
                [offset, np.full(take, r, dtype=np.int64)]
            )
            has_offsets = True  # admissions only happen mid-run (r >= 1)
            mr = np.concatenate([mr, t_mr[admitted]])
            window = np.concatenate([window, t_window[admitted]])
            prune = np.concatenate([prune, t_prune[admitted]])
            ln = np.concatenate([ln, t_n[admitted]])
            filled = np.concatenate(
                [filled, np.zeros(take, dtype=np.int64)]
            )
            schedule = np.concatenate(
                [schedule, np.zeros((take, rmax, n, n), dtype=bool)]
            )
            pt = np.concatenate([pt, np.ones((take, n, n), dtype=bool)])
            est = np.concatenate([est, stack_est(admitted)])
            labels = np.concatenate(
                [labels, np.zeros((take, n, n, n), dtype=label_dtype)]
            )
            nodes = np.concatenate(
                [nodes, np.broadcast_to(eye, (take, n, n))]
            )
            decided = np.concatenate(
                [decided, np.zeros((take, n), dtype=bool)]
            )
            dec_round = np.concatenate(
                [dec_round, np.zeros((take, n), dtype=np.int64)]
            )
            dec_value = np.concatenate(
                [dec_value, np.zeros((take, n), dtype=np.int64)]
            )
            active = np.concatenate([active, np.ones(take, dtype=bool)])
            pt_edges = np.concatenate(
                [pt_edges, np.full(take, -1, dtype=np.int64)]
            )
            drop_round = np.concatenate(
                [drop_round, np.zeros(take, dtype=np.int64)]
            )
        if lanes_changed:
            if new_labels.shape != labels.shape:
                new_labels = np.empty_like(labels)
            prune_any = bool(prune.any())
            lane_ok = idx[None, :] < ln[:, None]
            has_padding = bool((ln < n).any())
            pad_slots = ~lane_ok if has_padding else None

    if recorder:
        # Deterministic plane: per-lane quantities, invariant across
        # batch cuts, admission order, and compaction (each lane runs
        # the exact per-scenario program).
        total_rounds = total_decided = 0
        for run in results:
            total_rounds += run.num_rounds
            total_decided += int(run.decided.sum())
            recorder.observe("kernel.lane_rounds", run.num_rounds)
        recorder.inc("kernel.lanes", T)
        recorder.inc("kernel.lane_rounds", total_rounds)
        recorder.inc("kernel.decisions", total_decided)
        recorder.inc("kernel.rng_fetches", rng_fetches)
        recorder.inc("kernel.rng_tail_fetches", rng_tail_fetches)
        recorder.inc("kernel.rng_rounds_fetched", rng_rounds_fetched)
        # Volatile plane: execution shape (depends on batch packing).
        recorder.vinc("kernel.loop_rounds", r)
        recorder.vinc("kernel.compactions", compactions)
        recorder.vinc("kernel.lanes_refilled", lanes_refilled)
        recorder.vinc("kernel.lanes_fast_forwarded", lanes_fast_forwarded)
        recorder.vinc("kernel.rounds_fast_forwarded", rounds_fast_forwarded)
        recorder.vinc("kernel.closure_calls", r)
        recorder.vinc(
            "kernel.closure_iterations", r * _closure_iterations(n)
        )
    return results
