"""Unit tests for :mod:`repro.rounds.array_backend`.

The batched kernel's merge and closure are checked against the
straightforward formulations: the sender-max merge against an explicit
per-owner loop and against the fused dense reduce, at both label
dtypes (int16 and int32), the closure against
:func:`repro.graphs.matrices.batched_transitive_closure` on the whole
stack (from ``n = 16`` the kernel squares only the distinct graphs,
which a spy on that function shows).  The last
class pins the hook a profiler relies on: both operations are looked up
on :class:`KernelNamespace` at call time, so a wrapper set on the class
sees every call the batched kernel makes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.scenarios import ScenarioSpec
from repro.graphs import matrices
from repro.rounds import array_backend
from repro.rounds.array_backend import (
    _GATHER_MIN_N,
    KERNEL,
    KernelNamespace,
    _gather_sender_max,
)
from repro.rounds.fastpath import FastPathTask, simulate_fastpath_batch


#: The batched kernel's two label dtypes (int16 when every round
#: budget of a batch fits).
_LABEL_DTYPES = [np.int16, np.int32]
# _GATHER_MIN_N - 1 and _GATHER_MIN_N straddle the switch from the
# plain closure to closing each distinct graph once.
_CLOSURE_NS = [_GATHER_MIN_N - 1, _GATHER_MIN_N, 17, 32, 48]
#: Which of four base graphs each closure-test stack holds, per stack
#: kind; "scattered" repeats graphs, never next to each other.
_CLOSURE_PICKS = {
    "single": [0],
    "identical": [2] * 6,
    "distinct": [0, 1, 2, 3],
    "scattered": [0, 1, 2, 0, 3, 1, 0, 2],
}


def _closure_stack(n, kind):
    """A ``(b, n, n)`` bool stack of sparse random graphs (about two
    edges per node, so closures differ from their inputs) arranged as
    :data:`_CLOSURE_PICKS` names."""
    rng = np.random.default_rng(n)
    base = rng.random((4, n, n)) < 2.0 / n
    assert len({graph.tobytes() for graph in base}) == 4
    return base[_CLOSURE_PICKS[kind]]


class TestKernelOps:
    """The kernel's merge and closure against the plain formulations."""

    def _pt_labels(self, rng, dtype, S=3, n=5):
        pt = rng.random((S, n, n)) < 0.4
        labels = rng.integers(0, 7, size=(S, n, n, n)).astype(dtype)
        return pt, labels

    @pytest.mark.parametrize("dtype", _LABEL_DTYPES)
    def test_masked_sender_max(self, dtype):
        rng = np.random.default_rng(7)
        pt, labels = self._pt_labels(rng, dtype)
        S, n = pt.shape[0], pt.shape[1]
        expected = np.zeros((S, n, n, n), dtype=dtype)
        for s in range(S):
            for p in range(n):
                for q in range(n):
                    if pt[s, p, q]:
                        expected[s, p] = np.maximum(
                            expected[s, p], labels[s, q]
                        )
        out = KERNEL.masked_sender_max(labels, pt, np.zeros_like(expected))
        assert out.dtype == dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", _CLOSURE_NS)
    @pytest.mark.parametrize("kind", sorted(_CLOSURE_PICKS))
    def test_batched_closure(self, n, kind):
        stack = _closure_stack(n, kind)
        expected = matrices.batched_transitive_closure(
            stack, reflexive=True, fixed_iterations=True
        )
        got = KERNEL.batched_closure(stack)
        assert got.dtype == np.bool_ and got.shape == stack.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", _CLOSURE_NS)
    @pytest.mark.parametrize("kind", sorted(_CLOSURE_PICKS))
    def test_closure_squares_each_distinct_graph_once(
        self, closure_inputs, n, kind
    ):
        stack = _closure_stack(n, kind)
        KERNEL.batched_closure(stack)
        [closed] = closure_inputs
        if n < _GATHER_MIN_N:
            assert np.array_equal(closed, stack)
        else:
            distinct = {graph.tobytes() for graph in stack}
            assert len(closed) == len(distinct)
            assert {graph.tobytes() for graph in closed} == distinct


def _dense_sender_max(labels, pt):
    """The fused dense merge, kept here as the reference expression."""
    S, n = labels.shape[0], labels.shape[1]
    return np.maximum.reduce(
        np.broadcast_to(labels[:, None], (S, n, n, n, n)),
        axis=2,
        where=pt[:, :, :, None, None],
        initial=0,
    )


def _pt_with_row_sizes(rng, S, n, sizes):
    """``(S, n, n)`` PT masks whose owner rows cycle through ``sizes``
    senders each (0 = an empty row, as for a padded owner slot)."""
    pt = np.zeros((S, n, n), dtype=bool)
    for s in range(S):
        for p in range(n):
            size = sizes[(s * n + p) % len(sizes)]
            pt[s, p, rng.choice(n, size=size, replace=False)] = True
    return pt


class TestSparseSenderMax:
    """The PT-sender gather merge against the fused dense reduce."""

    # _GATHER_MIN_N - 1 and _GATHER_MIN_N straddle the switch from the
    # fused dense reduce to the PT-sender gather.
    @pytest.mark.parametrize(
        "n", [4, 12, _GATHER_MIN_N - 1, _GATHER_MIN_N, 17, 32, 48]
    )
    @pytest.mark.parametrize("S", [1, 5, 12])
    @pytest.mark.parametrize("dtype", _LABEL_DTYPES)
    def test_matches_dense_reduce(self, S, n, dtype):
        # Labels up to the dtype's largest value, which every lane holds.
        rng = np.random.default_rng(1000 * S + n)
        top = np.iinfo(dtype).max
        labels = rng.integers(
            0, top, size=(S, n, n, n), dtype=dtype, endpoint=True
        )
        labels[:, -1, -1, -1] = top
        cases = {
            "empty": [0],
            "one": [1],
            "mixed": [0, 1, 2, max(1, n // 3), n],
            "full": [n],
        }
        for name, sizes in cases.items():
            pt = _pt_with_row_sizes(rng, S, n, sizes)
            expected = _dense_sender_max(labels, pt)
            for merge in (KERNEL.masked_sender_max, _gather_sender_max):
                out = np.full_like(labels, -7)
                got = merge(labels, pt, out)
                assert got is out, (name, merge)
                assert np.array_equal(out, expected), (name, merge)

    @pytest.mark.parametrize("block_owners", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", _LABEL_DTYPES)
    def test_gather_blocks_cover_every_owner(
        self, monkeypatch, block_owners, dtype
    ):
        # Shrink the block cap so the 5 x 17 = 85 owners gather in
        # blocks of 1 to 4 owners: every cut but the first leaves a
        # short last block, and none may drop or repeat an owner.  The
        # cap is in bytes, so an int16 block holds twice the owners of
        # an int32 one.
        S, n = 5, 17
        rng = np.random.default_rng(block_owners)
        labels = rng.integers(0, 1000, size=(S, n, n, n), dtype=dtype)
        pt = _pt_with_row_sizes(rng, S, n, [n, 0, 2, 5, 1])
        row_bytes = n * n * n * labels.itemsize  # max |PT_p| = n rows
        monkeypatch.setattr(
            array_backend, "_GATHER_BLOCK_BYTES", block_owners * row_bytes
        )
        out = np.full_like(labels, -7)
        _gather_sender_max(labels, pt, out)
        assert np.array_equal(out, _dense_sender_max(labels, pt))

    @pytest.mark.parametrize("dtype", _LABEL_DTYPES)
    def test_one_call_stays_within_one_label_tensor(self, dtype):
        # S = 12, n = 32, max |PT_p| = n/2: every temporary the merge
        # allocates, together, fits in one (S, n, n, n) label tensor.
        import tracemalloc

        S, n = 12, 32
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 500, size=(S, n, n, n), dtype=dtype)
        pt = _pt_with_row_sizes(rng, S, n, [n // 2, 1, 3, 4])
        out = np.empty_like(labels)
        KERNEL.masked_sender_max(labels, pt, out)  # warm one-time caches
        tracemalloc.start()
        try:
            KERNEL.masked_sender_max(labels, pt, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= labels.nbytes, (peak, labels.nbytes)
        assert np.array_equal(out, _dense_sender_max(labels, pt))


def _kernel_tasks():
    specs = [
        ScenarioSpec(n=n, k=2, num_groups=2, seed=seed, noise=0.2)
        for n in (5, 6, _GATHER_MIN_N)
        for seed in range(2)
    ]
    return [
        FastPathTask(
            adjacency=spec.build_adversary().adjacency_stack,
            initial_values=tuple(range(spec.n)),
            max_rounds=spec.resolved_max_rounds(),
        )
        for spec in specs
    ]


def _run_key(run):
    return (
        run.num_rounds,
        run.decided.tobytes(),
        run.decision_round.tobytes(),
        run.decision_value.tobytes(),
    )


class TestClassLevelWrapping:
    """The batched kernel calls both operations through the class, so a
    profiler that replaces ``KernelNamespace.<name>`` with ``setattr``
    (a plain function taking the instance first) times every call."""

    @pytest.mark.parametrize("name", ["masked_sender_max", "batched_closure"])
    def test_wrapper_on_the_class_sees_every_call(self, monkeypatch, name):
        expected = [
            _run_key(r) for r in simulate_fastpath_batch(_kernel_tasks())
        ]
        original = getattr(KernelNamespace, name)
        calls = []

        def traced(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(KernelNamespace, name, traced)
        runs = simulate_fastpath_batch(_kernel_tasks())
        assert [_run_key(r) for r in runs] == expected
        assert calls and all(owner is KERNEL for owner in calls)
        # One call per kernel round: at least as many as the longest run.
        assert len(calls) >= max(r.num_rounds for r in runs)
