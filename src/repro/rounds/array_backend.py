"""The batched kernel's two heavy operations, as NumPy kernels.

Each round of the mega-batched kernel
(:func:`repro.rounds.fastpath.simulate_fastpath_batch`) spends most of
its time in two places:

* Algorithm 1's lines 14-23 label merge over the perpetually-timely
  senders ``PT_p`` (:meth:`KernelNamespace.masked_sender_max`).  From
  ``n = 16`` up it gathers each owner's ``PT_p`` label rows and
  max-reduces them, so its cost scales with about ``nnz(PT)·n²``
  instead of ``S·n⁴``; below ``n = 16`` it keeps the fused
  ``np.maximum.reduce(where=...)``, which measures faster there.  The
  two are bit-identical: an integer max is exact and order-independent,
  at either label dtype (int16 or int32, see
  :meth:`KernelNamespace.masked_sender_max`).
* the transitive closure that tests the approximated stable skeleton
  (:meth:`KernelNamespace.batched_closure`), fixed-iteration BLAS
  squaring over the ``S·n`` approximation graphs at once.  From
  ``n = 16`` up it squares each distinct graph once and scatters the
  results back: the approximations converge toward the stable skeleton,
  so most owners share their graph with another.  Below ``n = 16`` it
  squares the whole stack, which measures as fast or faster there.

The kernel calls both through the module-level :data:`KERNEL`
instance, so each is one named method that a profiler can wrap.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import matrices

# The wide regime, from this width up: the merge gathers PT senders, the
# closure squares each distinct graph once, and the planner never pads
# a lane (engine/scheduler.py).  Measured per call on a 2-vCPU Xeon with
# NumPy 2.4:
# * merge: the gather's time over real HETERO-LAT batches is 0.6x the
#   fused dense reduce's at n = 16/20 and 0.2x at n = 24..48, and it
#   wins at every PT density from n = 24; at n = 16..20 it loses only on
#   1-2 lane batches whose PT rows are still half full or more (a lane's
#   first rounds), so a rule on max |PT_p| as well would save < 3%
#   there.  Below n = 16 the gather's per-call and per-row overhead
#   makes it ~1.5x the dense time on the n = 6..12 batches of 1-7 lanes
#   a served campaign runs and on n = 4..8 batches of 64.
# * closure: on closure inputs captured from the benchmark's workload
#   grids, squaring only the distinct graphs runs 0.44-0.97x as fast as
#   the plain call at n = 4..11 and 1.0x at n = 12 (30-33% of the graphs
#   distinct), then 1.16x as fast at n = 16 and 2.1-3.8x at n = 20..48
#   (10-15% distinct).  In its worst case, a stack of all-distinct
#   graphs, it pays only the key and sort: 1.05-1.2x the plain call's
#   time from n = 20, up to 1.9x on the smallest n = 16 stacks.
_GATHER_MIN_N = 16
# Cap on one gather block of owners x max|PT_p| label rows (fastest of
# 128 KiB..2 MiB on the same batches); a block is also never more than
# one label tensor.  The cap is in bytes, so an int16 block holds twice
# the owners of an int32 one.
_GATHER_BLOCK_BYTES = 256 * 1024


def _gather_sender_max(labels, pt, out):
    """NumPy sender-max merge in ``O(S·n·k·n²)`` for ``k = max |PT_p|``:
    ``nnz(PT)·n²`` up to the padding of shorter sender lists.

    Each owner's ``PT_p`` sender list is padded to ``k`` by repeating
    its last sender (max is idempotent), so owner blocks gather as one
    ``(owners, k, n²)`` take and reduce as one max over the sender
    axis, straight into ``out``.  Owners with an empty
    ``PT_p`` (padded owner slots) read 0.  The only temporaries are the
    index arrays (``O(S·n·k)`` ints) and one gather block, never larger
    than one label tensor and no larger than ``_GATHER_BLOCK_BYTES``
    unless a single owner's ``k`` rows need more.  ``out`` must be
    C-contiguous (the kernel's label buffers are).
    """
    S, n = labels.shape[0], labels.shape[1]
    owners, cells = S * n, n * n
    rows_in = labels.reshape(owners, cells)
    rows_out = out.reshape(owners, cells)
    counts = np.count_nonzero(pt, axis=2).reshape(owners)
    k = int(counts.max())
    if k == 0:
        out.fill(0)
        return out
    flat = np.flatnonzero(pt)  # (s·n + p)·n + q, owner-major, q ascending
    senders = flat // cells * n + flat % n  # label row s·n + q
    first = np.cumsum(counts) - counts
    # Empty owners point at some valid row; they are zeroed below.
    last = np.maximum(first + counts - 1, 0)
    table = senders[np.minimum(first[:, None] + np.arange(k), last[:, None])]
    row_bytes = k * cells * labels.itemsize
    block = max(1, min(owners // k, _GATHER_BLOCK_BYTES // row_bytes))
    buf = np.empty((block, k, cells), dtype=labels.dtype)
    for lo in range(0, owners, block):
        hi = min(lo + block, owners)
        gathered = buf[: hi - lo]
        # mode="clip" writes ``out=`` unbuffered; every index is valid.
        np.take(rows_in, table[lo:hi], axis=0, out=gathered, mode="clip")
        np.max(gathered, axis=1, out=rows_out[lo:hi])
    if not counts.all():
        rows_out[counts == 0] = 0
    return out


def _square(stack):
    """Reflexive closure of every graph of ``stack`` by fixed-iteration
    squaring."""
    return matrices.batched_transitive_closure(
        stack, reflexive=True, fixed_iterations=True
    )


class KernelNamespace:
    """The batched kernel's merge and closure operations."""

    def masked_sender_max(self, labels, pt, out):
        """Lines 14-23 of Algorithm 1, batched: per-owner max over the
        labels of the senders in ``PT_p``.

        ``labels`` is ``(S, n, n, n)`` int16 or int32 (the batched
        kernel runs int16 whenever every round budget of the batch fits
        in it), ``pt`` is ``(S, n, n)`` bool; the result is written into
        and returned as ``out``, in the same dtype.  From
        ``n = 16`` up it gathers the ``PT_p`` senders' label rows and
        max-reduces them (:func:`_gather_sender_max`), work proportional
        to ``nnz(PT)·n²``; below ``n = 16`` it keeps the fused
        ``maximum.reduce(where=)`` over a broadcast view (``S·n⁴``
        cells, no ``(S, n, n, n, n)`` intermediate), which measures
        faster there.
        """
        S, n = labels.shape[0], labels.shape[1]
        if n >= _GATHER_MIN_N:
            return _gather_sender_max(labels, pt, out)
        np.maximum.reduce(
            np.broadcast_to(labels[:, None], (S, n, n, n, n)),
            axis=2,
            where=pt[:, :, :, None, None],
            initial=0,
            out=out,
        )
        return out

    def batched_closure(self, stack):
        """Reflexive transitive closure of a ``(b, n, n)`` bool stack,
        fixed-iteration squaring (the decide/prune kernel).

        From ``n = 16`` up it closes each distinct graph once: graphs
        are keyed by their packed bits, the squaring runs on the
        distinct ones only, and the results are scattered back through
        the inverse index.  The local approximations converge toward
        the stable skeleton, so many owners hold the same graph (10-12%
        of the graphs are distinct on the n = 24..48 HETERO-LAT
        batches).  A stack without a repeated graph is squared whole,
        so no copy is made.  Below ``n = 16`` the key costs more than
        the squaring it saves.  A closure depends only on its graph, so
        the result is bit-identical to squaring the whole stack.
        """
        arr = np.asarray(stack, dtype=bool)
        b, n = arr.shape[0], arr.shape[-1]
        if n >= _GATHER_MIN_N:
            packed = np.packbits(arr.reshape(b, n * n), axis=1)
            keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
            _, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            if len(first) < b:
                return _square(arr[first])[inverse]
        return _square(arr)


#: The instance the batched kernel calls.
KERNEL = KernelNamespace()
