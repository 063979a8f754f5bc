"""Array-API namespace injection for the fast-path kernels.

The mega-batched kernel (:func:`repro.rounds.fastpath.simulate_fastpath_batch`)
is a pure tensor program — a batched boolean closure over ``S·n`` graphs
per round plus a handful of ``(S, n, ...)`` reductions — which makes it
portable across array libraries that implement the `Python Array API
standard <https://data-apis.org/array-api/>`_.  This module is the
``array_api_compat``-style seam: the kernel takes a
:class:`KernelNamespace` and performs every *namespace-level* call
(``xp.zeros``, ``xp.concat``, ``xp.permute_dims``, ...) through it, using
the standard's names only, plus three kernel-extension ops the standard
has no fused spelling for (the masked sender-max merge, a boolean matmul,
and the fixed-iteration batched transitive closure).

Backends:

* ``"numpy"`` (default) — NumPy >= 2.0 is itself an Array-API namespace;
  the extension ops are NumPy-specific fused kernels.  The sender-max
  merge gathers each owner's ``PT_p`` label rows and max-reduces them,
  so its cost scales with about ``nnz(PT)·n²`` instead of ``S·n⁴``; below
  ``n = 16`` it keeps the fused ``np.maximum.reduce(where=...)``, which
  measures faster there.  The closure is BLAS squaring.  Results are
  **byte-identical** to the pre-injection kernel (an int32 max is exact
  and order-independent).
* ``"cupy"`` / ``"torch"`` — resolved only when the library is
  importable (never a hard dependency: this environment must run
  without them).  Schedules are still drawn on the host — RNG streams
  are part of the bit-identical-journal contract — and shipped to the
  device per block; results are copied back at lane harvest.  Arrays
  must support NumPy-style advanced indexing and in-place updates
  (NumPy, CuPy and torch all do; immutable-array libraries are out of
  scope).
* ``"strict"`` — a test-only wrapper around NumPy that exposes *only*
  the Array-API-standard functions the kernel is allowed to call (plus
  the extension ops), so any non-standard NumPy call in the kernel
  fails loudly in the differential suite instead of silently pinning
  the kernel to NumPy.

Device selection follows the repo's process-global hardening idiom
(compare ``REPRO_CONTRACTS``): ``activate_device``/``--device`` set the
``REPRO_DEVICE`` environment variable, which pool workers inherit, and
:func:`resolve_namespace` reads it lazily — no signature threading
through the executor.  The choice is a pure execution-shape knob:
journal bytes are identical across namespaces (the differential suite
pins NumPy vs the strict wrapper; CuPy/torch are covered where
installed).
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np

DEVICE_ENV = "REPRO_DEVICE"


class DeviceUnavailableError(RuntimeError):
    """A known device whose optional library is not installed here.

    Distinct from the ``ValueError`` an *unknown* device raises, so the
    CLI can turn both into a clean exit-2 message without swallowing
    unrelated ``RuntimeError``s."""

#: Accepted ``--device`` spellings, normalized to a backend name.
_ALIASES = {
    None: "numpy",
    "": "numpy",
    "numpy": "numpy",
    "np": "numpy",
    "cpu": "numpy",
    "cupy": "cupy",
    "cuda": "cupy",
    "gpu": "cupy",
    "torch": "torch",
    "strict": "strict",
}

# Owner-axis chunk cap for the generic (non-NumPy) sender-max merge: the
# where+max fallback materializes an (owners, S, n, n, n) intermediate,
# so owners are chunked to bound it (mirrors the per-scenario kernel's
# _MERGE_BUF_BYTES discipline).
_GENERIC_MERGE_BYTES = 64 * 1024 * 1024

# NumPy sender-max merge: the PT-sender gather from this width up, the
# fused dense reduce below it.  Measured per call on a 2-vCPU Xeon with
# NumPy 2.4, the gather's merge time over real HETERO-LAT batches is
# 0.6x the dense one at n = 16/20 and 0.2x at n = 24..48, and it wins at
# every PT density from n = 24; at n = 16..20 it loses only on 1-2 lane
# batches whose PT rows are still half full or more (a lane's first
# rounds), so a rule on max |PT_p| as well would save < 3% there.  Below
# n = 16 the gather's per-call and per-row overhead makes it ~1.5x the
# dense time on the n = 6..12 batches of 1-7 lanes a served campaign
# runs and on n = 4..8 batches of 64.
_GATHER_MIN_N = 16
# Cap on one gather block of owners x max|PT_p| label rows (fastest of
# 128 KiB..2 MiB on the same batches); a block is also never more than
# one label tensor.
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


class KernelNamespace:
    """One resolved array namespace plus the kernel's extension ops.

    ``xp`` is the Array-API namespace the kernel calls standard
    functions on.  ``from_host``/``to_host`` move arrays across the
    host/device seam (identity for NumPy).  The three extension ops
    cover the fused kernels the standard cannot express efficiently.
    """

    def __init__(
        self,
        name: str,
        xp: Any,
        from_host: Callable | None = None,
        to_host: Callable | None = None,
    ) -> None:
        self.name = name
        self.xp = xp
        self.is_numpy = name in ("numpy", "strict")
        self._from_host = from_host
        self._to_host = to_host

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"KernelNamespace({self.name!r})"

    # -- host/device seam ------------------------------------------------
    def from_host(self, arr):
        """A device array with the host array's values (NumPy: no-op)."""
        if self._from_host is not None:
            return self._from_host(arr)
        return np.asarray(arr)

    def to_host(self, arr) -> np.ndarray:
        """A host ``np.ndarray`` view/copy of a device array."""
        if self._to_host is not None:
            return self._to_host(arr)
        return np.asarray(arr)

    # -- kernel extension ops --------------------------------------------
    def masked_sender_max(self, labels, pt, out):
        """Lines 14-23 of Algorithm 1, batched: per-owner max over the
        labels of the senders in ``PT_p``.

        ``labels`` is ``(S, n, n, n)`` int32, ``pt`` is ``(S, n, n)``
        bool; the result is ``(S, n, n, n)``.  NumPy from ``n = 16`` up
        gathers the ``PT_p`` senders' label rows and max-reduces them
        into ``out`` (:func:`_gather_sender_max`), work proportional to
        ``nnz(PT)·n²``; below ``n = 16`` it keeps the fused
        ``maximum.reduce(where=)`` over a broadcast view (``S·n⁴``
        cells, no ``(S, n, n, n, n)`` intermediate), which measures
        faster there.  Generic namespaces fall back to owner-chunked
        ``where`` + ``max``, returning a fresh array (``out`` is only
        written on the NumPy path).
        """
        if self.is_numpy:
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
        xp = self.xp
        S, n = int(labels.shape[0]), int(labels.shape[1])
        zero = xp.zeros((), dtype=labels.dtype)
        per_owner = max(1, S * n * n * n * 4)
        chunk = max(1, min(n, _GENERIC_MERGE_BYTES // per_owner))
        parts = []
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            masked = xp.where(
                pt[:, lo:hi, :, None, None], labels[:, None, :, :, :], zero
            )
            parts.append(xp.max(masked, axis=2))
        return parts[0] if len(parts) == 1 else xp.concat(parts, axis=1)

    def bool_matmul(self, a, b):
        """Boolean matrix product (``a @ b`` over OR/AND semantics)."""
        if self.is_numpy:
            return a @ b
        xp = self.xp
        prod = xp.matmul(
            xp.astype(a, xp.float32), xp.astype(b, xp.float32)
        )
        return prod > 0.5

    def batched_closure(self, stack):
        """Reflexive transitive closure of a ``(b, n, n)`` bool stack,
        fixed-iteration squaring (the decide/prune kernel)."""
        if self.is_numpy:
            from repro.graphs.matrices import batched_transitive_closure

            return batched_transitive_closure(
                stack, reflexive=True, fixed_iterations=True
            )
        xp = self.xp
        n = int(stack.shape[-1])
        closure = xp.astype(stack, xp.float32)
        closure = xp.minimum(
            closure + xp.eye(n, dtype=xp.float32),
            xp.ones((), dtype=xp.float32),
        )
        one = xp.ones((), dtype=xp.float32)
        length = 1
        while length < n - 1:
            closure = xp.minimum(xp.matmul(closure, closure), one)
            length *= 2
        return closure > 0.5


# ----------------------------------------------------------------------
# Strict wrapper: the conformance harness for the kernel's namespace use
# ----------------------------------------------------------------------
#: Namespace-level names the kernel may call — the Array API standard's
#: creation/manipulation/reduction functions plus dtypes and ``iinfo``.
#: Anything outside this set raises, which is how the differential suite
#: catches a non-standard NumPy call sneaking into the kernel.
STRICT_ALLOWED = frozenset(
    {
        # creation
        "arange", "asarray", "empty", "empty_like", "eye", "full",
        "full_like", "linspace", "meshgrid", "ones", "ones_like",
        "tril", "triu", "zeros", "zeros_like",
        # manipulation
        "broadcast_to", "concat", "expand_dims", "flip", "moveaxis",
        "permute_dims", "repeat", "reshape", "roll", "squeeze", "stack",
        "tile",
        # element-wise / logic
        "abs", "add", "astype", "bitwise_and", "bitwise_or", "equal",
        "greater", "greater_equal", "less", "less_equal", "logical_and",
        "logical_not", "logical_or", "maximum", "minimum", "multiply",
        "not_equal", "subtract", "where",
        # reductions / search / sorting
        "all", "any", "argmax", "argmin", "count_nonzero", "max", "min",
        "nonzero", "prod", "sum", "take", "take_along_axis",
        # linear algebra
        "matmul", "tensordot", "vecdot",
        # dtypes & introspection
        "bool", "float32", "float64", "int8", "int16", "int32", "int64",
        "uint8", "finfo", "iinfo", "isdtype", "result_type",
    }
)


class StrictNamespace:
    """NumPy behind an Array-API-standard allowlist (test harness).

    Only the names in :data:`STRICT_ALLOWED` resolve; anything else —
    ``concatenate`` instead of ``concat``, ``maximum.reduce``,
    ``fill_diagonal``, ... — raises :class:`AttributeError`, so the
    batched-equivalence suite proves the kernel speaks the standard.
    """

    def __getattr__(self, name: str):
        if name in STRICT_ALLOWED:
            return getattr(np, name)
        raise AttributeError(
            f"strict Array-API namespace has no {name!r}: the fast-path "
            "kernel may only use Array-API-standard functions "
            "(see repro.rounds.array_backend.STRICT_ALLOWED)"
        )


class _AliasNamespace:
    """A thin standard-name shim over an almost-Array-API module.

    Used for CuPy/torch installs without ``array_api_compat``: standard
    names resolve on the wrapped module first, then through a small
    alias table (``concat`` -> ``concatenate``, function-style
    ``astype``/``permute_dims``, torch's tuple-returning ``nonzero``).
    """

    def __init__(self, mod: Any) -> None:
        self._mod = mod

    def __getattr__(self, name: str):
        mod = self._mod
        attr = getattr(mod, name, None)
        if attr is not None:
            return attr
        if name == "concat":
            return mod.concatenate
        if name == "astype":
            return lambda x, dtype, copy=True: x.astype(dtype)
        if name == "permute_dims":
            return lambda x, axes: x.transpose(axes)
        if name == "moveaxis" and hasattr(mod, "movedim"):  # torch
            return mod.movedim
        if name == "nonzero" and hasattr(mod, "nonzero"):  # pragma: no cover
            return lambda x: mod.nonzero(x, as_tuple=True)
        raise AttributeError(
            f"array namespace {mod.__name__!r} has no Array-API "
            f"function {name!r}; install array_api_compat for full "
            "coverage"
        )


def _numpy_namespace() -> KernelNamespace:
    return KernelNamespace("numpy", np)


def _strict_namespace() -> KernelNamespace:
    return KernelNamespace("strict", StrictNamespace())


def _cupy_namespace() -> KernelNamespace:  # pragma: no cover - needs GPU
    try:
        import cupy
    except ImportError as exc:
        raise DeviceUnavailableError(
            "--device cupy/cuda needs CuPy installed (pip install "
            "cupy-cuda12x for CUDA 12); the numpy default needs nothing"
        ) from exc
    try:
        from array_api_compat import cupy as xp  # type: ignore
    except ImportError:
        xp = _AliasNamespace(cupy)
    return KernelNamespace(
        "cupy", xp, from_host=cupy.asarray, to_host=cupy.asnumpy
    )


def _torch_namespace() -> KernelNamespace:  # pragma: no cover - optional
    try:
        import torch
    except ImportError as exc:
        raise DeviceUnavailableError(
            "--device torch needs PyTorch installed; the numpy default "
            "needs nothing"
        ) from exc
    try:
        from array_api_compat import torch as xp  # type: ignore
    except ImportError:
        xp = _AliasNamespace(torch)
    return KernelNamespace(
        "torch",
        xp,
        from_host=lambda a: torch.from_numpy(np.ascontiguousarray(a)),
        to_host=lambda a: a.detach().cpu().numpy(),
    )


_FACTORIES = {
    "numpy": _numpy_namespace,
    "strict": _strict_namespace,
    "cupy": _cupy_namespace,
    "torch": _torch_namespace,
}

_RESOLVED: dict[str, KernelNamespace] = {}


def resolve_namespace(device: str | None = None) -> KernelNamespace:
    """The :class:`KernelNamespace` for a device spelling.

    ``None`` reads the ``REPRO_DEVICE`` environment variable (set by
    ``--device``; inherited by pool workers), defaulting to NumPy.  An
    already-resolved :class:`KernelNamespace` passes through unchanged.
    Unknown devices and missing optional libraries raise with an
    install hint — never a silent fallback, an explicit choice must not
    silently execute elsewhere.
    """
    if isinstance(device, KernelNamespace):
        return device
    if device is None:
        device = os.environ.get(DEVICE_ENV) or None
    key = device.lower() if isinstance(device, str) else device
    name = _ALIASES.get(key)
    if name is None:
        raise ValueError(
            f"unknown device {device!r}; known: "
            "numpy/cpu (default), cupy/cuda, torch, strict"
        )
    if name not in _RESOLVED:
        _RESOLVED[name] = _FACTORIES[name]()
    return _RESOLVED[name]


def activate_device(device: str | None) -> KernelNamespace:
    """Validate a ``--device`` choice and make it the process default.

    Resolves eagerly (so a missing library fails at the CLI boundary,
    not mid-campaign in a worker) and exports ``REPRO_DEVICE`` so pool
    workers inherit the choice.
    """
    ns = resolve_namespace(device)
    if ns.name == "numpy":
        os.environ.pop(DEVICE_ENV, None)
    else:
        os.environ[DEVICE_ENV] = ns.name
    return ns
