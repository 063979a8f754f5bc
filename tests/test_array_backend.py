"""Unit tests for :mod:`repro.rounds.array_backend`.

The namespace layer is what lets the batched kernel run unchanged on
NumPy, CuPy or torch: these tests pin the resolution rules (aliases,
the ``REPRO_DEVICE`` environment variable, eager validation at the CLI
boundary), the strict test namespace's allowlist, and the install-hint
errors for absent optional libraries — all without requiring any GPU
library to be present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rounds.array_backend import (
    DEVICE_ENV,
    KernelNamespace,
    activate_device,
    resolve_namespace,
)


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(DEVICE_ENV, raising=False)
        ns = resolve_namespace()
        assert isinstance(ns, KernelNamespace)
        assert ns.name == "numpy"
        assert ns.is_numpy

    @pytest.mark.parametrize("alias", ["numpy", "np", "cpu", ""])
    def test_numpy_aliases(self, alias):
        assert resolve_namespace(alias).name == "numpy"

    def test_env_var_selects_the_namespace(self, monkeypatch):
        monkeypatch.setenv(DEVICE_ENV, "strict")
        assert resolve_namespace().name == "strict"

    def test_explicit_argument_beats_the_env(self, monkeypatch):
        monkeypatch.setenv(DEVICE_ENV, "strict")
        assert resolve_namespace("numpy").name == "numpy"

    def test_unknown_device_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown device"):
            resolve_namespace("tpu")

    def test_passthrough_of_a_resolved_namespace(self):
        ns = resolve_namespace("strict")
        assert resolve_namespace(ns) is ns

    @pytest.mark.parametrize("device", ["cupy", "torch"])
    def test_missing_optional_library_hints_install(self, device):
        pytest.importorskip  # the container has neither library
        for absent in (device,):
            try:
                __import__(absent)
            except ImportError:
                with pytest.raises(RuntimeError, match="install"):
                    resolve_namespace(device)
                return
        pytest.skip(f"{device} is installed here")


class TestActivateDevice:
    def test_sets_and_clears_the_env(self, monkeypatch):
        monkeypatch.delenv(DEVICE_ENV, raising=False)
        import os

        activate_device("strict")
        assert os.environ[DEVICE_ENV] == "strict"
        assert resolve_namespace().name == "strict"
        # None defers to the env (pool workers re-resolve through it) …
        assert activate_device(None).name == "strict"
        # … while an explicit numpy/cpu choice clears it back to default.
        activate_device("cpu")
        assert DEVICE_ENV not in os.environ
        assert resolve_namespace().name == "numpy"

    def test_validates_eagerly(self, monkeypatch):
        monkeypatch.delenv(DEVICE_ENV, raising=False)
        import os

        with pytest.raises(ValueError):
            activate_device("not-a-device")
        # A failed activation must not leave a poisoned env behind.
        assert os.environ.get(DEVICE_ENV) in (None, "")


class TestStrictNamespace:
    def test_standard_names_resolve(self):
        xp = resolve_namespace("strict").xp
        for name in ("concat", "permute_dims", "astype", "take_along_axis",
                     "nonzero", "argmax", "where", "matmul", "bool", "int64"):
            assert getattr(xp, name) is getattr(np, name)

    def test_nonstandard_names_are_rejected(self):
        xp = resolve_namespace("strict").xp
        for name in ("concatenate", "amax", "copyto", "packbits"):
            with pytest.raises(AttributeError, match="Array-API"):
                getattr(xp, name)

    def test_host_seams_are_noops_on_cpu(self):
        ns = resolve_namespace("strict")
        a = np.arange(6).reshape(2, 3)
        assert ns.from_host(a) is a
        assert ns.to_host(a) is a


class TestExtensionOps:
    """The three fused ops every namespace must provide, checked against
    the straightforward NumPy formulation."""

    def _pt_labels(self, rng, S=3, n=5):
        pt = rng.random((S, n, n)) < 0.4
        labels = rng.integers(0, 7, size=(S, n, n, n)).astype(np.int32)
        return pt, labels

    @pytest.mark.parametrize("device", ["numpy", "strict"])
    def test_masked_sender_max(self, device):
        ns = resolve_namespace(device)
        rng = np.random.default_rng(7)
        pt, labels = self._pt_labels(rng)
        S, n = pt.shape[0], pt.shape[1]
        expected = np.zeros((S, n, n, n), dtype=np.int32)
        for s in range(S):
            for p in range(n):
                for q in range(n):
                    if pt[s, p, q]:
                        expected[s, p] = np.maximum(
                            expected[s, p], labels[s, q]
                        )
        out = ns.masked_sender_max(
            labels, pt, np.zeros_like(expected)
        )
        assert np.array_equal(np.asarray(out), expected)

    @pytest.mark.parametrize("device", ["numpy", "strict"])
    def test_bool_matmul(self, device):
        ns = resolve_namespace(device)
        rng = np.random.default_rng(11)
        a = rng.random((4, 6, 6)) < 0.3
        b = rng.random((4, 6, 6)) < 0.3
        assert np.array_equal(
            np.asarray(ns.bool_matmul(a, b)), np.matmul(a, b)
        )

    @pytest.mark.parametrize("device", ["numpy", "strict"])
    def test_batched_closure(self, device):
        from repro.graphs.matrices import batched_transitive_closure

        ns = resolve_namespace(device)
        rng = np.random.default_rng(13)
        stack = rng.random((5, 7, 7)) < 0.25
        expected = batched_transitive_closure(
            stack, reflexive=True, fixed_iterations=True
        )
        assert np.array_equal(
            np.asarray(ns.batched_closure(stack)), expected
        )


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
    senders each (0 = an empty row, as for a padded owner slot with
    ``enforce_self_delivery=False``)."""
    pt = np.zeros((S, n, n), dtype=bool)
    for s in range(S):
        for p in range(n):
            size = sizes[(s * n + p) % len(sizes)]
            pt[s, p, rng.choice(n, size=size, replace=False)] = True
    return pt


class TestSparseSenderMax:
    """The PT-sender gather merge against the fused dense reduce."""

    @pytest.mark.parametrize("device", ["numpy", "strict"])
    @pytest.mark.parametrize("n", [4, 12, 17, 32, 48])
    @pytest.mark.parametrize("S", [1, 5, 12])
    def test_matches_dense_reduce(self, S, n, device):
        from repro.rounds.array_backend import _gather_sender_max

        ns = resolve_namespace(device)
        rng = np.random.default_rng(1000 * S + n)
        labels = rng.integers(
            0, np.iinfo(np.int32).max, size=(S, n, n, n), dtype=np.int32
        )
        cases = {
            "empty": [0],
            "one": [1],
            "mixed": [0, 1, 2, max(1, n // 3), n],
            "full": [n],
        }
        for name, sizes in cases.items():
            pt = _pt_with_row_sizes(rng, S, n, sizes)
            expected = _dense_sender_max(labels, pt)
            for merge in (ns.masked_sender_max, _gather_sender_max):
                out = np.full_like(labels, -7)
                got = merge(labels, pt, out)
                assert got is out, (name, merge)
                assert np.array_equal(out, expected), (name, merge)

    def test_one_call_stays_within_one_label_tensor(self):
        # S = 12, n = 32, max |PT_p| = n/2: every temporary the merge
        # allocates, together, fits in one (S, n, n, n) label tensor.
        import tracemalloc

        S, n = 12, 32
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 500, size=(S, n, n, n), dtype=np.int32)
        pt = _pt_with_row_sizes(rng, S, n, [n // 2, 1, 3, 4])
        out = np.empty_like(labels)
        ns = resolve_namespace("numpy")
        ns.masked_sender_max(labels, pt, out)  # warm any one-time caches
        tracemalloc.start()
        try:
            ns.masked_sender_max(labels, pt, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= labels.nbytes, (peak, labels.nbytes)
        assert np.array_equal(out, _dense_sender_max(labels, pt))


def test_cli_rejects_unknown_device(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "campaign", "run", "--store", str(tmp_path / "j.jsonl"),
            "--device", "not-a-device", "--no-progress",
            "-n", "5", "-k", "2", "--seeds", "1", "--noise", "0.1",
        ]
    )
    assert code == 2
    assert "device" in capsys.readouterr().out


def test_cli_missing_library_is_a_clean_exit(tmp_path, capsys):
    """A known device whose library is absent must produce the install
    hint and exit 2 — not a traceback (DeviceUnavailableError is caught
    at the same CLI boundary as unknown devices)."""
    pytest.importorskip  # the container ships without cupy
    try:
        import cupy  # noqa: F401
    except ImportError:
        pass
    else:
        pytest.skip("cupy is installed here")
    from repro.cli import main

    code = main(
        [
            "campaign", "run", "--store", str(tmp_path / "j.jsonl"),
            "--device", "cupy", "--no-progress",
            "-n", "5", "-k", "2", "--seeds", "1", "--noise", "0.1",
        ]
    )
    assert code == 2
    assert "install" in capsys.readouterr().out


def test_cli_device_strict_runs_green(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv(DEVICE_ENV, raising=False)
    store = tmp_path / "j.jsonl"
    code = main(
        [
            "campaign", "run", "--store", str(store),
            "--device", "strict", "--backend", "batched",
            "--pack-widths", "--no-progress",
            "-n", "5", "6", "-k", "2", "--seeds", "2", "--noise", "0.1",
        ]
    )
    assert code == 0
    assert "state: ok" in capsys.readouterr().out
    monkeypatch.delenv(DEVICE_ENV, raising=False)
