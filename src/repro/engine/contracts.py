"""Zero-cost-off runtime contracts for the engine's purity invariants.

The engine's correctness story is a web of *pure-function* contracts —
adversary ``adjacency_stack`` block fetches are pure in ``(count,
start)``, the batch scheduler's plan is a pure function of the work
list, a compacted batch lane is bit-identical to a singleton run, a
fast-forwarded lane to its round-by-round run, canonical summaries are
backend-free, and the telemetry recorder's deterministic plane merges
commutatively.  One paper invariant joins them: the batched kernel's
labels stay inside Observation 1's window.  Historically those are
enforced only by fixed test suites; this module makes them *runtime
checkable* so a fuzz campaign (or any paranoid production run) can
validate them against live workloads.

Design mirrors :mod:`repro.engine.telemetry` exactly:

* :data:`NO_CONTRACTS` is a falsy singleton — every call site guards
  with ``if contracts:`` (or the :func:`contract` decorator resolves
  the active instance per call), so the *off* path costs one truthiness
  check and nothing else.  Journal and summary bytes are identical with
  contracts on or off: checks re-derive and compare, they never mutate.
* Enabled via ``REPRO_CONTRACTS=1`` in the environment (inherited by
  pool workers) or ``campaign run --contracts`` (which sets the env
  var before the pool spawns).
* A violation raises :class:`ContractViolation` carrying a minimal,
  structured repro — contract name, spec id/seed, backend, batch shape
  — that survives pickling across the process-pool boundary and is
  re-raised past every blanket isolation handler, so it aborts the run
  loudly instead of becoming an ``"error"`` journal record.

Checks that re-run work (block re-fetch, re-plan, singleton lane
re-execution, the round-by-round re-run of a fast-forwarded lane) or
scan a kernel tensor (the label window) are
*sampled* through :meth:`Contracts.sample` so the contracts-on overhead
stays bounded; the first occurrence of every checkpoint is always
validated.  Each process counts the checks it ran per contract
(:attr:`Contracts.counts`), and :func:`record_checks` carries them into
a ``--metrics`` sidecar.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

CONTRACTS_ENV = "REPRO_CONTRACTS"

#: Validate every Nth occurrence of a sampled checkpoint (the first is
#: always validated).  Small enough to catch drift within one campaign,
#: large enough that contracts-on runs stay usable.
SAMPLE_EVERY = 8


class ContractViolation(AssertionError):
    """A runtime contract was violated.

    Carries a structured ``repro`` dict (spec id, seed, backend, batch
    shape, …) so the violation prints as a minimal reproduction recipe.
    Subclasses :class:`AssertionError` (it *is* a failed assertion) but
    is deliberately re-raised past the engine's blanket isolation
    handlers: a violated invariant means results can no longer be
    trusted, so the run must abort rather than journal an error record.
    """

    def __init__(
        self,
        contract: str,
        detail: str,
        repro: dict | None = None,
    ) -> None:
        self.contract = contract
        self.detail = detail
        self.repro = dict(repro or {})
        super().__init__(self._message())

    def _message(self) -> str:
        text = f"contract violated [{self.contract}]: {self.detail}"
        if self.repro:
            text += " | repro: " + json.dumps(
                self.repro, sort_keys=True, default=str
            )
        return text

    def with_context(self, **context: Any) -> "ContractViolation":
        """A copy enriched with outer-layer repro context.

        Existing keys win — the innermost frame knows the most precise
        value (e.g. the exact lane), outer frames only add what is
        missing (backend, batch shape, spec id).
        """
        merged = {**context, **self.repro}
        return ContractViolation(self.contract, self.detail, merged)

    def __reduce__(self):
        # Survive the pool's pickling round-trip with structure intact.
        return (ContractViolation, (self.contract, self.detail, self.repro))


class NullContracts:
    """The do-nothing contracts object (mirrors ``telemetry.NullRecorder``).

    Falsy, so hot paths guard with ``if contracts:`` and skip even
    argument construction when contracts are off.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def sample(self, name: str) -> bool:
        return False

    def check_block_fetch(self, provider, count, start, fetched,
                          context=None) -> None:
        pass

    def check_plan(self, plan, replan, context=None) -> None:
        pass

    def check_lane_identity(self, expected, actual, context=None) -> None:
        pass

    def check_canonical_backend_free(self, line_a, line_b,
                                     context=None) -> None:
        pass

    def check_scenario_id(self, spec, context=None) -> None:
        pass

    def check_merge_commutative(self, snapshots, context=None) -> None:
        pass

    def check_shard_merge(self, expected_ids, delivered_ids,
                          context=None) -> None:
        pass

    def check_fast_forward(self, rerun, run, context=None) -> None:
        pass

    def check_label_window(self, labels, clock, window, budget, live,
                           context=None) -> None:
        pass


NO_CONTRACTS = NullContracts()


class Contracts:
    """The live contract checker: sampled re-derive-and-compare checks.

    One instance per process; pool workers build their own from the
    inherited ``REPRO_CONTRACTS`` environment (see :func:`get`).
    ``violations`` stays 0 on a healthy run — the first violation
    raises, so the counter only ever reads 0 or records the raise site
    for post-mortem tooling that catches the exception.
    """

    def __init__(self, sample_every: int = SAMPLE_EVERY) -> None:
        self.sample_every = max(1, int(sample_every))
        self.violations = 0
        #: Checks run so far, per contract name.
        self.counts: dict[str, int] = {}
        self._seen: dict[str, int] = {}

    def __bool__(self) -> bool:
        return True

    @property
    def checks(self) -> int:
        """Checks run so far, over every contract."""
        return sum(self.counts.values())

    def sample(self, name: str) -> bool:
        """Whether this occurrence of checkpoint ``name`` is validated.

        Deterministic per process: the first occurrence and every
        ``sample_every``-th after it."""
        seen = self._seen.get(name, 0)
        self._seen[name] = seen + 1
        return seen % self.sample_every == 0

    def _checked(self, contract: str) -> None:
        self.counts[contract] = self.counts.get(contract, 0) + 1

    def _raise(self, contract: str, detail: str, repro: dict) -> None:
        self.violations += 1
        raise ContractViolation(contract, detail, repro)

    # ------------------------------------------------------------------
    # The named invariants
    # ------------------------------------------------------------------
    def check_block_fetch(
        self,
        provider: Callable[[int, int], Any],
        count: int,
        start: int,
        fetched: np.ndarray,
        context: dict | None = None,
    ) -> None:
        """Adversary block-fetch purity: ``provider(count, start)`` must
        be a pure function of ``(count, start)`` — re-fetching the same
        block must return a bit-identical adjacency stack.  (This is the
        invariant that makes lane compaction, batch splitting and resume
        sound: a lane re-run anywhere replays the same schedule.)
        """
        self._checked("adversary.block_fetch_purity")
        again = np.asarray(provider(count, start), dtype=bool)
        expected = np.asarray(fetched, dtype=bool)
        if again.shape != expected.shape or not np.array_equal(
            again, expected
        ):
            diff = (
                "shape changed"
                if again.shape != expected.shape
                else f"{int(np.sum(again != expected))} cells differ"
            )
            self._raise(
                "adversary.block_fetch_purity",
                f"re-fetching adjacency block (count={count}, "
                f"start={start}) returned a different stack ({diff})",
                {"count": count, "start": start, **(context or {})},
            )

    def check_plan(
        self,
        plan: Any,
        replan: Callable[[], Any],
        context: dict | None = None,
    ) -> None:
        """Scheduler plan determinism: re-planning the identical work
        list under the identical envelope must reproduce the plan."""
        self._checked("scheduler.plan_determinism")
        again = replan()
        if again != plan:
            self._raise(
                "scheduler.plan_determinism",
                "re-planning the same work list produced a different "
                "plan",
                {
                    "plan": getattr(plan, "describe", lambda: repr(plan))(),
                    "replan": getattr(
                        again, "describe", lambda: repr(again)
                    )(),
                    **(context or {}),
                },
            )

    def check_lane_identity(
        self,
        expected: dict,
        actual: dict,
        context: dict | None = None,
    ) -> None:
        """Lane-compaction result identity: a sampled lane of a batched
        (possibly compacted) kernel run must be bit-identical to the
        same task executed as a singleton.  ``expected``/``actual`` are
        field dicts; array values compare with ``np.array_equal``."""
        self._checked("backends.lane_identity")
        for name in sorted(set(expected) | set(actual)):
            a, b = expected.get(name), actual.get(name)
            same = (
                np.array_equal(a, b)
                if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                else a == b
            )
            if not same:
                self._raise(
                    "backends.lane_identity",
                    f"batched lane field {name!r} differs from the "
                    f"singleton run (singleton={a!r}, batched={b!r})",
                    context or {},
                )

    def check_canonical_backend_free(
        self,
        line_a: str,
        line_b: str,
        context: dict | None = None,
    ) -> None:
        """Canonical-summary backend-freeness: the canonical record of a
        result must not depend on which backend produced it."""
        self._checked("store.canonical_backend_free")
        if line_a != line_b:
            self._raise(
                "store.canonical_backend_free",
                "canonical summary line depends on the producing "
                "backend",
                context or {},
            )

    def check_scenario_id(
        self,
        spec: Any,
        context: dict | None = None,
    ) -> None:
        """Scenario-id cache coherence: the id a spec carries must equal
        the content hash re-derived from its fields without the cache
        (a stale cached id would journal a result under another
        scenario's resume key)."""
        self._checked("scenarios.id")
        derived = spec.derive_id()
        if spec.scenario_id != derived:
            self._raise(
                "scenarios.id",
                f"cached scenario id {spec.scenario_id!r} differs from "
                f"the id {derived!r} re-derived from the spec's fields",
                {"seed": spec.seed, **(context or {})},
            )

    def check_merge_commutative(
        self,
        snapshots: list[dict],
        context: dict | None = None,
    ) -> None:
        """Telemetry det-plane merge commutativity: merging the workers'
        snapshots in any order must yield the same deterministic plane
        (that plane is the live form of the invariance contracts, so an
        order-dependent merge would silently unpin them)."""
        if len(snapshots) < 2:
            return
        self._checked("telemetry.merge_commutativity")
        from repro.engine.telemetry import Recorder

        forward, backward = Recorder(), Recorder()
        for snap in snapshots:
            forward.merge(snap)
        for snap in reversed(snapshots):
            backward.merge(snap)
        det_fwd = forward.snapshot()["deterministic"]
        det_bwd = backward.snapshot()["deterministic"]
        if det_fwd != det_bwd:
            self._raise(
                "telemetry.merge_commutativity",
                "worker snapshot merge is order-dependent on the "
                "deterministic plane",
                {"snapshots": len(snapshots), **(context or {})},
            )

    def check_shard_merge(
        self,
        expected_ids: list[str],
        delivered_ids: list[str],
        context: dict | None = None,
    ) -> None:
        """Distributed shard-merge determinism: the coordinator must
        deliver results in exactly the canonical plan order — the order
        a serial single-host run journals in — whatever the worker
        count, completion order, or retry history.  ``expected_ids`` is
        the plan-order scenario-id sequence, ``delivered_ids`` the
        order results actually reached the journal callback."""
        self._checked("remote.shard_merge_order")
        if list(expected_ids) != list(delivered_ids):
            first = next(
                (
                    i
                    for i, (a, b) in enumerate(
                        zip(expected_ids, delivered_ids)
                    )
                    if a != b
                ),
                min(len(expected_ids), len(delivered_ids)),
            )
            self._raise(
                "remote.shard_merge_order",
                f"merged delivery order diverges from plan order at "
                f"position {first} "
                f"(expected {len(expected_ids)} results, "
                f"delivered {len(delivered_ids)})",
                {"position": first, **(context or {})},
            )

    def check_fast_forward(
        self,
        rerun: Callable[[], Any],
        run: Any,
        context: dict | None = None,
    ) -> None:
        """Kernel fast-forward soundness: a lane the batched kernel
        retired at its budget because its state had stopped changing
        must equal the same lane re-run round by round (``rerun`` runs
        it through :func:`~repro.rounds.fastpath.simulate_fastpath`):
        equal round count, decisions and executed adjacency."""
        self._checked("kernel.fast_forward")
        again = rerun()
        for name in (
            "num_rounds", "decided", "decision_round", "decision_value",
            "adjacency",
        ):
            if not np.array_equal(getattr(again, name), getattr(run, name)):
                self._raise(
                    "kernel.fast_forward",
                    f"fast-forwarded lane field {name!r} differs from "
                    f"the round-by-round run",
                    context or {},
                )

    def check_label_window(
        self,
        labels: np.ndarray,
        clock: np.ndarray,
        window: np.ndarray,
        budget: int,
        live: np.ndarray,
        context: dict | None = None,
    ) -> None:
        """Algorithm 1's label window (the paper's Observation 1): at
        the end of its local round ``r``, every nonzero label ``l`` of a
        live lane satisfies ``max(r - window, 0) < l <= r``, and ``r``
        is within ``budget``, the largest round budget of the batch.
        The batched kernel's label dtype is picked from ``budget``, so
        this is what makes int16 labels exact.  ``labels`` is the
        ``(S, n, n, n)`` tensor after the purge, ``clock``, ``window``
        and ``live`` are per lane."""
        self._checked("kernel.label_window")
        lanes = np.nonzero(live)[0]
        if not lanes.size:
            return
        rows = labels[lanes].reshape(lanes.size, -1)
        now = np.asarray(clock)[lanes]
        floor = np.maximum(now - np.asarray(window)[lanes], 0)
        high = rows.max(axis=1)
        low = np.where(rows != 0, rows, np.iinfo(rows.dtype).max).min(axis=1)
        bad = (high > now) | (low <= floor) | (now > budget)
        if bad.any():
            i = int(np.argmax(bad))
            s, r = int(lanes[i]), int(now[i])
            self._raise(
                "kernel.label_window",
                f"lane {s} at round {r} holds labels outside the window "
                f"({int(floor[i])}, {r}] of budget {budget} "
                f"(nonzero labels span {int(low[i])}..{int(high[i])})",
                {"lane": s, "round": r, **(context or {})},
            )


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Contracts | NullContracts | None = None


def enabled() -> bool:
    """Whether the environment asks for contracts (workers inherit it)."""
    return os.environ.get(CONTRACTS_ENV, "") not in ("", "0")


def get() -> Contracts | NullContracts:
    """The process's active contracts object (memoized; falsy when off)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Contracts() if enabled() else NO_CONTRACTS
    return _ACTIVE


def checks_mark() -> dict[str, int] | None:
    """A copy of this process's per-contract check counts (``None``
    when contracts are off), to pass to :func:`record_checks` later."""
    active = get()
    return dict(active.counts) if active else None


def record_checks(recorder, mark: dict[str, int] | None) -> None:
    """Add the checks this process ran since ``mark`` to ``recorder``'s
    volatile plane, one ``contracts.<name>`` counter per contract.

    Each process records only its own checks (a pool or fleet worker
    per unit, the parent once per run), so merging the workers'
    snapshots counts every check once.  The parent's count covers its
    whole process over the run: a daemon running campaigns side by side
    credits each with the parent-side checks of the others too."""
    if mark is None or not recorder:
        return
    for name, count in get().counts.items():
        ran = count - mark.get(name, 0)
        if ran > 0:
            recorder.vinc(f"contracts.{name}", ran)


def activate() -> Contracts:
    """Turn contracts on for this process *and* its future pool workers
    (sets ``REPRO_CONTRACTS=1`` so spawned workers inherit it)."""
    global _ACTIVE
    os.environ[CONTRACTS_ENV] = "1"
    _ACTIVE = Contracts()
    return _ACTIVE


def deactivate() -> None:
    global _ACTIVE
    os.environ.pop(CONTRACTS_ENV, None)
    _ACTIVE = NO_CONTRACTS


@contextmanager
def contracts_enabled():
    """Enable contracts for a ``with`` block (tests), restoring the
    previous process state on exit."""
    global _ACTIVE
    prev_active = _ACTIVE
    prev_env = os.environ.get(CONTRACTS_ENV)
    try:
        yield activate()
    finally:
        _ACTIVE = prev_active
        if prev_env is None:
            os.environ.pop(CONTRACTS_ENV, None)
        else:
            os.environ[CONTRACTS_ENV] = prev_env


# ----------------------------------------------------------------------
# The @contract decorator (pymor idiom: debug-validated, zero-cost off)
# ----------------------------------------------------------------------
def contract(
    pre: Callable[..., bool] | None = None,
    post: Callable[..., bool] | None = None,
):
    """Attach runtime-checkable pre/post-conditions to a function.

    ``pre`` receives the call's ``(*args, **kwargs)``; ``post`` receives
    ``(result, *args, **kwargs)``.  Both return a truthy value when the
    condition holds (or raise :class:`ContractViolation` themselves with
    a richer repro).  When contracts are off the wrapper costs one
    memoized lookup and a truthiness check — conditions never run.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = get()
            if not active:
                return fn(*args, **kwargs)
            if pre is not None:
                _evaluate(active, fn, "pre", pre, args, kwargs)
            result = fn(*args, **kwargs)
            if post is not None:
                _evaluate(active, fn, "post", post, (result, *args), kwargs)
            return result

        return wrapper

    return decorate


def _evaluate(active, fn, phase, condition, args, kwargs) -> None:
    active._checked(f"{fn.__qualname__}.{phase}")
    try:
        ok = condition(*args, **kwargs)
    except ContractViolation:
        active.violations += 1
        raise
    except Exception as exc:  # noqa: BLE001 — condition bugs surface too
        active.violations += 1
        raise ContractViolation(
            f"{fn.__qualname__}.{phase}",
            f"condition raised {type(exc).__name__}: {exc}",
        ) from exc
    if not ok:
        active.violations += 1
        raise ContractViolation(
            f"{fn.__qualname__}.{phase}", "condition returned a falsy value"
        )
