"""FUZZ: registered differential fuzzing of the execution backends.

Each fuzz *case* is a randomly (but deterministically) drawn scenario —
size, adversary, topology, noise, seed, purge window — executed on every
execution engine the repo ships:

* the reference :class:`~repro.rounds.simulator.RoundSimulator`,
* the single-lane kernel (:func:`~repro.rounds.fastpath.simulate_fastpath`,
  labelled ``solo``), and
* the mega-batched kernel, both alone and stacked with same-``n``
  sibling scenarios, across sampled kernel ``width`` caps.

The oracle is the store's canonical record: :func:`canonical_line`
excludes the producing backend by design, so every engine must render the
*byte-identical* summary for the same spec.  Any divergence is a real
equivalence bug (kernel, compaction, lane packing, or adversary schedule
purity) — the case is then greedily *shrunk* (drop siblings, zero the
noise, strip the purge window, simplify the topology, walk ``n`` down)
and the minimal failing spec is printed as a one-line JSON repro.

The family is registered like any other (``campaign run --family fuzz``),
so fuzzing inherits journaling/resume, ``--jobs`` parallelism, crash
isolation, telemetry, and — when ``--contracts`` is on — every runtime
contract checkpoint fires *inside* the fuzzed kernels.

Grid determinism: case ``i`` of salt ``s`` is a pure function of
``(s, i)`` (a :func:`numpy.random.default_rng` seeded with the pair), so
two machines fuzzing the same budget draw the same cases and the journal
resume keys line up.

A budget of ``seeds`` cases also appends ``seeds // 5`` *wide* cases,
drawn from a second stream with its own tag at ``n`` in {16, 20, 24,
32}: the widths where the batched kernel gathers only the ``PT_p``
senders, closes each distinct approximation graph once and
fast-forwards lanes whose state has stopped changing.  A third of them
run without pruning (never-deciding stragglers the kernel
fast-forwards) and a third with a purge window of several ``n`` (late
deciders it must refuse).  The reference simulator is too slow at these
widths, so from ``n = 16`` the oracle is the single-lane kernel
(:func:`~repro.rounds.fastpath.simulate_fastpath`), which runs every
round and never fast-forwards.  The wide cases come after the narrow
ones and are numbered on their own, so no narrow case, and so no
narrow scenario id, depends on the wide stream.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.engine.backends import (
    _stock_result,
    execute_scenario_batch,
    simulate_single_lane,
)
from repro.engine.contracts import ContractViolation
from repro.engine.executor import ScenarioResult, execute_scenario
from repro.engine.registry import ExperimentSpec, register
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import canonical_line

#: RNG stream tag for the fuzz grid (keeps fuzz draws disjoint from every
#: other seeded stream in the repo).
_STREAM = 0xF022
#: RNG stream tag of the wide cases.
_WIDE_STREAM = 0xF023
#: The widths the wide stream draws from.  From the smallest of them the
#: oracle is the single-lane kernel, not the reference simulator.
_WIDE_NS = (16, 20, 24, 32)
#: A budget of ``seeds`` cases appends ``seeds // _WIDE_SHARE`` wide ones.
_WIDE_SHARE = 5

#: Options the fuzz layer adds on top of the scenario under test; the
#: differential runner strips them to recover the plain spec.
_FUZZ_OPTIONS = ("family", "case", "stream", "siblings", "width")

#: Hard ceiling on shrink-step evaluations (each evaluation re-runs the
#: case on two engines; shrinking must never dwarf the campaign itself).
_SHRINK_BUDGET = 24


# ----------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------
def _draw_case(salt: int, case: int) -> ScenarioSpec:
    """Case ``case`` of salt ``salt`` — a pure function of the pair."""
    rng = np.random.default_rng([_STREAM, salt, case])
    n = int(rng.choice((4, 5, 6, 8, 10)))
    adversary = str(rng.choice(("grouped", "partition", "crash", "static")))
    k = int(rng.integers(1, min(3, n) + 1))
    seed = int(rng.integers(0, 2**16))
    options: dict[str, Any] = {
        "family": "fuzz",
        "case": case,
        "siblings": int(rng.integers(0, 3)),
        "width": (None, None, 2, 3)[int(rng.integers(0, 4))],
    }
    rng.integers(0, 2)  # a retired option's draw, kept so later draws stay put
    if options["width"] is None:
        del options["width"]
    num_groups = 1
    noise = 0.0
    topology = "cycle"
    if adversary == "grouped":
        num_groups = int(rng.integers(1, min(n, 4) + 1))
        noise = float(rng.choice((0.0, 0.05, 0.2)))
        topology = str(rng.choice(("cycle", "clique", "star")))
    elif adversary == "static":
        noise = float(rng.choice((0.1, 0.3)))
    elif adversary == "crash":
        options["f"] = int(rng.integers(1, min(3, n - 1) + 1))
    if rng.random() < 0.25:
        options["purge_window"] = int(rng.integers(2, 6))
    return ScenarioSpec(
        n=n,
        k=k,
        num_groups=num_groups,
        seed=seed,
        noise=noise,
        topology=topology,
        adversary=adversary,
        options=tuple(sorted(options.items())),
    )


def _draw_wide_case(salt: int, case: int) -> ScenarioSpec:
    """Wide case ``case`` of salt ``salt`` — a pure function of the pair,
    drawn from its own stream (see the module docstring)."""
    rng = np.random.default_rng([_WIDE_STREAM, salt, case])
    n = int(rng.choice(_WIDE_NS))
    options: dict[str, Any] = {
        "family": "fuzz",
        "case": case,
        "stream": "wide",
        "siblings": int(rng.integers(0, 3)),
        "width": (None, None, 2)[int(rng.integers(0, 3))],
    }
    rng.integers(0, 2)  # a retired option's draw, kept so later draws stay put
    if options["width"] is None:
        del options["width"]
    arm = int(rng.integers(0, 3))
    if arm == 1:
        options["prune_unreachable"] = False
    elif arm == 2:
        options["purge_window"] = int(rng.integers(2, 6)) * n
    adversary = str(rng.choice(("grouped", "grouped", "crash", "static")))
    num_groups, noise = 1, 0.0
    if adversary == "grouped":
        num_groups = int(rng.integers(1, 4))
        noise = float(rng.choice((0.0, 0.15, 0.35)))
    elif adversary == "static":
        noise = float(rng.choice((0.1, 0.3)))
    else:
        options["f"] = int(rng.integers(1, 4))
    return ScenarioSpec(
        n=n,
        k=int(rng.integers(1, 4)),
        num_groups=num_groups,
        seed=int(rng.integers(0, 2**16)),
        noise=noise,
        adversary=adversary,
        options=tuple(sorted(options.items())),
    )


def _fuzz_grid(params: Mapping[str, Any]) -> list[ScenarioSpec]:
    budget = int(params.get("seeds", 20))
    salt = int(params.get("salt", 0))
    return [_draw_case(salt, case) for case in range(budget)] + [
        _draw_wide_case(salt, case)
        for case in range(budget // _WIDE_SHARE)
    ]


# ----------------------------------------------------------------------
# Differential runner
# ----------------------------------------------------------------------
def _base_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The plain scenario under test: the fuzz bookkeeping options
    stripped, so the backends treat it like any stock spec."""
    kept = {k: v for k, v in spec.options if k not in _FUZZ_OPTIONS}
    return replace(spec, options=tuple(sorted(kept.items())))


def _siblings(base: ScenarioSpec, count: int) -> list[ScenarioSpec]:
    """Derived-seed same-``n`` companions that share the mega-batch with
    the case (exercises lane packing/compaction around the victim)."""
    return [replace(base, seed=base.seed + 101 * (j + 1)) for j in range(count)]


def _normalize(result: ScenarioResult, base: ScenarioSpec) -> str:
    """The backend-free canonical record of ``result`` re-keyed on the
    plain spec (the batch layer hands back the spec it was given, which
    is already ``base``; this guards against accidental drift)."""
    return canonical_line(replace(result, spec=base, backend="reference"))


def _solo_line(base: ScenarioSpec) -> str:
    """The canonical line of ``base`` on the single-lane kernel; a build
    or run that raises renders as the error record the other engines
    write for it."""
    try:
        result = _stock_result(base, *simulate_single_lane(base))
    except ContractViolation:
        raise
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        result = ScenarioResult.failure(base, f"{type(exc).__name__}: {exc}")
    return _normalize(result, base)


def _run_engines(
    base: ScenarioSpec,
    siblings: Sequence[ScenarioSpec],
    width: int | None,
) -> tuple[str, dict[str, str]]:
    """Oracle line + per-engine canonical lines for ``base``.  The
    oracle is the reference simulator, or from ``n = 16`` the
    single-lane kernel."""
    got: dict[str, str] = {}
    if base.n >= min(_WIDE_NS):
        want = _solo_line(base)
    else:
        want = _normalize(execute_scenario(base), base)
        got["solo"] = _solo_line(base)
    group = [base, *siblings]
    label = f"batched[w={width},lanes={len(group)}]"
    batched = execute_scenario_batch(group, width=width)
    got[label] = _normalize(batched[0], base)
    return want, got


def _case_dict(
    base: ScenarioSpec, siblings: int, width: int | None
) -> dict[str, Any]:
    case = base.to_dict()
    case["siblings"] = siblings
    case["width"] = width
    return case


def _case_fails(case: Mapping[str, Any]) -> bool:
    """Whether the (possibly shrunk) case still diverges on some engine."""
    data = dict(case)
    siblings = int(data.pop("siblings", 0))
    width = data.pop("width", None)
    try:
        base = ScenarioSpec.from_dict(data)
        want, got = _run_engines(base, _siblings(base, siblings), width)
    except Exception:  # noqa: BLE001 — a crashing shrink step is a fail
        return True
    return any(line != want for line in got.values())


def _shrink(case: dict[str, Any]) -> dict[str, Any]:
    """Greedy minimization: try each simplification in order, keep it if
    the case still fails, within a hard evaluation budget."""
    evals = 0

    def still_fails(candidate: dict[str, Any]) -> bool:
        nonlocal evals
        if evals >= _SHRINK_BUDGET:
            return False
        evals += 1
        return _case_fails(candidate)

    def attempt(**changes: Any) -> None:
        nonlocal case
        candidate = dict(case)
        options = dict(candidate.get("options", {}))
        for key, value in changes.items():
            if key.startswith("opt_"):
                options.pop(key[4:], None)
            else:
                candidate[key] = value
        candidate["options"] = options
        if candidate != case and still_fails(candidate):
            case = candidate

    attempt(siblings=0)
    attempt(width=None)
    attempt(noise=0.0)
    attempt(opt_purge_window=None)
    attempt(topology="cycle")
    attempt(num_groups=1)
    attempt(adversary="static", noise=0.3, num_groups=1, opt_f=None)
    for smaller in range(case["n"] - 1, 2, -1):
        shrunk = {
            "n": smaller,
            "k": min(case["k"], smaller),
            "num_groups": min(case["num_groups"], smaller),
        }
        options = dict(case.get("options", {}))
        if "f" in options:
            options = dict(options)
            options["f"] = min(options["f"], smaller - 1)
            candidate = dict(case, **shrunk)
            candidate["options"] = options
        else:
            candidate = dict(case, **shrunk)
        if still_fails(candidate):
            case = candidate
        else:
            break
    return case


def run_fuzz_case(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one differential case; any engine divergence is shrunk and
    reported as an ``"error"`` result carrying the minimal JSON repro."""
    base = _base_spec(spec)
    siblings = int(spec.opt("siblings", 0))
    width = spec.opt("width")
    want, got = _run_engines(base, _siblings(base, siblings), width)
    mismatched = sorted(
        engine for engine, line in got.items() if line != want
    )
    if mismatched:
        minimal = _shrink(_case_dict(base, siblings, width))
        repro = json.dumps(minimal, sort_keys=True, separators=(",", ":"))
        return ScenarioResult.failure(
            spec,
            f"differential mismatch on {', '.join(mismatched)}; "
            f"minimal repro: {repro}",
        )
    reference = json.loads(want)
    return ScenarioResult(
        spec=spec,
        status=reference["status"],
        error=reference.get("error"),
        decision_values=tuple(reference.get("decision_values", ())),
        extras=(("engines", len(got) + 1),),
        **{
            name: reference.get("metrics", {}).get(name)
            for name in (
                "num_rounds",
                "root_components",
                "psrcs_holds",
                "distinct_decisions",
                "all_decided",
                "k_agreement_holds",
                "validity_holds",
                "first_decision_round",
                "last_decision_round",
                "stabilization",
                "lemma11_bound",
                "within_bound",
            )
        },
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fuzz_render(results: Sequence[ScenarioResult]) -> tuple[str, int]:
    mismatches = [
        r
        for r in results
        if r.error and r.error.startswith("differential mismatch")
    ]
    broken = [r for r in results if not r.ok and r not in mismatches]
    lines = [
        f"FUZZ: {len(results)} differential cases — "
        f"{len(results) - len(mismatches) - len(broken)} agree, "
        f"{len(mismatches)} diverge, {len(broken)} errored"
    ]
    for r in mismatches:
        lines.append(f"  case {r.spec.opt('case')} [{r.scenario_id}]: {r.error}")
    for r in broken:
        lines.append(
            f"  case {r.spec.opt('case')} [{r.scenario_id}] "
            f"({r.status}): {r.error}"
        )
    if not mismatches and not broken:
        lines.append("  all engines byte-identical on every case")
    return "\n".join(lines), 1 if (mismatches or broken) else 0


register(
    ExperimentSpec(
        name="fuzz",
        title="FUZZ: differential backend fuzzing with shrinking repros",
        build_grid=_fuzz_grid,
        render=_fuzz_render,
        headers=(
            "case", "n", "k", "adversary", "seed", "status", "engines"
        ),
        row=lambda r: [
            r.spec.opt("case"),
            r.spec.n,
            r.spec.k,
            r.spec.adversary,
            r.spec.seed,
            r.status,
            r.extra("engines"),
        ],
        runner=run_fuzz_case,
        defaults=(("salt", 0), ("seeds", 20)),
        # The runner *is* the differential harness; forcing a fast
        # backend would bypass it.
        vectorizable=False,
    )
)
