"""The scenario grid DSL.

A *scenario* is one fully specified simulation: which algorithm, which
adversary, every parameter either fixes, and the analysis contract ``k`` it
is judged against.  :class:`ScenarioSpec` freezes all of that into an
immutable value with a **stable content-hash id** — two specs with the same
parameters have the same id in every process on every machine, which is
what makes campaigns resumable and parallel execution deterministic.

A *grid* is a declarative cartesian product over scenario axes:

>>> grid = ScenarioGrid(
...     n=[6, 9, 12],
...     k=[2, 3],
...     num_groups=[1, 2, 3],
...     seed=range(10),
...     noise=[0.0, 0.15],
...     where=[lambda s: s["k"] < s["n"], lambda s: s["num_groups"] <= s["k"]],
... )
>>> specs = grid.expand()

Expansion order is canonical (axis declaration is irrelevant; the field
order of :class:`ScenarioSpec` is what counts), so a grid always enumerates
the same specs in the same order — the campaign layer relies on this to
produce byte-identical summaries regardless of worker count.

Unknown axis names become *options*: free-form algorithm/adversary knobs
(``f`` for crash counts, ``horizon`` for the LocalMin baseline,
``purge_window`` / ``prune_unreachable`` for Algorithm 1's design knobs,
``quiet_period`` for the grouped adversary, ...).  They participate in the
content hash like every other field.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.adversaries.base import Adversary
from repro.adversaries.crash import CrashAdversary
from repro.adversaries.grouped import GroupedSourceAdversary
from repro.adversaries.partition import PartitionAdversary
from repro.baselines.async_kset import make_async_kset_processes
from repro.baselines.flooding import make_flooding_processes
from repro.baselines.floodmin import make_floodmin_processes
from repro.baselines.local_min import make_local_min_processes
from repro.core.algorithm import make_processes

Options = tuple[tuple[str, Any], ...]
Constraint = Callable[[Mapping[str, Any]], bool]


@dataclass(frozen=True)
class ScenarioSpec:
    """One immutable, content-addressed simulation scenario.

    Attributes
    ----------
    algorithm:
        Key into :data:`ALGORITHMS` — which process vector to run.
    adversary:
        Key into :data:`ADVERSARIES` — which network model to run against.
    n:
        Number of processes.
    k:
        The agreement contract the run is judged against (``Psrcs(k)``
        check, k-agreement bound).
    num_groups:
        Group count for the grouped-source adversary (ignored by others).
    seed:
        Base RNG seed; every scenario is a pure function of its spec.
    noise:
        Transient-edge probability (grouped adversary).
    topology:
        Intra-group topology (grouped adversary).
    max_rounds:
        Hard round cap; ``None`` means the algorithm-specific default
        (Lemma-11-generous ``6n + 20`` for Algorithm 1, ``80`` for the
        fixed-horizon baselines).
    options:
        Sorted ``(name, value)`` pairs of free-form knobs; values must be
        JSON scalars.  Use :meth:`opt` to read them.
    """

    n: int
    k: int = 1
    num_groups: int = 1
    seed: int = 0
    noise: float = 0.0
    topology: str = "cycle"
    algorithm: str = "algorithm1"
    adversary: str = "grouped"
    max_rounds: int | None = None
    options: Options = ()

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS or self.adversary not in ADVERSARIES:
            # Experiment families register extra algorithms/adversaries at
            # import time; make sure they have had the chance before
            # rejecting a name (decoding a figure1/duality journal record
            # must work without the caller pre-importing the family).
            _load_family_registrations()
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            )
        if self.adversary not in ADVERSARIES:
            raise ValueError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {sorted(ADVERSARIES)}"
            )
        canonical = tuple(sorted((str(k), v) for k, v in self.options))
        if canonical != self.options:
            object.__setattr__(self, "options", canonical)

    # ------------------------------------------------------------------
    def opt(self, name: str, default: Any = None) -> Any:
        """Read a free-form option by name."""
        for key, value in self.options:
            if key == name:
                return value
        return default

    def with_options(self, **extra: Any) -> "ScenarioSpec":
        """A copy with additional/overridden options."""
        merged = dict(self.options)
        merged.update(extra)
        return replace(self, options=tuple(sorted(merged.items())))

    # ------------------------------------------------------------------
    @property
    def scenario_id(self) -> str:
        """Stable content hash (12 hex chars) of the canonical dict form.

        Independent of process, machine and ``PYTHONHASHSEED`` — the
        resume key of the result store.  Numerically equal values hash
        equal: ``noise=0`` and ``noise=0.0`` are the same spec (dataclass
        equality) and must be the same scenario (integer-valued floats
        are canonicalized to ints before hashing).

        Computed once per spec object (see :meth:`derive_id`) and cached
        on the instance — the spec is frozen, so the id cannot go stale.
        The cache is no field: it stays out of ``==``, ``hash``,
        ``repr`` and :meth:`to_dict`; :meth:`with_options`,
        ``dataclasses.replace`` and :meth:`from_dict` build new specs
        that hash afresh, and a pickled spec carries its id along.
        """
        try:
            return self._scenario_id
        except AttributeError:
            sid = self.derive_id()
            object.__setattr__(self, "_scenario_id", sid)
            return sid

    def derive_id(self) -> str:
        """The content hash of :attr:`scenario_id`, recomputed from the
        fields without reading or filling the cache.

        The hashed text is the canonical JSON of :meth:`to_dict` (sorted
        keys, tight separators, integer-valued floats as ints), built
        flat from the fields and encoded by one shared encoder.
        """
        canon = _canonical_json
        payload = {
            "algorithm": self.algorithm,
            "adversary": self.adversary,
            "n": canon(self.n),
            "k": canon(self.k),
            "num_groups": canon(self.num_groups),
            "seed": canon(self.seed),
            "noise": canon(self.noise),
            "topology": canon(self.topology),
            "max_rounds": canon(self.max_rounds),
            "options": {k: canon(v) for k, v in self.options},
        }
        text = _ID_ENCODER.encode(payload)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def to_dict(self) -> dict:
        """JSON-friendly canonical form (inverse of :meth:`from_dict`)."""
        return {
            "algorithm": self.algorithm,
            "adversary": self.adversary,
            "n": self.n,
            "k": self.k,
            "num_groups": self.num_groups,
            "seed": self.seed,
            "noise": self.noise,
            "topology": self.topology,
            "max_rounds": self.max_rounds,
            "options": {k: v for k, v in self.options},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)} - {"options"}
        kwargs = {k: v for k, v in data.items() if k in known}
        options = dict(data.get("options", {}))
        return cls(**kwargs, options=tuple(sorted(options.items())))

    # ------------------------------------------------------------------
    def resolved_max_rounds(self) -> int:
        """The effective round cap (see :attr:`max_rounds`)."""
        if self.max_rounds is not None:
            return self.max_rounds
        if self.algorithm == "algorithm1":
            return 6 * self.n + 20
        return 80

    def build_adversary(self) -> Adversary:
        """Instantiate the adversary this spec names."""
        return ADVERSARIES[self.adversary](self)

    def build_processes(self) -> list:
        """Instantiate the process vector this spec names."""
        return ALGORITHMS[self.algorithm](self)


#: The canonical id encoding (``json.dumps`` with these options would
#: build a new encoder on every call).
_ID_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Exact types that are canonical JSON as they are.
_JSON_ATOMS = frozenset({int, str, bool, type(None)})


def _canonical_json(value: Any) -> Any:
    """Normalize a JSON-ready value for hashing: integer-valued floats
    become ints (``0.0`` → ``0``) so that specs that compare equal hash
    equal; containers are normalized recursively."""
    if value.__class__ in _JSON_ATOMS:
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, dict):
        return {k: _canonical_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_json(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Registries.  Builders receive the full spec so any option can matter.
# ----------------------------------------------------------------------
def _build_grouped(spec: ScenarioSpec) -> Adversary:
    return GroupedSourceAdversary(
        spec.n,
        num_groups=spec.num_groups,
        seed=spec.seed,
        noise=spec.noise,
        quiet_period=spec.opt("quiet_period", 5),
        topology=spec.topology,
    )


def _build_partition(spec: ScenarioSpec) -> Adversary:
    # ``k_env`` lets the environment's partition level differ from the
    # contract k the run is judged against (BASELINE(b) does exactly this).
    return PartitionAdversary(spec.n, spec.opt("k_env", spec.k))


def _build_crash(spec: ScenarioSpec) -> Adversary:
    # The classic staggered schedule: process i crashes in round i+1.
    f = spec.opt("f", 1)
    crash_rounds = {i + 1: i + 1 for i in range(f)}
    return CrashAdversary(spec.n, crash_rounds, seed=spec.seed)


def _build_static(spec: ScenarioSpec) -> Adversary:
    # A seeded random strongly connected graph played in every round
    # (``G^r = G^∩∞`` for all r) — the perpetually synchronous corner of
    # the scenario space; ``noise`` is the extra-edge density.
    import numpy as np

    from repro.adversaries.static import StaticAdversary
    from repro.graphs.generators import random_strongly_connected

    rng = np.random.default_rng([spec.seed, spec.n])
    return StaticAdversary(
        spec.n, random_strongly_connected(spec.n, spec.noise, rng)
    )


ADVERSARIES: dict[str, Callable[[ScenarioSpec], Adversary]] = {
    "grouped": _build_grouped,
    "partition": _build_partition,
    "crash": _build_crash,
    "static": _build_static,
}


def _load_family_registrations() -> None:
    """Import the registered experiment families (idempotent), giving
    them the chance to :func:`register_adversary`/:func:`register_algorithm`
    before an unknown name is rejected.  Lazy to keep this module free of
    an import cycle with :mod:`repro.engine.registry`."""
    from repro.engine.registry import load_families

    load_families()


def register_adversary(
    name: str, builder: Callable[["ScenarioSpec"], Adversary]
) -> None:
    """Register an extra adversary name (experiment-family extension
    point; the builder receives the full spec so any option can matter)."""
    ADVERSARIES[name] = builder


def register_algorithm(
    name: str, builder: Callable[["ScenarioSpec"], list]
) -> None:
    """Register an extra algorithm name (experiment-family extension
    point)."""
    ALGORITHMS[name] = builder

ALGORITHMS: dict[str, Callable[[ScenarioSpec], list]] = {
    "algorithm1": lambda s: make_processes(
        s.n,
        purge_window=s.opt("purge_window"),
        prune_unreachable=s.opt("prune_unreachable", True),
    ),
    "floodmin": lambda s: make_floodmin_processes(
        s.n, f=s.opt("f", 1), k=s.k
    ),
    "flooding": lambda s: make_flooding_processes(s.n, f=s.opt("f", 1)),
    "local_min": lambda s: make_local_min_processes(
        s.n, horizon=s.opt("horizon", 2)
    ),
    "async_kset": lambda s: make_async_kset_processes(s.n, f=s.opt("f", 0)),
}


# ----------------------------------------------------------------------
# The grid DSL
# ----------------------------------------------------------------------
_FIELD_ORDER = [f.name for f in fields(ScenarioSpec) if f.name != "options"]


@dataclass(frozen=True)
class ScenarioGrid:
    """A declarative cartesian product of scenario axes.

    Every keyword is an axis: a scalar pins the axis to one value, a
    sequence enumerates it.  Known :class:`ScenarioSpec` field names bind
    to fields; anything else becomes a free-form option.  ``where``
    constraints (each a ``dict -> bool`` callable over the raw combo)
    prune infeasible corners *before* specs are built.

    Grids are values: hashable-by-content via :meth:`expand` and
    composable with :func:`expand_grids`.
    """

    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    where: tuple[Constraint, ...] = field(default=(), compare=False)

    def __init__(
        self,
        where: Iterable[Constraint] = (),
        **axes: Any,
    ) -> None:
        normalized = []
        for name, values in axes.items():
            # Strings are scalars; every other iterable (list, range,
            # generator, ...) enumerates the axis.
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Iterable
            ):
                values = (values,)
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            normalized.append((name, values))
        # Canonical expansion order: spec fields first (in declaration
        # order), then options alphabetically — independent of the order
        # the caller wrote the axes in.
        def sort_key(item: tuple[str, tuple]) -> tuple:
            name = item[0]
            if name in _FIELD_ORDER:
                return (0, _FIELD_ORDER.index(name), name)
            return (1, 0, name)

        object.__setattr__(self, "axes", tuple(sorted(normalized, key=sort_key)))
        object.__setattr__(self, "where", tuple(where))

    # ------------------------------------------------------------------
    def expand(self) -> list[ScenarioSpec]:
        """All feasible specs, in canonical grid order."""
        names = [name for name, _ in self.axes]
        if "n" not in names:
            raise ValueError("a grid needs an 'n' axis")
        specs: list[ScenarioSpec] = []
        for combo in itertools.product(*(vals for _, vals in self.axes)):
            raw = dict(zip(names, combo))
            if not all(pred(raw) for pred in self.where):
                continue
            field_kwargs = {k: v for k, v in raw.items() if k in _FIELD_ORDER}
            options = tuple(
                sorted(
                    (k, v) for k, v in raw.items() if k not in _FIELD_ORDER
                )
            )
            specs.append(ScenarioSpec(**field_kwargs, options=options))
        return specs

    def __len__(self) -> int:
        return len(self.expand())

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON form (constraints are not serializable and are dropped)."""
        return {"axes": {name: list(vals) for name, vals in self.axes}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGrid":
        return cls(**dict(data.get("axes", {})))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioGrid":
        """Parse a grid from a JSON object ``{"axes": {...}}``."""
        return cls.from_dict(json.loads(text))


def expand_grids(grids: Iterable[ScenarioGrid]) -> list[ScenarioSpec]:
    """Union of several grids: concatenated expansion, deduplicated by
    scenario id, first occurrence wins (order-preserving)."""
    seen: set[str] = set()
    specs: list[ScenarioSpec] = []
    for grid in grids:
        for spec in grid.expand():
            sid = spec.scenario_id
            if sid not in seen:
                seen.add(sid)
                specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# Canonical grids for the standing experiment families
# ----------------------------------------------------------------------
def agreement_grid(
    ns: Sequence[int],
    ks: Sequence[int],
    seeds: Sequence[int],
    noises: Sequence[float] = (0.15,),
    topology: str = "cycle",
) -> ScenarioGrid:
    """ALG-AGREE / THM1: every ``(n, k, seed)`` with every feasible group
    count ``m <= k`` (the same expansion as the historical
    ``agreement_sweep``, now declarative)."""
    max_groups = max(ks) if ks else 1
    return ScenarioGrid(
        n=ns,
        k=ks,
        num_groups=range(1, max_groups + 1),
        seed=seeds,
        noise=noises,
        topology=topology,
        where=[
            lambda s: s["k"] < s["n"],
            lambda s: s["num_groups"] <= min(s["k"], s["n"]),
        ],
    )


def termination_grid(
    ns: Sequence[int],
    seeds: Sequence[int],
    noise: float = 0.15,
    num_groups: int = 2,
) -> list[ScenarioSpec]:
    """ALG-TERM: decision latency vs Lemma 11's bound across system sizes.

    Mirrors the historical ``termination_sweep`` exactly: the group count
    is *clamped* per system size (``k = m = min(num_groups, n)``), never
    dropped — a single grid cannot express a per-``n`` clamp, so this is
    a union of one-``n`` grids and returns the expanded specs."""
    return expand_grids(
        ScenarioGrid(
            n=[n],
            k=[min(num_groups, n)],
            num_groups=[min(num_groups, n)],
            seed=seeds,
            noise=noise,
            topology="cycle",
        )
        for n in ns
    )
