"""Scenario grid DSL: content-hash ids, canonical expansion, registries."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.adversaries.crash import CrashAdversary
from repro.adversaries.grouped import GroupedSourceAdversary
from repro.adversaries.partition import PartitionAdversary
from repro.baselines.floodmin import FloodMinProcess
from repro.core.algorithm import SkeletonAgreementProcess
from repro.engine import scenarios
from repro.engine.scenarios import (
    ScenarioGrid,
    ScenarioSpec,
    agreement_grid,
    expand_grids,
    termination_grid,
)


class TestScenarioSpec:
    def test_id_is_stable_and_content_addressed(self):
        a = ScenarioSpec(n=6, k=2, seed=3, noise=0.1)
        b = ScenarioSpec(n=6, k=2, seed=3, noise=0.1)
        assert a == b
        assert a.scenario_id == b.scenario_id
        assert len(a.scenario_id) == 12
        assert a.scenario_id != ScenarioSpec(n=6, k=2, seed=4).scenario_id

    def test_id_canonical_for_numerically_equal_values(self):
        # noise=0 and noise=0.0 compare equal, so they must be the same
        # scenario (resume would otherwise re-execute stored work when a
        # campaign is driven from the CLI, where argparse yields floats).
        assert (
            ScenarioSpec(n=5, noise=0).scenario_id
            == ScenarioSpec(n=5, noise=0.0).scenario_id
        )
        assert (
            ScenarioSpec(n=5, options=(("f", 2),)).scenario_id
            == ScenarioSpec(n=5, options=(("f", 2.0),)).scenario_id
        )
        assert (
            ScenarioSpec(n=5, noise=0.5).scenario_id
            != ScenarioSpec(n=5, noise=0).scenario_id
        )

    def test_id_independent_of_option_order(self):
        a = ScenarioSpec(n=6, options=(("f", 2), ("horizon", 3)))
        b = ScenarioSpec(n=6, options=(("horizon", 3), ("f", 2)))
        assert a == b
        assert a.scenario_id == b.scenario_id

    def test_roundtrip_dict(self):
        spec = ScenarioSpec(
            n=8, k=3, num_groups=2, seed=5, noise=0.25, topology="star",
            algorithm="floodmin", adversary="crash", max_rounds=40,
            options=(("f", 3),),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # Extra keys (e.g. the store's "id") are ignored.
        data = spec.to_dict()
        data["id"] = "whatever"
        assert ScenarioSpec.from_dict(data) == spec

    def test_opt_and_with_options(self):
        spec = ScenarioSpec(n=6).with_options(f=2)
        assert spec.opt("f") == 2
        assert spec.opt("absent", "dflt") == "dflt"
        assert spec.with_options(f=9).opt("f") == 9

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ScenarioSpec(n=6, algorithm="nope")
        with pytest.raises(ValueError, match="unknown adversary"):
            ScenarioSpec(n=6, adversary="nope")

    def test_resolved_max_rounds(self):
        assert ScenarioSpec(n=10).resolved_max_rounds() == 80  # 6n+20
        assert ScenarioSpec(n=10, max_rounds=7).resolved_max_rounds() == 7
        assert (
            ScenarioSpec(n=10, algorithm="floodmin").resolved_max_rounds()
            == 80
        )

    def test_builders_dispatch(self):
        grouped = ScenarioSpec(n=6, num_groups=2, topology="star")
        adv = grouped.build_adversary()
        assert isinstance(adv, GroupedSourceAdversary)
        assert adv.topology == "star" and adv.num_groups == 2

        crash = ScenarioSpec(n=6, adversary="crash").with_options(f=2)
        adv = crash.build_adversary()
        assert isinstance(adv, CrashAdversary) and adv.f == 2

        part = ScenarioSpec(n=6, k=2, adversary="partition").with_options(
            k_env=3
        )
        adv = part.build_adversary()
        assert isinstance(adv, PartitionAdversary) and adv.k == 3

        procs = ScenarioSpec(n=5).build_processes()
        assert len(procs) == 5
        assert all(isinstance(p, SkeletonAgreementProcess) for p in procs)
        procs = ScenarioSpec(n=5, k=2, algorithm="floodmin").with_options(
            f=2
        ).build_processes()
        assert all(isinstance(p, FloodMinProcess) for p in procs)


_ADV = {"n": 6, "k": 2, "num_groups": 2, "seed": 3, "noise": 0.15}
_ALG = {"n": 6, "k": 2, "seed": 3}

#: Pinned content ids, as (spec fields, id).  Every journal ever written
#: is keyed by these hashes, so a change here makes resume re-run every
#: stored scenario.
GOLDEN_IDS = {
    "adversary-crash": ({**_ADV, "adversary": "crash"}, "daa286108806"),
    "adversary-eventual": (
        {**_ADV, "adversary": "eventual"}, "e174804e4d4d"),
    "adversary-figure1": ({**_ADV, "adversary": "figure1"}, "9da372d0fb82"),
    "adversary-gnp": ({**_ADV, "adversary": "gnp"}, "64a14e2d6b18"),
    "adversary-grouped": ({**_ADV, "adversary": "grouped"}, "a438410626cb"),
    "adversary-partition": (
        {**_ADV, "adversary": "partition"}, "f15e9d31281d"),
    "adversary-static": ({**_ADV, "adversary": "static"}, "9ec4ca8f7b54"),
    "algorithm-algorithm1": (
        {**_ALG, "algorithm": "algorithm1"}, "08a90e3c9792"),
    "algorithm-async_kset": (
        {**_ALG, "algorithm": "async_kset"}, "0e88cea6946b"),
    "algorithm-flooding": (
        {**_ALG, "algorithm": "flooding"}, "58f0afd534e5"),
    "algorithm-floodmin": (
        {**_ALG, "algorithm": "floodmin"}, "6c6fe7507b8d"),
    "algorithm-local_min": (
        {**_ALG, "algorithm": "local_min"}, "4a023f87dc8f"),
    "noise-int-0": ({"n": 5, "noise": 0}, "54372f82c5b8"),
    "noise-float-0.0": ({"n": 5, "noise": 0.0}, "54372f82c5b8"),
    "noise-0.30000000000000004": (
        {"n": 5, "noise": 0.30000000000000004}, "30065c2fddfc"),
    "noise-0.3": ({"n": 5, "noise": 0.3}, "3416405cec38"),
    "options-int": (
        {"n": 5, "options": (("f", 2), ("horizon", 3))}, "e38ba885eb71"),
    "options-float-valued-int": (
        {"n": 5, "options": (("f", 2.0), ("horizon", 3.0))},
        "e38ba885eb71"),
    "option-bool": (
        {"n": 5, "options": (("prune_unreachable", False),)},
        "2f19a1ccb82b"),
    "option-str": ({"n": 5, "options": (("label", "x"),)}, "f42c594a7b5c"),
    "option-tuple": (
        {"n": 5, "options": (("rounds", (1, 2.0, 3.5)),)}, "77cc85df963a"),
    "option-nested-tuple": (
        {"n": 5, "options": (("pairs", ((1, 2.0), (3,))),)},
        "632adc05ee49"),
    "n-float-valued-int": ({"n": 5.0}, "54372f82c5b8"),
    "max_rounds-None": ({"n": 5, "max_rounds": None}, "54372f82c5b8"),
    "max_rounds-int": ({"n": 5, "max_rounds": 40}, "4b7804836882"),
    "max_rounds-float-valued-int": (
        {"n": 5, "max_rounds": 40.0}, "4b7804836882"),
}


class TestGoldenIds:
    @pytest.mark.parametrize("name", sorted(GOLDEN_IDS))
    def test_id_is_pinned(self, name):
        fields, expected = GOLDEN_IDS[name]
        spec = ScenarioSpec(**fields)
        assert spec.scenario_id == expected
        assert spec.derive_id() == expected

    def test_every_registered_name_is_pinned(self):
        scenarios._load_family_registrations()
        pinned = {fields.get(kind) for fields, _ in GOLDEN_IDS.values()
                  for kind in ("adversary", "algorithm")}
        for registry in (scenarios.ADVERSARIES, scenarios.ALGORITHMS):
            # Names the package registers (tests register throwaway ones).
            package = {name for name, build in registry.items()
                       if build.__module__.startswith("repro.")}
            assert package and package <= pinned


class TestIdCache:
    STALE = "0123456789ab"

    def _stale(self, **fields) -> ScenarioSpec:
        """A spec whose cached id was overwritten: any copy that reuses
        the cache instead of hashing afresh shows the stale value."""
        spec = ScenarioSpec(**{"n": 6, "k": 2, "seed": 3, **fields})
        object.__setattr__(spec, "_scenario_id", self.STALE)
        assert spec.scenario_id == self.STALE
        return spec

    def test_hashes_once_per_spec_object(self, monkeypatch):
        calls = []
        derive = ScenarioSpec.derive_id
        monkeypatch.setattr(
            ScenarioSpec, "derive_id",
            lambda self: calls.append(self) or derive(self),
        )
        spec = ScenarioSpec(n=6, k=2, seed=3)
        ids = {spec.scenario_id for _ in range(5)}
        assert len(calls) == 1 and ids == {derive(spec)}
        ScenarioSpec(n=6, k=2, seed=3).scenario_id
        assert len(calls) == 2

    def test_replace_and_with_options_hash_afresh(self):
        spec = self._stale(options=(("f", 1),))
        fresh = ScenarioSpec(n=6, k=2, seed=3, options=(("f", 1),))
        assert replace(spec).scenario_id == fresh.scenario_id
        assert spec.with_options().scenario_id == fresh.scenario_id
        assert (
            ScenarioSpec.from_dict(spec.to_dict()).scenario_id
            == fresh.scenario_id
        )
        assert replace(spec, seed=4).scenario_id not in (
            self.STALE, fresh.scenario_id,
        )
        assert spec.with_options(f=2).scenario_id not in (
            self.STALE, fresh.scenario_id,
        )

    def test_pickling_keeps_the_id(self):
        spec = ScenarioSpec(n=6, k=2, seed=3, options=(("f", 1),))
        cold = pickle.loads(pickle.dumps(spec))
        assert cold.scenario_id == spec.scenario_id
        spec.scenario_id
        warm = pickle.loads(pickle.dumps(spec))
        assert warm == spec and warm.scenario_id == spec.scenario_id

    def test_cache_is_not_part_of_the_value(self):
        cached = self._stale()
        plain = ScenarioSpec(n=6, k=2, seed=3)
        assert cached == plain and hash(cached) == hash(plain)
        assert repr(cached) == repr(plain)
        assert "_scenario_id" not in repr(cached)
        assert cached.to_dict() == plain.to_dict()
        assert "_scenario_id" not in cached.to_dict()
        assert plain.scenario_id != self.STALE


class TestScenarioGrid:
    def test_scalars_and_sequences(self):
        grid = ScenarioGrid(n=6, seed=range(3), noise=0.1)
        specs = grid.expand()
        assert len(specs) == 3
        assert [s.seed for s in specs] == [0, 1, 2]
        assert all(s.n == 6 and s.noise == 0.1 for s in specs)

    def test_expansion_order_is_canonical(self):
        # Axis declaration order must not matter — only field order does.
        a = ScenarioGrid(seed=range(2), n=[5, 6]).expand()
        b = ScenarioGrid(n=[5, 6], seed=range(2)).expand()
        assert a == b
        assert [(s.n, s.seed) for s in a] == [(5, 0), (5, 1), (6, 0), (6, 1)]

    def test_generator_axes_are_materialized(self):
        specs = ScenarioGrid(n=[5], seed=(s for s in range(3))).expand()
        assert [s.seed for s in specs] == [0, 1, 2]

    def test_unknown_axes_become_options(self):
        specs = ScenarioGrid(n=6, f=[1, 2], algorithm="floodmin").expand()
        assert [s.opt("f") for s in specs] == [1, 2]

    def test_where_constraints_prune(self):
        grid = ScenarioGrid(
            n=[4, 6], k=[2, 5], where=[lambda s: s["k"] < s["n"]]
        )
        assert [(s.n, s.k) for s in grid.expand()] == [(4, 2), (6, 2), (6, 5)]

    def test_requires_n_axis(self):
        with pytest.raises(ValueError, match="'n' axis"):
            ScenarioGrid(k=[2]).expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ScenarioGrid(n=[])

    def test_len_and_json_roundtrip(self):
        grid = ScenarioGrid(n=[5, 6], seed=range(2))
        assert len(grid) == 4
        again = ScenarioGrid.from_json('{"axes": {"n": [5, 6], "seed": [0, 1]}}')
        assert again.expand() == grid.expand()

    def test_expand_grids_dedupes_preserving_order(self):
        g1 = ScenarioGrid(n=[5, 6])
        g2 = ScenarioGrid(n=[6, 7])
        specs = expand_grids([g1, g2])
        assert [s.n for s in specs] == [5, 6, 7]


class TestCanonicalGrids:
    def test_agreement_grid_matches_historical_nesting(self):
        specs = agreement_grid(
            ns=[6, 8], ks=[2, 3], seeds=[0, 1], noises=(0.15,)
        ).expand()
        expected = [
            (n, k, m, seed)
            for n in [6, 8]
            for k in [2, 3]
            if k < n
            for m in range(1, k + 1)
            for seed in [0, 1]
        ]
        assert [(s.n, s.k, s.num_groups, s.seed) for s in specs] == expected

    def test_termination_grid_shape(self):
        specs = termination_grid(ns=[4, 8], seeds=[0, 1, 2])
        assert len(specs) == 6
        assert all(s.k == s.num_groups == 2 for s in specs)

    def test_termination_grid_clamps_small_n(self):
        # The historical sweep clamps m to n (never drops the scenario).
        specs = termination_grid(ns=[1, 4], seeds=[0], num_groups=2)
        assert [(s.n, s.k, s.num_groups) for s in specs] == [
            (1, 1, 1),
            (4, 2, 2),
        ]
