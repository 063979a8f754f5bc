"""The experiment registry: every family is a campaign, byte-identical
to its pre-registry in-process driver.

The round-trip tests re-implement the *historical* driver loops inline
(the exact code the registry replaced) and assert the registry path —
spec grid → (possibly parallel) executor → journaled records →
aggregator — reproduces their output exactly, not approximately."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.campaign import Campaign
from repro.engine.executor import execute_scenarios, require_ok
from repro.engine.registry import (
    ALIASES,
    ExperimentSpec,
    family_campaign,
    family_names,
    get_family,
    run_family,
    run_registered_scenario,
)
from repro.engine.scenarios import ScenarioSpec
from repro.engine.store import canonical_line, decode_result, encode_result

SEVEN_FAMILIES = (
    "figure1",
    "theorem2",
    "sweeps",
    "ablation",
    "duality",
    "eventual",
    "latency",
)


class TestRegistryBasics:
    def test_standard_families_registered(self):
        names = family_names()
        for name in SEVEN_FAMILIES + ("termination",):
            assert name in names

    def test_aliases_resolve(self):
        for alias, target in ALIASES.items():
            assert get_family(alias).name == target

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown experiment family"):
            get_family("nope")

    def test_every_family_has_a_nonempty_default_grid(self):
        for name in SEVEN_FAMILIES:
            specs = get_family(name).grid()
            assert specs, name
            ids = [s.scenario_id for s in specs]
            assert len(ids) == len(set(ids)), name

    def test_family_spec_shape(self):
        for name in SEVEN_FAMILIES:
            family = get_family(name)
            assert isinstance(family, ExperimentSpec)
            assert family.headers and family.row is not None

    def test_unknown_family_option_contained_as_error(self):
        spec = ScenarioSpec(n=5, options=(("family", "bogus"),))
        result = run_registered_scenario(spec, "reference")
        assert result.status == "error"
        assert "unknown experiment family" in result.error

    def test_forced_batched_on_custom_runner_family_errors(self):
        # The ablation grid mixes fast-path-covered arms (non-hooked
        # variants, which a forced fast backend *can* run via the twin)
        # with reference-only arms (the invariant-hook arm), which must
        # come back as explicit errors — and partial coverage means the
        # family as a whole rejects a forced fast backend up front.
        grid = get_family("ablation").grid({"n": 5, "k": 2, "seeds": 1})
        covered = next(
            s for s in grid if not s.opt("hooks", True)
            and not s.opt("min_over_all")
        )
        hooked = next(s for s in grid if s.opt("hooks", True))
        ok = run_registered_scenario(covered, "batched")
        assert ok.status == "ok" and ok.backend == "batched"
        result = run_registered_scenario(hooked, "batched")
        assert result.status == "error"
        assert "FastPathUnsupported" in result.error
        with pytest.raises(ValueError, match="does not support backend"):
            family_campaign("ablation", backend="batched")


class TestFigure1Family:
    def test_round_trip_matches_in_process_renderer(self):
        from repro.experiments.figure1 import render_figure1

        results = run_family("figure1")
        assert len(results) == 1
        result = results[0]
        assert result.ok
        assert result.extra("confirms_figure1") is True
        assert result.root_components == 2
        assert result.psrcs_holds is True
        assert result.decision_values == (1, 3)
        # The journaled rendering is byte-identical to the historical
        # in-process rendering.
        assert result.extra("rendering") == render_figure1(max_rounds=20)
        text, code = get_family("figure1").render(results)
        assert code == 0
        assert text == (
            "Figure 1 — 6 processes, Psrcs(3) holds (self-loops omitted)"
            "\n\n" + render_figure1(max_rounds=20)
        )


class TestTheorem2Family:
    @pytest.mark.parametrize("n,k", [(6, 3), (7, 2)])
    def test_round_trip_matches_in_process_driver(self, n, k):
        from repro.experiments.theorem2 import theorem2_experiment

        report = theorem2_experiment(n, k)
        (result,) = run_family("theorem2", {"n": [n], "k": [k]})
        assert result.ok
        assert result.psrcs_holds == report.psrcs_k_holds
        assert (
            result.extra("psrcs_k_minus_1_holds")
            == report.psrcs_k_minus_1_holds
        )
        assert result.distinct_decisions == report.distinct_decisions
        assert (
            result.extra("isolated_decided_own")
            == report.isolated_decided_own
        )
        assert result.extra("confirms_theorem") == report.confirms_theorem
        assert result.extra("confirms_theorem") is True


class TestSweepsFamily:
    def test_round_trip_matches_agreement_sweep(self):
        from repro.experiments.sweeps import (
            agreement_sweep,
            sweep_result_from_scenario,
        )

        rows = agreement_sweep(ns=[5, 6], ks=[2], seeds=[0], noise=0.15)
        results = run_family(
            "sweeps", {"n": [5, 6], "k": [2], "seeds": 1, "noise": 0.15}
        )
        assert [sweep_result_from_scenario(r) for r in results] == rows


class TestAblationFamily:
    N, K, SEEDS = 6, 2, range(3)

    @staticmethod
    def _historical_outcome(variant, n, k, seeds, noise=0.35,
                            purge_window=None, prune_unreachable=True,
                            min_over_all=False, hooks=True):
        """The pre-registry driver loop (hook attachment now follows the
        variant's instrumentation flag — see standard_variants)."""
        from repro.adversaries.grouped import GroupedSourceAdversary
        from repro.analysis.properties import check_agreement_properties
        from repro.core.algorithm import SkeletonAgreementProcess
        from repro.core.invariants import (
            InvariantViolation,
            make_invariant_hook,
        )
        from repro.experiments.ablation import (
            AblationOutcome,
            MinOverAllProcess,
        )
        from repro.rounds.simulator import RoundSimulator, SimulationConfig

        invariant_violations = agreement_violations = 0
        termination_failures = 0
        max_decide = None
        for seed in seeds:
            adv = GroupedSourceAdversary(
                n, num_groups=k, seed=seed, noise=noise, topology="cycle"
            )
            cls = MinOverAllProcess if min_over_all else SkeletonAgreementProcess
            procs = [
                cls(pid, n, pid, purge_window=purge_window,
                    prune_unreachable=prune_unreachable)
                for pid in range(n)
            ]
            sim = RoundSimulator(
                procs, adv, SimulationConfig(max_rounds=8 * n),
                invariant_hooks=[make_invariant_hook()] if hooks else [],
            )
            try:
                run = sim.run()
            except InvariantViolation:
                invariant_violations += 1
                continue
            report = check_agreement_properties(run, k)
            if not report.k_agreement.holds or not report.validity.holds:
                agreement_violations += 1
            if not report.termination.holds:
                termination_failures += 1
            rounds = [d.round_no for d in run.decisions.values()]
            if rounds:
                max_decide = max(max_decide or 0, max(rounds))
        return AblationOutcome(
            variant=variant, runs=len(seeds),
            invariant_violations=invariant_violations if hooks else None,
            agreement_violations=agreement_violations,
            termination_failures=termination_failures,
            max_decision_round=max_decide,
        )

    def test_round_trip_matches_historical_loop(self):
        from repro.experiments.ablation import (
            ablation_outcomes,
            standard_variants,
        )

        results = run_family(
            "ablation", {"n": self.N, "k": self.K, "seeds": len(self.SEEDS)}
        )
        outcomes = ablation_outcomes(results)
        expected = [
            self._historical_outcome(variant, self.N, self.K, self.SEEDS,
                                     **knobs)
            for variant, knobs in standard_variants(self.N)
        ]
        assert outcomes == expected

    def test_parallel_equals_serial(self):
        from repro.experiments.ablation import ablation_grid

        specs = ablation_grid(self.N, self.K, range(2))
        serial = execute_scenarios(specs, jobs=1)
        parallel = execute_scenarios(specs, jobs=2, chunksize=2)
        assert parallel == serial


class TestDualityFamily:
    NS, DENSITIES, SEEDS = (6, 8), (0.1, 0.3), range(3)

    @staticmethod
    def _historical_rows(ns, densities, seeds):
        """The pre-registry driver loop, verbatim."""
        from repro.experiments.duality import duality_profile
        from repro.graphs.generators import gnp_random

        rows = []
        for n in ns:
            for p in densities:
                rcs, alphas, gaps, violations = [], [], [], 0
                for seed in seeds:
                    g = gnp_random(
                        n, p,
                        np.random.default_rng([n, int(p * 1000), seed]),
                        self_loops=True,
                    )
                    profile = duality_profile(g)
                    rcs.append(profile.root_components)
                    alphas.append(profile.alpha)
                    gaps.append(profile.gap)
                    if not profile.theorem1_holds:
                        violations += 1
                rows.append([n, p, float(np.mean(rcs)),
                             float(np.mean(alphas)), float(np.mean(gaps)),
                             violations])
        return rows

    def test_round_trip_matches_historical_loop(self):
        from repro.experiments.duality import duality_sweep

        expected = self._historical_rows(self.NS, self.DENSITIES, self.SEEDS)
        assert duality_sweep(self.NS, self.DENSITIES, self.SEEDS) == expected
        # ... and via the registry path (spec grid + aggregator).
        results = run_family(
            "duality",
            {"n": list(self.NS), "density": list(self.DENSITIES),
             "seeds": len(self.SEEDS)},
        )
        from repro.experiments.duality import duality_rows

        assert duality_rows(results) == expected

    def test_parallel_equals_serial(self):
        from repro.experiments.duality import duality_grid

        specs = duality_grid((6,), (0.2,), range(4))
        assert execute_scenarios(specs, jobs=2, chunksize=1) == \
            execute_scenarios(specs, jobs=1)


class TestEventualFamily:
    def test_round_trip_matches_in_process_driver(self):
        from repro.experiments.eventual import eventual_lower_bound

        bad_rounds = [0, 1, 4]
        results = run_family(
            "eventual", {"n": [6], "bad_rounds": bad_rounds, "seeds": 1}
        )
        assert len(results) == len(bad_rounds)
        for result, bad in zip(results, bad_rounds):
            report = eventual_lower_bound(6, bad_rounds=bad)
            assert result.ok
            assert result.extra("bad_rounds") == bad
            assert result.distinct_decisions == report.distinct_decisions
            assert result.extra("all_decided_own") == report.all_decided_own
            assert result.extra("confirms_lower_bound") is True


class TestResumeMidFamily:
    """Kill a family campaign after k scenarios; resume must execute
    exactly the rest and converge to the identical canonical summary."""

    PARAMS = {"n": 6, "k": 2, "seeds": 2}

    def test_resume_mid_ablation(self, tmp_path):
        # The uninterrupted reference run.
        full = family_campaign(
            "ablation", self.PARAMS, store=tmp_path / "full.jsonl"
        )
        report = full.run()
        assert report.errors == 0 and report.executed == report.total
        full.write_summary(tmp_path / "full_summary.jsonl")

        # "Kill" a second campaign after k journaled scenarios by
        # truncating its journal.
        interrupted = tmp_path / "interrupted.jsonl"
        k = 5
        lines = (tmp_path / "full.jsonl").read_text().splitlines(True)
        interrupted.write_text("".join(lines[:k]))

        resumed = family_campaign("ablation", self.PARAMS, store=interrupted)
        report = resumed.run()
        assert report.skipped == k
        assert report.executed == report.total - k
        resumed.write_summary(tmp_path / "resumed_summary.jsonl")
        assert (
            (tmp_path / "resumed_summary.jsonl").read_bytes()
            == (tmp_path / "full_summary.jsonl").read_bytes()
        )

    def test_summary_bytes_independent_of_jobs(self, tmp_path):
        c1 = family_campaign(
            "duality",
            {"n": [6], "density": [0.1, 0.3], "seeds": 3},
            store=tmp_path / "j1.jsonl",
        )
        c1.run(jobs=1)
        c1.write_summary(tmp_path / "s1.jsonl")
        c2 = family_campaign(
            "duality",
            {"n": [6], "density": [0.1, 0.3], "seeds": 3},
            store=tmp_path / "j2.jsonl",
        )
        c2.run(jobs=3)
        c2.write_summary(tmp_path / "s2.jsonl")
        assert (tmp_path / "s1.jsonl").read_bytes() == \
            (tmp_path / "s2.jsonl").read_bytes()


class TestExtrasCodec:
    def test_extras_round_trip(self):
        spec = ScenarioSpec(n=5, options=(("family", "duality"),))
        from repro.engine.executor import ScenarioResult

        result = ScenarioResult(
            spec=spec, root_components=2,
            extras=(("alpha", 3), ("gap", 1)),
        )
        assert decode_result(encode_result(result)) == result
        assert result.extra("alpha") == 3
        assert result.extra("missing", 42) == 42

    def test_empty_extras_keep_historical_bytes(self):
        from repro.engine.executor import ScenarioResult

        result = ScenarioResult(spec=ScenarioSpec(n=5), num_rounds=7)
        assert '"extras"' not in canonical_line(result)

    def test_extras_canonicalized_sorted(self):
        from repro.engine.executor import ScenarioResult

        result = ScenarioResult(
            spec=ScenarioSpec(n=5), extras=(("b", 2), ("a", 1))
        )
        assert result.extras == (("a", 1), ("b", 2))


class TestStoreDecodeWithoutPreimport:
    def test_family_journal_decodes_in_fresh_interpreter(self, tmp_path):
        """Decoding a journal with family-registered adversaries must work
        without the caller pre-importing the family module (the spec
        validator lazily loads the registry)."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        store = tmp_path / "j.jsonl"
        campaign = family_campaign(
            "duality", {"n": [5], "density": [0.2], "seeds": 2}, store=store
        )
        campaign.run()
        code = (
            "from repro.engine.store import ResultStore\n"
            f"results = list(ResultStore({str(store)!r}).iter_results())\n"
            "assert len(results) == 2, results\n"
            "assert all(r.spec.adversary == 'gnp' for r in results)\n"
            "print('ok')\n"
        )
        src = str(pathlib.Path(repro.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
