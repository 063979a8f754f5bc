"""CLI tests (argument parsing and end-to-end subcommand runs)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 9 and args.k == 3 and args.groups == 3

    def test_topology_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--topology", "torus"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "--store", "j.jsonl", "--steal"],
            ["campaign", "run", "--store", "j.jsonl", "--device", "numpy"],
            ["campaign", "serve", "--device", "numpy"],
            ["sweep", "--steal"],
            ["campaign", "run", "--store", "j.jsonl", "--pack-widths"],
            ["sweep", "--pack-widths"],
        ],
        ids=["run-steal", "run-device", "serve-device", "family-steal",
             "run-pack-widths", "family-pack-widths"],
    )
    def test_retired_engine_flags_are_rejected(self, argv, capsys):
        # Work stealing, the --device array namespaces and the
        # cross-n packing flag (the planner packs on its own now) are
        # gone: an old command line fails loudly instead of running
        # without them.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = next(
            a for a in argv if a in ("--steal", "--device", "--pack-widths")
        )
        assert "unrecognized arguments" in err and flag in err


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "(a) G^∩2" in out
        assert "(h) G^6_p6" in out

    def test_run_success(self, capsys):
        code = main(["run", "-n", "6", "-k", "2", "--groups", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k-agreement" in out
        assert "root components" in out

    def test_run_star_topology(self, capsys):
        assert main(["run", "-n", "6", "-k", "2", "--groups", "2",
                     "--topology", "star"]) == 0

    def test_theorem2(self, capsys):
        assert main(["theorem2", "-n", "6", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "confirms Theorem 2" in out
        assert "yes" in out

    def test_check_holds(self, capsys):
        assert main(["check", "-n", "9", "-k", "3", "--groups", "3"]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        assert "tightest k" in out

    def test_check_violated(self, capsys):
        # 4 groups cannot satisfy Psrcs(2) when built as 4 root components
        code = main(["check", "-n", "8", "-k", "2", "--groups", "4"])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(["sweep", "-n", "6", "-k", "2", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "within their k bound" in out

    def test_ablation(self, capsys):
        code = main(["ablation", "-n", "6", "-k", "2", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper (window=n, prune, PT-min)" in out
        assert "no pruning" in out

    def test_duality(self, capsys):
        code = main(["duality", "-n", "6", "--density", "0.2", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Thm1 violations" in out

    def test_eventual(self, capsys):
        code = main(["eventual", "-n", "6", "--bad-rounds", "0", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bad_prefix_rounds" in out

    def test_family_subcommands_take_engine_flags(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        code = main(["sweep", "-n", "5", "-k", "2", "--seeds", "1",
                     "--jobs", "2", "--store", store])
        assert code == 0
        assert "within their k bound" in capsys.readouterr().out
        # Resume: the journaled records satisfy the second invocation.
        assert main(["sweep", "-n", "5", "-k", "2", "--seeds", "1",
                     "--store", store]) == 0

    def test_family_backend_rejected_for_custom_runner(self, capsys):
        code = main(["ablation", "-n", "5", "-k", "2", "--seeds", "1",
                     "--backend", "vectorized"])
        assert code == 2
        assert "does not support backend" in capsys.readouterr().out


class TestCampaignCommands:
    GRID = ["-n", "5", "6", "-k", "2", "--seeds", "2", "--noise", "0.1"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_run_status_report(self, capsys, tmp_path):
        store = str(tmp_path / "journal.jsonl")
        summary = str(tmp_path / "summary.jsonl")
        code = main(
            ["campaign", "run", "--store", store, "--jobs", "2",
             "--summary", summary] + self.GRID
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executed now" in out
        assert "canonical summary" in out

        # Second run resumes: nothing left to execute.
        assert main(["campaign", "run", "--store", store] + self.GRID) == 0
        out = capsys.readouterr().out
        assert "already complete (skipped)  8" in out

        assert main(["campaign", "status", "--store", store] + self.GRID) == 0
        out = capsys.readouterr().out
        assert "complete              yes" in out

        code = main(
            ["campaign", "report", "--store", store, "--limit", "3"]
            + self.GRID
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Psrcs(k)" in out
        assert "0 violated their k bound" in out

    def test_status_on_empty_store_fails(self, capsys, tmp_path):
        store = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "status", "--store", store] + self.GRID) == 1
        assert "missing               8" in capsys.readouterr().out

    def test_report_on_partial_store_fails(self, capsys, tmp_path):
        # A half-executed grid must not report green even when every
        # stored scenario is clean.
        store = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "run", "--store", store] + self.GRID) == 0
        capsys.readouterr()
        bigger = ["-n", "5", "6", "-k", "2", "--seeds", "3",
                  "--noise", "0.1"]
        assert main(
            ["campaign", "report", "--store", store] + bigger
        ) == 1
        assert "/12 scenarios stored" in capsys.readouterr().out

    def test_status_on_error_records_fails(self, capsys, tmp_path):
        # Errors are terminal (resume won't retry), so a fully journaled
        # but failed campaign must not exit green — mirrors `run`.
        from repro.engine import ResultStore, agreement_grid
        from repro.engine.executor import ScenarioResult

        store = ResultStore(tmp_path / "journal.jsonl")
        grid = agreement_grid(
            ns=[5, 6], ks=[2], seeds=range(2), noises=[0.1]
        )
        for spec in grid.expand():
            store.append(ScenarioResult.failure(spec, "boom"))
        path = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "status", "--store", path] + self.GRID) == 1
        out = capsys.readouterr().out
        assert "errors                8" in out
        assert "complete              yes" in out

    def test_grid_json_override(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('{"axes": {"n": [5], "seed": [0, 1]}}')
        store = str(tmp_path / "journal.jsonl")
        code = main(
            ["campaign", "run", "--store", store,
             "--grid-json", str(grid_file)]
        )
        assert code == 0
        assert "scenarios in grid           2" in capsys.readouterr().out

    def test_empty_grid_is_nothing_to_do_not_green(self, capsys, tmp_path):
        # -k 7 -n 5 prunes every scenario (k < n constraint): the store
        # is empty but consistent — that must exit 2 ("nothing to do"),
        # distinguishable from both success (0) and a half-executed
        # grid (1).
        store = str(tmp_path / "journal.jsonl")
        empty = ["-n", "5", "-k", "7", "--seeds", "1"]
        assert main(["campaign", "status", "--store", store] + empty) == 2
        assert "nothing-to-do" in capsys.readouterr().out
        assert main(["campaign", "report", "--store", store] + empty) == 2
        assert "nothing-to-do" in capsys.readouterr().out

    def test_report_says_half_executed(self, capsys, tmp_path):
        store = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "run", "--store", store] + self.GRID) == 0
        capsys.readouterr()
        bigger = ["-n", "5", "6", "-k", "2", "--seeds", "3",
                  "--noise", "0.1"]
        assert main(["campaign", "report", "--store", store] + bigger) == 1
        out = capsys.readouterr().out
        assert "half-executed grid" in out


class TestCampaignFamilies:
    def test_run_and_report_family(self, capsys, tmp_path):
        store = str(tmp_path / "duality.jsonl")
        code = main(
            ["campaign", "run", "--store", store, "--family", "duality",
             "-n", "6", "--density", "0.2", "--seeds", "2", "--jobs", "2"]
        )
        assert code == 0
        assert "state: ok" in capsys.readouterr().out

        code = main(
            ["campaign", "report", "--store", store, "--family", "duality",
             "-n", "6", "--density", "0.2", "--seeds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "family duality" in out

    def test_report_aggregate_family(self, capsys, tmp_path):
        store = str(tmp_path / "duality.jsonl")
        args = ["--store", store, "--family", "duality",
                "-n", "6", "--density", "0.2", "--seeds", "2"]
        assert main(["campaign", "run"] + args) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--aggregate"] + args) == 0
        out = capsys.readouterr().out
        assert "mean rc" in out and "Thm1 violations" in out

    def test_report_aggregate_generic_percentiles(self, capsys, tmp_path):
        # Without a family aggregator the store-native latency rollup is
        # printed — the same percentile table distributions.py builds.
        store = str(tmp_path / "journal.jsonl")
        grid = ["-n", "6", "-k", "2", "--seeds", "3", "--noise", "0.1"]
        assert main(["campaign", "run", "--store", store] + grid) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "report", "--aggregate", "--store", store] + grid
        ) == 0
        out = capsys.readouterr().out
        assert "p50_decide" in out and "bound_viol" in out

    def test_unknown_family_exits_2(self, capsys, tmp_path):
        code = main(
            ["campaign", "run", "--store", str(tmp_path / "j.jsonl"),
             "--family", "bogus"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "unknown experiment family" in out
        assert not out.startswith('"')  # no KeyError repr-quoting

    def test_aggregate_on_undecided_store_is_red_not_a_crash(
        self, capsys, tmp_path
    ):
        # max_rounds=2 cuts every run before any decision: the latency
        # rollup has nothing to summarize, which must exit 1 with a
        # message, not traceback.
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            '{"axes": {"n": [6], "seed": [0, 1], "max_rounds": [2]}}'
        )
        store = str(tmp_path / "journal.jsonl")
        flags = ["--store", store, "--grid-json", str(grid_file)]
        assert main(["campaign", "run"] + flags) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--aggregate"] + flags) == 1
        assert "cannot aggregate" in capsys.readouterr().out

    def test_family_figure1_through_campaign(self, capsys, tmp_path):
        store = str(tmp_path / "fig1.jsonl")
        assert main(
            ["campaign", "run", "--store", store, "--family", "figure1"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "report", "--store", store, "--family", "figure1"]
        ) == 0
        assert "confirms" in capsys.readouterr().out
