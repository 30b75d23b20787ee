"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import DESCRIPTIONS, EXPERIMENTS, list_experiments, main


class TestCli:
    def test_every_experiment_described(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table2" in out
        assert "bench" in out

    def test_bench_writes_json(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.analysis import kernel_bench

        # Shrink the harness so the CLI test stays fast; the real bars run
        # in the CI bench-smoke job (tools/check_bench.py).
        def tiny_bench(quick=False):
            return {
                "schema": kernel_bench.BENCH_SCHEMA,
                "quick": True,
                "results": {
                    "cache_lru": kernel_bench.bench_cache_backends("lru", 20_000),
                    "chord_events": kernel_bench.bench_chord_events(8, 3),
                    "schedule_engine": kernel_bench.bench_schedule_engine(2),
                    "cache_engine_g1": kernel_bench.bench_cache_engine(1),
                    "analytic_eval": kernel_bench.bench_analytic_eval(
                        2, sim_evals=1, batch_points=64),
                },
            }

        monkeypatch.setattr(kernel_bench, "run_kernel_bench", tiny_bench)
        out_path = tmp_path / "BENCH_kernels.json"
        assert main(["bench", "--quick", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        lru = report["results"]["cache_lru"]
        assert lru["speedup"] > 1.0
        assert lru["vector_accesses_per_s"] > lru["reference_accesses_per_s"]
        assert report["results"]["analytic_eval"]["analytic_over_simulated"] > 1.0
        assert "Cache kernel backends" in capsys.readouterr().out

    def test_analytic_rung_reports_the_median_of_alternating_rounds(self):
        import statistics

        from repro.analysis import kernel_bench

        rung = kernel_bench.bench_analytic_eval(10, sim_evals=1,
                                                batch_points=64)
        assert rung["rounds"] == 5
        assert (rung["evals"], rung["sim_evals"]) == (10, 5)
        for ratio in ("analytic_over_simulated", "batch_over_pointwise"):
            per_round = rung[f"{ratio}_rounds"]
            assert len(per_round) == 5 and min(per_round) > 0
            assert rung[ratio] == statistics.median(per_round)

    def test_list_workloads(self, capsys):
        from repro.workloads.registry import all_workloads

        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in all_workloads():
            assert name in out
        for family in ("[cg]", "[xformer]", "[gmres]", "[mg]"):
            assert family in out

    def test_ext_experiment_registered(self):
        assert "ext" in EXPERIMENTS
        assert "ext" in DESCRIPTIONS

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig2"],
        ["sweep", "--workloads", "cg/fv1/N=1@it2", "--configs", "CELLO"],
        ["tune", "cg/fv1/N=1@it2"],
    ])
    def test_negative_jobs_is_refused(self, capsys, argv):
        """An out-of-range ``--jobs`` exits 2 naming the flag, as
        ``repro serve`` does, instead of running one worker."""
        assert main([*argv, "--no-cache", "--jobs", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "bad --jobs -5: must be at least 0 (0 = one worker per core)")
        assert captured.out == ""

    def test_run_light_experiment(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "42.6" in out

    def test_run_multiple_dedups(self, capsys):
        assert main(["table2", "table2"]) == 0
        out = capsys.readouterr().out
        assert out.count("=== table2") == 1

    def test_table_experiments_runnable(self, capsys):
        assert main(["table1", "table3", "fig15", "fig8"]) == 0
        out = capsys.readouterr().out
        for marker in ("Frontier", "CHORD", "buffet", "advantage"):
            assert marker in out

    def test_autotune_experiment_registered_and_wired(self, capsys, monkeypatch):
        assert "autotune" in EXPERIMENTS and "autotune" in DESCRIPTIONS
        # The real study runs the full families; check the CLI wiring with
        # a stub so the test stays milliseconds.
        from repro.experiments import tune_study

        monkeypatch.setattr(tune_study, "report",
                            lambda cfg=None, jobs=1: "stub-tune-report")
        assert main(["autotune", "--no-cache"]) == 0
        assert "stub-tune-report" in capsys.readouterr().out

    def test_ext_experiment_wired_through_cli(self, capsys, monkeypatch):
        from repro.experiments import ext_workloads

        calls = {}

        def stub_report(cfg=None, configs=None, jobs=1):
            calls["jobs"] = jobs
            return "stub-ext-report"

        monkeypatch.setattr(ext_workloads, "report", stub_report)
        assert main(["ext", "--no-cache", "--jobs", "3"]) == 0
        assert "stub-ext-report" in capsys.readouterr().out
        assert calls["jobs"] == 3

    def test_ext_mixed_with_unknown_experiment_errors(self, capsys):
        # An unknown sibling aborts the whole invocation before anything
        # heavy runs — 'ext' must not start.
        assert main(["ext", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "fig99" in err


class TestSweepCli:
    def test_unknown_config_rejected(self, capsys):
        assert main(["sweep", "--configs", "CELLO,Bogus", "--no-cache"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_cello_variant_configs_accepted(self, capsys):
        assert main([
            "sweep", "--workloads", "cg/fv1/N=1@it2",
            "--configs", "CELLO[riff=0],Flex+SRRIP", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "CELLO[riff=0]" in out and "Flex+SRRIP" in out

    def test_multi_knob_variant_survives_comma_split(self, capsys):
        # The variant grammar uses commas inside brackets; the config
        # list splitter must not cut through them.
        assert main([
            "sweep", "--workloads", "cg/fv1/N=1@it2",
            "--configs", "CELLO,CELLO[riff=0,retire=0]", "--no-cache",
        ]) == 0
        assert "CELLO[riff=0,retire=0]" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["sweep", "--workloads", "nope/xyz", "--no-cache"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_empty_match_rejected(self, capsys):
        assert main(["sweep", "--workloads", "", "--no-cache"]) == 2
        assert "matched no" in capsys.readouterr().err


class TestTuneCli:
    def test_tune_small_grid(self, capsys, tmp_path):
        out_json = tmp_path / "tune.json"
        assert main([
            "tune", "cg/fv1/N=16@it2", "--strategy", "grid",
            "--sram-mb", "4,1", "--entries", "64",
            "--objectives", "runtime,dram,area",
            "--json", str(out_json), "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto point(s)" in out
        assert "fixed CELLO" in out
        # The JSON artefact round-trips through the public loader.
        import json

        from repro.tuner import TuneResult

        data = json.loads(out_json.read_text())
        tr = TuneResult.from_dict(data[0])
        assert tr.workload == "cg/fv1/N=16@it2"
        assert tr.best.result.time_s <= tr.incumbent.result.time_s

    def test_unknown_workload_rejected(self, capsys):
        assert main(["tune", "rand/s=1/ops=bogus", "--no-cache"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_objective_rejected(self, capsys):
        assert main([
            "tune", "cg/fv1/N=1@it2", "--objectives", "latency", "--no-cache",
        ]) == 2
        assert "tune failed" in capsys.readouterr().err

    def test_invalid_space_rejected(self, capsys):
        assert main([
            "tune", "cg/fv1/N=1@it2", "--entries", "64,64", "--no-cache",
        ]) == 2
        assert "invalid tune space" in capsys.readouterr().err

    @pytest.mark.parametrize("entries", ["16.7,64.2", "0", "-64"])
    def test_non_integer_entries_rejected(self, capsys, entries):
        assert main([
            "tune", "cg/fv1/N=1@it2", "--entries", entries, "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "invalid tune space" in err
        assert "must be positive integers" in err

    def test_unknown_strategy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["tune", "cg/fv1/N=1@it2", "--strategy", "annealing"])


class _Captured(Exception):
    """Stops a command once the search it would run is captured."""


def strategy_of(strategy):
    """A search strategy as comparable data: its class and settings."""
    return type(strategy), vars(strategy)


class TestSubmitTuneMirrorsTune:
    """``repro submit --tune W`` asks the server for the search ``repro
    tune W`` runs: same space, objectives, strategy and fidelity, with
    the defaults and with every flag set."""

    WORKLOAD = "cg/fv1/N=1@it2"

    def tune_search(self, monkeypatch, flags):
        """What ``repro tune`` hands the tuner."""
        from repro import tuner

        def capture(workload, space, strategy, objectives, jobs, fidelity):
            raise _Captured(space, objectives, strategy_of(strategy),
                            fidelity)

        monkeypatch.setattr(tuner, "tune", capture)
        with pytest.raises(_Captured) as caught:
            main(["tune", self.WORKLOAD, "--no-cache", *flags])
        return caught.value.args

    def submit_search(self, monkeypatch, flags):
        """What the server searches for the request ``repro submit
        --tune`` sends, decoded as the server decodes it."""
        from repro import service
        from repro.hw.config import mib_to_bytes
        from repro.service.protocol import parse_tune_fields, tune_request
        from repro.tuner import TuneSpace, make_strategy
        from repro.tuner.pareto import DEFAULT_OBJECTIVES

        class FakeClient:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit_tune(self, workload, **kwargs):
                raise _Captured(tune_request(workload, **kwargs))

        monkeypatch.setattr(service, "ServiceClient", FakeClient)
        with pytest.raises(_Captured) as caught:
            main(["submit", "--tune", self.WORKLOAD, *flags])
        fields = parse_tune_fields(caught.value.args[0])
        space = TuneSpace(
            chord_entries=tuple(fields["entries"]),
            sram_bytes=tuple(mib_to_bytes(m) for m in fields["sram_mb"]),
            cache_policies=("LRU", "BRRIP", "SRRIP")
            if fields["include_baselines"] else (),
        )
        strategy = make_strategy(fields["strategy"], budget=fields["budget"],
                                 seed=fields["seed"])
        return (space, tuple(fields["objectives"] or DEFAULT_OBJECTIVES),
                strategy_of(strategy), fields["fidelity"])

    @pytest.mark.parametrize("flags", [
        [],
        ["--sram-mb", "2,8", "--entries", "32", "--objectives",
         "dram,runtime", "--include-baselines", "--strategy", "random",
         "--budget", "5", "--seed", "3", "--fidelity", "hybrid"],
    ])
    def test_same_search(self, monkeypatch, flags):
        space, objectives, strategy, fidelity = self.tune_search(
            monkeypatch, flags)
        assert self.submit_search(monkeypatch, flags) == (
            space, objectives, strategy, fidelity)

    @pytest.mark.parametrize("entries", ["16.7,64.2", "0"])
    def test_non_integer_entries_rejected(self, monkeypatch, capsys,
                                          entries):
        """Refused before any request is sent, as the server would."""
        from repro import service

        monkeypatch.setattr(service, "ServiceClient", None)
        assert main(["submit", "--tune", self.WORKLOAD,
                     "--entries", entries]) == 2
        err = capsys.readouterr().err
        assert "invalid tune space" in err
        assert "must be positive integers" in err
