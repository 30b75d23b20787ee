"""The CI quality gates themselves: package-coverage verification
(``tools/check_coverage.py``) and the bench regression gate
(``tools/check_bench.py``), including the analytic-speedup floor.

The gates guard the repo; these tests guard the gates — a gate that
silently stops failing is worse than no gate at all, so each check is
exercised against synthetic reports on both sides of its threshold.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCoveragePackages:
    def _report(self, tmp_path, covered, omit=(), dead=()):
        files = {}
        for pkg in covered:
            if pkg in omit:
                continue
            files[f"src/repro/{pkg}/__init__.py"] = {
                "summary": {"covered_lines": 0 if pkg in dead else 5}}
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps({"files": files}))
        return str(path)

    def test_every_package_is_listed(self):
        packages = _tool("check_coverage").top_level_packages()
        # The subsystems this gate exists to protect must all be present.
        for pkg in ("analytic", "tuner", "service", "orchestrator",
                    "analysis", "sim", "chord", "score"):
            assert pkg in packages

    def test_complete_report_passes(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = self._report(tmp_path, cc.top_level_packages())
        assert cc.verify_packages_json(path) == 0
        assert "measured and exercised" in capsys.readouterr().out

    def test_missing_package_fails(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = self._report(tmp_path, cc.top_level_packages(),
                            omit=("analytic",))
        assert cc.verify_packages_json(path) == 1
        err = capsys.readouterr().err
        assert "src/repro/analytic/" in err and "missing" in err

    def test_unexercised_package_fails(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = self._report(tmp_path, cc.top_level_packages(),
                            dead=("analytic",))
        assert cc.verify_packages_json(path) == 1
        assert "no line" in capsys.readouterr().err

    def test_non_coverage_json_rejected(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"results": {}}))
        assert cc.verify_packages_json(str(path)) == 1
        assert "not a coverage.py JSON report" in capsys.readouterr().err

    def test_package_of_maps_files_to_packages(self):
        cc = _tool("check_coverage")
        assert cc.package_of(
            str(REPO_ROOT / "src/repro/analytic/compiler.py")) == "analytic"
        # Root modules (src/repro/cli.py) belong to no sub-package.
        assert cc.package_of(str(REPO_ROOT / "src/repro/cli.py")) is None
        assert cc.package_of("/somewhere/else/file.py") is None


class TestBenchGate:
    BASE = {
        "results": {
            "cache_lru": {"vector_accesses_per_s": 1e6,
                          "reference_accesses_per_s": 1e5,
                          "speedup": 10.0},
            "analytic_eval": {"analytic_evals_per_s": 1e5,
                              "simulated_evals_per_s": 100.0,
                              "analytic_over_simulated": 1000.0,
                              "batch_evals_per_s": 1e7,
                              "batch_over_pointwise": 100.0},
        }
    }

    def _fresh(self, **overrides):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["results"]["analytic_eval"].update(overrides)
        return fresh

    def test_healthy_report_passes(self):
        cb = _tool("check_bench")
        assert cb.compare(self.BASE, self._fresh(), 10.0, 1.5, 100.0) == []

    def test_analytic_speedup_floor_fails(self):
        cb = _tool("check_bench")
        problems = cb.compare(self.BASE,
                              self._fresh(analytic_over_simulated=40.0),
                              10.0, 1.5, 100.0)
        assert any("analytic_over_simulated" in p for p in problems)

    def test_missing_analytic_ratio_fails(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        del fresh["results"]["analytic_eval"]["analytic_over_simulated"]
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("analytic_over_simulated" in p for p in problems)

    def test_batch_speedup_floor_fails(self):
        cb = _tool("check_bench")
        problems = cb.compare(self.BASE,
                              self._fresh(batch_over_pointwise=20.0),
                              10.0, 1.5, 100.0)
        assert any("batch_over_pointwise" in p for p in problems)

    def test_missing_batch_ratio_fails(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        del fresh["results"]["analytic_eval"]["batch_over_pointwise"]
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("batch_over_pointwise" in p for p in problems)

    def test_rate_regression_still_caught(self):
        cb = _tool("check_bench")
        problems = cb.compare(self.BASE,
                              self._fresh(analytic_evals_per_s=1e3),
                              10.0, 1.5, 100.0)
        assert any("analytic_evals_per_s" in p for p in problems)

    def test_dropped_bench_still_caught(self):
        cb = _tool("check_bench")
        fresh = json.loads(json.dumps(self.BASE))
        del fresh["results"]["analytic_eval"]
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("missing from" in p for p in problems)

    def test_fresh_only_bench_fails_without_allow_new(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        fresh["results"]["brand_new"] = {"things_per_s": 1e6}
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("brand_new" in p and "--allow-new" in p
                   for p in problems)

    def test_allow_new_downgrades_fresh_only_bench_to_a_note(
            self, capsys):
        cb = _tool("check_bench")
        fresh = self._fresh()
        fresh["results"]["brand_new"] = {"things_per_s": 1e6}
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0,
                              allow_new=True)
        assert problems == []
        assert "brand_new" in capsys.readouterr().out

    def test_committed_baseline_carries_the_analytic_bench(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_kernels.json").read_text())
        entry = baseline["results"]["analytic_eval"]
        assert entry["analytic_over_simulated"] >= 100.0
        assert entry["analytic_evals_per_s"] > entry["simulated_evals_per_s"]
        assert entry["batch_over_pointwise"] >= 50.0
        assert entry["batch_points"] >= 100_000


    def test_committed_baseline_carries_the_real_trace_rungs(self):
        from repro.analysis.kernel_bench import REAL_TRACE_RUNGS

        baseline = json.loads(
            (REPO_ROOT / "BENCH_kernels.json").read_text())
        for key in REAL_TRACE_RUNGS:
            entry = baseline["results"][key]
            assert entry["accesses"] == 2_923_080  # gnn/cora at 4 MiB
            assert entry["accesses_per_s"] > 0


class TestAnalyticBench:
    def test_bench_analytic_eval_measures_both_paths(self):
        from repro.analysis.kernel_bench import bench_analytic_eval

        r = bench_analytic_eval(evals=2, sim_evals=2, batch_points=64)
        assert r["evals"] == 2
        assert r["analytic_evals_per_s"] > 0
        assert r["simulated_evals_per_s"] > 0
        assert r["batch_evals_per_s"] > 0
        # The whole point of the fast path (gated at 100x in CI; tested
        # looser here to keep this robust on loaded machines).
        assert r["analytic_over_simulated"] > 10

    def test_quick_bench_report_includes_analytic_eval(self):
        from repro.analysis.kernel_bench import render_bench

        report = {
            "quick": True,
            "results": {
                "chord_events": {"events_per_s": 1e6},
                "schedule_engine": {"ops_per_s": 1000.0, "seconds": 0.1},
                "cache_engine_g1": {"seconds": 0.5, "dram_bytes": 1e7},
                "analytic_eval": {"analytic_evals_per_s": 1e5,
                                  "simulated_evals_per_s": 100.0,
                                  "analytic_over_simulated": 1000.0,
                                  "batch_evals_per_s": 1e6,
                                  "batch_points": 1e5,
                                  "batch_over_pointwise": 60.0},
            },
        }
        out = render_bench(report)
        assert "analytic eval" in out and "1000x" in out


class TestReportDigest:
    REPORT = ("=== fig2: roofline ===\nrow 1.00x\n\n"
              "=== fig12: CG performance ===\nCELLO 3.10x\n\n")

    def _pin(self, tmp_path, text):
        rd = _tool("check_report_digest")
        report = tmp_path / "report.txt"
        report.write_text(text)
        digest = tmp_path / "digest.json"
        assert rd.main([str(report), "--digest", str(digest), "--write"]) == 0
        return rd, report, digest

    def test_unchanged_report_passes(self, tmp_path, capsys):
        rd, report, digest = self._pin(tmp_path, self.REPORT)
        assert rd.main([str(report), "--digest", str(digest)]) == 0
        assert "all 2 experiments match" in capsys.readouterr().out

    def test_a_moved_number_names_its_experiment(self, tmp_path, capsys):
        rd, report, digest = self._pin(tmp_path, self.REPORT)
        report.write_text(self.REPORT.replace("3.10x", "3.11x"))
        assert rd.main([str(report), "--digest", str(digest)]) == 1
        err = capsys.readouterr().err
        assert "fig12: rendered output changed" in err
        assert "fig2" not in err

    def test_missing_and_extra_experiments_fail(self, tmp_path, capsys):
        rd, report, digest = self._pin(tmp_path, self.REPORT)
        report.write_text(self.REPORT.replace("fig2:", "fig3:"))
        assert rd.main([str(report), "--digest", str(digest)]) == 1
        err = capsys.readouterr().err
        assert "fig2: missing from the report" in err
        assert "fig3: not in the committed digest" in err

    def test_unusable_input_is_rejected(self, tmp_path):
        rd = _tool("check_report_digest")
        for text in ("no sections at all\n",
                     "stray\n=== fig2: x ===\n",
                     "=== fig2: x ===\n=== fig2: x ===\n"):
            report = tmp_path / "bad.txt"
            report.write_text(text)
            assert rd.main([str(report)]) == 2

    def test_committed_digest_covers_every_experiment(self):
        """Adding or renaming an experiment must re-pin the digest."""
        from repro.cli import EXPERIMENTS

        rd = _tool("check_report_digest")
        pinned = json.loads(rd.DEFAULT_DIGEST.read_text())
        assert sorted(pinned) == sorted(EXPERIMENTS)


class TestCiWiring:
    """The workflow file must keep invoking the gates (a gate nobody
    calls protects nothing)."""

    def test_ci_runs_the_gates(self):
        ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        assert "--verify-packages coverage.json" in ci
        assert "--factor 10" in ci
        assert "--min-analytic-speedup 100" in ci
        assert "--min-batch-speedup 50" in ci
        assert "fidelity-smoke:" in ci
        assert "--fidelity hybrid" in ci
        assert "within 2% bound" in ci
        assert "fidelity: hybrid" in ci
        # cold into a fresh store, then warm over it: both must match
        assert 'repro all --cache-dir "$STORE"' in ci
        assert "tools/check_report_digest.py report.txt" in ci
        assert "tools/check_report_digest.py warm_report.txt" in ci

    def test_ci_runs_the_benchmark(self):
        """Every workload BENCHMARK.json declares runs in CI, and a run
        that exits non-zero or reports an incorrect answer fails it."""
        ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        assert "layerbench-smoke:" in ci
        job = ci[ci.index("layerbench-smoke:"):]
        job = job[:job.index("\n  service-smoke:")]
        assert "set -euo pipefail" in job
        for workload in ("smoke-cold", "fig12-cold", "warm"):
            assert workload in job
        assert ("layerbench/run.py --workload \"$W\" --seed 1 "
                "--seconds 8 --trace 0") in job
        assert 'sys.exit(0 if r["correct"] else 1)' in job

    def test_ci_runs_the_observability_smoke(self):
        ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        assert "metrics-smoke:" in ci
        assert "repro metrics" in ci or "-m repro metrics" in ci
        assert 'grep -q "store entries:" shard_metrics.txt' in ci
        # pool workers' phase timings reach a `serve --jobs 2` daemon
        assert 'grep -Eq "^ +schedule +p50 " status.txt' in ci
