"""Tests for the experiment modules: each must run and produce the paper's
qualitative rows/series (small parameters keep them fast)."""

import pytest

from repro.experiments import (
    fig02_roofline,
    fig08_multinode,
    fig12_cg_performance,
    fig13_gnn_bicgstab,
    fig14_energy,
    fig15_area_energy,
    fig16a_resnet,
    fig16b_sram_sweep,
    fig16c_prelude_only,
    sec6b_searchspace,
    table01_hpcg,
    table02_schedulers,
    table03_buffers,
    tune_study,
)
from repro.hw.config import AcceleratorConfig
from repro.workloads.matrices import FV1
from repro.workloads.registry import cg_workload

CFG = AcceleratorConfig()


class TestFig02:
    def test_rows(self):
        rows = fig02_roofline.run(CFG)
        regular, skewed = rows
        assert regular.macs == skewed.macs
        assert not regular.memory_bound
        assert skewed.memory_bound
        assert regular.intensity_ops_per_byte == pytest.approx(42.66, abs=0.01)
        assert skewed.intensity_ops_per_byte == pytest.approx(2.0, rel=0.01)

    def test_report(self):
        assert "memory bound" in fig02_roofline.report(CFG)


class TestTable01:
    def test_prediction_brackets_observed_band(self):
        gpu_like = table01_hpcg.predicted_peak_fraction(
            machine_balance_ops_per_byte=100.0
        )
        cpu_like = table01_hpcg.predicted_peak_fraction(
            machine_balance_ops_per_byte=3.4
        )
        # Observed HPCG fractions (0.3%..3%) must lie between the two
        # memory-bound limits.
        assert gpu_like < 0.003
        assert cpu_like > 0.01
        assert gpu_like < cpu_like

    def test_report_contains_systems(self):
        rep = table01_hpcg.report()
        for name in ("Frontier", "Fugaku", "Lumi"):
            assert name in rep


class TestTables0203:
    def test_scheduler_checks_all_pass(self):
        assert all(table02_schedulers.verify().values())

    def test_buffer_checks_all_pass(self):
        assert all(table03_buffers.verify().values())


class TestFig12:
    def test_small_panel_ordering(self):
        panels = fig12_cg_performance.run(
            CFG,
            configs=("Flexagon", "FLAT", "CELLO"),
            bandwidths=(1000e9,),
            datasets=(FV1,),
            n_values=(16,),
            iterations=2,
        )
        assert len(panels) == 1
        p = panels[0]
        assert p.speedup_of("CELLO") > 1.5
        assert p.speedup_of("FLAT") == pytest.approx(1.0)

    def test_geomean_speedup_substantial(self):
        panels = fig12_cg_performance.run(
            CFG,
            configs=("Flexagon", "CELLO"),
            bandwidths=(1000e9,),
            datasets=(FV1,),
            n_values=(1, 16),
            iterations=2,
        )
        gm = fig12_cg_performance.cello_geomean_speedup(panels)
        assert gm > 2.0

    def test_report_states_the_geomean(self):
        configs = ("Flexagon", "CELLO")
        text = fig12_cg_performance.report(CFG, configs=configs, iterations=2)
        panels = fig12_cg_performance.run(CFG, configs=configs, iterations=2)
        gm = fig12_cg_performance.cello_geomean_speedup(panels)
        assert f"CELLO geomean speedup over Flexagon: {gm:.2f}x" in text


class TestFig13:
    def test_gnn_parity(self):
        panels = fig13_gnn_bicgstab.run(CFG, configs=("Flexagon", "FLAT", "CELLO"))
        gnn = [p for p in panels if p.family == "gnn"]
        assert len(gnn) == 2
        for p in gnn:
            flat = p.results["FLAT"].dram_bytes
            cello = p.results["CELLO"].dram_bytes
            assert cello <= flat

    def test_report_states_gnn_parity(self):
        configs = ("Flexagon", "FLAT", "CELLO")
        text = fig13_gnn_bicgstab.report(CFG, configs=configs)
        for p in fig13_gnn_bicgstab.run(CFG, configs=configs):
            if p.family == "gnn":
                ratio = (p.results["CELLO"].throughput_gmacs
                         / p.results["FLAT"].throughput_gmacs)
                assert f"{p.workload}: CELLO/FLAT = {ratio:.2f}" in text


class TestFig14:
    def test_cello_lowest_everywhere(self):
        rows = fig14_energy.run(CFG, configs=("Flexagon", "FLAT", "CELLO"))
        for r in rows:
            assert r.relative["CELLO"] <= r.relative["FLAT"] + 1e-9
            assert r.relative["Flexagon"] == pytest.approx(1.0)

    def test_reduction_range_positive(self):
        rows = fig14_energy.run(CFG, configs=("Flexagon", "CELLO"))
        lo, hi = fig14_energy.cello_reduction_range(rows)
        assert 0 < lo <= hi < 100

    def test_report_states_the_reduction_range(self):
        configs = ("Flexagon", "CELLO")
        text = fig14_energy.report(CFG, configs=configs)
        lo, hi = fig14_energy.cello_reduction_range(
            fig14_energy.run(CFG, configs=configs))
        assert f"CELLO off-chip energy reduction: {lo:.0f}% .. {hi:.0f}%" in text


class TestFig15:
    def test_costs(self):
        costs = fig15_area_energy.run(CFG)
        assert costs["cache"].total_mm2 > costs["chord"].total_mm2
        assert "0.01" in fig15_area_energy.report(CFG) or "0.00" in fig15_area_energy.report(CFG)


class TestFig16:
    def test_resnet_panels(self):
        panels = fig16a_resnet.run(CFG, configs=("Flexagon", "FLAT", "SET", "CELLO"))
        assert len(panels) == 2
        fast = panels[1] if panels[1].bandwidth > panels[0].bandwidth else panels[0]
        # At 1 TB/s all pipelined configs tie (compute bound).
        assert fast.results["SET"].time_s == pytest.approx(fast.results["CELLO"].time_s)

    def test_resnet_report_states_set_equals_cello(self):
        text = fig16a_resnet.report(
            CFG, configs=("Flexagon", "FLAT", "SET", "CELLO"))
        assert "SET/CELLO traffic ratio: 1.000" in text

    def test_sram_sweep_monotone(self):
        points = fig16b_sram_sweep.run(CFG, iterations=3)
        by_n = {}
        for p in points:
            by_n.setdefault(p.n, []).append(p.result.dram_bytes)
        for n, series in by_n.items():
            assert series == sorted(series, reverse=True)

    def test_prelude_only_panels(self):
        panels = fig16c_prelude_only.run(CFG, iterations=3)
        for p in panels:
            pre = p.results["PRELUDE-only"].dram_bytes
            assert p.results["CELLO"].dram_bytes <= pre
            assert pre <= p.results["Flexagon"].dram_bytes
        # Closer to CELLO at N=1 than at N=16.
        pos = {p.n: p.gap_position() for p in panels}
        assert pos[1] > pos[16]


class TestSec6b:
    def test_orders_of_magnitude(self):
        rep = sec6b_searchspace.run(CFG, iterations=2)
        assert rep.log10_scratchpad > rep.log10_op_by_op > 5
        assert rep.chord_points < 10 ** 3

    def test_report(self):
        assert "CHORD" in sec6b_searchspace.report(CFG)


class TestFig08:
    def test_rank_split_always_wins(self):
        for c in fig08_multinode.run(n=16, n_nodes=16):
            assert c.advantage > 10

    def test_report(self):
        assert "advantage" in fig08_multinode.report()


class TestTuneStudy:
    #: Small stand-ins: one Table VI family, one extension family.
    WORKLOADS = ("cg/fv1/N=16@it2", "gmres/fv1/m=3/N=1")
    SRAMS = (1024 * 1024, 4 * 1024 * 1024)

    def test_searched_best_never_loses_to_fixed_cello(self):
        results = tune_study.run(CFG, workloads=self.WORKLOADS,
                                 srams=self.SRAMS)
        assert set(results) == {
            (w, s) for w in self.WORKLOADS for s in self.SRAMS
        }
        for tr in results.values():
            assert tr.best.result.time_s <= tr.incumbent.result.time_s
            assert tr.speedup_over_incumbent() >= 1.0
            assert len(tr.evaluations) == len(tune_study.study_space(1))

    def test_report_renders_comparison_and_example_front(self):
        text = tune_study.report(CFG, workloads=self.WORKLOADS,
                                 srams=self.SRAMS)
        assert "searched best vs the fixed CELLO point" in text
        assert "zero re-simulations" in text
        assert "Tuned " in text  # the worked-example frontier
        for w in self.WORKLOADS:
            assert w in text
