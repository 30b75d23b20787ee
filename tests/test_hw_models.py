"""Tests for the hardware config (Table V) and SRAM cost model (Fig. 15)."""

import pytest

from repro.hw.config import BANDWIDTH_POINTS, AcceleratorConfig, MIB
from repro.hw.noc import (
    NocConfig,
    op_split_traffic_words,
    rank_split_traffic_words,
)
from repro.hw.sram_model import (
    all_structure_costs,
    buffet_cost,
    cache_cost,
    cache_tag_bits,
    chord_cost,
    chord_metadata_ratio,
    chord_table_bits,
    scratchpad_cost,
)


class TestConfig:
    def test_table_v_defaults(self):
        cfg = AcceleratorConfig()
        assert cfg.sram_bytes == 4 * MIB
        assert cfg.n_macs == 16384
        assert cfg.line_bytes == 16
        assert cfg.cache_associativity == 8
        assert cfg.clock_hz == 1e9
        assert cfg.chord_entries == 64
        assert cfg.chord_entry_bits == 512
        assert BANDWIDTH_POINTS == (250e9, 1000e9)

    def test_derived_geometry(self):
        cfg = AcceleratorConfig()
        assert cfg.n_lines == 262144
        assert cfg.n_sets == 32768
        assert cfg.chord_data_bytes + cfg.pipeline_buffer_bytes == cfg.sram_bytes

    def test_ridge_point(self):
        cfg = AcceleratorConfig()
        assert cfg.ridge_ops_per_byte == pytest.approx(16.384)
        # Fig. 16(a): at 250 GB/s the ridge moves to 65.536 ops/byte.
        slow = cfg.with_bandwidth(250e9)
        assert slow.ridge_ops_per_byte == pytest.approx(65.536)

    def test_variants(self):
        cfg = AcceleratorConfig()
        assert cfg.with_sram(MIB).sram_bytes == MIB
        assert cfg.with_bandwidth(1).dram_bandwidth_bytes_per_s == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(sram_bytes=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(line_bytes=17)
        with pytest.raises(ValueError):
            AcceleratorConfig(pipeline_fraction=1.5)
        for bandwidth in (0, -5e9):
            with pytest.raises(ValueError, match="bandwidth"):
                AcceleratorConfig(dram_bandwidth_bytes_per_s=bandwidth)


class TestSramModel:
    def test_fig15_area_endpoints(self):
        """Calibration check: the paper's 4MB numbers (±2%)."""
        cfg = AcceleratorConfig()
        assert buffet_cost(cfg).total_mm2 == pytest.approx(6.72, rel=0.02)
        assert cache_cost(cfg).total_mm2 == pytest.approx(9.87, rel=0.02)
        assert chord_cost(cfg).total_mm2 == pytest.approx(6.74, rel=0.02)
        assert cache_cost(cfg).metadata_mm2 == pytest.approx(1.85, rel=0.02)
        assert cache_cost(cfg).data_mm2 == pytest.approx(6.59, rel=0.02)

    def test_chord_metadata_tiny(self):
        cfg = AcceleratorConfig()
        assert chord_metadata_ratio(cfg) < 0.02  # paper: ~0.01x
        assert chord_table_bits(cfg) == 64 * 512

    def test_cache_energy_dominates(self):
        cfg = AcceleratorConfig()
        costs = all_structure_costs(cfg)
        assert costs["cache"].energy_pj_per_access > costs["chord"].energy_pj_per_access
        assert costs["cache"].energy_pj_per_access > costs["buffet"].energy_pj_per_access
        # Tag probes are a sizeable chunk of cache energy (Sec. VI-B).
        assert costs["cache"].energy_pj_per_access > 1.4 * costs["scratchpad"].energy_pj_per_access

    def test_area_scales_with_capacity(self):
        small = chord_cost(AcceleratorConfig(sram_bytes=1 * MIB))
        big = chord_cost(AcceleratorConfig(sram_bytes=16 * MIB))
        assert big.data_mm2 == pytest.approx(16 * small.data_mm2)

    def test_energy_scales_sublinearly(self):
        small = scratchpad_cost(AcceleratorConfig(sram_bytes=1 * MIB))
        big = scratchpad_cost(AcceleratorConfig(sram_bytes=16 * MIB))
        assert big.energy_pj_per_access == pytest.approx(4 * small.energy_pj_per_access)

    def test_tag_bits_geometry(self):
        cfg = AcceleratorConfig()
        # 40 - log2(32768) - log2(16) = 21 tag bits + 4 state per line.
        assert cache_tag_bits(cfg) == 262144 * 25


class TestNoc:
    def test_mesh_geometry(self):
        noc = NocConfig(n_nodes=16)
        assert noc.mesh_side == 4
        assert noc.broadcast_hops == 6
        assert noc.reduce_hops == 6

    def test_traffic_formulas(self):
        noc = NocConfig(n_nodes=16)
        assert op_split_traffic_words(1000, 16) == 16000
        assert rank_split_traffic_words(16, 16, noc) == 16 * 16 * 12

    def test_single_node(self):
        noc = NocConfig(n_nodes=1)
        assert noc.broadcast_hops == 1  # minimum one hop

    def test_invalid(self):
        with pytest.raises(ValueError):
            NocConfig(n_nodes=0)
