"""The differential harness pinning the analytic model to the simulator.

This is the contract that makes ``repro tune --fidelity hybrid`` and the
service's ``predict`` op trustworthy: for every workload family, every
analytically supported Table IV config, and SRAM capacities spanning the
no-pressure and pressured regimes, the closed-form prediction must agree
with the exact schedule engine —

* **exactly** (byte-for-byte, reads/writes/on-chip/time) in the
  streaming and closed-form regimes, where the model is a pure sum of
  per-tensor terms;
* within the advertised **2% relative error bound** in the capacity
  recurrence regime (and in practice exactly there too — the golden
  corpus pins byte-exactness for pressured points, so any drift shows up
  as a hard failure, not a silent widening toward the bound).

On top of the fixed grid: hypothesis property tests over random einsum
DAGs, metamorphic laws (more SRAM never means more predicted traffic;
oracle traffic is linear in the free iteration rank; not charging
swizzle never increases traffic), a golden regression corpus for the
Table VI families, the hybrid-vs-exact Pareto agreement check, and a
CLI ``--fidelity`` smoke test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import (
    CLOSED_FORM,
    RECURRENCE,
    STREAMING,
    AnalyticUnsupported,
    clear_model_cache,
    model_cache_size,
    model_for,
    predict_workload_config,
    supports_config,
)
from repro.baselines import runner
from repro.baselines.configs import run_config
from repro.hw.config import KIB, MIB, AcceleratorConfig
from repro.tuner import TuneSpace, dominates, make_strategy, tune
from repro.workloads.registry import random_dag_workload, resolve_workload

#: Relative DRAM error the model advertises for capacity-dependent
#: tensors (docs/analytic.md); streaming/closed-form must be exact.
ERROR_BOUND = 0.02

#: One representative per workload family (Table VI coverage).
WORKLOADS = (
    "cg/fv1/N=1",
    "bicgstab/fv1/N=1",
    "gnn/cora",
    "resnet/conv3_x",
    "xformer/s=512/d=512",
    "gmres/fv1/m=8/N=1",
    "mg/fv1/N=1",
)

#: Every analytically supported Table IV row, including the CELLO
#: engine-knob ablations (the hybrid tuner's search axes).
CONFIGS = (
    "Flexagon",
    "FLAT",
    "SET",
    "PRELUDE-only",
    "CELLO",
    "CELLO[riff=0]",
    "CELLO[retire=0]",
    "CELLO[riff=0,retire=0,swz=0]",
)

#: Capacities spanning heavy pressure (1 MiB), the paper point (4 MiB)
#: and everything-fits (16 MiB).
SRAM_MB = (1, 4, 16)


def _simulate(workload, config, cfg):
    return run_config(config, workload.build(), cfg,
                      workload_name=workload.name)


def _assert_agreement(workload, config, cfg):
    evaluation = predict_workload_config(workload, config, cfg)
    simulated = _simulate(workload, config, cfg)
    predicted = evaluation.result
    where = f"{workload.name} / {config} / {cfg.sram_bytes // MIB} MiB"

    # The 2% bound holds in every regime — asserted first so a drift in
    # the recurrence fails with the contract violation, not a byte diff.
    rel = (abs(predicted.dram_bytes - simulated.dram_bytes)
           / max(simulated.dram_bytes, 1))
    assert rel <= ERROR_BOUND, (
        f"{where}: predicted {predicted.dram_bytes} vs simulated "
        f"{simulated.dram_bytes} ({rel:.3%} > {ERROR_BOUND:.0%} bound)")

    if evaluation.regime in (STREAMING, CLOSED_FORM):
        # No capacity-dependent tensor in play: agreement must be exact.
        assert predicted.dram_read_bytes == simulated.dram_read_bytes, where
        assert predicted.dram_write_bytes == simulated.dram_write_bytes, where
    # Schedule-derived quantities are capacity-independent: exact always.
    assert predicted.onchip_accesses == simulated.onchip_accesses, where
    assert predicted.total_macs == simulated.total_macs, where
    return evaluation, simulated


class TestDifferential:
    """The headline grid: 7 families × 8 configs × 3 capacities."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_family_against_simulator(self, name):
        workload = resolve_workload(name)
        regimes = set()
        for config in CONFIGS:
            for mb in SRAM_MB:
                cfg = AcceleratorConfig(sram_bytes=mb * MIB)
                evaluation, _ = _assert_agreement(workload, config, cfg)
                regimes.add(evaluation.regime)
        # The grid must exercise both the oracle and the engine paths.
        assert STREAMING in regimes
        assert CLOSED_FORM in regimes or RECURRENCE in regimes

    def test_recurrence_regime_is_byte_exact_today(self):
        """Stronger than the advertised bound: the prefix recurrence is
        event-exact against ChordBuffer.  Pin that on pressured points so
        a regression shows as a failure here, not as silent error growth
        toward the 2% bound."""
        cfg = AcceleratorConfig(sram_bytes=1 * MIB)
        for name in ("gmres/fv1/m=8/N=1", "bicgstab/fv1/N=1", "mg/fv1/N=1"):
            workload = resolve_workload(name)
            evaluation = predict_workload_config(workload, "CELLO", cfg)
            assert evaluation.regime == RECURRENCE
            simulated = _simulate(workload, "CELLO", cfg)
            assert evaluation.result.dram_read_bytes \
                == simulated.dram_read_bytes
            assert evaluation.result.dram_write_bytes \
                == simulated.dram_write_bytes

    def test_reuse_classes_are_reported(self):
        workload = resolve_workload("cg/fv1/N=1")
        evaluation = predict_workload_config(
            workload, "CELLO", AcceleratorConfig())
        known = {"fused", "streaming", "input", "sequential", "pipelineable",
                 "delayed-hold", "delayed-writeback"}
        assert evaluation.classes
        assert set(evaluation.classes.values()) <= known

    def test_detail_attribution_sums_to_totals(self):
        cfg = AcceleratorConfig(sram_bytes=1 * MIB)
        workload = resolve_workload("gmres/fv1/m=8/N=1")
        evaluation = predict_workload_config(workload, "CELLO", cfg,
                                             detail=True)
        read = sum(v["read"] for v in evaluation.per_tensor.values())
        write = sum(v["write"] for v in evaluation.per_tensor.values())
        assert read == evaluation.result.dram_read_bytes
        assert write == evaluation.result.dram_write_bytes

    def test_unsupported_configs_raise(self):
        workload = resolve_workload("cg/fv1/N=1")
        for config in ("Flex+LRU", "Flex+BRRIP", "Flex+SRRIP"):
            assert not supports_config(config)
            with pytest.raises(AnalyticUnsupported):
                predict_workload_config(workload, config,
                                        AcceleratorConfig())
        with pytest.raises(KeyError):
            predict_workload_config(workload, "NotAConfig",
                                    AcceleratorConfig())


class TestRandomDags:
    """Property tests: the differential contract on arbitrary programs."""

    @given(seed=st.integers(0, 10_000), n_ops=st.integers(2, 14),
           fanout=st.integers(0, 4), skew=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_random_dag_differential(self, seed, n_ops, fanout, skew):
        workload = random_dag_workload(seed, n_ops=n_ops, fanout=fanout,
                                       skew=skew)
        # Small SRAM so random programs actually contend for capacity.
        cfg = AcceleratorConfig(sram_bytes=256 * KIB)
        for config in ("CELLO", "CELLO[riff=0]", "PRELUDE-only", "Flexagon"):
            _assert_agreement(workload, config, cfg)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_dag_pressured_points_stay_exact(self, seed):
        workload = random_dag_workload(seed, n_ops=16, fanout=4, skew=3)
        cfg = AcceleratorConfig(sram_bytes=128 * KIB)
        evaluation = predict_workload_config(workload, "CELLO", cfg)
        simulated = _simulate(workload, "CELLO", cfg)
        assert evaluation.result.dram_read_bytes == simulated.dram_read_bytes
        assert evaluation.result.dram_write_bytes \
            == simulated.dram_write_bytes


class TestMetamorphic:
    """Laws the model must satisfy without consulting the simulator."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_more_sram_never_increases_predicted_traffic(self, name):
        workload = resolve_workload(name)
        previous = None
        for mb in (1, 2, 4, 8, 16):
            cfg = AcceleratorConfig(sram_bytes=mb * MIB)
            dram = predict_workload_config(workload, "CELLO",
                                           cfg).result.dram_bytes
            if previous is not None:
                assert dram <= previous, (
                    f"{name}: doubling SRAM to {mb} MiB raised predicted "
                    f"traffic {previous} -> {dram}")
            previous = dram

    def test_oracle_traffic_linear_in_free_iteration_rank(self):
        """Scaling the free loop rank scales streaming traffic linearly:
        the oracle re-stages every operand per op, so k iterations cost
        exactly k × one iteration."""
        cfg = AcceleratorConfig()
        for pattern in ("cg/fv1/N=1@it{k}", "gmres/fv1/m=8/N=1@rs{k}",
                        "mg/fv1/N=1@cyc{k}"):
            base = predict_workload_config(
                resolve_workload(pattern.format(k=1)), "Flexagon",
                cfg).result.dram_bytes
            for k in (2, 3, 4):
                scaled = predict_workload_config(
                    resolve_workload(pattern.format(k=k)), "Flexagon",
                    cfg).result.dram_bytes
                assert scaled == k * base, (pattern, k)

    def test_not_charging_swizzle_never_increases_traffic(self):
        cfg = AcceleratorConfig(sram_bytes=1 * MIB)
        for name in ("cg/fv1/N=16", "xformer/s=512/d=512"):
            workload = resolve_workload(name)
            on = predict_workload_config(workload, "CELLO", cfg).result
            off = predict_workload_config(workload, "CELLO[swz=0]",
                                          cfg).result
            assert off.dram_bytes <= on.dram_bytes


#: Golden regression corpus: (workload, config, SRAM MiB) -> exact DRAM
#: (read, write) bytes, produced by the schedule engine at this revision.
#: Both the simulator and the analytic model must keep reproducing these
#: numbers — the corpus is what turns "they agree" into "neither moved".
GOLDEN_TRAFFIC = (
    ("cg/fv1/N=1", "Flexagon", 4, 11047200, 1536800),
    ("cg/fv1/N=1", "CELLO", 4, 835784, 76832),
    ("cg/fv1/N=1", "CELLO", 1, 835784, 76832),
    ("bicgstab/fv1/N=1", "Flexagon", 4, 21325680, 2305080),
    ("bicgstab/fv1/N=1", "CELLO", 4, 912612, 76832),
    ("bicgstab/fv1/N=1", "CELLO", 1, 1214328, 763428),
    ("gnn/cora", "Flexagon", 4, 31171184, 15598080),
    ("gnn/cora", "CELLO", 4, 15648928, 75824),
    ("gnn/cora", "CELLO", 1, 15648928, 75824),
    ("resnet/conv3_x", "Flexagon", 4, 4694016, 2809856),
    ("resnet/conv3_x", "CELLO", 4, 1884160, 802816),
    ("resnet/conv3_x", "CELLO", 1, 1884160, 802816),
    ("xformer/s=512/d=512", "Flexagon", 4, 13632512, 6030336),
    ("xformer/s=512/d=512", "CELLO", 4, 6029312, 1048576),
    ("xformer/s=512/d=512", "CELLO", 1, 6029312, 1179648),
    ("gmres/fv1/m=8/N=1", "Flexagon", 4, 21344912, 1460168),
    ("gmres/fv1/m=8/N=1", "CELLO", 4, 797364, 38416),
    ("gmres/fv1/m=8/N=1", "CELLO", 1, 1493024, 566456),
    ("mg/fv1/N=1", "Flexagon", 4, 9774528, 998816),
    ("mg/fv1/N=1", "CELLO", 4, 1179192, 38416),
    ("mg/fv1/N=1", "CELLO", 1, 1484012, 235212),
)


class TestGoldenCorpus:
    @pytest.mark.parametrize("name,config,mb,read,write", GOLDEN_TRAFFIC)
    def test_analytic_matches_golden(self, name, config, mb, read, write):
        cfg = AcceleratorConfig(sram_bytes=mb * MIB)
        result = predict_workload_config(
            resolve_workload(name), config, cfg).result
        assert (result.dram_read_bytes, result.dram_write_bytes) \
            == (read, write)

    @pytest.mark.parametrize(
        "name,config,mb,read,write",
        [g for g in GOLDEN_TRAFFIC if g[0] == "gmres/fv1/m=8/N=1"])
    def test_simulator_matches_golden(self, name, config, mb, read, write):
        """One family simulated end to end against the pinned numbers, so
        a simultaneous drift of model *and* engine cannot slip through
        the agreement checks unnoticed."""
        cfg = AcceleratorConfig(sram_bytes=mb * MIB)
        result = _simulate(resolve_workload(name), config, cfg)
        assert (result.dram_read_bytes, result.dram_write_bytes) \
            == (read, write)


class TestModelCache:
    def test_cello_variants_share_one_compiled_model(self):
        clear_model_cache()
        workload = resolve_workload("cg/fv1/N=1")
        cfg = AcceleratorConfig()
        for config in ("CELLO", "CELLO[riff=0]", "CELLO[retire=0]",
                       "CELLO[riff=0,retire=0,swz=0]"):
            model_for(workload, config, cfg)
        assert model_cache_size() == 1
        # Bandwidth and index-table entries do not shape the schedule
        # either; only the SRAM capacity forces a recompile.
        import dataclasses

        model_for(workload, "CELLO",
                  dataclasses.replace(cfg, chord_entries=16))
        model_for(workload, "CELLO", dataclasses.replace(
            cfg, dram_bandwidth_bytes_per_s=cfg.dram_bandwidth_bytes_per_s / 2))
        assert model_cache_size() == 1
        model_for(workload, "CELLO", cfg.with_sram(1 * MIB))
        assert model_cache_size() == 2
        clear_model_cache()


class TestHybridTuner:
    def _space(self):
        return TuneSpace(sram_bytes=(4 * MIB, 1 * MIB),
                         chord_entries=(64, 4))

    def test_hybrid_front_admits_no_dominated_point_vs_exact(self):
        runner.clear_cache()
        exact = tune("gmres/fv1/m=8/N=1", space=self._space(),
                     strategy=make_strategy("random", budget=12, seed=3),
                     objectives=("runtime", "dram"), fidelity="exact")
        runner.clear_cache()
        hybrid = tune("gmres/fv1/m=8/N=1", space=self._space(),
                      strategy=make_strategy("random", budget=12, seed=3),
                      objectives=("runtime", "dram"), fidelity="hybrid")
        runner.clear_cache()
        exact_vectors = [e.vector for e in exact.front]
        for entry in hybrid.front:
            assert not any(dominates(v, entry.vector)
                           for v in exact_vectors), entry
        # Same seed, byte-exact predictions: the fronts must coincide.
        assert [e.vector for e in hybrid.front] == exact_vectors
        assert hybrid.n_simulations <= exact.n_simulations
        assert hybrid.n_analytic > 0
        err = hybrid.analytic_max_rel_error
        assert err is None or err <= ERROR_BOUND

    def test_analytic_fidelity_prices_supported_points_without_sims(self):
        runner.clear_cache()
        runner.reset_simulation_count()
        result = tune("cg/fv1/N=1", space=TuneSpace(),
                      strategy=make_strategy("grid"),
                      objectives=("runtime", "dram"), fidelity="analytic")
        # Only the incumbent simulates (it is pinned to exact fidelity).
        assert result.n_simulations == 1
        assert result.incumbent.fidelity == "exact"
        assert all(e.fidelity == "analytic" for e in result.evaluations
                   if e.point != result.incumbent.point)
        runner.clear_cache()

    def test_tune_rejects_unknown_fidelity(self):
        with pytest.raises(ValueError, match="fidelity"):
            tune("cg/fv1/N=1", fidelity="psychic")

    def test_cli_fidelity_smoke(self, capsys):
        from repro.cli import main

        assert main(["tune", "gmres/fv1/m=8/N=1", "--fidelity", "hybrid",
                     "--strategy", "random", "--budget", "8",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fidelity: hybrid" in out
        assert "within 2% bound" in out
