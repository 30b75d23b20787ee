#!/usr/bin/env python
"""Design-space tour: why CHORD exists (Sec. VI-B) and what its knobs do.

Walks the buffer-allocation search-space arithmetic, then sweeps CHORD
capacity and ablates RIFF/retirement to show where the traffic savings
come from.

Run:  python examples/design_space.py
"""

from dataclasses import replace

from repro.baselines import run_workload_config
from repro.hw import MIB, AcceleratorConfig
from repro.score import Score, compare_search_spaces
from repro.sim import EngineOptions, ScheduleEngine
from repro.workloads import SHALLOW_WATER1, cg_workload


def main() -> None:
    cfg = AcceleratorConfig()
    w = cg_workload(SHALLOW_WATER1, n=16, iterations=10)
    dag = w.build()

    # --- Sec. VI-B: the intractability CHORD removes -------------------------
    rep = compare_search_spaces(dag, size_words=cfg.sram_bytes // 4)
    print("Buffer-allocation search spaces (Sec. VI-B):")
    print(f"  op-by-op scratchpad   : ~1e{rep.log10_op_by_op:.0f} choices")
    print(f"  DAG-level scratchpad  : ~1e{rep.log10_scratchpad:.0f} choices")
    print(f"  CHORD                 : {rep.chord_points} design points (O(nodes+edges))")

    # --- CHORD capacity sweep (Fig. 16b) ---------------------------------------
    print("\nCHORD capacity sweep (CG, shallow_water1, N=16):")
    for sram in (1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB, 16 * MIB):
        r = run_workload_config(w, "CELLO", cfg.with_sram(sram))
        print(f"  {sram // MIB:3d} MB -> {r.dram_bytes / 1e6:8.1f} MB DRAM traffic")

    # --- mechanism ablations ------------------------------------------------------
    print("\nMechanism ablations (same schedule, 4 MB):")
    schedule = Score(cfg).schedule(dag)
    # Without retirement every tensor keeps its index entry, so those
    # variants get a larger RIFF table.
    big_table = replace(cfg, chord_entries=4096)
    variants = {
        "full CELLO (RIFF + retire)": (EngineOptions(), cfg),
        "PRELUDE-only (no RIFF)": (EngineOptions(use_riff=False), cfg),
        "no retirement": (EngineOptions(explicit_retire=False), big_table),
        "neither": (EngineOptions(use_riff=False, explicit_retire=False),
                    big_table),
    }
    for label, (options, variant_cfg) in variants.items():
        r = ScheduleEngine(variant_cfg, options).run(schedule, config_name=label)
        print(f"  {label:28s} -> {r.dram_bytes / 1e6:8.1f} MB DRAM traffic")

    print(
        "\nRIFF (reuse-distance/frequency replacement) and explicit retirement "
        "are both needed\nto keep the soonest-reused tensors resident — the "
        "co-design the paper argues for."
    )


if __name__ == "__main__":
    main()
