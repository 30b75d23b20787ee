"""repro — reproduction of CELLO (IPDPS 2025).

CELLO co-designs a scheduler (SCORE) that classifies the tensor-level
dependencies of arbitrary einsum DAGs with a hybrid implicit/explicit
buffer (CHORD: PRELUDE + RIFF policies) that reuses tensors at operand
granularity.  This package implements the full system as a simulator +
scheduler library: the core IR and Algorithm 2, SCORE, CHORD, every
Table IV baseline (Flexagon-like oracle, LRU/BRRIP caches, FLAT, SET,
PRELUDE-only), the Table VI workloads (block CG, BiCGStab, GCN, ResNet),
executable numeric solvers, and one experiment module per table/figure.

Quickstart::

    from repro import workloads, baselines, hw

    cfg = hw.AcceleratorConfig()
    w = workloads.cg_workload(workloads.FV1, n=16)
    cello = baselines.run_workload_config(w, "CELLO", cfg)
    flex = baselines.run_workload_config(w, "Flexagon", cfg)
    print(f"CELLO speedup: {cello.speedup_over(flex):.1f}x")

The package imports no subpackage itself: an import loads only what it
names, so a daemon or a CLI verb never pays for the numeric oracles
(``solvers``, the SciPy-backed ``workloads.matrices`` builders).
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "buffers",
    "chord",
    "core",
    "experiments",
    "hw",
    "orchestrator",
    "score",
    "sim",
    "solvers",
    "workloads",
    "__version__",
]
