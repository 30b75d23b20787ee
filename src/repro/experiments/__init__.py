"""One experiment module per paper table/figure.

Each module exposes ``run(...)`` (structured results) and ``report(...)``
(the text table matching the paper's rows/series).  ``repro all``
renders every report, and ``tests/golden/repro_all_digest.json`` pins
each rendering byte for byte (``tools/check_report_digest.py``).
"""

from . import (
    common,
    ext_workloads,
    fig01_fig07_dag,
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
)

__all__ = [
    "common",
    "ext_workloads",
    "fig01_fig07_dag",
    "fig02_roofline",
    "fig08_multinode",
    "fig12_cg_performance",
    "fig13_gnn_bicgstab",
    "fig14_energy",
    "fig15_area_energy",
    "fig16a_resnet",
    "fig16b_sram_sweep",
    "fig16c_prelude_only",
    "sec6b_searchspace",
    "table01_hpcg",
    "table02_schedulers",
    "table03_buffers",
]
