"""Hardware configuration and cost models (Table V, Fig. 15, Fig. 8)."""

from .config import (
    BANDWIDTH_POINTS,
    DEFAULT_CONFIG,
    GB,
    KIB,
    MIB,
    AcceleratorConfig,
)
from .sram_model import (
    DRAM_PJ_PER_BYTE,
    StructureCost,
    all_structure_costs,
    buffet_cost,
    cache_cost,
    cache_tag_bits,
    chord_cost,
    chord_metadata_ratio,
    chord_table_bits,
    scratchpad_cost,
)
from .noc import NocConfig, op_split_traffic_words, rank_split_traffic_words

__all__ = [
    "BANDWIDTH_POINTS",
    "DEFAULT_CONFIG",
    "GB",
    "KIB",
    "MIB",
    "AcceleratorConfig",
    "DRAM_PJ_PER_BYTE",
    "StructureCost",
    "all_structure_costs",
    "buffet_cost",
    "cache_cost",
    "cache_tag_bits",
    "chord_cost",
    "chord_metadata_ratio",
    "chord_table_bits",
    "scratchpad_cost",
    "NocConfig",
    "op_split_traffic_words",
    "rank_split_traffic_words",
]
