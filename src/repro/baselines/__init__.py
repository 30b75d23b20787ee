"""Table IV baseline accelerator configurations and the batch runner."""

from .configs import (
    CACHE_POLICIES,
    EXTRA_CONFIGS,
    MAIN_CONFIGS,
    TABLE_IV,
    ConfigSpec,
    cello_variant_name,
    config_names,
    is_known_config,
    parse_cello_variant,
    run_config,
)
from .flexagon import oracle_traffic, run_flexagon
from .flat import covered_tensors, flat_schedule, run_flat
from .set_sched import run_set, set_schedule
from .cello import cello_schedule, run_cello, run_prelude_only
from .runner import (
    clear_cache,
    get_store,
    run_workload_config,
    set_store,
    simulation_count,
)

__all__ = [
    "CACHE_POLICIES",
    "EXTRA_CONFIGS",
    "MAIN_CONFIGS",
    "TABLE_IV",
    "ConfigSpec",
    "cello_variant_name",
    "config_names",
    "is_known_config",
    "parse_cello_variant",
    "run_config",
    "oracle_traffic",
    "run_flexagon",
    "covered_tensors",
    "flat_schedule",
    "run_flat",
    "run_set",
    "set_schedule",
    "cello_schedule",
    "run_cello",
    "run_prelude_only",
    "clear_cache",
    "get_store",
    "run_workload_config",
    "set_store",
    "simulation_count",
]
