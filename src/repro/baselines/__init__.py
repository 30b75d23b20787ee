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
    resolve_config,
    run_config,
)
from .flexagon import covered_tensors, oracle_traffic, run_oracle
from .cello import run_cello
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
    "resolve_config",
    "run_config",
    "oracle_traffic",
    "run_oracle",
    "covered_tensors",
    "run_cello",
    "clear_cache",
    "get_store",
    "run_workload_config",
    "set_store",
    "simulation_count",
]
