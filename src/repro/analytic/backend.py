"""Analytic prediction backend: config-name dispatch + compile cache.

Mirrors :func:`repro.baselines.configs.run_config`'s name grammar so a
prediction is requested exactly like a simulation — by (workload,
config name, accelerator config).  Five of the seven Table IV families
are analytically modelled:

* ``Flexagon`` — the op-by-op oracle (pure covered-set sums);
* ``FLAT`` / ``SET`` — oracle sums minus SCORE-realized pipeline/hold
  coverage;
* ``PRELUDE-only`` — best-intra-op schedule against PRELUDE (RIFF off);
* ``CELLO`` and every ``CELLO[...]`` knob variant — the full SCORE
  schedule, with engine knobs applied at evaluation time.

``Flex+<policy>`` cache baselines replay an address trace through a
set-associative cache whose conflict behaviour is not a function of
tensor-granularity reuse metadata — they raise
:class:`AnalyticUnsupported`, and every caller (hybrid tuner, fidelity
report, service ``predict`` op) falls back to the exact simulator.
That oracle fallback is the audited boundary of the model
(``docs/analytic.md``).

Compiled models are cached per (workload name, schedule family,
schedule-shaping config): DAG construction and SCORE scheduling are
paid once, and every knob/bandwidth/entries point evaluates against
the same model — the source of the ≥100× speedup the bench gate holds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from ..baselines.configs import (
    CACHE_POLICIES,
    is_known_config,
    parse_cello_variant,
)
from ..baselines.flat import covered_tensors, flat_schedule
from ..baselines.set_sched import set_schedule
from ..hw.config import AcceleratorConfig
from ..score.scheduler import Score, ScoreOptions
from ..sim.engine import EngineOptions
from ..workloads.registry import Workload, workload_dag
from .canonical import canonicalize, canonicalize_oracle
from .compiler import AnalyticEvaluation, AnalyticModel


class AnalyticUnsupported(Exception):
    """The named config has no analytic model; simulate it instead."""


#: Schedule families (what a compiled model is keyed on — all
#: ``CELLO[...]`` variants share one model because the SCORE schedule
#: does not depend on the engine knobs).
_FAMILIES = ("flexagon", "flat", "set", "prelude", "cello")

#: Soft cap on cached models (a tuning sweep touches a handful of SRAM
#: points; this only guards against unbounded growth in long services).
_CACHE_CAP = 256

_MODEL_CACHE: Dict[Tuple, AnalyticModel] = {}


def family_of(config: str) -> str:
    """Resolve a config name to its schedule family.

    Raises :class:`AnalyticUnsupported` for the trace-replayed cache
    baselines and :class:`KeyError` for unknown names (mirroring
    ``run_config``'s error surface).
    """
    if config == "Flexagon":
        return "flexagon"
    if config == "FLAT":
        return "flat"
    if config == "SET":
        return "set"
    if config == "PRELUDE-only":
        return "prelude"
    if parse_cello_variant(config) is not None:
        return "cello"
    if config.startswith("Flex+") and config[len("Flex+"):] in CACHE_POLICIES:
        raise AnalyticUnsupported(
            f"config {config!r} replays a cache trace; no analytic model "
            "(use the simulator)"
        )
    raise KeyError(f"unknown configuration {config!r}")


def supports_config(config: str) -> bool:
    """True when :func:`predict_workload_config` can price ``config``."""
    if not is_known_config(config):
        return False
    try:
        family_of(config)
    except AnalyticUnsupported:
        return False
    return True


def schedule_cfg_key(cfg: AcceleratorConfig) -> AcceleratorConfig:
    """Normalise away the config fields that cannot shape a schedule.

    DRAM bandwidth and the CHORD index-table size only matter at
    evaluation time (re-timing / table bypass), so models compiled at
    different values of either are identical — collapsing them is what
    lets a bandwidth/entries sweep reuse one compiled model.
    """
    return replace(
        cfg,
        dram_bandwidth_bytes_per_s=AcceleratorConfig().dram_bandwidth_bytes_per_s,
        chord_entries=AcceleratorConfig().chord_entries,
    )


def engine_options_for(config: str) -> EngineOptions:
    """Engine knobs a config name implies (identity for oracle names)."""
    if config == "PRELUDE-only":
        return EngineOptions(use_riff=False)
    options = parse_cello_variant(config)
    return options if options is not None else EngineOptions()


def _compile(workload: Workload, family: str,
             cfg: AcceleratorConfig) -> AnalyticModel:
    dag = workload_dag(workload)
    if family == "flexagon":
        program = canonicalize_oracle(dag, set())
    elif family == "flat":
        program = canonicalize_oracle(dag, covered_tensors(flat_schedule(dag, cfg)))
    elif family == "set":
        program = canonicalize_oracle(dag, covered_tensors(set_schedule(dag, cfg)))
    elif family == "prelude":
        schedule = Score(cfg, ScoreOptions(
            enable_pipelining=False, enable_holds=False)).schedule(dag)
        program = canonicalize(schedule)
    else:   # cello
        schedule = Score(cfg, ScoreOptions()).schedule(dag)
        program = canonicalize(schedule)
    return AnalyticModel(program, cfg, workload.name)


def model_for(workload: Workload, config: str,
              cfg: AcceleratorConfig) -> AnalyticModel:
    """Compiled model for (workload, config family, schedule config) —
    cached, so repeated evaluations skip DAG build + SCORE entirely."""
    family = family_of(config)
    key = (workload.name, family, schedule_cfg_key(cfg))
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = _compile(workload, family, cfg)
        if len(_MODEL_CACHE) >= _CACHE_CAP:
            _MODEL_CACHE.pop(next(iter(_MODEL_CACHE)))
        _MODEL_CACHE[key] = model
    return model


def predict_workload_config(
    workload: Workload,
    config: str,
    cfg: AcceleratorConfig,
    detail: bool = False,
) -> AnalyticEvaluation:
    """Analytic counterpart of ``runner.run_workload_config``.

    Raises :class:`AnalyticUnsupported` for cache-policy configs and
    :class:`KeyError` for unknown names.
    """
    model = model_for(workload, config, cfg)
    return model.evaluate(
        config_name=config,
        options=engine_options_for(config),
        cfg=cfg,
        detail=detail,
    )


def clear_model_cache() -> None:
    _MODEL_CACHE.clear()


def model_cache_size() -> int:
    return len(_MODEL_CACHE)
