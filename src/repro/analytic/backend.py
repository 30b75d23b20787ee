"""Analytic prediction backend: config-name dispatch + compile cache.

A prediction is requested exactly like a simulation — by (workload,
config name, accelerator config) — and dispatches on the same
:class:`~repro.baselines.configs.ConfigSpec` that
:func:`~repro.baselines.configs.resolve_config` gives
:func:`~repro.baselines.configs.run_config`.  Every row whose buffer is
explicit oracle staging or CHORD is analytically modelled:

* oracle staging (``Flexagon``, ``FLAT``, ``SET``) — oracle sums minus
  the tensors the row's SCORE schedule covers (none for Flexagon);
* CHORD (``PRELUDE-only``, ``CELLO`` and every ``CELLO[...]`` knob
  variant) — the row's SCORE schedule, with the engine knobs applied at
  evaluation time.

``Flex+<policy>`` cache baselines replay an address trace through a
set-associative cache whose conflict behaviour is not a function of
tensor-granularity reuse metadata — they raise
:class:`AnalyticUnsupported`, and every caller (hybrid tuner, fidelity
report, service ``predict`` op) falls back to the exact simulator.
That oracle fallback is the audited boundary of the model
(``docs/analytic.md``).

Compiled models are cached per (workload name, SCORE options, buffer,
schedule-shaping config): DAG construction and SCORE scheduling are
paid once, and every knob/bandwidth/entries point evaluates against
the same model — the source of the ≥100× speedup the bench gate holds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from ..baselines.configs import ConfigSpec, resolve_config
from ..hw.config import AcceleratorConfig
from ..score.scheduler import Score
from ..workloads.registry import Workload, workload_dag
from .canonical import canonicalize, canonicalize_oracle
from .compiler import AnalyticEvaluation, AnalyticModel


class AnalyticUnsupported(Exception):
    """The named config has no analytic model; simulate it instead."""


#: Soft cap on cached models (a tuning sweep touches a handful of SRAM
#: points; this only guards against unbounded growth in long services).
_CACHE_CAP = 256

_MODEL_CACHE: Dict[Tuple, AnalyticModel] = {}


def _modelled(config: str) -> ConfigSpec:
    """The spec ``config`` resolves to, when it has an analytic model.

    Raises :class:`AnalyticUnsupported` for the trace-replayed cache
    baselines and the resolver's :class:`KeyError` for unknown names.
    """
    spec = resolve_config(config)
    if spec.cache_policy is not None:
        raise AnalyticUnsupported(
            f"config {config!r} replays a cache trace; no analytic model "
            "(use the simulator)"
        )
    return spec


def supports_config(config: str) -> bool:
    """True when :func:`predict_workload_config` can price ``config``."""
    try:
        _modelled(config)
    except (KeyError, AnalyticUnsupported):
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


def _compile(workload: Workload, spec: ConfigSpec,
             cfg: AcceleratorConfig) -> AnalyticModel:
    dag = workload_dag(workload)
    if spec.chord is None:
        program = canonicalize_oracle(dag, spec.covered(dag, cfg))
    else:
        program = canonicalize(Score(cfg, spec.score).schedule(dag))
    return AnalyticModel(program, cfg, workload.name)


def model_for(workload: Workload, config: str,
              cfg: AcceleratorConfig) -> AnalyticModel:
    """Compiled model for (workload, config's schedule and buffer,
    schedule config) — cached, so repeated evaluations skip DAG build +
    SCORE entirely."""
    return _cached_model(workload, _modelled(config), cfg)


def _cached_model(workload: Workload, spec: ConfigSpec,
                  cfg: AcceleratorConfig) -> AnalyticModel:
    # The CHORD engine knobs are not part of the key: every CELLO[...]
    # variant shares one model.
    key = (workload.name, spec.score, spec.chord is None,
           schedule_cfg_key(cfg))
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = _compile(workload, spec, cfg)
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
    spec = _modelled(config)
    return _cached_model(workload, spec, cfg).evaluate(
        config_name=config, options=spec.chord, cfg=cfg, detail=detail)


def clear_model_cache() -> None:
    _MODEL_CACHE.clear()


def model_cache_size() -> int:
    return len(_MODEL_CACHE)
