"""The CHORD runner: CELLO (this work) and the PRELUDE-only study.

CELLO = SCORE schedule (pipelining + holds + swizzle minimization) executed
against CHORD (PRELUDE + RIFF) with explicit retirement — the full
co-design.  PRELUDE-only (Fig. 16c) keeps the best-intra-op schedule (no
pipelining) and an SRAM with PRELUDE as the only policy: no RIFF
replacement, so a squatting tensor can lock out sooner-reused ones.
Which schedule and which engine knobs a name runs is
:func:`repro.baselines.configs.resolve_config`'s to say.
"""

from __future__ import annotations

from typing import Optional

from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..score.scheduler import Score, ScoreOptions
from ..sim.engine import EngineOptions, ScheduleEngine
from ..sim.results import SimResult


def run_cello(
    dag: TensorDag,
    cfg: AcceleratorConfig,
    workload_name: str = "workload",
    options: Optional[EngineOptions] = None,
    config_name: str = "CELLO",
    score: Optional[ScoreOptions] = None,
) -> SimResult:
    """Simulate a SCORE schedule (made with ``score``) against CHORD
    (run with ``options``); both default to the full CELLO co-design.

    ``config_name`` labels the result — ablated variants pass their
    canonical name (see :func:`repro.baselines.configs.cello_variant_name`).
    """
    schedule = Score(cfg, score).schedule(dag)
    engine = ScheduleEngine(cfg, options)
    return engine.run(schedule, config_name=config_name, workload_name=workload_name)
