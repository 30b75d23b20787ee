"""Table IV: the evaluated schedule × buffer configurations.

:func:`resolve_config` is the one place a config name is decoded.  It
turns a name into a :class:`ConfigSpec`, a schedule paired with a
buffer, and both the simulator (:func:`run_config`) and the analytic
backend (:mod:`repro.analytic.backend`) dispatch on that spec.

Beyond the paper's seven fixed rows the resolver understands two
*parameterised* config families used by the co-design autotuner
(``repro tune``, :mod:`repro.tuner`):

* ``CELLO[...]`` — SCORE + CHORD with individual schedule knobs toggled
  (:func:`cello_variant_name` / :func:`parse_cello_variant`), e.g.
  ``CELLO[riff=0,swz=0]``;
* ``Flex+SRRIP`` — the static-RRIP cache policy next to LRU and BRRIP.

Because a configuration is identified by *name* everywhere (runner
memoisation, persistent result store, parallel workers), encoding knobs
in the name makes tuned points first-class sweep citizens with no
orchestrator changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..buffers.brrip import BrripPolicy
from ..buffers.cache import ReplacementPolicy
from ..buffers.lru import LruPolicy
from ..buffers.srrip import SrripPolicy
from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..score.scheduler import Score, ScoreOptions
from ..sim.engine import CacheEngine, EngineOptions
from ..sim.results import SimResult
from .cello import run_cello
from .flexagon import covered_tensors, run_oracle


@dataclass(frozen=True)
class ConfigSpec:
    """One config as it runs: a schedule paired with a buffer.

    ``score`` holds the SCORE options the schedule is built with, or
    ``None`` for the best intra-op dataflow, which runs no SCORE
    schedule.  The buffer is CHORD with the engine knobs ``chord``, a
    set-associative cache replaced by ``cache_policy``, or, when both
    are ``None``, explicit oracle staging.
    """

    score: Optional[ScoreOptions] = None
    chord: Optional[EngineOptions] = None
    cache_policy: Optional[Callable[[], ReplacementPolicy]] = None

    def covered(self, dag: TensorDag, cfg: AcceleratorConfig) -> Set[str]:
        """The tensors oracle staging keeps on chip: those whose every
        consumer the SCORE schedule feeds on chip (none without one)."""
        if self.score is None:
            return set()
        return covered_tensors(Score(cfg, self.score).schedule(dag))


#: Table IV, name -> spec.
TABLE_IV: Dict[str, ConfigSpec] = {
    # The oracle op-by-op dataflow: all ops begin and end in DRAM.
    "Flexagon": ConfigSpec(),
    # Every access of the best intra-op schedule goes through an
    # implicitly managed cache.
    "Flex+LRU": ConfigSpec(cache_policy=LruPolicy),
    "Flex+BRRIP": ConfigSpec(cache_policy=BrripPolicy),
    # Oracle pipelining between adjacent ops, no delayed reuse.  A tensor
    # is on chip only when every consumer is a realised adjacent
    # pipeline (the GNN's AX); on CG none qualifies, so FLAT collapses
    # to Flexagon, as in Fig. 12.
    "FLAT": ConfigSpec(score=ScoreOptions(enable_holds=False)),
    # Adds delayed holds: enough for ResNet's skip connections (SET
    # matches CELLO, Fig. 16a), not for CG's delayed writebacks.
    "SET": ConfigSpec(score=ScoreOptions()),
    # PRELUDE fill/spill with no RIFF replacement under the best
    # intra-op schedule, all other optimisations off (Sec. VII-C3).
    "PRELUDE-only": ConfigSpec(
        score=ScoreOptions(enable_pipelining=False, enable_holds=False),
        chord=EngineOptions(use_riff=False)),
    # This work: the SCORE schedule over the PRELUDE + RIFF hybrid buffer.
    "CELLO": ConfigSpec(score=ScoreOptions(), chord=EngineOptions()),
}

#: The configurations in the main comparison (Figs. 12-14).
MAIN_CONFIGS: Tuple[str, ...] = ("Flexagon", "Flex+LRU", "Flex+BRRIP", "FLAT", "CELLO")
#: Extra configurations for the additional studies (Fig. 16).
EXTRA_CONFIGS: Tuple[str, ...] = ("SET", "PRELUDE-only")


#: The cache replacement policies the implicit baselines can run with
#: (the ``Flex+<policy>`` family; LRU/BRRIP are Table IV, SRRIP extends it).
CACHE_POLICIES: Dict[str, Callable] = {
    "LRU": LruPolicy,
    "BRRIP": BrripPolicy,
    "SRRIP": SrripPolicy,
}

#: CELLO schedule-knob tokens, in canonical name order, mapped to the
#: :class:`~repro.sim.engine.EngineOptions` field each one toggles.
CELLO_KNOBS: Tuple[Tuple[str, str], ...] = (
    ("riff", "use_riff"),
    ("retire", "explicit_retire"),
    ("swz", "charge_swizzle"),
)

_CELLO_VARIANT = re.compile(r"CELLO\[([a-z01=,]+)\]\Z")


def cello_variant_name(options: EngineOptions) -> str:
    """Canonical config name of a CELLO schedule-knob combination.

    All knobs on (the paper's fixed point) is plain ``"CELLO"``; any
    ablation lists its *disabled* knobs in :data:`CELLO_KNOBS` order, e.g.
    ``CELLO[riff=0]`` or ``CELLO[retire=0,swz=0]``.  The name is the
    memoisation/store key component, so equal options ⇒ equal name.
    """
    off = [k for k, f in CELLO_KNOBS if not getattr(options, f)]
    if not off:
        return "CELLO"
    return "CELLO[" + ",".join(f"{k}=0" for k in off) + "]"


def parse_cello_variant(name: str) -> Optional[EngineOptions]:
    """Inverse of :func:`cello_variant_name`; ``None`` for non-CELLO names.

    Accepts ``knob=0``/``knob=1`` tokens in any order (the canonical form
    only lists disabled knobs); unknown or repeated knobs make the name
    unparseable (``None``), so typos fail loudly at config validation.
    """
    if name == "CELLO":
        return EngineOptions()
    m = _CELLO_VARIANT.match(name)
    if m is None:
        return None
    fields = {k: f for k, f in CELLO_KNOBS}
    overrides: Dict[str, bool] = {}
    for token in m.group(1).split(","):
        knob, sep, value = token.partition("=")
        if knob not in fields or fields[knob] in overrides or value not in ("0", "1"):
            return None
        overrides[fields[knob]] = value == "1"
    return EngineOptions(**overrides)


def config_names() -> Tuple[str, ...]:
    return tuple(TABLE_IV)


def _unknown_config_text(unknown) -> str:
    """The user-facing message naming unrecognised config names."""
    return (f"unknown config(s): {', '.join(unknown)}; "
            f"known: {', '.join(config_names())} plus Flex+SRRIP and "
            "CELLO[...] schedule variants")


def resolve_config(name: str) -> ConfigSpec:
    """The spec ``name`` runs: a Table IV row, a ``Flex+<policy>`` cache
    baseline, or a ``CELLO[...]`` schedule variant.  This is the one
    place a config name is decoded; :class:`KeyError` for any other,
    carrying the text of :func:`unknown_config_error`."""
    spec = TABLE_IV.get(name)
    if spec is not None:
        return spec
    prefix, _, policy = name.partition("+")
    if prefix == "Flex" and policy in CACHE_POLICIES:
        return ConfigSpec(cache_policy=CACHE_POLICIES[policy])
    options = parse_cello_variant(name)
    if options is not None:
        return ConfigSpec(score=ScoreOptions(), chord=options)
    raise KeyError(_unknown_config_text([name]))


def is_known_config(name: str) -> bool:
    """True for every name :func:`run_config` can execute."""
    try:
        resolve_config(name)
    except KeyError:
        return False
    return True


def unknown_config_error(configs) -> "str | None":
    """The shared user-facing message for unrecognised config names, or
    ``None`` when every name is runnable (used verbatim by the sweep CLI,
    the submit CLI and the service protocol, so the three never drift)."""
    unknown = [c for c in configs if not is_known_config(c)]
    return _unknown_config_text(unknown) if unknown else None


def run_config(
    name: str,
    dag: TensorDag,
    cfg: AcceleratorConfig,
    workload_name: str = "workload",
) -> SimResult:
    """Simulate the config ``name`` resolves to on ``dag``."""
    spec = resolve_config(name)
    if spec.cache_policy is not None:
        return CacheEngine(cfg, spec.cache_policy()).run(
            dag, config_name=name, workload_name=workload_name)
    if spec.chord is not None:
        return run_cello(dag, cfg, workload_name, options=spec.chord,
                         config_name=name, score=spec.score)
    return run_oracle(dag, cfg, spec.covered(dag, cfg), name, workload_name)
