"""Table IV: the evaluated schedule × buffer configurations.

Beyond the paper's seven fixed rows this module understands two
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
from typing import Callable, Dict, Optional, Tuple

from ..buffers.brrip import BrripPolicy
from ..buffers.lru import LruPolicy
from ..buffers.srrip import SrripPolicy
from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..sim.engine import CacheEngine, EngineOptions
from ..sim.results import SimResult
from .cello import run_cello, run_prelude_only
from .flat import run_flat
from .flexagon import run_flexagon
from .set_sched import run_set


@dataclass(frozen=True)
class ConfigSpec:
    """One Table IV row: a named schedule + buffer-hierarchy combination."""

    name: str
    schedule: str
    buffer: str
    description: str


TABLE_IV: Tuple[ConfigSpec, ...] = (
    ConfigSpec(
        "Flexagon", "best intra-layer", "explicit",
        "Oracle op-by-op dataflow; all ops begin and end in DRAM.",
    ),
    ConfigSpec(
        "Flex+LRU", "best intra-layer", "LRU cache",
        "All accesses through an implicitly-managed LRU cache.",
    ),
    ConfigSpec(
        "Flex+BRRIP", "best intra-layer", "BRRIP cache",
        "All accesses through an implicitly-managed BRRIP cache.",
    ),
    ConfigSpec(
        "FLAT", "pipelining", "explicit",
        "Oracle pipelined dataflow between adjacent ops (no delayed reuse).",
    ),
    ConfigSpec(
        "SET", "pipelining + delayed hold", "explicit",
        "Adds delayed-hold support (ResNet skip connections).",
    ),
    ConfigSpec(
        "PRELUDE-only", "best intra-layer", "PRELUDE SRAM",
        "PRELUDE fill/spill with no RIFF replacement (Sec. VII-C3).",
    ),
    ConfigSpec(
        "CELLO", "SCORE", "CHORD",
        "This work: SCORE schedule over PRELUDE + RIFF hybrid buffer.",
    ),
)

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
    return tuple(c.name for c in TABLE_IV)


def is_known_config(name: str) -> bool:
    """True for every name :func:`run_config` can execute: the Table IV
    rows, the extra cache policies, and parseable ``CELLO[...]`` variants."""
    if name in config_names():
        return True
    if name.startswith("Flex+") and name[len("Flex+"):] in CACHE_POLICIES:
        return True
    return parse_cello_variant(name) is not None


def unknown_config_error(configs) -> "str | None":
    """The shared user-facing message for unrecognised config names, or
    ``None`` when every name is runnable (used verbatim by the sweep CLI,
    the submit CLI and the service protocol, so the three never drift)."""
    unknown = [c for c in configs if not is_known_config(c)]
    if not unknown:
        return None
    return (f"unknown config(s): {', '.join(unknown)}; "
            f"known: {', '.join(config_names())} plus Flex+SRRIP and "
            "CELLO[...] schedule variants")


def run_config(
    name: str,
    dag: TensorDag,
    cfg: AcceleratorConfig,
    workload_name: str = "workload",
) -> SimResult:
    """Run one named configuration on ``dag`` (Table IV row, ``Flex+<policy>``
    cache baseline, or parameterised ``CELLO[...]`` schedule variant)."""
    if name == "Flexagon":
        return run_flexagon(dag, cfg, workload_name)
    if name.startswith("Flex+") and name[len("Flex+"):] in CACHE_POLICIES:
        policy = CACHE_POLICIES[name[len("Flex+"):]]()
        return CacheEngine(cfg, policy).run(dag, config_name=name,
                                            workload_name=workload_name)
    if name == "FLAT":
        return run_flat(dag, cfg, workload_name)
    if name == "SET":
        return run_set(dag, cfg, workload_name)
    if name == "PRELUDE-only":
        return run_prelude_only(dag, cfg, workload_name)
    options = parse_cello_variant(name)
    if options is not None:
        return run_cello(dag, cfg, workload_name, options=options,
                         config_name=name)
    raise KeyError(f"unknown configuration {name!r}; known: {config_names()}")
