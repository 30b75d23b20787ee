"""Declarative sweep specifications.

A sweep is the paper's evaluation shape — (workload × configuration ×
SRAM size × bandwidth), the grid behind Figs. 12-14/16 — written down as
data instead of nested loops scattered through experiment modules.
:class:`SweepSpec` enumerates deterministic, order-stable
:class:`SweepPoint` lists that the parallel runner fans out across cores
and the result store keys on disk.

Workloads are referred to by canonical registry *name* (optionally
fnmatch patterns like ``cg/*`` or ``gmres/*``), never by object: a name
is picklable, hashable, and is re-resolved into a DAG builder inside
each worker process (:func:`repro.workloads.registry.resolve_workload`).
Extension families registered per ``docs/extending.md`` participate in
sweeps with no orchestrator changes — pattern expansion and resolution
go through the same registry index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from typing import Tuple

from ..baselines.configs import MAIN_CONFIGS
from ..hw.config import AcceleratorConfig
from ..orchestrator.store import result_key
from ..workloads.registry import all_workloads


@dataclass(frozen=True)
class SweepPoint:
    """One simulation to run: a named workload under one configuration.

    Bandwidth lives inside ``cfg`` but does not affect the traffic key —
    points differing only in bandwidth share a simulation and are
    re-timed (see :mod:`repro.baselines.runner`).
    """

    workload: str
    config: str
    cfg: AcceleratorConfig = field(default_factory=AcceleratorConfig)

    def key(self) -> Tuple:
        """Traffic-memoisation key (shared with the runner's cache tiers
        and the persistent store; bandwidth-independent by design)."""
        return result_key(self.config, self.workload, self.cfg)

    def to_wire(self) -> dict:
        """JSON-safe form for the service's ``points`` op.

        Carries exactly the axes a ``sweep`` request varies (SRAM,
        bandwidth) over a default base config — the same reconstruction
        :func:`repro.service.protocol.request_to_spec` performs, so a point
        round-tripped through a gateway keys the store identically to one
        enumerated by a single daemon.
        """
        return {
            "workload": self.workload,
            "config": self.config,
            "sram_bytes": self.cfg.sram_bytes,
            "bandwidth_bytes_per_s": self.cfg.dram_bandwidth_bytes_per_s,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SweepPoint":
        """Inverse of :meth:`to_wire`; raises ``ValueError`` on bad types
        and, through :class:`AcceleratorConfig`, on non-positive sizes —
        the same check and wording a ``sweep`` grid gets."""
        workload = data.get("workload")
        config = data.get("config")
        if not isinstance(workload, str) or not workload.strip():
            raise ValueError("'workload' must be a workload name")
        if not isinstance(config, str) or not config.strip():
            raise ValueError("'config' must be a configuration name")
        cfg = AcceleratorConfig()
        sram = data.get("sram_bytes", cfg.sram_bytes)
        if isinstance(sram, bool) or not isinstance(sram, int):
            raise ValueError("'sram_bytes' must be an integer")
        bandwidth = data.get("bandwidth_bytes_per_s",
                             cfg.dram_bandwidth_bytes_per_s)
        if (isinstance(bandwidth, bool)
                or not isinstance(bandwidth, (int, float))):
            raise ValueError("'bandwidth_bytes_per_s' must be a number")
        return cls(
            workload=workload,
            config=config,
            cfg=replace(cfg, sram_bytes=sram,
                        dram_bandwidth_bytes_per_s=float(bandwidth)),
        )


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep: workloads × configs × sram_bytes × bandwidths.

    ``workloads`` entries may be exact registry names or fnmatch patterns
    (``cg/*``, ``*shallow*``); patterns expand against
    :func:`~repro.workloads.registry.all_workloads` in registry order.
    Empty ``sram_bytes``/``bandwidths`` mean "whatever ``base_cfg`` has".
    """

    workloads: Tuple[str, ...]
    configs: Tuple[str, ...] = MAIN_CONFIGS
    base_cfg: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    sram_bytes: Tuple[int, ...] = ()
    bandwidths: Tuple[float, ...] = ()

    def expand_workloads(self) -> Tuple[str, ...]:
        """Expand patterns to concrete names, preserving first-seen order.

        A literal entry that matches no registry name is kept verbatim —
        it may still be resolvable (e.g. ``cg/fv1/N=1@it3`` encodes a
        non-default iteration count that the registry index omits).
        """
        known = list(all_workloads())
        out: list[str] = []
        for pattern in self.workloads:
            matched = [n for n in known if fnmatch(n, pattern)]
            for name in matched or [pattern]:
                if name not in out:
                    out.append(name)
        return tuple(out)

    def cfg_variants(self) -> Tuple[AcceleratorConfig, ...]:
        srams = self.sram_bytes or (self.base_cfg.sram_bytes,)
        bws = self.bandwidths or (self.base_cfg.dram_bandwidth_bytes_per_s,)
        return tuple(
            replace(self.base_cfg, sram_bytes=s, dram_bandwidth_bytes_per_s=b)
            for s in srams
            for b in bws
        )

    def points(self) -> Tuple[SweepPoint, ...]:
        """Deterministic enumeration: workload-major, then config, then cfg."""
        return tuple(
            SweepPoint(w, c, cfg)
            for w in self.expand_workloads()
            for c in self.configs
            for cfg in self.cfg_variants()
        )

    def __len__(self) -> int:
        """Number of enumerated sweep points (simulations before dedup)."""
        return len(self.points())
