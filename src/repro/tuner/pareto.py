"""Objectives and the Pareto frontier container.

Every objective is *minimised*.  The four axes mirror what the paper
trades off across its evaluation sections:

* ``runtime`` — roofline execution time (Figs. 12/13/16);
* ``dram`` — off-chip traffic in bytes (the Fig. 14 energy proxy);
* ``energy`` — absolute joules, off-chip + per-structure on-chip
  (:mod:`repro.sim.energy`);
* ``area`` — the buffer structure's silicon cost in mm²
  (:mod:`repro.hw.sram_model`, Fig. 15) — CHORD's data array + RIFF
  table for CELLO points, data + tag + controller for cache points.

:class:`ParetoFront` keeps the non-dominated subset under insertion
(dominance pruning): an entry is dropped when an existing entry is at
least as good on every objective and strictly better on one; inserting a
dominating entry evicts everything it dominates.  Ties on the full
objective vector keep the first-seen entry, so fronts are deterministic
in evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.sram_model import cache_cost, chord_cost
from ..sim.energy import energy_of
from ..sim.results import SimResult
from .space import TunePoint


def _runtime(result: SimResult, cfg: AcceleratorConfig, point: TunePoint) -> float:
    return result.time_s


def _dram(result: SimResult, cfg: AcceleratorConfig, point: TunePoint) -> float:
    return float(result.dram_bytes)


def _energy(result: SimResult, cfg: AcceleratorConfig, point: TunePoint) -> float:
    return energy_of(result, cfg).total_j


def _area(result: SimResult, cfg: AcceleratorConfig, point: TunePoint) -> float:
    cost = cache_cost(cfg) if point.cache_policy is not None else chord_cost(cfg)
    return cost.total_mm2


#: name -> (result, point-cfg, point) -> objective value (minimise).
OBJECTIVES: Dict[str, Callable[[SimResult, AcceleratorConfig, TunePoint], float]] = {
    "runtime": _runtime,
    "dram": _dram,
    "energy": _energy,
    "area": _area,
}

#: The default trade-off: performance vs off-chip traffic.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("runtime", "dram")

#: Sorted rows :func:`nondominated_mask` tests per broadcast step.
DOMINANCE_BLOCK = 512


def validate_objectives(names: Sequence[str]) -> Tuple[str, ...]:
    """Normalise an objective list: known names, non-empty, no repeats."""
    out: List[str] = []
    for n in names:
        if n not in OBJECTIVES:
            raise KeyError(
                f"unknown objective {n!r}; known: {', '.join(OBJECTIVES)}"
            )
        if n not in out:
            out.append(n)
    if not out:
        raise ValueError("at least one objective is required")
    return tuple(out)


def objective_values(
    names: Sequence[str],
    result: SimResult,
    cfg: AcceleratorConfig,
    point: TunePoint,
) -> Dict[str, float]:
    """Evaluate every named objective for one simulated design point."""
    return {n: OBJECTIVES[n](result, cfg, point) for n in names}


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def nondominated_mask(vectors: "np.ndarray") -> "np.ndarray":
    """Vectorised dominance pass over an ``(n, k)`` objective matrix.

    ``mask[i]`` is True exactly when offering row ``i`` to a fresh
    :class:`ParetoFront` **in row order** would leave it on the final
    frontier: rows dominated by any other row are dropped, and of rows
    with identical vectors only the first survives (the front's
    first-seen tie rule).

    The pass sorts lexicographically (any dominator or earlier-tied
    duplicate of a row sorts strictly before it), then walks the sorted
    rows in blocks of :data:`DOMINANCE_BLOCK`: each block is tested against the accumulated front
    with one broadcast ``<=`` and against its own earlier rows with a
    lower-triangular mask — no Python-level per-pair loop.  This is what
    lets the columnar tuner prune 10^5+ analytic points in milliseconds
    where the per-insert loop was quadratic.
    """
    vecs = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    if vecs.ndim != 2:
        raise ValueError("vectors must be a 2-D (points, objectives) array")
    n, k = vecs.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    # Sort by objectives (first objective primary), original index last:
    # every dominator, and every tied duplicate that was seen earlier,
    # lands strictly before the row it beats.
    idx = np.arange(n)
    order = np.lexsort((idx,) + tuple(vecs[:, c] for c in range(k - 1, -1, -1)))
    sorted_v = vecs[order]
    keep_sorted = np.zeros(n, dtype=bool)
    front = np.empty((0, k), dtype=np.float64)
    for start in range(0, n, DOMINANCE_BLOCK):
        blk = sorted_v[start:start + DOMINANCE_BLOCK]
        m = blk.shape[0]
        if front.shape[0]:
            beaten = (front[None, :, :] <= blk[:, None, :]
                      ).all(axis=2).any(axis=1)
        else:
            beaten = np.zeros(m, dtype=bool)
        # Within the block, an earlier sorted row that is <= everywhere
        # either dominates this row or ties it first — reject either way.
        le = (blk[None, :, :] <= blk[:, None, :]).all(axis=2)
        beaten |= np.tril(le, k=-1).any(axis=1)
        survivors = ~beaten
        keep_sorted[start:start + m] = survivors
        if survivors.any():
            front = np.concatenate([front, blk[survivors]])
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_sorted
    return mask


@dataclass(frozen=True)
class FrontEntry:
    """One non-dominated design point on the frontier."""

    point: TunePoint
    config: str
    vector: Tuple[float, ...]


class ParetoFront:
    """Non-dominated set under insertion, with dominance pruning.

    Membership tests run against a cached ``(entries, objectives)``
    matrix — one broadcast compare per offer instead of a Python loop
    over entries, so batch-sized fronts stay cheap to build.
    """

    def __init__(self, objectives: Sequence[str]) -> None:
        self.objectives = validate_objectives(objectives)
        self._entries: List[FrontEntry] = []
        self._matrix: Optional[np.ndarray] = None

    def add(self, point: TunePoint, config: str,
            values: Mapping[str, float]) -> bool:
        """Offer a point; returns True when it joins the frontier.

        Dominated offers are rejected; accepted offers evict every entry
        they dominate.  An exact objective-vector tie keeps the incumbent
        entry (first seen wins) and rejects the offer.
        """
        vector = tuple(float(values[n]) for n in self.objectives)
        v = np.asarray(vector, dtype=np.float64)
        if self._entries:
            assert self._matrix is not None
            # all(e <= v) covers both "e dominates v" and "e == v": either
            # way the offer is rejected.
            if bool(np.any(np.all(self._matrix <= v, axis=1))):
                return False
            # No entry ties v (that was a rejection), so all(v <= e) is a
            # strict domination of e by v.
            evicted = np.all(v <= self._matrix, axis=1)
            if evicted.any():
                keep = ~evicted
                self._entries = [e for e, k in zip(self._entries, keep) if k]
                self._matrix = self._matrix[keep]
        self._entries.append(FrontEntry(point=point, config=config, vector=vector))
        self._matrix = (v[None, :] if self._matrix is None or not self._matrix.size
                        else np.concatenate([self._matrix, v[None, :]]))
        return True

    @property
    def entries(self) -> Tuple[FrontEntry, ...]:
        """Frontier sorted by the first objective (then the rest)."""
        return tuple(sorted(self._entries, key=lambda e: e.vector))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries)

    def dominated(self, values: Mapping[str, float]) -> bool:
        """Would this objective mapping be rejected as dominated/tied?"""
        if not self._entries:
            return False
        assert self._matrix is not None
        v = np.asarray([float(values[n]) for n in self.objectives])
        return bool(np.any(np.all(self._matrix <= v, axis=1)))

    def describe(self) -> str:
        parts = [f"ParetoFront({len(self)} points over {'/'.join(self.objectives)})"]
        for e in self.entries:
            vals = ", ".join(f"{n}={v:.4g}"
                             for n, v in zip(self.objectives, e.vector))
            parts.append(f"  {e.config}: {vals}")
        return "\n".join(parts)
