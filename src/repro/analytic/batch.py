"""NumPy-vectorised batch evaluation of a compiled analytic model.

:meth:`AnalyticModel.evaluate` prices one knob point per call; a tuning
run over 10^5–10^6 points spends its time in the Python enumeration
loop, not in the model.  This module evaluates the *same* compiled model
over knob **arrays** — one NumPy row per design point — so the whole
batch moves through ufunc arithmetic:

* the streaming and closed-form regimes are pure broadcast expressions
  over the pre-folded formula sums (swizzle toggle, no-pressure drains);
* the capacity recurrence (:func:`repro.analytic.capacity.replay_chord`)
  is replayed once per CHORD *event* but vectorised across every
  pressured point at each step — state is a ``(tensors, points)`` matrix
  and RIFF victim selection is an argmin over pre-computed priority keys;
* points the analytic model cannot price at all (cache-policy baselines)
  never enter: callers route them to the simulator, exactly as the
  point-wise path does.

Every output is bit-identical to the corresponding point-wise
``model.evaluate(...)`` call — the property suite in
``tests/test_batch_analytic.py`` asserts element-wise equality across
random DAGs, knob grids, and all three regimes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.sram_model import chord_cost
from ..sim.energy import DRAM_PJ_PER_BYTE, onchip_energy_j
from .backend import AnalyticUnsupported
from .canonical import EV_READ, EV_RETIRE, EV_WRITE
from .compiler import (CLOSED_FORM, RECURRENCE, STREAMING, AnalyticModel,
                       onchip_accesses_of)

#: Integer regime codes (compact per-point tags; names match the
#: compiler's string regimes one-to-one).
REGIME_STREAMING = 0
REGIME_CLOSED_FORM = 1
REGIME_RECURRENCE = 2
REGIME_NAMES: Tuple[str, str, str] = (STREAMING, CLOSED_FORM, RECURRENCE)


def _as_bool(values: object, n: int) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(values, dtype=bool), (n,))
    return np.ascontiguousarray(arr)


def _as_int(values: object, n: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    arr = np.broadcast_to(arr.astype(np.int64), (n,))
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class BatchKnobs:
    """Columnar engine/hardware knobs: row ``i`` of every array is one
    evaluation point.  Mirrors what the point-wise path reads from
    ``EngineOptions`` + ``AcceleratorConfig``:

    * ``use_riff`` / ``explicit_retire`` / ``charge_swizzle`` — the
      SCORE ablation toggles;
    * ``chord_entries`` — RIFF index-table size (``cfg.chord_entries``);
    * ``capacity_bytes`` — CHORD data-array capacity
      (``cfg.chord_data_bytes``, *not* raw SRAM bytes).
    """

    use_riff: np.ndarray
    explicit_retire: np.ndarray
    charge_swizzle: np.ndarray
    chord_entries: np.ndarray
    capacity_bytes: np.ndarray

    def __len__(self) -> int:
        return int(self.capacity_bytes.shape[0])

    @classmethod
    def from_columns(
        cls,
        n: int,
        use_riff: object = True,
        explicit_retire: object = True,
        charge_swizzle: object = True,
        chord_entries: object = 64,
        capacity_bytes: object = 0,
    ) -> "BatchKnobs":
        """Broadcast scalars / sequences to ``n`` rows with the dtypes
        the evaluator expects."""
        return cls(
            use_riff=_as_bool(use_riff, n),
            explicit_retire=_as_bool(explicit_retire, n),
            charge_swizzle=_as_bool(charge_swizzle, n),
            chord_entries=_as_int(chord_entries, n),
            capacity_bytes=_as_int(capacity_bytes, n),
        )

    def take(self, idx: np.ndarray) -> "BatchKnobs":
        return BatchKnobs(
            use_riff=self.use_riff[idx],
            explicit_retire=self.explicit_retire[idx],
            charge_swizzle=self.charge_swizzle[idx],
            chord_entries=self.chord_entries[idx],
            capacity_bytes=self.capacity_bytes[idx],
        )


@dataclass(frozen=True)
class BatchEvaluation:
    """Columnar analytic predictions: DRAM traffic and regime per point."""

    dram_read_bytes: np.ndarray    # int64, (n,)
    dram_write_bytes: np.ndarray   # int64, (n,)
    regime: np.ndarray             # int8 regime codes, (n,)

    def __len__(self) -> int:
        return int(self.regime.shape[0])

    @property
    def dram_bytes(self) -> np.ndarray:
        return self.dram_read_bytes + self.dram_write_bytes

    def regime_names(self) -> List[str]:
        return [REGIME_NAMES[c] for c in self.regime]


# -- packed RIFF priority keys --------------------------------------------------
#
# The scalar recurrence ranks eviction victims by the tuple
# ``(alive, op - next_use, remaining_frequency)`` — lowest evicted first,
# insertion order breaking exact ties.  Packing the tuple into one int64
# (alive bit above a biased next-use-distance field above the frequency)
# preserves the full lexicographic order, so victim selection across all
# pressured points collapses to one column argmin per eviction round.

_FREQ_BITS = 20
_DIST_BITS = 32
_DIST_BIAS = 1 << (_DIST_BITS - 1)
_ALIVE_KEY = np.int64(1) << (_FREQ_BITS + _DIST_BITS)
_DEAD_KEY = np.int64(_DIST_BIAS) << _FREQ_BITS
#: Sentinel above every real key (masks non-candidates out of the argmin).
_MAX_KEY = np.int64(1) << 62


class _BatchProgram:
    """Array form of one model's capacity-recurrence inputs.

    Everything here depends only on the compiled program, so it is built
    once per model (see :func:`batch_program_for`) and shared by every
    batch: per-event packed priority keys for all tensors, the re-insert
    gate of read misses, and int64 views of the totals/output flags.
    """

    def __init__(self, model: AnalyticModel) -> None:
        program = model.program
        self.events: Tuple[Tuple[int, int, int], ...] = program.chord_events
        totals = tuple(f.total_bytes for f in program.tensors)
        consumers = tuple(f.consumer_indices for f in program.tensors)
        self.totals = np.asarray(totals, dtype=np.int64)
        self.is_output = np.asarray(
            [f.is_program_output for f in program.tensors], dtype=bool)
        self.n_tensors = len(totals)

        max_freq = max((len(cs) for cs in consumers), default=0)
        max_op = max((ev[2] for ev in self.events), default=0)
        if max_freq >= (1 << _FREQ_BITS) or max_op >= _DIST_BIAS:
            raise AnalyticUnsupported(
                f"program too deep for packed RIFF keys "
                f"(max consumer count {max_freq}, max op index {max_op})")

        ops = np.asarray([ev[2] for ev in self.events], dtype=np.int64)
        n_events = len(self.events)
        # prio_keys[t, e]: packed priority of tensor t at event e's op.
        keys = np.full((self.n_tensors, n_events), _DEAD_KEY, dtype=np.int64)
        for t, cs in enumerate(consumers):
            if not cs:
                continue
            cs_arr = np.asarray(cs, dtype=np.int64)
            j = np.searchsorted(cs_arr, ops, side="right")
            alive = j < len(cs_arr)
            nxt = cs_arr[np.minimum(j, len(cs_arr) - 1)]
            dist = ops - nxt                      # negative next-use distance
            freq = np.int64(len(cs_arr)) - j
            keys[t] = np.where(
                alive,
                _ALIVE_KEY + ((dist + _DIST_BIAS) << _FREQ_BITS) + freq,
                _DEAD_KEY,
            )
        self.prio_keys = keys
        # Read misses re-enter PRELUDE only while future consumers remain
        # — the same bisect gate read() applies point-wise.
        self.read_reinserts = tuple(
            kind == EV_READ and bisect_right(consumers[tid], op) < len(consumers[tid])
            for kind, tid, op in self.events
        )


def batch_program_for(model: AnalyticModel) -> _BatchProgram:
    """The array program of ``model``, cached on the model instance so
    its lifetime tracks the backend's model cache."""
    bp = getattr(model, "_batch_program", None)
    if bp is None:
        bp = _BatchProgram(model)
        model._batch_program = bp  # type: ignore[attr-defined]
    return bp


def replay_chord_batch(
    bp: _BatchProgram,
    capacity: np.ndarray,
    entries: np.ndarray,
    use_riff: np.ndarray,
    explicit_retire: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`~repro.analytic.capacity.replay_chord`.

    One column per evaluation point; every event advances all points at
    once.  Returns ``(dram_read_bytes, dram_write_bytes)`` int64 arrays,
    element-wise equal to the scalar recurrence at each column's knobs.
    """
    n_points = int(capacity.shape[0])
    n_tensors = bp.n_tensors
    cols = np.arange(n_points)
    capacity = capacity.astype(np.int64)
    entries = entries.astype(np.int64)

    # State matrices: resident/dirty prefix ends per (tensor, point), and
    # the insertion sequence number that stands in for dict order in the
    # scalar replay (RIFF ties keep the earliest-inserted resident).
    res = np.zeros((n_tensors, n_points), dtype=np.int64)
    dirty = np.zeros((n_tensors, n_points), dtype=np.int64)
    seq = np.zeros((n_tensors, n_points), dtype=np.int64)
    seq_ctr = np.zeros(n_points, dtype=np.int64)
    used = np.zeros(n_points, dtype=np.int64)
    n_res = np.zeros(n_points, dtype=np.int64)
    dram_r = np.zeros(n_points, dtype=np.int64)
    dram_w = np.zeros(n_points, dtype=np.int64)
    zeros = np.zeros(n_points, dtype=np.int64)

    def insert(tid: int, nbytes: np.ndarray, ev_i: int,
               make_dirty: bool) -> np.ndarray:
        nonlocal seq_ctr, used, n_res, dram_w
        active = nbytes > 0
        if not active.any():
            return zeros
        was_res = res[tid] > 0
        # Index-table bypass: a non-resident tensor offered while the
        # table is full never enters (scalar insert returns 0 outright).
        eligible = active & (was_res | (n_res < entries))
        ins = np.where(eligible, np.minimum(nbytes, capacity - used), 0)
        remaining = np.where(eligible, nbytes - ins, 0)
        need = eligible & use_riff & (remaining > 0)
        if need.any():
            ev_keys = bp.prio_keys[:, ev_i]           # (tensors,)
            incoming = ev_keys[tid]
            while True:
                # Candidate victims: resident tensors other than tid, in
                # columns still hungry for bytes.
                cand = (res > 0) & need[None, :]
                cand[tid] = False
                keys = np.where(cand, ev_keys[:, None], _MAX_KEY)
                best = keys.min(axis=0)
                evict = need & (best < incoming)
                if not evict.any():
                    break
                tie = (keys == best[None, :]) & cand
                victim = np.where(tie, seq, np.iinfo(np.int64).max
                                  ).argmin(axis=0)
                v_res = res[victim, cols]
                v_dirty = dirty[victim, cols]
                take = np.where(evict, np.minimum(remaining, v_res), 0)
                new_end = v_res - take
                writeback = np.where(evict, np.maximum(v_dirty - new_end, 0), 0)
                dram_w = dram_w + writeback
                res[victim, cols] = np.where(evict, new_end, v_res)
                dirty[victim, cols] = np.where(
                    evict, np.minimum(v_dirty, new_end), v_dirty)
                n_res = n_res - (evict & (new_end == 0))
                used = used - take
                ins = ins + take
                remaining = remaining - take
                # A column whose best candidate no longer outranks the
                # incoming tensor drops out for good (priorities of the
                # survivors only rise as the event's op is fixed).
                need = evict & (remaining > 0)
                if not need.any():
                    break
        grew = ins > 0
        res[tid] = res[tid] + ins
        used = used + ins
        if make_dirty:
            dirty[tid] = np.where(grew, res[tid], dirty[tid])
        became = grew & ~was_res
        seq[tid] = np.where(became, seq_ctr, seq[tid])
        seq_ctr = seq_ctr + became
        n_res = n_res + became
        return ins

    def retire(tid: int, mask: np.ndarray) -> None:
        nonlocal used, n_res, dram_w
        if not mask.any():
            return
        if bp.is_output[tid]:
            dram_w = dram_w + np.where(mask, dirty[tid], 0)
        used = used - np.where(mask, res[tid], 0)
        n_res = n_res - mask
        res[tid] = np.where(mask, 0, res[tid])
        dirty[tid] = np.where(mask, 0, dirty[tid])

    totals = bp.totals
    for ev_i, (kind, tid, _op) in enumerate(bp.events):
        n = totals[tid]
        if kind == EV_READ:
            hit = np.minimum(n, res[tid])
            miss = n - hit
            dram_r = dram_r + miss
            if bp.read_reinserts[ev_i]:
                insert(tid, miss, ev_i, make_dirty=False)
        elif kind == EV_WRITE:
            offered = np.full(n_points, n, dtype=np.int64)
            ins = insert(tid, offered, ev_i, make_dirty=True)
            dram_w = dram_w + (offered - ins)
        elif kind == EV_RETIRE:
            retire(tid, explicit_retire & (res[tid] > 0))
    for tid in range(n_tensors):
        retire(tid, res[tid] > 0)
    return dram_r, dram_w


def evaluate_batch(model: AnalyticModel, knobs: BatchKnobs) -> BatchEvaluation:
    """Price every knob row of ``knobs`` against ``model`` at once.

    Bit-identical to calling ``model.evaluate`` per row: the streaming
    and closed-form regimes are broadcast sums, and only the rows whose
    working set overflows capacity (or the index table) pay the
    vectorised recurrence.  Raises
    :class:`~repro.analytic.backend.AnalyticUnsupported` for event
    streams too deep for the packed priority keys (≥2^20 consumers of one
    tensor or ≥2^31 ops); such points are simulated.
    """
    n = len(knobs)
    program = model.program
    if program.kind == "oracle":
        return BatchEvaluation(
            dram_read_bytes=np.full(n, model._base_read, dtype=np.int64),
            dram_write_bytes=np.full(n, model._base_write, dtype=np.int64),
            regime=np.full(n, REGIME_STREAMING, dtype=np.int8),
        )

    swz = knobs.charge_swizzle
    read = np.full(n, model._base_read, dtype=np.int64)
    write = np.full(n, model._base_write, dtype=np.int64)
    read = read + np.where(swz, model._swizzle_bytes, 0)
    write = write + np.where(swz, model._swizzle_bytes, 0)

    peak_b_t, peak_c_t = model._peaks[True]
    peak_b_f, peak_c_f = model._peaks[False]
    retire = knobs.explicit_retire
    peak_bytes = np.where(retire, peak_b_t, peak_b_f)
    peak_count = np.where(retire, peak_c_t, peak_c_f)
    fits = ((peak_bytes <= knobs.capacity_bytes)
            & (peak_count <= knobs.chord_entries))

    read = read + np.where(fits, model._np_chord_read, 0)
    write = write + np.where(fits, model._np_chord_write, 0)
    regime = np.where(fits, REGIME_CLOSED_FORM, REGIME_RECURRENCE
                      ).astype(np.int8)

    pressured = np.flatnonzero(~fits)
    if pressured.size:
        bp = batch_program_for(model)
        sub = knobs.take(pressured)
        extra_r, extra_w = replay_chord_batch(
            bp, sub.capacity_bytes, sub.chord_entries,
            sub.use_riff, sub.explicit_retire)
        read[pressured] += extra_r
        write[pressured] += extra_w
    return BatchEvaluation(
        dram_read_bytes=read, dram_write_bytes=write, regime=regime)


# -- objective arrays -----------------------------------------------------------


def batch_objective_arrays(
    names: Sequence[str],
    model: AnalyticModel,
    evaluation: BatchEvaluation,
    cfg: AcceleratorConfig,
    chord_entries: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Vectorised :func:`repro.tuner.pareto.objective_values`.

    ``cfg`` carries the per-group constants (SRAM split, line size,
    bandwidth, MAC peak); ``chord_entries`` the per-point index-table
    sizes that the area objective depends on.  Each array reproduces the
    scalar objective float-for-float: the arithmetic runs in the same
    order on the same float64 values.
    """
    dram = evaluation.dram_bytes
    out: Dict[str, np.ndarray] = {}
    for name in names:
        if name == "runtime":
            compute_s = model.program.total_macs / cfg.peak_macs_per_s
            memory_s = dram / cfg.dram_bandwidth_bytes_per_s
            out[name] = np.maximum(compute_s, memory_s)
        elif name == "dram":
            out[name] = dram.astype(np.float64)
        elif name == "energy":
            onchip_j = sum(onchip_energy_j(
                onchip_accesses_of(model, cfg), cfg).values())
            out[name] = dram * DRAM_PJ_PER_BYTE * 1e-12 + onchip_j
        elif name == "area":
            if chord_entries is None:
                raise ValueError("area objective needs chord_entries")
            from dataclasses import replace
            uniq, inverse = np.unique(chord_entries, return_inverse=True)
            per_entry = np.asarray([
                chord_cost(replace(cfg, chord_entries=int(e))).total_mm2
                for e in uniq
            ])
            out[name] = per_entry[inverse]
        else:
            raise KeyError(f"unknown objective {name!r}")
    return out
