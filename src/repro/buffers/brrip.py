"""Bimodal Re-Reference Interval Prediction (BRRIP) replacement.

Jaleel et al., ISCA 2010 [19].  Each way holds an RRPV (re-reference
prediction value) in [0, 2^bits - 1]:

* fill: RRPV = max (distant) with high probability, max-1 (long) with low
  probability ``1/bimodal_throttle`` — this is the *bimodal* insertion that
  resists scanning;
* hit: RRPV = 0 (near-immediate re-reference, hit promotion);
* victim: first way with RRPV == max, ageing all ways (+1) until one
  appears.

The throttle uses a deterministic counter rather than an RNG so simulations
are reproducible.  The counter is global across sets and shared by both the
scalar (reference) and vectorized backends: the vectorized fill hook is
handed fills in trace order precisely so the c-th fill overall gets the
same long/distant decision either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class _BrripSet:
    rrpv: List[int]


@dataclass
class _RrpvMatrix:
    """Array state: one RRPV per (set, way)."""

    rrpv: np.ndarray            # (n_sets, assoc) int16


class BrripPolicy:
    """BRRIP with ``bits``-wide RRPVs and 1/``bimodal_throttle`` long-RRPV
    insertions."""

    name = "brrip"

    def __init__(self, bits: int = 2, bimodal_throttle: int = 32) -> None:
        if bits < 1:
            raise ValueError("rrpv bits must be >= 1")
        if bimodal_throttle < 1:
            raise ValueError("bimodal_throttle must be >= 1")
        self.max_rrpv = (1 << bits) - 1
        self.throttle = bimodal_throttle
        self._fill_counter = 0

    # -- scalar reference backend ------------------------------------------------

    def make_set_state(self, assoc: int) -> _BrripSet:
        return _BrripSet(rrpv=[self.max_rrpv] * assoc)

    def on_hit(self, state: _BrripSet, way: int) -> None:
        state.rrpv[way] = 0

    def choose_victim(self, state: _BrripSet) -> int:
        rrpv = state.rrpv
        while True:
            for w, v in enumerate(rrpv):
                if v >= self.max_rrpv:
                    return w
            for w in range(len(rrpv)):
                rrpv[w] += 1

    def on_fill(self, state: _BrripSet, way: int) -> None:
        self._fill_counter += 1
        if self._fill_counter % self.throttle == 0:
            state.rrpv[way] = self.max_rrpv - 1  # rare "long" insertion
        else:
            state.rrpv[way] = self.max_rrpv      # common "distant" insertion

    # -- vectorized backend --------------------------------------------------------

    def make_vector_state(self, n_sets: int, assoc: int) -> _RrpvMatrix:
        return _RrpvMatrix(
            rrpv=np.full((n_sets, assoc), self.max_rrpv, dtype=np.int16)
        )

    def vec_on_hit(self, state: _RrpvMatrix, rows: np.ndarray,
                   ways: np.ndarray, times: np.ndarray) -> None:
        state.rrpv[rows, ways] = 0

    def vec_choose_victims(self, state: _RrpvMatrix, rows: np.ndarray) -> np.ndarray:
        """Victim way per set row; ``rows`` must be unique within the batch.

        The scalar loop ages every way until one reaches max RRPV and picks
        the first such way.  Uniform ageing preserves the row's ordering, so
        the victim is the first row maximum (``argmax``) and the aged state
        is the row shifted up to put that maximum at max RRPV.
        """
        sub = state.rrpv[rows]                        # (k, assoc) copy
        rowmax = sub.max(axis=1)
        victims = np.argmax(sub, axis=1)
        state.rrpv[rows] = sub + (self.max_rrpv - rowmax)[:, None].astype(np.int16)
        return victims

    def vec_on_fill(self, state: _RrpvMatrix, rows: np.ndarray,
                    ways: np.ndarray, times: np.ndarray) -> None:
        """Fill a batch of (set, way) slots; fills MUST be in trace order so
        the global bimodal counter assigns the same rare "long" insertions
        as the scalar backend."""
        k = len(ways)
        if k == 0:
            return
        vals = self._fill_counter + 1 + np.arange(k, dtype=np.int64)
        long_ins = (vals % self.throttle) == 0
        state.rrpv[rows, ways] = np.where(
            long_ins, self.max_rrpv - 1, self.max_rrpv
        ).astype(np.int16)
        self._fill_counter += k
