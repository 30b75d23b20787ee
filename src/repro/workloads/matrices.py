"""Sparse-matrix datasets (Table VI) and synthetic generators.

The paper pulls fv1, shallow_water1, G2_circuit and NASA4704 from
SuiteSparse and the GNN graphs from OMEGA.  With no network access we keep
the *exact* (M, nnz) the paper reports — those are the only quantities the
cost model consumes — and provide synthetic SPD generators producing
matrices of matching shape/occupancy for the numeric solvers:

* ``poisson2d`` — 5-point stencil (classic SPD model problem);
* ``stencil9`` — 9-point stencil (≈9 nnz/row, fv1-like);
* ``banded_spd`` — diagonal + symmetric bands at configurable occupancy
  (shallow_water1 has exactly 4 nnz/row, NASA4704 ~22);
* ``random_symmetric_spd`` — random symmetric pattern + diagonal dominance
  (G2_circuit-like irregular occupancy).

Only these generators need SciPy, so they import it themselves: the
cost model reads a :class:`MatrixSpec` and never loads ``scipy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class MatrixSpec:
    """Shape/occupancy record for one dataset (what the cost model uses)."""

    name: str
    m: int
    nnz: int
    description: str = ""

    @property
    def nnz_per_row(self) -> float:
        """Mean stored entries per row — the SpMM's effective contracted
        extent (what makes the CG SpMM ``U``-dominant, Fig. 7)."""
        return self.nnz / self.m

    def csr_bytes(self, word_bytes: int = 4, index_bytes: int = 4) -> int:
        """CSR footprint: values + column indices + row offsets (the
        quantity every DRAM-traffic model streams for the operand A)."""
        return self.nnz * (word_bytes + index_bytes) + (self.m + 1) * index_bytes


#: Table VI datasets (paper-exact M and nnz).
FV1 = MatrixSpec("fv1", m=9604, nnz=85264, description="2D/3D problem")
SHALLOW_WATER1 = MatrixSpec(
    "shallow_water1", m=81920, nnz=327680, description="fluid dynamics"
)
G2_CIRCUIT = MatrixSpec("G2_circuit", m=150102, nnz=726674, description="circuit sim")
NASA4704 = MatrixSpec("NASA4704", m=4704, nnz=104756, description="structures (Fig. 13)")
CORA_GRAPH = MatrixSpec("cora", m=2708, nnz=9464, description="GCN citation graph")
PROTEIN_GRAPH = MatrixSpec("protein", m=3786, nnz=14456, description="GCN protein graph")

DATASETS: Dict[str, MatrixSpec] = {
    s.name: s
    for s in (FV1, SHALLOW_WATER1, G2_CIRCUIT, NASA4704, CORA_GRAPH, PROTEIN_GRAPH)
}


# -- generators -------------------------------------------------------------------


def poisson2d(side: int) -> sp.csr_matrix:
    """5-point Laplacian on a ``side`` × ``side`` grid (SPD)."""
    import scipy.sparse as sp

    if side <= 0:
        raise ValueError("side must be positive")
    n = side * side
    main = 4.0 * np.ones(n)
    off1 = -np.ones(n - 1)
    # Remove couplings across grid-row boundaries.
    off1[np.arange(1, n) % side == 0] = 0.0
    offs = -np.ones(n - side)
    a = sp.diags(
        [main, off1, off1, offs, offs],
        [0, -1, 1, -side, side],
        format="csr",
    )
    return a.tocsr()


def stencil9(side: int) -> sp.csr_matrix:
    """9-point Laplacian on a ``side`` × ``side`` grid (SPD, ~9 nnz/row)."""
    import scipy.sparse as sp

    if side <= 0:
        raise ValueError("side must be positive")
    n = side * side
    rows, cols, vals = [], [], []
    for i in range(side):
        for j in range(side):
            r = i * side + j
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < side and 0 <= jj < side:
                        c = ii * side + jj
                        rows.append(r)
                        cols.append(c)
                        vals.append(8.0 if c == r else -1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def banded_spd(m: int, bands: int, band_offsets: Optional[Tuple[int, ...]] = None) -> sp.csr_matrix:
    """Diagonal + ``bands`` symmetric off-diagonal pairs, diagonally dominant.

    nnz ≈ m * (1 + 2*bands) minus boundary truncation; choose
    ``bands = (target_nnz/m - 1) / 2``.
    """
    import scipy.sparse as sp

    if m <= 0 or bands < 0:
        raise ValueError("m must be positive, bands non-negative")
    if band_offsets is None:
        # Spread offsets: 1, ~sqrt(m), multiples thereof — keeps bandwidth
        # realistic for stencil-like problems.
        step = max(1, int(math.sqrt(m)))
        band_offsets = tuple(1 + k * step for k in range(bands))
    diags = [np.full(m, 2.0 * (1 + 2 * len(band_offsets)))]
    offsets = [0]
    for off in band_offsets:
        if off >= m:
            continue
        v = -np.ones(m - off)
        diags.extend([v, v])
        offsets.extend([-off, off])
    return sp.diags(diags, offsets, format="csr").tocsr()


def random_symmetric_spd(m: int, nnz_target: int, seed: int = 0) -> sp.csr_matrix:
    """Random symmetric pattern + dominant diagonal (SPD by Gershgorin).

    Total nnz lands within a few percent of ``nnz_target`` (diagonal
    included); entries are -1 with a dominant positive diagonal.
    """
    import scipy.sparse as sp

    if nnz_target < m:
        raise ValueError("nnz_target must be at least m (the diagonal)")
    rng = np.random.default_rng(seed)
    off_pairs = max(0, (nnz_target - m) // 2)
    rows = rng.integers(0, m, size=off_pairs)
    cols = rng.integers(0, m, size=off_pairs)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    v = -np.ones(r.size)
    off = sp.csr_matrix((v, (r, c)), shape=(m, m))
    off.sum_duplicates()
    off.data[:] = -1.0
    degree = np.abs(off).sum(axis=1).A1
    a = off + sp.diags(degree + 1.0)
    return a.tocsr()


def graph_adjacency(m: int, nnz_target: int, seed: int = 0) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency with self-loops (GCN-style Â), ~nnz_target."""
    a = random_symmetric_spd(m, max(nnz_target, m), seed=seed)
    a = a.tocsr()
    a.data[:] = 1.0
    return a


def _trim_to_nnz(a: sp.csr_matrix, target_nnz: int, seed: int = 0) -> sp.csr_matrix:
    """Remove random symmetric off-diagonal pairs until nnz ≈ target.

    Diagonal entries are never removed and the generators keep the diagonal
    dominant over the *untrimmed* rows, so SPD-ness survives trimming.
    """
    import scipy.sparse as sp

    a = a.tocoo()
    excess = a.nnz - target_nnz
    if excess <= 0:
        return a.tocsr()
    upper = np.flatnonzero(a.row < a.col)
    rng = np.random.default_rng(seed)
    kill_pairs = min(len(upper), excess // 2)
    chosen = rng.choice(upper, size=kill_pairs, replace=False)
    pair_key = {(int(a.row[i]), int(a.col[i])) for i in chosen}
    keep = np.ones(a.nnz, dtype=bool)
    for i in range(a.nnz):
        r, c = int(a.row[i]), int(a.col[i])
        if (r, c) in pair_key or (c, r) in pair_key:
            keep[i] = False
    out = sp.csr_matrix(
        (a.data[keep], (a.row[keep], a.col[keep])), shape=a.shape
    )
    return out


def synthesize(spec: MatrixSpec, seed: int = 0) -> sp.csr_matrix:
    """Generate an SPD/graph matrix matching ``spec``'s shape and occupancy.

    The generator is chosen by occupancy pattern, then trimmed to within a
    few percent of the paper's nnz (tests pin ±20 %).
    """
    per_row = spec.nnz_per_row
    if spec.name in ("cora", "protein"):
        return graph_adjacency(spec.m, spec.nnz, seed=seed)
    side = int(round(math.sqrt(spec.m)))
    if side * side == spec.m and 8.0 <= per_row <= 10.0:
        return _trim_to_nnz(stencil9(side), spec.nnz, seed=seed)
    if side * side == spec.m and 4.0 <= per_row < 6.0:
        return _trim_to_nnz(poisson2d(side), spec.nnz, seed=seed)
    if per_row < 6.0 or per_row >= 15.0:
        bands = max(1, int(math.ceil((per_row - 1) / 2)))
        return _trim_to_nnz(banded_spd(spec.m, bands), spec.nnz, seed=seed)
    return random_symmetric_spd(spec.m, spec.nnz, seed=seed)


def spec_of(matrix: sp.spmatrix, name: str = "custom") -> MatrixSpec:
    """Measure a concrete matrix into a :class:`MatrixSpec`."""
    csr = matrix.tocsr()
    return MatrixSpec(name=name, m=csr.shape[0], nnz=int(csr.nnz))
