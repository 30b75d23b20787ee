"""Tensor specifications: shape, layout, dtype and sparsity.

``TensorSpec`` is the unit the whole system reasons about — SCORE classifies
reuse per tensor, CHORD allocates/replaces per tensor, and the address map
assigns each tensor one contiguous global range (a property CHORD exploits to
avoid per-line tags, Sec. VI-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .ranks import Rank


class Layout(enum.Enum):
    """Storage layout of a (dense) tensor in the global address map.

    The layout is identified by the rank that varies fastest; for the
    two-dimensional tensors in the paper's workloads this is row-major vs
    column-major.  SCORE's swizzle minimization tries to give every consumer
    of a tensor the same layout the producer wrote (Challenge 4).
    """

    ROW_MAJOR = "row_major"
    COL_MAJOR = "col_major"

    def flipped(self) -> "Layout":
        return Layout.COL_MAJOR if self is Layout.ROW_MAJOR else Layout.ROW_MAJOR


class SparseFormat(enum.Enum):
    """Compressed formats supported for sparse operands (Sec. V-B)."""

    DENSE = "dense"
    CSR = "csr"
    CSC = "csc"


@dataclass(frozen=True)
class Sparsity:
    """Sparsity descriptor for a tensor.

    ``nnz`` is the number of stored values.  The footprint model charges
    ``nnz`` values + ``nnz`` coordinate indices + (rows+1) offsets, matching
    CSR/CSC storage; metadata words use ``index_bytes`` each.
    """

    format: SparseFormat = SparseFormat.DENSE
    nnz: Optional[int] = None
    index_bytes: int = 4

    def __post_init__(self) -> None:
        if self.format is not SparseFormat.DENSE and self.nnz is None:
            raise ValueError("sparse tensors must declare nnz")
        if self.nnz is not None and self.nnz < 0:
            raise ValueError("nnz must be non-negative")

    @property
    def is_sparse(self) -> bool:
        return self.format is not SparseFormat.DENSE


DENSE = Sparsity()


@dataclass(frozen=True)
class TensorSpec:
    """A tensor operand/result in the dependency DAG.

    Parameters
    ----------
    name:
        Unique identifier within one program (e.g. ``"S"``, ``"P@2"``).
    ranks:
        Ordered tuple of :class:`Rank` giving the logical shape.
    word_bytes:
        Bytes per element (4 for CG/GNN, 2 for ResNet — Table VII).
    sparsity:
        Sparse storage descriptor; dense by default.
    layout:
        Row-/column-major placement in the global address map.
    """

    name: str
    ranks: Tuple[Rank, ...]
    word_bytes: int = 4
    sparsity: Sparsity = DENSE
    layout: Layout = Layout.ROW_MAJOR

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tensor must be named")
        if self.word_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported word size {self.word_bytes}")
        if len(self.ranks) == 0:
            raise ValueError(f"tensor {self.name!r} needs at least one rank")

    # -- shape ------------------------------------------------------------

    @property
    def rank_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in self.ranks)

    def has_rank(self, name: str) -> bool:
        return any(r.name == name for r in self.ranks)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(r.size for r in self.ranks)

    @property
    def n_elements(self) -> int:
        out = 1
        for r in self.ranks:
            out *= r.size
        return out

    # -- storage footprint -------------------------------------------------

    @property
    def stored_elements(self) -> int:
        """Number of stored values (nnz for sparse, dense volume otherwise)."""
        if self.sparsity.is_sparse:
            assert self.sparsity.nnz is not None
            return self.sparsity.nnz
        return self.n_elements

    @cached_property
    def bytes(self) -> int:
        """Total footprint in bytes, including sparse metadata, computed
        once per spec (the spec is frozen).

        CSR/CSC storage = nnz values + nnz column/row indices + (major+1)
        offsets.  This is the quantity every DRAM-traffic model streams.
        """
        if not self.sparsity.is_sparse:
            return self.n_elements * self.word_bytes
        nnz = self.stored_elements
        major = self.ranks[0].size if self.sparsity.format is SparseFormat.CSR else self.ranks[-1].size
        values = nnz * self.word_bytes
        coords = nnz * self.sparsity.index_bytes
        offsets = (major + 1) * self.sparsity.index_bytes
        return values + coords + offsets

    def lines(self, line_bytes: int) -> int:
        """Footprint in cache lines of ``line_bytes`` (ceil)."""
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        return -(-self.bytes // line_bytes)

    # -- classification helpers ---------------------------------------------

    @property
    def aspect_ratio(self) -> float:
        """max extent / min extent — skew measure (Sec. III-A)."""
        sizes = [r.size for r in self.ranks]
        return max(sizes) / min(sizes)

    @property
    def is_skewed(self) -> bool:
        """True when one dimension dwarfs another (paper's M×N operands)."""
        return self.aspect_ratio >= 64.0

    def describe(self) -> str:
        dims = "x".join(str(r.size) for r in self.ranks)
        tag = f"[{self.sparsity.format.value} nnz={self.sparsity.nnz}]" if self.sparsity.is_sparse else ""
        return f"{self.name}({dims}){tag}"


def dense_tensor(
    name: str,
    ranks: Tuple[Rank, ...],
    word_bytes: int = 4,
    layout: Layout = Layout.ROW_MAJOR,
) -> TensorSpec:
    """Shorthand for a dense tensor spec."""
    return TensorSpec(name=name, ranks=ranks, word_bytes=word_bytes, layout=layout)


def csr_tensor(
    name: str,
    ranks: Tuple[Rank, ...],
    nnz: int,
    word_bytes: int = 4,
    index_bytes: int = 4,
) -> TensorSpec:
    """Shorthand for a CSR sparse tensor spec."""
    return TensorSpec(
        name=name,
        ranks=ranks,
        word_bytes=word_bytes,
        sparsity=Sparsity(SparseFormat.CSR, nnz=nnz, index_bytes=index_bytes),
    )
