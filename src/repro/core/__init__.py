"""Core IR: ranks, tensors, einsum ops, the dependency DAG and Algorithm 2."""

from .ranks import Rank, RankSpace, make_ranks, volume
from .tensor import (
    DENSE,
    Layout,
    SparseFormat,
    Sparsity,
    TensorSpec,
    csr_tensor,
    dense_tensor,
)
from .einsum import EinsumOp, OpKind
from .dag import Edge, FrozenDagError, TensorDag
from .dominance import (
    DOMINANCE_RATIO,
    Dominance,
    NodeDominance,
    classify_dominance,
    shares_dominant_rank,
)
from .classify import ClassifiedDag, DependencyType, classify_dependencies
from .intensity import (
    Roofline,
    best_arithmetic_intensity,
    best_arithmetic_intensity_words,
    effective_intensity,
    gemm_macs,
    gemm_min_dram_words,
    skewed_limit_words,
)

__all__ = [
    "Rank",
    "RankSpace",
    "make_ranks",
    "volume",
    "DENSE",
    "Layout",
    "SparseFormat",
    "Sparsity",
    "TensorSpec",
    "csr_tensor",
    "dense_tensor",
    "EinsumOp",
    "OpKind",
    "Edge",
    "FrozenDagError",
    "TensorDag",
    "DOMINANCE_RATIO",
    "Dominance",
    "NodeDominance",
    "classify_dominance",
    "shares_dominant_rank",
    "ClassifiedDag",
    "DependencyType",
    "classify_dependencies",
    "Roofline",
    "best_arithmetic_intensity",
    "best_arithmetic_intensity_words",
    "effective_intensity",
    "gemm_macs",
    "gemm_min_dram_words",
    "skewed_limit_words",
]
