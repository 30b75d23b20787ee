"""Workload registry: the evaluation matrix in code.

Every benchmark pulls its DAGs from here so experiments stay consistent
with the paper's parameters (Table VII: 10 CG iterations, N ∈ {1, 16},
4-byte CG/GNN words, 2-byte ResNet words).  Beyond the paper's four
Table VI families (CG, BiCGStab, GNN, ResNet) the registry carries three
*extension* families — transformer encoder blocks, restarted GMRES(m),
and 2-level multigrid V-cycles — that stress reuse signatures outside
the paper's curated set (see ``docs/workloads.md``).

This module is the single extension point for new families: a family is
a ``<family>_workload(...) -> Workload`` factory whose *name* encodes
every DAG-shaping parameter, plus a :func:`resolve_workload` clause that
parses the name back.  The name is the memoisation key of the result
store and the payload the parallel workers rebuild DAGs from, so the
factory/resolver pair must round-trip exactly (``docs/extending.md``
walks through authoring one end-to-end).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from ..core.dag import TensorDag
from ..sim.phases import timed
from .bicgstab import BiCgStabProblem, build_bicgstab_dag
from .cg import CgProblem, build_cg_dag
from .gmres import GmresProblem, build_gmres_dag
from .gnn import GnnProblem, build_gnn_dag, cora_problem, protein_problem
from .matrices import (
    DATASETS,
    FV1,
    G2_CIRCUIT,
    NASA4704,
    SHALLOW_WATER1,
    MatrixSpec,
)
from .multigrid import MultigridProblem, build_multigrid_dag
from .random_dag import RandomDagProblem, build_random_dag
from .resnet import ResNetBlockProblem, build_resnet_block_dag
from .transformer import TransformerProblem, build_transformer_dag

#: Datasets evaluated with CG in Fig. 12.
CG_DATASETS: Tuple[MatrixSpec, ...] = (FV1, SHALLOW_WATER1, G2_CIRCUIT)
#: Datasets evaluated with BiCGStab in Fig. 13 (N = 1).
BICGSTAB_DATASETS: Tuple[MatrixSpec, ...] = (NASA4704, FV1, SHALLOW_WATER1)
#: N sweep for CG (Table VII).
CG_N_VALUES: Tuple[int, ...] = (1, 16)
#: CG-loop iterations (Table VII).
CG_ITERATIONS: int = 10
#: Default Krylov dimension per GMRES restart cycle (extension family).
GMRES_RESTART_DIM: int = 8
#: Default GMRES restart count (extension family).
GMRES_RESTARTS: int = 2
#: Default multigrid V-cycle count (extension family).
MG_CYCLES: int = 2
#: Datasets the extension solver families default to (one small, one
#: large, both with paper-exact occupancy).
EXT_DATASETS: Tuple[MatrixSpec, ...] = (FV1, SHALLOW_WATER1)


@dataclass(frozen=True)
class Workload:
    """A named, fully-parameterised DAG builder.

    ``name`` is canonical: equal name ⇒ equal DAG.  It is the key of the
    runner's memoisation and the persistent result store, and the string
    the orchestrator's parallel workers rebuild the DAG from — the
    ``build`` closure itself is never pickled.
    """

    name: str
    family: str    # "cg" | "bicgstab" | "gnn" | "resnet" | extension family
    build: Callable[[], TensorDag]
    description: str = ""


def cg_workload(matrix: MatrixSpec, n: int,
                iterations: int = CG_ITERATIONS) -> Workload:
    """Block CG on ``matrix`` (paper anchor: Table VI rows 1-3, Fig. 12)."""
    problem = CgProblem(matrix=matrix, n=n, iterations=iterations)
    # The iteration count is part of the name so the runner's memoisation
    # never conflates different-length runs.
    suffix = "" if iterations == CG_ITERATIONS else f"@it{iterations}"
    return Workload(
        name=f"cg/{matrix.name}/N={n}{suffix}",
        family="cg",
        build=lambda: build_cg_dag(problem),
        description=f"block CG on {matrix.name} (M={matrix.m}, nnz={matrix.nnz}, N={n})",
    )


def bicgstab_workload(matrix: MatrixSpec, n: int = 1,
                      iterations: int = CG_ITERATIONS) -> Workload:
    """BiCGStab on ``matrix`` (paper anchor: Table VI row 4, Fig. 13)."""
    problem = BiCgStabProblem(matrix=matrix, n=n, iterations=iterations)
    suffix = "" if iterations == CG_ITERATIONS else f"@it{iterations}"
    return Workload(
        name=f"bicgstab/{matrix.name}/N={n}{suffix}",
        family="bicgstab",
        build=lambda: build_bicgstab_dag(problem),
        description=f"BiCGStab on {matrix.name} (M={matrix.m}, nnz={matrix.nnz}, N={n})",
    )


def gnn_workload(problem: GnnProblem) -> Workload:
    """One GCN layer (paper anchor: Table VI GNN rows, Fig. 13)."""
    return Workload(
        name=f"gnn/{problem.graph.name}",
        family="gnn",
        build=lambda: build_gnn_dag(problem),
        description=(
            f"GCN layer on {problem.graph.name} "
            f"(M={problem.graph.m}, N={problem.in_features}, O={problem.out_features})"
        ),
    )


def resnet_workload(problem: ResNetBlockProblem = ResNetBlockProblem()) -> Workload:
    """ResNet-50 conv3_x block (paper anchor: Table VI row 7, Fig. 16a)."""
    return Workload(
        name="resnet/conv3_x",
        family="resnet",
        build=lambda: build_resnet_block_dag(problem),
        description="ResNet-50 conv3_x residual block (ImageNet, 16-bit)",
    )


def transformer_workload(seq: int = 512, d_model: int = 512,
                         blocks: int = 1) -> Workload:
    """Transformer encoder block(s) — extension family (not in the paper).

    Name grammar ``xformer/s=<seq>/d=<d_model>[@x<blocks>]``; the head
    width and feed-forward width are derived (``d_model // 8`` and
    ``4 * d_model``) so the name stays round-trippable.  Reuse signature:
    two delayed-hold residual skips at different distances plus the
    softmax-normalizer broadcast (see :mod:`repro.workloads.transformer`).
    """
    problem = TransformerProblem(
        seq=seq, d_model=d_model, d_head=max(1, d_model // 8),
        d_ff=4 * d_model, blocks=blocks,
    )
    suffix = "" if blocks == 1 else f"@x{blocks}"
    return Workload(
        name=f"xformer/s={seq}/d={d_model}{suffix}",
        family="xformer",
        build=lambda: build_transformer_dag(problem),
        description=(
            f"transformer encoder block (seq={seq}, d_model={d_model}, "
            f"d_head={problem.d_head}, d_ff={problem.d_ff}, 16-bit)"
        ),
    )


def gmres_workload(matrix: MatrixSpec, m: int = GMRES_RESTART_DIM,
                   n: int = 1, restarts: int = GMRES_RESTARTS) -> Workload:
    """Restarted GMRES(m) — extension family (not in the paper).

    Name grammar ``gmres/<matrix>/m=<m>/N=<n>[@rs<restarts>]``.  Reuse
    signature: a growing Krylov basis whose every vector is re-read each
    Arnoldi step — all delayed-writeback, adversarial for LRU and the
    best case for RIFF's frequency hints (see
    :mod:`repro.workloads.gmres`).
    """
    problem = GmresProblem(matrix=matrix, m=m, n=n, restarts=restarts)
    suffix = "" if restarts == GMRES_RESTARTS else f"@rs{restarts}"
    return Workload(
        name=f"gmres/{matrix.name}/m={m}/N={n}{suffix}",
        family="gmres",
        build=lambda: build_gmres_dag(problem),
        description=(
            f"restarted GMRES({m}) on {matrix.name} "
            f"(M={matrix.m}, nnz={matrix.nnz}, N={n}, {restarts} restarts)"
        ),
    )


def multigrid_workload(matrix: MatrixSpec, n: int = 1,
                       cycles: int = MG_CYCLES) -> Workload:
    """2-level multigrid V-cycle — extension family (not in the paper).

    Name grammar ``mg/<matrix>/N=<n>[@cyc<cycles>]``.  Reuse signature:
    grid transfers force sequential/delayed-writeback hand-offs, the
    restricted residual is held across every coarse smoother sweep, and
    the pre-smoothed solution rides across the whole coarse excursion
    (see :mod:`repro.workloads.multigrid`).
    """
    problem = MultigridProblem(matrix=matrix, n=n, cycles=cycles)
    suffix = "" if cycles == MG_CYCLES else f"@cyc{cycles}"
    return Workload(
        name=f"mg/{matrix.name}/N={n}{suffix}",
        family="mg",
        build=lambda: build_multigrid_dag(problem),
        description=(
            f"2-level V-cycle on {matrix.name} "
            f"(M={matrix.m}->{problem.coarse_m}, N={n}, {cycles} cycles)"
        ),
    )


def random_dag_workload(seed: int, n_ops: int = 12, fanout: int = 2,
                        skew: int = 2) -> Workload:
    """Seeded random einsum DAG — fuzzing family (not in the paper).

    Name grammar ``rand/s=<seed>/ops=<n_ops>/f=<fanout>/k=<skew>`` (every
    parameter always present, so the name round-trips exactly).  Resolvable
    so property/differential tests can push random DAGs through the
    orchestrator's parallel workers, but deliberately absent from
    ``all_workloads()`` — fuzz inputs do not belong in the documented
    evaluation matrix (see :mod:`repro.workloads.random_dag`).
    """
    problem = RandomDagProblem(seed=seed, n_ops=n_ops, fanout=fanout, skew=skew)
    return Workload(
        name=f"rand/s={seed}/ops={n_ops}/f={fanout}/k={skew}",
        family="rand",
        build=lambda: build_random_dag(problem),
        description=(
            f"random einsum DAG (seed={seed}, {n_ops} ops, "
            f"fanout={fanout}, skew={skew})"
        ),
    )


def all_cg_workloads() -> Tuple[Workload, ...]:
    """Fig. 12's grid: 3 datasets × N ∈ {1, 16}."""
    return tuple(
        cg_workload(ds, n) for ds in CG_DATASETS for n in CG_N_VALUES
    )


def all_bicgstab_workloads() -> Tuple[Workload, ...]:
    """Fig. 13's BiCGStab panels (N = 1)."""
    return tuple(bicgstab_workload(ds, n=1) for ds in BICGSTAB_DATASETS)


def all_gnn_workloads() -> Tuple[Workload, ...]:
    """Fig. 13's GNN panels: cora and protein."""
    return (gnn_workload(cora_problem()), gnn_workload(protein_problem()))


def all_ext_workloads() -> Tuple[Workload, ...]:
    """The extension families' default grid: one transformer block plus
    GMRES and multigrid on the small/large PDE datasets."""
    return (
        transformer_workload(),
        *(gmres_workload(ds) for ds in EXT_DATASETS),
        *(multigrid_workload(ds) for ds in EXT_DATASETS),
    )


def all_workloads() -> Dict[str, Workload]:
    """Every registered workload, paper families first, keyed by name."""
    out: Dict[str, Workload] = {}
    for w in (
        *all_cg_workloads(),
        *all_bicgstab_workloads(),
        *all_gnn_workloads(),
        resnet_workload(),
        *all_ext_workloads(),
    ):
        out[w.name] = w
    return out


_SOLVER_NAME = re.compile(r"(cg|bicgstab)/([^/]+)/N=(\d+)(?:@it(\d+))?\Z")
_RAND_NAME = re.compile(r"rand/s=(\d+)/ops=(\d+)/f=(\d+)/k=(\d+)\Z")
_XFORMER_NAME = re.compile(r"xformer/s=(\d+)/d=(\d+)(?:@x(\d+))?\Z")
_GMRES_NAME = re.compile(r"gmres/([^/]+)/m=(\d+)/N=(\d+)(?:@rs(\d+))?\Z")
_MG_NAME = re.compile(r"mg/([^/]+)/N=(\d+)(?:@cyc(\d+))?\Z")


def _dataset(matrix_name: str, workload_name: str) -> MatrixSpec:
    spec = DATASETS.get(matrix_name)
    if spec is None:
        raise KeyError(
            f"unknown dataset {matrix_name!r} in workload {workload_name!r}"
        )
    return spec


def resolve_workload(name: str) -> Workload:
    """Rebuild a workload from its canonical name.

    The builders above encode every parameter in the name
    (``cg/<matrix>/N=<n>[@it<k>]``, ``bicgstab/...``, ``gnn/<graph>``,
    ``resnet/conv3_x``, ``xformer/s=<s>/d=<d>[@x<b>]``,
    ``gmres/<matrix>/m=<m>/N=<n>[@rs<r>]``,
    ``mg/<matrix>/N=<n>[@cyc<c>]``); this is the inverse.  It exists so a
    sweep point
    can be shipped across a process boundary as a plain string — the
    orchestrator's parallel workers rebuild the DAG from the name rather
    than pickling a ``Workload`` (whose ``build`` closure is not
    picklable).

    Raises :class:`KeyError` for names not produced by the builders here
    (hand-rolled workloads must be simulated in-process).
    """
    if name == "resnet/conv3_x":
        return resnet_workload()
    if name == "gnn/cora":
        return gnn_workload(cora_problem())
    if name == "gnn/protein":
        return gnn_workload(protein_problem())
    m = _SOLVER_NAME.match(name)
    if m:
        family, matrix_name, n, it = m.groups()
        spec = _dataset(matrix_name, name)
        iterations = int(it) if it else CG_ITERATIONS
        if family == "cg":
            return cg_workload(spec, int(n), iterations=iterations)
        return bicgstab_workload(spec, int(n), iterations=iterations)
    m = _XFORMER_NAME.match(name)
    if m:
        seq, d_model, blocks = m.groups()
        return transformer_workload(
            int(seq), int(d_model), blocks=int(blocks) if blocks else 1
        )
    m = _GMRES_NAME.match(name)
    if m:
        matrix_name, dim, n, rs = m.groups()
        return gmres_workload(
            _dataset(matrix_name, name), m=int(dim), n=int(n),
            restarts=int(rs) if rs else GMRES_RESTARTS,
        )
    m = _MG_NAME.match(name)
    if m:
        matrix_name, n, cyc = m.groups()
        return multigrid_workload(
            _dataset(matrix_name, name), n=int(n),
            cycles=int(cyc) if cyc else MG_CYCLES,
        )
    m = _RAND_NAME.match(name)
    if m:
        seed, n_ops, fanout, skew = (int(g) for g in m.groups())
        return random_dag_workload(seed, n_ops=n_ops, fanout=fanout, skew=skew)
    raise KeyError(f"cannot resolve workload name {name!r}")


def is_resolvable(name: str) -> bool:
    """True when :func:`resolve_workload` can rebuild ``name``."""
    try:
        resolve_workload(name)
    except KeyError:
        return False
    return True


#: Soft cap on memoised DAGs, evicted oldest-first like the analytic
#: backend's compiled-model cache.  Lower than that cache's cap because
#: an entry can carry its cache trace (~6 MB for cg/G2_circuit/N=16);
#: the trace footprint kept beside it has at most one interval per trace
#: row, and one on the fv1 solver traces.  The registry's evaluation
#: matrix is 15 names.
_DAG_CACHE_CAP = 64

_DAG_CACHE: Dict[str, TensorDag] = {}
#: Serialises misses (daemon executor threads and ``predict`` may race on
#: one name), so each name is built once per process and ``dag-build`` is
#: reported once.  Hits take no lock.
_DAG_LOCK = threading.Lock()


def workload_dag(workload: Workload) -> TensorDag:
    """The DAG of ``workload``, built once per process and shared.

    Registry names are memoised: the DAG is built through
    ``resolve_workload(name).build()`` (never the caller's closure, so
    equal names share one DAG) and frozen, and it keeps its derived
    caches (longest paths, SCORE's capacity-independent stages, the cache
    trace) across every later point.  A name :func:`resolve_workload`
    rejects (a hand-rolled workload) builds fresh on every call.
    """
    dag = _DAG_CACHE.get(workload.name)
    if dag is not None:
        return dag
    try:
        canonical = resolve_workload(workload.name)
    except KeyError:
        return workload.build()
    with _DAG_LOCK:
        dag = _DAG_CACHE.get(workload.name)
        if dag is None:
            dag = timed("dag-build", canonical.build).freeze()
            if len(_DAG_CACHE) >= _DAG_CACHE_CAP:
                _DAG_CACHE.pop(next(iter(_DAG_CACHE)))
            _DAG_CACHE[workload.name] = dag
    return dag


def clear_dag_cache() -> None:
    """Drop every memoised DAG (and with them their derived caches)."""
    _DAG_CACHE.clear()
