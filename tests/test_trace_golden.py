"""Golden digests of the cache trace.

The Flex+LRU/BRRIP/SRRIP baselines replay
:func:`~repro.sim.trace.program_trace_arrays` at the default config.  A
sha256 over its three arrays (values and dtypes) pins that stream, row
for row, for every documented workload and three random DAGs: two with
operands larger than the register file (interleaved streams) and one
whose operands all fit it.  Any change to the trace's order, slicing or
flavours moves a digest here before it moves a DRAM figure.
"""

import hashlib

import pytest

from repro.hw.config import AcceleratorConfig
from repro.sim.engine import address_map
from repro.sim.trace import program_trace_arrays
from repro.workloads.registry import all_workloads, resolve_workload

#: workload -> (rows, sha256 of the trace arrays at the default config).
GOLDEN_TRACE_DIGESTS = {
    "cg/fv1/N=1": (3270, "680549f390df2dd5e60ec764b143b92aa0d3c21b37fc17e0e9868a7079aa4b0e"),
    "cg/fv1/N=16": (23010, "7fa7c97ec8a3300f83c4f4a71a71afdccd2b6d3aa3cf89265d2b89db01db9877"),
    "cg/shallow_water1/N=1": (18520, "ab3c3a28022b073f41edbd8e37d582939a5372566b515c5674fdc636d7be1aa4"),
    "cg/shallow_water1/N=16": (186520, "9cb879bd74e4ca161e7e829068eb7af8ade02db6f15c588c5db591acc081c3d5"),
    "cg/G2_circuit/N=1": (36350, "4bb1c52d2f27a373d423d547e434a35079a74cb3317a22c9c213d831cabb9bba"),
    "cg/G2_circuit/N=16": (344210, "ddba61af76df40d9e6334e47c567425cff3cae852a5f60da6903d87ef4708fd6"),
    "bicgstab/NASA4704/N=1": (4510, "676d1c8e363b7d79affe6cc98070319668cd164ff93ba9dac69c90f41980a5cf"),
    "bicgstab/fv1/N=1": (5990, "91483d47420270c98027f4b8bad1dd3b11cd2d4cb00a520b937dca9b6b6e70ae"),
    "bicgstab/shallow_water1/N=1": (33690, "821d6b2c4fe308e83cd211b7b17463d565ed139c613236a40ea57fdef006e25c"),
    "gnn/cora": (11421, "313afc57f33590c5b67c9ac614b98df2f48b36b2d38a0c4397d3427cc38bad07"),
    "gnn/protein": (358, "7dead4587ac02d97bb2d68d981b77ed7282a8119e1c4a02f4380eac730dcf785"),
    "resnet/conv3_x": (1832, "13fa28f4b6765a5aa6c8844944569183144eccb8563ef4c4bf8f2040b8793ecc"),
    "xformer/s=512/d=512": (4802, "ef4f053076b1055bb676e113e304991e27f2416f9142664d507e5da6dec50d5d"),
    "gmres/fv1/m=8/N=1": (5780, "0d9ff701490d79f5a357694385205660172a353c395fc0c9855e7b0a7bc37339"),
    "gmres/shallow_water1/m=8/N=1": (33510, "f05d1b20ae64c89aee2cda9ace6805bed42bf0f988e6e4bc50b720b0b5223298"),
    "mg/fv1/N=1": (2650, "937ec1ddd2100fc8971c537448b6010ae1193509f8bb9acd31c66535baf7e2ac"),
    "mg/shallow_water1/N=1": (14256, "659924d7f99aed57bd81fcb3464305951a662c7127ad95322df4afae55a23fa7"),
    "rand/s=1/ops=16/f=2/k=8": (374, "9704dfe5feb3970ff836781b87b2b3b5bc976a2c94d70c3015571b2784746001"),
    "rand/s=2/ops=24/f=3/k=8": (1803, "bac2267d2fd1caeec75ae5aa9a474205c707e8b51d7cd5f9c9b4fa78f26803ab"),
    "rand/s=0/ops=12/f=2/k=2": (32, "5fec2f1d0f61a57f5af838d9dbe0c73cd7c3936ea10b07a41ee60442a65f00f8"),
}


def trace_digest(name):
    """Rows and sha256 of ``name``'s trace at the default config."""
    cfg = AcceleratorConfig()
    dag = resolve_workload(name).build()
    arrays = program_trace_arrays(dag, address_map(dag, cfg.line_bytes),
                                  cfg.rf_bytes)
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return arrays[0].size, h.hexdigest()


def test_every_documented_workload_is_pinned():
    assert set(all_workloads()) <= set(GOLDEN_TRACE_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
def test_trace_matches_golden_digest(name):
    assert trace_digest(name) == GOLDEN_TRACE_DIGESTS[name]
