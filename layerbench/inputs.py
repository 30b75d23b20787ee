"""Seeded request streams for the benchmark's workloads.

Every request is an ordinary ``sweep`` submission over paper-scale
registry workloads, and its shape — workloads and configurations per
request, the bandwidth axis — is copied from traffic the repository
itself sends:

* :data:`SMOKE` is the sweep ``tools/fabric_smoke.py`` sends through a
  gateway in CI: four workload families × Flexagon/CELLO at 1000 GB/s,
  8 points.
* :data:`QUICKSTART` is the ``repro submit --workloads 'cg/*' --configs
  Flexagon,CELLO`` example of ``docs/service.md``, with ``cg/*`` written
  out as the six CG workloads it matches: 12 points.
* :data:`FIG12` is one panel of ``experiments/fig12_cg_performance.py``:
  a CG workload × the five main configurations × 250/1000 GB/s, 10 points
  over 5 traffic keys.  Of fig12's six panels only fv1 at N=1 fits a
  run: its cache baselines replay in ~0.2 s a point, the other panels'
  in 1.3-5 s.

The cold workloads keep a shape but give every request an SRAM size no
earlier request used, so every point is a fresh traffic key and must be
simulated.  The sizes are 4 MiB ± 0.5 MiB in 512-byte steps (2048
sizes, all exact in binary floating point), so cache geometry, and with
it simulation cost, barely moves.  The warm workload is the docs' warm
resubmission of the quickstart grid, simulated during set-up, at one of
fig12's two bandwidths: bandwidth is not part of a traffic key, so
every point is a store hit, re-timed by the roofline model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

WORKLOADS = ("smoke-cold", "fig12-cold", "warm")


@dataclass(frozen=True)
class Request:
    """One sweep submission: the cartesian product of its axes."""

    workloads: Tuple[str, ...]
    configs: Tuple[str, ...]
    sram_mb: Tuple[float, ...] = (4.0,)
    bandwidth_gb: Tuple[float, ...] = (1000.0,)

    def points(self) -> List[Tuple[str, str, int, float]]:
        """(workload, config, sram_bytes, bandwidth_bytes_per_s) in the
        service's enumeration order."""
        return [(w, c, int(s * (1 << 20)), b * 1e9)
                for w in self.workloads for c in self.configs
                for s in self.sram_mb for b in self.bandwidth_gb]


SMOKE = Request(("cg/fv1/N=1", "bicgstab/fv1/N=1", "gnn/cora", "mg/fv1/N=1"),
                ("Flexagon", "CELLO"))
QUICKSTART = Request(
    tuple(f"cg/{m}/N={n}" for m in ("fv1", "shallow_water1", "G2_circuit")
          for n in (1, 16)),
    ("Flexagon", "CELLO"))
FIG12 = Request(("cg/fv1/N=1",),
                ("Flexagon", "Flex+LRU", "Flex+BRRIP", "FLAT", "CELLO"),
                bandwidth_gb=(250.0, 1000.0))

#: The DAGs the per-layer ladder times every engine layer on: the smoke
#: grid's four families, which include fig12's cg/fv1/N=1.
LADDER_WORKLOADS = SMOKE.workloads

_SRAM_STEPS = 2048
_SRAM_STEP_MB = 1.0 / 2048


def _cold(rng: random.Random, shape: Request) -> Iterator[Request]:
    steps = list(range(-_SRAM_STEPS // 2, _SRAM_STEPS // 2))
    rng.shuffle(steps)
    for step in steps:
        yield replace(shape, sram_mb=(4.0 + step * _SRAM_STEP_MB,))
    raise RuntimeError("cold request stream exhausted its SRAM sizes")


def _warm(rng: random.Random) -> Iterator[Request]:
    while True:
        yield replace(QUICKSTART,
                      bandwidth_gb=(rng.choice(FIG12.bandwidth_gb),))


def request_stream(workload: str, seed: int) -> Iterator[Request]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "smoke-cold":
        return _cold(rng, SMOKE)
    if workload == "fig12-cold":
        return _cold(rng, FIG12)
    if workload == "warm":
        return _warm(rng)
    raise ValueError(f"unknown workload {workload!r}")
