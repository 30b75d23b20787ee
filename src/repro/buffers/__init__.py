"""Buffer models the simulator runs: the set-associative cache behind the
Flex+LRU/BRRIP baselines (LRU/SRRIP/BRRIP policies) and the credit-based
buffet that table3's live check drives.  CHORD lives in
:mod:`repro.chord`; the pipeline-buffer, hold and register-file capacity
rules live in :mod:`repro.score.binding`."""

from .base import BufferStats
from .cache import (
    ReplacementPolicy,
    SetAssociativeCache,
    VectorReplacementPolicy,
)
from .lru import LruPolicy
from .brrip import BrripPolicy
from .srrip import SrripPolicy
from .buffet import Buffet, BuffetError

__all__ = [
    "BufferStats",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "VectorReplacementPolicy",
    "LruPolicy",
    "BrripPolicy",
    "SrripPolicy",
    "Buffet",
    "BuffetError",
]
