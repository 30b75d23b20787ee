"""Consistent hashing for the sharded simulation fabric.

The gateway routes every sweep point to a shard by hashing its *traffic
key* (the same string the result store keys on) onto a ring of virtual
nodes.  Consistent hashing is what makes the fabric's two core
guarantees compose:

* **Single-flight stays local.**  All bandwidth variants of a point
  share one traffic key, so they land on one shard — that shard's
  in-flight table dedups them exactly as a single daemon would, with no
  cross-shard locks.
* **Shard death moves only the dead shard's keys.**  Removing a shard
  from the ring reassigns *only* the keys it owned (~1/N of the total);
  every other key keeps its owner, so survivors' warm stores stay hot
  through a requeue.

Hashes are :func:`hashlib.blake2b` digests — deterministic across
processes, interpreter restarts and ``PYTHONHASHSEED`` values, unlike
builtin ``hash()``.  Determinism matters: a gateway restarted against
the same shard set must route every key to the same shard so warm
resubmissions find their results (pinned by ``tests/test_hashing.py``).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple

#: Virtual nodes per shard.  More replicas smooth the key distribution
#: (stddev ~ 1/sqrt(replicas)); 64 keeps ring construction trivial while
#: bounding shard imbalance to a few percent on realistic key counts.
DEFAULT_REPLICAS = 64


def stable_hash(text: str) -> int:
    """64-bit process-independent hash of ``text``.

    ``blake2b`` with an 8-byte digest: cryptographic-quality dispersion
    at ~100ns per key, and — unlike ``hash()`` — identical in every
    Python process regardless of ``PYTHONHASHSEED``.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class EmptyRing(ValueError):
    """Every shard has been removed (or none were supplied)."""


class HashRing:
    """An immutable consistent-hash ring over named shards.

    ``shards`` are opaque identifier strings (the gateway uses
    ``host:port`` addresses).  Each shard owns :data:`DEFAULT_REPLICAS`
    virtual nodes; a key is assigned to the shard owning the first
    virtual node clockwise of the key's hash.  Duplicate shard ids are
    rejected — silently collapsing them would skew the distribution.
    """

    def __init__(self, shards: Sequence[str]) -> None:
        shard_list = list(shards)
        if not shard_list:
            raise EmptyRing("a hash ring needs at least one shard")
        if len(set(shard_list)) != len(shard_list):
            raise ValueError(f"duplicate shard ids in {shard_list!r}")
        self.shards: Tuple[str, ...] = tuple(shard_list)
        nodes: List[Tuple[int, str]] = []
        for shard in self.shards:
            for i in range(DEFAULT_REPLICAS):
                # Ties (astronomically rare with 64-bit positions) break
                # on the shard id, keeping assignment order-independent.
                nodes.append((stable_hash(f"{shard}#{i}"), shard))
        nodes.sort()
        self._positions = [pos for pos, _ in nodes]
        self._owners = [shard for _, shard in nodes]

    def assign(self, key: str) -> str:
        """The shard owning ``key`` (first virtual node clockwise)."""
        idx = bisect.bisect_right(self._positions, stable_hash(key))
        if idx == len(self._positions):
            idx = 0  # wrap around the ring
        return self._owners[idx]

    def __contains__(self, shard: object) -> bool:
        return shard in self.shards

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        return f"HashRing({list(self.shards)!r})"
