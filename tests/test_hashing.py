"""Property tests for the consistent-hash ring the gateway routes on.

The fabric's correctness argument leans on three ring properties, so
each is pinned directly rather than assumed:

* **Leave/join stability** — removing a shard reassigns *only* its keys
  (the requeue-on-death guarantee: survivors' warm stores stay hot), and
  adding one steals keys only for itself (a restarted shard reclaims its
  old keys, nothing else moves).
* **Process independence** — assignment must be identical in every
  process regardless of ``PYTHONHASHSEED``, or a restarted gateway would
  route warm keys to cold shards.
* **Sanity on real traffic keys** — the keys actually routed are the
  result store's key strings; they must hash collision-free and spread
  across shards.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import GB, MIB
from repro.orchestrator.spec import SweepSpec
from repro.orchestrator.store import ResultStore
from repro.service.hashing import (
    DEFAULT_REPLICAS,
    EmptyRing,
    HashRing,
    stable_hash,
)

#: Shard ids shaped like the gateway's real ones (host:port strings),
#: plus arbitrary text — the ring must not care what ids look like.
shard_ids = st.one_of(
    st.from_regex(r"127\.0\.0\.1:[1-9][0-9]{3}", fullmatch=True),
    st.text(min_size=1, max_size=20),
)
shard_sets = st.lists(shard_ids, min_size=1, max_size=8, unique=True)
keys = st.text(max_size=64)


def real_traffic_keys():
    """Store-key strings for a realistic full evaluation grid."""
    spec = SweepSpec(
        workloads=("*",),                 # every registered workload
        sram_bytes=(2 * MIB, 4 * MIB),
        bandwidths=(250.0 * GB, 1000.0 * GB),
    )
    return sorted({ResultStore.key_str(p.key()) for p in spec.points()})


class TestStableHash:
    def test_known_value_is_pinned(self):
        # A change here silently reroutes every warm key after an
        # upgrade — if this fails, the hash function changed and the
        # fabric's store-affinity story needs a migration plan.
        assert stable_hash("") == 0xE4A6A0577479B2B4
        assert stable_hash("127.0.0.1:8642#0") != stable_hash(
            "127.0.0.1:8642#1")

    @given(keys)
    @settings(max_examples=200, deadline=None)
    def test_is_a_64_bit_value(self, key):
        assert 0 <= stable_hash(key) < 2 ** 64

    def test_real_traffic_keys_are_collision_free(self):
        ks = real_traffic_keys()
        assert len(ks) > 50  # the grid is real, not degenerate
        hashes = {stable_hash(k) for k in ks}
        assert len(hashes) == len(ks)


class TestRingConstruction:
    def test_empty_ring_raises(self):
        with pytest.raises(EmptyRing):
            HashRing([])

    def test_duplicate_shards_raise(self):
        with pytest.raises(ValueError):
            HashRing(["a", "b", "a"])

    def test_contains_and_len(self):
        ring = HashRing(["a", "b"])
        assert "a" in ring and "c" not in ring and len(ring) == 2
        assert len(ring._positions) == 2 * DEFAULT_REPLICAS

    def test_single_shard_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.assign(k) == "only" for k in ("", "x", "y" * 50))


class TestAssignmentProperties:
    @given(shard_sets, keys)
    @settings(max_examples=200, deadline=None)
    def test_assignment_is_deterministic_across_instances(self, shards, key):
        # Two independently built rings (shard order shuffled) agree —
        # a restarted gateway reroutes nothing.
        a = HashRing(shards)
        b = HashRing(list(reversed(shards)))
        assert a.assign(key) == b.assign(key)

    @given(shard_sets, st.lists(keys, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_leave_moves_only_the_dead_shards_keys(self, shards, key_list):
        ring = HashRing(shards)
        for dead in shards:
            if len(shards) == 1:
                continue
            survivor_ring = HashRing([s for s in shards if s != dead])
            for key in key_list:
                before = ring.assign(key)
                if before != dead:
                    # The requeue guarantee, exactly: a key not owned by
                    # the dead shard keeps its owner.
                    assert survivor_ring.assign(key) == before
                else:
                    assert survivor_ring.assign(key) != dead

    @given(shard_sets, shard_ids, st.lists(keys, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_join_steals_keys_only_for_itself(self, shards, new, key_list):
        if new in shards:
            return
        ring = HashRing(shards)
        grown = HashRing((*shards, new))
        for key in key_list:
            after = grown.assign(key)
            assert after == ring.assign(key) or after == new


class TestMovementFraction:
    def test_leave_moves_roughly_one_nth_of_real_keys(self):
        """On the real evaluation grid, a 4-shard ring losing one shard
        moves only that shard's share of keys — the measured fraction is
        exactly the dead shard's ownership, and ownership is spread (no
        shard owns a majority)."""
        shards = [f"127.0.0.1:{8642 + i}" for i in range(4)]
        ring = HashRing(shards)
        ks = real_traffic_keys()
        owners = {k: ring.assign(k) for k in ks}
        for dead in shards:
            survivor_ring = HashRing([s for s in shards if s != dead])
            moved = sum(1 for k in ks if survivor_ring.assign(k) != owners[k])
            owned = sum(1 for k in ks if owners[k] == dead)
            assert moved == owned  # nothing but the dead shard's keys
        counts = [sum(1 for o in owners.values() if o == s) for s in shards]
        assert all(c > 0 for c in counts)
        assert max(counts) < len(ks) * 0.6  # no shard hoards the ring


class TestCrossProcessDeterminism:
    def test_assignment_survives_pythonhashseed_changes(self):
        """The same assignments must come out of fresh interpreters with
        different hash seeds — the property a builtin-``hash()`` ring
        would fail, and the reason a gateway restart is harmless."""
        shards = ["127.0.0.1:8643", "127.0.0.1:8644", "127.0.0.1:8645"]
        ks = real_traffic_keys()[:40]
        script = (
            "import sys\n"
            "from repro.service.hashing import HashRing\n"
            "ring = HashRing({shards!r})\n"
            "for key in {keys!r}:\n"
            "    print(ring.assign(key))\n"
        ).format(shards=shards, keys=ks)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed,
                     "PATH": "/usr/bin:/bin"},
                capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        local = HashRing(shards)
        assert outputs[0].splitlines() == [local.assign(k) for k in ks]
