"""Tests for the set-associative cache + LRU/BRRIP policies.

Includes a reference LRU stack model (hit iff stack distance < assoc) that
the simulator must match exactly, and behavioural checks of BRRIP's
scan resistance (the property the paper's Fig. 11 leans on).
"""

import random

import numpy as np
import pytest

from repro.buffers.brrip import BrripPolicy
from repro.buffers.cache import SetAssociativeCache
from repro.buffers.lru import LruPolicy
from repro.buffers.srrip import SrripPolicy

POLICIES = {"lru": LruPolicy, "brrip": BrripPolicy, "srrip": SrripPolicy}


def lru_cache(capacity=1024, line=16, assoc=4):
    return SetAssociativeCache(capacity, line, assoc, LruPolicy())


class TestGeometry:
    def test_sets(self):
        c = lru_cache(1024, 16, 4)
        assert c.n_sets == 16

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 16, 4, LruPolicy())
        with pytest.raises(ValueError):
            SetAssociativeCache(100, 16, 4, LruPolicy())  # 6 lines % 4 != 0


class TestLruReference:
    """Exactness against a per-set LRU stack reference model."""

    def _reference(self, blocks, n_sets, assoc):
        stacks = {s: [] for s in range(n_sets)}
        results = []
        for b in blocks:
            s = b % n_sets
            st = stacks[s]
            if b in st:
                st.remove(b)
                st.append(b)
                results.append(True)
            else:
                if len(st) == assoc:
                    st.pop(0)
                st.append(b)
                results.append(False)
        return results

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_random_streams(self, seed):
        import random

        rng = random.Random(seed)
        blocks = [rng.randrange(0, 256) for _ in range(2000)]
        cache = lru_cache(capacity=4096, line=16, assoc=4)  # 64 sets
        expected = self._reference(blocks, cache.n_sets, cache.assoc)
        got = [cache.access_line(b, is_write=False) for b in blocks]
        assert got == expected

    def test_streaming_scan_never_hits(self):
        cache = lru_cache()
        for b in range(1000):
            assert cache.access_line(b, False) is False
        assert cache.stats.hit_rate == 0.0

    def test_small_working_set_all_hits_after_warmup(self):
        cache = lru_cache(capacity=1024, line=16, assoc=4)  # 64 lines
        ws = list(range(32))
        for b in ws:
            cache.access_line(b, False)
        hits_before = cache.stats.hits
        for _ in range(10):
            for b in ws:
                assert cache.access_line(b, False)
        assert cache.stats.hits == hits_before + 320


class TestWritebacks:
    def test_dirty_eviction_writes_back(self):
        cache = lru_cache(capacity=64, line=16, assoc=4)  # single set, 4 ways
        for b in range(4):
            cache.access_line(b, is_write=True)
        assert cache.stats.writebacks == 0
        cache.access_line(99, is_write=False)  # evicts dirty LRU block 0
        assert cache.stats.writebacks == 1
        assert cache.stats.dram_write_bytes == 16

    def test_clean_eviction_is_free(self):
        cache = lru_cache(capacity=64, line=16, assoc=4)
        for b in range(5):
            cache.access_line(b, is_write=False)
        assert cache.stats.evictions == 1
        assert cache.stats.dram_write_bytes == 0

    def test_flush_drains_all_dirty(self):
        cache = lru_cache(capacity=64, line=16, assoc=4)
        for b in range(3):
            cache.access_line(b, is_write=True)
        cache.flush()
        assert cache.stats.dram_write_bytes == 3 * 16
        cache.flush()  # idempotent
        assert cache.stats.dram_write_bytes == 3 * 16

    def test_every_miss_reads_a_line(self):
        cache = lru_cache()
        for b in range(100):
            cache.access_line(b, False)
        assert cache.stats.dram_read_bytes == 100 * 16


class TestAccessRange:
    def test_range_touches_overlapping_lines(self):
        cache = lru_cache()
        cache.access_range(start_byte=8, n_bytes=16, is_write=False)  # lines 0,1
        assert cache.stats.accesses == 2

    def test_empty_range_is_noop(self):
        cache = lru_cache()
        cache.access_range(0, 0, False)
        assert cache.stats.accesses == 0


class TestBrrip:
    def test_hit_promotes_to_zero(self):
        p = BrripPolicy(bits=2)
        st = p.make_set_state(4)
        p.on_fill(st, 0)
        p.on_hit(st, 0)
        assert st.rrpv[0] == 0

    def test_bimodal_insertion_mostly_distant(self):
        p = BrripPolicy(bits=2, bimodal_throttle=32)
        st = p.make_set_state(1)
        values = []
        for _ in range(64):
            p.on_fill(st, 0)
            values.append(st.rrpv[0])
        assert values.count(2) == 2          # 2 of 64 are "long"
        assert values.count(3) == 62

    def test_victim_ages_until_found(self):
        p = BrripPolicy(bits=2)
        st = p.make_set_state(2)
        st.rrpv[:] = [1, 2]
        v = p.choose_victim(st)
        assert v == 1                        # aged to 3 first
        assert st.rrpv == [2, 3]

    def test_scan_resistance_beats_lru(self):
        """A reused working set survives a one-off scan better under BRRIP.

        This is the classic RRIP property: distant insertion keeps scan
        blocks from displacing the re-referenced set.
        """
        def run(policy):
            cache = SetAssociativeCache(64, 16, 4, policy)  # 1 set, 4 ways
            ws = [0, 1, 2]
            for _ in range(8):       # establish re-reference behaviour
                for b in ws:
                    cache.access_line(b, False)
            for b in range(100, 112):  # scan
                cache.access_line(b, False)
            hits = 0
            for b in ws:
                hits += cache.access_line(b, False)
            return hits

        brrip_hits = run(BrripPolicy())
        lru_hits = run(LruPolicy())
        assert brrip_hits >= lru_hits
        assert brrip_hits > 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BrripPolicy(bits=0)
        with pytest.raises(ValueError):
            BrripPolicy(bimodal_throttle=0)


class TestVectorSingleAccess:
    """On the vector backend ``access_line`` is a one-element batch; it
    must leave exactly the state the reference backend leaves, also when
    single accesses interleave with range replays and flushes."""

    def _pair(self, policy):
        return tuple(
            SetAssociativeCache(2048, 16, 4, POLICIES[policy](),
                                backend=backend)
            for backend in ("reference", "vector"))

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_hit_flag_and_dirty_writeback(self, policy):
        _, vec = self._pair(policy)
        assert vec.access_line(5, True) is False
        assert vec.access_line(5, False) is True
        assert vec.stats.hits == 1 and vec.stats.misses == 1
        assert vec.resident_lines() == 1
        vec.flush()
        assert vec.stats.dram_write_bytes == 16  # the one dirty line

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_interleaved_with_ranges_matches_reference(self, policy):
        rng = random.Random(23)
        ref, vec = self._pair(policy)
        for _ in range(600):
            write = rng.random() < 0.3
            if rng.random() < 0.6:
                block = rng.randrange(0, 400)
                assert vec.access_line(block, write) \
                    == ref.access_line(block, write)
            else:
                start, n = rng.randrange(0, 6400), rng.randrange(1, 200)
                ref.access_range(start, n, write)
                vec.access_range(start, n, write)
            if rng.random() < 0.01:
                ref.flush()
                vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()
        np.testing.assert_array_equal(vec._tags, ref._tags)
        np.testing.assert_array_equal(vec._dirty, ref._dirty)
