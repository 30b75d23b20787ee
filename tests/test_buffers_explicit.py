"""Tests for the buffet, the explicit buffer table3's live check drives."""

import pytest

from repro.buffers.buffet import Buffet, BuffetError


class TestBuffet:
    def test_fill_read_shrink_cycle(self):
        b = Buffet(4)
        b.fill(3)
        b.read(0)
        b.read(2)
        b.shrink(2)
        assert b.occupancy == 1
        assert b.credits == 3

    def test_fill_blocks_at_capacity(self):
        b = Buffet(2)
        b.fill(2)
        assert not b.can_fill(1)
        with pytest.raises(BuffetError):
            b.fill(1)

    def test_read_outside_window_raises(self):
        b = Buffet(4)
        b.fill(2)
        b.shrink(1)
        with pytest.raises(BuffetError):
            b.read(0)  # already retired
        with pytest.raises(BuffetError):
            b.read(2)  # not yet filled

    def test_shrink_beyond_occupancy_raises(self):
        b = Buffet(4)
        b.fill(1)
        with pytest.raises(BuffetError):
            b.shrink(2)

    def test_sliding_window_indices(self):
        b = Buffet(2)
        for i in range(10):
            b.fill(1)
            b.read(i)
            b.shrink(1)
        assert b.head == b.tail == 10

    def test_fill_up_to_exactly_the_credits(self):
        b = Buffet(3)
        b.fill(1)
        assert b.can_fill(2) and not b.can_fill(3)
        b.fill(2)
        assert b.credits == 0
        b.shrink(1)
        assert b.can_fill(1) and not b.can_fill(2)

    def test_update_reads_in_place(self):
        b = Buffet(2)
        b.fill(2)
        b.update(1)
        assert b.stats.hits == 1
        b.shrink(2)
        with pytest.raises(BuffetError):
            b.update(1)  # retired

    def test_stats_count_fills_reads_and_retirements(self):
        b = Buffet(4)
        b.fill(3)
        b.read(0)
        b.read(1)
        b.shrink(2)
        assert b.stats.dram_read_bytes == 3
        assert b.stats.accesses == 5  # three fills, two reads
        assert b.stats.hits == 2
        assert b.stats.evictions == 2

    def test_non_positive_capacity_rejected(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                Buffet(capacity)

    def test_negative_counts_rejected(self):
        b = Buffet(2)
        with pytest.raises(ValueError):
            b.fill(-1)
        with pytest.raises(ValueError):
            b.shrink(-1)
        assert b.occupancy == 0
