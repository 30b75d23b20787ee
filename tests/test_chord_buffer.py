"""Tests for the CHORD buffer: PRELUDE fills, RIFF steals, exact byte
accounting, retirement and the Fig. 11 head-keeping behaviour."""

import pytest

from repro.chord import buffer as chord_buffer
from repro.chord.buffer import ChordBuffer
from repro.chord.hints import ReuseHints, TensorHints
from repro.chord.metadata import RiffIndexTable


def hints(**tensors):
    return ReuseHints({
        name: TensorHints(name, t[0], t[1], tuple(t[2]), t[3])
        for name, t in tensors.items()
    })


class TestPreludeFill:
    def test_tensor_fits_no_traffic(self):
        h = hints(T=(500, 0, [2], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        assert c.resident_bytes("T") == 500
        assert c.stats.dram_bytes == 0

    def test_spill_charges_dram_write(self):
        h = hints(T=(1500, 0, [2], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        assert c.resident_bytes("T") == 1000
        assert c.stats.dram_write_bytes == 500  # dirty tail spilled

    def test_head_is_kept_not_tail(self):
        """PRELUDE keeps the prefix: a subsequent full read hits exactly the
        head bytes (Fig. 9/11 vs LRU keeping the tail)."""
        h = hints(T=(1500, 0, [2], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        hit = c.read("T", 2)
        assert hit == 1000  # the head

    def test_clean_spill_of_refetch_is_free(self):
        h = hints(T=(1500, 0, [2, 4], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)                      # 500 dirty spill
        writes_after_prod = c.stats.dram_write_bytes
        c.read("T", 2)                       # 500 missed, refetched clean
        assert c.stats.dram_read_bytes == 500
        assert c.stats.dram_write_bytes == writes_after_prod  # no new writes


class TestRiffReplacement:
    def test_far_tensor_tail_evicted_for_near_tensor(self):
        h = hints(
            X=(800, 0, [10], False),    # far next use
            R=(800, 1, [2, 3], False),  # near, frequent
        )
        c = ChordBuffer(1000, h)
        c.write("X", 0)
        c.write("R", 1)
        assert c.resident_bytes("R") == 800        # R fully resident
        assert c.resident_bytes("X") == 200        # X lost its tail
        # X was dirty: evicted bytes were written back.
        assert c.stats.dram_write_bytes == 600

    def test_prelude_only_mode_never_steals(self):
        h = hints(
            X=(800, 0, [10], False),
            R=(800, 1, [2, 3], False),
        )
        c = ChordBuffer(1000, h, use_riff=False)
        c.write("X", 0)
        c.write("R", 1)
        assert c.resident_bytes("X") == 800
        assert c.resident_bytes("R") == 200
        assert c.stats.dram_write_bytes == 600     # R's tail spilled

    def test_lower_priority_incoming_spills_directly(self):
        h = hints(
            HOT=(1000, 0, [2], False),
            COLD=(500, 1, [50], False),
        )
        c = ChordBuffer(1000, h)
        c.write("HOT", 0)
        c.write("COLD", 1)
        assert c.resident_bytes("HOT") == 1000
        assert c.resident_bytes("COLD") == 0
        assert c.stats.dram_write_bytes == 500

    def test_multiple_victims_drained_in_priority_order(self):
        h = hints(
            FAR=(400, 0, [30], False),
            MID=(400, 1, [20], False),
            NEW=(1000, 2, [3, 4], False),
        )
        c = ChordBuffer(1000, h)
        c.write("FAR", 0)
        c.write("MID", 1)
        c.write("NEW", 2)
        assert c.resident_bytes("NEW") == 1000
        assert c.resident_bytes("FAR") == 0
        assert c.resident_bytes("MID") == 0


class TestReads:
    def test_cold_read_misses_and_caches(self):
        h = hints(A=(600, None, [1, 2, 3], False))
        c = ChordBuffer(1000, h)
        assert c.read("A", 1) == 0
        assert c.stats.dram_read_bytes == 600
        # Re-inserted clean: the next consumer hits.
        assert c.read("A", 2) == 600
        assert c.stats.dram_read_bytes == 600

    def test_no_reinsert_after_last_use(self):
        h = hints(A=(600, None, [1], False))
        c = ChordBuffer(1000, h)
        c.read("A", 1)
        assert c.resident_bytes("A") == 0

    def test_partial_read(self):
        h = hints(T=(1000, 0, [2], False))
        c = ChordBuffer(400, h)
        c.write("T", 0)
        hit = c.read("T", 2, nbytes=500)
        assert hit == 400
        assert c.stats.misses == 100

    def test_negative_read_rejected(self):
        h = hints(T=(10, 0, [1], False))
        c = ChordBuffer(100, h)
        with pytest.raises(ValueError):
            c.read("T", 0, nbytes=-1)


class TestRetirement:
    def test_dead_intermediate_discarded_without_traffic(self):
        h = hints(T=(500, 0, [1], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        c.read("T", 1)
        c.retire("T")
        assert not c.is_tracked("T")
        assert c.stats.dram_write_bytes == 0

    def test_program_output_drains_on_retire(self):
        h = hints(OUT=(500, 0, [], True))
        c = ChordBuffer(1000, h)
        c.write("OUT", 0)
        c.retire("OUT")
        assert c.stats.dram_write_bytes == 500

    def test_finalize_drains_outputs_only(self):
        h = hints(
            OUT=(300, 0, [], True),
            TMP=(300, 1, [2], False),
        )
        c = ChordBuffer(1000, h)
        c.write("OUT", 0)
        c.write("TMP", 1)
        c.finalize()
        assert c.stats.dram_write_bytes == 300
        assert c.used_bytes == 0

    def test_retire_untracked_is_noop(self):
        h = hints(T=(10, 0, [1], False))
        ChordBuffer(100, h).retire("T")


class TestInvariants:
    def test_capacity_never_exceeded(self):
        h = hints(**{f"T{i}": (400, i, [i + 1, i + 5], False) for i in range(8)})
        c = ChordBuffer(1000, h)
        for i in range(8):
            c.write(f"T{i}", i)
            assert c.used_bytes <= 1000

    def test_resident_never_exceeds_total(self):
        h = hints(T=(500, 0, [1, 2], False))
        c = ChordBuffer(10_000, h)
        c.write("T", 0)
        c.read("T", 1)
        c.read("T", 2)
        assert c.resident_bytes("T") <= 500

    def test_table_capacity_bypasses_gracefully(self):
        h = hints(
            A=(100, 0, [5], False),
            B=(100, 1, [5], False),
            C=(100, 2, [3, 4], False),
        )
        c = ChordBuffer(1000, h, table=RiffIndexTable(2))
        c.write("A", 0)
        c.write("B", 1)
        c.write("C", 2)   # table full: bypasses straight to DRAM
        assert c.resident_bytes("C") == 0
        assert c.stats.dram_write_bytes == 100

    def test_describe_runs(self):
        h = hints(T=(500, 0, [1], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        assert "T" in c.describe()


class TestUsedBytesCounter:
    """``used_bytes`` is an O(1) incrementally-maintained counter; it must
    equal the O(tensors) recomputation after every event kind (fill, RIFF
    steal, refetch, retire, finalize)."""

    def _mixed_hints(self, n=12):
        return hints(**{
            f"T{i}": (200 + 97 * i, i, [i + 2, i + n + 3], i % 5 == 0)
            for i in range(n)
        })

    def test_counter_matches_slow_sum_through_event_storm(self):
        h = self._mixed_hints()
        c = ChordBuffer(2500, h)
        assert __debug__  # the tier-1 suite runs with assertions enabled
        for i in range(12):
            c.write(f"T{i}", i)
            assert c.used_bytes == c.audit_used_bytes()
        for i in range(12):
            c.read(f"T{i}", i + 2)
            assert c.used_bytes == c.audit_used_bytes()
        for i in range(0, 12, 3):
            c.retire(f"T{i}")
            assert c.used_bytes == c.audit_used_bytes()
        c.finalize()
        assert c.used_bytes == c.audit_used_bytes() == 0

    def test_counter_matches_after_partial_reads(self):
        h = hints(T=(1000, 0, [2, 4], False), U=(900, 1, [3], False))
        c = ChordBuffer(1200, h)
        c.write("T", 0)
        c.write("U", 1)          # RIFF steals T's tail
        c.read("T", 2, nbytes=700)
        c.read("U", 3)
        assert c.used_bytes == c.audit_used_bytes()
        assert 0 < c.used_bytes <= 1200


class TestHistoryRecorder:
    def test_records_samples(self):
        h = hints(T=(500, 0, [1, 2], False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        c.read("T", 1)
        assert c.history == [(0, 500), (1, 500)]

    def test_history_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(chord_buffer, "HISTORY_LIMIT", 64)
        h = hints(T=(10, 0, list(range(1, 5000)), False))
        c = ChordBuffer(1000, h)
        c.write("T", 0)
        for i in range(1, 4000):
            c.read("T", i)
        assert len(c.history) < 64
        # Decimation keeps coverage of the whole run, not just a prefix.
        assert c.history[-1][0] > 3000
