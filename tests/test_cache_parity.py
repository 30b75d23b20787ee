"""Golden-parity suite: the vectorized cache backend must be byte-identical
to the scalar reference backend.

The vector backend resolves traces in conflict-free batches; these tests
pit it against the original per-access scalar loop on randomized and
adversarial traces (same-set conflict storms, write-allocate mixes,
flushes, state carried across chunks) for every policy, requiring exact
:class:`BufferStats` equality and identical final tag/dirty state.  A
trace whose :class:`TraceFootprint` fits the cache resolves with no
replay at all; both replays are its oracles, at geometries that fit
exactly and at one block more.  Golden DRAM bytes pin the cache
baselines on real traces.  Traces here are ``(start, nbytes,
is_write)`` rows, replayed as ``access_arrays``' three arrays, in chunks
of any size.
"""

import collections
import functools
import itertools
import random

import numpy as np
import pytest

from repro.baselines.configs import run_config
from repro.buffers import cache as cache_module
from repro.buffers.brrip import BrripPolicy
from repro.buffers.cache import SetAssociativeCache, TraceFootprint
from repro.buffers.lru import LruPolicy
from repro.buffers.srrip import SrripPolicy
from repro.hw.config import MIB, AcceleratorConfig
from repro.sim.address_map import AddressMap
from repro.sim.engine import CacheEngine
from repro.sim.trace import program_trace_arrays, program_trace_bytes
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.matrices import FV1
from repro.workloads.registry import resolve_workload

POLICIES = {
    "lru": LruPolicy,
    "brrip": BrripPolicy,
    "srrip": SrripPolicy,
}


def pair(policy_name, capacity=4096, line=16, assoc=4):
    """A (reference, vector) cache pair with independent policy instances."""
    ref = SetAssociativeCache(capacity, line, assoc,
                              POLICIES[policy_name](), backend="reference")
    vec = SetAssociativeCache(capacity, line, assoc,
                              POLICIES[policy_name](), backend="vector")
    return ref, vec


def assert_identical(ref, vec):
    assert vec.stats.as_dict() == ref.stats.as_dict()
    # Same lines resident per set (way assignment may legally differ only
    # in ordering for policies, but both backends fill invalid ways
    # first-to-last and victimise identically, so require exact equality).
    np.testing.assert_array_equal(vec._tags, ref._tags)
    np.testing.assert_array_equal(vec._dirty, ref._dirty)


def arrays_of(segments):
    """``(start, nbytes, is_write)`` rows as ``access_arrays``' three
    arrays."""
    starts, nbytes, writes = zip(*segments) if segments else ((), (), ())
    return (np.array(starts, dtype=np.int64),
            np.array(nbytes, dtype=np.int64),
            np.array(writes, dtype=bool))


def replay_segments(cache, segments, chunk_accesses=None):
    """Replay through ``access_arrays``, optionally at a patched chunk
    size (``DEFAULT_CHUNK_ACCESSES``)."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk_accesses is not None:
            mp.setattr(cache_module, "DEFAULT_CHUNK_ACCESSES", chunk_accesses)
        cache.access_arrays(*arrays_of(segments))


class TestRandomizedParity:
    @pytest.mark.parametrize(
        "policy,seed", list(itertools.product(POLICIES, range(4)))
    )
    def test_random_segment_traces(self, policy, seed):
        rng = random.Random(1000 * seed + hash(policy) % 1000)
        segments = []
        for _ in range(300):
            start = rng.randrange(0, 1 << 16)
            nbytes = rng.randrange(1, 600)
            segments.append((start, nbytes, rng.random() < 0.4))
        ref, vec = pair(policy)
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_random_line_streams(self, policy):
        rng = random.Random(7)
        blocks = [rng.randrange(0, 512) for _ in range(4000)]
        writes = [rng.random() < 0.3 for _ in range(4000)]
        ref, vec = pair(policy, capacity=8192, assoc=8)
        got_ref = [ref.access_line(b, w) for b, w in zip(blocks, writes)]
        got_vec = [vec.access_line(b, w) for b, w in zip(blocks, writes)]
        assert got_vec == got_ref
        assert_identical(ref, vec)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_chunking_invariance(self, policy):
        """Chunk size must not change results (batches never span chunks,
        but state carries across them)."""
        rng = random.Random(11)
        segments = [
            (rng.randrange(0, 1 << 14), rng.randrange(1, 400),
             rng.random() < 0.5)
            for _ in range(200)
        ]
        ref, _ = pair(policy)
        replay_segments(ref, segments)
        for chunk in (1, 7, 64, 100_000):
            _, vec = pair(policy)
            replay_segments(vec, segments, chunk_accesses=chunk)
            assert_identical(ref, vec)


class TestAdversarialParity:
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_same_set_conflict_storm(self, policy):
        """Every access maps to set 0: batches degrade to singletons."""
        ref, vec = pair(policy, capacity=1024, line=16, assoc=4)  # 16 sets
        rng = random.Random(3)
        blocks = [16 * rng.randrange(0, 12) for _ in range(1500)]
        writes = [rng.random() < 0.5 for _ in range(1500)]
        for b, w in zip(blocks, writes):
            ref.access_line(b, w)
        vec._simulate_blocks(np.array(blocks, dtype=np.int64),
                             np.array(writes, dtype=bool))
        assert_identical(ref, vec)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_write_allocate_then_flush(self, policy):
        """Write misses allocate dirty; eviction + flush writebacks match."""
        ref, vec = pair(policy, capacity=512, line=16, assoc=2)  # 16 sets
        segments = (
            [(i * 16, 16, True) for i in range(64)]
            + [(i * 16, 16, False) for i in range(64)]
            + [(i * 16, 16, True) for i in range(32)]
        )
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()
        assert vec.stats.writebacks > 0  # the scenario actually wrote back

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_scan_after_reuse(self, policy):
        """The Fig. 11 shape: a hot working set, a scan, then re-reads —
        the trace where LRU and (B/S)RRIP genuinely diverge."""
        ref, vec = pair(policy, capacity=256, line=16, assoc=4)  # 4 sets
        ws = [0, 4, 8]            # all in set 0
        trace = []
        for _ in range(6):
            trace.extend((b, False) for b in ws)
        trace.extend((100 + 4 * i, False) for i in range(24))
        trace.extend((b, False) for b in ws)
        for b, w in trace:
            ref.access_line(b, w)
        vec._simulate_blocks(np.array([b for b, _ in trace], dtype=np.int64),
                             np.array([w for _, w in trace], dtype=bool))
        assert_identical(ref, vec)

    def test_brrip_bimodal_counter_order(self):
        """The bimodal throttle is a *global* fill counter: a trace with >
        throttle fills must place the rare long insertions identically
        (this is why fills are handed to vec_on_fill in trace order)."""
        ref = SetAssociativeCache(2048, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="reference")
        vec = SetAssociativeCache(2048, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="vector")
        # Streaming misses across many sets, then re-touch: hit pattern is
        # sensitive to which fills were long vs distant.
        segments = [(i * 16, 16, False) for i in range(400)]
        segments += [(i * 16, 16, False) for i in range(400)]
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        assert ref.policy._fill_counter == vec.policy._fill_counter

    def test_empty_and_degenerate_segments(self):
        ref, vec = pair("lru")
        segments = [
            (0, 0, False),      # empty: no accesses
            (5, 1, True),       # sub-line
            (15, 2, False),     # straddles a line boundary
        ]
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        assert vec.stats.accesses == 3


def block_segments(blocks, is_write, line=16):
    return [(b * line, line, is_write) for b in blocks]


def replay_stats(policy, arrays, capacity, line, assoc, backend="vector"):
    """Stats of a full replay plus the final flush: the batch kernel
    (``vector``) or the scalar oracle (``reference``)."""
    cache = SetAssociativeCache(capacity, line, assoc, POLICIES[policy](),
                                backend=backend)
    cache.access_arrays(*arrays)
    cache.flush()
    return cache.stats.as_dict()


class TestWarmCacheParity:
    """The batch kernel on a cache that carries state from chunk to
    chunk — stretches that fit, a sweep that overflows, re-reads of what
    survives it — against the scalar reference."""

    # 64 sets x 4 ways of 16 B lines.
    GEOMETRY = dict(capacity=4096, line=16, assoc=4)

    def sweep_segments(self):
        """A warm-up and dirty re-touches that fit, a sweep 4x the
        capacity that overflows, then re-reads of the sweep's tail, which
        is resident again."""
        return (block_segments(range(100), False)
                + block_segments(range(50, 150), True)
                + block_segments(range(200), False)
                + block_segments(range(1024), False)
                + block_segments(range(960, 1024), True)
                + block_segments(range(992, 1024), False))

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_warm_up_sweep_and_reread(self, policy):
        ref, vec = pair(policy, **self.GEOMETRY)
        segments = self.sweep_segments()
        replay_segments(ref, segments)
        replay_segments(vec, segments, chunk_accesses=64)
        assert_identical(ref, vec)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()

    def test_brrip_throttle_across_chunks(self):
        ref = SetAssociativeCache(4096, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="reference")
        vec = SetAssociativeCache(4096, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="vector")
        # 7 accesses per chunk: the long insertions land mid-chunk.
        segments = self.sweep_segments()
        replay_segments(ref, segments)
        replay_segments(vec, segments, chunk_accesses=7)
        assert_identical(ref, vec)
        assert vec.policy._fill_counter == ref.policy._fill_counter

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_resident_dirty_lines_retouched(self, policy):
        """A second replay re-reads dirty lines (they stay dirty), writes
        clean resident ones (they turn dirty) and fills new ones."""
        ref, vec = pair(policy, **self.GEOMETRY)
        segments = (block_segments(range(32), True)
                    + block_segments(range(32, 64), False)
                    + block_segments(range(64), False)
                    + block_segments(range(48, 80), True))
        replay_segments(ref, segments)
        replay_segments(vec, segments[:64])
        replay_segments(vec, segments[64:])
        assert_identical(ref, vec)
        assert vec._dirty.sum() == 64
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize("policy", list(POLICIES))
    @pytest.mark.parametrize("n_resident", [0, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_set_filled_to_assoc_and_one_more(self, policy, n_resident,
                                              extra):
        """Set 0 ends the stream holding ``assoc + extra`` lines: its
        resident ones plus the stream's new blocks."""
        ref, vec = pair(policy, capacity=1024, line=16, assoc=4)  # 16 sets
        for i in range(n_resident):
            for cache in (ref, vec):
                cache.access_line(16 * i, True)
        new = [16 * i for i in range(n_resident, 4 + extra)]
        trace = (new + [1, 17] + new[::-1]) * 2
        writes = [i % 3 == 0 for i in range(len(trace))]
        for b, w in zip(trace, writes):
            ref.access_line(b, w)
        vec._simulate_blocks(np.array(trace, dtype=np.int64),
                             np.array(writes, dtype=bool))
        assert (vec.stats.evictions > 0) == bool(extra)
        assert_identical(ref, vec)


def random_segments(rng, n, span, line=16):
    """``n`` segments over ``[0, span)``: they overlap, start and end
    mid-block, and include zero-byte rows and writes."""
    segments = []
    for _ in range(n):
        size = rng.choice((0, rng.randrange(1, line),
                           rng.randrange(1, 12 * line)))
        segments.append((rng.randrange(0, span), size, rng.random() < 0.3))
    return segments


def footprint_oracle(segments, line=16):
    """The blocks a trace touches and writes, and its access count, by
    enumeration."""
    touched, written, accesses = set(), set(), 0
    for start, nbytes, is_write in segments:
        if nbytes == 0:
            continue
        blocks = range(start // line, (start + nbytes - 1) // line + 1)
        touched.update(blocks)
        accesses += len(blocks)
        if is_write:
            written.update(blocks)
    return touched, written, accesses


def busiest_set(blocks, n_sets):
    return max(collections.Counter(b % n_sets for b in blocks).values())


class TestTraceFootprint:
    """A trace whose footprint fits every set resolves without a replay
    (:class:`TraceFootprint`); the batch kernel and the scalar reference
    are its oracles."""

    def test_footprint_of_a_small_trace(self):
        segments = [(5, 35, True),     # blocks 0-2
                    (30, 3, False),    # blocks 1-2
                    (200, 0, True),    # touches nothing
                    (64, 16, False),   # block 4
                    (100, 1, True)]    # block 6
        fp = TraceFootprint.of(*arrays_of(segments), 16)
        np.testing.assert_array_equal(fp.blocks, [[0, 3], [4, 5], [6, 7]])
        np.testing.assert_array_equal(fp.written, [[0, 3], [6, 7]])
        assert fp.accesses == 7
        stats = fp.stats(16)
        assert (stats.misses, stats.hits, stats.evictions, stats.writebacks,
                stats.dram_read_bytes, stats.dram_write_bytes) \
            == (5, 2, 0, 4, 80, 64)

    @pytest.mark.parametrize("seed", range(20))
    def test_fit_counts_the_blocks_of_every_set(self, seed):
        """Intervals longer than the set count wrap it; others start near
        its end and wrap around to set 0."""
        rng = random.Random(seed)
        n_sets = rng.choice((1, 3, 8, 64))
        segments = random_segments(rng, rng.randrange(1, 40),
                                   span=16 * 4 * n_sets)
        segments += [(16 * rng.randrange(0, 200),
                      16 * rng.randrange(n_sets, 3 * n_sets), False)]
        fp = TraceFootprint.of(*arrays_of(segments), 16)
        touched, written, accesses = footprint_oracle(segments)
        assert fp.accesses == accesses
        assert TraceFootprint._count(fp.blocks) == len(touched)
        assert TraceFootprint._count(fp.written) == len(written)
        busiest = busiest_set(touched, n_sets)
        for assoc in (busiest - 1, busiest, busiest + 1):
            if assoc >= 1:
                assert fp.fits(n_sets, assoc) == (assoc >= busiest)

    @pytest.mark.parametrize(
        "policy,seed,extra",
        list(itertools.product(POLICIES, range(3), (0, 1))))
    def test_fit_path_matches_batch_and_reference_replays(self, policy,
                                                          seed, extra):
        """The busiest set holds ``assoc + extra`` footprint blocks: at
        ``assoc`` the trace fits and its footprint's stats equal both
        replays'; one more and it must replay, and does evict."""
        rng = random.Random(100 + seed)
        segments = random_segments(rng, 150, span=4096)
        arrays = arrays_of(segments)
        touched, _, _ = footprint_oracle(segments)
        n_sets = rng.choice((4, 8, 16))
        assoc = busiest_set(touched, n_sets) - extra
        geometry = dict(capacity=16 * n_sets * assoc, line=16, assoc=assoc)
        fp = TraceFootprint.of(*arrays, 16)
        batched = replay_stats(policy, arrays, **geometry)
        assert replay_stats(policy, arrays, backend="reference",
                            **geometry) == batched
        assert fp.fits(n_sets, assoc) == (extra == 0)
        if extra == 0:
            assert fp.stats(16).as_dict() == batched
        else:
            assert batched["evictions"] > 0

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_fitting_count_overflowing_one_set(self, policy):
        """Fewer distinct blocks than lines, but set 0 receives one block
        more than it has ways: the trace does not fit, and its replay
        evicts."""
        rng = random.Random(29)
        hot = [64 * (3 + k) for k in range(5)]            # all in set 0
        stream = [rng.randrange(0, 512) for _ in range(150)] + hot * 3
        rng.shuffle(stream)
        segments = [(16 * b, 16, rng.random() < 0.3) for b in stream]
        geometry = dict(capacity=4096, line=16, assoc=4)  # 64 sets x 4 ways
        fp = TraceFootprint.of(*arrays_of(segments), 16)
        assert TraceFootprint._count(fp.blocks) <= 64 * 4
        assert not fp.fits(64, 4)
        batched = replay_stats(policy, arrays_of(segments), **geometry)
        assert batched == replay_stats(policy, arrays_of(segments),
                                       backend="reference", **geometry)
        assert batched["evictions"] > 0

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_sparse_wide_footprint_fits(self, policy):
        """Four blocks spread over more blocks than twice the cache's
        lines still fit it: the fit is per set, not per address range."""
        segments = [(16 * b, 16, w) for b, w in zip(
            [0, 16, 1, 200, 0, 16], [True, False, False, True, False, True])]
        geometry = dict(capacity=1024, line=16, assoc=4)  # 16 sets x 4 ways
        fp = TraceFootprint.of(*arrays_of(segments), 16)
        assert fp.fits(16, 4)
        assert fp.stats(16).as_dict() == replay_stats(
            policy, arrays_of(segments), backend="reference", **geometry)

    #: 147,699 line accesses.  At 1 MiB a set overflows; 3.5 and 4.5 MiB
    #: fit.
    WORKLOAD = "bicgstab/fv1/N=1@it1"
    SIZES_MIB = (1, 3.5, 4.5, 3.5)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_alternating_geometries_share_one_footprint(self, policy,
                                                        monkeypatch):
        """One DAG at alternating SRAM sizes builds its footprint once,
        replays where it overflows and nowhere else, and matches the
        reference engine at every size."""
        calls = {"footprint": 0, "replay": 0}
        of, replay = TraceFootprint.of, SetAssociativeCache.access_arrays

        def spy_of(*args):
            calls["footprint"] += 1
            return of(*args)

        def spy_replay(*args, **kwargs):
            calls["replay"] += 1
            return replay(*args, **kwargs)

        monkeypatch.setattr(TraceFootprint, "of", spy_of)
        monkeypatch.setattr(SetAssociativeCache, "access_arrays", spy_replay)
        dag = resolve_workload(self.WORKLOAD).build()
        reference = {}
        for i, mib in enumerate(self.SIZES_MIB):
            cfg = AcceleratorConfig(sram_bytes=int(mib * MIB))
            calls.update(footprint=0, replay=0)
            result = CacheEngine(cfg, POLICIES[policy]()).run(dag)
            assert calls == {"footprint": int(i == 0), "replay": int(i == 0)}
            if mib not in reference:
                reference[mib] = CacheEngine(
                    cfg, POLICIES[policy](), backend="reference").run(dag)
            assert result == reference[mib]

    def test_reference_engine_never_takes_the_fit_path(self, monkeypatch):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=1, iterations=1))
        cfg = AcceleratorConfig()
        vector = CacheEngine(cfg, LruPolicy(), granularity=4).run(dag)

        def refuse(*args):
            raise AssertionError("the reference backend took the fit path")

        monkeypatch.setattr(TraceFootprint, "of", refuse)
        monkeypatch.setattr(TraceFootprint, "fits", refuse)
        fresh = build_cg_dag(CgProblem(matrix=FV1, n=1, iterations=1))
        reference = CacheEngine(cfg, LruPolicy(), granularity=4,
                                backend="reference").run(fresh)
        assert reference == vector


class TestVectorPolicyContract:
    """Every built-in policy's ``vec_*`` hooks are per-line updates, as
    the scalar protocol's are: repeated rows in one call equal one pair
    at a time, and a line's hits collapsed to its last one equal every
    hit.  The batch kernel's calls have unique rows, so it needs neither;
    these pin that the state does not depend on how calls are batched."""

    @staticmethod
    def state_of(policy, state):
        snapshot = {k: v.copy() for k, v in vars(state).items()}
        snapshot["fill_counter"] = getattr(policy, "_fill_counter", None)
        return snapshot

    @staticmethod
    def assert_same(a, b):
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @staticmethod
    def arr(values):
        return np.array(values, dtype=np.int64)

    @pytest.mark.parametrize("policy_name", list(POLICIES))
    def test_repeated_rows_equal_one_pair_at_a_time(self, policy_name):
        rows = self.arr([0, 0, 1, 0, 2, 1, 0, 3, 3, 2, 1, 2])
        ways = self.arr([0, 1, 0, 2, 0, 1, 3, 0, 1, 1, 2, 2])
        times = np.arange(rows.size, dtype=np.int64)
        hit_rows, hit_ways = rows[::2], ways[::2]
        hit_times = rows.size + np.arange(hit_rows.size, dtype=np.int64)
        # A throttle of 4 puts three long insertions among the 12 fills.
        make = POLICIES[policy_name]
        if policy_name == "brrip":
            make = functools.partial(BrripPolicy, bimodal_throttle=4)
        batched, single = make(), make()
        b_state = batched.make_vector_state(4, 4)
        s_state = single.make_vector_state(4, 4)
        batched.vec_on_fill(b_state, rows, ways, times)
        batched.vec_on_hit(b_state, hit_rows, hit_ways, hit_times)
        for i in range(rows.size):
            single.vec_on_fill(s_state, rows[i:i + 1], ways[i:i + 1],
                               times[i:i + 1])
        for i in range(hit_rows.size):
            single.vec_on_hit(s_state, hit_rows[i:i + 1], hit_ways[i:i + 1],
                              hit_times[i:i + 1])
        self.assert_same(self.state_of(batched, b_state),
                         self.state_of(single, s_state))

    @pytest.mark.parametrize("policy_name", list(POLICIES))
    def test_one_hit_at_the_last_time_equals_every_hit(self, policy_name):
        policy = POLICIES[policy_name]()
        every = policy.make_vector_state(2, 4)
        last = policy.make_vector_state(2, 4)
        # Line (0, 1) is hit three times, (1, 2) twice, (0, 3) once.
        hits = [(0, 1, 5), (1, 2, 6), (0, 1, 7), (0, 3, 8), (1, 2, 9),
                (0, 1, 10)]
        for row, way, t in hits:
            policy.vec_on_hit(every, self.arr([row]), self.arr([way]),
                              self.arr([t]))
        last_hit = {(row, way): t for row, way, t in hits}
        ordered = sorted(last_hit.items(), key=lambda item: item[1])
        policy.vec_on_hit(last, self.arr([rw[0] for rw, _ in ordered]),
                          self.arr([rw[1] for rw, _ in ordered]),
                          self.arr([t for _, t in ordered]))
        self.assert_same(self.state_of(policy, every),
                         self.state_of(policy, last))


class TestBackendSelection:
    def test_default_is_vector(self):
        for policy in (LruPolicy(), BrripPolicy(), SrripPolicy()):
            assert SetAssociativeCache(1024, 16, 4, policy).backend == "vector"

    def test_scalar_only_policy_runs_on_reference(self):
        """A policy with only the scalar protocol runs on the reference
        backend, by name; an unknown backend name is refused."""
        class ScalarOnly:
            def make_set_state(self, assoc):
                return list(range(assoc))

            def on_hit(self, state, way):
                pass

            def choose_victim(self, state):
                return state[0]

            def on_fill(self, state, way):
                pass

        cache = SetAssociativeCache(1024, 16, 4, ScalarOnly(),
                                    backend="reference")
        assert cache.access_line(3, False) is False
        assert cache.access_line(3, False) is True
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="auto")
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="nope")

    def test_engine_refuses_an_unknown_backend_at_construction(self):
        """The engine checks its backend when built, not on the first
        ``run``."""
        with pytest.raises(ValueError, match="unknown cache backend 'nope'"):
            CacheEngine(AcceleratorConfig(), LruPolicy(), backend="nope")

    def test_reference_segments_path_matches_ranges(self):
        """access_arrays on the reference backend = the range loop."""
        a = SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="reference")
        b = SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="reference")
        segments = [(i * 40, 60, i % 2 == 0) for i in range(50)]
        a.access_arrays(*arrays_of(segments))
        for start, nbytes, is_write in segments:
            b.access_range(start, nbytes, is_write)
        assert a.stats.as_dict() == b.stats.as_dict()


class TestEngineParity:
    def test_cache_engine_backends_identical(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=1))
        for policy_cls in (LruPolicy, BrripPolicy):
            vec = CacheEngine(AcceleratorConfig(), policy_cls(),
                              granularity=4, backend="vector").run(dag)
            ref = CacheEngine(AcceleratorConfig(), policy_cls(),
                              granularity=4, backend="reference").run(dag)
            assert vec.dram_read_bytes == ref.dram_read_bytes
            assert vec.dram_write_bytes == ref.dram_write_bytes
            assert vec.onchip_accesses == ref.onchip_accesses


#: Golden regression corpus for the cache baselines: (workload, config,
#: SRAM bytes) -> exact DRAM (read, write) bytes of ``run_config`` at the
#: default granularity.  The fv1/N=1 solver traces fit every size here
#: (no eviction ever happens), gnn/cora overflows them, and cg at 1 MiB
#: overflows too — so both the footprint fit path and the evicting batch
#: kernel are pinned on real traces, not just on the random parity ones.
_FIT_SIZES = tuple(4 * MIB + 512 * k for k in (-1024, 37, 1023))
GOLDEN_CACHE_TRAFFIC = (
    ("cg/fv1/N=1", "Flex+LRU", _FIT_SIZES[0], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[0], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[0], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+LRU", _FIT_SIZES[1], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[1], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[1], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+LRU", _FIT_SIZES[2], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[2], 2373088, 1537280),
    ("cg/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[2], 2373088, 1537280),
    ("bicgstab/fv1/N=1", "Flex+LRU", _FIT_SIZES[0], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[0], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[0], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+LRU", _FIT_SIZES[1], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[1], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[1], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+LRU", _FIT_SIZES[2], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[2], 3218064, 2305440),
    ("bicgstab/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[2], 3218064, 2305440),
    ("mg/fv1/N=1", "Flex+LRU", _FIT_SIZES[0], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[0], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[0], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+LRU", _FIT_SIZES[1], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[1], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[1], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+LRU", _FIT_SIZES[2], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+BRRIP", _FIT_SIZES[2], 2178144, 998912),
    ("mg/fv1/N=1", "Flex+SRRIP", _FIT_SIZES[2], 2178144, 998912),
    ("gnn/cora", "Flex+LRU", _FIT_SIZES[0], 46769280, 15598080),
    ("gnn/cora", "Flex+BRRIP", _FIT_SIZES[0], 45033472, 15598080),
    ("gnn/cora", "Flex+SRRIP", _FIT_SIZES[0], 46769280, 15598080),
    ("gnn/cora", "Flex+LRU", _FIT_SIZES[1], 46769280, 15598080),
    ("gnn/cora", "Flex+BRRIP", _FIT_SIZES[1], 44887920, 15598080),
    ("gnn/cora", "Flex+SRRIP", _FIT_SIZES[1], 46769280, 15598080),
    ("gnn/cora", "Flex+LRU", _FIT_SIZES[2], 46769280, 15598080),
    ("gnn/cora", "Flex+BRRIP", _FIT_SIZES[2], 44728640, 15598080),
    ("gnn/cora", "Flex+SRRIP", _FIT_SIZES[2], 46769280, 15598080),
    ("cg/fv1/N=1", "Flex+LRU", 1 * MIB, 3578496, 1537280),
    ("cg/fv1/N=1", "Flex+BRRIP", 1 * MIB, 3542576, 1537280),
    ("cg/fv1/N=1", "Flex+SRRIP", 1 * MIB, 5180976, 1537280),
    # fig16a's two cache points at the default config.
    ("resnet/conv3_x", "Flex+LRU", 4 * MIB, 4694016, 2809856),
    ("resnet/conv3_x", "Flex+BRRIP", 4 * MIB, 4694016, 2809856),
)


@functools.lru_cache(maxsize=None)
def _golden_dag(name):
    return resolve_workload(name).build()


class TestGoldenCacheTraffic:
    @pytest.mark.parametrize("name,config,sram,read,write",
                             GOLDEN_CACHE_TRAFFIC)
    def test_cache_baseline_matches_golden(self, name, config, sram, read,
                                           write):
        result = run_config(config, _golden_dag(name),
                            AcceleratorConfig(sram_bytes=sram))
        assert (result.dram_read_bytes, result.dram_write_bytes) \
            == (read, write)

    @pytest.mark.parametrize("config", ["Flex+LRU", "Flex+BRRIP"])
    def test_fig12_trace_resolves_from_its_footprint(self, config,
                                                     monkeypatch):
        """The fig12 CG trace fits the default config's cache, so it
        resolves from its footprint and no cache is built.  Losing the
        fit path keeps the traffic above and no bench rung times it (the
        ``real_trace_*`` rungs replay gnn/cora, which overflows), so this
        test is what guards it."""
        def refuse(*args, **kwargs):
            raise AssertionError("a fitting trace built a cache")

        monkeypatch.setattr(SetAssociativeCache, "__init__", refuse)
        result = run_config(config, _golden_dag("cg/fv1/N=1"),
                            AcceleratorConfig())
        assert result.dram_read_bytes == 2373088


class TestStreamingTrace:
    def test_program_trace_bytes_matches_trace(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))
        cfg = AcceleratorConfig()
        _, nbytes, _ = program_trace_arrays(
            dag, AddressMap.for_dag(dag, cfg.line_bytes), cfg.rf_bytes)
        assert program_trace_bytes(dag) == nbytes.sum()
