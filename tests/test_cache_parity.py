"""Golden-parity suite: the vectorized cache backend must be byte-identical
to the scalar reference backend.

The vector backend resolves chunks that cannot evict in closed form and
the rest in conflict-free batches; these tests pit it against the
original per-access scalar loop on randomized and adversarial traces
(same-set conflict storms, write-allocate mixes, flushes, closed-form
hand-offs) for every policy, requiring exact :class:`BufferStats`
equality and identical final tag/dirty state.  Golden DRAM bytes pin the
cache baselines on real traces.  Also covers the streaming trace
iterator (laziness + equality with the eager form) and the segment
chunking path.
"""

import functools
import itertools
import random

import numpy as np
import pytest

from repro.baselines.configs import run_config
from repro.buffers.brrip import BrripPolicy
from repro.buffers.cache import ChunkFacts, SetAssociativeCache, supports_vector
from repro.buffers.lru import LruPolicy
from repro.buffers.srrip import SrripPolicy
from repro.hw.config import MIB, AcceleratorConfig
from repro.sim.address_map import AddressMap
from repro.sim.engine import CacheEngine
from repro.sim.trace import (
    StreamSegment,
    iter_program_trace,
    program_trace,
    program_trace_arrays,
    program_trace_bytes,
    trace_bytes,
)
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


def replay_segments(cache, segments, chunk_accesses=None):
    if chunk_accesses is None:
        cache.access_segments(iter(segments))
    else:
        cache.access_segments(iter(segments), chunk_accesses=chunk_accesses)


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
            segments.append(StreamSegment(
                "T", start, nbytes, is_write=rng.random() < 0.4
            ))
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
            StreamSegment("T", rng.randrange(0, 1 << 14),
                          rng.randrange(1, 400), rng.random() < 0.5)
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
            [StreamSegment("W", i * 16, 16, True) for i in range(64)]
            + [StreamSegment("R", i * 16, 16, False) for i in range(64)]
            + [StreamSegment("W2", i * 16, 16, True) for i in range(32)]
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
        segments = [StreamSegment("S", i * 16, 16, False) for i in range(400)]
        segments += [StreamSegment("S", i * 16, 16, False) for i in range(400)]
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        assert ref.policy._fill_counter == vec.policy._fill_counter

    def test_empty_and_degenerate_segments(self):
        ref, vec = pair("lru")
        segments = [
            StreamSegment("Z", 0, 0, False),      # empty: no accesses
            StreamSegment("A", 5, 1, True),       # sub-line
            StreamSegment("B", 15, 2, False),     # straddles a line boundary
        ]
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        assert vec.stats.accesses == 3


def spy_closed_form(cache):
    """Record the verdict of every eviction-free attempt on ``cache``."""
    verdicts = []
    inner = cache._resolve_eviction_free

    def spy(chunk):
        verdicts.append(inner(chunk))
        return verdicts[-1]

    cache._resolve_eviction_free = spy
    return verdicts


def batch_only(policy_name, capacity=4096, line=16, assoc=4):
    """A vector cache with the closed form disabled: the batch kernel's
    policy matrices are the oracle for the closed form's."""
    cache = SetAssociativeCache(capacity, line, assoc,
                                POLICIES[policy_name](), backend="vector")
    cache._resolve_eviction_free = lambda chunk: False
    return cache


def assert_same_policy_state(vec, batched):
    assert vec._tick == batched._tick
    for name, matrix in vars(vec._vstate).items():
        np.testing.assert_array_equal(matrix, getattr(batched._vstate, name))


def block_segments(blocks, is_write, line=16):
    return [StreamSegment("T", b * line, line, is_write) for b in blocks]


class TestEvictionFreeParity:
    """The closed form that resolves chunks which cannot evict, and its
    hand-off to and from the batch kernel, against the scalar reference."""

    # 64 sets x 4 ways of 16 B lines.
    GEOMETRY = dict(capacity=4096, line=16, assoc=4)

    def handoff_segments(self):
        """Fitting chunks (a warm-up and dirty re-touches), a sweep 4x the
        capacity that overflows, then re-reads of the sweep's tail, which
        is resident again and so fits."""
        return (block_segments(range(100), False)
                + block_segments(range(50, 150), True)
                + block_segments(range(200), False)
                + block_segments(range(1024), False)
                + block_segments(range(960, 1024), True)
                + block_segments(range(992, 1024), False))

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_fitting_chunks_hand_off_to_the_batch_kernel(self, policy):
        ref, vec = pair(policy, **self.GEOMETRY)
        batched = batch_only(policy, **self.GEOMETRY)
        verdicts = spy_closed_form(vec)
        segments = self.handoff_segments()
        replay_segments(ref, segments)
        replay_segments(vec, segments, chunk_accesses=64)
        replay_segments(batched, segments, chunk_accesses=64)
        assert_identical(ref, vec)
        # Closed form first, then the batch kernel, then closed form again.
        assert verdicts[0] and not all(verdicts)
        assert verdicts[-1]
        # The policy matrices and the clock match the batch kernel's too.
        assert_same_policy_state(vec, batched)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()

    def test_brrip_throttle_survives_the_handoff(self):
        ref = SetAssociativeCache(4096, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="reference")
        vec = SetAssociativeCache(4096, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="vector")
        verdicts = spy_closed_form(vec)
        # 7 fills per fitting chunk: the long insertions land mid-chunk.
        segments = self.handoff_segments()
        replay_segments(ref, segments)
        replay_segments(vec, segments, chunk_accesses=7)
        assert True in verdicts and False in verdicts
        assert_identical(ref, vec)
        assert vec.policy._fill_counter == ref.policy._fill_counter

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_resident_dirty_lines_retouched(self, policy):
        """A fitting chunk re-reads dirty lines (they stay dirty), writes
        clean resident ones (they turn dirty) and fills new ones."""
        ref, vec = pair(policy, **self.GEOMETRY)
        verdicts = spy_closed_form(vec)
        segments = (block_segments(range(32), True)
                    + block_segments(range(32, 64), False)
                    + block_segments(range(64), False)
                    + block_segments(range(48, 80), True))
        replay_segments(ref, segments)
        replay_segments(vec, segments[:64])
        replay_segments(vec, segments[64:])
        assert verdicts == [True, True]
        assert_identical(ref, vec)
        assert vec._dirty.sum() == 64
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize("policy", list(POLICIES))
    @pytest.mark.parametrize("n_resident", [0, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_set_at_assoc_fits_and_assoc_plus_one_does_not(
            self, policy, n_resident, extra):
        """Set 0 ends the chunk holding ``assoc + extra`` lines: its
        resident ones plus the chunk's new blocks.  With resident lines
        the chunk's own distinct count stays within ``assoc``, so only
        the residency check can reject it."""
        ref, vec = pair(policy, capacity=1024, line=16, assoc=4)  # 16 sets
        batched = batch_only(policy, capacity=1024, line=16, assoc=4)
        for i in range(n_resident):
            for cache in (ref, vec, batched):
                cache.access_line(16 * i, True)
        verdicts = spy_closed_form(vec)
        new = [16 * i for i in range(n_resident, 4 + extra)]
        trace = (new + [1, 17] + new[::-1]) * 2
        writes = [i % 3 == 0 for i in range(len(trace))]
        for b, w in zip(trace, writes):
            ref.access_line(b, w)
        for cache in (vec, batched):
            cache._simulate_blocks(np.array(trace, dtype=np.int64),
                                   np.array(writes, dtype=bool))
        assert verdicts == [extra == 0]
        assert_identical(ref, vec)
        # Re-touched new lines end at their last touch (LRU) or promoted
        # (RRIP), exactly as the batch kernel leaves them.
        assert_same_policy_state(vec, batched)


class CountingMemo:
    """A ``memo(key, compute)`` for ``access_arrays`` that records what it
    builds: the last element of each key computed (``bounds``,
    ``distinct`` or ``facts``)."""

    def __init__(self):
        self.kept = {}
        self.built = []

    def __call__(self, key, compute):
        if key not in self.kept:
            self.built.append(key[-1])
            self.kept[key] = compute()
        return self.kept[key]


def cache_state(cache):
    """Everything a replay can change, copied."""
    return {"stats": cache.stats.as_dict(), "tick": cache._tick,
            "tags": cache._tags.copy(), "dirty": cache._dirty.copy(),
            "fill_counter": getattr(cache.policy, "_fill_counter", None),
            **{k: v.copy() for k, v in vars(cache._vstate).items()}}


def assert_same_state(a, b):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestChunkFactsMemo:
    """The closed form reads each chunk's :class:`ChunkFacts` through a
    memo shared by every cache geometry that replays the trace; no state
    may leak from one replay to the next through it."""

    def test_facts_of_a_small_stream(self):
        facts = ChunkFacts.of(np.array([5, 3, 5, 7, 3, 5], dtype=np.int64),
                              np.array([0, 1, 0, 0, 0, 1], dtype=bool))
        np.testing.assert_array_equal(facts.blocks, [5, 3, 7])
        np.testing.assert_array_equal(facts.first, [0, 1, 3])
        np.testing.assert_array_equal(facts.last, [5, 4, 3])
        np.testing.assert_array_equal(facts.dirty, [True, True, False])
        np.testing.assert_array_equal(facts.by_last, [2, 1, 0])

    #: 147,699 line accesses in five chunks, so four of them start on a
    #: non-empty cache.  At 1 MiB the first four fit and the last
    #: overflows a set; 3.5 and 4.5 MiB fit throughout.
    WORKLOAD = "bicgstab/fv1/N=1@it1"
    CHUNK = 1 << 15
    SIZES_MIB = (1, 3.5, 4.5, 3.5)

    @pytest.fixture(scope="class")
    def trace(self):
        dag = _golden_dag(self.WORKLOAD)
        cfg = AcceleratorConfig()
        return program_trace_arrays(
            dag, AddressMap.for_dag(dag, line_bytes=cfg.line_bytes),
            rf_bytes=cfg.rf_bytes)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_alternating_geometries_share_one_memo(self, policy, trace):
        cfg = AcceleratorConfig()
        memo = CountingMemo()
        reference = {}
        for i, mib in enumerate(self.SIZES_MIB):
            def make(backend="vector"):
                return SetAssociativeCache(
                    int(mib * MIB), cfg.line_bytes, cfg.cache_associativity,
                    POLICIES[policy](), backend=backend)

            memoised, fresh = make(), make()
            verdicts = spy_closed_form(memoised)
            memo.built.clear()
            memoised.access_arrays(*trace, chunk_accesses=self.CHUNK,
                                   memo=memo)
            fresh.access_arrays(*trace, chunk_accesses=self.CHUNK)
            if i == 0:
                # Every chunk fits the lines, so each builds its facts;
                # the last is then rejected and takes the batch kernel.
                assert memo.built == ["bounds", "distinct", "facts"] * 5
                assert verdicts[:4] == [True] * 4 and not verdicts[4]
            else:
                assert memo.built == [] and verdicts == [True] * 5
            memoised.flush()
            fresh.flush()
            assert_same_state(cache_state(memoised), cache_state(fresh))
            if mib not in reference:
                ref = make("reference")
                ref.access_arrays(*trace)
                ref.flush()
                reference[mib] = ref.stats.as_dict()
            assert memoised.stats.as_dict() == reference[mib]

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_fitting_count_overflowing_one_set(self, policy):
        """The chunk spans fewer blocks than twice the cache's lines and
        has fewer distinct blocks than lines, so its facts are built, but
        set 0 receives at least one block more than it has ways: the
        closed form must reject it without touching the cache, and the
        batch kernel must resolve it exactly."""
        geometry = dict(capacity=4096, line=16, assoc=4)  # 64 sets x 4 ways
        rng = random.Random(29)
        warm = [rng.randrange(0, 512) for _ in range(120)]
        hot = [64 * (3 + k) for k in range(5)]            # all in set 0
        stream = [rng.randrange(0, 512) for _ in range(150)] + hot * 3
        rng.shuffle(stream)
        warm_w = [rng.random() < 0.3 for _ in warm]
        stream_w = [rng.random() < 0.3 for _ in stream]
        ref, vec = pair(policy, **geometry)
        batched = batch_only(policy, **geometry)
        for b, w in zip(warm + stream, warm_w + stream_w):
            ref.access_line(b, w)
        for cache in (vec, batched):
            cache._simulate_blocks(np.array(warm, dtype=np.int64),
                                   np.array(warm_w, dtype=bool))
        attempts = []
        inner = vec._resolve_eviction_free

        def spy(chunk):
            before = cache_state(vec)
            attempts.append(inner(chunk))
            if not attempts[-1]:
                assert_same_state(cache_state(vec), before)
            return attempts[-1]

        vec._resolve_eviction_free = spy
        memo = CountingMemo()
        arrays = (np.array(stream, dtype=np.int64) * 16,
                  np.full(len(stream), 16, dtype=np.int64),
                  np.array(stream_w, dtype=bool))
        assert len(set(stream)) <= vec.n_sets * vec.assoc
        assert max(stream) - min(stream) < 2 * vec.n_sets * vec.assoc
        vec.access_arrays(*arrays, memo=memo)
        batched.access_arrays(*arrays)
        assert attempts == [False]
        assert memo.built == ["bounds", "distinct", "facts"]
        assert_identical(ref, vec)
        assert_same_state(cache_state(vec), cache_state(batched))


    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_wide_chunk_rejected_on_its_range(self, policy):
        """Four distinct blocks fit 64 lines, but they span more blocks
        than twice the lines: the closed form rejects the chunk on its
        range, before counting it, and the batch kernel resolves it."""
        geometry = dict(capacity=1024, line=16, assoc=4)  # 16 sets x 4 ways
        ref, vec = pair(policy, **geometry)
        verdicts = spy_closed_form(vec)
        stream = [0, 16, 1, 200, 0, 16]
        writes = [True, False, False, True, False, True]
        for b, w in zip(stream, writes):
            ref.access_line(b, w)
        memo = CountingMemo()
        vec.access_arrays(np.array(stream, dtype=np.int64) * 16,
                          np.full(len(stream), 16, dtype=np.int64),
                          np.array(writes, dtype=bool), memo=memo)
        assert verdicts == [False]
        assert memo.built == ["bounds"]
        assert_identical(ref, vec)

class TestVectorPolicyContract:
    """Every built-in policy honours the two rules the closed form relies
    on (see ``VectorReplacementPolicy``)."""

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
    def test_auto_picks_vector_for_builtin_policies(self):
        for policy in (LruPolicy(), BrripPolicy(), SrripPolicy()):
            assert supports_vector(policy)
            assert SetAssociativeCache(1024, 16, 4, policy).backend == "vector"

    def test_scalar_only_policy_falls_back(self):
        class ScalarOnly:
            def make_set_state(self, assoc):
                return list(range(assoc))

            def on_hit(self, state, way):
                pass

            def choose_victim(self, state):
                return state[0]

            def on_fill(self, state, way):
                pass

        cache = SetAssociativeCache(1024, 16, 4, ScalarOnly())
        assert cache.backend == "reference"
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 16, 4, ScalarOnly(), backend="vector")
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="nope")

    def test_reference_segments_path_matches_ranges(self):
        """access_segments on the reference backend = the old loop."""
        a = SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="reference")
        b = SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="reference")
        segments = [StreamSegment("T", i * 40, 60, i % 2 == 0)
                    for i in range(50)]
        a.access_segments(iter(segments))
        for s in segments:
            b.access_range(s.start, s.nbytes, s.is_write)
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
#: overflows too — so both the eviction-free and the evicting kernel
#: paths are pinned on real traces, not just on the random parity ones.
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
    def test_fig12_trace_resolves_in_closed_form(self, config, monkeypatch):
        """Every chunk of the fig12 CG trace at the default config takes
        the eviction-free closed form; the spy sees every chunk, since the
        distinct-count rejection is part of the closed form.  Losing it
        keeps the traffic above but costs the ``real_trace_*`` bench
        rungs ~2x against the committed baseline, which the 10x rate
        gate would not catch."""
        verdicts = []
        inner = SetAssociativeCache._resolve_eviction_free

        def spy(cache, chunk):
            verdicts.append(inner(cache, chunk))
            return verdicts[-1]

        monkeypatch.setattr(SetAssociativeCache, "_resolve_eviction_free",
                            spy)
        result = run_config(config, _golden_dag("cg/fv1/N=1"),
                            AcceleratorConfig())
        assert verdicts and all(verdicts)
        assert result.dram_read_bytes == 2373088


class TestStreamingTrace:
    @pytest.fixture(scope="class")
    def cg(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))
        return dag, AddressMap.for_dag(dag, line_bytes=16)

    def test_iterator_matches_eager(self, cg):
        dag, amap = cg
        assert list(iter_program_trace(dag, amap)) == program_trace(dag, amap)

    def test_program_trace_bytes_matches_trace(self, cg):
        dag, amap = cg
        assert program_trace_bytes(dag) == trace_bytes(program_trace(dag, amap))

    def test_trace_is_lazy(self, cg):
        """Bounded memory: pulling the first segment must not touch tensors
        of later ops (one op's segments are materialized at a time)."""
        dag, amap = cg

        class SpyMap:
            def __init__(self, inner):
                self.inner = inner
                self.queried = set()

            def get(self, name):
                self.queried.add(name)
                return self.inner.get(name)

        spy = SpyMap(amap)
        it = iter_program_trace(dag, spy)
        next(it)
        first_op_tensors = {t.name for t in dag.ops[0].inputs}
        first_op_tensors.add(dag.ops[0].output.name)
        assert spy.queried <= first_op_tensors
        all_tensors = {t.name for t in dag.tensors}
        assert spy.queried < all_tensors  # strictly fewer than the program

    def test_trace_bytes_consumes_iterator(self, cg):
        dag, amap = cg
        assert trace_bytes(iter_program_trace(dag, amap)) == \
            program_trace_bytes(dag)
