"""Incremental result-store sync.

:meth:`ResultStore.reload` decodes only the lines appended since its
previous scan.  Three kinds of tests pin that:

* a differential test: random interleavings of writers, torn lines,
  clears, file replacements and in-place rewrites, where after every
  reload the store must agree with a fresh store opened on the same
  bytes;
* a lock test: a reload parked mid-decode must not block ``get`` or
  ``put``;
* count tests: a spy on ``SimResult.from_dict`` shows that a reload,
  and a cold sweep through a daemon, decode exactly the records other
  writers appended — never the whole file, never the store's own
  appends.  They guard the O(appended) cost without timing anything.
"""

import json
import os
import random
import sys
import threading

import pytest

from repro.orchestrator import store as store_module
from repro.orchestrator.store import SCHEMA_VERSION, ResultStore
from repro.sim.results import SimResult
from test_service import WORKLOAD, ServerThread, _reset_runner
from test_store_concurrency import make_key, make_result

#: Few keys, so writers keep colliding on the same key.
KEY_POOL = 10


def _line(key, result, version=SCHEMA_VERSION) -> str:
    return json.dumps({"v": version, "key": list(key),
                       "result": result.to_dict()}, separators=(",", ":"))


def _rewrite_prefix(path, record) -> None:
    """Overwrite everything before the file's last complete line with
    fresh ``record()`` lines, padded with blank lines to the same
    length, in place: the inode, the size and the last line stay."""
    old = path.read_bytes()
    end = old.rfind(b"\n") + 1
    start = old.rfind(b"\n", 0, max(end - 1, 0)) + 1
    prefix = b""
    while True:
        line = (_line(*record()) + "\n").encode("utf-8")
        if len(prefix) + len(line) > start:
            break
        prefix += line
    prefix += b"\n" * (start - len(prefix))
    with open(path, "r+b") as fh:
        fh.write(prefix)


class _Interleaving:
    """One seeded run of writers and readers over one store directory.

    ``mine`` is the store under test; everything else writes the file
    the ways a shared cache directory sees in practice.
    """

    def __init__(self, directory, seed: int) -> None:
        self.dir = directory
        self.dir.mkdir(parents=True)
        self.rng = random.Random(seed)
        self.mine = ResultStore(directory)
        self.writers = [ResultStore(directory), ResultStore(directory)]
        self.stale_writer = ResultStore(directory,
                                        schema_version=SCHEMA_VERSION + 1)
        self.tag = 0
        self.checks = 0

    def _record(self):
        """A pool key with a result never produced before, so two
        records of one key always differ."""
        self.tag += 1
        return make_key("k", self.rng.randrange(KEY_POOL)), \
            make_result("k", self.tag)

    def _append_raw(self, text: str) -> None:
        with open(self.mine.path, "a", encoding="utf-8") as fh:
            fh.write(text)

    def _fragment(self) -> str:
        line = _line(*self._record())
        return line[:self.rng.randrange(1, len(line))]

    def _replace(self) -> None:
        """Swap in another file of equal or larger size."""
        size = (self.mine.path.stat().st_size
                if self.mine.path.exists() else 0)
        lines = []
        while sum(len(x) + 1 for x in lines) < max(size, 1):
            lines.append(_line(*self._record()))
        tmp = self.dir / "replacement.tmp"
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, self.mine.path)

    def _rewrite(self) -> None:
        """Rewrite the file in place: the same inode and size, another
        prefix, and the same final line at the same offset."""
        if self.mine.path.exists():
            _rewrite_prefix(self.mine.path, self._record)

    def step(self) -> None:
        action = self.rng.choices(
            ["writer", "mine", "stale", "torn", "sealed", "garbage",
             "blank", "clear", "replace", "rewrite", "reload"],
            weights=[30, 12, 6, 6, 4, 3, 2, 4, 4, 4, 25])[0]
        if action == "writer":
            self.rng.choice(self.writers).put(*self._record())
        elif action == "mine":
            self.mine.put(*self._record())
        elif action == "stale":
            self.stale_writer.put(*self._record())
        elif action == "torn":
            # Unterminated: the next writer's line seals it into one
            # corrupt line, or a reload finds it as the final line.
            self._append_raw(self._fragment())
        elif action == "sealed":
            # An interrupted writer's own lone-newline seal.
            self._append_raw(self._fragment() + "\n")
        elif action == "garbage":
            self._append_raw("not json\n")
        elif action == "blank":
            self._append_raw("\n")
        elif action == "clear":
            ResultStore(self.dir).clear()
        elif action == "replace":
            self._replace()
        elif action == "rewrite":
            self._rewrite()
        else:
            self.check()

    def check(self) -> None:
        before = dict(self.mine._index)
        self.mine.reload()
        fresh = ResultStore(self.dir)
        # Disk wins where a fresh open sees the key; memory-only entries
        # (from a cleared or replaced file) stay on top.
        assert self.mine._index == {**before, **fresh._index}
        assert (self.mine.stale, self.mine.duplicates, self.mine.corrupt) \
            == (fresh.stale, fresh.duplicates, fresh.corrupt)
        self.checks += 1


class TestDifferentialReload:
    @pytest.mark.parametrize("seed", range(30))
    def test_reload_matches_a_fresh_open(self, tmp_path, seed, capsys):
        run = _Interleaving(tmp_path / "store", seed)
        for _ in range(80):
            run.step()
        run.check()
        assert run.checks > 1
        capsys.readouterr()  # corrupt-record warnings are expected here

    def test_unterminated_final_line_waits_for_its_newline(self, tmp_path):
        (tmp_path / "store").mkdir()
        store = ResultStore(tmp_path / "store")
        line = _line(make_key("late", 0), make_result("late", 0))
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write(line[:20])
        assert store.reload() == 0
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write(line[20:] + "\n")
        assert store.reload() == 1
        assert store.corrupt == 0
        assert store.get(make_key("late", 0)) == make_result("late", 0)


    def test_rewrite_in_place_keeping_the_last_line_rescans(self, tmp_path):
        directory = tmp_path / "store"
        mine = ResultStore(directory)
        _fill(ResultStore(directory), "old", 30)
        mine.reload()
        ident = (mine.path.stat().st_ino, mine.path.stat().st_size)
        fresh_keys = iter(range(1000))

        def record():
            i = next(fresh_keys)
            return make_key("new", i), make_result("new", i)

        _rewrite_prefix(mine.path, record)
        assert (mine.path.stat().st_ino, mine.path.stat().st_size) == ident
        before = dict(mine._index)
        mine.reload()
        fresh = ResultStore(directory)
        assert fresh.get(make_key("new", 0)) == make_result("new", 0)
        assert mine._index == {**before, **fresh._index}
        assert (mine.stale, mine.duplicates, mine.corrupt) \
            == (fresh.stale, fresh.duplicates, fresh.corrupt)


class TestConcurrentSync:
    def test_reloads_race_puts_and_external_appends(self, tmp_path):
        """The daemon's pattern under stress: reloads on one thread race
        puts on several others into the same store, while a second store
        appends to the same file.  Nothing is lost, and the store ends up
        equal to a fresh open."""
        directory = tmp_path / "store"
        mine = ResultStore(directory)
        other = ResultStore(directory)
        n_threads, n_each = 6, 40
        stop = threading.Event()

        def putter(worker):
            _fill(mine, f"t{worker}", n_each)

        def reloader():
            while not stop.is_set():
                mine.reload()

        writers = [threading.Thread(target=putter, args=(w,))
                   for w in range(n_threads)]
        writers.append(threading.Thread(target=_fill,
                                        args=(other, "ext", n_each)))
        sync = threading.Thread(target=reloader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sync.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            stop.set()
            sync.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not sync.is_alive()
        mine.reload()
        fresh = ResultStore(directory)
        assert len(mine) == (n_threads + 1) * n_each
        assert mine._index == fresh._index
        assert (mine.stale, mine.duplicates, mine.corrupt) == (0, 0, 0)
        assert (fresh.stale, fresh.duplicates, fresh.corrupt) == (0, 0, 0)


    def test_get_and_put_do_not_wait_for_a_decoding_reload(
            self, tmp_path, monkeypatch):
        """A reload parked in the middle of decoding another writer's
        records holds no lock that get or put needs."""
        directory = tmp_path / "store"
        mine = ResultStore(directory)
        mine.put(make_key("mine", 0), make_result("mine", 0))
        _fill(ResultStore(directory), "bulk", 200)
        decoding, release = threading.Event(), threading.Event()

        class Gate:
            @staticmethod
            def from_dict(data):
                decoding.set()
                release.wait(60)
                return SimResult.from_dict(data)

        monkeypatch.setattr(store_module, "SimResult", Gate)
        sync = threading.Thread(target=mine.reload)
        sync.start()
        try:
            assert decoding.wait(30)
            served = threading.Event()

            def use():
                assert mine.get(make_key("mine", 0)) is not None
                mine.put(make_key("mine", 1), make_result("mine", 1))
                served.set()

            user = threading.Thread(target=use)
            user.start()
            assert served.wait(10), "get/put waited for the reload"
            user.join(10)
        finally:
            release.set()
            sync.join(60)
        assert not sync.is_alive()
        assert len(mine) == 202
        assert mine._index == ResultStore(directory)._index


class _DecodeSpy:
    """Stands in for ``SimResult`` inside the store module: counts the
    records the store decodes."""

    def __init__(self) -> None:
        self.calls = 0

    def from_dict(self, data):
        self.calls += 1
        return SimResult.from_dict(data)


@pytest.fixture
def decodes(monkeypatch):
    spy = _DecodeSpy()
    monkeypatch.setattr(store_module, "SimResult", spy)
    return spy


def _fill(store: ResultStore, name: str, n: int) -> None:
    for i in range(n):
        store.put(make_key(name, i), make_result(name, i))


class TestSyncIsOAppended:
    def test_reload_decodes_only_external_appends(self, tmp_path, decodes):
        other = ResultStore(tmp_path / "store")
        _fill(other, "bulk", 1000)
        mine = ResultStore(tmp_path / "store")
        assert decodes.calls == 1000  # the initial load is a full scan
        for k in (0, 1, 7, 40):
            _fill(other, f"batch{k}", k)
            decodes.calls = 0
            assert mine.reload() == k
            assert decodes.calls == k
        # The store's own appends are recognised, not decoded again.
        _fill(mine, "own", 5)
        decodes.calls = 0
        assert mine.reload() == 0
        assert decodes.calls == 0
        assert len(mine) == 1000 + 48 + 5

    def test_cold_sweep_decodes_only_other_writers_records(
            self, tmp_path, decodes):
        cache = tmp_path / "cache"
        other = ResultStore(cache)
        _fill(other, "bulk", 1000)
        _reset_runner()
        try:
            with ServerThread(cache_dir=str(cache)) as srv:
                assert decodes.calls == 1000  # the daemon's boot load
                with srv.client() as client:
                    for sweep, appended in enumerate((3, 0, 5)):
                        _fill(other, f"other{sweep}", appended)
                        decodes.calls = 0
                        out = client.submit_sweep(
                            [WORKLOAD], configs=["CELLO"],
                            sram_mb=[1.0 + sweep])
                        assert out.simulations == 1
                        # Neither the 1,000 old records nor the
                        # daemon's own earlier appends are re-decoded.
                        assert decodes.calls == appended
        finally:
            _reset_runner()
