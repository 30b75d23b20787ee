"""Persistent on-disk result store for simulation sweeps.

Simulated DRAM traffic is expensive to produce and tiny to keep: one
:class:`~repro.sim.results.SimResult` is a handful of integers.  The store
keeps every result ever simulated as one JSON line under a cache
directory (``~/.cache/repro`` by default, overridable via the
``REPRO_CACHE_DIR`` environment variable or ``--cache-dir``), keyed by the
runner's traffic key plus a schema version.  Repeat invocations of
``python -m repro`` then replay from disk instead of re-simulating.

Records whose schema version differs from the reader's are ignored on
load, so bumping :data:`SCHEMA_VERSION` invalidates stale caches without
any migration machinery.

The store is safe for **concurrent writers** — threads inside one
process (the service daemon simulates batches and tune jobs on worker
threads) and independent processes sharing one cache directory (several
CLI invocations, or a CLI run racing a daemon).  Every append is a
single ``O_APPEND`` ``write(2)`` of one complete line, so lines from
concurrent writers interleave whole, never torn; racing writers may
duplicate a key, which :meth:`ResultStore.reload` resolves
first-record-wins (simulations are deterministic, so duplicates carry
identical results — the rule only pins which byte range is live).
Another writer's records become visible on :meth:`ResultStore.reload`,
which decodes only what was appended since the previous scan.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..hw.config import AcceleratorConfig
from ..sim.results import SimResult

#: Bump whenever simulator semantics change in a way that alters traffic
#: for an unchanged key — every cached record of an older version is then
#: treated as missing.
#: v2: auto_granularity target raised 2M -> 20M (vectorized cache kernel),
#: so cache-baseline traffic at default granularity is finer-grained.
SCHEMA_VERSION = 2

#: File name inside the cache directory.
RESULTS_FILE = "results.jsonl"

#: Leading bytes of the results file that a reload compares against its
#: previous scan to notice a file rewritten in place.
HEAD_BYTES = 4096


def result_key(
    config: str,
    workload_name: str,
    cfg: AcceleratorConfig,
    cache_granularity: Optional[int] = None,
) -> Tuple:
    """Canonical memoisation key for one simulated traffic point.

    DRAM bandwidth is deliberately absent: traffic is bandwidth-independent
    and results are re-timed per bandwidth point (see
    :mod:`repro.baselines.runner`).  ``cache_granularity`` is a retired
    override that every caller leaves ``None``; its slot stays so result
    stores written with it remain valid.
    """
    return (
        config,
        workload_name,
        cfg.sram_bytes,
        cfg.line_bytes,
        cfg.cache_associativity,
        cfg.chord_entries,
        cfg.pipeline_fraction,
        cfg.rf_bytes,
        cache_granularity,
    )


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class ResultStore:
    """Write-through JSON-lines store of :class:`SimResult` records.

    The whole file is loaded into memory on open (records are tiny), gets
    are served from the in-memory index, and puts append one line — so a
    store survives crashes at any point with at most the in-flight record
    lost.  :meth:`reload` picks up other writers' appends.
    ``stale``/``duplicates``/``corrupt`` count the records of the
    current file that a load skipped.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 schema_version: int = SCHEMA_VERSION) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.path = self.directory / RESULTS_FILE
        self.schema_version = schema_version
        self.stale = 0          # records skipped on load (schema mismatch)
        self.duplicates = 0     # records skipped on load (key already seen)
        self.corrupt = 0        # records skipped on load (not valid JSON)
        self._warned_corrupt = 0
        self._index: Dict[str, SimResult] = {}
        #: Indexed keys whose record has not been scanned in the current
        #: file, mapped to the hash of the line this store appended for
        #: them (None: memory-only).
        self._unsynced: Dict[str, Optional[int]] = {}
        # What the last scan consumed; owned by reload() and clear(),
        # under the sync lock.
        self._offset = 0                 # bytes of the file scanned so far
        self._head = b""                 # its first HEAD_BYTES
        self._tail = b""                 # the last line scanned
        self._ident: Optional[Tuple[int, int]] = None  # (st_dev, st_ino)
        self._write_failed = False
        self._lock = threading.RLock()
        #: Serialises reload() and clear(); taken before ``_lock``.
        self._sync_lock = threading.Lock()
        self.reload()

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def key_str(key: Tuple) -> str:
        """Stable string form of a traffic-key tuple."""
        return json.dumps(list(key), separators=(",", ":"))

    # -- persistence -----------------------------------------------------------

    def reload(self) -> int:
        """Fold in the records appended since the last scan; returns how
        many new keys appeared.  The initial load is the same scan from
        offset 0.

        The store remembers the byte offset and identity (``st_dev``,
        ``st_ino``) of the file it last scanned, plus the first
        :data:`HEAD_BYTES` and the last line it consumed, and decodes
        only the complete lines appended since: O(appended), not
        O(file).  An unterminated final line (a writer mid-append, or a
        torn fragment that the next writer's newline will seal) is left
        for the next pass.  When the file shrank or was replaced
        (another identity, or the remembered head or last line no
        longer matches, as after an unlink that freed the inode for
        reuse, or a rewrite in place), the scan restarts at offset 0.
        A rewrite that keeps both the head and the line ending at the
        offset byte for byte goes unnoticed.

        The outcome is what a fresh open would see: the **first** record
        of a key on disk wins, and ``stale``/``duplicates``/``corrupt``
        count the current file.  Undecodable lines are counted because
        one torn line is expected after an interrupted writer, so a
        growing count is a store-health signal (bad disk, foreign
        writer), not routine noise.  In-memory entries that are not on
        disk (an unwritable store, or a file another process cleared)
        are kept on top.  This store's own appends are recognised by
        their bytes and never decoded again.

        Reloads are serialised with each other and with :meth:`clear`.
        Reading and decoding run outside the lock that :meth:`get` and
        :meth:`put` take, so those never wait on a long decode (a large
        append by another writer, or a rescan after a rewind); the lock
        is held only to fold the decoded records into the index.
        """
        with self._sync_lock:
            data, ident, rewind = self._read_unscanned()
            end = data.rfind(b"\n") + 1
            stale, corrupt, records = self._decode(data[:end], rewind)
            with self._lock:
                before = len(self._index)
                if rewind:
                    self._rewind()
                self.stale += stale
                self.corrupt += corrupt
                for record in records:
                    self._fold(*record)
                self._warn_corrupt()
                added = len(self._index) - before
            self._ident = ident
            if end:
                if len(self._head) < HEAD_BYTES:
                    self._head = (self._head + data[:end])[:HEAD_BYTES]
                self._offset += end
                self._tail = data[data.rfind(b"\n", 0, end - 1) + 1:end]
            return added

    def _read_unscanned(self) -> Tuple[bytes, Optional[Tuple[int, int]],
                                       bool]:
        """Read the bytes past the last scan (caller holds the sync
        lock); returns them, the file identity (None: no file) and
        whether the scan restarts at offset 0."""
        try:
            with self.path.open("rb") as fh:
                st = os.fstat(fh.fileno())
                ident = (st.st_dev, st.st_ino)
                if ident == self._ident \
                        and fh.read(len(self._head)) == self._head:
                    fh.seek(self._offset - len(self._tail))
                    data = fh.read()
                    if data.startswith(self._tail):
                        return data[len(self._tail):], ident, False
                fh.seek(0)
                return fh.read(), ident, self._ident is not None
        except OSError:
            # Missing or unreadable: behave as empty.
            return b"", None, self._ident is not None

    def _rewind(self) -> None:
        """Forget the scanned file (caller holds both locks): the scan
        restarts at offset 0, and every indexed key is memory-only until
        its record shows up again."""
        self._offset, self._head, self._tail = 0, b"", b""
        self.stale = self.duplicates = self.corrupt = 0
        self._unsynced = {ks: self._unsynced.get(ks) for ks in self._index}

    def _decode(self, chunk: bytes, rewind: bool
                ) -> Tuple[int, int,
                           List[Tuple[str, int, Optional[SimResult]]]]:
        """Decode the complete lines of ``chunk`` without the store lock;
        returns (stale, corrupt, records) with one ``(key string, line
        hash, result)`` per current-schema record, in file order.

        ``result`` is decoded only for the records that :meth:`_fold`
        will index, and is None for duplicates and this store's own
        appends.  The peek at the live index that decides this is exact
        although it takes no lock: only :meth:`put` runs concurrently,
        it never touches an indexed key, and it marks a key's line hash
        before it indexes the key or writes the line.
        """
        stale = corrupt = 0
        records = []
        seen = set()
        for line in chunk.split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:  # not JSON, or not UTF-8
                corrupt += 1
                continue
            if record.get("v") != self.schema_version:
                stale += 1
                continue
            ks = self.key_str(record["key"])
            digest = hash(line)
            new = ks not in seen and (
                ks not in self._index
                or ((rewind or ks in self._unsynced)
                    and self._unsynced.get(ks) != digest))
            seen.add(ks)
            records.append((ks, digest, SimResult.from_dict(
                record["result"]) if new else None))
        return stale, corrupt, records

    def _fold(self, ks: str, digest: int,
              result: Optional[SimResult]) -> None:
        """Fold one decoded record into the index (caller holds the
        lock)."""
        if ks in self._index:
            if ks not in self._unsynced:
                self.duplicates += 1
                return
            if self._unsynced.pop(ks) == digest:
                # This store's own append, first on disk: already indexed.
                return
        self._unsynced.pop(ks, None)
        assert result is not None, "the decode phase skipped a new record"
        self._index[ks] = result

    def _warn_corrupt(self) -> None:
        """Warn (once per growth) when undecodable records accumulate."""
        if self.corrupt > self._warned_corrupt:
            print(f"repro: result store {self.path} has {self.corrupt} "
                  "corrupt (undecodable) record(s); intact records were "
                  "kept", file=sys.stderr)
            self._warned_corrupt = self.corrupt

    def get(self, key: Tuple) -> Optional[SimResult]:
        with self._lock:
            return self._index.get(self.key_str(key))

    def put(self, key: Tuple, result: SimResult) -> None:
        ks = self.key_str(key)
        with self._lock:
            if ks in self._index:
                return
            line = None
            if not self._write_failed:
                record = {"v": self.schema_version, "key": json.loads(ks),
                          "result": result.to_dict()}
                line = json.dumps(record, separators=(",", ":"))
            # Mark the line before indexing the key or writing the line,
            # so a reload decoding without the lock recognises it.
            self._unsynced[ks] = (None if line is None
                                  else hash(line.encode("utf-8")))
            self._index[ks] = result
            if line is None:
                return
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._append_line(line)
            except OSError as exc:
                # The store is an optimisation: an unwritable cache location
                # degrades to in-memory-only instead of aborting the run.
                self._unsynced[ks] = None
                self._write_failed = True
                print(f"repro: result store unwritable ({exc}); "
                      "continuing without persistence", file=sys.stderr)

    def _append_line(self, line: str) -> None:
        """Append one record as a single ``O_APPEND`` ``write(2)`` call.

        POSIX appends of one buffer are atomic with respect to other
        appenders on local filesystems, so concurrent CLI processes and
        daemon threads can share a store file without torn lines.  A
        short write (e.g. disk full) is completed in a loop; if writing
        fails mid-record, a best-effort lone newline seals the fragment
        so the *next* writer's line cannot concatenate onto it — the
        fragment itself is then skipped as a torn line on load.
        """
        payload = (line + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            view = memoryview(payload)
            try:
                while view:
                    view = view[os.write(fd, view):]
            except OSError:
                if len(view) != len(payload):  # partial record on disk
                    try:
                        os.write(fd, b"\n")
                    except OSError:
                        pass
                raise
        finally:
            os.close(fd)

    def __contains__(self, key: Tuple) -> bool:
        return self.key_str(key) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def clear(self) -> int:
        """Delete the on-disk store; returns how many records were dropped."""
        with self._sync_lock, self._lock:
            dropped = len(self._index) + self.stale
            self._index.clear()
            self._unsynced.clear()
            self._offset, self._head, self._tail = 0, b"", b""
            self._ident = None
            self.stale = self.duplicates = self.corrupt = 0
            self._warned_corrupt = 0
            # stats.json is the run-counter ledger older versions kept
            # beside the results; a clear leaves neither behind.
            for name in (RESULTS_FILE, "stats.json"):
                try:
                    (self.directory / name).unlink()
                except OSError:
                    pass
            return dropped

    def workload_counts(self) -> Dict[str, int]:
        """Entries per workload name (key position 1 of every traffic key),
        sorted by name — what the service has warmed, per workload."""
        counts: Dict[str, int] = {}
        for ks in list(self._index):
            key = json.loads(ks)
            workload = str(key[1]) if len(key) > 1 else "?"
            counts[workload] = counts.get(workload, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        """Human-readable summary for ``repro cache stat``."""
        size = self.path.stat().st_size if self.path.exists() else 0
        skipped = []
        if self.stale:
            skipped.append(f"+{self.stale} stale-schema")
        if self.duplicates:
            skipped.append(f"+{self.duplicates} duplicate")
        if self.corrupt:
            skipped.append(f"+{self.corrupt} corrupt")
        lines = [
            f"cache dir:      {self.directory}",
            f"schema version: {self.schema_version}",
            f"entries:        {len(self)}"
            + (f" ({', '.join(skipped)} records ignored)" if skipped else ""),
            f"store size:     {size} bytes",
        ]
        for workload, count in self.workload_counts().items():
            lines.append(f"  {workload:30s} {count} entr"
                         + ("y" if count == 1 else "ies"))
        return "\n".join(lines)
