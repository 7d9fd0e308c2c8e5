"""Persistent result cache: sealed entries in one SQLite table.

:class:`ResultCache` keeps every entry in ``<cache_dir>/results.sqlite``
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro``), one row of table
``results(key, sealed)`` per result: the key is
``stable_hash(salt, spec.key)`` and the entry is the result's sealed
bytes (:func:`repro.runner.wire.seal`). A row that fails the
digest-and-unpickle check is a miss, deleted, never served. The first
writer of a key wins, and SQLite's own locking lets several processes
share one store (two CLI runs, a service and a CLI run). Within a
process the job table (:mod:`repro.runner.engine`) is the one writer;
workers never touch the store. Entries of the older one-file-per-result
layout (``??/*.pkl``) are not read; they may be deleted by hand.

The key is salted with a cache schema version, the package version and
a digest of the installed sources, so

* re-running an identical figure is a pure cache read (near-instant),
* any config/app/arch/scale change — however deep — misses, and
* payload-format changes are invalidated by bumping
  :data:`CACHE_SCHEMA_VERSION` (documented in DESIGN.md).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro.config import stable_hash
from repro.runner.wire import WireError, seal, unseal

#: Bump when the cached payload format changes (snapshot classes,
#: pickled structure, ...). Old entries then miss and are re-simulated.
#: v2: SMSnapshot grew a ``timeseries`` field (opt-in WindowSeries
#: payload recorded at window boundaries).
#: v3: JobSpec grew a ``workload`` field (declarative workload specs
#: as first-class apps), which changes every content-hash key.
#: v4: the pickled ``VictimTagTable`` inside Linebacker snapshots is
#: sparse (tag maps, not a dense entry array), and the cache key
#: derives from ``JobSpec.key`` instead of re-hashing the whole spec.
#: v5: an entry is the sealed bytes of the payload alone, with no
#: ``{"schema", "key", "payload"}`` envelope (the salt carries the
#: version, the row the key).
#: v6: an extension snapshot carries the ``summary()`` of its Load
#: Monitor and Victim Tag Table (``MonitorSummary`` / ``VTTSummary``),
#: not the pickled tables with every entry and tag.
CACHE_SCHEMA_VERSION = 6

#: The store's one file under the cache directory.
STORE_FILE = "results.sqlite"

#: Seconds a statement waits on another process's write before failing.
BUSY_TIMEOUT_S = 30.0

#: Sentinel distinguishing "entry absent" from a cached ``None``.
MISS = object()


_code_salt: "str | None" = None


def code_salt() -> str:
    """Digest of the installed ``repro`` sources.

    Simulator behaviour changes between commits without a version
    bump; folding the actual source bytes into the cache key means any
    code edit invalidates every prior entry instead of silently
    serving results from an older simulator. Computed once per process
    (~40 small files).
    """
    global _code_salt
    if _code_salt is None:
        digest = hashlib.sha256()
        pkg_root = Path(repro.__file__).resolve().parent
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            try:
                digest.update(path.read_bytes())
            except OSError:
                pass
        _code_salt = digest.hexdigest()
    return _code_salt


def cache_salt() -> str:
    """The invalidation salt folded into every cache key."""
    extra = os.environ.get("REPRO_CACHE_SALT", "")
    return (
        f"repro-cache-v{CACHE_SCHEMA_VERSION}:{repro.__version__}:"
        f"{code_salt()}:{extra}"
    )


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def _open_store(root: Path):
    """A connection to ``root``'s store file, created if need be.

    WAL lets readers run beside a writer; ``synchronous=NORMAL`` skips
    the fsync on each commit (a power loss may lose the last entries,
    which only costs their re-simulation). ``sqlite3`` is imported here,
    so a process that never opens a store does not load it."""
    import sqlite3

    root.mkdir(parents=True, exist_ok=True)
    db = sqlite3.connect(root / STORE_FILE, timeout=BUSY_TIMEOUT_S,
                         isolation_level=None, check_same_thread=False)
    try:
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                db.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                # Two processes switching a fresh file to WAL at once:
                # the loser is refused at once, without the busy wait.
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute("CREATE TABLE IF NOT EXISTS results "
                   "(key TEXT PRIMARY KEY, sealed BLOB NOT NULL)")
    except BaseException:
        db.close()
        raise
    return db


@dataclass
class CacheInfo:
    root: Path
    entries: int
    total_bytes: int


class ResultCache:
    """Content-addressed store of sealed portable simulation results:
    :meth:`read` hands back the sealed bytes beside the payload, and the
    job table :meth:`write`\\ s the sealed bytes it holds.

    One connection, opened on first use, serves every thread; this
    cache's lock serializes its statements (the coordinator's handler
    threads read while its dispatcher writes)."""

    def __init__(self, root: "Path | str | None" = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self._salt = cache_salt()
        self._lock = threading.Lock()
        self._db = None

    def key_for(self, spec) -> str:
        return stable_hash(self._salt, spec.key)

    def _query(self, sql: str, args: tuple = ()) -> list:
        """The rows of one statement, run on the store under the lock."""
        with self._lock:
            if self._db is None:
                self._db = _open_store(self.root)
            return self._db.execute(sql, args).fetchall()

    # -- lookup ----------------------------------------------------------
    def read(self, key: str) -> Any:
        """``(payload, sealed bytes)`` for ``key``, or :data:`MISS`.

        Any failure mode — no row, a store that cannot be opened or
        queried, a truncated or bit-flipped entry, an entry of an older
        format, classes that no longer unpickle — degrades to a miss; a
        row that fails the digest-and-unpickle check is deleted so it is
        rewritten cleanly.
        """
        try:
            rows = self._query("SELECT sealed FROM results WHERE key = ?", (key,))
        except Exception:
            return MISS
        if not rows:
            return MISS
        sealed = rows[0][0]
        try:
            return unseal(sealed), sealed
        except WireError:
            try:
                self._query("DELETE FROM results WHERE key = ? AND sealed = ?", (key, sealed))
            except Exception:
                pass  # still never served: the check runs on every read
            return MISS

    def get(self, key: str) -> Any:
        """The cached payload for ``key``, or :data:`MISS` (:meth:`read`)."""
        entry = self.read(key)
        return entry if entry is MISS else entry[0]

    def write(self, key: str, sealed: bytes) -> None:
        """Store ``sealed`` under ``key`` unless a row is there already:
        the first writer wins (payloads are deterministic). Raises when
        the store cannot be opened or written."""
        self._query("INSERT OR IGNORE INTO results VALUES (?, ?)", (key, sealed))

    def put(self, key: str, payload: Any) -> None:
        self.write(key, seal(payload))

    # -- maintenance -----------------------------------------------------
    def info(self) -> CacheInfo:
        ((entries, total),) = self._query(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(sealed)), 0) FROM results")
        return CacheInfo(root=self.root, entries=entries, total_bytes=total)

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        return len(self._query("DELETE FROM results RETURNING 1"))

    def close(self) -> None:
        """Close the store's connection; the next statement reopens it."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None
