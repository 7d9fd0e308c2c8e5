"""Persistent result cache: pickled entries over pluggable backends.

:class:`ResultCache` owns the *semantics* — key derivation
(``stable_hash(salt, spec.key)``), the entry envelope (schema version +
key echo + payload), and the corruption contract (anything unreadable
degrades to a miss and is discarded, never served). *Storage* is a
:class:`CacheBackend`:

* :class:`DirectoryBackend` — the historical layout: one pickle per
  job under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), named
  ``<key>.pkl`` inside a two-character fan-out directory, written
  atomically (temp file + ``os.replace``) so an interrupted writer can
  never leave a half-written entry behind.
* :class:`SharedDirectoryBackend` — the same layout hardened for
  *many concurrent writers on a shared (e.g. network) filesystem*: an
  advisory per-key ``flock`` serializes writers, and a read-through
  check under the lock makes the first completed write win — later
  writers of the same key (which, for a deterministic simulator,
  carry an identical payload) skip their write instead of churning
  the file underneath readers. On platforms without ``fcntl`` the
  lock degrades to plain atomic-replace semantics.

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
import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

import repro
from repro.config import stable_hash

#: Bump when the cached payload format changes (snapshot classes,
#: pickled structure, ...). Old entries then miss and are re-simulated.
#: v2: SMSnapshot grew a ``timeseries`` field (opt-in WindowSeries
#: payload recorded at window boundaries).
#: v3: JobSpec grew a ``workload`` field (declarative workload specs
#: as first-class apps), which changes every content-hash key.
#: v4: the pickled ``VictimTagTable`` inside Linebacker snapshots is
#: sparse (tag maps, not a dense entry array), and the cache key
#: derives from ``JobSpec.key`` instead of re-hashing the whole spec.
CACHE_SCHEMA_VERSION = 4

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


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
class CacheBackend:
    """Raw entry-byte storage contract behind :class:`ResultCache`.

    A backend maps keys to opaque byte blobs. It must guarantee that
    :meth:`read` never observes a torn write (it may return garbage if
    the *medium* corrupts data — the front-end's envelope check covers
    that) and that :meth:`write`/:meth:`discard` failures surface as
    exceptions rather than silent data loss.
    """

    root: Path

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def read(self, key: str) -> "bytes | None":
        """The stored bytes for ``key``, or ``None`` when absent."""
        raise NotImplementedError

    def write(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def discard(self, key: str) -> None:
        """Best-effort removal; never raises for a missing entry."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        yield from self.root.glob("??/*.pkl")


class DirectoryBackend(CacheBackend):
    """One file per entry, atomic replace, single-writer-friendly."""

    def __init__(self, root: "Path | str | None" = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()

    def read(self, key: str) -> "bytes | None":
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            return None

    def write(self, key: str, data: bytes) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class SharedDirectoryBackend(DirectoryBackend):
    """Advisory-lock variant for concurrent writers on one directory.

    Writers take an exclusive ``flock`` on ``<key>.lock`` next to the
    entry, then re-check existence *under the lock* (read-through):
    if another writer already landed the key, this write is skipped —
    first writer wins and the entry file is only ever replaced when
    absent. Readers stay lock-free; atomic replace guarantees they
    see a complete entry or none.
    """

    @contextmanager
    def _locked(self, key: str):
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = path.with_suffix(".lock")
        try:
            import fcntl
        except ImportError:  # non-POSIX: degrade to lockless atomic replace
            yield
            return
        with open(lock_path, "a+b") as lock_fh:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_fh.fileno(), fcntl.LOCK_UN)

    def write(self, key: str, data: bytes) -> None:
        with self._locked(key):
            if self.path_for(key).exists():
                return  # first writer won; identical payload by determinism
            super().write(key, data)

    def discard(self, key: str) -> None:
        super().discard(key)
        try:
            self.path_for(key).with_suffix(".lock").unlink()
        except OSError:
            pass


@dataclass
class CacheInfo:
    root: Path
    entries: int
    total_bytes: int


class ResultCache:
    """Content-addressed pickle store for portable simulation results."""

    def __init__(
        self,
        root: "Path | str | None" = None,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        if backend is not None and root is not None:
            raise ValueError("pass either root or backend, not both")
        self.backend = backend if backend is not None else DirectoryBackend(root)
        self.root = self.backend.root
        self._salt = cache_salt()

    def key_for(self, spec) -> str:
        return stable_hash(self._salt, spec.key)

    def path_for(self, key: str) -> Path:
        return self.backend.path_for(key)

    # -- lookup ----------------------------------------------------------
    def get(self, key: str) -> Any:
        """The cached payload for ``key``, or :data:`MISS`.

        Any failure mode — missing file, truncated pickle, foreign
        schema, classes that no longer unpickle — degrades to a miss;
        corrupted entries are deleted so they are rewritten cleanly.
        """
        try:
            data = self.backend.read(key)
        except Exception:
            return MISS
        if data is None:
            return MISS
        try:
            entry = pickle.loads(data)
        except Exception:
            self.backend.discard(key)
            return MISS
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key
            or "payload" not in entry
        ):
            self.backend.discard(key)
            return MISS
        return entry["payload"]

    def put(self, key: str, payload: Any) -> None:
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "payload": payload}
        self.backend.write(
            key, pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        )

    # -- maintenance -----------------------------------------------------
    def info(self) -> CacheInfo:
        entries = 0
        total = 0
        for path in self.backend.entry_paths():
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheInfo(root=self.root, entries=entries, total_bytes=total)

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in list(self.backend.entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
