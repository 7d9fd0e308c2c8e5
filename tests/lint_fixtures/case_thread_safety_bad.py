"""Seeded lock-discipline violations for the thread-safety pass.

``MiniFleet`` reconstructs the PR 6-era ``WorkerFleet`` races: health
counters and ``last_error`` mutated by the dispatcher with no lock and
read by the stats endpoint, the worker table touched lock-free from
some entry points but guarded from others, an ABBA deadlock between
the book-keeping and I/O locks (nested), another between the
book-keeping and stats locks (one side a single ``with a, b:``
statement), and blocking calls (``time.sleep``,
``subprocess.Popen``) executed while holding the lock.
"""

import subprocess
import threading
import time


class MiniFleet:
    """Every public method is a thread root (HTTP handlers call in)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._io_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._workers = {}
        self.completed = 0
        self.last_error = ""

    def register(self, wid, proc):
        with self._lock:
            self._workers[wid] = proc

    def drain(self, wid):
        proc = self._workers.pop(wid, None)  # unguarded-attribute: lock-free pop
        if proc is None:
            return None
        self.completed += 1  # unsynchronized-attribute: racy counter
        return proc

    def fail(self, message):
        self.last_error = message  # unsynchronized-attribute: racy write

    def stats(self):
        return {
            "workers": len(self._workers),  # unguarded-attribute: lock-free read
            "completed": self.completed,  # unsynchronized-attribute: torn read
            "last_error": self.last_error,  # unsynchronized-attribute: torn read
        }

    def flush(self):
        with self._lock:
            with self._io_lock:  # lock-order: _lock -> _io_lock here ...
                time.sleep(0.01)  # lock-held-blocking: sleep under both locks

    def respawn(self, argv):
        with self._io_lock:
            with self._lock:  # lock-order: ... but _io_lock -> _lock here (ABBA)
                return subprocess.Popen(argv)  # lock-held-blocking: fork under locks

    def snapshot(self):
        with self._lock, self._stats_lock:  # lock-order: _lock -> _stats_lock in one statement ...
            return len(self._workers)

    def publish(self):
        with self._stats_lock:
            with self._lock:  # lock-order: ... but _stats_lock -> _lock here (ABBA)
                return len(self._workers)
