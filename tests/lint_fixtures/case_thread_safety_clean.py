"""Behaviour-equivalent twin of ``case_thread_safety_bad.py`` with the
lock discipline the pass demands: every shared field guarded by one
lock, a single global acquisition order whether the locks are taken in
one ``with a, b:`` statement or nested, and all blocking work (pipe I/O,
process spawning) outside the lock region. Must lint clean."""

import subprocess
import threading


class MiniFleet:
    def __init__(self):
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._workers = {}
        self.completed = 0
        self.last_error = ""

    def register(self, wid, proc):
        with self._lock:
            self._workers[wid] = proc

    def drain(self, wid):
        with self._lock:
            proc = self._workers.pop(wid, None)
            if proc is None:
                return None
            self.completed += 1
        return proc

    def fail(self, message):
        with self._lock:
            self.last_error = message

    def stats(self):
        with self._lock:
            return {
                "workers": len(self._workers),
                "completed": self.completed,
                "last_error": self.last_error,
            }

    def flush(self):
        with self._lock:
            pending = list(self._workers.values())
        for proc in pending:
            proc.stdin.flush()  # pipe I/O happens outside the lock

    def respawn(self, wid, argv):
        proc = subprocess.Popen(argv)  # fork first, register under the lock
        with self._lock:
            self._workers[wid] = proc
        return proc

    def snapshot(self):
        with self._lock, self._stats_lock:  # one statement, the one global order
            return len(self._workers)

    def publish(self):
        with self._lock:
            with self._stats_lock:  # nested, the same order
                return len(self._workers)
