"""Fault-injection harness for the distributed experiment runner.

Two halves, both reusable by future PRs:

**In-process fault wrappers** (import them):

* :class:`FlakyCache` — a :class:`~repro.runner.cache.ResultCache`
  whose Nth store read/write raises, for proving cache failures
  degrade to re-simulation instead of crashing or serving a wrong
  payload; :func:`overwrite_entry` / :func:`stored_entry` damage and
  inspect a store row from outside the cache, as another process would.
* :func:`corrupt_once` / :func:`corrupt_always` — wire-line mutators
  for :class:`~repro.runner.executors.LoopbackExecutor`'s
  ``mutate_job`` / ``mutate_result`` hooks. ``truncate`` chops the
  line mid-payload; ``flip`` rewrites payload bytes so the JSON stays
  parseable but the digest check must catch the damage.

**A test-only architecture** (register it): inside
:func:`unsimulatable_registered`, ``unsimulatable`` is a registry row
every construction surface accepts and whose runner raises
:class:`InjectedSimulationError` — a deterministic *simulation* error
on any executor or transport — and ``unsimulatable_swl`` is a derived
row whose legs are ``unsimulatable`` jobs, its max-occupancy leg the
plain ``unsimulatable`` job. A worker knows the rows only if it was
forked inside the block.

**A faulty worker shim** (run it): ``python tests/fault_injection.py
--mode MODE --marker FILE`` speaks the real worker wire protocol but
misbehaves exactly once — the *first* process to claim the marker file
performs the fault, every later spawn (the engine's respawn after it
kills the faulty worker) delegates to the genuine
:func:`repro.runner.worker.serve` loop. That gives deterministic
"fails once, then heals" scenarios over real subprocesses:

=============  ==========================================================
``die``          greet, read one job, exit without answering
                 (worker crash mid-job → engine requeues on EOF).
``hang``         greet, read one job, sleep past any timeout
                 (wedged worker → engine kills on deadline, requeues).
``garbage``      greet, read one job, answer with a non-protocol line
                 (corrupted response → engine recycles the worker).
``banner``       print an SSH-banner-like line *instead of* hello
                 (handshake garbage → engine recycles before dispatch).
``exit``         quit before saying anything
                 (launch failure → fleet relaunches within its budget).
``proto``        greet with a foreign ``proto`` (version skew → recycled
                 with the actionable message, no job ever sent to it).
=============  ==========================================================

Use :func:`flaky_worker_command` to build the ``worker_command``
template for :class:`~repro.runner.executors.RemoteExecutor`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import time
from contextlib import closing, contextmanager
from pathlib import Path

from repro.baselines.swl import best_swl_legs, best_swl_reduce
from repro.runner.cache import STORE_FILE, ResultCache
from repro.runner.registry import ARCHITECTURES, ArchSpec

FAULT_MODES = ("die", "hang", "garbage", "banner", "exit", "proto")


# ---------------------------------------------------------------------------
# A test-only architecture whose simulation raises
# ---------------------------------------------------------------------------
class InjectedSimulationError(RuntimeError):
    """What every ``unsimulatable`` simulation raises."""


def _refuse_to_simulate(config, kernel):
    raise InjectedSimulationError(f"{kernel.name} is unsimulatable by construction")


def _unsimulatable_legs(config, kernel):
    return {limit: ("unsimulatable", c, o)
            for limit, (_, c, o) in best_swl_legs(config, kernel).items()}


UNSIMULATABLE_ROWS = (
    ArchSpec("unsimulatable", "test-only: every simulation raises",
             configure=_refuse_to_simulate),
    ArchSpec("unsimulatable_swl", "test-only: best_swl over unsimulatable legs",
             legs=_unsimulatable_legs, reduce=best_swl_reduce),
)


@contextmanager
def unsimulatable_registered():
    """The ``unsimulatable`` rows in the registry for the block's span."""
    ARCHITECTURES.update((row.name, row) for row in UNSIMULATABLE_ROWS)
    try:
        yield
    finally:
        for row in UNSIMULATABLE_ROWS:
            del ARCHITECTURES[row.name]


# ---------------------------------------------------------------------------
# Cache-layer fault wrappers
# ---------------------------------------------------------------------------
class FlakyCache(ResultCache):
    """A store over ``root`` whose Nth read or write statement fails.

    ``fail_on`` is 1-based: ``FlakyCache(root, fail_on=1)`` fails the
    first write and succeeds afterwards; ``fail_on=0`` never fails.
    Every ``SELECT`` counts as a read and every ``INSERT`` as a write;
    ``writes`` records the ``(key, sealed)`` of every write call.
    """

    def __init__(
        self,
        root,
        fail_on: int = 1,
        method: str = "write",
        exc: Exception = None,
    ) -> None:
        super().__init__(root)
        self.fail_on = fail_on
        self.method = method
        self.exc = exc if exc is not None else OSError("injected cache fault")
        self.calls = {"read": 0, "write": 0}
        self.writes = []

    def write(self, key: str, sealed: bytes) -> None:
        self.writes.append((key, sealed))
        super().write(key, sealed)

    def _query(self, sql: str, args: tuple = ()) -> list:
        method = {"SELECT": "read", "INSERT": "write"}.get(sql.split(None, 1)[0])
        if method is not None:
            self.calls[method] += 1
            if method == self.method and self.calls[method] == self.fail_on:
                raise self.exc
        return super()._query(sql, args)


def _store(cache: ResultCache):
    cache.info()  # the store file and its table exist from here on
    return closing(sqlite3.connect(cache.root / STORE_FILE))


def overwrite_entry(cache: ResultCache, key: str, data: bytes) -> None:
    """Make ``data`` ``key``'s row in ``cache``'s store, replacing any."""
    with _store(cache) as db, db:
        db.execute("INSERT OR REPLACE INTO results VALUES (?, ?)", (key, data))


def stored_entry(cache: ResultCache, key: str) -> "bytes | None":
    """``key``'s raw row in ``cache``'s store, or ``None``."""
    with _store(cache) as db:
        row = db.execute("SELECT sealed FROM results WHERE key = ?", (key,)).fetchone()
    return None if row is None else row[0]


# ---------------------------------------------------------------------------
# Wire-line corruptors (for LoopbackExecutor mutate hooks)
# ---------------------------------------------------------------------------
def _truncate(line: str) -> str:
    return line[: max(1, len(line) // 2)]


def _flip(line: str) -> str:
    """Keep the JSON envelope intact but damage the payload bytes.

    The result still parses as a protocol message, so only the SHA-256
    digest check can notice — which is precisely the property under
    test.
    """
    msg = json.loads(line)
    for box_field in ("spec", "payload"):
        box = msg.get(box_field)
        if isinstance(box, dict) and box.get("b64"):
            b64 = box["b64"]
            replacement = "A" if b64[0] != "A" else "B"
            box["b64"] = replacement + b64[1:]
            return json.dumps(msg)
    return _truncate(line)  # error results carry no payload box


_CORRUPTORS = {"truncate": _truncate, "flip": _flip}


def corrupt_once(kind: str = "truncate"):
    """A mutator that damages only the first line it sees.

    The retry that follows goes through clean, so tests can assert the
    *recovery* path (retried > 0, results still correct) rather than
    the give-up path.
    """
    corruptor = _CORRUPTORS[kind]
    state = {"done": False}

    def mutate(line: str) -> str:
        if state["done"]:
            return line
        state["done"] = True
        return corruptor(line)

    return mutate


def corrupt_always(kind: str = "truncate"):
    """A mutator that damages every line: forces retry exhaustion."""
    corruptor = _CORRUPTORS[kind]

    def mutate(line: str) -> str:
        return corruptor(line)

    return mutate


# ---------------------------------------------------------------------------
# Faulty worker subprocess shim
# ---------------------------------------------------------------------------
def flaky_worker_command(mode: str, marker: "Path | str") -> str:
    """A RemoteExecutor ``worker_command`` template that faults once.

    ``marker`` must be a path that does not exist yet; the first worker
    to create it performs ``mode``'s fault, all later workers behave
    normally.
    """
    if mode not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {mode!r}; known: {FAULT_MODES}")
    return (
        f"{{python}} -u {Path(__file__).resolve()} "
        f"--mode {mode} --marker {marker}"
    )


def _claim_marker(marker: Path) -> bool:
    """Atomically claim the one-shot fault slot; True for the faulter."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _shim_main(argv=None) -> int:
    import argparse

    from repro.runner.wire import encode_hello
    from repro.runner.worker import serve

    parser = argparse.ArgumentParser(description="faulty repro worker shim")
    parser.add_argument("--mode", choices=FAULT_MODES, required=True)
    parser.add_argument("--marker", required=True)
    parser.add_argument("--hang-seconds", type=float, default=60.0)
    args = parser.parse_args(argv)

    if not _claim_marker(Path(args.marker)):
        return serve(sys.stdin, sys.stdout)  # healed: act like a real worker

    def emit(line: str) -> None:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    if args.mode == "exit":
        return 1
    instead_of_hello = {
        "banner": "Warning: Permanently added 'host' (ED25519) to known hosts.",
        "proto": json.dumps({"v": 999, "type": "hello", "proto": 999, "pid": 1}),
    }
    if args.mode in instead_of_hello:
        emit(instead_of_hello[args.mode])
        sys.stdin.readline()  # linger so the engine, not the OS, decides
        return 1

    emit(encode_hello())
    sys.stdin.readline()  # the job we are about to betray
    if args.mode == "die":
        os._exit(1)
    if args.mode == "hang":
        time.sleep(args.hang_seconds)
        return 1
    if args.mode == "garbage":
        emit("%%% this is not a protocol line %%%")
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(_shim_main())
