"""Fault-injection harness for the distributed experiment runner.

Two halves, both reusable by future PRs:

**In-process fault wrappers** (import them):

* :class:`FlakyBackend` — a :class:`~repro.runner.cache.CacheBackend`
  decorator that raises on the Nth read/write call, for proving cache
  failures degrade to re-simulation instead of crashing or serving a
  wrong payload.
* :func:`corrupt_once` / :func:`corrupt_always` — wire-line mutators
  for :class:`~repro.runner.executors.LoopbackExecutor`'s
  ``mutate_job`` / ``mutate_result`` hooks. ``truncate`` chops the
  line mid-payload; ``flip`` rewrites payload bytes so the JSON stays
  parseable but the digest check must catch the damage.

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
import sys
import time
from pathlib import Path

from repro.runner.cache import CacheBackend

FAULT_MODES = ("die", "hang", "garbage", "banner", "exit", "proto")


# ---------------------------------------------------------------------------
# Cache-layer fault wrappers
# ---------------------------------------------------------------------------
class FlakyBackend(CacheBackend):
    """Delegate to ``inner``, failing the Nth call of a chosen method.

    ``fail_on`` is 1-based: ``FlakyBackend(inner, fail_on=1)`` fails the
    first write and succeeds afterwards; ``fail_on=0`` never fails.
    """

    def __init__(
        self,
        inner: CacheBackend,
        fail_on: int = 1,
        method: str = "write",
        exc: Exception = None,
    ) -> None:
        self.inner = inner
        self.root = inner.root
        self.fail_on = fail_on
        self.method = method
        self.exc = exc if exc is not None else OSError("injected cache fault")
        self.calls = {"read": 0, "write": 0}

    def _maybe_fail(self, method: str) -> None:
        self.calls[method] += 1
        if method == self.method and self.calls[method] == self.fail_on:
            raise self.exc

    def path_for(self, key: str) -> Path:
        return self.inner.path_for(key)

    def read(self, key: str):
        self._maybe_fail("read")
        return self.inner.read(key)

    def write(self, key: str, data: bytes) -> None:
        self._maybe_fail("write")
        self.inner.write(key, data)

    def discard(self, key: str) -> None:
        self.inner.discard(key)

    def entry_paths(self):
        return self.inner.entry_paths()


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
