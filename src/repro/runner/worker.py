"""The remote-execution worker: ``python -m repro worker``, or a fork.

A worker is a dumb, stateless job servant on the other end of any byte
pipe. It announces itself with a ``hello`` line, then loops: read one
``job`` line from stdin, simulate it, write one ``result`` line to
stdout. EOF on stdin is the shutdown signal, so the engine tears a
worker down simply by closing the pipe — no control messages, no
signal handling, and an ``ssh host python -m repro worker`` behaves
exactly like a local one.

A worker starts in one of two ways, and then serves the same loop:

* **exec'd** — ``python -m repro worker`` (:func:`main`), launched from
  a command template such as ``ssh {host} python -m repro worker``;
* **forked** — :func:`serve_forked`, the child half of an ``os.fork()``
  of a process that has already imported the simulator, which is how a
  fleet with no template starts its local workers: no interpreter boot
  and no imports, so it greets within milliseconds, where an exec'd
  worker first boots an interpreter and imports the whole simulator.

Error containment mirrors the engine's contract:

* a **simulation** exception becomes an ``ok=False`` result carrying
  the traceback (the engine re-raises it; retrying a deterministic
  failure is pointless), after which the worker keeps serving;
* an **undecodable job line** gets an ``ok=False`` result against the
  sentinel key ``"?"`` — the engine treats any unattributable reply as
  transport corruption and recycles the worker;
* stdout carries protocol lines *only*; diagnostics go to stderr.

A worker never touches the result cache: it seals the payload into its
result line, and the job table that sent the job stores those bytes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import traceback
from typing import IO, NoReturn, Optional

from repro.runner.wire import (
    WireError,
    decode_job,
    encode_error,
    encode_hello,
    encode_result,
)


def _emit(stream: IO[str], line: str) -> None:
    stream.write(line + "\n")
    stream.flush()


def serve(stdin: IO[str], stdout: IO[str], stderr: Optional[IO[str]] = None) -> int:
    """Serve jobs from ``stdin`` until EOF; returns a process exit code."""
    _emit(stdout, encode_hello())
    # Imported here so `python -m repro worker --help` stays instant —
    # pulling in the registry imports the whole simulator.
    from repro.runner.engine import execute_job

    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            key, spec = decode_job(line)
        except WireError as exc:
            _emit(stdout, encode_error("?", f"undecodable job line: {exc}"))
            continue
        try:
            payload, seconds = execute_job(spec)
        except Exception:
            _emit(stdout, encode_error(key, traceback.format_exc()))
            continue
        _emit(stdout, encode_result(key, payload, seconds))
        if stderr is not None:
            print(f"worker: {spec.label} done in {seconds:.2f}s", file=stderr)
    return 0


def serve_forked(stdin_fd: int, stdout_fd: int) -> NoReturn:
    """The child of an ``os.fork()``: serve on two pipe ends, never return.

    The parent may run other threads, so the child touches none of the
    state they could hold mid-update. It freezes every inherited object
    out of the cyclic collector, so collecting the parent's garbage here
    never runs a finalizer that closes a descriptor number the child has
    reused. It puts the pipes on fds 0 and 1 and ``/dev/null`` on 2, and
    closes every other inherited descriptor: a sibling worker holding
    this one's stdin open would keep it from ever seeing EOF. It serves
    through fresh stream objects, never the parent's ``sys.stdout``
    (whose lock another thread may have held at the fork). And it leaves
    through ``os._exit``, so no ``atexit`` handler or caller frame of
    the parent runs twice.
    """
    code = 1
    try:
        gc.freeze()
        # Lift all three sources above fd 2 first, so no dup2 below
        # overwrites one: the parent may have run with a standard fd
        # closed, so fill any free one of 0-2 before taking copies.
        devnull = os.open(os.devnull, os.O_WRONLY)
        while devnull < 3:
            devnull = os.open(os.devnull, os.O_WRONLY)
        sources = [os.dup(stdin_fd), os.dup(stdout_fd), devnull]
        for target, fd in enumerate(sources):
            os.dup2(fd, target)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdin = open(0, encoding="utf-8", closefd=False)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
        code = serve(sys.stdin, sys.stdout)
    finally:
        os._exit(code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Serve simulation jobs over stdin/stdout (wire protocol v1).",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log served jobs to stderr"
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return serve(sys.stdin, sys.stdout, stderr=sys.stderr if args.verbose else None)


if __name__ == "__main__":
    raise SystemExit(main())
