"""The remote-execution worker: ``python -m repro worker``.

A worker is a dumb, stateless job servant on the other end of any byte
pipe. It announces itself with a ``hello`` line, then loops: read one
``job`` line from stdin, simulate it, write one ``result`` line to
stdout. EOF on stdin is the shutdown signal, so the engine tears a
worker down simply by closing the pipe — no control messages, no
signal handling, and an ``ssh host python -m repro worker`` behaves
exactly like a local subprocess.

Error containment mirrors the engine's contract:

* a **simulation** exception becomes an ``ok=False`` result carrying
  the traceback (the engine re-raises it; retrying a deterministic
  failure is pointless), after which the worker keeps serving;
* an **undecodable job line** gets an ``ok=False`` result against the
  sentinel key ``"?"`` — the engine treats any unattributable reply as
  transport corruption and recycles the worker;
* stdout carries protocol lines *only*; diagnostics go to stderr.

With ``--cache-dir`` the worker reads and writes the persistent result
cache itself (read-through: a hit skips the simulation entirely); the
directory may be shared by workers on different hosts, whose writes
serialize through the cache's per-key advisory lock.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import IO, Optional

from repro.runner.cache import MISS, ResultCache
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


def serve(
    stdin: IO[str],
    stdout: IO[str],
    cache: Optional[ResultCache] = None,
    stderr: Optional[IO[str]] = None,
) -> int:
    """Serve jobs from ``stdin`` until EOF; returns a process exit code."""
    _emit(stdout, encode_hello())
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
            payload, seconds = _resolve(spec, cache)
        except Exception:
            _emit(stdout, encode_error(key, traceback.format_exc()))
            continue
        _emit(stdout, encode_result(key, payload, seconds))
        if stderr is not None:
            print(f"worker: {spec.label} done in {seconds:.2f}s", file=stderr)
    return 0


def _resolve(spec, cache: Optional[ResultCache]):
    """Cache read-through around one simulation."""
    # Imported here so `python -m repro worker --help` stays instant —
    # pulling in the registry imports the whole simulator.
    from repro.runner.engine import execute_job

    if cache is not None:
        cached = cache.get(cache.key_for(spec))
        if cached is not MISS:
            return cached, 0.0
    payload, seconds = execute_job(spec)
    if cache is not None:
        try:
            cache.put(cache.key_for(spec), payload)
        except Exception as exc:  # never let a cache write kill a worker
            print(f"worker: cache write failed: {exc}", file=sys.stderr)
    return payload, seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Serve simulation jobs over stdin/stdout (wire protocol v1).",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="read-through persistent result cache directory",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log served jobs to stderr"
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return serve(
        sys.stdin,
        sys.stdout,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        stderr=sys.stderr if args.verbose else None,
    )


if __name__ == "__main__":
    raise SystemExit(main())
