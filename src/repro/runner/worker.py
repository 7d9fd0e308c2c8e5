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

A worker never touches the result cache: it seals the payload into its
result line, and the job table that sent the job stores those bytes.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import IO, Optional

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
