"""A stand-in worker for the fleet's unit tests: it speaks the wire
protocol and simulates nothing, so a test costs one interpreter start.

``python tests/stub_worker.py MODE [PATH]`` imports only
:mod:`repro.runner.wire`. Every mode answers a job with the payload
``{"echo": key}``:

==============  =========================================================
``echo``          a healthy worker.
``late-hello``    greets only once ``PATH`` exists.
``hang``          greets, then reads jobs and never answers.
``wrong-key``     answers every job under a key nobody asked for.
``die``           greets, then exits on its first job.
``die-once``      as ``die`` for the first process to create ``PATH``;
                  every later one is healthy.
==============  =========================================================
"""

import os
import sys
import time

from repro.runner.wire import decode_job, encode_hello, encode_result


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main(mode: str, path: str = "") -> int:
    if mode == "die-once":
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            mode = "die"
        except FileExistsError:
            mode = "echo"
    if mode == "late-hello":
        while not os.path.exists(path):
            time.sleep(0.01)
    emit(encode_hello())
    for line in sys.stdin:
        key, _spec = decode_job(line)
        if mode == "hang":
            continue
        if mode == "die":
            return 1
        if mode == "wrong-key":
            key = "f" * 64
        emit(encode_result(key, {"echo": key}, 0.0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
