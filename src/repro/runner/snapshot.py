"""Portable results: :func:`portable` strips a live result to its
snapshots.

A live :class:`~repro.gpu.gpu.SimulationResult` built with
``keep_objects=True`` drags the entire simulation graph behind it; the
snapshot classes of :mod:`repro.gpu.snapshot` capture the slice the
analysis layer reads, so a portable result pickles in about a kilobyte.
``run_kernel`` snapshots by default and a job refuses ``keep_objects``,
so no job path calls :func:`portable`. It is kept because
``benchmarks/e2e/probes.py`` (``runner_probes``) and
``tests/test_runner.py`` import it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.gpu import SimulationResult
from repro.gpu.snapshot import SMSnapshot, snapshot_extension, snapshot_sm

__all__ = ["portable"]


def portable(value):
    """Strip a runner payload down to picklable state.

    Idempotent: a result whose SMs are already snapshots passes through
    unchanged, so cached payloads can be re-portabilized safely. A
    derived row's value (a Best-SWL sweep) is folded from leg results
    that are snapshots already, and passes through too.
    """
    if not isinstance(value, SimulationResult) or all(
        isinstance(sm, SMSnapshot) for sm in value.sms
    ):
        return value
    return replace(
        value,
        sms=[snapshot_sm(sm) for sm in value.sms],
        extensions=[snapshot_extension(ext) for ext in value.extensions],
    )
