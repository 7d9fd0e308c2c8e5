"""The reference cycle engine: the oracle the machine is held to.

``sm.py``, ``warp.py``, ``scheduler.py``, ``gpu.py`` (``class GPU``) and
``object_backend.py`` were the production engine of ``src/repro`` until
``repro.engine.vector.machine`` hosted every option; ``memory.py``
(``L2Cache`` and the composed ``MemorySubsystem`` over it) was the
general memory model until ``repro.memory.subsystem.MemorySubsystem``
served every configuration. They live here, code unchanged, the way
``tests/reference_vtt.py`` keeps the dense Victim Tag Table. One
``Warp`` object per warp, one ``tick`` per SM per interesting cycle,
live ``SetAssociativeCache`` / ``MSHRFile`` instances from ``src/`` and
an L2 that is a ``SetAssociativeCache`` too: slow, and simple enough to
be believed. The DRAM models and the interconnect are the ones in
``src/``.

Nothing registers it by default. A test (or the CI fuzz job) that wants
the machine compared with it runs inside :func:`registered`, which makes
``backend="object"`` a legal pin for exactly that long.
"""

from __future__ import annotations

import contextlib

from repro.engine import BACKENDS

from . import object_backend
from .gpu import GPU
from .scheduler import GTOScheduler
from .sm import SM
from .warp import Warp, WarpState

__all__ = ["GPU", "GTOScheduler", "SM", "Warp", "WarpState", "registered"]


@contextlib.contextmanager
def registered():
    """Set ``BACKENDS["object"]`` to the reference's run function for
    the duration; yields that function."""
    BACKENDS["object"] = object_backend.run
    try:
        yield object_backend.run
    finally:
        del BACKENDS["object"]
