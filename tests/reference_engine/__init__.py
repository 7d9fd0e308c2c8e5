"""The reference cycle engine: the oracle the machine is held to.

``sm.py``, ``warp.py``, ``scheduler.py``, ``gpu.py`` (``class GPU``) and
``object_backend.py`` were the production engine of ``src/repro`` until
``repro.engine.vector.machine`` hosted every option; they live here,
code unchanged, the way ``tests/reference_vtt.py`` keeps the dense
Victim Tag Table. One ``Warp`` object per warp, one ``tick`` per SM per
interesting cycle, live ``SetAssociativeCache`` / ``MSHRFile`` /
``MemorySubsystem`` instances from ``src/``: slow, and simple enough to
be believed.

Nothing registers it by default. A test (or the CI fuzz job) that wants
the machine compared with it runs inside :func:`registered`, which makes
``backend="object"`` a legal pin for exactly that long.
"""

from __future__ import annotations

import contextlib

from repro.engine import BACKENDS, register_backend

from .gpu import GPU
from .object_backend import ObjectBackend
from .scheduler import GTOScheduler
from .sm import SM
from .warp import Warp, WarpState

__all__ = ["GPU", "GTOScheduler", "ObjectBackend", "SM", "Warp", "WarpState", "registered"]


@contextlib.contextmanager
def registered():
    """Register the reference as engine ``"object"`` for the duration."""
    backend = ObjectBackend()
    register_backend(backend)
    try:
        yield backend
    finally:
        del BACKENDS[backend.name]
