"""Bundled lint passes: importing this package registers them all."""

from repro.lint.passes import (  # noqa: F401  (registration side effects)
    determinism,
    thread_safety,
)
