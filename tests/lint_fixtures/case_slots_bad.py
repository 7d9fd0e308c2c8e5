"""Seeded violations for the slots pass.

``CacheLine`` is on the engine's hot list but lost its ``__slots__``;
``WindowMonitor`` declares slots but a rarely-taken method introduces
an attribute outside them (AttributeError on first execution).
"""


class CacheLine:  # hot-class-no-slots: per-fill allocation
    def __init__(self, tag):
        self.tag = tag
        self.valid = True


class WindowMonitor:
    __slots__ = ("window", "count")

    def __init__(self, window):
        self.window = window
        self.count = 0

    def record(self, n):
        self.count += n

    def snapshot(self):
        self.last_snapshot = self.count  # slots-attr-missing
        return self.count
