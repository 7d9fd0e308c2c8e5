"""Twin of ``case_slots_bad.py`` with complete slot declarations."""


class CacheLine:
    __slots__ = ("tag", "valid")

    def __init__(self, tag):
        self.tag = tag
        self.valid = True


class WindowMonitor:
    __slots__ = ("window", "count", "last_snapshot")

    def __init__(self, window):
        self.window = window
        self.count = 0
        self.last_snapshot = 0

    def record(self, n):
        self.count += n

    def snapshot(self):
        self.last_snapshot = self.count
        return self.count
