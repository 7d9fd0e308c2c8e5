"""Twin of ``case_capability_bad.py`` with a fully consistent
flag <-> hook <-> gate contract. Must lint clean."""


def _flag(value, hook_name):
    return bool(value)


class SMExtension:
    wants_ticks = None
    wants_loads = None

    def attach(self, sm):
        self.sm = sm
        cls = type(self)
        base = SMExtension
        if self.wants_ticks is None:
            self.wants_ticks = cls.on_tick is not base.on_tick
        if self.wants_loads is None:
            self.wants_loads = cls.on_load is not base.on_load

    def on_tick(self, cycle):
        pass

    def on_load(self, addr, cycle):
        pass

    def finalize(self, cycle):
        pass


class SM:
    def __init__(self, ext):
        self.ext = ext
        ext.attach(self)
        self._ext_wants_ticks = _flag(ext.wants_ticks, "on_tick")
        self._ext_wants_loads = _flag(ext.wants_loads, "on_load")

    def tick(self, cycle):
        if self._ext_wants_ticks:
            self.ext.on_tick(cycle)

    def load(self, addr, cycle):
        if self._ext_wants_loads:
            self.ext.on_load(addr, cycle)


class ConfigurableExtension(SMExtension):
    """Pinning a flag is legal when guarded by configuration."""

    def __init__(self, enable_ticks):
        if not enable_ticks:
            self.wants_ticks = False

    def on_tick(self, cycle):
        pass
