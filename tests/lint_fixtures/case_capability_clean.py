"""Twin of ``case_capability_bad.py`` with a fully consistent
flag <-> hook <-> gate contract. Must lint clean."""

CAPABILITY_FLAGS = {
    "wants_ticks": "on_tick",
    "wants_loads": "on_load",
}


class SMExtension:
    wants_ticks = None
    wants_loads = None

    def attach(self, sm):
        self.sm = sm
        self.resolve_flags()

    def resolve_flags(self):
        for flag, hook in CAPABILITY_FLAGS.items():
            if getattr(self, flag) is None:
                overridden = getattr(type(self), hook) is not getattr(SMExtension, hook)
                setattr(self, flag, overridden)

    def on_tick(self, cycle):
        pass

    def on_load(self, addr, cycle):
        pass

    def finalize(self, cycle):
        pass


class VectorSM:
    """The engine reads every flag and gates every hook it calls — a
    bound local is as good as an attribute."""

    def __init__(self, ext):
        self.ext = ext
        ext.attach(self)

    def run(self, cycle):
        wants_ticks = self.ext.wants_ticks
        on_tick = self.ext.on_tick
        if wants_ticks:
            on_tick(cycle)

    def load(self, addr, cycle):
        if self.ext.wants_loads:
            self.ext.on_load(addr, cycle)


class ConfigurableExtension(SMExtension):
    """Pinning a flag is legal when guarded by configuration."""

    def __init__(self, enable_ticks):
        if not enable_ticks:
            self.wants_ticks = False

    def on_tick(self, cycle):
        pass
