"""Seeded violations for the capability pass: a miniature of the
real ``SMExtension``/engine contract with every drift mode present.

Expected findings:

* ``wants_evictions`` declared but without a ``CAPABILITY_FLAGS`` row
  (capability-flag-unresolved);
* the table resolves ``wants_stores`` which is not declared
  (capability-flag-unresolved);
* ``on_snoop`` is a hook with no capability flag (hook-missing-flag);
* ``VectorSM`` calls ``on_tick`` through a bound local without ever
  reading ``wants_ticks`` (capability-gate-missing);
* ``wants_fills`` is never read by the engine (capability-gate-missing);
* ``MutedExtension`` overrides ``on_tick`` while pinning
  ``wants_ticks = False`` unconditionally (capability-flag-pinned).
"""

CAPABILITY_FLAGS = {
    "wants_ticks": "on_tick",
    "wants_loads": "on_load",
    "wants_stores": "on_store",
    "wants_fills": "allocate_fill",
}


class SMExtension:
    wants_ticks = None
    wants_loads = None
    wants_evictions = None
    wants_fills = None

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

    def on_store(self, addr, cycle):
        pass

    def allocate_fill(self, addr, cycle):
        pass

    def on_snoop(self, addr):
        pass

    def finalize(self, cycle):
        pass


class VectorSM:
    def __init__(self, ext):
        self.ext = ext
        ext.attach(self)

    def run(self, addr, cycle):
        on_tick = self.ext.on_tick
        on_tick(cycle)
        if self.ext.wants_loads:
            self.ext.on_load(addr, cycle)

    def store(self, addr, cycle):
        if self.ext.wants_stores:
            self.ext.on_store(addr, cycle)


class MutedExtension(SMExtension):
    def __init__(self):
        self.wants_ticks = False

    def on_tick(self, cycle):
        pass
