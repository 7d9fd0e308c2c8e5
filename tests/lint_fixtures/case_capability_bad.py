"""Seeded violations for the capability pass: a miniature of the
real ``SMExtension``/``SM`` contract with every drift mode present.

Expected findings:

* ``wants_evictions`` declared but never auto-resolved in ``attach``
  (capability-flag-unresolved);
* ``attach`` resolves ``wants_stores`` which is not declared
  (capability-flag-unresolved);
* ``on_snoop`` is a hook with no capability flag (hook-missing-flag);
* ``wants_fills`` has no ``_ext_`` gate in ``SM.__init__``
  (capability-gate-missing);
* the ``wants_stores`` gate resolves ``"on_tick"`` instead of
  ``"on_store"`` (capability-gate-missing);
* ``SM._ext_wants_loads`` is assigned but never read
  (capability-gate-missing);
* ``MutedExtension`` overrides ``on_tick`` while pinning
  ``wants_ticks = False`` unconditionally (capability-flag-pinned).
"""


def _flag(value, hook_name):
    return bool(value)


class SMExtension:
    wants_ticks = None
    wants_loads = None
    wants_evictions = None
    wants_fills = None

    def attach(self, sm):
        self.sm = sm
        cls = type(self)
        base = SMExtension
        if self.wants_ticks is None:
            self.wants_ticks = cls.on_tick is not base.on_tick
        if self.wants_loads is None:
            self.wants_loads = cls.on_load is not base.on_load
        if self.wants_stores is None:
            self.wants_stores = cls.on_store is not base.on_store
        if self.wants_fills is None:
            self.wants_fills = cls.allocate_fill is not base.allocate_fill

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


class SM:
    def __init__(self, ext):
        self.ext = ext
        ext.attach(self)
        self._ext_wants_ticks = _flag(ext.wants_ticks, "on_tick")
        self._ext_wants_loads = _flag(ext.wants_loads, "on_load")
        self._ext_wants_stores = _flag(ext.wants_stores, "on_tick")

    def tick(self, cycle):
        if self._ext_wants_ticks:
            self.ext.on_tick(cycle)

    def store(self, addr, cycle):
        if self._ext_wants_stores:
            self.ext.on_store(addr, cycle)


class MutedExtension(SMExtension):
    def __init__(self):
        self.wants_ticks = False

    def on_tick(self, cycle):
        pass
