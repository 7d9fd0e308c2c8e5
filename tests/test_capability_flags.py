"""The capability-flag contract of ``SMExtension``, checked at run time:
the flag table, the class and its hooks name the same eight pairs, a
flag that reads False keeps its hook from ever being called, and
``resolve_flags`` derives each flag from the hook overrides.

For every architecture extension the repo ships, a tiny kernel is run
with ``keep_objects=True`` and the *resolved* flags on the live
extension are checked against the expected table; the gates the machine
and its oracle read are those flags themselves, so they must be real
bools on the extension each attached. Includes Linebacker's pinned case
(``enable_victim_cache=False``): the hooks stay overridden but the
flags must read False.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines.cache_ext import config_with_cache_ext
from repro.baselines.ccws import ccws_factory
from repro.baselines.cerf import cerf_factory
from repro.baselines.pcal import pcal_factory
from repro.config import scaled_config
from repro.core.linebacker import linebacker_factory
from repro.engine.vector import VectorGPU
from repro.gpu.extension import CAPABILITY_FLAGS, SMExtension
from repro.gpu.gpu import run_kernel
from repro.options import RunOptions
from repro.workloads.generator import AppSpec, LoadSpec, Pattern, Scope, build_kernel
from repro.workloads.suite import kernel_for

sys.path.insert(0, str(Path(__file__).parent))
from golden import result_fingerprint  # noqa: E402
from reference_engine import GPU  # noqa: E402

#: flag -> the hook it gates (the contract the hot paths rely on);
#: ``timeseries_sample`` is covered by the metrics tests.
FLAG_HOOKS = {
    flag: hook for flag, hook in CAPABILITY_FLAGS.items() if flag != "wants_timeseries"
}

#: The public methods of ``SMExtension`` that no flag gates: they fire
#: off the hot path, or describe the extension to the engine
#: (``resolve_flags``, ``shared_tick_period``) instead of receiving events.
UNGATED_HOOKS = {
    "attach",
    "resolve_flags",
    "shared_tick_period",
    "on_cta_launched",
    "on_cta_finished",
    "try_reactivate_cta",
    "finalize",
}


def test_flag_table_declared_flags_and_hooks_agree():
    """A flag without a table row (or a row without a flag) never
    resolves; a hook without a flag is one the engine cannot gate."""
    public = {name: v for name, v in vars(SMExtension).items() if not name.startswith("_")}
    assert {name for name, v in public.items() if v is None} == set(CAPABILITY_FLAGS)
    methods = {name for name, v in public.items() if callable(v)}
    assert UNGATED_HOOKS <= methods
    assert methods - UNGATED_HOOKS == set(CAPABILITY_FLAGS.values())


def _tripped(self, *args, **kwargs):
    raise AssertionError("a gated hook was called although its flag reads False")


#: Every gated hook raises, every flag is pinned off.
Tripwire = type(
    "Tripwire",
    (SMExtension,),
    dict.fromkeys(CAPABILITY_FLAGS, False) | dict.fromkeys(CAPABILITY_FLAGS.values(), _tripped),
)


def test_a_false_flag_keeps_its_hook_from_being_called():
    """The machine reads all eight gates: with loads, stores, evictions
    and window samples going by, no pinned-off hook fires and the run is
    the plain ``SMExtension``'s. (That a True flag does reach its hook is
    the probe's call coverage in ``tests/test_backends.py``.)"""
    config = scaled_config(num_sms=1, window_cycles=500)

    def run(extension):
        return run_kernel(
            config, kernel_for("S2", 0.05), extension, RunOptions(timeseries=True)
        )

    plain, tripwire = run(SMExtension), run(Tripwire)
    assert plain.sm_stats[0].stores and plain.l1_stats[0].evictions
    assert len(plain.timeseries[0]) > 1
    assert result_fingerprint(tripwire) == result_fingerprint(plain)


def tiny_kernel():
    spec = AppSpec(
        name="cap", description="capability probe", cache_sensitive=True,
        num_ctas=2, warps_per_cta=2, regs_per_thread=16,
        iterations=4, alu_per_iteration=1,
        loads=(LoadSpec(0x100, Pattern.REUSE, 64, Scope.GLOBAL),),
    )
    return build_kernel(spec)


def flags_of(ext) -> dict[str, bool]:
    return {flag: getattr(ext, flag) for flag in FLAG_HOOKS}


#: arch -> (extension factory from a LinebackerConfig, expected flags).
CASES = {
    "linebacker": (
        lambda cfg: linebacker_factory(cfg),
        {
            "wants_ticks": True,
            "wants_load_outcomes": True,
            "has_victim_cache": True,
            "may_bypass": False,
            "wants_store_events": True,
            "controls_fill": False,
            "wants_evictions": True,
        },
    ),
    "linebacker_pinned": (
        lambda cfg: linebacker_factory(replace(cfg, enable_victim_cache=False)),
        {
            "wants_ticks": True,
            "wants_load_outcomes": True,
            "has_victim_cache": False,   # pinned despite overridden hook
            "may_bypass": False,
            "wants_store_events": False,  # pinned alongside it
            "controls_fill": False,
            "wants_evictions": True,
        },
    ),
    "pcal": (
        lambda cfg: pcal_factory(cfg),
        {
            "wants_ticks": True,
            "wants_load_outcomes": True,
            "has_victim_cache": False,   # PCAL config pins the cache off
            "may_bypass": True,          # the one bypassing architecture
            "wants_store_events": False,
            "controls_fill": False,
            "wants_evictions": True,
        },
    ),
    "cerf": (
        lambda cfg: cerf_factory(cfg),
        {
            "wants_ticks": True,
            "wants_load_outcomes": True,
            "has_victim_cache": True,
            "may_bypass": False,
            "wants_store_events": True,
            "controls_fill": False,
            "wants_evictions": True,
        },
    ),
    "ccws": (
        lambda cfg: ccws_factory(cfg),
        {
            "wants_ticks": True,
            "wants_load_outcomes": True,
            "has_victim_cache": False,
            "may_bypass": False,
            "wants_store_events": False,
            "controls_fill": False,
            "wants_evictions": True,
        },
    ),
}


def run_with(factory):
    cfg = scaled_config(num_sms=1)
    ext_factory = factory(cfg.linebacker) if factory else None
    return run_kernel(
        cfg, tiny_kernel(), extension_factory=ext_factory, options=RunOptions(keep_objects=True)
    )


@pytest.mark.parametrize("arch", sorted(CASES))
def test_attach_resolves_the_expected_flags(arch):
    factory, expected = CASES[arch]
    result = run_with(factory)
    assert flags_of(result.extensions[0]) == expected


class _SkipsSuper(SMExtension):
    """An ``attach`` override that never calls ``super().attach``."""

    def attach(self, sm) -> None:
        self.sm = sm

    def on_tick(self, cycle: int) -> None:
        pass


@pytest.mark.parametrize("arch", sorted(CASES))
def test_sm_gates_mirror_the_resolved_flags(arch):
    """The gates are the flags: after construction every engine's SM
    holds an extension with eight real bools — the expected ones — and
    there is no second copy to drift."""
    factory, expected = CASES[arch]
    cfg = scaled_config(num_sms=1)
    for engine in (GPU, VectorGPU):
        sm = engine(cfg, tiny_kernel(), extension_factory=factory(cfg.linebacker)).sms[0]
        assert all(type(getattr(sm.extension, flag)) is bool for flag in CAPABILITY_FLAGS)
        assert flags_of(sm.extension) == expected, engine.__name__


@pytest.mark.parametrize("engine", [GPU, VectorGPU])
def test_attach_override_that_skips_super_still_resolves(engine):
    sm = engine(scaled_config(num_sms=1), tiny_kernel(), extension_factory=_SkipsSuper).sms[0]
    assert sm.extension.wants_ticks is True
    assert sm.extension.wants_load_outcomes is False


@pytest.mark.parametrize("arch", sorted(CASES))
def test_unpinned_flags_match_hook_overrides(arch):
    """Where a flag is *not* pinned by configuration, auto-resolution
    must equal "is the hook overridden somewhere below SMExtension"."""
    factory, expected = CASES[arch]
    result = run_with(factory)
    ext = result.extensions[0]
    for flag, hook in FLAG_HOOKS.items():
        overridden = getattr(type(ext), hook) is not getattr(SMExtension, hook)
        if expected[flag]:
            # A True flag always implies a real override to dispatch to.
            assert overridden, (arch, flag, hook)


def test_cache_ext_runs_an_inert_base_extension():
    """cache_ext has no extension of its own: the SM must carry a
    plain SMExtension with every capability off."""
    cfg = scaled_config(num_sms=1)
    kernel = tiny_kernel()
    result = run_kernel(
        config_with_cache_ext(cfg, kernel), kernel, options=RunOptions(keep_objects=True)
    )
    ext = result.extensions[0]
    assert type(ext) is SMExtension
    assert flags_of(ext) == {flag: False for flag in FLAG_HOOKS}


def test_plain_base_extension_resolves_all_false():
    ext = SMExtension()
    assert all(getattr(ext, flag) is None for flag in FLAG_HOOKS)
    result = run_kernel(
        scaled_config(num_sms=1), tiny_kernel(),
        extension_factory=SMExtension, options=RunOptions(keep_objects=True),
    )
    assert flags_of(result.extensions[0]) == {f: False for f in FLAG_HOOKS}
