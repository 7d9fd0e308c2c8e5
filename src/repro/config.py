"""Simulation configuration for the Linebacker reproduction.

Two dataclasses mirror the paper's configuration tables:

* :class:`GPUConfig` reproduces Table 1 (the baseline GPU: 16 SMs at
  1126 MHz, 64 warps / 32 CTAs / 2048 threads per SM, a 256 KB register
  file, a 48 KB 8-way L1 with 128-byte lines and 64 MSHRs, a 2 MB shared
  L2 and 352.5 GB/s of DRAM bandwidth).
* :class:`LinebackerConfig` reproduces Table 3 (the Linebacker
  microarchitecture: 50 000-cycle monitoring windows, a 20% cache-hit
  threshold, +/-10% IPC variation bounds, 4-way VTT partitions with up
  to 8 partitions and a 3-cycle partition access latency).

Because a pure-Python simulator is several orders of magnitude slower
than GPGPU-Sim, :func:`scaled_config` provides a scaled configuration:
fewer SMs, 2,000-cycle windows, and shared resources (L2, DRAM
bandwidth) cut in proportion to the SM count, while per-SM structures
stay at paper size, so working set to cache size and victim space to
L1 size match the paper. Windows per kernel do *not*: at the figure
scale (0.5) a Table-2 app spans 9-56 scaled windows, but at
:func:`paper_config` and scale 1.0 every app ends within 0.22-1.59 of
the paper's windows, before the load monitor's two consecutive
windows, so Linebacker there ties the baseline.

:func:`to_doc` / :func:`from_doc` are the one JSON codec of these
dataclasses and of the workload tree, driven by their fields.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable

#: Bytes in one cache line and in one warp register (32 threads x 4 B).
LINE_SIZE = 128

#: Bytes in one warp-wide register; equal to LINE_SIZE by design (the
#: equality is what lets a victim line live in a single warp register).
WARP_REGISTER_BYTES = 128

KB = 1024

#: The DRAM models :class:`~repro.memory.subsystem.MemorySubsystem` builds.
DRAM_MODELS = ("simple", "timing")


@dataclass(frozen=True)
class GPUConfig:
    """Baseline GPU configuration (paper Table 1)."""

    num_sms: int = 16
    clock_mhz: float = 1126.0
    simd_width: int = 32
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_ctas_per_sm: int = 32
    num_schedulers: int = 4
    register_file_bytes: int = 256 * KB
    register_banks: int = 16
    register_bank_ports: int = 1
    shared_memory_bytes: int = 96 * KB

    # L1 data cache.
    l1_size_bytes: int = 48 * KB
    l1_assoc: int = 8
    l1_line_bytes: int = LINE_SIZE
    l1_mshrs: int = 64
    l1_hit_latency: int = 28

    # Shared L2. The port bandwidth (in 128 B lines per core cycle)
    # bounds total L2 throughput; requests queue behind it, which is
    # what makes thrashing expensive (Section 2.2's congestion stalls).
    l2_size_bytes: int = 2048 * KB
    l2_assoc: int = 8
    l2_latency: int = 200
    l2_lines_per_cycle: float = 4.9

    # Off-chip DRAM: 352.5 GB/s at 1126 MHz. "simple" folds Table 1's
    # timing row into latency + bandwidth; "timing" models banks and
    # row buffers with the RCD/RP/RC/RRD/CL/WR/RAS parameters.
    dram_bandwidth_gbps: float = 352.5
    dram_latency: int = 220
    dram_model: str = "simple"
    dram_channels: int = 8
    dram_banks_per_channel: int = 16

    # SM-to-L2 interconnect (off by default; the L2 port server is the
    # primary congestion signal — the NoC adds per-SM injection limits).
    noc_enable: bool = False
    noc_latency: int = 12
    noc_injection_interval: float = 1.0
    noc_crossbar_lines_per_cycle: float = 8.0

    # Execution-model latencies (cycle-approximate).
    alu_latency: int = 4
    issue_width: int = 1
    #: Outstanding load lines per warp before it blocks (scoreboarded
    #: loads: the value is consumed some instructions later).
    max_outstanding_loads: int = 4

    @property
    def l1_num_sets(self) -> int:
        return self.l1_size_bytes // (self.l1_assoc * self.l1_line_bytes)

    @property
    def l2_num_sets(self) -> int:
        return self.l2_size_bytes // (self.l2_assoc * self.l1_line_bytes)

    @property
    def num_warp_registers(self) -> int:
        """Total warp-wide registers in the register file (2048 at 256 KB)."""
        return self.register_file_bytes // WARP_REGISTER_BYTES

    @property
    def dram_lines_per_cycle(self) -> float:
        """DRAM bandwidth expressed in 128 B lines per core cycle."""
        bytes_per_cycle = (self.dram_bandwidth_gbps * 1e9) / (self.clock_mhz * 1e6)
        return bytes_per_cycle / self.l1_line_bytes

    def with_l1_size(self, size_bytes: int) -> "GPUConfig":
        """Return a copy with a different L1 size (paper Figure 14 sweep)."""
        return replace(self, l1_size_bytes=size_bytes)

    def check(self) -> "GPUConfig":
        """``self``, or a ``ValueError`` naming the field of a machine no
        job runs on: no SM, scheduler, issue slot, lane, register or
        register bank port, no room for a CTA or warp, a stopped clock,
        an unknown DRAM model, an L1/L2/DRAM no request could be served
        by, no MSHR or outstanding load for a miss to wait in."""
        for name in ("num_sms", "num_schedulers", "register_banks", "register_bank_ports",
                     "simd_width", "issue_width", "max_ctas_per_sm", "max_warps_per_sm",
                     "max_threads_per_sm", "l1_assoc", "l1_line_bytes", "l1_mshrs",
                     "max_outstanding_loads", "dram_channels", "dram_banks_per_channel"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"GPUConfig.{name} must be at least 1, got {value!r}")
        if self.num_warp_registers < 1:
            raise ValueError(
                f"GPUConfig.register_file_bytes={self.register_file_bytes!r} holds no "
                f"warp register ({WARP_REGISTER_BYTES} B)"
            )
        if self.dram_model not in DRAM_MODELS:
            raise ValueError(f"GPUConfig.dram_model must be one of {DRAM_MODELS}, "
                             f"got {self.dram_model!r}")
        for name in ("clock_mhz", "l2_lines_per_cycle", "dram_bandwidth_gbps"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"GPUConfig.{name} must be positive, got {value!r}")
        if self.l1_num_sets < 1:
            raise ValueError(
                f"GPUConfig.l1_size_bytes={self.l1_size_bytes!r} is less than one set "
                f"({self.l1_assoc} ways of {self.l1_line_bytes} B)"
            )
        if self.l2_assoc < 1:
            raise ValueError(f"GPUConfig.l2_assoc must be at least 1, got {self.l2_assoc!r}")
        if self.l2_num_sets < 1:
            raise ValueError(
                f"GPUConfig.l2_size_bytes={self.l2_size_bytes!r} is less than one set "
                f"({self.l2_assoc} ways of {self.l1_line_bytes} B)"
            )
        return self


@dataclass(frozen=True)
class LinebackerConfig:
    """Linebacker microarchitecture configuration (paper Table 3)."""

    window_cycles: int = 50_000
    hit_ratio_threshold: float = 0.20
    ipc_upper_bound: float = 0.10
    ipc_lower_bound: float = -0.10
    vtt_ways: int = 4
    max_vtt_partitions: int = 8
    vp_access_latency: int = 3
    vp_granularity_bytes: int = 24 * KB
    #: First register number usable as victim storage (paper Eq. 2 uses
    #: Offset=511 but states RN 512-2047; we use 512 and note the
    #: off-by-one in DESIGN.md).
    register_offset: int = 512
    lm_entries: int = 32
    hpc_bits: int = 5
    backup_buffer_entries: int = 6
    #: Minimum accesses within a window before a load is classified at
    #: all (avoids classifying loads seen once or twice).
    min_accesses: int = 8

    # Feature flags for the paper's Figure 11 ablation.
    enable_throttling: bool = True
    enable_selective: bool = True
    enable_victim_cache: bool = True

    @property
    def lines_per_partition(self) -> int:
        return self.vp_granularity_bytes // LINE_SIZE

    def check(self) -> "LinebackerConfig":
        """``self``, or a ``ValueError`` naming the field no job runs
        with: a monitoring window of no cycles never ends."""
        if self.window_cycles < 1:
            raise ValueError("LinebackerConfig.window_cycles must be at least 1, "
                             f"got {self.window_cycles!r}")
        return self

    def with_ways(self, ways: int) -> "LinebackerConfig":
        """Return a copy with a different VTT partition associativity.

        The partition granularity scales with associativity so that a
        1-way partition needs only 6 KB of idle register space while a
        16-way partition needs 96 KB, matching the paper's Figure 10
        utilization trade-off.
        """
        scale = ways / self.vtt_ways
        return replace(
            self,
            vtt_ways=ways,
            vp_granularity_bytes=int(self.vp_granularity_bytes * scale),
            max_vtt_partitions=max(1, int(self.max_vtt_partitions / scale)),
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level knobs for one simulation run."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    linebacker: LinebackerConfig = field(default_factory=LinebackerConfig)
    max_cycles: int = 2_000_000
    seed: int = 2019


def canonical_tokens(obj) -> str:
    """Deterministic, content-based encoding of configuration values.

    Unlike ``hash()`` or ``id()``, the encoding depends only on *values*
    (dataclass fields, dict items sorted by key, float ``repr``), never
    on object identity or interpreter state, so it is stable across
    processes and interpreter restarts. This is the foundation of the
    experiment runner's persistent cache keys: two configs that compare
    equal always encode identically, and any field change — however
    deep — changes the encoding.

    Supported values: frozen/plain dataclasses, mappings, sequences,
    sets, enums, primitives, and ``None``. Anything else raises
    ``TypeError`` so unhashable state can never silently alias.
    """
    if obj is None:
        return "none"
    if isinstance(obj, bool):
        return f"b:{obj}"
    if isinstance(obj, int):
        return f"i:{obj}"
    if isinstance(obj, float):
        return f"f:{obj!r}"
    if isinstance(obj, str):
        return f"s:{len(obj)}:{obj}"
    if isinstance(obj, bytes):
        return f"y:{obj.hex()}"
    if isinstance(obj, enum.Enum):
        return f"e:{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical_tokens(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"dc:{type(obj).__name__}({fields})"
    if isinstance(obj, dict):
        items = ",".join(
            f"{canonical_tokens(k)}:{canonical_tokens(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: canonical_tokens(kv[0]))
        )
        return f"d{{{items}}}"
    if isinstance(obj, (list, tuple)):
        items = ",".join(canonical_tokens(v) for v in obj)
        return f"l[{items}]"
    if isinstance(obj, (set, frozenset)):
        items = ",".join(sorted(canonical_tokens(v) for v in obj))
        return f"S{{{items}}}"
    raise TypeError(
        f"cannot canonically encode {type(obj).__name__!r} for content hashing"
    )


def stable_hash(*objs) -> str:
    """SHA-256 content hash over :func:`canonical_tokens` encodings.

    Stable across processes (unlike ``PYTHONHASHSEED``-dependent
    ``hash()``) and across garbage collection (unlike ``id()``-based
    keys, which can alias when an old config is collected and a new one
    reuses its address)."""
    digest = hashlib.sha256()
    for obj in objs:
        digest.update(canonical_tokens(obj).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class DocumentError(ValueError):
    """A JSON document that does not fit its dataclass; the message
    names the JSON path of the refused value."""


class _Refused(Exception):
    """A refusal on its way up; each level prefixes its step to ``path``,
    so a path is built only for a document that fails."""

    def __init__(self, reason: str, path: str = "") -> None:
        super().__init__(reason)
        self.reason, self.path = reason, path


def to_doc(value: Any) -> Any:
    """The JSON value of a dataclass tree: every field at every level,
    even at its default; enums by value, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_doc(item) for item in value]
    return value


def from_doc(cls: type, doc: Any, where: str) -> Any:
    """Decode the JSON value ``doc`` into the dataclass ``cls``.

    Closed world at every level: an unknown field, a missing field
    without a default, a value not of its field's annotated type (a
    ``bool`` is no number) or an unknown enum value raises
    :class:`DocumentError` naming its JSON path under ``where``. A
    missing field takes its default. A ``float`` field takes an ``int``
    as a ``float``, so ``1126`` and ``1126.0`` give one ``JobSpec.key``."""
    try:
        return _decoder(cls)(doc)
    except _Refused as exc:
        raise DocumentError(f"{where}{exc.path}: {exc.reason}") from None


#: The JSON value types an annotated scalar field takes, matched exactly.
_SCALARS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _value_decoder(hint: Any) -> Callable[[Any], Any]:
    """The decoder of one annotated field type: a dataclass, an
    ``Optional``, a ``tuple[X, ...]``, an ``Enum`` or a scalar."""
    if dataclasses.is_dataclass(hint):
        return _decoder(hint)
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = [_value_decoder(arg) for arg in args if arg is not type(None)]
        return lambda value: None if value is None else inner(value)
    if typing.get_origin(hint) is tuple:
        item = _value_decoder(args[0])

        def sequence(value: Any) -> tuple:
            if type(value) is not list and type(value) is not tuple:
                raise _Refused(f"expected a list, got {value!r:.60}")
            out = []
            for index, element in enumerate(value):
                try:
                    out.append(item(element))
                except _Refused as exc:
                    exc.path = f"[{index}]{exc.path}"
                    raise
            return tuple(out)

        return sequence
    if issubclass(hint, enum.Enum):

        def member(value: Any) -> enum.Enum:
            try:
                return hint(value)
            except (ValueError, TypeError):
                known = ", ".join(str(m.value) for m in hint)
                raise _Refused(f"unknown {hint.__name__.lower()} {value!r:.60}; "
                               f"known: {known}") from None

        return member
    accepted = _SCALARS[hint]

    def scalar(value: Any) -> Any:
        if type(value) not in accepted:
            raise _Refused(f"expected {hint.__name__}, got {value!r:.60}")
        return value

    if hint is float:
        return lambda value: float(scalar(value))
    return scalar


@functools.cache
def _decoder(cls: type) -> Callable[[Any], Any]:
    """``cls``'s document decoder, compiled from its fields once."""
    hints = typing.get_type_hints(cls)
    plan = [(f.name, _value_decoder(hints[f.name]),
             f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)]
    names = frozenset(name for name, _, _ in plan)

    def decode(doc: Any) -> Any:
        if not isinstance(doc, Mapping):
            raise _Refused(f"expected an object, got {type(doc).__name__}")
        if not names.issuperset(doc):
            raise _Refused(f"unknown field(s) {sorted(doc.keys() - names)}; "
                           f"known: {sorted(names)}")
        kwargs = {}
        for name, value_decoder, required in plan:
            value = doc.get(name, dataclasses.MISSING)
            if value is not dataclasses.MISSING:
                try:
                    kwargs[name] = value_decoder(value)
                except _Refused as exc:
                    exc.path = f".{name}{exc.path}"
                    raise
            elif required:
                raise _Refused("required field is missing", f".{name}")
        return cls(**kwargs)

    return decode


def paper_config() -> SimulationConfig:
    """The full-size configuration from Tables 1 and 3."""
    return SimulationConfig()


def scaled_config(
    num_sms: int = 4,
    window_cycles: int = 2_000,
    l1_size_bytes: int = 48 * KB,
) -> SimulationConfig:
    """A proportionally scaled configuration for tractable Python runs.

    The scale factor applies to the number of SMs, the monitoring
    window, and the *shared* resources (L2 capacity, DRAM bandwidth),
    which scale with the SM count so per-SM pressure on them matches
    the paper's 16-SM machine. Per-SM structures (L1, register file,
    scheduler count) stay at paper size so the mechanisms see the same
    per-SM behaviour.
    """
    base = GPUConfig()
    share = num_sms / base.num_sms
    gpu = replace(
        base,
        num_sms=num_sms,
        l1_size_bytes=l1_size_bytes,
        l2_size_bytes=max(64 * KB, int(base.l2_size_bytes * share)),
        l2_lines_per_cycle=base.l2_lines_per_cycle * share,
        dram_bandwidth_gbps=base.dram_bandwidth_gbps * share,
    )
    lb = replace(LinebackerConfig(), window_cycles=window_cycles)
    return SimulationConfig(gpu=gpu, linebacker=lb, max_cycles=400_000)
