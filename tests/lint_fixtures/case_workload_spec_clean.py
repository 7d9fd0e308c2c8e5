"""The workload-spec surface as the dataclass codec carries it: the
document's fields are these classes' annotated fields plus the
``"spec"`` envelope key, so there is no encode/decode pair to drift.
Recorded as the baseline ``case_workload_spec_bad.py`` is held to.
Must lint clean."""

from dataclasses import dataclass

WORKLOAD_SPEC_VERSION = 7


@dataclass(frozen=True)
class LoadSpec:
    pc: int
    working_set_lines: int = 64


@dataclass(frozen=True)
class StoreSpec:
    pc: int


@dataclass(frozen=True)
class KernelPhase:
    iterations: int
    loads: tuple
    stores: tuple = ()


@dataclass(frozen=True)
class TenantSpec:
    name: str
    phases: tuple


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    num_ctas: int
    tenants: tuple
    shared_mem_per_cta: int = 0
