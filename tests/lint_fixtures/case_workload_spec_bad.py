"""Seeded version drift on the workload-spec surface.

Against the fingerprint recorded from ``case_workload_spec_clean.py``,
``LoadSpec`` gains ``priority`` and ``WorkloadSpec`` loses
``shared_mem_per_cta`` while ``WORKLOAD_SPEC_VERSION`` stays 7 — one
``schema-version-unbumped`` finding. Linted without that baseline, it
is clean: the classes are the schema, so no twin can drift.
"""

from dataclasses import dataclass

WORKLOAD_SPEC_VERSION = 7


@dataclass(frozen=True)
class LoadSpec:
    pc: int
    working_set_lines: int = 64
    priority: int = 0  # schema-version-unbumped: a new document field


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
    # schema-version-unbumped: shared_mem_per_cta left the document
