"""Synthetic workload suite standing in for the paper's 20 CUDA
applications (Table 2), written in the declarative workload
description language (``spec``) that every other scenario uses too,
plus the Fig 1-4 analytic classifier (``classify``) and the seeded
scenario fuzzer (``fuzz``)."""

from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import (
    WORKLOAD_SPEC_VERSION,
    KernelPhase,
    TenantSpec,
    WorkloadSpec,
    WorkloadSpecError,
    build_workload,
    decode_workload,
    encode_workload,
    load_workload_file,
    register_workload,
    registered_workload,
    save_workload_file,
    unregister_workload,
    validate_scale,
    validate_workload,
    workload_hash,
)
from repro.workloads.suite import (
    ALL_APPS,
    APP_SPECS,
    CACHE_INSENSITIVE,
    CACHE_SENSITIVE,
    kernel_for,
    workload_for,
)
from repro.workloads.classify import (
    LoadClass,
    WorkloadClassification,
    classify_kernel,
    classify_workload,
)
from repro.workloads.fuzz import (
    FAMILIES,
    check_gates,
    differential_check,
    fuzz_workload,
    generate_corpus,
    minimize,
)

__all__ = [
    "ALL_APPS",
    "APP_SPECS",
    "CACHE_INSENSITIVE",
    "CACHE_SENSITIVE",
    "FAMILIES",
    "KernelPhase",
    "LoadClass",
    "LoadSpec",
    "Pattern",
    "Scope",
    "StoreSpec",
    "TenantSpec",
    "WORKLOAD_SPEC_VERSION",
    "WorkloadClassification",
    "WorkloadSpec",
    "WorkloadSpecError",
    "build_workload",
    "check_gates",
    "classify_kernel",
    "classify_workload",
    "decode_workload",
    "differential_check",
    "encode_workload",
    "fuzz_workload",
    "generate_corpus",
    "kernel_for",
    "load_workload_file",
    "minimize",
    "register_workload",
    "registered_workload",
    "save_workload_file",
    "unregister_workload",
    "validate_scale",
    "validate_workload",
    "workload_for",
    "workload_hash",
]
