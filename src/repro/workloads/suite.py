"""The 20-application benchmark suite (paper Table 2).

Each application is a one-tenant, one-phase
:class:`~repro.workloads.spec.WorkloadSpec` calibrated to the
behavioural class the paper reports for it:

* **Cache-sensitive** (S2, BI, AT, S1, CF, GE, KM, BC, MV, PF): the
  reused working set across resident CTAs exceeds the 48 KB L1, so
  enlarging the cache to ~192-240 KB removes most capacity misses
  (the paper's criterion: >30% speedup at 192 KB).
* **Cache-insensitive** (BG, LI, SR2, SP, BR, FD, GA, 2D, SR1, HS):
  either the reused footprint already fits in L1, the access stream is
  dominated by streaming loads, or the working set is so large and
  irregular that no realistic cache holds it.

Apps known from the paper to move large streaming data (BI, LI, SR2,
2D, HS — Figure 3) carry a streaming load; the BFS variants (BC, BG,
BR) and SPMV use divergent access patterns. Register counts are chosen
to reproduce the spread of statically unused register space in
Figure 4 (from ~0 KB in fully-occupied kernels to >128 KB).

``scale`` shrinks iteration counts (and with them simulated cycles)
proportionally — tests run at scale 0.25, the benchmark harness at 1.0.
:func:`workload_for` is the one name lookup (a Table-2 app, else a
registered workload); :func:`kernel_for` builds what it finds with
:func:`~repro.workloads.spec.build_workload`.
"""

from __future__ import annotations

from repro.gpu.trace import KernelTrace
from repro.workloads.generator import LoadSpec, Pattern, Scope, StoreSpec
from repro.workloads.spec import (
    KernelPhase,
    TenantSpec,
    WorkloadSpec,
    build_workload,
    registered_workload,
)

# Static load PCs: distinct per app slot; the 5-bit XOR fold keeps
# them separated (values chosen to avoid HPC collisions within an app).
_PC0, _PC1, _PC2, _PC3 = 0x100, 0x204, 0x308, 0x40C
_STORE_PC = 0x510


def _reuse(
    pc: int, ws: int, scope: Scope = Scope.CTA, stride: int = 1, weight: int = 1
) -> LoadSpec:
    return LoadSpec(pc=pc, pattern=Pattern.REUSE, working_set_lines=ws, scope=scope,
                    stride=stride, weight=weight)


def _stream(pc: int, weight: int = 1) -> LoadSpec:
    return LoadSpec(pc=pc, pattern=Pattern.STREAM, working_set_lines=0, weight=weight)


def _divergent(pc: int, ws: int, scope: Scope = Scope.GLOBAL, lines: int = 2) -> LoadSpec:
    return LoadSpec(pc=pc, pattern=Pattern.DIVERGENT, working_set_lines=ws, scope=scope,
                    lines_per_access=lines)


def _random(pc: int, ws: int, scope: Scope = Scope.CTA) -> LoadSpec:
    """Coalesced but data-dependent access, uniform over the region.

    This is the throttle-responsive pattern: the hit ratio scales
    smoothly with (cache capacity / resident footprint), so reducing
    active CTAs or adding victim space pays off incrementally — the
    behaviour CCWS-style throttling relies on.
    """
    return LoadSpec(pc=pc, pattern=Pattern.DIVERGENT, working_set_lines=ws, scope=scope,
                    lines_per_access=1)


def _app(
    name: str, description: str, num_ctas: int, warps_per_cta: int,
    regs_per_thread: int, phase: KernelPhase,
) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, description=description, num_ctas=num_ctas,
        warps_per_cta=warps_per_cta, regs_per_thread=regs_per_thread,
        tenants=(TenantSpec(name="main", phases=(phase,)),),
    )


#: The full suite, in the paper's Table 2 order (sensitive first).
APP_SPECS: dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    # -----------------------------------------------------------------------
    # Cache-sensitive applications
    # -----------------------------------------------------------------------
    _app("S2", "Symmetric rank-2k operations (Polybench)", 192, 4, 16, KernelPhase(
        iterations=96, alu_per_iteration=2,
        loads=(_random(_PC0, 64), _random(_PC1, 48), _reuse(_PC2, 64, Scope.GLOBAL)),
        stores=(StoreSpec(_STORE_PC, every_iterations=16),),
    )),
    _app("BI", "BiCGStab linear solver (Polybench)", 192, 4, 16, KernelPhase(
        iterations=90, alu_per_iteration=2,
        loads=(_random(_PC0, 384, Scope.GLOBAL), _random(_PC1, 24), _stream(_PC2)),
        stores=(StoreSpec(_STORE_PC, every_iterations=12),),
    )),
    _app("AT", "Matrix transpose-vector multiply (Polybench)", 192, 4, 16, KernelPhase(
        iterations=90, alu_per_iteration=2,
        loads=(_random(_PC0, 48), _reuse(_PC1, 96, Scope.GLOBAL)),
    )),
    _app("S1", "Symmetric rank-1k operations (Polybench)", 192, 4, 16, KernelPhase(
        iterations=96, alu_per_iteration=2,
        loads=(_random(_PC0, 48), _reuse(_PC1, 64, Scope.GLOBAL)),
    )),
    _app("CF", "CFD Euler solver (Rodinia)", 192, 4, 24, KernelPhase(
        iterations=84, alu_per_iteration=2,
        loads=(_random(_PC0, 48), _reuse(_PC1, 64, Scope.GLOBAL), _stream(_PC2)),
        stores=(StoreSpec(_STORE_PC, every_iterations=10),),
    )),
    _app("GE", "Scalar-vector-matrix multiply GEMVER (Polybench)", 160, 4, 16, KernelPhase(
        iterations=120, alu_per_iteration=2,
        loads=(_random(_PC0, 768, Scope.GLOBAL), _random(_PC1, 64)),
    )),
    _app("KM", "KMeans clustering (Rodinia)", 192, 4, 16, KernelPhase(
        iterations=96, alu_per_iteration=2,
        loads=(LoadSpec(_PC0, Pattern.DIVERGENT, 320, Scope.GLOBAL,
                        lines_per_access=1, weight=2),
               _random(_PC1, 32), _stream(_PC2)),
    )),
    _app("BC", "BFS (CUDA SDK)", 192, 4, 24, KernelPhase(
        iterations=84, alu_per_iteration=2,
        loads=(_divergent(_PC0, 48, Scope.CTA), _reuse(_PC1, 64, Scope.GLOBAL), _stream(_PC2)),
        stores=(StoreSpec(_STORE_PC, every_iterations=14),),
    )),
    _app("MV", "Matrix-vector product transpose (Polybench)", 192, 4, 16, KernelPhase(
        iterations=96, alu_per_iteration=2,
        loads=(_random(_PC0, 448, Scope.GLOBAL), _random(_PC1, 48)),
    )),
    _app("PF", "Particle filter, float (Rodinia)", 192, 4, 24, KernelPhase(
        iterations=84, alu_per_iteration=2,
        loads=(_random(_PC0, 40), _reuse(_PC1, 80, Scope.GLOBAL), _stream(_PC2)),
    )),
    # -----------------------------------------------------------------------
    # Cache-insensitive applications
    # -----------------------------------------------------------------------
    _app("BG", "BFS (GPGPU-Sim suite)", 96, 8, 16, KernelPhase(
        iterations=72, alu_per_iteration=2,
        loads=(_divergent(_PC0, 2048, Scope.GLOBAL), _stream(_PC1)),
    )),
    _app("LI", "LIBOR Monte Carlo (GPGPU-Sim suite)", 96, 8, 16, KernelPhase(
        iterations=72, alu_per_iteration=8,
        loads=(_stream(_PC0), _stream(_PC1)),
        stores=(StoreSpec(_STORE_PC, every_iterations=8),),
    )),
    _app("SR2", "SRAD v2 (Rodinia)", 96, 8, 24, KernelPhase(
        iterations=84, alu_per_iteration=5,
        loads=(_stream(_PC0), _reuse(_PC1, 8)),
        stores=(StoreSpec(_STORE_PC, every_iterations=8),),
    )),
    _app("SP", "Sparse matrix-vector multiply (Parboil)", 96, 8, 16, KernelPhase(
        iterations=78, alu_per_iteration=2,
        loads=(_divergent(_PC0, 384, Scope.GLOBAL), _reuse(_PC1, 16), _stream(_PC2)),
    )),
    _app("BR", "BFS (Rodinia)", 96, 8, 16, KernelPhase(
        iterations=78, alu_per_iteration=2,
        loads=(_divergent(_PC0, 64, Scope.CTA), _stream(_PC1)),
    )),
    _app("FD", "2D finite-difference time domain (Polybench)", 96, 8, 24, KernelPhase(
        iterations=90, alu_per_iteration=4,
        loads=(_reuse(_PC0, 20), _stream(_PC1)),
        stores=(StoreSpec(_STORE_PC, every_iterations=6),),
    )),
    _app("GA", "Gaussian elimination (Rodinia)", 160, 4, 16, KernelPhase(
        iterations=120, alu_per_iteration=6,
        loads=(_reuse(_PC0, 96, Scope.GLOBAL), _reuse(_PC1, 8)),
    )),
    _app("2D", "2D convolution (Polybench)", 96, 8, 16, KernelPhase(
        iterations=90, alu_per_iteration=4,
        loads=(_reuse(_PC0, 12), _stream(_PC1)),
        stores=(StoreSpec(_STORE_PC, every_iterations=6),),
    )),
    _app("SR1", "SRAD v1 (Rodinia)", 96, 8, 24, KernelPhase(
        iterations=90, alu_per_iteration=6,
        loads=(_reuse(_PC0, 16), _reuse(_PC1, 32, Scope.GLOBAL)),
    )),
    _app("HS", "HotSpot thermal simulation (Rodinia)", 96, 8, 32, KernelPhase(
        iterations=90, alu_per_iteration=6,
        loads=(_reuse(_PC0, 12), _stream(_PC1)),
        stores=(StoreSpec(_STORE_PC, every_iterations=8),),
    )),
)}

CACHE_SENSITIVE = ("S2", "BI", "AT", "S1", "CF", "GE", "KM", "BC", "MV", "PF")
CACHE_INSENSITIVE = ("BG", "LI", "SR2", "SP", "BR", "FD", "GA", "2D", "SR1", "HS")
ALL_APPS = tuple(APP_SPECS)


def workload_for(name: str) -> WorkloadSpec:
    """The workload called ``name``: a Table-2 app, else one registered
    with :func:`repro.workloads.spec.register_workload` (file-defined or
    fuzzed specs made first-class)."""
    workload = APP_SPECS.get(name) or registered_workload(name)
    if workload is None:
        raise KeyError(
            f"unknown app {name!r}: not a Table-2 app ({', '.join(ALL_APPS)}) "
            "and no registered workload by that name"
        )
    return workload


def kernel_for(name: str, scale: float = 1.0) -> KernelTrace:
    """Build the KernelTrace for an application by name."""
    return build_workload(workload_for(name), scale)
