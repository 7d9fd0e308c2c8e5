"""The 20-application benchmark suite (paper Table 2).

Each application is a synthetic kernel model calibrated to the
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
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.trace import KernelTrace
from repro.workloads.generator import (
    AppSpec,
    LoadSpec,
    Pattern,
    Scope,
    StoreSpec,
    build_kernel,
    scaled_iterations,
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


#: The full suite, in the paper's Table 2 order (sensitive first).
APP_SPECS: dict[str, AppSpec] = {}


def _app(spec: AppSpec) -> None:
    APP_SPECS[spec.name] = spec


# ---------------------------------------------------------------------------
# Cache-sensitive applications
# ---------------------------------------------------------------------------
_app(AppSpec(
    name="S2", description="Symmetric rank-2k operations (Polybench)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=16,
    iterations=96, alu_per_iteration=2,
    loads=(_random(_PC0, 64), _random(_PC1, 48), _reuse(_PC2, 64, Scope.GLOBAL)),
    stores=(StoreSpec(_STORE_PC, every_iterations=16),),
))
_app(AppSpec(
    name="BI", description="BiCGStab linear solver (Polybench)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=16,
    iterations=90, alu_per_iteration=2,
    loads=(_random(_PC0, 384, Scope.GLOBAL), _random(_PC1, 24), _stream(_PC2)),
    stores=(StoreSpec(_STORE_PC, every_iterations=12),),
))
_app(AppSpec(
    name="AT", description="Matrix transpose-vector multiply (Polybench)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=16,
    iterations=90, alu_per_iteration=2,
    loads=(_random(_PC0, 48), _reuse(_PC1, 96, Scope.GLOBAL)),
))
_app(AppSpec(
    name="S1", description="Symmetric rank-1k operations (Polybench)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=16,
    iterations=96, alu_per_iteration=2,
    loads=(_random(_PC0, 48), _reuse(_PC1, 64, Scope.GLOBAL)),
))
_app(AppSpec(
    name="CF", description="CFD Euler solver (Rodinia)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=24,
    iterations=84, alu_per_iteration=2,
    loads=(_random(_PC0, 48), _reuse(_PC1, 64, Scope.GLOBAL), _stream(_PC2)),
    stores=(StoreSpec(_STORE_PC, every_iterations=10),),
))
_app(AppSpec(
    name="GE", description="Scalar-vector-matrix multiply GEMVER (Polybench)",
    cache_sensitive=True, num_ctas=160, warps_per_cta=4, regs_per_thread=16,
    iterations=120, alu_per_iteration=2,
    loads=(_random(_PC0, 768, Scope.GLOBAL), _random(_PC1, 64)),
))
_app(AppSpec(
    name="KM", description="KMeans clustering (Rodinia)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=16,
    iterations=96, alu_per_iteration=2,
    loads=(LoadSpec(_PC0, Pattern.DIVERGENT, 320, Scope.GLOBAL,
                    lines_per_access=1, weight=2),
           _random(_PC1, 32), _stream(_PC2)),
))
_app(AppSpec(
    name="BC", description="BFS (CUDA SDK)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=24,
    iterations=84, alu_per_iteration=2,
    loads=(_divergent(_PC0, 48, Scope.CTA), _reuse(_PC1, 64, Scope.GLOBAL), _stream(_PC2)),
    stores=(StoreSpec(_STORE_PC, every_iterations=14),),
))
_app(AppSpec(
    name="MV", description="Matrix-vector product transpose (Polybench)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=16,
    iterations=96, alu_per_iteration=2,
    loads=(_random(_PC0, 448, Scope.GLOBAL), _random(_PC1, 48)),
))
_app(AppSpec(
    name="PF", description="Particle filter, float (Rodinia)",
    cache_sensitive=True, num_ctas=192, warps_per_cta=4, regs_per_thread=24,
    iterations=84, alu_per_iteration=2,
    loads=(_random(_PC0, 40), _reuse(_PC1, 80, Scope.GLOBAL), _stream(_PC2)),
))

# ---------------------------------------------------------------------------
# Cache-insensitive applications
# ---------------------------------------------------------------------------
_app(AppSpec(
    name="BG", description="BFS (GPGPU-Sim suite)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=16,
    iterations=72, alu_per_iteration=2,
    loads=(_divergent(_PC0, 2048, Scope.GLOBAL), _stream(_PC1)),
))
_app(AppSpec(
    name="LI", description="LIBOR Monte Carlo (GPGPU-Sim suite)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=16,
    iterations=72, alu_per_iteration=8,
    loads=(_stream(_PC0), _stream(_PC1)),
    stores=(StoreSpec(_STORE_PC, every_iterations=8),),
))
_app(AppSpec(
    name="SR2", description="SRAD v2 (Rodinia)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=24,
    iterations=84, alu_per_iteration=5,
    loads=(_stream(_PC0), _reuse(_PC1, 8)),
    stores=(StoreSpec(_STORE_PC, every_iterations=8),),
))
_app(AppSpec(
    name="SP", description="Sparse matrix-vector multiply (Parboil)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=16,
    iterations=78, alu_per_iteration=2,
    loads=(_divergent(_PC0, 384, Scope.GLOBAL), _reuse(_PC1, 16), _stream(_PC2)),
))
_app(AppSpec(
    name="BR", description="BFS (Rodinia)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=16,
    iterations=78, alu_per_iteration=2,
    loads=(_divergent(_PC0, 64, Scope.CTA), _stream(_PC1)),
))
_app(AppSpec(
    name="FD", description="2D finite-difference time domain (Polybench)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=24,
    iterations=90, alu_per_iteration=4,
    loads=(_reuse(_PC0, 20), _stream(_PC1)),
    stores=(StoreSpec(_STORE_PC, every_iterations=6),),
))
_app(AppSpec(
    name="GA", description="Gaussian elimination (Rodinia)",
    cache_sensitive=False, num_ctas=160, warps_per_cta=4, regs_per_thread=16,
    iterations=120, alu_per_iteration=6,
    loads=(_reuse(_PC0, 96, Scope.GLOBAL), _reuse(_PC1, 8)),
))
_app(AppSpec(
    name="2D", description="2D convolution (Polybench)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=16,
    iterations=90, alu_per_iteration=4,
    loads=(_reuse(_PC0, 12), _stream(_PC1)),
    stores=(StoreSpec(_STORE_PC, every_iterations=6),),
))
_app(AppSpec(
    name="SR1", description="SRAD v1 (Rodinia)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=24,
    iterations=90, alu_per_iteration=6,
    loads=(_reuse(_PC0, 16), _reuse(_PC1, 32, Scope.GLOBAL)),
))
_app(AppSpec(
    name="HS", description="HotSpot thermal simulation (Rodinia)",
    cache_sensitive=False, num_ctas=96, warps_per_cta=8, regs_per_thread=32,
    iterations=90, alu_per_iteration=6,
    loads=(_reuse(_PC0, 12), _stream(_PC1)),
    stores=(StoreSpec(_STORE_PC, every_iterations=8),),
))


CACHE_SENSITIVE = tuple(n for n, s in APP_SPECS.items() if s.cache_sensitive)
CACHE_INSENSITIVE = tuple(n for n, s in APP_SPECS.items() if not s.cache_sensitive)
ALL_APPS = tuple(APP_SPECS)


def app_spec(name: str, scale: float = 1.0) -> AppSpec:
    """Fetch an app spec, optionally scaled down for fast runs."""
    spec = APP_SPECS[name]
    if scale != 1.0:
        spec = replace(spec, iterations=scaled_iterations(spec.iterations, scale))
    return spec


def kernel_for(name: str, scale: float = 1.0) -> KernelTrace:
    """Build the KernelTrace for an application by name.

    Table-2 apps take priority; any other name falls back to the
    process-local workload registry (file-defined / fuzzed specs made
    first-class via :func:`repro.workloads.spec.register_workload`).
    """
    if name in APP_SPECS:
        return build_kernel(app_spec(name, scale))
    # Deferred import: spec.py imports this module for the registry's
    # shadowing check.
    from repro.workloads.spec import build_workload, registered_workload

    workload = registered_workload(name)
    if workload is None:
        raise KeyError(
            f"unknown app {name!r}: not a Table-2 app and no registered "
            "workload by that name"
        )
    return build_workload(workload, scale)
