"""repro.runner — parallel experiment engine with a persistent cache.

The runner expresses every simulation as a picklable, content-hashed
:class:`JobSpec`, executes it through a pluggable
:class:`~repro.runner.executors.Executor` (in-process, process pool,
wire-protocol loopback, or worker subprocesses that can sit on other
hosts), and memoizes portable results both in-process and on disk
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) through a pluggable
:class:`CacheBackend`. The string-keyed :data:`ARCHITECTURES` registry
is the API every consumer (figure runners, CLI, benchmarks) uses to
name a simulation.
"""

from repro.runner.cache import (
    CACHE_SCHEMA_VERSION,
    CacheBackend,
    CacheInfo,
    DirectoryBackend,
    MISS,
    ResultCache,
    SharedDirectoryBackend,
    cache_salt,
    code_salt,
    default_cache_dir,
)
from repro.runner.engine import (
    ExperimentRunner,
    JobRecord,
    RunnerStats,
    default_executor,
    default_workers,
    execute_job,
)
from repro.runner.executors import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorUnavailable,
    InlineExecutor,
    LoopbackExecutor,
    PoolExecutor,
    RemoteExecutor,
    RemoteJobError,
    build_executor,
)
from repro.runner.fleet import JobOutcome, WorkerFleet
from repro.runner.registry import ARCHITECTURES, ArchSpec, resolve
from repro.runner.snapshot import (
    ExtensionSnapshot,
    L1Snapshot,
    SMSnapshot,
    portable,
    portable_best_swl,
    portable_result,
)
from repro.options import RunOptions
from repro.runner.spec import JobSpec
from repro.runner.wire import (
    PROTOCOL_VERSION,
    ProtocolMismatch,
    WireError,
    WireResult,
)

__all__ = [
    "ARCHITECTURES",
    "ArchSpec",
    "CACHE_SCHEMA_VERSION",
    "CacheBackend",
    "CacheInfo",
    "DirectoryBackend",
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorUnavailable",
    "ExperimentRunner",
    "ExtensionSnapshot",
    "InlineExecutor",
    "JobOutcome",
    "JobRecord",
    "JobSpec",
    "L1Snapshot",
    "LoopbackExecutor",
    "MISS",
    "PROTOCOL_VERSION",
    "PoolExecutor",
    "ProtocolMismatch",
    "RemoteExecutor",
    "RemoteJobError",
    "ResultCache",
    "RunOptions",
    "RunnerStats",
    "SMSnapshot",
    "SharedDirectoryBackend",
    "WireError",
    "WireResult",
    "WorkerFleet",
    "build_executor",
    "cache_salt",
    "code_salt",
    "default_cache_dir",
    "default_executor",
    "default_workers",
    "execute_job",
    "portable",
    "portable_best_swl",
    "portable_result",
    "resolve",
]
