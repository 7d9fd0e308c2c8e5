"""repro.runner — parallel experiment engine with a persistent cache.

The runner expresses every simulation as a picklable, content-hashed
:class:`JobSpec` and resolves it through one job table,
:class:`ExperimentRunner`: memo, then the on-disk cache
(one SQLite file under ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``),
then a pluggable
:class:`~repro.runner.executors.Executor` (in-process, process pool,
wire-protocol loopback, or worker processes — forks of this one, or
exec'd on other hosts), then in-process degradation. The service's coordinator is the
same table behind HTTP. The string-keyed :data:`ARCHITECTURES` registry
is the API every consumer (figure runners, CLI, benchmarks) uses to
name a simulation.
"""

from repro.runner.cache import (
    CACHE_SCHEMA_VERSION,
    CacheInfo,
    MISS,
    ResultCache,
    cache_salt,
    code_salt,
    default_cache_dir,
)
from repro.runner.engine import (
    JOB_SOURCES,
    JOB_STATES,
    ExperimentRunner,
    Job,
    JobRecord,
    RunnerStats,
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
from repro.runner.snapshot import portable
from repro.options import RunOptions
from repro.runner.spec import JobSpec
from repro.runner.wire import (
    PROTOCOL_VERSION,
    ProtocolMismatch,
    WireError,
)

__all__ = [
    "ARCHITECTURES",
    "ArchSpec",
    "CACHE_SCHEMA_VERSION",
    "CacheInfo",
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorUnavailable",
    "ExperimentRunner",
    "InlineExecutor",
    "JOB_SOURCES",
    "JOB_STATES",
    "Job",
    "JobOutcome",
    "JobRecord",
    "JobSpec",
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
    "WireError",
    "WorkerFleet",
    "build_executor",
    "cache_salt",
    "code_salt",
    "default_cache_dir",
    "default_workers",
    "execute_job",
    "portable",
    "resolve",
]
