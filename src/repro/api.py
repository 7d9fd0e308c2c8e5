"""The public programmatic surface: one ``Session``, two transports.

:class:`Session` is a single facade over one-off simulations, batched
sweeps and served capacity, and it is *transport-agnostic*: it holds
one transport and every verb goes through it unchanged.

* ``Session.local(...)`` — the in-process job table,
  :class:`~repro.runner.engine.ExperimentRunner` (memo → persistent
  cache → executor → degrade), driven by the calling thread;
* ``Session.connect(url)`` — a :class:`~repro.service.ServiceClient`
  on a running coordinator (``python -m repro serve``), which is the
  same table behind HTTP.

Both answer ``submit`` / ``status`` / ``result`` /
``stream_timeseries``, so ``run`` / ``run_many`` / ``trace`` return
typed :class:`JobHandle`\\ s that behave the same way: ``status()`` is
one of ``JOB_STATES``, a failed simulation raises
:class:`~repro.runner.executors.RemoteJobError` from ``result()``, and
— because identity is the spec's content hash end to end (the job id
*is* ``spec.key``) — the same submission yields bit-identical results
on both transports, deduplicated through the same cache.

Example::

    from repro.api import Session, RunOptions

    with Session.local(workers=4) as s:
        ipc = s.run("S2", "linebacker", scale=0.25).result().ipc

    with Session.connect("http://127.0.0.1:8642") as s:
        handles = s.run_many([("S2", "linebacker"), ("LI", "baseline")])
        results = [h.result(timeout=300) for h in handles]
        for row in s.trace("GE", "linebacker").stream_timeseries():
            print(row["cycle"], row["ipc"])
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.config import SimulationConfig, scaled_config
from repro.options import RunOptions
from repro.runner.engine import ExperimentRunner
from repro.runner.spec import JobSpec

__all__ = ["JobHandle", "RunOptions", "Session"]


class JobHandle:
    """One submitted job: poll it, block on it, stream its windows."""

    def __init__(self, session: "Session", spec: JobSpec, job_id: str) -> None:
        self._session = session
        self.spec = spec
        self.job_id = job_id

    def __repr__(self) -> str:
        return f"JobHandle({self.spec.label}, {self.job_id[:12]}...)"

    def status(self) -> str:
        """``"queued" | "running" | "done" | "failed"`` (``JOB_STATES``)."""
        return self._session._transport.status(self.job_id)["status"]

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until done; returns the portable simulation result.

        Raises :class:`~repro.runner.executors.RemoteJobError` when the
        simulation failed, ``TimeoutError`` when ``timeout`` elapses.
        """
        return self._session._transport.result(self.job_id, timeout=timeout)

    def stream_timeseries(
        self,
        sm: int = 0,
        poll: float = 0.1,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Yield per-window rows of a ``timeseries=True`` run."""
        if self.spec.options.timeseries is False:
            raise ValueError(
                "this job was not submitted with timeseries recording; "
                "use Session.trace or RunOptions(timeseries=True)"
            )
        return self._session._transport.stream_timeseries(
            self.job_id, sm=sm, poll=poll, timeout=timeout
        )


#: A ``run_many`` item: (app, arch) or (app, arch, overrides-dict).
JobLike = Union[tuple, JobSpec]


class Session:
    """A connection to simulation capacity — local or served.

    Construct through :meth:`local` or :meth:`connect`, not directly.
    Sessions are context managers; ``close()`` releases the executor /
    socket.
    """

    def __init__(
        self,
        *,
        runner: Optional[ExperimentRunner] = None,
        client=None,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
    ) -> None:
        if (runner is None) == (client is None):
            raise ValueError("Session needs exactly one of runner/client")
        #: The runner or the ServiceClient: the same verbs either way.
        self._transport = runner if runner is not None else client
        self.config = config if config is not None else scaled_config()
        self.scale = scale

    # -- constructors ----------------------------------------------------
    @classmethod
    def local(
        cls,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        cache_dir: "str | None" = None,
        use_cache: Optional[bool] = None,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
        **runner_kwargs: Any,
    ) -> "Session":
        """An in-process session over an :class:`ExperimentRunner`."""
        from repro.runner.cache import ResultCache

        cache = ResultCache(cache_dir) if cache_dir else None
        runner = ExperimentRunner(
            workers=workers,
            cache=cache,
            use_cache=use_cache,
            executor=executor,
            **runner_kwargs,
        )
        return cls(runner=runner, config=config, scale=scale)

    @classmethod
    def connect(
        cls,
        url: str,
        timeout: float = 30.0,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
    ) -> "Session":
        """A session against a running ``python -m repro serve``.

        Verifies liveness and schema compatibility up front
        (``/v1/healthz``), so version skew fails at connect time with
        an actionable message rather than on the first submission.
        """
        from repro.service.client import ServiceClient

        client = ServiceClient(url, timeout=timeout)
        client.healthz()
        return cls(client=client, config=config, scale=scale)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the transport: the local executor's workers or pool,
        or this thread's HTTP connection. Idempotent."""
        self._transport.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- spec construction ----------------------------------------------
    def spec(
        self,
        app: str,
        arch: str,
        config: Optional[SimulationConfig] = None,
        scale: Optional[float] = None,
        options: Optional[RunOptions] = None,
        **overrides: Any,
    ) -> JobSpec:
        """The content-hashed spec this session would submit.

        ``overrides`` are :class:`RunOptions` fields by keyword (e.g.
        ``timeseries=True``) and the architecture's own parameters
        (``lb_config=...``); a combination the architecture cannot run
        raises ``ValueError`` here, not in a worker.
        """
        return JobSpec.build(
            app=app,
            arch=arch,
            config=config if config is not None else self.config,
            scale=scale if scale is not None else self.scale,
            overrides=overrides,
            options=options,
        )

    # -- public verbs ----------------------------------------------------
    def run(
        self,
        app: str,
        arch: str,
        *,
        config: Optional[SimulationConfig] = None,
        scale: Optional[float] = None,
        options: Optional[RunOptions] = None,
        **overrides: Any,
    ) -> JobHandle:
        """Submit one (app, arch) simulation; returns its handle."""
        return self.submit(self.spec(app, arch, config, scale, options,
                                     **overrides))

    def run_many(self, jobs: Iterable[JobLike]) -> list[JobHandle]:
        """Submit a batch; the fan-out / dedup point for sweeps.

        Items are :class:`JobSpec`\\ s, ``(app, arch)`` or
        ``(app, arch, overrides)`` tuples. Every spec is built (and so
        checked) before any is submitted, and every one is submitted
        before any result is asked for, so the batch fans out over the
        executor's workers (or the service's fleet); duplicates share
        one job by content hash.
        """
        specs = [self._as_spec(job) for job in jobs]
        return [self.submit(spec) for spec in specs]

    def trace(
        self,
        app: str,
        arch: str = "linebacker",
        *,
        config: Optional[SimulationConfig] = None,
        scale: Optional[float] = None,
        options: Optional[RunOptions] = None,
        **overrides: Any,
    ) -> JobHandle:
        """A ``run`` with per-window timeseries recording forced on."""
        options = (options or RunOptions()).replace(timeseries=True)
        return self.run(app, arch, config=config, scale=scale,
                        options=options, **overrides)

    def submit(self, spec: JobSpec) -> JobHandle:
        """Submit one pre-built spec; never waits for the simulation."""
        self._transport.submit(spec)
        return JobHandle(self, spec, spec.key)

    def _as_spec(self, job: JobLike) -> JobSpec:
        if isinstance(job, JobSpec):
            return job
        app, arch, *rest = job
        overrides = rest[0] if rest else {}
        return self.spec(app, arch, **overrides)

    # -- observability ---------------------------------------------------
    @property
    def stats(self):
        """Local: the table's :class:`RunnerStats`. Connected: the
        service's ``/v1/fleet`` report (a dict)."""
        return self._transport.stats


def run_many_results(
    session: Session,
    jobs: Sequence[JobLike],
    timeout: Optional[float] = None,
) -> list:
    """Convenience: submit a batch and block for every result, in order."""
    return [h.result(timeout=timeout) for h in session.run_many(jobs)]
