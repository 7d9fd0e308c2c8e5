"""The public programmatic surface: one ``Session``, two transports.

:class:`Session` is a single facade over one-off simulations, batched
sweeps (:class:`~repro.runner.engine.ExperimentRunner`) and served
capacity, and it is *transport-agnostic*:

* ``Session.local(...)`` executes through an in-process
  :class:`ExperimentRunner` (memo → persistent cache → executor);
* ``Session.connect(url)`` submits the identical content-hashed specs
  to a running coordinator (``python -m repro serve``) over HTTP.

Either way, ``run`` / ``run_many`` / ``trace`` return typed
:class:`JobHandle`\\ s with the same three methods (``status()``,
``result()``, ``stream_timeseries()``), and — because identity is the
spec's content hash end to end — the same submission yields
bit-identical results on both transports, deduplicated through the
same shared cache.

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
        """``"queued" | "running" | "done" | "failed"``."""
        return self._session._status(self)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until done; returns the portable simulation result.

        Raises :class:`~repro.runner.executors.RemoteJobError` when the
        simulation failed, ``TimeoutError`` when ``timeout`` elapses.
        """
        return self._session._result(self, timeout)

    def stream_timeseries(
        self,
        sm: int = 0,
        poll: float = 0.1,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Yield per-window rows of a ``timeseries=True`` run."""
        return self._session._stream_timeseries(self, sm, poll, timeout)


#: A ``run_many`` item: (app, arch) or (app, arch, overrides-dict).
JobLike = Union[tuple, JobSpec]


class Session:
    """A connection to simulation capacity — local or served.

    Construct through :meth:`local` or :meth:`connect`, not directly.
    Sessions are context managers; ``close()`` releases executors /
    sockets.
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
        self._runner = runner
        self._client = client
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
        """Release the session's transport.

        Local engines build and shut down executors per batch, and the
        HTTP client's per-thread keep-alive connections close with the
        client object, so this only drops references — but callers
        should still treat a closed session as dead; the context-manager
        form makes that structural.
        """
        self._runner = None
        self._client = None

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
        ``(app, arch, overrides)`` tuples. Local sessions resolve the
        whole batch through the engine at once (parallel executors,
        coalesced duplicates); connected sessions submit each spec and
        let the coordinator dedup by content hash.
        """
        specs = [self._as_spec(job) for job in jobs]
        if self._runner is not None:
            self._runner.run_many(specs)  # resolve eagerly, in parallel
            return [JobHandle(self, spec, spec.key) for spec in specs]
        handles = []
        for spec in specs:
            doc = self._client.submit(spec)
            handles.append(JobHandle(self, spec, doc["job_id"]))
        return handles

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
        """Submit one pre-built spec."""
        if self._runner is not None:
            self._runner.run(spec)
            return JobHandle(self, spec, spec.key)
        doc = self._client.submit(spec)
        return JobHandle(self, spec, doc["job_id"])

    # -- handle backends -------------------------------------------------
    def _as_spec(self, job: JobLike) -> JobSpec:
        if isinstance(job, JobSpec):
            return job
        app, arch, *rest = job
        overrides = rest[0] if rest else {}
        return self.spec(app, arch, **overrides)

    def _status(self, handle: JobHandle) -> str:
        if self._runner is not None:
            # Local submissions resolve eagerly; reaching the handle
            # means the run (or a raise) already happened.
            return "done"
        return self._client.status(handle.job_id)["status"]

    def _result(self, handle: JobHandle, timeout: Optional[float]) -> Any:
        if self._runner is not None:
            return self._runner.run(handle.spec)  # memo hit: same object
        return self._client.result(handle.job_id, timeout=timeout)

    def _stream_timeseries(
        self,
        handle: JobHandle,
        sm: int,
        poll: float,
        timeout: Optional[float],
    ) -> Iterator[dict]:
        if handle.spec.options.timeseries is False:
            raise ValueError(
                "this job was not submitted with timeseries recording; "
                "use Session.trace or RunOptions(timeseries=True)"
            )
        if self._runner is not None:
            result = self._result(handle, timeout)
            series = (result.timeseries or [])
            if not series:
                return iter(())
            return iter(list(series[sm]))
        return self._client.stream_timeseries(
            handle.job_id, sm=sm, poll=poll, timeout=timeout
        )

    # -- observability ---------------------------------------------------
    @property
    def stats(self):
        """Local: the engine's :class:`RunnerStats`. Connected: the
        service's ``/v1/fleet`` report (a dict)."""
        if self._runner is not None:
            return self._runner.stats
        return self._client.fleet()


def run_many_results(
    session: Session,
    jobs: Sequence[JobLike],
    timeout: Optional[float] = None,
) -> list:
    """Convenience: submit a batch and block for every result, in order."""
    return [h.result(timeout=timeout) for h in session.run_many(jobs)]
