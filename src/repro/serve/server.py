"""The serving facade: cache + micro-batching + worker sharding.

:class:`InferenceServer` is the one-stop entry point for serving a logic
workload: it resolves the compiled program through a
:class:`~repro.serve.cache.ProgramCache`, shards execution across a
:class:`~repro.serve.pool.WorkerPool`, and coalesces concurrent requests
with a :class:`~repro.serve.scheduler.BatchScheduler`.  Every request's
result is bit-identical to a direct
:meth:`~repro.engine.session.Session.run` of that request.

The :func:`serve` function is the synchronous fire-and-forget form::

    from repro.serve import ServeConfig, serve
    results = serve(
        graph, requests,
        serving=ServeConfig(num_workers=4, max_batch_size=16),
    )

All serving knobs, compile options included, live in one
:class:`~repro.serve.config.ServeConfig` passed as ``serving=``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..core.codegen import Program
from ..core.config import LPUConfig
from ..engine.session import Session
from ..lpu.simulator import SimulationResult
from ..netlist.graph import LogicGraph
from .config import ServeConfig
from .pool import WorkerPool
from .scheduler import BatchScheduler, DeadlineExceeded

__all__ = ["InferenceServer", "naive_serve", "serve"]


class InferenceServer:
    """Serve one compiled workload to many concurrent callers.

    Args:
        source: a :class:`LogicGraph` to compile, a compiled
            :class:`Program`, a deserialized
            :class:`~repro.artifact.format.ExecutableArtifact` (the
            ahead-of-time path: no compile, no lowering), or a
            multi-program :class:`~repro.artifact.bundle.ArtifactBundle`
            (whole-model serving: one
            :class:`~repro.pipeline.PipelineExecutor` stage per member
            program instead of a replica worker pool).
        config: LPU parameters when compiling from a graph.
        serving: the :class:`~repro.serve.config.ServeConfig` bundling
            every serving knob (engine, workers, batching, placement,
            backend, cache/store wiring, compile options); the defaults
            when omitted.
    """

    def __init__(
        self,
        source: Union[LogicGraph, Program],
        config: Optional[LPUConfig] = None,
        *,
        serving: Optional[ServeConfig] = None,
    ) -> None:
        from ..artifact.bundle import ArtifactBundle

        if serving is None:
            serving = ServeConfig()
        self.serving = serving
        self.cache = serving.resolve_cache()
        self.engine_name = serving.engine
        if isinstance(source, ArtifactBundle):
            # A bundle arrives fully compiled: nothing to resolve
            # through the program cache — the chain executes behind a
            # pool-shaped adapter, one engine per stage.
            from ..pipeline import PipelinePool

            self.bundle = source
            self.program = None
            self.pool = PipelinePool(
                source,
                engine=serving.engine,
                engine_options=dict(serving.engine_options) or None,
                depth=serving.pipeline_depth,
            )
            pi_names = frozenset(source.external_inputs)
        else:
            self.bundle = None
            entry = self.cache.get_or_compile(
                source, config, engine=serving.engine,
                **serving.compile_options,
            )
            self.program = entry.program
            self.pool = WorkerPool(
                self.program,
                num_workers=serving.num_workers,
                engine=serving.engine,
                engine_options=dict(serving.engine_options) or None,
                placement=serving.placement,
                backend=serving.backend,
                # Spawn workers ship these bytes instead of re-packaging.
                artifact=entry.artifact,
                share_tables=serving.share_tables,
                injector=serving.injector,
            )
            graph = self.program.graph
            pi_names = frozenset(
                graph.input_name(nid) for nid in graph.inputs
            )
        self.scheduler = BatchScheduler(
            self.pool.submit,
            max_batch_size=serving.max_batch_size,
            max_wait_ms=serving.max_wait_ms,
            pi_names=pi_names,
            # Work-conserving batching: a request waits for batch-mates
            # only while this many batches are already in flight.
            slots=self.pool.num_workers,
        )
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def graph(self) -> LogicGraph:
        if self.bundle is not None:
            return self.bundle.reference_graph()
        return self.program.graph

    def effective_deadline_ms(
        self, deadline_ms: Optional[float] = None
    ) -> Optional[float]:
        """The deadline a request runs under: its own override, else
        the config's ``default_deadline_ms``, else none."""
        if deadline_ms is not None:
            return deadline_ms
        return self.serving.default_deadline_ms

    def submit(
        self,
        inputs: Dict[str, np.ndarray],
        *,
        deadline_ms: Optional[float] = None,
    ) -> "Future[SimulationResult]":
        """Enqueue one request; the Future resolves to its result.

        ``deadline_ms`` overrides the config's ``default_deadline_ms``
        for this request; a request still queued when its budget runs
        out resolves to :class:`~repro.serve.scheduler.DeadlineExceeded`.
        """
        return self.scheduler.submit(
            inputs, deadline_ms=self.effective_deadline_ms(deadline_ms)
        )

    def infer(
        self,
        inputs: Dict[str, np.ndarray],
        *,
        deadline_ms: Optional[float] = None,
    ) -> SimulationResult:
        """Synchronous single-request inference (blocks for the result).

        With a deadline (per-request or config default) the *wait* is
        bounded too: a result that has not materialized by the deadline
        raises :class:`~repro.serve.scheduler.DeadlineExceeded` instead
        of blocking the caller on a wedged worker forever.
        """
        effective = self.effective_deadline_ms(deadline_ms)
        started = time.monotonic()
        future = self.submit(inputs, deadline_ms=effective)
        if effective is None:
            return future.result()
        try:
            return future.result(timeout=effective / 1e3)
        except FutureTimeoutError:
            raise DeadlineExceeded(
                effective, (time.monotonic() - started) * 1e3
            ) from None

    def map(
        self, requests: Iterable[Dict[str, np.ndarray]]
    ) -> List[SimulationResult]:
        """Run many requests, returning results in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def stats(self) -> Dict[str, object]:
        """Cache, scheduler, and pool statistics in one report."""
        return {
            "cache": self.cache.stats.as_dict(),
            "scheduler": self.scheduler.stats.as_dict(),
            "pool": self.pool.stats(),
        }

    def close(self) -> None:
        """Drain queued requests, then stop scheduler and workers."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        self.pool.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceServer(graph={self.graph.name!r}, "
            f"engine={self.engine_name!r}, "
            f"workers={self.pool.num_workers})"
        )


def serve(
    source: Union[LogicGraph, Program],
    requests: Iterable[Dict[str, np.ndarray]],
    config: Optional[LPUConfig] = None,
    *,
    serving: Optional[ServeConfig] = None,
) -> List[SimulationResult]:
    """Serve ``requests`` through a transient :class:`InferenceServer`.

    Results are returned in request order, each bit-identical to a direct
    :meth:`Session.run <repro.engine.session.Session.run>` of that request.
    """
    with InferenceServer(source, config, serving=serving) as server:
        return server.map(requests)


def naive_serve(
    source: Union[LogicGraph, Program],
    requests: Iterable[Dict[str, np.ndarray]],
    config: Optional[LPUConfig] = None,
    *,
    serving: Optional[ServeConfig] = None,
) -> List[SimulationResult]:
    """The reference the serving tests compare against: one compile-once
    session, one engine run per request, no coalescing.  Only
    ``serving.engine``, ``serving.engine_options`` and the compile
    options apply here — there is no pool, no batching, no cache.  A
    multi-program :class:`~repro.artifact.bundle.ArtifactBundle` runs its
    stages serially through a :class:`~repro.pipeline.SerialChainRunner`."""
    from ..artifact.bundle import ArtifactBundle

    if serving is None:
        serving = ServeConfig()
    if isinstance(source, ArtifactBundle):
        from ..pipeline import SerialChainRunner

        runner = SerialChainRunner(
            source,
            engine=serving.engine,
            engine_options=dict(serving.engine_options) or None,
        )
        return [runner.run(request) for request in requests]
    session = Session(
        source, config, engine=serving.engine,
        engine_options=dict(serving.engine_options) or None,
        **serving.compile_options,
    )
    return [session.run(request) for request in requests]
