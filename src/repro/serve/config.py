"""One serving configuration surface: :class:`ServeConfig`.

Every serving entry point — :class:`~repro.serve.server.InferenceServer`,
:func:`~repro.serve.server.serve`, :func:`~repro.serve.server.naive_serve`
and :class:`~repro.serve.stream.StreamingServer` — takes its knobs as one
frozen ``serving=ServeConfig(...)``, compile options included
(``compile_options``).  The fabric node (:mod:`repro.serve.fabric`) ships
the same object across config files and process boundaries via
:meth:`ServeConfig.describe`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..engine.session import DEFAULT_ENGINE

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything the serving layer needs to know, in one place.

    Args:
        engine: execution engine every worker runs (``"fused"`` default).
        engine_options: engine-specific constructor keywords every
            worker session forwards to
            :func:`repro.engine.create_engine` (the native engine's
            ``backend=``/``threads=``/``min_shard_words=``, the fused
            engine's ``rowwise_min_words=``, ...).
        num_workers: parallel engine instances in the worker pool.
        max_batch_size: requests coalesced into one engine run.
        max_wait_ms: longest a queued request waits for its batch to
            fill: a non-full batch is dispatched at this deadline, or
            as soon as a worker is free (the scheduler holds requests
            back only while all ``num_workers`` are busy).
        default_deadline_ms: request deadline applied when a caller
            does not send its own: a request still queued when its
            budget runs out is shed with a typed
            :class:`~repro.serve.scheduler.DeadlineExceeded` (HTTP 504
            over the fabric) instead of waiting forever on a wedged
            worker.  ``None`` (default) keeps requests deadline-free.
        placement: worker placement, ``"round_robin"`` / ``"least_loaded"``.
        backend: worker backend, ``"thread"`` / ``"process"`` / ``"fork"``
            / ``"spawn"`` (see :class:`~repro.serve.pool.WorkerPool`).
        share_tables: publish the fused index tables in a shared-memory
            arena so process-backed workers attach instead of each
            decoding a private copy (see :mod:`repro.engine.arena`).
        pipeline_depth: bound of each inter-stage queue, in batches,
            when the served source is a multi-program
            :class:`~repro.artifact.bundle.ArtifactBundle` (the
            :class:`~repro.pipeline.PipelineExecutor` backpressure
            knob; ignored for single-program sources).
        injector: optional :class:`~repro.serve.faults.FaultInjector`
            threaded into the worker pool (and, when serving through a
            :class:`~repro.serve.fabric.FabricNode`, the front-end and
            store) so every injected failure mode in a chaos test or
            bench is reproducible from one seeded plan.
        cache: program cache to resolve compilations through (the
            process-wide default cache when omitted).
        store: artifact store backend wired as the cache's disk tier
            when a cache is built here (ignored when ``cache`` is given:
            a pre-built cache carries its own store).
        compile_options: options forwarded to
            :func:`repro.core.compile_ffcl` when compiling from a graph.
    """

    engine: str = DEFAULT_ENGINE
    engine_options: Mapping[str, object] = field(default_factory=dict)
    num_workers: int = 1
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    default_deadline_ms: Optional[float] = None
    placement: str = "round_robin"
    backend: str = "thread"
    share_tables: bool = False
    pipeline_depth: int = 4
    injector: Optional[object] = field(default=None, compare=False)
    cache: Optional[object] = field(default=None, compare=False)
    store: Optional[object] = field(default=None, compare=False)
    compile_options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from .pool import BACKENDS, PLACEMENTS

        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms <= 0
        ):
            raise ValueError("default_deadline_ms must be > 0 when set")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (one of {BACKENDS})"
            )
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r} "
                f"(one of {PLACEMENTS})"
            )

    def replace(self, **overrides) -> "ServeConfig":
        """A copy with ``overrides`` applied (the tuning idiom)."""
        return dataclasses.replace(self, **overrides)

    def resolve_cache(self):
        """The program cache this config serves through: the explicit
        ``cache``, a fresh cache over ``store``, or the process default."""
        from .cache import ProgramCache, default_program_cache

        if self.cache is not None:
            return self.cache
        if self.store is not None:
            return ProgramCache(store=self.store)
        return default_program_cache()

    def describe(self) -> Dict[str, object]:
        """JSON-able snapshot (objects reduced to their reprs)."""
        return {
            "engine": self.engine,
            "engine_options": dict(self.engine_options),
            "num_workers": self.num_workers,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "default_deadline_ms": self.default_deadline_ms,
            "placement": self.placement,
            "backend": self.backend,
            "share_tables": self.share_tables,
            "pipeline_depth": self.pipeline_depth,
            "injector": (
                repr(self.injector) if self.injector is not None else None
            ),
            "cache": repr(self.cache) if self.cache is not None else None,
            "store": repr(self.store) if self.store is not None else None,
            "compile_options": dict(self.compile_options),
        }
