"""The serving layer: batched, cached, sharded inference over the engines.

Built on :mod:`repro.engine`, this package turns the compile-once
:class:`~repro.engine.session.Session` into a servable system:

* :class:`ProgramCache` — memoized compilation + lowering keyed by
  (workload fingerprint, engine, config, options), LRU-evicted, with an
  optional :class:`~repro.artifact.store.ArtifactStore` disk tier so a
  warm restart loads serialized executables instead of compiling,
* :class:`BatchScheduler` — dynamic micro-batching of individual requests
  under a max-batch-size / max-wait policy, bit-identical to per-request
  execution,
* :class:`WorkerPool` — batches sharded across N engine instances
  (thread- or process-backed) with round-robin or least-loaded placement,
* :class:`InferenceServer` / :func:`serve` — the facade wiring all three,
* :class:`StreamingServer` / :class:`StreamSession` — sticky stateful
  per-client streams for the incremental ``"delta"`` engine,
* :class:`FaultPlan` / :class:`FaultInjector` — the deterministic
  fault-injection harness behind the chaos tests and
  ``bench_fault_recovery`` (:mod:`repro.serve.faults`).

Every entry point takes its knobs as one :class:`ServeConfig`.  Quick
start::

    from repro.serve import ServeConfig, serve
    results = serve(
        graph, requests,
        serving=ServeConfig(num_workers=4, max_batch_size=16),
    )
"""

from .cache import (
    CacheEntry,
    CacheKey,
    CacheStats,
    ProgramCache,
    default_program_cache,
    disk_key,
    graph_fingerprint,
)
from .config import ServeConfig
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    WorkerCrashed,
)
from .pool import BACKENDS, PLACEMENTS, WorkerPool
from .scheduler import BatchScheduler, DeadlineExceeded, SchedulerStats
from .server import InferenceServer, naive_serve, serve
from .stream import StreamSession, StreamingServer, make_stream

__all__ = [
    "BACKENDS",
    "PLACEMENTS",
    "BatchScheduler",
    "CacheEntry",
    "CacheKey",
    "CacheStats",
    "DeadlineExceeded",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InferenceServer",
    "InjectedFault",
    "ProgramCache",
    "SchedulerStats",
    "ServeConfig",
    "StreamSession",
    "StreamingServer",
    "WorkerCrashed",
    "WorkerPool",
    "default_program_cache",
    "disk_key",
    "graph_fingerprint",
    "make_stream",
    "naive_serve",
    "serve",
]
