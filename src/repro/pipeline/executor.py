"""The inter-stage overlap executor over a multi-program bundle.

Design (the R10K discipline, applied across programs instead of across
instructions):

* **one engine per stage** — any registry engine (fused/native/delta/
  trace/cycle), each owned by its own stage worker thread, so a stage's
  preallocated workspaces are never shared across threads;
* **bounded inter-stage queues** — each stage feeds the next through a
  ``queue.Queue(maxsize=depth)``; a fast producer blocks instead of
  ballooning memory, and the backpressure propagates to ``submit()``;
* **a scoreboard** — every in-flight batch has a per-stage completion
  bitmask, asserted to progress in stage order and retired when the
  final stage completes, the way the R10K issue queue tracks
  instructions through the pipeline;
* **load-time wiring** — the manifest's PO→PI name maps are resolved
  ONCE at construction into positional index tables (stage ``k``
  publishes its outputs as a list in PO order; stage ``k+1`` gathers
  operands by integer index), so the steady state does no per-batch
  name resolution;
* **bit-identity** — outputs and aggregated statistics of a pipelined
  batch equal the serial per-stage reference exactly (statistics sum
  across stages; ``peak_buffer_words`` takes the max — the same
  reduction :meth:`PipelineExecutor.run_serial` applies).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lpu.simulator import SimulationResult

__all__ = [
    "PipelineExecutor",
    "PipelinePool",
    "Scoreboard",
    "SerialChainRunner",
    "StageStats",
]

_WORD = np.uint64
#: end-of-stream sentinel flowing through the stage queues.
_STOP = object()
#: default bound of each inter-stage queue, in batches.
DEFAULT_DEPTH = 4


def _percentile(samples: Sequence[float], pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = int(round((pct / 100.0) * (len(ordered) - 1)))
    return float(ordered[index])


@dataclass
class StageStats:
    """One stage's occupancy and queue-depth counters."""

    name: str
    engine: str
    batches: int = 0
    words: int = 0
    busy_seconds: float = 0.0
    #: input-queue depth observed by each arriving batch (bounded window
    #: backing the reported percentiles, like the scheduler's waits).
    depth_samples: Deque[int] = field(
        default_factory=lambda: deque(maxlen=4096)
    )
    max_depth: int = 0

    def record_depth(self, depth: int) -> None:
        self.depth_samples.append(int(depth))
        if depth > self.max_depth:
            self.max_depth = int(depth)

    def as_dict(self, wall_seconds: float) -> Dict[str, object]:
        busy_fraction = (
            self.busy_seconds / wall_seconds if wall_seconds > 0 else 0.0
        )
        samples = list(self.depth_samples)
        return {
            "stage": self.name,
            "engine": self.engine,
            "batches": self.batches,
            "words": self.words,
            "busy_seconds": self.busy_seconds,
            "busy_fraction": busy_fraction,
            "queue_depth_p50": _percentile(samples, 50.0),
            "queue_depth_p99": _percentile(samples, 99.0),
            "queue_depth_max": self.max_depth,
        }


class Scoreboard:
    """(batch, stage) completion tracking for every in-flight batch.

    Batches enter at submit, mark each stage as it completes, and retire
    when the final stage finishes.  Stage order is asserted: stage ``k``
    of a batch cannot complete before its stage ``k-1`` — the invariant
    the bounded FIFO queues guarantee by construction, checked here the
    way an issue queue checks operand readiness.
    """

    def __init__(self, num_stages: int) -> None:
        self.num_stages = num_stages
        self._lock = threading.Lock()
        self._inflight: Dict[int, int] = {}
        self.submitted = 0
        self.retired = 0
        self.max_inflight = 0

    def enter(self, seq: int) -> None:
        with self._lock:
            self._inflight[seq] = 0
            self.submitted += 1
            if len(self._inflight) > self.max_inflight:
                self.max_inflight = len(self._inflight)

    def mark(self, seq: int, stage: int) -> None:
        with self._lock:
            state = self._inflight[seq]
            if stage > 0 and not (state >> (stage - 1)) & 1:
                raise AssertionError(
                    f"batch {seq} completed stage {stage} before "
                    f"stage {stage - 1}"
                )
            self._inflight[seq] = state | (1 << stage)
            if stage == self.num_stages - 1:
                del self._inflight[seq]
                self.retired += 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "stages": self.num_stages,
                "submitted": self.submitted,
                "retired": self.retired,
                "in_flight": len(self._inflight),
                "max_inflight": self.max_inflight,
            }


@dataclass
class _Batch:
    """One batch flowing down the stage chain."""

    seq: int
    #: request-fed signals, by name (resolved per stage via the
    #: precomputed external-name tuples).
    externals: Dict[str, np.ndarray]
    future: "Future[SimulationResult]"
    words: int
    #: previous stage's outputs in its PO order (gathered by index).
    carry: Optional[List[np.ndarray]] = None
    #: running statistics reduction across completed stages.
    macro_cycles: int = 0
    clock_cycles: int = 0
    compute_instructions: int = 0
    switch_routes: int = 0
    peak_buffer_words: int = 0
    buffer_writes: int = 0
    failed: bool = False


@dataclass(frozen=True)
class _ChainPlan:
    """Load-time wiring: the manifest's name maps resolved once into
    positional tables, so the steady state does no per-batch name
    resolution."""

    #: stage k's PO names, in graph output order (the carry layout).
    po_order: Tuple[Tuple[str, ...], ...]
    #: stage k's request-fed PI names.
    ext_names: Tuple[Tuple[str, ...], ...]
    #: stage k's wired PI names (sorted, matching the manifest).
    wired_pis: Tuple[Tuple[str, ...], ...]
    #: for each wired PI of stage k, the integer index into stage
    #: k-1's positional carry list.
    wired_index: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_bundle(cls, bundle) -> "_ChainPlan":
        po_order = tuple(
            tuple(name for name, _ in member.graph.outputs)
            for member in bundle.members
        )
        ext_names = []
        wired_pis = []
        wired_index = []
        for k, link in enumerate(bundle.links):
            ext_names.append(tuple(link.external))
            wired_pis.append(tuple(pi for pi, _ in link.wiring))
            if k == 0:
                wired_index.append(())
            else:
                index = {
                    name: i for i, name in enumerate(po_order[k - 1])
                }
                wired_index.append(
                    tuple(index[po] for _, po in link.wiring)
                )
        return cls(
            po_order=po_order,
            ext_names=tuple(ext_names),
            wired_pis=tuple(wired_pis),
            wired_index=tuple(wired_index),
        )

    def stage_stimulus(
        self,
        k: int,
        externals: Dict[str, np.ndarray],
        carry: Optional[List[np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        stimulus = {name: externals[name] for name in self.ext_names[k]}
        if k > 0:
            assert carry is not None
            for pi, src in zip(self.wired_pis[k], self.wired_index[k]):
                stimulus[pi] = carry[src]
        return stimulus


def _accumulate(batch: _Batch, result: SimulationResult) -> None:
    batch.macro_cycles += result.macro_cycles
    batch.clock_cycles += result.clock_cycles
    batch.compute_instructions += result.compute_instructions_executed
    batch.switch_routes += result.switch_routes
    batch.peak_buffer_words = max(
        batch.peak_buffer_words, result.peak_buffer_words
    )
    batch.buffer_writes += result.buffer_writes


class PipelineExecutor:
    """Stream batches through a bundle's program chain with overlap.

    Args:
        bundle: the :class:`~repro.artifact.bundle.ArtifactBundle`.
        engine: registry engine every stage runs (serving default when
            omitted); one instance per stage, each on its own thread.
        engine_options: engine constructor keywords, applied per stage.
        depth: bound of every inter-stage queue, in batches — the
            backpressure knob (1 = lockstep, larger = more slack).
    """

    def __init__(
        self,
        bundle,
        *,
        engine: Optional[str] = None,
        engine_options: Optional[Dict[str, object]] = None,
        depth: int = DEFAULT_DEPTH,
    ) -> None:
        from ..engine.session import DEFAULT_ENGINE, Session

        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.bundle = bundle
        self.engine_name = engine if engine is not None else DEFAULT_ENGINE
        self.engine_options = (
            dict(engine_options) if engine_options else None
        )
        self.depth = depth
        self.num_stages = bundle.num_stages
        self.external_inputs = frozenset(bundle.external_inputs)

        # One session (one engine) per stage, each private to its thread.
        self._sessions = [
            Session(
                member,
                engine=self.engine_name,
                engine_options=self.engine_options,
            )
            for member in bundle.members
        ]
        #: lazily built serial reference runner (run_serial).
        self._serial_sessions: Optional["SerialChainRunner"] = None

        # Load-time wiring: resolve the manifest's name maps into
        # positional tables once, so no per-batch name lookups happen.
        self._plan = _ChainPlan.from_bundle(bundle)

        self.scoreboard = Scoreboard(self.num_stages)
        self._stage_stats = [
            StageStats(name=link.name, engine=self.engine_name)
            for link in bundle.links
        ]
        self._queues: List["queue.Queue"] = [
            queue.Queue(maxsize=depth) for _ in range(self.num_stages)
        ]
        self._pending_words = 0
        self._pending_lock = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._started = time.perf_counter()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(k,),
                name=f"repro-pipeline-stage-{k}",
                daemon=True,
            )
            for k in range(self.num_stages)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, inputs: Dict[str, np.ndarray]
    ) -> "Future[SimulationResult]":
        """Enqueue one batch; blocks when the first stage's queue is
        full (backpressure).  The Future resolves to the whole-model
        result: final-stage outputs plus statistics aggregated across
        all stages."""
        if self._closed:
            raise RuntimeError("pipeline executor is closed")
        missing = self.external_inputs - inputs.keys()
        if missing:
            raise KeyError(
                f"missing value for primary inputs {sorted(missing)}"
            )
        extra = inputs.keys() - self.external_inputs
        if extra:
            raise KeyError(f"unknown primary inputs {sorted(extra)}")
        externals = {
            name: (
                value
                if type(value) is np.ndarray and value.dtype == _WORD
                else np.asarray(value, dtype=_WORD)
            )
            for name, value in inputs.items()
        }
        words = 0
        for value in externals.values():
            words = int(np.asarray(value).size)
            break
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
        batch = _Batch(
            seq=seq, externals=externals, future=Future(), words=words
        )
        self.scoreboard.enter(seq)
        with self._pending_lock:
            self._pending_words += words
        self._enqueue(0, batch)
        return batch.future

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        """Synchronous single-batch execution through the chain."""
        return self.submit(inputs).result()

    def map(
        self, requests: Sequence[Dict[str, np.ndarray]]
    ) -> List[SimulationResult]:
        """Stream many batches with inter-stage overlap; results return
        in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Serial reference
    # ------------------------------------------------------------------
    def run_serial(
        self, inputs: Dict[str, np.ndarray]
    ) -> SimulationResult:
        """The bit-identity reference: the same chain, one serial
        per-stage :meth:`~repro.engine.session.Session.run` sequence on
        the calling thread (separate engine instances from the pipeline
        stages), with the identical statistics reduction."""
        if self._serial_sessions is None:
            self._serial_sessions = SerialChainRunner(
                self.bundle,
                engine=self.engine_name,
                engine_options=self.engine_options,
            )
        return self._serial_sessions.run(inputs)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Per-stage occupancy/queue-depth counters plus the scoreboard."""
        wall = time.perf_counter() - self._started
        return {
            "engine": self.engine_name,
            "depth": self.depth,
            "wall_seconds": wall,
            "stages": [
                stage.as_dict(wall) for stage in self._stage_stats
            ],
            "scoreboard": self.scoreboard.as_dict(),
        }

    def reset_stats(self) -> None:
        """Zero the occupancy window (call after warm-up so steady-state
        busy fractions are not diluted by boot time)."""
        for stage in self._stage_stats:
            stage.batches = 0
            stage.words = 0
            stage.busy_seconds = 0.0
            stage.depth_samples.clear()
            stage.max_depth = 0
        self._started = time.perf_counter()

    @property
    def pending_words(self) -> int:
        with self._pending_lock:
            return self._pending_words

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight batches, then stop the stage threads."""
        if self._closed:
            return
        self._closed = True
        self._queues[0].put(_STOP)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "PipelineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue(self, k: int, batch: _Batch) -> None:
        self._stage_stats[k].record_depth(self._queues[k].qsize())
        self._queues[k].put(batch)

    def _finalize(
        self, batch: _Batch, last: SimulationResult
    ) -> SimulationResult:
        return SimulationResult(
            outputs=dict(last.outputs),
            macro_cycles=batch.macro_cycles,
            clock_cycles=batch.clock_cycles,
            compute_instructions_executed=batch.compute_instructions,
            switch_routes=batch.switch_routes,
            peak_buffer_words=batch.peak_buffer_words,
            buffer_writes=batch.buffer_writes,
        )

    def _worker(self, k: int) -> None:
        session = self._sessions[k]
        stats = self._stage_stats[k]
        in_q = self._queues[k]
        out_q = self._queues[k + 1] if k + 1 < self.num_stages else None
        last_stage = out_q is None
        while True:
            batch = in_q.get()
            if batch is _STOP:
                if out_q is not None:
                    out_q.put(_STOP)
                return
            if batch.failed:
                # A failed batch still flows to retirement so ordering,
                # the scoreboard, and the shutdown drain stay intact.
                self.scoreboard.mark(batch.seq, k)
                if last_stage:
                    self._retire(batch)
                else:
                    self._enqueue(k + 1, batch)
                continue
            start = time.perf_counter()
            result = None
            try:
                stimulus = self._plan.stage_stimulus(
                    k, batch.externals, batch.carry
                )
                result = session.run(stimulus)
                _accumulate(batch, result)
                if not last_stage:
                    batch.carry = [
                        result.outputs[name]
                        for name in self._plan.po_order[k]
                    ]
            except Exception as exc:  # noqa: BLE001 - fan out per batch
                batch.failed = True
                batch.future.set_exception(exc)
            finally:
                elapsed = time.perf_counter() - start
                stats.batches += 1
                stats.words += batch.words
                stats.busy_seconds += elapsed
            self.scoreboard.mark(batch.seq, k)
            if last_stage:
                self._retire(batch, result if not batch.failed else None)
            else:
                self._enqueue(k + 1, batch)

    def _retire(
        self, batch: _Batch, last: Optional[SimulationResult] = None
    ) -> None:
        with self._pending_lock:
            self._pending_words -= batch.words
        if last is not None:
            batch.future.set_result(self._finalize(batch, last))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PipelineExecutor(bundle={self.bundle.name!r}, "
            f"stages={self.num_stages}, engine={self.engine_name!r}, "
            f"depth={self.depth})"
        )


class SerialChainRunner:
    """Serial per-stage execution of a bundle on the calling thread:
    one :class:`~repro.engine.session.Session` per stage, run in stage
    order per batch, statistics reduced exactly as the pipelined path
    reduces them.  This is the bit-identity reference the executor is
    asserted against, and what :func:`~repro.serve.server.naive_serve`
    runs for a bundle."""

    def __init__(
        self,
        bundle,
        *,
        engine: Optional[str] = None,
        engine_options: Optional[Dict[str, object]] = None,
    ) -> None:
        from ..engine.session import DEFAULT_ENGINE, Session

        self.bundle = bundle
        self.engine_name = engine if engine is not None else DEFAULT_ENGINE
        self._plan = _ChainPlan.from_bundle(bundle)
        self._sessions = [
            Session(
                member,
                engine=self.engine_name,
                engine_options=dict(engine_options) if engine_options
                else None,
            )
            for member in bundle.members
        ]

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        batch = _Batch(
            seq=-1, externals=dict(inputs), future=Future(), words=0
        )
        carry: Optional[List[np.ndarray]] = None
        result: Optional[SimulationResult] = None
        for k, session in enumerate(self._sessions):
            stimulus = self._plan.stage_stimulus(k, batch.externals, carry)
            result = session.run(stimulus)
            _accumulate(batch, result)
            carry = [
                result.outputs[name] for name in self._plan.po_order[k]
            ]
        assert result is not None
        return SimulationResult(
            outputs=dict(result.outputs),
            macro_cycles=batch.macro_cycles,
            clock_cycles=batch.clock_cycles,
            compute_instructions_executed=batch.compute_instructions,
            switch_routes=batch.switch_routes,
            peak_buffer_words=batch.peak_buffer_words,
            buffer_writes=batch.buffer_writes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SerialChainRunner(bundle={self.bundle.name!r}, "
            f"engine={self.engine_name!r})"
        )


class PipelinePool:
    """The executor behind the :class:`~repro.serve.pool.WorkerPool`
    surface, so :class:`~repro.serve.server.InferenceServer` (and with
    it every fabric node and ``repro serve``) serves a whole-model
    bundle through the unchanged scheduler → pool path.  "Workers" here
    are the pipeline stages — one engine each, chained — rather than N
    replicas of one program."""

    def __init__(
        self,
        bundle,
        *,
        engine: Optional[str] = None,
        engine_options: Optional[Dict[str, object]] = None,
        depth: int = DEFAULT_DEPTH,
    ) -> None:
        self.executor = PipelineExecutor(
            bundle,
            engine=engine,
            engine_options=engine_options,
            depth=depth,
        )

    @property
    def num_workers(self) -> int:
        return self.executor.num_stages

    def submit(
        self, inputs: Dict[str, np.ndarray]
    ) -> "Future[SimulationResult]":
        return self.executor.submit(inputs)

    def stats(self) -> Dict[str, object]:
        report = self.executor.stats()
        scoreboard = report["scoreboard"]
        return {
            "backend": "pipeline",
            "placement": "chain",
            "num_workers": self.num_workers,
            "dispatched": scoreboard["submitted"],
            "pending_words": self.executor.pending_words,
            "shared_table_bytes": None,
            "engine": report["engine"],
            "depth": report["depth"],
            "stages": report["stages"],
            "scoreboard": scoreboard,
        }

    def close(self) -> None:
        self.executor.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PipelinePool({self.executor!r})"
