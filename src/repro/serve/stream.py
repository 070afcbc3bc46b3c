"""Stateful streaming sessions over the worker pool.

The batch serving stack (:class:`~repro.serve.server.InferenceServer`)
treats every request as independent — correct, but blind to the structure
of the paper's flagship deployments (intrusion detection, trigger
systems), where each *client* is a stream whose consecutive samples
barely differ.  The delta engine (:mod:`repro.engine.delta`) exploits
that only if one persistent engine state sees the whole stream in order.

:class:`StreamingServer` provides exactly that: it owns a thread-backed
:class:`~repro.serve.pool.WorkerPool` and hands out sticky
:class:`StreamSession` handles.  Opening a session pins the client to the
least-loaded worker and allocates a dedicated engine state there
(:meth:`~repro.engine.delta.DeltaEngine.new_state`); every subsequent
step runs on that worker's own thread via
:meth:`~repro.serve.pool.WorkerPool.submit_call`, FIFO with the worker's
other traffic — so interleaved sessions sharing one worker stay isolated
(separate states) and ordered (one queue), with no cross-thread state
sharing.  Engines without stream state (``"fused"``, ``"trace"``) degrade
gracefully to plain per-request runs on the sticky worker.

:func:`make_stream` draws the deterministic low-entropy (or fully random)
input streams the tests and the ``stream_*`` benchmark workloads replay.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

import numpy as np

from ..artifact.format import ExecutableArtifact
from ..core.codegen import Program
from ..core.config import LPUConfig
from ..engine.base import SAMPLES_PER_WORD
from ..lpu.functional import random_stimulus
from ..lpu.simulator import SimulationResult
from ..netlist.graph import LogicGraph
from .config import ServeConfig
from .pool import WorkerPool

__all__ = ["StreamSession", "StreamingServer", "make_stream"]

_WORD = np.uint64


class StreamSession:
    """One client's sticky, ordered, stateful stream.

    Obtained from :meth:`StreamingServer.open_session`; drive it from one
    thread at a time (steps are FIFO on the pinned worker regardless).
    """

    def __init__(self, server: "StreamingServer", index: int, state) -> None:
        self._server = server
        self.worker_index = index
        self._state = state  # None for engines without stream state
        self._closed = False

    @property
    def stateful(self) -> bool:
        return self._state is not None

    def submit(self, inputs: Dict[str, np.ndarray]) -> "object":
        """Enqueue one stream step; the Future resolves to its result."""
        if self._closed:
            raise RuntimeError("stream session is closed")
        state = self._state
        if state is None:
            return self._server.pool.submit_call(
                self.worker_index, lambda session: session.run(inputs)
            )
        return self._server.pool.submit_call(
            self.worker_index,
            lambda session: session.engine.run_with_state(inputs, state),
        )

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        """Synchronous single step (blocks for the result)."""
        return self.submit(inputs).result()

    def reset(self) -> None:
        """Forget the stream history (the next step runs densely).

        Executed on the worker thread, ordered after steps already
        queued."""
        if self._closed:
            raise RuntimeError("stream session is closed")
        state = self._state
        if state is not None:
            self._server.pool.submit_call(
                self.worker_index, lambda _session: state.invalidate()
            ).result()

    def stats(self) -> Dict[str, object]:
        """This stream's delta counters (empty for stateless engines)."""
        state = self._state
        if state is None:
            return {}
        return dict(state.counters())

    def close(self) -> None:
        """Release the worker slot (the state is garbage-collected)."""
        if self._closed:
            return
        self._closed = True
        self._server._release(self.worker_index)

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingServer:
    """Sticky per-client streaming on top of :class:`WorkerPool`.

    Args:
        source: a :class:`LogicGraph` to compile, a compiled
            :class:`Program`, or an :class:`ExecutableArtifact`.
        config: LPU parameters when compiling from a graph.
        serving: the :class:`~repro.serve.config.ServeConfig`; the
            streaming layer uses its ``engine`` (stateless engines simply
            run per-request), ``num_workers`` (sessions are placed on the
            worker with the fewest open sessions), cache/store wiring and
            compile options.  The backend must stay ``"thread"``:
            per-session engine state lives in-process.  Omitted, it is
            ``ServeConfig(engine="delta")`` — the point of the layer.
    """

    def __init__(
        self,
        source: Union[LogicGraph, Program, ExecutableArtifact],
        config: Optional[LPUConfig] = None,
        *,
        serving: Optional[ServeConfig] = None,
    ) -> None:
        if serving is None:
            serving = ServeConfig(engine="delta")
        if serving.backend != "thread":
            raise ValueError(
                "streaming sessions require the thread backend: "
                "per-session engine state lives in-process and is "
                "driven on the owning worker's thread"
            )
        self.serving = serving
        self.cache = serving.resolve_cache()
        entry = self.cache.get_or_compile(
            source, config, engine=serving.engine,
            **serving.compile_options,
        )
        self.program = entry.program
        self.engine_name = serving.engine
        # Thread backend only: per-session engine state lives in-process
        # and submit_call drives it on the owning worker's thread.
        self.pool = WorkerPool(
            self.program,
            num_workers=serving.num_workers,
            engine=serving.engine,
            engine_options=dict(serving.engine_options) or None,
            backend="thread",
            artifact=entry.artifact,
        )
        self._lock = threading.Lock()
        self._open_sessions = [0] * serving.num_workers
        self._sessions_opened = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def graph(self) -> LogicGraph:
        return self.program.graph

    def open_session(self) -> StreamSession:
        """Open one client stream, pinned to the least-busy worker."""
        with self._lock:
            if self._closed:
                raise RuntimeError("streaming server is closed")
            index = min(
                range(self.pool.num_workers),
                key=lambda i: (self._open_sessions[i], i),
            )
            self._open_sessions[index] += 1
            self._sessions_opened += 1
        try:
            state = self.pool.submit_call(
                index,
                lambda session: session.engine.new_state()
                if hasattr(session.engine, "new_state") else None,
            ).result()
        except BaseException:
            self._release(index)
            raise
        return StreamSession(self, index, state)

    def _release(self, index: int) -> None:
        with self._lock:
            self._open_sessions[index] -= 1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            open_sessions = list(self._open_sessions)
            opened = self._sessions_opened
        return {
            "engine": self.engine_name,
            "open_sessions": open_sessions,
            "sessions_opened": opened,
            "pool": self.pool.stats(),
            "cache": self.cache.stats.as_dict(),
        }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.pool.close()

    def __enter__(self) -> "StreamingServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingServer(graph={self.graph.name!r}, "
            f"engine={self.engine_name!r}, "
            f"workers={self.pool.num_workers})"
        )


# ----------------------------------------------------------------------
# Deterministic input streams
# ----------------------------------------------------------------------
def make_stream(
    graph: LogicGraph,
    *,
    steps: int,
    flip_bits: int = 1,
    array_size: int = 1,
    random_stream: bool = False,
    seed: int = 0,
) -> List[Dict[str, np.ndarray]]:
    """A deterministic input stream over ``graph``.

    Low-entropy mode (default): one random base sample, then a random
    walk flipping ``flip_bits`` uniformly-chosen bits per step —
    cumulative, like a real sensor stream.  ``random_stream=True``
    instead draws every step independently (the worst case for any
    incremental engine).
    """
    if random_stream:
        return [
            random_stimulus(graph, array_size=array_size, seed=seed + i)
            for i in range(steps)
        ]
    rng = np.random.default_rng(seed)
    current = {
        name: np.asarray(words, dtype=_WORD).copy()
        for name, words in random_stimulus(
            graph, array_size=array_size, seed=seed
        ).items()
    }
    names = sorted(current)
    stream = [{name: words.copy() for name, words in current.items()}]
    for _ in range(steps - 1):
        for _ in range(flip_bits):
            name = names[int(rng.integers(len(names)))]
            flat = current[name].reshape(-1)
            word = int(rng.integers(flat.size))
            bit = _WORD(rng.integers(SAMPLES_PER_WORD))
            flat[word] ^= _WORD(1) << bit
        stream.append(
            {name: words.copy() for name, words in current.items()}
        )
    return stream
