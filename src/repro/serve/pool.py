"""Sharding batches across parallel engine workers, under supervision.

A :class:`WorkerPool` owns N engine instances over ONE compiled program and
places incoming batches on them with a configurable policy:

* ``"round_robin"`` — cycle through the workers,
* ``"least_loaded"`` — place on the worker with the fewest outstanding
  operand words.

Workers are **thread-backed** by default: trace execution is numpy-bound,
so worker threads overlap the vector kernels while sharing one lowered
:class:`~repro.core.trace.TraceProgram` (see the lowering cache in
:mod:`repro.core.trace` — lowering is paid once, not once per worker).
Two **process-backed** modes sidestep the interpreter lock entirely at
the cost of pickling batches across the process boundary:

* ``backend="fork"`` — the program reaches the children through fork
  inheritance (POSIX fork platforms only),
* ``backend="spawn"`` — start-method independent: each child receives
  the serialized :class:`~repro.artifact.format.ExecutableArtifact`
  bytes and boots its engine from them, so no compiled Python object
  ever crosses the process boundary.

``backend="process"`` resolves to whichever of the two the platform's
multiprocessing start methods support (fork where available, else the
artifact-based spawn path) instead of silently assuming fork.

**Supervision.**  A crashed worker process (OOM kill, segfault in a
native kernel, operator ``kill -9``) used to leave its single-process
executor permanently broken: every batch already in flight failed, and
every future batch placed on that slot failed too.  The pool now
supervises its workers: a death signature on a batch future
(``BrokenProcessPool`` / broken pipe / :class:`~repro.serve.faults.
WorkerCrashed`) triggers a restart of that worker — rehydrated from the
same program / artifact bytes / shared-table arena handle it originally
booted from — and the dead worker's in-flight batches are re-placed on
the fresh instance.  Re-execution is safe because inference is pure and
bit-deterministic: a re-placed batch produces the same words the lost
one would have.  Restart counts surface in :meth:`WorkerPool.stats`;
each batch is retried at most ``max_batch_retries`` times so a
deterministically-crashing workload still fails loudly instead of
respawning forever.

As with any spawn-based ``multiprocessing`` use, a script creating a
spawn pool at import time must guard it with ``if __name__ ==
"__main__":`` — spawn children re-import the main module.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Union

import numpy as np

from ..artifact.format import ExecutableArtifact
from ..core.codegen import Program
from ..engine.base import engine_uses_trace
from ..engine.session import DEFAULT_ENGINE, Session
from ..lpu.simulator import SimulationResult
from .faults import FaultInjector, WorkerCrashed

__all__ = ["BACKENDS", "PLACEMENTS", "WORKER_DEATH_EXCEPTIONS", "WorkerPool"]

PLACEMENTS = ("round_robin", "least_loaded")
BACKENDS = ("thread", "process", "fork", "spawn")

#: exception types on a batch future that mean "the worker died", not
#: "the batch was bad" — the supervisor restarts the worker and
#: re-places the batch instead of failing the caller.
WORKER_DEATH_EXCEPTIONS = (
    BrokenProcessPool,
    BrokenPipeError,
    EOFError,
    ConnectionResetError,
    WorkerCrashed,
)

_STOP = object()


class _ThreadWorker:
    """One worker thread owning one engine-bound session."""

    def __init__(
        self,
        index: int,
        program: Program,
        engine: str,
        engine_options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.index = index
        self.session = Session(
            program, engine=engine, engine_options=engine_options
        )
        self._poisoned = False
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-worker-{index}", daemon=True
        )
        self._thread.start()

    def submit(
        self, inputs: Dict[str, np.ndarray]
    ) -> "Future[SimulationResult]":
        future: "Future[SimulationResult]" = Future()
        self._queue.put((inputs, future))
        return future

    def submit_call(self, fn) -> "Future":
        """Run ``fn(session)`` on the worker thread, in queue order with
        submitted batches (the streaming layer's stateful entry point)."""
        future: "Future" = Future()
        self._queue.put((fn, future))
        return future

    def kill(self) -> None:
        """Simulate a crash: the next task dies with
        :class:`WorkerCrashed` (threads cannot die for real, so fault
        injection poisons them instead — the supervisor path is
        identical either way)."""
        self._poisoned = True

    def close(self) -> None:
        self._queue.put(_STOP)
        self._thread.join()

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            task, future = item
            if not future.set_running_or_notify_cancel():
                continue
            if self._poisoned:
                future.set_exception(
                    WorkerCrashed(
                        f"worker {self.index} crashed (injected)"
                    )
                )
                continue
            try:
                if callable(task):
                    future.set_result(task(self.session))
                else:
                    future.set_result(self.session.run(task))
            except Exception as exc:  # noqa: BLE001 - delivered via future
                future.set_exception(exc)


# -- process backends ---------------------------------------------------
# Fork mode: the program reaches the child through fork inheritance
# (initargs are not pickled under the fork start method); only batches and
# results cross the process boundary.  Spawn mode: the child receives the
# serialized artifact bytes and rebuilds its session from them — no
# compiled Python object crosses the boundary, so it works under every
# start method.
_PROC_SESSION: Optional[Session] = None
#: the attached shared-table arena, pinned for the process lifetime so
#: the segment mapping outlives every run (spawn workers only).
_PROC_ARENA = None


def _proc_initializer(
    program: Program, engine: str, engine_options=None
) -> None:
    global _PROC_SESSION
    _PROC_SESSION = Session(
        program, engine=engine, engine_options=engine_options
    )


def _spawn_initializer(
    artifact_bytes: bytes,
    engine: str,
    arena_handle=None,
    engine_options=None,
) -> None:
    global _PROC_SESSION, _PROC_ARENA
    artifact = ExecutableArtifact.from_bytes(artifact_bytes)
    if arena_handle is not None and artifact.fused is not None:
        # Attach the parent's shared index tables and swap our private
        # decoded copies for zero-copy views *before* the engine boots,
        # so kernel generation and workspaces bind the shared tables.
        from ..engine.arena import SharedTableArena

        _PROC_ARENA = SharedTableArena.attach(arena_handle)
        _PROC_ARENA.rebind(artifact.fused_program())
    _PROC_SESSION = artifact.session(
        engine=engine, engine_options=engine_options
    )


def _proc_run(inputs: Dict[str, np.ndarray]) -> SimulationResult:
    assert _PROC_SESSION is not None, "worker process not initialized"
    return _PROC_SESSION.run(inputs)


def _proc_die() -> None:  # pragma: no cover - runs in the child
    """Injected crash for a process worker with no live child yet."""
    os._exit(1)


class _ProcessWorkerBase:
    """Shared kill/close mechanics of the single-process executors."""

    index: int
    _executor: ProcessPoolExecutor

    def submit(
        self, inputs: Dict[str, np.ndarray]
    ) -> "Future[SimulationResult]":
        return self._executor.submit(_proc_run, inputs)

    def kill(self) -> None:
        """Kill the worker's child process (SIGKILL — the real thing,
        not an exception): in-flight batches fail with
        ``BrokenProcessPool`` and the supervisor takes over."""
        processes = dict(
            getattr(self._executor, "_processes", None) or {}
        )
        if processes:
            for process in processes.values():
                process.kill()
        else:
            # No child spawned yet (lazy start): force one to boot and
            # die so the executor still breaks deterministically.
            self._executor.submit(_proc_die)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


class _ProcessWorker(_ProcessWorkerBase):
    """One worker backed by a single-process executor (its own queue, so
    pool-level placement stays in charge of sharding)."""

    def __init__(
        self,
        index: int,
        program: Program,
        engine: str,
        engine_options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.index = index
        context = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=context,
            initializer=_proc_initializer,
            initargs=(program, engine, engine_options),
        )


class _SpawnWorker(_ProcessWorkerBase):
    """One spawn-started worker booting from shipped artifact bytes."""

    def __init__(
        self,
        index: int,
        artifact_bytes: bytes,
        engine: str,
        arena_handle=None,
        engine_options: Optional[Dict[str, object]] = None,
    ) -> None:
        self.index = index
        context = multiprocessing.get_context("spawn")
        self._executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=context,
            initializer=_spawn_initializer,
            initargs=(artifact_bytes, engine, arena_handle, engine_options),
        )


class WorkerPool:
    """N supervised engine workers over one program, with batch placement.

    Args:
        program: the compiled program every worker executes.
        num_workers: engine instances (threads or processes).
        engine: registered engine name each worker runs.
        engine_options: engine constructor keywords forwarded to every
            worker's session (see :func:`repro.engine.create_engine`);
            must be picklable for the process backends.
        placement: ``"round_robin"`` or ``"least_loaded"``.
        backend: ``"thread"`` (default), ``"fork"`` (process workers via
            fork inheritance, POSIX only), ``"spawn"`` (process workers
            booted from serialized artifact bytes, start-method
            independent), or ``"process"`` (fork where the platform
            supports it, otherwise the spawn path).
        artifact: optional pre-serialized executable for the spawn
            backend (one is packaged from ``program`` when omitted).
        share_tables: publish the fused program's constant index tables
            in a :class:`~repro.engine.arena.SharedTableArena` so spawn
            workers attach zero-copy views instead of each holding a
            private decoded copy.  Spawn-only: thread workers share the
            tables natively and fork workers inherit them copy-on-write,
            so the flag is a no-op there.
        max_batch_retries: times one batch is re-placed after a worker
            death before its failure reaches the caller (bounds the
            respawn loop when the *batch itself* crashes the worker).
        injector: optional :class:`~repro.serve.faults.FaultInjector`
            consulted once per dispatch (``pool.dispatch`` site) — a
            scheduled ``crash_worker`` event kills the targeted worker
            right after placement, exercising the supervisor
            deterministically.
    """

    def __init__(
        self,
        program: Program,
        *,
        num_workers: int = 2,
        engine: str = DEFAULT_ENGINE,
        engine_options: Optional[Dict[str, object]] = None,
        placement: str = "round_robin",
        backend: str = "thread",
        artifact: Optional[ExecutableArtifact] = None,
        share_tables: bool = False,
        max_batch_retries: int = 2,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_batch_retries < 0:
            raise ValueError("max_batch_retries must be >= 0")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; available: {PLACEMENTS}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; available: {BACKENDS}"
            )
        start_methods = multiprocessing.get_all_start_methods()
        if backend == "process":
            # Resolve the generic request instead of assuming fork: on
            # platforms without it (Windows; macOS defaults away from it)
            # the artifact-based spawn path serves transparently.
            backend = "fork" if "fork" in start_methods else "spawn"
        if backend == "fork" and "fork" not in start_methods:
            raise RuntimeError(
                "the fork worker backend needs the 'fork' start method, "
                f"which this platform does not provide ({start_methods}); "
                "use backend='spawn' (artifact-shipping) or "
                "backend='thread' instead"
            )
        self.program = program
        self.engine = engine
        self.engine_options = (
            dict(engine_options) if engine_options else None
        )
        self.placement = placement
        self.backend = backend
        self.artifact = artifact
        self.max_batch_retries = max_batch_retries
        self._injector = injector
        self._arena = None
        self._arena_handle = None
        if backend == "spawn":
            if artifact is None:
                self.artifact = artifact = ExecutableArtifact.from_program(
                    program, lower=engine_uses_trace(engine)
                )
            elif artifact.program is not program:
                raise ValueError(
                    "the supplied artifact packages a different program "
                    "than this pool executes"
                )
            self._artifact_bytes = artifact.to_bytes()
            if share_tables and artifact.fused is not None:
                from ..engine.arena import SharedTableArena

                self._arena = SharedTableArena.publish(artifact.fused)
                self._arena_handle = self._arena.handle()
        workers: List[
            Union[_ThreadWorker, _ProcessWorker, _SpawnWorker]
        ] = [self._make_worker(i) for i in range(num_workers)]
        self._workers = workers
        # Reentrant: a done-callback fires synchronously (in the
        # submitting thread, lock held) when the inner future already
        # resolved — the supervisor path must be able to re-enter.
        self._lock = threading.RLock()
        self._next = 0
        self._pending_words = [0] * num_workers
        self._dispatched = [0] * num_workers
        #: how many times each worker slot was restarted after a death.
        self._restarts = [0] * num_workers
        #: per-slot generation, bumped on every restart — the guard that
        #: makes concurrent death callbacks restart a worker only once.
        self._generations = [0] * num_workers
        self._replaced_batches = 0
        self._closed = False

    def _make_worker(self, index: int):
        """Build (or rebuild) the worker for slot ``index`` from the
        pool's pristine boot ingredients — the rehydration step of a
        supervised restart."""
        if self.backend == "spawn":
            return _SpawnWorker(
                index,
                self._artifact_bytes,
                self.engine,
                self._arena_handle,
                self.engine_options,
            )
        if self.backend == "fork":
            return _ProcessWorker(
                index, self.program, self.engine, self.engine_options
            )
        return _ThreadWorker(
            index, self.program, self.engine, self.engine_options
        )

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def submit(
        self, inputs: Dict[str, np.ndarray]
    ) -> "Future[SimulationResult]":
        """Place one batch on a worker; resolves to the batch's result.

        The returned future is the pool's own: if the placed worker dies
        mid-batch, the supervisor restarts it and re-places the batch
        (up to ``max_batch_retries`` times) before any failure reaches
        this future.
        """
        words = 0
        for value in inputs.values():
            words = int(np.asarray(value).size)
            break
        outer: "Future[SimulationResult]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self.placement == "round_robin":
                index = self._next
                self._next = (self._next + 1) % len(self._workers)
            else:  # least_loaded
                index = min(
                    range(len(self._workers)),
                    key=lambda i: (self._pending_words[i], i),
                )
            self._submit_locked(
                index, inputs, words, outer, self.max_batch_retries
            )
        if self._injector is not None:
            victim = self._injector.pool_crash_target()
            if victim is not None:
                self.kill_worker(victim % len(self._workers))
        return outer

    def _submit_locked(
        self,
        index: int,
        inputs: Dict[str, np.ndarray],
        words: int,
        outer: "Future[SimulationResult]",
        retries: int,
    ) -> None:
        """Place one batch on worker ``index`` (lock held) and chain its
        outcome — or its supervised re-placement — into ``outer``."""
        self._dispatched[index] += 1
        generation = self._generations[index]
        try:
            # Enqueue while still holding the lock: a close() racing in
            # after the closed-check would stop the worker and strand
            # this request's future unresolved forever.
            inner = self._workers[index].submit(inputs)
        except WORKER_DEATH_EXCEPTIONS as exc:
            # A dead process executor rejects new work synchronously:
            # same death, earlier signature.  Restart and retry inline.
            self._replace_worker_locked(index, generation)
            if retries <= 0:
                outer.set_exception(exc)
                return
            self._replaced_batches += 1
            self._submit_locked(index, inputs, words, outer, retries - 1)
            return
        self._pending_words[index] += words
        inner.add_done_callback(
            lambda done: self._on_batch_done(
                index, generation, inputs, words, outer, retries, done
            )
        )

    def _replace_worker_locked(self, index: int, generation: int) -> None:
        """Restart worker ``index`` if it still runs ``generation`` —
        concurrent casualties of one death rebuild the worker once."""
        if self._generations[index] != generation:
            return
        old_worker = self._workers[index]
        self._workers[index] = self._make_worker(index)
        self._generations[index] += 1
        self._restarts[index] += 1
        # Reap the broken worker on a thread of its own, never under the
        # lock: a dead executor's management thread may be delivering
        # other batches' done-callbacks, which take this lock, and
        # joining it here deadlocked the pool.
        threading.Thread(
            target=old_worker.close,
            name=f"repro-reap-{index}",
            daemon=True,
        ).start()

    def _on_batch_done(
        self,
        index: int,
        generation: int,
        inputs: Dict[str, np.ndarray],
        words: int,
        outer: "Future[SimulationResult]",
        retries: int,
        inner: "Future[SimulationResult]",
    ) -> None:
        with self._lock:
            self._pending_words[index] -= words
        exc = inner.exception()
        if exc is None:
            outer.set_result(inner.result())
            return
        if not isinstance(exc, WORKER_DEATH_EXCEPTIONS) or retries <= 0:
            outer.set_exception(exc)
            return
        # The worker died under this batch.  Restart it (once per
        # generation — concurrent casualties of the same death skip the
        # rebuild) and re-place the batch on the fresh instance:
        # inference is pure, so re-execution is bit-identical.
        with self._lock:
            if self._closed:
                outer.set_exception(exc)
                return
            self._replace_worker_locked(index, generation)
            self._replaced_batches += 1
            self._submit_locked(index, inputs, words, outer, retries - 1)

    def kill_worker(self, index: int) -> None:
        """Kill worker ``index`` (process: SIGKILL the child; thread:
        poison the next task).  The supervisor restarts it as soon as a
        batch observes the death — the operator-visible effect is a
        ``restarts`` tick in :meth:`stats`, not an outage."""
        with self._lock:
            worker = self._workers[index]
        worker.kill()

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(inputs).result()

    def submit_call(self, index: int, fn) -> "Future":
        """Run ``fn(session)`` on worker ``index`` (thread backend only).

        The callable executes on the worker's own thread, FIFO-ordered
        with that worker's batches — the hook sticky streaming sessions
        (:class:`repro.serve.stream.StreamSession`) use to drive per-state
        engine calls without cross-thread workspace sharing.  Process
        backends would have to pickle the callable and the engine state;
        they raise instead.  Stateful calls are NOT supervised: engine
        state is not re-derivable from the inputs, so a death surfaces
        to the caller instead of being silently re-run.
        """
        if self.backend != "thread":
            raise RuntimeError(
                "submit_call needs the thread worker backend; "
                f"this pool runs backend={self.backend!r}"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._dispatched[index] += 1
            # Enqueue under the lock for the same close()-race reason
            # as submit().
            return self._workers[index].submit_call(fn)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "backend": self.backend,
                "placement": self.placement,
                "num_workers": len(self._workers),
                "dispatched": list(self._dispatched),
                "pending_words": list(self._pending_words),
                "restarts": list(self._restarts),
                "total_restarts": sum(self._restarts),
                "replaced_batches": self._replaced_batches,
                "shared_table_bytes": (
                    self._arena.size if self._arena is not None else 0
                ),
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            worker.close()
        if self._arena is not None:
            # Workers have exited (their mappings are gone); the owner
            # now detaches and unlinks the segment.
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
