"""Dynamic micro-batching of individual inference requests.

A :class:`BatchScheduler` accepts single requests (:meth:`~BatchScheduler.
submit` returns a :class:`concurrent.futures.Future`), coalesces them into
micro-batches under a *max-batch-size / max-wait* policy, and dispatches
each batch as ONE engine run.  Because every element of a stimulus array is
an independent packed 64-sample word, coalescing is exact: requests are
flattened, concatenated along the word axis, executed together, and the
output words are split back per request — bit-identical to running each
request alone, while paying the engine's per-run overhead once per batch
instead of once per request.

Policy invariants (property-tested in ``tests/test_serve.py``):

* a batch never exceeds ``max_batch_size`` requests,
* the policy is **work-conserving**: the scheduler counts the batches it
  has dispatched that have not completed (``in_flight``) against the
  number the dispatch target can run at once (``slots``) and releases
  whatever is queued the moment ``in_flight < slots`` — a request waits
  for batch-mates only while every worker is busy,
* a request never waits longer than ``max_wait_ms`` for its batch to fill —
  a partial batch is dispatched at the deadline, or as soon as a worker
  is free (a batch completion wakes the scheduler),
* per-request results (outputs AND statistics) are bit-identical to a
  direct :meth:`~repro.engine.session.Session.run` of that request,
* a request submitted with a **deadline** is shed with a typed
  :class:`DeadlineExceeded` — never batched with live requests, never
  silently hung — as soon as the scheduler observes the expiry (at
  most one scheduler wake-up past the deadline).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from ..lpu.simulator import SimulationResult

__all__ = [
    "BatchScheduler",
    "DeadlineExceeded",
    "RELEASE_TRIGGERS",
    "SchedulerStats",
    "WAIT_BUCKETS_MS",
]


class DeadlineExceeded(RuntimeError):
    """A request's deadline passed before it could be dispatched.

    The typed shed signal: callers (and the fabric front-end, which
    maps it to HTTP 504) can distinguish "the system chose not to run
    this in time" from an execution failure.  Carries the partial-wait
    evidence: how long the request sat in the queue against what
    budget.
    """

    def __init__(self, deadline_ms: float, waited_ms: float) -> None:
        super().__init__(
            f"request deadline of {deadline_ms:g}ms exceeded after "
            f"waiting {waited_ms:.3f}ms in the scheduler queue"
        )
        self.deadline_ms = deadline_ms
        self.waited_ms = waited_ms

#: A dispatch target: takes coalesced inputs, returns the batch result
#: either synchronously or as a Future (e.g. from a WorkerPool).
DispatchFn = Callable[
    [Dict[str, np.ndarray]], Union[SimulationResult, "Future[SimulationResult]"]
]


#: upper bucket bounds (milliseconds) of the per-request wait histogram;
#: the final ``inf`` bucket catches deadline-busting stragglers.
WAIT_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    float("inf"),
)

#: why a batch left the queue, in the order the policy tests them: it
#: was ``full``, a dispatch slot was free (``slot_free``), its head had
#: waited out ``max_wait_ms`` with every slot busy (``deadline``), or
#: the scheduler was draining (``closing``).
RELEASE_TRIGGERS = ("full", "slot_free", "deadline", "closing")


@dataclass
class SchedulerStats:
    """Counters describing how requests were coalesced and how long each
    request waited in the queue before its batch dispatched."""

    requests: int = 0
    batches: int = 0
    max_batch: int = 0
    #: requests shed with :class:`DeadlineExceeded` before dispatch.
    expired: int = 0
    #: batches dispatched and not yet completed (the occupied slots).
    in_flight: int = 0
    #: dispatched batches by what released them from the queue.
    released: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(RELEASE_TRIGGERS, 0)
    )
    total_wait_s: float = 0.0
    max_wait_s: float = 0.0
    #: (requests, words, head-of-line wait seconds) of recent batches.
    recent: Deque[Tuple[int, int, float]] = field(
        default_factory=lambda: deque(maxlen=1024)
    )
    #: per-request wait histogram over :data:`WAIT_BUCKETS_MS` (exact,
    #: never evicted — unlike the bounded percentile window below).
    wait_buckets: List[int] = field(
        default_factory=lambda: [0] * len(WAIT_BUCKETS_MS)
    )
    wait_count: int = 0
    wait_total_ms: float = 0.0
    #: recent per-request waits (ms) backing the reported percentiles.
    recent_waits_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=4096)
    )

    @property
    def mean_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def mean_wait_ms(self) -> float:
        return self.wait_total_ms / self.wait_count if self.wait_count \
            else 0.0

    def record_waits(self, waits_s: List[float]) -> None:
        """Fold one dispatched batch's per-request queue waits in."""
        for wait_s in waits_s:
            ms = wait_s * 1e3
            self.wait_count += 1
            self.wait_total_ms += ms
            self.recent_waits_ms.append(ms)
            for i, bound in enumerate(WAIT_BUCKETS_MS):
                if ms <= bound:
                    self.wait_buckets[i] += 1
                    break

    def wait_percentile_ms(self, pct: float) -> float:
        """A percentile of the recent per-request wait window."""
        if not self.recent_waits_ms:
            return 0.0
        return float(np.percentile(list(self.recent_waits_ms), pct))

    def as_dict(self) -> Dict[str, object]:
        histogram = {
            ("inf" if bound == float("inf") else f"{bound:g}"): count
            for bound, count in zip(WAIT_BUCKETS_MS, self.wait_buckets)
        }
        return {
            "requests": self.requests,
            "expired": self.expired,
            "batches": self.batches,
            "in_flight": self.in_flight,
            "released": dict(self.released),
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_s * 1e3,
            "mean_wait_ms": self.mean_wait_ms,
            "wait_p50_ms": self.wait_percentile_ms(50.0),
            "wait_p99_ms": self.wait_percentile_ms(99.0),
            "wait_histogram_ms": histogram,
        }


_WORD = np.uint64


@dataclass
class _Request:
    """One submitted inference request, validated for coalescing."""

    inputs: Dict[str, np.ndarray]  # PI name -> uint64 words (any shape)
    shape: Tuple[int, ...]  # original batch shape, restored on output
    words: int
    future: "Future[SimulationResult]"
    enqueued: float
    #: absolute monotonic deadline; None = wait forever (the default).
    deadline: Optional[float] = None
    deadline_ms: Optional[float] = None


class BatchScheduler:
    """Coalesce inference requests into dispatched micro-batches.

    Args:
        dispatch: callable executing one coalesced batch — typically
            ``session.run`` or :meth:`WorkerPool.submit
            <repro.serve.pool.WorkerPool.submit>`.  May return the
            :class:`SimulationResult` directly or a Future of it.
        max_batch_size: maximum requests coalesced into one dispatch.
        max_wait_ms: maximum time the head-of-line request waits for its
            batch to fill before a partial batch is dispatched.  An
            upper bound, not a fixed delay: the batch goes as soon as a
            dispatch slot is free.
        pi_names: when given, every request is validated against this
            primary-input set at submit time (fail fast, not at dispatch).
        slots: batches the dispatch target can run at once (a worker
            pool's ``num_workers``; 1 for a synchronous callable, which
            runs on the scheduler thread itself).  Requests wait for
            batch-mates only while this many dispatched batches are
            still in flight.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        *,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        pi_names: Optional[FrozenSet[str]] = None,
        slots: int = 1,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self._dispatch_fn = dispatch
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1e3
        self.slots = slots
        self.pi_names = frozenset(pi_names) if pi_names is not None else None
        self.stats = SchedulerStats()
        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-batch-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        inputs: Dict[str, np.ndarray],
        *,
        deadline_ms: Optional[float] = None,
    ) -> "Future[SimulationResult]":
        """Enqueue one request; the Future resolves to its own result.

        A ``deadline_ms`` budget starts now: if the request is still
        queued when it runs out, it is shed with
        :class:`DeadlineExceeded` instead of being dispatched —
        expired requests never ride in a batch with live ones.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 when given")
        validated: Dict[str, np.ndarray] = {}
        shape: Optional[Tuple[int, ...]] = None
        if self.pi_names is not None:
            missing = self.pi_names - inputs.keys()
            if missing:
                raise KeyError(
                    f"missing value for primary inputs {sorted(missing)}"
                )
            extra = inputs.keys() - self.pi_names
            if extra:
                # An unknown key would poison every request coalesced
                # into this one's batch: fail fast, at the submitter.
                raise KeyError(
                    f"unknown primary inputs {sorted(extra)}"
                )
        for name, value in inputs.items():
            # Hot path: stimuli are usually uint64 ndarrays already — the
            # flattening itself happens inside the coalescing concatenate
            # (C-level), never per request in Python.
            if type(value) is not np.ndarray or value.dtype != _WORD:
                value = np.asarray(value, dtype=_WORD)
            if shape is None:
                shape = value.shape
            elif value.shape != shape:
                raise ValueError("all PI arrays must share one shape")
            validated[name] = value
        if shape is None:
            raise ValueError("a request needs at least one input array")
        words = 1
        for dim in shape:
            words *= dim
        enqueued = time.monotonic()
        request = _Request(
            inputs=validated,
            shape=shape,
            words=words,
            future=Future(),
            enqueued=enqueued,
            deadline=(
                enqueued + deadline_ms / 1e3
                if deadline_ms is not None
                else None
            ),
            deadline_ms=deadline_ms,
        )
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._queue.append(request)
            self._cond.notify_all()
        return request.future

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting requests; by default drain what is queued."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                pending = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        if not drain:
            for request in pending:
                request.future.cancel()
        self._thread.join()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            batch, trigger = self._collect()
            if not batch:
                return  # closed and drained
            self._dispatch(batch, trigger)

    def _expired(self, request: _Request, now: float) -> bool:
        return request.deadline is not None and now >= request.deadline

    def _shed(self, request: _Request, now: float) -> None:
        """Fail one expired request with the typed shed signal."""
        self.stats.expired += 1
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(
                DeadlineExceeded(
                    request.deadline_ms or 0.0,
                    (now - request.enqueued) * 1e3,
                )
            )

    def _shed_members(self, batch: List[_Request], now: float) -> None:
        """Remove (and fail) batch members whose deadline passed while
        the batch was filling — they never dispatch with the live ones."""
        expired = [r for r in batch if self._expired(r, now)]
        if expired:
            batch[:] = [r for r in batch if not self._expired(r, now)]
            for request in expired:
                self._shed(request, now)

    def _release_trigger(
        self, now: float, fill_deadline: float
    ) -> Optional[str]:
        """Why a non-full batch leaves the queue now (``None``: keep
        filling).  Lock held."""
        if self.stats.in_flight < self.slots:
            return "slot_free"
        if now >= fill_deadline:
            return "deadline"
        if self._closed:
            return "closing"
        return None

    def _release_slot(self) -> None:
        """A dispatched batch is over (result, failure, or a dispatch
        that raised): free its slot and wake the collector, which may
        be holding a partial batch for exactly this."""
        with self._cond:
            self.stats.in_flight -= 1
            self._cond.notify_all()

    def _collect(self) -> Tuple[List[_Request], str]:
        """Block until a batch is ready under the work-conserving
        size/deadline policy — returned with what released it, one of
        :data:`RELEASE_TRIGGERS` — shedding expired requests the moment
        the scheduler observes them (never more than one wake-up past
        their deadline)."""
        with self._cond:
            while True:
                while not self._queue:
                    if self._closed:
                        return [], "closing"
                    self._cond.wait()
                now = time.monotonic()
                batch: List[_Request] = []
                while self._queue and not batch:
                    head = self._queue.popleft()
                    if self._expired(head, now):
                        self._shed(head, now)
                    else:
                        batch.append(head)
                if not batch:
                    continue  # the whole head run was expired; re-wait
                fill_deadline = batch[0].enqueued + self.max_wait_s
                while len(batch) < self.max_batch_size:
                    now = time.monotonic()
                    if self._queue:
                        request = self._queue.popleft()
                        if self._expired(request, now):
                            self._shed(request, now)
                        else:
                            batch.append(request)
                        continue
                    self._shed_members(batch, now)
                    if not batch:
                        break
                    trigger = self._release_trigger(now, fill_deadline)
                    if trigger is not None:
                        break
                    # Every slot is busy: keep filling.  Wake at
                    # whichever comes first: a submit or a batch
                    # completion (both notify), the batch-fill deadline,
                    # or the earliest member request deadline (so an
                    # expiring member is shed on time instead of
                    # waiting out the fill).
                    wake = fill_deadline
                    for request in batch:
                        if (
                            request.deadline is not None
                            and request.deadline < wake
                        ):
                            wake = request.deadline
                    remaining = wake - now
                    if remaining > 0:
                        self._cond.wait(timeout=remaining)
                else:
                    trigger = "full"
                if batch:
                    self._shed_members(batch, time.monotonic())
                if batch:
                    return batch, trigger
                # every member expired while filling; collect afresh

    def _dispatch(self, batch: List[_Request], trigger: str) -> None:
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        # Last line of defense for the shed-before-dispatch invariant:
        # anything that expired between collection and here fails typed
        # instead of riding with the live requests.
        now = time.monotonic()
        expired = [r for r in live if self._expired(r, now)]
        if expired:
            live = [r for r in live if not self._expired(r, now)]
            for request in expired:
                self.stats.expired += 1
                request.future.set_exception(
                    DeadlineExceeded(
                        request.deadline_ms or 0.0,
                        (now - request.enqueued) * 1e3,
                    )
                )
        if not live:
            return
        # Without a pi_names contract, requests with a different input-key
        # set than the batch head cannot be coalesced with it; fail those
        # requests alone instead of poisoning the whole batch.
        head_names = live[0].inputs.keys()
        mismatched = [r for r in live if r.inputs.keys() != head_names]
        if mismatched:
            live = [r for r in live if r.inputs.keys() == head_names]
            for request in mismatched:
                request.future.set_exception(
                    KeyError(
                        "request input names do not match its batch; "
                        "construct the scheduler with pi_names to "
                        "validate at submit time"
                    )
                )
        now = time.monotonic()
        waited = now - live[0].enqueued
        words = sum(r.words for r in live)
        self.stats.requests += len(live)
        self.stats.batches += 1
        self.stats.max_batch = max(self.stats.max_batch, len(live))
        self.stats.total_wait_s += waited
        self.stats.max_wait_s = max(self.stats.max_wait_s, waited)
        self.stats.recent.append((len(live), words, waited))
        self.stats.record_waits([now - r.enqueued for r in live])
        self.stats.released[trigger] += 1
        with self._cond:
            self.stats.in_flight += 1
        try:
            if len(live) == 1:
                single = live[0]
                coalesced = {
                    name: value.reshape(-1)
                    for name, value in single.inputs.items()
                }
            else:
                # axis=None concatenates the *flattened* arrays — the
                # per-request raveling happens in C, not per PI in Python.
                coalesced = {
                    name: np.concatenate(
                        [r.inputs[name] for r in live], axis=None
                    )
                    for name in live[0].inputs
                }
            outcome = self._dispatch_fn(coalesced)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            self._release_slot()
            for request in live:
                request.future.set_exception(exc)
            return
        if isinstance(outcome, Future):
            # A pool's future resolves once however many times the batch
            # was re-placed after worker deaths, so the slot is too.
            outcome.add_done_callback(
                lambda done: self._scatter_future(live, done)
            )
        else:
            self._release_slot()
            self._scatter(live, outcome)

    def _scatter_future(
        self, live: List[_Request], done: "Future[SimulationResult]"
    ) -> None:
        # Slot first: the worker is free the moment its batch resolves,
        # before the per-request results are split out.
        self._release_slot()
        exc = done.exception()
        if exc is not None:
            for request in live:
                request.future.set_exception(exc)
            return
        self._scatter(live, done.result())

    def _scatter(
        self, live: List[_Request], result: SimulationResult
    ) -> None:
        """Split one batch result back into per-request results.

        Statistics are per-run properties of the program alone, so each
        request reports the same statistics a direct run would.
        """
        offset = 0
        for request in live:
            # Slices are views into the batch's output arrays: zero-copy,
            # at the (bounded) cost of keeping the batch outputs alive
            # while any of its requests' results are.
            outputs = {
                name: words[offset:offset + request.words].reshape(
                    request.shape
                )
                for name, words in result.outputs.items()
            }
            offset += request.words
            request.future.set_result(
                SimulationResult(
                    outputs=outputs,
                    macro_cycles=result.macro_cycles,
                    clock_cycles=result.clock_cycles,
                    compute_instructions_executed=(
                        result.compute_instructions_executed
                    ),
                    switch_routes=result.switch_routes,
                    peak_buffer_words=result.peak_buffer_words,
                    buffer_writes=result.buffer_writes,
                )
            )
