"""Measurement primitives shared by every workload: latency samples cut
into three segments, the in-memory span tracer, and host facts.

Nothing here imports ``repro`` — the layers are measured from outside.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

now = time.perf_counter

#: every window is cut into this many equal segments; a metric's value is
#: the median segment and (max - min) / median is printed as its spread.
SEGMENTS = 3


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (any order)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def spread(values: Sequence[float]) -> float:
    """(max - min) / median — how far the segments disagree."""
    mid = median(values)
    if not values or not mid:
        return 0.0
    return (max(values) - min(values)) / abs(mid)


class Lane:
    """What one load-generator thread recorded.

    ``samples`` holds ``(end_time, latency_seconds)`` of every operation
    that returned; ``kept`` the ``(program, inputs, result)`` triples the
    oracle re-checks after the window (all warm-up results and the first
    ``KEEP`` measured ones)."""

    KEEP = 64

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.kept: List[Tuple[str, object, object]] = []
        self.late: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def keep(self, slug: str, inputs, result, always: bool = False) -> None:
        if always or len(self.kept) < self.KEEP:
            self.kept.append((slug, inputs, result))

    def probed(self, probe) -> Dict[str, float]:
        """Count a layer probe's ``(metrics, attempted, wrong)`` on this
        lane; returns the metrics."""
        metrics, attempted, wrong = probe
        self.attempted += attempted
        self.failed += wrong
        return metrics

    def fail(self, exc: BaseException, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def summarize(
    lanes: Sequence[Lane], start: float, align: int = 1
) -> Dict[str, Dict[str, float]]:
    """Cut the lanes' samples into :data:`SEGMENTS` by completion time.

    A segment runs from the last completion of the one before it to its
    own last completion, so a closed loop of coarse operations is not
    quantised by where a wall-clock boundary happens to fall; ``align``
    moves each cut to a multiple of that many samples so every segment
    of a round-robin holds whole rounds (the same program mix).
    Returns ``{metric: {"value", "spread", "n"}}`` for ``ops_per_s``,
    ``lat_p50_ms`` and ``lat_p90_ms``."""
    samples = sorted(s for lane in lanes for s in lane.samples)
    if not samples:
        raise RuntimeError("the window completed no operation")
    total = len(samples)
    span = samples[-1][0] - start
    cuts = [0]
    for index in range(1, SEGMENTS):
        boundary = start + span * index / SEGMENTS
        cut = sum(1 for end, _ in samples if end <= boundary)
        cut = min(total, -(-cut // align) * align)
        cuts.append(max(cut, cuts[-1]))
    cuts.append(total)
    per: Dict[str, List[float]] = {
        "ops_per_s": [], "lat_p50_ms": [], "lat_p90_ms": [],
    }
    begin = start
    for low, high in zip(cuts, cuts[1:]):
        if high <= low:
            continue
        chunk = samples[low:high]
        end = chunk[-1][0]
        lat = [latency * 1e3 for _, latency in chunk]
        per["ops_per_s"].append(len(chunk) / (end - begin))
        per["lat_p50_ms"].append(percentile(lat, 50))
        per["lat_p90_ms"].append(percentile(lat, 90))
        begin = end
    return {
        name: {"value": median(values), "spread": spread(values), "n": total}
        for name, values in per.items()
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("tracer", "name", "op", "index", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, op: int) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else -1
        self.index = next(self.tracer._ids)
        stack.append(self.index)
        self.start = now()
        return self

    def __exit__(self, *exc) -> None:
        self.end = now()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.index, self.name, self.start, self.end, self.parent, self.op)
        )


class Tracer:
    """In-memory span recorder: ``with tracer.span("layer.call", op):``.

    A span is ``(id, name, start, end, parent id, op id)``; the parent is
    the span open on the same thread when this one started, and spans of
    one operation share ``op``.  Nothing is written until :meth:`dump`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, op: int = -1) -> _Span:
        return _Span(self, name, op)

    def add(self, name: str, start: float, end: float, parent: int,
            op: int = -1) -> int:
        """Record a span measured elsewhere (e.g. the node-reported
        admission/service times of one request)."""
        index = next(self._ids)
        self.spans.append((index, name, start, end, parent, op))
        return index

    def durations_ms(self, name: str) -> List[float]:
        return [
            (end - start) * 1e3
            for _, span_name, start, end, _, _ in self.spans
            if span_name == name
        ]

    def layer_table(self) -> List[Dict[str, object]]:
        """Per span name: count, total time and self time (total minus
        the time covered by direct child spans)."""
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        rows: Dict[str, List[float]] = {}
        for index, name, start, end, _, _ in self.spans:
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time.get(index, 0.0)
        return [
            {"span": name, "count": int(count), "total_ms": total * 1e3,
             "self_ms": self_time * 1e3}
            for name, (count, total, self_time) in sorted(rows.items())
        ]

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        document = dict(extra)
        document["layers"] = self.layer_table()
        document["span_fields"] = ["id", "name", "start", "end", "parent", "op"]
        document["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(document, handle)


class NullTracer:
    """The untraced run: ``span()`` is one shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, op: int = -1):
        return self._null


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> FrozenSet[int]:
    """Pin this thread, and every thread it starts from here on, to the
    highest-numbered CPU it may run on; returns the CPUs it could run on
    before (empty where the platform has no affinity call).

    The serving stack is bound by the interpreter lock, and where the
    kernel places its threads decides what a lock hand-off costs: left
    free on this 2-vCPU host the same commit ran ``stream_sparse`` at
    2 800 or at 4 000 steps/s for minutes on end, depending on what ran
    before it.  On one CPU it runs at 4 000-4 100 every time."""
    if not hasattr(os, "sched_setaffinity"):
        return frozenset()
    allowed = frozenset(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


@contextlib.contextmanager
def all_cpus(allowed: FrozenSet[int]):
    """Let the calling thread, and the threads it starts inside the
    block, run on all ``allowed`` CPUs again: for the probes that measure
    what a second core buys (threaded native backend, pipeline executor)."""
    if not allowed:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, allowed)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def host_fingerprint() -> Dict[str, object]:
    import numpy

    import repro
    from repro.engine import native_capabilities

    caps = native_capabilities()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "native": {
            key: caps[key]
            for key in ("auto_backend", "threaded", "numba", "cupy")
        },
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def memcpy_gb_per_s(megabytes: int = 64, repeats: int = 5) -> float:
    """Measured ``numpy`` copy rate: bytes copied per second (each byte
    copied is one byte read and one written)."""
    import numpy

    source = numpy.ones(megabytes * (1 << 20) // 8, dtype=numpy.uint64)
    target = numpy.empty_like(source)
    numpy.copyto(target, source)
    seconds = median_seconds(lambda src: numpy.copyto(target, src), source, repeats)
    return source.nbytes / seconds / 1e9


def run_threads(targets) -> None:
    """Run each zero-argument callable on its own thread and wait."""
    threads = [
        threading.Thread(target=target, name=f"bench-lane-{index}")
        for index, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def timed_ms(fn, *args, **kwargs) -> Tuple[object, float]:
    start = now()
    value = fn(*args, **kwargs)
    return value, (now() - start) * 1e3


def median_seconds(fn, arg, repeats: int) -> float:
    """Median wall time of ``fn(arg)`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = now()
        fn(arg)
        times.append(now() - start)
    return median(times)


def finite(value: Optional[float]) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)
