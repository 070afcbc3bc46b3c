"""The one process-wide registry of the lowering chain's derived tables.

A compiled :class:`~repro.core.codegen.Program` is lowered once into a
:class:`~repro.core.trace.TraceProgram`, renamed once into a
:class:`~repro.core.liveness.FusedProgram` and analysed once into
:class:`~repro.core.fanout.FanoutTables`.  Each table is a pure function
of the one before it and is immutable at run time, so every engine over
one source object — a serving pool's workers, a stream server's
sessions — shares one table per stage, and an artifact's embedded tables
are registered here at decode (:func:`adopt`) so no boot re-derives them.

An entry holds *weak* references to its source and to its table.  Every
table refers back to its source (``trace.program``, ``fused.trace``,
``tables.fused``), so a strong reference in either direction would form
a cycle that only the cyclic collector frees; with weak ones the chain
dies by reference counting the moment its last consumer lets go.  Dead
entries are swept whenever an entry is written — never from a weakref
callback, which could fire at any reference drop and race a live
replacement out.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, Optional, Tuple, TypeVar

__all__ = [
    "FANOUT",
    "FUSION",
    "LOWERING",
    "STAGES",
    "adopt",
    "clear",
    "clear_fanout_cache",
    "clear_fusion_cache",
    "clear_lowering_cache",
    "derive",
    "stats",
]

#: the stages of the chain: Program -> lowering -> fusion -> fanout.
LOWERING = "lowering"
FUSION = "fusion"
FANOUT = "fanout"
STAGES = (LOWERING, FUSION, FANOUT)

T = TypeVar("T")

_LOCK = threading.Lock()
#: (stage, id(source)) -> (weak source, weak table)
_ENTRIES: Dict[Tuple[str, int], Tuple[weakref.ref, weakref.ref]] = {}
_HITS = dict.fromkeys(STAGES, 0)
_MISSES = dict.fromkeys(STAGES, 0)


def _live(key: Tuple[str, int], source) -> Optional[object]:
    """The live table of ``key`` if it was derived from ``source`` (the
    identity check guards against a recycled id)."""
    entry = _ENTRIES.get(key)
    if entry is None or entry[0]() is not source:
        return None
    return entry[1]()


def _put(key: Tuple[str, int], source, table: T) -> T:
    """Register ``table`` unless a live one holds the key (that one
    wins, so every consumer keeps sharing one table); call locked."""
    live = _live(key, source)
    if live is not None:
        return live
    dead = [
        k for k, (s, t) in _ENTRIES.items() if s() is None or t() is None
    ]
    for k in dead:
        del _ENTRIES[k]
    _ENTRIES[key] = (weakref.ref(source), weakref.ref(table))
    return table


def derive(stage: str, source, build: Callable[..., T]) -> T:
    """The ``stage`` table of ``source``: the registered one, else
    ``build(source)`` registered.  Threads racing on one miss may each
    build, but all of them return the table registered first."""
    key = (stage, id(source))
    with _LOCK:
        table = _live(key, source)
        if table is not None:
            _HITS[stage] += 1
            return table
    table = build(source)
    with _LOCK:
        _MISSES[stage] += 1
        return _put(key, source, table)


def adopt(stage: str, source, table: T) -> T:
    """Register an externally built ``table`` (e.g. decoded from an
    artifact) as the ``stage`` table of ``source``; returns the canonical
    one — a live registered table of the same source wins."""
    with _LOCK:
        return _put((stage, id(source)), source, table)


def stats() -> Dict[str, Dict[str, int]]:
    """Per stage: hits and misses since its last clear, and the entries
    held (dead ones count until the next write sweeps them)."""
    with _LOCK:
        held = [stage for stage, _ in _ENTRIES]
        return {
            stage: {
                "hits": _HITS[stage],
                "misses": _MISSES[stage],
                "entries": held.count(stage),
            }
            for stage in STAGES
        }


def clear(stage: str) -> None:
    """Forget every table of ``stage`` and reset its counters."""
    with _LOCK:
        for key in [k for k in _ENTRIES if k[0] == stage]:
            del _ENTRIES[key]
        _HITS[stage] = _MISSES[stage] = 0


def clear_lowering_cache() -> None:
    """Forget every registered lowering (cold-compile measurements)."""
    clear(LOWERING)


def clear_fusion_cache() -> None:
    """Forget every registered fusion."""
    clear(FUSION)


def clear_fanout_cache() -> None:
    """Forget every registered set of fanout tables."""
    clear(FANOUT)
