"""Trace lowering: flatten a compiled :class:`Program` into vectorized form.

The cycle-accurate simulator interprets every LPE instruction per
macro-cycle through Python-level dispatch (queues, switch routing tables,
snapshot registers, buffer lookups).  All of that machinery is *static* for
a given program: which slot of the value space every operand port reads is
fully determined at compile time.  This module performs that resolution
once — a symbolic replay of the simulator's dataflow — and emits a
:class:`TraceProgram`: flat numpy opcode/operand-index tables grouped by
macro-cycle, ready for batched execution with vectorized gathers
(:class:`repro.engine.trace.TraceEngine`).

Value-space layout (one row per word in the execution value table):

* slot 0 — constant 0, slot 1 — constant 1,
* slots ``2 .. 2 + |PI|`` — the primary inputs, in ``graph.inputs`` order,
* one slot per valid compute instruction, in macro-cycle order (slots of one
  macro-cycle are contiguous and sorted by opcode, so execution applies each
  Boolean op to one contiguous segment).

Instructions within a macro-cycle only ever consume values produced in
*earlier* macro-cycles (switch data from the previous LPV's last cycle,
snapshot registers latched earlier, buffer words written earlier), so every
macro-cycle is one data-parallel level.

The lowering also precomputes the run statistics the simulator reports
(instruction counts, switch routes, buffer traffic): they depend only on
the program, never on the stimulus, so a :class:`TraceProgram` carries them
as constants.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist import cells
from ..netlist.graph import DeferredFields
from .codegen import PORT_A, PORT_B, Program
from .isa import (
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
)

#: Slots of the two constant words in every value table.
CONST0_SLOT = 0
CONST1_SLOT = 1
_NUM_CONST_SLOTS = 2


class TraceLoweringError(RuntimeError):
    """The program references a value that is never validly produced."""


@dataclass(frozen=True)
class OpSegment:
    """A contiguous run of instructions sharing one opcode within a level."""

    op: str
    start: int  # offsets into the level's local instruction range
    end: int


@dataclass(frozen=True)
class TraceLevel:
    """All compute instructions of one macro-cycle."""

    cycle: int
    out_start: int  # first value-table slot this level produces
    a_index: np.ndarray  # value-table slots feeding port a (intp, len k)
    b_index: np.ndarray  # value-table slots feeding port b (intp, len k)
    segments: Tuple[OpSegment, ...]

    @property
    def num_instructions(self) -> int:
        return len(self.a_index)


@dataclass
class TraceProgram:
    """A compiled program lowered to flat vectorizable tables.

    :attr:`levels` and :attr:`slot_nodes` are read by the trace engine,
    the liveness renaming and inspection, never by an engine that runs
    embedded fused tables, so a lowering loaded from an artifact
    (:class:`DeferredTraceProgram`) decodes them on their first read.
    """

    program: Program
    num_slots: int
    pi_slots: Dict[str, int]  # PI name -> value-table slot
    levels: List[TraceLevel]
    output_slots: Dict[str, int]  # PO name -> value-table slot
    # Statistics identical to what the cycle-accurate simulator reports.
    macro_cycles: int
    clock_cycles: int
    compute_instructions: int
    switch_routes: int
    peak_buffer_words: int
    buffer_writes: int
    # node id of each compute slot, for debugging/inspection (trace only).
    slot_nodes: Dict[int, int] = field(default_factory=dict)

    @property
    def num_levels(self) -> int:
        return len(self.levels)


class DeferredTraceProgram(DeferredFields, TraceProgram):
    """A :class:`TraceProgram` that has not read its levels yet."""


# ----------------------------------------------------------------------
# Lowering cache: a TraceProgram depends on the Program alone, and its
# tables are immutable at run time (the index arrays are marked read-only),
# so every engine lowering the same Program object can share one artifact.
# The cache holds *weak* references — it never extends the lifetime of a
# lowering beyond its last consumer — keyed by the program's id with an
# identity check guarding against id reuse.  This is what makes a
# multi-worker serving pool over one compiled program pay for lowering
# once instead of once per worker.
_LOWER_CACHE: Dict[int, "weakref.ref[TraceProgram]"] = {}
_LOWER_LOCK = threading.Lock()
_LOWER_HITS = 0
_LOWER_MISSES = 0


def lowering_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the process-wide lowering cache."""
    with _LOWER_LOCK:
        return {
            "hits": _LOWER_HITS,
            "misses": _LOWER_MISSES,
            "live_entries": len(_LOWER_CACHE),
        }


def clear_lowering_cache() -> None:
    """Drop all cached lowerings and reset the counters (for tests)."""
    global _LOWER_HITS, _LOWER_MISSES
    with _LOWER_LOCK:
        _LOWER_CACHE.clear()
        _LOWER_HITS = 0
        _LOWER_MISSES = 0


def lower_program(program: Program, *, cache: bool = True) -> TraceProgram:
    """Lower ``program`` to a :class:`TraceProgram`, memoized per program.

    With ``cache=True`` (the default) repeated lowerings of the *same*
    :class:`Program` object return one shared :class:`TraceProgram`; pass
    ``cache=False`` to force a fresh lowering.
    """
    global _LOWER_HITS, _LOWER_MISSES
    if not cache:
        return _lower_program_uncached(program)
    key = id(program)
    with _LOWER_LOCK:
        ref = _LOWER_CACHE.get(key)
        cached = ref() if ref is not None else None
        if cached is not None and cached.program is program:
            _LOWER_HITS += 1
            return cached
    trace = _lower_program_uncached(program)
    with _LOWER_LOCK:
        _LOWER_MISSES += 1
        # Dead entries are swept here, on the (rare, compile-scale) miss
        # path — never from a weakref callback, which could fire at any
        # refcount drop and race live replacements out of the cache.
        dead = [k for k, r in _LOWER_CACHE.items() if r() is None]
        for k in dead:
            del _LOWER_CACHE[k]
        ref = _LOWER_CACHE.get(key)
        racing = ref() if ref is not None else None
        if racing is not None and racing.program is program:
            return racing  # another thread lowered first: share theirs
        _LOWER_CACHE[key] = weakref.ref(trace)
    return trace


def adopt_lowering(trace: TraceProgram) -> TraceProgram:
    """Register an externally-built lowering (e.g. deserialized from an
    :mod:`repro.artifact` container) in the process-wide cache.

    Returns the canonical lowering for ``trace.program``: if a live
    lowering of the *same* program object is already cached it wins, so
    every consumer keeps sharing one set of tables.  After adoption,
    :func:`lower_program` on that program object is a cache hit — loading
    an artifact therefore never pays the symbolic replay.
    """
    with _LOWER_LOCK:
        key = id(trace.program)
        ref = _LOWER_CACHE.get(key)
        cached = ref() if ref is not None else None
        if cached is not None and cached.program is trace.program:
            return cached
        # Sweep here too: artifact-only processes adopt without ever
        # taking the lower_program miss path, and churning workloads
        # would otherwise accumulate dead entries forever.
        dead = [k for k, r in _LOWER_CACHE.items() if r() is None]
        for k in dead:
            del _LOWER_CACHE[k]
        _LOWER_CACHE[key] = weakref.ref(trace)
        return trace


def _lower_program_uncached(program: Program) -> TraceProgram:
    """Symbolically replay ``program`` once, producing a :class:`TraceProgram`.

    Raises :class:`TraceLoweringError` where the simulator would raise
    :class:`~repro.lpu.lpe.InvalidDataError` at run time (an operand port
    consuming or latching a value that was never produced).
    """
    cfg = program.config
    graph = program.graph
    schedule = program.schedule
    n, m = cfg.n, cfg.m

    pi_slots: Dict[str, int] = {}
    node_slot: Dict[int, int] = {}  # PI/const node id -> slot
    next_slot = _NUM_CONST_SLOTS
    for nid in graph.inputs:
        pi_slots[graph.input_name(nid)] = next_slot
        node_slot[nid] = next_slot
        next_slot += 1
    for nid in graph.topological_order():
        op = graph.op_of(nid)
        if op == cells.CONST0:
            node_slot[nid] = CONST0_SLOT
        elif op == cells.CONST1:
            node_slot[nid] = CONST1_SLOT

    # Mutable machine state, tracked symbolically (slots, not words).
    prev_out: List[List[Optional[int]]] = [[None] * m for _ in range(n)]
    snapshots: Dict[Tuple[int, int, str], int] = {}
    buffer_slot: Dict[Tuple[int, int], int] = {}

    levels: List[TraceLevel] = []
    slot_nodes: Dict[int, int] = {}
    switch_routes = 0
    compute_instructions = 0
    total_buffer_writes = 0

    for cycle in range(schedule.makespan):
        input_entry = program.input_reads.get(cycle, {})
        new_out: List[List[Optional[int]]] = [[None] * m for _ in range(n)]
        # (op, a_slot, b_slot, lpv, col, node) for this macro-cycle.
        pending: List[Tuple[str, int, int, int, int, Optional[int]]] = []

        for k in range(n):
            instructions = program.instruction_at(cycle, k)
            circ_entry = program.circulation_reads.get((cycle, k), {})

            # Switch statistics mirror LPUSimulator._route_into: every
            # switch-sourced port spec of a fetched instruction is one
            # route request (LPV 0 has no feeding switch).
            if k > 0:
                for instr in instructions:
                    for spec in (instr.a, instr.b):
                        if spec.source == SRC_SWITCH:
                            switch_routes += 1

            for col, instr in enumerate(instructions):
                if instr.is_pure_nop:
                    continue
                a_slot = _resolve_port(
                    k, col, PORT_A, instr.a, cycle,
                    prev_out, snapshots, buffer_slot,
                    input_entry, circ_entry, node_slot, instr,
                )
                b_slot = _resolve_port(
                    k, col, PORT_B, instr.b, cycle,
                    prev_out, snapshots, buffer_slot,
                    input_entry, circ_entry, node_slot, instr,
                )
                if not instr.valid:
                    continue  # latch-only instruction: no output
                if a_slot is None or (
                    b_slot is None and cells.arity(instr.op) == 2
                ):
                    raise TraceLoweringError(
                        f"LPE({k},{col}) op {instr.op!r} at cycle {cycle}: "
                        f"consuming an invalid value (node {instr.node})"
                    )
                pending.append(
                    (instr.op, a_slot,
                     b_slot if b_slot is not None else CONST0_SLOT,
                     k, col, instr.node)
                )

        if pending:
            # Sort by opcode so each op covers one contiguous segment; the
            # instructions of a macro-cycle are mutually independent, so
            # reordering cannot change any value.
            pending.sort(key=lambda entry: entry[0])
            out_start = next_slot
            a_index = np.empty(len(pending), dtype=np.intp)
            b_index = np.empty(len(pending), dtype=np.intp)
            segments: List[OpSegment] = []
            for i, (op, a_slot, b_slot, k, col, node) in enumerate(pending):
                a_index[i] = a_slot
                b_index[i] = b_slot
                new_out[k][col] = next_slot
                if node is not None:
                    slot_nodes[next_slot] = node
                if segments and segments[-1].op == op:
                    segments[-1] = OpSegment(op, segments[-1].start, i + 1)
                else:
                    segments.append(OpSegment(op, i, i + 1))
                next_slot += 1
            compute_instructions += len(pending)
            # Lowered tables may be shared across engines and threads
            # (see the lowering cache): freeze them.
            a_index.setflags(write=False)
            b_index.setflags(write=False)
            levels.append(
                TraceLevel(
                    cycle=cycle,
                    out_start=out_start,
                    a_index=a_index,
                    b_index=b_index,
                    segments=tuple(segments),
                )
            )

        # Switch phase: capture this macro-cycle's buffer writes.
        for key, lpv, col in program.buffer_writes.get(cycle, ()):
            slot = new_out[lpv][col]
            if slot is None:
                raise TraceLoweringError(
                    f"buffer write of {key} from LPV {lpv} column {col} "
                    f"at cycle {cycle}: invalid data"
                )
            buffer_slot[key] = slot
            total_buffer_writes += 1
        prev_out = new_out

    output_slots: Dict[str, int] = {}
    for name, nid in graph.outputs:
        if name in program.po_buffer_keys:
            output_slots[name] = buffer_slot[program.po_buffer_keys[name]]
        elif nid in node_slot:  # PO aliased to a PI or constant
            output_slots[name] = node_slot[nid]
        else:
            raise TraceLoweringError(f"output {name!r} is never produced")

    # The output buffer only grows within a run, so its peak equals the
    # number of distinct keys written — identical to the simulator's count.
    return TraceProgram(
        program=program,
        num_slots=next_slot,
        pi_slots=pi_slots,
        levels=levels,
        output_slots=output_slots,
        macro_cycles=schedule.makespan,
        clock_cycles=schedule.makespan * cfg.t_c,
        compute_instructions=compute_instructions,
        switch_routes=switch_routes,
        peak_buffer_words=len(buffer_slot),
        buffer_writes=total_buffer_writes,
        slot_nodes=slot_nodes,
    )


def _resolve_port(
    k: int,
    col: int,
    port: str,
    spec,
    cycle: int,
    prev_out: List[List[Optional[int]]],
    snapshots: Dict[Tuple[int, int, str], int],
    buffer_slot: Dict[Tuple[int, int], int],
    input_entry: Dict[Tuple[int, str], int],
    circ_entry: Dict[Tuple[int, str], Tuple[int, int]],
    node_slot: Dict[int, int],
    instr,
) -> Optional[int]:
    """Slot presented at one operand port — LPE._resolve, symbolically."""
    if spec.source == SRC_SWITCH:
        slot = prev_out[k - 1][spec.index] if k > 0 else None
    elif spec.source == SRC_SNAPSHOT:
        slot = snapshots.get((k, col, port))
    elif spec.source == SRC_INPUT:
        # The data buffers address by (column, port): circulation reads
        # shadow input-buffer reads, and the input buffer feeds LPV 0 only.
        key = circ_entry.get((col, port))
        if key is not None:
            slot = buffer_slot.get(key)
        elif k == 0 and (col, port) in input_entry:
            slot = node_slot[input_entry[(col, port)]]
        else:
            slot = None
    elif spec.source == SRC_CONST:
        slot = CONST1_SLOT if spec.index else CONST0_SLOT
    else:  # pragma: no cover - PortSpec validates sources
        raise ValueError(f"unknown source {spec.source!r}")
    if spec.latch:
        if slot is None:
            raise TraceLoweringError(
                f"LPE({k},{col}) port {port} at cycle {cycle}: "
                f"latching an invalid value (node {instr.node})"
            )
        snapshots[(k, col, port)] = slot
    return slot
