"""Trace lowering: flatten a compiled :class:`Program` into vectorized form.

The cycle-accurate simulator interprets every LPE instruction per
macro-cycle through Python-level dispatch (queues, switch routing tables,
snapshot registers, buffer lookups).  All of that machinery is *static* for
a given program: which slot of the value space every operand port reads is
fully determined at compile time.  This module performs that resolution
once — the simulator's dataflow, resolved symbolically — and emits a
:class:`TraceProgram`: flat numpy opcode/operand-index tables grouped by
macro-cycle, ready for batched execution with vectorized gathers
(:class:`repro.engine.trace.TraceEngine`).

The resolution reads the program's columns
(:attr:`~repro.core.codegen.Program.tables`: one ISA word per LPE per
queue entry, plus the buffer-traffic rows), never its per-word dict
views.  Because every slot is static, it needs no replay: output slots
follow from each word's (cycle, op, LPV, column) rank, a switch port looks
up the previous LPV's output one cycle earlier, and a snapshot or buffer
port the last latch or buffer write of its register or key at an earlier
cycle — a fixed number of whole-array operations per program, in memory
linear in the queue entries (no makespan x n x m grid).

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

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..netlist import cells
from ..netlist.graph import DeferredFields
from . import registry
from .codegen import NO_NODE, PORT_A, PORT_B, Program
from .isa import (
    _OPCODE_NAMES,
    _SRC_CODES,
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
    port_fields,
    word_fields,
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


def lower_program(program: Program, *, cache: bool = True) -> TraceProgram:
    """Lower ``program`` to a :class:`TraceProgram`, once per program
    object (:mod:`repro.core.registry`); ``cache=False`` forces a fresh
    lowering that nothing shares."""
    if not cache:
        return _lower_program_uncached(program)
    return registry.derive(registry.LOWERING, program, _lower_program_uncached)


#: opcode -> op name, -> rank of that name in sorted order (levels sort
#: their instructions by op name, stably), -> whether the op reads port b.
_OP_NAMES = tuple(_OPCODE_NAMES[code] for code in range(len(_OPCODE_NAMES)))
_OP_RANK = np.array([sorted(_OP_NAMES).index(op) for op in _OP_NAMES])
_TWO_INPUT = np.array([op in cells.MISO_OPS for op in _OP_NAMES])
_SWITCH, _SNAPSHOT, _INPUT, _CONST = (
    _SRC_CODES[source]
    for source in (SRC_SWITCH, SRC_SNAPSHOT, SRC_INPUT, SRC_CONST)
)


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in the sorted unique ``keys``, -1 if absent."""
    if not len(keys):
        return np.full(np.shape(queries), -1, dtype=np.intp)
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[pos] == queries, pos, -1)


def _pair_ids(pairs: np.ndarray) -> np.ndarray:
    """A dense id per distinct row of the (k, 2) ``pairs``."""
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    ordered = pairs[order]
    new = np.ones(len(order), dtype=np.int64)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


def _latest_before(
    group: np.ndarray,
    cycle: np.ndarray,
    value: np.ndarray,
    at_group: np.ndarray,
    at_cycle: np.ndarray,
    span: int,
) -> np.ndarray:
    """For each ``(at_group, at_cycle)``, the ``value`` of the last event
    of that group at an earlier cycle (ties: the later event), else -1."""
    if not len(group):
        return np.full(np.shape(at_group), -1, dtype=np.int64)
    order = np.lexsort((cycle, group))
    pos = np.searchsorted(
        group[order] * span + cycle[order], at_group * span + at_cycle
    ) - 1
    hit = (pos >= 0) & (group[order][pos] == at_group)
    return np.where(hit, value[order][pos], -1)


def _cut_levels(
    level: np.ndarray, opcode: np.ndarray
) -> List[Tuple[int, int, Tuple[OpSegment, ...]]]:
    """``(start, end, op segments)`` of every run of one ``level`` in
    instructions ordered by level, equal opcodes adjacent in a level."""
    new_level = np.ones(len(level), dtype=bool)
    new_level[1:] = level[1:] != level[:-1]
    new_segment = new_level.copy()
    new_segment[1:] |= opcode[1:] != opcode[:-1]
    bounds = np.flatnonzero(new_segment).tolist() + [len(level)]
    cut: List[Tuple[int, int, List[OpSegment]]] = []
    for start, end, first, code in zip(
        bounds, bounds[1:], new_level[new_segment].tolist(),
        opcode[new_segment].tolist(),
    ):
        if first:
            cut.append((start, start, []))
        base, _, segments = cut[-1]
        segments.append(OpSegment(_OP_NAMES[code], start - base, end - base))
        cut[-1] = (base, end, segments)
    return [(start, end, tuple(segs)) for start, end, segs in cut]


def _lower_program_uncached(program: Program) -> TraceProgram:
    """Resolve every operand port of ``program`` to a value-table slot,
    with whole-column array operations over its :attr:`~Program.tables`.

    Raises :class:`TraceLoweringError` where the simulator would raise
    :class:`~repro.lpu.lpe.InvalidDataError` at run time (an operand port
    consuming or latching a value that was never produced), with the
    message of the first such event in simulation order.
    """
    cfg = program.config
    graph = program.graph
    schedule = program.schedule
    tables = program.tables
    n, m = cfg.n, cfg.m
    makespan = schedule.makespan
    span = makespan + 1

    pis = graph.inputs
    first_slot = _NUM_CONST_SLOTS + len(pis)
    node_slot = dict(zip(pis, range(_NUM_CONST_SLOTS, first_slot)))

    def source_slot(nid: int) -> int:
        """Slot of a PI or constant node (KeyError for any other)."""
        if nid in node_slot:
            return node_slot[nid]
        op = graph.op_of(nid)
        if op in (cells.CONST0, cells.CONST1):
            return CONST1_SLOT if op == cells.CONST1 else CONST0_SLOT
        raise KeyError(nid)

    # Queue entries fetched inside the schedule, in (cycle, lpv) order.
    row_cycle = tables.queue_addr + tables.queue_lpv + schedule.base_address
    fetched = np.flatnonzero((row_cycle >= 0) & (row_cycle < makespan))
    row_key = row_cycle[fetched] * n + tables.queue_lpv[fetched]
    order = np.argsort(row_key, kind="stable")
    rows, row_key = fetched[order], row_key[order]
    cycle, lpv = row_cycle[rows], tables.queue_lpv[rows]
    nodes = tables.queue_nodes[rows]
    opcode, valid, port_a, port_b = word_fields(tables.queue_words[rows])
    source, latch, index = port_fields(np.stack((port_a, port_b), axis=-1))
    valid, latch = valid.astype(bool), latch.astype(bool)

    # Output slots: per cycle, the valid words sorted by op name (stable
    # over LPV, column), numbered consecutively from the first free slot.
    computes = np.flatnonzero(valid)  # flat (row, column), row-major
    ranked = computes[np.lexsort((
        _OP_RANK[opcode.reshape(-1)[computes]], cycle[computes // m]
    ))]
    out_slot = np.full((len(rows), m), -1, dtype=np.int64)
    out_slot.reshape(-1)[ranked] = first_slot + np.arange(len(ranked))

    # Switch ports: column `index` of the previous LPV, one cycle earlier;
    # constant ports: their constant.
    slot = np.full((len(rows), m, 2), -1, dtype=np.int64)
    switch = source == _SWITCH
    feeder = _find(row_key, (cycle - 1) * n + lpv - 1)
    feeder[lpv == 0] = -1
    at = np.nonzero(switch)
    slot[at] = np.where(
        feeder[at[0]] >= 0,
        out_slot[np.maximum(feeder[at[0]], 0), index[at]],
        -1,
    )
    const = source == _CONST
    slot[const] = np.where(index[const] != 0, CONST1_SLOT, CONST0_SLOT)

    # Input ports: a circulation read of the output buffer (the last write
    # of its key at an earlier cycle) shadows the input buffer, which
    # feeds LPV 0 only.  -2 marks ports no circulation read names.
    circ = tables.circulation_reads
    circ_row = _find(row_key, circ[:, 0] * n + circ[:, 1])
    circ, circ_row = circ[circ_row >= 0], circ_row[circ_row >= 0]
    writes = tables.buffer_writes
    writes = writes[(writes[:, 0] >= 0) & (writes[:, 0] < makespan)]
    write_row = _find(row_key, writes[:, 0] * n + writes[:, 3])
    write_slot = np.where(
        write_row >= 0, out_slot[np.maximum(write_row, 0), writes[:, 4]], -1
    )
    key_id = _pair_ids(np.concatenate((writes[:, 1:3], circ[:, 4:6])))
    write_key, read_key = key_id[:len(writes)], key_id[len(writes):]
    buffered = np.full((len(rows), m, 2), -2, dtype=np.int64)
    buffered[circ_row, circ[:, 2], circ[:, 3]] = _latest_before(
        write_key, writes[:, 0], write_slot, read_key, circ[:, 0], span
    )
    inputs = tables.input_reads
    input_row = _find(row_key, inputs[:, 0] * n)
    inputs, input_row = inputs[input_row >= 0], input_row[input_row >= 0]
    unread = buffered[input_row, inputs[:, 1], inputs[:, 2]] == -2
    inputs, input_row = inputs[unread], input_row[unread]
    buffered[input_row, inputs[:, 1], inputs[:, 2]] = [
        source_slot(nid) for nid in inputs[:, 3].tolist()
    ]
    from_input = source == _INPUT
    slot[from_input] = np.maximum(buffered[from_input], -1)

    # Snapshot ports: the register's last latch at an earlier cycle.  A
    # latch of a snapshot port re-stores the register's previous value,
    # so it carries the value of the last other latch of that register.
    def register(at: Tuple[np.ndarray, ...]) -> np.ndarray:
        row, col, port = at
        return (lpv[row] * m + col) * 2 + port

    latches = np.nonzero(latch)
    group, when = register(latches), cycle[latches[0]]
    latched = slot[latches]
    order = np.lexsort((when, group))
    carried = np.where(
        source[latches][order] == _SNAPSHOT, -1, np.arange(len(order))
    )
    carried = np.maximum.accumulate(carried) if len(order) else carried
    keep = (carried >= 0) & (
        group[order][np.maximum(carried, 0)] == group[order]
    )
    latched[order] = np.where(keep, latched[order][np.maximum(carried, 0)], -1)
    reads = np.nonzero(source == _SNAPSHOT)
    slot[reads] = _latest_before(
        group, when, latched, register(reads), cycle[reads[0]], span
    )

    # The first invalid-data event in simulation order: per cycle, the
    # words in (LPV, column) order — port a's latch, port b's latch, the
    # operands consumed — then the cycle's buffer writes in row order.
    starved = valid & (
        (slot[..., 0] < 0) | (_TWO_INPUT[opcode] & (slot[..., 1] < 0))
    )
    trapped = np.argwhere(np.concatenate(
        (latch & (slot < 0), starved[..., None]), axis=-1
    ))[:1].tolist()
    failed = np.flatnonzero(write_slot < 0)[:1].tolist()
    if failed and (not trapped or writes[failed[0], 0] < cycle[trapped[0][0]]):
        at, uid, node, k, col = writes[failed[0]].tolist()
        raise TraceLoweringError(
            f"buffer write of {(uid, node)} from LPV {k} column {col} "
            f"at cycle {at}: invalid data"
        )
    if trapped:
        row, col, event = trapped[0]
        node = int(nodes[row, col])
        where = (
            f"LPE({int(lpv[row])},{col}) "
            + (f"port {(PORT_A, PORT_B)[event]}" if event < 2
               else f"op {_OP_NAMES[opcode[row, col]]!r}")
            + f" at cycle {int(cycle[row])}"
        )
        raise TraceLoweringError(
            f"{where}: {'latching' if event < 2 else 'consuming'} an "
            f"invalid value (node {None if node == NO_NODE else node})"
        )

    # Levels: the ranked computes, cut where the cycle changes.
    a_index = slot[..., 0].reshape(-1)[ranked].astype(np.intp)
    b_index = np.maximum(slot[..., 1].reshape(-1)[ranked], CONST0_SLOT)
    b_index = b_index.astype(np.intp)
    # Lowered tables are shared across engines and threads: freeze them.
    a_index.setflags(write=False)
    b_index.setflags(write=False)
    ranked_cycle = cycle[ranked // m]
    levels = [
        TraceLevel(
            cycle=int(ranked_cycle[start]),
            out_start=first_slot + start,
            a_index=a_index[start:end],
            b_index=b_index[start:end],
            segments=segments,
        )
        for start, end, segments in _cut_levels(
            ranked_cycle, opcode.reshape(-1)[ranked]
        )
    ]
    ranked_node = nodes.reshape(-1)[ranked]
    traced = np.flatnonzero(ranked_node != NO_NODE)

    final = dict(zip(map(tuple, writes[:, 1:3].tolist()), write_slot.tolist()))
    output_slots: Dict[str, int] = {}
    for name, nid in graph.outputs:
        if name in program.po_buffer_keys:
            output_slots[name] = final[program.po_buffer_keys[name]]
        else:  # PO aliased to a PI or constant
            try:
                output_slots[name] = source_slot(nid)
            except KeyError:
                raise TraceLoweringError(
                    f"output {name!r} is never produced"
                ) from None

    return TraceProgram(
        program=program,
        num_slots=first_slot + len(ranked),
        pi_slots=dict(zip(map(graph.input_name, pis), node_slot.values())),
        levels=levels,
        output_slots=output_slots,
        macro_cycles=makespan,
        clock_cycles=makespan * cfg.t_c,
        compute_instructions=len(ranked),
        # One route request per switch-sourced port of a fetched word
        # (LPV 0 has no feeding switch), as LPUSimulator._route_into.
        switch_routes=int(np.count_nonzero(switch[lpv > 0])),
        # The output buffer only grows within a run, so its peak equals
        # the number of distinct keys written — the simulator's count.
        peak_buffer_words=int(np.count_nonzero(np.bincount(write_key))),
        buffer_writes=len(writes),
        slot_nodes=dict(zip(
            (first_slot + traced).tolist(), ranked_node[traced].tolist()
        )),
    )
