"""Instruction-queue programs (Fig. 1 box 2, Fig. 6, Section V-B).

A :class:`Program` is the concrete contents of every LPV's instruction
queues, the input data buffer layout, and the output-buffer (circulation)
traffic — everything the cycle-accurate LPU simulator executes.  The
``codegen`` pass (:mod:`repro.compiler.codegen_parallel`) builds it from a
:class:`~repro.core.schedule.Schedule` with the snapshot-column allocator
and buffer-liveness count defined here.

The program *is* seven columns (:class:`ProgramTables`): the 32-bit ISA
word of every LPE of every queue entry with its traced node, and the
input-buffer, circulation and buffer-write rows — exactly the arrays an
``.lpa`` artifact stores.  Codegen emits them, the lowering, the liveness
renaming and the artifact encoder read them whole, and a loaded artifact
hands its arrays over unchanged.  The per-word dicts the cycle-accurate
model reads (:attr:`Program.queues` and the three traffic maps) are views
that decode from the columns on their first read, so compiled and loaded
programs have one representation.

Dataflow rules the generator implements:

* **within an MFG** — level l reads level l-1's results through the switch
  network (one macro-cycle earlier, previous LPV),
* **most recent child** — a child finishing exactly one macro-cycle before
  its parent issues feeds the parent's bottom level directly through the
  switch, with no snapshot storage (Section V-B),
* **earlier children** — their top-level results are latched into the
  snapshot registers of the parent's bottom LPV when they arrive ("the
  instruction that invalidates output & does a snapshot", Fig. 6) and read
  from there when the parent issues.  Snapshot registers are per-LPE and
  per-port, so the code generator allocates the parent's bottom-level
  columns such that every latched value's lifetime has exclusive use of its
  (LPE, port) slot,
* **primary inputs** — MFGs whose bottom level consumes PIs read the input
  data buffer at LPV 0; the buffer is laid out in issue order so a simple
  counter addresses it (Section V-B),
* **circulation (the depth issue)** — any hop that wraps from LPV n-1 back
  to LPV 0 (inside a deep MFG or on a child->parent boundary) parks its
  values in the output data buffer, which "performs as the snapshot
  registers of LPV Ltop+1" (Section V-C), and re-enters at LPV 0,
* **primary outputs** — root MFGs' top-level results are captured into the
  output data buffer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, NamedTuple, Set, Tuple

import numpy as np

from ..netlist.graph import DeferredFields, LogicGraph
from .config import LPUConfig
from .isa import (
    NOP_INSTRUCTION,
    LPEInstruction,
    decode_instruction,
)
from .schedule import Schedule, ScheduleError

PORT_A = "a"
PORT_B = "b"

#: node-id column value of a word that computes no traced node.
NO_NODE = -1


class ProgramTables(NamedTuple):
    """The instruction and traffic columns of a program — the arrays its
    artifact stores, under the same names.  Rows are sorted ascending and
    their leading key columns (named below) are unique."""

    #: int64 (E,): LPV of each instruction-queue entry — key with
    #: :attr:`queue_addr`.
    queue_lpv: np.ndarray
    #: int64 (E,): normalized queue address of each entry.
    queue_addr: np.ndarray
    #: uint32 (E, m): the 32-bit ISA word of every LPE of each entry.
    queue_words: np.ndarray
    #: int64 (E, m): node each word computes, :data:`NO_NODE` if none.
    queue_nodes: np.ndarray
    #: int64 (I, 4): (macro-cycle, column, port, PI/constant node id) —
    #: LPV 0 reads of the input data buffer; key: the first three.
    input_reads: np.ndarray
    #: int64 (C, 6): (macro-cycle, lpv, column, port, producer MFG uid,
    #: node id) — reads of the output data buffer; key: the first four.
    circulation_reads: np.ndarray
    #: int64 (W, 5): (macro-cycle, producer MFG uid, node id, lpv,
    #: column) — captures into the output data buffer.
    buffer_writes: np.ndarray


_PORT_NAMES = (PORT_A, PORT_B)

_VIEWS_LOCK = threading.Lock()


class _TableView:
    """A dict view of :attr:`Program.tables`.  The first read of any view
    decodes all four — once, however many threads read at the same
    moment — into plain instance attributes, which every later read
    finds without this descriptor."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, program, owner=None):
        if program is None:
            return self
        with _VIEWS_LOCK:
            if self.name not in vars(program):
                vars(program).update(_decode_tables(program.tables))
        return vars(program)[self.name]


@dataclass(eq=False)
class Program:
    """Everything the LPU needs to execute one FFCL block.

    The program *is* its :attr:`tables`: the ``codegen`` pass emits them,
    an artifact stores them, and the lowering, the liveness renaming and
    the encoder read them whole.  :attr:`queues`, :attr:`input_reads`,
    :attr:`circulation_reads` and :attr:`buffer_writes` are per-word dict
    views of those columns for the cycle-accurate model and for
    inspection: they are no constructor fields, and every program decodes
    them from its own :attr:`tables` on their first read.  A loaded
    program (:class:`DeferredProgram`) also checks its :attr:`tables` on
    their first read.
    """

    config: LPUConfig
    graph: LogicGraph
    schedule: Schedule
    tables: ProgramTables = field(repr=False)
    #: PO name -> node id whose final value is the output.
    po_nodes: Dict[str, int]
    #: PO name -> buffer key holding its value (absent for source POs).
    po_buffer_keys: Dict[str, Tuple[int, int]]
    #: peak number of simultaneously-live words in the output data buffer.
    peak_buffer_words: int
    #: MFGs whose inputs overflowed the snapshot registers and were parked
    #: in the output data buffer instead (0 when m is sized sensibly).
    buffer_spills: int = 0

    #: lpv -> normalized queue address -> instruction vector (length m).
    queues = _TableView()
    #: macro-cycle -> {(column, port): source node id} — LPV 0 reads of
    #: PI/constant values from the input data buffer.
    input_reads = _TableView()
    #: (macro-cycle, lpv) -> {(column, port): buffer key} — reads of
    #: circulated values from the output data buffer.  LPV 0 entries are the
    #: paper's depth-issue circulation; entries at other LPVs are snapshot-
    #: pressure spills (see DESIGN.md, "buffer spill" modeling extension).
    #: Buffer keys are (producer MFG uid, node id): overlapping MFGs compute
    #: the same node at different times, so entries carry their producer.
    circulation_reads = _TableView()
    #: macro-cycle -> [(buffer key, lpv, column)] — values captured into the
    #: output data buffer after that macro-cycle's compute phase.
    buffer_writes = _TableView()

    def __eq__(self, other) -> bool:
        """Field by field; the columns by dtype, shape and value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.name != "tables"
        ) and all(
            mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            for mine, theirs in zip(self.tables, other.tables)
        )

    @property
    def num_compute_instructions(self) -> int:
        return int(np.count_nonzero(self.tables.queue_words & 0xF))

    @property
    def num_queue_entries(self) -> int:
        return len(self.tables.queue_lpv)

    def instruction_at(self, cycle: int, lpv: int) -> List[LPEInstruction]:
        """Instruction vector executed by ``lpv`` at ``cycle`` (NOPs if
        the queue holds nothing for that address)."""
        address = self.schedule.address_of(cycle, lpv)
        vec = self.queues.get(lpv, {}).get(address)
        if vec is None:
            return [NOP_INSTRUCTION] * self.config.m
        return vec


class DeferredProgram(DeferredFields, Program):
    """A :class:`Program` that has not loaded its :attr:`tables` yet."""


def _decode_tables(tables: ProgramTables) -> Dict[str, object]:
    """The dict views of :class:`Program`, decoded from its columns."""
    # Instructions are frozen, so identical (word, node) pairs — NOPs
    # above all — share one object.  The memo saves a dataclass per
    # repeat, not the look-up per queue entry: decoding stays linear in
    # the queue, which is why it waits for the first read.
    memo: Dict[Tuple[int, int], LPEInstruction] = {}

    def instruction_of(word: int, node: int) -> LPEInstruction:
        got = memo.get((word, node))
        if got is None:
            got = decode_instruction(word)
            if node != NO_NODE:
                got = LPEInstruction(
                    op=got.op, a=got.a, b=got.b, valid=got.valid, node=node
                )
            memo[(word, node)] = got
        return got

    queues: Dict[int, Dict[int, List[LPEInstruction]]] = {}
    for lpv, address, words, nodes in zip(
        tables.queue_lpv.tolist(),
        tables.queue_addr.tolist(),
        tables.queue_words.tolist(),
        tables.queue_nodes.tolist(),
    ):
        queues.setdefault(lpv, {})[address] = list(
            map(instruction_of, words, nodes)
        )

    input_reads: Dict[int, Dict[Tuple[int, str], int]] = {}
    for cycle, col, port, node in tables.input_reads.tolist():
        input_reads.setdefault(cycle, {})[(col, _PORT_NAMES[port])] = node
    circulation_reads: Dict[
        Tuple[int, int], Dict[Tuple[int, str], Tuple[int, int]]
    ] = {}
    for cycle, lpv, col, port, uid, node in tables.circulation_reads.tolist():
        circulation_reads.setdefault((cycle, lpv), {})[
            (col, _PORT_NAMES[port])
        ] = (uid, node)
    buffer_writes: Dict[int, List[Tuple[Tuple[int, int], int, int]]] = {}
    for cycle, uid, node, lpv, col in tables.buffer_writes.tolist():
        buffer_writes.setdefault(cycle, []).append(((uid, node), lpv, col))
    return {
        "queues": queues,
        "input_reads": input_reads,
        "circulation_reads": circulation_reads,
        "buffer_writes": buffer_writes,
    }


class _SnapshotAllocator:
    """Tracks (LPV, column) snapshot lifetimes and compute-column usage."""

    def __init__(self, m: int) -> None:
        self.m = m
        # (lpv, column) -> list of (start, end) reserved intervals.
        self._busy: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # (cycle, lpv) -> columns computing there.
        self.compute_cols: Dict[Tuple[int, int], Set[int]] = {}

    def _column_free(
        self, lpv: int, col: int, start: int, end: int, arrival_cycles: List[int]
    ) -> bool:
        for s, e in self._busy.get((lpv, col), ()):
            if not (end < s or e < start):
                return False
        for cycle in arrival_cycles:
            if col in self.compute_cols.get((cycle, lpv), ()):
                return False
        return True

    def allocate(
        self,
        lpv: int,
        width: int,
        start: int,
        end: int,
        arrival_cycles: List[int],
    ) -> List[int]:
        """Reserve ``width`` columns at ``lpv`` over [start, end]."""
        chosen: List[int] = []
        for col in range(self.m):
            if self._column_free(lpv, col, start, end, arrival_cycles):
                chosen.append(col)
                if len(chosen) == width:
                    break
        if len(chosen) < width:
            raise ScheduleError(
                f"snapshot pressure at LPV {lpv}: need {width} columns over "
                f"macro-cycles [{start}, {end}], only {len(chosen)} free"
            )
        for col in chosen:
            self._busy.setdefault((lpv, col), []).append((start, end))
        return chosen

    def mark_compute(self, cycle: int, lpv: int, columns: Set[int]) -> None:
        self.compute_cols.setdefault((cycle, lpv), set()).update(columns)


def _peak_buffer_words(
    writes: Dict[Tuple[int, int], int],
    reads: Dict[Tuple[int, int], List[int]],
    makespan: int,
) -> int:
    """Peak simultaneous live words in the output data buffer."""
    events: Dict[int, int] = {}
    for key, wcycle in writes.items():
        last_read = max(reads.get(key, [makespan]))
        events[wcycle] = events.get(wcycle, 0) + 1
        events[last_read + 1] = events.get(last_read + 1, 0) - 1
    live = 0
    peak = 0
    for cycle in sorted(events):
        live += events[cycle]
        peak = max(peak, live)
    return peak
