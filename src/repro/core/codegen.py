"""Instruction-queue programs (Fig. 1 box 2, Fig. 6, Section V-B).

A :class:`Program` is the concrete contents of every LPV's instruction
queues, the input data buffer layout, and the output-buffer (circulation)
traffic — everything the cycle-accurate LPU simulator executes.  The
``codegen`` pass (:mod:`repro.compiler.codegen_parallel`) builds it from a
:class:`~repro.core.schedule.Schedule` with the snapshot-column allocator
and buffer-liveness count defined here.

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

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..netlist.graph import DeferredFields, LogicGraph
from .config import LPUConfig
from .isa import NOP, LPEInstruction
from .schedule import Schedule, ScheduleError

PORT_A = "a"
PORT_B = "b"


@dataclass
class Program:
    """Everything the LPU needs to execute one FFCL block.

    The four per-instruction tables — :attr:`queues`, :attr:`input_reads`,
    :attr:`circulation_reads`, :attr:`buffer_writes` — are what the
    cycle-accurate model and the lowering read and what the table engines
    never do, so a program loaded from an artifact
    (:class:`DeferredProgram`) decodes them on their first read.
    """

    config: LPUConfig
    graph: LogicGraph
    schedule: Schedule
    #: lpv -> normalized queue address -> instruction vector (length m).
    queues: Dict[int, Dict[int, List[LPEInstruction]]]
    #: macro-cycle -> {(column, port): source node id} — LPV 0 reads of
    #: PI/constant values from the input data buffer.
    input_reads: Dict[int, Dict[Tuple[int, str], int]]
    #: (macro-cycle, lpv) -> {(column, port): buffer key} — reads of
    #: circulated values from the output data buffer.  LPV 0 entries are the
    #: paper's depth-issue circulation; entries at other LPVs are snapshot-
    #: pressure spills (see DESIGN.md, "buffer spill" modeling extension).
    #: Buffer keys are (producer MFG uid, node id): overlapping MFGs compute
    #: the same node at different times, so entries carry their producer.
    circulation_reads: Dict[Tuple[int, int], Dict[Tuple[int, str], Tuple[int, int]]]
    #: macro-cycle -> [(buffer key, lpv, column)] — values captured into the
    #: output data buffer after that macro-cycle's compute phase.
    buffer_writes: Dict[int, List[Tuple[Tuple[int, int], int, int]]]
    #: PO name -> node id whose final value is the output.
    po_nodes: Dict[str, int]
    #: PO name -> buffer key holding its value (absent for source POs).
    po_buffer_keys: Dict[str, Tuple[int, int]]
    #: peak number of simultaneously-live words in the output data buffer.
    peak_buffer_words: int
    #: MFGs whose inputs overflowed the snapshot registers and were parked
    #: in the output data buffer instead (0 when m is sized sensibly).
    buffer_spills: int = 0

    @property
    def num_compute_instructions(self) -> int:
        # Memoized: the queues are immutable once generated, and the count
        # is re-read by per-pass instrumentation and metrics on every
        # compile — a full queue scan each time on large programs.
        cached = self.__dict__.get("_num_compute_instructions")
        if cached is None:
            cached = sum(
                1
                for per_lpv in self.queues.values()
                for vec in per_lpv.values()
                for instr in vec
                if instr.op != NOP
            )
            self.__dict__["_num_compute_instructions"] = cached
        return cached

    @property
    def num_queue_entries(self) -> int:
        return sum(len(per_lpv) for per_lpv in self.queues.values())

    def instruction_at(self, cycle: int, lpv: int) -> List[LPEInstruction]:
        """Instruction vector executed by ``lpv`` at ``cycle`` (NOPs if
        the queue holds nothing for that address)."""
        address = self.schedule.address_of(cycle, lpv)
        vec = self.queues.get(lpv, {}).get(address)
        if vec is None:
            from .isa import NOP_INSTRUCTION

            return [NOP_INSTRUCTION] * self.config.m
        return vec


class DeferredProgram(DeferredFields, Program):
    """A :class:`Program` that has not read its per-instruction tables
    yet."""


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
