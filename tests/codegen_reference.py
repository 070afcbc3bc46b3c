# Reference oracle: the sequential instruction generator that
# repro.compiler.codegen_parallel replaced, moved here from
# repro.core.codegen with its logic unchanged; its instruction objects
# become program columns through the per-instruction encoder of
# tests/lowering_reference.py.  tests/test_compiler_passes.py checks that
# the served generator emits the identical program, queue for queue and
# buffer event for buffer event.
"""Sequential instruction-queue code generation (Fig. 1 box 2, Fig. 6).

One pass over the scheduled MFGs in issue order, resolving every operand
port through :func:`_port_for_fanin` into a mutable instruction grid that is
frozen at the end.  The dataflow rules are the ones documented in
:mod:`repro.core.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.codegen import (
    PORT_A,
    PORT_B,
    Program,
    _peak_buffer_words,
    _SnapshotAllocator,
)
from repro.core.config import LPUConfig
from repro.core.isa import (
    IDLE_PORT,
    NOP,
    NOP_INSTRUCTION,
    LPEInstruction,
    PortSpec,
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
)
from repro.core.mfg import MFG
from repro.core.schedule import Schedule, ScheduledMFG, ScheduleError
from repro.netlist import cells
from repro.netlist.graph import LogicGraph

from lowering_reference import encode_tables


@dataclass
class _MutableInstr:
    op: str = NOP
    a: Optional[PortSpec] = None
    b: Optional[PortSpec] = None
    valid: bool = False
    node: Optional[int] = None

    def freeze(self) -> LPEInstruction:
        return LPEInstruction(
            op=self.op,
            a=self.a if self.a is not None else IDLE_PORT,
            b=self.b if self.b is not None else IDLE_PORT,
            valid=self.valid,
            node=self.node,
        )

    def set_port(self, port: str, spec: PortSpec) -> None:
        current = getattr(self, port)
        if current is not None and current != spec:
            raise ScheduleError(
                f"port {port!r} already configured with {current}, "
                f"cannot also be {spec}"
            )
        setattr(self, port, spec)


def _port_names(num_fanins: int) -> List[str]:
    return [PORT_A, PORT_B][:num_fanins]


def generate_program(
    schedule: Schedule, graph: LogicGraph, config: LPUConfig
) -> Program:
    """Generate instruction queues and buffer traffic for ``schedule``."""
    m = config.m
    items = sorted(schedule.items, key=lambda it: (it.issue_cycle, it.mfg.uid))

    alloc = _SnapshotAllocator(m)
    # (lpv, address) -> column -> mutable instruction
    cells_out: Dict[Tuple[int, int], Dict[int, _MutableInstr]] = {}
    # uid -> node -> column
    col_of: Dict[int, Dict[int, int]] = {}
    input_reads: Dict[int, Dict[Tuple[int, str], int]] = {}
    circulation_reads: Dict[Tuple[int, int], Dict[Tuple[int, str], int]] = {}
    buffer_writes: Dict[int, List[Tuple[Tuple[int, int], int, int]]] = {}
    buffer_reads_by_key: Dict[Tuple[int, int], List[int]] = {}
    buffer_write_cycle: Dict[Tuple[int, int], int] = {}
    po_buffer_keys: Dict[str, Tuple[int, int]] = {}
    buffer_spills = 0

    def cell(cycle: int, lpv: int) -> Dict[int, _MutableInstr]:
        address = schedule.address_of(cycle, lpv)
        return cells_out.setdefault((lpv, address), {})

    def note_buffer_write(
        key: Tuple[int, int], cycle: int, lpv: int, column: int
    ) -> None:
        if key in buffer_write_cycle:
            return  # already captured (value read through several ports)
        buffer_write_cycle[key] = cycle
        buffer_writes.setdefault(cycle, []).append((key, lpv, column))

    for item in items:
        mfg = item.mfg
        uid = mfg.uid
        cols: Dict[int, int] = {}
        col_of[uid] = cols

        bottom = mfg.bottom_level
        bottom_lpv = item.lpv_of_level[bottom]
        wrapped_bottom = bottom > 1 and bottom_lpv == 0

        # Map each external input node to the child MFG producing it.
        producer: Dict[int, MFG] = {}
        if not mfg.reads_primary_inputs:
            for child in mfg.children:
                for root in child.roots:
                    producer[root] = child
        child_item: Dict[int, ScheduledMFG] = {
            c.uid: schedule.by_uid[c.uid] for c in mfg.children
        }

        def child_is_direct(child: MFG) -> bool:
            if wrapped_bottom:
                return False
            return child_item[child.uid].finish_cycle + 1 == item.issue_cycle

        # ---- bottom-level column assignment ------------------------------
        # Children whose outputs reach this MFG through the output data
        # buffer rather than the switch/snapshot path: every child when the
        # bottom hop wraps the pipeline (the paper's circulation), or every
        # non-direct child when the snapshot registers cannot hold the
        # pending values (the documented buffer-spill extension).
        bottom_nodes = sorted(mfg.nodes_by_level[bottom])
        buffer_children: Set[int] = set()
        non_direct = [
            c for c in mfg.children if not wrapped_bottom and not child_is_direct(c)
        ]
        if wrapped_bottom:
            buffer_children = {c.uid for c in mfg.children}
        if mfg.reads_primary_inputs or wrapped_bottom or not non_direct:
            bottom_cols = list(range(len(bottom_nodes)))
        else:
            arrivals = sorted(
                child_item[c.uid].finish_cycle + 1 for c in non_direct
            )
            try:
                bottom_cols = alloc.allocate(
                    bottom_lpv,
                    len(bottom_nodes),
                    arrivals[0],
                    item.issue_cycle,
                    arrivals,
                )
            except ScheduleError:
                buffer_children = {c.uid for c in non_direct}
                buffer_spills += 1
                bottom_cols = list(range(len(bottom_nodes)))
        for node, col in zip(bottom_nodes, bottom_cols):
            cols[node] = col

        # ---- other levels: columns 0..w-1 in sorted-node order -----------
        for level in range(bottom + 1, mfg.top_level + 1):
            for col, node in enumerate(sorted(mfg.nodes_by_level[level])):
                cols[node] = col

        # ---- emit compute instructions -----------------------------------
        for level in mfg.levels():
            cycle = item.cycle_of_level[level]
            lpv = item.lpv_of_level[level]
            level_nodes = sorted(mfg.nodes_by_level[level])
            alloc.mark_compute(cycle, lpv, {cols[v] for v in level_nodes})
            vec = cell(cycle, lpv)
            internal_wrap = level > bottom and lpv == 0

            for node in level_nodes:
                col = cols[node]
                instr = vec.setdefault(col, _MutableInstr())
                if instr.valid:
                    raise ScheduleError(
                        f"column {col} at (cycle {cycle}, LPV {lpv}) "
                        f"already computes node {instr.node}"
                    )
                op = graph.op_of(node)
                instr.op = op
                instr.valid = True
                instr.node = node
                fanins = graph.fanins_of(node)
                for port, fanin in zip(_port_names(len(fanins)), fanins):
                    spec = _port_for_fanin(
                        graph,
                        schedule,
                        item,
                        mfg,
                        level,
                        cycle,
                        lpv,
                        col,
                        port,
                        fanin,
                        cols,
                        col_of,
                        producer,
                        child_item,
                        buffer_children,
                        child_is_direct,
                        internal_wrap,
                        input_reads,
                        circulation_reads,
                        note_buffer_write,
                        buffer_reads_by_key,
                        cell,
                    )
                    instr.set_port(port, spec)

        # ---- PO capture for root MFGs -------------------------------------
        if not mfg.parents:
            finish = item.finish_cycle
            top_lpv = item.lpv_of_level[mfg.top_level]
            for root in sorted(mfg.roots):
                note_buffer_write((uid, root), finish, top_lpv, cols[root])
            for po_name, po_node in graph.outputs:
                if po_node in mfg.roots:
                    po_buffer_keys.setdefault(po_name, (uid, po_node))

    # ---- freeze instruction vectors ---------------------------------------
    queues: Dict[int, Dict[int, List[LPEInstruction]]] = {}
    for (lpv, address), per_col in cells_out.items():
        vec = [NOP_INSTRUCTION] * m
        for col, mutable in per_col.items():
            vec[col] = mutable.freeze()
        queues.setdefault(lpv, {})[address] = vec

    po_nodes = {name: nid for name, nid in graph.outputs}
    peak = _peak_buffer_words(
        buffer_write_cycle, buffer_reads_by_key, schedule.makespan
    )
    return Program(
        config=config,
        graph=graph,
        schedule=schedule,
        tables=encode_tables(
            queues, input_reads, circulation_reads, buffer_writes, m
        ),
        po_nodes=po_nodes,
        po_buffer_keys=po_buffer_keys,
        peak_buffer_words=peak,
        buffer_spills=buffer_spills,
    )


def _port_for_fanin(
    graph: LogicGraph,
    schedule: Schedule,
    item: ScheduledMFG,
    mfg: MFG,
    level: int,
    cycle: int,
    lpv: int,
    col: int,
    port: str,
    fanin: int,
    cols: Dict[int, int],
    col_of: Dict[int, Dict[int, int]],
    producer: Dict[int, MFG],
    child_item: Dict[int, ScheduledMFG],
    buffer_children: Set[int],
    child_is_direct,
    internal_wrap: bool,
    input_reads: Dict[int, Dict[Tuple[int, str], int]],
    circulation_reads: Dict[
        Tuple[int, int], Dict[Tuple[int, str], Tuple[int, int]]
    ],
    note_buffer_write,
    buffer_reads_by_key: Dict[Tuple[int, int], List[int]],
    cell,
) -> PortSpec:
    """Resolve one operand port of one compute instruction."""
    fanin_op = graph.op_of(fanin)

    # Constant fanins never travel through the datapath.
    if fanin_op in (cells.CONST0, cells.CONST1):
        return PortSpec(SRC_CONST, 1 if fanin_op == cells.CONST1 else 0)

    def read_from_buffer(
        key: Tuple[int, int], write_cycle: int, write_lpv: int, write_col: int
    ):
        note_buffer_write(key, write_cycle, write_lpv, write_col)
        circulation_reads.setdefault((cycle, lpv), {})[(col, port)] = key
        buffer_reads_by_key.setdefault(key, []).append(cycle)
        return PortSpec(SRC_INPUT, _slot(col, port))

    if level > mfg.bottom_level:
        # Within-MFG hop: previous level, previous LPV (or circulation when
        # the MFG itself wraps the pipeline at this level).
        src_col = cols[fanin]
        if internal_wrap:
            return read_from_buffer(
                (mfg.uid, fanin), cycle - 1, schedule.config.n - 1, src_col
            )
        return PortSpec(SRC_SWITCH, src_col)

    # Bottom level: external inputs.
    if mfg.reads_primary_inputs:
        input_reads.setdefault(cycle, {})[(col, port)] = fanin
        return PortSpec(SRC_INPUT, _slot(col, port))

    child = producer.get(fanin)
    if child is None:
        raise ScheduleError(
            f"no child MFG produces input node {fanin} of MFG {mfg.uid}"
        )
    c_item = child_item[child.uid]
    src_col = col_of[child.uid][fanin]

    if child.uid in buffer_children:
        # Circulation (wrapped hop) or snapshot-pressure spill: the child's
        # top-level results were parked in the output data buffer.
        return read_from_buffer(
            (child.uid, fanin), c_item.finish_cycle, c_item.top_lpv, src_col
        )

    if child_is_direct(child):
        # Most recent child: flows straight through the switch.
        return PortSpec(SRC_SWITCH, src_col)

    # Earlier child: latch on arrival, read from the snapshot register.
    arrival = c_item.finish_cycle + 1
    arrival_vec = cell(arrival, lpv)
    arrival_instr = arrival_vec.setdefault(col, _MutableInstr())
    arrival_instr.set_port(
        port, PortSpec(SRC_SWITCH, src_col, latch=True)
    )
    return PortSpec(SRC_SNAPSHOT)


def _slot(col: int, port: str) -> int:
    """Buffer slot index for a (column, port) pair at LPV 0."""
    return col * 2 + (0 if port == PORT_A else 1)
