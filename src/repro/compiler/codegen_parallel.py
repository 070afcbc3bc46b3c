"""Per-MFG instruction generation (the pass-manager codegen pass).

:func:`generate_program_parallel` produces a :class:`~repro.core.codegen.Program`
bit-identical to the sequential reference generator (kept as the test
oracle ``tests/codegen_reference.py``) while restructuring the work into
three phases so the expensive part runs per-MFG with no shared mutable
state:

1. **plan** (sequential) — bottom-level column assignment through the
   snapshot allocator, compute-column marking, and the direct/buffered
   classification of every child edge.  This phase is order-dependent
   (allocator state threads through the MFGs in issue order) and cheap, so
   it byte-for-byte reproduces the reference allocator decisions.
2. **emit** — per-MFG port resolution and instruction emission against
   read-only inputs (the schedule, the logic graph, and the phase-1
   plans).  Each MFG yields a self-contained bundle of compute
   instructions, latch directives, buffer traffic, and PI reads.
3. **merge** (sequential) — bundles are folded into the global instruction
   queues and buffer-event stream in the same order the reference
   implementation visits them, then frozen straight into the program's
   columns (:class:`~repro.core.codegen.ProgramTables`): one 32-bit ISA
   word per LPE per queue entry, rows sorted by ``(lpv, address)``.

The emit phase is what makes it faster than the reference (interned port
codes, precomputed fanin tables, no intermediate mutable-instruction
objects).  It is pure Python, so it runs inline: threads would only take
turns on the interpreter lock.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from ..netlist import cells
from ..netlist.graph import LogicGraph
from ..core.codegen import (
    NO_NODE,
    PORT_A,
    PORT_B,
    Program,
    ProgramTables,
    _peak_buffer_words,
    _SnapshotAllocator,
)
from ..core.config import LPUConfig
from ..core.isa import (
    _OPCODES,
    NOP_WORD,
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
    _decode_port,
    port_code,
)
from ..core.schedule import Schedule, ScheduledMFG, ScheduleError

__all__ = ["generate_program_parallel"]

_PORT_NAMES = (PORT_A, PORT_B)
_IDLE = port_code(SRC_CONST, 0)
_VALID = 1 << 4
#: an instruction port no fanin or latch configured (idle when frozen).
_UNSET = -1
#: opcode of a latch-only instruction: a NOP (computes nothing).
_LATCH_ONLY = 0


class _Plan:
    """Phase-1 output for one scheduled MFG (read-only during emission)."""

    __slots__ = (
        "item",
        "cols",
        "buffer_children",
        "direct_children",
        "wrapped_bottom",
        "sorted_levels",
    )

    def __init__(
        self,
        item: ScheduledMFG,
        cols: Dict[int, int],
        buffer_children: Set[int],
        direct_children: Set[int],
        wrapped_bottom: bool,
        sorted_levels: Dict[int, List[int]],
    ) -> None:
        self.item = item
        self.cols = cols
        self.buffer_children = buffer_children
        self.direct_children = direct_children
        self.wrapped_bottom = wrapped_bottom
        self.sorted_levels = sorted_levels


class _Bundle:
    """Phase-2 output for one scheduled MFG, merged in issue order."""

    __slots__ = (
        "computes",
        "latches",
        "input_reads",
        "circulation_reads",
        "buffer_events",
        "buffer_reads",
        "po_events",
        "po_names",
    )

    def __init__(self) -> None:
        #: (lpv, address) -> {col: [opcode, a, b, node]}, ports as 11-bit
        #: ISA fields or ``_UNSET`` (valid implied).
        self.computes: Dict[Tuple[int, int], Dict[int, list]] = {}
        #: (lpv, address, col, port index, latched port field).
        self.latches: List[Tuple[int, int, int, int, int]] = []
        #: (cycle, col, port index, PI node id) — input_reads table rows.
        self.input_reads: List[Tuple[int, int, int, int]] = []
        #: (cycle, lpv, col, port index, uid, node) — circulation rows.
        self.circulation_reads: List[Tuple[int, int, int, int, int, int]] = []
        #: first-read buffer-write events in emission order.
        self.buffer_events: List[Tuple[Tuple[int, int], int, int, int]] = []
        #: (buffer key, reading macro-cycle).
        self.buffer_reads: List[Tuple[Tuple[int, int], int]] = []
        #: PO-capture buffer writes (root MFGs only), in sorted-root order.
        self.po_events: List[Tuple[Tuple[int, int], int, int, int]] = []
        #: (PO name, buffer key).
        self.po_names: List[Tuple[str, Tuple[int, int]]] = []


def _build_plans(
    items: List[ScheduledMFG],
    schedule: Schedule,
    m: int,
) -> Tuple[List[_Plan], int]:
    """Phase 1: allocator-order column assignment for every MFG."""
    alloc = _SnapshotAllocator(m)
    by_uid = schedule.by_uid
    plans: List[_Plan] = []
    buffer_spills = 0

    for item in items:
        mfg = item.mfg
        bottom = mfg.bottom_level
        bottom_lpv = item.lpv_of_level[bottom]
        wrapped_bottom = bottom > 1 and bottom_lpv == 0
        sorted_levels = {
            level: sorted(nodes)
            for level, nodes in mfg.nodes_by_level.items()
        }

        direct_children: Set[int] = set()
        if not wrapped_bottom:
            for child in mfg.children:
                if by_uid[child.uid].finish_cycle + 1 == item.issue_cycle:
                    direct_children.add(child.uid)

        bottom_nodes = sorted_levels[bottom]
        buffer_children: Set[int] = set()
        non_direct = [
            c
            for c in mfg.children
            if not wrapped_bottom and c.uid not in direct_children
        ]
        if wrapped_bottom:
            buffer_children = {c.uid for c in mfg.children}
        if mfg.reads_primary_inputs or wrapped_bottom or not non_direct:
            bottom_cols = list(range(len(bottom_nodes)))
        else:
            arrivals = sorted(
                by_uid[c.uid].finish_cycle + 1 for c in non_direct
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

        cols: Dict[int, int] = dict(zip(bottom_nodes, bottom_cols))
        for level in range(bottom + 1, mfg.top_level + 1):
            for col, node in enumerate(sorted_levels[level]):
                cols[node] = col

        for level in mfg.levels():
            alloc.mark_compute(
                item.cycle_of_level[level],
                item.lpv_of_level[level],
                {cols[v] for v in sorted_levels[level]},
            )

        plans.append(
            _Plan(
                item=item,
                cols=cols,
                buffer_children=buffer_children,
                direct_children=direct_children,
                wrapped_bottom=wrapped_bottom,
                sorted_levels=sorted_levels,
            )
        )
    return plans, buffer_spills


class _Emitter:
    """Phase 2: per-MFG emission against read-only shared state."""

    def __init__(
        self,
        schedule: Schedule,
        graph: LogicGraph,
        config: LPUConfig,
        plans: List[_Plan],
    ) -> None:
        self.schedule = schedule
        self.graph = graph
        self.base_address = schedule.base_address
        self.last_lpv = config.n - 1
        self.plan_of: Dict[int, _Plan] = {p.item.mfg.uid: p for p in plans}
        # Flat fanin/op tables: node id -> (op, fanins).  Node objects are
        # dataclasses; direct attribute reads here beat the per-call
        # ``op_of``/``fanins_of`` accessors in the emission inner loop.
        self.node_info: Dict[int, Tuple[str, Tuple[int, ...]]] = {
            nid: (node.op, node.fanins) for nid, node in graph.nodes.items()
        }
        m = config.m
        # Interned port fields: emission only ever needs switch columns,
        # input-buffer slots, the snapshot port, and the two constants.
        self.switch_ports = [port_code(SRC_SWITCH, c) for c in range(m)]
        self.switch_latch_ports = [
            port_code(SRC_SWITCH, c, latch=True) for c in range(m)
        ]
        self.input_ports = [port_code(SRC_INPUT, s) for s in range(2 * m)]
        self.snapshot_port = port_code(SRC_SNAPSHOT)
        self.const_ports = (port_code(SRC_CONST, 0), port_code(SRC_CONST, 1))

    def emit(self, plan: _Plan) -> _Bundle:
        item = plan.item
        mfg = item.mfg
        uid = mfg.uid
        cols = plan.cols
        bottom = mfg.bottom_level
        reads_pis = mfg.reads_primary_inputs
        base = self.base_address
        last_lpv = self.last_lpv
        node_info = self.node_info
        switch_ports = self.switch_ports
        switch_latch_ports = self.switch_latch_ports
        snapshot_port = self.snapshot_port
        input_ports = self.input_ports
        const_ports = self.const_ports
        plan_of = self.plan_of
        by_uid = self.schedule.by_uid
        buffer_children = plan.buffer_children
        direct_children = plan.direct_children
        sorted_levels = plan.sorted_levels
        cycle_of_level = item.cycle_of_level
        lpv_of_level = item.lpv_of_level
        const0 = cells.CONST0
        const1 = cells.CONST1
        opcodes = _OPCODES
        bundle = _Bundle()
        computes = bundle.computes
        input_read_list = bundle.input_reads
        circulation_read_list = bundle.circulation_reads
        buffer_event_list = bundle.buffer_events
        buffer_read_list = bundle.buffer_reads
        latch_list = bundle.latches

        # Child-producer lookup for the bottom level.
        producer: Dict[int, ScheduledMFG] = {}
        producer_cols: Dict[int, int] = {}
        producer_uid: Dict[int, int] = {}
        if not reads_pis:
            for child in mfg.children:
                child_cols = plan_of[child.uid].cols
                c_item = by_uid[child.uid]
                c_uid = child.uid
                for root in child.roots:
                    producer[root] = c_item
                    producer_cols[root] = child_cols[root]
                    producer_uid[root] = c_uid

        seen_buffer_keys: Set[Tuple[int, int]] = set()

        def read_from_buffer(
            key: Tuple[int, int],
            write_cycle: int,
            write_lpv: int,
            write_col: int,
            cycle: int,
            lpv: int,
            col: int,
            slot: int,
        ) -> int:
            if key not in seen_buffer_keys:
                seen_buffer_keys.add(key)
                buffer_event_list.append(
                    (key, write_cycle, write_lpv, write_col)
                )
            circulation_read_list.append(
                (cycle, lpv, col, slot, key[0], key[1])
            )
            buffer_read_list.append((key, cycle))
            return input_ports[col * 2 + slot]

        for level in mfg.levels():
            cycle = cycle_of_level[level]
            lpv = lpv_of_level[level]
            address = cycle - lpv - base
            vec = computes.setdefault((lpv, address), {})
            internal_wrap = level > bottom and lpv == 0
            is_bottom = level == bottom

            for node in sorted_levels[level]:
                col = cols[node]
                if col in vec:
                    raise ScheduleError(
                        f"column {col} at (cycle {cycle}, LPV {lpv}) "
                        f"already computes node {vec[col][3]}"
                    )
                op, fanins = node_info[node]
                instr = [opcodes[op], _UNSET, _UNSET, node]
                vec[col] = instr
                slot = 0
                for fanin in fanins:
                    if slot > 1:
                        break
                    fanin_op = node_info[fanin][0]
                    if fanin_op == const0:
                        spec = const_ports[0]
                    elif fanin_op == const1:
                        spec = const_ports[1]
                    elif not is_bottom:
                        src_col = cols[fanin]
                        if internal_wrap:
                            spec = read_from_buffer(
                                (uid, fanin),
                                cycle - 1,
                                last_lpv,
                                src_col,
                                cycle,
                                lpv,
                                col,
                                slot,
                            )
                        else:
                            spec = switch_ports[src_col]
                    elif reads_pis:
                        input_read_list.append((cycle, col, slot, fanin))
                        spec = input_ports[col * 2 + slot]
                    else:
                        c_item = producer.get(fanin)
                        if c_item is None:
                            raise ScheduleError(
                                f"no child MFG produces input node {fanin} "
                                f"of MFG {uid}"
                            )
                        c_uid = producer_uid[fanin]
                        src_col = producer_cols[fanin]
                        if c_uid in buffer_children:
                            spec = read_from_buffer(
                                (c_uid, fanin),
                                c_item.finish_cycle,
                                c_item.top_lpv,
                                src_col,
                                cycle,
                                lpv,
                                col,
                                slot,
                            )
                        elif c_uid in direct_children:
                            spec = switch_ports[src_col]
                        else:
                            # Earlier child: latch on arrival, read the
                            # snapshot register when this MFG issues.
                            arrival = c_item.finish_cycle + 1
                            latch_list.append(
                                (
                                    lpv,
                                    arrival - lpv - base,
                                    col,
                                    slot,
                                    switch_latch_ports[src_col],
                                )
                            )
                            spec = snapshot_port
                    instr[1 + slot] = spec
                    slot += 1

        if not mfg.parents:
            finish = item.finish_cycle
            top_lpv = item.lpv_of_level[mfg.top_level]
            for root in sorted(mfg.roots):
                bundle.po_events.append(((uid, root), finish, top_lpv, cols[root]))
            for po_name, po_node in self.graph.outputs:
                if po_node in mfg.roots:
                    bundle.po_names.append((po_name, (uid, po_node)))
        return bundle


def generate_program_parallel(
    schedule: Schedule,
    graph: LogicGraph,
    config: LPUConfig,
) -> Program:
    """Generate instruction queues and buffer traffic for ``schedule``."""
    m = config.m
    items = sorted(schedule.items, key=lambda it: (it.issue_cycle, it.mfg.uid))
    plans, buffer_spills = _build_plans(items, schedule, m)
    emitter = _Emitter(schedule, graph, config, plans)

    bundles = [emitter.emit(plan) for plan in plans]

    # ---- phase 3: deterministic merge in issue order ----------------------
    mutable: Dict[Tuple[int, int], Dict[int, list]] = {}
    input_reads: Dict[Tuple[int, int, int], int] = {}
    circulation_reads: Dict[Tuple[int, int, int, int], Tuple[int, int]] = {}
    write_rows: List[Tuple[int, int, int, int, int]] = []
    buffer_write_cycle: Dict[Tuple[int, int], int] = {}
    buffer_reads_by_key: Dict[Tuple[int, int], List[int]] = {}
    po_buffer_keys: Dict[str, Tuple[int, int]] = {}

    def note_buffer_write(
        key: Tuple[int, int], cycle: int, lpv: int, column: int
    ) -> None:
        if key in buffer_write_cycle:
            return
        buffer_write_cycle[key] = cycle
        write_rows.append((cycle, key[0], key[1], lpv, column))

    for bundle in bundles:
        for cell_key, per_col in bundle.computes.items():
            existing = mutable.get(cell_key)
            if existing is None:
                mutable[cell_key] = per_col
            else:
                for col, instr in per_col.items():
                    prior = existing.get(col)
                    if prior is not None and prior[0] != _LATCH_ONLY:
                        raise ScheduleError(
                            f"column {col} at queue entry {cell_key} already "
                            f"computes node {prior[3]}"
                        )
                    if prior is not None:
                        # Latch-only placeholder: keep its latched ports,
                        # replicating the reference set_port semantics.
                        for slot in (1, 2):
                            if prior[slot] != _UNSET:
                                if (
                                    instr[slot] != _UNSET
                                    and instr[slot] != prior[slot]
                                ):
                                    _port_conflict(
                                        slot - 1, prior[slot], instr[slot]
                                    )
                                instr[slot] = prior[slot]
                    existing[col] = instr
        for cycle, col, slot, fanin in bundle.input_reads:
            input_reads[cycle, col, slot] = fanin
        for cycle, lpv, col, slot, uid, node in bundle.circulation_reads:
            circulation_reads[cycle, lpv, col, slot] = (uid, node)
        for key, cycle, lpv, col in bundle.buffer_events:
            note_buffer_write(key, cycle, lpv, col)
        for key, cycle in bundle.buffer_reads:
            buffer_reads_by_key.setdefault(key, []).append(cycle)
        for lpv, address, col, slot, port in bundle.latches:
            vec = mutable.setdefault((lpv, address), {})
            instr = vec.get(col)
            if instr is None:
                instr = [_LATCH_ONLY, _UNSET, _UNSET, NO_NODE]
                vec[col] = instr
            current = instr[1 + slot]
            if current != _UNSET and current != port:
                _port_conflict(slot, current, port)
            instr[1 + slot] = port
        for key, cycle, lpv, col in bundle.po_events:
            note_buffer_write(key, cycle, lpv, col)
        for po_name, key in bundle.po_names:
            po_buffer_keys.setdefault(po_name, key)

    # ---- freeze into columns ----------------------------------------------
    # One ISA word per configured LPE; unconfigured LPEs of an entry keep
    # the NOP word, unconfigured ports the idle constant-0 field.
    entries = sorted(mutable)
    flat = [
        row * m + col
        for row, entry in enumerate(entries)
        for col in mutable[entry]
    ]
    fields = np.array(
        [instr for entry in entries for instr in mutable[entry].values()],
        dtype=np.int64,
    ).reshape(-1, 4)
    opcode, a, b, nodes = fields.T
    queue_words = np.full((len(entries), m), NOP_WORD, dtype=np.uint32)
    queue_words.reshape(-1)[flat] = (
        np.where(opcode == _LATCH_ONLY, 0, opcode | _VALID)
        | np.where(a == _UNSET, _IDLE, a) << 5
        | np.where(b == _UNSET, _IDLE, b) << 16
    )
    queue_nodes = np.full((len(entries), m), NO_NODE, dtype=np.int64)
    queue_nodes.reshape(-1)[flat] = nodes
    tables = ProgramTables(
        queue_lpv=np.asarray([e[0] for e in entries], dtype=np.int64),
        queue_addr=np.asarray([e[1] for e in entries], dtype=np.int64),
        queue_words=queue_words,
        queue_nodes=queue_nodes,
        input_reads=_rows(
            [key + (node,) for key, node in input_reads.items()], 4
        ),
        circulation_reads=_rows(
            [key + value for key, value in circulation_reads.items()], 6
        ),
        buffer_writes=_rows(write_rows, 5),
    )

    po_nodes = {name: nid for name, nid in graph.outputs}
    peak = _peak_buffer_words(
        buffer_write_cycle, buffer_reads_by_key, schedule.makespan
    )
    return Program(
        config=config,
        graph=graph,
        schedule=schedule,
        tables=tables,
        po_nodes=po_nodes,
        po_buffer_keys=po_buffer_keys,
        peak_buffer_words=peak,
        buffer_spills=buffer_spills,
    )


def _port_conflict(slot: int, current: int, port: int) -> None:
    raise ScheduleError(
        f"port {_PORT_NAMES[slot]!r} already configured with "
        f"{_decode_port(current)}, cannot also be {_decode_port(port)}"
    )


def _rows(rows: List[tuple], width: int) -> np.ndarray:
    """``rows`` as a sorted int64 table."""
    return np.asarray(sorted(rows), dtype=np.int64).reshape(len(rows), width)
