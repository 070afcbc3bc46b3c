# Reference oracles: the per-instruction implementations that the column
# code of repro.core.trace (lowering), repro.core.liveness (fusion),
# repro.compiler.codegen_parallel + repro.artifact.codec (instruction
# words) and repro.compiler.cache (source hash) replaced, moved here with
# their logic unchanged.  tests/test_lowering_oracles.py checks that the
# served code produces the identical TraceProgram, FusedProgram, columns
# and fingerprint; tests/codegen_reference.py builds its columns through
# encode_tables().
"""Per-instruction lowering, fusion, instruction encoding and graph
hashing — the test oracles of the column implementations."""

from __future__ import annotations

import bisect
import hashlib
import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.codegen import Program, ProgramTables
from repro.core.isa import (
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
    encode_instruction,
)
from repro.core.liveness import FusedLevel, FusedProgram
from repro.core.trace import (
    CONST0_SLOT,
    CONST1_SLOT,
    OpSegment,
    TraceLevel,
    TraceLoweringError,
    TraceProgram,
    _NUM_CONST_SLOTS,
)
from repro.netlist import cells
from repro.netlist.graph import LogicGraph

PORT_A = "a"
PORT_B = "b"
_NONE = -1


# ----------------------------------------------------------------------
# Lowering (was repro.core.trace._lower_program_uncached)
# ----------------------------------------------------------------------
def lower_reference(program: Program) -> TraceProgram:
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


# ----------------------------------------------------------------------
# Fusion (was repro.core.liveness._fuse_uncached and its helpers)
# ----------------------------------------------------------------------
def _level_ops(level) -> List[str]:
    """The opcode of every instruction of one lowered level, in order."""
    ops = [""] * level.num_instructions
    for seg in level.segments:
        for i in range(seg.start, seg.end):
            ops[i] = seg.op
    return ops


def _free_runs(free_list: List[int]) -> List[Tuple[int, int]]:
    """Maximal contiguous runs of a sorted free list, as (length, start)."""
    runs: List[Tuple[int, int]] = []
    prev = -2
    for v in free_list:
        if v == prev + 1:
            length, start = runs[-1]
            runs[-1] = (length + 1, start)
        else:
            runs.append((1, v))
        prev = v
    return runs


def fuse_reference(
    trace: TraceProgram, frag_budget: Optional[int] = None
) -> FusedProgram:
    """One linear-scan register allocation over the lowered levels.

    BUF instructions are *copy-propagated away*: a BUF's output slot
    aliases its input's register (hardware BUFs move words between LPVs;
    in a software register file the move is free), so BUFs occupy no
    register, execute no kernel statement, and the shared register stays
    live until the last read of *any* alias.  All other instructions keep
    their opcode-sorted segment structure with operands renamed through
    the alias roots.
    """
    levels = trace.levels
    num_levels = len(levels)
    num_pinned = _NUM_CONST_SLOTS + len(trace.pi_slots)
    ops_per_level = [_level_ops(level) for level in levels]

    # Alias roots: BUF chains collapse onto the real producer (or a
    # pinned constant/PI slot).  Levels only read earlier slots, so one
    # forward pass resolves every chain.
    root = np.arange(trace.num_slots, dtype=np.intp)
    for level, ops in zip(levels, ops_per_level):
        for i, op in enumerate(ops):
            if op == cells.BUF:
                root[level.out_start + i] = root[level.a_index[i]]

    # Last level reading each *root* (-1: never read).  BUF reads do not
    # count (they are eliminated); port b only counts for two-input ops.
    last_read = np.full(trace.num_slots, -1, dtype=np.int64)
    for index, (level, ops) in enumerate(zip(levels, ops_per_level)):
        for i, op in enumerate(ops):
            if op == cells.BUF:
                continue
            last_read[root[level.a_index[i]]] = index
            if cells.arity(op) == 2:
                last_read[root[level.b_index[i]]] = index

    protected = {int(root[slot]) for slot in trace.output_slots.values()}

    # free_at[L]: register-owning slots whose register returns to the
    # pool before level L allocates its outputs.  A root last read at
    # level L frees *at* L (operands are gathered before results are
    # written); a never-read root frees one level after its definition
    # (two outputs of one level must occupy distinct registers).
    # Primary-input registers free after their last read too — inputs are
    # re-bound before every run, so once consumed their rows are ordinary
    # reusable registers (only the two constants stay pinned: they feed
    # single-input gather lanes throughout).
    free_at: List[List[int]] = [[] for _ in range(num_levels + 1)]
    for slot in range(_NUM_CONST_SLOTS, num_pinned):
        if slot in protected:
            continue
        read = int(last_read[slot])
        free_at[max(read, 0)].append(slot)
    for index, (level, ops) in enumerate(zip(levels, ops_per_level)):
        for i, op in enumerate(ops):
            if op == cells.BUF:
                continue
            slot = level.out_start + i  # non-BUF slots are their own root
            if slot in protected:
                continue
            read = int(last_read[slot])
            free_at[read if read >= 0 else index + 1].append(slot)

    kept_per_level = [
        [i for i, op in enumerate(ops) if op != cells.BUF]
        for ops in ops_per_level
    ]

    # Pass 1 — per-register simulation: the tightest achievable file
    # size under this free schedule (lowest free register always wins).
    # It anchors the fragmentation budget of the real allocation below.
    sim_reg: Dict[int, int] = {}
    sim_free: List[int] = []
    sim_next = num_pinned
    for index, (level, kept) in enumerate(zip(levels, kept_per_level)):
        for slot in free_at[index]:
            heapq.heappush(
                sim_free,
                slot if slot < num_pinned else sim_reg[slot],
            )
        for i in kept:
            if sim_free:
                sim_reg[level.out_start + i] = heapq.heappop(sim_free)
            else:
                sim_reg[level.out_start + i] = sim_next
                sim_next += 1
    compact_size = sim_next

    # Pass 2 — bounded run-fit: every level *prefers* one contiguous
    # register run for its outputs (generated kernels then compute
    # segment ufuncs straight into the value table, no scatter pass).
    # Runs come best-fit from the free list, else from the free suffix
    # extended with fresh registers — but only while the file stays
    # within the fragmentation budget over the tightest size; beyond it
    # the level falls back to run-composed scattered registers (the
    # longest maximal free runs, assigned ascending, so the kernel still
    # writes most of the level with contiguous slice copies), keeping
    # the working set O(peak live values) no matter how fragmented the
    # frees.
    if frag_budget is None:
        frag_budget = max(8, compact_size // 2)
    cap = compact_size + max(0, int(frag_budget))
    reg_of = np.full(trace.num_slots, -1, dtype=np.intp)
    reg_of[:num_pinned] = np.arange(num_pinned)
    free_list: List[int] = []  # sorted free registers below next_reg
    next_reg = num_pinned

    def alloc_run(k: int) -> Optional[int]:
        nonlocal next_reg
        # Maximal free runs, best-fit: tightest adequate run wins (ties
        # broken low), leaving large holes intact for wider levels.
        runs = _free_runs(free_list)
        best = min(
            ((length, s) for length, s in runs if length >= k),
            default=None,
        )
        if best is not None:
            lo = best[1]
            i = bisect.bisect_left(free_list, lo)
            del free_list[i:i + k]
            return lo
        # No interior run: free suffix adjacent to next_reg plus fresh
        # registers, if that stays within the fragmentation budget.
        lo = next_reg
        i = len(free_list) - 1
        while i >= 0 and free_list[i] == lo - 1:
            lo -= 1
            i -= 1
        if max(next_reg, lo + k) > cap:
            return None
        del free_list[i + 1:]
        next_reg = max(next_reg, lo + k)
        return lo

    def alloc_scattered(k: int) -> List[int]:
        nonlocal next_reg
        # Compose the level from the longest maximal free runs (ties
        # broken low) instead of the k lowest singles: the same register
        # count, but the outputs land in few long sub-runs the kernel
        # can write with contiguous slice copies.  Chosen registers are
        # assigned in ascending order, so instructions end up sorted by
        # output register within the level.
        if len(free_list) <= k:
            regs = list(free_list)
            free_list.clear()
        else:
            runs = sorted(_free_runs(free_list), key=lambda r: (-r[0], r[1]))
            regs = []
            for length, start in runs:
                take = min(length, k - len(regs))
                regs.extend(range(start, start + take))
                if len(regs) == k:
                    break
            chosen = set(regs)
            free_list[:] = [v for v in free_list if v not in chosen]
        while len(regs) < k:
            regs.append(next_reg)
            next_reg += 1
        regs.sort()
        return regs

    fused_levels: List[FusedLevel] = []
    max_width = 0
    for index, (level, ops) in enumerate(zip(levels, ops_per_level)):
        for slot in free_at[index]:
            bisect.insort(free_list, int(reg_of[slot]))
        kept = kept_per_level[index]
        if not kept:
            continue  # all-copy level: nothing left to execute
        k = len(kept)
        lo = alloc_run(k)
        if lo is not None:
            out_regs = list(range(lo, lo + k))
        else:
            out_regs = alloc_scattered(k)
        a_index = np.empty(k, dtype=np.intp)
        b_index = np.zeros(k, dtype=np.intp)
        out_index = np.asarray(out_regs, dtype=np.intp)
        segments: List[OpSegment] = []
        for new_i, i in enumerate(kept):
            op = ops[i]
            a_index[new_i] = reg_of[root[level.a_index[i]]]
            if cells.arity(op) == 2:
                b_index[new_i] = reg_of[root[level.b_index[i]]]
            reg_of[level.out_start + i] = out_regs[new_i]
            if segments and segments[-1].op == op:
                segments[-1] = OpSegment(op, segments[-1].start, new_i + 1)
            else:
                segments.append(OpSegment(op, new_i, new_i + 1))
        for array in (a_index, b_index, out_index):
            array.setflags(write=False)
        max_width = max(max_width, k)
        fused_levels.append(
            FusedLevel(
                cycle=level.cycle,
                a_index=a_index,
                b_index=b_index,
                out_index=out_index,
                segments=tuple(segments),
            )
        )

    output_regs = {
        name: int(reg_of[root[slot]])
        for name, slot in trace.output_slots.items()
    }
    return FusedProgram(
        trace=trace,
        num_regs=next_reg,
        pi_regs=dict(trace.pi_slots),
        levels=fused_levels,
        output_regs=output_regs,
        max_level_width=max_width,
    )


# ----------------------------------------------------------------------
# Instruction encoding (was the loop of repro.artifact.codec.encode_program)
# ----------------------------------------------------------------------
def encode_tables(
    queues, input_reads, circulation_reads, buffer_writes, m: int
) -> ProgramTables:
    """The columns of a program given as per-instruction dicts.

    Instructions serialize through :func:`repro.core.isa.encode_instruction`
    (one ``uint32`` word each) with the trace-only node annotations in a
    parallel ``int64`` column.  Queue entries and buffer-traffic rows are
    emitted in sorted order, so encoding is canonical.
    """
    entries = sorted(
        (lpv, address, vec)
        for lpv, per_lpv in queues.items()
        for address, vec in per_lpv.items()
    )
    queue_lpv = np.asarray([e[0] for e in entries], dtype=np.int64)
    queue_addr = np.asarray([e[1] for e in entries], dtype=np.int64)
    queue_words = np.zeros((len(entries), m), dtype=np.uint32)
    queue_nodes = np.full((len(entries), m), _NONE, dtype=np.int64)
    for row, (_lpv, _address, vec) in enumerate(entries):
        for col, instr in enumerate(vec):
            queue_words[row, col] = encode_instruction(instr)
            if instr.node is not None:
                queue_nodes[row, col] = instr.node

    port_code = {"a": 0, "b": 1}
    input_rows = sorted(
        (cycle, col, port_code[port], node)
        for cycle, entry in input_reads.items()
        for (col, port), node in entry.items()
    )
    circ_rows = sorted(
        (cycle, lpv, col, port_code[port], key[0], key[1])
        for (cycle, lpv), entry in circulation_reads.items()
        for (col, port), key in entry.items()
    )
    write_rows = sorted(
        (cycle, key[0], key[1], lpv, col)
        for cycle, writes in buffer_writes.items()
        for (key, lpv, col) in writes
    )
    return ProgramTables(
        queue_lpv=queue_lpv,
        queue_addr=queue_addr,
        queue_words=queue_words,
        queue_nodes=queue_nodes,
        input_reads=np.asarray(input_rows, dtype=np.int64).reshape(
            (len(input_rows), 4)
        ),
        circulation_reads=np.asarray(circ_rows, dtype=np.int64).reshape(
            (len(circ_rows), 6)
        ),
        buffer_writes=np.asarray(write_rows, dtype=np.int64).reshape(
            (len(write_rows), 5)
        ),
    )


# ----------------------------------------------------------------------
# Source hash (was repro.compiler.cache.graph_fingerprint)
# ----------------------------------------------------------------------
def fingerprint_reference(graph: LogicGraph) -> str:
    """Stable content hash of a logic graph's structure and interface.

    Nodes are renumbered in topological order, so the fingerprint depends
    only on the graph's logical content — never on node-id allocation
    history or object identity.  (:mod:`repro.serve.cache` re-exports this
    as the workload key of the program cache.)
    """
    order = graph.topological_order()
    renumber = {nid: i for i, nid in enumerate(order)}
    nodes = graph.nodes
    rows = []
    for i, nid in enumerate(order):
        node = nodes[nid]
        rows.append(
            repr((i, node.op, tuple(renumber[f] for f in node.fanins)))
        )
    for nid in graph.inputs:
        rows.append(repr(("pi", graph.input_name(nid), renumber[nid])))
    for name, nid in graph.outputs:
        rows.append(repr(("po", name, renumber[nid])))
    # One buffer, one update: the digest of the rows' concatenation.
    return hashlib.sha256("".join(rows).encode()).hexdigest()


