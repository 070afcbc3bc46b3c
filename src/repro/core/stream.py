"""Hazard-ordered sequential form of the fused levels.

A :class:`~repro.core.liveness.FusedProgram` level has gather-before-
scatter semantics: every instruction reads the register values the level
*started* with, then all results are written.  That is what lets the
allocator hand a register freed by a value's last read to a value
produced in the very same level — and it is why most levels cannot be
executed one instruction after another as stored: some instruction
overwrites a register a later one still has to read.

This module produces the form that *can* run strictly sequentially, one
ufunc (or one CUDA/numba loop body) per instruction with no gather or
scatter copies.  Within a level, instruction ``i`` must run before
instruction ``j`` whenever ``i`` reads the register ``j`` writes (a
write-after-read edge; an instruction aliasing its *own* output with an
input needs no edge — elementwise kernels handle exact overlap in
place).  :func:`order_level` sorts each level topologically along those
edges, staying as close to the stored order as the edges allow; the rare
cycle (a register swap, a rotation) is broken by copying one register of
the cycle to a scratch row with a ``MOV`` and redirecting its remaining
readers there.  Acyclic levels therefore cost nothing extra, and a level
pays one ``MOV`` per cycle broken instead of one per register that is
both read and written.

:func:`pack_stream` applies that to every level and packs the result as
one flat :class:`PackedStream` (opcode / a / b / out arrays), cached on
the fusion.  It is the single sequential IR: the fused engine binds it to
row views for wide batches, the native engine's numba and CUDA kernels
loop over it, and :func:`repro.engine.native.execute_stream` is its
reference interpreter.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netlist import cells
from .liveness import FusedProgram, _level_ops

__all__ = [
    "OP_MOV",
    "OP_NOT",
    "STREAM_FUNCS",
    "PackedStream",
    "order_level",
    "pack_stream",
]

#: packed-stream opcodes (stable — the CUDA source mirrors them).
OP_MOV = 0
OP_AND = 1
OP_OR = 2
OP_XOR = 3
OP_NAND = 4
OP_NOR = 5
OP_XNOR = 6
OP_NOT = 7

_CELL_OPS = {
    cells.AND: OP_AND,
    cells.OR: OP_OR,
    cells.XOR: OP_XOR,
    cells.NAND: OP_NAND,
    cells.NOR: OP_NOR,
    cells.XNOR: OP_XNOR,
    cells.NOT: OP_NOT,
}

#: numpy ufunc + invert-after flag per two-input packed opcode (MOV is
#: a copy and NOT an invert; every host executor of the stream shares
#: this table).
STREAM_FUNCS = {
    OP_AND: (np.bitwise_and, False),
    OP_OR: (np.bitwise_or, False),
    OP_XOR: (np.bitwise_xor, False),
    OP_NAND: (np.bitwise_and, True),
    OP_NOR: (np.bitwise_or, True),
    OP_XNOR: (np.bitwise_xor, True),
}

_PACK_LOCK = threading.Lock()

#: one step of an ordered level: ``(instruction, reads, out)`` — the
#: position of the instruction in the stored level (``-1`` for a
#: cycle-breaking MOV), the registers it reads (scratch-redirected where
#: a MOV saved the value) and the register it writes.
Step = Tuple[int, Tuple[int, ...], int]


def order_level(
    reads: Sequence[Tuple[int, ...]],
    outs: Sequence[int],
    scratch_base: int,
) -> List[Step]:
    """Order one level so sequential execution equals its gather-before-
    scatter semantics.

    ``reads[i]`` are the registers instruction ``i`` reads and
    ``outs[i]`` the one it writes; every instruction of a level writes a
    different register.  Scratch rows are numbered from ``scratch_base``
    upwards, one per MOV.
    """
    count = len(outs)
    writer: Dict[int, int] = {reg: j for j, reg in enumerate(outs)}
    if len(writer) != count:
        raise ValueError("a level writes one register more than once")
    # blockers[j]: the other instructions still to read the register j
    # overwrites.  j may run once the set is empty.
    blockers: List[set] = [set() for _ in range(count)]
    for i, regs in enumerate(reads):
        for reg in regs:
            j = writer.get(reg)
            if j is not None and j != i:
                blockers[j].add(i)
    ready = [j for j in range(count) if not blockers[j]]  # a sorted heap
    queued = [not blockers[j] for j in range(count)]
    remap: Dict[int, Dict[int, int]] = {}  # reader -> {register: scratch}
    steps: List[Step] = []
    scratch = scratch_base
    first_waiting = 0
    done = 0
    while done < count:
        if not ready:
            # Everything left waits on a reader that is itself waiting:
            # walking blocker to blocker must revisit an instruction,
            # and that one sits on a cycle.  Save the register it
            # overwrites and point the readers it waits for at the copy.
            while queued[first_waiting]:
                first_waiting += 1
            j = first_waiting
            seen = set()
            while j not in seen:
                seen.add(j)
                j = min(blockers[j])
            steps.append((-1, (outs[j],), scratch))
            for i in blockers[j]:
                remap.setdefault(i, {})[outs[j]] = scratch
            scratch += 1
            blockers[j].clear()
            queued[j] = True
            ready.append(j)
        i = heapq.heappop(ready)
        regs = tuple(reads[i])
        moved = remap.get(i)
        if moved:
            steps.append((i, tuple(moved.get(r, r) for r in regs), outs[i]))
        else:
            steps.append((i, regs, outs[i]))
        done += 1
        for reg in regs:
            j = writer.get(reg)
            if j is None or queued[j]:
                continue
            blockers[j].discard(i)
            if not blockers[j]:
                queued[j] = True
                heapq.heappush(ready, j)
    return steps


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackedStream:
    """The fused levels as one flat, strictly-sequential opcode stream.

    Level semantics (all reads observe pre-level values) hold under
    sequential execution because each level is hazard-ordered
    (:func:`order_level`): readers of a register precede its writer, and
    a MOV to a scratch row stands in where a cycle makes that impossible.
    """

    ops: np.ndarray  # uint8, one packed opcode per instruction
    a_reg: np.ndarray  # int32 source register, port a
    b_reg: np.ndarray  # int32 source register, port b (0 for 1-ary)
    out_reg: np.ndarray  # int32 destination register
    level_starts: np.ndarray  # int64, len num_levels+1 (MOVs included)
    num_regs: int  # register rows including scratch

    @property
    def num_instructions(self) -> int:
        return len(self.ops)

    @property
    def num_levels(self) -> int:
        return len(self.level_starts) - 1


def _pack_uncached(fused: FusedProgram) -> PackedStream:
    ops: List[int] = []
    a_reg: List[int] = []
    b_reg: List[int] = []
    out_reg: List[int] = []
    level_starts: List[int] = [0]
    num_regs = fused.num_regs
    for level in fused.levels:
        level_ops = _level_ops(level)
        a_index = level.a_index.tolist()
        b_index = level.b_index.tolist()
        reads = [
            (a_index[i], b_index[i]) if cells.arity(op) == 2
            else (a_index[i],)
            for i, op in enumerate(level_ops)
        ]
        steps = order_level(reads, level.out_index.tolist(), fused.num_regs)
        for index, regs, out in steps:
            ops.append(OP_MOV if index < 0 else _CELL_OPS[level_ops[index]])
            a_reg.append(regs[0])
            b_reg.append(regs[1] if len(regs) == 2 else 0)
            out_reg.append(out)
        # scratch rows are free again at the next level
        num_regs = max(num_regs, fused.num_regs + len(steps) - len(reads))
        level_starts.append(len(ops))
    stream = PackedStream(
        ops=np.asarray(ops, dtype=np.uint8),
        a_reg=np.asarray(a_reg, dtype=np.int32),
        b_reg=np.asarray(b_reg, dtype=np.int32),
        out_reg=np.asarray(out_reg, dtype=np.int32),
        level_starts=np.asarray(level_starts, dtype=np.int64),
        num_regs=num_regs,
    )
    for array in (
        stream.ops, stream.a_reg, stream.b_reg, stream.out_reg,
        stream.level_starts,
    ):
        array.setflags(write=False)
    return stream


def pack_stream(fused: FusedProgram) -> PackedStream:
    """The packed stream of ``fused``, ordered and packed on first use
    and cached on the fusion itself (once per program process-wide)."""
    stream = fused.native_cache.get("stream")
    if stream is not None:
        return stream
    with _PACK_LOCK:
        if "stream" not in fused.native_cache:
            fused.native_cache["stream"] = _pack_uncached(fused)
        return fused.native_cache["stream"]
