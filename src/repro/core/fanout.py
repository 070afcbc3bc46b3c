"""Fanout/cone analysis over fused register tables.

The delta engine (:mod:`repro.engine.delta`) recomputes only the cone of
gates reachable from the inputs that changed between consecutive stream
samples.  Skipping instructions is unsound over the *fused* register file
directly: liveness renaming reuses registers, so a value produced at one
level is clobbered by a later level once its last consumer has read it —
state persisted across runs would hand a skipped instruction's consumer
whatever value happened to reuse the register.

This module therefore derives **single-assignment delta tables** from a
:class:`~repro.core.liveness.FusedProgram`: every kept instruction gets a
unique persistent row (``num_pinned + gid``, gids numbered in level-sweep
order so each level's output rows form one contiguous ascending run), and
operand registers are renamed to the row of the value they carried at that
point of the sweep — reads are resolved *before* a level's writes are
applied, matching the fused gather-before-scatter semantics exactly.  Over
these tables, "skip a clean instruction" is trivially sound: its inputs'
rows are bit-identical to the previous run, so its recorded output row
still holds the right value.

On top of the flat instruction tables sit:

* a CSR **row -> consumer-instruction** table (``consumer_offsets`` /
  ``consumer_gids``) — the fanout structure that drives the dirty-frontier
  sweep: when a row's value changes, exactly its consumers are scheduled;
* a **dense view**: a :class:`FusedProgram` whose levels are the delta
  tables themselves.  Because every level's outputs are one contiguous
  ascending run and all reads come from strictly lower rows, the fused
  kernel generator (:func:`repro.engine.fused.generate_kernel`) compiles
  it as-is — the delta engine's worst-case fallback is literally the fused
  engine's kernel over the persistent table.  The dense view is **never**
  registered as a fusion (it would collide with the real fusion of the
  same trace); its kernels live on the view itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..netlist import cells
from . import registry
from .liveness import FusedLevel, FusedProgram
from .trace import _NUM_CONST_SLOTS

__all__ = [
    "FanoutTables",
    "build_fanout",
]


@dataclass
class FanoutTables:
    """Single-assignment delta tables + consumer CSR of one fused program.

    Instruction ``gid`` (0-based, level-sweep order) reads rows
    ``a_row[gid]`` / ``b_row[gid]`` (``b_row`` is 0 for single-input ops)
    and writes row ``num_pinned + gid``.  Rows ``0``/``1`` hold the
    constants, rows ``2 .. 2+|PI|`` the primary inputs in ``pi_rows``
    order.  ``consumer_gids[consumer_offsets[r]:consumer_offsets[r+1]]``
    are the instructions reading row ``r``.
    """

    fused: FusedProgram
    num_rows: int
    num_pinned: int
    pi_rows: Dict[str, int]  # PI name -> pinned row
    output_rows: Dict[str, int]  # PO name -> row holding the final value
    a_row: np.ndarray  # intp, one entry per instruction (gid order)
    b_row: np.ndarray  # intp; 0 for single-input instructions
    op_code: np.ndarray  # int16 index into sorted(cells.ALL_OPS)
    level_start: np.ndarray  # int64, len num_levels+1 (gid ranges)
    consumer_offsets: np.ndarray  # int64, len num_rows+1
    consumer_gids: np.ndarray  # intp
    #: the delta tables repackaged as a FusedProgram: the dense-fallback
    #: kernel source.  Shares trace/segments/max_level_width with `fused`
    #: but is NOT the canonical fusion — never register it as one.
    dense: FusedProgram

    @property
    def num_instructions(self) -> int:
        return len(self.a_row)

    @property
    def num_levels(self) -> int:
        return len(self.level_start) - 1

    def consumers_of(self, row: int) -> np.ndarray:
        """The instruction gids reading ``row`` (a CSR slice view)."""
        lo, hi = self.consumer_offsets[row], self.consumer_offsets[row + 1]
        return self.consumer_gids[lo:hi]


def build_fanout(fused: FusedProgram, *, cache: bool = True) -> FanoutTables:
    """The fanout/delta tables of ``fused``, once per fusion object
    (:mod:`repro.core.registry`); ``cache=False`` forces a fresh
    derivation that nothing shares."""
    if not cache:
        return _build_uncached(fused)
    return registry.derive(registry.FANOUT, fused, _build_uncached)


# ----------------------------------------------------------------------
def _build_uncached(fused: FusedProgram) -> FanoutTables:
    """One forward sweep renaming fused registers onto persistent rows."""
    pi_names = list(fused.pi_regs)
    num_pinned = _NUM_CONST_SLOTS + len(pi_names)
    total = sum(level.num_instructions for level in fused.levels)
    num_rows = num_pinned + total

    pi_rows = {
        name: _NUM_CONST_SLOTS + i for i, name in enumerate(pi_names)
    }
    # row_of_reg[r]: the persistent row holding register r's current
    # value at this point of the level sweep.  Constants keep rows 0/1;
    # a register is re-pointed every time a level writes it.
    row_of_reg = np.zeros(max(fused.num_regs, _NUM_CONST_SLOTS), dtype=np.intp)
    row_of_reg[1] = 1
    for name, reg in fused.pi_regs.items():
        row_of_reg[reg] = pi_rows[name]

    op_table = sorted(cells.ALL_OPS)
    op_index = {op: i for i, op in enumerate(op_table)}

    a_parts: List[np.ndarray] = []
    b_parts: List[np.ndarray] = []
    op_parts: List[np.ndarray] = []
    two_parts: List[np.ndarray] = []
    level_start = np.zeros(len(fused.levels) + 1, dtype=np.int64)
    dense_levels: List[FusedLevel] = []
    base = 0
    for index, level in enumerate(fused.levels):
        k = level.num_instructions
        # Reads renamed BEFORE this level's writes re-point registers:
        # same-level register reuse keeps fused gather-before-scatter
        # semantics (a level never reads its own outputs).
        a_rows = np.ascontiguousarray(row_of_reg[level.a_index])
        b_rows = np.ascontiguousarray(row_of_reg[level.b_index])
        out_rows = np.arange(
            num_pinned + base, num_pinned + base + k, dtype=np.intp
        )
        row_of_reg[level.out_index] = out_rows
        ops = np.empty(k, dtype=np.int16)
        two = np.zeros(k, dtype=bool)
        for seg in level.segments:
            ops[seg.start:seg.end] = op_index[seg.op]
            two[seg.start:seg.end] = cells.arity(seg.op) == 2
        b_rows[~two] = 0  # single-input lanes read the pinned zero row
        for array in (a_rows, b_rows, out_rows):
            array.setflags(write=False)
        a_parts.append(a_rows)
        b_parts.append(b_rows)
        op_parts.append(ops)
        two_parts.append(two)
        dense_levels.append(
            FusedLevel(
                cycle=level.cycle,
                a_index=a_rows,
                b_index=b_rows,
                out_index=out_rows,
                segments=level.segments,
            )
        )
        base += k
        level_start[index + 1] = base

    if total:
        a_row = np.concatenate(a_parts)
        b_row = np.concatenate(b_parts)
        op_code = np.concatenate(op_parts)
        two_ary = np.concatenate(two_parts)
    else:
        a_row = np.empty(0, dtype=np.intp)
        b_row = np.empty(0, dtype=np.intp)
        op_code = np.empty(0, dtype=np.int16)
        two_ary = np.empty(0, dtype=bool)

    output_rows = {
        name: int(row_of_reg[reg])
        for name, reg in fused.output_regs.items()
    }

    # Consumer CSR: one edge per (operand row, reading instruction),
    # deduplicated (an instruction reading one row on both ports counts
    # once).  Constant rows keep their (never-dirtied) consumer lists —
    # harmless, and it keeps the table honest for diagnostics.
    gids = np.arange(total, dtype=np.intp)
    src = np.concatenate([a_row, b_row[two_ary]])
    dst = np.concatenate([gids, gids[two_ary]])
    if len(src):
        keys = np.unique(src.astype(np.int64) * total + dst)
        src = (keys // total).astype(np.intp)
        dst = (keys % total).astype(np.intp)
    consumer_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(src, minlength=num_rows), out=consumer_offsets[1:]
    )
    consumer_gids = np.ascontiguousarray(dst)
    for array in (a_row, b_row, op_code, level_start,
                  consumer_offsets, consumer_gids):
        array.setflags(write=False)

    dense = FusedProgram(
        trace=fused.trace,
        num_regs=num_rows,
        pi_regs=pi_rows,
        levels=dense_levels,
        output_regs=output_rows,
        max_level_width=fused.max_level_width,
    )
    return FanoutTables(
        fused=fused,
        num_rows=num_rows,
        num_pinned=num_pinned,
        pi_rows=pi_rows,
        output_rows=output_rows,
        a_row=a_row,
        b_row=b_row,
        op_code=op_code,
        level_start=level_start,
        consumer_offsets=consumer_offsets,
        consumer_gids=consumer_gids,
        dense=dense,
    )
