"""Liveness analysis and register allocation over lowered trace programs.

A :class:`~repro.core.trace.TraceProgram` assigns every compute
instruction its own value-table slot, so the execution working set grows
with the *total* instruction count — exactly the memory-traffic problem
the paper's LPU avoids in hardware with small circulation buffers that
hold only the values still needed.  This module reproduces that idea in
software: one pass over the lowered program computes each slot's live
range (defined at its level, dead after its last consuming level) and
renames slots into a compact **register file** whose size is the *peak*
number of simultaneously-live values.  Alias roots, last reads, free
levels and the operand renaming run on the whole program's instruction
columns at once; only the register allocation walks the levels, one
array step per level over a sorted free-register array.

The result is a :class:`FusedProgram`: the same per-level opcode segments
as the trace, but with operand and output indices expressed in register
rows.  Renamed levels are no longer contiguous writes — each level carries
an explicit ``out_index`` scatter — which is what lets a register freed by
one value's last read be reused by a value produced in the very same
level (operands are gathered before results are written back).  BUF
instructions (hardware word moves between LPVs) are copy-propagated away
entirely: the moved value simply keeps its register, with the shared
register staying live until the last read of any alias.

Allocation invariants, relied on by :class:`repro.engine.fused.FusedEngine`
and asserted by the tests:

* registers ``0`` and ``1`` hold the constants (pinned for the whole
  run), registers ``2 .. 2+|PI|`` the primary inputs — numbered like the
  trace slot layout so input binding stays one contiguous block write,
  but *reusable* once the last input read has happened (inputs are
  re-bound before every run),
* output registers of one level form one contiguous ascending run
  (run-fit allocation), so generated kernels write level results straight
  into the value table without a scatter pass; levels that exceed the
  fragmentation budget fall back to *run-composed* scattered registers —
  built from the longest maximal free runs and assigned in ascending
  order, so instructions stay sorted by output register and the kernel
  still covers most of the level with contiguous slice writes,
* a register is reused only after the level containing its old value's
  last read has gathered its operands,
* primary-output registers are never reused,
* allocation is deterministic: the same trace always fuses to the same
  tables (earliest free run wins, ties broken low), which keeps
  serialized artifacts byte-stable across processes.

Like lowerings, fusions are memoized process-wide (weak references keyed
by the trace's identity), so a pool of serving workers over one program
shares one set of renamed tables and one generated kernel.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netlist import cells
from .isa import _OPCODES
from .trace import (
    _NUM_CONST_SLOTS,
    _TWO_INPUT,
    OpSegment,
    TraceProgram,
    _cut_levels,
)

__all__ = [
    "FusedLevel",
    "FusedProgram",
    "adopt_fusion",
    "clear_fusion_cache",
    "fuse_trace",
    "fusion_cache_stats",
]


@dataclass(frozen=True)
class FusedLevel:
    """One macro-cycle level with operands renamed to register rows."""

    cycle: int
    a_index: np.ndarray  # register rows feeding port a (intp, len k)
    b_index: np.ndarray  # register rows feeding port b (intp, len k;
    # rows of single-input segments are forced to register 0 so the
    # whole-level gather stays in bounds without extending any lifetime)
    out_index: np.ndarray  # register rows written by this level (intp)
    segments: Tuple[OpSegment, ...]

    @property
    def num_instructions(self) -> int:
        return len(self.a_index)


@dataclass
class FusedProgram:
    """A trace program renamed onto a compact reusable register file."""

    trace: TraceProgram
    num_regs: int
    pi_regs: Dict[str, int]  # PI name -> register row (pinned)
    levels: List[FusedLevel]
    output_regs: Dict[str, int]  # PO name -> register row (never reused)
    #: widest renamed level (rows of the vector kernel's gather buffer).
    max_level_width: int
    #: per-program generated vector kernel, compiled by the fused engine
    #: and shared by every engine over this fusion (never serialized;
    #: see repro.engine.fused).
    kernel: Optional[Callable] = field(default=None, compare=False)
    #: lazily-populated per-program caches of the native/profiling
    #: consumers, keyed by consumer name — the hazard-ordered packed
    #: stream (repro.core.stream), the timed profiling kernel,
    #: device-resident tables.  Shared process-wide through the fusion
    #: cache exactly like ``kernel``; never serialized.
    native_cache: Dict[str, object] = field(
        default_factory=dict, compare=False
    )

    def run_length_stats(self) -> Dict[str, float]:
        """Contiguity of the level output runs — the fast-path coverage
        metric of the generated kernels (a fully contiguous level writes
        segment results straight into the value table; a fragmented one
        pays per-run slice copies)."""
        total = len(self.levels)
        contiguous = 0
        max_runs: List[int] = []
        runs_per_level: List[int] = []
        for level in self.levels:
            out = level.out_index
            k = len(out)
            if k == 0:  # pragma: no cover - empty levels are dropped
                continue
            breaks = np.flatnonzero(np.diff(out) != 1)
            runs_per_level.append(len(breaks) + 1)
            if len(breaks) == 0:
                contiguous += 1
                max_runs.append(k)
            else:
                bounds = np.concatenate(([-1], breaks, [k - 1]))
                max_runs.append(int(np.max(np.diff(bounds))))
        return {
            "levels": total,
            "contiguous_levels": contiguous,
            "contiguous_fraction": (
                contiguous / total if total else 1.0
            ),
            "mean_runs_per_level": (
                float(np.mean(runs_per_level)) if runs_per_level else 0.0
            ),
            "mean_max_run": (
                float(np.mean(max_runs)) if max_runs else 0.0
            ),
        }

    @property
    def program(self):
        return self.trace.program

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_slots(self) -> int:
        """Value-table rows the un-renamed trace would allocate."""
        return self.trace.num_slots


# ----------------------------------------------------------------------
# Fusion cache: a FusedProgram depends on the TraceProgram alone and its
# tables are immutable, so every engine fusing the same trace object can
# share one renaming (and, transitively, one generated kernel).  Weak
# references keyed by the trace's id, with an identity check against id
# reuse — the exact scheme of the lowering cache in repro.core.trace.
_FUSE_CACHE: Dict[int, "weakref.ref[FusedProgram]"] = {}
_FUSE_LOCK = threading.Lock()
_FUSE_HITS = 0
_FUSE_MISSES = 0


def fusion_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the process-wide fusion cache."""
    with _FUSE_LOCK:
        return {
            "hits": _FUSE_HITS,
            "misses": _FUSE_MISSES,
            "live_entries": len(_FUSE_CACHE),
        }


def clear_fusion_cache() -> None:
    """Drop all cached fusions and reset the counters (for tests)."""
    global _FUSE_HITS, _FUSE_MISSES
    with _FUSE_LOCK:
        _FUSE_CACHE.clear()
        _FUSE_HITS = 0
        _FUSE_MISSES = 0


def fuse_trace(
    trace: TraceProgram,
    *,
    cache: bool = True,
    frag_budget: Optional[int] = None,
) -> FusedProgram:
    """Rename ``trace`` onto a compact register file, memoized per trace.

    With ``cache=True`` (the default) repeated fusions of the *same*
    :class:`TraceProgram` object return one shared :class:`FusedProgram`;
    pass ``cache=False`` to force a fresh allocation.  ``frag_budget``
    overrides the fragmentation allowance over the tightest file size
    (default ``max(8, compact_size // 2)``); overriding implies
    ``cache=False`` — a non-default allocation must not shadow the
    canonical fusion in the process-wide cache.
    """
    global _FUSE_HITS, _FUSE_MISSES
    if frag_budget is not None:
        return _fuse_uncached(trace, frag_budget=frag_budget)
    if not cache:
        return _fuse_uncached(trace)
    key = id(trace)
    with _FUSE_LOCK:
        ref = _FUSE_CACHE.get(key)
        cached = ref() if ref is not None else None
        if cached is not None and cached.trace is trace:
            _FUSE_HITS += 1
            return cached
    fused = _fuse_uncached(trace)
    with _FUSE_LOCK:
        _FUSE_MISSES += 1
        dead = [k for k, r in _FUSE_CACHE.items() if r() is None]
        for k in dead:
            del _FUSE_CACHE[k]
        ref = _FUSE_CACHE.get(key)
        racing = ref() if ref is not None else None
        if racing is not None and racing.trace is trace:
            return racing  # another thread fused first: share theirs
        _FUSE_CACHE[key] = weakref.ref(fused)
    return fused


def adopt_fusion(fused: FusedProgram) -> FusedProgram:
    """Register an externally-built fusion (e.g. deserialized from an
    :mod:`repro.artifact` container) in the process-wide cache.

    Returns the canonical fusion for ``fused.trace``: a live cached
    fusion of the *same* trace object wins, so every consumer keeps
    sharing one set of tables and one generated kernel.
    """
    with _FUSE_LOCK:
        key = id(fused.trace)
        ref = _FUSE_CACHE.get(key)
        cached = ref() if ref is not None else None
        if cached is not None and cached.trace is fused.trace:
            return cached
        # Sweep here too: artifact-only processes adopt without ever
        # taking the fuse_trace miss path, and churning workloads would
        # otherwise accumulate dead entries forever.
        dead = [k for k, r in _FUSE_CACHE.items() if r() is None]
        for k in dead:
            del _FUSE_CACHE[k]
        _FUSE_CACHE[key] = weakref.ref(fused)
        return fused


# ----------------------------------------------------------------------
def _level_ops(level) -> List[str]:
    """The opcode of every instruction of one lowered level, in order."""
    ops = [""] * level.num_instructions
    for seg in level.segments:
        for i in range(seg.start, seg.end):
            ops[i] = seg.op
    return ops


def _free_runs(free: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal contiguous runs of the sorted free registers ``free``, as
    (position of each run's first register in ``free``, run length)."""
    bounds = np.flatnonzero(free[1:] - free[:-1] != 1) + 1
    starts = np.concatenate(([0], bounds)) if len(free) else bounds
    return starts, np.concatenate((bounds, [len(free)])) - starts


def _fuse_uncached(
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

    Liveness runs on the whole program's instruction columns at once;
    only the allocation itself walks the levels, one array step each.
    """
    levels = trace.levels
    num_levels = len(levels)
    num_slots = trace.num_slots
    num_pinned = _NUM_CONST_SLOTS + len(trace.pi_slots)

    # The program's instructions in level order: level, op, operands,
    # output slot.
    sizes = np.array([lv.num_instructions for lv in levels], dtype=np.intp)
    level_of = np.repeat(np.arange(num_levels), sizes)
    seg_op, seg_len = [], []
    for lv in levels:
        for seg in lv.segments:
            seg_op.append(_OPCODES[seg.op])
            seg_len.append(seg.end - seg.start)
    op = np.repeat(
        np.array(seg_op, dtype=np.intp), np.array(seg_len, dtype=np.intp)
    )
    empty = np.empty(0, dtype=np.intp)
    a = np.concatenate([lv.a_index for lv in levels] or [empty])
    b = np.concatenate([lv.b_index for lv in levels] or [empty])
    first = np.cumsum(sizes) - sizes
    out = np.arange(len(op)) + np.repeat(
        np.array([lv.out_start for lv in levels], dtype=np.intp) - first,
        sizes,
    )

    # Alias roots: BUF chains collapse onto the real producer (or a
    # pinned constant/PI slot); pointer jumping resolves every chain.
    copy = op == _OPCODES[cells.BUF]
    root = np.arange(num_slots)
    root[out[copy]] = a[copy]
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop

    # Last level reading each *root* (-1: never read).  BUF reads do not
    # count (they are eliminated); port b only counts for two-input ops.
    kept = ~copy
    two = kept & _TWO_INPUT[op]
    read_root = np.concatenate((root[a[kept]], root[b[two]]))
    read_level = np.concatenate((level_of[kept], level_of[two]))
    order = np.lexsort((read_level, read_root))
    last = np.ones(len(order), dtype=bool)
    last[:-1] = read_root[order][1:] != read_root[order][:-1]
    last_read = np.full(num_slots, -1, dtype=np.intp)
    last_read[read_root[order][last]] = read_level[order][last]

    protected = np.zeros(num_slots, dtype=bool)
    protected[root[list(trace.output_slots.values())]] = True

    # The level at whose start each register-owning slot's register
    # returns to the pool.  A root last read at level L frees *at* L
    # (operands are gathered before results are written); a never-read
    # root frees one level after its definition (two outputs of one level
    # must occupy distinct registers).  Primary-input registers free after
    # their last read too — inputs are re-bound before every run, so once
    # consumed their rows are ordinary reusable registers (only the two
    # constants stay pinned: they feed single-input gather lanes
    # throughout).
    pis = np.arange(_NUM_CONST_SLOTS, num_pinned)
    pis = pis[~protected[pis]]
    owners = out[kept]
    owned = ~protected[owners]
    freeing = np.concatenate((pis, owners[owned]))
    free_level = np.concatenate((
        np.maximum(last_read[pis], 0),
        np.where(
            last_read[owners] >= 0,
            last_read[owners],
            level_of[kept] + 1,
        )[owned],
    ))
    freeing = freeing[np.argsort(free_level, kind="stable")]
    free_count = np.bincount(free_level, minlength=num_levels + 1)
    free_bounds = np.concatenate(([0], np.cumsum(free_count))).tolist()
    kept_count = np.bincount(level_of[kept], minlength=num_levels)

    # Pass 1 — the tightest achievable file size under this free schedule
    # (lowest free register always wins): after each level's frees and
    # allocations, occupied registers = pinned + allocated - freed, and
    # the file grows only when every register below its size is occupied.
    occupied = np.cumsum(kept_count - free_count[:num_levels])
    compact_size = num_pinned + max(0, int(occupied.max(initial=0)))

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
    reg_of = np.full(num_slots, -1, dtype=np.intp)
    reg_of[:num_pinned] = np.arange(num_pinned)
    free = empty  # sorted free registers below next_reg
    next_reg = num_pinned
    out_reg = np.empty(len(owners), dtype=np.intp)
    kept_bounds = np.concatenate(([0], np.cumsum(kept_count))).tolist()
    for index in range(num_levels):
        freed = freeing[free_bounds[index]:free_bounds[index + 1]]
        if len(freed):
            free = np.sort(np.concatenate((free, reg_of[freed])))
        lo, hi = kept_bounds[index], kept_bounds[index + 1]
        k = hi - lo
        if not k:
            continue  # all-copy level: nothing left to execute
        starts, lengths = _free_runs(free)
        fits = lengths >= k
        if fits.any():
            # Maximal free runs, best-fit: tightest adequate run wins
            # (ties broken low), leaving large holes intact for wider
            # levels.
            at = int(starts[np.argmin(np.where(fits, lengths, len(free) + 1))])
            regs = free[at:at + k]
            free = np.concatenate((free[:at], free[at + k:]))
        else:
            # No interior run: free suffix adjacent to next_reg plus fresh
            # registers, if that stays within the fragmentation budget.
            tail = len(free)
            if tail and free[-1] == next_reg - 1:
                tail = int(starts[-1])
            base = int(free[tail]) if tail < len(free) else next_reg
            if base + k <= cap:
                regs = np.arange(base, base + k)
                free = free[:tail]
            else:
                # Compose the level from the longest maximal free runs
                # (ties broken low) instead of the k lowest singles: the
                # same register count, but the outputs land in few long
                # sub-runs the kernel can write with contiguous slice
                # copies.  Chosen registers are assigned in ascending
                # order, so instructions end up sorted by output register
                # within the level.
                rank = np.lexsort((starts, -lengths))
                size = lengths[rank]
                take = np.minimum(
                    size, np.maximum(k - np.cumsum(size) + size, 0)
                )
                picked = np.arange(int(take.sum())) + np.repeat(
                    starts[rank] - (np.cumsum(take) - take), take
                )
                regs = free[picked]
                keep = np.ones(len(free), dtype=bool)
                keep[picked] = False
                free = free[keep]
                regs = np.sort(np.concatenate(
                    (regs, np.arange(next_reg, next_reg + k - len(regs)))
                ))
            next_reg = max(next_reg, int(regs[-1]) + 1)
        out_reg[lo:hi] = regs
        reg_of[owners[lo:hi]] = regs

    # Operands renamed through the alias roots; single-input lanes read
    # register 0.
    a_reg = reg_of[root[a[kept]]]
    b_reg = np.where(two[kept], reg_of[root[b[kept]]], 0)
    kept_level = level_of[kept]
    for array in (a_reg, b_reg, out_reg):
        array.setflags(write=False)
    fused_levels = [
        FusedLevel(
            cycle=levels[int(kept_level[start])].cycle,
            a_index=a_reg[start:end],
            b_index=b_reg[start:end],
            out_index=out_reg[start:end],
            segments=segments,
        )
        for start, end, segments in _cut_levels(kept_level, op[kept])
    ]

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
        max_level_width=int(kept_count.max(initial=0)),
    )
