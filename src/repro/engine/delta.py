"""The delta engine: event-driven incremental execution for streams.

Every other engine recomputes the full gate table on every run.  For the
paper's flagship streaming deployments — network intrusion detection and
jet-substructure triggers — consecutive samples differ in a handful of
bits, so almost all of that work reproduces values already sitting in the
previous run's table.  :class:`DeltaEngine` keeps that table: persistent
**single-assignment rows** (:class:`~repro.core.fanout.FanoutTables`, one
row per instruction so liveness-style register reuse can never clobber a
value a skipped instruction still depends on) plus the previous input
words, per engine *state*.

Each run then:

1. diffs the incoming words against the previous ones (one vectorized
   compare over the primary-input block),
2. seeds the dirty frontier with the consumers of the changed input rows
   (the CSR fanout tables), and sweeps levels in ascending order
   executing **only instructions with a dirty operand**,
3. prunes by value: an executed instruction whose output words are
   unchanged does not propagate — the masking of AND/OR cones keeps
   effective dirty cones far smaller than structural ones,
4. **falls back dense** when dirtiness defeats sparsity: a whole-run
   fallback when the changed-input fraction reaches
   ``dense_input_fraction``, and a per-level bulk path when one level's
   dirty instruction count reaches ``dense_level_fraction`` /
   ``dense_level_min`` — both reuse the fused engine's machinery over
   the dense view of the delta tables (the whole-run fallback *is*
   :func:`repro.engine.fused.run_levels` on a fused workspace), so
   worst-case cost stays ~fused (one run over a slightly larger table)
   instead of degrading to per-gate Python.

Results are **bit-identical to the fused engine — outputs and
statistics** — for any stream history: a clean instruction's recorded row
equals what recomputation would produce, by induction over levels.

**Output contract.**  A state keeps its outputs across steps: a sparse
step replaces (never writes to) the entries whose row the sweep or a
changed input dirtied, a dense run or a rebind rebuilds them all.  So
outputs are read-only arrays; entries that did not change are the same
arrays as in the previous result; earlier results are never mutated.
A step that raises invalidates the state (the next one runs densely).

What one step costs (µs; ``nid_stack``, 437 PIs, 300 POs, 1-bit flips,
≈ 12.6 gates re-executed — the stream of ``bench/run.py --workload
stream_sparse``, parts timed in a bare loop over one engine)::

    gather 437 words into ``incoming``   67    (WordGather, in place)
    diff + dirty-cone sweep              46
    result (dict copy + patched rows)     3    (1.4 rows patched a step)
    engine step                         115    (122 in the traced probe)
    served step, wall                   340    (two sessions on one CPU)

State and threading: one :class:`DeltaEngine` owns a default
:class:`DeltaState` behind the engine run lock, so ``Session.run`` works
unchanged (each call is one stream step).  Independent streams — e.g.
sticky per-client serving sessions (:class:`repro.serve.stream.
StreamSession`) — get their own :meth:`DeltaEngine.new_state` and run via
:meth:`DeltaEngine.run_with_state`; states are not internally locked, so
drive any single state from one thread at a time.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.codegen import Program
from ..core.fanout import FanoutTables, adopt_fanout, build_fanout
from ..core.liveness import FusedProgram, adopt_fusion, fuse_trace
from ..core.trace import TraceProgram, lower_program
from ..lpu.simulator import SimulationResult
from ..netlist import cells
from .base import ExecutionEngine, WordGather, register_engine, table_result
from .fused import (
    _PI_BASE,
    ROWWISE_MIN_WORDS,
    _Workspace,
    ensure_kernel,
    run_levels,
)

_WORD = np.uint64

__all__ = ["DeltaEngine", "DeltaState"]


class DeltaState:
    """Persistent per-stream execution state: the single-assignment value
    table (a fused workspace over the dense view), the previous input
    words, and stream counters.

    Buffers bind lazily to the first run's batch shape; a shape change
    rebinds them and forces one full dense run.  ``outputs`` is the
    current value of every primary output as read-only arrays, patched
    (entries replaced, never written to) by sparse steps and rebuilt by
    dense ones; ``None`` until the next dense run rebuilds it.
    """

    __slots__ = (
        "shape", "ws", "values", "rows", "pi_block", "prev",
        "incoming", "outputs", "buckets", "valid", "runs", "full_runs",
        "clean_runs", "sparse_runs", "dense_fallback_runs",
        "dense_levels", "sparse_instructions",
    )

    def __init__(self) -> None:
        self.shape: Optional[Tuple[int, ...]] = None
        self.ws: Optional[_Workspace] = None
        self.values = None
        self.rows: List[np.ndarray] = []
        self.pi_block = None
        self.prev = None
        self.incoming = None
        self.outputs: Optional[Dict[str, np.ndarray]] = None
        self.buckets: List[set] = []
        self.valid = False
        self.runs = 0
        self.full_runs = 0
        self.clean_runs = 0
        self.sparse_runs = 0
        self.dense_fallback_runs = 0
        self.dense_levels = 0
        self.sparse_instructions = 0

    def incoming_for(
        self, tables: FanoutTables, shape: Tuple[int, ...]
    ) -> np.ndarray:
        """The block the next step's words are gathered into, binding
        the buffers first when the batch shape changed."""
        if self.shape == shape:
            return self.incoming
        self.shape = None  # until every buffer below exists
        self.ws = ws = _Workspace(tables.dense, shape)
        # the sparse sweep's hot loop reads these without the extra hop
        self.values, self.rows, self.pi_block = (
            ws.values, ws.rows, ws.pi_block
        )
        num_pi = len(tables.pi_rows)
        self.prev = np.empty((num_pi,) + shape, dtype=_WORD)
        self.incoming = np.empty((num_pi,) + shape, dtype=_WORD)
        # the sparse sweep's dirty instructions per level, each emptied
        # as its level is swept: a step reaches a handful of levels
        self.buckets = [set() for _ in tables.dense.levels]
        self.invalidate()
        self.shape = shape
        return self.incoming

    def invalidate(self) -> None:
        """Forget the stream history (the next run executes densely)."""
        self.valid = False
        self.outputs = None
        for bucket in self.buckets:  # a sweep that raised left some
            bucket.clear()

    @property
    def nbytes(self) -> int:
        if self.ws is None:
            return 0
        return self.ws.nbytes + self.prev.nbytes + self.incoming.nbytes

    def counters(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "full_runs": self.full_runs,
            "clean_runs": self.clean_runs,
            "sparse_runs": self.sparse_runs,
            "dense_fallback_runs": self.dense_fallback_runs,
            "dense_levels": self.dense_levels,
            "sparse_instructions": self.sparse_instructions,
        }


@register_engine
class DeltaEngine(ExecutionEngine):
    """Incremental execution over persistent single-assignment tables."""

    name = "delta"
    uses_trace = True

    #: changed-PI fraction at (or above) which a run skips the sparse
    #: sweep entirely and executes the dense kernel.
    dense_input_fraction = 0.5
    #: dirty fraction of one level at which that level runs as one bulk
    #: gather/compute over the dense tables instead of per-gate Python...
    dense_level_fraction = 0.25
    #: ...but never for levels dirtier than this many instructions only.
    dense_level_min = 8

    @classmethod
    def from_artifact(cls, artifact, **options) -> "DeltaEngine":
        # Embedded fanout tables boot with zero lowering, zero renaming
        # and zero cone analysis; absent sections are derived on the fly.
        return cls(
            artifact.program,
            trace=artifact.trace,
            fused=artifact.fused,
            fanout=artifact.fanout,
            **options,
        )

    def __init__(
        self,
        program: Program,
        trace: Optional[TraceProgram] = None,
        fused: Optional[FusedProgram] = None,
        fanout: Optional[FanoutTables] = None,
        *,
        dense_input_fraction: Optional[float] = None,
        dense_level_fraction: Optional[float] = None,
        dense_level_min: Optional[int] = None,
        rowwise_min_words: Optional[int] = None,
    ) -> None:
        super().__init__(program)
        self.rowwise_min_words = (
            ROWWISE_MIN_WORDS
            if rowwise_min_words is None
            else int(rowwise_min_words)
        )
        if fused is not None and (trace is None or fused.trace is trace):
            self.fused = adopt_fusion(fused)
        else:
            if trace is None:
                trace = lower_program(program)
            self.fused = fuse_trace(trace)
        self.trace = self.fused.trace
        if fanout is not None and fanout.fused is self.fused:
            self.tables = adopt_fanout(fanout)
        else:
            self.tables = build_fanout(self.fused)
        # The dense view IS a FusedProgram, so the fallback runs it the
        # way the fused engine would; its vector kernel (cached on the
        # view, which lives in the process-wide fanout cache) is compiled
        # here rather than on the first stream step.
        ensure_kernel(self.tables.dense)
        if dense_input_fraction is not None:
            self.dense_input_fraction = float(dense_input_fraction)
        if dense_level_fraction is not None:
            self.dense_level_fraction = float(dense_level_fraction)
        if dense_level_min is not None:
            self.dense_level_min = int(dense_level_min)

        tables = self.tables
        self._pi = WordGather(tables.pi_rows)
        self._num_pinned = tables.num_pinned
        self._out_names = list(tables.output_rows)
        self._out_rows = np.array(
            [tables.output_rows[n] for n in self._out_names], dtype=np.intp
        )
        # row -> the output names it carries (several names may share a
        # row, and a row may be a PI): what a sparse step patches
        self._row_outputs: Dict[int, List[str]] = {}
        for name, row in tables.output_rows.items():
            self._row_outputs.setdefault(row, []).append(name)
        self._po_rows = frozenset(self._row_outputs)
        # Python-native views of the flat tables: the sparse sweep is a
        # Python loop over dirty gids, and list indexing beats ndarray
        # item access there by a wide margin.
        self._a = tables.a_row.tolist()
        self._b = tables.b_row.tolist()
        op_table = sorted(cells.ALL_OPS)
        ops = [op_table[c] for c in tables.op_code.tolist()]
        self._func = [cells.WORD_FUNCS[op] for op in ops]
        self._two = [cells.arity(op) == 2 for op in ops]
        starts = tables.level_start.tolist()
        self._level_start = starts
        self._gid_level = [0] * tables.num_instructions
        for lev in range(tables.num_levels):
            for g in range(starts[lev], starts[lev + 1]):
                self._gid_level[g] = lev
        offsets = tables.consumer_offsets.tolist()
        gid_list = tables.consumer_gids.tolist()
        self._consumers = [
            gid_list[offsets[r]:offsets[r + 1]]
            for r in range(tables.num_rows)
        ]
        # Per-level bulk-exec plan: fused A(+B) gather index and the
        # (func, two_ary, start, end) segment schedule — the same shape
        # profile_levels interprets, over the dense rows.
        self._level_plan = []
        for lev, level in enumerate(tables.dense.levels):
            two_ary = any(cells.arity(seg.op) == 2
                          for seg in level.segments)
            if two_ary:
                ab = np.ascontiguousarray(
                    np.concatenate([level.a_index, level.b_index])
                )
            else:
                ab = level.a_index
            segs = tuple(
                (cells.WORD_FUNCS[seg.op], cells.arity(seg.op) == 2,
                 seg.start, seg.end)
                for seg in level.segments
            )
            self._level_plan.append((ab, two_ary, segs))

        self._run_lock = threading.Lock()
        self._state = DeltaState()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def new_state(self) -> DeltaState:
        """A fresh, independent stream state (e.g. one per client)."""
        return DeltaState()

    def reset(self, state: Optional[DeltaState] = None) -> None:
        """Invalidate a state's history (default: the engine's own)."""
        (state if state is not None else self._state).invalidate()

    def delta_stats(
        self, state: Optional[DeltaState] = None
    ) -> Dict[str, object]:
        """Stream counters plus the fallback thresholds, JSON-able."""
        state = state if state is not None else self._state
        stats: Dict[str, object] = dict(state.counters())
        stats.update(
            num_rows=self.tables.num_rows,
            num_instructions=self.tables.num_instructions,
            dense_input_fraction=self.dense_input_fraction,
            dense_level_fraction=self.dense_level_fraction,
            dense_level_min=self.dense_level_min,
            state_bytes=state.nbytes,
        )
        return stats

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        """One stream step over the engine's default state."""
        with self._run_lock:
            return self.run_with_state(inputs, self._state)

    def run_with_state(
        self, inputs: Dict[str, np.ndarray], state: DeltaState
    ) -> SimulationResult:
        """One stream step over an explicit state (caller-serialized).

        Output entries whose value the step did not change are the same
        read-only arrays as in the previous result; earlier results are
        never mutated."""
        _block, squeeze = self._pi.gather(
            inputs, lambda shape: state.incoming_for(self.tables, shape)
        )
        state.runs += 1
        try:
            if not state.valid:
                state.full_runs += 1
                self._run_dense(state)
            else:
                num_pi = len(state.incoming)
                changed = (
                    (state.incoming != state.prev)
                    .reshape(num_pi, -1).any(axis=1).nonzero()[0]
                ) if num_pi else ()
                if not len(changed):
                    state.clean_runs += 1
                elif len(changed) >= self.dense_input_fraction * num_pi:
                    state.dense_fallback_runs += 1
                    self._run_dense(state)
                else:
                    state.sparse_runs += 1
                    self._run_sparse(state, changed.tolist())
        except BaseException:
            # rows already hold part of the new step while ``prev`` still
            # holds the old one: a later diff would see "unchanged" and
            # never propagate, so the history must go
            state.invalidate()
            raise
        return table_result(self.trace, dict(state.outputs), squeeze)

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def _run_dense(self, state: DeltaState) -> None:
        """Bind every input and run the dense view like a fused program;
        every output is read afresh (one ``take``)."""
        if state.pi_block.shape[0]:
            state.pi_block[...] = state.incoming
        run_levels(state.ws, self.rowwise_min_words)
        out_block = state.values.take(self._out_rows, 0)
        out_block.flags.writeable = False
        state.outputs = dict(zip(self._out_names, out_block))
        state.prev, state.incoming = state.incoming, state.prev
        state.valid = True

    def _run_sparse(self, state: DeltaState, changed: List[int]) -> None:
        """Dirty-frontier sweep: execute only the changed cone, then
        patch the outputs whose row it (or a changed input) dirtied."""
        rows = state.rows
        num_pinned = self._num_pinned
        consumers = self._consumers
        gid_level = self._gid_level
        a_row, b_row = self._a, self._b
        funcs, two = self._func, self._two
        buckets = state.buckets
        state.pi_block[changed] = state.incoming[changed]
        touched = [_PI_BASE + i for i in changed]
        for row in touched:
            for g in consumers[row]:
                buckets[gid_level[g]].add(g)
        starts = self._level_start
        # One-word batches (the streaming sweet spot) compare and write
        # single elements — the n-word compare machinery costs more than
        # the recompute itself there.
        one_word = state.values.shape[1:] == (1,)
        executed = 0
        for lev, bucket in enumerate(buckets):
            if not bucket:
                continue
            s, e = starts[lev], starts[lev + 1]
            size = e - s
            if (len(bucket) >= self.dense_level_min
                    and len(bucket) >= self.dense_level_fraction * size):
                state.dense_levels += 1
                dirty = self._run_level_dense(state, lev, s, e)
            else:
                executed += len(bucket)
                dirty = []
                for g in sorted(bucket):
                    a = rows[a_row[g]]
                    new = (funcs[g](a, rows[b_row[g]]) if two[g]
                           else funcs[g](a))
                    out = rows[num_pinned + g]
                    if one_word:
                        if new[0] == out[0]:
                            continue
                        out[0] = new[0]
                    else:
                        if not (new != out).any():
                            continue
                        out[...] = new
                    dirty.append(num_pinned + g)
            bucket.clear()
            for row in dirty:
                for g in consumers[row]:
                    buckets[gid_level[g]].add(g)
            touched += dirty
        outputs = state.outputs
        for row in self._po_rows.intersection(touched):
            word = rows[row].copy()
            word.flags.writeable = False
            for name in self._row_outputs[row]:
                outputs[name] = word
        state.sparse_instructions += executed
        state.prev, state.incoming = state.incoming, state.prev

    def _run_level_dense(
        self, state: DeltaState, lev: int, s: int, e: int
    ) -> List[int]:
        """Recompute one whole level into the gather scratch, write back
        only the rows whose value changed; returns the changed rows."""
        ab_idx, two_ary, segs = self._level_plan[lev]
        k = e - s
        ab = state.ws.ab_buf[:2 * k if two_ary else k]
        state.values.take(ab_idx, 0, ab, "clip")
        a, b = ab[:k], ab[k:]
        for func, is2, seg_s, seg_e in segs:
            if is2:
                a[seg_s:seg_e] = func(a[seg_s:seg_e], b[seg_s:seg_e])
            else:
                a[seg_s:seg_e] = func(a[seg_s:seg_e])
        lo = self._num_pinned + s
        out_block = state.values[lo:lo + k]
        dirty_local = np.flatnonzero(
            (a != out_block).reshape(k, -1).any(axis=1)
        ).tolist()
        if dirty_local:
            out_block[dirty_local] = a[dirty_local]
        return [lo + i for i in dirty_local]

    # ------------------------------------------------------------------
    def workspace_stats(self) -> Dict[str, object]:
        """Sizes of the persistent tables (diagnostics and benches)."""
        return {
            "num_rows": self.tables.num_rows,
            "fused_regs": self.fused.num_regs,
            "trace_slots": self.trace.num_slots,
            "max_level_width": self.fused.max_level_width,
            "state_bytes": self._state.nbytes,
        }
