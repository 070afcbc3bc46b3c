"""The trace engine: precompiled vectorized execution of lowered programs.

Construction lowers the program once (:func:`repro.core.trace.lower_program`)
into flat opcode/operand-index tables grouped by macro-cycle.  Each run then
materializes one value table of shape ``(num_slots, *batch_shape)`` and
sweeps the macro-cycle levels: gather the operand rows with one fancy index
per port, apply each Boolean opcode to its contiguous segment with numpy's
bitwise kernels, and write the level's results back as one contiguous block.
No per-instruction Python dispatch remains — per macro-cycle the work is a
handful of array operations over the whole batch, which is what makes large
``array_size`` batches order(s)-of-magnitude faster than the cycle-accurate
interpreter while remaining bit-identical to it.

Statistics (macro-cycles, instruction counts, switch routes, buffer traffic)
are computed during lowering — they depend on the program alone — and are
reported identically to the cycle-accurate engine, per run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from ..core.codegen import Program
from ..core.trace import lower_program
from ..netlist import cells
from ..lpu.simulator import SimulationResult
from .base import ExecutionEngine, WordGather, register_engine, table_result

_WORD = np.uint64


@register_engine
class TraceEngine(ExecutionEngine):
    """Vectorized execution of a program lowered to flat numpy tables."""

    name = "trace"
    uses_trace = True

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self.trace = lower_program(program)
        # Bind each level's opcode segments to their word kernels up front.
        self._levels = [
            (
                level.out_start,
                level.a_index,
                level.b_index,
                tuple(
                    (cells.WORD_FUNCS[seg.op], cells.arity(seg.op),
                     seg.start, seg.end)
                    for seg in level.segments
                ),
            )
            for level in self.trace.levels
        ]
        self._pi = WordGather(self.trace.pi_slots)
        self._pi_slots = list(self.trace.pi_slots.values())

    # ------------------------------------------------------------------
    def _fresh_values(
        self, inputs: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, bool]:
        """A value table with constants and PI words bound (one run's
        mutable state — shared by run() and profile_levels()), plus the
        gather's squeeze flag."""
        block, squeeze = self._pi.gather(inputs)
        values = np.empty(
            (self.trace.num_slots,) + block.shape[1:], dtype=_WORD
        )
        values[0] = 0
        values[1] = _WORD(0xFFFFFFFFFFFFFFFF)
        values[self._pi_slots] = block
        return values, squeeze

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        trace = self.trace
        values, squeeze = self._fresh_values(inputs)

        for out_start, a_index, b_index, segments in self._levels:
            a = values[a_index]
            out = values[out_start:out_start + len(a_index)]
            for func, arity, s, e in segments:
                if arity == 2:
                    out[s:e] = func(a[s:e], values[b_index[s:e]])
                else:
                    out[s:e] = func(a[s:e])

        outputs = {
            name: values[slot].copy()
            for name, slot in trace.output_slots.items()
        }
        return table_result(trace, outputs, squeeze)

    def profile_levels(
        self, inputs: Dict[str, np.ndarray]
    ) -> List[Dict[str, object]]:
        """Per-level wall time of one run (the same diagnostic view as
        the fused engine's ``profile_levels``)."""
        values, _squeeze = self._fresh_values(inputs)
        records = []
        # The loop body mirrors run()'s level execution exactly, with a
        # timer around each level — keep the two in sync.
        for index, (out_start, a_index, b_index, segments) in enumerate(
            self._levels
        ):
            start = time.perf_counter()
            a = values[a_index]
            out = values[out_start:out_start + len(a_index)]
            for func, arity, s, e in segments:
                if arity == 2:
                    out[s:e] = func(a[s:e], values[b_index[s:e]])
                else:
                    out[s:e] = func(a[s:e])
            records.append(
                {
                    "level": index,
                    "cycle": self.trace.levels[index].cycle,
                    "instructions": len(a_index),
                    "segments": len(segments),
                    "seconds": time.perf_counter() - start,
                }
            )
        return records
