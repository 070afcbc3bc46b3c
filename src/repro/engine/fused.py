"""The fused engine: per-program executable forms over a register file.

Three stacked optimizations over :class:`~repro.engine.trace.TraceEngine`,
all bit-identical to it (outputs and statistics):

1. **Liveness-driven slot reuse** — the lowered trace is renamed onto a
   compact register file (:func:`repro.core.liveness.fuse_trace`), so the
   execution working set is the *peak* number of live values instead of
   one row per instruction, and BUF word-moves are copy-propagated away.
   Smaller tables mean less memory traffic per gather — the software
   analogue of the LPU's circulation buffers.
2. **Preallocated workspaces** — each engine keeps one workspace per
   batch shape (the register file, plus the scratch of whichever
   executable form has run on that shape) and executes with
   ``take(..., out=...)`` gathers and ufunc ``out=`` kernels, so the
   steady-state run loop performs no array allocation at all.
3. **Two executable forms of the levels**, chosen per run by batch size
   in one place (:func:`run_levels`), each kept because it wins a
   measured regime:

   * the **vector** kernel minimizes Python/numpy *call count*: the
     level/segment loop is lowered once into a flat ``exec``-compiled
     function of direct ufunc calls (one fused A+B gather per level,
     segment ufuncs computed in place, no scatter for contiguous
     levels).  It touches seven rows per instruction (gather 2+2,
     compute 2+1) but makes a handful of calls per level — fastest
     while rows are narrow and interpreter overhead dominates.  It is
     cached on the :class:`~repro.core.liveness.FusedProgram`, which
     lives in the process-wide fusion cache, so a serving pool over one
     program compiles it once;
   * the **rowwise** form minimizes *memory traffic*: the
     hazard-ordered packed stream (:func:`repro.core.stream.pack_stream`
     — readers of a register before its writer, one ``MOV`` per cycle
     broken) run strictly sequentially, bound to a workspace's row
     views as a list of ``(ufunc, (row views...))`` calls.  Three row
     touches per instruction on *every* level, no gather or scatter
     copies, one call per instruction — fastest from
     :data:`ROWWISE_MIN_WORDS` words up, where bandwidth dominates.  It
     is data, not generated code: the stream is ordered on the first
     wide run of a program and bound on the first wide run of a shape,
     so an engine that only ever sees narrow batches never pays for it.

One :class:`FusedEngine` instance owns mutable workspaces; a per-engine
lock serializes concurrent :meth:`FusedEngine.run` calls, so sharing one
engine (or :class:`~repro.engine.session.Session`) across threads stays
*correct* — but for thread-PARALLEL serving create one engine per
thread, which is exactly what :class:`~repro.serve.pool.WorkerPool`
does; the renamed tables, the generated kernel and the packed stream are
still shared process-wide.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.codegen import Program
from ..core.liveness import (
    FusedProgram,
    _level_ops,
    adopt_fusion,
    fuse_trace,
)
from ..core.stream import OP_MOV, OP_NOT, STREAM_FUNCS, pack_stream
from ..core.trace import _NUM_CONST_SLOTS, TraceProgram, lower_program
from ..lpu.simulator import SimulationResult
from ..netlist import cells
from .base import ExecutionEngine, WordGather, register_engine, table_result

_WORD = np.uint64

#: first primary-input register (right after the pinned constants — the
#: same layout the trace lowering and the liveness allocator pin).
_PI_BASE = _NUM_CONST_SLOTS

#: In the vector kernel, levels with at most this many instructions are
#: inlined as direct row-view ufunc calls (when register aliasing allows
#: it) instead of the gather/compute/scatter sequence.
INLINE_MAX = 4

#: Batch sizes (uint64 words per PI) at or above which the rowwise
#: form takes over from the vector kernel: rows are wide enough that the
#: gather copies cost more than one ufunc call per instruction.  The
#: module constant is the measured default; every engine takes a
#: ``rowwise_min_words`` option to override it per instance (``repro
#: calibrate`` measures the host's actual crossover).
ROWWISE_MIN_WORDS = 512

#: In a non-contiguous (scattered) level, output sub-runs at least this
#: long are written with direct slice copies; only the short remainder
#: goes through one fancy-index scatter.
SCATTER_RUN_MIN = 4

#: Workspaces retained per engine (distinct batch shapes); least recently
#: used beyond this are dropped.
MAX_WORKSPACES = 4

#: base ufunc name + invert-after flag per two-input opcode.
_MISO_KERNELS = {
    cells.AND: ("band", False),
    cells.OR: ("bor", False),
    cells.XOR: ("bxor", False),
    cells.NAND: ("band", True),
    cells.NOR: ("bor", True),
    cells.XNOR: ("bxor", True),
}

_KERNEL_LOCK = threading.Lock()


# ----------------------------------------------------------------------
# Kernel generation
# ----------------------------------------------------------------------
def _inline_safe(level) -> bool:
    """True when the level may run as per-instruction statements in its
    stored order.

    Safe only if no later instruction reads a register an earlier one of
    the same level writes (an instruction aliasing its *own* output with
    an input is fine: numpy ufuncs handle exact overlap in place).
    """
    ops = _level_ops(level)
    written: set = set()
    for j in range(level.num_instructions):
        if int(level.a_index[j]) in written:
            return False
        if cells.arity(ops[j]) == 2 and int(level.b_index[j]) in written:
            return False
        written.add(int(level.out_index[j]))
    return True


def _emit_inline_level(lines: List[str], level) -> None:
    """Every instruction as one direct row-view ufunc statement."""
    ops = _level_ops(level)
    for i, op in enumerate(ops):
        a = int(level.a_index[i])
        r = int(level.out_index[i])
        if op == cells.NOT:
            lines.append(f"    binv(rows[{a}], out=rows[{r}])")
        else:
            b = int(level.b_index[i])
            name, inverted = _MISO_KERNELS[op]
            lines.append(f"    {name}(rows[{a}], rows[{b}], out=rows[{r}])")
            if inverted:
                lines.append(f"    binv(rows[{r}], out=rows[{r}])")


def _emit_gather_level(
    lines: List[str], ns: Dict[str, object], index: int, level
) -> None:
    """One gather/compute level.

    Ports a and b are fetched with a single fused ``take`` of the
    concatenated index vector; segment ufuncs then compute *straight into
    the value table* — the allocator guarantees each level's output
    registers form one contiguous run, so no scatter pass exists.  A
    scatter fallback covers non-contiguous levels (fragmentation-budget
    overflows, foreign artifact producers): the allocator composes those
    from maximal free runs sorted ascending, so the fallback writes each
    sub-run of at least :data:`SCATTER_RUN_MIN` registers as one direct
    slice copy and fancy-scatters only the short remainder.
    """
    k = level.num_instructions
    two_ary = any(cells.arity(seg.op) == 2 for seg in level.segments)
    if two_ary:
        ns[f"AB{index}"] = np.ascontiguousarray(
            np.concatenate([level.a_index, level.b_index])
        )
        lines.append(f"    take(AB{index}, 0, ab_buf[:{2 * k}], 'clip')")
    else:
        ns[f"AB{index}"] = level.a_index
        lines.append(f"    take(AB{index}, 0, ab_buf[:{k}], 'clip')")
    out = level.out_index
    contiguous = bool(np.all(np.diff(out) == 1)) if k > 1 else True
    lo = int(out[0])

    def out_slice(seg) -> str:
        if contiguous:
            return f"values[{lo + seg.start}:{lo + seg.end}]"
        return f"ab_buf[{seg.start}:{seg.end}]"

    for seg in level.segments:
        a = f"ab_buf[{seg.start}:{seg.end}]"
        o = out_slice(seg)
        if seg.op == cells.NOT:
            lines.append(f"    binv({a}, out={o})")
        else:
            b = f"ab_buf[{k + seg.start}:{k + seg.end}]"
            name, inverted = _MISO_KERNELS[seg.op]
            lines.append(f"    {name}({a}, {b}, out={o})")
            if inverted:
                lines.append(f"    binv({o}, out={o})")
    if not contiguous:
        runs: List[Tuple[int, int]] = []  # (start, end) positions
        start = 0
        for j in range(1, k + 1):
            if j == k or int(out[j]) != int(out[j - 1]) + 1:
                runs.append((start, j))
                start = j
        rest = [(s, e) for s, e in runs if e - s < SCATTER_RUN_MIN]
        for s, e in runs:
            if e - s >= SCATTER_RUN_MIN:
                o_lo = int(out[s])
                lines.append(
                    f"    values[{o_lo}:{o_lo + e - s}] = ab_buf[{s}:{e}]"
                )
        if rest:
            pos = np.concatenate(
                [np.arange(s, e, dtype=np.intp) for s, e in rest]
            )
            ns[f"O{index}"] = np.ascontiguousarray(out[pos])
            if len(rest) == len(runs) and len(pos) == k:
                lines.append(f"    values[O{index}] = ab_buf[:{k}]")
            else:
                ns[f"S{index}"] = pos
                lines.append(f"    values[O{index}] = ab_buf[S{index}]")


#: kernel prologue: ufuncs enter as default arguments (local-variable
#: lookups inside the generated body, not global dict lookups) and the
#: bound ``take`` method is hoisted out of the level sequence.
_KERNEL_HEAD = (
    "def _kernel(values, rows, ab_buf, band=_band, bor=_bor, "
    "bxor=_bxor, binv=_binv):\n    take = values.take"
)

#: prologue of the timed profiling kernel: identical dataflow, plus a
#: ``times`` accumulator written once per level.
_TIMED_KERNEL_HEAD = (
    "def _kernel(values, rows, ab_buf, times, band=_band, bor=_bor, "
    "bxor=_bxor, binv=_binv, perf=_perf):\n    take = values.take"
)


def _compile_kernel(lines: List[str], ns: Dict[str, object]):
    source = "\n".join(lines)
    exec(compile(source, "<fused-kernel>", "exec"), ns)  # noqa: S102
    kernel = ns["_kernel"]
    kernel.__source__ = source  # inspectable, for tests and debugging
    return kernel


def generate_kernel(fused: FusedProgram, *, timed: bool = False) -> Callable:
    """Compile the vector run kernel of one fused program.

    The kernel executes every level in place over a workspace:
    ``kernel(values, rows, ab_buf)``.  With ``timed`` each level is
    bracketed by ``perf_counter`` reads accumulated into a ``times``
    array — ``kernel(values, rows, ab_buf, times)`` — which is the
    sampling profiler's view of the *actual generated kernel*, not an
    interpreted re-execution, so per-level shares match production runs.
    """
    ns: Dict[str, object] = {
        "_band": np.bitwise_and,
        "_bor": np.bitwise_or,
        "_bxor": np.bitwise_xor,
        "_binv": np.invert,
        "_perf": time.perf_counter,
    }
    lines = [_TIMED_KERNEL_HEAD if timed else _KERNEL_HEAD]
    for index, level in enumerate(fused.levels):
        if timed:
            lines.append("    _t0 = perf()")
        if level.num_instructions <= INLINE_MAX and _inline_safe(level):
            _emit_inline_level(lines, level)
        else:
            _emit_gather_level(lines, ns, index, level)
        if timed:
            lines.append(f"    times[{index}] += perf() - _t0")
    return _compile_kernel(lines, ns)


def ensure_kernel(fused: FusedProgram) -> Callable:
    """The vector kernel of ``fused``, compiling (once) on first use."""
    kernel = fused.kernel
    if kernel is not None:
        return kernel
    with _KERNEL_LOCK:
        if fused.kernel is None:
            fused.kernel = generate_kernel(fused)
        return fused.kernel


def ensure_timed_kernel(fused: FusedProgram) -> Callable:
    """The timed vector kernel, compiled once and cached on the fusion
    (in ``native_cache``, like every lazily-derived executable)."""
    kernel = fused.native_cache.get("timed_kernel")
    if kernel is not None:
        return kernel
    with _KERNEL_LOCK:
        if "timed_kernel" not in fused.native_cache:
            fused.native_cache["timed_kernel"] = generate_kernel(
                fused, timed=True
            )
        return fused.native_cache["timed_kernel"]


# ----------------------------------------------------------------------
# Workspaces
# ----------------------------------------------------------------------
class _Workspace:
    """Preallocated buffers for one batch shape: the register file, plus
    the scratch of each executable form from the first time that form
    runs on the shape — the vector kernel's whole-level a+b gather
    buffer, the rowwise form's cycle-MOV rows and bound calls."""

    __slots__ = (
        "fused", "words", "values", "rows", "pi_block",
        "_ab_buf", "_mov_rows", "_calls",
    )

    def __init__(self, fused: FusedProgram, shape: Tuple[int, ...]) -> None:
        self.fused = fused
        self.words = math.prod(shape)
        self.values = np.empty((fused.num_regs,) + shape, dtype=_WORD)
        self.values[0] = 0
        self.values[1] = _WORD(0xFFFFFFFFFFFFFFFF)
        # Prebound row views: both forms index rows[i] instead of
        # re-slicing values[i] per instruction, and input binding
        # concatenates straight into the pinned PI block.
        self.rows = list(self.values)
        self.pi_block = self.values[_PI_BASE:_PI_BASE + len(fused.pi_regs)]
        self._ab_buf: Optional[np.ndarray] = None
        self._mov_rows: Optional[np.ndarray] = None
        self._calls: Optional[Tuple[list, List[int]]] = None

    @property
    def ab_buf(self) -> np.ndarray:
        """The vector kernel's gather scratch (two operand rows per
        instruction of the widest level)."""
        if self._ab_buf is None:
            width = max(2 * self.fused.max_level_width, 1)
            self._ab_buf = np.empty(
                (width,) + self.values.shape[1:], dtype=_WORD
            )
        return self._ab_buf

    def bound_calls(self) -> Tuple[list, List[int]]:
        """The rowwise form over this workspace: the packed stream as
        ``(ufunc, (row views...))`` calls plus each level's first call
        (an inverting opcode is two calls, so these are not the stream's
        ``level_starts``)."""
        if self._calls is not None:
            return self._calls
        stream = pack_stream(self.fused)
        self._mov_rows = np.empty(
            (stream.num_regs - self.fused.num_regs,) + self.values.shape[1:],
            dtype=_WORD,
        )
        rows = self.rows + list(self._mov_rows)
        ops = stream.ops.tolist()
        a_reg = stream.a_reg.tolist()
        b_reg = stream.b_reg.tolist()
        out_reg = stream.out_reg.tolist()
        bounds = stream.level_starts.tolist()
        calls: list = []
        call_starts = [0]
        for level in range(stream.num_levels):
            for i in range(bounds[level], bounds[level + 1]):
                op = ops[i]
                out = rows[out_reg[i]]
                if op == OP_MOV:
                    calls.append((np.copyto, (out, rows[a_reg[i]])))
                elif op == OP_NOT:
                    calls.append((np.invert, (rows[a_reg[i]], out)))
                else:
                    func, inverted = STREAM_FUNCS[op]
                    calls.append(
                        (func, (rows[a_reg[i]], rows[b_reg[i]], out))
                    )
                    if inverted:
                        calls.append((np.invert, (out, out)))
            call_starts.append(len(calls))
        self._calls = (calls, call_starts)
        return self._calls

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + sum(
            buf.nbytes
            for buf in (self._ab_buf, self._mov_rows)
            if buf is not None
        )


def run_levels(
    ws: _Workspace,
    rowwise_min_words: float,
    times: Optional[np.ndarray] = None,
) -> str:
    """Execute every level in place over ``ws`` and name the form used.

    The one place that chooses between the two executable forms: the
    rowwise form from ``rowwise_min_words`` words up, the vector kernel
    below.  With ``times`` (one float per level) each level's
    wall time is accumulated into it.
    """
    if ws.words >= rowwise_min_words:
        calls, call_starts = ws.bound_calls()
        if times is None:
            for func, args in calls:
                func(*args)
        else:
            perf = time.perf_counter
            for level in range(len(call_starts) - 1):
                chunk = calls[call_starts[level]:call_starts[level + 1]]
                start = perf()
                for func, args in chunk:
                    func(*args)
                times[level] += perf() - start
        return "rowwise"
    if times is None:
        ensure_kernel(ws.fused)(ws.values, ws.rows, ws.ab_buf)
    else:
        ensure_timed_kernel(ws.fused)(ws.values, ws.rows, ws.ab_buf, times)
    return "vector"


# ----------------------------------------------------------------------
@register_engine
class FusedEngine(ExecutionEngine):
    """Zero-allocation execution of a liveness-renamed lowered program."""

    name = "fused"
    uses_trace = True

    @classmethod
    def from_artifact(cls, artifact, **options) -> "FusedEngine":
        # Embedded renamed tables boot with zero lowering and zero
        # renaming; the engine falls back to fusing the embedded (or
        # freshly lowered) trace when they are absent.
        return cls(
            artifact.program,
            trace=artifact.trace,
            fused=artifact.fused,
            **options,
        )

    def __init__(
        self,
        program: Program,
        trace: Optional[TraceProgram] = None,
        fused: Optional[FusedProgram] = None,
        *,
        rowwise_min_words: Optional[int] = None,
    ) -> None:
        super().__init__(program)
        self.rowwise_min_words = (
            ROWWISE_MIN_WORDS
            if rowwise_min_words is None
            else int(rowwise_min_words)
        )
        if fused is not None and (trace is None or fused.trace is trace):
            # Prebuilt renamed tables (e.g. artifact-embedded): adopt
            # them; a live canonical fusion of the same trace wins.
            self.fused = adopt_fusion(fused)
        else:
            if trace is None:
                trace = lower_program(program)
            self.fused = fuse_trace(trace)
        self.trace = self.fused.trace
        ensure_kernel(self.fused)  # compiled at boot, not on the first run
        # Workspaces are mutable per-instance state; the lock keeps a
        # Session shared across threads correct (the re-entrancy the
        # old trace default offered), at ~100ns uncontended cost.
        # Thread-PARALLEL serving still wants one engine per worker,
        # which is what WorkerPool builds.
        self._run_lock = threading.Lock()
        self._pi = WordGather(self.fused.pi_regs)
        # PI registers are pinned to one contiguous block by the
        # allocator, so the gather writes straight into that block; the
        # row-by-row fallback guards the invariant anyway.
        regs = list(self.fused.pi_regs.values())
        self._pi_contiguous = regs == list(
            range(_PI_BASE, _PI_BASE + len(regs))
        )
        self._workspaces: "OrderedDict[Tuple[int, ...], _Workspace]" = \
            OrderedDict()

    # ------------------------------------------------------------------
    def workspace(self, shape: Tuple[int, ...]) -> _Workspace:
        """The (pre)allocated workspace for one batch shape."""
        ws = self._workspaces.get(shape)
        if ws is None:
            ws = _Workspace(self.fused, shape)
            self._workspaces[shape] = ws
            while len(self._workspaces) > MAX_WORKSPACES:
                self._workspaces.popitem(last=False)
        else:
            self._workspaces.move_to_end(shape)
        return ws

    def _pi_block(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Where the gather writes a batch of this shape: the
        workspace's pinned PI rows (call under the run lock)."""
        if self._pi_contiguous:
            return self.workspace(shape).pi_block
        return self._pi.fresh_block(shape)

    def _bind(
        self, inputs: Dict[str, np.ndarray]
    ) -> Tuple[_Workspace, bool]:
        """Gather ``inputs`` into the workspace of their batch shape
        (before every run: the allocator reuses PI registers once they
        are consumed).  Returns the workspace and the squeeze flag."""
        block, squeeze = self._pi.gather(inputs, self._pi_block)
        return self._workspace_of(block), squeeze

    def _workspace_of(self, block: np.ndarray) -> _Workspace:
        ws = self.workspace(block.shape[1:])
        if not self._pi_contiguous:
            for reg, word in zip(self.fused.pi_regs.values(), block):
                np.copyto(ws.rows[reg], word)
        return ws

    def _outputs(self, ws: _Workspace) -> Dict[str, np.ndarray]:
        rows = ws.rows
        return {
            name: rows[reg].copy()
            for name, reg in self.fused.output_regs.items()
        }

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        with self._run_lock:
            ws, squeeze = self._bind(inputs)
            run_levels(ws, self.rowwise_min_words)
            outputs = self._outputs(ws)
        return table_result(self.trace, outputs, squeeze)

    # ------------------------------------------------------------------
    def profile_levels(
        self, inputs: Dict[str, np.ndarray], *, repeats: int = 1
    ) -> List[Dict[str, object]]:
        """Per-level wall time through the form :meth:`run` would pick.

        Runs that form for this batch shape with one ``perf_counter``
        bracket per level (identical dataflow: the timed variant of the
        generated vector kernel, or the bound rowwise calls level by
        level), accumulating over ``repeats`` runs — so the per-level
        shares reflect production execution, not an interpreted
        re-execution."""
        with self._run_lock:
            times = np.zeros(len(self.fused.levels), dtype=np.float64)
            for _ in range(max(1, int(repeats))):
                ws, _squeeze = self._bind(inputs)
                kernel_name = run_levels(ws, self.rowwise_min_words, times)
        return self._level_records(times, kernel=kernel_name)

    def _level_records(
        self, seconds: np.ndarray, **extra
    ) -> List[Dict[str, object]]:
        return [
            {
                "level": index,
                "cycle": level.cycle,
                "instructions": level.num_instructions,
                "segments": len(level.segments),
                "seconds": float(seconds[index]),
                **extra,
            }
            for index, level in enumerate(self.fused.levels)
        ]

    # ------------------------------------------------------------------
    def calibrate_crossover(
        self,
        *,
        word_sizes: Optional[List[int]] = None,
        repeats: int = 5,
        seed: int = 0,
    ) -> Dict[str, object]:
        """Measure the vector/rowwise crossover on this host.

        Times both executable forms over a sweep of batch word counts
        (random stimulus, best of ``repeats`` after one untimed run that
        allocates and binds the form) and reports the smallest size
        where the rowwise form wins — the measured value to pass as
        ``rowwise_min_words``.  Purely diagnostic: does not change this
        engine's setting.
        """
        from ..lpu.functional import random_stimulus

        if word_sizes is None:
            word_sizes = [2 ** n for n in range(12)]  # 1 .. 2048
        points: List[Dict[str, object]] = []
        crossover: Optional[int] = None
        with self._run_lock:
            for words_n in word_sizes:
                stim = random_stimulus(
                    self.program.graph, array_size=words_n, seed=seed
                )
                ws, _squeeze = self._bind(stim)
                timings = {}
                # a threshold no batch reaches forces the vector kernel,
                # one every batch reaches the rowwise form
                for label, threshold in (
                    ("vector", math.inf), ("rowwise", 1),
                ):
                    run_levels(ws, threshold)
                    best = float("inf")
                    for _ in range(max(1, int(repeats))):
                        self._bind(stim)
                        start = time.perf_counter()
                        run_levels(ws, threshold)
                        best = min(best, time.perf_counter() - start)
                    timings[label] = best
                points.append(
                    {
                        "words": words_n,
                        "vector_seconds": timings["vector"],
                        "rowwise_seconds": timings["rowwise"],
                    }
                )
                if (
                    crossover is None
                    and timings["rowwise"] <= timings["vector"]
                ):
                    crossover = words_n
        return {
            "graph": self.program.graph.name,
            "default_rowwise_min_words": ROWWISE_MIN_WORDS,
            "engine_rowwise_min_words": self.rowwise_min_words,
            "measured_crossover_words": crossover,
            "points": points,
        }

    # ------------------------------------------------------------------
    def workspace_stats(self) -> Dict[str, object]:
        """Sizes of the live workspaces (for diagnostics and benches)."""
        return {
            "num_regs": self.fused.num_regs,
            "trace_slots": self.trace.num_slots,
            "max_level_width": self.fused.max_level_width,
            "shapes": {
                str(shape): ws.nbytes
                for shape, ws in self._workspaces.items()
            },
        }
