"""The native engine: multi-core and GPU backends over the fused tables.

Every engine value is a ``uint64`` word of 64 parallel Boolean sample
lanes and every gate is one bitwise op over whole words — the layout the
paper's LPU exploits in hardware.  The remaining software speed lever is
escaping the Python interpreter loop, and the
:class:`~repro.core.liveness.FusedProgram` register tables are exactly
the right IR to lift: :mod:`repro.core.stream` packs them into one flat
**instruction stream** (opcode / a / b / out arrays, each level
hazard-ordered — readers of a register before its writer, one scratch
MOV per cycle broken — so strictly sequential execution is bit-identical
to the level-parallel semantics) and this module executes it through
pluggable backends:

* ``"threaded"`` — pure numpy/stdlib, always available: the batch word
  axis is split into per-thread shards, each running the fused engine's
  executable form for its shard width (the stream bound to row views
  from ``rowwise_min_words`` words per shard up, the generated vector
  kernel below) over its own workspace.  Numpy ufuncs release the GIL,
  so shards genuinely run on multiple cores; a crossover heuristic falls
  back to single-thread execution below :data:`MIN_SHARD_WORDS` words
  per shard.
* ``"numba"`` — optional: one program-independent
  ``@njit(parallel=True, nogil=True)`` loop over the packed stream,
  parallelized over word blocks.
* ``"cupy"`` — optional: the same stream lifted onto the GPU as one
  ``RawKernel`` (one CUDA thread per word column, sequential over the
  stream — columns are independent, so no synchronization is needed).
* ``"fused"`` — single-threaded execution, the terminal fallback
  (identical to :class:`~repro.engine.fused.FusedEngine`).

Both optional backends are gated behind import checks — the baseline
pure-numpy environment never imports them — and ``backend="auto"``
resolves through the deterministic fallback chain
``cupy -> numba -> threaded -> fused`` (:func:`capabilities` reports
what this host offers).  The packed stream and device-resident tables
are cached on the ``FusedProgram`` (``native_cache``) alongside the
exec-generated kernel, so a worker pool over one program packs once.

Outputs AND statistics are bit-identical to every other engine; the
parity matrix in ``tests/test_native.py`` gates every backend over all
model workloads, directly and through ``.lpa`` round-trips.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.codegen import Program
from ..core.liveness import FusedProgram
from ..core.stream import (
    OP_MOV,
    OP_NOT,
    STREAM_FUNCS,
    PackedStream,
    pack_stream,
)
from ..core.trace import TraceProgram
from ..lpu.simulator import SimulationResult
from .base import register_engine, table_result
from .fused import _WORD, FusedEngine, _Workspace, run_levels

__all__ = [
    "FALLBACK_CHAIN",
    "MIN_SHARD_WORDS",
    "NativeEngine",
    "PackedStream",
    "capabilities",
    "execute_stream",
    "pack_stream",
]

#: deterministic backend preference of ``backend="auto"``.
FALLBACK_CHAIN: Tuple[str, ...] = ("cupy", "numba", "threaded", "fused")

#: below this many words per shard the threaded backend runs
#: single-threaded — thread dispatch costs more than it buys.
MIN_SHARD_WORDS = 64

#: word-block size of the numba kernel's parallel outer loop.
NUMBA_BLOCK_WORDS = 1024


# ----------------------------------------------------------------------
# Packed instruction stream (built by repro.core.stream)
# ----------------------------------------------------------------------
def execute_stream(
    stream: PackedStream,
    values: np.ndarray,
    start: int = 0,
    end: Optional[int] = None,
) -> None:
    """Reference interpreter: run ``stream[start:end]`` sequentially over
    a ``(num_regs, words...)`` value table, in place.

    This is the semantics every native backend must match — the numba
    and CUDA kernels are transliterations of this loop, the fused
    engine's bound calls a pre-resolved copy of it — and it runs on pure
    numpy, so the tier-1 suite validates the packed IR (hazard order and
    cycle MOVs included) without any optional dependency.
    """
    if end is None:
        end = stream.num_instructions
    ops = stream.ops
    a_reg = stream.a_reg
    b_reg = stream.b_reg
    out_reg = stream.out_reg
    for i in range(start, end):
        op = int(ops[i])
        a = values[a_reg[i]]
        o = values[out_reg[i]]
        if op == OP_MOV:
            np.copyto(o, a)
        elif op == OP_NOT:
            np.invert(a, out=o)
        else:
            func, inverted = STREAM_FUNCS[op]
            func(a, values[b_reg[i]], out=o)
            if inverted:
                np.invert(o, out=o)


# ----------------------------------------------------------------------
# Optional-dependency probes (import-gated: the pure-numpy baseline
# environment never pays for — or fails on — missing accelerators).
# ----------------------------------------------------------------------
_NUMBA_KERNEL = None
_NUMBA_ERROR: Optional[str] = None


def _load_numba_kernel():
    """The program-independent numba stream kernel, compiled once per
    process; ``None`` (with the reason recorded) when numba is absent."""
    global _NUMBA_KERNEL, _NUMBA_ERROR
    if _NUMBA_KERNEL is not None or _NUMBA_ERROR is not None:
        return _NUMBA_KERNEL
    try:
        import numba
    except ImportError as exc:  # pragma: no cover - env-dependent
        _NUMBA_ERROR = str(exc)
        return None

    @numba.njit(parallel=True, nogil=True)
    def _stream_kernel(ops, a_reg, b_reg, out_reg, values, block):
        n = ops.shape[0]
        n_words = values.shape[1]
        n_blocks = (n_words + block - 1) // block
        for bi in numba.prange(n_blocks):
            lo = bi * block
            hi = min(lo + block, n_words)
            for i in range(n):
                op = ops[i]
                a = a_reg[i]
                b = b_reg[i]
                o = out_reg[i]
                if op == 0:  # MOV
                    for w in range(lo, hi):
                        values[o, w] = values[a, w]
                elif op == 1:  # AND
                    for w in range(lo, hi):
                        values[o, w] = values[a, w] & values[b, w]
                elif op == 2:  # OR
                    for w in range(lo, hi):
                        values[o, w] = values[a, w] | values[b, w]
                elif op == 3:  # XOR
                    for w in range(lo, hi):
                        values[o, w] = values[a, w] ^ values[b, w]
                elif op == 4:  # NAND
                    for w in range(lo, hi):
                        values[o, w] = ~(values[a, w] & values[b, w])
                elif op == 5:  # NOR
                    for w in range(lo, hi):
                        values[o, w] = ~(values[a, w] | values[b, w])
                elif op == 6:  # XNOR
                    for w in range(lo, hi):
                        values[o, w] = ~(values[a, w] ^ values[b, w])
                else:  # NOT
                    for w in range(lo, hi):
                        values[o, w] = ~values[a, w]

    _NUMBA_KERNEL = _stream_kernel
    return _NUMBA_KERNEL


#: CUDA source of the CuPy backend: one thread per word column, the
#: whole stream executed sequentially per thread.  Columns never share
#: registers *elements* (register rows are indexed [reg][word]), so the
#: only ordering requirement is the within-column program order each
#: thread executes natively; the stream is already hazard-ordered.
_CUDA_SOURCE = r"""
extern "C" __global__
void lpu_stream(const unsigned char* __restrict__ ops,
                const int* __restrict__ a_reg,
                const int* __restrict__ b_reg,
                const int* __restrict__ out_reg,
                unsigned long long* __restrict__ values,
                const long long n_instr,
                const long long n_words)
{
    const long long w =
        (long long)blockIdx.x * blockDim.x + threadIdx.x;
    if (w >= n_words) return;
    for (long long i = 0; i < n_instr; ++i) {
        const unsigned long long a =
            values[(long long)a_reg[i] * n_words + w];
        const unsigned long long b =
            values[(long long)b_reg[i] * n_words + w];
        unsigned long long r;
        switch (ops[i]) {
            case 0: r = a; break;
            case 1: r = a & b; break;
            case 2: r = a | b; break;
            case 3: r = a ^ b; break;
            case 4: r = ~(a & b); break;
            case 5: r = ~(a | b); break;
            case 6: r = ~(a ^ b); break;
            default: r = ~a; break;
        }
        values[(long long)out_reg[i] * n_words + w] = r;
    }
}
"""

_CUPY = None
_CUPY_ERROR: Optional[str] = None


def _load_cupy():
    """The cupy module with a usable CUDA device, else ``None``."""
    global _CUPY, _CUPY_ERROR
    if _CUPY is not None or _CUPY_ERROR is not None:
        return _CUPY
    try:
        import cupy
        if cupy.cuda.runtime.getDeviceCount() < 1:
            raise RuntimeError("no CUDA device visible")
    except Exception as exc:  # pragma: no cover - env-dependent
        _CUPY_ERROR = str(exc)
        return None
    _CUPY = cupy
    return _CUPY


def _backend_available(name: str) -> bool:
    if name in ("threaded", "fused"):
        return True
    if name == "numba":
        return _load_numba_kernel() is not None
    if name == "cupy":
        return _load_cupy() is not None
    return False


def capabilities() -> Dict[str, object]:
    """What the native engine can run on this host, and why not."""
    report: Dict[str, object] = {
        "fallback_chain": list(FALLBACK_CHAIN),
        "cpu_count": os.cpu_count() or 1,
        "threaded": True,
        "fused": True,
        "numba": _backend_available("numba"),
        "cupy": _backend_available("cupy"),
    }
    if not report["numba"]:
        report["numba_error"] = _NUMBA_ERROR
    if not report["cupy"]:
        report["cupy_error"] = _CUPY_ERROR
    report["auto_backend"] = next(
        name for name in FALLBACK_CHAIN if _backend_available(name)
    )
    return report


# ----------------------------------------------------------------------
@register_engine
class NativeEngine(FusedEngine):
    """Fused-table execution through native multi-core / GPU backends.

    Same program sources, capability surface, outputs, and statistics as
    :class:`~repro.engine.fused.FusedEngine` (it *is* one, sharing the
    fusion, workspaces, and executable forms), plus the backend options:

    Args:
        backend: ``"auto"`` (default — first available of
            ``cupy -> numba -> threaded -> fused``) or an explicit
            backend name; requesting an unavailable backend raises.
        threads: worker threads of the threaded backend
            (``os.cpu_count()`` default).
        min_shard_words: words per shard below which the threaded
            backend runs single-threaded (:data:`MIN_SHARD_WORDS`
            default).
        rowwise_min_words: the fused vector/rowwise crossover,
            inherited (applies to the single-thread fallback and to each
            shard's choice of form).
    """

    name = "native"
    uses_trace = True

    def __init__(
        self,
        program: Program,
        trace: Optional[TraceProgram] = None,
        fused: Optional[FusedProgram] = None,
        *,
        backend: str = "auto",
        threads: Optional[int] = None,
        min_shard_words: Optional[int] = None,
        rowwise_min_words: Optional[int] = None,
    ) -> None:
        super().__init__(
            program, trace, fused, rowwise_min_words=rowwise_min_words
        )
        if backend == "auto":
            self.backend = next(
                name for name in FALLBACK_CHAIN
                if _backend_available(name)
            )
        elif backend in FALLBACK_CHAIN:
            if not _backend_available(backend):
                reason = (
                    _NUMBA_ERROR if backend == "numba" else _CUPY_ERROR
                )
                raise ValueError(
                    f"native backend {backend!r} is unavailable on this "
                    f"host: {reason or 'import failed'}"
                )
            self.backend = backend
        else:
            raise ValueError(
                f"unknown native backend {backend!r}; one of "
                f"{('auto',) + FALLBACK_CHAIN}"
            )
        self.threads = int(threads) if threads else (os.cpu_count() or 1)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        self.min_shard_words = (
            MIN_SHARD_WORDS
            if min_shard_words is None
            else max(1, int(min_shard_words))
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        #: per-(shard slot, shape) workspaces of the threaded backend —
        #: concurrent shards must never share mutable buffers, so these
        #: are distinct from the inherited per-shape workspaces.
        self._shard_ws: Dict[Tuple[int, Tuple[int, ...]], _Workspace] = {}
        #: per-word-count (num_regs, W) value tables of the stream
        #: backends (numba), scratch rows included.
        self._stream_values: Dict[int, np.ndarray] = {}

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut down the shard executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __del__(self):  # pragma: no cover - interpreter-dependent
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
        except Exception:
            pass

    # -- shared pieces -------------------------------------------------
    def _shard_count(self, num_words: int) -> int:
        return max(
            1, min(self.threads, num_words // self.min_shard_words)
        )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.threads,
                thread_name_prefix="repro-native",
            )
        return self._executor

    def _shard_workspace(
        self, slot: int, shape: Tuple[int, ...]
    ) -> _Workspace:
        key = (slot, shape)
        ws = self._shard_ws.get(key)
        if ws is None:
            # One live shape per slot: shard geometry changes with the
            # batch size, so stale shapes would only pin memory.
            for stale in [k for k in self._shard_ws if k[0] == slot]:
                del self._shard_ws[stale]
            ws = _Workspace(self.fused, shape)
            self._shard_ws[key] = ws
        return ws

    def _off_workspace(self, num_words: int) -> bool:
        """True when this batch runs through a sharded or stream backend
        rather than the inherited single-thread workspace."""
        return self.backend in ("cupy", "numba") or (
            self.backend == "threaded" and self._shard_count(num_words) > 1
        )

    def _pi_block(self, shape: Tuple[int, ...]) -> np.ndarray:
        # those backends read a free-standing block, flattened to
        # (num_pi, num_words), from which every shard copies its columns
        if self._off_workspace(math.prod(shape)):
            return self._pi.fresh_block(shape)
        return super()._pi_block(shape)

    # -- threaded word-shard backend -----------------------------------
    def _bind_shard(self, ws, flat: np.ndarray, lo: int, hi: int) -> None:
        if self._pi_contiguous:
            ws.pi_block[...] = flat[:, lo:hi]
        else:
            for reg, word in zip(self.fused.pi_regs.values(), flat):
                np.copyto(ws.rows[reg], word[lo:hi])

    def _run_threaded(
        self,
        flat: np.ndarray,
        num_words: int,
        shards: int,
        shard_times: Optional[np.ndarray] = None,
        repeats: int = 1,
    ) -> Dict[str, np.ndarray]:
        """Every shard on its own thread and workspace; ``shard_times``
        (per-level seconds, one row per shard) makes the runs timed."""
        bounds = [
            num_words * t // shards for t in range(shards + 1)
        ]
        out_items = list(self.fused.output_regs.items())
        outputs = {
            name: np.empty(num_words, dtype=_WORD)
            for name, _ in out_items
        }

        def run_shard(t: int) -> None:
            lo, hi = bounds[t], bounds[t + 1]
            ws = self._shard_workspace(t, (hi - lo,))
            times = None if shard_times is None else shard_times[t]
            for _ in range(repeats):
                self._bind_shard(ws, flat, lo, hi)
                run_levels(ws, self.rowwise_min_words, times)
            for name, reg in out_items:
                outputs[name][lo:hi] = ws.rows[reg]

        executor = self._ensure_executor()
        futures = [
            executor.submit(run_shard, t) for t in range(shards)
        ]
        for future in futures:
            future.result()
        return outputs

    # -- numba stream backend ------------------------------------------
    def _stream_table(self, num_words: int) -> np.ndarray:
        stream = pack_stream(self.fused)
        values = self._stream_values.get(num_words)
        if values is None:
            self._stream_values.clear()  # one live batch size
            values = np.empty(
                (stream.num_regs, num_words), dtype=_WORD
            )
            values[0] = 0
            values[1] = _WORD(0xFFFFFFFFFFFFFFFF)
            self._stream_values[num_words] = values
        return values

    def _bind_stream(self, values: np.ndarray, flat: np.ndarray) -> None:
        for reg, word in zip(self.fused.pi_regs.values(), flat):
            np.copyto(values[reg], word)

    def _run_numba(
        self, flat: np.ndarray, num_words: int
    ) -> Dict[str, np.ndarray]:
        stream = pack_stream(self.fused)
        kernel = _load_numba_kernel()
        values = self._stream_table(num_words)
        self._bind_stream(values, flat)
        kernel(
            stream.ops, stream.a_reg, stream.b_reg, stream.out_reg,
            values, NUMBA_BLOCK_WORDS,
        )
        return {
            name: values[reg].copy()
            for name, reg in self.fused.output_regs.items()
        }

    # -- cupy stream backend -------------------------------------------
    def _cupy_tables(self, cupy):
        tables = self.fused.native_cache.get("cupy_tables")
        if tables is None:
            stream = pack_stream(self.fused)
            kernel = cupy.RawKernel(_CUDA_SOURCE, "lpu_stream")
            tables = {
                "kernel": kernel,
                "ops": cupy.asarray(stream.ops),
                "a_reg": cupy.asarray(stream.a_reg),
                "b_reg": cupy.asarray(stream.b_reg),
                "out_reg": cupy.asarray(stream.out_reg),
                "n_instr": stream.num_instructions,
                "num_regs": stream.num_regs,
            }
            self.fused.native_cache["cupy_tables"] = tables
        return tables

    def _run_cupy(
        self, flat: np.ndarray, num_words: int
    ) -> Dict[str, np.ndarray]:
        cupy = _load_cupy()
        tables = self._cupy_tables(cupy)
        values = cupy.empty(
            (tables["num_regs"], num_words), dtype=_WORD
        )
        values[0] = 0
        values[1] = _WORD(0xFFFFFFFFFFFFFFFF)
        pi_regs = list(self.fused.pi_regs.values())
        if pi_regs and pi_regs == list(
            range(pi_regs[0], pi_regs[0] + len(pi_regs))
        ):
            values[pi_regs[0]:pi_regs[0] + len(pi_regs)] = (
                cupy.asarray(flat)
            )
        else:  # pragma: no cover - foreign register layouts
            for reg, word in zip(pi_regs, flat):
                values[reg] = cupy.asarray(word)
        block = 256
        grid = (num_words + block - 1) // block
        tables["kernel"](
            (grid,), (block,),
            (
                tables["ops"], tables["a_reg"], tables["b_reg"],
                tables["out_reg"], values,
                np.int64(tables["n_instr"]), np.int64(num_words),
            ),
        )
        return {
            name: cupy.asnumpy(values[reg])
            for name, reg in self.fused.output_regs.items()
        }

    # -- dispatch ------------------------------------------------------
    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        with self._run_lock:
            block, squeeze = self._pi.gather(inputs, self._pi_block)
            shape = block.shape[1:]
            num_words = math.prod(shape)
            if self._off_workspace(num_words):
                flat = block.reshape(len(block), num_words)
                if self.backend == "cupy":
                    outputs = self._run_cupy(flat, num_words)
                elif self.backend == "numba":
                    outputs = self._run_numba(flat, num_words)
                else:
                    outputs = self._run_threaded(
                        flat, num_words, self._shard_count(num_words)
                    )
                outputs = {
                    name: np.ascontiguousarray(word).reshape(shape)
                    for name, word in outputs.items()
                }
            else:
                # Terminal fallback (and the threaded backend's small-
                # batch crossover): single-thread fused execution.
                ws = self._workspace_of(block)
                run_levels(ws, self.rowwise_min_words)
                outputs = self._outputs(ws)
        return table_result(self.trace, outputs, squeeze)

    # -- profiling -----------------------------------------------------
    def profile_levels(
        self, inputs: Dict[str, np.ndarray], *, repeats: int = 1
    ) -> List[Dict[str, object]]:
        """Per-level timing through the backend this engine runs.

        The threaded backend profiles every shard concurrently, each
        through its timed fused form, and reports the per-level critical
        path (max across shards); the stream backends (numba/cupy) time
        per-level sub-stream launches; everything else inherits the
        fused profile.  Records carry a ``backend`` key.
        """
        with self._run_lock:
            block, _squeeze = self._pi.gather(inputs, self._pi_block)
            flat = block.reshape(len(block), -1)
            if not self._off_workspace(flat.shape[1]):
                records = None
            elif self.backend == "threaded":
                records = self._profile_threaded(flat, repeats)
            else:
                records = self._profile_stream(flat, repeats)
        if records is None:
            records = super().profile_levels(inputs, repeats=repeats)
        for record in records:
            record["backend"] = self.backend
        return records

    def _profile_threaded(
        self, flat: np.ndarray, repeats: int
    ) -> List[Dict[str, object]]:
        num_words = flat.shape[1]
        shards = self._shard_count(num_words)
        shard_times = np.zeros(
            (shards, len(self.fused.levels)), dtype=np.float64
        )
        self._run_threaded(
            flat, num_words, shards, shard_times, max(1, int(repeats))
        )
        return self._level_records(
            shard_times.max(axis=0), kernel="threaded-shards", shards=shards
        )

    def _profile_stream(
        self, flat: np.ndarray, repeats: int
    ) -> List[Dict[str, object]]:
        import time

        stream = pack_stream(self.fused)
        values = self._stream_table(flat.shape[1])
        kernel = _load_numba_kernel() if self.backend == "numba" else None
        times = np.zeros(stream.num_levels, dtype=np.float64)
        for _ in range(max(1, int(repeats))):
            self._bind_stream(values, flat)
            for index in range(stream.num_levels):
                s = int(stream.level_starts[index])
                e = int(stream.level_starts[index + 1])
                start = time.perf_counter()
                if kernel is not None:
                    kernel(
                        stream.ops[s:e], stream.a_reg[s:e],
                        stream.b_reg[s:e], stream.out_reg[s:e],
                        values, NUMBA_BLOCK_WORDS,
                    )
                else:  # cupy profiles through the host interpreter
                    execute_stream(stream, values, s, e)
                times[index] += time.perf_counter() - start
        return self._level_records(times, kernel="stream")

    # -- diagnostics ---------------------------------------------------
    def backend_stats(self) -> Dict[str, object]:
        """The active backend and its tuning knobs (for benches/CLI)."""
        return {
            "backend": self.backend,
            "threads": self.threads,
            "min_shard_words": self.min_shard_words,
            "rowwise_min_words": self.rowwise_min_words,
            "stream_instructions": (
                pack_stream(self.fused).num_instructions
            ),
            "stream_regs": pack_stream(self.fused).num_regs,
            "capabilities": capabilities(),
        }
