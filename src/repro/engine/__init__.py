"""Pluggable execution engines for compiled LPU programs.

Five engines execute the same :class:`~repro.core.codegen.Program` with
bit-identical outputs and identical run statistics:

* :class:`CycleAccurateEngine` (``"cycle"``) — the macro-cycle-accurate
  hardware model (ground truth),
* :class:`TraceEngine` (``"trace"``) — the program lowered once to flat
  numpy tables and executed with vectorized gathers,
* :class:`FusedEngine` (``"fused"``) — the lowered tables renamed onto a
  compact register file (liveness-driven slot reuse) and executed by a
  generated per-program kernel — from 512 words up, by the hazard-ordered
  instruction stream one ufunc per gate — over preallocated workspaces:
  the fastest batch path and the serving default,
* :class:`DeltaEngine` (``"delta"``) — stateful incremental execution
  for low-entropy streams: XOR-diffs each sample against the previous
  one and recomputes only the dirty cone, falling back to the fused
  dense kernel when too much changed,
* :class:`NativeEngine` (``"native"``) — the fused tables executed
  through native multi-core/GPU backends (threaded word shards, and —
  import-gated — numba and CuPy over one packed instruction stream),
  falling back deterministically to the fused kernels.

:class:`Session` amortizes compile + lowering across repeated runs.
"""

from .base import (
    SAMPLES_PER_WORD,
    ExecutionEngine,
    SimulationResult,
    available_engines,
    create_engine,
    engine_uses_trace,
    register_engine,
)
from .cycle import CycleAccurateEngine
from .delta import DeltaEngine, DeltaState
from .fused import FusedEngine
from .native import NativeEngine
from .native import capabilities as native_capabilities
from .session import DEFAULT_ENGINE, Session
from .trace import TraceEngine

__all__ = [
    "SAMPLES_PER_WORD",
    "ExecutionEngine",
    "SimulationResult",
    "available_engines",
    "create_engine",
    "engine_uses_trace",
    "register_engine",
    "CycleAccurateEngine",
    "DeltaEngine",
    "DeltaState",
    "FusedEngine",
    "NativeEngine",
    "TraceEngine",
    "Session",
    "DEFAULT_ENGINE",
    "native_capabilities",
]
