"""Sessions: compile once, run many times.

A :class:`Session` is the serving-oriented entry point of the engine layer:
it owns one compiled program and one engine instance, so the expensive
one-time work (netlist preprocessing, partitioning, scheduling, code
generation, and — for the trace engine — lowering to flat numpy tables) is
amortized across every subsequent :meth:`Session.run`.  Inputs may have any
batch shape: each array element is a packed 64-sample ``uint64`` word, so a
run over shape ``(array_size,)`` inputs performs inference on
``64 * array_size`` independent samples.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

import numpy as np

from ..core.codegen import Program
from ..core.compiler import CompileResult, compile_ffcl
from ..core.config import LPUConfig, PAPER_CONFIG
from ..lpu.simulator import SimulationResult
from ..netlist.graph import LogicGraph
from .base import SAMPLES_PER_WORD, ExecutionEngine, create_engine

#: Default engine for sessions and the serving layer: the fused engine is
#: bit-identical to ``"trace"`` and ``"cycle"`` (outputs and statistics —
#: proven over every model workload, directly and through ``.lpa`` round
#: trips, in tests/test_engine.py) while running the hot path with zero
#: steady-state allocation.
DEFAULT_ENGINE = "fused"


class Session:
    """One compiled workload bound to one execution engine.

    Args:
        source: a :class:`LogicGraph` to compile, an already-compiled
            :class:`Program` (its embedded config is used), or a
            deserialized :class:`~repro.artifact.format.ExecutableArtifact`
            (no compile and — with embedded trace tables — no lowering:
            the ahead-of-time serving path).
        config: LPU parameters, when compiling from a graph
            (:data:`~repro.core.config.PAPER_CONFIG` by default).
        engine: registered engine name (``"fused"``, ``"native"``,
            ``"trace"``, ...), or an
            already-constructed :class:`ExecutionEngine` bound to ``source``
            — the reuse hook serving layers use to share one-time lowering
            artifacts across many sessions over the same program.
        engine_options: engine-specific constructor keywords forwarded
            to :func:`repro.engine.create_engine` (the native engine's
            ``backend=``/``threads=``/``min_shard_words=``, the fused
            engine's ``rowwise_min_words=``, ...).  Only valid with an
            engine *name* — a pre-built engine instance already carries
            its options.
        **compile_kwargs: forwarded to :func:`repro.core.compile_ffcl`
            (``merge``, ``policy``, ``basis``, ...) when compiling.  This
            includes the pass-manager knobs: ``pipeline=`` selects a named
            or custom compile pipeline and ``pass_cache=`` shares
            pass-level results across sessions (see :mod:`repro.compiler`).
    """

    def __init__(
        self,
        source: Union[LogicGraph, Program],
        config: Optional[LPUConfig] = None,
        *,
        engine: Union[str, ExecutionEngine] = DEFAULT_ENGINE,
        engine_options: Optional[Mapping[str, object]] = None,
        **compile_kwargs,
    ) -> None:
        from ..artifact.format import ExecutableArtifact

        self.compile_result: Optional[CompileResult] = None
        self.artifact = None
        engine_source: Union[Program, ExecutableArtifact]
        if isinstance(source, (Program, ExecutableArtifact)):
            if compile_kwargs:
                raise ValueError(
                    "compile options are meaningless for a compiled "
                    "Program or artifact"
                )
            program = (
                source.program
                if isinstance(source, ExecutableArtifact)
                else source
            )
            if config is not None and config != program.config:
                raise ValueError(
                    "a compiled Program carries its own config; "
                    "recompile from the graph to change LPU parameters"
                )
            if isinstance(source, ExecutableArtifact):
                self.artifact = source
            engine_source = source
        else:
            self.compile_result = compile_ffcl(
                source, config if config is not None else PAPER_CONFIG,
                **compile_kwargs,
            )
            program = self.compile_result.program
            if program is None:  # pragma: no cover - guarded by compile_ffcl
                raise ValueError("compilation produced no program")
            engine_source = program
        self.program = program
        if isinstance(engine, ExecutionEngine):
            if engine_options:
                raise ValueError(
                    "engine_options apply when the session constructs "
                    "the engine; a pre-built engine instance already "
                    "carries its options"
                )
            if engine.program is not program:
                raise ValueError(
                    "the supplied engine instance executes a different "
                    "program than this session's source"
                )
            self.engine: ExecutionEngine = engine
        else:
            self.engine = create_engine(
                engine, engine_source, **dict(engine_options or {})
            )
        self.runs_completed = 0

    # ------------------------------------------------------------------
    @property
    def engine_name(self) -> str:
        return self.engine.name

    @property
    def config(self) -> LPUConfig:
        return self.program.config

    @property
    def graph(self) -> LogicGraph:
        return self.program.graph

    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        """One inference pass; statistics cover this run only."""
        result = self.engine.run(inputs)
        self.runs_completed += 1
        return result

    def run_random(
        self, array_size: int = 1, seed: int = 0
    ) -> SimulationResult:
        """One pass over random stimulus of ``array_size`` words per PI."""
        from ..lpu.functional import random_stimulus

        return self.run(
            random_stimulus(self.graph, array_size=array_size, seed=seed)
        )

    def samples_per_run(self, array_size: int = 1) -> int:
        """Independent Boolean sample sets processed by one run."""
        return SAMPLES_PER_WORD * array_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(graph={self.graph.name!r}, engine={self.engine_name!r}, "
            f"runs={self.runs_completed})"
        )
