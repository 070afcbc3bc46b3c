"""Compile state and options threaded through the pass pipeline.

A :class:`CompileState` is the single mutable record every
:class:`~repro.compiler.passes.Pass` reads from and writes to: the working
graph, the pre-processing bookkeeping, the partition/schedule/program
artifacts, the final metrics, and the per-pass instrumentation records.
:class:`CompileOptions` is the frozen bag of compile knobs (the old
``compile_ffcl`` keyword arguments), and :class:`PassRecord` is one row of
the per-pass report (wall time, cache hit, artifact sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.codegen import Program
from ..core.config import LPUConfig, PAPER_CONFIG
from ..core.metrics import CompileMetrics
from ..core.mfg import Partition
from ..core.schedule import Schedule
from ..netlist.graph import LogicGraph
from ..synth.balance import BalanceReport
from ..synth.levelize import Levelization
from ..synth.pipeline import PreprocessResult

__all__ = [
    "CompileOptions",
    "CompileState",
    "PassRecord",
    "PipelineError",
]


class PipelineError(RuntimeError):
    """A pass was run against a state missing its required inputs."""


@dataclass(frozen=True)
class CompileOptions:
    """Compile knobs consumed by the passes (hashable, cache-key safe).

    Note there is no ``merge``/``generate_code`` knob here: whether those
    stages run is decided solely by the pass list (see
    :func:`repro.compiler.pipeline_from_options`), never by an option a
    pass would have to consult.
    """

    policy: str = "pipelined"
    optimize: bool = True
    basis: Optional[FrozenSet[str]] = None
    max_mfgs: int = 500_000


@dataclass
class PassRecord:
    """Instrumentation for one executed (or cache-served) pass."""

    name: str
    seconds: float
    cache_hit: bool = False
    #: artifact sizes *after* the pass (gates, MFG counts, makespan, ...).
    sizes: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
            "sizes": dict(self.sizes),
        }


@dataclass
class CompileState:
    """Everything one compilation has produced so far."""

    source: LogicGraph
    config: LPUConfig = PAPER_CONFIG
    options: CompileOptions = CompileOptions()
    #: ``graph_fingerprint(source)``, hashed once when the compile starts.
    source_fingerprint: str = ""

    #: the working netlist the pre-processing passes rewrite.
    graph: Optional[LogicGraph] = None
    levels: Optional[Levelization] = None
    balance_report: Optional[BalanceReport] = None
    #: ``(balanced graph, node -> level)`` as the ``balance`` pass built
    #: them: that graph object is strictly levelized, at these levels.
    #: In no pass's ``provides``, so a graph that came from a cache (or
    #: from a later rewrite) is levelized and checked the ordinary way.
    balanced_levels: Optional[Tuple[LogicGraph, Dict[int, int]]] = None

    # Pre-processing bookkeeping (the PreprocessReport counters).
    gates_in: Optional[int] = None
    depth_in: Optional[int] = None
    gates_after_simplify: Optional[int] = None
    gates_after_mapping: Optional[int] = None

    #: assembled by the levelize pass (facade-compatible artifact).
    preprocess: Optional[PreprocessResult] = None

    partition_unmerged: Optional[Partition] = None
    partition: Optional[Partition] = None
    schedule: Optional[Schedule] = None
    program: Optional[Program] = None
    metrics: Optional[CompileMetrics] = None
    #: packaged executable (written by the ``package`` pass; an
    #: :class:`~repro.artifact.format.ExecutableArtifact`).
    artifact: Optional[object] = None

    records: List[PassRecord] = field(default_factory=list)
    #: (working graph, its gate count): see :meth:`gate_count`.
    _counted: Optional[Tuple[LogicGraph, int]] = field(
        default=None, repr=False
    )

    def require(self, field_name: str, needed_by: str) -> object:
        """Fetch an artifact, raising a pipeline-shaped error when absent."""
        value = getattr(self, field_name)
        if value is None:
            raise PipelineError(
                f"pass {needed_by!r} requires {field_name!r}; add the pass "
                f"that produces it earlier in the pipeline"
            )
        return value

    def levels_from_balance(
        self, graph: LogicGraph
    ) -> Optional[Dict[int, int]]:
        """``graph``'s levels if it is the very object ``balance`` built."""
        known = self.balanced_levels
        if known is not None and known[0] is graph:
            return known[1]
        return None

    def gate_count(self) -> int:
        """``graph.num_gates`` of the working graph.  Passes replace that
        graph, never edit it, so the node scan runs once per graph
        object, not once per pass and report row."""
        if self._counted is None or self._counted[0] is not self.graph:
            self._counted = (self.graph, self.graph.num_gates)
        return self._counted[1]

    def size_summary(self) -> Dict[str, int]:
        """Cheap artifact sizes for the per-pass report."""
        sizes: Dict[str, int] = {}
        if self.graph is not None:
            sizes["gates"] = self.gate_count()
        if self.levels is not None:
            sizes["depth"] = self.levels.max_level
        if self.partition_unmerged is not None:
            sizes["mfgs_unmerged"] = self.partition_unmerged.num_mfgs
        if self.partition is not None:
            sizes["mfgs"] = self.partition.num_mfgs
        if self.schedule is not None:
            sizes["makespan"] = self.schedule.makespan
        if self.program is not None:
            sizes["instructions"] = self.program.num_compute_instructions
            sizes["queue_entries"] = self.program.num_queue_entries
        return sizes
