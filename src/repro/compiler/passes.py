"""The pass registry and the standard compiler passes.

Every stage of the paper's Fig. 1 flow is re-expressed as a :class:`Pass`
over one :class:`~repro.compiler.state.CompileState`:

======== ================================================================
pass      wraps
======== ================================================================
ingest    source bookkeeping (+ ``extract()`` when optimization is off)
rebalance :func:`repro.synth.rebalance.balance_trees`
simplify  :func:`repro.synth.simplify.simplify`
techmap   :func:`repro.synth.techmap.map_to_basis` (no-op without a basis)
balance   :func:`repro.synth.balance.balance` (full path balancing)
levelize  :func:`repro.synth.levelize.levelize` + PreprocessResult assembly
partition :func:`repro.core.partition.partition` (Algorithms 1/2)
merge     :func:`repro.core.merge.merge_partition` (Algorithm 3)
schedule  :func:`repro.core.schedule.build_schedule` (Algorithm 4)
codegen   :func:`repro.compiler.codegen_parallel.generate_program_parallel`
metrics   :class:`~repro.core.metrics.CompileMetrics` assembly
======== ================================================================

A pass declares:

* ``provides`` — the state fields it writes, which is exactly what the
  pass-level cache snapshots and restores on a hit,
* ``signature(state)`` — the configuration the pass result depends on
  *besides* the upstream artifact chain (e.g. ``partition`` depends on
  ``config.m`` but not on the clock frequency), which keeps cache prefixes
  shared across compiles that only differ downstream.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..core.merge import merge_partition
from ..core.metrics import CompileMetrics
from ..core.partition import partition as partition_graph
from ..core.schedule import build_schedule
from ..synth.balance import balance_with_levels
from ..synth.levelize import levelize
from ..synth.rebalance import balance_trees
from ..synth.simplify import simplify as simplify_graph
from ..synth.techmap import map_to_basis
from .codegen_parallel import generate_program_parallel
from .state import CompileState

__all__ = [
    "Pass",
    "available_passes",
    "get_pass",
    "register_pass",
]


class Pass:
    """One stage of the compile pipeline.

    Subclasses set :attr:`name` and :attr:`provides` and implement
    :meth:`run`; :meth:`signature` defaults to "depends on nothing but the
    artifact chain".
    """

    #: registry key and pipeline-spec token.
    name: str = ""
    #: state fields written by :meth:`run` (snapshot unit for the cache).
    provides: Tuple[str, ...] = ()
    #: set False for passes whose artifacts should never be memoized.
    cacheable: bool = True

    def signature(self, state: CompileState) -> Tuple:
        """Hashable configuration identity of this pass application."""
        return ()

    def run(self, state: CompileState) -> None:
        raise NotImplementedError


_REGISTRY: Dict[str, Pass] = {}


def register_pass(cls: Callable[[], Pass]) -> Callable[[], Pass]:
    """Class decorator: instantiate and index a pass by its name."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"pass class {cls.__name__} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate pass name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return cls


def get_pass(name: str) -> Pass:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown pass {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_passes() -> List[str]:
    """Registered pass names, in registration (pipeline-natural) order."""
    return list(_REGISTRY)


# ----------------------------------------------------------------------
# Pre-processing passes (Fig. 1 box 1 + Section IV path balancing)
# ----------------------------------------------------------------------
@register_pass
class IngestPass(Pass):
    """Record source-shape counters and seed the working graph.

    Never cached: its "artifact" aliases the caller's graph object (the
    optimization passes rebuild it anyway), and memoizing a live reference
    to a mutable caller-owned graph would let later in-place edits poison
    cache entries keyed by the graph's *original* content.  The pass is
    trivially cheap, so re-running it costs nothing.
    """

    name = "ingest"
    cacheable = False
    provides = (
        "graph",
        "gates_in",
        "depth_in",
        "gates_after_simplify",
        "gates_after_mapping",
    )

    def signature(self, state: CompileState) -> Tuple:
        return (state.options.optimize,)

    def run(self, state: CompileState) -> None:
        source = state.source
        state.graph = source
        state.gates_in = state.gate_count()
        state.depth_in = source.depth()
        # The optimization passes rebuild the graph anyway; the raw flow
        # must copy so downstream rewrites never touch the caller's graph.
        if not state.options.optimize:
            state.graph = source.extract()
        state.gates_after_simplify = state.gate_count()
        state.gates_after_mapping = state.gate_count()


@register_pass
class RebalancePass(Pass):
    """Tree rebalancing (must precede structural hashing — see
    :func:`repro.synth.pipeline.preprocess` for the ordering rationale)."""

    name = "rebalance"
    provides = ("graph",)

    def run(self, state: CompileState) -> None:
        graph = state.require("graph", self.name)
        state.graph = balance_trees(graph)


@register_pass
class SimplifyPass(Pass):
    """Logic simplification (constant folding, CSE, identities)."""

    name = "simplify"
    provides = ("graph", "gates_after_simplify", "gates_after_mapping")

    def run(self, state: CompileState) -> None:
        graph = state.require("graph", self.name)
        state.graph = simplify_graph(graph)
        state.gates_after_simplify = state.gate_count()
        # Mapping runs after simplification; until a techmap pass rewrites
        # the graph the mapped count equals the simplified count.
        state.gates_after_mapping = state.gate_count()


@register_pass
class TechmapPass(Pass):
    """Map onto a restricted LPE basis (no-op when no basis is set)."""

    name = "techmap"
    provides = ("graph", "gates_after_mapping")

    def signature(self, state: CompileState) -> Tuple:
        basis = state.options.basis
        return (tuple(sorted(basis)) if basis is not None else None,)

    def run(self, state: CompileState) -> None:
        graph = state.require("graph", self.name)
        if state.options.basis is not None:
            state.graph = map_to_basis(graph, state.options.basis)
        state.gates_after_mapping = state.gate_count()


@register_pass
class BalancePass(Pass):
    """Full path balancing (buffer insertion, Section IV)."""

    name = "balance"
    provides = ("graph", "balance_report")

    def run(self, state: CompileState) -> None:
        graph = state.require("graph", self.name)
        balanced, report, level = balance_with_levels(graph)
        state.graph = balanced
        state.balance_report = report
        state.balanced_levels = (balanced, level)


@register_pass
class LevelizePass(Pass):
    """Depth-levelize and assemble the PreprocessResult facade artifact."""

    name = "levelize"
    provides = ("levels", "preprocess")

    def run(self, state: CompileState) -> None:
        from ..synth.pipeline import PreprocessReport, PreprocessResult

        graph = state.require("graph", self.name)
        balance_report = state.require("balance_report", self.name)
        state.levels = levelize(graph, state.levels_from_balance(graph))
        report = PreprocessReport(
            gates_in=state.require("gates_in", self.name),
            gates_after_simplify=state.require(
                "gates_after_simplify", self.name
            ),
            gates_after_mapping=state.require(
                "gates_after_mapping", self.name
            ),
            gates_out=state.gate_count(),
            depth_in=state.require("depth_in", self.name),
            depth_out=state.levels.max_level,
            balance=balance_report,
        )
        state.preprocess = PreprocessResult(
            graph=graph, levels=state.levels, report=report
        )


# ----------------------------------------------------------------------
# Compiler passes (Fig. 1 box 2: Algorithms 1-4 + instruction generation)
# ----------------------------------------------------------------------
@register_pass
class PartitionPass(Pass):
    """Partition the balanced DAG into MFGs (Algorithms 1/2)."""

    name = "partition"
    provides = ("partition_unmerged", "partition")

    def signature(self, state: CompileState) -> Tuple:
        return (state.config.m, state.options.max_mfgs)

    def run(self, state: CompileState) -> None:
        pre = state.require("preprocess", self.name)
        from_balance = state.levels_from_balance(pre.graph) is not None
        part = partition_graph(
            pre.graph,
            state.config.m,
            max_mfgs=state.options.max_mfgs,
            levels=pre.levels if from_balance else None,
        )
        state.partition_unmerged = part
        state.partition = part


@register_pass
class MergePass(Pass):
    """Greedy sibling merging (Algorithm 3) on a cloned MFG DAG."""

    name = "merge"
    provides = ("partition",)

    def signature(self, state: CompileState) -> Tuple:
        return (state.config.m,)

    def run(self, state: CompileState) -> None:
        part = state.require("partition_unmerged", self.name)
        state.partition = merge_partition(part)


@register_pass
class SchedulePass(Pass):
    """Place MFGs onto the LPV pipeline (Algorithm 4 semantics)."""

    name = "schedule"
    provides = ("schedule",)

    def signature(self, state: CompileState) -> Tuple:
        return (state.config, state.options.policy)

    def run(self, state: CompileState) -> None:
        part = state.require("partition", self.name)
        state.schedule = build_schedule(
            part, state.config, policy=state.options.policy
        )


@register_pass
class CodegenPass(Pass):
    """Per-MFG instruction generation (bit-identical to the sequential
    reference generator)."""

    name = "codegen"
    provides = ("program",)

    def signature(self, state: CompileState) -> Tuple:
        return (state.config,)

    def run(self, state: CompileState) -> None:
        schedule = state.require("schedule", self.name)
        pre = state.require("preprocess", self.name)
        state.program = generate_program_parallel(
            schedule, pre.graph, state.config
        )


@register_pass
class MetricsPass(Pass):
    """Assemble the :class:`~repro.core.metrics.CompileMetrics` record."""

    name = "metrics"
    provides = ("metrics",)

    def signature(self, state: CompileState) -> Tuple:
        return (state.config, state.options.policy)

    def run(self, state: CompileState) -> None:
        source = state.source
        config = state.config
        pre = state.require("preprocess", self.name)
        part_unmerged = state.require("partition_unmerged", self.name)
        part = state.require("partition", self.name)
        schedule = state.require("schedule", self.name)
        program = state.program
        state.metrics = CompileMetrics(
            name=source.name,
            num_inputs=source.num_inputs,
            num_outputs=source.num_outputs,
            gates_source=pre.report.gates_in,
            gates_balanced=pre.report.gates_out,
            buffers_inserted=pre.report.balance.buffers_inserted,
            depth=pre.levels.max_level,
            mfgs_before_merge=part_unmerged.num_mfgs,
            mfgs_after_merge=part.num_mfgs,
            policy=state.options.policy,
            makespan_macro_cycles=schedule.makespan,
            total_clock_cycles=schedule.total_clock_cycles,
            queue_depth=schedule.queue_depth,
            circulations=schedule.circulations,
            latency_seconds=config.macro_cycles_to_seconds(schedule.makespan),
            fps=config.fps(schedule.makespan),
            compute_instructions=(
                program.num_compute_instructions if program else None
            ),
            queue_entries=program.num_queue_entries if program else None,
            peak_buffer_words=program.peak_buffer_words if program else None,
        )


@register_pass
class PackagePass(Pass):
    """Package the compiled program as a serializable
    :class:`~repro.artifact.format.ExecutableArtifact` (program + lowered
    trace tables + identity metadata).

    Never cached: the artifact embeds its own content fingerprint and
    aliases the program object, so memoizing it buys nothing.  Append
    ``package`` to any codegen-bearing pipeline to get ahead-of-time
    artifacts straight out of the pass manager; the equivalent post-hoc
    path is :meth:`repro.core.compiler.CompileResult.to_artifact`.
    """

    name = "package"
    cacheable = False
    provides = ("artifact",)

    def run(self, state: CompileState) -> None:
        from ..artifact.format import ExecutableArtifact

        program = state.require("program", self.name)
        pipeline = "+".join(
            [record.name for record in state.records] + [self.name]
        )
        state.artifact = ExecutableArtifact.from_program(
            program,
            pipeline=pipeline,
            metrics=state.metrics.as_dict() if state.metrics else None,
            workload_fingerprint=state.source_fingerprint,
        )
