"""End-to-end FFCL compiler (Fig. 1: pre-processing -> compiler -> hardware).

:func:`compile_ffcl` is the classic one-call entry point of the flow:

1. pre-process the netlist (logic optimization, cell mapping, levelization,
   full path balancing — :mod:`repro.synth.pipeline`),
2. partition the balanced DAG into MFGs (Algorithms 1/2),
3. merge sibling MFGs (Algorithm 3, on by default; the Fig. 7/8 experiments
   toggle it),
4. schedule MFGs onto the LPV pipeline (Algorithm 4 semantics),
5. generate the instruction queues, buffer layouts, and circulation traffic
   (optional — metric-only sweeps skip it).

Since the pass-manager refactor this function is a thin facade over
:mod:`repro.compiler`: the keyword arguments are translated into a pass
pipeline (:func:`repro.compiler.pipeline_from_options`) and run through a
:class:`~repro.compiler.manager.PassManager`, with results bit-identical
to the pre-refactor monolithic chain.  Callers that want named pipelines,
custom pass lists, per-pass instrumentation, or pass-level caching can
pass ``pipeline=`` / ``pass_cache=`` here or drop down to
:func:`repro.compiler.compile_with_pipeline` / ``PassManager`` directly.

The result carries every intermediate artifact plus a
:class:`~repro.core.metrics.CompileMetrics` record and the per-pass
instrumentation records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from ..netlist.graph import LogicGraph
from ..synth.pipeline import PreprocessResult
from .codegen import Program
from .config import LPUConfig, PAPER_CONFIG
from .metrics import CompileMetrics
from .mfg import Partition
from .schedule import Schedule


@dataclass
class CompileResult:
    """All artifacts of one compilation.

    ``partition_unmerged`` is pristine even when merging is enabled: the
    merge pass operates on a cloned MFG DAG
    (:func:`repro.core.merge.clone_partition`), so the unmerged
    parent/child links survive for reporting and re-scheduling.
    """

    source: LogicGraph
    config: LPUConfig
    preprocess: PreprocessResult
    partition_unmerged: Partition
    partition: Partition
    schedule: Schedule
    program: Optional[Program]
    metrics: CompileMetrics
    #: ``graph_fingerprint(source)`` as hashed when the compile started
    #: (the ``workload_fingerprint`` of every artifact packaged from it).
    source_fingerprint: str
    #: per-pass instrumentation (wall time, cache hits, artifact sizes);
    #: a list of :class:`repro.compiler.PassRecord`.
    pass_records: List[object] = field(default_factory=list)
    #: pre-packaged executable (set when the pipeline ran the ``package``
    #: pass; :meth:`to_artifact` fills it lazily otherwise).
    artifact: Optional[object] = None

    @property
    def balanced(self) -> LogicGraph:
        return self.preprocess.graph

    def to_artifact(
        self,
        *,
        lower: bool = True,
        fanout: bool = False,
        probe_words: int = 0,
        probe_seed: int = 0,
    ):
        """Package this compile as a serializable
        :class:`~repro.artifact.format.ExecutableArtifact` (memoized).

        ``lower=False`` skips embedding the trace-engine tables (smaller
        artifact; the trace engine then lowers on first use).
        ``fanout=True`` additionally embeds the delta engine's
        fanout/cone tables for zero-analysis streaming boots.
        ``probe_words>0`` embeds that many words of probe vectors —
        known stimulus/response pairs replayable with ``repro inspect
        --verify`` (or at store-upload time) to prove the packaged
        executable still computes its function.
        """
        if self.artifact is None or (
            fanout and self.artifact.fanout is None
        ) or (probe_words > 0 and self.artifact.probes is None):
            from ..artifact.format import ExecutableArtifact

            self.artifact = ExecutableArtifact.from_compile(
                self,
                lower=lower,
                fanout=fanout,
                probe_words=probe_words,
                probe_seed=probe_seed,
            )
        return self.artifact


def compile_ffcl(
    graph: LogicGraph,
    config: LPUConfig = PAPER_CONFIG,
    *,
    merge: bool = True,
    policy: str = "pipelined",
    optimize: bool = True,
    generate_code: bool = True,
    basis: Optional[FrozenSet[str]] = None,
    max_mfgs: int = 500_000,
    pipeline: Optional[object] = None,
    pass_cache: Optional[object] = None,
    source_fingerprint: Optional[str] = None,
) -> CompileResult:
    """Compile an FFCL block for the LPU.

    Args:
        graph: the FFCL netlist (e.g. from :func:`repro.netlist.parse_verilog`
            or the NullaNet pipeline).
        config: LPU architecture parameters.
        merge: apply the MFG merging procedure (Algorithm 3).
        policy: ``"pipelined"`` (paper) or ``"sequential"`` scheduling.
        optimize: run logic simplification during pre-processing.
        generate_code: emit instruction queues/buffers; disable for
            metric-only parameter sweeps on large workloads.
        basis: optional restricted LPE op set to tech-map onto.
        max_mfgs: safety bound on partition size.
        pipeline: optional pipeline spec (a name like ``"paper"``, a
            comma-separated pass list, or a sequence of pass names)
            overriding the pass list the other keywords imply.
        pass_cache: optional :class:`repro.compiler.PassCache` memoizing
            per-pass results across compiles.
        source_fingerprint: ``repro.compiler.graph_fingerprint(graph)`` if
            the caller has just computed it, so it is not hashed again.
    """
    from ..compiler.manager import PassManager, state_to_result
    from ..compiler.pipelines import pipeline_from_options
    from ..compiler.state import CompileOptions

    if pipeline is None:
        pipeline = pipeline_from_options(
            optimize=optimize, merge=merge, generate_code=generate_code
        )
    options = CompileOptions(
        policy=policy,
        optimize=optimize,
        basis=basis,
        max_mfgs=max_mfgs,
    )
    state = PassManager(pipeline, cache=pass_cache).run(
        graph, config, options, source_fingerprint=source_fingerprint
    )
    return state_to_result(state)
