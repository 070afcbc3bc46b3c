"""The pass-manager compile pipeline (Fig. 1 as declarative passes).

The paper's flow — pre-processing, MFG partitioning/merging, scheduling,
instruction generation — used to be hard-wired into two monolithic call
chains (``repro.synth.pipeline.preprocess`` and
``repro.core.compiler.compile_ffcl``).  This package re-expresses every
stage as a :class:`~repro.compiler.passes.Pass` over one
:class:`~repro.compiler.state.CompileState`, run by a
:class:`~repro.compiler.manager.PassManager`, which unlocks per-pass
instrumentation, pass-level result caching, pipeline ablations
(merge on/off, custom pass lists), and per-MFG codegen.  The old
entry points survive as thin facades over the ``paper`` pipeline with
bit-identical results.

Module map
==========

``state``
    :class:`CompileState` (the record passes read/write),
    :class:`CompileOptions` (compile knobs), :class:`PassRecord`
    (per-pass wall time / cache / sizes), :class:`PipelineError`.
``passes``
    The :class:`Pass` protocol, the registry
    (:func:`register_pass` / :func:`get_pass` / :func:`available_passes`),
    and the eleven standard passes: ``ingest``, ``rebalance``,
    ``simplify``, ``techmap``, ``balance``, ``levelize``, ``partition``,
    ``merge``, ``schedule``, ``codegen``, ``metrics``.
``pipelines``
    Named pipelines (``paper``, ``no-merge``, ``metrics-only``),
    custom-list parsing (:func:`resolve_pipeline`), cache-identity
    rendering (:func:`pipeline_id`), and the kwargs-to-pipeline
    translation the facades use (:func:`pipeline_from_options`).
``manager``
    :class:`PassManager` (timed, cache-aware pipeline execution) and
    :func:`compile_with_pipeline` (one call to a ``CompileResult``).
``cache``
    :class:`PassCache`: LRU memoization of per-pass snapshots keyed by
    rolling content fingerprints, so compiles sharing a pipeline prefix
    re-use every pass up to the first divergence.  Also the canonical
    :func:`graph_fingerprint`.
``codegen_parallel``
    :func:`generate_program_parallel`: the three-phase (plan / per-MFG
    emit / deterministic merge) instruction generator, bit-identical to
    the sequential reference in ``tests/codegen_reference.py``.
``report``
    Text/JSON rendering of pass records for ``repro passes`` and
    ``repro compile --explain-passes``.
"""

from .cache import PassCache, PassCacheStats, graph_fingerprint
from .codegen_parallel import generate_program_parallel
from .manager import PassManager, compile_with_pipeline
from .passes import Pass, available_passes, get_pass, register_pass
from .pipelines import (
    PIPELINES,
    pipeline_from_options,
    pipeline_id,
    resolve_pipeline,
)
from .report import format_pass_report, records_as_dicts
from .state import CompileOptions, CompileState, PassRecord, PipelineError

__all__ = [
    "PIPELINES",
    "CompileOptions",
    "CompileState",
    "Pass",
    "PassCache",
    "PassCacheStats",
    "PassManager",
    "PassRecord",
    "PipelineError",
    "available_passes",
    "compile_with_pipeline",
    "format_pass_report",
    "generate_program_parallel",
    "get_pass",
    "graph_fingerprint",
    "pipeline_from_options",
    "pipeline_id",
    "records_as_dicts",
    "register_pass",
    "resolve_pipeline",
]
