"""The pass manager: run a pipeline over one CompileState.

:class:`PassManager` is the declarative replacement for the monolithic
``preprocess()``/``compile_ffcl()`` call chains: it threads one
:class:`~repro.compiler.state.CompileState` through an ordered list of
registered passes, timing each pass, recording artifact sizes, and —
when given a :class:`~repro.compiler.cache.PassCache` — serving any pass
whose fingerprint chain (graph content + upstream passes + pass
signature) has been seen before straight from the cache.

:func:`compile_with_pipeline` is the one-call convenience the facades and
the CLI use; it returns the classic
:class:`~repro.core.compiler.CompileResult` when the pipeline produced
every facade artifact.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from ..core.config import LPUConfig, PAPER_CONFIG
from ..netlist.graph import LogicGraph
from .cache import (
    PassCache,
    base_fingerprint,
    chain_fingerprint,
    graph_fingerprint,
)
from .passes import Pass, get_pass
from .pipelines import PipelineSpec, resolve_pipeline
from .state import CompileOptions, CompileState, PassRecord

__all__ = ["PassManager", "compile_with_pipeline"]


class PassManager:
    """Run a fixed pass pipeline over compile states.

    Args:
        pipeline: pipeline spec (name, comma list, or sequence of pass
            names / :class:`Pass` instances).
        cache: optional pass-level result cache shared across compiles.
    """

    def __init__(
        self,
        pipeline: Union[PipelineSpec, Sequence[Pass]],
        cache: Optional[PassCache] = None,
    ) -> None:
        if not isinstance(pipeline, str):
            pipeline = list(pipeline)  # single-use iterables: probe safely
        passes: List[Pass] = []
        if not isinstance(pipeline, str) and pipeline and all(
            isinstance(p, Pass) for p in pipeline
        ):
            passes = list(pipeline)  # pre-built pass instances
        else:
            passes = [get_pass(name) for name in resolve_pipeline(pipeline)]
        if not passes:
            raise ValueError("empty compile pipeline")
        self.passes = passes
        self.cache = cache

    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(
        self,
        graph: LogicGraph,
        config: LPUConfig = PAPER_CONFIG,
        options: CompileOptions = CompileOptions(),
        source_fingerprint: Optional[str] = None,
    ) -> CompileState:
        """Compile ``graph`` through the pipeline; returns the final state.

        ``source_fingerprint`` is ``graph_fingerprint(graph)`` when the
        caller has just computed it (a cache that keyed on it); the graph
        is hashed here otherwise — once, and every later consumer (cache
        chain, ``package``, ``CompileResult.to_artifact``) reads the state.
        """
        if source_fingerprint is None:
            source_fingerprint = graph_fingerprint(graph)
        state = CompileState(
            source=graph,
            config=config,
            options=options,
            source_fingerprint=source_fingerprint,
        )
        cache = self.cache
        fingerprint = (
            base_fingerprint(source_fingerprint, graph.name)
            if cache is not None
            else ""
        )

        for pass_ in self.passes:
            if cache is not None:
                fingerprint = chain_fingerprint(
                    fingerprint, pass_.name, pass_.signature(state)
                )
            start = time.perf_counter()
            hit = False
            if cache is not None and pass_.cacheable:
                snapshot = cache.lookup(fingerprint, pass_.name)
                if snapshot is not None:
                    for field_name, value in snapshot.items():
                        setattr(state, field_name, value)
                    hit = True
            if not hit:
                pass_.run(state)
                if cache is not None and pass_.cacheable:
                    snapshot = {
                        field_name: getattr(state, field_name)
                        for field_name in pass_.provides
                    }
                    # Never memoize a live alias of the caller's graph
                    # (e.g. techmap without a basis passes it through
                    # untouched): the caller may mutate it in place later,
                    # which would poison entries keyed by the graph's
                    # original content.
                    if not any(
                        value is state.source for value in snapshot.values()
                    ):
                        cache.store(fingerprint, snapshot)
            state.records.append(
                PassRecord(
                    name=pass_.name,
                    seconds=time.perf_counter() - start,
                    cache_hit=hit,
                    sizes=state.size_summary(),
                )
            )
        return state


def compile_with_pipeline(
    graph: LogicGraph,
    config: LPUConfig = PAPER_CONFIG,
    *,
    pipeline: PipelineSpec = "paper",
    cache: Optional[PassCache] = None,
    **option_kwargs,
):
    """Compile through a named/custom pipeline to a ``CompileResult``.

    ``option_kwargs`` populate :class:`CompileOptions` (``policy``,
    ``basis``, ``optimize``, ``max_mfgs``).  The pipeline must produce the
    classic facade artifacts (run through ``levelize``, ``partition``,
    ``schedule``, and ``metrics``); partial pipelines should use
    :class:`PassManager` directly and work with the returned state.
    """
    options = CompileOptions(**option_kwargs)
    state = PassManager(pipeline, cache=cache).run(graph, config, options)
    return state_to_result(state)


def state_to_result(state: CompileState):
    """Package a completed state as the classic ``CompileResult``."""
    from ..core.compiler import CompileResult

    missing = [
        name
        for name in (
            "preprocess",
            "partition_unmerged",
            "partition",
            "schedule",
            "metrics",
        )
        if getattr(state, name) is None
    ]
    if missing:
        raise ValueError(
            "pipeline did not produce the artifacts a CompileResult needs: "
            + ", ".join(missing)
        )
    return CompileResult(
        source=state.source,
        config=state.config,
        preprocess=state.preprocess,
        partition_unmerged=state.partition_unmerged,
        partition=state.partition,
        schedule=state.schedule,
        program=state.program,
        metrics=state.metrics,
        pass_records=list(state.records),
        artifact=state.artifact,
        source_fingerprint=state.source_fingerprint,
    )
