"""The program cache: memoized compilation + lowering for serving.

Serving the same workload from many entry points (CLI invocations in one
process, repeated server construction, benchmark sweeps) must not pay
compile + lowering more than once.  :class:`ProgramCache` memoizes
:class:`~repro.core.codegen.Program` objects — and, for the trace engine,
their lowered :class:`~repro.core.trace.TraceProgram` tables — keyed by
*(workload fingerprint, engine, config, compile options)* with LRU
eviction and hit/miss statistics.

The workload key is a content fingerprint of the logic graph
(:func:`graph_fingerprint`), so two structurally-identical graph objects
share one cache entry regardless of object identity.  The key also
carries the *compile-pipeline identity*
(:func:`repro.compiler.pipeline_id`): two pipelines over the same graph
(e.g. ``paper`` vs ``no-merge``, or a custom pass list) never collide on
one entry.  Below the program level, every cache owns a
:class:`repro.compiler.PassCache`, so compilations that miss here still
reuse every pipeline-prefix pass they share with earlier compiles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..artifact.format import ExecutableArtifact
from ..artifact.store import StoreBackend, store_key
from ..compiler.cache import PassCache, graph_fingerprint
from ..compiler.pipelines import pipeline_from_options, pipeline_id
from ..core.codegen import Program
from ..core.compiler import CompileResult, compile_ffcl
from ..core.config import LPUConfig, PAPER_CONFIG
from ..core.trace import TraceProgram, lower_program
from ..engine.base import engine_uses_trace
from ..engine.session import DEFAULT_ENGINE
from ..netlist.graph import LogicGraph

__all__ = [
    "CacheEntry",
    "CacheKey",
    "CacheStats",
    "ProgramCache",
    "default_program_cache",
    "disk_key",
    "graph_fingerprint",
]

#: pipeline-identity marker for already-compiled Program sources (their
#: pipeline is baked into the program object itself).
_PRECOMPILED = "<precompiled>"


@dataclass(frozen=True)
class CacheKey:
    """Identity of one memoized compilation."""

    workload: str  # graph content fingerprint
    engine: str
    config: LPUConfig
    options: Tuple[Tuple[str, object], ...]  # sorted compile kwargs
    pipeline: str = _PRECOMPILED  # compile-pipeline identity


@dataclass
class CacheStats:
    """Lookup counters of one :class:`ProgramCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: memory misses resolved from the artifact disk tier (no compile).
    disk_hits: int = 0
    #: memory misses that also missed (or had no) disk tier.
    disk_misses: int = 0
    #: artifacts written to the disk tier after a compile.
    disk_stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_stores": self.disk_stores,
            "hit_rate": self.hit_rate,
        }


@dataclass
class CacheEntry:
    """One memoized workload: the program plus its lowering artifacts."""

    key: CacheKey
    program: Program
    trace: Optional[TraceProgram] = None
    compile_result: Optional[CompileResult] = None
    #: serializable executable (present when the entry came from — or was
    #: written to — the disk tier, or when the source was an artifact);
    #: the spawn worker backend ships these bytes across processes.
    artifact: Optional[ExecutableArtifact] = None
    uses: int = field(default=0)


def disk_key(key: CacheKey) -> str:
    """Content-addressed disk-tier key of one cache identity.

    Engine-independent on purpose: a stored artifact carries both the
    program and the lowered trace tables, so the cycle and trace engines
    share one blob per (workload, config, options, pipeline).
    """
    return store_key(key.workload, key.config, key.options, key.pipeline)


class ProgramCache:
    """LRU cache of compiled programs and lowered trace tables.

    Args:
        capacity: maximum retained entries; least-recently-used entries
            are evicted beyond it.
        pass_cache: pass-level result cache used by miss compilations (a
            private :class:`repro.compiler.PassCache` when omitted, sized
            to roughly one pipeline's worth of passes per program entry),
            so different pipelines/options over one graph share their
            common pass prefix even though they occupy separate program
            entries.  An injected cache is treated as shared: ``clear()``
            leaves it alone.
        store: optional :class:`~repro.artifact.store.StoreBackend`
            blob-store tier — a :class:`~repro.artifact.store.
            DirectoryBackend` directory, an in-process
            :class:`~repro.artifact.backends.MemoryStoreBackend`, or a
            remote :class:`~repro.artifact.backends.HTTPStoreBackend`
            shared by a fleet.  Memory misses for graph sources fall
            through to the store (loading a serialized executable instead
            of compiling — zero compile passes), and compile misses write
            their artifact back, so a *new process* pointed at a warm
            store resolves its workloads without compiling anything.
            When the cache owns its pass cache, the store also becomes
            the pass cache's disk tier.
    """

    def __init__(
        self,
        capacity: int = 8,
        pass_cache: Optional[PassCache] = None,
        store: Optional[StoreBackend] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.store = store
        self.stats = CacheStats()
        self._owns_pass_cache = pass_cache is None
        self.pass_cache = (
            pass_cache
            if pass_cache is not None
            else PassCache(capacity=capacity * 16, store=store)
        )
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self):
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
            if self._owns_pass_cache:
                self.pass_cache.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def _split_key_options(
        compile_kwargs: Dict[str, object]
    ) -> Tuple[Tuple[Tuple[str, object], ...], str]:
        """(hashable option tuple, pipeline identity) of compile kwargs.

        The raw ``pipeline`` spec (possibly an unhashable list) is
        normalized into the canonical pipeline-id string; when absent, the
        identity is derived from the kwargs exactly as ``compile_ffcl``
        derives its pass list, so option-equivalent calls share one entry.
        """
        if "pass_cache" in compile_kwargs:
            raise ValueError(
                "configure the pass cache on the ProgramCache itself, "
                "not through compile kwargs"
            )
        options = dict(compile_kwargs)
        spec = options.pop("pipeline", None)
        if spec is None:
            spec = pipeline_from_options(
                optimize=bool(options.get("optimize", True)),
                merge=bool(options.get("merge", True)),
                generate_code=bool(options.get("generate_code", True)),
            )
        # These three only shape the pass list (and which working-graph
        # copy ingest seeds), which the pipeline id fully captures — e.g.
        # ``merge=False`` and ``pipeline="no-merge"`` are one workload.
        for absorbed in ("merge", "optimize", "generate_code"):
            options.pop(absorbed, None)
        return tuple(sorted(options.items())), pipeline_id(spec)

    def make_key(
        self,
        source: Union[LogicGraph, Program, ExecutableArtifact],
        config: Optional[LPUConfig] = None,
        *,
        engine: str = DEFAULT_ENGINE,
        **compile_kwargs,
    ) -> CacheKey:
        # An artifact carries its workload's fingerprint; hashing the
        # graph again would decode a node table the boot never reads.
        workload = ""
        if isinstance(source, ExecutableArtifact):
            workload = source.workload_fingerprint
            source = source.program
        if isinstance(source, Program):
            # An already-compiled program is its own identity: the same
            # graph+config compiled with different options (merge, policy)
            # yields different programs, which must never share an entry.
            # The entry keeps the program alive, so its id cannot be
            # reused while the key is live.
            options = tuple(sorted(compile_kwargs.items()))
            options += (("__program_id__", id(source)),)
            return CacheKey(
                workload=workload or graph_fingerprint(source.graph),
                engine=engine,
                config=source.config,
                options=options,
                pipeline=_PRECOMPILED,
            )
        cfg = config if config is not None else PAPER_CONFIG
        options, pipeline = self._split_key_options(compile_kwargs)
        return CacheKey(
            workload=graph_fingerprint(source),
            engine=engine,
            config=cfg,
            options=options,
            pipeline=pipeline,
        )

    def get_or_compile(
        self,
        source: Union[LogicGraph, Program, ExecutableArtifact],
        config: Optional[LPUConfig] = None,
        *,
        engine: str = DEFAULT_ENGINE,
        **compile_kwargs,
    ) -> CacheEntry:
        """Return the cached entry for ``source``, compiling on a miss.

        ``source`` may be a :class:`LogicGraph` (compiled with ``config``
        and ``compile_kwargs`` on a miss), an already-compiled
        :class:`Program` (memoizes its lowering artifacts only), or a
        deserialized :class:`ExecutableArtifact` (never compiles; reuses
        the artifact's embedded lowering).  Graph-source misses fall
        through to the artifact disk tier before compiling, and compiles
        write their artifact back to it.
        """
        key = self.make_key(source, config, engine=engine, **compile_kwargs)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                entry.uses += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
        # Compile and lower OUTSIDE the lock: a seconds-long compilation
        # must not block hits for unrelated cached workloads.  Concurrent
        # misses on the same key may compile twice; the first insert wins.
        compile_result: Optional[CompileResult] = None
        artifact: Optional[ExecutableArtifact] = None
        program: Optional[Program] = None
        if isinstance(source, ExecutableArtifact):
            artifact = source
            program = source.program
        elif isinstance(source, Program):
            program = source
        elif self.store is not None:
            artifact = self.store.get(disk_key(key))
            if artifact is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                program = artifact.program
            else:
                with self._lock:
                    self.stats.disk_misses += 1
        if program is None:
            compile_result = compile_ffcl(
                source,
                key.config,
                pass_cache=self.pass_cache,
                source_fingerprint=key.workload,
                **compile_kwargs,
            )
            program = compile_result.program
            if program is None:  # pragma: no cover - compile_ffcl guards
                raise ValueError("compilation produced no program")
        if engine_uses_trace(engine):
            # An artifact's lowering was registered at decode, so this
            # never re-lowers it; holding it keeps the chain shared.
            trace = lower_program(program)
        else:
            trace = artifact.trace if artifact is not None else None
        if (
            self.store is not None
            and artifact is None
            and compile_result is not None
        ):
            # Persist the fresh compile so future processes skip it.  The
            # blob always embeds the trace tables — the engine-independent
            # disk key promises that a stored executable boots either
            # engine with zero compilation AND zero lowering, so a
            # cycle-engine compile lowers here (cheap, once, offline)
            # rather than leaving every future trace cold start to pay it.
            artifact = ExecutableArtifact.from_compile(compile_result)
            self.store.put(disk_key(key), artifact)
            with self._lock:
                self.stats.disk_stores += 1
        entry = CacheEntry(
            key=key,
            program=program,
            trace=trace,
            compile_result=compile_result,
            artifact=artifact,
            uses=1,
        )
        with self._lock:
            racing = self._entries.get(key)
            if racing is not None:
                racing.uses += 1
                self._entries.move_to_end(key)
                return racing
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return entry


_DEFAULT_CACHE: Optional[ProgramCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_program_cache() -> ProgramCache:
    """The process-wide cache servers fall back to when given none."""
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = ProgramCache()
        return _DEFAULT_CACHE
