"""The versioned executable format: :class:`ExecutableArtifact`.

An artifact is the durable, deployable form of one compiled workload —
the paper's separation of offline FFCL compilation from the LPU that only
ever consumes finished instruction streams, made concrete:

* the executable :class:`~repro.core.codegen.Program` (instruction
  queues in the 32-bit ISA encoding, buffer traffic tables, the runtime
  schedule surface, the logic graph interface),
* optionally the lowered :class:`~repro.core.trace.TraceProgram` tables
  (so the trace engine starts without re-lowering) plus the
  liveness-renamed :class:`~repro.core.liveness.FusedProgram` register
  tables (so the fused serving default starts without re-renaming),
* identity and provenance metadata: the format version, the producing
  ``repro`` version, the workload's content fingerprint
  (:func:`repro.compiler.graph_fingerprint`), the compile-pipeline
  identity, compile metrics, and a self-verifying content fingerprint of
  the artifact bytes themselves.

Artifacts serialize to a zero-pickle binary container
(:mod:`repro.artifact.codec`) conventionally stored with the ``.lpa``
("LPU artifact") suffix, round-trip deterministically (re-encoding a
decoded artifact yields identical bytes and an identical fingerprint),
and execute bit-identically to the in-memory compile on both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import registry
from ..core.codegen import Program
from ..core.fanout import FanoutTables, build_fanout
from ..core.liveness import FusedProgram, fuse_trace
from ..core.trace import TraceProgram, lower_program
from .codec import (
    ArtifactDecodeError,
    ArtifactError,
    content_fingerprint,
    decode_fanout,
    decode_fused,
    decode_probes,
    decode_program,
    decode_trace,
    decoded,
    encode_fanout,
    encode_fused,
    encode_probes,
    encode_program,
    encode_trace,
    pack_container,
    unpack_container,
)

__all__ = [
    "ARTIFACT_SUFFIX",
    "BUNDLE_FORMAT_VERSION",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "SINGLE_PROGRAM_VERSION",
    "ArtifactError",
    "ExecutableArtifact",
    "ProbeSet",
    "load_artifact",
    "load_artifact_bytes",
    "peek_header",
    "reader_versions",
    "register_reader",
]

#: container identification + compatibility gate.
FORMAT_MAGIC = "repro-lpa"
#: the single-program section layout every ``.lpa`` written since PR 4
#: uses; single-program artifacts keep stamping (and round-tripping)
#: this version so their bytes stay identical across format bumps.
SINGLE_PROGRAM_VERSION = 1
#: the multi-program bundle layout (a manifest of member programs, each
#: encoded as its own embedded v1 container).
BUNDLE_FORMAT_VERSION = 2
#: newest format generation this build understands (reads *and* writes).
FORMAT_VERSION = BUNDLE_FORMAT_VERSION
#: conventional file suffix ("LPU artifact").
ARTIFACT_SUFFIX = ".lpa"


# ----------------------------------------------------------------------
# Version negotiation: the reader registry
# ----------------------------------------------------------------------
#: format version -> reader(header, arrays) -> decoded artifact object,
#: over a container :func:`_open_container` verified.  Version 1 (single
#: program) registers below; version 2 (bundle) registers from
#: :mod:`repro.artifact.bundle` at import.
_READERS: Dict[int, object] = {}

#: what a container of each version holds, for the wrong-reader error.
_KINDS = {
    SINGLE_PROGRAM_VERSION: "a single-program artifact",
    BUNDLE_FORMAT_VERSION: "a bundle",
}


def register_reader(version: int, reader=None):
    """Register ``reader(header, arrays)`` for ``version`` (usable as a
    decorator)."""

    def _register(fn):
        _READERS[int(version)] = fn
        return fn

    if reader is not None:
        return _register(reader)
    return _register


def reader_versions() -> Tuple[int, ...]:
    """Format versions this build can load, sorted ascending."""
    return tuple(sorted(_READERS))


def _version_error(version) -> ArtifactError:
    known = "{" + ", ".join(str(v) for v in reader_versions()) + "}"
    return ArtifactError(
        f"artifact format v{version} not supported, "
        f"reader registry has {known}"
    )


def _unpack(data: bytes) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """``(header, arrays)`` of a container whose magic checks out."""
    try:
        header, arrays = unpack_container(data)
    except ArtifactDecodeError as exc:
        raise ArtifactError(str(exc)) from exc
    if header.get("magic") != FORMAT_MAGIC:
        raise ArtifactError("not a repro executable artifact (bad magic)")
    return header, arrays


def _open_container(
    data: bytes, version: Optional[int] = None
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """``(header, arrays)`` of a verified container: the magic, a format
    version this build reads (``version``, when given) and the content
    fingerprint over every byte.  Every reader opens through here."""
    header, arrays = _unpack(data)
    found = header.get("format_version")
    if found not in _READERS:
        raise _version_error(found)
    if version is not None and found != version:
        raise ArtifactError(
            f"artifact is a format v{found} container, not "
            f"{_KINDS[version]}; load it through "
            f"repro.artifact.load_artifact()"
        )
    expected = header.get("fingerprint")
    actual = content_fingerprint(header, arrays)
    if expected != actual:
        raise ArtifactError(
            "artifact fingerprint mismatch: the container is corrupt "
            f"(header says {expected!r}, content hashes to {actual!r})"
        )
    return header, arrays


def peek_header(data: bytes) -> Dict[str, object]:
    """The container header alone — magic-checked, but *not* version-
    gated and *not* fingerprint-verified — so tooling (``repro inspect``)
    can still print identity and provenance of an artifact whose format
    version this build cannot decode."""
    return _unpack(data)[0]


def load_artifact_bytes(data: bytes):
    """Decode any supported ``.lpa`` container, negotiating the format
    version through the reader registry.

    Returns an :class:`ExecutableArtifact` (format v1) or an
    :class:`~repro.artifact.bundle.ArtifactBundle` (format v2); an
    unknown version raises :class:`ArtifactError` naming the versions
    this build reads."""
    header, arrays = _open_container(data)
    return _READERS[header["format_version"]](header, arrays)


def load_artifact(path: str):
    """:func:`load_artifact_bytes` over a file."""
    with open(path, "rb") as handle:
        return load_artifact_bytes(handle.read())


@dataclass(frozen=True)
class ProbeSet:
    """Packed probe vectors embedded in an artifact at package time.

    A handful of random 64-sample words per primary input, paired with
    the functional reference's expected outputs, captured while the
    source netlist was still in hand.  A deployed artifact can then
    prove end-to-end correctness on any box — ``repro inspect --verify``
    replays the probes through a freshly booted engine and compares
    bit-for-bit — with no source netlist and no compiler present.
    An optional format-v1-compatible section, like the fanout tables.
    """

    #: PI names in stimulus-row order (row ``i`` of :attr:`inputs`).
    input_names: Tuple[str, ...]
    #: PO names in expected-row order (row ``i`` of :attr:`outputs`).
    output_names: Tuple[str, ...]
    #: ``(len(input_names), words)`` uint64 stimulus words.
    inputs: np.ndarray
    #: ``(len(output_names), words)`` uint64 expected output words.
    outputs: np.ndarray
    #: stimulus seed, for provenance.
    seed: int = 0

    @property
    def words(self) -> int:
        """Packed words per signal (64 independent samples each)."""
        return int(self.inputs.shape[1])

    @property
    def samples(self) -> int:
        return self.words * 64

    def stimulus(self) -> Dict[str, np.ndarray]:
        """The probe inputs as an engine-ready ``{pi: word array}``."""
        return {
            name: self.inputs[i]
            for i, name in enumerate(self.input_names)
        }

    def expected(self) -> Dict[str, np.ndarray]:
        """The reference outputs as ``{po: word array}``."""
        return {
            name: self.outputs[i]
            for i, name in enumerate(self.output_names)
        }

    @classmethod
    def generate(cls, graph, *, words: int = 2, seed: int = 0) -> "ProbeSet":
        """Sample random stimulus and capture the functional reference's
        response (engine-free: pure graph evaluation)."""
        from ..lpu.functional import evaluate_graph, random_stimulus

        if words < 1:
            raise ValueError("probe sets need at least one packed word")
        stimulus = random_stimulus(graph, array_size=words, seed=seed)
        expected = evaluate_graph(graph, stimulus)
        input_names = tuple(
            graph.input_name(nid) for nid in graph.inputs
        )
        output_names = tuple(name for name, _ in graph.outputs)
        inputs = (
            np.stack([stimulus[name] for name in input_names])
            if input_names
            else np.zeros((0, words), dtype=np.uint64)
        ).astype(np.uint64)
        outputs = (
            np.stack([expected[name] for name in output_names])
            if output_names
            else np.zeros((0, words), dtype=np.uint64)
        ).astype(np.uint64)
        for array in (inputs, outputs):
            array.setflags(write=False)
        return cls(
            input_names=input_names,
            output_names=output_names,
            inputs=inputs,
            outputs=outputs,
            seed=seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProbeSet(pis={len(self.input_names)}, "
            f"pos={len(self.output_names)}, words={self.words})"
        )


@dataclass
class ExecutableArtifact:
    """One compiled workload in its serializable executable form."""

    program: Program
    #: lowered trace tables (None when packaged without them; the trace
    #: engine then lowers on first use).
    trace: Optional[TraceProgram] = None
    #: liveness-renamed register tables (None when packaged without
    #: them; the fused engine then renames on first use).  Embedded
    #: whenever the trace tables are, so a deployed artifact boots the
    #: fused serving default with zero lowering *and* zero renaming.
    fused: Optional[FusedProgram] = None
    #: fanout/delta tables for the delta streaming engine (an *optional*
    #: format-v1-compatible section, like the fused tables: readers that
    #: predate it ignore the extra header key and arrays).  Opt-in via
    #: ``from_program(..., fanout=True)``; the delta engine derives them
    #: on the fly when absent.
    fanout: Optional[FanoutTables] = None
    #: embedded input/output probe vectors (an optional v1-compatible
    #: section): a few packed stimulus words plus the functional
    #: reference's expected outputs, so ``repro inspect --verify`` can
    #: prove end-to-end correctness with no source netlist present.
    probes: Optional[ProbeSet] = None
    #: content fingerprint of the *source* logic graph (the workload
    #: identity every cache layer keys on).
    workload_fingerprint: str = ""
    #: canonical '+'-joined pass list that produced the program ("" when
    #: packaged from a bare Program).
    pipeline: str = ""
    #: ``repro`` version that produced the artifact.
    producer: str = ""
    #: compile metrics snapshot (JSON-able), when packaged from a compile.
    metrics: Optional[Dict[str, object]] = None
    #: self-verifying content fingerprint of the encoded artifact
    #: (computed on first encode / verified on load).
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # Cached ((trace-embedded?, fused-embedded?), container bytes):
        # packaging then storing/shipping must not pay the full encode
        # more than once.  Keyed on table presence so trace_program() /
        # fused_program() materialization later invalidates it.
        self._encoded: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_program(
        cls,
        program: Program,
        *,
        lower: bool = True,
        fanout: bool = False,
        probe_words: int = 0,
        probe_seed: int = 0,
        pipeline: str = "",
        metrics: Optional[Dict[str, object]] = None,
        workload_fingerprint: Optional[str] = None,
    ) -> "ExecutableArtifact":
        """Package a compiled program (with its lowered trace tables and
        their liveness-renamed fused tables unless ``lower=False``; every
        table comes from :mod:`repro.core.registry`, so a program an
        engine already runs is not lowered again).  ``fanout=True``
        additionally embeds the delta engine's fanout/cone tables, so
        streaming deployments boot with zero cone analysis; the section
        is optional and ignored by readers that predate it.
        ``probe_words=N`` embeds ``N`` packed stimulus words per primary
        input plus the functional reference's expected outputs (another
        optional section), enabling ``repro inspect --verify`` on boxes
        without the source netlist.

        ``workload_fingerprint`` is the *source* graph's content
        fingerprint when known (the identity every cache layer keys on);
        it defaults to the compiled graph's fingerprint, which differs
        from the source once pre-processing has rewritten the netlist.
        """
        from .. import __version__
        from ..compiler.cache import graph_fingerprint

        trace = lower_program(program) if lower else None
        fused = fuse_trace(trace) if lower else None
        if fanout and fused is None:
            raise ValueError(
                "fanout tables require the fused tables to be embedded "
                "(they are derived from, and decoded against, them)"
            )
        artifact = cls(
            program=program,
            trace=trace,
            fused=fused,
            fanout=build_fanout(fused) if fanout else None,
            probes=(
                ProbeSet.generate(
                    program.graph, words=probe_words, seed=probe_seed
                )
                if probe_words
                else None
            ),
            workload_fingerprint=(
                workload_fingerprint
                if workload_fingerprint is not None
                else graph_fingerprint(program.graph)
            ),
            pipeline=pipeline,
            producer=f"repro {__version__}",
            metrics=dict(metrics) if metrics is not None else None,
        )
        artifact.to_bytes()  # compute the fingerprint, warm the cache
        return artifact

    @classmethod
    def from_compile(
        cls,
        result,
        *,
        lower: bool = True,
        fanout: bool = False,
        probe_words: int = 0,
        probe_seed: int = 0,
    ) -> "ExecutableArtifact":
        """Package a :class:`~repro.core.compiler.CompileResult`."""
        if result.program is None:
            raise ValueError(
                "the compile produced no program (no 'codegen' pass); "
                "only executable compiles can be packaged"
            )
        pipeline = "+".join(
            record.name for record in result.pass_records
        )
        return cls.from_program(
            result.program,
            lower=lower,
            fanout=fanout,
            probe_words=probe_words,
            probe_seed=probe_seed,
            pipeline=pipeline,
            metrics=result.metrics.as_dict() if result.metrics else None,
            workload_fingerprint=result.source_fingerprint,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _encode(self):
        header, arrays = encode_program(self.program)
        header["magic"] = FORMAT_MAGIC
        header["format_version"] = SINGLE_PROGRAM_VERSION
        header["producer"] = self.producer
        header["workload_fingerprint"] = self.workload_fingerprint
        header["pipeline"] = self.pipeline
        header["metrics"] = self.metrics
        if self.trace is not None:
            trace_header, trace_arrays = encode_trace(self.trace)
            header["trace"] = trace_header
            arrays.update(trace_arrays)
        else:
            header["trace"] = None
        if self.fused is not None:
            fused_header, fused_arrays = encode_fused(self.fused)
            header["fused"] = fused_header
            arrays.update(fused_arrays)
        else:
            header["fused"] = None
        if self.fanout is not None and self.fused is not None:
            fanout_header, fanout_arrays = encode_fanout(self.fanout)
            header["fanout"] = fanout_header
            arrays.update(fanout_arrays)
        else:
            header["fanout"] = None
        if self.probes is not None:
            probe_header, probe_arrays = encode_probes(self.probes)
            header["probes"] = probe_header
            arrays.update(probe_arrays)
        else:
            header["probes"] = None
        return header, arrays

    def _refresh_fingerprint(self) -> str:
        header, arrays = self._encode()
        self.fingerprint = content_fingerprint(header, arrays)
        return self.fingerprint

    def to_bytes(self) -> bytes:
        """Serialize to the deterministic zero-pickle container bytes
        (memoized: repeated calls encode once)."""
        cached = self._encoded
        embedded = (self.trace is not None, self.fused is not None,
                    self.fanout is not None, self.probes is not None)
        if cached is not None and cached[0] == embedded:
            return cached[1]
        header, arrays = self._encode()
        self.fingerprint = content_fingerprint(header, arrays)
        header["fingerprint"] = self.fingerprint
        data = pack_container(header, arrays)
        self._encoded = (embedded, data)
        return data

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExecutableArtifact":
        """Deserialize, verifying the container, the format version and
        the content fingerprint over every byte, and decoding the sections
        a boot runs."""
        return cls.from_container(
            *_open_container(data, SINGLE_PROGRAM_VERSION)
        )

    @classmethod
    def from_container(cls, header, arrays) -> "ExecutableArtifact":
        """Decode an opened, verified format-v1 container and register
        its embedded tables (:meth:`share_tables`).  The program's
        per-instruction tables and the graph's node table decode on their
        first read (see :func:`~repro.artifact.codec.decode_program`);
        any section that fails to decode, here or then, raises
        :class:`ArtifactError`."""
        program, trace, fused, fanout, probes = decoded(
            cls._decode_sections, header, arrays
        )
        artifact = cls(
            program=program,
            trace=trace,
            fused=fused,
            fanout=fanout,
            probes=probes,
            workload_fingerprint=str(header.get("workload_fingerprint", "")),
            pipeline=str(header.get("pipeline", "")),
            producer=str(header.get("producer", "")),
            metrics=header.get("metrics"),
            fingerprint=str(header.get("fingerprint")),
        )
        artifact.share_tables()
        return artifact

    @staticmethod
    def _decode_sections(header, arrays):
        program = decode_program(header, arrays)
        trace = fused = fanout = probes = None
        if header.get("trace") is not None:
            trace = decode_trace(dict(header["trace"]), arrays, program)
        if trace is not None and header.get("fused") is not None:
            fused = decode_fused(dict(header["fused"]), arrays, trace)
        if fused is not None and header.get("fanout") is not None:
            fanout = decode_fanout(dict(header["fanout"]), arrays, fused)
        if header.get("probes") is not None:
            probes = decode_probes(dict(header["probes"]), arrays)
        return program, trace, fused, fanout, probes

    def save(self, path: str) -> str:
        """Write the artifact atomically; returns the path written."""
        from .store import _atomic_write

        _atomic_write(path, self.to_bytes())
        return path

    @classmethod
    def load(cls, path: str) -> "ExecutableArtifact":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    @classmethod
    def from_bundle(cls, bundle, stage=0) -> "ExecutableArtifact":
        """Extract one member program of a v2
        :class:`~repro.artifact.bundle.ArtifactBundle` as a standalone
        single-program artifact (``stage`` is an index or stage name)."""
        return bundle.member(stage)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def share_tables(self) -> Program:
        """Register the embedded tables in :mod:`repro.core.registry` as
        the lowering chain of their sources, so an engine booted on
        :attr:`program` runs them instead of deriving its own (a live
        registered table wins); returns the program.  Decoding does this,
        and every engine boot from the artifact again, since a registry
        clear may have dropped them in between."""
        if self.trace is not None:
            registry.adopt(registry.LOWERING, self.trace.program, self.trace)
        if self.fused is not None:
            registry.adopt(registry.FUSION, self.fused.trace, self.fused)
        if self.fanout is not None:
            registry.adopt(registry.FANOUT, self.fanout.fused, self.fanout)
        return self.program

    def trace_program(self) -> TraceProgram:
        """The lowered tables, lowering on first use if none are
        embedded."""
        if self.trace is None:
            self.trace = lower_program(self.program)
        return self.trace

    def fused_program(self) -> FusedProgram:
        """The liveness-renamed tables, renaming on first use if none
        are embedded."""
        if self.fused is None:
            self.fused = fuse_trace(self.trace_program())
        return self.fused

    def fanout_tables(self) -> FanoutTables:
        """The delta engine's fanout/cone tables, deriving them on first
        use if none are embedded."""
        if self.fanout is None:
            self.fanout = build_fanout(self.fused_program())
        return self.fanout

    def session(
        self, *, engine: Optional[str] = None, engine_options=None
    ):
        """A ready-to-run :class:`~repro.engine.session.Session` —
        no compile, and no lowering when trace tables are embedded.
        ``engine_options`` are engine constructor keywords
        (see :func:`repro.engine.create_engine`)."""
        from ..engine.session import DEFAULT_ENGINE, Session

        return Session(
            self,
            engine=engine if engine is not None else DEFAULT_ENGINE,
            engine_options=engine_options,
        )

    def verify_probes(
        self, *, engine: Optional[str] = None
    ) -> Dict[str, object]:
        """Replay the embedded probe vectors through a fresh engine and
        compare bit-for-bit against the packaged reference outputs.

        Returns a JSON-able report (``passed``, the engine used, the
        probe shape, and any mismatching output names).  Raises
        :class:`ArtifactError` when the artifact carries no probes —
        callers that want a fallback should check :attr:`probes` first.
        """
        if self.probes is None:
            raise ArtifactError(
                "artifact carries no probe vectors; package with "
                "probe_words > 0 (CLI: repro compile --probe-words N)"
            )
        session = self.session(engine=engine)
        result = session.run(self.probes.stimulus())
        expected = self.probes.expected()
        mismatches = [
            name
            for name in self.probes.output_names
            if not np.array_equal(
                np.asarray(result.outputs[name], dtype=np.uint64),
                expected[name],
            )
        ]
        return {
            "passed": not mismatches,
            "engine": session.engine_name,
            "probe_words": self.probes.words,
            "probe_samples": self.probes.samples,
            "outputs_checked": len(self.probes.output_names),
            "mismatches": mismatches,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self):
        return self.program.graph

    @property
    def config(self):
        return self.program.config

    def summary(self) -> Dict[str, object]:
        """JSON-able description (the ``repro inspect`` payload)."""
        program = self.program
        graph = program.graph
        schedule = program.schedule
        trace = self.trace
        pass_names: List[str] = (
            self.pipeline.split("+") if self.pipeline else []
        )
        return {
            "format_version": SINGLE_PROGRAM_VERSION,
            "producer": self.producer,
            "fingerprint": self.fingerprint or self._refresh_fingerprint(),
            "workload_fingerprint": self.workload_fingerprint,
            "pipeline": self.pipeline,
            "pass_names": pass_names,
            "graph": {
                "name": graph.name,
                "inputs": graph.num_inputs,
                "outputs": graph.num_outputs,
                "gates": graph.num_gates,
            },
            "config": program.config.describe(),
            "schedule": {
                "makespan_macro_cycles": schedule.makespan,
                "total_clock_cycles": schedule.total_clock_cycles,
                "queue_depth": schedule.queue_depth,
                "circulations": schedule.circulations,
                "policy": schedule.policy,
            },
            "program": {
                "compute_instructions": program.num_compute_instructions,
                "queue_entries": program.num_queue_entries,
                "peak_buffer_words": program.peak_buffer_words,
                "buffer_spills": program.buffer_spills,
            },
            "trace": None
            if trace is None
            else {
                "levels": trace.num_levels,
                "slots": trace.num_slots,
                "compute_instructions": trace.compute_instructions,
            },
            "fused": None
            if self.fused is None
            else {
                "levels": self.fused.num_levels,
                "registers": self.fused.num_regs,
                "max_level_width": self.fused.max_level_width,
            },
            "fanout": None
            if self.fanout is None
            else {
                "rows": self.fanout.num_rows,
                "instructions": self.fanout.num_instructions,
                "consumer_edges": len(self.fanout.consumer_gids),
            },
            "probes": None
            if self.probes is None
            else {
                "words": self.probes.words,
                "samples": self.probes.samples,
                "seed": self.probes.seed,
            },
            "metrics": self.metrics,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutableArtifact(graph={self.program.graph.name!r}, "
            f"pipeline={self.pipeline!r}, "
            f"trace={'yes' if self.trace is not None else 'no'})"
        )


# The format-v1 reader: the single-program artifact itself.
register_reader(SINGLE_PROGRAM_VERSION, ExecutableArtifact.from_container)
