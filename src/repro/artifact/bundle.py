"""Format v2: multi-program ``.lpa`` bundles with a dataflow manifest.

The paper evaluates whole models (VGG16, LeNet-5, MLP-Mixer) but a
single :class:`~repro.artifact.format.ExecutableArtifact` carries one
FFCL block.  An :class:`ArtifactBundle` packages *all* partitions of a
model into one deployable container:

* N member programs, each encoded as its own complete format-v1
  single-program container (the existing per-program encoder, verbatim —
  so member bytes round-trip bit-identically and optional fused/fanout/
  probe sections ride along per member),
* a dataflow manifest: the linear stage order plus per-stage PO→PI
  wiring in the same name-map form :func:`repro.netlist.compose.
  compose_serial` takes — stage ``i`` PIs are either wired from stage
  ``i-1`` POs or fed externally from the request,
* optional bundle-level probe vectors captured against the *composed*
  functional reference, so ``repro inspect --verify`` replays the whole
  chain end-to-end on any box.

The container itself is the same deterministic zero-pickle ZIP as v1
(JSON header + ``.npy`` arrays; member containers are embedded as uint8
arrays), stamped ``format_version: 2`` and dispatched through the
reader registry in :mod:`repro.artifact.format`.

Build one with :func:`bundle_model` (compiles every stage through the
shared pass manager) or :meth:`ArtifactBundle.from_members` (packages
already-compiled artifacts); execute it with
:class:`repro.pipeline.PipelineExecutor` or serve it directly —
``repro serve --artifact model.lpa``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codec import (
    content_fingerprint,
    decode_probes,
    decoded,
    encode_probes,
    pack_container,
)
from .format import (
    BUNDLE_FORMAT_VERSION,
    FORMAT_MAGIC,
    ArtifactError,
    ExecutableArtifact,
    ProbeSet,
    _open_container,
    register_reader,
)

__all__ = ["ArtifactBundle", "StageLink", "bundle_model"]


@dataclass(frozen=True)
class StageLink:
    """One stage's entry in the dataflow manifest."""

    #: stage display name (the member graph's name).
    name: str
    #: ``(pi, po)`` pairs wiring this stage's PIs from the *previous*
    #: stage's POs, sorted by PI name (empty for stage 0).
    wiring: Tuple[Tuple[str, str], ...]
    #: PIs fed externally from the request, in graph PI order.
    external: Tuple[str, ...]


def _stage_pis(graph) -> List[str]:
    return [graph.input_name(nid) for nid in graph.inputs]


def _stage_pos(graph) -> List[str]:
    return [name for name, _ in graph.outputs]


def _derive_links(
    members: Sequence[ExecutableArtifact],
    wirings: Optional[Sequence[Optional[Dict[str, str]]]],
) -> Tuple[StageLink, ...]:
    """Resolve the per-stage wiring maps into a validated manifest.

    ``wirings[i-1]`` (when given) maps stage ``i`` PI names to stage
    ``i-1`` PO names; ``None`` entries (and an omitted ``wirings``) use
    the :func:`~repro.netlist.compose.compose_serial` identity-by-name
    default.  Unwired PIs become external bundle inputs.
    """
    if wirings is not None and len(wirings) != len(members) - 1:
        raise ArtifactError(
            f"wirings must have one entry per stage transition: got "
            f"{len(wirings)} for {len(members)} stages"
        )
    links: List[StageLink] = []
    prev_pos: set = set()
    for i, member in enumerate(members):
        graph = member.graph
        pi_names = _stage_pis(graph)
        if i == 0:
            links.append(
                StageLink(
                    name=graph.name, wiring=(), external=tuple(pi_names)
                )
            )
            prev_pos = set(_stage_pos(graph))
            continue
        given = wirings[i - 1] if wirings is not None else None
        if given is None:
            wmap = {pi: pi for pi in pi_names if pi in prev_pos}
        else:
            wmap = {str(pi): str(po) for pi, po in given.items()}
            unknown = sorted(set(wmap) - set(pi_names))
            if unknown:
                raise ArtifactError(
                    f"stage {i} ({graph.name!r}) wiring names unknown "
                    f"PIs {unknown}"
                )
            dangling = sorted(
                {po for po in wmap.values() if po not in prev_pos}
            )
            if dangling:
                raise ArtifactError(
                    f"stage {i} ({graph.name!r}) wiring references "
                    f"previous-stage POs that do not exist: {dangling}"
                )
            shadow = sorted(
                pi for pi in pi_names
                if pi not in wmap and pi in prev_pos
            )
            if shadow:
                raise ArtifactError(
                    f"stage {i} ({graph.name!r}) leaves PIs {shadow} "
                    f"external although the previous stage drives POs "
                    f"of the same name; wire or rename them"
                )
        links.append(
            StageLink(
                name=graph.name,
                wiring=tuple(sorted(wmap.items())),
                external=tuple(
                    pi for pi in pi_names if pi not in wmap
                ),
            )
        )
        prev_pos = set(_stage_pos(graph))
    return tuple(links)


def _ordered_external_inputs(links: Sequence[StageLink]) -> Tuple[str, ...]:
    """External PI names across all stages, first occurrence first.
    A name appearing in several stages is one request signal (the
    ``merge_parallel`` shared-input convention)."""
    seen: Dict[str, None] = {}
    for link in links:
        for name in link.external:
            seen.setdefault(name, None)
    return tuple(seen)


@dataclass
class ArtifactBundle:
    """N compiled programs plus their dataflow manifest, in one ``.lpa``."""

    members: Tuple[ExecutableArtifact, ...]
    links: Tuple[StageLink, ...]
    name: str = "bundle"
    #: bundle-level probe vectors against the *composed* reference
    #: (replayed end-to-end through the chain by ``inspect --verify``).
    probes: Optional[ProbeSet] = None
    producer: str = ""
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ArtifactError("a bundle needs at least one member program")
        if len(self.members) != len(self.links):
            raise ArtifactError(
                "manifest/member mismatch: "
                f"{len(self.links)} links for {len(self.members)} programs"
            )
        self._encoded: Optional[bytes] = None
        self._reference: Optional[object] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_members(
        cls,
        members: Sequence[ExecutableArtifact],
        *,
        wirings: Optional[Sequence[Optional[Dict[str, str]]]] = None,
        name: str = "bundle",
        probe_words: int = 0,
        probe_seed: int = 0,
    ) -> "ArtifactBundle":
        """Package already-compiled member artifacts into a bundle.

        ``wirings`` has one optional ``{pi: po}`` map per stage
        transition (``compose_serial`` semantics; ``None`` = identity
        by name).  ``probe_words=N`` embeds N packed stimulus words plus
        the composed functional reference's expected outputs.
        """
        from .. import __version__

        members = tuple(members)
        links = _derive_links(members, wirings)
        bundle = cls(
            members=members,
            links=links,
            name=name,
            producer=f"repro {__version__}",
        )
        if probe_words:
            bundle.probes = ProbeSet.generate(
                bundle.reference_graph(), words=probe_words, seed=probe_seed
            )
        bundle.to_bytes()  # compute the fingerprint, warm the cache
        return bundle

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def external_inputs(self) -> Tuple[str, ...]:
        """Request-fed PI names across all stages (dedup, stable order)."""
        return _ordered_external_inputs(self.links)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """The bundle's PO names: the final stage's outputs."""
        return tuple(_stage_pos(self.members[-1].graph))

    def member(
        self, key: Union[int, str] = 0
    ) -> ExecutableArtifact:
        """One member program, by stage index or stage name."""
        if isinstance(key, str):
            for link, member in zip(self.links, self.members):
                if link.name == key:
                    return member
            raise KeyError(
                f"no stage named {key!r} "
                f"(stages: {[link.name for link in self.links]})"
            )
        return self.members[key]

    def reference_graph(self):
        """The whole-model functional reference: every stage graph
        stitched through :func:`~repro.netlist.compose.compose_serial`
        with exactly the manifest's wiring (cached)."""
        if self._reference is None:
            from ..netlist.compose import compose_serial

            graph = self.members[0].graph
            for member, link in zip(self.members[1:], self.links[1:]):
                graph = compose_serial(
                    graph, member.graph, wiring=dict(link.wiring)
                )
            self._reference = graph
        return self._reference

    def summary(self) -> Dict[str, object]:
        """JSON-able description (the ``repro inspect`` payload)."""
        stages = []
        for member, link in zip(self.members, self.links):
            member_summary = member.summary()
            stages.append(
                {
                    "name": link.name,
                    "fingerprint": member.fingerprint,
                    "workload_fingerprint": member.workload_fingerprint,
                    "pipeline": member.pipeline,
                    "graph": member_summary["graph"],
                    "program": member_summary["program"],
                    "trace": member_summary["trace"],
                    "fused": member_summary["fused"],
                    "wired": {pi: po for pi, po in link.wiring},
                    "external": list(link.external),
                }
            )
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "kind": "bundle",
            "name": self.name,
            "producer": self.producer,
            "fingerprint": self.fingerprint or self._refresh_fingerprint(),
            "stages": stages,
            "external_inputs": list(self.external_inputs),
            "outputs": list(self.outputs),
            "probes": None
            if self.probes is None
            else {
                "words": self.probes.words,
                "samples": self.probes.samples,
                "seed": self.probes.seed,
            },
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _encode(self):
        arrays: Dict[str, np.ndarray] = {}
        stage_entries = []
        for i, (member, link) in enumerate(zip(self.members, self.links)):
            data = member.to_bytes()
            key = f"stage_{i:03d}"
            arrays[key] = np.frombuffer(data, dtype=np.uint8)
            stage_entries.append(
                {
                    "name": link.name,
                    "array": key,
                    "bytes": len(data),
                    "fingerprint": member.fingerprint,
                    "workload_fingerprint": member.workload_fingerprint,
                    "pipeline": member.pipeline,
                    "wiring": {pi: po for pi, po in link.wiring},
                    "external": list(link.external),
                }
            )
        header = {
            "magic": FORMAT_MAGIC,
            "format_version": BUNDLE_FORMAT_VERSION,
            "kind": "bundle",
            "name": self.name,
            "producer": self.producer,
            "bundle": {
                "stages": stage_entries,
                "external_inputs": list(self.external_inputs),
                "outputs": list(self.outputs),
            },
        }
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
        """Deterministic container bytes (memoized)."""
        if self._encoded is not None:
            return self._encoded
        header, arrays = self._encode()
        self.fingerprint = content_fingerprint(header, arrays)
        header["fingerprint"] = self.fingerprint
        self._encoded = pack_container(header, arrays)
        return self._encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArtifactBundle":
        """Deserialize, verifying version, fingerprint, and manifest."""
        return cls.from_container(
            *_open_container(data, BUNDLE_FORMAT_VERSION)
        )

    @classmethod
    def from_container(cls, header, arrays) -> "ArtifactBundle":
        """Decode an opened, verified format-v2 container, checking its
        manifest against the decoded members."""
        members, links, probes = decoded(cls._decode_manifest, header, arrays)
        bundle = cls(
            members=members,
            links=links,
            name=str(header.get("name", "bundle")),
            probes=probes,
            producer=str(header.get("producer", "")),
            fingerprint=str(header.get("fingerprint")),
        )
        # Re-derive the wiring against the decoded graphs: a manifest
        # that names signals its members do not have is corrupt even
        # when the fingerprint holds (it was packaged wrong).
        _derive_links(
            bundle.members,
            [dict(link.wiring) for link in bundle.links[1:]],
        )
        return bundle

    @staticmethod
    def _decode_manifest(header, arrays):
        members = []
        links = []
        for entry in header["bundle"]["stages"]:
            members.append(
                ExecutableArtifact.from_bytes(
                    arrays[entry["array"]].tobytes()
                )
            )
            links.append(
                StageLink(
                    name=str(entry["name"]),
                    wiring=tuple(
                        sorted(
                            (str(pi), str(po))
                            for pi, po in dict(entry["wiring"]).items()
                        )
                    ),
                    external=tuple(str(name) for name in entry["external"]),
                )
            )
        probes = None
        if header.get("probes") is not None:
            probes = decode_probes(dict(header["probes"]), arrays)
        return tuple(members), tuple(links), probes

    def save(self, path: str) -> str:
        """Write the bundle atomically; returns the path written."""
        from .store import _atomic_write

        _atomic_write(path, self.to_bytes())
        return path

    @classmethod
    def load(cls, path: str) -> "ArtifactBundle":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def executor(
        self,
        *,
        engine: Optional[str] = None,
        engine_options=None,
        depth: int = 4,
    ):
        """A ready-to-stream :class:`repro.pipeline.PipelineExecutor`
        over this bundle (one engine per stage, bounded inter-stage
        queues of ``depth`` batches)."""
        from ..pipeline import PipelineExecutor

        return PipelineExecutor(
            self, engine=engine, engine_options=engine_options, depth=depth
        )

    def verify_probes(
        self, *, engine: Optional[str] = None
    ) -> Dict[str, object]:
        """Replay the embedded probe vectors end-to-end through the
        stage chain and compare bit-for-bit against the composed
        functional reference's outputs."""
        if self.probes is None:
            raise ArtifactError(
                "bundle carries no probe vectors; package with "
                "probe_words > 0 (CLI: repro compile --bundle "
                "--probe-words N)"
            )
        executor = self.executor(engine=engine)
        try:
            result = executor.run(self.probes.stimulus())
            engine_name = executor.engine_name
        finally:
            executor.close()
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
            "engine": engine_name,
            "stages": self.num_stages,
            "probe_words": self.probes.words,
            "probe_samples": self.probes.samples,
            "outputs_checked": len(self.probes.output_names),
            "mismatches": mismatches,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArtifactBundle(name={self.name!r}, "
            f"stages={[link.name for link in self.links]})"
        )


def bundle_model(
    stages,
    config=None,
    *,
    wirings: Optional[Sequence[Optional[Dict[str, str]]]] = None,
    name: str = "model",
    pass_cache=None,
    probe_words: int = 2,
    probe_seed: int = 0,
    lower: bool = True,
    fanout: bool = False,
    **compile_kwargs,
) -> ArtifactBundle:
    """Compile every stage graph and package the bundle in one call.

    All stages compile through the existing pass manager sharing one
    :class:`~repro.compiler.cache.PassCache` (``pass_cache``, created
    fresh when omitted), so identical sub-blocks across layers reuse
    pass results.  ``compile_kwargs`` forward to
    :func:`repro.core.compile_ffcl` (``pipeline=``, ``merge=``, ...).
    """
    from ..compiler.cache import PassCache
    from ..core.compiler import compile_ffcl
    from ..core.config import PAPER_CONFIG

    graphs = list(stages)
    if not graphs:
        raise ArtifactError("bundle_model needs at least one stage graph")
    cache = pass_cache if pass_cache is not None else PassCache()
    members = []
    for graph in graphs:
        result = compile_ffcl(
            graph,
            config if config is not None else PAPER_CONFIG,
            pass_cache=cache,
            **compile_kwargs,
        )
        members.append(
            ExecutableArtifact.from_compile(
                result, lower=lower, fanout=fanout
            )
        )
    return ArtifactBundle.from_members(
        members,
        wirings=wirings,
        name=name,
        probe_words=probe_words,
        probe_seed=probe_seed,
    )


# The format-v2 reader: the bundle container.
register_reader(BUNDLE_FORMAT_VERSION, ArtifactBundle.from_container)
