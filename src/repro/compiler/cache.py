"""Pass-level result caching keyed by content-fingerprint chains.

The :class:`~repro.serve.cache.ProgramCache` memoizes whole compilations;
:class:`PassCache` extends the same idea one level down.  Every pass
application is identified by a rolling fingerprint::

    fp_0     = sha256(graph content fingerprint + graph name)
    fp_{i+1} = sha256(fp_i + pass name + pass signature)

so the key of pass *i* encodes the entire upstream chain — two pipelines
that share a prefix (e.g. ``paper`` and ``no-merge``, or the same netlist
compiled under two scheduling policies) hit the cache for every shared
pass and only re-run from the first point of divergence.  The cached value
is the snapshot of the state fields the pass ``provides``; artifacts are
shared by reference, which is safe because passes never mutate their
inputs (the merge pass clones, every synth pass rebuilds).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..netlist.graph import LogicGraph

__all__ = [
    "PassCache",
    "PassCacheStats",
    "base_fingerprint",
    "chain_fingerprint",
    "graph_fingerprint",
]


def graph_fingerprint(graph: LogicGraph) -> str:
    """Stable content hash of a logic graph's structure and interface.

    Nodes are renumbered in topological order, so the fingerprint depends
    only on the graph's logical content — never on node-id allocation
    history or object identity.  (:mod:`repro.serve.cache` re-exports this
    as the workload key of the program cache.)

    The hash covers one row per node, ``repr((i, op, fanins))`` with
    renumbered ids, then a ``repr`` row per PI and PO.  Node rows are
    formatted directly to that text.
    """
    order = graph.topological_order()
    label = dict(zip(order, map(str, range(len(order)))))
    nodes = graph.nodes
    rows = []
    for nid in order:
        node = nodes[nid]
        fanins = ", ".join([label[f] for f in node.fanins])
        if len(node.fanins) == 1:
            fanins += ","
        rows.append(f"({label[nid]}, {node.op!r}, ({fanins}))")
    for nid in graph.inputs:
        rows.append(repr(("pi", graph.input_name(nid), int(label[nid]))))
    for name, nid in graph.outputs:
        rows.append(repr(("po", name, int(label[nid]))))
    # One buffer, one update: the digest of the rows' concatenation.
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def base_fingerprint(content: str, name: str) -> str:
    """Starting fingerprint of a compile: the source graph's
    :func:`graph_fingerprint` (``content``) + its display name."""
    digest = hashlib.sha256()
    digest.update(content.encode())
    digest.update(repr(name).encode())
    return digest.hexdigest()


def chain_fingerprint(prefix: str, pass_name: str, signature: Tuple) -> str:
    """Fold one pass application into the rolling fingerprint."""
    digest = hashlib.sha256()
    digest.update(prefix.encode())
    digest.update(pass_name.encode())
    digest.update(repr(signature).encode())
    return digest.hexdigest()


class PassCacheStats:
    """Hit/miss counters, overall and per pass name."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: memory misses served from the disk tier (also counted as hits).
        self.disk_hits = 0
        #: snapshots persisted to the disk tier.
        self.disk_stores = 0
        self.by_pass: Dict[str, Dict[str, int]] = {}

    def record(self, pass_name: str, hit: bool) -> None:
        counters = self.by_pass.setdefault(pass_name, {"hits": 0, "misses": 0})
        if hit:
            self.hits += 1
            counters["hits"] += 1
        else:
            self.misses += 1
            counters["misses"] += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "hit_rate": self.hit_rate,
            "by_pass": {name: dict(c) for name, c in self.by_pass.items()},
        }


#: disk-tier key prefix (one ArtifactStore serves several cache tiers).
_DISK_PREFIX = "pass-"
_DISK_SUFFIX = ".snap"


class PassCache:
    """Thread-safe LRU cache of per-pass state snapshots.

    Args:
        capacity: maximum retained pass applications (each entry is one
            pass's output snapshot, so a 13-pass pipeline occupies 13
            entries when fully cached).
        store: optional :class:`~repro.artifact.store.StoreBackend` blob
            tier (a directory store, an in-process memory backend, or a
            remote HTTP store — anything speaking
            ``get_bytes``/``put_bytes``).
            Memory misses fall through to it, and stored
            snapshots are persisted whenever the zero-pickle snapshot
            codec can encode them (scalars, logic graphs, levelizations,
            flat report dataclasses — i.e. every pre-processing pass and
            ``metrics``); snapshots carrying MFG partitions, schedules,
            or programs stay memory-only, since whole executables already
            persist through the :class:`~repro.serve.cache.ProgramCache`
            disk tier.  Keys are the rolling chain fingerprints, so the
            disk tier is content-addressed exactly like the memory tier.
    """

    def __init__(self, capacity: int = 256, store=None) -> None:
        if capacity < 1:
            raise ValueError("pass cache capacity must be >= 1")
        self.capacity = capacity
        self.disk = store
        self.stats = PassCacheStats()
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Reset the memory tier and counters (disk entries persist)."""
        with self._lock:
            self._entries.clear()
            self.stats = PassCacheStats()

    def _disk_lookup(self, key: str) -> Optional[Dict[str, object]]:
        from ..artifact.codec import ArtifactDecodeError, decode_snapshot

        blob = self.disk.get_bytes(_DISK_PREFIX + key, suffix=_DISK_SUFFIX)
        if blob is None:
            return None
        try:
            return decode_snapshot(blob)
        except ArtifactDecodeError:
            return None

    def lookup(
        self, key: str, pass_name: str
    ) -> Optional[Dict[str, object]]:
        """Return the cached snapshot for ``key`` (and count the lookup)."""
        with self._lock:
            snapshot = self._entries.get(key)
            if snapshot is not None:
                self._entries.move_to_end(key)
                self.stats.record(pass_name, hit=True)
                return snapshot
        if self.disk is not None:
            snapshot = self._disk_lookup(key)
            if snapshot is not None:
                with self._lock:
                    # Promote to the memory tier so the next lookup is RAM.
                    self._insert(key, snapshot)
                    self.stats.disk_hits += 1
                    self.stats.record(pass_name, hit=True)
                return snapshot
        with self._lock:
            self.stats.record(pass_name, hit=False)
        return None

    def _insert(self, key: str, snapshot: Dict[str, object]) -> None:
        self._entries[key] = snapshot
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def store(self, key: str, snapshot: Dict[str, object]) -> None:
        with self._lock:
            self._insert(key, snapshot)
        if self.disk is not None:
            from ..artifact.codec import encode_snapshot

            blob = encode_snapshot(snapshot)
            if blob is not None:
                self.disk.put_bytes(
                    _DISK_PREFIX + key, blob, suffix=_DISK_SUFFIX
                )
                with self._lock:
                    self.stats.disk_stores += 1
