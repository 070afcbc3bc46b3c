"""Shared-memory arena for the fused engine's constant index tables.

A spawn-backed :class:`~repro.serve.pool.WorkerPool` boots every child
process from the same artifact bytes — correct, but each child then
decodes a private copy of the fused program's per-level gather tables
(``a_index`` / ``b_index`` / ``out_index``), the dominant constant
memory of a fused deployment.  N serving processes pay N copies of
tables that never change after compile.

:class:`SharedTableArena` ends that: the parent publishes the tables
once into one :mod:`multiprocessing.shared_memory` segment, ships the
segment name + layout (a small JSON-able handle) through the worker
initializer, and each child *attaches* — rebinding its fused program's
levels to zero-copy read-only views of the shared segment and dropping
its private copies.  The mutable per-worker state (register file,
gather scratch) stays process-private; only the immutable tables are
shared, so there is nothing to race on.

The rebind verifies content before swapping: a child whose decoded
tables differ from the published ones (version skew, wrong artifact)
keeps its private copies rather than silently computing with someone
else's schedule.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from ..core.liveness import FusedProgram

__all__ = ["SharedTableArena", "fused_table_arrays"]

#: segment offsets are 8-byte aligned (every table is int64/intp here,
#: but alignment is kept explicit so the layout never depends on it).
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def fused_table_arrays(
    fused: FusedProgram,
) -> List[Tuple[str, np.ndarray]]:
    """The shareable constant tables of ``fused``, in a stable order:
    ``(name, array)`` per level and port."""
    tables: List[Tuple[str, np.ndarray]] = []
    for i, level in enumerate(fused.levels):
        tables.append((f"level{i}.a_index", np.asarray(level.a_index)))
        tables.append((f"level{i}.b_index", np.asarray(level.b_index)))
        tables.append((f"level{i}.out_index", np.asarray(level.out_index)))
    return tables


class SharedTableArena:
    """One shared-memory segment holding a fused program's index tables.

    Create with :meth:`publish` (the owning parent) or :meth:`attach`
    (a child, from the owner's :meth:`handle`).  The owner unlinks the
    segment on :meth:`close`; attachers only detach.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: List[Tuple[str, str, Tuple[int, ...], int]],
        *,
        owner: bool,
    ) -> None:
        self._segment = segment
        self._layout = layout
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, fused: FusedProgram) -> "SharedTableArena":
        """Copy ``fused``'s index tables into a fresh shared segment."""
        tables = fused_table_arrays(fused)
        layout: List[Tuple[str, str, Tuple[int, ...], int]] = []
        offset = 0
        for name, array in tables:
            offset = _aligned(offset)
            layout.append(
                (name, array.dtype.str, tuple(array.shape), offset)
            )
            offset += array.nbytes
        segment = shared_memory.SharedMemory(
            create=True, size=max(offset, 1)
        )
        for (name, dtype, shape, start), (_, array) in zip(layout, tables):
            view = np.ndarray(
                shape, dtype=dtype, buffer=segment.buf, offset=start
            )
            view[...] = array
        return cls(segment, layout, owner=True)

    def handle(self) -> Dict[str, object]:
        """A picklable description a child passes to :meth:`attach`."""
        return {
            "segment": self._segment.name,
            "layout": [
                [name, dtype, list(shape), offset]
                for name, dtype, shape, offset in self._layout
            ],
        }

    @classmethod
    def attach(cls, handle: Dict[str, object]) -> "SharedTableArena":
        """Open the owner's segment read-only (child side).

        Attaching must not enroll the segment with the resource tracker:
        on Pythons before ``track=False`` existed, an attacher's exit
        would otherwise unlink the segment out from under its siblings
        (and a manual unregister is no better — the tracker's set is
        name-keyed, so it would drop the *owner's* registration).  The
        register call is suppressed for the duration of the attach.
        """
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(
                name=str(handle["segment"])
            )
        finally:
            resource_tracker.register = original_register
        layout = [
            (str(name), str(dtype), tuple(int(d) for d in shape),
             int(offset))
            for name, dtype, shape, offset in handle["layout"]
        ]
        return cls(segment, layout, owner=False)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bytes in the shared segment."""
        return self._segment.size

    @property
    def num_tables(self) -> int:
        return len(self._layout)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Read-only zero-copy views of every table, by name."""
        views: Dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in self._layout:
            view = np.ndarray(
                shape, dtype=dtype, buffer=self._segment.buf, offset=offset
            )
            view.setflags(write=False)
            views[name] = view
        return views

    def rebind(self, fused: FusedProgram, *, verify: bool = True) -> int:
        """Swap ``fused``'s level tables for shared views; returns the
        private bytes released.

        With ``verify`` (the default) every private table is compared
        bit-for-bit against its shared counterpart first, and a mismatch
        raises ``ValueError`` with nothing swapped — a child never
        silently executes someone else's schedule.
        """
        views = self.arrays()
        expected = fused_table_arrays(fused)
        if len(expected) != len(self._layout):
            raise ValueError(
                "shared arena does not match this fused program: "
                f"{len(self._layout)} tables vs {len(expected)}"
            )
        swaps = []
        for name, array in expected:
            view = views.get(name)
            if view is None or view.shape != array.shape:
                raise ValueError(
                    f"shared arena has no matching table for {name!r}"
                )
            if verify and not np.array_equal(
                view, array.astype(view.dtype, copy=False)
            ):
                raise ValueError(
                    f"shared arena table {name!r} differs from this "
                    "fused program's — refusing to rebind"
                )
            swaps.append((name, view.astype(np.intp, copy=False)))
        released = 0
        by_level: Dict[int, Dict[str, np.ndarray]] = {}
        for name, view in swaps:
            level_part, attr = name.split(".", 1)
            by_level.setdefault(int(level_part[len("level"):]), {})[
                attr
            ] = view
        for index, attrs in by_level.items():
            level = fused.levels[index]
            for attr, view in attrs.items():
                released += np.asarray(getattr(level, attr)).nbytes
                view.setflags(write=False)
                # FusedLevel is frozen; the swap preserves value
                # equality (verified above), only the backing store
                # moves into the shared segment.
                object.__setattr__(level, attr, view)
        return released

    def close(self) -> None:
        """Detach; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        finally:
            if self._owner:
                try:
                    self._segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def __enter__(self) -> "SharedTableArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self._owner else "attached"
        return (
            f"SharedTableArena({self._segment.name}, {role}, "
            f"tables={self.num_tables}, bytes={self.size})"
        )
