"""Zero-pickle binary encoding of executable artifacts.

Everything an :class:`~repro.artifact.format.ExecutableArtifact` persists
is flattened into exactly two kinds of data — a JSON header for metadata
and raw ``.npy`` arrays for the bulk tables — and packed into one ZIP
container.  Nothing is ever pickled: instructions serialize through the
32-bit ISA words of :mod:`repro.core.isa` (the paper's "customized
instructions" binary format), graphs and trace tables through dense numpy
columns, and every remaining scalar through JSON.  Deserializing an
artifact therefore never executes code, and the bytes are deterministic:
encoding the same executable twice — or re-encoding a decoded one —
produces identical bytes, which is what makes content fingerprints stable.

Layout of the container::

    header.json          # metadata, interface maps, scalar statistics
    arrays/<name>.npy    # numpy tables (npy format v1, allow_pickle=False)

The module also provides the *snapshot* codec used by the
:class:`~repro.compiler.cache.PassCache` disk tier: a restricted
serializer for per-pass state snapshots whose values are scalars,
:class:`~repro.netlist.graph.LogicGraph` instances,
:class:`~repro.synth.levelize.Levelization` tables, or flat report
dataclasses.  Snapshots containing anything else (MFG partitions,
schedules, programs) are simply not disk-cached — the program-level
artifact covers those.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
import zlib
from dataclasses import fields, is_dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.codegen import DeferredProgram, Program, ProgramTables
from ..core.config import LPUConfig
from ..core.fanout import FanoutTables
from ..core.isa import malformed_words
from ..core.liveness import FusedLevel, FusedProgram
from ..core.schedule import RuntimeSchedule
from ..core.trace import (
    DeferredTraceProgram,
    OpSegment,
    TraceLevel,
    TraceProgram,
    _NUM_CONST_SLOTS,
)
from ..netlist import cells
from ..netlist.graph import LogicGraph, Node

__all__ = [
    "ArtifactDecodeError",
    "ArtifactError",
    "decoded",
    "decode_fanout",
    "decode_fused",
    "decode_graph",
    "decode_probes",
    "decode_program",
    "decode_snapshot",
    "decode_trace",
    "encode_fanout",
    "encode_fused",
    "encode_graph",
    "encode_probes",
    "encode_program",
    "encode_snapshot",
    "encode_trace",
    "pack_container",
    "unpack_container",
]


class ArtifactDecodeError(RuntimeError):
    """The byte stream is not a valid artifact container."""


class ArtifactError(RuntimeError):
    """The bytes are not a loadable artifact (corrupt, wrong format, or an
    incompatible format version)."""


#: every way decoding a section of a well-formed container can fail: a
#: missing key or array, a value of the wrong type, shape or range.
_DECODE_FAILURES = (
    ArtifactDecodeError,
    KeyError,
    ValueError,
    IndexError,
    TypeError,
    OverflowError,
)


def decoded(decode, *args):
    """``decode(*args)``, with every decode failure raised as the typed
    :class:`ArtifactError`.  The one wrapper around section decoding: at
    load for the sections a boot runs, at first read for the deferred
    ones, and for a bundle's manifest."""
    try:
        return decode(*args)
    except _DECODE_FAILURES as exc:
        raise ArtifactError(f"undecodable artifact: {exc}") from exc


#: fixed ZIP member timestamp: containers must be byte-deterministic.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
_HEADER_NAME = "header.json"
_ARRAY_PREFIX = "arrays/"

#: node-id / index sentinel for "absent" (no fanin, no trace node).
_NONE = -1


def _dump_json(data: Dict[str, object]) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace jitter)."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


def _array_bytes(array: np.ndarray) -> bytes:
    """The exact ``.npy`` byte stream of one array (pickle forbidden)."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.ascontiguousarray(array),
                              allow_pickle=False)
    return buffer.getvalue()


def pack_container(
    header: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> bytes:
    """Pack header + arrays into deterministic ZIP bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        members = [(_HEADER_NAME, _dump_json(header))]
        members += [
            (_ARRAY_PREFIX + name + ".npy", _array_bytes(arrays[name]))
            for name in sorted(arrays)
        ]
        for name, data in members:
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            archive.writestr(info, data)
    return buffer.getvalue()


def unpack_container(
    data: bytes,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_container`."""
    try:
        with zipfile.ZipFile(io.BytesIO(data), "r") as archive:
            names = archive.namelist()
            if _HEADER_NAME not in names:
                raise ArtifactDecodeError("container has no header.json")
            header = json.loads(archive.read(_HEADER_NAME).decode("utf-8"))
            arrays: Dict[str, np.ndarray] = {}
            for name in names:
                if not name.startswith(_ARRAY_PREFIX):
                    continue
                key = name[len(_ARRAY_PREFIX):-len(".npy")]
                arrays[key] = np.lib.format.read_array(
                    io.BytesIO(archive.read(name)), allow_pickle=False
                )
    except ArtifactDecodeError:
        raise
    except (zipfile.BadZipFile, zlib.error, ValueError, KeyError, OSError) as exc:
        raise ArtifactDecodeError(f"corrupt artifact container: {exc}") from exc
    if not isinstance(header, dict):
        raise ArtifactDecodeError("artifact header is not a JSON object")
    return header, arrays


def content_fingerprint(
    header: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> str:
    """SHA-256 over the canonical (uncompressed) content of a container.

    Computed over the header JSON with any ``"fingerprint"`` field removed
    plus every array's name, dtype, shape, and raw bytes — so the digest
    is independent of ZIP compression details and self-verifying on load.
    """
    stripped = {k: v for k, v in header.items() if k != "fingerprint"}
    digest = hashlib.sha256()
    digest.update(_dump_json(stripped))
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Logic graphs
# ----------------------------------------------------------------------
def encode_graph(
    graph: LogicGraph, prefix: str = "graph"
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode a graph as (header fragment, arrays); node ids are exact."""
    op_table = sorted(cells.ALL_OPS)
    op_code = {op: i for i, op in enumerate(op_table)}
    node_ids = sorted(graph.nodes)
    ops = np.empty(len(node_ids), dtype=np.int16)
    fanin_a = np.full(len(node_ids), _NONE, dtype=np.int64)
    fanin_b = np.full(len(node_ids), _NONE, dtype=np.int64)
    gate_names: Dict[str, str] = {}
    for row, nid in enumerate(node_ids):
        node = graph.nodes[nid]
        ops[row] = op_code[node.op]
        if len(node.fanins) >= 1:
            fanin_a[row] = node.fanins[0]
        if len(node.fanins) == 2:
            fanin_b[row] = node.fanins[1]
        if node.name is not None and node.op != cells.INPUT:
            gate_names[str(nid)] = node.name
    header = {
        "name": graph.name,
        "next_id": graph._next_id,
        "ops": op_table,
        "inputs": [
            [graph.input_name(nid), nid] for nid in graph.inputs
        ],
        "outputs": [[name, nid] for name, nid in graph.outputs],
        "gate_names": gate_names,
    }
    arrays = {
        f"{prefix}_ids": np.asarray(node_ids, dtype=np.int64),
        f"{prefix}_ops": ops,
        f"{prefix}_fanin_a": fanin_a,
        f"{prefix}_fanin_b": fanin_b,
    }
    return header, arrays


def decode_graph(
    header: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    prefix: str = "graph",
) -> LogicGraph:
    """Rebuild a graph with its exact node ids, names, and interface.

    The interface (name, PI and PO lists) is decoded here; the node table
    — a dataclass per node, which the table engines never read — decodes
    and is validated on the first read of ``graph.nodes``, where a
    failure is an :class:`ArtifactError`.
    """
    inputs = [(str(name), int(nid)) for name, nid in header["inputs"]]
    outputs = [(str(name), int(nid)) for name, nid in header["outputs"]]
    return LogicGraph.from_interface(
        str(header["name"]),
        inputs,
        outputs,
        int(header["next_id"]),
        partial(
            decoded,
            _decode_nodes,
            list(header["ops"]),
            {nid: name for name, nid in inputs},
            outputs,
            {int(k): v for k, v in dict(header["gate_names"]).items()},
            *(
                arrays[f"{prefix}_{column}"]
                for column in ("ids", "ops", "fanin_a", "fanin_b")
            ),
        ),
    )


def _decode_nodes(
    op_table: List[str],
    input_names: Dict[int, str],
    outputs: List[Tuple[str, int]],
    gate_names: Dict[int, str],
    node_ids: np.ndarray,
    ops: np.ndarray,
    fanin_a: np.ndarray,
    fanin_b: np.ndarray,
) -> Dict[int, Node]:
    """The node table of :func:`decode_graph`, from its four columns,
    checked against the interface the graph already holds."""
    # zip() would stop at the shortest column; a short one is an error.
    if not len(node_ids) == len(ops) == len(fanin_a) == len(fanin_b):
        raise ArtifactDecodeError("graph columns differ in length")
    nodes: Dict[int, Node] = {}
    for nid, code, a, b in zip(
        node_ids.tolist(), ops.tolist(), fanin_a.tolist(), fanin_b.tolist()
    ):
        op = op_table[code]
        fanins: Tuple[int, ...] = ()
        if a != _NONE:
            fanins = (a,) if b == _NONE else (a, b)
        name = input_names.get(nid) if op == cells.INPUT else \
            gate_names.get(nid)
        # Nodes are installed directly (not through add_gate) so the
        # original — possibly non-dense — id assignment survives exactly.
        nodes[nid] = Node(op, fanins, name)
    LogicGraph.check_structure(nodes, input_names, outputs)
    return nodes


# ----------------------------------------------------------------------
# Programs (instruction queues + buffer traffic + runtime schedule)
# ----------------------------------------------------------------------
def _schedule_header(schedule) -> Dict[str, object]:
    # Flatten full compile-time schedules to their runtime surface; an
    # already-flat RuntimeSchedule (a decoded program being re-encoded)
    # passes through unchanged.
    if not isinstance(schedule, RuntimeSchedule):
        schedule = RuntimeSchedule.from_schedule(schedule)
    return {
        "makespan": schedule.makespan,
        "base_address": schedule.base_address,
        "policy": schedule.policy,
        "circulations": schedule.circulations,
        "queue_depth": schedule.queue_depth,
    }


def encode_program(
    program: Program,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode a compiled program as (header fragment, arrays).

    The instruction and traffic arrays are the program's own columns
    (:class:`~repro.core.codegen.ProgramTables`: one
    :func:`~repro.core.isa.encode_instruction` word per LPE, the
    trace-only node annotations in a parallel ``int64`` column), already
    sorted — so encoding is canonical: the same executable always
    produces the same bytes.
    """
    config = program.config
    header = {
        "config": {
            "num_lpvs": config.num_lpvs,
            "lpes_per_lpv": config.lpes_per_lpv,
            "switch_stages": config.switch_stages,
            "frequency_hz": config.frequency_hz,
        },
        "schedule": _schedule_header(program.schedule),
        "po_nodes": {name: nid for name, nid in program.po_nodes.items()},
        "po_buffer_keys": {
            name: [key[0], key[1]]
            for name, key in program.po_buffer_keys.items()
        },
        "peak_buffer_words": int(program.peak_buffer_words),
        "buffer_spills": int(program.buffer_spills),
    }
    graph_header, arrays = encode_graph(program.graph)
    header["graph"] = graph_header
    arrays.update(program.tables._asdict())
    return header, arrays


def decode_program(
    header: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> Program:
    """Rebuild an executable :class:`Program` from its encoded form.

    The result carries a :class:`~repro.core.schedule.RuntimeSchedule` —
    the compile-time MFG DAG is not part of the executable format — and is
    bit-identical to the original under every execution engine (outputs
    and run statistics).

    The program's columns, their dict views and the graph's node table —
    what the lowering, the cycle engine and ``evaluate_graph`` read and a
    boot from embedded tables never does — are checked
    (:func:`_checked_tables`, once, with whole-array tests) and decoded
    on their first read, where a failure is an :class:`ArtifactError`.
    """
    config = LPUConfig(
        num_lpvs=int(header["config"]["num_lpvs"]),
        lpes_per_lpv=int(header["config"]["lpes_per_lpv"]),
        switch_stages=int(header["config"]["switch_stages"]),
        frequency_hz=float(header["config"]["frequency_hz"]),
    )
    sched = dict(header["schedule"])
    schedule = RuntimeSchedule(
        config=config,
        makespan=int(sched["makespan"]),
        base_address=int(sched["base_address"]),
        policy=str(sched["policy"]),
        circulations=int(sched["circulations"]),
        queue_depth=int(sched["queue_depth"]),
    )
    graph = decode_graph(dict(header["graph"]), arrays)
    return DeferredProgram.deferring(
        ("tables",),
        partial(
            decoded,
            _checked_tables,
            ProgramTables(*(arrays[name] for name in ProgramTables._fields)),
            config,
            schedule.makespan,
            graph.inputs,
            partial(
                _constant_ids,
                list(header["graph"]["ops"]),
                arrays["graph_ids"],
                arrays["graph_ops"],
            ),
        ),
        config=config,
        graph=graph,
        schedule=schedule,
        po_nodes={
            name: int(nid) for name, nid in dict(header["po_nodes"]).items()
        },
        po_buffer_keys={
            name: (int(key[0]), int(key[1]))
            for name, key in dict(header["po_buffer_keys"]).items()
        },
        peak_buffer_words=int(header["peak_buffer_words"]),
        buffer_spills=int(header["buffer_spills"]),
    )


def _constant_ids(
    op_table: List[str], node_ids: np.ndarray, ops: np.ndarray
) -> np.ndarray:
    """Ids of the graph's constant nodes, from its encoded columns."""
    codes = [op_table.index(op) for op in (cells.CONST0, cells.CONST1)
             if op in op_table]
    return node_ids[np.isin(ops, codes)]


def _checked_tables(
    tables: ProgramTables, config: LPUConfig, makespan: int,
    pis: List[int], constant_ids,
) -> Dict[str, ProgramTables]:
    """The deferred field of :func:`decode_program`: ``{"tables":
    tables}`` once every row is one the engines can execute: words an
    ``m``-wide LPV can run, rows inside the machine and the schedule,
    the encoder's ascending row order with unique keys, input reads of
    PIs and (``constant_ids()``) constants.  The lowering indexes arrays
    with these fields."""
    n, m = config.n, config.m
    if any(column.dtype.kind not in "iu" for column in tables):
        raise ArtifactDecodeError("program table is not an integer table")
    rows = len(tables.queue_lpv)
    if not (
        tables.queue_lpv.shape == tables.queue_addr.shape == (rows,)
        and tables.queue_words.shape == tables.queue_nodes.shape == (rows, m)
    ):
        raise ArtifactDecodeError("instruction queue columns differ in shape")
    if malformed_words(tables.queue_words, m).any():
        raise ArtifactDecodeError("malformed instruction word")
    tables = ProgramTables(*(
        column.astype(np.uint32 if name == "queue_words" else np.int64,
                      copy=False)
        for name, column in zip(ProgramTables._fields, tables)
    ))
    lpv, addr, _, _, reads, circ, writes = tables
    for table, bounds in (
        # upper bound of each column (None: any value)
        (lpv[:, None], (n,)),
        (reads, (makespan, m, 2, None)),
        (circ, (makespan, n, m, 2, None, None)),
        (writes, (makespan, None, None, n, m)),
    ):
        if table.ndim != 2 or table.shape[1] != len(bounds):
            raise ArtifactDecodeError("traffic table has the wrong shape")
        if len(table) and not all(
            upper is None or 0 <= low <= high < upper
            for low, high, upper in zip(
                table.min(axis=0).tolist(), table.max(axis=0).tolist(), bounds
            )
        ):
            raise ArtifactDecodeError("table row out of range")
    if not (addr >= 0).all():
        raise ArtifactDecodeError("negative queue address")
    ascending = (
        (lpv[1:] > lpv[:-1])
        | ((lpv[1:] == lpv[:-1]) & (addr[1:] > addr[:-1])),
        np.diff((reads[:, 0] * m + reads[:, 1]) * 2 + reads[:, 2]) > 0,
        np.diff(
            ((circ[:, 0] * n + circ[:, 1]) * m + circ[:, 2]) * 2 + circ[:, 3]
        ) > 0,
        np.diff(writes[:, 0]) >= 0,
    )
    if not all(step.all() for step in ascending):
        raise ArtifactDecodeError("table rows unsorted or repeated")
    sources = np.concatenate((pis, constant_ids())).astype(np.int64)
    if not np.isin(reads[:, 3], sources).all():
        raise ArtifactDecodeError("input read of a node that is no source")
    return {"tables": tables}


# ----------------------------------------------------------------------
# Lowered trace tables
# ----------------------------------------------------------------------
def encode_trace(
    trace: TraceProgram,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode the lowered vectorizable tables of one program."""
    op_table = sorted(cells.ALL_OPS)
    op_code = {op: i for i, op in enumerate(op_table)}
    levels = trace.levels
    seg_rows = [
        (op_code[seg.op], seg.start, seg.end)
        for level in levels
        for seg in level.segments
    ]
    slot_rows = sorted(trace.slot_nodes.items())
    header = {
        "ops": op_table,
        "num_slots": trace.num_slots,
        "pi_slots": dict(trace.pi_slots),
        "output_slots": dict(trace.output_slots),
        "macro_cycles": trace.macro_cycles,
        "clock_cycles": trace.clock_cycles,
        "compute_instructions": trace.compute_instructions,
        "switch_routes": trace.switch_routes,
        "peak_buffer_words": trace.peak_buffer_words,
        "buffer_writes": trace.buffer_writes,
    }
    arrays = {
        "trace_level_cycle": np.asarray(
            [level.cycle for level in levels], dtype=np.int64
        ),
        "trace_level_out_start": np.asarray(
            [level.out_start for level in levels], dtype=np.int64
        ),
        "trace_level_size": np.asarray(
            [level.num_instructions for level in levels], dtype=np.int64
        ),
        "trace_level_segments": np.asarray(
            [len(level.segments) for level in levels], dtype=np.int64
        ),
        "trace_a_index": (
            np.concatenate([level.a_index for level in levels])
            if levels else np.empty(0, dtype=np.int64)
        ).astype(np.int64),
        "trace_b_index": (
            np.concatenate([level.b_index for level in levels])
            if levels else np.empty(0, dtype=np.int64)
        ).astype(np.int64),
        "trace_segments": np.asarray(seg_rows, dtype=np.int64).reshape(
            (len(seg_rows), 3)
        ),
        "trace_slot_nodes": np.asarray(slot_rows, dtype=np.int64).reshape(
            (len(slot_rows), 2)
        ),
    }
    return header, arrays


#: the arrays :func:`_decode_levels` reads, in its argument order.
_TRACE_TABLES = (
    "trace_level_cycle", "trace_level_out_start", "trace_level_size",
    "trace_level_segments", "trace_a_index", "trace_b_index",
    "trace_segments", "trace_slot_nodes",
)


def decode_trace(
    header: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    program: Program,
) -> TraceProgram:
    """Rebuild the :class:`TraceProgram` bound to ``program``: slot maps
    and statistics here, the per-level tables and the slot→node map on
    their first read (a failure there is an :class:`ArtifactError`)."""
    return DeferredTraceProgram.deferring(
        ("levels", "slot_nodes"),
        partial(
            decoded,
            _decode_levels,
            list(header["ops"]),
            *(arrays[n] for n in _TRACE_TABLES),
        ),
        program=program,
        num_slots=int(header["num_slots"]),
        # Rebuild in slot order (the JSON header sorts by name): fusing
        # a decoded trace then inherits PI registers in iteration order,
        # keeping the fused engine's contiguous-binding fast path.
        pi_slots={
            name: int(slot)
            for name, slot in sorted(
                dict(header["pi_slots"]).items(), key=lambda kv: kv[1]
            )
        },
        output_slots={
            name: int(slot)
            for name, slot in dict(header["output_slots"]).items()
        },
        macro_cycles=int(header["macro_cycles"]),
        clock_cycles=int(header["clock_cycles"]),
        compute_instructions=int(header["compute_instructions"]),
        switch_routes=int(header["switch_routes"]),
        peak_buffer_words=int(header["peak_buffer_words"]),
        buffer_writes=int(header["buffer_writes"]),
    )


def _decode_levels(
    op_table: List[str],
    level_cycle: np.ndarray,
    level_out: np.ndarray,
    level_size: np.ndarray,
    level_segs: np.ndarray,
    a_index: np.ndarray,
    b_index: np.ndarray,
    seg_rows: np.ndarray,
    slot_rows: np.ndarray,
) -> Dict[str, object]:
    """The deferred fields of :func:`decode_trace`."""
    a_index = a_index.astype(np.intp)
    b_index = b_index.astype(np.intp)
    levels: List[TraceLevel] = []
    offset = 0
    seg_offset = 0
    for i in range(len(level_cycle)):
        size = int(level_size[i])
        a_part = a_index[offset:offset + size].copy()
        b_part = b_index[offset:offset + size].copy()
        a_part.setflags(write=False)
        b_part.setflags(write=False)
        count = int(level_segs[i])
        segments = tuple(
            OpSegment(
                op=op_table[int(seg_rows[j, 0])],
                start=int(seg_rows[j, 1]),
                end=int(seg_rows[j, 2]),
            )
            for j in range(seg_offset, seg_offset + count)
        )
        levels.append(
            TraceLevel(
                cycle=int(level_cycle[i]),
                out_start=int(level_out[i]),
                a_index=a_part,
                b_index=b_part,
                segments=segments,
            )
        )
        offset += size
        seg_offset += count
    return {
        "levels": levels,
        "slot_nodes": {
            int(slot): int(node) for slot, node in slot_rows.tolist()
        },
    }


# ----------------------------------------------------------------------
# Liveness-renamed (fused) tables
# ----------------------------------------------------------------------
def encode_fused(
    fused: FusedProgram,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode the register-renamed tables of one fused program."""
    op_table = sorted(cells.ALL_OPS)
    op_code = {op: i for i, op in enumerate(op_table)}
    levels = fused.levels
    seg_rows = [
        (op_code[seg.op], seg.start, seg.end)
        for level in levels
        for seg in level.segments
    ]
    header = {
        "ops": op_table,
        "num_regs": fused.num_regs,
        "max_level_width": fused.max_level_width,
        "pi_regs": dict(fused.pi_regs),
        "output_regs": dict(fused.output_regs),
    }

    def concat(name: str) -> np.ndarray:
        if not levels:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [getattr(level, name) for level in levels]
        ).astype(np.int64)

    arrays = {
        "fused_level_cycle": np.asarray(
            [level.cycle for level in levels], dtype=np.int64
        ),
        "fused_level_size": np.asarray(
            [level.num_instructions for level in levels], dtype=np.int64
        ),
        "fused_level_segments": np.asarray(
            [len(level.segments) for level in levels], dtype=np.int64
        ),
        "fused_a_index": concat("a_index"),
        "fused_b_index": concat("b_index"),
        "fused_out_index": concat("out_index"),
        "fused_segments": np.asarray(seg_rows, dtype=np.int64).reshape(
            (len(seg_rows), 3)
        ),
    }
    return header, arrays


def decode_fused(
    header: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    trace: TraceProgram,
) -> FusedProgram:
    """Rebuild the :class:`FusedProgram` bound to ``trace``."""
    op_table = list(header["ops"])
    level_cycle = arrays["fused_level_cycle"]
    level_size = arrays["fused_level_size"]
    level_segs = arrays["fused_level_segments"]
    a_index = arrays["fused_a_index"].astype(np.intp)
    b_index = arrays["fused_b_index"].astype(np.intp)
    out_index = arrays["fused_out_index"].astype(np.intp)
    seg_rows = arrays["fused_segments"]

    levels: List[FusedLevel] = []
    offset = 0
    seg_offset = 0
    for i in range(len(level_cycle)):
        size = int(level_size[i])
        parts = []
        for table in (a_index, b_index, out_index):
            part = table[offset:offset + size].copy()
            part.setflags(write=False)
            parts.append(part)
        count = int(level_segs[i])
        segments = tuple(
            OpSegment(
                op=op_table[int(seg_rows[j, 0])],
                start=int(seg_rows[j, 1]),
                end=int(seg_rows[j, 2]),
            )
            for j in range(seg_offset, seg_offset + count)
        )
        levels.append(
            FusedLevel(
                cycle=int(level_cycle[i]),
                a_index=parts[0],
                b_index=parts[1],
                out_index=parts[2],
                segments=segments,
            )
        )
        offset += size
        seg_offset += count

    return FusedProgram(
        trace=trace,
        num_regs=int(header["num_regs"]),
        # The JSON header is serialized with sorted keys; rebuild in
        # register order so the engine's contiguous PI-binding fast path
        # (PI registers 2..2+|PI| in iteration order) survives a reload.
        pi_regs={
            name: int(reg)
            for name, reg in sorted(
                dict(header["pi_regs"]).items(), key=lambda kv: kv[1]
            )
        },
        levels=levels,
        output_regs={
            name: int(reg)
            for name, reg in dict(header["output_regs"]).items()
        },
        max_level_width=int(header["max_level_width"]),
    )


# ----------------------------------------------------------------------
# Fanout/delta tables (the delta engine's cone analysis)
# ----------------------------------------------------------------------
def encode_fanout(
    tables: FanoutTables,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode the single-assignment delta tables + consumer CSR."""
    op_table = sorted(cells.ALL_OPS)
    header = {
        "ops": op_table,
        "num_rows": tables.num_rows,
        "num_pinned": tables.num_pinned,
        "pi_rows": dict(tables.pi_rows),
        "output_rows": dict(tables.output_rows),
    }
    arrays = {
        "fanout_a_row": tables.a_row.astype(np.int64),
        "fanout_b_row": tables.b_row.astype(np.int64),
        "fanout_op_code": tables.op_code.astype(np.int64),
        "fanout_level_start": tables.level_start.astype(np.int64),
        "fanout_consumer_offsets":
            tables.consumer_offsets.astype(np.int64),
        "fanout_consumer_gids": tables.consumer_gids.astype(np.int64),
    }
    return header, arrays


def decode_fanout(
    header: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    fused: FusedProgram,
) -> FanoutTables:
    """Rebuild the :class:`FanoutTables` bound to ``fused``.

    The dense-view levels are re-sliced from the flat embedded arrays —
    no cone re-analysis — reusing the fused levels' segment schedules and
    cycles, which the embedded tables were derived from in the producer.
    """
    a_row = arrays["fanout_a_row"].astype(np.intp)
    b_row = arrays["fanout_b_row"].astype(np.intp)
    op_code = arrays["fanout_op_code"].astype(np.int16)
    level_start = arrays["fanout_level_start"].astype(np.int64)
    consumer_offsets = arrays["fanout_consumer_offsets"].astype(np.int64)
    consumer_gids = arrays["fanout_consumer_gids"].astype(np.intp)
    num_rows = int(header["num_rows"])
    num_pinned = int(header["num_pinned"])

    if len(level_start) != len(fused.levels) + 1:
        raise ArtifactDecodeError(
            "fanout tables do not match the embedded fused program: "
            f"{len(level_start) - 1} levels vs {len(fused.levels)}"
        )
    if num_pinned != _NUM_CONST_SLOTS + len(fused.pi_regs):
        raise ArtifactDecodeError(
            "fanout tables do not match the embedded fused program: "
            "pinned-row count mismatch"
        )

    dense_levels: List[FusedLevel] = []
    for i, level in enumerate(fused.levels):
        s, e = int(level_start[i]), int(level_start[i + 1])
        if e - s != level.num_instructions:
            raise ArtifactDecodeError(
                "fanout tables do not match the embedded fused program: "
                f"level {i} width {e - s} vs {level.num_instructions}"
            )
        a_part = a_row[s:e].copy()
        b_part = b_row[s:e].copy()
        out_part = np.arange(
            num_pinned + s, num_pinned + e, dtype=np.intp
        )
        for part in (a_part, b_part, out_part):
            part.setflags(write=False)
        dense_levels.append(
            FusedLevel(
                cycle=level.cycle,
                a_index=a_part,
                b_index=b_part,
                out_index=out_part,
                segments=level.segments,
            )
        )

    # Sorted-key JSON scrambled the map order; rebuild in row order so
    # the dense view keeps the contiguous PI block the engine binds.
    pi_rows = {
        name: int(row)
        for name, row in sorted(
            dict(header["pi_rows"]).items(), key=lambda kv: kv[1]
        )
    }
    output_rows = {
        name: int(row)
        for name, row in dict(header["output_rows"]).items()
    }
    for array in (a_row, b_row, op_code, level_start,
                  consumer_offsets, consumer_gids):
        array.setflags(write=False)
    dense = FusedProgram(
        trace=fused.trace,
        num_regs=num_rows,
        pi_regs=pi_rows,
        levels=dense_levels,
        output_regs=output_rows,
        max_level_width=fused.max_level_width,
    )
    return FanoutTables(
        fused=fused,
        num_rows=num_rows,
        num_pinned=num_pinned,
        pi_rows=pi_rows,
        output_rows=output_rows,
        a_row=a_row,
        b_row=b_row,
        op_code=op_code,
        level_start=level_start,
        consumer_offsets=consumer_offsets,
        consumer_gids=consumer_gids,
        dense=dense,
    )


# ----------------------------------------------------------------------
# Probe-vector codec (an optional, format-v1-compatible section)
# ----------------------------------------------------------------------
def encode_probes(probes) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Encode an embedded :class:`~repro.artifact.format.ProbeSet`."""
    header = {
        "input_names": list(probes.input_names),
        "output_names": list(probes.output_names),
        "words": probes.words,
        "seed": probes.seed,
    }
    arrays = {
        "probe_inputs": probes.inputs.astype(np.uint64),
        "probe_outputs": probes.outputs.astype(np.uint64),
    }
    return header, arrays


def decode_probes(
    header: Dict[str, object], arrays: Dict[str, np.ndarray]
):
    """Rebuild the embedded probe vectors (read-only arrays)."""
    from .format import ProbeSet

    inputs = arrays["probe_inputs"].astype(np.uint64)
    outputs = arrays["probe_outputs"].astype(np.uint64)
    input_names = tuple(str(name) for name in header["input_names"])
    output_names = tuple(str(name) for name in header["output_names"])
    if inputs.ndim != 2 or outputs.ndim != 2:
        raise ArtifactDecodeError("probe vectors must be 2-D word stacks")
    if inputs.shape[0] != len(input_names):
        raise ArtifactDecodeError(
            "probe inputs do not match their name table: "
            f"{inputs.shape[0]} rows vs {len(input_names)} names"
        )
    if outputs.shape[0] != len(output_names):
        raise ArtifactDecodeError(
            "probe outputs do not match their name table: "
            f"{outputs.shape[0]} rows vs {len(output_names)} names"
        )
    for array in (inputs, outputs):
        array.setflags(write=False)
    return ProbeSet(
        input_names=input_names,
        output_names=output_names,
        inputs=inputs,
        outputs=outputs,
        seed=int(header.get("seed", 0)),
    )


# ----------------------------------------------------------------------
# Pass-snapshot codec (the PassCache disk tier)
# ----------------------------------------------------------------------
#: flat dataclasses a snapshot may carry (values: scalars or other
#: registered dataclasses).  Resolved lazily to avoid import cycles.
def _snapshot_dataclasses() -> Dict[str, type]:
    from ..core.metrics import CompileMetrics
    from ..synth.balance import BalanceReport
    from ..synth.pipeline import PreprocessReport

    return {
        "BalanceReport": BalanceReport,
        "PreprocessReport": PreprocessReport,
        "CompileMetrics": CompileMetrics,
    }


def _encode_value(
    value: object, slot: str, arrays: Dict[str, np.ndarray]
) -> Optional[Dict[str, object]]:
    """Spec for one snapshot value, or None when the type is unsupported."""
    from ..synth.levelize import Levelization
    from ..synth.pipeline import PreprocessResult

    if value is None or isinstance(value, (bool, int, float, str)):
        return {"kind": "scalar", "value": value}
    if isinstance(value, LogicGraph):
        graph_header, graph_arrays = encode_graph(value, prefix=slot)
        arrays.update(graph_arrays)
        return {"kind": "graph", "header": graph_header, "prefix": slot}
    if isinstance(value, Levelization):
        pairs = sorted(value.level.items())
        arrays[f"{slot}_nodes"] = np.asarray(
            [n for n, _ in pairs], dtype=np.int64
        )
        arrays[f"{slot}_levels"] = np.asarray(
            [lvl for _, lvl in pairs], dtype=np.int64
        )
        # by_level row order matters downstream; keep it verbatim.
        arrays[f"{slot}_by_level"] = np.asarray(
            [n for nodes in value.by_level for n in nodes], dtype=np.int64
        )
        arrays[f"{slot}_by_level_len"] = np.asarray(
            [len(nodes) for nodes in value.by_level], dtype=np.int64
        )
        return {
            "kind": "levelization",
            "prefix": slot,
            "max_level": value.max_level,
        }
    if isinstance(value, PreprocessResult):
        spec_graph = _encode_value(value.graph, f"{slot}_g", arrays)
        spec_levels = _encode_value(value.levels, f"{slot}_l", arrays)
        spec_report = _encode_value(value.report, f"{slot}_r", arrays)
        if None in (spec_graph, spec_levels, spec_report):
            return None
        return {
            "kind": "preprocess",
            "graph": spec_graph,
            "levels": spec_levels,
            "report": spec_report,
        }
    registry = _snapshot_dataclasses()
    if is_dataclass(value) and type(value).__name__ in registry:
        encoded: Dict[str, object] = {}
        for f in fields(value):
            spec = _encode_value(
                getattr(value, f.name), f"{slot}_{f.name}", arrays
            )
            if spec is None:
                return None
            encoded[f.name] = spec
        return {
            "kind": "dataclass",
            "class": type(value).__name__,
            "fields": encoded,
        }
    return None


def _decode_value(
    spec: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> object:
    from ..synth.levelize import Levelization
    from ..synth.pipeline import PreprocessResult

    kind = spec["kind"]
    if kind == "scalar":
        return spec["value"]
    if kind == "graph":
        return decode_graph(
            dict(spec["header"]), arrays, prefix=str(spec["prefix"])
        )
    if kind == "levelization":
        prefix = str(spec["prefix"])
        nodes = arrays[f"{prefix}_nodes"].tolist()
        levels = arrays[f"{prefix}_levels"].tolist()
        flat = arrays[f"{prefix}_by_level"].tolist()
        lengths = arrays[f"{prefix}_by_level_len"].tolist()
        by_level: List[List[int]] = []
        offset = 0
        for length in lengths:
            by_level.append(flat[offset:offset + length])
            offset += length
        return Levelization(
            level=dict(zip(nodes, levels)),
            by_level=by_level,
            max_level=int(spec["max_level"]),
        )
    if kind == "preprocess":
        return PreprocessResult(
            graph=_decode_value(dict(spec["graph"]), arrays),
            levels=_decode_value(dict(spec["levels"]), arrays),
            report=_decode_value(dict(spec["report"]), arrays),
        )
    if kind == "dataclass":
        cls = _snapshot_dataclasses()[str(spec["class"])]
        return cls(
            **{
                name: _decode_value(dict(sub), arrays)
                for name, sub in dict(spec["fields"]).items()
            }
        )
    raise ArtifactDecodeError(f"unknown snapshot value kind {kind!r}")


def encode_snapshot(snapshot: Dict[str, object]) -> Optional[bytes]:
    """Encode one pass snapshot, or None if any field is not codable."""
    arrays: Dict[str, np.ndarray] = {}
    specs: Dict[str, object] = {}
    for i, (field_name, value) in enumerate(sorted(snapshot.items())):
        spec = _encode_value(value, f"f{i}", arrays)
        if spec is None:
            return None
        specs[field_name] = spec
    return pack_container({"kind": "pass-snapshot", "fields": specs}, arrays)


def decode_snapshot(data: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_snapshot`."""
    header, arrays = unpack_container(data)
    if header.get("kind") != "pass-snapshot":
        raise ArtifactDecodeError("not a pass-snapshot container")
    return {
        field_name: _decode_value(dict(spec), arrays)
        for field_name, spec in dict(header["fields"]).items()
    }
