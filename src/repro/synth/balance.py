"""Full path balancing (FPB) via BUFFER insertion.

Paper, Section II: "Full path balancing (FPB): Equalizing the logic depth of
all propagation paths from circuit inputs to circuit outputs.  It guarantees
all input-output paths have the same number of gates on them."  Section IV
adds that BUFFER nodes are inserted so "all paths between any two connected
nodes have the same topological length", which "guarantees no data
dependencies exist between two non-adjacent logic levels of gates,
simplifying the mapping of the logic graph onto our pipelined architecture".

Implementation: compute ASAP levels, then for every edge (u -> v) with
``level(v) - level(u) > 1`` insert a chain of BUF nodes; finally pad every
PO up to the global depth.  Buffer chains are shared per (source node,
target level) so a node fanning out to many later levels costs one chain,
not one chain per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..netlist import cells
from ..netlist.graph import LogicGraph
from .levelize import is_levelized_strict


@dataclass
class BalanceReport:
    """Bookkeeping from a balancing run (feeds the experiment reports)."""

    buffers_inserted: int
    depth: int
    gates_before: int
    gates_after: int

    @property
    def buffer_overhead(self) -> float:
        """Inserted buffers as a fraction of the original gate count."""
        if self.gates_before == 0:
            return 0.0
        return self.buffers_inserted / self.gates_before


def balance(graph: LogicGraph) -> Tuple[LogicGraph, BalanceReport]:
    """Fully path-balance ``graph``; returns (balanced graph, report)."""
    out, report, _ = balance_with_levels(graph)
    return out, report


def balance_with_levels(
    graph: LogicGraph,
) -> Tuple[LogicGraph, BalanceReport, Dict[int, int]]:
    """:func:`balance`, plus the balanced graph's node -> level map (what
    ``out.levels()`` would compute; balancing places every node on its
    level, so it already has them).

    The result satisfies :func:`repro.synth.levelize.is_levelized_strict`:
    every gate's fanins are exactly one level below it and all POs sit at the
    final level.  POs that are sources (PI or constant pass-throughs) are
    lifted through buffers as well, so every PO is produced by a gate
    whenever the graph has any gate at all.
    """
    src = graph
    out = LogicGraph(src.name)
    level_src = src.levels()
    depth = max(
        (level_src[nid] for _, nid in src.outputs),
        default=0,
    )

    remap: Dict[int, int] = {}
    new_level: Dict[int, int] = {}
    # (new node id, target level) -> buffered copy at that level
    lift_cache: Dict[Tuple[int, int], int] = {}
    buffers = 0

    def lift(new_id: int, target_level: int) -> int:
        """Return a copy of ``new_id`` available at exactly ``target_level``
        by extending a shared BUF chain."""
        nonlocal buffers
        cur_level = new_level[new_id]
        if cur_level > target_level:
            raise ValueError("cannot lift a node to an earlier level")
        while cur_level < target_level:
            key = (new_id, cur_level + 1)
            cached = lift_cache.get(key)
            if cached is None:
                cached = out.add_gate(cells.BUF, new_id)
                new_level[cached] = cur_level + 1
                lift_cache[key] = cached
                buffers += 1
            new_id = cached
            cur_level += 1
        return new_id

    for nid in src.topological_order():
        node = src.nodes[nid]
        if node.op == cells.INPUT:
            assert node.name is not None
            new_id = out.add_input(node.name)
            remap[nid] = new_id
            new_level[new_id] = 0
        elif node.op in (cells.CONST0, cells.CONST1):
            new_id = out.add_const(1 if node.op == cells.CONST1 else 0)
            remap[nid] = new_id
            new_level[new_id] = 0
        else:
            lvl = level_src[nid]
            fanins = [lift(remap[f], lvl - 1) for f in node.fanins]
            new_id = out.add_gate(node.op, *fanins, name=node.name)
            remap[nid] = new_id
            new_level[new_id] = lvl

    for name, nid in src.outputs:
        out.set_output(name, lift(remap[nid], depth))

    report = BalanceReport(
        buffers_inserted=buffers,
        depth=depth,
        gates_before=src.num_gates,
        gates_after=out.num_gates,
    )
    assert is_levelized_strict(out, new_level), (
        "balance() must produce a strict netlist"
    )
    return out, report, new_level
