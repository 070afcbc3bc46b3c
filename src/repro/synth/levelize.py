"""Netlist levelization (the paper's Section III pre-processing step).

"Because a gate that is at a specific logic level in a target circuit has no
connections to any other gates at the same logic level, operations of all
gates at the same logic level can be executed simultaneously."  Levelization
assigns every node its ASAP logic level and groups nodes by level; the
partitioner, scheduler, and code generator all consume this view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netlist import cells
from ..netlist.graph import LogicGraph


@dataclass
class Levelization:
    """Level assignment of a logic graph.

    Attributes:
        level: node id -> logic level (sources at 0).
        by_level: level -> node ids at that level (gates only at levels >= 1;
            level 0 holds PIs and constants).
        max_level: the largest level (depth of the graph).
    """

    level: Dict[int, int]
    by_level: List[List[int]]
    max_level: int

    def width(self, lvl: int) -> int:
        """Number of nodes at ``lvl``."""
        return len(self.by_level[lvl]) if 0 <= lvl <= self.max_level else 0

    def max_width(self) -> int:
        """Widest gate level (levels >= 1)."""
        if self.max_level == 0:
            return 0
        return max(len(nodes) for nodes in self.by_level[1:])


def levelize(
    graph: LogicGraph, level: Optional[Dict[int, int]] = None
) -> Levelization:
    """Compute the ASAP levelization of ``graph``.

    ``level`` is ``graph.levels()`` when the caller already has it (full
    path balancing does); it is not recomputed then.
    """
    if level is None:
        level = graph.levels()
    max_level = max(level.values(), default=0)
    by_level: List[List[int]] = [[] for _ in range(max_level + 1)]
    for nid in graph.topological_order():
        by_level[level[nid]].append(nid)
    return Levelization(level=level, by_level=by_level, max_level=max_level)


def is_levelized_strict(
    graph: LogicGraph, level: Optional[Dict[int, int]] = None
) -> bool:
    """True if every gate's fanins sit exactly one level below it and every
    PO sits at the maximum level — the property full path balancing
    establishes, which the paper requires before partitioning ("full path
    balancing guarantees no data dependencies exist between two non-adjacent
    logic levels").

    ``level`` is a claimed node -> level map to check instead of computing
    ``graph.levels()``: sources at 0 and every fanin exactly one below
    make it the ASAP levelization, so a wrong map cannot pass."""
    lv = graph.levels() if level is None else level
    for nid, node in graph.nodes.items():
        if node.op in cells.SOURCE_OPS:
            if lv[nid] != 0:
                return False
            continue
        for fid in node.fanins:
            if lv[fid] != lv[nid] - 1:
                return False
    if graph.outputs:
        depth = max(lv[nid] for _, nid in graph.outputs)
        for _, nid in graph.outputs:
            if lv[nid] != depth:
                return False
    return True
