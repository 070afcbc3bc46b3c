"""Boolean network partitioning into MFGs (paper Algorithms 1 and 2).

Algorithm 1 walks the Boolean network from the primary outputs toward the
primary inputs, extracting one MFG per root node with :func:`find_mfg`
(Algorithm 2), then recursing on each extracted MFG's input nodes until the
PIs are reached.

Algorithm 2 grows an MFG from a root by BFS toward the inputs.  Because the
graph is fully path-balanced, BFS visits whole levels at a time: the fanins
of the current level's nodes form the next level down.  Growth stops at the
first level whose node count *exceeds* m (the LPV width) — that level (the
"stop level") is excluded, becomes the MFG's input set, and its nodes become
the roots of child MFGs.

Deviation from the paper's pseudo-code (see DESIGN.md): Algorithm 2 as
printed stops at ``count >= m``, but conditions (2) and (4) of Section V-A
require levels of exactly m nodes to be feasible and stop levels to have
more than m nodes; we therefore stop strictly above m, which matches Fig. 3.

Faithful to Algorithm 1, child MFGs are *not* deduplicated across parents:
every input node of every extracted MFG roots its own child MFG, even when
two parents share an input node.  This is why MFG node sets may overlap
(condition (3)), why the MFG graph is a **tree** (each MFG has exactly one
parent), and why the merging procedure (Algorithm 3) pays off so heavily —
it is the only mechanism that recovers shared logic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from ..netlist import cells
from ..netlist.graph import LogicGraph
from ..synth.levelize import Levelization, is_levelized_strict, levelize
from .mfg import MFG, Partition


def find_mfg(
    graph: LogicGraph,
    levels: Levelization,
    root: int,
    m: int,
    uid: int,
) -> MFG:
    """Algorithm 2: grow the MFG rooted at ``root`` without exceeding m
    nodes per level.

    ``graph`` must be fully path-balanced (strict levelization), so every
    fanin of a level-l node sits at level l-1 and the BFS frontier *is* the
    next level down.
    """
    root_level = levels.level[root]
    if root_level < 1:
        raise ValueError(f"root {root} is a source node, not a gate")
    nodes_by_level: Dict[int, Set[int]] = {root_level: {root}}
    frontier: Set[int] = {root}
    level = root_level

    while True:
        fanins: Set[int] = set()
        for nid in frontier:
            fanins.update(graph.fanins_of(nid))
        if level == 1:
            # The frontier consumes sources (PIs / constants): this MFG
            # reads the input data buffer (paper: "MFGs with Lbottom = 0
            # receive the PI values ... from the input data buffer").
            return MFG(
                uid=uid,
                bottom_level=1,
                top_level=root_level,
                nodes_by_level=nodes_by_level,
                roots={root},
                input_nodes=fanins,
                reads_primary_inputs=True,
            )
        if len(fanins) > m:
            # Stop level found: it is excluded from the MFG (Fig. 3) and
            # its nodes root the child MFGs.
            return MFG(
                uid=uid,
                bottom_level=level,
                top_level=root_level,
                nodes_by_level=nodes_by_level,
                roots={root},
                input_nodes=fanins,
                reads_primary_inputs=False,
            )
        nodes_by_level[level - 1] = fanins
        frontier = fanins
        level -= 1


def partition(
    graph: LogicGraph,
    m: int,
    max_mfgs: int = 500_000,
    levels: Optional[Levelization] = None,
) -> Partition:
    """Algorithm 1: cover the network with MFGs, one BFS wave at a time.

    ``graph`` must be fully path-balanced.  Returns a :class:`Partition`
    whose MFGs form a tree (children produce a parent's inputs); see the
    module docstring for why subtrees are duplicated rather than shared.

    ``max_mfgs`` guards against pathological duplication blow-up on
    reconvergence-heavy graphs.

    ``levels`` is the graph's levelization when it comes straight from
    :func:`repro.synth.balance.balance_with_levels`, which has already
    established strictness; any other graph is levelized and checked here.
    """
    if m < 1:
        raise ValueError("m (LPEs per LPV) must be positive")
    if levels is None:
        level = graph.levels()
        if not is_levelized_strict(graph, level):
            raise ValueError(
                "partition() requires a fully path-balanced graph"
            )
        levels = levelize(graph, level)

    all_mfgs: List[MFG] = []
    queue: deque = deque()

    def create(root: int) -> MFG:
        mfg = find_mfg(graph, levels, root, m, uid=len(all_mfgs))
        all_mfgs.append(mfg)
        if len(all_mfgs) > max_mfgs:
            raise RuntimeError(
                f"partitioning exceeded {max_mfgs} MFGs; the graph's "
                "reconvergence duplicates too many cones for this m"
            )
        queue.append(mfg)
        return mfg

    # One root MFG per distinct PO gate (Algorithm 1 is stated per-PO; we
    # run it for every output of the block).
    root_mfgs: List[MFG] = []
    seen_po_nodes: Set[int] = set()
    for _name, nid in graph.outputs:
        if graph.op_of(nid) in cells.SOURCE_OPS:
            continue  # constant/pass-through PO: nothing to compute
        if nid in seen_po_nodes:
            continue
        seen_po_nodes.add(nid)
        root_mfgs.append(create(nid))

    while queue:
        current = queue.popleft()
        if current.reads_primary_inputs:
            continue
        for input_node in sorted(current.input_nodes):
            child = create(input_node)
            current.children.append(child)
            child.parents.append(current)

    result = Partition(graph=graph, m=m, mfgs=all_mfgs, root_mfgs=root_mfgs)
    return result


def partition_summary(part: Partition) -> Dict[str, float]:
    """Headline statistics used by the experiment reports."""
    spans = [mfg.span for mfg in part.mfgs]
    widths = [mfg.max_width() for mfg in part.mfgs]
    return {
        "num_mfgs": float(len(part.mfgs)),
        "total_span": float(sum(spans)),
        "mean_span": float(sum(spans) / len(spans)) if spans else 0.0,
        "max_span": float(max(spans, default=0)),
        "mean_max_width": float(sum(widths) / len(widths)) if widths else 0.0,
        "pi_mfgs": float(sum(1 for g in part.mfgs if g.reads_primary_inputs)),
    }
