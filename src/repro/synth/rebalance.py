"""Tree height reduction (the classic `balance` pass).

Algebraic factoring emits left-deep AND/OR chains; depth drives both the
number of LPV macro-cycles and — after full path balancing — the number of
inserted buffers, so chains are poison for the LPU.  This pass rewrites
every maximal single-op chain of an associative operator (AND, OR, XOR)
into a balanced binary tree, halving-to-quartering typical factored-netlist
depth while preserving function and gate count.

Only chain-internal nodes with a single fanout are collapsed: a shared
intermediate result keeps its own gate so logic is never duplicated.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence

from ..netlist import cells
from ..netlist.graph import LogicGraph

#: Ops that are associative and commutative as two-input reductions.
_ASSOCIATIVE = (cells.AND, cells.OR, cells.XOR)


def balance_trees(graph: LogicGraph) -> LogicGraph:
    """Return a depth-reduced, function-equivalent copy of ``graph``.

    Only the live cone is rebuilt: the PIs (all kept, so the interface
    survives) and every node a PO reaches, minus the chain-internal nodes
    their sole consumer absorbs.  Fanout counts still come from the whole
    graph — a dead consumer keeps a shared node out of its chain exactly
    as a live one does — so the result is node for node what rebuilding
    everything and extracting the live part would give.
    """
    nodes = graph.nodes
    fanout_count: Dict[int, int] = dict.fromkeys(nodes, 0)
    for node in nodes.values():
        for fid in node.fanins:
            fanout_count[fid] += 1
    po_nodes = set(graph.output_ids)

    def chain_leaves(nid: int, op: str) -> List[int]:
        """Leaves, left to right, of the maximal ``op`` chain rooted at
        nid (single-fanout same-op non-PO fanins are chain-internal)."""
        leaves: List[int] = []
        stack = list(reversed(nodes[nid].fanins))
        while stack:
            fid = stack.pop()
            if (
                nodes[fid].op == op
                and fanout_count[fid] == 1
                and fid not in po_nodes
            ):
                stack.extend(reversed(nodes[fid].fanins))
            else:
                leaves.append(fid)
        return leaves

    # What each live node is built from: its chain's leaves if it roots
    # an associative chain, its fanins otherwise.
    operands: Dict[int, Sequence[int]] = {}
    stack = list(po_nodes)
    while stack:
        nid = stack.pop()
        if nid in operands:
            continue
        node = nodes[nid]
        if node.op in _ASSOCIATIVE:
            operands[nid] = chain_leaves(nid, node.op)
        else:
            operands[nid] = node.fanins
        stack.extend(operands[nid])

    out = LogicGraph(graph.name)
    remap: Dict[int, int] = {}
    # Depth of every node in the new graph, for depth-aware tree building.
    depth_of: Dict[int, int] = {}

    def new_gate(op: str, *fanins: int, name=None) -> int:
        nid = out.add_gate(op, *fanins, name=name)
        depth_of[nid] = 1 + max(depth_of[f] for f in fanins)
        return nid

    def build_tree(op: str, leaf_ids: Sequence[int]) -> int:
        """Huffman-style reduction: always combine the two shallowest
        operands, minimizing the tree's final depth for unequal leaves."""
        heap = [
            (depth_of[remap[l]], i, remap[l])
            for i, l in enumerate(leaf_ids)
        ]
        heapq.heapify(heap)
        counter = len(heap)
        while len(heap) > 1:
            da, _, a = heapq.heappop(heap)
            db, _, b = heapq.heappop(heap)
            nid = new_gate(op, a, b)
            counter += 1
            heapq.heappush(heap, (depth_of[nid], counter, nid))
        return heap[0][2]

    for nid in sorted(graph.inputs):
        remap[nid] = out.add_input(graph.input_name(nid))
        depth_of[remap[nid]] = 0
    for nid in sorted(operands):
        node = nodes[nid]
        if node.op == cells.INPUT:
            continue
        if node.op in (cells.CONST0, cells.CONST1):
            new_id = out.add_const(1 if node.op == cells.CONST1 else 0)
            depth_of[new_id] = 0
            remap[nid] = new_id
        elif node.op in _ASSOCIATIVE:
            remap[nid] = build_tree(node.op, operands[nid])
        else:
            remap[nid] = new_gate(
                node.op, *(remap[f] for f in node.fanins), name=node.name
            )

    for name, nid in graph.outputs:
        out.set_output(name, remap[nid])
    return out
