"""Tests for the synthesis passes: simplify, rebalance, techmap, levelize,
balance (FPB), and the preprocess pipeline."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import cells, graphs_equivalent, random_dag, random_layered_dag
from repro.netlist.graph import LogicGraph
from repro.synth import (
    balance,
    is_levelized_strict,
    levelize,
    map_to_basis,
    mapped_area,
    mapped_delay,
    preprocess,
    simplify,
    UnmappableError,
)
from repro.synth.rebalance import balance_trees


def reference_balance_trees(graph):
    """The full-traversal ``balance_trees`` from before the live-cone
    rewrite, verbatim: rebuild every node, dead and absorbed ones
    included, then ``extract()`` the live part."""
    associative = (cells.AND, cells.OR, cells.XOR)
    fanouts = graph.fanouts()
    po_nodes = set(graph.output_ids)
    out = LogicGraph(graph.name)
    remap = {}
    depth_of = {}

    def new_gate(op, *fanins, name=None):
        nid = out.add_gate(op, *fanins, name=name)
        depth_of[nid] = 1 + max(depth_of[f] for f in fanins)
        return nid

    def chain_leaves(nid, op, leaves):
        for fid in graph.fanins_of(nid):
            if (
                graph.op_of(fid) == op
                and len(fanouts[fid]) == 1
                and fid not in po_nodes
            ):
                chain_leaves(fid, op, leaves)
            else:
                leaves.append(fid)

    def build_tree(op, leaf_ids):
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

    for nid in graph.topological_order():
        node = graph.nodes[nid]
        if node.op == cells.INPUT:
            assert node.name is not None
            new_id = out.add_input(node.name)
            depth_of[new_id] = 0
            remap[nid] = new_id
        elif node.op in (cells.CONST0, cells.CONST1):
            new_id = out.add_const(1 if node.op == cells.CONST1 else 0)
            depth_of[new_id] = 0
            remap[nid] = new_id
        elif node.op in associative:
            leaves = []
            chain_leaves(nid, node.op, leaves)
            remap[nid] = build_tree(node.op, leaves)
        else:
            remap[nid] = new_gate(
                node.op, *(remap[f] for f in node.fanins), name=node.name
            )

    for name, nid in graph.outputs:
        out.set_output(name, remap[nid])
    return out.extract()


def assert_same_graph(a, b):
    """Node for node: ids, ops, fanins, names, PI and PO lists."""
    assert a.nodes == b.nodes
    assert list(a.nodes) == list(b.nodes)
    assert a.inputs == b.inputs
    assert a.outputs == b.outputs
    assert a.name == b.name


def with_dead_and_chain_cases(graph, seed):
    """Add what ``random_dag`` never draws: constants (one dead, one
    live), a dead PI, a dead consumer of a chain-internal node, and a PO
    on a chain-internal node."""
    g = graph.copy()
    g.add_input("dead_pi")
    g.add_const(seed & 1)  # dead constant
    one = g.add_const(1)
    a, b, c = g.inputs[:3]
    inner = g.add_gate(cells.AND, a, b)
    mid = g.add_gate(cells.AND, inner, c)
    root = g.add_gate(cells.AND, mid, one)
    g.add_gate(cells.NOT, inner)  # dead, but pins inner out of the chain
    g.set_output("chain_root", root)
    if seed & 2:
        g.set_output("chain_mid", mid)
    return g


class TestSimplify:
    def test_constant_folding(self):
        g = LogicGraph()
        a = g.add_input("a")
        zero = g.add_const(0)
        g.set_output("y", g.add_gate(cells.AND, a, zero))
        s = simplify(g)
        assert s.num_gates == 0  # y is constant 0
        assert s.evaluate_bits({"a": 1})["y"] == 0

    def test_or_with_one_is_one(self):
        g = LogicGraph()
        a = g.add_input("a")
        one = g.add_const(1)
        g.set_output("y", g.add_gate(cells.OR, a, one))
        assert simplify(g).evaluate_bits({"a": 0})["y"] == 1

    def test_xor_self_is_zero(self):
        g = LogicGraph()
        a = g.add_input("a")
        g.set_output("y", g.add_gate(cells.XOR, a, a))
        s = simplify(g)
        assert s.num_gates == 0
        assert s.evaluate_bits({"a": 1})["y"] == 0

    def test_double_negation_removed(self):
        g = LogicGraph()
        a = g.add_input("a")
        n1 = g.add_gate(cells.NOT, a)
        n2 = g.add_gate(cells.NOT, n1)
        g.set_output("y", n2)
        s = simplify(g)
        assert s.num_gates == 0
        assert s.evaluate_bits({"a": 1})["y"] == 1

    def test_buf_elimination(self):
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        buf = g.add_gate(cells.BUF, a)
        g.set_output("y", g.add_gate(cells.AND, buf, b))
        s = simplify(g)
        assert all(n.op != cells.BUF for n in s.nodes.values())

    def test_cse_merges_duplicates(self):
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        x1 = g.add_gate(cells.AND, a, b)
        x2 = g.add_gate(cells.AND, b, a)  # commutative duplicate
        g.set_output("y", g.add_gate(cells.OR, x1, x2))
        s = simplify(g)
        # OR(x, x) -> x, so a single AND remains.
        assert s.num_gates == 1

    def test_x_and_not_x(self):
        g = LogicGraph()
        a = g.add_input("a")
        na = g.add_gate(cells.NOT, a)
        g.set_output("y", g.add_gate(cells.AND, a, na))
        s = simplify(g)
        assert s.evaluate_bits({"a": 0})["y"] == 0
        assert s.evaluate_bits({"a": 1})["y"] == 0
        assert s.num_gates == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_random(self, seed):
        g = random_dag(7, 80, 4, seed=seed)
        assert graphs_equivalent(g, simplify(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_idempotent(self, seed):
        g = random_dag(6, 50, 3, seed=seed)
        once = simplify(g)
        twice = simplify(once)
        assert twice.num_gates == once.num_gates

    @pytest.mark.parametrize("seed", range(4))
    def test_never_grows(self, seed):
        g = random_dag(6, 60, 3, seed=seed)
        assert simplify(g).num_gates <= g.num_gates


class TestRebalance:
    def test_flattens_or_chain(self):
        g = LogicGraph()
        pis = [g.add_input(f"x{i}") for i in range(8)]
        acc = pis[0]
        for p in pis[1:]:
            acc = g.add_gate(cells.OR, acc, p)
        g.set_output("y", acc)
        assert g.depth() == 7
        b = balance_trees(g)
        assert b.depth() == 3  # log2(8)
        assert graphs_equivalent(g, b)

    def test_preserves_shared_nodes(self):
        g = LogicGraph()
        a, b, c = (g.add_input(n) for n in "abc")
        shared = g.add_gate(cells.AND, a, b)
        u = g.add_gate(cells.AND, shared, c)
        g.set_output("y1", u)
        g.set_output("y2", shared)  # shared is a PO: must survive
        bal = balance_trees(g)
        assert graphs_equivalent(g, bal)

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_random(self, seed):
        g = random_dag(8, 70, 3, seed=seed)
        assert graphs_equivalent(g, balance_trees(g))

    @pytest.mark.parametrize("seed", range(4))
    def test_never_deepens(self, seed):
        g = random_dag(8, 70, 3, seed=seed)
        assert balance_trees(g).depth() <= g.depth()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gates=st.integers(min_value=1, max_value=400),
        outputs=st.integers(min_value=1, max_value=6),
        locality=st.sampled_from([0, 0, 2, 3, 8]),
        extras=st.booleans(),
    )
    def test_live_cone_equals_full_traversal(
        self, seed, gates, outputs, locality, extras
    ):
        """Few outputs over many gates leaves most of a draw dead;
        ``locality`` draws the long single-op chains."""
        g = random_dag(5, gates, outputs, seed=seed, locality=locality)
        if extras:
            g = with_dead_and_chain_cases(g, seed)
        once = balance_trees(g)
        assert_same_graph(once, reference_balance_trees(g))
        assert_same_graph(
            balance_trees(once), reference_balance_trees(once)
        )

    def test_dead_consumer_still_blocks_chain_collapse(self):
        g = LogicGraph()
        a, b, c = (g.add_input(n) for n in "abc")
        inner = g.add_gate(cells.AND, a, b)
        g.set_output("y", g.add_gate(cells.AND, inner, c))
        g.add_gate(cells.NOT, inner)  # dead second fanout of ``inner``
        bal = balance_trees(g)
        assert_same_graph(bal, reference_balance_trees(g))
        assert bal.num_gates == 2 and bal.dangling_nodes() == set()

    def test_long_chain_needs_no_recursion(self):
        g = LogicGraph()
        acc = g.add_input("x0")
        for i in range(1, 3000):
            acc = g.add_gate(cells.XOR, acc, g.add_input(f"x{i}"))
        g.set_output("y", acc)
        assert balance_trees(g).depth() == 12  # ceil(log2(3000))


class TestTechmap:
    def test_map_to_nand_only(self):
        g = random_dag(5, 30, 2, seed=0)
        mapped = map_to_basis(g, {cells.NAND})
        ops = {n.op for n in mapped.nodes.values() if n.op in cells.LPE_OPS}
        assert ops <= {cells.NAND, cells.BUF}
        assert graphs_equivalent(g, mapped)

    def test_map_to_nor_only(self):
        g = random_dag(5, 30, 2, seed=1)
        mapped = map_to_basis(g, {cells.NOR})
        ops = {n.op for n in mapped.nodes.values() if n.op in cells.LPE_OPS}
        assert ops <= {cells.NOR, cells.BUF}
        assert graphs_equivalent(g, mapped)

    def test_map_to_and_not(self):
        g = random_dag(5, 30, 2, seed=2)
        mapped = map_to_basis(g, {cells.AND, cells.NOT})
        ops = {n.op for n in mapped.nodes.values() if n.op in cells.LPE_OPS}
        assert ops <= {cells.AND, cells.NOT, cells.BUF}
        assert graphs_equivalent(g, mapped)

    def test_incomplete_basis_rejected(self):
        g = random_dag(5, 30, 2, seed=3)
        with pytest.raises(UnmappableError):
            map_to_basis(g, {cells.AND, cells.OR})  # no inversion

    def test_identity_mapping_cheap(self):
        g = random_dag(5, 30, 2, seed=4)
        mapped = map_to_basis(g, cells.LPE_OPS)
        assert mapped.num_gates <= g.num_gates  # CSE may even shrink it

    def test_area_delay_positive(self):
        g = random_dag(5, 30, 2, seed=5)
        assert mapped_area(g) > 0
        assert mapped_delay(g) > 0


class TestLevelizeBalance:
    def test_levelization_groups(self):
        g = random_layered_dag(5, [4, 3, 2], seed=0)
        lv = levelize(g)
        assert lv.max_level == 3
        assert lv.width(1) == 4
        assert lv.max_width() == 4

    def test_unbalanced_graph_not_strict(self):
        g = LogicGraph()
        a, b, c = (g.add_input(n) for n in "abc")
        ab = g.add_gate(cells.AND, a, b)
        # c jumps from level 0 to level 2: not strict.
        y = g.add_gate(cells.OR, ab, c)
        g.set_output("y", y)
        assert not is_levelized_strict(g)

    def test_balance_makes_strict(self):
        for seed in range(5):
            g = random_dag(6, 50, 3, seed=seed)
            balanced, report = balance(g)
            assert is_levelized_strict(balanced)
            assert graphs_equivalent(g, balanced)
            assert report.buffers_inserted == (
                balanced.num_gates - g.num_gates
            )

    def test_balance_shares_buffer_chains(self):
        # One node fanning out to two consumers at the same later level
        # should be lifted once, not twice.
        g = LogicGraph()
        a, b, c = (g.add_input(n) for n in "abc")
        ab = g.add_gate(cells.AND, a, b)
        deep1 = g.add_gate(cells.AND, ab, c)
        deep2 = g.add_gate(cells.OR, deep1, c)
        y1 = g.add_gate(cells.AND, deep2, a)
        y2 = g.add_gate(cells.OR, deep2, b)
        g.set_output("y1", y1)
        g.set_output("y2", y2)
        balanced, report = balance(g)
        assert is_levelized_strict(balanced)
        # a and b each need a 3-deep chain to reach level 3; shared lifting
        # keeps the buffer count at the minimum.
        buf_count = sum(
            1 for n in balanced.nodes.values() if n.op == cells.BUF
        )
        assert buf_count == report.buffers_inserted

    def test_pos_at_common_level(self):
        g = LogicGraph()
        a, b = g.add_input("a"), g.add_input("b")
        shallow = g.add_gate(cells.AND, a, b)
        deep = g.add_gate(cells.OR, g.add_gate(cells.NOT, shallow), b)
        g.set_output("shallow", shallow)
        g.set_output("deep", deep)
        balanced, _ = balance(g)
        lv = balanced.levels()
        levels = {lv[nid] for _, nid in balanced.outputs}
        assert len(levels) == 1


class TestPreprocess:
    @pytest.mark.parametrize("seed", range(5))
    def test_preprocess_equivalence(self, seed):
        g = random_dag(7, 70, 4, seed=seed)
        result = preprocess(g)
        assert is_levelized_strict(result.graph)
        assert graphs_equivalent(g, result.graph)

    def test_preprocess_without_optimize(self):
        g = random_dag(6, 40, 2, seed=0)
        result = preprocess(g, optimize=False)
        assert is_levelized_strict(result.graph)
        assert graphs_equivalent(g, result.graph)

    def test_preprocess_with_basis(self):
        g = random_dag(6, 40, 2, seed=1)
        result = preprocess(g, basis=frozenset({cells.NAND}))
        ops = {
            n.op
            for n in result.graph.nodes.values()
            if n.op in cells.MISO_OPS | {cells.NOT}
        }
        assert ops <= {cells.NAND}
        assert graphs_equivalent(g, result.graph)

    def test_report_fields(self):
        g = random_dag(6, 40, 2, seed=2)
        result = preprocess(g)
        rep = result.report
        assert rep.gates_in == 40
        assert rep.gates_out == result.graph.num_gates
        assert rep.depth_out == result.levels.max_level
        assert "preprocess" in str(rep)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 5000),
    gates=st.integers(5, 60),
    inputs=st.integers(2, 7),
)
def test_property_preprocess_preserves_function(seed, gates, inputs):
    """preprocess = simplify+rebalance+FPB never changes the function."""
    g = random_dag(inputs, gates, 2, seed=seed)
    result = preprocess(g)
    assert graphs_equivalent(g, result.graph)
    assert is_levelized_strict(result.graph)
