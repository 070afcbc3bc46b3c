"""Unit + property tests for the LogicGraph DAG (repro.netlist.graph)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import cells
from repro.netlist.graph import LogicGraph, graphs_equivalent
from repro.netlist.random_graphs import random_dag, random_layered_dag, random_tree


def xor_graph():
    g = LogicGraph("xor2")
    a = g.add_input("a")
    b = g.add_input("b")
    y = g.add_gate(cells.XOR, a, b)
    g.set_output("y", y)
    return g


class TestConstruction:
    def test_inputs_outputs(self):
        g = xor_graph()
        assert g.num_inputs == 2
        assert g.num_outputs == 1
        assert g.num_gates == 1
        assert g.input_name(g.inputs[0]) == "a"
        assert g.input_id("b") == g.inputs[1]

    def test_duplicate_input_name_rejected(self):
        g = LogicGraph()
        g.add_input("a")
        with pytest.raises(ValueError):
            g.add_input("a")

    def test_duplicate_output_name_rejected(self):
        g = xor_graph()
        with pytest.raises(ValueError):
            g.set_output("y", g.inputs[0])

    def test_duplicate_output_name_rejected_after_direct_assignment(self):
        """``copy()`` and the artifact codec assign ``_outputs`` without
        going through ``set_output``; the name index must catch up."""
        from repro.artifact.codec import decode_graph, encode_graph

        g = xor_graph()
        for clone in (g.copy(), decode_graph(*encode_graph(g))):
            with pytest.raises(ValueError, match="duplicate output name"):
                clone.set_output("y", clone.inputs[0])
            clone.set_output("z", clone.inputs[0])
            with pytest.raises(ValueError, match="duplicate output name"):
                clone.set_output("z", clone.inputs[1])
            assert [name for name, _ in clone.outputs] == ["y", "z"]
        assert [name for name, _ in g.outputs] == ["y"]

    def test_gate_requires_existing_fanins(self):
        g = LogicGraph()
        a = g.add_input("a")
        with pytest.raises(KeyError):
            g.add_gate(cells.AND, a, 999)

    def test_source_ops_rejected_in_add_gate(self):
        g = LogicGraph()
        with pytest.raises(ValueError):
            g.add_gate(cells.INPUT)

    def test_wrong_fanin_count_rejected(self):
        g = LogicGraph()
        a = g.add_input("a")
        with pytest.raises(ValueError):
            g.add_gate(cells.AND, a)
        with pytest.raises(ValueError):
            g.add_gate(cells.NOT, a, a)

    def test_validate_passes_on_wellformed(self):
        random_dag(5, 30, 3, seed=0).validate()


class TestStructureQueries:
    def test_levels_sources_at_zero(self):
        g = xor_graph()
        lv = g.levels()
        for nid in g.inputs:
            assert lv[nid] == 0
        assert g.depth() == 1

    def test_levels_monotone_along_edges(self):
        g = random_dag(6, 50, 3, seed=1)
        lv = g.levels()
        for nid in g:
            for fid in g.fanins_of(nid):
                assert lv[fid] < lv[nid]

    def test_fanouts_inverse_of_fanins(self):
        g = random_dag(6, 50, 3, seed=2)
        fo = g.fanouts()
        for nid in g:
            for fid in g.fanins_of(nid):
                assert nid in fo[fid]

    def test_topological_order_respects_edges(self):
        g = random_dag(6, 50, 3, seed=3)
        pos = {nid: i for i, nid in enumerate(g.topological_order())}
        for nid in g:
            for fid in g.fanins_of(nid):
                assert pos[fid] < pos[nid]

    def test_transitive_fanin_contains_roots(self):
        g = random_dag(6, 40, 2, seed=4)
        cone = g.transitive_fanin(g.output_ids)
        assert set(g.output_ids) <= cone

    def test_dangling_nodes_are_dead(self):
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        live = g.add_gate(cells.AND, a, b)
        dead = g.add_gate(cells.OR, a, b)
        g.set_output("y", live)
        assert dead in g.dangling_nodes()
        assert live not in g.dangling_nodes()

    def test_level_widths_counts_gates_only(self):
        g = xor_graph()
        assert g.level_widths() == {1: 1}


class TestEvaluation:
    def test_xor_truth_table(self):
        g = xor_graph()
        for a in (0, 1):
            for b in (0, 1):
                out = g.evaluate_bits({"a": a, "b": b})
                assert out["y"] == a ^ b

    def test_bit_parallel_evaluation(self):
        g = xor_graph()
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2**64, size=5, dtype=np.uint64)
        b = rng.integers(0, 2**64, size=5, dtype=np.uint64)
        out = g.evaluate({"a": a, "b": b})
        assert np.array_equal(out["y"], a ^ b)

    def test_constants(self):
        g = LogicGraph()
        a = g.add_input("a")
        one = g.add_const(1)
        g.set_output("y", g.add_gate(cells.AND, a, one))
        assert g.evaluate_bits({"a": 1})["y"] == 1
        assert g.evaluate_bits({"a": 0})["y"] == 0

    def test_shape_mismatch_rejected(self):
        g = xor_graph()
        with pytest.raises(ValueError):
            g.evaluate(
                {
                    "a": np.zeros(1, dtype=np.uint64),
                    "b": np.zeros(2, dtype=np.uint64),
                }
            )

    def test_po_aliasing_pi(self):
        g = LogicGraph()
        a = g.add_input("a")
        g.set_output("y", a)
        assert g.evaluate_bits({"a": 1})["y"] == 1


class TestCopyExtract:
    def test_copy_is_independent(self):
        g = xor_graph()
        c = g.copy()
        c.add_input("extra")
        assert g.num_inputs == 2
        assert c.num_inputs == 3

    def test_extract_removes_dead_gates_keeps_pis(self):
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        unused_pi = g.add_input("c")
        live = g.add_gate(cells.AND, a, b)
        g.add_gate(cells.OR, a, b)  # dead
        g.set_output("y", live)
        e = g.extract()
        assert e.num_gates == 1
        # Interface preserved: dead PIs are kept.
        assert e.num_inputs == 3
        assert graphs_equivalent(g, e)

    def test_extract_equivalence_random(self):
        for seed in range(5):
            g = random_dag(6, 40, 3, seed=seed)
            assert graphs_equivalent(g, g.extract())


class TestGraphsEquivalent:
    def test_detects_inequivalence(self):
        g1 = xor_graph()
        g2 = LogicGraph("and2")
        a = g2.add_input("a")
        b = g2.add_input("b")
        g2.set_output("y", g2.add_gate(cells.AND, a, b))
        assert not graphs_equivalent(g1, g2)

    def test_detects_interface_mismatch(self):
        g1 = xor_graph()
        g2 = LogicGraph()
        a = g2.add_input("a")
        c = g2.add_input("c")
        g2.set_output("y", g2.add_gate(cells.XOR, a, c))
        assert not graphs_equivalent(g1, g2)


class TestRandomGenerators:
    def test_random_dag_shape(self):
        g = random_dag(7, 55, 4, seed=9)
        assert g.num_inputs == 7
        assert g.num_outputs == 4
        g.validate()

    def test_random_layered_widths(self):
        widths = [5, 4, 6]
        g = random_layered_dag(6, widths, seed=0)
        lw = g.level_widths()
        for i, w in enumerate(widths):
            assert lw[i + 1] == w

    def test_random_tree_single_output(self):
        g = random_tree(16, seed=0)
        assert g.num_outputs == 1
        assert g.depth() == 4  # balanced reduction of 16 leaves

    def test_generators_reject_bad_args(self):
        with pytest.raises(ValueError):
            random_dag(0, 5, 1)
        with pytest.raises(ValueError):
            random_layered_dag(4, [])
        with pytest.raises(ValueError):
            random_tree(1)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_inputs=st.integers(2, 8),
    num_gates=st.integers(1, 60),
)
def test_property_random_dag_levels_bound_depth(seed, num_inputs, num_gates):
    """Depth equals the max PO level and is bounded by the gate count."""
    g = random_dag(num_inputs, num_gates, 2, seed=seed)
    lv = g.levels()
    assert g.depth() == max(lv[nid] for nid in g.output_ids)
    assert g.depth() <= num_gates


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_evaluation_lanes_independent(seed):
    """Each packed bit lane evaluates independently: evaluating two words
    jointly equals evaluating them separately."""
    g = random_dag(4, 20, 2, seed=seed)
    rng = np.random.default_rng(seed)
    w1 = {g.input_name(i): rng.integers(0, 2**64, 1, dtype=np.uint64) for i in g.inputs}
    w2 = {g.input_name(i): rng.integers(0, 2**64, 1, dtype=np.uint64) for i in g.inputs}
    joint = {
        k: np.concatenate([w1[k], w2[k]]) for k in w1
    }
    out_joint = g.evaluate(joint)
    out1 = g.evaluate(w1)
    out2 = g.evaluate(w2)
    for name in out_joint:
        assert out_joint[name][0] == out1[name][0]
        assert out_joint[name][1] == out2[name][0]
