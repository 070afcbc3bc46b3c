"""Tests for truth tables, Quine-McCluskey, Espresso, and factoring."""

import espresso_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.workloads import threshold_neuron_table
from repro.netlist import graphs_equivalent, random_dag
from repro.synth import (
    Cube,
    TruthTable,
    espresso_minimize,
    factored_graph,
    graph_from_truth_table,
    minimize,
    prime_implicants,
    sop_cost,
    sop_to_graph,
)
from repro.synth import espresso
from repro.synth.factoring import factoring_gain


class TestCube:
    def test_literal_extraction(self):
        c = Cube(0b101, 0b001)  # x0 & ~x2
        assert c.literals() == [(0, 1), (2, 0)]
        assert c.num_literals() == 2
        assert str(c) == "x0~x2"

    def test_contains_minterm(self):
        c = Cube(0b11, 0b01)  # x0 & ~x1
        assert c.contains_minterm(0b01)
        assert c.contains_minterm(0b101)
        assert not c.contains_minterm(0b11)

    def test_contains_cube(self):
        big = Cube(0b01, 0b01)  # x0
        small = Cube(0b11, 0b01)  # x0 & ~x1
        assert big.contains_cube(small)
        assert not small.contains_cube(big)

    def test_intersects(self):
        assert Cube(0b1, 0b1).intersects(Cube(0b10, 0b10))
        assert not Cube(0b1, 0b1).intersects(Cube(0b1, 0b0))

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(0b01, 0b10)

    def test_without_literal(self):
        c = Cube(0b11, 0b01)
        assert c.without_literal(1) == Cube(0b01, 0b01)


class TestTruthTable:
    def test_from_minterms(self):
        t = TruthTable.from_minterms(2, [1, 2])
        assert t.minterms() == [1, 2]
        assert t.off_minterms() == [0, 3]

    def test_dont_cares_excluded_from_both_sets(self):
        t = TruthTable.from_minterms(2, [1], dont_cares=[3])
        assert t.minterms() == [1]
        assert 3 not in t.off_minterms()
        assert t.dc_minterms() == [3]

    def test_from_graph_xor(self):
        g = random_dag(2, 1, 1, seed=5)  # may be any 2-input function
        t = TruthTable.from_graph(g)
        for m in range(4):
            bits = {"x0": m & 1, "x1": (m >> 1) & 1}
            assert t.value(m) == g.evaluate_bits(bits)["y0"]

    def test_from_graph_matches_eval_many_vars(self):
        g = random_dag(7, 40, 1, seed=3)
        t = TruthTable.from_graph(g)
        rng = np.random.default_rng(0)
        for _ in range(32):
            m = int(rng.integers(0, 128))
            bits = {f"x{i}": (m >> i) & 1 for i in range(7)}
            assert t.value(m) == g.evaluate_bits(bits)[g.outputs[0][0]]

    def test_cover_checks(self):
        t = TruthTable.from_minterms(3, [0, 1, 2, 3])  # ~x2
        cover = [Cube(0b100, 0)]
        assert t.cover_is_complete(cover)
        assert not t.cube_intersects_off(cover[0])
        bad = Cube(0, 0)  # constant 1 hits the OFF set
        assert t.cube_intersects_off(bad)

    def test_complement(self):
        t = TruthTable.from_minterms(2, [0])
        assert t.complement().minterms() == [1, 2, 3]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TruthTable(2, np.zeros(3, dtype=bool))


def check_cover_exact(t: TruthTable, cover):
    """A cover must contain ON, avoid OFF (don't-cares are free)."""
    assert t.cover_is_complete(cover)
    for cube in cover:
        assert not t.cube_intersects_off(cube)


class TestQuineMcCluskey:
    def test_classic_example(self):
        # f = Σm(0,1,2,5,6,7) over 3 vars: minimal SOP has 3 cubes.
        t = TruthTable.from_minterms(3, [0, 1, 2, 5, 6, 7])
        cover = minimize(t)
        check_cover_exact(t, cover)
        assert len(cover) == 3

    def test_with_dont_cares(self):
        # Classic BCD 7-segment-like: DCs shrink the cover.
        t_no_dc = TruthTable.from_minterms(4, [1, 3, 7, 11, 15])
        t_dc = TruthTable.from_minterms(4, [1, 3, 7, 11, 15], [0, 2, 5])
        c1 = minimize(t_no_dc)
        c2 = minimize(t_dc)
        check_cover_exact(t_no_dc, c1)
        check_cover_exact(t_dc, c2)
        assert sop_cost(c2) <= sop_cost(c1)

    def test_constant_zero(self):
        t = TruthTable.from_minterms(3, [])
        assert minimize(t) == []

    def test_tautology(self):
        t = TruthTable.from_minterms(2, [0, 1, 2, 3])
        cover = minimize(t)
        assert len(cover) == 1
        assert cover[0].mask == 0

    def test_prime_implicants_of_and(self):
        t = TruthTable.from_minterms(2, [3])  # x0 & x1
        primes = prime_implicants(t)
        assert primes == [Cube(0b11, 0b11)]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_functions_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        bits = rng.random(1 << n) < 0.5
        t = TruthTable(n, bits)
        cover = minimize(t)
        check_cover_exact(t, cover)

    def test_too_many_vars_rejected(self):
        t = TruthTable(13, np.zeros(1 << 13, dtype=bool))
        with pytest.raises(ValueError):
            minimize(t)


class TestEspresso:
    @pytest.mark.parametrize("seed", range(10))
    def test_valid_cover_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 9))
        bits = rng.random(1 << n) < 0.4
        care = rng.random(1 << n) < 0.7
        t = TruthTable(n, bits, care)
        cover = espresso_minimize(t)
        if t.minterms():
            check_cover_exact(t, cover)
        else:
            assert cover == []

    @pytest.mark.parametrize("seed", range(6))
    def test_close_to_exact_on_small(self, seed):
        rng = np.random.default_rng(200 + seed)
        bits = rng.random(16) < 0.5
        t = TruthTable(4, bits)
        heuristic = espresso_minimize(t)
        exact = minimize(t)
        if t.minterms():
            # Espresso should be within 50% of the exact cube count.
            assert len(heuristic) <= max(len(exact) + 2, len(exact) * 2)

    def test_tautology_single_cube(self):
        t = TruthTable.from_minterms(3, list(range(8)))
        assert espresso_minimize(t) == [Cube(0, 0)]


def assert_matches_reference(t: TruthTable):
    """The packed-bitset Espresso makes every decision the numpy-mask one
    did: the same cubes, in the same order."""
    assert espresso_minimize(t) == espresso_reference.espresso_minimize(t)


class TestEspressoMatchesReference:
    @pytest.mark.parametrize(
        "table",
        [
            TruthTable.from_minterms(3, []),
            # ON only where nothing is cared about: still the empty cover.
            TruthTable(3, np.ones(8, dtype=bool), np.zeros(8, dtype=bool)),
            TruthTable(0, np.array([False])),
        ],
        ids=["empty-on", "all-dont-care", "k0-zero"],
    )
    def test_empty_on_set(self, table):
        assert espresso_minimize(table) == []
        assert_matches_reference(table)

    @pytest.mark.parametrize(
        "table",
        [
            TruthTable.from_minterms(3, [0, 1, 2], dont_cares=[3, 4, 5, 6, 7]),
            TruthTable(0, np.array([True])),
        ],
        ids=["tautology-under-care", "k0-one"],
    )
    def test_tautology(self, table):
        assert espresso_minimize(table) == [Cube(0, 0)]
        assert_matches_reference(table)

    # The neuron tables the corpus draws: layer_block's neuron seeds are
    # seed * 1009 + j.  The models' widest layers (fan-ins 8-11) sample six
    # neurons at seed 0; the three nid_stack layers (fan-in 7) sample 100
    # at seeds 0-2, of which every 20th is checked.
    @pytest.mark.parametrize(
        "fan_in, seed",
        [(f, j) for f in (8, 9, 10, 11) for j in range(6)]
        + [(7, i * 1009 + j) for i in range(3) for j in range(0, 100, 20)],
    )
    def test_corpus_neuron_tables(self, fan_in, seed):
        assert_matches_reference(threshold_neuron_table(fan_in, seed))

    def test_incomplete_cover_raises_without_assert(self, monkeypatch):
        """Completeness is checked explicitly, so ``python -O`` keeps it."""
        irredundant = espresso._irredundant
        monkeypatch.setattr(
            espresso, "_irredundant", lambda cubes, ctx: irredundant(cubes, ctx)[:-1]
        )
        t = TruthTable.from_minterms(4, [0, 3, 5, 6, 9, 10, 12, 15])
        with pytest.raises(RuntimeError, match="incomplete cover"):
            espresso_minimize(t)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 12),
    density=st.floats(0.0, 1.0),
    care=st.sampled_from([1.0, 0.9, 0.5, 0.2, 0.05]),
    threshold=st.booleans(),
)
def test_property_espresso_matches_reference(seed, k, density, care, threshold):
    """Random tables (any ON density, care sets from full to sparse) and
    threshold-neuron tables give the reference's cover, cube for cube."""
    if threshold and k >= 1:
        # Up to fan-in 10: the corpus sweep above covers 11.
        t = threshold_neuron_table(min(k, 10), seed, care_fraction=care)
    else:
        rng = np.random.default_rng(seed)
        size = 1 << k
        # The reference is quadratic in the ON count; cap it past k = 8.
        on = rng.random(size) < min(density, 64 / (care * size) if k > 8 else 1.0)
        t = TruthTable(k, on, rng.random(size) < care)
    assert_matches_reference(t)


class TestSopAndFactoring:
    def test_sop_graph_matches_table(self):
        t = TruthTable.from_minterms(3, [1, 2, 4, 7])
        cover = minimize(t)
        g = sop_to_graph(cover, 3)
        t2 = TruthTable.from_graph(g)
        assert t == t2

    def test_factored_graph_matches_table(self):
        t = TruthTable.from_minterms(4, [0, 3, 5, 6, 9, 10, 12, 15])
        cover = minimize(t)
        g = factored_graph(cover, 4)
        t2 = TruthTable.from_graph(g)
        assert t == t2

    def test_empty_cover_is_constant_zero(self):
        g = sop_to_graph([], 2)
        assert g.evaluate_bits({"x0": 1, "x1": 1})["y"] == 0
        gf = factored_graph([], 2)
        assert gf.evaluate_bits({"x0": 1, "x1": 1})["y"] == 0

    def test_constant_one_cube(self):
        g = sop_to_graph([Cube(0, 0)], 2)
        assert g.evaluate_bits({"x0": 0, "x1": 0})["y"] == 1

    def test_direct_truth_table_graph(self):
        t = TruthTable.from_minterms(3, [2, 5])
        g = graph_from_truth_table(t)
        assert TruthTable.from_graph(g) == t

    @pytest.mark.parametrize("seed", range(6))
    def test_factoring_never_larger_gate_count(self, seed):
        rng = np.random.default_rng(300 + seed)
        bits = rng.random(64) < 0.45
        t = TruthTable(6, bits)
        cover = minimize(t)
        if not cover:
            return
        flat, factored = factoring_gain(cover, 6)
        assert factored <= flat

    @pytest.mark.parametrize("seed", range(6))
    def test_factored_equals_sop_function(self, seed):
        rng = np.random.default_rng(400 + seed)
        bits = rng.random(32) < 0.5
        t = TruthTable(5, bits)
        cover = minimize(t)
        g1 = sop_to_graph(cover, 5)
        g2 = factored_graph(cover, 5)
        assert graphs_equivalent(g1, g2)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    density=st.floats(0.1, 0.9),
)
def test_property_minimize_preserves_function(seed, n, density):
    """QM/Espresso covers agree with the original table on the care set."""
    rng = np.random.default_rng(seed)
    bits = rng.random(1 << n) < density
    care = rng.random(1 << n) < 0.8
    t = TruthTable(n, bits, care)
    cover = espresso_minimize(t) if n > 5 else minimize(t)
    g = sop_to_graph(cover, n)
    realized = TruthTable.from_graph(g)
    assert t.equivalent_under_care(realized)
