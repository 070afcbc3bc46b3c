"""Tests for workload models, the FFCL generator, baselines, and analysis."""

import numpy as np
import pytest

from repro.analysis import (
    crossover_point,
    format_number,
    geometric_mean,
    render_ratio,
    render_series,
    render_table,
)
from repro.baselines import (
    HLS4MLModel,
    LogicNetsModel,
    LPUResourceModel,
    MACArrayModel,
    NullaDSPModel,
    PAPER_REPORTED_FPS,
    PAPER_TABLE1,
    XNORModel,
)
from repro.compiler import graph_fingerprint
from repro.core import LPUConfig, PAPER_CONFIG
from repro.models import (
    LayerWorkload,
    conv_layer,
    dense_layer,
    evaluate_layer,
    evaluate_model,
    jsc_l_workload,
    jsc_m_workload,
    layer_block,
    lenet5_workload,
    mlpmixer_b4_workload,
    mlpmixer_s4_workload,
    neuron_graph,
    nid_workload,
    table2_models,
    table3_models,
    threshold_neuron_graph,
    vgg16_paper_layers,
    vgg16_workload,
)
from repro.netlist import cells
from repro.netlist.compose import merge_parallel
from repro.netlist.graph import LogicGraph

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)


class TestLayerDescriptors:
    def test_conv_shape_math(self):
        layer, out_hw = conv_layer("c", 3, 64, 3, 32)
        assert out_hw == 32  # same padding
        assert layer.positions == 1024
        assert layer.input_bits == 27
        assert layer.macs == 27 * 64 * 1024
        assert layer.params == 27 * 64

    def test_valid_padding(self):
        layer, out_hw = conv_layer("c", 1, 6, 5, 28, padding=0)
        assert out_hw == 24

    def test_dense(self):
        layer = dense_layer("d", 100, 10)
        assert layer.positions == 1
        assert layer.macs == 1000

    def test_fan_in_clipped_to_inputs(self):
        layer = dense_layer("d", 4, 10, pruned_fan_in=100)
        assert layer.fan_in == 4

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            LayerWorkload("x", "pool", 1, 1, 1, 1, 1, 1)


class TestModelDefinitions:
    def test_vgg16_thirteen_convs(self):
        m = vgg16_workload()
        assert len(m.layers) == 13
        assert len(vgg16_paper_layers(m)) == 12
        assert m.layers[-1].num_neurons == 512

    def test_vgg16_imagenet_macs(self):
        m = vgg16_workload(imagenet=True)
        # Conv MACs of VGG16 at 224x224 are ~15.3 GMACs.
        assert 14e9 < m.total_macs < 16.5e9

    def test_lenet5_structure(self):
        m = lenet5_workload()
        assert [l.name for l in m.layers] == [
            "conv1", "conv2", "fc1", "fc2", "fc3",
        ]
        assert m.layers[2].input_bits == 256  # 16 x 4 x 4

    def test_mixer_layer_counts(self):
        s = mlpmixer_s4_workload()
        b = mlpmixer_b4_workload()
        # stem + 4 blocks per mixing layer + head
        assert len(s.layers) == 1 + 8 * 4 + 1
        assert len(b.layers) == 1 + 12 * 4 + 1

    def test_tiny_models(self):
        assert nid_workload().layers[0].input_bits == 593
        assert jsc_m_workload().num_classes == 5
        assert jsc_l_workload().total_neurons > jsc_m_workload().total_neurons

    def test_suites(self):
        assert len(table2_models()) == 4
        assert len(table3_models()) == 3


class TestWorkloadGenerator:
    def test_neuron_graph_cached(self):
        g1 = neuron_graph(7, 0)
        g2 = neuron_graph(7, 0)
        assert g1 is g2

    def test_threshold_neuron_is_threshold_function(self):
        g = threshold_neuron_graph(5, 3, care_fraction=1.0)
        # Fully-specified threshold functions are monotone in each input's
        # fixed polarity; sanity: graph is a function of <= 5 inputs.
        assert g.num_inputs == 5
        assert g.num_outputs == 1

    def test_wide_fan_in_synthetic(self):
        g = neuron_graph(64, 1)
        assert g.num_inputs == 64
        assert g.num_gates > 10

    def test_layer_block_outputs(self):
        layer = dense_layer("d", 100, 40, pruned_fan_in=6)
        block, sampled = layer_block(layer, sample_neurons=4, seed=0)
        assert sampled == 4
        assert block.num_outputs == 4

    def test_layer_block_samples_at_most_width(self):
        layer = dense_layer("d", 20, 2, pruned_fan_in=5)
        _, sampled = layer_block(layer, sample_neurons=8, seed=0)
        assert sampled == 2

    @pytest.mark.parametrize(
        "model, seed",
        [(vgg16_workload, 0), (lenet5_workload, 0), (nid_workload, 2)],
    )
    def test_layer_block_matches_two_step_rebuild(self, model, seed):
        """``layer_block`` rebuilds each neuron once; the block must be the
        one the former rename-then-rebuild produced, fingerprint for
        fingerprint (the corpus's recorded fingerprints depend on it)."""
        layer = max(model().layers, key=lambda l: l.num_neurons)
        block, _ = layer_block(layer, sample_neurons=6, seed=seed)
        expected = _two_step_layer_block(layer, sample_neurons=6, seed=seed)
        assert graph_fingerprint(block) == graph_fingerprint(expected)


def _rebuild(graph, name, pi_names, keep_gate_names):
    out = LogicGraph(name)
    remap = {}
    for nid in graph.topological_order():
        node = graph.nodes[nid]
        if node.op == cells.INPUT:
            remap[nid] = out.add_input(pi_names.get(node.name, node.name))
        elif node.op in (cells.CONST0, cells.CONST1):
            remap[nid] = out.add_const(1 if node.op == cells.CONST1 else 0)
        else:
            gate_name = node.name if keep_gate_names else None
            remap[nid] = out.add_gate(
                node.op, *(remap[f] for f in node.fanins), name=gate_name
            )
    return out, remap


def _two_step_layer_block(layer, sample_neurons, seed):
    """``layer_block`` as it was: PIs renamed in one rebuild (gate names
    kept), then a second rebuild dropping gate names and naming the PO."""
    rng = np.random.default_rng(seed ^ hash(layer.name) & 0xFFFF)
    graphs = []
    for j in range(min(sample_neurons, layer.num_neurons)):
        base = neuron_graph(layer.fan_in, seed * 1009 + j)
        support = rng.choice(layer.input_bits, size=layer.fan_in, replace=False)
        mapping = {f"x{i}": f"in{int(support[i])}" for i in range(layer.fan_in)}
        g, remap = _rebuild(base, base.name, mapping, keep_gate_names=True)
        for name, nid in base.outputs:
            g.set_output(name, remap[nid])
        renamed, remap = _rebuild(g, f"{layer.name}_n{j}", {}, keep_gate_names=False)
        renamed.set_output(f"{layer.name}_n{j}", remap[g.outputs[0][1]])
        graphs.append(renamed)
    return merge_parallel(graphs, name=f"{layer.name}_block")


class TestEvaluation:
    def test_layer_evaluation_scaling(self):
        layer = dense_layer("d", 64, 32, pruned_fan_in=6)
        ev = evaluate_layer(layer, SMALL, sample_neurons=4, seed=0)
        assert ev.scale == 8.0
        assert ev.makespan_full >= ev.makespan_sample
        assert ev.cycles_per_image == pytest.approx(
            ev.makespan_full / SMALL.word_bits
        )

    def test_conv_positions_drive_passes(self):
        layer, _ = conv_layer("c", 8, 16, 3, 16, pruned_fan_in=6)
        ev = evaluate_layer(layer, SMALL, sample_neurons=4)
        assert ev.passes_per_image == int(np.ceil(256 / SMALL.word_bits))
        assert ev.cycles_per_image == ev.makespan_full * ev.passes_per_image

    def test_merging_improves_or_matches_throughput(self):
        m = jsc_m_workload()
        merged = evaluate_model(m, SMALL, merge=True, sample_neurons=6)
        unmerged = evaluate_model(m, SMALL, merge=False, sample_neurons=6)
        assert merged.fps >= unmerged.fps
        assert merged.total_mfgs <= unmerged.total_mfgs

    def test_more_lpvs_never_slower(self):
        m = jsc_m_workload()
        small = evaluate_model(m, LPUConfig(num_lpvs=2), sample_neurons=4)
        big = evaluate_model(m, LPUConfig(num_lpvs=16), sample_neurons=4)
        assert big.total_cycles_per_image <= small.total_cycles_per_image

    def test_fps_latency_consistent(self):
        m = jsc_m_workload()
        ev = evaluate_model(m, SMALL, sample_neurons=4)
        assert ev.fps == pytest.approx(
            SMALL.frequency_hz / (SMALL.t_c * ev.total_cycles_per_image)
        )


class TestBaselines:
    def test_mac_roofline_bounds(self):
        mac = MACArrayModel()
        vgg = vgg16_workload(imagenet=True)
        assert mac.latency_seconds(vgg) == max(
            mac.compute_seconds(vgg), mac.memory_seconds(vgg)
        )
        assert mac.bound(vgg) in ("compute", "memory")

    def test_mac_monotone_in_macs(self):
        mac = MACArrayModel()
        assert mac.fps(vgg16_workload()) > mac.fps(
            vgg16_workload(imagenet=True)
        )

    def test_xnor_faster_than_mac(self):
        vgg = vgg16_workload()
        assert XNORModel().fps(vgg) > MACArrayModel().fps(vgg)

    def test_nulladsp_scales_with_gates(self):
        ndsp = NullaDSPModel()
        assert ndsp.fps(jsc_m_workload()) > ndsp.fps(vgg16_workload())

    def test_logicnets_tiny_models_replicate(self):
        ln = LogicNetsModel()
        assert ln.parallel_instances(jsc_m_workload()) > ln.parallel_instances(
            jsc_l_workload()
        )
        assert not ln.reprogrammable()

    def test_logicnets_beats_lpu_on_tiny_models(self):
        """Table III's honest outcome: hardened pipelines win tiny models."""
        ln = LogicNetsModel()
        for model in table3_models():
            lpu = evaluate_model(model, PAPER_CONFIG, sample_neurons=4)
            assert ln.fps(model) > lpu.fps

    def test_hls4ml_ii_grows_with_model(self):
        h = HLS4MLModel()
        assert h.achievable_ii(vgg16_workload()) >= h.achievable_ii(
            jsc_m_workload()
        )

    def test_paper_reported_constants_present(self):
        assert PAPER_REPORTED_FPS["NID"]["LogicNets"] == pytest.approx(95.24e6)
        assert PAPER_REPORTED_FPS["JSC-L"]["Google+CERN"] == pytest.approx(
            76.92e6
        )


class TestResourceModel:
    def test_table1_reproduction(self):
        est = LPUResourceModel().estimate(PAPER_CONFIG)
        assert est.flip_flops == pytest.approx(PAPER_TABLE1["FF"], rel=0.25)
        assert est.luts == pytest.approx(PAPER_TABLE1["LUT"], rel=0.25)
        assert est.bram_kb == pytest.approx(
            PAPER_TABLE1["BRAM_Kb"], rel=0.25
        )
        assert est.frequency_hz == PAPER_TABLE1["FREQ_Hz"]
        assert est.fits()

    def test_resources_scale_with_lpvs(self):
        model = LPUResourceModel()
        small = model.estimate(LPUConfig(num_lpvs=4))
        big = model.estimate(LPUConfig(num_lpvs=32))
        assert big.flip_flops == 8 * small.flip_flops

    def test_frequency_derates_for_wide_lpvs(self):
        model = LPUResourceModel()
        assert (
            model.estimate(LPUConfig(lpes_per_lpv=64)).frequency_hz
            < model.estimate(LPUConfig(lpes_per_lpv=32)).frequency_hz
        )


class TestAnalysis:
    def test_format_number(self):
        assert format_number(None) == "-"
        assert format_number(1500) == "1.50K"
        assert format_number(2.5e6) == "2.50M"
        assert format_number(0) == "0"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bbb"], [[1, 2], ["x", 3e6]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert len({len(l) for l in lines[1:]}) <= 2  # header+rule+rows align

    def test_render_ratio(self):
        out = render_ratio("x", 2.0, 1.0)
        assert "2.00x" in out
        assert "no paper reference" in render_ratio("x", 2.0, None)

    def test_render_series_scales(self):
        text = render_series("S", "x", [1, 2], {"a": [1.0, 2.0]})
        assert "#" in text

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_crossover(self):
        x, found = crossover_point([1, 2, 4], [10.0, 3.0, 1.0], 3.5)
        assert found and x == 2
        _, found2 = crossover_point([1, 2], [10.0, 9.0], 1.0)
        assert not found2
