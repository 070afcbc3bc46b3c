"""FFCL workload generation and model-level LPU evaluation.

This module turns the layer descriptors of :mod:`repro.models.layers` into
concrete FFCL logic graphs and drives the compiler over them — the engine
behind every table and figure bench.

**Neuron logic.**  For enumerable fan-ins (<= 16) each neuron is a *real*
NullaNet-style function: a random threshold function (binarized neuron) is
enumerated, minimized (Quine-McCluskey / Espresso), and factored into
multi-level logic — the exact pipeline of :mod:`repro.nullanet`.  For the
wide fan-ins the paper mentions ("neurons designed for SoA NNs include tens
to hundreds of inputs", Section I) enumeration is impossible for anyone, so
a synthetic minimized-SOP of calibrated size is factored instead (see
DESIGN.md, substitutions).

**Sampling.**  A layer with hundreds of filters would produce an enormous
block; we compile a sample of ``sample_neurons`` neurons and scale the
schedule length by ``num_neurons / sample``.  This is conservative for the
merging experiments (merging across more neurons can only help more).

**Positions and packing.**  One pass of the compiled schedule processes one
2m-bit operand set.  Conv layers (and dense blocks applied per-patch /
per-channel, positions > 1) fill the bit-lanes with the patches of a single
image: ``ceil(positions / 2m)`` passes per image.  Dense layers with a
single application fill the lanes with different images of a batch, so a
pass amortizes over 2m images (Section IV describes both packings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.compiler import compile_ffcl
from ..core.config import LPUConfig
from ..netlist import cells
from ..netlist.compose import merge_parallel
from ..netlist.graph import LogicGraph
from ..nullanet.ffcl import minimize_table, neuron_truth_table
from ..synth.factoring import factored_graph
from ..synth.truth_table import Cube, TruthTable, sop_to_graph
from .layers import LayerWorkload, ModelWorkload

#: Neuron graphs are cached by (fan_in, seed): workload generation is a hot
#: path in the parameter sweeps.
_NEURON_CACHE: Dict[Tuple[int, int], LogicGraph] = {}

#: Fan-in bound for exact threshold-function enumeration.
_MAX_ENUM_FAN_IN = 12


#: Fraction of a neuron's input patterns observed in "training data": the
#: rest are don't-cares, which NullaNet's minimization exploits (its core
#: optimization — without it, per-neuron logic is near worst case).
DEFAULT_CARE_FRACTION = 0.25


def threshold_neuron_table(
    fan_in: int,
    seed: int,
    care_fraction: float = DEFAULT_CARE_FRACTION,
) -> TruthTable:
    """The truth table of a random bipolar threshold function, with
    don't-cares mined from a simulated observed-pattern set
    (``care_fraction`` of all patterns)."""
    if fan_in > _MAX_ENUM_FAN_IN:
        raise ValueError(f"fan-in {fan_in} too wide to enumerate")
    rng = np.random.default_rng(seed)
    weights = rng.choice([-1.0, 1.0], size=fan_in)
    # Random threshold inside the achievable range keeps the function
    # non-constant with high probability.
    bias = float(rng.integers(-fan_in // 2, fan_in // 2 + 1))
    observed = None
    if care_fraction < 1.0:
        count = max(4, int((1 << fan_in) * care_fraction))
        observed = rng.integers(0, 2, size=(count, fan_in), dtype=np.int8)
    return neuron_truth_table(weights, bias, observed)


def threshold_neuron_graph(
    fan_in: int,
    seed: int,
    style: str = "sop",
    care_fraction: float = DEFAULT_CARE_FRACTION,
) -> LogicGraph:
    """A real binarized-neuron function: :func:`threshold_neuron_table`,
    minimized (inputs named x0..x{fan_in-1}).

    ``style`` selects the multi-level construction: ``"sop"`` builds the
    flat two-level AND-OR form with balanced trees (depth ~ log2(cubes) +
    log2(literals), the shape NullaNet's depth-optimized mapping targets),
    ``"factored"`` the quick-factored form (fewer gates, much deeper —
    threshold functions factor poorly, so the chains are long).
    """
    cover = minimize_table(threshold_neuron_table(fan_in, seed, care_fraction))
    name = f"thr{fan_in}_{seed}"
    if style == "factored":
        return factored_graph(
            cover, num_vars=fan_in, name=name, output_name="y"
        )
    return sop_to_graph(cover, num_vars=fan_in, name=name, output_name="y")


def synthetic_sop_neuron_graph(
    fan_in: int,
    seed: int,
    cubes_per_neuron: Optional[int] = None,
    max_literals: int = 12,
) -> LogicGraph:
    """Calibrated synthetic neuron for non-enumerable fan-ins: a random
    minimized-SOP-like cover, factored into multi-level logic."""
    rng = np.random.default_rng(seed)
    num_cubes = cubes_per_neuron or max(6, min(48, fan_in))
    cover: List[Cube] = []
    seen = set()
    for _ in range(num_cubes):
        k = int(rng.integers(3, min(max_literals, fan_in) + 1))
        variables = rng.choice(fan_in, size=k, replace=False)
        mask = 0
        value = 0
        for v in variables:
            mask |= 1 << int(v)
            if rng.random() < 0.5:
                value |= 1 << int(v)
        if (mask, value) in seen:
            continue
        seen.add((mask, value))
        cover.append(Cube(mask, value))
    return sop_to_graph(
        cover, num_vars=fan_in, name=f"sop{fan_in}_{seed}", output_name="y"
    )


def neuron_graph(fan_in: int, seed: int) -> LogicGraph:
    """Neuron logic for any fan-in (cached).

    Degenerate draws (a neuron whose care set collapses it to a constant)
    are re-rolled, as a training flow would discard dead neurons.
    """
    key = (fan_in, seed)
    if key not in _NEURON_CACHE:
        attempt = seed
        for _ in range(8):
            if fan_in <= _MAX_ENUM_FAN_IN:
                graph = threshold_neuron_graph(fan_in, attempt)
            else:
                graph = synthetic_sop_neuron_graph(fan_in, attempt)
            if graph.num_gates > 0:
                break
            attempt += 7919
        _NEURON_CACHE[key] = graph
    return _NEURON_CACHE[key]


def layer_block(
    layer: LayerWorkload,
    sample_neurons: int = 8,
    seed: int = 0,
) -> Tuple[LogicGraph, int]:
    """Build the FFCL block for a sample of a layer's neurons.

    Each sampled neuron connects to a random support of ``layer.fan_in``
    bits out of the layer's ``input_bits``-wide input space (NullaNet-Tiny
    sparse connectivity).  Returns (block graph, neurons sampled).
    """
    sample = min(sample_neurons, layer.num_neurons)
    rng = np.random.default_rng(seed ^ hash(layer.name) & 0xFFFF)
    graphs = []
    for j in range(sample):
        base = neuron_graph(layer.fan_in, seed * 1009 + j)
        support = rng.choice(layer.input_bits, size=layer.fan_in, replace=False)
        mapping = {
            f"x{i}": f"in{int(support[i])}" for i in range(layer.fan_in)
        }
        # One rebuild: PIs renamed onto the support, gates unnamed, and one
        # PO named after the neuron (merge_parallel needs unique PO names).
        renamed = LogicGraph(f"{layer.name}_n{j}")
        remap: Dict[int, int] = {}
        for nid in base.topological_order():
            node = base.nodes[nid]
            if node.op == cells.INPUT:
                remap[nid] = renamed.add_input(mapping[node.name])
            elif node.op in (cells.CONST0, cells.CONST1):
                remap[nid] = renamed.add_const(1 if node.op == cells.CONST1 else 0)
            else:
                remap[nid] = renamed.add_gate(
                    node.op, *(remap[f] for f in node.fanins)
                )
        renamed.set_output(f"{layer.name}_n{j}", remap[base.outputs[0][1]])
        graphs.append(renamed)
    block = merge_parallel(graphs, name=f"{layer.name}_block")
    return block, sample


@dataclass
class LayerEvaluation:
    """LPU cost of one layer (per image)."""

    layer: LayerWorkload
    sampled_neurons: int
    scale: float  # num_neurons / sampled
    makespan_sample: int  # macro-cycles of the sampled block
    makespan_full: int  # scaled to all neurons
    mfgs_before_merge: int
    mfgs_after_merge: int
    passes_per_image: int
    cycles_per_image: float  # macro-cycles, amortized for batched dense

    @property
    def mfgs_full(self) -> float:
        return self.mfgs_after_merge * self.scale


@dataclass
class ModelEvaluation:
    """LPU cost and throughput of a whole model."""

    model: ModelWorkload
    config: LPUConfig
    merged: bool
    layers: List[LayerEvaluation]

    @property
    def total_cycles_per_image(self) -> float:
        return sum(l.cycles_per_image for l in self.layers)

    @property
    def total_mfgs(self) -> float:
        return sum(l.mfgs_full for l in self.layers)

    @property
    def fps(self) -> float:
        cycles = self.total_cycles_per_image
        if cycles <= 0:
            return float("inf")
        return self.config.frequency_hz / (self.config.t_c * cycles)

    @property
    def latency_seconds(self) -> float:
        return self.total_cycles_per_image * self.config.t_c / self.config.frequency_hz


#: Compiled-block cache: the schedule length of a sampled block depends on
#: the block structure and the LPU parameters only, so layers with the same
#: (fan-in, input width, sample, seed) — e.g. repeated mixer blocks — share
#: one compilation.
_EVAL_CACHE: Dict[Tuple, Tuple[int, int, int]] = {}


def _compile_block_cached(
    layer: LayerWorkload,
    config: LPUConfig,
    merge: bool,
    policy: str,
    sample_neurons: int,
    seed: int,
) -> Tuple[int, int, int, int]:
    """(sampled, makespan, mfgs_before, mfgs_after) with caching."""
    sample = min(sample_neurons, layer.num_neurons)
    key = (
        layer.fan_in, layer.input_bits, sample, seed,
        config.num_lpvs, config.lpes_per_lpv, merge, policy,
    )
    # The schedule length of a sampled block is determined (up to the
    # random support draw, which only shifts PI sharing marginally) by the
    # neuron fan-in, the input width, and the LPU parameters — so blocks of
    # identically-shaped layers share one compilation.
    if key not in _EVAL_CACHE:
        block, sample = layer_block(layer, sample_neurons, seed)
        result = compile_ffcl(
            block, config, merge=merge, policy=policy, generate_code=False
        )
        _EVAL_CACHE[key] = (
            result.schedule.makespan,
            result.metrics.mfgs_before_merge,
            result.metrics.mfgs_after_merge,
        )
    makespan, before, after = _EVAL_CACHE[key]
    return sample, makespan, before, after


def evaluate_layer(
    layer: LayerWorkload,
    config: LPUConfig,
    merge: bool = True,
    policy: str = "pipelined",
    sample_neurons: int = 8,
    seed: int = 0,
) -> LayerEvaluation:
    """Compile one layer's sampled FFCL block and scale to the full layer."""
    sample, makespan_sample, mfgs_before, mfgs_after = _compile_block_cached(
        layer, config, merge, policy, sample_neurons, seed
    )
    scale = layer.num_neurons / sample
    makespan_full = int(math.ceil(makespan_sample * scale))
    word_bits = config.word_bits
    passes = max(1, math.ceil(layer.positions / word_bits))
    if layer.positions == 1:
        # Batch packing: one pass serves word_bits images.
        cycles = makespan_full / word_bits
    else:
        cycles = float(makespan_full * passes)
    return LayerEvaluation(
        layer=layer,
        sampled_neurons=sample,
        scale=scale,
        makespan_sample=makespan_sample,
        makespan_full=makespan_full,
        mfgs_before_merge=mfgs_before,
        mfgs_after_merge=mfgs_after,
        passes_per_image=passes,
        cycles_per_image=cycles,
    )


def evaluate_model(
    model: ModelWorkload,
    config: LPUConfig,
    merge: bool = True,
    policy: str = "pipelined",
    sample_neurons: int = 8,
    seed: int = 0,
    layers: Optional[Sequence[LayerWorkload]] = None,
) -> ModelEvaluation:
    """Evaluate every layer (or a subset) of a model on the LPU."""
    chosen = list(layers) if layers is not None else list(model.layers)
    evaluations = [
        evaluate_layer(
            l, config, merge=merge, policy=policy,
            sample_neurons=sample_neurons, seed=seed,
        )
        for l in chosen
    ]
    return ModelEvaluation(
        model=model, config=config, merged=merge, layers=evaluations
    )
