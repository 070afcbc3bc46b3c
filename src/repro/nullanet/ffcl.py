"""FFCL extraction: binarized neurons -> minimized multi-level logic.

This is the NullaNet step the paper uses as its "upper stream engine"
(Section III): every binarized neuron is a threshold function of its
Boolean fan-in (see :mod:`repro.nullanet.binarize`); enumerating it yields a
truth table; input patterns never observed in the training data become
don't-cares (NullaNet's key optimization); two-level minimization plus
algebraic factoring produce the fixed-function combinational logic block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..netlist.compose import merge_parallel
from ..netlist.graph import LogicGraph
from ..synth.espresso import espresso_minimize
from ..synth.factoring import factored_graph
from ..synth.quine_mccluskey import MAX_QM_VARS, minimize as qm_minimize
from ..synth.truth_table import Cube, TruthTable
from .binarize import neuron_threshold
from .mlp import BinaryMLP

#: Above this fan-in, enumeration is refused (NullaNet-Tiny keeps neuron
#: fan-ins small by construction; our sparse training mask does the same).
MAX_NEURON_FAN_IN = 16


@dataclass
class NeuronFunction:
    """One extracted neuron: its truth table and minimized cover."""

    layer: int
    index: int
    support: np.ndarray  # indices of the inputs it reads
    table: TruthTable
    cover: List[Cube]

    @property
    def fan_in(self) -> int:
        return int(self.support.size)

    @property
    def num_cubes(self) -> int:
        return len(self.cover)


def neuron_truth_table(
    weights: np.ndarray,
    bias: float,
    observed_patterns: Optional[np.ndarray] = None,
) -> TruthTable:
    """Enumerate a bipolar neuron restricted to its support.

    ``weights`` must already be restricted to the neuron's fan-in (no
    zeros).  ``observed_patterns`` (rows of {0,1}, same width) marks the
    care set: unobserved input patterns become don't-cares.
    """
    k = int(weights.size)
    if k > MAX_NEURON_FAN_IN:
        raise ValueError(
            f"neuron fan-in {k} exceeds enumerable bound {MAX_NEURON_FAN_IN}"
        )
    folded_w, threshold = neuron_threshold(weights, bias)
    size = 1 << k
    idx = np.arange(size, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(k)) & 1  # row i = minterm i
    fires = bits.astype(np.float64) @ folded_w >= threshold - 1e-12

    care = None
    if observed_patterns is not None:
        pattern_ids = (
            observed_patterns.astype(np.int64) @ (1 << np.arange(k))
        )
        care = np.zeros(size, dtype=bool)
        care[np.unique(pattern_ids)] = True
    return TruthTable(k, fires, care)


def minimize_table(table: TruthTable) -> List[Cube]:
    """Exact minimization when affordable, Espresso otherwise.

    Quine-McCluskey's prime-implicant count explodes on don't-care-rich
    tables (exactly the tables NullaNet produces), so exact minimization is
    reserved for small, mostly-specified functions.
    """
    dc_fraction = float(np.count_nonzero(~table.care_bits)) / max(
        1, table.size
    )
    if table.num_vars <= min(MAX_QM_VARS, 8) and dc_fraction <= 0.4:
        return qm_minimize(table)
    if table.num_vars <= 6:  # tiny tables are always safe for QM
        return qm_minimize(table)
    return espresso_minimize(table)


def extract_neuron(
    model: BinaryMLP,
    layer: int,
    neuron: int,
    observed_inputs: Optional[np.ndarray] = None,
) -> NeuronFunction:
    """Extract one neuron of ``model`` as a minimized Boolean function.

    ``observed_inputs``: {0,1} activations of the layer's *input* space on
    the training set (rows x features); used for don't-care mining.
    """
    support = model.neuron_connectivity(layer, neuron)
    weights = model.effective_weights(layer)[support, neuron]
    bias = float(model.biases[layer][neuron])
    observed = (
        observed_inputs[:, support] if observed_inputs is not None else None
    )
    table = neuron_truth_table(weights, bias, observed)
    cover = minimize_table(table)
    return NeuronFunction(
        layer=layer, index=neuron, support=support, table=table, cover=cover
    )


def neuron_to_graph(
    func: NeuronFunction,
    input_names: Sequence[str],
    output_name: str,
) -> LogicGraph:
    """Factor a neuron's cover into a multi-level two-input logic graph."""
    names = [input_names[i] for i in func.support]
    return factored_graph(
        func.cover,
        num_vars=func.fan_in,
        input_names=names,
        name=f"neuron_l{func.layer}_n{func.index}",
        output_name=output_name,
    )


def layer_to_graph(
    model: BinaryMLP,
    layer: int,
    observed_inputs: Optional[np.ndarray] = None,
    input_names: Optional[Sequence[str]] = None,
    output_prefix: Optional[str] = None,
    neurons: Optional[Sequence[int]] = None,
) -> LogicGraph:
    """Extract a whole layer as one multi-output FFCL block.

    ``neurons`` restricts extraction to a subset (used for sampled scaling
    of very wide layers); defaults to all neurons of the layer.
    """
    width = model.layer_specs[layer].width
    chosen = list(neurons) if neurons is not None else list(range(width))
    num_in = model.weights[layer].shape[0]
    if input_names is None:
        input_names = [f"l{layer}_i{i}" for i in range(num_in)]
    prefix = output_prefix or f"l{layer}_o"

    graphs = []
    for j in chosen:
        func = extract_neuron(model, layer, j, observed_inputs)
        graphs.append(neuron_to_graph(func, input_names, f"{prefix}{j}"))
    block = merge_parallel(graphs, name=f"layer{layer}", share_inputs=True)
    return block


def evaluate_ffcl_layer(
    graph: LogicGraph,
    x_bits: np.ndarray,
    input_names: Sequence[str],
    output_names: Sequence[str],
) -> np.ndarray:
    """Evaluate an extracted layer on {0,1} rows; returns {0,1} outputs.

    Packs samples into uint64 lanes, so the cost is one graph evaluation
    per 64 samples.
    """
    count = x_bits.shape[0]
    words = (count + 63) // 64
    packed = {}
    for i, name in enumerate(input_names):
        col = np.zeros(words * 64, dtype=np.uint64)
        col[:count] = x_bits[:, i].astype(np.uint64)
        lanes = col.reshape(words, 64) << np.arange(64, dtype=np.uint64)
        packed[name] = np.bitwise_or.reduce(lanes, axis=1)
    # PIs of the graph may be a subset of input_names (pruned logic).
    graph_inputs = {graph.input_name(nid) for nid in graph.inputs}
    stimulus = {n: w for n, w in packed.items() if n in graph_inputs}
    outs = graph.evaluate(stimulus)
    result = np.zeros((count, len(output_names)), dtype=np.int8)
    for j, name in enumerate(output_names):
        lanes = (
            outs[name][:, None] >> np.arange(64, dtype=np.uint64)
        ) & np.uint64(1)
        result[:, j] = lanes.reshape(-1)[:count].astype(np.int8)
    return result
