"""The shared inputs: nine generated programs, their recorded
fingerprints, seeded stimuli, and the oracle every result is judged by.

The corpus is a fixed draw (``--corpus-seed``, default 0): its gate
counts decide compile time, artifact bytes and macro-cycles, so letting
``--seed`` redraw it would swamp every bound (sum of artifact bytes
moves 250k..359k over ten draws).  ``--seed`` draws the stimuli and
streams instead, which the engines' speed does not depend on.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import numpy as np

from repro.compiler import PassCache, graph_fingerprint
from repro.core import (
    PAPER_CONFIG,
    clear_fanout_cache,
    clear_fusion_cache,
    clear_lowering_cache,
    compile_ffcl,
)
from repro.lpu import evaluate_graph, random_stimulus
from repro.models import all_models, layer_block, nid_workload
from repro.netlist import random_dag
from repro.netlist.compose import merge_parallel

MODEL_SLUGS = ("vgg16", "lenet5", "mixer_s4", "mixer_b4", "nid", "jsc_m", "jsc_l")
SLUGS = MODEL_SLUGS + ("nid_stack", "dag24k")
WORD = 64  # samples in one packed word
SERVING_PROGRAM = "vgg16"
STREAM_PROGRAM = "nid_stack"

FINGERPRINTS = os.path.join(os.path.dirname(__file__), "corpus_fingerprints.json")

_STAT_FIELDS = (
    "macro_cycles", "clock_cycles", "compute_instructions_executed",
    "switch_routes", "peak_buffer_words", "buffer_writes",
)


def build_graphs(slugs: Sequence[str], corpus_seed: int) -> Dict[str, object]:
    """Generate the named corpus programs (source netlists)."""
    graphs: Dict[str, object] = {}
    for slug, model in zip(MODEL_SLUGS, all_models()):
        if slug in slugs:
            layer = max(model.layers, key=lambda l: l.num_neurons)
            graphs[slug] = layer_block(
                layer, sample_neurons=6, seed=corpus_seed
            )[0]
    if "nid_stack" in slugs:
        nid = nid_workload()
        graphs["nid_stack"] = merge_parallel(
            [
                layer_block(
                    nid.layers[i], sample_neurons=100, seed=corpus_seed + i
                )[0]
                for i in range(3)
            ],
            name="nid_stack",
        )
    if "dag24k" in slugs:
        graphs["dag24k"] = random_dag(16, 24000, 8, seed=corpus_seed + 1)
    return {slug: graphs[slug] for slug in SLUGS if slug in graphs}


def check_fingerprints(graphs: Dict[str, object], corpus_seed: int):
    """Fingerprint every program (``graph_fingerprint`` of the source, the
    value artifacts carry as ``workload_fingerprint``) and compare with
    the recorded draw; returns ``(fingerprints, whether one was recorded)``.

    ``layer_block`` seeds its support draw with ``hash(layer.name)``, so
    the same seed gives different programs unless ``PYTHONHASHSEED`` is
    pinned; a mismatch means the run would measure other inputs than the
    ones every earlier run measured, so it raises."""
    found = {slug: graph_fingerprint(graph) for slug, graph in graphs.items()}
    with open(FINGERPRINTS) as handle:
        recorded = json.load(handle).get(str(corpus_seed))
    if recorded is None:
        return found, False
    wrong = {
        slug: (fp, recorded.get(slug))
        for slug, fp in found.items()
        if recorded.get(slug) != fp
    }
    if wrong:
        raise RuntimeError(
            f"corpus fingerprints differ from the recorded draw for "
            f"corpus seed {corpus_seed}: {wrong}"
        )
    return found, True


def compile_cold(graph):
    """One cold compile: no pass cache to hit, no lowered tables."""
    clear_lowering_cache()
    clear_fusion_cache()
    clear_fanout_cache()
    return compile_ffcl(graph, PAPER_CONFIG, pass_cache=PassCache())


def stimuli(graph, words: int, count: int, seed: int) -> List[Dict[str, np.ndarray]]:
    return [
        random_stimulus(graph, array_size=words, seed=seed * 1000 + index)
        for index in range(count)
    ]


def stats_key(result):
    return tuple(int(getattr(result, name)) for name in _STAT_FIELDS)


def same_result(a, b) -> bool:
    """Outputs and all six run statistics equal."""
    return stats_key(a) == stats_key(b) and all(
        (a.outputs[name] == word).all() for name, word in b.outputs.items()
    )


#: most words one oracle call evaluates (it holds every node's words)
ORACLE_WORDS = 1024


def count_wrong(graph, kept) -> int:
    """How many kept ``(inputs, result)`` pairs the oracle rejects.

    The oracle is bit-parallel over words, so each distinct stimulus is
    evaluated once, however many results it produced, and stimuli are
    concatenated into calls of up to :data:`ORACLE_WORDS` words."""
    first = graph.input_name(graph.inputs[0])
    distinct = {id(inputs): inputs for inputs, _ in kept}
    reference: Dict[int, Dict[str, np.ndarray]] = {}
    chunk: List[Dict[str, np.ndarray]] = []

    def flush() -> None:
        merged = {
            name: np.concatenate([np.asarray(inp[name]).reshape(-1) for inp in chunk])
            for name in chunk[0]
        }
        outputs = evaluate_graph(graph, merged)
        offset = 0
        for inp in chunk:
            size = np.asarray(inp[first]).size
            reference[id(inp)] = {
                name: words[offset:offset + size] for name, words in outputs.items()
            }
            offset += size
        chunk.clear()

    words = 0
    for inputs in distinct.values():
        size = np.asarray(inputs[first]).size
        if chunk and words + size > ORACLE_WORDS:
            flush()
            words = 0
        chunk.append(inputs)
        words += size
    if chunk:
        flush()
    wrong = 0
    for inputs, result in kept:
        expected = reference[id(inputs)]
        if set(expected) != set(result.outputs) or not all(
            np.array_equal(np.asarray(result.outputs[name]).reshape(-1), word)
            for name, word in expected.items()
        ):
            wrong += 1
    return wrong
