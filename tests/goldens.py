"""Artifact identities recorded at the commit before the live-cone front
end (PR 15), and the code that recomputes them.

``python tests/goldens.py`` prints ``{name: {"sha256", "fingerprint"}}``
for every graph in :func:`graphs`; ``front_end_goldens.json`` is that
output at the parent commit.  The model blocks draw their supports from
``hash(layer.name)``, so the test runs this file in a child process with
``PYTHONHASHSEED=0``, as the recording did.  The artifact header names
its producer (``repro <version>``), so the child pins the version to the
recording's.
"""

import hashlib
import json
import os

PRODUCER_VERSION = "1.10.0"
GOLDENS = os.path.join(os.path.dirname(__file__), "front_end_goldens.json")

#: the hypothesis family of ``TestPassCache.test_cache_hits_are_bit_identical``
FAMILY_SEEDS = range(7)


def graphs():
    """name -> (graph, compile kwargs): seeded ``random_dag`` draws and
    one block per ``all_models()`` workload."""
    from repro.models import all_models, layer_block
    from repro.netlist import random_dag

    found = {
        "dag_s11": (random_dag(8, 300, 4, seed=11), {}),
        "dag_chains": (random_dag(6, 400, 3, seed=2, locality=6), {}),
        "dag_dead_heavy": (random_dag(8, 4000, 2, seed=3), {}),
    }
    for seed in FAMILY_SEEDS:
        found[f"family_s{seed}"] = (
            random_dag(6, 150, 3, seed=seed),
            {
                "merge": seed % 2 == 0,
                "policy": "sequential" if seed % 3 == 0 else "pipelined",
            },
        )
    for model in all_models():
        layer = min(model.layers, key=lambda l: (l.fan_in, l.num_neurons))
        block, _ = layer_block(layer, sample_neurons=2, seed=0)
        found[f"model_{model.name}"] = (block, {})
    return found


def identity(graph, kwargs):
    from repro.core import compile_ffcl

    artifact = compile_ffcl(graph, **kwargs).to_artifact()
    return {
        "sha256": hashlib.sha256(artifact.to_bytes()).hexdigest(),
        "fingerprint": artifact.fingerprint,
    }


if __name__ == "__main__":
    import repro

    repro.__version__ = PRODUCER_VERSION
    print(json.dumps(
        {name: identity(*entry) for name, entry in graphs().items()},
        indent=1,
    ))
