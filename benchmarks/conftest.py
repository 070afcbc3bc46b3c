"""Shared helpers for the paper-artefact benches.

Every bench here regenerates one of the paper's tables, figures or
ablations (plus ``bench_fault_recovery.py``, the chaos run CI's
chaos-smoke job drives): it computes the experiment data (cached at
module scope), times the core kernel with pytest-benchmark, renders the
table/series, prints it, and archives it under ``benchmarks/results/``.
How fast the stack runs is measured elsewhere, by ``python3 bench/run.py``
(see ``bench/README.md``).

Setting ``REPRO_BENCH_FAST=1`` (CI's chaos-smoke job) shrinks the chaos
bench to smoke-test proportions; machine-readable results are archived as
JSON next to the text tables so CI can upload them as artifacts.
"""

import json
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def fast_mode() -> bool:
    """True when benches should run at CI smoke-test scale."""
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def publish(name: str, text: str) -> None:
    """Print a rendered table/figure and archive it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def publish_json(name: str, data) -> None:
    """Archive a machine-readable result (uploaded as a CI artifact)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"[json] {path}")
