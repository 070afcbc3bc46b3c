"""Layer probes of the traced run: the rungs no workload's own loop
times — engine variants on one program, the delta engine without the
stream server, the pipeline executor and the cycle model.

Each returns ``(metrics, attempted, wrong)``; results are checked against
the oracle or the reference path like any other.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.artifact import bundle_model
from repro.core import PAPER_CONFIG
from repro.engine import Session
from repro.models import all_models, evaluate_model
from repro.netlist import random_dag
from repro.pipeline import PipelineExecutor, SerialChainRunner
from repro.serve import make_stream

import corpus
from corpus import WORD, same_result
from measure import all_cpus, median, median_seconds, memcpy_gb_per_s, now

Probe = Tuple[Dict[str, float], int, int]


def engine(ctx, sessions, stimuli) -> Probe:
    """The fused engine at three batch sizes on the serving program, the
    other engines beside it, the widest level and the host copy rate.
    ``sessions`` and ``stimuli`` are ``kernel_batch``'s: a booted fused
    session and two 1024-word stimuli per program."""
    scale = 0.2 if ctx.smoke else 1.0
    slug = corpus.SERVING_PROGRAM
    graph = ctx.graphs[slug]
    fused = sessions[slug]
    artifact = fused.artifact
    out: Dict[str, float] = {}
    wrong = 0
    for words, repeats in ((1, 400), (32, 200), (1024, 40)):
        stim = corpus.stimuli(graph, words, 1, ctx.seed)[0]
        fused.run(stim)
        out[f"engine.fused.run_us.w{words}"] = 1e6 * median_seconds(
            fused.run, stim, max(3, int(repeats * scale)))
    wide = stimuli[slug][0]
    reference = fused.run(wide)
    for name in ("native", "trace"):
        with all_cpus(ctx.cpus):  # native shards the words over a thread pool
            session = Session(artifact, engine=name)
            wrong += 0 if same_result(session.run(wide), reference) else 1
            seconds = median_seconds(session.run, wide, max(3, int(20 * scale)))
        out[f"engine.{name}.msamples_per_s"] = 1024 * WORD / seconds / 1e6
    one = corpus.stimuli(graph, 1, 1, ctx.seed)[0]
    cycle = Session(artifact, engine="cycle")
    by_cycle = cycle.run(one)
    wrong += 0 if same_result(by_cycle, fused.run(one)) else 1
    wrong += corpus.count_wrong(graph, [(one, by_cycle)])
    out["engine.cycle.run_ms.w1"] = 1e3 * median_seconds(
        cycle.run, one, max(3, int(10 * scale)))
    # the heaviest program's slowest level, per run, through the timed
    # variant of the generated kernel
    repeats = max(1, int(5 * scale))
    levels = sessions["dag24k"].engine.profile_levels(
        stimuli["dag24k"][0], repeats=repeats)
    out["engine.fused.level_us_max"] = (
        max(level["seconds"] for level in levels) / repeats * 1e6)
    out["host.memcpy_gb_per_s"] = memcpy_gb_per_s(16 if ctx.smoke else 64)
    return out, 4, wrong


def delta(ctx, artifact, sparse_stream) -> Probe:
    """One delta engine driven directly (no server, no worker hop) over
    ``stream_sparse``'s 1-bit-flip stream and over independent random
    steps; ``artifact`` is the stream program with its fanout tables."""
    graph = ctx.graphs[corpus.STREAM_PROGRAM]
    count = 64 if ctx.smoke else 256
    out: Dict[str, float] = {}
    attempted = wrong = 0
    for label, steps in (
        ("sparse", sparse_stream[:count]),
        ("dense", make_stream(graph, steps=count // 4, random_stream=True,
                              seed=ctx.seed + 1)),
    ):
        session = Session(artifact, engine="delta")
        session.run(steps[0])
        times = []
        results = []
        for step in steps[1:]:
            start = now()
            results.append(session.run(step))
            times.append(now() - start)
        out[f"engine.delta.{label}_step_us"] = median(times) * 1e6
        attempted += len(results)
        wrong += corpus.count_wrong(graph, list(zip(steps[1:], results)))
    return out, attempted, wrong


def pipeline(ctx) -> Probe:
    """Serial chain against the stage-overlapped executor on a 4-stage
    bundle of 800-gate random blocks, 2048 words per batch, depth 4."""
    stages, width, words = 4, 8, 2048
    batches = 4 if ctx.smoke else 16
    bundle = bundle_model(
        [random_dag(width, 800, width, seed=ctx.corpus_seed + i)
         for i in range(stages)],
        PAPER_CONFIG,
        wirings=[{f"x{j}": f"y{j}" for j in range(width)}] * (stages - 1),
        name="bench_pipeline",
    )
    graph = bundle.reference_graph()
    stims = corpus.stimuli(graph, words, batches, ctx.seed)
    runner = SerialChainRunner(bundle)
    runner.run(stims[0])
    start = now()
    serial = [runner.run(stim) for stim in stims]
    serial_s = now() - start
    with all_cpus(ctx.cpus):  # one thread per stage
        executor = PipelineExecutor(bundle, depth=4)
        try:
            executor.run(stims[0])
            executor.reset_stats()
            start = now()
            piped = executor.map(stims)
            piped_s = now() - start
            stats = executor.stats()
        finally:
            executor.close()
    wrong = sum(0 if same_result(a, b) else 1 for a, b in zip(piped, serial))
    wrong += corpus.count_wrong(graph, [(stims[0], piped[0])])
    out = {
        "pipeline.serial.batches_per_s": batches / serial_s,
        "pipeline.exec.batches_per_s": batches / piped_s,
        "pipeline.exec.stage_busy_frac": median(
            stage["busy_fraction"] for stage in stats["stages"]),
    }
    return out, batches + 1, wrong


def lpu_model() -> Dict[str, float]:
    """The paper's cycle model per whole benchmark model (simulated)."""
    return {
        f"lpu.model.cycles_per_image.{slug}": evaluate_model(
            model, PAPER_CONFIG).total_cycles_per_image
        for slug, model in zip(corpus.MODEL_SLUGS, all_models())
    }
