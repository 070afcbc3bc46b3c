"""Tests for the pass-manager compile pipeline (repro.compiler).

The load-bearing properties:

* the ``paper`` pipeline (and therefore the ``preprocess``/``compile_ffcl``
  facades, which now run through the pass manager) is **bit-identical** to
  the pre-refactor monolithic call chain — reconstructed here from the raw
  stage functions — for every model workload and every option combination,
* the per-MFG codegen equals the sequential reference generator
  (``tests/codegen_reference.py``),
* pass-level cache hits return identical artifacts, and pipelines sharing
  a prefix reuse it,
* the merge pass leaves the unmerged partition pristine,
* the serving-layer ProgramCache keys include the pipeline identity.
"""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from codegen_reference import generate_program
from repro.compiler import (
    PassCache,
    PassManager,
    PIPELINES,
    available_passes,
    compile_with_pipeline,
    format_pass_report,
    generate_program_parallel,
    graph_fingerprint,
    pipeline_from_options,
    pipeline_id,
    resolve_pipeline,
)
from repro.compiler.state import PipelineError
from repro.core import LPUConfig, compile_ffcl
from repro.core.merge import clone_partition, merge_partition
from repro.core.metrics import CompileMetrics
from repro.core.partition import partition
from repro.core.schedule import build_schedule
from repro.models import (
    jsc_l_workload,
    jsc_m_workload,
    layer_block,
    lenet5_workload,
    mlpmixer_b4_workload,
    mlpmixer_s4_workload,
    nid_workload,
    vgg16_workload,
)
from repro.netlist import cells, random_dag, random_tree
from repro.serve.cache import ProgramCache
from repro.synth.balance import balance
from repro.synth.levelize import is_levelized_strict, levelize
from repro.synth.pipeline import PreprocessReport, PreprocessResult, preprocess
from repro.synth.rebalance import balance_trees
from repro.synth.simplify import simplify
from repro.synth.techmap import map_to_basis

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TINY = LPUConfig(num_lpvs=2, lpes_per_lpv=4)

MODEL_FACTORIES = [
    vgg16_workload,
    lenet5_workload,
    mlpmixer_s4_workload,
    mlpmixer_b4_workload,
    nid_workload,
    jsc_m_workload,
    jsc_l_workload,
]


# ----------------------------------------------------------------------
# The pre-refactor reference implementations, composed from the raw stage
# functions exactly as the monolithic facades did before the pass manager.
# ----------------------------------------------------------------------
def reference_preprocess(graph, basis=None, optimize=True):
    gates_in = graph.num_gates
    depth_in = graph.depth()
    if optimize:
        g = balance_trees(graph)
        g = simplify(g)
        g = balance_trees(g)
        g = simplify(g)
    else:
        g = graph.extract()
    gates_simplified = g.num_gates
    if basis is not None:
        g = map_to_basis(g, basis)
    gates_mapped = g.num_gates
    balanced, bal_report = balance(g)
    assert is_levelized_strict(balanced)
    lv = levelize(balanced)
    report = PreprocessReport(
        gates_in=gates_in,
        gates_after_simplify=gates_simplified,
        gates_after_mapping=gates_mapped,
        gates_out=balanced.num_gates,
        depth_in=depth_in,
        depth_out=lv.max_level,
        balance=bal_report,
    )
    return PreprocessResult(graph=balanced, levels=lv, report=report)


def reference_compile(
    graph,
    config,
    merge=True,
    policy="pipelined",
    optimize=True,
    generate_code=True,
    basis=None,
):
    pre = reference_preprocess(graph, basis=basis, optimize=optimize)
    part_unmerged = partition(pre.graph, config.m)
    part = merge_partition(part_unmerged) if merge else part_unmerged
    schedule = build_schedule(part, config, policy=policy)
    program = (
        generate_program(schedule, pre.graph, config) if generate_code else None
    )
    metrics = CompileMetrics(
        name=graph.name,
        num_inputs=graph.num_inputs,
        num_outputs=graph.num_outputs,
        gates_source=graph.num_gates,
        gates_balanced=pre.graph.num_gates,
        buffers_inserted=pre.report.balance.buffers_inserted,
        depth=pre.levels.max_level,
        mfgs_before_merge=part_unmerged.num_mfgs,
        mfgs_after_merge=part.num_mfgs,
        policy=policy,
        makespan_macro_cycles=schedule.makespan,
        total_clock_cycles=schedule.total_clock_cycles,
        queue_depth=schedule.queue_depth,
        circulations=schedule.circulations,
        latency_seconds=config.macro_cycles_to_seconds(schedule.makespan),
        fps=config.fps(schedule.makespan),
        compute_instructions=(
            program.num_compute_instructions if program else None
        ),
        queue_entries=program.num_queue_entries if program else None,
        peak_buffer_words=program.peak_buffer_words if program else None,
    )
    return pre, program, metrics


def assert_programs_identical(a, b):
    if a is None or b is None:
        assert a is b
        return
    for name, x, y in zip(a.tables._fields, a.tables, b.tables):
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.queues == b.queues
    assert a.input_reads == b.input_reads
    assert a.circulation_reads == b.circulation_reads
    assert a.buffer_writes == b.buffer_writes
    assert a.po_nodes == b.po_nodes
    assert a.po_buffer_keys == b.po_buffer_keys
    assert a.peak_buffer_words == b.peak_buffer_words
    assert a.buffer_spills == b.buffer_spills


def model_block(factory, sample_neurons=2, seed=0):
    model = factory()
    layer = min(model.layers, key=lambda layer: (layer.fan_in, layer.num_neurons))
    block, _ = layer_block(layer, sample_neurons=sample_neurons, seed=seed)
    return block


# ----------------------------------------------------------------------
# Pipeline equivalence: pass manager == pre-refactor chain, bit for bit
# ----------------------------------------------------------------------
class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "factory", MODEL_FACTORIES, ids=lambda f: f.__name__
    )
    def test_paper_pipeline_bit_identical_on_model_workloads(self, factory):
        block = model_block(factory)
        _pre, ref_program, ref_metrics = reference_compile(block, SMALL)
        result = compile_ffcl(block, SMALL)
        assert asdict(ref_metrics) == asdict(result.metrics)
        assert_programs_identical(ref_program, result.program)
        assert asdict(_pre.report) == asdict(result.preprocess.report)

    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("policy", ["pipelined", "sequential"])
    def test_option_matrix_bit_identical(self, merge, policy):
        g = random_dag(8, 300, 4, seed=11)
        for optimize in (True, False):
            for generate_code in (True, False):
                _pre, ref_program, ref_metrics = reference_compile(
                    g,
                    SMALL,
                    merge=merge,
                    policy=policy,
                    optimize=optimize,
                    generate_code=generate_code,
                )
                result = compile_ffcl(
                    g,
                    SMALL,
                    merge=merge,
                    policy=policy,
                    optimize=optimize,
                    generate_code=generate_code,
                )
                assert asdict(ref_metrics) == asdict(result.metrics)
                assert_programs_identical(ref_program, result.program)

    def test_basis_mapping_bit_identical(self):
        basis = frozenset(
            {cells.NAND, cells.NOR, cells.NOT, cells.BUF, cells.AND, cells.OR}
        )
        g = random_dag(6, 200, 3, seed=3)
        _pre, ref_program, ref_metrics = reference_compile(
            g, SMALL, basis=basis
        )
        result = compile_ffcl(g, SMALL, basis=basis)
        assert asdict(ref_metrics) == asdict(result.metrics)
        assert_programs_identical(ref_program, result.program)

    def test_preprocess_facade_bit_identical(self):
        g = random_dag(8, 250, 3, seed=7)
        ref = reference_preprocess(g)
        out = preprocess(g)
        assert asdict(ref.report) == asdict(out.report)
        from repro.netlist.graph import graphs_equivalent

        assert graphs_equivalent(ref.graph, out.graph)

    def test_named_pipeline_matches_option_form(self):
        g = random_dag(8, 200, 3, seed=9)
        via_name = compile_ffcl(g, SMALL, pipeline="no-merge")
        via_kwarg = compile_ffcl(g, SMALL, merge=False)
        assert asdict(via_name.metrics) == asdict(via_kwarg.metrics)
        assert_programs_identical(via_name.program, via_kwarg.program)

    def test_metrics_only_pipeline_skips_codegen(self):
        g = random_dag(6, 150, 3, seed=2)
        result = compile_ffcl(g, SMALL, pipeline="metrics-only")
        assert result.program is None
        assert result.metrics.compute_instructions is None
        assert [r.name for r in result.pass_records] == list(
            PIPELINES["metrics-only"]
        )


# ----------------------------------------------------------------------
# Codegen parity with the sequential reference
# ----------------------------------------------------------------------
class TestParallelCodegen:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_matches_sequential_reference(self, seed):
        g = random_dag(10, 400, 3, seed=seed)
        pre = preprocess(g)
        part = merge_partition(partition(pre.graph, SMALL.m))
        schedule = build_schedule(part, SMALL)
        reference = generate_program(schedule, pre.graph, SMALL)
        parallel = generate_program_parallel(schedule, pre.graph, SMALL)
        assert_programs_identical(reference, parallel)

    def test_deep_circulating_workload_identical(self):
        g = random_tree(256, seed=4)  # depth 8 > n = 2 forces circulation
        pre = preprocess(g)
        part = merge_partition(partition(pre.graph, TINY.m))
        schedule = build_schedule(part, TINY)
        reference = generate_program(schedule, pre.graph, TINY)
        parallel = generate_program_parallel(schedule, pre.graph, TINY)
        assert_programs_identical(reference, parallel)


# ----------------------------------------------------------------------
# Pass registry / pipeline resolution
# ----------------------------------------------------------------------
class TestPipelineResolution:
    def test_registry_contains_standard_passes(self):
        names = available_passes()
        for name in (
            "ingest",
            "rebalance",
            "simplify",
            "techmap",
            "balance",
            "levelize",
            "partition",
            "merge",
            "schedule",
            "codegen",
            "metrics",
        ):
            assert name in names

    def test_resolve_named_and_custom(self):
        assert resolve_pipeline("paper") == PIPELINES["paper"]
        assert resolve_pipeline("ingest, balance ,levelize") == (
            "ingest",
            "balance",
            "levelize",
        )
        assert resolve_pipeline(["ingest", "balance"]) == ("ingest", "balance")

    def test_unknown_pass_rejected(self):
        with pytest.raises(KeyError, match="unknown pass"):
            resolve_pipeline("ingest,frobnicate")
        with pytest.raises(ValueError, match="empty"):
            resolve_pipeline("")

    def test_pipeline_id_distinguishes_pipelines(self):
        assert pipeline_id("paper") != pipeline_id("no-merge")
        assert pipeline_id("paper") == pipeline_id(PIPELINES["paper"])

    def test_default_options_equal_paper_pipeline(self):
        assert pipeline_from_options() == PIPELINES["paper"]

    def test_partial_pipeline_state_and_result_error(self):
        g = random_dag(4, 60, 2, seed=1)
        manager = PassManager(
            ["ingest", "rebalance", "simplify", "techmap", "balance", "levelize"]
        )
        state = manager.run(g, SMALL)
        assert state.preprocess is not None
        assert state.schedule is None
        with pytest.raises(ValueError, match="schedule"):
            compile_with_pipeline(g, SMALL, pipeline=["ingest", "balance", "levelize"])

    def test_out_of_order_pipeline_raises(self):
        g = random_dag(4, 60, 2, seed=1)
        with pytest.raises(PipelineError, match="requires"):
            PassManager(["partition"]).run(g, SMALL)

    def test_pass_records_and_report(self):
        g = random_dag(6, 120, 3, seed=5)
        result = compile_ffcl(g, SMALL)
        names = [r.name for r in result.pass_records]
        assert names == list(PIPELINES["paper"])
        assert all(r.seconds >= 0 for r in result.pass_records)
        report = format_pass_report(result.pass_records)
        assert "codegen" in report and "total" in report
        final_sizes = result.pass_records[-1].sizes
        assert final_sizes["mfgs"] == result.partition.num_mfgs
        assert final_sizes["makespan"] == result.schedule.makespan


# ----------------------------------------------------------------------
# Pass-level caching
# ----------------------------------------------------------------------
class TestPassCache:
    def test_warm_compile_returns_identical_artifacts(self):
        g = random_dag(8, 250, 3, seed=13)
        cache = PassCache()
        cold = compile_ffcl(g, SMALL, pass_cache=cache)
        warm = compile_ffcl(g, SMALL, pass_cache=cache)
        # Every pass except the deliberately-uncached ingest is served.
        assert all(
            r.cache_hit for r in warm.pass_records if r.name != "ingest"
        )
        assert warm.program is cold.program
        assert warm.schedule is cold.schedule
        assert warm.partition is cold.partition
        assert warm.metrics is cold.metrics
        assert cache.stats.hits == len(PIPELINES["paper"]) - 1

    def test_prefix_reuse_across_pipelines(self):
        g = random_dag(8, 250, 3, seed=17)
        cache = PassCache()
        compile_ffcl(g, SMALL, pass_cache=cache)
        assert cache.stats.hits == 0
        result = compile_ffcl(g, SMALL, merge=False, pass_cache=cache)
        # Everything up to (and including) partition is shared with the
        # merged compile; schedule/codegen/metrics re-run.
        hits = {r.name: r.cache_hit for r in result.pass_records}
        for name in (
            "rebalance",
            "simplify",
            "techmap",
            "balance",
            "levelize",
            "partition",
        ):
            assert hits[name], name
        for name in ("ingest", "schedule", "codegen", "metrics"):
            assert not hits[name], name

    def test_policy_change_reuses_through_merge(self):
        g = random_dag(8, 250, 3, seed=19)
        cache = PassCache()
        compile_ffcl(g, SMALL, pass_cache=cache)
        result = compile_ffcl(g, SMALL, policy="sequential", pass_cache=cache)
        hits = {r.name: r.cache_hit for r in result.pass_records}
        assert hits["partition"] and hits["merge"]
        assert not hits["schedule"] and not hits["metrics"]

    def test_config_change_reuses_preprocess_only(self):
        g = random_dag(8, 250, 3, seed=23)
        cache = PassCache()
        compile_ffcl(g, SMALL, pass_cache=cache)
        other = LPUConfig(num_lpvs=8, lpes_per_lpv=16)
        result = compile_ffcl(g, other, pass_cache=cache)
        hits = {r.name: r.cache_hit for r in result.pass_records}
        # Pre-processing is config-independent; partitioning depends on m.
        for name in ("simplify", "balance", "levelize"):
            assert hits[name], name
        assert not hits["partition"]

    def test_structurally_equal_graphs_share_entries(self):
        g = random_dag(8, 200, 3, seed=29)
        cache = PassCache()
        compile_ffcl(g, SMALL, pass_cache=cache)
        warm = compile_ffcl(g.copy(), SMALL, pass_cache=cache)
        assert all(
            r.cache_hit for r in warm.pass_records if r.name != "ingest"
        )

    def test_pipeline_generator_spec_not_consumed(self):
        """A single-use iterable pipeline spec must not lose its first
        pass to the isinstance probe (regression)."""
        names = ["ingest", "rebalance", "simplify", "techmap", "balance",
                 "levelize"]
        manager = PassManager(iter(names))
        assert manager.pass_names == names

    def test_caller_mutation_cannot_poison_cache(self):
        """Ingest is uncached: mutating a compiled graph in place must
        never leak into cache entries keyed by its original content
        (regression)."""
        g = random_dag(6, 150, 3, seed=83)
        pristine = g.copy()
        cache = PassCache()
        compile_ffcl(g, SMALL, pass_cache=cache)
        # Caller mutates the compiled graph object in place.
        a, b = g.inputs[0], g.inputs[1]
        g.add_gate(cells.XOR, a, b)
        # A content-equal graph must compile against the *original*
        # content, identically to an uncached compile.
        warm = compile_ffcl(pristine, SMALL, pass_cache=cache)
        fresh = compile_ffcl(pristine, SMALL)
        assert asdict(warm.metrics) == asdict(fresh.metrics)
        assert_programs_identical(warm.program, fresh.program)

    def test_no_pass_snapshot_aliases_the_source_graph(self):
        """A pass that passes the caller's graph through untouched (e.g.
        techmap without a basis, when no rewrite pass ran before it) must
        not memoize that live alias (regression)."""
        g = random_dag(6, 150, 3, seed=89)
        cache = PassCache()
        PassManager(
            ["ingest", "techmap", "balance", "levelize"], cache=cache
        ).run(g)
        for snapshot in cache._entries.values():
            for value in snapshot.values():
                assert value is not g

    def test_eviction_and_capacity(self):
        cache = PassCache(capacity=4)
        g = random_dag(6, 150, 3, seed=31)
        compile_ffcl(g, SMALL, pass_cache=cache)
        assert len(cache) == 4  # LRU-bounded
        assert cache.stats.evictions > 0
        with pytest.raises(ValueError):
            PassCache(capacity=0)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=6),
        merge=st.booleans(),
        policy=st.sampled_from(["pipelined", "sequential"]),
    )
    def test_cache_hits_are_bit_identical(self, seed, merge, policy):
        """Hypothesis: for any workload/options draw, a cache-served
        compile equals a fresh uncached compile bit-for-bit."""
        g = random_dag(6, 150, 3, seed=seed)
        cache = PassCache()
        compile_ffcl(g, SMALL, merge=merge, policy=policy, pass_cache=cache)
        warm = compile_ffcl(
            g, SMALL, merge=merge, policy=policy, pass_cache=cache
        )
        fresh = compile_ffcl(g, SMALL, merge=merge, policy=policy)
        assert all(
            r.cache_hit for r in warm.pass_records if r.name != "ingest"
        )
        assert asdict(warm.metrics) == asdict(fresh.metrics)
        assert_programs_identical(warm.program, fresh.program)


# ----------------------------------------------------------------------
# Merge purity (the partition_unmerged wart fix)
# ----------------------------------------------------------------------
class TestMergePurity:
    def test_merge_leaves_input_partition_pristine(self):
        g = random_dag(10, 400, 3, seed=37)
        pre = preprocess(g)
        part = partition(pre.graph, SMALL.m)
        links_before = {
            mfg.uid: (
                sorted(c.uid for c in mfg.children),
                sorted(p.uid for p in mfg.parents),
            )
            for mfg in part.mfgs
        }
        merged = merge_partition(part)
        links_after = {
            mfg.uid: (
                sorted(c.uid for c in mfg.children),
                sorted(p.uid for p in mfg.parents),
            )
            for mfg in part.mfgs
        }
        assert links_before == links_after
        part.check_invariants()  # mutual links + coverage still hold
        merged.check_invariants()
        assert merged.num_mfgs <= part.num_mfgs

    def test_compile_result_partition_unmerged_reschedulable(self):
        g = random_dag(10, 400, 3, seed=41)
        result = compile_ffcl(g, SMALL)
        # The unmerged partition must still be a valid schedulable DAG.
        result.partition_unmerged.check_invariants()
        schedule = build_schedule(result.partition_unmerged, SMALL)
        assert schedule.makespan >= result.schedule.makespan

    def test_clone_partition_is_deep(self):
        g = random_dag(8, 250, 3, seed=43)
        pre = preprocess(g)
        part = partition(pre.graph, SMALL.m)
        clone = clone_partition(part)
        clone.check_invariants()
        assert {m.uid for m in clone.mfgs} == {m.uid for m in part.mfgs}
        for original, copied in zip(part.mfgs, clone.mfgs):
            assert original is not copied
            assert original.nodes_by_level == copied.nodes_by_level
            assert original.nodes_by_level is not copied.nodes_by_level
        # Mutating the clone never reaches the original.
        if clone.mfgs[0].children:
            clone.mfgs[0].children.clear()
            assert part.mfgs[0].children


# ----------------------------------------------------------------------
# Serving-layer integration: pipeline identity in ProgramCache keys
# ----------------------------------------------------------------------
class TestServeCachePipelineIdentity:
    def test_two_pipelines_never_collide(self):
        g = random_dag(8, 250, 3, seed=47)
        cache = ProgramCache(capacity=8)
        merged = cache.get_or_compile(g, SMALL)
        unmerged = cache.get_or_compile(g, SMALL, pipeline="no-merge")
        assert merged is not unmerged
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        # The two entries stay simultaneously resident and hit separately.
        assert cache.get_or_compile(g, SMALL) is merged
        assert cache.get_or_compile(g, SMALL, pipeline="no-merge") is unmerged
        assert cache.stats.hits == 2
        assert (
            merged.program.schedule.makespan
            <= unmerged.program.schedule.makespan
        )

    def test_pipeline_and_option_forms_share_one_entry(self):
        g = random_dag(8, 250, 3, seed=53)
        cache = ProgramCache(capacity=8)
        by_kwarg = cache.get_or_compile(g, SMALL, merge=False)
        by_name = cache.get_or_compile(g, SMALL, pipeline="no-merge")
        assert by_kwarg is by_name
        assert cache.stats.hits == 1

    def test_pass_cache_shared_below_program_entries(self):
        g = random_dag(8, 250, 3, seed=61)
        cache = ProgramCache(capacity=8)
        cache.get_or_compile(g, SMALL)
        assert cache.pass_cache.stats.hits == 0
        cache.get_or_compile(g, SMALL, pipeline="no-merge")
        # The second pipeline shares the whole pre-processing + partition
        # prefix through the pass cache even though it missed here.
        assert cache.pass_cache.stats.hits >= 7

    def test_pass_cache_kwarg_rejected(self):
        g = random_dag(6, 100, 3, seed=67)
        cache = ProgramCache(capacity=8)
        with pytest.raises(ValueError, match="ProgramCache"):
            cache.get_or_compile(g, SMALL, pass_cache=PassCache())

    def test_clear_resets_owned_pass_cache(self):
        g = random_dag(6, 100, 3, seed=71)
        cache = ProgramCache(capacity=8)
        cache.get_or_compile(g, SMALL)
        assert len(cache.pass_cache) > 0
        cache.clear()
        assert len(cache.pass_cache) == 0

    def test_clear_spares_injected_shared_pass_cache(self):
        """clear() must not wipe a PassCache shared across caches."""
        g = random_dag(6, 100, 3, seed=79)
        shared = PassCache()
        cache = ProgramCache(capacity=8, pass_cache=shared)
        cache.get_or_compile(g, SMALL)
        entries_before = len(shared)
        assert entries_before > 0
        cache.clear()
        assert len(shared) == entries_before


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture()
    def netlist(self, tmp_path):
        from repro.netlist.verilog_writer import write_verilog

        path = tmp_path / "block.v"
        path.write_text(write_verilog(random_dag(6, 120, 3, seed=73)))
        return str(path)

    def test_compile_explain_passes(self, capsys, netlist):
        from repro.cli import main

        assert main(
            ["compile", netlist, "--lpvs", "4", "--lpes", "8",
             "--explain-passes"]
        ) == 0
        out = capsys.readouterr().out
        assert "codegen" in out and "total" in out

    def test_compile_pipeline_flag(self, capsys, netlist):
        from repro.cli import main

        assert main(
            ["compile", netlist, "--lpvs", "4", "--lpes", "8",
             "--pipeline", "metrics-only", "--json"]
        ) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["compute_instructions"] is None

    def test_passes_subcommand(self, capsys, netlist):
        from repro.cli import main

        assert main(
            ["passes", netlist, "--lpvs", "4", "--lpes", "8", "--json"]
        ) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in data["passes"]] == list(PIPELINES["paper"])

    def test_passes_list(self, capsys):
        from repro.cli import main

        assert main(["passes", "--list"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "codegen" in out

    def test_passes_list_json(self, capsys):
        from repro.cli import main

        assert main(["passes", "--list", "--json"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["pipelines"]["paper"] == list(PIPELINES["paper"])
        assert "codegen" in data["passes"]

    def test_passes_requires_netlist_without_list(self, capsys):
        from repro.cli import main

        assert main(["passes"]) == 2


# ----------------------------------------------------------------------
# Live-cone / hash-once / level-once front end: identical artifacts from
# less work.  Goldens were recorded at the commit before it (goldens.py).
# ----------------------------------------------------------------------
class TestFrontEndIdentity:
    def test_graph_fingerprint_matches_recorded_corpus_draw(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        recorded = json.loads(
            (root / "bench" / "corpus_fingerprints.json").read_text()
        )
        g = random_dag(16, 24000, 8, seed=1)
        assert graph_fingerprint(g) == recorded["0"]["dag24k"]

    def test_artifacts_equal_parent(self):
        """Three seeded ``random_dag`` draws (chains, dead-heavy), the
        pass-cache hypothesis family and all seven ``all_models()``
        workloads: artifact bytes and fingerprints as recorded at the
        parent.  Runs in a child process with the hash seed the recording
        used (``layer_block`` draws from ``hash(layer.name)``)."""
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, goldens.__file__],
            env=env, capture_output=True, text=True, check=True,
        )
        found = json.loads(proc.stdout)
        recorded = json.loads(pathlib.Path(goldens.GOLDENS).read_text())
        assert len(recorded) == 3 + len(goldens.FAMILY_SEEDS) + 7
        assert sorted(found) == sorted(recorded)
        assert [n for n in found if found[n] != recorded[n]] == []

    def test_partition_still_rejects_unbalanced_graph_passed_directly(self):
        g = simplify(random_dag(6, 80, 3, seed=5))
        assert not is_levelized_strict(g)
        with pytest.raises(ValueError, match="fully path-balanced"):
            partition(g, 8)

    def test_rewrite_after_balance_is_rechecked_by_partition(self):
        """Levels are trusted only for the very graph ``balance`` built: a
        pass that replaces it afterwards sends ``partition`` back to its
        own levelization and strictness check."""
        unbalancing = "ingest,balance,rebalance,simplify,levelize,partition"
        g = random_dag(6, 80, 3, seed=5)
        with pytest.raises(ValueError, match="fully path-balanced"):
            PassManager(unbalancing).run(g, SMALL)

    def test_cached_balance_is_levelized_the_ordinary_way(self):
        """The handed-on levels are not in any snapshot: when ``balance``
        is served from the cache, ``levelize`` and ``partition`` compute
        and check for themselves, to the same program."""
        g = random_dag(8, 250, 3, seed=13)
        cache = PassCache()
        through_balance = PIPELINES["paper"][
            : PIPELINES["paper"].index("balance") + 1
        ]
        PassManager(through_balance, cache=cache).run(g, SMALL)
        state = PassManager("paper", cache=cache).run(g, SMALL)
        hits = {r.name: r.cache_hit for r in state.records}
        assert hits["balance"] and not hits["levelize"]
        assert not hits["partition"]
        assert state.balanced_levels is None
        assert_programs_identical(
            compile_ffcl(g, SMALL).program, state.program
        )

    def test_mutating_a_graph_between_compiles_is_seen(self):
        """Nothing is memoized on the graph: the second compile hashes and
        levelizes what the graph has become."""
        g = random_dag(6, 150, 3, seed=83)
        first = compile_ffcl(g, SMALL, pass_cache=PassCache())
        g.set_output("extra", g.add_gate(cells.NOT, g.output_ids[0]))
        second = compile_ffcl(g, SMALL, pass_cache=PassCache())
        assert first.source_fingerprint != second.source_fingerprint
        assert second.source_fingerprint == graph_fingerprint(g)
        assert (
            second.to_artifact().workload_fingerprint
            == second.source_fingerprint
        )
        assert second.preprocess.levels.level == second.balanced.levels()
        assert second.balanced.num_outputs == first.balanced.num_outputs + 1
        assert is_levelized_strict(second.balanced)

    def test_size_summary_counts_once_per_graph_same_values(self, monkeypatch):
        from repro.compiler.state import CompileState

        g = random_dag(8, 250, 3, seed=7)
        memoized = PassManager("paper").run(g, SMALL).records
        monkeypatch.setattr(
            CompileState, "gate_count", lambda self: self.graph.num_gates
        )
        recounted = PassManager("paper").run(g, SMALL).records
        assert [r.sizes for r in memoized] == [r.sizes for r in recounted]
        gates = [r.sizes["gates"] for r in memoized]
        assert len(set(gates)) > 2  # the count does follow the rewrites


def count_fingerprints(monkeypatch):
    """Every graph handed to ``graph_fingerprint`` from here on, through
    any of the names the compiler, packager and serve cache call it by."""
    import repro.compiler.cache as cache_module
    import repro.compiler.manager as manager_module
    import repro.serve.cache as serve_cache_module

    hashed = []
    real = cache_module.graph_fingerprint

    def counting(graph):
        hashed.append(graph)
        return real(graph)

    for module in (cache_module, manager_module, serve_cache_module):
        monkeypatch.setattr(module, "graph_fingerprint", counting)
    return hashed


class TestFrontEndWorkCounts:
    """Deterministic work bounds in place of a wall-clock floor."""

    def test_program_cache_miss_hashes_the_source_once(
        self, monkeypatch, tmp_path
    ):
        from repro.artifact import ArtifactStore

        hashed = count_fingerprints(monkeypatch)
        g = random_dag(8, 250, 3, seed=97)
        cache = ProgramCache(store=ArtifactStore(str(tmp_path / "store")))
        entry = cache.get_or_compile(g, SMALL)
        assert hashed == [g]  # key, pass-cache chain and stored artifact
        assert entry.artifact.workload_fingerprint == entry.key.workload
        assert entry.compile_result.source_fingerprint == entry.key.workload

    def test_one_hash_one_levelization_live_sized_rebalance(self, monkeypatch):
        import repro.compiler.passes as passes_module
        from repro.netlist.graph import LogicGraph

        g = random_dag(8, 4000, 2, seed=3)
        live_gates = sum(
            1
            for nid in g.transitive_fanin(g.output_ids)
            if g.op_of(nid) in cells.LPE_OPS
        )
        assert live_gates * 4 < g.num_gates  # a dead-heavy draw

        hashed = count_fingerprints(monkeypatch)

        leveled = []
        real_levels = LogicGraph.levels

        def counting_levels(self):
            leveled.append(self)
            return real_levels(self)

        monkeypatch.setattr(LogicGraph, "levels", counting_levels)

        added = [0]
        rebalance_adds = [0]
        real_add_gate = LogicGraph.add_gate

        def counting_add_gate(self, op, *fanins, name=None):
            added[0] += 1
            return real_add_gate(self, op, *fanins, name=name)

        monkeypatch.setattr(LogicGraph, "add_gate", counting_add_gate)
        real_balance_trees = passes_module.balance_trees

        def counting_balance_trees(graph):
            before = added[0]
            try:
                return real_balance_trees(graph)
            finally:
                rebalance_adds[0] += added[0] - before

        monkeypatch.setattr(
            passes_module, "balance_trees", counting_balance_trees
        )

        result = compile_ffcl(g, pass_cache=PassCache())
        artifact = result.to_artifact()

        assert hashed == [g]
        assert artifact.workload_fingerprint == result.source_fingerprint
        assert sum(1 for graph in leveled if graph is result.balanced) <= 1
        # two rebalance passes, each building at most the live gates
        assert 0 < rebalance_adds[0] <= 2 * live_gates
