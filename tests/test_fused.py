"""Tests for liveness-driven fusion: the register allocator, the fused
engine, its two executable forms and workspaces, the process-wide
caches, and the artifact round-trip of renamed tables.

The load-bearing properties:

* the fused engine is bit-identical (outputs AND statistics) to the
  trace and cycle engines for every graph, batch shape, and executable
  form (generated vector kernel vs bound rowwise stream),
* the register file is strictly smaller than the trace value table on
  deep programs (the whole point of the renaming),
* lowerings and fusions are shared process-wide — including under
  thread races — and artifact-embedded tables round-trip exactly.
"""

import gc
import threading

import numpy as np
import pytest
from forms import record_forms
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import ExecutableArtifact
from repro.core import (
    LPUConfig,
    clear_fusion_cache,
    clear_lowering_cache,
    compile_ffcl,
    fuse_trace,
    fusion_cache_stats,
    lower_program,
    lowering_cache_stats,
)
from repro.core.liveness import adopt_fusion
from repro.core.stream import pack_stream
from repro.engine import FusedEngine, Session, create_engine
from repro.engine import fused as fused_module
from repro.engine.fused import (
    ROWWISE_MIN_WORDS,
    ensure_kernel,
    ensure_timed_kernel,
)
from repro.lpu import evaluate_graph, random_stimulus
from repro.netlist import cells, random_dag, random_tree
from repro.netlist.graph import LogicGraph

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TINY = LPUConfig(num_lpvs=2, lpes_per_lpv=4)


def _assert_fused_matches(program, stim):
    """Fused == trace == functional, outputs and statistics."""
    reference = evaluate_graph(program.graph, stim)
    fused = create_engine("fused", program).run(stim)
    trace = create_engine("trace", program).run(stim)
    for name, word in reference.items():
        assert np.array_equal(fused.outputs[name], word), name
    assert fused.macro_cycles == trace.macro_cycles
    assert fused.clock_cycles == trace.clock_cycles
    assert (
        fused.compute_instructions_executed
        == trace.compute_instructions_executed
    )
    assert fused.switch_routes == trace.switch_routes
    assert fused.peak_buffer_words == trace.peak_buffer_words
    assert fused.buffer_writes == trace.buffer_writes


# ----------------------------------------------------------------------
class TestLivenessAllocation:
    def test_register_file_smaller_than_slot_table(self):
        g = random_tree(256, seed=3)  # deep: long levels, short lifetimes
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        fused = fuse_trace(trace)
        assert fused.num_regs < trace.num_slots
        assert fused.num_slots == trace.num_slots

    def test_constants_and_pi_numbering_pinned(self):
        g = random_dag(5, 40, 2, seed=4)
        res = compile_ffcl(g, SMALL)
        fused = fuse_trace(lower_program(res.program))
        assert sorted(fused.pi_regs.values()) == list(
            range(2, 2 + len(fused.pi_regs))
        )
        for level in fused.levels:
            # Constants are never overwritten (register 0 also feeds the
            # single-input lanes of every fused b gather).
            assert 0 not in level.out_index
            assert 1 not in level.out_index

    def test_level_outputs_pairwise_distinct_and_bounded(self):
        g = random_dag(6, 70, 3, seed=9)
        res = compile_ffcl(g, SMALL)
        fused = fuse_trace(lower_program(res.program))
        for level in fused.levels:
            out = level.out_index
            assert len(set(out.tolist())) == len(out)
            for array in (level.a_index, level.b_index, out):
                assert int(array.min(initial=0)) >= 0
                assert int(array.max(initial=0)) < fused.num_regs

    def test_buf_instructions_copy_propagated_away(self):
        # A shallow input feeding a deep chain: the balance stage must
        # insert BUF word-moves to carry it down the levels.
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        c = g.add_input("c")
        x = g.add_gate(cells.AND, a, b)
        for i in range(6):
            x = g.add_gate(cells.AND if i % 2 else cells.OR, x, a)
        g.set_output("y", g.add_gate(cells.XOR, x, c))
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        fused = fuse_trace(trace)
        trace_ops = {
            seg.op for level in trace.levels for seg in level.segments
        }
        fused_ops = {
            seg.op for level in fused.levels for seg in level.segments
        }
        assert cells.BUF in trace_ops  # the workload does move words
        assert cells.BUF not in fused_ops
        trace_instrs = sum(lv.num_instructions for lv in trace.levels)
        fused_instrs = sum(lv.num_instructions for lv in fused.levels)
        assert fused_instrs < trace_instrs
        # Statistics still report the *architectural* instruction count.
        stim = random_stimulus(res.program.graph, array_size=2, seed=0)
        result = create_engine("fused", res.program).run(stim)
        assert result.compute_instructions_executed == trace_instrs

    def test_allocation_deterministic(self):
        g = random_dag(6, 60, 3, seed=12)
        res = compile_ffcl(g, SMALL)
        trace = lower_program(res.program)
        one = fuse_trace(trace, cache=False)
        two = fuse_trace(trace, cache=False)
        assert one is not two
        assert one.num_regs == two.num_regs
        assert one.output_regs == two.output_regs
        for a, b in zip(one.levels, two.levels):
            assert np.array_equal(a.a_index, b.a_index)
            assert np.array_equal(a.b_index, b.b_index)
            assert np.array_equal(a.out_index, b.out_index)
            assert a.segments == b.segments

    def test_fused_segments_cover_level_sorted_by_op(self):
        g = random_dag(6, 80, 3, seed=5)
        res = compile_ffcl(g, SMALL)
        fused = fuse_trace(lower_program(res.program))
        for level in fused.levels:
            covered = []
            for seg in level.segments:
                assert seg.end > seg.start
                covered.extend(range(seg.start, seg.end))
            assert covered == list(range(level.num_instructions))
            ops = [seg.op for seg in level.segments]
            assert ops == sorted(ops) and len(set(ops)) == len(ops)


# ----------------------------------------------------------------------
class TestFusionCache:
    def test_fusions_shared_per_trace(self):
        clear_fusion_cache()
        g = random_dag(5, 30, 2, seed=2)
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        one = fuse_trace(trace)
        two = fuse_trace(trace)
        assert one is two
        stats = fusion_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_adopt_sweeps_dead_entries(self):
        """Artifact-only processes never hit the fuse_trace miss path,
        so adoption itself must purge dead weak references."""
        clear_fusion_cache()
        clear_lowering_cache()
        for seed in range(4):
            res = compile_ffcl(random_dag(4, 20, 1, seed=seed), TINY)
            art = ExecutableArtifact.from_bytes(
                ExecutableArtifact.from_compile(res).to_bytes()
            )
            del res, art  # retire the workload entirely
        gc.collect()
        res = compile_ffcl(random_dag(4, 20, 1, seed=99), TINY)
        keep = ExecutableArtifact.from_bytes(
            ExecutableArtifact.from_compile(res).to_bytes()
        )
        assert fusion_cache_stats()["live_entries"] <= 2
        assert lowering_cache_stats()["live_entries"] <= 2
        assert keep.fused is not None

    def test_adopt_prefers_live_canonical(self):
        clear_fusion_cache()
        g = random_dag(5, 30, 2, seed=7)
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        canonical = fuse_trace(trace)
        foreign = fuse_trace(trace, cache=False)
        assert adopt_fusion(foreign) is canonical

    def test_engines_share_tables_and_kernels(self):
        g = random_dag(5, 40, 2, seed=8)
        res = compile_ffcl(g, TINY)
        one = create_engine("fused", res.program)
        two = create_engine("fused", res.program)
        assert one.fused is two.fused
        # compiled once, at the first engine's construction
        assert one.fused.kernel is not None
        assert ensure_kernel(one.fused) is one.fused.kernel
        wide = random_stimulus(
            res.program.graph, array_size=ROWWISE_MIN_WORDS, seed=0
        )
        one.run(wide)
        stream = one.fused.native_cache["stream"]
        two.run(wide)
        assert pack_stream(two.fused) is stream


# ----------------------------------------------------------------------
class TestLoweringCacheConcurrency:
    def test_threaded_lower_race_yields_one_lowering(self):
        clear_lowering_cache()
        g = random_dag(6, 60, 3, seed=21)
        res = compile_ffcl(g, SMALL)
        program = res.program
        workers = 8
        barrier = threading.Barrier(workers)
        results = [None] * workers
        errors = []

        def race(index):
            try:
                barrier.wait()
                results[index] = lower_program(program)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=race, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r is results[0] for r in results)
        stats = lowering_cache_stats()
        # Racing misses may lower twice, but every call resolves to one
        # shared artifact and every lookup is accounted for.
        assert stats["hits"] + stats["misses"] == workers
        assert stats["misses"] >= 1
        assert stats["live_entries"] == 1

    def test_miss_path_sweeps_dead_entries(self):
        clear_lowering_cache()
        for seed in range(4):
            res = compile_ffcl(random_dag(4, 20, 1, seed=seed), TINY)
            lower_program(res.program)
            del res  # drop the only strong reference to the lowering
        gc.collect()
        res = compile_ffcl(random_dag(4, 20, 1, seed=99), TINY)
        keep = lower_program(res.program)
        # The fresh miss swept the dead weak references out.
        assert lowering_cache_stats()["live_entries"] == 1
        assert keep.program is res.program


# ----------------------------------------------------------------------
class TestFusedEngine:
    @pytest.mark.parametrize("seed", range(5))
    def test_parity_random_dags(self, seed):
        g = random_dag(6, 50, 3, seed=seed)
        res = compile_ffcl(g, SMALL)
        for array_size in (1, 4):
            stim = random_stimulus(
                res.program.graph, array_size=array_size, seed=seed
            )
            _assert_fused_matches(res.program, stim)

    def test_parity_deep_tree_with_circulation(self):
        g = random_tree(128, seed=1)
        res = compile_ffcl(g, TINY)
        stim = random_stimulus(res.program.graph, array_size=3, seed=5)
        _assert_fused_matches(res.program, stim)

    def test_parity_across_kernel_choice(self):
        """Both forms (vector for small batches, rowwise for large)
        produce identical results around the switch threshold."""
        g = random_dag(6, 60, 3, seed=13)
        res = compile_ffcl(g, SMALL)
        graph = res.program.graph
        for array_size in (
            1, ROWWISE_MIN_WORDS - 1, ROWWISE_MIN_WORDS,
            2 * ROWWISE_MIN_WORDS,
        ):
            stim = random_stimulus(graph, array_size=array_size, seed=1)
            _assert_fused_matches(res.program, stim)

    def test_kernel_crossover_boundary(self, monkeypatch):
        """Exactly at the vector/rowwise switch (ROWWISE_MIN_WORDS - 1,
        the threshold itself, and one past it) the engine picks the
        expected form AND stays bit-identical to functional
        evaluation — the boundary a off-by-one in the word-count
        comparison would silently move."""
        g = random_dag(6, 60, 3, seed=21)
        res = compile_ffcl(g, SMALL)
        graph = res.program.graph
        engine = create_engine("fused", res.program)
        calls = record_forms(monkeypatch, fused_module)
        expected_kernel = {
            ROWWISE_MIN_WORDS - 1: "vector",
            ROWWISE_MIN_WORDS: "rowwise",
            ROWWISE_MIN_WORDS + 1: "rowwise",
        }
        for array_size, kernel_name in expected_kernel.items():
            calls.clear()
            stim = random_stimulus(graph, array_size=array_size, seed=2)
            reference = evaluate_graph(graph, stim)
            result = engine.run(stim)
            for po, words in reference.items():
                assert np.array_equal(result.outputs[po], words), (
                    array_size, po,
                )
            assert calls == [kernel_name], (array_size, calls)
            # each form's scratch exists only on the shapes it ran on
            ws = engine._workspaces[(array_size,)]
            assert (ws._ab_buf is None) == (kernel_name == "rowwise")
            assert (ws._calls is None) == (kernel_name == "vector")

    def test_workspace_reused_per_shape(self):
        g = random_dag(5, 30, 2, seed=3)
        res = compile_ffcl(g, TINY)
        engine = create_engine("fused", res.program)
        stim = random_stimulus(res.program.graph, array_size=2, seed=0)
        engine.run(stim)
        ws = engine._workspaces[(2,)]
        engine.run(stim)
        assert engine._workspaces[(2,)] is ws  # no reallocation
        stats = engine.workspace_stats()
        assert stats["num_regs"] == engine.fused.num_regs
        assert "(2,)" in stats["shapes"]

    def test_results_do_not_alias_workspace(self):
        g = random_dag(5, 30, 2, seed=6)
        res = compile_ffcl(g, TINY)
        engine = create_engine("fused", res.program)
        graph = res.program.graph
        first_stim = random_stimulus(graph, array_size=2, seed=0)
        first = engine.run(first_stim)
        snapshot = {
            name: word.copy() for name, word in first.outputs.items()
        }
        engine.run(random_stimulus(graph, array_size=2, seed=1))
        for name, word in snapshot.items():
            assert np.array_equal(first.outputs[name], word), name

    def test_shared_session_concurrent_runs_stay_correct(self):
        """One Session shared across threads (the old trace-default
        contract): the per-engine run lock keeps results bit-exact."""
        g = random_dag(5, 40, 2, seed=22)
        res = compile_ffcl(g, SMALL)
        session = Session(res.program, engine="fused")
        graph = res.program.graph
        stims = [
            random_stimulus(graph, array_size=2, seed=s) for s in range(4)
        ]
        refs = [evaluate_graph(graph, stim) for stim in stims]
        mismatches = []

        def worker(index):
            for _ in range(25):
                out = session.run(stims[index])
                for name, word in refs[index].items():
                    if not np.array_equal(out.outputs[name], word):
                        mismatches.append((index, name))
                        return

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not mismatches

    def test_alternating_batch_shapes(self):
        g = random_dag(5, 40, 2, seed=10)
        res = compile_ffcl(g, SMALL)
        session = Session(res.program, engine="fused")
        graph = res.program.graph
        for array_size in (1, 5, 1, 64, 5):
            stim = random_stimulus(graph, array_size=array_size, seed=2)
            ref = evaluate_graph(graph, stim)
            out = session.run(stim)
            for name, word in ref.items():
                assert np.array_equal(out.outputs[name], word), name

    def test_scalar_inputs_match_trace(self):
        """0-d (scalar-per-PI) stimulus: accepted, and output shapes
        match the trace engine's 0-d outputs exactly."""
        g = random_dag(4, 25, 2, seed=14)
        res = compile_ffcl(g, TINY)
        graph = res.program.graph
        rng = np.random.default_rng(3)
        stim = {
            graph.input_name(nid): np.uint64(
                rng.integers(0, 2**63, dtype=np.uint64)
            )
            for nid in graph.inputs
        }
        trace_out = create_engine("trace", res.program).run(stim)
        fused_out = create_engine("fused", res.program).run(stim)
        for name, word in trace_out.outputs.items():
            assert fused_out.outputs[name].shape == word.shape == ()
            assert np.array_equal(fused_out.outputs[name], word), name

    def test_missing_and_mismatched_inputs_rejected(self):
        g = random_dag(4, 20, 1, seed=5)
        s = Session(g, TINY, engine="fused")
        with pytest.raises(KeyError, match="primary input"):
            s.run({})
        stim = random_stimulus(s.graph, array_size=2, seed=0)
        first = next(iter(stim))
        stim[first] = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ValueError, match="share one shape"):
            s.run(stim)

    def test_generated_kernel_source_inspectable(self):
        g = random_dag(5, 30, 2, seed=4)
        res = compile_ffcl(g, TINY)
        engine = create_engine("fused", res.program)
        # The vector kernel is generated code (gathers, or direct row
        # views on small levels), as is its timed twin...
        vector = ensure_kernel(engine.fused)
        assert vector.__source__.startswith("def _kernel(")
        assert "take(" in vector.__source__ or "rows[" in vector.__source__
        timed = ensure_timed_kernel(engine.fused)
        assert timed.__source__.count("perf()") == 2 * engine.fused.num_levels
        # ...the rowwise form is data: the packed stream bound to one
        # workspace's rows, one call per instruction plus one per
        # inverting opcode, split at the level boundaries.
        ws = engine.workspace((ROWWISE_MIN_WORDS,))
        calls, call_starts = ws.bound_calls()
        stream = pack_stream(engine.fused)
        assert len(call_starts) == stream.num_levels + 1
        assert call_starts[0] == 0 and call_starts[-1] == len(calls)
        assert len(calls) >= stream.num_instructions
        for func, args in calls:
            assert func is np.copyto or isinstance(func, np.ufunc)
            assert all(arg.shape == (ROWWISE_MIN_WORDS,) for arg in args)

    def test_profile_levels_matches_level_count(self):
        g = random_dag(5, 40, 2, seed=11)
        res = compile_ffcl(g, SMALL)
        engine = create_engine("fused", res.program)
        stim = random_stimulus(res.program.graph, array_size=2, seed=0)
        records = engine.profile_levels(stim)
        assert len(records) == engine.fused.num_levels
        assert all(r["seconds"] >= 0 for r in records)
        assert [r["level"] for r in records] == list(range(len(records)))
        # The profiled (interpreted) execution leaves the workspace in
        # the same state as a kernel run: outputs still check out.
        ref = evaluate_graph(res.program.graph, stim)
        out = engine.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name


# ----------------------------------------------------------------------
class TestFusedArtifacts:
    def test_fused_tables_embedded_and_round_trip(self):
        g = random_dag(6, 60, 3, seed=17)
        res = compile_ffcl(g, SMALL)
        artifact = ExecutableArtifact.from_compile(res)
        assert artifact.fused is not None
        data = artifact.to_bytes()
        loaded = ExecutableArtifact.from_bytes(data)
        assert loaded.fused is not None
        assert loaded.to_bytes() == data  # deterministic re-encode
        assert loaded.fused.num_regs == artifact.fused.num_regs
        for a, b in zip(loaded.fused.levels, artifact.fused.levels):
            assert np.array_equal(a.a_index, b.a_index)
            assert np.array_equal(a.b_index, b.b_index)
            assert np.array_equal(a.out_index, b.out_index)
            assert a.segments == b.segments

    def test_artifact_session_runs_fused_bit_identical(self):
        g = random_dag(6, 50, 3, seed=18)
        res = compile_ffcl(g, SMALL)
        artifact = ExecutableArtifact.from_bytes(
            ExecutableArtifact.from_compile(res).to_bytes()
        )
        session = artifact.session()  # the fused serving default
        assert session.engine_name == "fused"
        stim = random_stimulus(artifact.graph, array_size=3, seed=2)
        ref = evaluate_graph(artifact.graph, stim)
        out = session.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name

    def test_reloaded_artifact_keeps_contiguous_pi_binding(self):
        """The sorted JSON header must not scramble PI register order:
        >= 10 numerically-suffixed PI names sort as x1, x10, x2, ... by
        name, but decode restores register order, so the engine's
        single-block input binding survives the AOT path."""
        g = LogicGraph()
        pis = [g.add_input(f"x{i}") for i in range(12)]
        acc = pis[0]
        for pi in pis[1:]:
            acc = g.add_gate(cells.XOR, acc, pi)
        g.set_output("y", acc)
        res = compile_ffcl(g, SMALL)
        loaded = ExecutableArtifact.from_bytes(
            ExecutableArtifact.from_compile(res).to_bytes()
        )
        engine = create_engine("fused", loaded)
        assert engine._pi_contiguous
        fresh = create_engine("fused", res.program)
        assert list(engine.fused.pi_regs.values()) == list(
            fresh.fused.pi_regs.values()
        )

    def test_trace_only_artifact_still_loads(self):
        """Format compatibility: containers without fused tables load and
        serve — the fused engine renames on first use."""
        g = random_dag(5, 40, 2, seed=19)
        res = compile_ffcl(g, SMALL)
        trace_only = ExecutableArtifact(
            program=res.program, trace=lower_program(res.program)
        )
        loaded = ExecutableArtifact.from_bytes(trace_only.to_bytes())
        assert loaded.trace is not None
        assert loaded.fused is None
        fused = loaded.fused_program()
        assert fused.trace is loaded.trace
        engine = create_engine("fused", loaded)
        assert isinstance(engine, FusedEngine)
        stim = random_stimulus(loaded.graph, array_size=2, seed=0)
        ref = evaluate_graph(loaded.graph, stim)
        out = engine.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name

    def test_program_only_artifact_still_loads(self):
        g = random_dag(5, 30, 2, seed=20)
        res = compile_ffcl(g, SMALL)
        bare = ExecutableArtifact(program=res.program)
        loaded = ExecutableArtifact.from_bytes(bare.to_bytes())
        assert loaded.trace is None and loaded.fused is None
        session = loaded.session()  # lowers + renames on first use
        stim = random_stimulus(loaded.graph, array_size=2, seed=3)
        ref = evaluate_graph(loaded.graph, stim)
        out = session.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name


# ----------------------------------------------------------------------
class TestFusedProperties:
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=2, max_value=6),
        num_gates=st.integers(min_value=5, max_value=60),
        array_size=st.integers(min_value=1, max_value=5),
    )
    def test_renamed_execution_bit_identical(
        self, seed, num_inputs, num_gates, array_size
    ):
        """Liveness renaming never changes a single output bit or any
        statistic, for arbitrary random graphs and batch sizes."""
        g = random_dag(num_inputs, num_gates, 2, seed=seed)
        res = compile_ffcl(g, TINY)
        stim = random_stimulus(
            res.program.graph, array_size=array_size, seed=seed
        )
        _assert_fused_matches(res.program, stim)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_register_file_never_larger_than_slots(self, seed):
        g = random_dag(5, 45, 2, seed=seed)
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        fused = fuse_trace(trace)
        assert fused.num_regs <= trace.num_slots


# ----------------------------------------------------------------------
class TestRunComposedAllocation:
    """In-level instruction order follows ascending output registers, so
    scattered levels decompose into few long contiguous runs (the
    slice-copy fast path of the generated and native kernels), and a
    fragmentation-starved allocation stays bit-identical."""

    def _tight_fusion(self, seed=1):
        g = random_dag(6, 90, 3, seed=seed)
        res = compile_ffcl(g, SMALL)
        trace = lower_program(res.program)
        return res, fuse_trace(trace, frag_budget=0)

    def test_free_runs_groups_contiguous_registers(self):
        from repro.core.liveness import _free_runs

        def runs(free):
            free = np.asarray(free, dtype=np.intp)
            starts, lengths = _free_runs(free)
            return list(zip(lengths.tolist(), free[starts].tolist()))

        assert runs([]) == []
        assert runs([4]) == [(1, 4)]
        assert runs([2, 3, 4, 7, 9, 10]) == [(3, 2), (1, 7), (2, 9)]

    def test_out_index_ascending_even_when_fragmented(self):
        res, tight = self._tight_fusion()
        assert any(
            np.any(np.diff(lv.out_index) != 1) for lv in tight.levels
        ), "frag_budget=0 should force at least one scattered level"
        for level in tight.levels:
            # Sorted and distinct: scattered levels are still composed
            # of ascending runs the emitters can slice-copy.
            assert np.all(np.diff(level.out_index) > 0)

    def test_fragmented_allocation_bit_identical(self):
        res, tight = self._tight_fusion()
        graph = res.program.graph
        engine = FusedEngine(res.program, fused=tight)
        assert engine.fused is tight
        trace_engine = create_engine("trace", res.program)
        for array_size in (1, 3, ROWWISE_MIN_WORDS):
            stim = random_stimulus(graph, array_size=array_size, seed=7)
            reference = evaluate_graph(graph, stim)
            result = engine.run(stim)
            expected = trace_engine.run(stim)
            for name, word in reference.items():
                assert np.array_equal(result.outputs[name], word), name
            assert (
                result.compute_instructions_executed
                == expected.compute_instructions_executed
            )
            assert result.macro_cycles == expected.macro_cycles

    def test_run_length_stats_report(self):
        res, tight = self._tight_fusion()
        default = fuse_trace(tight.trace, cache=False)
        loose, strained = (
            default.run_length_stats(), tight.run_length_stats()
        )
        for stats in (loose, strained):
            assert stats["levels"] == default.num_levels
            assert 0.0 <= stats["contiguous_fraction"] <= 1.0
            assert stats["mean_runs_per_level"] >= 1.0
            assert stats["mean_max_run"] >= 1.0
        # The default fragmentation budget never does worse than the
        # starved one on fast-path coverage.
        assert (
            loose["contiguous_fraction"] >= strained["contiguous_fraction"]
        )
        assert loose["mean_runs_per_level"] <= strained["mean_runs_per_level"]


# ----------------------------------------------------------------------
class TestEngineTuning:
    def test_rowwise_min_words_option(self, monkeypatch):
        g = random_dag(5, 40, 2, seed=31)
        res = compile_ffcl(g, SMALL)
        graph = res.program.graph
        engine = create_engine("fused", res.program, rowwise_min_words=1)
        assert engine.rowwise_min_words == 1
        calls = record_forms(monkeypatch, fused_module)
        stim = random_stimulus(graph, array_size=2, seed=0)
        reference = evaluate_graph(graph, stim)
        result = engine.run(stim)
        # 2 words >= the overridden threshold: rowwise despite the
        # tiny batch, and still bit-identical.
        assert calls == ["rowwise"]
        for name, word in reference.items():
            assert np.array_equal(result.outputs[name], word), name

    def test_profile_levels_reports_kernel_choice(self):
        g = random_dag(5, 40, 2, seed=32)
        res = compile_ffcl(g, SMALL)
        engine = create_engine("fused", res.program)
        graph = res.program.graph
        small = random_stimulus(graph, array_size=2, seed=0)
        large = random_stimulus(
            graph, array_size=ROWWISE_MIN_WORDS, seed=0
        )
        assert {
            r["kernel"] for r in engine.profile_levels(small)
        } == {"vector"}
        assert {
            r["kernel"] for r in engine.profile_levels(large)
        } == {"rowwise"}

    def test_calibrate_crossover_smoke(self):
        g = random_dag(5, 40, 2, seed=33)
        res = compile_ffcl(g, SMALL)
        engine = create_engine("fused", res.program)
        report = engine.calibrate_crossover(word_sizes=[1, 2], repeats=1)
        assert report["default_rowwise_min_words"] == ROWWISE_MIN_WORDS
        assert report["engine_rowwise_min_words"] == ROWWISE_MIN_WORDS
        assert [p["words"] for p in report["points"]] == [1, 2]
        for point in report["points"]:
            assert point["vector_seconds"] > 0
            assert point["rowwise_seconds"] > 0
        assert report["measured_crossover_words"] in (1, 2, None)
        # the default sweep reaches past the crossover it looks for
        default = engine.calibrate_crossover(repeats=1)
        sizes = [p["words"] for p in default["points"]]
        assert sizes[0] == 1 and sizes[-1] == 2048
        assert sizes[-1] > ROWWISE_MIN_WORDS
