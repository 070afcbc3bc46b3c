"""Tests for the pluggable execution-engine layer.

The load-bearing property: the vectorized :class:`TraceEngine` is
bit-identical to the cycle-accurate hardware model AND to functional
evaluation of the source netlist, for every workload generator, every
batch shape, and across repeated ``Session.run`` calls — with identical,
per-run (never cumulative) statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import ExecutableArtifact
from repro.core import LPUConfig, compile_ffcl, lower_program
from repro.engine import (
    CycleAccurateEngine,
    ExecutionEngine,
    Session,
    TraceEngine,
    available_engines,
    create_engine,
)
from repro.lpu import cross_check, evaluate_graph, random_stimulus
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
from repro.netlist.graph import LogicGraph
from repro.serve import make_stream

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TINY = LPUConfig(num_lpvs=2, lpes_per_lpv=4)


def assert_engines_agree(program, seed=0, array_size=3):
    """Every registered engine == functional reference, with identical
    statistics across all of them."""
    stim = random_stimulus(program.graph, array_size=array_size, seed=seed)
    reference = evaluate_graph(program.graph, stim)
    results = {
        name: create_engine(name, program).run(stim)
        for name in available_engines()
    }
    cycle = results["cycle"]
    for engine, result in results.items():
        assert set(result.outputs) == set(reference), engine
        for name, word in reference.items():
            assert np.array_equal(result.outputs[name], word), (engine, name)
        assert cycle.macro_cycles == result.macro_cycles, engine
        assert cycle.clock_cycles == result.clock_cycles, engine
        assert (
            cycle.compute_instructions_executed
            == result.compute_instructions_executed
        ), engine
        assert cycle.switch_routes == result.switch_routes, engine
        assert cycle.peak_buffer_words == result.peak_buffer_words, engine
        assert cycle.buffer_writes == result.buffer_writes, engine
    return cycle, results["trace"]


class TestRegistry:
    def test_all_engines_registered(self):
        assert available_engines() == [
            "cycle", "delta", "fused", "native", "trace"
        ]

    def test_create_engine(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        assert isinstance(
            create_engine("cycle", res.program), CycleAccurateEngine
        )
        assert isinstance(create_engine("trace", res.program), TraceEngine)
        assert isinstance(create_engine("trace", res.program), ExecutionEngine)

    def test_unknown_engine_rejected(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("warp", res.program)


class TestTraceLowering:
    def test_lowered_shape(self):
        g = random_dag(5, 40, 2, seed=4)
        res = compile_ffcl(g, LPUConfig(num_lpvs=3, lpes_per_lpv=3))
        trace = lower_program(res.program)
        assert trace.macro_cycles == res.schedule.makespan
        assert trace.num_levels <= trace.macro_cycles
        # One slot per constant, PI, and compute instruction.
        total_instrs = sum(l.num_instructions for l in trace.levels)
        assert trace.compute_instructions == total_instrs
        assert trace.num_slots == 2 + g.num_inputs + total_instrs
        assert trace.pi_slots.keys() == {
            g.input_name(nid) for nid in g.inputs
        }

    def test_levels_sorted_by_opcode(self):
        g = random_dag(5, 40, 2, seed=7)
        res = compile_ffcl(g, LPUConfig(num_lpvs=3, lpes_per_lpv=4))
        trace = lower_program(res.program)
        for level in trace.levels:
            covered = []
            for seg in level.segments:
                assert seg.end > seg.start
                covered.extend(range(seg.start, seg.end))
            assert covered == list(range(level.num_instructions))
            ops = [seg.op for seg in level.segments]
            assert ops == sorted(ops) and len(set(ops)) == len(ops)

    def test_operands_only_from_earlier_levels(self):
        """The levelization invariant that makes vectorization sound."""
        g = random_tree(64, seed=2)
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        for level in trace.levels:
            assert int(level.a_index.max(initial=0)) < level.out_start
            assert int(level.b_index.max(initial=0)) < level.out_start

    def test_po_aliased_to_pi_and_const(self):
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        g.set_output("pass", a)
        g.set_output("zero", g.add_const(0))
        g.set_output("y", g.add_gate(cells.AND, a, b))
        res = compile_ffcl(g, TINY)
        trace = lower_program(res.program)
        assert set(trace.output_slots) == {"pass", "zero", "y"}
        cycle_res, trace_res = assert_engines_agree(res.program, seed=3)
        assert not trace_res.outputs["zero"].any()
        stim = random_stimulus(res.program.graph, array_size=3, seed=3)
        assert np.array_equal(trace_res.outputs["pass"], stim["a"])


class TestParityRandomGraphs:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags(self, seed):
        g = random_dag(6, 50, 3, seed=seed)
        res = compile_ffcl(g, LPUConfig(num_lpvs=4, lpes_per_lpv=4))
        assert_engines_agree(res.program, seed=seed)

    @pytest.mark.parametrize("n,m", [(1, 4), (2, 2), (3, 5), (8, 2)])
    def test_across_configs(self, n, m):
        g = random_dag(6, 60, 3, seed=42)
        res = compile_ffcl(g, LPUConfig(num_lpvs=n, lpes_per_lpv=m))
        assert_engines_agree(res.program, seed=n * 100 + m)

    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("policy", ["pipelined", "sequential"])
    def test_across_modes(self, merge, policy):
        g = random_dag(6, 45, 2, seed=9)
        res = compile_ffcl(
            g, LPUConfig(num_lpvs=3, lpes_per_lpv=3),
            merge=merge, policy=policy,
        )
        assert_engines_agree(res.program, seed=17)

    def test_deep_tree_with_circulation(self):
        g = random_tree(128, seed=1)  # depth 7 > n = 2
        res = compile_ffcl(g, TINY)
        assert res.metrics.circulations > 0
        assert_engines_agree(res.program, seed=5)


#: Every repro.models workload generator; blocks use the cheapest layer so
#: all seven models compile + execute in seconds.
MODEL_FACTORIES = [
    vgg16_workload,
    lenet5_workload,
    mlpmixer_s4_workload,
    mlpmixer_b4_workload,
    nid_workload,
    jsc_m_workload,
    jsc_l_workload,
]


class TestParityModelWorkloads:
    @pytest.mark.parametrize(
        "factory", MODEL_FACTORIES, ids=lambda f: f.__name__
    )
    def test_engines_match_functional(self, factory):
        model = factory()
        layer = min(model.layers, key=lambda l: (l.fan_in, l.num_neurons))
        block, _ = layer_block(layer, sample_neurons=2, seed=0)
        res = compile_ffcl(block, SMALL)
        # Multi-element batches AND repeated runs on the same Session.
        sessions = {
            name: Session(res.program, engine=name)
            for name in available_engines()
        }
        first_stats = None
        for batch, array_size in enumerate((1, 4)):
            stim = random_stimulus(
                res.program.graph, array_size=array_size, seed=batch
            )
            ref = evaluate_graph(res.program.graph, stim)
            outs = {
                name: session.run(stim)
                for name, session in sessions.items()
            }
            for engine, out in outs.items():
                for name, word in ref.items():
                    assert np.array_equal(
                        out.outputs[name], word
                    ), (engine, name)
            per_engine = {
                engine: (
                    out.macro_cycles,
                    out.compute_instructions_executed,
                    out.switch_routes,
                    out.peak_buffer_words,
                    out.buffer_writes,
                )
                for engine, out in outs.items()
            }
            stats = per_engine["cycle"]
            assert all(s == stats for s in per_engine.values())
            # Statistics are per-run: identical across repeated runs, not
            # accumulating.
            if first_stats is None:
                first_stats = stats
            else:
                assert stats == first_stats

    @pytest.mark.parametrize(
        "factory", MODEL_FACTORIES, ids=lambda f: f.__name__
    )
    def test_artifact_sessions_match_functional(self, factory):
        """Every engine booted from an ``.lpa`` round trip (fanout tables
        embedded) matches functional evaluation, and the in-memory cycle
        model's statistics, step for step over low-entropy streams — so
        the delta engine's stream state is exercised too."""
        model = factory()
        layer = min(model.layers, key=lambda l: (l.fan_in, l.num_neurons))
        block, _ = layer_block(layer, sample_neurons=2, seed=0)
        res = compile_ffcl(block, SMALL)
        artifact = ExecutableArtifact.from_bytes(
            res.to_artifact(fanout=True).to_bytes()
        )
        assert artifact.fanout is not None
        sessions = {
            name: artifact.session(engine=name)
            for name in available_engines()
        }
        cycle = Session(res.program, engine="cycle")
        graph = res.program.graph

        def stats(out):
            return (
                out.macro_cycles,
                out.clock_cycles,
                out.compute_instructions_executed,
                out.switch_routes,
                out.peak_buffer_words,
                out.buffer_writes,
            )

        for array_size in (1, 4):
            stream = make_stream(
                graph, steps=4, flip_bits=1, array_size=array_size, seed=7
            )
            for stim in stream:
                ref = evaluate_graph(graph, stim)
                expected = stats(cycle.run(stim))
                for engine, session in sessions.items():
                    out = session.run(stim)
                    for name, word in ref.items():
                        assert np.array_equal(
                            out.outputs[name], word
                        ), (engine, name)
                    assert stats(out) == expected, engine


class TestSession:
    def test_compiles_from_graph(self):
        g = random_dag(5, 30, 2, seed=2)
        s = Session(g, TINY)
        assert s.engine_name == "fused"  # the serving default
        assert s.compile_result is not None
        assert s.config == TINY
        result = s.run_random(array_size=2, seed=0)
        ref = evaluate_graph(s.graph, random_stimulus(s.graph, 2, seed=0))
        for name, word in ref.items():
            assert np.array_equal(result.outputs[name], word)

    def test_wraps_compiled_program(self):
        g = random_dag(5, 30, 2, seed=2)
        res = compile_ffcl(g, TINY)
        s = Session(res.program, engine="cycle")
        assert s.compile_result is None
        assert s.program is res.program
        assert s.run_random().macro_cycles == res.schedule.makespan

    def test_compile_kwargs_rejected_for_program(self):
        g = random_dag(5, 30, 2, seed=2)
        res = compile_ffcl(g, TINY)
        with pytest.raises(ValueError):
            Session(res.program, merge=False)

    def test_conflicting_config_rejected_for_program(self):
        g = random_dag(5, 30, 2, seed=2)
        res = compile_ffcl(g, TINY)
        with pytest.raises(ValueError, match="carries its own config"):
            Session(res.program, SMALL)
        # Restating the program's own config is harmless.
        assert Session(res.program, TINY).config == TINY

    def test_repeated_runs_amortize_one_program(self):
        g = random_dag(5, 30, 2, seed=3)
        s = Session(g, TINY)
        engine = s.engine
        for seed in range(3):
            s.run_random(seed=seed)
        assert s.engine is engine  # no recompilation/relowering
        assert s.runs_completed == 3

    def test_arbitrary_batch_shapes(self):
        g = random_dag(5, 30, 2, seed=4)
        s = Session(g, TINY)
        for shape in ((1,), (5,), (2, 3), (2, 2, 2)):
            rng = np.random.default_rng(1)
            stim = {
                g.input_name(nid): rng.integers(
                    0, 2**64, size=shape, dtype=np.uint64
                )
                for nid in g.inputs
            }
            result = s.run(stim)
            ref = evaluate_graph(g, stim)
            for name, word in ref.items():
                assert result.outputs[name].shape == shape
                assert np.array_equal(result.outputs[name], word)

    def test_mismatched_shapes_rejected(self):
        g = random_dag(4, 20, 1, seed=5)
        s = Session(g, TINY)
        stim = random_stimulus(g, array_size=2, seed=0)
        first = next(iter(stim))
        stim[first] = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ValueError):
            s.run(stim)

    def test_missing_input_rejected(self):
        g = random_dag(4, 20, 1, seed=5)
        s = Session(g, TINY)
        with pytest.raises(KeyError):
            s.run({})

    def test_engine_instance_reuse_hook(self):
        """A prebuilt engine (sharing lowering artifacts) can be handed
        straight to a Session — the serving layer's reuse path."""
        g = random_dag(5, 30, 2, seed=6)
        res = compile_ffcl(g, TINY)
        engine = create_engine("trace", res.program)
        s = Session(res.program, engine=engine)
        assert s.engine is engine
        assert s.run_random(seed=1).macro_cycles == res.schedule.makespan

    def test_engine_instance_for_wrong_program_rejected(self):
        g = random_dag(5, 30, 2, seed=6)
        res = compile_ffcl(g, TINY)
        other = compile_ffcl(random_dag(5, 30, 2, seed=7), TINY)
        engine = create_engine("trace", other.program)
        with pytest.raises(ValueError, match="different"):
            Session(res.program, engine=engine)

    def test_cycle_engine_releases_batch_buffers(self):
        """After a run, the simulator must not pin that batch's arrays
        (stale per-batch buffers when batch shapes alternate)."""
        g = random_tree(128, seed=1)  # deep: exercises the output buffer
        res = compile_ffcl(g, TINY)
        s = Session(res.program, engine="cycle")
        result = s.run_random(array_size=64, seed=0)
        simulator = s.engine.simulator
        assert simulator.input_buffer.num_entries == 0
        assert simulator.input_buffer.words_stored() == 0
        assert simulator.output_buffer.live_words == 0
        for lpv in simulator.lpvs:
            for lpe in lpv.lpes:
                assert lpe.snapshot_a is None and lpe.snapshot_b is None
        # Statistics and outputs survive the release...
        assert result.peak_buffer_words > 0
        assert result.buffer_writes > 0
        assert result.outputs
        # ...and a smaller follow-up batch still runs correctly.
        small = s.run_random(array_size=1, seed=1)
        assert small.peak_buffer_words == result.peak_buffer_words

    def test_per_run_statistics_not_cumulative(self):
        g = random_tree(64, seed=3)
        for engine in available_engines():
            s = Session(g, TINY, engine=engine)
            runs = [s.run_random(array_size=2, seed=i) for i in range(3)]
            assert len({r.switch_routes for r in runs}) == 1, engine
            assert len({r.buffer_writes for r in runs}) == 1, engine
            assert len({r.compute_instructions_executed for r in runs}) == 1


class TestCrossCheckRouting:
    @pytest.mark.parametrize("engine", ["cycle", "trace"])
    def test_cross_check_engine_param(self, engine):
        g = random_dag(5, 35, 2, seed=6)
        res = compile_ffcl(g, TINY)
        ok, _, _ = cross_check(res.program, seed=6, engine=engine)
        assert ok

    def test_cross_check_default_is_cycle_accurate(self):
        g = random_dag(4, 20, 1, seed=7)
        res = compile_ffcl(g, TINY)
        ok, _, _ = cross_check(res.program, seed=7)
        assert ok


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 3000),
    n=st.integers(1, 6),
    m=st.integers(2, 6),
    gates=st.integers(5, 50),
)
def test_property_trace_engine_matches_functional(seed, n, m, gates):
    """For ANY random netlist and ANY LPU size, the vectorized trace engine
    equals functional evaluation — the fast path never trades correctness."""
    g = random_dag(5, gates, 2, seed=seed)
    res = compile_ffcl(g, LPUConfig(num_lpvs=n, lpes_per_lpv=m))
    ok, _, _ = cross_check(res.program, seed=seed, engine="trace")
    assert ok
