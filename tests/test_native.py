"""Tests for the native multi-core engine over the packed fused tables.

The load-bearing properties:

* every native backend is bit-identical — outputs AND statistics — to
  the fused engine for every model workload, batch shape, and thread
  count, directly and through the ``.lpa`` artifact round-trip,
* the packed opcode stream (hazard-ordered, cycle MOVs included)
  executes under strictly sequential semantics to the same results as
  the per-level fused kernel — the contract the numba and CUDA kernels
  transliterate,
* backend selection is deterministic (``cupy -> numba -> threaded ->
  fused``), explicit unavailable backends fail loudly, and the options
  plumb through ``Session``/``ServeConfig``/``WorkerPool``,
* everything here passes in a pure-numpy environment — numba/cupy cases
  skip gracefully when the optional dependency is missing.
"""

import threading

import numpy as np
import pytest
from forms import record_forms
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import ExecutableArtifact
from repro.core import LPUConfig, compile_ffcl, fuse_trace, lower_program
from repro.engine import (
    NativeEngine,
    Session,
    create_engine,
    native_capabilities,
)
from repro.engine import native as native_module
from repro.engine.native import (
    FALLBACK_CHAIN,
    OP_MOV,
    _backend_available,
    capabilities,
    execute_stream,
    pack_stream,
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
from repro.netlist import random_dag
from repro.serve import ServeConfig, serve
from repro.serve.pool import WorkerPool

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

#: every backend, optional ones marked for graceful skip.
ALL_BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            not _backend_available(name),
            reason=f"native backend {name!r} unavailable on this host",
        ),
    )
    for name in FALLBACK_CHAIN
]


def _compile_block(factory):
    model = factory()
    layer = min(model.layers, key=lambda l: (l.fan_in, l.num_neurons))
    block, _ = layer_block(layer, sample_neurons=2, seed=0)
    return compile_ffcl(block, SMALL)


def _assert_same_result(native, fused, context):
    for name, word in fused.outputs.items():
        assert np.array_equal(native.outputs[name], word), (context, name)
    assert native.macro_cycles == fused.macro_cycles, context
    assert native.clock_cycles == fused.clock_cycles, context
    assert (
        native.compute_instructions_executed
        == fused.compute_instructions_executed
    ), context
    assert native.switch_routes == fused.switch_routes, context
    assert native.peak_buffer_words == fused.peak_buffer_words, context
    assert native.buffer_writes == fused.buffer_writes, context


# ----------------------------------------------------------------------
class TestCapabilities:
    def test_report_shape(self):
        report = capabilities()
        assert report["fallback_chain"] == list(FALLBACK_CHAIN)
        assert report["threaded"] is True
        assert report["fused"] is True
        assert report["cpu_count"] >= 1
        assert report["auto_backend"] in FALLBACK_CHAIN
        for optional in ("numba", "cupy"):
            if not report[optional]:
                assert report[f"{optional}_error"]
        assert native_capabilities() == report

    def test_auto_picks_first_available(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        engine = NativeEngine(res.program)
        assert engine.backend == capabilities()["auto_backend"]
        chain = list(FALLBACK_CHAIN)
        for earlier in chain[: chain.index(engine.backend)]:
            assert not _backend_available(earlier)

    def test_unknown_backend_rejected(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        with pytest.raises(ValueError, match="unknown native backend"):
            NativeEngine(res.program, backend="simd")

    def test_unavailable_backend_raises_with_reason(self):
        missing = [
            name for name in ("cupy", "numba")
            if not _backend_available(name)
        ]
        if not missing:
            pytest.skip("all optional backends available on this host")
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        with pytest.raises(ValueError, match="unavailable"):
            NativeEngine(res.program, backend=missing[0])

    def test_bad_thread_count_rejected(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        with pytest.raises(ValueError, match="threads"):
            NativeEngine(res.program, threads=-1)

    def test_backend_stats_report(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        engine = NativeEngine(
            res.program, backend="threaded", threads=3,
            min_shard_words=2, rowwise_min_words=8,
        )
        stats = engine.backend_stats()
        assert stats["backend"] == "threaded"
        assert stats["threads"] == 3
        assert stats["min_shard_words"] == 2
        assert stats["rowwise_min_words"] == 8
        assert stats["stream_instructions"] >= sum(
            lv.num_instructions for lv in engine.fused.levels
        )
        assert stats["stream_regs"] >= engine.fused.num_regs
        engine.close()


# ----------------------------------------------------------------------
class TestPackedStream:
    def test_stream_cached_on_fused_program(self):
        g = random_dag(5, 40, 2, seed=3)
        res = compile_ffcl(g, SMALL)
        fused = fuse_trace(lower_program(res.program))
        assert pack_stream(fused) is pack_stream(fused)

    def test_stream_well_formed(self):
        g = random_dag(6, 70, 3, seed=9)
        res = compile_ffcl(g, SMALL)
        fused = fuse_trace(lower_program(res.program))
        stream = pack_stream(fused)
        starts = stream.level_starts
        assert starts[0] == 0
        assert starts[-1] == stream.num_instructions
        assert np.all(np.diff(starts) >= 1)
        assert stream.num_levels == fused.num_levels
        assert stream.num_regs >= fused.num_regs
        for array in (stream.a_reg, stream.b_reg, stream.out_reg):
            assert int(array.min(initial=0)) >= 0
            assert int(array.max(initial=0)) < stream.num_regs
        # Constants are never destinations.
        assert 0 not in stream.out_reg
        assert 1 not in stream.out_reg
        # Cycle MOVs, and nothing else, write scratch rows.
        movs = stream.ops == OP_MOV
        assert np.array_equal(movs, stream.out_reg >= fused.num_regs)
        assert stream.num_instructions == int(movs.sum()) + sum(
            lv.num_instructions for lv in fused.levels
        )

    def test_sequential_interpreter_matches_fused_kernels(self):
        g = random_dag(6, 70, 3, seed=11)
        res = compile_ffcl(g, SMALL)
        engine = create_engine("fused", res.program)
        fused = engine.fused
        stream = pack_stream(fused)
        for words in (1, 3):
            stim = random_stimulus(
                res.program.graph, array_size=words, seed=words
            )
            values = np.zeros((stream.num_regs, words), dtype=np.uint64)
            values[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
            for name, reg in fused.pi_regs.items():
                values[reg] = np.asarray(stim[name], dtype=np.uint64)
            execute_stream(stream, values)
            expected = engine.run(stim)
            for name, reg in fused.output_regs.items():
                assert np.array_equal(
                    values[reg], expected.outputs[name]
                ), name


# ----------------------------------------------------------------------
class TestNativeParity:
    @pytest.mark.parametrize(
        "factory", MODEL_FACTORIES, ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backend_matrix_bit_identical(self, factory, backend):
        """The acceptance matrix: every backend x every model workload,
        outputs AND statistics, repeated runs on one session."""
        res = _compile_block(factory)
        graph = res.program.graph
        fused = Session(res.program, engine="fused")
        native = Session(
            res.program,
            engine="native",
            engine_options={
                "backend": backend,
                "threads": 4,
                "min_shard_words": 1,
            },
        )
        for batch, array_size in enumerate((1, 5, 64)):
            stim = random_stimulus(
                graph, array_size=array_size, seed=batch
            )
            ref = evaluate_graph(graph, stim)
            out = native.run(stim)
            _assert_same_result(out, fused.run(stim), (backend, batch))
            for name, word in ref.items():
                assert np.array_equal(out.outputs[name], word), name

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_artifact_round_trip_bit_identical(self, backend):
        res = _compile_block(lenet5_workload)
        artifact = ExecutableArtifact.from_bytes(
            ExecutableArtifact.from_compile(res).to_bytes()
        )
        session = artifact.session(
            engine="native",
            engine_options={
                "backend": backend, "threads": 2, "min_shard_words": 1,
            },
        )
        fused = Session(res.program, engine="fused")
        stim = random_stimulus(artifact.graph, array_size=8, seed=5)
        _assert_same_result(
            session.run(stim), fused.run(stim), backend
        )

    def test_threaded_sharding_actually_splits(self):
        g = random_dag(5, 40, 2, seed=7)
        res = compile_ffcl(g, SMALL)
        engine = NativeEngine(
            res.program, backend="threaded", threads=4, min_shard_words=1
        )
        assert engine._shard_count(8) == 4
        assert engine._shard_count(2) == 2
        stim = random_stimulus(res.program.graph, array_size=8, seed=1)
        ref = evaluate_graph(res.program.graph, stim)
        out = engine.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name
        engine.close()

    def test_threaded_crossover_to_single_thread(self):
        """Below min_shard_words the threaded backend must not spin up
        the executor at all — it falls through to the fused kernels."""
        g = random_dag(5, 40, 2, seed=8)
        res = compile_ffcl(g, SMALL)
        engine = NativeEngine(
            res.program, backend="threaded", threads=4,
            min_shard_words=64,
        )
        stim = random_stimulus(res.program.graph, array_size=2, seed=0)
        ref = evaluate_graph(res.program.graph, stim)
        out = engine.run(stim)
        assert engine._executor is None  # small batch: no threads
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name

    def test_scalar_and_alternating_shapes(self):
        g = random_dag(5, 40, 2, seed=9)
        res = compile_ffcl(g, SMALL)
        session = Session(
            res.program, engine="native",
            engine_options={
                "backend": "threaded", "threads": 2, "min_shard_words": 1,
            },
        )
        fused = Session(res.program, engine="fused")
        graph = res.program.graph
        for array_size in (1, 5, 1, 64, 5, None):
            if array_size is None:
                stim = {
                    name: np.uint64(3 + i)
                    for i, name in enumerate(
                        graph.input_name(nid) for nid in graph.inputs
                    )
                }
            else:
                stim = random_stimulus(
                    graph, array_size=array_size, seed=2
                )
            out = session.run(stim)
            expected = fused.run(stim)
            _assert_same_result(out, expected, array_size)
            for name, word in expected.outputs.items():
                assert out.outputs[name].shape == word.shape, name

    def test_shared_session_concurrent_runs_stay_correct(self):
        """One native Session shared across caller threads while the
        engine itself shards across its own pool: the run lock plus
        per-shard workspaces keep results bit-exact."""
        g = random_dag(5, 40, 2, seed=22)
        res = compile_ffcl(g, SMALL)
        session = Session(
            res.program, engine="native",
            engine_options={
                "backend": "threaded", "threads": 2, "min_shard_words": 1,
            },
        )
        graph = res.program.graph
        stims = [
            random_stimulus(graph, array_size=4, seed=s) for s in range(4)
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

    def test_profile_levels_reports_backend(self):
        g = random_dag(5, 40, 2, seed=12)
        res = compile_ffcl(g, SMALL)
        engine = NativeEngine(
            res.program, backend="threaded", threads=2, min_shard_words=1
        )
        stim = random_stimulus(res.program.graph, array_size=4, seed=0)
        records = engine.profile_levels(stim)
        assert len(records) == engine.fused.num_levels
        assert all(r["seconds"] >= 0 for r in records)
        assert all(r["backend"] == "threaded" for r in records)
        # Profiling leaves the engine consistent: outputs still check out.
        ref = evaluate_graph(res.program.graph, stim)
        out = engine.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word), name
        engine.close()


# ----------------------------------------------------------------------
class TestOptionsPlumbing:
    def test_session_rejects_options_with_engine_instance(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        engine = create_engine("fused", res.program)
        with pytest.raises(ValueError, match="engine_options"):
            Session(
                res.program, engine=engine,
                engine_options={"rowwise_min_words": 1},
            )

    def test_session_rejects_unknown_option(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        with pytest.raises(TypeError):
            Session(
                res.program, engine="cycle",
                engine_options={"backend": "threaded"},
            )

    def test_cross_check_forwards_options(self):
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        ok, _outputs, _ref = cross_check(
            res.program, seed=1, engine="native",
            engine_options={"backend": "threaded", "threads": 2},
        )
        assert ok

    def test_serve_config_carries_options(self):
        serving = ServeConfig(
            engine="native",
            engine_options={"backend": "threaded", "threads": 2},
        )
        assert serving.describe()["engine_options"] == {
            "backend": "threaded", "threads": 2,
        }
        # replace() keeps them.
        assert serving.replace(num_workers=4).engine_options == {
            "backend": "threaded", "threads": 2,
        }

    def test_worker_pool_builds_native_workers(self):
        g = random_dag(5, 40, 2, seed=13)
        res = compile_ffcl(g, SMALL)
        pool = WorkerPool(
            res.program, num_workers=2, engine="native",
            engine_options={
                "backend": "threaded", "threads": 2, "min_shard_words": 1,
            },
        )
        try:
            fused = Session(res.program, engine="fused")
            stims = [
                random_stimulus(res.program.graph, array_size=4, seed=s)
                for s in range(4)
            ]
            futures = [pool.submit(stim) for stim in stims]
            for stim, future in zip(stims, futures):
                _assert_same_result(
                    future.result(), fused.run(stim), "pool"
                )
        finally:
            pool.close()

    def test_serve_layer_end_to_end_native(self):
        g = random_dag(5, 40, 2, seed=14)
        res = compile_ffcl(g, SMALL)
        stims = [
            random_stimulus(res.program.graph, array_size=2, seed=s)
            for s in range(6)
        ]
        fused = Session(res.program, engine="fused")
        results = serve(
            res.program, stims,
            serving=ServeConfig(
                engine="native",
                engine_options={
                    "backend": "threaded",
                    "threads": 2,
                    "min_shard_words": 1,
                },
                num_workers=2,
            ),
        )
        for stim, out in zip(stims, results):
            _assert_same_result(out, fused.run(stim), "serve")

    def test_rowwise_min_words_reaches_native(self, monkeypatch):
        """The option picks the form on the single-thread fallback and
        per shard (by shard width, not batch width) on the threaded
        backend."""
        forms = record_forms(monkeypatch, native_module)
        g = random_dag(4, 20, 1, seed=0)
        res = compile_ffcl(g, TINY)
        graph = res.program.graph
        for backend, threshold, words, expected in (
            ("fused", 1, 2, ["rowwise"]),
            ("fused", 3, 2, ["vector"]),
            ("threaded", 4, 8, ["rowwise", "rowwise"]),
            ("threaded", 5, 8, ["vector", "vector"]),
        ):
            engine = create_engine(
                "native", res.program, backend=backend, threads=2,
                min_shard_words=1, rowwise_min_words=threshold,
            )
            assert engine.rowwise_min_words == threshold
            stim = random_stimulus(graph, array_size=words, seed=0)
            ref = evaluate_graph(graph, stim)
            forms.clear()
            out = engine.run(stim)
            engine.close()
            assert forms == expected, (backend, threshold)
            for name, word in ref.items():
                assert np.array_equal(out.outputs[name], word), name


# ----------------------------------------------------------------------
class TestNativeProperties:
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=2, max_value=6),
        num_gates=st.integers(min_value=5, max_value=60),
        array_size=st.integers(min_value=1, max_value=9),
        threads=st.integers(min_value=1, max_value=4),
    )
    def test_threaded_backend_bit_identical(
        self, seed, num_inputs, num_gates, array_size, threads
    ):
        """Word sharding never changes a single output bit or statistic,
        for arbitrary graphs, batch sizes, and thread counts."""
        g = random_dag(num_inputs, num_gates, 2, seed=seed)
        res = compile_ffcl(g, TINY)
        stim = random_stimulus(
            res.program.graph, array_size=array_size, seed=seed
        )
        fused = create_engine("fused", res.program).run(stim)
        engine = NativeEngine(
            res.program, backend="threaded",
            threads=threads, min_shard_words=1,
        )
        try:
            _assert_same_result(engine.run(stim), fused, seed)
        finally:
            engine.close()

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        array_size=st.integers(min_value=1, max_value=5),
    )
    def test_packed_stream_bit_identical(self, seed, array_size):
        """The sequential stream semantics (hazard order, cycle MOVs)
        equal the per-level fused semantics for arbitrary graphs."""
        g = random_dag(5, 45, 2, seed=seed)
        res = compile_ffcl(g, TINY)
        engine = create_engine("fused", res.program)
        fused = engine.fused
        stream = pack_stream(fused)
        stim = random_stimulus(
            res.program.graph, array_size=array_size, seed=seed
        )
        values = np.zeros(
            (stream.num_regs, array_size), dtype=np.uint64
        )
        values[1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        for name, reg in fused.pi_regs.items():
            values[reg] = np.asarray(stim[name], dtype=np.uint64)
        execute_stream(stream, values)
        expected = engine.run(stim)
        for name, reg in fused.output_regs.items():
            assert np.array_equal(
                values[reg], expected.outputs[name]
            ), name
