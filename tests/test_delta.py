"""The delta engine: incremental streaming execution.

Covers the four layers the streaming stack is built from:

* :mod:`repro.core.fanout` — single-assignment delta tables and the
  CSR register->consumer fanout,
* :class:`repro.engine.delta.DeltaEngine` — bit-identity to the fused
  engine over ANY stream history (hypothesis-driven low- and
  high-entropy streams), state lifecycle, and the dense fallbacks,
* the ``.lpa`` artifact's optional embedded fanout section,
* :class:`repro.serve.stream.StreamSession` — sticky stateful serving.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import ExecutableArtifact
from repro.core import LPUConfig, compile_ffcl
from repro.core.fanout import build_fanout
from repro.core.liveness import fuse_trace
from repro.core.trace import lower_program
from repro.engine import Session, available_engines, create_engine
from repro.engine.delta import DeltaEngine
from repro.engine.fused import _PI_BASE
from repro.lpu import evaluate_graph, random_stimulus
from repro.netlist import random_dag
from repro.serve import ServeConfig, StreamingServer, make_stream
from repro.serve.pool import WorkerPool

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)

#: Module-cached compiles (fixtures don't mix with @given; lowering and
#: fusion are shared through their process-wide caches anyway).
_CACHE = {}


def _compiled():
    if "result" not in _CACHE:
        g = random_dag(10, 120, 6, seed=5)
        _CACHE["result"] = compile_ffcl(g, SMALL)
    return _CACHE["result"]


def _stats_tuple(result):
    return (
        result.macro_cycles,
        result.clock_cycles,
        result.compute_instructions_executed,
        result.switch_routes,
        result.peak_buffer_words,
        result.buffer_writes,
    )


def _assert_step_equal(expected, got, context=""):
    assert expected.outputs.keys() == got.outputs.keys(), context
    for name, words in expected.outputs.items():
        assert np.array_equal(got.outputs[name], words), (context, name)
    assert _stats_tuple(expected) == _stats_tuple(got), context


# ----------------------------------------------------------------------
class TestFanoutTables:
    def test_delta_engine_registered(self):
        assert "delta" in available_engines()

    def test_single_assignment_layout(self):
        """Every kept instruction owns one unique persistent row; level
        output rows are contiguous ascending; every operand row is
        strictly below its consumer's row (gather-before-scatter)."""
        program = _compiled().program
        fused = fuse_trace(lower_program(program))
        tables = build_fanout(fused)
        assert tables.num_rows == tables.num_pinned + tables.num_instructions
        assert tables.num_pinned == _PI_BASE + len(fused.pi_regs)
        for lev in range(tables.num_levels):
            s = int(tables.level_start[lev])
            e = int(tables.level_start[lev + 1])
            for gid in range(s, e):
                row = tables.num_pinned + gid
                assert int(tables.a_row[gid]) < row
                assert int(tables.b_row[gid]) < row
        # CSR edges point at strictly later instructions.
        for row in range(tables.num_rows):
            for gid in tables.consumers_of(row):
                assert tables.num_pinned + int(gid) > row

    def test_dense_view_matches_fused_outputs(self):
        """The dense repackaging of the delta tables executes to the
        same outputs as the original fused program."""
        result = _compiled()
        graph = result.program.graph
        stim = random_stimulus(graph, array_size=2, seed=9)
        reference = evaluate_graph(graph, stim)
        got = create_engine("delta", result.program).run(stim)
        for name, words in reference.items():
            assert np.array_equal(got.outputs[name], words), name


# ----------------------------------------------------------------------
class TestDeltaParity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        flip_bits=st.integers(1, 6),
        array_size=st.integers(1, 3),
    )
    def test_property_low_entropy_stream_bit_identical(
        self, seed, flip_bits, array_size
    ):
        """ANY random-walk stream (any seed, flip rate, batch width) is
        bit-identical to per-step fused execution — outputs AND
        statistics — across the whole stateful history."""
        program = _compiled().program
        stream = make_stream(
            program.graph, steps=8, flip_bits=flip_bits,
            array_size=array_size, seed=seed,
        )
        fused = Session(program, engine="fused")
        delta = Session(program, engine="delta")
        for i, stim in enumerate(stream):
            _assert_step_equal(fused.run(stim), delta.run(stim), i)
        counters = delta.engine.delta_stats()
        assert counters["runs"] == len(stream)
        assert counters["full_runs"] >= 1

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_random_stream_bit_identical_with_fallback(
        self, seed
    ):
        """Fully random (high-entropy) streams stay bit-identical and
        drive the dense input fallback, not the sparse sweep."""
        program = _compiled().program
        stream = make_stream(
            program.graph, steps=6, array_size=2,
            random_stream=True, seed=seed,
        )
        fused = Session(program, engine="fused")
        engine = DeltaEngine(program)
        state = engine.new_state()
        for i, stim in enumerate(stream):
            expected = fused.run(stim)
            got = engine.run_with_state(stim, state)
            _assert_step_equal(expected, got, i)
        assert state.dense_fallback_runs > 0
        assert state.sparse_runs + state.clean_runs \
            + state.dense_fallback_runs + state.full_runs == state.runs


# ----------------------------------------------------------------------
class TestDeltaStateMachine:
    def test_independent_states_stay_isolated(self):
        """Two interleaved streams over ONE engine, each with its own
        state, match two dedicated fused sessions step for step."""
        program = _compiled().program
        engine = DeltaEngine(program)
        streams = [
            make_stream(program.graph, steps=6, flip_bits=1, seed=s)
            for s in (11, 22)
        ]
        states = [engine.new_state(), engine.new_state()]
        fused = [Session(program, engine="fused") for _ in streams]
        for step in range(6):
            for client in (0, 1):
                expected = fused[client].run(streams[client][step])
                got = engine.run_with_state(
                    streams[client][step], states[client]
                )
                _assert_step_equal(expected, got, (client, step))
        for state in states:
            assert state.runs == 6
            assert state.full_runs >= 1

    def test_reset_forces_full_run(self):
        program = _compiled().program
        session = Session(program, engine="delta")
        stim = random_stimulus(program.graph, array_size=1, seed=0)
        session.run(stim)
        session.run(stim)
        engine = session.engine
        assert engine.delta_stats()["clean_runs"] == 1
        engine.reset()
        session.run(stim)
        stats = engine.delta_stats()
        assert stats["full_runs"] == 2

    def test_clean_repeat_run_skips_execution(self):
        program = _compiled().program
        engine = DeltaEngine(program)
        state = engine.new_state()
        stim = random_stimulus(program.graph, array_size=1, seed=4)
        first = engine.run_with_state(stim, state)
        again = engine.run_with_state(stim, state)
        _assert_step_equal(first, again)
        assert state.clean_runs == 1
        assert state.sparse_instructions == 0

    def test_shape_change_rebinds_and_stays_correct(self):
        program = _compiled().program
        graph = program.graph
        session = Session(program, engine="delta")
        for array_size in (1, 3, 1):
            stim = random_stimulus(graph, array_size=array_size, seed=2)
            got = session.run(stim)
            reference = evaluate_graph(graph, stim)
            for name, words in reference.items():
                assert np.array_equal(got.outputs[name], words)
        assert session.engine.delta_stats()["full_runs"] == 3

    def test_dense_fallback_knobs(self):
        """dense_input_fraction=0 forces every dirty run dense; a
        fraction above 1 disables the whole-run fallback entirely."""
        program = _compiled().program
        stream = make_stream(program.graph, steps=5, flip_bits=2, seed=7)

        always = DeltaEngine(program, dense_input_fraction=0.0)
        never = DeltaEngine(program, dense_input_fraction=1.5)
        fused = Session(program, engine="fused")
        for stim in stream:
            expected = fused.run(stim)
            _assert_step_equal(expected, always.run(stim))
            _assert_step_equal(expected, never.run(stim))
        assert always.delta_stats()["sparse_runs"] == 0
        assert always.delta_stats()["dense_fallback_runs"] == 4
        assert never.delta_stats()["dense_fallback_runs"] == 0
        assert never.delta_stats()["sparse_runs"] == 4

    def test_scalar_stimulus_matches_fused(self):
        program = _compiled().program
        base = random_stimulus(program.graph, array_size=1, seed=1)
        stim = {name: words.reshape(())[()] for name, words in base.items()}
        fused = Session(program, engine="fused").run(stim)
        delta = Session(program, engine="delta").run(stim)
        for name, word in fused.outputs.items():
            assert delta.outputs[name].shape == word.shape == ()
            assert delta.outputs[name] == word

    def test_input_contract_errors(self):
        program = _compiled().program
        session = Session(program, engine="delta")
        with pytest.raises(KeyError, match="missing value for primary"):
            session.run({})
        stim = random_stimulus(program.graph, array_size=2, seed=0)
        name = next(iter(stim))
        bad = dict(stim)
        bad[name] = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ValueError, match="share one shape"):
            session.run(bad)


    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("nth", [1, 2, 3, 5, 8])
    def test_step_that_raises_invalidates_the_state(self, error, nth):
        """A sweep that dies mid-way has rewritten some rows while the
        previous words are still the old ones: without invalidation the
        next diff re-executes gates whose rows already hold the new
        value, sees "unchanged" and never propagates.  From the next
        step on the stream must be bit-identical to fused again."""
        program = _compiled().program
        stream = make_stream(program.graph, steps=8, flip_bits=3, seed=31)
        fused = Session(program, engine="fused")
        engine = DeltaEngine(program, dense_input_fraction=1.5)
        state = engine.new_state()
        for stim in stream[:3]:
            _assert_step_equal(
                fused.run(stim), engine.run_with_state(stim, state)
            )
        calls = []

        def poisoned(real):
            def func(*operands):
                calls.append(real)
                if len(calls) == nth:
                    raise error("poisoned word function")
                return real(*operands)
            return func

        healthy = engine._func
        engine._func = [poisoned(func) for func in healthy]
        with pytest.raises(error, match="poisoned"):
            engine.run_with_state(stream[3], state)
        engine._func = healthy
        assert not state.valid and state.outputs is None
        full_runs = state.full_runs
        # the failed step again, then the rest of the stream
        for i, stim in enumerate(stream[3:]):
            _assert_step_equal(
                fused.run(stim), engine.run_with_state(stim, state), i
            )
        assert state.full_runs == full_runs + 1
        assert state.sparse_runs >= 2 + len(stream[4:])

    def test_every_result_of_a_mixed_stream_stays_intact(self):
        """Sparse steps patch the per-state outputs instead of rebuilding
        them, so a result shares arrays with its predecessors.  Hold
        EVERY result of a stream that mixes sparse, clean, whole-run
        dense, per-level dense, reset and shape-rebind steps and judge
        them all only after the last step: none may have been touched.
        The graph has an output wired straight to an input, two names on
        one gate, and constant outputs."""
        graph = random_dag(10, 120, 6, seed=5)
        graph.set_output("wire", graph.inputs[3])
        graph.set_output("twin", graph.outputs[0][1])
        program = compile_ffcl(graph, SMALL).program
        engine = DeltaEngine(
            program, dense_level_min=2, dense_level_fraction=0.3
        )
        rows = engine.tables.output_rows
        assert rows["wire"] == engine.tables.pi_rows["x3"]
        assert rows["twin"] == rows["y0"]

        def flips(base, count, seed):
            rng = np.random.default_rng(seed)
            stim = {name: words.copy() for name, words in base.items()}
            for name in rng.choice(sorted(stim), size=count, replace=False):
                stim[name][rng.integers(stim[name].size)] ^= np.uint64(
                    1 << int(rng.integers(64))
                )
            return stim

        steps = [random_stimulus(graph, array_size=1, seed=1)]   # full
        for i in range(6):                                       # sparse
            steps.append(flips(steps[-1], 1 + i % 3, seed=i))
        steps.append(steps[-1])                                  # clean
        steps.append(flips(steps[-1], 1, seed=50))
        steps.append(random_stimulus(graph, array_size=1, seed=2))  # dense
        steps.append(flips(steps[-1], 4, seed=51))
        steps.append("reset")
        steps.append(flips(steps[-2], 1, seed=52))               # full
        steps.append(flips(steps[-1], 1, seed=53))
        steps.append(random_stimulus(graph, array_size=3, seed=3))  # rebind
        for i in range(4):                                       # n-word
            steps.append(flips(steps[-1], 1 + i % 2, seed=60 + i))
        steps.append(steps[0])                                   # rebind
        steps.append(flips(steps[0], 1, seed=70))

        state = engine.new_state()
        held = []
        for step in steps:
            if isinstance(step, str):
                engine.reset(state)
                continue
            before = state.clean_runs
            result = engine.run_with_state(step, state)
            if state.clean_runs > before:
                # nothing changed: the very same arrays as last time
                assert all(
                    word is held[-1][1].outputs[name]
                    for name, word in result.outputs.items()
                )
            held.append((step, result))
        counters = state.counters()
        assert counters["full_runs"] == 4
        assert counters["clean_runs"] == 1
        assert counters["dense_fallback_runs"] >= 1
        assert counters["dense_levels"] >= 1
        assert counters["sparse_runs"] >= 12
        assert counters["sparse_instructions"] > 0

        fused = Session(program, engine="fused")
        for i, (stim, result) in enumerate(held):
            expected = fused.run(stim)
            _assert_step_equal(expected, result, i)
            for name, word in result.outputs.items():
                assert word.shape == expected.outputs[name].shape
                with pytest.raises(ValueError, match="read-only"):
                    word[...] = 0
        # fused hands out fresh, writable arrays every run
        again = fused.run(held[-1][0])
        for name, word in again.outputs.items():
            assert word is not expected.outputs[name]
            word[...] = 0

    def test_scalar_outputs_of_a_patched_stream(self):
        """0-d stimulus squeezes views of the shared arrays: still
        read-only, still intact afterwards."""
        program = _compiled().program
        graph = program.graph
        base = random_stimulus(graph, array_size=1, seed=6)
        name = sorted(base)[0]
        stims = []
        for i in range(4):
            stim = {n: w.reshape(())[()] for n, w in base.items()}
            stim[name] = stim[name] ^ np.uint64(1 << i)
            stims.append(stim)
        delta = Session(program, engine="delta")
        held = [delta.run(stim) for stim in stims]
        fused = Session(program, engine="fused")
        for stim, result in zip(stims, held):
            _assert_step_equal(fused.run(stim), result)
            for word in result.outputs.values():
                assert word.shape == () and not word.flags.writeable


# ----------------------------------------------------------------------
class TestArtifactFanout:
    def test_fanout_embedded_and_round_trip(self):
        result = _compiled()
        artifact = result.to_artifact(fanout=True)
        payload = artifact.to_bytes()
        loaded = ExecutableArtifact.from_bytes(payload)
        assert loaded.fanout is not None
        assert loaded.fanout.fused is loaded.fused
        # Deterministic re-encode: byte-identical through the round trip.
        assert loaded.to_bytes() == payload
        # The embedded tables are the ones the accessor hands out, and
        # the ones the registry shares.
        assert loaded.fanout_tables() is loaded.fanout
        assert build_fanout(loaded.fused) is loaded.fanout
        summary = loaded.summary()["fanout"]
        assert summary["rows"] == loaded.fanout.num_rows

    def test_plain_artifact_has_no_fanout_section(self):
        program = _compiled().program
        artifact = ExecutableArtifact.from_bytes(
            ExecutableArtifact.from_program(program).to_bytes()
        )
        assert artifact.fanout is None
        assert artifact.summary()["fanout"] is None
        # The accessor still derives tables on demand.
        assert artifact.fanout_tables().num_instructions > 0

    def test_fanout_requires_fused_tables(self):
        program = _compiled().program
        with pytest.raises(ValueError, match="fanout"):
            ExecutableArtifact.from_program(
                program, lower=False, fanout=True
            )

    def test_delta_session_from_artifact_bit_identical(self):
        result = _compiled()
        graph = result.program.graph
        payload = result.to_artifact(fanout=True).to_bytes()
        loaded = ExecutableArtifact.from_bytes(payload)
        stream = make_stream(graph, steps=6, flip_bits=1, seed=3)
        fused = Session(result.program, engine="fused")
        delta = loaded.session(engine="delta")
        for i, stim in enumerate(stream):
            _assert_step_equal(fused.run(stim), delta.run(stim), i)
        # The embedded tables were adopted, not rebuilt.
        assert delta.engine.tables is loaded.fanout


# ----------------------------------------------------------------------
class TestStreamSession:
    def test_sticky_sessions_isolated_across_workers(self):
        result = _compiled()
        program = result.program
        streams = [
            make_stream(program.graph, steps=5, flip_bits=1, seed=s)
            for s in (1, 2, 3)
        ]
        fused = [Session(program, engine="fused") for _ in streams]
        with StreamingServer(
            program, serving=ServeConfig(engine="delta", num_workers=2)
        ) as server:
            sessions = [server.open_session() for _ in streams]
            assert sorted(server.stats()["open_sessions"]) == [1, 2]
            for step in range(5):
                futures = [
                    session.submit(stream[step])
                    for session, stream in zip(sessions, streams)
                ]
                for client, future in enumerate(futures):
                    expected = fused[client].run(streams[client][step])
                    _assert_step_equal(
                        expected, future.result(timeout=30),
                        (client, step),
                    )
            for session in sessions:
                assert session.stateful
                assert session.stats()["runs"] == 5
                session.close()
            assert server.stats()["open_sessions"] == [0, 0]

    def test_session_reset_runs_densely_again(self):
        program = _compiled().program
        stim = random_stimulus(program.graph, array_size=1, seed=6)
        with StreamingServer(program) as server:
            with server.open_session() as session:
                session.run(stim)
                session.run(stim)
                session.reset()
                session.run(stim)
                assert session.stats()["full_runs"] == 2
                assert session.stats()["clean_runs"] == 1

    def test_stateless_engine_degrades_to_per_request(self):
        program = _compiled().program
        stim = random_stimulus(program.graph, array_size=1, seed=8)
        expected = Session(program, engine="fused").run(stim)
        with StreamingServer(
            program, serving=ServeConfig(engine="fused")
        ) as server:
            with server.open_session() as session:
                assert not session.stateful
                assert session.stats() == {}
                _assert_step_equal(expected, session.run(stim))

    def test_closed_session_rejects_steps(self):
        program = _compiled().program
        stim = random_stimulus(program.graph, array_size=1, seed=0)
        with StreamingServer(program) as server:
            session = server.open_session()
            session.close()
            with pytest.raises(RuntimeError, match="closed"):
                session.run(stim)

    def test_submit_call_needs_thread_backend(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        program = _compiled().program
        with WorkerPool(program, num_workers=1, backend="fork") as pool:
            with pytest.raises(RuntimeError, match="thread"):
                pool.submit_call(0, lambda session: None)
